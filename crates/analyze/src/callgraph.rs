//! Pass 2 infrastructure: the approximate call graph and the lock-acquisition
//! graph built over it.
//!
//! Calls are matched lexically (`ident(`), resolved against the symbol index
//! by unique name only (see [`crate::index::WorkspaceIndex::resolve`]), and
//! used for two derived facts per function: the set of lock classes its
//! transitive closure may acquire, and whether that closure may perform
//! platform/journal I/O. A *lock class* names one `Mutex`/`RwLock` value —
//! `(defining file, field name)`, e.g. `crates/crowd/src/lease.rs:table` —
//! so the read and write helpers of `SharedAccuracyRegistry` collapse into one
//! `registry` class, which is exactly the granularity deadlock ordering needs.
//!
//! Guard-returning helpers (`fn ... -> MutexGuard<..>`) are first-class: a
//! call like `self.state()` acquires the callee's internal class, and a
//! generic relock helper called as `Self::relock(&self.journal)` is resolved
//! to the *argument's* field (`journal`), not the helper's opaque type
//! parameter.

use std::collections::{BTreeMap, BTreeSet};

use crate::index::WorkspaceIndex;
use crate::scan::{SourceFile, SourceLine};

/// Rust keywords and control forms that look like calls lexically.
const NON_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "else", "move", "in", "as",
    "impl", "where", "unsafe", "dyn", "ref", "mut", "pub", "use", "mod", "crate", "self", "Self",
    "super", "break", "continue",
];

/// True when the char is part of a Rust identifier.
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// One lexical call site: the called name and its argument text (same-line
/// portion only — multi-line calls keep their first line's args).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The bare called name (`collect_batch`, `relock`, ...).
    pub name: String,
    /// Root identifier of the receiver chain (`self` for `self.a.b()`,
    /// empty for free calls).
    pub receiver_root: String,
    /// The argument text between the call's parentheses, clipped at line end.
    pub args: String,
    /// Whether the closing `)` was found on the same line (when false, `args`
    /// is a prefix of the real argument list).
    pub complete: bool,
}

/// Extracts the lexical call sites on one stripped code line.
pub fn calls_on_line(code: &str) -> Vec<CallSite> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if !is_ident(chars[i]) || chars[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident(chars[i]) {
            i += 1;
        }
        let name: String = chars[start..i].iter().collect();
        // A call is `ident(`; `ident!(` is a macro, `ident (` with a space is
        // a control form in practice (rustfmt), both skipped.
        if chars.get(i) != Some(&'(') {
            continue;
        }
        if NON_CALLS.contains(&name.as_str()) {
            continue;
        }
        // Closing-paren search for the same-line argument text.
        let mut depth = 0i32;
        let mut end = chars.len();
        let mut complete = false;
        for (j, &c) in chars.iter().enumerate().skip(i) {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth <= 0 {
                        end = j;
                        complete = true;
                        break;
                    }
                }
                _ => {}
            }
        }
        let args: String = chars[i + 1..end.min(chars.len())].iter().collect();
        let receiver_root = receiver_root_before(&chars, start);
        out.push(CallSite {
            name,
            receiver_root,
            args,
            complete,
        });
    }
    out
}

/// Root identifier of the receiver chain ending just before `at`
/// (`state` for `state.journal.append`), or empty for a free call.
fn receiver_root_before(chars: &[char], at: usize) -> String {
    let mut j = at;
    // Walk back over `.`/`::`-joined segments (and index brackets).
    let mut root_start = at;
    loop {
        if j == 0 {
            break;
        }
        let prev = chars[j - 1];
        if prev == '.' || prev == ':' {
            j -= 1;
            continue;
        }
        if prev == ']' {
            // Skip a bracketed index segment.
            let mut depth = 0i32;
            while j > 0 {
                match chars[j - 1] {
                    ']' => depth += 1,
                    '[' => {
                        depth -= 1;
                        if depth == 0 {
                            j -= 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j -= 1;
            }
            continue;
        }
        if is_ident(prev) {
            while j > 0 && is_ident(chars[j - 1]) {
                j -= 1;
            }
            root_start = j;
            continue;
        }
        break;
    }
    if root_start == at {
        return String::new();
    }
    chars[root_start..]
        .iter()
        .take_while(|&&c| is_ident(c))
        .collect()
}

/// One direct lock acquisition inside a fn body.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// The lock class, `path:field`.
    pub class: String,
    /// 1-based line of the acquisition.
    pub line: usize,
}

/// Lock classes named by `.lock()`/`.read()`/`.write()` sites on a line:
/// the last field segment of the receiver chain, keyed by the file. When the
/// needle starts the line (rustfmt-split chain, `self.state\n    .lock()`),
/// the receiver is taken from the previous line's trailing chain, passed in
/// as `prev_code`.
pub fn direct_acquisitions(path: &str, code: &str, prev_code: &str, lineno: usize) -> Vec<LockAcq> {
    let mut out = Vec::new();
    for needle in [".lock()", ".read()", ".write()"] {
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(needle) {
            let at = from + rel;
            let field = last_field_before(code, at).or_else(|| {
                if code[..at].trim().is_empty() {
                    let prev = prev_code.trim_end();
                    last_field_before(prev, prev.len())
                } else {
                    None
                }
            });
            if let Some(field) = field {
                out.push(LockAcq {
                    class: format!("{path}:{field}"),
                    line: lineno,
                });
            }
            from = at + needle.len();
        }
    }
    out
}

/// The last named segment of the chain ending at `at` (skipping a trailing
/// index): `stripes` for `self.inner.stripes[i]`, `table` for `self.table`.
fn last_field_before(code: &str, at: usize) -> Option<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut j = at.min(chars.len());
    // Skip a trailing `[...]` index.
    if j > 0 && chars[j - 1] == ']' {
        let mut depth = 0i32;
        while j > 0 {
            match chars[j - 1] {
                ']' => depth += 1,
                '[' => {
                    depth -= 1;
                    if depth == 0 {
                        j -= 1;
                        break;
                    }
                }
                _ => {}
            }
            j -= 1;
        }
    }
    let end = j;
    while j > 0 && is_ident(chars[j - 1]) {
        j -= 1;
    }
    if j == end {
        return None;
    }
    Some(chars[j..end].iter().collect())
}

/// Fields named as `self.<field>` / `&self.<field>` inside a call's args —
/// how a generic relock helper's class is resolved at its call site.
pub fn self_fields_in_args(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = args[from..].find("self.") {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident(args[..at].chars().next_back().unwrap_or(' '));
        let field: String = args[at + 5..]
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        if before_ok && !field.is_empty() {
            out.push(field);
        }
        from = at + 5;
    }
    out
}

/// Per-function derived facts over the whole index.
#[derive(Debug)]
pub struct CallGraph {
    /// `fns[i]` → resolved callee indices (unique-name resolution).
    pub callees: Vec<Vec<usize>>,
    /// `fns[i]` → lock classes its body acquires directly.
    pub direct_locks: Vec<Vec<LockAcq>>,
    /// `fns[i]` → lock classes reachable through its transitive closure
    /// (including its own).
    pub reachable_locks: Vec<BTreeSet<String>>,
    /// `fns[i]` → whether its transitive closure touches an I/O needle.
    pub reachable_io: Vec<bool>,
}

impl CallGraph {
    /// Builds the graph: one pass over every fn body for calls/locks/IO,
    /// then a fixpoint for the transitive sets.
    pub fn build(
        files: &BTreeMap<String, SourceFile>,
        index: &WorkspaceIndex,
        io_needles: &[&str],
    ) -> CallGraph {
        let n = index.fns.len();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut direct_locks: Vec<Vec<LockAcq>> = vec![Vec::new(); n];
        let mut direct_io: Vec<bool> = vec![false; n];
        for (fi, info) in index.fns.iter().enumerate() {
            if info.in_test {
                continue;
            }
            let Some(file) = files.get(&info.path) else {
                continue;
            };
            let Some(start) = info.body_start else {
                continue;
            };
            for (lineno, line) in body_lines(file, start, info.body_end) {
                let prev = prev_code(file, lineno);
                direct_locks[fi].extend(direct_acquisitions(&info.path, &line.code, prev, lineno));
                if io_needles.iter().any(|needle| line.code.contains(needle)) {
                    direct_io[fi] = true;
                }
                for call in calls_on_line(&line.code) {
                    if call.name == info.name {
                        continue; // recursion adds no new facts
                    }
                    if let Some(ci) = index.resolve(&call.name) {
                        if !callees[fi].contains(&ci) {
                            callees[fi].push(ci);
                        }
                    }
                }
            }
            callees[fi].sort_unstable();
        }
        // Fixpoint: propagate lock classes and IO reachability up the graph.
        let mut reachable_locks: Vec<BTreeSet<String>> = direct_locks
            .iter()
            .map(|locks| locks.iter().map(|l| l.class.clone()).collect())
            .collect();
        let mut reachable_io = direct_io;
        loop {
            let mut changed = false;
            for fi in 0..n {
                for ci in callees[fi].clone() {
                    if reachable_io[ci] && !reachable_io[fi] {
                        reachable_io[fi] = true;
                        changed = true;
                    }
                    let extra: Vec<String> = reachable_locks[ci]
                        .iter()
                        .filter(|c| !reachable_locks[fi].contains(*c))
                        .cloned()
                        .collect();
                    for c in extra {
                        reachable_locks[fi].insert(c);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        CallGraph {
            callees,
            direct_locks,
            reachable_locks,
            reachable_io,
        }
    }
}

/// The stripped code of the line above `lineno`, or empty at the top.
pub fn prev_code(file: &SourceFile, lineno: usize) -> &str {
    if lineno >= 2 {
        file.lines[lineno - 2].code.as_str()
    } else {
        ""
    }
}

/// Iterates `(1-based line number, line)` over a body span, skipping test
/// lines (a prod fn cannot contain them, but the guard is free).
pub fn body_lines(
    file: &SourceFile,
    start: usize,
    end: usize,
) -> impl Iterator<Item = (usize, &SourceLine)> {
    file.lines
        .iter()
        .enumerate()
        .skip(start.saturating_sub(1))
        .take_while(move |(i, _)| *i < end)
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.in_test)
}

/// One edge of the lock-acquisition graph: `held` was live when `acquired`
/// was taken, recorded at its first site.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock class held at the acquisition.
    pub held: String,
    /// Lock class acquired while `held` was live.
    pub acquired: String,
    /// File of the acquisition site.
    pub path: String,
    /// 1-based line of the acquisition site.
    pub line: usize,
}

/// The workspace lock-acquisition graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every lock class seen anywhere (graph nodes).
    pub classes: BTreeSet<String>,
    /// Ordered edges, keyed `(held, acquired)`, first site wins.
    pub edges: BTreeMap<(String, String), LockEdge>,
}

impl LockGraph {
    /// Records an edge (first site wins, so reports are deterministic).
    pub fn add_edge(&mut self, held: &str, acquired: &str, path: &str, line: usize) {
        self.classes.insert(held.to_string());
        self.classes.insert(acquired.to_string());
        let key = (held.to_string(), acquired.to_string());
        self.edges.entry(key).or_insert_with(|| LockEdge {
            held: held.to_string(),
            acquired: acquired.to_string(),
            path: path.to_string(),
            line,
        });
    }

    /// Records a node with no ordering constraint yet.
    pub fn add_class(&mut self, class: &str) {
        self.classes.insert(class.to_string());
    }

    /// Edges that participate in a cycle: `held → acquired` where `held` is
    /// reachable back from `acquired` (self-loops included).
    pub fn cyclic_edges(&self) -> Vec<&LockEdge> {
        let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (held, acquired) in self.edges.keys() {
            adjacency
                .entry(held.as_str())
                .or_default()
                .insert(acquired.as_str());
        }
        let mut cyclic = Vec::new();
        for edge in self.edges.values() {
            if edge.held == edge.acquired || reaches(&adjacency, &edge.acquired, &edge.held) {
                cyclic.push(edge);
            }
        }
        cyclic
    }
}

/// DFS reachability over the class adjacency map.
fn reaches(adjacency: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack: Vec<&str> = vec![from];
    while let Some(node) = stack.pop() {
        if node == to {
            return true;
        }
        if !seen.insert(node) {
            continue;
        }
        if let Some(next) = adjacency.get(node) {
            stack.extend(next.iter().copied().filter(|n| !seen.contains(*n)));
        }
    }
    false
}
