//! `cdas-analyze`: the repo-specific static-analysis pass.
//!
//! The workspace's correctness story leans on invariants no general-purpose
//! lint checks: fleet reports must be bit-identical across execution modes
//! (so nothing in production code may consult the wall clock or iterate a
//! hash-ordered container), shard threads must not panic (a panic surfaces
//! only after join), the hand-written journal codec must cover every enum
//! variant in both directions, and lock guards must not be held across
//! platform or journal I/O. This crate walks every production crate with a
//! hand-rolled line scanner (the container is offline, so `syn` is not an
//! option — same in-tree spirit as `cdas_core::codec`) and enforces those
//! rules as a hard CI gate.
//!
//! The analyzer runs in two passes. Pass 1 scans every file and builds a
//! workspace symbol index (fn definitions, signatures, struct-field types)
//! plus an approximate call graph with unique-name resolution
//! ([`index`], [`callgraph`]). Pass 2 runs the file-local rules *and* three
//! cross-file rules over that graph: `lock_order` (deadlock cycles in the
//! lock-acquisition graph), `unit_taint` (minutes/dollars/probability
//! confusion in bare `f64` arithmetic, [`units`]), and `protocol_order`
//! (publish/collect ticket sequencing and journal append-before-mutate).
//!
//! Pre-existing debt is grandfathered in a committed baseline file keyed by
//! line *content*, not line numbers; intentional sites carry an inline
//! `// cdas-allow(rule): reason` annotation. See ARCHITECTURE.md § Static
//! analysis for the workflow.

pub mod baseline;
pub mod callgraph;
pub mod index;
pub mod rules;
pub mod scan;
pub mod units;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rules::{CodecSpec, ProtocolSpec};
use scan::SourceFile;

/// One finding: a rule, the offending site, and a content fingerprint that
/// keys the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired (one of [`rules::RULE_NAMES`]).
    pub rule: &'static str,
    /// Path relative to the analysis root, `/`-separated.
    pub path: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Normalized text of the offending line; the baseline key.
    pub fingerprint: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Normalizes a source line into its baseline fingerprint: trimmed, with
/// internal whitespace runs collapsed, so reformatting does not orphan
/// baseline entries.
pub fn fingerprint(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut last_space = true;
    for c in raw.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out
}

/// What to analyze and with which rule parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root all paths are resolved against.
    pub root: PathBuf,
    /// Directories (relative to the root) to scan recursively for `.rs`.
    pub scan_dirs: Vec<&'static str>,
    /// Enums whose codecs must be exhaustive.
    pub codecs: Vec<CodecSpec>,
    /// Types that must carry `#[must_use]` (and whose wrapped returns need
    /// fn-level attributes).
    pub must_use_types: Vec<&'static str>,
    /// Call needles treated as platform/journal I/O by the lock rule.
    pub io_needles: Vec<&'static str>,
    /// Publish/collect call families and journal paths for `protocol_order`,
    /// one spec per ticket protocol (batch tickets, service job tickets, …).
    pub protocols: Vec<ProtocolSpec>,
}

impl Config {
    /// The production configuration for this workspace: every prod crate's
    /// `src` tree, the journal/core codec enums, and the receipt types the
    /// ISSUE list pins.
    pub fn workspace(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            scan_dirs: vec![
                "crates/core/src",
                "crates/crowd/src",
                "crates/engine/src",
                "crates/cdas/src",
            ],
            codecs: vec![
                CodecSpec {
                    enum_name: "JournalRecord",
                    decl_path: "crates/engine/src/journal/record.rs",
                    codec_path: "crates/engine/src/journal/record.rs",
                    test_paths: &["crates/engine/src/journal/record.rs"],
                },
                CodecSpec {
                    enum_name: "FleetEvent",
                    decl_path: "crates/engine/src/fleet.rs",
                    codec_path: "crates/engine/src/journal/record.rs",
                    test_paths: &["crates/engine/src/journal/record.rs"],
                },
                CodecSpec {
                    enum_name: "ExecutionMode",
                    decl_path: "crates/engine/src/fleet.rs",
                    codec_path: "crates/engine/src/journal/record.rs",
                    test_paths: &["crates/engine/src/journal/record.rs"],
                },
                CodecSpec {
                    enum_name: "Verdict",
                    decl_path: "crates/core/src/verification/mod.rs",
                    codec_path: "crates/core/src/codec.rs",
                    test_paths: &["crates/core/src/codec.rs"],
                },
                CodecSpec {
                    enum_name: "TerminationStrategy",
                    decl_path: "crates/core/src/online/termination.rs",
                    codec_path: "crates/core/src/codec.rs",
                    test_paths: &["crates/core/src/codec.rs"],
                },
            ],
            must_use_types: vec![
                "CancelReceipt",
                "RecoveryReport",
                "BatchTicket",
                "WorkerLease",
                "JobTicket",
                "ServiceRecovery",
            ],
            io_needles: vec![
                ".publish(",
                ".publish_to(",
                ".poll(",
                ".cancel(",
                ".append(",
                ".sync(",
                ".sync_all(",
                ".flush(",
                "File::create",
                "File::open",
                "OpenOptions::new",
                "fs::rename",
                "fs::remove_file",
            ],
            protocols: vec![
                ProtocolSpec {
                    publish_calls: vec!["publish_batch", "publish_batch_to"],
                    collect_calls: vec!["collect_batch", "collect_batch_clocked", "begin_clocked"],
                    ticket_type: "BatchTicket",
                    journal_paths: vec!["crates/engine/src/journal/"],
                },
                // The service layer's job tickets: a `submit` mints one, and the
                // manifest journal in `service/` must append before mutating.
                ProtocolSpec {
                    publish_calls: vec!["submit"],
                    collect_calls: vec!["poll", "subscribe", "shutdown"],
                    ticket_type: "JobTicket",
                    journal_paths: vec!["crates/engine/src/service/"],
                },
            ],
        }
    }
}

/// An I/O or configuration failure while running the analysis (distinct from
/// violations, which are findings, not errors).
#[derive(Debug)]
pub struct AnalyzeError {
    /// What failed.
    pub detail: String,
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "analyze error: {}", self.detail)
    }
}

impl std::error::Error for AnalyzeError {}

impl AnalyzeError {
    /// Builds an error from anything displayable.
    pub fn new(detail: impl std::fmt::Display) -> AnalyzeError {
        AnalyzeError {
            detail: detail.to_string(),
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalyzeError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| AnalyzeError::new(format!("read_dir {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| AnalyzeError::new(format!("{}: {e}", dir.display())))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every configured file and returns them keyed by root-relative path.
pub fn scan_workspace(config: &Config) -> Result<BTreeMap<String, SourceFile>, AnalyzeError> {
    let mut files = BTreeMap::new();
    for dir in &config.scan_dirs {
        let abs = config.root.join(dir);
        if !abs.is_dir() {
            return Err(AnalyzeError::new(format!(
                "scan directory `{dir}` not found under {}",
                config.root.display()
            )));
        }
        let mut paths = Vec::new();
        collect_rs(&abs, &mut paths)?;
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| AnalyzeError::new(format!("read {}: {e}", path.display())))?;
            let rel = path
                .strip_prefix(&config.root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            files.insert(rel.clone(), SourceFile::scan(&rel, &text));
        }
    }
    Ok(files)
}

/// Runs every rule over the scanned files and returns the sorted findings.
pub fn run(config: &Config) -> Result<Vec<Violation>, AnalyzeError> {
    let files = scan_workspace(config)?;
    Ok(run_on(config, &files))
}

/// Runs the rules over an already-scanned file set (used by the fixture
/// self-tests, which scan synthetic workspaces).
pub fn run_on(config: &Config, files: &BTreeMap<String, SourceFile>) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files.values() {
        rules::determinism(file, &mut out);
        rules::panic_freedom(file, &mut out);
        rules::lock_discipline(file, &config.io_needles, &mut out);
        rules::must_use(file, &config.must_use_types, &mut out);
        rules::allow_syntax(file, &mut out);
    }
    for spec in &config.codecs {
        rules::codec_exhaustive(spec, files, &mut out);
    }
    // Pass 2: the cross-file rules over the symbol index and call graph.
    let (index, _graph, lock_graph) = build_pass2(config, files, &mut out);
    rules::lock_order_cycles(&lock_graph, files, &mut out);
    for file in files.values() {
        rules::unit_taint(file, &index, &mut out);
        for spec in &config.protocols {
            rules::protocol_order(file, spec, &index, &mut out);
        }
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    // Nested fns are walked both standalone and as part of their enclosing
    // body; identical findings collapse.
    out.dedup();
    out
}

/// Builds the pass-2 artifacts and runs the lock-order collection walk
/// (which both populates the lock graph and emits held-across-I/O findings).
pub fn build_pass2(
    config: &Config,
    files: &BTreeMap<String, SourceFile>,
    out: &mut Vec<Violation>,
) -> (
    index::WorkspaceIndex,
    callgraph::CallGraph,
    callgraph::LockGraph,
) {
    let index = index::WorkspaceIndex::build(files);
    let graph = callgraph::CallGraph::build(files, &index, &config.io_needles);
    let mut lock_graph = callgraph::LockGraph::default();
    for file in files.values() {
        rules::lock_order_collect(
            file,
            &index,
            &graph,
            &config.io_needles,
            &mut lock_graph,
            out,
        );
    }
    (index, graph, lock_graph)
}
