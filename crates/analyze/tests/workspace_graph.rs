//! Pass-2 pins against the *real* workspace: the symbol index resolves the
//! functions the cross-file rules depend on, the lock-acquisition graph
//! contains exactly the lock classes the prod crates own, and that graph is
//! cycle-free (the acceptance criterion for `lock_order`). The generic relock
//! helper's resolution is pinned on the clean fixture workspace.

use std::path::Path;

use cdas_analyze::{build_pass2, scan_workspace, Config};

fn scan(
    root: &Path,
) -> (
    Config,
    std::collections::BTreeMap<String, cdas_analyze::scan::SourceFile>,
) {
    let config = Config::workspace(root);
    let files = scan_workspace(&config).expect("workspace scan");
    (config, files)
}

fn workspace() -> (
    Config,
    std::collections::BTreeMap<String, cdas_analyze::scan::SourceFile>,
) {
    scan(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

#[test]
fn index_resolves_unique_names_and_rejects_ambiguous_ones() {
    let (config, files) = workspace();
    let mut out = Vec::new();
    let (index, _, _) = build_pass2(&config, &files, &mut out);
    // Unique guard helpers the lock rule leans on.
    for name in ["locked", "read_registry", "write_registry"] {
        assert!(
            index.resolve(name).is_some(),
            "`{name}` should resolve uniquely"
        );
    }
    // Ambiguous names must never resolve — that is the zero-false-positive
    // contract of unique-name resolution.
    for name in ["append", "release", "subset", "new", "accuracy_of"] {
        assert!(
            index.resolve(name).is_none(),
            "`{name}` is defined more than once and must stay unresolved"
        );
    }
    // The struct-field type table gates unit classification.
    assert!(index.is_f64_field("recovered_cost"));
    assert!(index.is_f64_field("reclaimed_minutes"));
    assert!(!index.is_f64_field("workers_assigned"));
}

#[test]
fn lock_graph_covers_prod_locks_and_is_cycle_free() {
    let (config, files) = workspace();
    let mut out = Vec::new();
    let (_, _, lock_graph) = build_pass2(&config, &files, &mut out);
    // Every lock the prod crates own shows up as a class.
    for class in [
        "crates/crowd/src/lease.rs:table",
        "crates/core/src/sharing.rs:registry",
        "crates/engine/src/journal/recovery.rs:state",
    ] {
        assert!(
            lock_graph.classes.contains(class),
            "lock class `{class}` missing from graph; classes: {:?}",
            lock_graph.classes
        );
    }
    // Acceptance criterion: the acquisition graph is cycle-free.
    assert!(
        lock_graph.cyclic_edges().is_empty(),
        "lock-order cycle in prod code: {:?}",
        lock_graph
            .cyclic_edges()
            .iter()
            .map(|e| format!("{} -> {} at {}:{}", e.held, e.acquired, e.path, e.line))
            .collect::<Vec<_>>()
    );
    // And the collection walk itself surfaced no held-across-I/O findings.
    assert!(
        out.is_empty(),
        "lock_order I/O findings in prod code: {out:?}"
    );
}

#[test]
fn generic_relock_helper_resolves_to_the_field_named_at_each_call() {
    let (config, files) =
        scan(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws-clean"));
    let mut out = Vec::new();
    let (index, _, lock_graph) = build_pass2(&config, &files, &mut out);
    assert!(
        index.resolve("relock").is_some(),
        "`relock` should resolve uniquely"
    );
    // `Self::relock(&self.outer)` then `Self::relock(&self.inner)`: the edge
    // joins the two fields, not the helper's own `lock` parameter.
    let class = |field: &str| format!("crates/engine/src/lockorder.rs:{field}");
    assert!(
        lock_graph
            .edges
            .contains_key(&(class("outer"), class("inner"))),
        "expected outer -> inner edge; edges: {:?}",
        lock_graph.edges.keys().collect::<Vec<_>>()
    );
    assert!(lock_graph.cyclic_edges().is_empty());
    assert!(
        out.is_empty(),
        "lock_order findings in the clean fixture: {out:?}"
    );
}
