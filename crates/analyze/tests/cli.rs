//! End-to-end tests of the `cdas-analyze` binary against the fixture
//! workspaces, plus the regression test that the committed baseline parses
//! and matches `--check` output on the real workspace.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A test's scratch directory, removed when dropped, also when the test fails.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn analyze(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cdas-analyze"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn check_exits_nonzero_on_each_seeded_fixture_violation() {
    let ws = fixtures().join("ws-violations");
    let out = analyze(&["--check", "--root", ws.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "seeded violations must fail");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    for rule in [
        "determinism",
        "panic_freedom",
        "codec_exhaustive",
        "lock_discipline",
        "must_use",
        "allow_syntax",
        "lock_order",
        "unit_taint",
        "protocol_order",
    ] {
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "rule {rule} did not fire on its seeded fixture:\n{stdout}"
        );
    }
    // The valid escape hatch in engine/src/lib.rs must have suppressed its
    // unwrap — only the seeded sites may be reported.
    assert!(
        !stdout.contains("properly_allowed"),
        "cdas-allow failed to suppress:\n{stdout}"
    );
}

#[test]
fn check_exits_zero_on_clean_fixture_workspace() {
    let ws = fixtures().join("ws-clean");
    let out = analyze(&["--check", "--root", ws.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean fixture flagged:\n{stdout}"
    );
}

#[test]
fn json_output_is_machine_readable() {
    let ws = fixtures().join("ws-violations");
    let out = analyze(&[
        "--check",
        "--root",
        ws.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.trim_start().starts_with('{'), "not JSON:\n{stdout}");
    assert!(stdout.contains("\"violations\""));
    assert!(stdout.contains("\"rule\": \"panic_freedom\""));
    assert!(stdout.contains("\"stale_baseline_entries\": 0"));
}

#[test]
fn cross_file_rules_report_the_seeded_sites() {
    let ws = fixtures().join("ws-violations");
    let out = analyze(&["--check", "--root", ws.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    // lock_order: both edges of the left/right cycle are reported.
    assert!(
        stdout.contains("lock-order cycle"),
        "no cycle message:\n{stdout}"
    );
    assert!(stdout.contains("lockorder.rs"));
    // unit_taint: the three seeded confusions.
    assert!(
        stdout.contains("mixes dollars `total_cost` and minutes `extra_minutes`"),
        "minutes-into-dollars not flagged:\n{stdout}"
    );
    assert!(
        stdout.contains("probability `accuracy` assigned literal outside [0, 1]"),
        "probability literal not flagged:\n{stdout}"
    );
    assert!(
        stdout.contains("minutes `reclaimed_minutes` passed to `spend` parameter `cost` (dollars)"),
        "call-arg mismatch not flagged:\n{stdout}"
    );
    // protocol_order: the unannotated drop and the mutate-before-append.
    assert!(
        stdout.contains("ticket `orphan` dropped without cdas-allow"),
        "orphan drop not flagged:\n{stdout}"
    );
    assert!(
        stdout.contains("mutates `self` before the journal append"),
        "mutate-before-append not flagged:\n{stdout}"
    );
}

#[test]
fn github_format_emits_workflow_annotations() {
    let ws = fixtures().join("ws-violations");
    let out = analyze(&[
        "--check",
        "--root",
        ws.to_str().expect("utf-8 path"),
        "--format",
        "github",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let annotation = stdout
        .lines()
        .find(|l| l.starts_with("::error file="))
        .unwrap_or_else(|| panic!("no ::error annotation:\n{stdout}"));
    assert!(
        annotation.contains(",line="),
        "annotation lacks line: {annotation}"
    );
    assert!(
        annotation.contains("::"),
        "annotation lacks message: {annotation}"
    );
    // Every new finding gets exactly one annotation; the summary line stays.
    let errors = stdout.lines().filter(|l| l.starts_with("::error")).count();
    assert!(errors > 0);
    assert!(
        stdout.lines().any(|l| l.starts_with("cdas-analyze: ")),
        "summary line missing:\n{stdout}"
    );
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(analyze(&[]).status.code(), Some(2));
    assert_eq!(analyze(&["--frobnicate"]).status.code(), Some(2));
    assert_eq!(
        analyze(&["--check", "--format", "yaml"]).status.code(),
        Some(2)
    );
}

#[test]
fn stale_baseline_entries_fail_the_check() {
    // A baseline claiming a violation that no longer exists must fail, so the
    // committed inventory can only shrink truthfully.
    let ws = fixtures().join("ws-clean");
    let dir = RemoveOnDrop(
        std::env::temp_dir().join(format!("cdas-analyze-stale-test-{}", std::process::id())),
    );
    std::fs::create_dir_all(&dir.0).expect("temp dir");
    let baseline = dir.0.join("baseline.txt");
    std::fs::write(
        &baseline,
        "panic_freedom\tcrates/core/src/lib.rs\t1\tlong gone line\n",
    )
    .expect("write baseline");
    let out = analyze(&[
        "--check",
        "--root",
        ws.to_str().expect("utf-8 path"),
        "--baseline",
        baseline.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stale entry accepted:\n{stdout}"
    );
    assert!(stdout.contains("stale baseline entry"));
}

#[test]
fn committed_baseline_parses_and_matches_workspace_check() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("analyze-baseline.txt"))
        .expect("committed baseline exists");
    let baseline = cdas_analyze::baseline::Baseline::parse(&text).expect("baseline parses");
    // The grandfathered debt was fully paid down; the file stays as the
    // shrink-only ratchet, so it must never grow back.
    assert_eq!(baseline.total(), 0, "baseline must stay empty");
    for (rule, _, _) in baseline.entries.keys() {
        assert!(
            cdas_analyze::rules::is_known_rule(rule),
            "baseline names unknown rule {rule}"
        );
    }
    let config = cdas_analyze::Config::workspace(&root);
    let violations = cdas_analyze::run(&config).expect("workspace scans");
    let outcome = cdas_analyze::baseline::check(&violations, &baseline);
    assert!(
        outcome.is_clean(),
        "workspace does not match committed baseline: {} new {:?}, {} stale {:?}",
        outcome.new.len(),
        outcome.new.first(),
        outcome.stale.len(),
        outcome.stale.first(),
    );
    assert_eq!(outcome.grandfathered, baseline.total());
}
