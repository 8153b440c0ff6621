//! `reproduce -- all`, pinned byte for byte.
//!
//! Renders every experiment of [`cdas_bench::experiments::all`] the way the `reproduce`
//! binary prints it (each table's `render()` followed by a newline) and compares the
//! text with `golden/reproduce_all.txt`, the output of
//! `cargo run --release -p cdas-bench --bin reproduce -- all`. Every experiment is
//! seeded, so a difference is a behaviour change, never noise. A change that means to
//! move a table re-records the file with that command and says so.

#[test]
fn reproduce_all_is_unchanged() {
    let mut actual = String::new();
    for (_, runner) in cdas_bench::experiments::all() {
        actual.push_str(&runner().render());
        actual.push('\n');
    }
    let expected = include_str!("golden/reproduce_all.txt");
    if actual == expected {
        return;
    }
    let (line, (want, got)) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .map(|(i, pair)| (i + 1, pair))
        .unwrap_or((
            expected.lines().count().min(actual.lines().count()) + 1,
            ("<end>", "<end>"),
        ));
    panic!(
        "reproduce -- all moved at line {line} ({} lines pinned, {} produced):\n  \
         expected {want}\n  actual   {got}\nfull output:\n{actual}",
        expected.lines().count(),
        actual.lines().count()
    );
}
