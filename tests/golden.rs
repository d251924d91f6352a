//! The golden-exhibit manifest gate (tier 3 of docs/TESTING.md).
//!
//! Hashes every `out/*.txt` exhibit and compares against the checked-in
//! `tests/golden/MANIFEST.sha256`. A single changed byte in any of the 25
//! exhibits fails the gate; intentional changes are blessed with
//! `CW_BLESS=1 cargo test --test golden`. The exhibits themselves are
//! regenerated artifacts (`out/` is not tracked); `scripts/verify.sh`
//! rebuilds them from the experiment binaries before this gate runs, which
//! is what ties the manifest back to the code.

use cw_verify::golden;

#[test]
fn golden_manifest_gate() {
    let root = golden::workspace_root();
    let dir = golden::exhibits_dir(&root);
    // A fresh checkout has no regenerated exhibits yet; there is nothing
    // to compare until an experiment run (or scripts/verify.sh) produces
    // them. Skipping — not failing — keeps `cargo test` usable pre-run.
    if golden::exhibit_files()
        .iter()
        .all(|n| !dir.join(n).exists())
    {
        eprintln!("golden gate skipped: no exhibits in out/ (run scripts/verify.sh)");
        return;
    }
    if golden::bless_requested() {
        golden::bless(&root).expect("bless writes tests/golden/MANIFEST.sha256");
        eprintln!("golden manifest re-blessed from out/*.txt");
        return;
    }
    let drifts = golden::check(&root).expect("exhibits readable");
    if !drifts.is_empty() {
        let mut msg = String::from("golden exhibits drifted from tests/golden/MANIFEST.sha256:\n");
        for d in &drifts {
            msg.push_str(&format!("  {d}\n"));
        }
        msg.push_str(
            "if this change is intentional, re-bless with: CW_BLESS=1 cargo test --test golden",
        );
        panic!("{msg}");
    }
}

#[test]
fn manifest_is_checked_in_and_covers_every_exhibit() {
    // The manifest file itself is tracked source: it must exist, parse,
    // and list exactly the 25 exhibits (independent of whether out/ has
    // been regenerated in this checkout).
    let root = golden::workspace_root();
    let text = std::fs::read_to_string(golden::manifest_path(&root))
        .expect("tests/golden/MANIFEST.sha256 is checked in");
    let entries = golden::parse_manifest(&text);
    let mut listed: Vec<String> = entries.into_iter().map(|(n, _)| n).collect();
    listed.sort_unstable();
    let mut expected = golden::exhibit_files();
    expected.sort_unstable();
    assert_eq!(listed, expected, "manifest must cover all 25 exhibits");
}
