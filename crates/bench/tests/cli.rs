//! The `cw` flag contract: a malformed flag, grid list or command exits 2
//! with an `error:` line on stderr — never a panic, never a simulation.

use std::process::Command;

/// One argument list per malformed input. `--scale 0.001` rides along
/// wherever scale is not the flag under test, so a parser regression that
/// accepted the bad flag would start a tiny world, not a scale-1 one.
const CASES: &[&[&str]] = &[
    &["table1", "--scale", "0.001", "--loss", "NaN"],
    &["table1", "--scale", "0.001", "--loss", "1.5"],
    &["table1", "--scale", "0.001", "--outage", "1"],
    &["table1", "--scale", "0.001", "--outage", "NaN"],
    &["table1", "--scale", "0.001", "--truncate", "-0.1"],
    &["table1", "--scale", "0.001", "--truncate", "NaN"],
    &["table1", "--scale", "0.001", "--truncate-to", "-1"],
    &["table1", "--scale", "0.001", "--outage-windows", "0"],
    &["table1", "--scale", "0.001", "--telescope-sample", "0"],
    &["table1", "--scale", "0.001", "--threads", "0"],
    &["table1", "--scale", "0.001", "--shards", "0"],
    &["table1", "--scale", "0.001", "--seed", "-1"],
    &["table1", "--scale", "inf"],
    &["table1", "--scale", "0"],
    &["sweep", "--scale", "0.001", "--scales", "1,,2"],
    &["sweep", "--scale", "0.001", "--scales", "inf"],
    &["sweep", "--scale", "0.001", "--replicates", "0"],
    &["sweep", "--scale", "0.001", "--variants", "bogus"],
    &["sweep", "--scale", "0.001", "--years", "2019"],
    &["degrade", "--scale", "0.001", "--scales", "1"],
    &["no-such-command", "--scale", "0.001"],
];

#[test]
fn malformed_flags_exit_2_with_an_error_line_and_no_panic() {
    for case in CASES {
        // `--no-cache` keeps a regressed run from writing a snapshot cache.
        let out = Command::new(env!("CARGO_BIN_EXE_cw"))
            .args(*case)
            .arg("--no-cache")
            .output()
            .expect("spawn cw");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "cw {case:?}; stderr:\n{stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ")),
            "cw {case:?} printed no error line; stderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "cw {case:?} panicked; stderr:\n{stderr}"
        );
    }
}
