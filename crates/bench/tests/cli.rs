//! The `cw` flag contract: a malformed flag, grid list or command exits 2
//! with an `error:` line on stderr — never a panic, never a simulation.
//! Plus the exit class of a panicking render and the dataset export's file
//! names and time origin.

use cw_bench::{MAX_REPLICATES, MAX_SCALE};
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
    // A removed flag is rejected, not ignored.
    &["table1", "--scale", "0.001", "--shards", "2"],
    &["table1", "--scale", "0.001", "--seed", "-1"],
    &["table1", "--scale", "inf"],
    &["table1", "--scale", "0"],
    &["table1", "--scale", "1e7"],
    &["table1", "--scale", "1e15"],
    &["sweep", "--scale", "0.001", "--scales", "1,,2"],
    &["sweep", "--scale", "0.001", "--scales", "inf"],
    &["sweep", "--scale", "0.001", "--replicates", "0"],
    &[
        "sweep",
        "--scale",
        "0.001",
        "--replicates",
        "100000000000000000",
    ],
    &["sweep", "--scale", "0.001", "--variants", "bogus"],
    &["sweep", "--scale", "0.001", "--years", "2019"],
    &["sweep", "--scale", "10", "--scales", "1,1e300"],
    &["degrade", "--scale", "0.001", "--scales", "1"],
    &["no-such-command", "--scale", "0.001"],
];

/// The cases whose world would be built above [`MAX_SCALE`]: their error
/// line must name the ceiling.
fn over_the_ceiling(case: &[&str]) -> bool {
    matches!(
        case,
        [_, "--scale", "1e7" | "1e15"] | [_, _, _, "--scales", "1,1e300"]
    )
}

#[test]
fn malformed_flags_exit_2_with_an_error_line_and_no_panic() {
    assert_eq!(CASES.iter().filter(|c| over_the_ceiling(c)).count(), 3);
    for case in CASES {
        // `--no-cache` keeps a regressed run from writing a snapshot cache.
        let out = Command::new(env!("CARGO_BIN_EXE_cw"))
            .args(*case)
            .arg("--no-cache")
            .output()
            .expect("spawn cw");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "cw {case:?}; stderr:\n{stderr}");
        let error = stderr.lines().find(|l| l.starts_with("error: "));
        assert!(
            error.is_some(),
            "cw {case:?} printed no error line; stderr:\n{stderr}"
        );
        if let [.., "--replicates", n] = case {
            if n.parse::<u64>().is_ok_and(|n| n > MAX_REPLICATES) {
                assert!(
                    error.is_some_and(|l| l.contains(&MAX_REPLICATES.to_string())),
                    "cw {case:?} must name the bound {MAX_REPLICATES}; stderr:\n{stderr}"
                );
            }
        }
        if over_the_ceiling(case) {
            assert!(
                error.is_some_and(|l| l.contains(&MAX_SCALE.to_string())),
                "cw {case:?} must name the ceiling {MAX_SCALE}; stderr:\n{stderr}"
            );
        }
        assert!(
            !stderr.contains("panicked"),
            "cw {case:?} panicked; stderr:\n{stderr}"
        );
    }
}

/// A render that panics under `cw <exhibit>` is isolated as under `cw
/// all`: exit 4 with the failure summary on stderr, and no partial render
/// on stdout. Table 6 needs no world, so nothing is simulated.
#[test]
fn a_panicking_exhibit_render_exits_4_with_the_failure_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_cw"))
        .args(["table6", "--no-cache"])
        .env("CW_INJECT_PANIC", "table6")
        .output()
        .expect("spawn cw");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "stderr:\n{stderr}");
    assert!(
        stderr.contains("failure summary"),
        "no failure summary; stderr:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "a failed render printed to stdout");
}

/// `cw export --year 2020` names its files after the year it exported and
/// starts the pcap clock on that year's July 1 (UTC).
#[test]
fn export_names_and_dates_the_year_it_exported() {
    let dir = std::env::temp_dir().join(format!("cw-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_cw"))
        .args(["export", "--year", "2020", "--scale", "0.001", "--no-cache"])
        .current_dir(&dir)
        .output()
        .expect("spawn cw");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    let pcap = std::fs::read(dir.join("out/cloud_watching_2020.pcap"));
    let wrote_2021 = dir.join("out/cloud_watching_2021.pcap").exists();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    let pcap = pcap.expect("out/cloud_watching_2020.pcap");
    assert!(
        !wrote_2021,
        "a 2020 export must not write the 2021 file names"
    );
    // The 24-byte global header, then the first record's seconds field.
    let first = u32::from_le_bytes(pcap[24..28].try_into().expect("a first record"));
    assert!(
        first >= 1_593_561_600,
        "first record at {first}, before 2020-07-01"
    );
}
