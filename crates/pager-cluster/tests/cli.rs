//! Argument handling of the `pager-cluster` binary. Every case here
//! fails while parsing, before any `pager-serve` is spawned.

use std::process::Command;

const USAGE: &str = "usage: pager-cluster launch [--addr HOST:PORT]";

#[test]
fn bad_arguments_exit_2_with_usage() {
    let cases: [&[&str]; 4] = [
        &[],
        &["bench"],
        &["launch", "--threads", "4"],
        &["launch", "--shards", "0"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_pager-cluster"))
            .args(args)
            .output()
            .expect("pager-cluster runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(USAGE), "{args:?}: {stderr}");
    }
}
