//! The runner refuses a bad command line with its usage text and exit code 2
//! before running any section.

use std::process::Command;

#[test]
fn a_bad_scale_or_flag_exits_2_with_usage() {
    for args in [
        &["x"][..],
        &["0"],
        &["-1"],
        &["1", "2"],
        &["1", "--threads"],
        &["1", "--threads", "many"],
        &["--json-out"],
        &["--verbose"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_fsm-bench"))
            .args(args)
            .output()
            .expect("run fsm-bench");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} ran a section");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.starts_with("usage: fsm-bench [SCALE]"),
            "{args:?}: {stderr}"
        );
    }
}
