//! Process test of `schedlint`'s command line: every malformed
//! invocation is a usage error (exit 2, usage on stderr, nothing on
//! stdout), never a panic and never a partial analysis.

use std::process::{Command, Output};

fn schedlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_schedlint"))
        .args(args)
        .output()
        .expect("spawning schedlint")
}

#[test]
fn malformed_arguments_exit_2_with_usage() {
    for args in [
        &["--kernel"][..],
        &["--kernel", "spmv"],
        &["--fixture", "nope"],
        &["--hint-threshold", "-1"],
        &["--hint-threshold", "101"],
        &["--hint-threshold", "nan"],
        &["--hint-threshold", "abc"],
        &["--hint-threshold"],
        &["--json"],
        &["--hb-json"],
        &["--gate", "--frobnicate"],
    ] {
        let output = schedlint(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: schedlint"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed a report");
    }
}

/// A report that cannot be written is an I/O error, exit 2.
#[test]
fn unwritable_json_path_exits_2() {
    let missing = std::env::temp_dir().join(format!("schedlint-missing-{}", std::process::id()));
    assert!(!missing.exists(), "{missing:?} must not exist");
    let path = missing.join("x.json");
    let path = path.to_str().expect("utf-8 temp path");
    let output = schedlint(&["--fixture", "wrong-hint", "--quiet", "--json", path]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.stdout.is_empty());
}
