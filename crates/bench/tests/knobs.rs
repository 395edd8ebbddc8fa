//! The `EVAL_*` scale knobs reject out-of-range values with a message
//! and exit status 1; none of them may reach a library assertion.

use std::process::Command;

#[test]
fn table2_rejects_zero_queries_without_panicking() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EVAL_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .env("EVAL_QUERIES", "0")
        .output()
        .expect("table2 starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("EVAL_QUERIES: expected an integer >= 1"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
