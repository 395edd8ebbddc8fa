//! The `EVAL_*` scale knobs and the session flags reject bad values with
//! a message naming them and exit status 1, before any chip runs; none
//! of them may reach a library assertion.

use std::process::{Command, Output};

/// Runs binary `exe` with `args`, the knobs `env` and no inherited
/// `EVAL_*` knob, in an empty scratch directory named after `tag` (so a
/// stray output file cannot land in the source tree).
fn run(exe: &str, tag: &str, env: &[(&str, &str)], args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("eval-knobs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut cmd = Command::new(exe);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EVAL_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .envs(env.iter().copied())
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary starts");
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Asserts `out` is a clean refusal: exit 1, a message containing
/// `named` printed as a message (not an error's `Debug` structure), no
/// panic and no work started (`started` begins the line the binary
/// prints just before its first chip runs).
fn assert_refused(out: &Output, named: &str, started: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(named), "stderr: {stderr}");
    assert!(!stderr.contains("Custom {"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!stderr.contains(started), "work started: {stderr}");
}

#[test]
fn table2_rejects_zero_queries_without_panicking() {
    let out = run(
        env!("CARGO_BIN_EXE_table2"),
        "table2",
        &[("EVAL_QUERIES", "0")],
        &[],
    );
    assert_refused(&out, "EVAL_QUERIES: expected an integer >= 1", "# fidelity");
}

/// `fig10` with `args` exits 1 with a message containing `named` before
/// its campaign starts. The small scale keeps a run that wrongly starts
/// short.
fn fig10_refuses(tag: &str, args: &[&str], named: &str) {
    let small = [("EVAL_CHIPS", "1"), ("EVAL_WORKLOADS", "gzip")];
    let out = run(env!("CARGO_BIN_EXE_fig10"), tag, &small, args);
    assert_refused(&out, named, "# campaign");
}

#[test]
fn fig10_refuses_a_trace_flag_without_a_path() {
    fig10_refuses("fig10-last", &["--trace"], "--trace needs a value");
}

/// `--trace --timing` is not a trace file named `--timing`.
#[test]
fn fig10_refuses_a_trace_flag_followed_by_a_flag() {
    fig10_refuses(
        "fig10-flag",
        &["--trace", "--timing"],
        "--trace needs a value",
    );
}

#[test]
fn fig10_refuses_unknown_arguments() {
    fig10_refuses("fig10-bogus", &["--bogus"], "unknown argument --bogus");
    fig10_refuses("fig10-typo", &["--trce", "x"], "unknown argument --trce");
}

/// The tournament never checkpoints, so it refuses the checkpoint flags
/// instead of announcing a sidecar it does not write.
#[test]
fn tournament_refuses_checkpoint_flags() {
    let small = [
        ("EVAL_CHIPS", "1"),
        ("EVAL_HOLDOUT_CHIPS", "1"),
        ("EVAL_WORKLOADS", "gzip"),
    ];
    for (i, (args, named)) in [
        (&["--checkpoint", "p"][..], "--checkpoint"),
        (&["--trace", "t.jsonl", "--resume"][..], "--resume"),
    ]
    .into_iter()
    .enumerate()
    {
        let exe = env!("CARGO_BIN_EXE_tournament");
        let out = run(exe, &format!("tournament-{i}"), &small, args);
        assert_refused(&out, named, "# tournament");
    }
}
