//! Integration tests: each rule family fires on its fixture's seeded
//! violations and stays quiet on the allowlisted / clean parts.

use eval_lint::{lint_source, Finding, FileContext, Rule};

fn ctx(name: &str) -> FileContext {
    FileContext {
        crate_name: name.to_string(),
        is_test_code: false,
        is_bin: false,
    }
}

fn lint_fixture(file: &str, crate_name: &str) -> Vec<Finding> {
    let path = format!(
        "{}/tests/fixtures/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(&path).expect("fixture exists");
    lint_source(file, &source, &ctx(crate_name))
}

fn lines_for(diags: &[Finding], rule: Rule) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn unit_safety_fires_and_allow_suppresses() {
    let d = lint_fixture("unit_safety.rs", "eval-power");
    let hits = lines_for(&d, Rule::UnitSafety);
    // set_operating_point flags both vdd and f_ghz; log_rail flags &f64.
    assert_eq!(hits.len(), 3, "{d:?}");
    // parse_rail (allowlisted), scale and describe stay quiet.
    assert!(d.iter().all(|x| !x.message.contains("alpha_f")), "{d:?}");
}

#[test]
fn unit_safety_is_scoped_to_unit_crates() {
    let d = lint_fixture("unit_safety.rs", "eval-uarch");
    assert!(lines_for(&d, Rule::UnitSafety).is_empty(), "{d:?}");
}

#[test]
fn determinism_fires_and_allow_suppresses() {
    let d = lint_fixture("determinism.rs", "eval-core");
    let hits = lines_for(&d, Rule::Determinism);
    // `use HashMap`, SystemTime, thread_rng fire; the HashMap return type
    // and body under the allow comment are suppressed. The BAD `use` line
    // carries a trailing comment but the token is in code.
    assert_eq!(hits.len(), 3, "{d:?}");
}

#[test]
fn determinism_only_applies_to_sim_crates() {
    let d = lint_fixture("determinism.rs", "eval-bench");
    assert!(lines_for(&d, Rule::Determinism).is_empty(), "{d:?}");
}

#[test]
fn panic_safety_fires_with_test_exemption_and_allow() {
    let d = lint_fixture("panic_safety.rs", "eval-adapt");
    let hits = lines_for(&d, Rule::PanicSafety);
    // unwrap, expect, panic! in library code fire; the allowlisted expect
    // and everything in #[cfg(test)] do not.
    assert_eq!(hits.len(), 3, "{d:?}");
}

#[test]
fn panic_safety_skips_test_code_files() {
    let path = format!(
        "{}/tests/fixtures/panic_safety.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(path).expect("fixture exists");
    let test_ctx = FileContext {
        crate_name: "eval-adapt".to_string(),
        is_test_code: true,
        is_bin: false,
    };
    let d = lint_source("panic_safety.rs", &source, &test_ctx);
    assert!(lines_for(&d, Rule::PanicSafety).is_empty(), "{d:?}");
}

#[test]
fn no_println_fires_with_test_exemption_and_allow() {
    let d = lint_fixture("no_println.rs", "eval-core");
    let hits = lines_for(&d, Rule::NoPrintln);
    // println!, eprintln! and dbg! in library code fire; the returned
    // String, the string literal, the allowlisted eprintln! and the
    // #[cfg(test)] region do not.
    assert_eq!(hits.len(), 3, "{d:?}");
}

#[test]
fn no_println_covers_eval_trace_but_not_bin_crates() {
    let d = lint_fixture("no_println.rs", "eval-trace");
    assert_eq!(lines_for(&d, Rule::NoPrintln).len(), 3, "{d:?}");
    let d = lint_fixture("no_println.rs", "eval-bench");
    assert!(lines_for(&d, Rule::NoPrintln).is_empty(), "{d:?}");
    let d = lint_fixture("no_println.rs", "eval-lint");
    assert!(lines_for(&d, Rule::NoPrintln).is_empty(), "{d:?}");
}

#[test]
fn config_invariants_fire_and_allow_suppresses() {
    let d = lint_fixture("config_invariants.rs", "eval-adapt");
    let hits = lines_for(&d, Rule::ConfigInvariants);
    // P_MAX and PE_MAX shadows fire (even with the correct value); the
    // allowlisted T_MAX_C and unrelated N_RETRIES do not.
    assert_eq!(hits.len(), 2, "{d:?}");
}

#[test]
fn config_invariants_accept_the_real_units_crate() {
    // The actual eval-units source must satisfy the paper-value checks.
    let path = format!(
        "{}/../units/src/lib.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(path).expect("units crate exists");
    let d = lint_source("crates/units/src/lib.rs", &source, &ctx("eval-units"));
    assert!(
        lines_for(&d, Rule::ConfigInvariants).is_empty(),
        "{d:?}"
    );
}

#[test]
fn config_invariants_catch_a_drifted_paper_value() {
    // Mutate the real units source: PMAX 30 W -> 45 W.
    let path = format!(
        "{}/../units/src/lib.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(path).expect("units crate exists");
    let drifted = source.replace("Watts::raw(30.0)", "Watts::raw(45.0)");
    assert_ne!(source, drifted, "replacement must hit");
    let d = lint_source("crates/units/src/lib.rs", &drifted, &ctx("eval-units"));
    let hits = lines_for(&d, Rule::ConfigInvariants);
    assert_eq!(hits.len(), 1, "{d:?}");
    assert!(d[0].message.contains("P_MAX"), "{d:?}");
}

#[test]
fn sink_forward_fires_on_wildcard_and_partial_match() {
    let d = lint_fixture("sink_forward.rs", "eval-trace");
    let hits = lines_for(&d, Rule::SinkForward);
    // DroppingSink: wildcard arm + missing Metric/Span; PartialSink:
    // missing Span. ExhaustiveSink, ForwardingSink (wildcard only in its
    // inherent impl), the allowlisted AllowedSink and the #[cfg(test)]
    // TestSink stay quiet.
    assert_eq!(hits.len(), 3, "{d:?}");
    assert!(
        d.iter()
            .any(|x| x.rule == Rule::SinkForward && x.message.contains("Record::Span")),
        "{d:?}"
    );
    assert!(
        d.iter()
            .any(|x| x.rule == Rule::SinkForward && x.message.contains("wildcard")),
        "{d:?}"
    );
}

#[test]
fn sink_forward_skips_test_code_files() {
    let path = format!(
        "{}/tests/fixtures/sink_forward.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(path).expect("fixture exists");
    let test_ctx = FileContext {
        crate_name: "eval-trace".to_string(),
        is_test_code: true,
        is_bin: false,
    };
    let d = lint_source("sink_forward.rs", &source, &test_ctx);
    assert!(lines_for(&d, Rule::SinkForward).is_empty(), "{d:?}");
}

#[test]
fn wall_clock_fires_with_test_exemption_and_allow() {
    let d = lint_fixture("wall_clock.rs", "eval-obs");
    let hits = lines_for(&d, Rule::WallClockInDeterministicPath);
    // Instant::now and SystemTime::now in library code fire; the
    // allowlisted read and the #[cfg(test)] region do not.
    assert_eq!(hits.len(), 2, "{d:?}");
    assert!(
        d.iter()
            .any(|x| x.message.contains("clock_now()")),
        "{d:?}"
    );
    assert!(
        d.iter()
            .any(|x| x.message.contains("unix_time_secs()")),
        "{d:?}"
    );
}

#[test]
fn wall_clock_defers_to_determinism_in_sim_crates() {
    // Simulation crates route to EVL002 instead; no double-flagging.
    let d = lint_fixture("wall_clock.rs", "eval-core");
    assert!(
        lines_for(&d, Rule::WallClockInDeterministicPath).is_empty(),
        "{d:?}"
    );
    assert!(!lines_for(&d, Rule::Determinism).is_empty(), "{d:?}");
}

#[test]
fn wall_clock_exempts_the_sanctioned_timing_module() {
    // The real timing module reads the clock directly — by design.
    let path = format!(
        "{}/../trace/src/timing.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(path).expect("timing module exists");
    let d = lint_source("crates/trace/src/timing.rs", &source, &ctx("eval-trace"));
    assert!(
        lines_for(&d, Rule::WallClockInDeterministicPath).is_empty(),
        "{d:?}"
    );
}

#[test]
fn sink_forward_accepts_the_real_sinks() {
    // Collector, BufferSink, StreamingJsonl and TimingSidecar must all
    // satisfy the forwarding contract.
    for (rel, crate_name) in [
        ("../trace/src/sink.rs", "eval-trace"),
        ("../trace/src/stream.rs", "eval-trace"),
        ("../trace/src/timing.rs", "eval-trace"),
    ] {
        let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).expect("source exists");
        let d = lint_source(rel, &source, &ctx(crate_name));
        assert!(lines_for(&d, Rule::SinkForward).is_empty(), "{rel}: {d:?}");
    }
}

#[test]
fn atomic_artifacts_fire_with_allow_append_and_test_exemptions() {
    let d = lint_fixture("atomic_artifacts.rs", "eval-obs");
    let hits = lines_for(&d, Rule::AtomicArtifacts);
    // fs::write and File::create fire; the allowlisted staging write,
    // the OpenOptions append stream, and the #[cfg(test)] region do not.
    assert_eq!(hits.len(), 2, "{d:?}");
}

#[test]
fn atomic_artifacts_apply_to_bins_but_not_tests() {
    let path = format!(
        "{}/tests/fixtures/atomic_artifacts.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(path).expect("fixture exists");
    let bin_ctx = FileContext {
        crate_name: "eval-bench".to_string(),
        is_test_code: true,
        is_bin: true,
    };
    let d = lint_source("atomic_artifacts.rs", &source, &bin_ctx);
    assert_eq!(lines_for(&d, Rule::AtomicArtifacts).len(), 2, "{d:?}");
    let test_ctx = FileContext {
        crate_name: "eval-bench".to_string(),
        is_test_code: true,
        is_bin: false,
    };
    let d = lint_source("atomic_artifacts.rs", &source, &test_ctx);
    assert!(lines_for(&d, Rule::AtomicArtifacts).is_empty(), "{d:?}");
}

#[test]
fn every_rule_family_is_exercised() {
    // The acceptance criterion: the tool reports >= 4 rule families.
    assert!(Rule::ALL.len() >= 4);
    let fired = [
        !lines_for(
            &lint_fixture("unit_safety.rs", "eval-power"),
            Rule::UnitSafety,
        )
        .is_empty(),
        !lines_for(
            &lint_fixture("determinism.rs", "eval-core"),
            Rule::Determinism,
        )
        .is_empty(),
        !lines_for(
            &lint_fixture("panic_safety.rs", "eval-adapt"),
            Rule::PanicSafety,
        )
        .is_empty(),
        !lines_for(
            &lint_fixture("config_invariants.rs", "eval-adapt"),
            Rule::ConfigInvariants,
        )
        .is_empty(),
        !lines_for(
            &lint_fixture("no_println.rs", "eval-core"),
            Rule::NoPrintln,
        )
        .is_empty(),
        !lines_for(
            &lint_fixture("sink_forward.rs", "eval-trace"),
            Rule::SinkForward,
        )
        .is_empty(),
        !lines_for(
            &lint_fixture("atomic_artifacts.rs", "eval-obs"),
            Rule::AtomicArtifacts,
        )
        .is_empty(),
    ];
    assert_eq!(fired, [true; 7]);
}
