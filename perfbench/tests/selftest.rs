//! Self-tests of the benchmark: metric names and counts, agreement with
//! the committed `BENCHMARK.json`, and a smallest-size run of every
//! workload that must pass the output checks and report every metric.

use std::collections::BTreeSet;

use eval_perfbench::report::{benchmark_json, valid_name, END_TO_END, PER_LAYER};
use eval_perfbench::run::{in_process_setups, measure, traced, Options};
use eval_perfbench::workload::{worker_count, Size, Workload};
use eval_trace::Json;

#[test]
fn metric_names_are_valid_unique_and_within_limits() {
    assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
    assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(m.name), "invalid metric name {}", m.name);
        assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16,
            "unit of {}",
            m.name
        );
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s defined");
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
}

#[test]
fn committed_benchmark_json_matches_the_definitions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let committed = Json::parse(&committed).expect("BENCHMARK.json parses");
    let generated = Json::parse(&benchmark_json()).expect("generated JSON parses");
    assert_eq!(
        committed, generated,
        "regenerate with `perfbench --print-benchmark-json`"
    );
}

fn names(metrics: &[(&'static str, f64)]) -> BTreeSet<&'static str> {
    metrics.iter().map(|(n, _)| *n).collect()
}

fn smoke(workload: Workload) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.001,
        workers: worker_count(2),
        size: Size::Smoke,
    }
}

#[test]
fn each_workload_reports_every_end_to_end_metric_and_passes_its_checks() {
    let expected: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for w in Workload::ALL {
        let opts = smoke(w);
        let report = measure(&opts, || Ok(in_process_setups(&opts, 2)));
        assert!(report.correct(), "{}: {:?}", w.name(), report.failures);
        assert_eq!(names(&report.metrics), expected, "{}", w.name());
        assert!(report.attempted >= 1 && report.failed == 0);
        for (name, value) in &report.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                w.name()
            );
        }
        let line = Json::parse(&report.result_line()).expect("result line parses");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn each_workload_traced_run_reports_every_per_layer_metric_and_passes_its_checks() {
    let expected: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for w in Workload::ALL {
        let report = traced(&smoke(w));
        assert!(report.correct(), "{}: {:?}", w.name(), report.failures);
        assert_eq!(names(&report.metrics), expected, "{}", w.name());
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .expect("metric reported")
        };
        match w {
            Workload::DecideExh => assert_eq!(value("teacher.banks"), 0.0),
            _ => assert!(value("teacher.banks") > 0.0),
        }
        assert!(value("learned.fit_ms.mlp") > 0.0);
        assert!(value("controller.decisions") > 0.0);
    }
}
