//! Metric definitions (the single source of `BENCHMARK.json`), the
//! result line, and small statistics helpers.

use eval_trace::json::JsonObject;

use crate::workload::Workload;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported with tracing off (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("run_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("controller_perf_ratio", "ratio", Higher, 0.06),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 33] = [
    layer("variation.chip_ms", "ms", Lower),
    layer("uarch.profile_ms", "ms", Lower),
    layer("timing.pe_check_ns", "ns", Lower),
    layer("power.solve_ns", "ns", Lower),
    layer("power.cache_hit_rate", "ratio", Higher),
    layer("power.iterations_per_solve", "count", Lower),
    layer("power.batch_width", "lanes", Higher),
    layer("exhaustive.freq_max_us.cold", "us", Lower),
    layer("exhaustive.freq_max_us.warm", "us", Lower),
    layer("exhaustive.power_settings_us.abb", "us", Lower),
    layer("exhaustive.power_settings_us.noabb", "us", Lower),
    layer("teacher.bank_ms.abb", "ms", Lower),
    layer("teacher.bank_ms.noabb", "ms", Lower),
    layer("teacher.banks", "count", Lower),
    layer("fuzzy.fit_ms", "ms", Lower),
    layer("learned.fit_ms.nn", "ms", Lower),
    layer("learned.fit_ms.tree", "ms", Lower),
    layer("learned.fit_ms.mlp", "ms", Lower),
    layer("controller.decide_us.static.p50", "us", Lower),
    layer("controller.decide_us.static.p99", "us", Lower),
    layer("controller.decide_us.exhaustive.p50", "us", Lower),
    layer("controller.decide_us.exhaustive.p99", "us", Lower),
    layer("controller.decide_us.fuzzy.p50", "us", Lower),
    layer("controller.decide_us.fuzzy.p99", "us", Lower),
    layer("controller.decide_us.mlp.p50", "us", Lower),
    layer("controller.decide_us.mlp.p99", "us", Lower),
    layer("controller.decisions", "count", Lower),
    layer("retune.probes_per_decision", "count", Lower),
    layer("campaign.chip_s.p50", "s", Lower),
    layer("campaign.chip_imbalance", "ratio", Lower),
    layer("campaign.parallel_eff", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("ledger.unexplained_frac", "ratio", Lower),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 33;

/// Why each workload is in the benchmark (`BENCHMARK.json` `why`).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::Fig10Train => {
            "Figure 10 campaign with Fuzzy-Dyn: controller training (teacher sweeps, fits) dominates"
        }
        Workload::DecideExh => {
            "Static and Exh-Dyn over many chips and 16 apps: no training, decisions and solves dominate"
        }
        Workload::Tournament => {
            "controller zoo in TS+ASV: four families fitted per bank, six controllers decide every phase"
        }
    }
}

/// A metric definition by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Renders `BENCHMARK.json` from the definitions above.
pub fn benchmark_json() -> String {
    let list = |defs: &[MetricDef]| {
        let rows: Vec<String> = defs
            .iter()
            .map(|m| {
                let mut o = JsonObject::new()
                    .str("name", m.name)
                    .str("unit", m.unit)
                    .str("better", m.better.as_str());
                if let Some(b) = m.bound {
                    o = o.f64("bound", b);
                }
                format!("    {}", o.finish())
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {}",
                JsonObject::new()
                    .str("name", w.name())
                    .str("why", why(*w))
                    .finish()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        workloads.join(",\n"),
        list(&END_TO_END),
        list(&PER_LAYER),
    )
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut m = JsonObject::new();
    for (name, value) in metrics {
        let unit = def(name).map_or("", |d| d.unit);
        m = m.raw(
            name,
            &JsonObject::new()
                .f64("value", *value)
                .str("unit", unit)
                .finish(),
        );
    }
    JsonObject::new()
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &m.finish())
        .finish()
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
