//! Wall-clock profiling of a `--timing` sidecar (`eval-obs profile`).
//!
//! The sidecar (`<trace>.timing.jsonl`, written by
//! [`eval_trace::TimingSidecar`]) carries everything wall-clock the
//! two-sink tracer kept out of the primary trace: one
//! `"kind":"span-sample"` line per completed span, streamed as it
//! happens, plus an aggregated tail (timing histograms, per-path
//! `"kind":"span"` statistics) appended at end-of-run. This module
//! turns that file into:
//!
//! * a self/total span table ([`eval_trace::span_report`]);
//! * folded stacks (`path;to;span self_ns` per line) for classic
//!   flamegraph tooling ([`Profile::folded`]);
//! * a speedscope-compatible sampled profile
//!   ([`Profile::speedscope`]);
//! * a per-scheme attribution table joining the sidecar's
//!   `decision.latency*` digests against the primary trace's decision
//!   counts and `solver.*` counters ([`Profile::attribution`]).
//!
//! A sidecar that crashed before its tail was written still profiles:
//! the per-path statistics are rebuilt from the streamed samples and
//! the report says so. Workers sharing one sidecar
//! (`intra_chip_threads`) need no special handling — their samples
//! interleave in the stream and aggregate per path here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use eval_trace::json::push_str_literal;
use eval_trace::{names, span_report, Histogram, SpanStat};

use crate::analyze::Analysis;

/// The folded view of one timing sidecar.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Per-path span statistics (aggregated tail when present,
    /// otherwise rebuilt from the streamed samples).
    pub spans: BTreeMap<String, SpanStat>,
    /// Wall-clock digests from the sidecar tail (`decision.latency*`
    /// and any other timing histograms).
    pub digests: BTreeMap<String, Histogram>,
    /// Streamed span samples observed (the `timing.span_samples`
    /// counter when the tail survived, else the sample-line count).
    pub samples: u64,
    /// The sidecar had no aggregated tail — the producer crashed
    /// mid-run and the statistics above were rebuilt from samples.
    pub from_samples_only: bool,
    /// The sidecar ended in a torn final line.
    pub truncated_tail: bool,
    /// The sidecar's own provenance stamp, when present.
    pub provenance: Option<eval_trace::Provenance>,
}

impl Profile {
    /// Builds the profile from an analyzed sidecar stream.
    pub fn from_analysis(a: &Analysis) -> Profile {
        let from_samples_only = a.spans.is_empty() && !a.span_samples.is_empty();
        let source = if from_samples_only {
            &a.span_samples
        } else {
            &a.spans
        };
        let spans = source
            .iter()
            .map(|(path, &(count, total_ns))| (path.clone(), SpanStat { count, total_ns }))
            .collect();
        let samples = a
            .counters
            .get(names::TIMING_SPAN_SAMPLES)
            .copied()
            .unwrap_or_else(|| a.span_samples.values().map(|(count, _)| count).sum());
        Profile {
            spans,
            digests: a.digests.clone(),
            samples,
            from_samples_only,
            truncated_tail: a.truncated_tail,
            provenance: a.provenance.clone(),
        }
    }

    /// Self-nanoseconds for one path: total minus direct children,
    /// clamped at zero (parallel children can overlap the parent).
    pub fn self_ns(&self, path: &str) -> u128 {
        let Some(stat) = self.spans.get(path) else {
            return 0;
        };
        let children: u128 = self
            .spans
            .iter()
            .filter(|(p, _)| is_direct_child(path, p))
            .map(|(_, s)| s.total_ns)
            .sum();
        stat.total_ns.saturating_sub(children)
    }

    /// Folded-stack lines (`a;b;c self_ns`), one per span path, in
    /// path order — the input format flamegraph tools consume.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for path in self.spans.keys() {
            let _ = writeln!(out, "{} {}", path.replace('/', ";"), self.self_ns(path));
        }
        out
    }

    /// A speedscope-compatible `"type":"sampled"` profile: one sample
    /// per span path, weighted by self-nanoseconds.
    pub fn speedscope(&self, name: &str) -> String {
        let mut frames: Vec<String> = Vec::new();
        let mut frame_index: BTreeMap<String, usize> = BTreeMap::new();
        let mut samples: Vec<Vec<usize>> = Vec::new();
        let mut weights: Vec<u128> = Vec::new();
        for path in self.spans.keys() {
            let stack: Vec<usize> = path
                .split('/')
                .map(|segment| {
                    *frame_index.entry(segment.to_string()).or_insert_with(|| {
                        frames.push(segment.to_string());
                        frames.len() - 1
                    })
                })
                .collect();
            samples.push(stack);
            weights.push(self.self_ns(path));
        }
        let total: u128 = weights.iter().sum();
        let mut out = String::from(
            "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\
             \"exporter\":\"eval-obs\",\"shared\":{\"frames\":[",
        );
        for (i, frame) in frames.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_str_literal(&mut out, frame);
            out.push('}');
        }
        out.push_str("]},\"profiles\":[{\"type\":\"sampled\",\"name\":");
        push_str_literal(&mut out, name);
        let _ = write!(
            out,
            ",\"unit\":\"nanoseconds\",\"startValue\":0,\"endValue\":{total},\"samples\":["
        );
        for (i, stack) in samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, frame) in stack.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{frame}");
            }
            out.push(']');
        }
        out.push_str("],\"weights\":[");
        for (i, w) in weights.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{w}");
        }
        out.push_str("]}],\"activeProfileIndex\":0}");
        out
    }

    /// The human-readable profile report: provenance, sample
    /// accounting, the self/total span table, and the wall-clock
    /// digest quantiles.
    pub fn report_text(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "EVAL wall-clock profile");
        let _ = writeln!(w, "=======================");
        if let Some(p) = &self.provenance {
            let _ = writeln!(
                w,
                "provenance: {} addr={} rev={}",
                p.artifact,
                p.content_address.as_deref().unwrap_or("-"),
                p.git_revision
            );
        }
        let _ = writeln!(w, "span samples: {}", self.samples);
        if self.from_samples_only {
            let _ = writeln!(
                w,
                "WARNING: no aggregated tail (producer crashed mid-run); \
                 statistics rebuilt from streamed samples"
            );
        }
        if self.truncated_tail {
            let _ = writeln!(w, "WARNING: sidecar ends in a torn final line; tail dropped");
        }
        if self.spans.is_empty() {
            let _ = writeln!(w, "no spans recorded");
        } else {
            let _ = writeln!(w, "\nspan self/total");
            let _ = writeln!(w, "---------------");
            let _ = write!(w, "{}", span_report(&self.spans));
        }
        let digests: Vec<_> = self
            .digests
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .collect();
        if !digests.is_empty() {
            let _ = writeln!(w, "\nwall-clock digests (us)");
            let _ = writeln!(
                w,
                "{:<32} {:>7} {:>9} {:>9} {:>9}",
                "digest", "n", "p50", "p95", "p99"
            );
            for (name, h) in digests {
                let q = |q: f64| h.quantile(q).unwrap_or(0.0);
                let _ = writeln!(
                    w,
                    "{name:<32} {:>7} {:>9.1} {:>9.1} {:>9.1}",
                    h.count(),
                    q(0.5),
                    q(0.95),
                    q(0.99)
                );
            }
        }
        out
    }

    /// Joins the sidecar's `decision.latency.<scheme>_us` digests
    /// against the primary trace's per-scheme decision counts and
    /// `solver.*` counters: where the wall-clock went, attributed to
    /// the deterministic work that spent it.
    pub fn attribution(&self, primary: &Analysis) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "\nphase attribution (sidecar × primary trace)");
        let _ = writeln!(w, "-------------------------------------------");
        let _ = writeln!(
            w,
            "{:<12} {:>9} {:>8} {:>7} {:>9} {:>9} {:>9}",
            "scheme", "decisions", "retune", "lat_n", "p50(us)", "p95(us)", "p99(us)"
        );
        for (scheme, r) in &primary.schemes {
            let digest = self
                .digests
                .get(&format!("{}.{scheme}_us", names::DECISION_LATENCY_PREFIX))
                .filter(|h| h.count() > 0);
            let q = |h: &Histogram, q: f64| h.quantile(q).unwrap_or(0.0);
            match digest {
                Some(h) => {
                    let _ = writeln!(
                        w,
                        "{scheme:<12} {:>9} {:>8} {:>7} {:>9.1} {:>9.1} {:>9.1}",
                        r.decisions,
                        r.retune_steps,
                        h.count(),
                        q(h, 0.5),
                        q(h, 0.95),
                        q(h, 0.99)
                    );
                }
                None => {
                    let _ = writeln!(
                        w,
                        "{scheme:<12} {:>9} {:>8} {:>7} {:>9} {:>9} {:>9}",
                        r.decisions, r.retune_steps, "-", "-", "-", "-"
                    );
                }
            }
        }
        let _ = writeln!(w, "\nper-phase decision share");
        let _ = writeln!(w, "{:<8} {:>9} {:>8}", "phase", "decisions", "f_mean");
        for (phase, r) in &primary.phases {
            let label = if *phase == u64::MAX {
                "-".to_string()
            } else {
                phase.to_string()
            };
            let _ = writeln!(w, "{label:<8} {:>9} {:>8.3}", r.decisions, r.f_mean());
        }
        let solver: Vec<_> = primary
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("solver."))
            .collect();
        if !solver.is_empty() {
            let _ = writeln!(w, "\nsolver counters (primary trace)");
            for (name, v) in solver {
                let _ = writeln!(w, "  {name:<40} {v:>12}");
            }
        }
        if let Some(latency) = self.digests.get(names::DECISION_LATENCY_US) {
            let total_decisions: u64 = primary.schemes.values().map(|r| r.decisions).sum();
            if latency.count() > 0 && total_decisions > 0 {
                let _ = writeln!(
                    w,
                    "\ndecision wall-clock: {} timed of {total_decisions} traced \
                     (mean {:.1} us)",
                    latency.count(),
                    latency.sum() / latency.count() as f64
                );
            }
        }
        out
    }
}

/// True when `candidate` is exactly one level below `path` (mirrors
/// the span-report definition).
fn is_direct_child(path: &str, candidate: &str) -> bool {
    candidate
        .strip_prefix(path)
        .and_then(|rest| rest.strip_prefix('/'))
        .is_some_and(|tail| !tail.is_empty() && !tail.contains('/'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_reader;
    use eval_trace::json::Json;

    fn mini_sidecar() -> String {
        [
            r#"{"kind":"span-sample","path":"campaign","nanos":100}"#,
            r#"{"kind":"span-sample","path":"campaign/chip0","nanos":700}"#,
            r#"{"kind":"span-sample","path":"campaign/chip0/decide","nanos":300}"#,
            r#"{"kind":"histogram","name":"decision.latency_us","timing":true,"bounds":[10.0,100.0,1000.0],"counts":[0,3,1,0],"count":4,"sum":500.0}"#,
            r#"{"kind":"histogram","name":"decision.latency.fuzzy_us","timing":true,"bounds":[10.0,100.0,1000.0],"counts":[0,2,0,0],"count":2,"sum":90.0}"#,
            r#"{"kind":"counter","name":"timing.span_samples","value":3}"#,
            r#"{"kind":"span","path":"campaign","count":1,"total_ns":1000}"#,
            r#"{"kind":"span","path":"campaign/chip0","count":1,"total_ns":700}"#,
            r#"{"kind":"span","path":"campaign/chip0/decide","count":1,"total_ns":300}"#,
            "",
        ]
        .join("\n")
    }

    fn profile() -> Profile {
        Profile::from_analysis(&analyze_reader(mini_sidecar().as_bytes()).expect("parses"))
    }

    #[test]
    fn tail_statistics_win_and_self_time_subtracts_children() {
        let p = profile();
        assert!(!p.from_samples_only);
        assert_eq!(p.samples, 3);
        assert_eq!(p.spans["campaign"].total_ns, 1000);
        // campaign self = 1000 - 700 (direct child only; grandchild
        // excluded).
        assert_eq!(p.self_ns("campaign"), 300);
        assert_eq!(p.self_ns("campaign/chip0"), 400);
        assert_eq!(p.self_ns("campaign/chip0/decide"), 300);
    }

    #[test]
    fn crashed_sidecar_rebuilds_spans_from_samples() {
        // Keep only the streamed sample lines: the crash case.
        let torn: String = mini_sidecar()
            .lines()
            .filter(|l| l.contains("span-sample"))
            .map(|l| format!("{l}\n"))
            .collect();
        let p = Profile::from_analysis(&analyze_reader(torn.as_bytes()).expect("parses"));
        assert!(p.from_samples_only);
        assert_eq!(p.samples, 3);
        assert_eq!(p.spans["campaign/chip0"].total_ns, 700);
        assert!(p.report_text().contains("rebuilt from streamed samples"));
    }

    #[test]
    fn folded_stacks_use_self_weights() {
        let folded = profile().folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            [
                "campaign 300",
                "campaign;chip0 400",
                "campaign;chip0;decide 300",
            ]
        );
    }

    #[test]
    fn speedscope_output_is_valid_json_with_consistent_weights() {
        let out = profile().speedscope("hotpath sidecar");
        let v = Json::parse(&out).expect("valid JSON");
        let prof = v
            .get("profiles")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
            .expect("one profile");
        assert_eq!(prof.str_field("type"), Some("sampled"));
        assert_eq!(prof.str_field("unit"), Some("nanoseconds"));
        assert_eq!(prof.u64_field("endValue"), Some(1000));
        let samples = prof.get("samples").and_then(Json::as_arr).expect("samples");
        let weights = prof.get("weights").and_then(Json::as_arr).expect("weights");
        assert_eq!(samples.len(), 3);
        assert_eq!(weights.len(), 3);
        let frames = v
            .get("shared")
            .and_then(|s| s.get("frames"))
            .and_then(Json::as_arr)
            .expect("frames");
        assert_eq!(frames.len(), 3, "one frame per unique segment");
    }

    #[test]
    fn report_text_carries_spans_and_digest_quantiles() {
        let text = profile().report_text();
        for needle in [
            "EVAL wall-clock profile",
            "span samples: 3",
            "span self/total",
            "campaign/chip0",
            "decision.latency_us",
            "p99",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn attribution_joins_sidecar_digests_with_primary_schemes() {
        let primary_trace = [
            r#"{"kind":"event","event":"chip-start","payload":{"chip":0}}"#,
            r#"{"kind":"event","event":"decision","payload":{"scheme":"fuzzy","env":"TS","workload":"swim","phase":0,"f_ghz":4.0,"outcome":"NoChange","binding":"error-rate","retune_steps":2,"rejected":[],"pe_per_instruction":2e-05}}"#,
            r#"{"kind":"counter","name":"solver.cache.hits","value":9}"#,
            r#"{"kind":"counter","name":"solver.iterations","value":40}"#,
            "",
        ]
        .join("\n");
        let primary = analyze_reader(primary_trace.as_bytes()).expect("parses");
        let text = profile().attribution(&primary);
        for needle in [
            "phase attribution (sidecar × primary trace)",
            "fuzzy",
            "solver.cache.hits",
            "solver.iterations",
            "per-phase decision share",
            "decision wall-clock: 4 timed of 1 traced",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    mod sidecar_properties {
        use super::*;
        use crate::damage;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// A damaged timing sidecar (cut, a byte replaced, a line
            /// dropped, duplicated or swapped) never panics the reader or
            /// the profile built from it: it reads as a partial profile
            /// whose every view renders, or fails with a typed error
            /// naming a line the damage produced. Reordered lines give
            /// the clean sidecar's profile.
            #[test]
            fn prop_damaged_sidecars_profile_or_fail_typed(
                kind in 0usize..damage::KINDS,
                at in 0.0f64..1.0,
                ascii in 0u32..128,
            ) {
                let clean = mini_sidecar();
                let whole: Vec<&str> = clean.lines().collect();
                let reference = profile();
                let damaged = damage::apply(&clean, kind, at, ascii as u8);
                let read = std::panic::catch_unwind(|| {
                    analyze_reader(damaged.as_bytes()).map(|a| {
                        let p = Profile::from_analysis(&a);
                        let _ = (p.report_text(), p.folded(), p.speedscope("damaged"));
                        let _ = p.attribution(&a);
                        p
                    })
                });
                prop_assert!(read.is_ok(), "profile panicked on damage {} at {}", kind, at);
                match read.unwrap() {
                    Ok(p) => {
                        if kind == 4 {
                            prop_assert_eq!(&p.spans, &reference.spans);
                            prop_assert_eq!(p.samples, reference.samples);
                            prop_assert_eq!(&p.digests, &reference.digests);
                        }
                    }
                    Err(err) => {
                        prop_assert!(kind == 1, "damage {} at {} failed: {}", kind, at, err);
                        let line = damaged.lines().nth(err.line - 1).unwrap_or("");
                        prop_assert!(
                            !whole.contains(&line),
                            "error names the undamaged line {}: {}", err.line, err
                        );
                    }
                }
            }
        }
    }
}
