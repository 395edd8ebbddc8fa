//! Finding rendering: stable IDs, the classic text format, the
//! machine-readable JSON format (`--format json`), rule explanations
//! (`--explain`), and the README rule table (`--rules-table`).
//!
//! ## Finding-ID stability contract
//!
//! A finding's ID is `<code>-<fingerprint>` where the fingerprint is a
//! 64-bit FNV-1a hash over `(rule name, path, message)`. Line and
//! column are deliberately **excluded**: unrelated edits that shift a
//! finding up or down keep its ID, so CI systems keyed on IDs do not
//! churn. The ID changes exactly when the finding's rule, file, or
//! message text changes — i.e. when it is a different finding.

use std::fmt::Write as _;

use eval_trace::json::push_str_literal;

use crate::{Finding, Rule};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The stable 64-bit fingerprint of a finding (see the module docs for
/// the stability contract).
pub fn fingerprint(rule: Rule, path: &str, message: &str) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, rule.name().as_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, path.as_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, message.as_bytes())
;
    h
}

/// Renders findings in the classic one-line-per-finding text format.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    out
}

/// Renders findings as a JSON document: a `version` tag and a
/// `findings` array with stable IDs and 1-based spans (`col` is null
/// for line-anchored findings).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let col = match f.col {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "    {{\"id\":\"{}\",\"code\":\"{}\",\"rule\":\"{}\",\"path\":",
            f.id(),
            f.rule.code(),
            f.rule.name(),
        );
        push_str_literal(&mut out, &f.path);
        let _ = write!(out, ",\"line\":{},\"col\":{},\"message\":", f.line, col);
        push_str_literal(&mut out, &f.message);
        out.push('}');
        out.push_str(if i + 1 == findings.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The long-form explanation printed by `--explain <rule>`.
pub fn explain(rule: Rule) -> &'static str {
    match rule {
        Rule::UnitSafety => {
            "unit-safety (EVL001)\n\nPublic functions of the physics crates (eval-power, eval-timing,\neval-core) must not take raw `f64` parameters whose names say they\ncarry a physical unit (vdd, vbb, *_ghz, volt, watt, kelvin). Those\nvalues cross API boundaries as the eval-units newtypes (Volts, GHz,\nWatts, Kelvin, ErrorRate), whose constructors range-validate against\nthe paper's operating envelope. A raw f64 silently accepts a millivolt\nvalue where volts were meant.\n\nSuppress with `// lint:allow(unit-safety): <why>` on or above the\nsignature."
        }
        Rule::Determinism => {
            "determinism (EVL002)\n\nThe simulation crates must be bit-identical across runs: the\nMonte-Carlo campaign is the paper's experiment, and a re-run that\ndrifts cannot be compared against a committed baseline. Wall-clock and\nOS-entropy sources (thread_rng, from_entropy, SystemTime,\nInstant::now) and iteration-order-unstable collections (HashMap,\nHashSet) are banned; derive randomness from the seeded eval-rng stream\nand use BTreeMap/BTreeSet."
        }
        Rule::PanicSafety => {
            "panic-safety (EVL003)\n\nLibrary crates must not call .unwrap()/.expect(...) or the panicking\nmacros (panic!, todo!, unimplemented!) outside #[cfg(test)] regions.\nA panic mid-campaign loses hours of simulation; fallible paths return\ntyped errors that the campaign runner can checkpoint around.\nTest/bench/example code is exempt."
        }
        Rule::ConfigInvariants => {
            "config-invariants (EVL004)\n\nThe paper's constants (PMAX = 30 W, TMAX = 85 C, THMAX = 70 C,\nPEMAX = 1e-4 err/inst, sigma/mu = 0.09, phi = 0.5, f_nominal = 4 GHz)\nare defined exactly once, in eval_units::consts, with the paper's\nvalues. The rule checks presence and value there, and flags shadow\ndefinitions of the same constant names anywhere else — a shadow copy\nthat drifts is how reproductions silently diverge from the paper."
        }
        Rule::NoPrintln => {
            "no-println (EVL005)\n\nLibrary crates (and eval-trace itself) must not write to\nstdout/stderr (println!, print!, eprintln!, eprint!, dbg!).\nObservability goes through the eval-trace sinks so output stays\nstructured and machine-parseable; reports are returned as Strings for\nthe binary layer to print. The figure binaries (eval-bench bins) and\nthe lint CLI are the printing layer and are exempt."
        }
        Rule::NoAllocInCheck => {
            "no-alloc-in-check (EVL006)\n\nFiles that carry a `// lint:hot-path` marker (the memoized\noperating-point evaluators) must not construct Vecs outside\n#[cfg(test)]: the per-candidate check path runs millions of times per\ncampaign and a single allocation per call dominates the ladder sweep.\nBanned tokens: Vec::new(, Vec::with_capacity(, vec![, .to_vec(),\n.collect(, .collect::<."
        }
        Rule::SinkForward => {
            "sink-forward (EVL007)\n\n`impl TraceSink for ...` blocks must not swallow records: no `_ =>`\nwildcard arms, and an impl that matches on `Record` must handle all\nthree variants (Event, Metric, Span) explicitly. Decorator sinks\n(tee, filter, checkpoint) rely on every sink forwarding every variant\nto keep the JSONL stream bit-identical end to end."
        }
        Rule::AtomicArtifacts => {
            "atomic-artifacts (EVL008)\n\nFinal artifacts (traces, reports, metric snapshots, bench JSON) must\nnot be written with std::fs::write / File::create: a crash or a\nconcurrent reader mid-write sees a torn file. Use\neval_trace::write_atomic (stage + rename). Append-mode streams built\non OpenOptions are their own crash-safety story and are exempt."
        }
        Rule::MetricSchema => {
            "metric-schema (EVL009)\n\nCross-crate schema drift: the emitting side (campaign, adapt, core)\nand the consuming side (eval-obs analyze/bench-check) agree\non metric names only by string equality, so a rename on one side\nstrands the other silently. Every metric name is declared once as an\neval_trace::names constant; this rule flags (a) raw metric-name\nstring literals outside the names module, (b) names consumed in\neval-obs but emitted nowhere, (c) names emitted but never consumed\nand not listed in the committed registry results/metric_schema.json,\n(d) consumed prefix families no emitted name falls under, (e) names\nconstants nothing references, (f) registry entries no longer backed\nby any declaration/emit/consume, and (g) two constants declaring the\nsame name. Regenerate the registry with `eval-lint --emit-schema`."
        }
        Rule::HotPathReachability => {
            "hot-path-reachability (EVL010)\n\nno-alloc-in-check (EVL006) only sees the marked file itself, so a\nhot-path function that calls an allocating helper in a neighbouring\nmodule passes. This rule closes the gap one call-graph hop out:\nevery function called from a lint:hot-path module must be\nallocation-free or itself live in a hot-path-marked (and therefore\nchecked) module. Resolution is name-based and deliberately\nconservative: unqualified and method calls resolve within the calling\ncrate, `eval_xxx::` paths resolve cross-crate, `Type::` paths are\nskipped, and a finding fires only when every candidate definition\nallocates."
        }
        Rule::DeadSuppression => {
            "dead-suppression (EVL011)\n\nEvery `// lint:allow(<rule>)` marker must suppress at least one\nfinding this run. A marker that suppresses nothing is stale — the\ncode it justified was fixed or moved — and stale markers are how real\nviolations sneak in later. The rule also flags markers naming unknown\nrule families (typos never suppress anything). Dead-suppression\nfindings cannot themselves be suppressed; delete the marker instead."
        }
        Rule::WallClockInDeterministicPath => {
            "wall-clock-in-deterministic-path (EVL013)\n\nThe two-sink tracer guarantees the primary trace is byte-identical\nwhether wall-clock profiling is on or off, but only if clock reads\ncannot leak into library code through the back door. Direct\n`Instant::now()` / `SystemTime::now()` calls are therefore confined\nto the one sanctioned module, crates/trace/src/timing.rs; everything\nelse routes through eval_trace::timing::clock_now() /\nunix_time_secs(). Simulation crates are covered by the stricter\ndeterminism rule (EVL002) and are not double-flagged; tests and the\ntiming module itself are exempt.\n\nSuppress with `// lint:allow(wall-clock-in-deterministic-path): <why>`\nwhen a clock read provably never reaches a trace sink."
        }
    }
}

/// The one-line summary used in the README rule table.
pub fn summary(rule: Rule) -> &'static str {
    match rule {
        Rule::UnitSafety => "raw `f64` parameters with unit-carrying names in the physics crates; use eval-units newtypes",
        Rule::Determinism => "entropy, wall-clock, or hash-ordered collections in simulation crates",
        Rule::PanicSafety => "`unwrap`/`expect`/panicking macros in library code outside tests",
        Rule::ConfigInvariants => "paper constants missing, wrong, or redefined outside `eval_units::consts`",
        Rule::NoPrintln => "stdout/stderr macros in library code; observability goes through eval-trace sinks",
        Rule::NoAllocInCheck => "`Vec` construction inside `lint:hot-path` modules",
        Rule::SinkForward => "`TraceSink` impls with wildcard arms or unhandled `Record` variants",
        Rule::AtomicArtifacts => "in-place artifact writes (`fs::write`/`File::create`); use `write_atomic`",
        Rule::MetricSchema => "metric-name drift between emitters, eval-obs consumers, and the committed registry",
        Rule::HotPathReachability => "hot-path code calling allocating functions defined in unmarked modules",
        Rule::DeadSuppression => "`lint:allow` markers that suppress nothing or name unknown rules",
        Rule::WallClockInDeterministicPath => "direct `Instant::now`/`SystemTime::now` outside the sanctioned `eval_trace::timing` module",
    }
}

/// Renders the markdown rule table embedded in the README (generated,
/// not hand-maintained: `eval-lint --rules-table`).
pub fn rules_table() -> String {
    let mut out = String::new();
    out.push_str("| Code | Rule | Flags |\n|------|------|-------|\n");
    for rule in Rule::ALL {
        let _ = writeln!(
            out,
            "| {} | `{}` | {} |",
            rule.code(),
            rule.name(),
            summary(rule)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            path: "crates/adapt/src/campaign.rs".into(),
            line: 42,
            col: Some(7),
            rule: Rule::MetricSchema,
            message: "metric name \"x.y\" is a raw literal".into(),
        }
    }

    #[test]
    fn ids_are_stable_across_line_moves() {
        let a = finding();
        let mut b = finding();
        b.line = 99;
        b.col = None;
        assert_eq!(a.id(), b.id());
        let mut c = finding();
        c.message.push('!');
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn id_embeds_the_rule_code() {
        assert!(finding().id().starts_with("EVL009-"));
    }

    #[test]
    fn json_escapes_quotes() {
        let text = render_json(&[finding()]);
        assert!(text.contains("\\\"x.y\\\""), "{text}");
        assert!(text.contains("\"line\":42"), "{text}");
        assert!(text.contains("\"col\":7"), "{text}");
        assert!(text.contains("\"version\": 1"), "{text}");
    }

    #[test]
    fn every_rule_has_explain_and_summary() {
        for rule in Rule::ALL {
            assert!(explain(rule).contains(rule.name()), "{rule}");
            assert!(!summary(rule).is_empty());
        }
        assert_eq!(rules_table().lines().count(), 2 + Rule::ALL.len());
    }
}
