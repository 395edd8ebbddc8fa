//! Golden trace stream: the `"kind":"event"` JSONL lines of a mini
//! campaign are byte-identical across runs and across thread counts.
//! Span lines and `*_us`/`*_ns` metrics carry wall-clock timings and are
//! deliberately outside this contract.

use eval::prelude::*;
use eval_trace::{Collector, Tracer};

fn mini_campaign() -> Campaign {
    let mut c = Campaign::new(2);
    c.profile_budget = 3_000;
    c.workloads = vec![
        Workload::by_name("swim").expect("exists"),
        Workload::by_name("crafty").expect("exists"),
    ];
    c
}

fn traced_event_lines(threads: usize) -> (CampaignResult, Vec<String>) {
    let mut c = mini_campaign();
    c.threads = threads;
    let sink = Collector::new();
    let result = c
        .run_traced(
            &[Environment::TS],
            &[Scheme::Static, Scheme::ExhDyn],
            Tracer::new(&sink),
        )
        .expect("campaign runs");
    (result, sink.event_lines())
}

#[test]
fn event_stream_is_identical_across_runs_and_thread_counts() {
    let (r1, e1) = traced_event_lines(1);
    let (r2, e2) = traced_event_lines(2);
    let (r3, e3) = traced_event_lines(1);
    assert_eq!(r1, r2, "thread count must not change results");
    assert_eq!(r1, r3, "repeated runs must merge identical results");
    assert_eq!(e1, e2, "thread count must not change the event stream");
    assert_eq!(e1, e3, "repeated runs must emit identical events");
    assert!(!e1.is_empty());
}

#[test]
fn event_stream_shape_is_parseable_and_ordered() {
    let (_, events) = traced_event_lines(1);
    // Every line is a single flat JSON object tagged as an event.
    for line in &events {
        assert!(line.starts_with("{\"kind\":\"event\",\"event\":\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert_eq!(line.matches('\n').count(), 0, "{line}");
    }
    // The stream opens with the campaign header, and decisions from both
    // schemes appear.
    assert!(events[0].contains("\"event\":\"campaign-start\""));
    assert!(events[0].contains("\"chips\":2"));
    let decisions: Vec<&String> = events
        .iter()
        .filter(|l| l.contains("\"event\":\"decision\""))
        .collect();
    assert!(!decisions.is_empty());
    assert!(decisions.iter().any(|l| l.contains("\"scheme\":\"static\"")));
    assert!(decisions
        .iter()
        .any(|l| l.contains("\"scheme\":\"exhaustive\"")));
    // Decisions are labeled with the requested workloads.
    for w in ["swim", "crafty"] {
        assert!(
            decisions
                .iter()
                .any(|l| l.contains(&format!("\"workload\":\"{w}\""))),
            "no decision for {w}"
        );
    }
}

#[test]
fn traced_and_untraced_campaigns_agree() {
    let c = mini_campaign();
    let plain = c
        .run_traced(&[Environment::TS], &[Scheme::Static, Scheme::ExhDyn], Tracer::noop())
        .expect("campaign runs");
    let (traced, _) = traced_event_lines(0);
    assert_eq!(plain, traced, "tracing must not perturb results");
}
