//! Cross-crate round-trips: how a campaign's trace is collected (worker
//! threads, the timing sidecar, streaming versus end-of-run writing)
//! must not change the traced JSONL stream by a single byte.
//! Observability must be free.

use eval_adapt::{Campaign, Scheme};
use eval_core::Environment;
use eval_trace::{BufferSink, Collector, Record, StreamingJsonl, Tracer};
use eval_uarch::Workload;

fn small_campaign() -> Campaign {
    let mut campaign = Campaign::new(2);
    campaign.profile_budget = 2_000;
    campaign.workloads = vec![Workload::by_name("gzip").expect("workload exists")];
    campaign.threads = 1;
    campaign
}

/// Records a small traced campaign once and returns the raw records.
fn campaign_records() -> Vec<Record> {
    let buffer = BufferSink::new();
    small_campaign()
        .run_traced(
            &[Environment::TS_ASV],
            &[Scheme::ExhDyn],
            Tracer::new(&buffer),
        )
        .expect("campaign runs");
    buffer.into_records()
}

/// The deterministic part of the traced JSONL stream — every event line
/// and every non-timing metric line — must not depend on how many
/// worker threads split each chip's sweep: per-unit buffers replay in
/// unit order into the chip buffer, so the bytes match the serial run
/// exactly. (Span lines and `*_us` latency histograms are wall-clock by
/// contract and are excluded, as they vary even between serial runs.)
#[test]
fn intra_chip_threads_keep_the_jsonl_stream_bit_identical() {
    let collect = |workers: usize| -> Vec<String> {
        let mut campaign = small_campaign();
        campaign.intra_chip_threads = workers;
        let collector = Collector::new();
        campaign
            .run_traced(
                &[Environment::TS_ASV, Environment::TS],
                &[Scheme::ExhDyn, Scheme::Static],
                Tracer::new(&collector),
            )
            .expect("campaign runs");
        collector
            .jsonl()
            .lines()
            .filter(|l| !l.contains("\"kind\":\"span\"") && !l.contains("\"timing\":true"))
            .map(str::to_string)
            .collect()
    };
    let serial = collect(1);
    assert!(
        serial.iter().any(|l| l.contains("chip-start")),
        "trace looks wrong: {serial:?}"
    );
    assert!(
        serial.iter().any(|l| l.contains("solver.cache.hits")),
        "cache accounting missing: {serial:?}"
    );
    for workers in [2usize, 0] {
        assert_eq!(
            serial,
            collect(workers),
            "trace bytes drifted at {workers} intra-chip workers"
        );
    }
}

/// The tentpole invariant behind `--timing`: attaching the wall-clock
/// sidecar must not change the primary trace by a single byte. Spans
/// and `*_us` latency observations route exclusively to the timing
/// sink; everything deterministic lands on the primary sink in the
/// same order either way.
#[test]
fn timing_sidecar_keeps_the_primary_trace_byte_identical() {
    let run = |timing: Option<&eval_trace::TimingSidecar>| -> String {
        let collector = Collector::new();
        let tracer = match timing {
            Some(sidecar) => Tracer::with_timing(&collector, sidecar),
            None => Tracer::new(&collector),
        };
        small_campaign()
            .run_traced(&[Environment::TS_ASV], &[Scheme::ExhDyn], tracer)
            .expect("campaign runs");
        collector.jsonl()
    };

    let sidecar_path = std::env::temp_dir().join(format!(
        "eval-roundtrip-timing-{}.timing.jsonl",
        std::process::id()
    ));
    let sidecar = eval_trace::TimingSidecar::create(&sidecar_path).expect("creates");

    let with_timing = run(Some(&sidecar));
    let without_timing = run(None);
    assert!(!with_timing.is_empty(), "campaign produced no trace");
    assert_eq!(
        with_timing, without_timing,
        "--timing changed the primary trace bytes"
    );
    // The primary stream carries no wall-clock residue at all.
    for line in with_timing.lines() {
        assert!(
            !line.contains("\"kind\":\"span\"") && !line.contains("_us\""),
            "wall-clock record leaked into the primary trace: {line}"
        );
    }

    // The sidecar, meanwhile, actually captured the profile.
    sidecar.finish().expect("finishes");
    let sidecar_text = std::fs::read_to_string(&sidecar_path).expect("readable");
    assert!(
        sidecar_text.contains("\"kind\":\"span-sample\""),
        "no streamed samples in sidecar"
    );
    assert!(
        sidecar_text.contains("\"kind\":\"span\""),
        "no aggregated tail in sidecar"
    );
    assert!(
        sidecar_text.contains("decision.latency"),
        "no latency digests in sidecar"
    );
    std::fs::remove_file(&sidecar_path).ok();
}

/// The streaming sink, fed the same records the campaign's commit
/// pipeline replays chip by chip, must produce the exact file
/// `Collector::write_jsonl` writes at end-of-run — crash-safety must
/// not change a single byte of the trace.
#[test]
fn streaming_sink_file_is_byte_identical_to_end_of_run_write_jsonl() {
    let records = campaign_records();
    let dir = std::env::temp_dir();
    let streamed = dir.join(format!("eval-roundtrip-stream-{}.jsonl", std::process::id()));
    let collected = dir.join(format!("eval-roundtrip-collect-{}.jsonl", std::process::id()));

    let stream = StreamingJsonl::create(&streamed).expect("creates");
    // Tracer::replay is exactly what Campaign uses to drain each chip's
    // BufferSink — it flushes after the batch, committing event lines.
    Tracer::new(&stream).replay(records.clone());
    let before_finish = std::fs::read_to_string(&streamed).expect("readable");
    assert!(before_finish.contains("chip-start"), "{before_finish}");
    assert!(before_finish.ends_with('\n'), "complete lines only");
    stream.finish().expect("finishes");

    let collector = Collector::new();
    Tracer::new(&collector).replay(records);
    collector.write_jsonl(&collected).expect("writes");

    let streamed_text = std::fs::read_to_string(&streamed).expect("readable");
    let collected_text = std::fs::read_to_string(&collected).expect("readable");
    assert_eq!(streamed_text, collected_text);
    std::fs::remove_file(&streamed).ok();
    std::fs::remove_file(&collected).ok();
}
