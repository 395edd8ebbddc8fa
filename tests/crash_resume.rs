//! Crash-safety round trips: a quarantined chip must not perturb the
//! rest of the sweep and its postmortem must be its own trace, a
//! killed-then-resumed campaign must reproduce the full-run trace and
//! result, and a sidecar written by a different campaign must be refused.

use std::path::{Path, PathBuf};

use eval_adapt::{
    committed_cells, Campaign, CampaignError, CampaignResult, CheckpointError, CheckpointOptions,
    Scheme,
};
use eval_core::Environment;
use eval_trace::{Collector, Json, StreamingJsonl, Tracer};
use eval_uarch::Workload;

const ENVS: [Environment; 1] = [Environment::TS_ASV];
const SCHEMES: [Scheme; 1] = [Scheme::ExhDyn];
const CHIP_START: &str = "{\"kind\":\"event\",\"event\":\"chip-start\",\"payload\":{\"chip\":";

fn small_campaign(chips: usize) -> Campaign {
    let mut campaign = Campaign::new(chips);
    campaign.profile_budget = 2_000;
    campaign.workloads = vec![Workload::by_name("gzip").expect("workload exists")];
    campaign.threads = 1;
    campaign
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eval-crash-{name}-{}", std::process::id()))
}

/// Event lines split into the campaign prologue (`None`) followed by
/// one segment per `chip-start` marker.
fn chip_segments(jsonl: &str) -> Vec<(Option<u64>, Vec<String>)> {
    let mut out: Vec<(Option<u64>, Vec<String>)> = vec![(None, Vec::new())];
    for line in jsonl.lines().filter(|l| l.starts_with("{\"kind\":\"event\"")) {
        if let Some(rest) = line.strip_prefix(CHIP_START) {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            out.push((digits.parse().ok(), Vec::new()));
        }
        let segment = out.last_mut().expect("starts non-empty");
        segment.1.push(line.to_string());
    }
    out
}

/// Drops the lines legitimately excluded from the cross-run
/// byte-identity contract: span timings, `*_us`/`*_ns`/`*_ms` digests,
/// and the resume accounting counter that only a resumed run carries.
fn deterministic_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| !l.contains("\"kind\":\"span\""))
        .filter(|l| !l.contains("_us\"") && !l.contains("_ns\"") && !l.contains("_ms\""))
        .filter(|l| !l.contains("campaign.chips_resumed"))
        .map(str::to_string)
        .collect()
}

#[test]
fn a_quarantined_chip_leaves_the_other_chips_bit_identical() {
    let campaign = small_campaign(3);
    let clean_sink = Collector::new();
    let clean = campaign
        .run_traced(&ENVS, &SCHEMES, Tracer::new(&clean_sink))
        .expect("clean campaign runs");
    assert!(clean.chips_failed.is_empty());

    let mut faulty = small_campaign(3);
    faulty.fail_chip = Some(1);
    let faulty_sink = Collector::new();
    let quarantined = faulty
        .run_traced(&ENVS, &SCHEMES, Tracer::new(&faulty_sink))
        .expect("sweep continues past the quarantined chip");
    assert_eq!(quarantined.chips_failed.len(), 1);
    assert_eq!(quarantined.chips_failed[0].chip, 1);
    assert!(
        quarantined.chips_failed[0].error.contains("injected"),
        "{:?}",
        quarantined.chips_failed
    );

    // The surviving chips' event streams must not move by a byte: the
    // faulty trace is the clean trace minus chip 1's segment.
    let mut expected = chip_segments(&clean_sink.jsonl());
    expected.retain(|(chip, _)| *chip != Some(1));
    assert_eq!(chip_segments(&faulty_sink.jsonl()), expected);

    // And the quarantine is visible to observability: one failed chip.
    assert!(
        faulty_sink.jsonl().contains("campaign.chips_failed"),
        "chips_failed counter missing from the trace"
    );
}

#[test]
fn all_chips_failing_is_a_typed_error() {
    let mut faulty = small_campaign(1);
    faulty.fail_chip = Some(0);
    let err = faulty
        .run_traced(&ENVS, &SCHEMES, Tracer::new(&Collector::new()))
        .expect_err("nothing to merge");
    assert!(matches!(err, CampaignError::AllChipsFailed { .. }), "{err:?}");
}

#[test]
fn kill_after_two_chips_then_resume_reproduces_the_full_run() {
    // Clean, and with chip 1 quarantined: its failed record is the
    // sidecar's second line and it left no trace segment.
    for fail_chip in [None, Some(1)] {
        let mut campaign = small_campaign(3);
        campaign.fail_chip = fail_chip;
        kill_after_two_chips_then_resume("exh", &campaign, &ENVS, &SCHEMES);
    }
}

#[test]
fn multi_workload_campaign_killed_after_two_chips_resumes_to_identical_per_workload_cells() {
    // The sidecar carries each chip's per-workload cells, so the resumed
    // run's breakdown is the full run's, bit for bit.
    let mut campaign = small_campaign(3);
    campaign
        .workloads
        .push(Workload::by_name("swim").expect("workload exists"));
    let schemes = [Scheme::Static, Scheme::ExhDyn];
    let full = kill_after_two_chips_then_resume("workloads", &campaign, &ENVS, &schemes);
    for scheme in schemes {
        let cells = full
            .workload_cells(ENVS[0], scheme)
            .expect("pair requested");
        assert_eq!(cells.len(), 2);
        assert_ne!(cells[0], cells[1], "{}", scheme.label());
    }
}

#[test]
fn figure13_campaign_killed_after_two_chips_resumes_to_the_full_run() {
    // The `fig13` campaign: sixteen Fuzzy-Dyn variants whose teacher
    // banks are shared across variants, streamed and checkpointed.
    kill_after_two_chips_then_resume(
        "fig13",
        &small_campaign(3),
        &Environment::FIGURE13,
        &[Scheme::FuzzyDyn],
    );
}

/// Runs `campaign` (three chips) checkpointed, forges the state a kill
/// after chip 1's commit leaves, resumes, and checks the resumed result
/// and trace against the full run's. Returns the full run's result.
fn kill_after_two_chips_then_resume(
    tag: &str,
    campaign: &Campaign,
    envs: &[Environment],
    schemes: &[Scheme],
) -> CampaignResult {
    let trace_full = scratch(&format!("{tag}-full.jsonl"));
    let ckpt_full = scratch(&format!("{tag}-full.ckpt.jsonl"));
    let trace_crash = scratch(&format!("{tag}-crash.jsonl"));
    let ckpt_crash = scratch(&format!("{tag}-crash.ckpt.jsonl"));
    for p in [&trace_full, &ckpt_full, &trace_crash, &ckpt_crash] {
        std::fs::remove_file(p).ok();
    }

    let fail_chip = campaign.fail_chip;
    let stream = StreamingJsonl::create(&trace_full).expect("creates trace");
    let full = campaign
        .run_checkpointed(
            envs,
            schemes,
            Tracer::new(&stream),
            &CheckpointOptions::fresh(&ckpt_full),
        )
        .expect("full campaign runs");
    stream.finish().expect("finishes");
    assert_eq!(full.chips_failed.len(), usize::from(fail_chip.is_some()));

    // Forge the crash state: the trace holds chips 0 and 1 plus a torn
    // partial line, the sidecar holds the header and two chip records —
    // exactly what a kill between chip 2's flush and its commit leaves.
    let full_text = std::fs::read_to_string(&trace_full).expect("readable");
    let mut crash_trace = String::new();
    for line in full_text.lines() {
        if !line.starts_with("{\"kind\":\"event\"") || line.starts_with(&format!("{CHIP_START}2")) {
            break;
        }
        crash_trace.push_str(line);
        crash_trace.push('\n');
    }
    crash_trace.push_str("{\"kind\":\"event\",\"event\":\"chip-sta");
    std::fs::write(&trace_crash, &crash_trace).expect("writes crash trace");
    let ckpt_text = std::fs::read_to_string(&ckpt_full).expect("readable");
    let crash_ckpt: String = ckpt_text.lines().take(3).map(|l| format!("{l}\n")).collect();
    std::fs::write(&ckpt_crash, crash_ckpt).expect("writes crash sidecar");

    // Resume exactly the way `TraceSession` does: reconcile the trace
    // against the segments of the sidecar's completed chips, then
    // continue the campaign.
    let committed = committed_cells(&ckpt_crash).expect("sidecar loads");
    assert_eq!(committed.len(), 2);
    let segments = committed.iter().filter(|c| c.cells.is_some()).count();
    assert_eq!(segments, 2 - usize::from(fail_chip.is_some()));
    let stream = StreamingJsonl::resume(&trace_crash, segments).expect("trace reconciles");
    let resumed = campaign
        .run_checkpointed(
            envs,
            schemes,
            Tracer::new(&stream),
            &CheckpointOptions::resuming(&ckpt_crash),
        )
        .expect("resumed campaign runs");
    stream.finish().expect("finishes");

    // The merged result and the deterministic trace lines are
    // indistinguishable from the uninterrupted run.
    assert_eq!(resumed, full);
    let resumed_text = std::fs::read_to_string(&trace_crash).expect("readable");
    assert_eq!(
        deterministic_lines(&resumed_text),
        deterministic_lines(&full_text)
    );
    assert!(
        resumed_text.contains("campaign.chips_resumed"),
        "resume accounting counter missing"
    );

    for p in [&trace_full, &ckpt_full, &trace_crash, &ckpt_crash] {
        std::fs::remove_file(p).ok();
    }
    full
}

/// The flight lines of a postmortem bundle, minus the header and the
/// provenance footer.
fn flight_lines(bundle: &str) -> Vec<String> {
    bundle
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"flight\""))
        .map(str::to_string)
        .collect()
}

#[test]
fn a_postmortem_is_the_quarantined_chips_own_trace_at_any_thread_count() {
    // Four (environment, scheme) units per chip for the workers to share.
    let envs = [Environment::TS, Environment::TS_ASV];
    let schemes = [Scheme::Static, Scheme::ExhDyn];
    let clean_sink = Collector::new();
    small_campaign(2)
        .run_traced(&envs, &schemes, Tracer::new(&clean_sink))
        .expect("clean campaign runs");
    // Chip 1's decisions in the clean trace, as the payload fields a
    // flight line carries.
    let fields = [
        "scheme",
        "env",
        "workload",
        "phase",
        "f_ghz",
        "pe_per_instruction",
        "power_w",
        "binding",
        "outcome",
    ];
    let pick =
        |v: &Json| -> Vec<Option<Json>> { fields.iter().map(|k| v.get(k).cloned()).collect() };
    let segments = chip_segments(&clean_sink.jsonl());
    let (_, chip1) = segments
        .iter()
        .find(|(chip, _)| *chip == Some(1))
        .expect("chip 1 traced");
    let decisions: Vec<Vec<Option<Json>>> = chip1
        .iter()
        .filter(|l| l.contains("\"event\":\"decision\""))
        .map(|l| {
            pick(
                Json::parse(l)
                    .expect("event line parses")
                    .get("payload")
                    .expect("payload"),
            )
        })
        .collect();
    assert!(!decisions.is_empty());
    let first = decisions
        .len()
        .saturating_sub(eval_trace::POSTMORTEM_DECISIONS);
    let tail = &decisions[first..];

    let mut bodies = Vec::new();
    for workers in [1usize, 2, 0] {
        let dir = scratch(&format!("pm-{workers}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut faulty = small_campaign(2);
        faulty.fail_chip = Some(1);
        faulty.intra_chip_threads = workers;
        faulty.postmortem_dir = Some(dir.clone());
        let sink = Collector::new();
        faulty
            .run_traced(&envs, &schemes, Tracer::new(&sink))
            .expect("chip 0 completes");
        assert!(
            !sink.jsonl().contains(&format!("{CHIP_START}1")),
            "a quarantined chip leaves no trace output"
        );
        let text = std::fs::read_to_string(dir.join("chip-1.jsonl")).expect("bundle written");
        let body: Vec<String> = text
            .lines()
            .filter(|l| !l.contains("\"kind\":\"provenance\""))
            .map(str::to_string)
            .collect();
        assert!(
            body[0].contains(&format!("\"recorded\":{}", decisions.len())),
            "{text}"
        );
        let flights: Vec<Vec<Option<Json>>> = flight_lines(&text)
            .iter()
            .map(|l| pick(&Json::parse(l).expect("flight line parses")))
            .collect();
        assert_eq!(flights, tail, "{workers} workers");
        bodies.push(body);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(bodies[0], bodies[1], "1 vs 2 workers");
    assert_eq!(bodies[0], bodies[2], "1 vs all workers");
}

#[test]
fn resume_refuses_a_sidecar_from_a_different_campaign() {
    let ckpt = scratch("mismatch.ckpt.jsonl");
    std::fs::remove_file(&ckpt).ok();

    small_campaign(2)
        .run_checkpointed(
            &ENVS,
            &SCHEMES,
            Tracer::new(&Collector::new()),
            &CheckpointOptions::fresh(&ckpt),
        )
        .expect("first campaign runs");

    let mut reseeded = small_campaign(2);
    reseeded.base_seed ^= 1;
    let err = reseeded
        .run_checkpointed(
            &ENVS,
            &SCHEMES,
            Tracer::new(&Collector::new()),
            &CheckpointOptions::resuming(&ckpt),
        )
        .expect_err("fingerprints differ");
    assert!(
        matches!(
            err,
            CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })
        ),
        "{err:?}"
    );
    std::fs::remove_file(&ckpt).ok();
}

/// `Path` round-trip guard for the helpers above.
#[test]
fn chip_segments_split_on_markers() {
    let jsonl = format!(
        "{CHIP_START}0}}}}\n{{\"kind\":\"event\",\"event\":\"x\"}}\n{CHIP_START}1}}}}\n"
    );
    let segs = chip_segments(&jsonl);
    assert_eq!(segs.len(), 3);
    assert_eq!(segs[1].0, Some(0));
    assert_eq!(segs[1].1.len(), 2);
    assert_eq!(segs[2].0, Some(1));
    let _: &Path = &scratch("x");
}
