//! Paired comparison of two campaigns over the same chips.
//!
//! A checkpoint sidecar (`--checkpoint`) records every chip's cell
//! results bit-exactly, so two sidecars of the same population — say
//! before and after a change to controller training — pair up chip by
//! chip. Per cell and metric this prints the mean shift
//! `after - before` with a 95% percentile-bootstrap interval over chips
//! (`eval_obs::paired_bootstrap`) and how many chips are bit-identical:
//! a cell whose chips all match did not move at all, and a shift whose
//! interval straddles zero is sampling noise at this population size.
//!
//! ```sh
//! cargo run --release -p eval-bench --bin ckpt_stats -- \
//!     before.ckpt.jsonl after.ckpt.jsonl [--labels TS/Static,TS/Exh-Dyn,..]
//! ```
//!
//! Chips pair by index when both sidecars completed them with the same
//! seed; quarantined chips are left out. `--labels` name the cells in
//! request order (a missing label prints the cell index).

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use eval_adapt::{committed_cells, CellResult, CommittedChip};
use eval_obs::stats::{paired_bootstrap, BOOTSTRAP_RESAMPLES};

/// The metrics a cell carries, in sidecar field order.
const METRICS: [&str; 3] = ["freq", "perf", "power"];

/// A cell's metrics in [`METRICS`] order.
fn metrics(cell: &CellResult) -> [f64; 3] {
    [cell.freq_rel, cell.perf_rel, cell.power_w]
}

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ckpt_stats: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut paths = Vec::new();
    let mut labels = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--labels" {
            let list = it.next().ok_or("--labels needs a comma-separated list")?;
            labels = list.split(',').map(str::to_string).collect();
        } else {
            paths.push(arg.as_str());
        }
    }
    let [before, after] = paths.as_slice() else {
        return Err(
            "usage: ckpt_stats <before.ckpt.jsonl> <after.ckpt.jsonl> [--labels a,b,..]".into(),
        );
    };
    let read = |path: &str| {
        if !Path::new(path).is_file() {
            return Err(format!("{path}: no such sidecar"));
        }
        committed_cells(Path::new(path)).map_err(|e| format!("{path}: {e}"))
    };
    compare(&read(before)?, &read(after)?, &labels)
}

/// Renders the paired comparison: one row per (cell, metric), over the
/// chips both sides completed with the same seed.
fn compare(
    before: &[CommittedChip],
    after: &[CommittedChip],
    labels: &[String],
) -> Result<String, String> {
    let pairs: Vec<(&[CellResult], &[CellResult])> = before
        .iter()
        .zip(after)
        .filter(|(b, a)| b.seed == a.seed)
        .filter_map(|(b, a)| Some((b.cells.as_deref()?, a.cells.as_deref()?)))
        .collect();
    let cells = pairs
        .first()
        .ok_or("no chip completed in both sidecars")?
        .0
        .len();
    if pairs
        .iter()
        .any(|(b, a)| b.len() != cells || a.len() != cells)
    {
        return Err("paired chips disagree on the cell count".into());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "paired shift over {} chips (after - before), 95% bootstrap interval, {BOOTSTRAP_RESAMPLES} resamples",
        pairs.len()
    );
    let _ = writeln!(
        out,
        "{:<24} {:<6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "cell", "metric", "identical", "before", "after", "shift", "lo", "hi"
    );
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    for cell in 0..cells {
        let label = labels
            .get(cell)
            .cloned()
            .unwrap_or_else(|| cell.to_string());
        for (m, metric) in METRICS.iter().enumerate() {
            let b: Vec<f64> = pairs.iter().map(|(b, _)| metrics(&b[cell])[m]).collect();
            let a: Vec<f64> = pairs.iter().map(|(_, a)| metrics(&a[cell])[m]).collect();
            let seed = (cell * METRICS.len() + m) as u64;
            let iv = paired_bootstrap(&b, &a, seed).ok_or("paired sides differ in length")?;
            let _ = writeln!(
                out,
                "{label:<24} {metric:<6} {:>5}/{:<3} {:>10.4} {:>10.4} {:>+10.4} {:>+10.4} {:>+10.4}",
                iv.identical,
                iv.n,
                mean(&b),
                mean(&a),
                iv.mean,
                iv.lo,
                iv.hi
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chips(freqs: &[f64]) -> Vec<CommittedChip> {
        let mut chips: Vec<CommittedChip> = freqs
            .iter()
            .enumerate()
            .map(|(i, &freq_rel)| CommittedChip {
                seed: 100 + i as u64,
                cells: Some(vec![CellResult {
                    freq_rel,
                    perf_rel: 1.0,
                    power_w: 20.0,
                    ..CellResult::default()
                }]),
            })
            .collect();
        chips.push(CommittedChip {
            seed: 100 + freqs.len() as u64,
            cells: None,
        });
        chips
    }

    #[test]
    fn sidecars_pair_by_chip_and_report_identical_cells() {
        let before = chips(&[1.0, 1.1, 0.9]);
        let after = chips(&[1.0, 1.2, 0.9]);
        let report = compare(&before, &after, &["TS/Fuzzy-Dyn".into()]).expect("compares");
        assert!(report.contains("paired shift over 3 chips"), "{report}");
        let row = |metric: &str| {
            report
                .lines()
                .find(|l| l.contains(&format!(" {metric} ")))
                .expect("metric row")
                .to_string()
        };
        assert!(row("freq").starts_with("TS/Fuzzy-Dyn"), "{report}");
        assert!(row("freq").contains("2/3"), "{report}");
        assert!(row("power").contains("3/3"), "{report}");
        // A chip missing or reseeded on one side is left out.
        assert!(compare(&before, &chips(&[1.0]), &[])
            .expect("compares")
            .contains("over 1 chips"));
        let mut reseeded = after.clone();
        reseeded[1].seed = 7;
        assert!(compare(&before, &reseeded, &[])
            .expect("compares")
            .contains("over 2 chips"));
        assert!(compare(&chips(&[]), &after, &[]).is_err());
    }

    #[test]
    fn a_missing_sidecar_is_an_error() {
        let err = run(&["no/such/before.ckpt.jsonl".into(), "x".into()]).expect_err("missing file");
        assert!(err.contains("no such sidecar"), "{err}");
        assert!(run(&["only-one".into()]).is_err());
    }
}
