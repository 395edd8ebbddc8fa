//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <fig10-train|decide-exh|tournament> --seed <n|held-out>
//!           --seconds <s> --trace <0|1>
//! perfbench --print-benchmark-json
//! ```
//!
//! With `--trace 0` it repeats the workload's timed call for `--seconds`
//! and reports the end-to-end metrics; with `--trace 1` it makes one
//! traced call plus the layer pass and reports the per-layer metrics and
//! the ledger. The last line of standard output is the JSON result; the
//! exit code is non-zero when an output check fails.

use std::process::{Command, ExitCode};
use std::time::Instant;

use eval_perfbench::report::{benchmark_json, RUN_SECONDS};
use eval_perfbench::run::{measure, traced, Options};
use eval_perfbench::workload::{setup, worker_count, Size, Workload, HELD_OUT_SEED};

/// Cold set-ups measured in child processes, on top of this process's own.
const SETUP_PROBES: usize = 8;

/// Worker threads: a shared two-core budget (fewer when `nproc` is lower).
const WORKERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(if v == "held-out" {
                    HELD_OUT_SEED
                } else {
                    v.parse()
                        .map_err(|_| format!("--seed needs an integer or held-out, got {v}"))?
                });
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("--seconds needs a positive number, got {v}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other}")),
                };
            }
            "--setup-probe" => setup_probe = true,
            "--print-benchmark-json" => {
                print!("{}", benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_probe,
    }))
}

/// Cold set-up times from fresh child processes of this binary.
fn probe_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim()
                .strip_prefix("setup_s ")
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|_| out.status.success())
                .ok_or(format!("set-up probe printed {text:?}"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let t = Instant::now();
        std::hint::black_box(setup(
            args.workload,
            args.seed,
            Size::Full,
            worker_count(WORKERS),
        ));
        println!("setup_s {:?}", t.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let opts = Options {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        workers: worker_count(WORKERS),
        size: Size::Full,
    };
    let report = if args.trace {
        traced(&opts)
    } else {
        measure(&opts, || probe_setups(&args))
    };
    for line in &report.lines {
        println!("{line}");
    }
    for failure in &report.failures {
        println!("# CHECK FAILED: {failure}");
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
