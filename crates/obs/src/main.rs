//! The `eval-obs` command-line tool.
//!
//! ```text
//! eval-obs analyze <trace.jsonl> [--json | --format json|text]
//! eval-obs profile <trace.jsonl | sidecar.timing.jsonl> [--trace <primary>]
//!                  [--folded <out>] [--speedscope <out>] [--name <label>]
//! eval-obs postmortem <bundle.jsonl | bundle-dir>
//! eval-obs bench-check --baseline <BENCH.json> --fresh <BENCH.json>
//!                      [--history <path>] [--tolerance X | name=X]...
//!                      [--legacy-tolerance X] [--alpha A] [--trials N]
//!                      [--min-effect X | name=X]...
//! eval-obs runs list|show <sel>|diff <a> <b>|query|gc --keep N [--journal <path>]
//! ```
//!
//! `analyze` reads `-` as stdin, so a trace can be piped straight in.
//! Given a file path, it also folds a sibling `<trace>.timing.jsonl`
//! sidecar (wall-clock digests and spans) into the report when one
//! exists.
//!
//! `profile` consumes the `--timing` sidecar: the self/total span
//! table, optional folded-stack and speedscope exports, and — when the
//! primary trace is available — per-scheme attribution against its
//! `solver.*` counters and decision counts. `postmortem` renders the
//! bundles of last traced decisions the campaign writes for quarantined
//! chips.
//!
//! `bench-check` gates with the distribution-aware quantile test when
//! the fresh file carries sample vectors (`hotpath --samples N`),
//! falling back to the fixed-ratio gate for v1 records or thin data;
//! `--legacy-tolerance X` forces the ratio gate everywhere.
//!
//! `runs` reads the provenance journal (`--journal`, default
//! `$EVAL_RUNS_JOURNAL` or `runs/journal.jsonl`); selectors are a list
//! index, a content-address prefix, or a path suffix. `runs gc
//! --keep N` rewrites the journal atomically, retaining the newest N
//! records per artifact kind.
//!
//! Exit status: `bench-check` exits 1 on a regression; everything else
//! exits 1 only on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use eval_obs::bench_check::{self, BenchFile, GateOptions};
use eval_obs::{analyze_reader, runs};

const USAGE: &str = "usage:
  eval-obs analyze <trace.jsonl | -> [--json | --format json|text]
  eval-obs profile <trace.jsonl | sidecar.timing.jsonl> [--trace <primary.jsonl>]
                   [--folded <out>] [--speedscope <out>] [--name <label>]
  eval-obs postmortem <bundle.jsonl | bundle-dir>
  eval-obs bench-check --baseline <BENCH.json> --fresh <BENCH.json> [--history <path>]
                       [--tolerance X | --tolerance name=X]... [--legacy-tolerance X]
                       [--alpha A] [--trials N] [--min-effect X | --min-effect name=X]...
  eval-obs runs list|show <sel>|diff <a> <b>|query --config-fingerprint <prefix>
           |gc --keep <count> [--journal <path>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("postmortem") => cmd_postmortem(&args[1..]),
        Some("bench-check") => return cmd_bench_check(&args[1..]),
        Some("runs") => cmd_runs(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("eval-obs: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn cmd_analyze(args: &[String]) -> CliResult {
    let mut path: Option<&str> = None;
    let mut as_json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => as_json = true,
            "--format" => match it.next().ok_or("--format needs json|text")?.as_str() {
                "json" => as_json = true,
                "text" => as_json = false,
                other => return Err(format!("bad format `{other}` (json|text)").into()),
            },
            other if path.is_none() => path = Some(other),
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let path = path.ok_or("analyze needs a trace path (or `-` for stdin)")?;
    let mut analysis = if path == "-" {
        let stdin = std::io::stdin();
        analyze_reader(stdin.lock())?
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        analyze_reader(std::io::BufReader::new(file))?
    };
    // A primary trace with a `--timing` sidecar next to it gets the
    // wall-clock digests and spans folded back in (they were routed
    // away from the primary stream to keep it byte-identical).
    if path != "-" && !path.ends_with(".timing.jsonl") {
        let sidecar = eval_trace::timing_sidecar_path(std::path::Path::new(path));
        if sidecar.is_file() {
            match std::fs::File::open(&sidecar)
                .map_err(|e| e.to_string())
                .and_then(|f| {
                    analyze_reader(std::io::BufReader::new(f)).map_err(|e| e.to_string())
                })
                .and_then(|timing| analysis.merge_timing(&timing))
            {
                Ok(()) => eprintln!("# folded timing sidecar {}", sidecar.display()),
                Err(e) => eprintln!(
                    "# WARNING: timing sidecar {} skipped: {e}",
                    sidecar.display()
                ),
            }
        }
    }
    if analysis.truncated_tail {
        eprintln!("# WARNING: {path}: torn final line dropped (trace truncated by a crash)");
    }
    if as_json {
        println!("{}", analysis.report_json());
    } else {
        print!("{}", analysis.report_text());
    }
    Ok(())
}

fn analyze_file(path: &std::path::Path) -> Result<eval_obs::Analysis, Box<dyn std::error::Error>> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(analyze_reader(std::io::BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?)
}

fn cmd_profile(args: &[String]) -> CliResult {
    let mut operand: Option<PathBuf> = None;
    let mut primary_override: Option<PathBuf> = None;
    let mut folded_out: Option<PathBuf> = None;
    let mut speedscope_out: Option<PathBuf> = None;
    let mut name: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                primary_override = Some(it.next().ok_or("--trace needs a path")?.into());
            }
            "--folded" => folded_out = Some(it.next().ok_or("--folded needs a path")?.into()),
            "--speedscope" => {
                speedscope_out = Some(it.next().ok_or("--speedscope needs a path")?.into());
            }
            "--name" => name = Some(it.next().ok_or("--name needs a label")?.clone()),
            other if operand.is_none() => operand = Some(other.into()),
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let operand = operand.ok_or("profile needs a trace or .timing.jsonl sidecar path")?;
    // The operand is either the sidecar itself or the primary trace
    // it rides along with; resolve both sides from whichever we got.
    let operand_is_sidecar = operand
        .to_str()
        .is_some_and(|p| p.ends_with(".timing.jsonl"));
    let sidecar = if operand_is_sidecar {
        operand.clone()
    } else {
        eval_trace::timing_sidecar_path(&operand)
    };
    let primary = primary_override.or_else(|| (!operand_is_sidecar).then(|| operand.clone()));

    let profile = eval_obs::Profile::from_analysis(&analyze_file(&sidecar)?);
    let label = name.unwrap_or_else(|| sidecar.display().to_string());
    print!("{}", profile.report_text());
    match &primary {
        Some(path) if path.is_file() => {
            print!("{}", profile.attribution(&analyze_file(path)?));
        }
        Some(path) => eprintln!(
            "# primary trace {} not found; attribution skipped",
            path.display()
        ),
        None => {}
    }
    if let Some(out) = folded_out {
        eval_trace::write_atomic(&out, profile.folded().as_bytes())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("# folded stacks written to {}", out.display());
    }
    if let Some(out) = speedscope_out {
        eval_trace::write_atomic(&out, profile.speedscope(&label).as_bytes())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("# speedscope profile written to {}", out.display());
    }
    Ok(())
}

fn cmd_postmortem(args: &[String]) -> CliResult {
    let mut operand: Option<PathBuf> = None;
    for arg in args {
        match arg.as_str() {
            other if operand.is_none() => operand = Some(other.into()),
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let operand = operand.ok_or("postmortem needs a bundle file or bundle directory")?;
    let paths = eval_obs::postmortem::bundle_paths(&operand)
        .map_err(|e| format!("{}: {e}", operand.display()))?;
    for (i, path) in paths.iter().enumerate() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let bundle = eval_obs::parse_bundle(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if i > 0 {
            println!();
        }
        print!("{}", eval_obs::postmortem::render_text(&bundle));
    }
    Ok(())
}

fn cmd_bench_check(args: &[String]) -> ExitCode {
    match run_bench_check(args) {
        Ok(pass) => {
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("eval-obs: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_spec(
    spec: &str,
    flag: &str,
    opts: &mut GateOptions,
    default: &mut dyn FnMut(&mut GateOptions, f64),
) -> Result<(), String> {
    match spec.split_once('=') {
        Some((name, v)) => {
            let v: f64 = v.parse().map_err(|_| format!("bad {flag} `{spec}`"))?;
            opts.tolerances.per_bench.insert(name.to_string(), v);
            Ok(())
        }
        None => {
            let v: f64 = spec.parse().map_err(|_| format!("bad {flag} `{spec}`"))?;
            default(opts, v);
            Ok(())
        }
    }
}

fn run_bench_check(args: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let mut baseline: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;
    let mut history: Option<PathBuf> = None;
    let mut opts = GateOptions::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(it.next().ok_or("--baseline needs a path")?.into()),
            "--fresh" => fresh = Some(it.next().ok_or("--fresh needs a path")?.into()),
            "--history" => history = Some(it.next().ok_or("--history needs a path")?.into()),
            "--tolerance" => {
                let spec = it.next().ok_or("--tolerance needs a value")?;
                parse_spec(spec, "tolerance", &mut opts, &mut |o, v| {
                    o.tolerances.default = v;
                })?;
            }
            "--legacy-tolerance" => {
                let spec = it.next().ok_or("--legacy-tolerance needs a value")?;
                opts.force_legacy = true;
                opts.tolerances.default = spec
                    .parse()
                    .map_err(|_| format!("bad legacy tolerance `{spec}`"))?;
            }
            "--min-effect" => {
                let spec = it.next().ok_or("--min-effect needs a value")?;
                parse_spec(spec, "min-effect", &mut opts, &mut |o, v| {
                    o.gate.min_effect_frac = v;
                })?;
            }
            "--alpha" => {
                let spec = it.next().ok_or("--alpha needs a value")?;
                opts.gate.alpha = spec.parse().map_err(|_| format!("bad alpha `{spec}`"))?;
            }
            "--trials" => {
                let spec = it.next().ok_or("--trials needs a count")?;
                opts.gate.trials = spec.parse().map_err(|_| format!("bad trials `{spec}`"))?;
            }
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let baseline_path = baseline.ok_or("bench-check needs --baseline")?;
    let fresh_path = fresh.ok_or("bench-check needs --fresh")?;
    let baseline = BenchFile::load(&baseline_path)?;
    let fresh = BenchFile::load(&fresh_path)?;
    let records = match &history {
        Some(path) => bench_check::load_history(path)?,
        None => Vec::new(),
    };
    let report = bench_check::check_distribution(&baseline, &fresh, &records, &opts);
    print!("{}", report.render_text());
    if let Some(history) = history {
        bench_check::append_history(&history, &report)?;
        eprintln!("# history appended to {}", history.display());
    }
    Ok(report.pass())
}

fn cmd_runs(args: &[String]) -> CliResult {
    let mut journal: Option<PathBuf> = None;
    let mut keep: Option<usize> = None;
    let mut fingerprint: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--journal" => journal = Some(it.next().ok_or("--journal needs a path")?.into()),
            "--config-fingerprint" => {
                fingerprint = Some(
                    it.next()
                        .ok_or("--config-fingerprint needs a hex prefix")?
                        .clone(),
                );
            }
            "--keep" => {
                let n = it.next().ok_or("--keep needs a count")?;
                keep = Some(
                    n.parse::<usize>()
                        .map_err(|_| format!("--keep needs an integer count, got {n}"))?,
                );
            }
            other => positional.push(other),
        }
    }
    let journal = journal
        .or_else(eval_trace::provenance::journal_path)
        .unwrap_or_else(|| PathBuf::from("runs/journal.jsonl"));
    let entries = runs::load_journal(&journal)
        .map_err(|e| format!("{}: {e} (no journal? set EVAL_RUNS_JOURNAL)", journal.display()))?;
    let lookup = |sel: &str| {
        runs::find(&entries, sel)
            .ok_or_else(|| format!("no run matches `{sel}` in {}", journal.display()))
    };
    match positional.as_slice() {
        ["list"] => print!("{}", runs::render_list(&entries)),
        ["query"] => {
            let prefix =
                fingerprint.ok_or("runs query needs --config-fingerprint <prefix>")?;
            let hits = runs::query_by_fingerprint(&entries, &prefix);
            print!("{}", runs::render_list(&hits));
        }
        ["show", sel] => print!("{}", runs::render_show(lookup(sel)?)),
        ["diff", a, b] => print!("{}", runs::render_diff(lookup(a)?, lookup(b)?)),
        ["gc"] => {
            let keep = keep.ok_or("runs gc needs --keep <count>")?;
            let kept = runs::gc_entries(&entries, keep);
            let dropped = entries.len() - kept.len();
            runs::write_journal(&journal, &kept)?;
            println!(
                "{}: kept {} run(s), dropped {dropped} (newest {keep} per artifact kind)",
                journal.display(),
                kept.len(),
            );
        }
        _ => {
            return Err(format!(
                "runs needs list | show <sel> | diff <a> <b> | \
                 query --config-fingerprint <prefix> | gc --keep <count>\n{USAGE}"
            )
            .into())
        }
    }
    Ok(())
}
