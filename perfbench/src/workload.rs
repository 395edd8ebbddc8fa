//! The benchmark's workloads: the inputs each builds from a seed, its one
//! timed call through a public entry point (`Campaign::run_traced` or
//! `Tournament::run_traced`), and the checks and simulated metrics on
//! what that call returns.

use eval::adapt::tournament::SCHEMES;
use eval::adapt::{Campaign, CampaignResult, Scheme, Tournament, TournamentResult, TrainingBudget};
use eval::core::{ChipFactory, Environment, EvalConfig};
use eval::uarch::Workload as App;
use eval_trace::Tracer;

/// The paper's best dynamic frequency, × NoVar (TS+ASV+Q+FU, Figure 10).
pub const PAPER_FREQ_REL: f64 = 1.21;
/// The paper's best dynamic performance, × NoVar (TS+ASV+Q+FU, Figure 11).
pub const PAPER_PERF_REL: f64 = 1.14;

/// A seed kept out of tuning: confirm a claimed gain on it (pass
/// `--seed held-out`) after developing against other seeds.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// The trained families scored by `controller_perf_ratio` and the
/// held-out |Δf| on `tournament`.
pub const LEARNED: [&str; 4] = ["fuzzy", "nn-table", "tree", "mlp"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 10 environments × all three schemes on a small population:
    /// Fuzzy-Dyn training dominates.
    Fig10Train,
    /// Figure 10 environments × `[Static, ExhDyn]` over many chips and all
    /// 16 applications: no training, the decision path dominates.
    DecideExh,
    /// The controller tournament in TS+ASV: zoo training plus decisions
    /// through all six controllers, on training and held-out chips.
    Tournament,
}

/// How large a workload's population is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// The smallest run that still exercises every layer (self-tests).
    Smoke,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig10Train,
        Workload::DecideExh,
        Workload::Tournament,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10Train => "fig10-train",
            Workload::DecideExh => "decide-exh",
            Workload::Tournament => "tournament",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The per-stream seeds one workload seed maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `Campaign::base_seed` (chip population and workload profiling).
    pub population: u64,
    /// `TrainingBudget::seed` (teacher sampling and controller fits).
    pub training: u64,
    /// `Tournament::profile_seed`.
    pub profile: u64,
}

impl Seeds {
    /// Derives independent streams from one workload seed.
    pub fn from_seed(seed: u64) -> Seeds {
        Seeds {
            population: splitmix64(seed),
            training: splitmix64(seed ^ 0x7261_696E),
            profile: splitmix64(seed ^ 0x7072_6F66),
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The call a workload times.
#[derive(Debug, Clone)]
pub enum Job {
    /// `Campaign::run_traced(envs, schemes, ..)`.
    Campaign {
        /// The campaign, seeded and sized.
        campaign: Campaign,
        /// Environments requested.
        envs: Vec<Environment>,
        /// Schemes requested.
        schemes: Vec<Scheme>,
    },
    /// `Tournament::run_traced(..)`.
    Tournament(Tournament),
}

/// Everything a workload needs before its timed call.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The seeds the inputs came from.
    pub seeds: Seeds,
    /// The timed call, fully configured.
    pub job: Job,
    /// The chip factory (its variation model is shared process-wide, so
    /// building it here moves the correlation factorization out of the
    /// timed call).
    pub factory: ChipFactory,
    /// Worker threads given to the call (never 0).
    pub workers: usize,
}

impl Inputs {
    /// System configuration.
    pub fn config(&self) -> &EvalConfig {
        self.factory.config()
    }

    /// Chips the timed call simulates (training plus held-out).
    pub fn chips(&self) -> usize {
        match &self.job {
            Job::Campaign { campaign, .. } => campaign.chips,
            Job::Tournament(t) => t.chips + t.holdout_chips,
        }
    }

    /// The seed of chip `index` exactly as the timed call fabricates it.
    /// `Tournament::run_traced` builds its chips with `factory.chip(i)`,
    /// so the tournament's population does not depend on the seed.
    pub fn chip_seed(&self, index: usize) -> u64 {
        match &self.job {
            Job::Campaign { campaign, .. } => campaign.chip_seed(index),
            Job::Tournament(_) => index as u64,
        }
    }

    /// The applications the workload profiles.
    pub fn apps(&self) -> &[App] {
        match &self.job {
            Job::Campaign { campaign, .. } => &campaign.workloads,
            Job::Tournament(t) => &t.workloads,
        }
    }

    /// Instruction budget and seed the workload profiles its applications with.
    pub fn profile_args(&self) -> (u64, u64) {
        match &self.job {
            Job::Campaign { campaign, .. } => (campaign.profile_budget, campaign.base_seed),
            Job::Tournament(t) => (t.profile_budget, t.profile_seed),
        }
    }

    /// The training budget of every trained controller.
    pub fn training(&self) -> TrainingBudget {
        match &self.job {
            Job::Campaign { campaign, .. } => campaign.training,
            Job::Tournament(t) => t.training,
        }
    }

    /// The environments decisions are made in.
    pub fn envs(&self) -> Vec<Environment> {
        match &self.job {
            Job::Campaign { envs, .. } => envs.clone(),
            Job::Tournament(t) => vec![t.env],
        }
    }

    /// Whether the timed call trains controllers.
    pub fn trains(&self) -> bool {
        match &self.job {
            Job::Campaign { schemes, .. } => schemes.contains(&Scheme::FuzzyDyn),
            Job::Tournament(_) => true,
        }
    }
}

/// Worker threads for a call: `requested`, clamped to `1..=nproc`.
pub fn worker_count(requested: usize) -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.clamp(1, nproc)
}

fn apps(names: &[&str]) -> Vec<App> {
    names
        .iter()
        .map(|n| App::by_name(n).unwrap_or_else(|| panic!("unknown application {n}")))
        .collect()
}

/// Builds a workload's inputs from its seed: configuration, chip factory,
/// and the seeded, sized `Campaign` or `Tournament`.
pub fn setup(workload: Workload, seed: u64, size: Size, workers: usize) -> Inputs {
    let seeds = Seeds::from_seed(seed);
    let config = EvalConfig::micro08();
    let factory = ChipFactory::new(config.clone());
    let smoke = size == Size::Smoke;
    let smoke_training = TrainingBudget {
        examples: 40,
        config: eval::fuzzy::TrainingConfig {
            epochs: 1,
            ..eval::fuzzy::TrainingConfig::micro08()
        },
        seed: seeds.training,
    };
    let campaign = |chips: usize, workloads: Vec<App>, budget: TrainingBudget| {
        let mut c = Campaign::new(chips);
        c.config = config.clone();
        c.base_seed = seeds.population;
        c.training = budget;
        c.workloads = workloads;
        c.threads = workers;
        c.intra_chip_threads = 1;
        c
    };
    let full_training = TrainingBudget {
        seed: seeds.training,
        ..TrainingBudget::default()
    };
    let fig10_training = TrainingBudget {
        examples: FIG10_EXAMPLES,
        ..full_training
    };
    let job = match (workload, smoke) {
        (Workload::Fig10Train, false) => Job::Campaign {
            campaign: campaign(FIG10_CHIPS, apps(&["swim"]), fig10_training),
            envs: Environment::FIGURE10.to_vec(),
            schemes: Scheme::ALL.to_vec(),
        },
        (Workload::Fig10Train, true) => Job::Campaign {
            campaign: campaign(1, apps(&["gzip"]), smoke_training),
            envs: Environment::FIGURE10.to_vec(),
            schemes: Scheme::ALL.to_vec(),
        },
        (Workload::DecideExh, _) => {
            let (chips, workloads) = if smoke {
                (1, apps(&["gzip", "swim"]))
            } else {
                (DECIDE_CHIPS, App::all())
            };
            Job::Campaign {
                campaign: campaign(chips, workloads, full_training),
                envs: Environment::FIGURE10.to_vec(),
                schemes: vec![Scheme::Static, Scheme::ExhDyn],
            }
        }
        (Workload::Tournament, _) => {
            let mut t = Tournament::new(if smoke { 1 } else { TOURNAMENT_CHIPS });
            t.config = config.clone();
            t.env = Environment::TS_ASV;
            t.threads = workers;
            t.profile_seed = seeds.profile;
            if smoke {
                t.workloads = apps(&["gzip"]);
                t.training = smoke_training;
            } else {
                t.holdout_chips = TOURNAMENT_CHIPS;
                t.training = full_training;
            }
            Job::Tournament(t)
        }
    };
    Inputs {
        workload,
        seeds,
        job,
        factory,
        workers,
    }
}

/// Chips in `fig10-train`.
pub const FIG10_CHIPS: usize = 6;
/// Teacher examples per bank in `fig10-train`: a quarter of the default
/// budget, so six chips fit one call of about 10 s on two workers. The
/// teacher/fit split scales with it.
pub const FIG10_EXAMPLES: usize = 65;
/// Chips in `decide-exh`.
pub const DECIDE_CHIPS: usize = 8;
/// Training chips (and as many held-out chips) in `tournament`.
pub const TOURNAMENT_CHIPS: usize = 8;

/// What a workload's timed call returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A campaign result.
    Campaign(CampaignResult),
    /// A tournament result.
    Tournament(TournamentResult),
}

/// Runs the workload's one timed call.
///
/// # Errors
///
/// The campaign's error, rendered.
pub fn run(inputs: &Inputs, tracer: Tracer<'_>) -> Result<Output, String> {
    match &inputs.job {
        Job::Campaign {
            campaign,
            envs,
            schemes,
        } => campaign
            .run_traced(envs, schemes, tracer)
            .map(Output::Campaign)
            .map_err(|e| e.to_string()),
        Job::Tournament(t) => Ok(Output::Tournament(t.run_traced(tracer))),
    }
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

impl Output {
    /// A digest of every result bit.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Output::Campaign(r) => {
                let cells = std::iter::once(&r.baseline)
                    .chain(std::iter::once(&r.novar))
                    .chain(r.cells.iter().map(|(_, _, c)| c));
                for c in cells {
                    h.f64(c.freq_rel);
                    h.f64(c.perf_rel);
                    h.f64(c.power_w);
                    for n in c.outcomes.as_array() {
                        h.word(n);
                    }
                }
                for f in &r.chips_failed {
                    h.word(f.chip as u64);
                }
            }
            Output::Tournament(t) => {
                for s in &t.scores {
                    h.word(s.decisions);
                    h.f64(s.mean_abs_fdelta_ghz);
                    h.f64(s.exact_rate);
                    h.f64(s.mean_perf_rel);
                    h.word(s.holdout_decisions);
                    h.f64(s.holdout_mean_abs_fdelta_ghz);
                    h.f64(s.holdout_exact_rate);
                }
            }
        }
        h.0
    }

    /// Chips the call quarantined.
    pub fn quarantined(&self) -> usize {
        match self {
            Output::Campaign(r) => r.chips_failed.len(),
            Output::Tournament(_) => 0,
        }
    }
}

/// Checks a workload's output; returns one line per failed check.
pub fn check(inputs: &Inputs, output: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(msg);
    match (&inputs.job, output) {
        (Job::Campaign { envs, schemes, .. }, Output::Campaign(r)) => {
            if r.cells.len() != envs.len() * schemes.len() {
                fail(format!(
                    "{} cells returned, {} requested",
                    r.cells.len(),
                    envs.len() * schemes.len()
                ));
            }
            let p_max = inputs.config().constraints.p_max_w;
            for env in envs {
                for &scheme in schemes {
                    let Some(cell) = r.cell(*env, scheme) else {
                        fail(format!("cell {} / {} missing", env.name, scheme.label()));
                        continue;
                    };
                    let finite = [cell.freq_rel, cell.perf_rel, cell.power_w]
                        .iter()
                        .all(|x| x.is_finite() && *x > 0.0);
                    if !finite {
                        fail(format!(
                            "cell {} / {} not finite and positive",
                            env.name,
                            scheme.label()
                        ));
                    }
                    if scheme != Scheme::Static && cell.power_w > p_max {
                        fail(format!(
                            "cell {} / {} draws {:.3} W > PMAX {p_max} W",
                            env.name,
                            scheme.label(),
                            cell.power_w
                        ));
                    }
                }
            }
            for f in &r.chips_failed {
                fail(format!("chip {} quarantined: {}", f.chip, f.error));
            }
        }
        (Job::Tournament(t), Output::Tournament(r)) => {
            for scheme in SCHEMES {
                match r.score(scheme) {
                    None => fail(format!("tournament score for {scheme} missing")),
                    Some(s) => {
                        if s.decisions == 0 || (t.holdout_chips > 0 && s.holdout_decisions == 0) {
                            fail(format!("tournament scheme {scheme} scored no decisions"));
                        }
                        if !(s.mean_perf_rel.is_finite() && s.mean_perf_rel > 0.0) {
                            fail(format!(
                                "tournament scheme {scheme} perf not finite and positive"
                            ));
                        }
                    }
                }
            }
            if let Some(exh) = r.score("exhaustive") {
                let anchored = exh.exact_rate == 1.0
                    && exh.mean_abs_fdelta_ghz == 0.0
                    && (t.holdout_chips == 0
                        || (exh.holdout_exact_rate == 1.0
                            && exh.holdout_mean_abs_fdelta_ghz == 0.0));
                if !anchored {
                    fail(format!(
                        "exhaustive contestant not anchored: exact {} |df| {} holdout exact {} |df| {}",
                        exh.exact_rate,
                        exh.mean_abs_fdelta_ghz,
                        exh.holdout_exact_rate,
                        exh.holdout_mean_abs_fdelta_ghz
                    ));
                }
            }
        }
        _ => fail("output kind does not match the workload".to_string()),
    }
    failures
}

/// The simulated (deterministic per seed) metrics of one output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// How close the controlled scheme comes to its reference (see the
    /// README's metric table for each workload's definition).
    pub controller_perf_ratio: f64,
    /// Held-out mean |Δf| of the four trained families, GHz (tournament).
    pub holdout_fdelta_ghz: Option<f64>,
    /// |best dynamic TS+ASV+Q+FU `freq_rel` − 1.21| (campaigns).
    pub freq_gap_paper: Option<f64>,
    /// |best dynamic TS+ASV+Q+FU `perf_rel` − 1.14| (campaigns).
    pub perf_gap_paper: Option<f64>,
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// Computes the simulated metrics of an output (NaN ratio when the
/// output does not belong to the inputs; `check` reports that case).
pub fn quality(inputs: &Inputs, output: &Output) -> Quality {
    match (&inputs.job, output) {
        (Job::Campaign { envs, schemes, .. }, Output::Campaign(r)) => {
            let cell = |env: &Environment, s: Scheme| r.cell(*env, s).copied().unwrap_or_default();
            let (controlled, reference) = if schemes.contains(&Scheme::FuzzyDyn) {
                (Scheme::FuzzyDyn, Scheme::ExhDyn)
            } else {
                (Scheme::ExhDyn, Scheme::Static)
            };
            let best = |pick: fn(&eval::adapt::CellResult) -> f64| {
                schemes
                    .iter()
                    .filter(|s| **s != Scheme::Static)
                    .map(|s| pick(&cell(&Environment::TS_ASV_Q_FU, *s)))
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            Quality {
                controller_perf_ratio: mean(
                    envs.iter()
                        .map(|e| cell(e, controlled).perf_rel / cell(e, reference).perf_rel),
                ),
                holdout_fdelta_ghz: None,
                freq_gap_paper: Some((best(|c| c.freq_rel) - PAPER_FREQ_REL).abs()),
                perf_gap_paper: Some((best(|c| c.perf_rel) - PAPER_PERF_REL).abs()),
            }
        }
        (Job::Tournament(_), Output::Tournament(r)) => {
            let learned = || LEARNED.iter().filter_map(|s| r.score(s));
            Quality {
                controller_perf_ratio: mean(learned().map(|s| s.mean_perf_rel)),
                holdout_fdelta_ghz: Some(mean(learned().map(|s| s.holdout_mean_abs_fdelta_ghz))),
                freq_gap_paper: None,
                perf_gap_paper: None,
            }
        }
        _ => Quality {
            controller_perf_ratio: f64::NAN,
            holdout_fdelta_ghz: None,
            freq_gap_paper: None,
            perf_gap_paper: None,
        },
    }
}
