//! The controller tournament (Figure 13 methodology applied to the
//! controller zoo): every contestant scheme decides every phase of every
//! workload on a training chip population, scored against the exhaustive
//! oracle's decision for the same phase, then re-scored on a *held-out*
//! chip population its controllers never trained on.
//!
//! Three score axes per scheme:
//!
//! * **accuracy** — mean `|f - f_exhaustive|` and the exact-match rate
//!   against the oracle's frequency choice, plus mean performance
//!   relative to the oracle's decision;
//! * **latency** — per-decision wall time, recorded by the
//!   `decision.latency.<scheme>_us` timer every
//!   [`Controller::decide`] runs under whenever a timing sink is attached
//!   (the `--timing` sidecar; `eval-obs analyze` reports p50/p95/p99);
//! * **robustness** — the same accuracy scores on holdout chips driven
//!   by controllers trained on a *different* chip (round-robin), so a
//!   scheme that memorizes its own chip's variation map degrades here.
//!
//! Chips are scored in parallel through the campaign's ordered fan-out
//! (`fan_out::ordered`): each chip traces into its own buffer, and chips
//! are replayed and summed in chip order, so the primary trace is
//! byte-identical for any thread count.

use std::ops::ControlFlow;
use std::panic::resume_unwind;

use eval_core::{ChipFactory, ChipModel, Environment, EvalConfig};
use eval_trace::{names, Event, Tracer};
use eval_uarch::{Workload, WorkloadProfile};

use crate::exhaustive::ExhaustiveOptimizer;
use crate::fan_out;
use crate::fuzzy_ctl::TrainingBudget;
use crate::zoo::{Controller, ControllerZoo, OptimizerController, StaticController};

/// Contestant scheme labels, in fixed scoring and emission order.
pub const SCHEMES: [&str; 6] = ["static", "exhaustive", "fuzzy", "nn-table", "tree", "mlp"];

/// Index of the reference contestant (the exhaustive oracle at the
/// sensed temperature) within [`SCHEMES`].
const REF: usize = 1;

/// Accuracy accumulator for one scheme on one population.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Acc {
    decisions: u64,
    fdelta_sum: f64,
    exact: u64,
    perf_rel_sum: f64,
}

impl Acc {
    fn add(&mut self, other: &Acc) {
        self.decisions += other.decisions;
        self.fdelta_sum += other.fdelta_sum;
        self.exact += other.exact;
        self.perf_rel_sum += other.perf_rel_sum;
    }

    fn mean_fdelta(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.fdelta_sum / self.decisions as f64
        }
    }

    fn exact_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.exact as f64 / self.decisions as f64
        }
    }

    fn mean_perf_rel(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.perf_rel_sum / self.decisions as f64
        }
    }
}

/// One scheme's tournament scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeScore {
    /// Scheme label (one of [`SCHEMES`]).
    pub scheme: &'static str,
    /// Decisions scored on the training population.
    pub decisions: u64,
    /// Mean `|f - f_exhaustive|` on the training population, GHz.
    pub mean_abs_fdelta_ghz: f64,
    /// Fraction of decisions matching the oracle's frequency exactly.
    pub exact_rate: f64,
    /// Mean performance relative to the oracle's decision.
    pub mean_perf_rel: f64,
    /// Decisions scored on the held-out population.
    pub holdout_decisions: u64,
    /// Mean `|f - f_exhaustive|` on held-out chips, GHz.
    pub holdout_mean_abs_fdelta_ghz: f64,
    /// Exact-match rate on held-out chips.
    pub holdout_exact_rate: f64,
}

/// Scores for every scheme, in [`SCHEMES`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentResult {
    /// One scorecard per contestant, in [`SCHEMES`] order.
    pub scores: Vec<SchemeScore>,
}

impl TournamentResult {
    /// The scorecard for `scheme`, if it competed.
    pub fn score(&self, scheme: &str) -> Option<&SchemeScore> {
        self.scores.iter().find(|s| s.scheme == scheme)
    }

    /// Scorecards ranked best-first: highest holdout exact-match rate,
    /// ties broken by lower holdout frequency error, then by [`SCHEMES`]
    /// order (the sort is stable).
    pub fn ranked(&self) -> Vec<&SchemeScore> {
        let mut out: Vec<&SchemeScore> = self.scores.iter().collect();
        out.sort_by(|a, b| {
            b.holdout_exact_rate
                .total_cmp(&a.holdout_exact_rate)
                .then(a.holdout_mean_abs_fdelta_ghz.total_cmp(&b.holdout_mean_abs_fdelta_ghz))
        });
        out
    }
}

/// Tournament configuration: population sizes, workloads, environment,
/// and the shared training budget.
#[derive(Debug, Clone)]
pub struct Tournament {
    /// Everything §3's models need.
    pub config: EvalConfig,
    /// Training-population chips (each trains its own zoo, then scores
    /// all contestants on itself).
    pub chips: usize,
    /// Held-out chips; chip `h` is driven by the zoo trained on training
    /// chip `h % chips` (round-robin), so no holdout chip is scored by
    /// controllers that saw its variation map.
    pub holdout_chips: usize,
    /// Workloads decided per chip (every phase of each is scored).
    pub workloads: Vec<Workload>,
    /// The environment (capability set) every contestant adapts within.
    pub env: Environment,
    /// Worker threads for the chip-parallel passes (0 = all cores).
    /// Traces are byte-identical for any value.
    pub threads: usize,
    /// Instruction budget for workload profiling (phases scale with it).
    pub profile_budget: u64,
    /// Seed for workload profiling.
    pub profile_seed: u64,
    /// Training budget shared by every learned family.
    pub training: TrainingBudget,
}

impl Tournament {
    /// A tournament over `chips` training chips with campaign-style
    /// defaults: as many holdout chips as training chips, all workloads,
    /// `TS+ASV`, and the default training budget.
    pub fn new(chips: usize) -> Self {
        Self {
            config: EvalConfig::micro08(),
            chips,
            holdout_chips: chips,
            workloads: Workload::all(),
            env: Environment::TS_ASV,
            threads: 0,
            profile_budget: 6_000,
            profile_seed: 5,
            training: TrainingBudget::default(),
        }
    }

    /// Runs both passes and emits one
    /// [`TournamentScore`](Event::TournamentScore) event per scheme (in
    /// [`SCHEMES`] order) plus `controller.tournament.decisions` counts.
    /// Per-decision latency histograms stream to the timing sink when
    /// one is attached.
    pub fn run_traced(&self, tracer: Tracer<'_>) -> TournamentResult {
        let _span = tracer.span("tournament");
        let factory = ChipFactory::new(self.config.clone());
        let profiles = fan_out::profiles(
            &self.workloads,
            self.profile_budget,
            self.profile_seed,
            self.threads,
        );

        // Pass 1: each training chip trains its own zoo and scores all
        // contestants on itself.
        let mut train_total = [Acc::default(); SCHEMES.len()];
        let mut zoos = Vec::with_capacity(self.chips);
        fan_out::ordered(
            0..self.chips,
            self.threads,
            tracer,
            |i, t| {
                let chip = factory.chip(i as u64);
                let zoo = ControllerZoo::train_traced(
                    &self.config,
                    &chip,
                    0,
                    self.env,
                    &self.training,
                    t,
                );
                let accs = self.score_chip(&chip, &zoo, &profiles, t);
                (zoo, accs)
            },
            |_, (zoo, accs), records| {
                tracer.replay(records);
                for (total, acc) in train_total.iter_mut().zip(&accs) {
                    total.add(acc);
                }
                zoos.push(zoo);
                ControlFlow::Continue(())
            },
        )
        .unwrap_or_else(|panic| resume_unwind(panic));

        // Pass 2: held-out chips (disjoint seeds) driven by zoos trained
        // on *other* chips, round-robin.
        let mut holdout_total = [Acc::default(); SCHEMES.len()];
        if !zoos.is_empty() {
            fan_out::ordered(
                0..self.holdout_chips,
                self.threads,
                tracer,
                |h, t| {
                    let chip = factory.chip((self.chips + h) as u64);
                    self.score_chip(&chip, &zoos[h % zoos.len()], &profiles, t)
                },
                |_, accs, records| {
                    tracer.replay(records);
                    for (total, acc) in holdout_total.iter_mut().zip(&accs) {
                        total.add(acc);
                    }
                    ControlFlow::Continue(())
                },
            )
            .unwrap_or_else(|panic| resume_unwind(panic));
        }

        let scores: Vec<SchemeScore> = SCHEMES
            .iter()
            .enumerate()
            .map(|(k, &scheme)| SchemeScore {
                scheme,
                decisions: train_total[k].decisions,
                mean_abs_fdelta_ghz: train_total[k].mean_fdelta(),
                exact_rate: train_total[k].exact_rate(),
                mean_perf_rel: train_total[k].mean_perf_rel(),
                holdout_decisions: holdout_total[k].decisions,
                holdout_mean_abs_fdelta_ghz: holdout_total[k].mean_fdelta(),
                holdout_exact_rate: holdout_total[k].exact_rate(),
            })
            .collect();
        for s in &scores {
            tracer.event(|| Event::TournamentScore {
                scheme: s.scheme,
                decisions: s.decisions,
                mean_abs_fdelta_ghz: s.mean_abs_fdelta_ghz,
                exact_rate: s.exact_rate,
                mean_perf_rel: s.mean_perf_rel,
                holdout_decisions: s.holdout_decisions,
                holdout_mean_abs_fdelta_ghz: s.holdout_mean_abs_fdelta_ghz,
                holdout_exact_rate: s.holdout_exact_rate,
            });
        }
        TournamentResult { scores }
    }

    /// Scores all six contestants on every phase of every profile, on
    /// `chip`'s core 0. The exhaustive contestant's decision doubles as
    /// the reference (so its scores anchor at exact).
    fn score_chip(
        &self,
        chip: &ChipModel,
        zoo: &ControllerZoo,
        profiles: &[WorkloadProfile],
        tracer: Tracer<'_>,
    ) -> [Acc; SCHEMES.len()] {
        let exh = ExhaustiveOptimizer::new();
        let static_c = StaticController::new(&exh);
        let exh_c = OptimizerController::new("exhaustive", &exh);
        let fuzzy_c = OptimizerController::new("fuzzy", &zoo.fuzzy);
        let nn_c = OptimizerController::new("nn-table", &zoo.nn);
        let tree_c = OptimizerController::new("tree", &zoo.tree);
        let mlp_c = OptimizerController::new("mlp", &zoo.mlp);
        let contestants: [&dyn Controller; SCHEMES.len()] =
            [&static_c, &exh_c, &fuzzy_c, &nn_c, &tree_c, &mlp_c];
        let mut accs = [Acc::default(); SCHEMES.len()];
        let core = chip.core(0);
        for profile in profiles {
            for ph in &profile.phases {
                let reference = contestants[REF].decide(
                    &self.config,
                    core,
                    self.env,
                    ph,
                    profile.class,
                    profile.rp_cycles,
                    self.config.th_c,
                    profile.name,
                    ph.index as u64,
                    tracer,
                );
                for (k, c) in contestants.iter().enumerate() {
                    let d = if k == REF {
                        reference.clone()
                    } else {
                        c.decide(
                            &self.config,
                            core,
                            self.env,
                            ph,
                            profile.class,
                            profile.rp_cycles,
                            self.config.th_c,
                            profile.name,
                            ph.index as u64,
                            tracer,
                        )
                    };
                    let acc = &mut accs[k];
                    acc.decisions += 1;
                    acc.fdelta_sum += (d.f_ghz - reference.f_ghz).abs();
                    acc.exact += u64::from(d.f_ghz.to_bits() == reference.f_ghz.to_bits());
                    acc.perf_rel_sum += d.perf_bips / reference.perf_bips;
                    tracer.count(names::CONTROLLER_TOURNAMENT_DECISIONS);
                }
            }
        }
        // One shared oracle serves the static and exhaustive lanes;
        // take_stats drains, so flushing each contestant double-counts
        // nothing.
        for c in contestants {
            c.flush_metrics(tracer);
        }
        accs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_budget;
    use eval_trace::Collector;

    fn small() -> Tournament {
        let mut t = Tournament::new(2);
        t.holdout_chips = 2;
        t.workloads = vec![Workload::by_name("gzip").unwrap(), Workload::by_name("swim").unwrap()];
        t.threads = 1;
        t.profile_budget = 3_000;
        t.training = small_budget();
        t
    }

    #[test]
    fn tournament_scores_all_six_schemes_with_exhaustive_anchored() {
        let t = small();
        let result = t.run_traced(Tracer::noop());
        assert_eq!(result.scores.len(), SCHEMES.len());
        for (score, scheme) in result.scores.iter().zip(SCHEMES) {
            assert_eq!(score.scheme, scheme);
            assert!(score.decisions > 0, "{scheme} scored nothing");
            assert_eq!(
                score.decisions, result.scores[0].decisions,
                "{scheme} scored a different phase count"
            );
            assert!(score.holdout_decisions > 0, "{scheme} skipped the holdout");
            assert!(score.mean_perf_rel > 0.0);
        }
        let exh = result.score("exhaustive").unwrap();
        assert_eq!(exh.exact_rate, 1.0, "the reference must match itself");
        assert_eq!(exh.mean_abs_fdelta_ghz, 0.0);
        assert_eq!(exh.holdout_exact_rate, 1.0);
        assert!((exh.mean_perf_rel - 1.0).abs() < 1e-12);
        // The ranking places the reference first (nothing beats an exact
        // match with itself; ties resolve by SCHEMES order).
        assert_eq!(result.ranked()[0].scheme, "exhaustive");
        // Trained controllers must land within a ladder step or two of
        // the oracle on average — on both populations.
        for scheme in ["fuzzy", "nn-table", "tree", "mlp"] {
            let s = result.score(scheme).unwrap();
            assert!(
                s.mean_abs_fdelta_ghz <= 1.2,
                "{scheme} train fdelta {}",
                s.mean_abs_fdelta_ghz
            );
            assert!(
                s.holdout_mean_abs_fdelta_ghz <= 1.5,
                "{scheme} holdout fdelta {}",
                s.holdout_mean_abs_fdelta_ghz
            );
        }
    }

    #[test]
    fn traces_are_byte_identical_across_thread_counts() {
        let mut t = small();
        let serial = Collector::new();
        t.run_traced(Tracer::new(&serial));
        let serial_jsonl = serial.jsonl();
        assert!(serial_jsonl.contains("tournament-score"));
        for workers in [2usize, 0] {
            t.threads = workers;
            let par = Collector::new();
            let r = t.run_traced(Tracer::new(&par));
            assert_eq!(
                serial_jsonl,
                par.jsonl(),
                "trace drifted at {workers} workers"
            );
            assert_eq!(r.scores.len(), SCHEMES.len());
        }
    }

    #[test]
    fn tournament_trace_carries_scores_counts_and_controller_events() {
        let t = small();
        let collector = Collector::new();
        let result = t.run_traced(Tracer::new(&collector));
        let scores: Vec<Event> = collector
            .events()
            .into_iter()
            .filter(|e| matches!(e, Event::TournamentScore { .. }))
            .collect();
        assert_eq!(scores.len(), SCHEMES.len());
        let reg = collector.registry();
        let total: u64 = result
            .scores
            .iter()
            .map(|s| s.decisions + s.holdout_decisions)
            .sum();
        assert_eq!(reg.counter(names::CONTROLLER_TOURNAMENT_DECISIONS), total);
        // Per-scheme decision counters cover both populations too.
        assert_eq!(
            reg.counter(names::DECISION_COUNT_MLP),
            result.score("mlp").map(|s| s.decisions + s.holdout_decisions).unwrap()
        );
        // The zoo trainer left its fingerprints: fuzzy parity events plus
        // the learned-bank counter (3 learned families per fuzzy bank).
        let fuzzy_banks = reg.counter(names::FUZZY_CONTROLLERS_TRAINED);
        assert!(fuzzy_banks > 0);
        assert_eq!(reg.counter(names::CONTROLLER_ZOO_TRAINED), 3 * fuzzy_banks);
    }
}
