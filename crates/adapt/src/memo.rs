//! One exhaustive-oracle answer per scene per core.
//!
//! Figure 10's environments nest: TS+ASV ⊂ TS+ASV+Q ⊂ TS+ASV+Q+FU and
//! TS+ASV+ABB ⊂ ALL search the same supply and body-bias ladders, so on
//! one core they ask the oracle the same per-subsystem `Freq`/`Power`
//! questions again and again. A [`SceneMemo`] holds the answers of one
//! core, and each pair puts it in front of its own
//! [`ExhaustiveOptimizer`] with a [`MemoOptimizer`]: a question an
//! earlier pair asked returns the stored answer, any other goes to the
//! oracle.
//!
//! The key is exactly what the oracle reads of a scene: the subsystem,
//! whether its own structure variant is the alternate one (the only
//! variant its timing and power parameters depend on), the bits of the
//! sensed `th_c`, `alpha_f` and `rho` and of the error budget, and the
//! environment's `asv` and `abb` (`SceneEval::new` and the ladder
//! options read nothing else of it). A `Power` key also holds the bits
//! of `f_core`. Everything else the oracle reads — the subsystem's
//! per-chip state and the configuration — is fixed for one core of one
//! campaign, so one memo must never serve two cores or two
//! configurations. The oracle's answers are pure functions of the key
//! (its solve cache changes only how fast it answers), so a memoized
//! answer is bit for bit the one a fresh oracle returns.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use eval_core::{EvalConfig, SubsystemId};
use eval_trace::{names, Tracer};

use crate::exhaustive::ExhaustiveOptimizer;
use crate::optimizer::{Optimizer, SubsystemScene};
use crate::teacher::scene_alt;

/// Everything the oracle reads of one scene besides the core's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SceneKey {
    id: SubsystemId,
    alt: bool,
    th_c: u64,
    alpha_f: u64,
    rho: u64,
    pe_budget: u64,
    asv: bool,
    abb: bool,
}

impl SceneKey {
    fn of(scene: &SubsystemScene<'_>) -> Self {
        SceneKey {
            id: scene.state.id(),
            alt: scene_alt(scene),
            th_c: scene.th_c.to_bits(),
            alpha_f: scene.alpha_f.to_bits(),
            rho: scene.rho.to_bits(),
            pe_budget: scene.pe_budget.to_bits(),
            asv: scene.env.asv,
            abb: scene.env.abb,
        }
    }
}

/// An oracle answer and the [`MemoOptimizer`] that stored it.
#[derive(Debug, Clone, Copy)]
struct Answer<V> {
    value: V,
    by: u32,
}

/// Stored answers by question.
type Answers<K, V> = RefCell<BTreeMap<K, Answer<V>>>;

/// The oracle answers seen on one core: `freq_max` per scene, and
/// `power_settings` per scene and core frequency.
#[derive(Debug, Default)]
pub(crate) struct SceneMemo {
    freq: Answers<SceneKey, f64>,
    power: Answers<(SceneKey, u64), (f64, f64)>,
    /// [`MemoOptimizer`]s created over this memo so far.
    optimizers: Cell<u32>,
}

/// An [`ExhaustiveOptimizer`] behind a [`SceneMemo`]. It answers from
/// the memo only the questions an earlier optimizer over the same memo
/// asked; its own repeated questions go back to its oracle, whose solve
/// cache answers them from memoized solves. So one optimizer over a
/// fresh memo asks its oracle exactly what a bare oracle is asked, and
/// the solve cache's counters, which `bench-check` gates, read as they
/// do without the memo; serving its own repeats from the memo as well
/// measured no faster. It counts its hits and misses and flushes them
/// with the oracle's own counters.
pub(crate) struct MemoOptimizer<'a> {
    oracle: &'a ExhaustiveOptimizer,
    memo: &'a SceneMemo,
    /// This optimizer's number among those over `memo`.
    id: u32,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'a> MemoOptimizer<'a> {
    /// Puts `memo` in front of `oracle`. `memo` must hold answers for
    /// the core this optimizer decides for, and nothing else.
    pub(crate) fn new(oracle: &'a ExhaustiveOptimizer, memo: &'a SceneMemo) -> Self {
        let id = memo.optimizers.get();
        memo.optimizers.set(id + 1);
        MemoOptimizer {
            oracle,
            memo,
            id,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// An earlier optimizer's answer for `key`, or `ask()`'s, stored
    /// unless the key is already there.
    fn lookup<K: Ord, V: Copy>(&self, map: &Answers<K, V>, key: K, ask: impl FnOnce() -> V) -> V {
        if let Some(answer) = map.borrow().get(&key).filter(|a| a.by != self.id) {
            self.hits.set(self.hits.get() + 1);
            return answer.value;
        }
        self.misses.set(self.misses.get() + 1);
        let value = ask();
        map.borrow_mut()
            .entry(key)
            .or_insert(Answer { value, by: self.id });
        value
    }
}

impl Optimizer for MemoOptimizer<'_> {
    fn freq_max(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
        self.lookup(&self.memo.freq, SceneKey::of(scene), || {
            self.oracle.freq_max(config, scene)
        })
    }

    fn power_settings(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64) {
        let key = (SceneKey::of(scene), f_core.to_bits());
        self.lookup(&self.memo.power, key, || {
            self.oracle.power_settings(config, scene, f_core)
        })
    }

    fn flush_metrics(&self, tracer: Tracer<'_>) {
        self.oracle.flush_metrics(tracer);
        let (hits, misses) = (self.hits.take(), self.misses.take());
        if hits + misses > 0 {
            tracer.count_n(names::DECISION_MEMO_HITS, hits);
            tracer.count_n(names::DECISION_MEMO_MISSES, misses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teacher::variant_selection_for;
    use crate::test_support::factory;
    use eval_core::{Environment, FREQ_LADDER, N_SUBSYSTEMS};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Over random chips, scenes and Figure-10 environments, asked
        /// in any order through three optimizers over one memo (as a
        /// core's pairs ask), the memoized oracle returns the bare
        /// oracle's `freq_max` and `power_settings` bit for bit. A
        /// question is a hit exactly when another optimizer asked it
        /// first, in any environment with the same ladders.
        #[test]
        fn prop_memoized_answers_equal_the_bare_oracle(
            chip_seed in 1u64..40,
            codes in proptest::collection::vec(0u64..1 << 40, 1..32),
        ) {
            let cfg = factory().config().clone();
            let chip = factory().chip(chip_seed);
            let core = chip.core(0);
            let memo = SceneMemo::default();
            let oracles = [(); 3].map(|()| ExhaustiveOptimizer::new());
            let memoized = oracles.each_ref().map(|o| MemoOptimizer::new(o, &memo));
            // A small grid of sensed inputs, so questions repeat and
            // interleave across subsystems, environments and askers.
            let ths = [45.0, 60.0, cfg.constraints.th_max_c];
            let activity = [(0.2, 0.4), (0.5, 0.6), (0.9, 1.7)];
            let mut first_asker = BTreeMap::new();
            let mut expected_hits = 0u64;
            for mut code in codes {
                let mut digit = |n: usize| {
                    let d = (code % n as u64) as usize;
                    code /= n as u64;
                    d
                };
                let (sub, alt) = (digit(N_SUBSYSTEMS), digit(2) == 1);
                let (env, th, act) = (digit(Environment::FIGURE10.len()), digit(3), digit(3));
                let (f_idx, asker) = (digit(FREQ_LADDER.len()), digit(memoized.len()));
                let env = Environment::FIGURE10[env];
                let state = core.subsystem(SubsystemId::ALL[sub]);
                let scene = SubsystemScene {
                    state,
                    variants: variant_selection_for(state.id(), alt),
                    th_c: ths[th],
                    alpha_f: activity[act].0,
                    rho: activity[act].1,
                    pe_budget: cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS),
                    env,
                };
                let question = (sub, alt && crate::teacher::has_variant(state.id()), env.asv, env.abb, th, act);
                for key in [(question, None), (question, Some(f_idx))] {
                    let first = *first_asker.entry(key).or_insert(asker);
                    expected_hits += u64::from(first != asker);
                }
                let bare = ExhaustiveOptimizer::new();
                let f = FREQ_LADDER.at(f_idx);
                let m = &memoized[asker];
                prop_assert_eq!(
                    m.freq_max(&cfg, &scene).to_bits(),
                    bare.freq_max(&cfg, &scene).to_bits()
                );
                let (vdd, vbb) = m.power_settings(&cfg, &scene, f);
                let (bare_vdd, bare_vbb) = bare.power_settings(&cfg, &scene, f);
                prop_assert_eq!((vdd.to_bits(), vbb.to_bits()), (bare_vdd.to_bits(), bare_vbb.to_bits()));
            }
            let hits: u64 = memoized.iter().map(|m| m.hits.get()).sum();
            prop_assert_eq!(hits, expected_hits);
        }
    }
}
