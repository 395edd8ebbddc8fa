//! Anchor-seeded thermal solves over the discrete actuator ladders — the
//! operating-point fast path.
//!
//! Every adaptation decision evaluates `(f, Vdd, Vbb)` candidates drawn
//! from the ladders of Figure 7(a), and campaigns revisit the same
//! subsystems across workload phases whose only differences are the
//! sensed activity factor and heat-sink temperature. [`SolveCache`]
//! exploits that structure with **anchor seeding**: the anchor key drops
//! the frequency index, the activity factor and the heat-sink
//! temperature, so there is one anchor per `(params, Vdd, Vbb)` group,
//! solved cold at a fixed *canonical* environment ([`CANONICAL_ALPHA`],
//! [`CANONICAL_TH_C`]) and the mid-ladder frequency. Every lookup whose
//! group already has an anchor predicts its own fixed point from
//! Equation 6 — `TH + Rth * (Pdyn + Psta_anchor)` with the *query's*
//! dynamic power and the anchor's leakage — and converges in 2–4
//! undamped steps from that guess, whether the query came from a
//! neighboring ladder candidate or from a different workload phase
//! entirely.
//!
//! There is no memo of solved points: a repeated lookup solves again from
//! the same seed. Memoizing them cost a map lookup and insert on every
//! probe, while the exhaustive searches almost never ask the same point
//! twice (about 0.1 % of lookups in the golden Figure 10 campaign). The
//! anchor keeps its own canonical solve, so a lookup *at* the canonical
//! point returns that cold result rather than re-solving it.
//!
//! **Order-independence by construction.** The anchor value is solved
//! from the canonical cold start at a canonical environment, so it is a
//! pure function of the anchor key; the seed for any query is derived
//! only from the query key and its anchor's value, never from whatever
//! happened to be solved last. The returned value for a key is therefore
//! a pure function of the key: query order, interleaving across
//! subsystems, repeats and even evictions (the anchor table clears on
//! reaching [`MAX_ENTRIES`]) cannot change any returned value.
//! `tests/hotpath_equivalence.rs` checks this bitwise across the full
//! grid.
//!
//! **Reuse-class accounting.** Lookups whose anchor already exists are
//! hits, classified as `cross_candidate` (anchor created under the same
//! activity factor) or `cross_phase` (anchor created under a different
//! activity factor); only anchor-group cold builds count as misses. The
//! classes flush as `solver.cache.hits.*` metrics and back the
//! `solver.cache.hit_rate` gate in `bench-check`.
//!
//! One cache instance assumes a single [`DeviceParams`] (the per-process
//! technology model, constant across a campaign); device fields are
//! deliberately not part of the anchor key.
//
// lint:hot-path — this module is on the operating-point fast path; the
// no-alloc-in-check rule forbids Vec construction outside tests here.

use std::collections::BTreeMap;

use eval_units::{GHz, Volts};
use eval_variation::DeviceParams;

use crate::ladder::FREQ_LADDER;
use crate::op::OperatingPoint;
use crate::params::{SubsystemPowerParams, ThermalEnvironment};
use crate::solve::{
    cold_start_c, solve_thermal_seeded, SolveStats, ThermalRunaway, ThermalSolution, T_RUNAWAY_C,
};

/// Canonical activity factor at which anchors are solved. Phase-agnostic
/// by design: every query of a `(params, Vdd, Vbb)` group seeds from the
/// same anchor regardless of the phase that created it.
pub const CANONICAL_ALPHA: f64 = 0.5;

/// Canonical heat-sink temperature (Celsius) at which anchors are solved.
pub const CANONICAL_TH_C: f64 = 55.0;

/// The environment every anchor is solved in.
const CANONICAL_ENV: ThermalEnvironment = ThermalEnvironment {
    th_c: CANONICAL_TH_C,
    alpha_f: CANONICAL_ALPHA,
};

/// Anchor cap; reaching it clears the anchor table (deterministically,
/// and — because returned values are pure functions of their keys —
/// without any effect on returned values, only on hit rate).
pub const MAX_ENTRIES: usize = 1 << 17;

/// The frequency-ladder index anchors are solved at (mid-ladder, so the
/// anchor's leakage estimate is never more than half the ladder away from
/// any query).
fn anchor_f_idx() -> usize {
    FREQ_LADDER.len() / 2
}

/// Whether a lookup asks for the anchor's own canonical point, by the
/// exact bits of its environment and its ladder index.
fn is_canonical(env: &ThermalEnvironment, f_idx: usize) -> bool {
    f_idx == anchor_f_idx()
        && env.th_c.to_bits() == CANONICAL_TH_C.to_bits()
        && env.alpha_f.to_bits() == CANONICAL_ALPHA.to_bits()
}

/// Anchor key: the subsystem parameters and biases, *without* frequency
/// index, activity factor and heat-sink temperature — the phase-varying
/// dimensions a warm start must survive across.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AnchorKey {
    kdyn: u64,
    ksta: u64,
    rth: u64,
    vt0: u64,
    vdd: u64,
    vbb: u64,
}

impl AnchorKey {
    fn new(params: &SubsystemPowerParams, vdd: Volts, vbb: Volts) -> Self {
        AnchorKey {
            kdyn: params.kdyn_w.to_bits(),
            ksta: params.ksta_nom_w.to_bits(),
            rth: params.rth_c_per_w.to_bits(),
            vt0: params.vt0.to_bits(),
            vdd: vdd.get().to_bits(),
            vbb: vbb.get().to_bits(),
        }
    }
}

/// One anchor-group record. `canonical` is the cold solve at the
/// canonical environment and mid-ladder frequency (a pure function of
/// the anchor key); its leakage seeds every other lookup of the group.
/// `creator_alpha` records which activity factor first built the group —
/// used only to classify later hits as cross-candidate vs cross-phase,
/// never to derive values.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    canonical: Result<ThermalSolution, ThermalRunaway>,
    creator_alpha: u64,
}

/// Hit/miss, reuse-class and solver-effort counters, drained by
/// optimizers into eval-trace metrics (`solver.cache.hits`,
/// `solver.cache.hits.cross_candidate` / `.cross_phase`,
/// `solver.cache.misses`, `solver.iterations`, `solver.slow_convergence`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCacheStats {
    /// Lookups warm-started from an existing anchor
    /// (`cross_candidate + cross_phase`).
    pub hits: u64,
    /// Lookups whose anchor group had to be built cold.
    pub misses: u64,
    /// Anchor-seeded solves whose anchor was created under the same
    /// activity factor (reuse across ladder candidates within a phase).
    pub cross_candidate: u64,
    /// Anchor-seeded solves whose anchor was created under a different
    /// activity factor (reuse across workload phases).
    pub cross_phase: u64,
    /// Total fixed-point iterations across all solver runs.
    pub iterations: u64,
    /// Solves that exhausted the iteration budget (bounded slow
    /// convergence; the last iterate was accepted).
    pub slow_convergence: u64,
}

impl SolveCacheStats {
    /// Merges `other` into `self` (for aggregating across caches).
    pub fn merge(&mut self, other: SolveCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.cross_candidate += other.cross_candidate;
        self.cross_phase += other.cross_phase;
        self.iterations += other.iterations;
        self.slow_convergence += other.slow_convergence;
    }
}

/// The anchor-seeded ladder solver. One instance per optimizer (caches
/// are cheap: an empty `BTreeMap` plus counters).
#[derive(Debug, Clone, Default)]
pub struct SolveCache {
    anchors: BTreeMap<AnchorKey, Anchor>,
    stats: SolveCacheStats,
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters since construction or the last [`take_stats`].
    ///
    /// [`take_stats`]: SolveCache::take_stats
    pub fn stats(&self) -> SolveCacheStats {
        self.stats
    }

    /// Returns and resets the counters (for periodic metric flushes).
    pub fn take_stats(&mut self) -> SolveCacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Runs one seeded solve and books its effort.
    fn solve_seeded(
        &mut self,
        params: &SubsystemPowerParams,
        env: &ThermalEnvironment,
        device: &DeviceParams,
        op: &OperatingPoint,
        seed: f64,
    ) -> Result<ThermalSolution, ThermalRunaway> {
        let mut effort = SolveStats::default();
        let result = solve_thermal_seeded(params, env, op, device, seed, &mut effort);
        self.stats.iterations += u64::from(effort.iterations);
        if effort.slow_convergence {
            self.stats.slow_convergence += 1;
        }
        result
    }

    /// Seed derivation from an anchor: predict the query's fixed point
    /// via Equation 6 with the query's own dynamic power and the anchor's
    /// canonical leakage. Falls back to the canonical cold start when the
    /// anchor ran away or the prediction is out of the solver's domain —
    /// still a pure function of the key either way.
    fn seed_from_anchor(
        params: &SubsystemPowerParams,
        env: &ThermalEnvironment,
        device: &DeviceParams,
        f_idx: usize,
        vdd: Volts,
        anchor: &Anchor,
    ) -> f64 {
        match anchor.canonical {
            Ok(canonical) => {
                let pdyn = params.pdyn_w(env.alpha_f, vdd, GHz::raw(FREQ_LADDER.at(f_idx)));
                let seed = env.th_c + params.rth_c_per_w * (pdyn + canonical.psta_w);
                if seed.is_finite() && seed < T_RUNAWAY_C {
                    seed
                } else {
                    cold_start_c(env, device)
                }
            }
            Err(_) => cold_start_c(env, device),
        }
    }

    /// Builds and stores the anchor for `(params, vdd, vbb)`: one
    /// cold-start solve at the canonical environment and mid-ladder
    /// frequency. A full table clears first.
    fn build_anchor(
        &mut self,
        key: AnchorKey,
        params: &SubsystemPowerParams,
        device: &DeviceParams,
        vdd: Volts,
        vbb: Volts,
        creator_alpha: u64,
    ) -> Anchor {
        let op = OperatingPoint::raw(FREQ_LADDER.at(anchor_f_idx()), vdd.get(), vbb.get());
        let anchor = Anchor {
            canonical: self.solve_seeded(
                params,
                &CANONICAL_ENV,
                device,
                &op,
                cold_start_c(&CANONICAL_ENV, device),
            ),
            creator_alpha,
        };
        if self.anchors.len() >= MAX_ENTRIES {
            self.anchors.clear();
        }
        self.anchors.insert(key, anchor);
        anchor
    }

    /// Solves the thermal fixed point at frequency-ladder index `f_idx`
    /// and biases `(vdd, vbb)`, seeded from the group's anchor.
    ///
    /// Returns exactly what [`crate::solve_thermal`] would return for the
    /// same operating point up to the seed-independence tolerance of the
    /// solver; for a given key the returned bits never depend on what was
    /// queried before.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalRunaway`] when the operating point diverges
    /// thermally.
    ///
    /// # Panics
    ///
    /// Panics if `f_idx` is outside the frequency ladder.
    pub fn solve_ladder(
        &mut self,
        params: &SubsystemPowerParams,
        env: &ThermalEnvironment,
        device: &DeviceParams,
        f_idx: usize,
        vdd: Volts,
        vbb: Volts,
    ) -> Result<ThermalSolution, ThermalRunaway> {
        let key = AnchorKey::new(params, vdd, vbb);
        let anchor = match self.anchors.get(&key) {
            Some(&anchor) => {
                if anchor.creator_alpha == env.alpha_f.to_bits() {
                    self.stats.cross_candidate += 1;
                } else {
                    self.stats.cross_phase += 1;
                }
                self.stats.hits += 1;
                anchor
            }
            None => {
                self.stats.misses += 1;
                self.build_anchor(key, params, device, vdd, vbb, env.alpha_f.to_bits())
            }
        };
        // The query *is* the canonical point: the anchor holds its cold
        // solve.
        if is_canonical(env, f_idx) {
            return anchor.canonical;
        }
        let seed = Self::seed_from_anchor(params, env, device, f_idx, vdd, &anchor);
        let op = OperatingPoint::raw(FREQ_LADDER.at(f_idx), vdd.get(), vbb.get());
        self.solve_seeded(params, env, device, &op, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SubsystemPowerParams {
        SubsystemPowerParams {
            kdyn_w: 0.4,
            ksta_nom_w: 0.15,
            rth_c_per_w: 6.0,
            vt0: 0.150,
        }
    }

    fn env() -> ThermalEnvironment {
        ThermalEnvironment {
            th_c: 55.0,
            alpha_f: 0.8,
        }
    }

    #[test]
    fn warm_started_sweep_matches_cold_solver() {
        let device = DeviceParams::micro08();
        let mut cache = SolveCache::new();
        for f_idx in 0..FREQ_LADDER.len() {
            let cached = cache.solve_ladder(
                &params(),
                &env(),
                &device,
                f_idx,
                Volts::raw(1.0),
                Volts::raw(0.0),
            );
            let op = OperatingPoint::raw(FREQ_LADDER.at(f_idx), 1.0, 0.0);
            let cold = crate::solve_thermal(&params(), &env(), &op, &device);
            match (cached, cold) {
                (Ok(a), Ok(b)) => {
                    assert!(
                        (a.t_c - b.t_c).abs() < 1e-5,
                        "idx {f_idx}: warm {} vs cold {}",
                        a.t_c,
                        b.t_c
                    );
                    assert!((a.total_w() - b.total_w()).abs() < 1e-6);
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("idx {f_idx}: warm {a:?} vs cold {b:?} disagree on feasibility"),
            }
        }
    }

    /// Bit-for-bit equality of two solve results (runaways compare by
    /// their reported temperature).
    fn same_bits(
        a: Result<ThermalSolution, ThermalRunaway>,
        b: Result<ThermalSolution, ThermalRunaway>,
    ) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                [a.t_c, a.vt, a.pdyn_w, a.psta_w].map(f64::to_bits)
                    == [b.t_c, b.vt, b.pdyn_w, b.psta_w].map(f64::to_bits)
            }
            (Err(a), Err(b)) => a.t_c.to_bits() == b.t_c.to_bits(),
            _ => false,
        }
    }

    #[test]
    fn second_lookup_hits_and_is_bitwise_identical() {
        let device = DeviceParams::micro08();
        let mut cache = SolveCache::new();
        let first = cache.solve_ladder(&params(), &env(), &device, 7, Volts::raw(1.1), Volts::raw(0.1));
        assert!(first.is_ok(), "feasible point");
        let stats = cache.stats();
        // One anchor-group build covers the first lookup entirely.
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 1);
        assert!(stats.iterations > 0);

        // The repeat solves again from the same anchor seed: a hit, the
        // same bits, and solver effort of its own.
        let second = cache.solve_ladder(&params(), &env(), &device, 7, Volts::raw(1.1), Volts::raw(0.1));
        let again = cache.stats();
        assert_eq!((again.hits, again.cross_candidate, again.misses), (1, 1, 1));
        assert!(again.iterations > stats.iterations);
        assert!(same_bits(first, second), "{first:?} vs {second:?}");
    }

    #[test]
    fn ladder_sweep_reuses_one_anchor_across_candidates() {
        let device = DeviceParams::micro08();
        let mut cache = SolveCache::new();
        let n = FREQ_LADDER.len();
        for f_idx in 0..n {
            let _ = cache.solve_ladder(
                &params(),
                &env(),
                &device,
                f_idx,
                Volts::raw(1.0),
                Volts::raw(0.0),
            );
        }
        let stats = cache.stats();
        // One cold build for the whole (params, vdd, vbb) group; every
        // other candidate warm-starts off it.
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.cross_candidate as usize, n - 1);
        assert_eq!(stats.cross_phase, 0);
        assert_eq!(stats.hits, stats.cross_candidate + stats.cross_phase);
    }

    #[test]
    fn phase_change_still_hits_the_anchor() {
        let device = DeviceParams::micro08();
        let mut cache = SolveCache::new();
        // A synthetic two-phase workload: same subsystem and biases,
        // different activity and heat-sink temperature.
        let phase_a = ThermalEnvironment {
            th_c: 55.0,
            alpha_f: 0.3,
        };
        let phase_b = ThermalEnvironment {
            th_c: 61.0,
            alpha_f: 0.9,
        };
        for f_idx in [8, 16, 24] {
            let _ = cache.solve_ladder(&params(), &phase_a, &device, f_idx, Volts::raw(1.05), Volts::raw(-0.1));
        }
        let after_a = cache.stats();
        assert_eq!(after_a.misses, 1);
        for f_idx in [8, 16, 24] {
            let _ = cache.solve_ladder(&params(), &phase_b, &device, f_idx, Volts::raw(1.05), Volts::raw(-0.1));
        }
        let stats = cache.stats();
        // Phase B pays no new cold build: all three lookups are
        // cross-phase anchor hits.
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.cross_phase, 3);
        // And the phase-B answers match the from-cold solver.
        for f_idx in [8, 16, 24] {
            let cached = cache
                .solve_ladder(&params(), &phase_b, &device, f_idx, Volts::raw(1.05), Volts::raw(-0.1))
                .expect("feasible");
            let op = OperatingPoint::raw(FREQ_LADDER.at(f_idx), 1.05, -0.1);
            let cold = crate::solve_thermal(&params(), &phase_b, &op, &device).expect("feasible");
            assert!((cached.t_c - cold.t_c).abs() < 1e-5, "idx {f_idx}");
        }
    }

    #[test]
    fn query_order_cannot_change_values() {
        let device = DeviceParams::micro08();
        // Forward sweep vs reverse sweep vs fresh-per-point: identical bits.
        let mut forward = SolveCache::new();
        let mut reverse = SolveCache::new();
        let n = FREQ_LADDER.len();
        let fwd: Vec<_> = (0..n)
            .map(|i| {
                forward.solve_ladder(&params(), &env(), &device, i, Volts::raw(1.0), Volts::raw(0.0))
            })
            .collect();
        let rev: Vec<_> = (0..n)
            .rev()
            .map(|i| {
                reverse.solve_ladder(&params(), &env(), &device, i, Volts::raw(1.0), Volts::raw(0.0))
            })
            .collect();
        for i in 0..n {
            let a = fwd[i].expect("feasible");
            let b = rev[n - 1 - i].expect("feasible");
            assert_eq!(a.t_c.to_bits(), b.t_c.to_bits(), "index {i}");
            assert_eq!(a.psta_w.to_bits(), b.psta_w.to_bits(), "index {i}");
        }
    }

    #[test]
    fn canonical_point_is_answered_by_its_own_anchor_build() {
        let device = DeviceParams::micro08();
        let canon = ThermalEnvironment {
            th_c: CANONICAL_TH_C,
            alpha_f: CANONICAL_ALPHA,
        };
        let f_idx = FREQ_LADDER.len() / 2;
        let (vdd, vbb) = (Volts::raw(1.05), Volts::raw(0.05));
        let op = OperatingPoint::raw(FREQ_LADDER.at(f_idx), vdd.get(), vbb.get());
        let cold = crate::solve_thermal(&params(), &canon, &op, &device);
        assert!(cold.is_ok(), "feasible point");
        let mut cache = SolveCache::new();
        let first = cache.solve_ladder(&params(), &canon, &device, f_idx, vdd, vbb);
        // The anchor build is the query's own solve: one miss, no hit,
        // and the cold solver's bits.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert!(same_bits(first, cold), "{first:?} vs {cold:?}");

        // A repeat is a hit on the anchor and still returns the cold
        // canonical solve, not a warm re-solve of it.
        let again = cache.solve_ladder(&params(), &canon, &device, f_idx, vdd, vbb);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.cross_candidate, stats.misses), (1, 1, 1));
        assert!(same_bits(again, cold), "{again:?} vs {cold:?}");

        // So does a canonical lookup in a group whose anchor another
        // phase built: the answer does not depend on who came first.
        let (vdd, vbb) = (Volts::raw(0.95), Volts::raw(-0.05));
        let op = OperatingPoint::raw(FREQ_LADDER.at(f_idx), vdd.get(), vbb.get());
        let cold = crate::solve_thermal(&params(), &canon, &op, &device);
        let mut cache = SolveCache::new();
        let _ = cache.solve_ladder(&params(), &env(), &device, 3, vdd, vbb);
        let later = cache.solve_ladder(&params(), &canon, &device, f_idx, vdd, vbb);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.cross_phase, stats.misses), (1, 1, 1));
        assert!(same_bits(later, cold), "{later:?} vs {cold:?}");
    }

    #[test]
    fn take_stats_resets_counters() {
        let device = DeviceParams::micro08();
        let mut cache = SolveCache::new();
        let _ = cache.solve_ladder(&params(), &env(), &device, 0, Volts::raw(1.0), Volts::raw(0.0));
        let taken = cache.take_stats();
        assert_eq!(taken.misses, 1);
        assert_eq!(cache.stats(), SolveCacheStats::default());

        let mut merged = SolveCacheStats::default();
        merged.merge(taken);
        merged.merge(taken);
        assert_eq!(merged.misses, 2);
    }

    #[test]
    fn runaway_points_are_cached_too() {
        let device = DeviceParams::micro08();
        let bad = SubsystemPowerParams {
            kdyn_w: 2.0,
            ksta_nom_w: 5.0,
            rth_c_per_w: 80.0,
            vt0: 0.10,
        };
        let hot = ThermalEnvironment {
            th_c: 70.0,
            alpha_f: 1.0,
        };
        let mut cache = SolveCache::new();
        let top = FREQ_LADDER.len() - 1;
        let first = cache.solve_ladder(&bad, &hot, &device, top, Volts::raw(1.2), Volts::raw(0.5));
        assert!(first.is_err());
        let misses = cache.stats().misses;
        // The anchor (itself a runaway) stays cached: the repeat is a
        // hit and runs away at the same temperature.
        let second = cache.solve_ladder(&bad, &hot, &device, top, Volts::raw(1.2), Volts::raw(0.5));
        assert!(same_bits(first, second), "{first:?} vs {second:?}");
        assert_eq!(cache.stats().misses, misses, "second runaway lookup is a hit");
        assert_eq!(cache.stats().hits, 1);
    }
}
