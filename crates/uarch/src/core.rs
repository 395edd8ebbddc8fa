//! Trace-driven out-of-order core model.
//!
//! A deliberately compact but *executing* model of a 3-issue core in the
//! style of the AMD Athlon 64 configuration of Figure 7(a): ROB, separate
//! integer/FP issue queues (resizable to 3/4 capacity), a load/store queue,
//! per-class functional units, a gshare front end and the L1/L2/memory
//! hierarchy. It commits the synthetic trace and reports the CPI
//! decomposition the EVAL performance model (Equation 5) needs.

use std::collections::VecDeque;

use crate::bpred::Gshare;
use crate::cache::{AccessOutcome, Hierarchy};
use crate::insn::{Instruction, Kind};

/// Issue-queue sizing — the paper's *Shift* microarchitecture technique
/// operates the queues at either full or 3/4 capacity (§3.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueSize {
    /// Full-sized queues: 68-entry integer, 32-entry FP (Figure 7(a)).
    Full,
    /// Downsized to 3/4: 51-entry integer, 24-entry FP.
    ThreeQuarters,
}

/// Static configuration of the core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Fetch/dispatch/commit width.
    pub width: usize,
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Full-size integer issue-queue capacity.
    pub int_queue: usize,
    /// Full-size FP issue-queue capacity.
    pub fp_queue: usize,
    /// Load/store queue capacity.
    pub lsq: usize,
    /// Current issue-queue sizing.
    pub queue_size: QueueSize,
    /// Whether FU replication's extra pipeline stage is present (§3.3.1:
    /// lengthens the branch-misprediction and load-misspeculation loops by
    /// one cycle).
    pub extra_fu_stage: bool,
    /// Front-end depth in cycles (redirect penalty base).
    pub frontend_depth: u32,
    /// Miss-status holding registers: maximum L2 misses outstanding at
    /// once. `None` models unlimited memory-level parallelism (the
    /// default, used by the evaluation); `Some(n)` throttles it.
    pub mshrs: Option<usize>,
}

impl CoreConfig {
    /// The evaluation configuration of Figure 7(a).
    pub fn micro08() -> Self {
        Self {
            width: 3,
            rob_size: 128,
            int_queue: 68,
            fp_queue: 32,
            lsq: 32,
            queue_size: QueueSize::Full,
            extra_fu_stage: false,
            frontend_depth: 12,
            mshrs: None,
        }
    }

    /// Effective integer-queue capacity under the current sizing.
    pub fn int_queue_effective(&self) -> usize {
        match self.queue_size {
            QueueSize::Full => self.int_queue,
            QueueSize::ThreeQuarters => self.int_queue * 3 / 4,
        }
    }

    /// Effective FP-queue capacity under the current sizing.
    pub fn fp_queue_effective(&self) -> usize {
        match self.queue_size {
            QueueSize::Full => self.fp_queue,
            QueueSize::ThreeQuarters => self.fp_queue * 3 / 4,
        }
    }

    /// Branch-misprediction penalty in cycles (also the Diva recovery
    /// penalty `rp`: "recovery involves taking the result from the checker,
    /// flushing the pipeline, and restarting" — §3.1).
    pub fn branch_penalty(&self) -> u32 {
        self.frontend_depth + u32::from(self.extra_fu_stage)
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::micro08()
    }
}

/// Counters accumulated by a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoreStats {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Cycles where commit was blocked by an L2-missing load at the ROB
    /// head — the non-overlapped memory penalty (`mr * mp` of Equation 5).
    pub mem_stall_cycles: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L1 data-cache accesses.
    pub l1d_accesses: u64,
    /// Committed counts per [`Kind`] in declaration order.
    pub kind_counts: [u64; 7],
    /// Conditional branches seen.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Sum of integer-issue-queue occupancy over cycles (for utilization).
    pub int_q_occupancy: u64,
    /// Sum of FP-issue-queue occupancy over cycles.
    pub fp_q_occupancy: u64,
}

impl CoreStats {
    /// Total CPI.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }

    /// Computation CPI: cycles not attributable to L2-miss stalls,
    /// per instruction (the `CPIcomp` of Equation 5 — includes L1 misses
    /// that hit in L2).
    pub fn cpi_comp(&self) -> f64 {
        (self.cycles - self.mem_stall_cycles) as f64 / self.instructions.max(1) as f64
    }

    /// L2 miss rate in misses per instruction (`mr`).
    pub fn mr(&self) -> f64 {
        self.l2_misses as f64 / self.instructions.max(1) as f64
    }

    /// Observed non-overlapped L2 miss penalty in cycles (`mp`), 0 if no
    /// misses occurred.
    pub fn mp_cycles(&self) -> f64 {
        if self.l2_misses == 0 {
            0.0
        } else {
            self.mem_stall_cycles as f64 / self.l2_misses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    kind: Kind,
    dep1: u64, // absolute seq of producer, u64::MAX = none
    dep2: u64,
    issued: bool,
    finish: u64,
    outcome: Option<AccessOutcome>,
    addr: u64,
    in_queue: bool,
}

/// The out-of-order core simulator.
///
/// Owns its branch predictor and cache hierarchy so that state persists
/// across [`OooCore::run`] calls (warm-up, then measurement).
#[derive(Debug, Clone)]
pub struct OooCore {
    config: CoreConfig,
    hierarchy: Hierarchy,
    gshare: Gshare,
    cycle: u64,
    next_seq: u64,
    front_seq: u64,
    rob: VecDeque<RobEntry>,
    int_q_used: usize,
    fp_q_used: usize,
    lsq_used: usize,
    fetch_resume: u64,
    stall_branch: Option<u64>,
}

impl OooCore {
    /// Creates a core with cold caches and an untrained predictor.
    pub fn new(config: CoreConfig) -> Self {
        Self {
            config,
            hierarchy: Hierarchy::new(),
            gshare: Gshare::default_config(),
            cycle: 0,
            next_seq: 0,
            front_seq: 0,
            rob: VecDeque::with_capacity(config.rob_size),
            int_q_used: 0,
            fp_q_used: 0,
            lsq_used: 0,
            fetch_resume: 0,
            stall_branch: None,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> CoreConfig {
        self.config
    }

    /// Architecturally pre-fills the caches with `addrs` (one access per
    /// address, in order) without simulating cycles. Used to bring a
    /// phase's resident working set into the hierarchy so measurements see
    /// steady-state miss rates instead of compulsory cold misses.
    pub fn warm_caches<I: IntoIterator<Item = u64>>(&mut self, addrs: I) {
        for a in addrs {
            let _ = self.hierarchy.access(a);
        }
    }

    fn dep_ready(&self, dep: u64) -> bool {
        if dep == u64::MAX || dep < self.front_seq {
            return true;
        }
        let idx = (dep - self.front_seq) as usize;
        match self.rob.get(idx) {
            Some(e) => e.issued && e.finish <= self.cycle,
            None => true,
        }
    }

    /// Runs until `budget` instructions commit or the trace ends, and
    /// returns the statistics for this window only.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn run<I: Iterator<Item = Instruction>>(
        &mut self,
        trace: &mut std::iter::Peekable<I>,
        budget: u64,
    ) -> CoreStats {
        assert!(budget > 0, "instruction budget must be non-zero");
        let mut stats = CoreStats::default();
        let start_l2 = self.hierarchy.l2_misses();
        let start_l1 = self.hierarchy.l1_stats().0;

        while stats.instructions < budget {
            if self.rob.is_empty() && trace.peek().is_none() {
                break;
            }

            // --- commit ---
            let mut committed = 0;
            while committed < self.config.width && stats.instructions < budget {
                let ready = matches!(
                    self.rob.front(),
                    Some(e) if e.issued && e.finish <= self.cycle
                );
                let Some(e) = (if ready { self.rob.pop_front() } else { None }) else {
                    break;
                };
                self.front_seq += 1;
                committed += 1;
                stats.instructions += 1;
                stats.kind_counts[kind_index(e.kind)] += 1;
            }
            if committed == 0 {
                if let Some(e) = self.rob.front() {
                    if e.kind == Kind::Load
                        && e.issued
                        && e.outcome == Some(AccessOutcome::Mem)
                    {
                        stats.mem_stall_cycles += 1;
                    }
                }
            }

            // --- issue ---
            let mut issue_budget = self.config.width;
            let mut int_alu_free = 3;
            let mut int_mul_free = 1;
            let mut fp_add_free = 1;
            let mut fp_mul_free = 1;
            let mut mem_ports_free = 2;
            let front = self.front_seq;
            let cycle = self.cycle;
            for idx in 0..self.rob.len() {
                if issue_budget == 0 {
                    break;
                }
                let (dep1, dep2, issued, kind) = {
                    let e = &self.rob[idx];
                    (e.dep1, e.dep2, e.issued, e.kind)
                };
                if issued {
                    continue;
                }
                let _ = front;
                if !(self.dep_ready(dep1) && self.dep_ready(dep2)) {
                    continue;
                }
                let fu = match kind {
                    Kind::IntAlu | Kind::Branch => &mut int_alu_free,
                    Kind::IntMul => &mut int_mul_free,
                    Kind::FpAdd => &mut fp_add_free,
                    Kind::FpMul => &mut fp_mul_free,
                    Kind::Load | Kind::Store => &mut mem_ports_free,
                };
                if *fu == 0 {
                    continue;
                }
                // MSHR throttle: a load cannot issue if every miss register
                // is busy with an outstanding memory access.
                if kind == Kind::Load {
                    if let Some(limit) = self.config.mshrs {
                        let outstanding = self
                            .rob
                            .iter()
                            .filter(|e| {
                                e.issued
                                    && e.outcome == Some(AccessOutcome::Mem)
                                    && e.finish > cycle
                            })
                            .count();
                        if outstanding >= limit {
                            continue;
                        }
                    }
                }
                *fu -= 1;
                issue_budget -= 1;
                let e = &mut self.rob[idx];
                e.issued = true;
                if e.in_queue {
                    e.in_queue = false;
                    match e.kind {
                        Kind::FpAdd | Kind::FpMul => self.fp_q_used -= 1,
                        Kind::Load | Kind::Store => {
                            self.lsq_used -= 1;
                            self.int_q_used -= 1;
                        }
                        _ => self.int_q_used -= 1,
                    }
                }
                let latency = match e.kind {
                    Kind::Load => {
                        let outcome = self.hierarchy.access(e.addr);
                        self.rob[idx].outcome = Some(outcome);
                        outcome.latency_cycles()
                    }
                    Kind::Store => {
                        // Store-buffer write: cache state update only.
                        let _ = self.hierarchy.access(e.addr);
                        1
                    }
                    k => k.latency(),
                };
                self.rob[idx].finish = cycle + latency as u64;
            }

            // --- resolve pending redirect ---
            if let Some(seq) = self.stall_branch {
                if seq < self.front_seq {
                    // Branch committed before we noticed; resume now.
                    self.fetch_resume = self.fetch_resume.max(self.cycle);
                    self.stall_branch = None;
                } else {
                    let idx = (seq - self.front_seq) as usize;
                    let e = &self.rob[idx];
                    if e.issued {
                        self.fetch_resume =
                            e.finish + self.config.branch_penalty() as u64;
                        self.stall_branch = None;
                    }
                }
            }

            // --- dispatch ---
            let mut dispatched = 0;
            while dispatched < self.config.width
                && self.rob.len() < self.config.rob_size
                && self.stall_branch.is_none()
                && self.cycle >= self.fetch_resume
            {
                let Some(insn) = trace.peek().copied() else {
                    break;
                };
                let has_slot = match insn.kind {
                    Kind::FpAdd | Kind::FpMul => {
                        self.fp_q_used < self.config.fp_queue_effective()
                    }
                    Kind::Load | Kind::Store => {
                        self.lsq_used < self.config.lsq
                            && self.int_q_used < self.config.int_queue_effective()
                    }
                    _ => self.int_q_used < self.config.int_queue_effective(),
                };
                if !has_slot {
                    break;
                }
                trace.next();
                dispatched += 1;
                let seq = self.next_seq;
                self.next_seq += 1;
                match insn.kind {
                    Kind::FpAdd | Kind::FpMul => self.fp_q_used += 1,
                    Kind::Load | Kind::Store => {
                        self.lsq_used += 1;
                        self.int_q_used += 1;
                    }
                    _ => self.int_q_used += 1,
                }
                let mut mispredicted = false;
                if insn.kind == Kind::Branch {
                    stats.branches += 1;
                    let correct = self.gshare.predict_and_train(insn.bb_id, insn.taken);
                    if !correct {
                        stats.mispredicts += 1;
                        mispredicted = true;
                        self.stall_branch = Some(seq);
                    }
                }
                let to_seq = |d: u32| {
                    if d == 0 || u64::from(d) > seq {
                        u64::MAX
                    } else {
                        seq - u64::from(d)
                    }
                };
                self.rob.push_back(RobEntry {
                    kind: insn.kind,
                    dep1: to_seq(insn.dep1),
                    dep2: to_seq(insn.dep2),
                    issued: false,
                    finish: u64::MAX,
                    outcome: None,
                    addr: insn.addr,
                    in_queue: true,
                });
                if mispredicted {
                    break;
                }
            }

            stats.int_q_occupancy += self.int_q_used as u64;
            stats.fp_q_occupancy += self.fp_q_used as u64;
            self.cycle += 1;
            stats.cycles += 1;
        }

        stats.l2_misses = self.hierarchy.l2_misses() - start_l2;
        stats.l1d_accesses = self.hierarchy.l1_stats().0 - start_l1;
        stats
    }
}

/// Index of a [`Kind`] into [`CoreStats::kind_counts`].
pub(crate) fn kind_index(kind: Kind) -> usize {
    match kind {
        Kind::IntAlu => 0,
        Kind::IntMul => 1,
        Kind::FpAdd => 2,
        Kind::FpMul => 3,
        Kind::Load => 4,
        Kind::Store => 5,
        Kind::Branch => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceGenerator;
    use crate::workload::Workload;

    fn run_workload(name: &str, size: QueueSize, budget: u64) -> CoreStats {
        let w = Workload::by_name(name).unwrap();
        let mut config = CoreConfig::micro08();
        config.queue_size = size;
        let mut core = OooCore::new(config);
        let mut trace = TraceGenerator::new(&w, 11).peekable();
        // Warm up caches and predictor.
        core.run(&mut trace, 5_000);
        core.run(&mut trace, budget)
    }

    #[test]
    fn cpi_is_at_least_one_over_width() {
        let stats = run_workload("crafty", QueueSize::Full, 20_000);
        assert!(stats.cpi() >= 1.0 / 3.0);
        assert!(stats.instructions == 20_000);
    }

    #[test]
    fn memory_bound_workload_has_higher_cpi_and_mr() {
        let mcf = run_workload("mcf", QueueSize::Full, 20_000);
        let crafty = run_workload("crafty", QueueSize::Full, 20_000);
        assert!(
            mcf.cpi() > crafty.cpi(),
            "mcf {} vs crafty {}",
            mcf.cpi(),
            crafty.cpi()
        );
        assert!(mcf.mr() > crafty.mr());
        assert!(mcf.mr() > 0.001, "mcf should miss in L2: mr={}", mcf.mr());
    }

    #[test]
    fn cpi_decomposition_is_consistent() {
        let s = run_workload("swim", QueueSize::Full, 20_000);
        let total = s.cpi();
        let parts = s.cpi_comp() + s.mr() * s.mp_cycles();
        assert!(
            (total - parts).abs() < 1e-9,
            "CPI {total} != comp {} + mem {}",
            s.cpi_comp(),
            s.mr() * s.mp_cycles()
        );
    }

    #[test]
    fn smaller_queue_does_not_help_cpi() {
        for name in ["swim", "mcf", "gcc"] {
            let full = run_workload(name, QueueSize::Full, 20_000);
            let small = run_workload(name, QueueSize::ThreeQuarters, 20_000);
            assert!(
                small.cpi() >= full.cpi() - 0.02,
                "{name}: small {} vs full {}",
                small.cpi(),
                full.cpi()
            );
        }
    }

    #[test]
    fn branchy_workloads_mispredict_more() {
        let gcc = run_workload("gcc", QueueSize::Full, 20_000);
        let swim = run_workload("swim", QueueSize::Full, 20_000);
        let rate = |s: &CoreStats| s.mispredicts as f64 / s.branches.max(1) as f64;
        assert!(
            rate(&gcc) > rate(&swim),
            "gcc {} vs swim {}",
            rate(&gcc),
            rate(&swim)
        );
    }

    #[test]
    fn extra_fu_stage_slows_branchy_code() {
        let w = Workload::by_name("gcc").unwrap();
        let run = |extra: bool| {
            let mut config = CoreConfig::micro08();
            config.extra_fu_stage = extra;
            let mut core = OooCore::new(config);
            let mut trace = TraceGenerator::new(&w, 3).peekable();
            core.run(&mut trace, 5_000);
            core.run(&mut trace, 20_000)
        };
        let base = run(false);
        let extra = run(true);
        assert!(extra.cpi() >= base.cpi());
    }

    #[test]
    fn queue_sizes_follow_figure_7a() {
        let mut c = CoreConfig::micro08();
        assert_eq!(c.int_queue_effective(), 68);
        assert_eq!(c.fp_queue_effective(), 32);
        c.queue_size = QueueSize::ThreeQuarters;
        assert_eq!(c.int_queue_effective(), 51);
        assert_eq!(c.fp_queue_effective(), 24);
    }

    #[test]
    fn stats_are_deterministic() {
        let a = run_workload("vortex", QueueSize::Full, 10_000);
        let b = run_workload("vortex", QueueSize::Full, 10_000);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod mshr_tests {
    use super::*;
    use crate::trace::TraceGenerator;
    use crate::workload::Workload;

    fn run(mshrs: Option<usize>) -> CoreStats {
        let w = Workload::by_name("art").expect("memory-heavy workload");
        let mut core = OooCore::new(CoreConfig {
            mshrs,
            ..CoreConfig::micro08()
        });
        let mut t = TraceGenerator::new(&w, 7).peekable();
        core.run(&mut t, 5_000);
        core.run(&mut t, 20_000)
    }

    #[test]
    fn fewer_mshrs_serialize_misses_and_raise_cpi() {
        let unlimited = run(None);
        let one = run(Some(1));
        assert!(
            one.cpi() > unlimited.cpi(),
            "1 MSHR {} should be slower than unlimited {}",
            one.cpi(),
            unlimited.cpi()
        );
        // With a single MSHR there is no miss overlap: the observed
        // penalty per miss approaches the full round trip.
        assert!(one.mp_cycles() > unlimited.mp_cycles());
    }

    #[test]
    fn generous_mshrs_match_unlimited() {
        let unlimited = run(None);
        let many = run(Some(64));
        assert_eq!(unlimited, many, "64 MSHRs should never be the bottleneck");
    }
}
