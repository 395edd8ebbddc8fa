//! Deterministic synthetic instruction traces from workload specs.

use eval_rng::ChaCha12Rng;

use crate::insn::{Instruction, Kind};
use crate::workload::{PhaseSpec, Workload};

const KINDS: [Kind; 7] = [
    Kind::IntAlu,
    Kind::IntMul,
    Kind::FpAdd,
    Kind::FpMul,
    Kind::Load,
    Kind::Store,
    Kind::Branch,
];

/// Streams the dynamic instructions of a workload, phase by phase.
///
/// The stream is a deterministic function of `(workload, seed)`; two
/// generators built identically yield identical traces, which lets the
/// profiler replay the same instructions under different core
/// configurations (full vs 3/4 issue queue).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    phases: Vec<PhaseSpec>,
    rng: ChaCha12Rng,
    phase_idx: usize,
    emitted_in_phase: u64,
    /// Streaming pointer (keeps marching through address space).
    stream_line: u64,
    /// Current basic block and remaining instructions within it.
    current_bb: u32,
    bb_remaining: u32,
}

impl TraceGenerator {
    /// Creates a generator for `workload` seeded with `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        let first_bb = workload.phases[0].bb_base;
        Self {
            phases: workload.phases.clone(),
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0xE7A1_55C0_FFEE_D00D),
            phase_idx: 0,
            emitted_in_phase: 0,
            stream_line: 1 << 32,
            current_bb: first_bb,
            bb_remaining: 0,
        }
    }

    /// Index of the phase the *next* instruction belongs to, if any.
    pub fn current_phase(&self) -> Option<usize> {
        (self.phase_idx < self.phases.len()).then_some(self.phase_idx)
    }

    fn phase(&self) -> &PhaseSpec {
        &self.phases[self.phase_idx]
    }

    fn sample_kind(&mut self) -> Kind {
        let mix = self.phase().mix;
        let total: f64 = mix.iter().sum();
        let mut x = self.rng.gen::<f64>() * total;
        for (k, &w) in KINDS.iter().zip(mix.iter()) {
            if x < w {
                return *k;
            }
            x -= w;
        }
        Kind::IntAlu
    }

    fn sample_dep(&mut self) -> u32 {
        let p = *self.phase();
        if self.rng.gen::<f64>() < p.dep_free {
            return 0;
        }
        // Geometric with the configured mean, clamped to the ROB reach.
        let mean = p.dep_mean.max(1.0);
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        let d = 1.0 + (-u.ln()) * (mean - 1.0).max(0.0);
        (d as u32).clamp(1, 64)
    }

    fn sample_addr(&mut self) -> u64 {
        let p = *self.phase();
        let r: f64 = self.rng.gen();
        if r < p.stream_frac {
            // Streaming: march through fresh lines (guaranteed cold).
            self.stream_line += 1;
            self.stream_line * 64
        } else if self.rng.gen::<f64>() < p.hot_frac {
            // Hot set, offset per phase so phases have distinct footprints.
            p.hot_addr(self.rng.gen_range(0..p.hot_lines.max(1)))
        } else {
            p.warm_addr(self.rng.gen_range(0..p.warm_lines.max(1)))
        }
    }

    fn sample_branch(&mut self, bb: u32) -> bool {
        let p = self.phase();
        // Per-block bias direction from the block id; entropy blends toward
        // a fair coin.
        let bias = if bb.wrapping_mul(2654435761) & 1 == 0 {
            0.95
        } else {
            0.05
        };
        let p_taken = (1.0 - p.branch_entropy) * bias + p.branch_entropy * 0.5;
        self.rng.gen::<f64>() < p_taken
    }

    fn advance_bb(&mut self) {
        let p = *self.phase();
        if self.bb_remaining == 0 {
            self.current_bb = p.bb_base + self.rng.gen_range(0..p.bb_count.max(1));
            self.bb_remaining = self.rng.gen_range(4u32..16);
        } else {
            self.bb_remaining -= 1;
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        while self.phase_idx < self.phases.len() {
            if self.emitted_in_phase >= self.phase().instructions {
                self.phase_idx += 1;
                self.emitted_in_phase = 0;
                if self.phase_idx < self.phases.len() {
                    self.current_bb = self.phase().bb_base;
                    self.bb_remaining = 0;
                }
                continue;
            }
            self.emitted_in_phase += 1;
            self.advance_bb();
            let kind = self.sample_kind();
            let bb_id = self.current_bb;
            let insn = match kind {
                Kind::Load | Kind::Store => Instruction {
                    kind,
                    dep1: self.sample_dep(),
                    dep2: 0,
                    addr: self.sample_addr(),
                    taken: false,
                    bb_id,
                },
                Kind::Branch => {
                    let taken = self.sample_branch(bb_id);
                    if taken {
                        self.bb_remaining = 0; // leave the block
                    }
                    Instruction {
                        kind,
                        dep1: self.sample_dep(),
                        dep2: 0,
                        addr: 0,
                        taken,
                        bb_id,
                    }
                }
                _ => Instruction {
                    kind,
                    dep1: self.sample_dep(),
                    dep2: self.sample_dep(),
                    addr: 0,
                    taken: false,
                    bb_id,
                },
            };
            return Some(insn);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn trace_is_deterministic() {
        let w = Workload::by_name("gzip").unwrap();
        let a: Vec<_> = TraceGenerator::new(&w, 7).take(1000).collect();
        let b: Vec<_> = TraceGenerator::new(&w, 7).take(1000).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGenerator::new(&w, 8).take(1000).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn trace_length_matches_workload() {
        let w = Workload::by_name("swim").unwrap();
        let n = TraceGenerator::new(&w, 1).count() as u64;
        assert_eq!(n, w.total_instructions());
    }

    #[test]
    fn mix_roughly_matches_spec() {
        let w = Workload::by_name("swim").unwrap();
        let phase_len = w.phases[0].instructions as usize;
        let trace: Vec<_> = TraceGenerator::new(&w, 3).take(phase_len).collect();
        let loads = trace.iter().filter(|i| i.kind == Kind::Load).count() as f64;
        let frac = loads / phase_len as f64;
        let want = w.phases[0].mix[4] / w.phases[0].mix.iter().sum::<f64>();
        assert!(
            (frac - want).abs() < 0.02,
            "load fraction {frac}, expected ~{want}"
        );
    }

    #[test]
    fn phases_use_their_own_basic_blocks() {
        let w = Workload::by_name("gcc").unwrap();
        let p0 = &w.phases[0];
        let p1 = &w.phases[1];
        let trace: Vec<_> = TraceGenerator::new(&w, 5).collect();
        let first = &trace[..p0.instructions as usize];
        let second = &trace[p0.instructions as usize..];
        assert!(first
            .iter()
            .all(|i| i.bb_id >= p0.bb_base && i.bb_id < p0.bb_base + p0.bb_count));
        assert!(second
            .iter()
            .all(|i| i.bb_id >= p1.bb_base && i.bb_id < p1.bb_base + p1.bb_count));
    }

    #[test]
    fn fp_workloads_emit_fp_ops_int_ones_do_not() {
        let fp: Vec<_> = TraceGenerator::new(&Workload::by_name("mgrid").unwrap(), 1)
            .take(5000)
            .collect();
        assert!(fp.iter().any(|i| i.kind.is_fp()));
        let int: Vec<_> = TraceGenerator::new(&Workload::by_name("mcf").unwrap(), 1)
            .take(5000)
            .collect();
        assert!(int.iter().all(|i| !i.kind.is_fp()));
    }

    #[test]
    fn streaming_addresses_never_repeat() {
        let w = Workload::by_name("art").unwrap();
        let trace: Vec<_> = TraceGenerator::new(&w, 2).take(20_000).collect();
        let stream_addrs: Vec<_> = trace
            .iter()
            .filter(|i| i.kind.is_mem() && i.addr >= (1 << 32) * 64)
            .map(|i| i.addr)
            .collect();
        assert!(!stream_addrs.is_empty());
        let mut sorted = stream_addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), stream_addrs.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::workload::Workload;
    use proptest::prelude::*;

    proptest! {
        /// Every generated instruction respects the structural invariants:
        /// bounded dependency distances, phase-local basic blocks, and
        /// line-aligned footprint addresses for memory operations.
        #[test]
        fn prop_instructions_are_well_formed(seed in 0u64..500, wl_idx in 0usize..16) {
            let w = &Workload::all()[wl_idx];
            for insn in TraceGenerator::new(w, seed).take(2_000) {
                prop_assert!(insn.dep1 <= 64 && insn.dep2 <= 64);
                let in_some_phase = w.phases.iter().any(|p| {
                    insn.bb_id >= p.bb_base && insn.bb_id < p.bb_base + p.bb_count
                });
                prop_assert!(in_some_phase, "bb {} outside all phases", insn.bb_id);
                if insn.kind.is_mem() {
                    prop_assert_eq!(insn.addr % 64, 0, "addr {:#x} not line-aligned", insn.addr);
                } else {
                    prop_assert_eq!(insn.addr, 0);
                }
            }
        }

        /// Traces never emit FP operations for integer workloads.
        #[test]
        fn prop_int_workloads_have_no_fp(seed in 0u64..200) {
            let w = Workload::by_name("bzip2").expect("exists");
            prop_assert!(TraceGenerator::new(&w, seed)
                .take(3_000)
                .all(|i| !i.kind.is_fp()));
        }
    }
}
