//! Synthetic SPEC-2000-like workloads.
//!
//! The paper evaluates SPECint/SPECfp 2000 binaries under SESC. Those are
//! not redistributable, so this module defines 16 synthetic programs with
//! the published *behavioral* characteristics of their namesakes —
//! instruction mix, dependency structure (ILP), working-set/miss behaviour,
//! branch predictability — organized into phases. What the adaptation layer
//! consumes (per-phase `CPIcomp`, `mr`, activity factors) is produced by
//! actually running these programs through the out-of-order core model.

/// Integer vs floating-point program class — decides which issue queue and
/// functional unit the EVAL microarchitecture techniques act on (§4.1:
/// "the last two outputs apply to integer or FP units depending on the type
/// of application running").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// SPECint-like.
    Int,
    /// SPECfp-like.
    Fp,
}

/// One program phase: a stationary behaviour regime lasting `instructions`
/// dynamic instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Instruction-mix weights (need not sum to 1; they are normalized):
    /// int ALU, int multiply, FP add, FP multiply, load, store, branch.
    pub mix: [f64; 7],
    /// Mean register-dependency distance in instructions; larger = more ILP.
    pub dep_mean: f64,
    /// Probability that a source operand has no in-flight producer.
    pub dep_free: f64,
    /// Hot working set in 64 B lines (L1-resident if small).
    pub hot_lines: u64,
    /// Warm working set in lines (typically L2-resident).
    pub warm_lines: u64,
    /// Fraction of memory accesses that stream through memory (L2 misses).
    pub stream_frac: f64,
    /// Fraction of (non-streaming) accesses that hit the hot set.
    pub hot_frac: f64,
    /// Branch randomness: 0 = perfectly biased branches, 1 = coin flips.
    pub branch_entropy: f64,
    /// First static basic-block id of this phase's code region.
    pub bb_base: u32,
    /// Number of distinct basic blocks in the region.
    pub bb_count: u32,
    /// Phase length in dynamic instructions.
    pub instructions: u64,
}

impl PhaseSpec {
    /// Base byte address of this phase's data footprint. Phases use
    /// disjoint address regions derived from their code region.
    pub fn footprint_base(&self) -> u64 {
        u64::from(self.bb_base) << 24
    }

    /// Byte address of hot-set line `line` (`line < hot_lines`).
    pub fn hot_addr(&self, line: u64) -> u64 {
        self.footprint_base() + line * 64
    }

    /// Byte address of warm-set line `line` (`line < warm_lines`).
    pub fn warm_addr(&self, line: u64) -> u64 {
        self.footprint_base() + (self.hot_lines + line) * 64
    }

    /// All resident lines of this phase's footprint (hot then warm), for
    /// warming caches before measurement.
    pub fn footprint(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.hot_lines)
            .map(|l| self.hot_addr(l))
            .chain((0..self.warm_lines).map(|l| self.warm_addr(l)))
    }

    /// A balanced integer phase used as a template.
    fn int_template(bb_base: u32, instructions: u64) -> Self {
        Self {
            mix: [0.42, 0.02, 0.0, 0.0, 0.24, 0.12, 0.20],
            dep_mean: 6.0,
            dep_free: 0.25,
            hot_lines: 512,
            warm_lines: 6_000,
            stream_frac: 0.001,
            hot_frac: 0.90,
            branch_entropy: 0.15,
            bb_base,
            bb_count: 24,
            instructions,
        }
    }

    /// A balanced floating-point phase used as a template.
    fn fp_template(bb_base: u32, instructions: u64) -> Self {
        Self {
            mix: [0.20, 0.01, 0.22, 0.16, 0.26, 0.10, 0.05],
            dep_mean: 12.0,
            dep_free: 0.35,
            hot_lines: 512,
            warm_lines: 8_000,
            stream_frac: 0.004,
            hot_frac: 0.85,
            branch_entropy: 0.03,
            bb_base,
            bb_count: 12,
            instructions,
        }
    }
}

/// A named synthetic workload: a class plus a phase sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// SPEC-2000-style name (e.g. `"swim"`).
    pub name: &'static str,
    /// Integer or floating point.
    pub class: WorkloadClass,
    /// The phase sequence, executed in order.
    pub phases: Vec<PhaseSpec>,
}

impl Workload {
    /// All 16 workloads (8 SPECint-like, 8 SPECfp-like).
    pub fn all() -> Vec<Workload> {
        vec![
            // ---- SPECint-like ----
            Self::gzip(),
            Self::gcc(),
            Self::mcf(),
            Self::crafty(),
            Self::parser(),
            Self::bzip2(),
            Self::twolf(),
            Self::vortex(),
            // ---- SPECfp-like ----
            Self::swim(),
            Self::mgrid(),
            Self::applu(),
            Self::mesa(),
            Self::art(),
            Self::equake(),
            Self::ammp(),
            Self::sixtrack(),
        ]
    }

    /// Looks a workload up by name among [`Workload::all`].
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// Total dynamic instructions over all phases.
    pub fn total_instructions(&self) -> u64 {
        self.phases.iter().map(|p| p.instructions).sum()
    }

    fn gzip() -> Workload {
        // Compression: regular loops, small working set, some streaming I/O.
        let mut compress = PhaseSpec::int_template(100, 60_000);
        compress.dep_mean = 5.0;
        compress.branch_entropy = 0.10;
        let mut io = PhaseSpec::int_template(140, 30_000);
        io.stream_frac = 0.006;
        io.mix = [0.30, 0.01, 0.0, 0.0, 0.34, 0.18, 0.17];
        Workload {
            name: "gzip",
            class: WorkloadClass::Int,
            phases: vec![compress, io],
        }
    }

    fn gcc() -> Workload {
        // Compiler: very branchy, large instruction footprint, pointer data.
        let mut parse = PhaseSpec::int_template(200, 40_000);
        parse.mix = [0.38, 0.01, 0.0, 0.0, 0.26, 0.10, 0.25];
        parse.branch_entropy = 0.35;
        parse.bb_count = 48;
        parse.dep_mean = 4.0;
        let mut optimize = PhaseSpec::int_template(260, 40_000);
        optimize.warm_lines = 9_000;
        optimize.hot_frac = 0.80;
        optimize.branch_entropy = 0.25;
        optimize.bb_count = 40;
        Workload {
            name: "gcc",
            class: WorkloadClass::Int,
            phases: vec![parse, optimize],
        }
    }

    fn mcf() -> Workload {
        // Network simplex: pointer chasing, giant working set, low ILP.
        let mut chase = PhaseSpec::int_template(300, 50_000);
        chase.mix = [0.30, 0.01, 0.0, 0.0, 0.38, 0.08, 0.23];
        chase.dep_mean = 2.5;
        chase.dep_free = 0.10;
        chase.stream_frac = 0.035;
        chase.hot_frac = 0.55;
        chase.warm_lines = 15_000;
        let mut relax = PhaseSpec::int_template(340, 30_000);
        relax.stream_frac = 0.015;
        relax.dep_mean = 3.0;
        Workload {
            name: "mcf",
            class: WorkloadClass::Int,
            phases: vec![chase, relax],
        }
    }

    fn crafty() -> Workload {
        // Chess: compute-bound, branchy, tiny data working set.
        let mut search = PhaseSpec::int_template(400, 60_000);
        search.mix = [0.50, 0.02, 0.0, 0.0, 0.20, 0.08, 0.20];
        search.hot_lines = 256;
        search.warm_lines = 2_048;
        search.stream_frac = 0.0003;
        search.branch_entropy = 0.30;
        search.dep_mean = 5.0;
        let mut evaluate = PhaseSpec::int_template(430, 30_000);
        evaluate.mix = [0.55, 0.04, 0.0, 0.0, 0.18, 0.06, 0.17];
        evaluate.branch_entropy = 0.20;
        Workload {
            name: "crafty",
            class: WorkloadClass::Int,
            phases: vec![search, evaluate],
        }
    }

    fn parser() -> Workload {
        // NLP: branchy, irregular small structures.
        let mut tokenize = PhaseSpec::int_template(500, 30_000);
        tokenize.branch_entropy = 0.30;
        tokenize.bb_count = 36;
        let mut link = PhaseSpec::int_template(540, 50_000);
        link.dep_mean = 3.5;
        link.warm_lines = 8_000;
        link.branch_entropy = 0.25;
        Workload {
            name: "parser",
            class: WorkloadClass::Int,
            phases: vec![tokenize, link],
        }
    }

    fn bzip2() -> Workload {
        let mut sort = PhaseSpec::int_template(600, 50_000);
        sort.mix = [0.44, 0.02, 0.0, 0.0, 0.26, 0.10, 0.18];
        sort.warm_lines = 8_000;
        sort.hot_frac = 0.75;
        sort.branch_entropy = 0.22;
        let mut huffman = PhaseSpec::int_template(640, 30_000);
        huffman.hot_lines = 384;
        huffman.branch_entropy = 0.12;
        Workload {
            name: "bzip2",
            class: WorkloadClass::Int,
            phases: vec![sort, huffman],
        }
    }

    fn twolf() -> Workload {
        // Place & route: moderate miss rate, moderate branches.
        let mut place = PhaseSpec::int_template(700, 40_000);
        place.warm_lines = 9_000;
        place.hot_frac = 0.70;
        place.stream_frac = 0.005;
        let mut route = PhaseSpec::int_template(740, 40_000);
        route.dep_mean = 4.0;
        route.branch_entropy = 0.25;
        Workload {
            name: "twolf",
            class: WorkloadClass::Int,
            phases: vec![place, route],
        }
    }

    fn vortex() -> Workload {
        // OO database: lots of loads/stores, good predictability.
        let mut query = PhaseSpec::int_template(800, 40_000);
        query.mix = [0.34, 0.01, 0.0, 0.0, 0.30, 0.16, 0.19];
        query.branch_entropy = 0.08;
        let mut update = PhaseSpec::int_template(840, 40_000);
        update.mix = [0.30, 0.01, 0.0, 0.0, 0.28, 0.22, 0.19];
        update.warm_lines = 8_000;
        Workload {
            name: "vortex",
            class: WorkloadClass::Int,
            phases: vec![query, update],
        }
    }

    fn swim() -> Workload {
        // Shallow-water stencils: long vector loops, heavy streaming.
        let mut stencil = PhaseSpec::fp_template(1000, 60_000);
        stencil.stream_frac = 0.030;
        stencil.dep_mean = 16.0;
        stencil.dep_free = 0.45;
        stencil.mix = [0.16, 0.0, 0.26, 0.20, 0.26, 0.09, 0.03];
        let mut reduce = PhaseSpec::fp_template(1020, 30_000);
        reduce.stream_frac = 0.012;
        reduce.dep_mean = 8.0;
        Workload {
            name: "swim",
            class: WorkloadClass::Fp,
            phases: vec![stencil, reduce],
        }
    }

    fn mgrid() -> Workload {
        // Multigrid: compute-heavy, moderate streaming, very regular.
        let mut smooth = PhaseSpec::fp_template(1100, 50_000);
        smooth.stream_frac = 0.010;
        smooth.mix = [0.14, 0.0, 0.30, 0.24, 0.22, 0.07, 0.03];
        let mut restrict = PhaseSpec::fp_template(1120, 30_000);
        restrict.stream_frac = 0.015;
        Workload {
            name: "mgrid",
            class: WorkloadClass::Fp,
            phases: vec![smooth, restrict],
        }
    }

    fn applu() -> Workload {
        let mut sweep = PhaseSpec::fp_template(1200, 50_000);
        sweep.stream_frac = 0.012;
        sweep.dep_mean = 9.0;
        let mut jacobian = PhaseSpec::fp_template(1220, 30_000);
        jacobian.mix = [0.16, 0.0, 0.24, 0.26, 0.24, 0.07, 0.03];
        Workload {
            name: "applu",
            class: WorkloadClass::Fp,
            phases: vec![sweep, jacobian],
        }
    }

    fn mesa() -> Workload {
        // Software rendering: FP + int mix, small working set, few misses.
        let mut raster = PhaseSpec::fp_template(1300, 50_000);
        raster.stream_frac = 0.002;
        raster.hot_frac = 0.93;
        raster.mix = [0.26, 0.01, 0.20, 0.14, 0.24, 0.10, 0.05];
        raster.branch_entropy = 0.08;
        let mut shade = PhaseSpec::fp_template(1320, 30_000);
        shade.mix = [0.20, 0.0, 0.26, 0.20, 0.22, 0.08, 0.04];
        Workload {
            name: "mesa",
            class: WorkloadClass::Fp,
            phases: vec![raster, shade],
        }
    }

    fn art() -> Workload {
        // Neural-net image recognition: notorious L2 thrasher.
        let mut scan = PhaseSpec::fp_template(1400, 50_000);
        scan.stream_frac = 0.045;
        scan.hot_frac = 0.60;
        scan.warm_lines = 15_500;
        scan.dep_mean = 10.0;
        let mut match_phase = PhaseSpec::fp_template(1420, 30_000);
        match_phase.stream_frac = 0.025;
        Workload {
            name: "art",
            class: WorkloadClass::Fp,
            phases: vec![scan, match_phase],
        }
    }

    fn equake() -> Workload {
        // Sparse FEM: indirection (gather) plus dense FP.
        let mut gather = PhaseSpec::fp_template(1500, 40_000);
        gather.stream_frac = 0.020;
        gather.dep_mean = 6.0;
        gather.dep_free = 0.25;
        let mut dense = PhaseSpec::fp_template(1520, 40_000);
        dense.stream_frac = 0.007;
        dense.dep_mean = 12.0;
        Workload {
            name: "equake",
            class: WorkloadClass::Fp,
            phases: vec![gather, dense],
        }
    }

    fn ammp() -> Workload {
        // Molecular dynamics: neighbor lists, FP heavy, moderate misses.
        let mut neighbors = PhaseSpec::fp_template(1600, 40_000);
        neighbors.stream_frac = 0.015;
        neighbors.dep_mean = 7.0;
        let mut forces = PhaseSpec::fp_template(1620, 40_000);
        forces.mix = [0.14, 0.0, 0.28, 0.26, 0.22, 0.06, 0.04];
        forces.dep_mean = 10.0;
        Workload {
            name: "ammp",
            class: WorkloadClass::Fp,
            phases: vec![neighbors, forces],
        }
    }

    fn sixtrack() -> Workload {
        // Particle tracking: almost pure FP compute, tiny working set.
        let mut track = PhaseSpec::fp_template(1700, 60_000);
        track.stream_frac = 0.0005;
        track.hot_frac = 0.95;
        track.hot_lines = 384;
        track.mix = [0.15, 0.0, 0.30, 0.28, 0.18, 0.05, 0.04];
        track.dep_mean = 14.0;
        let mut correct = PhaseSpec::fp_template(1720, 20_000);
        correct.mix = [0.22, 0.01, 0.24, 0.18, 0.22, 0.08, 0.05];
        Workload {
            name: "sixtrack",
            class: WorkloadClass::Fp,
            phases: vec![track, correct],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_workloads_with_unique_names() {
        let all = Workload::all();
        assert_eq!(all.len(), 16);
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn classes_are_balanced() {
        let all = Workload::all();
        let ints = all.iter().filter(|w| w.class == WorkloadClass::Int).count();
        assert_eq!(ints, 8);
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(Workload::by_name("swim").is_some());
        assert!(Workload::by_name("doom").is_none());
        // Only the 16-workload suite is searched.
        assert!(Workload::by_name("vpr").is_none());
    }

    #[test]
    fn every_workload_has_multiple_phases_with_disjoint_bb_ranges() {
        for w in Workload::all() {
            assert!(w.phases.len() >= 2, "{} has too few phases", w.name);
            for pair in w.phases.windows(2) {
                let end = pair[0].bb_base + pair[0].bb_count;
                assert!(
                    pair[1].bb_base >= end,
                    "{}: overlapping bb ranges",
                    w.name
                );
            }
        }
    }

    #[test]
    fn mixes_are_valid_distributions_after_normalization() {
        for w in Workload::all() {
            for p in &w.phases {
                let sum: f64 = p.mix.iter().sum();
                assert!(sum > 0.9 && sum < 1.1, "{}: mix sums to {sum}", w.name);
                assert!(p.mix.iter().all(|&m| m >= 0.0));
                // Int workloads have no FP ops.
                if w.class == WorkloadClass::Int {
                    assert_eq!(p.mix[2], 0.0);
                    assert_eq!(p.mix[3], 0.0);
                }
            }
        }
    }
}
