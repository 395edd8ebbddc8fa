//! The environments of Table 1, plus the ABB-only variants used by
//! Table 2 and the sixteen technique variants of Figure 13.

use std::fmt;

/// A named capability set: which error-tolerance and mitigation techniques
/// are available to the processor.
///
/// # Example
///
/// ```
/// use eval_core::Environment;
/// assert!(Environment::TS.checker && !Environment::TS.asv);
/// assert!(Environment::ALL.abb);
/// // Custom technique subsets are ordinary struct updates:
/// let ts_q = Environment { queue: true, name: "TS+Q", ..Environment::TS };
/// assert!(ts_q.queue && !ts_q.fu_replication);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Environment {
    /// Display name (matches the paper's labels).
    pub name: &'static str,
    /// Timing speculation: the Diva checker is present, so the core may run
    /// past `fvar` and tolerate a non-zero error rate.
    pub checker: bool,
    /// Per-subsystem adaptive supply voltage.
    pub asv: bool,
    /// Per-subsystem adaptive body bias.
    pub abb: bool,
    /// Issue-queue resizing (full vs 3/4).
    pub queue: bool,
    /// Functional-unit replication (normal vs low-slope).
    pub fu_replication: bool,
    /// Whether the chip suffers variation at all (`NoVar` does not).
    pub variation: bool,
}

impl Environment {
    /// 1: plain processor with variation effects.
    pub const BASELINE: Environment = Environment {
        name: "Baseline",
        checker: false,
        asv: false,
        abb: false,
        queue: false,
        fu_replication: false,
        variation: true,
    };

    /// 2: Baseline + Diva checker for timing speculation.
    pub const TS: Environment = Environment {
        name: "TS",
        checker: true,
        ..Self::BASELINE
    };

    /// 3: TS + adaptive supply voltage.
    pub const TS_ASV: Environment = Environment {
        name: "TS+ASV",
        asv: true,
        ..Self::TS
    };

    /// 4: TS + ASV + ABB.
    pub const TS_ASV_ABB: Environment = Environment {
        name: "TS+ASV+ABB",
        abb: true,
        ..Self::TS_ASV
    };

    /// 5: TS + ASV + issue-queue resizing.
    pub const TS_ASV_Q: Environment = Environment {
        name: "TS+ASV+Q",
        queue: true,
        ..Self::TS_ASV
    };

    /// 6: TS + ASV + Q + FU replication.
    pub const TS_ASV_Q_FU: Environment = Environment {
        name: "TS+ASV+Q+FU",
        fu_replication: true,
        ..Self::TS_ASV_Q
    };

    /// 7: everything, including ABB.
    pub const ALL: Environment = Environment {
        name: "ALL",
        abb: true,
        ..Self::TS_ASV_Q_FU
    };

    /// 8: plain processor with no variation effects (the reference).
    pub const NOVAR: Environment = Environment {
        name: "NoVar",
        checker: false,
        asv: false,
        abb: false,
        queue: false,
        fu_replication: false,
        variation: false,
    };

    /// TS + ABB (used in Table 2 and Figure 13 as environment "B").
    pub const TS_ABB: Environment = Environment {
        name: "TS+ABB",
        abb: true,
        ..Self::TS
    };

    /// TS + ABB + ASV (Table 2 / Figure 13 environment "D").
    pub const TS_ABB_ASV: Environment = Environment {
        name: "TS+ABB+ASV",
        abb: true,
        ..Self::TS_ASV
    };

    /// The six adapted environments of Figures 10–12, in plot order.
    pub const FIGURE10: [Environment; 6] = [
        Self::TS,
        Self::TS_ASV,
        Self::TS_ASV_ABB,
        Self::TS_ASV_Q,
        Self::TS_ASV_Q_FU,
        Self::ALL,
    ];

    /// The four voltage environments of Table 2 / Figure 13, in order
    /// (A: TS, B: TS+ABB, C: TS+ASV, D: TS+ABB+ASV).
    pub const TABLE2: [Environment; 4] =
        [Self::TS, Self::TS_ABB, Self::TS_ASV, Self::TS_ABB_ASV];

    /// The sixteen variants of Figure 13, technique-major: each
    /// microarchitecture-technique set (none, FU replication, queue
    /// resizing, both) over the four [`Self::TABLE2`] environments. Every
    /// variant has its own name, so the traces of one campaign over all
    /// sixteen tell them apart.
    pub const FIGURE13: [Environment; 16] = [
        Self::TS,
        Self::TS_ABB,
        Self::TS_ASV,
        Self::TS_ABB_ASV,
        Self::TS.with_techniques("TS+FU", false, true),
        Self::TS_ABB.with_techniques("TS+ABB+FU", false, true),
        Self::TS_ASV.with_techniques("TS+ASV+FU", false, true),
        Self::TS_ABB_ASV.with_techniques("TS+ABB+ASV+FU", false, true),
        Self::TS.with_techniques("TS+Q", true, false),
        Self::TS_ABB.with_techniques("TS+ABB+Q", true, false),
        Self::TS_ASV.with_techniques("TS+ASV+Q", true, false),
        Self::TS_ABB_ASV.with_techniques("TS+ABB+ASV+Q", true, false),
        Self::TS.with_techniques("TS+Q+FU", true, true),
        Self::TS_ABB.with_techniques("TS+ABB+Q+FU", true, true),
        Self::TS_ASV.with_techniques("TS+ASV+Q+FU", true, true),
        Self::TS_ABB_ASV.with_techniques("TS+ABB+ASV+Q+FU", true, true),
    ];

    /// This environment with the given technique set, under `name`.
    const fn with_techniques(
        self,
        name: &'static str,
        queue: bool,
        fu_replication: bool,
    ) -> Environment {
        Environment {
            name,
            queue,
            fu_replication,
            ..self
        }
    }

    /// Whether any per-subsystem voltage knob exists.
    pub fn has_voltage_control(&self) -> bool {
        self.asv || self.abb
    }
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ordering_is_monotone_in_capability() {
        const { assert!(!Environment::BASELINE.checker) };
        const { assert!(Environment::TS.checker && !Environment::TS.asv) };
        const { assert!(Environment::TS_ASV.asv && !Environment::TS_ASV.abb) };
        const { assert!(Environment::ALL.asv && Environment::ALL.abb) };
        const { assert!(Environment::ALL.queue && Environment::ALL.fu_replication) };
    }

    #[test]
    fn novar_has_no_variation_and_no_techniques() {
        let e = Environment::NOVAR;
        assert!(!e.variation && !e.checker && !e.has_voltage_control());
    }

    #[test]
    fn a_name_names_one_environment() {
        let envs: Vec<Environment> = Environment::FIGURE10
            .iter()
            .chain(&Environment::TABLE2)
            .chain(&Environment::FIGURE13)
            .chain(&[Environment::BASELINE, Environment::NOVAR])
            .copied()
            .collect();
        for a in &envs {
            for b in &envs {
                assert!(a.name != b.name || a == b, "{a:?} vs {b:?}");
            }
        }
        // The sixteen Figure 13 variants are sixteen technique sets.
        for (i, a) in Environment::FIGURE13.iter().enumerate() {
            for b in &Environment::FIGURE13[..i] {
                assert_ne!(Environment { name: a.name, ..*b }, *a, "{a:?} vs {b:?}");
            }
        }
    }
}
