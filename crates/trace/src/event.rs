//! Typed event records for the campaign harness and the runtime
//! adaptation loop.
//!
//! Every field of every event payload is **deterministic**: derived from
//! the models and the seeded RNG streams, never from the wall clock, the
//! thread schedule, or allocator state. Timing lives in span and
//! latency-histogram records (see [`crate::sink::Record`]), which are
//! explicitly excluded from the golden-stream determinism contract.

use crate::json::{self, JsonObject};

/// A frequency the retuning loop probed and rejected (with the violated
/// constraint), part of a [`DecisionEvent`].
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedCandidate {
    /// The probed core frequency, GHz.
    pub f_ghz: f64,
    /// The constraint the probe violated (Figure 13 label).
    pub violation: &'static str,
}

/// One controller decision: the chosen per-phase operating point and the
/// evidence behind it (§4.2–4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// Which scheme produced the decision (`static`, `fuzzy`, `exhaustive`,
    /// `nn-table`, `tree`, `mlp`).
    pub scheme: &'static str,
    /// Environment label (Table 1), e.g. `TS+ASV`.
    pub env: &'static str,
    /// Workload name, or `runtime` for the deployed adaptation loop.
    pub workload: &'static str,
    /// Phase index within the workload (detector id at run time).
    pub phase: u64,
    /// Final core frequency after retuning, GHz.
    pub f_ghz: f64,
    /// Per-subsystem `(Vdd, Vbb)` in `SubsystemId::index` order.
    pub settings: Vec<(f64, f64)>,
    /// Integer-FU variant label (`normal` / `low-slope`).
    pub int_fu: &'static str,
    /// FP-FU variant label.
    pub fp_fu: &'static str,
    /// Integer issue-queue label (`full` / `small`).
    pub int_queue: &'static str,
    /// FP issue-queue label.
    pub fp_queue: &'static str,
    /// Retuning outcome (Figure 13 label).
    pub outcome: &'static str,
    /// Which constraint binds at the chosen point (`error-rate`,
    /// `temperature`, `power`, or `ladder-top`).
    pub binding: &'static str,
    /// Frequency steps moved while retuning.
    pub retune_steps: u32,
    /// Frequencies probed and rejected during retuning.
    pub rejected: Vec<RejectedCandidate>,
    /// Error rate at the chosen point, errors/instruction.
    pub pe_per_instruction: f64,
    /// Total power at the chosen point, W.
    pub power_w: f64,
    /// Hottest subsystem temperature, °C.
    pub max_t_c: f64,
    /// Equation-5 performance, BIPS.
    pub perf_bips: f64,
    /// CPI breakdown at the chosen point: computation component.
    pub cpi_comp: f64,
    /// CPI breakdown: memory (L2 miss) component.
    pub cpi_mem: f64,
    /// CPI breakdown: error-recovery component.
    pub cpi_recovery: f64,
}

/// A structured trace event. See each variant for the emitting site.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A campaign began (campaign harness).
    CampaignStart {
        /// Monte Carlo population size.
        chips: u64,
        /// Workloads in the suite.
        workloads: u64,
        /// (environment, scheme) cells requested.
        cells: u64,
    },
    /// One chip of the Monte Carlo population entered evaluation
    /// (campaign harness). Chips are traced into per-chip buffers and
    /// replayed in index order, so this marker deterministically scopes
    /// the decisions that follow it — trace analyzers key per-chip
    /// rollups off it.
    ChipStart {
        /// Zero-based chip index within the population.
        chip: u64,
    },
    /// The phase detector fired (runtime adaptation loop).
    PhaseDetected {
        /// Detector-assigned phase id.
        phase_id: u32,
        /// Whether a saved configuration existed (config-cache hit).
        recurring: bool,
    },
    /// A controller decision (campaign or runtime).
    Decision(Box<DecisionEvent>),
    /// One probe of the retuning cycles (§4.3.3).
    RetuneStep {
        /// `initial`, `down`, `up`.
        direction: &'static str,
        /// The probed frequency, GHz.
        f_ghz: f64,
        /// The violated constraint, if the probe was rejected.
        violation: Option<&'static str>,
    },
    /// A supposedly-safe fixed configuration diverged (campaign).
    Infeasible {
        /// Which fixed configuration was being evaluated.
        context: &'static str,
        /// The diverging subsystem.
        subsystem: String,
    },
    /// The manufacturer tester measured one subsystem's effective `Vt0`
    /// (§4.1).
    TesterMeasurement {
        /// Subsystem label, e.g. `core0/int-alu`.
        subsystem: String,
        /// Leakage-implied effective threshold, V.
        vt0_eff: f64,
        /// Arithmetic mean threshold over the footprint, V.
        vt0_mean: f64,
    },
    /// A per-(subsystem, variant) controller bank finished training
    /// (§4.3.1).
    ControllerTrained {
        /// Subsystem label.
        subsystem: String,
        /// `normal` or `alt` (low-slope FU / small queue).
        variant: &'static str,
        /// The oracle searched the `Vdd` ladder (the bank's ASV family).
        asv: bool,
        /// The oracle searched the `Vbb` ladder (the bank's ABB family).
        abb: bool,
        /// Training examples per controller.
        examples: u64,
        /// RMS error of the `Freq` controller on its normalized set.
        freq_rms: f64,
    },
    /// One contestant's aggregate score from the controller tournament:
    /// accuracy against the exhaustive reference on the training chip
    /// population, plus robustness on a held-out population the
    /// controllers were never trained on.
    TournamentScore {
        /// Contestant scheme label (`static`, `fuzzy`, `exhaustive`,
        /// `nn-table`, `tree`, `mlp`).
        scheme: &'static str,
        /// Scored decisions on the training population.
        decisions: u64,
        /// Mean `|f − f_exhaustive|` over those decisions, GHz.
        mean_abs_fdelta_ghz: f64,
        /// Fraction of decisions landing on the exhaustive frequency.
        exact_rate: f64,
        /// Mean Equation-5 performance relative to the exhaustive
        /// reference decision (1.0 = parity).
        mean_perf_rel: f64,
        /// Scored decisions on the held-out population.
        holdout_decisions: u64,
        /// Mean `|f − f_exhaustive|` on the held-out population, GHz.
        holdout_mean_abs_fdelta_ghz: f64,
        /// Exact-frequency rate on the held-out population.
        holdout_exact_rate: f64,
    },
}

impl Event {
    /// Short kind tag used in the JSONL stream.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CampaignStart { .. } => "campaign-start",
            Event::ChipStart { .. } => "chip-start",
            Event::PhaseDetected { .. } => "phase-detected",
            Event::Decision(_) => "decision",
            Event::RetuneStep { .. } => "retune-step",
            Event::Infeasible { .. } => "infeasible",
            Event::TesterMeasurement { .. } => "tester-measurement",
            Event::ControllerTrained { .. } => "controller-trained",
            Event::TournamentScore { .. } => "tournament-score",
        }
    }

    /// The deterministic payload, rendered as a JSON object.
    pub fn payload_json(&self) -> String {
        match self {
            Event::CampaignStart {
                chips,
                workloads,
                cells,
            } => JsonObject::new()
                .u64("chips", *chips)
                .u64("workloads", *workloads)
                .u64("cells", *cells)
                .finish(),
            Event::ChipStart { chip } => JsonObject::new().u64("chip", *chip).finish(),
            Event::PhaseDetected {
                phase_id,
                recurring,
            } => JsonObject::new()
                .u64("phase_id", u64::from(*phase_id))
                .bool("recurring", *recurring)
                .finish(),
            Event::Decision(d) => {
                let settings = json::array(&d.settings, |(vdd, vbb)| {
                    JsonObject::new().f64("vdd", *vdd).f64("vbb", *vbb).finish()
                });
                let rejected = json::array(&d.rejected, |r| {
                    JsonObject::new()
                        .f64("f_ghz", r.f_ghz)
                        .str("violation", r.violation)
                        .finish()
                });
                JsonObject::new()
                    .str("scheme", d.scheme)
                    .str("env", d.env)
                    .str("workload", d.workload)
                    .u64("phase", d.phase)
                    .f64("f_ghz", d.f_ghz)
                    .raw("settings", &settings)
                    .str("int_fu", d.int_fu)
                    .str("fp_fu", d.fp_fu)
                    .str("int_queue", d.int_queue)
                    .str("fp_queue", d.fp_queue)
                    .str("outcome", d.outcome)
                    .str("binding", d.binding)
                    .u64("retune_steps", u64::from(d.retune_steps))
                    .raw("rejected", &rejected)
                    .f64("pe_per_instruction", d.pe_per_instruction)
                    .f64("power_w", d.power_w)
                    .f64("max_t_c", d.max_t_c)
                    .f64("perf_bips", d.perf_bips)
                    .f64("cpi_comp", d.cpi_comp)
                    .f64("cpi_mem", d.cpi_mem)
                    .f64("cpi_recovery", d.cpi_recovery)
                    .finish()
            }
            Event::RetuneStep {
                direction,
                f_ghz,
                violation,
            } => {
                let o = JsonObject::new().str("direction", direction).f64("f_ghz", *f_ghz);
                match violation {
                    Some(v) => o.str("violation", v),
                    None => o.raw("violation", "null"),
                }
                .finish()
            }
            Event::Infeasible { context, subsystem } => JsonObject::new()
                .str("context", context)
                .str("subsystem", subsystem)
                .finish(),
            Event::TesterMeasurement {
                subsystem,
                vt0_eff,
                vt0_mean,
            } => JsonObject::new()
                .str("subsystem", subsystem)
                .f64("vt0_eff", *vt0_eff)
                .f64("vt0_mean", *vt0_mean)
                .finish(),
            Event::ControllerTrained {
                subsystem,
                variant,
                asv,
                abb,
                examples,
                freq_rms,
            } => JsonObject::new()
                .str("subsystem", subsystem)
                .str("variant", variant)
                .bool("asv", *asv)
                .bool("abb", *abb)
                .u64("examples", *examples)
                .f64("freq_rms", *freq_rms)
                .finish(),
            Event::TournamentScore {
                scheme,
                decisions,
                mean_abs_fdelta_ghz,
                exact_rate,
                mean_perf_rel,
                holdout_decisions,
                holdout_mean_abs_fdelta_ghz,
                holdout_exact_rate,
            } => JsonObject::new()
                .str("scheme", scheme)
                .u64("decisions", *decisions)
                .f64("mean_abs_fdelta_ghz", *mean_abs_fdelta_ghz)
                .f64("exact_rate", *exact_rate)
                .f64("mean_perf_rel", *mean_perf_rel)
                .u64("holdout_decisions", *holdout_decisions)
                .f64("holdout_mean_abs_fdelta_ghz", *holdout_mean_abs_fdelta_ghz)
                .f64("holdout_exact_rate", *holdout_exact_rate)
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_valid_single_line_json_objects() {
        let events = [
            Event::CampaignStart {
                chips: 2,
                workloads: 3,
                cells: 4,
            },
            Event::ChipStart { chip: 3 },
            Event::PhaseDetected {
                phase_id: 9,
                recurring: true,
            },
            Event::RetuneStep {
                direction: "down",
                f_ghz: 4.2,
                violation: Some("Error"),
            },
            Event::RetuneStep {
                direction: "up",
                f_ghz: 4.3,
                violation: None,
            },
            Event::Infeasible {
                context: "static",
                subsystem: "int-alu".into(),
            },
        ];
        for e in events {
            let p = e.payload_json();
            assert!(p.starts_with('{') && p.ends_with('}'), "{p}");
            assert!(!p.contains('\n'), "{p}");
            assert!(!e.kind().is_empty());
        }
    }

    #[test]
    fn decision_event_renders_every_field() {
        let d = DecisionEvent {
            scheme: "exhaustive",
            env: "TS+ASV",
            workload: "swim",
            phase: 1,
            f_ghz: 4.4,
            settings: vec![(1.0, 0.0), (0.95, -0.1)],
            int_fu: "normal",
            fp_fu: "low-slope",
            int_queue: "full",
            fp_queue: "small",
            outcome: "LowFreq",
            binding: "error-rate",
            retune_steps: 3,
            rejected: vec![RejectedCandidate {
                f_ghz: 4.5,
                violation: "Error",
            }],
            pe_per_instruction: 1e-5,
            power_w: 28.0,
            max_t_c: 81.5,
            perf_bips: 3.1,
            cpi_comp: 1.0,
            cpi_mem: 0.4,
            cpi_recovery: 0.01,
        };
        let p = Event::Decision(Box::new(d)).payload_json();
        for key in [
            "scheme", "env", "workload", "phase", "f_ghz", "settings", "outcome",
            "binding", "retune_steps", "rejected", "pe_per_instruction", "power_w",
            "max_t_c", "perf_bips", "cpi_comp", "cpi_mem", "cpi_recovery",
        ] {
            assert!(p.contains(&format!("\"{key}\"")), "missing {key}: {p}");
        }
        assert!(p.contains("\"vdd\":0.95"));
    }

    #[test]
    fn identical_events_render_identically() {
        let mk = || Event::TesterMeasurement {
            subsystem: "core0/dcache".into(),
            vt0_eff: 0.14159,
            vt0_mean: 0.15,
        };
        assert_eq!(mk().payload_json(), mk().payload_json());
    }
}
