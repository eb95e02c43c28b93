//! Policy configuration: the [`PolicyKind`] enum and its builder.
//!
//! The decision trait itself lives in [`crate::decide`]; this module keeps
//! the serializable, `Clone`-able configuration layer that experiment
//! configs store and that the storage layer turns into live
//! [`EnergyPolicy`](crate::EnergyPolicy) objects per I/O node.

use std::sync::Arc;

use sdds_disk::DiskParams;
use simkit::{DetRng, SimDuration, StreamId};

use crate::decide::EnergyPolicy;
use crate::online::{HybridPolicy, OnlineMultiSpeed};
use crate::table::TableLookup;
use crate::{
    HistoryBasedMultiSpeed, NoPm, PolicyError, PredictiveSpinDown, SimpleSpinDown,
    StaggeredMultiSpeed,
};

/// Per-node construction context handed to [`PolicyKind::build`].
///
/// Policies that carry randomness or per-node state (the online family,
/// table lookups) need to know *which* node they manage so that every
/// node gets an independent, deterministically derived stream and table
/// slice. Table-driven and paper policies ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyContext {
    /// Index of the I/O node this policy will manage.
    pub node: usize,
}

impl PolicyContext {
    /// Context for I/O node `node`.
    #[must_use]
    pub fn for_node(node: usize) -> Self {
        PolicyContext { node }
    }
}

/// Declarative policy configuration, convertible into a boxed policy for a
/// given disk.
///
/// This is what experiment configurations store; it keeps the policy choice
/// serializable and `Clone` while the policies themselves own mutable
/// predictor state.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// No power management (the paper's Default Scheme).
    NoPm,
    /// Fixed-timeout spin-down.
    SimpleSpinDown {
        /// Idleness to wait before spinning down.
        timeout: SimDuration,
    },
    /// Prediction-based spin-down.
    PredictiveSpinDown {
        /// EWMA weight for new idle observations in `(0, 1]`.
        ewma_alpha: f64,
        /// Safety factor applied to the predicted idle length before the
        /// break-even test, in `(0, 1]`; lower is more conservative.
        confidence: f64,
    },
    /// History-based (prediction-driven) multi-speed control.
    HistoryBasedMultiSpeed {
        /// EWMA weight for new idle observations in `(0, 1]`.
        ewma_alpha: f64,
        /// Safety factor in `(0, 1]` applied to predictions.
        confidence: f64,
    },
    /// Staggered multi-speed descent.
    StaggeredMultiSpeed {
        /// Idleness to wait before each further one-level slow-down.
        step_timeout: SimDuration,
    },
    /// Online multi-speed: demand-window speed selection from the observed
    /// inter-arrival gaps.
    OnlineMultiSpeed {
        /// EWMA weight for new gap observations in `(0, 1]`.
        ewma_alpha: f64,
        /// Safety factor in `(0, 1]` applied to predictions.
        confidence: f64,
        /// Run seed; per-node jitter is derived from its
        /// [`StreamId::Policy`] stream.
        seed: u64,
    },
    /// Hybrid: starts from the table-calibrated history-based policy and
    /// hands control to the online demand-window policy once it has
    /// observed enough of the live stream.
    Hybrid {
        /// EWMA weight for the online side's gap observations in `(0, 1]`.
        ewma_alpha: f64,
        /// Safety factor in `(0, 1]` applied to online predictions.
        confidence: f64,
        /// Run seed; per-node jitter is derived from its
        /// [`StreamId::Policy`] stream.
        seed: u64,
    },
    /// Pure table lookup: per-node idle-period forecasts distilled from a
    /// compiled schedule drive spin-down/speed decisions with no run-time
    /// learning — the compile-time scheme expressed as just another
    /// [`EnergyPolicy`].
    TableLookup {
        /// Forecast idle-period lengths in microseconds, indexed by node
        /// then by idle-period ordinal.
        forecasts: Arc<Vec<Vec<u64>>>,
    },
}

impl PolicyKind {
    /// The simple strategy with a timeout tuned for this simulator's
    /// workloads "based on some preliminary experiments", exactly as §V-A
    /// tunes it for the paper's testbed (50 ms there). The tuned value
    /// sits above the spin-up time: with a shorter timeout, one node's
    /// 16 s spin-up stalls the clients long enough to time out the other
    /// nodes, and the array falls into a phase-locked spin oscillation —
    /// the degenerate regime whose avoidance the paper attributes to
    /// timeout tuning.
    pub fn simple_spin_down_default() -> Self {
        PolicyKind::SimpleSpinDown {
            timeout: SimDuration::from_secs(20),
        }
    }

    /// The prediction-based strategy with EWMA prediction.
    pub fn predictive_spin_down_default() -> Self {
        PolicyKind::PredictiveSpinDown {
            ewma_alpha: 0.5,
            confidence: 0.9,
        }
    }

    /// The history-based multi-speed strategy with EWMA prediction.
    pub fn history_based_default() -> Self {
        PolicyKind::HistoryBasedMultiSpeed {
            ewma_alpha: 0.5,
            confidence: 0.95,
        }
    }

    /// The staggered strategy with a step timeout tuned for this
    /// simulator's workloads (the paper uses 50 ms on its testbed and
    /// notes the parameters "can be tuned to maximize energy savings under
    /// a given performance degradation bound", §II).
    pub fn staggered_default() -> Self {
        PolicyKind::StaggeredMultiSpeed {
            step_timeout: SimDuration::from_millis(500),
        }
    }

    /// The online demand-window multi-speed policy with default tuning.
    pub fn online_multi_speed_default(seed: u64) -> Self {
        PolicyKind::OnlineMultiSpeed {
            ewma_alpha: 0.4,
            confidence: 0.9,
            seed,
        }
    }

    /// The hybrid (table-then-online) policy with default tuning.
    pub fn hybrid_default(seed: u64) -> Self {
        PolicyKind::Hybrid {
            ewma_alpha: 0.4,
            confidence: 0.9,
            seed,
        }
    }

    /// All four power-saving strategies with default tuning, in the order
    /// the paper's figures present them.
    pub fn paper_strategies() -> Vec<PolicyKind> {
        vec![
            Self::simple_spin_down_default(),
            Self::predictive_spin_down_default(),
            Self::history_based_default(),
            Self::staggered_default(),
        ]
    }

    /// The display name of the built policy.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::NoPm => "default",
            PolicyKind::SimpleSpinDown { .. } => "simple",
            PolicyKind::PredictiveSpinDown { .. } => "prediction-based",
            PolicyKind::HistoryBasedMultiSpeed { .. } => "history-based",
            PolicyKind::StaggeredMultiSpeed { .. } => "staggered",
            PolicyKind::OnlineMultiSpeed { .. } => "online-speed",
            PolicyKind::Hybrid { .. } => "hybrid",
            PolicyKind::TableLookup { .. } => "table-lookup",
        }
    }

    /// Returns `true` if this policy requires a multi-speed disk to be
    /// useful.
    pub fn needs_multi_speed(&self) -> bool {
        matches!(
            self,
            PolicyKind::HistoryBasedMultiSpeed { .. }
                | PolicyKind::StaggeredMultiSpeed { .. }
                | PolicyKind::OnlineMultiSpeed { .. }
                | PolicyKind::Hybrid { .. }
        )
    }

    /// Checks that this policy's tuning knobs are in range and that the
    /// policy is compatible with disks built from `params`.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] when a knob is outside its documented
    /// range, when a multi-speed policy is paired with a single-speed
    /// disk, or when `params` itself is invalid.
    pub fn validate(&self, params: &DiskParams) -> Result<(), PolicyError> {
        params.validate()?;
        let knobs: &[(&'static str, f64)] = match self {
            PolicyKind::NoPm
            | PolicyKind::SimpleSpinDown { .. }
            | PolicyKind::TableLookup { .. } => &[],
            PolicyKind::PredictiveSpinDown {
                ewma_alpha,
                confidence,
            }
            | PolicyKind::HistoryBasedMultiSpeed {
                ewma_alpha,
                confidence,
            }
            | PolicyKind::OnlineMultiSpeed {
                ewma_alpha,
                confidence,
                ..
            }
            | PolicyKind::Hybrid {
                ewma_alpha,
                confidence,
                ..
            } => &[("ewma_alpha", *ewma_alpha), ("confidence", *confidence)],
            PolicyKind::StaggeredMultiSpeed { .. } => &[],
        };
        for &(field, value) in knobs {
            if !value.is_finite() || value <= 0.0 || value > 1.0 {
                return Err(PolicyError::Knob {
                    policy: self.name(),
                    field,
                    value,
                    constraint: "(0, 1]",
                });
            }
        }
        if self.needs_multi_speed() && params.min_rpm == params.max_rpm {
            return Err(PolicyError::NeedsMultiSpeed {
                policy: self.name(),
                min_rpm: params.min_rpm,
                max_rpm: params.max_rpm,
            });
        }
        Ok(())
    }

    /// The per-node policy RNG: the [`StreamId::Policy`] stream of `seed`,
    /// narrowed to the node's own named substream.
    fn node_rng(seed: u64, node: usize) -> DetRng {
        DetRng::for_stream(seed, StreamId::Policy).substream(&format!("node-{node}"))
    }

    /// Builds the policy for disks with the given parameters, for the node
    /// identified by `ctx`.
    ///
    /// # Errors
    ///
    /// Returns the [`PolicyError`] produced by [`PolicyKind::validate`]
    /// if the configuration is rejected.
    pub fn build(
        &self,
        params: &DiskParams,
        ctx: PolicyContext,
    ) -> Result<Box<dyn EnergyPolicy>, PolicyError> {
        self.validate(params)?;
        Ok(match *self {
            PolicyKind::NoPm => Box::new(NoPm::new()),
            PolicyKind::SimpleSpinDown { timeout } => Box::new(SimpleSpinDown::new(timeout)),
            PolicyKind::PredictiveSpinDown {
                ewma_alpha,
                confidence,
            } => Box::new(PredictiveSpinDown::new(params, ewma_alpha, confidence)?),
            PolicyKind::HistoryBasedMultiSpeed {
                ewma_alpha,
                confidence,
            } => Box::new(HistoryBasedMultiSpeed::new(params, ewma_alpha, confidence)?),
            PolicyKind::StaggeredMultiSpeed { step_timeout } => {
                Box::new(StaggeredMultiSpeed::new(params, step_timeout)?)
            }
            PolicyKind::OnlineMultiSpeed {
                ewma_alpha,
                confidence,
                seed,
            } => Box::new(OnlineMultiSpeed::new(
                params,
                ewma_alpha,
                confidence,
                Self::node_rng(seed, ctx.node),
            )?),
            PolicyKind::Hybrid {
                ewma_alpha,
                confidence,
                seed,
            } => Box::new(HybridPolicy::new(
                params,
                ewma_alpha,
                confidence,
                Self::node_rng(seed, ctx.node),
            )?),
            PolicyKind::TableLookup { ref forecasts } => {
                Box::new(TableLookup::new(params, forecasts.clone(), ctx.node)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(PolicyKind::NoPm.name(), "default");
        assert_eq!(PolicyKind::simple_spin_down_default().name(), "simple");
        assert_eq!(
            PolicyKind::predictive_spin_down_default().name(),
            "prediction-based"
        );
        assert_eq!(PolicyKind::history_based_default().name(), "history-based");
        assert_eq!(PolicyKind::staggered_default().name(), "staggered");
        assert_eq!(
            PolicyKind::online_multi_speed_default(1).name(),
            "online-speed"
        );
        assert_eq!(PolicyKind::hybrid_default(1).name(), "hybrid");
        assert_eq!(
            PolicyKind::TableLookup {
                forecasts: Arc::new(Vec::new())
            }
            .name(),
            "table-lookup"
        );
    }

    #[test]
    fn paper_strategies_in_figure_order() {
        let names: Vec<_> = PolicyKind::paper_strategies()
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(
            names,
            vec!["simple", "prediction-based", "history-based", "staggered"]
        );
    }

    #[test]
    fn build_produces_matching_names() {
        let params = DiskParams::paper_defaults();
        let ctx = PolicyContext::default();
        for kind in PolicyKind::paper_strategies() {
            let policy = kind.build(&params, ctx).unwrap();
            assert_eq!(policy.name(), kind.name());
        }
        assert_eq!(
            PolicyKind::NoPm.build(&params, ctx).unwrap().name(),
            "default"
        );
        for kind in [
            PolicyKind::online_multi_speed_default(7),
            PolicyKind::hybrid_default(7),
            PolicyKind::TableLookup {
                forecasts: Arc::new(vec![vec![1_000_000]]),
            },
        ] {
            let policy = kind.build(&params, ctx).unwrap();
            assert_eq!(policy.name(), kind.name());
        }
    }

    #[test]
    fn multi_speed_flag() {
        assert!(!PolicyKind::NoPm.needs_multi_speed());
        assert!(!PolicyKind::simple_spin_down_default().needs_multi_speed());
        assert!(PolicyKind::history_based_default().needs_multi_speed());
        assert!(PolicyKind::staggered_default().needs_multi_speed());
        assert!(PolicyKind::online_multi_speed_default(1).needs_multi_speed());
        assert!(PolicyKind::hybrid_default(1).needs_multi_speed());
    }

    #[test]
    fn online_knobs_are_validated() {
        let params = DiskParams::paper_defaults();
        let bad = PolicyKind::OnlineMultiSpeed {
            ewma_alpha: 0.0,
            confidence: 0.9,
            seed: 1,
        };
        assert!(bad.validate(&params).is_err());
        let bad = PolicyKind::Hybrid {
            ewma_alpha: 0.5,
            confidence: 2.0,
            seed: 1,
        };
        assert!(bad.validate(&params).is_err());
    }

    #[test]
    fn online_multi_speed_rejects_single_speed_disks() {
        let params = DiskParams::paper_single_speed();
        let err = PolicyKind::online_multi_speed_default(3)
            .validate(&params)
            .unwrap_err();
        assert!(err.to_string().contains("multi-speed"), "{err}");
    }

    #[test]
    fn node_context_separates_online_streams() {
        // Two nodes built from the same seed must not share jitter draws;
        // the same node rebuilt must. (Observed through Debug formatting,
        // which includes the derived gate jitter.)
        let params = DiskParams::paper_defaults();
        let kind = PolicyKind::online_multi_speed_default(11);
        let a = format!(
            "{:?}",
            kind.build(&params, PolicyContext::for_node(0)).unwrap()
        );
        let b = format!(
            "{:?}",
            kind.build(&params, PolicyContext::for_node(1)).unwrap()
        );
        let a2 = format!(
            "{:?}",
            kind.build(&params, PolicyContext::for_node(0)).unwrap()
        );
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }
}
