//! Online energy policies: learn from the live request stream instead of a
//! compile-time schedule.
//!
//! The compile-time scheme of the paper needs the whole access pattern up
//! front. The policies here are its run-time counterpart for workloads no
//! compiler sees (DBMS-style keyed streams): they watch the same
//! [`PolicyEvent`] stream every other policy sees and learn idle-period and
//! demand statistics on the fly.
//!
//! * [`OnlineMultiSpeed`] — demand-window speed selection: an exponential
//!   average over observed completed idle gaps (clamped to a window cap)
//!   predicts how long the node has until the next request, and the speed
//!   level is chosen to break even over that window.
//! * [`HybridPolicy`] — starts from the table-calibrated history-based
//!   policy and hands control to the online demand-window policy once the
//!   online side has seen enough of the live stream to correct the table's
//!   assumptions.
//!
//! Determinism: the online policy draws its gate jitter once, at
//! construction, from a per-node [`DetRng`] substream
//! ([`simkit::StreamId::Policy`] narrowed by node index); after
//! construction every decision is a pure function of the event stream.

use sdds_disk::{Disk, DiskParams, RpmChangePriority, SpindlePowerModel};
use simkit::{DetRng, SimDuration, SimTime};

use crate::analysis;
use crate::decide::{node_idle, Decision, EnergyPolicy, PolicyEvent};
use crate::error::PolicyError;
use crate::multi_speed::HistoryBasedMultiSpeed;
use crate::predictor::IdlePredictor;
use crate::spin_down::check_unit_knob;

/// Which decision an [`OnlineMultiSpeed`] timer drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// No timer outstanding.
    None,
    /// First decision after the activation gate: pick a level for the
    /// predicted demand window.
    Gate,
    /// Ramp back to full speed ahead of the predicted window end.
    Wake,
}

/// Online multi-speed: demand-window speed selection from observed
/// completed idle gaps.
#[derive(Debug)]
pub struct OnlineMultiSpeed {
    params: DiskParams,
    model: SpindlePowerModel,
    /// EWMA over *observed* completed idle gaps (clamped to
    /// [`Self::WINDOW_CAP`]): how long the node actually sat quiet before
    /// the arriving request, i.e. the demand window the level choice must
    /// break even inside. Raw inter-arrival distance would also count the
    /// previous request's service time — which straggler faults stretch
    /// at run time — so the learner reads the driver's observed idle
    /// measurement instead.
    gaps: IdlePredictor,
    confidence: f64,
    /// Idleness that must elapse before a level decision; also the minimum
    /// gap length entering the history.
    activation: SimDuration,
    /// Per-node gate jitter drawn at construction: staggers simultaneous
    /// decisions across nodes without affecting what is decided.
    jitter: SimDuration,
    idle_since: Option<SimTime>,
    pending: Pending,
}

impl OnlineMultiSpeed {
    /// Gaps longer than this are recorded as exactly this: one overnight
    /// lull must not convince the predictor that whole hours of idleness
    /// are the norm.
    const WINDOW_CAP: SimDuration = SimDuration::from_secs(60);

    /// Creates the policy; `rng` must be the node's own policy substream.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] unless `0 < ewma_alpha <= 1` and
    /// `0 < confidence <= 1` and `params` validates.
    pub fn new(
        params: &DiskParams,
        ewma_alpha: f64,
        confidence: f64,
        mut rng: DetRng,
    ) -> Result<Self, PolicyError> {
        check_unit_knob("online-speed", "ewma_alpha", ewma_alpha)?;
        check_unit_knob("online-speed", "confidence", confidence)?;
        Ok(OnlineMultiSpeed {
            model: SpindlePowerModel::new(params)?,
            params: params.clone(),
            gaps: IdlePredictor::new(ewma_alpha),
            confidence,
            activation: SimDuration::from_millis(500),
            jitter: SimDuration::from_micros(rng.range_u64(0, 50_000)),
            idle_since: None,
            pending: Pending::None,
        })
    }

    /// Number of completed idle gaps observed so far.
    pub fn observations(&self) -> u64 {
        self.gaps.observations()
    }

    fn on_timer(&mut self, t: SimTime, disks: &[Disk], out: &mut Decision) {
        let Some(started) = self.idle_since else {
            out.clear_timer();
            return;
        };
        if !node_idle(disks) {
            out.set_timer(t + SimDuration::from_millis(100));
            return;
        }
        let Some(current) = disks.first().and_then(|d| d.current_rpm()) else {
            debug_assert!(false, "node_idle checked");
            out.set_timer(t + SimDuration::from_millis(100));
            return;
        };
        match self.pending {
            Pending::None => out.clear_timer(),
            Pending::Gate => {
                let Some(predicted) = self.gaps.predict() else {
                    self.pending = Pending::None;
                    out.clear_timer();
                    return;
                };
                let elapsed = t.saturating_since(started);
                let remaining = predicted.mul_f64(self.confidence).saturating_sub(elapsed);
                let best = analysis::best_level(&self.params, &self.model, current, remaining);
                if out.slow_down_through(disks, &self.params, current, best, t, remaining) {
                    self.pending = Pending::Wake;
                } else {
                    self.pending = Pending::None;
                    out.clear_timer();
                }
            }
            Pending::Wake => {
                self.pending = Pending::None;
                if current < self.params.max_rpm {
                    for i in 0..disks.len() {
                        out.set_rpm(i, self.params.max_rpm, RpmChangePriority::Immediate);
                    }
                }
                out.clear_timer();
            }
        }
    }
}

impl EnergyPolicy for OnlineMultiSpeed {
    fn name(&self) -> &'static str {
        "online-speed"
    }

    fn snapshot(&self) -> crate::PolicySnapshot {
        crate::PolicySnapshot {
            predicted_idle_us: self.gaps.predict().map(|d| d.as_micros()),
            forecast_us: None,
            mode: Some(if self.gaps.observations() == 0 {
                "bootstrap"
            } else {
                "learned"
            }),
        }
    }

    fn decide(&mut self, event: PolicyEvent, disks: &[Disk], out: &mut Decision) {
        match event {
            PolicyEvent::IdleStart { t } => {
                self.idle_since = Some(t);
                self.pending = Pending::Gate;
                out.set_timer(t + self.activation + self.jitter);
            }
            PolicyEvent::Timer { t } => self.on_timer(t, disks, out),
            PolicyEvent::RequestArrival { completed_idle, .. } => {
                // `completed_idle` is measured from the node's *observed*
                // last completion (straggler-stretched service included),
                // so a slow disk shortens the learned window instead of
                // silently inflating it the way arrival-to-arrival
                // distance would. `None` means the node never went idle
                // before this arrival: there was no demand window to
                // learn from.
                if let Some(len) = completed_idle {
                    let gap = len.min(Self::WINDOW_CAP);
                    if gap >= self.activation {
                        self.gaps.observe(gap);
                    }
                }
                self.idle_since = None;
                self.pending = Pending::None;
            }
            // A request found the node slow: serve it at the current speed
            // and ramp back once the queue drains.
            PolicyEvent::AfterSubmit { .. } => out.ramp_up_when_drained(disks, self.params.max_rpm),
        }
    }
}

/// Hybrid: table-calibrated history-based control until the online
/// demand-window policy has learned the live stream, then online control.
///
/// Both halves see every request arrival (so the online side keeps
/// learning while the table side drives); only the active half's
/// directives reach the hardware. The hand-over happens at an idle-period
/// boundary — the only point where neither half can have a timer armed —
/// so the switch never orphans a pending decision.
#[derive(Debug)]
pub struct HybridPolicy {
    base: HistoryBasedMultiSpeed,
    online: OnlineMultiSpeed,
    /// Observations the online side needs before it takes over.
    threshold: u64,
    use_online: bool,
    /// Discard buffer for the inactive half's (always empty) output.
    scratch: Decision,
}

impl HybridPolicy {
    /// Creates the policy; `rng` must be the node's own policy substream.
    /// The table-calibrated half uses the paper's history-based defaults;
    /// `ewma_alpha`/`confidence` tune the online half.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] unless both halves accept their knobs and
    /// `params` validates.
    pub fn new(
        params: &DiskParams,
        ewma_alpha: f64,
        confidence: f64,
        rng: DetRng,
    ) -> Result<Self, PolicyError> {
        Ok(HybridPolicy {
            base: HistoryBasedMultiSpeed::new(params, 0.5, 0.95)?,
            online: OnlineMultiSpeed::new(params, ewma_alpha, confidence, rng)?,
            threshold: 12,
            use_online: false,
            scratch: Decision::new(),
        })
    }

    /// True once control has passed to the online half.
    pub fn online_active(&self) -> bool {
        self.use_online
    }
}

impl EnergyPolicy for HybridPolicy {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn snapshot(&self) -> crate::PolicySnapshot {
        // Attribute to whichever half currently drives the directives,
        // relabelled so traces show which regime was in control.
        let inner = if self.use_online {
            self.online.snapshot()
        } else {
            self.base.snapshot()
        };
        crate::PolicySnapshot {
            mode: Some(if self.use_online {
                "online"
            } else {
                "table-calibrated"
            }),
            ..inner
        }
    }

    fn decide(&mut self, event: PolicyEvent, disks: &[Disk], out: &mut Decision) {
        if let PolicyEvent::RequestArrival { .. } = event {
            // Arrivals feed both learners. Neither half emits directives
            // on arrival, so the inactive half's output is discardable by
            // construction.
            self.scratch.reset();
            if self.use_online {
                self.online.decide(event, disks, out);
                self.base.decide(event, disks, &mut self.scratch);
            } else {
                self.base.decide(event, disks, out);
                self.online.decide(event, disks, &mut self.scratch);
            }
            debug_assert!(self.scratch.directives().is_empty());
            return;
        }
        if let PolicyEvent::IdleStart { .. } = event {
            // Hand over only at an idleness edge: no timer is armed here
            // (the driver cleared it on the preceding arrival), so the
            // online half starts from a clean slate.
            if !self.use_online && self.online.observations() >= self.threshold {
                self.use_online = true;
            }
        }
        if self.use_online {
            self.online.decide(event, disks, out);
        } else {
            self.base.decide(event, disks, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::drive;
    use simkit::StreamId;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn rng() -> DetRng {
        DetRng::for_stream(42, StreamId::Policy).substream("node-0")
    }

    fn idle_start(p: &mut dyn EnergyPolicy, at: SimTime, disks: &mut [Disk]) -> Option<SimTime> {
        drive(p, PolicyEvent::IdleStart { t: at }, disks)
    }

    fn timer(p: &mut dyn EnergyPolicy, at: SimTime, disks: &mut [Disk]) -> Option<SimTime> {
        drive(p, PolicyEvent::Timer { t: at }, disks)
    }

    fn arrival(
        p: &mut dyn EnergyPolicy,
        at: SimTime,
        completed_idle: Option<SimDuration>,
        disks: &mut [Disk],
    ) {
        drive(
            p,
            PolicyEvent::RequestArrival {
                t: at,
                completed_idle,
            },
            disks,
        );
    }

    #[test]
    fn online_multi_speed_slows_for_predicted_window() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        let mut p = OnlineMultiSpeed::new(&params, 1.0, 1.0, rng()).unwrap();
        // An observed 20 s idle gap teaches a 20 s demand window.
        arrival(&mut p, t(0), None, &mut disks);
        arrival(&mut p, t(20_000_000), Some(secs(20)), &mut disks);
        assert_eq!(p.observations(), 1);
        let gate = idle_start(&mut p, t(20_000_000), &mut disks).unwrap();
        disks[0].advance_to(gate);
        let wake = timer(&mut p, gate, &mut disks).unwrap();
        disks[0].advance_to(wake);
        assert!(
            disks[0]
                .current_rpm()
                .is_none_or(|rpm| rpm < params.max_rpm),
            "a 20 s window justifies a slow-down"
        );
        // The wake timer restores full speed before the window closes.
        timer(&mut p, wake, &mut disks);
        disks[0].advance_to(t(40_000_000));
        assert_eq!(disks[0].current_rpm(), Some(params.max_rpm));
    }

    #[test]
    fn online_multi_speed_caps_observed_gaps() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        let mut p = OnlineMultiSpeed::new(&params, 1.0, 1.0, rng()).unwrap();
        arrival(&mut p, t(0), None, &mut disks);
        // An hour-long lull must be recorded as the window cap, not an hour.
        arrival(&mut p, t(3_600_000_000), Some(secs(3600)), &mut disks);
        assert_eq!(p.gaps.predict(), Some(OnlineMultiSpeed::WINDOW_CAP));
    }

    #[test]
    fn online_multi_speed_learns_observed_idle_not_arrival_distance() {
        // Regression (straggler visibility): arrivals 30 s apart, but the
        // previous request's service was stretched to 20 s by a straggler,
        // so the node only sat idle for the *observed* 10 s. The learner
        // must predict 10 s — learning the 30 s arrival distance would
        // treat stretched service time as exploitable idleness.
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        let mut p = OnlineMultiSpeed::new(&params, 1.0, 1.0, rng()).unwrap();
        arrival(&mut p, t(0), None, &mut disks);
        arrival(&mut p, t(30_000_000), Some(secs(10)), &mut disks);
        assert_eq!(p.gaps.predict(), Some(secs(10)));
    }

    #[test]
    fn online_multi_speed_ignores_arrivals_with_no_idle_window() {
        // A request landing on a still-busy node (completed_idle = None)
        // carries no demand-window information; previously the raw
        // arrival distance was learned anyway.
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        let mut p = OnlineMultiSpeed::new(&params, 1.0, 1.0, rng()).unwrap();
        arrival(&mut p, t(0), None, &mut disks);
        arrival(&mut p, t(25_000_000), None, &mut disks);
        assert_eq!(p.observations(), 0);
        assert_eq!(p.gaps.predict(), None);
    }

    #[test]
    fn hybrid_switches_after_threshold() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        let mut p = HybridPolicy::new(&params, 1.0, 1.0, rng()).unwrap();
        assert!(!p.online_active());
        // Feed enough well-spaced arrivals to cross the threshold.
        for i in 0..13u64 {
            arrival(&mut p, t(i * 2_000_000), Some(secs(1)), &mut disks);
        }
        idle_start(&mut p, t(26_000_000), &mut disks);
        assert!(p.online_active(), "control passes to the online half");
        assert_eq!(p.name(), "hybrid");
    }

    #[test]
    fn hybrid_starts_on_the_table_calibrated_half() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        let mut p = HybridPolicy::new(&params, 1.0, 1.0, rng()).unwrap();
        // One long observed idle, then an idleness edge: the history-based
        // half drives, arming its activation gate.
        arrival(&mut p, t(0), Some(secs(60)), &mut disks);
        let gate = idle_start(&mut p, t(0), &mut disks).unwrap();
        assert!(!p.online_active());
        assert_eq!(gate, SimTime::ZERO + p.base.activation());
    }
}
