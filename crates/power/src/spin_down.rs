//! Spin-down policies: simple (fixed timeout) and prediction-based.

use sdds_disk::{Disk, DiskParams, SpindlePowerModel};
use simkit::{SimDuration, SimTime};

use crate::decide::{node_idle, Decision, EnergyPolicy, PolicyEvent};
use crate::error::{check_unit_knob, PolicyError};
use crate::predictor::IdlePredictor;

/// The paper's *Simple* strategy (§II, Fig. 2): transition the I/O node to
/// the spin-down mode after it stays idle for a fixed timeout, and back to
/// active with the next request (the disk model performs the spin-up
/// automatically when a request arrives in standby).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleSpinDown {
    timeout: SimDuration,
}

impl SimpleSpinDown {
    /// Creates the policy with the given idleness timeout (the paper tunes
    /// this "based on some preliminary experiments", §V-A).
    pub fn new(timeout: SimDuration) -> Self {
        SimpleSpinDown { timeout }
    }

    /// The configured timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

impl EnergyPolicy for SimpleSpinDown {
    fn name(&self) -> &'static str {
        "simple"
    }

    fn snapshot(&self) -> crate::PolicySnapshot {
        crate::PolicySnapshot {
            mode: Some("fixed-timeout"),
            ..crate::PolicySnapshot::default()
        }
    }

    fn decide(&mut self, event: PolicyEvent, disks: &[Disk], out: &mut Decision) {
        match event {
            PolicyEvent::IdleStart { t } => out.set_timer(t + self.timeout),
            PolicyEvent::Timer { .. } => {
                if node_idle(disks) {
                    for i in 0..disks.len() {
                        out.spin_down(i);
                    }
                }
                out.clear_timer();
            }
            // The driver cancels the pending timer on arrival; the disks
            // spin up on their own as requests reach them.
            PolicyEvent::RequestArrival { .. } | PolicyEvent::AfterSubmit { .. } => {}
        }
    }
}

/// The paper's *Prediction Based* strategy (§II): predict the durations of
/// idle periods "by assuming that successive idle periods exhibit similar
/// behavior", spin the node down as soon as the prediction justifies it,
/// and transition back ahead of time to hide the spin-up latency.
///
/// Predictions are *gated*: the policy waits for an activation timeout
/// before consulting its history, and its history tracks only idle periods
/// that got past the gate. Dense request streams (idle periods of a few
/// milliseconds) therefore never trigger predictions; the gate duration is
/// one of the tunable parameters (`y`) of §II.
#[derive(Debug)]
pub struct PredictiveSpinDown {
    params: DiskParams,
    model: SpindlePowerModel,
    predictor: IdlePredictor,
    confidence: f64,
    /// Idleness that must elapse before a prediction is attempted; also
    /// the minimum idle length that enters the history.
    activation: SimDuration,
    /// When the current idle period began (valid while idle).
    idle_since: Option<SimTime>,
}

impl PredictiveSpinDown {
    /// Creates the policy.
    ///
    /// `ewma_alpha` weights new observations of gated idle periods (1.0 =
    /// pure last-value prediction); `confidence` scales predictions down
    /// before the break-even test so that over-predictions do not trigger
    /// unprofitable spin-downs.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] unless `0 < ewma_alpha <= 1` and
    /// `0 < confidence <= 1` and `params` validates.
    pub fn new(params: &DiskParams, ewma_alpha: f64, confidence: f64) -> Result<Self, PolicyError> {
        check_unit_knob("prediction-based", "ewma_alpha", ewma_alpha)?;
        check_unit_knob("prediction-based", "confidence", confidence)?;
        Ok(PredictiveSpinDown {
            model: SpindlePowerModel::new(params)?,
            params: params.clone(),
            predictor: IdlePredictor::new(ewma_alpha),
            confidence,
            activation: SimDuration::from_secs(10),
            idle_since: None,
        })
    }

    /// Read-only access to the predictor (for diagnostics and tests).
    pub fn predictor(&self) -> &IdlePredictor {
        &self.predictor
    }

    /// The activation gate.
    pub fn activation(&self) -> SimDuration {
        self.activation
    }

    fn on_timer(&mut self, t: SimTime, disks: &[Disk], out: &mut Decision) {
        let Some(started) = self.idle_since else {
            return;
        };
        // Two timers share this event: the activation gate (node still
        // spinning) and the predictive wake-up (node in or heading to
        // standby).
        if disks.iter().any(|d| d.current_rpm().is_none()) {
            for i in 0..disks.len() {
                out.spin_up(i);
            }
            self.idle_since = None;
            return;
        }
        if !node_idle(disks) {
            return;
        }
        let elapsed = t.saturating_since(started);
        let Some(predicted) = self.predictor.predict() else {
            return;
        };
        let predicted = predicted.mul_f64(self.confidence);
        let remaining = predicted.saturating_sub(elapsed);
        let current = disks
            .first()
            .and_then(|d| d.current_rpm())
            .unwrap_or(self.params.max_rpm);
        out.spin_down_through(disks, &self.params, &self.model, current, t, remaining);
    }
}

impl EnergyPolicy for PredictiveSpinDown {
    fn name(&self) -> &'static str {
        "prediction-based"
    }

    fn snapshot(&self) -> crate::PolicySnapshot {
        crate::PolicySnapshot {
            predicted_idle_us: self.predictor.predict().map(|d| d.as_micros()),
            forecast_us: None,
            mode: Some("learned"),
        }
    }

    fn decide(&mut self, event: PolicyEvent, disks: &[Disk], out: &mut Decision) {
        match event {
            PolicyEvent::IdleStart { t } => {
                self.idle_since = Some(t);
                out.set_timer(t + self.activation);
            }
            PolicyEvent::Timer { t } => {
                out.clear_timer();
                self.on_timer(t, disks, out);
            }
            PolicyEvent::RequestArrival { completed_idle, .. } => {
                self.idle_since = None;
                if let Some(len) = completed_idle {
                    // Only gated idle periods form the history: the
                    // prediction answers "given the node has already idled
                    // past the gate, how long will this idle period last?".
                    if len >= self.activation {
                        self.predictor.observe(len);
                    }
                }
            }
            PolicyEvent::AfterSubmit { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::drive;
    use sdds_disk::{DiskRequest, DiskState, RequestKind};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn req(id: u64) -> DiskRequest {
        DiskRequest::new(id, RequestKind::Read, 0, 8)
    }

    fn single() -> Vec<Disk> {
        vec![Disk::new(DiskParams::paper_single_speed()).unwrap()]
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
    fn simple_spins_down_after_timeout() {
        let mut disks = single();
        let mut p = SimpleSpinDown::new(SimDuration::from_millis(50));
        let armed = idle_start(&mut p, t(0), &mut disks).unwrap();
        assert_eq!(armed, t(50_000));
        disks[0].advance_to(armed);
        assert_eq!(timer(&mut p, armed, &mut disks), None);
        assert_eq!(disks[0].state(), DiskState::SpinningDown);
    }

    #[test]
    fn simple_timer_while_busy_is_harmless() {
        let mut disks = single();
        // A large transfer (100 tracks ~ 500 ms) keeps the disk busy well
        // past the timer.
        disks[0].submit(DiskRequest::new(0, RequestKind::Read, 0, 60_000), t(0));
        let mut p = SimpleSpinDown::new(SimDuration::from_millis(50));
        timer(&mut p, t(50_000), &mut disks);
        assert_eq!(disks[0].counters().spin_downs, 0);
    }

    #[test]
    fn simple_spins_all_members() {
        let params = DiskParams::paper_single_speed();
        let mut disks = vec![
            Disk::new(params.clone()).unwrap(),
            Disk::new(params).unwrap(),
        ];
        let mut p = SimpleSpinDown::new(SimDuration::from_millis(50));
        let armed = idle_start(&mut p, t(0), &mut disks).unwrap();
        for d in &mut disks {
            d.advance_to(armed);
        }
        timer(&mut p, armed, &mut disks);
        for d in &disks {
            assert_eq!(d.state(), DiskState::SpinningDown);
        }
    }

    #[test]
    fn predictive_needs_history() {
        let params = DiskParams::paper_single_speed();
        let mut disks = single();
        let mut p = PredictiveSpinDown::new(&params, 1.0, 1.0).unwrap();
        let gate = idle_start(&mut p, t(0), &mut disks).unwrap();
        disks[0].advance_to(gate);
        assert_eq!(timer(&mut p, gate, &mut disks), None);
        assert_eq!(disks[0].counters().spin_downs, 0);
    }

    #[test]
    fn predictive_spins_down_on_long_prediction() {
        let params = DiskParams::paper_single_speed();
        let mut disks = single();
        let mut p = PredictiveSpinDown::new(&params, 1.0, 1.0).unwrap();
        arrival(&mut p, t(0), Some(secs(300)), &mut disks);
        let gate = idle_start(&mut p, t(0), &mut disks).unwrap();
        disks[0].advance_to(gate);
        let wake = timer(&mut p, gate, &mut disks);
        assert_eq!(disks[0].state(), DiskState::SpinningDown);
        let expected = gate + (secs(300) - p.activation() - params.spin_up_time);
        assert_eq!(wake, Some(expected));
    }

    #[test]
    fn predictive_ignores_short_idles_entirely() {
        let params = DiskParams::paper_single_speed();
        let mut disks = single();
        let mut p = PredictiveSpinDown::new(&params, 1.0, 1.0).unwrap();
        arrival(&mut p, t(0), Some(SimDuration::from_millis(50)), &mut disks);
        assert_eq!(p.predictor().observations(), 0);
        let gate = idle_start(&mut p, t(0), &mut disks).unwrap();
        disks[0].advance_to(gate);
        assert_eq!(timer(&mut p, gate, &mut disks), None);
        assert_eq!(disks[0].counters().spin_downs, 0);
    }

    #[test]
    fn predictive_wake_timer_spins_up() {
        let params = DiskParams::paper_single_speed();
        let mut disks = single();
        let mut p = PredictiveSpinDown::new(&params, 1.0, 1.0).unwrap();
        arrival(&mut p, t(0), Some(secs(100)), &mut disks);
        let gate = idle_start(&mut p, t(0), &mut disks).unwrap();
        disks[0].advance_to(gate);
        let wake = timer(&mut p, gate, &mut disks).unwrap();
        disks[0].advance_to(wake);
        assert_eq!(timer(&mut p, wake, &mut disks), None);
        assert_eq!(disks[0].state(), DiskState::SpinningUp);
        disks[0].advance_to(t(100_000_000));
        assert!(matches!(disks[0].state(), DiskState::Idle { .. }));
    }

    #[test]
    fn predictive_confidence_scales_down() {
        let params = DiskParams::paper_single_speed();
        let mut disks = single();
        // Break-even is ~61 s; a 70 s prediction at confidence 0.5 -> 35 s,
        // below break-even, so no spin-down.
        let mut p = PredictiveSpinDown::new(&params, 1.0, 0.5).unwrap();
        arrival(&mut p, t(0), Some(secs(70)), &mut disks);
        let gate = idle_start(&mut p, t(0), &mut disks).unwrap();
        disks[0].advance_to(gate);
        assert_eq!(timer(&mut p, gate, &mut disks), None);
        assert_eq!(disks[0].counters().spin_downs, 0);
    }

    #[test]
    fn predictive_end_to_end_with_repeated_gaps() {
        use crate::PoweredArray;
        let params = DiskParams::paper_single_speed();
        let mut node = PoweredArray::with_policy(
            params.clone(),
            1,
            Box::new(PredictiveSpinDown::new(&params, 1.0, 0.9).unwrap()),
        )
        .unwrap();
        // Requests separated by repeated 200 s gaps: from the second gap
        // on, the policy predicts and spins down.
        for i in 0..4u64 {
            node.submit(0, req(i), t(i * 200_000_000));
        }
        node.finish(t(800_000_000));
        let c = node.disks()[0].counters();
        assert!(
            c.spin_downs >= 2,
            "expected prediction-driven spin-downs, got {}",
            c.spin_downs
        );
    }

    #[test]
    fn bad_confidence_is_rejected() {
        let params = DiskParams::paper_single_speed();
        let err = PredictiveSpinDown::new(&params, 1.0, 0.0).unwrap_err();
        assert!(err.to_string().contains("confidence"), "{err}");
    }
}
