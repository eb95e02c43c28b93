//! Multi-speed policies: history-based (prediction-driven) and staggered.

use sdds_disk::{Disk, DiskParams, Rpm, RpmChangePriority, SpindlePowerModel};
use simkit::{SimDuration, SimTime};

use crate::analysis;
use crate::decide::{node_idle, Decision, EnergyPolicy, PolicyEvent};
use crate::error::PolicyError;
use crate::predictor::IdlePredictor;
use crate::spin_down::check_unit_knob;

/// The paper's *History Based* strategy (§II, Fig. 3(a)): predict the idle
/// length from the history of comparable idle periods and transition the
/// node to the RPM level that "saves maximum energy while keeping the
/// performance impact bounded", returning to the fastest speed ahead of
/// the predicted end.
///
/// Like [`PredictiveSpinDown`](crate::PredictiveSpinDown), predictions are
/// gated behind an activation timeout so that millisecond-scale idle
/// periods in dense request streams never trigger speed changes — the
/// paper bounds this strategy's performance degradation to 4% by RPM-level
/// selection (§V-A), and the gate is the equivalent tuning knob here.
/// A wrong prediction still leads to either unnecessary power consumption
/// (ramping up too early) or performance loss (a burst served at reduced
/// speed).
#[derive(Debug)]
pub struct HistoryBasedMultiSpeed {
    params: DiskParams,
    model: SpindlePowerModel,
    /// History of idle periods in `[activation, long_gate)` — the short
    /// gaps a bounded slow-down can exploit.
    short_gaps: IdlePredictor,
    /// History of idle periods `>= long_gate` — the long gaps worth a deep
    /// descent.
    long_gaps: IdlePredictor,
    confidence: f64,
    /// Idleness that must elapse before the first (bounded) speed decision;
    /// also the minimum idle length entering the short-gap history.
    activation: SimDuration,
    /// Idleness beyond which the long-gap prediction takes over.
    long_gate: SimDuration,
    /// Minimum idle length recorded into the long-gap history. Kept well
    /// above `long_gate` so that stall- and drift-induced idles of a few
    /// seconds cannot drag the long-gap estimate down.
    long_observe: SimDuration,
    idle_since: Option<SimTime>,
    pending: Timer,
}

/// Which decision the policy's pending timer drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timer {
    /// No timer outstanding.
    None,
    /// First decision at `idle_since + activation`: a bounded slow-down
    /// from the short-gap prediction.
    Gate,
    /// Ramp back to full speed ahead of the predicted end of a *short*
    /// gap (before the long gate is reached).
    ShortWake,
    /// Re-evaluation at `idle_since + long_gate`: the idle period outlived
    /// the short-gap estimate; descend per the long-gap prediction.
    LongGate,
    /// Ramp back to full speed ahead of the predicted idle end
    /// (Fig. 3(a)'s ahead-of-time transition).
    Wake,
}

impl HistoryBasedMultiSpeed {
    /// Creates the policy.
    ///
    /// `ewma_alpha` weights new observations of gated idle periods (1.0 =
    /// last-value prediction); `confidence` scales predictions before the
    /// level choice.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] unless `0 < ewma_alpha <= 1` and
    /// `0 < confidence <= 1` and `params` validates.
    pub fn new(params: &DiskParams, ewma_alpha: f64, confidence: f64) -> Result<Self, PolicyError> {
        check_unit_knob("history-based", "ewma_alpha", ewma_alpha)?;
        check_unit_knob("history-based", "confidence", confidence)?;
        Ok(HistoryBasedMultiSpeed {
            model: SpindlePowerModel::new(params)?,
            params: params.clone(),
            short_gaps: IdlePredictor::new(ewma_alpha),
            long_gaps: IdlePredictor::new(ewma_alpha),
            confidence,
            activation: SimDuration::from_millis(300),
            long_gate: SimDuration::from_secs(6),
            long_observe: SimDuration::from_secs(25),
            idle_since: None,
            pending: Timer::None,
        })
    }

    /// Read-only access to the short-gap predictor.
    pub fn predictor(&self) -> &IdlePredictor {
        &self.short_gaps
    }

    /// Read-only access to the long-gap predictor.
    pub fn long_predictor(&self) -> &IdlePredictor {
        &self.long_gaps
    }

    /// The activation gate.
    pub fn activation(&self) -> SimDuration {
        self.activation
    }

    /// Emits an immediate speed change for every member disk.
    fn set_all(disks: &[Disk], out: &mut Decision, level: Rpm) {
        for i in 0..disks.len() {
            out.set_rpm(i, level, RpmChangePriority::Immediate);
        }
    }

    /// The fastest level at most `steps` below maximum (the paper's
    /// bounded-performance-impact rule for short-horizon decisions).
    fn bounded_level(&self, level: Rpm, steps: u32) -> Rpm {
        let floor = self
            .params
            .max_rpm
            .get()
            .saturating_sub(steps * self.params.rpm_step)
            .max(self.params.min_rpm.get());
        Rpm::new(level.get().max(floor))
    }

    fn on_timer(&mut self, t: SimTime, disks: &[Disk], out: &mut Decision) {
        let Some(started) = self.idle_since else {
            out.clear_timer();
            return;
        };
        if !node_idle(disks) {
            // Mid-transition or busy: retry shortly; the decision stands.
            out.set_timer(t + SimDuration::from_millis(100));
            return;
        }
        let Some(current) = disks.first().and_then(|d| d.current_rpm()) else {
            // `node_idle` held above, so every disk reports a stable
            // speed; re-check shortly if that somehow changed.
            debug_assert!(false, "node_idle checked");
            out.set_timer(t + SimDuration::from_millis(100));
            return;
        };
        match self.pending {
            Timer::None => out.clear_timer(),
            Timer::Gate => {
                // Short-horizon decision: a *bounded* slow-down (at most
                // three levels) from the short-gap history, then ramp back
                // ahead of the predicted short end — or re-evaluate at the
                // long gate if the idleness persists.
                if let Some(predicted) = self.short_gaps.predict() {
                    let scaled = predicted.mul_f64(self.confidence);
                    let remaining = scaled.saturating_sub(self.activation);
                    let best = analysis::best_level(&self.params, &self.model, current, remaining);
                    let bounded = self.bounded_level(best, 3);
                    if bounded != current {
                        Self::set_all(disks, out, bounded);
                        let ramp_back = self.params.rpm_change_time(bounded, self.params.max_rpm);
                        let short_end = started + scaled.max(self.activation);
                        let wake = short_end - ramp_back.min(scaled);
                        if wake < started + self.long_gate {
                            self.pending = Timer::ShortWake;
                            out.set_timer(wake.max(t));
                            return;
                        }
                    }
                }
                self.pending = Timer::LongGate;
                out.set_timer(started + self.long_gate);
            }
            Timer::ShortWake => {
                // The short-gap estimate is nearly up: return to full speed
                // so an on-time arrival is served fast, then re-check at
                // the long gate in case the idleness persists.
                if current < self.params.max_rpm {
                    Self::set_all(disks, out, self.params.max_rpm);
                }
                self.pending = Timer::LongGate;
                out.set_timer((started + self.long_gate).max(t));
            }
            Timer::LongGate => {
                // The idle period outlived the short horizon: commit to the
                // long-gap prediction.
                let Some(predicted) = self.long_gaps.predict() else {
                    self.pending = Timer::None;
                    out.clear_timer();
                    return;
                };
                let elapsed = t.saturating_since(started);
                let remaining = predicted.mul_f64(self.confidence).saturating_sub(elapsed);
                let best = analysis::best_level(&self.params, &self.model, current, remaining);
                if out.slow_down_through(disks, &self.params, current, best, t, remaining) {
                    self.pending = Timer::Wake;
                } else {
                    self.pending = Timer::None;
                    out.clear_timer();
                }
            }
            Timer::Wake => {
                // Return to the fastest speed ahead of the predicted end.
                self.pending = Timer::None;
                if current < self.params.max_rpm {
                    Self::set_all(disks, out, self.params.max_rpm);
                }
                out.clear_timer();
            }
        }
    }
}

impl EnergyPolicy for HistoryBasedMultiSpeed {
    fn name(&self) -> &'static str {
        "history-based"
    }

    fn snapshot(&self) -> crate::PolicySnapshot {
        crate::PolicySnapshot {
            predicted_idle_us: self.short_gaps.predict().map(|d| d.as_micros()),
            // The long-gap estimate plays the forecast role here: it is
            // the policy's long-horizon belief, analogous to a table entry.
            forecast_us: self.long_gaps.predict().map(|d| d.as_micros()),
            mode: Some("learned"),
        }
    }

    fn decide(&mut self, event: PolicyEvent, disks: &[Disk], out: &mut Decision) {
        match event {
            PolicyEvent::IdleStart { t } => {
                self.idle_since = Some(t);
                self.pending = Timer::Gate;
                out.set_timer(t + self.activation);
            }
            PolicyEvent::Timer { t } => self.on_timer(t, disks, out),
            PolicyEvent::RequestArrival { completed_idle, .. } => {
                self.idle_since = None;
                self.pending = Timer::None;
                if let Some(len) = completed_idle {
                    if len >= self.long_observe {
                        self.long_gaps.observe(len);
                    } else if len >= self.activation {
                        self.short_gaps.observe(len);
                    }
                }
            }
            // Misprediction: a request arrived while the node is still
            // slow. Serve the burst at the current speed (multi-speed disks
            // can serve at low RPM) and return to full speed once the
            // queues drain.
            PolicyEvent::AfterSubmit { .. } => out.ramp_up_when_drained(disks, self.params.max_rpm),
        }
    }
}

/// The paper's *Staggered* strategy (§II, Fig. 3(b)): travel through the
/// speed levels one at a time as the idleness persists, and ramp straight
/// back to the fastest speed when the next request arrives.
///
/// The ramp back is what makes this strategy's performance penalty
/// "relatively higher": a request can arrive just after the node reached a
/// very low speed, and the recovery to full speed then delays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaggeredMultiSpeed {
    max_rpm: Rpm,
    min_rpm: Rpm,
    rpm_step: u32,
    step_timeout: SimDuration,
}

impl StaggeredMultiSpeed {
    /// Creates the policy with the per-level idleness timeout.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] if `params` fails validation.
    pub fn new(params: &DiskParams, step_timeout: SimDuration) -> Result<Self, PolicyError> {
        params.validate()?;
        Ok(StaggeredMultiSpeed {
            max_rpm: params.max_rpm,
            min_rpm: params.min_rpm,
            rpm_step: params.rpm_step,
            step_timeout,
        })
    }

    /// The next level below `rpm`, or `None` at the floor.
    fn level_below(&self, rpm: Rpm) -> Option<Rpm> {
        if rpm <= self.min_rpm {
            None
        } else {
            Some(Rpm::new(rpm.get() - self.rpm_step))
        }
    }
}

impl EnergyPolicy for StaggeredMultiSpeed {
    fn name(&self) -> &'static str {
        "staggered"
    }

    fn snapshot(&self) -> crate::PolicySnapshot {
        crate::PolicySnapshot {
            mode: Some("staggered-step"),
            ..crate::PolicySnapshot::default()
        }
    }

    fn decide(&mut self, event: PolicyEvent, disks: &[Disk], out: &mut Decision) {
        match event {
            PolicyEvent::IdleStart { t } => out.set_timer(t + self.step_timeout),
            PolicyEvent::Timer { t } => {
                if !node_idle(disks) {
                    // Mid-transition (the previous step is still in
                    // progress): check again after another timeout.
                    out.set_timer(t + self.step_timeout);
                    return;
                }
                let Some(rpm) = disks.first().and_then(|d| d.current_rpm()) else {
                    debug_assert!(false, "node_idle checked");
                    out.set_timer(t + self.step_timeout);
                    return;
                };
                match self.level_below(rpm) {
                    Some(next) => {
                        for i in 0..disks.len() {
                            out.set_rpm(i, next, RpmChangePriority::Immediate);
                        }
                        out.set_timer(t + self.step_timeout);
                    }
                    None => out.clear_timer(), // already at the floor
                }
            }
            PolicyEvent::RequestArrival { .. } => {
                // Ramp straight back to the fastest speed; the arriving
                // request waits for the recovery (this is the staggered
                // penalty).
                for (i, d) in disks.iter().enumerate() {
                    if d.current_rpm() != Some(self.max_rpm) {
                        out.set_rpm(i, self.max_rpm, RpmChangePriority::Immediate);
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

    fn single() -> Vec<Disk> {
        vec![Disk::new(DiskParams::paper_defaults()).unwrap()]
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

    fn after_submit(p: &mut dyn EnergyPolicy, at: SimTime, disks: &mut [Disk]) {
        drive(p, PolicyEvent::AfterSubmit { t: at }, disks);
    }

    /// Feeds a long-gap observation, then drives the staged timers (gate,
    /// long gate) from `start`. Returns the wake timer, if any.
    fn engage_history(
        p: &mut HistoryBasedMultiSpeed,
        disks: &mut [Disk],
        observed: SimDuration,
        start: SimTime,
    ) -> Option<SimTime> {
        arrival(p, start, Some(observed), disks);
        let gate = idle_start(p, start, disks).unwrap();
        for d in disks.iter_mut() {
            d.advance_to(gate);
        }
        let next = timer(p, gate, disks)?;
        for d in disks.iter_mut() {
            d.advance_to(next);
        }
        timer(p, next, disks)
    }

    #[test]
    fn history_slows_down_on_long_prediction() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = HistoryBasedMultiSpeed::new(&params, 1.0, 1.0).unwrap();
        let wake = engage_history(&mut p, &mut disks, secs(60), t(0));
        assert!(matches!(disks[0].state(), DiskState::ChangingSpeed { .. }));
        assert!(wake.is_some());
        // The wake-up precedes the predicted end.
        assert!(wake.unwrap() < t(60_000_000));
    }

    #[test]
    fn history_timer_ramps_back_to_max() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = HistoryBasedMultiSpeed::new(&params, 1.0, 1.0).unwrap();
        let wake = engage_history(&mut p, &mut disks, secs(60), t(0)).unwrap();
        disks[0].advance_to(wake);
        timer(&mut p, wake, &mut disks);
        disks[0].advance_to(t(60_000_000));
        assert_eq!(
            disks[0].current_rpm(),
            Some(params.max_rpm),
            "disk should be back at full speed by the predicted end"
        );
    }

    #[test]
    fn history_without_history_does_nothing() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = HistoryBasedMultiSpeed::new(&params, 1.0, 1.0).unwrap();
        let gate = idle_start(&mut p, t(0), &mut disks).unwrap();
        disks[0].advance_to(gate);
        // No short-gap history: the gate only schedules the long-gate
        // re-check; no long-gap history either, so nothing happens.
        let long_gate = timer(&mut p, gate, &mut disks).unwrap();
        disks[0].advance_to(long_gate);
        assert_eq!(timer(&mut p, long_gate, &mut disks), None);
        assert_eq!(disks[0].counters().rpm_changes, 0);
    }

    #[test]
    fn history_ignores_sub_gate_idles() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = HistoryBasedMultiSpeed::new(&params, 1.0, 1.0).unwrap();
        arrival(&mut p, t(0), Some(SimDuration::from_millis(5)), &mut disks);
        assert_eq!(p.predictor().observations(), 0);
        assert_eq!(p.long_predictor().observations(), 0);
    }

    #[test]
    fn history_routes_observations_by_length() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = HistoryBasedMultiSpeed::new(&params, 1.0, 1.0).unwrap();
        arrival(&mut p, t(0), Some(secs(2)), &mut disks);
        arrival(&mut p, t(0), Some(secs(60)), &mut disks);
        assert_eq!(p.predictor().observations(), 1);
        assert_eq!(p.long_predictor().observations(), 1);
    }

    #[test]
    fn history_short_remaining_stays_at_max() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = HistoryBasedMultiSpeed::new(&params, 1.0, 1.0).unwrap();
        // Observed short gap barely above the gate: remaining after the
        // gate is too short for any transition pair, and no long-gap
        // history exists.
        let wake = engage_history(&mut p, &mut disks, SimDuration::from_millis(350), t(0));
        assert_eq!(wake, None);
        assert_eq!(disks[0].counters().rpm_changes, 0);
    }

    #[test]
    fn history_bounds_short_horizon_descent() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = HistoryBasedMultiSpeed::new(&params, 1.0, 1.0).unwrap();
        // A 2.5 s short-gap history: the gate decision must not descend
        // more than three levels even though deeper would save more.
        arrival(
            &mut p,
            t(0),
            Some(SimDuration::from_millis(2_500)),
            &mut disks,
        );
        let gate = idle_start(&mut p, t(0), &mut disks).unwrap();
        disks[0].advance_to(gate);
        timer(&mut p, gate, &mut disks);
        // Let any transition settle (but not long enough for later stages).
        disks[0].advance_to(t(600_000) + SimDuration::from_millis(400));
        let rpm = disks[0].current_rpm().expect("settled");
        assert!(
            rpm.get() >= params.max_rpm.get() - 3 * params.rpm_step,
            "short-horizon descent exceeded three levels: {rpm}"
        );
        assert!(rpm < params.max_rpm, "a profitable short descent happened");
    }

    #[test]
    fn history_moves_all_members_together() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![
            Disk::new(params.clone()).unwrap(),
            Disk::new(params.clone()).unwrap(),
        ];
        let mut p = HistoryBasedMultiSpeed::new(&params, 1.0, 1.0).unwrap();
        engage_history(&mut p, &mut disks, secs(120), t(0));
        for d in &disks {
            assert!(matches!(d.state(), DiskState::ChangingSpeed { .. }));
        }
    }

    #[test]
    fn history_recovers_after_misprediction() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = HistoryBasedMultiSpeed::new(&params, 1.0, 1.0).unwrap();
        engage_history(&mut p, &mut disks, secs(300), t(0));
        // Let the slow-down finish, then a request arrives much earlier
        // than predicted.
        disks[0].advance_to(t(10_000_000));
        let at = t(10_000_000);
        arrival(&mut p, at, Some(secs(10)), &mut disks);
        disks[0].submit(DiskRequest::new(0, RequestKind::Read, 0, 8), at);
        after_submit(&mut p, at, &mut disks);
        // The burst is served at the low speed, then the disk ramps to max.
        disks[0].advance_to(t(60_000_000));
        assert_eq!(disks[0].current_rpm(), Some(params.max_rpm));
        assert_eq!(disks[0].counters().requests_served, 1);
    }

    #[test]
    fn staggered_descends_level_by_level() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = StaggeredMultiSpeed::new(&params, SimDuration::from_millis(1_000)).unwrap();
        let mut armed = idle_start(&mut p, t(0), &mut disks).unwrap();
        let mut steps = 0;
        loop {
            disks[0].advance_to(armed);
            match timer(&mut p, armed, &mut disks) {
                Some(next) => armed = next,
                None => break,
            }
            steps += 1;
            assert!(steps < 1_000, "staggered descent did not terminate");
        }
        disks[0].advance_to(armed + secs(5));
        assert_eq!(disks[0].current_rpm(), Some(params.min_rpm));
        assert_eq!(disks[0].counters().rpm_changes as u32, 7);
    }

    #[test]
    fn staggered_arrival_ramps_to_max_before_service() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = StaggeredMultiSpeed::new(&params, SimDuration::from_millis(1_000)).unwrap();
        // Step down twice.
        let armed = idle_start(&mut p, t(0), &mut disks).unwrap();
        disks[0].advance_to(armed);
        timer(&mut p, armed, &mut disks);
        disks[0].advance_to(t(4_000_000));
        assert_eq!(disks[0].current_rpm(), Some(Rpm::new(10_800)));
        // Request arrives: policy orders the recovery ramp first.
        let at = t(4_000_000);
        arrival(&mut p, at, Some(secs(4)), &mut disks);
        disks[0].submit(DiskRequest::new(0, RequestKind::Read, 0, 8), at);
        disks[0].advance_to(t(10_000_000));
        let done = disks[0].drain_completions();
        assert_eq!(done.len(), 1);
        // Response includes the ramp-up from 10,800 to 12,000 RPM.
        assert!(done[0].response_time() >= params.rpm_change_per_step);
        assert_eq!(disks[0].current_rpm(), Some(params.max_rpm));
    }

    #[test]
    fn staggered_at_floor_stops_scheduling() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = StaggeredMultiSpeed::new(&params, SimDuration::from_millis(1_000)).unwrap();
        disks[0].request_rpm_change(t(0), params.min_rpm, RpmChangePriority::Immediate);
        disks[0].advance_to(t(0) + secs(10));
        let at = disks[0].now();
        assert_eq!(timer(&mut p, at, &mut disks), None);
    }

    #[test]
    fn staggered_mid_transition_retries() {
        let params = DiskParams::paper_defaults();
        let mut disks = single();
        let mut p = StaggeredMultiSpeed::new(&params, SimDuration::from_millis(60)).unwrap();
        let armed = idle_start(&mut p, t(0), &mut disks).unwrap();
        disks[0].advance_to(armed);
        let next = timer(&mut p, armed, &mut disks).unwrap(); // starts step 1 (100 ms)
        disks[0].advance_to(next); // 60 ms into the 100 ms transition
        let retry = timer(&mut p, next, &mut disks);
        assert!(retry.is_some(), "mid-transition timers should reschedule");
        assert_eq!(disks[0].counters().rpm_changes, 1, "no second change yet");
    }
}
