//! The unified energy-decision layer.
//!
//! Every power-management strategy in the workspace — the paper's
//! compile-time-assisted §II schemes, the table-lookup policy distilled
//! from a compiled schedule, and the online family that learns from the
//! live request stream — implements one trait, [`EnergyPolicy`]. The
//! driver ([`crate::PoweredArray`]) translates the kernel's event stream
//! into [`PolicyEvent`]s, hands each event to the policy together with a
//! read-only view of the disks, and applies whatever [`PowerDirective`]s
//! and [`TimerDirective`] the policy emits into its [`Decision`] scratch
//! buffer. Policies never mutate hardware directly; the event→directive
//! split is what lets compile-time and online strategies share one
//! runtime without the driver knowing which family it is hosting.
//!
//! The [`Decision`] buffer is owned by the driver and reused across
//! events, so steady-state decision-making allocates nothing.

use sdds_disk::{Disk, DiskParams, Rpm, RpmChangePriority, SpindlePowerModel};
use simkit::{SimDuration, SimTime};

use crate::analysis;

/// One occurrence on the kernel's event stream, as seen by a policy.
///
/// These are exactly the four hook points the driver has always had;
/// unifying them into a value makes a policy a pure event consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyEvent {
    /// Every disk on the node just became idle (no outstanding requests,
    /// all spindles up). Fired once per idle period.
    IdleStart {
        /// Calendar time of the idleness edge.
        t: SimTime,
    },
    /// The policy's own timer (armed by an earlier [`TimerDirective`])
    /// fired.
    Timer {
        /// Calendar time the timer fired at.
        t: SimTime,
    },
    /// A request is about to be submitted to the node.
    RequestArrival {
        /// Calendar time of the arrival.
        t: SimTime,
        /// Length of the idle period this arrival terminates, when the
        /// node was idle: the policy's observation signal for predictors.
        completed_idle: Option<simkit::SimDuration>,
    },
    /// A request was just handed to its disk (queue depths now reflect
    /// it). Multi-speed policies use this to ramp spindles back up.
    AfterSubmit {
        /// Calendar time of the submission.
        t: SimTime,
    },
}

impl PolicyEvent {
    /// Calendar time the event occurred at.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match *self {
            PolicyEvent::IdleStart { t }
            | PolicyEvent::Timer { t }
            | PolicyEvent::RequestArrival { t, .. }
            | PolicyEvent::AfterSubmit { t } => t,
        }
    }
}

/// A hardware action requested by a policy, applied by the driver in
/// emission order at the event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerDirective {
    /// Begin spinning disk `disk` down to standby.
    SpinDown {
        /// Index of the disk within the node.
        disk: usize,
    },
    /// Begin spinning disk `disk` back up to full speed.
    SpinUp {
        /// Index of the disk within the node.
        disk: usize,
    },
    /// Change disk `disk`'s rotational speed.
    SetRpm {
        /// Index of the disk within the node.
        disk: usize,
        /// Target speed.
        rpm: Rpm,
        /// Whether to preempt in-flight work or wait for idleness.
        priority: RpmChangePriority,
    },
}

/// What should happen to the policy's (single) wake-up timer after an
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimerDirective {
    /// Leave any pending timer as it is.
    #[default]
    Keep,
    /// Cancel the pending timer, if any.
    Clear,
    /// (Re-)arm the timer to fire at the given time.
    At(SimTime),
}

/// The outcome of one [`EnergyPolicy::decide`] call: zero or more
/// hardware directives plus a timer directive.
///
/// The driver owns one `Decision` and [`reset`](Decision::reset)s it
/// before every event, so policies just push into it.
#[derive(Debug, Default)]
pub struct Decision {
    directives: Vec<PowerDirective>,
    timer: TimerDirective,
}

impl Decision {
    /// An empty decision buffer.
    #[must_use]
    pub fn new() -> Self {
        Decision::default()
    }

    /// Clears the buffer for the next event (keeps capacity).
    pub fn reset(&mut self) {
        self.directives.clear();
        self.timer = TimerDirective::Keep;
    }

    /// Requests a spin-down of disk `disk`.
    pub fn spin_down(&mut self, disk: usize) {
        self.directives.push(PowerDirective::SpinDown { disk });
    }

    /// Requests a spin-up of disk `disk`.
    pub fn spin_up(&mut self, disk: usize) {
        self.directives.push(PowerDirective::SpinUp { disk });
    }

    /// Requests a speed change on disk `disk`.
    pub fn set_rpm(&mut self, disk: usize, rpm: Rpm, priority: RpmChangePriority) {
        self.directives.push(PowerDirective::SetRpm {
            disk,
            rpm,
            priority,
        });
    }

    /// Arms the policy timer to fire at `t`.
    pub fn set_timer(&mut self, t: SimTime) {
        self.timer = TimerDirective::At(t);
    }

    /// Cancels any pending policy timer.
    pub fn clear_timer(&mut self) {
        self.timer = TimerDirective::Clear;
    }

    /// The timer directive for this event.
    #[must_use]
    pub fn timer(&self) -> TimerDirective {
        self.timer
    }

    /// The hardware directives, in emission order.
    #[must_use]
    pub fn directives(&self) -> &[PowerDirective] {
        &self.directives
    }

    /// Applies every directive to `disks` at time `t`, in emission order.
    ///
    /// Out-of-range disk indices are ignored (a policy bug surfaced by
    /// the debug assertion, not a crash in release runs).
    pub fn apply(&self, t: SimTime, disks: &mut [Disk]) {
        for d in &self.directives {
            match *d {
                PowerDirective::SpinDown { disk } => {
                    debug_assert!(disk < disks.len(), "directive for unknown disk {disk}");
                    if let Some(target) = disks.get_mut(disk) {
                        target.start_spin_down(t);
                    }
                }
                PowerDirective::SpinUp { disk } => {
                    debug_assert!(disk < disks.len(), "directive for unknown disk {disk}");
                    if let Some(target) = disks.get_mut(disk) {
                        target.start_spin_up(t);
                    }
                }
                PowerDirective::SetRpm {
                    disk,
                    rpm,
                    priority,
                } => {
                    debug_assert!(disk < disks.len(), "directive for unknown disk {disk}");
                    if let Some(target) = disks.get_mut(disk) {
                        target.request_rpm_change(t, rpm, priority);
                    }
                }
            }
        }
    }
}

/// The idle-window steps of §II, written once for every policy that takes
/// them. Each policy keeps its own gating, predictors and timer states and
/// calls these to act on a window it has decided to spend.
impl Decision {
    /// Spends an idle window of length `window` from `t` in standby when
    /// that saves energy over idling at `current` (Fig. 2): spins every
    /// member of `disks` down and arms the wake `spin_up_time` before the
    /// window ends, so the spin-up completes with it. Does nothing when
    /// standby does not pay off, which it never does for a window too
    /// short to hold both the spin-down and the spin-up.
    pub(crate) fn spin_down_through(
        &mut self,
        disks: &[Disk],
        params: &DiskParams,
        model: &SpindlePowerModel,
        current: Rpm,
        t: SimTime,
        window: SimDuration,
    ) {
        if !analysis::spin_down_pays_off(params, model, current, window) {
            return;
        }
        for i in 0..disks.len() {
            self.spin_down(i);
        }
        self.set_timer(t + window.saturating_sub(params.spin_up_time));
    }

    /// Spends an idle window of length `window` from `t` at `level`
    /// (Fig. 3(a)): moves every member of `disks` there unless `level` is
    /// the `current` speed, and, when `level` is below full speed, arms the
    /// ramp back so that it ends with the window, but no sooner than 1 ms
    /// after `t`. Returns whether it armed the ramp back.
    pub(crate) fn slow_down_through(
        &mut self,
        disks: &[Disk],
        params: &DiskParams,
        current: Rpm,
        level: Rpm,
        t: SimTime,
        window: SimDuration,
    ) -> bool {
        if level != current {
            for i in 0..disks.len() {
                self.set_rpm(i, level, RpmChangePriority::Immediate);
            }
        }
        if level >= params.max_rpm {
            return false;
        }
        let ramp_back = params.rpm_change_time(level, params.max_rpm);
        self.set_timer(
            t + window
                .saturating_sub(ramp_back)
                .max(SimDuration::from_millis(1)),
        );
        true
    }

    /// Ramps every member of `disks` that runs below `max_rpm` back to full
    /// speed once its queue drains. Called after a submit: a request found
    /// the node slow (the window was mispredicted), and the burst is
    /// served at the current speed first.
    pub(crate) fn ramp_up_when_drained(&mut self, disks: &[Disk], max_rpm: Rpm) {
        for (i, d) in disks.iter().enumerate() {
            if d.current_rpm().is_some_and(|rpm| rpm < max_rpm) {
                self.set_rpm(i, max_rpm, RpmChangePriority::WhenIdle);
            }
        }
    }
}

/// A power-management strategy driven by the kernel event stream.
///
/// Implementations receive every [`PolicyEvent`] for their node together
/// with a read-only snapshot of the disks, and respond by pushing
/// directives into `out`. The driver applies the directives (in order,
/// at the event time) and honours the timer directive; policies hold
/// whatever internal state they need (predictors, cursors, RNG streams)
/// but never touch hardware themselves.
///
/// Determinism contract: `decide` must be a pure function of the
/// policy's internal state and its inputs. Randomized policies must draw
/// only from a [`simkit::DetRng`] substream owned by the policy, so a
/// given `(seed, node, event stream)` always reproduces the same
/// decisions.
pub trait EnergyPolicy: std::fmt::Debug + Send {
    /// A short stable name (used in reports and trace attribution).
    fn name(&self) -> &'static str;

    /// Reacts to one event by pushing directives into `out`.
    fn decide(&mut self, event: PolicyEvent, disks: &[Disk], out: &mut Decision);

    /// A read-only snapshot of the learner state that the *next* call to
    /// [`EnergyPolicy::decide`] would act on, recorded into every
    /// `PolicyDecision` trace event so attribution can explain each
    /// directive. The default (all-`None`) suits stateless policies;
    /// learners override it. Must not mutate the policy.
    fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot::default()
    }
}

/// The learner-state snapshot behind one policy decision: what the
/// policy believed at the instant it was asked to decide.
///
/// All fields are optional because the five policy families expose
/// different state: fixed-timeout policies carry only a `mode` label,
/// predictive ones a learned gap estimate, the table-driven one the
/// compiler forecast it is about to consume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicySnapshot {
    /// Learned idle-gap estimate (EWMA predictor output), microseconds.
    pub predicted_idle_us: Option<u64>,
    /// Long-horizon forecast, microseconds: the compiler table entry
    /// about to be consumed, or a history policy's long-gap estimate.
    pub forecast_us: Option<u64>,
    /// Decision-mode label (e.g. `"fixed-timeout"`, `"learned"`,
    /// `"bootstrap"`, `"table"`), when the policy distinguishes modes.
    pub mode: Option<&'static str>,
}

/// True when every disk is request-free and spinning (the node-level
/// idleness edge the driver's `IdleStart` event is defined by).
#[must_use]
pub fn node_idle(disks: &[Disk]) -> bool {
    disks
        .iter()
        .all(|d| d.outstanding() == 0 && d.current_rpm().is_some())
}

/// Test helper: runs one event through a policy, applies its directives,
/// and reports the armed timer (`At(t)` → `Some(t)`, otherwise `None`).
#[cfg(test)]
pub(crate) fn drive(
    policy: &mut dyn EnergyPolicy,
    event: PolicyEvent,
    disks: &mut [Disk],
) -> Option<SimTime> {
    let mut out = Decision::new();
    policy.decide(event, disks, &mut out);
    out.apply(event.at(), disks);
    match out.timer() {
        TimerDirective::At(t) => Some(t),
        TimerDirective::Keep | TimerDirective::Clear => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_disk::DiskParams;

    #[test]
    fn decision_reset_clears_directives_and_timer() {
        let mut d = Decision::new();
        d.spin_down(0);
        d.set_timer(SimTime::from_micros(5));
        assert_eq!(d.directives().len(), 1);
        d.reset();
        assert!(d.directives().is_empty());
        assert_eq!(d.timer(), TimerDirective::Keep);
    }

    #[test]
    fn apply_executes_directives_in_order() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![
            Disk::new(params.clone()).unwrap(),
            Disk::new(params.clone()).unwrap(),
        ];
        let mut d = Decision::new();
        d.spin_down(0);
        d.spin_down(1);
        d.apply(SimTime::ZERO, &mut disks);
        // Both disks are now leaving the spun-up state.
        let t = SimTime::ZERO + params.spin_down_time;
        for disk in &mut disks {
            disk.advance_to(t);
            assert_eq!(disk.current_rpm(), None);
        }
    }

    #[test]
    fn event_reports_its_time() {
        let t = SimTime::from_micros(77);
        assert_eq!(PolicyEvent::IdleStart { t }.at(), t);
        assert_eq!(PolicyEvent::Timer { t }.at(), t);
        assert_eq!(
            PolicyEvent::RequestArrival {
                t,
                completed_idle: None
            }
            .at(),
            t
        );
        assert_eq!(PolicyEvent::AfterSubmit { t }.at(), t);
    }

    #[test]
    fn spin_down_wake_lands_spin_up_time_before_the_window_ends() {
        let params = DiskParams::paper_single_speed();
        let model = SpindlePowerModel::new(&params).unwrap();
        let disks = vec![
            Disk::new(params.clone()).unwrap(),
            Disk::new(params.clone()).unwrap(),
        ];
        let t = SimTime::from_micros(7_000_000);
        // The shortest window standby pays off for still holds the whole
        // spin-up before its end.
        let window = crate::analysis::spin_down_breakeven(&params, &model);
        let mut out = Decision::new();
        out.spin_down_through(&disks, &params, &model, params.max_rpm, t, window);
        assert_eq!(
            out.directives(),
            &[
                PowerDirective::SpinDown { disk: 0 },
                PowerDirective::SpinDown { disk: 1 }
            ]
        );
        assert_eq!(
            out.timer(),
            TimerDirective::At(t + (window - params.spin_up_time))
        );
        // One microsecond shorter, standby no longer pays off.
        let mut out = Decision::new();
        let shorter = window - SimDuration::from_micros(1);
        out.spin_down_through(&disks, &params, &model, params.max_rpm, t, shorter);
        assert!(out.directives().is_empty());
        assert_eq!(out.timer(), TimerDirective::Keep);
    }

    #[test]
    fn slow_down_ramp_back_is_floored_at_one_millisecond() {
        let params = DiskParams::paper_defaults();
        let disks = vec![Disk::new(params.clone()).unwrap()];
        let t = SimTime::from_micros(3_000_000);
        // The ramp back from the slowest level outlasts the window.
        let window = SimDuration::from_millis(500);
        assert!(params.rpm_change_time(params.min_rpm, params.max_rpm) > window);
        let mut out = Decision::new();
        assert!(out.slow_down_through(&disks, &params, params.max_rpm, params.min_rpm, t, window));
        assert_eq!(
            out.directives(),
            &[PowerDirective::SetRpm {
                disk: 0,
                rpm: params.min_rpm,
                priority: RpmChangePriority::Immediate,
            }]
        );
        assert_eq!(
            out.timer(),
            TimerDirective::At(t + SimDuration::from_millis(1))
        );
    }

    #[test]
    fn slow_down_to_the_current_level_only_arms_the_ramp_back() {
        let params = DiskParams::paper_defaults();
        let disks = vec![Disk::new(params.clone()).unwrap()];
        let current = Rpm::new(params.max_rpm.get() - 2 * params.rpm_step);
        let t = SimTime::from_micros(3_000_000);
        let window = SimDuration::from_secs(5);
        let mut out = Decision::new();
        assert!(out.slow_down_through(&disks, &params, current, current, t, window));
        assert!(out.directives().is_empty());
        let ramp_back = params.rpm_change_time(current, params.max_rpm);
        assert_eq!(out.timer(), TimerDirective::At(t + (window - ramp_back)));
        // At full speed there is no ramp back to arm.
        let mut out = Decision::new();
        let max = params.max_rpm;
        assert!(!out.slow_down_through(&disks, &params, max, max, t, window));
        assert!(out.directives().is_empty());
        assert_eq!(out.timer(), TimerDirective::Keep);
    }

    #[test]
    fn ramp_up_when_drained_touches_only_slow_members() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![
            Disk::new(params.clone()).unwrap(),
            Disk::new(params.clone()).unwrap(),
            Disk::new(params.clone()).unwrap(),
        ];
        let slow = Rpm::new(params.max_rpm.get() - params.rpm_step);
        disks[0].request_rpm_change(SimTime::ZERO, slow, RpmChangePriority::Immediate);
        disks[2].start_spin_down(SimTime::ZERO);
        let settled = SimTime::ZERO + params.spin_down_time;
        for d in &mut disks {
            d.advance_to(settled);
        }
        let mut out = Decision::new();
        out.ramp_up_when_drained(&disks, params.max_rpm);
        assert_eq!(
            out.directives(),
            &[PowerDirective::SetRpm {
                disk: 0,
                rpm: params.max_rpm,
                priority: RpmChangePriority::WhenIdle,
            }]
        );
        assert_eq!(out.timer(), TimerDirective::Keep);
    }

    #[test]
    fn node_idle_requires_spinning_and_empty() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        assert!(node_idle(&disks));
        disks[0].start_spin_down(SimTime::ZERO);
        disks[0].advance_to(SimTime::ZERO + params.spin_down_time);
        assert!(!node_idle(&disks));
    }
}
