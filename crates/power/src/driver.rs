//! The policy driver: an I/O node's disk array plus its power policy.

use sdds_disk::{CompletedRequest, Disk, DiskCounters, DiskParams, DiskRequest};
use simkit::telemetry::{MetricsRegistry, TraceEvent, TraceSink};
use simkit::{SimDuration, SimTime};

use crate::decide::{
    node_idle, Decision, EnergyPolicy, PolicyEvent, PolicySnapshot, TimerDirective,
};
use crate::error::PolicyError;
use crate::policy::{PolicyContext, PolicyKind};

/// Tracing context for the driver: the node's index in the storage
/// topology plus the buffer policy-decision events are recorded into.
#[derive(Debug)]
struct ArrayTrace {
    node: u32,
    sink: TraceSink,
    /// First energy-saving action ("spin-down"/"speed-change") the policy
    /// took during the current node-idle window, so the window-summary
    /// [`TraceEvent::NodeIdle`] can attribute the window to it.
    window_action: Option<&'static str>,
}

/// One I/O node's disks managed together by a power policy.
///
/// `PoweredArray` interleaves three event sources in timestamp order while
/// simulated time advances: the disks' own phase boundaries (service
/// completions, transition ends), the policy's single pending timer, and
/// request submissions from the caller. It notifies the policy when the
/// *node* becomes idle (no member disk has outstanding work), fires its
/// timers, and lets it react to request arrivals — the I/O-node-level
/// control loop of §II ("if spinning down an I/O node, we spin down all
/// disks attached to it").
///
/// # Event dispatch
///
/// Each step goes to the earliest of the members' next phase boundaries
/// and the policy timer. Every member due at that instant steps, in index
/// order, and only then does a timer due at the same instant fire, so the
/// policy always sees the completions of that instant. A step advances
/// only the members whose state changes at that instant; idle members of
/// a large array are left alone until the enclosing `advance_to` target
/// is reached.
///
/// # Example
///
/// ```
/// use sdds_disk::{DiskParams, DiskRequest, RequestKind};
/// use sdds_power::{PolicyKind, PoweredArray};
/// use simkit::{SimDuration, SimTime};
///
/// let mut node = PoweredArray::new(
///     DiskParams::paper_defaults(),
///     2,
///     PolicyKind::staggered_default(),
/// )
/// .expect("paper defaults are valid");
/// node.submit(0, DiskRequest::new(0, RequestKind::Read, 0, 8), SimTime::ZERO);
/// node.finish(SimTime::ZERO + SimDuration::from_secs(30));
/// assert_eq!(node.drain_completions().len(), 1);
/// ```
#[derive(Debug)]
pub struct PoweredArray {
    disks: Vec<Disk>,
    policy: Box<dyn EnergyPolicy>,
    /// Reusable output buffer for [`EnergyPolicy::decide`] calls (cleared
    /// before every event, so steady-state dispatch allocates nothing).
    decision: Decision,
    /// Set once the policy has been told about the current no-work period.
    idle_signaled: bool,
    /// When the node last ran out of work (valid while it has none).
    node_idle_since: Option<SimTime>,
    /// Total outstanding requests across member disks, maintained
    /// incrementally (submissions add, completions observed while stepping
    /// subtract).
    outstanding: usize,
    /// Member completions not yet drained, counted where `outstanding`
    /// drops, so a drain with nothing to hand out skips the members.
    undrained: usize,
    /// When the policy's pending timer fires, if one is armed.
    timer: Option<SimTime>,
    /// Cached result of [`PoweredArray::next_event_time`], kept current at
    /// every public-API boundary, so a call reads a field instead of
    /// scanning the members.
    cached_next: Option<SimTime>,
    /// Telemetry buffer for policy decisions; `None` (the default) keeps
    /// tracing entirely off the hot path.
    trace: Option<ArrayTrace>,
}

impl PoweredArray {
    /// Creates an array of `count` identical disks at time zero, managed
    /// by the given policy kind.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] if `count` is zero, the disk parameters
    /// are invalid, or the policy rejects the configuration.
    pub fn new(params: DiskParams, count: usize, kind: PolicyKind) -> Result<Self, PolicyError> {
        let policy = kind.build(&params, PolicyContext::default())?;
        Self::with_policy(params, count, policy)
    }

    /// Creates an array managed by an explicit policy object.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] if `count` is zero or the disk
    /// parameters are invalid.
    pub fn with_policy(
        params: DiskParams,
        count: usize,
        policy: Box<dyn EnergyPolicy>,
    ) -> Result<Self, PolicyError> {
        if count == 0 {
            return Err(PolicyError::NoDisks);
        }
        let disks = (0..count)
            .map(|_| Disk::new(params.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PoweredArray {
            disks,
            policy,
            decision: Decision::new(),
            idle_signaled: false,
            node_idle_since: Some(SimTime::ZERO),
            outstanding: 0,
            undrained: 0,
            timer: None,
            cached_next: None,
            trace: None,
        })
    }

    /// Enables structured tracing on the driver and every member disk,
    /// tagging events with this node's index in the storage topology.
    ///
    /// The driver itself records [`TraceEvent::PolicyDecision`] events by
    /// diffing each disk's power counters across every policy hook, so a
    /// decision is attributed to the hook (`"idle-start"`, `"timer"`,
    /// `"arrival"`, `"after-submit"`) that made it. Tracing only buffers
    /// events and never alters the simulation.
    pub fn enable_trace(&mut self, node: u32) {
        for (i, disk) in self.disks.iter_mut().enumerate() {
            disk.enable_trace(node, i as u32);
        }
        self.trace = Some(ArrayTrace {
            node,
            sink: TraceSink::new(),
            window_action: None,
        });
    }

    /// Removes and returns all trace events recorded so far by the driver
    /// and its member disks (empty when tracing was never enabled).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        let mut out = match self.trace.as_mut() {
            Some(tr) => tr.sink.take_events(),
            None => Vec::new(),
        };
        for disk in &mut self.disks {
            out.extend(disk.take_trace_events());
        }
        out
    }

    /// Publishes driver- and disk-level metrics into `registry`: every
    /// member disk under `disk.n<node>.d<i>` plus node totals under
    /// `power.n<node>`.
    pub fn record_metrics(&self, registry: &mut MetricsRegistry, node: u32) {
        for (i, d) in self.disks.iter().enumerate() {
            d.record_metrics(registry, &format!("disk.n{node}.d{i}"));
        }
        registry.gauge(&format!("power.n{node}.total_joules"), self.total_joules());
        registry.gauge(
            &format!("power.n{node}.total_idle_s"),
            self.total_idle().as_secs_f64(),
        );
    }

    /// Snapshots the member disks' power counters if tracing is enabled;
    /// the snapshot brackets a policy hook for decision attribution.
    fn counters_before_hook(&self) -> Option<Vec<DiskCounters>> {
        self.trace
            .is_some()
            .then(|| self.disks.iter().map(|d| d.counters()).collect())
    }

    /// Records one [`TraceEvent::PolicyDecision`] per power action a
    /// policy hook just performed, by diffing against `before`.
    fn record_policy_actions(
        &mut self,
        t: SimTime,
        trigger: &'static str,
        before: &[DiskCounters],
        snap: PolicySnapshot,
    ) {
        let policy = self.policy.name();
        let Some(tr) = self.trace.as_mut() else {
            return;
        };
        for (i, (d, b)) in self.disks.iter().zip(before).enumerate() {
            let c = d.counters();
            for (delta, action) in [
                (c.spin_downs > b.spin_downs, "spin-down"),
                (c.spin_ups > b.spin_ups, "spin-up"),
                (c.rpm_changes > b.rpm_changes, "speed-change"),
            ] {
                if delta {
                    if matches!(action, "spin-down" | "speed-change") && tr.window_action.is_none()
                    {
                        tr.window_action = Some(action);
                    }
                    tr.sink.record(TraceEvent::PolicyDecision {
                        at: t,
                        node: tr.node,
                        disk: i as u32,
                        policy,
                        trigger,
                        action,
                        predicted_idle_us: snap.predicted_idle_us,
                        forecast_us: snap.forecast_us,
                        mode: snap.mode,
                    });
                }
            }
        }
    }

    /// The member disks (read-only).
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    /// Installs one fault profile per member disk (index-aligned).
    /// Extra profiles are ignored; missing ones leave the member
    /// fault-free. See [`sdds_disk::Disk::install_faults`] for what the
    /// disk layer does (and does not) enforce.
    pub fn install_faults(&mut self, profiles: &[simkit::fault::DiskFaultProfile]) {
        for (disk, profile) in self.disks.iter_mut().zip(profiles) {
            disk.install_faults(profile);
        }
    }

    /// Remaps bad sectors overlapping `[lba, lba + sectors)` on member
    /// `disk`, returning how many sectors were remapped.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range.
    pub fn remap_sectors(&mut self, disk: usize, lba: u64, sectors: u32) -> u32 {
        self.disks[disk].remap_sectors(lba, sectors)
    }

    /// Sum of the member disks' fault-injection counters.
    pub fn fault_counters(&self) -> simkit::fault::FaultCounters {
        let mut total = simkit::fault::FaultCounters::default();
        for disk in &self.disks {
            total.merge(&disk.fault_counters());
        }
        total
    }

    /// The next instant at which this node needs attention (a disk phase
    /// boundary or the policy timer), if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.cached_next
    }

    /// Whether advancing to `t` would do more than accrue energy: a member
    /// boundary or the policy timer falls at or before `t`, or the array
    /// still owes its policy an `IdleStart` (a fresh array, or one whose
    /// last request just completed), which the next advance delivers.
    pub fn due_by(&self, t: SimTime) -> bool {
        let idle_pending = self.outstanding == 0 && !self.idle_signaled;
        idle_pending || self.cached_next.is_some_and(|next| next <= t)
    }

    /// Accrues every member up to each of `cuts` in turn: the same
    /// accruals as one [`PoweredArray::advance_to`] per cut point while
    /// nothing is [due](PoweredArray::due_by) by the last of them.
    pub fn accrue_through(&mut self, cuts: &[SimTime]) {
        debug_assert!(
            cuts.last().is_none_or(|&t| !self.due_by(t)),
            "the array has work due inside the cut points"
        );
        for disk in &mut self.disks {
            disk.accrue_through(cuts);
        }
    }

    /// Advances to `t`, firing disk events and policy timers in order.
    ///
    /// When nothing is [due](PoweredArray::due_by) by `t`, the members
    /// only accrue energy up to `t`: the same cut point as the full path,
    /// without its stepping and idle bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than any disk's current time.
    pub fn advance_to(&mut self, t: SimTime) {
        if !self.due_by(t) {
            self.debug_check_outstanding();
            debug_assert!(
                self.disks
                    .iter()
                    .all(|d| d.next_event_time().is_none_or(|at| at > t)),
                "a member boundary is due by {t} but the array only accrues"
            );
            for disk in &mut self.disks {
                disk.advance_to(t);
            }
            return;
        }
        // Members due at an instant step before a timer due at the same
        // instant, so the policy sees that instant's completions.
        loop {
            let member = self.next_member_time();
            match member.into_iter().chain(self.timer).min() {
                Some(at) if at <= t && member == Some(at) => self.step_disks(at),
                Some(at) if at <= t => self.fire_timer(at),
                _ => break,
            }
        }
        for disk in &mut self.disks {
            disk.advance_to(t);
        }
        self.refresh_idle_state();
        self.refresh_cached_next();
    }

    /// Submits a request to member disk `disk` at `t`, routing the arrival
    /// through the policy.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range or `t` is earlier than the current
    /// time.
    pub fn submit(&mut self, disk: usize, request: DiskRequest, t: SimTime) {
        assert!(disk < self.disks.len(), "disk index {disk} out of range");
        self.advance_to(t);
        let completed_idle = if self.outstanding == 0 {
            self.node_idle_since.map(|s| t.saturating_since(s))
        } else {
            None
        };
        if let (Some(idle), Some(tr)) = (completed_idle, self.trace.as_mut()) {
            // Summarize the node-idle window that this arrival closes,
            // attributed to the first energy-saving action the policy took
            // inside it ("none" when the node just stayed spinning).
            let action = tr.window_action.take().unwrap_or("none");
            tr.sink.record(TraceEvent::NodeIdle {
                at: t,
                node: tr.node,
                idle_us: idle.as_micros(),
                action,
            });
        }
        if self.outstanding == 0 {
            // Any pending idle-period action is now moot.
            self.timer = None;
        }
        self.dispatch(PolicyEvent::RequestArrival { t, completed_idle }, "arrival");
        self.disks[disk].submit(request, t);
        self.outstanding += 1;
        self.idle_signaled = false;
        self.node_idle_since = None;
        self.dispatch(PolicyEvent::AfterSubmit { t }, "after-submit");
        self.refresh_cached_next();
    }

    /// Finishes the simulation at `t`.
    pub fn finish(&mut self, t: SimTime) {
        self.advance_to(t);
        for disk in &mut self.disks {
            disk.finish(t);
        }
    }

    /// Removes and returns completions from all member disks as
    /// `(disk_index, completion)` pairs.
    pub fn drain_completions(&mut self) -> Vec<(usize, CompletedRequest)> {
        let mut out = Vec::new();
        self.drain_completions_with(|i, c| out.push((i, c)));
        out
    }

    /// Feeds every member-disk completion to `sink` as
    /// `(disk_index, completion)` and clears them, allocating nothing —
    /// the hot-path variant of [`PoweredArray::drain_completions`].
    /// Returns at once when no member has completed anything.
    pub fn drain_completions_with(&mut self, mut sink: impl FnMut(usize, CompletedRequest)) {
        if self.undrained == 0 {
            return;
        }
        self.undrained = 0;
        for (i, disk) in self.disks.iter_mut().enumerate() {
            disk.for_each_completion(|c| sink(i, c));
        }
    }

    /// Total energy consumed so far, in joules.
    pub fn total_joules(&self) -> f64 {
        self.disks.iter().map(|d| d.energy().total_joules()).sum()
    }

    /// Sum of each disk's completed idle time.
    pub fn total_idle(&self) -> SimDuration {
        self.disks
            .iter()
            .map(|d| d.idle_tracker().total_idle())
            .sum()
    }

    /// The earliest phase boundary of any member disk.
    fn next_member_time(&self) -> Option<SimTime> {
        self.disks.iter().filter_map(Disk::next_event_time).min()
    }

    /// Recomputes the cached public next-event time.
    fn refresh_cached_next(&mut self) {
        self.cached_next = self.next_member_time().into_iter().chain(self.timer).min();
    }

    /// Steps every member whose boundary is due at `at`, in index order,
    /// counting the completions it hands out. Idle members are left
    /// untouched.
    fn step_disks(&mut self, at: SimTime) {
        for disk in &mut self.disks {
            if disk.next_event_time() == Some(at) {
                let before = disk.outstanding();
                disk.advance_to(at);
                let completed = before - disk.outstanding();
                self.outstanding -= completed;
                self.undrained += completed;
            }
        }
        self.refresh_idle_state();
    }

    /// Fires the policy timer due at `at`. Every member due at `at` has
    /// stepped already, so catching the others up to `at` only accrues.
    fn fire_timer(&mut self, at: SimTime) {
        self.timer = None;
        for disk in &mut self.disks {
            if disk.now() < at {
                disk.advance_to(at);
            }
        }
        self.refresh_idle_state();
        self.dispatch(PolicyEvent::Timer { t: at }, "timer");
    }

    /// Runs one event through the policy: decide, apply the emitted
    /// directives at the event time, honour the timer directive, and
    /// attribute any power actions to `trigger` in the trace.
    fn dispatch(&mut self, event: PolicyEvent, trigger: &'static str) {
        let t = event.at();
        let before = self.counters_before_hook();
        // Snapshot the learner state *before* the decision mutates it, so
        // the trace records exactly what the policy believed when it acted.
        let snap = before.as_ref().map(|_| self.policy.snapshot());
        self.decision.reset();
        self.policy.decide(event, &self.disks, &mut self.decision);
        self.decision.apply(t, &mut self.disks);
        match self.decision.timer() {
            TimerDirective::Keep => {}
            TimerDirective::Clear => self.timer = None,
            TimerDirective::At(at) => self.timer = Some(at),
        }
        if let (Some(before), Some(snap)) = (before, snap) {
            self.record_policy_actions(t, trigger, &before, snap);
        }
    }

    /// Checks (in debug builds) that the incremental outstanding count
    /// equals the members' sum. Completions are counted for the drain
    /// where that count drops, so this also shows no member completed
    /// anything uncounted.
    fn debug_check_outstanding(&self) {
        debug_assert_eq!(
            self.outstanding,
            self.disks.iter().map(|d| d.outstanding()).sum::<usize>(),
            "incremental outstanding count out of sync"
        );
    }

    /// Tracks node idleness and signals `on_idle_start` exactly once per
    /// no-work period, at the moment every disk is free and settled.
    fn refresh_idle_state(&mut self) {
        self.debug_check_outstanding();
        if self.outstanding == 0 {
            // Construction guarantees at least one disk, so `max()` over
            // the members is always present.
            if self.node_idle_since.is_none() {
                // The period began when the last disk finished.
                let last = self
                    .disks
                    .iter()
                    .map(|d| d.now())
                    .max()
                    .unwrap_or(SimTime::ZERO);
                self.node_idle_since = Some(last);
            }
            if !self.idle_signaled && node_idle(&self.disks) {
                self.idle_signaled = true;
                let t = self
                    .disks
                    .iter()
                    .map(|d| d.now())
                    .max()
                    .unwrap_or(SimTime::ZERO);
                self.dispatch(PolicyEvent::IdleStart { t }, "idle-start");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_disk::{DiskState, RequestKind};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn req(id: u64) -> DiskRequest {
        DiskRequest::new(id, RequestKind::Read, (id % 7) * 1_000_000, 64)
    }

    #[test]
    fn no_pm_never_transitions() {
        let mut node =
            PoweredArray::new(DiskParams::paper_defaults(), 2, PolicyKind::NoPm).unwrap();
        for i in 0..5 {
            node.submit((i % 2) as usize, req(i), t(i * 2_000_000));
        }
        node.finish(t(60_000_000));
        for d in node.disks() {
            assert_eq!(d.counters().spin_downs, 0);
            assert_eq!(d.counters().rpm_changes, 0);
        }
        assert_eq!(node.drain_completions().len(), 5);
    }

    #[test]
    fn simple_policy_spins_whole_node() {
        let mut node = PoweredArray::new(
            DiskParams::paper_single_speed(),
            4,
            PolicyKind::simple_spin_down_default(),
        )
        .unwrap();
        node.submit(0, req(0), t(0));
        // Long gap: the timeout fires and every member disk spins down.
        node.submit(1, req(1), t(300_000_000));
        node.finish(t(400_000_000));
        for d in node.disks() {
            assert!(
                d.counters().spin_downs >= 1,
                "every member disk should spin down together"
            );
        }
    }

    #[test]
    fn node_idle_waits_for_all_members() {
        let mut node = PoweredArray::new(
            DiskParams::paper_single_speed(),
            2,
            PolicyKind::simple_spin_down_default(),
        )
        .unwrap();
        // Keep disk 0 busy with a large request while disk 1 idles: the
        // idle signal (and thus spin-down) must wait for both.
        node.submit(0, DiskRequest::new(0, RequestKind::Read, 0, 60_000), t(0));
        node.advance_to(t(2_000_000));
        assert_eq!(node.disks()[1].counters().spin_downs, 0);
        // After the big request completes plus the timeout, both spin down.
        node.finish(t(30_000_000));
        assert!(node.disks()[0].counters().spin_downs >= 1);
        assert!(node.disks()[1].counters().spin_downs >= 1);
    }

    #[test]
    fn simple_policy_saves_energy_on_long_idle() {
        let horizon = t(600_000_000); // 10 minutes
        let mut default =
            PoweredArray::new(DiskParams::paper_single_speed(), 1, PolicyKind::NoPm).unwrap();
        default.submit(0, req(0), t(0));
        default.finish(horizon);

        let mut simple = PoweredArray::new(
            DiskParams::paper_single_speed(),
            1,
            PolicyKind::simple_spin_down_default(),
        )
        .unwrap();
        simple.submit(0, req(0), t(0));
        simple.finish(horizon);

        assert!(
            simple.total_joules() < default.total_joules() * 0.6,
            "simple {} J vs default {} J",
            simple.total_joules(),
            default.total_joules()
        );
    }

    #[test]
    fn history_policy_saves_energy_on_medium_idles() {
        // 10 s gaps: far below the ~60 s spin-down break-even but enough
        // for a speed reduction to pay off.
        let params = DiskParams::paper_defaults();
        let gaps: Vec<SimTime> = (0..20).map(|i| t(i * 10_000_000)).collect();

        let mut default = PoweredArray::new(params.clone(), 1, PolicyKind::NoPm).unwrap();
        for (i, &at) in gaps.iter().enumerate() {
            default.submit(0, req(i as u64), at);
        }
        default.finish(t(210_000_000));

        let mut history =
            PoweredArray::new(params.clone(), 1, PolicyKind::history_based_default()).unwrap();
        for (i, &at) in gaps.iter().enumerate() {
            history.submit(0, req(i as u64), at);
        }
        history.finish(t(210_000_000));

        assert!(
            history.total_joules() < default.total_joules(),
            "history {} J vs default {} J",
            history.total_joules(),
            default.total_joules()
        );
        assert!(history.disks()[0].counters().rpm_changes > 0);
    }

    #[test]
    fn staggered_policy_descends_and_recovers() {
        let params = DiskParams::paper_defaults();
        let mut node =
            PoweredArray::new(params.clone(), 1, PolicyKind::staggered_default()).unwrap();
        node.submit(0, req(0), t(0));
        // 30 s idle: plenty of steps to descend.
        node.submit(0, req(1), t(30_000_000));
        node.finish(t(60_000_000));
        let c = node.disks()[0].counters();
        assert!(c.rpm_changes >= 3, "expected a staggered descent");
        assert_eq!(c.requests_served, 2);
    }

    #[test]
    fn idle_signal_fires_once_per_period() {
        let mut node = PoweredArray::new(
            DiskParams::paper_single_speed(),
            1,
            PolicyKind::simple_spin_down_default(),
        )
        .unwrap();
        node.submit(0, req(0), t(0));
        node.finish(t(300_000_000));
        assert_eq!(node.disks()[0].counters().spin_downs, 1);
    }

    #[test]
    fn advance_only_array_signals_its_first_idle_start() {
        // Never submitted to: the node starts idle with its first
        // `IdleStart` pending, which the first advance must deliver, so
        // the fixed timeout runs from that advance.
        let mut node = PoweredArray::new(
            DiskParams::paper_defaults(),
            4,
            PolicyKind::simple_spin_down_default(),
        )
        .unwrap();
        node.advance_to(t(1_000_000));
        assert_eq!(node.next_event_time(), Some(t(21_000_000)));
        node.advance_to(t(20_999_999));
        assert!(node.disks().iter().all(|d| d.counters().spin_downs == 0));
        node.advance_to(t(21_000_000));
        for d in node.disks() {
            assert_eq!(d.state(), DiskState::SpinningDown);
            assert_eq!(d.counters().spin_downs, 1);
        }
        node.finish(t(60_000_000));
        for d in node.disks() {
            assert_eq!(d.energy().residency("idle"), SimDuration::from_secs(21));
        }
    }

    #[test]
    fn next_event_time_covers_timer() {
        let mut node = PoweredArray::new(
            DiskParams::paper_single_speed(),
            1,
            PolicyKind::simple_spin_down_default(),
        )
        .unwrap();
        node.submit(0, req(0), t(0));
        node.advance_to(t(1_000_000));
        let next = node.next_event_time().expect("timer should be pending");
        assert!(next > t(1_000_000));
    }

    #[test]
    fn cached_next_event_matches_disk_state() {
        let mut node =
            PoweredArray::new(DiskParams::paper_defaults(), 3, PolicyKind::NoPm).unwrap();
        assert_eq!(node.next_event_time(), None);
        node.submit(1, req(0), t(0));
        let cached = node.next_event_time();
        let scanned = node
            .disks()
            .iter()
            .filter_map(|d| d.next_event_time())
            .min();
        assert_eq!(cached, scanned);
        assert!(cached.is_some());
        node.advance_to(t(40_000_000));
        assert_eq!(node.next_event_time(), None);
    }

    #[test]
    fn idle_disks_are_not_touched_per_event() {
        // Regression: event dispatch must only advance disks whose cached
        // next event is due, not every member of the array.
        let submits = 50u64;
        let mut node =
            PoweredArray::new(DiskParams::paper_defaults(), 100, PolicyKind::NoPm).unwrap();
        for i in 0..submits {
            node.submit(0, req(i), t(i * 500_000));
        }
        node.finish(t(submits * 500_000 + 5_000_000));
        assert_eq!(node.drain_completions().len(), submits as usize);

        let busy = node.disks()[0].advance_calls();
        let idle_max = node.disks()[1..]
            .iter()
            .map(|d| d.advance_calls())
            .max()
            .expect("99 idle disks");
        // Each submit (and the final finish) catches every disk up to the
        // current time exactly once; the per-request seek-end and
        // transfer-end events must touch only disk 0. The old scan-based
        // dispatch advanced all 100 disks at each of those events.
        assert!(
            idle_max <= submits + 2,
            "idle disks were advanced {idle_max} times for {submits} submits"
        );
        assert!(
            busy >= idle_max + 2 * submits,
            "busy disk advanced {busy} times vs idle {idle_max}"
        );
    }

    /// Arms its timer at the member's next phase boundary after every
    /// submit and at every timer, so each boundary of a request ties with
    /// a timer.
    #[derive(Debug)]
    struct TimerOnBoundary;

    impl EnergyPolicy for TimerOnBoundary {
        fn name(&self) -> &'static str {
            "timer-on-boundary"
        }

        fn decide(&mut self, event: PolicyEvent, disks: &[Disk], out: &mut Decision) {
            if let PolicyEvent::AfterSubmit { .. } | PolicyEvent::Timer { .. } = event {
                if let Some(at) = disks[0].next_event_time() {
                    out.set_timer(at);
                }
            }
        }
    }

    #[test]
    fn members_due_with_the_timer_step_first() {
        let mut node =
            PoweredArray::with_policy(DiskParams::paper_defaults(), 1, Box::new(TimerOnBoundary))
                .unwrap();
        node.submit(0, req(3), t(0));
        // The timer ties with the seek end, then with the completion. The
        // member steps first each time, so the timer that fires at the
        // completion finds it counted, not handed out behind the count.
        let seek_end = node.next_event_time().expect("seek in progress");
        assert!(seek_end > t(0));
        node.advance_to(seek_end);
        let done = node.next_event_time().expect("transfer in progress");
        assert!(done > seek_end);
        node.advance_to(done);
        assert_eq!(node.next_event_time(), None);
        assert_eq!(node.drain_completions().len(), 1);
        node.finish(t(10_000_000));
        assert_eq!(node.disks()[0].counters().requests_served, 1);
        assert!(node.drain_completions().is_empty());
    }

    #[test]
    fn trace_attributes_spin_down_to_policy_timer() {
        let mut node = PoweredArray::new(
            DiskParams::paper_single_speed(),
            2,
            PolicyKind::simple_spin_down_default(),
        )
        .unwrap();
        node.enable_trace(3);
        node.submit(0, req(0), t(0));
        node.finish(t(300_000_000));
        let events = node.take_trace_events();
        let decisions: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PolicyDecision {
                    node,
                    policy,
                    trigger,
                    action,
                    ..
                } => Some((*node, *policy, *trigger, *action)),
                _ => None,
            })
            .collect();
        // The fixed-timeout policy spins both disks down from its timer.
        assert_eq!(decisions.len(), 2);
        for d in &decisions {
            assert_eq!(*d, (3, "simple", "timer", "spin-down"));
        }
        // Every decision carries the policy's learner-state snapshot; the
        // fixed-timeout policy has no predictor, only a mode label.
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::PolicyDecision {
                mode: Some("fixed-timeout"),
                predicted_idle_us: None,
                ..
            }
        )));
        // Member-disk state transitions ride along in the same stream.
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::DiskState {
                to: "spin-down",
                ..
            }
        )));
    }

    #[test]
    fn node_idle_window_attributed_to_spin_down() {
        let mut node = PoweredArray::new(
            DiskParams::paper_single_speed(),
            1,
            PolicyKind::simple_spin_down_default(),
        )
        .unwrap();
        node.enable_trace(0);
        node.submit(0, req(0), t(0));
        // Long gap: the window the second arrival closes saw a spin-down.
        node.submit(0, req(1), t(300_000_000));
        node.finish(t(310_000_000));
        let events = node.take_trace_events();
        let windows: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::NodeIdle {
                    idle_us, action, ..
                } => Some((*idle_us, *action)),
                _ => None,
            })
            .collect();
        assert_eq!(windows.len(), 2, "one summary per closed idle window");
        // Window 1 closed by the t=0 arrival: zero-length, no action.
        assert_eq!(windows[0], (0, "none"));
        // Window 2 spans the long gap and was spun down.
        assert_eq!(windows[1].1, "spin-down");
        assert!(windows[1].0 > 200_000_000);
    }

    #[test]
    fn record_metrics_covers_all_members() {
        let mut node =
            PoweredArray::new(DiskParams::paper_defaults(), 2, PolicyKind::NoPm).unwrap();
        node.submit(0, req(0), t(0));
        node.finish(t(10_000_000));
        let mut reg = MetricsRegistry::new();
        node.record_metrics(&mut reg, 1);
        assert_eq!(reg.get_counter("disk.n1.d0.requests_served"), Some(1));
        assert_eq!(reg.get_counter("disk.n1.d1.requests_served"), Some(0));
        let total = reg.get_gauge("power.n1.total_joules").unwrap();
        assert!((total - node.total_joules()).abs() < 1e-12);
    }

    #[test]
    fn determinism_same_inputs_same_energy() {
        let run = || {
            let mut node = PoweredArray::new(
                DiskParams::paper_defaults(),
                2,
                PolicyKind::history_based_default(),
            )
            .unwrap();
            for i in 0..50u64 {
                node.submit(
                    (i % 2) as usize,
                    req(i),
                    t(i * 3_000_000 + (i % 5) * 100_000),
                );
            }
            node.finish(t(200_000_000));
            node.total_joules()
        };
        assert_eq!(run(), run());
    }
}
