//! The simulated disk: request service, power-state machine, energy
//! integration.

use simkit::fault::{DiskFaultProfile, FaultCounters};
use simkit::stats::OnlineStats;
use simkit::telemetry::{TraceEvent, TraceSink};
#[cfg(test)]
use simkit::SimDuration;
use simkit::{DetRng, SimTime};

use crate::elevator::{ElevatorQueue, PendingRequest};
use crate::energy::{EnergyAccount, StateBucket};
use crate::idle::IdleTracker;
use crate::params::{DiskParams, Rpm};
use crate::power::SpindlePowerModel;
pub use crate::request::CompletedRequest;
use crate::request::{DiskRequest, ServiceOutcome};
use crate::service::service_timing;
use crate::state::DiskState;

/// When a requested speed change should take effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpmChangePriority {
    /// Apply only once the disk has no queued work (opportunistic
    /// slow-down).
    WhenIdle,
    /// Apply before serving the next queued request (urgent ramp-up; queued
    /// requests wait for the transition).
    Immediate,
}

/// A pending speed-change directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingRpm {
    target: Rpm,
    priority: RpmChangePriority,
}

/// The request currently in service.
#[derive(Debug, Clone, Copy)]
struct InService {
    pending: PendingRequest,
    service_start: SimTime,
    completion: SimTime,
    target_cylinder: u32,
    /// Whole-disk energy total at service start, so the completion event
    /// can carry the exact energy metered over the service window.
    energy_at_start: f64,
}

/// Tracing context: where this disk sits in the array topology, plus the
/// event buffer it records into while telemetry is enabled.
#[derive(Debug)]
struct TraceCtx {
    node: u32,
    disk: u32,
    sink: TraceSink,
}

/// The installed disk-level fault model: the static profile expanded
/// into mutable state (the bad-sector set shrinks as the storage layer
/// remaps ranges) plus this disk's private transient-draw stream.
///
/// Crash windows are *not* represented here — a crashed disk is
/// unreachable, which is a property of the I/O path, so the storage
/// layer enforces them at submission time while the disk's power state
/// machine (and therefore its energy accounting) runs on unchanged.
#[derive(Debug)]
struct DiskFaultState {
    /// Unremapped bad sectors, sorted ascending.
    bad_sectors: Vec<u64>,
    /// Mechanical service-time multiplier (`> 1` for stragglers).
    slow_factor: f64,
    /// Per-read transient error probability.
    transient_rate: f64,
    /// Private draw stream, seeded from the fault plan.
    rng: DetRng,
    injected_transient: u64,
    injected_bad_sector: u64,
}

impl DiskFaultState {
    /// Returns `true` when `[lba, lba + sectors)` touches an unremapped
    /// bad sector.
    fn overlaps_bad(&self, lba: u64, sectors: u32) -> bool {
        let end = lba + sectors as u64;
        let i = self.bad_sectors.partition_point(|&s| s < lba);
        self.bad_sectors.get(i).is_some_and(|&s| s < end)
    }

    /// Decides how a completing read attempt ends. Bad sectors fail
    /// deterministically; otherwise the transient coin is flipped on the
    /// disk's private stream (one draw per completed read, in
    /// completion order, so the sequence is reproducible).
    fn read_outcome(&mut self, request: &DiskRequest) -> ServiceOutcome {
        if self.overlaps_bad(request.lba, request.sectors) {
            self.injected_bad_sector += 1;
            return ServiceOutcome::BadSector;
        }
        if self.transient_rate > 0.0 && self.rng.chance(self.transient_rate) {
            self.injected_transient += 1;
            return ServiceOutcome::TransientError;
        }
        ServiceOutcome::Ok
    }
}

/// Lifetime counters of power-relevant events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Spin-down transitions begun.
    pub spin_downs: u64,
    /// Spin-up transitions begun.
    pub spin_ups: u64,
    /// Speed changes begun (excluding spin-up/down).
    pub rpm_changes: u64,
    /// Requests fully served.
    pub requests_served: u64,
}

/// A single simulated multi-speed disk.
///
/// The disk is driven by two kinds of calls: [`Disk::submit`] hands it a
/// request at a given time, and [`Disk::advance_to`] lets simulated time
/// progress (processing service completions and state transitions, and
/// integrating energy). Power-management policies additionally invoke the
/// control operations [`Disk::start_spin_down`], [`Disk::start_spin_up`] and
/// [`Disk::request_rpm_change`].
///
/// Requests arriving while the platters are stopped or in transition
/// automatically trigger (or wait for) a spin-up — the disk always makes
/// forward progress without policy help.
#[derive(Debug)]
pub struct Disk {
    params: DiskParams,
    power: SpindlePowerModel,
    now: SimTime,
    state: DiskState,
    /// Power drawn in `state`, fixed when the state is entered.
    watts: f64,
    /// Energy bucket of `state`, fixed when the state is entered.
    bucket: StateBucket,
    /// End time of the current timed phase (service phase or transition).
    phase_end: Option<SimTime>,
    current: Option<InService>,
    queue: ElevatorQueue,
    arm_cylinder: u32,
    /// Requests submitted but not yet completed (queued + in service).
    outstanding: usize,
    pending_rpm: Option<PendingRpm>,
    /// A request arrived while spinning down; spin up as soon as standby is
    /// reached.
    spin_up_after_down: bool,
    energy: EnergyAccount,
    idle: IdleTracker,
    completions: Vec<CompletedRequest>,
    response_times: OnlineStats,
    counters: DiskCounters,
    /// Times `advance_to` was invoked (perf introspection: an idle disk in
    /// a large array should *not* be advanced once per array event).
    advance_calls: u64,
    /// Telemetry buffer; `None` (the default) keeps tracing entirely off
    /// the hot path.
    trace: Option<TraceCtx>,
    /// Fault model; `None` (the default) keeps the service path free of
    /// fault branches and RNG draws — bit-for-bit the fault-free disk.
    faults: Option<DiskFaultState>,
}

impl Disk {
    /// Creates a disk at time zero, idle at full speed.
    ///
    /// # Errors
    ///
    /// Returns the [`DiskError`](crate::DiskError) produced by
    /// [`DiskParams::validate`] if the configuration is inconsistent.
    pub fn new(params: DiskParams) -> Result<Self, crate::DiskError> {
        let power = SpindlePowerModel::new(&params)?;
        let state = DiskState::Idle {
            rpm: params.max_rpm,
        };
        Ok(Disk {
            watts: power.watts(&state),
            bucket: StateBucket::of(&state),
            params,
            power,
            now: SimTime::ZERO,
            state,
            phase_end: None,
            current: None,
            queue: ElevatorQueue::new(),
            arm_cylinder: 0,
            outstanding: 0,
            pending_rpm: None,
            spin_up_after_down: false,
            energy: EnergyAccount::new(),
            idle: IdleTracker::new(),
            completions: Vec::new(),
            response_times: OnlineStats::new(),
            counters: DiskCounters::default(),
            advance_calls: 0,
            trace: None,
            faults: None,
        })
    }

    /// Installs the disk-level portion of a fault profile: bad sectors,
    /// straggler slowdown and transient read errors. Crash windows are
    /// ignored here: a crashed disk is unreachable, a property of the I/O
    /// path, so the storage layer enforces them at submission time. Installing a profile with none of the disk-level
    /// faults active is a no-op, so fault-free disks carry no state.
    pub fn install_faults(&mut self, profile: &DiskFaultProfile) {
        if profile.bad_sectors.is_empty()
            && profile.slow_factor <= 1.0
            && profile.transient_rate <= 0.0
        {
            return;
        }
        self.faults = Some(DiskFaultState {
            bad_sectors: profile.bad_sectors.clone(),
            slow_factor: profile.slow_factor,
            transient_rate: profile.transient_rate,
            rng: DetRng::new(profile.rng_seed),
            injected_transient: 0,
            injected_bad_sector: 0,
        });
    }

    /// Remaps every bad sector overlapping `[lba, lba + sectors)` to a
    /// healthy reserve, so subsequent reads of the range stop failing.
    /// Returns the number of sectors remapped (zero without a fault
    /// model or when none overlapped).
    pub fn remap_sectors(&mut self, lba: u64, sectors: u32) -> u32 {
        let Some(f) = self.faults.as_mut() else {
            return 0;
        };
        let end = lba + sectors as u64;
        let before = f.bad_sectors.len();
        f.bad_sectors.retain(|&s| s < lba || s >= end);
        (before - f.bad_sectors.len()) as u32
    }

    /// Disk-level fault-injection counters (all zero without a fault
    /// model). Only the `injected_*` fields are populated here; recovery
    /// counters belong to the storage layer.
    pub fn fault_counters(&self) -> FaultCounters {
        match self.faults.as_ref() {
            Some(f) => FaultCounters {
                injected_transient: f.injected_transient,
                injected_bad_sector: f.injected_bad_sector,
                ..FaultCounters::default()
            },
            None => FaultCounters::default(),
        }
    }

    /// Enables structured tracing, tagging every recorded event with the
    /// disk's position (`node`, `disk`) in the array topology.
    ///
    /// Tracing only buffers events; it never changes the simulation
    /// (state transitions, timing and energy are bit-for-bit identical
    /// with tracing on or off).
    pub fn enable_trace(&mut self, node: u32, disk: u32) {
        self.trace = Some(TraceCtx {
            node,
            disk,
            sink: TraceSink::new(),
        });
    }

    /// Removes and returns all trace events recorded so far (empty when
    /// tracing was never enabled).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        match self.trace.as_mut() {
            Some(tr) => tr.sink.take_events(),
            None => Vec::new(),
        }
    }

    /// The disk's configuration.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Current simulated time of this disk.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current power state.
    pub fn state(&self) -> DiskState {
        self.state
    }

    /// The current rotational speed, if the platters are at a stable speed.
    pub fn current_rpm(&self) -> Option<Rpm> {
        self.state.rpm()
    }

    /// Number of requests submitted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Accumulated energy account.
    pub fn energy(&self) -> &EnergyAccount {
        &self.energy
    }

    /// Idle-period statistics.
    pub fn idle_tracker(&self) -> &IdleTracker {
        &self.idle
    }

    /// Event counters.
    pub fn counters(&self) -> DiskCounters {
        self.counters
    }

    /// The next instant at which the disk's state will change on its own
    /// (service phase boundary or transition end), if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.phase_end
    }

    /// Removes and returns all completions recorded so far.
    pub fn drain_completions(&mut self) -> Vec<CompletedRequest> {
        std::mem::take(&mut self.completions)
    }

    /// Feeds every recorded completion to `sink` in completion order and
    /// clears them, retaining the buffer's capacity — the zero-allocation
    /// variant of [`Disk::drain_completions`] used on the simulation hot
    /// path.
    pub fn for_each_completion(&mut self, mut sink: impl FnMut(CompletedRequest)) {
        for c in self.completions.drain(..) {
            sink(c);
        }
    }

    /// Publishes this disk's statistics into `registry` under `prefix`
    /// (e.g. `disk.n0.d2`): per-state energy and residency, the
    /// power-event counters and the response-time summary. Pull-style:
    /// reads the statistics the disk already keeps, so it can run with
    /// tracing disabled.
    pub fn record_metrics(&self, registry: &mut simkit::telemetry::MetricsRegistry, prefix: &str) {
        registry.counter(&format!("{prefix}.spin_downs"), self.counters.spin_downs);
        registry.counter(&format!("{prefix}.spin_ups"), self.counters.spin_ups);
        registry.counter(&format!("{prefix}.rpm_changes"), self.counters.rpm_changes);
        registry.counter(
            &format!("{prefix}.requests_served"),
            self.counters.requests_served,
        );
        for (state, e) in self.energy.iter() {
            registry.gauge(&format!("{prefix}.energy_joules.{state}"), e.joules);
            registry.gauge(
                &format!("{prefix}.residency_s.{state}"),
                e.residency.as_secs_f64(),
            );
        }
        registry.gauge(
            &format!("{prefix}.energy_joules.total"),
            self.energy.total_joules(),
        );
        registry.summary(&format!("{prefix}.response_time_s"), &self.response_times);
    }

    /// How many times [`Disk::advance_to`] has been called on this disk
    /// (directly or via `submit`/control operations). Perf introspection:
    /// event dispatch must not advance disks that have nothing to do.
    pub fn advance_calls(&self) -> u64 {
        self.advance_calls
    }

    /// Advances simulated time to `t`, processing completions and
    /// transitions and integrating energy.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the disk's current time.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "disk time cannot move backwards ({} -> {})",
            self.now,
            t
        );
        self.advance_calls += 1;
        loop {
            match self.phase_end {
                Some(end) if end <= t => {
                    self.accrue_until(end);
                    self.on_phase_end();
                }
                _ => {
                    self.accrue_until(t);
                    break;
                }
            }
        }
    }

    /// Submits a request at time `t` (advancing the disk to `t` first).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the disk's current time.
    pub fn submit(&mut self, request: DiskRequest, t: SimTime) {
        self.advance_to(t);
        if self.outstanding == 0 {
            self.idle.work_arrived(t);
        }
        self.outstanding += 1;
        let cylinder = self.params.cylinder_of(request.lba);
        self.queue.push(request, t, cylinder);
        match self.state {
            DiskState::Idle { .. } => self.try_start_next(),
            DiskState::Standby => {
                self.begin_spin_up();
            }
            DiskState::SpinningDown => {
                self.spin_up_after_down = true;
            }
            // Seeking/Transferring/SpinningUp/ChangingSpeed: the request
            // waits; on_phase_end will pick it up.
            _ => {}
        }
    }

    /// Requests a transition to the spun-down (standby) state.
    ///
    /// Accepted only when the disk is idle with no queued work; returns
    /// `true` if the transition began.
    pub fn start_spin_down(&mut self, t: SimTime) -> bool {
        self.advance_to(t);
        if !matches!(self.state, DiskState::Idle { .. }) || self.outstanding > 0 {
            return false;
        }
        self.set_state(DiskState::SpinningDown);
        self.phase_end = Some(self.now + self.params.spin_down_time);
        self.counters.spin_downs += 1;
        true
    }

    /// Requests a spin-up from standby (used by predictive policies to hide
    /// the spin-up latency). Returns `true` if a spin-up began or was
    /// scheduled to follow an in-progress spin-down.
    pub fn start_spin_up(&mut self, t: SimTime) -> bool {
        self.advance_to(t);
        match self.state {
            DiskState::Standby => {
                self.begin_spin_up();
                true
            }
            DiskState::SpinningDown => {
                self.spin_up_after_down = true;
                true
            }
            _ => false,
        }
    }

    /// Requests a change of rotational speed.
    ///
    /// When the disk is idle with no work the change starts immediately;
    /// otherwise it is remembered and applied according to `priority`.
    /// A later request supersedes an earlier pending one. Returns `true`
    /// if the change started immediately.
    ///
    /// # Panics
    ///
    /// Panics if `target` is outside the disk's supported speed levels.
    pub fn request_rpm_change(
        &mut self,
        t: SimTime,
        target: Rpm,
        priority: RpmChangePriority,
    ) -> bool {
        assert!(
            self.params.rpm_levels().contains(&target),
            "{target} is not a supported speed level"
        );
        self.advance_to(t);
        match self.state {
            DiskState::Idle { rpm } if self.outstanding == 0 => {
                if rpm == target {
                    self.pending_rpm = None;
                    return false;
                }
                self.begin_speed_change(rpm, target);
                true
            }
            DiskState::Idle { rpm } if priority == RpmChangePriority::Immediate => {
                // Queued work exists (e.g. submitted at this same instant);
                // ramp first, then serve.
                if rpm == target {
                    self.pending_rpm = None;
                    return false;
                }
                self.begin_speed_change(rpm, target);
                true
            }
            DiskState::Standby | DiskState::SpinningDown | DiskState::SpinningUp => {
                // Speed changes are meaningless while stopped or spinning
                // up (spin-up always ends at full speed).
                false
            }
            _ => {
                self.pending_rpm = Some(PendingRpm { target, priority });
                false
            }
        }
    }

    /// Finishes the simulation at `t`: advances time and closes the final
    /// idle period.
    pub fn finish(&mut self, t: SimTime) {
        self.advance_to(t);
        if self.outstanding == 0 {
            self.idle.finish(t);
        }
    }

    // --- internals ---

    /// Integrates energy in the current state from `self.now` to `t`.
    fn accrue_until(&mut self, t: SimTime) {
        if t > self.now {
            self.energy.accrue(self.bucket, self.watts, t - self.now);
            self.now = t;
        }
    }

    /// Moves the state machine to `next`, fixing the power draw and energy
    /// bucket every accrual in it uses, and records the transition when
    /// tracing is enabled. Every state change after construction goes
    /// through here.
    fn set_state(&mut self, next: DiskState) {
        if let Some(tr) = self.trace.as_mut() {
            tr.sink.record(TraceEvent::DiskState {
                at: self.now,
                node: tr.node,
                disk: tr.disk,
                from: self.state.label(),
                to: next.label(),
                rpm: next.rpm().map(Rpm::get).unwrap_or(0),
            });
        }
        self.state = next;
        self.watts = self.power.watts(&next);
        self.bucket = StateBucket::of(&next);
    }

    /// Handles the end of the current timed phase at `self.now`.
    fn on_phase_end(&mut self) {
        self.phase_end = None;
        match self.state {
            DiskState::Seeking { rpm } => {
                let Some(svc) = self.current.as_ref() else {
                    debug_assert!(false, "seeking without a request in service");
                    self.set_state(DiskState::Idle { rpm });
                    return;
                };
                let completion = svc.completion;
                self.set_state(DiskState::Transferring { rpm });
                self.phase_end = Some(completion);
            }
            DiskState::Transferring { rpm } => {
                let Some(svc) = self.current.take() else {
                    debug_assert!(false, "transferring without a request in service");
                    self.set_state(DiskState::Idle { rpm });
                    return;
                };
                self.arm_cylinder = svc.target_cylinder;
                // Fault decision at completion time: the attempt consumed
                // its full mechanical service (and energy) either way.
                let outcome = match self.faults.as_mut() {
                    Some(f) if svc.pending.request.kind.is_read() => {
                        f.read_outcome(&svc.pending.request)
                    }
                    _ => ServiceOutcome::Ok,
                };
                let completed = CompletedRequest {
                    request: svc.pending.request,
                    arrival: svc.pending.arrival,
                    service_start: svc.service_start,
                    completion: self.now,
                    outcome,
                };
                if let Some(tr) = self.trace.as_mut() {
                    // Energy has been accrued up to `self.now` (the
                    // completion instant), so the delta over the service
                    // window is exact; nanojoule rounding keeps the event
                    // integral and order-independent to serialize.
                    let delta = self.energy.total_joules() - svc.energy_at_start;
                    tr.sink.record(TraceEvent::Request {
                        node: tr.node,
                        disk: tr.disk,
                        id: completed.request.id.0,
                        arrival: completed.arrival,
                        start: completed.service_start,
                        end: completed.completion,
                        energy_nj: (delta * 1e9).round() as u64,
                    });
                    if !outcome.is_ok() {
                        tr.sink.record(TraceEvent::FaultInjected {
                            at: self.now,
                            node: tr.node,
                            disk: tr.disk,
                            id: completed.request.id.0,
                            kind: match outcome {
                                ServiceOutcome::TransientError => "transient",
                                _ => "bad-sector",
                            },
                        });
                    }
                }
                self.response_times
                    .push(completed.response_time().as_secs_f64());
                self.completions.push(completed);
                self.counters.requests_served += 1;
                self.outstanding -= 1;
                self.set_state(DiskState::Idle { rpm });
                if self.queue.is_empty() {
                    if self.outstanding == 0 {
                        self.idle.work_finished(self.now);
                    }
                    if let Some(p) = self.pending_rpm.take() {
                        if p.target != rpm {
                            self.begin_speed_change(rpm, p.target);
                        }
                    }
                } else {
                    self.try_start_next();
                }
            }
            DiskState::SpinningDown => {
                self.set_state(DiskState::Standby);
                if self.spin_up_after_down || !self.queue.is_empty() {
                    self.spin_up_after_down = false;
                    self.begin_spin_up();
                }
            }
            DiskState::SpinningUp => {
                self.set_state(DiskState::Idle {
                    rpm: self.params.max_rpm,
                });
                self.pending_rpm = None; // spin-up lands at full speed
                self.try_start_next();
            }
            DiskState::ChangingSpeed { to, .. } => {
                self.set_state(DiskState::Idle { rpm: to });
                self.try_start_next();
            }
            DiskState::Idle { .. } | DiskState::Standby => {
                unreachable!("no timed phase ends in state {:?}", self.state)
            }
        }
    }

    /// Starts serving the next queued request, honoring an `Immediate`
    /// pending speed change first. No-op if the queue is empty or the disk
    /// cannot serve.
    fn try_start_next(&mut self) {
        let DiskState::Idle { rpm } = self.state else {
            return;
        };
        if self.queue.is_empty() {
            return;
        }
        if let Some(p) = self.pending_rpm {
            if p.priority == RpmChangePriority::Immediate && p.target != rpm {
                self.pending_rpm = None;
                self.begin_speed_change(rpm, p.target);
                return;
            }
        }
        let Some(pending) = self.queue.pop_next(self.arm_cylinder) else {
            debug_assert!(false, "queue checked non-empty");
            return;
        };
        let timing = service_timing(&self.params, &pending.request, self.arm_cylinder, rpm);
        let service_start = self.now;
        // A straggler's mechanics run uniformly slower: both phases are
        // stretched by the profile's multiplier (fault-free disks take
        // the untouched durations, keeping timing bit-for-bit identical).
        let (seek_dur, transfer_dur) = match self.faults.as_ref() {
            Some(f) if f.slow_factor > 1.0 => (
                timing.seek_phase().mul_f64(f.slow_factor),
                timing.transfer_phase().mul_f64(f.slow_factor),
            ),
            _ => (timing.seek_phase(), timing.transfer_phase()),
        };
        let seek_end = service_start + seek_dur;
        let completion = seek_end + transfer_dur;
        self.current = Some(InService {
            pending,
            service_start,
            completion,
            target_cylinder: self.params.cylinder_of(pending.request.lba),
            energy_at_start: self.energy.total_joules(),
        });
        self.set_state(DiskState::Seeking { rpm });
        self.phase_end = Some(seek_end);
    }

    fn begin_spin_up(&mut self) {
        debug_assert_eq!(self.state, DiskState::Standby);
        self.set_state(DiskState::SpinningUp);
        self.phase_end = Some(self.now + self.params.spin_up_time);
        self.counters.spin_ups += 1;
    }

    fn begin_speed_change(&mut self, from: Rpm, to: Rpm) {
        debug_assert!(matches!(self.state, DiskState::Idle { .. }));
        self.set_state(DiskState::ChangingSpeed { from, to });
        self.phase_end = Some(self.now + self.params.rpm_change_time(from, to));
        self.counters.rpm_changes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{DiskRequest, RequestKind};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn read(id: u64, lba: u64, sectors: u32) -> DiskRequest {
        DiskRequest::new(id, RequestKind::Read, lba, sectors)
    }

    fn disk() -> Disk {
        Disk::new(DiskParams::paper_defaults()).unwrap()
    }

    #[test]
    fn serves_a_single_request() {
        let mut d = disk();
        d.submit(read(1, 0, 128), t(1_000));
        d.advance_to(t(10_000_000));
        let done = d.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request.id.0, 1);
        assert!(done[0].completion > done[0].arrival);
        assert_eq!(d.counters().requests_served, 1);
        assert_eq!(d.outstanding(), 0);
        assert!(matches!(d.state(), DiskState::Idle { .. }));
    }

    #[test]
    fn queues_requests_while_busy() {
        let mut d = disk();
        d.submit(read(1, 0, 600), t(0));
        d.submit(read(2, 1_000_000, 600), t(10));
        assert_eq!(d.outstanding(), 2);
        d.advance_to(t(60_000_000));
        let done = d.drain_completions();
        assert_eq!(done.len(), 2);
        // Second request waited for the first.
        assert!(done[1].service_start >= done[0].completion);
    }

    #[test]
    fn energy_accrues_while_idle() {
        let mut d = disk();
        d.advance_to(t(1_000_000));
        let e = d.energy().total_joules();
        assert!((e - 17.1).abs() < 1e-6, "expected ~17.1 J, got {e}");
    }

    #[test]
    fn spin_down_then_request_spins_up() {
        let mut d = disk();
        assert!(d.start_spin_down(t(0)));
        assert_eq!(d.state(), DiskState::SpinningDown);
        // After 10 s the disk reaches standby.
        d.advance_to(t(11_000_000));
        assert_eq!(d.state(), DiskState::Standby);
        // A request forces a 16 s spin-up before service.
        d.submit(read(1, 0, 8), t(12_000_000));
        assert_eq!(d.state(), DiskState::SpinningUp);
        d.advance_to(t(40_000_000));
        let done = d.drain_completions();
        assert_eq!(done.len(), 1);
        // Response time dominated by the spin-up.
        assert!(done[0].response_time() >= SimDuration::from_secs(16));
        assert_eq!(d.counters().spin_ups, 1);
        assert_eq!(d.counters().spin_downs, 1);
    }

    #[test]
    fn request_during_spin_down_waits_for_down_then_up() {
        let mut d = disk();
        assert!(d.start_spin_down(t(0)));
        d.submit(read(1, 0, 8), t(5_000_000)); // mid spin-down
        assert_eq!(d.state(), DiskState::SpinningDown);
        d.advance_to(t(10_000_000));
        assert_eq!(d.state(), DiskState::SpinningUp);
        d.advance_to(t(27_000_000));
        assert_eq!(d.drain_completions().len(), 1);
    }

    #[test]
    fn spin_down_rejected_when_busy() {
        let mut d = disk();
        d.submit(read(1, 0, 600), t(0));
        assert!(!d.start_spin_down(t(10)));
    }

    #[test]
    fn standby_power_lower_than_idle() {
        let mut d = disk();
        d.start_spin_down(t(0));
        d.advance_to(t(10_000_000)); // reach standby
        d.advance_to(t(110_000_000)); // 100 s in standby
        let standby_j = d.energy().joules("standby");
        assert!((standby_j - 7.2 * 100.0).abs() < 1e-6);
    }

    #[test]
    fn rpm_change_when_idle_is_immediate() {
        let mut d = disk();
        let low = Rpm::new(3_600);
        assert!(d.request_rpm_change(t(0), low, RpmChangePriority::WhenIdle));
        assert!(matches!(d.state(), DiskState::ChangingSpeed { .. }));
        // 7 steps at the configured per-step time.
        let ramp = d
            .params()
            .rpm_change_time(Rpm::new(12_000), Rpm::new(3_600));
        d.advance_to(SimTime::ZERO + ramp);
        assert_eq!(d.state(), DiskState::Idle { rpm: low });
        assert_eq!(d.counters().rpm_changes, 1);
    }

    #[test]
    fn serves_at_low_speed_more_slowly() {
        let mut fast = disk();
        fast.submit(read(1, 0, 600), t(0));
        fast.advance_to(t(60_000_000));
        let fast_done = fast.drain_completions()[0];

        let mut slow = disk();
        slow.request_rpm_change(t(0), Rpm::new(3_600), RpmChangePriority::WhenIdle);
        slow.advance_to(t(10_000_000)); // transition complete
        slow.submit(read(1, 0, 600), t(10_000_000));
        slow.advance_to(t(60_000_000));
        let slow_done = slow.drain_completions()[0];

        assert!(slow_done.response_time() > fast_done.response_time());
    }

    #[test]
    fn immediate_ramp_delays_queued_request() {
        let mut d = disk();
        // Slow the disk down first.
        d.request_rpm_change(t(0), Rpm::new(3_600), RpmChangePriority::WhenIdle);
        d.advance_to(t(6_000_000));
        assert_eq!(
            d.state(),
            DiskState::Idle {
                rpm: Rpm::new(3_600)
            }
        );
        // A request arrives; the policy driver sees the arrival first and
        // orders a ramp to full speed before handing the disk the request.
        d.request_rpm_change(t(6_000_000), Rpm::new(12_000), RpmChangePriority::Immediate);
        d.submit(read(1, 0, 8), t(6_000_000));
        // The full ramp must finish before service.
        let ramp = d
            .params()
            .rpm_change_time(Rpm::new(3_600), Rpm::new(12_000));
        d.advance_to(t(20_000_000));
        let done = d.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].response_time() >= ramp);
        if let Some(rpm) = d.current_rpm() {
            assert_eq!(rpm, Rpm::new(12_000));
        }
    }

    #[test]
    fn when_idle_pending_change_applies_after_queue_drains() {
        let mut d = disk();
        d.submit(read(1, 0, 600), t(0));
        // Busy: the change is deferred.
        assert!(!d.request_rpm_change(t(100), Rpm::new(3_600), RpmChangePriority::WhenIdle));
        d.advance_to(t(60_000_000));
        // Queue drained; transition should have started and completed.
        assert_eq!(
            d.state(),
            DiskState::Idle {
                rpm: Rpm::new(3_600)
            }
        );
    }

    #[test]
    fn idle_periods_recorded_between_requests() {
        let mut d = disk();
        d.submit(read(1, 0, 8), t(0));
        d.advance_to(t(1_000_000));
        d.submit(read(2, 0, 8), t(2_000_000));
        d.finish(t(3_000_000));
        // Period 1: t=0 arrival closes the initial idle (zero-length at 0 is
        // dropped); period 2: completion(~10ms) .. 2s; period 3: tail.
        let h = d.idle_tracker().histogram();
        assert!(h.total() >= 2);
    }

    #[test]
    fn time_cannot_go_backwards() {
        let mut d = disk();
        d.advance_to(t(100));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.advance_to(t(50));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn energy_equals_sum_of_state_buckets() {
        let mut d = disk();
        d.submit(read(1, 0, 128), t(0));
        d.start_spin_down(t(0)); // rejected: busy
        d.advance_to(t(500_000));
        d.start_spin_down(t(500_000));
        d.advance_to(t(30_000_000));
        let total = d.energy().total_joules();
        let sum: f64 = d.energy().iter().map(|(_, s)| s.joules).sum();
        assert!((total - sum).abs() < 1e-9);
        // All simulated time is accounted for.
        assert_eq!(d.energy().total_time(), SimDuration::from_secs(30));
    }

    #[test]
    fn trace_records_transitions_and_request_span() {
        use simkit::telemetry::TraceEvent;
        let mut d = disk();
        d.enable_trace(2, 5);
        d.submit(read(9, 0, 128), t(1_000));
        d.advance_to(t(10_000_000));
        let events = d.take_trace_events();
        let labels: Vec<(&str, &str)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::DiskState { from, to, .. } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            labels,
            vec![("idle", "seek"), ("seek", "transfer"), ("transfer", "idle")]
        );
        let requests: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Request { .. }))
            .collect();
        assert_eq!(requests.len(), 1);
        let TraceEvent::Request {
            node,
            disk,
            id,
            arrival,
            start,
            end,
            energy_nj,
        } = requests[0]
        else {
            unreachable!()
        };
        assert_eq!((*node, *disk, *id), (2, 5, 9));
        assert_eq!(*arrival, t(1_000));
        assert!(start >= arrival && end > start);
        // The service window spans seek + transfer at idle-or-above power,
        // so the metered energy must be strictly positive.
        assert!(*energy_nj > 0, "service-window energy should be metered");
        // Draining empties the buffer.
        assert!(d.take_trace_events().is_empty());
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let mut d = disk();
        d.submit(read(1, 0, 128), t(0));
        d.advance_to(t(10_000_000));
        assert!(d.take_trace_events().is_empty());
    }

    #[test]
    fn record_metrics_publishes_energy_and_counters() {
        let mut d = disk();
        d.submit(read(1, 0, 128), t(0));
        d.advance_to(t(1_000_000));
        let mut reg = simkit::telemetry::MetricsRegistry::new();
        d.record_metrics(&mut reg, "disk.n0.d0");
        assert_eq!(reg.get_counter("disk.n0.d0.requests_served"), Some(1));
        let total = reg.get_gauge("disk.n0.d0.energy_joules.total").unwrap();
        assert!((total - d.energy().total_joules()).abs() < 1e-12);
    }

    #[test]
    fn bad_sector_fails_reads_until_remapped() {
        let mut d = disk();
        let mut profile = simkit::fault::DiskFaultProfile::none();
        profile.bad_sectors = vec![64];
        d.install_faults(&profile);
        // A read overlapping sector 64 fails deterministically.
        d.submit(read(1, 0, 128), t(0));
        d.advance_to(t(10_000_000));
        let done = d.drain_completions();
        assert_eq!(done[0].outcome, ServiceOutcome::BadSector);
        // A disjoint read succeeds.
        d.submit(read(2, 1_000, 8), t(10_000_000));
        d.advance_to(t(20_000_000));
        assert!(d.drain_completions()[0].outcome.is_ok());
        // Remap clears the range; the original read now succeeds.
        assert_eq!(d.remap_sectors(0, 128), 1);
        assert_eq!(d.remap_sectors(0, 128), 0);
        d.submit(read(3, 0, 128), t(20_000_000));
        d.advance_to(t(30_000_000));
        assert!(d.drain_completions()[0].outcome.is_ok());
        assert_eq!(d.fault_counters().injected_bad_sector, 1);
    }

    #[test]
    fn writes_never_fault() {
        let mut d = disk();
        let mut profile = simkit::fault::DiskFaultProfile::none();
        profile.bad_sectors = vec![0];
        profile.transient_rate = 0.89;
        d.install_faults(&profile);
        for i in 0..20 {
            d.submit(
                DiskRequest::new(i, RequestKind::Write, i * 8, 8),
                d.now().max(t(0)),
            );
            d.advance_to(t((i + 1) * 1_000_000));
        }
        assert!(d.drain_completions().iter().all(|c| c.outcome.is_ok()));
        assert_eq!(d.fault_counters().total_injected(), 0);
    }

    #[test]
    fn transient_errors_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<ServiceOutcome> {
            let mut d = disk();
            let mut profile = simkit::fault::DiskFaultProfile::none();
            profile.transient_rate = 0.3;
            profile.rng_seed = seed;
            d.install_faults(&profile);
            for i in 0..50 {
                d.submit(read(i, i * 64, 8), d.now());
                d.advance_to(t((i + 1) * 1_000_000));
            }
            d.drain_completions().iter().map(|c| c.outcome).collect()
        };
        let a = run(7);
        assert_eq!(a, run(7));
        assert_ne!(a, run(8), "different seeds should flip different coins");
        assert!(a.contains(&ServiceOutcome::TransientError));
        assert!(a.iter().any(|o| o.is_ok()));
    }

    #[test]
    fn straggler_stretches_service_time() {
        let serve = |factor: f64| {
            let mut d = disk();
            let mut profile = simkit::fault::DiskFaultProfile::none();
            profile.slow_factor = factor;
            d.install_faults(&profile);
            d.submit(read(1, 0, 600), t(0));
            d.advance_to(t(60_000_000));
            d.drain_completions()[0].response_time()
        };
        let nominal = serve(1.0);
        let slow = serve(2.0);
        let ratio = slow.as_secs_f64() / nominal.as_secs_f64();
        // Queue delay is zero here, so response time scales with the factor
        // (controller overhead is part of the stretched transfer phase).
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn inactive_profile_installs_nothing() {
        let mut d = disk();
        d.install_faults(&simkit::fault::DiskFaultProfile::none());
        d.submit(read(1, 0, 128), t(0));
        d.advance_to(t(10_000_000));
        assert!(d.drain_completions()[0].outcome.is_ok());
        assert_eq!(d.fault_counters(), simkit::fault::FaultCounters::default());
    }

    #[test]
    fn faulted_reads_record_fault_trace_events() {
        use simkit::telemetry::TraceEvent;
        let mut d = disk();
        d.enable_trace(0, 0);
        let mut profile = simkit::fault::DiskFaultProfile::none();
        profile.bad_sectors = vec![0];
        d.install_faults(&profile);
        d.submit(read(4, 0, 8), t(0));
        d.advance_to(t(10_000_000));
        let events = d.take_trace_events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::FaultInjected {
                id: 4,
                kind: "bad-sector",
                ..
            }
        )));
    }

    #[test]
    fn elevator_order_respected_under_load() {
        let mut d = disk();
        // Occupy the disk, then queue far/near/mid requests.
        d.submit(read(0, 0, 600), t(0));
        let spc = d.params().sectors_per_cylinder();
        d.submit(read(1, 70_000 * spc, 8), t(10));
        d.submit(read(2, 10_000 * spc, 8), t(20));
        d.submit(read(3, 40_000 * spc, 8), t(30));
        d.advance_to(t(120_000_000));
        let done = d.drain_completions();
        assert_eq!(done.len(), 4);
        let order: Vec<u64> = done.iter().map(|c| c.request.id.0).collect();
        // Arm starts at cylinder 0 sweeping up: 10k, 40k, 70k.
        assert_eq!(order, vec![0, 2, 3, 1]);
    }
}
