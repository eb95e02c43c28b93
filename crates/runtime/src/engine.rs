//! The discrete-event execution engine.
//!
//! Drives the client processes (compute phases and original-point I/O)
//! and the per-client scheduler threads (table-driven prefetching) against
//! the storage array. All storage interactions flow through a pending-
//! submission event queue, so every disk sees its requests in global
//! timestamp order even though client local clocks drift apart.

use sdds_compiler::ir::IoDirection;
use sdds_compiler::{SchedulableAccess, ScheduleTable};
use sdds_storage::{AccessCompletion, AccessId, FileAccess, StorageConfig, StorageSystem};
use simkit::hash::FxHashMap;
use simkit::kernel::{ArbitrationPolicy, Calendar, SlotId};
use simkit::stats::BucketHistogram;
use simkit::telemetry::{merge_events, MetricsRegistry, TraceEvent, TraceSink};
use simkit::{EventQueue, SimDuration, SimTime};

use crate::buffer::{BufferStats, EntryState, GlobalBuffer, RangeKey};
use crate::error::EngineError;
use crate::telemetry::{request_latency_edges, DiskSummary, TelemetryReport};

/// Engine configuration (the client-side half of the simulated platform).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// One-way network latency between a client and the I/O nodes.
    pub network_latency: SimDuration,
    /// Capacity of the global prefetch buffer shared by the scheduler
    /// threads.
    pub buffer_capacity: u64,
    /// Client-side cost of consuming a buffered range (memory copy).
    pub buffer_hit_cost: SimDuration,
    /// Minimum advance (original slot − scheduled slot) for the scheduler
    /// thread to prefetch an access; smaller advances are performed
    /// synchronously by the application ("the scheduler only performs data
    /// accesses scheduled at much earlier iterations", §III).
    pub min_prefetch_advance: u32,
    /// If set, an application read that finds its prefetch still in
    /// flight after this much time (measured from the prefetch's issue)
    /// gives up waiting and performs a synchronous read instead. A
    /// storage-level fault (straggler disk, crash window) can stall a
    /// prefetch almost arbitrarily long; the timeout bounds the
    /// application-visible damage. `None` (the default) waits forever,
    /// which is deadlock-free because the storage layer always completes
    /// deferred work.
    pub prefetch_timeout: Option<SimDuration>,
    /// Same-time arbitration policy for the engine's unified event
    /// calendar. [`ArbitrationPolicy::Deterministic`] — the default —
    /// fires same-time events in registration order (submissions,
    /// storage, timeouts, then processes by index), which keeps every
    /// simulated metric bit-for-bit reproducible. The storage side has
    /// no calendar: each power driver steps its due disks in index order
    /// before a policy timer due at the same instant, under any policy.
    pub arbitration: ArbitrationPolicy,
}

impl EngineConfig {
    /// Defaults consistent with the paper's platform: gigabit-class
    /// network latency, a 128 MB collective client buffer, and prefetching
    /// of any access moved at least one slot earlier.
    pub fn paper_defaults() -> Self {
        EngineConfig {
            network_latency: SimDuration::from_micros(100),
            buffer_capacity: 128 * 1024 * 1024,
            buffer_hit_cost: SimDuration::from_micros(20),
            min_prefetch_advance: 12,
            prefetch_timeout: None,
            arbitration: ArbitrationPolicy::Deterministic,
        }
    }
}

/// A compiled schedule paired with the access list it indexes — the
/// software-directed scheme's plan for one run.
///
/// Passing `Some(plan)` to [`Engine::run`] activates the per-client
/// scheduler threads (table-driven prefetching); `None` executes every
/// access at its original program point (the paper's configurations
/// *without* the software approach).
#[derive(Debug, Clone, Copy)]
pub struct CompiledPlan<'a> {
    /// Accesses in compiler order; each table entry's `access_index`
    /// points into this slice.
    pub accesses: &'a [SchedulableAccess],
    /// The slot-indexed schedule the scheduler threads replay.
    pub table: &'a ScheduleTable,
}

impl<'a> CompiledPlan<'a> {
    /// Pairs a schedule table with the access list it was built from.
    #[must_use]
    pub fn new(accesses: &'a [SchedulableAccess], table: &'a ScheduleTable) -> Self {
        CompiledPlan { accesses, table }
    }
}

/// Scheduler-thread counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetches issued to the storage system.
    pub issued: u64,
    /// Prefetch attempts deferred because the producer had not reached the
    /// producing write yet.
    pub deferred_producer: u64,
    /// Prefetch attempts deferred because the buffer was full.
    pub deferred_full: u64,
    /// Prefetches abandoned (their original point arrived first); the
    /// application performed them synchronously.
    pub became_sync: u64,
    /// In-flight prefetches the application stopped waiting for (the
    /// [`EngineConfig::prefetch_timeout`] elapsed) and replaced with a
    /// synchronous read. Always zero without a timeout configured.
    pub timed_out: u64,
}

/// The outcome of one end-to-end run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock execution time (the slowest process's finish).
    pub exec_time: SimDuration,
    /// Total disk energy in joules.
    pub energy_joules: f64,
    /// Per-state energy breakdown.
    pub energy: sdds_disk::EnergyAccount,
    /// Idle-period histogram over every disk (Fig. 12's population).
    pub idle_histogram: simkit::stats::BucketHistogram,
    /// Global-buffer counters.
    pub buffer: BufferStats,
    /// Scheduler-thread counters.
    pub prefetch: PrefetchStats,
    /// Per-process finish times.
    pub per_proc_finish: Vec<SimDuration>,
    /// Bytes (read, written) handled by the storage system.
    pub bytes_moved: (u64, u64),
    /// Mean blocking-I/O stall time in seconds (application-visible).
    pub mean_read_response: f64,
    /// Engine events processed: process steps plus storage dispatches
    /// (submissions and phase boundaries). The throughput denominator for
    /// events-per-second reporting.
    pub events: u64,
    /// Telemetry report; `Some` only when [`Engine::enable_telemetry`]
    /// was called before the run.
    pub telemetry: Option<TelemetryReport>,
    /// Fault-injection and recovery counters from the storage layer.
    /// All-zero when the run had no fault plan.
    pub faults: simkit::fault::FaultCounters,
}

/// A queued (future) storage submission.
#[derive(Debug, Clone, Copy)]
struct Submission {
    ticket: u64,
    access: FileAccess,
}

/// What a ticket's completion should trigger.
#[derive(Debug, Clone, Default)]
struct TicketState {
    /// Buffer range to mark ready (scheduler-thread prefetch).
    fill: Option<RangeKey>,
    /// Processes to wake, each optionally consuming a buffer entry.
    waiters: Vec<(usize, Option<RangeKey>)>,
}

/// Per-process execution state.
#[derive(Debug)]
struct ProcExec {
    local_time: SimTime,
    slot: u32,
    slots: u32,
    /// Cursor into the process's original-order I/O list.
    io_cursor: usize,
    /// Cursor into the process's scheduling-table entries.
    table_cursor: usize,
    /// Prefetches awaiting producer progress or buffer space
    /// (access indices). The entries a walk kept are counted in
    /// [`Engine`]'s `held`; the ones appended since are not yet.
    deferred: Vec<usize>,
    /// Set when every entry the last walk kept waited for buffer room.
    room_wait: Option<RoomWait>,
    phase: Phase,
    state: State,
    /// Last fully completed slot (for producer local-time checks).
    completed_slot: Option<u32>,
    finish: Option<SimTime>,
}

/// A walk over a deferred list in which every kept entry waited for
/// buffer room. The next walk would keep the same entries for the same
/// reason, and change nothing else, as long as the process is still
/// before `earliest_slot` (no entry becomes synchronous), `min_len` bytes
/// still do not fit (none fits), and `conflicts` has not moved (no other
/// thread reserved a range the entries hold). Such a walk counts `kept`
/// waits and walks only the entries appended after them.
#[derive(Debug, Clone, Copy)]
struct RoomWait {
    kept: usize,
    earliest_slot: u32,
    min_len: u64,
    conflicts: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Issue this slot's prefetches and perform its compute.
    SlotStart,
    /// Work through the slot's original-point I/O operations.
    SlotIo,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Ready,
    Blocked,
    Done,
}

/// The end-to-end simulator: storage array + client processes + scheduler
/// threads.
///
/// Create one engine per run; [`Engine::run`] consumes it.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    storage: StorageSystem,
    buffer: GlobalBuffer,
    submissions: EventQueue<Submission>,
    tickets: FxHashMap<u64, TicketState>,
    next_ticket: u64,
    access_to_ticket: FxHashMap<AccessId, u64>,
    prefetch_stats: PrefetchStats,
    read_response: simkit::stats::OnlineStats,
    /// The unified event calendar: one slot per event source (pending
    /// submissions, the storage array, prefetch timeouts, and one slot
    /// per client process). Same-time ordering follows the configured
    /// [`ArbitrationPolicy`].
    cal: Calendar,
    submission_slot: SlotId,
    storage_slot: SlotId,
    timeout_slot: SlotId,
    /// One slot per process, registered by [`Engine::run`]; due exactly
    /// at the process's local time while it is `Ready`.
    proc_slots: Vec<SlotId>,
    /// Scheduled prefetch deadlines as `(ticket, range)`; an entry whose
    /// ticket has already completed is stale and ignored when it fires.
    /// Always empty without [`EngineConfig::prefetch_timeout`].
    timeouts: EventQueue<(u64, RangeKey)>,
    /// Per range, how many deferred-list entries kept by a walk hold it.
    held: FxHashMap<RangeKey, u32>,
    /// How many reservations hit a range in `held`; a [`RoomWait`] made
    /// before the last of them is stale.
    conflicts: u64,
    /// Reused between completion deliveries so the steady state allocates
    /// nothing.
    completion_scratch: Vec<AccessCompletion>,
    /// Trace sink for scheduler-thread and buffer events. `None` (the
    /// default) keeps the hot path free of telemetry work.
    trace: Option<TraceSink>,
}

impl Engine {
    /// Builds an engine over a fresh storage array.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZeroBuffer`] when the configured prefetch
    /// buffer has no capacity, and [`EngineError::Storage`] when the
    /// storage configuration is rejected.
    pub fn new(config: EngineConfig, storage: StorageConfig) -> Result<Self, EngineError> {
        if config.buffer_capacity == 0 {
            return Err(EngineError::ZeroBuffer);
        }
        let buffer = GlobalBuffer::new(config.buffer_capacity);
        // Registration order is the Deterministic tie order: a submission
        // dispatch beats a storage phase boundary beats a prefetch
        // timeout beats a process step at the same instant.
        let mut cal = Calendar::new(config.arbitration);
        let submission_slot = cal.register();
        let storage_slot = cal.register();
        let timeout_slot = cal.register();
        Ok(Engine {
            config,
            storage: StorageSystem::new(storage)?,
            buffer,
            submissions: EventQueue::new(),
            tickets: FxHashMap::default(),
            next_ticket: 0,
            access_to_ticket: FxHashMap::default(),
            prefetch_stats: PrefetchStats::default(),
            read_response: simkit::stats::OnlineStats::new(),
            cal,
            submission_slot,
            storage_slot,
            timeout_slot,
            proc_slots: Vec::new(),
            timeouts: EventQueue::new(),
            held: FxHashMap::default(),
            conflicts: 0,
            completion_scratch: Vec::new(),
            trace: None,
        })
    }

    /// Turns on structured tracing and metrics collection for this run,
    /// here and in every storage layer below.
    ///
    /// Off by default. Enabling changes no simulated outcome — it only
    /// records events as they happen and attaches a [`TelemetryReport`]
    /// to the [`RunResult`].
    pub fn enable_telemetry(&mut self) {
        self.trace = Some(TraceSink::new());
        self.storage.enable_trace();
    }

    /// Runs `trace` to completion.
    ///
    /// With `plan = None` every access executes at its original program
    /// point (the paper's configurations *without* the software approach);
    /// with a [`CompiledPlan`], reads moved earlier are prefetched by the
    /// scheduler threads.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ScheduleMismatch`] when the schedule belongs
    /// to a different trace (process or access count mismatch), and
    /// [`EngineError::Deadlock`] or one of the bookkeeping variants when an
    /// internal invariant is violated mid-run (a bug, not a configuration
    /// problem).
    pub fn run(
        mut self,
        trace: &sdds_compiler::ProgramTrace,
        plan: Option<CompiledPlan<'_>>,
    ) -> Result<RunResult, EngineError> {
        if let Some(plan) = plan {
            if plan.table.nprocs() != trace.processes.len() {
                return Err(EngineError::ScheduleMismatch {
                    what: "process count",
                    schedule: plan.table.nprocs(),
                    trace: trace.processes.len(),
                });
            }
            if plan.accesses.len() != plan.table.scheduled_count() {
                return Err(EngineError::ScheduleMismatch {
                    what: "scheduled access count",
                    schedule: plan.table.scheduled_count(),
                    trace: plan.accesses.len(),
                });
            }
        }

        let mut procs: Vec<ProcExec> = trace
            .processes
            .iter()
            .map(|p| ProcExec {
                local_time: SimTime::ZERO,
                slot: 0,
                slots: p.slots,
                io_cursor: 0,
                table_cursor: 0,
                deferred: Vec::new(),
                room_wait: None,
                phase: Phase::SlotStart,
                state: State::Ready,
                completed_slot: None,
                finish: None,
            })
            .collect();

        self.proc_slots = procs.iter().map(|_| self.cal.register()).collect();
        for (i, p) in procs.iter().enumerate() {
            self.cal.retarget(self.proc_slots[i], Some(p.local_time));
        }
        let mut events: u64 = 0;

        loop {
            // The shared event sources are retargeted from their live
            // queues every round — any dispatch can reschedule any of
            // them, and retargeting an unchanged due time is a no-op.
            // Process slots are kept up to date at their wake/step sites.
            self.cal
                .retarget(self.submission_slot, self.submissions.peek_time());
            self.cal
                .retarget(self.storage_slot, self.storage.next_event_time());
            self.cal
                .retarget(self.timeout_slot, self.timeouts.peek_time());

            let Some((te, slot)) = self.cal.pop() else {
                let blocked = procs.iter().filter(|p| p.state != State::Done).count();
                if blocked > 0 {
                    return Err(EngineError::Deadlock { blocked });
                }
                break;
            };
            if let Some(p) = self.proc_of(slot) {
                events += 1;
                self.step(&mut procs, p, trace, plan)?;
                let pr = &procs[p];
                self.cal
                    .retarget(slot, (pr.state == State::Ready).then_some(pr.local_time));
            } else {
                // Leftover storage work (e.g. prefetches nobody waits
                // for) is irrelevant once every process has finished.
                if procs.iter().all(|p| p.state == State::Done) {
                    break;
                }
                events += 1;
                self.dispatch_event(te, slot, &mut procs)?;
            }
        }

        let mut finish_times = Vec::with_capacity(procs.len());
        for (i, p) in procs.iter().enumerate() {
            finish_times.push(p.finish.ok_or(EngineError::Unfinished { proc: i })?);
        }
        let exec_time = finish_times.iter().copied().max().unwrap_or(SimTime::ZERO);
        self.storage.finish(exec_time);
        let telemetry = self
            .trace
            .take()
            .map(|sink| self.build_telemetry(sink, exec_time));

        Ok(RunResult {
            exec_time: exec_time - SimTime::ZERO,
            energy_joules: self.storage.total_joules(),
            energy: self.storage.energy(),
            idle_histogram: self.storage.idle_histogram(),
            buffer: self.buffer.stats(),
            prefetch: self.prefetch_stats,
            per_proc_finish: finish_times.iter().map(|&f| f - SimTime::ZERO).collect(),
            bytes_moved: self.storage.bytes_moved(),
            mean_read_response: self.read_response.mean(),
            events,
            telemetry,
            faults: self.storage.fault_counters(),
        })
    }

    /// Assembles the run's [`TelemetryReport`]: merges the per-layer
    /// event buffers into one time-ordered stream, populates the metrics
    /// registry from every layer, and snapshots each disk's
    /// residency/energy breakdown.
    fn build_telemetry(&mut self, mut sink: TraceSink, end: SimTime) -> TelemetryReport {
        let engine_events = sink.take_events();
        let storage_events = self.storage.take_trace_events();
        let events = merge_events(vec![engine_events, storage_events]);

        let mut metrics = MetricsRegistry::new();
        self.storage.record_metrics(&mut metrics);
        let b = self.buffer.stats();
        metrics.counter("runtime.buffer.admitted", b.admitted);
        metrics.counter("runtime.buffer.rejected_full", b.rejected_full);
        metrics.counter("runtime.buffer.hits", b.hits);
        metrics.counter("runtime.buffer.hits_in_flight", b.hits_in_flight);
        metrics.counter("runtime.buffer.misses", b.misses);
        metrics.gauge("runtime.buffer.peak_used_bytes", b.peak_used as f64);
        let consulted = b.hits + b.hits_in_flight + b.misses;
        if consulted > 0 {
            metrics.gauge("runtime.buffer.hit_ratio", b.hits as f64 / consulted as f64);
        }
        let pf = self.prefetch_stats;
        metrics.counter("runtime.scheduler.issued", pf.issued);
        metrics.counter("runtime.scheduler.deferred_producer", pf.deferred_producer);
        metrics.counter("runtime.scheduler.deferred_full", pf.deferred_full);
        metrics.counter("runtime.scheduler.became_sync", pf.became_sync);
        // Gated on the configuration so the metrics snapshot of a
        // timeout-free run is unchanged from earlier builds.
        if self.config.prefetch_timeout.is_some() {
            metrics.counter("runtime.scheduler.timed_out", pf.timed_out);
        }
        metrics.summary("runtime.read_response_s", &self.read_response);

        let mut latency = BucketHistogram::new(request_latency_edges());
        for e in &events {
            if let TraceEvent::Request { arrival, end, .. } = e {
                latency.record(end.saturating_since(*arrival));
            }
        }
        metrics.histogram("disk.request_latency", &latency);

        let mut disks = Vec::new();
        for (n, node) in self.storage.nodes().iter().enumerate() {
            for (d, disk) in node.disks().iter().enumerate() {
                disks.push(DiskSummary {
                    node: n,
                    disk: d,
                    states: disk
                        .energy()
                        .iter()
                        .map(|(s, e)| (s, e.residency.as_secs_f64(), e.joules))
                        .collect(),
                    counters: disk.counters(),
                    total_joules: disk.energy().total_joules(),
                });
            }
        }

        TelemetryReport {
            events,
            metrics,
            disks,
            end,
        }
    }

    /// Creates a ticket and queues the submission at `server_time`.
    fn enqueue(&mut self, access: FileAccess, server_time: SimTime, state: TicketState) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.tickets.insert(ticket, state);
        self.submissions
            .schedule(server_time, Submission { ticket, access });
        ticket
    }

    /// Which process (if any) a calendar slot belongs to. The three
    /// shared slots are registered first, so process slots start right
    /// after them.
    fn proc_of(&self, slot: SlotId) -> Option<usize> {
        let base = self.timeout_slot.index() + 1;
        slot.index().checked_sub(base)
    }

    /// Handles the engine event the calendar popped at time `te` — a
    /// submission dispatch, a storage phase boundary, or a prefetch
    /// deadline — then delivers any completions.
    fn dispatch_event(
        &mut self,
        te: SimTime,
        slot: SlotId,
        procs: &mut [ProcExec],
    ) -> Result<(), EngineError> {
        if slot == self.submission_slot {
            let Some((t, sub)) = self.submissions.pop() else {
                return Err(EngineError::Internal {
                    what: "submission queue empty after a successful peek",
                });
            };
            let id = self.storage.submit(sub.access, t);
            if let Some(sink) = self.trace.as_mut() {
                // Root span of the access's causal tree; member-disk
                // requests parent-link to it via `RequestIssued.access`.
                sink.record(TraceEvent::AccessStart {
                    at: t,
                    access: id.0,
                });
            }
            self.access_to_ticket.insert(id, sub.ticket);
        } else if slot == self.storage_slot {
            self.storage.advance_to(te);
        } else {
            debug_assert_eq!(slot, self.timeout_slot);
            self.fire_prefetch_timeout(te, procs)?;
        }
        self.deliver_completions(procs)
    }

    /// Fires a due prefetch deadline: every process still blocked on
    /// that (still in-flight) prefetch gives up waiting and falls back
    /// to a synchronous read, exactly as if it had caught the timeout on
    /// arrival. A deadline whose prefetch already completed is stale and
    /// does nothing.
    fn fire_prefetch_timeout(
        &mut self,
        te: SimTime,
        procs: &mut [ProcExec],
    ) -> Result<(), EngineError> {
        let Some((_, (ticket, key))) = self.timeouts.pop() else {
            return Err(EngineError::Internal {
                what: "timeout queue empty after a successful peek",
            });
        };
        let live = matches!(
            self.buffer.state(&key),
            Some(EntryState::InFlight { ticket: t, .. }) if t == ticket
        );
        if !live {
            return Ok(());
        }
        let Some(state) = self.tickets.get_mut(&ticket) else {
            return Err(EngineError::TicketOutOfSync { ticket });
        };
        let mut gave_up = Vec::new();
        state.waiters.retain(|&(proc, consume)| {
            if consume == Some(key) {
                gave_up.push(proc);
                false
            } else {
                true
            }
        });
        for proc in gave_up {
            debug_assert_eq!(procs[proc].state, State::Blocked);
            self.give_up_prefetch(proc, key, te);
        }
        Ok(())
    }

    /// Process `proc` stops waiting at `at` for the in-flight prefetch of
    /// `key` and reads the range synchronously instead. The prefetch
    /// still completes and fills the buffer when another waiter of its
    /// ticket consumes `key`; otherwise nothing would consume the entry,
    /// so it is dropped and its bytes freed now, and the completion
    /// fills nothing (not a later reservation of the same range either).
    fn give_up_prefetch(&mut self, proc: usize, key: RangeKey, at: SimTime) {
        let in_flight = match self.buffer.state(&key) {
            Some(EntryState::InFlight { ticket, .. }) => self.tickets.get_mut(&ticket),
            _ => None,
        };
        if let Some(state) = in_flight {
            let consumed = state.waiters.iter().any(|&(_, c)| c == Some(key));
            if !consumed {
                state.fill = None;
                self.buffer.release(&key);
            }
        }
        self.prefetch_stats.timed_out += 1;
        if let Some(sink) = self.trace.as_mut() {
            sink.record(TraceEvent::PrefetchInvalidate {
                at,
                proc: proc as u32,
                file: key.0 .0,
                offset: key.1,
                len: key.2,
                reason: "timeout",
            });
        }
        self.sync_read(proc, key, at);
    }

    /// Queues a synchronous read of `key` that process `proc` issues at
    /// `at`; its completion wakes `proc`.
    fn sync_read(&mut self, proc: usize, key: RangeKey, at: SimTime) {
        self.enqueue(
            FileAccess::read(key.0, key.1, key.2),
            at + self.config.network_latency,
            TicketState {
                fill: None,
                waiters: vec![(proc, None)],
            },
        );
    }

    fn deliver_completions(&mut self, procs: &mut [ProcExec]) -> Result<(), EngineError> {
        // Swap the scratch buffer in so the storage system can drain into
        // it: no allocation once the buffer has grown to steady-state size.
        let mut done_buf = std::mem::take(&mut self.completion_scratch);
        self.storage.drain_completions_into(&mut done_buf);
        for done in done_buf.drain(..) {
            if let Some(sink) = self.trace.as_mut() {
                sink.record(TraceEvent::AccessEnd {
                    at: done.time,
                    access: done.access.0,
                });
            }
            let Some(ticket) = self.access_to_ticket.remove(&done.access) else {
                return Err(EngineError::UntrackedCompletion {
                    access: done.access,
                });
            };
            let Some(state) = self.tickets.remove(&ticket) else {
                return Err(EngineError::TicketOutOfSync { ticket });
            };
            if let Some(key) = state.fill {
                self.buffer.fill(&key);
            }
            for (proc, consume) in state.waiters {
                let wake_at = done.time + self.config.network_latency;
                if let Some(key) = consume {
                    if !self.buffer.consume(&key) {
                        // Another process consumed the entry first: fall
                        // back to a synchronous read for this waiter.
                        self.sync_read(proc, key, wake_at);
                        continue;
                    }
                }
                let p = &mut procs[proc];
                debug_assert_eq!(p.state, State::Blocked);
                self.read_response
                    .push(wake_at.saturating_since(p.local_time).as_secs_f64());
                p.local_time = p.local_time.max(wake_at);
                p.state = State::Ready;
                self.cal.retarget(self.proc_slots[proc], Some(p.local_time));
            }
        }
        self.completion_scratch = done_buf;
        Ok(())
    }

    /// Executes one action of process `p` at its current local time.
    fn step(
        &mut self,
        procs: &mut [ProcExec],
        p: usize,
        trace: &sdds_compiler::ProgramTrace,
        plan: Option<CompiledPlan<'_>>,
    ) -> Result<(), EngineError> {
        if procs[p].slot >= procs[p].slots {
            procs[p].state = State::Done;
            procs[p].finish = Some(procs[p].local_time);
            return Ok(());
        }
        match procs[p].phase {
            Phase::SlotStart => {
                if let Some(plan) = plan {
                    self.run_scheduler_thread(procs, p, plan.accesses, plan.table);
                }
                let compute = trace.processes[p].compute[procs[p].slot as usize];
                procs[p].local_time += compute;
                procs[p].phase = Phase::SlotIo;
            }
            Phase::SlotIo => {
                let slot = procs[p].slot;
                let cursor = procs[p].io_cursor;
                match trace.processes[p].ios.get(cursor) {
                    Some(io) if io.slot == slot => {
                        procs[p].io_cursor += 1;
                        self.perform_original_io(procs, p, cursor, trace, plan)?;
                    }
                    _ => {
                        // Slot finished.
                        procs[p].completed_slot = Some(slot);
                        procs[p].slot += 1;
                        procs[p].phase = Phase::SlotStart;
                        if procs[p].slot >= procs[p].slots {
                            procs[p].state = State::Done;
                            procs[p].finish = Some(procs[p].local_time);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The scheduler thread of client `p`: issue the prefetches whose
    /// scheduled slot has arrived, plus any deferred ones that became
    /// feasible.
    fn run_scheduler_thread(
        &mut self,
        procs: &mut [ProcExec],
        p: usize,
        accesses: &[SchedulableAccess],
        table: &ScheduleTable,
    ) {
        let slot = procs[p].slot;
        let now = procs[p].local_time;
        // The entries the last walk kept, all counted in `held`.
        let kept_before = procs[p].deferred.len();
        // Append the table entries due at this slot after the already
        // deferred prefetches, so retries (older requests) still go first.
        let entries = table.for_process(p);
        while procs[p].table_cursor < entries.len() {
            let e = &entries[procs[p].table_cursor];
            if e.slot > slot {
                break;
            }
            procs[p].table_cursor += 1;
            let a = &accesses[e.access_index];
            let is_prefetch = a.is_read()
                && e.slot < a.io.slot
                && a.io.slot - e.slot >= self.config.min_prefetch_advance;
            if is_prefetch {
                procs[p].deferred.push(e.access_index);
            }
        }
        // When the kept entries would all wait for room again, count
        // their waits and start the walk after them.
        let wait = procs[p].room_wait.take().filter(|w| {
            slot < w.earliest_slot
                && !self.buffer.has_room(w.min_len)
                && w.conflicts == self.conflicts
        });
        let (mut earliest_slot, mut min_len) = (u32::MAX, u64::MAX);
        let mut cursor = 0;
        if let Some(w) = wait {
            debug_assert_eq!(w.kept, kept_before);
            self.prefetch_stats.deferred_full += w.kept as u64;
            (earliest_slot, min_len, cursor) = (w.earliest_slot, w.min_len, w.kept);
        }
        let mut only_room = true;
        // Walk the combined list, compacting in place: entries that must
        // keep waiting slide to the front, everything else is consumed.
        let mut kept = cursor;
        while cursor < procs[p].deferred.len() {
            let idx = procs[p].deferred[cursor];
            let was_held = cursor < kept_before;
            cursor += 1;
            let a = &accesses[idx];
            let key: RangeKey = (a.io.file, a.io.offset, a.io.len);
            // The original point has arrived (or passed): the application
            // will perform this access synchronously.
            if a.io.slot <= slot {
                self.prefetch_stats.became_sync += 1;
                if let Some(sink) = self.trace.as_mut() {
                    sink.record(TraceEvent::PrefetchInvalidate {
                        at: now,
                        proc: p as u32,
                        file: a.io.file.0,
                        offset: a.io.offset,
                        len: a.io.len,
                        reason: "became-sync",
                    });
                }
                if was_held {
                    self.release_hold(&key);
                }
                continue;
            }
            // Correctness rule: data written by a remote process may only
            // be fetched once the producer's local time has passed the
            // producing write (§III).
            if let Some((q, w)) = a.producer {
                let produced = procs[q].completed_slot.is_some_and(|c| c >= w);
                if !produced {
                    self.prefetch_stats.deferred_producer += 1;
                    procs[p].deferred[kept] = idx;
                    kept += 1;
                    only_room = false;
                    if !was_held {
                        self.hold(key);
                    }
                    continue;
                }
            }
            if self.buffer.state(&key).is_some() {
                // Another scheduler thread already fetched it.
                if was_held {
                    self.release_hold(&key);
                }
                continue;
            }
            if !self.buffer.has_room(a.io.len) {
                self.prefetch_stats.deferred_full += 1;
                procs[p].deferred[kept] = idx;
                kept += 1;
                earliest_slot = earliest_slot.min(a.io.slot);
                min_len = min_len.min(a.io.len);
                if !was_held {
                    self.hold(key);
                }
                continue;
            }
            if was_held {
                self.release_hold(&key);
            }
            // Some other deferred list still holds this range, and its
            // next walk must drop it: every `RoomWait` goes stale.
            if self.held.contains_key(&key) {
                self.conflicts += 1;
            }
            let ticket = self.enqueue(
                FileAccess::read(a.io.file, a.io.offset, a.io.len),
                now + self.config.network_latency,
                TicketState {
                    fill: Some(key),
                    waiters: Vec::new(),
                },
            );
            let admitted = self.buffer.reserve(key, ticket, now);
            debug_assert!(admitted, "room was checked above");
            self.prefetch_stats.issued += 1;
            if let Some(sink) = self.trace.as_mut() {
                sink.record(TraceEvent::BufferPrefetch {
                    at: now,
                    proc: p as u32,
                    file: a.io.file.0,
                    offset: a.io.offset,
                    len: a.io.len,
                });
            }
        }
        procs[p].deferred.truncate(kept);
        // A reservation in this walk cannot hit a range it kept: a range
        // is kept only when its length does not fit, and the buffer only
        // fills during a walk. So the stamp is read after the walk.
        if kept > 0 && only_room {
            procs[p].room_wait = Some(RoomWait {
                kept,
                earliest_slot,
                min_len,
                conflicts: self.conflicts,
            });
        }
    }

    /// Counts one more deferred-list entry holding `key`.
    fn hold(&mut self, key: RangeKey) {
        *self.held.entry(key).or_insert(0) += 1;
    }

    /// Drops one deferred-list entry's hold on `key`.
    fn release_hold(&mut self, key: &RangeKey) {
        if let Some(n) = self.held.get_mut(key) {
            *n -= 1;
            if *n == 0 {
                self.held.remove(key);
            }
        }
    }

    /// Performs the application's original-point I/O operation `cursor` of
    /// process `p`.
    fn perform_original_io(
        &mut self,
        procs: &mut [ProcExec],
        p: usize,
        cursor: usize,
        trace: &sdds_compiler::ProgramTrace,
        plan: Option<CompiledPlan<'_>>,
    ) -> Result<(), EngineError> {
        let io = trace.processes[p].ios[cursor];
        let now = procs[p].local_time;
        match io.direction {
            IoDirection::Write => {
                self.enqueue(
                    FileAccess::write(io.file, io.offset, io.len),
                    now + self.config.network_latency,
                    TicketState {
                        fill: None,
                        waiters: vec![(p, None)],
                    },
                );
                procs[p].state = State::Blocked;
            }
            IoDirection::Read => {
                let key: RangeKey = (io.file, io.offset, io.len);
                if plan.is_some() {
                    let lookup = self.buffer.lookup(&key);
                    if let Some(sink) = self.trace.as_mut() {
                        sink.record(TraceEvent::BufferRead {
                            at: now,
                            proc: p as u32,
                            file: io.file.0,
                            offset: io.offset,
                            len: io.len,
                            outcome: match lookup {
                                Some(EntryState::Ready) => "hit",
                                Some(EntryState::InFlight { .. }) => "in-flight",
                                None => "miss",
                            },
                        });
                    }
                    match lookup {
                        Some(EntryState::Ready) => {
                            // Ready in the buffer: consume and move on.
                            let consumed = self.buffer.consume(&key);
                            debug_assert!(consumed);
                            procs[p].local_time += self.config.buffer_hit_cost;
                            return Ok(());
                        }
                        Some(EntryState::InFlight { ticket, issued_at }) => {
                            // A prefetch stuck past the timeout (e.g. on
                            // a crashed or straggling disk) is abandoned:
                            // the application falls back to a synchronous
                            // read instead of waiting indefinitely.
                            let stuck = self
                                .config
                                .prefetch_timeout
                                .is_some_and(|limit| now.saturating_since(issued_at) > limit);
                            if stuck {
                                self.give_up_prefetch(p, key, now);
                            } else {
                                // Still in flight: block on the prefetch.
                                // With a timeout configured, the wait is
                                // bounded by a deadline event on the
                                // unified calendar, so a storage-stalled
                                // prefetch wakes this waiter at the
                                // deadline rather than never.
                                if let Some(limit) = self.config.prefetch_timeout {
                                    self.timeouts
                                        .schedule((issued_at + limit).max(now), (ticket, key));
                                }
                                let Some(state) = self.tickets.get_mut(&ticket) else {
                                    return Err(EngineError::TicketOutOfSync { ticket });
                                };
                                state.waiters.push((p, Some(key)));
                            }
                            procs[p].state = State::Blocked;
                            return Ok(());
                        }
                        None => {}
                    }
                }
                self.sync_read(p, key, now);
                procs[p].state = State::Blocked;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_compiler::ir::{IoDirection, Program};
    use sdds_compiler::{analyze_slacks, SchedulerConfig, SlotGranularity};
    use sdds_power::PolicyKind;
    use sdds_storage::FileId;

    const STRIPE: u64 = 64 * 1024;

    fn scan(nprocs: usize, blocks: i64, compute_ms: u64) -> Program {
        let mut p = Program::new("scan", nprocs);
        let f = p.add_file(FileId(0), STRIPE * nprocs as u64 * blocks as u64);
        let span = blocks * STRIPE as i64;
        p.push_loop("i", 0, blocks - 1, move |b| {
            b.io(
                IoDirection::Read,
                f,
                |e| e.term("i", STRIPE as i64).term("p", span),
                STRIPE,
            );
            b.compute(SimDuration::from_millis(compute_ms));
        });
        p
    }

    fn run_program(p: &Program, with_scheme: bool) -> RunResult {
        let trace = p.trace(SlotGranularity::unit()).unwrap();
        let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let engine = Engine::new(EngineConfig::paper_defaults(), storage.clone()).unwrap();
        if with_scheme {
            let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
            let table = SchedulerConfig::paper_defaults()
                .schedule(&accesses, &trace)
                .unwrap();
            engine
                .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
                .unwrap()
        } else {
            engine.run(&trace, None).unwrap()
        }
    }

    #[test]
    fn baseline_run_completes() {
        let r = run_program(&scan(2, 8, 20), false);
        assert!(r.exec_time >= SimDuration::from_millis(160)); // 8 slots × 20 ms
        assert!(r.energy_joules > 0.0);
        assert_eq!(r.per_proc_finish.len(), 2);
        assert_eq!(r.buffer.hits, 0);
        assert_eq!(r.prefetch.issued, 0);
        // All 16 reads reach the storage system.
        assert_eq!(r.bytes_moved.0, 16 * STRIPE);
    }

    #[test]
    fn scheme_run_prefetches_into_gap() {
        let mut p = Program::new("scan-gap", 2);
        let f = p.add_file(FileId(0), STRIPE * 16);
        p.push_skip(16, SimDuration::from_millis(20)); // I/O-free warm-up phase
        p.push_loop("i", 0, 7, move |b| {
            b.io(
                IoDirection::Read,
                f,
                |e| e.term("i", STRIPE as i64).term("p", 8 * STRIPE as i64),
                STRIPE,
            );
            b.compute(SimDuration::from_millis(20));
        });
        let r = run_program(&p, true);
        assert!(r.prefetch.issued > 0, "prefetches should be issued");
        assert!(r.buffer.hits > 0, "application reads should hit the buffer");
    }

    #[test]
    fn results_identical_across_runs() {
        let p = scan(3, 6, 10);
        let a = run_program(&p, true);
        let b = run_program(&p, true);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.energy_joules, b.energy_joules);
        assert_eq!(a.prefetch, b.prefetch);
    }

    #[test]
    fn scheme_preserves_bytes_read() {
        // Prefetching moves reads in time but must not lose or duplicate
        // application data.
        let p = scan(2, 8, 20);
        let without = run_program(&p, false);
        let with = run_program(&p, true);
        assert_eq!(without.bytes_moved.0, with.bytes_moved.0);
    }

    #[test]
    fn producer_consumer_correctness() {
        // Each process writes blocks, then reads the *other* process's
        // blocks after a gap. The prefetcher must wait for the producer.
        let mut p = Program::new("pc", 2);
        let f = p.add_file(FileId(0), 8 * STRIPE);
        p.push_loop("i", 0, 3, move |b| {
            b.io(
                IoDirection::Write,
                f,
                |e| e.term("i", STRIPE as i64).term("p", 4 * STRIPE as i64),
                STRIPE,
            );
            b.compute(SimDuration::from_millis(5));
        });
        p.push_skip(4, SimDuration::from_millis(5));
        p.push_loop("j", 0, 3, move |b| {
            b.io(
                IoDirection::Read,
                f,
                |e| {
                    e.term("j", STRIPE as i64)
                        .term("p", -(4 * STRIPE as i64))
                        .plus(4 * STRIPE as i64)
                },
                STRIPE,
            );
            b.compute(SimDuration::from_millis(5));
        });
        let r = run_program(&p, true);
        // All reads completed (no deadlock).
        assert_eq!(r.bytes_moved.0, 8 * STRIPE);
        assert!(r.exec_time > SimDuration::ZERO);
    }

    /// The paper's producer rule (§III): a prefetch of data another
    /// process writes waits until the producer has completed the write.
    /// Four processes each write eight 1 MiB blocks, compute through 16
    /// I/O-free slots, then read the blocks process `n - 1 - p` wrote;
    /// the schedule moves some of those reads ahead of their producers.
    #[test]
    fn prefetch_waits_for_remote_producer() {
        use std::collections::HashMap;
        const MIB: u64 = 1024 * 1024;
        let mut p = Program::new("exchange", 4);
        let f = p.add_file(FileId(0), 32 * MIB);
        p.push_loop("i", 0, 7, move |b| {
            b.io(
                IoDirection::Write,
                f,
                |e| e.term("i", MIB as i64).term("p", 8 * MIB as i64),
                MIB,
            );
            b.compute(SimDuration::from_millis(5));
        });
        p.push_skip(16, SimDuration::from_millis(5));
        p.push_loop("j", 0, 7, move |b| {
            b.io(
                IoDirection::Read,
                f,
                |e| {
                    e.term("j", MIB as i64)
                        .term("p", -(8 * MIB as i64))
                        .plus(24 * MIB as i64)
                },
                MIB,
            );
            b.compute(SimDuration::from_millis(5));
        });
        let r = run_traced(&p, true);
        let layout = StorageConfig::paper_defaults(PolicyKind::NoPm).layout;
        assert!(r.prefetch.deferred_producer > 0, "{:?}", r.prefetch);
        assert_eq!(r.bytes_moved, (32 * MIB, 32 * MIB));

        // A node records a write's cache event right before the write's
        // member request, which names the access; the access's end is the
        // write's completion.
        let events = &r.telemetry.as_ref().expect("telemetry was enabled").events;
        let mut cached_write = HashMap::new();
        let mut writer = HashMap::new();
        let mut completed = HashMap::new();
        for e in events {
            match *e {
                TraceEvent::CacheAccess {
                    node,
                    file,
                    block,
                    kind: "write",
                    ..
                } => {
                    cached_write.insert(node, (file, block));
                }
                TraceEvent::RequestIssued {
                    node,
                    access: Some(access),
                    ..
                } => {
                    if let Some((file, block)) = cached_write.remove(&node) {
                        writer.insert((node, file, block), access);
                    }
                }
                TraceEvent::AccessEnd { at, access } => {
                    completed.insert(access, at);
                }
                _ => {}
            }
        }
        assert_eq!(writer.len(), 32 * 16, "every written stripe is linked");
        let mut prefetched = 0;
        for e in events {
            let TraceEvent::BufferPrefetch {
                at,
                file,
                offset,
                len,
                ..
            } = *e
            else {
                continue;
            };
            for (node, block, _, _) in layout.split_range(FileId(file), offset, len) {
                let write = writer[&(node as u32, file, block)];
                assert!(
                    completed[&write] <= at,
                    "prefetch of {offset}+{len} at {at:?} precedes its write's completion"
                );
            }
            prefetched += 1;
        }
        assert_eq!(prefetched, r.prefetch.issued);
    }

    /// Two processes defer the same range while the buffer is full. When
    /// room appears, the first to walk reserves it; the other's next walk
    /// must see the range buffered and drop its entry without counting a
    /// wait, although the buffer is full again and its slot is still
    /// before the range's original point.
    #[test]
    fn a_range_reserved_by_another_thread_is_dropped_not_counted() {
        use sdds_compiler::ir::IoCallId;
        use sdds_compiler::{IoInstance, ProcessTrace, ProgramTrace};
        let read = |call, proc, offset, slot| IoInstance {
            call: IoCallId(call),
            file: FileId(0),
            offset,
            len: STRIPE,
            direction: IoDirection::Read,
            proc,
            slot,
            length: 1,
        };
        let (filler, shared) = (0, 16 * STRIPE);
        let process = |proc, ios| ProcessTrace {
            proc,
            slots: 40,
            compute: vec![SimDuration::from_millis(10); 40],
            ios,
        };
        let trace = ProgramTrace {
            name: "shared-range".into(),
            processes: vec![
                process(0, vec![read(0, 0, filler, 15), read(1, 0, shared, 30)]),
                process(1, vec![read(2, 1, shared, 30)]),
            ],
            total_slots: 40,
        };
        let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let mut accesses = analyze_slacks(&trace, &storage.layout).unwrap();
        // Pin the schedule: process 0 prefetches the filler at slot 1,
        // which fills the one-stripe buffer until it reads it at slot 15;
        // both processes prefetch the shared range at slot 2.
        for (a, slot) in accesses.iter_mut().zip([1, 2, 2]) {
            (a.begin, a.end, a.movable) = (slot, slot, false);
        }
        let table = SchedulerConfig::paper_defaults()
            .schedule(&accesses, &trace)
            .unwrap();
        let mut cfg = EngineConfig::paper_defaults();
        cfg.buffer_capacity = STRIPE;
        let r = Engine::new(cfg, storage)
            .unwrap()
            .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
            .unwrap();
        // Both wait for room at slots 2..=15 (28 waits). At slot 16
        // process 1 walks first, after process 0 consumed the filler, and
        // reserves the shared range; process 0 then drops its entry.
        assert_eq!(
            (
                r.prefetch.issued,
                r.prefetch.deferred_full,
                r.prefetch.became_sync
            ),
            (2, 28, 0),
            "{:?}",
            r.prefetch
        );
    }

    #[test]
    fn tiny_buffer_limits_prefetching() {
        let mut p = Program::new("gap", 1);
        let f = p.add_file(FileId(0), STRIPE * 16);
        p.push_skip(16, SimDuration::from_millis(5));
        p.push_loop("i", 0, 7, move |b| {
            b.io(IoDirection::Read, f, |e| e.term("i", STRIPE as i64), STRIPE);
            b.compute(SimDuration::from_millis(5));
        });
        let trace = p.trace(SlotGranularity::unit()).unwrap();
        let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
        let table = SchedulerConfig::paper_defaults()
            .schedule(&accesses, &trace)
            .unwrap();
        let mut cfg = EngineConfig::paper_defaults();
        cfg.buffer_capacity = STRIPE; // room for exactly one block
        let r = Engine::new(cfg, storage)
            .unwrap()
            .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
            .unwrap();
        assert!(r.prefetch.deferred_full > 0 || r.prefetch.became_sync > 0);
        // Execution still completes correctly.
        assert_eq!(r.bytes_moved.0, 8 * STRIPE);
    }

    #[test]
    fn exec_time_includes_blocking_io() {
        // With zero compute the run time is pure I/O.
        let r = run_program(&scan(1, 4, 0), false);
        assert!(r.exec_time > SimDuration::ZERO);
        assert!(r.mean_read_response > 0.0);
    }

    #[test]
    fn writes_block_until_durable() {
        let mut p = Program::new("writer", 1);
        let f = p.add_file(FileId(0), 4 * STRIPE);
        p.push_loop("i", 0, 3, move |b| {
            b.io(
                IoDirection::Write,
                f,
                |e| e.term("i", STRIPE as i64),
                STRIPE,
            );
        });
        let r = run_program(&p, false);
        assert_eq!(r.bytes_moved.1, 4 * STRIPE);
        // Four RAID-5 full-stripe writes take real time.
        assert!(r.exec_time > SimDuration::from_millis(10));
    }

    #[test]
    fn zero_buffer_is_rejected() {
        let mut cfg = EngineConfig::paper_defaults();
        cfg.buffer_capacity = 0;
        let err = Engine::new(cfg, StorageConfig::paper_defaults(PolicyKind::NoPm)).unwrap_err();
        assert!(matches!(err, crate::EngineError::ZeroBuffer));
        assert_eq!(err.to_string(), "engine buffer capacity must be positive");
    }

    #[test]
    fn mismatched_schedule_is_rejected() {
        // Compile a schedule for a 2-process trace, run it against a
        // 3-process trace: the engine must refuse, not corrupt the run.
        let two = scan(2, 4, 5);
        let three = scan(3, 4, 5);
        let trace2 = two.trace(SlotGranularity::unit()).unwrap();
        let trace3 = three.trace(SlotGranularity::unit()).unwrap();
        let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let accesses = analyze_slacks(&trace2, &storage.layout).unwrap();
        let table = SchedulerConfig::paper_defaults()
            .schedule(&accesses, &trace2)
            .unwrap();
        let engine = Engine::new(EngineConfig::paper_defaults(), storage).unwrap();
        let err = engine
            .run(&trace3, Some(CompiledPlan::new(&accesses, &table)))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::EngineError::ScheduleMismatch {
                what: "process count",
                ..
            }
        ));
    }

    #[test]
    fn telemetry_absent_by_default() {
        let r = run_program(&scan(2, 4, 5), true);
        assert!(r.telemetry.is_none());
    }

    /// Like `run_program` but with the telemetry layer switched on.
    fn run_traced(p: &Program, with_scheme: bool) -> RunResult {
        let trace = p.trace(SlotGranularity::unit()).unwrap();
        let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let mut engine = Engine::new(EngineConfig::paper_defaults(), storage.clone()).unwrap();
        engine.enable_telemetry();
        if with_scheme {
            let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
            let table = SchedulerConfig::paper_defaults()
                .schedule(&accesses, &trace)
                .unwrap();
            engine
                .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
                .unwrap()
        } else {
            engine.run(&trace, None).unwrap()
        }
    }

    #[test]
    fn telemetry_does_not_change_simulated_outcome() {
        let p = scan(2, 8, 20);
        let plain = run_program(&p, true);
        let traced = run_traced(&p, true);
        assert_eq!(plain.exec_time, traced.exec_time);
        assert_eq!(
            plain.energy_joules.to_bits(),
            traced.energy_joules.to_bits()
        );
        assert_eq!(plain.buffer, traced.buffer);
        assert_eq!(plain.prefetch, traced.prefetch);
        assert_eq!(plain.per_proc_finish, traced.per_proc_finish);
        assert_eq!(plain.bytes_moved, traced.bytes_moved);
    }

    #[test]
    fn telemetry_report_is_consistent_with_the_run() {
        let p = scan(2, 8, 20);
        let r = run_traced(&p, true);
        let t = r.telemetry.as_ref().expect("telemetry was enabled");
        assert!(!t.events.is_empty());
        // The per-disk energy table sums to the run's headline energy.
        assert!((t.summary_joules() - r.energy_joules).abs() < 1e-9);
        // Runtime counters mirror the run's stats.
        assert_eq!(
            t.metrics.get_counter("runtime.scheduler.issued"),
            Some(r.prefetch.issued)
        );
        assert_eq!(
            t.metrics.get_counter("runtime.buffer.hits"),
            Some(r.buffer.hits)
        );
        // Every event line is well-formed JSON-ish (starts a JSON object).
        for line in t.jsonl().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn telemetry_trace_is_deterministic() {
        let p = scan(3, 6, 10);
        let a = run_traced(&p, true);
        let b = run_traced(&p, true);
        let (ta, tb) = (a.telemetry.unwrap(), b.telemetry.unwrap());
        assert_eq!(ta.jsonl(), tb.jsonl());
        assert_eq!(ta.metrics.to_json(), tb.metrics.to_json());
        assert_eq!(ta.chrome_trace(), tb.chrome_trace());
    }

    #[test]
    fn fault_plan_preserves_bytes_and_terminates() {
        use simkit::fault::{FaultPlan, FaultSpec};
        let p = scan(2, 8, 20);
        let trace = p.trace(SlotGranularity::unit()).unwrap();
        let clean = run_program(&p, false);

        let mut storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let spec = FaultSpec::heavy(42);
        storage.node.faults = Some(FaultPlan::generate(
            &spec,
            storage.layout.io_nodes(),
            storage.node.raid.disks(),
            storage.node.disk.total_sectors(),
        ));
        let run = || {
            Engine::new(EngineConfig::paper_defaults(), storage.clone())
                .unwrap()
                .run(&trace, None)
                .unwrap()
        };
        let faulty = run();
        // Retries and reconstructions happen below the byte-accounting
        // boundary: the application moved exactly the same data.
        assert_eq!(faulty.bytes_moved, clean.bytes_moved);
        assert!(
            faulty.faults.total_injected() >= 1,
            "a heavy plan injects: {:?}",
            faulty.faults
        );
        assert!(clean.faults.is_zero());
        // And the whole faulty run is reproducible per seed.
        let again = run();
        assert_eq!(faulty.exec_time, again.exec_time);
        assert_eq!(
            faulty.energy_joules.to_bits(),
            again.energy_joules.to_bits()
        );
        assert_eq!(faulty.faults, again.faults);
    }

    /// One process reads eight stripes with 10 µs of compute between
    /// them. The tiny compute keeps original points hot on the
    /// prefetchers' heels, so the application routinely catches its
    /// prefetch still in flight. Telemetry is on; `buffer_capacity`
    /// replaces the default capacity.
    fn run_impatient(timeout: SimDuration, buffer_capacity: Option<u64>) -> RunResult {
        let mut p = Program::new("impatient", 1);
        let f = p.add_file(FileId(0), STRIPE * 16);
        p.push_skip(16, SimDuration::from_micros(10));
        p.push_loop("i", 0, 7, move |b| {
            b.io(IoDirection::Read, f, |e| e.term("i", STRIPE as i64), STRIPE);
            b.compute(SimDuration::from_micros(10));
        });
        let trace = p.trace(SlotGranularity::unit()).unwrap();
        let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
        let table = SchedulerConfig::paper_defaults()
            .schedule(&accesses, &trace)
            .unwrap();
        let mut cfg = EngineConfig::paper_defaults();
        cfg.prefetch_timeout = Some(timeout);
        if let Some(capacity) = buffer_capacity {
            cfg.buffer_capacity = capacity;
        }
        // Prefetch even one slot ahead: the issue lands microseconds
        // before the original point, guaranteeing an in-flight catch.
        cfg.min_prefetch_advance = 1;
        let mut engine = Engine::new(cfg, storage).unwrap();
        engine.enable_telemetry();
        engine
            .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
            .unwrap()
    }

    #[test]
    fn prefetch_timeout_falls_back_to_sync() {
        // A (deliberately absurd) zero timeout turns every in-flight wait
        // into a synchronous fallback on arrival.
        let r = run_impatient(SimDuration::ZERO, None);
        assert!(r.prefetch.issued > 0, "prefetches were issued: {r:?}");
        assert!(
            r.prefetch.timed_out > 0,
            "in-flight waits should have timed out: {:?}",
            r.prefetch
        );
        // No read was lost: the fallback reads fetch everything the
        // application asked for.
        assert!(r.bytes_moved.0 >= 8 * STRIPE);
    }

    #[test]
    fn a_given_up_prefetch_frees_its_buffer_bytes() {
        // Five stripes of buffer for eight reads. A prefetch the
        // application gives up on must release its reservation: kept
        // until its completion fills it, with nothing left to consume
        // it, it would hold a fifth of the buffer to the end of the run.
        let r = run_impatient(SimDuration::ZERO, Some(5 * STRIPE));
        assert_eq!(
            (
                r.prefetch.timed_out,
                r.buffer.hits,
                r.prefetch.deferred_full
            ),
            (2, 6, 12),
            "{:?} {:?}",
            r.prefetch,
            r.buffer
        );
        assert!(r.bytes_moved.0 >= 8 * STRIPE);
    }

    #[test]
    fn prefetch_timeout_deadline_wakes_the_waiter() {
        // A 1 ms timeout has not expired when the application arrives, so
        // it blocks on the prefetch; a prefetch still in flight at its
        // deadline is given up then, exactly 1 ms after its issue.
        use std::collections::HashMap;
        let limit = SimDuration::from_millis(1);
        let r = run_impatient(limit, None);
        assert!(r.prefetch.timed_out > 0, "{:?}", r.prefetch);
        let events = &r.telemetry.as_ref().expect("telemetry was enabled").events;
        let mut issued = HashMap::new();
        let mut at_deadline = 0;
        for e in events {
            match *e {
                TraceEvent::BufferPrefetch {
                    at,
                    file,
                    offset,
                    len,
                    ..
                } => {
                    issued.insert((file, offset, len), at);
                }
                TraceEvent::PrefetchInvalidate {
                    at,
                    file,
                    offset,
                    len,
                    reason: "timeout",
                    ..
                } if issued[&(file, offset, len)] + limit == at => at_deadline += 1,
                _ => {}
            }
        }
        assert!(at_deadline > 0, "no wait ended at its deadline");
        assert!(r.bytes_moved.0 >= 8 * STRIPE);
    }

    #[test]
    fn scheme_shifts_idle_distribution_right() {
        // The headline mechanism: with the scheme, long idle periods grow.
        let mut p = Program::new("phased", 4);
        let f = p.add_file(FileId(0), 64 * STRIPE);
        p.push_skip(16, SimDuration::from_millis(50));
        p.push_loop("i", 0, 15, move |b| {
            b.io(
                IoDirection::Read,
                f,
                |e| e.term("i", STRIPE as i64).term("p", 16 * STRIPE as i64),
                STRIPE,
            );
            b.compute(SimDuration::from_millis(50));
        });
        let without = run_program(&p, false);
        let with = run_program(&p, true);
        // Compare the total completed idle time fraction at long horizons:
        // clustering reads frees contiguous stretches.
        let f_without = without
            .idle_histogram
            .fraction_at_or_below(SimDuration::from_millis(100));
        let f_with = with
            .idle_histogram
            .fraction_at_or_below(SimDuration::from_millis(100));
        // With the scheme, a *smaller* fraction of idle periods should be
        // short (more long periods), or at worst equal.
        assert!(
            f_with <= f_without + 1e-9,
            "short-idle fraction should not grow: {f_with} vs {f_without}"
        );
    }
}
