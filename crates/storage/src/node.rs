//! An I/O node: storage cache + RAID array of policy-managed disks.

use sdds_disk::{
    CompletedRequest, DiskParams, DiskRequest, EnergyAccount, RequestKind, ServiceOutcome,
};
use sdds_power::{PolicyContext, PolicyKind, PoweredArray};
use simkit::fault::{DiskFaultProfile, FaultCounters, FaultPlan};
use simkit::hash::FxHashMap;
use simkit::stats::BucketHistogram;
use simkit::telemetry::{MetricsRegistry, TraceEvent, TraceSink};
use simkit::{EventQueue, SimDuration, SimTime};

use crate::cache::{BlockKey, CacheConfig, StorageCache};
use crate::error::StorageError;
use crate::raid::RaidConfig;

/// Configuration of one I/O node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Storage-cache configuration.
    pub cache: CacheConfig,
    /// RAID geometry.
    pub raid: RaidConfig,
    /// Member-disk parameters.
    pub disk: DiskParams,
    /// Power policy applied to every member disk.
    pub policy: PolicyKind,
    /// Server-side service time for a cache hit (memory copy + bus).
    pub hit_latency: SimDuration,
    /// Optional fault-injection plan for the whole array; each node picks
    /// its own per-disk profiles by index. `None` (the default) keeps the
    /// entire fault machinery off the hot path and every simulated metric
    /// bit-for-bit identical to a fault-free build.
    pub faults: Option<FaultPlan>,
}

impl NodeConfig {
    /// Table II defaults with the given power policy.
    pub fn paper_defaults(policy: PolicyKind) -> Self {
        NodeConfig {
            cache: CacheConfig::paper_defaults(),
            raid: RaidConfig::paper_defaults(),
            disk: DiskParams::paper_defaults(),
            policy,
            hit_latency: SimDuration::from_micros(500),
            faults: None,
        }
    }

    /// Checks every part of the node configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`StorageError`] found: an undersized cache, or a
    /// power policy / disk parameter combination rejected by
    /// [`PolicyKind::validate`].
    pub fn validate(&self) -> Result<(), StorageError> {
        self.cache.validate()?;
        self.policy.validate(&self.disk)?;
        Ok(())
    }
}

/// Result of offering an access to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOp {
    /// Served from the storage cache; done at the given time.
    Hit(SimTime),
    /// Disk work was issued; a completion for this operation id will be
    /// reported later.
    Pending(u64),
}

/// Why a member-disk request was issued.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    /// Part of node operation `op`; on the last member completion the op
    /// completes, and `fill` (for reads) installs the block in the cache.
    Op { op: u64, fill: Option<BlockKey> },
    /// Opportunistic read-ahead of `block`.
    Prefetch { block: BlockKey },
}

/// Routing record for one in-flight member-disk request.
#[derive(Debug, Clone, Copy)]
struct IssuedMeta {
    purpose: Purpose,
    /// How many times this attempt chain has already been retried.
    attempt: u8,
    /// `true` for requests issued by the recovery path itself (retries
    /// after remap, reconstruction reads, crash redirects); a failing
    /// recovery read reissues in place instead of fanning out again.
    recovery: bool,
    /// Engine-wide access id this request serves, when known — the causal
    /// parent link recorded on issue-anchored trace events. `None` for
    /// cache-initiated prefetch traffic.
    access: Option<u64>,
}

/// Retries granted to a failing read before its disk is given up on and
/// the RAID layer reconstructs from the surviving members.
const RETRY_LIMIT: u8 = 3;

/// Exponential backoff before retry `attempt + 1`: 1 ms, 2 ms, 4 ms, ...
fn retry_backoff(attempt: u8) -> SimDuration {
    SimDuration::from_millis(1u64 << attempt.min(6))
}

/// An I/O node of the Figure 1 architecture.
///
/// Node-level block reads first consult the storage cache; misses fan out
/// through the RAID layer to the member disks (each wrapped in its own
/// power policy). Writes are written through. Completions are collected
/// per node operation (the slowest member defines the completion time).
#[derive(Debug)]
pub struct IoNode {
    id: usize,
    cache: StorageCache,
    raid: RaidConfig,
    hit_latency: SimDuration,
    array: PoweredArray,
    next_request: u64,
    next_op: u64,
    purposes: FxHashMap<u64, IssuedMeta>,
    remaining: FxHashMap<u64, (usize, SimTime)>,
    completions: Vec<(u64, SimTime)>,
    /// Telemetry buffer for cache events; `None` (the default) keeps
    /// tracing entirely off the hot path.
    trace: Option<TraceSink>,
    /// Latest simulated instant this node has been driven to.
    now: SimTime,
    /// Per-disk fault profiles (crash windows are enforced here, at issue
    /// time); `None` keeps every fault check off the hot path.
    faults: Option<Vec<DiskFaultProfile>>,
    /// Requests parked until a crash window ends or a retry backoff
    /// expires. Always empty without a fault plan.
    deferred: EventQueue<(usize, DiskRequest)>,
    /// Scratch buffer for failed completions surfaced while draining the
    /// array (reused across drains; empty on the fault-free path).
    failed_scratch: Vec<(usize, CompletedRequest, IssuedMeta)>,
    /// Recovery-path counters (retries, remaps, reconstructions, ...).
    fault_stats: FaultCounters,
}

impl IoNode {
    /// Creates node `id` from a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`StorageError`] when the cache configuration or the
    /// power policy / disk parameter combination is invalid.
    pub fn new(id: usize, config: &NodeConfig) -> Result<Self, StorageError> {
        // Policies are built per node so that node-aware kinds (the table
        // lookup's per-node forecast row, the online family's per-node
        // jitter substream) know which node they manage.
        let policy = config
            .policy
            .build(&config.disk, PolicyContext::for_node(id))?;
        let mut array =
            PoweredArray::with_policy(config.disk.clone(), config.raid.disks(), policy)?;
        let faults = config.faults.as_ref().and_then(|plan| {
            (id < plan.io_nodes()).then(|| {
                let profiles = plan.node(id);
                array.install_faults(profiles);
                profiles.to_vec()
            })
        });
        Ok(IoNode {
            id,
            cache: StorageCache::new(config.cache.clone())?,
            raid: config.raid.clone(),
            hit_latency: config.hit_latency,
            array,
            next_request: 0,
            next_op: 0,
            purposes: FxHashMap::default(),
            remaining: FxHashMap::default(),
            completions: Vec::new(),
            trace: None,
            now: SimTime::ZERO,
            faults,
            deferred: EventQueue::new(),
            failed_scratch: Vec::new(),
            fault_stats: FaultCounters::default(),
        })
    }

    /// Enables structured tracing on this node: cache activity is
    /// recorded here, and the power driver and member disks record their
    /// own events, all tagged with this node's index. Tracing only
    /// buffers events and never alters the simulation.
    pub fn enable_trace(&mut self) {
        self.array.enable_trace(self.id as u32);
        self.trace = Some(TraceSink::new());
    }

    /// Removes and returns all trace events recorded so far by this node,
    /// its power driver and its member disks (empty when tracing was
    /// never enabled).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        let mut out = match self.trace.as_mut() {
            Some(sink) => sink.take_events(),
            None => Vec::new(),
        };
        out.extend(self.array.take_trace_events());
        out
    }

    /// Publishes node-level metrics into `registry`: the storage cache
    /// under `storage.n<id>.cache`, the merged idle-period histogram
    /// under `storage.n<id>.idle_periods`, and the power driver's and
    /// member disks' metrics.
    pub fn record_metrics(&self, registry: &mut MetricsRegistry) {
        let n = self.id;
        let stats = self.cache.stats();
        registry.counter(&format!("storage.n{n}.cache.read_hits"), stats.read_hits);
        registry.counter(
            &format!("storage.n{n}.cache.read_misses"),
            stats.read_misses,
        );
        registry.counter(&format!("storage.n{n}.cache.writes"), stats.writes);
        registry.counter(
            &format!("storage.n{n}.cache.useful_prefetches"),
            stats.useful_prefetches,
        );
        registry.counter(
            &format!("storage.n{n}.cache.issued_prefetches"),
            stats.issued_prefetches,
        );
        registry.gauge(&format!("storage.n{n}.cache.hit_ratio"), stats.hit_ratio());
        registry.histogram(
            &format!("storage.n{n}.idle_periods"),
            &self.idle_histogram(),
        );
        // Fault metrics only exist when a plan is installed, keeping the
        // metrics snapshot of a fault-free run byte-identical to builds
        // without the fault subsystem.
        if self.faults.is_some() {
            let c = self.fault_counters();
            registry.counter(&format!("storage.n{n}.faults.injected"), c.total_injected());
            registry.counter(&format!("storage.n{n}.faults.retried"), c.retried);
            registry.counter(&format!("storage.n{n}.faults.remapped"), c.remapped);
            registry.counter(
                &format!("storage.n{n}.faults.reconstructed"),
                c.reconstructed,
            );
            registry.counter(&format!("storage.n{n}.faults.redirected"), c.redirected);
            registry.counter(&format!("storage.n{n}.faults.deferred"), c.deferred);
        }
        self.array.record_metrics(registry, n as u32);
    }

    /// This node's index in the array.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The storage cache (read-only).
    pub fn cache(&self) -> &StorageCache {
        &self.cache
    }

    /// The member disks (read-only).
    pub fn disks(&self) -> &[sdds_disk::Disk] {
        self.array.disks()
    }

    /// Merged fault counters: injections observed by the member disks
    /// plus this node's recovery-path actions. All-zero without a fault
    /// plan.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut c = self.array.fault_counters();
        c.merge(&self.fault_stats);
        c
    }

    /// Submits a node-local block read at `t` on behalf of engine access
    /// `access`, so issue-anchored trace events carry the causal parent
    /// link. Prefetches triggered by the read stay unparented (they are
    /// cache-initiated, not part of the access's critical path).
    pub fn submit_read(&mut self, block: BlockKey, t: SimTime, access: Option<u64>) -> NodeOp {
        self.now = self.now.max(t);
        let outcome = self.cache.read(block);
        if let Some(sink) = self.trace.as_mut() {
            let kind = if outcome.prefetched_hit {
                "read-hit-prefetched"
            } else if outcome.hit {
                "read-hit"
            } else {
                "read-miss"
            };
            sink.record(TraceEvent::CacheAccess {
                at: t,
                node: self.id as u32,
                file: block.0 .0,
                block: block.1,
                kind,
            });
            for key in &outcome.prefetches {
                sink.record(TraceEvent::PrefetchIssue {
                    at: t,
                    node: self.id as u32,
                    file: key.0 .0,
                    block: key.1,
                });
            }
        }
        if outcome.hit {
            return NodeOp::Hit(t + self.hit_latency);
        }
        let op = self.new_op();
        let mut members = 0;
        for key in &outcome.demand_fetches {
            members += self.issue(
                self.raid.map_read(key.1),
                Purpose::Op {
                    op,
                    fill: Some(*key),
                },
                t,
                access,
            );
        }
        for key in &outcome.prefetches {
            self.issue(
                self.raid.map_read(key.1),
                Purpose::Prefetch { block: *key },
                t,
                None,
            );
        }
        debug_assert!(members > 0, "a read miss must touch at least one disk");
        self.remaining.insert(op, (members, t));
        NodeOp::Pending(op)
    }

    /// Submits a node-local block write at `t` (write-through) on behalf
    /// of engine access `access` (see [`IoNode::submit_read`]).
    pub fn submit_write(&mut self, block: BlockKey, t: SimTime, access: Option<u64>) -> NodeOp {
        self.now = self.now.max(t);
        let outcome = self.cache.write(block);
        if let Some(sink) = self.trace.as_mut() {
            sink.record(TraceEvent::CacheAccess {
                at: t,
                node: self.id as u32,
                file: block.0 .0,
                block: block.1,
                kind: "write",
            });
            if let Some((f, b)) = outcome.evicted {
                sink.record(TraceEvent::CacheEvict {
                    at: t,
                    node: self.id as u32,
                    file: f.0,
                    block: b,
                });
            }
        }
        let op = self.new_op();
        let mut members = 0;
        for key in &outcome.writebacks {
            members += self.issue(
                self.raid.map_write(key.1),
                Purpose::Op { op, fill: None },
                t,
                access,
            );
        }
        debug_assert!(members > 0, "a write must touch at least one disk");
        self.remaining.insert(op, (members, t));
        NodeOp::Pending(op)
    }

    /// The next instant at which any member disk — or a deferred
    /// recovery submission — needs attention.
    pub fn next_event_time(&self) -> Option<SimTime> {
        match (self.array.next_event_time(), self.deferred.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether advancing to `t` would do more than accrue energy: the
    /// power driver has work [due](PoweredArray::due_by) by `t`, or a
    /// deferred recovery submission falls at or before `t`.
    pub fn due_by(&self, t: SimTime) -> bool {
        self.array.due_by(t) || self.deferred.peek_time().is_some_and(|at| at <= t)
    }

    /// Replays cut points this node was not advanced to: the same
    /// accruals as one [`IoNode::advance_to`] per cut point while nothing
    /// is [due](IoNode::due_by) by the last of them.
    pub fn accrue_through(&mut self, cuts: &[SimTime]) {
        let Some(&last) = cuts.last() else {
            return;
        };
        debug_assert!(
            !self.due_by(last),
            "node {} has work due by {last}",
            self.id
        );
        self.array.accrue_through(cuts);
        self.now = self.now.max(last);
    }

    /// Advances all member disks to `t` and collects op completions,
    /// releasing any deferred recovery submissions that come due on the
    /// way.
    pub fn advance_to(&mut self, t: SimTime) {
        if self.faults.is_none() {
            self.array.advance_to(t);
            self.now = self.now.max(t);
            self.collect_completions();
            return;
        }
        // Step from event to event instead of jumping straight to `t`:
        // a failure must be observed at its completion time so retries,
        // reconstructions and deferred submissions happen *then*, not at
        // whatever horizon the caller advanced to. Each step goes to the
        // earlier of the array's and the deferred queue's next times (both
        // re-read each round, since a fired event can reschedule either),
        // collects the array's completions, then releases what the queue
        // holds for that instant. The order inside a step decides nothing:
        // recovery never parks work at the instant being stepped (retries
        // back off at least 1 ms, deferrals wait for a crash window's end).
        while let Some(next) = self.next_event_time().filter(|&next| next <= t) {
            let step = next.max(self.now);
            self.array.advance_to(step);
            self.now = self.now.max(step);
            self.collect_completions();
            while self.deferred.peek_time().is_some_and(|d| d <= step) {
                let Some((at, (disk, req))) = self.deferred.pop() else {
                    break;
                };
                self.fire_deferred(at, disk, req);
            }
        }
        self.array.advance_to(t);
        self.now = self.now.max(t);
        self.collect_completions();
    }

    /// Ends the simulation at `t` for all member disks.
    pub fn finish(&mut self, t: SimTime) {
        if self.faults.is_some() {
            self.advance_to(t);
        }
        self.array.finish(t);
        self.now = self.now.max(t);
        self.collect_completions();
    }

    /// Removes and returns completed node operations as
    /// `(op_id, completion_time)` pairs.
    ///
    /// Collects any member-disk completions first, so operations finished
    /// during a `submit_*` call surface immediately — a later caller must
    /// never observe a completion older than the last interaction time.
    pub fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
        self.collect_completions();
        std::mem::take(&mut self.completions)
    }

    /// Feeds completed node operations to `sink` as
    /// `(op_id, completion_time)` and clears them, keeping this node's
    /// buffer capacity — the allocation-free variant of
    /// [`IoNode::drain_completions`].
    pub fn drain_completions_with(&mut self, mut sink: impl FnMut(u64, SimTime)) {
        self.collect_completions();
        for (op, at) in self.completions.drain(..) {
            sink(op, at);
        }
    }

    /// Total energy of all member disks, in joules.
    pub fn total_joules(&self) -> f64 {
        self.array.total_joules()
    }

    /// Merged per-state energy account of the member disks.
    pub fn energy(&self) -> EnergyAccount {
        let mut acct = EnergyAccount::new();
        for d in self.array.disks() {
            acct.merge(d.energy());
        }
        acct
    }

    /// Merged idle-period histogram of the member disks.
    pub fn idle_histogram(&self) -> BucketHistogram {
        let mut h = BucketHistogram::paper_idle_buckets();
        for d in self.array.disks() {
            h.merge(d.idle_tracker().histogram());
        }
        h
    }

    fn new_op(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        op
    }

    /// Issues member requests tagged with `purpose`; returns how many
    /// member completions the caller should expect (submitted, redirected
    /// and deferred requests all complete eventually).
    fn issue(
        &mut self,
        members: Vec<crate::raid::MemberRequest>,
        purpose: Purpose,
        t: SimTime,
        access: Option<u64>,
    ) -> usize {
        let meta = IssuedMeta {
            purpose,
            attempt: 0,
            recovery: false,
            access,
        };
        if self.faults.is_none() {
            let n = members.len();
            for m in members {
                self.submit_member(m.disk, m.kind, m.lba, m.sectors, meta, t);
            }
            return n;
        }
        self.issue_with_faults(members, meta, t)
    }

    /// Fault-aware issue: members inside a crash window are redirected to
    /// a surviving mirror/parity member when the RAID level allows it, or
    /// parked until the disk recovers.
    fn issue_with_faults(
        &mut self,
        members: Vec<crate::raid::MemberRequest>,
        meta: IssuedMeta,
        t: SimTime,
    ) -> usize {
        let mut targeted: Vec<usize> = members.iter().map(|m| m.disk).collect();
        let count = members.len();
        for m in members {
            let Some(recovery_at) = self.crashed_at(m.disk, t) else {
                self.submit_member(m.disk, m.kind, m.lba, m.sectors, meta, t);
                continue;
            };
            // The target is mid-crash. A redundant read can be served by
            // a member not already part of this fan-out (RAID-5: the
            // parity chunk; RAID-10: the mirror side), as long as that
            // member is itself up.
            let replacement = if m.kind.is_read() && self.raid.has_redundancy() {
                let block = self.raid.block_of_lba(m.lba);
                self.raid
                    .map_degraded_read(block, m.disk)
                    .into_iter()
                    .find(|r| !targeted.contains(&r.disk) && self.crashed_at(r.disk, t).is_none())
            } else {
                None
            };
            match replacement {
                Some(r) => {
                    targeted.push(r.disk);
                    self.fault_stats.redirected += 1;
                    if let Some(sink) = self.trace.as_mut() {
                        sink.record(TraceEvent::FaultReconstruct {
                            at: t,
                            node: self.id as u32,
                            disk: m.disk as u32,
                            block: self.raid.block_of_lba(m.lba),
                            members: 1,
                            reason: "crash",
                        });
                    }
                    self.submit_member(
                        r.disk,
                        r.kind,
                        r.lba,
                        r.sectors,
                        IssuedMeta {
                            recovery: true,
                            ..meta
                        },
                        t,
                    );
                }
                None => {
                    // No survivor can stand in (no redundancy, a write,
                    // or the survivors are down too): wait out the crash.
                    self.fault_stats.deferred += 1;
                    self.schedule_resubmit(recovery_at, m.disk, m.kind, m.lba, m.sectors, meta);
                }
            }
        }
        count
    }

    /// Assigns a request id, records its routing and hands it to the
    /// array at `t`.
    fn submit_member(
        &mut self,
        disk: usize,
        kind: RequestKind,
        lba: u64,
        sectors: u32,
        meta: IssuedMeta,
        t: SimTime,
    ) {
        let id = self.next_request;
        self.next_request += 1;
        self.purposes.insert(id, meta);
        self.record_issue(t, disk, id, &meta);
        self.array
            .submit(disk, DiskRequest::new(id, kind, lba, sectors), t);
    }

    /// Records the issue-anchored span event for a member request, so the
    /// merged trace orders causes before effects (the completion-side
    /// [`TraceEvent::Request`] is end-timestamped).
    fn record_issue(&mut self, at: SimTime, disk: usize, id: u64, meta: &IssuedMeta) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(TraceEvent::RequestIssued {
                at,
                node: self.id as u32,
                disk: disk as u32,
                id,
                access: meta.access,
                attempt: meta.attempt as u32,
                recovery: meta.recovery,
            });
        }
    }

    /// Parks a request in the deferred queue to (re)enter the array at
    /// `at`; its routing record is registered immediately.
    fn schedule_resubmit(
        &mut self,
        at: SimTime,
        disk: usize,
        kind: RequestKind,
        lba: u64,
        sectors: u32,
        meta: IssuedMeta,
    ) {
        let id = self.next_request;
        self.next_request += 1;
        self.purposes.insert(id, meta);
        self.record_issue(at, disk, id, &meta);
        self.deferred
            .schedule(at, (disk, DiskRequest::new(id, kind, lba, sectors)));
    }

    /// Releases a deferred request. If its disk crashed again in the
    /// meantime it goes back to sleep until that window ends.
    fn fire_deferred(&mut self, at: SimTime, disk: usize, req: DiskRequest) {
        let at = at.max(self.now);
        if let Some(end) = self.crashed_at(disk, at) {
            self.deferred.schedule(end, (disk, req));
            return;
        }
        self.array.submit(disk, req, at);
        self.now = self.now.max(at);
    }

    /// Submits a recovery request at the current instant, or parks it if
    /// its disk is mid-crash.
    fn submit_or_defer(
        &mut self,
        disk: usize,
        kind: RequestKind,
        lba: u64,
        sectors: u32,
        meta: IssuedMeta,
    ) {
        match self.crashed_at(disk, self.now) {
            Some(end) => {
                self.fault_stats.deferred += 1;
                self.schedule_resubmit(end, disk, kind, lba, sectors, meta);
            }
            None => self.submit_member(disk, kind, lba, sectors, meta, self.now),
        }
    }

    /// When (if ever) member `disk` is inside a crash window at `t`;
    /// returns the window's end.
    fn crashed_at(&self, disk: usize, t: SimTime) -> Option<SimTime> {
        self.faults.as_ref()?.get(disk)?.crashed_at(t)
    }

    fn collect_completions(&mut self) {
        loop {
            // Destructure so the sink closure can borrow the routing
            // state while the array drains into it without any
            // intermediate Vec. Failed attempts are set aside (the
            // closure cannot re-enter the array) and handled below.
            let IoNode {
                array,
                cache,
                purposes,
                remaining,
                completions,
                trace,
                id,
                failed_scratch,
                ..
            } = self;
            let node_id = *id as u32;
            array.drain_completions_with(|disk_idx, done| {
                let Some(meta) = purposes.remove(&done.request.id.0) else {
                    debug_assert!(false, "completion for unknown request {}", done.request.id);
                    return;
                };
                if !done.outcome.is_ok() {
                    failed_scratch.push((disk_idx, done, meta));
                    return;
                }
                match meta.purpose {
                    Purpose::Prefetch { block } => {
                        let evicted = cache.fill(block, true);
                        if let (Some(sink), Some((f, b))) = (trace.as_mut(), evicted) {
                            sink.record(TraceEvent::CacheEvict {
                                at: done.completion,
                                node: node_id,
                                file: f.0,
                                block: b,
                            });
                        }
                    }
                    Purpose::Op { op, fill } => {
                        let Some(entry) = remaining.get_mut(&op) else {
                            debug_assert!(false, "op bookkeeping out of sync for op {op}");
                            return;
                        };
                        entry.0 -= 1;
                        entry.1 = entry.1.max(done.completion);
                        if entry.0 == 0 {
                            let Some((_, finished_at)) = remaining.remove(&op) else {
                                debug_assert!(false, "op {op} vanished mid-completion");
                                return;
                            };
                            if let Some(block) = fill {
                                let evicted = cache.fill(block, false);
                                if let (Some(sink), Some((f, b))) = (trace.as_mut(), evicted) {
                                    sink.record(TraceEvent::CacheEvict {
                                        at: finished_at,
                                        node: node_id,
                                        file: f.0,
                                        block: b,
                                    });
                                }
                            }
                            completions.push((op, finished_at));
                        }
                    }
                }
            });
            if self.failed_scratch.is_empty() {
                break;
            }
            // Recovery may submit follow-up work to the array, which can
            // surface further (already due) completions — loop until the
            // drain comes back clean.
            let mut failures = std::mem::take(&mut self.failed_scratch);
            for (disk_idx, done, meta) in failures.drain(..) {
                self.handle_failure(disk_idx, done, meta);
            }
            self.failed_scratch = failures;
        }
    }

    /// Reacts to a failed read attempt: bounded retry with backoff, then
    /// sector remap plus either RAID reconstruction from the survivors or
    /// an in-place reissue.
    fn handle_failure(&mut self, disk_idx: usize, done: CompletedRequest, meta: IssuedMeta) {
        let req = done.request;
        debug_assert!(req.kind.is_read(), "only reads can fail");
        if done.outcome == ServiceOutcome::TransientError && meta.attempt < RETRY_LIMIT {
            let attempt = meta.attempt + 1;
            let at = done.completion + retry_backoff(meta.attempt);
            self.fault_stats.retried += 1;
            if let Some(sink) = self.trace.as_mut() {
                sink.record(TraceEvent::FaultRetry {
                    at,
                    node: self.id as u32,
                    disk: disk_idx as u32,
                    id: req.id.0,
                    attempt: attempt as u32,
                });
            }
            self.schedule_resubmit(
                at,
                disk_idx,
                req.kind,
                req.lba,
                req.sectors,
                IssuedMeta { attempt, ..meta },
            );
            return;
        }
        // Out of retries or unreadable media: clear any bad sectors under
        // the range so follow-up requests can land.
        if self.array.remap_sectors(disk_idx, req.lba, req.sectors) > 0 {
            self.fault_stats.remapped += 1;
        }
        let demand_read = matches!(meta.purpose, Purpose::Op { fill: Some(_), .. });
        if demand_read && !meta.recovery && self.raid.has_redundancy() {
            // Rebuild the lost chunk from the surviving members; the
            // reconstruction reads join the same node op so its
            // completion waits for them.
            let Purpose::Op { op, .. } = meta.purpose else {
                return;
            };
            let block = self.raid.block_of_lba(req.lba);
            let survivors = self.raid.map_degraded_read(block, disk_idx);
            self.fault_stats.reconstructed += 1;
            if let Some(sink) = self.trace.as_mut() {
                sink.record(TraceEvent::FaultReconstruct {
                    at: self.now,
                    node: self.id as u32,
                    disk: disk_idx as u32,
                    block,
                    members: survivors.len() as u32,
                    reason: "bad-sector",
                });
            }
            if let Some(entry) = self.remaining.get_mut(&op) {
                // The failed request never decremented the op: swap its
                // one expected completion for the survivors'.
                entry.0 += survivors.len() - 1;
            } else {
                debug_assert!(false, "reconstruction for op {op} with no bookkeeping");
            }
            let recovery_meta = IssuedMeta {
                purpose: meta.purpose,
                attempt: 0,
                recovery: true,
                access: meta.access,
            };
            for m in survivors {
                self.submit_or_defer(m.disk, m.kind, m.lba, m.sectors, recovery_meta);
            }
        } else {
            // Prefetches, recovery reads and single-disk nodes reissue in
            // place: the remap above cleared any media error, and a fresh
            // attempt chain rides out transient errors.
            self.submit_or_defer(
                disk_idx,
                req.kind,
                req.lba,
                req.sectors,
                IssuedMeta {
                    attempt: 0,
                    recovery: true,
                    purpose: meta.purpose,
                    access: meta.access,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::striping::FileId;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn node() -> IoNode {
        IoNode::new(0, &NodeConfig::paper_defaults(PolicyKind::NoPm)).unwrap()
    }

    fn block(i: u64) -> BlockKey {
        (FileId(0), i)
    }

    #[test]
    fn read_miss_completes_via_disks() {
        let mut n = node();
        let op = match n.submit_read(block(0), t(0), None) {
            NodeOp::Pending(op) => op,
            hit => panic!("expected a miss, got {hit:?}"),
        };
        n.advance_to(t(5_000_000));
        let done = n.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, op);
        assert!(done[0].1 > t(0));
    }

    #[test]
    fn read_hit_after_fill() {
        let mut n = node();
        n.submit_read(block(0), t(0), None);
        n.advance_to(t(5_000_000));
        n.drain_completions();
        match n.submit_read(block(0), t(5_000_000), None) {
            NodeOp::Hit(done) => assert_eq!(done, t(5_000_000) + n.hit_latency),
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn prefetch_makes_next_block_a_hit() {
        let mut n = node();
        n.submit_read(block(0), t(0), None); // prefetches blocks 1, 2
        n.advance_to(t(5_000_000));
        n.drain_completions();
        assert!(matches!(
            n.submit_read(block(1), t(5_000_000), None),
            NodeOp::Hit(_)
        ));
        assert!(n.cache().stats().useful_prefetches >= 1);
    }

    #[test]
    fn write_fans_out_to_all_members() {
        let mut n = node();
        let op = match n.submit_write(block(3), t(0), None) {
            NodeOp::Pending(op) => op,
            hit => panic!("unexpected {hit:?}"),
        };
        n.advance_to(t(5_000_000));
        let done = n.drain_completions();
        assert_eq!(done, vec![(op, done[0].1)]);
        // RAID-5 full-stripe write: every member disk served one request.
        for d in n.disks() {
            assert!(d.counters().requests_served >= 1);
        }
    }

    #[test]
    fn completion_time_is_slowest_member() {
        let mut n = node();
        n.submit_read(block(0), t(0), None);
        n.advance_to(t(5_000_000));
        let done = n.drain_completions();
        assert!(done[0].1 >= t(0));
    }

    #[test]
    fn energy_accrues_across_members() {
        let mut n = node();
        n.finish(t(1_000_000));
        // 4 idle disks for 1 s at 17.1 W.
        assert!((n.total_joules() - 4.0 * 17.1).abs() < 1e-6);
        assert_eq!(n.energy().total_time(), SimDuration::from_secs(4));
    }

    #[test]
    fn idle_histogram_merges_members() {
        let mut n = node();
        n.submit_read(block(0), t(1_000_000), None);
        n.finish(t(2_000_000));
        let h = n.idle_histogram();
        // Each of the 3 data disks (RAID-5 read) has idle periods before
        // and after its request; the parity disk idles throughout.
        assert!(h.total() >= 4);
    }

    fn faulty_node(profiles: Vec<DiskFaultProfile>) -> IoNode {
        let mut config = NodeConfig::paper_defaults(PolicyKind::NoPm);
        config.faults = Some(FaultPlan::from_profiles(vec![profiles]));
        IoNode::new(0, &config).unwrap()
    }

    /// Four clean member profiles with `profile` installed at `disk`.
    fn one_bad_member(disk: usize, profile: DiskFaultProfile) -> Vec<DiskFaultProfile> {
        let mut v = vec![DiskFaultProfile::none(); 4];
        v[disk] = profile;
        v
    }

    #[test]
    fn bad_sector_read_reconstructs_from_survivors() {
        // Block 0 (parity on member 0) stores data on members 1..3 at
        // LBA 0; a bad sector there makes member 1's chunk unreadable.
        let mut n = faulty_node(one_bad_member(
            1,
            DiskFaultProfile {
                bad_sectors: vec![0],
                ..DiskFaultProfile::none()
            },
        ));
        let NodeOp::Pending(op) = n.submit_read(block(0), t(0), None) else {
            panic!("expected a miss");
        };
        n.advance_to(t(30_000_000));
        let done = n.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, op);
        let c = n.fault_counters();
        assert!(c.injected_bad_sector >= 1, "the bad sector fired: {c:?}");
        assert!(c.remapped >= 1, "the range was remapped: {c:?}");
        assert!(c.reconstructed >= 1, "survivors rebuilt the chunk: {c:?}");
        // The parity member (disk 0) served reconstruction reads.
        assert!(n.disks()[0].counters().requests_served >= 1);
        // After the remap the block rereads cleanly from its home disk.
        assert!(n.disks()[1].fault_counters().injected_bad_sector >= 1);
    }

    #[test]
    fn prefetch_bad_sector_reissues_in_place_after_remap() {
        // Block 1 (parity on member 1) stores data on members 0, 2, 3 at
        // LBA 43; fail member 0's chunk. Reading block 0 prefetches
        // block 1, whose failed member read must remap + reissue rather
        // than fan out.
        let mut n = faulty_node(one_bad_member(
            0,
            DiskFaultProfile {
                bad_sectors: vec![43],
                ..DiskFaultProfile::none()
            },
        ));
        n.submit_read(block(0), t(0), None);
        n.advance_to(t(30_000_000));
        n.drain_completions();
        let c = n.fault_counters();
        assert!(c.injected_bad_sector >= 1);
        assert!(c.remapped >= 1);
        // The prefetched block still landed in the cache.
        assert!(matches!(
            n.submit_read(block(1), t(30_000_000), None),
            NodeOp::Hit(_)
        ));
    }

    #[test]
    fn crashed_member_read_redirects_to_survivor() {
        let mut n = faulty_node(one_bad_member(
            3,
            DiskFaultProfile {
                crash_windows: vec![(t(0), t(2_000_000))],
                ..DiskFaultProfile::none()
            },
        ));
        let NodeOp::Pending(op) = n.submit_read(block(0), t(0), None) else {
            panic!("expected a miss");
        };
        // Completes well inside the crash window: member 3's chunk was
        // served by the parity member instead.
        n.advance_to(t(1_000_000));
        let done = n.drain_completions();
        assert_eq!(done, vec![(op, done[0].1)]);
        assert!(done[0].1 < t(2_000_000));
        assert_eq!(n.disks()[3].counters().requests_served, 0);
        assert!(n.fault_counters().redirected >= 1);
    }

    #[test]
    fn write_to_crashed_member_defers_until_recovery() {
        let mut n = faulty_node(one_bad_member(
            2,
            DiskFaultProfile {
                crash_windows: vec![(t(0), t(2_000_000))],
                ..DiskFaultProfile::none()
            },
        ));
        let NodeOp::Pending(op) = n.submit_write(block(0), t(0), None) else {
            panic!("expected disk work");
        };
        // A full-stripe write cannot skip the crashed member, so the op
        // waits for the crash window to end.
        n.advance_to(t(1_900_000));
        assert!(n.drain_completions().is_empty());
        n.advance_to(t(30_000_000));
        let done = n.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, op);
        assert!(done[0].1 >= t(2_000_000));
        assert!(n.fault_counters().deferred >= 1);
        assert!(n.disks()[2].counters().requests_served >= 1);
    }

    #[test]
    fn transient_recovery_is_deterministic() {
        let run = || {
            let mut n = faulty_node(one_bad_member(
                1,
                DiskFaultProfile {
                    transient_rate: 0.7,
                    rng_seed: 0xfeed_beef,
                    ..DiskFaultProfile::none()
                },
            ));
            let mut ops = Vec::new();
            for (i, at) in [(0u64, 0u64), (4, 1_000_000), (8, 2_000_000)] {
                if let NodeOp::Pending(op) = n.submit_read(block(i), t(at), None) {
                    ops.push(op);
                }
            }
            n.advance_to(t(120_000_000));
            let done = n.drain_completions();
            (done, n.fault_counters(), n.total_joules().to_bits())
        };
        let (done_a, counters_a, joules_a) = run();
        let (done_b, counters_b, joules_b) = run();
        assert_eq!(done_a, done_b);
        assert_eq!(counters_a, counters_b);
        assert_eq!(joules_a, joules_b);
        assert_eq!(done_a.len(), 3, "every op eventually completed");
        assert!(counters_a.injected_transient >= 1);
        assert!(counters_a.retried >= 1);
    }

    #[test]
    fn no_plan_keeps_counters_zero() {
        let mut n = node();
        n.submit_read(block(0), t(0), None);
        n.advance_to(t(10_000_000));
        n.drain_completions();
        assert!(n.fault_counters().is_zero());
    }

    #[test]
    fn distinct_ops_complete_independently() {
        let mut n = node();
        let op0 = n.submit_read(block(0), t(0), None);
        let op1 = n.submit_read(block(10), t(0), None);
        n.advance_to(t(10_000_000));
        let done = n.drain_completions();
        assert_eq!(done.len(), 2);
        let (NodeOp::Pending(a), NodeOp::Pending(b)) = (op0, op1) else {
            panic!("both should miss");
        };
        let ids: Vec<u64> = done.iter().map(|c| c.0).collect();
        assert!(ids.contains(&a) && ids.contains(&b));
    }
}
