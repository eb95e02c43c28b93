//! The full storage system: striped I/O nodes with access tracking.

use sdds_disk::EnergyAccount;
use sdds_power::PolicyKind;
use simkit::hash::FxHashMap;
use simkit::stats::BucketHistogram;
use simkit::SimTime;

use crate::error::StorageError;
use crate::node::{IoNode, NodeConfig, NodeOp};
use crate::striping::{FileId, StripingLayout};

/// Whether a file access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read disk-resident data.
    Read,
    /// Write data to disk.
    Write,
}

/// A byte-range access to a striped file (an MPI-IO call after collective
/// aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAccess {
    /// Target file.
    pub file: FileId,
    /// Starting byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Read or write.
    pub kind: AccessKind,
}

impl FileAccess {
    /// Creates a read access.
    pub fn read(file: FileId, offset: u64, len: u64) -> Self {
        FileAccess {
            file,
            offset,
            len,
            kind: AccessKind::Read,
        }
    }

    /// Creates a write access.
    pub fn write(file: FileId, offset: u64, len: u64) -> Self {
        FileAccess {
            file,
            offset,
            len,
            kind: AccessKind::Write,
        }
    }
}

/// Identifier of a submitted access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccessId(pub u64);

/// A finished access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCompletion {
    /// Which access completed.
    pub access: AccessId,
    /// When its last byte moved (slowest node operation).
    pub time: SimTime,
}

/// Configuration of the whole storage array.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// File-to-node striping map.
    pub layout: StripingLayout,
    /// Per-node configuration (cache, RAID, disk, power policy).
    pub node: NodeConfig,
}

impl StorageConfig {
    /// Table II defaults under the given power policy.
    pub fn paper_defaults(policy: PolicyKind) -> Self {
        StorageConfig {
            layout: StripingLayout::paper_defaults(),
            node: NodeConfig::paper_defaults(policy),
        }
    }

    /// Checks the whole array configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`StorageError`] found in the per-node
    /// configuration (the layout is validated at construction and is
    /// always consistent).
    pub fn validate(&self) -> Result<(), StorageError> {
        self.node.validate()
    }
}

/// The array of I/O nodes behind the parallel file system.
///
/// `StorageSystem` is event-driven: [`StorageSystem::submit`] registers an
/// access at a point in simulated time, [`StorageSystem::advance_to`] lets
/// the disks progress, and [`StorageSystem::drain_completions`] yields
/// finished accesses. An access completes when its slowest node operation
/// completes.
///
/// # Example
///
/// ```
/// use sdds_power::PolicyKind;
/// use sdds_storage::{FileAccess, FileId, StorageConfig, StorageSystem};
/// use simkit::SimTime;
///
/// let mut sys = StorageSystem::new(StorageConfig::paper_defaults(PolicyKind::NoPm))
///     .expect("paper defaults are valid");
/// let id = sys.submit(FileAccess::read(FileId(0), 0, 128 * 1024), SimTime::ZERO);
/// sys.advance_to(SimTime::from_micros(5_000_000));
/// let done = sys.drain_completions();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].access, id);
/// ```
#[derive(Debug)]
pub struct StorageSystem {
    layout: StripingLayout,
    nodes: Vec<IoNode>,
    next_access: u64,
    /// access -> (outstanding node ops, latest completion seen so far).
    pending: FxHashMap<AccessId, (usize, SimTime)>,
    /// (node index, node op id) -> access.
    op_owner: FxHashMap<(usize, u64), AccessId>,
    completions: Vec<AccessCompletion>,
    /// The earliest of the nodes' next event times, refreshed whenever
    /// a node's schedule can change (submit / advance / finish), so
    /// [`StorageSystem::next_event_time`] reads a field.
    cached_next: Option<SimTime>,
    bytes_read: u64,
    bytes_written: u64,
}

impl StorageSystem {
    /// Builds the array.
    ///
    /// # Errors
    ///
    /// Returns a [`StorageError`] when the per-node configuration (cache,
    /// power policy, disk parameters) is invalid.
    pub fn new(config: StorageConfig) -> Result<Self, StorageError> {
        let nodes = (0..config.layout.io_nodes())
            .map(|i| IoNode::new(i, &config.node))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StorageSystem {
            layout: config.layout,
            nodes,
            next_access: 0,
            pending: FxHashMap::default(),
            op_owner: FxHashMap::default(),
            completions: Vec::new(),
            cached_next: None,
            bytes_read: 0,
            bytes_written: 0,
        })
    }

    /// The striping layout (exposed to the compiler, as the paper's I/O
    /// middleware APIs expose it).
    pub fn layout(&self) -> &StripingLayout {
        &self.layout
    }

    /// Enables structured tracing on every I/O node (and, transitively,
    /// every power driver and disk). Tracing only buffers events and
    /// never alters the simulation.
    pub fn enable_trace(&mut self) {
        for node in &mut self.nodes {
            node.enable_trace();
        }
    }

    /// Removes and returns all trace events recorded so far across the
    /// whole storage system, in node order (empty when tracing was never
    /// enabled). The caller merges them into time order.
    pub fn take_trace_events(&mut self) -> Vec<simkit::telemetry::TraceEvent> {
        let mut out = Vec::new();
        for node in &mut self.nodes {
            out.extend(node.take_trace_events());
        }
        out
    }

    /// Publishes every node's metrics into `registry` (see
    /// [`IoNode::record_metrics`]).
    pub fn record_metrics(&self, registry: &mut simkit::telemetry::MetricsRegistry) {
        for node in &self.nodes {
            node.record_metrics(registry);
        }
    }

    /// The I/O nodes (read-only).
    pub fn nodes(&self) -> &[IoNode] {
        &self.nodes
    }

    /// Submits an access at `t`; the returned id will appear in a
    /// completion once all touched nodes finish.
    ///
    /// # Panics
    ///
    /// Panics if the access is empty (`len == 0`).
    pub fn submit(&mut self, access: FileAccess, t: SimTime) -> AccessId {
        assert!(access.len > 0, "cannot submit an empty access");
        let id = AccessId(self.next_access);
        self.next_access += 1;
        match access.kind {
            AccessKind::Read => self.bytes_read += access.len,
            AccessKind::Write => self.bytes_written += access.len,
        }

        let pieces = self
            .layout
            .split_range(access.file, access.offset, access.len);
        let mut outstanding = 0usize;
        let mut hit_latest = t;
        // One piece per stripe, and distinct stripes of a file land on
        // distinct (node, local block) pairs, so every piece is its own
        // node-level block op.
        for (node_idx, local_block, _off, _len) in pieces {
            let key = (access.file, local_block);
            // The access id rides along so issue-anchored trace events can
            // parent-link member requests to this access's span.
            let op = match access.kind {
                AccessKind::Read => self.nodes[node_idx].submit_read(key, t, Some(id.0)),
                AccessKind::Write => self.nodes[node_idx].submit_write(key, t, Some(id.0)),
            };
            match op {
                NodeOp::Hit(done) => hit_latest = hit_latest.max(done),
                NodeOp::Pending(op_id) => {
                    outstanding += 1;
                    self.op_owner.insert((node_idx, op_id), id);
                }
            }
        }
        if outstanding == 0 {
            self.completions.push(AccessCompletion {
                access: id,
                time: hit_latest,
            });
        } else {
            self.pending.insert(id, (outstanding, hit_latest));
        }
        // Surface anything the member disks completed while advancing to
        // the submission time, so no completion lingers into the past.
        self.collect();
        self.refresh_next();
        id
    }

    /// The next instant at which any disk needs attention.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.cached_next
    }

    /// Advances every node to `t`, resolving access completions.
    ///
    /// All nodes advance together (energy accrual is a float sum, so the
    /// slicing of advances must not depend on which node fires first);
    /// [`StorageSystem::next_event_time`] only supplies the next instant
    /// to advance to.
    pub fn advance_to(&mut self, t: SimTime) {
        for node in &mut self.nodes {
            node.advance_to(t);
        }
        self.collect();
        self.refresh_next();
    }

    /// Ends the simulation at `t`.
    pub fn finish(&mut self, t: SimTime) {
        for node in &mut self.nodes {
            node.finish(t);
        }
        self.collect();
        self.refresh_next();
    }

    /// Removes and returns completed accesses.
    pub fn drain_completions(&mut self) -> Vec<AccessCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Appends completed accesses to `out` and clears them, retaining both
    /// buffers' capacity — the allocation-free variant of
    /// [`StorageSystem::drain_completions`].
    pub fn drain_completions_into(&mut self, out: &mut Vec<AccessCompletion>) {
        out.append(&mut self.completions);
    }

    /// Total energy over all nodes and disks, in joules.
    pub fn total_joules(&self) -> f64 {
        self.nodes.iter().map(|n| n.total_joules()).sum()
    }

    /// Merged per-state energy account.
    pub fn energy(&self) -> EnergyAccount {
        let mut acct = EnergyAccount::new();
        for n in &self.nodes {
            acct.merge(&n.energy());
        }
        acct
    }

    /// Merged idle-period histogram over every disk in the array (the
    /// population Fig. 12 plots).
    pub fn idle_histogram(&self) -> BucketHistogram {
        let mut h = BucketHistogram::paper_idle_buckets();
        for n in &self.nodes {
            h.merge(&n.idle_histogram());
        }
        h
    }

    /// Bytes read and written so far.
    pub fn bytes_moved(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }

    /// Merged fault counters over every node (injections, retries,
    /// remaps, reconstructions, redirects, deferrals). All-zero without a
    /// fault plan.
    pub fn fault_counters(&self) -> simkit::fault::FaultCounters {
        let mut c = simkit::fault::FaultCounters::default();
        for n in &self.nodes {
            c.merge(&n.fault_counters());
        }
        c
    }

    fn collect(&mut self) {
        // Destructure so the sink closure can borrow the access-tracking
        // state while each node drains into it without any intermediate
        // Vec.
        let StorageSystem {
            nodes,
            pending,
            op_owner,
            completions,
            ..
        } = self;
        for (idx, node) in nodes.iter_mut().enumerate() {
            node.drain_completions_with(|op, time| {
                let Some(access) = op_owner.remove(&(idx, op)) else {
                    debug_assert!(false, "unknown node op {op} on node {idx}");
                    return;
                };
                let Some(entry) = pending.get_mut(&access) else {
                    debug_assert!(false, "access bookkeeping out of sync for {access:?}");
                    return;
                };
                entry.0 -= 1;
                entry.1 = entry.1.max(time);
                if entry.0 == 0 {
                    let Some((_, done)) = pending.remove(&access) else {
                        debug_assert!(false, "access {access:?} vanished mid-completion");
                        return;
                    };
                    completions.push(AccessCompletion { access, time: done });
                }
            });
        }
    }

    fn refresh_next(&mut self) {
        // Each node's next_event_time reads cached fields, so this is one
        // cheap O(nodes) pass.
        self.cached_next = self.nodes.iter().filter_map(IoNode::next_event_time).min();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_set::NodeSet;
    use simkit::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn system() -> StorageSystem {
        StorageSystem::new(StorageConfig::paper_defaults(PolicyKind::NoPm)).unwrap()
    }

    const KB: u64 = 1024;

    #[test]
    fn single_stripe_read_completes() {
        let mut sys = system();
        let id = sys.submit(FileAccess::read(FileId(0), 0, 64 * KB), t(0));
        sys.advance_to(t(10_000_000));
        let done = sys.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].access, id);
    }

    #[test]
    fn multi_stripe_access_waits_for_slowest_node() {
        let mut sys = system();
        // 4 stripes on 4 different nodes.
        let id = sys.submit(FileAccess::read(FileId(0), 0, 256 * KB), t(0));
        sys.advance_to(t(10_000_000));
        let done = sys.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].access, id);
        // All four touched nodes served disk work.
        let active_nodes = sys
            .nodes()
            .iter()
            .filter(|n| n.disks().iter().any(|d| d.counters().requests_served > 0))
            .count();
        assert_eq!(active_nodes, 4);
    }

    #[test]
    fn signature_matches_layout() {
        let sys = system();
        let acc = FileAccess::read(FileId(0), 0, 256 * KB);
        assert_eq!(
            sys.layout().nodes_for_range(acc.file, acc.offset, acc.len),
            NodeSet::from_nodes([0, 1, 2, 3])
        );
    }

    #[test]
    fn cached_repeat_read_is_a_pure_hit() {
        let mut sys = system();
        sys.submit(FileAccess::read(FileId(0), 0, 64 * KB), t(0));
        sys.advance_to(t(10_000_000));
        sys.drain_completions();
        let before = sys.nodes()[0].disks()[1].counters().requests_served;
        let id = sys.submit(FileAccess::read(FileId(0), 0, 64 * KB), t(10_000_000));
        // Completion is immediate (hit), no new disk requests on node 0.
        let done = sys.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].access, id);
        sys.advance_to(t(11_000_000));
        let after = sys.nodes()[0].disks()[1].counters().requests_served;
        assert_eq!(before, after);
    }

    #[test]
    fn write_then_read_hits_cache() {
        let mut sys = system();
        sys.submit(FileAccess::write(FileId(1), 0, 64 * KB), t(0));
        sys.advance_to(t(10_000_000));
        assert_eq!(sys.drain_completions().len(), 1);
        let id = sys.submit(FileAccess::read(FileId(1), 0, 64 * KB), t(10_000_000));
        let done = sys.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].access, id);
    }

    #[test]
    fn energy_totals_match_node_sum() {
        let mut sys = system();
        sys.submit(FileAccess::read(FileId(0), 0, 512 * KB), t(0));
        sys.finish(t(5_000_000));
        let total = sys.total_joules();
        let by_node: f64 = sys.nodes().iter().map(|n| n.total_joules()).sum();
        assert!((total - by_node).abs() < 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn bytes_accounting() {
        let mut sys = system();
        sys.submit(FileAccess::read(FileId(0), 0, 100), t(0));
        sys.submit(FileAccess::write(FileId(0), 0, 200), t(0));
        assert_eq!(sys.bytes_moved(), (100, 200));
    }

    #[test]
    fn wide_access_touches_all_nodes() {
        let mut sys = system();
        let id = sys.submit(FileAccess::read(FileId(0), 0, 8 * 64 * KB), t(0));
        sys.advance_to(t(20_000_000));
        let done = sys.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].access, id);
        for n in sys.nodes() {
            let served: u64 = n.disks().iter().map(|d| d.counters().requests_served).sum();
            assert!(served > 0, "node {} saw no traffic", n.id());
        }
    }

    #[test]
    fn idle_node_spins_down_one_timeout_after_its_first_advance() {
        // Two nodes, requests only ever reach node 0 (even stripes of
        // file 0). Node 1 is first advanced at 0.5 s, which delivers its
        // pending `IdleStart`; every later advance only accrues, so its
        // members spin down exactly one 20 s timeout later.
        let mut sys = StorageSystem::new(StorageConfig {
            layout: StripingLayout::new(64 * KB, 2).unwrap(),
            node: NodeConfig::paper_defaults(PolicyKind::simple_spin_down_default()),
        })
        .unwrap();
        fn run_until(sys: &mut StorageSystem, until: SimTime) {
            while let Some(at) = sys.next_event_time().filter(|&at| at <= until) {
                sys.advance_to(at);
            }
        }
        sys.submit(FileAccess::read(FileId(0), 0, 64 * KB), t(0));
        sys.advance_to(t(500_000));
        // Keep node 0 busy with a read every 2 s.
        for i in 1..30u64 {
            let at = t(i * 2_000_000);
            run_until(&mut sys, at);
            sys.submit(FileAccess::read(FileId(0), i * 2 * 64 * KB, 64 * KB), at);
        }
        let horizon = t(60_000_000);
        run_until(&mut sys, horizon);
        sys.finish(horizon);
        assert!(sys.nodes()[0]
            .disks()
            .iter()
            .all(|d| d.counters().spin_downs == 0));
        for d in sys.nodes()[1].disks() {
            assert_eq!(d.counters().requests_served, 0);
            assert_eq!(d.counters().spin_downs, 1);
            assert_eq!(
                d.energy().residency("idle"),
                SimDuration::from_micros(20_500_000)
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty access")]
    fn empty_access_panics() {
        let mut sys = system();
        sys.submit(FileAccess::read(FileId(0), 0, 0), t(0));
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sys = system();
            for i in 0..40u64 {
                let kind_read = i % 3 != 0;
                let acc = if kind_read {
                    FileAccess::read(FileId((i % 3) as u32), i * 37 * KB, 96 * KB)
                } else {
                    FileAccess::write(FileId((i % 3) as u32), i * 53 * KB, 64 * KB)
                };
                sys.submit(acc, t(i * 700_000));
            }
            sys.finish(t(60_000_000));
            (sys.total_joules(), sys.drain_completions().len())
        };
        assert_eq!(run(), run());
    }
}
