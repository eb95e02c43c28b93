//! Shard-assignable scene components: the cross-shard message protocol,
//! congestion-limited shared links, and burst-buffer I/O groups.
//!
//! These are the storage-side building blocks of the datacenter-scale
//! scenes ("Periodic I/O scheduling for super-computers" shapes): client
//! processes (in `sdds-runtime`) funnel bursts through [`SharedLink`]s
//! whose finite bandwidth serializes concurrent bursts, into
//! [`BurstBufferGroup`]s that absorb writes into a fast tier and drain
//! them to a [`ScenePower`] disk bank on a periodic cadence. Every
//! interaction is an explicit [`SceneMsg`] so components can live on any
//! shard of a [`simkit::shard::ShardedKernel`].

use sdds_power::scene::ScenePower;
use simkit::shard::{GlobalSlot, ShardComponent, ShardCtx};
use simkit::{SimDuration, SimTime};

/// One client I/O request travelling through the scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneRequest {
    /// Sequential id, unique per client.
    pub id: u64,
    /// Slot of the issuing client (replies go back here).
    pub client: GlobalSlot,
    /// Slot of the destination I/O group.
    pub group: GlobalSlot,
    /// Payload size in bytes.
    pub bytes: u32,
    /// True for writes (burst-buffer eligible), false for reads.
    pub write: bool,
}

/// The cross-shard message vocabulary of a scale scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneMsg {
    /// A client request, forwarded link → group.
    Request(SceneRequest),
    /// Completion notification, group → client.
    Reply {
        /// Id of the completed request.
        id: u64,
        /// Bytes moved.
        bytes: u32,
        /// Whether the request was a write.
        write: bool,
    },
    /// A client asking the global scheduler when its class may do I/O.
    WindowRequest {
        /// Slot of the asking client.
        client: GlobalSlot,
        /// The client's I/O class.
        class: u32,
    },
    /// The scheduler's answer: the window is open on delivery and stays
    /// open until `until`.
    Grant {
        /// End of the granted I/O window.
        until: SimTime,
    },
}

/// Counters exported by a [`SharedLink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Requests forwarded.
    pub forwarded: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Total serialization time (busy time) in microseconds.
    pub busy_us: u64,
    /// Largest queueing backlog any request saw, in microseconds.
    pub peak_backlog_us: u64,
}

/// A congestion-limited shared network link.
///
/// Purely reactive: requests arriving while the link is busy queue behind
/// `busy_until`, so a thundering herd of same-window bursts serializes
/// and the backlog is visible in [`LinkStats::peak_backlog_us`].
#[derive(Debug, Clone)]
pub struct SharedLink {
    /// Link bandwidth in bytes per second.
    bytes_per_sec: u64,
    /// One-hop forwarding latency (also the shard lookahead).
    hop: SimDuration,
    busy_until: SimTime,
    /// Exported counters.
    pub stats: LinkStats,
}

impl SharedLink {
    /// A link with the given bandwidth and hop latency.
    #[must_use]
    pub fn new(bytes_per_sec: u64, hop: SimDuration) -> Self {
        SharedLink {
            bytes_per_sec: bytes_per_sec.max(1),
            hop,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// Serialization time for `bytes` at link bandwidth.
    fn wire_time(&self, bytes: u32) -> SimDuration {
        SimDuration::from_micros((u64::from(bytes)).saturating_mul(1_000_000) / self.bytes_per_sec)
    }
}

impl ShardComponent<SceneMsg> for SharedLink {
    fn next_tick(&self) -> Option<SimTime> {
        None
    }

    fn tick(&mut self, _now: SimTime, _ctx: &mut ShardCtx<'_, SceneMsg>) {}

    fn on_message(&mut self, now: SimTime, msg: SceneMsg, ctx: &mut ShardCtx<'_, SceneMsg>) {
        let SceneMsg::Request(req) = msg else { return };
        let start = now.max(self.busy_until);
        let backlog = start.saturating_since(now);
        let wire = self.wire_time(req.bytes);
        let done = start + wire;
        self.busy_until = done;
        self.stats.forwarded += 1;
        self.stats.bytes += u64::from(req.bytes);
        self.stats.busy_us += wire.as_micros();
        self.stats.peak_backlog_us = self.stats.peak_backlog_us.max(backlog.as_micros());
        ctx.send(req.group, done + self.hop, SceneMsg::Request(req));
    }
}

/// Sizing and timing of one I/O group's burst buffer and disk bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupParams {
    /// Disks in the bank.
    pub disks: usize,
    /// Fixed per-request disk overhead (seek + rotation + controller).
    pub disk_overhead: SimDuration,
    /// Disk media bandwidth in bytes per second.
    pub disk_bytes_per_sec: u64,
    /// Burst-buffer capacity in bytes; zero disables the buffer.
    pub bb_capacity: u64,
    /// Burst-buffer ingest bandwidth in bytes per second.
    pub bb_bytes_per_sec: u64,
    /// Bytes drained to disk per drain tick.
    pub bb_drain_chunk: u64,
    /// Cadence of drain ticks while the buffer holds data.
    pub bb_drain_period: SimDuration,
    /// One-hop reply latency (also the shard lookahead).
    pub hop: SimDuration,
}

/// Counters exported by a [`BurstBufferGroup`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Read requests served from the disk bank.
    pub reads: u64,
    /// Write requests absorbed by the burst buffer.
    pub buffered_writes: u64,
    /// Write requests that bypassed a full buffer straight to disk.
    pub direct_writes: u64,
    /// Bytes read from disks.
    pub bytes_read: u64,
    /// Bytes written (buffered + direct).
    pub bytes_written: u64,
    /// Bytes absorbed into the burst buffer.
    pub bb_absorbed: u64,
    /// Bytes drained from the buffer to disks.
    pub bb_drained: u64,
    /// Drain ticks executed.
    pub drains: u64,
}

/// An I/O group: a burst-buffer tier in front of a bank of disks.
///
/// Reads always hit the disk bank. Writes land in the burst buffer when
/// there is room (acknowledged at ingest speed) and drain to disks in
/// fixed chunks on a periodic tick; when the buffer is full they fall
/// through to the disks directly.
#[derive(Debug, Clone)]
pub struct BurstBufferGroup {
    params: GroupParams,
    power: ScenePower,
    bb_used: u64,
    next_drain: Option<SimTime>,
    rr: u64,
    /// Exported counters.
    pub stats: GroupStats,
}

impl BurstBufferGroup {
    /// A group with the given sizing and a disk bank power model.
    #[must_use]
    pub fn new(params: GroupParams, power: ScenePower) -> Self {
        BurstBufferGroup {
            params,
            power,
            bb_used: 0,
            next_drain: None,
            rr: 0,
            stats: GroupStats::default(),
        }
    }

    /// Disk service time for `bytes`.
    fn disk_time(&self, bytes: u64) -> SimDuration {
        self.params.disk_overhead
            + SimDuration::from_micros(
                bytes.saturating_mul(1_000_000) / self.params.disk_bytes_per_sec.max(1),
            )
    }

    /// Burst-buffer ingest time for `bytes`.
    fn bb_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros(
            bytes.saturating_mul(1_000_000) / self.params.bb_bytes_per_sec.max(1),
        )
    }

    /// Serves `bytes` on the next disk in round-robin order.
    fn serve_disk(&mut self, at: SimTime, bytes: u64) -> SimTime {
        let disk = (self.rr % self.params.disks.max(1) as u64) as usize;
        self.rr = self.rr.wrapping_add(1);
        let work = self.disk_time(bytes);
        self.power.serve(disk, at, work)
    }

    /// Read access to the disk bank's power model.
    #[must_use]
    pub fn power(&self) -> &ScenePower {
        &self.power
    }

    /// Closes the power books at `end` (trailing idle/standby).
    pub fn finish(&mut self, end: SimTime) {
        self.power.finish(end);
    }
}

impl ShardComponent<SceneMsg> for BurstBufferGroup {
    fn next_tick(&self) -> Option<SimTime> {
        self.next_drain
    }

    fn tick(&mut self, now: SimTime, _ctx: &mut ShardCtx<'_, SceneMsg>) {
        // Periodic drain: move one chunk from the buffer to the disks.
        let chunk = self.bb_used.min(self.params.bb_drain_chunk.max(1));
        if chunk > 0 {
            self.serve_disk(now, chunk);
            self.bb_used -= chunk;
            self.stats.bb_drained += chunk;
            self.stats.drains += 1;
        }
        self.next_drain = if self.bb_used > 0 {
            Some(now + self.params.bb_drain_period)
        } else {
            None
        };
    }

    fn on_message(&mut self, now: SimTime, msg: SceneMsg, ctx: &mut ShardCtx<'_, SceneMsg>) {
        let SceneMsg::Request(req) = msg else { return };
        let bytes = u64::from(req.bytes);
        let done = if !req.write {
            self.stats.reads += 1;
            self.stats.bytes_read += bytes;
            self.serve_disk(now, bytes)
        } else if self.params.bb_capacity > 0 && self.bb_used + bytes <= self.params.bb_capacity {
            self.stats.buffered_writes += 1;
            self.stats.bytes_written += bytes;
            self.stats.bb_absorbed += bytes;
            self.bb_used += bytes;
            if self.next_drain.is_none() {
                self.next_drain = Some(now + self.params.bb_drain_period);
            }
            now + self.bb_time(bytes)
        } else {
            self.stats.direct_writes += 1;
            self.stats.bytes_written += bytes;
            self.serve_disk(now, bytes)
        };
        ctx.send(
            req.client,
            done + self.params.hop,
            SceneMsg::Reply {
                id: req.id,
                bytes: req.bytes,
                write: req.write,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_power::scene::ScenePowerParams;
    use simkit::shard::ShardedKernel;

    const HOP: SimDuration = SimDuration::from_millis(1);

    fn group(bb_capacity: u64) -> BurstBufferGroup {
        let params = GroupParams {
            disks: 2,
            disk_overhead: SimDuration::from_millis(6),
            disk_bytes_per_sec: 80 * 1024 * 1024,
            bb_capacity,
            bb_bytes_per_sec: 2 * 1024 * 1024 * 1024,
            bb_drain_chunk: 1024 * 1024,
            bb_drain_period: SimDuration::from_millis(4),
            hop: HOP,
        };
        let power = ScenePower::new(
            ScenePowerParams::paper_scene(SimDuration::from_secs(2)),
            params.disks,
        );
        BurstBufferGroup::new(params, power)
    }

    /// Collects replies so link/group behaviour can be observed end to end.
    struct Sink {
        start: Option<SimTime>,
        send: Vec<(GlobalSlot, SceneRequest)>,
        replies: Vec<(u64, u64)>,
    }

    impl ShardComponent<SceneMsg> for Sink {
        fn next_tick(&self) -> Option<SimTime> {
            self.start
        }
        fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, SceneMsg>) {
            self.start = None;
            for (via, req) in self.send.drain(..) {
                ctx.send(via, now + HOP, SceneMsg::Request(req));
            }
        }
        fn on_message(&mut self, now: SimTime, msg: SceneMsg, _ctx: &mut ShardCtx<'_, SceneMsg>) {
            if let SceneMsg::Reply { id, .. } = msg {
                self.replies.push((id, now.as_micros()));
            }
        }
    }

    fn run_scene(bb_capacity: u64, writes: bool) -> (Vec<(u64, u64)>, LinkStats, GroupStats) {
        let mut k = ShardedKernel::new(2, HOP).unwrap();
        let client = GlobalSlot::from_index(2);
        let link = k
            .add(0, SceneNode::Link(SharedLink::new(10 * 1024 * 1024, HOP)))
            .unwrap();
        let grp = k.add(1, SceneNode::Group(group(bb_capacity))).unwrap();
        let reqs: Vec<(GlobalSlot, SceneRequest)> = (0..4u64)
            .map(|i| {
                (
                    link,
                    SceneRequest {
                        id: i,
                        client,
                        group: grp,
                        bytes: 256 * 1024,
                        write: writes,
                    },
                )
            })
            .collect();
        let sink = k
            .add(
                0,
                SceneNode::Sink(Sink {
                    start: Some(SimTime::ZERO),
                    send: reqs,
                    replies: Vec::new(),
                }),
            )
            .unwrap();
        assert_eq!(sink.index(), client.index());
        k.run(1, SimTime::MAX).unwrap();
        let mut out = (Vec::new(), LinkStats::default(), GroupStats::default());
        for c in k.into_components() {
            match c {
                SceneNode::Sink(s) => out.0 = s.replies,
                SceneNode::Link(l) => out.1 = l.stats,
                SceneNode::Group(g) => out.2 = g.stats,
            }
        }
        out
    }

    #[allow(clippy::large_enum_variant)]
    enum SceneNode {
        Link(SharedLink),
        Group(BurstBufferGroup),
        Sink(Sink),
    }

    impl ShardComponent<SceneMsg> for SceneNode {
        fn next_tick(&self) -> Option<SimTime> {
            match self {
                SceneNode::Link(c) => c.next_tick(),
                SceneNode::Group(c) => c.next_tick(),
                SceneNode::Sink(c) => c.next_tick(),
            }
        }
        fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, SceneMsg>) {
            match self {
                SceneNode::Link(c) => c.tick(now, ctx),
                SceneNode::Group(c) => c.tick(now, ctx),
                SceneNode::Sink(c) => c.tick(now, ctx),
            }
        }
        fn on_message(&mut self, now: SimTime, msg: SceneMsg, ctx: &mut ShardCtx<'_, SceneMsg>) {
            match self {
                SceneNode::Link(c) => c.on_message(now, msg, ctx),
                SceneNode::Group(c) => c.on_message(now, msg, ctx),
                SceneNode::Sink(c) => c.on_message(now, msg, ctx),
            }
        }
    }

    #[test]
    fn link_serializes_concurrent_bursts() {
        let (replies, link, group) = run_scene(0, false);
        assert_eq!(replies.len(), 4);
        assert_eq!(link.forwarded, 4);
        assert_eq!(group.reads, 4);
        // Four same-instant 256 KiB sends over a 10 MiB/s link must queue.
        assert!(link.peak_backlog_us > 0, "no congestion backlog seen");
        // Replies arrive in increasing time, ids in disk round-robin order.
        for w in replies.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn burst_buffer_absorbs_then_drains() {
        let (replies, _link, group) = run_scene(16 * 1024 * 1024, true);
        assert_eq!(replies.len(), 4);
        assert_eq!(group.buffered_writes, 4);
        assert_eq!(group.direct_writes, 0);
        assert_eq!(group.bb_absorbed, 4 * 256 * 1024);
        assert_eq!(
            group.bb_drained, group.bb_absorbed,
            "drain did not empty the buffer"
        );
        assert!(group.drains >= 1);
    }

    #[test]
    fn full_buffer_falls_through_to_disk() {
        let (replies, _link, group) = run_scene(100, true);
        assert_eq!(replies.len(), 4);
        assert_eq!(group.buffered_writes, 0);
        assert_eq!(group.direct_writes, 4);
    }
}
