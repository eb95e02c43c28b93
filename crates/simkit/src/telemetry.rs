//! Structured simulation tracing and a named-metrics registry.
//!
//! This module is the workspace's observability layer. It provides three
//! pieces, all allocation-free when tracing is disabled:
//!
//! * [`TraceEvent`] — a closed enum of timestamped simulation events
//!   (disk state transitions, power-policy decisions, request lifecycle
//!   spans, cache and prefetch activity). Every producer holds an
//!   `Option<TraceSink>`; the `None` arm is a branch on a niche-optimised
//!   option and performs no work, so the simulation hot path is unchanged
//!   when telemetry is off.
//! * [`TraceSink`] — an append-only event buffer that producers record
//!   into and the collector drains.
//! * [`MetricsRegistry`] — a deterministic (BTreeMap-backed) registry of
//!   named counters, gauges, [`OnlineStats`] summaries and
//!   [`BucketHistogram`]s, populated *pull-style* after a run from the
//!   statistics every layer already keeps. Names follow the
//!   `<crate>.<object>.<metric>` convention, e.g.
//!   `disk.n0.d3.spin_ups` or `runtime.buffer.hits`.
//!
//! Export paths: [`TraceEvent::to_json_line`] emits one JSON object per
//! event (JSONL), [`chrome_trace`] converts an event stream into the
//! Chrome `trace_event` format consumable by `chrome://tracing` (or
//! <https://ui.perfetto.dev>), and [`MetricsRegistry::to_json`] dumps the
//! registry as a single JSON document. All emitters are hand-rolled
//! string builders — the workspace has no serialization dependency — and
//! their output is deterministic for a deterministic event stream.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{BucketHistogram, OnlineStats};
use crate::time::SimTime;

/// One structured, sim-timestamped observability event.
///
/// Variants cover the full taxonomy of the simulator: the disk state
/// machine, the power-management policies, the per-request lifecycle,
/// the node storage cache, and the client-side prefetch buffer. All
/// payload fields are plain integers or `&'static str` labels so that
/// recording an event never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A disk moved from one state to another.
    DiskState {
        /// Simulated time of the transition.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// Disk index within the node.
        disk: u32,
        /// Label of the state being left (see `DiskState::label`).
        from: &'static str,
        /// Label of the state being entered.
        to: &'static str,
        /// Rotational speed of the new state in RPM, or 0 while in a
        /// transition state with no stable speed.
        rpm: u32,
    },
    /// A power policy acted on a disk (spin-up, spin-down or speed
    /// change), attributed to the hook that triggered it together with
    /// the learner-state snapshot that produced the decision.
    PolicyDecision {
        /// Simulated time of the decision.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// Disk index within the node.
        disk: u32,
        /// Policy name (`"simple"`, `"history-based"`, ...).
        policy: &'static str,
        /// Driver hook that invoked the policy: `"idle-start"`,
        /// `"timer"`, `"arrival"` or `"after-submit"`.
        trigger: &'static str,
        /// What the policy did: `"spin-down"`, `"spin-up"` or
        /// `"speed-change"`.
        action: &'static str,
        /// The policy's learned idle-gap estimate at decision time
        /// (microseconds), when it keeps one.
        predicted_idle_us: Option<u64>,
        /// The compile-time (or long-horizon) forecast consulted for the
        /// decision (microseconds), when the policy carries one.
        forecast_us: Option<u64>,
        /// Which internal regime made the decision (e.g. `"bootstrap"`,
        /// `"learned"`, `"online"`), when the policy distinguishes any.
        mode: Option<&'static str>,
    },
    /// A disk request completed; the span carries the full lifecycle
    /// (arrival, service start, completion) so queue wait and service
    /// latency can be derived, plus the exact energy the disk metered
    /// during the service window.
    Request {
        /// I/O node index.
        node: u32,
        /// Disk index within the node.
        disk: u32,
        /// Request id (unique per disk).
        id: u64,
        /// When the request entered the disk queue.
        arrival: SimTime,
        /// When the disk started serving it.
        start: SimTime,
        /// When it completed.
        end: SimTime,
        /// Whole-disk energy metered over `[start, end]`, in integer
        /// nanojoules (exactly one request is in service at a time, so
        /// this is the request's own service energy).
        energy_nj: u64,
    },
    /// A client access entered the engine: the root of its causal span
    /// tree, anchored at issue time.
    AccessStart {
        /// Simulated submission time.
        at: SimTime,
        /// Engine-wide access id (parent link for member requests).
        access: u64,
    },
    /// A client access completed and its waiters were released.
    AccessEnd {
        /// Simulated completion time.
        at: SimTime,
        /// Engine-wide access id.
        access: u64,
    },
    /// The storage layer issued (or re-issued) a member-disk request.
    /// Anchored at issue time — unlike [`TraceEvent::Request`], which is
    /// ordered by its completion — so the merged stream's sort order
    /// matches causal order.
    RequestIssued {
        /// Simulated issue time.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// Disk index within the node.
        disk: u32,
        /// Request id (unique per node).
        id: u64,
        /// Owning access id (parent span), or `None` for cache-initiated
        /// prefetch reads.
        access: Option<u64>,
        /// Retry attempt (0 = first issue).
        attempt: u32,
        /// True for recovery traffic (retries after remap, reconstruction
        /// reads).
        recovery: bool,
    },
    /// A node-level idle window closed (a request arrived), recording
    /// its exact length and the power action the policy spent it on —
    /// the ground truth for regret accounting against an offline oracle.
    NodeIdle {
        /// Arrival time that terminated the window.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// Exact length of the completed idle window in microseconds.
        idle_us: u64,
        /// First power action taken inside the window: `"spin-down"`,
        /// `"speed-change"` or `"none"`.
        action: &'static str,
    },
    /// The node storage cache served (or missed) an access.
    CacheAccess {
        /// Simulated time of the access.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// File id of the accessed block.
        file: u32,
        /// Node-local block index.
        block: u64,
        /// Outcome: `"read-hit"`, `"read-hit-prefetched"`,
        /// `"read-miss"` or `"write"`.
        kind: &'static str,
    },
    /// The node cache issued a sequential read-ahead for a block.
    PrefetchIssue {
        /// Simulated time of the triggering miss.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// File id of the prefetched block.
        file: u32,
        /// Node-local block index.
        block: u64,
    },
    /// The node cache evicted a block to make room.
    CacheEvict {
        /// Simulated time of the eviction.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// File id of the evicted block.
        file: u32,
        /// Node-local block index.
        block: u64,
    },
    /// The scheme runtime issued an asynchronous prefetch into the
    /// global buffer.
    BufferPrefetch {
        /// Simulated time on the issuing scheduler thread.
        at: SimTime,
        /// Index of the process the prefetch serves.
        proc: u32,
        /// File id of the prefetched range.
        file: u32,
        /// Byte offset of the range.
        offset: u64,
        /// Length of the range in bytes.
        len: u64,
    },
    /// A process consulted the global prefetch buffer for a read.
    BufferRead {
        /// Simulated local time of the reading process.
        at: SimTime,
        /// Index of the reading process.
        proc: u32,
        /// File id of the range.
        file: u32,
        /// Byte offset of the range.
        offset: u64,
        /// Length of the range in bytes.
        len: u64,
        /// Outcome: `"hit"` (buffered), `"in-flight"` (prefetch issued
        /// but not yet landed; the reader blocks on it) or `"miss"`
        /// (synchronous storage read).
        outcome: &'static str,
    },
    /// A scheduled prefetch was invalidated before issue.
    PrefetchInvalidate {
        /// Simulated time on the scheduler thread.
        at: SimTime,
        /// Index of the process the prefetch would have served.
        proc: u32,
        /// File id of the range.
        file: u32,
        /// Byte offset of the range.
        offset: u64,
        /// Length of the range in bytes.
        len: u64,
        /// Why it was dropped: `"became-sync"` (its consumer already
        /// reached the access) or `"timeout"` (the waiting reader fell
        /// back to a synchronous storage read).
        reason: &'static str,
    },
    /// The fault model failed a completing disk read.
    FaultInjected {
        /// Simulated completion time of the failed read.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// Disk index within the node.
        disk: u32,
        /// Request id (unique per disk).
        id: u64,
        /// Fault class: `"transient"` (retryable) or `"bad-sector"`
        /// (permanent until remapped).
        kind: &'static str,
    },
    /// The storage layer re-submitted a failed request to the same disk
    /// after a backoff delay.
    FaultRetry {
        /// Simulated time the retry was scheduled for.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// Disk index within the node.
        disk: u32,
        /// Request id of the retried member read.
        id: u64,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// The storage layer recovered a failed or unreachable member read
    /// by reading the surviving RAID members.
    FaultReconstruct {
        /// Simulated time the reconstruction reads were issued.
        at: SimTime,
        /// I/O node index.
        node: u32,
        /// Index of the failed member disk.
        disk: u32,
        /// Node-local block index being reconstructed.
        block: u64,
        /// Number of surviving members read.
        members: u32,
        /// Why: `"bad-sector"` (media failure after retries) or
        /// `"crash"` (the member was inside a crash window).
        reason: &'static str,
    },
    /// The rebuild engine copied one rate-limited chunk of a lost
    /// replica from a surviving member onto the hot spare.
    RebuildChunk {
        /// Simulated time the chunk copy was issued.
        at: SimTime,
        /// Disk the surviving replica was read from.
        source: u32,
        /// Hot-spare disk the chunk was written to.
        spare: u32,
        /// Chunk length in bytes.
        bytes: u64,
    },
    /// The client-side replica router chose a member for a read.
    ReplicaRoute {
        /// Simulated arrival time of the routed read.
        at: SimTime,
        /// Object identity.
        object: u64,
        /// Disk chosen to serve the read.
        chosen: u32,
        /// Candidate replicas passed over (crashed, failed or scored
        /// worse than the chosen member).
        skipped: u32,
    },
}

impl TraceEvent {
    /// The simulated timestamp used for ordering the merged event
    /// stream (for [`TraceEvent::Request`] this is the completion time).
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::DiskState { at, .. }
            | TraceEvent::PolicyDecision { at, .. }
            | TraceEvent::CacheAccess { at, .. }
            | TraceEvent::PrefetchIssue { at, .. }
            | TraceEvent::CacheEvict { at, .. }
            | TraceEvent::BufferPrefetch { at, .. }
            | TraceEvent::BufferRead { at, .. }
            | TraceEvent::PrefetchInvalidate { at, .. }
            | TraceEvent::FaultInjected { at, .. }
            | TraceEvent::FaultRetry { at, .. }
            | TraceEvent::FaultReconstruct { at, .. }
            | TraceEvent::AccessStart { at, .. }
            | TraceEvent::AccessEnd { at, .. }
            | TraceEvent::RequestIssued { at, .. }
            | TraceEvent::NodeIdle { at, .. }
            | TraceEvent::RebuildChunk { at, .. }
            | TraceEvent::ReplicaRoute { at, .. } => at,
            TraceEvent::Request { end, .. } => end,
        }
    }

    /// A short machine-readable tag naming the variant, equal to the
    /// `"type"` field of the JSONL encoding.
    pub fn kind_tag(&self) -> &'static str {
        match self {
            TraceEvent::DiskState { .. } => "disk-state",
            TraceEvent::PolicyDecision { .. } => "policy",
            TraceEvent::Request { .. } => "request",
            TraceEvent::CacheAccess { .. } => "cache",
            TraceEvent::PrefetchIssue { .. } => "prefetch-issue",
            TraceEvent::CacheEvict { .. } => "cache-evict",
            TraceEvent::BufferPrefetch { .. } => "buffer-prefetch",
            TraceEvent::BufferRead { .. } => "buffer-read",
            TraceEvent::PrefetchInvalidate { .. } => "prefetch-invalidate",
            TraceEvent::FaultInjected { .. } => "fault",
            TraceEvent::FaultRetry { .. } => "fault-retry",
            TraceEvent::FaultReconstruct { .. } => "fault-reconstruct",
            TraceEvent::AccessStart { .. } => "access-start",
            TraceEvent::AccessEnd { .. } => "access-end",
            TraceEvent::RequestIssued { .. } => "request-issued",
            TraceEvent::NodeIdle { .. } => "node-idle",
            TraceEvent::RebuildChunk { .. } => "rebuild-chunk",
            TraceEvent::ReplicaRoute { .. } => "replica-route",
        }
    }

    /// Serializes the event as one JSON object (without a trailing
    /// newline). Timestamps are integer microseconds (`*_us` fields),
    /// so the encoding is exact and bit-for-bit reproducible.
    pub fn to_json_line(&self) -> String {
        match *self {
            TraceEvent::DiskState {
                at,
                node,
                disk,
                from,
                to,
                rpm,
            } => format!(
                "{{\"type\":\"disk-state\",\"t_us\":{},\"node\":{node},\"disk\":{disk},\
                 \"from\":\"{from}\",\"to\":\"{to}\",\"rpm\":{rpm}}}",
                at.as_micros()
            ),
            TraceEvent::PolicyDecision {
                at,
                node,
                disk,
                policy,
                trigger,
                action,
                predicted_idle_us,
                forecast_us,
                mode,
            } => format!(
                "{{\"type\":\"policy\",\"t_us\":{},\"node\":{node},\"disk\":{disk},\
                 \"policy\":\"{policy}\",\"trigger\":\"{trigger}\",\"action\":\"{action}\",\
                 \"predicted_idle_us\":{},\"forecast_us\":{},\"mode\":{}}}",
                at.as_micros(),
                json_opt_u64(predicted_idle_us),
                json_opt_u64(forecast_us),
                json_opt_label(mode)
            ),
            TraceEvent::Request {
                node,
                disk,
                id,
                arrival,
                start,
                end,
                energy_nj,
            } => format!(
                "{{\"type\":\"request\",\"t_us\":{},\"node\":{node},\"disk\":{disk},\"id\":{id},\
                 \"arrival_us\":{},\"start_us\":{},\"end_us\":{},\
                 \"queue_wait_us\":{},\"service_us\":{},\"energy_nj\":{energy_nj}}}",
                end.as_micros(),
                arrival.as_micros(),
                start.as_micros(),
                end.as_micros(),
                start.saturating_since(arrival).as_micros(),
                end.saturating_since(start).as_micros()
            ),
            TraceEvent::AccessStart { at, access } => format!(
                "{{\"type\":\"access-start\",\"t_us\":{},\"access\":{access}}}",
                at.as_micros()
            ),
            TraceEvent::AccessEnd { at, access } => format!(
                "{{\"type\":\"access-end\",\"t_us\":{},\"access\":{access}}}",
                at.as_micros()
            ),
            TraceEvent::RequestIssued {
                at,
                node,
                disk,
                id,
                access,
                attempt,
                recovery,
            } => format!(
                "{{\"type\":\"request-issued\",\"t_us\":{},\"node\":{node},\"disk\":{disk},\
                 \"id\":{id},\"access\":{},\"attempt\":{attempt},\"recovery\":{recovery}}}",
                at.as_micros(),
                json_opt_u64(access)
            ),
            TraceEvent::NodeIdle {
                at,
                node,
                idle_us,
                action,
            } => format!(
                "{{\"type\":\"node-idle\",\"t_us\":{},\"node\":{node},\"idle_us\":{idle_us},\
                 \"action\":\"{action}\"}}",
                at.as_micros()
            ),
            TraceEvent::CacheAccess {
                at,
                node,
                file,
                block,
                kind,
            } => format!(
                "{{\"type\":\"cache\",\"t_us\":{},\"node\":{node},\"file\":{file},\
                 \"block\":{block},\"kind\":\"{kind}\"}}",
                at.as_micros()
            ),
            TraceEvent::PrefetchIssue {
                at,
                node,
                file,
                block,
            } => format!(
                "{{\"type\":\"prefetch-issue\",\"t_us\":{},\"node\":{node},\"file\":{file},\
                 \"block\":{block}}}",
                at.as_micros()
            ),
            TraceEvent::CacheEvict {
                at,
                node,
                file,
                block,
            } => format!(
                "{{\"type\":\"cache-evict\",\"t_us\":{},\"node\":{node},\"file\":{file},\
                 \"block\":{block}}}",
                at.as_micros()
            ),
            TraceEvent::BufferPrefetch {
                at,
                proc,
                file,
                offset,
                len,
            } => format!(
                "{{\"type\":\"buffer-prefetch\",\"t_us\":{},\"proc\":{proc},\"file\":{file},\
                 \"offset\":{offset},\"len\":{len}}}",
                at.as_micros()
            ),
            TraceEvent::BufferRead {
                at,
                proc,
                file,
                offset,
                len,
                outcome,
            } => format!(
                "{{\"type\":\"buffer-read\",\"t_us\":{},\"proc\":{proc},\"file\":{file},\
                 \"offset\":{offset},\"len\":{len},\"outcome\":\"{outcome}\"}}",
                at.as_micros()
            ),
            TraceEvent::PrefetchInvalidate {
                at,
                proc,
                file,
                offset,
                len,
                reason,
            } => format!(
                "{{\"type\":\"prefetch-invalidate\",\"t_us\":{},\"proc\":{proc},\"file\":{file},\
                 \"offset\":{offset},\"len\":{len},\"reason\":\"{reason}\"}}",
                at.as_micros()
            ),
            TraceEvent::FaultInjected {
                at,
                node,
                disk,
                id,
                kind,
            } => format!(
                "{{\"type\":\"fault\",\"t_us\":{},\"node\":{node},\"disk\":{disk},\"id\":{id},\
                 \"kind\":\"{kind}\"}}",
                at.as_micros()
            ),
            TraceEvent::FaultRetry {
                at,
                node,
                disk,
                id,
                attempt,
            } => format!(
                "{{\"type\":\"fault-retry\",\"t_us\":{},\"node\":{node},\"disk\":{disk},\
                 \"id\":{id},\"attempt\":{attempt}}}",
                at.as_micros()
            ),
            TraceEvent::FaultReconstruct {
                at,
                node,
                disk,
                block,
                members,
                reason,
            } => format!(
                "{{\"type\":\"fault-reconstruct\",\"t_us\":{},\"node\":{node},\"disk\":{disk},\
                 \"block\":{block},\"members\":{members},\"reason\":\"{reason}\"}}",
                at.as_micros()
            ),
            TraceEvent::RebuildChunk {
                at,
                source,
                spare,
                bytes,
            } => format!(
                "{{\"type\":\"rebuild-chunk\",\"t_us\":{},\"source\":{source},\
                 \"spare\":{spare},\"bytes\":{bytes}}}",
                at.as_micros()
            ),
            TraceEvent::ReplicaRoute {
                at,
                object,
                chosen,
                skipped,
            } => format!(
                "{{\"type\":\"replica-route\",\"t_us\":{},\"object\":{object},\
                 \"chosen\":{chosen},\"skipped\":{skipped}}}",
                at.as_micros()
            ),
        }
    }
}

/// An append-only buffer of [`TraceEvent`]s.
///
/// Producers hold an `Option<TraceSink>` — `None` while telemetry is
/// disabled — and the collector drains every sink with
/// [`TraceSink::take_events`] at the end of a run.
#[derive(Debug, Default, Clone)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Appends one event.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The buffered events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Removes and returns all buffered events.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Merges per-layer event buffers into one stream ordered by simulated
/// time.
///
/// The sort is stable, so events with equal timestamps keep their
/// buffer-submission order — together with the deterministic simulation
/// this makes the merged stream bit-for-bit reproducible.
pub fn merge_events(buffers: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = buffers.into_iter().flatten().collect();
    all.sort_by_key(|e| e.at());
    all
}

/// Escapes `s` for use inside a JSON string literal (quotes, backslashes
/// and control characters); the surrounding quotes are not added.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number, mapping non-finite values to
/// `null` (JSON has no NaN/Infinity literals).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn json_opt_f64(x: Option<f64>) -> String {
    match x {
        Some(v) => json_f64(v),
        None => "null".to_owned(),
    }
}

/// Formats an optional integer as a JSON number or `null`.
fn json_opt_u64(x: Option<u64>) -> String {
    match x {
        Some(v) => v.to_string(),
        None => "null".to_owned(),
    }
}

/// Formats an optional static label as a JSON string or `null`.
fn json_opt_label(x: Option<&'static str>) -> String {
    match x {
        Some(v) => format!("\"{v}\""),
        None => "null".to_owned(),
    }
}

/// Converts an event stream into Chrome `trace_event` JSON.
///
/// Open the output in `chrome://tracing` (or <https://ui.perfetto.dev>).
/// The layout:
///
/// * each I/O node becomes a process (`pid = node + 1`); the client
///   engine is `pid 0` with one thread row per process,
/// * each disk is a thread row (`tid = disk`) carrying its state
///   residencies as complete (`"ph":"X"`) spans reconstructed from the
///   [`TraceEvent::DiskState`] transitions, with request service spans
///   interleaved on the same row,
/// * node cache and policy activity appear as instant events on
///   dedicated `cache` (tid 1000) and `policy` (tid 1001) rows.
///
/// `end` is the simulation end time used to close the last state span
/// of every disk.
pub fn chrome_trace(events: &[TraceEvent], end: SimTime) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    // Metadata rows: name processes and threads that appear in the
    // stream. BTreeSet keeps the emission order deterministic.
    let mut lanes: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    let mut procs: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut has_access = false;
    for e in events {
        match *e {
            TraceEvent::DiskState { node, disk, .. }
            | TraceEvent::PolicyDecision { node, disk, .. }
            | TraceEvent::Request { node, disk, .. }
            | TraceEvent::RequestIssued { node, disk, .. }
            | TraceEvent::FaultInjected { node, disk, .. }
            | TraceEvent::FaultRetry { node, disk, .. }
            | TraceEvent::FaultReconstruct { node, disk, .. } => {
                lanes.insert((node + 1, disk));
            }
            TraceEvent::CacheAccess { node, .. }
            | TraceEvent::PrefetchIssue { node, .. }
            | TraceEvent::CacheEvict { node, .. } => {
                lanes.insert((node + 1, 1000));
            }
            TraceEvent::NodeIdle { node, .. } => {
                lanes.insert((node + 1, 1001));
            }
            TraceEvent::BufferPrefetch { proc, .. }
            | TraceEvent::BufferRead { proc, .. }
            | TraceEvent::PrefetchInvalidate { proc, .. } => {
                procs.insert(proc);
            }
            TraceEvent::AccessStart { .. } | TraceEvent::AccessEnd { .. } => {
                has_access = true;
            }
            // The rebuild scenario runs a flat disk pool: its events
            // render on node 0's lanes.
            TraceEvent::RebuildChunk { spare, .. } => {
                lanes.insert((1, spare));
            }
            TraceEvent::ReplicaRoute { chosen, .. } => {
                lanes.insert((1, chosen));
            }
        }
    }
    let mut named_pids: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for &(pid, tid) in &lanes {
        if named_pids.insert(pid) {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"io-node {}\"}}}}",
                    pid - 1
                ),
            );
        }
        let tname = match tid {
            1000 => "cache".to_owned(),
            1001 => "policy".to_owned(),
            d => format!("disk {d}"),
        };
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{tname}\"}}}}"
            ),
        );
    }
    if !procs.is_empty() || has_access {
        push(
            &mut out,
            &mut first,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"client engine\"}}"
                .to_owned(),
        );
        for &p in &procs {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\
                     \"args\":{{\"name\":\"proc {p}\"}}}}"
                ),
            );
        }
    }

    // Reconstruct state-residency spans from the transition stream.
    let mut open: BTreeMap<(u32, u32), (SimTime, &'static str)> = BTreeMap::new();
    for e in events {
        match *e {
            TraceEvent::DiskState {
                at,
                node,
                disk,
                from,
                to,
                rpm,
            } => {
                let lane = (node + 1, disk);
                let (since, label) = open.remove(&lane).unwrap_or((SimTime::ZERO, from));
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{label}\",\"cat\":\"disk-state\",\"ph\":\"X\",\
                         \"pid\":{},\"tid\":{disk},\"ts\":{},\"dur\":{},\
                         \"args\":{{\"rpm\":{rpm}}}}}",
                        node + 1,
                        since.as_micros(),
                        at.saturating_since(since).as_micros()
                    ),
                );
                open.insert(lane, (at, to));
            }
            TraceEvent::Request {
                node,
                disk,
                id,
                arrival,
                start,
                end: done,
                energy_nj,
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"X\",\
                         \"pid\":{},\"tid\":{disk},\"ts\":{},\"dur\":{},\
                         \"args\":{{\"id\":{id},\"queue_wait_us\":{},\"energy_nj\":{energy_nj}}}}}",
                        node + 1,
                        start.as_micros(),
                        done.saturating_since(start).as_micros(),
                        start.saturating_since(arrival).as_micros()
                    ),
                );
            }
            TraceEvent::PolicyDecision {
                at,
                node,
                disk,
                policy,
                trigger,
                action,
                predicted_idle_us,
                forecast_us,
                ..
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{action}\",\"cat\":\"policy\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":1001,\"ts\":{},\
                         \"args\":{{\"policy\":\"{policy}\",\"trigger\":\"{trigger}\",\
                         \"disk\":{disk},\"predicted_idle_us\":{},\"forecast_us\":{}}}}}",
                        node + 1,
                        at.as_micros(),
                        json_opt_u64(predicted_idle_us),
                        json_opt_u64(forecast_us)
                    ),
                );
            }
            TraceEvent::AccessStart { at, access } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"access\",\"cat\":\"access\",\"ph\":\"b\",\"id\":{access},\
                         \"pid\":0,\"tid\":0,\"ts\":{}}}",
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::AccessEnd { at, access } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"access\",\"cat\":\"access\",\"ph\":\"e\",\"id\":{access},\
                         \"pid\":0,\"tid\":0,\"ts\":{}}}",
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::RequestIssued {
                at,
                node,
                disk,
                id,
                access,
                attempt,
                recovery,
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"issue\",\"cat\":\"request\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":{disk},\"ts\":{},\
                         \"args\":{{\"id\":{id},\"access\":{},\"attempt\":{attempt},\
                         \"recovery\":{recovery}}}}}",
                        node + 1,
                        at.as_micros(),
                        json_opt_u64(access)
                    ),
                );
            }
            TraceEvent::NodeIdle {
                at,
                node,
                idle_us,
                action,
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"idle-window\",\"cat\":\"policy\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":1001,\"ts\":{},\
                         \"args\":{{\"idle_us\":{idle_us},\"action\":\"{action}\"}}}}",
                        node + 1,
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::CacheAccess { at, node, kind, .. } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{kind}\",\"cat\":\"cache\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":1000,\"ts\":{}}}",
                        node + 1,
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::PrefetchIssue { at, node, .. } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"prefetch-issue\",\"cat\":\"cache\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":1000,\"ts\":{}}}",
                        node + 1,
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::CacheEvict { at, node, .. } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"evict\",\"cat\":\"cache\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":1000,\"ts\":{}}}",
                        node + 1,
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::BufferPrefetch { at, proc, .. } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"buffer-prefetch\",\"cat\":\"buffer\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":0,\"tid\":{proc},\"ts\":{}}}",
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::BufferRead {
                at, proc, outcome, ..
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"read-{outcome}\",\"cat\":\"buffer\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":0,\"tid\":{proc},\"ts\":{}}}",
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::PrefetchInvalidate {
                at, proc, reason, ..
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{reason}\",\"cat\":\"buffer\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":0,\"tid\":{proc},\"ts\":{}}}",
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::FaultInjected {
                at,
                node,
                disk,
                id,
                kind,
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"fault-{kind}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":{disk},\"ts\":{},\"args\":{{\"id\":{id}}}}}",
                        node + 1,
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::FaultRetry {
                at,
                node,
                disk,
                id,
                attempt,
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"retry\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":{disk},\"ts\":{},\
                         \"args\":{{\"id\":{id},\"attempt\":{attempt}}}}}",
                        node + 1,
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::FaultReconstruct {
                at,
                node,
                disk,
                block,
                members,
                reason,
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"reconstruct-{reason}\",\"cat\":\"fault\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":{},\"tid\":{disk},\"ts\":{},\
                         \"args\":{{\"block\":{block},\"members\":{members}}}}}",
                        node + 1,
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::RebuildChunk {
                at,
                source,
                spare,
                bytes,
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"rebuild-chunk\",\"cat\":\"rebuild\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":1,\"tid\":{spare},\"ts\":{},\
                         \"args\":{{\"source\":{source},\"bytes\":{bytes}}}}}",
                        at.as_micros()
                    ),
                );
            }
            TraceEvent::ReplicaRoute {
                at,
                object,
                chosen,
                skipped,
            } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"replica-route\",\"cat\":\"route\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":1,\"tid\":{chosen},\"ts\":{},\
                         \"args\":{{\"object\":{object},\"skipped\":{skipped}}}}}",
                        at.as_micros()
                    ),
                );
            }
        }
    }
    // Close the final state span of each disk at the simulation end.
    for ((pid, tid), (since, label)) in open {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{label}\",\"cat\":\"disk-state\",\"ph\":\"X\",\
                 \"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{}}}",
                since.as_micros(),
                end.saturating_since(since).as_micros()
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

/// A deterministic registry of named metrics.
///
/// Keys follow `<crate>.<object>.<metric>` (for example
/// `disk.n0.d2.energy_joules.standby` or `storage.n1.cache.read_hits`)
/// and iterate in sorted order, so [`MetricsRegistry::to_json`] output
/// is reproducible. The registry is populated after a run from the
/// statistics the simulation already maintains; it performs no work on
/// the simulation hot path.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    summaries: BTreeMap<String, OnlineStats>,
    histograms: BTreeMap<String, BucketHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Merges `stats` into the summary `name`.
    pub fn summary(&mut self, name: &str, stats: &OnlineStats) {
        self.summaries
            .entry(name.to_owned())
            .or_default()
            .merge(stats);
    }

    /// Merges `histogram` into the histogram `name`. The first call
    /// fixes the bucket edges; later calls must use identical edges
    /// (the underlying [`BucketHistogram::merge`] contract).
    pub fn histogram(&mut self, name: &str, histogram: &BucketHistogram) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(|| BucketHistogram::new(histogram.edges().to_vec()))
            .merge(histogram);
    }

    /// Reads a counter back, if present.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Reads a gauge back, if present.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Total number of registered metrics across all four kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.summaries.len() + self.histograms.len()
    }

    /// Returns `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the registry as one JSON document (schema
    /// `sdds-metrics-v1`). Summaries expose count/mean/std-dev/min/max;
    /// empty summaries encode `min`/`max` as `null` (see
    /// [`OnlineStats::min`]). Histograms expose bucket edges in
    /// microseconds alongside their counts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"sdds-metrics-v1\",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", json_escape(k));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", json_escape(k), json_f64(*v));
        }
        out.push_str("\n  },\n  \"summaries\": {");
        for (i, (k, s)) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"mean\": {}, \"std_dev\": {}, \
                 \"min\": {}, \"max\": {}}}",
                json_escape(k),
                s.count(),
                json_f64(s.mean()),
                json_f64(s.std_dev()),
                json_opt_f64(s.min()),
                json_opt_f64(s.max())
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let edges: Vec<String> = h
                .edges()
                .iter()
                .map(|e| e.as_micros().to_string())
                .collect();
            let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
            let _ = write!(
                out,
                "\n    \"{}\": {{\"edges_us\": [{}], \"counts\": [{}], \"total\": {}}}",
                json_escape(k),
                edges.join(", "),
                counts.join(", "),
                h.total()
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    // Golden tests: the JSONL schema of every event variant is pinned.
    // Changing any of these strings is a breaking change for trace
    // consumers and must be deliberate.
    #[test]
    fn jsonl_schema_disk_state() {
        let e = TraceEvent::DiskState {
            at: t(1_500),
            node: 0,
            disk: 3,
            from: "idle",
            to: "seek",
            rpm: 12_000,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"type\":\"disk-state\",\"t_us\":1500,\"node\":0,\"disk\":3,\
             \"from\":\"idle\",\"to\":\"seek\",\"rpm\":12000}"
        );
    }

    #[test]
    fn jsonl_schema_policy() {
        let e = TraceEvent::PolicyDecision {
            at: t(42),
            node: 1,
            disk: 0,
            policy: "simple",
            trigger: "timer",
            action: "spin-down",
            predicted_idle_us: None,
            forecast_us: None,
            mode: None,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"type\":\"policy\",\"t_us\":42,\"node\":1,\"disk\":0,\
             \"policy\":\"simple\",\"trigger\":\"timer\",\"action\":\"spin-down\",\
             \"predicted_idle_us\":null,\"forecast_us\":null,\"mode\":null}"
        );
        let snap = TraceEvent::PolicyDecision {
            at: t(42),
            node: 1,
            disk: 0,
            policy: "online",
            trigger: "timer",
            action: "spin-down",
            predicted_idle_us: Some(2_500_000),
            forecast_us: Some(60_000_000),
            mode: Some("learned"),
        };
        assert_eq!(
            snap.to_json_line(),
            "{\"type\":\"policy\",\"t_us\":42,\"node\":1,\"disk\":0,\
             \"policy\":\"online\",\"trigger\":\"timer\",\"action\":\"spin-down\",\
             \"predicted_idle_us\":2500000,\"forecast_us\":60000000,\"mode\":\"learned\"}"
        );
    }

    #[test]
    fn jsonl_schema_request() {
        let e = TraceEvent::Request {
            node: 0,
            disk: 1,
            id: 7,
            arrival: t(100),
            start: t(150),
            end: t(400),
            energy_nj: 4_275,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"type\":\"request\",\"t_us\":400,\"node\":0,\"disk\":1,\"id\":7,\
             \"arrival_us\":100,\"start_us\":150,\"end_us\":400,\
             \"queue_wait_us\":50,\"service_us\":250,\"energy_nj\":4275}"
        );
        assert_eq!(e.at(), t(400));
    }

    #[test]
    fn jsonl_schema_span_events() {
        let s = TraceEvent::AccessStart {
            at: t(10),
            access: 5,
        };
        assert_eq!(
            s.to_json_line(),
            "{\"type\":\"access-start\",\"t_us\":10,\"access\":5}"
        );
        let e = TraceEvent::AccessEnd {
            at: t(90),
            access: 5,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"type\":\"access-end\",\"t_us\":90,\"access\":5}"
        );
        let i = TraceEvent::RequestIssued {
            at: t(12),
            node: 0,
            disk: 2,
            id: 9,
            access: Some(5),
            attempt: 0,
            recovery: false,
        };
        assert_eq!(
            i.to_json_line(),
            "{\"type\":\"request-issued\",\"t_us\":12,\"node\":0,\"disk\":2,\
             \"id\":9,\"access\":5,\"attempt\":0,\"recovery\":false}"
        );
        let p = TraceEvent::RequestIssued {
            at: t(12),
            node: 0,
            disk: 2,
            id: 10,
            access: None,
            attempt: 1,
            recovery: true,
        };
        assert_eq!(
            p.to_json_line(),
            "{\"type\":\"request-issued\",\"t_us\":12,\"node\":0,\"disk\":2,\
             \"id\":10,\"access\":null,\"attempt\":1,\"recovery\":true}"
        );
        let w = TraceEvent::NodeIdle {
            at: t(500),
            node: 3,
            idle_us: 444,
            action: "none",
        };
        assert_eq!(
            w.to_json_line(),
            "{\"type\":\"node-idle\",\"t_us\":500,\"node\":3,\"idle_us\":444,\
             \"action\":\"none\"}"
        );
        assert_eq!(s.kind_tag(), "access-start");
        assert_eq!(e.kind_tag(), "access-end");
        assert_eq!(i.kind_tag(), "request-issued");
        assert_eq!(w.kind_tag(), "node-idle");
    }

    #[test]
    fn issue_anchored_events_sort_causally_before_completion() {
        // A request issued at t=100 completing at t=400, and an unrelated
        // cache event at t=200 that causally follows the issue. The
        // completion-anchored Request span sorts after the cache event,
        // but the issue-anchored RequestIssued event restores causal
        // order in the merged stream.
        let request = TraceEvent::Request {
            node: 0,
            disk: 0,
            id: 1,
            arrival: t(100),
            start: t(120),
            end: t(400),
            energy_nj: 0,
        };
        let issued = TraceEvent::RequestIssued {
            at: t(100),
            node: 0,
            disk: 0,
            id: 1,
            access: Some(0),
            attempt: 0,
            recovery: false,
        };
        let mid = TraceEvent::CacheEvict {
            at: t(200),
            node: 0,
            file: 0,
            block: 0,
        };
        let merged = merge_events(vec![
            vec![request.clone()],
            vec![issued.clone(), mid.clone()],
        ]);
        let tags: Vec<&str> = merged.iter().map(|e| e.kind_tag()).collect();
        assert_eq!(tags, vec!["request-issued", "cache-evict", "request"]);
        assert_eq!(merged[0], issued);
        assert_eq!(merged[2], request);
    }

    #[test]
    fn jsonl_schema_cache_events() {
        let a = TraceEvent::CacheAccess {
            at: t(9),
            node: 2,
            file: 4,
            block: 17,
            kind: "read-miss",
        };
        assert_eq!(
            a.to_json_line(),
            "{\"type\":\"cache\",\"t_us\":9,\"node\":2,\"file\":4,\"block\":17,\
             \"kind\":\"read-miss\"}"
        );
        let p = TraceEvent::PrefetchIssue {
            at: t(9),
            node: 2,
            file: 4,
            block: 18,
        };
        assert_eq!(
            p.to_json_line(),
            "{\"type\":\"prefetch-issue\",\"t_us\":9,\"node\":2,\"file\":4,\"block\":18}"
        );
        let ev = TraceEvent::CacheEvict {
            at: t(11),
            node: 2,
            file: 1,
            block: 3,
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"type\":\"cache-evict\",\"t_us\":11,\"node\":2,\"file\":1,\"block\":3}"
        );
    }

    #[test]
    fn jsonl_schema_buffer_events() {
        let b = TraceEvent::BufferPrefetch {
            at: t(5),
            proc: 3,
            file: 0,
            offset: 65_536,
            len: 4_096,
        };
        assert_eq!(
            b.to_json_line(),
            "{\"type\":\"buffer-prefetch\",\"t_us\":5,\"proc\":3,\"file\":0,\
             \"offset\":65536,\"len\":4096}"
        );
        let r = TraceEvent::BufferRead {
            at: t(6),
            proc: 3,
            file: 0,
            offset: 65_536,
            len: 4_096,
            outcome: "hit",
        };
        assert_eq!(
            r.to_json_line(),
            "{\"type\":\"buffer-read\",\"t_us\":6,\"proc\":3,\"file\":0,\
             \"offset\":65536,\"len\":4096,\"outcome\":\"hit\"}"
        );
        let i = TraceEvent::PrefetchInvalidate {
            at: t(7),
            proc: 3,
            file: 0,
            offset: 65_536,
            len: 4_096,
            reason: "became-sync",
        };
        assert_eq!(
            i.to_json_line(),
            "{\"type\":\"prefetch-invalidate\",\"t_us\":7,\"proc\":3,\"file\":0,\
             \"offset\":65536,\"len\":4096,\"reason\":\"became-sync\"}"
        );
    }

    #[test]
    fn jsonl_schema_fault_events() {
        let f = TraceEvent::FaultInjected {
            at: t(12),
            node: 1,
            disk: 2,
            id: 33,
            kind: "transient",
        };
        assert_eq!(
            f.to_json_line(),
            "{\"type\":\"fault\",\"t_us\":12,\"node\":1,\"disk\":2,\"id\":33,\
             \"kind\":\"transient\"}"
        );
        let r = TraceEvent::FaultRetry {
            at: t(13),
            node: 1,
            disk: 2,
            id: 33,
            attempt: 1,
        };
        assert_eq!(
            r.to_json_line(),
            "{\"type\":\"fault-retry\",\"t_us\":13,\"node\":1,\"disk\":2,\
             \"id\":33,\"attempt\":1}"
        );
        let c = TraceEvent::FaultReconstruct {
            at: t(14),
            node: 1,
            disk: 2,
            block: 5,
            members: 3,
            reason: "bad-sector",
        };
        assert_eq!(
            c.to_json_line(),
            "{\"type\":\"fault-reconstruct\",\"t_us\":14,\"node\":1,\"disk\":2,\
             \"block\":5,\"members\":3,\"reason\":\"bad-sector\"}"
        );
        assert_eq!(f.kind_tag(), "fault");
        assert_eq!(r.kind_tag(), "fault-retry");
        assert_eq!(c.kind_tag(), "fault-reconstruct");
        assert_eq!(c.at(), t(14));
    }

    #[test]
    fn chrome_trace_places_fault_events_on_the_disk_lane() {
        let events = vec![TraceEvent::FaultInjected {
            at: t(100),
            node: 0,
            disk: 3,
            id: 7,
            kind: "bad-sector",
        }];
        let json = chrome_trace(&events, t(500));
        assert!(json.contains("\"name\":\"fault-bad-sector\""));
        assert!(json.contains("\"cat\":\"fault\""));
        assert!(json.contains("\"pid\":1,\"tid\":3"));
        // The disk lane got named even though only a fault event touched it.
        assert!(json.contains("\"name\":\"disk 3\""));
    }

    #[test]
    fn sink_records_and_drains() {
        let mut sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.record(TraceEvent::CacheEvict {
            at: t(1),
            node: 0,
            file: 0,
            block: 0,
        });
        assert_eq!(sink.len(), 1);
        let events = sink.take_events();
        assert_eq!(events.len(), 1);
        assert!(sink.is_empty());
    }

    #[test]
    fn merge_orders_by_time_stable() {
        let a = vec![
            TraceEvent::CacheEvict {
                at: t(10),
                node: 0,
                file: 0,
                block: 1,
            },
            TraceEvent::CacheEvict {
                at: t(20),
                node: 0,
                file: 0,
                block: 2,
            },
        ];
        let b = vec![TraceEvent::CacheEvict {
            at: t(10),
            node: 1,
            file: 0,
            block: 3,
        }];
        let merged = merge_events(vec![a, b]);
        let blocks: Vec<u64> = merged
            .iter()
            .map(|e| match e {
                TraceEvent::CacheEvict { block, .. } => *block,
                _ => unreachable!(),
            })
            .collect();
        // Stable: buffer a's t=10 event precedes buffer b's t=10 event.
        assert_eq!(blocks, vec![1, 3, 2]);
    }

    #[test]
    fn chrome_trace_reconstructs_state_spans() {
        let events = vec![
            TraceEvent::DiskState {
                at: t(100),
                node: 0,
                disk: 0,
                from: "idle",
                to: "seek",
                rpm: 0,
            },
            TraceEvent::DiskState {
                at: t(150),
                node: 0,
                disk: 0,
                from: "seek",
                to: "transfer",
                rpm: 0,
            },
        ];
        let json = chrome_trace(&events, t(500));
        // The initial idle span [0, 100), the seek span [100, 150) and
        // the trailing transfer span closed at the end time.
        assert!(json.contains("\"name\":\"idle\""));
        assert!(json.contains("\"ts\":0,\"dur\":100"));
        assert!(json.contains("\"name\":\"seek\""));
        assert!(json.contains("\"ts\":100,\"dur\":50"));
        assert!(json.contains("\"name\":\"transfer\""));
        assert!(json.contains("\"ts\":150,\"dur\":350"));
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn registry_counters_accumulate_and_dump_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.counter("b.second", 2);
        reg.counter("a.first", 1);
        reg.counter("a.first", 3);
        reg.gauge("g.ratio", 0.5);
        assert_eq!(reg.get_counter("a.first"), Some(4));
        assert_eq!(reg.get_gauge("g.ratio"), Some(0.5));
        let json = reg.to_json();
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "counters must serialize in sorted key order");
        assert!(json.contains("\"sdds-metrics-v1\""));
    }

    #[test]
    fn registry_empty_summary_encodes_null_min_max() {
        let mut reg = MetricsRegistry::new();
        reg.summary("s.empty", &OnlineStats::new());
        let json = reg.to_json();
        assert!(json.contains("\"min\": null, \"max\": null"));
    }

    #[test]
    fn registry_histogram_merges() {
        let mut h = BucketHistogram::paper_idle_buckets();
        h.record(SimDuration::from_millis(7));
        let mut reg = MetricsRegistry::new();
        reg.histogram("h.idle", &h);
        reg.histogram("h.idle", &h);
        let json = reg.to_json();
        assert!(json.contains("\"total\": 2"));
    }

    #[test]
    fn non_finite_gauges_encode_as_null() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("g.bad", f64::NAN);
        assert!(reg.to_json().contains("\"g.bad\": null"));
    }
}
