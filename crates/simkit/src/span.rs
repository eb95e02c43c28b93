//! Causal span trees and deterministic latency attribution, folded from
//! the flat [`TraceEvent`] stream.
//!
//! The telemetry layer records *events*; this module turns them into
//! *spans* with parent links. Every client access forms a root span
//! ([`AccessSpan`], opened by [`TraceEvent::AccessStart`] and closed by
//! [`TraceEvent::AccessEnd`]); every member-disk request it fanned out to
//! becomes a child [`RequestSpan`] (parent-linked through the `access`
//! field of [`TraceEvent::RequestIssued`]); retry and reconstruction
//! traffic rides in the same tree as flagged recovery spans. Each request
//! span carries the exact energy the disk metered over its service
//! window, so energy attribution is a fold, not an estimate.
//!
//! [`decompose`] performs the latency critical-path split: for every
//! completed request, `response = queue + service` holds *exactly* in
//! integer microseconds, and the queue share is further split into the
//! portion overlapping the disk's spin-up recovery versus plain waiting.
//! All folds are pure functions of the event stream, so their output is
//! byte-for-byte reproducible for a deterministic simulation.

use std::collections::BTreeMap;

use crate::telemetry::TraceEvent;
use crate::time::SimTime;

/// One member-disk request span, parent-linked to its owning access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpan {
    /// I/O node index.
    pub node: u32,
    /// Disk index within the node.
    pub disk: u32,
    /// Request id (unique per node).
    pub id: u64,
    /// Owning access id, or `None` for cache-initiated prefetch reads.
    pub access: Option<u64>,
    /// Issue time (from the issue-anchored event), when observed.
    pub issued: Option<SimTime>,
    /// Retry attempt (0 = first issue).
    pub attempt: u32,
    /// True for recovery traffic (post-remap reissues, reconstruction).
    pub recovery: bool,
    /// Queue-entry time at the disk, once completed.
    pub arrival: Option<SimTime>,
    /// Service start, once completed.
    pub start: Option<SimTime>,
    /// Completion time, once completed.
    pub end: Option<SimTime>,
    /// Exact whole-disk energy metered over the service window, in
    /// nanojoules.
    pub energy_nj: u64,
    /// Number of injected faults observed on this request id.
    pub faults: u32,
}

impl RequestSpan {
    fn new(node: u32, disk: u32, id: u64) -> Self {
        RequestSpan {
            node,
            disk,
            id,
            access: None,
            issued: None,
            attempt: 0,
            recovery: false,
            arrival: None,
            start: None,
            end: None,
            energy_nj: 0,
            faults: 0,
        }
    }

    /// Whether the span saw its completion event.
    pub fn completed(&self) -> bool {
        self.end.is_some()
    }
}

/// One client access: the root span of a causal tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSpan {
    /// Engine-wide access id.
    pub access: u64,
    /// Submission time.
    pub start: SimTime,
    /// Completion time, or `None` if the run ended first.
    pub end: Option<SimTime>,
    /// Indices into [`SpanForest::requests`] of the member requests this
    /// access fanned out to, in issue order.
    pub requests: Vec<usize>,
}

/// The span trees of one run: access roots plus all request spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanForest {
    /// Access root spans, in submission order.
    pub accesses: Vec<AccessSpan>,
    /// All request spans, in first-observation order. Spans whose
    /// `access` is `None` (prefetch traffic) have no parent.
    pub requests: Vec<RequestSpan>,
}

impl SpanForest {
    /// Folds an event stream into its span forest.
    ///
    /// The fold is a single pass and is total: events that reference a
    /// request never observed before simply open a new span, so partial
    /// streams (e.g. a run cut at a horizon) still fold cleanly.
    pub fn build(events: &[TraceEvent]) -> SpanForest {
        let mut forest = SpanForest::default();
        let mut access_ix: BTreeMap<u64, usize> = BTreeMap::new();
        let mut request_ix: BTreeMap<(u32, u64), usize> = BTreeMap::new();
        for e in events {
            match *e {
                TraceEvent::AccessStart { at, access } => {
                    let ix = forest.accesses.len();
                    access_ix.entry(access).or_insert_with(|| {
                        forest.accesses.push(AccessSpan {
                            access,
                            start: at,
                            end: None,
                            requests: Vec::new(),
                        });
                        ix
                    });
                }
                TraceEvent::AccessEnd { at, access } => {
                    if let Some(&ix) = access_ix.get(&access) {
                        forest.accesses[ix].end = Some(at);
                    }
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
                    let rix = *request_ix.entry((node, id)).or_insert_with(|| {
                        forest.requests.push(RequestSpan::new(node, disk, id));
                        forest.requests.len() - 1
                    });
                    let span = &mut forest.requests[rix];
                    span.issued = Some(at);
                    span.access = access;
                    span.attempt = attempt;
                    span.recovery = recovery;
                    if let Some(&aix) = access.and_then(|a| access_ix.get(&a)) {
                        if !forest.accesses[aix].requests.contains(&rix) {
                            forest.accesses[aix].requests.push(rix);
                        }
                    }
                }
                TraceEvent::Request {
                    node,
                    disk,
                    id,
                    arrival,
                    start,
                    end,
                    energy_nj,
                } => {
                    let rix = *request_ix.entry((node, id)).or_insert_with(|| {
                        forest.requests.push(RequestSpan::new(node, disk, id));
                        forest.requests.len() - 1
                    });
                    let span = &mut forest.requests[rix];
                    span.arrival = Some(arrival);
                    span.start = Some(start);
                    span.end = Some(end);
                    span.energy_nj = energy_nj;
                }
                TraceEvent::FaultInjected { node, id, .. } => {
                    if let Some(&rix) = request_ix.get(&(node, id)) {
                        forest.requests[rix].faults += 1;
                    }
                }
                _ => {}
            }
        }
        forest
    }

    /// Total request-span energy in nanojoules (service windows only).
    pub fn total_energy_nj(&self) -> u64 {
        self.requests.iter().map(|r| r.energy_nj).sum()
    }
}

/// The exact latency split of one completed request, in integer
/// microseconds. Invariants (by construction, not approximation):
/// `response_us == queue_us + service_us` and
/// `queue_us == spin_up_us + wait_us`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestLatency {
    /// I/O node index.
    pub node: u32,
    /// Disk index within the node.
    pub disk: u32,
    /// Request id (unique per node).
    pub id: u64,
    /// Owning access id, when parent-linked.
    pub access: Option<u64>,
    /// True for recovery traffic (retries, reconstruction reads).
    pub recovery: bool,
    /// End-to-end disk response time (`end - arrival`).
    pub response_us: u64,
    /// Time spent queued before service (`start - arrival`).
    pub queue_us: u64,
    /// Portion of the queue wait overlapping the disk's spin-up.
    pub spin_up_us: u64,
    /// Remaining queue wait (head-of-line blocking, seek of others).
    pub wait_us: u64,
    /// Service time (`end - start`).
    pub service_us: u64,
    /// Exact service-window energy in nanojoules.
    pub energy_nj: u64,
}

/// Splits every completed request in `events` into its exact latency
/// components (see [`RequestLatency`] for the invariants).
///
/// The spin-up share is computed by intersecting each request's queue
/// window `[arrival, start)` with the disk's `spin-up` state residencies
/// reconstructed from the [`TraceEvent::DiskState`] transitions.
pub fn decompose(events: &[TraceEvent]) -> Vec<RequestLatency> {
    // Reconstruct per-disk spin-up intervals from the transition stream.
    let mut spin_ups: BTreeMap<(u32, u32), Vec<(SimTime, SimTime)>> = BTreeMap::new();
    let mut open: BTreeMap<(u32, u32), SimTime> = BTreeMap::new();
    for e in events {
        if let TraceEvent::DiskState {
            at, node, disk, to, ..
        } = *e
        {
            let lane = (node, disk);
            if let Some(since) = open.remove(&lane) {
                spin_ups.entry(lane).or_default().push((since, at));
            }
            if to == "spin-up" {
                open.insert(lane, at);
            }
        }
    }
    // A spin-up still open at stream end can only overlap queue windows
    // of requests that never completed, so it is safely dropped.

    // Issue metadata join: (node, id) -> (access, recovery).
    let mut meta: BTreeMap<(u32, u64), (Option<u64>, bool)> = BTreeMap::new();
    for e in events {
        if let TraceEvent::RequestIssued {
            node,
            id,
            access,
            attempt,
            recovery,
            ..
        } = *e
        {
            meta.insert((node, id), (access, recovery || attempt > 0));
        }
    }

    let mut out = Vec::new();
    for e in events {
        let TraceEvent::Request {
            node,
            disk,
            id,
            arrival,
            start,
            end,
            energy_nj,
        } = *e
        else {
            continue;
        };
        let queue_us = start.saturating_since(arrival).as_micros();
        let service_us = end.saturating_since(start).as_micros();
        let spin_up_us = spin_ups
            .get(&(node, disk))
            .map(|ivs| {
                ivs.iter()
                    .map(|&(s, e)| overlap_us(arrival, start, s, e))
                    .sum()
            })
            .unwrap_or(0)
            .min(queue_us);
        let (access, recovery) = meta.get(&(node, id)).copied().unwrap_or((None, false));
        out.push(RequestLatency {
            node,
            disk,
            id,
            access,
            recovery,
            response_us: queue_us + service_us,
            queue_us,
            spin_up_us,
            wait_us: queue_us - spin_up_us,
            service_us,
            energy_nj,
        });
    }
    out
}

/// Length of the intersection of `[a0, a1)` and `[b0, b1)` in integer
/// microseconds.
fn overlap_us(a0: SimTime, a1: SimTime, b0: SimTime, b1: SimTime) -> u64 {
    let lo = a0.max(b0);
    let hi = a1.min(b1);
    hi.saturating_since(lo).as_micros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn issue(node: u32, disk: u32, id: u64, at: u64, access: Option<u64>) -> TraceEvent {
        TraceEvent::RequestIssued {
            at: t(at),
            node,
            disk,
            id,
            access,
            attempt: 0,
            recovery: false,
        }
    }

    fn done(node: u32, disk: u32, id: u64, arrival: u64, start: u64, end: u64) -> TraceEvent {
        TraceEvent::Request {
            node,
            disk,
            id,
            arrival: t(arrival),
            start: t(start),
            end: t(end),
            energy_nj: 1_000,
        }
    }

    #[test]
    fn builds_access_rooted_trees() {
        let events = vec![
            TraceEvent::AccessStart {
                at: t(0),
                access: 0,
            },
            issue(0, 0, 1, 0, Some(0)),
            issue(0, 1, 2, 0, Some(0)),
            issue(0, 2, 3, 5, None), // prefetch: unparented
            done(0, 0, 1, 0, 10, 50),
            done(0, 1, 2, 0, 12, 60),
            TraceEvent::AccessEnd {
                at: t(70),
                access: 0,
            },
        ];
        let forest = SpanForest::build(&events);
        assert_eq!(forest.accesses.len(), 1);
        assert_eq!(forest.accesses[0].requests.len(), 2);
        assert_eq!(forest.requests.len(), 3);
        assert_eq!(forest.accesses[0].end, Some(t(70)));
        assert_eq!(forest.total_energy_nj(), 2_000);
    }

    #[test]
    fn recovery_and_faults_attach_to_spans() {
        let events = vec![
            issue(0, 0, 1, 0, Some(4)),
            TraceEvent::FaultInjected {
                at: t(30),
                node: 0,
                disk: 0,
                id: 1,
                kind: "transient",
            },
            TraceEvent::RequestIssued {
                at: t(40),
                node: 0,
                disk: 0,
                id: 2,
                access: Some(4),
                attempt: 1,
                recovery: false,
            },
            done(0, 0, 2, 40, 45, 90),
        ];
        let forest = SpanForest::build(&events);
        assert_eq!(forest.requests.len(), 2);
        assert_eq!(forest.requests[0].faults, 1);
        assert!(!forest.requests[0].completed());
        assert_eq!(forest.requests[1].attempt, 1);
    }

    #[test]
    fn decompose_is_exact_and_splits_spin_up() {
        let events = vec![
            issue(0, 0, 7, 100, Some(2)),
            // The disk spins up inside the queue window [100, 400).
            TraceEvent::DiskState {
                at: t(150),
                node: 0,
                disk: 0,
                from: "standby",
                to: "spin-up",
                rpm: 0,
            },
            TraceEvent::DiskState {
                at: t(350),
                node: 0,
                disk: 0,
                from: "spin-up",
                to: "idle",
                rpm: 12_000,
            },
            done(0, 0, 7, 100, 400, 650),
        ];
        let lat = decompose(&events);
        assert_eq!(lat.len(), 1);
        let r = &lat[0];
        assert_eq!(r.response_us, 550);
        assert_eq!(r.queue_us, 300);
        assert_eq!(r.spin_up_us, 200);
        assert_eq!(r.wait_us, 100);
        assert_eq!(r.service_us, 250);
        assert_eq!(r.queue_us + r.service_us, r.response_us);
        assert_eq!(r.spin_up_us + r.wait_us, r.queue_us);
        assert_eq!(r.access, Some(2));
        assert!(!r.recovery);
    }

    #[test]
    fn decompose_without_transitions_charges_pure_wait() {
        let events = vec![done(1, 0, 9, 0, 40, 100)];
        let lat = decompose(&events);
        assert_eq!(lat[0].spin_up_us, 0);
        assert_eq!(lat[0].wait_us, 40);
        assert_eq!(lat[0].response_us, 100);
    }
}
