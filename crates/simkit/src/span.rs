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
//! The same fold gives each completed request its latency split in
//! integer microseconds: queue `start − arrival`, service `end − start`,
//! response `end − arrival`, and the part of the queue wait the disk
//! spent spinning up. [`RequestSpan::latency_adds_up`] checks that the
//! parts reassemble the response, which fails on a span whose times are
//! out of order. All folds are pure functions of the event stream, so
//! their output is byte-for-byte reproducible for a deterministic
//! simulation.

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
    /// Microseconds of the queue window `[arrival, start)` the disk spent
    /// in `spin-up`, once completed. Not clamped to the queue wait:
    /// [`RequestSpan::latency_adds_up`] fails a span whose share exceeds
    /// it.
    pub spin_up_us: u64,
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
            spin_up_us: 0,
            faults: 0,
        }
    }

    /// Whether the span saw its completion event.
    pub fn completed(&self) -> bool {
        self.end.is_some()
    }

    /// Queue wait `start − arrival` in microseconds; `None` until the
    /// span completes, or if it starts before it arrives.
    pub fn queue_us(&self) -> Option<u64> {
        micros(self.arrival, self.start)
    }

    /// Service time `end − start` in microseconds; `None` until the span
    /// completes, or if it ends before it starts.
    pub fn service_us(&self) -> Option<u64> {
        micros(self.start, self.end)
    }

    /// Response time `end − arrival` in microseconds, taken from the
    /// span's own endpoints; `None` until the span completes, or if it
    /// ends before it arrives.
    pub fn response_us(&self) -> Option<u64> {
        micros(self.arrival, self.end)
    }

    /// The latency identity: `response == queue + service` and
    /// `spin_up <= queue`, with all three parts defined.
    ///
    /// For a span whose times run `arrival <= start <= end` the sum is
    /// exact, so the identity fails exactly when the span starts outside
    /// `[arrival, end]` (a part is undefined) or when its spin-up share
    /// exceeds its queue wait. It also fails before the span completes.
    pub fn latency_adds_up(&self) -> bool {
        match (self.queue_us(), self.service_us(), self.response_us()) {
            (Some(queue), Some(service), Some(response)) => {
                response == queue + service && self.spin_up_us <= queue
            }
            _ => false,
        }
    }
}

/// `to − from` in microseconds, when both are known and `from <= to`.
fn micros(from: Option<SimTime>, to: Option<SimTime>) -> Option<u64> {
    let (from, to) = (from?, to?);
    (from <= to).then(|| to.saturating_since(from).as_micros())
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
    /// streams (e.g. a run cut at a horizon) still fold cleanly. The same
    /// pass collects each disk's `spin-up` residencies from its
    /// [`TraceEvent::DiskState`] transitions; every completed span then
    /// gets their overlap with its queue window as
    /// [`RequestSpan::spin_up_us`].
    pub fn build(events: &[TraceEvent]) -> SpanForest {
        let mut forest = SpanForest::default();
        let mut access_ix: BTreeMap<u64, usize> = BTreeMap::new();
        let mut request_ix: BTreeMap<(u32, u64), usize> = BTreeMap::new();
        let mut spin_ups: BTreeMap<(u32, u32), Vec<(SimTime, SimTime)>> = BTreeMap::new();
        let mut spinning_up: BTreeMap<(u32, u32), SimTime> = BTreeMap::new();
        for e in events {
            match *e {
                TraceEvent::DiskState {
                    at, node, disk, to, ..
                } => {
                    let lane = (node, disk);
                    if let Some(since) = spinning_up.remove(&lane) {
                        spin_ups.entry(lane).or_default().push((since, at));
                    }
                    if to == "spin-up" {
                        spinning_up.insert(lane, at);
                    }
                }
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
        // A spin-up still open at stream end can only overlap the queue
        // windows of requests that never completed, so it is dropped.
        for span in &mut forest.requests {
            let (Some(arrival), Some(start)) = (span.arrival, span.start) else {
                continue;
            };
            span.spin_up_us = spin_ups.get(&(span.node, span.disk)).map_or(0, |lane| {
                lane.iter()
                    .map(|&(from, to)| start.min(to).saturating_since(arrival.max(from)))
                    .map(|overlap| overlap.as_micros())
                    .sum()
            });
        }
        forest
    }

    /// Total request-span energy in nanojoules (service windows only).
    pub fn total_energy_nj(&self) -> u64 {
        self.requests.iter().map(|r| r.energy_nj).sum()
    }
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
        assert_eq!(forest.requests[0].response_us(), None);
        assert!(!forest.requests[0].latency_adds_up());
        assert_eq!(forest.requests[1].attempt, 1);
    }

    fn spin_up(node: u32, disk: u32, from: u64, to: u64) -> [TraceEvent; 2] {
        [
            TraceEvent::DiskState {
                at: t(from),
                node,
                disk,
                from: "standby",
                to: "spin-up",
                rpm: 0,
            },
            TraceEvent::DiskState {
                at: t(to),
                node,
                disk,
                from: "spin-up",
                to: "idle",
                rpm: 12_000,
            },
        ]
    }

    #[test]
    fn spin_up_share_is_the_overlap_with_the_queue_window() {
        let mut events = vec![issue(0, 0, 7, 100, Some(2))];
        // The disk spins up inside the queue window [100, 400); a spin-up
        // of another disk on the same node does not count.
        events.extend(spin_up(0, 0, 150, 350));
        events.extend(spin_up(0, 1, 100, 400));
        events.push(done(0, 0, 7, 100, 400, 650));
        let forest = SpanForest::build(&events);
        let r = &forest.requests[0];
        assert_eq!(r.response_us(), Some(550));
        assert_eq!(r.queue_us(), Some(300));
        assert_eq!(r.spin_up_us, 200);
        assert_eq!(r.service_us(), Some(250));
        assert!(r.latency_adds_up());
        assert_eq!(r.access, Some(2));
        assert!(!r.recovery);
    }

    #[test]
    fn without_transitions_the_queue_is_pure_wait() {
        let forest = SpanForest::build(&[done(1, 0, 9, 0, 40, 100)]);
        let r = &forest.requests[0];
        assert_eq!(r.spin_up_us, 0);
        assert_eq!(r.queue_us(), Some(40));
        assert_eq!(r.response_us(), Some(100));
        assert!(r.latency_adds_up());
    }

    #[test]
    fn a_request_that_starts_before_it_arrives_breaks_the_identity() {
        let forest = SpanForest::build(&[done(0, 0, 1, 100, 50, 200)]);
        let r = &forest.requests[0];
        assert_eq!(r.response_us(), Some(100));
        assert_eq!(r.service_us(), Some(150));
        assert_eq!(r.queue_us(), None);
        assert!(!r.latency_adds_up());
    }

    #[test]
    fn a_request_that_ends_before_it_starts_breaks_the_identity() {
        let forest = SpanForest::build(&[done(0, 0, 1, 100, 300, 200)]);
        let r = &forest.requests[0];
        assert_eq!(r.response_us(), Some(100));
        assert_eq!(r.queue_us(), Some(200));
        assert_eq!(r.service_us(), None);
        assert!(!r.latency_adds_up());
    }

    #[test]
    fn a_spin_up_share_above_the_queue_wait_breaks_the_identity() {
        // Transitions replayed out of time order give one disk two
        // overlapping spin-up residencies: 300 + 200 us inside a 300 us
        // queue window, which the fold does not clamp.
        let mut events = spin_up(0, 0, 100, 400).to_vec();
        events.extend(spin_up(0, 0, 150, 350));
        events.push(done(0, 0, 1, 100, 400, 500));
        let forest = SpanForest::build(&events);
        let r = &forest.requests[0];
        assert_eq!(r.queue_us(), Some(300));
        assert_eq!(r.spin_up_us, 500);
        assert!(!r.latency_adds_up());
    }
}
