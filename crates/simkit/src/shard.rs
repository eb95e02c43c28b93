//! Sharded time-domain event kernel.
//!
//! [`ShardedKernel`] partitions a scene's components across *shards*, each
//! owning a private [`Calendar`] and message inbox, and runs the shards in
//! lock-step *epochs* of a fixed time window. Within an epoch every shard
//! advances independently (optionally on parallel workers); at the epoch
//! barrier every message produced during the epoch is routed to its
//! destination shard's inbox, and the next epoch window is derived from
//! the global minimum next-event time (empty windows are skipped, so
//! sparse scenes do not pay per-window cost).
//!
//! # Determinism
//!
//! The simulated outcome is **bitwise identical for any worker count and
//! any shard partition**:
//!
//! * Every message — even one whose destination lives on the same shard —
//!   travels through the epoch outbox and is delivered from the
//!   destination inbox, a [`std::collections::BinaryHeap`] ordered by the
//!   globally unique key `(deliver_at, dst, src, seq)` where `seq` is a
//!   per-sender monotone counter. Delivery order therefore never depends
//!   on which shard or worker produced the message.
//! * Epoch boundaries are aligned to a fixed grid of `window`-sized cells
//!   and chosen from the *global* minimum next-event time, which is a
//!   partition-independent quantity.
//! * Within a shard, same-time ties are resolved messages-first, then by
//!   the canonical message key, then by calendar registration order —
//!   all partition-independent for components that only interact through
//!   messages.
//!
//! # Lookahead
//!
//! Conservative epoch synchronization is only correct when a message sent
//! at time `t` inside a window `[s, s + w)` is delivered at or after
//! `s + w`. Components guarantee this by using a hop latency `≥ w` for
//! every send; the kernel verifies the invariant at each barrier and
//! returns [`ShardError::LookaheadViolation`] instead of silently
//! reordering history.
//!
//! # Example
//!
//! ```
//! use simkit::shard::{GlobalSlot, ShardComponent, ShardCtx, ShardedKernel};
//! use simkit::{SimDuration, SimTime};
//!
//! /// Sends one message to a peer, counts what it receives.
//! struct Node { peer: Option<GlobalSlot>, start: Option<SimTime>, received: u32 }
//!
//! impl ShardComponent<u32> for Node {
//!     fn next_tick(&self) -> Option<SimTime> { self.start }
//!     fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
//!         self.start = None;
//!         if let Some(peer) = self.peer {
//!             ctx.send(peer, now + SimDuration::from_millis(1), 7);
//!         }
//!     }
//!     fn on_message(&mut self, _now: SimTime, msg: u32, _ctx: &mut ShardCtx<'_, u32>) {
//!         self.received += msg;
//!     }
//! }
//!
//! let mut k = ShardedKernel::new(2, SimDuration::from_millis(1)).unwrap();
//! let a = k.add(0, Node { peer: None, start: None, received: 0 }).unwrap();
//! let _b = k.add(1, Node { peer: Some(a), start: Some(SimTime::ZERO), received: 0 }).unwrap();
//! let stats = k.run(1, SimTime::MAX).unwrap();
//! assert_eq!(stats.events, 2);
//! assert_eq!(k.components().next().unwrap().received, 7);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use crate::kernel::{ArbitrationPolicy, Calendar, SlotId};
use crate::{SimDuration, SimTime};

/// Identifies a component across every shard of a [`ShardedKernel`].
///
/// Slots are handed out by [`ShardedKernel::add`] in registration order
/// and are the addresses used by [`ShardCtx::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalSlot(u32);

impl GlobalSlot {
    /// The slot's position in global registration order.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The slot that will be (or was) handed out `index`-th by
    /// [`ShardedKernel::add`]. Lets scene builders precompute a layout;
    /// a message to a slot that never registers fails the run with
    /// [`ShardError::UnknownSlot`].
    #[inline]
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        GlobalSlot(index as u32)
    }
}

/// A component that lives on a shard and interacts with the rest of the
/// scene exclusively through timestamped messages.
///
/// All interaction between components goes through addressed sends:
/// [`ShardCtx::send`], with a delivery latency of at least the kernel's
/// epoch window.
pub trait ShardComponent<M>: Send {
    /// The next time this component wants [`Self::tick`] to run, if any.
    ///
    /// Re-read after every `tick`/`on_message`; returning a time earlier
    /// than the event just processed is clamped up to it.
    fn next_tick(&self) -> Option<SimTime>;

    /// Called when simulated time reaches [`Self::next_tick`].
    fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, M>);

    /// Called when a message addressed to this component is delivered.
    fn on_message(&mut self, now: SimTime, msg: M, ctx: &mut ShardCtx<'_, M>);
}

/// Per-event context handed to [`ShardComponent`] callbacks; collects
/// outgoing messages into the shard's epoch outbox.
pub struct ShardCtx<'a, M> {
    now: SimTime,
    self_slot: GlobalSlot,
    outbox: &'a mut Vec<Envelope<M>>,
    seq: &'a mut u64,
}

impl<M> ShardCtx<'_, M> {
    /// The timestamp of the event being processed.
    #[inline]
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The global slot of the component being called.
    #[inline]
    #[must_use]
    pub fn self_slot(&self) -> GlobalSlot {
        self.self_slot
    }

    /// Sends `msg` to `dst` for delivery at simulated time `at`.
    ///
    /// `at` must satisfy the kernel's lookahead contract: it has to fall
    /// at or after the end of the epoch window the send happens in (any
    /// fixed latency `≥` the epoch window does, because windows are
    /// grid-aligned). Violations are detected at the next barrier and
    /// reported as [`ShardError::LookaheadViolation`].
    #[inline]
    pub fn send(&mut self, dst: GlobalSlot, at: SimTime, msg: M) {
        let seq = *self.seq;
        *self.seq = seq.wrapping_add(1);
        self.outbox.push(Envelope {
            at,
            dst: dst.0,
            src: self.self_slot.0,
            seq,
            dst_shard: 0,
            dst_local: 0,
            msg,
        });
    }
}

impl<M> fmt::Debug for ShardCtx<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardCtx")
            .field("now", &self.now)
            .field("self_slot", &self.self_slot)
            .finish_non_exhaustive()
    }
}

/// A message in flight. Ordered by the globally unique canonical key
/// `(at, dst, src, seq)`; the payload never participates in ordering.
struct Envelope<M> {
    at: SimTime,
    dst: u32,
    src: u32,
    seq: u64,
    /// Routing hints filled in by the kernel during the barrier exchange.
    dst_shard: u32,
    dst_local: u32,
    msg: M,
}

impl<M> Envelope<M> {
    #[inline]
    fn key(&self) -> (SimTime, u32, u32, u64) {
        (self.at, self.dst, self.src, self.seq)
    }
}

impl<M> PartialEq for Envelope<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Envelope<M> {}
impl<M> PartialOrd for Envelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Envelope<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Errors from building or running a [`ShardedKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShardError {
    /// The kernel was asked for zero shards.
    NoShards,
    /// The epoch window must be a positive duration.
    ZeroWindow,
    /// `add` named a shard index outside `0..shards`.
    UnknownShard {
        /// The out-of-range shard index.
        shard: usize,
        /// The number of shards the kernel was built with.
        shards: usize,
    },
    /// A message was addressed to a slot that was never registered.
    UnknownSlot {
        /// The sender's global slot index.
        src: u32,
        /// The unregistered destination index.
        dst: u32,
    },
    /// A message's delivery time fell inside the epoch window it was
    /// sent in, breaking conservative synchronization.
    LookaheadViolation {
        /// The sender's global slot index.
        src: u32,
        /// The offending delivery time.
        at: SimTime,
        /// The end of the epoch window the send happened in.
        epoch_end: SimTime,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "sharded kernel needs at least one shard"),
            ShardError::ZeroWindow => write!(f, "epoch window must be positive"),
            ShardError::UnknownShard { shard, shards } => {
                write!(
                    f,
                    "shard index {shard} out of range (kernel has {shards} shards)"
                )
            }
            ShardError::UnknownSlot { src, dst } => {
                write!(
                    f,
                    "component {src} sent a message to unregistered slot {dst}"
                )
            }
            ShardError::LookaheadViolation { src, at, epoch_end } => write!(
                f,
                "component {src} sent a message for t={}us inside its own epoch window \
                 (epoch ends at t={}us); sends must use a latency >= the epoch window",
                at.as_micros(),
                epoch_end.as_micros()
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// One observed event from a shard's log, in the canonical
/// partition-invariant order.
///
/// The derived `Ord` is the canonical key: message deliveries sort as
/// `(at, 0, dst, src, seq)` and calendar ticks as `(at, 1, slot, 0, 0)`,
/// mirroring the kernel's messages-first tie rule. Because the *set* of
/// processed events is partition-invariant, sorting the concatenated
/// per-shard logs (see [`merge_events`]) yields a stream that is byte
/// identical for every worker count and shard partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// `0` for a message delivery, `1` for a calendar tick.
    pub kind: u8,
    /// Destination slot for messages; the ticking slot for ticks.
    pub slot: u32,
    /// Sender slot for messages; `0` for ticks.
    pub src: u32,
    /// Sender sequence number for messages; `0` for ticks.
    pub seq: u64,
}

/// Per-epoch delta counters from one shard.
///
/// Every shard records exactly one entry per global epoch (a shard with
/// no work in the window records zeros), so the epoch logs of all shards
/// align by index and can be compared side by side for barrier-stall and
/// load-imbalance accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochObs {
    /// End of the epoch window (exclusive).
    pub end: SimTime,
    /// Events this shard processed inside the window.
    pub events: u64,
    /// Message deliveries among those events.
    pub messages: u64,
}

/// Everything one shard observed during a run: its event log in local
/// processing order and its per-epoch delta log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardObs {
    /// Events in the order this shard processed them.
    pub events: Vec<ShardEvent>,
    /// One delta entry per epoch, aligned across shards by index.
    pub epochs: Vec<EpochObs>,
}

/// Merges per-shard event logs into the canonical partition-invariant
/// stream (sorted by the [`ShardEvent`] key). The result is identical
/// for every worker count and every shard partition of the same scene.
#[must_use]
pub fn merge_events(obs: &[ShardObs]) -> Vec<ShardEvent> {
    let mut all: Vec<ShardEvent> = obs.iter().flat_map(|o| o.events.iter().copied()).collect();
    all.sort_unstable();
    all
}

/// Load-imbalance summary for one epoch, derived from the aligned
/// per-shard epoch logs by [`epoch_imbalance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochImbalance {
    /// End of the epoch window (exclusive).
    pub end: SimTime,
    /// Events processed by the busiest shard this epoch.
    pub max_events: u64,
    /// Events processed by all shards this epoch.
    pub total_events: u64,
    /// `Σ (max_events − shard events)`: the events' worth of capacity
    /// the other shards spend waiting at the epoch barrier while the
    /// busiest shard finishes — the kernel's barrier-stall proxy.
    pub stall_events: u64,
}

/// Folds aligned per-shard epoch logs into per-epoch barrier-stall and
/// load-imbalance accounting. Epochs are aligned by index; a shard
/// whose log is shorter (possible only after a mid-run error) simply
/// contributes zeros to the trailing epochs.
#[must_use]
pub fn epoch_imbalance(obs: &[ShardObs]) -> Vec<EpochImbalance> {
    let epochs = obs.iter().map(|o| o.epochs.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(epochs);
    for e in 0..epochs {
        let mut end = SimTime::ZERO;
        let mut max_events = 0u64;
        let mut total = 0u64;
        for o in obs {
            if let Some(d) = o.epochs.get(e) {
                end = end.max(d.end);
                max_events = max_events.max(d.events);
                total += d.events;
            }
        }
        let stall = obs
            .iter()
            .map(|o| max_events - o.epochs.get(e).map_or(0, |d| d.events))
            .sum();
        out.push(EpochImbalance {
            end,
            max_events,
            total_events: total,
            stall_events: stall,
        });
    }
    out
}

/// Aggregate counters from one [`ShardedKernel::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardRunStats {
    /// Total events processed (calendar ticks + message deliveries).
    pub events: u64,
    /// Message deliveries alone (a subset of `events`).
    pub messages: u64,
    /// Number of non-empty epoch windows executed.
    pub epochs: u64,
    /// Timestamp of the latest event processed (`SimTime::ZERO` if none).
    pub end: SimTime,
    /// Order-sensitive digest of every `(time, slot, kind)` processed,
    /// folded per shard then combined in shard order. Identical for any
    /// worker count; it *does* depend on the shard partition.
    pub trace_hash: u64,
}

/// One shard: a calendar of local components plus its message inbox,
/// epoch outbox and per-sender sequence counters.
struct Shard<M, C> {
    cal: Calendar,
    slots: Vec<SlotId>,
    globals: Vec<u32>,
    comps: Vec<C>,
    seqs: Vec<u64>,
    inbox: BinaryHeap<Reverse<Envelope<M>>>,
    outbox: Vec<Envelope<M>>,
    events: u64,
    messages: u64,
    last: SimTime,
    trace_hash: u64,
    /// Opt-in observability log; `None` (the default) records nothing.
    obs: Option<ShardObs>,
}

/// FxHash-style one-word fold used for the trace digest.
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

impl<M, C: ShardComponent<M>> Shard<M, C> {
    fn new() -> Self {
        Shard {
            cal: Calendar::new(ArbitrationPolicy::Deterministic),
            slots: Vec::new(),
            globals: Vec::new(),
            comps: Vec::new(),
            seqs: Vec::new(),
            inbox: BinaryHeap::new(),
            outbox: Vec::new(),
            events: 0,
            messages: 0,
            last: SimTime::ZERO,
            trace_hash: 0,
            obs: None,
        }
    }

    /// Earliest pending work on this shard (tick or queued delivery).
    fn next_time(&mut self) -> Option<SimTime> {
        earliest(
            self.inbox.peek().map(|Reverse(e)| e.at),
            self.cal.peek_time(),
        )
    }

    /// Runs every event strictly before `end`, messages first on ties.
    fn run_epoch(&mut self, end: SimTime) {
        let (events_at_start, messages_at_start) = (self.events, self.messages);
        loop {
            let msg = self.inbox.peek().map(|Reverse(e)| e.at);
            let tick = self.cal.peek_time();
            let deliver = match (msg, tick) {
                (None, None) => break,
                (Some(m), None) => {
                    if m >= end {
                        break;
                    }
                    true
                }
                (None, Some(t)) => {
                    if t >= end {
                        break;
                    }
                    false
                }
                (Some(m), Some(t)) => {
                    let earliest = m.min(t);
                    if earliest >= end {
                        break;
                    }
                    m <= t
                }
            };
            if deliver {
                let Some(Reverse(env)) = self.inbox.pop() else {
                    break;
                };
                if let Some(obs) = self.obs.as_mut() {
                    obs.events.push(ShardEvent {
                        at: env.at,
                        kind: 0,
                        slot: env.dst,
                        src: env.src,
                        seq: env.seq,
                    });
                }
                let li = env.dst_local as usize;
                let mut ctx = ShardCtx {
                    now: env.at,
                    self_slot: GlobalSlot(env.dst),
                    outbox: &mut self.outbox,
                    seq: &mut self.seqs[li],
                };
                self.comps[li].on_message(env.at, env.msg, &mut ctx);
                let next = self.comps[li].next_tick().map(|t| t.max(env.at));
                self.cal.retarget(self.slots[li], next);
                self.events += 1;
                self.messages += 1;
                self.last = self.last.max(env.at);
                self.trace_hash = mix(
                    mix(self.trace_hash, env.at.as_micros()),
                    (u64::from(env.dst) << 1) | 1,
                );
            } else {
                let Some((t, slot)) = self.cal.pop() else {
                    break;
                };
                let li = slot.index();
                if let Some(obs) = self.obs.as_mut() {
                    obs.events.push(ShardEvent {
                        at: t,
                        kind: 1,
                        slot: self.globals[li],
                        src: 0,
                        seq: 0,
                    });
                }
                let mut ctx = ShardCtx {
                    now: t,
                    self_slot: GlobalSlot(self.globals[li]),
                    outbox: &mut self.outbox,
                    seq: &mut self.seqs[li],
                };
                self.comps[li].tick(t, &mut ctx);
                let next = self.comps[li].next_tick().map(|n| n.max(t));
                self.cal.retarget(slot, next);
                self.events += 1;
                self.last = self.last.max(t);
                self.trace_hash = mix(
                    mix(self.trace_hash, t.as_micros()),
                    u64::from(self.globals[li]) << 1,
                );
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.epochs.push(EpochObs {
                end,
                events: self.events - events_at_start,
                messages: self.messages - messages_at_start,
            });
        }
    }
}

/// Shutdown value of the shared epoch end. Every real epoch end is at
/// least one window past zero, so it never names an epoch.
const SHUTDOWN: u64 = 0;

/// Mailbox shared between the coordinator and one worker.
struct Mailbox<M> {
    /// Envelopes routed to this worker's shards, absorbed at the next
    /// epoch start or at shutdown.
    routed: Mutex<Vec<Envelope<M>>>,
    /// This worker's last epoch step: its shards' outboxes and their
    /// earliest pending time.
    report: Mutex<(Vec<Envelope<M>>, Option<SimTime>)>,
}

/// Locks a mailbox field. A panic elsewhere cannot leave a `Vec` of
/// envelopes half-updated, so a poisoned lock is still safe to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The earlier of two optional times.
fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// One worker's epoch step over its `lane` (shards `s` with
/// `s % workers == w`, in shard order). Absorbs the envelopes routed to
/// the lane; then, unless `end` is [`SHUTDOWN`], runs each shard to `end`
/// and reports the outboxes and the earliest pending time. Returns
/// whether an epoch ran.
fn step<M, C: ShardComponent<M>>(
    lane: &mut [&mut Shard<M, C>],
    mailbox: &Mailbox<M>,
    workers: usize,
    end: u64,
) -> bool {
    for env in lock(&mailbox.routed).drain(..) {
        lane[env.dst_shard as usize / workers]
            .inbox
            .push(Reverse(env));
    }
    if end == SHUTDOWN {
        return false;
    }
    let end = SimTime::from_micros(end);
    let mut out = Vec::new();
    let mut next = None;
    for shard in lane.iter_mut() {
        shard.run_epoch(end);
        out.append(&mut shard.outbox);
        next = earliest(next, shard.next_time());
    }
    *lock(&mailbox.report) = (out, next);
    true
}

/// Routes every worker's reported outboxes into the mailboxes of the
/// workers that own their destinations, after checking the lookahead
/// contract and the destination slot. Returns the earliest pending time
/// across the scene, routed envelopes included.
fn route<M>(
    mailboxes: &[Mailbox<M>],
    index: &[(u32, u32)],
    epoch_end: SimTime,
) -> Result<Option<SimTime>, ShardError> {
    // Fresh vectors each epoch, not one buffer per mailbox kept for the
    // whole run: with the kept buffer, glibc's heap was laid out so that
    // the next scene build took about four times the page faults
    // (perfbench `dc-scene-1shard` `setup_s` +60 %).
    let mut routed: Vec<Vec<Envelope<M>>> = Vec::new();
    routed.resize_with(mailboxes.len(), Vec::new);
    let mut next = None;
    for mailbox in mailboxes {
        let (out, pending) = std::mem::take(&mut *lock(&mailbox.report));
        next = earliest(next, pending);
        for mut env in out {
            if env.at < epoch_end {
                return Err(ShardError::LookaheadViolation {
                    src: env.src,
                    at: env.at,
                    epoch_end,
                });
            }
            let Some(&(s, l)) = index.get(env.dst as usize) else {
                return Err(ShardError::UnknownSlot {
                    src: env.src,
                    dst: env.dst,
                });
            };
            env.dst_shard = s;
            env.dst_local = l;
            next = earliest(next, Some(env.at));
            routed[s as usize % mailboxes.len()].push(env);
        }
    }
    for (mailbox, envs) in mailboxes.iter().zip(routed) {
        *lock(&mailbox.routed) = envs;
    }
    Ok(next)
}

/// The sharded epoch-barrier kernel. See the [module docs](self) for the
/// execution model and determinism argument.
pub struct ShardedKernel<M, C> {
    shards: Vec<Shard<M, C>>,
    /// Global slot index → `(shard, local index)`.
    index: Vec<(u32, u32)>,
    window: SimDuration,
}

impl<M, C> fmt::Debug for ShardedKernel<M, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedKernel")
            .field("shards", &self.shards.len())
            .field("components", &self.index.len())
            .field("window", &self.window)
            .finish()
    }
}

impl<M: Send, C: ShardComponent<M>> ShardedKernel<M, C> {
    /// Creates a kernel with `shards` empty shards and the given epoch
    /// window. Fails on zero shards or a zero window.
    pub fn new(shards: usize, window: SimDuration) -> Result<Self, ShardError> {
        if shards == 0 {
            return Err(ShardError::NoShards);
        }
        if window.is_zero() {
            return Err(ShardError::ZeroWindow);
        }
        let mut v = Vec::with_capacity(shards);
        for _ in 0..shards {
            v.push(Shard::new());
        }
        Ok(ShardedKernel {
            shards: v,
            index: Vec::new(),
            window,
        })
    }

    /// Registers `component` on shard `shard`, returning its global slot.
    ///
    /// The component's initial [`ShardComponent::next_tick`] is targeted
    /// immediately.
    pub fn add(&mut self, shard: usize, component: C) -> Result<GlobalSlot, ShardError> {
        let Some(s) = self.shards.get_mut(shard) else {
            return Err(ShardError::UnknownShard {
                shard,
                shards: self.shards.len(),
            });
        };
        let global = GlobalSlot(self.index.len() as u32);
        let slot = s.cal.register();
        s.cal.retarget(slot, component.next_tick());
        s.slots.push(slot);
        s.globals.push(global.0);
        s.comps.push(component);
        s.seqs.push(0);
        self.index.push((shard as u32, (s.comps.len() - 1) as u32));
        Ok(global)
    }

    /// Turns on per-shard observability: every shard starts recording
    /// its event log and per-epoch deltas (see [`ShardObs`]). Purely
    /// additive — the simulated outcome is bitwise identical with the
    /// observer on or off. Call before [`Self::run`].
    pub fn enable_observer(&mut self) {
        for s in &mut self.shards {
            if s.obs.is_none() {
                s.obs = Some(ShardObs::default());
            }
        }
    }

    /// Drains the per-shard observations, one entry per shard in shard
    /// order. Shards that never had the observer enabled yield empty
    /// logs. Recording continues on subsequent runs.
    pub fn take_observations(&mut self) -> Vec<ShardObs> {
        self.shards
            .iter_mut()
            .map(|s| match s.obs.as_mut() {
                Some(obs) => std::mem::take(obs),
                None => ShardObs::default(),
            })
            .collect()
    }

    /// Number of registered components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.index.len()
    }

    /// Iterates components in global registration order.
    pub fn components(&self) -> impl Iterator<Item = &C> {
        self.index
            .iter()
            .map(|&(s, l)| &self.shards[s as usize].comps[l as usize])
    }

    /// Consumes the kernel, returning components in global registration
    /// order.
    #[must_use]
    pub fn into_components(self) -> Vec<C> {
        let mut pools: Vec<Vec<Option<C>>> = self
            .shards
            .into_iter()
            .map(|s| s.comps.into_iter().map(Some).collect())
            .collect();
        self.index
            .iter()
            .filter_map(|&(s, l)| pools[s as usize][l as usize].take())
            .collect()
    }

    /// Runs the scene until it is quiescent or the next event time
    /// exceeds `horizon` (pass [`SimTime::MAX`] to run to quiescence;
    /// a mid-window horizon still finishes its epoch window). Messages
    /// routed for a later epoch stay queued for the next call.
    ///
    /// `jobs` is the worker count, clamped to `1..=shards`. The calling
    /// thread is worker 0: it runs shards `s % jobs == 0` and coordinates,
    /// while `jobs - 1` scoped helper threads run the rest and meet it at
    /// a barrier twice per epoch (start the epoch; every report is
    /// published). The result is bitwise identical for every `jobs`
    /// value.
    pub fn run(&mut self, jobs: usize, horizon: SimTime) -> Result<ShardRunStats, ShardError> {
        let workers = jobs.min(self.shards.len()).max(1);
        let window = self.window.as_micros();
        let index = &self.index;
        let mut next = self.shards.iter_mut().filter_map(Shard::next_time).min();
        let mut lanes: Vec<Vec<&mut Shard<M, C>>> = Vec::new();
        lanes.resize_with(workers, Vec::new);
        for (i, s) in self.shards.iter_mut().enumerate() {
            lanes[i % workers].push(s);
        }
        let mailboxes: Vec<Mailbox<M>> = (0..workers)
            .map(|_| Mailbox {
                routed: Mutex::default(),
                report: Mutex::default(),
            })
            .collect();
        let epoch_end = AtomicU64::new(SHUTDOWN);
        let barrier = Barrier::new(workers);

        let epochs = std::thread::scope(|scope| {
            let mut lanes = lanes.into_iter();
            let mut own = lanes.next().unwrap_or_default();
            for (mut lane, mailbox) in lanes.zip(&mailboxes[1..]) {
                let (barrier, epoch_end) = (&barrier, &epoch_end);
                scope.spawn(move || loop {
                    barrier.wait();
                    let end = epoch_end.load(Ordering::SeqCst);
                    if !step(&mut lane, mailbox, workers, end) {
                        break;
                    }
                    barrier.wait();
                });
            }

            let mut epochs = 0u64;
            let result = loop {
                let Some(t) = next.filter(|&t| t <= horizon) else {
                    break Ok(epochs);
                };
                // End of the grid-aligned epoch cell containing `t`.
                let end = (t.as_micros() / window)
                    .saturating_add(1)
                    .saturating_mul(window);
                epoch_end.store(end, Ordering::SeqCst);
                barrier.wait();
                step(&mut own, &mailboxes[0], workers, end);
                barrier.wait();
                epochs += 1;
                match route(&mailboxes, index, SimTime::from_micros(end)) {
                    Ok(t) => next = t,
                    Err(e) => break Err(e),
                }
            };
            // Every exit path, errors included, releases the helpers;
            // each worker absorbs its routed envelopes on the way out.
            epoch_end.store(SHUTDOWN, Ordering::SeqCst);
            barrier.wait();
            step(&mut own, &mailboxes[0], workers, SHUTDOWN);
            result
        })?;

        let mut stats = ShardRunStats {
            epochs,
            ..ShardRunStats::default()
        };
        for s in &self.shards {
            stats.events += s.events;
            stats.messages += s.messages;
            stats.end = stats.end.max(s.last);
            stats.trace_hash = mix(stats.trace_hash, s.trace_hash);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOP: SimDuration = SimDuration::from_millis(1);

    /// A chatty node: ticks once at `start`, then ping-pongs with `peer`
    /// until `rounds` messages have been received, logging every receipt.
    struct Chatty {
        peer: GlobalSlot,
        start: Option<SimTime>,
        rounds: u32,
        received: u32,
        log: Vec<(u64, u32)>,
    }

    impl Chatty {
        fn new(peer: GlobalSlot, start_us: u64, rounds: u32) -> Self {
            Chatty {
                peer,
                start: Some(SimTime::from_micros(start_us)),
                rounds,
                received: 0,
                log: Vec::new(),
            }
        }
    }

    impl ShardComponent<u32> for Chatty {
        fn next_tick(&self) -> Option<SimTime> {
            self.start
        }
        fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
            self.start = None;
            ctx.send(self.peer, now + HOP, 0);
        }
        fn on_message(&mut self, now: SimTime, msg: u32, ctx: &mut ShardCtx<'_, u32>) {
            self.received += 1;
            self.log.push((now.as_micros(), msg));
            if self.received < self.rounds {
                ctx.send(self.peer, now + HOP, msg + 1);
            }
        }
    }

    /// Builds a ring of `n` chatty pairs spread over `shards` shards.
    fn build_ring(shards: usize, n: usize, rounds: u32) -> ShardedKernel<u32, Chatty> {
        let mut k = ShardedKernel::new(shards, HOP).unwrap();
        // Slot ids are allocated in registration order, so peers can be
        // computed up front: component i talks to i^1 (its pair).
        for i in 0..n {
            let peer = GlobalSlot((i ^ 1) as u32);
            let c = Chatty::new(peer, (i as u64 * 37) % 500, rounds);
            k.add(i % shards, c).unwrap();
        }
        k
    }

    fn fingerprint(k: &ShardedKernel<u32, Chatty>) -> Vec<(u32, Vec<(u64, u32)>)> {
        k.components()
            .map(|c| (c.received, c.log.clone()))
            .collect()
    }

    #[test]
    fn ping_pong_terminates_with_expected_counts() {
        let mut k = build_ring(2, 2, 4);
        let stats = k.run(1, SimTime::MAX).unwrap();
        // 2 ticks + messages until both sides have received 4.
        let comps: Vec<_> = k.components().collect();
        assert_eq!(comps[0].received, 4);
        assert_eq!(comps[1].received, 4);
        assert_eq!(stats.messages, 8);
        assert_eq!(stats.events, 10);
        assert!(stats.end > SimTime::ZERO);
    }

    #[test]
    fn jobs_invariance_bitwise() {
        let mut base = build_ring(4, 16, 8);
        let s1 = base.run(1, SimTime::MAX).unwrap();
        let f1 = fingerprint(&base);
        for jobs in [2usize, 3, 4, 8] {
            let mut k = build_ring(4, 16, 8);
            let s = k.run(jobs, SimTime::MAX).unwrap();
            assert_eq!(s, s1, "stats diverged at jobs={jobs}");
            assert_eq!(fingerprint(&k), f1, "logs diverged at jobs={jobs}");
        }
    }

    #[test]
    fn partition_invariance_of_component_state() {
        let mut one = build_ring(1, 16, 8);
        let s_one = one.run(1, SimTime::MAX).unwrap();
        let f_one = fingerprint(&one);
        for shards in [2usize, 3, 5, 16] {
            let mut k = build_ring(shards, 16, 8);
            let s = k.run(2, SimTime::MAX).unwrap();
            assert_eq!(s.events, s_one.events, "events diverged at shards={shards}");
            assert_eq!(s.messages, s_one.messages);
            assert_eq!(s.end, s_one.end);
            assert_eq!(fingerprint(&k), f_one, "state diverged at shards={shards}");
        }
    }

    #[test]
    fn skip_ahead_keeps_epoch_count_low() {
        // Two components exchanging sparse messages 100 windows apart:
        // the kernel must skip empty windows rather than step each one.
        struct Sparse {
            peer: GlobalSlot,
            start: Option<SimTime>,
            left: u32,
        }
        impl ShardComponent<u32> for Sparse {
            fn next_tick(&self) -> Option<SimTime> {
                self.start
            }
            fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
                self.start = None;
                ctx.send(self.peer, now + HOP.mul_f64(100.0), 0);
            }
            fn on_message(&mut self, now: SimTime, _m: u32, ctx: &mut ShardCtx<'_, u32>) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send(self.peer, now + HOP.mul_f64(100.0), 0);
                }
            }
        }
        let mut k = ShardedKernel::new(2, HOP).unwrap();
        let a = k
            .add(
                0,
                Sparse {
                    peer: GlobalSlot(1),
                    start: Some(SimTime::ZERO),
                    left: 10,
                },
            )
            .unwrap();
        assert_eq!(a.index(), 0);
        k.add(
            1,
            Sparse {
                peer: a,
                start: None,
                left: 10,
            },
        )
        .unwrap();
        let stats = k.run(2, SimTime::MAX).unwrap();
        assert!(
            stats.epochs <= stats.events + 1,
            "epochs {} not sparse",
            stats.epochs
        );
        assert!(stats.end >= SimTime::from_micros(100_000 * 11));
    }

    #[test]
    fn lookahead_violation_is_reported() {
        struct Rude {
            peer: GlobalSlot,
            start: Option<SimTime>,
        }
        impl ShardComponent<u32> for Rude {
            fn next_tick(&self) -> Option<SimTime> {
                self.start
            }
            fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
                self.start = None;
                // Latency shorter than the epoch window: must be caught.
                ctx.send(self.peer, now + SimDuration::from_micros(1), 0);
            }
            fn on_message(&mut self, _n: SimTime, _m: u32, _c: &mut ShardCtx<'_, u32>) {}
        }
        for jobs in [1usize, 2] {
            let mut k = ShardedKernel::new(2, HOP).unwrap();
            let a = k
                .add(
                    0,
                    Rude {
                        peer: GlobalSlot(1),
                        start: Some(SimTime::ZERO),
                    },
                )
                .unwrap();
            k.add(
                1,
                Rude {
                    peer: a,
                    start: None,
                },
            )
            .unwrap();
            match k.run(jobs, SimTime::MAX) {
                Err(ShardError::LookaheadViolation { src, .. }) => assert_eq!(src, 0),
                other => panic!("expected lookahead violation, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_destination_is_reported() {
        struct Wild {
            start: Option<SimTime>,
        }
        impl ShardComponent<u32> for Wild {
            fn next_tick(&self) -> Option<SimTime> {
                self.start
            }
            fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
                self.start = None;
                ctx.send(GlobalSlot(999), now + HOP, 0);
            }
            fn on_message(&mut self, _n: SimTime, _m: u32, _c: &mut ShardCtx<'_, u32>) {}
        }
        // Two shards on two or more workers raise the error while helper
        // threads wait at the barrier; the run must still return it.
        for (shards, jobs) in [(1usize, 1usize), (2, 2), (2, 8)] {
            let mut k = ShardedKernel::new(shards, HOP).unwrap();
            for shard in 0..shards {
                k.add(
                    shard,
                    Wild {
                        start: Some(SimTime::ZERO),
                    },
                )
                .unwrap();
            }
            match k.run(jobs, SimTime::MAX) {
                Err(ShardError::UnknownSlot { dst, .. }) => assert_eq!(dst, 999),
                other => panic!("expected unknown slot at jobs={jobs}, got {other:?}"),
            }
        }
    }

    #[test]
    fn horizon_keeps_messages_in_flight() {
        // A run stopped at a horizon leaves messages routed for later
        // epochs queued; the next run delivers them, so every component
        // ends with the receive log of one uninterrupted run.
        let mut whole = build_ring(4, 16, 8);
        whole.run(1, SimTime::MAX).unwrap();
        let expect = fingerprint(&whole);
        for jobs in [1usize, 2, 3, 8] {
            let mut k = build_ring(4, 16, 8);
            k.run(jobs, SimTime::from_micros(3_000)).unwrap();
            k.run(jobs, SimTime::MAX).unwrap();
            assert_eq!(fingerprint(&k), expect, "logs diverged at jobs={jobs}");
        }
    }

    #[test]
    fn builder_errors() {
        assert_eq!(
            ShardedKernel::<u32, Chatty>::new(0, HOP).err(),
            Some(ShardError::NoShards)
        );
        assert_eq!(
            ShardedKernel::<u32, Chatty>::new(1, SimDuration::from_micros(0)).err(),
            Some(ShardError::ZeroWindow)
        );
        let mut k = ShardedKernel::<u32, Chatty>::new(2, HOP).unwrap();
        let c = Chatty::new(GlobalSlot(0), 0, 1);
        assert!(matches!(
            k.add(5, c),
            Err(ShardError::UnknownShard {
                shard: 5,
                shards: 2
            })
        ));
    }

    #[test]
    fn observer_event_stream_is_partition_invariant() {
        // Reference: single shard, inline.
        let mut one = build_ring(1, 16, 8);
        one.enable_observer();
        let s_one = one.run(1, SimTime::MAX).unwrap();
        let obs_one = one.take_observations();
        let merged_one = merge_events(&obs_one);
        assert_eq!(merged_one.len() as u64, s_one.events);
        // The merged stream is sorted by the canonical key.
        assert!(merged_one.windows(2).all(|w| w[0] <= w[1]));

        for (shards, jobs) in [(2usize, 1usize), (4, 2), (16, 4)] {
            let mut k = build_ring(shards, 16, 8);
            k.enable_observer();
            let s = k.run(jobs, SimTime::MAX).unwrap();
            let obs = k.take_observations();
            assert_eq!(obs.len(), shards);
            assert_eq!(
                merge_events(&obs),
                merged_one,
                "merged stream diverged at shards={shards} jobs={jobs}"
            );
            // Epoch deltas reconcile with the run totals.
            let events: u64 = obs.iter().flat_map(|o| &o.epochs).map(|d| d.events).sum();
            let messages: u64 = obs.iter().flat_map(|o| &o.epochs).map(|d| d.messages).sum();
            assert_eq!(events, s.events);
            assert_eq!(messages, s.messages);
            // Every shard logs every epoch, so the logs align by index.
            for o in &obs {
                assert_eq!(o.epochs.len() as u64, s.epochs);
            }
            let imbalance = epoch_imbalance(&obs);
            assert_eq!(imbalance.len() as u64, s.epochs);
            for epoch in &imbalance {
                assert!(epoch.max_events * (shards as u64) >= epoch.total_events);
                assert_eq!(
                    epoch.stall_events,
                    epoch.max_events * (shards as u64) - epoch.total_events
                );
            }
        }
    }

    #[test]
    fn observer_is_off_by_default_and_does_not_perturb_the_run() {
        let mut plain = build_ring(4, 16, 8);
        let s_plain = plain.run(2, SimTime::MAX).unwrap();
        let f_plain = fingerprint(&plain);
        assert!(plain
            .take_observations()
            .iter()
            .all(|o| o.events.is_empty() && o.epochs.is_empty()));

        let mut observed = build_ring(4, 16, 8);
        observed.enable_observer();
        let s_obs = observed.run(2, SimTime::MAX).unwrap();
        assert_eq!(s_obs, s_plain, "observer changed the simulated outcome");
        assert_eq!(fingerprint(&observed), f_plain);
    }

    #[test]
    fn into_components_preserves_global_order() {
        let mut k = build_ring(3, 8, 2);
        k.run(1, SimTime::MAX).unwrap();
        let peers: Vec<usize> = k.into_components().iter().map(|c| c.peer.index()).collect();
        let expect: Vec<usize> = (0..8).map(|i| i ^ 1).collect();
        assert_eq!(peers, expect);
    }
}
