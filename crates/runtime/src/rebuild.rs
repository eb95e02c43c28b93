//! Replicated object-store scenario: straggler/bad-sector-aware replica
//! routing and background rebuild of a failed member onto a hot spare.
//!
//! The compiled-pipeline engine of [`crate::Engine`] models the paper's
//! single-application loop nests; this module models the *datacenter*
//! shape the paper's §VI sizing argument extrapolates to — a replicated
//! object store where the decision layer must weigh disk energy against
//! tail latency while a reconstruction competes for the same spindles.
//!
//! Three pieces ride the shared [`simkit::kernel::Calendar`]:
//!
//! * a client-side **replica router** that scores the members of each
//!   object's replica set by an observed response-time EWMA plus a
//!   remap penalty for disks with bad sectors, skips members inside
//!   crash windows, and steers reads away from stragglers
//!   ([`RebuildParams::routing`] off = always read the primary);
//! * a **rebuild engine** that, after a whole-disk failure, promotes the
//!   hot spare and copies the lost replicas chunk-by-chunk as
//!   rate-limited calendar events, pinning its source and target
//!   spinning via [`ScenePower::hold`] so the spin-down policy never
//!   powers a disk off mid-reconstruction;
//! * the **energy accounting** of [`ScenePower`], with active joules
//!   split between foreground and rebuild traffic by
//!   [`sdds_power::scene::ActiveTag`], so the report's split reconciles
//!   against the headline exactly.
//!
//! Everything is a pure function of [`RebuildParams`]: the same params
//! produce bitwise-identical [`RebuildResult`]s (pinned by the
//! `route_digest` over every routing decision), independent of the
//! worker-pool size.

use std::error::Error;
use std::fmt;
use std::hash::Hasher;

use sdds_power::scene::{ActiveTag, SceneEnergy, ScenePower, ScenePowerParams};
use sdds_storage::{Placement, PlacementParams, StorageError};
use sdds_workloads::ObjectStoreSpec;
use simkit::fault::{DiskFaultProfile, FaultPlan, FaultSpec, FaultSpecError};
use simkit::hash::FxHasher;
use simkit::kernel::{ArbitrationPolicy, Calendar};
use simkit::telemetry::{TraceEvent, TraceSink};
use simkit::{DetRng, EventQueue, SimDuration, SimTime};

/// Fixed per-request positioning overhead (seek + rotation), microseconds.
const SEEK_OVERHEAD_US: u64 = 2_000;
/// Nominal sequential bandwidth used to turn bytes into service time.
const BYTES_PER_SEC: u64 = 100 * 1024 * 1024;
/// Extra service microseconds per known-bad sector on the disk — the
/// expected cost of the firmware remap indirection every request risks.
const REMAP_PENALTY_US: u64 = 150;
/// EWMA weight: `ewma' = (7 * ewma + observation) / 8`.
const EWMA_OLD_WEIGHT: u64 = 7;

/// Everything the scenario depends on. Two runs with equal params are
/// bitwise identical.
#[derive(Debug, Clone, PartialEq)]
pub struct RebuildParams {
    /// The GET/PUT request stream and object table.
    pub workload: ObjectStoreSpec,
    /// Replica placement geometry (data disks, spares, replica count).
    pub placement: PlacementParams,
    /// Fault shaping (stragglers, bad sectors, crash windows); `None`
    /// runs a fault-free array.
    pub scenario: Option<FaultSpec>,
    /// Whether one data disk fails at [`RebuildParams::fail_at`] and is
    /// rebuilt onto the spare. The fault-free twin turns this off.
    pub inject_failure: bool,
    /// When the failed member dies (ignored unless `inject_failure`).
    pub fail_at: SimTime,
    /// Bytes copied per rebuild calendar tick.
    pub chunk_kib: u64,
    /// Gap between rebuild ticks — the rate limit that keeps
    /// reconstruction from starving foreground traffic.
    pub rebuild_period: SimDuration,
    /// `true` scores replicas by observed latency; `false` always reads
    /// the primary (the unrouted twin).
    pub routing: bool,
    /// Power model of every disk in the array.
    pub power: ScenePowerParams,
}

impl RebuildParams {
    /// The datacenter-shaped default the `repro rebuild` experiment
    /// runs: 12 data disks + 1 spare, 3-way replication, a read-heavy
    /// zipfian store, failure at 30 s, 1 MiB chunks every 200 ms.
    pub fn paper_default(seed: u64, scenario: Option<FaultSpec>) -> Self {
        RebuildParams {
            workload: ObjectStoreSpec::paper_default(seed),
            placement: PlacementParams {
                data_disks: 12,
                spares: 1,
                replicas: 3,
                disk_capacity: 256 * 1024 * 1024,
                seed,
            },
            scenario,
            inject_failure: true,
            fail_at: SimTime::from_micros(30_000_000),
            chunk_kib: 1024,
            rebuild_period: SimDuration::from_millis(200),
            routing: true,
            power: ScenePowerParams::paper_scene(SimDuration::from_secs(5)),
        }
    }

    /// A small, fast preset for tests.
    pub fn small(seed: u64, scenario: Option<FaultSpec>) -> Self {
        RebuildParams {
            workload: ObjectStoreSpec::small(seed),
            placement: PlacementParams {
                data_disks: 6,
                spares: 1,
                replicas: 2,
                disk_capacity: 64 * 1024 * 1024,
                seed,
            },
            scenario,
            inject_failure: true,
            fail_at: SimTime::from_micros(4_000_000),
            chunk_kib: 256,
            rebuild_period: SimDuration::from_millis(100),
            routing: true,
            power: ScenePowerParams::paper_scene(SimDuration::from_secs(2)),
        }
    }
}

/// Errors rejected before the scenario starts.
#[derive(Debug)]
#[non_exhaustive]
pub enum RebuildError {
    /// A scenario field is out of range.
    Config {
        /// The offending field.
        field: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// The placement geometry was rejected or could not fit the objects.
    Placement(StorageError),
    /// The fault spec was rejected.
    Fault(FaultSpecError),
}

impl fmt::Display for RebuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebuildError::Config { field, reason } => {
                write!(f, "rebuild scenario: {field} {reason}")
            }
            RebuildError::Placement(e) => write!(f, "rebuild scenario: {e}"),
            RebuildError::Fault(e) => write!(f, "rebuild scenario: {e}"),
        }
    }
}

impl Error for RebuildError {}

impl From<StorageError> for RebuildError {
    fn from(e: StorageError) -> Self {
        RebuildError::Placement(e)
    }
}

/// Headline numbers of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct RebuildResult {
    /// GET requests served.
    pub reads: u64,
    /// PUT requests served (each writes every replica).
    pub writes: u64,
    /// Foreground bytes read (one replica per GET).
    pub bytes_read: u64,
    /// Foreground bytes written (every replica of every PUT).
    pub bytes_written: u64,
    /// Median GET response time, microseconds.
    pub read_p50_us: u64,
    /// 99th-percentile GET response time, microseconds.
    pub read_p99_us: u64,
    /// 99.9th-percentile GET response time, microseconds.
    pub read_p999_us: u64,
    /// Total GET microseconds spent queued behind earlier work.
    pub queue_us: u64,
    /// Total GET microseconds spent waiting on spin-ups.
    pub spin_up_wait_us: u64,
    /// Total GET microseconds of pure service.
    pub service_us: u64,
    /// Total GET microseconds deferred behind crash windows.
    pub crash_wait_us: u64,
    /// Total GET response microseconds. Identity:
    /// `response == queue + spin_up_wait + service + crash_wait`.
    pub response_us: u64,
    /// Reads that hit a transient error and paid one in-place retry.
    pub transient_retries: u64,
    /// Requests deferred because every candidate replica was crashed.
    pub deferred: u64,
    /// Replica-set members passed over by read routing decisions.
    pub routed_skips: u64,
    /// The member that failed (when a failure was injected).
    pub failed_disk: Option<u32>,
    /// The spare it was rebuilt onto.
    pub spare_disk: Option<u32>,
    /// Bytes copied by the rebuild engine.
    pub rebuild_bytes: u64,
    /// Rebuild chunks copied.
    pub rebuild_chunks: u64,
    /// Rebuild ticks skipped because source or spare was crashed.
    pub rebuild_skipped_ticks: u64,
    /// When redundancy was fully restored, microseconds since start.
    pub rebuild_done_us: Option<u64>,
    /// Energy totals; `energy.active_j` is exactly
    /// `foreground_active_j + rebuild_active_j`.
    pub energy: SceneEnergy,
    /// Active joules attributed to foreground traffic.
    pub foreground_active_j: f64,
    /// Active joules attributed to rebuild traffic.
    pub rebuild_active_j: f64,
    /// Spin-down events across the array.
    pub spin_downs: u64,
    /// Spin-up events across the array.
    pub spin_ups: u64,
    /// FxHash fold over every read's `(index, chosen disk)` — pins the
    /// exact routing sequence for byte-determinism checks.
    pub route_digest: u64,
    /// Scenario end (last completion), microseconds since start.
    pub end_us: u64,
}

/// Client-side replica scorer. Scores are integer microseconds so the
/// comparison is exact and platform-independent.
struct Router {
    /// Observed response-time EWMA per disk, seeded with the nominal
    /// service time of a mid-sized object.
    ewma_us: Vec<u64>,
    /// Static remap penalty per disk (bad-sector count based).
    penalty_us: Vec<u64>,
    routing: bool,
}

impl Router {
    fn observe(&mut self, disk: usize, resp_us: u64) {
        let e = self.ewma_us[disk];
        self.ewma_us[disk] = (e * EWMA_OLD_WEIGHT + resp_us) / (EWMA_OLD_WEIGHT + 1);
    }

    fn score(&self, disk: usize) -> u64 {
        self.ewma_us[disk].saturating_add(self.penalty_us[disk])
    }

    /// Picks from non-empty `candidates` (replica order, primary first):
    /// lowest score when routing, the primary otherwise. `extra_us`
    /// charges per-candidate situational cost — the spin-up a request
    /// would pay on a powered-down member. Ties keep the earliest
    /// candidate, so the choice is deterministic.
    fn choose(&self, candidates: &[usize], extra_us: impl Fn(usize) -> u64) -> usize {
        let mut best = candidates[0];
        if self.routing {
            let mut best_score = self.score(best).saturating_add(extra_us(best));
            for &c in &candidates[1..] {
                let score = self.score(c).saturating_add(extra_us(c));
                if score < best_score {
                    best = c;
                    best_score = score;
                }
            }
        }
        best
    }
}

/// Service time for `bytes` on a disk with the given fault profile:
/// seek + transfer + remap penalty, stretched by the straggler factor.
fn work_us(bytes: u64, profile: &DiskFaultProfile) -> u64 {
    let nominal = SEEK_OVERHEAD_US
        + bytes * 1_000_000 / BYTES_PER_SEC
        + REMAP_PENALTY_US * profile.bad_sectors.len() as u64;
    if profile.slow_factor > 1.0 {
        (nominal as f64 * profile.slow_factor).round() as u64
    } else {
        nominal
    }
}

fn percentile(sorted_us: &[u64], permille: u64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = (sorted_us.len() as u64 - 1) * permille / 1000;
    sorted_us[idx as usize]
}

fn validate(params: &RebuildParams) -> Result<(), RebuildError> {
    params.placement.validate()?;
    if let Some(spec) = &params.scenario {
        spec.validate().map_err(RebuildError::Fault)?;
    }
    if params.inject_failure {
        if params.placement.spares == 0 {
            return Err(RebuildError::Config {
                field: "spares",
                reason: "must be >= 1 when a failure is injected",
            });
        }
        if params.chunk_kib == 0 {
            return Err(RebuildError::Config {
                field: "chunk_kib",
                reason: "must be positive",
            });
        }
        if params.rebuild_period.is_zero() {
            return Err(RebuildError::Config {
                field: "rebuild_period",
                reason: "must be positive",
            });
        }
        if params.placement.replicas < 2 {
            return Err(RebuildError::Config {
                field: "replicas",
                reason: "must be >= 2 to survive a member failure",
            });
        }
    }
    Ok(())
}

/// Runs the scenario. Pass a [`TraceSink`] to capture the
/// `replica-route` / `rebuild-chunk` event stream.
///
/// # Errors
///
/// Returns [`RebuildError`] when the placement geometry, fault spec or
/// rebuild configuration is rejected; the simulation itself cannot fail.
#[allow(clippy::too_many_lines)]
pub fn run_rebuild(
    params: &RebuildParams,
    mut sink: Option<&mut TraceSink>,
) -> Result<RebuildResult, RebuildError> {
    validate(params)?;

    let objects = params.workload.object_table();
    let requests = params.workload.requests();
    let mut placement = Placement::build(&params.placement, &objects)?;
    let total_disks = placement.disk_count();

    // Expand the fault scenario against a flat pool: one node holding
    // every disk, so profile `d` matches placement disk `d`.
    let sectors = params.placement.disk_capacity / 512;
    let profiles: Vec<DiskFaultProfile> = match &params.scenario {
        Some(spec) => FaultPlan::generate(spec, 1, total_disks, sectors)
            .node(0)
            .to_vec(),
        None => vec![DiskFaultProfile::none(); total_disks],
    };
    let mut fault_rngs: Vec<DetRng> = profiles.iter().map(|p| DetRng::new(p.rng_seed)).collect();

    let mut scene = ScenePower::new(params.power, total_disks);
    let nominal_bytes = (params.workload.min_kib + params.workload.max_kib) / 2 * 1024;
    let mut router = Router {
        ewma_us: vec![work_us(nominal_bytes, &DiskFaultProfile::none()); total_disks],
        penalty_us: profiles
            .iter()
            .map(|p| REMAP_PENALTY_US * p.bad_sectors.len() as u64)
            .collect(),
        routing: params.routing,
    };

    // The member that dies: the data disk carrying the most replica
    // bytes (ties to the lowest index) — the worst case for rebuild.
    let failed: Option<usize> = params.inject_failure.then(|| {
        (0..params.placement.data_disks)
            .max_by_key(|&d| (placement.used_bytes(d), std::cmp::Reverse(d)))
            .unwrap_or(0)
    });

    // Mutable replica view: `sets[obj]` starts as the placement and has
    // the failed member swapped for the spare once its copy is valid.
    let mut sets: Vec<Vec<usize>> = (0..objects.len())
        .map(|o| placement.replicas_of(o).to_vec())
        .collect();
    // While degraded, the object's spare copy is not yet readable.
    let mut degraded = vec![false; objects.len()];

    let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
    let completions_slot = cal.register();
    let failure_slot = cal.register();
    let arrivals_slot = cal.register();
    let rebuild_slot = cal.register();

    // Pending (disk, service µs) completions; same-instant completions
    // apply in issue order.
    let mut completions: EventQueue<(usize, u64)> = EventQueue::new();

    if params.inject_failure {
        cal.retarget(failure_slot, Some(params.fail_at));
    }
    let mut next_req = 0usize;
    if let Some(r) = requests.first() {
        cal.retarget(arrivals_slot, Some(r.at));
    }

    // Rebuild engine state.
    let mut spare: Option<usize> = None;
    let mut pending: Vec<usize> = Vec::new();
    let mut pending_pos = 0usize;
    let mut object_done_bytes = 0u64;
    let chunk_bytes = params.chunk_kib * 1024;

    // Counters.
    let mut out = RebuildResult {
        reads: 0,
        writes: 0,
        bytes_read: 0,
        bytes_written: 0,
        read_p50_us: 0,
        read_p99_us: 0,
        read_p999_us: 0,
        queue_us: 0,
        spin_up_wait_us: 0,
        service_us: 0,
        crash_wait_us: 0,
        response_us: 0,
        transient_retries: 0,
        deferred: 0,
        routed_skips: 0,
        failed_disk: failed.map(|d| d as u32),
        spare_disk: None,
        rebuild_bytes: 0,
        rebuild_chunks: 0,
        rebuild_skipped_ticks: 0,
        rebuild_done_us: None,
        energy: SceneEnergy::default(),
        foreground_active_j: 0.0,
        rebuild_active_j: 0.0,
        spin_downs: 0,
        spin_ups: 0,
        route_digest: 0,
        end_us: 0,
    };
    let mut read_resp_us: Vec<u64> = Vec::new();
    let mut digest = FxHasher::default();
    let mut end = SimTime::ZERO;

    while let Some((t, slot)) = cal.pop() {
        if slot == completions_slot {
            // Apply the earliest pending completion; same-instant
            // completions re-arm the slot at the same time.
            if let Some((_, (disk, resp_us))) = completions.pop() {
                router.observe(disk, resp_us);
            }
            cal.retarget(completions_slot, completions.peek_time());
        } else if slot == failure_slot {
            // The member dies: retire it from the power model, promote
            // the spare, and queue every replica it held for rebuild.
            let dead = match failed {
                Some(d) => d,
                None => continue,
            };
            scene.retire(dead, t);
            let promoted = match placement.promote_spare() {
                Some(s) => s,
                None => continue, // validated: spares >= 1
            };
            spare = Some(promoted);
            out.spare_disk = Some(promoted as u32);
            pending = placement.objects_on(dead).to_vec();
            for &obj in &pending {
                degraded[obj] = true;
                for r in &mut sets[obj] {
                    if *r == dead {
                        *r = promoted;
                    }
                }
            }
            cal.retarget(rebuild_slot, Some(t + params.rebuild_period));
        } else if slot == arrivals_slot {
            let req = requests[next_req];
            let req_index = next_req as u64;
            next_req += 1;
            cal.retarget(arrivals_slot, requests.get(next_req).map(|r| r.at));

            let obj = req.object;
            let bytes = objects[obj].bytes;
            if req.read {
                // Candidates in replica order; the spare is unreadable
                // while the object's copy is still being reconstructed.
                let mut alive: Vec<usize> = Vec::new();
                let mut crashed: Vec<(SimTime, usize)> = Vec::new();
                let mut skipped = 0u32;
                for &d in &sets[obj] {
                    if Some(d) == spare && degraded[obj] {
                        skipped += 1;
                        continue;
                    }
                    match profiles[d].crashed_at(t) {
                        None => alive.push(d),
                        Some(recovery) => {
                            skipped += 1;
                            crashed.push((recovery, d));
                        }
                    }
                }
                let (chosen, serve_at) = if alive.is_empty() {
                    // Every member is down: wait for the earliest
                    // recovery. `crashed` is non-empty because replica
                    // sets are never empty.
                    out.deferred += 1;
                    let &(recovery, d) = crashed
                        .iter()
                        .min_by_key(|&&(rec, d)| (rec, d))
                        .unwrap_or(&(t, sets[obj][0]));
                    (d, recovery)
                } else {
                    // The router sees each member's live state
                    // (software-directed): queue depth, an in-flight
                    // spin-up, or the wake a powered-down member would
                    // pay — all charged up front.
                    let chosen = router.choose(&alive, |d| scene.arrival_cost(d, t).as_micros());
                    skipped += alive.len() as u32 - 1;
                    (chosen, t)
                };
                let mut work = work_us(bytes, &profiles[chosen]);
                if fault_rngs[chosen].chance(profiles[chosen].transient_rate) {
                    out.transient_retries += 1;
                    work *= 2; // one in-place retry
                }
                let o = scene.serve_traced(chosen, serve_at, SimDuration::from_micros(work));
                let resp = o.done.saturating_since(t);
                let crash_wait = serve_at.saturating_since(t);
                out.reads += 1;
                out.bytes_read += bytes;
                out.queue_us += o.queue.as_micros();
                out.spin_up_wait_us += o.spin_up.as_micros();
                out.service_us += o.service.as_micros();
                out.crash_wait_us += crash_wait.as_micros();
                out.response_us += resp.as_micros();
                out.routed_skips += u64::from(skipped);
                read_resp_us.push(resp.as_micros());
                digest.write_u64(req_index);
                digest.write_u64(chosen as u64);
                end = end.max(o.done);
                // The EWMA learns intrinsic member speed (pure service,
                // straggler-stretched); queueing and spin state are
                // charged live by `arrival_cost` at decision time.
                completions.schedule(o.done, (chosen, o.service.as_micros()));
                cal.retarget(completions_slot, completions.peek_time());
                if let Some(s) = sink.as_deref_mut() {
                    s.record(TraceEvent::ReplicaRoute {
                        at: t,
                        object: obj as u64,
                        chosen: chosen as u32,
                        skipped,
                    });
                }
            } else {
                // A PUT overwrites every replica; the copy that lands on
                // the spare is fresh data, so the object leaves the
                // rebuild queue.
                out.writes += 1;
                for &d in &sets[obj] {
                    let serve_at = match profiles[d].crashed_at(t) {
                        None => t,
                        Some(recovery) => {
                            out.deferred += 1;
                            recovery
                        }
                    };
                    let work = work_us(bytes, &profiles[d]);
                    let o = scene.serve_traced(d, serve_at, SimDuration::from_micros(work));
                    out.bytes_written += bytes;
                    end = end.max(o.done);
                    completions.schedule(o.done, (d, o.service.as_micros()));
                }
                cal.retarget(completions_slot, completions.peek_time());
                if degraded[obj] {
                    degraded[obj] = false;
                }
            }
        } else if slot == rebuild_slot {
            // Skip objects already restored (e.g. by a full overwrite).
            while pending_pos < pending.len() && !degraded[pending[pending_pos]] {
                pending_pos += 1;
                object_done_bytes = 0;
            }
            if pending_pos >= pending.len() {
                out.rebuild_done_us = Some(t.as_micros());
                end = end.max(t);
                continue; // slot left unarmed: rebuild complete
            }
            let obj = pending[pending_pos];
            let target = match spare {
                Some(s) => s,
                None => continue,
            };
            // Source: routed choice among readable survivors.
            let alive: Vec<usize> = sets[obj]
                .iter()
                .copied()
                .filter(|&d| d != target && profiles[d].crashed_at(t).is_none())
                .collect();
            if alive.is_empty() || profiles[target].crashed_at(t).is_some() {
                out.rebuild_skipped_ticks += 1;
                cal.retarget(rebuild_slot, Some(t + params.rebuild_period));
                continue;
            }
            let source = router.choose(&alive, |d| scene.arrival_cost(d, t).as_micros());
            let remaining = objects[obj].bytes - object_done_bytes;
            let chunk = remaining.min(chunk_bytes);

            scene.set_active_tag(ActiveTag::Rebuild);
            let read_done = scene.serve_traced(
                source,
                t,
                SimDuration::from_micros(work_us(chunk, &profiles[source])),
            );
            let write_done = scene.serve_traced(
                target,
                t,
                SimDuration::from_micros(work_us(chunk, &profiles[target])),
            );
            scene.set_active_tag(ActiveTag::Foreground);
            end = end.max(read_done.done).max(write_done.done);

            // Pin source and spare through the next tick so the
            // spin-down policy cannot power either off mid-rebuild.
            let hold_until = t + params.rebuild_period + params.rebuild_period;
            scene.hold(source, hold_until);
            scene.hold(target, hold_until);

            out.rebuild_bytes += chunk;
            out.rebuild_chunks += 1;
            object_done_bytes += chunk;
            if object_done_bytes >= objects[obj].bytes {
                degraded[obj] = false;
                pending_pos += 1;
                object_done_bytes = 0;
            }
            if let Some(s) = sink.as_deref_mut() {
                s.record(TraceEvent::RebuildChunk {
                    at: t,
                    source: source as u32,
                    spare: target as u32,
                    bytes: chunk,
                });
            }
            cal.retarget(rebuild_slot, Some(t + params.rebuild_period));
        }
    }

    scene.finish(end);
    let (fg, rb) = scene.active_split();
    out.energy = scene.energy();
    out.foreground_active_j = fg;
    out.rebuild_active_j = rb;
    out.spin_downs = scene.spin_downs;
    out.spin_ups = scene.spin_ups;
    read_resp_us.sort_unstable();
    out.read_p50_us = percentile(&read_resp_us, 500);
    out.read_p99_us = percentile(&read_resp_us, 990);
    out.read_p999_us = percentile(&read_resp_us, 999);
    out.route_digest = digest.finish();
    out.end_us = end.as_micros();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_deterministic() {
        let params = RebuildParams::small(42, FaultSpec::scenario("light", 42));
        let a = run_rebuild(&params, None).unwrap();
        let b = run_rebuild(&params, None).unwrap();
        assert_eq!(a, b);
        let other = RebuildParams::small(43, FaultSpec::scenario("light", 43));
        let c = run_rebuild(&other, None).unwrap();
        assert_ne!(a.route_digest, c.route_digest, "seed must matter");
    }

    #[test]
    fn span_identity_and_energy_reconcile() {
        let params = RebuildParams::small(7, FaultSpec::scenario("heavy", 7));
        let r = run_rebuild(&params, None).unwrap();
        assert_eq!(
            r.response_us,
            r.queue_us + r.spin_up_wait_us + r.service_us + r.crash_wait_us,
            "read spans must decompose exactly"
        );
        // Exact by construction: the headline active is the literal sum
        // of the two buckets.
        assert_eq!(
            r.energy.active_j,
            r.foreground_active_j + r.rebuild_active_j
        );
        assert!(r.rebuild_active_j > 0.0, "rebuild must cost energy");
    }

    #[test]
    fn rebuild_restores_every_lost_byte() {
        let params = RebuildParams::small(11, FaultSpec::scenario("light", 11));
        let r = run_rebuild(&params, None).unwrap();
        assert!(r.rebuild_done_us.is_some(), "rebuild must finish");
        assert!(r.rebuild_bytes > 0);
        assert!(r.failed_disk.is_some());
        assert!(r.spare_disk.is_some());

        // Foreground traffic is byte-identical to the fault-free twin:
        // the failure loses no client byte.
        let mut clean = params.clone();
        clean.scenario = None;
        clean.inject_failure = false;
        let c = run_rebuild(&clean, None).unwrap();
        assert_eq!(r.bytes_read, c.bytes_read);
        assert_eq!(r.bytes_written, c.bytes_written);
        assert_eq!(r.reads, c.reads);
        assert_eq!(r.writes, c.writes);
    }

    #[test]
    fn routing_improves_the_read_tail() {
        let params = RebuildParams::paper_default(42, FaultSpec::scenario("heavy", 42));
        let routed = run_rebuild(&params, None).unwrap();
        let mut un = params.clone();
        un.routing = false;
        let unrouted = run_rebuild(&un, None).unwrap();
        assert!(
            routed.read_p99_us < unrouted.read_p99_us,
            "routing must improve p99: routed {} vs unrouted {}",
            routed.read_p99_us,
            unrouted.read_p99_us
        );
        assert_ne!(routed.route_digest, unrouted.route_digest);
    }

    #[test]
    fn trace_sink_sees_routes_and_chunks() {
        let params = RebuildParams::small(5, FaultSpec::scenario("light", 5));
        let mut sink = TraceSink::new();
        let r = run_rebuild(&params, Some(&mut sink)).unwrap();
        let mut routes = 0u64;
        let mut chunks = 0u64;
        for e in sink.events() {
            match e {
                TraceEvent::ReplicaRoute { .. } => routes += 1,
                TraceEvent::RebuildChunk { .. } => chunks += 1,
                _ => {}
            }
        }
        assert_eq!(routes, r.reads);
        assert_eq!(chunks, r.rebuild_chunks);
    }

    #[test]
    fn bad_geometry_is_rejected() {
        let mut params = RebuildParams::small(1, None);
        params.placement.spares = 0;
        assert!(matches!(
            run_rebuild(&params, None),
            Err(RebuildError::Config {
                field: "spares",
                ..
            })
        ));
        let mut params = RebuildParams::small(1, None);
        params.placement.replicas = 1;
        assert!(matches!(
            run_rebuild(&params, None),
            Err(RebuildError::Config {
                field: "replicas",
                ..
            })
        ));
    }
}
