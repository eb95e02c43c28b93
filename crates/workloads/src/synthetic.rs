//! A keyed, data-dependent workload stream.
//!
//! The six named applications fix their shapes to match the paper's
//! descriptions, and their accesses follow loop bounds the compiler can
//! see. The stream here draws its keys from a seeded RNG instead, for
//! comparing the compile-time, online and hybrid decision layers
//! (`repro online`) on a workload the compiler cannot see into.

use sdds_compiler::ir::{IoDirection, Program};
use sdds_storage::FileId;
use simkit::{DetRng, SimDuration, StreamId};

/// One stripe (Table II).
const STRIPE: i64 = 64 * 1024;

/// A DBMS-style keyed workload: each process owns a shard of a keyed
/// store and issues point reads/updates whose keys follow a zipfian hot
/// set, with the inter-operation gap swinging on a diurnal cycle.
///
/// The access pattern is *data-dependent* — the key sequence comes from
/// a seeded RNG, not a loop bound — which is exactly the workload class the paper's
/// compile-time scheme cannot see. It exists to compare the compile-time,
/// online and hybrid decision layers on equal footing: the generated
/// program is still a loop nest (one single-iteration loop per
/// operation), so the compiler can schedule it, but nothing about the
/// key distribution is declared to it.
///
/// The diurnal swing is a triangle wave (no floating-point
/// transcendentals, so the trace is bit-identical across platforms):
/// over one `diurnal_period` of operations the gap ramps from
/// `base_gap * (1 - amplitude)` up to `base_gap * (1 + amplitude)` and
/// back.
///
/// # Example
///
/// ```
/// use sdds_workloads::KeyedWorkloadSpec;
/// use sdds_compiler::SlotGranularity;
///
/// let trace = KeyedWorkloadSpec::zipfian_hot_set(42)
///     .program()
///     .trace(SlotGranularity::unit())
///     .unwrap();
/// assert!(trace.io_count() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedWorkloadSpec {
    /// Number of client processes (shards).
    pub procs: usize,
    /// Distinct keys per shard; each key maps to one stripe-sized record.
    pub keys: u64,
    /// Operations issued per process.
    pub ops_per_proc: u32,
    /// Zipfian skew exponent θ (> 0); higher concentrates the hot set.
    pub zipf_theta: f64,
    /// Fraction of operations that are reads (the rest update in place).
    pub read_fraction: f64,
    /// Mean inter-operation think time.
    pub base_gap: SimDuration,
    /// Operations per diurnal cycle (0 disables the swing).
    pub diurnal_period: u32,
    /// Peak-to-mean swing of the diurnal cycle, in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// RNG seed for the key and read/write draws.
    pub seed: u64,
}

impl KeyedWorkloadSpec {
    /// A skew-dominated preset: a tight zipfian hot set at a steady load
    /// — most idle gaps look alike, so learned predictions converge fast.
    pub fn zipfian_hot_set(seed: u64) -> Self {
        KeyedWorkloadSpec {
            procs: 8,
            keys: 512,
            ops_per_proc: 96,
            zipf_theta: 1.1,
            read_fraction: 0.8,
            base_gap: SimDuration::from_secs(8),
            diurnal_period: 0,
            diurnal_amplitude: 0.0,
            seed,
        }
    }

    /// A load-swing preset: moderate skew with the think time ramping
    /// between 2 s and 38 s over each simulated "day" — the idle
    /// distribution is bimodal, so a single fixed timeout fits neither
    /// half.
    pub fn diurnal(seed: u64) -> Self {
        KeyedWorkloadSpec {
            procs: 8,
            keys: 512,
            ops_per_proc: 96,
            zipf_theta: 0.9,
            read_fraction: 0.7,
            base_gap: SimDuration::from_secs(20),
            diurnal_period: 24,
            diurnal_amplitude: 0.9,
            seed,
        }
    }

    /// The per-operation think time at operation index `n`.
    fn gap_at(&self, n: u32) -> SimDuration {
        if self.diurnal_period == 0 || self.diurnal_amplitude == 0.0 {
            return self.base_gap;
        }
        let phase = n % self.diurnal_period;
        let half = (self.diurnal_period / 2).max(1);
        // Triangle wave in [-1, 1]: trough at phase 0, peak at mid-cycle.
        let tri = if phase < half {
            -1.0 + 2.0 * f64::from(phase) / f64::from(half)
        } else {
            1.0 - 2.0 * f64::from(phase - half) / f64::from(half)
        };
        self.base_gap.mul_f64(1.0 + self.diurnal_amplitude * tri)
    }

    /// Builds the keyed program: one single-iteration loop per operation
    /// (the op's I/O plus service time), followed by one I/O-free slot
    /// holding the think time.
    ///
    /// # Panics
    ///
    /// Panics if `procs`, `keys` or `ops_per_proc` is zero, `zipf_theta`
    /// is not positive, or `read_fraction`/`diurnal_amplitude` fall
    /// outside `[0, 1]`/`[0, 1)`.
    pub fn program(&self) -> Program {
        assert!(self.procs > 0, "at least one process");
        assert!(self.keys > 0, "at least one key");
        assert!(self.ops_per_proc > 0, "at least one operation");
        assert!(
            self.zipf_theta > 0.0 && self.zipf_theta.is_finite(),
            "zipf_theta must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read_fraction must be in [0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&self.diurnal_amplitude),
            "diurnal_amplitude must be in [0, 1)"
        );

        // Zipfian CDF over keys: weight(k) ∝ 1 / (k + 1)^θ.
        let mut cdf = Vec::with_capacity(self.keys as usize);
        let mut total = 0.0f64;
        for k in 0..self.keys {
            total += 1.0 / ((k + 1) as f64).powf(self.zipf_theta);
            cdf.push(total);
        }

        let mut rng = DetRng::for_stream(self.seed, StreamId::Workload).substream("keyed");
        let shard = self.keys as i64 * STRIPE;
        let service = SimDuration::from_millis(50);

        let mut p = Program::new("keyed", self.procs);
        let file = p.add_file(FileId(0), (self.procs as i64 * shard) as u64);
        for n in 0..self.ops_per_proc {
            let u = rng.unit_f64() * total;
            let key = cdf.partition_point(|&c| c < u).min(self.keys as usize - 1) as i64;
            let dir = if rng.unit_f64() < self.read_fraction {
                IoDirection::Read
            } else {
                IoDirection::Write
            };
            let gap = self.gap_at(n);
            p.push_loop("i", 0, 0, move |b| {
                b.io(
                    dir,
                    file,
                    |e| e.term("p", shard).plus(key * STRIPE),
                    STRIPE as u64,
                );
                b.compute(service);
                b.skip(1, gap);
            });
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_compiler::{analyze_slacks, SlotGranularity};
    use sdds_storage::StripingLayout;

    #[test]
    fn keyed_program_is_deterministic() {
        let a = KeyedWorkloadSpec::zipfian_hot_set(42).program();
        let b = KeyedWorkloadSpec::zipfian_hot_set(42).program();
        assert_eq!(a, b);
        let c = KeyedWorkloadSpec::zipfian_hot_set(43).program();
        assert_ne!(a, c, "the seed must steer the key sequence");
    }

    #[test]
    fn keyed_trace_shape_matches_spec() {
        let spec = KeyedWorkloadSpec::zipfian_hot_set(7);
        let trace = spec.program().trace(SlotGranularity::unit()).unwrap();
        assert_eq!(trace.processes.len(), spec.procs);
        assert_eq!(
            trace.io_count(),
            spec.procs * spec.ops_per_proc as usize,
            "one access per operation per process"
        );
        // One I/O slot plus one think-time slot per operation.
        assert_eq!(trace.total_slots, 2 * spec.ops_per_proc);
    }

    #[test]
    fn keyed_hot_set_is_skewed() {
        let spec = KeyedWorkloadSpec::zipfian_hot_set(1);
        let trace = spec.program().trace(SlotGranularity::unit()).unwrap();
        // Count distinct offsets touched by process 0: a zipfian draw of
        // 96 ops over 512 keys lands well under half the key space.
        let mut offsets: Vec<u64> = trace.processes[0].ios.iter().map(|io| io.offset).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert!(
            offsets.len() < spec.ops_per_proc as usize / 2,
            "expected a concentrated hot set, saw {} distinct keys",
            offsets.len()
        );
    }

    #[test]
    fn keyed_diurnal_swings_the_gaps() {
        let spec = KeyedWorkloadSpec::diurnal(5);
        let trace = spec.program().trace(SlotGranularity::unit()).unwrap();
        let gaps: Vec<SimDuration> = trace.processes[0]
            .compute
            .iter()
            .copied()
            .filter(|d| *d > SimDuration::from_millis(100))
            .collect();
        let lo = gaps.iter().copied().min().unwrap();
        let hi = gaps.iter().copied().max().unwrap();
        assert!(
            hi.as_secs_f64() > 4.0 * lo.as_secs_f64(),
            "diurnal swing should spread the think time: {lo} .. {hi}"
        );
    }

    #[test]
    fn keyed_program_schedules() {
        use sdds_compiler::SchedulerConfig;
        let trace = KeyedWorkloadSpec::zipfian_hot_set(3)
            .program()
            .trace(SlotGranularity::unit())
            .unwrap();
        let accesses = analyze_slacks(&trace, &StripingLayout::paper_defaults()).unwrap();
        let table = SchedulerConfig::paper_defaults()
            .schedule(&accesses, &trace)
            .unwrap();
        assert_eq!(table.scheduled_count(), accesses.len());
        assert!(table.moved_earlier() > 0, "reads have slack to exploit");
    }
}
