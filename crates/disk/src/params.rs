//! Disk configuration: geometry, timing and power parameters.
//!
//! Defaults reproduce Table II of the paper: a 100 GB server disk spinning
//! at 12 000 RPM with speed levels down to 3 600 RPM in 1 200 RPM steps,
//! 16 s spin-up / 10 s spin-down, and the wattages listed there.

use crate::error::DiskError;
use simkit::SimDuration;

/// A rotational speed in revolutions per minute.
///
/// # Example
///
/// ```
/// use sdds_disk::Rpm;
///
/// let r = Rpm::new(12_000);
/// assert_eq!(r.rotation_period().as_millis(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rpm(u32);

impl Rpm {
    /// Creates a rotational speed.
    ///
    /// # Panics
    ///
    /// Panics if `rpm` is zero.
    pub const fn new(rpm: u32) -> Self {
        assert!(rpm > 0, "rotational speed must be positive");
        Rpm(rpm)
    }

    /// The speed as a raw RPM count.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Duration of one full platter rotation at this speed.
    pub fn rotation_period(self) -> SimDuration {
        // 60 s/min => period_us = 60e6 / rpm.
        SimDuration::from_micros(60_000_000 / self.0 as u64)
    }
}

impl std::fmt::Display for Rpm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} RPM", self.0)
    }
}

/// Piecewise seek-time curve calibrated from three published data points
/// (single-cylinder, average and full-stroke seek), following the classic
/// Ruemmler–Wilkes model: `a + b·√d` for short seeks and `c + e·d` for long
/// ones.
#[derive(Debug, Clone, PartialEq)]
pub struct SeekModel {
    /// Seek time for a single-cylinder move.
    pub single: SimDuration,
    /// Average seek time (assumed to occur at one-third of full stroke).
    pub average: SimDuration,
    /// Full-stroke seek time.
    pub full: SimDuration,
    /// Total number of cylinders.
    pub cylinders: u32,
}

impl SeekModel {
    /// Seek time for moving the arm across `distance` cylinders.
    ///
    /// Returns zero for a zero-distance "seek" (track switch costs are folded
    /// into the rotational latency term).
    pub fn seek_time(&self, distance: u32) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let d = distance as f64;
        let cyl = self.cylinders.max(1) as f64;
        let boundary = cyl / 3.0;
        let t_single = self.single.as_secs_f64();
        let t_avg = self.average.as_secs_f64();
        let t_full = self.full.as_secs_f64();
        let secs = if d <= boundary {
            // a + b*sqrt(d) passing through (1, single) and (cyl/3, average).
            let b = (t_avg - t_single) / (boundary.sqrt() - 1.0);
            let a = t_single - b;
            a + b * d.sqrt()
        } else {
            // c + e*d passing through (cyl/3, average) and (cyl, full).
            let e = (t_full - t_avg) / (cyl - boundary);
            let c = t_avg - e * boundary;
            c + e * d
        };
        SimDuration::from_secs_f64(secs.max(0.0))
    }
}

/// Full configuration of one simulated disk.
///
/// Construct with [`DiskParams::paper_defaults`] and adjust fields, or build
/// a custom configuration and let [`DiskParams::validate`] check its
/// consistency.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    // --- Geometry ---
    /// Bytes per sector.
    pub sector_bytes: u32,
    /// Sectors per track (assumed uniform; zoning is not modeled).
    pub sectors_per_track: u32,
    /// Tracks per cylinder (number of recording surfaces).
    pub heads: u32,
    /// Number of cylinders.
    pub cylinders: u32,

    // --- Timing ---
    /// Seek-time curve.
    pub seek: SeekModel,
    /// Fastest (nominal) rotational speed.
    pub max_rpm: Rpm,
    /// Slowest supported rotational speed (equal to `max_rpm` for a
    /// single-speed disk).
    pub min_rpm: Rpm,
    /// Difference between adjacent speed levels.
    pub rpm_step: u32,
    /// Time to change speed by one `rpm_step`.
    pub rpm_change_per_step: SimDuration,
    /// Time to spin down from any speed to standby.
    pub spin_down_time: SimDuration,
    /// Time to spin up from standby to `max_rpm`.
    pub spin_up_time: SimDuration,
    /// Controller + bus overhead added to every request.
    pub controller_overhead: SimDuration,
    /// Bus bandwidth in bytes per second (Ultra-3 SCSI: 160 MB/s).
    pub bus_bytes_per_sec: u64,

    // --- Power (watts), all quoted at `max_rpm` ---
    /// Power while idle at full speed.
    pub idle_power: f64,
    /// Power while reading or writing at full speed.
    pub active_power: f64,
    /// Power while seeking at full speed.
    pub seek_power: f64,
    /// Power in standby (spun down).
    pub standby_power: f64,
    /// Power while spinning up (also used while accelerating between speed
    /// levels, scaled by the fraction of the speed range being crossed).
    pub spin_up_power: f64,
    /// Power while spinning down / decelerating (coasting).
    pub spin_down_power: f64,
    /// Non-spindle electronics floor subtracted before applying the
    /// quadratic spindle model of Eq. 1.
    pub electronics_power: f64,
}

impl DiskParams {
    /// The configuration of Table II: a 100 GB, 12 000 RPM disk with
    /// multi-speed support down to 3 600 RPM in 1 200 RPM steps.
    pub fn paper_defaults() -> Self {
        DiskParams {
            sector_bytes: 512,
            sectors_per_track: 600,
            heads: 4,
            // 100 GB / (512 B * 600 spt * 4 heads) ~= 81,380 cylinders.
            cylinders: 81_380,
            seek: SeekModel {
                single: SimDuration::from_micros(800),
                average: SimDuration::from_micros(4_700),
                full: SimDuration::from_micros(10_000),
                cylinders: 81_380,
            },
            max_rpm: Rpm::new(12_000),
            min_rpm: Rpm::new(3_600),
            rpm_step: 1_200,
            rpm_change_per_step: SimDuration::from_millis(100),
            spin_down_time: SimDuration::from_secs(10),
            spin_up_time: SimDuration::from_secs(16),
            controller_overhead: SimDuration::from_micros(300),
            bus_bytes_per_sec: 160_000_000,
            idle_power: 17.1,
            active_power: 36.6,
            seek_power: 32.1,
            standby_power: 7.2,
            spin_up_power: 44.8,
            spin_down_power: 7.2,
            electronics_power: 2.5,
        }
    }

    /// A single-speed variant of the paper configuration (spin-down only).
    pub fn paper_single_speed() -> Self {
        let mut p = Self::paper_defaults();
        p.min_rpm = p.max_rpm;
        p
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sector_bytes as u64
            * self.sectors_per_track as u64
            * self.heads as u64
            * self.cylinders as u64
    }

    /// Total number of sectors.
    pub fn total_sectors(&self) -> u64 {
        self.sectors_per_track as u64 * self.heads as u64 * self.cylinders as u64
    }

    /// Sectors per cylinder (all heads).
    pub fn sectors_per_cylinder(&self) -> u64 {
        self.sectors_per_track as u64 * self.heads as u64
    }

    /// The cylinder holding logical sector `lba` (clamped to the last
    /// cylinder for out-of-range addresses).
    pub fn cylinder_of(&self, lba: u64) -> u32 {
        ((lba / self.sectors_per_cylinder()) as u32).min(self.cylinders.saturating_sub(1))
    }

    /// The supported speed levels in increasing order, `min_rpm` up to
    /// `max_rpm` in `rpm_step` increments.
    pub fn rpm_levels(&self) -> Vec<Rpm> {
        let mut levels = Vec::new();
        let mut r = self.min_rpm.get();
        while r < self.max_rpm.get() {
            levels.push(Rpm::new(r));
            r += self.rpm_step;
        }
        levels.push(self.max_rpm);
        levels
    }

    /// Time to change between two speed levels (proportional to the number
    /// of `rpm_step`s crossed, rounding up).
    pub fn rpm_change_time(&self, from: Rpm, to: Rpm) -> SimDuration {
        let delta = from.get().abs_diff(to.get());
        if delta == 0 {
            return SimDuration::ZERO;
        }
        let steps = delta.div_ceil(self.rpm_step.max(1));
        self.rpm_change_per_step * steps as u64
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`DiskError`]:
    /// non-positive geometry, inverted speed range, a speed range not
    /// divisible by the step, or non-positive power values.
    pub fn validate(&self) -> Result<(), DiskError> {
        for (field, v) in [
            ("sector_bytes", self.sector_bytes),
            ("sectors_per_track", self.sectors_per_track),
            ("heads", self.heads),
            ("cylinders", self.cylinders),
        ] {
            if v == 0 {
                return Err(DiskError::Geometry { field });
            }
        }
        if self.min_rpm > self.max_rpm {
            return Err(DiskError::SpeedRange {
                min: self.min_rpm,
                max: self.max_rpm,
            });
        }
        if self.min_rpm != self.max_rpm {
            if self.rpm_step == 0 {
                return Err(DiskError::ZeroRpmStep);
            }
            if !(self.max_rpm.get() - self.min_rpm.get()).is_multiple_of(self.rpm_step) {
                return Err(DiskError::SpeedStep {
                    min: self.min_rpm,
                    max: self.max_rpm,
                    step: self.rpm_step,
                });
            }
        }
        if self.bus_bytes_per_sec == 0 {
            return Err(DiskError::ZeroBusBandwidth);
        }
        for (field, w) in [
            ("idle_power", self.idle_power),
            ("active_power", self.active_power),
            ("seek_power", self.seek_power),
            ("standby_power", self.standby_power),
            ("spin_up_power", self.spin_up_power),
            ("spin_down_power", self.spin_down_power),
            ("electronics_power", self.electronics_power),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(DiskError::Power { field, value: w });
            }
        }
        if self.electronics_power >= self.idle_power {
            return Err(DiskError::ElectronicsFloor {
                electronics: self.electronics_power,
                idle: self.idle_power,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        DiskParams::paper_defaults().validate().unwrap();
        DiskParams::paper_single_speed().validate().unwrap();
    }

    #[test]
    fn capacity_close_to_100gb() {
        let p = DiskParams::paper_defaults();
        let gb = p.capacity_bytes() as f64 / 1e9;
        assert!((gb - 100.0).abs() < 1.0, "capacity {gb} GB");
    }

    #[test]
    fn rotation_period_at_speeds() {
        assert_eq!(Rpm::new(12_000).rotation_period().as_millis(), 5);
        assert_eq!(Rpm::new(3_600).rotation_period().as_micros(), 16_666);
    }

    #[test]
    fn rpm_levels_cover_range() {
        let p = DiskParams::paper_defaults();
        let levels = p.rpm_levels();
        assert_eq!(levels.len(), 8); // 3600,4800,...,12000
        assert_eq!(levels[0], Rpm::new(3_600));
        assert_eq!(*levels.last().unwrap(), Rpm::new(12_000));
        assert!(levels.windows(2).all(|w| w[1].get() - w[0].get() == 1_200));
    }

    #[test]
    fn single_speed_has_one_level() {
        let p = DiskParams::paper_single_speed();
        assert_eq!(p.rpm_levels(), vec![Rpm::new(12_000)]);
    }

    #[test]
    fn seek_time_monotone_and_anchored() {
        let p = DiskParams::paper_defaults();
        assert_eq!(p.seek.seek_time(0), SimDuration::ZERO);
        let single = p.seek.seek_time(1);
        assert_eq!(single, p.seek.single);
        let avg = p.seek.seek_time(p.cylinders / 3);
        assert!((avg.as_secs_f64() - p.seek.average.as_secs_f64()).abs() < 1e-4);
        let full = p.seek.seek_time(p.cylinders);
        assert!((full.as_secs_f64() - p.seek.full.as_secs_f64()).abs() < 1e-4);
        // Monotone over a sample of distances.
        let mut last = SimDuration::ZERO;
        for d in [1, 10, 100, 1_000, 10_000, 27_000, 50_000, 81_380] {
            let t = p.seek.seek_time(d);
            assert!(t >= last, "seek curve decreased at distance {d}");
            last = t;
        }
    }

    #[test]
    fn rpm_change_time_scales_with_steps() {
        let p = DiskParams::paper_defaults();
        let one = p.rpm_change_time(Rpm::new(12_000), Rpm::new(10_800));
        let seven = p.rpm_change_time(Rpm::new(12_000), Rpm::new(3_600));
        assert_eq!(one, p.rpm_change_per_step);
        assert_eq!(seven, p.rpm_change_per_step * 7);
        assert_eq!(
            p.rpm_change_time(Rpm::new(4_800), Rpm::new(4_800)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cylinder_of_clamps() {
        let p = DiskParams::paper_defaults();
        assert_eq!(p.cylinder_of(0), 0);
        assert_eq!(p.cylinder_of(u64::MAX), p.cylinders - 1);
        let mid = p.total_sectors() / 2;
        let c = p.cylinder_of(mid);
        assert!(c > 0 && c < p.cylinders);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut p = DiskParams::paper_defaults();
        p.min_rpm = Rpm::new(13_000);
        assert!(p.validate().is_err());

        let mut p = DiskParams::paper_defaults();
        p.rpm_step = 1_000; // 8400 not divisible
        assert!(p.validate().is_err());

        let mut p = DiskParams::paper_defaults();
        p.electronics_power = 20.0;
        assert!(p.validate().is_err());

        let mut p = DiskParams::paper_defaults();
        p.idle_power = f64::NAN;
        assert!(p.validate().is_err());

        let mut p = DiskParams::paper_defaults();
        p.heads = 0;
        assert!(p.validate().is_err());
    }
}
