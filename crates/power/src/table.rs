//! The compile-time scheme as a policy: table-driven idle forecasts.
//!
//! The paper's software-directed scheme compiles the application's access
//! pattern into a schedule and derives, for every I/O node, how long each
//! of its idle periods will last. [`TableLookup`] carries exactly those
//! per-node forecasts and consumes one entry per idleness edge — no
//! run-time learning, no timers beyond the forecast's own wake point. It
//! is the proof that the compile-time path is "just another policy" on
//! the unified [`EnergyPolicy`](crate::EnergyPolicy) runtime.

use std::sync::Arc;

use sdds_disk::{Disk, DiskParams, SpindlePowerModel};
use simkit::SimDuration;

use crate::analysis;
use crate::decide::{Decision, EnergyPolicy, PolicyEvent};
use crate::error::PolicyError;

/// Table-driven policy: spends each forecast idle period in the most
/// profitable power state and ramps back just in time for the forecast
/// end.
#[derive(Debug)]
pub struct TableLookup {
    params: DiskParams,
    model: SpindlePowerModel,
    /// Forecast idle-period lengths in microseconds, per node, in
    /// idleness-edge order (the initial at-rest period included).
    forecasts: Arc<Vec<Vec<u64>>>,
    /// This node's row of the table.
    node: usize,
    /// Next unconsumed forecast for this node.
    cursor: usize,
}

impl TableLookup {
    /// Creates the policy for I/O node `node`.
    ///
    /// A node with no row in the table (or a row that runs out) simply
    /// stops acting — a table that under-forecasts degrades to
    /// [`NoPm`](crate::NoPm) behavior rather than misfiring.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] if `params` fails validation.
    pub fn new(
        params: &DiskParams,
        forecasts: Arc<Vec<Vec<u64>>>,
        node: usize,
    ) -> Result<Self, PolicyError> {
        params.validate()?;
        Ok(TableLookup {
            model: SpindlePowerModel::new(params)?,
            params: params.clone(),
            forecasts,
            node,
            cursor: 0,
        })
    }

    /// Forecasts not yet consumed for this node.
    pub fn remaining_forecasts(&self) -> usize {
        self.forecasts
            .get(self.node)
            .map_or(0, |row| row.len().saturating_sub(self.cursor))
    }
}

impl EnergyPolicy for TableLookup {
    fn name(&self) -> &'static str {
        "table-lookup"
    }

    fn snapshot(&self) -> crate::PolicySnapshot {
        crate::PolicySnapshot {
            predicted_idle_us: None,
            // The next unconsumed table entry: the forecast the coming
            // IdleStart decision will act on.
            forecast_us: self
                .forecasts
                .get(self.node)
                .and_then(|row| row.get(self.cursor))
                .copied(),
            mode: Some("table"),
        }
    }

    fn decide(&mut self, event: PolicyEvent, disks: &[Disk], out: &mut Decision) {
        match event {
            PolicyEvent::IdleStart { t } => {
                let forecast = self
                    .forecasts
                    .get(self.node)
                    .and_then(|row| row.get(self.cursor))
                    .copied();
                self.cursor += 1;
                let Some(us) = forecast else {
                    return;
                };
                let idle = SimDuration::from_micros(us);
                let current = disks
                    .first()
                    .and_then(|d| d.current_rpm())
                    .unwrap_or(self.params.max_rpm);
                if self.params.min_rpm < self.params.max_rpm {
                    // Multi-speed hardware: pick the break-even level for
                    // the forecast window and ramp back in time for its
                    // end.
                    let best = analysis::best_level(&self.params, &self.model, current, idle);
                    if best != current {
                        out.slow_down_through(disks, &self.params, current, best, t, idle);
                    }
                } else {
                    out.spin_down_through(disks, &self.params, &self.model, current, t, idle);
                }
            }
            PolicyEvent::Timer { .. } => {
                // The forecast window is closing: restore full readiness.
                out.wake_to_full_speed(disks, self.params.max_rpm);
                out.clear_timer();
            }
            PolicyEvent::RequestArrival { .. } => {
                // Forecast miss (early arrival): the driver has cancelled
                // the wake timer; standby disks spin up on demand.
            }
            // Serve a mispredicted burst at the current speed, ramping back
            // once the queues drain.
            PolicyEvent::AfterSubmit { .. } => out.ramp_up_when_drained(disks, self.params.max_rpm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::drive;
    use sdds_disk::DiskState;
    use simkit::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn table(rows: Vec<Vec<u64>>) -> Arc<Vec<Vec<u64>>> {
        Arc::new(rows)
    }

    #[test]
    fn forecast_long_idle_slows_multi_speed_node() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        // One forecast: a 60 s idle period.
        let mut p = TableLookup::new(&params, table(vec![vec![60_000_000]]), 0).unwrap();
        let wake = drive(&mut p, PolicyEvent::IdleStart { t: t(0) }, &mut disks).unwrap();
        assert!(matches!(disks[0].state(), DiskState::ChangingSpeed { .. }));
        assert!(wake < t(60_000_000), "ramp-back precedes the forecast end");
        disks[0].advance_to(wake);
        drive(&mut p, PolicyEvent::Timer { t: wake }, &mut disks);
        disks[0].advance_to(t(60_000_000));
        assert_eq!(disks[0].current_rpm(), Some(params.max_rpm));
        assert_eq!(p.remaining_forecasts(), 0);
    }

    #[test]
    fn forecast_long_idle_spins_down_single_speed_node() {
        let params = DiskParams::paper_single_speed();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        let mut p = TableLookup::new(&params, table(vec![vec![300_000_000]]), 0).unwrap();
        let wake = drive(&mut p, PolicyEvent::IdleStart { t: t(0) }, &mut disks).unwrap();
        assert_eq!(disks[0].state(), DiskState::SpinningDown);
        disks[0].advance_to(wake);
        drive(&mut p, PolicyEvent::Timer { t: wake }, &mut disks);
        disks[0].advance_to(t(300_000_000));
        assert!(matches!(disks[0].state(), DiskState::Idle { .. }));
    }

    #[test]
    fn short_forecast_does_nothing() {
        let params = DiskParams::paper_single_speed();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        let mut p = TableLookup::new(&params, table(vec![vec![100_000]]), 0).unwrap();
        assert_eq!(
            drive(&mut p, PolicyEvent::IdleStart { t: t(0) }, &mut disks),
            None
        );
        assert_eq!(disks[0].counters().spin_downs, 0);
    }

    #[test]
    fn exhausted_table_degrades_to_no_pm() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        let mut p = TableLookup::new(&params, table(vec![vec![]]), 0).unwrap();
        assert_eq!(
            drive(&mut p, PolicyEvent::IdleStart { t: t(0) }, &mut disks),
            None
        );
        assert_eq!(disks[0].counters().rpm_changes, 0);
        // A node missing from the table entirely behaves the same.
        let mut q = TableLookup::new(&params, table(vec![]), 3).unwrap();
        assert_eq!(
            drive(&mut q, PolicyEvent::IdleStart { t: t(0) }, &mut disks),
            None
        );
    }

    #[test]
    fn forecasts_are_consumed_in_order() {
        let params = DiskParams::paper_defaults();
        let mut disks = vec![Disk::new(params.clone()).unwrap()];
        // First idle period is short (no action), second is long.
        let mut p = TableLookup::new(&params, table(vec![vec![100_000, 60_000_000]]), 0).unwrap();
        assert_eq!(p.remaining_forecasts(), 2);
        drive(&mut p, PolicyEvent::IdleStart { t: t(0) }, &mut disks);
        assert_eq!(disks[0].counters().rpm_changes, 0);
        drive(
            &mut p,
            PolicyEvent::RequestArrival {
                t: t(200_000),
                completed_idle: Some(SimDuration::from_micros(200_000)),
            },
            &mut disks,
        );
        drive(&mut p, PolicyEvent::IdleStart { t: t(300_000) }, &mut disks);
        assert!(matches!(disks[0].state(), DiskState::ChangingSpeed { .. }));
        assert_eq!(p.remaining_forecasts(), 0);
    }
}
