//! The disk power-state machine.

use crate::params::Rpm;

/// The instantaneous operating state of a disk.
///
/// The state determines the power draw (via
/// [`SpindlePowerModel::watts`](crate::SpindlePowerModel::watts)) and
/// whether the disk can serve requests. States that involve platter motion
/// carry the relevant speed so the quadratic power model can be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskState {
    /// Platters spinning at `rpm`, no request in service.
    Idle {
        /// Current rotational speed.
        rpm: Rpm,
    },
    /// Arm moving to the target cylinder at `rpm`.
    Seeking {
        /// Current rotational speed.
        rpm: Rpm,
    },
    /// Heads transferring data (includes rotational-latency wait) at `rpm`.
    Transferring {
        /// Current rotational speed.
        rpm: Rpm,
    },
    /// Platters decelerating to a stop.
    SpinningDown,
    /// Platters stopped; only standby electronics powered.
    Standby,
    /// Platters accelerating from standstill to full speed.
    SpinningUp,
    /// Platters moving between two speed levels.
    ChangingSpeed {
        /// Speed at the start of the transition.
        from: Rpm,
        /// Speed at the end of the transition.
        to: Rpm,
    },
}

impl DiskState {
    /// The rotational speed in this state, or `None` when the platters are
    /// stopped or between speeds.
    pub fn rpm(&self) -> Option<Rpm> {
        match *self {
            DiskState::Idle { rpm }
            | DiskState::Seeking { rpm }
            | DiskState::Transferring { rpm } => Some(rpm),
            _ => None,
        }
    }

    /// A short label for statistics and display.
    pub fn label(&self) -> &'static str {
        match self {
            DiskState::Idle { .. } => "idle",
            DiskState::Seeking { .. } => "seek",
            DiskState::Transferring { .. } => "transfer",
            DiskState::SpinningDown => "spin-down",
            DiskState::Standby => "standby",
            DiskState::SpinningUp => "spin-up",
            DiskState::ChangingSpeed { .. } => "speed-change",
        }
    }
}

impl std::fmt::Display for DiskState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskState::Idle { rpm } => write!(f, "idle@{rpm}"),
            DiskState::Seeking { rpm } => write!(f, "seek@{rpm}"),
            DiskState::Transferring { rpm } => write!(f, "transfer@{rpm}"),
            DiskState::ChangingSpeed { from, to } => write!(f, "speed-change {from}->{to}"),
            other => f.write_str(other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpm_extraction() {
        let r = Rpm::new(4_800);
        assert_eq!(DiskState::Idle { rpm: r }.rpm(), Some(r));
        assert_eq!(DiskState::Seeking { rpm: r }.rpm(), Some(r));
        assert_eq!(DiskState::Transferring { rpm: r }.rpm(), Some(r));
        assert_eq!(DiskState::Standby.rpm(), None);
        assert_eq!(DiskState::SpinningDown.rpm(), None);
        assert_eq!(DiskState::SpinningUp.rpm(), None);
        assert_eq!(
            DiskState::ChangingSpeed {
                from: r,
                to: Rpm::new(6_000)
            }
            .rpm(),
            None
        );
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(DiskState::Standby.label(), "standby");
        let s = DiskState::Idle {
            rpm: Rpm::new(12_000),
        };
        assert_eq!(s.to_string(), "idle@12000 RPM");
    }
}
