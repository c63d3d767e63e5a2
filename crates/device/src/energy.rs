//! TDP-based energy model — the paper's stated future work.
//!
//! §V-C3: *"From the point of view of power consumption we would suggest
//! that it seems appropriate to explore others configurations with lower
//! consumption since the TDP on Intel's Xeon chip is 120 watts meanwhile
//! the Xeon-Phi is 240 watts … As future work we are considering
//! undertaking this study."* — this module undertakes it.
//!
//! The model is the standard first-order one used in post-hoc accelerator
//! studies: a device draws `idle_fraction × TDP` when idle and full TDP
//! when busy. Energy of a heterogeneous run integrates both devices over
//! the wall-clock of the run.

use crate::model::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Fraction of TDP drawn at idle (clock-gated but powered).
pub const IDLE_FRACTION: f64 = 0.3;

/// Energy accounting for one device over one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceEnergy {
    /// Seconds the device was computing.
    pub busy_s: f64,
    /// Seconds the device sat idle within the run's wall-clock.
    pub idle_s: f64,
    /// Joules consumed.
    pub joules: f64,
}

/// Compute the energy a device draws during a run of `wall_s` seconds of
/// which it was busy for `busy_s`.
///
/// # Panics
/// Panics if `busy_s > wall_s` (beyond rounding) or either is negative.
pub fn device_energy(device: &DeviceSpec, busy_s: f64, wall_s: f64) -> DeviceEnergy {
    assert!(busy_s >= 0.0 && wall_s >= 0.0, "times must be non-negative");
    assert!(
        busy_s <= wall_s * (1.0 + 1e-9),
        "busy time cannot exceed wall time"
    );
    let idle_s = (wall_s - busy_s).max(0.0);
    let joules = device.tdp_watts * (busy_s + IDLE_FRACTION * idle_s);
    DeviceEnergy {
        busy_s,
        idle_s,
        joules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn busy_device_draws_full_tdp() {
        let phi = presets::xeon_phi_60c();
        let e = device_energy(&phi, 10.0, 10.0);
        assert!((e.joules - 2400.0).abs() < 1e-6);
        assert_eq!(e.idle_s, 0.0);
    }

    #[test]
    fn idle_device_draws_idle_fraction() {
        let xeon = presets::xeon_e5_2670_pair();
        let e = device_energy(&xeon, 0.0, 10.0);
        assert!((e.joules - 240.0 * 0.3 * 10.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "busy time cannot exceed")]
    fn busy_beyond_wall_rejected() {
        device_energy(&presets::xeon_phi_60c(), 11.0, 10.0);
    }

    #[test]
    fn cpu_only_beats_hetero_in_efficiency_when_phi_idles() {
        // The paper's hypothesis: per-watt, configurations matter. A
        // CPU-only run (Phi fully idle) vs a balanced run.
        let xeon = presets::xeon_e5_2670_pair();
        let phi = presets::xeon_phi_60c();
        // CPU-only: 30.4 GCUPS, Phi idles.
        let wall_cpu = 100.0;
        let cpu_only = device_energy(&xeon, wall_cpu, wall_cpu).joules
            + device_energy(&phi, 0.0, wall_cpu).joules;
        // Hetero: 62.6 GCUPS over 48.6 s for the same work.
        let wall_het = 3_040_000_000_000.0 / 62.6e9;
        let hetero = device_energy(&xeon, wall_het, wall_het).joules
            + device_energy(&phi, wall_het * 0.95, wall_het).joules;
        // Hetero finishes 2× sooner; with the Phi's TDP that still wins
        // energy (and, the cells being equal, GCUPS per watt) here because
        // the idle Phi burns 30 % TDP anyway.
        assert!(hetero < cpu_only);
    }
}
