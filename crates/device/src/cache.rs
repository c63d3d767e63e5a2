//! Working-set spill model — the mechanism behind the blocking study
//! (Fig. 7).
//!
//! The unblocked inter-task kernel keeps two `M`-long vector columns live
//! (`H` and `F`): `4·M·L` bytes, touched once per subject position. While
//! that fits the per-core L2, every access hits; once it spills, a
//! fraction of accesses stream from the next level — the 20 MB L3 on the
//! Xeon (mild penalty) or GDDR5 on the Phi (no L3: severe penalty).
//!
//! The model is deliberately first-order: the *spill fraction* is the
//! share of the working set that cannot be cache-resident, and each
//! spilled vector iteration pays the device's `spill_penalty_cpv` extra
//! cycles. Blocked kernels size their tile so the working set always
//! fits (see `sw_kernels::intertask::block_rows_for_cache`), eliminating
//! the term.

use crate::model::DeviceSpec;

/// Working set of the unblocked kernel for a query of `m` residues at
/// `lanes` lanes: H + F columns of i16 vectors.
pub fn working_set_bytes(m: usize, lanes: usize) -> u64 {
    (4 * m * lanes) as u64
}

/// Fraction of DP accesses that spill past L2 (0.0 when the working set
/// fits; asymptotically approaches 1 as the set grows).
///
/// `threads_sharing` is the number of hardware threads resident on the
/// core: they *share* the L2, so each thread's effective capacity is
/// `l2 / threads_sharing`. This is why the Phi (4 threads/core on
/// 512 KB) starts spilling at much shorter queries than its nominal L2
/// size suggests — and a second reason Fig. 7 hits it harder.
pub fn spill_fraction(device: &DeviceSpec, working_set: u64, threads_sharing: u32) -> f64 {
    let l2 = device.l2_bytes as u64 / threads_sharing.max(1) as u64;
    if working_set <= l2 {
        0.0
    } else {
        (working_set - l2) as f64 / working_set as f64
    }
}

/// Extra cycles per vector iteration charged to the unblocked kernel.
pub fn spill_extra_cpv(
    device: &DeviceSpec,
    m: usize,
    lanes: usize,
    threads_sharing: u32,
    penalty_cpv: f64,
) -> f64 {
    let f = spill_fraction(device, working_set_bytes(m, lanes), threads_sharing);
    // With an LLC behind L2 (Xeon), half the penalty is absorbed there;
    // without one (Phi), the full penalty applies.
    let absorb = if device.llc_bytes > 0 { 0.5 } else { 1.0 };
    f * penalty_cpv * absorb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn working_set_formula() {
        // Paper's longest query at Phi lanes: 5478 × 32 × 4 = 701 184 B.
        assert_eq!(working_set_bytes(5478, 32), 701_184);
        // Same query at Xeon lanes: 350 592 B.
        assert_eq!(working_set_bytes(5478, 16), 350_592);
    }

    #[test]
    fn short_queries_never_spill() {
        let xeon = presets::xeon_e5_2670_pair();
        let phi = presets::xeon_phi_60c();
        // The paper's shortest query (144) fits both devices easily, even
        // with every hardware thread resident.
        assert_eq!(spill_fraction(&xeon, working_set_bytes(144, 16), 2), 0.0);
        assert_eq!(spill_fraction(&phi, working_set_bytes(144, 32), 4), 0.0);
    }

    #[test]
    fn long_queries_spill_both_devices() {
        let xeon = presets::xeon_e5_2670_pair();
        let phi = presets::xeon_phi_60c();
        let fx = spill_fraction(&xeon, working_set_bytes(5478, 16), 2);
        let fp = spill_fraction(&phi, working_set_bytes(5478, 32), 4);
        assert!(fx > 0.5 && fx < 0.75, "xeon spill {fx}");
        assert!(fp > 0.7 && fp < 0.9, "phi spill {fp}");
    }

    #[test]
    fn l2_sharing_advances_the_spill_point() {
        // 4 threads/core quarter the per-thread capacity: a query that
        // fits a lone thread spills when siblings are resident.
        let phi = presets::xeon_phi_60c();
        let m = 3000; // 4·3000·32 = 384 KB < 512 KB but > 128 KB
        assert_eq!(spill_fraction(&phi, working_set_bytes(m, 32), 1), 0.0);
        assert!(spill_fraction(&phi, working_set_bytes(m, 32), 4) > 0.5);
    }

    #[test]
    fn phi_pays_more_than_xeon_for_same_spill() {
        // Fig. 7's asymmetry: the Phi has no LLC and a larger per-miss
        // penalty.
        let xeon = presets::xeon_e5_2670_pair();
        let phi = presets::xeon_phi_60c();
        let x = spill_extra_cpv(&xeon, 5478, 16, 2, presets::xeon_costs().spill_penalty_cpv);
        let p = spill_extra_cpv(&phi, 5478, 32, 4, presets::phi_costs().spill_penalty_cpv);
        assert!(p > 3.0 * x, "phi extra {p} must dwarf xeon extra {x}");
    }

    #[test]
    fn spill_fraction_monotone() {
        let phi = presets::xeon_phi_60c();
        let mut last = -1.0;
        for m in [100, 1000, 4000, 5478, 20000, 35213] {
            let f = spill_fraction(&phi, working_set_bytes(m, 32), 4);
            assert!(f >= last);
            assert!(f < 1.0);
            last = f;
        }
    }
}
