//! Device presets — the paper's testbed (§V-A) plus comparison points.

use crate::model::{DeviceSpec, PcieLink};
use crate::perfmodel::KernelCosts;

/// The paper's host: 2× Intel Xeon E5-2670, 8 cores each @ 2.60 GHz with
/// Hyper-Threading (16C/32T total), AVX, 32 GB RAM.
///
/// * `smt_issue_eff[1] = 1.6`: the paper reports parallel efficiency
///   falling from 88 % at 16 threads to 70 % at 32 — i.e. HT adds ~60 %
///   per-core throughput on this memory-bound kernel.
/// * `contention_per_core = 0.008`: reproduces the 99 % → 88 % efficiency
///   slide between 4 and 16 threads.
/// * TDP: the paper quotes "120 watts" per Xeon chip (§V-C3) — 240 W for
///   the pair.
pub fn xeon_e5_2670_pair() -> DeviceSpec {
    DeviceSpec {
        name: "2x Xeon E5-2670".into(),
        cores: 16,
        smt: 2,
        freq_ghz: 2.6,
        vector_bits: 256,
        has_gather: false,
        l2_bytes: 256 * 1024,
        llc_bytes: 2 * 20 * 1024 * 1024,
        smt_issue_eff: [1.0, 1.6, 1.6, 1.6],
        contention_per_core: 0.008,
        tdp_watts: 240.0,
        pcie: None,
    }
}

/// The paper's coprocessor: Intel Xeon Phi, 60 cores @ ~1.05 GHz, 4
/// hardware threads/core (240 total), 512-bit vectors, 512 KB L2/core,
/// **no L3**, 5 GB GDDR5, PCIe Gen2.
///
/// * `smt_issue_eff = [0.5, 0.9, 1.0, 1.05]`: the Phi's in-order cores
///   cannot issue from the same thread in consecutive cycles, so a single
///   thread reaches at most half peak; 2+ threads/core fill the pipeline
///   (this is why Fig. 5's x-axis starts at 30 threads and the paper runs
///   240).
/// * TDP: the paper quotes 240 W (§V-C3).
pub fn xeon_phi_60c() -> DeviceSpec {
    DeviceSpec {
        name: "Xeon Phi 60c".into(),
        cores: 60,
        smt: 4,
        freq_ghz: 1.05,
        vector_bits: 512,
        has_gather: true,
        l2_bytes: 512 * 1024,
        llc_bytes: 0,
        smt_issue_eff: [0.5, 0.9, 1.0, 1.05],
        contention_per_core: 0.0008,
        tdp_watts: 240.0,
        pcie: Some(PcieLink::gen2_x16()),
    }
}

/// Kernel cost constants for the Xeon host.
///
/// `cpv_*` = cycles per vector iteration of the inner DP loop (one
/// iteration updates `L = 16` cells); `cps_*` = cycles per cell for the
/// scalar (`no-vec`) code. Calibrated against the paper's Fig. 3/4 peaks:
/// intrinsic-SP 30.4 GCUPS and simd-SP 25.1 GCUPS at 32 threads; the QP
/// variants pay the shuffle-emulated gather (no `vgather` on AVX, §V-C1).
pub fn xeon_costs() -> KernelCosts {
    KernelCosts {
        cps_novec_qp: 31.0,
        cps_novec_sp: 29.0,
        cpv_simd_qp: 52.0,
        cpv_simd_sp: 37.0,
        cpv_intr_qp: 41.0,
        cpv_intr_sp: 31.0,
        sp_build_cyc_per_op: 2.0,
        qp_build_cyc_per_op: 2.0,
        dispatch_overhead_s: 2.0e-6,
        spill_penalty_cpv: 10.0,
    }
}

/// Kernel cost constants for the Phi.
///
/// Calibrated against Fig. 5's 240-thread points: intrinsic-SP 34.9,
/// intrinsic-QP 27.1, simd-SP 14.5, simd-QP 13.6 GCUPS. The in-order core
/// needs more cycles per vector iteration than the Xeon, but carries 32
/// lanes; hardware gather keeps the intrinsic-QP penalty small
/// (74/58 ≈ 1.29× vs the Xeon's 41/31 ≈ 1.32× on half the lanes); guided
/// vectorization lands at ~40 % of intrinsic, matching the paper's
/// "hand-vectorization \[has\] more impact … than in Intel Xeon".
/// `spill_penalty_cpv` is large because an L2 miss goes straight to GDDR5
/// (no L3) — the Fig. 7 asymmetry.
pub fn phi_costs() -> KernelCosts {
    KernelCosts {
        cps_novec_qp: 45.0,
        cps_novec_sp: 42.0,
        cpv_simd_qp: 148.0,
        cpv_simd_sp: 139.0,
        cpv_intr_qp: 74.0,
        cpv_intr_sp: 58.0,
        sp_build_cyc_per_op: 4.0,
        qp_build_cyc_per_op: 4.0,
        dispatch_overhead_s: 4.0e-6,
        spill_penalty_cpv: 60.0,
    }
}

/// A later KNC step: Xeon Phi 7120 (61 cores @ 1.24 GHz) — used by the
/// `future` projection study (§V-C2: *"future coprocessors with more
/// cores and threads per core will provide better GCUPS"*).
pub fn xeon_phi_7120() -> DeviceSpec {
    DeviceSpec {
        name: "Xeon Phi 7120 (KNC)".into(),
        cores: 61,
        smt: 4,
        freq_ghz: 1.24,
        vector_bits: 512,
        has_gather: true,
        l2_bytes: 512 * 1024,
        llc_bytes: 0,
        smt_issue_eff: [0.5, 0.9, 1.0, 1.05],
        contention_per_core: 0.0008,
        tdp_watts: 300.0,
        pcie: Some(PcieLink::gen2_x16()),
    }
}

/// Knights Landing projection: Xeon Phi 7210 — 64 out-of-order cores @
/// 1.3 GHz, two AVX-512 VPUs per core (single-thread issue no longer
/// starves), MCDRAM behind L2, socketed (no PCIe offload needed).
pub fn xeon_phi_knl_7210() -> DeviceSpec {
    DeviceSpec {
        name: "Xeon Phi 7210 (KNL)".into(),
        cores: 64,
        smt: 4,
        freq_ghz: 1.3,
        vector_bits: 512,
        has_gather: true,
        l2_bytes: 512 * 1024,                // 1 MB shared per 2-core tile
        llc_bytes: 16 * 1024 * 1024 * 1024,  // MCDRAM as LLC-like cache
        smt_issue_eff: [1.0, 1.4, 1.5, 1.5], // out-of-order: 1 thread ≈ full issue
        contention_per_core: 0.0008,
        tdp_watts: 215.0,
        pcie: None, // self-hosted
    }
}

/// KNL top bin: Xeon Phi 7290, 72 cores @ 1.5 GHz.
pub fn xeon_phi_knl_7290() -> DeviceSpec {
    DeviceSpec {
        name: "Xeon Phi 7290 (KNL)".into(),
        cores: 72,
        smt: 4,
        freq_ghz: 1.5,
        vector_bits: 512,
        has_gather: true,
        l2_bytes: 512 * 1024,
        llc_bytes: 16 * 1024 * 1024 * 1024,
        smt_issue_eff: [1.0, 1.4, 1.5, 1.5],
        contention_per_core: 0.0008,
        tdp_watts: 245.0,
        pcie: None,
    }
}

/// Cost constants for the KNL projections: the out-of-order core retires
/// the same inner loop in fewer cycles than KNC (dual VPUs, better
/// memory), taken as 0.75× the KNC `cpv`; MCDRAM halves the spill
/// penalty.
pub fn knl_costs() -> KernelCosts {
    let knc = phi_costs();
    KernelCosts {
        cpv_simd_qp: knc.cpv_simd_qp * 0.75,
        cpv_simd_sp: knc.cpv_simd_sp * 0.75,
        cpv_intr_qp: knc.cpv_intr_qp * 0.75,
        cpv_intr_sp: knc.cpv_intr_sp * 0.75,
        cps_novec_qp: knc.cps_novec_qp * 0.6,
        cps_novec_sp: knc.cps_novec_sp * 0.6,
        spill_penalty_cpv: knc.spill_penalty_cpv * 0.5,
        ..knc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shapes() {
        let xeon = xeon_e5_2670_pair();
        assert_eq!(xeon.max_threads(), 32);
        assert!(!xeon.has_gather);
        assert!(xeon.llc_bytes > 0);

        let phi = xeon_phi_60c();
        assert_eq!(phi.max_threads(), 240);
        assert!(phi.has_gather);
        assert_eq!(
            phi.llc_bytes, 0,
            "the Phi has no L3 — Fig. 7 depends on this"
        );
        assert!(phi.pcie.is_some());
    }

    #[test]
    fn cost_orderings_match_paper() {
        for costs in [xeon_costs(), phi_costs()] {
            // intrinsic beats guided, SP beats QP, within each tier.
            assert!(costs.cpv_intr_sp < costs.cpv_intr_qp);
            assert!(costs.cpv_simd_sp < costs.cpv_simd_qp);
            assert!(costs.cpv_intr_sp < costs.cpv_simd_sp);
            assert!(costs.cpv_intr_qp < costs.cpv_simd_qp);
        }
    }

    #[test]
    fn phi_gather_penalty_smaller_relative() {
        // §V-C2: gather hardware keeps the Phi's QP penalty mild in the
        // intrinsic tier relative to what the missing gather costs on Xeon
        // *per lane processed*: compare effective cells/cycle ratios.
        let x = xeon_costs();
        let p = phi_costs();
        let xeon_qp_sp = x.cpv_intr_qp / x.cpv_intr_sp;
        let phi_qp_sp = p.cpv_intr_qp / p.cpv_intr_sp;
        assert!(
            phi_qp_sp < xeon_qp_sp + 0.05,
            "phi {phi_qp_sp} vs xeon {xeon_qp_sp}"
        );
    }

    #[test]
    fn phi_spill_penalty_dominates() {
        assert!(phi_costs().spill_penalty_cpv > 3.0 * xeon_costs().spill_penalty_cpv);
    }
}
