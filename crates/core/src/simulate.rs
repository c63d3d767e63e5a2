//! Simulated execution — how the paper's figures are regenerated.
//!
//! Pipeline: task shapes (from real batching arithmetic) → per-task costs
//! (`sw-device`'s calibrated model) → discrete-event schedule replay
//! (`sw-sched`) → GCUPS. The heterogeneous variant additionally runs the
//! offload-runtime simulator so transfers and the `signal`/`wait`
//! synchronisation of Algorithm 2 shape the wall-clock, as in Fig. 8.

use serde::{Deserialize, Serialize};
use sw_device::energy::{device_energy, DeviceEnergy};
use sw_device::offload::OffloadSim;
use sw_device::{CostModel, TaskShape};
use sw_kernels::KernelVariant;
use sw_sched::{simulate, Policy};

/// Configuration of one simulated device run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Kernel variant.
    pub variant: KernelVariant,
    /// Thread count on the device.
    pub threads: u32,
    /// Loop scheduling policy.
    pub policy: Policy,
    /// Workload replicas pooled into one parallel region.
    ///
    /// The paper's Algorithm 1 parallelises over `|Q| × |vD|` — all
    /// (query, batch) pairs of the 20-query evaluation share one loop, so
    /// its GCUPS are steady-state throughput. Simulating a single query in
    /// isolation instead would be bound by the one titin-length batch that
    /// a single (slow) accelerator thread must chew through alone — an
    /// artifact the paper's measurement does not have. `replicas > 1`
    /// pools that many copies of the shape list, reproducing the
    /// steady-state condition.
    pub replicas: u32,
}

impl SimConfig {
    /// The paper's best configuration at `threads` threads (single-query
    /// pool).
    pub fn best(threads: u32) -> Self {
        SimConfig {
            variant: KernelVariant::best(),
            threads,
            policy: Policy::dynamic(),
            replicas: 1,
        }
    }

    /// Steady-state variant: pool `replicas` copies of the workload.
    pub fn streamed(threads: u32, replicas: u32) -> Self {
        SimConfig {
            replicas: replicas.max(1),
            ..Self::best(threads)
        }
    }
}

/// Result of one simulated single-device search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Simulated wall-clock seconds of the alignment loop.
    pub seconds: f64,
    /// Throughput over real cells.
    pub gcups: f64,
    /// Parallel efficiency of the schedule.
    pub efficiency: f64,
    /// Real DP cells processed.
    pub real_cells: u64,
}

/// Simulate one device searching `shapes` under `cfg`.
///
/// Tasks are dispatched longest-first (the LPT rule): with a
/// length-sorted database the natural ascending order would start the
/// giant tail batches *last* and inflate the makespan — no production
/// runtime does that, and dynamic scheduling over a descending queue is
/// the standard fix.
pub fn simulate_search(model: &CostModel, shapes: &[TaskShape], cfg: &SimConfig) -> SimReport {
    let placement = model.device.place_threads(cfg.threads);
    let per_shape: Vec<f64> = shapes
        .iter()
        .map(|s| model.task_seconds(cfg.variant, s, placement))
        .collect();
    let mut costs = Vec::with_capacity(per_shape.len() * cfg.replicas.max(1) as usize);
    for _ in 0..cfg.replicas.max(1) {
        costs.extend_from_slice(&per_shape);
    }
    // LPT dispatch order for dynamic scheduling only. Guided *requires*
    // the natural ascending order of the length-sorted database: its
    // decaying chunk sizes pair large chunks with cheap tasks and small
    // chunks with the expensive tail — descending order would hand one
    // worker a giant first chunk. Static has no dispatch queue to reorder.
    if matches!(cfg.policy, Policy::Dynamic { .. }) {
        costs.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite costs"));
    }
    let sim = simulate(&costs, placement.total_threads() as usize, cfg.policy);
    let real_cells: u64 =
        shapes.iter().map(|s| s.real_cells).sum::<u64>() * cfg.replicas.max(1) as u64;
    let seconds = sim.makespan.max(1e-12);
    SimReport {
        seconds,
        gcups: real_cells as f64 / seconds / 1e9,
        efficiency: sim.efficiency(),
        real_cells,
    }
}

/// Result of one simulated heterogeneous search (Algorithm 2 / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeteroReport {
    /// Wall-clock of the heterogeneous run (host clock at merge time).
    pub seconds: f64,
    /// Combined throughput.
    pub gcups: f64,
    /// Host compute seconds.
    pub cpu_busy_s: f64,
    /// Accelerator busy seconds (transfers + kernel).
    pub accel_busy_s: f64,
    /// Host GCUPS over its own share.
    pub cpu_gcups: f64,
    /// Accelerator GCUPS over its own share.
    pub accel_gcups: f64,
    /// Fraction of cells that ran on the accelerator.
    pub accel_fraction: f64,
    /// Host energy over the run.
    pub cpu_energy: DeviceEnergy,
    /// Accelerator energy over the run.
    pub accel_energy: DeviceEnergy,
}

impl HeteroReport {
    /// Combined GCUPS per watt (average power of both devices).
    pub fn gcups_per_watt(&self) -> f64 {
        let joules = self.cpu_energy.joules + self.accel_energy.joules;
        if joules == 0.0 {
            0.0
        } else {
            self.gcups / (joules / self.seconds)
        }
    }
}

/// Split length-sorted sequence lengths so the suffix (long sequences)
/// holds ≈`fraction_accel` of the total residues; returns
/// `(cpu_lens, accel_lens)`.
pub fn split_lengths(lens: &[u32], fraction_accel: f64) -> (Vec<u32>, Vec<u32>) {
    assert!(
        (0.0..=1.0).contains(&fraction_accel),
        "fraction must be in [0, 1]"
    );
    let mut sorted: Vec<u32> = lens.to_vec();
    sorted.sort_unstable();
    let total: u64 = sorted.iter().map(|&l| l as u64).sum();
    let target = (total as f64 * fraction_accel).round() as u64;
    let mut acc = 0u64;
    let mut split = sorted.len();
    // Walk from the long end until the suffix reaches the target.
    for (i, &l) in sorted.iter().enumerate().rev() {
        if acc >= target {
            break;
        }
        acc += l as u64;
        split = i;
    }
    let accel = sorted.split_off(split);
    (sorted, accel)
}

/// Simulate Algorithm 2: split the database, offload the long-sequence
/// share to the accelerator asynchronously, compute the host share, wait,
/// merge.
///
/// `lens` are the database sequence lengths; shapes are rebuilt per
/// device because lane counts differ (16 on the host, 32 on the Phi).
pub fn simulate_hetero(
    cpu: (&CostModel, &SimConfig),
    accel: (&CostModel, &SimConfig),
    lens: &[u32],
    query_len: usize,
    fraction_accel: f64,
) -> HeteroReport {
    use crate::prepare::shapes_from_lengths;
    let (cpu_model, cpu_cfg) = cpu;
    let (accel_model, accel_cfg) = accel;
    let (cpu_lens, accel_lens) = split_lengths(lens, fraction_accel);

    let cpu_shapes = shapes_from_lengths(&cpu_lens, cpu_model.device.lanes_i16(), query_len);
    let accel_shapes = shapes_from_lengths(&accel_lens, accel_model.device.lanes_i16(), query_len);

    let cpu_report = if cpu_shapes.is_empty() {
        SimReport {
            seconds: 0.0,
            gcups: 0.0,
            efficiency: 1.0,
            real_cells: 0,
        }
    } else {
        simulate_search(cpu_model, &cpu_shapes, cpu_cfg)
    };
    let accel_report = if accel_shapes.is_empty() {
        SimReport {
            seconds: 0.0,
            gcups: 0.0,
            efficiency: 1.0,
            real_cells: 0,
        }
    } else {
        simulate_search(accel_model, &accel_shapes, accel_cfg)
    };

    // Offload runtime: ship the accelerator's residues + query, get the
    // score list back (4 B per sequence).
    let link = accel_model
        .device
        .pcie
        .unwrap_or_else(sw_device::PcieLink::gen2_x16);
    let mut sim = OffloadSim::new(link);
    let in_bytes: u64 = accel_lens.iter().map(|&l| l as u64).sum::<u64>() + query_len as u64;
    let out_bytes = 4 * accel_lens.len() as u64;
    let sig = if accel_report.real_cells > 0 {
        Some(sim.offload_async(in_bytes, accel_report.seconds, out_bytes, "accel share"))
    } else {
        None
    };
    if cpu_report.real_cells > 0 {
        sim.host_compute(cpu_report.seconds, "cpu share");
    }
    if let Some(sig) = sig {
        sim.wait(sig);
    }
    let seconds = sim.elapsed().max(1e-12);
    let total_cells = cpu_report.real_cells + accel_report.real_cells;

    let cpu_energy = device_energy(&cpu_model.device, sim.host_busy().min(seconds), seconds);
    let accel_energy = device_energy(&accel_model.device, sim.device_busy().min(seconds), seconds);

    HeteroReport {
        seconds,
        gcups: total_cells as f64 / seconds / 1e9,
        cpu_busy_s: sim.host_busy(),
        accel_busy_s: sim.device_busy(),
        cpu_gcups: cpu_report.gcups,
        accel_gcups: accel_report.gcups,
        accel_fraction: if total_cells == 0 {
            0.0
        } else {
            accel_report.real_cells as f64 / total_cells as f64
        },
        cpu_energy,
        accel_energy,
    }
}

/// Result of the *dynamic* heterogeneous distribution (the paper's §VI
/// future work: "analyze other workload distribution strategies").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeteroDynReport {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Combined throughput.
    pub gcups: f64,
    /// Fraction of tasks the accelerator ended up executing.
    pub accel_task_share: f64,
}

/// Simulate a **dynamic** CPU+accelerator distribution: both devices pull
/// sequence groups from one shared queue instead of a static split.
///
/// The database is grouped at the accelerator's lane width; the CPU
/// executes a group as two half-width batches. Every hardware thread of
/// both devices is a worker pulling from the queue (longest-first), with
/// per-device task costs from the respective cost models — no split
/// fraction to tune, which is the strategy's whole point.
pub fn simulate_hetero_dynamic(
    cpu: (&CostModel, &SimConfig),
    accel: (&CostModel, &SimConfig),
    lens: &[u32],
    query_len: usize,
) -> HeteroDynReport {
    use crate::prepare::shapes_from_lengths;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let (cpu_model, cpu_cfg) = cpu;
    let (accel_model, accel_cfg) = accel;
    let accel_lanes = accel_model.device.lanes_i16();
    let cpu_lanes = cpu_model.device.lanes_i16();

    // Shared queue granularity: one accelerator-width group.
    let accel_shapes = shapes_from_lengths(lens, accel_lanes, query_len);
    // The same groups at CPU width: `accel_lanes / cpu_lanes` batches each
    // (shapes_from_lengths sorts identically, so index `i` of the accel
    // list covers CPU batches `i*k .. (i+1)*k`).
    let cpu_shapes = shapes_from_lengths(lens, cpu_lanes, query_len);
    let k = (accel_lanes / cpu_lanes).max(1);

    let cpu_place = cpu_model.device.place_threads(cpu_cfg.threads);
    let accel_place = accel_model.device.place_threads(accel_cfg.threads);
    let replicas = cpu_cfg.replicas.max(1) as usize;

    // Per-task cost on each device class.
    let mut tasks: Vec<(f64, f64)> = accel_shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            let accel_s = accel_model.task_seconds(accel_cfg.variant, shape, accel_place);
            let cpu_s: f64 = cpu_shapes[i * k..((i + 1) * k).min(cpu_shapes.len())]
                .iter()
                .map(|s| cpu_model.task_seconds(cpu_cfg.variant, s, cpu_place))
                .sum();
            (cpu_s, accel_s)
        })
        .collect();
    let base: Vec<(f64, f64)> = tasks.clone();
    for _ in 1..replicas {
        tasks.extend_from_slice(&base);
    }
    // Longest-first dispatch (by accelerator cost — same ordering either way).
    tasks.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));

    // Two worker classes pulling from the queue.
    #[derive(PartialEq)]
    struct T(f64);
    impl Eq for T {}
    impl PartialOrd for T {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for T {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("finite time")
        }
    }
    let n_cpu = cpu_place.total_threads() as usize;
    let n_accel = accel_place.total_threads() as usize;
    let mut heap: BinaryHeap<Reverse<(T, bool)>> = BinaryHeap::new();
    for _ in 0..n_cpu {
        heap.push(Reverse((T(0.0), false)));
    }
    for _ in 0..n_accel {
        heap.push(Reverse((T(0.0), true)));
    }
    let mut next = 0usize;
    let mut makespan = 0.0f64;
    let mut accel_tasks = 0u64;
    while let Some(Reverse((T(t), is_accel))) = heap.pop() {
        if next >= tasks.len() {
            makespan = makespan.max(t);
            continue;
        }
        let (cpu_s, accel_s) = tasks[next];
        next += 1;
        let dt = if is_accel { accel_s } else { cpu_s };
        if is_accel {
            accel_tasks += 1;
        }
        heap.push(Reverse((T(t + dt), is_accel)));
    }
    let total_cells: u64 = accel_shapes.iter().map(|s| s.real_cells).sum::<u64>() * replicas as u64;
    let seconds = makespan.max(1e-12);
    HeteroDynReport {
        seconds,
        gcups: total_cells as f64 / seconds / 1e9,
        accel_task_share: accel_tasks as f64 / tasks.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::gen::{generate_lengths, DbSpec};

    /// Sweep the accelerator fraction over a grid (Fig. 8's x-axis) and
    /// return `(fraction, report)` pairs.
    fn sweep_split(
        cpu: (&CostModel, &SimConfig),
        accel: (&CostModel, &SimConfig),
        lens: &[u32],
        query_len: usize,
        steps: usize,
    ) -> Vec<(f64, HeteroReport)> {
        assert!(steps >= 2, "need at least the two endpoints");
        (0..steps)
            .map(|i| {
                let f = i as f64 / (steps - 1) as f64;
                (f, simulate_hetero(cpu, accel, lens, query_len, f))
            })
            .collect()
    }

    fn lens() -> Vec<u32> {
        // Full Swiss-Prot scale (541 561 sequences): the lengths-only path
        // makes this cheap, and the 240-worker Phi schedule needs the real
        // task count (≈17k batches) to fill its pipeline as the paper's
        // runs did.
        generate_lengths(&DbSpec::swissprot_full(7))
    }

    #[test]
    fn xeon_simulation_hits_paper_peak() {
        let model = CostModel::xeon();
        let shapes = crate::prepare::shapes_from_lengths(&lens(), 16, 2000);
        let r = simulate_search(&model, &shapes, &SimConfig::best(32));
        assert!((r.gcups - 30.4).abs() / 30.4 < 0.10, "xeon sim {}", r.gcups);
        assert!(r.efficiency > 0.9, "dynamic scheduling should balance well");
    }

    #[test]
    fn phi_simulation_hits_paper_peak() {
        let model = CostModel::phi();
        let shapes = crate::prepare::shapes_from_lengths(&lens(), 32, 2000);
        // Streamed: the paper's parallel loop pools all 20 queries' tasks.
        let r = simulate_search(&model, &shapes, &SimConfig::streamed(240, 8));
        assert!((r.gcups - 34.9).abs() / 34.9 < 0.10, "phi sim {}", r.gcups);
    }

    #[test]
    fn split_lengths_partition() {
        let l = lens();
        let total: u64 = l.iter().map(|&x| x as u64).sum();
        for f in [0.0, 0.3, 0.55, 1.0] {
            let (cpu, accel) = split_lengths(&l, f);
            assert_eq!(cpu.len() + accel.len(), l.len());
            let sum: u64 = cpu.iter().chain(accel.iter()).map(|&x| x as u64).sum();
            assert_eq!(sum, total);
            let accel_sum: u64 = accel.iter().map(|&x| x as u64).sum();
            let got = accel_sum as f64 / total as f64;
            assert!((got - f).abs() < 0.05, "fraction {f} got {got}");
        }
    }

    #[test]
    fn hetero_optimum_near_55_percent_phi() {
        // Fig. 8: best split ≈ 45 % CPU / 55 % Phi at ≈ 62.6 GCUPS.
        let cpu_model = CostModel::xeon();
        let phi_model = CostModel::phi();
        let cpu_cfg = SimConfig::streamed(32, 8);
        let phi_cfg = SimConfig::streamed(240, 8);
        let sweep = sweep_split(
            (&cpu_model, &cpu_cfg),
            (&phi_model, &phi_cfg),
            &lens(),
            2000,
            21,
        );
        let (best_f, best) = sweep
            .iter()
            .max_by(|a, b| a.1.gcups.partial_cmp(&b.1.gcups).expect("finite"))
            .expect("non-empty sweep");
        assert!(
            (0.45..=0.65).contains(best_f),
            "optimal Phi fraction {best_f} (paper: 0.55)"
        );
        assert!(
            (best.gcups - 62.6).abs() / 62.6 < 0.10,
            "combined {} vs paper 62.6",
            best.gcups
        );
        // Endpoints are the single-device rates.
        assert!(
            (sweep[0].1.gcups - 30.4).abs() / 30.4 < 0.10,
            "f=0: {}",
            sweep[0].1.gcups
        );
        let last = sweep.last().expect("non-empty");
        assert!(
            (last.1.gcups - 34.9).abs() / 34.9 < 0.12,
            "f=1: {}",
            last.1.gcups
        );
    }

    #[test]
    fn hetero_peak_beats_both_endpoints() {
        let cpu_model = CostModel::xeon();
        let phi_model = CostModel::phi();
        let cpu_cfg = SimConfig::streamed(32, 8);
        let phi_cfg = SimConfig::streamed(240, 8);
        let mid = simulate_hetero(
            (&cpu_model, &cpu_cfg),
            (&phi_model, &phi_cfg),
            &lens(),
            2000,
            0.55,
        );
        let cpu_only = simulate_hetero(
            (&cpu_model, &cpu_cfg),
            (&phi_model, &phi_cfg),
            &lens(),
            2000,
            0.0,
        );
        assert!(mid.gcups > 1.5 * cpu_only.gcups);
        assert!(mid.accel_busy_s > 0.0);
        assert!(mid.gcups_per_watt() > 0.0);
    }

    #[test]
    fn dynamic_distribution_matches_static_optimum_untuned() {
        // The §VI strategy study: dynamic pulling reaches the tuned static
        // optimum's throughput with no fraction to tune.
        let cpu_model = CostModel::xeon();
        let phi_model = CostModel::phi();
        let cpu_cfg = SimConfig::streamed(32, 8);
        let phi_cfg = SimConfig::streamed(240, 8);
        let l = lens();
        let dynamic =
            simulate_hetero_dynamic((&cpu_model, &cpu_cfg), (&phi_model, &phi_cfg), &l, 2000);
        let static_best = simulate_hetero(
            (&cpu_model, &cpu_cfg),
            (&phi_model, &phi_cfg),
            &l,
            2000,
            0.55,
        );
        assert!(
            dynamic.gcups > 0.95 * static_best.gcups,
            "dynamic {} vs tuned static {}",
            dynamic.gcups,
            static_best.gcups
        );
        // The accelerator organically takes roughly its throughput share.
        assert!(
            (0.40..0.70).contains(&dynamic.accel_task_share),
            "accel share {}",
            dynamic.accel_task_share
        );
    }

    #[test]
    fn energy_accounting_consistent() {
        let cpu_model = CostModel::xeon();
        let phi_model = CostModel::phi();
        let r = simulate_hetero(
            (&cpu_model, &SimConfig::best(32)),
            (&phi_model, &SimConfig::best(240)),
            &lens(),
            1000,
            0.5,
        );
        assert!(r.cpu_energy.joules > 0.0);
        assert!(r.accel_energy.joules > 0.0);
        assert!(r.cpu_busy_s <= r.seconds * 1.000001);
        assert!(r.accel_busy_s <= r.seconds * 1.000001);
    }
}
