//! Discrete-event scheduler simulation.
//!
//! Replays a scheduling [`Policy`] over a list of per-task costs (seconds,
//! typically from `sw-device::CostModel::task_seconds`) for `W` workers
//! and reports the makespan. Because the simulation executes the *same
//! chunk-assignment algorithm* a real OpenMP runtime would, it reproduces
//! genuine load-imbalance effects — the long-tail batches of a
//! length-sorted database, the static-vs-dynamic gap the paper reports,
//! and the thread-scaling curves of Figs. 3 and 5.

use crate::policy::{
    adaptive_chunk, static_partition, ChunkDispenser, DualQueue, Policy, RequeueQueue,
    SplitEstimator, DEVICE_ACCEL, DEVICE_CPU,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use sw_trace::{EventKind, Tracer, WorkerJournal};

/// Result of one simulated parallel loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Wall-clock of the loop: when the last worker finishes.
    pub makespan: f64,
    /// Busy seconds per worker.
    pub busy: Vec<f64>,
    /// Number of chunks dispatched.
    pub chunks: usize,
}

impl SimResult {
    /// Total work across workers (= sum of task costs; conservation).
    pub fn total_busy(&self) -> f64 {
        self.busy.iter().sum()
    }

    /// Parallel efficiency: total work / (workers × makespan).
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0.0 {
            1.0
        } else {
            self.total_busy() / (self.busy.len() as f64 * self.makespan)
        }
    }
}

/// Non-NaN f64 wrapper for the worker heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("task costs are finite")
    }
}

/// Simulate a parallel loop over `costs` with `workers` workers.
///
/// ```
/// use sw_sched::{simulate, Policy};
///
/// // 16 unit tasks on 4 workers: any policy balances perfectly.
/// let r = simulate(&[1.0; 16], 4, Policy::dynamic());
/// assert_eq!(r.makespan, 4.0);
/// assert!((r.efficiency() - 1.0).abs() < 1e-12);
///
/// // Skewed tasks: dynamic beats a block-static schedule.
/// let costs: Vec<f64> = (1..=32).map(f64::from).collect();
/// let dyn_ = simulate(&costs, 8, Policy::dynamic());
/// let stat = simulate(&costs, 8, Policy::Static);
/// assert!(dyn_.makespan < stat.makespan);
/// ```
///
/// # Panics
/// Panics if `workers == 0` or any cost is negative/non-finite.
pub fn simulate(costs: &[f64], workers: usize, policy: Policy) -> SimResult {
    assert!(workers >= 1, "need at least one worker");
    assert!(
        costs.iter().all(|c| c.is_finite() && *c >= 0.0),
        "task costs must be finite and non-negative"
    );
    match policy {
        Policy::Static => {
            let mut busy = Vec::with_capacity(workers);
            for (s, e) in static_partition(costs.len(), workers) {
                busy.push(costs[s..e].iter().sum());
            }
            let makespan = busy.iter().cloned().fold(0.0, f64::max);
            SimResult {
                makespan,
                busy,
                chunks: workers.min(costs.len()).max(1),
            }
        }
        Policy::Dynamic { .. } | Policy::Guided { .. } => {
            let mut dispenser = ChunkDispenser::new(policy, costs.len(), workers);
            // Min-heap of (available_time, worker_id).
            let mut heap: BinaryHeap<Reverse<(Time, usize)>> =
                (0..workers).map(|w| Reverse((Time(0.0), w))).collect();
            let mut busy = vec![0.0f64; workers];
            let mut chunks = 0usize;
            while let Some(Reverse((Time(t), w))) = heap.pop() {
                match dispenser.grab() {
                    Some((s, e)) => {
                        let work: f64 = costs[s..e].iter().sum();
                        busy[w] += work;
                        chunks += 1;
                        heap.push(Reverse((Time(t + work), w)));
                    }
                    None => {
                        // Worker retires at time t; drain the rest.
                        let mut makespan = t;
                        while let Some(Reverse((Time(t2), _))) = heap.pop() {
                            makespan = makespan.max(t2);
                        }
                        return SimResult {
                            makespan,
                            busy,
                            chunks,
                        };
                    }
                }
            }
            unreachable!("heap always holds a worker")
        }
    }
}

/// Configuration of a simulated dual-pool run — mirrors the real
/// executor's `DualPoolConfig` plus the per-device speeds the simulator
/// needs in place of wall clocks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DualPoolSimConfig {
    /// Workers in the CPU pool (front of the queue).
    pub cpu_workers: usize,
    /// Workers in the accelerator pool (back of the queue).
    pub accel_workers: usize,
    /// CPU throughput in cells per second.
    pub cpu_speed: f64,
    /// Accelerator throughput in cells per second.
    pub accel_speed: f64,
    /// The static plan's accelerator share seeding the estimator.
    pub initial_accel_fraction: f64,
    /// Smallest chunk either pool grabs.
    pub min_chunk: usize,
    /// Injected failure, mirroring the executor's `KillPool` fault: the
    /// accelerator pool dies as it starts its Nth chunk (0-based). The
    /// claimed chunk is released to the requeue list and the surviving
    /// CPU pool absorbs it plus everything left in the queue. `None`
    /// simulates a fault-free run.
    pub accel_fail_after_chunks: Option<usize>,
}

/// Result of one simulated dual-pool loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DualPoolSimResult {
    /// Wall-clock of the loop.
    pub makespan: f64,
    /// Busy seconds per device pool (index [`DEVICE_CPU`] / [`DEVICE_ACCEL`]).
    pub device_busy: [f64; 2],
    /// Tasks executed per device pool.
    pub device_tasks: [usize; 2],
    /// Cells processed per device pool.
    pub device_cells: [f64; 2],
    /// Chunks grabbed per device pool.
    pub device_chunks: [usize; 2],
    /// Where the pools met: the CPU pool executed tasks `0..boundary`,
    /// the accelerator pool `boundary..n_tasks`. Requeued ranges a CPU
    /// worker re-executes after an accelerator failure are *not* folded
    /// into the boundary — they lie beyond it by construction.
    pub boundary: usize,
    /// Chunks released back to the requeue list by the injected failure.
    pub requeued_chunks: usize,
    /// Tasks inside those requeued chunks.
    pub requeued_tasks: usize,
    /// Per-device degraded flag (a pool died and was retired) — mirrors
    /// the executor's `DurableOutcome::degraded`.
    pub degraded: [bool; 2],
    /// Tasks left unexecuted because no live worker remained to drain the
    /// requeue list (only possible when the surviving pool is empty).
    /// This is the simulated analogue of the executor's `ExecError`.
    pub unrecovered_tasks: usize,
}

impl DualPoolSimResult {
    /// Fraction of the total cells the accelerator pool processed — the
    /// *emergent* split, comparable with a static plan's
    /// `accel_cell_fraction`.
    pub fn accel_cell_fraction(&self) -> f64 {
        let total = self.device_cells[DEVICE_CPU] + self.device_cells[DEVICE_ACCEL];
        if total == 0.0 {
            0.0
        } else {
            self.device_cells[DEVICE_ACCEL] / total
        }
    }
}

/// Simulate the dual-pool heterogeneous executor over per-task `cells`
/// workloads: the CPU pool pulls from the front of one shared queue, the
/// accelerator pool from the back, with chunk sizes steered by the same
/// [`SplitEstimator`] + [`adaptive_chunk`] feedback policy the real
/// executor runs. Deterministic, so tests can compare a simulated split
/// against a real run's metrics.
///
/// The failure model mirrors the executor's recovery algorithm: when
/// [`DualPoolSimConfig::accel_fail_after_chunks`] fires, the claimed
/// chunk goes back on a [`RequeueQueue`], the accelerator pool is
/// retired (degraded), and idle CPU workers — which *linger* rather than
/// retire while a failure is still possible — wake up to absorb it.
///
/// # Panics
/// Panics when both pools are empty, speeds are non-positive, cells are
/// non-finite/negative, or the initial fraction is NaN/outside `[0, 1]`.
pub fn simulate_dual_pool(cells: &[f64], config: DualPoolSimConfig) -> DualPoolSimResult {
    simulate_dual_pool_traced(cells, config, &Tracer::disabled())
}

/// Convert simulated seconds to the journal's microsecond clock.
fn sim_us(t: f64) -> u64 {
    (t * 1e6).round() as u64
}

/// [`simulate_dual_pool`] with an event journal: every claim, execution
/// span, requeue, retirement and rebalance is emitted into `tracer` with
/// the *same schema* the real executor produces, stamped at the simulated
/// clock via `emit_at`. A simulated trace and a real trace of the same
/// workload are therefore directly comparable in the same tooling
/// (JSONL diff, Perfetto side-by-side). A disabled tracer makes this
/// identical to [`simulate_dual_pool`].
pub fn simulate_dual_pool_traced(
    cells: &[f64],
    config: DualPoolSimConfig,
    tracer: &Tracer,
) -> DualPoolSimResult {
    assert!(
        config.cpu_workers + config.accel_workers >= 1,
        "need at least one worker across the two pools"
    );
    assert!(
        config.cpu_speed.is_finite()
            && config.cpu_speed > 0.0
            && config.accel_speed.is_finite()
            && config.accel_speed > 0.0,
        "device speeds must be positive"
    );
    assert!(
        cells.iter().all(|c| c.is_finite() && *c >= 0.0),
        "task cells must be finite and non-negative"
    );
    let estimator = SplitEstimator::new(config.initial_accel_fraction);

    let mut queue = DualQueue::new(cells.len());
    let speeds = [config.cpu_speed, config.accel_speed];
    let pool_workers = [config.cpu_workers, config.accel_workers];
    let mut device_busy = [0.0f64; 2];
    let mut device_tasks = [0usize; 2];
    let mut device_cells = [0.0f64; 2];
    let mut device_chunks = [0usize; 2];
    let mut boundary = 0usize;

    // One journal per simulated worker, stamped at the simulated clock.
    // Empty when tracing is disabled so the hot loop pays one map miss.
    let mut journals: HashMap<(usize, usize), WorkerJournal> = HashMap::new();
    if tracer.is_enabled() {
        for device in [DEVICE_CPU, DEVICE_ACCEL] {
            for w in 0..pool_workers[device] {
                journals.insert((device, w), tracer.worker(device, w));
            }
        }
    }
    let mut next_lease = 0u64;
    // Park times of lingering workers; their queue-wait span is emitted
    // in one balanced B/E pair when they wake.
    let mut parked_since: HashMap<(usize, usize), f64> = HashMap::new();

    // Min-heap of (available_time, device, worker) — deterministic tie
    // order: CPU workers before accelerator workers at equal times.
    let mut heap: BinaryHeap<Reverse<(Time, usize, usize)>> = BinaryHeap::new();
    for device in [DEVICE_CPU, DEVICE_ACCEL] {
        for w in 0..pool_workers[device] {
            heap.push(Reverse((Time(0.0), device, w)));
        }
    }

    let mut requeue = RequeueQueue::new();
    // Workers idling on an empty queue. They cannot retire while a
    // pool-kill could still orphan a claimed chunk, so they park here
    // (the real executor's linger state) and wake when a requeue lands.
    let mut parked: Vec<(f64, usize, usize)> = Vec::new();
    let mut accel_chunk_counter = 0usize;
    let mut degraded = [false; 2];
    let mut requeued_chunks = 0usize;
    let mut requeued_tasks = 0usize;

    let mut makespan = 0.0f64;
    while let Some(Reverse((Time(t), device, w))) = heap.pop() {
        if let Some(t0) = parked_since.remove(&(device, w)) {
            if let Some(jr) = journals.get_mut(&(device, w)) {
                jr.emit_at(sim_us(t0), EventKind::QueueWaitBegin);
                jr.emit_at(
                    sim_us(t),
                    EventKind::QueueWaitEnd {
                        us: sim_us(t) - sim_us(t0),
                    },
                );
            }
        }
        if degraded[device] {
            // Retired pool: the worker exits without grabbing.
            makespan = makespan.max(t);
            continue;
        }
        // Requeued ranges take priority over fresh chunks, exactly like
        // the executor's acquire path.
        let (grabbed, from_requeue, attempts) = match requeue.pop() {
            Some((range, attempts)) => (Some(range), true, attempts),
            None => {
                let accel_share = estimator.accel_share(
                    device_cells[DEVICE_CPU].round() as u64,
                    (device_busy[DEVICE_CPU] * 1e9).round() as u64,
                    device_cells[DEVICE_ACCEL].round() as u64,
                    (device_busy[DEVICE_ACCEL] * 1e9).round() as u64,
                );
                let my_share = if device == DEVICE_CPU {
                    1.0 - accel_share
                } else {
                    accel_share
                };
                let k = adaptive_chunk(
                    queue.remaining(),
                    my_share,
                    pool_workers[device],
                    config.min_chunk,
                );
                let g = if device == DEVICE_CPU {
                    queue.take_front(k)
                } else {
                    queue.take_back(k)
                };
                if g.is_some() {
                    if let Some(jr) = journals.get_mut(&(device, w)) {
                        jr.emit_at(sim_us(t), EventKind::SplitRebalance { share: accel_share });
                    }
                }
                (g, false, 0)
            }
        };
        match grabbed {
            Some((s, e)) => {
                let lease = next_lease;
                next_lease += 1;
                if let Some(jr) = journals.get_mut(&(device, w)) {
                    jr.emit_at(
                        sim_us(t),
                        EventKind::LeaseGranted {
                            lease,
                            lo: s,
                            hi: e,
                        },
                    );
                    jr.emit_at(
                        sim_us(t),
                        EventKind::ChunkClaim {
                            lease,
                            lo: s,
                            hi: e,
                            attempts,
                        },
                    );
                }
                if device == DEVICE_ACCEL {
                    let n = accel_chunk_counter;
                    accel_chunk_counter += 1;
                    if config.accel_fail_after_chunks == Some(n) {
                        // Pool-kill fires as this chunk starts: the claimed
                        // range is released to the requeue list and the
                        // whole accelerator pool retires. Parked workers
                        // wake to absorb the orphaned chunk.
                        requeue.push((s, e), 1);
                        requeued_chunks += 1;
                        requeued_tasks += e - s;
                        degraded[DEVICE_ACCEL] = true;
                        if let Some(jr) = journals.get_mut(&(device, w)) {
                            jr.emit_at(
                                sim_us(t),
                                EventKind::LeaseLost {
                                    lease,
                                    victim: DEVICE_ACCEL,
                                },
                            );
                            jr.emit_at(
                                sim_us(t),
                                EventKind::LeaseRequeued {
                                    lease,
                                    lo: s,
                                    hi: e,
                                    attempts: 1,
                                },
                            );
                            jr.emit_at(
                                sim_us(t),
                                EventKind::PoolRetired {
                                    device: DEVICE_ACCEL,
                                },
                            );
                        }
                        makespan = makespan.max(t);
                        for (pt, pd, pw) in parked.drain(..) {
                            heap.push(Reverse((Time(pt.max(t)), pd, pw)));
                        }
                        continue;
                    }
                }
                let chunk_cells: f64 = cells[s..e].iter().sum();
                let work = chunk_cells / speeds[device];
                if let Some(jr) = journals.get_mut(&(device, w)) {
                    jr.emit_at(
                        sim_us(t),
                        EventKind::ChunkStart {
                            lease,
                            lo: s,
                            hi: e,
                        },
                    );
                    jr.emit_at(
                        sim_us(t + work),
                        EventKind::ChunkFinish {
                            lease,
                            lo: s,
                            hi: e,
                            cells: chunk_cells.round() as u64,
                        },
                    );
                }
                device_busy[device] += work;
                device_tasks[device] += e - s;
                device_cells[device] += chunk_cells;
                device_chunks[device] += 1;
                if device == DEVICE_CPU && !from_requeue {
                    boundary = boundary.max(e);
                }
                heap.push(Reverse((Time(t + work), device, w)));
            }
            None => {
                makespan = makespan.max(t);
                if config.accel_fail_after_chunks.is_some() && !degraded[DEVICE_ACCEL] {
                    // A kill may still orphan a chunk: linger instead of
                    // retiring. Woken at most once, so this terminates.
                    parked.push((t, device, w));
                    parked_since.insert((device, w), t);
                }
            }
        }
    }
    // CPU never grabbed anything: the pools met at task 0.
    if device_tasks[DEVICE_CPU] == 0 {
        boundary = 0;
    }
    // Anything still on the requeue list had no live worker left to run
    // it — the simulated analogue of the executor returning `ExecError`.
    let mut unrecovered_tasks = 0usize;
    while let Some(((s, e), _)) = requeue.pop() {
        unrecovered_tasks += e - s;
    }
    DualPoolSimResult {
        makespan,
        device_busy,
        device_tasks,
        device_cells,
        device_chunks,
        boundary,
        requeued_chunks,
        requeued_tasks,
        degraded,
        unrecovered_tasks,
    }
}

/// Theoretical lower bound on any schedule's makespan:
/// `max(total / workers, longest task)`.
pub fn makespan_lower_bound(costs: &[f64], workers: usize) -> f64 {
    let total: f64 = costs.iter().sum();
    let longest = costs.iter().cloned().fold(0.0, f64::max);
    (total / workers as f64).max(longest)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn uniform_tasks_perfectly_balanced() {
        let costs = vec![1.0; 16];
        for policy in [Policy::Static, Policy::dynamic(), Policy::guided()] {
            let r = simulate(&costs, 4, policy);
            assert!((r.makespan - 4.0).abs() < EPS, "{policy:?}: {}", r.makespan);
            assert!((r.efficiency() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn work_is_conserved() {
        let costs: Vec<f64> = (1..=37).map(|i| i as f64 * 0.1).collect();
        let total: f64 = costs.iter().sum();
        for policy in [
            Policy::Static,
            Policy::dynamic(),
            Policy::Guided { min_chunk: 2 },
        ] {
            let r = simulate(&costs, 5, policy);
            assert!((r.total_busy() - total).abs() < 1e-6, "{policy:?}");
            assert!(r.makespan >= makespan_lower_bound(&costs, 5) - EPS);
        }
    }

    #[test]
    fn dynamic_beats_static_on_skewed_work() {
        // The paper: "dynamic outperforms static significantly" because the
        // workload per iteration differs. Sorted costs are the worst case
        // for a block-static schedule: the last block holds all the giants.
        let costs: Vec<f64> = (1..=64).map(|i| i as f64).collect();
        let stat = simulate(&costs, 8, Policy::Static);
        let dyn_ = simulate(&costs, 8, Policy::dynamic());
        let guided = simulate(&costs, 8, Policy::guided());
        assert!(
            dyn_.makespan < 0.8 * stat.makespan,
            "dynamic {} vs static {}",
            dyn_.makespan,
            stat.makespan
        );
        // "The performance difference with guided is slightly minor":
        // guided lands between dynamic and static, close to dynamic.
        assert!(dyn_.makespan <= guided.makespan + EPS);
        assert!(guided.makespan < stat.makespan);
    }

    #[test]
    fn single_worker_makespan_is_total() {
        let costs = vec![2.0, 3.0, 5.0];
        for policy in [Policy::Static, Policy::dynamic(), Policy::guided()] {
            let r = simulate(&costs, 1, policy);
            assert!((r.makespan - 10.0).abs() < EPS);
        }
    }

    #[test]
    fn more_workers_never_slower() {
        let costs: Vec<f64> = (0..100).map(|i| ((i * 7919) % 13 + 1) as f64).collect();
        let mut last = f64::INFINITY;
        for w in [1, 2, 4, 8, 16, 32] {
            let r = simulate(&costs, w, Policy::dynamic());
            assert!(r.makespan <= last + EPS, "workers {w}");
            last = r.makespan;
        }
    }

    #[test]
    fn empty_loop_is_instant() {
        let r = simulate(&[], 4, Policy::dynamic());
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.total_busy(), 0.0);
    }

    #[test]
    fn giant_task_bounds_makespan() {
        let mut costs = vec![0.1; 50];
        costs.push(100.0);
        let r = simulate(&costs, 8, Policy::dynamic());
        let lb = makespan_lower_bound(&costs, 8);
        assert!((lb - 100.0).abs() < EPS);
        assert!(r.makespan >= 100.0 - EPS);
        assert!(
            r.makespan < 106.0,
            "dynamic must hide the small tasks behind the giant"
        );
    }

    #[test]
    fn chunked_dynamic_fewer_chunks() {
        let costs = vec![1.0; 100];
        let unit = simulate(&costs, 4, Policy::Dynamic { chunk: 1 });
        let chunked = simulate(&costs, 4, Policy::Dynamic { chunk: 10 });
        assert_eq!(unit.chunks, 100);
        assert_eq!(chunked.chunks, 10);
    }

    #[test]
    fn efficiency_in_unit_range() {
        let costs: Vec<f64> = (0..333).map(|i| ((i * 31) % 17) as f64 + 0.5).collect();
        for w in [1, 3, 7, 32] {
            for p in [Policy::Static, Policy::dynamic(), Policy::guided()] {
                let r = simulate(&costs, w, p);
                assert!(r.efficiency() > 0.0 && r.efficiency() <= 1.0 + EPS);
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_cost_rejected() {
        simulate(&[1.0, f64::NAN], 2, Policy::dynamic());
    }

    fn dual_cfg() -> DualPoolSimConfig {
        DualPoolSimConfig {
            cpu_workers: 4,
            accel_workers: 2,
            cpu_speed: 1e9,
            accel_speed: 4e9,
            initial_accel_fraction: 0.5,
            min_chunk: 1,
            accel_fail_after_chunks: None,
        }
    }

    #[test]
    fn dual_pool_covers_all_tasks_once() {
        let cells: Vec<f64> = (1..=200).map(|i| i as f64 * 1e6).collect();
        let r = simulate_dual_pool(&cells, dual_cfg());
        assert_eq!(r.device_tasks[0] + r.device_tasks[1], 200);
        let total: f64 = cells.iter().sum();
        assert!((r.device_cells[0] + r.device_cells[1] - total).abs() < 1.0);
        // Pools met at one boundary: CPU cells are exactly the prefix sum.
        let prefix: f64 = cells[..r.boundary].iter().sum();
        assert!((r.device_cells[0] - prefix).abs() < 1.0);
    }

    #[test]
    fn dual_pool_faster_accel_claims_larger_share() {
        // Accelerator is 4x faster per worker; the emergent split should
        // give it well over half the cells even from a 0.5 seed.
        let cells = vec![1e6; 400];
        let r = simulate_dual_pool(&cells, dual_cfg());
        assert!(
            r.accel_cell_fraction() > 0.5,
            "accel took {} of the cells",
            r.accel_cell_fraction()
        );
        // And the makespan beats giving everything to either pool alone.
        let total: f64 = cells.iter().sum();
        assert!(r.makespan < total / (4.0 * 1e9));
    }

    #[test]
    fn dual_pool_estimator_converges_toward_speed_ratio() {
        // 4 CPU workers at 1 GCUPS vs 2 accel workers at 4 GCUPS: pool
        // throughput is 4 vs 8, so the ideal accel share is 2/3. Start
        // from a bad seed and check the feedback converges near it.
        let cells = vec![1e6; 2000];
        let mut cfg = dual_cfg();
        cfg.initial_accel_fraction = 0.1;
        let r = simulate_dual_pool(&cells, cfg);
        assert!(
            (r.accel_cell_fraction() - 2.0 / 3.0).abs() < 0.15,
            "emergent split {} should approach 2/3",
            r.accel_cell_fraction()
        );
    }

    #[test]
    fn dual_pool_single_sided() {
        let cells = vec![1e6; 50];
        let mut cfg = dual_cfg();
        cfg.accel_workers = 0;
        let r = simulate_dual_pool(&cells, cfg);
        assert_eq!(r.device_tasks[0], 50);
        assert_eq!(r.boundary, 50);
        assert_eq!(r.device_tasks[1], 0);

        let mut cfg = dual_cfg();
        cfg.cpu_workers = 0;
        let r = simulate_dual_pool(&cells, cfg);
        assert_eq!(r.device_tasks[1], 50);
        assert_eq!(r.boundary, 0);
        assert_eq!(r.accel_cell_fraction(), 1.0);
    }

    #[test]
    fn dual_pool_empty_loop() {
        let r = simulate_dual_pool(&[], dual_cfg());
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.device_tasks, [0, 0]);
        assert_eq!(r.accel_cell_fraction(), 0.0);
    }

    #[test]
    fn dual_pool_deterministic() {
        let cells: Vec<f64> = (0..300).map(|i| ((i * 13) % 37 + 1) as f64 * 1e5).collect();
        let a = simulate_dual_pool(&cells, dual_cfg());
        let b = simulate_dual_pool(&cells, dual_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn dual_pool_kill_recovers_all_tasks() {
        let cells: Vec<f64> = (1..=200).map(|i| i as f64 * 1e6).collect();
        let mut cfg = dual_cfg();
        cfg.accel_fail_after_chunks = Some(2);
        let r = simulate_dual_pool(&cells, cfg);
        assert_eq!(r.degraded, [false, true]);
        assert_eq!(r.requeued_chunks, 1);
        assert!(r.requeued_tasks >= 1);
        assert_eq!(r.unrecovered_tasks, 0, "CPU pool absorbs the orphan");
        assert_eq!(r.device_tasks[0] + r.device_tasks[1], 200);
        let total: f64 = cells.iter().sum();
        assert!((r.device_cells[0] + r.device_cells[1] - total).abs() < 1.0);
        // The accel pool completed exactly the chunks before the kill.
        assert_eq!(r.device_chunks[DEVICE_ACCEL], 2);
    }

    #[test]
    fn dual_pool_kill_at_first_chunk_degrades_to_cpu_only() {
        let cells = vec![1e6; 120];
        let mut cfg = dual_cfg();
        cfg.accel_fail_after_chunks = Some(0);
        let r = simulate_dual_pool(&cells, cfg);
        assert_eq!(r.degraded, [false, true]);
        assert_eq!(r.device_tasks[DEVICE_ACCEL], 0);
        assert_eq!(r.device_tasks[DEVICE_CPU], 120);
        assert_eq!(r.unrecovered_tasks, 0);
        // Degraded makespan matches a CPU-only run to first order: all
        // cells at CPU speed across the CPU workers.
        let cpu_only: f64 = 120.0 * 1e6 / 1e9 / 4.0;
        assert!(r.makespan >= cpu_only - 1e-9, "{}", r.makespan);
    }

    #[test]
    fn dual_pool_kill_never_reached_matches_clean_run() {
        let cells: Vec<f64> = (0..300).map(|i| ((i * 13) % 37 + 1) as f64 * 1e5).collect();
        let clean = simulate_dual_pool(&cells, dual_cfg());
        let mut cfg = dual_cfg();
        cfg.accel_fail_after_chunks = Some(1_000_000);
        let armed = simulate_dual_pool(&cells, cfg);
        assert_eq!(clean, armed, "unfired fault must not perturb the run");
        assert_eq!(clean.degraded, [false, false]);
        assert_eq!(clean.requeued_chunks, 0);
    }

    #[test]
    fn dual_pool_kill_with_no_survivors_loses_tasks() {
        let cells = vec![1e6; 80];
        let mut cfg = dual_cfg();
        cfg.cpu_workers = 0;
        cfg.accel_fail_after_chunks = Some(1);
        let r = simulate_dual_pool(&cells, cfg);
        assert_eq!(r.degraded, [false, true]);
        assert_eq!(r.device_tasks[DEVICE_CPU], 0);
        assert_eq!(
            r.device_chunks[DEVICE_ACCEL], 1,
            "one chunk before the kill"
        );
        assert_eq!(
            r.unrecovered_tasks, r.requeued_tasks,
            "no pool left to drain the requeue: the orphan stays orphaned"
        );
        assert!(r.unrecovered_tasks > 0);
        assert!(r.device_tasks[DEVICE_ACCEL] + r.unrecovered_tasks <= 80);
    }

    #[test]
    fn dual_pool_degraded_run_is_deterministic() {
        let cells: Vec<f64> = (0..250).map(|i| ((i * 7) % 23 + 1) as f64 * 2e5).collect();
        let mut cfg = dual_cfg();
        cfg.accel_fail_after_chunks = Some(3);
        let a = simulate_dual_pool(&cells, cfg);
        let b = simulate_dual_pool(&cells, cfg);
        assert_eq!(a, b);
        assert_eq!(a.degraded, [false, true]);
    }

    #[test]
    fn traced_sim_matches_untraced_and_validates() {
        let cells: Vec<f64> = (1..=150).map(|i| i as f64 * 1e6).collect();
        let plain = simulate_dual_pool(&cells, dual_cfg());
        let tracer = Tracer::full();
        let traced = simulate_dual_pool_traced(&cells, dual_cfg(), &tracer);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let tl = tracer.timeline();
        assert_eq!(
            tl.count("chunk_claim"),
            plain.device_chunks[0] + plain.device_chunks[1]
        );
        let text = sw_trace::export::jsonl(&tl);
        let rep = sw_trace::validate::validate_jsonl(&text).expect("sim trace validates");
        assert!(rep.spans >= plain.device_chunks[0] + plain.device_chunks[1]);
    }

    #[test]
    fn traced_sim_kill_emits_recovery_events() {
        let cells: Vec<f64> = (1..=120).map(|i| i as f64 * 1e6).collect();
        let mut cfg = dual_cfg();
        cfg.accel_fail_after_chunks = Some(1);
        let tracer = Tracer::full();
        let r = simulate_dual_pool_traced(&cells, cfg, &tracer);
        assert_eq!(r.degraded, [false, true]);
        let tl = tracer.timeline();
        assert_eq!(tl.count("lease_lost"), 1);
        assert_eq!(tl.count("lease_requeued"), 1);
        assert_eq!(tl.count("pool_retired"), 1);
        // The requeued range is re-claimed with a non-zero attempt count.
        let retry_claims = tl
            .events_sorted()
            .iter()
            .filter(|(_, _, ev)| {
                matches!(ev.kind, EventKind::ChunkClaim { attempts, .. } if attempts > 0)
            })
            .count();
        assert_eq!(retry_claims, 1);
        sw_trace::validate::validate_jsonl(&sw_trace::export::jsonl(&tl)).expect("valid");
    }

    #[test]
    #[should_panic(expected = "finite fraction")]
    fn dual_pool_rejects_bad_fraction() {
        let mut cfg = dual_cfg();
        cfg.initial_accel_fraction = 1.5;
        simulate_dual_pool(&[1.0], cfg);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn dual_pool_rejects_no_workers() {
        let mut cfg = dual_cfg();
        cfg.cpu_workers = 0;
        cfg.accel_workers = 0;
        simulate_dual_pool(&[1.0], cfg);
    }
}
