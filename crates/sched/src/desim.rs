//! Discrete-event scheduler simulation.
//!
//! Replays a scheduling [`Policy`] over a list of per-task costs (seconds,
//! typically from `sw-device::CostModel::task_seconds`) for `W` workers
//! and reports the makespan. Because the simulation executes the *same
//! chunk-assignment algorithm* a real OpenMP runtime would, it reproduces
//! genuine load-imbalance effects — the long-tail batches of a
//! length-sorted database, the static-vs-dynamic gap the paper reports,
//! and the thread-scaling curves of Figs. 3 and 5.
//!
//! It models one pool of identical workers. The heterogeneous dual-pool
//! schedule has one implementation, the real executor
//! ([`crate::executor::run_dual_pool_durable`]); the paper-scale timing
//! of a split comes from `sw-core`'s `simulate_hetero`, which replays each
//! device's share here and joins them through `sw-device`'s offload
//! model.

use crate::policy::{static_partition, ChunkDispenser, Policy};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
}
