//! Scheduling metrics: load-imbalance statistics and the instrumented
//! per-worker/per-device sink the dual-pool executor reports through.
//!
//! §VI of the paper: *"The key to have good scalability in a heterogeneous
//! system is to find an optimal distribution workload."* These statistics
//! quantify how far a schedule (simulated or real) is from that optimum,
//! and [`MetricsSink`] records what each worker actually did so the engine
//! and the CLI can report the realised distribution.

use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Duration;

/// Imbalance statistics over per-worker busy times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Imbalance {
    /// Longest worker busy time.
    pub max: f64,
    /// Shortest worker busy time.
    pub min: f64,
    /// Mean busy time.
    pub mean: f64,
    /// `max / mean` — 1.0 is perfect balance; the classic λ metric.
    pub lambda: f64,
    /// Coefficient of variation (stddev / mean).
    pub cv: f64,
}

/// Compute imbalance statistics. Returns `None` for an empty slice —
/// zero workers have no distribution to measure (this used to panic;
/// callers aggregating a retired or never-started pool hit the empty
/// case legitimately).
pub fn imbalance(busy: &[f64]) -> Option<Imbalance> {
    if busy.is_empty() {
        return None;
    }
    let n = busy.len() as f64;
    let max = busy.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = busy.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = busy.iter().sum::<f64>() / n;
    let var = busy.iter().map(|b| (b - mean) * (b - mean)).sum::<f64>() / n;
    let lambda = if mean == 0.0 { 1.0 } else { max / mean };
    let cv = if mean == 0.0 { 0.0 } else { var.sqrt() / mean };
    Some(Imbalance {
        max,
        min,
        mean,
        lambda,
        cv,
    })
}

/// What one worker did over one parallel region: recorded once, at worker
/// exit, into a [`MetricsSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerSample {
    /// Device the worker belongs to (0 = CPU share, 1 = accelerator
    /// share in the dual-pool executor).
    pub device: usize,
    /// Worker index within the device pool.
    pub worker: usize,
    /// Tasks executed.
    pub tasks: u64,
    /// Chunks grabbed from the shared queue.
    pub chunks: u64,
    /// Time spent executing tasks.
    pub busy: Duration,
    /// Time spent contending on the shared queue (grab + commit).
    pub queue_wait: Duration,
    /// DP cells processed (per the caller's cost function).
    pub cells: u64,
    /// Chunks this worker re-executed from the requeue list (work another
    /// worker failed, timed out on, or abandoned).
    pub retries: u64,
}

impl WorkerSample {
    /// A zeroed sample for `(device, worker)`.
    pub fn new(device: usize, worker: usize) -> Self {
        WorkerSample {
            device,
            worker,
            tasks: 0,
            chunks: 0,
            busy: Duration::ZERO,
            queue_wait: Duration::ZERO,
            cells: 0,
            retries: 0,
        }
    }
}

/// One recovery event charged to a device pool, recorded by the executor
/// as it happens (as opposed to [`WorkerSample`]s, recorded at exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryEvent {
    /// A chunk held by the device was released un-executed and pushed to
    /// the requeue list (worker died or abandoned the lease).
    Requeue,
    /// A lease held by the device was reclaimed by another worker after
    /// exceeding its timeout (the holder wedged or stalled).
    LostLease,
    /// A failure charged against the device's failure budget (worker
    /// panic, injected kill, or lease timeout).
    Failure,
    /// The device's pool was retired before the queue drained (budget
    /// exhausted or pool killed) — the run degraded to the other pool.
    Degraded,
}

/// Aggregated view of one device's pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceMetrics {
    /// Device id.
    pub device: usize,
    /// Workers that reported.
    pub workers: usize,
    /// Total tasks executed by the pool.
    pub tasks: u64,
    /// Total chunks grabbed by the pool.
    pub chunks: u64,
    /// Summed busy time across the pool's workers.
    pub busy: Duration,
    /// Summed queue-contention time.
    pub queue_wait: Duration,
    /// Total DP cells processed.
    pub cells: u64,
    /// Chunks the pool re-executed from the requeue list.
    pub retries: u64,
    /// Chunks the pool released un-executed for others to re-run.
    pub requeues: u64,
    /// Leases reclaimed from the pool by timeout.
    pub lost_leases: u64,
    /// Failures charged against the pool's failure budget.
    pub failures: u64,
    /// True when the pool was retired before the queue drained.
    pub degraded: bool,
}

impl DeviceMetrics {
    /// Running throughput over the pool's busy time, in GCUPS. Zero when
    /// nothing was recorded (an idle pool has no throughput).
    pub fn gcups(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.cells as f64 / secs / 1e9
        }
    }

    /// Bridge to the trace exporters' counter struct. The Prometheus
    /// snapshot is built from the *same* aggregate the CLI prints, so
    /// exported counters match printed ones exactly.
    /// `overflow_recomputes` rides along because lane rescues are counted
    /// by the engine, not by this sink.
    pub fn counters(&self, overflow_recomputes: u64) -> sw_trace::DeviceCounters {
        sw_trace::DeviceCounters {
            device: self.device,
            workers: self.workers,
            tasks: self.tasks,
            chunks: self.chunks,
            cells: self.cells,
            busy_secs: self.busy.as_secs_f64(),
            queue_wait_secs: self.queue_wait.as_secs_f64(),
            retries: self.retries,
            requeues: self.requeues,
            lost_leases: self.lost_leases,
            failures: self.failures,
            degraded: self.degraded,
            overflow_recomputes,
        }
    }
}

/// Thread-safe collector of [`WorkerSample`]s for one parallel region.
///
/// Workers record exactly once at exit, so contention is negligible; the
/// engine and the CLI read the aggregate afterwards.
#[derive(Debug, Default)]
pub struct MetricsSink {
    samples: Mutex<Vec<WorkerSample>>,
    events: Mutex<Vec<(usize, RecoveryEvent)>>,
}

/// Locks never stay poisoned: a sink only stores plain data, so the value
/// inside a poisoned lock is still coherent (the panicking thread died
/// between whole-record pushes, not mid-write).
fn unpoison<T>(
    r: std::sync::LockResult<std::sync::MutexGuard<'_, T>>,
) -> std::sync::MutexGuard<'_, T> {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Record one worker's sample.
    pub fn record(&self, sample: WorkerSample) {
        unpoison(self.samples.lock()).push(sample);
    }

    /// Record one recovery event against `device`.
    pub fn record_recovery(&self, device: usize, event: RecoveryEvent) {
        unpoison(self.events.lock()).push((device, event));
    }

    /// All recorded samples, ordered by `(device, worker)`.
    pub fn samples(&self) -> Vec<WorkerSample> {
        let mut v = unpoison(self.samples.lock()).clone();
        v.sort_by_key(|s| (s.device, s.worker));
        v
    }

    /// Aggregate the samples and recovery events of one device.
    pub fn device(&self, device: usize) -> DeviceMetrics {
        let mut out = DeviceMetrics {
            device,
            workers: 0,
            tasks: 0,
            chunks: 0,
            busy: Duration::ZERO,
            queue_wait: Duration::ZERO,
            cells: 0,
            retries: 0,
            requeues: 0,
            lost_leases: 0,
            failures: 0,
            degraded: false,
        };
        for s in unpoison(self.samples.lock()).iter() {
            if s.device == device {
                out.workers += 1;
                out.tasks += s.tasks;
                out.chunks += s.chunks;
                out.busy += s.busy;
                out.queue_wait += s.queue_wait;
                out.cells += s.cells;
                out.retries += s.retries;
            }
        }
        for &(d, event) in unpoison(self.events.lock()).iter() {
            if d == device {
                match event {
                    RecoveryEvent::Requeue => out.requeues += 1,
                    RecoveryEvent::LostLease => out.lost_leases += 1,
                    RecoveryEvent::Failure => out.failures += 1,
                    RecoveryEvent::Degraded => out.degraded = true,
                }
            }
        }
        out
    }

    /// Aggregates for every device that recorded at least one sample or
    /// recovery event, ordered by device id.
    pub fn devices(&self) -> Vec<DeviceMetrics> {
        let mut ids: Vec<usize> = unpoison(self.samples.lock())
            .iter()
            .map(|s| s.device)
            .chain(unpoison(self.events.lock()).iter().map(|&(d, _)| d))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|d| self.device(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_balance() {
        let s = imbalance(&[2.0, 2.0, 2.0, 2.0]).expect("non-empty");
        assert_eq!(s.lambda, 1.0);
        assert_eq!(s.cv, 0.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.min, 2.0);
    }

    #[test]
    fn skewed_balance() {
        let s = imbalance(&[1.0, 3.0]).expect("non-empty");
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.lambda, 1.5);
        assert!((s.cv - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_idle_workers() {
        let s = imbalance(&[0.0, 0.0]).expect("non-empty");
        assert_eq!(s.lambda, 1.0);
        assert_eq!(s.cv, 0.0);
    }

    #[test]
    fn empty_yields_none() {
        // Previously a panic; an empty pool (retired before starting, or
        // a device that never reported) is a legitimate aggregation input.
        assert_eq!(imbalance(&[]), None);
    }

    #[test]
    fn integrates_with_simulator() {
        use crate::desim::simulate;
        use crate::policy::Policy;
        let costs: Vec<f64> = (1..=64).map(|i| i as f64).collect();
        let stat = imbalance(&simulate(&costs, 8, Policy::Static).busy).expect("8 workers");
        let dynm = imbalance(&simulate(&costs, 8, Policy::dynamic()).busy).expect("8 workers");
        assert!(dynm.lambda < stat.lambda, "dynamic must balance better");
    }

    #[test]
    fn sink_aggregates_per_device() {
        let sink = MetricsSink::new();
        sink.record(WorkerSample {
            tasks: 10,
            chunks: 3,
            busy: Duration::from_secs(2),
            queue_wait: Duration::from_millis(5),
            cells: 1_000_000_000,
            ..WorkerSample::new(0, 0)
        });
        sink.record(WorkerSample {
            tasks: 6,
            chunks: 2,
            busy: Duration::from_secs(2),
            cells: 3_000_000_000,
            retries: 2,
            ..WorkerSample::new(0, 1)
        });
        sink.record(WorkerSample {
            tasks: 4,
            chunks: 4,
            busy: Duration::from_secs(1),
            cells: 500_000_000,
            ..WorkerSample::new(1, 0)
        });
        let cpu = sink.device(0);
        assert_eq!(cpu.workers, 2);
        assert_eq!(cpu.tasks, 16);
        assert_eq!(cpu.chunks, 5);
        assert_eq!(cpu.cells, 4_000_000_000);
        assert_eq!(cpu.retries, 2);
        assert!(!cpu.degraded);
        assert!(
            (cpu.gcups() - 1.0).abs() < 1e-9,
            "4e9 cells over 4 busy seconds"
        );
        let accel = sink.device(1);
        assert_eq!(accel.tasks, 4);
        assert!((accel.gcups() - 0.5).abs() < 1e-9);
        assert_eq!(sink.devices().len(), 2);
    }

    #[test]
    fn idle_device_reports_zero_gcups() {
        let sink = MetricsSink::new();
        sink.record(WorkerSample::new(0, 0));
        let m = sink.device(0);
        assert_eq!(m.gcups(), 0.0);
        assert_eq!(m.tasks, 0);
    }

    #[test]
    fn recovery_events_aggregate_per_device() {
        let sink = MetricsSink::new();
        sink.record(WorkerSample::new(0, 0));
        sink.record_recovery(1, RecoveryEvent::Failure);
        sink.record_recovery(1, RecoveryEvent::Requeue);
        sink.record_recovery(1, RecoveryEvent::LostLease);
        sink.record_recovery(1, RecoveryEvent::Failure);
        sink.record_recovery(1, RecoveryEvent::Degraded);
        let accel = sink.device(1);
        assert_eq!(accel.failures, 2);
        assert_eq!(accel.requeues, 1);
        assert_eq!(accel.lost_leases, 1);
        assert!(accel.degraded);
        assert_eq!(accel.workers, 0, "no samples, only events");
        let cpu = sink.device(0);
        assert_eq!(cpu.failures, 0);
        assert!(!cpu.degraded);
        // devices() lists a device known only through events.
        assert_eq!(sink.devices().len(), 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // N threads × M samples (plus recovery events) hammering one
        // sink: nothing may be lost and device() aggregation must be
        // exactly the closed-form totals.
        const THREADS: usize = 8;
        const SAMPLES: u64 = 250;
        let sink = MetricsSink::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let sink = &sink;
                scope.spawn(move || {
                    let device = t % 2;
                    for m in 0..SAMPLES {
                        sink.record(WorkerSample {
                            tasks: 1,
                            chunks: 1,
                            cells: m + 1,
                            busy: Duration::from_micros(10),
                            ..WorkerSample::new(device, t)
                        });
                        if m.is_multiple_of(50) {
                            sink.record_recovery(device, RecoveryEvent::Requeue);
                        }
                    }
                });
            }
        });
        let all = sink.samples();
        assert_eq!(all.len(), THREADS * SAMPLES as usize, "no lost samples");
        let per_thread_cells: u64 = (1..=SAMPLES).sum();
        let cpu = sink.device(0);
        let accel = sink.device(1);
        for d in [&cpu, &accel] {
            assert_eq!(d.tasks, (THREADS as u64 / 2) * SAMPLES);
            assert_eq!(d.chunks, (THREADS as u64 / 2) * SAMPLES);
            assert_eq!(d.cells, (THREADS as u64 / 2) * per_thread_cells);
            assert_eq!(d.requeues, (THREADS as u64 / 2) * SAMPLES.div_ceil(50));
            assert_eq!(d.workers, THREADS * SAMPLES as usize / 2);
        }
        // Aggregation is stable: repeated reads see the same totals.
        assert_eq!(sink.device(0), cpu);
        assert_eq!(sink.device(1), accel);
        assert_eq!(sink.devices(), vec![cpu, accel]);
    }

    #[test]
    fn samples_sorted_by_device_then_worker() {
        let sink = MetricsSink::new();
        sink.record(WorkerSample::new(1, 1));
        sink.record(WorkerSample::new(0, 1));
        sink.record(WorkerSample::new(1, 0));
        sink.record(WorkerSample::new(0, 0));
        let order: Vec<(usize, usize)> = sink
            .samples()
            .iter()
            .map(|s| (s.device, s.worker))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }
}
