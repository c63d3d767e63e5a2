//! The per-device record the dual-pool executor reports through.
//!
//! §VI of the paper: *"The key to have good scalability in a heterogeneous
//! system is to find an optimal distribution workload."* [`MetricsSink`]
//! records what each device pool actually did, so the engine and the CLI
//! can report the realised distribution.

use std::sync::{Mutex, PoisonError};

pub use sw_trace::DeviceMetrics;

/// One [`DeviceMetrics`] per device pool (`[cpu, accel]`) of one
/// parallel region, updated in place: a worker adds its counts once, at
/// exit, and a recovery event bumps its field as it happens, so
/// [`MetricsSink::device`] is a copy.
#[derive(Debug)]
pub struct MetricsSink(Mutex<[DeviceMetrics; 2]>);

impl Default for MetricsSink {
    fn default() -> Self {
        let pool = |device| DeviceMetrics {
            device,
            ..DeviceMetrics::default()
        };
        MetricsSink(Mutex::new([pool(0), pool(1)]))
    }
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Update `device`'s record in place. The lock never stays poisoned:
    /// the record is plain data, changed in whole-field steps.
    pub(crate) fn update(&self, device: usize, f: impl FnOnce(&mut DeviceMetrics)) {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner)[device]);
    }

    /// A copy of `device`'s record.
    pub fn device(&self, device: usize) -> DeviceMetrics {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)[device]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// What a worker adds at exit.
    fn worker_exit(sink: &MetricsSink, device: usize, tasks: u64, busy: Duration, cells: u64) {
        sink.update(device, |m| {
            m.workers += 1;
            m.tasks += tasks;
            m.chunks += 1;
            m.busy += busy;
            m.cells += cells;
        });
    }

    #[test]
    fn sink_aggregates_per_device() {
        let sink = MetricsSink::new();
        worker_exit(&sink, 0, 10, Duration::from_secs(2), 1_000_000_000);
        worker_exit(&sink, 0, 6, Duration::from_secs(2), 3_000_000_000);
        worker_exit(&sink, 1, 4, Duration::from_secs(1), 500_000_000);
        let cpu = sink.device(0);
        assert_eq!(cpu.device, 0);
        assert_eq!(cpu.workers, 2);
        assert_eq!(cpu.tasks, 16);
        assert_eq!(cpu.chunks, 2);
        assert_eq!(cpu.cells, 4_000_000_000);
        assert!(!cpu.degraded);
        assert!(
            (cpu.gcups() - 1.0).abs() < 1e-9,
            "4e9 cells over 4 busy seconds"
        );
        let accel = sink.device(1);
        assert_eq!(accel.device, 1);
        assert_eq!(accel.tasks, 4);
        assert!((accel.gcups() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn idle_device_reports_zero_gcups() {
        let sink = MetricsSink::new();
        worker_exit(&sink, 0, 0, Duration::ZERO, 0);
        let m = sink.device(0);
        assert_eq!(m.gcups(), 0.0);
        assert_eq!(m.tasks, 0);
        assert_eq!(m.workers, 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // N threads × M updates (plus recovery bumps) hammering one
        // sink: nothing may be lost and each device's record must be
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
                        worker_exit(sink, device, 1, Duration::from_micros(10), m + 1);
                        if m.is_multiple_of(50) {
                            sink.update(device, |d| d.requeues += 1);
                        }
                    }
                });
            }
        });
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
        // Reads are stable: repeated reads see the same totals.
        assert_eq!(sink.device(0), cpu);
        assert_eq!(sink.device(1), accel);
    }
}
