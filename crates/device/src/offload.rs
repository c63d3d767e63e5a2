//! Offload runtime simulator — the `#pragma offload` semantics of
//! Algorithm 2.
//!
//! The paper's heterogeneous version launches the Phi's share
//! asynchronously (`signal(sem)`), computes the host's share, then blocks
//! (`wait(sem)`) before merging scores. This module simulates that
//! runtime: two clocks (host, device), a PCIe link with bandwidth and
//! latency, and a causally-ordered event timeline that the Fig. 8 harness
//! and the energy model both consume.

use crate::model::PcieLink;
use serde::{Deserialize, Serialize};

/// What happened during one timeline interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// Host→device input transfer.
    TransferIn {
        /// Payload size.
        bytes: u64,
    },
    /// Kernel execution on the device.
    Kernel {
        /// Human-readable label.
        label: String,
    },
    /// Device→host output transfer.
    TransferOut {
        /// Payload size.
        bytes: u64,
    },
    /// Host-side compute.
    HostCompute {
        /// Human-readable label.
        label: String,
    },
    /// Host blocked in `wait(sem)`.
    HostWait,
}

/// One interval on the timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Interval start, seconds from simulation start.
    pub start_s: f64,
    /// Interval end.
    pub end_s: f64,
    /// What the interval was.
    pub kind: EventKind,
}

/// Handle returned by an asynchronous offload — Algorithm 2's `sem`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Signal {
    /// Device-clock time at which the offload's results are visible to
    /// the host.
    completion_s: f64,
}

/// The offload runtime simulator.
#[derive(Debug, Clone)]
pub struct OffloadSim {
    link: PcieLink,
    host_clock: f64,
    device_clock: f64,
    timeline: Vec<Event>,
}

impl OffloadSim {
    /// Fresh simulator over `link`, both clocks at zero.
    pub fn new(link: PcieLink) -> Self {
        OffloadSim {
            link,
            host_clock: 0.0,
            device_clock: 0.0,
            timeline: Vec::new(),
        }
    }

    /// Asynchronously offload a kernel: input transfer, device compute
    /// (`kernel_s` of device time), output transfer. The host pays only
    /// the launch overhead and continues — this is
    /// `#pragma offload … signal(sem)`.
    pub fn offload_async(
        &mut self,
        in_bytes: u64,
        kernel_s: f64,
        out_bytes: u64,
        label: &str,
    ) -> Signal {
        assert!(kernel_s >= 0.0, "kernel time must be non-negative");
        // Host-side launch cost.
        self.host_clock += self.link.launch_s;
        // Input DMA starts once both the host has issued it and the device
        // stream is free.
        let t0 = self.host_clock.max(self.device_clock);
        let t1 = t0 + self.link.transfer_time(in_bytes);
        self.timeline.push(Event {
            start_s: t0,
            end_s: t1,
            kind: EventKind::TransferIn { bytes: in_bytes },
        });
        let t2 = t1 + kernel_s;
        self.timeline.push(Event {
            start_s: t1,
            end_s: t2,
            kind: EventKind::Kernel {
                label: label.into(),
            },
        });
        let t3 = t2 + self.link.transfer_time(out_bytes);
        self.timeline.push(Event {
            start_s: t2,
            end_s: t3,
            kind: EventKind::TransferOut { bytes: out_bytes },
        });
        self.device_clock = t3;
        Signal { completion_s: t3 }
    }

    /// Host-side compute for `secs` (Algorithm 2 line 12: the CPU share).
    pub fn host_compute(&mut self, secs: f64, label: &str) {
        assert!(secs >= 0.0, "compute time must be non-negative");
        let t0 = self.host_clock;
        self.host_clock += secs;
        self.timeline.push(Event {
            start_s: t0,
            end_s: self.host_clock,
            kind: EventKind::HostCompute {
                label: label.into(),
            },
        });
    }

    /// Block the host until the offload signalled by `sig` has completed —
    /// `#pragma offload wait(sem)`.
    pub fn wait(&mut self, sig: Signal) {
        if sig.completion_s > self.host_clock {
            self.timeline.push(Event {
                start_s: self.host_clock,
                end_s: sig.completion_s,
                kind: EventKind::HostWait,
            });
            self.host_clock = sig.completion_s;
        }
    }

    /// Current host clock (wall-clock of the heterogeneous run so far).
    pub fn elapsed(&self) -> f64 {
        self.host_clock
    }

    /// Device busy time (transfers + kernels) — energy accounting input.
    pub fn device_busy(&self) -> f64 {
        self.device_events().map(|e| e.end_s - e.start_s).sum()
    }

    /// Host busy time (compute only, excluding waits).
    pub fn host_busy(&self) -> f64 {
        self.timeline
            .iter()
            .filter(|e| matches!(e.kind, EventKind::HostCompute { .. }))
            .map(|e| e.end_s - e.start_s)
            .sum()
    }

    /// The full event timeline.
    pub fn timeline(&self) -> &[Event] {
        &self.timeline
    }

    /// The device stream's intervals: transfers and kernels.
    fn device_events(&self) -> impl Iterator<Item = &Event> {
        self.timeline.iter().filter(|e| {
            matches!(
                e.kind,
                EventKind::TransferIn { .. }
                    | EventKind::Kernel { .. }
                    | EventKind::TransferOut { .. }
            )
        })
    }

    /// Render the timeline as a two-row ASCII Gantt chart (`host` /
    /// `device`), `width` columns wide. Legend: `#` compute, `=`
    /// transfer, `.` wait/idle. The legend's `X fault` key is never drawn
    /// by this simulator; it stays so printed timelines keep their form.
    pub fn render_timeline(&self, width: usize) -> String {
        let width = width.max(10);
        let span = self
            .timeline
            .iter()
            .map(|e| e.end_s)
            .fold(self.host_clock, f64::max)
            .max(1e-12);
        let mut host = vec![b' '; width];
        let mut device = vec![b' '; width];
        let col = |t: f64| -> usize { ((t / span) * (width as f64 - 1.0)) as usize };
        for e in &self.timeline {
            let (row, ch): (&mut Vec<u8>, u8) = match e.kind {
                EventKind::HostCompute { .. } => (&mut host, b'#'),
                EventKind::HostWait => (&mut host, b'.'),
                EventKind::Kernel { .. } => (&mut device, b'#'),
                EventKind::TransferIn { .. } | EventKind::TransferOut { .. } => (&mut device, b'='),
            };
            let (a, b) = (col(e.start_s), col(e.end_s));
            for c in row.iter_mut().take(b + 1).skip(a) {
                *c = ch;
            }
        }
        format!(
            "host   |{}|\ndevice |{}|  ({:.3}s total; # compute, = transfer, . wait, X fault)",
            String::from_utf8(host).expect("ascii"),
            String::from_utf8(device).expect("ascii"),
            span
        )
    }

    /// Validate causal consistency: every event has non-negative duration
    /// and device-stream events do not overlap each other.
    pub fn check_causality(&self) -> bool {
        if self.timeline.iter().any(|e| e.end_s < e.start_s) {
            return false;
        }
        let mut device_events: Vec<(f64, f64)> =
            self.device_events().map(|e| (e.start_s, e.end_s)).collect();
        device_events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        device_events.windows(2).all(|w| w[0].1 <= w[1].0 + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> PcieLink {
        PcieLink {
            bandwidth_bps: 1e9,
            latency_s: 1e-3,
            launch_s: 1e-3,
        }
    }

    #[test]
    fn algorithm2_overlap() {
        // Offload 1 GB in (1.001 s), 10 s kernel, tiny out; host computes
        // 8 s meanwhile; wall clock = device path, host wait > 0.
        let mut sim = OffloadSim::new(link());
        let sig = sim.offload_async(1_000_000_000, 10.0, 1000, "phi share");
        sim.host_compute(8.0, "cpu share");
        sim.wait(sig);
        let elapsed = sim.elapsed();
        // Device path: 0.001 (launch) + 1.001 + 10 + 0.001001 ≈ 11.003.
        assert!((elapsed - 11.003).abs() < 0.01, "elapsed {elapsed}");
        assert!(sim.check_causality());
        assert!(sim.host_busy() > 7.9 && sim.host_busy() < 8.1);
        assert!(sim.device_busy() > 11.0 && sim.device_busy() < 11.1);
    }

    #[test]
    fn host_bound_run_has_no_wait() {
        let mut sim = OffloadSim::new(link());
        let sig = sim.offload_async(1000, 1.0, 1000, "small phi share");
        sim.host_compute(10.0, "big cpu share");
        sim.wait(sig);
        // Host finished after the device: wait is a no-op.
        assert!((sim.elapsed() - (0.001 + 10.0)).abs() < 1e-6);
        assert!(!sim
            .timeline()
            .iter()
            .any(|e| matches!(e.kind, EventKind::HostWait)));
    }

    #[test]
    fn wait_records_idle_interval() {
        let mut sim = OffloadSim::new(link());
        let sig = sim.offload_async(0, 5.0, 0, "k");
        sim.wait(sig);
        assert!(sim
            .timeline()
            .iter()
            .any(|e| matches!(e.kind, EventKind::HostWait)));
        assert!(sim.check_causality());
    }

    #[test]
    fn sequential_offloads_queue_on_device() {
        let mut sim = OffloadSim::new(link());
        let s1 = sim.offload_async(0, 2.0, 0, "k1");
        let s2 = sim.offload_async(0, 3.0, 0, "k2");
        assert!(s2.completion_s > s1.completion_s + 2.9);
        sim.wait(s2);
        assert!(sim.check_causality());
    }

    #[test]
    fn zero_byte_transfers_cost_latency_only() {
        let sim_link = link();
        let mut sim = OffloadSim::new(sim_link);
        let sig = sim.offload_async(0, 0.0, 0, "noop");
        sim.wait(sig);
        // launch + 2 × latency.
        assert!((sim.elapsed() - (1e-3 + 2e-3)).abs() < 1e-9);
    }

    #[test]
    fn timeline_rendering() {
        let mut sim = OffloadSim::new(link());
        let sig = sim.offload_async(1_000_000_000, 5.0, 0, "k");
        sim.host_compute(3.0, "c");
        sim.wait(sig);
        let text = sim.render_timeline(60);
        assert!(text.contains("host   |"));
        assert!(text.contains("device |"));
        // Host computed then waited; device transferred then computed.
        let host_row = text.lines().next().unwrap();
        let dev_row = text.lines().nth(1).unwrap();
        assert!(host_row.contains('#') && host_row.contains('.'));
        assert!(dev_row.contains('=') && dev_row.contains('#'));
        // Rows are equal width.
        assert_eq!(
            host_row.find('|').map(|a| host_row.rfind('|').unwrap() - a),
            dev_row.find('|').map(|a| dev_row.rfind('|').unwrap() - a)
        );
    }

    #[test]
    fn timeline_durations_non_negative() {
        let mut sim = OffloadSim::new(link());
        let sig = sim.offload_async(500, 0.5, 500, "k");
        sim.host_compute(0.0, "empty");
        sim.wait(sig);
        assert!(sim.timeline().iter().all(|e| e.end_s >= e.start_s));
    }
}
