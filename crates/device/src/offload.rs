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
use sw_trace::WorkerJournal;

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
    /// The device died mid-kernel: the offload produced no results and
    /// the host must re-run the share itself (graceful degradation).
    DeviceFault {
        /// Human-readable label of the failed kernel.
        label: String,
    },
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
    /// True when the offload died mid-kernel and produced no results.
    failed: bool,
}

/// What [`OffloadSim::wait_timeout`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaitOutcome {
    /// The offload's results are visible; the host may merge them.
    Completed,
    /// The offload was still silent when the timeout expired. The host
    /// gave up waiting and must treat the share as lost.
    TimedOut,
    /// The offload died mid-kernel; the host saw the fault as soon as it
    /// reached the wait.
    Failed,
}

/// The offload runtime simulator.
#[derive(Debug)]
pub struct OffloadSim {
    link: PcieLink,
    host_clock: f64,
    device_clock: f64,
    timeline: Vec<Event>,
    /// Attached trace journal; a disabled journal (the default) makes
    /// every emission a no-op.
    journal: WorkerJournal,
}

impl Clone for OffloadSim {
    /// Clones the simulator state but *not* the journal — two simulators
    /// writing the same worker track would interleave nonsense, so the
    /// clone starts with a disabled journal.
    fn clone(&self) -> Self {
        OffloadSim {
            link: self.link,
            host_clock: self.host_clock,
            device_clock: self.device_clock,
            timeline: self.timeline.clone(),
            journal: WorkerJournal::disabled(),
        }
    }
}

/// Simulated seconds → the journal's microsecond clock.
fn sim_us(t: f64) -> u64 {
    (t * 1e6).round() as u64
}

impl OffloadSim {
    /// Fresh simulator over `link`, both clocks at zero.
    pub fn new(link: PcieLink) -> Self {
        OffloadSim {
            link,
            host_clock: 0.0,
            device_clock: 0.0,
            timeline: Vec::new(),
            journal: WorkerJournal::disabled(),
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
        self.journal.emit_at(
            sim_us(self.host_clock),
            sw_trace::EventKind::OffloadSignal { bytes: in_bytes },
        );
        Signal {
            completion_s: t3,
            failed: false,
        }
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
        let blocked_us = sim_us(sig.completion_s).saturating_sub(sim_us(self.host_clock));
        if sig.completion_s > self.host_clock {
            self.timeline.push(Event {
                start_s: self.host_clock,
                end_s: sig.completion_s,
                kind: EventKind::HostWait,
            });
            self.host_clock = sig.completion_s;
        }
        self.journal.emit_at(
            sim_us(self.host_clock),
            sw_trace::EventKind::OffloadWait { us: blocked_us },
        );
    }

    /// Fault-aware wait with a deadline: block until the offload
    /// completes, fails, or `timeout_s` of host time elapses, whichever
    /// comes first. A timed-out wait leaves the host clock at the
    /// deadline — the production pattern for detecting a wedged device
    /// (the real executor's `accel_timeout_ms` is the same guard).
    pub fn wait_timeout(&mut self, sig: Signal, timeout_s: f64) -> WaitOutcome {
        assert!(
            timeout_s >= 0.0 && timeout_s.is_finite(),
            "timeout must be finite and non-negative"
        );
        let deadline = self.host_clock + timeout_s;
        // The signal (completion or fault) becomes visible at
        // `completion_s`; past the deadline the host stops watching.
        let until = sig.completion_s.min(deadline);
        let blocked_us = sim_us(until).saturating_sub(sim_us(self.host_clock));
        if until > self.host_clock {
            self.timeline.push(Event {
                start_s: self.host_clock,
                end_s: until,
                kind: EventKind::HostWait,
            });
            self.host_clock = until;
        }
        if sig.completion_s > deadline {
            self.journal.emit_at(
                sim_us(self.host_clock),
                sw_trace::EventKind::OffloadTimeout {
                    us: sim_us(timeout_s),
                },
            );
            WaitOutcome::TimedOut
        } else {
            self.journal.emit_at(
                sim_us(self.host_clock),
                sw_trace::EventKind::OffloadWait { us: blocked_us },
            );
            if sig.failed {
                WaitOutcome::Failed
            } else {
                WaitOutcome::Completed
            }
        }
    }

    /// Current host clock (wall-clock of the heterogeneous run so far).
    pub fn elapsed(&self) -> f64 {
        self.host_clock
    }

    /// Device busy time (transfers + kernels, including the burnt time of
    /// a kernel that died mid-run) — energy accounting input.
    pub fn device_busy(&self) -> f64 {
        self.timeline
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::TransferIn { .. }
                        | EventKind::Kernel { .. }
                        | EventKind::TransferOut { .. }
                        | EventKind::DeviceFault { .. }
                )
            })
            .map(|e| e.end_s - e.start_s)
            .sum()
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

    /// Render the timeline as a two-row ASCII Gantt chart (`host` /
    /// `device`), `width` columns wide. Legend: `#` compute, `=`
    /// transfer, `.` wait/idle.
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
                EventKind::DeviceFault { .. } => (&mut device, b'X'),
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
        let mut device_events: Vec<(f64, f64)> = self
            .timeline
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::TransferIn { .. }
                        | EventKind::Kernel { .. }
                        | EventKind::TransferOut { .. }
                        | EventKind::DeviceFault { .. }
                )
            })
            .map(|e| (e.start_s, e.end_s))
            .collect();
        device_events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        device_events.windows(2).all(|w| w[0].1 <= w[1].0 + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The journal attach point and the failing offload exist for these
    /// tests only: no search path attaches a journal or injects a device
    /// fault into the simulated link.
    impl OffloadSim {
        /// Attach a trace journal: offload signals, waits and timeouts are
        /// emitted into it at the simulated clock (see `sw-trace`). The
        /// journal flushes its events when the simulator is dropped or the
        /// journal is detached.
        fn attach_journal(&mut self, journal: WorkerJournal) {
            self.journal = journal;
        }

        /// Detach the attached journal (a disabled journal remains).
        fn detach_journal(&mut self) -> WorkerJournal {
            std::mem::take(&mut self.journal)
        }

        /// An offload whose kernel dies after `fail_after_s` seconds of
        /// device time: the input transfer happens, the kernel runs partially,
        /// then a [`EventKind::DeviceFault`] is recorded — no output transfer,
        /// no results. Waiting on the returned signal reports
        /// [`WaitOutcome::Failed`] and the host must recompute the share.
        fn offload_async_failing(
            &mut self,
            in_bytes: u64,
            fail_after_s: f64,
            label: &str,
        ) -> Signal {
            assert!(fail_after_s >= 0.0, "fault time must be non-negative");
            self.host_clock += self.link.launch_s;
            let t0 = self.host_clock.max(self.device_clock);
            let t1 = t0 + self.link.transfer_time(in_bytes);
            self.timeline.push(Event {
                start_s: t0,
                end_s: t1,
                kind: EventKind::TransferIn { bytes: in_bytes },
            });
            let t2 = t1 + fail_after_s;
            self.timeline.push(Event {
                start_s: t1,
                end_s: t2,
                kind: EventKind::DeviceFault {
                    label: label.into(),
                },
            });
            self.device_clock = t2;
            self.journal.emit_at(
                sim_us(self.host_clock),
                sw_trace::EventKind::OffloadSignal { bytes: in_bytes },
            );
            Signal {
                completion_s: t2,
                failed: true,
            }
        }
    }

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
    fn failing_offload_reports_failed_wait() {
        let mut sim = OffloadSim::new(link());
        let sig = sim.offload_async_failing(1000, 2.0, "doomed");
        sim.host_compute(1.0, "cpu share");
        assert_eq!(sim.wait_timeout(sig, 100.0), WaitOutcome::Failed);
        assert!(sim
            .timeline()
            .iter()
            .any(|e| matches!(e.kind, EventKind::DeviceFault { .. })));
        // No output transfer ever happened.
        assert!(!sim
            .timeline()
            .iter()
            .any(|e| matches!(e.kind, EventKind::TransferOut { .. })));
        // The burnt device time still counts toward energy accounting.
        assert!(sim.device_busy() > 2.0);
        assert!(sim.check_causality());
    }

    #[test]
    fn wedged_offload_times_out_at_the_deadline() {
        let mut sim = OffloadSim::new(link());
        // A kernel that would take 100 s models a wedged device.
        let sig = sim.offload_async(0, 100.0, 0, "wedged");
        let before = sim.elapsed();
        assert_eq!(sim.wait_timeout(sig, 5.0), WaitOutcome::TimedOut);
        // The host stopped watching exactly at the deadline.
        assert!((sim.elapsed() - (before + 5.0)).abs() < 1e-9);
        assert!(sim.check_causality());
    }

    #[test]
    fn healthy_offload_completes_within_timeout() {
        let mut sim = OffloadSim::new(link());
        let sig = sim.offload_async(0, 1.0, 0, "k");
        assert_eq!(sim.wait_timeout(sig, 50.0), WaitOutcome::Completed);
        // wait_timeout leaves the clock where plain wait would have.
        let mut reference = OffloadSim::new(link());
        let sig2 = reference.offload_async(0, 1.0, 0, "k");
        reference.wait(sig2);
        assert!((sim.elapsed() - reference.elapsed()).abs() < 1e-12);
    }

    #[test]
    fn failed_offload_renders_fault_marker() {
        let mut sim = OffloadSim::new(link());
        let sig = sim.offload_async_failing(1_000_000_000, 5.0, "dead");
        sim.wait_timeout(sig, 100.0);
        let text = sim.render_timeline(60);
        assert!(text.lines().nth(1).unwrap().contains('X'));
    }

    #[test]
    fn attached_journal_records_offload_events() {
        let tracer = sw_trace::Tracer::full();
        let mut sim = OffloadSim::new(link());
        sim.attach_journal(tracer.worker(1, 0));
        let sig = sim.offload_async(1_000_000, 5.0, 1000, "phi share");
        sim.host_compute(1.0, "cpu share");
        sim.wait(sig);
        let wedged = sim.offload_async(0, 100.0, 0, "wedged");
        assert_eq!(sim.wait_timeout(wedged, 2.0), WaitOutcome::TimedOut);
        drop(sim.detach_journal());
        let tl = tracer.timeline();
        assert_eq!(tl.count("offload_signal"), 2);
        assert_eq!(tl.count("offload_wait"), 1);
        assert_eq!(tl.count("offload_timeout"), 1);
        // Events carry the simulated clock, so the first wait ends at the
        // device path's completion (~6 s), not at wall zero.
        let wait_t = tl
            .events_sorted()
            .iter()
            .find_map(|(_, _, e)| match e.kind {
                sw_trace::EventKind::OffloadWait { .. } => Some(e.t_us),
                _ => None,
            })
            .expect("wait event");
        assert!(wait_t > 5_000_000, "wait stamped at sim clock: {wait_t}");
    }

    #[test]
    fn cloned_sim_does_not_share_the_journal() {
        let tracer = sw_trace::Tracer::full();
        let mut sim = OffloadSim::new(link());
        sim.attach_journal(tracer.worker(1, 0));
        let mut copy = sim.clone();
        let sig = copy.offload_async(10, 1.0, 10, "cloned");
        copy.wait(sig);
        drop(copy);
        drop(sim.detach_journal());
        assert_eq!(tracer.timeline().total_events(), 0);
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
