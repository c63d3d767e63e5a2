//! The cross-query batching collector: the queue between connection
//! threads and the one thread that runs shared dual-pool regions.
//!
//! Connection handlers park accepted submits here; the collector thread
//! waits on the queue's condvar for the first arrival, which opens the
//! gather window — a condvar wait against a deadline fixed at that
//! arrival: later arrivals wake the collector but never move it, and
//! shutdown ends it within [`SHUTDOWN_POLL`] instead of after a full
//! sleep. The window closes the moment `max_concurrent` jobs are parked
//! (a full region cannot gain a member by waiting) and otherwise at its
//! deadline; the collector then takes up to `max_concurrent` queries and
//! runs them through a single `search_many_resumable` region. Each
//! pending job carries its own reply channel — the demux path back to
//! exactly one connection — and its own scoped drain, so cancelling one
//! query removes only that query's tasks from the shared region.
//!
//! Shutdown closes the queue: `collect` hands back whatever is still
//! queued (the collector replies `cancelled` to each, since their
//! drains are scoped under the daemon signal) and then returns `None`,
//! and any later `enqueue` is refused so no connection can park a job
//! nobody will ever run.

use crate::client::JobReply;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use sw_sched::{DrainSignal, FaultSpec};

/// How often the daemon's waiting threads re-read the shutdown signal:
/// it may be flipped through a parent signal (process SIGINT) that
/// knows nothing of a condvar or a listener. No request waits on this
/// — `enqueue` notifies the collector, `accept` returns on connect.
pub(crate) const SHUTDOWN_POLL: Duration = Duration::from_millis(20);

/// One accepted submit, parked until a region picks it up.
pub(crate) struct PendingJob {
    /// Registry job id; doubles as the trace query tag.
    pub id: u64,
    /// Encoded query residues.
    pub residues: Vec<u8>,
    /// Hits to stream back.
    pub top: usize,
    /// Optional delay drill; the first one in a region arms its
    /// injector.
    pub drill: Option<FaultSpec>,
    /// Per-job drain, scoped under the daemon shutdown signal.
    pub drain: Arc<DrainSignal>,
    /// Demux channel back to the submitting connection.
    pub reply: mpsc::Sender<JobReply>,
}

/// Why a gather window closed — the label of `sw_serve_windows_total`:
/// mostly `full` means the window is buying coalescing, mostly `deadline`
/// with regions of one means it is only buying latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WindowClosed {
    /// `max_concurrent` jobs were parked.
    Full,
    /// The window's deadline passed.
    Deadline,
}

impl WindowClosed {
    /// The label value, in scrapes and on the ops log.
    pub(crate) fn label(self) -> &'static str {
        match self {
            WindowClosed::Full => "full",
            WindowClosed::Deadline => "deadline",
        }
    }
}

struct State {
    queue: VecDeque<PendingJob>,
    closed: bool,
}

/// The queue itself. One mutex + condvar, same audit-friendly shape as
/// the registry.
pub(crate) struct Batcher {
    inner: Mutex<State>,
    wake: Condvar,
}

impl Batcher {
    pub(crate) fn new() -> Self {
        Batcher {
            inner: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// Park a job for the next region. `false` means the queue already
    /// closed (daemon draining) and the caller must cancel the job
    /// itself — nobody will reply on its channel.
    pub(crate) fn enqueue(&self, job: PendingJob) -> bool {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return false;
        }
        g.queue.push_back(job);
        drop(g);
        self.wake.notify_all();
        true
    }

    /// Jobs currently parked waiting for a region — the queue-depth
    /// gauge the health probe reports against the region cap.
    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Collector side: block until at least one job is queued (or
    /// shutdown fires), hold the gather window open until `max` jobs are
    /// parked or its deadline passes so concurrent submits join the same
    /// region, then take up to `max` jobs in arrival order, with why the
    /// window closed. Returns `None` once shutdown has fired and the queue
    /// is empty — the collector's exit condition. Shutdown with jobs
    /// still queued, before or inside the window, closes the queue and
    /// returns them all (no window closed: the reason is `None`) for
    /// cancel replies: launching a region would race the drain, and an
    /// open queue would let a late submit park where no collector will
    /// ever look.
    pub(crate) fn collect(
        &self,
        max: usize,
        window: Duration,
        shutdown: &DrainSignal,
    ) -> Option<(Vec<PendingJob>, Option<WindowClosed>)> {
        let max = max.max(1);
        let mut g = self.inner.lock().unwrap();
        // Fixed when the first job is seen, not moved by later wakeups.
        let mut deadline: Option<Instant> = None;
        loop {
            if shutdown.is_requested() {
                g.closed = true;
                let rest: Vec<PendingJob> = g.queue.drain(..).collect();
                return (!rest.is_empty()).then_some((rest, None));
            }
            let mut wait = SHUTDOWN_POLL;
            if !g.queue.is_empty() {
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + window);
                let closed = if g.queue.len() >= max {
                    Some(WindowClosed::Full)
                } else if now >= deadline {
                    Some(WindowClosed::Deadline)
                } else {
                    None
                };
                if closed.is_some() {
                    let n = g.queue.len().min(max);
                    return Some((g.queue.drain(..n).collect(), closed));
                }
                wait = wait.min(deadline - now);
            }
            g = self.wake.wait_timeout(g, wait).unwrap().0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, reply: mpsc::Sender<JobReply>) -> PendingJob {
        PendingJob {
            id,
            residues: vec![1, 2, 3],
            top: 5,
            drill: None,
            drain: Arc::new(DrainSignal::new()),
            reply,
        }
    }

    #[test]
    fn gather_window_coalesces_and_cap_splits() {
        static OFF: DrainSignal = DrainSignal::new();
        let b = Batcher::new();
        let (tx, _rx) = mpsc::channel();
        for id in 1..=5 {
            assert!(b.enqueue(job(id, tx.clone())));
        }
        let (first, closed) = b.collect(4, Duration::ZERO, &OFF).unwrap();
        assert_eq!(
            first.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![1, 2, 3, 4],
            "arrival order, capped at max_concurrent"
        );
        assert_eq!(closed, Some(WindowClosed::Full));
        // A window that is not full is a deadline that is waited out, not
        // a poll.
        let (window, t0) = (Duration::from_millis(60), Instant::now());
        let (second, closed) = b.collect(4, window, &OFF).unwrap();
        assert_eq!(second.len(), 1, "overflow lands in the next region");
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
        assert_eq!(closed, Some(WindowClosed::Deadline));
    }

    #[test]
    fn full_window_closes_at_once_and_a_lone_job_waits() {
        static LONE: DrainSignal = DrainSignal::new();
        let b = Batcher::new();
        let (tx, _rx) = mpsc::channel();
        let window = Duration::from_secs(60);
        // Two parked jobs fill a region of two: nothing to wait for.
        assert!(b.enqueue(job(1, tx.clone())) && b.enqueue(job(2, tx.clone())));
        let t0 = Instant::now();
        let (pair, closed) = b.collect(2, window, &LONE).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert_eq!((pair.len(), closed), (2, Some(WindowClosed::Full)));
        // One job does not: it stays parked for its window, and shutdown
        // hands it back with no window closed.
        assert!(b.enqueue(job(3, tx)));
        std::thread::scope(|s| {
            let t = s.spawn(|| b.collect(2, window, &LONE));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!t.is_finished(), "a lone job is not a full window");
            LONE.request();
            let (rest, closed) = t.join().unwrap().expect("parked job hands back");
            assert_eq!((rest.len(), closed), (1, None));
        });
    }

    #[test]
    fn shutdown_mid_window_closes_queue() {
        // Shutdown landing INSIDE the gather window (after the pre-sleep
        // check) must still close the queue: otherwise the drained jobs
        // launch a region racing the drain, and a submit arriving after
        // this collect parks forever in a queue nobody reads again.
        static MID: DrainSignal = DrainSignal::new();
        let b = Batcher::new();
        let (tx, _rx) = mpsc::channel();
        assert!(b.enqueue(job(1, tx.clone())));
        std::thread::scope(|s| {
            let t = s.spawn(|| b.collect(4, Duration::from_millis(200), &MID));
            std::thread::sleep(Duration::from_millis(50));
            MID.request();
            let (drained, closed) = t.join().unwrap().expect("parked job hands back");
            assert_eq!((drained.len(), closed), (1, None));
        });
        assert!(
            !b.enqueue(job(2, tx)),
            "queue must close when shutdown lands inside the gather window"
        );
        assert!(b.collect(4, Duration::ZERO, &MID).is_none(), "then closed");
    }

    #[test]
    fn shutdown_drains_queue_then_closes() {
        static DOWN: DrainSignal = DrainSignal::new();
        let b = Batcher::new();
        let (tx, _rx) = mpsc::channel();
        assert!(b.enqueue(job(1, tx.clone())));
        DOWN.request();
        let (last, _) = b.collect(4, Duration::ZERO, &DOWN).unwrap();
        assert_eq!(last.len(), 1, "queued jobs hand back for cancel replies");
        assert!(b.collect(4, Duration::ZERO, &DOWN).is_none(), "then closed");
        assert!(!b.enqueue(job(2, tx)), "no parking after close");
    }
}
