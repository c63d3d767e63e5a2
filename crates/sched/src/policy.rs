//! OpenMP-style scheduling policies as explicit chunk generators.
//!
//! A policy answers one question: *when a worker becomes free, which
//! contiguous range of loop iterations does it take next?* Modelling this
//! explicitly lets the discrete-event simulator replay the paper's three
//! OpenMP schedules exactly. The dual-pool primitives below it
//! ([`DualQueue`], [`ClaimOrder`], [`SplitEstimator`],
//! [`adaptive_chunk`]) are the real executor's.

use serde::{Deserialize, Serialize};

/// The three `schedule(...)` kinds the paper evaluates (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// `schedule(static)`: iterations pre-partitioned into one contiguous
    /// block per worker.
    Static,
    /// `schedule(dynamic, chunk)`: free workers grab `chunk` iterations
    /// from a shared counter. The paper's winner.
    Dynamic {
        /// Iterations per grab (OpenMP default 1).
        chunk: usize,
    },
    /// `schedule(guided, min_chunk)`: grab size decays with remaining
    /// work: `max(remaining / (2·workers), min_chunk)`.
    Guided {
        /// Smallest grab (OpenMP default 1).
        min_chunk: usize,
    },
}

impl Policy {
    /// Dynamic with the OpenMP default chunk of 1.
    pub fn dynamic() -> Self {
        Policy::Dynamic { chunk: 1 }
    }

    /// Guided with the OpenMP default minimum chunk of 1.
    pub fn guided() -> Self {
        Policy::Guided { min_chunk: 1 }
    }

    /// Paper-style label for tables.
    pub fn label(&self) -> String {
        match self {
            Policy::Static => "static".to_string(),
            Policy::Dynamic { chunk } => format!("dynamic({chunk})"),
            Policy::Guided { min_chunk } => format!("guided({min_chunk})"),
        }
    }
}

/// The static pre-partition: contiguous ranges, remainder spread over the
/// first workers (OpenMP-conformant block schedule).
pub fn static_partition(n_tasks: usize, workers: usize) -> Vec<(usize, usize)> {
    assert!(workers >= 1, "need at least one worker");
    let base = n_tasks / workers;
    let extra = n_tasks % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Shared-counter chunk dispenser used by dynamic/guided scheduling.
#[derive(Debug)]
pub struct ChunkDispenser {
    policy: Policy,
    workers: usize,
    n_tasks: usize,
    next: usize,
}

impl ChunkDispenser {
    /// A dispenser over `n_tasks` iterations for `workers` workers.
    ///
    /// # Panics
    /// Panics for [`Policy::Static`] (static scheduling has no shared
    /// counter — use [`static_partition`]).
    pub fn new(policy: Policy, n_tasks: usize, workers: usize) -> Self {
        assert!(
            !matches!(policy, Policy::Static),
            "static scheduling is a pre-partition, not a dispenser"
        );
        assert!(workers >= 1, "need at least one worker");
        ChunkDispenser {
            policy,
            workers,
            n_tasks,
            next: 0,
        }
    }

    /// Next chunk `[start, end)`, or `None` when the loop is exhausted.
    pub fn grab(&mut self) -> Option<(usize, usize)> {
        if self.next >= self.n_tasks {
            return None;
        }
        let remaining = self.n_tasks - self.next;
        let size = match self.policy {
            Policy::Dynamic { chunk } => chunk.max(1),
            Policy::Guided { min_chunk } => (remaining / (2 * self.workers)).max(min_chunk.max(1)),
            Policy::Static => unreachable!("rejected in new()"),
        }
        .min(remaining);
        let start = self.next;
        self.next += size;
        Some((start, start + size))
    }
}

/// The two device pools of the heterogeneous dual-pool scheduler.
///
/// Device 0 is the CPU share (pulls short sequences from the *front* of
/// the length-sorted task list), device 1 the accelerator share (pulls
/// long sequences from the *back*, which amortise per-task overheads
/// best — the same assignment Algorithm 2 makes statically).
pub const DEVICE_CPU: usize = 0;
/// The accelerator-share device id. See [`DEVICE_CPU`].
pub const DEVICE_ACCEL: usize = 1;

/// A double-ended queue over the positions `0..n` of a region's
/// [`ClaimOrder`]: the CPU pool consumes from the front, the accelerator
/// pool from the back, and the pools meet wherever observed throughput
/// puts the boundary — the *dynamic* replacement for Algorithm 2's static
/// split point.
///
/// The queue may be cut into segments (ascending interior positions).
/// The one segment rule: a claim never crosses a cut — [`take_front`]
/// stops at the next cut after the front, [`take_back`] at the last cut
/// before the back — so a segment's last commit never waits on a task
/// of another segment. With no cuts a claim is bounded only by the
/// other end.
///
/// The executor keeps it under the same lock as its lease table.
///
/// [`take_front`]: Self::take_front
/// [`take_back`]: Self::take_back
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DualQueue {
    front: usize,
    back: usize,
    cuts: Vec<usize>,
}

impl DualQueue {
    /// A queue over `0..n_tasks` with no segment cuts.
    pub fn new(n_tasks: usize) -> Self {
        DualQueue::with_cuts(n_tasks, Vec::new())
    }

    /// A queue over `0..n_tasks` cut into segments at `cuts`.
    ///
    /// # Panics
    /// Panics unless `cuts` ascends strictly inside `(0, n_tasks)`.
    pub(crate) fn with_cuts(n_tasks: usize, cuts: Vec<usize>) -> Self {
        assert!(
            cuts.first().is_none_or(|&c| c > 0)
                && cuts.last().is_none_or(|&c| c < n_tasks)
                && cuts.windows(2).all(|w| w[0] < w[1]),
            "segment cuts must ascend strictly inside (0, {n_tasks}): {cuts:?}"
        );
        DualQueue {
            front: 0,
            back: n_tasks,
            cuts,
        }
    }

    /// Tasks not yet claimed by either pool.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.back - self.front
    }

    /// Claim up to `k` positions from the front (CPU side), stopping at
    /// the next segment cut. Returns the claimed `[start, end)` range, or
    /// `None` when the queue is drained.
    pub fn take_front(&mut self, k: usize) -> Option<(usize, usize)> {
        if self.front >= self.back {
            return None;
        }
        let next_cut = self.cuts.partition_point(|&c| c <= self.front);
        let stop = self
            .cuts
            .get(next_cut)
            .map_or(self.back, |&c| c.min(self.back));
        let start = self.front;
        self.front += k.max(1).min(stop - start);
        Some((start, self.front))
    }

    /// Claim up to `k` positions from the back (accelerator side),
    /// stopping at the last segment cut before the back.
    pub fn take_back(&mut self, k: usize) -> Option<(usize, usize)> {
        if self.front >= self.back {
            return None;
        }
        let prev_cut = self.cuts.partition_point(|&c| c < self.back);
        let stop = prev_cut
            .checked_sub(1)
            .map_or(self.front, |i| self.cuts[i].max(self.front));
        let end = self.back;
        self.back -= k.max(1).min(end - stop);
        Some((self.back, end))
    }
}

/// The order in which a region's queue hands its tasks out: queue
/// position `p` claims task `tasks[p]`, and the positions are cut into
/// segments that no claim crosses ([`DualQueue`]'s segment rule).
///
/// The empty order ([`ClaimOrder::identity`]) is the identity with no
/// cuts: position `p` claims task `p`. The executor resolves every order,
/// the identity included, into one position → task table and one
/// segmented queue, so there is one claim path. Results, hooks and
/// checkpoints stay keyed by task id; only the claim sequence depends on
/// the order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClaimOrder {
    tasks: Vec<usize>,
    cuts: Vec<usize>,
}

impl ClaimOrder {
    /// The identity order: position `p` claims task `p`, one segment.
    pub fn identity() -> Self {
        ClaimOrder::default()
    }

    /// Concatenate `segments` — each the task ids of one segment in
    /// position order — into one order, cut between consecutive
    /// non-empty segments. Empty segments are skipped.
    pub fn from_segments<S: IntoIterator<Item = usize>>(
        segments: impl IntoIterator<Item = S>,
    ) -> Self {
        let mut order = ClaimOrder::default();
        for segment in segments {
            let start = order.tasks.len();
            order.tasks.extend(segment);
            if start > 0 && order.tasks.len() > start {
                order.cuts.push(start);
            }
        }
        order
    }

    /// Queue position → task id (empty for the identity).
    pub fn tasks(&self) -> &[usize] {
        &self.tasks
    }

    /// The positions where one segment ends and the next begins.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// The position → task table of a region of `n_tasks` tasks (the
    /// identity table for an empty order) and the queue that hands the
    /// positions out, cut at this order's segment boundaries.
    ///
    /// # Panics
    /// Panics when a non-empty order is not a permutation of
    /// `0..n_tasks`.
    pub(crate) fn into_queue(self, n_tasks: usize) -> (Vec<usize>, DualQueue) {
        if self.tasks.is_empty() {
            return ((0..n_tasks).collect(), DualQueue::new(n_tasks));
        }
        let mut seen = vec![false; n_tasks];
        let is_permutation = self.tasks.len() == n_tasks
            && self
                .tasks
                .iter()
                .all(|&t| t < n_tasks && !std::mem::replace(&mut seen[t], true));
        assert!(
            is_permutation,
            "a claim order must be a permutation of 0..{n_tasks}"
        );
        let queue = DualQueue::with_cuts(n_tasks, self.cuts);
        (self.tasks, queue)
    }
}

/// Adaptive feedback estimator for the dual-pool scheduler.
///
/// Starts from the static plan's accelerator share (`plan_split` stays
/// the *initial* assignment) and, once both devices have measured
/// throughput, re-balances the remaining queue from the observed
/// cells-per-second of each pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitEstimator {
    initial_accel_share: f64,
}

impl SplitEstimator {
    /// An estimator seeded with the static plan's accelerator share.
    ///
    /// # Panics
    /// Panics when `initial_accel_share` is NaN or outside `[0, 1]` — a
    /// nonsense seed would silently mis-size every chunk.
    pub fn new(initial_accel_share: f64) -> Self {
        assert!(
            initial_accel_share.is_finite() && (0.0..=1.0).contains(&initial_accel_share),
            "initial accelerator share must be a finite fraction in [0, 1], got \
             {initial_accel_share}"
        );
        SplitEstimator {
            initial_accel_share,
        }
    }

    /// The accelerator's share of the *remaining* work, from observed
    /// per-device progress (cells processed over busy nanoseconds). Until
    /// both devices have measurements, the static plan's share is used.
    /// The result is clamped to `[0.02, 0.98]` so neither pool's chunk
    /// size collapses to zero on a transient estimate.
    pub fn accel_share(
        &self,
        cpu_cells: u64,
        cpu_busy_nanos: u64,
        accel_cells: u64,
        accel_busy_nanos: u64,
    ) -> f64 {
        if cpu_busy_nanos == 0 || accel_busy_nanos == 0 {
            return self.initial_accel_share;
        }
        let cpu_rate = cpu_cells as f64 / cpu_busy_nanos as f64;
        let accel_rate = accel_cells as f64 / accel_busy_nanos as f64;
        if cpu_rate + accel_rate <= 0.0 {
            return self.initial_accel_share;
        }
        (accel_rate / (cpu_rate + accel_rate)).clamp(0.02, 0.98)
    }
}

/// Chunk size for a dual-pool worker: the device's estimated share of the
/// remaining queue, spread over twice its worker count (the same decay
/// shape as guided scheduling, so chunks shrink as the pools converge on
/// the boundary), never below `min_chunk` or one task.
pub fn adaptive_chunk(
    remaining: usize,
    device_share: f64,
    workers: usize,
    min_chunk: usize,
) -> usize {
    assert!(workers >= 1, "need at least one worker");
    let target = (remaining as f64 * device_share / (2.0 * workers as f64)).floor() as usize;
    target.max(min_chunk.max(1)).min(remaining.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_partition_covers_everything() {
        let parts = static_partition(10, 3);
        assert_eq!(parts, vec![(0, 4), (4, 7), (7, 10)]);
        let total: usize = parts.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn static_partition_more_workers_than_tasks() {
        let parts = static_partition(2, 5);
        assert_eq!(parts.iter().filter(|(s, e)| e > s).count(), 2);
        assert_eq!(parts.len(), 5);
    }

    #[test]
    fn dynamic_dispenser_unit_chunks() {
        let mut d = ChunkDispenser::new(Policy::dynamic(), 3, 8);
        assert_eq!(d.grab(), Some((0, 1)));
        assert_eq!(d.grab(), Some((1, 2)));
        assert_eq!(d.grab(), Some((2, 3)));
        assert_eq!(d.grab(), None);
    }

    #[test]
    fn dynamic_dispenser_chunked() {
        let mut d = ChunkDispenser::new(Policy::Dynamic { chunk: 4 }, 10, 2);
        assert_eq!(d.grab(), Some((0, 4)));
        assert_eq!(d.grab(), Some((4, 8)));
        assert_eq!(d.grab(), Some((8, 10)), "tail chunk is truncated");
        assert_eq!(d.grab(), None);
    }

    #[test]
    fn guided_chunks_decay() {
        let mut d = ChunkDispenser::new(Policy::guided(), 100, 4);
        let first = d.grab().unwrap();
        assert_eq!(first, (0, 12)); // 100 / (2·4) = 12
        let second = d.grab().unwrap();
        assert_eq!(second.1 - second.0, 11); // 88 / 8 = 11
                                             // Drain; sizes never grow and everything is covered exactly once.
        let mut covered = second.1;
        let mut last = second.1 - second.0;
        while let Some((s, e)) = d.grab() {
            assert_eq!(s, covered);
            assert!(e - s <= last);
            last = (e - s).max(1);
            covered = e;
        }
        assert_eq!(covered, 100);
    }

    #[test]
    fn guided_respects_min_chunk() {
        let mut d = ChunkDispenser::new(Policy::Guided { min_chunk: 7 }, 20, 10);
        let (s, e) = d.grab().unwrap();
        assert_eq!((s, e), (0, 7));
    }

    #[test]
    #[should_panic(expected = "pre-partition")]
    fn static_dispenser_rejected() {
        ChunkDispenser::new(Policy::Static, 10, 2);
    }

    #[test]
    fn labels() {
        assert_eq!(Policy::Static.label(), "static");
        assert_eq!(Policy::dynamic().label(), "dynamic(1)");
        assert_eq!(Policy::Guided { min_chunk: 2 }.label(), "guided(2)");
    }

    #[test]
    fn empty_loop() {
        let mut d = ChunkDispenser::new(Policy::dynamic(), 0, 4);
        assert_eq!(d.grab(), None);
        assert!(static_partition(0, 3).iter().all(|(s, e)| s == e));
    }

    #[test]
    fn dual_queue_meets_in_the_middle() {
        let mut q = DualQueue::new(10);
        assert_eq!(q.take_front(3), Some((0, 3)));
        assert_eq!(q.take_back(4), Some((6, 10)));
        assert_eq!(q.remaining(), 3);
        // Over-ask is truncated to what's left.
        assert_eq!(q.take_front(100), Some((3, 6)));
        assert_eq!(q.take_front(1), None);
        assert_eq!(q.take_back(1), None);
    }

    #[test]
    fn dual_queue_covers_every_task_exactly_once() {
        let mut q = DualQueue::new(37);
        let mut seen = [false; 37];
        let mut from_front = true;
        loop {
            let grab = if from_front {
                q.take_front(2)
            } else {
                q.take_back(3)
            };
            from_front = !from_front;
            match grab {
                None => break,
                Some((s, e)) => {
                    for (i, slot) in seen.iter_mut().enumerate().take(e).skip(s) {
                        assert!(!*slot, "task {i} claimed twice");
                        *slot = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dual_queue_claims_stop_at_segment_cuts() {
        let mut q = DualQueue::with_cuts(10, vec![3, 7]);
        assert_eq!(q.take_front(100), Some((0, 3)), "stops at the first cut");
        assert_eq!(q.take_back(100), Some((7, 10)), "stops at the last cut");
        assert_eq!(q.take_front(2), Some((3, 5)));
        assert_eq!(q.take_back(100), Some((5, 7)), "bounded by the front");
        assert_eq!(q.take_front(1), None);
        // A cut the back has passed no longer bounds the front.
        let mut q = DualQueue::with_cuts(6, vec![4]);
        assert_eq!(q.take_back(3), Some((4, 6)));
        assert_eq!(q.take_front(100), Some((0, 4)));
    }

    #[test]
    #[should_panic(expected = "ascend strictly")]
    fn dual_queue_rejects_a_cut_at_the_end() {
        DualQueue::with_cuts(5, vec![2, 5]);
    }

    #[test]
    fn claim_order_from_segments_skips_empty_ones() {
        let order = ClaimOrder::from_segments([vec![], vec![4, 3], vec![], vec![0, 1, 2]]);
        assert_eq!(order.tasks(), [4, 3, 0, 1, 2]);
        assert_eq!(order.cuts(), [2]);
        let (tasks, mut queue) = order.into_queue(5);
        assert_eq!(tasks, [4, 3, 0, 1, 2]);
        assert_eq!(queue.take_front(5), Some((0, 2)));
        let (identity, _) = ClaimOrder::identity().into_queue(3);
        assert_eq!(identity, [0, 1, 2]);
    }

    #[test]
    fn dual_queue_empty() {
        let mut q = DualQueue::new(0);
        assert_eq!(q.take_front(1), None);
        assert_eq!(q.take_back(1), None);
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn estimator_uses_initial_share_until_measured() {
        let e = SplitEstimator::new(0.7);
        assert_eq!(e.accel_share(0, 0, 0, 0), 0.7);
        assert_eq!(
            e.accel_share(100, 50, 0, 0),
            0.7,
            "one-sided measurement is not enough"
        );
    }

    #[test]
    fn estimator_follows_observed_rates() {
        let e = SplitEstimator::new(0.5);
        // Accelerator observed 3× the CPU's cells/nanosecond.
        let share = e.accel_share(1_000, 1_000, 3_000, 1_000);
        assert!((share - 0.75).abs() < 1e-12);
        // Extreme rates are clamped away from 0/1.
        let clamped = e.accel_share(1, 1_000_000, 1_000_000, 1);
        assert!(clamped <= 0.98);
    }

    #[test]
    #[should_panic(expected = "finite fraction")]
    fn estimator_rejects_nan() {
        SplitEstimator::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite fraction")]
    fn estimator_rejects_out_of_range() {
        SplitEstimator::new(1.5);
    }

    #[test]
    fn adaptive_chunk_decays_with_remaining() {
        let big = adaptive_chunk(1000, 0.5, 4, 1);
        assert_eq!(big, 62); // 1000 · 0.5 / 8
        let small = adaptive_chunk(10, 0.5, 4, 1);
        assert_eq!(small, 1, "floors at min_chunk");
        assert_eq!(
            adaptive_chunk(0, 0.5, 4, 1),
            1,
            "degenerate remaining still asks for one"
        );
        assert_eq!(adaptive_chunk(100, 1.0, 1, 3), 50);
        assert!(
            adaptive_chunk(5, 1.0, 1, 100) <= 5,
            "never exceeds remaining"
        );
    }
}
