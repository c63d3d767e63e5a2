//! Deterministic fault injection for the dual-pool executor.
//!
//! An accelerator in a production search service can stall, time out, or
//! die mid-run; SWAPHI and the KNL follow-up both treat device dispatch
//! as fallible and size work so it can be re-issued. This module is the
//! *test harness* for that failure model: a [`FaultPlan`] describes which
//! device fails at which chunk and how, and a [`FaultInjector`] arms the
//! plan inside a real `run_dual_pool_durable` region. Plans are plain
//! data (seeded generation via the in-tree `rand` shim), so every
//! recovery path is reproducible from a single `u64`.
//!
//! Faults trigger on a per-device *chunk counter*: the Nth chunk started
//! by that device's pool fires the fault, whichever worker grabs it.
//! Task results are deterministic per index, so recovered runs produce
//! hit lists identical to a fault-free run even though the chunk→worker
//! assignment is not itself deterministic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What an injected fault does to the worker that trips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker dies (panics) while holding its chunk lease. The lease
    /// is requeued and the worker never returns.
    Kill,
    /// The worker stalls for the given duration, then continues normally
    /// (a transient hiccup — may trip the lease timeout if long enough).
    Delay(Duration),
    /// The worker wedges: it holds its lease without progressing until
    /// the lease is reclaimed by timeout, then dies. Requires a lease
    /// timeout on the device; with no timeout configured it degenerates
    /// to [`FaultKind::Kill`] so runs always terminate.
    Wedge,
    /// The whole device pool dies: every worker of the device abandons
    /// its work and exits, and the pool is retired immediately (the
    /// surviving pool absorbs the remaining queue).
    KillPool,
}

/// Wildcard for [`FaultSpec::device`]: chunks are counted across both
/// pools and the fault fires on whichever worker starts the `chunk`-th
/// one — a drill that must fire no matter which pool wins the race for
/// the queue.
pub const DEVICE_ANY: usize = 2;

/// One scheduled fault: `kind` fires when `device`'s pool starts its
/// `chunk`-th chunk (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Device pool the fault targets (0 = CPU, 1 = accelerator,
    /// [`DEVICE_ANY`] = whichever pool starts the chunk).
    pub device: usize,
    /// 0-based index of the triggering chunk in the device's grab order.
    pub chunk: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic set of faults to inject into one parallel region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn single(spec: FaultSpec) -> Self {
        FaultPlan { specs: vec![spec] }
    }

    /// A seeded random plan: `n_faults` kill/delay faults against
    /// `device`, at chunk indices below `max_chunk`. Deterministic per
    /// seed — the CI fault matrix replays the same plans on every push.
    pub fn seeded(seed: u64, n_faults: usize, device: usize, max_chunk: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let specs = (0..n_faults)
            .map(|_| {
                let chunk = rng.gen_range(0..max_chunk.max(1));
                let kind = if rng.gen_bool(0.5) {
                    FaultKind::Kill
                } else {
                    FaultKind::Delay(Duration::from_millis(rng.gen_range(1..=20u64)))
                };
                FaultSpec {
                    device,
                    chunk,
                    kind,
                }
            })
            .collect();
        FaultPlan { specs }
    }
}

/// Armed runtime form of a [`FaultPlan`]: thread-safe, consumed once per
/// spec, shared by every worker of one parallel region.
#[derive(Debug)]
pub struct FaultInjector {
    specs: Vec<FaultSpec>,
    fired: Vec<AtomicBool>,
    /// Chunks started per device; slot [`DEVICE_ANY`] counts both.
    chunk_counter: [AtomicU64; 3],
    pool_dead: [AtomicBool; 2],
    /// Hard process abort once this many chunks (across both devices)
    /// have been *committed*: the crash-resume harness's "pull the plug"
    /// switch. `0` disables it.
    kill_after_chunks: u64,
    committed: AtomicU64,
}

impl FaultInjector {
    /// An injector that never fires.
    pub fn none() -> Self {
        FaultInjector::new(FaultPlan::none())
    }

    /// Arm a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = plan.specs.iter().map(|_| AtomicBool::new(false)).collect();
        FaultInjector {
            specs: plan.specs,
            fired,
            chunk_counter: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            pool_dead: [AtomicBool::new(false), AtomicBool::new(false)],
            kill_after_chunks: 0,
            committed: AtomicU64::new(0),
        }
    }

    /// Arm a whole-process kill: the run calls [`std::process::abort`]
    /// the moment its `n`-th chunk is committed (counted across both
    /// device pools). Unlike [`FaultKind::Kill`] — which the supervisor
    /// recovers from *within* the run — this simulates a power cut: no
    /// destructors, no final checkpoint flush. Only the checkpoint/resume
    /// path can save such a search, which is exactly what the subprocess
    /// crash harness asserts.
    #[must_use]
    pub fn with_kill_after_chunks(mut self, n: u64) -> Self {
        self.kill_after_chunks = n;
        self
    }

    /// True when the plan holds no faults (the hot path skips all
    /// bookkeeping).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Called by a worker of `device` as it starts a chunk; returns the
    /// fault to apply to this chunk, if any. Each spec fires at most
    /// once.
    pub fn on_chunk_start(&self, device: usize) -> Option<FaultKind> {
        if self.specs.is_empty() {
            return None;
        }
        let n = self.chunk_counter[device].fetch_add(1, Ordering::Relaxed);
        let n_any = self.chunk_counter[DEVICE_ANY].fetch_add(1, Ordering::Relaxed);
        for (spec, fired) in self.specs.iter().zip(&self.fired) {
            let due = (spec.device == device && spec.chunk == n)
                || (spec.device == DEVICE_ANY && spec.chunk == n_any);
            if due
                && fired
                    .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                if matches!(spec.kind, FaultKind::KillPool) {
                    self.pool_dead[device].store(true, Ordering::Release);
                }
                return Some(spec.kind);
            }
        }
        None
    }

    /// Called by a worker right after it commits a chunk. Aborts the
    /// whole process when an armed [`Self::with_kill_after_chunks`]
    /// threshold is reached — the committed results up to and including
    /// this chunk are on disk (if checkpointing is on), everything else
    /// is lost, exactly like a real crash.
    pub fn on_chunk_committed(&self) {
        if self.kill_after_chunks == 0 {
            return;
        }
        let n = self.committed.fetch_add(1, Ordering::AcqRel) + 1;
        if n >= self.kill_after_chunks {
            std::process::abort();
        }
    }

    /// True once a [`FaultKind::KillPool`] has fired against `device`:
    /// every worker of the pool must abandon its work and exit.
    pub fn pool_dead(&self, device: usize) -> bool {
        !self.specs.is_empty() && self.pool_dead[device].load(Ordering::Acquire)
    }

    /// True once every fault in the plan has fired (vacuously true for an
    /// empty plan). Tests and drills gate on this to make fault timing
    /// deterministic relative to other workers' progress.
    pub fn all_fired(&self) -> bool {
        self.fired.iter().all(|f| f.load(Ordering::Acquire))
    }
}

/// What an injected *network* fault does to one coordinator→worker
/// exchange. Where [`FaultKind`] models a device worker dying inside a
/// parallel region, this models the wire to a remote shard worker
/// misbehaving — the failure domain the multi-node fabric must survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The connect is refused (worker not listening / port closed).
    Refuse,
    /// The reply stream dies after this many lines (mid-stream cut).
    Drop(u64),
    /// The connection opens but no bytes ever arrive — the classic
    /// black-holed peer, detected only by heartbeat or lease timeout.
    BlackHole,
    /// Every reply line is delayed by this long (a drip-feeding peer;
    /// long enough drips trip the lease).
    SlowDrip(Duration),
}

impl NetFaultKind {
    /// True when this fault kills the attempt it fires on, forcing a
    /// requeue. A slow drip merely shapes the stream — the attempt
    /// still succeeds unless the drip outlasts the lease.
    pub fn forces_retry(&self) -> bool {
        !matches!(self, NetFaultKind::SlowDrip(_))
    }
}

/// One scheduled network fault: `kind` fires against `shard` on its
/// `attempt`-th execution (0-based), at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultSpec {
    /// Shard index the fault targets.
    pub shard: u64,
    /// 0-based attempt of that shard that trips the fault.
    pub attempt: u32,
    /// What the wire does.
    pub kind: NetFaultKind,
}

/// A deterministic set of network faults for one sharded search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// The scheduled faults.
    pub specs: Vec<NetFaultSpec>,
}

impl NetFaultPlan {
    /// The empty plan.
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn single(spec: NetFaultSpec) -> Self {
        NetFaultPlan { specs: vec![spec] }
    }

    /// Parse a comma-separated CLI drill string. Forms:
    /// `refuse@SHARD`, `drop@SHARD:LINES`, `blackhole@SHARD`,
    /// `slowdrip@SHARD:MS`; an optional `#ATTEMPT` suffix targets a
    /// later attempt (`refuse@1#1` refuses shard 1's first *retry*).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut specs = Vec::new();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let bad = || {
                format!(
                    "bad net-fault '{part}': want refuse@S | drop@S:N | \
                     blackhole@S | slowdrip@S:MS (optionally #ATTEMPT)"
                )
            };
            let (kind_name, rest) = part.split_once('@').ok_or_else(bad)?;
            let (target, attempt) = match rest.split_once('#') {
                Some((t, a)) => (t, a.parse::<u32>().map_err(|_| bad())?),
                None => (rest, 0),
            };
            let (shard_s, arg) = match target.split_once(':') {
                Some((s, a)) => (s, Some(a)),
                None => (target, None),
            };
            let shard: u64 = shard_s.parse().map_err(|_| bad())?;
            let kind = match (kind_name, arg) {
                ("refuse", None) => NetFaultKind::Refuse,
                ("drop", Some(n)) => NetFaultKind::Drop(n.parse().map_err(|_| bad())?),
                ("blackhole", None) => NetFaultKind::BlackHole,
                ("slowdrip", Some(ms)) => {
                    NetFaultKind::SlowDrip(Duration::from_millis(ms.parse().map_err(|_| bad())?))
                }
                _ => return Err(bad()),
            };
            specs.push(NetFaultSpec {
                shard,
                attempt,
                kind,
            });
        }
        if specs.is_empty() {
            return Err("empty net-fault spec".into());
        }
        Ok(NetFaultPlan { specs })
    }

    /// A seeded random plan: `n_faults` network faults spread over
    /// `n_shards` shards, all on the first attempt (the retry then runs
    /// clean — every seeded drill terminates). Deterministic per seed.
    pub fn seeded(seed: u64, n_faults: usize, n_shards: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let specs = (0..n_faults)
            .map(|_| {
                let shard = rng.gen_range(0..n_shards.max(1));
                let kind = match rng.gen_range(0..4u64) {
                    0 => NetFaultKind::Refuse,
                    1 => NetFaultKind::Drop(rng.gen_range(0..3u64)),
                    2 => NetFaultKind::BlackHole,
                    _ => NetFaultKind::SlowDrip(Duration::from_millis(rng.gen_range(5..40u64))),
                };
                NetFaultSpec {
                    shard,
                    attempt: 0,
                    kind,
                }
            })
            .collect();
        NetFaultPlan { specs }
    }
}

/// Armed runtime form of a [`NetFaultPlan`]: shared by every
/// coordinator thread, each spec fires at most once.
#[derive(Debug)]
pub struct NetFaultInjector {
    specs: Vec<NetFaultSpec>,
    fired: Vec<AtomicBool>,
}

impl NetFaultInjector {
    /// Arm a plan.
    pub fn new(plan: NetFaultPlan) -> Self {
        let fired = plan.specs.iter().map(|_| AtomicBool::new(false)).collect();
        NetFaultInjector {
            specs: plan.specs,
            fired,
        }
    }

    /// An injector that never fires.
    pub fn none() -> Self {
        NetFaultInjector::new(NetFaultPlan::none())
    }

    /// True when the plan holds no faults.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Called as the coordinator starts `attempt` of `shard`; returns
    /// the fault to apply to this exchange, if any.
    pub fn on_shard_attempt(&self, shard: u64, attempt: u32) -> Option<NetFaultKind> {
        for (spec, fired) in self.specs.iter().zip(&self.fired) {
            if spec.shard == shard
                && spec.attempt == attempt
                && fired
                    .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                return Some(spec.kind);
            }
        }
        None
    }

    /// The specs that have fired so far, in plan order. Drills use this
    /// to predict the exact retry cost of a run (a spec scheduled for an
    /// attempt that never happens stays unfired).
    pub fn fired_specs(&self) -> Vec<NetFaultSpec> {
        self.specs
            .iter()
            .zip(&self.fired)
            .filter(|(_, f)| f.load(Ordering::Relaxed))
            .map(|(s, _)| *s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(7, 4, 1, 100);
        let b = FaultPlan::seeded(7, 4, 1, 100);
        assert_eq!(a, b);
        assert_eq!(a.specs.len(), 4);
        assert!(a.specs.iter().all(|s| s.device == 1 && s.chunk < 100));
        let c = FaultPlan::seeded(8, 4, 1, 100);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn fault_fires_once_at_the_right_chunk() {
        let inj = FaultInjector::new(FaultPlan::single(FaultSpec {
            device: 1,
            chunk: 2,
            kind: FaultKind::Kill,
        }));
        assert_eq!(inj.on_chunk_start(1), None); // chunk 0
        assert_eq!(inj.on_chunk_start(0), None); // CPU chunk, other counter
        assert_eq!(inj.on_chunk_start(1), None); // chunk 1
        assert!(!inj.all_fired());
        assert_eq!(inj.on_chunk_start(1), Some(FaultKind::Kill)); // chunk 2
        assert_eq!(inj.on_chunk_start(1), None, "fires at most once");
        assert!(inj.all_fired());
    }

    #[test]
    fn any_device_fault_fires_on_whichever_pool_starts_the_chunk() {
        let delay = FaultKind::Delay(Duration::from_millis(5));
        let spec = FaultSpec {
            device: DEVICE_ANY,
            chunk: 1,
            kind: delay,
        };
        // The count runs across both pools: CPU starts chunk 0, so the
        // accelerator's first chunk is the region's second.
        let inj = FaultInjector::new(FaultPlan::single(spec));
        assert_eq!(inj.on_chunk_start(0), None);
        assert_eq!(inj.on_chunk_start(1), Some(delay));
        assert_eq!(inj.on_chunk_start(0), None, "fires at most once");
        // A CPU pool that wins every chunk trips it just the same.
        let inj = FaultInjector::new(FaultPlan::single(spec));
        assert_eq!(inj.on_chunk_start(0), None);
        assert_eq!(inj.on_chunk_start(0), Some(delay));
        assert!(inj.all_fired());
    }

    #[test]
    fn kill_pool_marks_device_dead() {
        let inj = FaultInjector::new(FaultPlan::single(FaultSpec {
            device: 1,
            chunk: 0,
            kind: FaultKind::KillPool,
        }));
        assert!(!inj.pool_dead(1));
        assert_eq!(inj.on_chunk_start(1), Some(FaultKind::KillPool));
        assert!(inj.pool_dead(1));
        assert!(!inj.pool_dead(0));
    }

    #[test]
    fn unarmed_process_kill_is_inert() {
        // With no threshold armed, committing chunks must never abort.
        // (The armed path can only be exercised from a subprocess; the
        // CLI crash harness covers it end to end.)
        let inj = FaultInjector::none();
        for _ in 0..100 {
            inj.on_chunk_committed();
        }
    }

    #[test]
    fn empty_injector_is_inert() {
        let inj = FaultInjector::none();
        assert!(inj.is_empty());
        for _ in 0..10 {
            assert_eq!(inj.on_chunk_start(0), None);
            assert_eq!(inj.on_chunk_start(1), None);
        }
        assert!(!inj.pool_dead(0) && !inj.pool_dead(1));
    }

    #[test]
    fn net_fault_parse_accepts_all_forms() {
        let plan = NetFaultPlan::parse("refuse@0,drop@1:2,blackhole@2,slowdrip@3:15,refuse@1#1")
            .expect("parse");
        assert_eq!(
            plan.specs,
            vec![
                NetFaultSpec {
                    shard: 0,
                    attempt: 0,
                    kind: NetFaultKind::Refuse
                },
                NetFaultSpec {
                    shard: 1,
                    attempt: 0,
                    kind: NetFaultKind::Drop(2)
                },
                NetFaultSpec {
                    shard: 2,
                    attempt: 0,
                    kind: NetFaultKind::BlackHole
                },
                NetFaultSpec {
                    shard: 3,
                    attempt: 0,
                    kind: NetFaultKind::SlowDrip(Duration::from_millis(15))
                },
                NetFaultSpec {
                    shard: 1,
                    attempt: 1,
                    kind: NetFaultKind::Refuse
                },
            ]
        );
        for bad in [
            "",
            "refuse",
            "refuse@x",
            "drop@1",
            "slowdrip@1",
            "wedge@0",
            "refuse@0#x",
        ] {
            assert!(
                NetFaultPlan::parse(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn net_seeded_plans_are_deterministic_and_first_attempt_only() {
        let a = NetFaultPlan::seeded(99, 6, 4);
        let b = NetFaultPlan::seeded(99, 6, 4);
        assert_eq!(a, b);
        assert_eq!(a.specs.len(), 6);
        for spec in &a.specs {
            assert!(spec.shard < 4);
            assert_eq!(spec.attempt, 0, "seeded faults hit the first attempt");
        }
        assert_ne!(a, NetFaultPlan::seeded(100, 6, 4), "seed must matter");
    }

    #[test]
    fn net_injector_fires_each_spec_once() {
        let inj = NetFaultInjector::new(NetFaultPlan::parse("refuse@1,drop@1:0#1").unwrap());
        assert!(!inj.is_empty());
        assert_eq!(inj.on_shard_attempt(0, 0), None);
        assert_eq!(inj.on_shard_attempt(1, 0), Some(NetFaultKind::Refuse));
        assert_eq!(inj.on_shard_attempt(1, 0), None, "fires at most once");
        assert_eq!(inj.on_shard_attempt(1, 1), Some(NetFaultKind::Drop(0)));
        assert_eq!(inj.fired_specs().len(), 2);
        assert!(NetFaultInjector::none().is_empty());
    }
}
