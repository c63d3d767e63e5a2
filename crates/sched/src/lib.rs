//! # sw-sched — loop scheduling, simulated and real
//!
//! The paper distributes alignment batches across threads with OpenMP's
//! `parallel for` and observes (§IV): *"dynamic outperforms static
//! significantly. The performance difference with guided is slightly
//! minor."* This crate owns both halves of reproducing that:
//!
//! * [`policy`] — the three OpenMP scheduling policies as explicit chunk
//!   generators (what [`desim::simulate`] replays for the paper's
//!   scheduling ablation), plus the dual-pool primitives
//!   ([`policy::DualQueue`], [`policy::SplitEstimator`],
//!   [`policy::adaptive_chunk`], [`policy::RequeueQueue`]) the real
//!   executor schedules with.
//! * [`desim`] — a discrete-event simulator that replays a policy over
//!   per-task costs (from `sw-device`'s cost model) for one pool of
//!   workers and returns makespan and per-worker utilisation. This is
//!   what regenerates the paper's thread-scaling figures on hardware we
//!   don't have. The dual-pool schedule is not replayed: the executor is
//!   its one implementation.
//! * [`executor`] — the one real executor (std scoped threads):
//!   [`executor::run_dual_pool_durable`], the instrumented two-device
//!   scheduler with lease-based recovery (requeue, retry with backoff,
//!   per-device failure budget, graceful degradation to one pool) and
//!   the durability hooks — resume prefill, periodic checkpoint
//!   callbacks, graceful drain, per-task cancel — that back crash-safe
//!   searches. Every search runs on it; a single-device search is a
//!   region with an empty accelerator pool. [`executor::run_dual_pool`]
//!   is its hook-free, infallible convenience.
//! * [`drain`] — the cooperative stop signal ([`DrainSignal`]) flipped
//!   by the CLI's SIGINT/SIGTERM handler and honoured by the executor's
//!   worker pools.
//! * [`fault`] — deterministic, seeded fault injection (kill / delay /
//!   wedge / pool-kill) for exercising the recovery paths, plus the
//!   whole-process kill switch the crash-resume harness uses.
//! * [`metrics`] — load-imbalance statistics and the per-device /
//!   per-worker [`MetricsSink`] the dual-pool executor reports through,
//!   including recovery counters (retries, requeues, lost leases,
//!   degraded).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod desim;
pub mod drain;
pub mod executor;
pub mod fault;
pub mod metrics;
pub mod policy;

pub use desim::{simulate, SimResult};
pub use drain::DrainSignal;
pub use executor::{
    run_dual_pool, run_dual_pool_durable, CheckpointView, CommitView, DualPoolConfig,
    DurableControl, DurableOutcome, ExecError, TaskError,
};
pub use fault::{
    FaultInjector, FaultKind, FaultPlan, FaultSpec, NetFaultInjector, NetFaultKind, NetFaultPlan,
    NetFaultSpec, DEVICE_ANY,
};
pub use metrics::{imbalance, DeviceMetrics, Imbalance, MetricsSink, RecoveryEvent, WorkerSample};
pub use policy::{
    adaptive_chunk, DualQueue, Policy, RequeueQueue, SplitEstimator, DEVICE_ACCEL, DEVICE_CPU,
};
