//! Search configuration.

use serde::{Deserialize, Serialize};
use sw_kernels::{KernelIsa, KernelVariant};
use sw_sched::Policy;
use sw_trace::{TraceLevel, Tracer};

/// Configuration of one database search (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Kernel variant (vectorization × profile × blocking).
    pub variant: KernelVariant,
    /// Worker threads for the parallel alignment loop.
    pub threads: usize,
    /// Loop scheduling policy (the paper's best is dynamic).
    pub policy: Policy,
    /// Instruction set the intrinsic kernels run on. [`KernelIsa::detect`]
    /// (the `best` default) picks the fastest ISA the host supports from
    /// hardware probes alone; forcing [`KernelIsa::Portable`] reproduces
    /// identical results with the autovectorized kernels. Environment
    /// overrides (`SW_KERNEL_ISA`) are resolved once at front-end startup
    /// and arrive here as an explicit value — the library never reads the
    /// environment, so concurrent requests each see exactly the ISA their
    /// config carries. Ignored by non-intrinsic variants.
    pub isa: KernelIsa,
}

impl SearchConfig {
    /// The paper's best host configuration: intrinsic-SP, blocking,
    /// dynamic scheduling, `threads` workers.
    pub fn best(threads: usize) -> Self {
        SearchConfig {
            variant: KernelVariant::best(),
            threads,
            policy: Policy::dynamic(),
            isa: KernelIsa::detect(),
        }
    }

    /// Same configuration with a different kernel variant.
    pub fn with_variant(mut self, variant: KernelVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Same configuration with a forced kernel ISA.
    pub fn with_isa(mut self, isa: KernelIsa) -> Self {
        self.isa = isa;
        self
    }

    /// Rows per cache block of the blocked kernels at a given lane count,
    /// derived from a 256 KB L2 budget (the conservative host default).
    pub fn effective_block_rows(&self, lanes: usize) -> usize {
        sw_kernels::intertask::block_rows_for_cache(256 * 1024, lanes)
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig::best(1)
    }
}

/// Fault-tolerance knobs of the dual-pool scheduler: how long to wait on
/// a silent accelerator and how many failures to tolerate before retiring
/// a pool. Retry backoff and the per-chunk retry cap are
/// `sw_sched::DualPoolConfig::new`'s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Reclaim an accelerator chunk lease after this many milliseconds of
    /// silence (`None` = never; a wedged accelerator then only recovers
    /// if the fault also kills the worker).
    pub accel_timeout_ms: Option<u64>,
    /// Failures a device pool may accumulate before it is retired and the
    /// surviving pool absorbs the rest of the queue.
    pub failure_budget: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        let d = sw_sched::DualPoolConfig::new(1, 1);
        RecoveryConfig {
            accel_timeout_ms: d.accel_timeout_ms,
            failure_budget: d.failure_budget,
        }
    }
}

/// Event-journal tracing knobs for a dynamic heterogeneous search.
///
/// Off by default: a disabled tracer hands every worker a no-op journal,
/// so the scheduler's emission sites cost one branch on an `Option` and
/// nothing is allocated or locked. Enabling tracing attaches a
/// per-worker ring journal whose drained timeline the caller can export
/// (JSONL / Chrome trace / Prometheus — see `sw_trace::export`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceConfig {
    /// How much detail to record. `Off` (the default) disables the
    /// journal entirely; `Lite` records instants and counters only;
    /// `Full` adds the chunk-execution and queue-wait spans.
    pub level: TraceLevel,
    /// Query id stamped on every event this search emits, so timelines
    /// of concurrent searches stay separable after export. `0` (the
    /// default) is the solo-run id; daemons assign a distinct id per
    /// request.
    pub query_id: u64,
}

impl TraceConfig {
    /// Full-detail tracing.
    pub fn full() -> Self {
        TraceConfig {
            level: TraceLevel::Full,
            ..TraceConfig::default()
        }
    }

    /// Same configuration stamping `query_id` on every event (daemon
    /// requests; `0` is the solo-run id).
    pub fn for_query(mut self, query_id: u64) -> Self {
        self.query_id = query_id;
        self
    }

    /// Build the tracer this configuration describes (disabled for
    /// [`TraceLevel::Off`]). Each call makes a fresh tracer with its own
    /// epoch, so concurrent searches never share clock state. Each worker
    /// gets a ring of `sw_trace::DEFAULT_RING_CAPACITY` events; a worker
    /// that out-emits it drops (and counts) the oldest, never blocking.
    pub fn tracer(&self) -> Tracer {
        Tracer::for_query(self.level, sw_trace::DEFAULT_RING_CAPACITY, self.query_id)
    }
}

/// Configuration of a dynamic dual-pool heterogeneous search
/// ([`crate::hetero::HeteroEngine::search_dynamic`]): one kernel
/// configuration per device pool plus the shared-queue granularity.
///
/// Each device's `threads` field sizes its worker pool; the static
/// [`crate::hetero::SplitPlan`] only seeds the feedback estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeteroSearchConfig {
    /// Kernel configuration and pool size for the CPU share.
    pub cpu: SearchConfig,
    /// Kernel configuration and pool size for the accelerator share.
    pub accel: SearchConfig,
    /// Smallest number of lane batches either pool grabs from the shared
    /// queue in one chunk.
    pub min_chunk: usize,
    /// Fault-tolerance knobs (lease timeout, failure budget, backoff).
    pub recovery: RecoveryConfig,
    /// Event-journal tracing (off by default, zero-cost when off).
    pub trace: TraceConfig,
}

impl HeteroSearchConfig {
    /// Dual-pool configuration from two per-device configurations.
    pub fn new(cpu: SearchConfig, accel: SearchConfig) -> Self {
        HeteroSearchConfig {
            cpu,
            accel,
            min_chunk: 1,
            recovery: RecoveryConfig::default(),
            trace: TraceConfig::default(),
        }
    }

    /// Same configuration with tracing enabled at `trace`.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// The paper's best kernels on both pools, with explicit pool sizes.
    pub fn best(cpu_threads: usize, accel_threads: usize) -> Self {
        HeteroSearchConfig::new(
            SearchConfig::best(cpu_threads),
            SearchConfig::best(accel_threads),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_kernels::{ProfileMode, Vectorization};

    #[test]
    fn best_config_matches_paper() {
        let c = SearchConfig::best(32);
        assert_eq!(c.variant.vec, Vectorization::Intrinsic);
        assert_eq!(c.variant.profile, ProfileMode::Sequence);
        assert!(c.variant.blocking);
        assert_eq!(c.threads, 32);
        assert_eq!(c.policy, Policy::dynamic());
        assert!(c.isa.is_available(), "best() picks a supported ISA");
        assert_eq!(
            c.with_isa(KernelIsa::Portable).isa,
            KernelIsa::Portable,
            "the ISA can be forced"
        );
    }

    #[test]
    fn trace_config_defaults_off() {
        let t = TraceConfig::default();
        assert_eq!(t.level, TraceLevel::Off);
        assert!(!t.tracer().is_enabled(), "off builds a disabled tracer");
        assert!(TraceConfig::full().tracer().is_enabled());
        assert_eq!(
            HeteroSearchConfig::best(1, 1).trace,
            TraceConfig::default(),
            "tracing is opt-in"
        );
    }

    #[test]
    fn block_rows_default_derivation() {
        // Half the 256 KB budget over 64 B per row (H + F, 16 × i16).
        assert_eq!(SearchConfig::best(1).effective_block_rows(16), 2048);
    }
}
