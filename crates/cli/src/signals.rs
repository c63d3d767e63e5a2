//! SIGINT/SIGTERM → graceful drain.
//!
//! Durable runs (`hetero --dynamic --checkpoint-dir`) and the `serve` daemon
//! install a handler that flips a process-wide [`DrainSignal`] instead
//! of letting the default disposition kill the process: workers finish
//! their in-flight chunks, a final checkpoint is written, and the CLI
//! prints how to resume. The handler body is a single atomic store —
//! async-signal-safe by construction. `SIGKILL` (which cannot be caught)
//! is covered by the same checkpoint log, appended at every committed
//! chunk; the crash-resume harness exercises that path with
//! `--kill-after-chunks`.
//!
//! Registration is guarded by a [`std::sync::Once`]: the raw
//! `signal(2)` calls run exactly once per process no matter how many
//! searches start. A daemon that launches a search per request would
//! otherwise re-arm the handler on every job — harmless today, but a
//! landmine the moment anything else (a test harness, an embedding
//! application) installs its own disposition in between. Per-job drains
//! do not go through this module at all: each job gets a
//! [`DrainSignal::scoped`] child of [`DRAIN`], so cancelling one job
//! never signals the process and a process signal still drains every
//! job.
//!
//! This is the one place in the crate allowed to use `unsafe`: the
//! `signal(2)` registration itself.

use sw_sched::DrainSignal;

/// The process-wide drain switch watched by durable searches and the
/// parent of [`SERVE_DRAIN`].
pub static DRAIN: DrainSignal = DrainSignal::new();

/// The `serve` daemon's shutdown signal, scoped under [`DRAIN`]: a
/// `submit --shutdown` requests it without touching process signal
/// state, and a SIGINT/SIGTERM still shuts the daemon down through the
/// parent. Per-job drains inside the daemon are scoped under this in
/// turn, so the chain job → daemon → process drains at every level.
pub static SERVE_DRAIN: DrainSignal = DrainSignal::scoped(&DRAIN);

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: one atomic store, no allocation, no locks.
        super::DRAIN.request();
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX `signal(2)` from the C runtime std already links.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub(super) fn install() {
        let h = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is registering an async-signal-safe handler
        // (a lone atomic store); the handler address stays valid for the
        // life of the process.
        unsafe {
            signal(SIGINT, h);
            signal(SIGTERM, h);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// Non-unix hosts keep the default disposition; `--checkpoint-dir` still
    /// appends every committed chunk, only the graceful-drain-on-signal
    /// path is absent.
    pub(super) fn install() {}
}

/// Route SIGINT/SIGTERM to [`DRAIN`] for the rest of the process.
/// Idempotent: the underlying `signal(2)` registration runs exactly
/// once per process, so concurrent searches in a daemon can all call
/// this without re-arming the handler.
pub fn install_drain_handlers() {
    static REGISTER: std::sync::Once = std::sync::Once::new();
    REGISTER.call_once(imp::install);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_drain_starts_unset() {
        install_drain_handlers();
        install_drain_handlers();
        assert!(!DRAIN.is_requested(), "install must not trip the drain");
    }
}
