//! sw-serve: the always-on Smith-Waterman search service.
//!
//! A daemon loads and digest-verifies a database snapshot once, keeps
//! the prepared batches resident, and serves search jobs over a unix
//! socket speaking line-delimited JSON. Concurrently queued submits are
//! grouped by a batching collector into shared dual-pool regions over
//! the resident database — cross-query lane batching, the daemon-side
//! analogue of `search_many` — while each job keeps its own isolation:
//! a drain signal scoped under the daemon's shutdown signal (cancel
//! removes one query from the region without touching batch-mates), a
//! per-query trace epoch/query-id, and a fingerprint-derived checkpoint
//! file — no environment reads, no process globals, no shared mutable
//! state on the request path. Admission is a per-region query cap plus
//! a per-tenant in-flight quota; everything submitted lands in the
//! [`Registry`], which is dumped as JSONL on shutdown.
//!
//! Layering: the wire is newline-delimited flat JSON, and each piece of
//! it has one implementation — [`json`] (the workspace's one flat-JSON
//! codec, re-exported from `sw-trace`) builds and parses fields,
//! [`transport`] frames lines ([`Stream::send_line`] out,
//! `transport::LineReader` in, on the client, the coordinator and the
//! daemon alike), and [`client`] gives every line one writer beside its
//! one parser: [`client::Request`] for requests, the ack, state and end
//! lines beside [`client::parse_submit_response`], and the hit line.
//! `server` matches on the parsed request and demuxes region outcomes
//! through the `batch` collector's reply channels; the CLI's
//! `serve`/`submit` commands and the integration tests are both thin
//! wrappers over these modules.
//!
//! Observability: every lifecycle transition is stamped on the job's
//! [`obs::Phases`] record and folded into the daemon-lifetime
//! aggregator in [`obs`] — phase-latency histograms, SLO counters and
//! windowed aggregate GCUPS served as a Prometheus snapshot by
//! `{"op":"metrics"}`, readiness/liveness by `{"op":"health"}`, and a
//! leveled structured ops log with a slow-query timeline dump.

mod batch;
pub mod client;
pub mod coord;
pub mod journal;
pub mod obs;
pub mod registry;
mod server;
pub mod transport;

pub use coord::{CoordConfig, CoordDrill, CoordError, CoordOutcome, ShardSpec};
pub use journal::{CommittedShard, CoordJournal, ShardSlot};
pub use obs::{coord_prometheus, LogLevel, Obs, ObsConfig, Phases, ShardRole};
pub use registry::{JobRecord, JobState, Registry, StatsSnapshot, TenantTotals};
pub use server::{serve, ServeConfig, ServeError};
pub use sw_trace::json;
pub use transport::{Endpoint, Listener, NetTransport, RetryPolicy, ShardTransport, Stream};
