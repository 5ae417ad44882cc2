//! # qmarl-serve — micro-batched policy inference with atomic hot-swap
//!
//! The deployment half of the
//! [QMARL reproduction](https://arxiv.org/abs/2203.10443): once a
//! framework is trained and snapshotted, this crate serves its
//! action-selection over localhost TCP. Std-only — sockets, threads and
//! `mpsc` channels; no async runtime, no serialization dependency.
//!
//! ```text
//!  clients ──TCP──▶ handler threads ──mpsc──▶ batcher ──▶ ServablePolicy
//!                     │   ▲                   (1 thread)    └ one prebound
//!                     │   └─ per-job reply        │           lane-slab call
//!                     ▼                           ▼           per tick
//!                  protocol.rs                PolicySlot ◀── watcher thread
//!                  (framed codec)             (Arc swap)     (polls *.ckpt)
//! ```
//!
//! * [`protocol`] — length-prefixed binary frames and a blocking
//!   [`protocol::ServeClient`].
//! * [`batcher`] — the coalescing core: requests arriving within a
//!   configurable window execute as **one**
//!   [`qmarl_core::serving::ServablePolicy::act_batch`] lane-slab call,
//!   bit-identical to serving them one at a time (`window = 0` *is* the
//!   one-at-a-time baseline). [`batcher::PolicySlot`] holds the policy
//!   behind an `Arc` so hot-swaps are pointer exchanges.
//! * [`server`] — accept loop, per-connection handlers, graceful
//!   drain-on-shutdown ([`server::ServerHandle::shutdown`] answers every
//!   request that reached the server before returning).
//! * [`watch`] — polls a checkpoint directory, loads new
//!   [`qmarl_core::checkpoint::FrameworkSnapshot`]s off the serving path
//!   and swaps them in; truncated or torn files are counted and skipped.
//! * [`stream`] — seeded scenario-distributed observation streams for
//!   load generation.
//! * [`hist`] — a dependency-free geometric latency histogram with a
//!   property-tested quantile error bound.
//!
//! The `loadgen` binary replays scenario observations against a server
//! at configurable offered load and writes `BENCH_serve.json` (p50/p99
//! latency and actions/s per offered-load × batch-window × backend
//! cell). See the README's *Serving* section for the wire format and
//! benchmark schema.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batcher;
pub mod error;
pub mod hist;
pub mod protocol;
pub mod server;
pub mod stream;
mod sync;
pub mod watch;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::batcher::{BatchConfig, JobError, PolicySlot, ServeStats};
    pub use crate::error::ServeError;
    pub use crate::hist::LatencyHistogram;
    pub use crate::protocol::{Request, Response, RetryStats, ServeClient, ServerInfo};
    pub use crate::server::{serve, DrainReport, ServerConfig, ServerHandle};
    pub use crate::stream::ObsStream;
    pub use crate::watch::{spawn_watcher, WatchConfig, WatcherHandle};
    pub use qmarl_chaos::{FaultPlan, RetryPolicy, POISON_VALUES};
}
