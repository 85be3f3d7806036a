#![warn(missing_docs)]

//! Std-only observability for the geosocial workspace.
//!
//! The paper's thesis is that validity must be *measured continuously*,
//! not assumed — and the same discipline applies to the reproduction
//! itself once it runs as a long-lived service. This crate provides the
//! three pillars every other layer instruments itself with, without any
//! external dependency (matching the workspace's vendored-only policy):
//!
//! * **Structured logging** ([`log_write`] and the [`error!`], [`warn!`],
//!   [`info!`], [`debug!`], [`trace!`] macros) — leveled, thread-safe,
//!   text or JSON line format, filtered at runtime by the
//!   `GEOSOCIAL_LOG` environment variable (`off|error|warn|info|debug|
//!   trace`, optionally per target: `GEOSOCIAL_LOG=serve=debug,info`).
//!   `GEOSOCIAL_LOG_FORMAT=json` switches to JSON lines.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`]) — lock-free
//!   atomic instruments in a [`Registry`]; the free functions use one
//!   global instance. Registration takes a mutex once per call site
//!   ([`cached_metrics!`] caches the handle); the returned handles are
//!   plain atomics, so the hot path never locks. Histograms use log₂
//!   buckets. [`render_text`] emits a registry in a line-oriented text
//!   exposition format; [`snapshot`] returns it programmatically.
//! * **Span timers** ([`span`] / [`span!`]) — RAII guards that time a
//!   scope and feed a histogram named `span_us.<path>`, where `<path>`
//!   nests with the enclosing spans on the same thread
//!   (`analysis.matching`), producing per-stage timing trees.
//!
//! * **Tracing** ([`trace`]) — 128-bit trace ids with deterministic
//!   splitmix64 head-sampling, a bounded-ring span collector with
//!   tail-based "always keep" promotion, wire-portable
//!   [`trace::TraceContext`], and Chrome trace-event / text-timeline
//!   export. The serving layer propagates the context end to end; see
//!   the README's Tracing section.
//!
//! Building with the `noop` feature compiles every metric operation,
//! span timer and trace recording to nothing (logging stays):
//! `scripts/bench_obs.sh` uses this to measure the instrumentation
//! overhead end to end.
//!
//! Series names carry their unit as a suffix (`_us`, `_bytes`, `_s`) so
//! the exposition is self-describing and CI gates never guess units.

mod log;
mod metrics;
mod span;
pub mod trace;

pub use crate::log::{log_enabled, log_write, set_format, set_level, set_writer, Format, Level};
pub use crate::metrics::{
    counter, gauge, histogram, history, history_tick, render_text, snapshot, Counter, Gauge,
    HistSnapshot, Histogram, HistoryPoint, Registry, Snapshot,
};
pub use crate::span::{span, Span, Stopwatch};

/// splitmix64 finalizer: the workspace's one cheap 64-bit mixing function.
/// Trace sampling and ids, the server's user→shard hash, the cluster's
/// rendezvous ownership and the fault plans all hash with it.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
