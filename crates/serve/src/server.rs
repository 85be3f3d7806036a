//! The `geosocial-serve` TCP server.
//!
//! Architecture: one acceptor thread, one handler thread per connection,
//! and a fixed pool of **shard worker threads** that own the per-user
//! auditing state. Users are assigned to shards by a splitmix64 hash (the
//! same derivation style `geosocial-par` and the scenario generator use for
//! deterministic fan-out), so a user's events always serialize through one
//! shard regardless of which connection delivers them.
//!
//! Handlers never touch auditor state: every request is routed to its
//! shard over an `mpsc` channel together with a reply sender, keeping the
//! request/response discipline strictly 1:1 and in order per connection.
//! Broadcast requests (`Hello`, `Stats`, `Drain`, `Finish`) fan out to
//! every shard and merge the replies.
//!
//! # Robustness
//!
//! The serving layer assumes the transport is as noisy as the checkin
//! streams it audits:
//!
//! * **Idle timeouts** — every accepted connection gets read/write
//!   timeouts; a stalled peer is disconnected instead of pinning a handler
//!   thread forever.
//! * **Bounded accept backpressure** — at most
//!   [`ServerConfig::max_connections`] handlers run at once; the acceptor
//!   stops accepting (kernel backlog takes the overflow) until a slot
//!   frees, so a connection flood cannot exhaust threads.
//! * **Exactly-once ingest** — ingest requests carry a per-user sequence
//!   number; a shard applies `seq == next`, acknowledges `seq < next`
//!   without re-applying, and rejects gaps. Clients may therefore retry
//!   over fresh connections ad libitum without perturbing any verdict.
//! * **Durable event store** — every applied mutation is appended to a
//!   per-shard log-structured store (`geosocial-store`): CRC-framed
//!   records in append-only segments, with the shard state checkpointed
//!   into a compacted snapshot once at least
//!   [`ServerConfig::snapshot_every`] mutations *and* at least the last
//!   snapshot's size in log bytes have accumulated past it. Snapshot bytes
//!   written then stay within the log's bytes plus the newest snapshot,
//!   and crash replay within `snapshot_every` mutations or one snapshot's
//!   worth of log. Segments are never deleted — the log *is* the
//!   history — which is what powers the time-travel reads below.
//! * **Crash recovery** — a panic while applying a command (injected by a
//!   `geosocial-fault` plan or genuine) is caught by the worker's
//!   supervisor loop, the state is rebuilt from the store's last snapshot
//!   plus its replay delta — the auditors are deterministic, so the
//!   rebuilt shard reconverges to identical verdicts — and the offending
//!   command is retried once. With a persistent
//!   [`ServerConfig::store_dir`], the same decode-and-replay path
//!   restores state across full process restarts.
//! * **Time-travel audits** — `AsOf { user, t }` re-audits a user's
//!   stored events with `t_event <= t` through a fresh auditor (equal to
//!   a batch audit truncated at that watermark) and `Window { cohort,
//!   t0, t1 }` answers cohort compositions over a time range — both
//!   online, while ingest and replay continue. A per-user read touches
//!   only that user's runs of records, found through stretch anchors in
//!   the store's sparse index, never the rest of the log.
//! * **Graceful drain** — the `Drain` request reports residual state
//!   (pending checkins, reorder-held events, open visits/windows) and,
//!   when asked to finalize, flushes it all before the operator sends
//!   `Shutdown`.
//!
//! Shutdown is cooperative and std-only: a `Shutdown` request flips a flag
//! and self-connects to unblock the acceptor; shard workers exit when the
//! last channel sender drops, and the final per-shard counters are dumped
//! to stderr before `run_with` returns. (There is no SIGTERM hook — `std`
//! exposes no signal API — so `drain`/`stats`/`shutdown` requests are the
//! supported ways to quiesce a live server.)

use geosocial_core::classify::ClassifyConfig;
use geosocial_core::matching::MatchConfig;
use geosocial_fault::FaultPlan;
use geosocial_geo::LatLon;
use geosocial_obs::trace::{
    now_us, promote_flags, task_end, task_mark, task_span, SpanRecord, TraceContext, FLAG_DEDUP,
    FLAG_RECOVERY, FLAG_RETRY,
};
use geosocial_obs::{counter, gauge, Counter, Gauge, Stopwatch};
use geosocial_store::{EventStore, StoreOptions, SENTINEL_USER};
use geosocial_stream::{AuditConfig, OnlineAuditor, StreamComposition};
use geosocial_trace::{Checkin, GpsPoint, PoiCategory, UserId, VisitConfig};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{
    read_frame_into, DrainReport, MetricsHistoryReport, Request, Response, SeriesRate, ServerStats,
    ShardStats, TraceDump, TraceSpan, WireFix,
};
use crate::wire::{self, WireFormat};

/// Cached handles to the serving layer's fixed-name metric series.
/// Per-shard series (`serve.shard.N.*`) are indexed by shard count and
/// live in [`ShardMetrics`] instead.
mod metrics {
    geosocial_obs::cached_metrics! {
        pub(super) fn events_gps = counter("serve.events.gps");
        pub(super) fn events_checkin = counter("serve.events.checkin");
        pub(super) fn queries = counter("serve.queries");
        pub(super) fn verdicts = counter("serve.verdicts");
        pub(super) fn duplicates = counter("serve.duplicates");
        pub(super) fn recoveries = counter("serve.recoveries");
        pub(super) fn conn_timeouts = counter("serve.conn.timeouts");
        pub(super) fn conn_errors = counter("serve.conn.errors");
        pub(super) fn drains = counter("serve.drains");
        pub(super) fn decode_errors = counter("serve.decode_errors");
        pub(super) fn latency_hello = histogram("serve.latency_us.hello");
        pub(super) fn latency_gps = histogram("serve.latency_us.gps");
        pub(super) fn latency_run = histogram("serve.latency_us.run");
        pub(super) fn latency_checkin = histogram("serve.latency_us.checkin");
        pub(super) fn latency_user = histogram("serve.latency_us.user");
        pub(super) fn latency_asof = histogram("serve.latency_us.asof");
        pub(super) fn latency_window = histogram("serve.latency_us.window");
        pub(super) fn latency_stats = histogram("serve.latency_us.stats");
        pub(super) fn latency_finish = histogram("serve.latency_us.finish");
        pub(super) fn latency_drain = histogram("serve.latency_us.drain");
        pub(super) fn latency_metrics = histogram("serve.latency_us.metrics");
        pub(super) fn latency_traces = histogram("serve.latency_us.traces");
        pub(super) fn latency_history = histogram("serve.latency_us.history");
        // Per-wire-format series: each served request also lands in the
        // histogram of the format it arrived in, and the byte counters track
        // framed sizes (length prefix included) per direction and format.
        pub(super) fn latency_wire_json = histogram("serve.latency_us.wire_json");
        pub(super) fn latency_wire_binary = histogram("serve.latency_us.wire_binary");
        pub(super) fn bytes_in_json = counter("serve.bytes_in.json");
        pub(super) fn bytes_in_binary = counter("serve.bytes_in.binary");
        pub(super) fn bytes_out_json = counter("serve.bytes_out.json");
        pub(super) fn bytes_out_binary = counter("serve.bytes_out.binary");
    }
}

/// One shard's exported series. Created once per worker; the queue gauge
/// is shared with every connection handler (inc on send, dec on receive).
pub(crate) struct ShardMetrics {
    queue: Arc<Gauge>,
    users: Arc<Gauge>,
    late_dropped: Arc<Gauge>,
    forced: Arc<Gauge>,
    verdicts: Arc<Counter>,
}

impl ShardMetrics {
    fn new(shard: usize) -> Self {
        Self {
            queue: queue_gauge(shard),
            users: gauge(&format!("serve.shard.{shard}.users")),
            late_dropped: gauge(&format!("serve.shard.{shard}.late_dropped")),
            forced: gauge(&format!("serve.shard.{shard}.forced")),
            verdicts: counter(&format!("serve.shard.{shard}.verdicts")),
        }
    }

    /// Refresh the composition-derived gauges from the live auditor slab.
    /// O(users) over contiguous memory, so the worker calls it amortized
    /// (every [`GAUGE_REFRESH_EVERY`] ingests) and on `Stats`/`Finish`.
    fn refresh(&self, auditors: &[OnlineAuditor]) {
        self.users.set(auditors.len() as i64);
        let mut late = 0i64;
        let mut forced = 0i64;
        for a in auditors {
            let c = a.composition();
            late += c.late_dropped as i64;
            forced += c.forced as i64;
        }
        self.late_dropped.set(late);
        self.forced.set(forced);
    }
}

/// Ingests between composition-gauge refreshes on a shard.
const GAUGE_REFRESH_EVERY: usize = 256;

/// The shard's request-queue depth gauge — the one shard series handlers
/// also touch, so it goes through the registry (same name → same handle).
fn queue_gauge(shard: usize) -> Arc<Gauge> {
    gauge(&format!("serve.shard.{shard}.queue"))
}

/// Server-side knobs: shard count, the audit thresholds applied to every
/// user (the projection origin arrives with the client `Hello`), and the
/// robustness knobs (timeouts, backpressure, checkpoint cadence, fault
/// plan).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker shards owning per-user state.
    pub shards: usize,
    /// Allowed event-time lateness, seconds (0 = in-order ingest expected).
    pub allowed_lateness_s: i64,
    /// Per-user pending-checkin budget.
    pub max_pending_checkins: usize,
    /// Per-user pending-fix budget.
    pub max_pending_fixes: usize,
    /// α/β matching thresholds.
    pub match_config: MatchConfig,
    /// §5.1 classification thresholds.
    pub classify: ClassifyConfig,
    /// Stay-point detection rules.
    pub visit: VisitConfig,
    /// When set, a background thread writes the metrics exposition text to
    /// stderr every this many seconds until shutdown.
    pub metrics_every_s: Option<u64>,
    /// Per-connection read timeout; a peer idle longer is disconnected.
    /// `None` = wait forever (the pre-robustness behavior).
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout; a peer not draining its socket longer
    /// than this is disconnected.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently served connections; the acceptor stops
    /// accepting beyond this (bounded backpressure).
    pub max_connections: usize,
    /// Shard checkpoint cadence: the minimum applied mutations between
    /// durable store snapshots. A snapshot is also held back until the log
    /// past the previous one is at least that snapshot's size
    /// ([`EventStore::snapshot_due`]), so a large auditor state is not
    /// re-encoded more often than the log can pay for. Crash replay is
    /// bounded by this many mutations or one snapshot's worth of log,
    /// whichever is larger. Lower = shorter crash replay while the state
    /// is small.
    pub snapshot_every: usize,
    /// Event-store root. Each shard logs and snapshots under
    /// `<store_dir>/shard-N/`; reopening a server on the same directory
    /// (and config) restores the audited state. `None` = an ephemeral
    /// per-process directory under the system temp dir, removed at
    /// shutdown.
    pub store_dir: Option<PathBuf>,
    /// Event-store segment roll threshold, bytes: a segment at or past
    /// this size is sealed and a new one started after the next durable
    /// flush.
    pub segment_bytes: usize,
    /// Event-store sparse-index granularity: one `(user, t)` anchor every
    /// this many records of each user, besides the anchor at the start of
    /// every run of that user's consecutive records in a segment. Lower =
    /// shorter seeks inside long runs, more index memory.
    pub index_every: usize,
    /// Event-store flush threshold, bytes: buffered appends are written
    /// through to the active segment once they reach this size. `0`
    /// flushes every append, making each acked event durable against a
    /// SIGKILL of the whole process — the setting the cluster chaos suite
    /// runs shard processes with.
    pub flush_bytes: usize,
    /// Fault-injection plan (inert unless built with `fault-inject` and
    /// given non-zero rates). The server consults only the shard-kill
    /// entry; frame faults are client-side.
    pub fault: FaultPlan,
    /// Tail-sampling latency threshold, µs: a traced request whose
    /// end-to-end handling takes at least this long is promoted to
    /// "always keep" ([`geosocial_obs::trace::FLAG_SLOW`]) even if it was
    /// not head-sampled. 0 disables the latency rule.
    pub trace_slow_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let template = AuditConfig::paper(LatLon::new(0.0, 0.0));
        Self {
            shards: 4,
            allowed_lateness_s: 0,
            max_pending_checkins: template.max_pending_checkins,
            max_pending_fixes: template.max_pending_fixes,
            match_config: template.match_config,
            classify: template.classify,
            visit: template.visit,
            metrics_every_s: None,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
            snapshot_every: 1024,
            store_dir: None,
            segment_bytes: 4 * 1024 * 1024,
            index_every: 8,
            flush_bytes: geosocial_store::FLUSH_THRESHOLD,
            fault: FaultPlan::none(),
            trace_slow_us: geosocial_obs::trace::DEFAULT_SLOW_US,
        }
    }
}

impl ServerConfig {
    /// The audit configuration shards apply once a `Hello` fixes `origin`.
    pub(crate) fn audit_config(&self, origin: LatLon) -> AuditConfig {
        let mut cfg = AuditConfig::paper(origin);
        cfg.match_config = self.match_config;
        cfg.classify = self.classify;
        cfg.visit = self.visit;
        cfg.allowed_lateness_s = self.allowed_lateness_s;
        cfg.max_pending_checkins = self.max_pending_checkins;
        cfg.max_pending_fixes = self.max_pending_fixes;
        cfg
    }
}

/// Deterministic user→shard assignment: splitmix64 of the user id, modulo
/// the shard count. Every layer (server, load generator, tests) uses this
/// same map, giving clients per-user connection affinity for free.
pub fn shard_of(user: UserId, shards: usize) -> usize {
    (geosocial_obs::mix64(user as u64) % shards.max(1) as u64) as usize
}

/// A request routed to one shard, with the channel its answer goes back
/// on and the trace context it arrived under (None = untraced frame; the
/// worker then records nothing for it).
struct ShardMsg {
    cmd: ShardCmd,
    ctx: Option<TraceContext>,
    reply: mpsc::Sender<Response>,
}

pub(crate) enum ShardCmd {
    SetOrigin { origin: LatLon },
    Gps { user: UserId, seq: u64, point: GpsPoint },
    GpsRun { user: UserId, first_seq: u64, fixes: Vec<WireFix> },
    Checkin { user: UserId, seq: u64, checkin: Checkin },
    Query { user: UserId },
    AsOf { user: UserId, t: i64 },
    Window { cohort: Vec<UserId>, t0: i64, t1: i64 },
    Traces { trace_id: Option<u128>, slowest: usize, path: Option<String> },
    Stats,
    Drain { finalize: bool },
    Finish,
}

/// The shard mutation a request performs, if any. Shared by the live
/// connection handler and crash replay: the event store logs one record
/// per applied event, and recovery decodes each record back into a
/// [`Request`] ([`crate::snapshot::decode_event`]) and routes it through
/// here exactly like a fresh delivery.
fn mutation_cmd(req: Request) -> Option<ShardCmd> {
    match req {
        Request::Hello { origin_lat, origin_lon } => {
            Some(ShardCmd::SetOrigin { origin: LatLon::new(origin_lat, origin_lon) })
        }
        Request::Gps { user, seq, t, lat, lon } => {
            Some(ShardCmd::Gps { user, seq, point: GpsPoint { t, pos: LatLon::new(lat, lon) } })
        }
        Request::GpsRun { user, first_seq, fixes } => {
            Some(ShardCmd::GpsRun { user, first_seq, fixes })
        }
        Request::Checkin { user, seq, t, poi, lat, lon } => Some(ShardCmd::Checkin {
            user,
            seq,
            checkin: Checkin {
                t,
                poi,
                // The wire format carries no category; auditing never
                // reads it.
                category: PoiCategory::Food,
                location: LatLon::new(lat, lon),
                provenance: None,
            },
        }),
        Request::Finish => Some(ShardCmd::Finish),
        Request::User { .. }
        | Request::AsOf { .. }
        | Request::Window { .. }
        | Request::Traces { .. }
        | Request::MetricsHistory { .. }
        | Request::Stats
        | Request::Metrics
        | Request::Drain { .. }
        | Request::ShardMap
        | Request::Handoff { .. }
        | Request::Shutdown => None,
    }
}

/// Append one applied event to the shard's store, tolerating flush
/// failures: on error the record stays buffered in the active segment
/// (still visible to in-process recovery and queries, which read the
/// store's in-memory mirror) and the flush retries on the next append —
/// so a transient filesystem fault costs a durability window, never an
/// acknowledged event.
///
/// Records are **per event**, not per command: an applied `GpsRun` logs
/// one record per fix, appended as each fix applies. A worker crash
/// mid-run therefore leaves exactly the applied prefix in the store,
/// which is what makes the retry dedup per-event instead of per-frame.
fn append_logged(store: &mut EventStore, user: u32, t: i64, payload: &[u8]) {
    // Only timed when the worker opened a trace task for this command;
    // the untraced hot path pays one thread-local read.
    let traced = geosocial_obs::trace::task_ctx().is_some();
    let t0 = if traced { now_us() } else { 0 };
    if let Err(e) = store.append(user, t, payload) {
        geosocial_obs::warn!("serve", "store append flush failed, record buffered: {e}");
    }
    if traced {
        task_span("store.append", t0, now_us().saturating_sub(t0), 0);
    }
}

/// The crash-replaceable part of a shard: everything `ShardCmd`s mutate.
/// Serializing it into the event store ([`crate::snapshot::encode_state`])
/// is the checkpoint; decoding the last snapshot and re-applying the
/// store's replay delta is the recovery.
///
/// Per-user state lives in a **dense slab**: `slot_of` is consulted once
/// per frame to map the user id to a compact slot, and the hot per-user
/// fields are parallel vectors indexed by that slot (struct-of-arrays), so
/// ingest, gauge refreshes, stats and drains scan contiguous memory
/// instead of chasing `HashMap` buckets.
pub(crate) struct ShardState {
    pub(crate) shard: usize,
    pub(crate) audit: Option<AuditConfig>,
    /// User id → slot in the parallel vectors below. Touched once per
    /// frame; everything after is slot-indexed.
    pub(crate) slot_of: HashMap<UserId, usize>,
    /// Slot → user id (the slab never frees slots; users are permanent for
    /// the session, matching the auditing model).
    pub(crate) users: Vec<UserId>,
    /// Slot → next expected ingest sequence number (exactly-once dedup).
    pub(crate) next_seq: Vec<u64>,
    /// Slot → the user's online auditor.
    pub(crate) auditors: Vec<OnlineAuditor>,
    pub(crate) stats: ShardStats,
    pub(crate) finished: bool,
}

impl ShardState {
    pub(crate) fn new(shard: usize) -> Self {
        Self {
            shard,
            audit: None,
            slot_of: HashMap::new(),
            users: Vec::new(),
            next_seq: Vec::new(),
            auditors: Vec::new(),
            stats: ShardStats { shard, ..Default::default() },
            finished: false,
        }
    }

    /// Session gate common to every ingest: `Hello` must have fixed the
    /// origin and the stream must not be finished.
    fn gate(&self) -> Option<Response> {
        if self.audit.is_none() {
            return Some(hello_first());
        }
        if self.finished {
            return Some(after_finish());
        }
        None
    }

    /// The user's slot, allocating slab entries on first contact. Only
    /// called after [`ShardState::gate`], so the audit config exists.
    fn slot(&mut self, user: UserId) -> usize {
        if let Some(&s) = self.slot_of.get(&user) {
            return s;
        }
        let s = self.users.len();
        self.slot_of.insert(user, s);
        self.users.push(user);
        self.next_seq.push(0);
        let audit = self.audit.clone().expect("gated on Hello");
        self.auditors.push(OnlineAuditor::new(user, audit));
        s
    }

    /// The fault plan's kill point, consulted once per **applied event**
    /// (never during replay) — so a planned crash can land mid-`GpsRun`,
    /// which is exactly the case the per-event retry contract must survive.
    fn kill_check(&self, config: &ServerConfig, obs: Option<&ShardMetrics>) {
        if obs.is_some() {
            let applied = self.stats.gps_events + self.stats.checkin_events;
            if config.fault.should_kill(self.shard, applied as u64) {
                panic!("injected fault: shard {} killed before ingest {}", self.shard, applied);
            }
        }
    }

    /// The per-event sequence contract: apply `seq == next`, acknowledge
    /// `seq < next` without re-applying (a retried delivery of an
    /// already-applied event), reject gaps.
    fn seq_admit(&mut self, slot: usize, seq: u64, obs: Option<&ShardMetrics>) -> Admit {
        let next = self.next_seq[slot];
        if seq < next {
            self.stats.duplicates += 1;
            if obs.is_some() {
                metrics::duplicates().inc();
                // A retried delivery hit the dedup path: mark the trace
                // (no-op without an active task, and skipped during
                // replay where obs is None).
                task_mark("serve.dedup", FLAG_DEDUP);
            }
            Admit::Duplicate
        } else if seq > next {
            Admit::Gap(next)
        } else {
            Admit::Apply
        }
    }

    /// Apply one command. `obs` carries the metric handles for live
    /// processing and is `None` during crash replay, where the state (and
    /// `stats`) must reconverge but the process-global metrics must not be
    /// double-counted. `store` receives one record per **applied event**
    /// (also `None` during replay, so replayed events are not re-logged) —
    /// appended as each event applies, so a crash mid-command leaves
    /// exactly the applied prefix in the store.
    pub(crate) fn apply(
        &mut self,
        cmd: &ShardCmd,
        config: &ServerConfig,
        obs: Option<&ShardMetrics>,
        mut store: Option<&mut EventStore>,
    ) -> Response {
        let mut ev_buf = Vec::new();
        match cmd {
            ShardCmd::SetOrigin { origin } => match &self.audit {
                Some(a)
                    if a.origin.lat.to_bits() != origin.lat.to_bits()
                        || a.origin.lon.to_bits() != origin.lon.to_bits() =>
                {
                    Response::Error {
                        message: format!(
                            "origin already fixed at ({}, {})",
                            a.origin.lat, a.origin.lon
                        ),
                    }
                }
                Some(_) => Response::Ok,
                None => {
                    self.audit = Some(config.audit_config(*origin));
                    if let Some(st) = store.as_deref_mut() {
                        crate::snapshot::hello_payload(&mut ev_buf, *origin);
                        append_logged(st, SENTINEL_USER, 0, &ev_buf);
                    }
                    Response::Ok
                }
            },
            ShardCmd::Gps { user, seq, point } => {
                if let Some(resp) = self.gate() {
                    return resp;
                }
                let slot = self.slot(*user);
                match self.seq_admit(slot, *seq, obs) {
                    Admit::Duplicate => Response::Verdicts { verdicts: Vec::new() },
                    Admit::Gap(next) => gap_error(*user, *seq, next),
                    Admit::Apply => {
                        self.kill_check(config, obs);
                        self.next_seq[slot] += 1;
                        self.auditors[slot].push_gps(*point);
                        self.stats.gps_events += 1;
                        if obs.is_some() {
                            metrics::events_gps().inc();
                        }
                        if let Some(st) = store.as_deref_mut() {
                            crate::snapshot::gps_payload(
                                &mut ev_buf,
                                *seq,
                                point.pos.lat,
                                point.pos.lon,
                            );
                            append_logged(st, *user, point.t, &ev_buf);
                        }
                        self.emit_verdicts(slot, obs)
                    }
                }
            }
            ShardCmd::GpsRun { user, first_seq, fixes } => {
                if let Some(resp) = self.gate() {
                    return resp;
                }
                let slot = self.slot(*user);
                let next = self.next_seq[slot];
                if *first_seq > next {
                    return gap_error(*user, *first_seq, next);
                }
                // The prefix below `next` is a retried delivery of events
                // already applied (e.g. a run partially applied before a
                // fault): acknowledge per event without re-applying.
                let dup = ((next - *first_seq) as usize).min(fixes.len());
                if dup > 0 {
                    self.stats.duplicates += dup;
                    if obs.is_some() {
                        metrics::duplicates().add(dup as u64);
                        task_mark("serve.dedup", FLAG_DEDUP);
                    }
                }
                for (i, fix) in fixes.iter().enumerate().skip(dup) {
                    let seq = *first_seq + i as u64;
                    self.kill_check(config, obs);
                    self.next_seq[slot] += 1;
                    self.auditors[slot]
                        .push_gps(GpsPoint { t: fix.t, pos: LatLon::new(fix.lat, fix.lon) });
                    self.stats.gps_events += 1;
                    if obs.is_some() {
                        metrics::events_gps().inc();
                    }
                    if let Some(st) = store.as_deref_mut() {
                        crate::snapshot::gps_payload(&mut ev_buf, seq, fix.lat, fix.lon);
                        append_logged(st, *user, fix.t, &ev_buf);
                    }
                }
                self.emit_verdicts(slot, obs)
            }
            ShardCmd::Checkin { user, seq, checkin } => {
                if let Some(resp) = self.gate() {
                    return resp;
                }
                let slot = self.slot(*user);
                match self.seq_admit(slot, *seq, obs) {
                    Admit::Duplicate => Response::Verdicts { verdicts: Vec::new() },
                    Admit::Gap(next) => gap_error(*user, *seq, next),
                    Admit::Apply => {
                        self.kill_check(config, obs);
                        self.next_seq[slot] += 1;
                        self.auditors[slot].push_checkin(*checkin);
                        self.stats.checkin_events += 1;
                        if obs.is_some() {
                            metrics::events_checkin().inc();
                        }
                        if let Some(st) = store.as_deref_mut() {
                            crate::snapshot::checkin_payload(
                                &mut ev_buf,
                                *seq,
                                checkin.poi,
                                checkin.location.lat,
                                checkin.location.lon,
                            );
                            append_logged(st, *user, checkin.t, &ev_buf);
                        }
                        self.emit_verdicts(slot, obs)
                    }
                }
            }
            ShardCmd::Query { user } => match self.slot_of.get(user) {
                Some(&s) => Response::Composition { composition: self.auditors[s].composition() },
                None => Response::Error { message: format!("unknown user {user}") },
            },
            ShardCmd::AsOf { user, t } => {
                let Some(audit) = self.audit.clone() else {
                    return hello_first();
                };
                let Some(st) = store.as_deref() else {
                    return store_needed();
                };
                match audit_stored(st, *user, i64::MIN, *t, audit) {
                    Ok(composition) => Response::AsOf { composition, applied: st.applied(*user) },
                    Err(message) => Response::Error { message },
                }
            }
            ShardCmd::Window { cohort, t0, t1 } => {
                let Some(audit) = self.audit.clone() else {
                    return hello_first();
                };
                let Some(st) = store.as_deref() else {
                    return store_needed();
                };
                let mut compositions = Vec::new();
                for &user in cohort {
                    // Only the cohort members this shard owns; the
                    // broadcast merge concatenates across shards. Users
                    // never seen contribute nothing rather than an empty
                    // composition.
                    if !self.slot_of.contains_key(&user) {
                        continue;
                    }
                    match audit_stored(st, user, *t0, *t1, audit.clone()) {
                        Ok(composition) => compositions.push(composition),
                        Err(message) => return Response::Error { message },
                    }
                }
                Response::Compositions { compositions }
            }
            ShardCmd::Traces { .. } => {
                // Normally intercepted by the worker loop (which owns the
                // trace store); reaching `apply` means the shard has no
                // trace stream to read — answer empty rather than error.
                Response::Traces { traces: Vec::new() }
            }
            ShardCmd::Stats => {
                self.stats.users = self.auditors.len();
                let mut total = ServerStats::default();
                let mut comp = StreamComposition::default();
                let mut buffered = 0;
                for a in &self.auditors {
                    comp.merge(&a.composition());
                    buffered += a.state_size();
                }
                total.absorb(self.stats.clone(), comp, buffered);
                Response::Stats { stats: total }
            }
            ShardCmd::Drain { finalize } => {
                let mut report = DrainReport {
                    shards: 1,
                    users: self.auditors.len(),
                    finalized: self.finished,
                    ..Default::default()
                };
                for a in &self.auditors {
                    report.pending_checkins += a.composition().pending_checkins;
                    report.held_events += a.held_events();
                    report.open_visits += a.open_visits();
                    report.open_window_fixes += a.open_window_fixes();
                }
                if *finalize && !self.finished {
                    // Everything still pending is finalized with the
                    // evidence at hand — record how much that was.
                    report.forced_by_drain = report.pending_checkins;
                    report.verdicts_flushed = self.finalize_all(obs, store.as_deref_mut());
                    report.finalized = true;
                }
                if let Some(st) = store.as_deref() {
                    report.store_records = st.next_lsn();
                    report.store_segments = st.segment_count();
                    report.store_bytes = st.total_bytes();
                }
                for a in &self.auditors {
                    report.composition.merge(&a.composition());
                }
                Response::Drained { report }
            }
            ShardCmd::Finish => {
                let mut verdicts = Vec::new();
                if !self.finished {
                    self.finished = true;
                    if let Some(st) = store {
                        crate::snapshot::finish_payload(&mut ev_buf);
                        append_logged(st, SENTINEL_USER, 0, &ev_buf);
                    }
                    for s in self.user_order() {
                        let a = &mut self.auditors[s];
                        a.finish();
                        verdicts.extend(a.drain_verdicts());
                    }
                    self.stats.verdicts += verdicts.len();
                    if let Some(m) = obs {
                        metrics::verdicts().add(verdicts.len() as u64);
                        m.verdicts.add(verdicts.len() as u64);
                    }
                }
                Response::Verdicts { verdicts }
            }
        }
    }

    /// Slots in ascending user-id order — finalization iterates this so
    /// verdict order is deterministic regardless of arrival order.
    fn user_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.auditors.len()).collect();
        order.sort_unstable_by_key(|&s| self.users[s]);
        order
    }

    /// Drain the slot's newly finalized verdicts into a response.
    fn emit_verdicts(&mut self, slot: usize, obs: Option<&ShardMetrics>) -> Response {
        let verdicts: Vec<_> = self.auditors[slot].drain_verdicts().collect();
        self.stats.verdicts += verdicts.len();
        if let Some(m) = obs {
            metrics::verdicts().add(verdicts.len() as u64);
            m.verdicts.add(verdicts.len() as u64);
        }
        Response::Verdicts { verdicts }
    }

    /// Finalize every auditor; returns the number of verdicts flushed.
    fn finalize_all(
        &mut self,
        obs: Option<&ShardMetrics>,
        store: Option<&mut EventStore>,
    ) -> usize {
        self.finished = true;
        if let Some(st) = store {
            let mut buf = Vec::new();
            crate::snapshot::finish_payload(&mut buf);
            append_logged(st, SENTINEL_USER, 0, &buf);
        }
        let mut flushed = 0;
        for s in self.user_order() {
            let a = &mut self.auditors[s];
            a.finish();
            flushed += a.drain_verdicts().count();
        }
        self.stats.verdicts += flushed;
        if let Some(m) = obs {
            metrics::verdicts().add(flushed as u64);
            m.verdicts.add(flushed as u64);
        }
        flushed
    }
}

fn gap_error(user: UserId, seq: u64, next: u64) -> Response {
    Response::Error { message: format!("user {user} ingest gap: got seq {seq}, expected {next}") }
}

fn store_needed() -> Response {
    Response::Error { message: "historical reads need the shard event store".into() }
}

/// Re-audit one user's stored events in `[t0, t1]` through a fresh
/// auditor — the historical-read primitive behind `AsOf` and `Window`.
/// The auditors are deterministic, so the result equals a batch audit of
/// the user's stream truncated to that range; duplicates were deduplicated
/// before they were ever logged, so replay cannot double-apply.
fn audit_stored(
    store: &EventStore,
    user: UserId,
    t0: i64,
    t1: i64,
    audit: AuditConfig,
) -> Result<StreamComposition, String> {
    let records = match store.query(user, t0, t1) {
        Ok(records) => records,
        Err(e) => return Err(format!("store read failed: {e}")),
    };
    let mut auditor = OnlineAuditor::new(user, audit);
    for rec in &records {
        match crate::snapshot::decode_event(rec) {
            Ok(Request::Gps { t, lat, lon, .. }) => {
                auditor.push_gps(GpsPoint { t, pos: LatLon::new(lat, lon) });
            }
            Ok(Request::Checkin { t, poi, lat, lon, .. }) => {
                auditor.push_checkin(Checkin {
                    t,
                    poi,
                    category: PoiCategory::Food,
                    location: LatLon::new(lat, lon),
                    provenance: None,
                });
            }
            // Per-user queries never return the sentinel control records.
            Ok(_) => {}
            Err(e) => return Err(format!("stored record {} undecodable: {e}", rec.lsn)),
        }
    }
    auditor.finish();
    let _ = auditor.drain_verdicts().count();
    Ok(auditor.composition())
}

/// What [`ShardState::seq_admit`] decided for one event.
enum Admit {
    /// The event is at the expected sequence number: apply it.
    Apply,
    /// Already applied: acknowledge without re-applying.
    Duplicate,
    /// Ahead of the expected sequence number (carried in the variant).
    Gap(u64),
}

/// One shard worker: a supervisor loop owning the auditors of the users
/// hashed to it. All state flows through the shard's event store: applied
/// mutations append to its log, the state is snapshotted into it whenever
/// [`EventStore::snapshot_due`] says so (at least `snapshot_every` records
/// and the last snapshot's size in log bytes), and opening the store on a
/// non-empty directory restores everything it held. Commands are applied under
/// `catch_unwind`; a panic rebuilds the state from the store (snapshot +
/// replay delta, including any still-unflushed tail), retries the command
/// once, and keeps serving.
fn shard_worker(
    shard: usize,
    config: Arc<ServerConfig>,
    store_dir: PathBuf,
    rx: mpsc::Receiver<ShardMsg>,
) {
    let shard_metrics = ShardMetrics::new(shard);
    let opts = StoreOptions {
        segment_bytes: config.segment_bytes,
        index_every: config.index_every,
        fault: config.fault.clone(),
        shard: shard as u64,
        flush_bytes: config.flush_bytes,
    };
    let mut store = match EventStore::open(&store_dir, opts) {
        Ok(store) => store,
        Err(e) => {
            // Degrade instead of hanging connections on a dead channel:
            // answer everything with an error until shutdown.
            geosocial_obs::error!("serve", "shard store failed to open";
                shard = shard, dir = format!("{}", store_dir.display()), cause = format!("{e}"));
            while let Ok(ShardMsg { reply, .. }) = rx.recv() {
                shard_metrics.queue.dec();
                let _ = reply
                    .send(Response::Error { message: format!("shard {shard} store unavailable") });
            }
            return;
        }
    };
    // The shard's trace stream: a second event store under `trace/` that
    // is never snapshotted, so `replay_delta` always returns every span
    // record it holds (including the unflushed tail). Opened without the
    // fault plan — tracing must observe injected faults, not amplify
    // them. Failure to open degrades to in-memory-only tracing.
    let trace_opts = StoreOptions {
        segment_bytes: config.segment_bytes,
        index_every: config.index_every,
        fault: FaultPlan::none(),
        shard: shard as u64,
        flush_bytes: config.flush_bytes,
    };
    let mut trace_store = match EventStore::open(store_dir.join("trace"), trace_opts) {
        Ok(st) => Some(st),
        Err(e) => {
            geosocial_obs::warn!("serve", "shard trace stream failed to open, tracing is volatile";
                shard = shard, cause = format!("{e}"));
            None
        }
    };
    let mut live = restore_shard(shard, &store, &config);
    let snapshot_every = config.snapshot_every.max(1) as u64;
    let mut since_refresh = 0usize;

    while let Ok(ShardMsg { cmd, ctx, reply }) = rx.recv() {
        shard_metrics.queue.dec();
        if matches!(cmd, ShardCmd::Gps { .. } | ShardCmd::GpsRun { .. } | ShardCmd::Checkin { .. })
        {
            since_refresh += 1;
            if since_refresh >= GAUGE_REFRESH_EVERY {
                since_refresh = 0;
                shard_metrics.refresh(&live.auditors);
            }
        } else if matches!(cmd, ShardCmd::Stats) {
            shard_metrics.refresh(&live.auditors);
        }
        let finalizes = matches!(cmd, ShardCmd::Finish | ShardCmd::Drain { finalize: true });

        // Trace queries read the shard's trace stream directly; they
        // never touch auditor state, so they bypass `apply` entirely.
        if let ShardCmd::Traces { trace_id, slowest, path } = &cmd {
            let resp = match &trace_store {
                Some(ts) => traces_response(ts, *trace_id, *slowest, path.as_deref()),
                None => Response::Traces { traces: Vec::new() },
            };
            let _ = reply.send(resp);
            continue;
        }

        // A context on the message means the client chose to record this
        // trace (head-sampled or force-recorded, e.g. a retry): open a
        // task so every layer below can attach spans, and synthesize the
        // client's send→receive leg from the context's start stamp.
        let traced = geosocial_obs::trace::enabled() && ctx.is_some_and(|c| c.recorded());
        let recv_us = if traced { now_us() } else { 0 };
        if traced {
            let ctx = ctx.expect("traced implies ctx");
            geosocial_obs::trace::task_begin(ctx, shard as i32);
            task_span(
                "client.send",
                ctx.start_us,
                recv_us.saturating_sub(ctx.start_us),
                if ctx.attempt > 0 { FLAG_RETRY } else { 0 },
            );
        }

        let apply_t0 = if traced { now_us() } else { 0 };
        let mut resp = apply_guarded(&mut live, &cmd, &config, &shard_metrics, &mut store);
        if let Err(panic_msg) = &resp {
            // The worker crashed mid-command: rebuild from the store's
            // snapshot plus its replay delta — the log already holds any
            // prefix of the crashed command that applied before the fault
            // — then retry the command once (an injected kill is consumed
            // by now; the prefix dedups per event).
            geosocial_obs::warn!("serve", "shard worker crashed, recovering";
                shard = shard,
                replayed = store.records_since_snapshot(),
                cause = panic_msg,
            );
            let rec_t0 = if traced { now_us() } else { 0 };
            live = restore_shard(shard, &store, &config);
            live.stats.recoveries += 1;
            metrics::recoveries().inc();
            if traced {
                task_span("serve.recover", rec_t0, now_us().saturating_sub(rec_t0), FLAG_RECOVERY);
            }
            resp = apply_guarded(&mut live, &cmd, &config, &shard_metrics, &mut store);
        }
        if traced {
            task_span("serve.apply", apply_t0, now_us().saturating_sub(apply_t0), 0);
        }
        let resp = match resp {
            Ok(resp) => {
                if store.snapshot_due(snapshot_every) {
                    let state = crate::snapshot::encode_state(&live);
                    if let Err(e) = store.snapshot(&state) {
                        // Non-fatal: recovery replays a longer delta until
                        // a later snapshot succeeds.
                        geosocial_obs::warn!("serve", "shard snapshot failed, will retry";
                            shard = shard, cause = format!("{e}"));
                    }
                }
                resp
            }
            Err(panic_msg) => {
                geosocial_obs::error!("serve", "command failed twice, skipping it";
                    shard = shard, cause = panic_msg);
                Response::Error {
                    message: format!("shard {shard} failed applying the request: {panic_msg}"),
                }
            }
        };
        if finalizes {
            // Finalization just changed every composition; re-export.
            shard_metrics.refresh(&live.auditors);
        }
        // A dropped reply receiver means the connection died; keep serving.
        let ack_t0 = if traced { now_us() } else { 0 };
        let _ = reply.send(resp);
        if traced {
            task_span("serve.ack", ack_t0, now_us().saturating_sub(ack_t0), 0);
            // Close the task: tail-promote on the end-to-end handling
            // time, fold the trace-level flags into every span, then
            // persist to the trace stream and the in-process collector.
            let (flags, mut spans) = task_end();
            let root_dur = now_us().saturating_sub(recv_us);
            let flags = promote_flags(flags, root_dur, config.trace_slow_us);
            for s in &mut spans {
                s.flags |= flags;
            }
            persist_spans(trace_store.as_mut(), &spans);
            let coll = geosocial_obs::trace::collector();
            for s in spans {
                coll.record(s);
            }
        }
        if finalizes {
            // Make the collected traces durable at the same points the
            // operator quiesces the shard (drain-finalize and finish).
            if let Some(ts) = trace_store.as_mut() {
                if let Err(e) = ts.flush() {
                    geosocial_obs::warn!("serve", "trace stream flush failed";
                        shard = shard, cause = format!("{e}"));
                }
            }
        }
    }
    // Shutdown: push the buffered tail to disk so a persistent store
    // reopens without losing acknowledged events.
    if let Err(e) = store.flush() {
        geosocial_obs::warn!("serve", "final store flush failed"; shard = shard, cause = format!("{e}"));
    }
    if let Some(ts) = trace_store.as_mut() {
        if let Err(e) = ts.flush() {
            geosocial_obs::warn!("serve", "final trace stream flush failed"; shard = shard, cause = format!("{e}"));
        }
    }
}

/// Fold a 128-bit trace id into the store's u32 user-key space (never the
/// sentinel), so a trace's spans share one `(user, t)` index chain.
pub(crate) fn trace_user_key(trace_id: u128) -> u32 {
    let folded = geosocial_obs::mix64((trace_id as u64) ^ ((trace_id >> 64) as u64));
    let key = (folded ^ (folded >> 32)) as u32;
    if key == SENTINEL_USER {
        0
    } else {
        key
    }
}

/// Append one record per span to the shard's trace stream (skipped when
/// the stream failed to open — tracing degrades to in-memory only).
fn persist_spans(store: Option<&mut EventStore>, spans: &[SpanRecord]) {
    let Some(st) = store else { return };
    let mut buf = Vec::new();
    for span in spans {
        crate::snapshot::span_payload(&mut buf, span);
        if let Err(e) = st.append(trace_user_key(span.trace_id), span.start_us as i64, &buf) {
            geosocial_obs::warn!("serve", "trace stream append failed, span buffered: {e}");
        }
    }
}

/// Answer one shard's part of a `Traces` request from its trace stream.
/// The stream is never snapshotted, so `replay_delta` is a full scan of
/// everything the shard ever recorded (plus the unflushed tail).
fn traces_response(
    store: &EventStore,
    trace_id: Option<u128>,
    slowest: usize,
    path: Option<&str>,
) -> Response {
    let records = match store.replay_delta() {
        Ok(records) => records,
        Err(e) => return Response::Error { message: format!("trace stream unreadable: {e}") },
    };
    let mut by_trace: HashMap<u128, Vec<SpanRecord>> = HashMap::new();
    for rec in &records {
        match crate::snapshot::decode_span(rec) {
            Ok(span) => {
                if trace_id.is_some_and(|id| id != span.trace_id) {
                    continue;
                }
                by_trace.entry(span.trace_id).or_default().push(span);
            }
            Err(e) => {
                geosocial_obs::warn!("serve", "skipping undecodable span record";
                    lsn = rec.lsn, cause = format!("{e}"));
            }
        }
    }
    let mut dumps: Vec<TraceDump> = by_trace
        .into_iter()
        .filter(|(_, spans)| match path {
            Some(p) => spans.iter().any(|s| s.name.contains(p)),
            None => true,
        })
        .map(|(id, spans)| dump_of(id, spans))
        .collect();
    dumps.sort_by(|a, b| b.root_dur_us.cmp(&a.root_dur_us).then(a.trace_id.cmp(&b.trace_id)));
    // Bound the per-shard answer: `slowest` when asked, a hard ceiling
    // otherwise — the merged response must stay under the frame limit.
    let cap = if slowest == 0 { 256 } else { slowest };
    dumps.truncate(cap);
    Response::Traces { traces: dumps }
}

/// Group one trace's spans into the wire form, ordered by start time.
/// `root_dur_us` is the trace's extent on this shard (earliest start to
/// latest end) — equal to the root span's duration once merged, since the
/// synthesized `client.send` leg starts at the root's start stamp.
fn dump_of(id: u128, mut spans: Vec<SpanRecord>) -> TraceDump {
    spans.sort_by_key(|s| (s.start_us, s.span_id));
    let t0 = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let t1 = spans.iter().map(|s| s.start_us.saturating_add(s.dur_us)).max().unwrap_or(0);
    TraceDump {
        trace_id: geosocial_obs::trace::trace_hex(id),
        root_dur_us: t1.saturating_sub(t0),
        spans: spans.into_iter().map(wire_span).collect(),
    }
}

/// One span in protocol form (trace id as 32-hex — the vendored serde has
/// no u128 support, and hex ids are what operators grep anyway).
pub(crate) fn wire_span(s: SpanRecord) -> TraceSpan {
    TraceSpan {
        trace_id: geosocial_obs::trace::trace_hex(s.trace_id),
        span_id: s.span_id,
        parent: s.parent,
        name: s.name,
        start_us: s.start_us,
        dur_us: s.dur_us,
        flags: s.flags,
        shard: s.shard,
    }
}

/// Apply one command, catching panics (injected or genuine) so the
/// supervisor can recover instead of losing the shard.
fn apply_guarded(
    state: &mut ShardState,
    cmd: &ShardCmd,
    config: &ServerConfig,
    obs: &ShardMetrics,
    store: &mut EventStore,
) -> Result<Response, String> {
    catch_unwind(AssertUnwindSafe(|| state.apply(cmd, config, Some(obs), Some(store)))).map_err(
        |cause| {
            cause
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| cause.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".into())
        },
    )
}

/// Rebuild a shard from its event store: decode the last durable snapshot
/// (or start empty) and re-apply every record logged past it. Reads the
/// active segment through the store's in-memory mirror, so events that
/// were acknowledged but not yet flushed when a worker panicked are
/// replayed too — the exactly-once contract survives in-process crashes
/// without an fsync per ack. Metric and store side effects are suppressed
/// (`obs`/`store` are `None` in the replayed `apply`s) — the live run
/// already counted and logged these events; `stats` reconverges because
/// `apply` is deterministic.
fn restore_shard(shard: usize, store: &EventStore, config: &ServerConfig) -> ShardState {
    let mut state = match store.snapshot_state() {
        Some(bytes) => match crate::snapshot::decode_state(bytes, config) {
            Ok(state) => state,
            Err(e) => {
                geosocial_obs::error!("serve", "shard snapshot undecodable, starting empty";
                    shard = shard, cause = format!("{e}"));
                ShardState::new(shard)
            }
        },
        None => ShardState::new(shard),
    };
    match store.replay_delta() {
        Ok(records) => {
            for rec in &records {
                match crate::snapshot::decode_event(rec) {
                    Ok(req) => {
                        if let Some(cmd) = mutation_cmd(req) {
                            let _ = state.apply(&cmd, config, None, None);
                        }
                    }
                    Err(e) => {
                        geosocial_obs::warn!("serve", "skipping undecodable stored record";
                            shard = shard, lsn = rec.lsn, cause = format!("{e}"));
                    }
                }
            }
        }
        Err(e) => {
            geosocial_obs::warn!("serve", "shard replay delta unreadable";
                shard = shard, cause = format!("{e}"));
        }
    }
    state
}

fn hello_first() -> Response {
    Response::Error { message: "send Hello before ingesting events".into() }
}

fn after_finish() -> Response {
    Response::Error { message: "stream already finished".into() }
}

/// Bounded-concurrency accounting for connection handlers: the acceptor
/// blocks in [`ConnSlots::acquire`] while `max` handlers are live, and
/// shutdown waits in [`ConnSlots::wait_idle`] for the last handler to
/// finish (handlers are detached threads; the slot count is the join).
pub(crate) struct ConnSlots {
    max: usize,
    active: Mutex<usize>,
    cv: Condvar,
    gauge: Arc<Gauge>,
}

impl ConnSlots {
    pub(crate) fn new(max: usize, gauge_name: &'static str) -> Self {
        Self {
            max: max.max(1),
            active: Mutex::new(0),
            cv: Condvar::new(),
            gauge: gauge(gauge_name),
        }
    }

    /// Take a slot; returns `false` if shutdown began while waiting.
    pub(crate) fn acquire(&self, shutdown: &AtomicBool) -> bool {
        let mut active = self.active.lock().expect("slots lock");
        while *active >= self.max {
            if shutdown.load(Ordering::SeqCst) {
                return false;
            }
            let (guard, _) =
                self.cv.wait_timeout(active, Duration::from_millis(50)).expect("slots lock");
            active = guard;
        }
        *active += 1;
        self.gauge.inc();
        true
    }

    pub(crate) fn release(&self) {
        let mut active = self.active.lock().expect("slots lock");
        *active = active.saturating_sub(1);
        self.gauge.dec();
        self.cv.notify_all();
    }

    /// Block until every handler has released its slot.
    pub(crate) fn wait_idle(&self) {
        let mut active = self.active.lock().expect("slots lock");
        while *active > 0 {
            let (guard, _) =
                self.cv.wait_timeout(active, Duration::from_millis(50)).expect("slots lock");
            active = guard;
        }
    }
}

/// RAII slot release for a handler thread.
pub(crate) struct SlotGuard(pub(crate) Arc<ConnSlots>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// True when an I/O error is an idle-timeout expiry rather than a peer
/// hangup or protocol violation.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Per-connection handler: frames in, frames out, strictly 1:1 in order.
fn handle_conn(
    stream: TcpStream,
    config: &ServerConfig,
    shards: Vec<mpsc::Sender<ShardMsg>>,
    shutdown: Arc<AtomicBool>,
    self_addr: SocketAddr,
    queries: Arc<AtomicUsize>,
    queues: Arc<Vec<Arc<Gauge>>>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let (reply_tx, reply_rx) = mpsc::channel::<Response>();
    let n = shards.len();
    // Frame buffers reused across the connection: requests decode straight
    // out of `in_buf` (no intermediate String/Value allocation on the
    // binary path) and responses are framed into `out_buf` before one
    // write.
    let mut in_buf: Vec<u8> = Vec::new();
    let mut out_buf: Vec<u8> = Vec::new();

    let route = |shards: &[mpsc::Sender<ShardMsg>],
                 user: UserId,
                 cmd: ShardCmd,
                 ctx: Option<TraceContext>| {
        let shard = shard_of(user, shards.len());
        queues[shard].inc();
        shards[shard].send(ShardMsg { cmd, ctx, reply: reply_tx.clone() }).is_ok()
    };
    // Broadcasts stay untraced: fanning one context out to every shard
    // would record N copies of the same leg, and the traced acceptance
    // path (ingest) is always single-shard.
    let broadcast = |shards: &[mpsc::Sender<ShardMsg>], mk: &dyn Fn() -> ShardCmd| {
        for (shard, tx) in shards.iter().enumerate() {
            queues[shard].inc();
            let _ = tx.send(ShardMsg { cmd: mk(), ctx: None, reply: reply_tx.clone() });
        }
    };

    loop {
        let len = match read_frame_into(&mut reader, &mut in_buf) {
            Ok(Some(len)) => len,
            Ok(None) => break,
            Err(e) if is_timeout(&e) => {
                metrics::conn_timeouts().inc();
                geosocial_obs::info!("serve", "connection idle past the read timeout, dropping");
                break;
            }
            Err(e) => return Err(e),
        };
        // Decode straight from the connection buffer; the format tag picks
        // the codec per frame, so JSON and binary clients share the port
        // (and a client may interleave formats). A trace-context envelope,
        // when present, peels off here and rides the shard message. Frames
        // are length-prefixed, so an undecodable one is answered with an
        // `Error` in its detected format and the connection reads on.
        let (req, wire_fmt, ctx) = match wire::decode_request_traced(&in_buf[..len]) {
            Ok(decoded) => decoded,
            Err(e) => {
                metrics::decode_errors().inc();
                let resp = Response::Error { message: e.to_string() };
                write_response(&mut writer, &mut out_buf, &resp, wire::detect(&in_buf[..len]))?;
                continue;
            }
        };
        match wire_fmt {
            WireFormat::Json => metrics::bytes_in_json().add(len as u64 + 4),
            WireFormat::Binary => metrics::bytes_in_binary().add(len as u64 + 4),
        }
        // Timed from post-decode to response-ready: routing + shard work,
        // excluding socket read/write.
        let mut clock = Stopwatch::start();
        let latency = match req {
            Request::Hello { .. } => metrics::latency_hello(),
            Request::Gps { .. } => metrics::latency_gps(),
            Request::GpsRun { .. } => metrics::latency_run(),
            Request::Checkin { .. } => metrics::latency_checkin(),
            Request::User { .. } => metrics::latency_user(),
            Request::AsOf { .. } => metrics::latency_asof(),
            Request::Window { .. } => metrics::latency_window(),
            Request::Stats => metrics::latency_stats(),
            Request::Metrics => metrics::latency_metrics(),
            Request::Traces { .. } => metrics::latency_traces(),
            Request::MetricsHistory { .. } => metrics::latency_history(),
            Request::Drain { .. } => metrics::latency_drain(),
            Request::Finish | Request::Shutdown => metrics::latency_finish(),
            // Cluster control answered with an error below; bucket with
            // the other control queries.
            Request::ShardMap | Request::Handoff { .. } => metrics::latency_stats(),
        };
        let resp = match req {
            Request::Hello { origin_lat, origin_lon } => {
                let origin = LatLon::new(origin_lat, origin_lon);
                broadcast(&shards, &|| ShardCmd::SetOrigin { origin });
                merge_broadcast(&reply_rx, n)
            }
            req @ (Request::Gps { .. } | Request::GpsRun { .. } | Request::Checkin { .. }) => {
                let user = match &req {
                    Request::Gps { user, .. }
                    | Request::GpsRun { user, .. }
                    | Request::Checkin { user, .. } => *user,
                    _ => unreachable!("outer pattern is ingest-only"),
                };
                let cmd = mutation_cmd(req).expect("ingest maps to a shard mutation");
                if route(&shards, user, cmd, ctx) {
                    reply_rx.recv().unwrap_or_else(|_| shard_gone())
                } else {
                    shard_gone()
                }
            }
            Request::User { user } => {
                queries.fetch_add(1, Ordering::Relaxed);
                metrics::queries().inc();
                if route(&shards, user, ShardCmd::Query { user }, ctx) {
                    reply_rx.recv().unwrap_or_else(|_| shard_gone())
                } else {
                    shard_gone()
                }
            }
            Request::AsOf { user, t } => {
                queries.fetch_add(1, Ordering::Relaxed);
                metrics::queries().inc();
                if route(&shards, user, ShardCmd::AsOf { user, t }, ctx) {
                    reply_rx.recv().unwrap_or_else(|_| shard_gone())
                } else {
                    shard_gone()
                }
            }
            Request::Window { cohort, t0, t1 } => {
                queries.fetch_add(1, Ordering::Relaxed);
                metrics::queries().inc();
                broadcast(&shards, &|| ShardCmd::Window { cohort: cohort.clone(), t0, t1 });
                merge_broadcast(&reply_rx, n)
            }
            Request::Stats => {
                queries.fetch_add(1, Ordering::Relaxed);
                metrics::queries().inc();
                broadcast(&shards, &|| ShardCmd::Stats);
                merge_broadcast(&reply_rx, n)
            }
            Request::Metrics => {
                // Served here, never routed: a scrape must stay cheap and
                // answerable even while every shard queue is deep.
                queries.fetch_add(1, Ordering::Relaxed);
                metrics::queries().inc();
                Response::Metrics { text: geosocial_obs::render_text() }
            }
            Request::Traces { trace_id, slowest, path } => {
                queries.fetch_add(1, Ordering::Relaxed);
                metrics::queries().inc();
                match trace_id.as_deref().map(geosocial_obs::trace::parse_trace_id) {
                    Some(None) => Response::Error {
                        message: format!(
                            "bad trace id {:?}: want up to 32 hex digits",
                            trace_id.unwrap_or_default()
                        ),
                    },
                    parsed => {
                        let id = parsed.flatten();
                        broadcast(&shards, &|| ShardCmd::Traces {
                            trace_id: id,
                            slowest,
                            path: path.clone(),
                        });
                        merge_traces(&reply_rx, n, slowest)
                    }
                }
            }
            Request::MetricsHistory { last } => {
                // Like `Metrics`: answered inline from the obs history
                // ring, cheap and shard-queue-independent.
                queries.fetch_add(1, Ordering::Relaxed);
                metrics::queries().inc();
                Response::MetricsHistory { report: history_report(last) }
            }
            Request::Drain { finalize } => {
                metrics::drains().inc();
                geosocial_obs::info!("serve", "drain requested"; finalize = finalize);
                broadcast(&shards, &|| ShardCmd::Drain { finalize });
                merge_broadcast(&reply_rx, n)
            }
            Request::Finish => {
                broadcast(&shards, &|| ShardCmd::Finish);
                merge_broadcast(&reply_rx, n)
            }
            Request::Shutdown => {
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the acceptor so it can observe the flag.
                let _ = TcpStream::connect(self_addr);
                Response::Ok
            }
            Request::ShardMap | Request::Handoff { .. } => Response::Error {
                message: "cluster control request sent to a shard server \
                          (connect to geosocial-router instead)"
                    .into(),
            },
        };
        let us = clock.lap_us();
        latency.observe(us);
        match wire_fmt {
            WireFormat::Json => metrics::latency_wire_json().observe(us),
            WireFormat::Binary => metrics::latency_wire_binary().observe(us),
        }
        write_response(&mut writer, &mut out_buf, &resp, wire_fmt)?;
    }
    Ok(())
}

/// Frame `resp` into `out_buf` and write it. It is answered in the format
/// the request arrived in (control-plane responses stay JSON; see
/// `crate::wire`).
fn write_response(
    writer: &mut BufWriter<TcpStream>,
    out_buf: &mut Vec<u8>,
    resp: &Response,
    wire_fmt: WireFormat,
) -> io::Result<()> {
    out_buf.clear();
    wire::encode_response_frame(out_buf, resp, wire_fmt)?;
    match wire_fmt {
        WireFormat::Json => metrics::bytes_out_json().add(out_buf.len() as u64),
        WireFormat::Binary => metrics::bytes_out_binary().add(out_buf.len() as u64),
    }
    writer.write_all(out_buf)?;
    writer.flush()
}

use crate::merge::shard_gone;

/// Await `n` broadcast replies and merge them into one response (the
/// merge itself is shared with the cluster router; see [`crate::merge`]).
fn merge_broadcast(rx: &mpsc::Receiver<Response>, n: usize) -> Response {
    crate::merge::merge_responses((0..n).map(|_| rx.recv().unwrap_or_else(|_| shard_gone())))
}

/// Await `n` shard answers to a `Traces` broadcast and merge them via
/// [`crate::merge::merge_trace_responses`].
fn merge_traces(rx: &mpsc::Receiver<Response>, n: usize, slowest: usize) -> Response {
    crate::merge::merge_trace_responses(
        (0..n).map(|_| rx.recv().unwrap_or_else(|_| shard_gone())),
        slowest,
    )
}

/// Build a `MetricsHistory` answer from the obs history ring: the last
/// `last` snapshots (0 = all), with per-counter delta and rate computed
/// between the oldest and newest returned points.
pub(crate) fn history_report(last: usize) -> MetricsHistoryReport {
    let points = geosocial_obs::history(last);
    let Some((first, rest)) = points.split_first() else {
        return MetricsHistoryReport { points: 0, span_s: 0.0, rates: Vec::new() };
    };
    let newest = rest.last().unwrap_or(first);
    let span_s = newest.at_us.saturating_sub(first.at_us) as f64 / 1e6;
    let rates = newest
        .snap
        .counters
        .iter()
        .map(|(name, &v1)| {
            let v0 = first.snap.counters.get(name).copied().unwrap_or(0);
            let delta = v1.saturating_sub(v0);
            SeriesRate {
                name: name.clone(),
                last: v1,
                delta,
                per_sec: if span_s > 0.0 { delta as f64 / span_s } else { 0.0 },
            }
        })
        .collect();
    MetricsHistoryReport { points: points.len(), span_s, rates }
}

/// A running server bound to a local address.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<ServerStats>>,
}

impl ServerHandle {
    /// The address the server accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server to stop (a client must send `Shutdown`) and
    /// return the final counters.
    pub fn join(self) -> io::Result<ServerStats> {
        self.thread.join().map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve in a
/// background thread.
pub fn spawn(config: ServerConfig, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let thread = std::thread::Builder::new()
        .name("geosocial-serve".into())
        .spawn(move || run_with(listener, config))?;
    Ok(ServerHandle { addr: local, thread })
}

/// Serve on an already-bound listener until a client requests `Shutdown`.
/// Returns the final merged counters, after dumping them to stderr.
pub fn run_with(listener: TcpListener, config: ServerConfig) -> io::Result<ServerStats> {
    let config = Arc::new(config);
    let self_addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicUsize::new(0));
    let queues: Arc<Vec<Arc<Gauge>>> =
        Arc::new((0..config.shards.max(1)).map(queue_gauge).collect());
    let slots = Arc::new(ConnSlots::new(config.max_connections, "serve.connections"));

    // Event-store root: the configured directory, or an ephemeral
    // per-process one (unique even across servers in one process) that is
    // removed after the workers exit.
    static EPHEMERAL_STORE_SEQ: AtomicU64 = AtomicU64::new(0);
    let (store_root, ephemeral) = match &config.store_dir {
        Some(dir) => (dir.clone(), false),
        None => {
            let seq = EPHEMERAL_STORE_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("geosocial-serve-{}-{seq}", std::process::id()));
            (dir, true)
        }
    };
    std::fs::create_dir_all(&store_root)?;

    // Shard workers.
    let mut shard_txs = Vec::with_capacity(config.shards.max(1));
    let mut shard_threads = Vec::new();
    for shard in 0..config.shards.max(1) {
        let (tx, rx) = mpsc::channel::<ShardMsg>();
        let cfg = Arc::clone(&config);
        let dir = store_root.join(format!("shard-{shard}"));
        shard_threads.push(
            std::thread::Builder::new()
                .name(format!("geosocial-shard-{shard}"))
                .spawn(move || shard_worker(shard, cfg, dir, rx))?,
        );
        shard_txs.push(tx);
    }

    // Metrics-history ticker: snapshot the registry into the obs history
    // ring once a second for as long as the server runs, so
    // `MetricsHistory` can answer with rates. One tick lands immediately
    // so the ring is never empty.
    let expo_stop = Arc::new(AtomicBool::new(false));
    geosocial_obs::history_tick();
    let history_thread = {
        let stop = Arc::clone(&expo_stop);
        std::thread::Builder::new()
            .name("geosocial-history".into())
            .spawn(move || {
                let tick = std::time::Duration::from_millis(100);
                let mut elapsed = std::time::Duration::ZERO;
                let period = std::time::Duration::from_secs(1);
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    elapsed += tick;
                    if elapsed >= period {
                        elapsed = std::time::Duration::ZERO;
                        geosocial_obs::history_tick();
                    }
                }
            })
            .expect("spawn history thread")
    };

    // Periodic exposition: dump the whole registry to stderr on a cadence,
    // for operators who tail the log instead of polling `Metrics`.
    let expo_thread = config.metrics_every_s.map(|every_s| {
        let stop = Arc::clone(&expo_stop);
        std::thread::Builder::new()
            .name("geosocial-expo".into())
            .spawn(move || {
                let tick = std::time::Duration::from_millis(200);
                let mut elapsed = std::time::Duration::ZERO;
                let period = std::time::Duration::from_secs(every_s.max(1));
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    elapsed += tick;
                    if elapsed >= period {
                        elapsed = std::time::Duration::ZERO;
                        geosocial_obs::info!("serve", "periodic metrics exposition");
                        eprint!("{}", geosocial_obs::render_text());
                        io::stderr().flush().ok();
                    }
                }
            })
            .expect("spawn exposition thread")
    });

    // Accept loop: bounded backpressure — take a handler slot before
    // accepting, so at most `max_connections` are ever serviced at once.
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if !slots.acquire(&shutdown) {
            break; // shutdown began while the server was at capacity
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) => {
                slots.release();
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                geosocial_obs::warn!("serve", "accept failed: {e}");
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            slots.release();
            break;
        }
        let cfg = Arc::clone(&config);
        let shards = shard_txs.clone();
        let flag = Arc::clone(&shutdown);
        let q = Arc::clone(&queries);
        let qs = Arc::clone(&queues);
        let guard = SlotGuard(Arc::clone(&slots));
        let spawned = std::thread::Builder::new().name("geosocial-conn".into()).spawn(move || {
            let _guard = guard; // released when the handler exits
            if let Err(e) = handle_conn(stream, &cfg, shards, flag, self_addr, q, qs) {
                // Peers hanging up mid-frame is routine under churn (and
                // constant under fault injection): count it, log it quietly.
                metrics::conn_errors().inc();
                geosocial_obs::debug!("serve", "connection dropped: {e}");
            }
        });
        if spawned.is_err() {
            // The guard moved into the closure that never ran; the slot
            // was released by its drop. Nothing else to undo.
            geosocial_obs::warn!("serve", "could not spawn a connection handler");
        }
    }
    drop(listener);
    expo_stop.store(true, Ordering::SeqCst);
    let _ = history_thread.join();
    if let Some(t) = expo_thread {
        let _ = t.join();
    }
    // Handlers are detached; the slot count is their join.
    slots.wait_idle();

    // Collect final stats, then let the workers exit.
    let (reply_tx, reply_rx) = mpsc::channel::<Response>();
    for tx in &shard_txs {
        let _ = tx.send(ShardMsg { cmd: ShardCmd::Stats, ctx: None, reply: reply_tx.clone() });
    }
    drop(reply_tx);
    let mut final_stats = match merge_broadcast(&reply_rx, shard_txs.len()) {
        Response::Stats { stats } => stats,
        _ => ServerStats::default(),
    };
    final_stats.queries = queries.load(Ordering::Relaxed);
    drop(shard_txs);
    for t in shard_threads {
        let _ = t.join();
    }
    if ephemeral {
        // Nothing asked for persistence; don't leak temp-dir segments.
        let _ = std::fs::remove_dir_all(&store_root);
    }

    // The shutdown dump: one structured line per shard plus the aggregate.
    for s in &final_stats.per_shard {
        geosocial_obs::info!("serve", "shard final counters";
            shard = s.shard,
            users = s.users,
            gps = s.gps_events,
            checkins = s.checkin_events,
            verdicts = s.verdicts,
            duplicates = s.duplicates,
            recoveries = s.recoveries,
        );
    }
    geosocial_obs::info!("serve", "server final counters";
        users = final_stats.users,
        gps = final_stats.gps_events,
        checkins = final_stats.checkin_events,
        verdicts = final_stats.verdicts,
        queries = final_stats.queries,
        duplicates = final_stats.duplicates,
        recoveries = final_stats.recoveries,
        honest = final_stats.composition.honest,
        extraneous = final_stats.composition.extraneous(),
    );
    io::stderr().flush().ok();
    Ok(final_stats)
}
