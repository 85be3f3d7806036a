//! Streaming-equivalence audit (`equiv`): the online subsystem against the
//! batch pipeline, both in-process and through the TCP serving layer.
//!
//! Three checks, all of which must agree exactly:
//!
//! 1. **Cohort replay** — every dataset of the scenario streamed through
//!    [`geosocial_stream::CohortAuditor`] in event-time order, diffed
//!    per-user against the batch composition;
//! 2. **Served replay, 1 shard** — the same events through a spawned
//!    `geosocial-serve` instance with a single worker shard;
//! 3. **Served replay, 4 shards** — again with per-user state fanned out
//!    across four shards, proving the sharding is composition-invariant;
//! 4. **Served replay, binary wire** — the same events again on the
//!    compact binary encoding with delta-coded `GpsRun` batches, proving
//!    the wire format (and the batching) is composition-invariant too:
//!    binary served == JSON served == batch, byte-identical.
//!
//! The companion `chaos` experiment re-runs the served replay under an
//! aggressive deterministic fault plan, on both wire formats (see
//! [`chaos_equivalence`]).

use crate::figures::ExperimentOutput;
use crate::Analysis;
use geosocial_checkin::scenario::{Scenario, ScenarioConfig};
use geosocial_fault::{FaultPlan, ShardKill};
use geosocial_serve::loadgen::{run as replay, shutdown_server, LoadgenConfig, RetryPolicy};
use geosocial_serve::protocol::{read_msg, write_msg, Request, Response};
use geosocial_serve::server::{spawn, ServerConfig};
use geosocial_serve::wire::WireFormat;
use geosocial_stream::{
    dataset_events, equivalence_report, window_compositions, AuditConfig, StreamEvent,
};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Replay scale for the served checks: kept small enough that the audit
/// stays in CI territory even at `--exp all` paper scale.
const SERVE_USERS: u32 = 24;
const SERVE_DAYS: u32 = 5;
/// GPS-run batch length for the binary-wire rows (the serving fast path).
const SERVE_RUN_LEN: usize = 64;

/// The `equiv` experiment: see the module docs.
pub fn streaming_equivalence(a: &Analysis, config: &ScenarioConfig, seed: u64) -> ExperimentOutput {
    let mut text = String::from(
        "Streaming equivalence audit: online auditor vs batch pipeline.\n\
         Every row must report identical=yes — the online path is only\n\
         valid if it reproduces the batch composition exactly.\n\n",
    );
    let mut csv = String::from("mode,users,checkins,honest,extraneous,visits,missing,identical\n");
    let mut all_ok = true;

    // 1. In-process cohort replay, both datasets of the scenario.
    for ds in [&a.scenario.primary, &a.scenario.baseline] {
        let report = equivalence_report(ds, &a.match_config, &a.classify_config, &config.visit);
        let ok = report.identical && report.late_dropped == 0 && report.forced == 0;
        all_ok &= ok;
        text.push_str(&format!(
            "cohort {:<9} {:>4} users, {:>6} checkins: honest {} vs {}, missing {} vs {} -> identical={}\n",
            ds.name,
            report.users,
            report.total_checkins,
            report.stream_honest,
            report.batch_honest,
            report.stream_missing,
            report.batch_missing,
            if ok { "yes" } else { "NO" },
        ));
        if !ok {
            for m in report.mismatches.iter().take(5) {
                text.push_str(&format!("  mismatch: {m:?}\n"));
            }
        }
        csv.push_str(&format!(
            "cohort-{},{},{},{},{},{},{},{}\n",
            ds.name,
            report.users,
            report.total_checkins,
            report.stream_honest,
            report.total_checkins - report.stream_honest,
            report.total_visits,
            report.stream_missing,
            ok as u8,
        ));
    }

    // 2.-4. Served replays through a real TCP server: 1 and 4 shards on
    // the JSON wire, then 4 shards on the binary wire with batched GPS
    // runs. Every row verifies against batch, so all served modes are
    // transitively byte-identical to each other as well.
    for (shards, wire, run_len) in [
        (1usize, WireFormat::Json, 1usize),
        (4, WireFormat::Json, 1),
        (4, WireFormat::Binary, SERVE_RUN_LEN),
    ] {
        let label = format!(
            "{} shard{} {} wire{}",
            shards,
            if shards == 1 { " " } else { "s" },
            wire.label(),
            if run_len > 1 { " batched" } else { "" },
        );
        let row = match serve_and_verify(shards, seed, wire, run_len) {
            Ok(row) => row,
            Err(e) => {
                all_ok = false;
                text.push_str(&format!("served {label} replay FAILED: {e}\n"));
                continue;
            }
        };
        all_ok &= row.identical;
        text.push_str(&format!(
            "served {label:<22} {:>4} users, {:>6} checkins over {:>7} events \
             ({:>7.0} ev/s): honest {} -> identical={}\n",
            SERVE_USERS,
            row.checkins,
            row.events,
            row.events_per_sec,
            row.honest,
            if row.identical { "yes" } else { "NO" },
        ));
        if !row.identical {
            for m in row.mismatches.iter().take(5) {
                text.push_str(&format!("  mismatch: {m}\n"));
            }
        }
        csv.push_str(&format!(
            "served-{}shard-{},{},{},{},{},{},{},{}\n",
            shards,
            wire.label(),
            SERVE_USERS,
            row.checkins,
            row.honest,
            row.extraneous,
            row.visits,
            row.missing,
            row.identical as u8,
        ));
    }

    text.push_str(&format!(
        "\noverall: {}\n",
        if all_ok {
            "streaming path reproduces the batch pipeline exactly"
        } else {
            "DIVERGENCE DETECTED"
        }
    ));
    ExperimentOutput { id: "equiv".into(), text, csv: vec![("".into(), csv)] }
}

struct ServedRow {
    events: usize,
    checkins: usize,
    honest: usize,
    extraneous: usize,
    visits: usize,
    missing: usize,
    events_per_sec: f64,
    identical: bool,
    mismatches: Vec<String>,
}

fn serve_and_verify(
    shards: usize,
    seed: u64,
    wire: WireFormat,
    run_len: usize,
) -> std::io::Result<ServedRow> {
    let server = spawn(ServerConfig { shards, ..ServerConfig::default() }, "127.0.0.1:0")?;
    let addr = server.addr();
    let load = LoadgenConfig {
        users: SERVE_USERS,
        days: SERVE_DAYS,
        seed,
        connections: shards.max(2),
        window: 128,
        verify: true,
        wire,
        run_len,
        ..LoadgenConfig::default()
    };
    let report = replay(addr, &load)?;
    shutdown_server(addr)?;
    server.join()?;
    Ok(ServedRow {
        events: report.total_events,
        checkins: report.checkin_events,
        honest: report.server.composition.honest,
        extraneous: report.server.composition.extraneous(),
        visits: report.server.composition.visits_total,
        missing: report.server.composition.missing_visits,
        events_per_sec: report.events_per_sec,
        identical: report.verified == Some(true),
        mismatches: report.mismatches,
    })
}

/// The `chaos` experiment: served replay under an aggressive deterministic
/// fault plan — ~2% of frames truncated (the connection half-closed
/// mid-frame), ~1% of connections aborted with their acknowledgments
/// destroyed, ~0.5% of frames stalled past the server's shortened read
/// timeout, and one shard worker killed mid-stream — with the load
/// generator retrying with seeded backoff and resuming from the last
/// acknowledged event. The served per-user compositions must still equal
/// the batch pipeline exactly.
///
/// Fault injection is compiled out of default builds; run this through
/// `cargo run -p geosocial-experiments --features fault-inject` (or
/// `scripts/ci.sh`) to arm the plan. Unarmed, the replay degrades to a
/// fault-free equivalence check and says so.
pub fn chaos_equivalence(_a: &Analysis, seed: u64) -> ExperimentOutput {
    let armed = FaultPlan::armed();
    let shards = 4usize;
    let mut text = format!(
        "Chaos equivalence audit: served replay under a seeded fault plan\n\
         (frames truncated, connections aborted with their acks destroyed,\n\
         frames stalled past the read timeout, shard 1 killed at its 200th\n\
         ingest), retrying with deterministic backoff — once per wire\n\
         format, so a fault can land mid-`GpsRun` on the binary wire and\n\
         the per-event retry dedup is exercised.\n\
         Injection armed: {}\n\n",
        if armed { "yes" } else { "no (build with --features fault-inject)" },
    );
    let mut csv = String::from(
        "wire,run_len,shards,events,retries,resent,resumed,duplicates,recoveries,\
         truncated,aborted,stalled,kills,short_writes,flush_fails,identical\n",
    );

    let mut all_ok = true;
    for (wire, run_len) in [(WireFormat::Json, 1usize), (WireFormat::Binary, SERVE_RUN_LEN)] {
        // A fresh plan per wire format: the injected-fault counters and the
        // one-shot shard kill are per plan instance, and the same seed
        // keeps both runs deterministic.
        let plan = FaultPlan::aggressive(
            seed ^ 0xC4A0_5EED,
            ShardKill { shard: 1, at_ingest: 200 },
            // Comfortably past the 100ms read timeout below.
            250,
        );
        let outcome = (|| -> std::io::Result<_> {
            let server = spawn(
                ServerConfig {
                    shards,
                    // Short enough that an injected stall trips it.
                    read_timeout: Some(Duration::from_millis(100)),
                    // Small checkpoint interval so the kill recovery
                    // actually replays a non-trivial log.
                    snapshot_every: 64,
                    // Small flushes, so torn and failed flushes fire often
                    // enough to exercise the store's repair path.
                    flush_bytes: 1024,
                    fault: plan.clone(),
                    ..ServerConfig::default()
                },
                "127.0.0.1:0",
            )?;
            let addr = server.addr();
            let load = LoadgenConfig {
                users: SERVE_USERS,
                days: SERVE_DAYS,
                seed,
                connections: 8,
                window: 64,
                verify: true,
                fault: plan.clone(),
                // Tight backoff: the plan forces hundreds of reconnects
                // and the experiment's wall-clock is part of timings.csv.
                retry: RetryPolicy { max_retries: 8, base_ms: 5, max_ms: 250 },
                wire,
                run_len,
                // Default head sampling; the chaos experiment measures
                // equivalence and wall-clock, not trace retention.
                trace_sample: 64,
                ..LoadgenConfig::default()
            };
            let report = replay(addr, &load)?;
            shutdown_server(addr)?;
            server.join()?;
            Ok(report)
        })();

        let ok = match outcome {
            Ok(report) => {
                let identical = report.verified == Some(true);
                let injected = plan.injected();
                text.push_str(&format!(
                    "{} wire (run_len {run_len}): {shards} shards, {} events in {} frames \
                     ({:.0} ev/s): {} retries, {} resent, {} resumed from the store,\n\
                     server deduplicated {} and recovered {} shard crash(es);\n\
                     faults fired: {} truncated, {} aborted, {} stalled, {} killed, \
                     {} flushes torn, {} flushes failed -> identical={}\n",
                    wire.label(),
                    report.total_events,
                    report.frames_sent,
                    report.events_per_sec,
                    report.retries,
                    report.resent_events,
                    report.resumed_events,
                    report.server.duplicates,
                    report.server.recoveries,
                    injected.truncated,
                    injected.aborted,
                    injected.stalled,
                    injected.kills,
                    injected.short_writes,
                    injected.flush_fails,
                    if identical { "yes" } else { "NO" },
                ));
                if !identical {
                    for m in report.mismatches.iter().take(5) {
                        text.push_str(&format!("  mismatch: {m}\n"));
                    }
                }
                if armed && injected.total() == 0 {
                    text.push_str("  WARNING: armed but no fault fired — plan too mild?\n");
                }
                csv.push_str(&format!(
                    "{},{run_len},{shards},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    wire.label(),
                    report.total_events,
                    report.retries,
                    report.resent_events,
                    report.resumed_events,
                    report.server.duplicates,
                    report.server.recoveries,
                    injected.truncated,
                    injected.aborted,
                    injected.stalled,
                    injected.kills,
                    injected.short_writes,
                    injected.flush_fails,
                    identical as u8,
                ));
                identical
            }
            Err(e) => {
                text.push_str(&format!("{} wire chaos replay FAILED: {e}\n", wire.label()));
                false
            }
        };
        all_ok &= ok;
    }
    text.push_str(&format!(
        "\noverall: {}\n",
        if all_ok {
            "served verdicts survive transport chaos byte-identical to batch on both wires"
        } else {
            "DIVERGENCE OR FAILURE UNDER FAULTS"
        }
    ));
    ExperimentOutput { id: "chaos".into(), text, csv: vec![("".into(), csv)] }
}

/// Replay length of the time-travel audit: long enough that a day-3
/// watermark truncates a majority of the stream.
const TIMETRAVEL_DAYS: u32 = 7;
/// The historical watermark: end of day 3 of the replay.
const TIMETRAVEL_WATERMARK_DAYS: i64 = 3;

/// One request over a fresh JSON control connection.
fn control(addr: SocketAddr, req: &Request) -> std::io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut w = BufWriter::new(stream.try_clone()?);
    write_msg(&mut w, req)?;
    w.flush()?;
    let mut r = BufReader::new(stream);
    read_msg::<Response, _>(&mut r)?
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no response"))
}

/// The `timetravel` experiment (X13): online historical reads against the
/// event store, checked against the batch pipeline truncated at the same
/// watermark.
///
/// A 7-day scenario is replayed through a spawned server; afterwards —
/// with the full stream already audited live — the cohort's composition
/// *as of the end of day 3* is read back two ways:
///
/// 1. per-user `AsOf { user, t }` queries (a fresh audit of the user's
///    stored events truncated at `t`), and
/// 2. one cohort-wide `Window { cohort, -∞, t }` broadcast;
///
/// both must equal [`geosocial_stream::window_compositions`] on the same
/// generated events truncated at the same watermark — the serving layer's
/// log answers historical questions exactly as a batch run frozen at that
/// moment would have, without disturbing the live state.
pub fn time_travel(_a: &Analysis, seed: u64) -> ExperimentOutput {
    let users = SERVE_USERS;
    let mut text = format!(
        "Time-travel audit: cohort composition as of day {TIMETRAVEL_WATERMARK_DAYS} \
         of a {TIMETRAVEL_DAYS}-day served replay,\n\
         answered online from the event store (per-user AsOf + one cohort\n\
         Window broadcast) and checked against the batch pipeline truncated\n\
         at the same watermark. Every row must report identical=yes.\n\n",
    );
    let mut csv = String::from("user,checkins,honest,extraneous,visits,missing,identical\n");

    let scenario = Scenario::generate(&ScenarioConfig::small(users, TIMETRAVEL_DAYS), seed);
    let ds = &scenario.primary;
    let events = dataset_events(ds);
    // `ServerConfig::default()` copies its thresholds out of
    // `AuditConfig::paper`, so this is exactly what the server applies.
    let audit_cfg = AuditConfig::paper(ds.pois.projection().origin());
    let t_min = events.iter().map(StreamEvent::t).min().unwrap_or(0);
    let watermark = t_min + TIMETRAVEL_WATERMARK_DAYS * 86_400;
    let truncated = events.iter().filter(|e| e.t() <= watermark).count();
    let expected = window_compositions(&events, &audit_cfg, None, i64::MIN, watermark);

    let outcome = (|| -> std::io::Result<_> {
        let server = spawn(ServerConfig::default(), "127.0.0.1:0")?;
        let addr = server.addr();
        let load = LoadgenConfig {
            users,
            days: TIMETRAVEL_DAYS,
            seed,
            connections: 4,
            window: 128,
            verify: true,
            ..LoadgenConfig::default()
        };
        let report = replay(addr, &load)?;

        // 1. Per-user as-of reads.
        let mut asof = Vec::with_capacity(expected.len());
        for want in &expected {
            match control(addr, &Request::AsOf { user: want.user, t: watermark })? {
                Response::AsOf { composition, .. } => asof.push(composition),
                Response::Error { message } => {
                    return Err(std::io::Error::other(format!(
                        "AsOf user {}: {message}",
                        want.user
                    )))
                }
                other => {
                    return Err(std::io::Error::other(format!(
                        "AsOf user {}: unexpected reply {other:?}",
                        want.user
                    )))
                }
            }
        }

        // 2. One cohort-wide window broadcast.
        let cohort: Vec<u32> = expected.iter().map(|c| c.user).collect();
        let window = match control(addr, &Request::Window { cohort, t0: i64::MIN, t1: watermark })?
        {
            Response::Compositions { compositions } => compositions,
            Response::Error { message } => {
                return Err(std::io::Error::other(format!("Window: {message}")))
            }
            other => {
                return Err(std::io::Error::other(format!("Window: unexpected reply {other:?}")))
            }
        };

        shutdown_server(addr)?;
        server.join()?;
        Ok((report, asof, window))
    })();

    let (report, asof, window) = match outcome {
        Ok(v) => v,
        Err(e) => {
            text.push_str(&format!("time-travel replay FAILED: {e}\n"));
            return ExperimentOutput { id: "timetravel".into(), text, csv: vec![("".into(), csv)] };
        }
    };

    let live_ok = report.verified == Some(true);
    let window_ok = window == expected;
    let mut asof_ok = true;
    text.push_str(&format!(
        "replayed {} events ({} users, {TIMETRAVEL_DAYS} days); live replay identical={}\n\
         watermark t={watermark} (end of day {TIMETRAVEL_WATERMARK_DAYS}) keeps {truncated} \
         of {} events\n\n",
        report.total_events,
        users,
        if live_ok { "yes" } else { "NO" },
        events.len(),
    ));
    for (got, want) in asof.iter().zip(&expected) {
        let ok = got == want;
        asof_ok &= ok;
        text.push_str(&format!(
            "user {:>4} as-of day {TIMETRAVEL_WATERMARK_DAYS}: {} checkins, {} honest, \
             {} extraneous, {} visits, {} missing -> identical={}\n",
            want.user,
            got.total_checkins,
            got.honest,
            got.extraneous(),
            got.visits_total,
            got.missing_visits,
            if ok { "yes" } else { "NO" },
        ));
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            want.user,
            got.total_checkins,
            got.honest,
            got.extraneous(),
            got.visits_total,
            got.missing_visits,
            ok as u8,
        ));
    }
    let all_ok = live_ok && asof_ok && window_ok;
    text.push_str(&format!(
        "\ncohort Window broadcast over [-inf, watermark]: identical={}\n\
         \noverall: {}\n",
        if window_ok { "yes" } else { "NO" },
        if all_ok {
            "online historical reads equal the batch pipeline truncated at the watermark"
        } else {
            "TIME-TRAVEL DIVERGENCE DETECTED"
        }
    ));
    ExperimentOutput { id: "timetravel".into(), text, csv: vec![("".into(), csv)] }
}

/// Shard processes of the cluster experiment — in-process instances, one
/// router in front; the multi-*process* variant (real `geosocial-serve`
/// children, SIGKILL, store shipping) lives in the serve crate's cluster
/// tests.
const CLUSTER_SHARDS: usize = 4;

/// The `cluster` experiment (X14): the router tier's composition
/// invariance and cost.
///
/// The same scenario is replayed three ways per wire format:
///
/// 1. **batch** — implicitly, as the `verify` oracle of every replay;
/// 2. **single server** — one spawned instance, the throughput baseline;
/// 3. **cluster** — [`CLUSTER_SHARDS`] spawned instances behind a
///    `geosocial-router`, users consistent-hashed across them.
///
/// Both replays must verify byte-identical to batch, and the cluster's
/// throughput is reported relative to the single server (the router
/// hop's cost per event is `router.hop_cpu_ns_per_event` in perfbench).
pub fn cluster_equivalence(_a: &Analysis, seed: u64) -> ExperimentOutput {
    use geosocial_serve::router::{self, RouterConfig};

    let mut text = format!(
        "Cluster equivalence audit: {CLUSTER_SHARDS} shard instances behind a router,\n\
         users consistent-hashed by rendezvous weight, vs one instance, vs\n\
         the batch pipeline — per wire format. Every row must verify\n\
         identical=yes; the ratio column is cluster/single throughput.\n\n",
    );
    let mut csv = String::from("mode,wire,run_len,instances,events,events_per_sec,identical\n");

    let mut all_ok = true;
    for (wire, run_len) in [(WireFormat::Json, 1usize), (WireFormat::Binary, SERVE_RUN_LEN)] {
        let load = LoadgenConfig {
            users: SERVE_USERS,
            days: SERVE_DAYS,
            seed,
            connections: 4,
            window: 64,
            verify: true,
            retry: RetryPolicy::default(),
            fault: FaultPlan::none(),
            wire,
            run_len,
            trace_sample: 0,
            ..LoadgenConfig::default()
        };

        let mut row = |mode: &str, instances: usize| -> std::io::Result<(f64, bool)> {
            let report = if instances == 1 {
                let server = spawn(ServerConfig::default(), "127.0.0.1:0")?;
                let report = replay(server.addr(), &load)?;
                shutdown_server(server.addr())?;
                server.join()?;
                report
            } else {
                let servers: Vec<_> = (0..instances)
                    .map(|_| spawn(ServerConfig::default(), "127.0.0.1:0"))
                    .collect::<std::io::Result<_>>()?;
                let router = router::spawn(
                    RouterConfig {
                        shards: servers.iter().map(|s| s.addr()).collect(),
                        ..RouterConfig::default()
                    },
                    "127.0.0.1:0",
                )?;
                let report = replay(router.addr(), &load)?;
                // Router shutdown fans out to every instance.
                shutdown_server(router.addr())?;
                router.join()?;
                for server in servers {
                    server.join()?;
                }
                report
            };
            let identical = report.verified == Some(true);
            text.push_str(&format!(
                "{mode} ({} wire, run_len {run_len}, {instances} instance(s)): \
                 {} events at {:.0} ev/s -> identical={}\n",
                wire.label(),
                report.total_events,
                report.events_per_sec,
                if identical { "yes" } else { "NO" },
            ));
            if !identical {
                for m in report.mismatches.iter().take(5) {
                    text.push_str(&format!("  mismatch: {m}\n"));
                }
            }
            csv.push_str(&format!(
                "{mode},{},{run_len},{instances},{},{:.1},{}\n",
                wire.label(),
                report.total_events,
                report.events_per_sec,
                identical as u8,
            ));
            Ok((report.events_per_sec, identical))
        };

        match (row("single", 1), row("cluster", CLUSTER_SHARDS)) {
            (Ok((single_eps, single_ok)), Ok((cluster_eps, cluster_ok))) => {
                let ratio = if single_eps > 0.0 { cluster_eps / single_eps } else { 0.0 };
                text.push_str(&format!(
                    "  cluster/single throughput ratio ({} wire): {ratio:.2}\n",
                    wire.label()
                ));
                all_ok &= single_ok && cluster_ok;
            }
            (single, cluster) => {
                for (mode, outcome) in [("single", single), ("cluster", cluster)] {
                    if let Err(e) = outcome {
                        text.push_str(&format!("{mode} replay FAILED: {e}\n"));
                    }
                }
                all_ok = false;
            }
        }
    }
    text.push_str(&format!(
        "\noverall: {}\n",
        if all_ok {
            "routed cluster replay equals single-instance replay equals batch on both wires"
        } else {
            "CLUSTER DIVERGENCE OR FAILURE"
        }
    ));
    ExperimentOutput { id: "cluster".into(), text, csv: vec![("".into(), csv)] }
}
