//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-run --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! metrics (see `perfbench/README.md`). The last line of standard output
//! is the JSON result; the lines before it list every metric by name with
//! its unit and sample count, the run's provenance and any failure.
//! `--smoke` shrinks every workload to a few seconds for the tests.

mod batch;
mod layers;
mod report;
mod serving;
mod stats;

use geosocial_experiments::models::Fig8Config;
use geosocial_serve::loadgen;
use geosocial_stream::AuditConfig;
use report::Report;
use serving::{ServingSpec, Topology};
use stats::{median, Latencies, Usage};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Where event stores live while a run is going, relative to the
/// working directory.
const SCRATCH_DIR: &str = ".bench_run";

/// The workloads and their serving shapes. Paced rates sit between a
/// quarter and a third of the saturating `ingest_ev_s`, and round times
/// are as measured, on a 2-CPU host (see the README for why not half).
const SERVE_RUN: ServingSpec = ServingSpec {
    users: 128,
    days: 14,
    run_len: 64,
    paced_ev_s: 200_000.0,
    router: false,
    round_s: 5.5,
};
const SERVE_FRAME: ServingSpec = ServingSpec {
    users: 32,
    days: 7,
    run_len: 1,
    paced_ev_s: 20_000.0,
    router: false,
    round_s: 2.9,
};

/// The smoke-size versions the tests run.
fn smoke(spec: ServingSpec) -> ServingSpec {
    ServingSpec { users: 6, days: 2, paced_ev_s: spec.paced_ev_s / 4.0, ..spec }
}

/// Rounds per serving run at least; more as `--seconds` allows.
const MIN_ROUNDS: usize = 6;
/// One-thread batch audits of the served population per round.
const BATCH_AUDITS_PER_ROUND: usize = 50;
/// The traced run's paced phase covers the first `1 / PACED_PREFIX` of
/// the frames.
const PACED_PREFIX: usize = 3;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = match args.workload.as_str() {
        "serve-run" => SERVE_RUN,
        "serve-frame" => SERVE_FRAME,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (serve-run, serve-frame)");
            std::process::exit(2);
        }
    };
    let spec = if args.smoke { smoke(spec) } else { spec };
    geosocial_par::set_max_threads(nproc());
    let mut scratch = match serving::Scratch::new(Path::new(SCRATCH_DIR)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create {SCRATCH_DIR}: {e}");
            std::process::exit(1);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut report = Report::default();
    let outcome = if args.trace {
        traced(&spec, args.seed, args.smoke, &mut scratch, &mut report)
    } else {
        serving_e2e(&spec, args.seed, budget, args.smoke, &mut scratch, &mut report)
    };
    scratch.remove();
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    print!("{}", report.render(&report::provenance(&args.workload, args.seed, args.trace)));
}

/// The batch layers' configuration: the served population's own.
fn batch_config(
    spec: &ServingSpec,
    smoke: bool,
) -> (geosocial_checkin::ScenarioConfig, Fig8Config) {
    let fig8 = if smoke {
        Fig8Config::quick()
    } else {
        Fig8Config { repetitions: 1, ..Fig8Config::default() }
    };
    (geosocial_checkin::ScenarioConfig::small(spec.users, spec.days), fig8)
}

/// Report a latency percentile, counting an unsupported one (fewer than
/// ten samples beyond it) as a failure outside smoke runs.
fn latency(report: &mut Report, name: &'static str, lat: &Latencies, p: f64, smoke: bool) {
    let (v, supported) = lat.at(p);
    report.metric(name, v, "ms", lat.len());
    if !smoke {
        report.check(supported, || {
            format!("{name}: {} samples do not support p{}", lat.len(), p * 100.0)
        });
    }
}

/// End-to-end run of a serving workload, in rounds so every metric
/// samples the whole run. Each round is one saturating replay on fresh
/// instances, a slice of the time-travel queries to that server, and batch
/// audits of the same population on one thread, reported as checkins
/// audited per second so that seeds whose populations hold more or fewer
/// checkins compare. The number of rounds follows from
/// `budget` and the workload's round time on the reference host, so a run
/// does the same work however fast the host is.
///
/// The reference host's speed drifts while a run goes on, so the figures
/// that repeat the same work keep the repeat the host slowed least: the
/// fastest replay, each time-travel query's fastest answer (slice `k` of
/// the queries goes to the servers of `ASOF_PASSES` rounds spread evenly
/// over every `MIN_ROUNDS` rounds, which hold the same events) and the
/// fastest batch audit. Set-up time is
/// the median. Peak RSS is the process high-water mark after the first
/// round: every later round raises it by what the allocator retained from
/// the instances before, which varies from run to run.
fn serving_e2e(
    spec: &ServingSpec,
    seed: u64,
    budget: Duration,
    smoke: bool,
    scratch: &mut serving::Scratch,
    report: &mut Report,
) -> io::Result<()> {
    let rounds = ((budget.as_secs_f64() / spec.round_s) as usize).max(MIN_ROUNDS);
    let mut setups = Vec::new();
    let mut ingest = Vec::new();
    let mut asof_best: Vec<Duration> = Vec::new();
    let mut batch_best = f64::INFINITY;
    let mut checkins = 0;
    let mut peak_rss_mb = 0.0;
    let mut queries = None;
    for round in 0..rounds {
        let t = Instant::now();
        let pop = serving::populate(spec, seed);
        let topo = Topology::start(spec, scratch)?;
        setups.push(t.elapsed().as_secs_f64());
        checkins = pop.dataset.users.iter().map(|u| u.checkins.len()).sum::<usize>();
        let r = serving::saturate(topo.front, spec, seed, true)?;
        ingest.push(r.events_per_sec);
        report.attempts(
            r.frames_sent as u64,
            u64::from(r.retries) + r.resent_events as u64,
            || {
                format!(
                    "saturating replay retried {} times, resent {} events",
                    r.retries, r.resent_events
                )
            },
        );
        report.check(r.verified == Some(true), || format!("served != batch: {:?}", r.mismatches));

        let queries: &Vec<serving::AsOfQuery> = queries.get_or_insert_with(|| {
            let by_user = serving::events_by_user(&pop.dataset);
            serving::asof_queries(&pop.dataset, &by_user, serving::ASOF_QUERIES, seed)
        });
        asof_best.resize(queries.len(), Duration::MAX);
        let spacing = MIN_ROUNDS / serving::ASOF_PASSES;
        for pass in 0..serving::ASOF_PASSES {
            let k = (round + MIN_ROUNDS - pass * spacing) % MIN_ROUNDS;
            let idx: Vec<usize> = (k..queries.len()).step_by(MIN_ROUNDS).collect();
            let slice: Vec<&serving::AsOfQuery> = idx.iter().map(|&i| &queries[i]).collect();
            let (lat, wrong) = serving::asof_phase(topo.front, &slice)?;
            report.attempts(slice.len() as u64, wrong.len() as u64, || {
                format!("AsOf != batch truncated: {wrong:?}")
            });
            for (i, d) in idx.into_iter().zip(lat) {
                asof_best[i] = asof_best[i].min(d);
            }
        }

        // Batch audits on one thread while the server idles, then the
        // last one's output checked against the served state.
        geosocial_par::set_max_threads(1);
        let mut audited = Vec::new();
        for _ in 0..BATCH_AUDITS_PER_ROUND {
            let t = Instant::now();
            audited = std::hint::black_box(batch::audit(&pop.dataset));
            batch_best = batch_best.min(t.elapsed().as_secs_f64());
        }
        geosocial_par::set_max_threads(nproc());
        let wrong = serving::verify_served(topo.front, &audited)?;
        report.attempts(audited.len() as u64, wrong.len() as u64, || {
            format!("one-thread batch audit != served: {wrong:?}")
        });
        topo.stop()?;
        if round == 0 {
            peak_rss_mb = Usage::now().max_rss_kib as f64 / 1024.0;
        }
    }

    let asof = Latencies::from_durations(asof_best);
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("ingest_ev_s", ingest.iter().copied().fold(0.0, f64::max), "events/s", rounds);
    latency(report, "asof_p50_ms", &asof, 0.5, smoke);
    latency(report, "asof_p95_ms", &asof, 0.95, smoke);
    report.metric(
        "batch_checkins_s",
        checkins as f64 / batch_best,
        "checkins/s",
        rounds * BATCH_AUDITS_PER_ROUND,
    );
    report.metric("peak_rss_mb", peak_rss_mb, "MiB", 1);
    Ok(())
}

/// The paced client must not set the latency it reports: when the
/// generator's own lateness makes up half or more of the slowest 1% of
/// frames' latency, the phase measured the client, and it counts as failed.
fn generator_honesty(report: &mut Report, paced: &serving::Paced, late: &Latencies, smoke: bool) {
    let share = paced.tail_lateness_share();
    println!(
        "paced generator lateness p99 = {} ms; share of the ack tail = {share}",
        late.at(0.99).0
    );
    if !smoke {
        report
            .check(share < 0.5, || format!("generator-bound: lateness is {share} of the ack tail"));
    }
}

/// Whole-process cost of one saturating replay.
struct Saturated {
    cpu_ns_per_event: f64,
    ctx_per_frame: f64,
    shard_skew: f64,
    duplicates: f64,
    /// Bytes the served event store holds per record, from its `DrainReport`.
    store_bytes_per_record: f64,
    store_records: u64,
}

/// One unverified saturating replay on fresh instances, with the
/// process's CPU and context switches over it, less the population
/// generation `loadgen::run` repeats before replaying; the served state
/// is then checked against the batch compositions, and the served store
/// reports its size.
fn saturated_cost(
    spec: &ServingSpec,
    seed: u64,
    populate: Usage,
    expected: &[geosocial_core::prevalence::UserComposition],
    scratch: &mut serving::Scratch,
    report: &mut Report,
) -> io::Result<Saturated> {
    let topo = Topology::start(spec, scratch)?;
    let u0 = Usage::now();
    let r = serving::saturate(topo.front, spec, seed, false)?;
    let used = Usage::now().since(u0);
    let mismatches = serving::verify_served(topo.front, expected)?;
    let drained = loadgen::drain_server(topo.front, false)?;
    topo.stop()?;
    report.attempts(r.frames_sent as u64, u64::from(r.retries) + r.resent_events as u64, || {
        format!("saturating replay retried {} times", r.retries)
    });
    report.attempts(expected.len() as u64, mismatches.len() as u64, || {
        format!("served != batch: {mismatches:?}")
    });
    let events = r.total_events.max(1) as f64;
    let per_shard: Vec<f64> =
        r.server.per_shard.iter().map(|s| (s.gps_events + s.checkin_events) as f64).collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    Ok(Saturated {
        cpu_ns_per_event: used.cpu_ns.saturating_sub(populate.cpu_ns) as f64 / events,
        ctx_per_frame: used.ctx_switches.saturating_sub(populate.ctx_switches) as f64
            / r.frames_sent.max(1) as f64,
        shard_skew: if mean > 0.0 { max / mean } else { 0.0 },
        duplicates: r.server.duplicates as f64,
        store_bytes_per_record: drained.store_bytes as f64 / drained.store_records.max(1) as f64,
        store_records: drained.store_records,
    })
}

/// The traced run: every layer probe, on the serving spec's population
/// for the serving layers and on `batch_cfg` for the batch layers.
fn traced(
    spec: &ServingSpec,
    seed: u64,
    smoke: bool,
    scratch: &mut serving::Scratch,
    report: &mut Report,
) -> io::Result<()> {
    // Batch layers: the reproduction untimed-by-layer, then call by call.
    let (batch_cfg, fig8) = batch_config(spec, smoke);
    let plain = batch::reproduce(&batch_cfg, &fig8, seed);
    let plain_digest = batch::output_digest(&plain.compositions, &plain.reports);
    let plain_total = plain.total;
    drop(plain);
    let stages = batch::reproduce_traced(&batch_cfg, &fig8, seed);
    report
        .check(stages.digest == plain_digest, || "traced reproduction changed the outputs".into());
    let sim_s: f64 = stages.sims.iter().map(|s| s.sim.as_secs_f64()).sum();
    let task_s: f64 = stages.sims.iter().map(|s| (s.movement + s.sim).as_secs_f64()).sum();
    let tx: u64 = stages.sims.iter().map(|s| s.transmissions).sum();
    let threads = geosocial_par::max_threads().min(stages.sims.len()).max(1);

    // Serving layers.
    let u0 = Usage::now();
    let t = Instant::now();
    let pop = serving::populate(spec, seed);
    let populate_s = t.elapsed().as_secs_f64();
    let populate_usage = Usage::now().since(u0);
    let ds = &pop.dataset;
    let expected = batch::audit(ds);
    let acfg = AuditConfig::paper(ds.pois.projection().origin());
    let frames = serving::frames(ds, spec.run_len, nproc());
    let events: usize = frames.iter().map(|f| f.events).sum();
    let by_user = serving::events_by_user(ds);
    let checkins = ds.users.iter().map(|u| u.checkins.len()).sum();
    let queries = serving::asof_queries(ds, &by_user, serving::ASOF_QUERIES, seed);

    let st = layers::stream_probe(&frames, &acfg);
    let w = layers::wire_probe(&frames, &st.acks);
    let store_dir = scratch.fresh();
    let sto = layers::store_probe(&frames, &store_dir, &queries, &acfg)?;
    let _ = std::fs::remove_dir_all(&store_dir);
    report.attempts(queries.len() as u64, sto.wrong.len() as u64, || {
        format!("store re-audit: {:?}", sto.wrong)
    });
    let rt = layers::router_probe(&frames, 2);

    // The workload's own topology, then the same population through a
    // router to two single-shard servers.
    let routed = ServingSpec { router: true, ..*spec };
    let s1 = saturated_cost(spec, seed, populate_usage, &expected, scratch, report)?;
    let s2 = saturated_cost(&routed, seed, populate_usage, &expected, scratch, report)?;

    let prefix = &frames[..frames.len() / PACED_PREFIX];
    let prefix_expected = serving::audit_events(ds, &serving::prefix_events(ds, prefix));
    let topo = Topology::start(spec, scratch)?;
    let paced =
        serving::paced_replay(topo.front, &serving::hello(ds), prefix, nproc(), spec.paced_ev_s)?;
    serving::finish(topo.front)?;
    let mismatches = serving::verify_stream(topo.front, &prefix_expected)?;
    topo.stop()?;
    report.attempts(paced.frames as u64, paced.errors, || {
        format!("{} paced frames failed", paced.errors)
    });
    report.attempts(prefix_expected.len() as u64, mismatches.len() as u64, || {
        format!("paced served != batch truncated: {mismatches:?}")
    });
    let late = Latencies::from_durations(paced.late.iter().copied());
    let ack = Latencies::from_durations(paced.ack.iter().copied());
    generator_honesty(report, &paced, &late, smoke);

    let frames_per_event = frames.len() as f64 / events.max(1) as f64;
    let wire_per_event = (w.decode_ns_per_frame + w.ack_encode_ns_per_frame) * frames_per_event;
    let traced_per_event =
        wire_per_event + st.audit_ns_per_event + sto.append_ns_per_event + sto.flush_ns_per_event;

    let nf = frames.len();
    report.metric("wire.encode_ns_per_frame", w.encode_ns_per_frame, "ns", nf);
    report.metric("wire.decode_ns_per_frame", w.decode_ns_per_frame, "ns", nf);
    report.metric("wire.ack_encode_ns_per_frame", w.ack_encode_ns_per_frame, "ns", nf);
    report.metric("wire.bytes_per_event", serving::bytes_per_event(&frames), "bytes", events);
    report.metric("stream.detect_ns_per_fix", st.detect_ns_per_fix, "ns", events);
    report.metric("stream.audit_ns_per_event", st.audit_ns_per_event, "ns", events);
    report.metric(
        "core.match_classify_ns_per_checkin",
        st.match_classify_ns_per_checkin,
        "ns",
        checkins,
    );
    report.metric("stream.state_items", st.state_items as f64, "count", by_user.len());
    report.metric("store.append_ns_per_event", sto.append_ns_per_event, "ns", events);
    report.metric("store.flush_ns_per_event", sto.flush_ns_per_event, "ns", events);
    report.metric(
        "store.bytes_per_event",
        s1.store_bytes_per_record,
        "bytes",
        s1.store_records as usize,
    );
    report.metric("store.query_us", sto.query_us, "us", queries.len());
    report.metric("stream.reaudit_us", sto.reaudit_us, "us", queries.len());
    report.metric("serve.cpu_ns_per_event", s1.cpu_ns_per_event, "ns", events);
    report.metric("serve.ctx_switches_per_frame", s1.ctx_per_frame, "count", nf);
    report.metric(
        "serve.unattributed_ns_per_event",
        s1.cpu_ns_per_event - traced_per_event,
        "ns",
        events,
    );
    report.metric("serve.shard_skew", s1.shard_skew, "ratio", 1);
    report.metric("serve.duplicates", s1.duplicates, "count", 1);
    report.metric("router.peek_ns_per_frame", rt.peek_ns_per_frame, "ns", nf);
    report.metric("router.owner_ns_per_lookup", rt.owner_ns_per_lookup, "ns", nf);
    report.metric(
        "router.hop_cpu_ns_per_event",
        s2.cpu_ns_per_event - s1.cpu_ns_per_event,
        "ns",
        events,
    );
    report.metric("loadgen.ack_p50_ms", ack.at(0.5).0, "ms", ack.len());
    report.metric("loadgen.ack_p90_ms", ack.at(0.9).0, "ms", ack.len());
    report.metric("loadgen.late_p99_ms", late.at(0.99).0, "ms", late.len());
    report.metric("scenario.populate_s", populate_s, "s", 1);
    report.metric("scenario.generate_s", stages.generate.as_secs_f64(), "s", 1);
    report.metric("core.match_s", stages.matching.as_secs_f64(), "s", 1);
    report.metric("core.classify_s", stages.classify.as_secs_f64(), "s", 1);
    report.metric("mobility.fit_s", stages.fit.as_secs_f64(), "s", 1);
    report.metric("manet.sim_s", sim_s, "s", stages.sims.len());
    report.metric("manet.tx_per_s", tx as f64 / sim_s, "1/s", stages.sims.len());
    report.metric(
        "par.efficiency",
        task_s / (threads as f64 * stages.fig8.as_secs_f64()),
        "ratio",
        stages.sims.len(),
    );
    report.metric(
        "trace.overhead_frac",
        stages.total.as_secs_f64() / plain_total.as_secs_f64(),
        "ratio",
        1,
    );
    Ok(())
}
