//! The serving workloads: in-process `geosocial-serve` (and
//! `geosocial-router`) instances driven over TCP by `loadgen::run` and by
//! the benchmark's own paced open-loop client.

use geosocial_core::prevalence::UserComposition;
use geosocial_scenario::{Population, PopulationConfig};
use geosocial_serve::loadgen::{self, BenchReport, LoadgenConfig};
use geosocial_serve::protocol::{read_frame_into, Request, Response, WireFix};
use geosocial_serve::router::{self, RouterConfig, RouterHandle};
use geosocial_serve::server::{self, shard_of, ServerConfig, ServerHandle};
use geosocial_serve::wire::{self, WireFormat};
use geosocial_stream::{
    dataset_events, window_compositions, AuditConfig, StreamComposition, StreamEvent,
};
use geosocial_trace::Dataset;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pipeline depth per `loadgen` connection in the saturating phase.
pub const WINDOW: usize = 256;

/// The time-travel queries per run: at least 200, so p95 has ten or more
/// samples beyond it.
pub const ASOF_QUERIES: usize = 256;

/// Times each time-travel query is answered in every six rounds
/// (`MIN_ROUNDS`), at different moments; its latency is the fastest answer.
pub const ASOF_PASSES: usize = 3;

/// One serving workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    /// Population size of the `baseline` family.
    pub users: u32,
    pub days: u32,
    /// GPS fixes per `GpsRun` frame (1 sends one fix per frame).
    pub run_len: usize,
    /// Offered load of the paced phase, events per second.
    pub paced_ev_s: f64,
    /// Route through a `geosocial-router` to two single-shard servers
    /// instead of serving from one two-shard server.
    pub router: bool,
    /// Seconds one end-to-end round takes on the reference host.
    pub round_s: f64,
}

/// Per-run directory for event stores, inside the working directory.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new(base: &Path) -> io::Result<Scratch> {
        let root = base.join(format!("{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A new directory path under the run's root.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store-{}", self.next))
    }

    pub fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Succeeds only when no other run is using the base directory.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Running servers (and router) behind one front address.
pub struct Topology {
    pub front: SocketAddr,
    servers: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    dirs: Vec<PathBuf>,
}

impl Topology {
    /// Start fresh instances with fresh stores: one two-shard server, or
    /// a router in front of two single-shard servers.
    pub fn start(spec: &ServingSpec, scratch: &mut Scratch) -> io::Result<Topology> {
        let (instances, shards) = if spec.router { (2, 1) } else { (1, 2) };
        let mut servers = Vec::new();
        let mut dirs = Vec::new();
        for _ in 0..instances {
            let dir = scratch.fresh();
            let cfg =
                ServerConfig { shards, store_dir: Some(dir.clone()), ..ServerConfig::default() };
            servers.push(server::spawn(cfg, "127.0.0.1:0")?);
            dirs.push(dir);
        }
        let router = if spec.router {
            let cfg = RouterConfig {
                shards: servers.iter().map(ServerHandle::addr).collect(),
                ..RouterConfig::default()
            };
            Some(router::spawn(cfg, "127.0.0.1:0")?)
        } else {
            None
        };
        let front = router.as_ref().map_or_else(|| servers[0].addr(), RouterHandle::addr);
        Ok(Topology { front, servers, router, dirs })
    }

    /// Shut everything down (through the router when there is one, which
    /// fans the shutdown out), wait for every thread and remove the stores.
    pub fn stop(self) -> io::Result<()> {
        let result = loadgen::shutdown_server(self.front);
        if let Some(r) = self.router {
            r.join()?;
        }
        for s in self.servers {
            s.join()?;
        }
        for d in self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
        result
    }
}

/// The population a spec serves, exactly as `loadgen::run` generates it.
pub fn populate(spec: &ServingSpec, seed: u64) -> Population {
    geosocial_scenario::populate("baseline", &PopulationConfig::small(spec.users, spec.days), seed)
        .expect("the baseline family is registered")
}

/// The saturating closed-loop replay of the whole population.
pub fn saturate(
    addr: SocketAddr,
    spec: &ServingSpec,
    seed: u64,
    verify: bool,
) -> io::Result<BenchReport> {
    let cfg = LoadgenConfig {
        users: spec.users,
        days: spec.days,
        seed,
        connections: crate::nproc(),
        window: WINDOW,
        verify,
        wire: WireFormat::Binary,
        run_len: spec.run_len,
        trace_sample: 0,
        ..LoadgenConfig::default()
    };
    loadgen::run(addr, &cfg)
}

/// One ingest frame of the paced replay.
pub struct Frame {
    pub lane: usize,
    pub user: u32,
    pub events: usize,
    /// Offset of this frame's first event in the whole replay.
    pub events_before: usize,
    pub request: Request,
    /// Length prefix plus binary payload.
    pub bytes: Vec<u8>,
}

impl Frame {
    pub fn payload(&self) -> &[u8] {
        &self.bytes[4..]
    }
}

/// Cut the population into frames the way `loadgen` does: per-user runs
/// of up to `run_len` fixes, cut by the user's own checkins, each user on
/// one lane, frames in the order their last event occurs.
pub fn frames(ds: &Dataset, run_len: usize, lanes: usize) -> Vec<Frame> {
    let mut out: Vec<Frame> = Vec::new();
    let mut seqs: HashMap<u32, u64> = HashMap::new();
    let mut open: HashMap<u32, (u64, Vec<WireFix>)> = HashMap::new();
    let mut emitted = 0usize;
    let mut push = |out: &mut Vec<Frame>, user: u32, request: Request, events: usize| {
        let mut bytes = Vec::new();
        wire::encode_request_frame(&mut bytes, &request, WireFormat::Binary)
            .expect("ingest requests encode in memory");
        out.push(Frame {
            lane: shard_of(user, lanes),
            user,
            events,
            events_before: emitted,
            request,
            bytes,
        });
        emitted += events;
    };
    let run_request = |user: u32, (first_seq, fixes): (u64, Vec<WireFix>)| {
        if fixes.len() == 1 {
            let f = fixes[0];
            Request::Gps { user, seq: first_seq, t: f.t, lat: f.lat, lon: f.lon }
        } else {
            Request::GpsRun { user, first_seq, fixes }
        }
    };
    for ev in dataset_events(ds) {
        let user = ev.user();
        let seq = seqs.entry(user).or_insert(0);
        match ev {
            StreamEvent::Gps { point, .. } => {
                let run = open.entry(user).or_insert_with(|| (*seq, Vec::with_capacity(run_len)));
                run.1.push(WireFix { t: point.t, lat: point.pos.lat, lon: point.pos.lon });
                if run.1.len() >= run_len.max(1) {
                    let run = open.remove(&user).expect("run just extended");
                    let n = run.1.len();
                    push(&mut out, user, run_request(user, run), n);
                }
            }
            StreamEvent::Checkin { checkin, .. } => {
                if let Some(run) = open.remove(&user) {
                    let n = run.1.len();
                    push(&mut out, user, run_request(user, run), n);
                }
                let req = Request::Checkin {
                    user,
                    seq: *seq,
                    t: checkin.t,
                    poi: checkin.poi,
                    lat: checkin.location.lat,
                    lon: checkin.location.lon,
                };
                push(&mut out, user, req, 1);
            }
        }
        *seq += 1;
    }
    let mut residual: Vec<(u32, (u64, Vec<WireFix>))> = open.into_iter().collect();
    residual.sort_unstable_by_key(|(user, _)| *user);
    for (user, run) in residual {
        let n = run.1.len();
        push(&mut out, user, run_request(user, run), n);
    }
    out
}

/// The `Hello` every ingest session starts with.
pub fn hello(ds: &Dataset) -> Request {
    let origin = ds.pois.projection().origin();
    Request::Hello { origin_lat: origin.lat, origin_lon: origin.lon }
}

/// What the paced open-loop phase measured.
pub struct Paced {
    /// Per frame in send order, from when it was due to when its ack
    /// arrived (`Duration::MAX` for a frame never answered).
    pub ack: Vec<Duration>,
    /// Per frame in send order, how late the generator sent it.
    pub late: Vec<Duration>,
    /// Frames answered with an error, or never answered.
    pub errors: u64,
    pub frames: usize,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// One synchronous request on an open connection, binary where the
/// request has a binary form.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    req: &Request,
) -> io::Result<Response> {
    buf.clear();
    wire::encode_request_frame(buf, req, WireFormat::Binary)?;
    stream.write_all(buf)?;
    let len = read_frame_into(reader, buf)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
    })?;
    wire::decode_response(&buf[..len]).map_err(io::Error::from)
}

/// Send every frame at `start + events_before / rate`, whatever the
/// server does, over `lanes` connections. The calling thread paces all
/// lanes; one reader thread per connection timestamps acks as they
/// arrive, so each frame's latency runs from when it was due.
pub fn paced_replay(
    addr: SocketAddr,
    hello: &Request,
    frames: &[Frame],
    lanes: usize,
    rate_ev_s: f64,
) -> io::Result<Paced> {
    let due = |f: &Frame| Duration::from_secs_f64(f.events_before as f64 / rate_ev_s);
    let mut writers = Vec::with_capacity(lanes);
    let mut readers = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        let mut stream = connect(addr)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut buf = Vec::new();
        match exchange(&mut stream, &mut reader, &mut buf, hello)? {
            Response::Ok => {}
            other => return Err(io::Error::other(format!("hello: unexpected {other:?}"))),
        }
        writers.push(stream);
        readers.push(reader);
    }
    let start = Instant::now() + Duration::from_millis(2);
    let lane_dues: Vec<Vec<Duration>> =
        (0..lanes).map(|l| frames.iter().filter(|f| f.lane == l).map(due).collect()).collect();
    let handles: Vec<_> = readers
        .into_iter()
        .zip(lane_dues)
        .map(|(mut reader, dues)| {
            std::thread::spawn(move || -> (Vec<Duration>, u64) {
                let mut acks = Vec::with_capacity(dues.len());
                let mut errors = 0u64;
                let mut buf = Vec::new();
                for d in &dues {
                    let len = match read_frame_into(&mut reader, &mut buf) {
                        Ok(Some(len)) => len,
                        _ => break,
                    };
                    let at = Instant::now();
                    match wire::decode_response(&buf[..len]) {
                        Ok(Response::Verdicts { .. } | Response::Ok) => {}
                        _ => errors += 1,
                    }
                    acks.push(at.saturating_duration_since(start + *d));
                }
                errors += (dues.len() - acks.len()) as u64;
                (acks, errors)
            })
        })
        .collect();
    let mut late = Vec::with_capacity(frames.len());
    let mut send_err = None;
    for f in frames {
        let at = start + due(f);
        let now = Instant::now();
        if now < at {
            std::thread::sleep(at - now);
        }
        late.push(Instant::now().saturating_duration_since(at));
        if let Err(e) = writers[f.lane].write_all(&f.bytes) {
            send_err = Some(e);
            break;
        }
    }
    for w in &writers {
        let _ = w.shutdown(Shutdown::Write);
    }
    let mut ack = vec![Duration::MAX; frames.len()];
    let mut errors = 0;
    for (lane, h) in handles.into_iter().enumerate() {
        let (a, e) = h.join().map_err(|_| io::Error::other("ack reader panicked"))?;
        let sent = frames.iter().enumerate().filter(|(_, f)| f.lane == lane).map(|(i, _)| i);
        for (i, d) in sent.zip(a) {
            ack[i] = d;
        }
        errors += e;
    }
    if let Some(e) = send_err {
        return Err(e);
    }
    Ok(Paced { ack, late, errors, frames: frames.len() })
}

impl Paced {
    /// The share of the slowest 1% of frames' latency the generator's own
    /// lateness accounts for. Above one half, the client rather than the
    /// server set the tail.
    pub fn tail_lateness_share(&self) -> f64 {
        let mut order: Vec<usize> = (0..self.ack.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.ack[i]));
        let tail = &order[..order.len().div_ceil(100)];
        let late: f64 = tail.iter().map(|&i| self.late[i].as_secs_f64()).sum();
        let total: f64 = tail.iter().map(|&i| self.ack[i].as_secs_f64()).sum();
        if total > 0.0 {
            late / total
        } else {
            0.0
        }
    }
}

/// `Finish` the stream so every pending verdict is final.
pub fn finish(addr: SocketAddr) -> io::Result<()> {
    match loadgen::control_request(addr, &Request::Finish)? {
        Response::Verdicts { .. } | Response::Ok => Ok(()),
        other => Err(io::Error::other(format!("finish: unexpected {other:?}"))),
    }
}

/// Field-by-field differences between a served composition and the
/// batch pipeline's for the same user.
pub fn composition_mismatches(
    served: &StreamComposition,
    expected: &UserComposition,
) -> Vec<String> {
    [
        ("total", served.total_checkins, expected.total),
        ("honest", served.honest, expected.honest),
        ("superfluous", served.superfluous, expected.superfluous),
        ("remote", served.remote, expected.remote),
        ("driveby", served.driveby, expected.driveby),
        ("unclassified", served.unclassified, expected.unclassified),
    ]
    .into_iter()
    .filter(|(_, got, want)| got != want)
    .map(|(field, got, want)| format!("user {} {field}: served {got}, batch {want}", expected.user))
    .collect()
}

/// Every listed user's served composition, in order.
fn served_compositions(
    addr: SocketAddr,
    users: impl Iterator<Item = u32>,
) -> io::Result<Vec<Result<StreamComposition, String>>> {
    let mut stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut buf = Vec::new();
    users
        .map(|user| match exchange(&mut stream, &mut reader, &mut buf, &Request::User { user })? {
            Response::Composition { composition } => Ok(Ok(composition)),
            other => Ok(Err(format!("user {user}: unexpected reply {other:?}"))),
        })
        .collect()
}

/// Diff every user's served composition against the batch result, the
/// check `loadgen --verify` makes.
pub fn verify_served(addr: SocketAddr, expected: &[UserComposition]) -> io::Result<Vec<String>> {
    let served = served_compositions(addr, expected.iter().map(|c| c.user))?;
    Ok(served
        .into_iter()
        .zip(expected)
        .flat_map(|(got, want)| match got {
            Ok(got) => composition_mismatches(&got, want),
            Err(e) => vec![e],
        })
        .collect())
}

/// Diff every user's served composition against an online-audit oracle,
/// field for field.
pub fn verify_stream(addr: SocketAddr, expected: &[StreamComposition]) -> io::Result<Vec<String>> {
    let served = served_compositions(addr, expected.iter().map(|c| c.user))?;
    Ok(served
        .into_iter()
        .zip(expected)
        .filter_map(|(got, want)| match got {
            Ok(got) if got == *want => None,
            Ok(got) => Some(format!("user {}: served {got:?}, expected {want:?}", want.user)),
            Err(e) => Some(e),
        })
        .collect())
}

/// The events a prefix of the frames carries: each user's first events.
pub fn prefix_events(ds: &Dataset, prefix: &[Frame]) -> HashMap<u32, Vec<StreamEvent>> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for f in prefix {
        *counts.entry(f.user).or_insert(0) += f.events;
    }
    let mut by_user = events_by_user(ds);
    by_user.retain(|u, evs| match counts.get(u) {
        Some(&n) => {
            evs.truncate(n);
            true
        }
        None => false,
    });
    by_user
}

/// Every user's events audited to the end, sorted by user: the batch
/// pipeline's answer for a stream that stops there.
pub fn audit_events(
    ds: &Dataset,
    by_user: &HashMap<u32, Vec<StreamEvent>>,
) -> Vec<StreamComposition> {
    let mut users: Vec<u32> = by_user.keys().copied().collect();
    users.sort_unstable();
    let events: Vec<StreamEvent> = users.iter().flat_map(|u| by_user[u].iter().cloned()).collect();
    window_compositions(
        &events,
        &AuditConfig::paper(ds.pois.projection().origin()),
        None,
        i64::MIN,
        i64::MAX,
    )
}

/// A seeded time-travel query with the answer the batch pipeline
/// truncated at `t` gives (the X13 oracle).
pub struct AsOfQuery {
    pub user: u32,
    pub t: i64,
    pub expected: StreamComposition,
}

/// Each user's events, in order.
pub fn events_by_user(ds: &Dataset) -> HashMap<u32, Vec<StreamEvent>> {
    let mut by_user: HashMap<u32, Vec<StreamEvent>> = HashMap::new();
    for ev in dataset_events(ds) {
        by_user.entry(ev.user()).or_default().push(ev);
    }
    by_user
}

/// `n` queries drawn from `seed`. Query `i` asks for the `i`-th user of a
/// seeded shuffle (cycling, so every user is asked about as often) at a
/// time in the `i`-th of `n` equal slices of that user's span, from the
/// first event to the last: every seed asks for the same spread of history
/// lengths, up to the whole history.
pub fn asof_queries(
    ds: &Dataset,
    by_user: &HashMap<u32, Vec<StreamEvent>>,
    n: usize,
    seed: u64,
) -> Vec<AsOfQuery> {
    let cfg = AuditConfig::paper(ds.pois.projection().origin());
    let mut users: Vec<u32> = by_user.keys().copied().collect();
    users.sort_unstable();
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xA5_0F_A5_0F);
    for i in (1..users.len()).rev() {
        users.swap(i, rng.gen_range(0..i + 1));
    }
    (0..n as i64)
        .map(|i| {
            let user = users[i as usize % users.len()];
            let evs = &by_user[&user];
            let t0 = evs[0].t();
            let span = (evs[evs.len() - 1].t() - t0).max(1);
            let t = t0 + (i * span + rng.gen_range(0..span)) / n as i64;
            let expected = asof_answer(evs, &cfg, t);
            AsOfQuery { user, t, expected }
        })
        .collect()
}

/// One user's composition as of `t`, audited in-process.
pub fn asof_answer(user_events: &[StreamEvent], cfg: &AuditConfig, t: i64) -> StreamComposition {
    window_compositions(user_events, cfg, None, i64::MIN, t)
        .into_iter()
        .next()
        .expect("the user has an event at or before t")
}

/// Send the queries on one connection, one at a time. Returns each
/// query's latency and the answers that differ from the oracle.
pub fn asof_phase(
    addr: SocketAddr,
    queries: &[&AsOfQuery],
) -> io::Result<(Vec<Duration>, Vec<String>)> {
    let mut stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut buf = Vec::new();
    let mut lat = Vec::with_capacity(queries.len());
    let mut wrong = Vec::new();
    for q in queries {
        let t0 = Instant::now();
        let req = Request::AsOf { user: q.user, t: q.t };
        let resp = exchange(&mut stream, &mut reader, &mut buf, &req)?;
        lat.push(t0.elapsed());
        match resp {
            Response::AsOf { composition, .. } if composition == q.expected => {}
            other => wrong.push(format!(
                "AsOf user {} t {}: got {other:?}, want {:?}",
                q.user, q.t, q.expected
            )),
        }
    }
    Ok((lat, wrong))
}

/// Framed wire bytes (length prefixes included) per event.
pub fn bytes_per_event(frames: &[Frame]) -> f64 {
    let bytes: usize = frames.iter().map(|f| f.bytes.len()).sum();
    let events: usize = frames.iter().map(|f| f.events).sum();
    bytes as f64 / events.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_expected_composition_fails_verification() {
        let served = StreamComposition {
            user: 7,
            total_checkins: 5,
            honest: 2,
            superfluous: 1,
            remote: 1,
            driveby: 1,
            unclassified: 0,
            ..StreamComposition::default()
        };
        let right = UserComposition {
            user: 7,
            total: 5,
            honest: 2,
            superfluous: 1,
            remote: 1,
            driveby: 1,
            unclassified: 0,
        };
        assert!(composition_mismatches(&served, &right).is_empty());
        let wrong = UserComposition { honest: 3, driveby: 0, ..right };
        let found = composition_mismatches(&served, &wrong);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].contains("honest"));
    }

    #[test]
    fn frames_cover_every_event_once_in_user_order() {
        let pop = populate(
            &ServingSpec {
                users: 3,
                days: 1,
                run_len: 8,
                paced_ev_s: 1.0,
                router: false,
                round_s: 1.0,
            },
            5,
        );
        let all = dataset_events(&pop.dataset).len();
        for run_len in [1, 8] {
            let fs = frames(&pop.dataset, run_len, 2);
            assert_eq!(fs.iter().map(|f| f.events).sum::<usize>(), all);
            assert_eq!(fs.last().map(|f| f.events_before + f.events), Some(all));
            let mut next: HashMap<u32, u64> = HashMap::new();
            for f in &fs {
                let first = match &f.request {
                    Request::Gps { seq, .. } | Request::Checkin { seq, .. } => *seq,
                    Request::GpsRun { first_seq, .. } => *first_seq,
                    other => panic!("not ingest: {other:?}"),
                };
                let n = next.entry(f.user).or_insert(0);
                assert_eq!(first, *n, "user {} out of order", f.user);
                *n += f.events as u64;
                assert_eq!(f.lane, shard_of(f.user, 2));
            }
        }
    }
}
