//! Per-layer probes: each times calls into one layer's public functions
//! on the workload's own frames and events, outside any server.

use crate::serving::{AsOfQuery, Frame};
use crate::stats::median;
use geosocial_geo::LatLon;
use geosocial_serve::cluster::ShardMap;
use geosocial_serve::protocol::{Request, Response};
use geosocial_serve::wire;
use geosocial_store::{put_f64, put_varint, EventStore, Reader, StoreOptions, FLUSH_THRESHOLD};
use geosocial_stream::{AuditConfig, OnlineAuditor, OnlineVisitDetector};
use geosocial_trace::{Checkin, GpsPoint, PoiCategory};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Probes repeat over the frames until at least this many frames passed.
const MIN_PROBE_FRAMES: usize = 200_000;
/// The stream probe repeats until at least this many events passed.
const MIN_PROBE_EVENTS: usize = 1_000_000;

fn passes(frames: &[Frame]) -> usize {
    MIN_PROBE_FRAMES.div_ceil(frames.len().max(1)).max(1)
}

fn ns_per(elapsed: std::time::Duration, n: usize) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

/// One decoded ingest event of a frame, in apply order.
enum Ev {
    Fix(GpsPoint),
    Checkin(Checkin),
}

fn frame_events(req: &Request) -> Vec<(u64, Ev)> {
    match req {
        Request::Gps { seq, t, lat, lon, .. } => {
            vec![(*seq, Ev::Fix(GpsPoint { t: *t, pos: LatLon::new(*lat, *lon) }))]
        }
        Request::GpsRun { first_seq, fixes, .. } => fixes
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (first_seq + i as u64, Ev::Fix(GpsPoint { t: f.t, pos: LatLon::new(f.lat, f.lon) }))
            })
            .collect(),
        Request::Checkin { seq, t, poi, lat, lon, .. } => vec![(
            *seq,
            Ev::Checkin(Checkin {
                t: *t,
                poi: *poi,
                category: PoiCategory::Food,
                location: LatLon::new(*lat, *lon),
                provenance: None,
            }),
        )],
        _ => Vec::new(),
    }
}

/// Wire codec costs per frame.
pub struct WireCosts {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub ack_encode_ns_per_frame: f64,
}

/// Time request encode and decode over the frames, and ack encode over
/// the acks the online auditor produced for them.
pub fn wire_probe(frames: &[Frame], acks: &[Response]) -> WireCosts {
    let reps = passes(frames);
    let mut buf = Vec::with_capacity(64 * 1024);
    let t = Instant::now();
    for _ in 0..reps {
        for f in frames {
            buf.clear();
            wire::encode_request_payload(&mut buf, black_box(&f.request));
            black_box(&buf);
        }
    }
    let encode = ns_per(t.elapsed(), reps * frames.len());
    let t = Instant::now();
    for _ in 0..reps {
        for f in frames {
            black_box(wire::decode_request(black_box(f.payload())).expect("frames round-trip"));
        }
    }
    let decode = ns_per(t.elapsed(), reps * frames.len());
    let t = Instant::now();
    for _ in 0..reps {
        for a in acks {
            buf.clear();
            wire::encode_response_payload(&mut buf, black_box(a));
            black_box(&buf);
        }
    }
    let ack = ns_per(t.elapsed(), reps * acks.len());
    WireCosts {
        encode_ns_per_frame: encode,
        decode_ns_per_frame: decode,
        ack_encode_ns_per_frame: ack,
    }
}

/// Online detection and audit costs.
pub struct StreamCosts {
    pub detect_ns_per_fix: f64,
    pub audit_ns_per_event: f64,
    /// Audit minus detection, per checkin.
    pub match_classify_ns_per_checkin: f64,
    /// Sum over users of the most state each user's auditor held.
    pub state_items: usize,
    /// The ack each frame gets: the verdicts its events finalized.
    pub acks: Vec<Response>,
}

/// Push every frame's events through per-user `OnlineAuditor`s (as a
/// shard does) and every fix through per-user `OnlineVisitDetector`s.
pub fn stream_probe(frames: &[Frame], cfg: &AuditConfig) -> StreamCosts {
    let decoded: Vec<(u32, Vec<(u64, Ev)>)> =
        frames.iter().map(|f| (f.user, frame_events(&f.request))).collect();
    let fixes: usize =
        decoded.iter().flat_map(|(_, e)| e).filter(|(_, e)| matches!(e, Ev::Fix(_))).count();
    let events: usize = decoded.iter().map(|(_, e)| e.len()).sum();
    let checkins = events - fixes;

    // Alternate whole passes of each, fresh state every pass, and keep
    // the median pass: one pass over a small population is mostly warm-up.
    let reps = MIN_PROBE_EVENTS.div_ceil(events.max(1)).max(3);
    let mut detect = Vec::with_capacity(reps);
    let mut audit = Vec::with_capacity(reps);
    let mut acks = Vec::new();
    let mut state_items = 0;
    for _ in 0..reps {
        let mut detectors: HashMap<u32, OnlineVisitDetector> = HashMap::new();
        let t = Instant::now();
        for (user, evs) in &decoded {
            let d = detectors.entry(*user).or_insert_with(|| OnlineVisitDetector::new(cfg.visit));
            for (_, e) in evs {
                if let Ev::Fix(p) = e {
                    d.push(*p);
                }
            }
            while let Some(v) = d.pop_visit() {
                black_box(v);
            }
        }
        for d in detectors.values_mut() {
            d.finish();
            while let Some(v) = d.pop_visit() {
                black_box(v);
            }
        }
        detect.push(t.elapsed().as_secs_f64());

        let mut auditors: HashMap<u32, (OnlineAuditor, usize)> = HashMap::new();
        acks = Vec::with_capacity(frames.len());
        let t = Instant::now();
        for (user, evs) in &decoded {
            let (a, peak) = auditors
                .entry(*user)
                .or_insert_with(|| (OnlineAuditor::new(*user, cfg.clone()), 0));
            for (_, e) in evs {
                match e {
                    Ev::Fix(p) => a.push_gps(*p),
                    Ev::Checkin(c) => a.push_checkin(*c),
                }
            }
            acks.push(Response::Verdicts { verdicts: a.drain_verdicts().collect() });
            *peak = (*peak).max(a.state_size());
        }
        for (a, _) in auditors.values_mut() {
            a.finish();
            black_box(a.drain_verdicts().count());
        }
        audit.push(t.elapsed().as_secs_f64());
        state_items = auditors.values().map(|(_, peak)| peak).sum();
    }
    let (detect, audit) = (median(&detect) * 1e9, median(&audit) * 1e9);
    StreamCosts {
        detect_ns_per_fix: detect / fixes.max(1) as f64,
        audit_ns_per_event: audit / events.max(1) as f64,
        match_classify_ns_per_checkin: (audit - detect) / checkins.max(1) as f64,
        state_items,
        acks,
    }
}

/// Event-store costs.
pub struct StoreCosts {
    pub append_ns_per_event: f64,
    pub flush_ns_per_event: f64,
    /// Mean `EventStore::query` time per time-travel query.
    pub query_us: f64,
    /// Mean re-audit time of the queried records per query.
    pub reaudit_us: f64,
    /// Queries whose re-audit disagreed with the oracle.
    pub wrong: Vec<String>,
}

/// A per-event record body laid out like the server's private one: kind,
/// sequence number, position (plus the POI for checkins). It is a copy, so
/// a change to the server's record format does not move the store probe;
/// the served store's own bytes per record come from `DrainReport`.
fn record_body(buf: &mut Vec<u8>, seq: u64, ev: &Ev) {
    buf.clear();
    match ev {
        Ev::Fix(p) => {
            buf.push(0);
            put_varint(buf, seq);
            put_f64(buf, p.pos.lat);
            put_f64(buf, p.pos.lon);
        }
        Ev::Checkin(c) => {
            buf.push(1);
            put_varint(buf, seq);
            put_varint(buf, u64::from(c.poi));
            put_f64(buf, c.location.lat);
            put_f64(buf, c.location.lon);
        }
    }
}

fn decode_body(t: i64, body: &[u8]) -> Option<Ev> {
    let mut r = Reader::new(body);
    let kind = r.byte().ok()?;
    r.varint().ok()?;
    match kind {
        0 => Some(Ev::Fix(GpsPoint { t, pos: LatLon::new(r.f64().ok()?, r.f64().ok()?) })),
        1 => {
            let poi = r.varint().ok()? as u32;
            let location = LatLon::new(r.f64().ok()?, r.f64().ok()?);
            Some(Ev::Checkin(Checkin {
                t,
                poi,
                category: PoiCategory::Food,
                location,
                provenance: None,
            }))
        }
        _ => None,
    }
}

/// Append every event to a fresh `EventStore` with the server's flush
/// cadence (a flush per `FLUSH_THRESHOLD` buffered bytes), then answer the
/// time-travel queries from it: `query` plus a fresh-auditor re-audit.
pub fn store_probe(
    frames: &[Frame],
    dir: &Path,
    queries: &[AsOfQuery],
    cfg: &AuditConfig,
) -> io::Result<StoreCosts> {
    let mut records: Vec<(u32, i64, Vec<u8>)> = Vec::new();
    for f in frames {
        for (seq, ev) in frame_events(&f.request) {
            let t = match &ev {
                Ev::Fix(p) => p.t,
                Ev::Checkin(c) => c.t,
            };
            let mut body = Vec::with_capacity(32);
            record_body(&mut body, seq, &ev);
            records.push((f.user, t, body));
        }
    }
    let opts = StoreOptions { flush_bytes: usize::MAX, ..StoreOptions::default() };
    let mut store = EventStore::open(dir, opts)?;
    let mut append = std::time::Duration::ZERO;
    let mut flush = std::time::Duration::ZERO;
    let mut flushed_at = store.total_bytes();
    for (user, t, body) in &records {
        let t0 = Instant::now();
        store.append(*user, *t, body)?;
        append += t0.elapsed();
        let total = store.total_bytes();
        if total - flushed_at >= FLUSH_THRESHOLD as u64 {
            let t0 = Instant::now();
            store.flush()?;
            flush += t0.elapsed();
            flushed_at = total;
        }
    }
    let t0 = Instant::now();
    store.flush()?;
    flush += t0.elapsed();

    let mut query = std::time::Duration::ZERO;
    let mut reaudit = std::time::Duration::ZERO;
    let mut wrong = Vec::new();
    for q in queries {
        let t0 = Instant::now();
        let recs = store.query(q.user, i64::MIN, q.t)?;
        query += t0.elapsed();
        let t0 = Instant::now();
        let mut a = OnlineAuditor::new(q.user, cfg.clone());
        for r in &recs {
            match decode_body(r.t, &r.payload) {
                Some(Ev::Fix(p)) => a.push_gps(p),
                Some(Ev::Checkin(c)) => a.push_checkin(c),
                None => wrong.push(format!("user {} record at t {} undecodable", q.user, r.t)),
            }
        }
        a.finish();
        black_box(a.drain_verdicts().count());
        let got = a.composition();
        reaudit += t0.elapsed();
        if got != q.expected {
            wrong.push(format!(
                "store re-audit user {} t {}: {got:?} != {:?}",
                q.user, q.t, q.expected
            ));
        }
    }
    drop(store);
    let n = queries.len().max(1) as f64;
    Ok(StoreCosts {
        append_ns_per_event: ns_per(append, records.len()),
        flush_ns_per_event: ns_per(flush, records.len()),
        query_us: query.as_secs_f64() * 1e6 / n,
        reaudit_us: reaudit.as_secs_f64() * 1e6 / n,
        wrong,
    })
}

/// Router costs: the routing peek per frame and the shard-map lookup.
pub struct RouterCosts {
    pub peek_ns_per_frame: f64,
    pub owner_ns_per_lookup: f64,
}

pub fn router_probe(frames: &[Frame], shards: usize) -> RouterCosts {
    let reps = passes(frames);
    let t = Instant::now();
    for _ in 0..reps {
        for f in frames {
            black_box(wire::peek_route(black_box(f.payload())).expect("ingest frames route"));
        }
    }
    let peek = ns_per(t.elapsed(), reps * frames.len());
    let addrs: Vec<std::net::SocketAddr> = (0..shards)
        .map(|i| std::net::SocketAddr::from(([127, 0, 0, 1], 7000 + i as u16)))
        .collect();
    let map = ShardMap::new(&addrs);
    let t = Instant::now();
    for _ in 0..reps {
        for f in frames {
            black_box(map.owner(black_box(f.user)));
        }
    }
    let owner = ns_per(t.elapsed(), reps * frames.len());
    RouterCosts { peek_ns_per_frame: peek, owner_ns_per_lookup: owner }
}
