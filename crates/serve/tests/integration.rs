//! End-to-end serving-layer test: spawn `geosocial-serve` on an ephemeral
//! port, replay a generated scenario through the load-generator client, and
//! assert the served composition snapshot exactly matches the batch
//! pipeline's fingerprint — then shut the server down cleanly.

use geosocial_serve::loadgen::{run, shutdown_server, LoadgenConfig};
use geosocial_serve::protocol::{read_frame_into, read_msg, write_msg, Request, Response, WireFix};
use geosocial_serve::server::{spawn, ServerConfig};
use geosocial_serve::wire::{self, WireFormat};
use geosocial_stream::StreamComposition;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

fn replay_and_verify(shards: usize, wire: WireFormat, run_len: usize) {
    let server = spawn(ServerConfig { shards, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.addr();

    let load = LoadgenConfig {
        users: 16,
        days: 3,
        seed: 0xBEEF,
        connections: 2,
        window: 64,
        verify: true,
        wire,
        run_len,
        ..LoadgenConfig::default()
    };
    let report = run(addr, &load).expect("replay succeeds");

    assert!(report.total_events > 0, "scenario generated no events");
    assert_eq!(
        report.server.gps_events + report.server.checkin_events,
        report.total_events,
        "server must ingest every replayed event"
    );
    assert_eq!(
        report.verified,
        Some(true),
        "served compositions diverged from batch: {:?}",
        &report.mismatches[..report.mismatches.len().min(10)]
    );
    assert_eq!(report.server.per_shard.len(), shards);
    assert_eq!(report.server.composition.late_dropped, 0);
    assert_eq!(report.server.composition.forced, 0);

    shutdown_server(addr).expect("shutdown accepted");
    let final_stats = server.join().expect("server exits cleanly");
    assert_eq!(final_stats.gps_events, report.server.gps_events);
    assert_eq!(final_stats.checkin_events, report.server.checkin_events);
}

#[test]
fn served_composition_matches_batch_on_one_shard() {
    replay_and_verify(1, WireFormat::Json, 1);
}

#[test]
fn served_composition_matches_batch_on_four_shards() {
    replay_and_verify(4, WireFormat::Json, 1);
}

#[test]
fn served_composition_matches_batch_binary_batched() {
    replay_and_verify(4, WireFormat::Binary, 32);
}

#[test]
fn served_composition_matches_batch_json_batched_runs() {
    // `GpsRun` is format-independent: the same batched request spelled as
    // JSON must verify too.
    replay_and_verify(2, WireFormat::Json, 16);
}

/// The exactly-once contract on `GpsRun` is **per event**, not per frame:
/// a retried run that overlaps the applied prefix (the shape a fault mid-
/// frame leaves behind) must re-apply only the missing suffix, counting
/// the overlap as duplicates. Spoken over a single connection that
/// switches wire formats frame by frame, which also pins the per-frame
/// format dispatch.
#[test]
fn gps_run_retry_dedups_per_event() {
    let server = spawn(ServerConfig { shards: 1, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    let mut r = BufReader::new(stream);
    let mut ask = |req: &Request, fmt: WireFormat| -> Response {
        let mut frame = Vec::new();
        wire::encode_request_frame(&mut frame, req, fmt).expect("encode");
        w.write_all(&frame).expect("write");
        w.flush().expect("flush");
        let mut buf = Vec::new();
        let len = read_frame_into(&mut r, &mut buf).expect("read").expect("response");
        wire::decode_response(&buf[..len]).expect("decode")
    };
    let fix = |i: i64| WireFix { t: 60 * i, lat: 34.42 + 1e-4 * i as f64, lon: -119.86 };
    let run = |first: i64, n: i64| Request::GpsRun {
        user: 1,
        first_seq: first as u64,
        fixes: (first..first + n).map(fix).collect(),
    };

    match ask(&Request::Hello { origin_lat: 34.42, origin_lon: -119.86 }, WireFormat::Binary) {
        Response::Ok => {}
        other => panic!("expected Ok for Hello, got {other:?}"),
    }
    // A 10-fix run applies whole.
    match ask(&run(0, 10), WireFormat::Binary) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for run, got {other:?}"),
    }
    // A retried run overlapping the applied prefix: 6 duplicate events
    // acknowledged, 2 fresh events applied — not an 8-event gap error and
    // not 8 re-applied events.
    match ask(&run(4, 8), WireFormat::Binary) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for overlapping retry, got {other:?}"),
    }
    // A fully duplicate run is a plain ack (spelled as JSON: the request
    // means the same in either format, on the same connection).
    match ask(&run(0, 12), WireFormat::Json) {
        Response::Verdicts { verdicts } => assert!(verdicts.is_empty()),
        other => panic!("expected empty ack for duplicate run, got {other:?}"),
    }
    // A run past the frontier is a gap, rejected before any fix applies.
    match ask(&run(20, 4), WireFormat::Binary) {
        Response::Error { message } => assert!(message.contains("gap"), "got: {message}"),
        other => panic!("expected gap error, got {other:?}"),
    }
    match ask(&run(12, 1), WireFormat::Binary) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for frontier run, got {other:?}"),
    }

    // The server's own ledger: 13 applied fixes (0..13), 18 duplicate
    // events (6 overlap + 12 full-duplicate), zero from the gap frame.
    match ask(&Request::Stats, WireFormat::Binary) {
        Response::Stats { stats } => {
            assert_eq!(stats.gps_events, 13, "only the missing suffixes may apply");
            assert_eq!(stats.duplicates, 18, "overlap must be counted per event");
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    drop(w);
    drop(r);
    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("server exits cleanly");
}

#[test]
fn protocol_guards_reject_bad_sessions() {
    let server = spawn(ServerConfig { shards: 2, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    let mut r = BufReader::new(stream);
    let mut ask = |req: &Request| -> Response {
        write_msg(&mut w, req).expect("write");
        w.flush().expect("flush");
        read_msg(&mut r).expect("read").expect("response")
    };

    // Ingest before Hello is refused.
    match ask(&Request::Gps { user: 1, seq: 0, t: 0, lat: 0.0, lon: 0.0 }) {
        Response::Error { .. } => {}
        other => panic!("expected error before Hello, got {other:?}"),
    }
    // Unknown-user queries are refused.
    match ask(&Request::User { user: 42 }) {
        Response::Error { .. } => {}
        other => panic!("expected unknown-user error, got {other:?}"),
    }
    // Hello, then ingest works.
    match ask(&Request::Hello { origin_lat: 34.42, origin_lon: -119.86 }) {
        Response::Ok => {}
        other => panic!("expected Ok for Hello, got {other:?}"),
    }
    match ask(&Request::Gps { user: 1, seq: 0, t: 0, lat: 34.42, lon: -119.86 }) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for Gps, got {other:?}"),
    }
    // A duplicate delivery (same seq) is acknowledged without re-applying.
    match ask(&Request::Gps { user: 1, seq: 0, t: 0, lat: 34.42, lon: -119.86 }) {
        Response::Verdicts { verdicts } => assert!(verdicts.is_empty()),
        other => panic!("expected empty ack for duplicate, got {other:?}"),
    }
    // A sequence gap is rejected.
    match ask(&Request::Gps { user: 1, seq: 5, t: 60, lat: 34.42, lon: -119.86 }) {
        Response::Error { message } => assert!(message.contains("gap"), "got: {message}"),
        other => panic!("expected gap error, got {other:?}"),
    }
    // Finish finalizes; ingest afterwards is refused.
    match ask(&Request::Finish) {
        Response::Verdicts { .. } | Response::Ok => {}
        other => panic!("expected Verdicts for Finish, got {other:?}"),
    }
    match ask(&Request::Gps { user: 1, seq: 1, t: 60, lat: 34.42, lon: -119.86 }) {
        Response::Error { .. } => {}
        other => panic!("expected error after Finish, got {other:?}"),
    }

    // Close our connection before asking for shutdown: the server drains
    // in-flight connections before exiting.
    drop(w);
    drop(r);
    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("server exits cleanly");
}

/// Positions are validated once, after decode: a NaN fix inside a stay is
/// rejected with a typed `Error` on the connection that sent it, which
/// then carries on, and the audit never sees the fix. Unvalidated, in a release build, the one NaN fix split
/// the stay's visit in two. User 2 replays user 1's trace plus the
/// rejected fix; both must end with the same composition.
#[test]
fn nan_fix_inside_a_stay_is_rejected_and_leaves_the_audit_unchanged() {
    let server = spawn(ServerConfig { shards: 2, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.addr();
    let ask = |w: &mut BufWriter<TcpStream>, r: &mut BufReader<TcpStream>, req: &Request| {
        let mut buf = Vec::new();
        wire::encode_request_frame(&mut buf, req, WireFormat::Binary).expect("encode");
        w.write_all(&buf).and_then(|()| w.flush()).expect("write");
        let len = read_frame_into(r, &mut buf).expect("read").expect("response");
        wire::decode_response(&buf[..len]).expect("decode")
    };
    // 40 minutes at one spot, then 15 minutes walking east at ~200 m/min.
    let fix = |i: i64| {
        let lon = if i < 40 { -119.86 } else { -119.86 + 0.0022 * (i - 39) as f64 };
        (60 * i, 34.42, lon)
    };
    let gps = |user: u32, seq: u64, (t, lat, lon): (i64, f64, f64)| Request::Gps {
        user,
        seq,
        t,
        lat,
        lon,
    };

    let stream = TcpStream::connect(addr).expect("connect");
    let (mut w, mut r) =
        (BufWriter::new(stream.try_clone().expect("clone")), BufReader::new(stream));
    assert!(matches!(
        ask(&mut w, &mut r, &Request::Hello { origin_lat: 34.42, origin_lon: -119.86 }),
        Response::Ok
    ));
    for i in 0..55 {
        assert!(matches!(
            ask(&mut w, &mut r, &gps(1, i as u64, fix(i))),
            Response::Verdicts { .. }
        ));
    }
    for i in 0..20 {
        assert!(matches!(
            ask(&mut w, &mut r, &gps(2, i as u64, fix(i))),
            Response::Verdicts { .. }
        ));
    }

    // Minutes 20..25 of the stay as one run whose third fix is NaN.
    let fixes = (20..25)
        .map(|i| {
            let (t, lat, lon) = fix(i);
            WireFix { t, lat: if i == 22 { f64::NAN } else { lat }, lon }
        })
        .collect();
    let run = Request::GpsRun { user: 2, first_seq: 20, fixes };
    match ask(&mut w, &mut r, &run) {
        Response::Error { message } => assert!(message.contains("finite"), "got: {message}"),
        other => panic!("a NaN fix must be rejected with Error, got {other:?}"),
    }

    // The rejected run took no seq: the same connection continues the
    // trace from seq 20.
    for i in 20..55 {
        assert!(matches!(
            ask(&mut w, &mut r, &gps(2, i as u64, fix(i))),
            Response::Verdicts { .. }
        ));
    }
    assert!(matches!(
        ask(&mut w, &mut r, &Request::Finish),
        Response::Verdicts { .. } | Response::Ok
    ));
    let composition = |w: &mut BufWriter<TcpStream>, r: &mut BufReader<TcpStream>, user| match ask(
        w,
        r,
        &Request::User { user },
    ) {
        Response::Composition { composition } => composition,
        other => panic!("expected Composition for user {user}, got {other:?}"),
    };
    // Rejected at decode: no shard ever saw the run (an unvalidated NaN
    // fix trips `LatLon`'s debug assertion inside the shard, which then
    // recovers).
    match ask(&mut w, &mut r, &Request::Stats) {
        Response::Stats { stats } => {
            assert_eq!(stats.gps_events, 110, "only the valid fixes apply");
            assert_eq!(stats.recoveries, 0, "no shard may fail over the NaN fix");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    let clean = composition(&mut w, &mut r, 1);
    let tried = composition(&mut w, &mut r, 2);
    assert_eq!(clean.visits_total, 1, "the stay is one visit: {clean:?}");
    assert_eq!(tried, StreamComposition { user: 2, ..clean });

    drop(w);
    drop(r);
    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("server exits cleanly");
}

/// The router answers a frame it cannot route (unknown opcode) with
/// `Error` itself, and relays a shard's `Error` for an invalid run; either
/// way the client's connection carries on to its next frame.
#[test]
fn router_relays_errors_and_keeps_the_connection() {
    use geosocial_serve::router::{self, RouterConfig};
    let server = spawn(ServerConfig { shards: 2, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let config = RouterConfig { shards: vec![server.addr()], ..RouterConfig::default() };
    let router = router::spawn(config, "127.0.0.1:0").expect("bind router");
    let stream = TcpStream::connect(router.addr()).expect("connect");
    let (mut w, mut r) =
        (BufWriter::new(stream.try_clone().expect("clone")), BufReader::new(stream));
    let frame = |req: &Request| {
        let mut frame = Vec::new();
        wire::encode_request_frame(&mut frame, req, WireFormat::Binary).expect("encode");
        frame
    };
    let mut ask = |frame: &[u8]| {
        w.write_all(frame).and_then(|()| w.flush()).expect("write");
        let mut buf = Vec::new();
        let len = read_frame_into(&mut r, &mut buf).expect("read").expect("response");
        wire::decode_response(&buf[..len]).expect("decode")
    };
    let hello = Request::Hello { origin_lat: 34.42, origin_lon: -119.86 };
    assert!(matches!(ask(&frame(&hello)), Response::Ok));
    let nan = WireFix { t: 0, lat: f64::NAN, lon: -119.86 };
    let run = Request::GpsRun { user: 7, first_seq: 0, fixes: vec![nan] };
    let answer = ask(&frame(&run));
    assert!(matches!(answer, Response::Error { .. }), "the shard's Error reaches the client");
    assert!(matches!(ask(&[0, 0, 0, 1, 0xFF]), Response::Error { .. }), "unknown opcode");
    let gps = Request::Gps { user: 7, seq: 0, t: 0, lat: 34.42, lon: -119.86 };
    assert!(matches!(ask(&frame(&gps)), Response::Verdicts { .. }), "the connection carries on");
    drop((w, r));
    shutdown_server(router.addr()).expect("shutdown through the router");
    router.join().expect("router exits cleanly");
    server.join().expect("server exits cleanly");
}
