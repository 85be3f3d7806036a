//! Restart recovery under the *default* snapshot cadence, where snapshots
//! are amortized against the log (`EventStore::snapshot_due`): after a
//! replay that takes several of them, a server reopened on the same store
//! directory must restore the exact audited state from the newest
//! snapshot plus a non-empty replay delta that stays within the cadence
//! bound, and the live `Metrics` scrape must show snapshot bytes within
//! the log's bytes plus the newest snapshots.
//!
//! This file holds exactly one test: the store metrics are process-global,
//! and a dedicated integration-test binary keeps other servers' snapshots
//! out of the counts.

use geosocial_checkin::{Scenario, ScenarioConfig};
use geosocial_serve::loadgen::{run, shutdown_server, LoadgenConfig};
use geosocial_serve::protocol::{read_msg, write_msg, Request, Response};
use geosocial_serve::server::{spawn, ServerConfig};
use geosocial_store::{EventStore, StoreOptions};
use geosocial_stream::{dataset_events, window_compositions, AuditConfig};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

/// One request over a fresh JSON control connection.
fn control(addr: SocketAddr, req: &Request) -> Response {
    let stream = TcpStream::connect(addr).expect("connect control");
    stream.set_nodelay(true).ok();
    let mut w = BufWriter::new(stream.try_clone().expect("clone stream"));
    write_msg(&mut w, req).expect("write request");
    w.flush().expect("flush request");
    let mut r = BufReader::new(stream);
    read_msg::<Response, _>(&mut r).expect("read response").expect("response present")
}

/// Value of the `kind` series `name` in an exposition text.
fn series(text: &str, kind: &str, name: &str) -> Option<i64> {
    text.lines().find_map(|l| {
        let mut it = l.split_whitespace();
        if it.next() == Some(kind) && it.next() == Some(name) {
            it.next().and_then(|v| v.parse().ok())
        } else {
            None
        }
    })
}

#[test]
fn state_survives_restart_with_default_snapshot_cadence() {
    let (users, days, seed) = (8, 2, 7);
    let scenario = Scenario::generate(&ScenarioConfig::small(users, days), seed);
    let ds = &scenario.primary;
    let events = dataset_events(ds);
    let store_dir =
        std::env::temp_dir().join(format!("geosocial-store-cadence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let config =
        ServerConfig { shards: 2, store_dir: Some(store_dir.clone()), ..ServerConfig::default() };
    let defaults = ServerConfig::default();
    assert_eq!(config.snapshot_every, defaults.snapshot_every);
    assert_eq!(config.segment_bytes, defaults.segment_bytes);

    let server = spawn(config.clone(), "127.0.0.1:0").expect("bind first server");
    let addr = server.addr();
    let load = LoadgenConfig {
        users,
        days,
        seed,
        connections: 2,
        window: 64,
        verify: true,
        ..LoadgenConfig::default()
    };
    let report = run(addr, &load).expect("replay succeeds");
    assert_eq!(report.verified, Some(true));
    let scrape = match control(addr, &Request::Metrics) {
        Response::Metrics { text } => text,
        other => panic!("Metrics: {other:?}"),
    };
    shutdown_server(addr).expect("shutdown accepted");
    let first_stats = server.join().expect("first server exits cleanly");

    // The first snapshot per shard comes at the record minimum; at least
    // three more per shard must have been held to the byte rule.
    let snapshots = series(&scrape, "counter", "store.compactions").unwrap_or(0);
    assert!(
        snapshots >= 4 * config.shards as i64,
        "only {snapshots} snapshots: the scale is too small to amortize"
    );
    let snapshot_bytes =
        series(&scrape, "counter", "store.snapshot.bytes").expect("store.snapshot.bytes exported");

    // Each shard's store, as the restarted server will find it.
    let (mut log_bytes, mut newest_snapshots) = (0i64, 0i64);
    for shard in 0..config.shards {
        let dir = store_dir.join(format!("shard-{shard}"));
        let store = EventStore::open(&dir, StoreOptions::default()).expect("open shard store");
        assert!(store.snapshot_state().is_some(), "shard {shard} took a snapshot");
        assert!(
            store.snapshot_lsn() > config.snapshot_every as u64,
            "shard {shard}: snapshots continued past the first"
        );
        assert!(store.records_since_snapshot() > 0, "shard {shard}: recovery replays a real delta");
        assert!(
            !store.snapshot_due(config.snapshot_every as u64),
            "shard {shard}: {} records / {} bytes past the snapshot exceed the cadence bound",
            store.records_since_snapshot(),
            store.live_bytes()
        );
        log_bytes += store.total_bytes() as i64;
        let snap_files = std::fs::read_dir(&dir).expect("list shard store").filter_map(|e| {
            let e = e.expect("dir entry");
            let snap = e.file_name().to_string_lossy().starts_with("snap-");
            snap.then(|| e.metadata().expect("snapshot metadata").len() as i64)
        });
        newest_snapshots += snap_files.sum::<i64>();
    }
    assert!(
        snapshot_bytes <= log_bytes + newest_snapshots,
        "{snapshot_bytes} snapshot bytes against {log_bytes} log bytes"
    );

    // Reopen on the same directory: snapshot + delta replay must restore
    // the audited state without a single event re-sent.
    let server = spawn(config, "127.0.0.1:0").expect("bind second server");
    let addr = server.addr();
    let cfg = AuditConfig::paper(ds.pois.projection().origin());
    let full = window_compositions(&events, &cfg, None, i64::MIN, i64::MAX);
    assert_eq!(full.len(), users as usize);
    for want in &full {
        match control(addr, &Request::User { user: want.user }) {
            Response::Composition { composition } => {
                assert_eq!(
                    composition, *want,
                    "restored live state diverged for user {}",
                    want.user
                );
            }
            other => panic!("user {}: unexpected reply {other:?}", want.user),
        }
    }
    match control(addr, &Request::Stats) {
        Response::Stats { stats } => {
            assert_eq!(stats.gps_events, first_stats.gps_events, "restored gps count");
            assert_eq!(stats.checkin_events, first_stats.checkin_events, "restored checkin count");
            assert_eq!(stats.verdicts, first_stats.verdicts, "restored verdict count");
        }
        other => panic!("unexpected Stats reply {other:?}"),
    }
    shutdown_server(addr).expect("second shutdown accepted");
    server.join().expect("second server exits cleanly");
    let _ = std::fs::remove_dir_all(&store_dir);
}
