//! The chaos equivalence test — the robustness layer's headline proof.
//!
//! A served replay under an aggressive deterministic fault plan (frames
//! truncated mid-write, connections aborted with delivered acks
//! destroyed, frames stalled past the server's shortened read timeout,
//! store flushes torn short or failed outright, and one shard worker
//! killed mid-stream) must produce per-user compositions *exactly* equal
//! to the batch pipeline on the same scenario: retries resume from the
//! last acked event, the per-user sequence numbers make redelivery
//! idempotent, and the killed shard reconverges from the event store's
//! snapshot + replayed delta. Segments are shrunk so the kill lands
//! mid-segment — recovery crosses a segment boundary, not just a tail.
//!
//! Only compiled with `--features fault-inject`; the default test suite
//! (tier-1) never injects faults.

#![cfg(feature = "fault-inject")]

use geosocial_fault::{FaultPlan, ShardKill};
use geosocial_serve::loadgen::{run, shutdown_server, LoadgenConfig, RetryPolicy};
use geosocial_serve::server::{spawn, ServerConfig};
use geosocial_serve::wire::WireFormat;
use std::time::Duration;

fn chaos_case(wire: WireFormat, run_len: usize) {
    let plan = FaultPlan::aggressive(
        0xC4A0_5EED,
        // Kill shard 1 once it has applied 150 ingests: mid-stream, after
        // at least one checkpoint (snapshot_every = 64 below), so recovery
        // replays a non-trivial log.
        ShardKill { shard: 1, at_ingest: 150 },
        // Stall well past the 100ms read timeout so stalls really kill
        // connections rather than just slowing them.
        250,
    );
    assert!(FaultPlan::armed(), "this test only means something with injection compiled in");

    let server = spawn(
        ServerConfig {
            shards: 4,
            read_timeout: Some(Duration::from_millis(100)),
            write_timeout: Some(Duration::from_secs(5)),
            snapshot_every: 64,
            // Small segments: the scenario spans several rolls per shard,
            // so the mid-stream kill recovers across a segment boundary.
            segment_bytes: 16 * 1024,
            // Small flushes, so the torn-write repair and failed-flush
            // paths each fire dozens of times: ~91 and ~43 here, against
            // ~15 and 4 with the default 64 KiB (the floors below).
            flush_bytes: 1024,
            fault: plan.clone(),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    let load = LoadgenConfig {
        users: 16,
        days: 3,
        seed: 0xBEEF, // same scenario the fault-free integration test replays
        connections: 8,
        window: 64,
        verify: true,
        fault: plan.clone(),
        // Tight backoff: the plan forces hundreds of reconnects, and the
        // default operator-friendly backoff would stretch the test into
        // minutes without making it any more convincing.
        retry: RetryPolicy { max_retries: 8, base_ms: 5, max_ms: 250 },
        wire,
        run_len,
        // Default head sampling: tracing is exercised by tests/traces.rs;
        // this suite gates on served-vs-batch equivalence under faults.
        trace_sample: 64,
        scenario: "baseline".to_string(),
    };
    let report = run(addr, &load).expect("chaotic replay still completes");

    // The whole point: despite every injected fault, the served result is
    // exactly the batch result.
    assert_eq!(
        report.verified,
        Some(true),
        "served compositions diverged from batch under faults: {:?}",
        &report.mismatches[..report.mismatches.len().min(10)]
    );
    assert_eq!(report.server.composition.late_dropped, 0, "retries must not reorder events");
    assert_eq!(report.server.composition.forced, 0);

    // ...and the chaos must actually have happened, or the test proves
    // nothing.
    let injected = plan.injected();
    assert!(injected.truncated > 0, "fault plan never truncated a frame — rates too low?");
    assert!(injected.aborted > 0, "fault plan never aborted a connection — rates too low?");
    assert_eq!(injected.kills, 1, "the one-shot shard kill must fire exactly once");
    assert!(injected.short_writes >= 40, "only {} torn store flushes", injected.short_writes);
    assert!(injected.flush_fails >= 20, "only {} failed store flushes", injected.flush_fails);
    assert!(report.retries > 0, "no lane ever reconnected");
    assert!(report.resent_events > 0, "no event was ever redelivered");
    assert!(
        report.server.duplicates > 0,
        "redelivery happened but the server never deduplicated — seq contract broken?"
    );
    assert_eq!(report.server.recoveries, 1, "the killed shard must recover exactly once");

    shutdown_server(addr).expect("shutdown accepted");
    let final_stats = server.join().expect("server exits cleanly");
    assert_eq!(final_stats.recoveries, 1);
}

#[test]
fn served_composition_survives_chaos_byte_identical() {
    chaos_case(WireFormat::Json, 1);
}

/// The binary wire under the same fault plan, with GPS fixes batched into
/// delta-encoded `GpsRun` frames. The one-shot shard kill fires at an
/// ingest count that lands **inside** a run, so this is the per-event
/// retry contract's proof: the partially applied run's prefix is in the
/// replay log, the retried frame redelivers every fix, and the server
/// dedups exactly the applied prefix — per event, not per frame.
#[test]
fn served_composition_survives_chaos_binary_batched() {
    chaos_case(WireFormat::Binary, 32);
}
