//! `geosocial-serve`: the online checkin-validity auditing server.
//!
//! Binds a TCP listener and audits streamed GPS fixes and checkins with
//! the paper's α/β thresholds, sharding per-user state across worker
//! threads. Stop it with a `Shutdown` request (e.g. via
//! `geosocial-loadgen`); the final per-shard counters are logged to stderr
//! on the way out.
//!
//! Diagnostics go through the `geosocial-obs` structured logger — set
//! `GEOSOCIAL_LOG` to filter (e.g. `GEOSOCIAL_LOG=debug`, `=off`) and
//! `GEOSOCIAL_LOG_FORMAT=json` for JSON lines.

use geosocial_fault::FaultPlan;
use geosocial_serve::server::{run_with, ServerConfig};
use std::net::TcpListener;
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "\
usage: geosocial-serve [options]
  --addr HOST:PORT   bind address (default 127.0.0.1:7744; port 0 = ephemeral)
  --shards N         worker shards owning per-user state (default 4)
  --alpha METERS     matching distance threshold (default 500)
  --beta SECONDS     matching time threshold (default 1800)
  --lateness SECONDS allowed event-time lateness (default 0 = in-order)
  --metrics-every S  write the metrics exposition to stderr every S seconds
                     (default off; GEOSOCIAL_METRICS_EVERY env var also works)
  --read-timeout S   per-connection idle read timeout in seconds
                     (default 30; 0 = wait forever)
  --write-timeout S  per-connection write timeout in seconds (default 30; 0 = off)
  --max-conns N      concurrently served connections before the acceptor
                     applies backpressure (default 256)
  --snapshot-every N minimum applied events between durable store snapshots
                     (default 1024); a snapshot also waits until the log
                     past the last one is at least that snapshot's size, so
                     snapshots cost no more bytes than the log that pays
                     for them
  --store-dir PATH   event-store root; each shard logs to PATH/shard-N/ and
                     recovery replays it on restart (default: a per-process
                     temp dir removed at shutdown)
  --segment-bytes N  roll store segments after N bytes (default 4194304)
  --index-every N    sparse-index every Nth record of each user, besides the
                     first record of each run of that user's records
                     (default 8)
  --flush-bytes N    flush the store log after N buffered bytes (default
                     65536; 0 = flush every append, so acked events survive
                     a SIGKILL — what cluster handoff under chaos relies on)
  --fault SPEC       fault plan, e.g. seed=42,truncate=20,stall=5:300,kill=1@500
                     (inert unless built with --features fault-inject)
  --trace-slow-us N  tail-sampling threshold: keep any trace whose end-to-end
                     latency reaches N microseconds (default 10000)
  --help             print this message";

fn parse_args() -> Result<(String, ServerConfig), String> {
    let mut addr = "127.0.0.1:7744".to_string();
    let mut config = ServerConfig::default();
    if let Ok(var) = std::env::var("GEOSOCIAL_METRICS_EVERY") {
        if let Ok(s) = var.trim().parse::<u64>() {
            if s > 0 {
                config.metrics_every_s = Some(s);
            }
        }
    }
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--shards" => {
                config.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
            }
            "--alpha" => {
                config.match_config.alpha_m =
                    value("--alpha")?.parse().map_err(|e| format!("--alpha: {e}"))?;
            }
            "--beta" => {
                config.match_config.beta_s =
                    value("--beta")?.parse().map_err(|e| format!("--beta: {e}"))?;
            }
            "--lateness" => {
                config.allowed_lateness_s =
                    value("--lateness")?.parse().map_err(|e| format!("--lateness: {e}"))?;
            }
            "--metrics-every" => {
                let s: u64 = value("--metrics-every")?
                    .parse()
                    .map_err(|e| format!("--metrics-every: {e}"))?;
                config.metrics_every_s = (s > 0).then_some(s);
            }
            "--read-timeout" => {
                let s: u64 =
                    value("--read-timeout")?.parse().map_err(|e| format!("--read-timeout: {e}"))?;
                config.read_timeout = (s > 0).then(|| Duration::from_secs(s));
            }
            "--write-timeout" => {
                let s: u64 = value("--write-timeout")?
                    .parse()
                    .map_err(|e| format!("--write-timeout: {e}"))?;
                config.write_timeout = (s > 0).then(|| Duration::from_secs(s));
            }
            "--max-conns" => {
                config.max_connections =
                    value("--max-conns")?.parse().map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--snapshot-every" => {
                config.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
            }
            "--store-dir" => {
                config.store_dir = Some(value("--store-dir")?.into());
            }
            "--segment-bytes" => {
                config.segment_bytes = value("--segment-bytes")?
                    .parse()
                    .map_err(|e| format!("--segment-bytes: {e}"))?;
            }
            "--index-every" => {
                config.index_every =
                    value("--index-every")?.parse().map_err(|e| format!("--index-every: {e}"))?;
            }
            "--flush-bytes" => {
                config.flush_bytes =
                    value("--flush-bytes")?.parse().map_err(|e| format!("--flush-bytes: {e}"))?;
            }
            "--fault" => {
                config.fault = FaultPlan::parse(&value("--fault")?)?;
                if !config.fault.is_inert() && !FaultPlan::armed() {
                    geosocial_obs::warn!(
                        "serve",
                        "fault plan given but injection is compiled out \
                         (rebuild with --features fault-inject)"
                    );
                }
            }
            "--trace-slow-us" => {
                config.trace_slow_us = value("--trace-slow-us")?
                    .parse()
                    .map_err(|e| format!("--trace-slow-us: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((addr, config))
}

fn main() {
    let (addr, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            geosocial_obs::error!("serve", "{e}");
            eprintln!("{USAGE}");
            exit(2);
        }
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            geosocial_obs::error!("serve", "bind failed: {e}"; addr = addr);
            exit(1);
        }
    };
    match listener.local_addr() {
        Ok(local) => geosocial_obs::info!("serve", "listening";
            addr = local,
            shards = config.shards,
            alpha_m = config.match_config.alpha_m,
            beta_s = config.match_config.beta_s,
        ),
        Err(e) => geosocial_obs::warn!("serve", "local_addr: {e}"),
    }
    if let Err(e) = run_with(listener, config) {
        geosocial_obs::error!("serve", "serve failed: {e}");
        exit(1);
    }
}
