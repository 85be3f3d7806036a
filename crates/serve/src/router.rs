//! The stateless cluster router: one process in front of N shard
//! *processes*.
//!
//! Clients speak the ordinary frame protocol (either wire format, traced
//! or not) to the router exactly as they would to a single
//! `geosocial-serve`. The router peeks each frame's route cheaply
//! ([`crate::wire::peek_route`]), forwards user-addressed frames to the
//! owning shard process (chosen by the rendezvous map in
//! [`crate::cluster`]) as **raw bytes**, and fans broadcast frames
//! (`Hello`, `Window`, `Stats`, `Finish`, `Drain`, `Traces`, `Metrics`)
//! out to every live shard, merging the answers through [`crate::merge`]
//! — the same fold the single-process server uses, which is what makes a
//! cluster byte-indistinguishable from one process.
//!
//! ## Per-connection anatomy
//!
//! Each client connection runs a small pipeline so clients can keep
//! their request window full:
//!
//! ```text
//! client ──frames──▶ forwarder ──▶ link inbox ──▶ writer ──▶ shard
//!                        │                                      │
//!                        ▼ owed-order queue                     ▼
//! client ◀──frames── responder ◀── link responses ◀── reader ◀──┘
//! ```
//!
//! * the **forwarder** (the accept-handler thread) reads client frames,
//!   peeks the route, and enqueues the raw frame on the owning link
//!   plus an entry in the owed-order queue;
//! * each **link** (one per shard the connection has touched, created
//!   lazily) owns a writer thread and a reader thread, so a slow or
//!   dead shard never stalls traffic to the others;
//! * the **responder** pops the owed queue in client order and emits
//!   exactly one response per request — user-routed answers pass
//!   through byte-identical, broadcasts merge first.
//!
//! ## Handoff and failure
//!
//! Links track which frames are written but unanswered. When a link's
//! stream fails, the writer re-resolves the shard's address from the
//! versioned map (picking up any `Handoff`), reconnects with a bounded
//! backoff budget, and **replays** the unanswered frames in order; the
//! per-user sequence dedup on the shard makes the replay exactly-once.
//! A `Handoff` request swaps the map entry's address, bumps its epoch,
//! and **kicks every link** currently connected to the entry (across all
//! client connections): their streams are closed, queued frames buffer
//! in the link inboxes, and the writers reconnect — to the new address —
//! replaying the unanswered frames. The caller quiesces the old process
//! *before* the handoff (or it already died), so no ack can land in a
//! store that was already shipped. If the reconnect budget runs dry the
//! connection is failed, and the client's own retry path (reconnect +
//! `AsOf` fast-forward) takes over.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cluster::ShardMap;
use crate::merge;
use crate::protocol::{read_frame_into, Request, Response, TraceSpan};
use crate::server::{history_report, is_timeout, wire_span, ConnSlots, SlotGuard};
use crate::wire::{self, RoutePeek, WireFormat};
use geosocial_obs::trace::{self, SpanRecord, TraceContext};
use geosocial_store::CodecError;

mod metrics {
    geosocial_obs::cached_metrics! {
        pub(super) fn frames_user = counter("router.frames.user");
        pub(super) fn frames_broadcast = counter("router.frames.broadcast");
        pub(super) fn frames_control = counter("router.frames.control");
        pub(super) fn frames_wire_json = counter("router.frames.wire.json");
        pub(super) fn frames_wire_binary = counter("router.frames.wire.binary");
        pub(super) fn reconnects = counter("router.reconnects");
        pub(super) fn replayed = counter("router.replayed");
        pub(super) fn handoffs = counter("router.handoffs");
        pub(super) fn conn_errors = counter("router.conn.errors");
        pub(super) fn conn_timeouts = counter("router.conn.timeouts");
        pub(super) fn link_errors = counter("router.link.errors");
        pub(super) fn decode_errors = counter("router.decode_errors");
        pub(super) fn bytes_in = counter("router.bytes_in");
        pub(super) fn bytes_out = counter("router.bytes_out");
        pub(super) fn latency_forward = histogram("router.latency_us.forward");
        pub(super) fn latency_broadcast = histogram("router.latency_us.broadcast");
    }
}

/// Tuning for one router process.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Initial shard processes; entry ids are assigned `0..n` in order.
    pub shards: Vec<SocketAddr>,
    /// Client-side idle read timeout (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Client-side write timeout.
    pub write_timeout: Option<Duration>,
    /// Read timeout on shard links. `None` (the default) is deliberate:
    /// a dead shard process yields EOF/reset promptly anyway, and a
    /// timeout would misread a genuinely slow drain as a failure.
    pub shard_read_timeout: Option<Duration>,
    /// Concurrent client connections serviced at once.
    pub max_connections: usize,
    /// Per-link in-flight frame cap (inbox + written-but-unanswered);
    /// the forwarder blocks past it, bounding replay cost.
    pub pending_cap: usize,
    /// Reconnect budget per link outage.
    pub connect_attempts: u32,
    /// Pause between reconnect attempts.
    pub connect_backoff: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: Vec::new(),
            read_timeout: None,
            write_timeout: None,
            shard_read_timeout: None,
            max_connections: 256,
            pending_cap: 1024,
            connect_attempts: 40,
            connect_backoff: Duration::from_millis(250),
        }
    }
}

/// Process-wide router state shared by every connection.
struct Shared {
    config: RouterConfig,
    map: RwLock<ShardMap>,
    shutdown: AtomicBool,
    /// Every live link across every client connection, so a `Handoff`
    /// can kick the handed-off entry's links immediately rather than
    /// waiting for them to notice the old process is gone.
    links: Mutex<Vec<std::sync::Weak<Link>>>,
}

/// Per-connection control block.
struct ConnCtl {
    closing: AtomicBool,
    links: Mutex<HashMap<usize, Arc<Link>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ConnCtl {
    fn new() -> Self {
        ConnCtl {
            closing: AtomicBool::new(false),
            links: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        }
    }

    fn closing(&self) -> bool {
        self.closing.load(Ordering::SeqCst)
    }
}

/// One lazily-created connection to a shard process, owned by a single
/// client connection. The writer thread owns the stream lifecycle
/// (connect, reconnect, replay); the reader thread pops answered frames
/// and hands response bytes to the responder.
struct Link {
    idx: usize,
    state: Mutex<LinkState>,
    cv: Condvar,
    resp: Mutex<mpsc::Receiver<Vec<u8>>>,
}

#[derive(Default)]
struct LinkState {
    /// Bumped on every successful (re)connect; readers discard frames
    /// read from a superseded stream.
    gen: u64,
    stream: Option<TcpStream>,
    /// Frames queued but not yet written.
    inbox: VecDeque<Vec<u8>>,
    /// Frames written but not yet answered — the replay set.
    unacked: VecDeque<Vec<u8>>,
    /// Reconnect budget exhausted; the connection is doomed.
    dead: bool,
}

/// What the responder owes the client next, in request order.
enum Owed {
    /// A pre-framed response produced by the router itself.
    Inline(Vec<u8>),
    /// One response due from link `idx`, passed through byte-identical.
    Link { idx: usize, ctx: Option<TraceContext>, fwd_us: u64 },
    /// One response due from each target link, merged before answering.
    Broadcast { targets: Vec<usize>, fmt: WireFormat, kind: BroadcastKind, fwd_us: u64 },
}

enum BroadcastKind {
    /// Merge via [`merge::merge_responses`].
    Plain,
    /// Merge via [`merge::merge_trace_responses`], injecting the
    /// router's own forward spans (`id_ok` false = unparseable filter;
    /// the shards' error answer wins, skip injection).
    Traces { slowest: usize, trace_id: Option<u128>, id_ok: bool, path: Option<String> },
    /// Concatenate shard metric texts under per-shard headers, the
    /// router's own registry first.
    Metrics,
}

/// Prefix `payload` with its 4-byte length: the raw frame bytes links
/// forward verbatim.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

fn connect_shard(addr: SocketAddr, config: &RouterConfig) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(config.shard_read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    Ok(stream)
}

/// Get or create the connection's link to shard entry `idx`, spawning
/// its writer and reader threads on first use. Lazy creation matters:
/// a control-only connection (e.g. the one delivering a `Handoff`)
/// must work even while a shard process is down.
fn get_link(conn: &Arc<ConnCtl>, shared: &Arc<Shared>, idx: usize) -> io::Result<Arc<Link>> {
    let mut links = conn.links.lock().expect("links lock");
    if let Some(link) = links.get(&idx) {
        return Ok(Arc::clone(link));
    }
    let (resp_tx, resp_rx) = mpsc::channel::<Vec<u8>>();
    let link = Arc::new(Link {
        idx,
        state: Mutex::new(LinkState::default()),
        cv: Condvar::new(),
        resp: Mutex::new(resp_rx),
    });
    let mut threads = conn.threads.lock().expect("threads lock");
    threads.push(std::thread::Builder::new().name(format!("geosocial-router-w{idx}")).spawn({
        let (link, shared, conn) = (Arc::clone(&link), Arc::clone(shared), Arc::clone(conn));
        move || writer_loop(&link, &shared, &conn)
    })?);
    threads.push(std::thread::Builder::new().name(format!("geosocial-router-r{idx}")).spawn({
        let (link, conn) = (Arc::clone(&link), Arc::clone(conn));
        move || reader_loop(&link, &conn, resp_tx)
    })?);
    links.insert(idx, Arc::clone(&link));
    let mut registry = shared.links.lock().expect("registry lock");
    registry.retain(|w| w.strong_count() > 0);
    registry.push(Arc::downgrade(&link));
    Ok(link)
}

/// Close the current stream of every link to shard entry `idx`, across
/// all client connections. Pending frames stay queued; the writers
/// reconnect at the entry's (new) address and replay. Called on handoff.
fn kick_links(shared: &Shared, idx: usize) {
    let links: Vec<Arc<Link>> = {
        let registry = shared.links.lock().expect("registry lock");
        registry.iter().filter_map(|w| w.upgrade()).filter(|l| l.idx == idx).collect()
    };
    for link in links {
        let mut state = link.state.lock().expect("link lock");
        if let Some(stream) = state.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        link.cv.notify_all();
    }
}

/// Queue a frame on a link, honoring the in-flight cap. Returns false
/// when the link died or the connection is closing.
fn push_frame(link: &Link, frame: Vec<u8>, conn: &ConnCtl, cap: usize) -> bool {
    let mut state = link.state.lock().expect("link lock");
    loop {
        if conn.closing() || state.dead {
            return false;
        }
        if state.inbox.len() + state.unacked.len() < cap {
            break;
        }
        let (guard, _) = link.cv.wait_timeout(state, Duration::from_millis(50)).expect("link lock");
        state = guard;
    }
    state.inbox.push_back(frame);
    link.cv.notify_all();
    true
}

/// Link writer: drains the inbox onto the shard stream in order, and
/// owns (re)connection. On a fresh stream, every written-but-unanswered
/// frame is requeued ahead of the inbox — the replay that makes a
/// handoff or reconnect invisible (the shard's seq dedup absorbs
/// duplicates).
fn writer_loop(link: &Arc<Link>, shared: &Arc<Shared>, conn: &Arc<ConnCtl>) {
    let mut state = link.state.lock().expect("link lock");
    loop {
        if conn.closing() || state.dead {
            return;
        }
        if state.stream.is_none() {
            if state.inbox.is_empty() && state.unacked.is_empty() {
                // Idle and unconnected (first use, or the server closed
                // an idle link): wait for work before dialing.
                let (guard, _) =
                    link.cv.wait_timeout(state, Duration::from_millis(50)).expect("link lock");
                state = guard;
                continue;
            }
            drop(state);
            let connected = reconnect(link, shared, conn);
            state = link.state.lock().expect("link lock");
            if !connected {
                state.dead = true;
                link.cv.notify_all();
                metrics::link_errors().inc();
                geosocial_obs::warn!("router", "link reconnect budget exhausted";
                    shard = link.idx as u64);
                return;
            }
            continue;
        }
        let Some(frame) = state.inbox.pop_front() else {
            let (guard, _) =
                link.cv.wait_timeout(state, Duration::from_millis(50)).expect("link lock");
            state = guard;
            continue;
        };
        let gen = state.gen;
        let stream = state.stream.as_ref().and_then(|s| s.try_clone().ok());
        state.unacked.push_back(frame.clone());
        drop(state);
        let wrote = match stream {
            Some(mut s) => s.write_all(&frame).is_ok(),
            None => false,
        };
        state = link.state.lock().expect("link lock");
        if !wrote && state.gen == gen {
            // The frame stays in `unacked`; dropping the stream triggers
            // reconnect + replay on the next iteration.
            state.stream = None;
            link.cv.notify_all();
        }
    }
}

/// Dial the link's shard with the configured budget, re-resolving its
/// address from the shard map before every attempt so an interleaved
/// `Handoff` redirects the link. On success, installs the stream and
/// requeues the replay set. Returns false when the budget ran out.
fn reconnect(link: &Arc<Link>, shared: &Arc<Shared>, conn: &Arc<ConnCtl>) -> bool {
    for attempt in 0..shared.config.connect_attempts.max(1) {
        if conn.closing() {
            return false;
        }
        let addr = {
            let map = shared.map.read().expect("map lock");
            map.entries().get(link.idx).filter(|e| e.live).map(|e| e.addr)
        };
        if let Some(addr) = addr {
            if let Ok(stream) = connect_shard(addr, &shared.config) {
                metrics::reconnects().inc();
                let mut state = link.state.lock().expect("link lock");
                state.gen += 1;
                let replay = state.unacked.len();
                if replay > 0 {
                    metrics::replayed().add(replay as u64);
                    while let Some(frame) = state.unacked.pop_back() {
                        state.inbox.push_front(frame);
                    }
                }
                state.stream = Some(stream);
                link.cv.notify_all();
                geosocial_obs::info!("router", "link connected";
                    shard = link.idx as u64, attempt = attempt as u64, replay = replay as u64);
                return true;
            }
        }
        std::thread::sleep(shared.config.connect_backoff);
    }
    false
}

/// Link reader: reads response frames off the current stream, pops the
/// answered frame from the replay set, and forwards the raw bytes to
/// the responder. Frames read from a superseded stream generation are
/// discarded — their replayed copy will answer instead.
fn reader_loop(link: &Arc<Link>, conn: &Arc<ConnCtl>, resp_tx: mpsc::Sender<Vec<u8>>) {
    let mut state = link.state.lock().expect("link lock");
    'outer: loop {
        if conn.closing() || state.dead {
            return; // dropping resp_tx tells the responder the link died
        }
        let (stream, gen) = match state.stream.as_ref().and_then(|s| s.try_clone().ok()) {
            Some(s) => (s, state.gen),
            None => {
                let (guard, _) =
                    link.cv.wait_timeout(state, Duration::from_millis(50)).expect("link lock");
                state = guard;
                continue;
            }
        };
        drop(state);
        let mut reader = BufReader::new(stream);
        let mut buf: Vec<u8> = Vec::new();
        loop {
            match read_frame_into(&mut reader, &mut buf) {
                Ok(Some(len)) => {
                    let frame = framed(&buf[..len]);
                    let mut guard = link.state.lock().expect("link lock");
                    if guard.gen != gen {
                        state = guard;
                        continue 'outer; // stale stream; re-clone the new one
                    }
                    guard.unacked.pop_front();
                    link.cv.notify_all(); // frees in-flight cap space
                    drop(guard);
                    if resp_tx.send(frame).is_err() {
                        return; // responder gone
                    }
                }
                Ok(None) | Err(_) => {
                    // EOF, reset, or a read timeout: surrender the stream
                    // (if still current) and let the writer decide — an
                    // idle close reconnects on the next frame, a death
                    // mid-traffic reconnects and replays immediately.
                    state = link.state.lock().expect("link lock");
                    if state.gen == gen {
                        state.stream = None;
                        link.cv.notify_all();
                    }
                    continue 'outer;
                }
            }
        }
    }
}

/// Receive the next response frame from link `idx` (blocking). Errors
/// when the link died with its reconnect budget exhausted.
fn link_recv(conn: &ConnCtl, idx: usize) -> io::Result<Vec<u8>> {
    let link = {
        let links = conn.links.lock().expect("links lock");
        links.get(&idx).cloned()
    };
    let link = link.ok_or_else(|| io::Error::other("owed response from an unknown link"))?;
    let rx = link.resp.lock().expect("resp lock");
    rx.recv().map_err(|_| {
        io::Error::new(io::ErrorKind::ConnectionAborted, format!("shard link {idx} failed"))
    })
}

/// The router's own contribution to a `Traces` broadcast: forward spans
/// recorded by this process, shaped like one more shard reply. Only
/// `router.*` spans are reported so a co-located in-process server (as
/// in the experiments) is not double-counted.
fn router_traces_reply(trace_id: Option<u128>, path: Option<&str>) -> Response {
    let mut by_trace: HashMap<String, Vec<TraceSpan>> = HashMap::new();
    for span in trace::collector().spans() {
        if !span.name.starts_with("router.") {
            continue;
        }
        if trace_id.is_some_and(|id| id != span.trace_id) {
            continue;
        }
        by_trace.entry(trace::trace_hex(span.trace_id)).or_default().push(wire_span(span));
    }
    if let Some(p) = path {
        by_trace.retain(|_, spans| spans.iter().any(|s| s.name.contains(p)));
    }
    Response::Traces { traces: merge::rank_traces(by_trace, 0) }
}

/// Merge shard `Metrics` texts: the router's registry first, then each
/// shard's under a header naming its map entry.
fn merge_metrics(replies: Vec<Response>, targets: &[usize], shared: &Shared) -> Response {
    let map = shared.map.read().expect("map lock");
    let mut text = format!("# router\n{}", geosocial_obs::render_text());
    for (idx, resp) in targets.iter().zip(replies) {
        let addr =
            map.entries().get(*idx).map(|e| e.addr.to_string()).unwrap_or_else(|| "?".into());
        match resp {
            Response::Metrics { text: shard_text } => {
                text.push_str(&format!("\n# shard {idx} ({addr})\n{shard_text}"));
            }
            other => {
                text.push_str(&format!("\n# shard {idx} ({addr}): no metrics ({other:?})\n"));
            }
        }
    }
    Response::Metrics { text }
}

/// One blocking request/response exchange on a fresh connection —
/// used to tell shard processes to shut down.
fn control_roundtrip(addr: SocketAddr, req: &Request) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut buf = Vec::new();
    wire::encode_request_frame(&mut buf, req, WireFormat::Json)?;
    stream.write_all(&buf)?;
    let mut reader = BufReader::new(stream);
    let mut payload = Vec::new();
    match read_frame_into(&mut reader, &mut payload)? {
        Some(len) => Ok(wire::decode_response(&payload[..len])?),
        None => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response to control frame")),
    }
}

/// Frame a router-built response and queue it in owed order.
fn send_inline(owed_tx: &mpsc::Sender<Owed>, fmt: WireFormat, resp: &Response) -> io::Result<()> {
    let mut buf = Vec::new();
    wire::encode_response_frame(&mut buf, resp, fmt)?;
    owed_tx
        .send(Owed::Inline(buf))
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "responder gone"))
}

/// Answer a frame the router cannot route or decode with an `Error`, as a
/// shard server does: the connection reads on, and no link (nor its
/// replay log) ever sees the frame.
fn reject(owed_tx: &mpsc::Sender<Owed>, fmt: WireFormat, e: CodecError) -> io::Result<()> {
    metrics::decode_errors().inc();
    send_inline(owed_tx, fmt, &Response::Error { message: e.to_string() })
}

/// Handle a broadcast or control frame (already fully decoded — these
/// are rare next to the user-routed hot path).
#[allow(clippy::too_many_arguments)]
fn handle_wide(
    req: Request,
    fmt: WireFormat,
    payload: &[u8],
    conn: &Arc<ConnCtl>,
    shared: &Arc<Shared>,
    owed_tx: &mpsc::Sender<Owed>,
    self_addr: SocketAddr,
) -> io::Result<()> {
    match req {
        Request::ShardMap => {
            metrics::frames_control().inc();
            let info = shared.map.read().expect("map lock").info();
            send_inline(owed_tx, fmt, &Response::ShardMap { map: info })
        }
        Request::Handoff { shard, addr } => {
            metrics::frames_control().inc();
            let resp = match addr.parse::<SocketAddr>() {
                Err(e) => Response::Error { message: format!("bad handoff address {addr:?}: {e}") },
                Ok(new_addr) => {
                    let handed = {
                        let mut map = shared.map.write().expect("map lock");
                        map.handoff(shard, new_addr).map(|(idx, old)| (idx, old, map.info()))
                    };
                    match handed {
                        Some((idx, old, info)) => {
                            metrics::handoffs().inc();
                            geosocial_obs::info!("router", "shard handoff";
                                shard = shard, from = old.to_string(), to = addr.clone(),
                                version = info.version);
                            // Links still pointed at the old process stall
                            // their queues and reconnect at the new
                            // address, replaying unanswered frames.
                            kick_links(shared, idx);
                            Response::ShardMap { map: info }
                        }
                        None => Response::Error {
                            message: format!("unknown shard id {shard} in the cluster map"),
                        },
                    }
                }
            };
            send_inline(owed_tx, fmt, &resp)
        }
        Request::MetricsHistory { last } => {
            metrics::frames_control().inc();
            send_inline(owed_tx, fmt, &Response::MetricsHistory { report: history_report(last) })
        }
        Request::Shutdown => {
            metrics::frames_control().inc();
            // Stop every live shard process, then this router. Fresh
            // best-effort connections: a dead shard must not block the
            // cluster's shutdown.
            let addrs: Vec<SocketAddr> = {
                let map = shared.map.read().expect("map lock");
                map.entries().iter().filter(|e| e.live).map(|e| e.addr).collect()
            };
            for addr in addrs {
                if let Err(e) = control_roundtrip(addr, &Request::Shutdown) {
                    geosocial_obs::warn!("router", "shard shutdown skipped: {e}";
                        addr = addr.to_string());
                }
            }
            shared.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self_addr); // unblock the acceptor
            send_inline(owed_tx, fmt, &Response::Ok)
        }
        Request::Metrics => broadcast(conn, shared, owed_tx, payload, fmt, BroadcastKind::Metrics),
        Request::Traces { trace_id, slowest, path } => {
            let (id, id_ok) = match trace_id.as_deref() {
                None => (None, true),
                Some(hex) => match trace::parse_trace_id(hex) {
                    Some(id) => (Some(id), true),
                    None => (None, false), // shards answer the error; skip injection
                },
            };
            broadcast(
                conn,
                shared,
                owed_tx,
                payload,
                fmt,
                BroadcastKind::Traces { slowest, trace_id: id, id_ok, path },
            )
        }
        // Hello / Window / Stats / Finish / Drain
        _ => broadcast(conn, shared, owed_tx, payload, fmt, BroadcastKind::Plain),
    }
}

/// Fan one frame out to every live shard and owe the client the merged
/// answer.
fn broadcast(
    conn: &Arc<ConnCtl>,
    shared: &Arc<Shared>,
    owed_tx: &mpsc::Sender<Owed>,
    payload: &[u8],
    fmt: WireFormat,
    kind: BroadcastKind,
) -> io::Result<()> {
    metrics::frames_broadcast().inc();
    let targets: Vec<usize> = {
        let map = shared.map.read().expect("map lock");
        map.entries().iter().enumerate().filter(|(_, e)| e.live).map(|(i, _)| i).collect()
    };
    if targets.is_empty() {
        return send_inline(
            owed_tx,
            fmt,
            &Response::Error { message: "no live shards in the cluster map".into() },
        );
    }
    let frame = framed(payload);
    for &idx in &targets {
        let link = get_link(conn, shared, idx)?;
        if !push_frame(&link, frame.clone(), conn, shared.config.pending_cap) {
            return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "link failed"));
        }
    }
    owed_tx
        .send(Owed::Broadcast { targets, fmt, kind, fwd_us: trace::now_us() })
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "responder gone"))
}

/// The forwarder half of a client connection: read frames, route, owe.
fn forward_loop(
    reader: &mut BufReader<TcpStream>,
    conn: &Arc<ConnCtl>,
    shared: &Arc<Shared>,
    owed_tx: &mpsc::Sender<Owed>,
    self_addr: SocketAddr,
) -> io::Result<()> {
    let mut in_buf: Vec<u8> = Vec::new();
    loop {
        if conn.closing() {
            return Ok(());
        }
        let len = match read_frame_into(reader, &mut in_buf) {
            Ok(Some(len)) => len,
            Ok(None) => return Ok(()),
            Err(e) if is_timeout(&e) => {
                metrics::conn_timeouts().inc();
                geosocial_obs::info!("router", "client idle past the read timeout, dropping");
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        metrics::bytes_in().add(len as u64 + 4);
        let payload = &in_buf[..len];
        let fmt = wire::detect(payload);
        let (route, ctx) = match wire::peek_route(payload) {
            Ok(peeked) => peeked,
            Err(e) => {
                reject(owed_tx, fmt, e)?;
                continue;
            }
        };
        match fmt {
            WireFormat::Json => metrics::frames_wire_json().inc(),
            WireFormat::Binary => metrics::frames_wire_binary().inc(),
        }
        match route {
            RoutePeek::User(user) => {
                metrics::frames_user().inc();
                let owner = shared.map.read().expect("map lock").owner(user);
                let Some(idx) = owner else {
                    send_inline(
                        owed_tx,
                        fmt,
                        &Response::Error { message: "no live shards in the cluster map".into() },
                    )?;
                    continue;
                };
                let link = get_link(conn, shared, idx)?;
                if !push_frame(&link, framed(payload), conn, shared.config.pending_cap) {
                    return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "link failed"));
                }
                owed_tx
                    .send(Owed::Link { idx, ctx, fwd_us: trace::now_us() })
                    .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "responder gone"))?;
            }
            RoutePeek::Broadcast | RoutePeek::Control => {
                let (req, fmt, _) = match wire::decode_request_traced(payload) {
                    Ok(decoded) => decoded,
                    Err(e) => {
                        reject(owed_tx, fmt, e)?;
                        continue;
                    }
                };
                handle_wide(req, fmt, payload, conn, shared, owed_tx, self_addr)?;
            }
        }
    }
}

/// The responder half: answer the owed queue in order, one response per
/// request. Any failure (dead link, client write error) tears the
/// connection down — the client's retry path recovers.
fn respond_loop(
    client: TcpStream,
    conn: Arc<ConnCtl>,
    shared: Arc<Shared>,
    owed_rx: mpsc::Receiver<Owed>,
) {
    let mut writer = match client.try_clone() {
        Ok(w) => BufWriter::new(w),
        Err(_) => {
            conn.closing.store(true, Ordering::SeqCst);
            return;
        }
    };
    for owed in owed_rx {
        let result = (|| -> io::Result<()> {
            match owed {
                Owed::Inline(bytes) => {
                    metrics::bytes_out().add(bytes.len() as u64);
                    writer.write_all(&bytes)?;
                }
                Owed::Link { idx, ctx, fwd_us } => {
                    let frame = link_recv(&conn, idx)?;
                    let dur_us = trace::now_us().saturating_sub(fwd_us);
                    metrics::latency_forward().observe(dur_us);
                    if let Some(ctx) = ctx.filter(|c| c.recorded()) {
                        trace::collector().record(SpanRecord {
                            trace_id: ctx.trace_id,
                            span_id: ctx.child_span(0x0517_8073_7265_7221),
                            parent: ctx.span_id,
                            name: "router.forward".into(),
                            start_us: fwd_us,
                            dur_us,
                            flags: ctx.flags,
                            shard: idx as i32,
                        });
                    }
                    metrics::bytes_out().add(frame.len() as u64);
                    writer.write_all(&frame)?;
                }
                Owed::Broadcast { targets, fmt, kind, fwd_us } => {
                    let mut replies = Vec::with_capacity(targets.len());
                    for &idx in &targets {
                        let frame = link_recv(&conn, idx)?;
                        replies.push(wire::decode_response(&frame[4..]).unwrap_or_else(|e| {
                            Response::Error { message: format!("undecodable shard answer: {e:?}") }
                        }));
                    }
                    // Fan-out latency: forward until the *slowest* shard's
                    // answer is in hand (merge cost excluded).
                    metrics::latency_broadcast().observe(trace::now_us().saturating_sub(fwd_us));
                    let resp = match kind {
                        BroadcastKind::Plain => merge::merge_responses(replies),
                        BroadcastKind::Traces { slowest, trace_id, id_ok, path } => {
                            if id_ok {
                                replies.push(router_traces_reply(trace_id, path.as_deref()));
                            }
                            merge::merge_trace_responses(replies, slowest)
                        }
                        BroadcastKind::Metrics => merge_metrics(replies, &targets, &shared),
                    };
                    let mut buf = Vec::new();
                    wire::encode_response_frame(&mut buf, &resp, fmt)?;
                    metrics::bytes_out().add(buf.len() as u64);
                    writer.write_all(&buf)?;
                }
            }
            writer.flush()
        })();
        if let Err(e) = result {
            metrics::conn_errors().inc();
            geosocial_obs::debug!("router", "connection failed: {e}");
            conn.closing.store(true, Ordering::SeqCst);
            let _ = client.shutdown(Shutdown::Both); // unblock the forwarder
            return;
        }
    }
}

/// Service one client connection end to end.
fn handle_client(stream: TcpStream, shared: Arc<Shared>, self_addr: SocketAddr) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(shared.config.read_timeout)?;
    stream.set_write_timeout(shared.config.write_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let conn = Arc::new(ConnCtl::new());
    let (owed_tx, owed_rx) = mpsc::channel::<Owed>();
    let responder = std::thread::Builder::new().name("geosocial-router-resp".into()).spawn({
        let (conn, shared) = (Arc::clone(&conn), Arc::clone(&shared));
        let client = stream.try_clone()?;
        move || respond_loop(client, conn, shared, owed_rx)
    })?;

    let result = forward_loop(&mut reader, &conn, &shared, &owed_tx, self_addr);

    // Teardown: let the responder drain what is already owed, then stop
    // the link threads (socket shutdown unblocks parked reads).
    drop(owed_tx);
    let _ = responder.join();
    conn.closing.store(true, Ordering::SeqCst);
    {
        let links = conn.links.lock().expect("links lock");
        for link in links.values() {
            let state = link.state.lock().expect("link lock");
            if let Some(s) = state.stream.as_ref() {
                let _ = s.shutdown(Shutdown::Both);
            }
            link.cv.notify_all();
        }
    }
    let threads = std::mem::take(&mut *conn.threads.lock().expect("threads lock"));
    for handle in threads {
        let _ = handle.join();
    }
    result
}

/// A running router bound to a local address.
pub struct RouterHandle {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl RouterHandle {
    /// The address the router accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the router to stop (a client must send `Shutdown`).
    pub fn join(self) -> io::Result<()> {
        self.thread.join().map_err(|_| io::Error::other("router thread panicked"))?
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and route in a background thread.
pub fn spawn(config: RouterConfig, addr: &str) -> io::Result<RouterHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let thread = std::thread::Builder::new()
        .name("geosocial-router".into())
        .spawn(move || run_with(listener, config))?;
    Ok(RouterHandle { addr: local, thread })
}

/// Sample every live link's queue depth (inbox + written-but-unanswered)
/// into per-shard gauges `router.link.depth.<entry>` plus a
/// `router.link.depth.total` aggregate. Called from the 1 Hz history
/// ticker so the depths land in the `MetricsHistory` ring alongside the
/// frame counters. Entries without any live link read zero — a gauge
/// must not freeze at its last value when the links drain away.
fn record_link_depths(shared: &Shared) {
    let entries = shared.map.read().expect("map lock").entries().len();
    let mut depths = vec![0i64; entries];
    {
        let registry = shared.links.lock().expect("registry lock");
        for weak in registry.iter() {
            let Some(link) = weak.upgrade() else { continue };
            let state = link.state.lock().expect("link lock");
            let depth = (state.inbox.len() + state.unacked.len()) as i64;
            if let Some(d) = depths.get_mut(link.idx) {
                *d += depth;
            }
        }
    }
    let mut total = 0i64;
    for (idx, depth) in depths.iter().enumerate() {
        total += depth;
        geosocial_obs::gauge(&format!("router.link.depth.{idx}")).set(*depth);
    }
    geosocial_obs::gauge("router.link.depth.total").set(total);
}

/// Route on an already-bound listener until a client requests
/// `Shutdown` (which also stops every live shard process).
pub fn run_with(listener: TcpListener, config: RouterConfig) -> io::Result<()> {
    if config.shards.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "router needs at least one shard"));
    }
    let self_addr = listener.local_addr()?;
    let map = ShardMap::new(&config.shards);
    geosocial_obs::info!("router", "routing";
        addr = self_addr.to_string(), shards = config.shards.len() as u64);
    let shared = Arc::new(Shared {
        config,
        map: RwLock::new(map),
        shutdown: AtomicBool::new(false),
        links: Mutex::new(Vec::new()),
    });
    let slots = Arc::new(ConnSlots::new(shared.config.max_connections, "router.connections"));

    // Same 1 Hz metrics-history ticker as the shard server, so
    // `MetricsHistory` through the router answers with router rates. The
    // link queue depths are sampled right before each capture, landing
    // the gauges in the same ring row as the frame-rate counters.
    let tick_stop = Arc::new(AtomicBool::new(false));
    record_link_depths(&shared);
    geosocial_obs::history_tick();
    let ticker = {
        let stop = Arc::clone(&tick_stop);
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("geosocial-router-history".into())
            .spawn(move || {
                let tick = Duration::from_millis(100);
                let mut elapsed = Duration::ZERO;
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    elapsed += tick;
                    if elapsed >= Duration::from_secs(1) {
                        elapsed = Duration::ZERO;
                        record_link_depths(&shared);
                        geosocial_obs::history_tick();
                    }
                }
            })
            .expect("spawn history thread")
    };

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if !slots.acquire(&shared.shutdown) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) => {
                slots.release();
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                geosocial_obs::warn!("router", "accept failed: {e}");
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            slots.release();
            break;
        }
        let shared = Arc::clone(&shared);
        let guard = SlotGuard(Arc::clone(&slots));
        let spawned =
            std::thread::Builder::new().name("geosocial-router-conn".into()).spawn(move || {
                let _guard = guard;
                if let Err(e) = handle_client(stream, shared, self_addr) {
                    metrics::conn_errors().inc();
                    geosocial_obs::debug!("router", "connection dropped: {e}");
                }
            });
        if spawned.is_err() {
            geosocial_obs::warn!("router", "could not spawn a connection handler");
        }
    }
    drop(listener);
    tick_stop.store(true, Ordering::SeqCst);
    let _ = ticker.join();
    slots.wait_idle();
    geosocial_obs::info!("router", "router stopped"; addr = self_addr.to_string());
    io::stderr().flush().ok();
    Ok(())
}
