//! Binary wire codec for the `geosocial-serve` protocol.
//!
//! Frames keep the 4-byte big-endian length prefix from
//! [`crate::protocol`]; this module defines what goes inside the frame.
//! The first payload byte is the format tag:
//!
//! ```text
//! +---------------+---------------------------------------------------+
//! | u32 BE length | payload                                           |
//! +---------------+---------------------------------------------------+
//!                  payload[0] < 0x80 -> JSON ('{' = 0x7B, '"' = 0x22)
//!                  payload[0] >= 0x80 -> binary opcode (this module)
//! ```
//!
//! Both formats are first-class on the same port: a connection may switch
//! per frame, and the server answers each request in the format it arrived
//! in (control-plane responses — `Stats`, `Composition`, `Drained`,
//! `Metrics` — always travel as JSON, deliberately: they are rare, big,
//! and worth keeping human-readable; the data-plane responses `Ok`,
//! `Verdicts` and `Error` go binary on a binary request).
//!
//! # Binary layout
//!
//! Scalar fields use three encodings, all byte-oriented (no alignment), all
//! written and read by `geosocial-store`'s [`codec`](geosocial_store::codec)
//! — the same module the event store's segments and snapshots use:
//!
//! * **varint** — LEB128, 7 bits per byte, low group first, at most 10
//!   bytes for a `u64`;
//! * **zigzag** — signed values map to `(n << 1) ^ (n >> 63)` then varint,
//!   so small magnitudes of either sign stay short;
//! * **f64** — the raw IEEE-754 bits, little-endian, 8 bytes. Fixed-point
//!   lat/lon encodings were measured and rejected: any quantization breaks
//!   the byte-identical served-vs-batch equivalence proof this repo is
//!   built around, and the 8-byte cost is recovered by the run delta
//!   encoding below.
//!
//! Requests:
//!
//! ```text
//! 0x81 Hello     lat f64, lon f64
//! 0x82 Gps       user varint, seq varint, t zigzag, lat f64, lon f64
//! 0x83 Checkin   user varint, seq varint, t zigzag, poi varint,
//!                lat f64, lon f64
//! 0x84 User      user varint
//! 0x85 Stats
//! 0x86 Metrics
//! 0x87 Finish
//! 0x88 Drain     finalize u8 (0|1)
//! 0x89 Shutdown
//! 0x8A GpsRun    user varint, first_seq varint, count varint,
//!                first fix: t zigzag, lat f64, lon f64,
//!                then count-1 deltas: dt zigzag,
//!                                     lat_bits^prev varint,
//!                                     lon_bits^prev varint
//! 0x8B AsOf      user varint, t zigzag
//! 0x8C Window    count varint, count user varints, t0 zigzag, t1 zigzag
//! 0x8D Traces    filter u8 (bit0 = trace_id present, bit1 = path
//!                present), [trace_id 16 bytes LE], slowest varint,
//!                [path length varint, UTF-8 bytes]
//! 0x8E MetricsHistory  last varint
//! ```
//!
//! # Trace-context envelope
//!
//! A frame may carry an optional trace context ahead of the request —
//! the end-to-end tracing extension (`geosocial_obs::trace`). On the
//! binary wire this is a distinct **envelope opcode** wrapping the inner
//! request payload, so untagged frames from older clients decode exactly
//! as before:
//!
//! ```text
//! 0x90 Traced    trace_id lo u64 LE, trace_id hi u64 LE,
//!                span_id u64 LE, flags u8, start_us varint,
//!                attempt varint, then the inner request payload
//! ```
//!
//! In JSON the envelope is an object wrapping the request —
//! `{"ctx":{"trace":"<32 hex>","span":...,"flags":...,"start_us":...,
//! "attempt":...},"req":{...}}` — detected by its leading `{"ctx"`
//! bytes; a payload without that prefix parses as a plain request.
//! Responses never carry a context: the client closes its root span by
//! response position (requests and responses are 1:1 and ordered).
//!
//! The run delta encoding exploits the regularity of per-minute GPS
//! sampling: `dt` is a small constant, and consecutive fixes share the
//! sign, exponent and high mantissa bits of their coordinates, so the XOR
//! of their IEEE-754 bit patterns is a *small integer* whose varint is 4–6
//! bytes instead of 8 — lossless by construction (XOR round-trips exactly,
//! unlike any fixed-point quantization). A per-minute fix costs ~11–14
//! bytes on the wire versus ~95 as a single JSON `Gps` frame.
//!
//! Responses:
//!
//! ```text
//! 0xC0 Ok
//! 0xC1 Verdicts  count varint, then per verdict:
//!                user varint, checkin_index varint, t zigzag, kind u8,
//!                visit_index+1 varint (0 = none), distance f64,
//!                dt_s zigzag
//! 0xC2 Error     message length varint, UTF-8 bytes
//! ```
//!
//! Every decode failure is a structured [`CodecError`] carrying the
//! payload byte offset it happened at — a truncated varint, an unknown
//! opcode, or a run length past [`MAX_RUN_LEN`] names the exact spot, so
//! chaos-test failures are diagnosable instead of a generic io error.
//!
//! # Data-plane validation
//!
//! [`decode_request_traced`] (and so [`decode_request`], the server and
//! the router's JSON peek) checks every decoded request once, whichever
//! wire it came on: each position in `Hello`, `Gps`, `GpsRun` and
//! `Checkin` must be finite with |lat| ≤ 90. A violation is a
//! [`CodecError`] naming the field, at the offset of the request that
//! carries it; the server and the router answer it with `Response::Error`
//! (counted in `serve.decode_errors` / `router.decode_errors`) and keep
//! the connection. [`decode_request_binary`] alone stays a lossless codec: it
//! round-trips any bit pattern, and rejects only malformed bytes (a run
//! timestamp that overflows `i64` among them).

use std::io;

use crate::protocol::{Request, Response, WireFix};
use geosocial_obs::trace::{parse_trace_id, trace_hex, TraceContext};
use geosocial_store::{put_bytes, put_f64, put_varint, put_zigzag, CodecError, Reader};
use geosocial_stream::{AuditVerdict, VerdictKind};
use serde::{Deserialize, Serialize};

/// Which payload encoding a frame (or a client) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// UTF-8 JSON payloads — the debug/compat mode, and the default.
    Json,
    /// The compact binary encoding defined by this module.
    Binary,
}

impl WireFormat {
    /// Parse a `--wire` CLI value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "json" => Ok(WireFormat::Json),
            "binary" | "bin" => Ok(WireFormat::Binary),
            other => Err(format!("unknown wire format `{other}` (expected json|binary)")),
        }
    }

    /// Display label, used in reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::Json => "json",
            WireFormat::Binary => "binary",
        }
    }
}

/// Classify a frame payload by its format tag. Empty payloads classify as
/// JSON and fail there with a proper offset-0 error.
pub fn detect(payload: &[u8]) -> WireFormat {
    match payload.first() {
        Some(&b) if b >= 0x80 => WireFormat::Binary,
        _ => WireFormat::Json,
    }
}

/// Longest [`Request::GpsRun`] batch a frame may carry. Caps what a
/// corrupt or adversarial count field can make the decoder allocate, and
/// bounds per-frame shard-worker occupancy.
pub const MAX_RUN_LEN: usize = 4096;

// Request opcodes (>= 0x80 so no JSON payload can collide).
const OP_HELLO: u8 = 0x81;
const OP_GPS: u8 = 0x82;
const OP_CHECKIN: u8 = 0x83;
const OP_USER: u8 = 0x84;
const OP_STATS: u8 = 0x85;
const OP_METRICS: u8 = 0x86;
const OP_FINISH: u8 = 0x87;
const OP_DRAIN: u8 = 0x88;
const OP_SHUTDOWN: u8 = 0x89;
const OP_GPS_RUN: u8 = 0x8A;
const OP_AS_OF: u8 = 0x8B;
const OP_WINDOW: u8 = 0x8C;
const OP_TRACES: u8 = 0x8D;
const OP_METRICS_HISTORY: u8 = 0x8E;

/// Trace-context envelope: ctx fields, then the inner request payload.
const OP_TRACED: u8 = 0x90;

// Response opcodes.
const OP_OK: u8 = 0xC0;
const OP_VERDICTS: u8 = 0xC1;
const OP_ERROR: u8 = 0xC2;

/// A decode failure at payload offset `at`.
fn fail<T>(at: usize, detail: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError { offset: at, detail: detail.into() })
}

/// The trace-context fields of an [`OP_TRACED`] envelope, read after its
/// opcode.
fn read_trace_ctx(r: &mut Reader<'_>) -> Result<TraceContext, CodecError> {
    let lo = r.u64_le()?;
    let hi = r.u64_le()?;
    Ok(TraceContext {
        trace_id: ((hi as u128) << 64) | lo as u128,
        span_id: r.u64_le()?,
        flags: r.byte()?,
        start_us: r.varint()?,
        attempt: r.u32_field("attempt")?,
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Append the binary payload of `req` to `out` (no length prefix).
pub fn encode_request_payload(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Hello { origin_lat, origin_lon } => {
            out.push(OP_HELLO);
            put_f64(out, *origin_lat);
            put_f64(out, *origin_lon);
        }
        Request::Gps { user, seq, t, lat, lon } => {
            out.push(OP_GPS);
            put_varint(out, *user as u64);
            put_varint(out, *seq);
            put_zigzag(out, *t);
            put_f64(out, *lat);
            put_f64(out, *lon);
        }
        Request::GpsRun { user, first_seq, fixes } => {
            out.push(OP_GPS_RUN);
            put_varint(out, *user as u64);
            put_varint(out, *first_seq);
            put_varint(out, fixes.len() as u64);
            let mut prev: Option<&WireFix> = None;
            for fix in fixes {
                match prev {
                    None => {
                        put_zigzag(out, fix.t);
                        put_f64(out, fix.lat);
                        put_f64(out, fix.lon);
                    }
                    Some(p) => {
                        put_zigzag(out, fix.t - p.t);
                        put_varint(out, fix.lat.to_bits() ^ p.lat.to_bits());
                        put_varint(out, fix.lon.to_bits() ^ p.lon.to_bits());
                    }
                }
                prev = Some(fix);
            }
        }
        Request::Checkin { user, seq, t, poi, lat, lon } => {
            out.push(OP_CHECKIN);
            put_varint(out, *user as u64);
            put_varint(out, *seq);
            put_zigzag(out, *t);
            put_varint(out, *poi as u64);
            put_f64(out, *lat);
            put_f64(out, *lon);
        }
        Request::User { user } => {
            out.push(OP_USER);
            put_varint(out, *user as u64);
        }
        Request::AsOf { user, t } => {
            out.push(OP_AS_OF);
            put_varint(out, *user as u64);
            put_zigzag(out, *t);
        }
        Request::Window { cohort, t0, t1 } => {
            out.push(OP_WINDOW);
            put_varint(out, cohort.len() as u64);
            for user in cohort {
                put_varint(out, *user as u64);
            }
            put_zigzag(out, *t0);
            put_zigzag(out, *t1);
        }
        Request::Traces { trace_id, slowest, path } => {
            out.push(OP_TRACES);
            let parsed = trace_id.as_deref().and_then(parse_trace_id);
            let mut filter = 0u8;
            if parsed.is_some() {
                filter |= 1;
            }
            if path.is_some() {
                filter |= 2;
            }
            out.push(filter);
            if let Some(id) = parsed {
                out.extend_from_slice(&(id as u64).to_le_bytes());
                out.extend_from_slice(&((id >> 64) as u64).to_le_bytes());
            }
            put_varint(out, *slowest as u64);
            if let Some(p) = path {
                put_bytes(out, p.as_bytes());
            }
        }
        Request::MetricsHistory { last } => {
            out.push(OP_METRICS_HISTORY);
            put_varint(out, *last as u64);
        }
        Request::Stats => out.push(OP_STATS),
        Request::Metrics => out.push(OP_METRICS),
        Request::Finish => out.push(OP_FINISH),
        Request::Drain { finalize } => {
            out.push(OP_DRAIN);
            out.push(*finalize as u8);
        }
        Request::Shutdown => out.push(OP_SHUTDOWN),
        other @ (Request::ShardMap | Request::Handoff { .. }) => {
            unreachable!("cluster control request {other:?} has no binary form")
        }
    }
}

/// Whether `req` has a binary form. The cluster control plane
/// (`ShardMap`, `Handoff`) deliberately does not: those requests are
/// rare, router-only, and worth keeping human-readable — like the
/// control-plane responses (see [`response_has_binary_form`]).
pub fn request_has_binary_form(req: &Request) -> bool {
    !matches!(req, Request::ShardMap | Request::Handoff { .. })
}

/// What `geosocial-router` needs to know about a request frame to route
/// it. Computed by [`peek_route`] without decoding the request body on
/// the binary path — the router forwards the raw frame bytes verbatim,
/// so a cheap peek is all the routing tier ever decodes per ingest frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePeek {
    /// Route to the shard owning this user (ingest and per-user queries).
    User(u32),
    /// Fan out to every live shard and merge the answers.
    Broadcast,
    /// Answered by the router itself; decode the frame fully to dispatch.
    Control,
}

/// The route class of a decoded request — the JSON peek path, and the
/// single definition tests compare the binary fast path against.
pub fn route_of(req: &Request) -> RoutePeek {
    match req {
        Request::Gps { user, .. }
        | Request::GpsRun { user, .. }
        | Request::Checkin { user, .. }
        | Request::User { user }
        | Request::AsOf { user, .. } => RoutePeek::User(*user),
        Request::Hello { .. }
        | Request::Window { .. }
        | Request::Stats
        | Request::Finish
        | Request::Drain { .. }
        | Request::Traces { .. } => RoutePeek::Broadcast,
        Request::Metrics
        | Request::MetricsHistory { .. }
        | Request::Shutdown
        | Request::ShardMap
        | Request::Handoff { .. } => RoutePeek::Control,
    }
}

/// Peek a request frame's route without decoding its body. On the binary
/// wire this reads the opcode (skipping a trace-context envelope, whose
/// context is returned so the router can attach its own span) and, for
/// user-routed opcodes, the leading user varint — a few bytes regardless
/// of frame size. JSON frames take the full parse; that wire is the
/// debug/compat path. The route classes agree with [`route_of`] by
/// construction (proptested in `tests/protocol_fuzz.rs`).
pub fn peek_route(payload: &[u8]) -> Result<(RoutePeek, Option<TraceContext>), CodecError> {
    match detect(payload) {
        WireFormat::Binary => {
            let mut r = Reader::new(payload);
            let mut ctx = None;
            let mut op = r.byte()?;
            if op == OP_TRACED {
                ctx = Some(read_trace_ctx(&mut r)?);
                op = r.byte()?;
            }
            let route = match op {
                OP_GPS | OP_GPS_RUN | OP_CHECKIN | OP_USER | OP_AS_OF => {
                    RoutePeek::User(r.u32_field("user id")?)
                }
                OP_HELLO | OP_WINDOW | OP_STATS | OP_FINISH | OP_DRAIN | OP_TRACES => {
                    RoutePeek::Broadcast
                }
                OP_METRICS | OP_METRICS_HISTORY | OP_SHUTDOWN => RoutePeek::Control,
                other => return fail(r.pos() - 1, format!("unknown request opcode 0x{other:02X}")),
            };
            Ok((route, ctx))
        }
        WireFormat::Json => {
            let (req, _, ctx) = decode_request_traced(payload)?;
            Ok((route_of(&req), ctx))
        }
    }
}

/// Decode a binary request payload (first byte must be an opcode).
pub fn decode_request_binary(payload: &[u8]) -> Result<Request, CodecError> {
    let mut r = Reader::new(payload);
    let op = r.byte()?;
    let req = match op {
        OP_HELLO => Request::Hello { origin_lat: r.f64()?, origin_lon: r.f64()? },
        OP_GPS => Request::Gps {
            user: r.u32_field("user id")?,
            seq: r.varint()?,
            t: r.zigzag()?,
            lat: r.f64()?,
            lon: r.f64()?,
        },
        OP_GPS_RUN => {
            let user = r.u32_field("user id")?;
            let first_seq = r.varint()?;
            let count = r.varint()?;
            if count > MAX_RUN_LEN as u64 {
                return fail(
                    r.pos(),
                    format!("run length {count} exceeds the {MAX_RUN_LEN}-fix cap"),
                );
            }
            let mut fixes: Vec<WireFix> = Vec::new();
            for i in 0..count {
                let fix = match fixes.last() {
                    None => WireFix { t: r.zigzag()?, lat: r.f64()?, lon: r.f64()? },
                    Some(p) => {
                        let at = r.pos();
                        let dt = r.zigzag()?;
                        let Some(t) = p.t.checked_add(dt) else {
                            return fail(
                                at,
                                format!("run fix {i}: t {} + dt {dt} overflows i64", p.t),
                            );
                        };
                        WireFix {
                            t,
                            lat: f64::from_bits(p.lat.to_bits() ^ r.varint()?),
                            lon: f64::from_bits(p.lon.to_bits() ^ r.varint()?),
                        }
                    }
                };
                fixes.push(fix);
            }
            Request::GpsRun { user, first_seq, fixes }
        }
        OP_CHECKIN => Request::Checkin {
            user: r.u32_field("user id")?,
            seq: r.varint()?,
            t: r.zigzag()?,
            poi: r.u32_field("poi id")?,
            lat: r.f64()?,
            lon: r.f64()?,
        },
        OP_USER => Request::User { user: r.u32_field("user id")? },
        OP_AS_OF => Request::AsOf { user: r.u32_field("user id")?, t: r.zigzag()? },
        OP_WINDOW => {
            let count = r.varint()?;
            // Each cohort member costs at least one payload byte; a count
            // claiming more is corrupt, not big.
            if count > payload.len() as u64 {
                return fail(
                    r.pos(),
                    format!("cohort of {count} users cannot fit a {}-byte payload", payload.len()),
                );
            }
            let mut cohort = Vec::with_capacity(count as usize);
            for _ in 0..count {
                cohort.push(r.u32_field("user id")?);
            }
            Request::Window { cohort, t0: r.zigzag()?, t1: r.zigzag()? }
        }
        OP_TRACES => {
            let filter = r.byte()?;
            if filter > 3 {
                return fail(
                    r.pos() - 1,
                    format!("traces filter flags must be 0..=3, got {filter}"),
                );
            }
            let trace_id = if filter & 1 != 0 {
                let lo = r.u64_le()?;
                let hi = r.u64_le()?;
                Some(trace_hex(((hi as u128) << 64) | lo as u128))
            } else {
                None
            };
            let slowest = r.varint()? as usize;
            let path = if filter & 2 != 0 { Some(utf8(&mut r, "path filter")?) } else { None };
            Request::Traces { trace_id, slowest, path }
        }
        OP_METRICS_HISTORY => Request::MetricsHistory { last: r.varint()? as usize },
        OP_STATS => Request::Stats,
        OP_METRICS => Request::Metrics,
        OP_FINISH => Request::Finish,
        OP_DRAIN => {
            let flag = r.byte()?;
            if flag > 1 {
                return fail(r.pos() - 1, format!("drain finalize flag must be 0|1, got {flag}"));
            }
            Request::Drain { finalize: flag == 1 }
        }
        OP_SHUTDOWN => Request::Shutdown,
        other => return fail(0, format!("unknown request opcode 0x{other:02X}")),
    };
    r.finish()?;
    Ok(req)
}

/// A length-prefixed UTF-8 string (`what` names the field in the error).
fn utf8(r: &mut Reader<'_>, what: &str) -> Result<String, CodecError> {
    let bytes = r.bytes()?;
    match std::str::from_utf8(bytes) {
        Ok(text) => Ok(text.to_string()),
        Err(e) => fail(r.pos() - bytes.len() + e.valid_up_to(), format!("{what} is not UTF-8")),
    }
}

/// The data-plane input rule (see the module docs): every position a
/// request carries is finite with |lat| ≤ 90. `at` is the payload offset
/// of the request, reported with the offending field.
fn validate(req: &Request, at: usize) -> Result<(), CodecError> {
    // `abs() <= 90` is false for NaN and the infinities too.
    let bad = |lat: f64, lon: f64| !(lat.abs() <= 90.0 && lon.is_finite());
    let field = match req {
        Request::Hello { origin_lat, origin_lon } if bad(*origin_lat, *origin_lon) => {
            "Hello origin".to_string()
        }
        Request::Gps { lat, lon, .. } if bad(*lat, *lon) => "Gps".to_string(),
        Request::Checkin { lat, lon, .. } if bad(*lat, *lon) => "Checkin".to_string(),
        Request::GpsRun { fixes, .. } => match fixes.iter().position(|f| bad(f.lat, f.lon)) {
            Some(i) => format!("GpsRun fix {i}"),
            None => return Ok(()),
        },
        _ => return Ok(()),
    };
    fail(at, format!("{field}: position must be finite with |lat| <= 90"))
}

/// Decode a request payload of either format, dispatching on the tag.
/// Traced frames are accepted and their context discarded; the server
/// decodes with [`decode_request_traced`] to keep it.
pub fn decode_request(payload: &[u8]) -> Result<(Request, WireFormat), CodecError> {
    decode_request_traced(payload).map(|(req, wire, _)| (req, wire))
}

/// The JSON spelling of a [`TraceContext`] (trace id as 32 hex digits —
/// JSON has no u128).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JsonTraceCtx {
    trace: String,
    span: u64,
    flags: u8,
    start_us: u64,
    attempt: u32,
}

/// The JSON trace envelope: context first, request second. The encoder
/// hand-builds the object so the payload always starts with `{"ctx"`,
/// which is what [`decode_request_traced`] dispatches on.
#[derive(Debug, Clone, Deserialize)]
struct JsonTraced {
    ctx: JsonTraceCtx,
    req: Request,
}

fn ctx_to_json(ctx: &TraceContext) -> JsonTraceCtx {
    JsonTraceCtx {
        trace: ctx.trace_hex(),
        span: ctx.span_id,
        flags: ctx.flags,
        start_us: ctx.start_us,
        attempt: ctx.attempt,
    }
}

fn ctx_from_json(ctx: &JsonTraceCtx) -> Result<TraceContext, CodecError> {
    let Some(trace_id) = parse_trace_id(&ctx.trace) else {
        return fail(0, format!("trace id `{}` is not 1..=32 hex digits", ctx.trace));
    };
    Ok(TraceContext {
        trace_id,
        span_id: ctx.span,
        flags: ctx.flags,
        start_us: ctx.start_us,
        attempt: ctx.attempt,
    })
}

/// Leading bytes of a JSON trace envelope.
const JSON_CTX_PREFIX: &[u8] = b"{\"ctx\"";

/// Append the payload of `req` wrapped in the trace-context envelope of
/// the given wire format (no length prefix).
pub fn encode_traced_payload(
    out: &mut Vec<u8>,
    ctx: &TraceContext,
    req: &Request,
    wire: WireFormat,
) -> io::Result<()> {
    match wire {
        WireFormat::Binary => {
            out.push(OP_TRACED);
            out.extend_from_slice(&(ctx.trace_id as u64).to_le_bytes());
            out.extend_from_slice(&((ctx.trace_id >> 64) as u64).to_le_bytes());
            out.extend_from_slice(&ctx.span_id.to_le_bytes());
            out.push(ctx.flags);
            put_varint(out, ctx.start_us);
            put_varint(out, ctx.attempt as u64);
            encode_request_payload(out, req);
            Ok(())
        }
        WireFormat::Json => {
            let ctx_json = serde_json::to_string(&ctx_to_json(ctx)).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e:?}"))
            })?;
            let req_json = serde_json::to_string(req).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e:?}"))
            })?;
            out.extend_from_slice(b"{\"ctx\":");
            out.extend_from_slice(ctx_json.as_bytes());
            out.extend_from_slice(b",\"req\":");
            out.extend_from_slice(req_json.as_bytes());
            out.push(b'}');
            Ok(())
        }
    }
}

/// Decode a request payload of either format, keeping the optional
/// trace-context envelope, and validate it (see the module docs).
/// Untagged frames (every pre-tracing client) decode exactly as before
/// with `None` for the context.
pub fn decode_request_traced(
    payload: &[u8],
) -> Result<(Request, WireFormat, Option<TraceContext>), CodecError> {
    match detect(payload) {
        WireFormat::Binary if payload.first() == Some(&OP_TRACED) => {
            let mut r = Reader::new(payload);
            r.byte()?; // OP_TRACED
            let ctx = read_trace_ctx(&mut r)?;
            let inner_at = r.pos();
            if r.remaining() == 0 {
                return fail(inner_at, "trace envelope wraps an empty request");
            }
            let req = decode_request_binary(&payload[inner_at..]).map_err(|mut e| {
                e.offset += inner_at;
                e
            })?;
            validate(&req, inner_at)?;
            Ok((req, WireFormat::Binary, Some(ctx)))
        }
        // The per-fix hot path. Validating inside this one expression
        // matters: decoding into a shared tuple and validating after the
        // match added ~15 ns per single-fix frame (2-vCPU x86-64 host).
        WireFormat::Binary => decode_request_binary(payload)
            .and_then(|r| validate(&r, 0).map(|()| (r, WireFormat::Binary, None))),
        WireFormat::Json if payload.starts_with(JSON_CTX_PREFIX) => {
            let traced: JsonTraced = decode_json(payload)?;
            let ctx = ctx_from_json(&traced.ctx)?;
            validate(&traced.req, 0)?;
            Ok((traced.req, WireFormat::Json, Some(ctx)))
        }
        WireFormat::Json => {
            decode_json(payload).and_then(|r| validate(&r, 0).map(|()| (r, WireFormat::Json, None)))
        }
    }
}

/// Append one complete request frame carrying a trace context. The
/// context rides the envelope of the chosen wire format; see the module
/// docs.
pub fn encode_traced_request_frame(
    out: &mut Vec<u8>,
    ctx: &TraceContext,
    req: &Request,
    wire: WireFormat,
) -> io::Result<()> {
    frame_payload(out, |buf| encode_traced_payload(buf, ctx, req, wire))
}

/// Decode a JSON payload with structured (offset-carrying) errors.
fn decode_json<T: serde::Deserialize>(payload: &[u8]) -> Result<T, CodecError> {
    let text = std::str::from_utf8(payload).map_err(|e| CodecError {
        offset: e.valid_up_to(),
        detail: "payload is not UTF-8".into(),
    })?;
    serde_json::from_str(text).map_err(|e| CodecError {
        // The vendored serde_json reports "... at byte N" in its message;
        // keep the whole message and anchor the structured offset at the
        // payload start (the parser's own offset is inside the text).
        offset: 0,
        detail: format!("JSON: {e}"),
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn verdict_kind_code(kind: VerdictKind) -> u8 {
    match kind {
        VerdictKind::Honest => 0,
        VerdictKind::Superfluous => 1,
        VerdictKind::Remote => 2,
        VerdictKind::Driveby => 3,
        VerdictKind::Unclassified => 4,
    }
}

fn verdict_kind_from(code: u8, at: usize) -> Result<VerdictKind, CodecError> {
    Ok(match code {
        0 => VerdictKind::Honest,
        1 => VerdictKind::Superfluous,
        2 => VerdictKind::Remote,
        3 => VerdictKind::Driveby,
        4 => VerdictKind::Unclassified,
        other => return fail(at, format!("unknown verdict kind {other}")),
    })
}

/// Whether `resp` has a binary form. Control-plane responses (`Stats`,
/// `Composition`, `AsOf`, `Compositions`, `Drained`, `Metrics`)
/// deliberately do not: they stay JSON on every connection.
pub fn response_has_binary_form(resp: &Response) -> bool {
    matches!(resp, Response::Ok | Response::Verdicts { .. } | Response::Error { .. })
}

/// Append the binary payload of a data-plane response. Panics on
/// control-plane responses — gate with [`response_has_binary_form`].
pub fn encode_response_payload(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Ok => out.push(OP_OK),
        Response::Verdicts { verdicts } => {
            out.push(OP_VERDICTS);
            put_varint(out, verdicts.len() as u64);
            for v in verdicts {
                put_varint(out, v.user as u64);
                put_varint(out, v.checkin_index as u64);
                put_zigzag(out, v.t);
                out.push(verdict_kind_code(v.kind));
                put_varint(out, v.visit_index.map_or(0, |i| i as u64 + 1));
                put_f64(out, v.distance_m);
                put_zigzag(out, v.dt_s);
            }
        }
        Response::Error { message } => {
            out.push(OP_ERROR);
            put_bytes(out, message.as_bytes());
        }
        other => unreachable!("control-plane response {other:?} has no binary form"),
    }
}

/// Decode a binary response payload.
pub fn decode_response_binary(payload: &[u8]) -> Result<Response, CodecError> {
    let mut r = Reader::new(payload);
    let op = r.byte()?;
    let resp = match op {
        OP_OK => Response::Ok,
        OP_VERDICTS => {
            let count = r.varint()?;
            // A verdict is at least 14 bytes; anything claiming more than
            // the payload could hold is corrupt, not big.
            let ceiling = payload.len() as u64 / 14 + 1;
            if count > ceiling {
                return fail(
                    r.pos(),
                    format!("verdict count {count} cannot fit a {}-byte payload", payload.len()),
                );
            }
            let mut verdicts = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let user = r.u32_field("user id")?;
                let checkin_index = r.varint()? as usize;
                let t = r.zigzag()?;
                let kind_at = r.pos();
                let kind = verdict_kind_from(r.byte()?, kind_at)?;
                let visit = r.varint()?;
                let visit_index = if visit == 0 { None } else { Some(visit as usize - 1) };
                let distance_m = r.f64()?;
                let dt_s = r.zigzag()?;
                verdicts.push(AuditVerdict {
                    user,
                    checkin_index,
                    t,
                    kind,
                    visit_index,
                    distance_m,
                    dt_s,
                });
            }
            Response::Verdicts { verdicts }
        }
        OP_ERROR => Response::Error { message: utf8(&mut r, "error message")? },
        other => return fail(0, format!("unknown response opcode 0x{other:02X}")),
    };
    r.finish()?;
    Ok(resp)
}

/// Decode a response payload of either format, dispatching on the tag.
pub fn decode_response(payload: &[u8]) -> Result<Response, CodecError> {
    match detect(payload) {
        WireFormat::Binary => decode_response_binary(payload),
        WireFormat::Json => decode_json(payload),
    }
}

// ---------------------------------------------------------------------------
// Whole frames
// ---------------------------------------------------------------------------

/// Append one complete request frame (length prefix + payload) in the
/// given wire format. Appending (instead of writing) lets callers batch
/// frames into one buffer and one syscall.
pub fn encode_request_frame(out: &mut Vec<u8>, req: &Request, wire: WireFormat) -> io::Result<()> {
    match wire {
        WireFormat::Binary if request_has_binary_form(req) => frame_payload(out, |buf| {
            encode_request_payload(buf, req);
            Ok(())
        }),
        _ => frame_json(out, req),
    }
}

/// Append one complete response frame. Binary connections get binary
/// data-plane responses; control-plane responses fall back to JSON.
pub fn encode_response_frame(
    out: &mut Vec<u8>,
    resp: &Response,
    wire: WireFormat,
) -> io::Result<()> {
    if wire == WireFormat::Binary && response_has_binary_form(resp) {
        frame_payload(out, |buf| {
            encode_response_payload(buf, resp);
            Ok(())
        })
    } else {
        frame_json(out, resp)
    }
}

/// Reserve a length prefix, run `fill` to append the payload, then patch
/// the prefix.
fn frame_payload(
    out: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let prefix_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    fill(out)?;
    let payload_len = out.len() - prefix_at - 4;
    let len = u32::try_from(payload_len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    if len > crate::protocol::MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    out[prefix_at..prefix_at + 4].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

fn frame_json<T: serde::Serialize>(out: &mut Vec<u8>, msg: &T) -> io::Result<()> {
    let json = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e:?}")))?;
    frame_payload(out, |buf| {
        buf.extend_from_slice(json.as_bytes());
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: &Request) -> Request {
        let mut payload = Vec::new();
        encode_request_payload(&mut payload, req);
        decode_request_binary(&payload).expect("binary request decodes")
    }

    #[test]
    fn truncated_varint_reports_offset() {
        let e = decode_request_binary(&[OP_USER, 0x80]).expect_err("truncated");
        assert_eq!(e.offset, 1, "offset should point at the varint start: {e}");
        assert!(e.detail.contains("varint"), "got: {e}");
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let mut bytes = vec![OP_USER];
        bytes.extend_from_slice(&[0xFF; 10]);
        bytes.push(0x00);
        let e = decode_request_binary(&bytes).expect_err("overlong varint");
        assert!(e.detail.contains("varint"), "got: {e}");
    }

    #[test]
    fn run_delta_encoding_roundtrips_exactly() {
        let fixes: Vec<WireFix> = (0..40)
            .map(|i| WireFix {
                t: 1_000 + 60 * i as i64,
                lat: 34.42 + 0.0001 * i as f64,
                lon: -119.86 - 0.0002 * i as f64,
            })
            .collect();
        let req = Request::GpsRun { user: 7, first_seq: 42, fixes: fixes.clone() };
        match roundtrip_req(&req) {
            Request::GpsRun { user: 7, first_seq: 42, fixes: got } => {
                assert_eq!(got.len(), fixes.len());
                for (a, b) in got.iter().zip(&fixes) {
                    assert_eq!(a.t, b.t);
                    assert_eq!(a.lat.to_bits(), b.lat.to_bits(), "lat must roundtrip bit-exact");
                    assert_eq!(a.lon.to_bits(), b.lon.to_bits(), "lon must roundtrip bit-exact");
                }
            }
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn run_encoding_is_compact_for_regular_traces() {
        let fixes: Vec<WireFix> = (0..60)
            .map(|i| WireFix {
                t: 60 * i as i64,
                lat: 34.42 + 0.00013 * i as f64,
                lon: -119.86 + 0.00007 * i as f64,
            })
            .collect();
        let mut payload = Vec::new();
        encode_request_payload(&mut payload, &Request::GpsRun { user: 3, first_seq: 0, fixes });
        let per_fix = payload.len() as f64 / 60.0;
        assert!(per_fix < 20.0, "delta encoding should stay under 20 B/fix, got {per_fix:.1}");
    }

    #[test]
    fn asof_and_window_roundtrip_binary() {
        match roundtrip_req(&Request::AsOf { user: 12, t: -7_200 }) {
            Request::AsOf { user: 12, t: -7_200 } => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        let req = Request::Window { cohort: vec![0, 42, u32::MAX - 1], t0: -60, t1: 86_400 };
        match roundtrip_req(&req) {
            Request::Window { cohort, t0: -60, t1: 86_400 } => {
                assert_eq!(cohort, vec![0, 42, u32::MAX - 1]);
            }
            other => panic!("bad roundtrip: {other:?}"),
        }
        // Empty cohorts are legal (they answer with no compositions).
        match roundtrip_req(&Request::Window { cohort: Vec::new(), t0: 0, t1: 0 }) {
            Request::Window { cohort, .. } => assert!(cohort.is_empty()),
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn oversized_window_cohort_is_rejected_before_allocation() {
        let mut bytes = vec![OP_WINDOW];
        put_varint(&mut bytes, u64::MAX); // cohort count
        let e = decode_request_binary(&bytes).expect_err("oversized cohort");
        assert!(e.detail.contains("cohort"), "got: {e}");
    }

    #[test]
    fn oversized_run_length_is_rejected_before_allocation() {
        let mut bytes = vec![OP_GPS_RUN];
        put_varint(&mut bytes, 1); // user
        put_varint(&mut bytes, 0); // first_seq
        put_varint(&mut bytes, u64::MAX); // count
        let e = decode_request_binary(&bytes).expect_err("oversized run");
        assert!(e.detail.contains("cap"), "got: {e}");
    }

    #[test]
    fn responses_roundtrip_binary() {
        let verdicts = vec![
            AuditVerdict {
                user: 9,
                checkin_index: 4,
                t: 777,
                kind: VerdictKind::Honest,
                visit_index: Some(2),
                distance_m: 12.5,
                dt_s: -30,
            },
            AuditVerdict {
                user: 9,
                checkin_index: 5,
                t: 900,
                kind: VerdictKind::Remote,
                visit_index: None,
                distance_m: 0.0,
                dt_s: 0,
            },
        ];
        let mut payload = Vec::new();
        encode_response_payload(&mut payload, &Response::Verdicts { verdicts: verdicts.clone() });
        match decode_response_binary(&payload).expect("decodes") {
            Response::Verdicts { verdicts: got } => assert_eq!(got, verdicts),
            other => panic!("bad roundtrip: {other:?}"),
        }

        let mut payload = Vec::new();
        encode_response_payload(&mut payload, &Response::Error { message: "gap at 7".into() });
        match decode_response_binary(&payload).expect("decodes") {
            Response::Error { message } => assert_eq!(message, "gap at 7"),
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn traces_and_metrics_history_roundtrip_binary() {
        let full = Request::Traces {
            trace_id: Some(trace_hex(0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233u128)),
            slowest: 5,
            path: Some("serve.apply".into()),
        };
        match roundtrip_req(&full) {
            Request::Traces { trace_id, slowest: 5, path } => {
                assert_eq!(
                    trace_id.as_deref(),
                    Some("deadbeef0123456789abcdef00112233"),
                    "trace id must round-trip through its hex spelling"
                );
                assert_eq!(path.as_deref(), Some("serve.apply"));
            }
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip_req(&Request::Traces { trace_id: None, slowest: 0, path: None }) {
            Request::Traces { trace_id: None, slowest: 0, path: None } => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip_req(&Request::MetricsHistory { last: 12 }) {
            Request::MetricsHistory { last: 12 } => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn trace_envelope_roundtrips_on_both_wires() {
        let ctx = TraceContext {
            trace_id: 0x1122_3344_5566_7788_99AA_BBCC_DDEE_FF00u128,
            span_id: 42,
            flags: 0x03,
            start_us: 1_754_000_000_000_000,
            attempt: 2,
        };
        let req = Request::Gps { user: 7, seq: 9, t: 1_234, lat: 34.4, lon: -119.8 };
        for wire in [WireFormat::Binary, WireFormat::Json] {
            let mut frame = Vec::new();
            encode_traced_request_frame(&mut frame, &ctx, &req, wire).expect("frame");
            let (got, fmt, got_ctx) = decode_request_traced(&frame[4..]).expect("decodes");
            assert_eq!(fmt, wire);
            assert_eq!(got_ctx, Some(ctx), "{wire:?} context must survive");
            match got {
                Request::Gps { user: 7, seq: 9, t: 1_234, .. } => {}
                other => panic!("bad inner request on {wire:?}: {other:?}"),
            }
            // The ctx-blind decoder accepts the same frame and drops the
            // context.
            let (_, fmt2) = decode_request(&frame[4..]).expect("ctx-blind decode");
            assert_eq!(fmt2, wire);
        }
    }

    #[test]
    fn untagged_frames_still_decode_without_context() {
        let req = Request::Checkin { user: 3, seq: 0, t: 60, poi: 4, lat: 1.0, lon: 2.0 };
        for wire in [WireFormat::Binary, WireFormat::Json] {
            let mut frame = Vec::new();
            encode_request_frame(&mut frame, &req, wire).expect("frame");
            let (_, _, ctx) = decode_request_traced(&frame[4..]).expect("decodes");
            assert_eq!(ctx, None, "untagged {wire:?} frame must carry no context");
        }
    }

    #[test]
    fn empty_trace_envelope_is_rejected() {
        let ctx = TraceContext { trace_id: 1, span_id: 1, flags: 0, start_us: 0, attempt: 0 };
        let mut payload = vec![OP_TRACED];
        payload.extend_from_slice(&(ctx.trace_id as u64).to_le_bytes());
        payload.extend_from_slice(&((ctx.trace_id >> 64) as u64).to_le_bytes());
        payload.extend_from_slice(&ctx.span_id.to_le_bytes());
        payload.push(ctx.flags);
        put_varint(&mut payload, ctx.start_us);
        put_varint(&mut payload, ctx.attempt as u64);
        let e = decode_request_traced(&payload).expect_err("empty envelope");
        assert!(e.detail.contains("empty request"), "got: {e}");
    }

    #[test]
    fn format_tag_dispatch_accepts_both_formats() {
        let req = Request::User { user: 11 };
        let mut json_frame = Vec::new();
        encode_request_frame(&mut json_frame, &req, WireFormat::Json).expect("json frame");
        let mut bin_frame = Vec::new();
        encode_request_frame(&mut bin_frame, &req, WireFormat::Binary).expect("binary frame");
        let (a, fa) = decode_request(&json_frame[4..]).expect("json decodes");
        let (b, fb) = decode_request(&bin_frame[4..]).expect("binary decodes");
        assert_eq!(fa, WireFormat::Json);
        assert_eq!(fb, WireFormat::Binary);
        assert!(matches!(a, Request::User { user: 11 }));
        assert!(matches!(b, Request::User { user: 11 }));
        assert!(bin_frame.len() < json_frame.len(), "binary must be smaller");
    }

    #[test]
    fn positions_are_validated_after_decode_on_both_wires() {
        let bad = [
            Request::Gps { user: 1, seq: 0, t: 0, lat: 90.5, lon: 0.0 },
            Request::Checkin { user: 1, seq: 0, t: 0, poi: 2, lat: -90.01, lon: 0.0 },
            Request::Hello { origin_lat: 91.0, origin_lon: 0.0 },
        ];
        for req in &bad {
            for wire in [WireFormat::Binary, WireFormat::Json] {
                let mut frame = Vec::new();
                encode_request_frame(&mut frame, req, wire).expect("frame");
                assert!(decode_request(&frame[4..]).is_err(), "{wire:?} accepted {req:?}");
            }
        }
        // Non-finite values only travel on the binary wire; the codec alone
        // still round-trips them, the validated entry points refuse them.
        let fixes = (0..3)
            .map(|i| WireFix { t: 60 * i, lat: if i == 2 { f64::NAN } else { 34.4 }, lon: 0.0 })
            .collect();
        let mut frame = Vec::new();
        let req = Request::GpsRun { user: 1, first_seq: 0, fixes };
        encode_request_frame(&mut frame, &req, WireFormat::Binary).expect("frame");
        assert!(decode_request_binary(&frame[4..]).is_ok());
        let e = decode_request(&frame[4..]).expect_err("NaN fix");
        assert!(e.detail.starts_with("GpsRun fix 2"), "got: {e}");
        let ctx = TraceContext { trace_id: 1, span_id: 1, flags: 0, start_us: 0, attempt: 0 };
        let mut traced = Vec::new();
        encode_traced_payload(&mut traced, &ctx, &req, WireFormat::Binary).expect("encode");
        let e = decode_request_traced(&traced).expect_err("NaN fix under an envelope");
        assert_eq!(e.offset, traced.len() - frame.len() + 4, "offset of the inner request");
    }
}
