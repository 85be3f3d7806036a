//! Wire-decoder robustness properties: the length-prefixed framing (JSON
//! and binary payloads alike) must survive truncated, oversized, and
//! corrupted input by *erroring cleanly* — never panicking, never
//! returning a phantom message, and never reading past the frame the
//! prefix promised. The binary codec additionally roundtrips bit-exactly:
//! the served-vs-batch equivalence proof rides on that.

use geosocial_obs::trace::TraceContext;
use geosocial_serve::protocol::{read_msg, write_msg, Request, Response, WireFix, MAX_FRAME_BYTES};
use geosocial_serve::wire::{self, WireFormat, MAX_RUN_LEN};
use proptest::prelude::*;
use std::io::Cursor;

/// Encode one frame the way the client does.
fn frame(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_msg(&mut buf, req).expect("encode");
    buf
}

/// A random-but-valid request to mutate. Latitudes are `x / 2`, so an `x`
/// in ±180° yields a valid position.
fn request_for(pick: u8, user: u32, seq: u64, t: i64, x: f64) -> Request {
    match pick % 5 {
        0 => Request::Gps { user, seq, t, lat: x / 2.0, lon: -x },
        1 => Request::Checkin { user, seq, t, poi: user.wrapping_add(7), lat: x / 2.0, lon: x },
        2 => Request::Hello { origin_lat: x / 2.0, origin_lon: -x },
        3 => Request::GpsRun {
            user,
            first_seq: seq,
            fixes: (0..(user % 7) as i64)
                .map(|i| WireFix { t: t + 60 * i, lat: x / 2.0, lon: -x + 1e-4 * i as f64 })
                .collect(),
        },
        _ => Request::Drain { finalize: seq.is_multiple_of(2) },
    }
}

/// Requests that are equal field-for-field with floats compared by their
/// IEEE-754 bits — the equivalence the codec must preserve (a `==` on NaN
/// or -0.0 would be both too weak and too strong).
fn bit_identical(a: &Request, b: &Request) -> bool {
    let canon = |req: &Request| {
        let mut buf = Vec::new();
        wire::encode_request_payload(&mut buf, req);
        buf
    };
    canon(a) == canon(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of a valid frame decodes to "no message yet"
    /// (clean EOF at the boundary) or an error — never a message.
    #[test]
    fn truncated_frames_never_yield_a_message(
        pick in 0u8..=255,
        user in 0u32..1_000,
        seq in 0u64..1_000,
        t in -1_000_000i64..1_000_000,
        x in -180.0f64..180.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = frame(&request_for(pick, user, seq, t, x));
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let mut cursor = Cursor::new(&bytes[..cut]);
        if let Ok(Some(msg)) = read_msg::<Request, _>(&mut cursor) { prop_assert!(false, "truncated frame decoded to {msg:?}") }
    }

    /// A length prefix past the frame cap is rejected before a single
    /// payload byte is read — a corrupt prefix must not drive allocation
    /// or consume the stream.
    #[test]
    fn oversized_prefix_is_rejected_without_overread(
        extra in 1u32..u32::MAX - MAX_FRAME_BYTES,
        garbage in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let mut bytes = (MAX_FRAME_BYTES + extra).to_be_bytes().to_vec();
        bytes.extend_from_slice(&garbage);
        let mut cursor = Cursor::new(bytes.as_slice());
        let res = read_msg::<Request, _>(&mut cursor);
        prop_assert!(res.is_err(), "oversized prefix accepted");
        prop_assert_eq!(cursor.position(), 4, "decoder read payload bytes past a bad prefix");
    }

    /// Flipping any payload byte never panics the decoder and never makes
    /// it read beyond the framed payload.
    #[test]
    fn corrupted_payloads_fail_cleanly_and_stay_in_frame(
        pick in 0u8..=255,
        user in 0u32..1_000,
        seq in 0u64..1_000,
        t in -1_000_000i64..1_000_000,
        x in -180.0f64..180.0,
        at_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = frame(&request_for(pick, user, seq, t, x));
        let len = bytes.len();
        // Corrupt one payload byte (never the prefix — that case is the
        // oversized-prefix property's job).
        let at = 4 + ((len - 5) as f64 * at_frac) as usize;
        bytes[at] ^= flip;
        // Trailing sentinel bytes: still there afterwards iff the decoder
        // stayed inside the frame.
        bytes.extend_from_slice(&[0xAA; 8]);
        let mut cursor = Cursor::new(bytes.as_slice());
        let _ = read_msg::<Request, _>(&mut cursor); // must not panic
        prop_assert!(
            cursor.position() as usize <= len,
            "decoder read {} bytes past the {}-byte frame",
            cursor.position() as usize - len,
            len,
        );
    }

    /// Arbitrary (well-framed) garbage payloads error cleanly, consuming
    /// exactly the frame.
    #[test]
    fn garbage_payloads_error_cleanly(
        payload in prop::collection::vec(0u8..=255, 1..200),
    ) {
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        let total = bytes.len();
        let mut cursor = Cursor::new(bytes.as_slice());
        match read_msg::<Response, _>(&mut cursor) {
            // Random bytes essentially never spell a valid Response; if
            // they somehow do, that is not a robustness failure.
            Ok(_) | Err(_) => {}
        }
        prop_assert!(cursor.position() as usize <= total);
    }

    // ---------------- binary codec ----------------

    /// Every request survives the binary encode/decode roundtrip with its
    /// floats bit-identical — including delta-encoded `GpsRun` batches,
    /// whose XOR-of-bits coordinate encoding must be exactly lossless.
    #[test]
    fn binary_requests_roundtrip_bit_exact(
        pick in 0u8..=255,
        user in 0u32..=u32::MAX,
        seq in 0u64..=u64::MAX,
        t in i64::MIN..=i64::MAX,
        x_bits in 0u64..=u64::MAX,
    ) {
        // Raw bit patterns cover every float class (subnormal, inf, NaN).
        let req = request_for(pick, user, seq, t, f64::from_bits(x_bits));
        let mut payload = Vec::new();
        wire::encode_request_payload(&mut payload, &req);
        let back = wire::decode_request_binary(&payload);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        prop_assert!(bit_identical(&req, &back.unwrap()), "roundtrip changed the request");
    }

    /// Delta runs over adversarial float patterns (subnormals, infinities,
    /// NaN payloads, sign flips) still roundtrip bit-exactly.
    #[test]
    fn run_deltas_survive_pathological_floats(
        bits in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 2..20),
        first_seq in 0u64..1_000_000,
        t0 in -1_000_000i64..1_000_000,
    ) {
        let fixes: Vec<WireFix> = bits
            .iter()
            .enumerate()
            .map(|(i, &(la, lo))| WireFix {
                t: t0 + 60 * i as i64,
                lat: f64::from_bits(la),
                lon: f64::from_bits(lo),
            })
            .collect();
        let req = Request::GpsRun { user: 7, first_seq, fixes };
        let mut payload = Vec::new();
        wire::encode_request_payload(&mut payload, &req);
        let back = wire::decode_request_binary(&payload);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        prop_assert!(
            bit_identical(&req, &back.unwrap()),
            "pathological floats broke the delta coding"
        );
    }

    /// Arbitrary bytes behind a binary format tag never panic the decoder,
    /// and every failure names an offset inside the payload.
    #[test]
    fn adversarial_binary_bytes_error_cleanly(
        op in 0x80u8..=255,
        tail in prop::collection::vec(0u8..=255, 0..300),
    ) {
        let mut payload = vec![op];
        payload.extend_from_slice(&tail);
        match wire::decode_request_binary(&payload) {
            Ok(_) => {} // random bytes that spell a valid request are fine
            Err(e) => prop_assert!(
                e.offset <= payload.len(),
                "error offset {} outside the {}-byte payload",
                e.offset,
                payload.len(),
            ),
        }
    }

    /// Any strict prefix of a valid binary payload errors — truncation can
    /// never produce a phantom (shorter but valid) message.
    #[test]
    fn truncated_binary_payloads_never_yield_a_message(
        pick in 0u8..=255,
        user in 1u32..1_000,
        seq in 0u64..1_000,
        t in -1_000_000i64..1_000_000,
        x in -180.0f64..180.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let req = request_for(pick, user, seq, t, x);
        let mut payload = Vec::new();
        wire::encode_request_payload(&mut payload, &req);
        let cut = ((payload.len() - 1) as f64 * cut_frac) as usize;
        if let Ok(msg) = wire::decode_request_binary(&payload[..cut]) {
            prop_assert!(false, "truncated binary payload decoded to {msg:?}");
        }
    }

    /// Format-tag confusion: rewriting the first byte across the 0x80
    /// boundary reroutes the frame to the other codec, which must fail
    /// cleanly (or decode something valid) — never panic, never misroute.
    #[test]
    fn format_tag_confusion_fails_cleanly(
        pick in 0u8..=255,
        user in 1u32..1_000,
        seq in 0u64..1_000,
        t in -1_000_000i64..1_000_000,
        x in -180.0f64..180.0,
        fake_tag in 0u8..0x80,
    ) {
        let req = request_for(pick, user, seq, t, x);

        // A binary payload whose opcode is overwritten with a JSON-range
        // byte dispatches to the JSON decoder.
        let mut bin = Vec::new();
        wire::encode_request_payload(&mut bin, &req);
        bin[0] = fake_tag;
        prop_assert_eq!(wire::detect(&bin), WireFormat::Json);
        let _ = wire::decode_request(&bin); // must not panic

        // A JSON payload whose first byte is forced into opcode range
        // dispatches to the binary decoder.
        let mut json_frame = Vec::new();
        wire::encode_request_frame(&mut json_frame, &req, WireFormat::Json).expect("frame");
        let mut json_payload = json_frame[4..].to_vec();
        json_payload[0] |= 0x80;
        prop_assert_eq!(wire::detect(&json_payload), WireFormat::Binary);
        let _ = wire::decode_request(&json_payload); // must not panic
    }

    // ---------------- route peeking ----------------

    /// The router's cheap route peek (opcode + leading varint on the
    /// binary wire, full parse on JSON) agrees with `route_of` on the
    /// decoded request, bare or trace-enveloped, on both wire formats —
    /// the contract `peek_route`'s docs promise.
    #[test]
    fn peek_route_agrees_with_route_of(
        pick in 0u8..=255,
        wide_pick in 0u8..=255,
        user in 0u32..=u32::MAX,
        seq in 0u64..1_000,
        t in -1_000_000i64..1_000_000,
        x in -180.0f64..180.0,
        binary in 0u8..=1,
        traced in 0u8..=1,
        span_id in 0u64..=u64::MAX,
    ) {
        // Cover the broadcast/control families too, not just the ingest
        // requests `request_for` generates.
        let req = match wide_pick % 4 {
            0 => request_for(pick, user, seq, t, x),
            1 => Request::Window { cohort: vec![user], t0: t, t1: t + 60 },
            2 => match pick % 3 {
                0 => Request::Stats,
                1 => Request::Finish,
                _ => Request::Traces { trace_id: None, slowest: seq as usize, path: None },
            },
            _ => match pick % 5 {
                0 => Request::Metrics,
                1 => Request::MetricsHistory { last: seq as usize },
                2 => Request::ShardMap,
                3 => Request::Handoff { shard: seq, addr: "127.0.0.1:7744".into() },
                _ => Request::Shutdown,
            },
        };
        let fmt = if binary == 1 && wire::request_has_binary_form(&req) {
            WireFormat::Binary
        } else {
            WireFormat::Json
        };
        let mut payload = Vec::new();
        if traced == 1 {
            let ctx = TraceContext {
                trace_id: 0xfeed_f00d,
                span_id,
                flags: 0x01,
                start_us: 7,
                attempt: 0,
            };
            wire::encode_traced_payload(&mut payload, &ctx, &req, fmt).expect("encode");
        } else {
            let mut framed = Vec::new();
            wire::encode_request_frame(&mut framed, &req, fmt).expect("frame");
            payload = framed[4..].to_vec();
        }
        let (route, ctx) = wire::peek_route(&payload).expect("peek");
        prop_assert_eq!(route, wire::route_of(&req), "peek disagreed with route_of");
        prop_assert_eq!(ctx.is_some(), traced == 1, "peek lost (or invented) a trace context");
        if let Some(ctx) = ctx {
            prop_assert_eq!(ctx.span_id, span_id);
        }
    }

    // ---------------- trace-context envelope ----------------

    /// The trace envelope roundtrips every context field on both wire
    /// formats, and the wrapped request comes back bit-identical to what
    /// the bare codec would carry.
    #[test]
    fn traced_envelopes_roundtrip_both_formats(
        pick in 0u8..=255,
        user in 0u32..1_000,
        seq in 0u64..1_000,
        t in -1_000_000i64..1_000_000,
        x in -180.0f64..180.0,
        trace_lo in 0u64..=u64::MAX,
        trace_hi in 0u64..=u64::MAX,
        span_id in 0u64..=u64::MAX,
        flags in 0u8..=255,
        start_us in 0u64..=u64::MAX / 2,
        attempt in 0u32..1_000,
        binary in 0u8..=1,
    ) {
        let req = request_for(pick, user, seq, t, x);
        let ctx = TraceContext {
            trace_id: ((trace_hi as u128) << 64) | trace_lo as u128,
            span_id,
            flags,
            start_us,
            attempt,
        };
        let fmt = if binary == 1 { WireFormat::Binary } else { WireFormat::Json };
        let mut payload = Vec::new();
        wire::encode_traced_payload(&mut payload, &ctx, &req, fmt).expect("encode");
        let (back, got_fmt, got_ctx) =
            wire::decode_request_traced(&payload).expect("traced decode");
        prop_assert_eq!(got_fmt, fmt);
        let got = got_ctx.expect("envelope must surface a context");
        prop_assert_eq!(got.trace_id, ctx.trace_id);
        prop_assert_eq!(got.span_id, ctx.span_id);
        prop_assert_eq!(got.flags, ctx.flags);
        prop_assert_eq!(got.start_us, ctx.start_us);
        prop_assert_eq!(got.attempt, ctx.attempt);
        prop_assert!(bit_identical(&req, &back), "envelope changed the inner request");
    }

    /// Back-compat: untagged payloads (what every pre-tracing client
    /// sends) decode exactly as before, with no phantom context.
    #[test]
    fn untagged_payloads_decode_with_no_context(
        pick in 0u8..=255,
        user in 0u32..1_000,
        seq in 0u64..1_000,
        t in -1_000_000i64..1_000_000,
        x in -180.0f64..180.0,
        binary in 0u8..=1,
    ) {
        let req = request_for(pick, user, seq, t, x);
        let fmt = if binary == 1 { WireFormat::Binary } else { WireFormat::Json };
        let mut framed = Vec::new();
        wire::encode_request_frame(&mut framed, &req, fmt).expect("frame");
        let (back, got_fmt, ctx) =
            wire::decode_request_traced(&framed[4..]).expect("bare decode");
        prop_assert_eq!(got_fmt, fmt);
        prop_assert!(ctx.is_none(), "bare payload grew a context: {ctx:?}");
        prop_assert!(bit_identical(&req, &back));
    }

    /// Truncating a traced binary envelope anywhere errors cleanly —
    /// never a panic, never a phantom (request, context) pair.
    #[test]
    fn truncated_traced_envelopes_error_cleanly(
        pick in 0u8..=255,
        user in 0u32..1_000,
        seq in 0u64..1_000,
        t in -1_000_000i64..1_000_000,
        x in -180.0f64..180.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let req = request_for(pick, user, seq, t, x);
        let ctx = TraceContext {
            trace_id: 0xfeed_beef,
            span_id: 42,
            flags: 0x01,
            start_us: 1_000,
            attempt: 1,
        };
        let mut payload = Vec::new();
        wire::encode_traced_payload(&mut payload, &ctx, &req, WireFormat::Binary)
            .expect("encode");
        let cut = ((payload.len() - 1) as f64 * cut_frac) as usize;
        if let Ok(msg) = wire::decode_request_traced(&payload[..cut]) {
            prop_assert!(false, "truncated traced payload decoded to {msg:?}");
        }
    }
}

/// Run-length edges: empty, single-fix, and cap-sized runs all roundtrip;
/// one past the cap is rejected before any allocation happens.
#[test]
fn run_length_edges() {
    for n in [0usize, 1, MAX_RUN_LEN] {
        let fixes: Vec<WireFix> = (0..n as i64)
            .map(|i| WireFix { t: 60 * i, lat: 34.0 + 1e-5 * i as f64, lon: -119.0 })
            .collect();
        let req = Request::GpsRun { user: 3, first_seq: 9, fixes };
        let mut payload = Vec::new();
        wire::encode_request_payload(&mut payload, &req);
        let back = wire::decode_request_binary(&payload)
            .unwrap_or_else(|e| panic!("run of {n} failed to decode: {e}"));
        match back {
            Request::GpsRun { fixes, .. } => assert_eq!(fixes.len(), n),
            other => panic!("run of {n} decoded to {other:?}"),
        }
    }

    // One past the cap: a hand-built header claiming MAX_RUN_LEN + 1 fixes
    // must be rejected at the count field.
    let mut payload = Vec::new();
    wire::encode_request_payload(
        &mut payload,
        &Request::GpsRun { user: 3, first_seq: 9, fixes: Vec::new() },
    );
    // The empty run's encoding ends with count=0; rewrite it.
    assert_eq!(payload.pop(), Some(0));
    let mut count = Vec::new();
    geosocial_store::put_varint(&mut count, MAX_RUN_LEN as u64 + 1);
    payload.extend_from_slice(&count);
    let err = wire::decode_request_binary(&payload).expect_err("over-cap run must be rejected");
    assert!(err.detail.contains("cap"), "got: {err}");
}

/// A run whose timestamps overflow `i64` is malformed: it fails to decode
/// at the offending delta instead of wrapping (release) or panicking
/// (debug).
#[test]
fn run_timestamp_overflow_fails_to_decode() {
    use geosocial_store::{put_f64, put_varint, put_zigzag};
    // An empty run's header, its count=0 rewritten to 2, then the fixes.
    let mut head = Vec::new();
    wire::encode_request_payload(
        &mut head,
        &Request::GpsRun { user: 3, first_seq: 0, fixes: Vec::new() },
    );
    assert_eq!(head.pop(), Some(0));
    put_varint(&mut head, 2);
    put_zigzag(&mut head, i64::MAX - 30);
    put_f64(&mut head, 34.42);
    put_f64(&mut head, -119.86);
    let delta_at = head.len();
    let with_dt = |dt: i64| {
        let mut payload = head.clone();
        put_zigzag(&mut payload, dt);
        put_varint(&mut payload, 0);
        put_varint(&mut payload, 0);
        payload
    };
    let err = wire::decode_request_binary(&with_dt(60)).expect_err("overflowing run decoded");
    assert_eq!(err.offset, delta_at, "got: {err}");
    assert!(err.detail.contains("overflows"), "got: {err}");
    // A representable second timestamp decodes fine.
    assert!(wire::decode_request_binary(&with_dt(-60)).is_ok());
}
