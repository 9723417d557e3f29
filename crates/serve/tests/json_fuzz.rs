//! Generative fuzzing for the hand-rolled JSON codec and the frame
//! protocol.
//!
//! Three properties, all seeded so failures replay exactly:
//!
//! * arbitrary PRNG-generated documents round-trip through
//!   `encode` → `parse` bit-for-bit;
//! * random and mutated byte frames pushed through the framing codec
//!   and the request parser produce `Err`, never a panic;
//! * the event loop's batch splitter (`proto::split_batch_items`)
//!   agrees with the full request parser on every frame both accept.

use std::io::Cursor;

use moldable_model::rng::{Rng, StdRng};
use moldable_serve::json::{self, Json};
use moldable_serve::proto::{self, GraphSpec, Request, SubmitRequest};

/// An arbitrary JSON value with nesting bounded by `depth`.
fn arbitrary_json(rng: &mut StdRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4u32 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => arbitrary_number(rng),
        3 => Json::Str(arbitrary_string(rng)),
        4 => {
            let n = rng.gen_range(0usize..5);
            Json::Arr((0..n).map(|_| arbitrary_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0usize..5);
            Json::Obj(
                (0..n)
                    .map(|_| (arbitrary_string(rng), arbitrary_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// A finite number: small integers, 53-bit integers, and arbitrary
/// finite bit patterns (subnormals, huge magnitudes, negative zero).
fn arbitrary_number(rng: &mut StdRng) -> Json {
    #[allow(clippy::cast_precision_loss)]
    let n = match rng.gen_range(0u32..4) {
        0 => rng.gen_range(-1000.0..1000.0).trunc(),
        1 => (rng.next_u64() >> 11) as f64,
        2 => -((rng.next_u64() >> 11) as f64),
        _ => loop {
            let candidate = f64::from_bits(rng.next_u64());
            if candidate.is_finite() {
                break candidate;
            }
        },
    };
    Json::Num(n)
}

/// A string mixing plain ASCII, escapes, control bytes, and arbitrary
/// Unicode scalar values.
fn arbitrary_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| match rng.gen_range(0u32..5) {
            0 => char::from(u8::try_from(rng.gen_range(0x20u32..0x7f)).expect("ascii")),
            1 => ['"', '\\', '/', '\n', '\r', '\t'][rng.gen_range(0usize..6)],
            2 => char::from(u8::try_from(rng.gen_range(0u32..0x20)).expect("control")),
            _ => loop {
                if let Some(c) = char::from_u32(rng.gen_range(0u32..0x11_0000)) {
                    break c;
                }
            },
        })
        .collect()
}

#[test]
fn arbitrary_documents_round_trip_exactly() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for i in 0..500 {
        let doc = arbitrary_json(&mut rng, 4);
        let text = doc.encode();
        let back = json::parse(&text)
            .unwrap_or_else(|e| panic!("doc {i} failed to re-parse: {e}\n{text}"));
        assert_eq!(back, doc, "doc {i} did not round-trip:\n{text}");
    }
}

#[test]
fn random_byte_frames_error_and_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xBAD5EED);
    for _ in 0..10_000 {
        let len = rng.gen_range(0usize..64);
        let bytes: Vec<u8> = (0..len)
            .map(|_| u8::try_from(rng.next_u64() & 0xFF).expect("byte"))
            .collect();

        // Through the framing codec: random streams must never panic,
        // and any frame they happen to yield must fail request parsing
        // (a random payload cannot spell a well-formed request).
        if let Ok(Some(frame)) =
            proto::read_frame(&mut Cursor::new(&bytes), proto::ABSOLUTE_MAX_FRAME)
        {
            assert!(
                Request::parse(&frame).is_err(),
                "random frame parsed as a request: {bytes:?}"
            );
        }

        // Straight through the text parser too (lossy-decoded): must
        // never panic; `Ok` is possible — "12" is valid JSON — but a
        // well-formed *request* can never materialize from noise.
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text);
        assert!(
            Request::parse(&bytes).is_err(),
            "random bytes parsed as a request: {bytes:?}"
        );
    }
}

#[test]
fn mutated_valid_frames_never_panic_the_codec() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let templates: Vec<Vec<u8>> = vec![
        Request::Ping.encode(),
        Request::Stats.encode(),
        Request::Submit(Box::new(SubmitRequest {
            graph: GraphSpec::Named {
                shape: "cholesky".into(),
                size: 4,
            },
            p: Some(16),
            model: "amdahl".into(),
            seed: 7,
            scheduler: "online".into(),
            algo: "icpp22".into(),
            mu: None,
            policy: Some("fifo".into()),
            include_allocations: true,
        }))
        .encode(),
    ];
    for i in 0..10_000 {
        let payload = &templates[i % templates.len()];
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("payload fits u32")
                .to_be_bytes(),
        );
        frame.extend_from_slice(payload);

        // Flip 1..=8 bytes anywhere in the frame, length prefix
        // included: misframing is exactly what we want to provoke.
        for _ in 0..rng.gen_range(1u32..=8) {
            let at = rng.gen_range(0usize..frame.len());
            let mask = u8::try_from(rng.gen_range(1u64..=255)).expect("mask fits u8");
            frame[at] ^= mask;
        }

        // Must never panic; every outcome (clean frame, short read,
        // oversized, corrupt, or even a still-valid request when the
        // mutation hit a digit) is acceptable.
        if let Ok(Some(inner)) =
            proto::read_frame(&mut Cursor::new(&frame), proto::ABSOLUTE_MAX_FRAME)
        {
            let _ = Request::parse(&inner);
        }
    }
}

#[test]
fn adversarial_documents_error_cleanly() {
    // Deterministic nasties the random generators are unlikely to hit:
    // deep nesting right at and beyond the limit, huge numbers, lone
    // surrogates, truncated escapes at end-of-input.
    let deep_ok = "[".repeat(json::MAX_DEPTH) + &"]".repeat(json::MAX_DEPTH);
    assert!(json::parse(&deep_ok).is_ok());
    let deep_bad = "[".repeat(json::MAX_DEPTH + 2) + &"]".repeat(json::MAX_DEPTH + 2);
    assert!(json::parse(&deep_bad).is_err());

    for bad in [
        "1e99999",
        "\"\\ud800\"",
        "\"\\ud800\\u0020\"",
        "\"\\u",
        "{\"a\":1,\"a\"",
        "[[[[",
        "-",
        "\u{7f}",
    ] {
        let e = json::parse(bad).unwrap_err();
        assert!(e.at <= bad.len(), "{bad:?}: offset {} out of range", e.at);
    }
}

/// Apply 1..=4 random mutations to `frame`: flip a byte, truncate, or
/// insert one of the bytes that steer the splitter's scan.
fn mutate(rng: &mut StdRng, frame: &mut Vec<u8>) {
    const STRUCTURAL: &[u8] = b"[]{}\"\\,";
    for _ in 0..rng.gen_range(1u32..=4) {
        match rng.gen_range(0u32..3) {
            0 if !frame.is_empty() => {
                let at = rng.gen_range(0..frame.len());
                frame[at] ^= u8::try_from(rng.gen_range(1u64..=255)).expect("mask fits u8");
            }
            1 => frame.truncate(rng.gen_range(0..=frame.len())),
            _ => {
                let at = rng.gen_range(0..=frame.len());
                frame.insert(at, STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]);
            }
        }
    }
}

#[test]
fn batch_splitter_agrees_with_the_full_parse() {
    let mut rng = StdRng::seed_from_u64(0x5B17);
    let mut both_accepted = 0u32;
    for case in 0..50_000 {
        let n = rng.gen_range(0usize..5);
        let items: Vec<Vec<u8>> = (0..n)
            .map(|_| arbitrary_json(&mut rng, 3).encode().into_bytes())
            .collect();
        let canonical = Request::Batch(items.clone()).encode();
        assert_eq!(
            proto::split_batch_items(&canonical).as_ref(),
            Some(&items),
            "case {case}: canonical frame did not split item for item"
        );

        let mut frame = canonical;
        mutate(&mut rng, &mut frame);
        // Must never panic, whatever the bytes.
        let split = proto::split_batch_items(&frame);
        let (Some(split), Ok(Request::Batch(parsed))) = (split, Request::parse(&frame)) else {
            continue;
        };
        both_accepted += 1;
        let text = String::from_utf8_lossy(&frame);
        assert_eq!(
            split.len(),
            parsed.len(),
            "case {case}: item count of {text}"
        );
        for (raw, full) in split.iter().zip(&parsed) {
            let item = std::str::from_utf8(raw).expect("split at ASCII bytes of UTF-8");
            let reencoded = json::parse(item)
                .unwrap_or_else(|e| panic!("case {case}: split item {item:?} of {text}: {e}"))
                .encode();
            assert_eq!(
                reencoded.as_bytes(),
                &full[..],
                "case {case}: item of {text}"
            );
        }
    }
    // The mutations keep enough frames valid to exercise the comparison.
    assert!(
        both_accepted > 400,
        "only {both_accepted} frames accepted by both"
    );
}
