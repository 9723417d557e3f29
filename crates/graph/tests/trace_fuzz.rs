//! Seeded mutation fuzzing for workflow-trace import.
//!
//! Each file of the curated corpus under `results/traces/` is mutated
//! with byte flips, truncations, deletions and inserted runs of
//! brackets and quotes (also as the value of an unknown key), then fed to `parse_trace` under both formats.
//! Every outcome must be `Ok` or a structured `Err`, never a panic or
//! a stack overflow; a trace that does parse must also convert to a
//! graph or fail with an error. Seeds are fixed, so a failure replays
//! exactly.

use moldable_graph::json;
use moldable_graph::trace::{parse_json_trace, parse_trace, TraceError, TraceFormat, TraceLimits};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::ModelClass;

const CORPUS: [&str; 4] = [
    "montage-toy.dot",
    "epigenomics-toy.json",
    "ligo-toy.json",
    "cycles-chain.dot",
];

fn corpus(file: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/traces")
        .join(file);
    std::fs::read(path).unwrap()
}

/// A run of structural bytes: usually short and mixed, sometimes
/// `[` nested deep enough to overflow a recursive parser's stack.
fn structural_run(rng: &mut StdRng) -> Vec<u8> {
    const ALPHABET: &[u8] = b"[]{}\"";
    if rng.gen_bool(0.1) {
        return vec![b'['; 100_000];
    }
    let len = rng.gen_range(1usize..200);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// One to three seeded mutations of `bytes`.
fn mutate(rng: &mut StdRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1u32..4) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0u32..5) {
            0 => {
                if let Some(b) = out.get_mut(at) {
                    *b = u8::try_from(rng.next_u64() & 0xFF).expect("byte");
                }
            }
            1 => out.truncate(at),
            2 => {
                let end = rng.gen_range(at..=out.len());
                out.drain(at..end);
            }
            3 => {
                let run = structural_run(rng);
                out.splice(at..at, run);
            }
            _ => {
                // The same run as the value of an unknown key, right
                // after an object opens.
                let opens: Vec<usize> = (0..out.len()).filter(|&i| out[i] == b'{').collect();
                if let Some(&open) = opens.get(rng.gen_range(0..opens.len().max(1))) {
                    let mut key = b"\"fuzz\": ".to_vec();
                    key.extend(structural_run(rng));
                    key.push(b',');
                    out.splice(open + 1..open + 1, key);
                }
            }
        }
    }
    out
}

#[test]
fn mutated_corpus_traces_error_and_never_panic() {
    let limits = TraceLimits::default();
    let mut rng = StdRng::seed_from_u64(0x7ACE_F022);
    let (mut parsed, mut rejected) = (0u32, 0u32);
    for file in CORPUS {
        let original = corpus(file);
        for _ in 0..300 {
            let bytes = mutate(&mut rng, &original);
            let text = String::from_utf8_lossy(&bytes);
            for fmt in [TraceFormat::Dot, TraceFormat::Json] {
                match parse_trace(&text, fmt, &limits) {
                    Ok(trace) => {
                        parsed += 1;
                        let _ = trace.into_graph(ModelClass::Amdahl, 16, 7);
                    }
                    Err(e) => {
                        rejected += 1;
                        assert!(!e.to_string().is_empty(), "{file}: empty error");
                    }
                }
            }
        }
    }
    // The mutations reach both outcomes, so the harness exercises the
    // parsers past their first byte.
    assert!(
        parsed > 0 && rejected > 0,
        "parsed {parsed}, rejected {rejected}"
    );
}

/// Trace import shares the wire grammar: whenever the codec rejects a
/// mutated JSON trace, the importer does too, with a `Parse` error on
/// the line of the codec's offending byte — even when the mutation
/// also broke the schema earlier in the text.
#[test]
fn rejected_json_fails_on_the_codecs_line() {
    let limits = TraceLimits::default();
    let mut rng = StdRng::seed_from_u64(0x7ACE_F023);
    let mut rejected = 0u32;
    for file in CORPUS.iter().filter(|f| f.ends_with(".json")) {
        let original = corpus(file);
        for _ in 0..600 {
            let bytes = mutate(&mut rng, &original);
            let text = String::from_utf8_lossy(&bytes);
            let Err(e) = json::parse(&text) else {
                continue;
            };
            rejected += 1;
            let line = 1 + text.as_bytes()[..e.at]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            match parse_json_trace(&text, &limits) {
                Err(TraceError::Parse { line: got, .. }) if got == line => {}
                other => panic!("{file}: codec says line {line} ({e}), importer {other:?}\n{text}"),
            }
        }
    }
    assert!(rejected > 100, "only {rejected} mutations broke the syntax");
}
