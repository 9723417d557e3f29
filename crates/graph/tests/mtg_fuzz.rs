//! Seeded mutation fuzzing for the `.mtg` workflow format.
//!
//! Generated graphs of every model class are written with
//! `to_workflow`, then mutated with byte flips, truncations, deletions
//! and inserted `task`, `edge`, `p` and model tokens, and fed to
//! `parse_workflow`. Every outcome must be `Ok` or a `WorkflowError`,
//! never a panic; a graph that does parse must round-trip: writing it
//! with `to_workflow` and re-parsing gives the same platform hint,
//! edges and execution times, bit for bit. Seeds are fixed, so a
//! failure replays exactly.

use moldable_graph::{gen, parse_workflow};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::ModelClass;

const CLASSES: [ModelClass; 5] = [
    ModelClass::Roofline,
    ModelClass::Communication,
    ModelClass::Amdahl,
    ModelClass::General,
    ModelClass::Arbitrary,
];

const SHAPES: [(&str, u32); 4] = [("chain", 6), ("fork-join", 3), ("random", 8), ("lu", 2)];

/// Model specs, valid and not: what a hand-edited file might hold.
const MODELS: [&str; 10] = [
    "amdahl(w=3, d=1)",
    "roofline(w=2, pbar=4)",
    "roofline(w=2, pbar=0)",
    "comm(w=-1, c=2)",
    "general(w=8, pbar=4, d=1, c=0.25)",
    "table(4, 2, 1.5)",
    "table()",
    "amdahl(w=1e308, d=1e308)",
    "amdahl(w=nan)",
    "formula(",
];

/// One inserted line: a `task`, `edge` or `p` directive with random
/// operands, or a bare model spec.
fn token(rng: &mut StdRng, n_tasks: u32) -> String {
    let id = |rng: &mut StdRng| rng.gen_range(0..n_tasks + 2);
    let model = MODELS[rng.gen_range(0..MODELS.len())];
    match rng.gen_range(0u32..5) {
        0 => format!("task {} {model}", id(rng)),
        1 => format!("task {n_tasks} {model}"),
        2 => format!("edge {} {}", id(rng), id(rng)),
        3 => format!("p {}", rng.gen_range(0u32..3)),
        _ => model.to_string(),
    }
}

/// One to three seeded mutations of `text`.
fn mutate(rng: &mut StdRng, text: &str, n_tasks: u32) -> String {
    let mut out = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1u32..4) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0u32..4) {
            0 => {
                if let Some(b) = out.get_mut(at) {
                    *b = u8::try_from(rng.next_u64() & 0xFF).expect("byte");
                }
            }
            1 => out.truncate(at),
            2 => {
                let end = rng.gen_range(at..=out.len()).min(at + 16);
                out.drain(at..end);
            }
            _ => {
                // A whole line, inserted at a line start.
                let line = out[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                let mut tok = token(rng, n_tasks).into_bytes();
                tok.push(b'\n');
                out.splice(line..line, tok);
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn mutated_workflows_error_or_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x0317_F022);
    let (mut parsed, mut rejected) = (0u32, 0u32);
    for class in CLASSES {
        for (shape, size) in SHAPES {
            let g = gen::by_name(shape, size, class, 16, 5).unwrap();
            let n_tasks = u32::try_from(g.n_tasks()).unwrap();
            let original = g.to_workflow(Some(16));
            for _ in 0..100 {
                let text = mutate(&mut rng, &original, n_tasks);
                match parse_workflow(&text) {
                    Ok((g, p)) => {
                        parsed += 1;
                        let written = g.to_workflow(p);
                        let (again, p_again) = parse_workflow(&written).unwrap_or_else(|e| {
                            panic!("{shape}/{class:?}: written text fails: {e}\n{written}")
                        });
                        assert_eq!(p_again, p, "{shape}/{class:?}: platform hint");
                        assert_eq!(again.n_tasks(), g.n_tasks(), "{shape}/{class:?}");
                        for t in g.task_ids() {
                            assert_eq!(again.succs(t), g.succs(t), "{shape}/{class:?}: {t}");
                            for q in [1, 2, 3, 7, 16, 64] {
                                let (a, b) = (again.model(t).time(q), g.model(t).time(q));
                                assert!(
                                    a.to_bits() == b.to_bits(),
                                    "{shape}/{class:?}: {t} on {q} procs: {a} != {b}\n{written}"
                                );
                            }
                        }
                    }
                    Err(e) => {
                        rejected += 1;
                        assert!(!e.to_string().is_empty(), "{shape}/{class:?}: empty error");
                    }
                }
            }
        }
    }
    // The mutations reach both outcomes, so the harness exercises the
    // parser past its first line.
    assert!(
        parsed > 100 && rejected > 100,
        "parsed {parsed}, rejected {rejected}"
    );
}
