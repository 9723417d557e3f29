//! Boundary pins for the generator size guards.
//!
//! `gen::by_name` rejects any `(shape, size)` whose task count would
//! overflow the `u32` task-id space — *before* construction starts, so
//! the exponential shapes cannot panic on shift overflow or OOM trying.
//! These tests pin the exact edge for every guarded shape: the largest
//! accepted size and the first rejected one. If a generator's task
//! count formula changes, the pins here must move with it — that is
//! the point.

use moldable_graph::gen::{self, SHAPE_NAMES};
use moldable_model::ModelClass;

/// The task-id space: ids are `u32`, so `u32::MAX` tasks at most.
const LIMIT: u128 = u32::MAX as u128;

/// `(shape, largest accepted size, first rejected size)`.
///
/// Derivations, from the closed forms in `estimated_tasks`:
/// * `fork-join`: `3(s+2) ≤ 2^32−1` ⇔ `s ≤ 1431655763`;
/// * `in-/out-tree`: `2^(s+1)−1 ≤ 2^32−1` ⇔ `s ≤ 31`;
/// * `layered`/`wavefront`: `s² ≤ 2^32−1` ⇔ `s ≤ 65535`;
/// * `fft`: `(s+1)·2^s` — `28·2^27 ≈ 3.8e9` fits, `29·2^28 ≈ 7.8e9`
///   does not;
/// * `lu` ≈ `s³/3` and `cholesky` ≈ `s³/6` cross `2^32` near 2343 and
///   2952 respectively (exact values from the integer formulas).
const EDGES: &[(&str, u32, u32)] = &[
    ("fork-join", 1_431_655_763, 1_431_655_764),
    ("in-tree", 31, 32),
    ("out-tree", 31, 32),
    ("layered", 65_535, 65_536),
    ("wavefront", 65_535, 65_536),
    ("fft", 27, 28),
    ("lu", 2_343, 2_344),
    ("cholesky", 2_952, 2_953),
];

#[test]
fn every_guarded_shape_pins_its_exact_overflow_edge() {
    for &(shape, accepted, rejected) in EDGES {
        assert_eq!(rejected, accepted + 1, "{shape}: edge sizes not adjacent");
        let below = gen::estimated_tasks(shape, accepted).unwrap();
        assert!(
            below <= LIMIT,
            "{shape} size {accepted}: {below} tasks should fit the id space"
        );
        let above = gen::estimated_tasks(shape, rejected).unwrap();
        assert!(
            above > LIMIT,
            "{shape} size {rejected}: {above} tasks should overflow the id space"
        );
    }
}

#[test]
fn by_name_refuses_the_first_rejected_size_without_constructing() {
    // `by_name` must fail fast — these calls return in microseconds
    // because the guard fires before any allocation. A structured
    // message, not a panic.
    for &(shape, _, rejected) in EDGES {
        let e = gen::by_name(shape, rejected, ModelClass::Amdahl, 16, 7).unwrap_err();
        assert!(
            e.contains("task-id space") && e.contains(shape),
            "{shape} size {rejected}: unexpected error `{e}`"
        );
    }
}

#[test]
fn linear_shapes_are_never_rejected_for_size() {
    // `chain`, `independent`, and `random` have exactly `size` tasks,
    // so every representable size fits the id space by construction.
    for shape in ["chain", "independent", "random"] {
        assert_eq!(
            gen::estimated_tasks(shape, u32::MAX).unwrap(),
            LIMIT,
            "{shape}"
        );
    }
}

#[test]
fn size_zero_is_rejected_for_every_shape() {
    for shape in SHAPE_NAMES {
        let e = gen::by_name(shape, 0, ModelClass::Amdahl, 16, 7).unwrap_err();
        assert!(e.contains("size >= 1"), "{shape}: {e}");
    }
}

#[test]
fn estimates_grow_monotonically_in_size() {
    // The guard's correctness argument assumes the count never shrinks
    // as `size` grows — otherwise a rejected size could hide an
    // accepted larger one.
    for shape in SHAPE_NAMES {
        let mut prev = gen::estimated_tasks(shape, 1).unwrap();
        for size in 2..200u32 {
            let here = gen::estimated_tasks(shape, size).unwrap();
            assert!(here >= prev, "{shape}: count shrank at size {size}");
            prev = here;
        }
    }
}

#[test]
fn accepted_boundary_shapes_still_construct_near_the_edge() {
    // Building the full edge-size graphs is too expensive for a test,
    // but the guard must not reject anything it shouldn't: spot-check
    // real construction a comfortable distance inside each edge.
    for (shape, size) in [
        ("in-tree", 12u32),
        ("fft", 10),
        ("lu", 40),
        ("cholesky", 40),
    ] {
        let g = gen::by_name(shape, size, ModelClass::Amdahl, 16, 7).unwrap();
        assert_eq!(
            u128::from(g.n_tasks() as u64),
            gen::estimated_tasks(shape, size).unwrap(),
            "{shape} size {size}"
        );
    }
}

/// The largest size per shape that CI builds in full (seconds, not
/// minutes): big enough that offset arithmetic, prefix sums, and the
/// `u32` CSR layout are exercised well past toy sizes.
const FREEZE_SANITY_SIZES: &[(&str, u32)] = &[
    ("chain", 5_000),
    ("independent", 5_000),
    ("fork-join", 1_000),
    ("in-tree", 13),
    ("out-tree", 13),
    ("layered", 64),
    ("wavefront", 64),
    ("random", 2_000),
    ("fft", 10),
    ("lu", 40),
    ("cholesky", 40),
];

#[test]
fn frozen_generator_graphs_match_a_checked_rebuild() {
    // The generators all construct through the trusted
    // `add_edge_topo` fast path (no cycle check, no duplicate
    // detection in release builds). This pins the fast path to the
    // checked builder: rebuild every frozen graph edge-by-edge through
    // the *checked* API and demand the same invariant summary —
    // identical edge count (so no edge was dropped or doubled),
    // identical depth (so no edge was redirected), identical joined
    // model class, and identical source list.
    for &(shape, size) in FREEZE_SANITY_SIZES {
        let g = gen::by_name(shape, size, ModelClass::Amdahl, 64, 11).unwrap();
        let mut checked = moldable_graph::GraphBuilder::with_capacity(g.n_tasks());
        for t in g.task_ids() {
            checked.add_task(g.model(t).clone());
        }
        for t in g.task_ids() {
            for &s in g.succs(t) {
                checked.add_edge(t, s).unwrap_or_else(|e| {
                    panic!("{shape}/{size}: frozen edge {t}->{s} rejected: {e}")
                });
            }
        }
        assert_eq!(checked.n_edges(), g.n_edges(), "{shape}/{size}: edge count");
        let checked = checked.freeze();
        assert_eq!(checked.depth(), g.depth(), "{shape}/{size}: depth");
        assert_eq!(
            checked.model_class(),
            g.model_class(),
            "{shape}/{size}: model class"
        );
        assert_eq!(
            checked.sources(),
            g.sources(),
            "{shape}/{size}: source list"
        );
    }
}

#[test]
fn precomputed_sources_match_the_legacy_scan_on_every_shape() {
    // A run's time-0 release is the source list computed once at
    // freeze; the legacy behaviour was an O(n) empty-preds scan per
    // run. Equivalence on every generator shape (plus the degenerate
    // empty graph) keeps the precomputation honest.
    for &(shape, size) in FREEZE_SANITY_SIZES {
        let g = gen::by_name(shape, size, ModelClass::Roofline, 32, 5).unwrap();
        let scanned: Vec<_> = g.task_ids().filter(|&t| g.preds(t).is_empty()).collect();
        assert_eq!(g.sources(), scanned, "{shape}/{size}");
    }
    let empty = moldable_graph::TaskGraph::empty();
    assert!(empty.sources().is_empty());
}
