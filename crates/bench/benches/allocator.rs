//! Benches for Algorithm 2: allocation cost per model family and
//! platform size (the per-task online overhead of the scheduler).
//!
//! Runs on the in-tree `moldable_bench::timing` harness (plain
//! `Instant` timing) so the target builds with no network access.

use moldable_bench::timing::bench;
use moldable_core::{allocate, allocate_linear_reference};
use moldable_model::{ModelClass, SpeedupModel};
use std::hint::black_box;

fn models_for(p_total: u32) -> Vec<(&'static str, SpeedupModel)> {
    let p = f64::from(p_total);
    vec![
        (
            "roofline",
            SpeedupModel::roofline(4.0 * p, p_total / 2 + 1).unwrap(),
        ),
        (
            "communication",
            SpeedupModel::communication(4.0 * p, 0.01).unwrap(),
        ),
        ("amdahl", SpeedupModel::amdahl(4.0 * p, 1.0).unwrap()),
        (
            "general",
            SpeedupModel::general(4.0 * p, p_total, 1.0, 0.01).unwrap(),
        ),
    ]
}

fn bench_allocate() {
    for p_total in [64u32, 1024, 65_536] {
        for (name, model) in models_for(p_total) {
            let mu = ModelClass::General.optimal_mu();
            bench("allocate", &format!("{name}/{p_total}"), || {
                allocate(black_box(&model), black_box(p_total), mu)
            });
        }
    }
}

fn bench_allocate_linear_vs_closed_form() {
    let p_total = 4096;
    let m = SpeedupModel::amdahl(f64::from(p_total) * 4.0, 1.0).unwrap();
    let mu = ModelClass::Amdahl.optimal_mu();
    bench("allocate_linear_vs_closed_form", "closed_form", || {
        allocate(black_box(&m), p_total, mu)
    });
    bench("allocate_linear_vs_closed_form", "linear_reference", || {
        allocate_linear_reference(black_box(&m), p_total, mu)
    });
}

fn main() {
    bench_allocate();
    bench_allocate_linear_vs_closed_form();
}
