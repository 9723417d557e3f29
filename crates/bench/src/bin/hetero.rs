//! Hybrid-platform experiment (extension): moldable task graphs on a
//! CPU+GPU platform, comparing the μ-based hybrid scheduler against
//! greedy ECT and the single-pool baselines, normalized by the
//! fractional hybrid lower bound.
//!
//! ```text
//! cargo run --release -p moldable-bench --bin hetero
//! ```

use moldable_bench::{write_result, Table};
use moldable_hetero::{
    hetero_lower_bound, simulate_hetero, CpuOnly, GpuOnly, HeteroEct, HeteroGraph, HeteroPlatform,
    HeteroTask, MuHetero,
};
use moldable_model::rng::Rng;
use moldable_model::rng::StdRng;
use moldable_model::SpeedupModel;
use moldable_sim::Scheduler;

/// Random layered DAG with per-task pool affinity: a fraction of tasks
/// is `accel`-times faster on the GPU, the rest on the CPU.
fn workload(gpu_fraction: f64, seed: u64) -> HeteroGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = moldable_graph::GraphBuilder::new();
    let layers = 6;
    let width = 10;
    let mut prev: Vec<moldable_graph::TaskId> = Vec::new();
    for _ in 0..layers {
        let mut cur = Vec::new();
        for _ in 0..width {
            let w = rng.gen_range(10.0..100.0);
            let accel = rng.gen_range(3.0..8.0);
            let gpu_side = rng.gen_bool(gpu_fraction);
            let (wc, wg) = if gpu_side {
                (w * accel, w)
            } else {
                (w, w * accel)
            };
            let t = g.add_task(HeteroTask {
                cpu: SpeedupModel::amdahl(wc, 0.02 * wc).unwrap(),
                gpu: SpeedupModel::amdahl(wg, 0.05 * wg).unwrap(),
            });
            if !prev.is_empty() {
                let mut linked = false;
                for &p in &prev {
                    if rng.gen_bool(0.25) {
                        g.add_edge(p, t).expect("layer edges");
                        linked = true;
                    }
                }
                if !linked {
                    let p = prev[rng.gen_range(0..prev.len())];
                    g.add_edge(p, t).expect("layer edges");
                }
            }
            cur.push(t);
        }
        prev = cur;
    }
    g.freeze()
}

fn main() {
    let pf = HeteroPlatform { cpus: 24, gpus: 8 };
    let seeds = 5u64;
    println!(
        "Hybrid platform (extension): {} CPUs + {} GPUs, layered DAGs, {seeds} seeds",
        pf.cpus, pf.gpus
    );
    println!("values: makespan / fractional hybrid lower bound (lower is better)\n");
    let mut t = Table::new(&["gpu-fraction", "mu-hybrid", "ect", "cpu-only", "gpu-only"]);
    for &frac in &[0.1, 0.3, 0.5, 0.7, 0.9] {
        let mut sums = [0.0f64; 4];
        for seed in 0..seeds {
            let g = workload(frac, seed * 31 + 7);
            let lb = hetero_lower_bound(&g, pf);
            let mut scheds: Vec<Box<dyn Scheduler<HeteroPlatform>>> = vec![
                Box::new(MuHetero::default_mu()),
                Box::new(HeteroEct::new()),
                Box::new(CpuOnly::new()),
                Box::new(GpuOnly::new()),
            ];
            for (i, s) in scheds.iter_mut().enumerate() {
                let hs = simulate_hetero(&g, pf, s.as_mut()).expect("hybrid run");
                hs.validate(&g, pf).expect("valid");
                sums[i] += hs.makespan / lb;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let k = seeds as f64;
        t.row(vec![
            format!("{frac:.1}"),
            format!("{:.3}", sums[0] / k),
            format!("{:.3}", sums[1] / k),
            format!("{:.3}", sums[2] / k),
            format!("{:.3}", sums[3] / k),
        ]);
    }
    let rendered = t.render();
    println!("{rendered}");
    println!("The hybrid schedulers track the lower bound across the affinity mix;");
    println!("single-pool baselines collapse when the workload favours the other pool.");
    write_result("hetero.csv", &t.to_csv());
}
