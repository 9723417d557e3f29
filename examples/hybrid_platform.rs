//! Scheduling a moldable workflow on a hybrid CPU+GPU platform — the
//! Canon et al. setting from the paper's related work, combined with
//! moldable tasks (extension).
//!
//! ```text
//! cargo run --release --example hybrid_platform
//! ```

use moldable::graph::GraphBuilder;
use moldable::hetero::{
    hetero_lower_bound, simulate_hetero, HeteroPlatform, HeteroTask, MuHetero, Pool,
};
use moldable::model::SpeedupModel;

fn main() {
    let platform = HeteroPlatform { cpus: 16, gpus: 4 };

    // A small pipeline: preprocess (CPU-ish) -> 4x train (GPU-ish)
    // -> aggregate (CPU-ish).
    let mut g = GraphBuilder::new();
    let pre = g.add_task(HeteroTask {
        cpu: SpeedupModel::amdahl(40.0, 2.0).unwrap(),
        gpu: SpeedupModel::amdahl(120.0, 10.0).unwrap(),
    });
    let trains: Vec<_> = (0..4)
        .map(|_| {
            g.add_task(HeteroTask {
                cpu: SpeedupModel::amdahl(400.0, 5.0).unwrap(),
                gpu: SpeedupModel::amdahl(60.0, 1.0).unwrap(),
            })
        })
        .collect();
    let agg = g.add_task(HeteroTask {
        cpu: SpeedupModel::amdahl(30.0, 1.0).unwrap(),
        gpu: SpeedupModel::amdahl(90.0, 8.0).unwrap(),
    });
    for &t in &trains {
        g.add_edge(pre, t).unwrap();
        g.add_edge(t, agg).unwrap();
    }
    let g = g.freeze();

    let mut sched = MuHetero::default_mu();
    let hs = simulate_hetero(&g, platform, &mut sched).unwrap();
    hs.validate(&g, platform).unwrap();

    println!(
        "hybrid schedule on {} CPUs + {} GPUs:",
        platform.cpus, platform.gpus
    );
    for t in g.task_ids() {
        let pool = hs.assignment[t.index()];
        let sched_side = match pool {
            Pool::Cpu => &hs.cpu,
            Pool::Gpu => &hs.gpu,
        };
        let pl = sched_side.placement(t).unwrap();
        println!(
            "  task {:>2} -> {:>3}: [{:>7.2}, {:>7.2}) on {} procs",
            t.0, pool, pl.start, pl.end, pl.procs
        );
    }
    let lb = hetero_lower_bound(&g, platform);
    println!(
        "\nmakespan {:.2} vs hybrid lower bound {:.2} (x{:.2})",
        hs.makespan,
        lb,
        hs.makespan / lb
    );
    assert_eq!(
        hs.assignment[pre.index()],
        Pool::Cpu,
        "preprocess stays on CPU"
    );
    assert!(
        trains.iter().any(|t| hs.assignment[t.index()] == Pool::Gpu),
        "training work lands on the GPU"
    );
}
