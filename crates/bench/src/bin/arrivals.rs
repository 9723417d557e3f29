//! Online *independent* tasks with release dates (Ye et al.'s model
//! from the paper's Table 2): a synthetic arrival stream is fed to the
//! schedulers through the engine's timed-arrival events, and we report
//! makespan plus mean flow time (completion − release) under varying
//! load.
//!
//! ```text
//! cargo run --release -p moldable-bench --bin arrivals
//! ```

use moldable_bench::{write_result, Table};
use moldable_core::baselines::EctScheduler;
use moldable_core::{EasyBackfillScheduler, OnlineScheduler};
use moldable_model::rng::Rng;
use moldable_model::rng::StdRng;
use moldable_model::sample::ParamDistribution;
use moldable_model::{ModelClass, SpeedupModel};
use moldable_sim::{simulate_instance, Scheduler, SimOptions, WorldInstance};

const P_TOTAL: u32 = 32;
const N_TASKS: usize = 300;

/// Exponential-ish inter-arrival times tuned so the offered load is
/// `rho` × platform capacity.
fn stream(rho: f64, seed: u64) -> Vec<(f64, SpeedupModel)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = ParamDistribution {
        w_min: 1.0,
        w_max: 100.0,
        ..Default::default()
    };
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(N_TASKS);
    // mean serial work of the log-uniform draw ~ (w_max - w_min)/ln(w_max/w_min)
    let mean_work = 99.0 / (100.0f64).ln();
    let mean_gap = mean_work / (rho * f64::from(P_TOTAL));
    for _ in 0..N_TASKS {
        // inverse-CDF exponential
        let u: f64 = rng.gen_range(1e-9..1.0);
        t += -u.ln() * mean_gap;
        out.push((t, dist.sample(ModelClass::Amdahl, P_TOTAL, &mut rng)));
    }
    out
}

fn run(rho: f64, seed: u64, sched: &mut dyn Scheduler) -> (f64, f64) {
    let mut inst = WorldInstance::from_releases(stream(rho, seed));
    let s = simulate_instance(&mut inst, sched, &SimOptions::new(P_TOTAL))
        .expect("arrival stream schedules");
    s.check_capacity(1e-9).expect("valid");
    // The engine records release times, so flow time is built in.
    (s.makespan, s.mean_flow())
}

fn main() {
    println!("Independent tasks with release dates (P = {P_TOTAL}, {N_TASKS} tasks/stream)");
    println!("rho = offered load; flow = mean completion - release\n");
    let mut t = Table::new(&[
        "rho",
        "online makespan",
        "online flow",
        "ect flow",
        "backfill flow",
    ]);
    let mu = ModelClass::Amdahl.optimal_mu();
    for &rho in &[0.3, 0.6, 0.9, 1.2] {
        let seeds = 5u64;
        let mut acc = [0.0f64; 4];
        for seed in 0..seeds {
            let (mk, fl) = run(
                rho,
                seed,
                &mut OnlineScheduler::for_class(ModelClass::Amdahl),
            );
            let (_, fe) = run(rho, seed, &mut EctScheduler::new());
            let (_, fb) = run(rho, seed, &mut EasyBackfillScheduler::new(mu));
            acc[0] += mk;
            acc[1] += fl;
            acc[2] += fe;
            acc[3] += fb;
        }
        #[allow(clippy::cast_precision_loss)]
        let k = seeds as f64;
        t.row(vec![
            format!("{rho:.1}"),
            format!("{:.1}", acc[0] / k),
            format!("{:.1}", acc[1] / k),
            format!("{:.1}", acc[2] / k),
            format!("{:.1}", acc[3] / k),
        ]);
    }
    println!("{}", t.render());
    println!("At low load all schedulers are release-bound; under saturation the");
    println!("allocation policy decides the queueing behaviour.");
    write_result("arrivals.csv", &t.to_csv());
}
