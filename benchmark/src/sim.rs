//! The two in-process workloads: the core scheduler and the simulator,
//! with no serve code on the path.
//!
//! `sim_layered` gives every task its own model, so the allocation memo
//! is bypassed and the event loop, ready queue and direct Algorithm 2
//! calls do the work. `sim_adversary` runs the paper's lower-bound
//! witnesses, whose near-identical models make the memo hit almost every
//! time and whose completions arrive in very wide simultaneous batches.

use std::cell::Cell;
use std::time::Instant;

use moldable_adversary::arbitrary::AdaptiveChains;
use moldable_adversary::{amdahl, communication, general, roofline, LowerBoundInstance};
use moldable_core::{AlgoName, OnlineScheduler, ALGOS};
use moldable_graph::gen;
use moldable_graph::TaskGraph;
use moldable_model::rng::StdRng;
use moldable_model::sample::ParamDistribution;
use moldable_model::ModelClass;
use moldable_sim::{simulate, simulate_instance, Schedule, SimError, SimOptions};

use crate::cpu;
use crate::trace::Tracer;
use crate::workload::{Ctx, E2e, Window};

/// Platform size of `sim_layered`.
pub const LAYERED_P: u32 = 256;
/// Graphs of `sim_layered`; each is one timed `simulate` call.
const LAYERED_GRAPHS: u64 = 8;
/// Timed reps at least. Rep 0 is an untimed warm-up, whose schedules are
/// the ones checked.
const MIN_REPS: u64 = 2;
/// A rep takes a new pace and CPU only when the last were taken this
/// long ago: a full-size rep always does, a smoke-size rep of a few
/// milliseconds does not pay 30 ms for it every time.
const REPACE_S: f64 = 0.25;

/// The `sim_layered` input: eight 125 × 1000 layered random DAGs (10^6
/// tasks in all), general models drawn from the default distribution.
pub fn layered_graphs(ctx: &Ctx) -> Vec<TaskGraph> {
    let (graphs, layers, width) = if ctx.smoke {
        (2, 20, 100)
    } else {
        (LAYERED_GRAPHS, 125, 1000)
    };
    (0..graphs)
        .map(|i| {
            let seed = ctx.seed.wrapping_mul(LAYERED_GRAPHS).wrapping_add(i);
            let mut model_rng = StdRng::seed_from_u64(seed ^ 0x5EED_0000_0000);
            let mut assign = gen::weighted_sampler(
                ModelClass::General,
                ParamDistribution::default(),
                LAYERED_P,
                &mut model_rng,
            );
            let mut shape_rng = StdRng::seed_from_u64(seed);
            gen::layered_random_sparse(layers, width, 0.002, &mut shape_rng, &mut assign)
        })
        .collect()
}

/// Build the instances five times (once at smoke size), keeping the
/// last build; each build is one setup sample. Each build, like each rep,
/// runs on the fastest CPU at its start (see `cpu`).
fn setup<T>(e: &mut E2e, ctx: &Ctx, tr: &mut Tracer, build: impl Fn(&Ctx) -> T) -> T {
    let mut built = None;
    for i in 0..if ctx.smoke { 1 } else { 5 } {
        drop(built.take());
        e.pace_s.push(cpu::pin_fastest());
        let id = tr.begin("graph.build", i);
        let t0 = Instant::now();
        built = Some(build(ctx));
        e.setup_s.push(t0.elapsed().as_secs_f64());
        tr.end(id);
    }
    built.expect("at least one setup rep")
}

/// Run every call once per rep until `ctx.seconds` of timed calls have
/// passed. Rep 0 is an untimed warm-up whose schedules go to `check`;
/// every later rep is one window. Returns each call's makespans.
fn reps(
    e: &mut E2e,
    ctx: &Ctx,
    tr: &mut Tracer,
    names: &[&'static str],
    mut call: impl FnMut(usize) -> Result<Schedule, SimError>,
    mut check: impl FnMut(&mut E2e, usize, &Schedule),
) -> Vec<Vec<f64>> {
    let mut makespans = vec![Vec::new(); names.len()];
    let (mut rep, mut measured_s) = (0, 0.0);
    let mut paced: Option<Instant> = None;
    while rep <= MIN_REPS || measured_s < ctx.seconds {
        if paced.is_none_or(|t| t.elapsed().as_secs_f64() >= REPACE_S) {
            e.pace_s.push(cpu::pin_fastest());
            paced = Some(Instant::now());
        }
        let mut window = Window::default();
        for (i, name) in names.iter().enumerate() {
            let id = tr.begin(name, rep);
            let t0 = Instant::now();
            let result = call(i);
            let dt = t0.elapsed().as_secs_f64();
            tr.end(id);
            e.result.attempted += 1;
            match result {
                Ok(s) if rep == 0 => {
                    check(e, i, &s);
                    makespans[i].push(s.makespan);
                }
                Ok(s) => {
                    window.tasks += s.placements.len() as u64;
                    window.secs += dt;
                    window.latencies_ms.push(dt * 1e3);
                    makespans[i].push(s.makespan);
                }
                Err(err) => {
                    e.result.failed_ops += 1;
                    e.result
                        .check(&format!("{name}.simulate"), false, err.to_string());
                }
            }
        }
        if rep > 0 {
            measured_s += window.secs;
            e.windows.push(window);
        }
        rep += 1;
    }
    makespans
}

pub fn layered(ctx: &Ctx, tr: &mut Tracer) -> E2e {
    let mut e = E2e::new("sim_layered");
    let graphs = setup(&mut e, ctx, tr, layered_graphs);
    let names = vec!["sim.layered"; graphs.len()];
    let makespans = reps(
        &mut e,
        ctx,
        tr,
        &names,
        |i| {
            let mut sched = OnlineScheduler::for_class(ModelClass::General);
            simulate(&graphs[i], &mut sched, &SimOptions::new(LAYERED_P))
        },
        |e, i, s| check_schedule(e, &format!("layered{i}"), s, &graphs[i]),
    );
    check_same_makespans(&mut e, "layered", &makespans);
    e.peak_rss_mb = crate::metrics::peak_rss_mb("self").unwrap_or(0.0);
    e
}

/// One Theorem 5–8 witness with the model class it was built for.
pub struct Witness {
    pub class: ModelClass,
    pub inst: LowerBoundInstance,
}

/// The witnesses at the largest sizes of the lower-bound sweep.
pub fn witnesses(ctx: &Ctx) -> Vec<Witness> {
    let (p_roof, p_comm, k) = if ctx.smoke {
        (1024, 101, 12)
    } else {
        (262_144, 1601, 120)
    };
    vec![
        Witness {
            class: ModelClass::Roofline,
            inst: roofline::instance(p_roof),
        },
        Witness {
            class: ModelClass::Communication,
            inst: communication::instance(p_comm),
        },
        Witness {
            class: ModelClass::Amdahl,
            inst: amdahl::instance(k),
        },
        Witness {
            class: ModelClass::General,
            inst: general::instance(k),
        },
    ]
}

/// The scheduler each algorithm runs a witness with: ICPP'22 at the
/// witness's own μ, Improved'23 at its registry μ for the class.
fn witness_scheduler(w: &Witness, algo: AlgoName) -> OnlineScheduler {
    match algo {
        AlgoName::Icpp22 => OnlineScheduler::with_mu(w.inst.mu),
        other => OnlineScheduler::for_algo_class(other, w.class),
    }
}

fn span_name(class: ModelClass, algo: AlgoName) -> &'static str {
    match (class, algo) {
        (ModelClass::Roofline, AlgoName::Icpp22) => "sim.roofline.icpp22",
        (ModelClass::Roofline, AlgoName::Improved23) => "sim.roofline.improved23",
        (ModelClass::Communication, AlgoName::Icpp22) => "sim.communication.icpp22",
        (ModelClass::Communication, AlgoName::Improved23) => "sim.communication.improved23",
        (ModelClass::Amdahl, AlgoName::Icpp22) => "sim.amdahl.icpp22",
        (ModelClass::Amdahl, AlgoName::Improved23) => "sim.amdahl.improved23",
        (_, AlgoName::Icpp22) => "sim.general.icpp22",
        (_, AlgoName::Improved23) => "sim.general.improved23",
    }
}

pub fn adversary(ctx: &Ctx, tr: &mut Tracer) -> E2e {
    let mut e = E2e::new("sim_adversary");
    let set = setup(&mut e, ctx, tr, witnesses);
    // One call per (witness, algorithm), then the Theorem 9 adaptive
    // adversary, which reveals its tasks one at a time.
    let runs: Vec<(&Witness, AlgoName)> = set
        .iter()
        .flat_map(|w| ALGOS.into_iter().map(move |a| (w, a)))
        .collect();
    let mut names: Vec<&'static str> = runs.iter().map(|(w, a)| span_name(w.class, *a)).collect();
    names.push("sim.adaptive");
    let l = if ctx.smoke { 2 } else { 4 };
    let quotas_met = Cell::new(true);
    let mut violations = Vec::new();
    let makespans = reps(
        &mut e,
        ctx,
        tr,
        &names,
        |i| match runs.get(i) {
            Some((w, algo)) => {
                let mut sched = witness_scheduler(w, *algo);
                simulate(&w.inst.graph, &mut sched, &SimOptions::new(w.inst.p_total))
            }
            None => {
                let mut adv = AdaptiveChains::new(l);
                let params = adv.params();
                let mut sched = OnlineScheduler::for_class(ModelClass::Arbitrary);
                let s = simulate_instance(&mut adv, &mut sched, &SimOptions::new(params.p_total));
                // Every chain must retire into exactly its group quota.
                let met = adv
                    .realized_group_sizes()
                    .iter()
                    .enumerate()
                    .skip(1)
                    .all(|(g, &n)| n == 1u64 << (params.k - g as u32));
                quotas_met.set(quotas_met.get() && met);
                s
            }
        },
        |e, i, s| match runs.get(i) {
            Some((w, algo)) => {
                check_schedule(e, names[i], s, &w.inst.graph);
                let ratio = s.makespan / w.inst.t_opt_upper;
                let envelope = algo.proven_upper_bound(w.class);
                if ratio > envelope {
                    violations.push(format!("{}: {ratio} > {envelope}", names[i]));
                }
            }
            None => {
                let capacity = s.check_capacity(1e-9);
                e.result.check(
                    "adaptive_valid",
                    quotas_met.get() && capacity.is_ok(),
                    format!(
                        "group quotas met: {}, capacity: {capacity:?}",
                        quotas_met.get()
                    ),
                );
            }
        },
    );
    e.result.check(
        "ratios_within_envelopes",
        violations.is_empty(),
        if violations.is_empty() {
            format!(
                "{} witness runs at or below their proven envelope",
                runs.len()
            )
        } else {
            violations.join("; ")
        },
    );
    check_same_makespans(&mut e, "adversary", &makespans);
    e.peak_rss_mb = crate::metrics::peak_rss_mb("self").unwrap_or(0.0);
    e
}

/// Validate a schedule once, outside the timed region.
fn check_schedule(e: &mut E2e, what: &str, s: &Schedule, g: &TaskGraph) {
    let complete = s.placements.len() == g.n_tasks();
    let valid = s.validate(g);
    e.result.check(
        &format!("{what}.schedule_valid"),
        complete && valid.is_ok(),
        format!(
            "{} of {} tasks placed, validate: {valid:?}",
            s.placements.len(),
            g.n_tasks()
        ),
    );
}

/// Every rep of one simulation must reproduce the first rep's makespan
/// bit for bit.
fn check_same_makespans(e: &mut E2e, what: &str, per_call: &[Vec<f64>]) {
    let ok = per_call
        .iter()
        .all(|m| m.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
    let reps = per_call.first().map_or(0, Vec::len);
    e.result.check(
        &format!("{what}.makespans_repeat"),
        ok,
        format!("{reps} reps, makespans bit-equal: {ok}"),
    );
}
