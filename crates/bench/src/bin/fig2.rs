//! Regenerates **Figure 2**: the *shape* of the online algorithm's
//! schedule versus the proof's near-optimal schedule on the generic
//! lower-bound graph (communication-model parameters, Theorem 6).
//!
//! The online algorithm is forced to serialize the layers (B-tasks,
//! then the A-task, layer after layer, with the top of the platform
//! idle); the alternative schedule runs the whole A-chain first and
//! then overlaps all B-tasks with task C.
//!
//! ```text
//! cargo run --release -p moldable-bench --bin fig2
//! ```

use moldable_adversary::communication;
use moldable_bench::write_result;
use moldable_core::OnlineScheduler;
use moldable_sim::{gantt_ascii, simulate, SimOptions};

fn main() {
    // Small platform so the Gantt is readable; shapes already show.
    let p_total = 24;
    let inst = communication::instance(p_total);
    let pr = communication::params(p_total);
    let n = inst.graph.n_tasks();

    // Label: B, A per layer; C last (ids are laid out layer by layer).
    let label = move |idx: usize| -> char {
        if idx == n - 1 {
            'C'
        } else if idx % (pr.x + 1) == pr.x {
            'A'
        } else {
            'B'
        }
    };

    println!("Figure 2 — schedule shapes on the Theorem 6 instance (P = {p_total})");
    println!("X = {}, Y = {}, {} tasks\n", pr.x, pr.y, n);

    // (a) our algorithm
    let mut sched = OnlineScheduler::with_mu(inst.mu);
    let opts = SimOptions::new(p_total).with_proc_ids();
    let s = simulate(&inst.graph, &mut sched, &opts).expect("online run");
    s.validate(&inst.graph).expect("valid schedule");
    let g_online = gantt_ascii(&s, 100, label);
    println!("(a) online algorithm: makespan = {:.3}", s.makespan);
    println!("{g_online}");

    // (b) the proof's alternative schedule
    let mut proof = communication::proof_schedule(p_total);
    proof
        .assign_proc_ids()
        .expect("proof schedule fits the platform");
    let g_proof = gantt_ascii(&proof, 100, label);
    println!(
        "(b) proof's offline schedule: makespan = {:.3}",
        proof.makespan
    );
    println!("{g_proof}");

    println!(
        "ratio on this small instance: {:.3} (asymptote: {:.3})",
        s.makespan / proof.makespan,
        communication::asymptotic_bound()
    );

    let mut out = String::new();
    out.push_str(&format!(
        "(a) online, makespan {:.4}\n{g_online}\n",
        s.makespan
    ));
    out.push_str(&format!(
        "(b) offline, makespan {:.4}\n{g_proof}\n",
        proof.makespan
    ));
    write_result("fig2.txt", &out);
    write_result("fig2_online.csv", &s.to_csv());
    write_result("fig2_offline.csv", &proof.to_csv());
}
