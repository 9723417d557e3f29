//! Regression pin: the session event log is a pure function of the
//! workload.
//!
//! This is the invariant the `moldable-lint` pass exists to protect:
//! no wall clocks, no hash-order iteration, and no ambient entropy
//! anywhere between `submit_dag` and the event stream. The test
//! drives a fixed two-tenant workload through a fresh
//! [`TenantService`] twice, renders every polled event canonically,
//! and (a) demands the two logs be byte-identical, (b) pins the
//! FNV-1a fingerprint of the log to a constant, so any future change
//! that silently perturbs replay order fails loudly here. A second
//! pin does the same for a ~200-session workload, wide enough that
//! the DRR scheduler's per-slot bookkeeping is exercised at scale.

use std::sync::Arc;

use moldable_core::AlgoName;
use moldable_graph::{gen, TaskGraph};
use moldable_model::{ModelClass, SpeedupModel};
use moldable_tenant::{EventKind, TenantConfig, TenantService};

const ALGO: AlgoName = AlgoName::Icpp22;

/// FNV-1a over bytes — same construction the session loadgen uses for
/// its event-log fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn workload_graph(which: u32) -> Arc<TaskGraph> {
    let mut assign = |ctx: gen::TaskCtx<'_>| {
        // Distinct but fixed parameters per task and per DAG: enough
        // heterogeneity to exercise Algorithm 2, zero entropy.
        let w = 10.0 + f64::from(ctx.index as u32 % 7) + f64::from(which);
        SpeedupModel::amdahl(w, 1.0).unwrap()
    };
    Arc::new(match which % 2 {
        0 => gen::fork_join(4, 3, &mut assign),
        _ => gen::chain(6, &mut assign),
    })
}

/// Run the fixed workload on a fresh service, return the canonical
/// event-log rendering.
fn run_workload() -> String {
    let mut svc = TenantService::new(TenantConfig::new(32, 0.3));
    let sessions = [
        ("acme", "acme-s0"),
        ("acme", "acme-s1"),
        ("zeta", "zeta-s0"),
    ];
    for (tenant, label) in sessions {
        svc.open_session(tenant, label, 0).unwrap();
    }
    // Two submission rounds with staggered release dates.
    for round in 0..2u32 {
        for (i, (_, label)) in sessions.iter().enumerate() {
            let g = workload_graph(round * 3 + i as u32);
            let at = f64::from(round) * 5.0;
            svc.submit_dag(label, g, at, ALGO, 0).unwrap();
        }
    }
    // Close everything, then poll each session dry. Closing first
    // releases the session frontiers so the world can run to the end.
    for (_, label) in sessions {
        svc.close_session(label, 0).unwrap();
    }
    let mut log = String::new();
    for (_, label) in sessions {
        loop {
            let r = svc.poll(label, f64::INFINITY, 64, 0).unwrap();
            render(label, &r.events, &mut log);
            if r.closed {
                break;
            }
            assert!(
                !r.events.is_empty() || r.pending_events > 0 || r.closed,
                "poll made no progress on {label}"
            );
        }
    }
    // Ledgers balance at quiescence: 6 submissions, all ok.
    for (name, ledger) in svc.ledgers() {
        assert_eq!(ledger.submitted, ledger.ok, "tenant {name} unbalanced");
        assert_eq!(ledger.errors + ledger.drops, 0, "tenant {name} rejected");
    }
    log
}

#[test]
fn event_log_replays_byte_identically_and_fingerprint_is_pinned() {
    let first = run_workload();
    let second = run_workload();
    assert_eq!(first, second, "fresh services must replay identically");
    assert!(
        first.lines().count() >= 6 * 2,
        "expected task + dag-done events for six DAGs, got:\n{first}"
    );
    // The pinned fingerprint. If a change moves this value, it changed
    // the replay-visible event order or timing — that is a determinism
    // contract change and must be deliberate (re-pin with the new
    // value only after explaining why in the PR).
    assert_eq!(
        fnv1a(first.as_bytes()),
        0x5fed_ff95_eb6e_7ad5,
        "replay fingerprint moved; event log:\n{first}"
    );
}

/// Render one poll's events onto `log`, one canonical line per event.
fn render(label: &str, events: &[moldable_tenant::SessionEvent], log: &mut String) {
    for e in events {
        let line = match e.kind {
            EventKind::TaskDone { task, end, procs } => format!(
                "{label} seq={} dag={} task={task} end={:016x} procs={procs}\n",
                e.seq,
                e.dag,
                end.to_bits()
            ),
            EventKind::DagDone { at } => format!(
                "{label} seq={} dag={} done at={:016x}\n",
                e.seq,
                e.dag,
                at.to_bits()
            ),
        };
        log.push_str(&line);
    }
}

/// Many session slots contending on a small platform: 4 tenants × 50
/// sessions plus one opened late, 25 release-date rounds, `icpp22` and
/// `improved23` DAGs mixed (so one model's allocation depends on its
/// session's algorithm), sessions that stop submitting at different
/// rounds, and closes in a shuffled order with polls in between, so
/// the DRR cursor wraps many times and work-conserving starts drive
/// deficits negative.
fn run_many_slot_workload() -> String {
    const TENANTS: usize = 4;
    const PER_TENANT: usize = 50;
    const ROUNDS: usize = 25;
    const P: u32 = 32;
    let mut cfg = TenantConfig::new(P, 0.3);
    cfg.quotas.max_sessions = 1000;
    cfg.quotas.max_dags_in_flight = 100_000;
    let mut svc = TenantService::new(cfg);
    let mut labels: Vec<String> = Vec::new();
    for idx in 0..TENANTS * PER_TENANT {
        let label = format!("t{}-s{}", idx / PER_TENANT, idx % PER_TENANT);
        svc.open_session(&format!("t{}", idx / PER_TENANT), &label, 0)
            .unwrap();
        labels.push(label);
    }
    let shapes = [
        ("chain", 3),
        ("fork-join", 2),
        ("cholesky", 2),
        ("chain", 1),
    ];
    let submit = |svc: &mut TenantService, idx: usize, label: &str, round: usize| {
        let (shape, size) = shapes[(idx + round) % shapes.len()];
        let class = if (idx + 2 * round).is_multiple_of(3) {
            ModelClass::General
        } else {
            ModelClass::Amdahl
        };
        let seed = (round * 1000 + idx) as u64;
        let g = Arc::new(gen::by_name(shape, size, class, P, seed).unwrap());
        let algo = if (idx * 7 + round).is_multiple_of(3) {
            AlgoName::Improved23
        } else {
            ALGO
        };
        svc.submit_dag(label, g, round as f64, algo, 0).unwrap();
    };
    // Session `idx` submits rounds `0..last_round(idx)`.
    let last_round = |idx: usize| ROUNDS - idx % 9;
    let late = "late".to_string();
    let mut log = String::new();
    for round in 0..ROUNDS {
        for (idx, label) in labels.iter().enumerate() {
            if round < last_round(idx) {
                submit(&mut svc, idx, label, round);
            }
        }
        if round == 10 {
            // Every session promises nothing before round 11: the world
            // runs up to it, then a session opens there and joins.
            for label in &labels {
                svc.poll(label, 11.0, 0, 0).unwrap();
            }
            let open = svc.open_session("t3", &late, 0).unwrap();
            assert!(open.now >= 10.0, "the world advanced: {}", open.now);
        }
        if round > 10 {
            submit(&mut svc, TENANTS * PER_TENANT, &late, round);
        }
    }
    labels.push(late);
    // Shuffled closes (a fixed LCG permutation), polling a few events
    // from the session just closed and from one still open.
    let mut order: Vec<usize> = (0..labels.len()).collect();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    for (k, &idx) in order.iter().enumerate() {
        svc.close_session(&labels[idx], 0).unwrap();
        let r = svc.poll(&labels[idx], f64::INFINITY, 7, 0).unwrap();
        render(&labels[idx], &r.events, &mut log);
        if let Some(&next) = order.get(k + 1) {
            let r = svc.poll(&labels[next], 0.0, 3, 0).unwrap();
            render(&labels[next], &r.events, &mut log);
        }
    }
    for label in &labels {
        loop {
            let r = svc.poll(label, f64::INFINITY, 64, 0).unwrap();
            render(label, &r.events, &mut log);
            if r.closed {
                break;
            }
            assert!(!r.events.is_empty(), "poll made no progress on {label}");
        }
    }
    for (name, ledger) in svc.ledgers() {
        assert_eq!(ledger.submitted, ledger.ok, "tenant {name} unbalanced");
    }
    log
}

#[test]
fn many_slot_event_log_is_pinned() {
    let first = run_many_slot_workload();
    assert_eq!(
        first,
        run_many_slot_workload(),
        "fresh services must replay identically"
    );
    let dags_done = first.lines().filter(|l| l.contains(" done at=")).count();
    let per_session: usize = (0..200).map(|idx| 25 - idx % 9).sum();
    assert_eq!(dags_done, per_session + 14, "every admitted DAG finished");
    assert_eq!(
        fnv1a(first.as_bytes()),
        0x808d_bfec_9571_978d,
        "many-slot replay fingerprint moved ({} lines)",
        first.lines().count()
    );
}
