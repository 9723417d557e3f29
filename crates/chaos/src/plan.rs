//! Deterministic fault schedules.
//!
//! A [`FaultPlan`] is a pure function of its master seed: scenario `i`
//! gets the `i`-th output of a [`SplitMix64`] stream as its own seed,
//! and every parameter inside the scenario is drawn from a
//! [`StdRng`] seeded with it. Re-deriving
//! the plan with the same seed therefore reproduces the bit-identical
//! fault schedule — the property the `chaos` CLI's reproducibility
//! check rests on.

use moldable_core::registry::ALGOS;
use moldable_model::rng::{Rng, SplitMix64, StdRng};

/// A fault applied at the socket layer, on its own fresh connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFault {
    /// Write a *valid* submit frame in `chunk`-byte pieces with a
    /// `pause_ms` sleep between them (slow-loris). The daemon must
    /// still answer.
    SplitSlowWrites {
        /// Bytes per write.
        chunk: usize,
        /// Sleep between writes, milliseconds.
        pause_ms: u64,
    },
    /// Flip `flips` payload bytes (positions derived from `seed`) in
    /// an otherwise well-framed request.
    CorruptPayload {
        /// Number of byte flips.
        flips: u32,
        /// Seed for the flip positions and masks.
        seed: u64,
    },
    /// Send only `keep_pct`% of the frame, then reset the connection
    /// mid-request.
    TruncateAndClose {
        /// Percentage of the full frame actually written (0..=90).
        keep_pct: u8,
    },
    /// Announce a frame larger than the protocol's absolute ceiling.
    OversizedFrame,
    /// Announce a zero-length frame (empty payload).
    ZeroLengthFrame,
    /// Announce `actual_len ^ xor` instead of the true payload length,
    /// then close the write half.
    CorruptLengthPrefix {
        /// XOR mask applied to the true length (1..=255).
        xor: u32,
    },
    /// Send a well-framed `submit_batch` of three copies of the
    /// template submit with the middle item's JSON mangled (`flips`
    /// byte flips derived from `seed`). The envelope is valid, so the
    /// daemon must answer it — the good items succeed and the mangled
    /// one draws a structured per-item (or whole-envelope) error, never
    /// a hang or a crash.
    CorruptBatchItem {
        /// Number of byte flips in the middle item.
        flips: u32,
        /// Seed for the flip positions and masks.
        seed: u64,
    },
}

impl WireFault {
    /// Stable one-line description, used in the scenario log.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::SplitSlowWrites { chunk, pause_ms } => {
                format!("wire:split-slow-writes chunk={chunk} pause_ms={pause_ms}")
            }
            Self::CorruptPayload { flips, seed } => {
                format!("wire:corrupt-payload flips={flips} seed={seed}")
            }
            Self::TruncateAndClose { keep_pct } => {
                format!("wire:truncate-and-close keep_pct={keep_pct}")
            }
            Self::OversizedFrame => "wire:oversized-frame".to_string(),
            Self::ZeroLengthFrame => "wire:zero-length-frame".to_string(),
            Self::CorruptLengthPrefix { xor } => {
                format!("wire:corrupt-length-prefix xor={xor}")
            }
            Self::CorruptBatchItem { flips, seed } => {
                format!("wire:corrupt-batch-item flips={flips} seed={seed}")
            }
        }
    }
}

/// A fault armed inside the daemon process via
/// [`FaultHooks`](moldable_serve::FaultHooks), or applied to its
/// lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessFault {
    /// Arm `count` worker-panic injections and burn them with
    /// sacrificial submits (exercising `catch_unwind` containment).
    WorkerPanics {
        /// Panic injections to arm.
        count: u64,
    },
    /// Skew the request-timeout clock past the deadline for one
    /// submit, forcing a connection-layer timeout while the worker
    /// still finishes the job — the worst-case accounting race.
    TimeoutSkew,
    /// Fire `burst` concurrent submits against a deliberately tiny
    /// queue so backpressure (`overloaded`) engages.
    QueueSaturation {
        /// Concurrent submits in the burst.
        burst: usize,
    },
}

impl ProcessFault {
    /// Stable one-line description, used in the scenario log.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::WorkerPanics { count } => format!("proc:worker-panics count={count}"),
            Self::TimeoutSkew => "proc:timeout-skew".to_string(),
            Self::QueueSaturation { burst } => format!("proc:queue-saturation burst={burst}"),
        }
    }
}

/// A fault applied to the streaming session layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionFault {
    /// Open a session, stream `dags` DAGs with rising release dates,
    /// and drop the connection without `close_session`. Sessions are
    /// server-global by label, so the runner reaps the abandoned
    /// session from a fresh connection — the ledger must still
    /// balance.
    KillMidStream {
        /// DAGs streamed before the connection is dropped.
        dags: u32,
    },
    /// Flip `flips` payload bytes in an otherwise well-framed
    /// `submit_dag` request (positions derived from `seed`).
    CorruptSubmitDag {
        /// Number of byte flips.
        flips: u32,
        /// Seed for the flip positions and masks.
        seed: u64,
    },
    /// Leave a session open (frontier pre-bumped so it cannot pin the
    /// shared clock) across the scenario's final drain.
    DrainWithOpenSession,
}

impl SessionFault {
    /// Stable one-line description, used in the scenario log.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::KillMidStream { dags } => format!("session:kill-mid-stream dags={dags}"),
            Self::CorruptSubmitDag { flips, seed } => {
                format!("session:corrupt-submit-dag flips={flips} seed={seed}")
            }
            Self::DrainWithOpenSession => "session:drain-with-open".to_string(),
        }
    }
}

/// Workload shapes the planner draws from, with their size ranges kept
/// small enough that a scenario completes in well under a second.
const SHAPES: &[(&str, u32, u32)] = &[
    ("chain", 3, 8),
    ("fork-join", 2, 4),
    ("layered", 3, 6),
    ("cholesky", 3, 6),
    ("lu", 3, 5),
];

/// Model classes the planner cycles through.
const MODELS: &[&str] = &["amdahl", "roofline", "communication", "general"];

/// One seeded chaos scenario: a workload template, a fault schedule,
/// and the clean submits whose makespans must match a fault-free run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Position in the plan (0-based).
    pub index: usize,
    /// This scenario's derived seed.
    pub seed: u64,
    /// Generator shape of the workload template.
    pub shape: &'static str,
    /// Generator size of the workload template.
    pub size: u32,
    /// Platform size submitted with each request.
    pub p: u32,
    /// Speedup-model class of the workload template.
    pub model: &'static str,
    /// Queue capacity the scenario's server is started with.
    pub queue_cap: usize,
    /// Socket-layer faults, applied in order on fresh connections.
    pub wire_faults: Vec<WireFault>,
    /// In-process faults, applied in order after the wire faults.
    pub process_faults: Vec<ProcessFault>,
    /// Streaming-session faults, applied after the in-process faults.
    pub session_faults: Vec<SessionFault>,
    /// Seeds of the clean submits checked bit-for-bit against the
    /// fault-free baseline.
    pub clean_seeds: Vec<u64>,
    /// Whether the final drain happens while a client is still
    /// submitting.
    pub drain_under_load: bool,
    /// Registry algorithm every submit of this scenario runs under
    /// (clean submits, sacrificial submits, and session DAGs alike),
    /// so the fault-free baseline compares like with like.
    pub algo: &'static str,
}

impl Scenario {
    /// Derive scenario `index` from its dedicated `seed`.
    #[must_use]
    pub fn derive(index: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (shape, lo, hi) = SHAPES[usize::try_from(rng.gen_range(0u64..SHAPES.len() as u64))
            .expect("shape index fits usize")];
        let size = rng.gen_range(lo..=hi);
        let p = [8u32, 16, 32][usize::try_from(rng.gen_range(0u64..3)).expect("p index")];
        let model = MODELS[usize::try_from(rng.gen_range(0u64..MODELS.len() as u64))
            .expect("model index fits usize")];

        let n_wire = rng.gen_range(2u64..=4);
        let wire_faults = (0..n_wire).map(|_| draw_wire_fault(&mut rng)).collect();

        let mut process_faults = Vec::new();
        if rng.gen_bool(0.5) {
            process_faults.push(ProcessFault::WorkerPanics {
                count: rng.gen_range(1u64..=3),
            });
        }
        if rng.gen_bool(0.35) {
            process_faults.push(ProcessFault::TimeoutSkew);
        }
        let mut queue_cap = 64;
        if rng.gen_bool(0.4) {
            // Saturation only bites with a tiny queue; keep at least
            // one slot so sequential clean submits still pass.
            queue_cap = usize::try_from(rng.gen_range(1u64..=2)).expect("cap fits usize");
            process_faults.push(ProcessFault::QueueSaturation {
                burst: usize::try_from(rng.gen_range(8u64..=16)).expect("burst fits usize"),
            });
        }

        // Seeds travel the wire as JSON numbers, which are exact only
        // up to 2^53 — keep to the top 53 bits so the daemon accepts
        // them and the baseline uses the identical value.
        let clean_seeds = (0..3).map(|_| rng.next_u64() >> 11).collect();
        let drain_under_load = rng.gen_bool(0.3);

        let mut session_faults = Vec::new();
        if rng.gen_bool(0.6) {
            session_faults.push(SessionFault::KillMidStream {
                dags: rng.gen_range(1u32..=3),
            });
        }
        if rng.gen_bool(0.5) {
            session_faults.push(SessionFault::CorruptSubmitDag {
                flips: rng.gen_range(1u32..=8),
                seed: rng.next_u64(),
            });
        }
        if rng.gen_bool(0.4) {
            session_faults.push(SessionFault::DrainWithOpenSession);
        }

        // Drawn last so adding the algorithm dimension left every
        // pre-existing parameter of the seeded schedule untouched.
        let algo = usize::try_from(rng.gen_range(0u64..ALGOS.len() as u64))
            .expect("algo index fits usize");
        let algo = ALGOS[algo].name();

        Self {
            index,
            seed,
            shape,
            size,
            p,
            model,
            queue_cap,
            wire_faults,
            process_faults,
            session_faults,
            clean_seeds,
            drain_under_load,
            algo,
        }
    }

    /// Stable descriptions of every fault in schedule order (wire
    /// first, then in-process, then session faults, then the drain
    /// mode).
    #[must_use]
    pub fn fault_descriptions(&self) -> Vec<String> {
        let mut out: Vec<String> = self.wire_faults.iter().map(WireFault::describe).collect();
        out.extend(self.process_faults.iter().map(ProcessFault::describe));
        out.extend(self.session_faults.iter().map(SessionFault::describe));
        if self.drain_under_load {
            out.push("proc:drain-during-load".to_string());
        }
        out
    }
}

fn draw_wire_fault(rng: &mut StdRng) -> WireFault {
    match rng.gen_range(0u64..7) {
        0 => WireFault::SplitSlowWrites {
            chunk: usize::try_from(rng.gen_range(1u64..=7)).expect("chunk fits usize"),
            pause_ms: rng.gen_range(1u64..=4),
        },
        1 => WireFault::CorruptPayload {
            flips: rng.gen_range(1u32..=8),
            seed: rng.next_u64(),
        },
        2 => WireFault::TruncateAndClose {
            keep_pct: u8::try_from(rng.gen_range(0u64..=90)).expect("pct fits u8"),
        },
        3 => WireFault::OversizedFrame,
        4 => WireFault::ZeroLengthFrame,
        5 => WireFault::CorruptBatchItem {
            flips: rng.gen_range(1u32..=8),
            seed: rng.next_u64(),
        },
        _ => WireFault::CorruptLengthPrefix {
            xor: rng.gen_range(1u32..=255),
        },
    }
}

/// The full fault schedule for a chaos run: `scenarios[i]` is a pure
/// function of `(master_seed, i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The master seed the plan was derived from.
    pub master_seed: u64,
    /// The derived scenarios, in execution order.
    pub scenarios: Vec<Scenario>,
}

impl FaultPlan {
    /// Derive `n` scenarios from `master_seed`.
    #[must_use]
    pub fn new(master_seed: u64, n: usize) -> Self {
        let mut stream = SplitMix64::seed_from_u64(master_seed);
        let scenarios = (0..n)
            .map(|i| Scenario::derive(i, stream.next_u64()))
            .collect();
        Self {
            master_seed,
            scenarios,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_derives_the_bit_identical_plan() {
        let a = FaultPlan::new(0xDEAD_BEEF, 25);
        let b = FaultPlan::new(0xDEAD_BEEF, 25);
        assert_eq!(a, b);
        // And a prefix of a longer plan is the same schedule.
        let c = FaultPlan::new(0xDEAD_BEEF, 40);
        assert_eq!(a.scenarios[..], c.scenarios[..25]);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1, 10);
        let b = FaultPlan::new(2, 10);
        assert_ne!(a.scenarios, b.scenarios);
    }

    #[test]
    fn plans_cover_the_fault_space() {
        // Over a modest number of scenarios the generator must visit
        // every wire-fault variant, every process-fault variant, and
        // more than one shape/model — otherwise the chaos run is far
        // narrower than advertised.
        let plan = FaultPlan::new(42, 60);
        let mut wire_kinds = std::collections::HashSet::new();
        let mut proc_kinds = std::collections::HashSet::new();
        let mut session_kinds = std::collections::HashSet::new();
        let mut shapes = std::collections::BTreeSet::new();
        let mut models = std::collections::BTreeSet::new();
        let mut algos = std::collections::BTreeSet::new();
        let mut drains = 0;
        for s in &plan.scenarios {
            shapes.insert(s.shape);
            models.insert(s.model);
            algos.insert(s.algo);
            drains += usize::from(s.drain_under_load);
            for w in &s.wire_faults {
                wire_kinds.insert(std::mem::discriminant(w));
            }
            for p in &s.process_faults {
                proc_kinds.insert(std::mem::discriminant(p));
            }
            for f in &s.session_faults {
                session_kinds.insert(std::mem::discriminant(f));
            }
        }
        assert_eq!(wire_kinds.len(), 7, "all wire-fault variants drawn");
        assert_eq!(proc_kinds.len(), 3, "all process-fault variants drawn");
        assert_eq!(session_kinds.len(), 3, "all session-fault variants drawn");
        assert!(shapes.len() >= 3, "shape variety: {shapes:?}");
        assert!(models.len() >= 3, "model variety: {models:?}");
        assert_eq!(algos.len(), 2, "both registry algorithms drawn: {algos:?}");
        assert!(drains > 0, "some scenario drains under load");
    }

    #[test]
    fn scenario_parameters_stay_in_their_ranges() {
        for s in &FaultPlan::new(7, 50).scenarios {
            assert!((2..=8).contains(&s.size), "{s:?}");
            assert!([8, 16, 32].contains(&s.p));
            assert!((2..=4).contains(&s.wire_faults.len()));
            assert_eq!(s.clean_seeds.len(), 3);
            for &seed in &s.clean_seeds {
                assert!(seed < (1 << 53), "seed must survive the JSON wire exactly");
            }
            assert!(s.queue_cap >= 1, "clean submits need a queue slot");
            for w in &s.wire_faults {
                match w {
                    WireFault::SplitSlowWrites { chunk, pause_ms } => {
                        assert!((1..=7).contains(chunk) && (1..=4).contains(pause_ms));
                    }
                    WireFault::CorruptPayload { flips, .. }
                    | WireFault::CorruptBatchItem { flips, .. } => {
                        assert!((1..=8).contains(flips));
                    }
                    WireFault::TruncateAndClose { keep_pct } => assert!(*keep_pct <= 90),
                    WireFault::CorruptLengthPrefix { xor } => {
                        assert!((1..=255).contains(xor));
                    }
                    WireFault::OversizedFrame | WireFault::ZeroLengthFrame => {}
                }
            }
            for f in &s.session_faults {
                match f {
                    SessionFault::KillMidStream { dags } => {
                        assert!((1..=3).contains(dags));
                    }
                    SessionFault::CorruptSubmitDag { flips, .. } => {
                        assert!((1..=8).contains(flips));
                    }
                    SessionFault::DrainWithOpenSession => {}
                }
            }
        }
    }

    #[test]
    fn descriptions_are_stable_and_distinct() {
        let s = Scenario::derive(0, 99);
        let d = s.fault_descriptions();
        assert_eq!(d, Scenario::derive(0, 99).fault_descriptions());
        assert!(d.iter().all(|l| {
            l.starts_with("wire:") || l.starts_with("proc:") || l.starts_with("session:")
        }));
    }
}
