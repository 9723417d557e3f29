//! Hybrid-platform schedule pins: sixteen seeded random graphs, plus
//! four graphs built so that completions tie, run under each of
//! [`MuHetero`], [`HeteroEct`], [`CpuOnly`] and [`GpuOnly`], and every
//! schedule must hash to a pinned FNV-1a-64 value.
//!
//! The pins hold `simulate_hetero` to its exact revelation order, pool
//! choices, tie-breaks and allocations, byte for byte rather than
//! through the three-decimal means of `hetero.csv`. They were recorded
//! on the hybrid crate's former event loop and hold unchanged on the
//! shared `Stepper`.

use moldable_graph::GraphBuilder;
use moldable_hetero::{
    simulate_hetero, CpuOnly, GpuOnly, HeteroEct, HeteroGraph, HeteroPlatform, HeteroSchedule,
    HeteroTask, MuHetero, Pool,
};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::sample::ParamDistribution;
use moldable_model::{ModelClass, SpeedupModel};
use moldable_sim::Scheduler;

/// Same shape as the `slow-tests` property suite's generator: Amdahl
/// models per pool, forward edges with probability 0.2.
fn random_hetero(seed: u64, n: usize, pf: HeteroPlatform) -> HeteroGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = ParamDistribution::default();
    let mut g = GraphBuilder::new();
    let mut ids = Vec::new();
    for _ in 0..n {
        let cpu = dist.sample(ModelClass::Amdahl, pf.cpus, &mut rng);
        let gpu = dist.sample(ModelClass::Amdahl, pf.gpus, &mut rng);
        ids.push(g.add_task(HeteroTask { cpu, gpu }));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.2) {
                g.add_edge(ids[i], ids[j]).unwrap();
            }
        }
    }
    g.freeze()
}

/// `heads` identical sources, each with its own sampled successor: the
/// heads placed together finish together, so the order in which
/// simultaneous completions release their successors decides the
/// rest of the schedule.
fn tied_hetero(seed: u64, heads: usize, pf: HeteroPlatform) -> HeteroGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = ParamDistribution::default();
    let mut g = GraphBuilder::new();
    for _ in 0..heads {
        let head = g.add_task(HeteroTask {
            cpu: SpeedupModel::amdahl(8.0, 1.0).unwrap(),
            gpu: SpeedupModel::amdahl(8.0, 1.0).unwrap(),
        });
        let cpu = dist.sample(ModelClass::Amdahl, pf.cpus, &mut rng);
        let gpu = dist.sample(ModelClass::Amdahl, pf.gpus, &mut rng);
        let next = g.add_task(HeteroTask { cpu, gpu });
        g.add_edge(head, next).unwrap();
    }
    g.freeze()
}

/// FNV-1a-64 over each pool's placements (task, start/end bits,
/// processor count, little-endian, in placement order; CPU pool
/// first), then the assignment as one byte per task (0 = CPU, 1 = GPU).
fn fingerprint(s: &HeteroSchedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for pool in [&s.cpu, &s.gpu] {
        for pl in &pool.placements {
            eat(&pl.task.0.to_le_bytes());
            eat(&pl.start.to_bits().to_le_bytes());
            eat(&pl.end.to_bits().to_le_bytes());
            eat(&pl.procs.to_le_bytes());
        }
    }
    for &pool in &s.assignment {
        eat(&[u8::from(pool == Pool::Gpu)]);
    }
    h
}

/// Pins per case, in the order MuHetero, HeteroEct, CpuOnly, GpuOnly.
const PINS: [[u64; 4]; 16] = [
    [
        0x0d95339d4a9ad145,
        0x5040b7feb91fa1e2,
        0x43648b81a04a2f9c,
        0x3a03384acde86d7b,
    ],
    [
        0x95b4a5d7d12235db,
        0x423391f17029d55d,
        0x95b4a5d7d12235db,
        0x39c33ea90a5b97ef,
    ],
    [
        0xa76a37447d2ccb42,
        0xa9e31eb1ef551b9e,
        0x3edf32a1dc9e4687,
        0x5fbb32e20bc83605,
    ],
    [
        0x12e93951661023f2,
        0xcc9048f74346fccf,
        0xe92bef4bd0d8e93f,
        0xc827fca06037bd21,
    ],
    [
        0xb02153583af4cc8f,
        0x135b0172d7b558ea,
        0xaff5df6108f222b7,
        0x42c73ad8db85f8f6,
    ],
    [
        0x6ae8a75f8a606447,
        0x2a2dd5503577b2b2,
        0xeac05ea264462b12,
        0x157aac33ab2e9dc9,
    ],
    [
        0x578773c722cb1940,
        0x34fccfe29bc9d73a,
        0x90fc5a91f7a2934d,
        0xd7093d84b5fa14e7,
    ],
    [
        0x32bd9aa99caaa769,
        0x5a7acce4902f3192,
        0xa3ae84f34fd032f5,
        0x51d73cc0144a70bd,
    ],
    [
        0x0f50f439f5c07ae4,
        0x70eaee1d95aadb4d,
        0x4c7dc0cfec35f50b,
        0xda60127ce7b8f4a6,
    ],
    [
        0x432e6dcd102f9888,
        0xca602fd874a157ca,
        0xb5ef397e971581be,
        0xbcfe1cab3852d55a,
    ],
    [
        0x8aac2a67829652fa,
        0x2129700d8b347d80,
        0xe72c3df975857634,
        0x19ecebb076208ae1,
    ],
    [
        0xc1f33410a91006b7,
        0xba75b21e52030650,
        0x8da7fd275708c712,
        0xe37037dda701919b,
    ],
    [
        0x44dc989ac016098f,
        0xc8c498d251d1bfcd,
        0x1d81d4ce29f14cf7,
        0xf141c9b5e8e94181,
    ],
    [
        0x0891e1ec9f1b54e5,
        0xad90f57ff4bf46e4,
        0x376ea1c4512a56ec,
        0xbd3a9b1dc5fa77a4,
    ],
    [
        0x70d084d6854b4e0a,
        0x4d95ca6614b866c7,
        0xf6018e5ee47b6b8a,
        0x4defaccb32b429bf,
    ],
    [
        0x9f67ddd82eb40a0f,
        0xc2514504d163d170,
        0xedbcc94ad81fb16e,
        0xee8af74ae630b3bd,
    ],
];

/// Fingerprints of `g` under MuHetero, HeteroEct, CpuOnly and GpuOnly,
/// each schedule validated first.
fn pin_row(g: &HeteroGraph, pf: HeteroPlatform) -> [u64; 4] {
    let scheds: [&mut dyn Scheduler<HeteroPlatform>; 4] = [
        &mut MuHetero::default_mu(),
        &mut HeteroEct::new(),
        &mut CpuOnly::new(),
        &mut GpuOnly::new(),
    ];
    let mut row = [0u64; 4];
    for (slot, sched) in row.iter_mut().zip(scheds) {
        let s = simulate_hetero(g, pf, sched).unwrap();
        s.validate(g, pf).unwrap();
        *slot = fingerprint(&s);
    }
    row
}

/// The rows as Rust source, for re-recording after an intended change.
fn listing(rows: &[[u64; 4]]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "    [{:#018x}, {:#018x}, {:#018x}, {:#018x}],\n",
                r[0], r[1], r[2], r[3]
            )
        })
        .collect()
}

#[test]
fn hybrid_schedules_match_their_pins() {
    let mut got = Vec::new();
    for case in 0u64..16 {
        let mut crng = StdRng::seed_from_u64(0x5C4E_D01E ^ case);
        let seed = crng.next_u64();
        let n = crng.gen_range(1usize..25);
        let cpus = crng.gen_range(2u32..16);
        let gpus = crng.gen_range(1u32..8);
        let pf = HeteroPlatform { cpus, gpus };
        got.push(pin_row(&random_hetero(seed, n, pf), pf));
    }
    assert_eq!(
        got,
        PINS,
        "hybrid schedule fingerprints moved; got:\n{}",
        listing(&got)
    );
}

/// Tie pins per case, in the same scheduler order as [`PINS`].
const TIE_PINS: [[u64; 4]; 4] = [
    [
        0x63127eff13727e68,
        0x19462a215235647b,
        0x43051026005f365f,
        0xa26d0a1baa061a1c,
    ],
    [
        0x1e278591f160d80f,
        0x7dcc1af19af0158b,
        0x8ad1a9150462acc0,
        0xe5ab235a2da8fd98,
    ],
    [
        0x4473fb2b20f8643e,
        0x64d4256ff7997781,
        0x06974f2224e535a5,
        0x7ced02ddb13f74dc,
    ],
    [
        0xeae244f605bb16f0,
        0x82720eac91a3ac8d,
        0xeb845ea88bfebb93,
        0x5aa7f7fdf6122292,
    ],
];

#[test]
fn simultaneous_completions_match_their_pins() {
    let mut got = Vec::new();
    for case in 0u64..4 {
        let pf = HeteroPlatform { cpus: 8, gpus: 4 };
        let g = tied_hetero(0x71E5 ^ case, 6 + 2 * case as usize, pf);
        got.push(pin_row(&g, pf));
    }
    assert_eq!(
        got,
        TIE_PINS,
        "tied schedule fingerprints moved; got:\n{}",
        listing(&got)
    );
}
