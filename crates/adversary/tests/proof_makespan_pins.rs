//! `t_opt_upper` of every Theorem 5–8 witness, pinned bit for bit over
//! the sizes the tables and sweeps use. The instances fold the proof
//! schedule's makespan from its placement generator instead of building
//! the schedule; these are the makespans of the built schedules, so a
//! fold that drifts from the builder fails here.

use moldable_adversary::{amdahl, communication, general, roofline};

const COMMUNICATION: [(u32, u64); 14] = [
    (4, 0x402d_699d_0bab_f6af),
    (5, 0x402d_8336_a545_9049),
    (11, 0x403d_00e2_dd20_53c6),
    (17, 0x4045_85cc_5f57_8f99),
    (23, 0x404c_8570_861b_4499),
    (24, 0x4050_0368_5690_bac3),
    (47, 0x405c_3b50_ca4f_5e2c),
    (101, 0x406e_b1a7_40f6_c73d),
    (211, 0x407f_7c0c_2064_305d),
    (400, 0x408d_b2df_d229_4576),
    (401, 0x408d_b2de_1f6f_02b6),
    (801, 0x409d_91a3_dbf5_b9ec),
    (1001, 0x40a2_7dd9_576c_7c0f),
    (1601, 0x40ad_8ef9_9ea7_f398),
];

const AMDAHL: [(u32, u64); 12] = [
    (4, 0x4015_0000_0000_0000),
    (5, 0x4018_cccc_cccc_cccd),
    (8, 0x4023_0000_0000_0000),
    (10, 0x4027_3333_3333_3333),
    (12, 0x402b_5555_5555_5555),
    (20, 0x4035_cccc_cccc_cccd),
    (25, 0x403a_d70a_3d70_a3d7),
    (32, 0x4040_f000_0000_0000),
    (48, 0x4048_faaa_aaaa_aaab),
    (60, 0x404e_fbbb_bbbb_bbbc),
    (80, 0x4054_7f33_3333_3333),
    (120, 0x405e_8000_0000_0000),
];

const GENERAL: [(u32, u64); 11] = [
    (6, 0x401c_aaaa_aaaa_aaab),
    (8, 0x4022_8000_0000_0000),
    (12, 0x402a_aaaa_aaaa_aaab),
    (15, 0x4030_5555_5555_5555),
    (20, 0x4035_6666_6666_6666),
    (30, 0x403f_6eee_eeee_eeef),
    (32, 0x4040_b800_0000_0000),
    (48, 0x4048_baaa_aaaa_aaab),
    (60, 0x404e_bbbb_bbbb_bbbc),
    (80, 0x4054_5e66_6666_6666),
    (120, 0x405e_5eee_eeee_eeef),
];

#[test]
fn roofline_t_opt_upper_is_one() {
    for p in [4u32, 16, 1024, 100_000, 262_144] {
        assert_eq!(roofline::instance(p).t_opt_upper.to_bits(), 1f64.to_bits());
    }
}

#[test]
fn communication_t_opt_upper_is_pinned() {
    for (p, bits) in COMMUNICATION {
        let got = communication::instance(p).t_opt_upper;
        assert_eq!(got.to_bits(), bits, "P = {p}: {got}");
    }
}

#[test]
fn amdahl_t_opt_upper_is_pinned() {
    for (k, bits) in AMDAHL {
        let got = amdahl::instance(k).t_opt_upper;
        assert_eq!(got.to_bits(), bits, "K = {k}: {got}");
    }
}

#[test]
fn general_t_opt_upper_is_pinned() {
    for (k, bits) in GENERAL {
        let got = general::instance(k).t_opt_upper;
        assert_eq!(got.to_bits(), bits, "K = {k}: {got}");
    }
}

/// The schedules built on request end at the same pinned makespans.
#[test]
fn proof_schedules_end_at_the_pins() {
    for (p, bits) in COMMUNICATION.into_iter().filter(|&(p, _)| p <= 101) {
        assert_eq!(communication::proof_schedule(p).makespan.to_bits(), bits);
    }
    for (k, bits) in AMDAHL.into_iter().filter(|&(k, _)| k <= 20) {
        assert_eq!(amdahl::proof_schedule(k).makespan.to_bits(), bits);
    }
    for (k, bits) in GENERAL.into_iter().filter(|&(k, _)| k <= 20) {
        assert_eq!(general::proof_schedule(k).makespan.to_bits(), bits);
    }
}
