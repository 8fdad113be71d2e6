//! Property-based tests for the VM substrate: ISA semantics against host
//! arithmetic, MESI coherence invariants, interleaving robustness, and the
//! per-binade closed form of repeated energy adds against per-op adds.

use proptest::prelude::*;
use sdc_model::{DataType, DetRng};
use softcore::cpu::{crc32_step, hash_mix, repeat_adds};
use softcore::{FOpKind, InstClass, IntOpKind, Machine, NoFaults, Precision, ProgramBuilder};

/// Runs a single-core program to completion and returns the machine.
fn run1(p: softcore::Program, seed: u64) -> Machine {
    let mut m = Machine::new(1, 1 << 16);
    m.load(0, p);
    let mut rng = DetRng::new(seed);
    let out = m.run(&mut NoFaults, &mut rng, 10_000_000);
    assert!(out.completed);
    m
}

proptest! {
    #[test]
    fn int_add_matches_host(a in any::<u32>(), b in any::<u32>()) {
        let mut builder = ProgramBuilder::new();
        builder.mov_imm(0, a as u64).mov_imm(1, b as u64);
        builder.int_op(IntOpKind::Add, DataType::U32, 2, 0, 1);
        let m = run1(builder.build(), 1);
        prop_assert_eq!(m.core(0).regs.int(2) as u32, a.wrapping_add(b));
    }

    #[test]
    fn int_mul_and_div_match_host(a in any::<u32>(), b in 1u32..) {
        let mut builder = ProgramBuilder::new();
        builder.mov_imm(0, a as u64).mov_imm(1, b as u64);
        builder.int_op(IntOpKind::Mul, DataType::U32, 2, 0, 1);
        builder.int_op(IntOpKind::Div, DataType::U32, 3, 0, 1);
        let m = run1(builder.build(), 2);
        prop_assert_eq!(m.core(0).regs.int(2) as u32, a.wrapping_mul(b));
        prop_assert_eq!(m.core(0).regs.int(3) as u32, a / b);
    }

    #[test]
    fn int_ops_respect_width(a in any::<u64>(), b in any::<u64>()) {
        let mut builder = ProgramBuilder::new();
        builder.mov_imm(0, a).mov_imm(1, b);
        builder.int_op(IntOpKind::Add, DataType::I16, 2, 0, 1);
        builder.int_op(IntOpKind::Xor, DataType::Byte, 3, 0, 1);
        let m = run1(builder.build(), 3);
        prop_assert_eq!(
            m.core(0).regs.int(2),
            ((a as u16).wrapping_add(b as u16)) as u64
        );
        prop_assert_eq!(m.core(0).regs.int(3), ((a as u8) ^ (b as u8)) as u64);
    }

    #[test]
    fn float_ops_match_host(a in -1e100f64..1e100, b in -1e100f64..1e100) {
        let mut builder = ProgramBuilder::new();
        builder.fmov_imm(0, a).fmov_imm(1, b);
        builder.fop(FOpKind::Add, Precision::F64, 2, 0, 1);
        builder.fop(FOpKind::Mul, Precision::F64, 3, 0, 1);
        builder.ffma(Precision::F64, 4, 0, 1, 2);
        let m = run1(builder.build(), 4);
        prop_assert_eq!(m.core(0).regs.float(2).to_bits(), (a + b).to_bits());
        prop_assert_eq!(m.core(0).regs.float(3).to_bits(), (a * b).to_bits());
        prop_assert_eq!(m.core(0).regs.float(4).to_bits(), a.mul_add(b, a + b).to_bits());
    }

    #[test]
    fn memory_roundtrips(vals in prop::collection::vec(any::<u64>(), 1..16)) {
        let mut builder = ProgramBuilder::new();
        builder.mov_imm(0, 0x400);
        for (i, &v) in vals.iter().enumerate() {
            builder.mov_imm(1, v);
            builder.store(1, 0, (i as u64) * 8);
        }
        for (i, _) in vals.iter().enumerate() {
            builder.load((2 + i % 8) as u8, 0, (i as u64) * 8);
        }
        let m = run1(builder.build(), 5);
        // The last store/load pair must roundtrip; spot-check via memory.
        for (i, &v) in vals.iter().enumerate() {
            prop_assert_eq!(m.mem.raw_read_u64(0x400 + (i as u64) * 8), v);
        }
    }

    #[test]
    fn crc_and_hash_are_pure(acc in any::<u32>(), data in any::<u64>()) {
        prop_assert_eq!(crc32_step(acc, data), crc32_step(acc, data));
        prop_assert_eq!(hash_mix(acc as u64, data), hash_mix(acc as u64, data));
        // Single-bit sensitivity.
        prop_assert_ne!(crc32_step(acc, data), crc32_step(acc, data ^ 1));
        prop_assert_ne!(hash_mix(acc as u64, data), hash_mix(acc as u64, data ^ 1));
    }

    #[test]
    fn lock_counter_invariant_under_any_interleaving(
        seed in any::<u64>(),
        threads in 2usize..5,
        rounds in 1u32..20,
    ) {
        let mut m = Machine::new(threads, 1 << 16);
        for t in 0..threads {
            let mut b = ProgramBuilder::new();
            b.mov_imm(0, 0).mov_imm(1, 128).mov_imm(2, 1).loop_start(rounds);
            b.lock_acquire(0);
            b.load(3, 1, 0);
            b.int_op(IntOpKind::Add, DataType::Bin64, 3, 3, 2);
            b.store(3, 1, 0);
            b.lock_release(0);
            b.loop_end();
            m.load(t, b.build());
        }
        let mut rng = DetRng::new(seed);
        let out = m.run(&mut NoFaults, &mut rng, 100_000_000);
        prop_assert!(out.completed);
        prop_assert_eq!(m.mem.raw_read_u64(128), threads as u64 * rounds as u64);
    }

    #[test]
    fn coherent_reads_after_remote_writes(seed in any::<u64>(), val in any::<u64>()) {
        // Core 0 writes, halts; core 1 then reads the same address through
        // its own cache: MESI must deliver the written value.
        let mut m = Machine::new(2, 4096);
        let mut w = ProgramBuilder::new();
        w.mov_imm(0, 256).mov_imm(1, val);
        w.store(1, 0, 0);
        m.load(0, w.build());
        let mut rng = DetRng::new(seed);
        m.run(&mut NoFaults, &mut rng, 1_000_000);
        let mut r = ProgramBuilder::new();
        r.mov_imm(0, 256);
        r.load(2, 0, 0);
        m.load(1, r.build());
        m.run(&mut NoFaults, &mut rng, 1_000_000);
        prop_assert_eq!(m.core(1).regs.int(2), val);
    }
}

/// What [`repeat_adds`] must equal bit for bit: `k` rounds of the adds,
/// one f64 add per op in order.
fn per_op_adds(mut sum: f64, adds: &[f64], k: u64) -> f64 {
    for _ in 0..k {
        for &c in adds {
            sum += c;
        }
    }
    sum
}

/// `2^e` for any `e` from -1074 to 1023, subnormal powers included.
fn pow2(e: i32) -> f64 {
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (e + 1074))
    }
}

/// A value of the binade `[2^e, 2^(e+1))` with the low 52 bits of `bits`
/// as its mantissa (rounded into the subnormals when `e` is below -1022),
/// negated when bit 63 is set.
fn in_binade(bits: u64, e: i32) -> f64 {
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    let x = m as f64 / (1u64 << 52) as f64 * pow2(e);
    if bits >> 63 == 1 {
        -x
    } else {
        x
    }
}

#[test]
fn repeat_adds_matches_per_op_on_filler_energies() {
    // The toolchain's filler: a `Pause` and its `LoopEnd`, from a zero sum
    // and from sums deep in the binades a long profiling run reaches.
    let adds = [InstClass::Pause.energy(), InstClass::Control.energy()];
    for start in [0.0, 9.6, 1.0e6, 3.0e9, 2.0f64.powi(40) - 0.2] {
        for k in [0, 1, 2, 4095, 100_000] {
            assert_eq!(
                repeat_adds(start, &adds, k).to_bits(),
                per_op_adds(start, &adds, k).to_bits(),
                "start {start} k {k}"
            );
        }
    }
}

#[test]
fn repeat_adds_matches_per_op_at_binade_edges() {
    for e in [-1000, -60, 0, 7, 900] {
        let ulp = pow2(e - 52);
        let low = pow2(e);
        let cases = [
            // Climbing by whole ulps onto the next binade's first value.
            (2.0 * low - 4.0 * ulp, vec![ulp], 9),
            (2.0 * low - 6.0 * ulp, vec![2.0 * ulp, -ulp, ulp], 9),
            // Descending by 1.3 ulps: the add that crosses the lower edge
            // rounds on the finer grid below it, to half an ulp.
            (low + 4.0 * ulp, vec![-1.3 * ulp], 9),
            (low + ulp, vec![-1.3 * ulp], 1),
            // Descending by 0.3 ulps, which rounds away inside the binade
            // but not at its lower edge.
            (low, vec![-0.3 * ulp], 3),
        ];
        for (start, adds, k) in cases {
            assert_eq!(
                repeat_adds(start, &adds, k).to_bits(),
                per_op_adds(start, &adds, k).to_bits(),
                "e {e} start {start:e} adds {adds:?} k {k}"
            );
        }
    }
}

proptest! {
    #[test]
    fn repeat_adds_matches_per_op(
        start_bits in any::<u64>(),
        start_exp in 0u32..2000,
        adds in prop::collection::vec((any::<u64>(), 0u32..70), 1..5),
        k in 0u64..3000,
    ) {
        // Arbitrary signs and mantissas, constants 2^0 to 2^-70 of the
        // start's magnitude.
        let e = start_exp as i32 - 1000;
        let start = in_binade(start_bits, e);
        let adds: Vec<f64> = adds.iter().map(|&(b, rel)| in_binade(b, e - rel as i32)).collect();
        prop_assert_eq!(
            repeat_adds(start, &adds, k).to_bits(),
            per_op_adds(start, &adds, k).to_bits()
        );
    }

    #[test]
    fn repeat_adds_matches_per_op_at_exact_ties(
        start_bits in any::<u64>(),
        start_exp in 0u32..1800,
        halves in prop::collection::vec((0u64..64, any::<bool>(), any::<bool>()), 1..4),
        k in 1u64..5000,
    ) {
        // A start mid-binade, 2^51 ulps from either edge, and adds of
        // `h/2` ulps: odd `h` is an exact tie at the binade's ulp, so the
        // sum moves by the parity of its last bit.
        let e = start_exp as i32 - 900;
        let ulp = pow2(e - 52);
        let m = (3u64 << 51) | (start_bits & ((1 << 40) - 1));
        let start = m as f64 * ulp;
        let adds: Vec<f64> = halves
            .iter()
            .map(|&(h, tie, neg)| {
                let half_ulps = if tie { 2 * h + 1 } else { 2 * h };
                let c = half_ulps as f64 * ulp / 2.0;
                if neg { -c } else { c }
            })
            .collect();
        prop_assert_eq!(
            repeat_adds(start, &adds, k).to_bits(),
            per_op_adds(start, &adds, k).to_bits()
        );
    }

    #[test]
    fn repeat_adds_matches_per_op_from_zero_and_subnormal_sums(
        start_kind in 0u32..3,
        start_bits in any::<u64>(),
        adds in prop::collection::vec((any::<u64>(), 0u32..80), 1..4),
        k in 0u64..3000,
    ) {
        let start = match start_kind {
            0 => 0.0,
            1 => -0.0,
            _ => f64::from_bits(start_bits & !(0x7ff << 52)),
        };
        // Constants from the smallest normal binade up to 2^-943.
        let adds: Vec<f64> = adds.iter().map(|&(b, e)| in_binade(b, -1022 + e as i32)).collect();
        prop_assert_eq!(
            repeat_adds(start, &adds, k).to_bits(),
            per_op_adds(start, &adds, k).to_bits()
        );
    }

    #[test]
    fn repeat_adds_matches_per_op_across_many_binades(
        start_bits in any::<u64>(),
        start_exp in 0u32..40,
        adds in prop::collection::vec((any::<u64>(), 0u32..12), 1..3),
        k in 10_000u64..200_000,
    ) {
        // Constants 2^-8 to 2^3 of the start's magnitude: an ascending run
        // climbs well over ten binades, and a descending one crosses zero.
        let e = start_exp as i32 - 20;
        let start = in_binade(start_bits, e);
        let adds: Vec<f64> = adds.iter().map(|&(b, rel)| in_binade(b, e + rel as i32 - 8)).collect();
        prop_assert_eq!(
            repeat_adds(start, &adds, k).to_bits(),
            per_op_adds(start, &adds, k).to_bits()
        );
    }

    #[test]
    fn repeat_adds_matches_per_op_when_a_round_rounds_to_zero(
        start_bits in any::<u64>(),
        start_exp in 0u32..1800,
        c_bits in any::<u64>(),
        rel in 0u32..60,
        cancel in any::<bool>(),
        k in 0u64..200_000,
    ) {
        // Either a constant and its negation, which cancel exactly, or a
        // constant below half the start's ulp, which each add rounds away.
        let e = start_exp as i32 - 900;
        let start = in_binade(start_bits, e);
        let adds = if cancel {
            let c = in_binade(c_bits, e - rel as i32);
            vec![c, -c]
        } else {
            vec![in_binade(c_bits, e - 54 - rel as i32)]
        };
        prop_assert_eq!(
            repeat_adds(start, &adds, k).to_bits(),
            per_op_adds(start, &adds, k).to_bits()
        );
    }
}
