//! Cross-crate property tests: the system-level invariants that must
//! hold for arbitrary content and parameters.

use medvt::analyze::{AnalyzerConfig, CapacityBalancedTiler, Retiler};
use medvt::encoder::bits::BitWriter;
use medvt::encoder::{code_residual, EncoderConfig, Qp};
use medvt::frame::synth::{render_canvas, BodyPart, ValueNoise};
use medvt::frame::Plane;
use medvt::mpsoc::{plan_core_on, DvfsPolicy, Platform};
use medvt::sched::{allocate_on, UserDemand};
use proptest::prelude::*;

const SLOT: f64 = 1.0 / 24.0;

/// Deterministic textured plane from a seed.
fn textured_plane(w: usize, h: usize, seed: u64) -> Plane {
    let noise = ValueNoise::new(seed);
    let mut p = Plane::new(w, h);
    for row in 0..h {
        for col in 0..w {
            let v = 20.0 + 210.0 * noise.fractal(col as f64, row as f64, 0.07, 3);
            p.set(col, row, v.clamp(0.0, 255.0) as u8);
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The content-aware re-tiler must produce an exact partition for
    /// any anatomy class, seed and (8-aligned) frame geometry.
    #[test]
    fn retiler_always_partitions(
        seed in 0u64..1000,
        part_idx in 0usize..6,
        wu in 24usize..48,   // width units of 8
        hu in 20usize..40,
    ) {
        let w = wu * 8;
        let h = hu * 8;
        let canvas = render_canvas(
            BodyPart::ALL[part_idx],
            w,
            h,
            w as f64 * 0.26,
            h as f64 * 0.26,
            seed,
            1.0,
        );
        let retiler = Retiler::new(AnalyzerConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        }).expect("valid config");
        let outcome = retiler.retile(&canvas, None);
        prop_assert_eq!(outcome.tiling.covered_area(), w * h);
        prop_assert!(outcome.tiling.len() >= 4);
        prop_assert!(outcome.tiling.len() <= 16);
    }

    /// The capacity tiler must hand back exactly one tile per core for
    /// any core count its layout supports.
    #[test]
    fn capacity_tiler_one_tile_per_core(
        seed in 0u64..500,
        cores in 1usize..9,
    ) {
        let luma = textured_plane(320, 240, seed);
        let tiling = CapacityBalancedTiler::new(cores).tile(&luma);
        prop_assert_eq!(tiling.len(), cores);
        prop_assert_eq!(tiling.covered_area(), 320 * 240);
    }

    /// Algorithm 2 never loses threads, never exceeds the platform and
    /// admission is monotone: admitted demand fits the core budget.
    #[test]
    fn allocator_conserves_threads_and_budget(
        user_count in 1usize..12,
        tiles in 1usize..8,
        demand_ms in 1u32..45,
    ) {
        let users: Vec<UserDemand> = (0..user_count)
            .map(|u| UserDemand::new(
                u,
                vec![demand_ms as f64 * 1e-3 / tiles as f64; tiles],
            ))
            .collect();
        let alloc = allocate_on(&[1.0; 16], SLOT, &users);
        let fps = 1.0 / SLOT;
        let admitted_demand: f64 = users
            .iter()
            .filter(|u| alloc.admitted.contains(&u.user))
            .map(|u| u.core_demand(fps))
            .sum();
        prop_assert!(admitted_demand <= 16.0 + 1e-6);
        prop_assert_eq!(
            alloc.placements.len(),
            alloc.admitted.len() * tiles
        );
        let placed: f64 = alloc.placements.iter().map(|p| p.secs).sum();
        let expected: f64 = users
            .iter()
            .filter(|u| alloc.admitted.contains(&u.user))
            .map(|u| u.total_secs())
            .sum();
        prop_assert!((placed - expected).abs() < 1e-9);
    }

    /// Per-core DVFS planning conserves work: what ran plus what
    /// carried equals what was assigned, at every policy.
    #[test]
    fn dvfs_plans_conserve_work(
        load_frac in 0.0f64..2.5,
        policy_idx in 0usize..3,
    ) {
        let platform = Platform::quad_core();
        let policy = [
            DvfsPolicy::StretchToDeadline,
            DvfsPolicy::RaceToIdle,
            DvfsPolicy::PinnedMax,
        ][policy_idx];
        let load = SLOT * load_frac;
        let plan = plan_core_on(
            platform.class_of(0),
            platform.dvfs_transition_secs,
            policy,
            load,
            SLOT,
            platform.fmin(),
        );
        // Work executed in fmax-seconds. Only the transition *into*
        // the busy frequency precedes work; the drop to idle during
        // slack is outside the busy period.
        let transition_overhead =
            platform.dvfs_transition_secs * plan.transitions.min(1) as f64;
        let ran_fmax = ((plan.busy_secs - transition_overhead).max(0.0)
            / platform.fmax().hz() as f64)
            * plan.freq.hz() as f64;
        prop_assert!(
            (ran_fmax + plan.carry_fmax_secs - load).abs() < 1e-6,
            "ran {} + carry {} != load {}",
            ran_fmax,
            plan.carry_fmax_secs,
            load
        );
        prop_assert!(plan.busy_secs <= SLOT + 1e-12);
    }

    /// Residual coding round-trips within the quantizer step for any
    /// content and QP.
    #[test]
    fn residual_coding_bounded_error(
        seed in 0u64..500,
        qp_val in 10u8..=51,
    ) {
        let orig = textured_plane(16, 16, seed);
        let pred = textured_plane(16, 16, seed.wrapping_add(17));
        let qp = Qp::new(qp_val).expect("valid");
        let mut w = BitWriter::new();
        let out = code_residual(
            orig.samples(),
            pred.samples(),
            16,
            16,
            8,
            qp,
            &mut w,
        );
        prop_assert!(out.bits >= 4, "four sub-blocks, one flag each");
        // Per-sample error bounded by ~step (DCT spreads quantization
        // error; bound with a generous constant).
        let max_err = orig
            .samples()
            .iter()
            .zip(&out.recon)
            .map(|(&a, &b)| (a as i16 - b as i16).unsigned_abs())
            .max()
            .unwrap_or(0);
        prop_assert!(
            (max_err as f64) <= qp.step_size() * 4.0 + 2.0,
            "max_err {} step {}",
            max_err,
            qp.step_size()
        );
    }
}

#[test]
fn encoder_config_rejects_bad_blocks() {
    for bs in [0usize, 4, 12, 20, 72, 4096] {
        let cfg = EncoderConfig {
            block_size: bs,
            ..Default::default()
        };
        assert!(cfg.validate().is_err(), "block size {bs} must be rejected");
    }
}
