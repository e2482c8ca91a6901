//! Backend equivalence: the placement-aware `ThreadPoolBackend` must
//! be a pure *where-it-runs* decision — bit-identical reconstructions,
//! bits and PSNR versus the serial reference path, deterministic
//! across runs, and faithful to `place_threads` core assignments.

use medvt::core::{ContentAwareController, PipelineConfig};
use medvt::encoder::{
    encode_frame, encode_frame_with, EncoderConfig, FramePlan, Qp, TileConfig, UniformController,
    VideoEncoder,
};
use medvt::frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt::frame::{FrameKind, Resolution};
use medvt::mpsoc::{Platform, PowerModel};
use medvt::runtime::ThreadPoolBackend;
use medvt::sched::WorkloadLut;

fn pool(workers: usize) -> ThreadPoolBackend {
    ThreadPoolBackend::with_workers(Platform::quad_core(), PowerModel::default(), workers)
}

fn clip(frames: usize) -> medvt::frame::VideoClip {
    PhantomVideo::builder(BodyPart::Cardiac)
        .resolution(Resolution::new(256, 192))
        .motion(MotionPattern::Pan { dx: 1.0, dy: 0.5 })
        .seed(41)
        .build()
        .capture(frames)
}

/// A 16-tile frame encoded on the pool matches the serial encode in
/// every byte of the bitstream and every reconstructed sample.
#[test]
fn pool_frame_is_bit_identical_to_serial() {
    let frame = clip(1).get(0).expect("one frame").clone();
    let plan = FramePlan::uniform(
        frame.y().bounds(),
        4,
        4,
        TileConfig::with_qp(Qp::new(27).expect("valid")),
    );
    let serial = encode_frame(
        &frame,
        &[],
        FrameKind::Intra,
        0,
        &plan,
        &EncoderConfig::default(),
        false,
    );
    for workers in [1, 2, 4, 8] {
        let backend = pool(workers);
        let pooled = encode_frame_with(
            &frame,
            &[],
            FrameKind::Intra,
            0,
            &plan,
            &EncoderConfig::default(),
            &backend,
            None,
        );
        assert_eq!(serial.bytes, pooled.bytes, "bitstream at {workers} workers");
        assert_eq!(serial.recon, pooled.recon, "recon at {workers} workers");
        assert_eq!(serial.stats, pooled.stats, "stats at {workers} workers");
    }
}

/// A whole multi-tile clip through the content-aware pipeline produces
/// identical per-tile bits and PSNR on the pool and on the serial path.
#[test]
fn pool_clip_matches_serial_bits_and_psnr() {
    let clip = clip(9);
    let cfg = PipelineConfig {
        analyzer: medvt::analyze::AnalyzerConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut serial_ctl = ContentAwareController::new(cfg, WorkloadLut::new());
    let serial = VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut serial_ctl);
    let backend = pool(4);
    let mut pool_ctl = ContentAwareController::new(cfg, WorkloadLut::new());
    let pooled = VideoEncoder::new(EncoderConfig::default()).encode_clip_with(
        &clip,
        &mut pool_ctl,
        &backend,
    );
    assert_eq!(serial, pooled, "sequence stats must match bit for bit");
    assert!(serial.mean_psnr() > 30.0);
}

/// Two pool runs of the same clip are identical (no scheduling
/// nondeterminism leaks into the output).
#[test]
fn pool_runs_are_deterministic() {
    let clip = clip(9);
    let encode_once = || {
        let backend = pool(3);
        let mut ctl =
            UniformController::new(4, 2, TileConfig::with_qp(Qp::new(32).expect("valid")));
        VideoEncoder::new(EncoderConfig::default()).encode_clip_with(&clip, &mut ctl, &backend)
    };
    let first = encode_once();
    let second = encode_once();
    assert_eq!(first, second);
}

/// The pool runs every tile exactly where `place_threads` put it —
/// observable through the per-core execution log.
#[test]
fn pool_respects_place_threads_assignments() {
    let frame = clip(1).get(0).expect("one frame").clone();
    let plan = FramePlan::uniform(
        frame.y().bounds(),
        4,
        4,
        TileConfig::with_qp(Qp::new(32).expect("valid")),
    );
    let backend = pool(4);
    // The placement the backend derives from the tiles' cost hints
    // (Algorithm 2's place_threads over the worker set).
    let costs: Vec<f64> = plan.tiles.iter().map(|t| t.area() as f64).collect();
    let expected = backend.place_for_costs(&costs);
    assert_eq!(expected.len(), 16);

    backend.set_logging(true);
    let _ = encode_frame_with(
        &frame,
        &[],
        FrameKind::Intra,
        0,
        &plan,
        &EncoderConfig::default(),
        &backend,
        None,
    );
    let log = backend.drain_log();
    backend.set_logging(false);
    assert_eq!(log.len(), 16, "one log record per tile");
    for record in &log {
        assert_eq!(
            record.worker,
            expected[record.item] % 4,
            "tile {} ran on worker {} but was placed on core {}",
            record.item,
            record.worker,
            expected[record.item]
        );
    }
    // Uniform tiles on 4 workers: the placement balances 4 tiles per
    // worker, so every worker participated.
    for w in 0..4 {
        assert!(
            log.iter().any(|r| r.worker == w),
            "worker {w} never ran a tile"
        );
    }
}

/// Explicit core assignments (the server path) are honoured verbatim.
#[test]
fn pool_honours_explicit_assignment() {
    let frame = clip(1).get(0).expect("one frame").clone();
    let plan = FramePlan::uniform(
        frame.y().bounds(),
        2,
        2,
        TileConfig::with_qp(Qp::new(32).expect("valid")),
    );
    let backend = pool(4);
    let assignment = vec![3, 1, 1, 0];
    backend.set_logging(true);
    let with_assignment = encode_frame_with(
        &frame,
        &[],
        FrameKind::Intra,
        0,
        &plan,
        &EncoderConfig::default(),
        &backend,
        Some(&assignment),
    );
    let log = backend.drain_log();
    backend.set_logging(false);
    for record in &log {
        assert_eq!(record.worker, assignment[record.item]);
    }
    // And the output still matches the serial reference.
    let serial = encode_frame(
        &frame,
        &[],
        FrameKind::Intra,
        0,
        &plan,
        &EncoderConfig::default(),
        false,
    );
    assert_eq!(serial.bytes, with_assignment.bytes);
    assert_eq!(serial.recon, with_assignment.recon);
}

/// FNV-1a goldens of what *placement* decides, recorded before the
/// control plane's two replan engines were folded into one. Speeds are
/// one big.LITTLE socket under `StretchToDeadline`, so the core a
/// thread lands on changes the joules; demands are dyadic so users 2
/// and 5 (and 1 and 9) produce bitwise-equal GOP estimates and their
/// threads tie — the stable largest-first sort then breaks the tie by
/// *member order*, which is what these hashes pin.
mod placement_traces {
    use medvt::mpsoc::{DvfsPolicy, Platform, PowerModel};
    use medvt::runtime::{
        DemandSource, LoopDriver, LoopReport, ReplanPolicy, ServerLoopConfig, SimBackend,
    };
    use medvt::sched::Placement;
    use medvt::telemetry::FlightRecorder;

    const GOP: usize = 8;

    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= b as u64;
            *hash = hash.wrapping_mul(0x100000001b3);
        }
    }

    /// Per-user demand shapes, all in exact binary fractions of a
    /// second (slot = 1/24 s ≈ 0.0417):
    ///
    /// * 2 — three tiles, flat 1/64;
    /// * 5 — three tiles alternating 1/128 and 3/128 per slot: the GOP
    ///   mean is bitwise 1/64 (user 2's estimate) but no single slot
    ///   looks like user 2's, so swapping their cores moves the energy;
    /// * 1, 9 — two tiles of 1/64, promised steady;
    /// * 7 — [1/32, 1/64, 1/128], its first tile 3/128 on odd 16-slot
    ///   spans: the one member whose estimate moves;
    /// * anyone else — one tile of 1/128.
    struct Script;

    impl DemandSource for Script {
        fn demand_at(&self, user: usize, slot: usize) -> Vec<f64> {
            let d = |k: f64| k / 128.0;
            match user {
                2 => vec![d(2.0); 3],
                5 => vec![
                    if slot.is_multiple_of(2) {
                        d(1.0)
                    } else {
                        d(3.0)
                    };
                    3
                ],
                1 | 9 => vec![d(2.0); 2],
                7 => {
                    let first = if (slot / 16) % 2 == 1 { d(3.0) } else { d(4.0) };
                    vec![first, d(2.0), d(1.0)]
                }
                _ => vec![d(1.0)],
            }
        }

        fn steady(&self, user: usize) -> bool {
            matches!(user, 1 | 9)
        }
    }

    fn backend() -> SimBackend {
        SimBackend::new(Platform::big_little().socket_view(0), PowerModel::default())
    }

    fn cfg(slots: usize, replan: ReplanPolicy) -> ServerLoopConfig {
        ServerLoopConfig {
            fps: 24.0,
            slots,
            policy: DvfsPolicy::StretchToDeadline,
            replan,
            gop_slots: GOP,
            window_slots: None,
        }
    }

    /// Energy and deadline accounting of a report — everything the
    /// placements determine, nothing the replan *count* does.
    fn hash_report(hash: &mut u64, report: &LoopReport) {
        fnv1a(hash, &report.energy_j.to_bits().to_le_bytes());
        for n in [
            report.miss_slots,
            report.windows,
            report.window_misses,
            report.active_core_slots,
        ] {
            fnv1a(hash, &(n as u64).to_le_bytes());
        }
        for u in &report.users {
            fnv1a(hash, &(u.user as u64).to_le_bytes());
            fnv1a(hash, &u.energy_j.to_bits().to_le_bytes());
            for n in [u.windows, u.window_misses, u.active_slots] {
                fnv1a(hash, &(n as u64).to_le_bytes());
            }
        }
    }

    pub(super) fn batch_hash(
        replan: ReplanPolicy,
        admitted: &[usize],
        initial: &[Placement],
    ) -> u64 {
        let report = LoopDriver::new(
            backend(),
            cfg(72, replan),
            admitted.to_vec(),
            initial.to_vec(),
        )
        .run(&Script)
        .modeled_only();
        assert!(report.energy_j > 0.0);
        let mut hash = 0xcbf29ce484222325;
        hash_report(&mut hash, &report);
        hash
    }

    /// One step of a membership script, applied at a GOP boundary.
    pub(super) enum Step {
        Update(&'static [usize], &'static [usize]),
        Set(&'static [usize]),
        /// No call at all: the driver crosses the boundary on its own.
        Coast,
    }

    pub(super) fn driver_hash(start: &[usize], script: &[Step]) -> u64 {
        let rec = FlightRecorder::modeled(1, 1 << 12);
        let mut driver = LoopDriver::with_recorder(
            backend(),
            cfg(0, ReplanPolicy::PerGop { headroom: 1.1 }),
            start.to_vec(),
            Vec::new(),
            &rec,
            0,
        );
        driver.advance(&Script, GOP);
        for step in script {
            match step {
                Step::Update(add, remove) => driver.update_membership(add, remove),
                Step::Set(members) => driver.set_membership(members.to_vec()),
                Step::Coast => {}
            }
            driver.advance(&Script, GOP);
        }
        let report = driver.into_report().modeled_only();
        assert_eq!(rec.dropped(), 0, "ring must retain the whole stream");
        let mut hash = 0xcbf29ce484222325;
        for event in rec.normalized_events() {
            for word in event.encode() {
                fnv1a(&mut hash, &word.to_le_bytes());
            }
        }
        hash_report(&mut hash, &report);
        hash
    }
}

#[test]
fn placement_traces_match_their_recorded_hashes() {
    use medvt::runtime::ReplanPolicy;
    use medvt::sched::Placement;
    use placement_traces::{batch_hash, driver_hash, Step};

    // (i) Closed-membership batch runs. Members arrive in *non-id*
    // order; placing them id-sorted instead moves the first hash.
    let per_gop = batch_hash(
        ReplanPolicy::PerGop { headroom: 1.1 },
        &[7, 5, 2, 9, 1],
        &[],
    );
    // Static keeps hand-made initial placements for the whole run:
    // user 5 on LITTLE cores, user 2 sharing big core 0 with 7.
    let place = |user, thread, core| Placement {
        user,
        thread,
        core,
        secs: 1.0 / 64.0,
    };
    let initial = [
        place(7, 0, 0),
        place(7, 1, 1),
        place(7, 2, 1),
        place(5, 0, 4),
        place(5, 1, 5),
        place(5, 2, 5),
        place(2, 0, 0),
        place(2, 1, 2),
        place(2, 2, 3),
    ];
    let fixed = batch_hash(ReplanPolicy::Static, &[7, 5, 2], &initial);

    // (ii) Delta-driven serving from a caller-ordered start: joins,
    // leaves, the varying member 7, steady members 1/9, empty
    // deltas over changed and unchanged estimates, an unknown
    // leaver and a re-added member.
    let deltas = driver_hash(
        &[5, 2],
        &[
            Step::Update(&[9, 7], &[]),
            Step::Update(&[], &[]),
            Step::Update(&[], &[]),
            Step::Update(&[1], &[5]),
            Step::Coast,
            Step::Update(&[], &[2, 42]),
            Step::Update(&[9], &[]),
            Step::Update(&[5, 2], &[7]),
        ],
    );

    // (iii) The same, with `set_membership` handing over the
    // current members reordered (9 before 1: equal estimates, so
    // only the order differs) and deltas resuming after it. No first
    // delta after a handover removes a member: the delta engine of
    // the recorded code seeds itself from the members *before*
    // applying that delta's removals, and keeps placing the leaver.
    let handover = driver_hash(
        &[5, 2],
        &[
            Step::Update(&[9, 7], &[]),
            Step::Update(&[1], &[5]),
            Step::Set(&[9, 2, 7, 1]),
            Step::Update(&[4], &[]),
            Step::Update(&[], &[]),
            Step::Set(&[4, 1, 9]),
            Step::Update(&[2], &[]),
            Step::Update(&[], &[4]),
        ],
    );

    assert_eq!(
        [per_gop, fixed, deltas, handover],
        [
            0x7c87bcfcabe3a89c,
            0xa546d412ce31ed53,
            0x6b1573c0763851b4,
            0xc7128c9f85bdca87
        ],
        "placement-determined accounting moved: \
         {per_gop:#018x} {fixed:#018x} {deltas:#018x} {handover:#018x}"
    );
}
