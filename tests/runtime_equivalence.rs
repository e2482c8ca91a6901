//! Where work runs must not change what it produces: a frame whose
//! tiles are spread over the host's cores is the serial fold of its
//! tiles bit for bit, and the control plane's placement decisions
//! match their recorded hashes.

use medvt::core::{ContentAwareController, PipelineConfig};
use medvt::encoder::{
    encode_frame, encode_tile, EncodeController, EncodedFrame, EncoderConfig, FramePlan,
    FramePlanContext, FrameStats, GopStructure,
};
use medvt::frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt::frame::{Frame, FrameKind, Rect, Resolution};
use medvt::sched::WorkloadLut;

/// `encode_frame`'s contract restated serially: each tile encoded in
/// tile order on the calling thread, reconstructions stitched into a
/// black frame, stats, dominant vectors and bytes concatenated.
fn serial_fold(
    original: &Frame,
    refs: &[&Frame],
    kind: FrameKind,
    poc: usize,
    plan: &FramePlan,
    ecfg: &EncoderConfig,
) -> EncodedFrame {
    let mut recon = Frame::black(original.resolution());
    let mut stats = FrameStats { poc, tiles: vec![] };
    let (mut dominant_mvs, mut bytes) = (vec![], vec![]);
    for (tile, config) in plan.tiling().iter().zip(plan.configs()) {
        let outcome = encode_tile(original, refs, kind, *tile, config, ecfg);
        let c_rect = Rect::new(tile.x / 2, tile.y / 2, tile.w / 2, tile.h / 2);
        recon.y_mut().write_rect(tile, outcome.recon_y.samples());
        recon.u_mut().write_rect(&c_rect, outcome.recon_u.samples());
        recon.v_mut().write_rect(&c_rect, outcome.recon_v.samples());
        stats.tiles.push(outcome.stats);
        dominant_mvs.push(outcome.dominant_mv);
        bytes.extend_from_slice(&outcome.bytes);
    }
    EncodedFrame {
        recon,
        stats,
        dominant_mvs,
        bytes,
    }
}

/// An IDR and one random-access GOP (its P anchor and seven B frames)
/// planned by the content-aware pipeline, whose tiles are non-uniform:
/// every frame `encode_frame` fans out equals the serial fold of its
/// tiles in bitstream, reconstruction, stats and dominant motion.
#[test]
fn encode_frame_matches_serial_tile_fold() {
    let video = PhantomVideo::builder(BodyPart::Cardiac)
        .resolution(Resolution::new(256, 192))
        .motion(MotionPattern::Pan { dx: 1.0, dy: 0.5 })
        .seed(41)
        .build();
    let cfg = PipelineConfig {
        analyzer: medvt::analyze::AnalyzerConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut ctl = ContentAwareController::new(cfg, WorkloadLut::new());
    let ecfg = EncoderConfig::default();
    let gop = GopStructure::random_access(ecfg.gop_size);
    // (display offset, kind, reference offsets, GOP-first-coded).
    let mut order = vec![(0, FrameKind::Intra, vec![], true)];
    for (i, e) in gop.entries().iter().enumerate() {
        order.push((e.offset, e.kind, e.ref_offsets.clone(), i == 0));
    }
    let mut recons: Vec<Option<Frame>> = vec![None; ecfg.gop_size + 1];
    let (mut kinds, mut non_uniform) = (vec![], false);
    for (poc, kind, ref_offsets, gop_first_coded) in order {
        let frame = video.render(poc);
        let refs: Vec<&Frame> = ref_offsets
            .iter()
            .map(|&r| recons[r].as_ref().expect("reference coded before use"))
            .collect();
        let plan = ctl.plan(&FramePlanContext {
            poc,
            kind,
            gop_start: 0,
            offset_in_gop: poc,
            gop_first_coded,
            frame: &frame,
            prev_anchor: recons[0].as_ref(),
        });
        let tiles = plan.tiling().tiles();
        non_uniform |= tiles.iter().any(|t| (t.w, t.h) != (tiles[0].w, tiles[0].h));
        let fanned = encode_frame(&frame, &refs, kind, poc, &plan, &ecfg);
        let serial = serial_fold(&frame, &refs, kind, poc, &plan, &ecfg);
        assert_eq!(fanned.bytes, serial.bytes, "poc {poc}: bitstream");
        assert_eq!(fanned.recon, serial.recon, "poc {poc}: reconstruction");
        assert_eq!(fanned.stats, serial.stats, "poc {poc}: stats");
        assert_eq!(
            fanned.dominant_mvs, serial.dominant_mvs,
            "poc {poc}: motion"
        );
        assert!(fanned.stats.psnr() > 30.0, "poc {poc}: stitched recon");
        ctl.frame_done(poc, &fanned.stats, &fanned.dominant_mvs);
        kinds.push(kind);
        recons[poc] = Some(fanned.recon);
    }
    for kind in [
        FrameKind::Intra,
        FrameKind::Predicted,
        FrameKind::BiPredicted,
    ] {
        assert!(kinds.contains(&kind), "{kind:?} frames covered");
    }
    assert!(non_uniform, "the content-aware tiling is non-uniform");
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
        DemandSource, ExecutionBackend, LoopDriver, LoopReport, ReplanPolicy, ServerLoopConfig,
        SimBackend,
    };
    use medvt::sched::Placement;
    use medvt::telemetry::{FlightRecorder, Recorder};

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
    pub(super) struct Script;

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

        /// A token job, so pool backends have something to run.
        fn work_for(
            &self,
            user: usize,
            slot: usize,
            thread: usize,
        ) -> Option<Box<dyn FnOnce() + Send + '_>> {
            Some(Box::new(move || {
                std::hint::black_box(user ^ slot ^ thread);
            }))
        }
    }

    pub(super) fn platform() -> Platform {
        Platform::big_little().socket_view(0)
    }

    fn backend() -> SimBackend {
        SimBackend::new(platform(), PowerModel::default())
    }

    pub(super) fn cfg(slots: usize, replan: ReplanPolicy) -> ServerLoopConfig {
        ServerLoopConfig {
            fps: 24.0,
            slots,
            policy: DvfsPolicy::StretchToDeadline,
            replan,
            gop_slots: GOP,
            window_slots: None,
        }
    }

    /// Energy and deadline totals of a report — everything the
    /// placements determine, nothing the replan *count* does.
    fn hash_totals(hash: &mut u64, report: &LoopReport) {
        fnv1a(hash, &report.energy_j.to_bits().to_le_bytes());
        for n in [
            report.miss_slots,
            report.windows,
            report.window_misses,
            report.active_core_slots,
        ] {
            fnv1a(hash, &(n as u64).to_le_bytes());
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
        hash_totals(&mut hash, &report);
        hash
    }

    /// One step of a membership script, applied at a GOP boundary.
    pub(super) enum Step {
        Update(&'static [usize], &'static [usize]),
        /// No call at all: the driver crosses the boundary on its own.
        Coast,
    }

    impl Step {
        pub(super) fn apply<B: ExecutionBackend, R: Recorder>(
            &self,
            driver: &mut LoopDriver<B, R>,
        ) {
            match self {
                Step::Update(add, remove) => driver.update_membership(add, remove),
                Step::Coast => {}
            }
        }
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
            step.apply(&mut driver);
            driver.advance(&Script, GOP);
        }
        let report = driver.into_report().modeled_only();
        assert_eq!(rec.dropped(), 0, "ring must retain the whole stream");
        let mut hash = 0xcbf29ce484222325;
        for event in rec.events() {
            for word in event.encode() {
                fnv1a(&mut hash, &word.to_le_bytes());
            }
        }
        hash_totals(&mut hash, &report);
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
    let sorted = batch_hash(
        ReplanPolicy::PerGop { headroom: 1.1 },
        &[1, 2, 5, 7, 9],
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

    assert_eq!(
        [per_gop, fixed, deltas],
        [0xa7089b69a9eeabc8, 0x00bdf6496510d54e, 0x17fdeed8f0f0c81c],
        "placement-determined accounting moved: \
         {per_gop:#018x} {fixed:#018x} {deltas:#018x}"
    );
    assert_eq!(
        sorted, 0xafd3dc07024a69bc,
        "id-sorted start: {sorted:#018x}"
    );
}

/// Windows of 20 slots do not line up with GOPs of 8, and `advance`
/// steps are uneven, so the pool's runs are cut at all three kinds of
/// boundary. A pool driver and an analytical driver given one
/// membership script still report the same modeled statistics and
/// window ends, and every pool window that modeled work measured some.
#[test]
fn pool_and_sim_drivers_agree_on_misaligned_windows() {
    use medvt::mpsoc::PowerModel;
    use medvt::runtime::{
        ExecutionBackend, LoopDriver, LoopReport, ReplanPolicy, SimBackend, ThreadPoolBackend,
    };
    use placement_traces::{cfg, platform, Script, Step};

    fn drive<B: ExecutionBackend>(backend: B) -> LoopReport {
        let mut c = cfg(0, ReplanPolicy::PerGop { headroom: 1.1 });
        c.window_slots = Some(20);
        let mut driver = LoopDriver::new(backend, c, vec![5, 2], Vec::new());
        let script = [
            (Step::Coast, 5),
            (Step::Update(&[9, 7], &[]), 11),
            (Step::Coast, 3),
            (Step::Update(&[1], &[5]), 13),
            (Step::Update(&[4], &[9]), 7),
            (Step::Update(&[], &[2]), 16),
        ];
        for (step, slots) in script {
            step.apply(&mut driver);
            driver.advance(&Script, slots);
        }
        driver.into_report()
    }

    let sim = drive(SimBackend::new(platform(), PowerModel::default()));
    let pool = drive(ThreadPoolBackend::with_workers(
        platform(),
        PowerModel::default(),
        2,
    ));
    assert_eq!(pool.modeled_only(), sim.modeled_only());
    let ends =
        |r: &LoopReport| -> Vec<usize> { r.window_times.iter().map(|w| w.end_slot).collect() };
    assert_eq!(ends(&sim), [20, 40, 55]);
    assert_eq!(ends(&pool), ends(&sim));
    assert!(sim.window_times.iter().all(|w| w.modeled_secs > 0.0));
    for w in &pool.window_times {
        assert!(
            w.wall_secs > 0.0,
            "window ending at {} ran jobs",
            w.end_slot
        );
    }
    let total: f64 = pool.window_times.iter().map(|w| w.wall_secs).sum();
    assert!((total - pool.wall_secs).abs() <= 1e-9 * pool.wall_secs);
}

/// The driver's per-slot and per-window accounting, pinned to literals
/// recorded before it was flattened: on a quad core, user 1's two
/// threads sit on cores 0 and 2 with user 2's thread on core 1 between
/// them, steady user 1 and varying user 2 share core 0, user 2 leaves
/// and re-joins inside the window ending at 40, user 3 departs for good
/// mid-window, and the run ends at a window boundary (60) in the middle
/// of a GOP.
mod driver_accounting {
    use medvt::mpsoc::{DvfsPolicy, Platform, PowerModel};
    use medvt::runtime::{DemandSource, LoopDriver, ReplanPolicy, ServerLoopConfig, SimBackend};
    use medvt::sched::Placement;

    /// Every user the script ever admits.
    const USERS: [usize; 4] = [1, 2, 3, 5];

    /// `u`'s current run of missed windows on `driver`.
    fn streak(driver: &LoopDriver<SimBackend>, u: usize) -> usize {
        driver.miss_streak(u)
    }

    /// Exact binary fractions of a second (slot = 1/24 s):
    ///
    /// * 1 — two tiles of 1/128, promised steady;
    /// * 2 — two tiles alternating 1/128 and 3/128 per slot;
    /// * 3 — one tile, 3/64 (over a slot) at slots 18 and 19 of every
    ///   40, 1/64 otherwise: its carry crosses the window end at 20;
    /// * anyone else — one steady tile of 1/128.
    struct Pin;

    impl DemandSource for Pin {
        fn demand_at(&self, user: usize, slot: usize) -> Vec<f64> {
            let d = |k: f64| k / 128.0;
            match user {
                1 => vec![d(1.0); 2],
                2 => vec![
                    if slot.is_multiple_of(2) {
                        d(1.0)
                    } else {
                        d(3.0)
                    };
                    2
                ],
                3 => vec![if matches!(slot % 40, 18 | 19) {
                    d(6.0)
                } else {
                    d(2.0)
                }],
                _ => vec![d(1.0)],
            }
        }

        fn steady(&self, user: usize) -> bool {
            !matches!(user, 2 | 3)
        }
    }

    #[test]
    fn driver_accounting_matches_its_golden() {
        let place = |user, thread, core| Placement {
            user,
            thread,
            core,
            secs: 1.0 / 64.0,
        };
        let initial = vec![
            place(1, 0, 0),
            place(2, 0, 1),
            place(1, 1, 2),
            place(2, 1, 0),
            place(3, 0, 3),
        ];
        let cfg = ServerLoopConfig {
            fps: 24.0,
            slots: 0,
            policy: DvfsPolicy::StretchToDeadline,
            replan: ReplanPolicy::Static,
            gop_slots: 8,
            window_slots: Some(20),
        };
        let backend = SimBackend::new(Platform::quad_core(), PowerModel::default());
        let mut driver = LoopDriver::new(backend, cfg, vec![1, 2, 3], initial);
        let mut streaks = Vec::new();
        let mut counts = Vec::new();
        driver.advance(&Pin, 20);
        streaks.push(driver.miss_streaks().collect::<Vec<_>>());
        counts.push(USERS.map(|u| streak(&driver, u)));
        driver.advance(&Pin, 4);
        driver.update_membership(&[], &[2]);
        driver.advance(&Pin, 8);
        driver.update_membership(&[2], &[]);
        driver.advance(&Pin, 8);
        streaks.push(driver.miss_streaks().collect::<Vec<_>>());
        counts.push(USERS.map(|u| streak(&driver, u)));
        driver.advance(&Pin, 4);
        driver.update_membership(&[5], &[3]);
        driver.advance(&Pin, 16);
        streaks.push(driver.miss_streaks().collect::<Vec<_>>());
        counts.push(USERS.map(|u| streak(&driver, u)));
        let report = driver.into_report();
        let totals = [
            report.energy_j.to_bits(),
            report.miss_slots as u64,
            report.windows as u64,
            report.window_misses as u64,
            report.active_core_slots as u64,
            report.slots as u64,
        ];
        // Window 20 misses on user 3's core alone; window 40 misses
        // users 1-3 (shared-core fate after the re-placements); window
        // 60 is on time for everyone, departed user 3 included.
        assert_eq!(streaks, [vec![3], vec![1, 2, 3], vec![]]);
        // User 3 missed both windows it worked in before the last.
        assert_eq!(counts, [[0, 0, 1, 0], [1, 1, 2, 0], [0, 0, 0, 0]]);
        assert_eq!(totals, [0x404c2a72dd743ea4, 8, 10, 2, 160, 60]);
    }
}
