//! Stage replays of the traced run: single layers timed from outside by
//! calling their public functions on inputs drawn from the workload
//! itself (its frames, its demands, its decision stream). Each replay
//! repeats until its share of the time budget is used.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use medvt_admission::{EventKind, OnlineReport, UserRequest, Workload};
use medvt_analyze::{measure_texture, probe_motion, Retiler};
use medvt_cluster::{LeasePool, Reassembler};
use medvt_encoder::bits::{code_block, BitWriter};
use medvt_encoder::quant::quantize_into;
use medvt_encoder::transform::forward_into;
use medvt_encoder::{
    code_residual_into, plan_segments, IntraRefs, Qp, ResidualScratch, TileConfig, TxPath,
};
use medvt_frame::{Plane, Rect};
use medvt_motion::{sad, satd, CostMetric, MotionVector, SearchContext};
use medvt_mpsoc::PowerModel;
use medvt_runtime::{
    DemandSource, ExecutionBackend, LoopDriver, ReplanPolicy, ServerLoopConfig, SimBackend,
    WorkUnit,
};
use medvt_sched::{place_threads_on, IncrementalPlacer, UserDemand};
use medvt_telemetry::Histogram;

use crate::live::{analyzer_config, online_config, pool_shard, socket64, Clip, FPS, GOP_SLOTS};
use crate::run::{replay_for, RunArgs, Traced};
use crate::stats::percentile;

/// Seconds each stage replay may use: a quarter of the run's seconds,
/// split over `replays` stages.
pub fn replay_budget_s(args: &RunArgs, replays: usize) -> f64 {
    if args.smoke {
        0.005
    } else {
        (args.seconds * 0.25 / replays as f64).max(0.02)
    }
}

fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Controller counters and timings of one `OnlineReport`.
pub fn admission_counters(out: &mut Traced, report: &OnlineReport, boundary_ns: &Histogram) {
    let c = &report.controller;
    let boundaries = c.boundaries.max(1) as f64;
    out.set(
        "admission.queue_ns_per_boundary",
        c.queue_ns as f64 / boundaries,
    );
    out.set(
        "admission.placement_ns_per_boundary",
        c.placement_ns as f64 / boundaries,
    );
    out.set("admission.replans", c.replans as f64);
    out.set("admission.decisions", c.decisions as f64);
    out.set(
        "admission.boundary_us_p50",
        boundary_ns.quantile(0.50) as f64 / 1e3,
    );
    out.set(
        "admission.boundary_us_p99",
        boundary_ns.quantile(0.99) as f64 / 1e3,
    );
    out.set("admission.admits", report.admissions as f64);
    out.set("admission.evicts", report.evictions as f64);
    let downgrades = report
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Downgrade)
        .count();
    out.set("admission.downgrades", downgrades as f64);
    out.set("admission.departs", report.departures as f64);
    out.set("admission.abandons", report.abandoned as f64);
    out.set(
        "admission.mean_queue_wait_slots",
        report.mean_queue_wait_slots,
    );
}

/// `analyze`: the re-tiler on GOP-first frames, and its two probes on
/// the profiled tiles.
pub fn analysis(out: &mut Traced, clips: &[Clip], budget_s: f64) {
    let cfg = analyzer_config();
    let retiler = Retiler::new(cfg).expect("the benchmark's analyzer config is valid");
    // (current luma, previous luma) of every GOP-first frame.
    let pairs: Vec<(&Plane, &Plane)> = clips
        .iter()
        .flat_map(|c| {
            let frames = c.video.frames();
            (GOP_SLOTS..frames.len())
                .step_by(GOP_SLOTS)
                .map(move |f| (frames[f].y(), frames[f - GOP_SLOTS].y()))
        })
        .collect();
    let (calls, secs) = replay_for(budget_s, || {
        for &(cur, prev) in &pairs {
            black_box(retiler.retile(cur, Some(prev)));
        }
    });
    out.set(
        "analyze.retile_ms_per_frame",
        secs * 1e3 / (calls as usize * pairs.len()) as f64,
    );

    // (clip, frame, tile rect) of the profiles' tilings.
    let tiles: Vec<(&Plane, &Plane, Rect)> = clips
        .iter()
        .flat_map(|c| {
            let frames = c.video.frames();
            c.profile
                .frames
                .iter()
                .filter(|r| r.poc > 0 && r.poc % GOP_SLOTS == 0)
                .flat_map(move |r| {
                    r.tiles
                        .iter()
                        .map(move |t| (frames[r.poc].y(), frames[r.poc - 1].y(), t.rect))
                })
        })
        .collect();
    let (calls, secs) = replay_for(budget_s, || {
        for (cur, _, rect) in &tiles {
            black_box(measure_texture(cur, rect, &cfg));
        }
    });
    out.set(
        "analyze.texture_us_per_tile",
        secs * 1e6 / (calls as usize * tiles.len()) as f64,
    );
    let (calls, secs) = replay_for(budget_s, || {
        for (cur, prev, rect) in &tiles {
            black_box(probe_motion(cur, prev, rect, &cfg));
        }
    });
    out.set(
        "analyze.motion_probe_us_per_tile",
        secs * 1e6 / (calls as usize * tiles.len()) as f64,
    );
    let (tile_sum, frame_sum) = clips
        .iter()
        .flat_map(|c| &c.profile.frames)
        .fold((0usize, 0usize), |(t, f), r| (t + r.tiles.len(), f + 1));
    out.set(
        "analyze.tiles_per_frame",
        tile_sum as f64 / frame_sum as f64,
    );
}

/// Up to 64 16x16 luma blocks per clip, spread over its frames and
/// away from the flat vignette corners.
fn sample_blocks(clips: &[Clip]) -> Vec<(usize, usize, Rect)> {
    let mut blocks = Vec::new();
    for (c, clip) in clips.iter().enumerate() {
        let res = clip.video.resolution();
        for k in 0..64usize {
            let frame = 1 + (k * 7) % (clip.video.len() - 1);
            let bx = (res.width / 4 + (k * 48) % (res.width / 2)) / 16 * 16;
            let by = (res.height / 4 + (k * 80) % (res.height / 2)) / 16 * 16;
            blocks.push((c, frame, Rect::new(bx, by, 16, 16)));
        }
    }
    blocks
}

/// `encoder` stage rates on blocks of the workload's own frames:
/// transform+quant+reconstruct (`code_residual_into`), entropy coding
/// (`bits::code_block`) and intra mode decision
/// (`IntraRefs::best_mode_into`). The residual is against the intra
/// prediction on all-intra workloads and against the collocated block
/// of the previous frame otherwise.
pub fn encoder_stages(out: &mut Traced, clips: &[Clip], all_intra: bool, budget_s: f64) {
    let qp = Qp::default();
    let blocks = sample_blocks(clips);
    let frame_rect = clips[0].video.resolution().rect();
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(blocks.len());
    let mut refs = IntraRefs::gather(clips[0].video.frames()[0].y(), &blocks[0].2, &frame_rect);
    let (mut pred, mut tmp) = (Vec::new(), Vec::new());
    for &(c, f, rect) in &blocks {
        let frames = clips[c].video.frames();
        let orig = frames[f].y().copy_rect(&rect);
        let prediction = if all_intra {
            refs.regather(frames[f].y(), &rect, &frame_rect);
            refs.best_mode_into(&orig, rect.w, rect.h, &mut pred, &mut tmp);
            pred.clone()
        } else {
            frames[f - 1].y().copy_rect(&rect)
        };
        pairs.push((orig, prediction));
    }

    let mut scratch = ResidualScratch::default();
    let mut recon = Vec::new();
    let mut writer = BitWriter::new();
    let (calls, secs) = replay_for(budget_s, || {
        writer.clear();
        for (orig, prediction) in &pairs {
            black_box(code_residual_into(
                orig,
                prediction,
                16,
                16,
                8,
                qp,
                TxPath::F64,
                &mut writer,
                &mut scratch,
                &mut recon,
            ));
        }
    });
    out.set(
        "encoder.txq_blocks_per_s",
        (calls as usize * pairs.len()) as f64 / secs,
    );

    // Quantized 8x8 levels of the same residuals, for the entropy coder
    // alone.
    let mut levels: Vec<Vec<i32>> = Vec::new();
    let (mut coeffs, mut dct_tmp, mut quantized) = (Vec::new(), Vec::new(), Vec::new());
    for (orig, prediction) in &pairs {
        for (sy, sx) in [(0usize, 0usize), (0, 8), (8, 0), (8, 8)] {
            let residual: Vec<i32> = (0..64)
                .map(|i| {
                    let at = (sy + i / 8) * 16 + sx + i % 8;
                    i32::from(orig[at]) - i32::from(prediction[at])
                })
                .collect();
            forward_into(8, &residual, &mut coeffs, &mut dct_tmp);
            quantize_into(&coeffs, qp, &mut quantized);
            levels.push(quantized.clone());
        }
    }
    let mut bits = 0u64;
    let (_, secs) = replay_for(budget_s, || {
        writer.clear();
        for block in &levels {
            bits += code_block(black_box(block), 8, &mut writer);
        }
    });
    out.set("encoder.entropy_mbit_per_s", bits as f64 / 1e6 / secs);

    let (calls, secs) = replay_for(budget_s, || {
        for (&(c, f, rect), (orig, _)) in blocks.iter().zip(&pairs) {
            refs.regather(clips[c].video.frames()[f].y(), &rect, &frame_rect);
            black_box(refs.best_mode_into(orig, rect.w, rect.h, &mut pred, &mut tmp));
        }
    });
    out.set(
        "encoder.intra_us_per_block",
        secs * 1e6 / (calls as usize * blocks.len()) as f64,
    );
}

/// `motion`: the live path's search (the default `TileConfig`'s
/// `SearchSpec::instantiate()`) replayed on the workload's blocks, and
/// the raw SAD/SATD kernel rates on the same blocks.
pub fn motion_stages(out: &mut Traced, clips: &[Clip], budget_s: f64) {
    let tile_cfg = TileConfig::default();
    let algo = tile_cfg.search.instantiate();
    let blocks = sample_blocks(clips);
    let mut evaluations = 0u64;
    let (calls, secs) = replay_for(budget_s, || {
        evaluations = 0;
        let mut predictor = MotionVector::ZERO;
        for &(c, f, rect) in &blocks {
            let frames = clips[c].video.frames();
            let ctx = SearchContext::new(
                frames[f].y(),
                frames[f - 1].y(),
                rect,
                tile_cfg.window,
                CostMetric::Sad,
                predictor,
            );
            predictor = black_box(algo.search(&ctx)).mv;
            evaluations += ctx.evaluations();
        }
    });
    let searched = (calls as usize * blocks.len()) as f64;
    out.set("motion.search_us_per_block", secs * 1e6 / searched);
    out.set(
        "motion.evals_per_block",
        evaluations as f64 / blocks.len() as f64,
    );

    let candidates: Vec<MotionVector> = (-3i16..=3)
        .flat_map(|y| (-3i16..=3).map(move |x| MotionVector::new(x, y)))
        .collect();
    for (name, kernel) in [
        (
            "motion.sad_mcand_per_s",
            sad as fn(&Plane, &Plane, &Rect, MotionVector) -> u64,
        ),
        ("motion.satd_mcand_per_s", satd),
    ] {
        let (calls, secs) = replay_for(budget_s, || {
            for &(c, f, rect) in &blocks {
                let frames = clips[c].video.frames();
                for &mv in &candidates {
                    black_box(kernel(frames[f].y(), frames[f - 1].y(), &rect, mv));
                }
            }
        });
        let evaluated = (calls as usize * blocks.len() * candidates.len()) as f64;
        out.set(name, evaluated / 1e6 / secs);
    }
}

/// `runtime`: the pool's dispatch + barrier cost per work unit, with
/// jobs that do nothing.
pub fn pool_dispatch(out: &mut Traced, units_per_slot: usize, budget_s: f64) {
    let mut backend = pool_shard();
    let cfg = online_config(GOP_SLOTS);
    let units = units_per_slot.max(1);
    let cores = backend.cores();
    let (calls, secs) = replay_for(budget_s, || {
        let work: Vec<WorkUnit<'_>> = (0..units)
            .map(|i| WorkUnit {
                user: i,
                thread: 0,
                core: i % cores,
                cost_fmax_secs: 1e-6,
                job: Some(Box::new(|| {
                    black_box(0u8);
                })),
            })
            .collect();
        black_box(backend.execute_slot(cfg.policy, 1.0 / FPS, work));
    });
    out.set(
        "runtime.dispatch_us_per_unit",
        secs * 1e6 / (calls as usize * units) as f64,
    );
}

/// The controller's view of a trace: user → workload, staggered three
/// slots per user (the convention of `admission::serve_online`).
pub struct Source<'a, W> {
    pub workloads: &'a [W],
    pub profile_of: Vec<usize>,
}

impl<'a, W: Workload> Source<'a, W> {
    pub fn new(workloads: &'a [W], trace: &[UserRequest]) -> Self {
        let mut profile_of = vec![0; trace.iter().map(|r| r.user + 1).max().unwrap_or(0)];
        for r in trace {
            profile_of[r.user] = r.profile;
        }
        Source {
            workloads,
            profile_of,
        }
    }

    /// The padded GOP-mean demand the loop driver hands the placer.
    fn gop_demand(&self, user: usize, gop_start: usize, headroom: f64) -> UserDemand {
        let mut acc: Vec<f64> = Vec::new();
        for slot in gop_start..gop_start + GOP_SLOTS {
            let d = self.demand_at(user, slot);
            if d.len() > acc.len() {
                acc.resize(d.len(), 0.0);
            }
            for (a, s) in acc.iter_mut().zip(&d) {
                *a += s;
            }
        }
        let scale = headroom / GOP_SLOTS as f64;
        UserDemand::new(user, acc.iter().map(|a| a * scale).collect())
    }
}

impl<W: Workload> DemandSource for Source<'_, W> {
    fn demand_at(&self, user: usize, slot: usize) -> Vec<f64> {
        self.workloads[self.profile_of[user]].demand_at(slot + user * 3)
    }

    fn steady(&self, user: usize) -> bool {
        self.workloads[self.profile_of[user]].steady()
    }
}

/// `runtime::LoopDriver::advance` on an analytical shard with a fixed
/// membership: the per-slot stepping cost under `serve_online`.
pub fn loop_driver<W: Workload>(
    out: &mut Traced,
    workloads: &[W],
    members: &[UserRequest],
    budget_s: f64,
) {
    let source = Source::new(workloads, members);
    let cfg = online_config(usize::MAX);
    let loop_cfg = ServerLoopConfig {
        fps: cfg.fps,
        slots: cfg.horizon_slots,
        policy: cfg.policy,
        replan: ReplanPolicy::PerGop {
            headroom: cfg.headroom,
        },
        gop_slots: cfg.gop_slots,
        window_slots: None,
    };
    let backend = SimBackend::new(socket64(), PowerModel::default());
    let mut driver = LoopDriver::new(backend, loop_cfg, Vec::new(), Vec::new());
    let users: Vec<usize> = members.iter().map(|r| r.user).collect();
    driver.update_membership(&users, &[]);
    let (calls, secs) = replay_for(budget_s, || {
        driver.advance(&source, cfg.gop_slots);
    });
    out.set(
        "runtime.driver_us_per_slot",
        secs * 1e6 / (calls as usize * cfg.gop_slots) as f64,
    );
}

/// One GOP boundary's change to a shard's membership.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    pub set: Vec<UserDemand>,
    pub remove: Vec<usize>,
}

/// `sched`: the incremental placer under `script`, against placing the
/// same member sets from scratch.
pub fn sched_script(out: &mut Traced, speeds: &[f64], script: &[Delta], budget_s: f64) {
    if script.is_empty() {
        return;
    }
    let slot_secs = 1.0 / FPS;
    let mut incremental_us = Vec::new();
    let mut replan_us = Vec::new();
    // One lap replays the whole script on a fresh placer and returns
    // (threads replayed, final imbalance) — both exact.
    let mut lap = || {
        let mut placer = IncrementalPlacer::new(speeds, slot_secs);
        let mut members: BTreeMap<usize, UserDemand> = BTreeMap::new();
        let mut replayed = 0usize;
        for delta in script {
            let t0 = Instant::now();
            for &u in &delta.remove {
                placer.remove_user(u);
            }
            for d in &delta.set {
                placer.set_user(d.clone());
            }
            black_box(placer.refresh());
            incremental_us.push(t0.elapsed().as_secs_f64() * 1e6);
            replayed += placer.last_replayed();
            for u in &delta.remove {
                members.remove(u);
            }
            for d in &delta.set {
                members.insert(d.user, d.clone());
            }
            let demands: Vec<UserDemand> = members.values().cloned().collect();
            let t0 = Instant::now();
            black_box(place_threads_on(speeds, slot_secs, &demands));
            replan_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        (replayed, placer.allocation().imbalance())
    };
    let (replayed, imbalance) = lap();
    replay_for(budget_s, || {
        lap();
    });
    out.set("sched.incremental_us_p50", p50(&incremental_us));
    out.set("sched.replan_us_p50", p50(&replan_us));
    out.set(
        "sched.replayed_per_delta",
        replayed as f64 / script.len() as f64,
    );
    out.set("sched.imbalance", imbalance);
}

/// The script a live pass hands its one shard: everyone joins at slot
/// 0, then every boundary re-estimates every (non-steady) member.
pub fn sched_from_live<W: Workload>(
    out: &mut Traced,
    workloads: &[W],
    members: &[UserRequest],
    budget_s: f64,
) {
    let source = Source::new(workloads, members);
    let headroom = online_config(0).headroom;
    let script: Vec<Delta> = (0..12)
        .map(|gop| Delta {
            set: members
                .iter()
                .map(|r| source.gop_demand(r.user, gop * GOP_SLOTS, headroom))
                .collect(),
            remove: Vec::new(),
        })
        .collect();
    sched_script(out, &socket64().core_speeds(), &script, budget_s);
}

/// `cluster`: the lease pool's grant/complete cycle on synthetic
/// instants, reassembly of `segments`, and segment planning.
pub fn cluster_stages(
    out: &mut Traced,
    total_slots: usize,
    gops_per_segment: usize,
    segments: &[Vec<u8>],
    budget_s: f64,
) {
    let (calls, secs) = replay_for(budget_s, || {
        black_box(plan_segments(total_slots, GOP_SLOTS, gops_per_segment));
    });
    out.set("cluster.plan_us", secs * 1e6 / calls as f64);

    let plan = plan_segments(total_slots, GOP_SLOTS, gops_per_segment);
    let epoch = Instant::now();
    let (calls, secs) = replay_for(budget_s, || {
        let mut pool = LeasePool::new(
            plan.len(),
            Duration::from_millis(1500),
            Duration::from_millis(5),
            4,
        );
        let mut now = epoch;
        while let Some((segment, attempt)) = pool.next_ready(now) {
            pool.grant(segment, attempt, segment % 2, now);
            now += Duration::from_millis(1);
            black_box(pool.complete(segment));
        }
    });
    out.set(
        "cluster.lease_ops_per_s",
        (calls as usize * plan.len()) as f64 / secs,
    );

    let bytes: usize = segments.iter().map(Vec::len).sum();
    let (calls, secs) = replay_for(budget_s, || {
        let mut reassembler = Reassembler::new(plan.clone());
        for (i, segment) in segments.iter().enumerate() {
            reassembler
                .accept(i, segment.clone())
                .expect("fresh reassembler has no conflicting bytes");
        }
        black_box(reassembler.assemble());
    });
    out.set(
        "cluster.reassemble_mb_per_s",
        (calls as usize * bytes) as f64 / 1e6 / secs,
    );
}
