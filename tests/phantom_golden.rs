//! Phantom-synthesis golden: the canvas and every frame of the clips
//! the benchmark renders must not change by a single sample.
//!
//! Each case hashes (FNV-1a) the anatomy canvas `PhantomVideo::build`
//! renders, and the Y, U and V planes of every frame `capture` returns,
//! each plane's hash running over its frames in display order. The
//! cases restate the benchmark's clips (320x240 @ 24 fps, 33 frames,
//! seed 2018 + k for the k-th clip of a workload): `live_inter`'s
//! three, `live_intra`'s two and `cluster_failover`'s one. Seven more
//! run on a canvas whose height is not a multiple of 16: three cover
//! the motion patterns those leave out or only take by default (rotate,
//! breathe, pan-pause), three the views that shift the canvas by whole
//! samples — a still view, a whole-sample pan that runs past the canvas
//! margin (so border samples are clamped reads) and a half-sample pan
//! whose frames alternate between whole and fractional shifts — and one
//! a deep breath whose trough (scale 0.4) reads past the margin on all
//! four sides, so both axes of an unrotated view clamp.
//!
//! Rendering is a pure function of the configuration, however the work
//! is spread over threads. An intended change of the phantoms is the
//! only reason to regenerate the constants: run the test with
//! `MEDVT_PRINT_HASHES=1` and paste the printed table.

use medvt::frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt::frame::Resolution;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

const FRAMES: usize = 33;
const FPS: f64 = 24.0;
const BENCH_RES: Resolution = Resolution::new(320, 240);
/// Canvas 300x252: 252 rows are not a whole number of 16-row bands.
const ODD_RES: Resolution = Resolution::new(200, 152);

struct Case {
    name: &'static str,
    part: BodyPart,
    motion: Option<MotionPattern>,
    res: Resolution,
    seed: u64,
}

fn cases() -> Vec<Case> {
    let case = |name, part, motion, res, seed| Case {
        name,
        part,
        motion,
        res,
        seed,
    };
    vec![
        case(
            "live_inter/0",
            BodyPart::Cardiac,
            Some(MotionPattern::Pan { dx: 2.0, dy: 1.0 }),
            BENCH_RES,
            2018,
        ),
        case(
            "live_inter/1",
            BodyPart::Brain,
            Some(MotionPattern::Pan { dx: 1.0, dy: 0.0 }),
            BENCH_RES,
            2019,
        ),
        case("live_inter/2", BodyPart::LungChest, None, BENCH_RES, 2020),
        case(
            "live_intra/0",
            BodyPart::Bones,
            Some(MotionPattern::Still),
            BENCH_RES,
            2018,
        ),
        case(
            "live_intra/1",
            BodyPart::SpinalCord,
            Some(MotionPattern::Still),
            BENCH_RES,
            2019,
        ),
        case(
            "cluster_failover/0",
            BodyPart::Brain,
            Some(MotionPattern::Pan { dx: 1.0, dy: 0.0 }),
            BENCH_RES,
            2018,
        ),
        case(
            "rotate",
            BodyPart::Brain,
            Some(MotionPattern::Rotate { deg_per_frame: 0.6 }),
            ODD_RES,
            7,
        ),
        case(
            "breathe",
            BodyPart::Cardiac,
            Some(MotionPattern::Breathe {
                amplitude: 0.04,
                period: 24.0,
            }),
            ODD_RES,
            8,
        ),
        case(
            "pan_pause",
            BodyPart::LigamentTendon,
            Some(MotionPattern::PanPause {
                dx: 0.9,
                dy: 0.45,
                move_frames: 24,
                pause_frames: 24,
            }),
            ODD_RES,
            9,
        ),
        case(
            "still_odd",
            BodyPart::Bones,
            Some(MotionPattern::Still),
            ODD_RES,
            10,
        ),
        // Margin 50: from frame 17 on, the view reads past the canvas edge.
        case(
            "pan_past_margin",
            BodyPart::SpinalCord,
            Some(MotionPattern::Pan { dx: 3.0, dy: -2.0 }),
            ODD_RES,
            11,
        ),
        case(
            "pan_half_sample",
            BodyPart::Brain,
            Some(MotionPattern::Pan { dx: 0.5, dy: 0.25 }),
            ODD_RES,
            12,
        ),
        // Trough at frame 18 (scale 0.4): the view reads past the
        // 50-sample margin on all four sides.
        case(
            "breathe_past_margin",
            BodyPart::LungChest,
            Some(MotionPattern::Breathe {
                amplitude: 0.6,
                period: 24.0,
            }),
            ODD_RES,
            13,
        ),
    ]
}

/// `[canvas, Y, U, V]` hashes of one case.
fn hashes(c: &Case) -> [u64; 4] {
    let mut builder = PhantomVideo::builder(c.part)
        .resolution(c.res)
        .fps(FPS)
        .seed(c.seed);
    if let Some(m) = c.motion {
        builder = builder.motion(m);
    }
    let video = builder.build();
    let mut out = [FNV_OFFSET; 4];
    fnv1a(&mut out[0], video.canvas().samples());
    let clip = video.capture(FRAMES);
    assert_eq!(clip.len(), FRAMES, "{}: captured frames", c.name);
    for frame in clip.frames() {
        fnv1a(&mut out[1], frame.y().samples());
        fnv1a(&mut out[2], frame.u().samples());
        fnv1a(&mut out[3], frame.v().samples());
    }
    out
}

/// `(case, [canvas, Y, U, V])`. The first nine rows were recorded
/// before phantom rendering was spread over threads, the next three
/// before whole-sample views stopped going through the bilinear blend,
/// the last before unrotated views were sampled by column and row.
const GOLDEN: [(&str, [u64; 4]); 13] = [
    (
        "live_inter/0",
        [
            0xfe711e3cee304e06,
            0xb1e7a643ecd8d8d1,
            0xdff75aa18726a8a9,
            0x0559c3792ca655b4,
        ],
    ),
    (
        "live_inter/1",
        [
            0xf6a319075211dd9a,
            0xdc97fb28e7e72779,
            0x2a4c6022d482e8da,
            0xabb0287253897c9e,
        ],
    ),
    (
        "live_inter/2",
        [
            0x781c24d19154f344,
            0x03d624cc506dec90,
            0x5b57c0a726af12fd,
            0x2d26de1593a5ce8c,
        ],
    ),
    (
        "live_intra/0",
        [
            0xf4b6e79db9c0296c,
            0x31ae1f936e8bfe4c,
            0xacb74af67ef9da0c,
            0x71eb243032fe0ec7,
        ],
    ),
    (
        "live_intra/1",
        [
            0xd40c10cc24ff3f27,
            0x06cc3c3aceeb7ee3,
            0x1769ef110a67f28d,
            0x79eaedef597fcd1e,
        ],
    ),
    (
        "cluster_failover/0",
        [
            0x4d1f9be590c0ea9e,
            0x707e659c7a4caca7,
            0x89ed4a95dd9a36a9,
            0x8e36c3c75311ac43,
        ],
    ),
    (
        "rotate",
        [
            0xa858c12849047bb0,
            0xae258d52f2e65bef,
            0x1f6f512b6d4e2d36,
            0x14da296b3890888c,
        ],
    ),
    (
        "breathe",
        [
            0x9e7bc10eff3799a5,
            0x76a1f0fcc6858edc,
            0x50edc94ae0529838,
            0xa1643434986f921c,
        ],
    ),
    (
        "pan_pause",
        [
            0x33b3b3fe4e97ddc2,
            0xc02a35f1926ae650,
            0xb2743bd12f1d05a1,
            0x55aa62f02e5128ff,
        ],
    ),
    (
        "still_odd",
        [
            0x9deba8bc3c043b9a,
            0x1422f9e97830da1b,
            0x8e5f38824764d21a,
            0x1c04bc6cb37fb9d3,
        ],
    ),
    (
        "pan_past_margin",
        [
            0x9dff7c0b35a4e37c,
            0xb6a0effc9b9b32de,
            0xa988c71ef214cade,
            0x7203b43d9d88a149,
        ],
    ),
    (
        "pan_half_sample",
        [
            0x028ae62e191fb0e7,
            0x63d945c44853a966,
            0xffb5f7ac8fc33305,
            0x732dc34a7644c981,
        ],
    ),
    (
        "breathe_past_margin",
        [
            0xbc4a7ef69bb56d12,
            0x9489eb3f94eb600b,
            0xbea46f46f837cfff,
            0x145d7b7c219478f4,
        ],
    ),
];

#[test]
fn phantom_canvases_and_frames_match_golden() {
    let got: Vec<(&str, [u64; 4])> = cases().iter().map(|c| (c.name, hashes(c))).collect();
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        for (name, [canvas, y, u, v]) in &got {
            println!("    (\n        \"{name}\",\n        [{canvas:#018x}, {y:#018x}, {u:#018x}, {v:#018x}],\n    ),");
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "one golden row per case");
    for ((name, hash), (golden_name, golden)) in got.iter().zip(&GOLDEN) {
        assert_eq!(name, golden_name, "golden rows follow the case order");
        for (plane, (h, g)) in ["canvas", "Y", "U", "V"]
            .iter()
            .zip(hash.iter().zip(golden))
        {
            assert_eq!(h, g, "{name}: {plane} diverged from the recorded phantom");
        }
    }
}
