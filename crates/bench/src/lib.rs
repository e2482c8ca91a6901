//! Shared harness for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! The binaries honour two environment variables; values match
//! case-insensitively, and a value that is not listed here stops the
//! binary with a non-zero exit instead of falling back to the default:
//!
//! * `MEDVT_SCALE=full|quick` — `full` uses the paper's geometry
//!   (640x480, long clips; minutes of CPU), `quick` (default) runs a
//!   reduced geometry that preserves every trend in seconds.
//! * `MEDVT_OUT=dir` — where JSON result artifacts are written
//!   (default `target/experiments`).

#![warn(unreachable_pub)]

use medvt_analyze::AnalyzerConfig;
use medvt_core::{
    profile_video, Baseline19Controller, BaselineConfig, ContentAwareController, PipelineConfig,
    VideoProfile,
};
use medvt_encoder::EncoderConfig;
use medvt_frame::synth::{medical_suite, PhantomConfig, PhantomVideo};
use medvt_frame::{Resolution, VideoClip};
use medvt_sched::{LutBank, WorkloadLut};
use serde::Serialize;
use std::path::PathBuf;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced geometry: 320x240, short clips. Same trends, seconds of
    /// CPU.
    Quick,
    /// Paper geometry: 640x480, long clips.
    Full,
}

/// The value of environment variable `name` as read by `parse`, or
/// `default` when it is unset. A value `parse` rejects ends the process
/// with exit code 2: a mistyped knob must not silently run the default
/// experiment under the requested one's name.
fn env_choice<T>(name: &str, default: T, parse: fn(&str) -> Result<T, String>) -> T {
    let Some(raw) = std::env::var_os(name) else {
        return default;
    };
    parse(&raw.to_string_lossy()).unwrap_or_else(|err| {
        eprintln!("{name}: {err}");
        std::process::exit(2);
    })
}

fn parse_scale(value: &str) -> Result<Scale, String> {
    match value.to_ascii_lowercase().as_str() {
        "quick" => Ok(Scale::Quick),
        "full" => Ok(Scale::Full),
        _ => Err(format!("unknown scale {value:?}, expected quick or full")),
    }
}

impl Scale {
    /// Reads `MEDVT_SCALE` (default `quick`); exits on an unknown value.
    pub fn from_env() -> Scale {
        env_choice("MEDVT_SCALE", Scale::Quick, parse_scale)
    }

    /// Clip resolution at this scale.
    pub fn resolution(&self) -> Resolution {
        match self {
            Scale::Quick => Resolution::new(320, 240),
            Scale::Full => Resolution::VGA,
        }
    }

    /// Frames per profiled clip.
    pub fn frames(&self) -> usize {
        match self {
            Scale::Quick => 33, // IDR + 4 GOPs
            Scale::Full => 97,  // IDR + 12 GOPs
        }
    }

    /// Frames for the Table I ME sweep (paper: a 400-frame video).
    pub fn me_frames(&self) -> usize {
        match self {
            Scale::Quick => 25,
            Scale::Full => 401,
        }
    }

    /// Minimum tile size for the re-tiler at this scale.
    pub(crate) fn min_tile(&self) -> usize {
        match self {
            Scale::Quick => 32,
            Scale::Full => 64,
        }
    }
}

/// Cost model at `scale`: quick-scale frames carry a quarter of the
/// VGA samples, so their cycle constants are multiplied by the area
/// ratio — per-user demand then matches the paper's VGA regime and the
/// scheduler operates at the same cores-per-user operating point.
pub fn cost_model(scale: Scale) -> medvt_encoder::CostModel {
    let k = match scale {
        Scale::Quick => {
            let full = Scale::Full.resolution();
            let quick = Scale::Quick.resolution();
            full.luma_samples() as f64 / quick.luma_samples() as f64
        }
        Scale::Full => 1.0,
    };
    medvt_encoder::CostModel::default().scaled_by(k)
}

/// The pipeline configuration used by every experiment at `scale`.
pub fn pipeline_config(scale: Scale) -> PipelineConfig {
    PipelineConfig {
        analyzer: AnalyzerConfig {
            min_tile_width: scale.min_tile(),
            min_tile_height: scale.min_tile(),
            ..Default::default()
        },
        cost: cost_model(scale),
        ..Default::default()
    }
}

/// The baseline configuration used by every experiment at `scale`.
pub fn baseline_config(scale: Scale) -> BaselineConfig {
    BaselineConfig {
        cost: cost_model(scale),
        ..Default::default()
    }
}

/// Renders the medical suite (the stand-in for the paper's ten
/// anonymized clinical videos) at the experiment scale.
pub(crate) fn suite_clips(scale: Scale) -> Vec<(String, String, VideoClip)> {
    medical_suite(2024)
        .into_iter()
        .map(|(name, cfg)| {
            let cfg = PhantomConfig {
                resolution: scale.resolution(),
                ..cfg
            };
            let class = cfg.body_part.label().to_string();
            let video = PhantomVideo::new(cfg);
            (name, class, video.capture(scale.frames()))
        })
        .collect()
}

/// Profiles every suite video through the proposed pipeline, warming
/// per-class LUTs along the way (§III-D1 class transfer).
pub fn proposed_profiles(scale: Scale) -> Vec<VideoProfile> {
    let mut bank = LutBank::new();
    let mut out = Vec::new();
    for (name, class, clip) in suite_clips(scale) {
        let lut: WorkloadLut = bank.seed_for(&class);
        let mut ctl = ContentAwareController::new(pipeline_config(scale), lut);
        let profile = profile_video(
            &name,
            &class,
            &clip,
            &mut ctl,
            &EncoderConfig::default(),
            false,
        );
        bank.learn(&class, ctl.lut());
        out.push(profile);
    }
    out
}

/// Profiles every suite video through the baseline \[19\] pipeline.
///
/// During profiling the cores run flat out (the f_max rail), so
/// \[19\]'s re-tiling trigger fires at GOP boundaries and the tiler
/// converges onto its capacity-matched tile count.
pub fn baseline_profiles(scale: Scale) -> Vec<VideoProfile> {
    suite_clips(scale)
        .into_iter()
        .map(|(name, class, clip)| {
            let mut ctl = Baseline19Controller::new(baseline_config(scale));
            ctl.set_rails_pinned(true);
            profile_video(
                &name,
                &class,
                &clip,
                &mut ctl,
                &EncoderConfig::default(),
                false,
            )
        })
        .collect()
}

/// Writes a JSON artifact under `MEDVT_OUT` (default
/// `target/experiments`) and returns its path.
pub fn write_artifact<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = std::env::var("MEDVT_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"));
    std::fs::create_dir_all(&dir).expect("create artifact directory");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize artifact");
    std::fs::write(&path, json).expect("write artifact");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_default_is_quick() {
        // Do not set the var in tests; default applies.
        assert_eq!(Scale::Quick.resolution(), Resolution::new(320, 240));
        assert_eq!(Scale::Full.resolution(), Resolution::VGA);
        assert!(Scale::Full.frames() > Scale::Quick.frames());
    }

    #[test]
    fn env_values_match_case_insensitively_and_unknown_ones_are_errors() {
        for full in ["full", "FULL", "Full"] {
            assert_eq!(parse_scale(full), Ok(Scale::Full));
        }
        assert_eq!(parse_scale("Quick"), Ok(Scale::Quick));
        // A near miss must not run the default under the wrong name.
        for bad in ["fulll", "paper", ""] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.contains("quick") && err.contains("full"), "{err}");
        }
    }

    #[test]
    fn suite_has_ten_videos() {
        let clips = suite_clips(Scale::Quick);
        assert_eq!(clips.len(), 10);
        for (name, class, clip) in &clips {
            assert!(!name.is_empty());
            assert!(!class.is_empty());
            assert_eq!(clip.len(), Scale::Quick.frames());
        }
    }

    #[test]
    fn artifact_round_trip() {
        std::env::set_var("MEDVT_OUT", std::env::temp_dir().join("medvt_artifacts"));
        let path = write_artifact("unit_test", &vec![1, 2, 3]);
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains('2'));
    }
}
