//! Minimal YUV4MPEG2 (Y4M) reader/writer for 4:2:0 material.
//!
//! Y4M is the interchange format Kvazaar and the HM reference software
//! consume; supporting it lets `medvt` exchange raw video with standard
//! tools when real clinical material is available.

use crate::{Frame, FrameError, Plane, Resolution, VideoClip};
use std::io::{BufRead, Write};
use std::path::Path;

/// Writes a clip as YUV4MPEG2 with C420 chroma.
///
/// # Errors
///
/// Returns [`FrameError::Io`] on write failure.
pub fn write_y4m<W: Write>(mut w: W, clip: &VideoClip) -> Result<(), FrameError> {
    let res = clip.resolution();
    // Rational fps: use round numerator over 1 when integral, else x1000.
    let fps = clip.fps();
    let (num, den) = if (fps - fps.round()).abs() < 1e-9 {
        (fps.round() as u64, 1u64)
    } else {
        ((fps * 1000.0).round() as u64, 1000u64)
    };
    writeln!(
        w,
        "YUV4MPEG2 W{} H{} F{}:{} Ip A1:1 C420",
        res.width, res.height, num, den
    )?;
    for frame in clip {
        w.write_all(b"FRAME\n")?;
        w.write_all(frame.y().samples())?;
        w.write_all(frame.u().samples())?;
        w.write_all(frame.v().samples())?;
    }
    Ok(())
}

/// Writes a clip to a `.y4m` file.
///
/// # Errors
///
/// Returns [`FrameError::Io`] on file-system failure.
pub fn save_y4m<P: AsRef<Path>>(path: P, clip: &VideoClip) -> Result<(), FrameError> {
    let f = std::fs::File::create(path)?;
    write_y4m(std::io::BufWriter::new(f), clip)
}

/// Largest picture a stream may declare: HEVC level 6.2's limits,
/// `MaxLumaPs` = 35 651 584 luma samples and each side at most
/// `√(8·MaxLumaPs)` = 16 888. A header is a few dozen bytes, and its
/// `W` and `H` alone decide how much every `FRAME` allocates.
const MAX_LUMA_SAMPLES: usize = 35_651_584;
const MAX_SIDE: usize = 16_888;

/// Reads a YUV4MPEG2 stream (C420 only) into a clip.
///
/// A mutable reference to any `BufRead` can be passed as the reader.
/// Any input returns a clip or an error, never a panic.
///
/// # Errors
///
/// Returns [`FrameError::Parse`] for malformed headers, a frame rate
/// that is not positive and finite, or unsupported chroma;
/// [`FrameError::Dimensions`] for a picture that is empty, odd-sized or
/// larger than HEVC level 6.2 allows; and [`FrameError::Io`] for
/// underlying read failures (including a header that is not UTF-8 and
/// a truncated frame).
pub fn read_y4m<R: BufRead>(mut r: R) -> Result<VideoClip, FrameError> {
    let mut header = String::new();
    r.read_line(&mut header)?;
    let header = header.trim_end();
    if !header.starts_with("YUV4MPEG2") {
        return Err(FrameError::Parse("missing YUV4MPEG2 magic".into()));
    }
    let mut width = None;
    let mut height = None;
    let mut fps = 24.0f64;
    for token in header.split_whitespace().skip(1) {
        let mut chars = token.chars();
        let tag = chars.next();
        let rest = chars.as_str();
        match tag {
            Some('W') => width = rest.parse::<usize>().ok(),
            Some('H') => height = rest.parse::<usize>().ok(),
            Some('F') => {
                let mut parts = rest.splitn(2, ':');
                let num: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| FrameError::Parse("bad frame rate".into()))?;
                let den: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| FrameError::Parse("bad frame rate".into()))?;
                if den <= 0.0 {
                    return Err(FrameError::Parse("zero frame-rate denominator".into()));
                }
                fps = num / den;
                if !(fps.is_finite() && fps > 0.0) {
                    return Err(FrameError::Parse(format!(
                        "frame rate {rest} is not positive and finite"
                    )));
                }
            }
            Some('C') if !rest.starts_with("420") => {
                return Err(FrameError::Parse(format!("unsupported chroma C{rest}")));
            }
            _ => {} // interlacing/aspect ignored
        }
    }
    let (width, height) = match (width, height) {
        (Some(w), Some(h)) => (w, h),
        _ => return Err(FrameError::Parse("missing W/H in header".into())),
    };
    let y_len = width
        .checked_mul(height)
        .filter(|&n| width <= MAX_SIDE && height <= MAX_SIDE && n <= MAX_LUMA_SAMPLES)
        .ok_or(FrameError::Dimensions {
            width,
            height,
            reason: "larger than HEVC level 6.2 allows",
        })?;
    let res = Resolution::new(width, height);
    res.validate_420()?;
    let mut clip = VideoClip::new(res, fps);
    let c_len = y_len / 4;
    loop {
        let mut marker = String::new();
        let n = r.read_line(&mut marker)?;
        if n == 0 {
            break; // clean EOF
        }
        if !marker.starts_with("FRAME") {
            return Err(FrameError::Parse(format!(
                "expected FRAME marker, got {marker:?}"
            )));
        }
        let mut y = vec![0u8; y_len];
        let mut u = vec![0u8; c_len];
        let mut v = vec![0u8; c_len];
        r.read_exact(&mut y)?;
        r.read_exact(&mut u)?;
        r.read_exact(&mut v)?;
        let frame = Frame::from_planes(
            Plane::from_vec(width, height, y)?,
            Plane::from_vec(width / 2, height / 2, u)?,
            Plane::from_vec(width / 2, height / 2, v)?,
        )?;
        clip.push(frame);
    }
    Ok(clip)
}

/// Reads a `.y4m` file into a clip.
///
/// # Errors
///
/// See [`read_y4m`].
pub fn load_y4m<P: AsRef<Path>>(path: P) -> Result<VideoClip, FrameError> {
    let f = std::fs::File::open(path)?;
    read_y4m(std::io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_clip() -> VideoClip {
        let res = Resolution::new(8, 6);
        let mut clip = VideoClip::new(res, 24.0);
        let mut f = Frame::flat(res, 100);
        f.y_mut().set(3, 3, 250);
        clip.push(f);
        clip.push(Frame::flat(res, 50));
        clip
    }

    #[test]
    fn round_trip_preserves_samples() {
        let clip = sample_clip();
        let mut buf = Vec::new();
        write_y4m(&mut buf, &clip).unwrap();
        let back = read_y4m(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.resolution(), clip.resolution());
        assert_eq!(back.fps(), 24.0);
        assert_eq!(back.get(0).unwrap().y().get(3, 3), 250);
        assert_eq!(back.get(1).unwrap().y().get(0, 0), 50);
    }

    #[test]
    fn header_contains_geometry() {
        let clip = sample_clip();
        let mut buf = Vec::new();
        write_y4m(&mut buf, &clip).unwrap();
        let text = String::from_utf8_lossy(&buf[..40]).to_string();
        assert!(text.contains("W8"), "{text}");
        assert!(text.contains("H6"));
        assert!(text.contains("F24:1"));
        assert!(text.contains("C420"));
    }

    #[test]
    fn fractional_fps_round_trips() {
        let res = Resolution::new(4, 4);
        let clip = VideoClip::from_frames(res, 23.976, vec![Frame::black(res)]);
        let mut buf = Vec::new();
        write_y4m(&mut buf, &clip).unwrap();
        let back = read_y4m(std::io::Cursor::new(buf)).unwrap();
        assert!((back.fps() - 23.976).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_y4m(std::io::Cursor::new(b"NOPE\n".to_vec())).unwrap_err();
        assert!(matches!(err, FrameError::Parse(_)));
    }

    #[test]
    fn rejects_unsupported_chroma() {
        let data = b"YUV4MPEG2 W4 H4 F24:1 C444\n".to_vec();
        let err = read_y4m(std::io::Cursor::new(data)).unwrap_err();
        assert!(err.to_string().contains("C444"));
    }

    #[test]
    fn rejects_truncated_frame() {
        let mut buf = Vec::new();
        write_y4m(&mut buf, &sample_clip()).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_y4m(std::io::Cursor::new(buf)).is_err());
    }

    fn read_header(header: &str) -> Result<VideoClip, FrameError> {
        read_y4m(std::io::Cursor::new(format!("{header}\n").into_bytes()))
    }

    #[test]
    fn rejects_zero_frame_rate() {
        let err = read_header("YUV4MPEG2 W4 H4 F0:1 C420").unwrap_err();
        assert!(err.to_string().contains("frame rate"), "{err}");
    }

    #[test]
    fn rejects_nan_frame_rate() {
        let err = read_header("YUV4MPEG2 W4 H4 Fnan:1 C420").unwrap_err();
        assert!(err.to_string().contains("frame rate"), "{err}");
    }

    #[test]
    fn rejects_negative_frame_rate() {
        let err = read_header("YUV4MPEG2 W4 H4 F-24:1 C420").unwrap_err();
        assert!(err.to_string().contains("frame rate"), "{err}");
    }

    #[test]
    fn header_token_may_start_with_a_multibyte_character() {
        let clip = read_header("YUV4MPEG2 W4 H4 \u{e9}x F24:1 C420").unwrap();
        assert!(clip.is_empty());
        assert!(read_header("YUV4MPEG2 \u{1f600}").is_err());
    }

    #[test]
    fn rejects_dimensions_beyond_hevc_limits() {
        // A 40-byte header that would otherwise ask for a 2.4 GB frame,
        // one whose area overflows `usize`, and one side past the cap.
        for header in [
            "YUV4MPEG2 W40000 H40000 F24:1 C420",
            "YUV4MPEG2 W18446744073709551614 H4 F24:1 C420",
            "YUV4MPEG2 W16890 H2 F24:1 C420",
        ] {
            let err = read_header(header).unwrap_err();
            assert!(
                matches!(err, FrameError::Dimensions { .. }),
                "{header}: {err}"
            );
        }
        assert!(read_header("YUV4MPEG2 W7680 H4320 F24:1 C420").is_ok());
    }

    /// Pieces of header syntax (tags, digits, signs, `nan`,
    /// separators and a two-byte UTF-8 character), so random streams
    /// reach every branch of the token parser.
    const HEADER_PIECES: &[&str] = &[
        "W", "H", "F", "C", "420", "444", "Ip", "A1:1", "0", "2", "8", "24", "99999", ":", "-",
        ".", "nan", "inf", " ", " ", " ", "\u{e9}", "\n",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random header syntax then arbitrary bytes, with or without
        /// the magic in front, read as `Ok` or `Err` but never panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            raw in collection::vec(0u8..=255, 0..64),
            picks in collection::vec(0usize..HEADER_PIECES.len(), 0..24),
            magic in 0u8..2,
        ) {
            let mut stream = if magic == 1 { b"YUV4MPEG2 ".to_vec() } else { Vec::new() };
            for &i in &picks {
                stream.extend(HEADER_PIECES[i].as_bytes());
            }
            stream.extend(&raw);
            let _ = read_y4m(std::io::Cursor::new(stream));
        }

        /// A valid two-frame stream with up to three bytes replaced
        /// (mostly in the header) reads as `Ok` or `Err` but never
        /// panics.
        #[test]
        fn mutated_valid_streams_never_panic(
            edits in collection::vec((0usize..1 << 16, 0u8..=255, 0u8..4), 1..4),
        ) {
            let mut stream = Vec::new();
            write_y4m(&mut stream, &sample_clip()).unwrap();
            let header_len = stream.iter().position(|&b| b == b'\n').unwrap() + 1;
            for &(at, byte, in_header) in &edits {
                let span = if in_header > 0 { header_len } else { stream.len() };
                stream[at % span] = byte;
            }
            let _ = read_y4m(std::io::Cursor::new(stream));
        }
    }

    #[test]
    fn empty_stream_yields_empty_clip() {
        let data = b"YUV4MPEG2 W4 H4 F24:1 C420\n".to_vec();
        let clip = read_y4m(std::io::Cursor::new(data)).unwrap();
        assert!(clip.is_empty());
    }
}
