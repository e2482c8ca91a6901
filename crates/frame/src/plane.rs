//! A single 8-bit sample plane (luma or chroma).

use crate::{FrameError, Rect};
use serde::{Deserialize, Serialize};

/// A rectangular plane of 8-bit samples stored row-major.
///
/// Planes are the unit every other crate operates on: the encoder reads
/// and reconstructs planes, motion search matches blocks between planes,
/// and the content analyzer computes statistics over plane regions.
///
/// # Examples
///
/// ```
/// use medvt_frame::Plane;
///
/// let mut p = Plane::filled(16, 16, 128);
/// p.set(3, 4, 200);
/// assert_eq!(p.get(3, 4), 200);
/// assert_eq!(p.get(0, 0), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Plane {
    /// Creates a zero-filled plane.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, 0)
    }

    /// Creates a plane filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be non-zero");
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Wraps an existing sample buffer.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BufferSize`] when `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Result<Self, FrameError> {
        if data.len() != width * height {
            return Err(FrameError::BufferSize {
                expected: width * height,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Plane width in samples.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// The rectangle covering the whole plane.
    pub const fn bounds(&self) -> Rect {
        Rect::frame(self.width, self.height)
    }

    /// Borrows the raw sample buffer.
    pub fn samples(&self) -> &[u8] {
        &self.data
    }

    /// Mutably borrows the raw sample buffer.
    pub fn samples_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Sample at `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, col: usize, row: usize) -> u8 {
        debug_assert!(col < self.width && row < self.height);
        self.data[row * self.width + col]
    }

    /// Sample at `(col, row)` with the coordinate clamped to the plane,
    /// replicating edge samples like HEVC reference-picture padding.
    #[inline]
    pub fn get_clamped(&self, col: isize, row: isize) -> u8 {
        let c = col.clamp(0, self.width as isize - 1) as usize;
        let r = row.clamp(0, self.height as isize - 1) as usize;
        self.data[r * self.width + c]
    }

    /// Writes `value` at `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, col: usize, row: usize, value: u8) {
        debug_assert!(col < self.width && row < self.height);
        self.data[row * self.width + col] = value;
    }

    /// Borrows one full row of samples.
    #[inline]
    pub fn row(&self, row: usize) -> &[u8] {
        let start = row * self.width;
        &self.data[start..start + self.width]
    }

    /// Mutably borrows one full row of samples.
    #[inline]
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [u8] {
        let start = row * self.width;
        &mut self.data[start..start + self.width]
    }

    /// Borrows `w` samples of `row` starting at column `col`.
    ///
    /// # Panics
    ///
    /// Panics when the span reaches outside the plane.
    #[inline]
    pub fn row_span(&self, row: usize, col: usize, w: usize) -> &[u8] {
        debug_assert!(col + w <= self.width && row < self.height);
        let start = row * self.width + col;
        &self.data[start..start + w]
    }

    /// Borrows the sample buffer from `(col, row)` to the end of the
    /// plane. Row `r` of a block anchored at that origin starts at
    /// offset `r * width()` in the returned slice, which lets strided
    /// kernels walk a block without per-row bounds arithmetic.
    ///
    /// # Panics
    ///
    /// Panics when the origin is outside the plane.
    #[inline]
    pub fn span_from(&self, col: usize, row: usize) -> &[u8] {
        debug_assert!(col < self.width && row < self.height);
        &self.data[row * self.width + col..]
    }

    /// Fills `rect` (clamped to the plane) with `value`.
    pub fn fill_rect(&mut self, rect: &Rect, value: u8) {
        let r = rect.clamped_to(&self.bounds());
        for row in r.y..r.bottom() {
            self.row_mut(row)[r.x..r.right()].fill(value);
        }
    }

    /// Copies the samples of `rect` into a fresh row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics when `rect` is not fully inside the plane.
    pub fn copy_rect(&self, rect: &Rect) -> Vec<u8> {
        let mut out = Vec::new();
        self.copy_rect_into(rect, &mut out);
        out
    }

    /// Allocation-free [`Plane::copy_rect`]: clears `out` and fills it
    /// with the samples of `rect` in raster order. Reusing `out`
    /// across blocks makes block gathering zero-allocation in steady
    /// state.
    ///
    /// # Panics
    ///
    /// Panics when `rect` is not fully inside the plane.
    pub fn copy_rect_into(&self, rect: &Rect, out: &mut Vec<u8>) {
        assert!(
            self.bounds().contains_rect(rect),
            "rect {rect} outside plane {}x{}",
            self.width,
            self.height
        );
        out.clear();
        out.reserve(rect.area());
        for row in rect.y..rect.bottom() {
            out.extend_from_slice(&self.row(row)[rect.x..rect.right()]);
        }
    }

    /// `true` when the `w x h` block at `(x, y)` lies entirely inside
    /// the plane.
    #[inline]
    pub fn holds_block(&self, x: isize, y: isize, w: usize, h: usize) -> bool {
        x >= 0 && y >= 0 && x as usize + w <= self.width && y as usize + h <= self.height
    }

    /// The `w x h` block at `(x, y)` as a strided view `(samples,
    /// stride)`: row `i` is `samples[i * stride..][..w]`. The plane
    /// itself when it holds the block (see [`Plane::holds_block`]);
    /// otherwise the block's edge-replicated samples, gathered into
    /// `buf` by [`Plane::copy_block_clamped_into`] at stride `w`.
    ///
    /// # Examples
    ///
    /// ```
    /// use medvt_frame::Plane;
    ///
    /// let p = Plane::from_vec(3, 2, vec![1, 2, 3, 4, 5, 6]).unwrap();
    /// let mut buf = Vec::new();
    /// // Inside: the plane's own rows, nothing copied.
    /// assert_eq!(p.view_or_gather(1, 0, 2, 2, &mut buf), (&[2, 3, 4, 5, 6][..], 3));
    /// assert!(buf.is_empty());
    /// // Off the right edge: gathered with the edge column replicated.
    /// assert_eq!(p.view_or_gather(2, 0, 2, 2, &mut buf), (&[3, 3, 6, 6][..], 2));
    /// ```
    pub fn view_or_gather<'p>(
        &'p self,
        x: isize,
        y: isize,
        w: usize,
        h: usize,
        buf: &'p mut Vec<u8>,
    ) -> (&'p [u8], usize) {
        if self.holds_block(x, y, w, h) {
            let start = y as usize * self.width + x as usize;
            // An empty block on the bottom edge starts past the last
            // sample.
            return (self.data.get(start..).unwrap_or_default(), self.width);
        }
        self.copy_block_clamped_into(x, y, w, h, buf);
        (buf, w)
    }

    /// Copies a `w x h` block whose top-left corner may lie outside the
    /// plane into `out`; out-of-bounds samples replicate the nearest
    /// edge sample — the access pattern of motion compensation with
    /// unrestricted motion vectors. Resizes `out` to `w * h` and fills
    /// it through [`Plane::gather_block_clamped`].
    pub fn copy_block_clamped_into(
        &self,
        x: isize,
        y: isize,
        w: usize,
        h: usize,
        out: &mut Vec<u8>,
    ) {
        // No clear first: every sample is overwritten, and a buffer
        // already at `w * h` (the steady state) is not touched twice.
        out.resize(w * h, 0);
        self.gather_block_clamped(x, y, w, h, out);
    }

    /// Gathers the `w x h` block at `(x, y)` into the row-major slice
    /// `out`, replicating edge samples for coordinates outside the
    /// plane — the one implementation of edge clamping behind motion
    /// compensation and off-frame motion-search candidates.
    ///
    /// The gather is row-wise: the row index is clamped once per row,
    /// the in-frame span is one `copy_from_slice`, and the samples left
    /// and right of the frame are fills with the row's edge samples.
    /// A block fully inside the plane is the same loop with empty
    /// fills.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != w * h`.
    pub fn gather_block_clamped(&self, x: isize, y: isize, w: usize, h: usize, out: &mut [u8]) {
        assert_eq!(out.len(), w * h, "buffer size mismatch");
        if w == 0 {
            return;
        }
        // Columns `[x, x + w)` split into samples left of the frame,
        // the in-frame span starting at `src`, and samples right of it.
        let left = x.saturating_neg().clamp(0, w as isize) as usize;
        let right = (x + w as isize - self.width as isize).clamp(0, w as isize) as usize;
        let span = w - left - right;
        let src = x.clamp(0, self.width as isize) as usize;
        let last_row = self.height as isize - 1;
        for (i, out_row) in out.chunks_exact_mut(w).enumerate() {
            let row = self.row((y + i as isize).clamp(0, last_row) as usize);
            out_row[..left].fill(row[0]);
            out_row[left..left + span].copy_from_slice(&row[src..src + span]);
            out_row[left + span..].fill(row[self.width - 1]);
        }
    }

    /// Writes a row-major `rect`-sized buffer into the plane at `rect`.
    ///
    /// # Panics
    ///
    /// Panics when `rect` is not fully inside the plane or the buffer size
    /// does not match `rect.area()`.
    pub fn write_rect(&mut self, rect: &Rect, samples: &[u8]) {
        assert!(
            self.bounds().contains_rect(rect),
            "rect {rect} outside plane"
        );
        assert_eq!(samples.len(), rect.area(), "buffer size mismatch");
        for (i, row) in (rect.y..rect.bottom()).enumerate() {
            let src = &samples[i * rect.w..(i + 1) * rect.w];
            self.row_mut(row)[rect.x..rect.right()].copy_from_slice(src);
        }
    }

    /// Downsamples by 2x in both dimensions via 2x2 box averaging, used to
    /// derive chroma planes and coarse analysis pyramids.
    pub(crate) fn halved(&self) -> Plane {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        let mut out = Plane::new(w, h);
        for row in 0..h {
            for col in 0..w {
                let x = col * 2;
                let y = row * 2;
                let a = self.get(x, y) as u16;
                let b = self.get_clamped(x as isize + 1, y as isize) as u16;
                let c = self.get_clamped(x as isize, y as isize + 1) as u16;
                let d = self.get_clamped(x as isize + 1, y as isize + 1) as u16;
                out.set(col, row, ((a + b + c + d + 2) / 4) as u8);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_get_set() {
        let mut p = Plane::filled(4, 3, 7);
        assert_eq!(p.width(), 4);
        assert_eq!(p.height(), 3);
        assert!(p.samples().iter().all(|&s| s == 7));
        p.set(3, 2, 99);
        assert_eq!(p.get(3, 2), 99);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Plane::from_vec(2, 2, vec![0; 4]).is_ok());
        let err = Plane::from_vec(2, 2, vec![0; 5]).unwrap_err();
        assert!(matches!(
            err,
            FrameError::BufferSize {
                expected: 4,
                actual: 5
            }
        ));
    }

    #[test]
    fn get_clamped_replicates_edges() {
        let mut p = Plane::new(2, 2);
        p.set(0, 0, 10);
        p.set(1, 0, 20);
        p.set(0, 1, 30);
        p.set(1, 1, 40);
        assert_eq!(p.get_clamped(-5, -5), 10);
        assert_eq!(p.get_clamped(9, -1), 20);
        assert_eq!(p.get_clamped(-1, 9), 30);
        assert_eq!(p.get_clamped(9, 9), 40);
    }

    #[test]
    fn fill_and_copy_rect_round_trip() {
        let mut p = Plane::new(8, 8);
        let r = Rect::new(2, 3, 4, 2);
        p.fill_rect(&r, 55);
        let buf = p.copy_rect(&r);
        assert_eq!(buf, vec![55; 8]);
        // Outside the rect untouched.
        assert_eq!(p.get(1, 3), 0);
        assert_eq!(p.get(6, 3), 0);
    }

    #[test]
    fn write_rect_round_trip() {
        let mut p = Plane::new(6, 6);
        let r = Rect::new(1, 1, 3, 2);
        let buf: Vec<u8> = (0..6).collect();
        p.write_rect(&r, &buf);
        assert_eq!(p.copy_rect(&r), buf);
        assert_eq!(p.get(0, 0), 0);
    }

    #[test]
    fn copy_into_variants_reuse_and_match() {
        let mut p = Plane::new(8, 6);
        for (i, s) in p.samples_mut().iter_mut().enumerate() {
            *s = (i * 7 % 256) as u8;
        }
        let mut buf = vec![1, 2, 3]; // dirty buffer must be cleared
        let r = Rect::new(2, 1, 4, 3);
        p.copy_rect_into(&r, &mut buf);
        assert_eq!(buf, p.copy_rect(&r));
        // Interior fast path agrees with the clamped spec...
        p.copy_block_clamped_into(2, 1, 4, 3, &mut buf);
        assert_eq!(buf, p.copy_rect(&r));
        // ...and boundary blocks agree with per-sample clamping.
        p.copy_block_clamped_into(-1, 4, 4, 4, &mut buf);
        let expected: Vec<u8> = (0..4)
            .flat_map(|row| (0..4).map(move |col| (col - 1, 4 + row)))
            .map(|(c, r)| p.get_clamped(c, r))
            .collect();
        assert_eq!(buf, expected);
    }

    #[test]
    fn clamped_gather_equals_per_sample_clamping_everywhere() {
        let mut p = Plane::new(8, 6);
        for (i, s) in p.samples_mut().iter_mut().enumerate() {
            *s = (i * 37 % 251) as u8;
        }
        // Origins off every edge and corner, blocks narrower and wider
        // than the plane (so both fills can be non-empty at once).
        let mut buf = Vec::new();
        for (w, h) in [(1usize, 1usize), (4, 3), (11, 9), (3, 0), (0, 2)] {
            for y in -12isize..=9 {
                for x in -14isize..=11 {
                    p.copy_block_clamped_into(x, y, w, h, &mut buf);
                    let expected: Vec<u8> = (0..h as isize)
                        .flat_map(|r| (0..w as isize).map(move |c| (x + c, y + r)))
                        .map(|(c, r)| p.get_clamped(c, r))
                        .collect();
                    assert_eq!(buf, expected, "{w}x{h} block at ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn view_or_gather_reads_in_place_inside_and_clamps_outside() {
        let mut p = Plane::new(8, 6);
        for (i, s) in p.samples_mut().iter_mut().enumerate() {
            *s = (i * 37 % 251) as u8;
        }
        let mut buf = Vec::new();
        let mut gathered = Vec::new();
        for (w, h) in [(1usize, 1usize), (4, 3), (8, 6), (11, 9), (3, 0), (0, 2)] {
            for y in -3isize..=7 {
                for x in -3isize..=9 {
                    let (samples, stride) = p.view_or_gather(x, y, w, h, &mut buf);
                    if w * h > 0 {
                        let in_place = p.samples().as_ptr_range().contains(&samples.as_ptr());
                        assert_eq!(in_place, p.holds_block(x, y, w, h), "{w}x{h} at ({x}, {y})");
                    }
                    let rows: Vec<u8> = (0..h)
                        .flat_map(|i| &samples[i * stride..][..w])
                        .copied()
                        .collect();
                    p.copy_block_clamped_into(x, y, w, h, &mut gathered);
                    assert_eq!(rows, gathered, "{w}x{h} block at ({x}, {y})");
                }
            }
        }
        // An empty block on the bottom edge is held and views nothing.
        assert!(p.holds_block(5, 6, 3, 0));
        assert_eq!(p.view_or_gather(5, 6, 3, 0, &mut buf), (&[][..], 8));
    }

    #[test]
    fn halved_averages_quads() {
        let p = Plane::from_vec(2, 2, vec![10, 20, 30, 40]).unwrap();
        let h = p.halved();
        assert_eq!(h.width(), 1);
        assert_eq!(h.height(), 1);
        assert_eq!(h.get(0, 0), 25);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        Plane::new(0, 4);
    }

    #[test]
    fn fill_rect_clamps_to_plane() {
        let mut p = Plane::new(4, 4);
        p.fill_rect(&Rect::new(2, 2, 10, 10), 9);
        assert_eq!(p.get(3, 3), 9);
        assert_eq!(p.get(1, 1), 0);
    }
}
