//! Fused, cache-blocked kernels behind ALS: the two ridge half-steps and
//! the row builder they share.
//!
//! Each ALS iteration solves `Q ← Ŵ H (HᵀH + λI)⁻¹` and
//! `H ← Ŵᵀ Q (QᵀQ + λI)⁻¹` against the *filled* matrix
//! `Ŵ = fill(Q Hᵀ)` — the low-rank product with its observed cells
//! overwritten. The kernels here never materialize `Ŵ`. They read their
//! right-hand sides through a [`RowSource`], which writes one row of the
//! matrix (or a column window of it) into a caller buffer on demand:
//!
//! * [`LowRankRows`] is the **row builder**. It keeps a transposed copy of
//!   `H` (r×k) and writes row i as a zeroed buffer plus `q_i[t]·Hᵀ[t][j]`
//!   for t ascending, vectorized across j. That is, per element, exactly
//!   the dot product [`Mat::matmul_t`] computes. A caller-supplied
//!   `fill(row, col_lo, &mut [f64])` then applies the observed-cell
//!   overwrite to the same window.
//! * [`Mat`] is a `RowSource` that copies a row of `B`, so the plain
//!   batched solves run through the very same kernels.
//! * [`ridge_solve_rows_tiled`] (the `Q` half-step) works per row block
//!   and per worker chunk, in panels of `tile` rows stored j-major. It
//!   accumulates `GᵀB` across the panel and solves it in place with
//!   `RidgeFactor::solve_panel`.
//! * [`ridge_solve_cols_tiled`] (the `H` half-step) gives each worker a
//!   window of columns. It streams the source's rows in ascending order
//!   and accumulates the window into a resident `p × tile` panel.
//!
//! **Determinism contract** (the same one `limeqo_linalg::par` and PERF.md
//! pin): every output element is computed with *exactly* the floating-point
//! operation sequence of the unblocked kernels — same additions, same
//! order, same exact-zero skips — so the result is byte-identical to the
//! naive path (materialize `Q Hᵀ`, fill, [`Mat::t_matmul`], column-wise
//! solve) at **any** tile size and any thread count. Tiling, like
//! threading, only decides which slots are computed together; it never
//! reorders a reduction. The `tests/tests/kernels.rs` differential suite
//! holds the kernels to this bit for bit.

use crate::error::{LinalgError, Result};
use crate::lstsq::RidgeFactor;
use crate::matrix::Mat;
use crate::par::{effective_threads, par_chunks};

/// L1 data-cache budget (bytes) the auto tile targets. A deliberate
/// constant, not a machine probe: the tile size must be a pure function of
/// the problem shape so every machine runs the identical partition.
const L1_TARGET_BYTES: usize = 32 * 1024;

/// Smallest tile auto mode will pick; below this the per-tile solve
/// dispatch overhead dominates.
const MIN_AUTO_TILE: usize = 8;

/// Largest tile auto mode will pick; beyond this the output panel itself
/// outgrows L1 and blocking stops paying.
const MAX_AUTO_TILE: usize = 256;

/// The auto tile size for right-hand sides of `row_len` elements: the
/// largest tile whose operand panel (`tile × row_len` doubles) fits the L1
/// budget, clamped to `[8, 256]`.
///
/// Pure function of the shape — no machine introspection — so the chosen
/// partition (and therefore the wall-clock profile, though never the bits)
/// is reproducible everywhere.
///
/// ```
/// use limeqo_linalg::block::auto_tile;
/// assert_eq!(auto_tile(49), 83);   // the hint-dimension shape
/// assert_eq!(auto_tile(1), 256);   // clamped above
/// assert_eq!(auto_tile(100_000), 8); // clamped below
/// ```
pub fn auto_tile(row_len: usize) -> usize {
    (L1_TARGET_BYTES / (row_len.max(1) * std::mem::size_of::<f64>()))
        .clamp(MIN_AUTO_TILE, MAX_AUTO_TILE)
}

/// Resolve a tile-size knob: `0` means "auto" ([`auto_tile`] for
/// right-hand sides of `row_len` elements), anything else is taken
/// literally.
pub fn resolve_tile(tile: usize, row_len: usize) -> usize {
    if tile == 0 {
        auto_tile(row_len)
    } else {
        tile
    }
}

/// A matrix whose rows are written on demand: the right-hand-side operand
/// of the fused ridge kernels.
pub trait RowSource: Sync {
    /// `(rows, cols)` of the matrix this source stands for.
    fn shape(&self) -> (usize, usize);

    /// Write columns `col_lo..col_lo + out.len()` of row `row` into `out`.
    fn write_row(&self, row: usize, col_lo: usize, out: &mut [f64]);
}

impl RowSource for Mat {
    fn shape(&self) -> (usize, usize) {
        Mat::shape(self)
    }

    fn write_row(&self, row: usize, col_lo: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.row(row)[col_lo..col_lo + out.len()]);
    }
}

/// The row builder: the filled low-rank matrix `fill(Q Hᵀ)` (n×k), built
/// one row — or one column window of a row — at a time, never stored.
///
/// Row i is a zeroed buffer plus `q_i[t]·Hᵀ[t][j]` for t ascending,
/// vectorized across j: per element the exact sequence of
/// [`Mat::matmul_t`]'s dot product. Then `fill(i, col_lo, window)` runs
/// on the same window, where the caller overwrites observed cells.
/// [`LowRankRows::select`] restricts the source to a list of rows (the
/// dirty-row solve), and `fill` always sees the original row index.
pub struct LowRankRows<'a, F> {
    q: &'a Mat,
    ht: Mat,
    rows: Option<&'a [usize]>,
    fill: F,
}

impl<'a, F> LowRankRows<'a, F>
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    /// `fill(Q Hᵀ)` for `Q` n×r and `H` k×r.
    pub fn new(q: &'a Mat, h: &Mat, fill: F) -> Result<Self> {
        if q.cols() != h.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "low-rank rows",
                lhs: q.shape(),
                rhs: h.shape(),
            });
        }
        Ok(LowRankRows { q, ht: h.transpose(), rows: None, fill })
    }

    /// Restrict the source to `rows` of the full product, in the given
    /// order: row i of the selection is row `rows[i]` of `fill(Q Hᵀ)`.
    ///
    /// # Panics
    /// On use, if an entry of `rows` is out of range for `Q`.
    pub fn select(self, rows: &'a [usize]) -> Self {
        LowRankRows { rows: Some(rows), ..self }
    }

    /// Materialize the source as a dense matrix, rows fanned out across
    /// `threads` workers (`0` = auto) and built in `tile`-column windows
    /// (`0` = auto). Bit-identical to `fill(Q Hᵀ)` computed with
    /// [`Mat::matmul_t`] at any tile size and thread count.
    pub fn to_mat(&self, threads: usize, tile: usize) -> Mat {
        let (rows, width) = RowSource::shape(self);
        let mut out = Mat::zeros(rows, width);
        if width == 0 {
            return out;
        }
        let tile = resolve_tile(tile, self.ht.rows());
        let threads = effective_threads(threads, rows * width * self.ht.rows());
        par_chunks(out.as_mut_slice(), width, threads, |r0, chunk| {
            let mut j0 = 0;
            while j0 < width {
                let j1 = (j0 + tile).min(width);
                for (i, out_row) in chunk.chunks_mut(width).enumerate() {
                    self.write_row(r0 + i, j0, &mut out_row[j0..j1]);
                }
                j0 = j1;
            }
        });
        out
    }
}

impl<F> RowSource for LowRankRows<'_, F>
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    fn shape(&self) -> (usize, usize) {
        (self.rows.map_or(self.q.rows(), <[usize]>::len), self.ht.cols())
    }

    fn write_row(&self, row: usize, col_lo: usize, out: &mut [f64]) {
        let row = self.rows.map_or(row, |rows| rows[row]);
        let col_hi = col_lo + out.len();
        out.fill(0.0);
        for (t, &q_it) in self.q.row(row).iter().enumerate() {
            for (o, &h) in out.iter_mut().zip(&self.ht.row(t)[col_lo..col_hi]) {
                *o += q_it * h;
            }
        }
        (self.fill)(row, col_lo, out);
    }
}

/// `a * bᵀ` through the row builder ([`LowRankRows`] with no fill),
/// row-partitioned across `threads` workers with each output row built
/// in `tile`-column windows (`0` = auto).
///
/// Byte-identical to [`Mat::matmul_t`] and [`crate::par::matmul_t`] at any
/// tile size and thread count: each output element is the same
/// t-ascending accumulation into a zeroed slot; tiling only decides the
/// order elements are *visited*, which no element's value depends on.
///
/// ```
/// use limeqo_linalg::block::matmul_t_tiled;
/// use limeqo_linalg::rng::SeededRng;
///
/// let mut rng = SeededRng::new(5);
/// let a = rng.uniform_mat(13, 4, -1.0, 1.0);
/// let b = rng.uniform_mat(7, 4, -1.0, 1.0);
/// let naive = a.matmul_t(&b).unwrap();
/// for tile in [1, 3, 0] {
///     let tiled = matmul_t_tiled(&a, &b, 2, tile).unwrap();
///     assert_eq!(tiled.as_slice(), naive.as_slice());
/// }
/// ```
pub fn matmul_t_tiled(a: &Mat, b: &Mat, threads: usize, tile: usize) -> Result<Mat> {
    if a.cols() != b.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "blocked matmul_t",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let rows = LowRankRows::new(a, b, |_: usize, _: usize, _: &mut [f64]| {})?;
    Ok(rows.to_mat(threads, tile))
}

/// Check that `blocks` partitions `0..q` contiguously.
///
/// # Panics
/// If it does not.
pub(crate) fn check_blocks(blocks: &[(usize, usize)], q: usize) {
    let mut expect = 0usize;
    for &(start, end) in blocks {
        assert!(
            start == expect && end >= start,
            "blocks must partition 0..{q} contiguously: got ({start}, {end}) after {expect}"
        );
        expect = end;
    }
    assert!(expect == q, "blocks must cover 0..{q}: ended at {expect}");
}

/// The fused row solve (the ALS `Q` half-step): row i of the result is
/// `argmin_x ‖G x − bᵢ‖² + λ‖x‖²` for row `bᵢ` of `b_rows`. For `G` m×p
/// and `b_rows` q×m the result is q×p.
///
/// `blocks` partitions the rows as in
/// [`ridge_solve_rows_blocked`]. Within each block, every worker chunk is
/// cut into panels of `tile` rows (`0` = auto). A panel's rows are
/// written by the [`RowSource`] and stored j-major. Then, for each
/// `(j, p)` with `G[j][p] != 0`, the panel's `GᵀB` row p gets
/// `G[j][p]·B[·][j]` added across the panel. That is per element the
/// j-ascending, exact-zero-skipping accumulation of [`Mat::t_matmul`].
/// The panel is then solved in place by `RidgeFactor::solve_panel`.
/// Byte-identical to [`ridge_solve_rows_blocked`] (and so to the serial
/// [`crate::ridge_solve`]) at any tile size, block partition and thread
/// count.
///
/// ```
/// use limeqo_linalg::block::ridge_solve_rows_tiled;
/// use limeqo_linalg::ridge_solve_rows;
/// use limeqo_linalg::rng::SeededRng;
///
/// let mut rng = SeededRng::new(6);
/// let g = rng.uniform_mat(9, 4, 0.0, 1.0);
/// let b = rng.uniform_mat(21, 9, 0.0, 1.0);
/// let naive = ridge_solve_rows(&g, &b, 0.2, 1).unwrap();
/// for tile in [1, 5, 0] {
///     let tiled =
///         ridge_solve_rows_tiled(&g, &b, 0.2, 2, &[(0, 21)], tile).unwrap();
///     assert_eq!(tiled.as_slice(), naive.as_slice());
/// }
/// ```
///
/// [`ridge_solve_rows_blocked`]: crate::ridge_solve_rows_blocked
pub fn ridge_solve_rows_tiled<B: RowSource + ?Sized>(
    g: &Mat,
    b_rows: &B,
    lambda: f64,
    threads: usize,
    blocks: &[(usize, usize)],
    tile: usize,
) -> Result<Mat> {
    let (q, m) = b_rows.shape();
    if g.rows() != m {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_solve_rows",
            lhs: g.shape(),
            rhs: (q, m),
        });
    }
    check_blocks(blocks, q);
    let factor = RidgeFactor::new(g, lambda)?;
    let p = g.cols();
    let mut out = Mat::zeros(q, p);
    if p == 0 {
        return Ok(out);
    }
    let tile = resolve_tile(tile, m);
    for &(start, end) in blocks {
        if start == end {
            continue;
        }
        // The dominant per-chunk cost is the GᵀB product: m·p per RHS.
        let t = effective_threads(threads, (end - start) * m * p);
        let sub = &mut out.as_mut_slice()[start * p..end * p];
        par_chunks(sub, p, t, |r0, chunk| {
            let rows = chunk.len() / p;
            let cap = tile.min(rows);
            let mut row = vec![0.0; m];
            let mut panel = vec![0.0; m * cap];
            let mut gtb = vec![0.0; p * cap];
            let mut t0 = 0;
            while t0 < rows {
                let t1 = (t0 + tile).min(rows);
                let w = t1 - t0;
                for i in 0..w {
                    b_rows.write_row(start + r0 + t0 + i, 0, &mut row);
                    for (j, &v) in row.iter().enumerate() {
                        panel[j * w + i] = v;
                    }
                }
                let gtb = &mut gtb[..p * w];
                gtb.fill(0.0);
                for j in 0..m {
                    let b_col = &panel[j * w..(j + 1) * w];
                    for (jp, &g_jp) in g.row(j).iter().enumerate() {
                        if g_jp == 0.0 {
                            continue;
                        }
                        for (acc, &b) in gtb[jp * w..(jp + 1) * w].iter_mut().zip(b_col) {
                            *acc += g_jp * b;
                        }
                    }
                }
                factor.solve_panel(gtb, w);
                for (i, out_row) in chunk[t0 * p..t1 * p].chunks_mut(p).enumerate() {
                    for (jp, o) in out_row.iter_mut().enumerate() {
                        *o = gtb[jp * w + i];
                    }
                }
                t0 = t1;
            }
        });
    }
    Ok(out)
}

/// The fused column solve (the ALS `H` half-step): row j of the result is
/// `argmin_x ‖G x − b_j‖² + λ‖x‖²` for *column* `b_j` of `b`. For `G` m×p
/// and `b` m×c the result is c×p.
///
/// Each worker owns a contiguous range of columns, taken in windows of
/// `tile` columns (`0` = auto). For each window it streams the source's
/// rows in ascending order, has the [`RowSource`] write that window of
/// each row, and accumulates it into a resident `p × tile` panel with the
/// exact-zero skip on `G[k][i]`. This is [`Mat::t_matmul`]'s k-outer loop
/// verbatim. Byte-identical to [`ridge_solve_cols`](crate::ridge_solve_cols)
/// at any tile size and thread count.
///
/// ```
/// use limeqo_linalg::block::ridge_solve_cols_tiled;
/// use limeqo_linalg::ridge_solve_cols;
/// use limeqo_linalg::rng::SeededRng;
///
/// let mut rng = SeededRng::new(7);
/// let g = rng.uniform_mat(20, 3, 0.0, 1.0);
/// let b = rng.uniform_mat(20, 11, 0.0, 1.0);
/// let naive = ridge_solve_cols(&g, &b, 0.2, 1).unwrap();
/// for tile in [1, 4, 0] {
///     let tiled = ridge_solve_cols_tiled(&g, &b, 0.2, 2, tile).unwrap();
///     assert_eq!(tiled.as_slice(), naive.as_slice());
/// }
/// ```
pub fn ridge_solve_cols_tiled<B: RowSource + ?Sized>(
    g: &Mat,
    b: &B,
    lambda: f64,
    threads: usize,
    tile: usize,
) -> Result<Mat> {
    let (m, cols) = b.shape();
    if g.rows() != m {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_solve_cols",
            lhs: g.shape(),
            rhs: (m, cols),
        });
    }
    let factor = RidgeFactor::new(g, lambda)?;
    let p = g.cols();
    let mut out = Mat::zeros(cols, p);
    if p == 0 {
        return Ok(out);
    }
    // The k-outer reduction streams G and B once per window, so what must
    // stay L1-resident across the whole m-long loop is the `p × tile`
    // accumulator — the tile resolves against `p`, not `m`.
    let tile = resolve_tile(tile, p);
    // The dominant per-chunk cost is the GᵀB product: m·p per RHS column.
    let threads = effective_threads(threads, cols * m * p);
    par_chunks(out.as_mut_slice(), p, threads, |c0, chunk| {
        let ncols = chunk.len() / p;
        let cap = tile.min(ncols);
        let mut row = vec![0.0; cap];
        let mut gtb = vec![0.0; p * cap];
        let mut t0 = 0;
        while t0 < ncols {
            let t1 = (t0 + tile).min(ncols);
            let w = t1 - t0;
            let row = &mut row[..w];
            let gtb = &mut gtb[..p * w];
            gtb.fill(0.0);
            for k in 0..m {
                b.write_row(k, c0 + t0, row);
                for (i, &g_ki) in g.row(k).iter().enumerate() {
                    if g_ki == 0.0 {
                        continue;
                    }
                    for (acc, &b_kj) in gtb[i * w..(i + 1) * w].iter_mut().zip(row.iter()) {
                        *acc += g_ki * b_kj;
                    }
                }
            }
            factor.solve_panel(gtb, w);
            for (i, out_row) in chunk[t0 * p..t1 * p].chunks_mut(p).enumerate() {
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = gtb[j * w + i];
                }
            }
            t0 = t1;
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq::{ridge_solve, ridge_solve_cols, ridge_solve_rows};
    use crate::rng::SeededRng;

    #[test]
    fn auto_tile_is_shape_monotone_and_clamped() {
        assert_eq!(auto_tile(0), MAX_AUTO_TILE);
        assert_eq!(auto_tile(1), MAX_AUTO_TILE);
        assert_eq!(auto_tile(49), 83);
        assert_eq!(auto_tile(1 << 20), MIN_AUTO_TILE);
        let mut prev = auto_tile(1);
        for row_len in 2..2048 {
            let t = auto_tile(row_len);
            assert!(t <= prev, "auto_tile must shrink as rows widen");
            assert!((MIN_AUTO_TILE..=MAX_AUTO_TILE).contains(&t));
            prev = t;
        }
        assert_eq!(resolve_tile(0, 49), auto_tile(49));
        assert_eq!(resolve_tile(17, 49), 17);
    }

    #[test]
    fn tiled_matmul_t_matches_naive_bit_for_bit() {
        let mut rng = SeededRng::new(31);
        // 23 is deliberately coprime to every tested tile size.
        let a = rng.uniform_mat(23, 5, -1.0, 1.0);
        let b = rng.uniform_mat(11, 5, -1.0, 1.0);
        let naive = a.matmul_t(&b).unwrap();
        for tile in [1, 3, 7, 11, 64, 0] {
            for threads in [1, 2, 8] {
                let tiled = matmul_t_tiled(&a, &b, threads, tile).unwrap();
                assert_eq!(tiled.as_slice(), naive.as_slice(), "tile={tile} threads={threads}");
            }
        }
    }

    #[test]
    fn tiled_rows_solve_matches_serial_bit_for_bit() {
        let mut rng = SeededRng::new(32);
        let g = rng.uniform_mat(9, 4, 0.0, 2.0);
        let b_rows = rng.uniform_mat(31, 9, 0.0, 5.0);
        let serial = ridge_solve(&g, &b_rows.transpose(), 0.2).unwrap().transpose();
        for tile in [1, 7, 31, 64, 0] {
            for threads in [1, 2, 8] {
                let tiled =
                    ridge_solve_rows_tiled(&g, &b_rows, 0.2, threads, &[(0, 31)], tile).unwrap();
                assert_eq!(tiled.as_slice(), serial.as_slice(), "tile={tile} threads={threads}");
            }
        }
    }

    #[test]
    fn tiled_rows_solve_matches_for_any_block_partition() {
        let mut rng = SeededRng::new(33);
        let g = rng.uniform_mat(9, 4, 0.0, 2.0);
        let b_rows = rng.uniform_mat(31, 9, 0.0, 5.0);
        let whole = ridge_solve_rows(&g, &b_rows, 0.2, 1).unwrap();
        for case in 0..20 {
            let mut cuts = vec![0usize, 31];
            for _ in 0..rng.index(5) {
                cuts.push(rng.index(32));
            }
            cuts.sort_unstable();
            let blocks: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
            for tile in [1, 7, 0] {
                let tiled = ridge_solve_rows_tiled(&g, &b_rows, 0.2, 3, &blocks, tile).unwrap();
                assert_eq!(
                    tiled.as_slice(),
                    whole.as_slice(),
                    "case {case} blocks {blocks:?} tile {tile}"
                );
            }
        }
    }

    #[test]
    fn tiled_cols_solve_matches_serial_bit_for_bit() {
        let mut rng = SeededRng::new(34);
        let g = rng.uniform_mat(40, 3, 0.0, 2.0);
        let b = rng.uniform_mat(40, 17, 0.0, 5.0);
        let serial = ridge_solve(&g, &b, 0.2).unwrap().transpose();
        for tile in [1, 7, 17, 64, 0] {
            for threads in [1, 2, 8] {
                let tiled = ridge_solve_cols_tiled(&g, &b, 0.2, threads, tile).unwrap();
                assert_eq!(tiled.as_slice(), serial.as_slice(), "tile={tile} threads={threads}");
            }
        }
    }

    #[test]
    fn exact_zeros_in_g_keep_the_skip_semantics() {
        // t_matmul skips exact-zero G entries, which matters bit-wise when
        // a right-hand side holds a negative zero or an infinity (an
        // unskipped 0·∞ term would inject a NaN). The tiled kernels must
        // skip the very same terms; NaNs compare by bit pattern here.
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let g = Mat::from_rows(&[&[0.0, 1.0], &[-0.0, 2.0], &[3.0, 0.0]]);
        let b_rows = Mat::from_rows(&[&[-0.0, f64::INFINITY, 1.0], &[1.0, -0.0, f64::INFINITY]]);
        let naive = ridge_solve_rows(&g, &b_rows, 0.5, 1).unwrap();
        for tile in [1, 2, 0] {
            let tiled = ridge_solve_rows_tiled(&g, &b_rows, 0.5, 1, &[(0, 2)], tile).unwrap();
            assert_eq!(bits(&tiled), bits(&naive), "tile={tile}");
        }
        let b = b_rows.transpose();
        let naive_cols = ridge_solve_cols(&g, &b, 0.5, 1).unwrap();
        for tile in [1, 2, 0] {
            let tiled = ridge_solve_cols_tiled(&g, &b, 0.5, 1, tile).unwrap();
            assert_eq!(bits(&tiled), bits(&naive_cols), "tile={tile}");
        }
    }

    #[test]
    fn tiled_kernels_reject_shape_mismatch() {
        let g = Mat::zeros(4, 2);
        assert!(matmul_t_tiled(&Mat::zeros(2, 3), &Mat::zeros(2, 4), 1, 2).is_err());
        assert!(ridge_solve_rows_tiled(&g, &Mat::zeros(3, 5), 0.1, 1, &[(0, 3)], 2).is_err());
        assert!(ridge_solve_cols_tiled(&g, &Mat::zeros(5, 3), 0.1, 1, 2).is_err());
    }

    #[test]
    fn tiled_solvers_propagate_singular_factor_errors() {
        let g = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let b_rows = Mat::from_rows(&[&[1.0, 1.0, 2.0], &[0.5, 0.5, 1.0]]);
        assert!(ridge_solve_rows_tiled(&g, &b_rows, 0.0, 1, &[(0, 2)], 1).is_err());
        assert!(ridge_solve_cols_tiled(&g, &b_rows.transpose(), 0.0, 1, 1).is_err());
        assert!(ridge_solve_rows_tiled(&g, &b_rows, 0.1, 1, &[(0, 2)], 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "blocks must cover")]
    fn tiled_rows_solve_rejects_short_partition() {
        let g = Mat::zeros(3, 2);
        let b_rows = Mat::zeros(5, 3);
        let _ = ridge_solve_rows_tiled(&g, &b_rows, 0.1, 1, &[(0, 3)], 2);
    }
}
