//! Kernel-equivalence differential suite: the cache-blocked kernels in
//! `limeqo_linalg::block` and the incremental factor-update path in
//! `AlsCompleter` against their reference implementations.
//!
//! Two contracts are pinned here (PERF.md §Kernels):
//!
//! 1. **Bit-identity** — the tiled kernels replicate the naive kernels'
//!    per-element floating-point operation sequence exactly, so any tile
//!    size at any thread count produces byte-identical output. This is
//!    what lets `AlsKernel::Blocked` be the default without moving a
//!    single golden.
//! 2. **Bounded deviation** — the incremental path (re-solve only dirty
//!    `Q` rows against retained `H`) is *exactly* the full path when every
//!    row is dirty, and stays within the documented relative-Frobenius
//!    bound for arbitrary dirty subsets on in-model workloads.
//!
//! The `#[ignore]`d tests sweep production-sized shapes and the full
//! registry (slow tier, `./ci.sh --ignored`).

use limeqo_bench::scenario_runner::run_scenario;
use limeqo_core::complete::{AlsCompleter, AlsKernel, Completer};
use limeqo_core::matrix::WorkloadMatrix;
use limeqo_core::scenario::PolicySpec;
use limeqo_linalg::block::LowRankRows;
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::{
    frobenius_norm, matmul_t_tiled, par, ridge_solve, ridge_solve_cols, ridge_solve_cols_tiled,
    ridge_solve_rows_blocked, ridge_solve_rows_tiled, Mat,
};
use limeqo_sim::scenario::registry;
use proptest::prelude::*;

/// The tile sizes every differential test sweeps: degenerate (1), prime
/// (7, never divides the tested shapes evenly), large (64, usually wider
/// than the whole RHS panel), and auto (0).
const TILES: [usize; 4] = [1, 7, 64, 0];
const THREADS: [usize; 3] = [1, 2, 8];

/// Bit-exact view of a matrix: `f64::to_bits` per element, so NaN slots
/// and signed zeros compare exactly instead of by IEEE equality.
fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Synthetic exactly-rank-`r` workload matrix observing roughly `frac` of
/// its cells plus the full default column; mirrors the core crate's
/// private test_support builder.
fn synthetic_wm(n: usize, k: usize, r: usize, frac: f64, seed: u64) -> WorkloadMatrix {
    let mut rng = SeededRng::new(seed);
    let q = rng.uniform_mat(n, r, 0.1, 2.0);
    let h = rng.uniform_mat(k, r, 0.1, 2.0);
    let truth = q.matmul_t(&h).expect("shape");
    let mut wm = WorkloadMatrix::new(n, k);
    for i in 0..n {
        wm.set_complete(i, 0, truth[(i, 0)]);
        for j in 1..k {
            if rng.chance(frac) {
                wm.set_complete(i, j, truth[(i, j)]);
            }
        }
    }
    wm
}

/// An `AlsCompleter` warm-fitted once on `wm`, ready for incremental
/// calls: low iteration count keeps the proptest sweeps fast.
fn fitted_incremental(wm: &WorkloadMatrix, rank: usize, seed: u64) -> AlsCompleter {
    let mut als = AlsCompleter::warm_started(rank, seed);
    als.iters = 10;
    als.incremental = true;
    als.incremental_threshold = 1.0;
    als.incremental_full_every = 0;
    let _ = als.complete(wm);
    als
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// `matmul_t_tiled` replicates the serial `Mat::matmul_t` FP sequence
    /// at every tile size and thread count, including shapes no tile
    /// divides evenly.
    #[test]
    fn tiled_matmul_is_bit_identical_to_naive(
        dims in (1usize..40, 1usize..20, 1usize..8),
        seed in 0u64..500,
    ) {
        let (n, k, r) = dims;
        let mut rng = SeededRng::new(seed ^ 0xB10C);
        let a = rng.gaussian_mat(n, r, 0.0, 2.0);
        let b = rng.gaussian_mat(k, r, 0.0, 2.0);
        let naive = a.matmul_t(&b).unwrap();
        for tile in TILES {
            for threads in THREADS {
                let tiled = matmul_t_tiled(&a, &b, threads, tile).unwrap();
                prop_assert_eq!(
                    bits(&tiled), bits(&naive),
                    "matmul_t diverged at tile {} threads {}", tile, threads
                );
            }
        }
        // The parallel naive kernel shares the same contract.
        prop_assert_eq!(bits(&par::matmul_t(&a, &b, 4).unwrap()), bits(&naive));
    }

    /// `ridge_solve_rows_tiled` matches `ridge_solve_rows_blocked` on the
    /// same block partition, bit for bit — including partitions with empty
    /// and uneven blocks.
    #[test]
    fn tiled_row_solve_is_bit_identical_to_blocked(
        dims in (2usize..24, 1usize..6, 1usize..30),
        lambda in 0.0f64..2.0,
        seed in 0u64..500,
    ) {
        let (m, p, q) = dims;
        let mut rng = SeededRng::new(seed ^ 0x50_1E);
        let g = rng.uniform_mat(m, p, 0.0, 1.5);
        let b_rows = rng.uniform_mat(q, m, 0.0, 2.0);
        let split = q / 2;
        for blocks in [vec![(0, q)], vec![(0, split), (split, split), (split, q)]] {
            let naive = ridge_solve_rows_blocked(&g, &b_rows, lambda, 1, &blocks).unwrap();
            for tile in TILES {
                for threads in THREADS {
                    let tiled =
                        ridge_solve_rows_tiled(&g, &b_rows, lambda, threads, &blocks, tile)
                            .unwrap();
                    prop_assert_eq!(
                        bits(&tiled), bits(&naive),
                        "row solve diverged at tile {} threads {}", tile, threads
                    );
                }
            }
        }
    }

    /// `ridge_solve_cols_tiled` matches `ridge_solve_cols` bit for bit:
    /// the in-place row-window reads replicate the strided `col_block`
    /// gather's FP sequence exactly, zero-skip semantics included.
    #[test]
    fn tiled_col_solve_is_bit_identical_to_naive(
        dims in (2usize..24, 1usize..6, 1usize..16),
        lambda in 0.0f64..2.0,
        seed in 0u64..500,
    ) {
        let (m, p, cols) = dims;
        let mut rng = SeededRng::new(seed ^ 0xC0_15);
        let mut g = rng.uniform_mat(m, p, 0.0, 1.5);
        // Plant exact zeros so the skip predicate is exercised.
        if m > 2 {
            for j in 0..p {
                g[(2, j)] = 0.0;
            }
        }
        let b = rng.uniform_mat(m, cols, 0.0, 2.0);
        let naive = ridge_solve_cols(&g, &b, lambda, 1).unwrap();
        for tile in TILES {
            for threads in THREADS {
                let tiled = ridge_solve_cols_tiled(&g, &b, lambda, threads, tile).unwrap();
                prop_assert_eq!(
                    bits(&tiled), bits(&naive),
                    "col solve diverged at tile {} threads {}", tile, threads
                );
            }
        }
    }

    /// End to end through Algorithm 2: an `AlsCompleter` on the blocked
    /// kernels reproduces the naive-kernel completer byte for byte at any
    /// tile size and thread count, censored clamps and all.
    #[test]
    fn als_blocked_kernel_is_bit_identical_to_naive(
        dims in (4usize..30, 3usize..12),
        frac in 0.2f64..0.8,
        seed in 0u64..500,
    ) {
        let (n, k) = dims;
        let mut wm = synthetic_wm(n, k, 3, frac, seed);
        let first_unobserved = wm.unobserved_cells().next();
        if let Some((ci, cj)) = first_unobserved {
            wm.set_censored(ci, cj, 42.0);
        }
        let reference = {
            let mut als = AlsCompleter::with_rank(3, seed);
            als.iters = 5;
            als.kernel = AlsKernel::Naive;
            als.complete(&wm)
        };
        for tile in TILES {
            for threads in THREADS {
                let mut als = AlsCompleter::with_rank(3, seed);
                als.iters = 5;
                als.threads = threads;
                als.kernel = AlsKernel::Blocked { tile };
                prop_assert_eq!(
                    bits(&als.complete(&wm)), bits(&reference),
                    "ALS diverged at tile {} threads {}", tile, threads
                );
            }
        }
    }

    /// When every row is dirty the incremental path must be *exactly* the
    /// full alternation — same factors, same completion, bit for bit.
    #[test]
    fn incremental_with_all_rows_dirty_is_exactly_the_full_path(
        dims in (4usize..24, 3usize..10),
        frac in 0.2f64..0.7,
        seed in 0u64..500,
    ) {
        let (n, k) = dims;
        let wm = synthetic_wm(n, k, 3, frac, seed);
        let mut incremental = fitted_incremental(&wm, 3, seed);
        // The documented threshold contract: an all-dirty call exceeds the
        // default 0.5 dirty fraction and falls through to the exact full
        // alternation — not an approximation of it.
        incremental.incremental_threshold = 0.5;
        let mut full = fitted_incremental(&wm, 3, seed);
        let all: Vec<usize> = (0..n).collect();
        let got = incremental.complete_dirty(&wm, Some(&all));
        let want = full.complete(&wm);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Arbitrary dirty subsets: the incremental completion stays within
    /// the documented relative-Frobenius bound of the full refit when the
    /// new observations come from the same low-rank ground truth
    /// (the convergence contract in PERF.md §Kernels).
    #[test]
    fn incremental_deviation_from_full_stays_bounded(
        dims in (8usize..24, 4usize..10),
        frac in 0.3f64..0.7,
        subset_seed in 0u64..1_000,
        seed in 0u64..500,
    ) {
        let (n, k) = dims;
        let mut rng = SeededRng::new(seed);
        let qt = rng.uniform_mat(n, 3, 0.1, 2.0);
        let ht = rng.uniform_mat(k, 3, 0.1, 2.0);
        let truth = qt.matmul_t(&ht).unwrap();
        let mut wm = WorkloadMatrix::new(n, k);
        for i in 0..n {
            wm.set_complete(i, 0, truth[(i, 0)]);
            for j in 1..k {
                if rng.chance(frac) {
                    wm.set_complete(i, j, truth[(i, j)]);
                }
            }
        }
        let mut incremental = fitted_incremental(&wm, 3, seed);
        let mut full = fitted_incremental(&wm, 3, seed);
        // Reveal one more truth cell in an arbitrary subset of rows.
        let mut sub_rng = SeededRng::new(subset_seed ^ 0xD127);
        let mut dirty = Vec::new();
        for i in 0..n {
            if !sub_rng.chance(0.3) {
                continue;
            }
            let next_unobserved = wm.unobserved_cells().find(|&(r, _)| r == i).map(|(_, j)| j);
            if let Some(j) = next_unobserved {
                wm.set_complete(i, j, truth[(i, j)]);
                dirty.push(i);
            }
        }
        let got = incremental.complete_dirty(&wm, Some(&dirty));
        let want = full.complete(&wm);
        let mut diff = got.clone();
        diff.axpy(-1.0, &want).unwrap();
        let rel = frobenius_norm(&diff) / frobenius_norm(&want).max(1e-12);
        prop_assert!(rel < 0.25, "incremental deviated {rel} from the full refit");
    }
}

/// A fill that plants the awkward right-hand sides in `QHᵀ`'s window
/// `col_lo..col_lo + out.len()` of `row`: observed `-0.0` and `+∞` cells,
/// plus a censored-style clamp to 1.5. Depends only on `(row, col)`, so
/// any window of a row sees the same cells.
fn awkward_fill(row: usize, col_lo: usize, out: &mut [f64]) {
    for (j, v) in out.iter_mut().enumerate() {
        let col = col_lo + j;
        if (row + col) % 7 == 0 {
            *v = -0.0;
        } else if (3 * row + col) % 11 == 0 {
            *v = f64::INFINITY;
        } else if (row + 2 * col) % 5 == 0 && *v < 1.5 {
            *v = 1.5;
        }
    }
}

/// The materialized reference for the row builder: `Mat::matmul_t`, then
/// `fill` on each whole row.
fn filled_reference(q: &Mat, h: &Mat, fill: impl Fn(usize, usize, &mut [f64])) -> Mat {
    let mut w = q.matmul_t(h).unwrap();
    for row in 0..w.rows() {
        fill(row, 0, w.row_mut(row));
    }
    w
}

/// A non-negative factor as the clamp leaves it: Gaussian entries
/// projected onto `≥ 0` (about half become exact zeros), plus one column
/// that is exactly zero throughout, so the kernels' skip path is taken
/// for whole columns too.
fn clamped_factor(rng: &mut SeededRng, rows: usize, rank: usize, zero_col: usize) -> Mat {
    let mut f = rng.gaussian_mat(rows, rank, 0.0, 1.5);
    f.clamp_min(0.0);
    for i in 0..rows {
        f[(i, zero_col % rank)] = 0.0;
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The fused half-steps against the materialize-then-solve path, at
    /// the kernels' edges: right-hand sides holding `-0.0` and `+∞`
    /// (compared by bit pattern, NaNs included); factor columns that are
    /// exactly zero after the non-negativity clamp; row blocks whose
    /// boundaries fall inside a panel; tiles of 1 and tiles wider than a
    /// worker's whole chunk (64 against at most 60 rows over 8 workers);
    /// and a dirty-row selection.
    #[test]
    fn fused_half_steps_match_the_materialized_path_at_the_edges(
        dims in (1usize..60, 2usize..20, 1usize..6),
        lambda in 0.01f64..2.0,
        seed in 0u64..500,
    ) {
        let (n, k, r) = dims;
        let mut rng = SeededRng::new(seed ^ 0xF0_5ED);
        let q = clamped_factor(&mut rng, n, r, 0);
        let h = clamped_factor(&mut rng, k, r, r - 1);
        let w = filled_reference(&q, &h, awkward_fill);
        let rows = LowRankRows::new(&q, &h, awkward_fill).unwrap();
        let blocks = [(0, n / 3), (n / 3, n / 3), (n / 3, 2 * n / 3 + 1), (2 * n / 3 + 1, n)];
        let blocks: Vec<(usize, usize)> =
            blocks.iter().map(|&(a, b)| (a.min(n), b.min(n))).collect();
        let want_q = ridge_solve_rows_blocked(&h, &w, lambda, 1, &blocks).unwrap();
        let want_h = ridge_solve_cols(&q, &w, lambda, 1).unwrap();
        let dirty: Vec<usize> = (0..n).step_by(3).collect();
        let w_dirty = Mat::from_rows(&dirty.iter().map(|&i| w.row(i)).collect::<Vec<_>>());
        let want_dirty = ridge_solve_rows_blocked(&h, &w_dirty, lambda, 1, &[(0, dirty.len())])
            .unwrap();
        let picked = LowRankRows::new(&q, &h, awkward_fill).unwrap().select(&dirty);
        for tile in TILES {
            for threads in THREADS {
                let at = format!("tile {tile} threads {threads}");
                prop_assert_eq!(bits(&rows.to_mat(threads, tile)), bits(&w), "build, {}", at);
                let got = ridge_solve_rows_tiled(&h, &rows, lambda, threads, &blocks, tile);
                prop_assert_eq!(bits(&got.unwrap()), bits(&want_q), "Q step, {}", at);
                let got = ridge_solve_cols_tiled(&q, &rows, lambda, threads, tile);
                prop_assert_eq!(bits(&got.unwrap()), bits(&want_h), "H step, {}", at);
                let got =
                    ridge_solve_rows_tiled(&h, &picked, lambda, threads, &[(0, dirty.len())], tile);
                prop_assert_eq!(bits(&got.unwrap()), bits(&want_dirty), "dirty Q step, {}", at);
            }
        }
    }

    /// Algorithm 2 end to end on sharded matrices whose shard boundaries
    /// fall inside the fused `Q` step's row panels: the fused fit matches
    /// the naive kernel on the unsharded matrix at every tile and thread
    /// count, censored clamps included.
    #[test]
    fn als_fused_panels_straddling_shard_boundaries_stay_bit_identical(
        n in 9usize..40,
        shards in 2usize..6,
        seed in 0u64..500,
    ) {
        let k = 7;
        let flat = synthetic_wm(n, k, 3, 0.4, seed);
        let mut sharded = WorkloadMatrix::new_sharded(n, k, shards);
        for i in 0..n {
            for j in 0..k {
                if let limeqo_core::matrix::Cell::Complete(v) = flat.cell(i, j) {
                    sharded.set_complete(i, j, v);
                }
            }
        }
        let mut flat = flat;
        for (c, (i, j)) in flat.unobserved_cells().take(3).collect::<Vec<_>>().into_iter().enumerate() {
            let bound = 2.0 + c as f64;
            flat.set_censored(i, j, bound);
            sharded.set_censored(i, j, bound);
        }
        let reference = {
            let mut als = AlsCompleter::with_rank(3, seed);
            als.iters = 5;
            als.kernel = AlsKernel::Naive;
            als.complete(&flat)
        };
        for tile in [1usize, 4, 7, 64, 0] {
            for threads in THREADS {
                let mut als = AlsCompleter::with_rank(3, seed);
                als.iters = 5;
                als.threads = threads;
                als.kernel = AlsKernel::Blocked { tile };
                prop_assert_eq!(
                    bits(&als.complete(&sharded)), bits(&reference),
                    "shards {} tile {} threads {}", shards, tile, threads
                );
            }
        }
    }
}

/// Algorithm 2 written out densely and serially, independent of the
/// shipped engine: dense `W̃`/`M`/`T`, `Mat::matmul_t`, the mask fill and
/// censored clamp, and one-shot `ridge_solve` calls. Same seed derivation
/// and init scale as `AlsCompleter`'s first call.
fn dense_reference(wm: &WorkloadMatrix, rank: usize, iters: usize, seed: u64) -> Mat {
    let (n, k) = (wm.n_rows(), wm.n_cols());
    let lambda = 0.2;
    let (values, mask, timeouts) = (wm.values(), wm.mask(), wm.timeouts());
    let fill = |qh: Mat| {
        let mut out = qh;
        for ((o, &m), (&v, &t)) in out
            .as_mut_slice()
            .iter_mut()
            .zip(mask.as_slice())
            .zip(values.as_slice().iter().zip(timeouts.as_slice()))
        {
            if m != 0.0 {
                *o = v;
            }
            if t > 0.0 && *o < t {
                *o = t;
            }
        }
        out
    };
    let mut rng = SeededRng::new(seed.wrapping_add(0xA5A5));
    let mean_obs = (values.sum() / mask.sum().max(1.0)).max(1e-9);
    let bound = 2.0 * (mean_obs / rank as f64).sqrt();
    let mut q = rng.uniform_mat(n, rank, 0.0, bound);
    let mut h = rng.uniform_mat(k, rank, 0.0, bound);
    for _ in 0..iters {
        let w_hat = fill(q.matmul_t(&h).unwrap());
        q = ridge_solve(&h, &w_hat.transpose(), lambda).unwrap().transpose();
        q.clamp_min(0.0);
        let w_hat = fill(q.matmul_t(&h).unwrap());
        h = ridge_solve(&q, &w_hat, lambda).unwrap().transpose();
        h.clamp_min(0.0);
    }
    fill(q.matmul_t(&h).unwrap())
}

/// At 1200×49, rank 5, `n·k·r` exceeds `par::MIN_PAR_WORK`, so the
/// default `threads = 0` really fans the fused half-steps out across the
/// machine's cores. The fit must still equal the serial dense reference
/// bit for bit.
#[test]
fn fused_als_fanned_out_matches_the_serial_dense_reference() {
    let (n, k, rank, iters, seed) = (1_200, 49, 5, 5, 0xFA_11);
    assert!(n * k * rank > par::MIN_PAR_WORK, "the shape must arm the auto fan-out");
    let mut wm = synthetic_wm(n, k, rank, 0.1, seed);
    let planted: Vec<(usize, usize)> = wm.unobserved_cells().step_by(97).take(100).collect();
    for (c, (i, j)) in planted.into_iter().enumerate() {
        wm.set_censored(i, j, 1.0 + (c % 9) as f64);
    }
    let reference = dense_reference(&wm, rank, iters, seed);
    let mut als = AlsCompleter::with_rank(rank, seed);
    als.iters = iters;
    assert_eq!(als.threads, 0, "the default thread knob is auto");
    assert_eq!(bits(&als.complete(&wm)), bits(&reference));
}

/// Fast-tier registry sweep: LimeQO stays no worse than Random (at the
/// golden suite's 2 % tolerance) on every drift-free LimeQoAls scenario
/// with incremental factor updates switched on. The big 10k-row scenario
/// joins in the `#[ignore]`d full sweep below.
#[test]
fn registry_holds_limeqo_vs_random_with_incremental_updates() {
    sweep_registry_with_incremental(1_000);
}

#[test]
#[ignore = "slow tier: the full registry incl. large-matrix-10k; run via ./ci.sh --ignored"]
fn full_registry_holds_limeqo_vs_random_with_incremental_updates() {
    sweep_registry_with_incremental(usize::MAX);
}

fn sweep_registry_with_incremental(max_rows: usize) {
    let mut covered = 0;
    for mut spec in registry() {
        if spec.workload.n_queries() > max_rows {
            continue;
        }
        let PolicySpec::LimeQoAls { ref mut incremental_als, .. } = spec.policy else {
            continue;
        };
        if !spec.drift.is_empty() {
            continue;
        }
        *incremental_als = true;
        let o = run_scenario(&spec);
        let random = o.random_final_latency.expect("offline scenarios run a random reference");
        assert!(
            o.final_latency <= random * 1.02 + 1e-9,
            "{}: limeqo with incremental updates {} worse than random {}",
            spec.name,
            o.final_latency,
            random
        );
        covered += 1;
    }
    assert!(covered >= 3, "expected >= 3 drift-free LimeQoAls scenarios, found {covered}");
}

/// Production-sized shapes for the bit-identity contract: panels far
/// larger than any cache level, deliberately non-divisible by every tile.
#[test]
#[ignore = "slow tier: large-shape kernel sweep; run via ./ci.sh --ignored"]
fn large_shape_kernels_stay_bit_identical() {
    let mut rng = SeededRng::new(0xB16_5EED);
    let a = rng.gaussian_mat(2_003, 7, 0.0, 2.0);
    let b = rng.gaussian_mat(53, 7, 0.0, 2.0);
    let naive = a.matmul_t(&b).unwrap();
    for tile in [1, 83, 256, 0] {
        for threads in [1, 3, 8] {
            let tiled = matmul_t_tiled(&a, &b, threads, tile).unwrap();
            assert_eq!(bits(&tiled), bits(&naive), "matmul tile {tile} threads {threads}");
        }
    }
    let g = rng.uniform_mat(53, 7, 0.0, 1.5);
    let b_rows = rng.uniform_mat(2_003, 53, 0.0, 2.0);
    let blocks = [(0usize, 997usize), (997, 2_003)];
    let naive = ridge_solve_rows_blocked(&g, &b_rows, 0.2, 1, &blocks).unwrap();
    for tile in [1, 83, 256, 0] {
        for threads in [1, 3, 8] {
            let tiled = ridge_solve_rows_tiled(&g, &b_rows, 0.2, threads, &blocks, tile).unwrap();
            assert_eq!(bits(&tiled), bits(&naive), "row solve tile {tile} threads {threads}");
        }
    }
    let g2 = rng.uniform_mat(2_003, 7, 0.0, 1.5);
    let b2 = rng.uniform_mat(2_003, 53, 0.0, 2.0);
    let naive = ridge_solve_cols(&g2, &b2, 0.2, 1).unwrap();
    for tile in [1, 83, 256, 0] {
        for threads in [1, 3, 8] {
            let tiled = ridge_solve_cols_tiled(&g2, &b2, 0.2, threads, tile).unwrap();
            assert_eq!(bits(&tiled), bits(&naive), "col solve tile {tile} threads {threads}");
        }
    }
}
