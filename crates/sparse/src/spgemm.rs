//! Local sparse matrix–matrix multiplication kernels.
//!
//! The computational core of SimilarityAtScale is `B = AᵀA` where `A` is a
//! hypersparse batch of the indicator matrix and the output is dense
//! (Section III-A). After masking, the product runs over the popcount-AND
//! semiring on 64-bit words (Eq. 7). This module provides:
//!
//! * [`ata_dense`] — row-wise (Gustavson) `AᵀA` with a dense accumulator;
//! * [`ata_dense_parallel`] — the same product parallelized over output
//!   rows with Rayon (the on-node parallelism of a rank);
//! * [`ata_panel_popcount`] — the popcount-AND `AᵀA` of a bit-packed
//!   batch straight from its CSC words, with no transpose: word rows are
//!   taken [`PANEL_WORDS`] at a time and scattered into a dense
//!   column-major panel, every pair `j ≥ i` sums `popcount(Pᵢ & Pⱼ)`
//!   over the panel, and the triangle is mirrored at the end;
//! * [`ata_popcount`] — the kernel the all-pairs drivers call on a packed
//!   batch: the panel kernel when the batch is dense enough (see
//!   [`panel_beats_gustavson`]), Gustavson `ata_dense_parallel` over the
//!   popcount-AND semiring otherwise;
//! * [`atb_block_dense`] — the `C += AᵀB` block kernel used by the
//!   distributed SUMMA/2.5D algorithm;
//! * [`spgemm_csr`] — a general-purpose Gustavson SpGEMM with sparse
//!   output, used by the graph-framing applications and as a reference.

use std::ops::Range;

use rayon::prelude::*;

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};
use crate::semiring::{PopcountAnd, Semiring};

/// Compute the dense matrix `B = AᵀA` over semiring `S`, where `A` is
/// given in CSR form with `m` rows (attributes) and `n` columns (samples).
///
/// Gustavson-style: for every row `k` of `A`, every pair of entries
/// `(i, a_ki)`, `(j, a_kj)` contributes `mul(a_ki, a_kj)` to `B[i][j]`.
/// The cost is `Σ_k nnz(row k)²` multiplications, matching the paper's
/// observation that dense rows are what make the product expensive.
pub fn ata_dense<S>(a: &CsrMatrix<S::Left>) -> DenseMatrix<S::Out>
where
    S: Semiring,
    S::Left: Copy,
    S::Right: Copy + From<S::Left>,
    S::Out: Copy + Default,
{
    let n = a.ncols();
    let mut out = DenseMatrix::<S::Out>::zeros(n, n);
    let mut row_entries: Vec<(usize, S::Left)> = Vec::new();
    for k in 0..a.nrows() {
        row_entries.clear();
        row_entries.extend(a.row(k));
        for &(i, vi) in &row_entries {
            let out_row = out.row_mut(i);
            for &(j, vj) in &row_entries {
                out_row[j] = S::add(out_row[j], S::mul(vi, S::Right::from(vj)));
            }
        }
    }
    out
}

/// Parallel `B = AᵀA` over semiring `S`.
///
/// Requires both the CSC view (to enumerate the rows present in each
/// sample/column) and the CSR view (to enumerate the samples present in
/// each row). Output rows are computed independently — thread `i` owns
/// `B[i][:]` — so the parallelism is free of write conflicts while doing
/// the same `Σ_k nnz(row k)²` work as the sequential kernel.
pub fn ata_dense_parallel<S>(
    a_csc: &CscMatrix<S::Left>,
    a_csr: &CsrMatrix<S::Right>,
) -> SparseResult<DenseMatrix<S::Out>>
where
    S: Semiring,
    S::Left: Copy + Sync + Send,
    S::Right: Copy + Sync + Send,
    S::Out: Copy + Default + Sync + Send,
{
    if a_csc.nrows() != a_csr.nrows() || a_csc.ncols() != a_csr.ncols() {
        return Err(SparseError::ShapeMismatch {
            context: format!(
                "CSC view is {}x{} but CSR view is {}x{}",
                a_csc.nrows(),
                a_csc.ncols(),
                a_csr.nrows(),
                a_csr.ncols()
            ),
        });
    }
    let n = a_csc.ncols();
    let rows: Vec<Vec<S::Out>> = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut out_row = vec![S::zero(); n];
            for (k, vi) in a_csc.col(i) {
                for (j, vj) in a_csr.row(k) {
                    out_row[j] = S::add(out_row[j], S::mul(vi, vj));
                }
            }
            out_row
        })
        .collect();
    let mut flat = Vec::with_capacity(n * n);
    for r in rows {
        flat.extend(r);
    }
    DenseMatrix::from_vec(n, n, flat)
}

/// Word rows per panel of [`ata_panel_popcount`]: a 256-sample panel is
/// 256 KiB, which stays in a core's L2 while every pair sweeps it.
pub const PANEL_WORDS: usize = 128;

/// The cost ratio `K` of the kernel selection rule: one Gustavson
/// popcount-AND update (an indexed read-modify-write of an output row,
/// transpose included) costs about `K` dense panel words. Measured with
/// the `spgemm_kernels` bench (`gram_selection` group, 500 k-row batches)
/// on a 2-core Intel Xeon VM, built for the baseline x86-64 target:
///
/// | shape | rule ratio | Gustavson + `to_csr` | panel | crossover `K` |
/// |---|---|---|---|---|
/// | n = 256, density 1% | 1.98 | 0.285 s | 0.127 s | 4.4 |
/// | n = 256, density 0.05% | 9.08 | 8.0 ms | 17.7 ms | 4.1 |
/// | n = 1024, density 0.05% | 84.2 | 50 ms | 967 ms | 4.3 |
///
/// (crossover `K` = ratio × Gustavson time ÷ panel time).
pub const PANEL_COST_RATIO: u64 = 4;

/// The kernel selection rule, decided from the packed CSC alone: the
/// panel kernel does `W·n²/2` word operations for `W` word rows and `n`
/// columns, Gustavson does `Σₖ rₖ²` indexed updates for `rₖ` stored words
/// in word row `k`, so the panel kernel is preferred when
/// `W·n²/2 ≤ K·Σₖ rₖ²` with `K` = [`PANEL_COST_RATIO`]. Columns whose
/// word rows are not strictly increasing never take the panel path.
pub fn panel_beats_gustavson(a: &CscMatrix<u64>) -> bool {
    let Some(row_counts) = sorted_row_counts(a) else { return false };
    let gustavson: u128 = row_counts.iter().map(|&r| u128::from(r) * u128::from(r)).sum();
    let n = a.ncols() as u128;
    (a.nrows() as u128) * n * n / 2 <= u128::from(PANEL_COST_RATIO) * gustavson
}

/// Stored entries per row, or `None` if some column's row indices are not
/// strictly increasing (the panel scatter walks columns in row order).
fn sorted_row_counts(a: &CscMatrix<u64>) -> Option<Vec<u32>> {
    let mut counts = vec![0u32; a.nrows()];
    for j in 0..a.ncols() {
        let rows = &a.indices()[a.indptr()[j]..a.indptr()[j + 1]];
        if rows.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        for &k in rows {
            counts[k] += 1;
        }
    }
    Some(counts)
}

/// `B = AᵀA` over the popcount-AND semiring for a bit-packed batch `A`
/// (CSC, columns are samples), choosing the kernel by
/// [`panel_beats_gustavson`]. Both paths give bit-identical results.
pub fn ata_popcount(a: &CscMatrix<u64>) -> SparseResult<DenseMatrix<u64>> {
    if panel_beats_gustavson(a) {
        panel_gram(a)
    } else {
        ata_dense_parallel::<PopcountAnd>(a, &a.to_csr())
    }
}

/// The panel Gram kernel: `B = AᵀA` over the popcount-AND semiring,
/// computed from the packed CSC without transposing it.
///
/// Word rows are processed [`PANEL_WORDS`] at a time. Each column's words
/// in the chunk are scattered into a dense column-major panel (columns
/// with no word in the chunk are skipped), and every pair `j ≥ i` adds
/// `popcount(Pᵢ & Pⱼ)` over the panel; the lower triangle is mirrored at
/// the end. Threads own contiguous output-row ranges cut so each gets an
/// equal share of the triangle's pairs, and each writes only its own
/// rows, so the output stays `n × n` with no per-thread accumulator.
/// Each column's row indices must be strictly increasing (as in every
/// [`crate::bitmat::BitMatrix`]); otherwise this returns an error.
pub fn ata_panel_popcount(a: &CscMatrix<u64>) -> SparseResult<DenseMatrix<u64>> {
    if sorted_row_counts(a).is_none() {
        return Err(SparseError::ShapeMismatch {
            context: "panel kernel needs strictly increasing word rows in every column".to_string(),
        });
    }
    panel_gram(a)
}

/// [`ata_panel_popcount`] on a CSC whose columns are known to be sorted.
fn panel_gram(a: &CscMatrix<u64>) -> SparseResult<DenseMatrix<u64>> {
    let n = a.ncols();
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let parts = triangle_parts(n, threads);
    let blocks: Vec<Vec<u64>> =
        (0..parts.len()).into_par_iter().map(|p| panel_rows(a, parts[p].clone())).collect();
    let mut flat = Vec::with_capacity(n * n);
    for block in blocks {
        flat.extend(block);
    }
    for i in 1..n {
        for j in 0..i {
            flat[i * n + j] = flat[j * n + i];
        }
    }
    DenseMatrix::from_vec(n, n, flat)
}

/// Split output rows `0..n` into at most `parts` contiguous ranges with
/// near-equal upper-triangle work (row `i` owns `n − i` pairs), so a
/// static contiguous split over threads stays balanced.
fn triangle_parts(n: usize, parts: usize) -> Vec<Range<usize>> {
    let total = n * (n + 1) / 2;
    let parts = parts.clamp(1, n.max(1));
    let mut ranges = Vec::with_capacity(parts);
    let (mut lo, mut done) = (0usize, 0usize);
    for p in 1..=parts {
        let target = total * p / parts;
        let mut hi = lo;
        while hi < n && done < target {
            done += n - hi;
            hi += 1;
        }
        if p == parts {
            hi = n;
        }
        ranges.push(lo..hi);
        lo = hi;
    }
    ranges
}

/// Rows `rows` of the upper triangle of `AᵀA` (row-major, `n` wide; the
/// entries left of the diagonal stay zero).
fn panel_rows(a: &CscMatrix<u64>, rows: Range<usize>) -> Vec<u64> {
    let n = a.ncols();
    let mut out = vec![0u64; rows.len() * n];
    if rows.is_empty() {
        return out;
    }
    let (indptr, indices, data) = (a.indptr(), a.indices(), a.data());
    // Columns `lo..n` pair with this range's rows.
    let lo = rows.start;
    let mut panel = vec![[0u64; PANEL_WORDS]; n - lo];
    let mut cursor = indptr[lo..n].to_vec();
    let mut active = Vec::with_capacity(n - lo);
    for start in (0..a.nrows()).step_by(PANEL_WORDS) {
        let end = start + PANEL_WORDS;
        active.clear();
        for (c, col) in panel.iter_mut().enumerate() {
            let stop = indptr[lo + c + 1];
            let mut p = cursor[c];
            if p == stop || indices[p] >= end {
                continue;
            }
            *col = [0; PANEL_WORDS];
            while p < stop && indices[p] < end {
                col[indices[p] - start] = data[p];
                p += 1;
            }
            cursor[c] = p;
            active.push(c);
        }
        for (x, &ci) in active.iter().enumerate() {
            if lo + ci >= rows.end {
                break;
            }
            let out_row = &mut out[ci * n..(ci + 1) * n];
            for &cj in &active[x..] {
                out_row[lo + cj] += panel_and_popcount(&panel[ci], &panel[cj]);
            }
        }
    }
    out
}

/// Four words processed as one unit; the compiler keeps these in vector
/// registers.
type Lanes = [u64; 4];

/// Carry-save adder over four lanes: returns `(carry, sum)` of `a + b + c`
/// bitwise.
#[inline(always)]
fn csa(a: Lanes, b: Lanes, c: Lanes) -> (Lanes, Lanes) {
    let mut carry = [0u64; 4];
    let mut sum = [0u64; 4];
    for q in 0..4 {
        let u = a[q] ^ b[q];
        carry[q] = (a[q] & b[q]) | (u & c[q]);
        sum[q] = u ^ c[q];
    }
    (carry, sum)
}

#[inline(always)]
fn lanes_popcount(v: Lanes) -> u64 {
    v.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// `Σ_w popcount(a[w] & b[w])` over one panel column pair, with a
/// Harley–Seal carry-save tree: sixteen AND-ed four-word lanes are folded
/// into one lane of sixteens, so only one lane in sixteen is popcounted.
/// On targets without a popcount instruction this is about twice as fast
/// as popcounting every word.
#[inline(always)]
fn panel_and_popcount(a: &[u64; PANEL_WORDS], b: &[u64; PANEL_WORDS]) -> u64 {
    let and = |k: usize| -> Lanes {
        [a[k] & b[k], a[k + 1] & b[k + 1], a[k + 2] & b[k + 2], a[k + 3] & b[k + 3]]
    };
    let zero = [0u64; 4];
    let (mut ones, mut twos, mut fours, mut eights) = (zero, zero, zero, zero);
    let mut sixteens_total = 0u64;
    for k in (0..PANEL_WORDS).step_by(64) {
        let (twos_a, o) = csa(ones, and(k), and(k + 4));
        let (twos_b, o) = csa(o, and(k + 8), and(k + 12));
        let (fours_a, t) = csa(twos, twos_a, twos_b);
        let (twos_a, o) = csa(o, and(k + 16), and(k + 20));
        let (twos_b, o) = csa(o, and(k + 24), and(k + 28));
        let (fours_b, t) = csa(t, twos_a, twos_b);
        let (eights_a, f) = csa(fours, fours_a, fours_b);
        let (twos_a, o) = csa(o, and(k + 32), and(k + 36));
        let (twos_b, o) = csa(o, and(k + 40), and(k + 44));
        let (fours_a, t) = csa(t, twos_a, twos_b);
        let (twos_a, o) = csa(o, and(k + 48), and(k + 52));
        let (twos_b, o) = csa(o, and(k + 56), and(k + 60));
        let (fours_b, t) = csa(t, twos_a, twos_b);
        let (eights_b, f) = csa(f, fours_a, fours_b);
        let (sixteens, e) = csa(eights, eights_a, eights_b);
        sixteens_total += lanes_popcount(sixteens);
        (ones, twos, fours, eights) = (o, t, f, e);
    }
    16 * sixteens_total
        + 8 * lanes_popcount(eights)
        + 4 * lanes_popcount(fours)
        + 2 * lanes_popcount(twos)
        + lanes_popcount(ones)
}

/// Accumulate `out += AᵀB` over semiring `S`, where `A` (CSC, `m × na`)
/// and `B` (CSR, `m × nb`) share the same row dimension and `out` is the
/// dense `na × nb` block. This is the local kernel executed at every step
/// of the distributed SUMMA/2.5D product.
pub fn atb_block_dense<S>(
    a_csc: &CscMatrix<S::Left>,
    b_csr: &CsrMatrix<S::Right>,
    out: &mut DenseMatrix<S::Out>,
) -> SparseResult<u64>
where
    S: Semiring,
    S::Left: Copy,
    S::Right: Copy,
    S::Out: Copy + Default,
{
    if a_csc.nrows() != b_csr.nrows() {
        return Err(SparseError::ShapeMismatch {
            context: format!(
                "AᵀB with A having {} rows and B having {} rows",
                a_csc.nrows(),
                b_csr.nrows()
            ),
        });
    }
    if out.nrows() != a_csc.ncols() || out.ncols() != b_csr.ncols() {
        return Err(SparseError::ShapeMismatch {
            context: format!(
                "output block is {}x{} but AᵀB is {}x{}",
                out.nrows(),
                out.ncols(),
                a_csc.ncols(),
                b_csr.ncols()
            ),
        });
    }
    let mut ops = 0u64;
    for i in 0..a_csc.ncols() {
        let out_row = out.row_mut(i);
        for (k, va) in a_csc.col(i) {
            for (j, vb) in b_csr.row(k) {
                out_row[j] = S::add(out_row[j], S::mul(va, vb));
                ops += 1;
            }
        }
    }
    Ok(ops)
}

/// General sparse × sparse multiplication `C = A · B` over semiring `S`
/// with sparse (CSR) output, using Gustavson's algorithm with a dense
/// accumulator per row.
///
/// Entries whose accumulated value equals `S::zero()` are dropped when
/// `S::Out: PartialEq`.
pub fn spgemm_csr<S>(
    a: &CsrMatrix<S::Left>,
    b: &CsrMatrix<S::Right>,
) -> SparseResult<CsrMatrix<S::Out>>
where
    S: Semiring,
    S::Left: Copy,
    S::Right: Copy,
    S::Out: Copy + Default + PartialEq,
{
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            context: format!(
                "A is {}x{} but B is {}x{}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    let n_out = b.ncols();
    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut data = Vec::new();
    let mut acc: Vec<S::Out> = vec![S::zero(); n_out];
    let mut touched: Vec<usize> = Vec::new();
    for i in 0..a.nrows() {
        touched.clear();
        for (k, va) in a.row(i) {
            for (j, vb) in b.row(k) {
                if acc[j] == S::zero() && !touched.contains(&j) {
                    touched.push(j);
                }
                acc[j] = S::add(acc[j], S::mul(va, vb));
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            if acc[j] != S::zero() {
                indices.push(j);
                data.push(acc[j]);
            }
            acc[j] = S::zero();
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts(a.nrows(), n_out, indptr, indices, data)
}

/// Number of scalar multiply-accumulate operations `AᵀA` performs, i.e.
/// `Σ_k nnz(row k)²`. Used by the cost model to charge γ-flops.
pub fn ata_flops<T: Copy>(a: &CsrMatrix<T>) -> u64 {
    (0..a.nrows()).map(|k| (a.row_nnz(k) as u64).pow(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmat::BitMatrix;
    use crate::coo::CooMatrix;
    use crate::semiring::{PlusTimes, PopcountAnd};

    /// Indicator matrix for samples {0,1,2}, {1,2,3}, {5} over 6 attributes.
    fn indicator() -> CooMatrix<u64> {
        let mut m = CooMatrix::new(6, 3);
        for r in [0usize, 1, 2] {
            m.push(r, 0, 1).unwrap();
        }
        for r in [1usize, 2, 3] {
            m.push(r, 1, 1).unwrap();
        }
        m.push(5, 2, 1).unwrap();
        m
    }

    #[test]
    fn ata_dense_counts_intersections() {
        let b = ata_dense::<PlusTimes<u64>>(&indicator().to_csr());
        assert_eq!(b.get(0, 0), 3);
        assert_eq!(b.get(1, 1), 3);
        assert_eq!(b.get(2, 2), 1);
        assert_eq!(b.get(0, 1), 2);
        assert_eq!(b.get(1, 0), 2);
        assert_eq!(b.get(0, 2), 0);
    }

    #[test]
    fn parallel_ata_matches_sequential() {
        let coo = indicator();
        let seq = ata_dense::<PlusTimes<u64>>(&coo.to_csr());
        let par = ata_dense_parallel::<PlusTimes<u64>>(&coo.to_csc(), &coo.to_csr()).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_ata_rejects_mismatched_views() {
        let coo = indicator();
        let other = CooMatrix::<u64>::new(4, 3).to_csr();
        assert!(ata_dense_parallel::<PlusTimes<u64>>(&coo.to_csc(), &other).is_err());
    }

    #[test]
    fn popcount_ata_on_bitpacked_matches_boolean_ata() {
        // Pack the same indicator matrix and verify the popcount-AND
        // product equals the plus-times product on the unpacked matrix.
        let coo = indicator();
        let expected = ata_dense::<PlusTimes<u64>>(&coo.to_csr());
        let bm = BitMatrix::from_columns(6, &[vec![0, 1, 2], vec![1, 2, 3], vec![5]]).unwrap();
        let packed = ata_dense_parallel::<PopcountAnd>(bm.as_csc(), &bm.to_csr()).unwrap();
        assert_eq!(expected, packed);
    }

    /// Deterministic Bernoulli columns: `n` columns over `m` rows with
    /// density `p`, drawn by geometric gap skipping from a SplitMix64
    /// stream.
    fn bernoulli_columns(m: usize, n: usize, p: f64, seed: u64) -> Vec<Vec<usize>> {
        let mut state = seed;
        let mut uniform = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        if p == 0.0 {
            return vec![Vec::new(); n];
        }
        let log_q = (1.0 - p).ln();
        (0..n)
            .map(|_| {
                let mut rows = Vec::new();
                let mut r = 0usize;
                loop {
                    r += ((1.0 - uniform()).ln() / log_q) as usize;
                    if r >= m {
                        break rows;
                    }
                    rows.push(r);
                    r += 1;
                }
            })
            .collect()
    }

    fn gustavson(bm: &BitMatrix) -> DenseMatrix<u64> {
        ata_dense_parallel::<PopcountAnd>(bm.as_csc(), &bm.to_csr()).unwrap()
    }

    #[test]
    fn panel_kernel_equals_gustavson() {
        // n ∈ {1, 2, odd, wider than a thread split}; word rows below one
        // panel, at a panel boundary, and past it by a ragged remainder.
        for (m, n, p) in [
            (64 * 3, 1, 0.3),
            (64 * 300 + 17, 2, 0.02),
            (64 * PANEL_WORDS, 7, 0.05),
            (64 * (2 * PANEL_WORDS + 5) + 1, 33, 0.01),
            (64 * PANEL_WORDS + 64, 64, 0.2),
            (5000, 9, 0.0),
        ] {
            let bm =
                BitMatrix::from_columns(m, &bernoulli_columns(m, n, p, (m * n) as u64)).unwrap();
            let panel = ata_panel_popcount(bm.as_csc()).unwrap();
            assert_eq!(panel, gustavson(&bm), "m = {m}, n = {n}, p = {p}");
            assert_eq!(ata_popcount(bm.as_csc()).unwrap(), panel, "m = {m}, n = {n}");
        }
        // Empty shapes.
        let empty = BitMatrix::from_columns(0, &[]).unwrap();
        assert_eq!(ata_panel_popcount(empty.as_csc()).unwrap().nrows(), 0);
        let no_rows = BitMatrix::from_columns(0, &[vec![], vec![]]).unwrap();
        assert_eq!(ata_panel_popcount(no_rows.as_csc()).unwrap(), gustavson(&no_rows));
    }

    #[test]
    fn panel_kernel_rejects_unsorted_columns() {
        let unsorted =
            CscMatrix::from_raw_parts(4, 2, vec![0, 2, 3], vec![3, 1, 0], vec![1u64, 2, 3])
                .unwrap();
        assert!(ata_panel_popcount(&unsorted).is_err());
        assert!(!panel_beats_gustavson(&unsorted));
        // The selecting entry point still answers, through Gustavson.
        let expected = ata_dense_parallel::<PopcountAnd>(&unsorted, &unsorted.to_csr()).unwrap();
        assert_eq!(ata_popcount(&unsorted).unwrap(), expected);
    }

    #[test]
    fn triangle_parts_cover_rows_with_balanced_pairs() {
        for n in [0usize, 1, 2, 3, 10, 255, 256, 1000] {
            for parts in [1usize, 2, 3, 8] {
                let ranges = triangle_parts(n, parts);
                assert_eq!(ranges.first().map_or(0, |r| r.start), 0);
                assert_eq!(ranges.last().map_or(0, |r| r.end), n);
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                if n >= 64 {
                    let pairs = |r: &Range<usize>| r.clone().map(|i| n - i).sum::<usize>();
                    let ideal = n * (n + 1) / 2 / ranges.len();
                    for r in &ranges {
                        assert!(pairs(r).abs_diff(ideal) <= n, "n = {n}, parts = {parts}, {r:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn selection_rule_picks_panels_when_dense_and_gustavson_when_sparse() {
        // One `allpairs-dense` batch: 2 M rows / 4 batches, 256 samples at
        // 1% density, zero-row filtered and packed.
        let dense = bernoulli_columns(500_000, 256, 0.01, 3);
        let (packed, _) = BitMatrix::pack_filtered(500_000, &dense).unwrap();
        assert!(panel_beats_gustavson(packed.as_csc()));
        // The same batch height with 1024 samples at 0.05% density.
        let sparse = bernoulli_columns(500_000, 1024, 0.0005, 3);
        let (packed, _) = BitMatrix::pack_filtered(500_000, &sparse).unwrap();
        assert!(!panel_beats_gustavson(packed.as_csc()));
    }

    #[test]
    fn atb_block_accumulates_and_counts_ops() {
        let coo = indicator();
        let csc = coo.to_csc();
        let csr = coo.to_csr();
        let mut out = DenseMatrix::<u64>::zeros(3, 3);
        let ops1 = atb_block_dense::<PlusTimes<u64>>(&csc, &csr, &mut out).unwrap();
        assert!(ops1 > 0);
        let expected = ata_dense::<PlusTimes<u64>>(&csr);
        assert_eq!(out, expected);
        // Accumulating again doubles every entry.
        atb_block_dense::<PlusTimes<u64>>(&csc, &csr, &mut out).unwrap();
        assert_eq!(out.get(0, 1), 2 * expected.get(0, 1));
    }

    #[test]
    fn atb_block_validates_shapes() {
        let coo = indicator();
        let csc = coo.to_csc();
        let csr = coo.to_csr();
        let mut wrong_out = DenseMatrix::<u64>::zeros(2, 3);
        assert!(atb_block_dense::<PlusTimes<u64>>(&csc, &csr, &mut wrong_out).is_err());
        let short = CooMatrix::<u64>::new(4, 3).to_csr();
        let mut out = DenseMatrix::<u64>::zeros(3, 3);
        assert!(atb_block_dense::<PlusTimes<u64>>(&csc, &short, &mut out).is_err());
    }

    #[test]
    fn spgemm_csr_matches_dense_reference() {
        // A = [[1,2],[0,3]], B = [[4,0],[5,6]] -> C = [[14,12],[15,18]]
        let a = CooMatrix::from_triples(2, 2, vec![(0, 0, 1u64), (0, 1, 2), (1, 1, 3)])
            .unwrap()
            .to_csr();
        let b = CooMatrix::from_triples(2, 2, vec![(0, 0, 4u64), (1, 0, 5), (1, 1, 6)])
            .unwrap()
            .to_csr();
        let c = spgemm_csr::<PlusTimes<u64>>(&a, &b).unwrap();
        let d = c.to_dense();
        assert_eq!(d.get(0, 0), 14);
        assert_eq!(d.get(0, 1), 12);
        assert_eq!(d.get(1, 0), 15);
        assert_eq!(d.get(1, 1), 18);
    }

    #[test]
    fn spgemm_csr_rejects_mismatched_inner_dims() {
        let a = CooMatrix::<u64>::new(2, 3).to_csr();
        let b = CooMatrix::<u64>::new(2, 2).to_csr();
        assert!(spgemm_csr::<PlusTimes<u64>>(&a, &b).is_err());
    }

    #[test]
    fn spgemm_drops_explicit_zero_results() {
        // Over i64, 1*1 + (-1)*1 = 0 should not be stored.
        let a = CooMatrix::from_triples(1, 2, vec![(0, 0, 1i64), (0, 1, -1)]).unwrap().to_csr();
        let b = CooMatrix::from_triples(2, 1, vec![(0, 0, 1i64), (1, 0, 1)]).unwrap().to_csr();
        let c = spgemm_csr::<PlusTimes<i64>>(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn ata_flops_is_sum_of_squared_row_counts() {
        let csr = indicator().to_csr();
        // Row nnz: row0:1, row1:2, row2:2, row3:1, row4:0, row5:1.
        assert_eq!(ata_flops(&csr), 11); // 1 + 4 + 4 + 1 + 0 + 1
    }

    #[test]
    fn empty_inputs_produce_zero_outputs() {
        let empty = CooMatrix::<u64>::new(5, 3);
        let b = ata_dense::<PlusTimes<u64>>(&empty.to_csr());
        assert_eq!(b.count_nonzero(), 0);
        let par = ata_dense_parallel::<PlusTimes<u64>>(&empty.to_csc(), &empty.to_csr()).unwrap();
        assert_eq!(par.count_nonzero(), 0);
        assert_eq!(ata_flops(&empty.to_csr()), 0);
    }
}
