//! Bit-packed ("masked") matrices.
//!
//! After zero-row filtering, SimilarityAtScale compresses each batch by
//! encoding segments of `b` consecutive rows of every column into a
//! `b`-bit word (Section III-B). This shrinks the number of stored rows —
//! and therefore the per-row metadata of the CSR/CSC representation — by a
//! factor of `b`, and lets the matrix product use a hardware `popcount`
//! over `AND`-ed words (Eq. 7). A [`BitMatrix`] is a CSC matrix of `u64`
//! words: `word_rows = ⌈rows / b⌉` rows, one column per data sample.
//!
//! Filtering and packing are one pass: [`BitMatrix::pack_filtered`] ORs
//! the batch columns into a packed row bitmap (the zero-row filter), and
//! [`BitMatrix::pack_over`] packs every column over the set bits of such
//! a bitmap, renumbering each kept row by its rank among the set bits.
//! No filtered copy of the columns is ever materialized.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};

/// Number of rows packed into one machine word.
pub const WORD_BITS: usize = 64;

/// Pack row indices into a dense `⌈nrows / 64⌉`-word bitmap: bit `r` is
/// set iff `r` appears in `rows`. Indices `≥ nrows` are ignored (the same
/// clipping semantics as [`crate::dist::filter::RowFilter::from_local`]).
///
/// Large inputs are packed in parallel: the index list is split into
/// chunks, each chunk builds a partial bitmap, and the partials are
/// OR-merged — the shared-memory analogue of the paper's accumulate-write
/// filter construction over a `(max, ×)` monoid.
pub fn pack_row_bitmap(nrows: usize, rows: &[usize]) -> Vec<u64> {
    let nwords = nrows.div_ceil(WORD_BITS);
    let mut words = vec![0u64; nwords];
    if rows.is_empty() || nwords == 0 {
        return words;
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk_size = rows.len().div_ceil(threads).max(1 << 13);
    if chunk_size >= rows.len() {
        set_rows(&mut words, nrows, rows);
        return words;
    }
    let partials: Vec<Vec<u64>> = rows
        .par_chunks(chunk_size)
        .map(|chunk| {
            let mut partial = vec![0u64; nwords];
            set_rows(&mut partial, nrows, chunk);
            partial
        })
        .collect();
    for partial in partials {
        for (w, p) in words.iter_mut().zip(partial) {
            *w |= p;
        }
    }
    words
}

/// The set bits of a packed bitmap as ascending row indices.
pub fn bitmap_rows(words: &[u64]) -> Vec<usize> {
    let mut out = Vec::with_capacity(bitmap_count_ones(words) as usize);
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            out.push(wi * WORD_BITS + bit);
            w &= w - 1;
        }
    }
    out
}

/// Number of set bits in a packed bitmap.
pub fn bitmap_count_ones(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// Pack the rows of every column into one dense `⌈nrows / 64⌉`-word
/// bitmap: bit `r` is set iff some column lists `r`. Rows `≥ nrows` are
/// ignored, as in [`pack_row_bitmap`]. This is the zero-row filter of a
/// batch, built straight from its columns without flattening them.
pub fn pack_column_bitmap(nrows: usize, columns: &[Vec<usize>]) -> Vec<u64> {
    let mut words = vec![0u64; nrows.div_ceil(WORD_BITS)];
    set_rows(&mut words, nrows, columns.iter().flatten());
    words
}

/// Set bit `r` of `words` for every row `r < nrows` in `rows`.
fn set_rows<'a>(words: &mut [u64], nrows: usize, rows: impl IntoIterator<Item = &'a usize>) {
    for &r in rows {
        if r < nrows {
            words[r / WORD_BITS] |= 1u64 << (r % WORD_BITS);
        }
    }
}

/// Words per rank superblock of [`RowRank`]: `2³²` bits, so a rank
/// within a superblock always fits a `u32`.
const SUPERBLOCK_WORDS: usize = 1 << 26;

/// Rank support for a packed row bitmap: row `r` of a set bit maps to
/// its rank among the set bits, the compacted row index of the zero-row
/// filter (Eq. 6). For every word it stores the number of set bits
/// before it, as a `u32` offset from its superblock's base. That is half
/// a word per bitmap word, and a lookup is one load plus one popcount —
/// branchy sampled ranks cost several times more per row on dense
/// batches, where consecutive rows of a column sit a word or two apart.
/// Build it once per bitmap and pack any number of column sets over it
/// with [`BitMatrix::pack_ranked`].
pub struct RowRank<'a> {
    words: &'a [u64],
    ranks: Vec<u32>,
    bases: Vec<usize>,
    ones: usize,
}

impl<'a> RowRank<'a> {
    /// Index the set bits of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        let mut ranks = Vec::with_capacity(words.len());
        let mut bases = Vec::with_capacity(words.len().div_ceil(SUPERBLOCK_WORDS));
        let mut ones = 0usize;
        for superblock in words.chunks(SUPERBLOCK_WORDS) {
            bases.push(ones);
            let mut within = 0u64;
            for &w in superblock {
                ranks.push(within as u32);
                // Most words of a hypersparse batch are zero, and a
                // software popcount costs far more than the branch.
                if w != 0 {
                    within += u64::from(w.count_ones());
                }
            }
            ones += within as usize;
        }
        RowRank { words, ranks, bases, ones }
    }

    /// Number of set bits: the row count of a batch packed over them.
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// Compacted index of row `r` (its rank among the set bits), or
    /// `None` if bit `r` is clear or lies past the bitmap.
    #[inline]
    pub fn rank(&self, r: usize) -> Option<usize> {
        let w = r / WORD_BITS;
        let word = *self.words.get(w)?;
        let bit = 1u64 << (r % WORD_BITS);
        if word & bit == 0 {
            return None;
        }
        let before = self.bases[w / SUPERBLOCK_WORDS] + self.ranks[w] as usize;
        Some(before + (word & (bit - 1)).count_ones() as usize)
    }
}

/// The error for a column whose rows are not strictly increasing.
#[cold]
fn not_increasing(col: usize, prev: usize, row: usize) -> SparseError {
    SparseError::ShapeMismatch {
        context: format!(
            "column {col} row indices must be strictly increasing ({prev} then {row})"
        ),
    }
}

/// A boolean matrix with rows packed into 64-bit words, stored per column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitMatrix {
    /// Packed words: `words.nrows() == word_rows`, one column per sample.
    words: CscMatrix<u64>,
    /// Number of boolean rows before packing.
    orig_rows: usize,
}

impl BitMatrix {
    /// Pack a boolean matrix given as "sorted row indices present in each
    /// column" (the natural output of the per-sample k-mer row lists).
    ///
    /// `nrows` is the number of boolean rows (after zero-row filtering);
    /// `columns[j]` lists the rows set in column `j`, in strictly
    /// increasing order.
    pub fn from_columns(nrows: usize, columns: &[Vec<usize>]) -> SparseResult<Self> {
        Self::pack_mapped(nrows, columns, Some)
    }

    /// Zero-row filter and pack a batch in one pass: OR the column rows
    /// into a packed row bitmap ([`pack_column_bitmap`]), then pack every
    /// column over it ([`Self::pack_over`]). Returns the packed batch and
    /// the bitmap (the filter: bit `r` is set iff row `r < batch_rows` is
    /// nonzero in some column). Equal to building the filter, applying it
    /// to the columns and calling [`Self::from_columns`] on the result,
    /// errors included.
    pub fn pack_filtered(
        batch_rows: usize,
        columns: &[Vec<usize>],
    ) -> SparseResult<(Self, Vec<u64>)> {
        let bitmap = pack_column_bitmap(batch_rows, columns);
        let packed = Self::pack_over(&bitmap, columns)?;
        Ok((packed, bitmap))
    }

    /// Pack every column over the set bits of a row `bitmap`: row `r` of a
    /// column is kept iff bit `r` is set, and is renumbered to its rank
    /// among the set bits (a per-word prefix rank plus
    /// `popcount(word & below)`), so the result has one boolean row per
    /// set bit. Rows whose bit is clear, or that lie past the bitmap, are
    /// dropped — the bitmap may be narrower than the columns, as with the
    /// union filter of a distributed batch. The kept rows of each column
    /// must be strictly increasing; violations give the same errors as
    /// [`Self::from_columns`] on the renumbered rows.
    pub fn pack_over(bitmap: &[u64], columns: &[Vec<usize>]) -> SparseResult<Self> {
        Self::pack_ranked(&RowRank::new(bitmap), columns)
    }

    /// [`Self::pack_over`] with a prebuilt rank index, so several column
    /// sets (the two SUMMA operand blocks of a rank) share one pass over
    /// the bitmap.
    pub fn pack_ranked(rank: &RowRank<'_>, columns: &[Vec<usize>]) -> SparseResult<Self> {
        Self::pack_mapped(rank.ones(), columns, |r| rank.rank(r))
    }

    /// The packing loop shared by every constructor: each column's rows go
    /// through `map` (`None` drops the row), then are bounds- and
    /// order-checked and OR-ed into words.
    fn pack_mapped(
        nrows: usize,
        columns: &[Vec<usize>],
        map: impl Fn(usize) -> Option<usize>,
    ) -> SparseResult<Self> {
        let word_rows = nrows.div_ceil(WORD_BITS);
        let ncols = columns.len();
        // A column stores at most one word per row it lists and at most
        // one per word row.
        let bound = columns.iter().map(|rows| rows.len().min(word_rows)).sum();
        let mut indptr = Vec::with_capacity(ncols + 1);
        indptr.push(0usize);
        let mut indices = Vec::with_capacity(bound);
        let mut data = Vec::with_capacity(bound);
        for (j, rows) in columns.iter().enumerate() {
            // Rows must be at least `next`; `(word, mask)` is the word
            // being filled (`mask == 0` before the first row).
            let mut next = 0usize;
            let (mut word, mut mask) = (0usize, 0u64);
            for r in rows.iter().filter_map(|&r| map(r)) {
                if r >= nrows {
                    return Err(SparseError::IndexOutOfBounds { row: r, col: j, nrows, ncols });
                }
                if r < next {
                    return Err(not_increasing(j, next - 1, r));
                }
                next = r + 1;
                if r / WORD_BITS != word && mask != 0 {
                    indices.push(word);
                    data.push(mask);
                    mask = 0;
                }
                word = r / WORD_BITS;
                mask |= 1u64 << (r % WORD_BITS);
            }
            if mask != 0 {
                indices.push(word);
                data.push(mask);
            }
            indptr.push(indices.len());
        }
        let words = CscMatrix::from_raw_parts(word_rows, ncols, indptr, indices, data)?;
        Ok(BitMatrix { words, orig_rows: nrows })
    }

    /// Pack an existing boolean CSC matrix (any nonzero value counts as
    /// "present").
    pub fn from_csc_bool<T: Copy>(csc: &CscMatrix<T>) -> SparseResult<Self> {
        let columns: Vec<Vec<usize>> =
            (0..csc.ncols()).map(|j| csc.col(j).map(|(r, _)| r).collect()).collect();
        BitMatrix::from_columns(csc.nrows(), &columns)
    }

    /// Number of boolean rows before packing.
    pub fn orig_rows(&self) -> usize {
        self.orig_rows
    }

    /// Number of packed word rows (`⌈orig_rows / 64⌉`).
    pub fn word_rows(&self) -> usize {
        self.words.nrows()
    }

    /// Number of columns (data samples).
    pub fn ncols(&self) -> usize {
        self.words.ncols()
    }

    /// Number of stored words.
    pub fn nnz_words(&self) -> usize {
        self.words.nnz()
    }

    /// Total number of set bits (the number of boolean nonzeros packed).
    pub fn count_ones(&self) -> u64 {
        self.words.data().iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Set bits per column — exactly the per-sample cardinalities
    /// `ĉ_i = Σ_k a_ki` of the packed batch.
    pub fn col_popcounts(&self) -> Vec<u64> {
        (0..self.ncols())
            .map(|j| self.words.col(j).map(|(_, w)| w.count_ones() as u64).sum())
            .collect()
    }

    /// The packed words as a CSC matrix (columns are samples).
    pub fn as_csc(&self) -> &CscMatrix<u64> {
        &self.words
    }

    /// The packed words converted to CSR (rows are word rows).
    pub fn to_csr(&self) -> CsrMatrix<u64> {
        self.words.to_csr()
    }

    /// Membership test for boolean entry `(row, col)`.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        if row >= self.orig_rows || col >= self.ncols() {
            return false;
        }
        let w = row / WORD_BITS;
        let bit = 1u64 << (row % WORD_BITS);
        self.words.col(col).any(|(r, mask)| r == w && mask & bit != 0)
    }

    /// Popcount of the AND of two columns — the scalar popcount-AND
    /// kernel of Eq. (7) applied to a single column pair, i.e. the
    /// intersection cardinality `b_ab = Σ_w popcount(â_wa & â_wb)`.
    ///
    /// Both sparse columns are merge-joined on their word indices, so the
    /// cost is `O(nnz_words(a) + nnz_words(b))`. Runs where both columns
    /// store the same four consecutive word indices — the common case for
    /// k-mer batches, whose filtered rows pack densely — skip the per-word
    /// comparison ladder and AND+popcount four words per iteration. The
    /// `gas-index` query engine uses this to re-rank LSH candidates
    /// exactly without forming the full `AᵀA` product.
    #[inline]
    pub fn and_popcount(&self, a: usize, b: usize) -> u64 {
        let indptr = self.words.indptr();
        let indices = self.words.indices();
        let data = self.words.data();
        let (ia, da) = (&indices[indptr[a]..indptr[a + 1]], &data[indptr[a]..indptr[a + 1]]);
        let (ib, db) = (&indices[indptr[b]..indptr[b + 1]], &data[indptr[b]..indptr[b + 1]]);
        let (mut i, mut j) = (0usize, 0usize);
        let mut count = 0u64;
        while i < ia.len() && j < ib.len() {
            if i + 4 <= ia.len() && j + 4 <= ib.len() && ia[i..i + 4] == ib[j..j + 4] {
                count += (da[i] & db[j]).count_ones() as u64
                    + (da[i + 1] & db[j + 1]).count_ones() as u64
                    + (da[i + 2] & db[j + 2]).count_ones() as u64
                    + (da[i + 3] & db[j + 3]).count_ones() as u64;
                i += 4;
                j += 4;
                continue;
            }
            match ia[i].cmp(&ib[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += (da[i] & db[j]).count_ones() as u64;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// The straightforward one-word-at-a-time merge join — the reference
    /// the unrolled [`Self::and_popcount`] is pinned against in tests.
    #[cfg(test)]
    fn and_popcount_scalar(&self, a: usize, b: usize) -> u64 {
        let mut ca = self.words.col(a);
        let mut cb = self.words.col(b);
        let (mut na, mut nb) = (ca.next(), cb.next());
        let mut count = 0u64;
        while let (Some((wa, ma)), Some((wb, mb))) = (na, nb) {
            match wa.cmp(&wb) {
                std::cmp::Ordering::Less => na = ca.next(),
                std::cmp::Ordering::Greater => nb = cb.next(),
                std::cmp::Ordering::Equal => {
                    count += (ma & mb).count_ones() as u64;
                    na = ca.next();
                    nb = cb.next();
                }
            }
        }
        count
    }

    /// Ratio of stored words to stored boolean nonzeros: the paper notes
    /// masking "increases the storage necessary for each nonzero by no
    /// more than 2–3×" while cutting row metadata by `b`.
    pub fn words_per_nonzero(&self) -> f64 {
        let ones = self.count_ones();
        if ones == 0 {
            return 0.0;
        }
        self.nnz_words() as f64 / ones as f64
    }

    /// Restrict to the columns listed in `keep` (in order).
    pub fn select_cols(&self, keep: &[usize]) -> SparseResult<BitMatrix> {
        Ok(BitMatrix { words: self.words.select_cols(keep)?, orig_rows: self.orig_rows })
    }

    /// Restrict to a contiguous range of word rows, re-basing word indices
    /// to start at zero. Used to split a packed batch into the row chunks
    /// of the 2.5D distribution.
    pub fn select_word_rows(&self, range: std::ops::Range<usize>) -> SparseResult<BitMatrix> {
        if range.end > self.word_rows() {
            return Err(SparseError::IndexOutOfBounds {
                row: range.end,
                col: 0,
                nrows: self.word_rows(),
                ncols: self.ncols(),
            });
        }
        let new_word_rows = range.end - range.start;
        let mut indptr = Vec::with_capacity(self.ncols() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        for j in 0..self.ncols() {
            for (w, mask) in self.words.col(j) {
                if w >= range.start && w < range.end {
                    indices.push(w - range.start);
                    data.push(mask);
                }
            }
            indptr.push(indices.len());
        }
        let words = CscMatrix::from_raw_parts(new_word_rows, self.ncols(), indptr, indices, data)?;
        let orig_rows =
            (new_word_rows * WORD_BITS).min(self.orig_rows.saturating_sub(range.start * WORD_BITS));
        Ok(BitMatrix { words, orig_rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_round_trips_and_clips() {
        let rows = vec![0usize, 63, 64, 129, 500];
        let bm = pack_row_bitmap(130, &rows);
        assert_eq!(bm.len(), 3);
        assert_eq!(bitmap_rows(&bm), vec![0, 63, 64, 129]);
        assert_eq!(bitmap_count_ones(&bm), 4);
        // Duplicates and arbitrary order collapse into the same bitmap.
        let shuffled = pack_row_bitmap(130, &[129, 0, 64, 0, 63, 63]);
        assert_eq!(shuffled, bm);
        assert!(pack_row_bitmap(0, &rows).is_empty());
        assert_eq!(bitmap_rows(&pack_row_bitmap(64, &[])), Vec::<usize>::new());
    }

    #[test]
    fn large_bitmap_pack_matches_serial_reference() {
        // Big enough to take the parallel path (chunk floor is 8192).
        let nrows = 300_000;
        let rows: Vec<usize> = (0..40_000).map(|i| (i * 131) % nrows).collect();
        let bm = pack_row_bitmap(nrows, &rows);
        let mut reference = vec![0u64; nrows.div_ceil(WORD_BITS)];
        for &r in &rows {
            reference[r / WORD_BITS] |= 1u64 << (r % WORD_BITS);
        }
        assert_eq!(bm, reference);
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(bitmap_rows(&bm), sorted);
    }

    #[test]
    fn packs_rows_into_words() {
        // Column 0 has rows {0, 1, 64}; column 1 has rows {63, 64}.
        let bm = BitMatrix::from_columns(70, &[vec![0, 1, 64], vec![63, 64]]).unwrap();
        assert_eq!(bm.orig_rows(), 70);
        assert_eq!(bm.word_rows(), 2);
        assert_eq!(bm.ncols(), 2);
        assert_eq!(bm.nnz_words(), 4);
        assert_eq!(bm.count_ones(), 5);
        assert_eq!(bm.col_popcounts(), vec![3, 2]);
        assert!(bm.contains(0, 0));
        assert!(bm.contains(64, 0));
        assert!(!bm.contains(2, 0));
        assert!(bm.contains(63, 1));
        assert!(!bm.contains(65, 1));
        assert!(!bm.contains(200, 0));
    }

    #[test]
    fn rejects_out_of_bounds_and_unsorted_rows() {
        assert!(BitMatrix::from_columns(10, &[vec![10]]).is_err());
        assert!(BitMatrix::from_columns(10, &[vec![3, 3]]).is_err());
        assert!(BitMatrix::from_columns(10, &[vec![5, 2]]).is_err());
    }

    #[test]
    fn pack_over_renumbers_by_bitmap_rank() {
        // Kept rows span several rank blocks (8 words each) and straddle
        // word boundaries; row 700 is not in the bitmap and row 5000 lies
        // past it, so both are dropped.
        let kept: Vec<usize> = vec![1, 63, 64, 127, 520, 600, 1023];
        let bitmap = pack_row_bitmap(1024, &kept);
        let columns = vec![vec![1, 64, 600, 700, 5000], vec![], vec![63, 127, 520, 1023]];
        let packed = BitMatrix::pack_over(&bitmap, &columns).unwrap();
        let compacted = vec![vec![0, 2, 5], vec![], vec![1, 3, 4, 6]];
        assert_eq!(packed, BitMatrix::from_columns(kept.len(), &compacted).unwrap());
        // Unsorted kept rows fail exactly as from_columns does on the
        // renumbered rows.
        let err = BitMatrix::pack_over(&bitmap, &[vec![600, 700, 64]]).unwrap_err();
        assert_eq!(err, BitMatrix::from_columns(kept.len(), &[vec![5, 2]]).unwrap_err());
    }

    #[test]
    fn pack_filtered_returns_the_union_bitmap() {
        let columns = vec![vec![3, 500, 900], vec![3, 901], vec![]];
        let (packed, bitmap) = BitMatrix::pack_filtered(1000, &columns).unwrap();
        assert_eq!(bitmap_rows(&bitmap), vec![3, 500, 900, 901]);
        assert_eq!(packed.orig_rows(), 4);
        assert_eq!(
            packed,
            BitMatrix::from_columns(4, &[vec![0, 1, 2], vec![0, 3], vec![]]).unwrap()
        );
        assert_eq!(pack_column_bitmap(1000, &columns), pack_row_bitmap(1000, &[3, 500, 900, 901]));
    }

    #[test]
    fn from_csc_bool_matches_from_columns() {
        let csc =
            crate::coo::CooMatrix::from_triples(130, 2, vec![(0, 0, 1u8), (65, 0, 1), (129, 1, 1)])
                .unwrap()
                .to_csc();
        let bm = BitMatrix::from_csc_bool(&csc).unwrap();
        let direct = BitMatrix::from_columns(130, &[vec![0, 65], vec![129]]).unwrap();
        assert_eq!(bm, direct);
        assert_eq!(bm.word_rows(), 3);
    }

    #[test]
    fn and_popcount_matches_set_intersection() {
        // Columns over 200 rows with known overlaps (including rows that
        // share words and rows in different words).
        let c0: Vec<usize> = vec![0, 1, 5, 63, 64, 100, 150, 199];
        let c1: Vec<usize> = vec![1, 5, 64, 99, 150];
        let c2: Vec<usize> = vec![2, 66, 130];
        let bm = BitMatrix::from_columns(200, &[c0.clone(), c1.clone(), c2.clone()]).unwrap();
        let expected =
            |x: &[usize], y: &[usize]| -> u64 { x.iter().filter(|r| y.contains(r)).count() as u64 };
        assert_eq!(bm.and_popcount(0, 1), expected(&c0, &c1));
        assert_eq!(bm.and_popcount(1, 0), expected(&c0, &c1));
        assert_eq!(bm.and_popcount(0, 2), 0);
        assert_eq!(bm.and_popcount(0, 0), c0.len() as u64);
        assert_eq!(bm.and_popcount(1, 2), 0);
        // Against an empty column.
        let with_empty = BitMatrix::from_columns(200, &[c0, vec![]]).unwrap();
        assert_eq!(with_empty.and_popcount(0, 1), 0);
    }

    #[test]
    fn unrolled_and_popcount_matches_the_scalar_merge_join() {
        // Column shapes chosen to hit every path: long aligned runs (the
        // 4-wide fast path), misaligned overlaps (scalar merge steps),
        // ragged tails shorter than 4 words, and empty columns.
        let nrows = 64 * 40;
        let dense_a: Vec<usize> = (0..nrows).step_by(3).collect(); // every word present
        let dense_b: Vec<usize> = (0..nrows).step_by(5).collect(); // every word present
        let offset: Vec<usize> = (64 * 7..64 * 23).step_by(2).collect(); // contiguous word run
        let sparse: Vec<usize> = (0..40).map(|w| w * 64 + (w * 13) % 64).collect();
        let ragged: Vec<usize> = vec![0, 1, 70, 200]; // 3 stored words
        let columns = vec![dense_a, dense_b, offset, sparse, ragged, vec![], (0..nrows).collect()];
        let bm = BitMatrix::from_columns(nrows, &columns).unwrap();
        for a in 0..columns.len() {
            for b in 0..columns.len() {
                assert_eq!(
                    bm.and_popcount(a, b),
                    bm.and_popcount_scalar(a, b),
                    "columns ({a}, {b}) diverge from the scalar kernel"
                );
            }
        }
        // Cross-check one pair against the set-intersection definition.
        let inter = columns[0].iter().filter(|r| columns[1].contains(r)).count() as u64;
        assert_eq!(bm.and_popcount(0, 1), inter);
    }

    #[test]
    fn words_per_nonzero_reflects_clustering() {
        // Clustered rows share words: 64 rows in one word -> ratio 1/64.
        let clustered = BitMatrix::from_columns(64, &[(0..64).collect()]).unwrap();
        assert!((clustered.words_per_nonzero() - 1.0 / 64.0).abs() < 1e-12);
        // Spread rows: one word per nonzero -> ratio 1.
        let spread = BitMatrix::from_columns(256, &[vec![0, 64, 128, 192]]).unwrap();
        assert!((spread.words_per_nonzero() - 1.0).abs() < 1e-12);
        let empty = BitMatrix::from_columns(64, &[vec![]]).unwrap();
        assert_eq!(empty.words_per_nonzero(), 0.0);
    }

    #[test]
    fn select_cols_and_word_rows() {
        let bm = BitMatrix::from_columns(200, &[vec![0, 100], vec![150], vec![10, 199]]).unwrap();
        let cols = bm.select_cols(&[2, 0]).unwrap();
        assert_eq!(cols.ncols(), 2);
        assert_eq!(cols.col_popcounts(), vec![2, 2]);

        // Word rows: 200 bits -> 4 words (0..64, 64..128, 128..192, 192..200).
        assert_eq!(bm.word_rows(), 4);
        let top = bm.select_word_rows(0..2).unwrap();
        assert_eq!(top.word_rows(), 2);
        assert_eq!(top.col_popcounts(), vec![2, 0, 1]);
        let bottom = bm.select_word_rows(2..4).unwrap();
        assert_eq!(bottom.col_popcounts(), vec![0, 1, 1]);
        assert!(bm.select_word_rows(3..9).is_err());
    }

    #[test]
    fn csr_view_has_word_rows() {
        let bm = BitMatrix::from_columns(128, &[vec![0], vec![0, 64], vec![127]]).unwrap();
        let csr = bm.to_csr();
        assert_eq!(csr.nrows(), 2);
        assert_eq!(csr.ncols(), 3);
        assert_eq!(csr.row(0).count(), 2);
        assert_eq!(csr.row(1).count(), 2);
    }
}
