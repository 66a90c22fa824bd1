//! Distributed sparse objects over the simulated runtime.
//!
//! This is the Cyclops-equivalent layer of the reproduction: the
//! distributed zero-row [`filter`] (the paper's `(max, ×)`
//! accumulate-write formulation of Eqs. 5–6, realized as an OR-allreduce
//! of packed row bitmaps) and the rectangular-grid 2.5D SUMMA `AᵀA`
//! product ([`ata::DistAta`], Section III-C of the paper) that computes
//! the intersection-count matrix `B` over the popcount-AND semiring on
//! bit-packed batches, using every rank for every rank count.

pub mod ata;
pub mod filter;

pub use ata::DistAta;
pub use filter::{allreduce_row_bitmap, dist_row_filter, dist_row_filter_indexed, RowFilter};
