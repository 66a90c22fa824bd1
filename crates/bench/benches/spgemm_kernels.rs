//! Criterion micro-benchmarks for the local `AᵀA` kernels: plus-times on
//! boolean CSR, popcount-AND on bit-packed words, sequential vs
//! Rayon-parallel, and the effect of the zero-row filter + masking
//! (the paper's Section III-B design choices). The `fused_pack` and
//! `gram_selection` groups time the one-pass filter-and-pack and the
//! panel Gram kernel against the unfused filter + pack and Gustavson
//! (with its transpose) at one all-pairs batch shape on each side of the
//! kernel selection rule, printing the rule's ratio and choice per shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gas_core::filter::{apply_filter, batch_row_filter};
use gas_genomics::synth::bernoulli_columns;
use gas_sparse::bitmat::BitMatrix;
use gas_sparse::coo::CooMatrix;
use gas_sparse::semiring::{PlusTimes, PopcountAnd};
use gas_sparse::spgemm::{
    ata_dense, ata_dense_parallel, ata_panel_popcount, ata_popcount, panel_beats_gustavson,
};

fn build_columns(m: usize, n: usize, density: f64) -> Vec<Vec<usize>> {
    bernoulli_columns(m, n, density, 42).expect("valid density")
}

fn boolean_matrix(m: usize, columns: &[Vec<usize>]) -> CooMatrix<u64> {
    let mut coo = CooMatrix::new(m, columns.len());
    for (j, col) in columns.iter().enumerate() {
        for &r in col {
            coo.push(r, j, 1).unwrap();
        }
    }
    coo
}

fn bench_ata_kernels(c: &mut Criterion) {
    let m = 50_000;
    let n = 64;
    let density = 5e-3;
    let columns = build_columns(m, n, density);
    let coo = boolean_matrix(m, &columns);
    let csr = coo.to_csr();
    let csc = coo.to_csc();

    // Filtered + masked representation (the paper's default path).
    let filter = batch_row_filter(m, &columns);
    let filtered = apply_filter(&columns, &filter);
    let packed = BitMatrix::from_columns(filter.num_nonzero_rows(), &filtered).unwrap();
    let packed_csr = packed.to_csr();

    let mut group = c.benchmark_group("ata_kernels");
    group.sample_size(10);
    group.bench_function("boolean_plus_times_sequential", |b| {
        b.iter(|| black_box(ata_dense::<PlusTimes<u64>>(black_box(&csr))))
    });
    group.bench_function("boolean_plus_times_parallel", |b| {
        b.iter(|| black_box(ata_dense_parallel::<PlusTimes<u64>>(black_box(&csc), black_box(&csr))))
    });
    group.bench_function("masked_popcount_parallel", |b| {
        b.iter(|| {
            black_box(ata_dense_parallel::<PopcountAnd>(
                black_box(packed.as_csc()),
                black_box(&packed_csr),
            ))
        })
    });
    group.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    let m = 200_000;
    let n = 32;
    let columns = build_columns(m, n, 1e-3);
    let mut group = c.benchmark_group("preprocessing");
    group.sample_size(10);
    group.bench_function("zero_row_filter", |b| {
        b.iter(|| black_box(batch_row_filter(m, black_box(&columns))))
    });
    let filter = batch_row_filter(m, &columns);
    let filtered = apply_filter(&columns, &filter);
    group.bench_function("bitmask_packing", |b| {
        b.iter(|| {
            black_box(
                BitMatrix::from_columns(filter.num_nonzero_rows(), black_box(&filtered)).unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_density_sweep(c: &mut Criterion) {
    let m = 50_000;
    let n = 32;
    let mut group = c.benchmark_group("ata_density_sweep");
    group.sample_size(10);
    for density in [1e-4, 1e-3, 1e-2] {
        let columns = build_columns(m, n, density);
        let filter = batch_row_filter(m, &columns);
        let filtered = apply_filter(&columns, &filter);
        let packed = BitMatrix::from_columns(filter.num_nonzero_rows(), &filtered).unwrap();
        let packed_csr = packed.to_csr();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{density:.0e}")),
            &density,
            |b, _| {
                b.iter(|| {
                    black_box(ata_dense_parallel::<PopcountAnd>(
                        black_box(packed.as_csc()),
                        black_box(&packed_csr),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Rows of one `allpairs-dense` batch: 2 M rows in 4 batches.
const BATCH_ROWS: usize = 500_000;

fn bench_fused_pack(c: &mut Criterion) {
    let columns = build_columns(BATCH_ROWS, 256, 0.01);
    let mut group = c.benchmark_group("fused_pack");
    group.sample_size(10);
    group.bench_function("filter_apply_from_columns", |b| {
        b.iter(|| {
            let filter = batch_row_filter(BATCH_ROWS, black_box(&columns));
            let filtered = apply_filter(&columns, &filter);
            black_box(BitMatrix::from_columns(filter.num_nonzero_rows(), &filtered).unwrap())
        })
    });
    group.bench_function("pack_filtered", |b| {
        b.iter(|| black_box(BitMatrix::pack_filtered(BATCH_ROWS, black_box(&columns)).unwrap()))
    });
    group.finish();
}

/// `W·n²/2 ÷ Σₖ rₖ²`: the panel kernel's word operations over
/// Gustavson's updates, the quantity the selection rule compares to `K`.
fn rule_ratio(packed: &BitMatrix) -> f64 {
    let mut row_counts = vec![0u64; packed.word_rows()];
    for &k in packed.as_csc().indices() {
        row_counts[k] += 1;
    }
    let gustavson: u64 = row_counts.iter().map(|r| r * r).sum();
    let n = packed.ncols() as f64;
    packed.word_rows() as f64 * n * n / 2.0 / gustavson.max(1) as f64
}

fn bench_gram_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram_selection");
    group.sample_size(5);
    // The `allpairs-dense` batch (panel side), then the sparse shapes
    // where Gustavson must win.
    for (n, density) in [(256usize, 0.01), (256, 0.0005), (1024, 0.0005)] {
        let columns = build_columns(BATCH_ROWS, n, density);
        let (packed, _) = BitMatrix::pack_filtered(BATCH_ROWS, &columns).unwrap();
        let csc = packed.as_csc();
        let shape = format!("n{n}_d{density}");
        println!(
            "gram_selection/{shape}: {} word rows, rule ratio {:.2}, selected {}",
            packed.word_rows(),
            rule_ratio(&packed),
            if panel_beats_gustavson(csc) { "panel" } else { "gustavson" }
        );
        group.bench_function(format!("{shape}/gustavson_with_to_csr"), |b| {
            b.iter(|| black_box(ata_dense_parallel::<PopcountAnd>(csc, &csc.to_csr()).unwrap()))
        });
        group.bench_function(format!("{shape}/panel"), |b| {
            b.iter(|| black_box(ata_panel_popcount(black_box(csc)).unwrap()))
        });
        group.bench_function(format!("{shape}/selected"), |b| {
            b.iter(|| black_box(ata_popcount(black_box(csc)).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ata_kernels,
    bench_preprocessing,
    bench_density_sweep,
    bench_fused_pack,
    bench_gram_selection
);
criterion_main!(benches);
