//! Criterion benches of the hot simulation kernels: the flat-layout
//! attention kernels, CAM search, exact current-domain scoring, device
//! evaluation, and ADC quantization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use unicaim_analog::{SarAdc, SarAdcParams};
use unicaim_attention::kernels::{self, QuantRowView, RowView};
use unicaim_attention::Matrix;
use unicaim_core::{
    ArrayConfig, CellPrecision, KeyLevel, QueryEncoder, QueryLevel, QueryPrecision, UniCaimArray,
};
use unicaim_fefet::{FeFet, FeFetModel, FeFetParams};

fn filled_array(rows: usize, dim: usize, behavioral: bool) -> UniCaimArray {
    let mut array = UniCaimArray::new(ArrayConfig {
        rows,
        dim,
        cell_precision: CellPrecision::ThreeBit,
        query_precision: QueryPrecision::OneBit,
        behavioral,
        ..ArrayConfig::default()
    });
    let levels = [
        KeyLevel::NegOne,
        KeyLevel::NegHalf,
        KeyLevel::Zero,
        KeyLevel::PosHalf,
        KeyLevel::PosOne,
    ];
    for row in 0..rows {
        let key: Vec<KeyLevel> = (0..dim).map(|d| levels[(row * 7 + d * 3) % 5]).collect();
        array.write_row(row, row, &key).unwrap();
    }
    array
}

fn query(dim: usize) -> Vec<QueryLevel> {
    let levels = [QueryLevel::NegOne, QueryLevel::Zero, QueryLevel::PosOne];
    (0..dim).map(|d| levels[(d * 5) % 3]).collect()
}

fn bench_cam_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_top_k");
    for &rows in &[64usize, 256, 576] {
        let mut array = filled_array(rows, 128, true);
        let q = query(128);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| black_box(array.cam_top_k(black_box(&q), 64).unwrap()));
        });
    }
    group.finish();
}

fn bench_exact_scores(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_scores");
    for &k in &[16usize, 64, 128] {
        let mut array = filled_array(576, 128, true);
        let q = query(128);
        let rows: Vec<usize> = (0..k).collect();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(array.exact_scores(black_box(&q), &rows).unwrap()));
        });
    }
    group.finish();
}

fn bench_device_vs_behavioral(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_current_mode");
    let enc = QueryEncoder::new(QueryPrecision::OneBit);
    let drives = enc.encode(&query(128));
    let behavioral = filled_array(64, 128, true);
    let device = filled_array(64, 128, false);
    group.bench_function("behavioral", |b| {
        b.iter(|| black_box(behavioral.row_current(black_box(7), &drives).unwrap()));
    });
    group.bench_function("device_accurate", |b| {
        b.iter(|| black_box(device.row_current(black_box(7), &drives).unwrap()));
    });
    group.finish();
}

fn bench_fefet_eval(c: &mut Criterion) {
    let model = FeFetModel::new(FeFetParams::default());
    let mut dev = FeFet::fresh();
    model.program_polarization(&mut dev, 0.3);
    c.bench_function("fefet_drain_current", |b| {
        b.iter(|| black_box(model.drain_current(black_box(&dev), 1.4, 0.1)));
    });
}

fn bench_adc(c: &mut Criterion) {
    let adc = SarAdc::new(SarAdcParams::default()).unwrap();
    c.bench_function("sar_adc_quantize", |b| {
        b.iter(|| black_box(adc.quantize(black_box(37.3e-6))));
    });
}

fn bench_flat_kernels(c: &mut Criterion) {
    let (rows, dim, k) = (576usize, 128usize, 64usize);
    let keys = Matrix::random_normal(rows, dim, 1.0, 11);
    let values = Matrix::random_normal(rows, dim, 1.0, 12);
    let q = Matrix::random_normal(1, dim, 1.0, 13);
    let gathered: Vec<usize> = (0..k).map(|i| (i * 9) % rows).collect();
    let scores: Vec<f32> = keys.as_slice()[..rows].to_vec();
    let backend = kernels::active_backend();
    let mut group = c.benchmark_group("flat_kernels");
    group.bench_function("dot_gather/576x128/k64", |b| {
        let mut out = vec![0.0f32; k];
        b.iter(|| {
            backend.dot_gather(
                q.row(0),
                RowView::contiguous(keys.as_slice(), dim),
                &gathered,
                0.088,
                &mut out,
            );
            black_box(&out);
        });
    });
    group.bench_function("attend_gather/576x128/k64", |b| {
        let mut out = vec![0.0f32; dim];
        let mut weights = Vec::with_capacity(k);
        b.iter(|| {
            backend.attend_gather(
                q.row(0),
                RowView::contiguous(keys.as_slice(), dim),
                RowView::contiguous(values.as_slice(), dim),
                &gathered,
                0.088,
                &mut weights,
                &mut out,
            );
            black_box(&out);
        });
    });
    group.bench_function("partial_top_k/576/k64", |b| {
        b.iter(|| black_box(kernels::partial_top_k(&scores, k)));
    });
    // Quantized twins: i8 arena with per-row scales, pre-quantized query.
    let (qkeys, qscales) = backend.quantize_arena_i8(keys.as_slice(), dim);
    let mut query_q = vec![0i8; dim];
    let query_scale = backend.quantize_row_i8(q.row(0), &mut query_q);
    group.bench_function("dot_gather_q/576x128/k64", |b| {
        let mut out = vec![0.0f32; k];
        b.iter(|| {
            backend.dot_gather_q(
                &query_q,
                query_scale,
                QuantRowView::contiguous(&qkeys, &qscales, dim),
                &gathered,
                0.088,
                &mut out,
            );
            black_box(&out);
        });
    });
    group.bench_function("attend_gather_q/576x128/k64", |b| {
        let mut out = vec![0.0f32; dim];
        let mut weights = Vec::with_capacity(k);
        b.iter(|| {
            backend.attend_gather_q(
                &query_q,
                query_scale,
                QuantRowView::contiguous(&qkeys, &qscales, dim),
                RowView::contiguous(values.as_slice(), dim),
                &gathered,
                0.088,
                &mut weights,
                &mut out,
            );
            black_box(&out);
        });
    });
    group.bench_function("quantize_arena_i8_into/576x128", |b| {
        // The requantize hot path: whole-arena quantization into reused
        // scratch (no per-call allocation after warm-up).
        let mut q = Vec::new();
        let mut s = Vec::new();
        b.iter(|| {
            backend.quantize_arena_i8_into(keys.as_slice(), dim, &mut q, &mut s);
            black_box((&q, &s));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flat_kernels,
    bench_cam_search,
    bench_exact_scores,
    bench_device_vs_behavioral,
    bench_fefet_eval,
    bench_adc
);
criterion_main!(benches);
