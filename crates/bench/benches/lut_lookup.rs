//! Criterion bench: position encoding and LUT lookup (dense vs sparse),
//! plus the LUT-bins ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, is_quick_mode, BenchmarkId, Criterion};
use std::hint::black_box;
use volut_core::config::SrConfig;
use volut_core::encoding::{KeyScheme, PositionEncoder};
use volut_core::lut::{dense::DenseLut, sparse::SparseLut, Lut};
use volut_pointcloud::Point3;

fn neighborhoods(n: usize) -> Vec<(Point3, Vec<Point3>)> {
    (0..n)
        .map(|i| {
            let f = i as f32 * 0.01;
            (
                Point3::new(f, f * 0.5, -f),
                vec![
                    Point3::new(f + 0.1, f * 0.5, -f),
                    Point3::new(f, f * 0.5 + 0.1, -f),
                    Point3::new(f, f * 0.5, -f + 0.1),
                ],
            )
        })
        .collect()
}

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("position_encoding");
    group.sample_size(20);
    let hoods = neighborhoods(1000);
    for bins in [16usize, 32, 64, 128] {
        let cfg = SrConfig {
            bins,
            ..SrConfig::default()
        };
        let enc = PositionEncoder::new(&cfg, KeyScheme::Full).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(bins), &hoods, |b, hoods| {
            b.iter(|| {
                let mut acc = 0u128;
                for (center, neighbors) in hoods {
                    acc ^= enc.encode(*center, neighbors).unwrap().key;
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let cfg = SrConfig {
        bins: 16,
        ..SrConfig::default()
    };
    let enc_full = PositionEncoder::new(&cfg, KeyScheme::Full).unwrap();
    let enc_compact = PositionEncoder::new(&cfg, KeyScheme::Compact).unwrap();
    let hoods = neighborhoods(1000);

    let mut sparse = SparseLut::new();
    let mut dense = DenseLut::new(enc_compact.key_space()).unwrap();
    for (center, neighbors) in &hoods {
        let kf = enc_full.encode(*center, neighbors).unwrap().key;
        sparse.set(kf, [0.01, -0.01, 0.02]).unwrap();
        let kc = enc_compact.encode(*center, neighbors).unwrap().key;
        dense.set(kc, [0.01, -0.01, 0.02]).unwrap();
    }

    let mut group = c.benchmark_group("lut_lookup");
    group.sample_size(20);
    group.bench_function("sparse_full_key", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (center, neighbors) in &hoods {
                let key = enc_full.encode(*center, neighbors).unwrap().key;
                if sparse.get(key).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("dense_compact_key", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (center, neighbors) in &hoods {
                let key = enc_compact.encode(*center, neighbors).unwrap().key;
                if dense.get(key).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

/// Dense LUT probe over a table far larger than L2: one `get` per key at
/// random addresses (the refinement stage's probe).
fn bench_dense_probe(c: &mut Criterion) {
    let quick = is_quick_mode();
    // 2^22 entries * 6 bytes = 24 MiB of offset storage.
    let key_space: u128 = if quick { 1 << 16 } else { 1 << 22 };
    let mut dense = DenseLut::with_budget(key_space, 64 * 1024 * 1024).unwrap();
    for key in (0..key_space).step_by(3) {
        dense.set(key, [0.01, -0.01, 0.02]).unwrap();
    }
    // Pseudo-random keys spread over the whole table so every probe is a
    // fresh cache line (the refinement stage's access pattern).
    let n_keys = if quick { 4_096 } else { 100_000 };
    let keys: Vec<u128> = (0..n_keys as u128)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % key_space)
        .collect();
    let mut out = vec![None; keys.len()];

    let mut group = c.benchmark_group("dense_probe");
    group.sample_size(20);
    group.bench_function("per_key_get", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (slot, &key) in out.iter_mut().zip(keys.iter()) {
                *slot = dense.get(key);
                hits += usize::from(slot.is_some());
            }
            black_box(hits)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_encoding, bench_lookup, bench_dense_probe);
criterion_main!(benches);
