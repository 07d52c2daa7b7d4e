//! Criterion bench: neighbor-search backends (brute force, k-d tree,
//! two-layer octree) — the ablation of the engine's k-d tree against the
//! paper's octree — plus the per-query vs `knn_batch` comparison behind the
//! batch-first SR hot path, at 10k and 100k points for every backend.

use criterion::{criterion_group, criterion_main, is_quick_mode, BenchmarkId, Criterion};
use std::hint::black_box;
use volut_pointcloud::dualtree::{BatchStrategy, DualTreeScratch};
use volut_pointcloud::kdtree::KdTree;
use volut_pointcloud::knn::{BruteForce, NeighborSearch};
use volut_pointcloud::octree::TwoLayerOctree;
use volut_pointcloud::synthetic;
use volut_pointcloud::Neighborhoods;

fn bench_knn_query(c: &mut Criterion) {
    let cloud = synthetic::humanoid(20_000, 0.5, 1);
    let queries = synthetic::humanoid(200, 0.5, 2);
    let brute = BruteForce::new(cloud.positions());
    let kdtree = KdTree::build(cloud.positions());
    let octree = TwoLayerOctree::build(cloud.positions());

    let mut group = c.benchmark_group("knn_k8");
    group.sample_size(10);
    let run = |backend: &dyn NeighborSearch| {
        let mut total = 0usize;
        for &q in queries.positions() {
            total += backend.knn(q, 8).len();
        }
        total
    };
    group.bench_function(BenchmarkId::new("backend", "brute_force"), |b| {
        b.iter(|| black_box(run(&brute)))
    });
    group.bench_function(BenchmarkId::new("backend", "kdtree"), |b| {
        b.iter(|| black_box(run(&kdtree)))
    });
    group.bench_function(BenchmarkId::new("backend", "two_layer_octree"), |b| {
        b.iter(|| black_box(run(&octree)))
    });
    group.finish();
}

/// The tentpole comparison: one allocating `knn()` call per point (the
/// seed's hot path) vs one `knn_batch` sweep writing into a flat CSR with
/// shared traversal scratch. Two workload shapes, both self-queries over
/// the indexed cloud exactly as the interpolators issue them: `k = 5`
/// mirrors the naive stage (`k + 1` with the default `k = 4`) and `k = 9`
/// the dilated stage (`k × d + 1`).
fn bench_per_query_vs_batch(c: &mut Criterion) {
    let sizes: &[usize] = if is_quick_mode() {
        &[2_000]
    } else {
        &[10_000, 100_000]
    };
    for &n in sizes {
        let cloud = synthetic::humanoid(n, 0.5, 3);
        let queries = cloud.positions();
        let kdtree = KdTree::build(queries);
        let octree = TwoLayerOctree::build(queries);

        for k in [5usize, 9] {
            let mut group = c.benchmark_group(format!("knn_batch_{n}_k{k}"));
            group.sample_size(10);

            let per_query = |backend: &dyn NeighborSearch, out: &mut Neighborhoods| {
                out.clear();
                for &q in queries {
                    let nn = backend.knn(q, k);
                    out.push_row(nn.into_iter().map(|n| n.index));
                }
                out.total_indices()
            };
            let batched = |backend: &dyn NeighborSearch, out: &mut Neighborhoods| {
                out.clear();
                backend.knn_batch(queries, k, out);
                out.total_indices()
            };

            let mut out = Neighborhoods::with_capacity(n, n * k);
            for (name, backend) in [
                ("kdtree", &kdtree as &dyn NeighborSearch),
                ("two_layer_octree", &octree),
            ] {
                group.bench_function(BenchmarkId::new("per_query", name), |b| {
                    b.iter(|| black_box(per_query(backend, &mut out)))
                });
                group.bench_function(BenchmarkId::new("batch", name), |b| {
                    b.iter(|| black_box(batched(backend, &mut out)))
                });
            }
            group.finish();
        }
    }
}

/// The all-kNN *self-join* — every point of the indexed cloud queries that
/// same cloud, exactly the shape that dominates SR frame time (§4.1) — on
/// the k-d tree, across its three algorithms:
/// * `per_query` — one allocating `knn()` call per point (the seed's path);
/// * `single_tree_batch` — the warm-started, Morton-ordered batch sweep
///   (forced via `BatchStrategy::SingleTree`);
/// * `dual_tree_batch` — the leaf-pair traversal (what `knn_batch` selects
///   automatically for self-joins at these sizes).
fn bench_self_join(c: &mut Criterion) {
    let sizes: &[usize] = if is_quick_mode() {
        &[2_000]
    } else {
        &[10_000, 100_000]
    };
    for &n in sizes {
        let cloud = synthetic::humanoid(n, 0.5, 3);
        let queries = cloud.positions();
        let kdtree = KdTree::build(queries);
        for k in [5usize, 9] {
            let mut group = c.benchmark_group(format!("self_join_{n}_k{k}"));
            group.sample_size(10);
            let mut out = Neighborhoods::with_capacity(n, n * k);
            let mut scratch = DualTreeScratch::new();
            group.bench_function("per_query", |b| {
                b.iter(|| {
                    out.clear();
                    for &q in queries {
                        let nn = kdtree.knn(q, k);
                        out.push_row(nn.into_iter().map(|n| n.index));
                    }
                    black_box(out.total_indices())
                })
            });
            let forced = |strategy: BatchStrategy,
                          out: &mut Neighborhoods,
                          scratch: &mut DualTreeScratch| {
                out.clear();
                kdtree.knn_batch_with(queries, k, out, strategy, scratch);
                out.total_indices()
            };
            group.bench_function("single_tree_batch", |b| {
                b.iter(|| black_box(forced(BatchStrategy::SingleTree, &mut out, &mut scratch)))
            });
            group.bench_function("dual_tree_batch", |b| {
                b.iter(|| black_box(forced(BatchStrategy::DualTree, &mut out, &mut scratch)))
            });
            group.finish();
        }
    }
}

/// Index (re)construction: fresh `build` (allocates) vs scratch-resident
/// `build_in` (reuses node/order/point storage), the rebuild path behind
/// the `FrameScratch` index cache.
fn bench_index_build(c: &mut Criterion) {
    let n = if is_quick_mode() { 2_000 } else { 20_000 };
    let cloud = synthetic::humanoid(n, 0.5, 3);
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.bench_function("kdtree", |b| {
        b.iter(|| KdTree::build(black_box(cloud.positions())))
    });
    group.bench_function("kdtree_build_in", |b| {
        let mut tree = KdTree::default();
        b.iter(|| {
            tree.build_in(black_box(cloud.positions()));
            tree.points().len()
        })
    });
    group.bench_function("two_layer_octree", |b| {
        b.iter(|| TwoLayerOctree::build(black_box(cloud.positions())))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_knn_query,
    bench_per_query_vs_batch,
    bench_self_join,
    bench_index_build
);
criterion_main!(benches);
