//! The one squared-distance kernel every spatial backend scans with.
//!
//! Before this module each backend carried its own leaf-scan loop around
//! [`Point3::distance_squared`]; besides the duplication, the
//! array-of-structs loads kept the compiler from vectorizing the hot loop.
//! All candidate scans now run through here, over [`SoaPositions`] lanes:
//!
//! * `scan_ids` — kNN candidate scan into a `BestK` accumulator (the
//!   kernel behind every backend's `knn`/`knn_batch`);
//! * `scan_radius_ids` — radius-query variant collecting [`Neighbor`]s;
//! * [`norm_squared_lanes`] — elementwise `x² + y² + z²` over plain lanes,
//!   exported for the LUT refiner's blocked key encoder in `volut-core`;
//! * [`pair_midpoints_into`] — gathered pair-midpoint generation over
//!   [`SoaPositions`], exported for the interpolators' recomputed-row batch.
//!
//! On x86-64 a runtime CPU check picks an AVX-512 or AVX2 scan (16 or 8
//! lanes per iteration with an explicit compare-mask pre-filter); the
//! scalar path, the only one on other targets, performs the same arithmetic
//! in the same order (`dx·dx + dy·dy + dz·dz`, no FMA contraction), so every
//! path is **bit-identical** — including index-broken distance ties — and
//! the host CPU can never change results.

use crate::knn::Neighbor;
use crate::point::Point3;
use crate::soa::SoaPositions;

pub use crate::soa::LANES;

/// The accumulator interface of the candidate scans: anything that exposes a
/// current worst (k-th best) squared distance and accepts `(index, d2, pos)`
/// offers. [`crate::knn::BestK`] implements it for the per-query and
/// single-tree batch paths; the dual-tree all-kNN of [`crate::dualtree`]
/// implements it over flat per-query key rows. The scans are generic over
/// this trait so **one** kernel (scalar / AVX2 / AVX-512) serves every
/// traversal — the accumulators monomorphize away and the arithmetic stays
/// bit-identical across paths by construction.
pub(crate) trait ScanSink {
    /// Squared distance of the current worst entry (the universal prune /
    /// pre-filter bound; `INFINITY` until the accumulator has `k` entries).
    fn worst_d2(&self) -> f32;
    /// Offers a candidate at position `pos` with squared distance `d2`.
    fn push(&mut self, index: usize, d2: f32, pos: Point3);
}

/// Squared distances from `q` to one [`LANES`]-wide window of coordinates.
///
/// The arithmetic is exactly `dx*dx + dy*dy + dz*dz` per lane — the same
/// operations, in the same order, as [`Point3::distance_squared`] — so every
/// path built on this block agrees bit-for-bit with the scalar formulation.
#[inline(always)]
fn dist2_block(xs: &[f32; LANES], ys: &[f32; LANES], zs: &[f32; LANES], q: Point3) -> [f32; LANES] {
    let mut out = [0.0f32; LANES];
    for j in 0..LANES {
        let dx = xs[j] - q.x;
        let dy = ys[j] - q.y;
        let dz = zs[j] - q.z;
        out[j] = dx * dx + dy * dy + dz * dz;
    }
    out
}

/// Full-width window starting at `i`; sound for any `i < soa.len()` thanks
/// to the SoA store's one-block overallocation (see [`SoaPositions`]).
#[inline(always)]
fn window(lane: &[f32], i: usize) -> &[f32; LANES] {
    lane[i..i + LANES].try_into().expect("padded SoA window")
}

/// Best-effort read prefetch of the cache line holding `p` (no-op on
/// non-x86 targets). Used by the batched kNN driver to hide the latency of
/// its permuted query loads.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; any address is allowed.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Returns `true` when the AVX2 kernel paths may be used.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_enabled() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Returns `true` when the AVX-512 kernel paths may be used.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_enabled() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Scans slots `start..end` of `soa`, offering every candidate whose squared
/// distance can still matter to `best`; `ids[slot]` maps a slot back to the
/// original point index. This is the shared leaf/cell scan of the kd-tree,
/// octree and brute-force backends.
///
/// Candidates are pre-filtered with `d2 <= best.worst_d2()` (equality passes
/// through so index-broken ties behave exactly like [`BestK::push`] alone);
/// the filter only skips candidates `push` would reject anyway, so results
/// are identical to an unfiltered scan for any non-NaN input.
#[inline]
pub(crate) fn scan_ids<S: ScanSink>(
    soa: &SoaPositions,
    ids: &[u32],
    start: usize,
    end: usize,
    q: Point3,
    best: &mut S,
) {
    debug_assert!(end <= soa.len() && end <= ids.len());
    if start >= end {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_enabled() {
            // SAFETY: AVX-512F availability checked at runtime just above.
            unsafe { scan_ids_avx512(soa, ids, start, end, q, best) };
            return;
        }
        if avx2_enabled() {
            // SAFETY: AVX2 availability checked at runtime just above.
            unsafe { scan_ids_avx2(soa, ids, start, end, q, best) };
            return;
        }
    }
    scan_ids_scalar(soa, ids, start, end, q, best);
}

fn scan_ids_scalar<S: ScanSink>(
    soa: &SoaPositions,
    ids: &[u32],
    start: usize,
    end: usize,
    q: Point3,
    best: &mut S,
) {
    let (xs, ys, zs) = (soa.xs(), soa.ys(), soa.zs());
    let mut i = start;
    while i < end {
        let d2 = dist2_block(window(xs, i), window(ys, i), window(zs, i), q);
        let m = LANES.min(end - i);
        for (j, &d) in d2.iter().enumerate().take(m) {
            if d <= best.worst_d2() {
                let pos = Point3::new(xs[i + j], ys[i + j], zs[i + j]);
                best.push(ids[i + j] as usize, d, pos);
            }
        }
        i += LANES;
    }
}

/// AVX2 scan: 8 candidate distances per iteration, with a vector compare
/// against the current k-th best so blocks with no viable candidate cost a
/// single mask test. Lanes surviving the mask are re-checked (the bound only
/// tightens) and pushed in lane order — bit-identical to the scalar path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_ids_avx2<S: ScanSink>(
    soa: &SoaPositions,
    ids: &[u32],
    start: usize,
    end: usize,
    q: Point3,
    best: &mut S,
) {
    use std::arch::x86_64::*;
    let (xs, ys, zs) = (soa.xs(), soa.ys(), soa.zs());
    let qx = _mm256_set1_ps(q.x);
    let qy = _mm256_set1_ps(q.y);
    let qz = _mm256_set1_ps(q.z);
    let mut i = start;
    while i < end {
        // Explicit mul + add (NOT fmadd): keeps the arithmetic bit-identical
        // to the scalar kernel and to the pre-SoA `distance_squared` loops.
        let dx = _mm256_sub_ps(_mm256_loadu_ps(xs.as_ptr().add(i)), qx);
        let dy = _mm256_sub_ps(_mm256_loadu_ps(ys.as_ptr().add(i)), qy);
        let dz = _mm256_sub_ps(_mm256_loadu_ps(zs.as_ptr().add(i)), qz);
        let d2v = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz),
        );
        let m = LANES.min(end - i);
        let wd = _mm256_set1_ps(best.worst_d2());
        let le = _mm256_cmp_ps::<_CMP_LE_OQ>(d2v, wd);
        let mut bits = (_mm256_movemask_ps(le) as u32) & ((1u32 << m) - 1);
        if bits != 0 {
            let mut d2 = [0.0f32; LANES];
            _mm256_storeu_ps(d2.as_mut_ptr(), d2v);
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // The worst may have tightened since the vector compare.
                if d2[j] <= best.worst_d2() {
                    let pos = Point3::new(xs[i + j], ys[i + j], zs[i + j]);
                    best.push(ids[i + j] as usize, d2[j], pos);
                }
            }
        }
        i += LANES;
    }
}

/// AVX-512 scan: 16 candidate distances per iteration with a native
/// compare-to-mask against the current k-th best. Same explicit mul + add
/// arithmetic and same ascending-lane push order as the scalar path — the
/// SoA store guarantees `2 × LANES` of padding, so the 16-wide loads are
/// always in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scan_ids_avx512<S: ScanSink>(
    soa: &SoaPositions,
    ids: &[u32],
    start: usize,
    end: usize,
    q: Point3,
    best: &mut S,
) {
    use std::arch::x86_64::*;
    const W: usize = 2 * LANES;
    let (xs, ys, zs) = (soa.xs(), soa.ys(), soa.zs());
    let qx = _mm512_set1_ps(q.x);
    let qy = _mm512_set1_ps(q.y);
    let qz = _mm512_set1_ps(q.z);
    let mut i = start;
    while i < end {
        // Explicit mul + add (NOT fmadd): keeps the arithmetic bit-identical
        // to the scalar kernel.
        let dx = _mm512_sub_ps(_mm512_loadu_ps(xs.as_ptr().add(i)), qx);
        let dy = _mm512_sub_ps(_mm512_loadu_ps(ys.as_ptr().add(i)), qy);
        let dz = _mm512_sub_ps(_mm512_loadu_ps(zs.as_ptr().add(i)), qz);
        let d2v = _mm512_add_ps(
            _mm512_add_ps(_mm512_mul_ps(dx, dx), _mm512_mul_ps(dy, dy)),
            _mm512_mul_ps(dz, dz),
        );
        let m = W.min(end - i);
        let wd = _mm512_set1_ps(best.worst_d2());
        let le: u16 = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(d2v, wd);
        let mut bits = (le as u32) & (((1u32 << (m - 1)) << 1) - 1);
        if bits != 0 {
            let mut d2 = [0.0f32; W];
            _mm512_storeu_ps(d2.as_mut_ptr(), d2v);
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // The worst may have tightened since the vector compare.
                if d2[j] <= best.worst_d2() {
                    let pos = Point3::new(xs[i + j], ys[i + j], zs[i + j]);
                    best.push(ids[i + j] as usize, d2[j], pos);
                }
            }
        }
        i += W;
    }
}

/// Radius-query variant of [`scan_ids`]: appends every slot in
/// `start..end` with squared distance `<= r2` to `out`, in slot order.
pub(crate) fn scan_radius_ids(
    soa: &SoaPositions,
    ids: &[u32],
    start: usize,
    end: usize,
    q: Point3,
    r2: f32,
    out: &mut Vec<Neighbor>,
) {
    debug_assert!(end <= soa.len() && end <= ids.len());
    let (xs, ys, zs) = (soa.xs(), soa.ys(), soa.zs());
    let mut i = start;
    while i < end {
        let d2 = dist2_block(window(xs, i), window(ys, i), window(zs, i), q);
        let m = LANES.min(end - i);
        for (j, &d) in d2.iter().enumerate().take(m) {
            if d <= r2 {
                out.push(Neighbor {
                    index: ids[i + j] as usize,
                    distance_squared: d,
                });
            }
        }
        i += LANES;
    }
}

/// Elementwise `out[i] = xs[i]² + ys[i]² + zs[i]²` over plain (unpadded)
/// lanes. Exported for `volut-core`'s blocked LUT key encoder, which gathers
/// center-relative neighbor offsets into SoA lanes and needs their squared
/// norms with exactly [`Point3::norm_squared`]'s arithmetic.
///
/// # Panics
/// Panics when the four slices differ in length.
pub fn norm_squared_lanes(xs: &[f32], ys: &[f32], zs: &[f32], out: &mut [f32]) {
    assert!(
        xs.len() == ys.len() && xs.len() == zs.len() && xs.len() == out.len(),
        "norm_squared_lanes: mismatched lane lengths"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: AVX2 availability checked at runtime just above.
        unsafe { norm_squared_lanes_avx2(xs, ys, zs, out) };
        return;
    }
    norm_squared_lanes_scalar(xs, ys, zs, out);
}

fn norm_squared_lanes_scalar(xs: &[f32], ys: &[f32], zs: &[f32], out: &mut [f32]) {
    for i in 0..xs.len() {
        out[i] = xs[i] * xs[i] + ys[i] * ys[i] + zs[i] * zs[i];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn norm_squared_lanes_avx2(xs: &[f32], ys: &[f32], zs: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let mut i = 0;
    while i + LANES <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        let y = _mm256_loadu_ps(ys.as_ptr().add(i));
        let z = _mm256_loadu_ps(zs.as_ptr().add(i));
        let n2 = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(x, x), _mm256_mul_ps(y, y)),
            _mm256_mul_ps(z, z),
        );
        _mm256_storeu_ps(out.as_mut_ptr().add(i), n2);
        i += LANES;
    }
    while i < n {
        out[i] = xs[i] * xs[i] + ys[i] * ys[i] + zs[i] * zs[i];
        i += 1;
    }
}

/// Midpoints of gathered index pairs: `out[i] = midpoint(soa[a[i]], soa[b[i]])`.
///
/// This is the generation kernel behind the interpolators' recomputed-row
/// batch: partner pairs for every row that must be recomputed are drawn up
/// front, then one call produces the new points with 8-wide AVX2 index
/// gathers over the SoA coordinate lanes. The scalar fallback performs
/// exactly [`Point3::midpoint`]'s arithmetic — `0.5 * (a + b)` per component;
/// IEEE-754 multiplication is commutative, so the vector form `(a + b) * 0.5`
/// is bit-identical — so the host CPU is invisible to interpolation results.
///
/// # Panics
/// Panics when `a`, `b` and `out` differ in length, or when any index is out
/// of bounds for `soa`.
pub fn pair_midpoints_into(soa: &SoaPositions, a: &[u32], b: &[u32], out: &mut [Point3]) {
    assert!(
        a.len() == b.len() && a.len() == out.len(),
        "pair_midpoints_into: mismatched pair/output lengths"
    );
    let n = soa.len() as u32;
    assert!(
        a.iter().chain(b.iter()).all(|&i| i < n),
        "pair_midpoints_into: pair index out of range"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: AVX2 availability checked at runtime just above, and every
        // gather index was bounds-checked against the SoA length.
        unsafe { pair_midpoints_avx2(soa, a, b, out) };
        return;
    }
    pair_midpoints_scalar(soa, a, b, out);
}

fn pair_midpoints_scalar(soa: &SoaPositions, a: &[u32], b: &[u32], out: &mut [Point3]) {
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = soa.get(a[i] as usize).midpoint(soa.get(b[i] as usize));
    }
}

/// AVX2 pair-midpoint kernel: 8 pairs per iteration via 32-bit index gathers
/// from the coordinate lanes, then one add + mul per lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pair_midpoints_avx2(soa: &SoaPositions, a: &[u32], b: &[u32], out: &mut [Point3]) {
    use std::arch::x86_64::*;
    let (xs, ys, zs) = (soa.xs(), soa.ys(), soa.zs());
    let half = _mm256_set1_ps(0.5);
    let n = out.len();
    let mut i = 0;
    while i + LANES <= n {
        let ia = _mm256_loadu_si256(a.as_ptr().add(i).cast());
        let ib = _mm256_loadu_si256(b.as_ptr().add(i).cast());
        // Explicit add then mul (NOT fmadd): `(a + b) * 0.5` matches the
        // scalar `midpoint` bit-for-bit (IEEE mul is commutative).
        let mx = _mm256_mul_ps(
            _mm256_add_ps(
                _mm256_i32gather_ps::<4>(xs.as_ptr(), ia),
                _mm256_i32gather_ps::<4>(xs.as_ptr(), ib),
            ),
            half,
        );
        let my = _mm256_mul_ps(
            _mm256_add_ps(
                _mm256_i32gather_ps::<4>(ys.as_ptr(), ia),
                _mm256_i32gather_ps::<4>(ys.as_ptr(), ib),
            ),
            half,
        );
        let mz = _mm256_mul_ps(
            _mm256_add_ps(
                _mm256_i32gather_ps::<4>(zs.as_ptr(), ia),
                _mm256_i32gather_ps::<4>(zs.as_ptr(), ib),
            ),
            half,
        );
        let mut lx = [0.0f32; LANES];
        let mut ly = [0.0f32; LANES];
        let mut lz = [0.0f32; LANES];
        _mm256_storeu_ps(lx.as_mut_ptr(), mx);
        _mm256_storeu_ps(ly.as_mut_ptr(), my);
        _mm256_storeu_ps(lz.as_mut_ptr(), mz);
        for j in 0..LANES {
            out[i + j] = Point3::new(lx[j], ly[j], lz[j]);
        }
        i += LANES;
    }
    while i < n {
        out[i] = soa.get(a[i] as usize).midpoint(soa.get(b[i] as usize));
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::BestK;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.random_range(-4.0..4.0),
                    rng.random_range(-4.0..4.0),
                    rng.random_range(-4.0..4.0),
                )
            })
            .collect()
    }

    type ScanFn = fn(&SoaPositions, &[u32], usize, usize, Point3, &mut BestK);
    type NormFn = fn(&[f32], &[f32], &[f32], &mut [f32]);
    type MidpointFn = fn(&SoaPositions, &[u32], &[u32], &mut [Point3]);

    /// Every scan path this host can run: the scalar path and each SIMD
    /// path whose CPU feature is detected, so a test covers the paths the
    /// dispatcher would not pick here.
    fn scan_paths() -> Vec<(&'static str, ScanFn)> {
        let mut paths: Vec<(&'static str, ScanFn)> = vec![("scalar", scan_ids_scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_enabled() {
                // SAFETY: only listed when AVX2 was detected.
                paths.push(("avx2", |s, i, a, b, q, k| unsafe {
                    scan_ids_avx2(s, i, a, b, q, k)
                }));
            }
            if avx512_enabled() {
                // SAFETY: only listed when AVX-512F was detected.
                paths.push(("avx512", |s, i, a, b, q, k| unsafe {
                    scan_ids_avx512(s, i, a, b, q, k)
                }));
            }
        }
        paths
    }

    /// [`scan_paths`] for [`norm_squared_lanes`].
    fn norm_paths() -> Vec<(&'static str, NormFn)> {
        let mut paths: Vec<(&'static str, NormFn)> = vec![("scalar", norm_squared_lanes_scalar)];
        #[cfg(target_arch = "x86_64")]
        if avx2_enabled() {
            // SAFETY: only listed when AVX2 was detected.
            paths.push(("avx2", |x, y, z, o| unsafe {
                norm_squared_lanes_avx2(x, y, z, o)
            }));
        }
        paths
    }

    /// [`scan_paths`] for [`pair_midpoints_into`]. The raw paths skip the
    /// dispatcher's length and index checks, so inputs must be valid.
    fn midpoint_paths() -> Vec<(&'static str, MidpointFn)> {
        let mut paths: Vec<(&'static str, MidpointFn)> = vec![("scalar", pair_midpoints_scalar)];
        #[cfg(target_arch = "x86_64")]
        if avx2_enabled() {
            // SAFETY: only listed when AVX2 was detected; callers pass
            // in-range indices.
            paths.push(("avx2", |s, a, b, o| unsafe {
                pair_midpoints_avx2(s, a, b, o)
            }));
        }
        paths
    }

    /// Every scan path the host supports must agree bit-for-bit with a
    /// plain `distance_squared` loop through the same `BestK` — the
    /// contract that makes the host CPU invisible to every backend built on
    /// this kernel.
    #[test]
    fn scan_matches_scalar_reference_bitwise() {
        let pts = random_points(100, 9);
        let mut soa = SoaPositions::default();
        soa.fill(&pts);
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        for (path, scan) in scan_paths() {
            for (qi, &q) in random_points(20, 10).iter().enumerate() {
                for k in [1usize, 3, 8] {
                    for (start, end) in [(0usize, pts.len()), (5, 9), (7, 63), (97, 100)] {
                        let mut best = BestK::default();
                        best.begin(k);
                        scan(&soa, &ids, start, end, q, &mut best);
                        let mut reference = BestK::default();
                        reference.begin(k);
                        for (i, &p) in pts.iter().enumerate().take(end).skip(start) {
                            reference.push(i, p.distance_squared(q), p);
                        }
                        let got: Vec<(usize, f32)> = best
                            .sorted()
                            .iter()
                            .map(|n| (n.index, n.distance_squared))
                            .collect();
                        let want: Vec<(usize, f32)> = reference
                            .sorted()
                            .iter()
                            .map(|n| (n.index, n.distance_squared))
                            .collect();
                        assert_eq!(got, want, "{path}: query {qi} k {k} range {start}..{end}");
                    }
                }
            }
        }
    }

    #[test]
    fn scan_handles_duplicate_ties_by_index() {
        // 20 identical points: the k best must be the lowest indices.
        let pts = vec![Point3::ONE; 20];
        let mut soa = SoaPositions::default();
        soa.fill(&pts);
        let ids: Vec<u32> = (0..20).collect();
        let mut best = BestK::default();
        best.begin(6);
        scan_ids(&soa, &ids, 0, 20, Point3::ZERO, &mut best);
        let idx: Vec<usize> = best.sorted().iter().map(|n| n.index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn radius_scan_matches_reference() {
        let pts = random_points(70, 11);
        let mut soa = SoaPositions::default();
        soa.fill(&pts);
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let q = Point3::new(0.5, -0.5, 0.25);
        let r2 = 4.0f32;
        let mut got = Vec::new();
        scan_radius_ids(&soa, &ids, 0, pts.len(), q, r2, &mut got);
        let want: Vec<(usize, f32)> = pts
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| {
                let d2 = p.distance_squared(q);
                (d2 <= r2).then_some((i, d2))
            })
            .collect();
        assert_eq!(
            got.iter()
                .map(|n| (n.index, n.distance_squared))
                .collect::<Vec<_>>(),
            want
        );
    }

    /// Every pair-midpoint path the host supports must agree bit-for-bit
    /// with a scalar `Point3::midpoint` loop — including duplicate pairs,
    /// self-pairs, and ragged (non-lane-multiple) lengths.
    #[test]
    fn pair_midpoints_match_scalar_reference_bitwise() {
        let pts = random_points(200, 21);
        let mut soa = SoaPositions::default();
        soa.fill(&pts);
        for (path, midpoints) in midpoint_paths() {
            let mut rng = StdRng::seed_from_u64(22);
            for n in [0usize, 1, 7, 8, 9, 64, 131] {
                let a: Vec<u32> = (0..n)
                    .map(|_| rng.random_range(0..pts.len() as u32))
                    .collect();
                let mut b: Vec<u32> = (0..n)
                    .map(|_| rng.random_range(0..pts.len() as u32))
                    .collect();
                if n > 2 {
                    b[0] = a[0]; // self-pair
                    b[1] = b[2]; // duplicate partner
                }
                let mut got = vec![Point3::ZERO; n];
                midpoints(&soa, &a, &b, &mut got);
                for i in 0..n {
                    let want = pts[a[i] as usize].midpoint(pts[b[i] as usize]);
                    for (g, w) in [(got[i].x, want.x), (got[i].y, want.y), (got[i].z, want.z)] {
                        assert_eq!(g.to_bits(), w.to_bits(), "{path}: pair {i} of {n}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pair index out of range")]
    fn pair_midpoints_reject_out_of_range_indices() {
        let mut soa = SoaPositions::default();
        soa.fill(&[Point3::ZERO, Point3::ONE]);
        let mut out = vec![Point3::ZERO; 1];
        pair_midpoints_into(&soa, &[0], &[2], &mut out);
    }

    #[test]
    fn norm_squared_lanes_matches_point_norms() {
        let pts = random_points(37, 13);
        let xs: Vec<f32> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f32> = pts.iter().map(|p| p.y).collect();
        let zs: Vec<f32> = pts.iter().map(|p| p.z).collect();
        for (path, norms) in norm_paths() {
            let mut out = vec![0.0f32; pts.len()];
            norms(&xs, &ys, &zs, &mut out);
            for (i, &p) in pts.iter().enumerate() {
                assert_eq!(out[i], p.norm_squared(), "{path}: lane {i}");
            }
        }
    }
}
