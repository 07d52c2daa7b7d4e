//! Frame-to-frame deltas for temporally coherent streaming.
//!
//! Volumetric streams rarely replace a frame wholesale: consecutive frames
//! share most of their geometry (static background chunks, slowly moving
//! subjects), and the points that do change arrive as chunked removals and
//! insertions. [`FrameDelta`] captures that relationship explicitly — which
//! old points were **removed**, which new points were **inserted**, and how
//! every *surviving* point's index moved — so downstream consumers (the
//! incremental kd-tree patch of [`crate::kdtree::KdTree::patch`], the SR
//! engine's incremental kNN row reuse) can update their state in `O(churn)`
//! instead of recomputing in `O(n)`.
//!
//! A delta can come from two places:
//! * [`FrameDelta::diff`] — an `O(n)` bitwise position diff between two
//!   frames, for callers that only hold the raw clouds;
//! * [`FrameDelta::from_parts`] — an explicit removal/insertion description
//!   from a streaming layer that already knows what changed (chunk
//!   scheduling, delta-encoded transport).
//!
//! # The order-preservation invariant
//!
//! Every delta upholds one invariant the incremental consumers rely on:
//! **surviving points appear in the same relative order in both frames**,
//! and each survivor's position is bitwise identical across frames. Exact
//! kNN results break distance ties by ascending index, so preserving the
//! survivors' relative order is what lets cached neighbor rows be remapped
//! to new indices *without* re-deciding any tie — the remapped row is
//! bit-identical to a fresh query. [`FrameDelta::diff`] constructs only such
//! deltas (points that moved out of order are conservatively reported as a
//! removal plus an insertion), and [`FrameDelta::from_parts`] derives the
//! survivor mapping from the removal/insertion sets, which makes the
//! invariant hold by construction.

use crate::point::Point3;
use std::fmt;

/// Sentinel in the old→new survivor map marking a removed point.
pub const REMOVED: u32 = u32::MAX;

/// Why [`FrameDelta::verify`] rejected a delta against a frame pair.
///
/// Each variant names the check that failed and where, so a streaming layer
/// can distinguish a transport-mangled delta (length mismatches, truncation)
/// from genuine cache poisoning (a survivor whose bits changed) and report
/// the failure instead of silently falling back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The old frame has a different point count than the delta claims.
    OldLenMismatch {
        /// Length the delta was built for.
        expected: usize,
        /// Length of the frame actually supplied.
        got: usize,
    },
    /// The new frame has a different point count than the delta claims.
    NewLenMismatch {
        /// Length the delta was built for.
        expected: usize,
        /// Length of the frame actually supplied.
        got: usize,
    },
    /// The survivor map is not strictly increasing at this old index — the
    /// order-preservation invariant (see the module docs) is broken.
    OrderViolation {
        /// Old-frame index whose mapping is out of order.
        old_index: usize,
    },
    /// A claimed survivor's position is not bitwise identical across frames.
    PositionMismatch {
        /// Old-frame index of the mismatching survivor.
        old_index: usize,
        /// New-frame index the delta maps it to.
        new_index: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeltaError::OldLenMismatch { expected, got } => {
                write!(f, "old frame has {got} points, delta expects {expected}")
            }
            DeltaError::NewLenMismatch { expected, got } => {
                write!(f, "new frame has {got} points, delta expects {expected}")
            }
            DeltaError::OrderViolation { old_index } => {
                write!(
                    f,
                    "survivor map not strictly increasing at old index {old_index}"
                )
            }
            DeltaError::PositionMismatch {
                old_index,
                new_index,
            } => write!(
                f,
                "survivor position differs between old index {old_index} and new index {new_index}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The difference between two consecutive frames of one stream: removals
/// from the old frame, insertions into the new frame, and the index mapping
/// of the surviving points.
///
/// # Example
///
/// ```
/// use volut_pointcloud::{delta::FrameDelta, Point3};
/// let old = vec![Point3::ZERO, Point3::ONE, Point3::splat(2.0)];
/// // Point 1 removed, a new point appended at the end.
/// let new = vec![Point3::ZERO, Point3::splat(2.0), Point3::splat(9.0)];
/// let d = FrameDelta::diff(&old, &new);
/// assert_eq!(d.removed(), &[1]);
/// assert_eq!(d.inserted(), &[2]);
/// assert_eq!(d.map_old(0), Some(0));
/// assert_eq!(d.map_old(1), None);
/// assert_eq!(d.map_old(2), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDelta {
    old_len: usize,
    new_len: usize,
    /// Indices into the old frame that are gone, ascending.
    removed: Vec<u32>,
    /// Indices into the new frame that are new, ascending.
    inserted: Vec<u32>,
    /// For every old index, the new index of the same point, or [`REMOVED`].
    /// Strictly increasing over the survivors (the order invariant).
    old_to_new: Vec<u32>,
}

impl FrameDelta {
    /// Number of points in the old frame.
    pub fn old_len(&self) -> usize {
        self.old_len
    }

    /// Number of points in the new frame.
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// Old-frame indices of the removed points, ascending.
    pub fn removed(&self) -> &[u32] {
        &self.removed
    }

    /// New-frame indices of the inserted points, ascending.
    pub fn inserted(&self) -> &[u32] {
        &self.inserted
    }

    /// The full old→new survivor map (`len == old_len()`, [`REMOVED`] marks
    /// removed points). Strictly increasing over the surviving entries.
    pub fn old_to_new(&self) -> &[u32] {
        &self.old_to_new
    }

    /// New index of old point `i`, or `None` when it was removed.
    #[inline]
    pub fn map_old(&self, i: usize) -> Option<usize> {
        match self.old_to_new[i] {
            REMOVED => None,
            n => Some(n as usize),
        }
    }

    /// Number of surviving points.
    pub fn survivors(&self) -> usize {
        self.old_len - self.removed.len()
    }

    /// `true` when nothing changed (no removals, no insertions).
    pub fn is_identity(&self) -> bool {
        self.removed.is_empty() && self.inserted.is_empty()
    }

    /// Churn fraction relative to the larger frame: the share of points that
    /// are *not* carried over.
    pub fn churn(&self) -> f64 {
        let n = self.old_len.max(self.new_len);
        if n == 0 {
            0.0
        } else {
            self.removed.len().max(self.inserted.len()) as f64 / n as f64
        }
    }

    /// `true` when [`Self::from_parts`] accepts this description. Costs
    /// `O(removed + inserted)` and allocates nothing, so a decoder can
    /// validate a delta off the wire before anything is sized by its
    /// lengths.
    pub fn parts_are_consistent(
        old_len: usize,
        new_len: usize,
        removed: &[u32],
        inserted: &[u32],
    ) -> bool {
        let ascending_in_bounds = |ids: &[u32], len: usize| {
            ids.iter().all(|&i| (i as usize) < len) && ids.windows(2).all(|w| w[0] < w[1])
        };
        removed.len() <= old_len
            && inserted.len() <= new_len
            && old_len - removed.len() + inserted.len() == new_len
            && ascending_in_bounds(removed, old_len)
            && ascending_in_bounds(inserted, new_len)
    }

    /// Builds a delta from an explicit removal/insertion description — the
    /// streaming-layer API for callers that already know what changed.
    ///
    /// `removed` are old-frame indices, `inserted` new-frame indices; both
    /// must be ascending, duplicate-free and in bounds, and the counts must
    /// be consistent (`old_len - removed + inserted == new_len`). The
    /// survivor mapping is derived positionally: survivors keep their
    /// relative order, with the inserted slots interleaved at the given new
    /// indices. Returns `None` when the description is inconsistent.
    pub fn from_parts(
        old_len: usize,
        new_len: usize,
        removed: Vec<u32>,
        inserted: Vec<u32>,
    ) -> Option<FrameDelta> {
        if !Self::parts_are_consistent(old_len, new_len, &removed, &inserted) {
            return None;
        }
        // Walk old and new indices together, skipping removed old slots and
        // inserted new slots; the remaining pairs are the survivor mapping.
        let mut old_to_new = vec![REMOVED; old_len];
        let mut ri = 0usize;
        let mut ii = 0usize;
        let mut new_i = 0usize;
        for (old_i, slot) in old_to_new.iter_mut().enumerate() {
            if ri < removed.len() && removed[ri] as usize == old_i {
                ri += 1;
                continue;
            }
            while ii < inserted.len() && inserted[ii] as usize == new_i {
                ii += 1;
                new_i += 1;
            }
            debug_assert!(new_i < new_len, "counts were validated above");
            *slot = new_i as u32;
            new_i += 1;
        }
        Some(FrameDelta {
            old_len,
            new_len,
            removed,
            inserted,
            old_to_new,
        })
    }

    /// Computes the delta between two frames by bitwise position comparison
    /// in `O(n)`.
    ///
    /// The diff is a two-pointer walk over both frames: bitwise-equal
    /// positions at the cursors match as survivors; at a mismatch, a
    /// position whose key count in the *other frame's remaining suffix* is
    /// zero is a removal (old side) or an insertion (new side); positions
    /// with matches remaining on both sides but out of order are
    /// conservatively churned as a removal *plus* an insertion, so the order
    /// invariant (see the module docs) always holds, with a one-step
    /// lookahead that re-synchronizes the walk across an isolated
    /// removal/insertion before falling back to churning both sides. The
    /// count maps are multiset-aware and consumed as the cursors advance, so
    /// bitwise-duplicate points (quantized scans are full of them) no longer
    /// read as "present elsewhere" after their copies have been consumed —
    /// the over-churn the whole-frame membership sets used to cause. Counts
    /// are still collision-lossy over folded 32-bit keys, but a collision
    /// only *inflates* a count, which only pushes a mismatch into the
    /// conservative churn branch; a zero remaining count is certain absence,
    /// and survivors always require exact equality at the cursors. The maps
    /// are built lazily at the first mismatch, so the matching fast path of
    /// low-churn frames never touches them, and identical frames
    /// short-circuit on one slice compare.
    pub fn diff(old: &[Point3], new: &[Point3]) -> FrameDelta {
        Self::diff_bounded(old, new, 0).expect("a zero survivor bound never aborts")
    }

    /// [`FrameDelta::diff`] with an early abort: returns `None` as soon as
    /// the walk can no longer produce at least `min_survivors` surviving
    /// points — the per-frame guard of consumers (like the SR engine's
    /// temporal layer) that fall back to a full recompute below a survivor
    /// threshold, so a scene cut pays about half a diff instead of a full
    /// one.
    pub fn diff_bounded(
        old: &[Point3],
        new: &[Point3],
        min_survivors: usize,
    ) -> Option<FrameDelta> {
        if old.len().min(new.len()) < min_survivors {
            return None;
        }
        let bitwise_identical = old.len() == new.len()
            && old
                .iter()
                .zip(new)
                .all(|(&a, &b)| position_key(a) == position_key(b));
        if bitwise_identical {
            return FrameDelta::from_parts(old.len(), new.len(), Vec::new(), Vec::new());
        }
        // Sampled survivor ceiling: an old position absent from the new
        // frame's membership set certainly cannot survive (membership is a
        // superset of survival — collisions only produce false *positives*),
        // so a low sampled hit rate proves the bound unreachable long before
        // the walk would. The factor-of-two slack makes a spurious abort of
        // a genuinely eligible frame a multi-sigma sampling event; even then
        // the caller merely falls back to a full recompute.
        if min_survivors > 0 && old.len() >= 1024 {
            let new_members = KeySet::over(new);
            let samples = 512usize;
            let step = old.len() / samples;
            let hits = old
                .iter()
                .step_by(step)
                .take(samples)
                .filter(|&&p| new_members.contains(position_key(p)))
                .count();
            if 2 * hits * old.len() < min_survivors * samples {
                return None;
            }
        }
        let mut removed = Vec::new();
        let mut inserted = Vec::new();
        let mut old_to_new = vec![REMOVED; old.len()];
        let mut i = 0usize;
        let mut j = 0usize;
        let mut matched = 0usize;
        // Remaining-suffix key counts for both frames, built lazily at the
        // first mismatch (over `old[i..]` / `new[j..]`) and decremented as
        // the cursors consume points, so they always describe exactly what
        // is still ahead of the walk.
        let mut counts: Option<(KeyCounts, KeyCounts)> = None;
        while i < old.len() && j < new.len() {
            let oi = position_key(old[i]);
            let nj = position_key(new[j]);
            if oi == nj {
                old_to_new[i] = j as u32;
                matched += 1;
                if let Some((old_counts, new_counts)) = &mut counts {
                    old_counts.consume(oi);
                    new_counts.consume(nj);
                }
                i += 1;
                j += 1;
                continue;
            }
            let (old_counts, new_counts) = counts
                .get_or_insert_with(|| (KeyCounts::over(&old[i..]), KeyCounts::over(&new[j..])));
            let old_can_still_match = new_counts.remaining(oi) > 0;
            let new_can_still_match = old_counts.remaining(nj) > 0;
            if !old_can_still_match {
                // No copy of this position remains ahead in the new frame:
                // a certain removal (collisions only inflate counts, so a
                // zero remaining count cannot be a false negative).
                removed.push(i as u32);
                old_counts.consume(oi);
                i += 1;
            } else if !new_can_still_match {
                inserted.push(j as u32);
                new_counts.consume(nj);
                j += 1;
            } else if i + 1 < old.len() && position_key(old[i + 1]) == nj {
                // One-step lookahead realignment: the next old point already
                // matches the new cursor, so treating `old[i]` as removed
                // re-synchronizes the walk immediately. This is what keeps
                // duplicate-heavy frames churn-proportional — a removed
                // point whose bit pattern survives in *other* copies would
                // otherwise never take the certain-removal branch above.
                removed.push(i as u32);
                old_counts.consume(oi);
                i += 1;
            } else if j + 1 < new.len() && position_key(new[j + 1]) == oi {
                // Mirror image: the next new point matches the old cursor,
                // so `new[j]` is an insertion.
                inserted.push(j as u32);
                new_counts.consume(nj);
                j += 1;
            } else {
                // Both positions still have matches ahead on the other
                // side and no one-step realignment exists: a reordering (or
                // a key collision — see above). Churn both — strictly more
                // invalidation than a smarter matching would report, never
                // less.
                removed.push(i as u32);
                old_counts.consume(oi);
                i += 1;
                inserted.push(j as u32);
                new_counts.consume(nj);
                j += 1;
            }
            // The most optimistic finish matches everything still unseen.
            if matched + (old.len() - i).min(new.len() - j) < min_survivors {
                return None;
            }
        }
        removed.extend(i as u32..old.len() as u32);
        inserted.extend(j as u32..new.len() as u32);
        Some(FrameDelta {
            old_len: old.len(),
            new_len: new.len(),
            removed,
            inserted,
            old_to_new,
        })
    }

    /// Verifies this delta against the actual frames: lengths must match and
    /// every survivor's position must be bitwise identical across frames.
    /// One linear pass — the cheap safety net for externally supplied deltas
    /// (a wrong delta would silently corrupt incremental results). On
    /// rejection the returned [`DeltaError`] names the first failing check
    /// and where it failed.
    pub fn verify(&self, old: &[Point3], new: &[Point3]) -> Result<(), DeltaError> {
        if old.len() != self.old_len {
            return Err(DeltaError::OldLenMismatch {
                expected: self.old_len,
                got: old.len(),
            });
        }
        if new.len() != self.new_len {
            return Err(DeltaError::NewLenMismatch {
                expected: self.new_len,
                got: new.len(),
            });
        }
        let mut prev_new = None;
        for (old_i, &new_i) in self.old_to_new.iter().enumerate() {
            if new_i == REMOVED {
                continue;
            }
            // Strictly increasing (the order invariant) and bitwise equal.
            if new_i as usize >= self.new_len || prev_new.is_some_and(|p| new_i <= p) {
                return Err(DeltaError::OrderViolation { old_index: old_i });
            }
            prev_new = Some(new_i);
            if position_key(old[old_i]) != position_key(new[new_i as usize]) {
                return Err(DeltaError::PositionMismatch {
                    old_index: old_i,
                    new_index: new_i as usize,
                });
            }
        }
        Ok(())
    }

    /// Composes this delta (frame *A* → frame *B*) with `next` (frame *B* →
    /// frame *C*) into one delta describing *A* → *C* directly — the splice
    /// primitive a resilient streaming session uses to recover from skipped
    /// delta frames without replaying them one by one.
    ///
    /// A point survives the composition exactly when it survives both hops,
    /// and its final index is `next`'s mapping of this delta's mapping. Both
    /// survivor maps are strictly increasing, so the composed map is too —
    /// the order invariant holds by transitivity, and the composed delta is
    /// bit-identical to what [`FrameDelta::diff`]-style construction over
    /// frames *A* and *C* would be allowed to produce. Returns `None` when
    /// the deltas do not chain (`self.new_len() != next.old_len()`).
    pub fn compose(&self, next: &FrameDelta) -> Option<FrameDelta> {
        if self.new_len != next.old_len {
            return None;
        }
        let mut removed = Vec::new();
        let mut old_to_new = vec![REMOVED; self.old_len];
        for (old_i, slot) in old_to_new.iter_mut().enumerate() {
            let mid = self.old_to_new[old_i];
            let fin = if mid == REMOVED {
                REMOVED
            } else {
                next.old_to_new[mid as usize]
            };
            if fin == REMOVED {
                removed.push(old_i as u32);
            } else {
                *slot = fin;
            }
        }
        // Inserted = every final-frame index outside the survivor image. The
        // image is strictly increasing, so one merge walk recovers the gaps.
        let mut inserted = Vec::with_capacity(next.new_len - (self.old_len - removed.len()));
        let mut image = old_to_new.iter().copied().filter(|&m| m != REMOVED);
        let mut next_survivor = image.next();
        for new_i in 0..next.new_len as u32 {
            if next_survivor == Some(new_i) {
                next_survivor = image.next();
            } else {
                inserted.push(new_i);
            }
        }
        Some(FrameDelta {
            old_len: self.old_len,
            new_len: next.new_len,
            removed,
            inserted,
            old_to_new,
        })
    }

    /// Reconstructs the new frame's per-point values from the old frame
    /// plus the values of the inserted points (one per
    /// [`FrameDelta::inserted`] index, in the same order) — the receiver
    /// side of delta transport. Generic so that any attribute that rides
    /// the survivor map (positions, colors) can be rebuilt the same way.
    /// Returns `None` when the input lengths do not match this delta.
    pub fn apply<T: Copy + Default>(&self, old: &[T], inserted_values: &[T]) -> Option<Vec<T>> {
        if old.len() != self.old_len || inserted_values.len() != self.inserted.len() {
            return None;
        }
        let mut new = vec![T::default(); self.new_len];
        for (old_i, &new_i) in self.old_to_new.iter().enumerate() {
            if new_i != REMOVED {
                new[new_i as usize] = old[old_i];
            }
        }
        for (&new_i, &v) in self.inserted.iter().zip(inserted_values) {
            new[new_i as usize] = v;
        }
        Some(new)
    }
}

/// Bit pattern of a position — the diff's equality key. Comparing bit
/// patterns (not `f32` values) makes `-0.0 != +0.0` and `NaN == NaN`
/// (same payload), which is exactly the "same stored point" notion the
/// incremental consumers need.
#[inline]
fn position_key(p: Point3) -> u128 {
    (u128::from(p.x.to_bits()) << 64)
        | (u128::from(p.y.to_bits()) << 32)
        | u128::from(p.z.to_bits())
}

/// Folds a 96-bit position key into the nonzero 32-bit slot key the
/// membership set stores (splitmix-style avalanche; `0` is reserved as the
/// empty-slot marker, so a folded `0` is remapped to `1`).
#[inline]
fn fold_key(key: u128) -> u32 {
    let mut h = (key as u64) ^ ((key >> 64) as u64).rotate_left(32);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let folded = (h ^ (h >> 31)) as u32;
    folded.max(1)
}

/// Open-addressing membership set over folded position keys — the side
/// structure of [`FrameDelta::diff_bounded`]'s sampled survivor ceiling.
///
/// Folding to 32 bits means two distinct positions *can* share a slot key,
/// which is deliberately safe here: membership is a superset of survival
/// (collisions only produce false positives), so the sampled hit rate the
/// ceiling computes from this set can only *over*-estimate how many points
/// survive — an abort is still certain. The mismatch classification of the
/// walk itself uses the multiset-aware [`KeyCounts`] below instead.
struct KeySet {
    /// Folded keys; `0` marks an empty slot.
    slots: Vec<u32>,
    mask: usize,
}

impl KeySet {
    /// Builds the set (load factor kept at or below one half).
    fn over(points: &[Point3]) -> KeySet {
        let capacity = (points.len() * 2).next_power_of_two().max(8);
        let mut set = KeySet {
            slots: vec![0; capacity],
            mask: capacity - 1,
        };
        for &p in points {
            let key = fold_key(position_key(p));
            let mut s = key as usize & set.mask;
            loop {
                if set.slots[s] == 0 {
                    set.slots[s] = key;
                    break;
                }
                if set.slots[s] == key {
                    break;
                }
                s = (s + 1) & set.mask;
            }
        }
        set
    }

    /// `true` when the (folded) key is present.
    #[inline]
    fn contains(&self, position: u128) -> bool {
        let key = fold_key(position);
        let mut s = key as usize & self.mask;
        loop {
            if self.slots[s] == 0 {
                return false;
            }
            if self.slots[s] == key {
                return true;
            }
            s = (s + 1) & self.mask;
        }
    }
}

/// Open-addressing *multiset counts* over folded position keys — the
/// side structure of [`FrameDelta::diff`]'s mismatch classification.
///
/// Unlike a plain membership set, counts make duplicate-heavy frames (e.g.
/// quantized scans that store the same position many times) classify
/// precisely: once every copy of a position ahead of the cursor has been
/// consumed, its remaining count reaches zero and the walk can emit a
/// certain removal/insertion instead of conservatively churning both sides.
/// Folding to 32 bits means two distinct positions *can* share a slot, but a
/// collision only merges (inflates) counts, so `remaining() == 0` is certain
/// absence while a nonzero count merely steers the walk into its
/// conservative branch — degrading reuse, never correctness (survivors still
/// require exact 96-bit equality at the cursors). Built lazily at the first
/// mismatch so the matching fast path that dominates low-churn frames never
/// pays for it.
struct KeyCounts {
    /// `(folded key, remaining count)`; key `0` marks an empty slot.
    slots: Vec<(u32, u32)>,
    mask: usize,
}

impl KeyCounts {
    /// Builds the counts (load factor kept at or below one half).
    fn over(points: &[Point3]) -> KeyCounts {
        let capacity = (points.len() * 2).next_power_of_two().max(8);
        let mut counts = KeyCounts {
            slots: vec![(0, 0); capacity],
            mask: capacity - 1,
        };
        for &p in points {
            let key = fold_key(position_key(p));
            let mut s = key as usize & counts.mask;
            loop {
                if counts.slots[s].0 == 0 {
                    counts.slots[s] = (key, 1);
                    break;
                }
                if counts.slots[s].0 == key {
                    counts.slots[s].1 += 1;
                    break;
                }
                s = (s + 1) & counts.mask;
            }
        }
        counts
    }

    /// Remaining count of the (folded) position key.
    #[inline]
    fn remaining(&self, position: u128) -> u32 {
        let key = fold_key(position);
        let mut s = key as usize & self.mask;
        loop {
            let (k, n) = self.slots[s];
            if k == 0 {
                return 0;
            }
            if k == key {
                return n;
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Consumes one occurrence of the (folded) position key — called when
    /// the cursor of the frame this map was built over advances past it.
    #[inline]
    fn consume(&mut self, position: u128) {
        let key = fold_key(position);
        let mut s = key as usize & self.mask;
        loop {
            let (k, n) = self.slots[s];
            if k == 0 {
                return;
            }
            if k == key {
                self.slots[s].1 = n.saturating_sub(1);
                return;
            }
            s = (s + 1) & self.mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[f32]) -> Vec<Point3> {
        coords.iter().map(|&x| Point3::new(x, 0.0, 0.0)).collect()
    }

    #[test]
    fn identity_diff() {
        let a = pts(&[1.0, 2.0, 3.0]);
        let d = FrameDelta::diff(&a, &a);
        assert!(d.is_identity());
        assert_eq!(d.survivors(), 3);
        assert_eq!(d.churn(), 0.0);
        assert!(d.verify(&a, &a).is_ok());
    }

    #[test]
    fn removal_in_the_middle() {
        let old = pts(&[1.0, 2.0, 3.0, 4.0]);
        let new = pts(&[1.0, 3.0, 4.0]);
        let d = FrameDelta::diff(&old, &new);
        assert_eq!(d.removed(), &[1]);
        assert!(d.inserted().is_empty());
        assert_eq!(d.old_to_new(), &[0, REMOVED, 1, 2]);
        assert!(d.verify(&old, &new).is_ok());
    }

    #[test]
    fn insertion_in_the_middle() {
        let old = pts(&[1.0, 2.0, 3.0]);
        let new = pts(&[1.0, 9.0, 2.0, 3.0]);
        let d = FrameDelta::diff(&old, &new);
        assert!(d.removed().is_empty());
        assert_eq!(d.inserted(), &[1]);
        assert_eq!(d.old_to_new(), &[0, 2, 3]);
        assert!(d.verify(&old, &new).is_ok());
    }

    #[test]
    fn replacement_at_same_site() {
        let old = pts(&[1.0, 2.0, 3.0]);
        let new = pts(&[1.0, 9.0, 3.0]);
        let d = FrameDelta::diff(&old, &new);
        assert_eq!(d.removed(), &[1]);
        assert_eq!(d.inserted(), &[1]);
        assert_eq!(d.survivors(), 2);
        assert!(d.verify(&old, &new).is_ok());
    }

    #[test]
    fn reorder_is_conservatively_churned() {
        let old = pts(&[1.0, 2.0]);
        let new = pts(&[2.0, 1.0]);
        let d = FrameDelta::diff(&old, &new);
        // A swap cannot keep both points as survivors (the order invariant
        // forbids a decreasing mapping); the delta must stay valid and may
        // keep at most one side of the swap.
        assert!(d.verify(&old, &new).is_ok());
        assert_eq!(d.survivors() + d.removed().len(), 2);
        assert!(d.survivors() <= 1);
        assert!(!d.removed().is_empty());
    }

    #[test]
    fn fully_disjoint_frames() {
        let old = pts(&[1.0, 2.0]);
        let new = pts(&[8.0, 9.0, 10.0]);
        let d = FrameDelta::diff(&old, &new);
        assert_eq!(d.removed(), &[0, 1]);
        assert_eq!(d.inserted(), &[0, 1, 2]);
        assert_eq!(d.survivors(), 0);
        assert!(d.verify(&old, &new).is_ok());
    }

    #[test]
    fn duplicates_stay_valid() {
        // The remaining-suffix counts are multiset-aware: losing one copy of
        // a duplicated position churns exactly that copy, and every other
        // point survives (the whole-frame membership sets this replaced used
        // to churn the 2.0 as well).
        let old = pts(&[1.0, 1.0, 2.0]);
        let new = pts(&[1.0, 2.0]);
        let d = FrameDelta::diff(&old, &new);
        assert_eq!(d.survivors(), 2);
        assert_eq!(d.removed(), &[1]);
        assert!(d.inserted().is_empty());
        assert!(d.verify(&old, &new).is_ok());
        // The other direction gains a duplicate.
        let d = FrameDelta::diff(&new, &old);
        assert_eq!(d.survivors(), 2);
        assert_eq!(d.inserted(), &[1]);
        assert!(d.removed().is_empty());
        assert!(d.verify(&new, &old).is_ok());
    }

    /// Regression for the duplicate-heavy over-churn: a quantized scan
    /// stores many bitwise-identical positions, and a 10%-churn frame pair
    /// must still report ~90% survivors — the whole-frame membership sets
    /// this fixed used to collapse reuse to near zero because every consumed
    /// duplicate kept reading as "present elsewhere".
    #[test]
    fn duplicate_heavy_clouds_keep_churn_proportional_reuse() {
        // 1000 points quantized onto a coarse grid: every position appears
        // ~8 times.
        let quantize = |i: usize| {
            let g = (i % 125) as f32;
            Point3::new(
                (g % 5.0).floor(),
                ((g / 5.0) % 5.0).floor(),
                (g / 25.0).floor(),
            )
        };
        let old: Vec<Point3> = (0..1000).map(quantize).collect();
        // Remove every 10th point and append fresh (off-grid) replacements.
        let mut new: Vec<Point3> = old
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 10 != 0)
            .map(|(_, &p)| p)
            .collect();
        new.extend((0..100).map(|i| Point3::new(100.0 + i as f32, 0.5, 0.5)));
        let d = FrameDelta::diff(&old, &new);
        assert!(d.verify(&old, &new).is_ok());
        assert_eq!(
            d.survivors(),
            900,
            "duplicate-heavy churn must stay proportional, got {} survivors of 900 possible",
            d.survivors()
        );
        assert_eq!(d.inserted().len(), 100);
    }

    #[test]
    fn diff_bounded_aborts_below_the_survivor_floor() {
        let old = pts(&[1.0, 2.0, 3.0, 4.0]);
        let new = pts(&[9.0, 8.0, 7.0, 6.0]);
        assert!(FrameDelta::diff_bounded(&old, &new, 1).is_none());
        // A fully matching pair always satisfies any reachable bound.
        assert!(FrameDelta::diff_bounded(&old, &old, 4).is_some());
        assert!(FrameDelta::diff_bounded(&old, &old, 5).is_none());
        // Zero bound never aborts.
        assert!(FrameDelta::diff_bounded(&old, &new, 0).is_some());
    }

    #[test]
    fn empty_frames() {
        let d = FrameDelta::diff(&[], &[]);
        assert!(d.is_identity());
        let new = pts(&[1.0]);
        let d = FrameDelta::diff(&[], &new);
        assert_eq!(d.inserted(), &[0]);
        let d = FrameDelta::diff(&new, &[]);
        assert_eq!(d.removed(), &[0]);
    }

    #[test]
    fn negative_zero_and_nan_are_distinct_patterns() {
        let old = vec![Point3::new(0.0, 0.0, 0.0)];
        let new = vec![Point3::new(-0.0, 0.0, 0.0)];
        let d = FrameDelta::diff(&old, &new);
        assert_eq!(d.survivors(), 0, "-0.0 is a different stored point");
    }

    #[test]
    fn from_parts_builds_expected_mapping() {
        // old: a b c d  (remove b, d) ; new: a X c Y (insert 1, 3)
        let d = FrameDelta::from_parts(4, 4, vec![1, 3], vec![1, 3]).unwrap();
        assert_eq!(d.old_to_new(), &[0, REMOVED, 2, REMOVED]);
        assert_eq!(d.map_old(2), Some(2));
        assert_eq!(d.survivors(), 2);
    }

    #[test]
    fn from_parts_rejects_inconsistencies() {
        // Count mismatch.
        assert!(FrameDelta::from_parts(4, 4, vec![1], vec![]).is_none());
        // Out of bounds.
        assert!(FrameDelta::from_parts(4, 4, vec![9], vec![0]).is_none());
        // Not ascending / duplicate.
        assert!(FrameDelta::from_parts(4, 4, vec![2, 1], vec![0, 3]).is_none());
        assert!(FrameDelta::from_parts(4, 4, vec![1, 1], vec![0, 3]).is_none());
        // Too many removals.
        assert!(FrameDelta::from_parts(1, 3, vec![0, 1], vec![0, 1, 2, 3]).is_none());
    }

    #[test]
    fn verify_rejects_wrong_deltas() {
        let old = pts(&[1.0, 2.0, 3.0]);
        let new = pts(&[1.0, 9.0, 3.0]);
        // Claims identity over different frames: survivor 1 moved.
        let id = FrameDelta::from_parts(3, 3, vec![], vec![]).unwrap();
        assert_eq!(
            id.verify(&old, &new),
            Err(DeltaError::PositionMismatch {
                old_index: 1,
                new_index: 1
            })
        );
        // Wrong lengths, reported per side.
        let d = FrameDelta::diff(&old, &new);
        assert_eq!(
            d.verify(&old[..2], &new),
            Err(DeltaError::OldLenMismatch {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            d.verify(&old, &new[..2]),
            Err(DeltaError::NewLenMismatch {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn diff_agrees_with_from_parts_on_append_only_churn() {
        let old = pts(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        // Remove indices 1 and 3, append two fresh points.
        let new = pts(&[1.0, 3.0, 5.0, 7.0, 8.0]);
        let a = FrameDelta::diff(&old, &new);
        let b = FrameDelta::from_parts(5, 5, vec![1, 3], vec![3, 4]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn compose_matches_direct_diff() {
        let f0 = pts(&[1.0, 2.0, 3.0, 4.0]);
        let f1 = pts(&[1.0, 3.0, 4.0, 9.0]); // drop 2.0, append 9.0
        let f2 = pts(&[3.0, 4.0, 9.0, 7.0]); // drop 1.0, append 7.0
        let a = FrameDelta::diff(&f0, &f1);
        let b = FrameDelta::diff(&f1, &f2);
        let spliced = a.compose(&b).unwrap();
        assert_eq!(spliced, FrameDelta::diff(&f0, &f2));
        assert!(spliced.verify(&f0, &f2).is_ok());
    }

    #[test]
    fn compose_chains_three_hops_and_rejects_length_mismatch() {
        let f0 = pts(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let f1 = pts(&[1.0, 3.0, 4.0, 5.0]);
        let f2 = pts(&[0.5, 1.0, 4.0, 5.0, 8.0]);
        let f3 = pts(&[0.5, 4.0, 8.0, 6.0, 6.5]);
        let d01 = FrameDelta::diff(&f0, &f1);
        let d12 = FrameDelta::diff(&f1, &f2);
        let d23 = FrameDelta::diff(&f2, &f3);
        let spliced = d01.compose(&d12).unwrap().compose(&d23).unwrap();
        assert!(spliced.verify(&f0, &f3).is_ok());
        assert_eq!(spliced, FrameDelta::diff(&f0, &f3));
        // Deltas that do not chain are rejected.
        assert!(d01.compose(&d23).is_none());
    }

    #[test]
    fn compose_with_identity_is_identity_of_composition() {
        let f0 = pts(&[1.0, 2.0, 3.0]);
        let f1 = pts(&[1.0, 3.0, 5.0]);
        let d = FrameDelta::diff(&f0, &f1);
        let id_old = FrameDelta::diff(&f0, &f0);
        let id_new = FrameDelta::diff(&f1, &f1);
        assert_eq!(id_old.compose(&d).unwrap(), d);
        assert_eq!(d.compose(&id_new).unwrap(), d);
    }

    #[test]
    fn apply_reconstructs_the_new_frame() {
        let old = pts(&[1.0, 2.0, 3.0, 4.0]);
        let new = pts(&[1.0, 7.0, 3.0, 4.0, 8.0]);
        let d = FrameDelta::diff(&old, &new);
        let inserted: Vec<Point3> = d.inserted().iter().map(|&i| new[i as usize]).collect();
        assert_eq!(d.apply(&old, &inserted).unwrap(), new);
        // Length mismatches are rejected.
        assert!(d.apply(&old[..3], &inserted).is_none());
        assert!(d.apply(&old, &inserted[..1]).is_none());
    }
}
