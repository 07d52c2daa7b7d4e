//! Fault-tolerant delta-frame session protocol and deadline-aware
//! graceful degradation.
//!
//! # The protocol
//!
//! Delta frames cross the (possibly faulty, see [`crate::faults`]) link as
//! sequence-numbered, checksummed messages ([`FrameMessage`]): a delta
//! message carries the [`FrameDelta`] parts plus the inserted positions and
//! the [`geometry_digest`] of the frame it reconstructs; a keyframe message
//! carries the full positions. Every message ends in a 64-bit FNV-1a
//! checksum over its bytes, so truncation and bit corruption are detected
//! at decode time, and the geometry digest is re-checked after
//! reconstruction, so a message that decodes but reconstructs the wrong
//! frame (or applies against the wrong base) never reaches the SR engine.
//!
//! # The recovery ladder
//!
//! [`ResilientSession::advance`] climbs three rungs, cheapest first:
//!
//! 1. **Splice** — after a gap (dropped or mangled frames), the next
//!    request asks the server for one delta covering the whole gap, which
//!    the server builds with [`FrameDelta::compose`]. The session's
//!    incremental caches stay warm; only the churn of the spliced delta is
//!    recomputed.
//! 2. **Retransmit** — each request is retried up to
//!    [`RetryPolicy::max_retries`] times with exponential backoff, every
//!    round charged real link time plus the per-request timeout.
//! 3. **Keyframe resync** — when delta recovery keeps failing, the session
//!    requests the full frame, flushes every cross-frame cache
//!    ([`crate::client::SrSession::flush_caches`] — see the cache-flush
//!    invariants in `volut_core::interpolate::temporal`) and recomputes
//!    cold. Cold output depends only on the frame's own bits, so after at
//!    most one keyframe the session's output is bit-identical to a session
//!    that never saw a fault — the property the chaos suite asserts.
//!
//! # Deadline-aware degradation
//!
//! [`DegradationController`] is a five-level state machine (full →
//! skip-refinement → reduced-ratio → interpolate-only → passthrough) with
//! hysteresis: it degrades when the [`SrComputeModel`]-predicted compute
//! time overruns the frame budget for `degrade_after` consecutive frames,
//! and recovers one level only after `recover_after` consecutive frames fit
//! the *higher* level within a safety margin. The streaming simulator
//! consults it per chunk and folds the level's quality factor into QoE, so
//! deadline misses trade off visibly against quality instead of silently
//! stalling playback.
//!
//! [`geometry_digest`]: volut_pointcloud::cloud::geometry_digest
//! [`SrComputeModel`]: crate::client::SrComputeModel

use std::collections::VecDeque;

use crate::chunk::Chunk;
use crate::client::{SrComputeModel, SrSession};
use crate::faults::Transport;
use crate::{Error, Result};
use rand::{Rng, SeedableRng, StdRng};
use serde::{Deserialize, Serialize};
use volut_core::device::DeviceProfile;
use volut_core::pipeline::SrResult;
use volut_core::SrPipeline;
use volut_pointcloud::cloud::geometry_digest;
use volut_pointcloud::{Color, FrameDelta, Point3, PointCloud};

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Message kind tag for a full-frame (keyframe) payload.
const KIND_KEYFRAME: u8 = 0;
/// Message kind tag for a delta payload.
const KIND_DELTA: u8 = 1;

/// FNV-1a-style hash over a byte slice — the payload checksum. Not
/// cryptographic: the adversary here is the fault injector's random bit
/// flips and truncations, not a forger. The multiplier is 2^44 + 0x1b3,
/// not the FNV-64 prime 2^40 + 0x1b3 that the server's session digest
/// uses; the checksum is part of the wire format, so it stays as is.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point3) {
    put_u32(out, p.x.to_bits());
    put_u32(out, p.y.to_bits());
    put_u32(out, p.z.to_bits());
}

/// Cursor-style reader over a received byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn point(&mut self) -> Option<Point3> {
        Some(Point3::new(
            f32::from_bits(self.u32()?),
            f32::from_bits(self.u32()?),
            f32::from_bits(self.u32()?),
        ))
    }

    fn color(&mut self) -> Option<Color> {
        Some(Color::new(self.u8()?, self.u8()?, self.u8()?))
    }
}

fn put_colors(out: &mut Vec<u8>, colors: &Option<Vec<Color>>) {
    match colors {
        Some(cs) => {
            out.push(1);
            for c in cs {
                out.extend_from_slice(&[c.r, c.g, c.b]);
            }
        }
        None => out.push(0),
    }
}

/// Reads the optional color block that follows `count` points.
fn read_colors(
    r: &mut Reader<'_>,
    count: usize,
) -> std::result::Result<Option<Vec<Color>>, DecodeError> {
    match r.u8().ok_or(DecodeError::Malformed)? {
        0 => Ok(None),
        1 => {
            let mut colors = Vec::with_capacity(count);
            for _ in 0..count {
                colors.push(r.color().ok_or(DecodeError::Malformed)?);
            }
            Ok(Some(colors))
        }
        _ => Err(DecodeError::Malformed),
    }
}

/// Builds a point cloud from reconstructed positions and optional colors
/// (lengths validated by the caller before reconstruction).
fn build_cloud(positions: Vec<Point3>, colors: Option<Vec<Color>>) -> PointCloud {
    match colors {
        Some(c) => PointCloud::from_positions_and_colors(positions, c)
            .expect("color count validated before reconstruction"),
        None => PointCloud::from_positions(positions),
    }
}

/// Why a received payload was rejected before reaching the SR engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload is shorter than the fixed header + checksum.
    TooShort,
    /// The trailing FNV-1a checksum does not match the payload bytes
    /// (truncation or bit corruption in transit).
    BadChecksum,
    /// The payload decodes but its structure is inconsistent (bad kind
    /// tag, counts that do not add up, a delta that fails
    /// [`FrameDelta::parts_are_consistent`]).
    Malformed,
}

/// Body of one protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum MessageBody {
    /// A full frame: positions plus their [`geometry_digest`].
    Keyframe {
        /// The frame's positions.
        positions: Vec<Point3>,
        /// Per-point colors, when the stream carries them.
        colors: Option<Vec<Color>>,
        /// Digest of `positions` (re-checked after decode).
        digest: u64,
    },
    /// A delta from the frame at `base_seq` to this message's sequence
    /// number, as the parts of a [`FrameDelta::from_parts`] call. Survivor
    /// attributes ride the survivor map on the receiver; only the inserted
    /// points travel. The map has one slot per base point, so the receiver
    /// builds it only once `old_len` matches the base it holds: a wire
    /// length alone never sizes an allocation.
    Delta {
        /// Sequence number of the frame this delta applies to.
        base_seq: u64,
        /// Point count of the base frame.
        old_len: usize,
        /// Point count of the reconstructed frame.
        new_len: usize,
        /// Removed base-frame indices, ascending.
        removed: Vec<u32>,
        /// New-frame indices of the inserted points, ascending.
        inserted_ids: Vec<u32>,
        /// Positions of the inserted points, in `inserted_ids` order.
        inserted: Vec<Point3>,
        /// Colors of the inserted points, when the stream carries colors.
        inserted_colors: Option<Vec<Color>>,
        /// Digest of the *reconstructed* frame's positions.
        digest: u64,
    },
}

/// One sequence-numbered protocol message.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMessage {
    /// Sequence number (frame index) this message produces.
    pub seq: u64,
    /// Keyframe or delta body.
    pub body: MessageBody,
}

impl FrameMessage {
    /// Encodes the message with its trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.seq);
        match &self.body {
            MessageBody::Keyframe {
                positions,
                colors,
                digest,
            } => {
                out.push(KIND_KEYFRAME);
                put_u32(&mut out, positions.len() as u32);
                for &p in positions {
                    put_point(&mut out, p);
                }
                put_colors(&mut out, colors);
                put_u64(&mut out, *digest);
            }
            MessageBody::Delta {
                base_seq,
                old_len,
                new_len,
                removed,
                inserted_ids,
                inserted,
                inserted_colors,
                digest,
            } => {
                out.push(KIND_DELTA);
                put_u64(&mut out, *base_seq);
                put_u32(&mut out, *old_len as u32);
                put_u32(&mut out, *new_len as u32);
                put_u32(&mut out, removed.len() as u32);
                put_u32(&mut out, inserted_ids.len() as u32);
                for &i in removed {
                    put_u32(&mut out, i);
                }
                for &i in inserted_ids {
                    put_u32(&mut out, i);
                }
                for &p in inserted {
                    put_point(&mut out, p);
                }
                put_colors(&mut out, inserted_colors);
                put_u64(&mut out, *digest);
            }
        }
        let checksum = fnv1a64(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes and integrity-checks a received payload.
    ///
    /// # Errors
    /// [`DecodeError::TooShort`] / [`DecodeError::BadChecksum`] for
    /// payloads mangled in transit, [`DecodeError::Malformed`] for
    /// structurally inconsistent ones.
    pub fn decode(bytes: &[u8]) -> std::result::Result<FrameMessage, DecodeError> {
        // seq + kind + checksum is the smallest possible message.
        if bytes.len() < 8 + 1 + 8 {
            return Err(DecodeError::TooShort);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let claimed = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a64(body) != claimed {
            return Err(DecodeError::BadChecksum);
        }
        let mut r = Reader::new(body);
        let seq = r.u64().ok_or(DecodeError::Malformed)?;
        let kind = r.u8().ok_or(DecodeError::Malformed)?;
        let body = match kind {
            KIND_KEYFRAME => {
                let count = r.u32().ok_or(DecodeError::Malformed)? as usize;
                // Bound the allocation by what the payload can hold.
                if body.len() < 13 + count * 12 + 9 {
                    return Err(DecodeError::Malformed);
                }
                let mut positions = Vec::with_capacity(count);
                for _ in 0..count {
                    positions.push(r.point().ok_or(DecodeError::Malformed)?);
                }
                let colors = read_colors(&mut r, count)?;
                let digest = r.u64().ok_or(DecodeError::Malformed)?;
                MessageBody::Keyframe {
                    positions,
                    colors,
                    digest,
                }
            }
            KIND_DELTA => {
                let base_seq = r.u64().ok_or(DecodeError::Malformed)?;
                let old_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                let new_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                let removed_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                let inserted_len = r.u32().ok_or(DecodeError::Malformed)? as usize;
                if body.len() < 33 + (removed_len + inserted_len) * 4 + inserted_len * 12 + 9 {
                    return Err(DecodeError::Malformed);
                }
                let mut removed = Vec::with_capacity(removed_len);
                for _ in 0..removed_len {
                    removed.push(r.u32().ok_or(DecodeError::Malformed)?);
                }
                let mut inserted_ids = Vec::with_capacity(inserted_len);
                for _ in 0..inserted_len {
                    inserted_ids.push(r.u32().ok_or(DecodeError::Malformed)?);
                }
                let mut inserted = Vec::with_capacity(inserted_len);
                for _ in 0..inserted_len {
                    inserted.push(r.point().ok_or(DecodeError::Malformed)?);
                }
                let inserted_colors = read_colors(&mut r, inserted_len)?;
                let digest = r.u64().ok_or(DecodeError::Malformed)?;
                if !FrameDelta::parts_are_consistent(old_len, new_len, &removed, &inserted_ids) {
                    return Err(DecodeError::Malformed);
                }
                MessageBody::Delta {
                    base_seq,
                    old_len,
                    new_len,
                    removed,
                    inserted_ids,
                    inserted,
                    inserted_colors,
                    digest,
                }
            }
            _ => return Err(DecodeError::Malformed),
        };
        Ok(FrameMessage { seq, body })
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Bound on the history a [`DeltaServer`] retains. A long-running origin
/// cannot keep every frame forever; once either limit is exceeded the
/// oldest frames (and their deltas) are dropped. Gap requests whose base
/// has fallen out of the window return `None` from
/// [`DeltaServer::delta_message`], which the recovery ladder answers with
/// a keyframe resync — retention never breaks recovery, it only changes
/// which rung serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Maximum number of retained frames (at least 1 is always kept).
    pub max_frames: usize,
    /// Maximum retained payload bytes (positions + colors + delta parts).
    pub max_bytes: u64,
}

impl RetentionPolicy {
    /// No bounds: every frame is retained (the pre-retention behavior).
    pub fn unbounded() -> Self {
        Self {
            max_frames: usize::MAX,
            max_bytes: u64::MAX,
        }
    }

    /// Keep at most `n` frames, with no byte bound.
    pub fn last_frames(n: usize) -> Self {
        Self {
            max_frames: n.max(1),
            max_bytes: u64::MAX,
        }
    }
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Estimated wire-side bytes of one retained frame (positions + colors).
fn frame_bytes(frame: &PointCloud) -> u64 {
    let n = frame.len() as u64;
    n * 12 + if frame.colors().is_some() { n * 3 } else { 0 }
}

/// Estimated bytes of one retained delta (removal + insertion indices).
fn delta_bytes(delta: &FrameDelta) -> u64 {
    (delta.removed().len() as u64 + delta.inserted().len() as u64) * 4 + 16
}

/// The sender side of the delta-stream protocol: holds a frame sequence and
/// serves keyframes, single-step deltas, and gap-spanning deltas spliced
/// with [`FrameDelta::compose`]. History is bounded by a
/// [`RetentionPolicy`]: frames older than the window are dropped and any
/// delta request based on them falls back to a keyframe.
#[derive(Debug, Clone)]
pub struct DeltaServer {
    frames: VecDeque<PointCloud>,
    /// `deltas[i]`: frame `base_seq + i` → frame `base_seq + i + 1`.
    deltas: VecDeque<FrameDelta>,
    /// Sequence number of the oldest retained frame.
    base_seq: u64,
    retention: RetentionPolicy,
    /// Running estimate of retained payload bytes (frames + deltas).
    retained_bytes: u64,
}

impl DeltaServer {
    /// Builds an unbounded server over a frame sequence, diffing
    /// consecutive frames.
    pub fn new(frames: Vec<PointCloud>) -> Self {
        Self::with_retention(frames, RetentionPolicy::unbounded())
    }

    /// Builds a server over a frame sequence with a retention bound
    /// (enforced immediately, so an over-bound seed sequence is trimmed to
    /// its newest frames).
    pub fn with_retention(frames: Vec<PointCloud>, retention: RetentionPolicy) -> Self {
        let deltas: VecDeque<FrameDelta> = frames
            .windows(2)
            .map(|w| FrameDelta::diff(w[0].positions(), w[1].positions()))
            .collect();
        let retained_bytes = frames.iter().map(frame_bytes).sum::<u64>()
            + deltas.iter().map(delta_bytes).sum::<u64>();
        let mut server = Self {
            frames: frames.into(),
            deltas,
            base_seq: 0,
            retention,
            retained_bytes,
        };
        server.enforce_retention();
        server
    }

    /// Appends the next frame, diffing it against the newest retained one,
    /// then enforces the retention bound.
    pub fn push_frame(&mut self, frame: PointCloud) {
        let delta = self
            .frames
            .back()
            .map(|last| FrameDelta::diff(last.positions(), frame.positions()));
        self.push_frame_inner(frame, delta);
    }

    /// Appends the next frame with a precomputed delta from the current
    /// newest frame (e.g. straight from the capture pipeline), skipping the
    /// diff. The delta is trusted — receivers re-verify every reconstructed
    /// frame against its digest anyway, so a wrong delta is detected at the
    /// edge, not here.
    pub fn push_frame_with_delta(&mut self, frame: PointCloud, delta: FrameDelta) {
        let delta = self.frames.back().map(|_| delta);
        self.push_frame_inner(frame, delta);
    }

    fn push_frame_inner(&mut self, frame: PointCloud, delta: Option<FrameDelta>) {
        if let Some(delta) = delta {
            self.retained_bytes += delta_bytes(&delta);
            self.deltas.push_back(delta);
        }
        self.retained_bytes += frame_bytes(&frame);
        self.frames.push_back(frame);
        self.enforce_retention();
    }

    /// Drops oldest frames until both retention bounds hold (always keeps
    /// at least one frame so the stream head stays servable).
    fn enforce_retention(&mut self) {
        while self.frames.len() > 1
            && (self.frames.len() > self.retention.max_frames
                || self.retained_bytes > self.retention.max_bytes)
        {
            if let Some(frame) = self.frames.pop_front() {
                self.retained_bytes -= frame_bytes(&frame);
            }
            if let Some(delta) = self.deltas.pop_front() {
                self.retained_bytes -= delta_bytes(&delta);
            }
            self.base_seq += 1;
        }
    }

    /// Total frames the stream has produced (retained or dropped): the
    /// next pushed frame gets sequence number `frame_count()`.
    pub fn frame_count(&self) -> usize {
        self.base_seq as usize + self.frames.len()
    }

    /// Sequence number of the oldest frame still retained.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Number of frames currently retained.
    pub fn retained_frames(&self) -> usize {
        self.frames.len()
    }

    /// Estimated bytes of retained history (frame payloads + delta parts).
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes
    }

    /// The true frame at `seq` (ground truth for bit-identity checks).
    /// `None` once it has aged out of the retention window.
    pub fn frame(&self, seq: u64) -> Option<&PointCloud> {
        self.frames.get(seq.checked_sub(self.base_seq)? as usize)
    }

    /// Encodes the keyframe message for `seq`. Returns `None` past the end
    /// of the sequence or behind the retention window.
    pub fn keyframe_message(&self, seq: u64) -> Option<Vec<u8>> {
        let frame = self.frame(seq)?;
        let positions = frame.positions().to_vec();
        let colors = frame.colors().map(<[Color]>::to_vec);
        let digest = geometry_digest(&positions);
        Some(
            FrameMessage {
                seq,
                body: MessageBody::Keyframe {
                    positions,
                    colors,
                    digest,
                },
            }
            .encode(),
        )
    }

    /// Encodes a delta message from `base_seq` to `seq`, splicing the
    /// intermediate single-step deltas with [`FrameDelta::compose`] when
    /// the gap spans more than one frame. Returns `None` when the range is
    /// out of bounds, inverted, or starts before the retention window (the
    /// caller falls back to [`Self::keyframe_message`]).
    pub fn delta_message(&self, base_seq: u64, seq: u64) -> Option<Vec<u8>> {
        let from = base_seq.checked_sub(self.base_seq)? as usize;
        let to = seq.checked_sub(self.base_seq)? as usize;
        if from >= to || to >= self.frames.len() {
            return None;
        }
        let mut delta = self.deltas[from].clone();
        for step in self.deltas.iter().skip(from + 1).take(to - from - 1) {
            delta = delta.compose(step)?;
        }
        let target = self.frames[to].positions();
        let inserted: Vec<Point3> = delta
            .inserted()
            .iter()
            .map(|&i| target[i as usize])
            .collect();
        let inserted_colors = self.frames[to].colors().map(|cs| {
            delta
                .inserted()
                .iter()
                .map(|&i| cs[i as usize])
                .collect::<Vec<Color>>()
        });
        let digest = geometry_digest(target);
        Some(
            FrameMessage {
                seq,
                body: MessageBody::Delta {
                    base_seq,
                    old_len: delta.old_len(),
                    new_len: delta.new_len(),
                    removed: delta.removed().to_vec(),
                    inserted_ids: delta.inserted().to_vec(),
                    inserted,
                    inserted_colors,
                    digest,
                },
            }
            .encode(),
        )
    }
}

// ---------------------------------------------------------------------------
// Robustness telemetry
// ---------------------------------------------------------------------------

/// Robustness telemetry of a resilient session (and, for the last two
/// fields, of the simulator's degradation controller).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RobustnessStats {
    /// Frames successfully delivered to the SR engine.
    pub frames: u64,
    /// Frames that needed no recovery at all.
    pub clean_frames: u64,
    /// Request rounds that produced no usable message (drop or mangled
    /// beyond decoding) — the receiver-side view of link loss.
    pub drops_seen: u64,
    /// Payloads rejected by checksum/digest/structure checks.
    pub integrity_failures: u64,
    /// Stale or duplicate arrivals ignored (old sequence numbers).
    pub stale_ignored: u64,
    /// Retransmission rounds performed (backoff included).
    pub retries: u64,
    /// Frames recovered by splicing a gap delta ([`FrameDelta::compose`]).
    pub recovered_compose: u64,
    /// Frames recovered by plain retransmission of the same request.
    pub recovered_retransmit: u64,
    /// Frames recovered by a full keyframe resync (cache flush + cold
    /// recompute).
    pub recovered_keyframe: u64,
    /// Externally declared deltas the SR engine rejected on verification —
    /// attempted cache poisonings that were detected (never served).
    pub poisonings_detected: u64,
    /// Chunks/frames whose compute overran their deadline budget.
    pub deadline_misses: u64,
    /// Chunks/frames spent at each degradation level, `Full` first.
    pub degradation_residency: [u64; 5],
}

impl RobustnessStats {
    /// Deadline misses as a fraction of the frames/chunks processed.
    pub fn deadline_miss_rate(&self) -> f64 {
        let total: u64 = self.degradation_residency.iter().sum();
        let denom = if total > 0 { total } else { self.frames };
        if denom == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / denom as f64
        }
    }

    /// Total recoveries across all kinds.
    pub fn recoveries(&self) -> u64 {
        self.recovered_compose + self.recovered_retransmit + self.recovered_keyframe
    }

    /// Adds `current - prev` into `self`, field-wise — the per-tick rollup
    /// primitive the multi-tenant server uses to merge each tenant's
    /// monotonically growing counters into the aggregate without keeping
    /// the frame path locked or rescanning history.
    pub fn add_delta(&mut self, current: &Self, prev: &Self) {
        self.frames += current.frames - prev.frames;
        self.clean_frames += current.clean_frames - prev.clean_frames;
        self.drops_seen += current.drops_seen - prev.drops_seen;
        self.integrity_failures += current.integrity_failures - prev.integrity_failures;
        self.stale_ignored += current.stale_ignored - prev.stale_ignored;
        self.retries += current.retries - prev.retries;
        self.recovered_compose += current.recovered_compose - prev.recovered_compose;
        self.recovered_retransmit += current.recovered_retransmit - prev.recovered_retransmit;
        self.recovered_keyframe += current.recovered_keyframe - prev.recovered_keyframe;
        self.poisonings_detected += current.poisonings_detected - prev.poisonings_detected;
        self.deadline_misses += current.deadline_misses - prev.deadline_misses;
        for (acc, (cur, old)) in self.degradation_residency.iter_mut().zip(
            current
                .degradation_residency
                .iter()
                .zip(prev.degradation_residency.iter()),
        ) {
            *acc += cur - old;
        }
    }
}

// ---------------------------------------------------------------------------
// Resilient session
// ---------------------------------------------------------------------------

/// Retry/backoff/timeout policy of the resilient session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retransmission rounds per rung of the recovery ladder.
    pub max_retries: u32,
    /// Backoff before retry `r` is `base_backoff_s * 2^r` seconds.
    pub base_backoff_s: f64,
    /// Time charged for a request round that produces no usable reply.
    pub timeout_s: f64,
    /// Backoff jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// factor drawn uniformly from `[1 - jitter, 1 + jitter]` out of the
    /// receiver's seeded RNG. Zero (the default) keeps the classic
    /// deterministic schedule; a shared-burst deployment sets it non-zero
    /// so co-tenant retransmits de-correlate instead of re-colliding in
    /// lockstep — still reproducible, because the draw is seeded.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff_s: 0.02,
            timeout_s: 0.15,
            jitter: 0.0,
        }
    }
}

/// How a recovered frame made it through the ladder — drives the
/// per-kind recovery counters when the frame is committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// First-try single-step delta (or the very first keyframe of a cold
    /// start): no recovery happened.
    Clean,
    /// A gap-spanning delta spliced with [`FrameDelta::compose`].
    Compose,
    /// A plain retransmission of the same request succeeded.
    Retransmit,
    /// Full keyframe resync: the caller must flush caches and recompute
    /// cold.
    Keyframe,
}

/// One frame recovered off the wire by [`ResilientReceiver::recover`],
/// verified (checksum + digest) but not yet upsampled or committed. When
/// `delta` is `Some` the caller may feed it to the SR engine's incremental
/// path; when `None` (keyframe / cold start) the caller must flush
/// cross-frame caches and recompute cold.
#[derive(Debug, Clone)]
pub struct RecoveredFrame {
    /// Reconstructed, digest-verified positions of the frame.
    pub positions: Vec<Point3>,
    /// Reconstructed colors, when the stream carries them.
    pub colors: Option<Vec<Color>>,
    /// The structural delta from the receiver's previous frame, for the
    /// incremental SR path; `None` means cold recompute.
    pub delta: Option<FrameDelta>,
    /// Which rung of the ladder produced the frame.
    pub kind: RecoveryKind,
}

impl RecoveredFrame {
    /// Builds the point cloud for the SR engine.
    pub fn cloud(&self) -> PointCloud {
        build_cloud(self.positions.clone(), self.colors.clone())
    }
}

/// Receiver-side protocol state of the resilient delta stream, decoupled
/// from the SR engine so a server tenant (which owns its own
/// [`SrSession`] and degradation machinery) can run the same recovery
/// ladder as the standalone [`ResilientSession`]. Owns the last good
/// sequence number, the reconstructed current frame (the delta base), the
/// session clock (link time + backoff + timeouts), the seeded backoff
/// jitter RNG, and the robustness counters.
///
/// The flow is recover → upsample → commit: [`Self::recover`] climbs the
/// ladder and returns a verified [`RecoveredFrame`]; the caller upsamples
/// it (flushing caches first when `delta` is `None`); on success the
/// caller hands the frame back to [`Self::commit`], which stores the new
/// delta base and counts the recovery. An upsample error leaves the
/// receiver uncommitted, exactly as the pre-split session behaved.
#[derive(Debug, Clone)]
pub struct ResilientReceiver {
    policy: RetryPolicy,
    /// Sequence number of the last frame delivered to the SR engine.
    last_seq: Option<u64>,
    /// Reconstructed positions of that frame (the delta base).
    positions: Vec<Point3>,
    /// Reconstructed colors of that frame, when the stream carries them.
    colors: Option<Vec<Color>>,
    clock_s: f64,
    stats: RobustnessStats,
    /// Seeded RNG for backoff jitter (only consulted when
    /// [`RetryPolicy::jitter`] is non-zero).
    jitter_rng: StdRng,
}

impl ResilientReceiver {
    /// Creates a receiver with the given policy; `seed` drives the backoff
    /// jitter draws (unused while [`RetryPolicy::jitter`] is zero).
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Self {
            policy,
            last_seq: None,
            positions: Vec::new(),
            colors: None,
            clock_s: 0.0,
            stats: RobustnessStats::default(),
            jitter_rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Robustness counters so far.
    pub fn stats(&self) -> RobustnessStats {
        self.stats
    }

    /// The session clock: link time + backoff + timeouts accrued so far.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Sequence number of the last committed frame.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Fetches frame `seq` over the (faulty) link, climbing the recovery
    /// ladder as needed (see the module docs), and returns the verified
    /// frame for the caller to upsample and [`commit`](Self::commit).
    ///
    /// # Errors
    /// [`Error::Transport`] when even the keyframe rung fails after all
    /// retries (the link is effectively down); [`Error::NotFound`] when
    /// the origin no longer serves `seq` at all.
    pub fn recover(
        &mut self,
        server: &DeltaServer,
        link: &mut impl Transport,
        seq: u64,
    ) -> Result<RecoveredFrame> {
        // Rung 1 + 2: delta requests (spliced over any gap), retried with
        // backoff. Skipped when there is no base frame yet.
        let base = self.last_seq.filter(|&b| b < seq);
        if let Some(base_seq) = base {
            for round in 0..=self.policy.max_retries {
                self.backoff(round);
                let Some(request) = server.delta_message(base_seq, seq) else {
                    // Out of retention (or out of range): resync below.
                    break;
                };
                match self.exchange(link, &request, seq) {
                    Some(FrameMessage {
                        body:
                            MessageBody::Delta {
                                base_seq: got_base,
                                old_len,
                                new_len,
                                removed,
                                inserted_ids,
                                inserted,
                                inserted_colors,
                                digest,
                            },
                        ..
                    }) if got_base == base_seq => {
                        // The survivor map is sized by `old_len`: build it
                        // only for a delta that fits the base held here.
                        let delta = if old_len == self.positions.len() {
                            FrameDelta::from_parts(old_len, new_len, removed, inserted_ids)
                        } else {
                            None
                        };
                        let new_positions = delta
                            .as_ref()
                            .and_then(|d| d.apply(&self.positions, &inserted));
                        let (Some(delta), Some(new_positions)) = (delta, new_positions) else {
                            // Structurally valid but inapplicable: our base
                            // diverged from the server's. Resync below.
                            self.stats.integrity_failures += 1;
                            break;
                        };
                        if geometry_digest(&new_positions) != digest {
                            self.stats.integrity_failures += 1;
                            continue;
                        }
                        // Survivor colors ride the survivor map; a color
                        // presence mismatch means base divergence.
                        let new_colors = match (&self.colors, &inserted_colors) {
                            (Some(base), Some(ins)) => match delta.apply(base, ins) {
                                Some(c) => Some(c),
                                None => {
                                    self.stats.integrity_failures += 1;
                                    break;
                                }
                            },
                            (None, None) => None,
                            _ => {
                                self.stats.integrity_failures += 1;
                                break;
                            }
                        };
                        let kind = if seq - base_seq > 1 {
                            RecoveryKind::Compose
                        } else if round > 0 {
                            RecoveryKind::Retransmit
                        } else {
                            RecoveryKind::Clean
                        };
                        return Ok(RecoveredFrame {
                            positions: new_positions,
                            colors: new_colors,
                            delta: Some(delta),
                            kind,
                        });
                    }
                    Some(_) => {
                        // A message for the right seq but the wrong shape or
                        // base: fall through to the keyframe rung.
                        self.stats.integrity_failures += 1;
                        break;
                    }
                    None => continue,
                }
            }
        }

        // Rung 3: keyframe resync (also the cold start path).
        for round in 0..=self.policy.max_retries {
            self.backoff(round);
            let request = server
                .keyframe_message(seq)
                .ok_or_else(|| Error::NotFound(format!("frame {seq}")))?;
            match self.exchange(link, &request, seq) {
                Some(FrameMessage {
                    body:
                        MessageBody::Keyframe {
                            positions,
                            colors,
                            digest,
                        },
                    ..
                }) => {
                    if geometry_digest(&positions) != digest {
                        self.stats.integrity_failures += 1;
                        continue;
                    }
                    if colors.as_ref().is_some_and(|c| c.len() != positions.len()) {
                        self.stats.integrity_failures += 1;
                        continue;
                    }
                    let cold_start = self.last_seq.is_none() && seq == 0;
                    return Ok(RecoveredFrame {
                        positions,
                        colors,
                        delta: None,
                        kind: if cold_start {
                            RecoveryKind::Clean
                        } else {
                            RecoveryKind::Keyframe
                        },
                    });
                }
                Some(_) => {
                    self.stats.integrity_failures += 1;
                    continue;
                }
                None => continue,
            }
        }
        Err(Error::Transport(format!(
            "frame {seq}: all recovery rungs exhausted after {} retries",
            self.policy.max_retries
        )))
    }

    /// Commits an upsampled frame: stores it as the new delta base,
    /// advances `last_seq`, and counts the recovery kind. Call only after
    /// the SR engine accepted the frame.
    pub fn commit(&mut self, frame: RecoveredFrame, seq: u64) {
        self.positions = frame.positions;
        self.colors = frame.colors;
        self.last_seq = Some(seq);
        self.stats.frames += 1;
        match frame.kind {
            RecoveryKind::Clean => self.stats.clean_frames += 1,
            RecoveryKind::Compose => self.stats.recovered_compose += 1,
            RecoveryKind::Retransmit => self.stats.recovered_retransmit += 1,
            RecoveryKind::Keyframe => self.stats.recovered_keyframe += 1,
        }
    }

    /// Records that the SR engine rejected a committed delta on
    /// verification (attempted cache poisoning, detected and never
    /// served).
    pub fn note_poisoning(&mut self) {
        self.stats.poisonings_detected += 1;
    }

    /// One request/response round: transmits, charges link time, and
    /// returns the first arrival that decodes to the wanted sequence
    /// number. Counts drops, integrity failures and stale arrivals; charges
    /// the timeout when nothing usable arrives.
    fn exchange(
        &mut self,
        link: &mut impl Transport,
        request: &[u8],
        want_seq: u64,
    ) -> Option<FrameMessage> {
        let transfer = link.transmit(request, self.clock_s);
        self.clock_s += transfer.time_s;
        let mut found = None;
        let dropped = transfer.arrivals.is_empty();
        for arrival in &transfer.arrivals {
            match FrameMessage::decode(arrival) {
                Ok(msg) if msg.seq == want_seq && found.is_none() => found = Some(msg),
                Ok(msg) if msg.seq == want_seq => self.stats.stale_ignored += 1,
                Ok(_) => self.stats.stale_ignored += 1,
                Err(_) => self.stats.integrity_failures += 1,
            }
        }
        if found.is_none() {
            if dropped {
                self.stats.drops_seen += 1;
            }
            self.clock_s += self.policy.timeout_s;
        }
        found
    }

    /// Charges the exponential backoff before retry `round` (no charge for
    /// the first attempt) and counts it. With a non-zero
    /// [`RetryPolicy::jitter`] the charge is scaled by a seeded uniform
    /// factor in `[1 - jitter, 1 + jitter]`.
    fn backoff(&mut self, round: u32) {
        if round > 0 {
            let mut step = self.policy.base_backoff_s * f64::from(1u32 << (round - 1).min(16));
            let jitter = self.policy.jitter.clamp(0.0, 1.0);
            if jitter > 0.0 {
                let u: f64 = self.jitter_rng.random();
                step *= 1.0 + jitter * (2.0 * u - 1.0);
            }
            self.clock_s += step;
            self.stats.retries += 1;
        }
    }
}

/// The pipeline a [`FrameStep`] runs one frame through.
pub(crate) enum Engine<'a> {
    /// The session's own pipeline ([`DegradationLevel::Full`]).
    Own,
    /// A cheaper pipeline sharing the session's scratch (the middle
    /// degradation rungs).
    Degraded(&'a SrPipeline),
    /// No SR at all: the frame is served as received
    /// ([`DegradationLevel::Passthrough`]).
    Skip,
}

/// What [`FrameStep::run`] did with one frame.
pub(crate) struct StepOutcome {
    /// The upsampled frame; `None` when the engine skipped it.
    pub(crate) result: Option<volut_core::Result<SrResult>>,
    /// The engine rejected the declared delta (attempted cache poisoning).
    /// The output is still correct — the engine fell back to its own
    /// bitwise diff — and the caches were flushed, so the next frame
    /// recomputes cold.
    pub(crate) poisoned: bool,
}

/// The SR half of one delivered frame, shared by [`ResilientSession`] and
/// the server's tenants so the cache-flush and poisoning invariants live in
/// one place. Owns the [`SrSession`] and whether its cross-frame caches
/// describe the previous delivered frame.
#[derive(Debug)]
pub(crate) struct FrameStep {
    session: SrSession,
    /// Whether the session's cached state is the previous delivered frame.
    /// A declared delta reaches the engine only while this holds: after a
    /// skipped frame (the engine never saw it), an engine error or a flush,
    /// the engine's own diff relates the frames instead.
    synced: bool,
}

impl FrameStep {
    pub(crate) fn new(session: SrSession) -> Self {
        Self {
            session,
            synced: false,
        }
    }

    pub(crate) fn session(&self) -> &SrSession {
        &self.session
    }

    /// Upsamples one delivered frame through `engine`. `delta` is the
    /// change from the previous delivered frame; `None` (keyframe resync or
    /// cold start) first flushes every cross-frame cache, so the output
    /// depends only on this frame's bits — the invariant that makes
    /// recovery bit-identical. The caller counts a poisoning and commits
    /// the frame to its transport.
    pub(crate) fn run(
        &mut self,
        frame: &PointCloud,
        delta: Option<FrameDelta>,
        ratio: f64,
        engine: Engine<'_>,
    ) -> StepOutcome {
        if delta.is_none() {
            self.session.flush_caches();
            self.synced = false;
        }
        let declared = delta.filter(|_| self.synced);
        let was_declared = declared.is_some();
        let result = match engine {
            Engine::Own => Some(match declared {
                Some(d) => self.session.upsample_frame_delta(frame, ratio, d),
                None => self.session.upsample_frame(frame, ratio),
            }),
            Engine::Degraded(pipeline) => Some(
                self.session
                    .upsample_frame_via(pipeline, frame, ratio, declared),
            ),
            Engine::Skip => None,
        };
        self.synced = matches!(result, Some(Ok(_)));
        let poisoned = was_declared && self.session.last_delta_error().is_some();
        if poisoned {
            self.session.flush_caches();
            self.synced = false;
        }
        StepOutcome { result, poisoned }
    }
}

/// A fault-tolerant wrapper around [`SrSession`] implementing the recovery
/// ladder of the module docs: a [`ResilientReceiver`] for the protocol
/// state plus the SR engine that upsamples what it recovers.
#[derive(Debug)]
pub struct ResilientSession {
    step: FrameStep,
    receiver: ResilientReceiver,
}

impl ResilientSession {
    /// Wraps an SR session with the default retry policy.
    pub fn new(session: SrSession) -> Self {
        Self::with_policy(session, RetryPolicy::default())
    }

    /// Wraps an SR session with an explicit retry policy (jitter seed 0).
    pub fn with_policy(session: SrSession, policy: RetryPolicy) -> Self {
        Self::with_policy_seeded(session, policy, 0)
    }

    /// Wraps an SR session with an explicit retry policy and backoff
    /// jitter seed.
    pub fn with_policy_seeded(session: SrSession, policy: RetryPolicy, seed: u64) -> Self {
        Self {
            step: FrameStep::new(session),
            receiver: ResilientReceiver::new(policy, seed),
        }
    }

    /// The wrapped SR session.
    pub fn session(&self) -> &SrSession {
        self.step.session()
    }

    /// Robustness counters so far.
    pub fn stats(&self) -> RobustnessStats {
        self.receiver.stats()
    }

    /// The session clock: link time + backoff + timeouts accrued so far.
    pub fn clock_s(&self) -> f64 {
        self.receiver.clock_s()
    }

    /// Sequence number of the last successfully processed frame.
    pub fn last_seq(&self) -> Option<u64> {
        self.receiver.last_seq()
    }

    /// Fetches frame `seq` over the (faulty) link and upsamples it,
    /// climbing the recovery ladder as needed (see the module docs). On
    /// success the output is bit-identical to what a never-faulted session
    /// would produce for the same frame.
    ///
    /// # Errors
    /// [`Error::Transport`] when even the keyframe rung fails after all
    /// retries (the link is effectively down); SR-engine errors propagate.
    pub fn advance(
        &mut self,
        server: &DeltaServer,
        link: &mut impl Transport,
        seq: u64,
        ratio: f64,
    ) -> Result<SrResult> {
        let mut recovered = self.receiver.recover(server, link, seq)?;
        let delta = recovered.delta.take();
        let outcome = self.step.run(&recovered.cloud(), delta, ratio, Engine::Own);
        if outcome.poisoned {
            self.receiver.note_poisoning();
        }
        let result = outcome
            .result
            .expect("the session's own pipeline always runs")?;
        self.receiver.commit(recovered, seq);
        Ok(result)
    }
}

// ---------------------------------------------------------------------------
// Deadline-aware degradation
// ---------------------------------------------------------------------------

/// Graceful-degradation level, cheapest-quality-loss first. Each level
/// drops or shrinks pipeline stages; [`DegradationLevel::quality_factor`]
/// is the QoE-side price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// The full pipeline at the requested ratio.
    Full,
    /// Skip the refinement stage (LUT lookup / NN inference).
    SkipRefinement,
    /// Halve the upsampling factor (and still skip refinement).
    ReducedRatio,
    /// Interpolation only: no refinement, no colorization, halved ratio.
    InterpolateOnly,
    /// Pass the received points through untouched (no SR compute at all).
    Passthrough,
}

impl DegradationLevel {
    /// All levels, `Full` first — index order matches
    /// [`RobustnessStats::degradation_residency`].
    pub const ALL: [DegradationLevel; 5] = [
        DegradationLevel::Full,
        DegradationLevel::SkipRefinement,
        DegradationLevel::ReducedRatio,
        DegradationLevel::InterpolateOnly,
        DegradationLevel::Passthrough,
    ];

    /// Residency-array index of this level.
    pub fn index(self) -> usize {
        match self {
            DegradationLevel::Full => 0,
            DegradationLevel::SkipRefinement => 1,
            DegradationLevel::ReducedRatio => 2,
            DegradationLevel::InterpolateOnly => 3,
            DegradationLevel::Passthrough => 4,
        }
    }

    /// The SR ratio actually executed at this level.
    pub fn effective_ratio(self, ratio: f64) -> f64 {
        match self {
            DegradationLevel::Full | DegradationLevel::SkipRefinement => ratio,
            DegradationLevel::ReducedRatio | DegradationLevel::InterpolateOnly => {
                1.0 + (ratio - 1.0).max(0.0) * 0.5
            }
            DegradationLevel::Passthrough => 1.0,
        }
    }

    /// Multiplier applied to displayed quality at this level (the visible
    /// cost of degrading, folded into QoE).
    pub fn quality_factor(self) -> f64 {
        match self {
            DegradationLevel::Full => 1.0,
            DegradationLevel::SkipRefinement => 0.96,
            DegradationLevel::ReducedRatio => 0.85,
            DegradationLevel::InterpolateOnly => 0.65,
            DegradationLevel::Passthrough => 0.35,
        }
    }

    /// The compute model actually executed at this level: dropped stages
    /// are zeroed, so the live [`SrComputeModel`] budget arithmetic stays
    /// exact.
    pub fn adjusted_model(self, model: &SrComputeModel) -> SrComputeModel {
        let mut m = model.clone();
        match self {
            DegradationLevel::Full => {}
            DegradationLevel::SkipRefinement | DegradationLevel::ReducedRatio => {
                m.refine_us_per_output_point = 0.0;
            }
            DegradationLevel::InterpolateOnly => {
                m.refine_us_per_output_point = 0.0;
                m.colorize_us_per_output_point = 0.0;
            }
            DegradationLevel::Passthrough => {
                m.knn_us_per_input_point = 0.0;
                m.interp_us_per_output_point = 0.0;
                m.colorize_us_per_output_point = 0.0;
                m.refine_us_per_output_point = 0.0;
            }
        }
        m
    }

    /// Device-time (seconds) for one chunk at this level — the level-aware
    /// counterpart of [`SrComputeModel::chunk_time_on_device`].
    #[allow(clippy::too_many_arguments)]
    pub fn chunk_time_on_device(
        self,
        model: &SrComputeModel,
        chunk: &Chunk,
        fetch_density: f64,
        sr_ratio: f64,
        device: &DeviceProfile,
        nn_inference: bool,
    ) -> f64 {
        if self == DegradationLevel::Passthrough {
            return 0.0;
        }
        self.adjusted_model(model).chunk_time_on_device(
            chunk,
            fetch_density,
            self.effective_ratio(sr_ratio),
            device,
            nn_inference,
        )
    }
}

/// Hysteresis parameters of the [`DegradationController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Fraction of each chunk's playback duration available as compute
    /// budget (1.0 = real-time line rate).
    pub compute_budget_fraction: f64,
    /// Consecutive over-budget predictions before degrading.
    pub degrade_after: u32,
    /// Consecutive with-margin chunks before recovering one level.
    pub recover_after: u32,
    /// Recovery requires the *higher* level's predicted time to fit within
    /// this fraction of the budget (the hysteresis gap).
    pub recover_margin: f64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self {
            compute_budget_fraction: 1.0,
            degrade_after: 1,
            recover_after: 3,
            recover_margin: 0.7,
        }
    }
}

/// Deadline-aware degradation state machine: full → skip-refinement →
/// reduced-ratio → interpolate-only → passthrough, with hysteresis (see
/// the module docs and [`DegradationConfig`]).
#[derive(Debug, Clone)]
pub struct DegradationController {
    config: DegradationConfig,
    level: DegradationLevel,
    over_streak: u32,
    headroom_streak: u32,
    residency: [u64; 5],
    misses: u64,
}

impl DegradationController {
    /// Creates a controller starting at [`DegradationLevel::Full`].
    pub fn new(config: DegradationConfig) -> Self {
        Self {
            config,
            level: DegradationLevel::Full,
            over_streak: 0,
            headroom_streak: 0,
            residency: [0; 5],
            misses: 0,
        }
    }

    /// The current level.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// The compute budget for a chunk of the given playback duration.
    pub fn budget_s(&self, chunk_duration_s: f64) -> f64 {
        chunk_duration_s * self.config.compute_budget_fraction
    }

    /// Chooses the level for the next chunk/frame. `predict` maps a level
    /// to its predicted compute time (typically through
    /// [`DegradationLevel::chunk_time_on_device`] with the live model).
    /// Degrades after `degrade_after` consecutive over-budget predictions
    /// (stepping down as far as needed to fit); recovers one level after
    /// `recover_after` consecutive chunks in which the higher level fits
    /// within `recover_margin` of the budget. Records residency.
    pub fn plan(
        &mut self,
        predict: impl Fn(DegradationLevel) -> f64,
        budget_s: f64,
    ) -> DegradationLevel {
        // Recovery probe: would one level up fit, with margin?
        if self.level != DegradationLevel::Full {
            let up = DegradationLevel::ALL[self.level.index() - 1];
            if predict(up) <= self.config.recover_margin * budget_s {
                self.headroom_streak += 1;
                if self.headroom_streak >= self.config.recover_after {
                    self.level = up;
                    self.headroom_streak = 0;
                }
            } else {
                self.headroom_streak = 0;
            }
        }
        // Degradation: step down once the over-budget streak is long enough.
        if predict(self.level) > budget_s {
            self.over_streak += 1;
            if self.over_streak >= self.config.degrade_after {
                while predict(self.level) > budget_s && self.level != DegradationLevel::Passthrough
                {
                    self.level = DegradationLevel::ALL[self.level.index() + 1];
                }
                self.over_streak = 0;
                self.headroom_streak = 0;
            }
        } else {
            self.over_streak = 0;
        }
        self.residency[self.level.index()] += 1;
        self.level
    }

    /// Server-side overload escalation: forces the level at least down to
    /// `floor`, re-attributing the residency grain [`Self::plan`] recorded
    /// for the current frame and resetting both hysteresis streaks (the
    /// escalation is an external decision, not evidence about this
    /// session's own budget fit).
    pub fn escalate_to(&mut self, floor: DegradationLevel) {
        if floor.index() > self.level.index() {
            self.residency[self.level.index()] -= 1;
            self.residency[floor.index()] += 1;
            self.level = floor;
            self.over_streak = 0;
            self.headroom_streak = 0;
        }
    }

    /// Records the realized compute time against the budget.
    pub fn observe(&mut self, actual_s: f64, budget_s: f64) {
        if actual_s > budget_s {
            self.misses += 1;
        }
    }

    /// Chunks/frames spent at each level, `Full` first.
    pub fn residency(&self) -> [u64; 5] {
        self.residency
    }

    /// Deadline misses recorded by [`Self::observe`].
    pub fn deadline_misses(&self) -> u64 {
        self.misses
    }

    /// Folds this controller's counters into a [`RobustnessStats`].
    pub fn fill_stats(&self, stats: &mut RobustnessStats) {
        stats.deadline_misses = self.misses;
        stats.degradation_residency = self.residency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultyLink};
    use crate::link::SimulatedLink;
    use crate::trace::NetworkTrace;
    use volut_core::refine::IdentityRefiner;
    use volut_core::{SrConfig, SrPipeline};
    use volut_pointcloud::synthetic::{self, DeltaStreamConfig};

    fn frames(n_points: usize, frames: usize, churn: f64, seed: u64) -> Vec<PointCloud> {
        let base = synthetic::humanoid(n_points, 0.4, seed);
        synthetic::delta_frame_sequence(
            &base,
            frames,
            DeltaStreamConfig {
                churn,
                drift: 0.04,
                jitter: 0.008,
                seed,
            },
        )
    }

    fn make_session() -> SrSession {
        SrSession::new(SrPipeline::new(
            SrConfig::default(),
            Box::new(IdentityRefiner),
        ))
    }

    #[test]
    fn messages_roundtrip() {
        let f = frames(300, 3, 0.2, 5);
        let server = DeltaServer::new(f.clone());
        let key = server.keyframe_message(0).unwrap();
        let msg = FrameMessage::decode(&key).unwrap();
        assert_eq!(msg.seq, 0);
        match msg.body {
            MessageBody::Keyframe {
                positions,
                colors,
                digest,
            } => {
                assert_eq!(positions, f[0].positions());
                assert_eq!(colors.as_deref(), f[0].colors());
                assert_eq!(digest, geometry_digest(f[0].positions()));
            }
            _ => panic!("expected keyframe"),
        }
        let del = server.delta_message(0, 2).unwrap();
        let msg = FrameMessage::decode(&del).unwrap();
        assert_eq!(msg.seq, 2);
        match msg.body {
            MessageBody::Delta {
                base_seq,
                old_len,
                new_len,
                removed,
                inserted_ids,
                inserted,
                inserted_colors,
                digest,
            } => {
                assert_eq!(base_seq, 0);
                let delta =
                    FrameDelta::from_parts(old_len, new_len, removed, inserted_ids).unwrap();
                let rebuilt = delta.apply(f[0].positions(), &inserted).unwrap();
                assert_eq!(rebuilt, f[2].positions());
                let colors = delta
                    .apply(f[0].colors().unwrap(), &inserted_colors.unwrap())
                    .unwrap();
                assert_eq!(colors, f[2].colors().unwrap());
                assert_eq!(digest, geometry_digest(f[2].positions()));
            }
            _ => panic!("expected delta"),
        }
    }

    #[test]
    fn decode_rejects_mangled_payloads() {
        let f = frames(100, 2, 0.1, 9);
        let server = DeltaServer::new(f);
        let msg = server.delta_message(0, 1).unwrap();
        assert!(FrameMessage::decode(&msg).is_ok());
        // Truncation at every prefix length must never decode to Ok with
        // the original content (checksum coverage).
        for cut in [0, 5, 16, msg.len() / 2, msg.len() - 1] {
            match FrameMessage::decode(&msg[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncated payload at {cut} decoded"),
            }
        }
        // Any single bit flip is caught.
        for bit in [0usize, 65, 8 * msg.len() - 1] {
            let mut bad = msg.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                FrameMessage::decode(&bad),
                Err(DecodeError::BadChecksum),
                "bit {bit}"
            );
        }
        assert_eq!(FrameMessage::decode(&[1, 2, 3]), Err(DecodeError::TooShort));
    }

    /// A forged 50-byte delta: empty removal/insertion lists under
    /// `old_len = new_len = u32::MAX` and a recomputed checksum. Building
    /// its survivor map would take 16 GiB.
    fn forged_delta(seq: u64, base_seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, seq);
        out.push(KIND_DELTA);
        put_u64(&mut out, base_seq);
        put_u32(&mut out, u32::MAX);
        put_u32(&mut out, u32::MAX);
        put_u32(&mut out, 0);
        put_u32(&mut out, 0);
        out.push(0); // no colors
        put_u64(&mut out, 0);
        let checksum = fnv1a64(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// A link that answers every delta request with [`forged_delta`] and
    /// passes keyframes through unharmed.
    struct ForgingLink;

    impl Transport for ForgingLink {
        fn transmit(&mut self, payload: &[u8], _start_s: f64) -> crate::faults::Transfer {
            let msg = FrameMessage::decode(payload).expect("origin payloads decode");
            let arrival = match msg.body {
                MessageBody::Delta { base_seq, .. } => forged_delta(msg.seq, base_seq),
                MessageBody::Keyframe { .. } => payload.to_vec(),
            };
            crate::faults::Transfer {
                time_s: 0.0,
                arrivals: vec![arrival],
            }
        }
    }

    #[test]
    fn forged_delta_length_is_checked_against_the_held_base() {
        assert_eq!(forged_delta(1, 0).len(), 50);
        let f = frames(100, 2, 0.1, 9);
        let server = DeltaServer::new(f.clone());
        let mut receiver = ResilientReceiver::new(RetryPolicy::default(), 0);
        let first = receiver.recover(&server, &mut ForgingLink, 0).unwrap();
        receiver.commit(first, 0);
        // The forged delta cannot apply to the 100-point base: it counts as
        // an integrity failure and the ladder resyncs from a keyframe,
        // without allocating for the forged length.
        let frame = receiver.recover(&server, &mut ForgingLink, 1).unwrap();
        assert_eq!(frame.kind, RecoveryKind::Keyframe);
        assert_eq!(frame.positions, f[1].positions());
        assert_eq!(receiver.stats().integrity_failures, 1);
    }

    #[test]
    fn clean_link_session_matches_plain_session_bitwise() {
        let f = frames(800, 6, 0.12, 21);
        let server = DeltaServer::new(f.clone());
        let trace = NetworkTrace::stable(80.0, 120.0);
        let mut link = FaultyLink::new(SimulatedLink::new(&trace), FaultConfig::lossless(), 1);
        let mut resilient = ResilientSession::new(make_session());
        let mut plain = make_session();
        for (i, frame) in f.iter().enumerate() {
            let a = resilient
                .advance(&server, &mut link, i as u64, 2.0)
                .unwrap();
            let b = plain.upsample_frame(frame, 2.0).unwrap();
            assert_eq!(a.cloud, b.cloud, "frame {i}");
        }
        let stats = resilient.stats();
        assert_eq!(stats.frames, 6);
        assert_eq!(stats.clean_frames, 6);
        assert_eq!(stats.recoveries(), 0);
        assert_eq!(stats.poisonings_detected, 0);
        assert!(resilient.clock_s() > 0.0);
    }

    #[test]
    fn dropped_deltas_recover_via_compose_and_stay_bit_identical() {
        let f = frames(600, 8, 0.1, 33);
        let server = DeltaServer::new(f.clone());
        let trace = NetworkTrace::stable(80.0, 120.0);
        let mut link = FaultyLink::new(SimulatedLink::new(&trace), FaultConfig::lossless(), 1);
        let mut resilient = ResilientSession::new(make_session());
        let mut clean = make_session();
        // Frames 0..3 delivered; frames 4 and 5 never requested (viewer
        // skipped ahead / chunks lost wholesale); frame 6 must splice 3→6.
        for i in 0..4u64 {
            resilient.advance(&server, &mut link, i, 2.0).unwrap();
        }
        for frame in &f[..6] {
            clean.upsample_frame(frame, 2.0).unwrap();
        }
        let a = resilient.advance(&server, &mut link, 6, 2.0).unwrap();
        let b = clean.upsample_frame(&f[6], 2.0).unwrap();
        assert_eq!(a.cloud, b.cloud, "spliced recovery must be bit-identical");
        let stats = resilient.stats();
        assert_eq!(stats.recovered_compose, 1, "{stats:?}");
        assert_eq!(stats.poisonings_detected, 0, "{stats:?}");
    }

    #[test]
    fn lossy_session_recovers_and_converges_to_clean_output() {
        let f = frames(500, 10, 0.1, 41);
        let server = DeltaServer::new(f.clone());
        let trace = NetworkTrace::stable(60.0, 300.0);
        let mut link = FaultyLink::new(
            SimulatedLink::new(&trace),
            FaultConfig::chaos(0.25),
            0xC0FFEE,
        );
        // Chaos at 25% with 4-frame bursts can blank several consecutive
        // rounds; give the ladder enough retransmissions to outlast them.
        let mut resilient = ResilientSession::with_policy(
            make_session(),
            RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::default()
            },
        );
        let mut clean = make_session();
        for (i, frame) in f.iter().enumerate() {
            let a = resilient
                .advance(&server, &mut link, i as u64, 2.0)
                .unwrap();
            let b = clean.upsample_frame(frame, 2.0).unwrap();
            assert_eq!(a.cloud, b.cloud, "frame {i} diverged under chaos");
        }
        let stats = resilient.stats();
        assert_eq!(stats.frames, 10);
        assert!(
            stats.drops_seen + stats.integrity_failures > 0,
            "chaos at 25% should have injected something: {stats:?}"
        );
        assert!(stats.recoveries() > 0, "{stats:?}");
    }

    #[test]
    fn retention_byte_cap_bounds_a_long_session() {
        let f = frames(150, 40, 0.15, 17);
        let cap = 4 * frame_bytes(&f[0]);
        let mut server = DeltaServer::with_retention(
            f[..1].to_vec(),
            RetentionPolicy {
                max_frames: usize::MAX,
                max_bytes: cap,
            },
        );
        for frame in &f[1..] {
            server.push_frame(frame.clone());
            // The cap holds throughout the session, not just at the end.
            assert!(
                server.retained_bytes() <= cap || server.retained_frames() == 1,
                "retained {} bytes over cap {cap}",
                server.retained_bytes()
            );
        }
        assert_eq!(server.frame_count(), 40, "dropped frames still count");
        assert!(server.base_seq() > 0, "cap never evicted anything");
        assert!(server.retained_frames() < 40);
        // Evicted frames are gone; the head is still fully servable.
        assert!(server.frame(0).is_none());
        let head = server.frame_count() as u64 - 1;
        assert!(server.frame(head).is_some());
        assert!(server.keyframe_message(head).is_some());
        // A gap request based before the window refuses (keyframe fallback);
        // one inside the window still splices.
        assert!(server.delta_message(0, head).is_none());
        assert!(server.delta_message(server.base_seq(), head).is_some());
    }

    #[test]
    fn beyond_window_gap_recovers_via_keyframe_bit_identically() {
        let f = frames(150, 12, 0.1, 23);
        let mut server =
            DeltaServer::with_retention(f[..3].to_vec(), RetentionPolicy::last_frames(3));
        let trace = NetworkTrace::stable(80.0, 120.0);
        let mut link = FaultyLink::new(SimulatedLink::new(&trace), FaultConfig::lossless(), 1);
        let mut resilient = ResilientSession::new(make_session());
        for i in 0..3u64 {
            resilient.advance(&server, &mut link, i, 2.0).unwrap();
        }
        for frame in &f[3..] {
            server.push_frame(frame.clone());
        }
        assert!(server.base_seq() > 2, "old delta base must have aged out");
        // The session's base (frame 2) fell out of the window: the delta
        // rung refuses and the ladder resyncs with a keyframe, whose cold
        // output must match a never-faulted cold session bit for bit.
        let head = server.frame_count() as u64 - 1;
        let a = resilient.advance(&server, &mut link, head, 2.0).unwrap();
        let b = make_session()
            .upsample_frame(&f[head as usize], 2.0)
            .unwrap();
        assert_eq!(a.cloud, b.cloud);
        assert_eq!(resilient.stats().recovered_keyframe, 1);
    }

    /// Output of a fresh session on `frame`: the cold-recompute reference.
    fn cold(frame: &PointCloud) -> PointCloud {
        make_session().upsample_frame(frame, 2.0).unwrap().cloud
    }

    fn upsampled(outcome: StepOutcome) -> PointCloud {
        outcome
            .result
            .expect("engine ran")
            .expect("frame upsampled")
            .cloud
    }

    #[test]
    fn frame_step_flushes_after_a_poisoned_delta() {
        let f = frames(600, 4, 0.1, 5);
        let delta = |a: usize, b: usize| FrameDelta::diff(f[a].positions(), f[b].positions());
        let mut step = FrameStep::new(make_session());
        step.run(&f[0], None, 2.0, Engine::Own);
        let clean = step.run(&f[1], Some(delta(0, 1)), 2.0, Engine::Own);
        assert!(!clean.poisoned);
        assert!(step.session().temporal_stats().rows_reused > 0);

        // A stale declaration (0 → 1 again) for frame 2 is an attempted
        // cache poisoning: reported, and the output is still correct.
        let poisoned = step.run(&f[2], Some(delta(0, 1)), 2.0, Engine::Own);
        assert!(poisoned.poisoned);
        assert_eq!(upsampled(poisoned), cold(&f[2]));
        let reused = step.session().temporal_stats().rows_reused;

        // The flush leaves nothing to reuse: frame 3 recomputes every row,
        // bit-identical to a fresh session.
        let next = step.run(&f[3], Some(delta(2, 3)), 2.0, Engine::Own);
        assert!(!next.poisoned);
        assert_eq!(step.session().temporal_stats().rows_reused, reused);
        assert_eq!(upsampled(next), cold(&f[3]));
    }

    #[test]
    fn frame_step_declares_no_delta_after_a_skipped_or_failed_frame() {
        let f = frames(600, 5, 0.1, 9);
        let delta = |a: usize, b: usize| FrameDelta::diff(f[a].positions(), f[b].positions());
        let mut step = FrameStep::new(make_session());
        step.run(&f[0], None, 2.0, Engine::Own);

        // The engine never sees a skipped frame, so its cache still holds
        // frame 0: declaring 1 → 2 would be rejected as a poisoning.
        let skipped = step.run(&f[1], Some(delta(0, 1)), 2.0, Engine::Skip);
        assert!(skipped.result.is_none());
        let after_skip = step.run(&f[2], Some(delta(1, 2)), 2.0, Engine::Own);
        assert!(!after_skip.poisoned);
        assert_eq!(upsampled(after_skip), cold(&f[2]));

        // The same holds after an engine error (an invalid ratio).
        let failed = step.run(&f[3], Some(delta(2, 3)), 0.5, Engine::Own);
        assert!(failed.result.expect("engine ran").is_err());
        let after_error = step.run(&f[4], Some(delta(3, 4)), 2.0, Engine::Own);
        assert!(!after_error.poisoned);
        assert_eq!(upsampled(after_error), cold(&f[4]));
    }

    #[test]
    fn jittered_backoff_is_reproducible_and_stays_in_bounds() {
        let f = frames(100, 2, 0.1, 3);
        let server = DeltaServer::new(f);
        let trace = NetworkTrace::stable(50.0, 60.0);
        let all_drops = FaultConfig {
            drop: 1.0,
            ..FaultConfig::default()
        };
        // Every request is dropped, so the receiver walks the whole ladder
        // and its final clock is exactly the link + timeout + backoff sum.
        let run = |jitter: f64, seed: u64| {
            let policy = RetryPolicy {
                max_retries: 4,
                jitter,
                ..RetryPolicy::default()
            };
            let mut link = FaultyLink::new(SimulatedLink::new(&trace), all_drops.clone(), 1);
            let mut rx = ResilientReceiver::new(policy, seed);
            assert!(matches!(
                rx.recover(&server, &mut link, 0),
                Err(Error::Transport(_))
            ));
            assert_eq!(rx.stats().retries, 4);
            rx.clock_s()
        };
        let nominal = run(0.0, 42);
        let jittered = run(0.5, 42);
        assert_eq!(jittered, run(0.5, 42), "same seed, same schedule");
        assert_ne!(jittered, run(0.5, 43), "different seeds de-correlate");
        assert_ne!(jittered, nominal);
        // The jittered schedule stays within ±jitter of the nominal
        // backoff sum: base * (1 + 2 + 4 + 8) scaled by at most 0.5.
        let backoff_sum = RetryPolicy::default().base_backoff_s * 15.0;
        assert!(
            (jittered - nominal).abs() <= 0.5 * backoff_sum + 1e-9,
            "jittered {jittered} vs nominal {nominal}"
        );
    }

    #[test]
    fn degradation_controller_hysteresis() {
        let mut ctl = DegradationController::new(DegradationConfig {
            compute_budget_fraction: 1.0,
            degrade_after: 2,
            recover_after: 2,
            recover_margin: 0.7,
        });
        // Cost table: Full takes 2.0 s, each level down halves it.
        let cost = |l: DegradationLevel| 2.0 / (1u64 << l.index()) as f64;
        // Budget 1.0: Full (2.0) is over budget, but hysteresis holds the
        // first chunk at Full.
        assert_eq!(ctl.plan(cost, 1.0), DegradationLevel::Full);
        // Second over-budget chunk: degrade to the first level that fits
        // (SkipRefinement at 1.0 is not < budget... it's exactly 1.0, fits).
        assert_eq!(ctl.plan(cost, 1.0), DegradationLevel::SkipRefinement);
        // Recovery: budget rises to 4.0; Full (2.0) fits within 0.7*4.0,
        // but only after two consecutive headroom chunks.
        assert_eq!(ctl.plan(cost, 4.0), DegradationLevel::SkipRefinement);
        assert_eq!(ctl.plan(cost, 4.0), DegradationLevel::Full);
        assert_eq!(ctl.residency(), [2, 2, 0, 0, 0]);
        // Deadline accounting.
        ctl.observe(2.0, 1.0);
        ctl.observe(0.5, 1.0);
        assert_eq!(ctl.deadline_misses(), 1);
        let mut stats = RobustnessStats::default();
        ctl.fill_stats(&mut stats);
        assert_eq!(stats.deadline_misses, 1);
        assert!((stats.deadline_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degradation_levels_shrink_cost_and_quality_monotonically() {
        let model = SrComputeModel::volut_lut();
        let chunk = crate::chunk::chunk_video(&crate::video::VideoMeta::long_dress(), 1.0)[0];
        let device = DeviceProfile::orange_pi();
        let mut prev_cost = f64::INFINITY;
        let mut prev_quality = f64::INFINITY;
        for level in DegradationLevel::ALL {
            let cost = level.chunk_time_on_device(&model, &chunk, 0.25, 4.0, &device, false);
            assert!(cost <= prev_cost, "{level:?} cost {cost} > {prev_cost}");
            assert!(level.quality_factor() < prev_quality, "{level:?}");
            prev_cost = cost;
            prev_quality = level.quality_factor();
        }
        assert_eq!(
            DegradationLevel::Passthrough
                .chunk_time_on_device(&model, &chunk, 0.25, 4.0, &device, false),
            0.0
        );
    }
}
