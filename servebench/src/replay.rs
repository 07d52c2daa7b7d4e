//! Layer replay: drives one session of a workload through the same public
//! layer functions the server's frame step calls — generator, origin push
//! and wire encode, decode and recovery ladder, SR session upsample — and
//! times each call from outside. Its digest fold must equal the server's
//! `SessionReport::digest` for a session the server kept at `Full`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use volut_core::registry::ContentModel;
use volut_pointcloud::kdtree::KdTree;
use volut_pointcloud::knn::NeighborSearch as _;
use volut_pointcloud::synthetic::{self, DeltaStream, DeltaStreamConfig};
use volut_pointcloud::{FrameDelta, Neighborhoods, PointCloud};
use volut_stream::client::SrSession;
use volut_stream::faults::{OwnedFaultyLink, Transfer, Transport};
use volut_stream::resilience::{DeltaServer, FrameMessage, ResilientReceiver};
use volut_stream::server::{IngestConfig, IngestSource, SessionSpec};
use volut_stream::trace::NetworkTrace;

use crate::spans::Recorder;
use crate::stats::DigestFold;

/// Recover attempts per frame before the replay gives up on a session (the
/// server would have quarantined it long before).
const MAX_RECOVER_ATTEMPTS: u32 = 32;

/// Per-layer measurements accumulated over replayed frames.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// Outside-timed `SrSession` upsample calls, ms.
    pub frame_ms: Vec<f64>,
    /// `DeltaStream::advance` calls, ms.
    pub gen_ms: Vec<f64>,
    /// Summed stage durations: index, knn, interpolate, colorize, refine.
    pub stages: [Duration; 5],
    /// Summed outside-timed upsample durations (the coverage base).
    pub frame_total: Duration,
    /// LUT probes and hits over the replayed frames.
    pub lut_probes: u64,
    /// LUT hits over the replayed frames.
    pub lut_hits: u64,
    /// Frames upsampled through the engine.
    pub frames: u64,
    /// Self-join rows copied forward / recomputed.
    pub rows_reused: u64,
    /// Self-join rows recomputed.
    pub rows_recomputed: u64,
    /// Frames answered incrementally / by full recompute.
    pub incremental_frames: u64,
    /// Frames answered by full recompute.
    pub full_frames: u64,
    /// Standalone `KdTree::build` on each frame, ms.
    pub knn_build_ms: Vec<f64>,
    /// Standalone `knn_batch` self-join on each frame, ms.
    pub knn_selfjoin_ms: Vec<f64>,
    /// `DeltaServer::delta_message` / `keyframe_message`, µs.
    pub encode_us: Vec<f64>,
    /// `FrameMessage::decode` of the encoded message, µs.
    pub decode_us: Vec<f64>,
    /// `ResilientReceiver::recover`, µs (one entry per delivered frame,
    /// summed over the attempts it took).
    pub recover_us: Vec<f64>,
    /// Bytes handed to the link, retransmissions included.
    pub wire_bytes: u64,
    /// Simulated link seconds (transfer + backoff + timeouts).
    pub link_s: f64,
    /// Frames delivered through the resilient ingest path.
    pub ingest_frames: u64,
}

/// A transport that counts the bytes it is handed.
struct CountingLink {
    inner: OwnedFaultyLink,
    bytes: u64,
}

impl Transport for CountingLink {
    fn transmit(&mut self, payload: &[u8], start_s: f64) -> Transfer {
        self.bytes += payload.len() as u64;
        self.inner.transmit(payload, start_s)
    }
}

/// The resilient ingest path of one replayed session, built exactly as the
/// server builds a tenant's.
struct Ingest {
    origin: DeltaServer,
    receiver: ResilientReceiver,
    link: CountingLink,
}

impl Ingest {
    fn new(cfg: &IngestConfig, seed: u64) -> Self {
        let trace = Arc::new(NetworkTrace::stable(cfg.link_mbps.max(0.1), 60.0));
        Self {
            origin: DeltaServer::with_retention(Vec::new(), cfg.retention),
            receiver: ResilientReceiver::new(cfg.retry, seed ^ 0x6a09_e667_f3bc_c908),
            link: CountingLink {
                inner: OwnedFaultyLink::new(
                    trace,
                    cfg.faults.clone(),
                    cfg.shared_fault_seed.unwrap_or(seed),
                ),
                bytes: 0,
            },
        }
    }
}

/// Options of one replay.
pub struct Replay<'a> {
    /// The content item the session streams.
    pub model: &'a ContentModel,
    /// Upsampling ratio at `Full`.
    pub ratio: f64,
    /// Also time the standalone kd-tree build + self-join and the extra
    /// encode/decode calls (the traced run only).
    pub layers: bool,
}

impl Replay<'_> {
    /// Replays `spec` frame by frame and returns its digest fold, or `None`
    /// when the ingest link never delivered some frame (a session the
    /// server would quarantine).
    pub fn run(
        &self,
        spec: &SessionSpec,
        stats: &mut LayerStats,
        mut trace: Option<&mut Recorder>,
    ) -> Option<u64> {
        let base = synthetic::sphere(spec.points.max(16), 1.0, spec.seed);
        let spacing = base.mean_spacing(64).unwrap_or(0.01);
        let mut stream = DeltaStream::new(
            base,
            DeltaStreamConfig {
                churn: spec.churn,
                drift: spacing * 4.0,
                jitter: spacing * 0.5,
                seed: spec.seed,
            },
        );
        let mut session = SrSession::from_model(self.model).expect("valid content model");
        let mut ingest = match &spec.ingest {
            IngestSource::Local => None,
            IngestSource::Resilient(cfg) => Some(Ingest::new(cfg, spec.seed)),
        };
        let k = self.model.config().dilated_neighborhood();
        let mut fold = DigestFold::default();
        let mut synced = false;
        let mut neighborhoods = Neighborhoods::new();
        let mut lut_before = (0u64, 0u64);

        for index in 0..spec.frames.max(1) {
            let request = Some((spec.seed, index));
            let frame_start = Instant::now();
            let mut children: Vec<(&'static str, Instant, Instant)> = Vec::new();

            // 1. Generator.
            let generated = if index == 0 {
                None
            } else {
                let t = Instant::now();
                let delta = stream.advance();
                let end = Instant::now();
                stats.gen_ms.push(ms(end - t));
                children.push(("gen.advance", t, end));
                Some(delta)
            };

            // 2–3. Ingest: origin push and encode, decode, recovery ladder.
            let (frame, delta, keyframe): (PointCloud, Option<FrameDelta>, bool) = match &mut ingest
            {
                None => (stream.frame().clone(), generated, false),
                Some(ingest) => {
                    let t = Instant::now();
                    match generated {
                        None => ingest.origin.push_frame(stream.frame().clone()),
                        Some(d) => ingest
                            .origin
                            .push_frame_with_delta(stream.frame().clone(), d),
                    }
                    children.push(("origin.push", t, Instant::now()));
                    if self.layers {
                        let t = Instant::now();
                        let message = match index {
                            0 => ingest.origin.keyframe_message(0),
                            _ => ingest.origin.delta_message(index - 1, index),
                        }
                        .expect("the head frame is retained");
                        let end = Instant::now();
                        stats.encode_us.push(us(end - t));
                        children.push(("ingest.encode", t, end));
                        let t = Instant::now();
                        let decoded = FrameMessage::decode(&message);
                        let end = Instant::now();
                        assert!(decoded.is_ok(), "an unfaulted message decodes");
                        stats.decode_us.push(us(end - t));
                        children.push(("ingest.decode", t, end));
                    }
                    let clock0 = ingest.receiver.clock_s();
                    let t = Instant::now();
                    let mut attempts = 0;
                    let recovered = loop {
                        // A failed ladder is a stalled tick on the server;
                        // the next tick simply asks again.
                        match ingest
                            .receiver
                            .recover(&ingest.origin, &mut ingest.link, index)
                        {
                            Ok(rec) => break Some(rec),
                            Err(_) if attempts + 1 < MAX_RECOVER_ATTEMPTS => attempts += 1,
                            Err(_) => break None,
                        }
                    };
                    let end = Instant::now();
                    stats.recover_us.push(us(end - t));
                    children.push(("ingest.recover", t, end));
                    let recovered = recovered?;
                    stats.link_s += ingest.receiver.clock_s() - clock0;
                    stats.ingest_frames += 1;
                    let keyframe = recovered.delta.is_none();
                    let frame = recovered.cloud();
                    let delta = recovered.delta.clone();
                    ingest.receiver.commit(recovered, index);
                    (frame, delta, keyframe)
                }
            };
            if keyframe {
                // Keyframe resync or cold start: recompute cold.
                session.flush_caches();
                synced = false;
            }

            // 4. SR session upsample, exactly as the server's `Full` step.
            let declared = if synced { delta } else { None };
            let declared_was_some = declared.is_some();
            let t = Instant::now();
            let result = match declared {
                Some(d) => session.upsample_frame_delta(&frame, self.ratio, d),
                None => session.upsample_frame(&frame, self.ratio),
            };
            let upsample_end = Instant::now();
            children.push(("session.upsample", t, upsample_end));
            let upsample_start = t;
            let stages = result.as_ref().ok().map(|r| {
                let s = &r.timings;
                [
                    ("stage.index", s.index_build),
                    ("stage.knn", s.knn),
                    ("stage.interpolate", s.interpolation),
                    ("stage.colorize", s.colorization),
                    ("stage.refine", s.refinement),
                ]
            });
            let output_digest = match &result {
                Ok(r) => {
                    synced = true;
                    stats.frame_ms.push(ms(upsample_end - t));
                    stats.frame_total += upsample_end - t;
                    for (acc, (_, d)) in stats.stages.iter_mut().zip(stages.into_iter().flatten()) {
                        *acc += d;
                    }
                    if let Some(lut) = r.lookup_stats {
                        stats.lut_hits += lut.hits - lut_before.0;
                        stats.lut_probes += (lut.hits + lut.misses) - (lut_before.0 + lut_before.1);
                        lut_before = (lut.hits, lut.misses);
                    }
                    stats.frames += 1;
                    r.cloud.geometry_digest()
                }
                Err(_) => {
                    synced = false;
                    frame.geometry_digest()
                }
            };
            if declared_was_some && session.last_delta_error().is_some() {
                session.flush_caches();
                synced = false;
            }
            fold.push(output_digest, frame.len());

            // 5. Standalone kNN on the same frame.
            if self.layers {
                let t = Instant::now();
                let tree = KdTree::build(frame.positions());
                let built = Instant::now();
                neighborhoods.clear();
                tree.knn_batch(frame.positions(), k, &mut neighborhoods);
                let end = Instant::now();
                std::hint::black_box(neighborhoods.len());
                stats.knn_build_ms.push(ms(built - t));
                stats.knn_selfjoin_ms.push(ms(end - built));
                children.push(("knn.build", t, built));
                children.push(("knn.selfjoin", built, end));
            }

            if let Some(rec) = trace.as_deref_mut() {
                let root = rec.record("replay.frame", frame_start, Instant::now(), None, request);
                for (name, start, end) in children {
                    let id = rec.record(name, start, end, Some(root), request);
                    if let (Some(stages), "session.upsample") = (&stages, name) {
                        rec.record_sequence(id, upsample_start, stages, request);
                    }
                }
            }
        }
        let t = session.temporal_stats();
        stats.rows_reused += t.rows_reused;
        stats.rows_recomputed += t.rows_recomputed;
        stats.incremental_frames += t.incremental_frames;
        stats.full_frames += t.full_frames;
        if let Some(ingest) = &ingest {
            stats.wire_bytes += ingest.link.bytes;
        }
        Some(fold.value())
    }
}

/// The digest fold of `spec` replayed without layer timing.
#[cfg(test)]
pub fn replay_digest(model: &ContentModel, spec: &SessionSpec, ratio: f64) -> Option<u64> {
    Replay {
        model,
        ratio,
        layers: false,
    }
    .run(spec, &mut LayerStats::default(), None)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
