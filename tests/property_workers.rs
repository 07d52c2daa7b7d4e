//! Property tests for the work-stealing runtime's determinism contract:
//! the pipeline's output must be **bit-identical at every worker count**
//! (and therefore under every stealing schedule). Worker counts {1, 2, 4,
//! 8} are pinned via `runtime::with_workers` regardless of the host's core
//! count — on a single-core machine the pool still runs real concurrent
//! threads, so the parallel code paths (chunked interpolation,
//! colorization, refinement, and the sharded dual-tree traversal) are
//! genuinely exercised. The CI worker matrix also runs this file under
//! `VOLUT_WORKERS` overrides.
//!
//! Sizes straddle the dual-tree auto threshold (4096 queries), so cases
//! cover both multi-worker routes of the engine's kNN driver: the
//! pre-chunked single-tree sweep below it and the internally-sharded
//! dual-tree traversal above it.

use proptest::prelude::*;
use volut::core::config::SrConfig;
use volut::core::interpolate::dilated::dilated_interpolate_with;
use volut::core::interpolate::naive::naive_interpolate_with;
use volut::core::interpolate::FrameScratch;
use volut::pointcloud::runtime;
use volut::pointcloud::synthetic::{self, DeltaStreamConfig};
use volut::pointcloud::{Neighborhoods, PointCloud};

/// Worker counts every invariance test pins. 1 is the sequential baseline;
/// 8 oversubscribes any CI host, maximizing steal/interleave variety.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Everything interpolation emits that the determinism contract covers.
type FrameOutput = (PointCloud, Neighborhoods, Vec<(usize, usize)>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both interpolators, streamed over churned delta-frames (the
    /// temporal-reuse path: later frames recompute only invalidated rows),
    /// must produce byte-for-byte identical clouds, neighborhoods and
    /// parent tables at every worker count.
    #[test]
    fn interpolation_is_bit_identical_across_worker_counts(
        n in 3_400usize..5_200,
        churn_sel in 0usize..4,
        seed in 0u64..200,
        naive_sel in 0usize..2,
        ratio in 1.5f64..2.5,
    ) {
        let churn = [0.0, 0.05, 0.3, 1.0][churn_sel];
        let use_naive = naive_sel == 1;
        let base = synthetic::humanoid(n, 0.4, seed);
        let frames = synthetic::delta_frame_sequence(&base, 2, DeltaStreamConfig {
            churn,
            drift: 0.04,
            jitter: 0.006,
            seed,
        });
        let cfg = if use_naive { SrConfig::k4d1() } else { SrConfig::default() };
        let run = |workers: usize| -> Vec<FrameOutput> {
            runtime::with_workers(workers, || {
                let mut scratch = FrameScratch::new();
                frames
                    .iter()
                    .map(|frame| {
                        let r = if use_naive {
                            naive_interpolate_with(frame, &cfg, ratio, &mut scratch)
                        } else {
                            dilated_interpolate_with(frame, &cfg, ratio, &mut scratch)
                        }
                        .expect("interpolation succeeds");
                        (r.cloud, r.neighborhoods, r.parents)
                    })
                    .collect()
            })
        };
        let baseline = run(WORKER_COUNTS[0]);
        for &workers in &WORKER_COUNTS[1..] {
            let got = run(workers);
            for (frame_no, (got, want)) in got.iter().zip(&baseline).enumerate() {
                prop_assert_eq!(&got.0, &want.0, "frame {} cloud diverged at {} workers", frame_no, workers);
                prop_assert_eq!(&got.1, &want.1, "frame {} neighborhoods diverged at {} workers", frame_no, workers);
                prop_assert_eq!(&got.2, &want.2, "frame {} parents diverged at {} workers", frame_no, workers);
            }
        }
    }
}

/// The full streaming session — interpolation, colorization, refinement,
/// temporal reuse and the cached spatial index — replayed over the same
/// churned sequence at each worker count, must emit identical frames.
#[test]
fn full_session_is_bit_identical_across_worker_counts() {
    use volut::core::{refine::IdentityRefiner, SrConfig, SrPipeline};
    use volut::stream::client::SrSession;
    let n = 4_600; // above the dual-tree threshold: sharded traversal runs
    let base = synthetic::humanoid(n, 0.5, 11);
    let frames = synthetic::delta_frame_sequence(
        &base,
        3,
        DeltaStreamConfig {
            churn: 0.1,
            drift: 0.05,
            jitter: 0.01,
            seed: 23,
        },
    );
    let run = |workers: usize| {
        runtime::with_workers(workers, || {
            let mut session = SrSession::new(SrPipeline::new(
                SrConfig::default(),
                Box::new(IdentityRefiner),
            ));
            frames
                .iter()
                .map(|f| {
                    session
                        .upsample_frame(f, 2.0)
                        .expect("frame upsamples")
                        .cloud
                })
                .collect::<Vec<_>>()
        })
    };
    let baseline = run(WORKER_COUNTS[0]);
    for &workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            run(workers),
            baseline,
            "session diverged at {workers} workers"
        );
    }
}
