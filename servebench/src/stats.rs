//! The benchmark's own arithmetic: percentiles and the tail rule, the
//! replica of the server's per-session digest fold, and frame accounting.

use volut_stream::server::SessionReport;

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=100`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(q, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `q` in a sample of `n`. The product
/// is formed before the division so integral ranks stay exact.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of an ascending slice (nearest rank).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Median of an unsorted sample.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// A tail percentile chosen by the tail rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (`0..=100`).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it (at least [`TAIL_MIN_BEYOND`] unless the
    /// sample is too small, in which case the maximum is reported).
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that still leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank. A sample too small
/// for even the median reports its maximum with `beyond = 0`.
pub fn tail(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let n = sorted.len();
    for pct in TAIL_LADDER {
        let rank = nearest_rank(pct, n);
        if n - rank >= TAIL_MIN_BEYOND {
            return Tail {
                pct,
                value: sorted[rank - 1],
                beyond: n - rank,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: sorted[n - 1],
        beyond: 0,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(mut acc: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        acc ^= u64::from(byte);
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Replica of the server's per-session output digest: FNV-1a folded over
/// `(frame index, output geometry digest, input frame length)` per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestFold {
    acc: u64,
    frames: u64,
}

impl Default for DigestFold {
    fn default() -> Self {
        Self {
            acc: FNV_OFFSET,
            frames: 0,
        }
    }
}

impl DigestFold {
    /// Folds one served frame.
    pub fn push(&mut self, output_digest: u64, frame_len: usize) {
        self.acc = fnv1a(self.acc, self.frames);
        self.acc = fnv1a(self.acc, output_digest);
        self.acc = fnv1a(self.acc, frame_len as u64);
        self.frames += 1;
    }

    /// The folded digest so far.
    pub fn value(&self) -> u64 {
        self.acc
    }
}

/// Frame accounting of one episode against the frames its schedule made
/// due.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameAccount {
    /// Frames due from every offered session (each session's full length).
    pub due: u64,
    /// Frames served without an engine error.
    pub served_ok: u64,
}

impl FrameAccount {
    /// Accounts the retired sessions of a drained server against `due`.
    /// Sessions that were rejected or shed never retire, so all of their
    /// frames count as failed; quarantined sessions count the frames they
    /// never served; `frame_errors` count as failed frames.
    pub fn from_reports(due: u64, reports: &[SessionReport]) -> Self {
        let served_ok = reports.iter().map(|r| r.frames - r.frame_errors).sum();
        Self { due, served_ok }
    }

    /// Frames that failed: due but never served clean.
    pub fn failed(&self) -> u64 {
        self.due.saturating_sub(self.served_ok)
    }

    /// `1 - served_ok / due`.
    pub fn failed_frac(&self) -> f64 {
        if self.due == 0 {
            0.0
        } else {
            self.failed() as f64 / self.due as f64
        }
    }

    /// Adds another episode's account.
    pub fn add(&mut self, other: FrameAccount) {
        self.due += other.due;
        self.served_ok += other.served_ok;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, CONTENT};
    use std::sync::Arc;
    use volut_stream::faults::FaultConfig;
    use volut_stream::server::{
        IngestConfig, IngestSource, QuarantineCause, ServerConfig, SessionSpec, SrServer,
    };

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let t = tail(&sample(1000));
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99's rank is 990, 9 beyond — falls to p95.
        let t = tail(&sample(999));
        assert_eq!(t.pct, 95.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);
        // 200 samples: p95 rank 190, 10 beyond.
        let t = tail(&sample(200));
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
        // 100 samples: p90 rank 90, 10 beyond.
        let t = tail(&sample(100));
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 20 samples: only the median leaves 10 beyond.
        let t = tail(&sample(20));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        // Too small for the rule: report the maximum.
        let t = tail(&sample(15));
        assert_eq!((t.pct, t.value, t.beyond), (100.0, 15.0, 0));
        // Unsorted input is the caller's bug; the percentile helper itself
        // is nearest-rank.
        assert_eq!(percentile(&sample(10), 50.0), 5.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn digest_fold_replays_a_server_run() {
        let registry = workload::content_registry();
        let model = registry.get(CONTENT).expect("published");
        let config = ServerConfig::default();
        let mut server = SrServer::new(Arc::clone(&registry), config.clone());
        let specs: Vec<SessionSpec> = [(11u64, 300usize, 0.1f64, 6u64), (12, 400, 1.0, 4)]
            .into_iter()
            .map(|(seed, points, churn, frames)| SessionSpec {
                content: CONTENT.into(),
                seed,
                points,
                churn,
                frames,
                ingest: IngestSource::Local,
            })
            .collect();
        for spec in &specs {
            assert!(server.enqueue(spec.clone()));
        }
        let report = server.run(64);
        assert_eq!(report.sessions.len(), 2);
        for spec in &specs {
            let served = report
                .sessions
                .iter()
                .find(|r| r.seed == spec.seed)
                .expect("every session retires");
            assert_eq!(served.frames, spec.frames);
            assert_eq!(served.residency[0], served.frames, "stayed at Full");
            let replay = crate::replay::replay_digest(&model, spec, config.ratio);
            assert_eq!(replay, Some(served.digest), "seed {}", spec.seed);
        }
    }

    #[test]
    fn failed_frac_counts_rejected_and_quarantined_sessions() {
        let registry = workload::content_registry();
        let config = ServerConfig {
            queue_limit: 2,
            degradation: None,
            ..ServerConfig::default()
        };
        let mut server = SrServer::new(registry, config);
        let spec = |seed, ingest| SessionSpec {
            content: CONTENT.into(),
            seed,
            points: 300,
            churn: 0.1,
            frames: 5,
            ingest,
        };
        let dead = IngestSource::Resilient(IngestConfig {
            faults: FaultConfig {
                drop: 1.0,
                ..FaultConfig::default()
            },
            ..IngestConfig::default()
        });
        assert!(server.enqueue(spec(1, IngestSource::Local)));
        assert!(server.enqueue(spec(2, dead)));
        assert!(
            !server.enqueue(spec(3, IngestSource::Local)),
            "queue of two rejects the third"
        );
        let report = server.run(64);
        let quarantined = report
            .sessions
            .iter()
            .find(|r| r.seed == 2)
            .expect("quarantined sessions are reported");
        assert_eq!(quarantined.failure, Some(QuarantineCause::RetryExhausted));
        assert_eq!(quarantined.frames, 0);
        let account = FrameAccount::from_reports(3 * 5, &report.sessions);
        assert_eq!(account.served_ok, 5, "only the healthy session served");
        assert_eq!(account.failed(), 10);
        assert!((account.failed_frac() - 10.0 / 15.0).abs() < 1e-12);
        let mut total = account;
        total.add(FrameAccount {
            due: 5,
            served_ok: 5,
        });
        assert!((total.failed_frac() - 0.5).abs() < 1e-12);
    }
}
