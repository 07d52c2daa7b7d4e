//! Workload definitions: the benchmark's own content item and the seeded
//! session schedules that drive the server in tick time.

use std::sync::Arc;

use volut_core::encoding::{KeyScheme, PositionEncoder};
use volut_core::lut::dense::DenseLut;
use volut_core::lut::Lut as _;
use volut_core::registry::{ContentModel, ModelRegistry};
use volut_core::SrConfig;
use volut_stream::faults::FaultConfig;
use volut_stream::resilience::RetryPolicy;
use volut_stream::server::{IngestConfig, IngestSource, ServerConfig, SessionSpec};

/// Registry name of the benchmark's content item.
pub const CONTENT: &str = "servebench";

/// Quantization bins of the content item (the serving configuration of the
/// repository's `server_*` benches).
const BINS: usize = 24;

/// Builds the benchmark's content item: a dense Compact-scheme table sized
/// by the encoder's own key space (Compact keys pack `ceil(log2 bins)` = 5
/// bits per receptive-field slot, so 32^4 = 1,048,576 entries at 24 bins),
/// with about half of the entries populated by a key hash so both the LUT
/// hit path and the miss path run whatever keys the frames produce.
pub fn content_registry() -> Arc<ModelRegistry> {
    let config = SrConfig {
        bins: BINS,
        ..SrConfig::default()
    };
    let encoder = PositionEncoder::new(&config, KeyScheme::Compact).expect("valid serving config");
    let key_space = encoder.key_space();
    let mut lut = DenseLut::new(key_space).expect("table within the dense budget");
    for key in 0..key_space as u64 {
        let h = mix(key);
        if h & 1 == 0 {
            // Small offsets in the normalized neighborhood frame.
            let unit = |shift: u32| ((h >> shift) & 0xff) as f32 / 255.0 - 0.5;
            lut.set(
                u128::from(key),
                [0.02 * unit(8), 0.02 * unit(16), 0.02 * unit(24)],
            )
            .expect("key inside the key space");
        }
    }
    let mut registry = ModelRegistry::new();
    registry.publish(ContentModel::from_dense(
        CONTENT,
        config,
        KeyScheme::Compact,
        lut,
        None,
    ));
    Arc::new(registry)
}

/// SplitMix64 finalizer: the benchmark's only source of randomness.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded stream of uniform draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 256 concurrent 512-point sphere sessions, churn 0.1, local ingest,
    /// seeded arrivals and lengths.
    Fleet512,
    /// 4 sessions of 25,000-point frames, churn 1.0, local ingest.
    PaperCold,
    /// 64 concurrent 2,000-point sessions, churn 0.1, resilient ingest
    /// over a bursty-loss link.
    Lossy2k,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Fleet512, Workload::PaperCold, Workload::Lossy2k];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet512 => "fleet-512",
            Workload::PaperCold => "paper-cold",
            Workload::Lossy2k => "lossy-2k",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Fleet512 => Shape {
                slots: 256,
                points: 512,
                churn: 0.1,
                length: (16, 64),
                ticks: 100,
                episodes: 3,
                replays: 8,
            },
            Workload::PaperCold => Shape {
                slots: 4,
                points: 25_000,
                churn: 1.0,
                // Every session spans the whole episode: no arrivals.
                length: (u64::MAX, u64::MAX),
                ticks: 30,
                episodes: 5,
                replays: 2,
            },
            Workload::Lossy2k => Shape {
                slots: 64,
                points: 2_000,
                churn: 0.1,
                length: (30, 90),
                ticks: 80,
                episodes: 5,
                replays: 4,
            },
        }
    }

    /// The session ingest path of the workload.
    pub fn ingest(self) -> IngestSource {
        match self {
            // The deep retry budget of the repository's `server_chaos`
            // sweep: the workload measures recovery cost, not give-up
            // behavior, so no session is quarantined on a healthy server.
            Workload::Lossy2k => IngestSource::Resilient(IngestConfig {
                faults: FaultConfig::bursty_loss(0.05),
                retry: RetryPolicy {
                    max_retries: 12,
                    jitter: 0.25,
                    ..RetryPolicy::default()
                },
                ..IngestConfig::default()
            }),
            _ => IngestSource::Local,
        }
    }
}

/// Server configuration of every workload: the defaults, with capacity and
/// queue sized so admission control never binds on the scheduled load.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        capacity: 1024,
        queue_limit: 1024,
        ..ServerConfig::default()
    }
}

/// Size parameters of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Session slots: the scheduled concurrent population.
    pub slots: usize,
    /// Points per low-resolution frame.
    pub points: usize,
    /// Fraction of points churned per frame.
    pub churn: f64,
    /// Inclusive session-length range in frames (truncated at the horizon).
    pub length: (u64, u64),
    /// Ticks in one episode (the horizon).
    pub ticks: u64,
    /// Distinct episodes (schedules) of one run.
    pub episodes: u64,
    /// Retired sessions replayed for the output check and the trace.
    pub replays: usize,
}

/// One scheduled session: enqueued just before tick `arrival`.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Tick before which the session is enqueued.
    pub arrival: u64,
    /// The request.
    pub spec: SessionSpec,
}

/// The seeded session schedule of episode `episode`, sorted by arrival
/// tick. The population is a fixed number of slots; each slot runs
/// sessions back to back with seeded lengths, its first one starting at
/// tick 0 with a seeded residual length. Arrivals are thus the
/// superposition of independent renewal processes (close to Poisson at
/// these slot counts) while the scheduled population stays exactly at its
/// target, so admission and retirement happen on most ticks without the
/// load itself varying from seed to seed. Every length is truncated at the
/// horizon: a session that is never stalled retires by the last tick.
pub fn schedule(workload: Workload, seed: u64, episode: u64) -> Vec<Arrival> {
    let shape = workload.shape();
    let mut rng = Rng(mix(seed ^ mix(episode ^ 0x5e57_be4c)));
    let mut out = Vec::new();
    let (lo, hi) = shape.length;
    for _ in 0..shape.slots {
        let mut arrival = 0;
        let mut length = match hi {
            u64::MAX => shape.ticks,
            _ => {
                let full = rng.range(lo, hi);
                rng.range(1, full)
            }
        };
        while arrival < shape.ticks {
            out.push(Arrival {
                arrival,
                spec: SessionSpec {
                    content: CONTENT.into(),
                    seed: rng.next(),
                    points: shape.points,
                    churn: shape.churn,
                    frames: length.min(shape.ticks - arrival),
                    ingest: workload.ingest(),
                },
            });
            arrival += length;
            length = rng.range(lo, hi);
        }
    }
    out.sort_by_key(|a| a.arrival);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_bounded_by_the_horizon() {
        for workload in Workload::ALL {
            let a = schedule(workload, 7, 0);
            let b = schedule(workload, 7, 0);
            let c = schedule(workload, 8, 0);
            let d = schedule(workload, 7, 1);
            let seeds = |s: &[Arrival]| s.iter().map(|a| a.spec.seed).collect::<Vec<_>>();
            assert_eq!(seeds(&a), seeds(&b));
            assert_ne!(seeds(&a), seeds(&c));
            assert_ne!(seeds(&a), seeds(&d));
            let ticks = workload.shape().ticks;
            for s in &a {
                assert!(s.spec.frames >= 1);
                assert!(s.arrival + s.spec.frames <= ticks);
            }
        }
        // The scheduled population is exactly the target on every tick, and
        // sessions arrive on most ticks.
        let shape = Workload::Fleet512.shape();
        let fleet = schedule(Workload::Fleet512, 3, 0);
        for t in 0..shape.ticks {
            let active = fleet
                .iter()
                .filter(|a| a.arrival <= t && t < a.arrival + a.spec.frames)
                .count();
            assert_eq!(active, shape.slots, "tick {t}");
        }
        let arrival_ticks: std::collections::BTreeSet<u64> =
            fleet.iter().map(|a| a.arrival).collect();
        assert!(arrival_ticks.len() as u64 > shape.ticks * 9 / 10);
    }

    #[test]
    fn content_table_spans_the_compact_key_space() {
        let registry = content_registry();
        let model = registry.get(CONTENT).expect("published");
        let populated = model.table_entries();
        assert!(
            (400_000..650_000).contains(&populated),
            "about half of 32^4 keys populated, got {populated}"
        );
    }
}
