//! Serving benchmark of the multi-tenant SR server.
//!
//! One process drives `volut_stream::server::SrServer` through its public
//! calls only, in a closed loop: one thread enqueues the sessions a seeded
//! schedule makes due before each tick, then calls `SrServer::tick` back to
//! back. An episode is one fresh server over one seeded schedule; a run
//! plays the workload's distinct schedules, then repeats them until
//! `--seconds` have been measured, and reports end-to-end metrics over all
//! of them. After the timed episodes the output checks run: replayed
//! sessions must fold to the server's digests, and on `lossy-2k` every
//! non-quarantined session must match its local-ingest twin. `--trace 1`
//! instead alternates untraced and traced episodes and replays sampled
//! sessions through the public layer functions with spans, reporting
//! per-layer metrics.
//!
//! Usage, from the repository root:
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload fleet-512 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod replay;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use volut_pointcloud::runtime;
use volut_stream::server::{IngestSource, ServerConfig, SessionReport, SrServer};
use volut_stream::telemetry::TelemetrySnapshot;

use replay::{LayerStats, Replay};
use spans::Recorder;
use stats::{median, median_of, tail, FrameAccount};
use workload::{Arrival, Workload, CONTENT};

/// Executors of the worker pool: one spawned thread plus the calling thread.
const WORKERS: &str = "2";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one episode measured.
struct Episode {
    /// Index of the schedule the episode ran.
    schedule: usize,
    /// Whether its server calls were traced.
    traced: bool,
    setup_s: f64,
    /// Wall seconds of every tick after the first.
    tick_s: Vec<f64>,
    /// Frames served during those ticks.
    frames_timed: u64,
    account: FrameAccount,
    reports: Vec<SessionReport>,
    telemetry: TelemetrySnapshot,
    /// Queued sessions observed just before each timed tick.
    queue_depth: Vec<f64>,
    /// Per-session bytes (KiB) at mid-episode.
    session_kb: f64,
    /// Ticks run after the horizon until every session retired.
    drain_ticks: u64,
}

fn enqueue_due(
    server: &mut SrServer,
    schedule: &[Arrival],
    next: &mut usize,
    tick: u64,
    trace: &mut Option<&mut Recorder>,
) {
    while let Some(a) = schedule.get(*next).filter(|a| a.arrival == tick) {
        let t = Instant::now();
        // A rejection is counted by the frame accounting, not here.
        let _ = server.enqueue(a.spec.clone());
        if let Some(rec) = trace.as_deref_mut() {
            rec.record(
                "server.enqueue",
                t,
                Instant::now(),
                None,
                Some((a.spec.seed, 0)),
            );
        }
        *next += 1;
    }
}

fn timed_tick(server: &mut SrServer, trace: &mut Option<&mut Recorder>) -> Duration {
    let t = Instant::now();
    server.tick();
    let end = Instant::now();
    if let Some(rec) = trace.as_deref_mut() {
        rec.record("server.tick", t, end, None, None);
    }
    end - t
}

/// Runs one episode of `schedules[index]` on a fresh content item and
/// server.
fn episode(
    workload: Workload,
    config: &ServerConfig,
    schedules: &[Vec<Arrival>],
    index: usize,
    mut trace: Option<&mut Recorder>,
) -> Episode {
    let schedule = &schedules[index];
    let traced = trace.is_some();
    let ticks = workload.shape().ticks;
    let started = Instant::now();
    let registry = workload::content_registry();
    let mut server = SrServer::new(registry, config.clone());
    let mut next = 0;
    enqueue_due(&mut server, schedule, &mut next, 0, &mut trace);
    timed_tick(&mut server, &mut trace);
    let setup_s = started.elapsed().as_secs_f64();

    let mut tick_s = Vec::with_capacity(ticks as usize);
    let mut queue_depth = Vec::with_capacity(ticks as usize);
    let mut frames_timed = 0;
    let mut session_kb = 0.0;
    for tick in 1..ticks {
        enqueue_due(&mut server, schedule, &mut next, tick, &mut trace);
        queue_depth.push(server.queued_sessions() as f64);
        let before = server.telemetry().frames_total;
        tick_s.push(timed_tick(&mut server, &mut trace).as_secs_f64());
        frames_timed += server.telemetry().frames_total - before;
        if tick == ticks / 2 {
            session_kb = server.memory_stats().bytes_per_session / 1024.0;
        }
    }
    let drain_ticks = drain(&mut server, ticks);
    let report = server.report(0.0);
    let due = schedule.iter().map(|a| a.spec.frames).sum();
    Episode {
        schedule: index,
        traced,
        setup_s,
        tick_s,
        frames_timed,
        account: FrameAccount::from_reports(due, &report.sessions),
        reports: report.sessions,
        telemetry: report.telemetry,
        queue_depth,
        session_kb,
        drain_ticks,
    }
}

/// Ticks until every admitted session retired (stalled resilient sessions
/// finish their frames late), bounded by four horizons.
fn drain(server: &mut SrServer, horizon: u64) -> u64 {
    let mut extra = 0;
    while server.active_sessions() + server.queued_sessions() > 0 && extra < 4 * horizon {
        server.tick();
        extra += 1;
    }
    extra
}

/// Runs `schedule` to completion on a fresh server (the untimed check runs).
fn run_to_completion(
    workload: Workload,
    config: &ServerConfig,
    schedule: &[Arrival],
) -> Vec<SessionReport> {
    let ticks = workload.shape().ticks;
    let mut server = SrServer::new(workload::content_registry(), config.clone());
    let mut next = 0;
    for tick in 0..ticks {
        enqueue_due(&mut server, schedule, &mut next, tick, &mut None);
        server.tick();
    }
    drain(&mut server, ticks);
    server.report(0.0).sessions
}

/// Outcome of the output checks.
#[derive(Default)]
struct Checks {
    lines: Vec<String>,
    ok: bool,
}

impl Checks {
    fn record(&mut self, ok: bool, line: String) {
        self.ok &= ok;
        self.lines.push(format!(
            "check {}: {line}",
            if ok { "ok" } else { "FAILED" }
        ));
    }
}

fn by_seed(reports: &[SessionReport]) -> BTreeMap<u64, &SessionReport> {
    reports.iter().map(|r| (r.seed, r)).collect()
}

/// The first run of each distinct schedule, keyed by schedule.
fn distinct<'a>(episodes: impl IntoIterator<Item = &'a Episode>) -> BTreeMap<usize, &'a Episode> {
    let mut firsts = BTreeMap::new();
    for e in episodes {
        firsts.entry(e.schedule).or_insert(e);
    }
    firsts
}

/// Every repeat of a schedule must serve exactly what its first run served.
fn check_episodes(episodes: &[Episode], checks: &mut Checks) {
    let firsts = distinct(episodes);
    let same = episodes.iter().all(|e| {
        let first = by_seed(&firsts[&e.schedule].reports);
        let other = by_seed(&e.reports);
        other.len() == first.len()
            && other.iter().all(|(seed, r)| {
                first
                    .get(seed)
                    .is_some_and(|f| f.digest == r.digest && f.qoe.normalized == r.qoe.normalized)
            })
    });
    checks.record(
        same,
        format!(
            "{} episodes over {} schedules: every repeat served identical digests and QoE",
            episodes.len(),
            firsts.len()
        ),
    );
}

/// The sessions to replay: the longest that stayed at `Full` without
/// failure or engine error, ties broken by seed.
fn replay_sample<'a>(
    reports: &'a [SessionReport],
    schedule: &[Arrival],
    count: usize,
) -> Vec<(&'a SessionReport, volut_stream::server::SessionSpec)> {
    let specs: BTreeMap<u64, &Arrival> = schedule.iter().map(|a| (a.spec.seed, a)).collect();
    let mut eligible: Vec<&SessionReport> = reports
        .iter()
        .filter(|r| {
            r.failure.is_none()
                && r.frame_errors == 0
                && r.residency[0] == r.frames
                && specs
                    .get(&r.seed)
                    .is_some_and(|a| a.spec.frames == r.frames)
        })
        .collect();
    eligible.sort_by_key(|r| (std::cmp::Reverse(r.frames), r.seed));
    eligible
        .into_iter()
        .take(count)
        .map(|r| (r, specs[&r.seed].spec.clone()))
        .collect()
}

/// Replays sampled sessions, checking each digest fold against the
/// server's; with a recorder the replay also records spans and layer
/// timings.
fn check_replays(
    workload: Workload,
    reports: &[SessionReport],
    schedule: &[Arrival],
    ratio: f64,
    stats: &mut LayerStats,
    trace: Option<&mut Recorder>,
    checks: &mut Checks,
) {
    let registry = workload::content_registry();
    let model = registry.get(CONTENT).expect("content is published");
    let replay = Replay {
        model: &model,
        ratio,
        layers: trace.is_some(),
    };
    let sample = replay_sample(reports, schedule, workload.shape().replays);
    let mut trace = trace;
    let mut matched = 0;
    for (report, spec) in &sample {
        if replay.run(spec, stats, trace.as_deref_mut()) == Some(report.digest) {
            matched += 1;
        }
    }
    checks.record(
        !sample.is_empty() && matched == sample.len(),
        format!(
            "{matched}/{} replayed sessions fold to the server digest",
            sample.len()
        ),
    );
}

/// `lossy-2k`: the schedule served over lossy resilient ingest and over
/// local ingest, both with degradation pinned off so levels cannot differ;
/// every non-quarantined lossy session must match its twin. Returns the
/// lossy run's reports (all at `Full`) for the replay check.
fn check_twins(
    workload: Workload,
    schedule: &[Arrival],
    checks: &mut Checks,
) -> Vec<SessionReport> {
    let config = ServerConfig {
        degradation: None,
        ..workload::server_config()
    };
    let lossy = run_to_completion(workload, &config, schedule);
    let local_schedule: Vec<Arrival> = schedule
        .iter()
        .map(|a| {
            let mut a = a.clone();
            a.spec.ingest = IngestSource::Local;
            a
        })
        .collect();
    let local = run_to_completion(workload, &config, &local_schedule);
    let twins = by_seed(&local);
    let healthy: Vec<&SessionReport> = lossy.iter().filter(|r| r.failure.is_none()).collect();
    let matched = healthy
        .iter()
        .filter(|r| twins.get(&r.seed).is_some_and(|t| t.digest == r.digest))
        .count();
    checks.record(
        !healthy.is_empty() && matched == healthy.len(),
        format!(
            "{matched}/{} non-quarantined lossy sessions match their local twin ({} quarantined)",
            healthy.len(),
            lossy.len() - healthy.len()
        ),
    );
    lossy
}

/// Runs every output check; fills `stats` (and `trace`) from the replay.
fn run_checks(
    args: &Args,
    config: &ServerConfig,
    schedules: &[Vec<Arrival>],
    episodes: &[Episode],
    stats: &mut LayerStats,
    trace: Option<&mut Recorder>,
) -> Checks {
    let mut checks = Checks {
        ok: true,
        ..Checks::default()
    };
    check_episodes(episodes, &mut checks);
    // The replay and twin checks cover the first schedule.
    let schedule = &schedules[0];
    let twin_reports;
    let reports = if args.workload == Workload::Lossy2k {
        twin_reports = check_twins(args.workload, schedule, &mut checks);
        &twin_reports
    } else {
        &episodes[0].reports
    };
    check_replays(
        args.workload,
        reports,
        schedule,
        config.ratio,
        stats,
        trace,
        &mut checks,
    );
    checks
}

/// Host CPU jiffies `(steal, total)` from the first line of `/proc/stat`.
/// Steal is time the hypervisor ran something else on this machine's
/// vCPUs; it inflates every wall-clock metric and is printed with them.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics of a set of episodes.
struct EndToEnd {
    frames_per_s: f64,
    tick_p50_ms: f64,
    tick_tail: stats::Tail,
    ticks: usize,
    qoe_mean: f64,
    sessions: usize,
    account: FrameAccount,
    /// Ticks past the horizon until stalled sessions finished.
    drain_ticks: u64,
    setup_s: f64,
}

/// Timing metrics over every episode given; QoE and frame accounting over
/// the first run of each distinct schedule, so they do not depend on how
/// many repeats fit in the measuring time.
fn end_to_end(episodes: &[&Episode]) -> EndToEnd {
    let firsts = distinct(episodes.iter().copied());
    let mut ticks_ms: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.tick_s.iter().map(|s| s * 1e3))
        .collect();
    ticks_ms.sort_by(f64::total_cmp);
    let wall: f64 = episodes.iter().flat_map(|e| &e.tick_s).sum();
    let frames: u64 = episodes.iter().map(|e| e.frames_timed).sum();
    let qoe: Vec<f64> = firsts
        .values()
        .flat_map(|e| e.reports.iter().map(|r| r.qoe.normalized))
        .collect();
    let mut account = FrameAccount::default();
    for e in firsts.values() {
        account.add(e.account);
    }
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    EndToEnd {
        frames_per_s: frames as f64 / wall,
        tick_p50_ms: median(&ticks_ms),
        tick_tail: tail(&ticks_ms),
        ticks: ticks_ms.len(),
        qoe_mean: qoe.iter().sum::<f64>() / qoe.len().max(1) as f64,
        sessions: qoe.len(),
        account,
        drain_ticks: firsts.values().map(|e| e.drain_ticks).sum(),
        setup_s: median_of(&setups),
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<28} {:>14.6} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn result_json(correct: bool, account: FrameAccount, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        account.due.max(1),
        account.failed()
    )
}

fn end_to_end_metrics(e: &EndToEnd, episodes: usize) -> Vec<Metric> {
    vec![
        Metric {
            name: "frames_per_s",
            value: e.frames_per_s,
            unit: "frames/s",
            note: format!("n={} timed ticks over {episodes} episodes", e.ticks),
        },
        Metric {
            name: "tick_p50_ms",
            value: e.tick_p50_ms,
            unit: "ms",
            note: format!("n={} ticks; frame interval 33.3 ms", e.ticks),
        },
        Metric {
            name: "tick_tail_ms",
            value: e.tick_tail.value,
            unit: "ms",
            note: format!(
                "p{} of n={} ticks, {} ticks beyond",
                e.tick_tail.pct, e.ticks, e.tick_tail.beyond
            ),
        },
        Metric {
            name: "qoe_mean",
            value: e.qoe_mean,
            unit: "score",
            note: format!(
                "n={} retired sessions; {} drain ticks past the horizons",
                e.sessions, e.drain_ticks
            ),
        },
        Metric {
            name: "served_frac",
            value: 1.0 - e.account.failed_frac(),
            unit: "ratio",
            note: format!(
                "failed_frac={:.6} ({} of {} due frames failed)",
                e.account.failed_frac(),
                e.account.failed(),
                e.account.due
            ),
        },
        Metric {
            name: "setup_s",
            value: e.setup_s,
            unit: "s",
            note: format!("median of n={episodes} set-ups"),
        },
        Metric {
            name: "rss_peak_mb",
            value: rss_peak_mb(),
            unit: "MB",
            note: "VmHWM of this process, n=1".into(),
        },
    ]
}

/// The run's distinct schedules.
fn schedules(args: &Args) -> Vec<Vec<Arrival>> {
    (0..args.workload.shape().episodes)
        .map(|e| workload::schedule(args.workload, args.seed, e))
        .collect()
}

fn run_untraced(args: &Args) -> (bool, FrameAccount, Vec<Metric>) {
    let config = workload::server_config();
    let schedules = schedules(args);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut episodes = Vec::new();
    // Every schedule once, then repeats in turn until the time is up.
    while episodes.len() < schedules.len() || started.elapsed() < budget {
        let index = episodes.len() % schedules.len();
        episodes.push(episode(args.workload, &config, &schedules, index, None));
    }
    let checks = run_checks(
        args,
        &config,
        &schedules,
        &episodes,
        &mut LayerStats::default(),
        None,
    );
    for line in &checks.lines {
        println!("  {line}");
    }
    // Built after the checks, so peak memory includes the check runs.
    let e = end_to_end(&episodes.iter().collect::<Vec<_>>());
    let metrics = end_to_end_metrics(&e, episodes.len());
    print_metrics(&metrics);
    (checks.ok, e.account, metrics)
}

fn per_layer_metrics(
    traced: &[&Episode],
    untraced: &EndToEnd,
    traced_e2e: &EndToEnd,
    stats: &LayerStats,
    enqueue_us: &[f64],
    spans: usize,
) -> Vec<Metric> {
    let first = traced[0];
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median_of(v) };
    let mut frame_sorted = stats.frame_ms.clone();
    frame_sorted.sort_by(f64::total_cmp);
    let frame_tail = if frame_sorted.is_empty() {
        stats::Tail {
            pct: 0.0,
            value: 0.0,
            beyond: 0,
        }
    } else {
        tail(&frame_sorted)
    };
    let frame_p50 = med(&stats.frame_ms);
    let gen = med(&stats.gen_ms);
    let frames = stats.frames.max(1) as f64;
    let stage = |i: usize| stats.stages[i].as_secs_f64() * 1e3 / frames;
    let stage_sum: Duration = stats.stages.iter().sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let residency: [u64; 2] = traced
        .iter()
        .flat_map(|e| &e.reports)
        .fold([0, 0], |acc, r| {
            [
                acc[0] + r.residency[0],
                acc[1] + r.residency.iter().sum::<u64>(),
            ]
        });
    let ingest = &first.telemetry.ingest;
    let ingest_frames = stats.ingest_frames as f64;
    let queue: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.queue_depth.iter().copied())
        .collect();
    let m = |name, value, unit, note: String| Metric {
        name,
        value,
        unit,
        note,
    };
    vec![
        m(
            "server.enqueue_us",
            med(enqueue_us),
            "us",
            format!("n={} enqueue spans", enqueue_us.len()),
        ),
        m(
            "server.queue_depth",
            queue.iter().sum::<f64>() / queue.len().max(1) as f64,
            "sessions",
            format!("mean over n={} pre-tick samples", queue.len()),
        ),
        m(
            "server.step_p50_ms",
            med(&traced
                .iter()
                .map(|e| e.telemetry.frame_time_p50_ms)
                .collect::<Vec<_>>()),
            "ms",
            "server telemetry frame-step p50".into(),
        ),
        m(
            "server.step_p99_ms",
            med(&traced
                .iter()
                .map(|e| e.telemetry.frame_time_p99_ms)
                .collect::<Vec<_>>()),
            "ms",
            format!(
                "server telemetry p99, next to replay session.frame tail {:.3} ms (p{})",
                frame_tail.value, frame_tail.pct
            ),
        ),
        m(
            "server.degraded_frac",
            ratio((residency[1] - residency[0]) as f64, residency[1] as f64),
            "ratio",
            format!(
                "{} of {} frames below Full",
                residency[1] - residency[0],
                residency[1]
            ),
        ),
        m(
            "server.resync_grants",
            first.telemetry.resync_grants as f64,
            "count",
            "per episode".into(),
        ),
        m(
            "server.resync_deferrals",
            first.telemetry.resync_deferrals as f64,
            "count",
            "per episode".into(),
        ),
        m(
            "server.session_kb",
            med(&traced.iter().map(|e| e.session_kb).collect::<Vec<_>>()),
            "KiB",
            "SrServer::memory_stats at mid-episode".into(),
        ),
        m(
            "session.frame_p50_ms",
            frame_p50,
            "ms",
            format!("n={} replayed frames", stats.frame_ms.len()),
        ),
        m(
            "session.frame_tail_ms",
            frame_tail.value,
            "ms",
            format!(
                "p{} of n={}, {} beyond",
                frame_tail.pct,
                stats.frame_ms.len(),
                frame_tail.beyond
            ),
        ),
        m(
            "temporal.reuse_rate",
            ratio(
                stats.rows_reused as f64,
                (stats.rows_reused + stats.rows_recomputed) as f64,
            ),
            "ratio",
            "self-join rows copied forward".into(),
        ),
        m(
            "temporal.incremental_frac",
            ratio(
                stats.incremental_frames as f64,
                (stats.incremental_frames + stats.full_frames) as f64,
            ),
            "ratio",
            "frames answered incrementally".into(),
        ),
        m("stage.index_ms", stage(0), "ms", "mean per frame".into()),
        m("stage.knn_ms", stage(1), "ms", "mean per frame".into()),
        m(
            "stage.interpolate_ms",
            stage(2),
            "ms",
            "mean per frame".into(),
        ),
        m("stage.colorize_ms", stage(3), "ms", "mean per frame".into()),
        m("stage.refine_ms", stage(4), "ms", "mean per frame".into()),
        m(
            "stage.coverage",
            ratio(stage_sum.as_secs_f64(), stats.frame_total.as_secs_f64()),
            "ratio",
            "sum of stages / outside-timed frame".into(),
        ),
        m(
            "lut.probes_per_frame",
            stats.lut_probes as f64 / frames,
            "count",
            String::new(),
        ),
        m(
            "lut.hit_rate",
            ratio(stats.lut_hits as f64, stats.lut_probes as f64),
            "ratio",
            format!("{} of {} probes hit", stats.lut_hits, stats.lut_probes),
        ),
        m(
            "knn.build_ms",
            med(&stats.knn_build_ms),
            "ms",
            format!("KdTree::build, n={}", stats.knn_build_ms.len()),
        ),
        m(
            "knn.selfjoin_ms",
            med(&stats.knn_selfjoin_ms),
            "ms",
            format!("knn_batch self-join, n={}", stats.knn_selfjoin_ms.len()),
        ),
        m(
            "gen.advance_ms",
            gen,
            "ms",
            format!("DeltaStream::advance, n={}", stats.gen_ms.len()),
        ),
        m(
            "share.gen_over_frame",
            ratio(gen, frame_p50),
            "ratio",
            "gen.advance_ms / session.frame_p50_ms".into(),
        ),
        m(
            "ingest.encode_us",
            med(&stats.encode_us),
            "us",
            format!("n={}", stats.encode_us.len()),
        ),
        m(
            "ingest.decode_us",
            med(&stats.decode_us),
            "us",
            format!("n={}", stats.decode_us.len()),
        ),
        m(
            "ingest.recover_us",
            med(&stats.recover_us),
            "us",
            format!("n={}", stats.recover_us.len()),
        ),
        m(
            "ingest.wire_kb_per_frame",
            ratio(stats.wire_bytes as f64 / 1024.0, ingest_frames),
            "KiB",
            "retransmissions included".into(),
        ),
        m(
            "ingest.link_ms_per_frame",
            ratio(stats.link_s * 1e3, ingest_frames),
            "ms",
            "simulated link + backoff + timeouts".into(),
        ),
        m(
            "ingest.recovered_compose",
            ingest.recovered_compose as f64,
            "count",
            "per episode".into(),
        ),
        m(
            "ingest.recovered_retransmit",
            ingest.recovered_retransmit as f64,
            "count",
            "per episode".into(),
        ),
        m(
            "ingest.recovered_keyframe",
            ingest.recovered_keyframe as f64,
            "count",
            "per episode".into(),
        ),
        m(
            "ingest.retries",
            ingest.retries as f64,
            "count",
            "per episode".into(),
        ),
        m(
            "ingest.integrity_failures",
            ingest.integrity_failures as f64,
            "count",
            "per episode".into(),
        ),
        m(
            "runtime.workers",
            runtime::current_workers() as f64,
            "count",
            String::new(),
        ),
        m(
            "trace.overhead_frac",
            ratio(
                traced_e2e.tick_p50_ms - untraced.tick_p50_ms,
                untraced.tick_p50_ms,
            ),
            "ratio",
            format!(
                "tick p50 traced {:.3} vs untraced {:.3} ms; frames/s {:.1} vs {:.1}",
                traced_e2e.tick_p50_ms,
                untraced.tick_p50_ms,
                traced_e2e.frames_per_s,
                untraced.frames_per_s
            ),
        ),
        m("trace.spans", spans as f64, "count", String::new()),
    ]
}

fn run_traced(args: &Args) -> (bool, FrameAccount, Vec<Metric>) {
    let config = workload::server_config();
    let schedules = schedules(args);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut recorder = Recorder::new();
    let mut episodes = Vec::new();
    // Each schedule runs once untraced and once traced over identical
    // inputs, the order alternating pair by pair (so warm-up and drift fall
    // on both sides); at least one pair.
    while episodes.len() < 2 || started.elapsed() < budget {
        let (pair, second) = (episodes.len() / 2, episodes.len() % 2 == 1);
        let index = pair % schedules.len();
        let trace = (second == (pair % 2 == 0)).then_some(&mut recorder);
        episodes.push(episode(args.workload, &config, &schedules, index, trace));
    }
    let pick =
        |want: bool| -> Vec<&Episode> { episodes.iter().filter(|e| e.traced == want).collect() };
    let traced = pick(true);
    let untraced_e2e = end_to_end(&pick(false));
    let traced_e2e = end_to_end(&traced);
    let enqueue_us: Vec<f64> = recorder
        .spans()
        .iter()
        .filter(|s| s.name == "server.enqueue")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();

    let mut stats = LayerStats::default();
    let checks = run_checks(
        args,
        &config,
        &schedules,
        &episodes,
        &mut stats,
        Some(&mut recorder),
    );
    let metrics = per_layer_metrics(
        &traced,
        &untraced_e2e,
        &traced_e2e,
        &stats,
        &enqueue_us,
        recorder.spans().len(),
    );

    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, recorder.to_json_lines()));
    let mut checks = checks;
    checks.record(
        written.is_ok(),
        format!(
            "{} spans written to {}",
            recorder.spans().len(),
            path.display()
        ),
    );
    for line in &checks.lines {
        println!("  {line}");
    }
    println!("  self time by span (count, total ms, self ms):");
    for (name, (count, total, own)) in recorder.self_times() {
        println!(
            "    {:<20} {:>8} {:>12.3} {:>12.3}",
            name,
            count,
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    println!("  end-to-end, untraced episodes:");
    print_metrics(&end_to_end_metrics(&untraced_e2e, pick(false).len()));
    println!("  end-to-end, traced episodes:");
    print_metrics(&end_to_end_metrics(&traced_e2e, traced.len()));
    println!("  per layer:");
    print_metrics(&metrics);
    (checks.ok, traced_e2e.account, metrics)
}

fn main() {
    // Pin the pool before anything resolves it: the benchmark always runs
    // two executors, whatever the host reports.
    std::env::set_var("VOLUT_WORKERS", WORKERS);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "servebench workload={} seed={} seconds={} trace={} ({})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        runtime::describe()
    );
    let jiffies = cpu_jiffies();
    let (correct, account, metrics) = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (jiffies, cpu_jiffies()) {
        let total = (total1 - total0).max(1);
        println!(
            "  host steal during the run: {:.1}% of vCPU time",
            100.0 * (steal1 - steal0) as f64 / total as f64
        );
    }
    println!("{}", result_json(correct, account, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
