//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Measures `--seconds` one-second slices, spread over up to five engine
//! instances. Each instance is set up (the median set-up time is
//! `setup_s`), warmed up, driven by two closed-loop clients, and checked.
//! One JSON object is the last line of standard output. With `--trace 0`
//! every slice is untraced and the object holds the end-to-end metrics;
//! with `--trace 1` untraced and traced slices alternate and the object
//! holds the per-layer metrics. See `benchmark.md` beside this package for
//! the workloads and metrics.

mod affinity;
mod hist;
mod inproc;
mod memvfs;
mod runner;
mod served;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ssi_core::{AbortReason, IsolationLevel};

use crate::inproc::{SiBenchBench, SmallBankBench, GC_INTERVAL_MS};
use crate::runner::{Run, Sample, Window, Workload, MAX_ATTEMPTS, MEASURE, SLICE, TRACED};
use crate::served::ServedBench;
use crate::trace::Name;

/// Closed-loop clients per workload.
const CLIENTS: usize = 2;
/// Engine instances per run.
const ROUNDS: usize = 5;
/// Warm-up of each instance, not measured.
const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups per burst: at least one, and more until they took this long, up
/// to [`SETUP_MAX`]; `setup_s` is the median over all of a run's. A run
/// times a burst before and after each instance.
const SETUP_SECS: f64 = 0.1;
const SETUP_MAX: usize = 20;
/// The steady-state guard: the measured slices need this many GC passes …
const MIN_GC_PASSES: u64 = 5;
/// … and the version count may grow by at most this share from the first
/// to the last quarter of the samples (plus a small absolute slack).
const MAX_VERSION_GROWTH: f64 = 0.5;
const VERSION_GROWTH_SLACK: f64 = 2_000.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    SmallBankSsi,
    SmallBankSi,
    SiBenchSsi,
    ServedDurable,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::SmallBankSsi,
        Kind::SmallBankSi,
        Kind::SiBenchSsi,
        Kind::ServedDurable,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::SmallBankSsi => "smallbank-ssi",
            Kind::SmallBankSi => "smallbank-si",
            Kind::SiBenchSsi => "sibench-ssi",
            Kind::ServedDurable => "served-durable",
        }
    }

    fn options(self) -> String {
        let gc = format!("background GC every {GC_INTERVAL_MS} ms");
        match self {
            Kind::SmallBankSsi | Kind::SmallBankSi => format!(
                "SmallBank 1000 customers, 1 op/txn, equal mix of 5 programs; {}; row locks; {gc}; \
                 in-process; durability off (simulated commit log, no flush latency)",
                if self == Kind::SmallBankSsi { "SSI" } else { "SI" }
            ),
            Kind::SiBenchSsi => format!(
                "sibench {} rows, {} queries per update; SSI; row locks with gap locks; {gc}; \
                 in-process; durability off",
                inproc::SIBENCH_ROWS,
                inproc::SIBENCH_QUERIES_PER_UPDATE
            ),
            Kind::ServedDurable => format!(
                "ssi-server on loopback, {} accounts, transfers (begin, 2 gets, 2 puts, commit); \
                 SSI; row locks; {gc}; Durability::GroupCommit, committer-elected flush; log on \
                 an in-process memory VFS (fsync marks bytes durable, no device flush); \
                 checkpoint every {} bytes",
                served::ACCOUNTS,
                served::CHECKPOINT_EVERY_BYTES
            ),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Where spans and the durable workload's lock directories go.
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut out_dir) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        out_dir: out_dir.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench")),
    })
}

/// Sets up at least once and until the set-ups took [`SETUP_SECS`], at
/// most [`SETUP_MAX`] times; records each time and returns the last
/// instance.
fn timed_setup<W>(
    setup: impl Fn() -> Result<W, String>,
    times: &mut Vec<f64>,
) -> Result<W, String> {
    let (mut spent, mut n) = (0.0, 0);
    loop {
        let t0 = Instant::now();
        let w = setup()?;
        let secs = t0.elapsed().as_secs_f64();
        times.push(secs);
        spent += secs;
        n += 1;
        if n >= SETUP_MAX || spent >= SETUP_SECS {
            return Ok(w);
        }
    }
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Report {
    lines: String,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn say(&mut self, line: impl AsRef<str>) {
        self.lines.push_str(line.as_ref());
        self.lines.push('\n');
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The steady-state guard; `Err` says why the run is not steady.
fn steady<C>(run: &Run<C>) -> Result<(), String> {
    if run.gc_passes < MIN_GC_PASSES {
        return Err(format!("only {} GC passes while measuring", run.gc_passes));
    }
    let s = &run.samples;
    let quarter = (s.len() / 4).max(1);
    let mean = |s: &[Sample]| s.iter().map(|x| x.versions as f64).sum::<f64>() / s.len() as f64;
    let (first, last) = (mean(&s[..quarter]), mean(&s[s.len() - quarter..]));
    if last > first * (1.0 + MAX_VERSION_GROWTH) + VERSION_GROWTH_SLACK {
        return Err(format!("versions grew from {first:.0} to {last:.0}"));
    }
    Ok(())
}

fn end_to_end(r: &mut Report, w: &Window, setup_s: f64, peak_rss_mb: f64) {
    r.metric("commits_per_s", w.median_commits_per_s(), "1/s");
    r.metric("txn_p50_us", w.median_latency_us(0.5), "us");
    r.metric("txn_p99_us", w.median_latency_us(0.99), "us");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb, "MB");
    let counts = w.slices.iter().map(|s| s.latency.count());
    r.say(format!(
        "latency of {} committed transactions in {} slices of {} s; figures are medians over \
         slices; the smallest slice has {} beyond its p99",
        counts.clone().sum::<u64>(),
        w.slices.len(),
        SLICE.as_secs_f64(),
        counts.min().unwrap_or(0) / 100
    ));
    let p99s: Vec<String> = w
        .slices
        .iter()
        .map(|s| format!("{:.0}", s.latency.quantile(0.99) / 1e3))
        .collect();
    r.say(format!("txn_p99_us by slice: {}", p99s.join(" ")));
}

fn per_layer(r: &mut Report, kind: Kind, untraced: &Window, w: &Window) {
    let commits = w.stats.commits;
    let per_commit = |n: u64| ratio(n, commits);
    let t = &w.trace;

    r.metric(
        "workloads.txn.self_us_mean",
        t.call(Name::Txn).self_us_mean(),
        "us",
    );
    r.metric(
        "workloads.app_rollback_share",
        ratio(w.stats.app_rollbacks, w.stats.attempts),
        "share",
    );

    for name in [
        Name::CoreBegin,
        Name::CoreGet,
        Name::CoreGetForUpdate,
        Name::CorePut,
        Name::CoreScan,
        Name::CoreCommit,
    ] {
        let c = t.call(name);
        let label = name.label();
        r.metric(
            format!("{label}.calls_per_commit"),
            per_commit(c.count),
            "calls/commit",
        );
        r.metric(format!("{label}.self_us_mean"), c.self_us_mean(), "us");
        r.metric(
            format!("{label}.p99_us"),
            c.duration.quantile(0.99) / 1e3,
            "us",
        );
    }
    r.metric(
        "core.commit.fail_share",
        ratio(t.commit_calls_failed, t.call(Name::CoreCommit).count),
        "share",
    );
    let pivot = [
        AbortReason::PivotIn,
        AbortReason::PivotOut,
        AbortReason::UnsafeAtCommit,
        AbortReason::BasicFlagCheck,
    ];
    for (name, reasons) in [
        ("write_conflict", &[AbortReason::WriteConflict][..]),
        ("pivot", &pivot[..]),
        ("doomed_by_peer", &[AbortReason::DoomedByPeer][..]),
        ("dependency_cascade", &[AbortReason::DependencyCascade][..]),
        ("deadlock", &[AbortReason::LockDeadlock][..]),
    ] {
        let n = w.delta(|m| reasons.iter().map(|x| m.txn.abort_reasons[x.index()]).sum());
        r.metric(
            format!("core.aborts_per_1k.{name}"),
            ratio(n * 1000, commits),
            "1/1000commits",
        );
    }
    r.metric(
        "core.speculative_reads_per_commit",
        per_commit(w.delta(|m| m.txn.speculative_reads)),
        "count/commit",
    );
    r.metric(
        "core.commit_dependencies_per_commit",
        per_commit(w.delta(|m| m.txn.commit_dependencies)),
        "count/commit",
    );

    r.metric(
        "lock.requests_per_commit",
        per_commit(w.delta(|m| m.locks.requests)),
        "count/commit",
    );
    r.metric(
        "lock.waits_per_commit",
        per_commit(w.delta(|m| m.locks.waits)),
        "count/commit",
    );
    r.metric(
        "lock.deadlocks",
        w.delta(|m| m.locks.deadlocks) as f64,
        "count",
    );
    r.metric(
        "lock.timeouts",
        w.delta(|m| m.locks.timeouts) as f64,
        "count",
    );

    let vpk_max = w
        .samples()
        .map(Sample::versions_per_key)
        .fold(0.0, f64::max);
    let vpk_end = w
        .slices
        .last()
        .and_then(|s| s.samples.last())
        .map_or(0.0, Sample::versions_per_key);
    r.metric("storage.versions_per_key.max", vpk_max, "versions/key");
    r.metric("storage.versions_per_key.end", vpk_end, "versions/key");
    r.metric(
        "storage.rows_per_scan",
        ratio(t.scan_rows, t.call(Name::CoreScan).count),
        "rows/scan",
    );

    r.metric(
        "gc.passes_per_s",
        w.delta(|m| m.gc.background_purge_runs) as f64 / w.secs(),
        "1/s",
    );
    r.metric(
        "gc.purged_per_commit",
        per_commit(w.delta(|m| m.gc.purged_versions)),
        "versions/commit",
    );
    let end = w.slices.last().map(|s| &s.after.latency);
    let us = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e3;
    r.metric("gc.pass_p99_us", us(end.map(|l| l.gc_pass.p99_ns)), "us");

    r.metric(
        "wal.records_per_fsync",
        ratio(w.delta(|m| m.wal.records), w.delta(|m| m.wal.fsyncs)),
        "records/fsync",
    );
    r.metric(
        "wal.bytes_per_commit",
        per_commit(w.delta(|m| m.wal.bytes)),
        "bytes/commit",
    );
    r.metric("wal.fsync_p50_us", us(end.map(|l| l.fsync.p50_ns)), "us");
    r.metric("wal.fsync_p99_us", us(end.map(|l| l.fsync.p99_ns)), "us");

    for name in [
        Name::ServerBegin,
        Name::ServerGet,
        Name::ServerPut,
        Name::ServerCommit,
    ] {
        let d = &t.call(name).duration;
        let label = name.label();
        r.metric(format!("{label}.rtt_p50_us"), d.quantile(0.5) / 1e3, "us");
        r.metric(format!("{label}.rtt_p99_us"), d.quantile(0.99) / 1e3, "us");
    }
    r.metric(
        "server.requests_per_commit",
        per_commit(w.server_delta(|m| m.requests)),
        "requests/commit",
    );
    r.metric(
        "server.busy_rejections",
        w.server_delta(|m| m.busy_rejections) as f64,
        "count",
    );

    let traced_cps = w.commits_per_s();
    r.metric(
        "trace.overhead_share",
        1.0 - traced_cps / untraced.commits_per_s(),
        "share",
    );
    r.say(format!(
        "trace: {:.0} commits/s in untraced slices, {traced_cps:.0} in traced slices",
        untraced.commits_per_s()
    ));

    let absent: &[&str] = match kind {
        Kind::ServedDurable => &[
            "core.*: the engine calls run inside ssi-server, which the benchmark does not \
             span; the engine-wide counters (aborts, lock, storage, gc, wal) are present",
            "storage.rows_per_scan: transfers do not scan",
        ],
        Kind::SiBenchSsi => &[
            "core.get.*: sibench reads with get_for_update and scan only",
            "wal.*: durability is off (no log)",
            "server.*: in-process workloads bypass the server",
        ],
        Kind::SmallBankSsi | Kind::SmallBankSi => &[
            "core.get_for_update.*, core.scan.*, storage.rows_per_scan: SmallBank uses get \
             and put only",
            "wal.*: durability is off (no log)",
            "server.*: in-process workloads bypass the server",
        ],
    };
    for why in absent {
        r.say(format!("absent (reported as 0): {why}"));
    }
}

/// Runs one workload end to end; returns (correct, attempted, failed).
///
/// The measured slices are spread over up to [`ROUNDS`] engine instances, each
/// set up, warmed up, measured and checked in turn, so that the medians
/// pool several instances as well as many slices.
fn measure<W: Workload>(
    args: &Args,
    r: &mut Report,
    setup: impl Fn() -> Result<W, String>,
    check: impl Fn(W, &Run<W::Client>) -> Vec<String>,
) -> Result<(bool, u64, u64), String> {
    // At least 2 slices per instance, so that a traced run has both kinds.
    let slices = ((args.seconds as f64 / SLICE.as_secs_f64()).round() as usize).max(2);
    let rounds = (slices / 2).clamp(1, ROUNDS);
    let per_round = slices / rounds;
    // A traced run alternates untraced and traced slices.
    let schedule: Vec<u8> = (0..per_round)
        .map(|i| {
            if args.trace && i % 2 == 1 {
                TRACED
            } else {
                MEASURE
            }
        })
        .collect();
    let mut windows: [Window; 3] = Default::default();
    let mut spans = Vec::new();
    let mut setup_times = Vec::new();
    let mut correct = true;
    let mut rss = None;
    for _ in 0..rounds {
        let w = timed_setup(&setup, &mut setup_times)?;
        let run = runner::run(&w, CLIENTS, WARMUP, &schedule)?;
        // The first instance's high-water mark, before any check: later
        // instances reuse the heap the earlier ones freed, and the served
        // check builds a second engine to reopen the log.
        rss.get_or_insert_with(peak_rss_mb);
        if let Err(why) = steady(&run) {
            r.say(format!("NOT STEADY: {why}"));
            correct = false;
        }
        for failure in check(w, &run) {
            r.say(format!("CHECK FAILED: {failure}"));
            correct = false;
        }
        // A second burst, thrown away, so that the set-up times come from
        // twice as many moments of the run. On the 2-CPU machine the
        // benchmark was defined on, SmallBank's set-up took ~4.5 ms or ~7 ms
        // for a few hundred milliseconds at a time.
        drop(timed_setup(&setup, &mut setup_times)?);
        for (all, win) in windows.iter_mut().zip(run.windows) {
            all.absorb(win);
        }
        spans.extend(run.spans);
    }
    let (mut attempted, mut failed) = (0, 0);
    for (phase, name) in [(MEASURE, "untraced"), (TRACED, "traced")] {
        let win = &windows[phase as usize];
        if win.slices.is_empty() {
            continue;
        }
        let s = &win.stats;
        r.say(format!(
            "{name} slices: {:.2} s, {} transactions ({} given up after {MAX_ATTEMPTS} \
             attempts), {} attempts, {} commits, {} application rollbacks, {} retried \
             concurrency-control aborts, {} other retried errors",
            win.secs(),
            s.txns,
            s.given_up,
            s.attempts,
            s.commits,
            s.app_rollbacks,
            s.aborts,
            s.errors
        ));
        attempted += s.txns;
        failed += s.given_up;
    }
    let untraced = &windows[MEASURE as usize];
    if args.trace {
        per_layer(r, args.kind, untraced, &windows[TRACED as usize]);
        let path = args.out_dir.join(format!("{}.spans.csv", args.kind.name()));
        std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| trace::write_spans(&path, &spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        r.say(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
    } else {
        setup_times.sort_by(f64::total_cmp);
        let setup_s = setup_times[setup_times.len() / 2];
        end_to_end(r, untraced, setup_s, rss.unwrap_or_default());
    }
    Ok((correct, attempted, failed))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut r = Report {
        lines: String::new(),
        metrics: Vec::new(),
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.say(format!(
        "workload {} | seed {} | {} s | trace {} | {CLIENTS} closed-loop clients | {cpus} CPUs",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    r.say(format!("options: {}", args.kind.options()));
    let seed = args.seed;
    let result = match args.kind {
        Kind::SmallBankSsi | Kind::SmallBankSi => {
            let ssi = args.kind == Kind::SmallBankSsi;
            let level = if ssi {
                IsolationLevel::SerializableSnapshotIsolation
            } else {
                IsolationLevel::SnapshotIsolation
            };
            measure(
                &args,
                &mut r,
                || SmallBankBench::setup(level, seed),
                |w, run| w.check(&run.clients, ssi),
            )
        }
        Kind::SiBenchSsi => measure(
            &args,
            &mut r,
            || SiBenchBench::setup(seed),
            |w, run| w.check(&run.clients),
        ),
        Kind::ServedDurable => {
            let base = args
                .out_dir
                .join(format!("served-log-{}", std::process::id()));
            let result = measure(
                &args,
                &mut r,
                || ServedBench::setup(seed, &base),
                |w, _| w.check(),
            );
            let _ = std::fs::remove_dir_all(&base);
            result
        }
    };
    print!("{}", r.lines);
    match result {
        Ok((correct, attempted, failed)) => {
            println!("{}", r.json(correct, attempted.max(1), failed));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
