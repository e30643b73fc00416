//! The closed-loop runner shared by every workload.
//!
//! Each client thread issues one transaction at a time and waits for its
//! outcome before it draws the next one. A transaction whose attempt fails
//! with a retryable error is retried with the same inputs, up to
//! [`MAX_ATTEMPTS`] attempts; one that runs out of attempts has failed.
//! The main thread moves all clients through a warm-up and then through a
//! schedule of one-second slices, each untraced or traced. It takes an
//! engine metrics snapshot at every slice boundary and samples the storage
//! version count while a slice runs. Interleaving untraced and traced
//! slices keeps a drift of the machine's speed out of the tracing overhead.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use ssi_core::{Database, MetricsSnapshot};
use ssi_obs::ServerMetrics;

use crate::hist::Hist;
use crate::trace::{Span, TraceStats, Tracer};

pub const WARMUP: u8 = 0;
/// Measured with tracing off.
pub const MEASURE: u8 = 1;
/// Measured with tracing on.
pub const TRACED: u8 = 2;
const STOP: u8 = 3;

/// Length of one slice of the schedule. The end-to-end figures are medians
/// over slices, so a short disturbance from outside moves one slice rather
/// than the whole run.
pub const SLICE: Duration = Duration::from_secs(1);
/// How often a running slice samples the storage version count.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);
/// Attempts of one transaction before the client gives it up as failed.
pub const MAX_ATTEMPTS: u32 = 100;
/// Failed attempts of one transaction that are retried at once; later
/// retries back off (see [`backoff`]).
const EAGER_RETRIES: u32 = 2;

/// The phase and slice the clients are in, packed into one word so that a
/// client reads both with one load: `phase << 16 | slice`.
struct Clock(AtomicU32);

impl Clock {
    fn set(&self, phase: u8, slice: usize) {
        self.0
            .store((phase as u32) << 16 | slice as u32, Ordering::Release);
    }

    fn get(&self) -> (u8, usize) {
        let v = self.0.load(Ordering::Acquire);
        ((v >> 16) as u8, (v & 0xffff) as usize)
    }
}

/// The outcome of one attempt.
pub enum Outcome {
    Committed,
    /// The program itself rolled back (a business outcome, not a failure).
    AppRollback,
    /// A concurrency-control abort; the transaction is retried.
    Aborted,
    /// Any other retryable error (lock timeout, admission shed); retried.
    Error,
    /// A non-retryable error: the run fails.
    Fatal(String),
}

pub trait Workload: Sync {
    type Client: Send;
    type Input;

    /// The state of client `index`, its input generator seeded from the
    /// run's seed.
    fn client(&self, index: usize) -> Result<Self::Client, String>;
    fn next_input(&self, client: &mut Self::Client) -> Self::Input;
    fn attempt(&self, client: &mut Self::Client, input: &Self::Input, t: &mut Tracer) -> Outcome;
    /// The engine, for counters and storage sampling.
    fn db(&self) -> &Database;
    fn server_metrics(&self) -> Option<ServerMetrics> {
        None
    }
}

/// Client-side counts of one phase. A transaction counts in the phase in
/// which it ended; an attempt in the phase in which it ran.
#[derive(Clone, Default)]
pub struct PhaseStats {
    /// Transactions that ended: committed, rolled back by the program, or
    /// given up after [`MAX_ATTEMPTS`] attempts.
    pub txns: u64,
    /// Transactions given up after [`MAX_ATTEMPTS`] attempts.
    pub given_up: u64,
    pub attempts: u64,
    pub commits: u64,
    pub app_rollbacks: u64,
    pub aborts: u64,
    pub errors: u64,
}

impl PhaseStats {
    fn merge(&mut self, o: &PhaseStats) {
        self.txns += o.txns;
        self.given_up += o.given_up;
        self.attempts += o.attempts;
        self.commits += o.commits;
        self.app_rollbacks += o.app_rollbacks;
        self.aborts += o.aborts;
        self.errors += o.errors;
    }
}

/// Storage occupancy at one instant.
#[derive(Clone, Copy)]
pub struct Sample {
    pub versions: u64,
    pub keys: u64,
}

impl Sample {
    pub fn versions_per_key(&self) -> f64 {
        self.versions as f64 / self.keys.max(1) as f64
    }
}

/// What the clients committed in one slice.
#[derive(Clone, Default)]
struct Commits {
    count: u64,
    /// Latency of committed attempts, from the first call to the return of
    /// `commit`, in nanoseconds.
    latency: Hist,
}

impl Commits {
    fn merge(&mut self, o: &Commits) {
        self.count += o.count;
        self.latency.merge(&o.latency);
    }
}

/// One slice of the schedule.
pub struct Slice {
    pub secs: f64,
    pub commits: u64,
    pub latency: Hist,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub server_before: ServerMetrics,
    pub server_after: ServerMetrics,
    pub samples: Vec<Sample>,
}

/// All slices of one phase.
#[derive(Default)]
pub struct Window {
    pub stats: PhaseStats,
    pub slices: Vec<Slice>,
    pub trace: TraceStats,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

impl Window {
    /// Adds another instance's slices of the same phase.
    pub fn absorb(&mut self, other: Window) {
        self.stats.merge(&other.stats);
        self.slices.extend(other.slices);
        self.trace.merge(&other.trace);
    }

    pub fn secs(&self) -> f64 {
        self.slices.iter().map(|s| s.secs).sum()
    }

    pub fn commits_per_s(&self) -> f64 {
        self.slices.iter().map(|s| s.commits).sum::<u64>() as f64 / self.secs()
    }

    /// Median over slices of the slice's commits per second.
    pub fn median_commits_per_s(&self) -> f64 {
        median(
            self.slices
                .iter()
                .map(|s| s.commits as f64 / s.secs)
                .collect(),
        )
    }

    /// Median over slices of the slice's latency `q`-quantile, in µs.
    pub fn median_latency_us(&self, q: f64) -> f64 {
        median(
            self.slices
                .iter()
                .map(|s| s.latency.quantile(q) / 1e3)
                .collect(),
        )
    }

    /// Growth of an engine counter over the window's slices.
    pub fn delta(&self, counter: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
        self.slices
            .iter()
            .map(|s| counter(&s.after) - counter(&s.before))
            .sum()
    }

    /// Growth of a server counter over the window's slices.
    pub fn server_delta(&self, counter: impl Fn(&ServerMetrics) -> u64) -> u64 {
        self.slices
            .iter()
            .map(|s| counter(&s.server_after) - counter(&s.server_before))
            .sum()
    }

    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.slices.iter().flat_map(|s| s.samples.iter())
    }
}

pub struct Run<C> {
    /// Windows by phase: `windows[MEASURE]`, `windows[TRACED]`.
    pub windows: [Window; 3],
    /// Storage samples of the whole schedule, in time order.
    pub samples: Vec<Sample>,
    /// GC passes over the whole schedule.
    pub gc_passes: u64,
    pub clients: Vec<C>,
    pub spans: Vec<Span>,
}

fn sample(db: &Database) -> Sample {
    let mut s = Sample {
        versions: 0,
        keys: 0,
    };
    for name in db.table_names() {
        if let Ok(t) = db.table(&name) {
            s.versions += t.version_count() as u64;
            s.keys += t.key_count() as u64;
        }
    }
    s
}

/// What one client counted.
#[derive(Default)]
struct ClientStats {
    phases: [PhaseStats; 3],
    /// By slice number.
    slices: Vec<Commits>,
}

fn client_loop<W: Workload>(
    w: &W,
    client: &mut W::Client,
    clock: &Clock,
    tracer: &mut Tracer,
    stats: &mut ClientStats,
) -> Result<(), String> {
    loop {
        let input = w.next_input(client);
        for attempt in 1..=MAX_ATTEMPTS {
            let (p, slice) = clock.get();
            if p == STOP {
                return Ok(());
            }
            tracer.begin_attempt(p == TRACED);
            let t0 = Instant::now();
            let outcome = w.attempt(client, &input, tracer);
            let elapsed = t0.elapsed();
            tracer.end_attempt();
            let s = &mut stats.phases[p as usize];
            s.attempts += 1;
            match outcome {
                Outcome::Committed => {
                    s.commits += 1;
                    if p != WARMUP {
                        if stats.slices.len() <= slice {
                            stats.slices.resize_with(slice + 1, Commits::default);
                        }
                        let c = &mut stats.slices[slice];
                        c.count += 1;
                        c.latency.record(elapsed.as_nanos() as u64);
                    }
                    s.txns += 1;
                    break;
                }
                Outcome::AppRollback => {
                    s.app_rollbacks += 1;
                    s.txns += 1;
                    break;
                }
                Outcome::Aborted => s.aborts += 1,
                Outcome::Error => s.errors += 1,
                Outcome::Fatal(e) => return Err(e),
            }
            if attempt == MAX_ATTEMPTS {
                s.txns += 1;
                s.given_up += 1;
            } else {
                backoff(attempt);
            }
        }
    }
}

/// Waits before the retry that follows failed attempt `attempt`: not at
/// all for the first [`EAGER_RETRIES`], then 100 µs doubling up to 1.6 ms.
/// Retried at once, a SmallBank transaction could abort on the same write
/// conflict 100 times in a row while the peer that wrote the row was
/// descheduled in the middle of its commit.
fn backoff(attempt: u32) {
    if attempt > EAGER_RETRIES {
        let shift = (attempt - EAGER_RETRIES - 1).min(4);
        std::thread::sleep(Duration::from_micros(100 << shift));
    }
}

/// What the main thread saw of one slice.
struct Boundary {
    phase: u8,
    secs: f64,
    before: (MetricsSnapshot, Option<ServerMetrics>),
    after: (MetricsSnapshot, Option<ServerMetrics>),
    samples: Vec<Sample>,
}

/// Runs `clients` closed-loop clients through a warm-up and then through
/// one [`SLICE`] per entry of `schedule`, each in the phase it names.
pub fn run<W: Workload>(
    w: &W,
    clients: usize,
    warmup: Duration,
    schedule: &[u8],
) -> Result<Run<W::Client>, String> {
    let clock = Clock(AtomicU32::new(0));
    clock.set(WARMUP, 0);
    let epoch = Instant::now();
    let mut states = (0..clients)
        .map(|i| w.client(i))
        .collect::<Result<Vec<_>, _>>()?;
    let (results, boundaries) = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let clock = &clock;
                scope.spawn(move || {
                    crate::affinity::pin(0, i);
                    let mut tracer = Tracer::new(i, epoch);
                    let mut stats = ClientStats::default();
                    let r = client_loop(w, client, clock, &mut tracer, &mut stats);
                    (r, stats, tracer)
                })
            })
            .collect();

        std::thread::sleep(warmup);
        let mut boundaries = Vec::new();
        let mut before = (w.db().metrics(), w.server_metrics());
        for (slice, &phase) in schedule.iter().enumerate() {
            clock.set(phase, slice);
            let start = Instant::now();
            let mut samples = vec![sample(w.db())];
            while start.elapsed() < SLICE {
                std::thread::sleep(SAMPLE_EVERY.min(SLICE.saturating_sub(start.elapsed())));
                samples.push(sample(w.db()));
            }
            let secs = start.elapsed().as_secs_f64();
            let after = (w.db().metrics(), w.server_metrics());
            boundaries.push(Boundary {
                phase,
                secs,
                before,
                after: after.clone(),
                samples,
            });
            before = after;
        }
        clock.set(STOP, 0);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, boundaries)
    });

    let mut windows: [Window; 3] = Default::default();
    let mut commits = vec![Commits::default(); schedule.len()];
    let mut spans = Vec::new();
    for (r, stats, tracer) in &results {
        r.clone()?;
        for (win, s) in windows.iter_mut().zip(&stats.phases) {
            win.stats.merge(s);
        }
        for (c, s) in commits.iter_mut().zip(&stats.slices) {
            c.merge(s);
        }
        windows[TRACED as usize].trace.merge(&tracer.stats);
        spans.extend_from_slice(tracer.kept());
    }
    let gc_passes = match (boundaries.first(), boundaries.last()) {
        (Some(first), Some(last)) => {
            last.after.0.gc.background_purge_runs - first.before.0.gc.background_purge_runs
        }
        _ => 0,
    };
    let samples = boundaries
        .iter()
        .flat_map(|b| b.samples.iter().copied())
        .collect();
    for (b, c) in boundaries.into_iter().zip(commits) {
        windows[b.phase as usize].slices.push(Slice {
            secs: b.secs,
            commits: c.count,
            latency: c.latency,
            before: b.before.0,
            after: b.after.0,
            server_before: b.before.1.unwrap_or_default(),
            server_after: b.after.1.unwrap_or_default(),
            samples: b.samples,
        });
    }
    Ok(Run {
        windows,
        samples,
        gc_passes,
        clients: states,
        spans,
    })
}
