//! Experiment harness reproducing the evaluation of Chapter 6 of the thesis.
//!
//! Every figure of the evaluation chapter is described by an
//! [`ExperimentDef`]: which workload, which engine configuration
//! (Berkeley-DB-like page locking vs InnoDB-like row locking, log flush at
//! commit or not), which parameters, and which MPL sweep. [`run_experiment`]
//! executes the definition for the three isolation levels the thesis
//! compares (SI, Serializable SI, S2PL) and returns one [`PointResult`] per
//! (level, MPL) pair — exactly the series the thesis plots: committed
//! transactions per second plus aborts per commit broken down into
//! deadlocks, first-committer-wins conflicts and unsafe aborts.
//!
//! The flush-at-commit figures (6.2–6.5) run the real group-commit log of
//! `ssi-wal` over an in-memory device ([`ssi_core::MemVfs`]) whose every
//! fsync takes [`COMMIT_FLUSH_LATENCY`].
//!
//! The `experiments` binary (in `src/bin`) prints these series as text
//! tables; the Criterion benches under `benches/` reuse the same
//! definitions for per-operation microbenchmarks and ablations.

pub mod baseline;
pub mod commit_micro;
pub mod storage_micro;

pub use ssi_obs::hist;

use std::sync::Arc;
use std::time::Duration;

use ssi_common::stats::RunStats;
use ssi_common::{AbortKind, IsolationLevel};
use ssi_core::{
    Database, Durability, FaultMode, FaultOp, FaultRule, FaultVfs, MemVfs, Options, SsiVariant,
};
use ssi_workloads::driver::{run_workload, RunConfig, Workload};
use ssi_workloads::sibench::SiBench;
use ssi_workloads::smallbank::{SmallBank, SmallBankConfig};
use ssi_workloads::tpcc::{ScaleFactor, TpccConfig, TpccWorkload};

/// Which workload an experiment runs, with the parameters the corresponding
/// figure uses.
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// SmallBank on the Berkeley-DB-like engine configuration
    /// (page-granularity locks, basic conflict flags), Sec. 6.1.
    SmallBank {
        /// Number of customers.
        customers: u64,
        /// Number of pages the keys are spread over (controls contention,
        /// ~100 in the hot configuration).
        pages: u64,
        /// SmallBank operations per transaction (1 or 10).
        ops_per_txn: usize,
        /// Log flush at commit: `Some(latency)` runs the real group-commit
        /// log over an in-memory device whose every fsync takes `latency`;
        /// `None` runs without a log (no flush).
        flush: Option<Duration>,
    },
    /// sibench on the InnoDB-like engine configuration, Sec. 6.3.
    SiBench {
        /// Rows in the table.
        items: u64,
        /// Queries issued per update.
        queries_per_update: u32,
    },
    /// TPC-C++ on the InnoDB-like engine configuration, Sec. 6.4.
    Tpcc {
        /// Number of warehouses.
        warehouses: u32,
        /// Use the thesis' "tiny" row scaling instead of standard scaling.
        tiny: bool,
        /// Skip the warehouse/district year-to-date updates.
        skip_ytd: bool,
        /// Use the Stock Level mix (10 SLEV : 1 NEWO).
        stock_level_mix: bool,
    },
}

/// An experiment: one figure of the thesis.
#[derive(Clone, Debug)]
pub struct ExperimentDef {
    /// Identifier used on the command line (e.g. `fig6_7`).
    pub id: &'static str,
    /// The thesis figure it reproduces (e.g. "Figure 6.7").
    pub figure: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// Workload and engine configuration.
    pub spec: WorkloadSpec,
    /// Multiprogramming levels to sweep.
    pub mpls: &'static [usize],
}

/// One measured point of an experiment.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Isolation level of this series.
    pub isolation: IsolationLevel,
    /// Multiprogramming level (worker threads).
    pub mpl: usize,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Deadlock aborts per commit.
    pub deadlocks_per_commit: f64,
    /// First-committer-wins aborts per commit.
    pub conflicts_per_commit: f64,
    /// SSI unsafe aborts per commit.
    pub unsafe_per_commit: f64,
    /// Mean latency of committed transactions.
    pub mean_latency: Duration,
    /// Commit records per log fsync over the point (warm-up included) —
    /// the group-commit batching factor; `None` when the run has no log.
    pub records_per_fsync: Option<f64>,
    /// Raw statistics for further processing.
    pub stats: RunStats,
}

/// Execution settings of the harness (not part of an experiment's identity).
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Measured duration per (level, MPL) point.
    pub duration: Duration,
    /// Warm-up before each measurement.
    pub warmup: Duration,
    /// Use the full data scale from the thesis instead of the reduced
    /// "quick" scale (TPC-C standard row counts; longer MPL sweep).
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            duration: Duration::from_millis(800),
            warmup: Duration::from_millis(150),
            full: false,
            seed: 2008,
        }
    }
}

const QUICK_MPLS: &[usize] = &[1, 2, 5, 10, 20];
const FULL_MPLS: &[usize] = &[1, 2, 3, 5, 10, 20, 30, 50];

/// MPL sweep appropriate for the harness configuration.
pub fn mpl_sweep(def: &ExperimentDef, config: &HarnessConfig) -> Vec<usize> {
    if config.full {
        FULL_MPLS.to_vec()
    } else {
        def.mpls.to_vec()
    }
}

/// The per-fsync device latency of the real group-commit log in the "log
/// flushed at commit" SmallBank experiments. The thesis' 2008 disks took
/// ~10 ms per flush; a smaller value keeps the shape (I/O-bound commits,
/// group-commit scaling) while letting the quick harness finish in
/// reasonable time.
pub const COMMIT_FLUSH_LATENCY: Duration = Duration::from_millis(2);

/// All experiments of Chapter 6, in figure order.
pub fn all_experiments() -> Vec<ExperimentDef> {
    vec![
        ExperimentDef {
            id: "fig6_1",
            figure: "Figure 6.1",
            title: "Berkeley DB SmallBank, no log flush at commit (hot data)",
            spec: WorkloadSpec::SmallBank {
                customers: 1_000,
                pages: 100,
                ops_per_txn: 1,
                flush: None,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_2",
            figure: "Figure 6.2",
            title: "Berkeley DB SmallBank, log flushed at commit (group commit)",
            spec: WorkloadSpec::SmallBank {
                customers: 1_000,
                pages: 100,
                ops_per_txn: 1,
                flush: Some(COMMIT_FLUSH_LATENCY),
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_3",
            figure: "Figure 6.3",
            title: "Berkeley DB SmallBank, complex transactions (10 ops), log flush",
            spec: WorkloadSpec::SmallBank {
                customers: 1_000,
                pages: 100,
                ops_per_txn: 10,
                flush: Some(COMMIT_FLUSH_LATENCY),
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_4",
            figure: "Figure 6.4",
            title: "Berkeley DB SmallBank, 1/10th contention (10x data), log flush",
            spec: WorkloadSpec::SmallBank {
                customers: 10_000,
                pages: 1_000,
                ops_per_txn: 1,
                flush: Some(COMMIT_FLUSH_LATENCY),
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_5",
            figure: "Figure 6.5",
            title: "Berkeley DB SmallBank, complex transactions and low contention",
            spec: WorkloadSpec::SmallBank {
                customers: 10_000,
                pages: 1_000,
                ops_per_txn: 10,
                flush: Some(COMMIT_FLUSH_LATENCY),
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_6",
            figure: "Figure 6.6",
            title: "InnoDB sibench, 10 items, 1 query per update",
            spec: WorkloadSpec::SiBench {
                items: 10,
                queries_per_update: 1,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_7",
            figure: "Figure 6.7",
            title: "InnoDB sibench, 100 items, 1 query per update",
            spec: WorkloadSpec::SiBench {
                items: 100,
                queries_per_update: 1,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_8",
            figure: "Figure 6.8",
            title: "InnoDB sibench, 1000 items, 1 query per update",
            spec: WorkloadSpec::SiBench {
                items: 1_000,
                queries_per_update: 1,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_9",
            figure: "Figure 6.9",
            title: "InnoDB sibench, 10 items, 10 queries per update",
            spec: WorkloadSpec::SiBench {
                items: 10,
                queries_per_update: 10,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_10",
            figure: "Figure 6.10",
            title: "InnoDB sibench, 100 items, 10 queries per update",
            spec: WorkloadSpec::SiBench {
                items: 100,
                queries_per_update: 10,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_11",
            figure: "Figure 6.11",
            title: "InnoDB sibench, 1000 items, 10 queries per update",
            spec: WorkloadSpec::SiBench {
                items: 1_000,
                queries_per_update: 10,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_12",
            figure: "Figure 6.12",
            title: "TPC-C++, 1 warehouse, skipping year-to-date updates",
            spec: WorkloadSpec::Tpcc {
                warehouses: 1,
                tiny: false,
                skip_ytd: true,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_13",
            figure: "Figure 6.13",
            title: "TPC-C++, 10 warehouses, full mix",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: false,
                skip_ytd: false,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_14",
            figure: "Figure 6.14",
            title: "TPC-C++, 10 warehouses, skipping year-to-date updates",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: false,
                skip_ytd: true,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_15",
            figure: "Figure 6.15",
            title: "TPC-C++, 10 warehouses, tiny data scaling (high contention)",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: true,
                skip_ytd: false,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_16",
            figure: "Figure 6.16",
            title: "TPC-C++, tiny data scaling, skipping year-to-date updates",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: true,
                skip_ytd: true,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_17",
            figure: "Figure 6.17",
            title: "TPC-C++ Stock Level mix, 10 warehouses",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: false,
                skip_ytd: false,
                stock_level_mix: true,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_18",
            figure: "Figure 6.18",
            title: "TPC-C++ Stock Level mix, tiny data scaling",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: true,
                skip_ytd: false,
                stock_level_mix: true,
            },
            mpls: QUICK_MPLS,
        },
    ]
}

/// Looks an experiment up by id.
pub fn find_experiment(id: &str) -> Option<ExperimentDef> {
    all_experiments().into_iter().find(|e| e.id == id)
}

/// Builds the engine options an experiment uses for a given isolation level.
///
/// A flush-at-commit spec gets [`Durability::GroupCommit`] over a delayed
/// [`MemVfs`] but no log directory: [`run_experiment`] supplies one.
pub fn options_for(spec: &WorkloadSpec, isolation: IsolationLevel) -> Options {
    match spec {
        WorkloadSpec::SmallBank { pages, flush, .. } => {
            let mut options = Options::berkeley_like(*pages).with_isolation(isolation);
            if let Some(latency) = flush {
                let delay = FaultRule::new(
                    FaultOp::Fsync,
                    FaultMode::Delay {
                        millis: latency.as_millis() as u64,
                    },
                    std::io::ErrorKind::Other,
                );
                let device = FaultVfs::wrapping(Arc::new(MemVfs::default()), vec![delay]);
                options = options.with_vfs(device.handle());
                options.durability.mode = Durability::GroupCommit;
            }
            options
        }
        WorkloadSpec::SiBench { .. } | WorkloadSpec::Tpcc { .. } => {
            Options::innodb_like().with_isolation(isolation)
        }
    }
}

/// Builds the workload an experiment uses (loading its data into `db`).
pub fn build_workload(
    spec: &WorkloadSpec,
    db: &Database,
    harness: &HarnessConfig,
) -> Box<dyn Workload> {
    match spec {
        WorkloadSpec::SmallBank {
            customers,
            ops_per_txn,
            ..
        } => Box::new(SmallBank::setup(
            db,
            SmallBankConfig {
                customers: *customers,
                ops_per_txn: *ops_per_txn,
                initial_balance: 10_000,
                mitigation: Default::default(),
            },
        )),
        WorkloadSpec::SiBench {
            items,
            queries_per_update,
        } => Box::new(SiBench::setup(db, *items, *queries_per_update)),
        WorkloadSpec::Tpcc {
            warehouses,
            tiny,
            skip_ytd,
            stock_level_mix,
        } => {
            // In quick mode the TPC-C experiments always use the thesis'
            // tiny row scaling so that loading stays fast; the warehouse
            // count (the contention knob) is preserved. Full mode uses the
            // exact scaling of the figure.
            let scale = if *tiny || !harness.full {
                ScaleFactor::tiny(*warehouses)
            } else {
                ScaleFactor::standard(*warehouses)
            };
            let mut config = TpccConfig::new(scale).with_skip_ytd(*skip_ytd);
            if *stock_level_mix {
                config = config.with_stock_level_mix();
            }
            Box::new(TpccWorkload::setup(db, config))
        }
    }
}

/// Runs one experiment, returning one point per (isolation level, MPL).
pub fn run_experiment(def: &ExperimentDef, harness: &HarnessConfig) -> Vec<PointResult> {
    let mut results = Vec::new();
    for isolation in IsolationLevel::evaluated() {
        let mut options = options_for(&def.spec, isolation);
        // The log lives on the options' in-memory device; the directory only
        // holds its `wal.lock`, which is taken on the real filesystem.
        let log_dir = (options.durability.mode != Durability::Off).then(|| {
            let name = format!(
                "ssi-{}-{}-{}",
                std::process::id(),
                def.id,
                isolation.label()
            );
            let dir = std::env::temp_dir().join(name);
            std::fs::create_dir_all(&dir).expect("create experiment log dir");
            dir
        });
        options.durability.dir = log_dir.clone();
        let db = Database::try_open(options).expect("open experiment database");
        let workload = build_workload(&def.spec, &db, harness);
        for &mpl in &mpl_sweep(def, harness) {
            let log_before = db.metrics().wal;
            let stats = run_workload(
                &db,
                workload.as_ref(),
                &RunConfig {
                    mpl,
                    warmup: harness.warmup,
                    duration: harness.duration,
                    seed: harness.seed,
                },
            );
            results.push(PointResult {
                isolation,
                mpl,
                throughput: stats.throughput(),
                deadlocks_per_commit: stats.aborts_per_commit(AbortKind::Deadlock),
                conflicts_per_commit: stats.aborts_per_commit(AbortKind::UpdateConflict),
                unsafe_per_commit: stats.aborts_per_commit(AbortKind::Unsafe),
                mean_latency: stats.mean_latency,
                records_per_fsync: log_before.enabled.then(|| {
                    let log = db.metrics().wal;
                    (log.records - log_before.records) as f64
                        / (log.fsyncs - log_before.fsyncs).max(1) as f64
                }),
                stats,
            });
        }
        drop(workload);
        drop(db);
        if let Some(dir) = log_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
    results
}

/// Ablation configurations for the design choices of Chapter 3 (see the
/// `ablation` bench): basic vs enhanced conflict representation, SIREAD
/// upgrade on/off, and the mixed mode that runs read-only queries at SI.
pub fn ablation_options(base: IsolationLevel) -> Vec<(&'static str, Options)> {
    let mut enhanced = Options::default().with_isolation(base);
    enhanced.ssi.variant = SsiVariant::Enhanced;
    let mut basic = Options::default().with_isolation(base);
    basic.ssi.variant = SsiVariant::Basic;
    let mut no_upgrade = Options::default().with_isolation(base);
    no_upgrade.ssi.upgrade_siread = false;
    let mut mixed = Options::default().with_isolation(base);
    mixed.read_only_queries_at_si = true;
    vec![
        ("enhanced", enhanced),
        ("basic-flags", basic),
        ("no-siread-upgrade", no_upgrade),
        ("queries-at-si", mixed),
    ]
}

/// Formats a set of points as an aligned text table (one block per
/// isolation level), matching the series the thesis plots.
pub fn format_table(def: &ExperimentDef, points: &[PointResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} ({}): {}\n", def.id, def.figure, def.title));
    out.push_str(&format!(
        "{:<6} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "level",
        "mpl",
        "commits/s",
        "deadlock/c",
        "conflict/c",
        "unsafe/c",
        "latency_us",
        "rec/fsync"
    ));
    for point in points {
        let batching = point
            .records_per_fsync
            .map_or_else(|| "-".to_string(), |r| format!("{r:.2}"));
        out.push_str(&format!(
            "{:<6} {:>5} {:>12.1} {:>12.4} {:>12.4} {:>12.4} {:>12.1} {:>12}\n",
            point.isolation.label(),
            point.mpl,
            point.throughput,
            point.deadlocks_per_commit,
            point.conflicts_per_commit,
            point.unsafe_per_commit,
            point.mean_latency.as_secs_f64() * 1e6,
            batching,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_are_defined_once() {
        let experiments = all_experiments();
        assert_eq!(experiments.len(), 18, "Figures 6.1 through 6.18");
        let mut ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 18, "experiment ids must be unique");
        for i in 1..=18 {
            assert!(
                find_experiment(&format!("fig6_{i}")).is_some(),
                "missing fig6_{i}"
            );
        }
        assert!(find_experiment("fig9_99").is_none());
    }

    #[test]
    fn options_match_the_prototype_for_each_workload() {
        let sb = find_experiment("fig6_1").unwrap();
        let opts = options_for(&sb.spec, IsolationLevel::SerializableSnapshotIsolation);
        assert!(
            opts.granularity.is_page(),
            "SmallBank runs on the BDB-like engine"
        );
        assert_eq!(opts.durability.mode, Durability::Off, "fig6_1 has no log");
        assert!(opts.durability.vfs.is_none());

        let sb2 = find_experiment("fig6_2").unwrap();
        let opts2 = options_for(&sb2.spec, IsolationLevel::SnapshotIsolation);
        assert_eq!(opts2.durability.mode, Durability::GroupCommit);
        assert!(!opts2.durability.fsync_every_commit);
        // The delayed MemVfs; run_experiment supplies the lock directory.
        assert!(opts2.durability.vfs.is_some() && opts2.durability.dir.is_none());

        let si = find_experiment("fig6_7").unwrap();
        let opts3 = options_for(&si.spec, IsolationLevel::StrictTwoPhaseLocking);
        assert!(
            !opts3.granularity.is_page(),
            "sibench runs on the InnoDB-like engine"
        );
    }

    #[test]
    fn smoke_run_of_a_small_experiment() {
        // A very short run of the smallest sibench figure: all three levels
        // must produce commits at every MPL.
        let def = find_experiment("fig6_6").unwrap();
        let harness = HarnessConfig {
            duration: Duration::from_millis(120),
            warmup: Duration::from_millis(30),
            full: false,
            seed: 1,
        };
        let points = run_experiment(&def, &harness);
        assert_eq!(points.len(), 3 * mpl_sweep(&def, &harness).len());
        assert!(points.iter().all(|p| p.throughput > 0.0));
        let table = format_table(&def, &points);
        assert!(table.contains("fig6_6"));
        assert!(table.contains("SSI"));
    }

    #[test]
    fn smoke_run_of_a_flush_at_commit_experiment() {
        // fig6_2 runs on the real group-commit log with a 2 ms fsync: every
        // level commits at every MPL, concurrency raises throughput, and at
        // MPL >= 2 one fsync covers more than one commit record.
        let def = find_experiment("fig6_2").unwrap();
        let harness = HarnessConfig {
            duration: Duration::from_millis(200),
            warmup: Duration::from_millis(30),
            full: false,
            seed: 1,
        };
        let points = run_experiment(&def, &harness);
        let table = format_table(&def, &points);
        assert_eq!(points.len(), 3 * mpl_sweep(&def, &harness).len());
        for level in IsolationLevel::evaluated() {
            let series: Vec<&PointResult> =
                points.iter().filter(|p| p.isolation == level).collect();
            let (first, last) = (series[0], series[series.len() - 1]);
            assert!(series.iter().all(|p| p.stats.commits > 0), "{table}");
            assert!(last.throughput > first.throughput, "{table}");
            assert!(
                series
                    .iter()
                    .filter(|p| p.mpl >= 2)
                    .all(|p| p.records_per_fsync.is_some_and(|r| r > 1.0)),
                "{table}"
            );
        }
    }

    #[test]
    fn ablation_configurations_differ() {
        let configs = ablation_options(IsolationLevel::SerializableSnapshotIsolation);
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0].1.ssi.variant, SsiVariant::Enhanced);
        assert_eq!(configs[1].1.ssi.variant, SsiVariant::Basic);
        assert!(!configs[2].1.ssi.upgrade_siread);
        assert!(configs[3].1.read_only_queries_at_si);
    }
}
