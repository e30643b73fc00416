//! Ablation benchmarks for the design choices Chapter 3 discusses:
//!
//! * basic boolean conflict flags (Sec. 3.2) vs the enhanced
//!   transaction-reference representation (Sec. 3.6) — the enhanced variant
//!   exists purely to reduce false-positive aborts;
//! * the SIREAD-upgrade optimization (Sec. 3.7.3) — without it read-modify-
//!   write transactions stay suspended after commit and the lock table
//!   grows;
//! * running read-only queries at plain SI (Sec. 3.8).
//!
//! Each configuration runs a short concurrent SmallBank burst; Criterion
//! reports time per committed transaction, and the abort ratio is printed to
//! stderr. The configurations come from `ssi_bench::ablation_options`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ssi_bench::ablation_options;
use ssi_common::IsolationLevel;
use ssi_core::Database;
use ssi_workloads::driver::{run_workload, RunConfig};
use ssi_workloads::smallbank::{SmallBank, SmallBankConfig};

fn bench_ssi_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssi_ablation_smallbank");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    for (name, options) in ablation_options(IsolationLevel::SerializableSnapshotIsolation) {
        let db = Database::open(options);
        let bank = SmallBank::setup(
            &db,
            SmallBankConfig {
                customers: 200,
                ops_per_txn: 1,
                initial_balance: 10_000,
                mitigation: Default::default(),
            },
        );
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter_custom(|_iters| {
                let stats = run_workload(
                    &db,
                    &bank,
                    &RunConfig {
                        mpl: 8,
                        warmup: Duration::from_millis(50),
                        duration: Duration::from_millis(200),
                        seed: 3,
                    },
                );
                eprintln!(
                    "ablation {name}: {:.0} commits/s, abort ratio {:.4} (unsafe {:.4})",
                    stats.throughput(),
                    stats.abort_ratio(),
                    stats.aborts_per_commit(ssi_common::AbortKind::Unsafe),
                );
                if stats.commits == 0 {
                    Duration::from_millis(200)
                } else {
                    Duration::from_millis(200) / stats.commits as u32
                }
            })
        });
    }
    group.finish();
}

fn bench_granularity(c: &mut Criterion) {
    // Row-level vs page-level locking for the same workload: the page-level
    // configuration detects more (false) conflicts, trading throughput for
    // the simpler Berkeley DB engine model (Sec. 6.1.5).
    use ssi_core::Options;
    let mut group = c.benchmark_group("granularity_smallbank");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    let configs = [
        ("row", Options::innodb_like()),
        ("page100", Options::berkeley_like(100)),
        ("page1000", Options::berkeley_like(1000)),
    ];
    for (name, options) in configs {
        let db = Database::open(options);
        let bank = SmallBank::setup(
            &db,
            SmallBankConfig {
                customers: 1000,
                ops_per_txn: 1,
                initial_balance: 10_000,
                mitigation: Default::default(),
            },
        );
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter_custom(|_iters| {
                let stats = run_workload(
                    &db,
                    &bank,
                    &RunConfig {
                        mpl: 8,
                        warmup: Duration::from_millis(50),
                        duration: Duration::from_millis(200),
                        seed: 5,
                    },
                );
                eprintln!(
                    "granularity {name}: {:.0} commits/s, unsafe/commit {:.4}",
                    stats.throughput(),
                    stats.aborts_per_commit(ssi_common::AbortKind::Unsafe),
                );
                if stats.commits == 0 {
                    Duration::from_millis(200)
                } else {
                    Duration::from_millis(200) / stats.commits as u32
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ssi_variants, bench_granularity);
criterion_main!(benches);
