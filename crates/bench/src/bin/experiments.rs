//! Command-line harness that regenerates the evaluation figures of the
//! thesis (Chapter 6). The `ssi_bench` crate docs and `all_experiments`
//! give the mapping from figures to workloads and engine configurations.
//!
//! ```bash
//! # list experiments
//! cargo run --release -p ssi-bench --bin experiments -- list
//!
//! # run one figure (quick mode)
//! cargo run --release -p ssi-bench --bin experiments -- fig6_7
//!
//! # run everything the thesis reports, with longer measurements
//! cargo run --release -p ssi-bench --bin experiments -- all --duration 5
//!
//! # full data scale (TPC-C standard row counts, longer MPL sweep)
//! cargo run --release -p ssi-bench --bin experiments -- fig6_13 --full --duration 10
//! ```

use std::time::Duration;

use ssi_bench::{all_experiments, find_experiment, format_table, run_experiment, HarnessConfig};

fn print_usage() {
    println!(
        "usage: experiments <list | all | fig6_N ...> [--full] [--duration SECONDS] \
         [--warmup SECONDS] [--seed N]"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        return;
    }

    let mut harness = HarnessConfig::default();
    let mut selected: Vec<String> = Vec::new();
    let mut run_all = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "list" => {
                for def in all_experiments() {
                    println!("{:<9} {:<12} {}", def.id, def.figure, def.title);
                }
                return;
            }
            "all" => run_all = true,
            "--full" => harness.full = true,
            "--duration" => {
                let value = iter.next().expect("--duration requires a value");
                harness.duration = Duration::from_secs_f64(value.parse().expect("seconds"));
            }
            "--warmup" => {
                let value = iter.next().expect("--warmup requires a value");
                harness.warmup = Duration::from_secs_f64(value.parse().expect("seconds"));
            }
            "--seed" => {
                let value = iter.next().expect("--seed requires a value");
                harness.seed = value.parse().expect("seed");
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => selected.push(other.to_string()),
        }
    }

    let experiments = if run_all {
        all_experiments()
    } else {
        let mut chosen = Vec::new();
        for id in &selected {
            match find_experiment(id) {
                Some(def) => chosen.push(def),
                None => {
                    eprintln!("unknown experiment '{id}' (use 'list' to see the catalogue)");
                    std::process::exit(1);
                }
            }
        }
        if chosen.is_empty() {
            print_usage();
            return;
        }
        chosen
    };

    println!(
        "# Serializable SI reproduction — experiment harness\n\
         # mode: {}, duration/point: {:?}, warmup: {:?}, seed: {}\n",
        if harness.full { "full" } else { "quick" },
        harness.duration,
        harness.warmup,
        harness.seed
    );

    for def in experiments {
        eprintln!("running {} ({}) ...", def.id, def.figure);
        let started = std::time::Instant::now();
        let points = run_experiment(&def, &harness);
        println!("{}", format_table(&def, &points));
        eprintln!("  done in {:.1?}\n", started.elapsed());
    }
}
