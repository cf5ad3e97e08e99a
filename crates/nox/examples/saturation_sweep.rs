//! A miniature of the paper's Figure 8: latency versus injection
//! bandwidth for all four routers on uniform random traffic, with the
//! crossovers and saturation points called out.
//!
//! ```sh
//! cargo run --release -p nox --example saturation_sweep
//! ```

use nox::analysis::sweep::{crossover_mbps, sweep_with, SweepConfig};
use nox::exec::Executor;
use nox::prelude::*;

fn main() {
    let rates: Vec<f64> = (1..=11).map(|i| i as f64 * 300.0).collect();
    let cfg = SweepConfig::uniform(rates.clone());

    println!(
        "Sweeping {} rates x 4 architectures (this takes a minute)...\n",
        rates.len()
    );
    let exec = Executor::default();
    let series: Vec<_> = Arch::ALL
        .iter()
        .map(|&a| sweep_with(a, &cfg, &exec))
        .collect();

    let mut table = Table::new(
        "Mean packet latency (ns) vs offered load (MB/s/node), uniform random",
        &["MB/s/node", "Non-Spec", "Spec-Fast", "Spec-Acc", "NoX"],
    );
    for (i, &rate) in rates.iter().enumerate() {
        let cell = |s: &nox::analysis::ArchSeries| {
            let p = &s.points[i];
            if p.drained {
                format!("{:.2}", p.latency_ns)
            } else {
                format!("{:.0}*", p.latency_ns)
            }
        };
        table.row([
            format!("{rate:.0}"),
            cell(&series[0]),
            cell(&series[1]),
            cell(&series[2]),
            cell(&series[3]),
        ]);
    }
    println!("{table}");
    println!("(* = saturated: measured packets did not drain)\n");

    for s in &series {
        println!(
            "{:<16} saturation throughput: {:.0} MB/s/node",
            s.arch.name(),
            s.saturation_mbps(15.0)
        );
    }
    let nox = &series[3];
    let acc = &series[2];
    match crossover_mbps(nox, acc) {
        Some(rate) => println!(
            "\nNoX overtakes Spec-Accurate from {rate:.0} MB/s/node upward \
             (the paper's Figure 8a crossover)."
        ),
        None => println!("\nNo NoX/Spec-Accurate crossover within the swept range."),
    }
}
