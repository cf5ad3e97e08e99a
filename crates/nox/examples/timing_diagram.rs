//! Replays the paper's timing examples (Figures 2, 3 and 7) cycle by
//! cycle through a real five-port router of each architecture, printing
//! the timing diagrams as text. The replay is the one the `figs237`
//! harness checks against the paper
//! (`nox::analysis::harness::figs237::replay`).
//!
//! Stimulus (identical for every router, as in §3.2): packet `A` arrives
//! on input port 0 at cycle 0; packets `B` (port 1) and `C` (port 2)
//! arrive simultaneously at cycle 2; all are single-flit packets destined
//! for the same output.
//!
//! ```sh
//! cargo run --release -p nox --example timing_diagram
//! ```

use nox::analysis::harness::figs237::{decode, names, replay};
use nox::core::DecodeStep;
use nox::sim::Arch;

fn main() {
    println!("Stimulus: A on port 0 @ cycle 0; B (port 1) and C (port 2) @ cycle 2.\n");

    println!("Figure 2 — NoX transmission timing");
    let (nox, _) = replay(Arch::Nox, 6);
    for (cycle, c) in nox.iter().enumerate() {
        let label = match &c.sent {
            None => "-".to_string(),
            Some(w) if w.is_encoded() => format!("{} (encoded)", names(w, "^")),
            Some(w) => names(w, "^"),
        };
        // The cycle runs in the mode the controller is in before its tick.
        let mode = c.mode.expect("a NoX output has a mode");
        println!("  cycle {cycle}: output = {label:<16} mode = {mode:?}");
    }

    println!("\nFigure 3 — NoX receive timing (decoding the words above)");
    for (cycle, step) in decode(&nox, 6).iter().enumerate() {
        let line = match step {
            None => "-".to_string(),
            Some((DecodeStep::Latch, w)) => format!("latch {} into decode register", names(w, "^")),
            Some((_, w)) => format!("present {} to switch", names(w, "^")),
        };
        println!("  cycle {cycle}: {line}");
    }

    for (arch, title, cycles) in [
        (Arch::NonSpec, "7a — sequential (non-speculative)", 6),
        (Arch::SpecFast, "7b — Spec-Fast", 7),
        (Arch::SpecAccurate, "7c — Spec-Accurate", 7),
    ] {
        println!("\nFigure {title} router");
        for (cycle, c) in replay(arch, cycles).0.iter().enumerate() {
            let label = match &c.sent {
                _ if c.collided => "XX (collision: invalid value driven)".to_string(),
                _ if c.wasted_reservation => "-- (wasted reservation)".to_string(),
                Some(w) => names(w, "^"),
                None => "-".to_string(),
            };
            println!("  cycle {cycle}: output = {label}");
        }
    }

    println!(
        "\nSummary (§3.2): under the cycle-2 contention the sequential and NoX\n\
         routers forward productively every cycle; both speculative routers burn\n\
         cycle 2 driving an invalid value, and Spec-Fast wastes one more cycle on\n\
         a stale reservation before C finally leaves at cycle 5."
    );
}
