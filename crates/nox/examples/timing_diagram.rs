//! Replays the paper's timing examples (Figures 2, 3 and 7) cycle by
//! cycle against the actual control state machines, printing the timing
//! diagrams as text.
//!
//! Stimulus (identical for every router, as in §3.2): packet `A` arrives
//! on input port 0 at cycle 0; packets `B` (port 1) and `C` (port 2)
//! arrive simultaneously at cycle 2; all are single-flit packets destined
//! for the same output.
//!
//! ```sh
//! cargo run --release -p nox --example timing_diagram
//! ```

use nox::core::{
    Coded, DecodePort, DecodeStep, NonSpecCtl, OutputCtl, PortId, PortSet, RequestSet, SpecCtl,
    SpecMode,
};

/// One input port of the scripted router: a queue of named packets.
#[derive(Clone)]
struct ScriptPort {
    arrivals: Vec<(u64, char)>, // (cycle, name)
    queue: Vec<char>,
}

impl ScriptPort {
    fn begin(&mut self, cycle: u64) {
        for &(c, name) in &self.arrivals {
            if c == cycle {
                self.queue.push(name);
            }
        }
    }
    fn head(&self) -> Option<char> {
        self.queue.first().copied()
    }
    fn pop(&mut self) -> char {
        self.queue.remove(0)
    }
}

fn ports() -> Vec<ScriptPort> {
    vec![
        ScriptPort {
            arrivals: vec![(0, 'A')],
            queue: vec![],
        },
        ScriptPort {
            arrivals: vec![(2, 'B')],
            queue: vec![],
        },
        ScriptPort {
            arrivals: vec![(2, 'C')],
            queue: vec![],
        },
    ]
}

fn requests(ports: &[ScriptPort]) -> RequestSet {
    let req: PortSet = ports
        .iter()
        .enumerate()
        .filter(|(_, p)| p.head().is_some())
        .map(|(i, _)| PortId(i as u8))
        .collect();
    RequestSet::single_flit(req)
}

fn word(name: char) -> Coded<u64> {
    Coded::plain(name as u64, name as u64)
}

fn names(keys: &[u64]) -> String {
    let glyphs: Vec<String> = keys
        .iter()
        .map(|&k| {
            char::from_u32(k as u32)
                .expect("word keys are packet-name characters by construction")
                .to_string()
        })
        .collect();
    glyphs.join("^")
}

fn main() {
    println!("Stimulus: A on port 0 @ cycle 0; B (port 1) and C (port 2) @ cycle 2.\n");

    // ----------------------------------------------------------- Figure 2
    println!("Figure 2 — NoX transmission timing");
    let mut out = OutputCtl::new(3);
    let mut ps = ports();
    let mut link: Vec<Coded<u64>> = Vec::new();
    for cycle in 0..6u64 {
        ps.iter_mut().for_each(|p| p.begin(cycle));
        // The cycle runs in the mode the controller is in before its tick.
        let mode = out.mode();
        let d = out.tick(requests(&ps));
        let driven: Vec<Coded<u64>> = d
            .drive
            .iter()
            .map(|i| word(ps[i.index()].head().expect("engine drove an empty port")))
            .collect();
        let out_word: Coded<u64> = driven.into_iter().collect();
        let label = if d.drive.is_empty() {
            "-".to_string()
        } else if d.encoded {
            format!("{} (encoded)", names(out_word.keys()))
        } else {
            names(out_word.keys())
        };
        if !d.drive.is_empty() {
            link.push(out_word);
        }
        for i in d.serviced.iter() {
            ps[i.index()].pop();
        }
        println!("  cycle {cycle}: output = {label:<16} mode = {mode:?}");
    }

    // ----------------------------------------------------------- Figure 3
    println!("\nFigure 3 — NoX receive timing (decoding the words above)");
    let mut port = DecodePort::new(link.len());
    link.into_iter().for_each(|w| port.receive(w));
    for cycle in 0..6u64 {
        let line = match port.step() {
            DecodeStep::Idle => "-".to_string(),
            DecodeStep::Latch => {
                port.latch();
                let reg = port.register().expect("a latch fills the register");
                format!("latch {} into decode register", names(reg.keys()))
            }
            DecodeStep::Present(action) => {
                let (word, _) = port.take(action);
                format!("present {} to switch", names(word.keys()))
            }
        };
        println!("  cycle {cycle}: {line}");
    }

    // -------------------------------------------------------- Figure 7a-c
    println!("\nFigure 7a — sequential (non-speculative) router");
    let mut out = NonSpecCtl::new(3);
    let mut ps = ports();
    for cycle in 0..6u64 {
        ps.iter_mut().for_each(|p| p.begin(cycle));
        let d = out.tick(requests(&ps));
        let label = match d.drive.sole() {
            Some(i) => ps[i.index()].pop().to_string(),
            None => "-".to_string(),
        };
        println!("  cycle {cycle}: output = {label}");
    }

    for (mode, fig) in [(SpecMode::Fast, "7b"), (SpecMode::Accurate, "7c")] {
        println!("\nFigure {fig} — Spec-{mode:?} router");
        let mut out = SpecCtl::new(3, mode);
        let mut ps = ports();
        let mut fresh = PortSet::EMPTY;
        for cycle in 0..7u64 {
            ps.iter_mut().for_each(|p| p.begin(cycle));
            let d = out.tick(requests(&ps), fresh);
            fresh = PortSet::EMPTY;
            let label = if !d.wasted.is_empty() {
                "XX (collision: invalid value driven)".to_string()
            } else if d.wasted_reservation {
                "-- (wasted reservation)".to_string()
            } else {
                match d.drive.sole() {
                    Some(i) => {
                        let port = &mut ps[i.index()];
                        let name = port.pop();
                        if port.head().is_some() {
                            fresh.insert(i); // newly exposed next packet
                        }
                        name.to_string()
                    }
                    None => "-".to_string(),
                }
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
