//! Bounded scenario generation: every way to feed a small number of
//! packets into the colliding inputs of one output port.
//!
//! A scenario fixes the *structure* of the traffic — how many inputs, the
//! packet-length sequence each input injects, the downstream buffer depth,
//! and the controller options. Everything about *timing* (arrival
//! interleaving, credit latency, receiver stalls) is left to the checker's
//! nondeterministic environment, so one scenario covers every schedule of
//! its traffic.

use nox_core::NoxOptions;

/// One script flit as the sender's input port sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Flit {
    /// Globally unique flit key (unique across the whole scenario).
    pub key: u64,
    /// `true` if this flit belongs to a multi-flit packet.
    pub multiflit: bool,
    /// `true` if this flit is the last of its packet.
    pub tail: bool,
}

/// A fixed traffic pattern to exhaustively explore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Per input: the sequence of packet lengths it injects.
    pub inputs: Vec<Vec<u16>>,
    /// Downstream buffer depth (= initial credits).
    pub depth: u8,
    /// Controller options (scheduled mode on/off).
    pub options: NoxOptions,
}

impl Scenario {
    /// Total flits injected across all inputs.
    pub fn total_flits(&self) -> u32 {
        self.inputs
            .iter()
            .flat_map(|pkts| pkts.iter())
            .map(|&l| l as u32)
            .sum()
    }

    /// Expands the packet lengths into per-input flit scripts with
    /// globally unique keys.
    pub fn scripts(&self) -> Vec<Vec<Flit>> {
        let mut key = 1u64;
        self.inputs
            .iter()
            .map(|pkts| {
                let mut script = Vec::new();
                for &len in pkts {
                    for seq in 0..len {
                        script.push(Flit {
                            key,
                            multiflit: len > 1,
                            tail: seq + 1 == len,
                        });
                        key += 1;
                    }
                }
                script
            })
            .collect()
    }

    /// Compact human-readable identifier used in violation reports.
    pub fn label(&self) -> String {
        let pkts: Vec<String> = self
            .inputs
            .iter()
            .map(|p| {
                let lens: Vec<String> = p.iter().map(|l| l.to_string()).collect();
                format!("[{}]", lens.join(","))
            })
            .collect();
        format!(
            "n={} depth={} sched={} pkts={}",
            self.inputs.len(),
            self.depth,
            if self.options.scheduled_mode {
                "on"
            } else {
                "off"
            },
            pkts.join("")
        )
    }
}

/// Limits on the scenario sweep and on each scenario's exploration.
#[derive(Clone, Debug)]
pub struct Bounds {
    /// Maximum number of colliding inputs.
    pub max_inputs: u8,
    /// Maximum flits injected per scenario (all inputs combined).
    pub max_total_flits: u16,
    /// Maximum flits per packet.
    pub max_packet_len: u16,
    /// Buffer depths to sweep.
    pub depths: Vec<u8>,
    /// Per-scenario cap on explored states; exceeding it is reported as
    /// non-exhaustion, never silently truncated.
    pub max_states: usize,
    /// Liveness bound is `liveness_per_flit * total_flits + 16` fair
    /// cycles.
    pub liveness_per_flit: u32,
}

impl Bounds {
    /// Small bounds for tests and CI: up to 3 colliding inputs, 4 flits.
    /// Every documented mutation is catchable within these bounds.
    pub fn quick() -> Self {
        Bounds {
            max_inputs: 3,
            max_total_flits: 4,
            max_packet_len: 3,
            depths: vec![1, 2],
            max_states: 200_000,
            liveness_per_flit: 8,
        }
    }

    /// Full bounds for `noxsim run verify`: up to 5 colliding inputs (the
    /// paper's worst case for a 5-port mesh router), deeper buffers.
    pub fn full() -> Self {
        Bounds {
            max_inputs: 5,
            max_total_flits: 5,
            max_packet_len: 4,
            depths: vec![1, 2, 4],
            max_states: 2_000_000,
            liveness_per_flit: 8,
        }
    }

    /// Liveness bound for one scenario.
    pub fn liveness_k(&self, sc: &Scenario) -> u32 {
        self.liveness_per_flit * sc.total_flits() + 16
    }
}

/// Every packet-length sequence (ordered) with total length at most
/// `budget` and each packet at most `max_len` flits.
fn packet_sequences(budget: u16, max_len: u16) -> Vec<Vec<u16>> {
    let mut out = vec![Vec::new()];
    for len in 1..=max_len.min(budget) {
        for mut tail in packet_sequences(budget - len, max_len) {
            tail.insert(0, len);
            out.push(tail);
        }
    }
    out
}

/// Enumerates every scenario within `bounds`: for each input count,
/// depth, and option set, the cartesian product of per-input packet
/// sequences whose combined flit count stays within the budget.
pub fn scenarios(bounds: &Bounds) -> Vec<Scenario> {
    let mut out = Vec::new();
    for n in 1..=bounds.max_inputs {
        let mut assignments: Vec<Vec<Vec<u16>>> = vec![Vec::new()];
        for _ in 0..n {
            let mut next = Vec::new();
            for partial in &assignments {
                let used: u16 = partial.iter().flat_map(|p| p.iter()).sum();
                for seq in packet_sequences(bounds.max_total_flits - used, bounds.max_packet_len) {
                    let mut ext = partial.clone();
                    ext.push(seq);
                    next.push(ext);
                }
            }
            assignments = next;
        }
        for inputs in assignments {
            // Require the last input to inject something, otherwise the
            // scenario is identical to a smaller-n scenario.
            if inputs.last().is_none_or(|p| p.is_empty()) {
                continue;
            }
            if inputs.iter().flat_map(|p| p.iter()).sum::<u16>() == 0 {
                continue;
            }
            for &depth in &bounds.depths {
                for scheduled_mode in [true, false] {
                    out.push(Scenario {
                        inputs: inputs.clone(),
                        depth,
                        options: NoxOptions { scheduled_mode },
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_sequences_are_bounded_and_complete() {
        let seqs = packet_sequences(3, 2);
        // {}, {1}, {2}, {1,1}, {1,2}, {2,1}, {1,1,1}
        assert_eq!(seqs.len(), 7);
        assert!(seqs.iter().all(|s| s.iter().sum::<u16>() <= 3));
        assert!(seqs.iter().all(|s| s.iter().all(|&l| (1..=2).contains(&l))));
    }

    #[test]
    fn scripts_number_flits_uniquely_and_mark_tails() {
        let sc = Scenario {
            inputs: vec![vec![2], vec![1]],
            depth: 2,
            options: NoxOptions::default(),
        };
        let scripts = sc.scripts();
        assert_eq!(scripts[0].len(), 2);
        assert_eq!(scripts[1].len(), 1);
        assert!(scripts[0][0].multiflit && !scripts[0][0].tail);
        assert!(scripts[0][1].multiflit && scripts[0][1].tail);
        assert!(!scripts[1][0].multiflit && scripts[1][0].tail);
        let keys: Vec<u64> = scripts.iter().flatten().map(|f| f.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn scenario_sweep_is_nonempty_and_within_bounds() {
        let bounds = Bounds::quick();
        let all = scenarios(&bounds);
        assert!(!all.is_empty());
        for sc in &all {
            assert!(sc.inputs.len() <= bounds.max_inputs as usize);
            assert!(sc.total_flits() >= 1);
            assert!(sc.total_flits() <= bounds.max_total_flits as u32);
            assert!(!sc.inputs.last().unwrap().is_empty());
        }
    }
}
