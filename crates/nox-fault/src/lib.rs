//! `nox-fault` — deterministic fault plans, CRC sidebands, and campaign
//! statistics for the NoX reproduction.
//!
//! The NoX router decodes flits by XORing contiguous link words
//! (`(A^B^C) ^ (B^C) = A`), which makes one corrupted or dropped link
//! word poison *every* later decode in its collision chain. This crate
//! holds the pieces of the fault-tolerance layer that are independent of
//! the simulator:
//!
//! * [`FaultConfig`] / [`FaultPlan`] — a seed-driven description of which
//!   link words flip bits, drop, or duplicate, which credit counters
//!   corrupt, which links are stuck-at-dead, and which router freezes.
//!   Every decision is a pure hash of `(seed, cycle, node, port, salt)`,
//!   so a campaign replays bit-identically regardless of iteration order.
//! * [`crc8`] — the linear CRC-8 sideband used for detection. Linearity
//!   (`crc8(a ^ b) == crc8(a) ^ crc8(b)`) is what lets a CRC sideband
//!   ride through XOR superposition: the check value of an encoded word
//!   is exactly the XOR of its constituents' check values, so an
//!   end-of-chain decode can be verified against the XOR of the
//!   constituent CRCs without ever decoding the sideband itself.
//! * [`FaultStats`] — the counter block a campaign reports: injected vs
//!   detected vs silently corrupted events, containment actions, and
//!   retransmission outcomes.
//!
//! The simulator integration (interception points, chain-kill
//! containment, end-to-end retransmission, fault-aware rerouting) lives
//! in `nox-sim`'s `fault` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The CRC-8 polynomial (x^8 + x^2 + x + 1, "CRC-8/ATM"), used with zero
/// init and zero xor-out so the code stays linear.
pub const CRC8_POLY: u8 = 0x07;

/// Linear CRC-8 over a 64-bit word (zero init, zero xor-out, MSB first).
///
/// Because the code is linear over GF(2), `crc8(a ^ b) == crc8(a) ^
/// crc8(b)`: the sideband of an XOR-superposed link word equals the XOR
/// of its constituents' sidebands, so the receiver can check a decoded
/// flit against recomputed constituent CRCs. Any single-bit payload error
/// is detected (the syndrome of a one-bit error is a nonzero remainder);
/// multi-bit bursts alias with probability ~2^-8.
pub fn crc8(word: u64) -> u8 {
    let mut crc: u8 = 0;
    for byte in word.to_be_bytes() {
        crc ^= byte;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ CRC8_POLY
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// splitmix64 — the same finalizer the simulator uses for flit payloads;
/// here it turns `(seed, cycle, node, port, salt)` into a uniform draw.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// End-to-end retransmission policy: a source re-sends a packet when no
/// acknowledgement arrives within the timeout, doubling the timeout per
/// attempt (exponential backoff) up to `max_attempts` total tries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetxConfig {
    /// Cycles to wait for the first delivery before retransmitting.
    pub timeout_cycles: u64,
    /// Maximum total transmission attempts per packet (>= 1).
    pub max_attempts: u32,
}

impl Default for RetxConfig {
    fn default() -> Self {
        RetxConfig {
            timeout_cycles: 400,
            max_attempts: 6,
        }
    }
}

impl RetxConfig {
    /// The timeout armed after `attempt` transmissions (1-based):
    /// `timeout_cycles * 2^(attempt-1)`, saturating.
    pub fn timeout_after(&self, attempt: u32) -> u64 {
        self.timeout_cycles
            .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(20))
    }
}

/// A hard-failed (stuck-at) unidirectional link, identified by its
/// driving router and output port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeadLink {
    /// Driving router (grid node index).
    pub node: u16,
    /// Output port index on that router.
    pub port: u8,
}

/// A transient whole-router freeze: the router performs no control work
/// for `cycles` cycles starting at `from_cycle` (its buffers still accept
/// arrivals — the credit protocol guarantees space).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterFreeze {
    /// Frozen router (grid node index).
    pub node: u16,
    /// First frozen cycle.
    pub from_cycle: u64,
    /// Number of frozen cycles.
    pub cycles: u64,
}

/// The complete, deterministic description of one fault campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for every per-cycle fault draw.
    pub seed: u64,
    /// Per-link-word probability of a single-bit payload flip.
    pub bit_flip_rate: f64,
    /// Per-link-word probability the word is dropped in flight.
    pub drop_rate: f64,
    /// Per-link-word probability the word is delivered twice.
    pub dup_rate: f64,
    /// Per-cycle probability that one router's credit counter is
    /// corrupted (overclaimed to "all slots free").
    pub credit_corrupt_rate: f64,
    /// Links that are stuck-at-dead from `stuck_from_cycle` on.
    pub dead_links: Vec<DeadLink>,
    /// Cycle from which `dead_links` stop carrying traffic.
    pub stuck_from_cycle: u64,
    /// Optional transient router freeze.
    pub freeze: Option<RouterFreeze>,
    /// Whether the CRC-8 sideband check runs at ejection.
    pub crc_enabled: bool,
    /// End-to-end retransmission, if enabled.
    pub retx: Option<RetxConfig>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            bit_flip_rate: 0.0,
            drop_rate: 0.0,
            dup_rate: 0.0,
            credit_corrupt_rate: 0.0,
            dead_links: Vec::new(),
            stuck_from_cycle: 0,
            freeze: None,
            crc_enabled: false,
            retx: None,
        }
    }
}

impl FaultConfig {
    /// A bit-flip-only campaign with no protection — the configuration
    /// that exposes NoX's chain fragility.
    pub fn bit_flips(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            bit_flip_rate: rate,
            ..Default::default()
        }
    }

    /// The same bit-flip campaign with the full protection stack: CRC
    /// detection plus end-to-end retransmission.
    pub fn protected_bit_flips(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            bit_flip_rate: rate,
            crc_enabled: true,
            retx: Some(RetxConfig::default()),
            ..Default::default()
        }
    }

    /// Validates rates and structure.
    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("bit_flip_rate", self.bit_flip_rate),
            ("drop_rate", self.drop_rate),
            ("dup_rate", self.dup_rate),
            ("credit_corrupt_rate", self.credit_corrupt_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} must be within [0, 1], got {r}"));
            }
        }
        if let Some(rx) = &self.retx {
            if rx.max_attempts == 0 {
                return Err("retx.max_attempts must be >= 1".into());
            }
            if rx.timeout_cycles == 0 {
                return Err("retx.timeout_cycles must be >= 1".into());
            }
        }
        Ok(())
    }
}

/// Salts separating the independent per-site draws.
#[derive(Clone, Copy, Debug)]
enum Salt {
    BitFlip = 1,
    BitIndex = 2,
    Drop = 3,
    Dup = 4,
    CreditCorrupt = 5,
    CreditSite = 6,
}

/// The per-cycle fault scheduler: pure functions of the configured seed,
/// so two walks over the same campaign agree exactly no matter what order
/// the simulator queries sites in.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Wraps a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: FaultConfig) -> Self {
        cfg.validate().expect("invalid fault configuration");
        FaultPlan { cfg }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn draw(&self, cycle: u64, node: u16, port: u8, salt: Salt) -> u64 {
        let mix = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(cycle)
            .wrapping_mul(0xD605_0CB1_1F9B_62D5)
            .wrapping_add(((node as u64) << 16) | ((port as u64) << 8) | salt as u64);
        splitmix64(mix)
    }

    fn bernoulli(&self, cycle: u64, node: u16, port: u8, salt: Salt, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        // Compare the top 53 bits against the rate threshold.
        let draw = self.draw(cycle, node, port, salt) >> 11;
        (draw as f64) < rate * (1u64 << 53) as f64
    }

    /// Should the word launched at `(node, port)` on `cycle` have one
    /// payload bit flipped? Returns the bit index to flip.
    pub fn bit_flip(&self, cycle: u64, node: u16, port: u8) -> Option<u32> {
        self.bernoulli(cycle, node, port, Salt::BitFlip, self.cfg.bit_flip_rate)
            .then(|| (self.draw(cycle, node, port, Salt::BitIndex) % 64) as u32)
    }

    /// Should the word launched at `(node, port)` on `cycle` be dropped?
    pub fn drop(&self, cycle: u64, node: u16, port: u8) -> bool {
        self.bernoulli(cycle, node, port, Salt::Drop, self.cfg.drop_rate)
    }

    /// Should the word launched at `(node, port)` on `cycle` be
    /// duplicated?
    pub fn duplicate(&self, cycle: u64, node: u16, port: u8) -> bool {
        self.bernoulli(cycle, node, port, Salt::Dup, self.cfg.dup_rate)
    }

    /// Does a credit-counter corruption strike on `cycle`? Returns a draw
    /// the caller maps onto one of its `sites` (router/port pairs).
    pub fn credit_corrupt(&self, cycle: u64, sites: usize) -> Option<usize> {
        if sites == 0 {
            return None;
        }
        self.bernoulli(
            cycle,
            0,
            0,
            Salt::CreditCorrupt,
            self.cfg.credit_corrupt_rate,
        )
        .then(|| (self.draw(cycle, 0, 0, Salt::CreditSite) % sites as u64) as usize)
    }

    /// Is the link at `(node, port)` stuck dead on `cycle`?
    pub fn link_dead(&self, cycle: u64, node: u16, port: u8) -> bool {
        cycle >= self.cfg.stuck_from_cycle
            && self
                .cfg
                .dead_links
                .iter()
                .any(|d| d.node == node && d.port == port)
    }

    /// Is router `node` frozen on `cycle`?
    pub fn frozen(&self, cycle: u64, node: u16) -> bool {
        self.cfg.freeze.is_some_and(|f| {
            f.node == node && cycle >= f.from_cycle && cycle < f.from_cycle + f.cycles
        })
    }
}

/// Streaming mean/max accumulator for latency-style metrics, in cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CycleStats {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl CycleStats {
    /// Records one sample.
    pub fn record(&mut self, cycles: u64) {
        self.count += 1;
        self.sum += cycles;
        self.max = self.max.max(cycles);
    }

    /// The mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Everything a fault campaign counts. Injection counters record what the
/// plan actually did; detection counters classify what the protection
/// stack saw; recovery counters track the retransmission protocol.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Link words whose payload was bit-flipped.
    pub injected_bit_flips: u64,
    /// Link words dropped in flight.
    pub injected_drops: u64,
    /// Link words delivered twice.
    pub injected_dups: u64,
    /// Credit counters overclaimed.
    pub injected_credit_corruptions: u64,
    /// Words discarded because their link was stuck-at-dead.
    pub dead_link_drops: u64,
    /// Router-tick cycles suppressed by a freeze.
    pub frozen_cycles: u64,

    /// Corrupted flits caught by the CRC sideband at ejection.
    pub detected_crc: u64,
    /// Decode-register desyncs caught by the FSM self-check (a presented
    /// word that is not a single plain flit).
    pub detected_desync: u64,
    /// Flits discarded for arriving out of sequence (a drop or
    /// duplication upstream).
    pub detected_sequence: u64,
    /// Words dropped at a full input buffer (credit-corruption fallout).
    pub detected_overflow: u64,
    /// Corrupted flits delivered to the core undetected.
    pub silent_corruptions: u64,

    /// Poisoned decode chains truncated (decoder reset + head discard).
    pub chain_kills: u64,
    /// Watchdog deadlock-recovery resets: the network made no progress
    /// for a full stall window (a lost wormhole tail wedging an output
    /// reservation or stream), so every router's control engines were
    /// reset and stuck decode chains flushed.
    pub watchdog_resets: u64,
    /// Flits lost inside containment actions (desync discards).
    pub flits_discarded: u64,
    /// Packets retransmitted end to end.
    pub retransmissions: u64,
    /// Tail ejections discarded as duplicates of an already-delivered
    /// packet (a late original racing its retransmission).
    pub duplicates_discarded: u64,
    /// Packets that exhausted every transmission attempt.
    pub packets_failed: u64,
    /// Packets that needed at least one retransmission and were
    /// ultimately delivered.
    pub packets_recovered: u64,

    /// Injection-to-first-detection latency, in cycles.
    pub detection_latency: CycleStats,
    /// Creation-to-delivery latency of recovered packets, in cycles.
    pub recovery_latency: CycleStats,
}

impl FaultStats {
    /// Total injected fault events.
    pub fn injected_total(&self) -> u64 {
        self.injected_bit_flips
            + self.injected_drops
            + self.injected_dups
            + self.injected_credit_corruptions
            + self.dead_link_drops
    }

    /// Total detections across every detector.
    pub fn detected_total(&self) -> u64 {
        self.detected_crc + self.detected_desync + self.detected_sequence + self.detected_overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc8_is_linear() {
        let words = [0u64, 1, 0xFFFF_FFFF_FFFF_FFFF, 0xDEAD_BEEF_0BAD_F00D, 42];
        for &a in &words {
            for &b in &words {
                assert_eq!(
                    crc8(a ^ b),
                    crc8(a) ^ crc8(b),
                    "crc8 not linear at {a:#x}^{b:#x}"
                );
            }
        }
        assert_eq!(crc8(0), 0);
    }

    #[test]
    fn crc8_detects_every_single_bit_error() {
        for word in [0u64, 0x0123_4567_89AB_CDEF, u64::MAX] {
            for bit in 0..64 {
                assert_ne!(
                    crc8(word),
                    crc8(word ^ (1u64 << bit)),
                    "single-bit flip at {bit} aliased"
                );
            }
        }
    }

    #[test]
    fn plan_is_deterministic_and_order_independent() {
        let plan = FaultPlan::new(FaultConfig::bit_flips(99, 0.05));
        let forward: Vec<Option<u32>> = (0..1000).map(|c| plan.bit_flip(c, 3, 1)).collect();
        let backward: Vec<Option<u32>> = (0..1000).rev().map(|c| plan.bit_flip(c, 3, 1)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        let again: Vec<Option<u32>> = (0..1000).map(|c| plan.bit_flip(c, 3, 1)).collect();
        assert_eq!(forward, again);
    }

    #[test]
    fn plan_rate_is_roughly_honoured() {
        let plan = FaultPlan::new(FaultConfig::bit_flips(7, 0.1));
        let hits = (0..20_000)
            .filter(|&c| plan.bit_flip(c, 0, 0).is_some())
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((0.08..0.12).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn distinct_sites_draw_independently() {
        let plan = FaultPlan::new(FaultConfig::bit_flips(7, 0.5));
        let a: Vec<bool> = (0..64).map(|c| plan.bit_flip(c, 0, 0).is_some()).collect();
        let b: Vec<bool> = (0..64).map(|c| plan.bit_flip(c, 0, 1).is_some()).collect();
        let c: Vec<bool> = (0..64).map(|c| plan.bit_flip(c, 1, 0).is_some()).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_and_one_rates_are_exact() {
        let never = FaultPlan::new(FaultConfig::bit_flips(1, 0.0));
        assert!((0..500).all(|c| never.bit_flip(c, 0, 0).is_none()));
        let always = FaultPlan::new(FaultConfig {
            drop_rate: 1.0,
            ..Default::default()
        });
        assert!((0..500).all(|c| always.drop(c, 0, 0)));
    }

    #[test]
    fn dead_links_and_freeze_windows() {
        let plan = FaultPlan::new(FaultConfig {
            dead_links: vec![DeadLink { node: 5, port: 2 }],
            stuck_from_cycle: 100,
            freeze: Some(RouterFreeze {
                node: 3,
                from_cycle: 10,
                cycles: 5,
            }),
            ..Default::default()
        });
        assert!(!plan.link_dead(99, 5, 2));
        assert!(plan.link_dead(100, 5, 2));
        assert!(!plan.link_dead(100, 5, 1));
        assert!(!plan.frozen(9, 3));
        assert!(plan.frozen(10, 3) && plan.frozen(14, 3));
        assert!(!plan.frozen(15, 3));
        assert!(!plan.frozen(12, 4));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let rx = RetxConfig {
            timeout_cycles: 100,
            max_attempts: 8,
        };
        assert_eq!(rx.timeout_after(1), 100);
        assert_eq!(rx.timeout_after(2), 200);
        assert_eq!(rx.timeout_after(4), 800);
        assert!(rx.timeout_after(80) >= rx.timeout_after(21));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(FaultConfig {
            bit_flip_rate: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FaultConfig {
            retx: Some(RetxConfig {
                timeout_cycles: 0,
                max_attempts: 1
            }),
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
