//! Runtime fault-injection state.
//!
//! This module wires the pure, deterministic machinery of `nox-fault`
//! (fault plans, CRC sidebands, campaign statistics) into the simulator.
//! A [`FaultState`] attached to a [`Network`](crate::network::Network) via
//! [`enable_faults`](crate::network::Network::enable_faults) intercepts
//! every link delivery, may freeze routers or corrupt credit counters,
//! classifies every ejected flit as clean / detected-corrupt / silently
//! corrupt, and drives the end-to-end retransmission protocol.
//!
//! # What the fault layer models
//!
//! * **Injection** — per-word bit flips, drops, and duplications on
//!   links; stuck-at-dead links; per-cycle credit-counter overclaims;
//!   transient whole-router freezes. All draws come from the seeded
//!   [`FaultPlan`], so a campaign replays bit-identically.
//! * **Detection** — a linear CRC-8 sideband checked at ejection
//!   (`crc8(actual) != crc8(expected)` is exactly equivalent to checking
//!   a physically-XORed CRC sideband, because the code is linear); FSM
//!   desync self-checks at every decode register (a presented word that
//!   is not one plain flit); per-packet sequence checks at the NIC; and
//!   buffer-overflow drops from corrupted credit counters.
//! * **Containment** — poisoned XOR chains are truncated ("chain kill")
//!   instead of presenting garbage to the switch, and CRC-detected flits
//!   are discarded at the NIC instead of being delivered wrong.
//! * **Recovery** — sources retransmit undelivered packets after a
//!   timeout with exponential backoff; receivers discard duplicate
//!   deliveries; XY routing detours around stuck-at-dead links.
//!
//! Headers are modeled as protected: the simulator's ground-truth keys
//! (which stand in for the flit header sideband) are never corrupted, so
//! routing and sequence information stay intact and corruption is purely
//! a payload phenomenon. This isolates exactly the failure mode the NoX
//! XOR chain amplifies — one flipped payload bit on an encoded word
//! corrupts *every* flit decoded from that chain.

use std::collections::BTreeMap;

use nox_core::PortId;
pub use nox_fault::{
    crc8, CycleStats, DeadLink, FaultConfig, FaultPlan, FaultStats, RetxConfig, RouterFreeze,
};

use crate::flit::{FlitInfo, FlitKey, PacketId, PacketMeta, Word};
use crate::topology::{NodeId, Topology};

/// Cycles without any flit movement before the deadlock-recovery
/// watchdog fires (resetting control engines and flushing stuck decode
/// chains). Far above any fault-free stall the credit protocol can
/// produce, far below the default retransmission timeout's backoff range.
pub(crate) const WATCHDOG_STALL_CYCLES: u64 = 256;

/// What the fault layer decided for one in-flight link word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LinkFate {
    /// Deliver the (possibly corrupted) word normally.
    Deliver,
    /// Deliver the word twice (a duplication fault).
    DeliverTwice,
    /// The word vanishes in flight (drop or dead link).
    Drop,
}

/// How an ejected flit's payload classified against its ground truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DeliveryClass {
    /// Payload intact.
    Clean,
    /// Payload corrupt, caught by the CRC sideband; discarded at the NIC.
    DetectedCrc,
    /// Payload corrupt and delivered to the core undetected.
    Silent,
}

/// Disposition of a tail-flit ejection for the retransmission protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TailDelivery {
    /// First complete delivery of the logical packet.
    First {
        /// `true` when delivery needed at least one retransmission.
        recovered: bool,
    },
    /// The logical packet was already delivered; this copy is discarded.
    Duplicate,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LogicalStatus {
    /// Awaiting delivery; with retransmission on, a timeout is armed.
    Pending {
        deadline: Option<u64>,
    },
    Delivered,
    Failed,
}

/// One logical packet: the payload the application wants delivered once,
/// across however many physical transmission attempts.
#[derive(Clone, Debug)]
struct Logical {
    src: NodeId,
    dest: NodeId,
    len: u16,
    created: u64,
    attempts: u32,
    status: LogicalStatus,
}

/// A retransmission the network must launch for a timed-out packet.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Retransmit {
    /// Source core.
    pub src: NodeId,
    /// Destination core.
    pub dest: NodeId,
    /// Packet length in flits.
    pub len: u16,
}

/// The complete runtime state of an attached fault campaign.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    stats: FaultStats,
    cur_cycle: u64,
    /// All logical packets, indexed by registration order.
    logicals: Vec<Logical>,
    /// Physical attempt (PacketId) to logical index.
    by_packet: BTreeMap<PacketId, usize>,
    /// Flit keys tagged at bit-flip injection time, for detection-latency
    /// measurement: key -> injection cycle.
    corrupt_since: BTreeMap<u64, u64>,
    /// Credits to swallow per (node, output port) — the balancing side of
    /// a duplication fault, whose second copy occupied an uncredited slot.
    swallow: BTreeMap<(u16, u8), u64>,
    /// Pinned output port per (node, packet), so a mid-campaign dead-link
    /// detour cannot split a wormhole packet across two paths.
    route_cache: BTreeMap<(u16, u64), PortId>,
    /// Progress-counter snapshot for the deadlock watchdog.
    watchdog_last_progress: u64,
    /// Cycle at which progress last advanced.
    watchdog_stall_since: u64,
}

impl FaultState {
    /// Wraps a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FaultConfig::validate`]).
    pub fn new(cfg: FaultConfig) -> Self {
        FaultState {
            plan: FaultPlan::new(cfg),
            stats: FaultStats::default(),
            cur_cycle: 0,
            logicals: Vec::new(),
            by_packet: BTreeMap::new(),
            corrupt_since: BTreeMap::new(),
            swallow: BTreeMap::new(),
            route_cache: BTreeMap::new(),
            watchdog_last_progress: 0,
            watchdog_stall_since: 0,
        }
    }

    /// The campaign statistics accumulated so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The attached fault plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        self.plan.config()
    }

    /// Number of logical packets registered.
    pub fn total_logicals(&self) -> u64 {
        self.logicals.len() as u64
    }

    /// Logical packets delivered exactly once (dedup'd).
    pub fn delivered_logicals(&self) -> u64 {
        self.logicals
            .iter()
            .filter(|l| l.status == LogicalStatus::Delivered)
            .count() as u64
    }

    /// `true` when the retransmission protocol has nothing left to do:
    /// every logical packet is delivered or has exhausted its attempts.
    /// Without retransmission there is no protocol to wait on, so this is
    /// always `true`.
    pub fn settled(&self) -> bool {
        self.plan.config().retx.is_none()
            || self
                .logicals
                .iter()
                .all(|l| !matches!(l.status, LogicalStatus::Pending { .. }))
    }

    // ---------------------------------------------------- network hooks

    pub(crate) fn begin_cycle(&mut self, cycle: u64) {
        self.cur_cycle = cycle;
    }

    /// Registers a physical packet as a fresh logical packet (attempt 1).
    pub(crate) fn register(&mut self, id: PacketId, meta: &PacketMeta) {
        let deadline = self
            .plan
            .config()
            .retx
            .map(|rx| meta.created_cycle + rx.timeout_after(1));
        let idx = self.logicals.len();
        self.logicals.push(Logical {
            src: meta.src,
            dest: meta.dest,
            len: meta.len,
            created: meta.created_cycle,
            attempts: 1,
            status: LogicalStatus::Pending { deadline },
        });
        self.by_packet.insert(id, idx);
    }

    /// Maps a retransmission attempt's packet id onto its logical packet.
    pub(crate) fn map_attempt(&mut self, id: PacketId, logical: usize) {
        self.by_packet.insert(id, logical);
    }

    /// Decides the fate of one in-flight link word, applying any bit flip
    /// in place. Returns the fate plus whether a flip was injected (for
    /// telemetry).
    pub(crate) fn intercept(
        &mut self,
        node: NodeId,
        out: PortId,
        word: &mut Word,
    ) -> (LinkFate, bool) {
        let (c, n, p) = (self.cur_cycle, node.0, out.0);
        if self.plan.link_dead(c, n, p) {
            self.stats.dead_link_drops += 1;
            return (LinkFate::Drop, false);
        }
        if self.plan.drop(c, n, p) {
            self.stats.injected_drops += 1;
            return (LinkFate::Drop, false);
        }
        let mut flipped = false;
        if let Some(bit) = self.plan.bit_flip(c, n, p) {
            word.corrupt_payload(&(1u64 << bit));
            self.stats.injected_bit_flips += 1;
            flipped = true;
            // Tag every constituent for detection-latency measurement.
            // The mask also lands on chain-mates decoded *against* this
            // word; those go untagged, so the latency statistic samples
            // directly-struck flits only.
            for &k in word.keys() {
                self.corrupt_since.entry(k).or_insert(c);
            }
        }
        if self.plan.duplicate(c, n, p) {
            self.stats.injected_dups += 1;
            return (LinkFate::DeliverTwice, flipped);
        }
        (LinkFate::Deliver, flipped)
    }

    /// A duplicated copy actually landed in a downstream buffer: its
    /// eventual release will generate an uncredited return, so one future
    /// credit for this link must be swallowed.
    pub(crate) fn note_dup_delivered(&mut self, node: NodeId, port: u8) {
        *self.swallow.entry((node.0, port)).or_insert(0) += 1;
    }

    /// Should this credit return be swallowed (annihilating a phantom
    /// credit from a duplication fault)?
    pub(crate) fn swallow_credit(&mut self, node: u16, port: u8) -> bool {
        match self.swallow.get_mut(&(node, port)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// A word arrived at a full buffer (credit-corruption fallout) and was
    /// dropped without returning the phantom credit.
    pub(crate) fn note_overflow(&mut self) {
        self.stats.detected_overflow += 1;
    }

    /// Is this router frozen this cycle? Counts suppressed router-cycles.
    pub(crate) fn frozen_tick(&mut self, node: u16) -> bool {
        if self.plan.frozen(self.cur_cycle, node) {
            self.stats.frozen_cycles += 1;
            true
        } else {
            false
        }
    }

    /// Draws this cycle's credit-corruption site, if any, out of `sites`.
    pub(crate) fn credit_corrupt_site(&mut self, sites: usize) -> Option<usize> {
        self.plan.credit_corrupt(self.cur_cycle, sites)
    }

    /// A credit counter was actually overclaimed.
    pub(crate) fn note_credit_corrupted(&mut self) {
        self.stats.injected_credit_corruptions += 1;
    }

    /// A poisoned decode chain was truncated, losing `lost` constituent
    /// keys' worth of superposed state.
    pub(crate) fn note_chain_kill(&mut self, lost: usize) {
        self.stats.detected_desync += 1;
        self.stats.chain_kills += 1;
        self.stats.flits_discarded += lost as u64;
    }

    /// A flit arrived at the NIC out of sequence (drop or duplication
    /// upstream) and was discarded.
    pub(crate) fn note_seq_mismatch(&mut self) {
        self.stats.detected_sequence += 1;
    }

    /// Classifies one decoded flit at ejection against its ground-truth
    /// payload, updating detection statistics.
    pub(crate) fn classify_delivery(&mut self, key: FlitKey, actual: u64) -> DeliveryClass {
        let expected = key.payload();
        if actual == expected {
            // Any earlier mask cancelled out (flip + flip on the same bit).
            self.corrupt_since.remove(&key.pack());
            return DeliveryClass::Clean;
        }
        let tagged = self.corrupt_since.remove(&key.pack());
        if self.plan.config().crc_enabled && crc8(actual) != crc8(expected) {
            self.stats.detected_crc += 1;
            if let Some(c0) = tagged {
                self.stats
                    .detection_latency
                    .record(self.cur_cycle.saturating_sub(c0));
            }
            DeliveryClass::DetectedCrc
        } else {
            // CRC off, or a multi-bit mask aliased (~2^-8 per corrupt flit).
            self.stats.silent_corruptions += 1;
            DeliveryClass::Silent
        }
    }

    /// Records a tail-flit ejection for the retransmission protocol.
    pub(crate) fn note_tail(&mut self, id: PacketId, eject_cycle: u64) -> TailDelivery {
        let Some(&idx) = self.by_packet.get(&id) else {
            // Unregistered packet (faults attached mid-run): pass through.
            return TailDelivery::First { recovered: false };
        };
        let l = &mut self.logicals[idx];
        match l.status {
            LogicalStatus::Delivered => {
                self.stats.duplicates_discarded += 1;
                TailDelivery::Duplicate
            }
            LogicalStatus::Pending { .. } | LogicalStatus::Failed => {
                if l.status == LogicalStatus::Failed {
                    // A write-off arrived after all: un-count the failure.
                    self.stats.packets_failed = self.stats.packets_failed.saturating_sub(1);
                }
                l.status = LogicalStatus::Delivered;
                let recovered = l.attempts > 1;
                if recovered {
                    self.stats.packets_recovered += 1;
                    self.stats
                        .recovery_latency
                        .record(eject_cycle.saturating_sub(l.created));
                }
                TailDelivery::First { recovered }
            }
        }
    }

    /// Collects the retransmissions due this cycle, arming backoff
    /// deadlines and writing off packets that exhausted their attempts.
    pub(crate) fn due_retransmissions(&mut self, cycle: u64) -> Vec<(usize, Retransmit)> {
        let Some(rx) = self.plan.config().retx else {
            return Vec::new();
        };
        let mut due = Vec::new();
        for (idx, l) in self.logicals.iter_mut().enumerate() {
            let LogicalStatus::Pending {
                deadline: Some(deadline),
            } = l.status
            else {
                continue;
            };
            if deadline > cycle {
                continue;
            }
            if l.attempts >= rx.max_attempts {
                l.status = LogicalStatus::Failed;
                self.stats.packets_failed += 1;
                continue;
            }
            l.attempts += 1;
            l.status = LogicalStatus::Pending {
                deadline: Some(cycle + rx.timeout_after(l.attempts)),
            };
            self.stats.retransmissions += 1;
            due.push((
                idx,
                Retransmit {
                    src: l.src,
                    dest: l.dest,
                    len: l.len,
                },
            ));
        }
        due
    }

    /// Deadlock watchdog: `true` when the network made no progress for
    /// [`WATCHDOG_STALL_CYCLES`] and recovery (engine resets + decode
    /// flushes) should fire. `progress` is any monotone counter that
    /// advances whenever a flit moves.
    pub(crate) fn watchdog_due(&mut self, progress: u64) -> bool {
        if progress != self.watchdog_last_progress {
            self.watchdog_last_progress = progress;
            self.watchdog_stall_since = self.cur_cycle;
            return false;
        }
        if self.cur_cycle.saturating_sub(self.watchdog_stall_since) >= WATCHDOG_STALL_CYCLES {
            self.watchdog_stall_since = self.cur_cycle;
            self.stats.watchdog_resets += 1;
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------ router hooks

    fn link_is_dead(&self, node: NodeId, port: PortId) -> bool {
        self.plan.link_dead(self.cur_cycle, node.0, port.0)
    }

    /// Fault-aware route selection: takes the XY-preferred port unless its
    /// link is stuck-at-dead, in which case the detour minimizing the
    /// remaining hop distance over live links is chosen. The choice is
    /// pinned per (router, packet) so wormhole packets stay on one path
    /// even if the dead set changes mid-flight.
    ///
    /// Detours are best-effort graceful degradation: they are deterministic
    /// and minimal-first, but unlike plain XY they are not provably
    /// deadlock-free — the end-to-end retransmission layer (not the
    /// routing function) carries the delivery guarantee under hard faults.
    pub(crate) fn reroute(
        &mut self,
        topo: &Topology,
        node: NodeId,
        info: &FlitInfo,
        preferred: PortId,
    ) -> PortId {
        if self.plan.config().dead_links.is_empty() {
            return preferred;
        }
        let key = (node.0, info.packet.0);
        if info.multiflit && info.seq > 0 {
            if let Some(&pinned) = self.route_cache.get(&key) {
                if info.tail {
                    self.route_cache.remove(&key);
                }
                return pinned;
            }
        }
        let chosen = self.pick_live_port(topo, node, info.dest, preferred);
        if info.multiflit && !info.tail {
            self.route_cache.insert(key, chosen);
        }
        chosen
    }

    fn pick_live_port(
        &self,
        topo: &Topology,
        node: NodeId,
        dest: NodeId,
        preferred: PortId,
    ) -> PortId {
        if topo.is_local(preferred) || !self.link_is_dead(node, preferred) {
            return preferred;
        }
        let dest_router = topo.router_of(dest);
        let mut best: Option<(u32, PortId)> = None;
        for p in 0..topo.ports() {
            let p = PortId(p);
            if topo.is_local(p) || self.link_is_dead(node, p) {
                continue;
            }
            let Some((neighbour, _)) = topo.link_dest(node, p) else {
                continue;
            };
            let d = topo.router_hops(neighbour, dest_router);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, p));
            }
        }
        // Every live link dead-ends: fall back to the preferred port; the
        // word will be counted as a dead-link drop and retransmission
        // (if configured) eventually gives up on the packet.
        best.map_or(preferred, |(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketTable;

    fn meta(src: u16, dest: u16, len: u16, created: u64) -> PacketMeta {
        PacketMeta {
            src: NodeId(src),
            dest: NodeId(dest),
            len,
            created_cycle: created,
            measured: false,
        }
    }

    fn state_with_retx() -> FaultState {
        FaultState::new(FaultConfig {
            retx: Some(RetxConfig {
                timeout_cycles: 100,
                max_attempts: 3,
            }),
            ..Default::default()
        })
    }

    #[test]
    fn retransmission_times_out_backs_off_and_gives_up() {
        let mut st = state_with_retx();
        let mut t = PacketTable::new();
        let id = t.push(meta(0, 5, 2, 0));
        st.register(id, t.meta(id));

        assert!(st.due_retransmissions(99).is_empty());
        // Attempt 2 at the first deadline.
        let due = st.due_retransmissions(100);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].1.len, 2);
        assert_eq!(st.stats().retransmissions, 1);
        // Backoff doubled: next deadline is 100 + 200.
        assert!(st.due_retransmissions(299).is_empty());
        let due = st.due_retransmissions(300);
        assert_eq!(due.len(), 1);
        // Attempt 3 armed a 400-cycle deadline (300 + 400 = 700); its
        // expiry exhausts max_attempts and writes the packet off.
        assert!(st.due_retransmissions(699).is_empty());
        assert_eq!(st.stats().packets_failed, 0);
        assert!(st.due_retransmissions(700).is_empty());
        assert_eq!(st.stats().packets_failed, 1);
        assert!(st.settled());
        assert_eq!(st.delivered_logicals(), 0);
    }

    #[test]
    fn tail_delivery_dedups_and_counts_recovery() {
        let mut st = state_with_retx();
        let mut t = PacketTable::new();
        let id = t.push(meta(0, 5, 1, 0));
        st.register(id, t.meta(id));
        let due = st.due_retransmissions(100);
        let retry = t.push(meta(0, 5, 1, 100));
        st.map_attempt(retry, due[0].0);

        // The retry lands first; the late original is a duplicate.
        assert_eq!(
            st.note_tail(retry, 150),
            TailDelivery::First { recovered: true }
        );
        assert_eq!(st.note_tail(id, 160), TailDelivery::Duplicate);
        assert_eq!(st.stats().packets_recovered, 1);
        assert_eq!(st.stats().duplicates_discarded, 1);
        assert_eq!(st.stats().recovery_latency.max, 150);
        assert_eq!(st.delivered_logicals(), 1);
        assert!(st.settled());
    }

    #[test]
    fn classify_detects_with_crc_and_is_silent_without() {
        let key = FlitKey {
            packet: PacketId(7),
            seq: 0,
        };
        let mut unprot = FaultState::new(FaultConfig::bit_flips(1, 0.0));
        assert_eq!(
            unprot.classify_delivery(key, key.payload()),
            DeliveryClass::Clean
        );
        assert_eq!(
            unprot.classify_delivery(key, key.payload() ^ 4),
            DeliveryClass::Silent
        );
        let mut prot = FaultState::new(FaultConfig::protected_bit_flips(1, 0.0));
        assert_eq!(
            prot.classify_delivery(key, key.payload() ^ 4),
            DeliveryClass::DetectedCrc
        );
        assert_eq!(prot.stats().detected_crc, 1);
        assert_eq!(unprot.stats().silent_corruptions, 1);
    }

    #[test]
    fn intercept_flips_exactly_one_payload_bit() {
        let mut st = FaultState::new(FaultConfig::bit_flips(3, 1.0));
        st.begin_cycle(5);
        let key = FlitKey {
            packet: PacketId(1),
            seq: 0,
        };
        let mut w = crate::flit::word_for(key);
        let (fate, flipped) = st.intercept(NodeId(0), PortId(1), &mut w);
        assert_eq!(fate, LinkFate::Deliver);
        assert!(flipped);
        assert_eq!(w.sole_key(), Some(key.pack()), "keys must stay intact");
        assert_eq!(
            (*w.payload() ^ key.payload()).count_ones(),
            1,
            "exactly one bit flipped"
        );
        assert_eq!(st.stats().injected_bit_flips, 1);
    }

    #[test]
    fn swallowed_credits_balance_duplications() {
        let mut st = FaultState::new(FaultConfig::default());
        st.note_dup_delivered(NodeId(3), 2);
        assert!(st.swallow_credit(3, 2));
        assert!(!st.swallow_credit(3, 2));
        assert!(!st.swallow_credit(3, 1));
    }

    #[test]
    fn reroute_detours_around_a_dead_link_and_pins_the_packet() {
        let topo = Topology::mesh(4, 4);
        // Node 5 = (1,1) heading to node 7 = (3,1): XY prefers East.
        let preferred = topo.route(NodeId(5), NodeId(7));
        let mut st = FaultState::new(FaultConfig {
            dead_links: vec![DeadLink {
                node: 5,
                port: preferred.0,
            }],
            ..Default::default()
        });
        let mut t = PacketTable::new();
        let id = t.push(meta(5, 7, 2, 0));
        let head = t.flit_info(FlitKey { packet: id, seq: 0 });
        let tail = t.flit_info(FlitKey { packet: id, seq: 1 });

        let chosen = st.reroute(&topo, NodeId(5), &head, preferred);
        assert_ne!(chosen, preferred, "must detour off the dead link");
        assert!(!topo.is_local(chosen));
        // The tail follows the pinned choice even though it re-routes.
        assert_eq!(st.reroute(&topo, NodeId(5), &tail, preferred), chosen);
        // Pin is released after the tail.
        assert!(st.route_cache.is_empty());
    }

    #[test]
    fn reroute_is_identity_without_dead_links() {
        let topo = Topology::mesh(4, 4);
        let mut st = FaultState::new(FaultConfig::bit_flips(1, 0.5));
        let mut t = PacketTable::new();
        let id = t.push(meta(5, 7, 1, 0));
        let info = t.flit_info(FlitKey { packet: id, seq: 0 });
        let preferred = topo.route(NodeId(5), NodeId(7));
        assert_eq!(st.reroute(&topo, NodeId(5), &info, preferred), preferred);
    }
}
