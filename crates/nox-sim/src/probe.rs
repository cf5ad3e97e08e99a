//! `nox-probe` telemetry hooks: per-router metrics, event traces, and
//! latency decomposition.
//!
//! The paper instruments its simulator "with necessary event counters to
//! form an accurate power model" (§4), but [`Counters`](crate::stats::Counters)
//! is network-global: it can reproduce Figure 12 yet cannot show *where*
//! contention lives. A [`Probe`] collector closes that gap with three
//! layers:
//!
//! 1. **Per-router / per-link time-windowed metrics** — link utilization,
//!    input-buffer occupancy, encoded-chain-length histograms, per-output
//!    NoX FSM mode occupancy (Recovery / Scheduled / Stream), collision and
//!    abort counts — accumulated per fixed-size cycle window with
//!    saturation-onset detection.
//! 2. **Cycle-level event traces** — a bounded ring buffer of injection,
//!    link-word, wasted-cycle, decode-latch, and ejection events, which
//!    the `nox-probe` crate exports as Chrome trace-event JSON or as the
//!    textual waveforms used for the paper's Figure 2/3/7 diagrams.
//! 3. **Per-packet latency decomposition** — source-queueing time versus
//!    in-network time, each with streaming moments and a log-bucketed
//!    histogram for percentile queries.
//!
//! # The seam
//!
//! The step loop, the router tick and the sinks never name the
//! collector. They call the hooks of a [`ProbeSlot`] unconditionally; the
//! slot holds the collector `Network::enable_probe` attached, if any, and
//! each hook is one `Option` test. Like the sanitizer, the fault layer
//! and the phase clock, the probe is always compiled and switched at run
//! time (DESIGN.md, "Build configurations").

use nox_core::PortId;

use crate::flit::{FlitKey, PacketId};
use crate::router::{Router, Send};
use crate::sink::Sink;
use crate::topology::NodeId;

mod collector;
pub use collector::{
    EventKind, LatencyBreakdown, Probe, ProbeConfig, RouterMetrics, TraceEvent, WindowSummary,
    SATURATION_UTIL,
};

/// Where a [`Network`](crate::network::Network) keeps its telemetry
/// collector: the collector attached by `Network::enable_probe`, if any.
#[derive(Clone, Debug, Default)]
pub struct ProbeSlot(Option<Box<Probe>>);

impl ProbeSlot {
    /// Marks the start of a network cycle; router-side hooks use this to
    /// timestamp events.
    #[inline]
    pub(crate) fn on_cycle_start(&mut self, cycle: u64) {
        if let Some(p) = &mut self.0 {
            p.on_cycle_start(cycle);
        }
    }

    /// A flit entered the network at `core`'s source.
    #[inline]
    pub(crate) fn on_inject(&mut self, cycle: u64, core: NodeId, key: FlitKey) {
        if let Some(p) = &mut self.0 {
            p.on_inject(cycle, core, key);
        }
    }

    /// A router input (or sink) latched an encoded word into its decode
    /// register.
    #[inline]
    pub(crate) fn on_latch(&mut self, node: NodeId, input: PortId) {
        if let Some(p) = &mut self.0 {
            p.on_latch(node, input);
        }
    }

    /// A packet's tail flit was consumed at its destination on `cycle`.
    #[inline]
    pub(crate) fn on_eject(&mut self, cycle: u64, core: NodeId, packet: PacketId, created: u64) {
        if let Some(p) = &mut self.0 {
            p.on_eject(cycle, core, packet, created);
        }
    }

    /// A NoX output drove a productive encoded word of `chain_len` flits.
    #[inline]
    pub(crate) fn on_encoded(&mut self, node: NodeId, out: PortId, chain_len: u8) {
        if let Some(p) = &mut self.0 {
            p.on_encoded(node, out, chain_len);
        }
    }

    /// An output drove an invalid word: a NoX abort or a speculative
    /// collision.
    #[inline]
    pub(crate) fn on_wasted(&mut self, node: NodeId, out: PortId, colliding: u8, abort: bool) {
        if let Some(p) = &mut self.0 {
            p.on_wasted(node, out, colliding, abort);
        }
    }

    /// A fault-campaign event: injection, detection, or recovery.
    #[inline]
    pub(crate) fn on_fault(&mut self, node: NodeId, port: PortId, label: &'static str) {
        if let Some(p) = &mut self.0 {
            p.on_fault(node, port, label);
        }
    }

    /// End-of-cycle sampling: this cycle's launched link words, buffer
    /// occupancies, and NoX FSM modes.
    #[inline]
    pub(crate) fn on_cycle_end(
        &mut self,
        cycle: u64,
        sends: &[Send],
        routers: &[Router],
        sinks: &[Sink],
    ) {
        if let Some(p) = &mut self.0 {
            p.on_cycle_end(cycle, sends, routers, sinks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Arch, NetConfig};
    use crate::network::Network;
    use crate::trace::{PacketEvent, Trace};

    fn contended_trace(n: usize) -> Trace {
        // Two sources equidistant from a common destination sending
        // simultaneous packets: their flits reach the merge router on the
        // same cycle, guaranteeing collisions, but the spacing (4 ns >>
        // clock) keeps every link far from saturation.
        let mut t = Trace::new();
        for i in 0..n {
            for src in [6u16, 9] {
                t.push(PacketEvent {
                    time_ns: i as f64 * 4.0,
                    src: NodeId(src),
                    dest: NodeId(10),
                    len: 1,
                });
            }
        }
        t
    }

    fn probed_net(arch: Arch) -> Network {
        let mut net = Network::new(
            NetConfig::small(arch),
            &contended_trace(40),
            (0.0, f64::MAX),
        );
        net.enable_probe(ProbeConfig {
            window_cycles: 64,
            ring_capacity: 4_096,
        });
        net
    }

    #[test]
    fn probe_counts_match_global_counters() {
        for arch in Arch::ALL {
            let mut net = probed_net(arch);
            assert!(net.run_to_quiescence(100_000), "{arch} failed to drain");
            let c = *net.counters();
            let mut probe = net.take_probe().expect("probe attached");
            probe.finish();
            let totals_busy: u64 = probe
                .totals()
                .iter()
                .map(|r| r.link_busy.iter().sum::<u64>())
                .sum();
            let totals_wasted: u64 = probe
                .totals()
                .iter()
                .map(|r| r.link_wasted.iter().sum::<u64>())
                .sum();
            assert_eq!(totals_busy, c.link_flits, "{arch} productive words");
            assert_eq!(totals_wasted, c.link_wasted, "{arch} wasted words");
            let encoded: u64 = probe.totals().iter().map(|r| r.encoded).sum();
            assert_eq!(encoded, c.encoded_transfers, "{arch} encoded words");
            let aborts: u64 = probe.totals().iter().map(|r| r.aborts).sum();
            assert_eq!(aborts, c.aborts, "{arch} aborts");
            let collisions: u64 = probe.totals().iter().map(|r| r.collisions).sum();
            assert_eq!(collisions, c.collisions, "{arch} collisions");
        }
    }

    #[test]
    fn decomposition_components_sum_to_total() {
        let mut net = probed_net(Arch::Nox);
        assert!(net.run_to_quiescence(100_000));
        let mut probe = net.take_probe().expect("probe attached");
        probe.finish();
        let b = probe.breakdown();
        assert_eq!(b.total.count(), 80, "all packets decomposed");
        assert_eq!(b.queue.count(), b.network.count());
        let sum = b.queue.sum() + b.network.sum();
        assert!(
            (sum - b.total.sum()).abs() < 1e-6 * b.total.sum().max(1.0),
            "queue + network must equal total: {} vs {}",
            sum,
            b.total.sum()
        );
        assert!(b.total_hist.percentile(99.0) >= b.total_hist.percentile(50.0));
    }

    #[test]
    fn nox_contention_produces_encoded_events_and_mode_occupancy() {
        let mut net = probed_net(Arch::Nox);
        assert!(net.run_to_quiescence(100_000));
        let mut probe = net.take_probe().expect("probe attached");
        probe.finish();
        let modes = probe.mode_occupancy();
        assert!(modes[0] > 0, "Recovery cycles observed");
        let chain = probe.chain_histogram();
        assert!(chain[2] > 0, "two-flit encoded words observed: {chain:?}");
        assert!(probe
            .events()
            .any(|e| matches!(e.kind, EventKind::Send { encoded: true, .. })));
        assert!(probe.events().any(|e| matches!(e.kind, EventKind::Latch)));
    }

    #[test]
    fn windows_cover_the_run() {
        let mut net = probed_net(Arch::SpecAccurate);
        assert!(net.run_to_quiescence(100_000));
        let mut probe = net.take_probe().expect("probe attached");
        probe.finish();
        let total: u64 = probe.windows().iter().map(|w| w.cycles).sum();
        assert_eq!(total, probe.cycles_observed());
        assert!(probe.windows().len() >= 2, "expected multiple windows");
        // Light load: nothing should look saturated.
        assert_eq!(probe.saturation_onset_cycle(), None);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let mut net = Network::new(
            NetConfig::small(Arch::Nox),
            &contended_trace(200),
            (0.0, f64::MAX),
        );
        net.enable_probe(ProbeConfig {
            window_cycles: 32,
            ring_capacity: 16,
        });
        assert!(net.run_to_quiescence(200_000));
        let probe = net.probe().expect("probe attached");
        assert!(probe.events().count() <= 16);
        assert!(probe.events_dropped() > 0);
    }

    #[test]
    fn saturation_onset_detected_under_overload() {
        // Every node floods node 0: the ejection link must saturate.
        let mut t = Trace::new();
        for i in 0..400 {
            for src in 1..16u16 {
                t.push(PacketEvent {
                    time_ns: i as f64 * 0.8,
                    src: NodeId(src),
                    dest: NodeId(0),
                    len: 1,
                });
            }
        }
        let mut net = Network::new(NetConfig::small(Arch::Nox), &t, (0.0, f64::MAX));
        net.enable_probe(ProbeConfig {
            window_cycles: 128,
            ring_capacity: 1_024,
        });
        net.run(2_000);
        let probe = net.probe().expect("probe attached");
        assert!(
            probe.saturation_onset_cycle().is_some(),
            "hotspot overload must saturate a link"
        );
        assert!(probe.windows().iter().any(|w| w.max_link_util > 0.9));
    }

    /// Probe-verified check for the recycled tick scratch buffers: the
    /// full per-cycle telemetry (event trace, windowed metrics, launched
    /// words) of a probed run is identical run-to-run, and the probed
    /// run agrees with an unprobed network on every externally visible
    /// output — so recycling the `sends`/`credit_returns` allocations
    /// across cycles changed nothing about per-cycle behavior.
    #[test]
    fn scratch_buffer_recycling_keeps_per_cycle_behavior_identical() {
        let mut events = Vec::new();
        for i in 0..32u16 {
            events.push(PacketEvent {
                time_ns: i as f64 * 0.7,
                src: NodeId(i % 16),
                dest: NodeId((i * 7 + 3) % 16),
                len: 1 + (i % 4),
            });
        }
        let trace = Trace::from_events(events);

        let probed = |arch: Arch| {
            let mut net = Network::new(NetConfig::small(arch), &trace, (0.0, f64::MAX));
            net.enable_eject_log();
            net.enable_probe(ProbeConfig {
                window_cycles: 16,
                ring_capacity: 1 << 14,
            });
            assert!(net.run_to_quiescence(10_000));
            let mut probe = net.take_probe().unwrap();
            probe.finish();
            assert_eq!(probe.events_dropped(), 0, "ring too small for the test");
            let telemetry = format!(
                "{:?} {:?}",
                probe.windows(),
                probe.events().collect::<Vec<_>>()
            );
            (
                net.cycle(),
                *net.counters(),
                net.eject_log().unwrap().to_vec(),
                telemetry,
            )
        };

        for arch in Arch::ALL {
            let a = probed(arch);
            let b = probed(arch);
            assert_eq!(a, b, "{arch}: per-cycle telemetry diverged between runs");

            let mut plain = Network::new(NetConfig::small(arch), &trace, (0.0, f64::MAX));
            plain.enable_eject_log();
            assert!(plain.run_to_quiescence(10_000));
            assert_eq!(plain.cycle(), a.0, "{arch}: cycle count diverged");
            assert_eq!(*plain.counters(), a.1, "{arch}: counters diverged");
            assert_eq!(
                plain.eject_log().unwrap(),
                &a.2[..],
                "{arch}: ejection schedule diverged"
            );
        }
    }
}
