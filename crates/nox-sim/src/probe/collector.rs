//! The telemetry collector the [probe slot](super::ProbeSlot) holds. The
//! crate's other modules reach it through the slot's hooks, never
//! directly.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use nox_core::{Mode, PortId};

use super::ProbeSlot;
use crate::flit::{FlitKey, PacketId};
use crate::histogram::LogHistogram;
use crate::network::Network;
use crate::router::{Router, Send};
use crate::sink::Sink;
use crate::stats::LatencyStats;
use crate::topology::{NodeId, Topology};

/// A link is considered saturated within a window when its busy fraction
/// (productive plus wasted words per cycle) reaches this level.
pub const SATURATION_UTIL: f64 = 0.95;

/// Static configuration of one [`Probe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Length of one metrics window in cycles.
    pub window_cycles: u64,
    /// Capacity of the event ring buffer; the oldest events are dropped
    /// once it fills ([`Probe::events_dropped`] counts them).
    pub ring_capacity: usize,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            window_cycles: 1_024,
            ring_capacity: 65_536,
        }
    }
}

/// What happened in one traced event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A packet's head flit entered the network at its source.
    Inject {
        /// The injected packet.
        packet: PacketId,
    },
    /// A (possibly encoded) word was launched onto a link.
    Send {
        /// Constituent flit keys of the word ([`FlitKey::pack`] format).
        keys: Vec<u64>,
        /// `true` when the word superposes more than one flit.
        encoded: bool,
    },
    /// A link cycle was driven with an invalid word (NoX abort or
    /// speculative collision): full channel energy, nothing delivered.
    Wasted {
        /// Number of inputs that drove the switch.
        colliding: u8,
        /// `true` for a NoX multi-flit abort, `false` for a speculative
        /// collision.
        abort: bool,
    },
    /// An encoded word was latched into a decode register (router input
    /// or sink).
    Latch,
    /// A packet's tail flit was consumed at its destination.
    Eject {
        /// The completed packet.
        packet: PacketId,
    },
    /// A fault-campaign event: an injection, a detection, or a recovery
    /// action at this node/port.
    Fault {
        /// What happened, e.g. `"inject bit-flip"` or `"detect crc"`.
        label: &'static str,
    },
}

/// One entry of the cycle-level event trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event occurred in.
    pub cycle: u64,
    /// Router (for link/latch events) or core (for inject/eject events).
    pub node: NodeId,
    /// Output port for `Send`/`Wasted`, input port for `Latch`, the local
    /// port for `Inject`/`Eject`.
    pub port: PortId,
    /// The event payload.
    pub kind: EventKind,
}

/// Accumulated activity of one router (whole-run totals or one window).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterMetrics {
    /// Productive words launched per output port.
    pub link_busy: Vec<u64>,
    /// Invalid words driven per output port (aborts/collisions).
    pub link_wasted: Vec<u64>,
    /// Per-output NoX FSM mode occupancy, sampled once per cycle:
    /// `[Recovery, Scheduled, Stream]` cycle counts. All zero for
    /// non-NoX routers.
    pub mode_cycles: Vec<[u64; 3]>,
    /// Sum over sampled cycles of total input-buffer occupancy (flits).
    pub occupancy_sum: u64,
    /// Speculative collision cycles charged to this router.
    pub collisions: u64,
    /// NoX multi-flit abort cycles charged to this router.
    pub aborts: u64,
    /// Productive encoded words launched by this router.
    pub encoded: u64,
    /// Histogram of encoded-word sizes: `chain_hist[k]` counts encoded
    /// words superposing exactly `k` flits (`k >= 2`).
    pub chain_hist: Vec<u64>,
}

impl RouterMetrics {
    fn new(ports: usize) -> Self {
        RouterMetrics {
            link_busy: vec![0; ports],
            link_wasted: vec![0; ports],
            mode_cycles: vec![[0; 3]; ports],
            occupancy_sum: 0,
            collisions: 0,
            aborts: 0,
            encoded: 0,
            chain_hist: vec![0; ports + 1],
        }
    }

    fn reset(&mut self) {
        self.link_busy.iter_mut().for_each(|c| *c = 0);
        self.link_wasted.iter_mut().for_each(|c| *c = 0);
        self.mode_cycles.iter_mut().for_each(|m| *m = [0; 3]);
        self.occupancy_sum = 0;
        self.collisions = 0;
        self.aborts = 0;
        self.encoded = 0;
        self.chain_hist.iter_mut().for_each(|c| *c = 0);
    }

    /// Total words (productive + wasted) this router drove on `port`.
    pub fn link_transitions(&self, port: PortId) -> u64 {
        self.link_busy[port.index()] + self.link_wasted[port.index()]
    }
}

/// Aggregated telemetry for one completed metrics window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSummary {
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Window length in cycles (the last window of a run may be short).
    pub cycles: u64,
    /// Highest per-link utilization observed in the window.
    pub max_link_util: f64,
    /// Mean utilization across all connected links.
    pub mean_link_util: f64,
    /// Links whose utilization reached [`SATURATION_UTIL`].
    pub saturated_links: usize,
    /// Mean input-buffer occupancy per router, in flits.
    pub avg_occupancy: f64,
    /// Speculative collision cycles in the window.
    pub collisions: u64,
    /// NoX abort cycles in the window.
    pub aborts: u64,
    /// Productive encoded transfers in the window.
    pub encoded: u64,
}

/// Per-packet latency decomposition: where the nanoseconds went.
#[derive(Clone, Debug)]
pub struct LatencyBreakdown {
    /// Creation-to-ejection latency (what the paper's figures report).
    pub total: LatencyStats,
    /// Histogram of total latency for percentile queries, in ns.
    pub total_hist: LogHistogram,
    /// Source-queueing component: creation to head-flit injection.
    pub queue: LatencyStats,
    /// Histogram of the queueing component, in ns.
    pub queue_hist: LogHistogram,
    /// In-network component: head-flit injection to tail ejection.
    pub network: LatencyStats,
    /// Histogram of the network component, in ns.
    pub network_hist: LogHistogram,
}

impl Default for LatencyBreakdown {
    fn default() -> Self {
        LatencyBreakdown {
            total: LatencyStats::new(),
            total_hist: LogHistogram::default_latency(),
            queue: LatencyStats::new(),
            queue_hist: LogHistogram::default_latency(),
            network: LatencyStats::new(),
            network_hist: LogHistogram::default_latency(),
        }
    }
}

/// The telemetry collector attached to a
/// [`Network`](crate::network::Network) via
/// [`enable_probe`](crate::network::Network::enable_probe).
#[derive(Clone, Debug)]
pub struct Probe {
    cfg: ProbeConfig,
    topo: Topology,
    clock_ns: f64,
    cur_cycle: u64,
    cycles_observed: u64,
    window_start: u64,
    window_cycles: u64,
    totals: Vec<RouterMetrics>,
    window: Vec<RouterMetrics>,
    windows: Vec<WindowSummary>,
    saturation_onset: Option<u64>,
    events: VecDeque<TraceEvent>,
    events_dropped: u64,
    inject_cycle: BTreeMap<PacketId, u64>,
    breakdown: LatencyBreakdown,
    sink_occupancy_sum: u64,
}

impl Probe {
    /// Creates a probe for a network of the given topology and clock.
    pub fn new(cfg: ProbeConfig, topo: Topology, clock_ns: f64) -> Self {
        assert!(cfg.window_cycles > 0, "window length must be non-zero");
        let ports = topo.ports() as usize;
        let routers = topo.routers();
        Probe {
            cfg,
            topo,
            clock_ns,
            cur_cycle: 0,
            cycles_observed: 0,
            window_start: 0,
            window_cycles: 0,
            totals: (0..routers).map(|_| RouterMetrics::new(ports)).collect(),
            window: (0..routers).map(|_| RouterMetrics::new(ports)).collect(),
            windows: Vec::new(),
            saturation_onset: None,
            events: VecDeque::with_capacity(cfg.ring_capacity.min(4_096)),
            events_dropped: 0,
            inject_cycle: BTreeMap::new(),
            breakdown: LatencyBreakdown::default(),
            sink_occupancy_sum: 0,
        }
    }

    // ------------------------------------------------------------ accessors

    /// The probe's configuration.
    pub fn config(&self) -> ProbeConfig {
        self.cfg
    }

    /// The observed network's topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The observed network's clock period in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Cycles observed so far.
    pub fn cycles_observed(&self) -> u64 {
        self.cycles_observed
    }

    /// Whole-run totals, indexed by router.
    pub fn totals(&self) -> &[RouterMetrics] {
        &self.totals
    }

    /// Completed metrics windows, oldest first.
    pub fn windows(&self) -> &[WindowSummary] {
        &self.windows
    }

    /// Start cycle of the first window in which any link reached
    /// [`SATURATION_UTIL`], if one has.
    pub fn saturation_onset_cycle(&self) -> Option<u64> {
        self.saturation_onset
    }

    /// The buffered event trace, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events discarded because the ring buffer was full.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// The per-packet latency decomposition.
    pub fn breakdown(&self) -> &LatencyBreakdown {
        &self.breakdown
    }

    /// Mean input-buffer occupancy of one router over the observed run,
    /// in flits (summed across its input ports).
    pub fn avg_occupancy(&self, router: NodeId) -> f64 {
        if self.cycles_observed == 0 {
            return 0.0;
        }
        self.totals[router.index()].occupancy_sum as f64 / self.cycles_observed as f64
    }

    /// Mean ejection-buffer occupancy across all sinks, in flits.
    pub fn avg_sink_occupancy(&self) -> f64 {
        if self.cycles_observed == 0 {
            return 0.0;
        }
        self.sink_occupancy_sum as f64 / (self.cycles_observed * self.topo.cores() as u64) as f64
    }

    /// Utilization of one router's output link over the observed run:
    /// words driven (productive or not) per cycle.
    pub fn link_utilization(&self, router: NodeId, out: PortId) -> f64 {
        if self.cycles_observed == 0 {
            return 0.0;
        }
        self.totals[router.index()].link_transitions(out) as f64 / self.cycles_observed as f64
    }

    /// Highest output-link utilization of one router over the observed
    /// run (connected ports only).
    pub fn max_link_utilization(&self, router: NodeId) -> f64 {
        (0..self.topo.ports())
            .filter(|&p| self.port_connected(router, PortId(p)))
            .map(|p| self.link_utilization(router, PortId(p)))
            .fold(0.0, f64::max)
    }

    /// Network-wide NoX FSM mode occupancy summed over all outputs:
    /// `[Recovery, Scheduled, Stream]` cycle counts.
    pub fn mode_occupancy(&self) -> [u64; 3] {
        let mut acc = [0u64; 3];
        for r in &self.totals {
            for m in &r.mode_cycles {
                for (a, b) in acc.iter_mut().zip(m) {
                    *a += b;
                }
            }
        }
        acc
    }

    /// Network-wide encoded-chain-length histogram (index = flits per
    /// encoded word).
    pub fn chain_histogram(&self) -> Vec<u64> {
        let mut acc = vec![0u64; self.topo.ports() as usize + 1];
        for r in &self.totals {
            for (a, b) in acc.iter_mut().zip(&r.chain_hist) {
                *a += b;
            }
        }
        acc
    }

    fn port_connected(&self, router: NodeId, port: PortId) -> bool {
        self.topo.is_local(port) || self.topo.link_dest(router, port).is_some()
    }

    // ---------------------------------------------------------------- hooks
    //
    // Each entry point is `#[cold]`: a probe is attached to few runs, so
    // its bodies stay out of the router tick and the step loop, which
    // keep only the slot's `Option` test.

    fn push_event(&mut self, e: TraceEvent) {
        if self.events.len() == self.cfg.ring_capacity {
            self.events.pop_front();
            self.events_dropped += 1;
        }
        self.events.push_back(e);
    }

    /// Marks the start of a network cycle; router-side hooks use this to
    /// timestamp events.
    #[cold]
    pub(crate) fn on_cycle_start(&mut self, cycle: u64) {
        self.cur_cycle = cycle;
    }

    /// A flit entered the network at `core`'s source.
    #[cold]
    pub(crate) fn on_inject(&mut self, cycle: u64, core: NodeId, key: FlitKey) {
        if key.seq != 0 {
            return;
        }
        self.inject_cycle.insert(key.packet, cycle);
        self.push_event(TraceEvent {
            cycle,
            node: core,
            port: self.topo.local_port(core),
            kind: EventKind::Inject { packet: key.packet },
        });
    }

    /// A packet's tail flit was consumed at its destination on `cycle`.
    #[cold]
    pub(crate) fn on_eject(&mut self, cycle: u64, core: NodeId, packet: PacketId, created: u64) {
        self.push_event(TraceEvent {
            cycle,
            node: core,
            port: self.topo.local_port(core),
            kind: EventKind::Eject { packet },
        });
        let total_ns = cycle.saturating_sub(created) as f64 * self.clock_ns;
        self.breakdown.total.record(total_ns);
        self.breakdown.total_hist.record(total_ns);
        if let Some(injected) = self.inject_cycle.remove(&packet) {
            let queue_ns = injected.saturating_sub(created) as f64 * self.clock_ns;
            let net_ns = cycle.saturating_sub(injected) as f64 * self.clock_ns;
            self.breakdown.queue.record(queue_ns);
            self.breakdown.queue_hist.record(queue_ns);
            self.breakdown.network.record(net_ns);
            self.breakdown.network_hist.record(net_ns);
        }
    }

    /// A NoX output drove a productive encoded word of `chain_len` flits.
    #[cold]
    pub(crate) fn on_encoded(&mut self, node: NodeId, _out: PortId, chain_len: u8) {
        let m = &mut self.window[node.index()];
        m.encoded += 1;
        let idx = (chain_len as usize).min(m.chain_hist.len() - 1);
        m.chain_hist[idx] += 1;
    }

    /// An output drove an invalid word: a NoX abort or a speculative
    /// collision.
    #[cold]
    pub(crate) fn on_wasted(&mut self, node: NodeId, out: PortId, colliding: u8, abort: bool) {
        let m = &mut self.window[node.index()];
        m.link_wasted[out.index()] += 1;
        if abort {
            m.aborts += 1;
        } else {
            m.collisions += 1;
        }
        self.push_event(TraceEvent {
            cycle: self.cur_cycle,
            node,
            port: out,
            kind: EventKind::Wasted { colliding, abort },
        });
    }

    /// A router input (or sink) latched an encoded word into its decode
    /// register.
    #[cold]
    pub(crate) fn on_latch(&mut self, node: NodeId, input: PortId) {
        self.push_event(TraceEvent {
            cycle: self.cur_cycle,
            node,
            port: input,
            kind: EventKind::Latch,
        });
    }

    /// A fault-campaign event: injection, detection, or recovery.
    #[cold]
    pub(crate) fn on_fault(&mut self, node: NodeId, port: PortId, label: &'static str) {
        self.push_event(TraceEvent {
            cycle: self.cur_cycle,
            node,
            port,
            kind: EventKind::Fault { label },
        });
    }

    /// End-of-cycle sampling: records this cycle's launched link words,
    /// buffer occupancies, and NoX FSM modes, then rolls the metrics
    /// window over if it filled.
    #[cold]
    pub(crate) fn on_cycle_end(
        &mut self,
        cycle: u64,
        sends: &[Send],
        routers: &[Router],
        sinks: &[Sink],
    ) {
        if self.window_cycles == 0 {
            self.window_start = cycle;
        }
        for s in sends {
            self.window[s.node.index()].link_busy[s.out.index()] += 1;
            let keys = s.word.keys().to_vec();
            let encoded = keys.len() > 1;
            self.push_event(TraceEvent {
                cycle,
                node: s.node,
                port: s.out,
                kind: EventKind::Send { keys, encoded },
            });
        }
        for r in routers {
            let m = &mut self.window[r.node().index()];
            m.occupancy_sum += r.buffered_flits() as u64;
            for p in 0..r.ports() {
                if let Some(mode) = r.output_mode(PortId(p)) {
                    let slot = match mode {
                        Mode::Recovery => 0,
                        Mode::Scheduled => 1,
                        Mode::Stream => 2,
                    };
                    m.mode_cycles[p as usize][slot] += 1;
                }
            }
        }
        for s in sinks {
            self.sink_occupancy_sum += s.port.len() as u64;
        }
        self.cycles_observed += 1;
        self.window_cycles += 1;
        if self.window_cycles >= self.cfg.window_cycles {
            self.roll_window();
        }
    }

    /// Closes the current (possibly partial) window. Called automatically
    /// when a window fills; call it once after a run to flush the tail.
    pub fn finish(&mut self) {
        if self.window_cycles > 0 {
            self.roll_window();
        }
    }

    fn roll_window(&mut self) {
        let cycles = self.window_cycles;
        let mut max_util = 0.0f64;
        let mut util_sum = 0.0f64;
        let mut links = 0usize;
        let mut saturated = 0usize;
        let mut occ_sum = 0u64;
        let mut collisions = 0u64;
        let mut aborts = 0u64;
        let mut encoded = 0u64;
        for (i, w) in self.window.iter().enumerate() {
            let node = NodeId(i as u16);
            for p in 0..self.topo.ports() {
                let port = PortId(p);
                if !self.port_connected(node, port) {
                    continue;
                }
                let util = w.link_transitions(port) as f64 / cycles as f64;
                max_util = max_util.max(util);
                util_sum += util;
                links += 1;
                if util >= SATURATION_UTIL {
                    saturated += 1;
                }
            }
            occ_sum += w.occupancy_sum;
            collisions += w.collisions;
            aborts += w.aborts;
            encoded += w.encoded;
        }
        let summary = WindowSummary {
            start_cycle: self.window_start,
            cycles,
            max_link_util: max_util,
            mean_link_util: if links == 0 {
                0.0
            } else {
                util_sum / links as f64
            },
            saturated_links: saturated,
            avg_occupancy: occ_sum as f64 / (cycles * self.topo.routers() as u64) as f64,
            collisions,
            aborts,
            encoded,
        };
        if saturated > 0 && self.saturation_onset.is_none() {
            self.saturation_onset = Some(self.window_start);
        }
        self.windows.push(summary);
        // Fold the window into the run totals and reset it.
        for (t, w) in self.totals.iter_mut().zip(self.window.iter_mut()) {
            for (a, b) in t.link_busy.iter_mut().zip(&w.link_busy) {
                *a += b;
            }
            for (a, b) in t.link_wasted.iter_mut().zip(&w.link_wasted) {
                *a += b;
            }
            for (a, b) in t.mode_cycles.iter_mut().zip(&w.mode_cycles) {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            t.occupancy_sum += w.occupancy_sum;
            t.collisions += w.collisions;
            t.aborts += w.aborts;
            t.encoded += w.encoded;
            for (a, b) in t.chain_hist.iter_mut().zip(&w.chain_hist) {
                *a += b;
            }
            w.reset();
        }
        self.window_start += self.window_cycles;
        self.window_cycles = 0;
    }
}

impl Network {
    /// Attaches a telemetry [`Probe`]: every subsequent cycle is
    /// observed — per-router windowed metrics, the bounded event trace,
    /// and per-packet latency decomposition. Call [`Probe::finish`] on
    /// the collector after the run to flush the final partial window.
    pub fn enable_probe(&mut self, cfg: ProbeConfig) {
        let net = self.config();
        let probe = Probe::new(cfg, net.topology(), net.clock_ns());
        self.probe = ProbeSlot(Some(Box::new(probe)));
    }

    /// The attached probe, if any.
    pub fn probe(&self) -> Option<&Probe> {
        self.probe.0.as_deref()
    }

    /// Detaches and returns the probe, ending observation.
    pub fn take_probe(&mut self) -> Option<Probe> {
        self.probe.0.take().map(|b| *b)
    }
}
