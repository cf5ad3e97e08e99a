//! The cycle-accurate network engine.
//!
//! A [`Network`] instantiates one router per mesh node plus per-node
//! sources and sinks, and advances the whole system one clock cycle at a
//! time. Each [`step`](Network::step):
//!
//! 1. delivers last cycle's link words into input buffers (one-cycle link,
//!    §4's 2 mm inter-tile channels) and matured credits into output
//!    credit counters;
//! 2. lets every source that is part-way through a packet or whose next
//!    packet has been created inject one flit into its local input port;
//! 3. ticks every router whose tick can change something (they emit link
//!    transfers and credit returns), each start to finish; a router with
//!    empty input FIFOs and settled engines sleeps until a word or an
//!    injected flit reaches it (DESIGN.md §16). A phase clock, if one is
//!    attached, times the whole loop as one phase (DESIGN.md §16);
//! 4. drains every sink that holds a word by at most one flit, recording
//!    packet latencies.
//!
//! Steps 2 to 4 each run over a set of the things that can act, kept
//! exact by the events that change it (DESIGN.md §16).
//!
//! Per-packet flit ordering, payload integrity, and credit conservation
//! are asserted continuously, so any router bug aborts the simulation
//! rather than silently skewing results.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::active_set::ActiveSet;
use crate::config::NetConfig;
use crate::fault::{FaultConfig, FaultState, LinkFate, TailDelivery};
use crate::flit::{PacketId, PacketMeta, PacketTable};
use crate::histogram::LogHistogram;
use crate::probe::ProbeSlot;
use crate::router::{CreditReturn, Router, Send, TickCtx};
use crate::sink::Sink;
use crate::source::Source;
use crate::stats::{Counters, LatencyStats};
use crate::topology::{NodeId, Topology, Wiring};
use crate::trace::Trace;

/// A complete simulated network: routers, sources, sinks, and wiring.
#[derive(Clone, Debug)]
pub struct Network {
    cfg: NetConfig,
    topo: Topology,
    /// `topo`'s links, tabulated: delivery and credit return index it.
    wiring: Wiring,
    routers: Vec<Router>,
    /// The routers that tick this cycle. A router falls asleep when it
    /// is [settled](Router::settled) after its tick and is woken by a
    /// link word delivered to one of its inputs or by its source
    /// injecting. While a fault campaign is attached this set and the two
    /// below hold everything.
    awake: ActiveSet,
    /// One source per core.
    sources: Vec<Source>,
    /// The sources that [can inject](Source::can_inject) this cycle. One
    /// joins when a packet of its own is created and leaves, after its
    /// visit, once it has none part-way in and none created yet.
    injecting: ActiveSet,
    /// The trace's packets are `0..static_packets` of the table, in
    /// creation order; those before `next_static` have been created.
    next_static: usize,
    static_packets: usize,
    /// One sink per core.
    sinks: Vec<Sink>,
    /// The sinks whose FIFO holds a word: in by `deliver_word`, out when
    /// a drain empties the FIFO.
    draining: ActiveSet,
    /// Work done so far, in things visited.
    router_ticks: u64,
    source_visits: u64,
    sink_visits: u64,
    input_visits: u64,
    output_ticks: u64,
    packets: PacketTable,
    cycle: u64,
    counters: Counters,
    /// Words launched this cycle, delivered at the start of the next.
    in_flight: Vec<Send>,
    /// Credits in transit: (usable-at cycle, node, output port index).
    credits_in_flight: VecDeque<(u64, NodeId, u8)>,
    /// Scratch buffer for the credit returns emitted within one call to
    /// [`step`](Self::step); always drained empty by the end of the call,
    /// kept on the network only to recycle its allocation across cycles.
    credit_scratch: Vec<CreditReturn>,
    /// Next expected flit sequence per partially-received packet.
    /// Ordered so any future iteration is deterministic (the workspace
    /// `clippy.toml` bans hash containers).
    expected_seq: BTreeMap<PacketId, u16>,
    latency_measured: LatencyStats,
    latency_all: LatencyStats,
    hist_measured: LogHistogram,
    measured_total: u64,
    measured_ejected: u64,
    eject_log: Option<Vec<(PacketId, u64)>>,
    /// Runtime switch for the per-cycle sanitizer audits.
    sanitize: bool,
    /// Telemetry collector, if this build has one and it is attached.
    pub(crate) probe: ProbeSlot,
    /// Fault-injection campaign, if one is attached.
    faults: Option<Box<FaultState>>,
    /// Phase-attribution clock, allocated when the process-wide profiling
    /// switch was on at construction. Cloning a network starts a fresh
    /// clock (see [`nox_telemetry::PhaseClock`]) so timed history is never
    /// double-counted; the work counters are copied (see the `Drop` impl).
    phases: Option<Box<nox_telemetry::PhaseClock>>,
}

impl Network {
    /// Builds a network and schedules `trace` into it. Packets created
    /// within `measure_window_ns` (half-open, in nanoseconds) are tagged
    /// as measured for latency statistics.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or an event addresses a node
    /// outside the mesh.
    pub fn new(cfg: NetConfig, trace: &Trace, measure_window_ns: (f64, f64)) -> Self {
        cfg.validate().expect("invalid network configuration");
        let topo = cfg.topology();
        let clock_ns = cfg.clock_ns();

        // One pass to check every event and count each source's share,
        // so the packet table and every source queue are allocated once,
        // at their final size.
        let mut per_source = vec![0; topo.cores()];
        for e in trace.events() {
            assert!(
                e.src.index() < topo.cores() && e.dest.index() < topo.cores(),
                "trace event addresses a node outside the mesh"
            );
            per_source[e.src.index()] += 1;
        }
        let mut packets = PacketTable::with_capacity(trace.len());
        let mut sources: Vec<Source> = per_source.into_iter().map(Source::with_capacity).collect();
        let mut measured_total = 0;
        for e in trace.events() {
            let measured = e.time_ns >= measure_window_ns.0 && e.time_ns < measure_window_ns.1;
            measured_total += u64::from(measured);
            let created_cycle = (e.time_ns / clock_ns) as u64;
            let id = packets.push(PacketMeta {
                src: e.src,
                dest: e.dest,
                len: e.len,
                created_cycle,
                measured,
            });
            sources[e.src.index()].schedule(id, created_cycle);
        }

        let nox_options = nox_core::NoxOptions {
            scheduled_mode: cfg.nox_scheduled_mode,
        };
        let routers: Vec<Router> = topo
            .grid()
            .iter()
            .map(|n| Router::with_options(n, cfg.arch, topo, cfg.buffer_depth, nox_options))
            .collect();
        let sinks = (0..topo.cores() as u16)
            .map(|c| Sink::new(NodeId(c), cfg.buffer_depth))
            .collect();

        Network {
            cfg,
            topo,
            wiring: Wiring::new(&topo),
            // A freshly built router is settled: nothing buffered, every
            // engine in its reset state.
            awake: ActiveSet::new(routers.len()),
            routers,
            sources,
            injecting: ActiveSet::new(topo.cores()),
            next_static: 0,
            static_packets: packets.len(),
            sinks,
            draining: ActiveSet::new(topo.cores()),
            router_ticks: 0,
            source_visits: 0,
            sink_visits: 0,
            input_visits: 0,
            output_ticks: 0,
            packets,
            cycle: 0,
            counters: Counters::new(),
            in_flight: Vec::new(),
            credits_in_flight: VecDeque::new(),
            credit_scratch: Vec::new(),
            expected_seq: BTreeMap::new(),
            latency_measured: LatencyStats::new(),
            latency_all: LatencyStats::new(),
            hist_measured: LogHistogram::default_latency(),
            measured_total,
            measured_ejected: 0,
            eject_log: None,
            sanitize: false,
            probe: ProbeSlot::default(),
            faults: None,
            phases: nox_telemetry::profiling()
                .then(|| Box::new(nox_telemetry::PhaseClock::start())),
        }
    }

    /// Queues packet `id`, created this cycle at `src`, and puts the
    /// source in the injecting set: how every injection and
    /// retransmission enters a source. The trace's packets are queued by
    /// [`new`](Self::new), and `admit_created` finds them when they fall
    /// due.
    fn schedule_now(&mut self, id: PacketId, src: NodeId) {
        self.sources[src.index()].schedule(id, self.cycle);
        self.injecting.insert(src.index());
    }

    /// Moves the cursor past the trace's packets created by this cycle,
    /// putting their sources in the injecting set. Ids follow the trace,
    /// which is in time order, so the first packet still in the future
    /// ends the walk: one compare on most cycles.
    fn admit_created(&mut self) {
        while self.next_static < self.static_packets {
            let meta = self.packets.meta(PacketId(self.next_static as u64));
            if meta.created_cycle > self.cycle {
                break;
            }
            self.injecting.insert(meta.src.index());
            self.next_static += 1;
        }
    }

    /// Attributes time since the previous phase mark to `phase`.
    #[inline]
    fn mark_phase(&mut self, phase: nox_telemetry::PhaseId) {
        if let Some(clock) = &mut self.phases {
            clock.mark(phase);
        }
    }

    /// Turns on the per-cycle sanitizer audits: flit conservation,
    /// credit-loop accounting, §3.2 link-cycle productivity
    /// classification, and that every skipped router tick was the
    /// identity, re-checked at the end of every [`step`](Self::step).
    /// Any audit failure panics with a description of the broken books.
    pub fn enable_sanitizer(&mut self) {
        self.sanitize = true;
    }

    /// Attaches a fault-injection campaign: from the next cycle on, link
    /// words are subject to the configured bit flips, drops, duplications,
    /// dead links, credit corruptions, and router freezes, and every
    /// ejection is integrity-classified (clean / CRC-detected / silent).
    /// All packets scheduled so far, plus any injected later, are tracked
    /// as logical packets for the end-to-end retransmission protocol.
    ///
    /// Attaching a campaign disables the sanitizer's conservation audits
    /// (injected faults violate conservation by design) and replaces the
    /// simulator's integrity panics at the sinks with counted outcomes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FaultConfig::validate`]).
    pub fn enable_faults(&mut self, cfg: FaultConfig) {
        let mut st = FaultState::new(cfg);
        for i in 0..self.packets.len() {
            let id = PacketId(i as u64);
            st.register(id, self.packets.meta(id));
        }
        self.faults = Some(Box::new(st));
        // Freeze draws, credit corruption and watchdog resets reach
        // routers that have nothing buffered, and a flush reaches sinks
        // that have: under a campaign everything is visited.
        self.awake.fill();
        self.injecting.fill();
        self.draining.fill();
    }

    /// The attached fault campaign's state, if any.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_deref()
    }

    /// `true` when the retransmission protocol (if any) has settled:
    /// every logical packet is delivered or written off. `true` when no
    /// campaign is attached.
    pub fn faults_settled(&self) -> bool {
        self.faults.as_ref().is_none_or(|f| f.settled())
    }

    /// Runs until the network is quiescent *and* the fault campaign's
    /// retransmission protocol has settled, or `max_cycles` elapse.
    /// Returns `true` on settlement. Plain
    /// [`run_to_quiescence`](Self::run_to_quiescence) is not sufficient
    /// under faults: a drained network may still owe retransmissions whose
    /// timeouts have not expired yet.
    pub fn run_to_settlement(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_quiescent() && self.faults_settled() {
                return true;
            }
            self.step();
        }
        self.is_quiescent() && self.faults_settled()
    }

    /// Enables recording of `(packet, eject cycle)` pairs — useful for
    /// per-packet analyses, closed-loop drivers, and differential
    /// debugging. Off by default to keep long runs memory-light.
    pub fn enable_eject_log(&mut self) {
        self.eject_log = Some(Vec::new());
    }

    /// Injects a packet dynamically: it enters `src`'s source queue now
    /// (created at the current cycle) and counts as measured if
    /// `measured`. This is how closed-loop drivers (self-throttling cores
    /// reacting to replies) add traffic after construction.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dest` is outside the topology or `len == 0`.
    pub fn inject(&mut self, src: NodeId, dest: NodeId, len: u16, measured: bool) -> PacketId {
        assert!(
            src.index() < self.topo.cores() && dest.index() < self.topo.cores(),
            "inject outside the topology"
        );
        let id = self.packets.push(PacketMeta {
            src,
            dest,
            len,
            created_cycle: self.cycle,
            measured,
        });
        self.measured_total += u64::from(measured);
        self.schedule_now(id, src);
        if let Some(f) = &mut self.faults {
            f.register(id, self.packets.meta(id));
        }
        id
    }

    /// The recorded ejections, if [`enable_eject_log`](Self::enable_eject_log)
    /// was called.
    pub fn eject_log(&self) -> Option<&[(PacketId, u64)]> {
        self.eject_log.as_deref()
    }

    /// The packet table (metadata for every scheduled packet).
    pub fn packets(&self) -> &PacketTable {
        &self.packets
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Router ticks performed so far: one per router per cycle it was
    /// awake. A deterministic measure of the work [`step`](Self::step)
    /// does (`cycles x routers` would be every router every cycle); not a
    /// simulated statistic, so not a [`Counters`] field.
    pub fn router_ticks(&self) -> u64 {
        self.router_ticks
    }

    /// Sources visited so far: one per source per cycle it could inject.
    /// Work done, like the three below, not a simulated statistic.
    pub fn source_visits(&self) -> u64 {
        self.source_visits
    }

    /// Sinks drained so far: one per sink per cycle it held a word.
    pub fn sink_visits(&self) -> u64 {
        self.sink_visits
    }

    /// Router inputs visited so far: the occupied ones of every tick.
    pub fn input_visits(&self) -> u64 {
        self.input_visits
    }

    /// Output control engines ticked so far.
    pub fn output_ticks(&self) -> u64 {
        self.output_ticks
    }

    /// Current event counters (cumulative).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Latency statistics over measured packets, in nanoseconds.
    pub fn latency_measured_ns(&self) -> &LatencyStats {
        &self.latency_measured
    }

    /// Latency statistics over all ejected packets, in nanoseconds.
    pub fn latency_all_ns(&self) -> &LatencyStats {
        &self.latency_all
    }

    /// Log-bucketed latency histogram over measured packets (for
    /// percentile queries), in nanoseconds.
    pub fn latency_histogram_ns(&self) -> &LogHistogram {
        &self.hist_measured
    }

    /// Number of packets tagged measured at construction.
    pub fn measured_total(&self) -> u64 {
        self.measured_total
    }

    /// Measured packets fully ejected so far.
    pub fn measured_ejected(&self) -> u64 {
        self.measured_ejected
    }

    /// `true` once every scheduled packet has been injected and the
    /// network, links, and sinks are empty.
    pub fn is_quiescent(&self) -> bool {
        // Answered from the three sets (DESIGN.md §16). A source outside
        // its set has no packet part-way in or created yet, so none at
        // all once the cursor has passed the trace's last. Outside the
        // other two sets FIFOs are empty, and so are decode registers
        // once all else here holds: one left mid-chain is owed the
        // chain's final word, which is buffered upstream (in an awake
        // router), on a link, or behind the register (then that is in
        // its set). A fault campaign can orphan a register, and under
        // one the sets hold everything.
        let quiescent = self.in_flight.is_empty()
            && self.next_static == self.static_packets
            && self.injecting.iter().all(|i| self.sources[i].is_done())
            && self.awake.iter().all(|i| self.routers[i].is_idle())
            && self.draining.iter().all(|i| self.sinks[i].port.is_idle());
        debug_assert_eq!(
            quiescent,
            self.in_flight.is_empty()
                && self.sources.iter().all(Source::is_done)
                && self.routers.iter().all(Router::is_idle)
                && self.sinks.iter().all(|s| s.port.is_idle())
        );
        quiescent
    }

    /// Advances the network by one clock cycle.
    pub fn step(&mut self) {
        // Phase attribution (DESIGN.md §14): one clock read per phase
        // boundary. The marks partition the step interval exactly, so the
        // named phases telescope to the `sim.step` total.
        if let Some(clock) = &mut self.phases {
            clock.begin_step();
        }

        self.counters.cycles += 1;
        self.probe.on_cycle_start(self.cycle);
        if let Some(f) = &mut self.faults {
            f.begin_cycle(self.cycle);
        }
        // While a campaign is attached nothing leaves the three sets.
        let visit_all = self.faults.is_some();

        // 1a. Deliver last cycle's link words, subjecting each to the
        // fault plan if a campaign is attached. The vector is drained (not
        // consumed) so its allocation can carry this cycle's sends below.
        let mut deliveries = std::mem::take(&mut self.in_flight);
        let mut faults = self.faults.take();
        for mut s in deliveries.drain(..) {
            if let Some(f) = &mut faults {
                let (fate, flipped) = f.intercept(s.node, s.out, &mut s.word);
                if flipped {
                    self.probe.on_fault(s.node, s.out, "inject bit-flip");
                }
                match fate {
                    LinkFate::Drop => {
                        // The word vanished in flight: its downstream
                        // slot never fills, so the consumed credit is
                        // returned straight to the sender's output.
                        self.probe.on_fault(s.node, s.out, "link drop");
                        self.credits_in_flight.push_back((
                            self.cycle + self.cfg.credit_delay,
                            s.node,
                            s.out.0,
                        ));
                        continue;
                    }
                    LinkFate::DeliverTwice => {
                        if self.fault_space_for(&s) {
                            f.note_dup_delivered(s.node, s.out.0);
                            self.probe.on_fault(s.node, s.out, "inject duplicate");
                            self.deliver_word(s.clone());
                        }
                    }
                    LinkFate::Deliver => {}
                }
                if !self.fault_space_for(&s) {
                    // Phantom credits (credit corruption) let a word
                    // arrive at a full buffer: it is dropped there,
                    // and no credit returns for it.
                    f.note_overflow();
                    self.probe.on_fault(s.node, s.out, "overflow drop");
                    continue;
                }
            }
            self.deliver_word(s);
        }
        self.faults = faults;
        self.mark_phase(nox_telemetry::phase::SIM_DELIVER);

        // 1b. Deliver matured credits.
        while let Some(&(due, node, port)) = self.credits_in_flight.front() {
            if due > self.cycle {
                break;
            }
            self.credits_in_flight.pop_front();
            let out = self.routers[node.index()].output_mut(nox_core::PortId(port));
            if self.faults.is_some() {
                // Phantom credits from injected faults can over-return;
                // clamping keeps the loop self-balancing.
                out.return_credit_saturating(self.cfg.buffer_depth);
                continue;
            }
            out.return_credit(self.cfg.buffer_depth);
        }

        // 1c. Corrupt a credit counter, if the plan says so this cycle.
        self.fault_credit_corruption();
        self.mark_phase(nox_telemetry::phase::SIM_CREDIT);

        // 2. Sources that can inject do, into their local input ports.
        self.admit_created();
        self.injecting.retain(|i| {
            self.source_visits += 1;
            let core = NodeId(i as u16);
            let (router, port) = self.wiring.attach(core);
            let src = &mut self.sources[i];
            let injected = src.inject(
                self.cycle,
                &mut self.routers[router.index()],
                port,
                &self.packets,
                &mut self.counters,
            );
            if let Some(key) = injected {
                self.awake.insert(router.index());
                self.probe.on_inject(self.cycle, core, key);
            }
            // A source stalled on a full buffer stays in: it is still
            // part-way through its packet.
            visit_all || src.can_inject(self.cycle)
        });
        self.mark_phase(nox_telemetry::phase::SIM_INJECT);

        // 3. Awake routers tick. A sleeping router is settled, so its
        // tick would emit nothing, count nothing and change nothing
        // (DESIGN.md §16); the wakes of this cycle (1a, 2) are all in by
        // now. Both tick buffers recycle allocations instead of growing
        // fresh `Vec`s every cycle: the drained `deliveries` vector
        // becomes this cycle's send buffer (it returns to `in_flight` in
        // step 5, closing the loop), and the credit buffer is the
        // network's persistent scratch vector.
        let mut sends = deliveries;
        let mut credit_returns = std::mem::take(&mut self.credit_scratch);
        debug_assert!(sends.is_empty() && credit_returns.is_empty());
        {
            let mut ctx = TickCtx::new(
                &self.packets,
                &mut self.counters,
                &mut sends,
                &mut credit_returns,
            );
            ctx.probe = std::mem::take(&mut self.probe);
            ctx.faults = self.faults.as_deref_mut();
            // Each router start to finish, while its ports are in cache.
            // Then it sleeps if it has come to rest. Checked after the
            // whole tick and not when a FIFO empties, so an engine that is
            // owed one more tick (Spec-Fast's stale reservation, a
            // grant-less Scheduled slot) gets it, wasted-reservation count
            // included.
            self.awake.retain(|i| {
                let r = &mut self.routers[i];
                self.router_ticks += 1;
                r.tick(&mut ctx);
                visit_all || !r.settled()
            });
            self.input_visits += ctx.input_visits;
            self.output_ticks += ctx.output_ticks;
            self.probe = ctx.probe;
        }
        // One clock read for the whole router loop: a read per router
        // would cost more than the step (DESIGN.md §16).
        self.mark_phase(nox_telemetry::phase::SIM_ROUTE);

        // 4. Sinks that hold a word drain one flit and record latencies.
        let clock_ns = self.cfg.clock_ns();
        let mut faults = self.faults.take();
        self.draining.retain(|i| {
            self.sink_visits += 1;
            let core = NodeId(i as u16);
            let sink = &mut self.sinks[i];
            let outcome = sink.drain(&self.packets, &mut self.counters, faults.as_deref_mut());
            if let Some(label) = outcome.fault_event {
                self.probe.on_fault(core, self.topo.local_port(core), label);
            }
            let stay = visit_all || !sink.port.is_empty();
            if outcome.credit_freed {
                // A freed ejection slot credits the owning router's local
                // output port for this core.
                let (node, input) = self.wiring.attach(core);
                credit_returns.push(CreditReturn { node, input });
                if outcome.consumed.is_none() && outcome.fault_event.is_none() {
                    // A decode-register latch at the sink (§2.4 at ejection),
                    // not a flit the fault layer discarded.
                    self.probe.on_latch(core, input);
                }
            }
            if let Some(info) = outcome.consumed {
                // Flit order within a packet. A single-flit packet has
                // nothing to order (its one flit is seq 0 and the tail),
                // so it never enters the map.
                if info.multiflit {
                    let expected = self.expected_seq.entry(info.packet).or_insert(0);
                    if *expected != info.seq {
                        if let Some(f) = &mut faults {
                            // Upstream losses broke the flit sequence: the NIC
                            // discards the flit; retransmission (if configured)
                            // re-delivers the whole packet.
                            f.note_seq_mismatch();
                            self.probe.on_fault(
                                core,
                                self.topo.local_port(core),
                                "detect sequence",
                            );
                            return stay;
                        }
                    }
                    assert_eq!(
                        *expected, info.seq,
                        "packet {:?} flits arrived out of order",
                        info.packet
                    );
                    *expected += 1;
                    if info.tail {
                        self.expected_seq.remove(&info.packet);
                    }
                }
                if info.tail {
                    if let Some(f) = &mut faults {
                        match f.note_tail(info.packet, self.cycle + 1) {
                            TailDelivery::Duplicate => {
                                // The logical packet already arrived via an
                                // earlier attempt: discard this copy.
                                return stay;
                            }
                            TailDelivery::First { recovered: true } => {
                                self.probe
                                    .on_fault(core, self.topo.local_port(core), "recovered");
                            }
                            TailDelivery::First { recovered: false } => {}
                        }
                    }
                    self.counters.packets_ejected += 1;
                    if let Some(log) = &mut self.eject_log {
                        log.push((info.packet, self.cycle + 1));
                    }
                    let meta = self.packets.meta(info.packet);
                    self.probe
                        .on_eject(self.cycle + 1, core, info.packet, meta.created_cycle);
                    let latency_ns = (self.cycle + 1 - meta.created_cycle) as f64 * clock_ns;
                    self.latency_all.record(latency_ns);
                    if meta.measured {
                        self.latency_measured.record(latency_ns);
                        self.hist_measured.record(latency_ns);
                        self.measured_ejected += 1;
                    }
                }
            }
            stay
        });
        self.faults = faults;

        // 4b. Launch retransmissions whose timeouts expired.
        self.fault_retx_pump();
        self.mark_phase(nox_telemetry::phase::SIM_SINK);

        // 5. Launch this cycle's sends and schedule credits. Routers never
        // emit credit returns for local input ports (sources check buffer
        // space directly), so a local-port return here can only come from
        // a sink — a credit for the owning router's local output.
        self.in_flight = sends;
        for c in credit_returns.drain(..) {
            let (owner, port) = self.credit_owner(&c);
            if let Some(f) = &mut self.faults {
                if f.swallow_credit(owner.0, port.0) {
                    // Annihilate the phantom credit a duplication fault
                    // created when its second copy took an uncredited slot.
                    continue;
                }
            }
            self.credits_in_flight
                .push_back((self.cycle + self.cfg.credit_delay, owner, port.0));
        }
        self.credit_scratch = credit_returns;
        self.mark_phase(nox_telemetry::phase::SIM_CREDIT);

        // 5b. Deadlock watchdog: recover the network if injected losses
        // wedged a control engine (e.g. a reservation whose tail died).
        self.fault_watchdog();

        // End-of-cycle telemetry: this cycle's launched words, buffer
        // occupancies, and FSM modes.
        self.probe
            .on_cycle_end(self.cycle, &self.in_flight, &self.routers, &self.sinks);

        self.cycle += 1;

        if self.sanitize && self.faults.is_none() {
            // Injected faults violate conservation by design; the audits
            // only apply to fault-free operation.
            self.sanitize_audit();
        }

        // Residual bookkeeping (watchdog, probe flush, sanitizer) lands
        // in `sim.other`; the step closes with no further clock read.
        self.mark_phase(nox_telemetry::phase::SIM_OTHER);
        if let Some(clock) = &mut self.phases {
            clock.end_step();
        }
    }

    /// Resolves which output port a freed input slot's credit belongs to.
    /// Routers never emit credit returns for local input ports (sources
    /// check buffer space directly), so a local-port return can only come
    /// from a sink — a credit for the owning router's local output.
    fn credit_owner(&self, c: &CreditReturn) -> (NodeId, nox_core::PortId) {
        if self.topo.is_local(c.input) {
            (c.node, c.input)
        } else {
            // The credit belongs to the output port whose link feeds
            // input `c.input` of router `c.node`.
            self.wiring
                .link_source(c.node, c.input)
                .expect("credit for an unconnected port")
        }
    }

    /// Delivers one link word into its destination buffer (router input
    /// or ejection sink).
    fn deliver_word(&mut self, s: Send) {
        self.counters.buffer_writes += 1;
        if self.topo.is_local(s.out) {
            let core = self.topo.core_at(s.node, s.out);
            self.sinks[core.index()].port.receive(s.word);
            self.draining.insert(core.index());
        } else {
            let (dest, inp) = self
                .wiring
                .link_dest(s.node, s.out)
                .expect("send on an unconnected port");
            self.routers[dest.index()].receive(inp, s.word);
            self.awake.insert(dest.index());
        }
    }

    /// `true` when the destination buffer of `s` can accept a word —
    /// checked explicitly under fault injection, where phantom credits
    /// make the normal overflow assertion unsound.
    fn fault_space_for(&self, s: &Send) -> bool {
        if self.topo.is_local(s.out) {
            let core = self.topo.core_at(s.node, s.out);
            self.sinks[core.index()].port.has_space()
        } else {
            let (dest, inp) = self
                .wiring
                .link_dest(s.node, s.out)
                .expect("send on an unconnected port");
            self.routers[dest.index()].input(inp).has_space()
        }
    }

    /// Applies this cycle's credit-corruption draw, if any: one randomly
    /// chosen connected output port has its credit counter forced to full
    /// capacity, handing it phantom credits for occupied downstream slots.
    fn fault_credit_corruption(&mut self) {
        let Some(f) = &mut self.faults else { return };
        let ports = self.topo.ports() as usize;
        let Some(site) = f.credit_corrupt_site(self.routers.len() * ports) else {
            return;
        };
        let (r, p) = (site / ports, site % ports);
        let port = nox_core::PortId(p as u8);
        if !self.routers[r].output(port).is_connected() {
            return; // drew a mesh-edge port: the fault lands on nothing
        }
        self.routers[r]
            .output_mut(port)
            .force_credits(self.cfg.buffer_depth);
        f.note_credit_corrupted();
        let node = self.routers[r].node();
        self.probe.on_fault(node, port, "corrupt credits");
    }

    /// Launches retransmissions for logical packets whose timeout expired
    /// this cycle: each becomes a fresh physical packet (unmeasured, so
    /// retries do not pollute baseline latency statistics) scheduled at
    /// its original source.
    fn fault_retx_pump(&mut self) {
        let Some(mut f) = self.faults.take() else {
            return;
        };
        for (idx, rt) in f.due_retransmissions(self.cycle) {
            let id = self.packets.push(PacketMeta {
                src: rt.src,
                dest: rt.dest,
                len: rt.len,
                created_cycle: self.cycle,
                measured: false,
            });
            self.schedule_now(id, rt.src);
            f.map_attempt(id, idx);
            let router = self.topo.router_of(rt.src);
            self.probe
                .on_fault(router, self.topo.local_port(rt.src), "retransmit");
        }
        self.faults = Some(f);
    }

    /// Fires the deadlock-recovery watchdog when the network has made no
    /// progress for a full stall window: resets every router's control
    /// engines and flushes stuck decode chains (router inputs and sinks),
    /// returning the credits of any freed slots. Containment only — the
    /// packets whose flits are discarded here are re-delivered by the
    /// end-to-end retransmission protocol, if configured.
    fn fault_watchdog(&mut self) {
        if self.faults.is_none() {
            return;
        }
        let progress = self.counters.buffer_reads
            + self.counters.buffer_writes
            + self.counters.flits_ejected
            + self.counters.link_flits;
        let quiescent = self.is_quiescent();
        let Some(mut f) = self.faults.take() else {
            return;
        };
        if quiescent || !f.watchdog_due(progress) {
            self.faults = Some(f);
            return;
        }
        for i in 0..self.routers.len() {
            let node = self.routers[i].node();
            for (input, lost, popped) in self.routers[i].watchdog_flush() {
                // A router's local input has no credit loop: its source
                // checks for space itself.
                let slot = (!self.topo.is_local(input)).then_some(CreditReturn { node, input });
                self.watchdog_chain_kill(&mut f, lost, popped, slot);
            }
        }
        for i in 0..self.sinks.len() {
            let port = &mut self.sinks[i].port;
            if port.register().is_some() {
                let (lost, popped) = port.chain_kill();
                let (node, input) = self.wiring.attach(NodeId(i as u16));
                let slot = Some(CreditReturn { node, input });
                self.watchdog_chain_kill(&mut f, lost, popped, slot);
            }
        }
        self.faults = Some(f);
        self.probe
            .on_fault(NodeId(0), nox_core::PortId(0), "watchdog reset");
    }

    /// Books one decode chain the watchdog truncated: `lost` flits
    /// discarded and, when a head was `popped`, a FIFO read and the freed
    /// slot's credit, if `slot` has a credit loop.
    fn watchdog_chain_kill(
        &mut self,
        f: &mut FaultState,
        lost: usize,
        popped: bool,
        slot: Option<CreditReturn>,
    ) {
        f.note_chain_kill(lost);
        if !popped {
            return;
        }
        self.counters.buffer_reads += 1;
        if let Some(slot) = slot {
            let (owner, port) = self.credit_owner(&slot);
            self.credits_in_flight
                .push_back((self.cycle + self.cfg.credit_delay, owner, port.0));
        }
    }

    /// Runs the global conservation audits over the current state. See
    /// the [`sanitize`](crate::sanitize) module for what each check
    /// proves; any failure is a router bug and panics immediately.
    fn sanitize_audit(&self) {
        use crate::sanitize::{
            check_credit_loop, check_flit_conservation, check_port_sets, check_productivity,
            check_skipped_router, check_skipped_sink, check_skipped_source, check_trace_cursor,
            CreditLoopView,
        };
        use nox_core::PortId;

        let fail = |e: String| panic!("sanitizer (cycle {}): {e}", self.cycle);

        // Flit conservation: every word anywhere in the network
        // contributes its constituent flit keys.
        let mut live: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let router_inputs = self
            .routers
            .iter()
            .flat_map(|r| (0..r.ports()).map(|p| r.input(PortId(p))));
        for port in router_inputs.chain(self.sinks.iter().map(|s| &s.port)) {
            for w in port.words().chain(port.register()) {
                live.extend(w.keys());
            }
        }
        for s in &self.in_flight {
            live.extend(s.word.keys());
        }
        if let Err(e) = check_flit_conservation(&self.counters, &live) {
            fail(e);
        }

        // Credit-loop accounting, one loop per connected output port.
        for r in &self.routers {
            for p in 0..r.ports() {
                let out = PortId(p);
                let downstream_occupancy = if self.topo.is_local(out) {
                    let core = self.topo.core_at(r.node(), out);
                    self.sinks[core.index()].port.len()
                } else if let Some((dest, inp)) = self.topo.link_dest(r.node(), out) {
                    self.routers[dest.index()].input(inp).len()
                } else {
                    continue; // mesh-edge port: no link, no credit loop
                };
                let view = CreditLoopView {
                    label: format!("{} port {out}", r.node()),
                    credits: r.output(out).credits(),
                    downstream_occupancy,
                    words_in_flight: self
                        .in_flight
                        .iter()
                        .filter(|s| s.node == r.node() && s.out == out)
                        .count(),
                    credits_in_flight: self
                        .credits_in_flight
                        .iter()
                        .filter(|&&(_, node, port)| node == r.node() && port == p)
                        .count(),
                    depth: self.cfg.buffer_depth,
                };
                if let Err(e) = check_credit_loop(&view) {
                    fail(e);
                }
            }
        }

        // §3.2 link-cycle productivity classification.
        if let Err(e) = check_productivity(self.cfg.arch, &self.counters) {
            fail(e);
        }

        // Skipped visits. A router asleep now either slept through this
        // step untouched or has just been put to sleep; in both cases its
        // tick must be the identity, and asleep or awake its port sets
        // must be what its FIFOs and engines say. Sources and sinks
        // outside their sets, likewise, in the step that just ended.
        let stepped = self.cycle - 1;
        let skipped = || -> Result<(), String> {
            for (i, r) in self.routers.iter().enumerate() {
                if !self.awake.contains(i) {
                    check_skipped_router(r, &self.packets)?;
                }
                check_port_sets(r)?;
            }
            check_trace_cursor(
                &self.packets,
                self.static_packets,
                self.next_static,
                stepped,
            )?;
            for (i, src) in self.sources.iter().enumerate() {
                if !self.injecting.contains(i) {
                    check_skipped_source(i, src, stepped)?;
                }
            }
            for (i, sink) in self.sinks.iter().enumerate() {
                if !self.draining.contains(i) {
                    check_skipped_sink(i, sink, &self.packets)?;
                }
            }
            Ok(())
        };
        if let Err(e) = skipped() {
            fail(e);
        }
    }

    /// Runs `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs until quiescent or `max_cycles` elapse; returns `true` if the
    /// network drained.
    pub fn run_to_quiescence(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_quiescent() {
                return true;
            }
            self.step();
        }
        self.is_quiescent()
    }
}

impl Drop for Network {
    /// Flushes the phase clock into the dropping thread's telemetry
    /// accumulator, and with it the five work counters as named counters
    /// (`sim.router_ticks`, ...): the work inside the router loop, which
    /// the clock times only as a whole. Inside an executor job
    /// this lands in the job's capture delta, which `nox-exec` absorbs in
    /// submission order — the reason merged sim phases and counters are
    /// structurally identical at any thread count. A clone carries its
    /// parent's counts (the accessors do too), so a profiled clone would
    /// report its parent's work twice; nothing profiled clones a network.
    fn drop(&mut self) {
        if let Some(clock) = &mut self.phases {
            clock.flush();
            nox_telemetry::with_acc(|acc| {
                acc.add_count("sim.router_ticks", self.router_ticks);
                acc.add_count("sim.input_visits", self.input_visits);
                acc.add_count("sim.output_ticks", self.output_ticks);
                acc.add_count("sim.source_visits", self.source_visits);
                acc.add_count("sim.sink_visits", self.sink_visits);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;
    use crate::trace::PacketEvent;

    fn one_packet_trace(src: u16, dest: u16, len: u16) -> Trace {
        let mut t = Trace::new();
        t.push(PacketEvent {
            time_ns: 0.0,
            src: NodeId(src),
            dest: NodeId(dest),
            len,
        });
        t
    }

    #[test]
    fn single_packet_crosses_the_mesh() {
        for arch in Arch::ALL {
            let mut net = Network::new(
                NetConfig::small(arch),
                &one_packet_trace(0, 15, 1),
                (0.0, f64::MAX),
            );
            assert!(net.run_to_quiescence(1_000), "{arch} lost the packet");
            assert_eq!(net.counters().packets_ejected, 1);
            assert_eq!(net.counters().flits_ejected, 1);
        }
    }

    #[test]
    fn hop_count_sets_zero_load_latency() {
        // 0 -> 15 on a 4x4 mesh: 6 hops + ejection link + injection and
        // sink handling. Single-cycle routers: latency ~= hops + small
        // constant, in cycles.
        let mut net = Network::new(
            NetConfig::small(Arch::Nox),
            &one_packet_trace(0, 15, 1),
            (0.0, f64::MAX),
        );
        assert!(net.run_to_quiescence(1_000));
        let cycles = net.latency_all_ns().mean() / net.config().clock_ns();
        assert!(
            (7.0..12.0).contains(&cycles),
            "zero-load latency {cycles} cycles for 6 hops"
        );
    }

    #[test]
    fn multiflit_packet_arrives_whole() {
        let mut net = Network::new(
            NetConfig::small(Arch::Nox),
            &one_packet_trace(5, 10, 9),
            (0.0, f64::MAX),
        );
        assert!(net.run_to_quiescence(1_000));
        assert_eq!(net.counters().packets_ejected, 1);
        assert_eq!(net.counters().flits_ejected, 9);
    }

    #[test]
    fn self_addressed_packet_uses_local_turnaround() {
        // src == dest routes LOCAL immediately: one switch traversal, no
        // mesh links.
        let mut net = Network::new(
            NetConfig::small(Arch::Nox),
            &one_packet_trace(3, 3, 1),
            (0.0, f64::MAX),
        );
        assert!(net.run_to_quiescence(100));
        assert_eq!(net.counters().packets_ejected, 1);
        assert_eq!(net.counters().link_flits, 1, "only the ejection hop");
    }

    #[test]
    fn measured_window_tags_only_window_packets() {
        let mut t = Trace::new();
        for i in 0..10 {
            t.push(PacketEvent {
                time_ns: i as f64 * 10.0,
                src: NodeId(0),
                dest: NodeId(5),
                len: 1,
            });
        }
        let net = Network::new(NetConfig::small(Arch::Nox), &t, (20.0, 60.0));
        // Packets at t = 20, 30, 40, 50 fall in [20, 60).
        assert_eq!(net.measured_total(), 4);
    }

    #[test]
    fn credits_regenerate_to_full() {
        // After draining, every output port must have all its credits back
        // (conservation of buffer slots).
        let mesh = crate::topology::Mesh::new(4, 4);
        let mut events = Vec::new();
        for i in 0..mesh.nodes() as u16 {
            events.push(PacketEvent {
                time_ns: i as f64 * 0.5,
                src: NodeId(i),
                dest: NodeId((i + 5) % 16),
                len: 3,
            });
        }
        let trace = Trace::from_events(events);
        let cfg = NetConfig::small(Arch::Nox);
        let mut net = Network::new(cfg, &trace, (0.0, f64::MAX));
        assert!(net.run_to_quiescence(10_000));
        // Let in-flight credits mature.
        net.run(cfg.credit_delay + 2);
        for r in &net.routers {
            for p in 0..r.ports() {
                let p = nox_core::PortId(p);
                assert_eq!(
                    r.output(p).credits(),
                    cfg.buffer_depth,
                    "credits leaked at {} port {p}",
                    r.node()
                );
            }
        }
    }

    #[test]
    fn quiescence_is_stable() {
        let mut net = Network::new(
            NetConfig::small(Arch::SpecAccurate),
            &one_packet_trace(0, 15, 2),
            (0.0, f64::MAX),
        );
        assert!(net.run_to_quiescence(1_000));
        let ejected = net.counters().packets_ejected;
        net.run(50);
        assert!(net.is_quiescent());
        assert_eq!(net.counters().packets_ejected, ejected);
    }

    #[test]
    #[should_panic(expected = "outside the mesh")]
    fn trace_outside_mesh_rejected() {
        let _ = Network::new(
            NetConfig::small(Arch::Nox),
            &one_packet_trace(0, 99, 1),
            (0.0, f64::MAX),
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::config::Arch;
    use crate::fault::{DeadLink, RetxConfig, RouterFreeze};
    use crate::probe::{EventKind, ProbeConfig};
    use crate::trace::PacketEvent;

    /// Deterministic all-to-all-ish traffic: enough collisions to form
    /// XOR chains, spread over every link direction.
    fn uniform_trace(rounds: u32, len: u16) -> Trace {
        let mut t = Trace::new();
        for i in 0..rounds {
            for s in 0..16u16 {
                let d = (u32::from(s) * 7 + i * 3 + 5) % 16;
                t.push(PacketEvent {
                    time_ns: f64::from(i) * 4.0,
                    src: NodeId(s),
                    dest: NodeId(d as u16),
                    len,
                });
            }
        }
        t
    }

    fn faulty_net(arch: Arch, trace: &Trace, cfg: FaultConfig) -> Network {
        let mut net = Network::new(NetConfig::small(arch), trace, (0.0, f64::MAX));
        net.enable_faults(cfg);
        net
    }

    #[test]
    fn zero_rate_campaign_changes_nothing() {
        for arch in Arch::ALL {
            let trace = uniform_trace(10, 2);
            let mut clean = Network::new(NetConfig::small(arch), &trace, (0.0, f64::MAX));
            assert!(clean.run_to_quiescence(20_000));
            let mut faulty = faulty_net(arch, &trace, FaultConfig::default());
            assert!(faulty.run_to_settlement(20_000), "{arch}: did not settle");
            assert_eq!(
                clean.counters().packets_ejected,
                faulty.counters().packets_ejected,
                "{arch}: zero-rate campaign altered behaviour"
            );
            let f = faulty.fault_state().unwrap();
            assert_eq!(f.stats().injected_total(), 0);
            assert_eq!(f.delivered_logicals(), f.total_logicals());
        }
    }

    #[test]
    fn a_discarded_flit_is_not_a_latch() {
        // The sequential router's words are always plain, so none of its
        // sinks ever latches: every slot a sink frees without consuming a
        // flit is a CRC discard, and the probe must not report it as one.
        let mut net = faulty_net(
            Arch::NonSpec,
            &uniform_trace(20, 2),
            FaultConfig::protected_bit_flips(7, 0.02),
        );
        net.enable_probe(ProbeConfig {
            window_cycles: 64,
            ring_capacity: 1 << 16,
        });
        assert!(net.run_to_settlement(200_000), "did not settle");
        let probe = net.probe().expect("probe attached");
        assert_eq!(probe.events_dropped(), 0);
        let kinds = || probe.events().map(|e| &e.kind);
        let crc = kinds()
            .filter(|k| {
                matches!(
                    k,
                    EventKind::Fault {
                        label: "detect crc"
                    }
                )
            })
            .count();
        assert!(crc > 0, "CRC never fired");
        assert!(!kinds().any(|k| matches!(k, EventKind::Latch)));
    }

    #[test]
    fn unprotected_bit_flips_corrupt_silently() {
        for arch in Arch::ALL {
            let mut net = faulty_net(
                arch,
                &uniform_trace(20, 2),
                FaultConfig::bit_flips(11, 0.02),
            );
            assert!(net.run_to_settlement(50_000), "{arch}: did not settle");
            let st = net.fault_state().unwrap().stats();
            assert!(st.injected_bit_flips > 0, "{arch}: plan never fired");
            assert!(
                st.silent_corruptions > 0,
                "{arch}: flips must deliver wrong payloads without CRC"
            );
            assert_eq!(st.detected_crc, 0, "{arch}: CRC is off");
        }
    }

    #[test]
    fn crc_and_retransmission_recover_full_delivery() {
        for arch in Arch::ALL {
            let mut net = faulty_net(
                arch,
                &uniform_trace(20, 2),
                FaultConfig::protected_bit_flips(11, 0.02),
            );
            assert!(net.run_to_settlement(200_000), "{arch}: did not settle");
            let f = net.fault_state().unwrap();
            let st = f.stats();
            assert!(st.injected_bit_flips > 0, "{arch}: plan never fired");
            assert!(st.detected_crc > 0, "{arch}: CRC never fired");
            assert_eq!(
                st.silent_corruptions, 0,
                "{arch}: single-bit flips must never alias CRC-8"
            );
            assert_eq!(
                f.delivered_logicals(),
                f.total_logicals(),
                "{arch}: retransmission must recover every packet"
            );
        }
    }

    #[test]
    fn drops_are_recovered_by_retransmission() {
        for arch in Arch::ALL {
            let cfg = FaultConfig {
                seed: 7,
                drop_rate: 0.01,
                crc_enabled: true,
                retx: Some(RetxConfig::default()),
                ..Default::default()
            };
            let mut net = faulty_net(arch, &uniform_trace(15, 2), cfg);
            assert!(net.run_to_settlement(200_000), "{arch}: did not settle");
            let f = net.fault_state().unwrap();
            assert!(f.stats().injected_drops > 0, "{arch}: plan never fired");
            assert!(f.stats().retransmissions > 0, "{arch}: no retries");
            assert_eq!(f.delivered_logicals(), f.total_logicals(), "{arch}");
        }
    }

    #[test]
    fn duplications_are_deduplicated() {
        for arch in Arch::ALL {
            let cfg = FaultConfig {
                seed: 13,
                dup_rate: 0.02,
                crc_enabled: true,
                retx: Some(RetxConfig::default()),
                ..Default::default()
            };
            let mut net = faulty_net(arch, &uniform_trace(15, 1), cfg);
            assert!(net.run_to_settlement(200_000), "{arch}: did not settle");
            let f = net.fault_state().unwrap();
            assert!(f.stats().injected_dups > 0, "{arch}: plan never fired");
            assert_eq!(f.delivered_logicals(), f.total_logicals(), "{arch}");
        }
    }

    #[test]
    fn dead_link_is_routed_around() {
        // Kill node 5's East link from cycle 0; row traffic 4 -> 7 must
        // detour and still arrive without any retransmission.
        let mut t = Trace::new();
        for i in 0..10 {
            t.push(PacketEvent {
                time_ns: f64::from(i) * 4.0,
                src: NodeId(4),
                dest: NodeId(7),
                len: 2,
            });
        }
        let east = Topology::mesh(4, 4).route(NodeId(5), NodeId(7));
        let cfg = FaultConfig {
            dead_links: vec![DeadLink {
                node: 5,
                port: east.0,
            }],
            crc_enabled: true,
            retx: Some(RetxConfig::default()),
            ..Default::default()
        };
        let mut net = faulty_net(Arch::Nox, &t, cfg);
        assert!(net.run_to_settlement(100_000));
        let f = net.fault_state().unwrap();
        assert_eq!(f.delivered_logicals(), f.total_logicals());
        assert_eq!(
            f.stats().retransmissions,
            0,
            "reroute should make retries unnecessary"
        );
    }

    #[test]
    fn credit_corruption_overflows_are_contained() {
        for arch in Arch::ALL {
            let cfg = FaultConfig {
                seed: 23,
                credit_corrupt_rate: 0.02,
                crc_enabled: true,
                retx: Some(RetxConfig::default()),
                ..Default::default()
            };
            let mut net = faulty_net(arch, &uniform_trace(15, 2), cfg);
            assert!(net.run_to_settlement(400_000), "{arch}: did not settle");
            let f = net.fault_state().unwrap();
            assert!(
                f.stats().injected_credit_corruptions > 0,
                "{arch}: plan never fired"
            );
            assert_eq!(f.delivered_logicals(), f.total_logicals(), "{arch}");
        }
    }

    #[test]
    fn router_freeze_delays_but_delivers() {
        let cfg = FaultConfig {
            freeze: Some(RouterFreeze {
                node: 5,
                from_cycle: 5,
                cycles: 50,
            }),
            crc_enabled: true,
            retx: Some(RetxConfig::default()),
            ..Default::default()
        };
        let mut net = faulty_net(Arch::Nox, &uniform_trace(5, 2), cfg);
        assert!(net.run_to_settlement(100_000));
        let f = net.fault_state().unwrap();
        assert!(f.stats().frozen_cycles > 0);
        assert_eq!(f.delivered_logicals(), f.total_logicals());
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = || {
            let mut net = faulty_net(
                Arch::Nox,
                &uniform_trace(10, 2),
                FaultConfig::protected_bit_flips(42, 0.03),
            );
            assert!(net.run_to_settlement(200_000));
            (
                net.cycle(),
                *net.counters(),
                format!("{:?}", net.fault_state().unwrap().stats()),
            )
        };
        assert_eq!(run(), run());
    }
}
