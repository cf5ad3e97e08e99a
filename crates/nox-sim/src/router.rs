//! Cycle-accurate router models for all four architectures.
//!
//! A [`Router`] owns one input and one output per port, five on the
//! paper's mesh and up to [`MAX_PORTS`]. An input is a `nox-core`
//! [`DecodePort`] (SRAM FIFO and decode register, §2.4), and every
//! architecture runs its decode step: a baseline's words are always plain,
//! so they pass. An output is a credit counter plus the architecture's
//! per-output control engine from `nox-core`. Each network cycle the
//! router, in one [`tick`](Router::tick):
//!
//! 1. computes, per input that holds a word, the *presented* flit — the
//!    decode step, which for NoX may consume the cycle to latch an
//!    encoded word — or reuses what it computed for a head that is still
//!    waiting, and files it in its output's request set, qualified by
//!    downstream credit;
//! 2. for each output that is requested or not settled, ticks its control
//!    engine and applies the [`Decision`] it answers with, whatever the
//!    architecture, in one place: drives a link word (possibly
//!    XOR-encoded, possibly invalid on a collision/abort), consumes
//!    serviced flits, returns credits upstream, and counts every
//!    energy-relevant event.
//!
//! The two sets those loops run over (inputs whose FIFO holds a word,
//! outputs whose engine is not settled) are kept exact as words come and
//! go and engines tick: a cycle costs what moves (DESIGN.md §16).
//!
//! A link word moves once per hop, as a flit crosses the paper's switch
//! once per cycle (DESIGN.md §16). The control logic works on a [`Presented`]
//! record that holds the flit's routing information but not the word; the
//! word stays in its FIFO slot until its input is serviced, and is then
//! popped straight into the [`Send`]. Only an XOR-encoded drive (1.4 % of
//! link words on the saturated mesh) and a decode build a new word, from
//! references to the heads and registers where they sit.
//!
//! The router emits link transfers and credit returns into a [`TickCtx`];
//! the surrounding [`Network`](crate::network::Network) owns the wiring
//! and delivers them on the next cycle.

use nox_core::{
    Decision, DecodeAction, DecodePort, DecodeStep, NonSpecCtl, NoxOptions, OutputCtl, PortId,
    PortSet, RequestSet, SpecCtl, SpecMode,
};

use crate::config::Arch;
use crate::fault::FaultState;
use crate::flit::{FlitInfo, PacketId, PacketTable, Word};
use crate::probe::ProbeSlot;
use crate::stats::Counters;
use crate::topology::{NodeId, Topology, MAX_PORTS};

/// A link-word transfer leaving a router this cycle.
#[derive(Clone, Debug)]
pub struct Send {
    /// Originating node.
    pub node: NodeId,
    /// Originating output port.
    pub out: PortId,
    /// The (possibly encoded) word.
    pub word: Word,
}

/// A freed input-buffer slot whose credit must travel upstream.
#[derive(Clone, Copy, Debug)]
pub struct CreditReturn {
    /// Node whose input buffer freed a slot.
    pub node: NodeId,
    /// The input port of that buffer.
    pub input: PortId,
}

/// Mutable per-cycle context shared by all routers of a network.
pub struct TickCtx<'a> {
    /// Packet metadata (for routing and flow-control qualification).
    pub packets: &'a PacketTable,
    /// Event counters for the energy model.
    pub counters: &'a mut Counters,
    /// Link transfers produced this cycle (delivered next cycle).
    pub sends: &'a mut Vec<Send>,
    /// Credit returns produced this cycle (usable after the credit delay).
    pub credits: &'a mut Vec<CreditReturn>,
    /// The network's probe slot, lent for the router stages and handed
    /// back afterwards.
    pub(crate) probe: ProbeSlot,
    /// Fault-injection state, if a campaign is attached to the network.
    pub(crate) faults: Option<&'a mut FaultState>,
    /// Inputs visited and output engines ticked under this context, and
    /// the visits that reused the input's presented record.
    pub(crate) input_visits: u64,
    pub(crate) output_ticks: u64,
    pub(crate) presents_reused: u64,
}

impl<'a> TickCtx<'a> {
    /// Creates a context with no probe or fault campaign attached.
    pub fn new(
        packets: &'a PacketTable,
        counters: &'a mut Counters,
        sends: &'a mut Vec<Send>,
        credits: &'a mut Vec<CreditReturn>,
    ) -> Self {
        TickCtx {
            packets,
            counters,
            sends,
            credits,
            probe: ProbeSlot::default(),
            faults: None,
            input_visits: 0,
            output_ticks: 0,
            presents_reused: 0,
        }
    }

    /// Fault-aware route selection: detours around stuck-at-dead links.
    fn fault_route(
        &mut self,
        topo: &Topology,
        node: NodeId,
        info: &FlitInfo,
        preferred: PortId,
    ) -> PortId {
        match &mut self.faults {
            Some(f) => f.reroute(topo, node, info, preferred),
            None => preferred,
        }
    }

    /// FSM desync self-check: a presented word that is not exactly one
    /// plain flit means the decode register lost sync with the chain
    /// (possible only under fault injection; otherwise `word_info` panics
    /// on this condition as a simulator invariant).
    fn fault_desync(&mut self, word: &Word) -> bool {
        self.faults.is_some() && !word.is_plain()
    }

    /// Is this router frozen (transient fault) this cycle?
    fn fault_frozen(&mut self, node: NodeId) -> bool {
        match &mut self.faults {
            Some(f) => f.frozen_tick(node.0),
            None => false,
        }
    }

    fn fault_chain_kill(&mut self, node: NodeId, input: PortId, lost: usize) {
        if let Some(f) = &mut self.faults {
            f.note_chain_kill(lost);
        }
        self.probe.on_fault(node, input, "detect desync");
    }
}

/// One input port: its FIFO and decode register, and the Spec-Fast
/// freshness flag. The flag is set when a `Pass` pops a tail and the FIFO
/// still holds a word, the newly exposed head of the next packet, and is
/// read and cleared when the next cycle's present stage visits the port
/// and builds the new head's record (the `Pass` ended the old one).
#[derive(Clone, Debug)]
struct InputPort {
    port: DecodePort<u64>,
    fresh_next: bool,
}

/// The per-architecture output control engine.
#[derive(Clone, Debug)]
enum Engine {
    NonSpec(NonSpecCtl),
    Spec(SpecCtl),
    Nox(OutputCtl),
}

impl Engine {
    /// Advances the engine by one cycle (`fresh` is read by Spec-Fast
    /// only) and tells whether it is [settled](Self::settled) afterwards,
    /// one match for both.
    fn tick(&mut self, reqs: RequestSet, fresh: PortSet) -> (Decision, bool) {
        match self {
            Engine::NonSpec(e) => (e.tick(reqs), e.settled()),
            Engine::Spec(e) => (e.tick(reqs, fresh), e.settled()),
            Engine::Nox(e) => (e.tick(reqs), e.settled()),
        }
    }

    /// `true` when ticking this engine with an empty request set would
    /// return [`Decision::IDLE`] and leave it unchanged (the `settled`
    /// contract of `nox-core`), so the tick can be skipped.
    fn settled(&self) -> bool {
        match self {
            Engine::NonSpec(e) => e.settled(),
            Engine::Spec(e) => e.settled(),
            Engine::Nox(e) => e.settled(),
        }
    }
}

/// One output port: control engine plus downstream credit counter.
#[derive(Clone, Debug)]
pub struct OutputPort {
    engine: Engine,
    credits: usize,
    /// `false` for mesh-edge ports with no link attached.
    connected: bool,
}

impl OutputPort {
    /// Credits (free downstream buffer slots) currently available.
    pub fn credits(&self) -> usize {
        self.credits
    }

    /// Returns one credit (a downstream slot freed).
    pub fn return_credit(&mut self, capacity: usize) {
        self.credits += 1;
        assert!(
            self.credits <= capacity,
            "credit overflow: more credits than buffer slots"
        );
    }

    /// Returns one credit, clamping at capacity instead of panicking.
    /// Under fault injection phantom credits (from credit-counter
    /// corruption or duplication faults) can legitimately over-return;
    /// clamping makes the loop self-balancing.
    pub(crate) fn return_credit_saturating(&mut self, capacity: usize) {
        self.credits = (self.credits + 1).min(capacity);
    }

    /// Overwrites the credit counter (a credit-corruption fault).
    pub(crate) fn force_credits(&mut self, credits: usize) {
        self.credits = credits;
    }

    /// `true` when a physical link is attached to this port.
    pub(crate) fn is_connected(&self) -> bool {
        self.connected
    }
}

/// What an input offers the switch: the routing information of its
/// presented (decode-complete) flit, the output it requests and how to
/// commit it when serviced. The word is not in here. It stays in the FIFO
/// (and decode register) until the input is serviced, so the control
/// logic copies a 24-byte record around, not a link word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Presented {
    info: FlitInfo,
    out: PortId,
    action: DecodeAction,
}

impl Presented {
    /// The slot of an input that has presented nothing yet; `current`
    /// never names it.
    const NONE: Presented = Presented {
        info: FlitInfo {
            packet: PacketId(0),
            seq: 0,
            dest: NodeId(0),
            multiflit: false,
            tail: false,
        },
        out: UNROUTED,
        action: DecodeAction::Pass,
    };
}

/// The router's working state, one slot per port: what each input
/// presents (indexed by input), and each output's request set and
/// Spec-Fast fresh set (indexed by output). Fixed arrays of
/// [`MAX_PORTS`], so it is plain data inside the router with no heap block
/// of its own.
///
/// Only the slots the sets name mean anything. An input's `presented`
/// record lasts from the visit that builds it until its head or decode
/// register changes, and `current` names the inputs whose record is
/// still that of their head and register, across ticks. `reqs` and
/// `fresh` hold within one tick, rewritten for the outputs in
/// `requested`.
#[derive(Clone, Copy, Debug)]
pub struct TickScratch {
    presented: [Presented; MAX_PORTS],
    reqs: [RequestSet; MAX_PORTS],
    fresh: [PortSet; MAX_PORTS],
    /// Outputs that some input requests this cycle.
    requested: PortSet,
    /// Inputs whose `presented` record is the one a fresh decode step and
    /// route would build now.
    current: PortSet,
}

impl TickScratch {
    const BLANK: TickScratch = TickScratch {
        presented: [Presented::NONE; MAX_PORTS],
        reqs: [RequestSet {
            req: PortSet::EMPTY,
            multiflit: PortSet::EMPTY,
            tail: PortSet::EMPTY,
        }; MAX_PORTS],
        fresh: [PortSet::EMPTY; MAX_PORTS],
        requested: PortSet::EMPTY,
        current: PortSet::EMPTY,
    };
}

/// A route-row entry nobody has asked for yet (no router has 255 ports).
const UNROUTED: PortId = PortId(u8::MAX);

/// Looks `dest` up in `node`'s route row, asking `topo` on first use.
#[inline]
fn route_via(routes: &mut [PortId], topo: &Topology, node: NodeId, dest: NodeId) -> PortId {
    let slot = &mut routes[dest.index()];
    if *slot == UNROUTED {
        *slot = topo.route(node, dest);
    }
    *slot
}

/// A router of a given architecture: five ports on the paper's mesh,
/// up to [`MAX_PORTS`] on a concentrated mesh.
///
/// A cycle is one [`tick`](Self::tick): the occupied inputs present
/// (decode steps, routing, request sets), then each demanded output's
/// engine decides and its decision takes effect at once (words drive
/// links, inputs are serviced, credits return, counters count). An
/// output's decision reads only what the inputs filed for it and its own
/// engine and credit counter, and applying it touches only that counter
/// and the inputs that requested it, so no output waits for another
/// (DESIGN.md §16). Routers never interact within a cycle either: sends
/// and credits emitted into the [`TickCtx`] are delivered by the network
/// on *later* cycles.
#[derive(Clone, Debug)]
pub struct Router {
    node: NodeId,
    topo: Topology,
    /// This router's row of the route table: [`Topology::route`] from
    /// here to each core, [`UNROUTED`] until first asked. Filled on
    /// demand, not at construction: tabulating all 64 x 64 pairs of the
    /// paper's mesh up front costs about a third of building the network,
    /// and most runs never present most pairs.
    routes: Box<[PortId]>,
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    /// Inputs whose FIFO holds a word, the ones the present stage visits:
    /// kept by [`receive`](Self::receive) and by checking the FIFO after
    /// each pop.
    occupied: PortSet,
    /// Outputs whose engine is not settled and so is owed a tick with
    /// nobody requesting it: re-read after every engine tick.
    unsettled: PortSet,
    scratch: TickScratch,
}

impl Router {
    /// Creates a router for grid node `node` with the given buffer depth.
    /// Edge ports without a neighbour are marked unconnected (they never
    /// see traffic under minimal routing, which tests assert).
    pub fn new(node: NodeId, arch: Arch, topo: Topology, buffer_depth: usize) -> Self {
        Self::with_options(node, arch, topo, buffer_depth, NoxOptions::default())
    }

    /// Creates a router with explicit NoX ablation options (only relevant
    /// for [`Arch::Nox`]).
    pub fn with_options(
        node: NodeId,
        arch: Arch,
        topo: Topology,
        buffer_depth: usize,
        options: NoxOptions,
    ) -> Self {
        let ports = topo.ports();
        assert!(
            usize::from(ports) <= MAX_PORTS,
            "a router has at most {MAX_PORTS} ports, this topology asks for {ports}"
        );
        let inputs = (0..ports)
            .map(|_| InputPort {
                port: DecodePort::new(buffer_depth),
                fresh_next: false,
            })
            .collect();
        let outputs = (0..ports)
            .map(|p| {
                let engine = match arch {
                    Arch::NonSpec => Engine::NonSpec(NonSpecCtl::new(ports)),
                    Arch::SpecFast => Engine::Spec(SpecCtl::new(ports, SpecMode::Fast)),
                    Arch::SpecAccurate => Engine::Spec(SpecCtl::new(ports, SpecMode::Accurate)),
                    Arch::Nox => Engine::Nox(OutputCtl::with_options(ports, options)),
                };
                let p = PortId(p);
                OutputPort {
                    engine,
                    credits: buffer_depth,
                    connected: topo.is_local(p) || topo.link_dest(node, p).is_some(),
                }
            })
            .collect();
        Router {
            node,
            topo,
            routes: vec![UNROUTED; topo.cores()].into_boxed_slice(),
            inputs,
            outputs,
            // Nothing buffered, every engine in its reset state.
            occupied: PortSet::EMPTY,
            unsettled: PortSet::EMPTY,
            scratch: TickScratch::BLANK,
        }
    }

    /// Number of ports on this router.
    pub fn ports(&self) -> u8 {
        self.topo.ports()
    }

    /// This router's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The output port a flit here takes toward `dest_core`:
    /// [`Topology::route`], through this router's route row.
    pub fn route_to(&mut self, dest_core: NodeId) -> PortId {
        route_via(&mut self.routes, &self.topo, self.node, dest_core)
    }

    /// The FIFO and decode register of input `p` (for assertions and
    /// tracing).
    pub fn input(&self, p: PortId) -> &DecodePort<u64> {
        &self.inputs[p.index()].port
    }

    /// Accepts a word arriving at input `p`: a link word the network
    /// delivers, or a flit the core's source injects.
    ///
    /// # Panics
    ///
    /// Panics on buffer overflow — the upstream credit discipline must
    /// make that impossible.
    pub fn receive(&mut self, p: PortId, word: Word) {
        self.inputs[p.index()].port.receive(word);
        self.occupied.insert(p);
    }

    /// Immutable access to an output port.
    pub fn output(&self, p: PortId) -> &OutputPort {
        &self.outputs[p.index()]
    }

    /// Mutable access to an output port (the network returns credits here).
    pub fn output_mut(&mut self, p: PortId) -> &mut OutputPort {
        &mut self.outputs[p.index()]
    }

    /// `true` when every input port is empty (used to detect drain).
    pub fn is_idle(&self) -> bool {
        self.inputs.iter().all(|i| i.port.is_idle())
    }

    /// `true` when a tick would be the identity: every input FIFO is
    /// empty, so nothing can be presented or latched, and every output
    /// engine is settled, so an empty request set decides nothing: both
    /// port sets are empty. The network skips such a router until a word
    /// or an injected flit reaches one of its inputs (DESIGN.md §16).
    /// Credits do not enter into it: with nothing buffered there is
    /// nothing to request with, whatever the counters say, and a decode
    /// register left mid-chain over an empty FIFO waits for its next word
    /// without being clocked.
    pub fn settled(&self) -> bool {
        self.occupied.is_empty() && self.unsettled.is_empty()
    }

    /// The stored `(occupied, unsettled)` port sets (sanitizer support).
    pub(crate) fn port_sets(&self) -> (PortSet, PortSet) {
        (self.occupied, self.unsettled)
    }

    /// The same two sets, read off the FIFOs and the engines.
    pub(crate) fn scan_port_sets(&self) -> (PortSet, PortSet) {
        let mut sets = (PortSet::EMPTY, PortSet::EMPTY);
        for p in (0..self.ports()).map(PortId) {
            if !self.inputs[p.index()].port.is_empty() {
                sets.0.insert(p);
            }
            if !self.outputs[p.index()].engine.settled() {
                sets.1.insert(p);
            }
        }
        sets
    }

    /// The inputs whose presented record is current, each with the record
    /// it keeps and the one its head and register give now, routed by
    /// [`Topology::route`] (sanitizer support). With `detours` (a fault
    /// campaign is attached) the output is not rebuilt but copied from the
    /// kept record: a campaign's detour choice is stateful, and every
    /// visit under it builds the record again anyway.
    pub(crate) fn presented_records<'s>(
        &'s self,
        packets: &'s PacketTable,
        detours: bool,
    ) -> impl Iterator<Item = (PortId, Presented, Option<Presented>)> + 's {
        self.scratch.current.iter().map(move |ip| {
            let kept = self.scratch.presented[ip.index()];
            let port = &self.inputs[ip.index()].port;
            let fresh = match port.step() {
                DecodeStep::Present(action) if port.presented().is_plain() => {
                    let info = packets.word_info(&port.presented());
                    let out = if detours {
                        kept.out
                    } else {
                        self.topo.route(self.node, info.dest)
                    };
                    Some(Presented { info, out, action })
                }
                _ => None,
            };
            (ip, kept, fresh)
        })
    }

    /// Test helper: files input `p`'s record as current with its output
    /// replaced by `out`, the stale record of a router that missed a
    /// change.
    #[cfg(test)]
    pub(crate) fn forge_record(&mut self, p: PortId, out: PortId) {
        self.scratch.presented[p.index()].out = out;
        self.scratch.current.insert(p);
    }

    /// Test helper: pops input `p`'s head behind the router's back — no
    /// control logic runs, and the occupied set is not told.
    #[cfg(test)]
    pub(crate) fn pop_unaccounted(&mut self, p: PortId) -> Word {
        self.scratch.current.remove(p);
        self.inputs[p.index()].port.take(DecodeAction::Pass).0
    }

    /// Total flits buffered across all input ports.
    pub fn buffered_flits(&self) -> usize {
        self.inputs.iter().map(|i| i.port.len()).sum()
    }

    /// The NoX FSM mode of one output's control engine, for telemetry
    /// sampling. `None` for non-NoX architectures.
    pub fn output_mode(&self, p: PortId) -> Option<nox_core::Mode> {
        match &self.outputs[p.index()].engine {
            Engine::Nox(ctl) => Some(ctl.mode()),
            _ => None,
        }
    }

    /// Watchdog deadlock recovery: resets every output's control engine
    /// (clearing wedged reservations, streams, and collision chains) and
    /// truncates every in-progress decode chain. Returns, per input that
    /// lost state, `(port, constituent flits discarded, slot freed)`.
    ///
    /// Resetting engines mid-wormhole can interleave healthy packets;
    /// their flits then fail the sink sequence check and fall back to
    /// end-to-end retransmission — graceful degradation, not a panic.
    pub(crate) fn watchdog_flush(&mut self) -> Vec<(PortId, usize, bool)> {
        let ports = self.topo.ports();
        for out in &mut self.outputs {
            out.engine = match &out.engine {
                Engine::NonSpec(_) => Engine::NonSpec(NonSpecCtl::new(ports)),
                Engine::Spec(c) => Engine::Spec(SpecCtl::new(ports, c.spec_mode())),
                Engine::Nox(c) => Engine::Nox(OutputCtl::with_options(ports, c.options())),
            };
        }
        // An engine in its reset state is settled.
        self.unsettled = PortSet::EMPTY;
        self.scratch.current = PortSet::EMPTY;
        let mut flushed = Vec::new();
        for (idx, input) in self.inputs.iter_mut().enumerate() {
            if input.port.register().is_some() {
                let port = PortId(idx as u8);
                let (lost, popped) = input.port.chain_kill();
                if input.port.is_empty() {
                    self.occupied.remove(port);
                }
                flushed.push((port, lost, popped));
            }
        }
        flushed
    }

    /// Advances the router by one cycle: the inputs present, then each
    /// demanded output decides and applies in turn. A router frozen by a
    /// transient fault (drawn here, once per router per cycle) loses the
    /// whole cycle: no decode, no arbitration, no link drive.
    pub fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if ctx.fault_frozen(self.node) {
            return;
        }
        self.present(ctx);
        for out in self.demanded() {
            self.decide_and_apply(out, ctx);
        }
    }

    // ------------------------------------------------------- tick stages

    /// Computes what every occupied input presents — the decode step,
    /// which for NoX may consume the cycle to latch an encoded word and
    /// for a baseline, whose words are always one key, presents the head
    /// as it stands — and files it in the credit-qualified request set
    /// (and, for Spec-Fast, the fresh set) of the output it asks for.
    ///
    /// A head that waits keeps the record its first visit built, as the
    /// input keeps its decoded state in hardware: the inputs in `current`
    /// file the record they keep and read nothing of their port. Such a
    /// head is not fresh, since the `Pass` that exposes a head also ends
    /// its input's record. Under a fault campaign every visit builds the
    /// record again, because the campaign's detour choice is stateful (a
    /// packet's pin is dropped at its tail's first visit) and its desync
    /// check runs per visit.
    fn present(&mut self, ctx: &mut TickCtx<'_>) {
        self.scratch.requested = PortSet::EMPTY;
        ctx.input_visits += u64::from(self.occupied.len());
        let kept = if ctx.faults.is_none() {
            self.scratch.current
        } else {
            PortSet::EMPTY
        };
        ctx.presents_reused += u64::from(kept.len());
        // A copy of the set: a latch or a chain kill below may empty the
        // FIFO it is looking at. Filing is the same in any order, and only
        // these visits do anything else.
        for ip in self.occupied.difference(kept) {
            let idx = ip.index();
            let input = &mut self.inputs[idx];
            // A head exposed last cycle is fresh in this one.
            let exposed = std::mem::take(&mut input.fresh_next);
            match input.port.step() {
                // An occupied input has a head.
                DecodeStep::Idle => {}
                DecodeStep::Latch => {
                    // Known early in the cycle (§2.4): pop the encoded
                    // word into the register; the slot frees now.
                    input.port.latch();
                    ctx.counters.count_decode(DecodeStep::Latch);
                    ctx.probe.on_latch(self.node, ip);
                    self.slot_freed(ip, ctx);
                }
                DecodeStep::Present(action) => {
                    let word = input.port.presented();
                    if ctx.fault_desync(&word) {
                        // The decode register lost sync with its chain
                        // (an injected drop or duplication upstream):
                        // contain by truncating the poisoned chain.
                        self.chain_kill_input(ip, ctx);
                        continue;
                    }
                    let info = ctx.packets.word_info(&word);
                    let preferred = route_via(&mut self.routes, &self.topo, self.node, info.dest);
                    let out = ctx.fault_route(&self.topo, self.node, &info, preferred);
                    let p = Presented { info, out, action };
                    self.scratch.presented[idx] = p;
                    self.scratch.current.insert(ip);
                    self.file(ip, p, exposed);
                }
            }
        }
        for ip in kept {
            self.file(ip, self.scratch.presented[ip.index()], false);
        }
    }

    /// Files input `ip`'s record `p` in the request sets of the output it
    /// asks for, and in its fresh set if the head is `exposed` and a
    /// packet's first flit, unless that output has no credit.
    #[inline]
    fn file(&mut self, ip: PortId, p: Presented, exposed: bool) {
        let o = p.out.index();
        if self.outputs[o].credits == 0 {
            return; // output-wide stall: nobody requests
        }
        let TickScratch {
            reqs,
            fresh,
            requested,
            ..
        } = &mut self.scratch;
        if !requested.contains(p.out) {
            // The output's first request of the cycle: its sets still
            // hold those of the last cycle it was asked for.
            requested.insert(p.out);
            reqs[o] = RequestSet::default();
            fresh[o] = PortSet::EMPTY;
        }
        reqs[o].req.insert(ip);
        if p.info.multiflit {
            reqs[o].multiflit.insert(ip);
        }
        if p.info.tail {
            reqs[o].tail.insert(ip);
        }
        if exposed && p.info.seq == 0 {
            fresh[o].insert(ip);
        }
    }

    /// The outputs whose engine has something to decide this cycle: the
    /// requested ones and the unsettled ones. Any other engine's tick
    /// would return the idle decision, which applies as nothing, and
    /// leave it unchanged (DESIGN.md §16).
    fn demanded(&self) -> PortSet {
        self.scratch.requested.union(self.unsettled)
    }

    /// Ticks output `out`'s control engine against the request sets the
    /// inputs filed and [applies](Self::apply) its decision at once. An
    /// output out of credit does nothing.
    fn decide_and_apply(&mut self, out: PortId, ctx: &mut TickCtx<'_>) {
        let o = out.index();
        let port = &mut self.outputs[o];
        // Credit exhaustion freezes the whole output: nothing can
        // traverse, and ticking the controller would tear down a valid
        // schedule (DESIGN.md, clarification 4).
        if port.credits == 0 {
            return;
        }
        let (reqs, fresh) = if self.scratch.requested.contains(out) {
            (self.scratch.reqs[o], self.scratch.fresh[o])
        } else {
            (RequestSet::default(), PortSet::EMPTY)
        };
        ctx.output_ticks += 1;
        let (d, settled) = port.engine.tick(reqs, fresh);
        self.apply(out, d, ctx);
        if settled {
            self.unsettled.remove(out);
        } else {
            self.unsettled.insert(out);
        }
    }

    // ------------------------------------------------------------ helpers

    /// Books a FIFO slot freed at input `ip` during a tick: the input
    /// leaves the occupied set if its FIFO emptied, and the slot's credit
    /// goes upstream unless `ip` is the local port, whose source checks
    /// for space itself.
    fn slot_freed(&mut self, ip: PortId, ctx: &mut TickCtx<'_>) {
        if self.inputs[ip.index()].port.is_empty() {
            self.occupied.remove(ip);
        }
        if !self.topo.is_local(ip) {
            ctx.credits.push(CreditReturn {
                node: self.node,
                input: ip,
            });
        }
    }

    /// Truncates a poisoned decode chain at input `ip`, accounting for the
    /// discarded flits and freeing the slot of a discarded head.
    fn chain_kill_input(&mut self, ip: PortId, ctx: &mut TickCtx<'_>) {
        self.scratch.current.remove(ip);
        let (lost, popped) = self.inputs[ip.index()].port.chain_kill();
        ctx.fault_chain_kill(self.node, ip, lost);
        if popped {
            ctx.counters.buffer_reads += 1;
            self.slot_freed(ip, ctx);
        }
    }

    /// Consumes the serviced flit at input `i` — commits its decode
    /// action, which pops the FIFO unless the head is a chain's final
    /// packet, and frees the slot — and hands back the word it presented.
    /// For a plain head over an empty register, which is nearly every
    /// flit, that is the popped head itself: the word's one move of the
    /// hop, FIFO slot to link.
    fn take_presented(&mut self, i: PortId, ctx: &mut TickCtx<'_>) -> Word {
        assert!(
            self.scratch.current.contains(i),
            "engine serviced an input that presented nothing"
        );
        // Every action changes the head or the register.
        self.scratch.current.remove(i);
        let p = self.scratch.presented[i.index()];
        let input = &mut self.inputs[i.index()];
        let (word, slot_freed) = input.port.take(p.action);
        ctx.counters.count_decode(DecodeStep::Present(p.action));
        if slot_freed {
            if p.action == DecodeAction::Pass && p.info.tail && !input.port.is_empty() {
                // The next packet is newly exposed at the head of line.
                input.fresh_next = true;
            }
            self.slot_freed(i, ctx);
        }
        word
    }

    /// Drives one productive link word from the inputs in `drive`,
    /// consuming a credit, and services those of them in `serviced` as
    /// their words cross the switch.
    fn drive_link(
        &mut self,
        out: PortId,
        drive: PortSet,
        serviced: PortSet,
        ctx: &mut TickCtx<'_>,
    ) {
        assert!(!drive.is_empty(), "engine drove an empty input set");
        assert!(
            serviced.is_subset(drive),
            "engine serviced an input that did not drive the switch"
        );
        let word = match drive.sole() {
            Some(i) if serviced == drive => self.take_presented(i, ctx),
            _ => {
                // A multi-input drive is an XOR encode, folded over the
                // words where they sit; only the serviced winner's leaves
                // its FIFO.
                let mut word = Word::empty();
                for i in drive.iter() {
                    word = if serviced.contains(i) {
                        word.xor(&self.take_presented(i, ctx))
                    } else {
                        assert!(
                            self.scratch.current.contains(i),
                            "engine drove an input that presented nothing"
                        );
                        word.xor(&self.inputs[i.index()].port.presented())
                    };
                }
                word
            }
        };
        let op = &mut self.outputs[out.index()];
        assert!(op.connected, "drove a word onto an unconnected port");
        assert!(op.credits > 0, "drove a word without downstream credit");
        op.credits -= 1;
        ctx.counters.link_flits += 1;
        ctx.counters.xbar_traversals += 1;
        ctx.counters.xbar_inputs_active += drive.len() as u64;
        ctx.sends.push(Send {
            node: self.node,
            out,
            word,
        });
    }

    /// Applies output `out`'s decision, whichever engine made it: counts
    /// the grant, drives the invalid word of an abort or a collision (full
    /// channel energy, nothing delivered, no credit consumed), counts a
    /// wasted reservation, and drives the productive word (possibly
    /// XOR-encoded), which consumes the serviced flits and returns their
    /// credits upstream.
    fn apply(&mut self, out: PortId, d: Decision, ctx: &mut TickCtx<'_>) {
        if d.granted.is_some() {
            ctx.counters.arbitrations += 1;
        }
        if !d.wasted.is_empty() {
            if d.aborted {
                ctx.counters.aborts += 1;
            } else {
                ctx.counters.collisions += 1;
            }
            ctx.counters.link_wasted += 1;
            ctx.counters.xbar_traversals += 1;
            ctx.counters.xbar_inputs_active += d.wasted.len() as u64;
            ctx.probe
                .on_wasted(self.node, out, d.wasted.len() as u8, d.aborted);
        }
        if d.wasted_reservation {
            ctx.counters.wasted_reservations += 1;
        }
        if !d.drive.is_empty() {
            if d.encoded {
                ctx.counters.encoded_transfers += 1;
                ctx.probe.on_encoded(self.node, out, d.drive.len() as u8);
            }
            self.drive_link(out, d.drive, d.serviced, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::flit::{word_for, FlitKey, PacketMeta};
    use crate::topology::Port;

    fn ctx_parts() -> (PacketTable, Counters, Vec<Send>, Vec<CreditReturn>) {
        (PacketTable::new(), Counters::new(), Vec::new(), Vec::new())
    }

    fn single_flit_packet(t: &mut PacketTable, src: u16, dest: u16) -> FlitKey {
        let id = t.push(PacketMeta {
            src: NodeId(src),
            dest: NodeId(dest),
            len: 1,
            created_cycle: 0,
            measured: false,
        });
        FlitKey { packet: id, seq: 0 }
    }

    #[test]
    fn router_forwards_single_flit_toward_destination() {
        for arch in Arch::ALL {
            let mesh = Topology::mesh(4, 4);
            let (mut packets, mut counters, mut sends, mut credits) = ctx_parts();
            // Node 5 = (1,1); destination node 7 = (3,1): East.
            let key = single_flit_packet(&mut packets, 5, 7);
            let mut r = Router::new(NodeId(5), arch, mesh, 4);
            r.receive(Port::West.id(), word_for(key));

            // All four designs are single-cycle routers (§3.2): the flit
            // leaves on its arrival cycle, regardless of architecture.
            let mut ctx = TickCtx::new(&packets, &mut counters, &mut sends, &mut credits);
            r.tick(&mut ctx);
            assert_eq!(sends.len(), 1, "{arch}: single-cycle traversal");
            let s = &sends[0];
            assert_eq!(s.out, Port::East.id(), "{arch}: wrong route");
            assert_eq!(s.word.sole_key(), Some(key.pack()), "{arch}: wrong word");
            // The freed slot's credit returned.
            assert_eq!(credits.len(), 1);
            assert_eq!(credits[0].input, Port::West.id());
        }
    }

    #[test]
    fn credit_exhaustion_blocks_output() {
        for arch in Arch::ALL {
            let mesh = Topology::mesh(4, 4);
            let (mut packets, mut counters, mut sends, mut credits) = ctx_parts();
            let key = single_flit_packet(&mut packets, 5, 7);
            let mut r = Router::new(NodeId(5), arch, mesh, 4);
            r.output_mut(Port::East.id()).credits = 0;
            r.receive(Port::West.id(), word_for(key));
            for _ in 0..4 {
                let mut ctx = TickCtx::new(&packets, &mut counters, &mut sends, &mut credits);
                r.tick(&mut ctx);
            }
            assert!(sends.is_empty(), "{arch}: sent without credit");
            assert_eq!(r.input(Port::West.id()).len(), 1);
        }
    }

    #[test]
    fn a_waiting_head_reuses_its_record() {
        // A head stalled on credit is presented every tick; only its first
        // visit builds the record, unless a fault campaign is attached.
        for campaign in [false, true] {
            let mesh = Topology::mesh(4, 4);
            let (mut packets, mut counters, mut sends, mut credits) = ctx_parts();
            let key = single_flit_packet(&mut packets, 5, 7);
            let mut r = Router::new(NodeId(5), Arch::Nox, mesh, 4);
            r.output_mut(Port::East.id()).credits = 0;
            r.receive(Port::West.id(), word_for(key));
            let mut faults = FaultState::new(crate::fault::FaultConfig::default());
            let mut reused = 0;
            for cycle in 0..5 {
                if cycle == 4 {
                    r.output_mut(Port::East.id()).return_credit(4);
                }
                let mut ctx = TickCtx::new(&packets, &mut counters, &mut sends, &mut credits);
                if campaign {
                    ctx.faults = Some(&mut faults);
                }
                r.tick(&mut ctx);
                assert_eq!(ctx.input_visits, 1);
                reused += ctx.presents_reused;
            }
            assert_eq!(reused, if campaign { 0 } else { 4 }, "campaign {campaign}");
            assert_eq!(sends.len(), 1, "sent once the credit came back");
            assert!(r.scratch.current.is_empty(), "the serviced head left");
        }
    }

    #[test]
    #[should_panic(expected = "engine serviced an input that presented nothing")]
    fn a_latching_input_has_nothing_to_take() {
        // West presents a plain word and is serviced in the first cycle;
        // in the second its head is encoded and latches, so it presents
        // nothing, and the first cycle's record must not stand in.
        let mesh = Topology::mesh(4, 4);
        let (mut packets, mut counters, mut sends, mut credits) = ctx_parts();
        let [a, b, c] = [(); 3].map(|_| word_for(single_flit_packet(&mut packets, 5, 7)));
        let mut r = Router::new(NodeId(5), Arch::Nox, mesh, 4);
        r.receive(Port::West.id(), a);
        r.receive(Port::West.id(), b.xor(&c));
        let mut ctx = TickCtx::new(&packets, &mut counters, &mut sends, &mut credits);
        r.tick(&mut ctx);
        r.tick(&mut ctx);
        assert_eq!(ctx.sends.len(), 1);
        assert!(r.input(Port::West.id()).register().is_some(), "latched");
        r.take_presented(Port::West.id(), &mut ctx);
    }

    #[test]
    fn nox_collision_produces_encoded_word_and_frees_winner() {
        let mesh = Topology::mesh(4, 4);
        let (mut packets, mut counters, mut sends, mut credits) = ctx_parts();
        let k1 = single_flit_packet(&mut packets, 5, 7);
        let k2 = single_flit_packet(&mut packets, 5, 7);
        let mut r = Router::new(NodeId(5), Arch::Nox, mesh, 4);
        r.receive(Port::West.id(), word_for(k1));
        r.receive(Port::North.id(), word_for(k2));

        let mut ctx = TickCtx::new(&packets, &mut counters, &mut sends, &mut credits);
        r.tick(&mut ctx);

        assert_eq!(sends.len(), 1);
        let w = &sends[0].word;
        assert!(w.is_encoded(), "collision must drive an encoded word");
        assert_eq!(w.keys().len(), 2);
        assert_eq!(counters.encoded_transfers, 1);
        assert_eq!(counters.link_wasted, 0, "NoX collisions are productive");
        // Exactly one input freed (the winner), one remains.
        assert_eq!(
            r.input(Port::West.id()).len() + r.input(Port::North.id()).len(),
            1
        );

        // Next cycle the loser goes out plain.
        sends.clear();
        let mut ctx = TickCtx::new(&packets, &mut counters, &mut sends, &mut credits);
        r.tick(&mut ctx);
        assert_eq!(sends.len(), 1);
        assert!(sends[0].word.is_plain());
    }

    #[test]
    fn spec_collision_wastes_link_cycle() {
        for arch in [Arch::SpecFast, Arch::SpecAccurate] {
            let mesh = Topology::mesh(4, 4);
            let (mut packets, mut counters, mut sends, mut credits) = ctx_parts();
            let k1 = single_flit_packet(&mut packets, 5, 7);
            let k2 = single_flit_packet(&mut packets, 5, 7);
            let mut r = Router::new(NodeId(5), arch, mesh, 4);
            r.receive(Port::West.id(), word_for(k1));
            r.receive(Port::North.id(), word_for(k2));

            let mut ctx = TickCtx::new(&packets, &mut counters, &mut sends, &mut credits);
            r.tick(&mut ctx);
            assert!(sends.is_empty(), "{arch}: collision cycle must not deliver");
            assert_eq!(counters.link_wasted, 1);
            assert_eq!(counters.collisions, 1);

            // Both flits still buffered.
            assert_eq!(
                r.input(Port::West.id()).len() + r.input(Port::North.id()).len(),
                2
            );
        }
    }

    #[test]
    fn nonspec_output_stays_busy_with_backlog() {
        let mesh = Topology::mesh(4, 4);
        let (mut packets, mut counters, mut sends, mut credits) = ctx_parts();
        let mut r = Router::new(NodeId(5), Arch::NonSpec, mesh, 4);
        for _ in 0..4 {
            let k = single_flit_packet(&mut packets, 5, 7);
            r.receive(Port::West.id(), word_for(k));
        }
        let mut delivered = 0;
        for _ in 0..4 {
            let mut ctx = TickCtx::new(&packets, &mut counters, &mut sends, &mut credits);
            r.tick(&mut ctx);
            delivered += sends.len();
            sends.clear();
        }
        assert_eq!(delivered, 4, "output busy every cycle with a backlog");
    }

    #[test]
    fn random_credit_traffic_keeps_the_port_sets_exact() {
        // One router driven heavily enough for collisions, chains and
        // stalls: the port sets it keeps must be the ones its FIFOs and
        // engines say at the end of every tick, and every event its
        // architecture can produce must have happened.
        for arch in Arch::ALL {
            let mesh = Topology::mesh(4, 4);
            let (mut packets, mut counters, mut sends, mut credits) = ctx_parts();
            let mut r = Router::new(NodeId(5), arch, mesh, 2);
            // Downstream is not modelled: credits come back at random.
            let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
            let mut draw = |n: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % n
            };
            // One upstream link per input: a packet's flits arrive in
            // order, one a cycle, as the buffer has room.
            let mut links: Vec<VecDeque<Word>> = vec![VecDeque::new(); mesh.ports() as usize];
            let mut sent = 0;
            for cycle in 0..2_000u64 {
                for p in 0..mesh.ports() {
                    let port = PortId(p);
                    let link = &mut links[port.index()];
                    if link.is_empty() && draw(3) != 0 {
                        let id = packets.push(PacketMeta {
                            src: NodeId(0),
                            dest: NodeId([1, 4, 6, 9, 5][draw(5) as usize]),
                            len: if draw(8) == 0 { 3 } else { 1 },
                            created_cycle: cycle,
                            measured: false,
                        });
                        let len = packets.meta(id).len;
                        link.extend((0..len).map(|seq| word_for(FlitKey { packet: id, seq })));
                    }
                    if r.input(port).has_space() {
                        if let Some(w) = link.pop_front() {
                            r.receive(port, w);
                        }
                    }
                    if draw(2) == 0 && r.output(port).credits() < 2 {
                        r.output_mut(port).return_credit(2);
                    }
                }
                r.tick(&mut TickCtx::new(
                    &packets,
                    &mut counters,
                    &mut sends,
                    &mut credits,
                ));
                assert_eq!(r.port_sets(), r.scan_port_sets(), "{arch} cycle {cycle}");
                sent += sends.len();
                sends.clear();
                credits.clear();
            }
            let c = counters;
            assert!(sent > 1_000, "{arch}: only {sent} words sent");
            assert!(c.arbitrations > 500, "{arch}: {c:?}");
            match arch {
                Arch::NonSpec => {}
                Arch::SpecFast => assert!(c.collisions > 50 && c.wasted_reservations > 50),
                Arch::SpecAccurate => assert!(c.collisions > 50, "{c:?}"),
                Arch::Nox => assert!(c.encoded_transfers > 50 && c.aborts > 5, "{c:?}"),
            }
        }
    }

    #[test]
    fn multiflit_packet_streams_contiguously_everywhere() {
        for arch in Arch::ALL {
            let mesh = Topology::mesh(4, 4);
            let (mut packets, mut counters, mut sends, mut credits) = ctx_parts();
            let id = packets.push(PacketMeta {
                src: NodeId(5),
                dest: NodeId(7),
                len: 3,
                created_cycle: 0,
                measured: false,
            });
            let k_single = single_flit_packet(&mut packets, 5, 7);
            let mut r = Router::new(NodeId(5), arch, mesh, 4);
            for seq in 0..3 {
                r.receive(Port::West.id(), word_for(FlitKey { packet: id, seq }));
            }
            // A competing single-flit on another input.
            r.receive(Port::North.id(), word_for(k_single));

            let mut order = Vec::new();
            for _ in 0..12 {
                let mut ctx = TickCtx::new(&packets, &mut counters, &mut sends, &mut credits);
                r.tick(&mut ctx);
                for s in sends.drain(..) {
                    for k in s.word.keys() {
                        order.push(FlitKey::unpack(*k));
                    }
                }
            }
            assert_eq!(order.len(), 4, "{arch}: lost flits");
            // The three multi-flit flits must appear contiguously.
            let pos: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|(_, k)| k.packet == id)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(pos.len(), 3);
            assert!(
                pos[2] - pos[0] == 2,
                "{arch}: multi-flit packet interleaved: {order:?}"
            );
        }
    }
}
