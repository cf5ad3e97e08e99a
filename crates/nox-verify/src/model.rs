//! The verification model: one NoX output port wired to one downstream
//! input port, with every environment degree of freedom left
//! nondeterministic.
//!
//! The model composes the two real control FSMs from `nox-core` — the
//! output-arbitration controller ([`OutputCtl`]) and the receiving input
//! port with its decode register ([`DecodePort`]) — with exactly the
//! plumbing the simulator's router puts around them: per-input flit
//! queues, a credit counter with the zero-credit freeze (DESIGN.md
//! clarification 4) and a one-cycle link. Nothing in the protocol logic
//! is re-implemented; the model only schedules the same calls `nox-sim`
//! makes, so a state explored here is a state the simulator can reach.
//!
//! Three environment choices are resolved nondeterministically by the
//! checker each cycle:
//!
//! * **arrivals** — any subset of inputs with pending script flits may
//!   receive their next flit (upstream timing is arbitrary);
//! * **credit release** — any number of credits freed at the receiver may
//!   complete their return trip (credit latency is arbitrary);
//! * **receiver stall** — the receiver's presented word may lose its own
//!   downstream switch allocation this cycle (downstream contention).

use std::collections::VecDeque;

use nox_core::{
    Coded, Decision, DecodeAction, DecodePort, DecodeStep, Mode, OutputCtl, PortId, PortSet,
    RequestSet,
};

use crate::mutation::Mutation;
use crate::scenario::{Flit, Scenario};

/// A link word: the XOR-coding wrapper over a 64-bit payload.
pub type Word = Coded<u64>;

/// Deterministic payload bits for a flit key, so the checker can verify
/// bit-exact reconstruction after any decode sequence.
pub fn payload_for(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The plain link word presenting one script flit.
pub fn word_of(f: Flit) -> Word {
    Coded::plain(f.key, payload_for(f.key))
}

/// One cycle's worth of environment nondeterminism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnvChoice {
    /// Inputs whose next script flit arrives this cycle.
    pub arrivals: PortSet,
    /// How many receiver-freed credits complete their return this cycle.
    pub release: u8,
    /// `true` if the receiver's presented word loses downstream switch
    /// allocation this cycle (latches are never stalled — they need no
    /// grant).
    pub rx_stall: bool,
}

/// Why a model run was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// The receiver presented a word that is not a single plain flit —
    /// the decode register was corrupted (e.g. by a third-party flit
    /// slipping into a collision chain).
    DecodeCorruption,
    /// A presented flit's payload bits differ from the injected bits.
    PayloadCorruption,
    /// Flits were not delivered exactly once in service order.
    OrderViolation,
    /// An outstanding collision chain grew or picked up new members.
    ChainGrowth,
    /// A word was driven onto the link without a downstream credit.
    CreditUnderflow,
    /// The credit loop lost or duplicated a buffer slot.
    CreditAccounting,
    /// A word arrived at a full receiver FIFO.
    FifoOverflow,
    /// A [`Decision`] violated its own structural contract.
    Structural,
    /// The system failed to drain within the liveness bound under
    /// maximally fair scheduling.
    Livelock,
}

impl ViolationKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::DecodeCorruption => "decode-corruption",
            ViolationKind::PayloadCorruption => "payload-corruption",
            ViolationKind::OrderViolation => "order-violation",
            ViolationKind::ChainGrowth => "chain-growth",
            ViolationKind::CreditUnderflow => "credit-underflow",
            ViolationKind::CreditAccounting => "credit-accounting",
            ViolationKind::FifoOverflow => "fifo-overflow",
            ViolationKind::Structural => "structural",
            ViolationKind::Livelock => "livelock",
        }
    }
}

/// A concrete invariant violation found by the checker.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// The scenario being explored.
    pub scenario: String,
    /// What exactly went wrong, with the offending state.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.kind.name(),
            self.scenario,
            self.detail
        )
    }
}

/// The joint protocol state: sender FSM, link, receiver FSM, and the
/// bookkeeping needed to state the invariants.
///
/// `Eq`/`Hash` cover the full state, which is what lets the checker
/// deduplicate and explore the reachable space to exhaustion.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Model {
    /// The real per-output arbitration FSM under test.
    ctl: OutputCtl,
    /// Per input: how many script flits have arrived at the sender.
    arrived: Vec<u16>,
    /// Per input: how many script flits have been serviced (sent).
    sent: Vec<u16>,
    /// Sender-side credits for the downstream buffer.
    credits: u8,
    /// Credits freed at the receiver but still in their return flight.
    pending: u8,
    /// The word currently traversing the link (delivered next cycle).
    link: Option<Word>,
    /// The receiver: the real input port, FIFO and decode FSM, under test.
    rx: DecodePort<u64>,
    /// Keys serviced by the sender but not yet presented by the receiver,
    /// in service order. The receiver must reproduce exactly this queue.
    outstanding: VecDeque<u64>,
}

impl Model {
    /// The initial state for a scenario: everything empty, full credits.
    pub fn init(sc: &Scenario) -> Self {
        let n = sc.inputs.len();
        Model {
            ctl: OutputCtl::with_options(n as u8, sc.options),
            arrived: vec![0; n],
            sent: vec![0; n],
            credits: sc.depth,
            pending: 0,
            link: None,
            rx: DecodePort::new(sc.depth as usize),
            outstanding: VecDeque::new(),
        }
    }

    /// The sender's output controller in this state.
    pub fn ctl(&self) -> &OutputCtl {
        &self.ctl
    }

    /// The head flit input `i` currently presents, if any.
    fn head(&self, scripts: &[Vec<Flit>], i: usize) -> Option<Flit> {
        if self.sent[i] < self.arrived[i] {
            Some(scripts[i][self.sent[i] as usize])
        } else {
            None
        }
    }

    /// `true` when every flit has been injected, serviced, delivered, and
    /// every credit has come home.
    pub fn is_terminal(&self, scripts: &[Vec<Flit>], depth: u8) -> bool {
        self.sent
            .iter()
            .enumerate()
            .all(|(i, &s)| s as usize == scripts[i].len())
            && self.outstanding.is_empty()
            && self.rx.is_idle()
            && self.link.is_none()
            && self.credits == depth
    }

    /// Enumerates every environment choice available from this state.
    pub fn choices(&self, scripts: &[Vec<Flit>]) -> Vec<EnvChoice> {
        let eligible: Vec<u8> = (0..scripts.len())
            .filter(|&i| (self.arrived[i] as usize) < scripts[i].len())
            .map(|i| i as u8)
            .collect();
        // The stall choice only matters when the receiver could present.
        let stalls: &[bool] = if self.rx.is_idle() && self.link.is_none() {
            &[false]
        } else {
            &[false, true]
        };
        let mut out = Vec::new();
        for mask in 0..(1u32 << eligible.len()) {
            let mut arrivals = PortSet::EMPTY;
            for (bit, &i) in eligible.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    arrivals.insert(PortId(i));
                }
            }
            for release in 0..=self.pending {
                for &rx_stall in stalls {
                    out.push(EnvChoice {
                        arrivals,
                        release,
                        rx_stall,
                    });
                }
            }
        }
        out
    }

    fn violation(&self, sc: &Scenario, kind: ViolationKind, detail: String) -> Violation {
        Violation {
            kind,
            scenario: sc.label(),
            detail: format!("{detail}; state: {self:?}"),
        }
    }

    /// Structural contract of a NoX [`Decision`] (the per-cycle checks the
    /// proptests sample, asserted here at every reachable state).
    fn check_decision(
        &self,
        sc: &Scenario,
        d: &Decision,
        req: &RequestSet,
    ) -> Result<(), Violation> {
        let fail = |msg: String| Err(self.violation(sc, ViolationKind::Structural, msg));
        let switched = d.drive.union(d.wasted);
        if !switched.is_subset(req.req) {
            return fail(format!("drive {switched:?} outside requests {:?}", req.req));
        }
        // NoX wastes a cycle only by an abort, and an abort always does.
        if d.wasted_reservation || d.aborted == d.wasted.is_empty() {
            return fail(format!("NoX wasted a cycle other than by an abort: {d:?}"));
        }
        if d.aborted {
            if d.wasted.len() < 2 || !d.drive.is_empty() || !d.serviced.is_empty() {
                return fail(format!("malformed abort: {d:?}"));
            }
            return Ok(());
        }
        if !d.serviced.is_subset(d.drive) {
            return fail(format!(
                "serviced {:?} outside drive {:?}",
                d.serviced, d.drive
            ));
        }
        if d.encoded {
            if d.drive.len() < 2 || d.serviced.len() != 1 {
                return fail(format!("malformed encoded transfer: {d:?}"));
            }
        } else if !d.drive.is_empty() && d.drive != d.serviced {
            return fail(format!("plain transfer must service its driver: {d:?}"));
        }
        Ok(())
    }

    /// Advances the model by one cycle under `choice`, applying `mutation`
    /// (if any) to the harness plumbing. Mirrors the simulator's phase
    /// order: deliver, environment, sender tick, receiver decode step,
    /// conservation audit.
    pub fn step(
        &mut self,
        sc: &Scenario,
        scripts: &[Vec<Flit>],
        choice: EnvChoice,
        mutation: Option<Mutation>,
    ) -> Result<(), Violation> {
        let n = scripts.len();

        // Phase 1: the in-flight word lands in the receiver FIFO.
        if let Some(w) = self.link.take() {
            if !self.rx.has_space() {
                return Err(self.violation(
                    sc,
                    ViolationKind::FifoOverflow,
                    format!("word {w:?} arrived at a full FIFO (depth {})", sc.depth),
                ));
            }
            self.rx.receive(w);
        }

        // Phase 2: environment — arrivals and credit returns.
        for i in choice.arrivals.iter() {
            self.arrived[i.index()] += 1;
        }
        debug_assert!(choice.release <= self.pending);
        self.pending -= choice.release;
        self.credits += choice.release;

        // Phase 3: sender. Credit exhaustion freezes the whole output
        // (clarification 4) unless the freeze itself is the mutation.
        let frozen = self.credits == 0 && mutation != Some(Mutation::IgnoreCreditFreeze);
        if frozen {
            if mutation == Some(Mutation::DropChainOnStall) && !self.ctl.chain().is_empty() {
                // Mutated rule: the stall tears down the outstanding
                // collision chain instead of holding it.
                self.ctl = OutputCtl::with_options(n as u8, sc.options);
            }
        } else {
            self.sender_tick(sc, scripts, mutation)?;
        }

        // Phase 4: receiver decode step.
        self.receiver_step(sc, choice.rx_stall, mutation)?;

        // Phase 5: credit-loop conservation. Every downstream buffer slot
        // is either available (credits), in return flight (pending),
        // occupied (FIFO), or reserved by the word on the link.
        let slots = self.credits as usize
            + self.pending as usize
            + self.rx.len()
            + usize::from(self.link.is_some());
        if slots != sc.depth as usize {
            return Err(self.violation(
                sc,
                ViolationKind::CreditAccounting,
                format!("slot accounting {} != depth {}", slots, sc.depth),
            ));
        }
        Ok(())
    }

    fn sender_tick(
        &mut self,
        sc: &Scenario,
        scripts: &[Vec<Flit>],
        mutation: Option<Mutation>,
    ) -> Result<(), Violation> {
        let n = scripts.len();
        let chain_before = self.ctl.chain();

        // Mutated rule: a third-party flit bypasses the switch mask while
        // a collision chain is outstanding.
        if mutation == Some(Mutation::ThirdPartyDuringChain) && !chain_before.is_empty() {
            let third = (0..n).find(|&j| {
                !chain_before.contains(PortId(j as u8)) && self.head(scripts, j).is_some()
            });
            if let Some(j) = third {
                let f = self.head(scripts, j).unwrap();
                self.consume_credit(sc)?;
                self.link = Some(word_of(f));
                self.sent[j] += 1;
                self.outstanding.push_back(f.key);
                return Ok(());
            }
        }

        let mut req = RequestSet::default();
        for i in 0..n {
            if let Some(f) = self.head(scripts, i) {
                let p = PortId(i as u8);
                req.req.insert(p);
                if f.multiflit {
                    req.multiflit.insert(p);
                }
                if f.tail {
                    req.tail.insert(p);
                }
            }
        }

        let mode = self.ctl.mode();
        let d = self.ctl.tick(req);
        self.check_decision(sc, &d, &req)?;

        // Chain monotonicity: an outstanding chain only ever shrinks, and
        // a fresh chain can only be born from this cycle's colliders.
        let chain_after = self.ctl.chain();
        let bound = if chain_before.is_empty() {
            d.drive.union(d.wasted)
        } else {
            chain_before
        };
        if !chain_after.is_subset(bound) {
            return Err(self.violation(
                sc,
                ViolationKind::ChainGrowth,
                format!("chain {chain_before:?} -> {chain_after:?} not within {bound:?}"),
            ));
        }

        if d.aborted {
            // An abort wastes the link cycle: invalid word, nothing
            // delivered, no credit consumed…
            if mutation == Some(Mutation::DeliverAbortedWord) {
                // …unless mutated to ship the invalid superposition.
                let word: Word = d
                    .wasted
                    .iter()
                    .map(|i| word_of(self.head(scripts, i.index()).unwrap()))
                    .collect();
                self.consume_credit(sc)?;
                self.link = Some(word);
            }
            return Ok(());
        }

        if !d.drive.is_empty() {
            let mut word: Word = d
                .drive
                .iter()
                .map(|i| word_of(self.head(scripts, i.index()).unwrap()))
                .collect();
            if word.is_encoded() != d.encoded {
                return Err(self.violation(
                    sc,
                    ViolationKind::Structural,
                    format!("encoded flag {} disagrees with word {word:?}", d.encoded),
                ));
            }
            if mutation == Some(Mutation::NoStreamLock) && mode == Mode::Stream {
                // Mutated rule: the stream lock stops excluding other
                // inputs from the switch.
                for j in 0..n {
                    if !d.drive.contains(PortId(j as u8)) {
                        if let Some(f) = self.head(scripts, j) {
                            word = word.xor(&word_of(f));
                        }
                    }
                }
            }
            self.consume_credit(sc)?;
            self.link = Some(word);

            let serviced = if mutation == Some(Mutation::ServiceAllCollided) && d.encoded {
                d.drive // mutated rule: losers freed too, chain never replays
            } else {
                d.serviced
            };
            for i in serviced.iter() {
                let f = self.head(scripts, i.index()).unwrap();
                self.sent[i.index()] += 1;
                self.outstanding.push_back(f.key);
            }
        }
        Ok(())
    }

    fn consume_credit(&mut self, sc: &Scenario) -> Result<(), Violation> {
        if self.credits == 0 {
            return Err(self.violation(
                sc,
                ViolationKind::CreditUnderflow,
                "drove the link with zero downstream credits".to_string(),
            ));
        }
        self.credits -= 1;
        Ok(())
    }

    fn receiver_step(
        &mut self,
        sc: &Scenario,
        rx_stall: bool,
        mutation: Option<Mutation>,
    ) -> Result<(), Violation> {
        let mut step = self.rx.step();
        if mutation == Some(Mutation::SkipEncodedLatch) && step == DecodeStep::Latch {
            // Mutated rule: the encoded marker is ignored — the head is
            // presented as if it were a plain flit (over the empty
            // register a latch implies, `presented` is the head itself).
            step = DecodeStep::Present(DecodeAction::Pass);
        }
        match step {
            DecodeStep::Idle => {}
            DecodeStep::Latch => {
                // Latching needs no switch grant: it always proceeds, and
                // the freed FIFO slot's credit starts its return trip.
                self.rx.latch();
                self.pending += 1;
            }
            DecodeStep::Present(action) => {
                if rx_stall {
                    return Ok(()); // presentation lost switch allocation
                }
                let word = self.rx.presented();
                if !word.is_plain() {
                    return Err(self.violation(
                        sc,
                        ViolationKind::DecodeCorruption,
                        format!("receiver presented an undecodable word {word:?}"),
                    ));
                }
                let key = word.sole_key().unwrap();
                if *word.payload() != payload_for(key) {
                    return Err(self.violation(
                        sc,
                        ViolationKind::PayloadCorruption,
                        format!("flit {key} delivered corrupted payload bits"),
                    ));
                }
                match self.outstanding.front() {
                    Some(&k) if k == key => {
                        self.outstanding.pop_front();
                    }
                    other => {
                        return Err(self.violation(
                            sc,
                            ViolationKind::OrderViolation,
                            format!("delivered flit {key}, expected {other:?}"),
                        ));
                    }
                }
                let (_, freed) = self.rx.take(action);
                self.pending += u8::from(freed);
                if action == DecodeAction::DecodeKeep && mutation == Some(Mutation::PopOnDecodeKeep)
                {
                    // Mutated rule: the chain's final flit is dropped
                    // from the FIFO along with the decode.
                    self.rx.take(DecodeAction::Pass);
                    self.pending += 1;
                }
            }
        }
        Ok(())
    }

    /// Bounded-liveness probe: from this state, runs the *maximally fair*
    /// deterministic schedule (every arrival lands, every credit returns,
    /// the receiver never stalls) and demands the system drain to the
    /// terminal state within `k` cycles. A state that cannot drain even
    /// under perfect fairness is livelocked.
    pub fn check_liveness(
        &self,
        sc: &Scenario,
        scripts: &[Vec<Flit>],
        k: u32,
        mutation: Option<Mutation>,
    ) -> Result<(), Violation> {
        let mut m = self.clone();
        for _ in 0..k {
            if m.is_terminal(scripts, sc.depth) {
                return Ok(());
            }
            let mut arrivals = PortSet::EMPTY;
            for (i, script) in scripts.iter().enumerate() {
                if (m.arrived[i] as usize) < script.len() {
                    arrivals.insert(PortId(i as u8));
                }
            }
            let choice = EnvChoice {
                arrivals,
                release: m.pending,
                rx_stall: false,
            };
            m.step(sc, scripts, choice, mutation)?;
        }
        if m.is_terminal(scripts, sc.depth) {
            return Ok(());
        }
        Err(m.violation(
            sc,
            ViolationKind::Livelock,
            format!("failed to drain within {k} fair cycles"),
        ))
    }
}
