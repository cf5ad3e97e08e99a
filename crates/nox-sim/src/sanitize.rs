//! Simulation sanitizer: per-cycle conservation audits, off until
//! [`Network::enable_sanitizer`](crate::network::Network::enable_sanitizer).
//!
//! The simulator's inline assertions catch *local* protocol violations
//! (buffer overflow, out-of-order flits, payload corruption at ejection).
//! The sanitizer closes the *global* books every cycle:
//!
//! * **flit conservation** — every injected, not-yet-ejected flit is
//!   present somewhere in the network (buffered, in a decode register, or
//!   on a link), and no ejected flit leaves a stale copy behind;
//! * **credit-loop accounting** — for every link, buffer slots are
//!   conserved: available credits + occupied downstream slots + words in
//!   flight + credits in return flight always equal the buffer depth;
//! * **link-cycle productivity** — every wasted link cycle is explained
//!   by its architecture's waste mechanism per §3.2: aborts for NoX,
//!   failed speculation for Spec, and nothing at all for Non-Spec;
//! * **skipped ticks** — every router the step left asleep is ticked as
//!   a clone, and the tick must have been the identity: the reference
//!   the quiescence-driven step loop (DESIGN.md §16) is held to, in
//!   place of a second loop that ticks everything;
//! * **skipped sources** — every source outside the injecting set has
//!   nothing it could inject, and the cursor over the trace's packets
//!   stands at the first one not yet created;
//! * **skipped sinks** — every sink outside the draining set is empty,
//!   and draining a clone of it does nothing;
//! * **port sets** — every router's occupied-input and unsettled-output
//!   sets are what its FIFOs and engines say (DESIGN.md §16);
//! * **kept records** — every presented record a router keeps for a
//!   waiting head is the one a fresh decode step and route would build.
//!
//! The checks here are pure functions over counter snapshots, occupancy
//! views and clones of routers and sinks; [`Network`](crate::network::Network)
//! assembles the views and panics on the first audit failure, in keeping
//! with the simulator's fail-fast assertion style.

use std::collections::BTreeSet;

use crate::config::Arch;
use crate::flit::{PacketId, PacketTable};
use crate::router::{Router, TickCtx};
use crate::sink::{Sink, SinkOutcome};
use crate::source::Source;
use crate::stats::Counters;

/// Slot accounting for one credit loop (one connected output port and
/// the input buffer it feeds).
#[derive(Clone, Debug)]
pub struct CreditLoopView {
    /// Where the loop lives, for diagnostics (e.g. `"(1,2) port E"`).
    pub label: String,
    /// Credits available at the upstream output port.
    pub credits: usize,
    /// Words occupying the downstream buffer.
    pub downstream_occupancy: usize,
    /// Words launched onto this link, not yet delivered.
    pub words_in_flight: usize,
    /// Credits freed downstream, still in their return flight.
    pub credits_in_flight: usize,
    /// The downstream buffer depth the loop must conserve.
    pub depth: usize,
}

/// Checks that live flit keys exactly account for the injected-minus-
/// ejected difference. `live_keys` is the set of distinct flit keys
/// appearing anywhere in the network (buffers, decode registers, links).
pub fn check_flit_conservation(c: &Counters, live_keys: &BTreeSet<u64>) -> Result<(), String> {
    let in_network = c.flits_injected - c.flits_ejected;
    if live_keys.len() as u64 != in_network {
        return Err(format!(
            "flit conservation broken: {} injected - {} ejected = {} flits should be in the \
             network, but {} distinct flit keys are present",
            c.flits_injected,
            c.flits_ejected,
            in_network,
            live_keys.len()
        ));
    }
    Ok(())
}

/// Checks slot conservation for one credit loop.
pub fn check_credit_loop(v: &CreditLoopView) -> Result<(), String> {
    let slots = v.credits + v.downstream_occupancy + v.words_in_flight + v.credits_in_flight;
    if slots != v.depth {
        return Err(format!(
            "credit loop {} lost track of buffer slots: {} credits + {} buffered + {} on link + \
             {} credits in flight = {} != depth {}",
            v.label,
            v.credits,
            v.downstream_occupancy,
            v.words_in_flight,
            v.credits_in_flight,
            slots,
            v.depth
        ));
    }
    Ok(())
}

/// Checks the §3.2 link-cycle productivity classification: each
/// architecture may only waste link cycles through its own mechanism,
/// and every wasted cycle must be accounted for by it.
pub fn check_productivity(arch: Arch, c: &Counters) -> Result<(), String> {
    let fail = |msg: String| Err(format!("link productivity ({arch}): {msg}"));
    match arch {
        Arch::NonSpec => {
            if c.link_wasted != 0 || c.aborts != 0 || c.collisions != 0 || c.encoded_transfers != 0
            {
                return fail(format!(
                    "non-speculative links are always productive, yet wasted={} aborts={} \
                     collisions={} encoded={}",
                    c.link_wasted, c.aborts, c.collisions, c.encoded_transfers
                ));
            }
        }
        Arch::SpecFast | Arch::SpecAccurate => {
            if c.link_wasted != c.collisions {
                return fail(format!(
                    "every wasted link cycle must be a failed speculation: wasted={} collisions={}",
                    c.link_wasted, c.collisions
                ));
            }
            if c.aborts != 0 || c.encoded_transfers != 0 {
                return fail(format!(
                    "NoX events on a speculative router: aborts={} encoded={}",
                    c.aborts, c.encoded_transfers
                ));
            }
        }
        Arch::Nox => {
            if c.link_wasted != c.aborts {
                return fail(format!(
                    "every wasted link cycle must be an abort: wasted={} aborts={}",
                    c.link_wasted, c.aborts
                ));
            }
            if c.collisions != 0 || c.wasted_reservations != 0 {
                return fail(format!(
                    "speculation events on a NoX router: collisions={} wasted_reservations={}",
                    c.collisions, c.wasted_reservations
                ));
            }
        }
    }
    Ok(())
}

/// Checks that skipping `router`'s tick lost nothing: a clone, ticked
/// against scratch buffers, must emit no link word and no credit return,
/// move no counter, and still be [settled](Router::settled).
pub fn check_skipped_router(router: &Router, packets: &PacketTable) -> Result<(), String> {
    let mut r = router.clone();
    let mut counters = Counters::new();
    let (mut sends, mut credits) = (Vec::new(), Vec::new());
    r.tick(&mut TickCtx::new(
        packets,
        &mut counters,
        &mut sends,
        &mut credits,
    ));
    if !sends.is_empty() || !credits.is_empty() || counters != Counters::new() || !r.settled() {
        return Err(format!(
            "router {} was skipped, but its tick was not the identity: {} sends, {} credit \
             returns, counters {:?}, settled afterwards: {}",
            router.node(),
            sends.len(),
            credits.len(),
            counters,
            r.settled()
        ));
    }
    Ok(())
}

/// Checks that `router`'s port sets are exact: the occupied set names the
/// inputs whose FIFO holds a word, the unsettled set the outputs whose
/// engine is not settled, and nothing else. The router's tick visits only
/// what the sets name, awake or asleep.
pub fn check_port_sets(router: &Router) -> Result<(), String> {
    let (stored, scanned) = (router.port_sets(), router.scan_port_sets());
    if stored != scanned {
        return Err(format!(
            "router {} keeps occupied inputs {} and unsettled outputs {}, but its FIFOs and \
             engines say {} and {}",
            router.node(),
            stored.0,
            stored.1,
            scanned.0,
            scanned.1
        ));
    }
    Ok(())
}

/// Checks that every presented record `router` keeps as current is the
/// one its input's head and register give now: the decode action, the
/// flit's routing information and its output. The present stage reuses
/// such a record instead of building it again, so a stale one would
/// route a head by the flit that left before it. With `detours` (a fault
/// campaign attached) the output is not compared (see
/// `Router::presented_records`).
pub fn check_presented_records(
    router: &Router,
    packets: &PacketTable,
    detours: bool,
) -> Result<(), String> {
    for (ip, kept, fresh) in router.presented_records(packets, detours) {
        if fresh != Some(kept) {
            return Err(format!(
                "router {} input {ip} keeps the presented record {kept:?}, but its head and \
                 register present {fresh:?}",
                router.node()
            ));
        }
    }
    Ok(())
}

/// Checks that skipping the visit of core `core`'s `source` lost
/// nothing, once the trace's packets below `admitted` have been created:
/// it has no packet part-way in, and the head of its queue had not been
/// created yet.
pub fn check_skipped_source(core: usize, source: &Source, admitted: usize) -> Result<(), String> {
    if source.can_inject(admitted) {
        return Err(format!(
            "source {core} was skipped with {admitted} trace packets created, but it could \
             inject: {source:?}"
        ));
    }
    Ok(())
}

/// Checks the cursor that finds newly created packets: of the trace's
/// packets, the first `static_packets` of the table in creation order,
/// `cursor` must stand at the first one not yet created by `cycle`.
pub fn check_trace_cursor(
    packets: &PacketTable,
    static_packets: usize,
    cursor: usize,
    cycle: u64,
) -> Result<(), String> {
    let created = |i: usize| packets.meta(PacketId(i as u64)).created_cycle;
    let passed_a_future_packet = cursor > 0 && created(cursor - 1) > cycle;
    let stopped_short = cursor < static_packets && created(cursor) <= cycle;
    if cursor > static_packets || passed_a_future_packet || stopped_short {
        return Err(format!(
            "trace cursor at packet {cursor} of {static_packets} after cycle {cycle} is not at \
             the first packet not yet created"
        ));
    }
    Ok(())
}

/// Checks that skipping the drain of core `core`'s `sink` lost nothing:
/// its FIFO is empty, and a clone drained against scratch counters
/// consumes nothing, frees nothing and is left as it was (a register
/// mid-chain over an empty FIFO waits without being clocked).
pub fn check_skipped_sink(core: usize, sink: &Sink, packets: &PacketTable) -> Result<(), String> {
    let mut s = sink.clone();
    let mut counters = Counters::new();
    let outcome = s.drain(packets, &mut counters, None);
    if !sink.port.is_empty()
        || outcome != SinkOutcome::default()
        || counters != Counters::new()
        || s != *sink
    {
        return Err(format!(
            "sink {core} was skipped holding {} words, and its drain was not the identity: \
             {outcome:?}",
            sink.port.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> Counters {
        Counters::new()
    }

    /// One single-flit packet from core 5 to core 7, created at `cycle`.
    fn one_packet(packets: &mut PacketTable, cycle: u64) -> PacketId {
        packets.push(crate::flit::PacketMeta {
            src: crate::topology::NodeId(5),
            dest: crate::topology::NodeId(7),
            len: 1,
            created_cycle: cycle,
            measured: false,
        })
    }

    #[test]
    fn flit_conservation_accepts_balanced_books() {
        let mut c = counters();
        c.flits_injected = 5;
        c.flits_ejected = 2;
        let live: BTreeSet<u64> = [10, 11, 12].into_iter().collect();
        assert!(check_flit_conservation(&c, &live).is_ok());
    }

    #[test]
    fn flit_conservation_rejects_a_lost_flit() {
        let mut c = counters();
        c.flits_injected = 3;
        c.flits_ejected = 0;
        let live: BTreeSet<u64> = [10, 11].into_iter().collect();
        let err = check_flit_conservation(&c, &live).unwrap_err();
        assert!(err.contains("flit conservation broken"), "{err}");
    }

    #[test]
    fn credit_loop_rejects_leaked_slot() {
        let v = CreditLoopView {
            label: "test".into(),
            credits: 1,
            downstream_occupancy: 1,
            words_in_flight: 0,
            credits_in_flight: 0,
            depth: 4,
        };
        assert!(check_credit_loop(&v).unwrap_err().contains("lost track"));
    }

    #[test]
    fn productivity_classifies_per_architecture() {
        let mut c = counters();
        c.link_wasted = 3;
        c.aborts = 3;
        assert!(check_productivity(Arch::Nox, &c).is_ok());
        assert!(check_productivity(Arch::NonSpec, &c).is_err());
        // A wasted cycle with no abort is unexplained on NoX.
        c.aborts = 2;
        assert!(check_productivity(Arch::Nox, &c).is_err());
        // Spec explains waste through collisions instead.
        c.aborts = 0;
        c.collisions = 3;
        assert!(check_productivity(Arch::SpecFast, &c).is_ok());
        assert!(check_productivity(Arch::SpecAccurate, &c).is_ok());
    }

    #[test]
    fn skipped_router_check_rejects_a_router_with_work_to_do() {
        use crate::flit::{word_for, FlitKey};
        use crate::topology::{NodeId, Port, Topology};

        let mut packets = PacketTable::new();
        let id = one_packet(&mut packets, 0);
        for arch in Arch::ALL {
            let mut r = Router::new(NodeId(5), arch, Topology::mesh(4, 4), 4);
            assert!(check_skipped_router(&r, &packets).is_ok(), "{arch}: idle");
            // A buffered flit: the skipped tick would have forwarded it.
            r.receive(Port::West.id(), word_for(FlitKey { packet: id, seq: 0 }));
            let err = check_skipped_router(&r, &packets).unwrap_err();
            assert!(err.contains("1 sends"), "{arch}: {err}");
        }

        // Empty FIFOs are not enough: after forwarding, Spec-Fast holds a
        // stale reservation whose wasted cycle must still be counted.
        let mut r = Router::new(NodeId(5), Arch::SpecFast, Topology::mesh(4, 4), 4);
        r.receive(Port::West.id(), word_for(FlitKey { packet: id, seq: 0 }));
        let mut counters = Counters::new();
        let (mut sends, mut credits) = (Vec::new(), Vec::new());
        r.tick(&mut TickCtx::new(
            &packets,
            &mut counters,
            &mut sends,
            &mut credits,
        ));
        assert_eq!(r.buffered_flits(), 0);
        assert!(!r.settled());
        let err = check_skipped_router(&r, &packets).unwrap_err();
        assert!(err.contains("wasted_reservations: 1"), "{err}");
    }

    #[test]
    fn skipped_source_check_rejects_a_source_with_a_created_head() {
        assert!(
            check_skipped_source(5, &Source::new(), 9).is_ok(),
            "nothing queued"
        );
        // Trace packet 3 is this source's share.
        let src = Source::for_share(0..1, &[3]);
        assert!(check_skipped_source(5, &src, 3).is_ok(), "not created yet");
        let err = check_skipped_source(5, &src, 4).unwrap_err();
        assert!(err.contains("could inject"), "{err}");
    }

    #[test]
    fn trace_cursor_check_wants_the_first_packet_not_yet_created() {
        let mut packets = PacketTable::new();
        for cycle in [0, 3, 3, 8] {
            one_packet(&mut packets, cycle);
        }
        // A fifth packet, injected later: not the cursor's business.
        one_packet(&mut packets, 5);
        assert!(check_trace_cursor(&packets, 4, 1, 2).is_ok());
        assert!(check_trace_cursor(&packets, 4, 3, 3).is_ok());
        assert!(check_trace_cursor(&packets, 4, 4, 8).is_ok());
        assert!(check_trace_cursor(&packets, 0, 0, 8).is_ok(), "empty trace");
        // Stopped short of a packet created by now: its source sleeps on.
        let err = check_trace_cursor(&packets, 4, 2, 3).unwrap_err();
        assert!(err.contains("packet 2 of 4"), "{err}");
        // Ran past a packet of the future, or off the trace.
        assert!(check_trace_cursor(&packets, 4, 4, 7).is_err());
        assert!(check_trace_cursor(&packets, 4, 5, 9).is_err());
    }

    #[test]
    fn skipped_sink_check_rejects_a_sink_over_a_buffered_word() {
        use crate::flit::{word_for, FlitKey};
        use crate::topology::NodeId;

        let mut packets = PacketTable::new();
        let a = word_for(FlitKey {
            packet: one_packet(&mut packets, 0),
            seq: 0,
        });
        let b = word_for(FlitKey {
            packet: one_packet(&mut packets, 0),
            seq: 0,
        });
        let mut sink = Sink::new(NodeId(7), 4);
        assert!(check_skipped_sink(7, &sink, &packets).is_ok(), "empty");
        sink.port.receive(a.xor(&b));
        let err = check_skipped_sink(7, &sink, &packets).unwrap_err();
        assert!(err.contains("holding 1 words"), "{err}");
        // Latched: a register mid-chain over an empty FIFO may sleep.
        let mut counters = Counters::new();
        assert!(sink.drain(&packets, &mut counters, None).credit_freed);
        assert!(!sink.port.is_idle());
        assert!(check_skipped_sink(7, &sink, &packets).is_ok(), "mid-chain");
        // The chain's last word arrives: the sink is owed a drain again.
        sink.port.receive(b);
        assert!(check_skipped_sink(7, &sink, &packets).is_err());
    }

    #[test]
    fn presented_record_check_rejects_a_stale_record() {
        use crate::flit::{word_for, FlitKey};
        use crate::topology::{NodeId, Port, Topology};

        let mut packets = PacketTable::new();
        let [a, b, c] = [(); 3].map(|_| {
            word_for(FlitKey {
                packet: one_packet(&mut packets, 0),
                seq: 0,
            })
        });
        let (west, east) = (Port::West.id(), Port::East.id());
        let tick = |r: &mut Router| {
            let mut counters = Counters::new();
            let (mut sends, mut credits) = (Vec::new(), Vec::new());
            r.tick(&mut TickCtx::new(
                &packets,
                &mut counters,
                &mut sends,
                &mut credits,
            ));
        };
        for arch in Arch::ALL {
            // West's head waits for East's credit, and keeps its record.
            let mut r = Router::new(NodeId(5), arch, Topology::mesh(4, 4), 4);
            r.output_mut(east).force_credits(0);
            r.receive(west, a.clone());
            r.receive(west, b.clone());
            tick(&mut r);
            tick(&mut r);
            assert!(
                check_presented_records(&r, &packets, false).is_ok(),
                "{arch}"
            );
            // A record that routes the head elsewhere.
            let mut misrouted = r.clone();
            misrouted.forge_record(west, Port::North.id());
            let err = check_presented_records(&misrouted, &packets, false).unwrap_err();
            assert!(err.contains("router n5 input p4 keeps"), "{arch}: {err}");
            // Under a campaign the output is the campaign's to choose.
            assert!(check_presented_records(&misrouted, &packets, true).is_ok());
            // A head popped behind the router's back takes its record with
            // it; the next head's is built at the next visit.
            r.pop_unaccounted(west);
            assert!(
                check_presented_records(&r, &packets, false).is_ok(),
                "{arch}"
            );
        }

        // A record kept for an input whose encoded head latches, which
        // presents nothing.
        let mut r = Router::new(NodeId(5), Arch::Nox, Topology::mesh(4, 4), 4);
        r.receive(west, b.xor(&c));
        r.forge_record(west, east);
        let err = check_presented_records(&r, &packets, true).unwrap_err();
        assert!(err.contains("present None"), "{err}");
    }

    #[test]
    fn port_set_check_rejects_a_set_that_disagrees_with_its_fifos() {
        use crate::flit::{word_for, FlitKey};
        use crate::topology::{NodeId, Port, Topology};

        let mut packets = PacketTable::new();
        let id = one_packet(&mut packets, 0);
        for arch in Arch::ALL {
            let mut r = Router::new(NodeId(5), arch, Topology::mesh(4, 4), 4);
            assert!(check_port_sets(&r).is_ok(), "{arch}: fresh");
            r.receive(Port::West.id(), word_for(FlitKey { packet: id, seq: 0 }));
            assert!(check_port_sets(&r).is_ok(), "{arch}: one word in");
            // The word leaves behind the router's back: the set still
            // names West, so the present stage would visit an empty FIFO.
            let mut gone = r.clone();
            gone.pop_unaccounted(Port::West.id());
            let err = check_port_sets(&gone).unwrap_err();
            assert!(err.contains("occupied inputs {4}"), "{arch}: {err}");

            // Through a tick both sets follow: the word leaves West, and
            // Spec-Fast's stale reservation leaves East unsettled.
            let mut counters = Counters::new();
            let (mut sends, mut credits) = (Vec::new(), Vec::new());
            r.tick(&mut TickCtx::new(
                &packets,
                &mut counters,
                &mut sends,
                &mut credits,
            ));
            assert_eq!(sends.len(), 1, "{arch}");
            assert!(check_port_sets(&r).is_ok(), "{arch}: after the tick");
            assert_eq!(r.settled(), arch != Arch::SpecFast, "{arch}");
        }
    }
}
