//! Failure injection: the simulator is self-checking, and these tests
//! prove the checks actually fire. Every protocol violation a router bug
//! could introduce — buffer overflow, credit overflow, corrupted payload
//! bits, misrouted flits, undecodable words — must abort the simulation
//! loudly instead of skewing results silently.

use nox_core::Coded;
use nox_sim::config::Arch;
use nox_sim::flit::{word_for, FlitKey, PacketMeta, PacketTable};
use nox_sim::router::Router;
use nox_sim::sink::Sink;
use nox_sim::stats::Counters;
use nox_sim::topology::{NodeId, Port, Topology};

fn one_packet(table: &mut PacketTable, dest: u16) -> FlitKey {
    let id = table.push(PacketMeta {
        src: NodeId(0),
        dest: NodeId(dest),
        len: 1,
        created_cycle: 0,
        measured: false,
    });
    FlitKey { packet: id, seq: 0 }
}

#[test]
#[should_panic(expected = "buffer overflow")]
fn input_buffer_overflow_is_caught() {
    let mut table = PacketTable::new();
    let mut r = Router::new(NodeId(0), Arch::Nox, Topology::mesh(2, 2), 2);
    for _ in 0..3 {
        let k = one_packet(&mut table, 3);
        r.receive(Port::West.id(), word_for(k));
    }
}

#[test]
#[should_panic(expected = "credit overflow")]
fn credit_overflow_is_caught() {
    let mut r = Router::new(NodeId(0), Arch::Nox, Topology::mesh(2, 2), 4);
    // Returning a credit to a full counter means a slot was double-freed.
    r.output_mut(Port::East.id()).return_credit(4);
}

#[test]
#[should_panic(expected = "payload corrupted")]
fn corrupted_payload_bits_are_caught() {
    let mut table = PacketTable::new();
    let mut c = Counters::new();
    let key = one_packet(&mut table, 3);
    // A word whose key says "flit key" but whose bits disagree — the kind
    // of corruption a broken XOR datapath would produce.
    let forged = Coded::plain(key.pack(), key.payload() ^ 0xDEAD);
    let mut sink = Sink::new(NodeId(3), 4);
    sink.port.receive(forged);
    let _ = sink.drain(&table, &mut c, None);
}

#[test]
#[should_panic(expected = "wrong node")]
fn misrouted_flit_is_caught() {
    let mut table = PacketTable::new();
    let mut c = Counters::new();
    let key = one_packet(&mut table, 3);
    let mut sink = Sink::new(NodeId(2), 4); // not the destination
    sink.port.receive(word_for(key));
    let _ = sink.drain(&table, &mut c, None);
}

#[test]
#[should_panic(expected = "undecodable word at sink")]
fn dangling_encoded_word_is_caught() {
    // An encoded word whose chain never completes cannot be consumed —
    // presenting it would deliver garbage, so the sink asserts.
    let mut table = PacketTable::new();
    let mut c = Counters::new();
    let a = one_packet(&mut table, 3);
    let b = one_packet(&mut table, 3);
    let x = one_packet(&mut table, 3);
    let mut sink = Sink::new(NodeId(3), 4);
    // enc{a,b} followed by an unrelated plain word x: decode presents
    // {a,b}^{x} — a three-key word, which must be rejected.
    sink.port.receive(word_for(a).xor(&word_for(b)));
    sink.port.receive(word_for(x));
    let _ = sink.drain(&table, &mut c, None); // latch
    let _ = sink.drain(&table, &mut c, None); // must panic
}

#[test]
#[should_panic(expected = "encoded word")]
fn routing_on_encoded_word_is_caught() {
    // Control logic must never read destination fields out of a
    // superposed word.
    let mut table = PacketTable::new();
    let a = one_packet(&mut table, 1);
    let b = one_packet(&mut table, 2);
    let enc = word_for(a).xor(&word_for(b));
    let _ = table.word_info(&enc);
}

#[test]
fn checks_do_not_fire_on_legal_traffic() {
    // Sanity guard for the suite above: the same operations in their
    // legal forms pass.
    let mut table = PacketTable::new();
    let mut c = Counters::new();
    let key = one_packet(&mut table, 3);
    let mut sink = Sink::new(NodeId(3), 4);
    sink.port.receive(word_for(key));
    let out = sink.drain(&table, &mut c, None);
    assert!(out.consumed.is_some());
}
