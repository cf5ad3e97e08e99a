//! The clone-free decode step is the decode plan, minus the copy, and a
//! [`DecodePort`] commits exactly what it presented.
//!
//! `Decoder::plan` used to be the one planning function: it cloned a
//! plain head (or XORed the register into it) and returned the word by
//! value, and each caller popped its own FIFO to commit it. The simulator
//! now takes the port's [`DecodeStep`] (what to do, no word) and its
//! presented word (borrowed where it can be) separately, and the port
//! commits. This file keeps the old `plan` body as a reference and checks
//! the port against it: exhaustively over every (register, head) shape,
//! and along random runs of 1- to 4-way chains with late arrivals and
//! mid-chain stalls.

use std::borrow::Cow;
use std::collections::VecDeque;

use proptest::prelude::*;

use nox_core::{Coded, DecodeAction, DecodePort, DecodeStep};

type W = Coded<u64>;

fn payload_for(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The XOR of the plain words keyed `keys`.
fn word(keys: std::ops::Range<u64>) -> W {
    keys.map(|k| Coded::plain(k, payload_for(k))).collect()
}

/// What an input port does this cycle, as the old `Decoder::plan`
/// returned it: the step with an owned copy of the presented word.
#[derive(Clone, Debug, PartialEq, Eq)]
enum DecodePlan {
    Idle,
    Latch,
    Present { word: W, action: DecodeAction },
}

/// `Decoder::plan` as it was before the decode step existed.
fn reference_plan(port: &DecodePort<u64>) -> DecodePlan {
    let Some(head) = port.words().next() else {
        return DecodePlan::Idle;
    };
    match (port.register(), head.is_encoded()) {
        (None, true) => DecodePlan::Latch,
        (None, false) => DecodePlan::Present {
            word: head.clone(),
            action: DecodeAction::Pass,
        },
        (Some(reg), enc) => DecodePlan::Present {
            word: reg.xor(head),
            action: if enc {
                DecodeAction::DecodeShift
            } else {
                DecodeAction::DecodeKeep
            },
        },
    }
}

/// The step and the on-demand presented word, put together the way the
/// old plan was, with the borrow checked on the way: the word is borrowed
/// exactly when the head passes through undecoded.
fn plan_from_step(port: &DecodePort<u64>) -> DecodePlan {
    match port.step() {
        DecodeStep::Idle => DecodePlan::Idle,
        DecodeStep::Latch => DecodePlan::Latch,
        DecodeStep::Present(action) => {
            let head = port.words().next().expect("a step presents only a head");
            let word = port.presented();
            match &word {
                Cow::Borrowed(w) => {
                    assert_eq!(action, DecodeAction::Pass);
                    assert!(std::ptr::eq(*w, head), "Pass must lend the head itself");
                }
                Cow::Owned(_) => assert_ne!(action, DecodeAction::Pass),
            }
            DecodePlan::Present {
                word: word.into_owned(),
                action,
            }
        }
    }
}

fn assert_all_agree(port: &DecodePort<u64>) -> DecodePlan {
    let reference = reference_plan(port);
    assert_eq!(plan_from_step(port), reference, "{port:?}");
    reference
}

#[test]
fn every_register_and_head_shape_agrees_with_the_old_plan() {
    // Registers: empty, or holding 2 to 5 superposed flits (5 spills the
    // inline key storage). Heads: none, plain, or 2- to 5-way encoded,
    // both overlapping the register's keys (a real chain: the XOR shrinks)
    // and disjoint from them (a desynchronised one: it grows).
    let registers: Vec<Option<W>> = std::iter::once(None)
        .chain((2..=5).map(|n| Some(word(10..10 + n))))
        .collect();
    let heads: Vec<Option<W>> = std::iter::once(None)
        .chain((1..=5).map(|n| Some(word(11..11 + n))))
        .chain((1..=5).map(|n| Some(word(40..40 + n))))
        .collect();
    let mut presented = 0;
    for reg in &registers {
        for head in &heads {
            let mut port = DecodePort::new(2);
            if let Some(reg) = reg {
                port.receive(reg.clone());
                port.latch();
            }
            if let Some(head) = head {
                port.receive(head.clone());
            }
            // Committing the step: a latch frees the head's slot into the
            // register; a serviced presentation hands back exactly the
            // presented word and frees a slot unless the head stays.
            let mut after = port.clone();
            match assert_all_agree(&port) {
                DecodePlan::Idle => {}
                DecodePlan::Latch => {
                    after.latch();
                    assert!(after.is_empty() && after.register() == head.as_ref());
                }
                DecodePlan::Present { word, action } => {
                    presented += 1;
                    let (taken, freed) = after.take(action);
                    assert_eq!(taken, word, "{port:?}");
                    assert_eq!(freed, action != DecodeAction::DecodeKeep, "{port:?}");
                    assert_eq!(after.len() + usize::from(freed), port.len());
                }
            }
            // A chain kill discards the register and an encoded head.
            let encoded_head = head.as_ref().filter(|h| h.is_encoded());
            let lost = reg.iter().chain(encoded_head).map(W::arity).sum();
            let mut killed = port.clone();
            assert_eq!(killed.chain_kill(), (lost, encoded_head.is_some()));
            assert!(killed.register().is_none());
        }
    }
    // Every head over an occupied register, plus the plain ones over an
    // empty register.
    assert_eq!(presented, 4 * 10 + 2);
}

/// A received stream of back-to-back `n`-way chains: for flits
/// `k..k+n` the link carries `k^..^(k+n-1)`, then `(k+1)^..`, down to the
/// plain last flit (a 1-way chain is just a plain word).
fn chains(arities: &[usize]) -> (Vec<W>, Vec<u64>) {
    let (mut stream, mut order, mut key) = (Vec::new(), Vec::new(), 1u64);
    for &n in arities {
        let n = n as u64;
        for first in key..key + n {
            stream.push(word(first..key + n));
            order.push(first);
        }
        key += n;
    }
    (stream, order)
}

proptest! {
    /// Runs a decoder over chains of every arity with words arriving late
    /// (so the register waits mid-chain over an empty FIFO) and the switch
    /// refusing service on random cycles (so a presentation is re-planned,
    /// unchanged, until it wins). On every cycle the step and the
    /// on-demand word must equal the old plan; at the end every flit has
    /// been presented once, in chain order, bit-exact.
    #[test]
    fn chains_with_stalls_and_late_arrivals_agree_with_the_old_plan(
        arities in prop::collection::vec(1usize..=4, 1..8),
        arrive in prop::collection::vec(prop::bool::weighted(0.6), 64),
        grant in prop::collection::vec(prop::bool::weighted(0.6), 64),
    ) {
        let (stream, order) = chains(&arities);
        let mut incoming: VecDeque<W> = stream.into();
        let mut port = DecodePort::new(incoming.len());
        let mut seen = Vec::new();
        let mut stalled: Option<DecodePlan> = None;
        for cycle in 0..10_000 {
            if incoming.is_empty() && port.is_empty() {
                break;
            }
            if arrive[cycle % arrive.len()] {
                if let Some(w) = incoming.pop_front() {
                    port.receive(w);
                }
            }
            let plan = assert_all_agree(&port);
            if let Some(before) = stalled.take() {
                prop_assert_eq!(&plan, &before, "a stalled presentation changed");
            }
            match plan {
                DecodePlan::Idle => {}
                DecodePlan::Latch => port.latch(),
                DecodePlan::Present { word, action } => {
                    if !grant[cycle % grant.len()] {
                        stalled = Some(DecodePlan::Present { word, action });
                        continue;
                    }
                    let (taken, _) = port.take(action);
                    prop_assert_eq!(&taken, &word);
                    let key = taken.sole_key().expect("a chain decodes to plain flits");
                    prop_assert_eq!(*taken.payload(), payload_for(key));
                    seen.push(key);
                }
            }
        }
        prop_assert!(port.is_idle());
        prop_assert_eq!(seen, order);
    }
}
