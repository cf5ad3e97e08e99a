//! The clone-free decode step is the decode plan, minus the copy.
//!
//! [`Decoder::plan`] used to be the one planning function: it cloned a
//! plain head (or XORed the register into it) and returned the word by
//! value. The simulator's step loop now takes [`Decoder::step`] (what to
//! do, no word) and [`Decoder::presented`] (the word, borrowed where it
//! can be) separately, and `plan` is written on top of the two. This file
//! keeps the old `plan` body as a reference and checks the pair against
//! it: exhaustively over every (register, head) shape, and along random
//! runs of 1- to 4-way chains with late arrivals and mid-chain stalls.

use std::borrow::Cow;
use std::collections::VecDeque;

use proptest::prelude::*;

use nox_core::{Coded, DecodeAction, DecodePlan, DecodeStep, Decoder};

type W = Coded<u64>;

fn payload_for(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The XOR of the plain words keyed `keys`.
fn word(keys: std::ops::Range<u64>) -> W {
    keys.map(|k| Coded::plain(k, payload_for(k))).collect()
}

/// `Decoder::plan` as it was before the decode step existed.
fn reference_plan(dec: &Decoder<u64>, head: Option<&W>) -> DecodePlan<u64> {
    let Some(head) = head else {
        return DecodePlan::Idle;
    };
    match (dec.register(), head.is_encoded()) {
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
fn plan_from_step(dec: &Decoder<u64>, head: Option<&W>) -> DecodePlan<u64> {
    match dec.step(head) {
        DecodeStep::Idle => DecodePlan::Idle,
        DecodeStep::Latch => DecodePlan::Latch,
        DecodeStep::Present(action) => {
            let head = head.expect("a step presents only a head");
            let word = dec.presented(head);
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

fn assert_all_agree(dec: &Decoder<u64>, head: Option<&W>) -> DecodePlan<u64> {
    let reference = reference_plan(dec, head);
    assert_eq!(plan_from_step(dec, head), reference, "{dec:?} / {head:?}");
    assert_eq!(dec.plan(head), reference, "{dec:?} / {head:?}");
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
        let mut dec = Decoder::new();
        if let Some(reg) = reg {
            dec.latch(reg.clone());
        }
        for head in &heads {
            if let DecodePlan::Present { .. } = assert_all_agree(&dec, head.as_ref()) {
                presented += 1;
            }
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
        let mut fifo: VecDeque<W> = VecDeque::new();
        let mut dec = Decoder::new();
        let mut seen = Vec::new();
        let mut stalled: Option<DecodePlan<u64>> = None;
        for cycle in 0..10_000 {
            if incoming.is_empty() && fifo.is_empty() {
                break;
            }
            if arrive[cycle % arrive.len()] {
                fifo.extend(incoming.pop_front());
            }
            let plan = assert_all_agree(&dec, fifo.front());
            if let Some(before) = stalled.take() {
                prop_assert_eq!(&plan, &before, "a stalled presentation changed");
            }
            match plan {
                DecodePlan::Idle => {}
                DecodePlan::Latch => {
                    let head = fifo.pop_front().unwrap();
                    dec.latch(head);
                }
                DecodePlan::Present { word, action } => {
                    if !grant[cycle % grant.len()] {
                        stalled = Some(DecodePlan::Present { word, action });
                        continue;
                    }
                    let key = word.sole_key().expect("a chain decodes to plain flits");
                    prop_assert_eq!(*word.payload(), payload_for(key));
                    seen.push(key);
                    let popped = match action {
                        DecodeAction::Pass => {
                            fifo.pop_front();
                            None
                        }
                        DecodeAction::DecodeKeep => None,
                        DecodeAction::DecodeShift => fifo.pop_front(),
                    };
                    dec.commit(action, popped);
                }
            }
        }
        prop_assert!(!dec.is_mid_chain());
        prop_assert_eq!(seen, order);
    }
}
