//! Property-based tests of the NoX coding invariant.
//!
//! These tests close the loop the paper's §2.2 sketches: whatever request
//! process hits an output port, the sequence of words the output drives
//! must be decodable by the receiving input port's [`DecodePort`], flit for
//! flit, bit for bit, in exactly the order the arbiter serviced them.

use proptest::prelude::*;

use nox_core::{Coded, DecodePort, DecodeStep, OutputCtl, PortId, RequestSet};

mod common;

/// One flit waiting at a model input port.
#[derive(Clone, Debug)]
struct ModelFlit {
    word: Coded<u64>,
    multiflit: bool,
    tail: bool,
}

/// A scripted packet: `flits` single-flit or multi-flit.
#[derive(Clone, Debug)]
struct ModelPacket {
    len: usize,
}

/// Drives `OutputCtl` with per-input packet queues and an output-wide
/// stall pattern, returning `(link_stream, serviced_keys)`.
///
/// Mirrors the simulator's credit discipline: a stall (credit exhaustion)
/// silences *all* requests for the cycle, which is what guarantees that
/// collision-chain losers re-request in lockstep.
fn run_output(
    n_inputs: u8,
    scripts: Vec<Vec<ModelPacket>>,
    stalls: Vec<bool>,
) -> (Vec<Coded<u64>>, Vec<u64>) {
    let mut key = 0u64;
    let mut queues: Vec<std::collections::VecDeque<ModelFlit>> = scripts
        .into_iter()
        .map(|pkts| {
            let mut q = std::collections::VecDeque::new();
            for p in pkts {
                for i in 0..p.len {
                    key += 1;
                    q.push_back(ModelFlit {
                        word: Coded::plain(key, key.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        multiflit: p.len > 1,
                        tail: i == p.len - 1,
                    });
                }
            }
            q
        })
        .collect();

    let mut out = OutputCtl::new(n_inputs);
    let mut stream = Vec::new();
    let mut serviced_keys = Vec::new();
    let mut stall_iter = stalls.into_iter().cycle();

    let mut guard = 0;
    while queues.iter().any(|q| !q.is_empty()) {
        guard += 1;
        assert!(guard < 100_000, "output failed to drain: livelock");

        let stalled = stall_iter.next().unwrap();
        let mut r = RequestSet::default();
        if !stalled {
            for (i, q) in queues.iter().enumerate() {
                if let Some(f) = q.front() {
                    let p = PortId(i as u8);
                    r.req.insert(p);
                    if f.multiflit {
                        r.multiflit.insert(p);
                    }
                    if f.tail {
                        r.tail.insert(p);
                    }
                }
            }
        }

        let d = out.tick(r);

        // Structural invariants that must hold every cycle.
        common::assert_decision(&d, true);

        if !d.drive.is_empty() {
            let word: Coded<u64> = d
                .drive
                .iter()
                .map(|p| queues[p.index()].front().unwrap().word.clone())
                .collect();
            assert_eq!(word.is_encoded(), d.encoded);
            stream.push(word);
        }
        for p in d.serviced.iter() {
            let f = queues[p.index()].pop_front().unwrap();
            serviced_keys.push(f.word.sole_key().unwrap());
        }
    }
    (stream, serviced_keys)
}

/// Feeds a received word stream through the input-port decoder with an
/// always-granting switch, returning presented flit keys in order and
/// checking bit-exactness of every decode.
fn decode_stream(stream: Vec<Coded<u64>>) -> Vec<u64> {
    let mut port = DecodePort::new(stream.len());
    stream.into_iter().for_each(|w| port.receive(w));
    let mut keys = Vec::new();
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 100_000, "decoder failed to drain");
        match port.step() {
            DecodeStep::Idle => break,
            DecodeStep::Latch => port.latch(),
            DecodeStep::Present(action) => {
                let (word, _) = port.take(action);
                assert!(
                    word.is_plain(),
                    "receiver presented an undecodable word: {word:?}"
                );
                let k = word.sole_key().unwrap();
                // Bit-exactness: the payload must be the original flit's.
                assert_eq!(
                    *word.payload(),
                    k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    "decode corrupted payload bits"
                );
                keys.push(k);
            }
        }
    }
    assert!(port.is_idle(), "decoder left with a dangling chain");
    keys
}

fn single_flit_scripts(n: u8) -> impl Strategy<Value = Vec<Vec<ModelPacket>>> {
    prop::collection::vec(
        prop::collection::vec(Just(ModelPacket { len: 1 }), 0..12),
        n as usize,
    )
}

fn mixed_scripts(n: u8) -> impl Strategy<Value = Vec<Vec<ModelPacket>>> {
    prop::collection::vec(
        prop::collection::vec((1usize..=4).prop_map(|len| ModelPacket { len }), 0..8),
        n as usize,
    )
}

fn stall_pattern() -> impl Strategy<Value = Vec<bool>> {
    // Always end with a non-stall cycle so the cyclic pattern cannot stall
    // the output forever.
    prop::collection::vec(prop::bool::weighted(0.25), 1..20).prop_map(|mut v| {
        v.push(false);
        v
    })
}

proptest! {
    /// Single-flit traffic: the receiver recovers every flit, in service
    /// order, with exact payload bits — under arbitrary arrival patterns
    /// and output-wide stalls.
    #[test]
    fn decode_order_matches_service_order(
        scripts in single_flit_scripts(4),
        stalls in stall_pattern(),
    ) {
        let (stream, serviced) = run_output(4, scripts, stalls);
        let decoded = decode_stream(stream);
        prop_assert_eq!(decoded, serviced);
    }

    /// Mixed single- and multi-flit traffic: aborts may waste cycles, but
    /// the surviving link stream still decodes completely and in order.
    #[test]
    fn mixed_traffic_decodes_in_order(
        scripts in mixed_scripts(4),
        stalls in stall_pattern(),
    ) {
        let (stream, serviced) = run_output(4, scripts, stalls);
        let decoded = decode_stream(stream);
        prop_assert_eq!(decoded, serviced);
    }

    /// Every flit queued at any input is eventually serviced exactly once
    /// (no loss, no duplication), regardless of contention.
    #[test]
    fn conservation_of_flits(
        scripts in mixed_scripts(5),
        stalls in stall_pattern(),
    ) {
        let total: usize = scripts.iter().flatten().map(|p| p.len).sum();
        let (_, serviced) = run_output(5, scripts, stalls);
        prop_assert_eq!(serviced.len(), total);
        let mut sorted = serviced.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), total, "a flit was serviced twice");
    }

    /// Per-input FIFO order is preserved end to end: the serviced sequence
    /// restricted to one input's flits is monotonically increasing (keys
    /// are assigned in queue order).
    #[test]
    fn per_input_order_preserved(
        scripts in mixed_scripts(3),
        stalls in stall_pattern(),
    ) {
        // Record which keys belong to which input before running.
        let mut key = 0u64;
        let mut owner: std::collections::BTreeMap<u64, usize> = Default::default();
        for (i, pkts) in scripts.iter().enumerate() {
            for p in pkts {
                for _ in 0..p.len {
                    key += 1;
                    owner.insert(key, i);
                }
            }
        }
        let (_, serviced) = run_output(3, scripts, stalls);
        let mut last_per_input = [0u64; 3];
        for k in serviced {
            let i = owner[&k];
            prop_assert!(k > last_per_input[i], "input {} reordered flits", i);
            last_per_input[i] = k;
        }
    }
}
