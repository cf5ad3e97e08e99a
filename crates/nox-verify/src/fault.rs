//! Exhaustive fault invariant (I7): with the CRC-8 sideband enabled, the
//! NoX decoder never emits a silently-wrong flit.
//!
//! The sweep enumerates every sequence of back-to-back XOR chains on one
//! link within the flit budget, every received word a single link fault
//! can strike, and every single-bit payload mask plus every single-bit
//! sideband mask. Each faulted stream is driven through the real
//! [`nox_core::DecodePort`]; every word it presents is checked exactly as
//! the receiver hardware would — CRC-8 recomputed over the presented payload
//! against the XOR-accumulated sideband — and classified against the
//! ground-truth payload for the presented key.
//!
//! The invariant: a presented word whose payload differs from the ground
//! truth is always flagged; a corrupted flit is never delivered silently.
//! The sweep also measures chain fan-out — a strike on a late chain word
//! corrupts *multiple* presented flits — which is exactly the fragility
//! mechanism the fault campaign quantifies, here demonstrated over the
//! complete bounded space rather than sampled.
//!
//! Striking received word `j > 0` also covers decode-register corruption:
//! the register only ever holds a previously received link word, so every
//! reachable corrupted-register state is reached through some strike on
//! the stream that fed it.
//!
//! Payload *values* are not part of the exhaustive space (they cannot be:
//! the word is 64 bits wide). By CRC linearity the verdict is independent
//! of the base payloads — `crc8(p ^ m) ^ crc8(p) = crc8(m)` depends on the
//! mask alone — so the sweep runs each structural case over a small set of
//! representative payload assignments (hashed, all-zero, all-ones) and
//! leans on `nox-fault`'s linearity unit proofs for the rest.

use nox_core::{Coded, DecodePort, DecodeStep, Xor};
use nox_exec::Executor;
use nox_fault::crc8;

/// A link word as the protected hardware carries it: the 64-bit payload
/// plus the CRC-8 sideband riding on dedicated wires. Both bands XOR
/// independently through superposition and decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Word {
    payload: u64,
    crc: u8,
}

impl Word {
    /// A freshly injected flit: sideband computed at the source NIC.
    fn fresh(payload: u64) -> Self {
        Word {
            payload,
            crc: crc8(payload),
        }
    }

    /// `true` when the sideband matches the payload — the receiver's
    /// ejection check.
    fn crc_ok(&self) -> bool {
        crc8(self.payload) == self.crc
    }
}

impl Xor for Word {
    fn zero() -> Self {
        Word { payload: 0, crc: 0 }
    }
    fn xor(&self, other: &Self) -> Self {
        Word {
            payload: self.payload ^ other.payload,
            crc: self.crc ^ other.crc,
        }
    }
}

/// Limits on the fault-invariant sweep.
#[derive(Clone, Debug)]
pub struct FaultBounds {
    /// Maximum flits on the link across all chains in one stream.
    pub max_total_flits: u16,
    /// Maximum constituents per XOR chain.
    pub max_arity: u16,
}

impl FaultBounds {
    /// Bounds used by tests and `noxsim verify`: streams of up to five
    /// flits, chains up to the 4-way collisions a mesh router can form.
    pub fn quick() -> Self {
        FaultBounds {
            max_total_flits: 5,
            max_arity: 4,
        }
    }
}

/// A corrupted presentation that the CRC sideband failed to flag.
#[derive(Clone, Debug)]
pub struct FaultViolation {
    /// Chain-structure / strike / mask description.
    pub label: String,
    /// Key of the silently wrong flit.
    pub key: u64,
    /// Ground-truth payload for that key.
    pub expected: u64,
    /// Payload actually presented.
    pub actual: u64,
}

/// Aggregate result of the exhaustive decoder-CRC sweep.
#[derive(Clone, Debug, Default)]
pub struct FaultCheckReport {
    /// Chain-structure shapes enumerated.
    pub shapes: usize,
    /// `(shape, payload base, strike, mask)` cases driven end to end.
    pub cases: usize,
    /// Words presented by the decoder across all cases.
    pub presented: u64,
    /// Presentations whose payload differed from the ground truth.
    pub corrupted: u64,
    /// Corrupted presentations flagged by the sideband check.
    pub flagged: u64,
    /// Clean presentations flagged anyway (sideband-wire strikes); these
    /// cost a retransmission, never correctness.
    pub false_flags: u64,
    /// Largest number of flits corrupted by a single strike — the chain
    /// fan-out the fragility claim rests on.
    pub max_fanout: u32,
    /// Silent corruptions: corrupted presentations the check missed.
    pub violations: Vec<FaultViolation>,
}

impl FaultCheckReport {
    /// `true` when the sweep proves the invariant over the bounded space
    /// and was not vacuous: faults really corrupted presentations, the
    /// fan-out amplification really occurred, and every corruption was
    /// flagged.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
            && self.corrupted > 0
            && self.flagged == self.corrupted
            && self.max_fanout >= 2
    }
}

/// Every ordered sequence of chain arities with total at most `budget`
/// and each chain at most `max_arity` constituents (excluding the empty
/// sequence).
fn chain_shapes(budget: u16, max_arity: u16) -> Vec<Vec<u16>> {
    fn rec(budget: u16, max_arity: u16) -> Vec<Vec<u16>> {
        let mut out = vec![Vec::new()];
        for arity in 1..=max_arity.min(budget) {
            for mut tail in rec(budget - arity, max_arity) {
                tail.insert(0, arity);
                out.push(tail);
            }
        }
        out
    }
    rec(budget, max_arity)
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect()
}

/// The received stream a NoX output emits for one `arity`-way collision:
/// the suffix-telescoped words `F0^..^Fn-1, F1^..^Fn-1, .., Fn-1`
/// (Figure 3's `A^B^C, B^C, C` generalized). Arity 1 is a plain flit.
fn chain_stream(flits: &[Coded<Word>]) -> Vec<Coded<Word>> {
    (0..flits.len())
        .map(|j| {
            let mut acc = Coded::empty();
            for f in &flits[j..] {
                acc = acc.xor(f);
            }
            acc
        })
        .collect()
}

/// Drains a received stream through the real decoder with an
/// always-granting switch, returning every presented word.
///
/// Corrupted payloads never change the *key* metadata, so the decoder's
/// control flow is identical to the fault-free run and is guaranteed to
/// terminate within the guard bound.
fn drain(stream: Vec<Coded<Word>>) -> Vec<Coded<Word>> {
    let mut port: DecodePort<Word> = DecodePort::new(stream.len());
    stream.into_iter().for_each(|w| port.receive(w));
    let mut out = Vec::new();
    let mut guard = 0;
    while !port.is_idle() {
        guard += 1;
        assert!(guard < 1000, "fault sweep: decoder failed to drain");
        match port.step() {
            DecodeStep::Idle => break,
            DecodeStep::Latch => port.latch(),
            DecodeStep::Present(action) => out.push(port.take(action).0),
        }
    }
    out
}

/// Representative base payload for key `k` under payload-assignment
/// `base`: a splitmix-style hash, all-zeros, or all-ones.
fn base_payload(base: usize, k: u64) -> u64 {
    match base {
        0 => {
            let mut x = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^ (x >> 27)
        }
        1 => 0,
        _ => u64::MAX,
    }
}

/// Exhaustively checks that the decoder plus CRC sideband never delivers
/// a silently-wrong flit, over every chain shape, strike position, and
/// single-bit mask within `bounds`, sharded by chain shape over `exec`.
///
/// Each shard enumerates one shape's full (payload base, strike, mask)
/// space independently; the shards merge additively in shape order, so
/// counters, fan-out maximum, and the violation list are bit-identical
/// at any thread count.
pub fn check_decoder_crc_with(bounds: &FaultBounds, exec: &Executor) -> FaultCheckReport {
    let shapes = chain_shapes(bounds.max_total_flits, bounds.max_arity);

    // Single-bit strikes on the payload band, then on the sideband band.
    let masks: Vec<Word> = (0..64)
        .map(|b| Word {
            payload: 1u64 << b,
            crc: 0,
        })
        .chain((0..8).map(|b| Word {
            payload: 0,
            crc: 1u8 << b,
        }))
        .collect();

    let partials = exec.map_stage("verify.crc_shapes", shapes.iter(), |_, shape| {
        sweep_shape(shape, &masks)
    });
    let mut report = FaultCheckReport {
        shapes: shapes.len(),
        ..FaultCheckReport::default()
    };
    for p in partials {
        report.cases += p.cases;
        report.presented += p.presented;
        report.corrupted += p.corrupted;
        report.flagged += p.flagged;
        report.false_flags += p.false_flags;
        report.max_fanout = report.max_fanout.max(p.max_fanout);
        report.violations.extend(p.violations);
    }
    report
}

/// One shard of the exhaustive sweep: every (payload base, strike, mask)
/// case of a single chain shape, reported as a partial
/// [`FaultCheckReport`] (with `shapes` left zero for the merge).
fn sweep_shape(shape: &[u16], masks: &[Word]) -> FaultCheckReport {
    let mut report = FaultCheckReport::default();
    for base in 0..3 {
        // Ground truth and the fault-free received stream.
        let mut key = 0u64;
        let mut stream: Vec<Coded<Word>> = Vec::new();
        for &arity in shape {
            let flits: Vec<Coded<Word>> = (0..arity)
                .map(|_| {
                    key += 1;
                    Coded::plain(key, Word::fresh(base_payload(base, key)))
                })
                .collect();
            stream.extend(chain_stream(&flits));
        }
        let truth = |k: u64| base_payload(base, k);

        for strike in 0..stream.len() {
            for mask in masks {
                report.cases += 1;
                let mut faulted = stream.clone();
                faulted[strike].corrupt_payload(mask);

                let mut fanout = 0u32;
                for word in drain(faulted) {
                    report.presented += 1;
                    let k = word.sole_key().expect("decoder presented a non-plain word");
                    let actual = word.payload().payload;
                    let corrupted = actual != truth(k);
                    let flagged = !word.payload().crc_ok();
                    if corrupted {
                        report.corrupted += 1;
                        fanout += 1;
                        if flagged {
                            report.flagged += 1;
                        } else {
                            report.violations.push(FaultViolation {
                                label: format!(
                                    "shape={shape:?} base={base} strike={strike} \
                                     mask={:#x}/{:#x}",
                                    mask.payload, mask.crc
                                ),
                                key: k,
                                expected: truth(k),
                                actual,
                            });
                        }
                    } else if flagged {
                        report.false_flags += 1;
                    }
                }
                report.max_fanout = report.max_fanout.max(fanout);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shapes_cover_the_budget() {
        let shapes = chain_shapes(3, 2);
        // [1], [2], [1,1], [1,2], [2,1], [1,1,1]
        assert_eq!(shapes.len(), 6);
        assert!(shapes.iter().all(|s| s.iter().sum::<u16>() <= 3));
    }

    #[test]
    fn fault_free_stream_decodes_to_ground_truth() {
        let flits: Vec<Coded<Word>> = (1..=3)
            .map(|k| Coded::plain(k, Word::fresh(base_payload(0, k))))
            .collect();
        let presented = drain(chain_stream(&flits));
        assert_eq!(presented.len(), 3);
        for word in presented {
            let k = word.sole_key().unwrap();
            assert_eq!(word.payload().payload, base_payload(0, k));
            assert!(word.payload().crc_ok());
        }
    }

    #[test]
    fn late_chain_strike_fans_out_to_two_corruptions() {
        // Figure 3's chain with the middle word (B^C) struck: both B and
        // the register-recovered A present corrupted — and both flagged.
        let flits: Vec<Coded<Word>> = (1..=3)
            .map(|k| Coded::plain(k, Word::fresh(k * 0x1111)))
            .collect();
        let mut stream = chain_stream(&flits);
        stream[1].corrupt_payload(&Word { payload: 1, crc: 0 });
        let bad: Vec<_> = drain(stream)
            .into_iter()
            .filter(|w| !w.payload().crc_ok())
            .collect();
        assert_eq!(bad.len(), 2, "one strike on B^C must corrupt two flits");
    }

    #[test]
    fn exhaustive_sweep_is_clean_and_nonvacuous() {
        let report = check_decoder_crc_with(&FaultBounds::quick(), &Executor::sequential());
        assert!(
            report.violations.is_empty(),
            "silent corruption escaped the CRC: {:?}",
            report.violations.first()
        );
        assert!(report.cases > 10_000, "sweep unexpectedly small");
        assert!(report.corrupted > 0, "vacuous sweep: nothing corrupted");
        assert_eq!(report.flagged, report.corrupted);
        assert!(report.max_fanout >= 2, "chain fan-out never observed");
        assert!(report.false_flags > 0, "sideband strikes never flagged");
        assert!(report.is_clean());
    }
}
