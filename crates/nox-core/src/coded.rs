//! XOR-coding algebra.
//!
//! The enabling property of the NoX architecture (§2.2 of the paper) is
//! that XOR superposition is its own inverse: if inputs `A`, `B` and `C`
//! collide, the output drives `A ^ B ^ C`; on the next cycle the losers
//! drive `B ^ C`, and the receiver recreates `(A ^ B ^ C) ^ (B ^ C) = A`.
//!
//! In real hardware the words are opaque bit vectors. In a simulator we
//! want to *verify* that every decode reproduces exactly one original flit,
//! so [`Coded`] tracks, alongside the XORed payload of type `T`, the
//! multiset (mod 2) of constituent symbols. XOR of payloads corresponds to
//! symmetric difference of constituent sets; a word is *plain* exactly when
//! one constituent remains.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Payload types that support bitwise XOR superposition.
///
/// Implemented for the unsigned integer types that model flit payloads.
/// The operation must be associative, commutative, and self-inverse
/// (`a.xor(a) == T::zero()`), which `^` on integers satisfies.
pub trait Xor: Clone + Eq {
    /// The identity element (all-zero word).
    fn zero() -> Self;
    /// Bitwise XOR.
    fn xor(&self, other: &Self) -> Self;
}

macro_rules! impl_xor_uint {
    ($($t:ty),*) => {$(
        impl Xor for $t {
            fn zero() -> Self { 0 }
            fn xor(&self, other: &Self) -> Self { self ^ other }
        }
    )*};
}

impl_xor_uint!(u8, u16, u32, u64, u128);

/// A (possibly XOR-superposed) link word carrying payload `T` and tagged
/// with constituent identity keys.
///
/// Constituents are identified by `u64` keys (the simulator uses a packed
/// packet-id/flit-sequence key). The key set is the symmetric difference of
/// the key sets of all words XORed together, kept sorted.
///
/// # Example
///
/// ```
/// use nox_core::Coded;
///
/// let a = Coded::plain(1, 0xAAu64);
/// let b = Coded::plain(2, 0xBBu64);
/// let c = Coded::plain(3, 0xCCu64);
///
/// let abc = a.xor(&b).xor(&c); // first collision cycle
/// let bc = b.xor(&c);          // losers re-collide
/// let decoded = abc.xor(&bc);  // receiver decode
/// assert!(decoded.is_plain());
/// assert_eq!(decoded, a);
/// ```
#[derive(Clone)]
pub struct Coded<T> {
    payload: T,
    keys: Keys,
}

/// Constituent keys a word stores without touching the heap.
///
/// A switch only ever XORs *plain* (already decoded) flits, one per
/// contending input, and a flit never leaves through the port it came in
/// on, so a link word of a radix-`r` router superposes at most `r - 1`
/// constituents: four on the paper's five-port mesh. Wider superpositions
/// (a radix-8 concentrated mesh, algebra over arbitrary words) spill to the
/// heap. Four, not eight: the word sits in every FIFO slot, decode
/// register and presented-flit record of the simulator, and a fatter word
/// measurably slows the lightly loaded mesh.
pub const INLINE_KEYS: usize = 4;

/// Sorted key storage: inline up to [`INLINE_KEYS`], heap beyond.
///
/// Words built by this module are inline exactly when they fit, but no
/// caller may observe the difference: equality and hashing of [`Coded`] go
/// through [`Keys::as_slice`].
#[derive(Clone)]
enum Keys {
    Inline { len: u8, keys: [u64; INLINE_KEYS] },
    Spilled(Vec<u64>),
}

impl Keys {
    const EMPTY: Keys = Keys::Inline {
        len: 0,
        keys: [0; INLINE_KEYS],
    };

    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            Keys::Inline { len, keys } => &keys[..*len as usize],
            Keys::Spilled(v) => v,
        }
    }

    /// Appends `key`; `cap` bounds the final key count, so a spill
    /// allocates once.
    fn push(&mut self, key: u64, cap: usize) {
        match self {
            Keys::Inline { len, keys } if (*len as usize) < INLINE_KEYS => {
                keys[*len as usize] = key;
                *len += 1;
            }
            Keys::Inline { keys, .. } => {
                let mut v = Vec::with_capacity(cap);
                v.extend_from_slice(keys);
                v.push(key);
                *self = Keys::Spilled(v);
            }
            Keys::Spilled(v) => v.push(key),
        }
    }
}

impl<T: Xor> Coded<T> {
    /// Creates a plain (un-encoded) word for a single constituent.
    pub fn plain(key: u64, payload: T) -> Self {
        let mut keys = [0; INLINE_KEYS];
        keys[0] = key;
        Coded {
            payload,
            keys: Keys::Inline { len: 1, keys },
        }
    }

    /// Creates the empty superposition (zero payload, no constituents).
    ///
    /// Useful as a fold seed; an empty word never travels on a link.
    pub fn empty() -> Self {
        Coded {
            payload: T::zero(),
            keys: Keys::EMPTY,
        }
    }

    /// XOR-superposes two words: payloads XOR, key sets take their
    /// symmetric difference.
    pub fn xor(&self, other: &Coded<T>) -> Coded<T> {
        let payload = self.payload.xor(&other.payload);
        let (a, b) = (self.keys(), other.keys());
        let cap = a.len() + b.len();
        let mut keys = Keys::EMPTY;
        // Merge two sorted key lists, dropping pairs (symmetric difference).
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    keys.push(a[i], cap);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    keys.push(b[j], cap);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        for &k in a[i..].iter().chain(&b[j..]) {
            keys.push(k, cap);
        }
        Coded { payload, keys }
    }

    /// Number of constituent symbols still superposed in this word.
    #[inline]
    pub fn arity(&self) -> usize {
        self.keys().len()
    }

    /// `true` when exactly one constituent remains — the word is directly
    /// usable without decoding. Mirrors the *encoded* marker bit the NoX
    /// router sends alongside each link word (inverted).
    #[inline]
    pub fn is_plain(&self) -> bool {
        self.arity() == 1
    }

    /// `true` when more than one constituent is superposed.
    #[inline]
    pub fn is_encoded(&self) -> bool {
        self.arity() > 1
    }

    /// `true` when no constituents remain (the zero word).
    pub fn is_empty(&self) -> bool {
        self.arity() == 0
    }

    /// The XORed payload bits.
    pub fn payload(&self) -> &T {
        &self.payload
    }

    /// The sorted constituent keys.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        self.keys.as_slice()
    }

    /// The sole constituent key of a plain word.
    ///
    /// Returns `None` if the word is encoded or empty.
    #[inline]
    pub fn sole_key(&self) -> Option<u64> {
        match self.keys() {
            [key] => Some(*key),
            _ => None,
        }
    }

    /// XORs an error mask into the payload, leaving the constituent keys
    /// untouched.
    ///
    /// This models a physical transmission error: the bits on the wire
    /// change, but the simulator's ground-truth identity tracking (which
    /// has no hardware counterpart) still knows which flits the word was
    /// *supposed* to carry. Because decode is XOR, the mask propagates
    /// unchanged through every later superposition — exactly the
    /// chain-wide corruption amplification the NoX topology exhibits.
    pub fn corrupt_payload(&mut self, mask: &T) {
        self.payload = self.payload.xor(mask);
    }
}

// Equality and hashing see the live keys only, never the storage: the
// model checker deduplicates states by hashing words, so an inline word
// and a spilled word with the same constituents must be one state.
impl<T: PartialEq> PartialEq for Coded<T> {
    fn eq(&self, other: &Self) -> bool {
        self.payload == other.payload && self.keys.as_slice() == other.keys.as_slice()
    }
}

impl<T: Eq> Eq for Coded<T> {}

impl<T: Hash> Hash for Coded<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.payload.hash(state);
        self.keys.as_slice().hash(state);
    }
}

impl<T: Xor> FromIterator<Coded<T>> for Coded<T> {
    /// XOR-folds any number of words together, as the NoX switch does for
    /// all uninhibited inputs of an output port.
    fn from_iter<I: IntoIterator<Item = Coded<T>>>(iter: I) -> Self {
        iter.into_iter().fold(Coded::empty(), |acc, w| acc.xor(&w))
    }
}

impl<T: fmt::Debug> fmt::Debug for Coded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Coded({:?} <- {:?})", self.payload, self.keys.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_word_properties() {
        let a = Coded::plain(7, 0x1234u64);
        assert!(a.is_plain());
        assert!(!a.is_encoded());
        assert_eq!(a.arity(), 1);
        assert_eq!(a.sole_key(), Some(7));
        assert_eq!(*a.payload(), 0x1234);
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = Coded::plain(1, 0xAAu64);
        let zero = a.xor(&a);
        assert!(zero.is_empty());
        assert_eq!(*zero.payload(), 0);
    }

    #[test]
    fn two_way_decode_matches_paper_example() {
        // (B ^ C) ^ C = B
        let b = Coded::plain(2, 0xB0u64);
        let c = Coded::plain(3, 0xC0u64);
        let bc = b.xor(&c);
        assert!(bc.is_encoded());
        assert_eq!(*bc.payload(), 0xB0 ^ 0xC0);
        let decoded = bc.xor(&c);
        assert_eq!(decoded, b);
    }

    #[test]
    fn three_way_decode_matches_paper_example() {
        // (A ^ B ^ C) ^ (B ^ C) = A
        let a = Coded::plain(1, 0xA1u64);
        let b = Coded::plain(2, 0xB2u64);
        let c = Coded::plain(3, 0xC3u64);
        let abc: Coded<u64> = [a.clone(), b.clone(), c.clone()].into_iter().collect();
        let bc = b.xor(&c);
        assert_eq!(abc.xor(&bc), a);
    }

    #[test]
    fn from_iterator_of_nothing_is_empty() {
        let z: Coded<u64> = std::iter::empty().collect();
        assert!(z.is_empty());
    }

    #[test]
    fn keys_stay_sorted_and_deduplicated() {
        let a = Coded::plain(9, 1u64);
        let b = Coded::plain(3, 2u64);
        let ab = a.xor(&b);
        assert_eq!(ab.keys(), &[3, 9]);
        assert_eq!(ab.xor(&b).keys(), &[9]);
    }

    #[test]
    fn sole_key_of_encoded_is_none() {
        let ab = Coded::plain(1, 1u64).xor(&Coded::plain(2, 2u64));
        assert_eq!(ab.sole_key(), None);
    }

    #[test]
    fn corruption_propagates_through_decode() {
        // Corrupt the encoded word; the decoded flit inherits the mask.
        let a = Coded::plain(1, 0xA1u64);
        let b = Coded::plain(2, 0xB2u64);
        let mut ab = a.xor(&b);
        ab.corrupt_payload(&0x40u64);
        assert_eq!(ab.keys(), &[1, 2]);
        let decoded = ab.xor(&b);
        assert_eq!(decoded.sole_key(), Some(1));
        assert_eq!(*decoded.payload(), 0xA1 ^ 0x40);
    }

    fn hash_of(w: &Coded<u64>) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        w.hash(&mut h);
        h.finish()
    }

    /// The XOR of the plain words keyed `keys`, payload `key * 0x11`.
    fn word(keys: std::ops::Range<u64>) -> Coded<u64> {
        keys.map(|k| Coded::plain(k, k * 0x11)).collect()
    }

    #[test]
    fn word_stays_within_six_machine_words() {
        assert!(std::mem::size_of::<Coded<u64>>() <= 48);
        assert!(std::mem::size_of::<Option<Coded<u64>>>() <= 48);
    }

    #[test]
    fn xor_round_trips_across_the_spill_boundary() {
        // Inline -> spilled -> inline, and spilled -> inline -> spilled.
        for (a, b) in [(word(0..3), word(10..13)), (word(0..6), word(0..3))] {
            let there = a.xor(&b);
            assert_ne!(
                a.arity() > INLINE_KEYS,
                there.arity() > INLINE_KEYS,
                "the pair must cross the inline capacity"
            );
            let back = there.xor(&b);
            assert_eq!(back, a);
            assert_eq!(hash_of(&back), hash_of(&a));
            assert_eq!(back.keys(), a.keys());
        }
    }

    #[test]
    fn equality_and_hash_ignore_storage() {
        let inline = word(1..4);
        let spilled = Coded {
            payload: *inline.payload(),
            keys: Keys::Spilled(inline.keys().to_vec()),
        };
        let dirty = Coded {
            payload: *inline.payload(),
            keys: Keys::Inline {
                len: 3,
                keys: [1, 2, 3, 0xDEAD],
            },
        };
        for other in [&spilled, &dirty] {
            assert_eq!(&inline, other);
            assert_eq!(hash_of(&inline), hash_of(other));
        }
        assert_ne!(inline, word(1..5));
    }

    #[test]
    fn words_up_to_the_inline_capacity_stay_off_the_heap() {
        assert!(matches!(word(0..4).keys, Keys::Inline { len: 4, .. }));
        assert!(matches!(word(0..5).keys, Keys::Spilled(_)));
        // A spilled word that cancels back under the capacity is inline
        // again.
        let back = word(0..7).xor(&word(2..7));
        assert!(matches!(back.keys, Keys::Inline { len: 2, .. }));
    }

    #[test]
    fn debug_output_is_nonempty() {
        let s = format!("{:?}", Coded::plain(1, 5u64));
        assert!(s.contains("Coded"));
    }
}
