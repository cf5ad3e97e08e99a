//! Property-based tests of the algebraic foundations: the XOR coding
//! group laws that make NoX decoding possible, the port-set lattice, and
//! the fairness bound of the round-robin arbiter.

use proptest::prelude::*;

use nox_core::coded::INLINE_KEYS;
use nox_core::{Coded, PortId, PortSet, RoundRobinArbiter};

fn coded() -> impl Strategy<Value = Coded<u64>> {
    prop::collection::vec((0u64..64, any::<u64>()), 1..5)
        .prop_map(|parts| parts.into_iter().map(|(k, v)| Coded::plain(k, v)).collect())
}

fn portset() -> impl Strategy<Value = PortSet> {
    (0u32..(1 << 8)).prop_map(PortSet::from_bits)
}

proptest! {
    // ------------------------------------------------------ coding algebra

    /// XOR superposition is commutative.
    #[test]
    fn coded_xor_commutes(a in coded(), b in coded()) {
        prop_assert_eq!(a.xor(&b), b.xor(&a));
    }

    /// XOR superposition is associative.
    #[test]
    fn coded_xor_associates(a in coded(), b in coded(), c in coded()) {
        prop_assert_eq!(a.xor(&b).xor(&c), a.xor(&b.xor(&c)));
    }

    /// Every word is its own inverse — the property §2.2's decode relies
    /// on: `(A^B^C) ^ (B^C) = A`.
    #[test]
    fn coded_xor_self_inverse(a in coded()) {
        let zero = a.xor(&a);
        prop_assert!(zero.is_empty());
        prop_assert_eq!(*zero.payload(), 0);
    }

    /// The empty word is the identity.
    #[test]
    fn coded_xor_identity(a in coded()) {
        prop_assert_eq!(a.xor(&Coded::empty()), a.clone());
    }

    /// Key-set arity and payload stay consistent under superposition:
    /// XORing in a plain word toggles its key's membership.
    #[test]
    fn coded_key_toggling(a in coded(), k in 0u64..64, v in any::<u64>()) {
        let w = Coded::plain(k, v);
        let had = a.keys().contains(&k);
        let toggled = a.xor(&w);
        prop_assert_eq!(toggled.keys().contains(&k), !had);
        // Toggling twice restores the original.
        prop_assert_eq!(toggled.xor(&w), a.clone());
    }

    /// A word that grows past the inline key capacity and cancels back
    /// under it behaves, at every step, like the plain sorted key set it
    /// models — whichever storage holds the keys.
    #[test]
    fn coded_grows_and_cancels_across_inline_capacity(
        base in prop::collection::vec(any::<u64>(), 1..4),
        extra in prop::collection::vec(any::<u64>(), INLINE_KEYS..9),
    ) {
        // Distinct keys, interleaved so merges insert in the middle.
        let base: Vec<Coded<u64>> = (0u64..).step_by(2).zip(base)
            .map(|(k, v)| Coded::plain(k, v)).collect();
        let extra: Vec<Coded<u64>> = (1u64..).step_by(2).zip(extra)
            .map(|(k, v)| Coded::plain(k, v)).collect();
        let start: Coded<u64> = base.iter().cloned().collect();

        let mut w = start.clone();
        let mut arity = base.len();
        let check = |w: &Coded<u64>, arity: usize| {
            prop_assert!(w.keys().windows(2).all(|p| p[0] < p[1]), "unsorted: {w:?}");
            prop_assert_eq!(w.arity(), arity);
            prop_assert_eq!(w.keys().len(), arity);
            prop_assert_eq!(w.is_plain(), arity == 1);
            prop_assert_eq!(w.is_encoded(), arity > 1);
            prop_assert_eq!(w.sole_key(), (arity == 1).then(|| w.keys()[0]));
        };
        for e in &extra {
            w = w.xor(e);
            arity += 1;
            check(&w, arity);
        }
        prop_assert!(w.arity() > INLINE_KEYS);
        // Cancel in insertion order, i.e. not the order a stack would.
        for e in &extra {
            w = w.xor(e);
            arity -= 1;
            check(&w, arity);
        }
        prop_assert_eq!(&w, &start);
        // And on down to a single plain constituent.
        for b in &base[1..] {
            w = w.xor(b);
        }
        check(&w, 1);
        prop_assert_eq!(w, base[0].clone());
    }

    // -------------------------------------------------------- port lattice

    /// Complement within a universe behaves like set negation.
    #[test]
    fn portset_complement_laws(s in portset()) {
        let n = 8u8;
        let s = s.intersect(PortSet::all(n));
        let c = s.complement(n);
        prop_assert!(s.intersect(c).is_empty());
        prop_assert_eq!(s.union(c), PortSet::all(n));
        prop_assert_eq!(c.complement(n), s);
    }

    /// De Morgan over the 8-port universe.
    #[test]
    fn portset_de_morgan(a in portset(), b in portset()) {
        let n = 8u8;
        let (a, b) = (a.intersect(PortSet::all(n)), b.intersect(PortSet::all(n)));
        prop_assert_eq!(
            a.union(b).complement(n),
            a.complement(n).intersect(b.complement(n))
        );
    }

    /// Difference is intersection with the complement.
    #[test]
    fn portset_difference_law(a in portset(), b in portset()) {
        let n = 8u8;
        let (a, b) = (a.intersect(PortSet::all(n)), b.intersect(PortSet::all(n)));
        prop_assert_eq!(a.difference(b), a.intersect(b.complement(n)));
    }

    /// Iteration visits exactly the members, in ascending order.
    #[test]
    fn portset_iteration_faithful(s in portset()) {
        let v: Vec<PortId> = s.iter().collect();
        prop_assert_eq!(v.len() as u32, s.len());
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        for p in &v {
            prop_assert!(s.contains(*p));
        }
    }

    // ------------------------------------------------------------ fairness

    /// Round-robin: a continuously requesting port waits at most `n`
    /// grants between services, whatever the other requesters do.
    #[test]
    fn round_robin_bounded_waiting(
        others in prop::collection::vec(portset(), 40),
        lucky in 0u8..5,
    ) {
        let n = 5u8;
        let mut arb = RoundRobinArbiter::new(n);
        let mut since_served = 0u32;
        for o in others {
            let req = o.intersect(PortSet::all(n)).with(PortId(lucky));
            let w = arb.grant(req).unwrap();
            if w == PortId(lucky) {
                since_served = 0;
            } else {
                since_served += 1;
                prop_assert!(since_served < n as u32, "starved beyond bound");
            }
        }
    }

    /// The arbiter always grants a requester when one exists.
    #[test]
    fn arbiters_always_grant_requesters(reqs in prop::collection::vec(portset(), 20)) {
        let n = 8u8;
        let mut rr = RoundRobinArbiter::new(n);
        for r in reqs {
            let r = r.intersect(PortSet::all(n));
            match rr.grant(r) {
                Some(p) => prop_assert!(r.contains(p)),
                None => prop_assert!(r.is_empty()),
            }
        }
    }
}
