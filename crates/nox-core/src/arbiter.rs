//! Round-robin output arbitration.
//!
//! Every router architecture in the paper — non-speculative, Spec-Fast,
//! Spec-Accurate and NoX — uses one arbiter per output port to pick a
//! single winner among contending inputs. The paper's fairness discussion
//! (§2.2: decoded packets "are received in the order which they won
//! arbitration, maintaining any fairness or prioritization mechanisms
//! within the network") presumes a fair arbiter; we use the classic
//! rotating-priority (round-robin) scheme.

use crate::port::{PortId, PortSet};

/// A rotating-priority (round-robin) arbiter over up to 32 requesters.
///
/// After each successful grant the priority pointer advances to the port
/// *after* the winner, guaranteeing that a continuously-requesting port is
/// served at least once every `n` grants (strong fairness).
///
/// # Example
///
/// ```
/// use nox_core::{PortId, PortSet, RoundRobinArbiter};
///
/// let mut arb = RoundRobinArbiter::new(4);
/// let req = PortSet::from_iter([PortId(1), PortId(3)]);
/// assert_eq!(arb.grant(req), Some(PortId(1)));
/// // Priority has rotated past port 1, so port 3 wins next.
/// assert_eq!(arb.grant(req), Some(PortId(3)));
/// assert_eq!(arb.grant(PortSet::EMPTY), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RoundRobinArbiter {
    n: u8,
    next: u8,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` ports with priority initially at port 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 32`.
    pub fn new(n: u8) -> Self {
        assert!(n > 0 && n <= 32, "arbiter needs 1..=32 ports, got {n}");
        RoundRobinArbiter { n, next: 0 }
    }

    /// Number of ports this arbiter serves.
    pub fn ports(&self) -> u8 {
        self.n
    }

    /// Port that currently holds highest priority.
    pub fn priority(&self) -> PortId {
        PortId(self.next)
    }

    /// Grants one requester, or `None` if `req` is empty, and rotates the
    /// priority pointer past the winner.
    ///
    /// Requests for ports outside the arbiter's universe are ignored.
    pub fn grant(&mut self, req: PortSet) -> Option<PortId> {
        let winner = self.peek(req)?;
        // Compare-and-wrap, not `% n`: a division by a run-time value on
        // every grant is most of what a grant costs.
        self.next = if winner.0 + 1 == self.n {
            0
        } else {
            winner.0 + 1
        };
        Some(winner)
    }

    /// Returns the port that *would* win, without rotating the priority.
    pub fn peek(&self, req: PortSet) -> Option<PortId> {
        let req = req.intersect(PortSet::all(self.n));
        if req.is_empty() {
            return None;
        }
        // Rotate the request mask so the priority port is bit 0, pick the
        // lowest set bit, rotate back. The winner is a real request, so the
        // mod-32 result (a mask: the rotation is over 32 bits whatever `n`
        // is) is always inside the universe.
        let rot = req.bits().rotate_right(self.next as u32);
        let off = rot.trailing_zeros();
        Some(PortId(((self.next as u32 + off) & 31) as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ports: &[u8]) -> PortSet {
        ports.iter().map(|&p| PortId(p)).collect()
    }

    #[test]
    fn empty_request_yields_no_grant() {
        let mut arb = RoundRobinArbiter::new(5);
        assert_eq!(arb.grant(PortSet::EMPTY), None);
        // Priority must not move on a no-grant cycle.
        assert_eq!(arb.priority(), PortId(0));
    }

    #[test]
    fn single_requester_always_wins() {
        let mut arb = RoundRobinArbiter::new(5);
        for _ in 0..10 {
            assert_eq!(arb.grant(set(&[3])), Some(PortId(3)));
        }
    }

    #[test]
    fn rotates_among_persistent_requesters() {
        let mut arb = RoundRobinArbiter::new(4);
        let req = set(&[0, 1, 2, 3]);
        let wins: Vec<_> = (0..8).map(|_| arb.grant(req).unwrap().0).collect();
        assert_eq!(wins, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_non_requesting_ports() {
        let mut arb = RoundRobinArbiter::new(5);
        let req = set(&[1, 4]);
        assert_eq!(arb.grant(req), Some(PortId(1)));
        assert_eq!(arb.grant(req), Some(PortId(4)));
        assert_eq!(arb.grant(req), Some(PortId(1)));
    }

    #[test]
    fn wraps_around_the_universe() {
        let mut arb = RoundRobinArbiter::new(3);
        assert_eq!(arb.grant(set(&[2])), Some(PortId(2)));
        // Pointer wrapped to 0.
        assert_eq!(arb.priority(), PortId(0));
        assert_eq!(arb.grant(set(&[0, 2])), Some(PortId(0)));
    }

    #[test]
    fn wraps_at_the_full_thirty_two_port_universe() {
        // n = 32 is where the pointer arithmetic meets the width of the
        // mask: winner 31 must wrap the pointer to 0, and a priority of 31
        // must find a winner below it by rotating past bit 31.
        let mut arb = RoundRobinArbiter::new(32);
        assert_eq!(arb.grant(set(&[31])), Some(PortId(31)));
        assert_eq!(arb.priority(), PortId(0));
        assert_eq!(arb.grant(set(&[30])), Some(PortId(30)));
        assert_eq!(arb.priority(), PortId(31));
        assert_eq!(arb.peek(set(&[3, 30])), Some(PortId(3)));
        assert_eq!(arb.grant(set(&[3, 31])), Some(PortId(31)));
        assert_eq!(arb.priority(), PortId(0));
        // A full request set walks the whole universe in order, twice.
        let wins: Vec<u8> = (0..64)
            .map(|_| arb.grant(PortSet::all(32)).unwrap().0)
            .collect();
        assert_eq!(wins, (0..64).map(|i| i % 32).collect::<Vec<u8>>());
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut arb = RoundRobinArbiter::new(4);
        let req = set(&[2, 3]);
        assert_eq!(arb.peek(req), Some(PortId(2)));
        assert_eq!(arb.peek(req), Some(PortId(2)));
        assert_eq!(arb.grant(req), Some(PortId(2)));
        assert_eq!(arb.peek(req), Some(PortId(3)));
    }

    #[test]
    fn ignores_out_of_universe_requests() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.grant(set(&[5])), None);
        assert_eq!(arb.grant(set(&[1, 5])), Some(PortId(1)));
    }

    #[test]
    fn fairness_over_long_run() {
        // Two always-requesting ports must receive equal service.
        let mut arb = RoundRobinArbiter::new(5);
        let req = set(&[0, 4]);
        let mut counts = [0u32; 5];
        for _ in 0..1000 {
            counts[arb.grant(req).unwrap().index()] += 1;
        }
        assert_eq!(counts[0], 500);
        assert_eq!(counts[4], 500);
    }

    #[test]
    #[should_panic(expected = "1..=32 ports")]
    fn zero_ports_rejected() {
        let _ = RoundRobinArbiter::new(0);
    }
}
