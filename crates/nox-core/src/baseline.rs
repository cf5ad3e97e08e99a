//! Per-output control for the paper's baseline routers (§3.1).
//!
//! Three comparison architectures are modeled, all wormhole routers:
//!
//! * [`NonSpecCtl`] — the canonical *sequential* router (Figure 5): switch
//!   arbitration in one cycle, switch traversal the next. Outputs can be
//!   active every cycle regardless of contention (arbitration pipelines
//!   with traversal), but every hop pays one extra cycle of latency.
//! * [`SpecCtl`] — the Mullins-style single-cycle speculative router
//!   (Figure 6) in its two variants, [`SpecMode::Fast`] and
//!   [`SpecMode::Accurate`]. Flits speculatively traverse the switch in
//!   their arrival cycle; when several inputs collide on an output the
//!   cycle is wasted and an indeterminate, invalid value is driven across
//!   the link (costing energy), while a parallel arbiter reserves the
//!   output for one input on the next cycle. The variants differ in the
//!   *Switch Next* logic that feeds the allocator:
//!   - **Fast**: passes every request not masked by the Switch Fast logic,
//!     including one that just traversed successfully — producing
//!     unnecessary reservations that idle the output. It guarantees
//!     multi-flit contiguity by masking all other requests from
//!     arbitration during any transmission, and (for fairness) newly
//!     exposed packets on an input may not request arbitration on their
//!     first cycle at the head of line.
//!   - **Accurate**: removes requests that successfully traverse in the
//!     current cycle, and overrides arbitration while a multi-flit packet
//!     streams — trading a slightly longer clock for better scheduling.

use crate::arbiter::RoundRobinArbiter;
use crate::output::{Decision, RequestSet};
use crate::port::{PortId, PortSet};

/// Which speculative variant a [`SpecCtl`] implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecMode {
    /// Minimal clock period at all cost; sloppy next-cycle scheduling.
    Fast,
    /// Slightly longer clock; accurate next-cycle scheduling.
    Accurate,
}

/// Per-output controller for the speculative routers.
///
/// # Example
///
/// A clean speculative hit followed by a collision:
///
/// ```
/// use nox_core::{PortId, PortSet, RequestSet, SpecCtl, SpecMode};
///
/// let mut out = SpecCtl::new(3, SpecMode::Accurate);
/// // One requester: speculation succeeds, single-cycle traversal.
/// let one = PortSet::single(PortId(0));
/// let d = out.tick(RequestSet::single_flit(one), PortSet::EMPTY);
/// assert_eq!(d.drive, one);
///
/// // Two requesters: speculation fails, the cycle is wasted, and one
/// // input is reserved for the next cycle.
/// let two = PortSet::from_iter([PortId(1), PortId(2)]);
/// let d = out.tick(RequestSet::single_flit(two), PortSet::EMPTY);
/// assert!(d.drive.is_empty());
/// assert_eq!(d.wasted, two);
/// assert!(d.granted.is_some());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecCtl {
    n: u8,
    mode: SpecMode,
    arbiter: RoundRobinArbiter,
    /// Input reserved for switch traversal this cycle (set by last cycle's
    /// allocation).
    reserved: Option<PortId>,
    /// Input whose multi-flit packet is streaming across this output.
    hold: Option<PortId>,
}

impl SpecCtl {
    /// Creates a controller for an output fed by `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 32`.
    pub fn new(n: u8, mode: SpecMode) -> Self {
        SpecCtl {
            n,
            mode,
            arbiter: RoundRobinArbiter::new(n),
            reserved: None,
            hold: None,
        }
    }

    /// The variant this controller implements.
    pub fn spec_mode(&self) -> SpecMode {
        self.mode
    }

    /// Number of input ports feeding this output.
    pub fn ports(&self) -> u8 {
        self.n
    }

    /// The reservation that will gate the next cycle's switch traversal.
    pub fn reserved(&self) -> Option<PortId> {
        self.reserved
    }

    /// The input currently streaming a multi-flit packet, if any.
    pub fn hold(&self) -> Option<PortId> {
        self.hold
    }

    /// `true` when a tick with an empty request set is the identity: it
    /// returns [`Decision::IDLE`] and leaves the controller unchanged,
    /// so a caller with nothing to request may skip the tick. That is
    /// exactly when no reservation is outstanding. A reservation needs its
    /// cycle: with nobody to use it the tick consumes it and reports a
    /// wasted reservation (Spec-Fast's stale re-grant, §3.1.2), and
    /// Spec-Accurate renews it every cycle for the input whose multi-flit
    /// packet holds the output, so an Accurate controller mid-stream is
    /// never settled. A Spec-Fast stream whose body flit is late holds
    /// with no reservation, and is.
    pub fn settled(&self) -> bool {
        self.reserved.is_none()
    }

    /// Advances the controller by one cycle.
    ///
    /// `fresh` marks inputs whose presented packet reached the head of
    /// line this cycle behind a previous packet on the same input. Only
    /// [`SpecMode::Fast`] uses it: such packets may not request (§3.1.2's
    /// fairness rule), so they neither speculate, nor arbitrate, nor ride
    /// a stale reservation on their first head-of-line cycle. This is what
    /// caps Spec-Fast's per-input throughput and makes it "frequently
    /// saturate at less than half the bandwidth" of the other routers.
    ///
    /// # Panics
    ///
    /// Panics if `r` is malformed (`multiflit`/`tail` not subsets of `req`).
    pub fn tick(&mut self, r: RequestSet, fresh: PortSet) -> Decision {
        r.check();
        let r = match self.mode {
            SpecMode::Fast => RequestSet {
                req: r.req.difference(fresh),
                multiflit: r.multiflit.difference(fresh),
                tail: r.tail.difference(fresh),
            },
            SpecMode::Accurate => r,
        };

        // --- Switch Fast: speculative / reserved traversal ---------------
        let gate = self.hold.or(self.reserved);
        let s = match gate {
            Some(i) => r.req.intersect(PortSet::single(i)),
            None => r.req,
        };
        // Several requesters collide; an empty `s` under a reservation
        // (and no stream) is a reservation held for nothing to send.
        let (drive, wasted) = if s.len() > 1 {
            (PortSet::EMPTY, s)
        } else {
            (s, PortSet::EMPTY)
        };
        let wasted_reservation = s.is_empty() && self.reserved.is_some() && self.hold.is_none();

        // Consume the reservation (a new one may be allocated below).
        self.reserved = None;

        // Wormhole stream bookkeeping.
        if let Some(i) = drive.sole() {
            if r.multiflit.contains(i) && !r.tail.contains(i) {
                self.hold = Some(i);
            } else if r.tail.contains(i) {
                self.hold = None;
            }
        }

        // --- Switch Next: allocate the next cycle --------------------------
        let granted = match (self.mode, self.hold) {
            // Accurate overrides arbitration while a multi-flit packet
            // streams: the streaming input keeps the output.
            (SpecMode::Accurate, Some(h)) => Some(h),
            (SpecMode::Accurate, None) => {
                // "Passed the same requests as the Switch Fast logic block
                // and removes requests that successfully undergo switch
                // traversal" (§3.1.2): the allocator sees the *post-mask*
                // (switch-eligible) requests minus successes. During a
                // reserved traversal everyone else is masked, so nothing
                // is pre-scheduled — the waiting inputs fall back to
                // speculation and may re-collide. This is what makes
                // Spec-Accurate a compromise (§3.2's efficiency ordering
                // puts it strictly below NoX).
                self.arbiter.grant(s.difference(drive))
            }
            (SpecMode::Fast, _) => {
                // All requests not masked by Switch Fast. During any
                // transmission all other requests are masked (multi-flit
                // contiguity), so the current transmitter may be re-granted
                // — the unnecessary reservation of §3.1.2.
                let base = match self.hold.or(drive.sole()) {
                    Some(i) => r.req.intersect(PortSet::single(i)),
                    None => r.req,
                };
                self.arbiter.grant(base)
            }
        };
        self.reserved = granted;

        Decision {
            drive,
            serviced: drive,
            wasted,
            granted,
            wasted_reservation,
            ..Decision::IDLE
        }
    }
}

/// Per-output controller for the sequential (non-speculative) router of
/// §3.1.1 / Figure 5.
///
/// Like every design in the paper this is a *single-cycle* router (§3.2):
/// switch arbitration and switch traversal happen serially within one
/// clock period, which is exactly why its Table 2 clock (0.92 ns) is the
/// longest of the four. The payoff is perfect output efficiency: the
/// arbitration winner traverses in the same cycle, so an output with any
/// pending request is productive every cycle and no link transition is
/// ever wasted — the top of §3.2's efficiency ordering.
///
/// # Example
///
/// ```
/// use nox_core::{NonSpecCtl, PortId, PortSet, RequestSet};
///
/// let mut out = NonSpecCtl::new(3);
/// let both = RequestSet::single_flit(PortSet::from_iter([PortId(1), PortId(2)]));
///
/// // Contention never wastes a cycle: one winner per cycle, back to back.
/// assert_eq!(out.tick(both).drive, PortSet::single(PortId(1)));
/// assert_eq!(out.tick(both).drive, PortSet::single(PortId(2)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonSpecCtl {
    n: u8,
    arbiter: RoundRobinArbiter,
    /// Input whose multi-flit packet holds this output.
    hold: Option<PortId>,
}

impl NonSpecCtl {
    /// Creates a controller for an output fed by `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 32`.
    pub fn new(n: u8) -> Self {
        NonSpecCtl {
            n,
            arbiter: RoundRobinArbiter::new(n),
            hold: None,
        }
    }

    /// Number of input ports feeding this output.
    pub fn ports(&self) -> u8 {
        self.n
    }

    /// The input currently streaming a multi-flit packet, if any.
    pub fn hold(&self) -> Option<PortId> {
        self.hold
    }

    /// `true` when a tick with an empty request set is the identity: it
    /// returns [`Decision::IDLE`] and leaves the controller
    /// unchanged, so a caller with nothing to request may skip the tick.
    /// Always: arbitration and traversal share the cycle, so nothing is
    /// carried into the next one except the wormhole hold, which an empty
    /// tick keeps.
    pub fn settled(&self) -> bool {
        true
    }

    /// Advances the controller by one cycle: arbitrates among the
    /// credit-qualified requests (restricted to the streaming input while
    /// a multi-flit packet holds the output) and traverses the winner.
    ///
    /// # Panics
    ///
    /// Panics if `r` is malformed (`multiflit`/`tail` not subsets of `req`).
    pub fn tick(&mut self, r: RequestSet) -> Decision {
        r.check();
        let candidates = match self.hold {
            Some(h) => r.req.intersect(PortSet::single(h)),
            None => r.req,
        };
        let winner = self.arbiter.grant(candidates);
        if let Some(i) = winner {
            if r.multiflit.contains(i) && !r.tail.contains(i) {
                self.hold = Some(i);
            } else if r.tail.contains(i) {
                self.hold = None;
            }
        }
        let drive = winner.map_or(PortSet::EMPTY, PortSet::single);
        Decision {
            drive,
            serviced: drive,
            granted: winner,
            ..Decision::IDLE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ports: &[u8]) -> PortSet {
        ports.iter().map(|&p| PortId(p)).collect()
    }

    fn sf(ports: &[u8]) -> RequestSet {
        RequestSet::single_flit(set(ports))
    }

    // ---------------------------------------------------------------- spec

    /// Figure 7 stimulus against Spec-Accurate: A alone at cycle 0; B and
    /// C colliding at cycle 2. B at cycle 3, C at cycle 4.
    #[test]
    fn figure7c_spec_accurate_timing() {
        let mut out = SpecCtl::new(3, SpecMode::Accurate);

        let d = out.tick(sf(&[0]), PortSet::EMPTY); // cycle 0
        assert_eq!(d.drive, set(&[0]));
        assert!(d.wasted.is_empty());

        let d = out.tick(sf(&[]), PortSet::EMPTY); // cycle 1
        assert!(d.drive.is_empty());
        assert!(!d.wasted_reservation, "accurate makes no stale reservation");

        let d = out.tick(sf(&[1, 2]), PortSet::EMPTY); // cycle 2: collision
        assert!(d.drive.is_empty());
        assert_eq!(d.wasted, set(&[1, 2]));
        assert_eq!(d.granted, Some(PortId(1)));

        let d = out.tick(sf(&[1, 2]), PortSet::EMPTY); // cycle 3: B reserved
        assert_eq!(d.drive, set(&[1]));
        // During the reserved traversal every other request is masked from
        // the switch, so nothing reaches the allocator (§3.1.2).
        assert_eq!(d.granted, None);

        // Cycle 4: C is alone now, so its renewed speculation succeeds —
        // the final packet lands one cycle after B, matching Figure 7c.
        let d = out.tick(sf(&[2]), PortSet::EMPTY);
        assert_eq!(d.drive, set(&[2]));
    }

    /// Figure 7 stimulus against Spec-Fast: the final packet C pays one
    /// extra wasted cycle versus Spec-Accurate (cycle 5 instead of 4).
    #[test]
    fn figure7b_spec_fast_timing() {
        let mut out = SpecCtl::new(3, SpecMode::Fast);

        let d = out.tick(sf(&[0]), PortSet::EMPTY); // cycle 0
        assert_eq!(d.drive, set(&[0]));
        // Fast re-reserves the transmitter: a stale reservation for cycle 1.
        assert_eq!(d.granted, Some(PortId(0)));

        let d = out.tick(sf(&[]), PortSet::EMPTY); // cycle 1: idle, wasted
        assert!(d.wasted_reservation);

        let d = out.tick(sf(&[1, 2]), PortSet::EMPTY); // cycle 2: collision
        assert_eq!(d.wasted, set(&[1, 2]));
        assert_eq!(d.granted, Some(PortId(1)));

        let d = out.tick(sf(&[1, 2]), PortSet::EMPTY); // cycle 3: B reserved
        assert_eq!(d.drive, set(&[1]));
        // All other requests are masked during the transmission, so the
        // transmitter is re-granted: another stale reservation.
        assert_eq!(d.granted, Some(PortId(1)));

        let d = out.tick(sf(&[2]), PortSet::EMPTY); // cycle 4: idle, wasted
        assert!(d.drive.is_empty());
        assert!(d.wasted_reservation);
        assert_eq!(d.granted, Some(PortId(2)));

        let d = out.tick(sf(&[2]), PortSet::EMPTY); // cycle 5: C at last
        assert_eq!(d.drive, set(&[2]));
    }

    #[test]
    fn spec_accurate_halves_rate_under_sustained_contention() {
        // Two inputs with endless single-flit packets: nothing can be
        // pre-scheduled during a reserved traversal, so every delivery is
        // followed by a fresh collision — half throughput. (NoX sustains
        // full rate here via Scheduled mode; the sequential router via its
        // pipelined arbitration. This gap is the §3.2 efficiency ordering.)
        let mut out = SpecCtl::new(2, SpecMode::Accurate);
        let req = sf(&[0, 1]);
        let first = out.tick(req, PortSet::EMPTY);
        assert_eq!(first.wasted, set(&[0, 1]));
        let mut delivered = 0;
        let mut collided = 0;
        for _ in 0..10 {
            let d = out.tick(req, PortSet::EMPTY);
            if !d.drive.is_empty() {
                delivered += 1;
            }
            if !d.wasted.is_empty() {
                collided += 1;
            }
        }
        assert_eq!(delivered, 5, "reserved cycles cannot pre-schedule");
        assert_eq!(collided, 5, "every delivery is followed by a collision");
        assert!(
            !out.tick(req, PortSet::EMPTY).wasted_reservation,
            "accurate never makes stale reservations"
        );
    }

    #[test]
    fn spec_fast_halves_rate_under_contention() {
        // Two inputs with endless single-flit packets: Spec-Fast's stale
        // reservations and fresh-packet suppression leave every other
        // cycle unproductive — half the throughput of Spec-Accurate.
        let mut out = SpecCtl::new(2, SpecMode::Fast);
        let mut delivered = 0;
        let mut unproductive = 0;
        let mut last_serviced: Option<PortId> = None;
        for _ in 0..20 {
            // The serviced input exposes its next packet on the following
            // cycle (infinite backlog), which may not request.
            let fresh = last_serviced.map(PortSet::single).unwrap_or(PortSet::EMPTY);
            let d = out.tick(sf(&[0, 1]), fresh);
            last_serviced = d.drive.sole();
            if !d.drive.is_empty() {
                delivered += 1;
            }
            if !d.wasted.is_empty() || d.wasted_reservation {
                unproductive += 1;
            }
        }
        assert_eq!(delivered, 10, "fast delivers on alternate cycles");
        assert_eq!(unproductive, 10, "every other cycle is wasted");
    }

    #[test]
    fn spec_accurate_uncontended_single_input_full_rate() {
        // A backlog on one input flows at one flit per cycle.
        let mut out = SpecCtl::new(3, SpecMode::Accurate);
        let mut delivered = 0;
        for _ in 0..10 {
            let d = out.tick(sf(&[0]), PortSet::EMPTY);
            if !d.drive.is_empty() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 10, "accurate must not self-block");
    }

    #[test]
    fn spec_fast_uncontended_single_input_alternates() {
        // The fairness rule makes every queued packet skip its first
        // head-of-line cycle, capping a single input at half rate — the
        // root of Spec-Fast's early saturation in Figure 8.
        let mut out = SpecCtl::new(3, SpecMode::Fast);
        let mut last: Option<PortId> = None;
        let mut delivered = 0;
        for _ in 0..10 {
            let fresh = last.map(PortSet::single).unwrap_or(PortSet::EMPTY);
            let d = out.tick(sf(&[0]), fresh);
            last = d.drive.sole();
            if !d.drive.is_empty() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 5, "fast alternates deliver/suppress");
    }

    #[test]
    fn spec_fast_first_arrival_not_suppressed() {
        // A packet arriving to an idle input (not newly exposed) requests
        // immediately: Spec-Fast keeps its single-cycle zero-load latency.
        let mut out = SpecCtl::new(3, SpecMode::Fast);
        let d = out.tick(sf(&[2]), PortSet::EMPTY);
        assert_eq!(d.drive, set(&[2]));
    }

    #[test]
    fn spec_multiflit_streams_contiguously() {
        for mode in [SpecMode::Fast, SpecMode::Accurate] {
            let mut out = SpecCtl::new(3, mode);
            // Head of a 3-flit packet on port 0; competitor on port 1.
            let head = RequestSet {
                req: set(&[0, 1]),
                multiflit: set(&[0]),
                tail: set(&[1]),
            };
            let d = out.tick(head, PortSet::EMPTY);
            // Both collide first (speculation fails with two requesters).
            assert_eq!(d.wasted, set(&[0, 1]));
            let winner = d.granted.unwrap();
            if winner == PortId(0) {
                // The multi-flit packet must now stream without preemption.
                let body = RequestSet {
                    req: set(&[0, 1]),
                    multiflit: set(&[0]),
                    tail: PortSet::EMPTY,
                };
                let d = out.tick(body, PortSet::EMPTY);
                assert_eq!(d.drive, set(&[0]));
                let d = out.tick(body, PortSet::EMPTY);
                assert_eq!(d.drive, set(&[0]), "{mode:?} broke a stream");
                let tail = RequestSet {
                    req: set(&[0, 1]),
                    multiflit: set(&[0]),
                    tail: set(&[0, 1]),
                };
                let d = out.tick(tail, PortSet::EMPTY);
                assert_eq!(d.drive, set(&[0]));
                assert_eq!(out.hold(), None, "tail releases the stream");
            }
        }
    }

    // ------------------------------------------------------------- nonspec

    /// Figure 7a: the sequential router under the Figure 7 stimulus.
    /// Arbitration and traversal share the (long) cycle: B is forwarded
    /// and its buffer freed in cycle 2 — "the non-speculative and NoX
    /// router architectures both productively forward a packet" — and C
    /// follows in cycle 3, delayed one cycle by contention.
    #[test]
    fn figure7a_nonspec_timing() {
        let mut out = NonSpecCtl::new(3);

        let d = out.tick(sf(&[0])); // cycle 0: A traverses immediately
        assert_eq!(d.drive, set(&[0]));

        let d = out.tick(sf(&[])); // cycle 1: idle
        assert!(d.drive.is_empty());

        let d = out.tick(sf(&[1, 2])); // cycle 2: B wins, no wasted cycle
        assert_eq!(d.drive, set(&[1]));

        let d = out.tick(sf(&[2])); // cycle 3: C
        assert_eq!(d.drive, set(&[2]));
    }

    #[test]
    fn nonspec_output_active_every_cycle_under_contention() {
        let mut out = NonSpecCtl::new(2);
        let req = sf(&[0, 1]);
        let mut delivered = 0;
        for _ in 0..10 {
            if !out.tick(req).drive.is_empty() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 10, "sequential router is fully efficient");
    }

    #[test]
    fn nonspec_alternates_fairly() {
        let mut out = NonSpecCtl::new(2);
        let req = sf(&[0, 1]);
        let wins: Vec<_> = (0..6)
            .map(|_| out.tick(req).drive.sole().unwrap().0)
            .collect();
        assert_eq!(wins, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn nonspec_wormhole_hold() {
        let mut out = NonSpecCtl::new(2);
        let head = RequestSet {
            req: set(&[0, 1]),
            multiflit: set(&[0]),
            tail: set(&[1]),
        };
        let d = out.tick(head);
        assert_eq!(d.drive, set(&[0]));
        assert_eq!(out.hold(), Some(PortId(0)));
        // The competitor may not preempt the stream even when the body
        // flit has not arrived yet.
        let d = out.tick(sf(&[1]));
        assert!(d.drive.is_empty(), "arbitration overridden mid-packet");
        // Tail releases the output.
        let tail = RequestSet {
            req: set(&[0, 1]),
            multiflit: set(&[0]),
            tail: set(&[0, 1]),
        };
        let d = out.tick(tail);
        assert_eq!(d.drive, set(&[0]));
        assert_eq!(out.hold(), None);
        let d = out.tick(sf(&[1]));
        assert_eq!(d.drive, set(&[1]));
    }
}
