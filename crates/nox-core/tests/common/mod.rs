//! The structural contract of a [`Decision`], shared by the property tests
//! that drive the output control engines.

use nox_core::Decision;

/// Asserts the contract every engine's decision honours. `nox` marks the
/// NoX controller: the only engine that encodes or aborts, and one that
/// never collides or wastes a reservation.
pub fn assert_decision(d: &Decision, nox: bool) {
    assert!(
        d.serviced.is_subset(d.drive),
        "serviced outside drive: {d:?}"
    );
    if !d.wasted.is_empty() {
        assert!(
            d.drive.is_empty() && d.serviced.is_empty() && d.wasted.len() >= 2,
            "malformed invalid word: {d:?}"
        );
    }
    if d.encoded {
        assert!(
            d.drive.len() >= 2 && d.serviced.len() == 1,
            "malformed encoded transfer: {d:?}"
        );
    } else if !d.drive.is_empty() {
        assert!(
            d.drive == d.serviced && d.drive.len() == 1,
            "a plain transfer must service its one driver: {d:?}"
        );
    }
    if nox {
        assert!(
            d.aborted != d.wasted.is_empty() && !d.wasted_reservation,
            "NoX wasted a cycle other than by an abort: {d:?}"
        );
    } else {
        assert!(
            !d.encoded && !d.aborted,
            "a baseline encoded or aborted: {d:?}"
        );
    }
}
