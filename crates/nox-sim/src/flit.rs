//! Flits, packets, and link words.
//!
//! The simulator keeps per-flit storage minimal: a flit travelling through
//! the network is a [`Word`] — the XOR-coding wrapper from `nox-core`
//! instantiated with a 64-bit payload and keyed by [`FlitKey`]. All other
//! per-packet information (source, destination, length, timestamps) lives
//! once in the [`PacketTable`] and is recovered from the key via
//! [`PacketTable::flit_info`].
//!
//! Payload bits are a deterministic hash of the flit key, which lets the
//! ejection logic verify — for every flit, in every run — that XOR
//! decoding reproduced the exact original bits.

use crate::topology::NodeId;
use nox_core::Coded;

/// Index of a packet in the [`PacketTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Globally unique identity of one flit: packet id and sequence number,
/// packed into the `u64` key used by [`Coded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlitKey {
    /// Owning packet.
    pub packet: PacketId,
    /// Position within the packet, `0..len`.
    pub seq: u16,
}

impl FlitKey {
    /// Packs the key into the `u64` carried by [`Coded`].
    pub fn pack(self) -> u64 {
        (self.packet.0 << 16) | self.seq as u64
    }

    /// Unpacks a `u64` produced by [`FlitKey::pack`].
    pub fn unpack(raw: u64) -> Self {
        FlitKey {
            packet: PacketId(raw >> 16),
            seq: (raw & 0xFFFF) as u16,
        }
    }

    /// The deterministic payload bits of this flit (for end-to-end data
    /// integrity checks through XOR encode/decode).
    pub fn payload(self) -> u64 {
        // splitmix64 finalizer: cheap, well-distributed, reproducible.
        let mut z = self.pack().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A (possibly encoded) 64-bit link word. Plain words have exactly one
/// constituent flit; encoded words superpose several.
pub type Word = Coded<u64>;

/// Creates the plain link word for one flit.
pub fn word_for(key: FlitKey) -> Word {
    Coded::plain(key.pack(), key.payload())
}

/// Everything a router needs to know about a presented (plain) flit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlitInfo {
    /// Owning packet.
    pub packet: PacketId,
    /// Position within the packet.
    pub seq: u16,
    /// Final destination node.
    pub dest: NodeId,
    /// `true` if the packet has more than one flit.
    pub multiflit: bool,
    /// `true` if this is the packet's last flit.
    pub tail: bool,
}

/// Static description of one packet, created at injection time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketMeta {
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Packet length in flits (>= 1).
    pub len: u16,
    /// Creation time (entry into the source queue), in network cycles.
    pub created_cycle: u64,
    /// Whether this packet's latency counts toward measured statistics.
    pub measured: bool,
}

/// The table of all packets in a simulation, indexed by [`PacketId`].
///
/// # Example
///
/// ```
/// use nox_sim::flit::{FlitKey, PacketMeta, PacketTable};
/// use nox_sim::topology::NodeId;
///
/// let mut table = PacketTable::new();
/// let id = table.push(PacketMeta {
///     src: NodeId(0),
///     dest: NodeId(7),
///     len: 9,
///     created_cycle: 0,
///     measured: true,
/// });
/// let info = table.flit_info(FlitKey { packet: id, seq: 8 });
/// assert!(info.tail && info.multiflit);
/// assert_eq!(info.dest, NodeId(7));
/// ```
#[derive(Clone, Debug, Default)]
pub struct PacketTable {
    metas: Vec<PacketMeta>,
}

impl PacketTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with room for `packets` packets.
    pub(crate) fn with_capacity(packets: usize) -> Self {
        PacketTable {
            metas: Vec::with_capacity(packets),
        }
    }

    /// Registers a packet, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `meta.len == 0`.
    pub fn push(&mut self, meta: PacketMeta) -> PacketId {
        assert!(meta.len >= 1, "a packet needs at least one flit");
        let id = PacketId(self.metas.len() as u64);
        self.metas.push(meta);
        id
    }

    /// Number of packets registered.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// `true` if no packets are registered.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The packet's static metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn meta(&self, id: PacketId) -> &PacketMeta {
        &self.metas[id.0 as usize]
    }

    /// Routing/flow-control information for one flit.
    pub fn flit_info(&self, key: FlitKey) -> FlitInfo {
        let m = self.meta(key.packet);
        FlitInfo {
            packet: key.packet,
            seq: key.seq,
            dest: m.dest,
            multiflit: m.len > 1,
            tail: key.seq + 1 == m.len,
        }
    }

    /// Routing/flow-control information for a *plain* word.
    ///
    /// # Panics
    ///
    /// Panics if the word is encoded or empty — router control logic must
    /// never inspect the fields of a superposed word.
    pub fn word_info(&self, word: &Word) -> FlitInfo {
        let key = word
            .sole_key()
            .expect("control logic peeked at an encoded word");
        self.flit_info(FlitKey::unpack(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_pack_roundtrip() {
        let k = FlitKey {
            packet: PacketId(123_456_789),
            seq: 77,
        };
        assert_eq!(FlitKey::unpack(k.pack()), k);
    }

    #[test]
    fn payload_is_deterministic_and_distinct() {
        let a = FlitKey {
            packet: PacketId(1),
            seq: 0,
        };
        let b = FlitKey {
            packet: PacketId(1),
            seq: 1,
        };
        assert_eq!(a.payload(), a.payload());
        assert_ne!(a.payload(), b.payload());
    }

    #[test]
    fn word_for_is_plain_with_matching_key() {
        let k = FlitKey {
            packet: PacketId(9),
            seq: 3,
        };
        let w = word_for(k);
        assert!(w.is_plain());
        assert_eq!(w.sole_key(), Some(k.pack()));
        assert_eq!(*w.payload(), k.payload());
    }

    #[test]
    fn flit_info_single_flit_packet() {
        let mut t = PacketTable::new();
        let id = t.push(PacketMeta {
            src: NodeId(1),
            dest: NodeId(2),
            len: 1,
            created_cycle: 5,
            measured: false,
        });
        let info = t.flit_info(FlitKey { packet: id, seq: 0 });
        assert!(info.tail);
        assert!(!info.multiflit);
    }

    #[test]
    fn flit_info_multiflit_head_body_tail() {
        let mut t = PacketTable::new();
        let id = t.push(PacketMeta {
            src: NodeId(0),
            dest: NodeId(3),
            len: 3,
            created_cycle: 0,
            measured: true,
        });
        let head = t.flit_info(FlitKey { packet: id, seq: 0 });
        let body = t.flit_info(FlitKey { packet: id, seq: 1 });
        let tail = t.flit_info(FlitKey { packet: id, seq: 2 });
        assert!(head.multiflit && !head.tail);
        assert!(body.multiflit && !body.tail);
        assert!(tail.multiflit && tail.tail);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_rejected() {
        let mut t = PacketTable::new();
        t.push(PacketMeta {
            src: NodeId(0),
            dest: NodeId(0),
            len: 0,
            created_cycle: 0,
            measured: false,
        });
    }

    #[test]
    #[should_panic(expected = "encoded word")]
    fn word_info_rejects_encoded_words() {
        let mut t = PacketTable::new();
        let id = t.push(PacketMeta {
            src: NodeId(0),
            dest: NodeId(1),
            len: 1,
            created_cycle: 0,
            measured: false,
        });
        let id2 = t.push(PacketMeta {
            src: NodeId(2),
            dest: NodeId(1),
            len: 1,
            created_cycle: 0,
            measured: false,
        });
        let w = word_for(FlitKey { packet: id, seq: 0 }).xor(&word_for(FlitKey {
            packet: id2,
            seq: 0,
        }));
        let _ = t.word_info(&w);
    }
}
