//! The step loop is heap-free in steady state.
//!
//! Link words keep their constituent keys inline, single-flit packets
//! bypass the reassembly map, and every per-cycle buffer is recycled, so
//! once queues have reached their working size a cycle allocates nothing.
//! A test-local counting allocator pins that for every architecture at
//! the paper's saturating operating point, and `const` assertions pin
//! the layout it rests on: the size of the word that FIFO slots, decode
//! registers and link transfers are built from, that the per-input
//! presented record carries no word, and that a router's tick scratch is
//! plain inline data, which is why a router has at most eight ports, and
//! how big that scratch and the router around it are.
//!
//! Set-up allocates once per structure, whatever the trace's length:
//! generated events are reserved up front, a trace keeps the vector it
//! was built from behind one shared handle, and a network holds that
//! handle and copies no event: what it allocates per event is one `u32`
//! of its sources' trace order (DESIGN.md §16.5).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nox_sim::config::{Arch, NetConfig};
use nox_sim::flit::Word;
use nox_sim::network::Network;
use nox_sim::router::{Presented, Router, TickScratch};
use nox_sim::topology::{Mesh, NodeId, Topology, MAX_PORTS};
use nox_sim::trace::{PacketEvent, Trace};
use nox_traffic::synthetic::{generate, SyntheticConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Six machine words: payload, four inline keys, and the length/tag word.
// A fatter word measurably slows the lightly loaded mesh (DESIGN.md §16).
const _: () = assert!(std::mem::size_of::<Word>() <= 48);

// Flit info, output port and decode action, and no `Word`: what the
// control logic copies per input per cycle is half a word's size
// (DESIGN.md §16).
const _: () = assert!(std::mem::size_of::<Presented>() <= 24);

// `Copy`, so it owns no heap block: fixed arrays of `MAX_PORTS` slots.
const fn holds_no_heap_pointer<T: Copy>() {}
const _: () = holds_no_heap_pointer::<TickScratch>();

// What a tick needs and nothing parked between stages: presented
// records, request and fresh sets, the requested set. A decision is
// applied as it is made, so the scratch holds no decision table and the
// router no more than its ports, its two sets and this.
const _: () = assert!(std::mem::size_of::<TickScratch>() <= 328);
const _: () = assert!(std::mem::size_of::<Router>() <= 408);

thread_local! {
    // Per-thread, so the harness's other test threads never count here;
    // const-initialised `Cell`s, so touching them cannot itself allocate.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` new bytes, if armed.
fn count(bytes: usize) {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + bytes as u64));
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local integer and never influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout is passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` and `layout` come from an earlier call on this
        // allocator, which handed out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread, and
/// the bytes they add.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    allocated(f).0
}

const WARMUP_CYCLES: u64 = 2_000;
const MEASURED_CYCLES: u64 = 10_000;

/// Uniform-random single-flit traffic at 2000 MB/s per node (0.25 flits
/// per node per nanosecond at 8-byte flits): one Bernoulli draw per node
/// per cycle, covering the whole run so every source injects to the end.
fn saturating_trace(cfg: &NetConfig) -> Trace {
    let nodes = cfg.nodes() as u16;
    let per_cycle = 0.25 * cfg.clock_ns();
    let mut rng = StdRng::seed_from_u64(0x0A0C5);
    let mut trace = Trace::new();
    for cycle in 0..WARMUP_CYCLES + MEASURED_CYCLES {
        for src in 0..nodes {
            if rng.gen_bool(per_cycle) {
                trace.push(PacketEvent {
                    time_ns: cycle as f64 * cfg.clock_ns(),
                    src: NodeId(src),
                    dest: NodeId(rng.gen_range(0..nodes)),
                    len: 1,
                });
            }
        }
    }
    trace
}

#[test]
#[should_panic(expected = "at most 8 ports")]
fn a_nine_port_router_is_refused() {
    // Four directions and five cores: one port more than `cmesh(4,4,4)`,
    // the widest router the fixed per-port arrays are sized for.
    assert_eq!(MAX_PORTS, 8);
    let _ = Router::new(NodeId(0), Arch::Nox, Topology::cmesh(2, 2, 5), 4);
}

#[test]
fn saturated_step_loop_does_not_allocate() {
    for arch in Arch::ALL {
        let cfg = NetConfig::paper(arch);
        let mut net = Network::new(cfg, &saturating_trace(&cfg), (0.0, f64::MAX));
        net.run(WARMUP_CYCLES);
        let before = *net.counters();
        let allocs = allocations(|| {
            for _ in 0..MEASURED_CYCLES {
                net.step();
            }
        });
        let moved = net.counters().link_flits - before.link_flits;
        assert!(
            moved > MEASURED_CYCLES * 50,
            "{arch}: only {moved} link flits, the mesh was not busy"
        );
        if arch == Arch::Nox {
            let encoded = net.counters().encoded_transfers - before.encoded_transfers;
            assert!(encoded > 1_000, "NoX encoded only {encoded} words");
        }
        // Amortised growth of the in-flight queues is all that is left.
        assert!(
            allocs < 10,
            "{arch}: {allocs} heap allocations in {MEASURED_CYCLES} steady-state cycles"
        );
    }
}

#[test]
fn a_trace_keeps_the_vector_it_is_built_from() {
    let events = saturating_trace(&NetConfig::paper(Arch::Nox))
        .events()
        .to_vec();
    let (len, at) = (events.len(), events.as_ptr());
    let mut trace = None;
    let allocs = allocations(|| trace = Some(Trace::from_events(events)));
    let trace = trace.expect("built");
    // The shared handle's block, and no copy of the events.
    assert_eq!(allocs, 1, "from_events allocated {allocs} times");
    assert_eq!((trace.len(), trace.events().as_ptr()), (len, at));
}

#[test]
fn network_set_up_allocates_the_same_for_any_trace_length() {
    let cfg = NetConfig::paper(Arch::Nox);
    let full = saturating_trace(&cfg);
    let n = full.len() / 4;
    let allocs_for = |events: &[PacketEvent]| {
        let trace = Trace::from_events(events.to_vec());
        let mut net = None;
        let allocs = allocated(|| net = Some(Network::new(cfg, &trace, (0.0, f64::MAX))));
        assert_eq!(net.expect("built").packets().len(), events.len());
        allocs
    };
    let (short, long) = (
        allocs_for(&full.events()[..n]),
        allocs_for(&full.events()[..4 * n]),
    );
    assert_eq!(short.0, long.0, "allocations for n and 4n events");
    // A `u32` of trace order per event, and no copy of the event: a
    // 16-byte packet row or an 8-byte queue entry would break this.
    let per_event = (long.1 - short.1) as f64 / (3 * n) as f64;
    assert!(
        per_event <= 4.0,
        "set-up allocates {per_event:.2} bytes per extra trace event"
    );
}

#[test]
fn generating_allocates_the_same_for_any_duration() {
    let allocs_for = |duration_ns| {
        let cfg = SyntheticConfig {
            seed: 1,
            ..SyntheticConfig::uniform(2_000.0, duration_ns)
        };
        let mut trace = None;
        let allocs = allocations(|| trace = Some(generate(Mesh::new(8, 8), &cfg)));
        assert!(trace.expect("generated").len() > 10_000);
        allocs
    };
    assert_eq!(allocs_for(10_000.0), allocs_for(40_000.0));
}
