//! Heap allocations per operation on the thread runtime: the budget that
//! keeps the writer's `tsrarray` shared instead of deep-copied, a blocking
//! caller's wait one shared slot instead of a channel, and the automata's
//! per-object state in `S` slots instead of trees and hash maps, and the
//! reader's per-READ buffers reused instead of rebuilt.
//!
//! A register group runs on the thread that submits to it when it is idle,
//! so on a settled one-register deployment a READ's rounds — every `READk`,
//! every object's suffix, every candidate — and a WRITE's two rounds happen
//! inside `read`/`write` on the calling thread. The allocator below
//! counts per thread, so the parked workers (and any other test) cannot
//! pollute the count; the executor's wakeup counter proves the work stayed
//! on this thread.
//!
//! At `optimal(1,1,2)` a `TsrMatrix` with its quorum rows populated is one
//! outer map and `S − 1` inner rows: a deep copy costs four allocations, and
//! a READ that follows a WRITE handles two dozen tuples. Deep-copying, this
//! loop measured 118 allocations (32.8 kB) per READ and 51 (11.7 kB) per
//! WRITE; sharing the matrix the writer sealed, 26 (8,944 B) and 12.7
//! (2,181 B); completing into a one-shot slot instead of a `bounded(1)`
//! channel (one allocation where the channel made two), 25 (8,784 B) and
//! 11.7 (2,045 B). With each history a sorted vector (a suffix is one
//! exact-size copy where a `BTreeMap` suffix allocated a whole leaf), the
//! reader's replies and the writer's acks in per-object slots and the
//! conflict check on the stack: 13.0 (1,723 B) and 9.1 (1,997 B). With the
//! reader judging each reply once into per-candidate bitmasks, three READ
//! allocations went: its two per-round reply vectors, now emptied at the
//! return and reused by the next READ, and the candidate set's `BTreeSet`
//! node, now a sorted vector that keeps `S` slots between READs: 10.0
//! (1,163 B). With the READ's completion carrying the group's sizing, so
//! that the meter counts the fast-path outcome the reader no longer
//! counts: 10.0 (1,187 B). With the READ returning on round 1 whenever
//! round 1 proves its answer — every READ of this quiet loop — and so
//! sending no READ2 (`S` messages and `S` suffix replies), and the meter
//! counting from the report alone: 6.0 (641 B).
//!
//! A WRITE's bytes are a sawtooth in `OPS`: every write appends one entry
//! to each object's history, and a doubling vector's reallocations count at
//! their full new size. Over these 200 writes the four histories grow from
//! 3 to 203 entries and reallocate to 8, 16, …, 256 entries of 64 B each —
//! ≈ 645 B per WRITE, more if the loop stopped just after a doubling. The
//! WRITE byte budget stays where it was because the two ack sets the
//! bitmasks replaced cost about as much.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread;
use std::time::Duration;

use vrr::core::{ProtocolKind, StorageConfig};
use vrr::runtime::StorageCluster;

struct PerThread;

thread_local! {
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping is a
// const-initialised thread-local `Cell` that neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: PerThread = PerThread;

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| {
        let (n, total) = c.get();
        c.set((n + 1, total + bytes as u64));
    });
}

/// `(allocations, bytes)` this thread made while running `op`.
fn counted<R>(op: impl FnOnce() -> R) -> (u64, u64) {
    let (n0, b0) = ALLOCS.with(Cell::get);
    std::hint::black_box(op());
    let (n1, b1) = ALLOCS.with(Cell::get);
    (n1 - n0, b1 - b0)
}

const OPS: u64 = 200;

#[test]
fn reads_and_writes_stay_within_their_allocation_budget() {
    let cfg = StorageConfig::optimal(1, 1, 2); // S = 4, two readers
    let storage: StorageCluster<u64> = StorageCluster::deploy(cfg, ProtocolKind::RegularOptimized);
    // Write 2's PW acks carry reader 0's timestamps: from here on every
    // tuple's matrix has all its quorum rows populated.
    storage.write(1);
    storage.read(0);
    storage.write(2);
    thread::sleep(Duration::from_millis(50)); // the workers park

    let before = storage.cluster().stats();
    let (mut read, mut write) = ((0, 0), (0, 0));
    for k in 3..3 + OPS {
        let (n, b) = counted(|| storage.write(k));
        write = (write.0 + n, write.1 + b);
        let (n, b) = counted(|| assert_eq!(storage.read(0).value, Some(k)));
        read = (read.0 + n, read.1 + b);
    }
    let wakeups = storage.cluster().stats().wakeups - before.wakeups;
    assert!(
        wakeups * 10 <= OPS,
        "{wakeups} worker wakeups in {OPS} write/read pairs: operations left \
         the calling thread, so its count is not the operations' cost"
    );

    let per_op = |(n, b): (u64, u64)| (n as f64 / OPS as f64, b as f64 / OPS as f64);
    let (read_n, read_b) = per_op(read);
    let (write_n, write_b) = per_op(write);
    println!("per READ: {read_n:.1} allocations, {read_b:.0} B");
    println!("per WRITE: {write_n:.1} allocations, {write_b:.0} B");
    assert!(read_n <= 6.5, "a READ made {read_n:.1} allocations");
    assert!(write_n <= 9.6, "a WRITE made {write_n:.1} allocations");
    assert!(read_b <= 750.0, "a READ allocated {read_b:.0} B");
    assert!(write_b <= 2_120.0, "a WRITE allocated {write_b:.0} B");
}
