//! A synthetic transaction costs no heap: its payload is modelled by
//! length, and the empty payload it carries is not allocated.  Creating,
//! cloning and dropping one performs zero allocations.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread only, so the harness's parallel test threads do not count each
//! other's.

use smp_types::{ClientId, ReplicaId, Transaction, TxIdPrefix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_synthetic_transaction_its_clone_and_their_drops_allocate_nothing() {
    let count = allocations(|| {
        let mut tx = Transaction::synthetic(ClientId(3), 7, 128, 1_000);
        tx.mark_received(ReplicaId(1), 1_050);
        let copy = tx.clone();
        assert_eq!(copy, tx);
        drop(tx);
        drop(copy);
    });
    assert_eq!(count, 0);
}

#[test]
fn a_transaction_from_an_id_prefix_allocates_nothing() {
    let ids = TxIdPrefix::new(ClientId(3));
    let count = allocations(|| {
        for seq in 0..64 {
            let tx = Transaction::synthetic_from(&ids, seq, 128, 0);
            assert_eq!(tx, Transaction::synthetic(ClientId(3), seq, 128, 0));
        }
    });
    assert_eq!(count, 0);
}
