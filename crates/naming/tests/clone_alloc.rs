//! Proves that cloning and dropping a name allocates nothing.
//!
//! A `Urn` is one shared, immutable allocation, so a clone is a
//! reference-count increment and dropping a clone frees nothing until
//! the last one goes. The binary runs under a counting allocator that
//! attributes allocations to the thread that made them (so the test
//! harness's own threads don't pollute the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ajanta_naming::Urn;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` so a late allocation during thread teardown (after TLS
    // destruction) cannot panic inside the allocator.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        }
    });
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the only addition is a
// thread-local counter bump, which itself never allocates (const-init
// TLS cells).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn cloning_and_dropping_a_name_does_not_allocate() {
    const CLONES: u64 = 10_000;
    let name = Urn::agent("umn.edu", ["shopper", "tour", "42"]).unwrap();

    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    for _ in 0..CLONES {
        drop(std::hint::black_box(name.clone()));
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.with(|a| a.get());

    assert_eq!(
        allocs, 0,
        "{CLONES} clones of a three-segment name allocated {allocs} times"
    );
    assert_eq!(name.to_string(), "ajn://umn.edu/agent/shopper/tour/42");
}
