//! A counting global allocator. The benchmark binary installs it; it
//! forwards every call to the system allocator and, while counting is
//! switched on (traced runs only), tallies allocations process-wide and
//! per thread so a wrapped call can report the allocations it made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide counters, split across cache lines so that threads
/// allocating at once do not contend on one.
#[repr(align(64))]
struct Shard {
    count: AtomicU64,
    bytes: AtomicU64,
}

const SHARDS: usize = 8;
static TOTALS: [Shard; SHARDS] = [const {
    Shard {
        count: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and drop-free, so touching them from inside the
    // allocator never allocates.
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The system allocator plus allocation counters.
pub struct CountingAlloc;

fn note(bytes: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + 1));
    let shard = THREAD_SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    TOTALS[shard].count.fetch_add(1, Ordering::Relaxed);
    TOTALS[shard]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and a const thread-local,
// neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Process-wide `(allocations, bytes)` counted so far.
pub fn totals() -> (u64, u64) {
    TOTALS.iter().fold((0, 0), |(c, b), s| {
        (
            c + s.count.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Allocations counted on the calling thread so far.
pub fn thread_count() -> u64 {
    THREAD_COUNT.try_with(Cell::get).unwrap_or(0)
}
