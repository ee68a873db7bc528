//! Counting `#[global_allocator]` for the steady-state allocation tests.
//!
//! Two scopes:
//!
//! * [`count_this_thread`] counts only the heap operations of the
//!   calling thread. A thread-local "measuring" flag, set for the
//!   duration of the measured closure, is what the allocator checks, so
//!   heap traffic of other threads in the same process never lands in
//!   the window: the test harness's main thread reporting a finished
//!   test and spawning the next one, or the previous test's thread
//!   freeing its thread-locals after it released the serializing lock.
//!   Both were observed in the window under CPU contention.
//! * [`count_all_threads`] counts every thread of the process, for code
//!   that fans out to pool workers. It is only sound in a test binary
//!   whose other threads are idle while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

/// Heap operations of every thread.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALL_DEALLOCS: AtomicU64 = AtomicU64::new(0);
/// Heap operations of threads whose measuring flag is set.
static MEASURED_ALLOCS: AtomicU64 = AtomicU64::new(0);
static MEASURED_DEALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Const-initialized with no destructor, so reading it from inside
    /// the allocator neither allocates nor fails during thread exit.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn record(all: &AtomicU64, measured: &AtomicU64) {
    all.fetch_add(1, Ordering::Relaxed);
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        measured.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(&ALL_ALLOCS, &MEASURED_ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(&ALL_DEALLOCS, &MEASURED_DEALLOCS);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(&ALL_ALLOCS, &MEASURED_ALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap operations seen while `f` runs: `(allocs, deallocs)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapOps {
    pub allocs: u64,
    pub deallocs: u64,
}

fn delta(allocs: &AtomicU64, deallocs: &AtomicU64, f: impl FnOnce()) -> HeapOps {
    let (a0, d0) = (
        allocs.load(Ordering::SeqCst),
        deallocs.load(Ordering::SeqCst),
    );
    f();
    HeapOps {
        allocs: allocs.load(Ordering::SeqCst) - a0,
        deallocs: deallocs.load(Ordering::SeqCst) - d0,
    }
}

/// Heap operations performed by the calling thread while `f` runs.
/// Callers that measure concurrently must still serialize: the measured
/// counters are shared by every thread whose flag is set.
#[allow(dead_code)]
pub fn count_this_thread(f: impl FnOnce()) -> HeapOps {
    MEASURING.with(|m| m.set(true));
    let ops = delta(&MEASURED_ALLOCS, &MEASURED_DEALLOCS, f);
    MEASURING.with(|m| m.set(false));
    ops
}

/// Heap operations performed by every thread while `f` runs.
#[allow(dead_code)]
pub fn count_all_threads(f: impl FnOnce()) -> HeapOps {
    delta(&ALL_ALLOCS, &ALL_DEALLOCS, f)
}
