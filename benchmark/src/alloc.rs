//! Heap accounting for the `mem_peak_mb` metric: a pass-through global
//! allocator that tracks live and peak bytes. Measured in-process, so the
//! benchmark needs no access to `/proc`, and the peak can be taken above
//! the benchmark's own inputs and oracle data once the generator's graph
//! is gone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

// Relaxed throughout: these are statistics and publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static BASE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus live/peak byte counts.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded; the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Start a new peak window at the current live size.
pub fn reset_peak() {
    let live = LIVE.load(Ordering::Relaxed);
    BASE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

/// Highest live heap size since the last [`reset_peak`], above the live
/// size at that reset, in MiB.
#[must_use]
pub fn peak_mib() -> f64 {
    let above = PEAK
        .load(Ordering::Relaxed)
        .saturating_sub(BASE.load(Ordering::Relaxed));
    above as f64 / f64::from(1u32 << 20)
}
