//! Heap growth of one unit, counted by the global allocator.
//!
//! The process's resident set is mostly the benchmark's own inputs and
//! rank oracle, so it cannot show what the sketch allocates. This
//! allocator forwards every call to `System` and, while armed, keeps the
//! bytes allocated minus the bytes freed, and their peak. Counting is
//! armed only around the measured unit; the timed units pay one
//! predictable branch per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

pub struct CountingAlloc;

// The three counters publish no other data, so every access is Relaxed.
// Threads the measured code spawns see `ARMED` through the spawn, and the
// code joins them before `peak_growth` reads the peak.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting was armed; negative
/// when the measured code frees memory allocated before.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The highest `LIVE` since counting was armed.
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(delta: isize) {
    if ARMED.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result unchanged, so `System` upholds the `GlobalAlloc`
// contract; the counters only observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass on to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(signed(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(signed(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // that is from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass on to `System`, which allocated `ptr`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            count(signed(new_size) - signed(layout.size()));
        }
        new
    }
}

/// Run `f` and return its result with the peak growth of the heap, in
/// bytes, over the run: allocations of every thread, net of frees.
pub fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    (out, u64::try_from(PEAK.load(Relaxed)).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_live_bytes_net_of_frees() {
        // 1 GiB dwarfs what other test threads allocate meanwhile; zeroed
        // allocations this large are mapped lazily, so it stays virtual.
        const GIB: usize = 1 << 30;
        let (v, peak) = peak_growth(|| {
            drop(vec![0u8; GIB]);
            vec![0u8; GIB]
        });
        assert_eq!(v.len(), GIB);
        assert!(peak >= GIB as u64, "{peak}");
        assert!(peak < GIB as u64 * 3 / 2, "the freed block counted: {peak}");
    }
}
