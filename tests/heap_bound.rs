//! The paper's space bound as a tested heap bound.
//!
//! MRL99 keeps `b·k` elements; for ε = 0.01 and δ = 10⁻⁴ that is
//! 5 × 726 = 3630 `u64`s, 28.4 KiB. This test pins what one `UnknownN`
//! sketch really holds on the heap while it ingests a stream and answers
//! fresh queries, as a multiple of that budget: the peak of live bytes
//! allocated by the test thread, counted by a global allocator. The
//! factor may only tighten, like the alloc-tag budget: a change that
//! shrinks the heap lowers it, and a change that grows it fails here.
//!
//! The test is alone in its binary, so no other test's allocations share
//! the process, and the allocator counts only the calling thread anyway.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mrl::sketch::{UnknownN, UnknownNConfig};

/// Peak live heap over the `b·k·size_of::<u64>()` payload, rounded up
/// to 0.1.
///
/// Measured with rustc 1.95.0 (59807616e 2026-04-14): a peak of
/// 426 664 B, 14.692 × 29 040 B, the same in debug, release and with
/// `invariant-audit`. The count includes what std allocates on the
/// sketch's behalf (vector growth, the `BTreeMap` nodes behind the leaf
/// statistics), so a new toolchain can move it with no change here. A
/// failure right after a toolchain bump is re-measured on that
/// toolchain and compared with 426 664 B, not treated as a regression
/// of the sketch.
const HEAP_FACTOR: f64 = 14.7;

thread_local! {
    // `const`-initialised cells of `Copy` types need no lazy
    // initialisation and no destructor, so reading them inside the
    // allocator allocates nothing.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Add `delta` bytes to the calling thread's live count while it is armed.
fn count(delta: isize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LIVE.try_with(|live| {
                let now = live.get().saturating_add(delta);
                live.set(now);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
            });
        }
    });
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

struct ThreadCounting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result unchanged, so `System` upholds the `GlobalAlloc`
// contract; the counters only observe the sizes.
unsafe impl GlobalAlloc for ThreadCounting {
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

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

/// Run `f` and return its result with the calling thread's peak of live
/// heap bytes over the run, net of what it frees.
fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    let peak = PEAK.with(Cell::get);
    (out, u64::try_from(peak).unwrap_or(0))
}

/// The certified configuration `UnknownN::new(0.01, 1e-4)` picks, fixed so
/// that a debug build skips the optimizer search (whose smaller debug grid
/// would pick another one).
fn config() -> UnknownNConfig {
    UnknownNConfig {
        b: 5,
        k: 726,
        h: 8,
        alpha: 0.606_032_732_925_166_2,
        epsilon: 0.01,
        delta: 1e-4,
        memory: 5 * 726,
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn one_sketch_stays_within_its_heap_factor() {
    const ELEMENTS: usize = 1 << 22;
    const CHUNK: usize = 4096;
    const QUERY_EVERY: usize = 1 << 13;
    const PHIS: [f64; 5] = [0.01, 0.25, 0.5, 0.75, 0.99];
    let config = config();
    let payload = (config.b * config.k * size_of::<u64>()) as u64;
    // Under the invariant auditor, construction memoises a schedule
    // replay in a process-wide cache; fill it before counting, so the
    // bound holds the sketch alone in every build.
    drop(UnknownN::<u64>::from_config(config.clone(), 1));
    // The input chunk is allocated up front: only the sketch is counted.
    let mut chunk = vec![0u64; CHUNK];
    let mut state = 0x5EED;
    let (queries, peak) = peak_live_bytes(|| {
        let mut sketch = UnknownN::<u64>::from_config(config, 7);
        let mut queries = 0;
        for fed in (CHUNK..=ELEMENTS).step_by(CHUNK) {
            chunk.fill_with(|| splitmix64(&mut state));
            sketch.insert_batch(&chunk);
            if fed % QUERY_EVERY == 0 {
                assert!(sketch.query_many(&PHIS).is_some());
                queries += 1;
            }
        }
        queries
    });
    assert_eq!(queries, ELEMENTS / QUERY_EVERY);
    let factor = peak as f64 / payload as f64;
    println!(
        "peak live heap {peak} B = {:.1} KiB = {factor:.3} x b*k*8 ({payload} B)",
        peak as f64 / 1024.0
    );
    assert!(
        factor <= HEAP_FACTOR,
        "peak live heap {peak} B is {factor:.3} x the b*k*8 = {payload} B payload, \
         above the pinned factor {HEAP_FACTOR}"
    );
}
