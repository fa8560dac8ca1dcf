//! The flight recorder: a fixed-capacity, lock-free, per-thread ring
//! buffer of structured lifecycle events.
//!
//! Aggregate counters ([`crate::InMemoryRecorder`]) answer *how much*;
//! the journal answers *which one*: which seal picked the parked-raw
//! kernel, which collapse pulled five sources at level 3, which shard
//! stalled behind a full queue. Each event is a fixed five-word record —
//! one header word (tag + two small fields), one timestamp, three
//! payload words — written into a ring owned by the recording thread,
//! so the write path is a handful of atomic stores with no CAS, no
//! locks, and no allocation after the ring's one-time setup.
//!
//! Design points, mirroring the [`crate::MetricsHandle`] contract:
//!
//! * **Disabled path = one predicted branch.** Instrumented code holds a
//!   [`JournalHandle`]; the default (disabled) handle is a `None`, no
//!   clock is read, no event is encoded.
//! * **Single-writer rings.** A thread claims a ring by CAS on first
//!   use and is its only writer forever after; steady-state recording
//!   is plain stores. Drains (exporters, the panic hook) run on any
//!   thread concurrently with writers.
//! * **Overwrite-oldest drop policy.** The ring never blocks the
//!   recording thread: when full it overwrites the oldest slot and the
//!   drain reports how many events were overwritten. Bounded memory is
//!   the stack's whole premise; the journal follows it.
//! * **Torn reads are detected, not prevented.** A drain copies the
//!   published window, then re-reads the writer's reserve counter: any
//!   slot the writer may have begun overwriting during the copy is
//!   discarded and counted, never decoded. The writer bumps `reserve`
//!   *before* touching a slot's words and each payload store is a
//!   release, so a drain that observes a torn word also observes the
//!   bump that disqualifies the slot.
//!
//! All concurrency primitives come from [`crate::sync`], so
//! `RUSTFLAGS="--cfg loom"` swaps in the vendored model checker and
//! `tests/loom_model.rs` explores writer/drain interleavings directly.

use std::sync::Arc;

use crate::key::Key;
use crate::sync::{AtomicU64, OnceLock, Ordering};
use crate::timer;

/// Words per event slot: header, timestamp, three payload words.
const SLOT_WORDS: usize = 5;

/// Per-thread rings the journal can hand out. A scan of this table is
/// the cost of a thread's *first* event; after that the owning ring is
/// found at its claimed index. 32 covers the sharded pipeline's worker
/// count with room for the driver and drainer threads.
const RINGS: usize = 32;

/// Interned span-name table size; span names are static call sites, of
/// which the stack has a handful.
const NAMES: usize = 64;

/// Default ring capacity (events per thread). Power of two.
#[cfg(not(loom))]
const DEFAULT_CAPACITY: usize = 4096;
/// Under the model checker rings shrink so wraparound and overwrite are
/// reachable within a few scheduling decisions.
#[cfg(loom)]
const DEFAULT_CAPACITY: usize = 2;

/// The sort kernel a buffer seal chose (`DESIGN.md` §3.11–3.12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SealKernel {
    /// The fill arrived as a single ascending run: no sort at all.
    Presorted = 0,
    /// Few runs merged at seal time. The engine no longer emits it (every
    /// unsorted fill is parked raw); the variant keeps its wire code so
    /// older traces still decode.
    RunMerge = 1,
    /// The fill arrived out of order: parked raw for a deferred sort.
    ParkedRaw = 2,
}

impl SealKernel {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::Presorted),
            1 => Some(Self::RunMerge),
            2 => Some(Self::ParkedRaw),
            _ => None,
        }
    }
}

/// Which collapse implementation served a [`EventKind::Collapse`]
/// (`DESIGN.md` §3.6, §3.13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CollapsePath {
    /// Equal-weight concat fast path (no merge walk).
    Concat = 0,
    /// Direct two-source weighted walk.
    TwoSource = 1,
    /// Direct three-source weighted walk.
    ThreeSource = 2,
    /// ≥ 4 sources: pairwise merge tree.
    PairMerge = 3,
}

impl CollapsePath {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::Concat),
            1 => Some(Self::TwoSource),
            2 => Some(Self::ThreeSource),
            3 => Some(Self::PairMerge),
            _ => None,
        }
    }
}

/// One structured lifecycle event. Encodes into five `u64` words; every
/// variant fits (small fields share the header word, up to three wide
/// fields ride the payload words).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A fill buffer was sealed into a leaf.
    BufferSeal {
        /// Level the sealed buffer entered at.
        level: u32,
        /// Sort kernel the seal chose.
        kernel: SealKernel,
        /// Elements sealed (the engine's `k`, or a short final fill).
        k: u64,
        /// Ascending runs in the fill: 1 for a presorted seal, 2 ("at
        /// least two") for a parked one.
        runs: u64,
        /// Wall-clock nanoseconds the seal took.
        dur_ns: u64,
    },
    /// Provenance for the next [`EventKind::Collapse`]: one source
    /// buffer's identity and mass. Emitted once per source, immediately
    /// before its collapse event, from the same thread — so a drain
    /// sees `CollapseSource × n, Collapse` contiguously in FIFO order.
    CollapseSource {
        /// Engine slot index of the source buffer.
        slot: u32,
        /// Level of the source buffer.
        level: u32,
        /// Weight of the source buffer.
        weight: u64,
        /// Elements in the source buffer.
        len: u64,
    },
    /// A collapse of several buffers into one.
    Collapse {
        /// Level of the output buffer.
        output_level: u32,
        /// Number of source buffers.
        sources: u32,
        /// Which collapse implementation ran.
        path: CollapsePath,
        /// Sum of the source weights (= output weight).
        weight_sum: u64,
        /// Wall-clock nanoseconds the collapse took.
        dur_ns: u64,
    },
    /// The sampling rate changed between fills (MRL99 §4 schedule).
    RateTransition {
        /// Rate before the transition.
        from: u64,
        /// Rate after the transition.
        to: u64,
    },
    /// The epoch-cached query spine was rebuilt.
    SpineRebuild {
        /// Ingest epoch the spine was rebuilt at.
        epoch: u64,
        /// Distinct `(value, weight)` pairs materialised.
        pairs: u64,
        /// Wall-clock nanoseconds the rebuild took.
        dur_ns: u64,
    },
    /// The query spine was explicitly invalidated (cache disabled or
    /// state restored), as opposed to lazily aging out by epoch.
    SpineInvalidate {
        /// Ingest epoch at invalidation time.
        epoch: u64,
    },
    /// The sharded pipeline dispatched a batch to a worker.
    ShardDispatch {
        /// Destination shard index.
        shard: u32,
        /// Elements in the dispatched batch.
        len: u64,
        /// Approximate queue depth observed at dispatch.
        depth: u64,
    },
    /// A dispatch found the shard's queue full and blocked.
    ShardStall {
        /// Stalled shard index.
        shard: u32,
        /// Nanoseconds spent blocked.
        dur_ns: u64,
    },
    /// A [`crate::ScopedSpan`] opened. `name` is an interned id;
    /// resolve with [`EventJournal::span_name`].
    SpanBegin {
        /// Interned span-name id.
        name: u32,
    },
    /// A [`crate::ScopedSpan`] closed.
    SpanEnd {
        /// Interned span-name id.
        name: u32,
        /// Nanoseconds between begin and end.
        dur_ns: u64,
    },
}

const TAG_BUFFER_SEAL: u8 = 1;
const TAG_COLLAPSE_SOURCE: u8 = 2;
const TAG_COLLAPSE: u8 = 3;
const TAG_RATE_TRANSITION: u8 = 4;
const TAG_SPINE_REBUILD: u8 = 5;
const TAG_SPINE_INVALIDATE: u8 = 6;
const TAG_SHARD_DISPATCH: u8 = 7;
const TAG_SHARD_STALL: u8 = 8;
const TAG_SPAN_BEGIN: u8 = 9;
const TAG_SPAN_END: u8 = 10;

/// Pack `tag` (8 bits), `f1` (24 bits, saturating) and `f2` (32 bits)
/// into one header word.
fn header(tag: u8, f1: u32, f2: u32) -> u64 {
    let f1 = u64::from(f1.min(0x00ff_ffff));
    (tag as u64) | (f1 << 8) | ((f2 as u64) << 32)
}

impl EventKind {
    /// Encode into `[header, p0, p1, p2]` (the timestamp word is
    /// supplied by the recorder).
    fn encode(&self) -> [u64; 4] {
        match *self {
            Self::BufferSeal {
                level,
                kernel,
                k,
                runs,
                dur_ns,
            } => [
                header(TAG_BUFFER_SEAL, level, kernel as u32),
                dur_ns,
                k,
                runs,
            ],
            Self::CollapseSource {
                slot,
                level,
                weight,
                len,
            } => [header(TAG_COLLAPSE_SOURCE, slot, level), weight, len, 0],
            Self::Collapse {
                output_level,
                sources,
                path,
                weight_sum,
                dur_ns,
            } => [
                header(
                    TAG_COLLAPSE,
                    output_level,
                    (sources & 0x00ff_ffff) | ((path as u32) << 24),
                ),
                dur_ns,
                weight_sum,
                0,
            ],
            Self::RateTransition { from, to } => [header(TAG_RATE_TRANSITION, 0, 0), from, to, 0],
            Self::SpineRebuild {
                epoch,
                pairs,
                dur_ns,
            } => [header(TAG_SPINE_REBUILD, 0, 0), epoch, pairs, dur_ns],
            Self::SpineInvalidate { epoch } => [header(TAG_SPINE_INVALIDATE, 0, 0), epoch, 0, 0],
            Self::ShardDispatch { shard, len, depth } => {
                [header(TAG_SHARD_DISPATCH, shard, 0), len, depth, 0]
            }
            Self::ShardStall { shard, dur_ns } => [header(TAG_SHARD_STALL, shard, 0), dur_ns, 0, 0],
            Self::SpanBegin { name } => [header(TAG_SPAN_BEGIN, name, 0), 0, 0, 0],
            Self::SpanEnd { name, dur_ns } => [header(TAG_SPAN_END, name, 0), dur_ns, 0, 0],
        }
    }

    /// Decode a header + payload back into a variant. `None` for an
    /// unknown tag (a torn or zeroed slot never decodes spuriously:
    /// tag 0 is not assigned).
    fn decode(head: u64, p: [u64; 3]) -> Option<Self> {
        let tag = (head & 0xff) as u8;
        let f1 = ((head >> 8) & 0x00ff_ffff) as u32;
        let f2 = (head >> 32) as u32;
        let [p0, p1, p2] = p;
        match tag {
            TAG_BUFFER_SEAL => Some(Self::BufferSeal {
                level: f1,
                kernel: SealKernel::from_u8(f2 as u8)?,
                k: p1,
                runs: p2,
                dur_ns: p0,
            }),
            TAG_COLLAPSE_SOURCE => Some(Self::CollapseSource {
                slot: f1,
                level: f2,
                weight: p0,
                len: p1,
            }),
            TAG_COLLAPSE => Some(Self::Collapse {
                output_level: f1,
                sources: f2 & 0x00ff_ffff,
                path: CollapsePath::from_u8((f2 >> 24) as u8)?,
                weight_sum: p1,
                dur_ns: p0,
            }),
            TAG_RATE_TRANSITION => Some(Self::RateTransition { from: p0, to: p1 }),
            TAG_SPINE_REBUILD => Some(Self::SpineRebuild {
                epoch: p0,
                pairs: p1,
                dur_ns: p2,
            }),
            TAG_SPINE_INVALIDATE => Some(Self::SpineInvalidate { epoch: p0 }),
            TAG_SHARD_DISPATCH => Some(Self::ShardDispatch {
                shard: f1,
                len: p0,
                depth: p1,
            }),
            TAG_SHARD_STALL => Some(Self::ShardStall {
                shard: f1,
                dur_ns: p0,
            }),
            TAG_SPAN_BEGIN => Some(Self::SpanBegin { name: f1 }),
            TAG_SPAN_END => Some(Self::SpanEnd {
                name: f1,
                dur_ns: p0,
            }),
            _ => None,
        }
    }
}

/// One decoded journal record: a timestamp (nanoseconds since the
/// process-wide clock epoch in [`crate::ScopedTimer`]'s module) plus
/// the structured event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process clock epoch.
    pub ts_ns: u64,
    /// The structured payload.
    pub kind: EventKind,
}

/// One thread's ring. The owner (claiming thread) is the only writer;
/// drains may run on any thread concurrently.
struct Ring {
    /// 0 = unclaimed; otherwise the owning thread's fingerprint.
    owner: AtomicU64,
    /// Optional display name for exporters (`("shard", Some(3))`).
    name: OnceLock<(&'static str, Option<u32>)>,
    /// Monotone count of slots the writer has *started* writing.
    /// Bumped before any slot word is touched.
    reserve: AtomicU64,
    /// Monotone count of slots fully written and readable.
    publish: AtomicU64,
    /// `capacity × SLOT_WORDS` words, allocated lazily by the owner on
    /// its first event so unclaimed rings cost a few counters.
    storage: OnceLock<Box<[AtomicU64]>>,
}

impl Ring {
    fn unclaimed() -> Self {
        Self {
            owner: AtomicU64::new(0),
            name: OnceLock::new(),
            reserve: AtomicU64::new(0),
            publish: AtomicU64::new(0),
            storage: OnceLock::new(),
        }
    }
}

/// An interned span-name slot: claimed by CAS with the name's
/// fingerprint, then the `&'static str` published once.
struct NameSlot {
    fingerprint: AtomicU64,
    name: OnceLock<&'static str>,
}

/// Everything one drain saw in one ring.
#[derive(Clone, Debug)]
pub struct RingDump {
    /// Ring index (stable per thread for the journal's lifetime; used
    /// as the exporter's track/tid).
    pub ring: usize,
    /// Thread display name, if the owner registered one.
    pub thread_name: Option<(&'static str, Option<u32>)>,
    /// Decoded events, oldest first (per-thread FIFO).
    pub events: Vec<Event>,
    /// Events lost to the overwrite-oldest policy before this drain.
    pub overwritten: u64,
    /// Slots discarded by this drain because the writer may have been
    /// overwriting them mid-copy.
    pub torn: u64,
}

/// A point-in-time copy of every ring.
#[derive(Clone, Debug, Default)]
pub struct JournalDump {
    /// Per-ring dumps, in ring-index order; unclaimed rings are absent.
    pub rings: Vec<RingDump>,
    /// Events discarded because every ring was claimed by other
    /// threads (more than `RINGS` (32) concurrent recording threads).
    pub unclaimed_dropped: u64,
}

impl JournalDump {
    /// Total decoded events across all rings.
    pub fn event_count(&self) -> usize {
        self.rings.iter().map(|r| r.events.len()).sum()
    }

    /// Total events lost (overwritten, torn, or unclaimed-thread drops).
    pub fn lost(&self) -> u64 {
        let per_ring: u64 = self
            .rings
            .iter()
            .map(|r| r.overwritten.saturating_add(r.torn))
            .sum();
        per_ring.saturating_add(self.unclaimed_dropped)
    }
}

/// The flight recorder: a table of per-thread single-writer event
/// rings plus a span-name intern table.
///
/// Shared behind an `Arc` via [`JournalHandle`]; recording is
/// lock-free and allocation-free after a ring's one-time setup, and
/// [`EventJournal::drain`] may run on any thread at any time (it is a
/// non-destructive copy — rings keep absorbing events).
pub struct EventJournal {
    rings: Box<[Ring]>,
    names: Box<[NameSlot]>,
    /// Ring capacity in events (power of two).
    capacity: usize,
    /// Events dropped because the ring table was fully claimed.
    unclaimed_dropped: AtomicU64,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity)
            .field("rings", &RINGS)
            .finish()
    }
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::new()
    }
}

fn thread_fingerprint() -> u64 {
    // A process-wide id counter cached in a thread-local: collision-free
    // (unlike hashing the ThreadId) and one TLS read when warm. This is
    // identity allocation, not part of the ring protocol, so it stays on
    // the std atomic even under the loom shim.
    // ordering: relaxed — unique-id allocation, no ordering with ring state
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    thread_local! {
        // ordering: relaxed — unique-id allocation, no ordering with ring state
        static FP: u64 = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    FP.with(|fp| *fp)
}

impl EventJournal {
    /// A journal with the default per-thread capacity
    /// (`DEFAULT_CAPACITY`, 4096 events; shrunk under `cfg(loom)`).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A journal whose rings hold `capacity` events each (rounded up to
    /// a power of two, clamped to `[2, 2^20]`). Storage is allocated
    /// lazily per recording thread.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.clamp(2, 1 << 20).next_power_of_two();
        Self {
            rings: (0..RINGS).map(|_| Ring::unclaimed()).collect(),
            names: (0..NAMES)
                .map(|_| NameSlot {
                    fingerprint: AtomicU64::new(0),
                    name: OnceLock::new(),
                })
                .collect(),
            capacity,
            unclaimed_dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record `kind` stamped with the current time.
    pub fn record(&self, kind: EventKind) {
        self.record_at(timer::now_ns(), kind);
    }

    /// Record `kind` with a caller-supplied timestamp (nanoseconds
    /// since the process clock epoch, i.e. a value derived from
    /// [`JournalHandle::now_ns`]).
    pub fn record_at(&self, ts_ns: u64, kind: EventKind) {
        let Some(ring) = self.ring_for_current_thread() else {
            // ordering: relaxed — independent loss counter, read after drains only
            self.unclaimed_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let [head, e1, e2, e3] = kind.encode();
        self.push_slot(ring, [head, ts_ns, e1, e2, e3]);
    }

    /// Register a display name for the current thread's ring (shown as
    /// the exporter's track name, e.g. `("shard", Some(3))`). First
    /// registration wins.
    pub fn name_current_thread(&self, name: &'static str, label: Option<u32>) {
        if let Some(ring) = self.ring_for_current_thread() {
            let _ = ring.name.set((name, label));
        }
    }

    /// Intern a span name, returning its stable id (see
    /// [`EventJournal::span_name`]). Returns 0 — a valid, shared
    /// "unknown" id — when the intern table is full.
    pub fn intern(&self, name: &'static str) -> u32 {
        let fp = Key::new(name).fingerprint();
        let mask = NAMES - 1;
        let mut idx = fp as usize & mask;
        for _ in 0..NAMES {
            // idx is always masked by NAMES - 1 and names holds exactly
            // NAMES entries (NAMES is a power of two), so the indexing
            // below is in bounds by construction.
            let slot = &self.names[idx];
            match slot
                .fingerprint
                // ordering: acqrel — release publishes the claim, acquire on failure observes a winner's
                .compare_exchange(0, fp, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    let _ = slot.name.set(name);
                    return idx as u32 + 1;
                }
                Err(existing) if existing == fp => {
                    // Same fingerprint: either the same static name or a
                    // 64-bit FNV collision between a handful of call
                    // sites — accept the slot.
                    return idx as u32 + 1;
                }
                Err(_) => {}
            }
            idx = (idx + 1) & mask;
        }
        0
    }

    /// Resolve an interned span-name id. Id 0 (or a stale id) resolves
    /// to `None`.
    pub fn span_name(&self, id: u32) -> Option<&'static str> {
        let idx = (id as usize).checked_sub(1)?;
        self.names.get(idx)?.name.get().copied()
    }

    /// Events discarded because more than `RINGS` (32) threads recorded
    /// concurrently.
    pub fn unclaimed_dropped(&self) -> u64 {
        // ordering: relaxed — independent loss counter
        self.unclaimed_dropped.load(Ordering::Relaxed)
    }

    /// Find (or claim) the current thread's ring. `None` when every
    /// ring belongs to another thread.
    fn ring_for_current_thread(&self) -> Option<&Ring> {
        let fp = thread_fingerprint();
        for ring in self.rings.iter() {
            // ordering: acquire — pairs with the claim CAS release before trusting ownership
            let owner = ring.owner.load(Ordering::Acquire);
            if owner == fp {
                return Some(ring);
            }
            if owner == 0 {
                match ring
                    .owner
                    // ordering: acqrel — release publishes the claim, acquire on failure observes a winner's
                    .compare_exchange(0, fp, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => return Some(ring),
                    Err(existing) if existing == fp => return Some(ring),
                    Err(_) => {}
                }
            }
        }
        None
    }

    /// Append one encoded event to `ring`. Owner thread only.
    // alloc: the ring's storage is allocated exactly once, on the owning
    // thread's first event; every later call is plain stores into it.
    fn push_slot(&self, ring: &Ring, words: [u64; SLOT_WORDS]) {
        let storage = match ring.storage.get() {
            Some(s) => s,
            None => {
                let boxed: Box<[AtomicU64]> = (0..self.capacity * SLOT_WORDS)
                    .map(|_| AtomicU64::new(0))
                    .collect();
                let _ = ring.storage.set(boxed);
                match ring.storage.get() {
                    Some(s) => s,
                    None => return,
                }
            }
        };
        // ordering: relaxed — the owner thread is the ring's only writer
        let seq = ring.reserve.load(Ordering::Relaxed);
        // ordering: relaxed — the bump only needs to be visible before the
        // payload stores below, and each payload store is a release, which
        // already pins every prior store (this one included) before it: a
        // drain whose acquire load returns a torn payload word synchronizes
        // with that release and therefore observes reserve past the slot.
        // (Loom model-checks exactly this writer/drain race.)
        ring.reserve.store(seq.wrapping_add(1), Ordering::Relaxed);
        let base = (seq as usize & (self.capacity - 1)) * SLOT_WORDS;
        for (i, w) in words.iter().enumerate() {
            // panic-free: base is masked to < capacity and storage holds
            // exactly capacity * SLOT_WORDS words.
            // ordering: release — a drain's acquire load of a torn word
            // synchronizes with this store and therefore sees the
            // reserve bump that disqualifies the slot.
            storage[base + i].store(*w, Ordering::Release);
        }
        // ordering: release — publishes the fully written slot to
        // drains' acquire loads of `publish`.
        ring.publish.store(seq.wrapping_add(1), Ordering::Release);
    }

    /// Copy out every ring's retained events (non-destructive: rings
    /// keep absorbing). Safe to call from any thread at any time,
    /// including inside a panic hook while writers are live.
    pub fn drain(&self) -> JournalDump {
        let mut dump = JournalDump {
            rings: Vec::new(),
            unclaimed_dropped: self.unclaimed_dropped(),
        };
        let cap = self.capacity as u64;
        for (ring_idx, ring) in self.rings.iter().enumerate() {
            // ordering: acquire — pairs with the claim CAS release
            if ring.owner.load(Ordering::Acquire) == 0 {
                continue;
            }
            let Some(storage) = ring.storage.get() else {
                // Claimed but no event published yet.
                continue;
            };
            // ordering: acquire — pairs with the publish release store so
            // every published slot's payload words are visible below.
            let published = ring.publish.load(Ordering::Acquire);
            let start = published.saturating_sub(cap);
            let mut raw: Vec<(u64, [u64; SLOT_WORDS])> =
                Vec::with_capacity((published - start) as usize);
            for seq in start..published {
                let base = (seq as usize & (self.capacity - 1)) * SLOT_WORDS;
                let mut words = [0u64; SLOT_WORDS];
                for (i, w) in words.iter_mut().enumerate() {
                    // panic-free: base is masked to < capacity and
                    // storage holds exactly capacity * SLOT_WORDS words.
                    // ordering: acquire — keeps the reserve re-check
                    // below ordered after these reads, and synchronizes
                    // with a concurrent writer's release store if this
                    // read is torn.
                    *w = storage[base + i].load(Ordering::Acquire);
                }
                raw.push((seq, words));
            }
            // ordering: acquire — any writer that began overwriting a slot
            // we copied bumped reserve before its first payload store, and
            // the acquire loads above synchronize with those release
            // stores; acquire here keeps this re-read ordered after the
            // copy, bounding the trustworthy window.
            let reserve_after = ring.reserve.load(Ordering::Acquire);
            let safe_start = reserve_after.saturating_sub(cap);
            let mut torn = 0u64;
            let mut events = Vec::with_capacity(raw.len());
            for (seq, words) in raw {
                if seq < safe_start {
                    torn += 1;
                    continue;
                }
                let [head, ts_ns, w2, w3, w4] = words;
                if let Some(kind) = EventKind::decode(head, [w2, w3, w4]) {
                    events.push(Event { ts_ns, kind });
                }
            }
            dump.rings.push(RingDump {
                ring: ring_idx,
                thread_name: ring.name.get().copied(),
                events,
                overwritten: start,
                torn,
            });
        }
        dump
    }

    /// Render the most recent `last_n` events (merged across rings,
    /// oldest first) as a plain-text diagnostic block — the payload of
    /// the dump-on-panic hook.
    pub fn diagnostic_report(&self, last_n: usize) -> String {
        use std::fmt::Write as _;
        type Row = (usize, Option<(&'static str, Option<u32>)>, Event);
        let dump = self.drain();
        let mut merged: Vec<Row> = Vec::new();
        for ring in &dump.rings {
            for ev in &ring.events {
                merged.push((ring.ring, ring.thread_name, *ev));
            }
        }
        merged.sort_by_key(|(_, _, ev)| ev.ts_ns);
        let skip = merged.len().saturating_sub(last_n);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== mrl flight recorder: last {} of {} events ({} lost) ===",
            merged.len() - skip,
            merged.len(),
            dump.lost()
        );
        for (ring_idx, name, ev) in merged.iter().skip(skip) {
            let track = match name {
                Some((n, Some(l))) => format!("{n}[{l}]"),
                Some((n, None)) => (*n).to_string(),
                None => format!("ring{ring_idx}"),
            };
            let rendered = match ev.kind {
                EventKind::SpanBegin { name } => {
                    format!(
                        "SpanBegin {{ name: {:?} }}",
                        self.span_name(name).unwrap_or("?")
                    )
                }
                EventKind::SpanEnd { name, dur_ns } => format!(
                    "SpanEnd {{ name: {:?}, dur_ns: {dur_ns} }}",
                    self.span_name(name).unwrap_or("?")
                ),
                other => format!("{other:?}"),
            };
            let _ = writeln!(out, "[{:>12} ns] {track:<12} {rendered}", ev.ts_ns);
        }
        out
    }
}

/// The handle instrumented code holds: either disabled (`None`, the
/// default — every journal call is one predictable branch and no clock
/// is read) or a shared reference to a live [`EventJournal`].
///
/// Cloning is cheap (an `Option<Arc>` clone), so the handle travels
/// freely into the sharded pipeline's worker threads — the same
/// contract as [`crate::MetricsHandle`].
#[derive(Clone, Debug, Default)]
pub struct JournalHandle {
    inner: Option<Arc<EventJournal>>,
}

impl JournalHandle {
    /// The disabled handle: all journal calls compile to a `None` check.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle delivering to `journal`.
    pub fn new(journal: Arc<EventJournal>) -> Self {
        Self {
            inner: Some(journal),
        }
    }

    /// True when a journal is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The attached journal, if any (exporters drain through this).
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.inner.as_ref()
    }

    /// Nanoseconds since the process clock epoch — `None` when
    /// disabled, so callers computing durations never read the clock on
    /// the disabled path.
    #[inline]
    pub fn now_ns(&self) -> Option<u64> {
        if self.inner.is_some() {
            Some(timer::now_ns())
        } else {
            None
        }
    }

    /// Record `kind` stamped with the current time (no-op when
    /// disabled).
    #[inline]
    pub fn record(&self, kind: EventKind) {
        if let Some(j) = &self.inner {
            j.record(kind);
        }
    }

    /// Record `kind` at an explicit timestamp (no-op when disabled).
    #[inline]
    pub fn record_at(&self, ts_ns: u64, kind: EventKind) {
        if let Some(j) = &self.inner {
            j.record_at(ts_ns, kind);
        }
    }

    /// Register a display name for the current thread's event track
    /// (no-op when disabled).
    pub fn name_thread(&self, name: &'static str, label: Option<u32>) {
        if let Some(j) = &self.inner {
            j.name_current_thread(name, label);
        }
    }

    /// Open a scoped span: emits [`EventKind::SpanBegin`] now and
    /// [`EventKind::SpanEnd`] on drop. When disabled, no clock is read
    /// at all.
    #[inline]
    pub fn span(&self, name: &'static str) -> crate::span::ScopedSpan<'_> {
        crate::span::ScopedSpan::begin(self, name)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::BufferSeal {
                level: 3,
                kernel: SealKernel::RunMerge,
                k: 256,
                runs: 7,
                dur_ns: 1234,
            },
            EventKind::CollapseSource {
                slot: 2,
                level: 1,
                weight: 8,
                len: 256,
            },
            EventKind::Collapse {
                output_level: 4,
                sources: 3,
                path: CollapsePath::ThreeSource,
                weight_sum: 24,
                dur_ns: 999,
            },
            EventKind::RateTransition { from: 1, to: 2 },
            EventKind::SpineRebuild {
                epoch: 42,
                pairs: 1280,
                dur_ns: 555,
            },
            EventKind::SpineInvalidate { epoch: 43 },
            EventKind::ShardDispatch {
                shard: 5,
                len: 4096,
                depth: 2,
            },
            EventKind::ShardStall {
                shard: 5,
                dur_ns: 777,
            },
            EventKind::SpanBegin { name: 1 },
            EventKind::SpanEnd {
                name: 1,
                dur_ns: 888,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips_through_encoding() {
        for kind in all_kinds() {
            let enc = kind.encode();
            let back = EventKind::decode(enc[0], [enc[1], enc[2], enc[3]]);
            assert_eq!(back, Some(kind));
        }
    }

    #[test]
    fn zeroed_slot_never_decodes() {
        assert_eq!(EventKind::decode(0, [0, 0, 0]), None);
    }

    #[test]
    fn events_drain_in_fifo_order() {
        let j = EventJournal::with_capacity(64);
        for i in 0..10u64 {
            j.record_at(i, EventKind::RateTransition { from: i, to: i + 1 });
        }
        let dump = j.drain();
        assert_eq!(dump.rings.len(), 1);
        let ring = &dump.rings[0];
        assert_eq!(ring.events.len(), 10);
        assert_eq!(ring.overwritten, 0);
        assert_eq!(ring.torn, 0);
        for (i, ev) in ring.events.iter().enumerate() {
            assert_eq!(ev.ts_ns, i as u64);
            assert_eq!(
                ev.kind,
                EventKind::RateTransition {
                    from: i as u64,
                    to: i as u64 + 1
                }
            );
        }
    }

    #[test]
    fn overwrite_oldest_keeps_the_newest_window() {
        let j = EventJournal::with_capacity(4);
        for i in 0..10u64 {
            j.record_at(i, EventKind::SpineInvalidate { epoch: i });
        }
        let dump = j.drain();
        let ring = &dump.rings[0];
        assert_eq!(ring.events.len(), 4);
        assert_eq!(ring.overwritten, 6);
        let epochs: Vec<u64> = ring
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::SpineInvalidate { epoch } => epoch,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(epochs, vec![6, 7, 8, 9]);
        assert_eq!(dump.lost(), 6);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventJournal::with_capacity(5).capacity(), 8);
        assert_eq!(EventJournal::with_capacity(0).capacity(), 2);
        assert_eq!(EventJournal::with_capacity(4096).capacity(), 4096);
    }

    #[test]
    fn intern_is_stable_and_resolvable() {
        let j = EventJournal::new();
        let a = j.intern("ingest");
        let b = j.intern("drain");
        let a2 = j.intern("ingest");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(j.span_name(a), Some("ingest"));
        assert_eq!(j.span_name(b), Some("drain"));
        assert_eq!(j.span_name(0), None);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = JournalHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(h.now_ns(), None);
        h.record(EventKind::RateTransition { from: 1, to: 2 });
        h.record_at(5, EventKind::SpineInvalidate { epoch: 0 });
        h.name_thread("x", None);
        drop(h.span("quiet"));
        assert!(h.journal().is_none());
    }

    #[test]
    fn enabled_handle_records_and_stamps() {
        let j = Arc::new(EventJournal::with_capacity(16));
        let h = JournalHandle::new(Arc::clone(&j));
        assert!(h.is_enabled());
        h.name_thread("driver", None);
        h.record(EventKind::RateTransition { from: 1, to: 2 });
        let dump = j.drain();
        assert_eq!(dump.event_count(), 1);
        assert_eq!(dump.rings[0].thread_name, Some(("driver", None)));
    }

    #[test]
    fn threads_get_distinct_rings() {
        let j = Arc::new(EventJournal::with_capacity(16));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        j.record_at(i, EventKind::RateTransition { from: t, to: i });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let dump = j.drain();
        assert_eq!(dump.rings.len(), 4);
        for ring in &dump.rings {
            assert_eq!(ring.events.len(), 8);
            // Per-thread FIFO: the `to` payload counts 0..8 in order.
            for (i, ev) in ring.events.iter().enumerate() {
                match ev.kind {
                    EventKind::RateTransition { to, .. } => assert_eq!(to, i as u64),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(dump.unclaimed_dropped, 0);
    }

    #[test]
    fn diagnostic_report_renders_recent_events() {
        let j = EventJournal::with_capacity(16);
        let id = j.intern("ingest");
        j.record_at(1, EventKind::SpanBegin { name: id });
        j.record_at(
            2,
            EventKind::Collapse {
                output_level: 2,
                sources: 3,
                path: CollapsePath::Concat,
                weight_sum: 3,
                dur_ns: 10,
            },
        );
        j.record_at(
            3,
            EventKind::SpanEnd {
                name: id,
                dur_ns: 2,
            },
        );
        let report = j.diagnostic_report(8);
        assert!(report.contains("flight recorder"));
        assert!(report.contains("\"ingest\""));
        assert!(report.contains("Collapse"));
        let only_one = j.diagnostic_report(1);
        assert!(only_one.contains("SpanEnd"));
        assert!(!only_one.contains("Collapse {"));
    }
}
