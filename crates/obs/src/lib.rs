//! Observability for the MRL quantile stack: counters, gauges, histograms
//! and scoped timers behind a pluggable [`Recorder`] trait.
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** Every instrumented crate holds a
//!    [`MetricsHandle`]; the default (disabled) handle is a `None` and each
//!    metric call is a single predictable branch that the optimiser folds
//!    away. Instrumentation sits on buffer-seal/collapse granularity (once
//!    per `k` elements), never on per-element hot loops.
//! 2. **Lock-free when enabled.** [`InMemoryRecorder`] is a fixed-capacity
//!    open-addressing table of atomic slots: metric updates are a hash, a
//!    CAS-claimed slot lookup, and a `fetch_add`/`store` — no mutex on any
//!    path, safe to share across the sharded pipeline's worker threads.
//! 3. **Exportable.** [`InMemoryRecorder::snapshot`] produces a
//!    [`MetricsSnapshot`] that serialises to one-line JSON (for machine
//!    consumption, e.g. the CLI's `--stats json`) or renders as aligned
//!    text.
//!
//! Alongside the aggregate metrics sits the **flight recorder**
//! ([`EventJournal`] / [`JournalHandle`]): a fixed-capacity, lock-free,
//! per-thread ring of structured lifecycle events (seals, collapses,
//! rate transitions, spine rebuilds, shard dispatch/stalls, spans) with
//! the same disabled-path contract, exportable as chrome-trace JSON
//! ([`export::perfetto`]), rendered on panic ([`install_panic_hook`]),
//! and — for the metrics side — as Prometheus exposition text
//! ([`MetricsSnapshot::to_prometheus`]).
//!
//! The paper connection: the engine already maintains the §4 quantities
//! (`W`, `C`, `Σnᵢ²`, sampling onset) exactly; this crate is the transport
//! that surfaces them — and the derived live ε-audit — while the stream is
//! still running.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod export;
mod journal;
mod key;
mod memory;
mod recorder;
mod snapshot;
mod span;
pub(crate) mod sync;
mod timer;

pub use export::install_panic_hook;
pub use journal::{
    CollapsePath, Event, EventJournal, EventKind, JournalDump, JournalHandle, RingDump, SealKernel,
};
pub use key::Key;
pub use memory::InMemoryRecorder;
pub use recorder::{MetricsHandle, Recorder};
pub use snapshot::{HistogramSummary, MetricsSnapshot};
pub use span::ScopedSpan;
pub use timer::ScopedTimer;
