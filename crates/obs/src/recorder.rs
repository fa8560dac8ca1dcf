//! The recorder trait and the cheap shared handle the instrumented crates
//! hold (disabled by default).

use std::fmt;
use std::sync::Arc;

use crate::key::Key;
use crate::timer::ScopedTimer;

/// A metrics sink.
///
/// Three instrument kinds cover the stack's needs:
///
/// * **counters** — monotone event tallies (collapses, batches, stalls),
/// * **gauges** — last-write-wins instantaneous values (current sampling
///   rate, queue depth, ε-audit headroom),
/// * **histograms** — value distributions, fed with raw `u64` samples
///   (latencies in nanoseconds, batch sizes).
///
/// Implementations must be thread-safe: the sharded pipeline updates one
/// recorder from every worker concurrently.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Add `delta` to the counter `key`.
    fn counter_add(&self, key: Key, delta: u64);
    /// Set the gauge `key` to `value`.
    fn gauge_set(&self, key: Key, value: f64);
    /// Record one `value` sample into the histogram `key`.
    fn histogram_record(&self, key: Key, value: u64);
}

/// The handle instrumented code holds: either disabled (`None`, the
/// default — every call is one predictable branch) or a shared reference
/// to a live [`Recorder`].
///
/// Cloning is cheap (an `Option<Arc>` clone), so the handle travels freely
/// into the sharded pipeline's worker threads.
#[derive(Clone, Debug, Default)]
pub struct MetricsHandle {
    inner: Option<Arc<dyn Recorder>>,
}

impl MetricsHandle {
    /// The disabled handle: all metric calls compile to a `None` check.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle delivering to `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Self {
            inner: Some(recorder),
        }
    }

    /// True when a recorder is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to the counter `key` (no-op when disabled).
    #[inline]
    pub fn counter_add(&self, key: Key, delta: u64) {
        if let Some(r) = &self.inner {
            r.counter_add(key, delta);
        }
    }

    /// Set the gauge `key` (no-op when disabled).
    #[inline]
    pub fn gauge_set(&self, key: Key, value: f64) {
        if let Some(r) = &self.inner {
            r.gauge_set(key, value);
        }
    }

    /// Record a histogram sample (no-op when disabled).
    #[inline]
    pub fn histogram_record(&self, key: Key, value: u64) {
        if let Some(r) = &self.inner {
            r.histogram_record(key, value);
        }
    }

    /// Start a scoped timer that records elapsed nanoseconds into the
    /// histogram `key` on drop. When disabled, no clock is read at all.
    #[inline]
    pub fn timer(&self, key: Key) -> ScopedTimer<'_> {
        ScopedTimer::start(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_ignores_everything() {
        let h = MetricsHandle::disabled();
        assert!(!h.is_enabled());
        h.counter_add(Key::new("c"), 1);
        h.gauge_set(Key::new("g"), 1.0);
        h.histogram_record(Key::new("h"), 1);
        drop(h.timer(Key::new("t")));
    }
}
