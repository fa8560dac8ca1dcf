//! Folds the flight-recorder events of traced units into the per-layer
//! table.
//!
//! Each traced unit records into a journal of its own, sized so that no
//! event is overwritten; [`LayerFold::absorb`] drains it once, so every
//! event is counted exactly once. Shares are of the time inside the
//! benchmark's own `ingest` spans (for `sharded_1` that span covers the
//! producer's inserts and `finish`).

use mrl_obs::{CollapsePath, EventJournal, EventKind, SealKernel};

use crate::Metric;

/// The collapse routes reported one by one; `CollapsePath::Scalar` (only
/// built with the `scalar-kernels` feature) counts toward the total only.
const ROUTES: [(CollapsePath, &str); 4] = [
    (CollapsePath::Concat, "concat"),
    (CollapsePath::TwoSource, "two_source"),
    (CollapsePath::ThreeSource, "three_source"),
    (CollapsePath::PairMerge, "pair_merge"),
];

const SEALS: [(SealKernel, &str); 3] = [
    (SealKernel::Presorted, "presorted"),
    (SealKernel::RunMerge, "run_merge"),
    (SealKernel::ParkedRaw, "parked_raw"),
];

/// Events of one kind: how many, their summed duration, and the elements
/// they processed.
#[derive(Clone, Copy, Debug, Default)]
struct Cost {
    count: u64,
    ns: u64,
    elems: u64,
}

impl Cost {
    fn add(&mut self, elems: u64, ns: u64) {
        self.count += 1;
        self.ns += ns;
        self.elems += elems;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[derive(Debug, Default)]
pub struct LayerFold {
    units: u64,
    events: u64,
    pub lost: u64,
    ingest_ns: u64,
    query_ns: u64,
    finish_ns: u64,
    worker_busy_ns: u64,
    seals: [Cost; 3],
    /// Indexed by `CollapsePath as usize`.
    collapses: [Cost; 5],
    ge4_sources: u64,
    spine: Cost,
    dispatches: u64,
    stall_ns: u64,
    final_rate: u64,
}

impl LayerFold {
    /// Drain one traced unit's journal into the table.
    pub fn absorb(&mut self, journal: &EventJournal) {
        let dump = journal.drain();
        self.units += 1;
        self.lost += dump.lost();
        for ring in &dump.rings {
            // `CollapseSource` events precede their `Collapse` on the same
            // ring; their lengths are the collapse's input elements.
            let mut source_elems = 0;
            for event in &ring.events {
                self.events += 1;
                match event.kind {
                    EventKind::BufferSeal {
                        kernel, k, dur_ns, ..
                    } => self.seals[kernel as usize].add(k, dur_ns),
                    EventKind::CollapseSource { len, .. } => source_elems += len,
                    EventKind::Collapse {
                        path,
                        sources,
                        dur_ns,
                        ..
                    } => {
                        self.collapses[path as usize]
                            .add(std::mem::take(&mut source_elems), dur_ns);
                        if sources >= 4 {
                            self.ge4_sources += 1;
                        }
                    }
                    EventKind::SpineRebuild { pairs, dur_ns, .. } => self.spine.add(pairs, dur_ns),
                    EventKind::ShardDispatch { .. } => self.dispatches += 1,
                    EventKind::ShardStall { dur_ns, .. } => self.stall_ns += dur_ns,
                    EventKind::RateTransition { to, .. } => {
                        self.final_rate = self.final_rate.max(to);
                    }
                    EventKind::SpanEnd { name, dur_ns } => {
                        let total = match journal.span_name(name) {
                            Some("ingest") => &mut self.ingest_ns,
                            Some("query") => &mut self.query_ns,
                            Some("finish") => &mut self.finish_ns,
                            Some("shard.batch") => &mut self.worker_busy_ns,
                            _ => continue,
                        };
                        *total += dur_ns;
                    }
                    EventKind::SpanBegin { .. } | EventKind::SpineInvalidate { .. } => {}
                }
            }
        }
    }

    /// The sampling rate the traced sketches ended at (1 if they never
    /// sampled).
    pub fn final_rate(&self) -> u64 {
        self.final_rate.max(1)
    }

    /// The journal-derived rows of the per-layer table.
    pub fn metrics(&self) -> Vec<Metric> {
        let units = self.units as f64;
        let per_unit = |n: u64| ratio(n as f64, units);
        let share = |ns: u64| ratio(100.0 * ns as f64, self.ingest_ns as f64);
        let ns_per_elem = |c: &Cost| ratio(c.ns as f64, c.elems as f64);

        let seal = self.seals.iter().fold(Cost::default(), |a, c| Cost {
            count: a.count + c.count,
            ns: a.ns + c.ns,
            elems: a.elems + c.elems,
        });
        let collapse_ns: u64 = self.collapses.iter().map(|c| c.ns).sum();

        let mut m = vec![
            Metric::new("sampler.blocks", per_unit(seal.elems), "count/sketch"),
            Metric::new(
                "ingest.unattributed_share",
                100.0 - share(seal.ns) - share(collapse_ns),
                "%",
            ),
        ];
        for (kernel, name) in SEALS {
            m.push(Metric::new(
                format!("seal.{name}.count"),
                per_unit(self.seals[kernel as usize].count),
                "count/sketch",
            ));
        }
        m.push(Metric::new("seal.ns_per_elem", ns_per_elem(&seal), "ns"));
        m.push(Metric::new("seal.share", share(seal.ns), "%"));
        for (path, name) in ROUTES {
            let c = &self.collapses[path as usize];
            m.push(Metric::new(
                format!("collapse.{name}.count"),
                per_unit(c.count),
                "count/sketch",
            ));
            m.push(Metric::new(
                format!("collapse.{name}.share"),
                share(c.ns),
                "%",
            ));
            m.push(Metric::new(
                format!("collapse.{name}.ns_per_elem"),
                ns_per_elem(c),
                "ns",
            ));
        }
        m.extend([
            Metric::new(
                "collapse.ge4_sources.count",
                per_unit(self.ge4_sources),
                "count/sketch",
            ),
            Metric::new("collapse.share", share(collapse_ns), "%"),
            Metric::new("spine.rebuilds", per_unit(self.spine.count), "count/sketch"),
            Metric::new(
                "spine.pairs_mean",
                ratio(self.spine.elems as f64, self.spine.count as f64),
                "count",
            ),
            Metric::new(
                "spine.query_share",
                ratio(100.0 * self.spine.ns as f64, self.query_ns as f64),
                "%",
            ),
            Metric::new(
                "pipeline.dispatches",
                per_unit(self.dispatches),
                "count/sketch",
            ),
            Metric::new("pipeline.stall_share", share(self.stall_ns), "%"),
            Metric::new(
                "pipeline.worker_busy_share",
                share(self.worker_busy_ns),
                "%",
            ),
            Metric::new("pipeline.finish_share", share(self.finish_ns), "%"),
            Metric::new("core.final_rate", self.final_rate() as f64, "elem/block"),
            Metric::new("journal.events", per_unit(self.events), "count/sketch"),
            Metric::new("journal.lost", self.lost as f64, "count"),
        ]);
        m
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mrl_obs::JournalHandle;

    use super::*;
    use crate::workload::tests::{config, toy};
    use crate::workload::{Inputs, Runner, Samples, Workload};

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    #[test]
    fn synthetic_events_fold_once_each() {
        let journal = EventJournal::with_capacity(64);
        let ingest = journal.intern("ingest");
        journal.record(EventKind::SpanBegin { name: ingest });
        journal.record(EventKind::BufferSeal {
            level: 0,
            kernel: SealKernel::ParkedRaw,
            k: 100,
            runs: 5,
            dur_ns: 200,
        });
        for len in [100, 100] {
            journal.record(EventKind::CollapseSource {
                slot: 0,
                level: 0,
                weight: 1,
                len,
            });
        }
        journal.record(EventKind::Collapse {
            output_level: 1,
            sources: 2,
            path: CollapsePath::TwoSource,
            weight_sum: 2,
            dur_ns: 400,
        });
        journal.record(EventKind::RateTransition { from: 1, to: 2 });
        journal.record(EventKind::SpanEnd {
            name: ingest,
            dur_ns: 1000,
        });
        let mut fold = LayerFold::default();
        fold.absorb(&journal);
        let m = fold.metrics();
        assert_eq!(value(&m, "sampler.blocks"), 100.0);
        assert_eq!(value(&m, "seal.parked_raw.count"), 1.0);
        assert_eq!(value(&m, "seal.ns_per_elem"), 2.0);
        assert_eq!(value(&m, "seal.share"), 20.0);
        assert_eq!(value(&m, "collapse.two_source.count"), 1.0);
        assert_eq!(value(&m, "collapse.two_source.ns_per_elem"), 2.0);
        assert_eq!(value(&m, "collapse.share"), 40.0);
        assert_eq!(value(&m, "ingest.unattributed_share"), 40.0);
        assert_eq!(value(&m, "core.final_rate"), 2.0);
        assert_eq!(value(&m, "journal.events"), 7.0);
        assert_eq!(value(&m, "journal.lost"), 0.0);
    }

    #[test]
    fn traced_toy_units_lose_nothing_and_shares_add_up() {
        let config = config();
        for w in Workload::ALL {
            let params = toy(w);
            let inputs = Inputs::generate(w, &params, 5);
            let runner = Runner {
                workload: w,
                params,
                inputs: &inputs,
                config: &config,
                seed: 5,
            };
            let mut fold = LayerFold::default();
            let mut samples = Samples::default();
            for unit in 0..2 {
                let journal = Arc::new(EventJournal::with_capacity(w.journal_capacity()));
                runner.run_unit(
                    unit,
                    &JournalHandle::new(Arc::clone(&journal)),
                    &mut samples,
                );
                fold.absorb(&journal);
            }
            let m = fold.metrics();
            let name = w.name();
            assert_eq!(value(&m, "journal.lost"), 0.0, "{name}");
            let unattributed = value(&m, "ingest.unattributed_share");
            let total = unattributed + value(&m, "seal.share") + value(&m, "collapse.share");
            assert!((total - 100.0).abs() < 1e-6, "{name}: {total}");
            assert!(unattributed > -1.0, "{name}: seal + collapse exceed ingest");
            assert!(value(&m, "sampler.blocks") > 0.0, "{name}");
            assert!(value(&m, "spine.query_share") <= 100.0, "{name}");
            let dispatches = value(&m, "pipeline.dispatches");
            assert_eq!(dispatches > 0.0, w == Workload::Sharded1, "{name}");
        }
    }
}
