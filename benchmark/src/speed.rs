//! The machine-speed reference of a run.
//!
//! The benchmark runs on machines shared with other tenants, whose load
//! slows every computation of a run alike, by up to 1.5×, for minutes at a
//! time. Medians within a 10-second run cannot remove that. So a run also
//! times a fixed probe, interleaved with its units so that it sees the
//! same load: `sort_unstable` of the same 2^15 values every time, code
//! that no change to the repository touches. The run's timings are
//! reported at the reference speed: divided by the run's slowdown, the
//! probe's first-quartile time over `PROBE_REF_NS`.
//!
//! The first quartile follows the slow drift of the whole machine. The
//! median does not serve: on a loaded host it flips between the speeds
//! of the two vCPUs the probe may land on, which a two-thread workload
//! does not follow.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::percentile;
use crate::workload::splitmix64;

const PROBE_LEN: usize = 1 << 15;
/// Share of the measured time the run spends probing.
const PROBE_SHARE: f64 = 0.05;
/// The probe's first-quartile time on an unloaded 2-vCPU machine of the
/// kind the baseline was measured on (see `BASELINE.md`).
pub const PROBE_REF_NS: f64 = 457_000.0;

pub struct SpeedProbe {
    input: Vec<u64>,
    scratch: Vec<u64>,
    /// Time owed to the probe: `PROBE_SHARE` of the time measured so far,
    /// less the time probed.
    owed: Duration,
    pub times_ns: Vec<f64>,
}

impl SpeedProbe {
    pub fn new() -> Self {
        let mut state = 0x5EED;
        let input: Vec<u64> = (0..PROBE_LEN).map(|_| splitmix64(&mut state)).collect();
        Self {
            scratch: input.clone(),
            input,
            owed: Duration::ZERO,
            times_ns: Vec::new(),
        }
    }

    fn probe(&mut self) -> Duration {
        self.scratch.copy_from_slice(&self.input);
        let started = Instant::now();
        black_box(&mut self.scratch).sort_unstable();
        let took = started.elapsed();
        self.times_ns.push(took.as_nanos() as f64);
        took
    }

    /// Probe until `PROBE_SHARE` of `measured`, time just spent measuring,
    /// has been spent probing (at least once over a run).
    pub fn keep_pace(&mut self, measured: Duration) {
        self.owed += measured.mul_f64(PROBE_SHARE);
        while !self.owed.is_zero() || self.times_ns.is_empty() {
            let took = self.probe();
            self.owed = self.owed.saturating_sub(took);
        }
    }

    /// The run's time over the reference time: above 1 when the machine
    /// ran slower than the reference.
    pub fn slowdown(&self) -> f64 {
        percentile(&self.times_ns, 0.25) / PROBE_REF_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probing_keeps_pace_with_the_measured_time() {
        let mut p = SpeedProbe::new();
        p.keep_pace(Duration::ZERO);
        assert_eq!(p.times_ns.len(), 1, "one probe at least");
        let measured = Duration::from_millis(400);
        let started = Instant::now();
        p.keep_pace(measured);
        let probed = started.elapsed();
        assert!(probed >= measured.mul_f64(PROBE_SHARE), "{probed:?}");
        assert!(p.times_ns.len() > 1);
        assert!(p.slowdown() > 0.0);
    }

    #[test]
    fn the_probe_sorts_the_same_values_every_time() {
        let mut p = SpeedProbe::new();
        p.probe();
        let first = p.scratch.clone();
        p.probe();
        assert_eq!(p.scratch, first);
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
    }
}
