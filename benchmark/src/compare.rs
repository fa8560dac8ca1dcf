//! `compare <base_dir> <head_dir>`: judges two sets of untraced runs of
//! the benchmark, one per commit, by the end-to-end metrics and bounds of
//! `BENCHMARK.json`.
//!
//! Each directory holds the standard output of runs, one `.json` file per
//! run; other files are ignored.
//! Runs pair up by workload and seed. The two runs of a pair must have the
//! same run length, workload parameters and sketch configuration, and each
//! workload needs at least ten pairs whose order alternates (base first,
//! then head first, ...). Per workload and metric the verdict is:
//! - `improved`: head beats base in at least 9 of 10 pairs and the medians
//!   differ by more than the distance between base's quartiles;
//! - `regressed`: head's median is worse than base's by more than the bound;
//! - `unresolved`: either side's spread (quartile distance over median)
//!   exceeds the bound, unless every head run beats every base run;
//! - `unchanged` otherwise.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use serde::Value;

use crate::stats::{iqr, median, quartiles};

pub const MIN_PAIRS: usize = 10;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unresolved,
    Unchanged,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        })
    }
}

/// Relative spread: quartile distance over the median.
fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        iqr(values) / m.abs()
    }
}

impl MetricSpec {
    fn better(&self, head: f64, base: f64) -> bool {
        if self.lower_is_better {
            head < base
        } else {
            head > base
        }
    }

    /// Pairs in which head beats base; ties count for neither.
    fn wins(&self, pairs: &[(f64, f64)]) -> usize {
        pairs.iter().filter(|&&(b, h)| self.better(h, b)).count()
    }
}

/// The verdict for `(base, head)` value pairs of one metric.
pub fn verdict(pairs: &[(f64, f64)], spec: &MetricSpec) -> Verdict {
    let base: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let head: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (base_med, head_med) = (median(&base), median(&head));
    // Positive when head is better.
    let gain = if spec.lower_is_better {
        base_med - head_med
    } else {
        head_med - base_med
    };
    let wins = spec.wins(pairs);
    let all_better = head
        .iter()
        .all(|&h| base.iter().all(|&b| spec.better(h, b)));
    if wins * 10 >= pairs.len() * 9 && gain > iqr(&base) {
        Verdict::Improved
    } else if -gain > spec.bound * base_med.abs() {
        Verdict::Regressed
    } else if (spread(&base) > spec.bound || spread(&head) > spec.bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// True when, taken in time order, the side that ran first flips from
/// each pair to the next. Each entry is `(base_start, head_start)`.
pub fn alternates(starts: &[(u64, u64)]) -> bool {
    let mut sorted = starts.to_vec();
    sorted.sort_by_key(|&(b, h)| b.min(h));
    sorted
        .windows(2)
        .all(|w| (w[0].0 < w[0].1) != (w[1].0 < w[1].1))
}

/// The end-to-end metrics of a `BENCHMARK.json`.
pub fn load_spec(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Array(metrics)) = spec.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("an end_to_end metric has no name".to_string()),
            };
            let lower_is_better = match m.get("better") {
                Some(Value::Str(s)) if s == "lower" => true,
                Some(Value::Str(s)) if s == "higher" => false,
                _ => return Err(format!("{name}: `better` is neither lower nor higher")),
            };
            let bound = match m.get("bound") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                _ => return Err(format!("{name}: no bound")),
            };
            Ok(MetricSpec {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// The meta fields that must agree between the two runs of a pair.
const SETTINGS: [&str; 3] = ["seconds", "params", "config"];

/// One untraced run, read back from its standard output.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub started_ms: u64,
    /// The run's `SETTINGS`, in that order.
    pub settings: Vec<Option<Value>>,
    pub metrics: BTreeMap<String, f64>,
}

/// Parse a run's output: the `{"meta": ...}` line and the final result
/// line. `Ok(None)` for a traced run.
pub fn parse_run(text: &str) -> Result<Option<RunRecord>, String> {
    let parse = |line: &str| serde_json::from_str::<Value>(line).map_err(|e| e.to_string());
    let meta_line = text
        .lines()
        .find(|l| l.starts_with("{\"meta\""))
        .ok_or("no meta line")?;
    let result_line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let meta = parse(meta_line)?;
    let meta = meta.get("meta").ok_or("meta line without meta")?;
    let int = |key: &str| match meta.get(key) {
        Some(Value::Int(i)) => u64::try_from(*i).map_err(|_| format!("meta.{key} out of range")),
        _ => Err(format!("meta.{key} missing")),
    };
    if int("trace")? != 0 {
        return Ok(None);
    }
    let workload = match meta.get("workload") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err("meta.workload missing".into()),
    };
    let result = parse(result_line)?;
    let Some(Value::Object(fields)) = result.get("metrics") else {
        return Err("result line without metrics".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in fields {
        let value = match m.get("value") {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            _ => return Err(format!("metric {name} has no value")),
        };
        metrics.insert(name.clone(), value);
    }
    Ok(Some(RunRecord {
        workload,
        seed: int("seed")?,
        started_ms: int("started_unix_ms")?,
        settings: SETTINGS.iter().map(|&k| meta.get(k).cloned()).collect(),
        metrics,
    }))
}

fn load_dir(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if !path.is_file() || path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(run) = parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))? {
            runs.push(run);
        }
    }
    Ok(runs)
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: (f64, f64, f64),
    pub head: (f64, f64, f64),
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (bq1, bm, bq3) = self.base;
        let (hq1, hm, hq3) = self.head;
        let change = if bm == 0.0 {
            0.0
        } else {
            100.0 * (hm / bm - 1.0)
        };
        write!(
            f,
            "{:<12} {:<16} base {bm:>12.4} [{bq1:.4}, {bq3:.4}]  head {hm:>12.4} [{hq1:.4}, {hq3:.4}]  \
             {change:+7.2}%  wins {}/{}  {}",
            self.workload, self.metric, self.wins, self.pairs, self.verdict
        )
    }
}

type Pairs<'a> = BTreeMap<&'a str, Vec<(&'a RunRecord, &'a RunRecord)>>;

/// Pair base and head runs by workload and seed, refusing a pair whose
/// runs were made with different settings.
fn pair_up<'a>(base: &'a [RunRecord], head: &'a [RunRecord]) -> Result<Pairs<'a>, String> {
    let mut by_workload = Pairs::new();
    for b in base {
        if let Some(h) = head
            .iter()
            .find(|h| h.workload == b.workload && h.seed == b.seed)
        {
            if let Some(key) = (0..SETTINGS.len()).find(|&i| b.settings[i] != h.settings[i]) {
                return Err(format!(
                    "{} seed {}: base and head differ in meta.{}",
                    b.workload, b.seed, SETTINGS[key]
                ));
            }
            by_workload.entry(&b.workload).or_default().push((b, h));
        }
    }
    if by_workload.is_empty() {
        return Err("no base run has a head run with the same workload and seed".into());
    }
    Ok(by_workload)
}

/// Pair the runs of two directories and judge every workload and
/// end-to-end metric.
pub fn compare(base_dir: &Path, head_dir: &Path, specs: &[MetricSpec]) -> Result<Vec<Row>, String> {
    let base = load_dir(base_dir)?;
    let head = load_dir(head_dir)?;
    let mut rows = Vec::new();
    for (workload, pairs) in pair_up(&base, &head)? {
        if pairs.len() < MIN_PAIRS {
            return Err(format!(
                "{workload}: {} pairs, at least {MIN_PAIRS} needed",
                pairs.len()
            ));
        }
        let starts: Vec<(u64, u64)> = pairs
            .iter()
            .map(|(b, h)| (b.started_ms, h.started_ms))
            .collect();
        if !alternates(&starts) {
            return Err(format!(
                "{workload}: pairs do not alternate which side runs first"
            ));
        }
        for spec in specs {
            let values: Option<Vec<(f64, f64)>> = pairs
                .iter()
                .map(|(b, h)| Some((*b.metrics.get(&spec.name)?, *h.metrics.get(&spec.name)?)))
                .collect();
            let values = values.ok_or_else(|| format!("{workload}: a run lacks {}", spec.name))?;
            let summary = |side: Vec<f64>| {
                let (q1, q3) = quartiles(&side);
                (q1, median(&side), q3)
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: spec.name.clone(),
                base: summary(values.iter().map(|p| p.0).collect()),
                head: summary(values.iter().map(|p| p.1).collect()),
                wins: spec.wins(&values),
                pairs: values.len(),
                verdict: verdict(&values, spec),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    /// Ten values around 100 with about 2% spread.
    fn noisy(center: f64) -> Vec<f64> {
        [0.99, 1.01, 1.0, 0.985, 1.015, 0.995, 1.005, 0.99, 1.01, 1.0]
            .iter()
            .map(|f| f * center)
            .collect()
    }

    fn pairs(base: &[f64], head: &[f64]) -> Vec<(f64, f64)> {
        base.iter().copied().zip(head.iter().copied()).collect()
    }

    #[test]
    fn same_code_is_unchanged() {
        let base = noisy(100.0);
        let mut head = base.clone();
        head.rotate_left(3);
        assert_eq!(
            verdict(&pairs(&base, &head), &spec(true, 0.05)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&pairs(&base, &head), &spec(false, 0.05)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_clear_shift_is_a_gain_or_a_regression() {
        let base = noisy(100.0);
        let faster = noisy(80.0);
        let lower = spec(true, 0.05);
        let higher = spec(false, 0.05);
        assert_eq!(verdict(&pairs(&base, &faster), &lower), Verdict::Improved);
        assert_eq!(verdict(&pairs(&faster, &base), &lower), Verdict::Regressed);
        assert_eq!(verdict(&pairs(&faster, &base), &higher), Verdict::Improved);
        assert_eq!(verdict(&pairs(&base, &faster), &higher), Verdict::Regressed);
    }

    #[test]
    fn a_small_worsening_within_the_bound_is_unchanged() {
        let base = noisy(100.0);
        let slower = noisy(103.0);
        assert_eq!(
            verdict(&pairs(&base, &slower), &spec(true, 0.05)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_gain_needs_nine_of_ten_wins_and_more_than_the_base_spread() {
        let base = noisy(100.0);
        // Every pair wins, but by less than base's quartile distance.
        let head: Vec<f64> = base.iter().map(|b| b - 0.5).collect();
        assert_eq!(
            verdict(&pairs(&base, &head), &spec(true, 0.05)),
            Verdict::Unchanged
        );
        // A large median shift that wins only 8 of 10 pairs.
        let mut head = noisy(80.0);
        head[0] = 150.0;
        head[1] = 150.0;
        assert_ne!(
            verdict(&pairs(&base, &head), &spec(true, 0.05)),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let wide: Vec<f64> = [
            70.0, 130.0, 90.0, 110.0, 100.0, 60.0, 140.0, 95.0, 105.0, 100.0,
        ]
        .to_vec();
        let mut head = wide.clone();
        head.reverse();
        assert_eq!(
            verdict(&pairs(&wide, &head), &spec(true, 0.05)),
            Verdict::Unresolved
        );
        // Unless every head run beats every base run.
        let head: Vec<f64> = wide.iter().map(|v| v - 100.0).collect();
        let base: Vec<f64> = wide.iter().map(|v| v + 100.0).collect();
        assert_eq!(
            verdict(&pairs(&base, &head), &spec(true, 0.01)),
            Verdict::Improved
        );
    }

    #[test]
    fn alternation_is_checked_in_time_order() {
        assert!(alternates(&[(0, 1), (3, 2), (4, 5), (7, 6)]));
        assert!(alternates(&[(7, 6), (0, 1), (4, 5), (3, 2)]));
        assert!(!alternates(&[(0, 1), (2, 3), (5, 4)]));
    }

    /// A saved untraced run of `bulk` with seed 3.
    const RUN: &str = "noise\n{\"meta\": {\"workload\": \"bulk\", \"seed\": 3, \"seconds\": 10, \
                       \"trace\": 0, \"started_unix_ms\": 17, \"params\": {\"segment\": 1}}}\n\
                       {\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": \
                       {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}\n";

    #[test]
    fn run_output_round_trips() {
        let run = parse_run(RUN).unwrap().unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.started_ms),
            ("bulk", 3, 17)
        );
        assert_eq!(run.metrics.get("setup_s"), Some(&1.5));
        assert_eq!(run.settings[0], Some(Value::Int(10)));
        assert_eq!(run.settings[2], None);
        let traced = RUN.replace("\"trace\": 0", "\"trace\": 1");
        assert!(parse_run(&traced).unwrap().is_none());
    }

    #[test]
    fn pairs_made_with_different_settings_are_refused() {
        let run = |text: &str| parse_run(text).unwrap().unwrap();
        let base = [run(RUN)];
        assert_eq!(pair_up(&base, &[run(RUN)]).unwrap()["bulk"].len(), 1);
        let longer = [run(&RUN.replace("\"seconds\": 10", "\"seconds\": 12"))];
        assert!(pair_up(&base, &longer)
            .unwrap_err()
            .contains("meta.seconds"));
        let params = [run(&RUN.replace("\"segment\": 1", "\"segment\": 2"))];
        assert!(pair_up(&base, &params).unwrap_err().contains("meta.params"));
        let other_seed = [run(&RUN.replace("\"seed\": 3", "\"seed\": 4"))];
        assert!(pair_up(&base, &other_seed).is_err());
    }

    #[test]
    fn the_spec_is_read_from_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let specs = load_spec(&path).unwrap();
        let setup = specs.iter().find(|s| s.name == "setup_s").unwrap();
        assert!(setup.lower_is_better);
        assert!(specs
            .iter()
            .all(|s| s.bound > 0.0 && s.bound <= setup.bound));
    }
}
