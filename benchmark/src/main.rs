//! The benchmark of the unknown-N sketch: five workloads, end-to-end
//! metrics from untraced runs and a per-layer table from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run --workload <name> --seed <u64> --seconds <n> [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     compare <base_dir> <head_dir>
//! ```
//!
//! `run` prints a `{"meta": ...}` line describing the run, then, as its
//! last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer table with
//! `--trace 1`. `compare` judges two directories of saved `run` outputs
//! (see `compare.rs`). The workloads, metrics, bounds and run length are
//! listed in `BENCHMARK.json` at the repository root; `--seconds` takes
//! its `run_seconds`.

mod compare;
mod fold;
mod heap;
mod speed;
mod stats;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mrl_analysis::{simulate_schedule, SimOptions};
use mrl_core::{UnknownN, UnknownNConfig};
use mrl_obs::{EventJournal, JournalHandle};
use mrl_sampling::{rng_from_seed, BlockSampler};
use serde::Value;

use crate::fold::LayerFold;
use crate::speed::SpeedProbe;
use crate::stats::{median, percentile, supported_tail};
use crate::workload::{
    Inputs, LatencyOp, Runner, Samples, UnitEnd, Workload, CHUNK, DELTA, EPSILON, PHIS,
};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Cold constructions timed per run for `setup_s`: one in this process,
/// the rest in fresh child processes, since `UnknownN::new` caches its
/// schedule replays process-wide.
const SETUP_REPEATS: usize = 3;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

const USAGE: &str = "usage:
  benchmark run --workload <bulk|groups|groups_runs|online|sharded_1> --seed <u64> \
--seconds <n> [--trace 0|1]
  benchmark compare <base_dir> <head_dir>   (reads ./BENCHMARK.json)
  benchmark setup   (times one cold UnknownN::new; used by run)";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required (BENCHMARK.json's run_seconds)")?,
        trace,
    })
}

fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("refusing to measure a debug build; build with --release".into())
    } else {
        Ok(())
    }
}

/// Seconds one cold `UnknownN::new(ε, δ)` takes, measured in a child
/// process so that nothing is cached.
fn setup_in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("setup")
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("set-up child printed {text:?}: {e}"))
}

fn time_setup() -> (f64, UnknownNConfig) {
    let started = Instant::now();
    let sketch = UnknownN::<u64>::new(EPSILON, DELTA);
    (started.elapsed().as_secs_f64(), sketch.config().clone())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn float(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { 0.0 })
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Run one unit before timing starts, with the heap counted: warms the
/// caches and measures the unit's peak heap growth in KiB. Its answers
/// are checked; its timings are dropped.
fn warm_up(runner: &Runner, samples: &mut Samples) -> f64 {
    let (_, bytes) = heap::peak_growth(|| runner.run_unit(0, &JournalHandle::disabled(), samples));
    samples.discard_timings();
    bytes as f64 / 1024.0
}

/// Run units until `seconds` have passed (at least one), untraced, each
/// followed by its share of speed probes.
fn untraced(runner: &Runner, seconds: u64, samples: &mut Samples, probe: &mut SpeedProbe) -> u64 {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut unit = 0;
    while unit == 0 || started.elapsed() < budget {
        let end = runner.run_unit(unit, &JournalHandle::disabled(), samples);
        probe.keep_pace(end.wall);
        unit += 1;
    }
    unit
}

/// Run each unit twice, detached and with a fresh journal attached, in
/// alternating order, until `seconds` have passed. Returns the fold, the
/// per-pair tracing overheads in percent, and the last traced unit.
fn traced(runner: &Runner, seconds: u64, samples: &mut Samples) -> (LayerFold, Vec<f64>, UnitEnd) {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut fold = LayerFold::default();
    let mut overheads = Vec::new();
    let mut unit = 0;
    loop {
        let journal = Arc::new(EventJournal::with_capacity(
            runner.workload.journal_capacity(),
        ));
        let attached = JournalHandle::new(Arc::clone(&journal));
        let detached = JournalHandle::disabled();
        let (plain, end) = if unit % 2 == 0 {
            let plain = runner.run_unit(unit, &detached, samples);
            (plain, runner.run_unit(unit, &attached, samples))
        } else {
            let end = runner.run_unit(unit, &attached, samples);
            (runner.run_unit(unit, &detached, samples), end)
        };
        fold.absorb(&journal);
        overheads.push(100.0 * (end.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0));
        unit += 1;
        if started.elapsed() >= budget {
            return (fold, overheads, end);
        }
    }
}

/// Nanoseconds per block of `BlockSampler::offer_slice` over `data` at
/// `rate`, median of three passes.
fn sampler_ns_per_block(data: &[u64], rate: u64) -> f64 {
    let blocks = data.len() as f64 / rate as f64;
    let times: Vec<f64> = (0..3)
        .map(|pass| {
            let mut rng = rng_from_seed(pass);
            let mut sampler = BlockSampler::new(rate);
            let mut sum = 0u64;
            let started = Instant::now();
            for chunk in data.chunks(CHUNK) {
                sampler.offer_slice(chunk, &mut rng, &mut |v| sum = sum.wrapping_add(v));
            }
            let ns = started.elapsed().as_nanos() as f64;
            std::hint::black_box(sum);
            ns / blocks
        })
        .collect();
    median(&times)
}

/// Milliseconds of one `simulate_schedule(b, h)`, median of five.
fn replay_ms(config: &UnknownNConfig) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(simulate_schedule(config.b, config.h, SimOptions::default()));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The end-to-end metrics of an untraced run: medians over the run's
/// samples, and p99 of the workload's latency operation, with timings
/// taken to the reference speed (see `speed.rs`).
fn end_to_end(
    setup: &[f64],
    samples: &Samples,
    op: LatencyOp,
    heap_kib: f64,
    slowdown: f64,
) -> Vec<Metric> {
    let latency = samples.latency_us(op);
    let time = |t: f64| t / slowdown;
    vec![
        Metric::new("setup_s", time(median(setup)), "s"),
        Metric::new(
            "ingest_melem_s",
            median(&samples.ingest_melem_s) * slowdown,
            "Melem/s",
        ),
        Metric::new("latency_p50_us", time(median(latency)), "us"),
        Metric::new("latency_p99_us", time(percentile(latency, 0.99)), "us"),
        Metric::new("cached_query_ns", time(median(&samples.cached_ns)), "ns"),
        Metric::new("unit_heap_kib", heap_kib, "KiB"),
    ]
}

/// The per-layer table: the journal fold plus the layers timed directly
/// and the last traced sketch's accounting.
fn per_layer(
    fold: &LayerFold,
    config: &UnknownNConfig,
    data: &[u64],
    last: &UnitEnd,
    worst_error: f64,
    overheads: &[f64],
) -> Vec<Metric> {
    let mut m = vec![
        Metric::new("optimizer.replay_ms", replay_ms(config), "ms"),
        Metric::new(
            "sampler.ns_per_block",
            sampler_ns_per_block(data, fold.final_rate()),
            "ns",
        ),
    ];
    m.extend(fold.metrics());
    m.extend([
        Metric::new("core.onset_n", last.onset_n as f64, "elem"),
        Metric::new("core.leaves", last.leaves as f64, "count/sketch"),
        Metric::new("core.collapses", last.collapses as f64, "count/sketch"),
        Metric::new("core.eps_headroom", last.headroom, "ratio"),
        Metric::new("core.rank_err_max", worst_error, "ratio"),
        Metric::new("trace.overhead_pct", median(overheads), "%"),
    ]);
    m
}

fn run(args: &RunArgs) -> Result<(), String> {
    refuse_debug_build()?;
    let started_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let mut probe = SpeedProbe::new();
    let (first, config) = time_setup();
    let mut setup = vec![first];
    // Traced runs do not report set-up time.
    if !args.trace {
        for _ in 1..SETUP_REPEATS {
            setup.push(setup_in_child()?);
        }
        probe.keep_pace(Duration::from_secs_f64(setup.iter().sum()));
    }

    let params = args.workload.params();
    let inputs = Inputs::generate(args.workload, &params, args.seed);
    let runner = Runner {
        workload: args.workload,
        params,
        inputs: &inputs,
        config: &config,
        seed: args.seed,
    };
    let mut samples = Samples::with_room_for_one_unit(&runner.params);
    let (units, metrics) = if args.trace {
        let (fold, overheads, last) = traced(&runner, args.seconds, &mut samples);
        if fold.lost > 0 {
            return Err(format!("the journal lost {} events", fold.lost));
        }
        let m = per_layer(
            &fold,
            &config,
            &inputs.data,
            &last,
            samples.worst_error,
            &overheads,
        );
        (overheads.len(), m)
    } else {
        let heap_kib = warm_up(&runner, &mut samples);
        let units = untraced(&runner, args.seconds, &mut samples, &mut probe);
        let op = args.workload.latency_op();
        let m = end_to_end(&setup, &samples, op, heap_kib, probe.slowdown());
        (units as usize, m)
    };

    // Sample count, quartiles and the highest tail with ten samples
    // beyond it.
    let summary = |values: &[f64]| {
        let mut fields = vec![
            ("n".to_string(), Value::Int(values.len() as i128)),
            ("p25".to_string(), float(percentile(values, 0.25))),
            ("p50".to_string(), float(median(values))),
            ("p75".to_string(), float(percentile(values, 0.75))),
        ];
        fields.extend(supported_tail(values).map(|(label, v)| (label.to_string(), float(v))));
        Value::Object(fields)
    };
    let p = &runner.params;
    let meta = object(vec![(
        "meta",
        object(vec![
            ("workload", Value::Str(args.workload.name().into())),
            (
                "latency_op",
                Value::Str(args.workload.latency_op().name().into()),
            ),
            ("seed", Value::Int(args.seed.into())),
            ("seconds", Value::Int(args.seconds.into())),
            ("trace", Value::Int(i128::from(u8::from(args.trace)))),
            ("units", Value::Int(units as i128)),
            ("started_unix_ms", Value::Int(started_unix_ms.into())),
            (
                "commit",
                Value::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
            ),
            ("rustc", Value::Str(command_line("rustc", &["--version"]))),
            (
                "nproc",
                Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128),
            ),
            ("profile", Value::Str("release".into())),
            (
                "config",
                object(vec![
                    ("b", Value::Int(config.b as i128)),
                    ("k", Value::Int(config.k as i128)),
                    ("h", Value::Int(config.h.into())),
                    ("alpha", float(config.alpha)),
                    ("epsilon", float(EPSILON)),
                    ("delta", float(DELTA)),
                ]),
            ),
            (
                "params",
                object(vec![
                    ("buffer_len", Value::Int(p.buffer_len as i128)),
                    ("unit_len", Value::Int(p.unit_len.into())),
                    ("segment", Value::Int(p.segment.into())),
                    ("query_every", Value::Int(p.query_every.into())),
                    ("cached_every", Value::Int(p.cached_every.into())),
                    ("chunk", Value::Int(CHUNK as i128)),
                    (
                        "phis",
                        Value::Array(PHIS.iter().map(|&f| float(f)).collect()),
                    ),
                ]),
            ),
            (
                "setup_runs_s",
                Value::Array(setup.iter().map(|&s| float(s)).collect()),
            ),
            ("probe_ref_ns", float(speed::PROBE_REF_NS)),
            (
                "samples",
                object(vec![
                    ("probe_ns", summary(&probe.times_ns)),
                    ("ingest_melem_s", summary(&samples.ingest_melem_s)),
                    ("segment_us", summary(&samples.segment_us)),
                    ("unit_us", summary(&samples.unit_us)),
                    ("query_us", summary(&samples.query_us)),
                    ("cached_query_ns", summary(&samples.cached_ns)),
                ]),
            ),
        ]),
    )]);
    let result = object(vec![
        (
            "correct",
            Value::Bool(samples.failed == 0 && samples.checked > 0),
        ),
        ("attempted", Value::Int(samples.checked.into())),
        ("failed", Value::Int(samples.failed.into())),
        (
            "metrics",
            Value::Object(
                metrics
                    .into_iter()
                    .map(|m| {
                        (
                            m.name,
                            object(vec![
                                ("value", float(m.value)),
                                ("unit", Value::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let render = |v: &Value| serde_json::to_string(v).map_err(|e| e.to_string());
    println!("{}", render(&meta)?);
    println!("{}", render(&result)?);
    Ok(())
}

fn compare_dirs(args: &[String]) -> Result<bool, String> {
    let [base, head] = args else {
        return Err("compare takes <base_dir> <head_dir>".into());
    };
    let specs = compare::load_spec(Path::new("BENCHMARK.json"))?;
    let rows = compare::compare(Path::new(base), Path::new(head), &specs)?;
    for row in &rows {
        println!("{row}");
    }
    let count = |v: compare::Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let regressed = count(compare::Verdict::Regressed);
    println!(
        "regressed {regressed}, improved {}, unresolved {}, unchanged {}",
        count(compare::Verdict::Improved),
        count(compare::Verdict::Unresolved),
        count(compare::Verdict::Unchanged)
    );
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..])
            .and_then(|a| run(&a))
            .map(|()| true),
        Some("setup") => refuse_debug_build().map(|()| {
            println!("{}", time_setup().0);
            true
        }),
        Some("compare") => compare_dirs(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Value::Array(items)) = spec.get(section) else {
            panic!("no {section}");
        };
        items
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("bad name {other:?}"),
            })
            .collect()
    }

    #[test]
    fn run_arguments_parse_and_reject_garbage() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_run_args(&args("--workload online --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Online, 9, 3, true)
        );
        assert!(parse_run_args(&args("--workload hit --seed 1 --seconds 3")).is_err());
        assert!(parse_run_args(&args("--workload bulk --seconds 3")).is_err());
        assert!(parse_run_args(&args("--workload bulk --seed 1")).is_err());
        assert!(parse_run_args(&args("--workload bulk --seed 1 --seconds 3 --trace 2")).is_err());
    }

    /// The `[profile.release]` settings of a manifest, comments dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(manifest);
        let text = std::fs::read_to_string(path).unwrap();
        text.lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .map(str::trim)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    }

    #[test]
    fn release_profile_matches_the_repository() {
        let own = release_profile("Cargo.toml");
        assert!(!own.is_empty());
        assert_eq!(own, release_profile("../Cargo.toml"));
    }

    fn names_of(metrics: Vec<Metric>) -> Vec<String> {
        metrics.into_iter().map(|m| m.name).collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let e2e = end_to_end(&[1.0], &Samples::default(), LatencyOp::Query, 1.0, 1.0);
        assert_eq!(names_of(e2e), names("end_to_end"));
        let last = UnitEnd {
            wall: Duration::ZERO,
            onset_n: 0,
            leaves: 0,
            collapses: 0,
            headroom: 0.0,
        };
        let table = per_layer(
            &LayerFold::default(),
            &workload::tests::config(),
            &[0; CHUNK],
            &last,
            0.0,
            &[0.0],
        );
        let mut emitted = names_of(table);
        let mut listed = names("per_layer");
        emitted.sort();
        listed.sort();
        assert_eq!(emitted, listed);
        let workloads = names("workloads");
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }
}
