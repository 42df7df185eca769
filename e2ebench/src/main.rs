//! The repository's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <serve_mix|layout_grid> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload on fresh state: threads pinned to one,
//! a private work directory under `.bench_work/` that is removed on every
//! exit path, and inputs made from `--seed`. Every run does the same
//! deterministic work for a given `--seconds` (the work is sized from
//! nominal per-unit costs, not from a clock), checks every output, and
//! prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics of a traced
//! run and writes its spans to `.bench_work/trace-<workload>-<seed>.jsonl`.
//! The exit code is 0 only when every output was correct.

mod golden;
mod grid;
mod host;
mod layers;
mod layout_grid;
mod serve_mix;
mod stats;
mod summary;
mod trace;

use mlc_cache_sim::rng::DetRng;
use mlc_telemetry::json::JsonValue;
use std::process::ExitCode;
use std::time::Instant;
use summary::{RoundLog, METRICS};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["serve_mix", "layout_grid"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The untraced rounds of the timed phase.
    pub rounds: RoundLog,
    /// Units attempted across every checked pass.
    pub attempted: u64,
    /// One message per failed unit.
    pub failures: Vec<String>,
    /// The per-layer metrics (meaningful in traced runs).
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    /// Workload-specific facts for the detail line.
    pub detail: Vec<(&'static str, JsonValue)>,
}

/// Rounds in a run of `seconds`, from the nominal time of one round: at
/// least one. Traced runs alternate untraced and traced rounds, so they
/// make an even number, at least two.
pub fn rounds(seconds: f64, nominal_round_s: f64, traced: bool) -> usize {
    let n = ((seconds / nominal_round_s).round() as usize).max(1);
    if traced {
        n.max(2).next_multiple_of(2)
    } else {
        n
    }
}

/// `xs` in a seed-determined order (Fisher–Yates).
pub fn shuffled<T>(mut xs: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = DetRng::new(seed);
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.range_usize(0, i + 1));
    }
    xs
}

/// Run `setup` and time it.
pub fn timed<S>(setup: impl FnOnce() -> Result<S, String>) -> Result<(S, f64), String> {
    let t0 = Instant::now();
    let s = setup()?;
    Ok((s, t0.elapsed().as_secs_f64()))
}

/// Run the timed work `f` of a round and return its result with its wall
/// time and the peak resident memory while it ran.
pub fn timed_work<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    host::reset_peak_rss();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (out, wall_s, host::peak_rss_mb().unwrap_or(0.0))
}

fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::object(vec![
        ("value", JsonValue::Num(value)),
        ("unit", JsonValue::from(unit)),
    ])
}

/// Run one workload and print its result. `Ok(true)` when every output
/// was correct.
fn run(cfg: &RunConfig) -> Result<bool, String> {
    mlc_core::par::set_thread_override(Some(1));
    let one_arena = host::single_malloc_arena();
    let rss_per_round = host::reset_peak_rss();
    let work = host::WorkDir::create(&cfg.workload).map_err(|e| format!("work dir: {e}"))?;
    let mut tracer = Tracer::new(cfg.trace);
    let out = match cfg.workload.as_str() {
        "serve_mix" => serve_mix::run(cfg, work.path(), &mut tracer)?,
        "layout_grid" => layout_grid::run(cfg, &mut tracer)?,
        w => return Err(format!("unknown workload {w}")),
    };
    let fingerprint = host::fingerprint(
        &cfg.workload,
        cfg.seed,
        (one_arena, rss_per_round),
        work.path(),
    );
    let failed = out.failures.len() as u64;
    for f in out.failures.iter().take(20) {
        eprintln!("e2ebench: FAILED {f}");
    }

    let (summary, tail_pct) = out.rounds.summary().ok_or("no rounds")?;
    let metrics = if cfg.trace {
        out.per_layer
            .iter()
            .map(|&(name, v, unit)| (name, metric(v, unit)))
            .collect()
    } else {
        METRICS
            .iter()
            .zip(summary)
            .map(|(&(name, unit, _), v)| (name, metric(v, unit)))
            .collect()
    };

    let nums = |xs: &[f64]| JsonValue::Array(xs.iter().map(|&x| JsonValue::Num(x)).collect());
    let per_round = out.rounds.per_round();
    let mut detail = vec![
        ("host", fingerprint.clone()),
        ("rounds", JsonValue::from(per_round.len() as u64)),
        ("units", JsonValue::from(out.rounds.units())),
        ("unit_tail_pct", JsonValue::Num(tail_pct)),
        (
            "unit_tail_beyond",
            JsonValue::from(stats::TAIL_BEYOND as u64),
        ),
    ];
    for (k, &(_, _, key)) in METRICS.iter().enumerate() {
        let xs: Vec<f64> = per_round.iter().map(|v| v[k]).collect();
        detail.push((key, nums(&xs)));
    }
    detail.extend([(
        "fail_frac",
        JsonValue::Num(failed as f64 / out.attempted.max(1) as f64),
    )]);
    detail.extend(out.detail);
    println!(
        "{}",
        JsonValue::object(vec![("detail", JsonValue::object(detail))]).to_string_compact()
    );

    if cfg.trace {
        let path = std::path::Path::new(host::WORK_ROOT)
            .join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
        let header = JsonValue::object(vec![
            ("type", JsonValue::from("host")),
            ("host", fingerprint),
        ]);
        std::fs::write(&path, tracer.to_jsonl(header))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("e2ebench: spans written to {}", path.display());
    }

    let correct = failed == 0;
    let result = JsonValue::object(vec![
        ("correct", JsonValue::from(correct)),
        ("attempted", JsonValue::from(out.attempted)),
        ("failed", JsonValue::from(failed)),
        ("metrics", JsonValue::object(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    drop(work);
    Ok(correct)
}

fn main() -> ExitCode {
    let cfg = match RunConfig::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        mlc_core::par::set_thread_override(Some(1));
        let cfg = RunConfig {
            workload: workload.into(),
            seed: 11,
            seconds: 1.0,
            trace,
        };
        let mut t = Tracer::new(trace);
        let work = host::WorkDir::create(&format!("smoke-{workload}-{trace}")).unwrap();
        let out = match workload {
            "serve_mix" => serve_mix::run(&cfg, work.path(), &mut t),
            _ => layout_grid::run(&cfg, &mut t),
        }
        .unwrap();
        assert!(out.attempted > 0);
        assert_eq!(out.failures, Vec::<String>::new());
        let (v, _) = out.rounds.summary().expect("at least one round");
        assert!(v.iter().all(|&x| x > 0.0), "{v:?}");
        out
    }

    /// One test runs every workload in turn: the analytic and layout-search
    /// counters and the thread override are process-wide, so workloads
    /// must not overlap.
    #[test]
    fn smoke_every_workload() {
        let out = smoke("layout_grid", true);
        let get = |n: &str| out.per_layer.iter().find(|m| m.0 == n).unwrap().1;
        assert!(get("layout_search.words_scored") > 0.0);
        assert!(get("trace.accounted_frac") > 0.9);
        smoke("serve_mix", false);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| RunConfig::parse(s.split_whitespace().map(String::from));
        let cfg = parse("--workload serve_mix --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (3, 10.0, true));
        assert!(parse("--workload nope --seed 3 --seconds 10").is_err());
        assert!(parse("--workload serve_mix --seed 3 --seconds 0").is_err());
        assert!(parse("--workload serve_mix --seconds 1").is_err());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let xs: Vec<u32> = (0..48).collect();
        let a = shuffled(xs.clone(), 5);
        assert_eq!(a, shuffled(xs.clone(), 5));
        assert_ne!(a, shuffled(xs.clone(), 6));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, xs);
    }
}
