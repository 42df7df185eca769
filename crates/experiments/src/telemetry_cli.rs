//! Shared `--trace-out` / `--metrics-out` plumbing for the experiment
//! binaries.
//!
//! Every binary accepts two extra flags on top of its own options:
//!
//! ```text
//! --trace-out PATH      # span/event trace as JSONL
//! --metrics-out PATH    # metrics registry as JSON (or CSV if PATH ends in .csv)
//! --cache-dir PATH      # persist simulation results in a content-addressed store
//! --no-cache            # ignore --cache-dir: simulate everything fresh
//! --threads N           # pin the process-wide worker-thread count
//! ```
//!
//! [`TelemetryCli::from_env`] strips the flags from `std::env::args()` before
//! the binary's own parser sees them and hands back a [`Telemetry`] bundle
//! that is enabled iff at least one output was requested. The files are
//! written by [`TelemetryCli::finish`]; as a safety net `Drop` also writes
//! them, so binaries with early-return paths still produce their outputs.
//! A path flag with no value is an error (exit status 2), like a
//! `--threads` with no count.
//!
//! `--cache-dir PATH` opens an `mlc_core::rescache::ResultCache` at PATH
//! and hands it back as [`TelemetryCli::cache`]; the binaries pass it to
//! [`crate::sim::simulate_one`] and friends, so every simulation they run
//! is memoized to disk. The cache is content-addressed and differentially
//! guarded, so results are bitwise identical with and without it (see
//! `docs/CACHING.md`). `--no-cache` wins over `--cache-dir` wherever both
//! appear — handy for overriding a cache baked into a wrapper script. A
//! cache summary goes to stderr (and into `--metrics-out` under
//! `rescache.*`) at exit.
//!
//! `--threads N` pins the process-wide worker-thread count via
//! [`mlc_core::par::set_thread_override`], so the explicit flag beats the
//! `MLC_THREADS` environment variable everywhere [`default_threads`]
//! is consulted — the sweep executors, the padding search's candidate
//! scans, and the `mlc-serve` server's worker pool (which sizes itself
//! from `default_threads` when no explicit worker count is configured).
//! Binaries with their own `--threads` parsing (`sweep_cache`,
//! `optimizer_throughput`) keep it; binaries built on this extractor get
//! the flag for free and must not re-parse it.
//!
//! [`default_threads`]: mlc_core::par::default_threads

use mlc_core::rescache::ResultCache;
use mlc_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Parsed telemetry output options plus the live [`Telemetry`] bundle.
#[derive(Debug, Default)]
pub struct TelemetryCli {
    /// The bundle to thread through instrumented code. Enabled iff the user
    /// asked for at least one output file.
    pub telemetry: Telemetry,
    /// The result cache this invocation opened (if `--cache-dir` was given
    /// and `--no-cache` was not). The binaries pass it to
    /// [`crate::sim::simulate_one`] and friends; [`finish`] reports its
    /// traffic.
    ///
    /// [`finish`]: TelemetryCli::finish
    pub cache: Option<Arc<ResultCache>>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    finished: bool,
}

impl TelemetryCli {
    /// Split `argv` into telemetry flags (consumed here) and everything else
    /// (returned for the binary's own parser). Accepts both `--flag PATH`
    /// and `--flag=PATH` spellings; exits with status 2 when a flag's value
    /// is missing.
    pub fn extract(argv: Vec<String>) -> (Self, Vec<String>) {
        let mut rest = Vec::with_capacity(argv.len());
        let mut trace_out: Option<PathBuf> = None;
        let mut metrics_out: Option<PathBuf> = None;
        let mut cache_dir: Option<PathBuf> = None;
        let mut no_cache = false;
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--trace-out" {
                trace_out = Some(path_value(&mut it, &arg));
            } else if arg == "--metrics-out" {
                metrics_out = Some(path_value(&mut it, &arg));
            } else if arg == "--cache-dir" {
                cache_dir = Some(path_value(&mut it, &arg));
            } else if let Some(v) = arg.strip_prefix("--trace-out=") {
                trace_out = Some(PathBuf::from(v));
            } else if let Some(v) = arg.strip_prefix("--metrics-out=") {
                metrics_out = Some(PathBuf::from(v));
            } else if let Some(v) = arg.strip_prefix("--cache-dir=") {
                cache_dir = Some(PathBuf::from(v));
            } else if arg == "--no-cache" {
                no_cache = true;
            } else if arg == "--threads" {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--threads needs a count");
                    std::process::exit(2);
                });
                apply_threads(&v);
            } else if let Some(v) = arg.strip_prefix("--threads=") {
                apply_threads(v);
            } else {
                rest.push(arg);
            }
        }
        let telemetry = if trace_out.is_some() || metrics_out.is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        // `--no-cache` wins over `--cache-dir`, whatever their order.
        let cache = match (no_cache, cache_dir) {
            (true, _) | (false, None) => None,
            (false, Some(dir)) => match ResultCache::open(&dir) {
                Ok(c) => Some(Arc::new(c)),
                Err(e) => {
                    // A requested-but-unusable cache is a hard error: the
                    // user asked for persistence (sharded CI runs depend
                    // on it), so silently simulating fresh would be worse
                    // than stopping.
                    eprintln!("rescache: cannot open cache dir {}: {e}", dir.display());
                    std::process::exit(1);
                }
            },
        };
        (
            Self {
                telemetry,
                cache,
                trace_out,
                metrics_out,
                finished: false,
            },
            rest,
        )
    }

    /// [`TelemetryCli::extract`] applied to the process arguments. The
    /// returned vector still includes `argv[0]` (the program path).
    pub fn from_env() -> (Self, Vec<String>) {
        Self::extract(std::env::args().collect())
    }

    /// Whether any telemetry output was requested.
    pub fn is_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Write the requested output files. Idempotent: the `Drop` fallback
    /// does nothing after an explicit call.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.finished = true;
        if let Some(cache) = &self.cache {
            let s = cache.stats();
            eprintln!(
                "rescache: {} hits / {} misses ({:.1}% hit rate), {} stores, {} corrupt, {} stale",
                s.hits,
                s.misses,
                100.0 * s.hit_rate(),
                s.stores,
                s.corrupt,
                s.stale
            );
            cache.install_metrics(&mut self.telemetry.metrics, "rescache");
        }
        mlc_core::install_analytic_metrics(&mut self.telemetry.metrics);
        mlc_model::layout::stats::install_metrics(&mut self.telemetry.metrics);
        mlc_core::install_layout_search_metrics(&mut self.telemetry.metrics);
        if let Some(path) = &self.trace_out {
            self.telemetry.write_trace_jsonl(path)?;
            eprintln!("trace written to {}", path.display());
        }
        if let Some(path) = &self.metrics_out {
            if is_csv(path) {
                self.telemetry.write_metrics_csv(path)?;
            } else {
                self.telemetry.write_metrics_json(path)?;
            }
            eprintln!("metrics written to {}", path.display());
        }
        Ok(())
    }
}

impl Drop for TelemetryCli {
    fn drop(&mut self) {
        if !self.finished {
            if let Err(e) = self.finish() {
                eprintln!("telemetry: failed to write output: {e}");
            }
        }
    }
}

/// The path after a `--flag PATH` spelling; a missing path exits with
/// status 2 rather than silently leaving the output off.
fn path_value(it: &mut impl Iterator<Item = String>, flag: &str) -> PathBuf {
    it.next().map(PathBuf::from).unwrap_or_else(|| {
        eprintln!("{flag} needs a path");
        std::process::exit(2);
    })
}

/// Parse and pin a `--threads` value. An explicit flag beats `MLC_THREADS`
/// everywhere `default_threads()` is consulted, including worker pools
/// spun up long after argument parsing (the `mlc-serve` server).
fn apply_threads(value: &str) {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => mlc_core::par::set_thread_override(Some(n)),
        _ => {
            eprintln!("--threads={value:?} is not a positive thread count");
            std::process::exit(2);
        }
    }
}

fn is_csv(path: &Path) -> bool {
    path.extension()
        .map(|e| e.eq_ignore_ascii_case("csv"))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_strips_flags_and_enables() {
        let (t, rest) = TelemetryCli::extract(sv(&[
            "mlc",
            "simulate",
            "--trace-out",
            "t.jsonl",
            "jacobi",
            "--metrics-out=m.json",
            "--opt",
            "pad",
        ]));
        assert!(t.is_enabled());
        assert_eq!(t.trace_out.as_deref(), Some(Path::new("t.jsonl")));
        assert_eq!(t.metrics_out.as_deref(), Some(Path::new("m.json")));
        assert_eq!(rest, sv(&["mlc", "simulate", "jacobi", "--opt", "pad"]));
    }

    #[test]
    fn cache_dir_flag_opens_and_no_cache_wins() {
        let dir =
            std::env::temp_dir().join(format!("mlc-telemetry-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();

        let (t, rest) = TelemetryCli::extract(sv(&["mlc", "--cache-dir", &dir_s, "fig09"]));
        assert_eq!(rest, sv(&["mlc", "fig09"]));
        assert!(t.cache.is_some());
        assert!(dir.is_dir(), "extract must create the cache directory");
        drop(t);

        // --no-cache wins regardless of flag order.
        let (t2, rest2) = TelemetryCli::extract(sv(&[
            "mlc",
            "--no-cache",
            &format!("--cache-dir={dir_s}"),
            "fig09",
        ]));
        assert_eq!(rest2, sv(&["mlc", "fig09"]));
        assert!(t2.cache.is_none());
        drop(t2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_exports_cache_metrics() {
        let dir = std::env::temp_dir().join(format!(
            "mlc-telemetry-cli-cache-metrics-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let metrics_path = std::env::temp_dir().join(format!(
            "mlc-telemetry-cli-cache-metrics-{}.json",
            std::process::id()
        ));
        let (mut t, _) = TelemetryCli::extract(sv(&[
            "mlc",
            "--cache-dir",
            dir.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ]));
        t.finish().unwrap();
        let written = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(written.contains("rescache.hit_rate"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&metrics_path).ok();
    }

    #[test]
    fn threads_flag_is_stripped_and_pins_the_override() {
        // Process-global override: leave it exactly as we found it.
        let prior = mlc_core::par::thread_override();

        let (_t, rest) = TelemetryCli::extract(sv(&["mlc", "--threads", "3", "fig11"]));
        assert_eq!(rest, sv(&["mlc", "fig11"]));
        assert_eq!(mlc_core::par::thread_override(), Some(3));
        assert_eq!(mlc_core::par::default_threads(), 3);

        let (_t, rest) = TelemetryCli::extract(sv(&["mlc", "--threads=5", "fig11"]));
        assert_eq!(rest, sv(&["mlc", "fig11"]));
        assert_eq!(mlc_core::par::thread_override(), Some(5));

        // sweep_scaling's distinct --threads-list flag must pass through
        // untouched for the binary's own parser.
        let (_t, rest) = TelemetryCli::extract(sv(&["mlc", "--threads-list", "1,2,4"]));
        assert_eq!(rest, sv(&["mlc", "--threads-list", "1,2,4"]));

        mlc_core::par::set_thread_override(prior);
    }

    #[test]
    fn no_flags_means_disabled_and_untouched_args() {
        let (mut t, rest) = TelemetryCli::extract(sv(&["mlc", "list"]));
        assert!(!t.is_enabled());
        assert_eq!(rest, sv(&["mlc", "list"]));
        t.finish().unwrap(); // no paths: writes nothing, errors nothing
    }

    #[test]
    fn drop_writes_requested_files() {
        let dir = std::env::temp_dir().join("mlc-telemetry-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("drop.jsonl");
        let metrics = dir.join("drop.csv");
        {
            let (mut t, _) = TelemetryCli::extract(sv(&[
                "x",
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
            ]));
            let s = t.telemetry.tracer.begin("work");
            t.telemetry.tracer.end(s);
            t.telemetry.metrics.count("rows", 3);
            // no explicit finish: Drop writes both files
        }
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("\"work\""));
        assert!(std::fs::read_to_string(&metrics).unwrap().contains("rows"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
