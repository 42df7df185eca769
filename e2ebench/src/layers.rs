//! Instrumented calls into the system's layers, and the per-layer metrics
//! of the traced run.
//!
//! Every layer is measured from outside: a span around the call into the
//! module's public function, plus the module's public counters. With the
//! tracer off the helpers reduce to the plain call.

use crate::trace::Tracer;
use mlc_cache_sim::{HierarchyConfig, MissRateReport};
use mlc_core::pipeline::Optimized;
use mlc_core::rescache::CacheStats;
use mlc_core::{AnalyticStats, OptimizeOptions, PadError};
use mlc_model::trace_gen::CompiledNest;
use mlc_model::{DataLayout, Program};
use mlc_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counters gathered while tracing. Everything here is a count of work
/// and repeats exactly between runs of the same seed.
#[derive(Debug, Default)]
pub struct Counts {
    pub optimize_calls: u64,
    pub candidates_scored: u64,
    pub candidates_pruned: u64,
    pub compile_nests: u64,
    pub simulate_calls: u64,
    pub simulate_accesses: u64,
    pub analytic: AnalyticStats,
    pub words_scored: u64,
    pub words_pruned: u64,
    pub rescache: CacheStats,
    pub status_2xx: u64,
    pub status_4xx: u64,
    pub status_5xx: u64,
}

impl Counts {
    /// Add a drained [`mlc_core::take_analytic_stats`] snapshot.
    pub fn add_analytic(&mut self, s: AnalyticStats) {
        let a = &mut self.analytic;
        a.nests_closed += s.nests_closed;
        a.nests_fallback += s.nests_fallback;
        a.accesses_closed += s.accesses_closed;
        if a.fallback_reasons.is_empty() {
            a.fallback_reasons = s.fallback_reasons;
        } else {
            for (mine, (_, v)) in a.fallback_reasons.iter_mut().zip(s.fallback_reasons) {
                mine.1 += v;
            }
        }
    }

    fn fallback(&self, reason: &str) -> u64 {
        self.analytic
            .fallback_reasons
            .iter()
            .find(|(r, _)| *r == reason)
            .map_or(0, |(_, v)| *v)
    }

    /// Count one answer's HTTP status class.
    pub fn status(&mut self, status: u16) {
        match status {
            200..=299 => self.status_2xx += 1,
            400..=499 => self.status_4xx += 1,
            _ => self.status_5xx += 1,
        }
    }
}

/// Compile every nest of `p` under `layout` (the trace compiler the
/// simulators and the server's IR precheck call), inside a `compile` span.
/// Only traced runs make this call: the simulators compile internally, so
/// the probe repeats that work to time it from outside.
pub fn compile_probe(t: &mut Tracer, c: &mut Counts, p: &Program, layout: &DataLayout) {
    if !t.on() {
        return;
    }
    t.span("compile", |_| {
        for nest in &p.nests {
            // Errors are judged by the caller's own precheck; only the
            // cost matters here.
            let _ = std::hint::black_box(CompiledNest::try_new(p, nest, layout));
        }
    });
    c.compile_nests += p.nests.len() as u64;
}

/// One simulation of `p` under `layout`, `warmup` uncounted sweeps then
/// `timed` counted ones, inside a `simulate` span. With `probe`, the span
/// starts with a [`compile_probe`] of the program.
pub fn simulate<E>(
    t: &mut Tracer,
    c: &mut Counts,
    (p, layout): (&Program, &DataLayout),
    (warmup, timed): (u64, u64),
    probe: bool,
    run: impl FnOnce() -> Result<MissRateReport, E>,
) -> Result<MissRateReport, E> {
    t.span("simulate", |t| {
        if probe {
            compile_probe(t, c, p, layout);
        }
        let out = run();
        if let Ok(r) = &out {
            c.simulate_calls += 1;
            c.simulate_accesses += r.total_references / timed * (warmup + timed);
        }
        out
    })
}

/// Why the optimization pipeline produced no result.
#[derive(Debug)]
pub enum OptimizeFailure {
    /// A typed pipeline error.
    Pad(PadError),
    /// A panic, with its message.
    Panic(String),
}

impl std::fmt::Display for OptimizeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeFailure::Pad(e) => write!(f, "{e}"),
            OptimizeFailure::Panic(m) => write!(f, "panicked: {m}"),
        }
    }
}

/// The optimization pipeline inside an `optimize` span, with the padding
/// search's counters read from the pipeline's metrics. A panic is caught
/// inside the span, so the span tree stays well formed.
pub fn optimize(
    t: &mut Tracer,
    c: &mut Counts,
    p: &Program,
    h: &HierarchyConfig,
    options: &OptimizeOptions,
) -> Result<Optimized, OptimizeFailure> {
    t.span("optimize", |_| {
        let mut tel = Telemetry::disabled();
        let out = catch_unwind(AssertUnwindSafe(|| {
            mlc_core::try_optimize_traced(p, h, options, &mut tel)
        }));
        c.optimize_calls += 1;
        c.candidates_scored += tel.metrics.counter("optimizer.pad.positions_scored");
        c.candidates_pruned += tel.metrics.counter("optimizer.search.candidates_pruned");
        match out {
            Ok(Ok(opt)) => Ok(opt),
            Ok(Err(e)) => Err(OptimizeFailure::Pad(e)),
            Err(panic) => Err(OptimizeFailure::Panic(panic_text(panic.as_ref()))),
        }
    })
}

/// The message of a caught panic.
pub fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Summed self time (seconds) of the spans named `name`.
fn self_s(layers: &BTreeMap<&'static str, (f64, f64, u64)>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| l.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Time-based inputs to the per-layer metrics that depend on the
/// workload's unit structure.
#[derive(Debug, Default)]
pub struct Times {
    /// Summed unit time of the traced units (cells, or served requests).
    pub unit_s: f64,
    /// Summed unit time of the same work untraced, for the overhead.
    pub untraced_unit_s: f64,
    /// Summed in-process `mlc_serve::handle` time (serve_mix only).
    pub handle_s: f64,
    /// The time the named layers are meant to account for: the traced
    /// cells on the grids; on serve_mix, the in-process replay of the
    /// handlers' work (parse, precheck, optimize, rescache, simulate).
    pub account_base_s: f64,
}

/// Every `per_layer` metric as `(name, value, unit)`, in the order of
/// `BENCHMARK.json`. Layers a workload does not touch read 0.
pub fn per_layer_metrics(
    t: &Tracer,
    c: &Counts,
    times: &Times,
) -> Vec<(&'static str, f64, &'static str)> {
    let layers = t.layers();
    let optimize_s = self_s(&layers, "optimize");
    let compile_s = self_s(&layers, "compile");
    let simulate_s = self_s(&layers, "simulate");
    let search_s = self_s(&layers, "layout_search");
    let transform_s = self_s(&layers, "transform");
    let parse_s = self_s(&layers, "case.parse");
    let rescache_s = self_s(&layers, "rescache");
    let accounted =
        optimize_s + compile_s + simulate_s + search_s + transform_s + parse_s + rescache_s;
    let lookups = c.rescache.hits + c.rescache.misses;
    let a = &c.analytic;
    vec![
        ("optimize.busy_s", optimize_s, "s"),
        ("optimize.calls", c.optimize_calls as f64, "count"),
        (
            "search.candidates_scored",
            c.candidates_scored as f64,
            "count",
        ),
        (
            "search.candidates_pruned",
            c.candidates_pruned as f64,
            "count",
        ),
        ("compile.busy_s", compile_s, "s"),
        ("compile.nests", c.compile_nests as f64, "count"),
        ("simulate.busy_s", simulate_s, "s"),
        ("simulate.calls", c.simulate_calls as f64, "count"),
        ("simulate.accesses", c.simulate_accesses as f64, "count"),
        (
            "simulate.maccesses_per_s",
            ratio(c.simulate_accesses as f64 / 1e6, simulate_s),
            "Macc/s",
        ),
        ("analytic.nests_closed", a.nests_closed as f64, "count"),
        ("analytic.nests_fallback", a.nests_fallback as f64, "count"),
        (
            "analytic.fallback.interleave",
            c.fallback("interleave") as f64,
            "count",
        ),
        (
            "analytic.fallback.wide_stride",
            c.fallback("wide_stride") as f64,
            "count",
        ),
        (
            "analytic.closed_access_frac",
            ratio(a.accesses_closed as f64, c.simulate_accesses as f64),
            "frac",
        ),
        ("layout_search.frac", ratio(search_s, times.unit_s), "frac"),
        ("layout_search.words_scored", c.words_scored as f64, "count"),
        ("layout_search.words_pruned", c.words_pruned as f64, "count"),
        ("transform.frac", ratio(transform_s, times.unit_s), "frac"),
        ("case.parse_frac", ratio(parse_s, times.unit_s), "frac"),
        ("rescache.hits", c.rescache.hits as f64, "count"),
        ("rescache.misses", c.rescache.misses as f64, "count"),
        ("rescache.stores", c.rescache.stores as f64, "count"),
        ("rescache.coalesced", c.rescache.coalesced as f64, "count"),
        ("rescache.corrupt", c.rescache.corrupt as f64, "count"),
        (
            "rescache.hit_frac",
            ratio(c.rescache.hits as f64, lookups as f64),
            "frac",
        ),
        ("rescache.frac", ratio(rescache_s, times.unit_s), "frac"),
        (
            "serve.transport_frac",
            if times.handle_s > 0.0 {
                1.0 - times.handle_s / times.unit_s
            } else {
                0.0
            },
            "frac",
        ),
        ("serve.status_2xx", c.status_2xx as f64, "count"),
        ("serve.status_4xx", c.status_4xx as f64, "count"),
        ("serve.status_5xx", c.status_5xx as f64, "count"),
        (
            "trace.overhead_frac",
            ratio(times.unit_s, times.untraced_unit_s) - 1.0,
            "frac",
        ),
        (
            "trace.accounted_frac",
            ratio(accounted, times.account_base_s),
            "frac",
        ),
    ]
}
