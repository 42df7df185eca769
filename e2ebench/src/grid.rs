//! The timed phase of a grid workload: rounds of passes over a fixed cell
//! order, one cell per unit, each round checked as soon as it is timed.

use crate::layers::{Counts, Times};
use crate::summary::{Round, RoundLog};
use crate::trace::Tracer;
use crate::{timed, timed_work};
use mlc_core::layout_search::stats as layout_search_stats;
use std::time::Instant;

/// Set-ups per round. A set-up is tens of milliseconds, so it is repeated
/// to give its best more chances than the round count alone.
pub const SETUP_REPS: usize = 4;

/// What the timed phase produced.
pub struct GridRun {
    /// The untraced rounds.
    pub rounds: RoundLog,
    /// Cells computed and checked, untraced and traced.
    pub attempted: u64,
    /// One message per cell that failed its check.
    pub failures: Vec<String>,
    /// Summed unit times of the traced and untraced rounds.
    pub times: Times,
}

/// Run `rounds` rounds of `passes_per_round` passes over the cell order
/// that `setup` makes, timed as the round's set-up. With the tracer on,
/// odd rounds run `traced` inside a `cell` span and feed the counters;
/// even rounds, and every round of an untraced run, call `untraced`, the
/// workload's plain public entry point. Every result is then checked with
/// `check`, outside the timing.
pub fn run<C, R>(
    t: &mut Tracer,
    counts: &mut Counts,
    (rounds, passes_per_round): (usize, usize),
    setup: impl Fn() -> Vec<C>,
    untraced: impl Fn(&C) -> R,
    mut traced: impl FnMut(&mut Tracer, &mut Counts, &C) -> Result<R, String>,
    check: impl Fn(&R) -> Result<(), String>,
) -> Result<GridRun, String> {
    let (mut log, mut attempted, mut failures) = (None, 0u64, Vec::new());
    let mut times = Times::default();
    let mut unit = 0u64;
    for round in 0..rounds {
        let tracing = t.on() && round % 2 == 1;
        mlc_core::take_analytic_stats();
        layout_search_stats::take_stats();
        // Set up SETUP_REPS times; the round's set-up time is the shortest.
        let (mut order, mut setup_s) = timed(|| Ok(setup()))?;
        for _ in 1..SETUP_REPS {
            let (again, s) = timed(|| Ok(setup()))?;
            (order, setup_s) = (again, setup_s.min(s));
        }
        let mut unit_ms = Vec::with_capacity(order.len() * passes_per_round);
        let mut results = Vec::with_capacity(order.len() * passes_per_round);
        let (done, wall_s, peak_rss_mb) = timed_work(|| {
            for _ in 0..passes_per_round {
                for cell in &order {
                    t.set_unit(unit);
                    unit += 1;
                    let t0 = Instant::now();
                    let r = if tracing {
                        t.span("cell", |t| traced(t, counts, cell))?
                    } else {
                        untraced(cell)
                    };
                    unit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    results.push(r);
                }
            }
            Ok::<_, String>(())
        });
        done?;
        attempted += results.len() as u64;
        failures.extend(results.iter().filter_map(|r| check(r).err()));
        drop(results);
        if tracing {
            times.unit_s += unit_ms.iter().sum::<f64>() / 1e3;
            counts.add_analytic(mlc_core::take_analytic_stats());
            let s = layout_search_stats::take_stats();
            counts.words_scored += s.words_scored;
            counts.words_pruned += s.words_pruned;
        } else {
            times.untraced_unit_s += unit_ms.iter().sum::<f64>() / 1e3;
            // One slot: every round makes the same passes, and each cell
            // repeats once per pass.
            log.get_or_insert_with(|| RoundLog::new(1, order.len()))
                .push(Round {
                    setup_s,
                    unit_ms,
                    wall_s,
                    peak_rss_mb,
                })?;
        }
    }
    times.account_base_s = times.unit_s;
    Ok(GridRun {
        rounds: log.ok_or("no untraced round")?,
        attempted,
        failures,
        times,
    })
}
