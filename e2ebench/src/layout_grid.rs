//! `layout_grid`: the 8 cells of the full layout-competitor grid through
//! `layout_sweep::run_layout_cell`, repeated for a fixed number of passes.
//! One unit is one cell.
//!
//! `search_morton` is most of a cell's time. It simulates non-affine
//! Morton layouts, which only the run-length path serves; the grid never
//! offers a nest to the analytic engine, so an analytic-engine change
//! should leave this workload unchanged.

use crate::golden::Golden;
use crate::layers::{self, Counts};
use crate::trace::Tracer;
use crate::{grid, rounds, shuffled, Outcome, RunConfig};
use mlc_core::{multilvl_pad, search_morton};
use mlc_experiments::layout_sweep::{
    layout_cell_result_to_json, layout_grid_cells, layout_hierarchy_by_name, layout_kernel_by_name,
    run_layout_cell, Competitor, CompetitorRun, LayoutCell, LayoutCellResult, LayoutGridKind,
    TIMED, WARMUP,
};
use mlc_model::trace_gen::try_simulate_steady_with;
use mlc_model::transform::cache_oblivious_in_program;
use mlc_model::{DataLayout, Program};

/// Nominal seconds of one pass over the grid on the reference host (a pass
/// measured 0.34 s to 0.73 s).
pub const NOMINAL_PASS_S: f64 = 0.5;

/// Passes per round: 64 cells, so each round's tail is p84.4 with ten
/// cells beyond it.
pub const PASSES_PER_ROUND: usize = 8;

const GOLDENS: [&str; 2] = ["layout_tiny_l1l2.json", "layout_ultrasparc_i.json"];

/// Run the workload.
pub fn run(cfg: &RunConfig, t: &mut Tracer) -> Result<Outcome, String> {
    let rounds = rounds(
        cfg.seconds,
        NOMINAL_PASS_S * PASSES_PER_ROUND as f64,
        t.on(),
    );
    // Set-up, repeated before every round: the cell order, and one cheap
    // warm-up cell so the round's first cell does not pay for first-touch
    // allocation.
    let setup = || {
        let order = shuffled(layout_grid_cells(LayoutGridKind::Full), cfg.seed);
        let warm = layout_grid_cells(LayoutGridKind::Smoke);
        std::hint::black_box(run_layout_cell(&warm[0]));
        order
    };
    let golden = Golden::load(&GOLDENS)?;
    let mut counts = Counts::default();
    let run = grid::run(
        t,
        &mut counts,
        (rounds, PASSES_PER_ROUND),
        setup,
        run_layout_cell,
        traced_cell,
        |r| golden.check(&layout_cell_result_to_json(r)),
    )?;
    Ok(Outcome {
        rounds: run.rounds,
        attempted: run.attempted,
        failures: run.failures,
        per_layer: layers::per_layer_metrics(t, &counts, &run.times),
        detail: vec![("passes_per_round", (PASSES_PER_ROUND as u64).into())],
    })
}

/// `layout_sweep::run_layout_cell` split at its layer boundaries: the four
/// competitors' simulations, MULTILVLPAD, the Morton word search, and the
/// cache-oblivious transform. Notes are not part of the checked payload,
/// so they stay empty.
fn traced_cell(
    t: &mut Tracer,
    c: &mut Counts,
    cell: &LayoutCell,
) -> Result<LayoutCellResult, String> {
    let program = layout_kernel_by_name(&cell.kernel)
        .ok_or_else(|| format!("unknown layout kernel {}", cell.kernel))?;
    let h = layout_hierarchy_by_name(&cell.hierarchy)
        .ok_or_else(|| format!("unknown layout hierarchy {}", cell.hierarchy))?;
    let protocol = (WARMUP as u64, TIMED as u64);
    let steady = |t: &mut Tracer, c: &mut Counts, p: &Program, l: &DataLayout| {
        layers::simulate(t, c, (p, l), protocol, true, || {
            try_simulate_steady_with(p, l, &h, WARMUP, TIMED, true)
        })
        .map_err(|e| format!("{}: {e}", cell.kernel))
    };
    let run = |competitor, report: mlc_cache_sim::MissRateReport| CompetitorRun {
        competitor,
        cost: report.weighted_cost(&h.miss_penalty),
        report,
        note: String::new(),
    };
    let mut runs = Vec::with_capacity(4);

    let linear = DataLayout::contiguous(&program.arrays);
    runs.push(run(Competitor::Orig, steady(t, c, &program, &linear)?));

    let padded = t.span("optimize", |_| multilvl_pad(&program, &h));
    c.optimize_calls += 1;
    c.candidates_scored += padded.positions_scored;
    runs.push(run(
        Competitor::Pad,
        steady(t, c, &program, &padded.layout)?,
    ));

    let zero_pads = vec![0u64; program.arrays.len()];
    let searched = t
        .span("layout_search", |_| search_morton(&program, &zero_pads, &h))
        .map_err(|e| format!("{}: {e}", cell.kernel))?;
    runs.push(CompetitorRun {
        competitor: Competitor::Morton,
        cost: searched.cost,
        report: searched.report,
        note: String::new(),
    });

    let elem = program
        .arrays
        .iter()
        .map(|a| a.elem_size)
        .max()
        .unwrap_or(8);
    let leaf = (h.levels[0].line as u64 / elem as u64).max(2);
    let cot = t.span("transform", |_| {
        let mut cot = program.clone();
        for at in (0..cot.nests.len()).rev() {
            if let Ok(next) = cache_oblivious_in_program(&cot, at, leaf) {
                cot = next;
            }
        }
        cot
    });
    runs.push(run(Competitor::Cot, steady(t, c, &cot, &linear)?));

    Ok(LayoutCellResult {
        cell: cell.clone(),
        runs,
    })
}
