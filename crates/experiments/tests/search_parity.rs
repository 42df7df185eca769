//! Differential parity: the pruned incremental padding-search engine must
//! produce *bitwise-identical* layouts to the exhaustive scalar scan —
//! same pads, same base addresses, same `positions_tried` — for every
//! registered kernel, every padding algorithm, and every hierarchy
//! geometry the experiments use.
//!
//! Debug builds run every kernel on the paper's UltraSparc I config and a
//! reduced kernel set on the wider geometry matrix (the fast engine
//! additionally cross-checks every placement against the exhaustive scan
//! in debug, so these runs are doubly covered but slow); `--release` (the
//! CI search-parity job) runs every kernel everywhere.

use mlc_cache_sim::HierarchyConfig;
use mlc_core::group::ProgramSkeleton;
use mlc_core::group_pad::{group_pad_multi, group_pad_quantized_with};
use mlc_core::maxpad::l2_max_pad;
use mlc_core::pad::PadResult;
use mlc_core::{multilvl_pad, PadError, PadSearch};
use mlc_kernels::registry::all_kernels;
use mlc_kernels::Kernel;
use mlc_model::Program;

/// Run `algorithm` once per engine and demand identical results.
fn assert_search_parity(
    name: &str,
    program: &Program,
    algorithm: impl Fn(&Program, PadSearch) -> Result<PadResult, PadError>,
) {
    let fast = algorithm(program, PadSearch::Pruned);
    let scalar = algorithm(program, PadSearch::Exhaustive);
    match (fast, scalar) {
        (Ok(fast), Ok(scalar)) => {
            assert_eq!(fast.pads, scalar.pads, "{name}: pads diverge");
            assert_eq!(
                fast.layout.bases, scalar.layout.bases,
                "{name}: base addresses diverge"
            );
            assert_eq!(
                fast.positions_tried, scalar.positions_tried,
                "{name}: positions_tried diverge"
            );
            assert!(
                fast.positions_scored <= fast.positions_tried,
                "{name}: scored {} > tried {}",
                fast.positions_scored,
                fast.positions_tried
            );
            assert_eq!(
                scalar.positions_scored, scalar.positions_tried,
                "{name}: the exhaustive scan scores everything it tries"
            );
        }
        (fast, scalar) => {
            assert_eq!(
                fast.map(|r| r.pads),
                scalar.map(|r| r.pads),
                "{name}: engines disagree about failing"
            );
        }
    }
}

/// All four padding algorithms against one hierarchy.
fn assert_kernel_parity(kernel: &dyn Kernel, cfg: &HierarchyConfig, hname: &str) {
    let program = kernel.model();
    let l1 = cfg.l1();
    let kname = kernel.name();
    let grouppad = |p: &Program, engine| {
        group_pad_quantized_with(p, &ProgramSkeleton::new(p), l1, l1.line as u64, &[], engine)
    };
    assert_search_parity(&format!("{kname}/{hname}/GROUPPAD"), &program, grouppad);
    assert_search_parity(
        &format!("{kname}/{hname}/GROUPPAD-multi"),
        &program,
        |p, engine| group_pad_multi(p, cfg, engine),
    );
    assert_search_parity(
        &format!("{kname}/{hname}/L2MAXPAD"),
        &program,
        |p, engine| {
            let g = grouppad(p, engine)?;
            l2_max_pad(p, l1, cfg.levels[1], &g.pads)
        },
    );
    // MULTILVLPAD runs no GROUPPAD search: both calls must agree anyway.
    assert_search_parity(&format!("{kname}/{hname}/MULTILVLPAD"), &program, |p, _| {
        Ok(multilvl_pad(p, cfg))
    });
}

/// Kernels for the wide matrix: all of them in release; in debug only the
/// smaller programs (in debug the fast engine re-runs the exhaustive scan
/// as a cross-check on every placement, so each case costs at least two
/// full scalar searches).
fn matrix_kernels() -> Vec<Box<dyn Kernel>> {
    let kernels = all_kernels();
    if cfg!(debug_assertions) {
        kernels
            .into_iter()
            .filter(|k| k.model().arrays.len() <= 4)
            .collect()
    } else {
        kernels
    }
}

#[test]
fn every_kernel_matches_on_ultrasparc_i() {
    let cfg = HierarchyConfig::ultrasparc_i();
    for kernel in all_kernels() {
        assert_kernel_parity(kernel.as_ref(), &cfg, "ultrasparc_i");
    }
}

#[test]
fn kernels_match_on_ablation_hierarchies() {
    for (cfg, hname) in [
        (HierarchyConfig::alpha_21164_like(), "alpha_21164_like"),
        (
            HierarchyConfig::ultrasparc_like_assoc(2),
            "ultrasparc_like_assoc2",
        ),
    ] {
        for kernel in matrix_kernels() {
            assert_kernel_parity(kernel.as_ref(), &cfg, hname);
        }
    }
}
