//! The process-wide `layout.*` counters (`mlc_model::layout::stats`).
//!
//! Every thread of a process bumps the same counters, and this crate's unit
//! tests stream Morton nests on parallel threads. This file holds a single
//! test, so in its own test process nothing else bumps or drains the
//! counters between a call and the read that checks it.

use mlc_cache_sim::trace::CountingSink;
use mlc_model::layout::stats::take_stats;
use mlc_model::prelude::*;
use mlc_model::trace_gen::generate;
use mlc_model::transform::cache_oblivious_in_program;
use mlc_model::AffineExpr as E;

/// B(i,j) = A(i,j) with A Morton-laid-out, B linear.
fn morton_program(n: usize) -> (Program, DataLayout) {
    let mut p = Program::new("mz");
    let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
    let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
    let nn = n as i64 - 1;
    p.add_nest(LoopNest::new(
        "mz",
        vec![Loop::counted("j", 0, nn), Loop::counted("i", 0, nn)],
        vec![
            ArrayRef::read(a, vec![E::var("i"), E::var("j")]),
            ArrayRef::write(b, vec![E::var("i"), E::var("j")]),
        ],
    ));
    let fams = vec![
        LayoutFamily::morton_round_robin(&p.arrays[0]),
        LayoutFamily::Linear,
    ];
    let l = DataLayout::with_pads_and_families(&p.arrays, &[0, 0], &fams).unwrap();
    (p, l)
}

#[test]
fn layout_counters_count_each_outcome() {
    take_stats(); // reset

    // A 1-D Morton family is linear in disguise: the whole innermost sweep
    // coalesces into one run, not per-access emissions.
    let mut p = Program::new("t");
    let a = p.add_array(ArrayDecl::f64("A", vec![64]));
    p.add_nest(LoopNest::new(
        "n",
        vec![Loop::counted("i", 0, 63)],
        vec![ArrayRef::read(a, vec![E::var("i")])],
    ));
    let fams = vec![LayoutFamily::morton_round_robin(&p.arrays[0])];
    let l = DataLayout::with_pads_and_families(&p.arrays, &[0], &fams).unwrap();
    let mut c = CountingSink::default();
    assert_eq!(generate(&p, &l, &mut c), 64);
    assert_eq!(c.total, 64);
    let s = take_stats();
    assert_eq!(s.morton_nests, 1);
    assert_eq!(s.morton_runs, 1, "sequential morton sweep is one run");
    assert_eq!(s.morton_scalar_bails, 0);

    // A multi-reference Morton body bails to scalar emission once per
    // innermost invocation.
    let (p, l) = morton_program(8);
    generate(&p, &l, &mut CountingSink::default());
    let s = take_stats();
    assert_eq!(s.morton_nests, 1);
    assert_eq!(s.morton_runs, 0);
    assert_eq!(
        s.morton_scalar_bails, 8,
        "one bail per innermost invocation"
    );

    // Cache-oblivious tiling counts the nests it materializes.
    cache_oblivious_in_program(&p, 0, 4).unwrap();
    assert_eq!(take_stats().cot_nests, 1);
}
