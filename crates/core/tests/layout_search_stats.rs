//! The process-wide Morton-search counters (`mlc_core::layout_search::stats`).
//!
//! Every thread of a process bumps the same counters, and this crate's unit
//! tests run `search_morton` on parallel threads. This file holds a single
//! test, so in its own test process nothing else bumps or drains the
//! counters between the search and the read that checks it.

use mlc_cache_sim::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use mlc_core::layout_search::stats::take_stats;
use mlc_core::search_morton;
use mlc_model::prelude::*;
use mlc_model::AffineExpr as E;

#[test]
fn counters_match_the_search_result() {
    // B(i,j) = A(j,i): the strided walk is what a Morton word shortens.
    let n = 64;
    let mut p = Program::new("transpose");
    let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
    let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
    let nn = n as i64 - 1;
    p.add_nest(LoopNest::new(
        "t",
        vec![Loop::counted("j", 0, nn), Loop::counted("i", 0, nn)],
        vec![
            ArrayRef::read(a, vec![E::var("j"), E::var("i")]),
            ArrayRef::write(b, vec![E::var("i"), E::var("j")]),
        ],
    ));
    let h = HierarchyConfig::new(
        vec![
            CacheConfig::new(2048, 32, 1, ReplacementPolicy::Lru),
            CacheConfig::new(16384, 64, 2, ReplacementPolicy::Lru),
        ],
        vec![6.0, 50.0],
    );

    take_stats(); // reset
    let r = search_morton(&p, &[0, 0], &h).unwrap();
    let s = take_stats();
    assert!(r.any_morton());
    assert_eq!(s.arrays_searched, 2);
    assert_eq!(
        s.words_scored,
        r.choices.iter().map(|c| c.scored).sum::<u64>()
    );
    assert_eq!(
        s.words_pruned,
        r.choices.iter().map(|c| c.pruned).sum::<u64>()
    );
    assert!(s.words_scored > 0);
    let wins = r.families.iter().filter(|f| !f.is_linear()).count() as u64;
    assert_eq!(s.morton_wins, wins);
    assert!(wins >= 1);
}
