//! Fast padding-position search: incremental delta scoring + candidate
//! pruning for GROUPPAD's coordinate ascent.
//!
//! The scalar search in [`crate::group_pad`] scores every candidate
//! position (`cache.size / quantum` of them — 512 per variable on the
//! 16 KiB L1) with a full severe-conflict + exploited-arc recompute over
//! every nest. This module exploits two structural facts to get the same
//! answer much faster:
//!
//! **Suffix shifts.** The layout is cumulative (`base[j] = Σ pads[..=j] +
//! Σ sizes[..j]`), so changing `pads[k]` moves the bases of arrays `k..`
//! by one common delta. A nest whose referenced arrays all move, or all
//! stay, keeps every pairwise distance modulo the cache size — its severe
//! and exploited counts are invariant under the move. Only nests whose
//! references straddle the split (`min_array < k <= max_array`, the
//! per-variable index on [`ProgramSkeleton`]) can change, so the engine
//! caches per-nest counts and rescores just those ([`GroupPadSearch::
//! rescore_move`]).
//!
//! **Conflict windows.** Within an affected nest, every position-dependent
//! condition is an interval test on the shift delta:
//!
//! * a severe lockstep pair (one side moving) flips when the circular
//!   distance crosses `0`, `line`, or `s − line`, and when the absolute
//!   same-line window `|a_m + δ − a_f| < line` opens or closes;
//! * an intervening reference under an arc (mixed moving/fixed — same-array
//!   pairs always move together, so the same-tag exceptions are invariant)
//!   kills the arc iff its offset under the lead lies in `[0, span + line)
//!   ∪ (s − line, s)`, flipping at `0`, `span + line`, and `s − line`.
//!
//! The objective is therefore piecewise constant in the delta; the engine
//! collects every flip point (±1 margin), maps each onto the first quantized
//! candidate at or past it, and scores only those — one representative per
//! constant-score segment. Evaluating the representatives in ascending
//! order with strict `<` improvement reproduces the scalar search's
//! first-best tie-break bitwise. Debug builds re-run the exhaustive scan
//! after every placement and assert the pruned result identical
//! (`debug_assertions` cross-check); release parity is covered by the
//! differential suite in `mlc-experiments`.
//!
//! Large candidate scans additionally fan out over the work-stealing
//! executor in [`crate::exec`].
//!
//! Callers pick the engine explicitly with [`PadSearch`]: the optimizer
//! pipeline always runs [`PadSearch::Pruned`]; the parity suites and the
//! `optimizer_throughput` A/B benchmark also run
//! [`PadSearch::Exhaustive`], the scalar reference scan.

use crate::group::ProgramSkeleton;
use mlc_cache_sim::CacheConfig;
use std::cell::Cell;

/// Which engine runs GROUPPAD's position search. Both produce
/// bitwise-identical pads, bases and `positions_tried` (differentially
/// tested); only the time and `positions_scored` differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadSearch {
    /// The pruned incremental engine of this module.
    Pruned,
    /// The exhaustive scalar scan: every candidate, full recompute.
    Exhaustive,
}

/// Per-thread counters for the pruned search, exported as telemetry by the
/// pipeline. Thread-local because the sweep drivers run one optimization
/// per worker thread; each worker reads its own run's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidate positions actually scored.
    pub candidates_scored: u64,
    /// Candidate positions skipped by conflict-window pruning.
    pub candidates_pruned: u64,
    /// Per-nest rescores performed (affected nests × scored candidates).
    pub nests_rescored: u64,
    /// Per-nest rescores avoided by the suffix-shift invariance
    /// (unaffected nests × scored candidates).
    pub nests_skipped: u64,
}

thread_local! {
    static STATS: Cell<SearchStats> = const { Cell::new(SearchStats {
        candidates_scored: 0,
        candidates_pruned: 0,
        nests_rescored: 0,
        nests_skipped: 0,
    }) };
}

/// Read and reset the calling thread's search counters.
pub fn take_stats() -> SearchStats {
    STATS.with(|s| s.replace(SearchStats::default()))
}

fn bump_stats(f: impl FnOnce(&mut SearchStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// Cumulative layout arithmetic without allocating a layout: array `j` gets
/// base `Σ pads[..=j] + Σ sizes[..j]`.
pub(crate) fn compute_bases(sizes: &[u64], pads: &[u64], out: &mut Vec<u64>) {
    out.clear();
    let mut cursor = 0u64;
    for (sz, &p) in sizes.iter().zip(pads) {
        cursor += p;
        out.push(cursor);
        cursor += sz;
    }
}

/// Candidate scans at least this large fan out over the executor.
const PAR_CANDIDATES: usize = 64;

/// The incremental GROUPPAD search state: current pads, visibility mask,
/// and cached per-nest severe/exploited counts kept consistent with them.
pub(crate) struct GroupPadSearch<'a> {
    skel: &'a ProgramSkeleton,
    cache: CacheConfig,
    quantum: u64,
    /// Number of quantized positions per variable (`cache.size / quantum`).
    candidates: u64,
    /// Pads every candidate is offset from (the multi-level recursion's
    /// already-fixed lower-level layout).
    base: Vec<u64>,
    pub(crate) pads: Vec<u64>,
    visible: Vec<bool>,
    /// Bases under `pads` (kept consistent by `rescore_move`).
    bases: Vec<u64>,
    /// Cached severe-conflict count per nest under (`bases`, `visible`).
    sev: Vec<usize>,
    /// Cached exploited-arc count per nest under (`bases`, `visible`).
    expl: Vec<usize>,
    threads: usize,
    /// Candidate positions considered (pruned or not) — matches the scalar
    /// search's `positions_tried` exactly.
    pub(crate) tried: u64,
    /// Candidate positions actually scored.
    pub(crate) scored: u64,
}

impl<'a> GroupPadSearch<'a> {
    pub(crate) fn new(
        skel: &'a ProgramSkeleton,
        cache: CacheConfig,
        quantum: u64,
        base: Vec<u64>,
    ) -> Self {
        let n = skel.n_arrays();
        let n_nests = skel.nests().len();
        let pads = base.clone();
        let mut bases = Vec::with_capacity(n);
        compute_bases(skel.array_sizes(), &pads, &mut bases);
        Self {
            skel,
            cache,
            quantum,
            candidates: cache.size as u64 / quantum,
            base,
            pads,
            // All arrays start hidden: every severe pair and arc member is
            // masked out, so the cached counts are all zero.
            visible: vec![false; n],
            bases,
            sev: vec![0; n_nests],
            expl: vec![0; n_nests],
            threads: crate::par::default_threads(),
            tried: 0,
            scored: 0,
        }
    }

    fn rescore_nest(&mut self, n: usize) {
        self.sev[n] = self
            .skel
            .severe_in_nest(n, &self.bases, self.cache, Some(&self.visible));
        self.expl[n] = self
            .skel
            .exploited_in_nest(n, &self.bases, self.cache, Some(&self.visible));
    }

    /// Reveal array `k` and refresh the cached counts of every nest that
    /// references it (`min <= k <= max`; others cannot see the change).
    pub(crate) fn set_visible(&mut self, k: usize) {
        self.visible[k] = true;
        for n in 0..self.skel.nests().len() {
            if matches!(self.skel.nest_array_span(n), Some((mn, mx)) if mn <= k && k <= mx) {
                self.rescore_nest(n);
            }
        }
    }

    /// Commit `pads[k] = new_pad` and incrementally refresh the cache:
    /// only nests straddling the split can have changed.
    pub(crate) fn rescore_move(&mut self, k: usize, new_pad: u64) {
        self.pads[k] = new_pad;
        compute_bases(self.skel.array_sizes(), &self.pads, &mut self.bases);
        for n in 0..self.skel.nests().len() {
            if self.skel.nest_affected_by_move(n, k) {
                self.rescore_nest(n);
            }
        }
    }

    /// Score candidate `c` for variable `k`: severe/exploited totals over
    /// the affected nests only (`bases0` is the layout at candidate 0).
    fn eval_candidate(&self, k: usize, bases0: &[u64], affected: &[usize], c: u64) -> (usize, i64) {
        let delta = c * self.quantum;
        let mut bases = bases0.to_vec();
        for b in &mut bases[k..] {
            *b += delta;
        }
        let mut sev = 0usize;
        let mut expl = 0i64;
        for &n in affected {
            sev += self
                .skel
                .severe_in_nest(n, &bases, self.cache, Some(&self.visible));
            expl += self
                .skel
                .exploited_in_nest(n, &bases, self.cache, Some(&self.visible))
                as i64;
        }
        (sev, expl)
    }

    /// The candidate positions where the objective can change, derived from
    /// the conflict-distance arithmetic (see module docs). Sorted ascending,
    /// deduplicated, always contains position 0; the first candidate of
    /// every constant-score segment is included, so scanning this list with
    /// strict `<` improvement matches the exhaustive first-best scan.
    fn candidate_positions(&self, k: usize, bases0: &[u64], affected: &[usize]) -> Vec<u64> {
        let s = self.cache.size as u64;
        let line = self.cache.line as u64;
        let q = self.quantum;
        let limit = self.candidates;
        let mut cands: Vec<u64> = vec![0];
        // A score segment starting at shift delta `d` first covers the
        // quantized candidate `ceil(d / q)`.
        fn push_delta(cands: &mut Vec<u64>, q: u64, limit: u64, d: u64) {
            let c = d.div_ceil(q);
            if c < limit {
                cands.push(c);
            }
        }
        // Flip point in circular delta space, with ±1 margin.
        let push_circ = |cands: &mut Vec<u64>, d: u64| {
            push_delta(cands, q, limit, (d + s - 1) % s);
            push_delta(cands, q, limit, d);
            push_delta(cands, q, limit, (d + 1) % s);
        };
        for &n in affected {
            let nest = &self.skel.nests[n];
            // Severe lockstep pairs with exactly one side moving.
            for &(i, j) in &self.skel.lockstep[n] {
                if !self.visible[nest.array[i]] || !self.visible[nest.array[j]] {
                    continue;
                }
                let mi = nest.array[i] >= k;
                let mj = nest.array[j] >= k;
                if mi == mj {
                    continue; // pairwise distance invariant under the move
                }
                let (m, f) = if mi { (i, j) } else { (j, i) };
                let am0 = (bases0[nest.array[m]] + nest.offset[m]) as i128;
                let af0 = (bases0[nest.array[f]] + nest.offset[f]) as i128;
                // Same-line skip window |a_m + δ − a_f| < line: linear in
                // delta, opens/closes at a_f − a_m ∓ line.
                for t in [af0 - am0 - line as i128, af0 - am0 + line as i128] {
                    for dd in [t - 1, t, t + 1] {
                        if dd > 0 && dd < s as i128 {
                            push_delta(&mut cands, q, limit, dd as u64);
                        }
                    }
                }
                // Circular distance min(x, s−x) < line, x = (a_m + δ − a_f)
                // mod s: flips at x ∈ {0, line, s − line}.
                let x0 = (am0 - af0).rem_euclid(s as i128) as u64;
                for t in [0, line, s - line] {
                    push_circ(&mut cands, (t + s - x0) % s);
                }
            }
            // Arc interveners with exactly one of (intervener, lead) moving.
            for g in &nest.groups {
                for (gi, &(body, off)) in g.members.iter().enumerate() {
                    if !self.visible[nest.array[body]] {
                        continue;
                    }
                    if g.members[..gi].iter().any(|&(_, o)| o == off) {
                        continue; // register-level duplicate
                    }
                    let Some(&(lead, lead_off)) =
                        g.members[gi + 1..].iter().find(|&&(_, o)| o != off)
                    else {
                        continue; // leading reference
                    };
                    let span = (lead_off - off) as u64 * g.elem;
                    if span == 0 || span + line > s {
                        continue; // arc status constant at any position
                    }
                    let w = span + line;
                    let lead_moving = nest.array[lead] >= k;
                    let lead_loc0 = (bases0[nest.array[lead]] + nest.offset[lead]) % s;
                    for r in 0..nest.array.len() {
                        if r == body || r == lead || !self.visible[nest.array[r]] {
                            continue;
                        }
                        if nest.data_id[r] == nest.data_id[lead]
                            || nest.data_id[r] == nest.data_id[body]
                        {
                            continue;
                        }
                        if (nest.array[r] >= k) == lead_moving {
                            continue; // offset under the lead invariant
                        }
                        // Kill iff off ∈ [0, span+line) ∪ (s−line, s); off
                        // moves with +δ if the lead moves, −δ if r moves.
                        let loc_r0 = (bases0[nest.array[r]] + nest.offset[r]) % s;
                        let x0 = (lead_loc0 + s - loc_r0) % s;
                        for t in [0, w % s, s - line] {
                            let d = if lead_moving {
                                (t + s - x0) % s
                            } else {
                                (x0 + s - t % s) % s
                            };
                            push_circ(&mut cands, d);
                        }
                    }
                }
            }
        }
        cands.sort_unstable();
        cands.dedup();
        cands
    }

    /// Exhaustive scan with full recomputation — the scalar search's exact
    /// loop — used to validate the pruned result in debug builds.
    #[cfg(debug_assertions)]
    fn exhaustive_best(&self, k: usize, bases0: &[u64]) -> (usize, i64, u64) {
        let mut best: Option<(usize, i64, u64)> = None;
        let mut bases = bases0.to_vec();
        for c in 0..self.candidates {
            let delta = c * self.quantum;
            for (b, &b0) in bases[k..].iter_mut().zip(&bases0[k..]) {
                *b = b0 + delta;
            }
            let candidate = self.base[k] + delta;
            let conflicts = self.skel.severe(&bases, self.cache, Some(&self.visible));
            let exploited = self.skel.exploited(&bases, self.cache, Some(&self.visible)) as i64;
            let score = (conflicts, -exploited, candidate);
            if best.is_none_or(|b| score < b) {
                best = Some(score);
            }
        }
        best.expect("at least one candidate position")
    }

    /// Find and commit the best position for variable `k` under the current
    /// visibility mask. Reproduces the scalar scan's result bitwise.
    pub(crate) fn place(&mut self, k: usize) {
        // Layout at candidate 0 (pads[k] at its base value); every other
        // candidate shifts bases[k..] by c·quantum.
        self.pads[k] = self.base[k];
        let mut bases0 = Vec::with_capacity(self.pads.len());
        compute_bases(self.skel.array_sizes(), &self.pads, &mut bases0);

        // Split nests: affected ones get rescored per candidate; the rest
        // contribute their cached counts as a delta-independent constant.
        let n_nests = self.skel.nests().len();
        let mut affected = Vec::new();
        let mut const_sev = 0usize;
        let mut const_expl = 0i64;
        for n in 0..n_nests {
            if self.skel.nest_affected_by_move(n, k) {
                affected.push(n);
            } else {
                const_sev += self.sev[n];
                const_expl += self.expl[n] as i64;
            }
        }

        let cands = self.candidate_positions(k, &bases0, &affected);
        let scores: Vec<(usize, i64)> = if cands.len() >= PAR_CANDIDATES && self.threads > 1 {
            let this = &*self;
            let bases0 = &bases0;
            let affected = &affected;
            crate::exec::execute(cands.clone(), this.threads, |&c| {
                this.eval_candidate(k, bases0, affected, c)
            })
            .0
        } else {
            cands
                .iter()
                .map(|&c| self.eval_candidate(k, &bases0, &affected, c))
                .collect()
        };

        let mut best: Option<(usize, i64, u64)> = None;
        for (&c, &(sev, expl)) in cands.iter().zip(&scores) {
            let candidate = self.base[k] + c * self.quantum;
            let score = (const_sev + sev, -(const_expl + expl), candidate);
            if best.is_none_or(|b| score < b) {
                best = Some(score);
            }
        }
        let best = best.expect("candidate position 0 is always scored");

        self.tried += self.candidates;
        self.scored += cands.len() as u64;
        bump_stats(|st| {
            st.candidates_scored += cands.len() as u64;
            st.candidates_pruned += self.candidates - cands.len() as u64;
            st.nests_rescored += (affected.len() * cands.len()) as u64;
            st.nests_skipped += ((n_nests - affected.len()) * cands.len()) as u64;
        });

        // Exhaustive cross-check: the full recompute validates both the
        // pruning windows and the cached unaffected-nest constants.
        #[cfg(debug_assertions)]
        assert_eq!(
            self.exhaustive_best(k, &bases0),
            best,
            "pruned search diverged from exhaustive scan placing variable {k}"
        );

        self.rescore_move(k, best.2);
    }
}

/// The full GROUPPAD coordinate ascent (greedy placement in declaration
/// order, then up to two refinement sweeps) on the pruned incremental
/// engine. Returns `(pads, positions_tried, positions_scored)`;
/// `positions_tried` counts every candidate the scalar search would have
/// scanned, so the two paths report identical `tried` numbers.
pub(crate) fn grouppad_search(
    skel: &ProgramSkeleton,
    cache: CacheConfig,
    quantum: u64,
    base: Vec<u64>,
) -> (Vec<u64>, u64, u64) {
    let n = skel.n_arrays();
    let mut eng = GroupPadSearch::new(skel, cache, quantum, base);
    for k in 0..n {
        eng.set_visible(k);
        eng.place(k);
    }
    for _ in 0..2 {
        let before = eng.pads.clone();
        for k in 0..n {
            eng.place(k);
        }
        if eng.pads == before {
            break;
        }
    }
    (eng.pads, eng.tried, eng.scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_model::program::figure2_example;

    fn brute_force_place(
        skel: &ProgramSkeleton,
        cache: CacheConfig,
        quantum: u64,
        base: &[u64],
        pads: &mut [u64],
        k: usize,
        visible: &[bool],
    ) {
        let mut best: Option<(usize, i64, u64)> = None;
        let mut best_pad = pads[k];
        let mut bases = Vec::new();
        for c in 0..cache.size as u64 / quantum {
            let candidate = base[k] + c * quantum;
            pads[k] = candidate;
            compute_bases(skel.array_sizes(), pads, &mut bases);
            let conflicts = skel.severe(&bases, cache, Some(visible));
            let exploited = skel.exploited(&bases, cache, Some(visible)) as i64;
            let score = (conflicts, -exploited, candidate);
            if best.is_none_or(|b| score < b) {
                best = Some(score);
                best_pad = candidate;
            }
        }
        pads[k] = best_pad;
    }

    #[test]
    fn engine_places_like_brute_force_step_by_step() {
        // Lockstep: drive the engine and an inline brute-force scan through
        // the same greedy schedule and compare after every single placement.
        for n in [48usize, 60, 64, 100] {
            let p = figure2_example(n);
            let skel = ProgramSkeleton::new(&p);
            let cache = CacheConfig::direct_mapped(1024, 32);
            let quantum = 32;
            let base = vec![0u64; p.arrays.len()];
            let mut eng = GroupPadSearch::new(&skel, cache, quantum, base.clone());
            let mut pads = base.clone();
            let mut visible = vec![false; p.arrays.len()];
            for k in 0..p.arrays.len() {
                visible[k] = true;
                eng.set_visible(k);
                eng.place(k);
                brute_force_place(&skel, cache, quantum, &base, &mut pads, k, &visible);
                assert_eq!(eng.pads, pads, "N={n}, after placing variable {k}");
            }
            // And one refinement sweep.
            for k in 0..p.arrays.len() {
                eng.place(k);
                brute_force_place(&skel, cache, quantum, &base, &mut pads, k, &visible);
                assert_eq!(eng.pads, pads, "N={n}, refinement at variable {k}");
            }
        }
    }

    #[test]
    fn engine_prunes_most_candidates() {
        let p = figure2_example(450);
        let skel = ProgramSkeleton::new(&p);
        let cache = CacheConfig::direct_mapped(16 * 1024, 32);
        take_stats();
        let (_, tried, scored) = grouppad_search(&skel, cache, 32, vec![0; 3]);
        assert!(scored < tried / 2, "scored {scored} of {tried} candidates");
        let st = take_stats();
        assert_eq!(st.candidates_scored, scored);
        assert_eq!(st.candidates_pruned, tried - scored);
    }

    #[test]
    fn stats_are_taken_and_reset() {
        take_stats();
        let p = figure2_example(60);
        let skel = ProgramSkeleton::new(&p);
        let cache = CacheConfig::direct_mapped(1024, 32);
        grouppad_search(&skel, cache, 32, vec![0; 3]);
        let st = take_stats();
        assert!(st.candidates_scored > 0);
        assert_eq!(take_stats(), SearchStats::default());
    }

    #[test]
    fn empty_program_searches_trivially() {
        let p = mlc_model::Program {
            name: "empty".into(),
            arrays: vec![],
            nests: vec![],
        };
        let skel = ProgramSkeleton::new(&p);
        let (pads, tried, scored) =
            grouppad_search(&skel, CacheConfig::direct_mapped(1024, 32), 32, vec![]);
        assert!(pads.is_empty());
        assert_eq!(tried, 0);
        assert_eq!(scored, 0);
    }
}
