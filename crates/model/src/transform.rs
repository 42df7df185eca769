//! Loop transformations.
//!
//! Each transformation produces a new nest (or program); legality is checked
//! via [`crate::dependence`] where semantics could change. The property
//! tests assert that every transformation preserves the multiset of
//! addresses a nest touches — the paper's premise that these
//! transformations change *order*, not *work*.

use crate::dependence::{fusion_legal, permutation_legal};
use crate::expr::AffineExpr;
use crate::nest::{Loop, LoopNest};
use crate::program::Program;

/// Reorder a nest's loops: new position `k` holds old loop `perm[k]`.
///
/// Fails if `perm` is not a permutation, a bound would reference a variable
/// that no longer encloses it (triangular nests need skewing first), or a
/// dependence would be reversed.
pub fn permute(nest: &LoopNest, perm: &[usize]) -> Result<LoopNest, String> {
    let depth = nest.depth();
    if perm.len() != depth {
        return Err(format!(
            "permutation length {} != depth {depth}",
            perm.len()
        ));
    }
    let mut seen = vec![false; depth];
    for &k in perm {
        if k >= depth || seen[k] {
            return Err(format!("{perm:?} is not a permutation"));
        }
        seen[k] = true;
    }
    // Bounds may only reference variables of loops outer to them post-permute.
    for (new_pos, &old) in perm.iter().enumerate() {
        let outer_vars: Vec<&str> = perm[..new_pos]
            .iter()
            .map(|&o| nest.loops[o].var.as_str())
            .collect();
        for e in nest.loops[old].lowers.iter().chain(&nest.loops[old].uppers) {
            for v in e.vars() {
                if !outer_vars.contains(&v) {
                    return Err(format!(
                        "bound of loop {} references {v}, which would not enclose it",
                        nest.loops[old].var
                    ));
                }
            }
        }
    }
    permutation_legal(nest, perm)?;
    Ok(LoopNest {
        name: nest.name.clone(),
        loops: perm.iter().map(|&k| nest.loops[k].clone()).collect(),
        body: nest.body.clone(),
    })
}

/// Reverse the direction of loop `level` (unimodular loop reversal).
///
/// Only valid when the loop carries no dependence; the caller's dependence
/// obligations are checked via [`crate::dependence::carried_distances`].
pub fn reverse(nest: &LoopNest, level: usize) -> Result<LoopNest, String> {
    let dists = crate::dependence::carried_distances(nest)?;
    for d in &dists {
        // Reversal negates component `level`; the vector must stay lex-positive.
        let mut flipped = d.clone();
        flipped[level] = -flipped[level];
        if crate::dependence::lex_sign(&flipped) < 0 {
            return Err(format!("reversing loop {level} breaks dependence {d:?}"));
        }
    }
    let mut out = nest.clone();
    out.loops[level].step = -out.loops[level].step;
    Ok(out)
}

/// Fuse two nests with identical headers into one (`first`'s body first),
/// checking legality. This is the transformation of the paper's Figure 6.
pub fn fuse(first: &LoopNest, second: &LoopNest) -> Result<LoopNest, String> {
    fusion_legal(first, second)?;
    let mut body = first.body.clone();
    body.extend(second.body.iter().cloned());
    Ok(LoopNest {
        name: format!("{}+{}", first.name, second.name),
        loops: first.loops.clone(),
        body,
    })
}

/// Fuse two nests *without* the dependence legality check (headers must
/// still match). The paper's Figure 12 fuses two EXPL loops whose
/// semantics-preserving form needs shift-and-peel alignment (Manjikian &
/// Abdelrahman, cited in the paper); the straight fusion used for cache
/// analysis touches the same addresses in the same per-iteration order, so
/// the miss-rate and reuse accounting are unaffected by the missing peel.
/// Use only for cache studies, never to transform code that will execute.
pub fn fuse_unchecked(first: &LoopNest, second: &LoopNest) -> Result<LoopNest, String> {
    if first.loops != second.loops {
        return Err("fuse_unchecked requires identical loop headers".into());
    }
    let mut body = first.body.clone();
    body.extend(second.body.iter().cloned());
    Ok(LoopNest {
        name: format!("{}+{}", first.name, second.name),
        loops: first.loops.clone(),
        body,
    })
}

/// [`fuse_unchecked`] applied within a program at nests `at`, `at+1`.
pub fn fuse_unchecked_in_program(program: &Program, at: usize) -> Result<Program, String> {
    if at + 1 >= program.nests.len() {
        return Err(format!("no nest after index {at}"));
    }
    let fused = fuse_unchecked(&program.nests[at], &program.nests[at + 1])?;
    let mut p = program.clone();
    p.nests[at] = fused;
    p.nests.remove(at + 1);
    Ok(p)
}

/// Fuse adjacent nests `at` and `at+1` of a program.
pub fn fuse_in_program(program: &Program, at: usize) -> Result<Program, String> {
    if at + 1 >= program.nests.len() {
        return Err(format!("no nest after index {at}"));
    }
    let fused = fuse(&program.nests[at], &program.nests[at + 1])?;
    let mut p = program.clone();
    p.nests[at] = fused;
    p.nests.remove(at + 1);
    Ok(p)
}

/// Skew loop `inner` by `factor` times loop `outer` (unimodular loop
/// skewing, Section 2.1's third loop-nest transformation): the new inner
/// variable is `v' = v + factor·u`, so bounds gain `+factor·u` and every
/// subscript substitutes `v → v' − factor·u`. Always legal (it is a
/// bijective renumbering of the same iteration space executed in the same
/// order), and it makes wavefront permutations/tilings legal afterwards.
pub fn skew(nest: &LoopNest, outer: usize, inner: usize, factor: i64) -> Result<LoopNest, String> {
    if outer >= inner || inner >= nest.depth() {
        return Err(format!(
            "skew needs outer < inner < depth, got {outer}, {inner}"
        ));
    }
    if factor == 0 {
        return Ok(nest.clone());
    }
    if nest.loops[inner].step != 1 {
        return Err("skewing requires a unit-step inner loop".into());
    }
    let u = nest.loops[outer].var.clone();
    let v = nest.loops[inner].var.clone();
    let fu = AffineExpr::scaled(u.clone(), factor);
    let mut out = nest.clone();
    // Bounds: v' ranges over v + factor*u.
    for e in &mut out.loops[inner].lowers {
        *e = e.add(&fu);
    }
    for e in &mut out.loops[inner].uppers {
        *e = e.add(&fu);
    }
    // Body (and any deeper bound) uses v = v' - factor*u.
    let replacement = AffineExpr::var(v.clone()).sub(&fu);
    for l in &mut out.loops[inner + 1..] {
        for e in l.lowers.iter_mut().chain(l.uppers.iter_mut()) {
            *e = e.substitute(&v, &replacement);
        }
    }
    for r in &mut out.body {
        *r = r.map_subscripts(|s| s.substitute(&v, &replacement));
    }
    Ok(out)
}

/// Transpose an array's dimensions (Section 2.2's data layout
/// transformation, Figure 1's example): permute the declaration's dims (and
/// intra-pads) by `perm` and rewrite every reference's subscripts in every
/// nest to match, so the program touches the same logical elements at
/// transposed addresses.
///
/// `perm[k]` = which old dimension becomes new dimension `k`; for the 2-D
/// `transpose A(N,M) -> A(M,N)` case, `perm = [1, 0]`.
pub fn transpose_array(program: &Program, array: usize, perm: &[usize]) -> Result<Program, String> {
    let rank = program.arrays[array].rank();
    if perm.len() != rank {
        return Err(format!("permutation length {} != rank {rank}", perm.len()));
    }
    let mut seen = vec![false; rank];
    for &k in perm {
        if k >= rank || seen[k] {
            return Err(format!("{perm:?} is not a permutation of 0..{rank}"));
        }
        seen[k] = true;
    }
    let mut p = program.clone();
    let old = p.arrays[array].clone();
    for (k, &src) in perm.iter().enumerate() {
        p.arrays[array].dims[k] = old.dims[src];
        p.arrays[array].dim_pad[k] = old.dim_pad[src];
    }
    for nest in &mut p.nests {
        for r in &mut nest.body {
            if r.array == array {
                let old_subs = r.subscripts.clone();
                for k in 0..rank {
                    r.subscripts[k] = old_subs[perm[k]].clone();
                }
            }
        }
    }
    Ok(p)
}

/// Strip-mine loop `level` with the given tile size: the loop
/// `for v in lo..=hi` becomes
///
/// ```text
/// for vv in lo..=hi step tile
///   for v in vv ..= min(vv + tile - 1, hi)
/// ```
///
/// exactly the shape of the paper's Figure 8. The controlling loop takes
/// the name `outer_var`. Requires a unit-step loop; always legal.
pub fn strip_mine(
    nest: &LoopNest,
    level: usize,
    tile: u64,
    outer_var: &str,
) -> Result<LoopNest, String> {
    if tile == 0 {
        return Err("tile size must be positive".into());
    }
    let target = &nest.loops[level];
    if target.step != 1 {
        return Err(format!(
            "strip-mining requires unit step, loop {} has {}",
            target.var, target.step
        ));
    }
    if nest.loops.iter().any(|l| l.var == outer_var) {
        return Err(format!("variable {outer_var} already used in nest"));
    }
    let mut controlling = Loop {
        var: outer_var.to_string(),
        lowers: target.lowers.clone(),
        uppers: target.uppers.clone(),
        step: tile as i64,
    };
    // Bounds of the controlling loop must not reference the tiled variable
    // itself; they don't, by nest validity (bounds reference outer vars only).
    let mut inner = Loop {
        var: target.var.clone(),
        lowers: vec![AffineExpr::var(outer_var)],
        uppers: {
            let mut u = vec![AffineExpr::var_plus(outer_var, tile as i64 - 1)];
            u.extend(target.uppers.iter().cloned());
            u
        },
        step: 1,
    };
    // Keep bound lists tidy: the controlling loop inherits the original
    // bounds untouched; the element loop starts at the tile base.
    controlling.lowers.dedup();
    inner.uppers.dedup();

    let mut loops = nest.loops.clone();
    loops[level] = inner;
    loops.insert(level, controlling);
    Ok(LoopNest {
        name: nest.name.clone(),
        loops,
        body: nest.body.clone(),
    })
}

/// Tile a nest: strip-mine each `(level, tile)` in `spec` and hoist all the
/// controlling loops to the front (in `spec` order), as classical tiling
/// does. Levels refer to the *original* nest and must be distinct.
///
/// For the paper's Figure 8 (`do KK / do II / do J / do K / do I`), call
/// with `spec = [(k_level, W), (i_level, H)]` on the `J-K-I` matmul nest.
pub fn tile(nest: &LoopNest, spec: &[(usize, u64)]) -> Result<LoopNest, String> {
    let mut levels: Vec<usize> = spec.iter().map(|&(l, _)| l).collect();
    levels.sort_unstable();
    levels.dedup();
    if levels.len() != spec.len() {
        return Err("tile levels must be distinct".into());
    }
    // Strip-mine from innermost-listed to outermost so indices stay valid.
    let mut order: Vec<usize> = (0..spec.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(spec[k].0));
    let mut current = nest.clone();
    // Track where each controlling loop lands as we insert.
    let mut control_names: Vec<(usize, String)> = Vec::new(); // (spec idx, var)
    for &k in &order {
        let (level, t) = spec[k];
        let var = format!("{}{}", nest.loops[level].var, nest.loops[level].var); // ii, jj, kk...
        current = strip_mine(&current, adjusted_level(level, spec, &order, k), t, &var)?;
        control_names.push((k, var));
    }
    // Build permutation: controlling loops first in spec order, then the
    // rest in current order.
    let controls_in_spec_order: Vec<String> = (0..spec.len())
        .map(|k| {
            control_names
                .iter()
                .find(|(s, _)| *s == k)
                .unwrap()
                .1
                .clone()
        })
        .collect();
    let mut perm: Vec<usize> = Vec::with_capacity(current.depth());
    for name in &controls_in_spec_order {
        perm.push(current.loop_index(name).unwrap());
    }
    for (i, l) in current.loops.iter().enumerate() {
        if !controls_in_spec_order.contains(&l.var) {
            perm.push(i);
        }
    }
    // The controlling loops' bounds reference nothing (they inherit the
    // original outer-bound expressions), but the element loops reference
    // their controllers, so use a relaxed reorder that skips the bound check
    // for controller variables (they all move outward, which is safe).
    permute_unchecked_bounds(&current, &perm, &controls_in_spec_order)
}

/// Cache-oblivious recursive tiling (the PCOT baseline): repeatedly bisect
/// the largest dimension of a constant-bound iteration space until every
/// extent is at most `leaf`, and materialize the recursion as an ordered
/// sequence of constant-bound leaf nests. Unlike `euc` tiles from
/// [`tile`], no cache parameter is consulted — the recursion adapts to
/// every level of the hierarchy at once.
///
/// Requires unit-magnitude steps and constant bounds (the recursion needs
/// a box-shaped space), and a fully permutable nest: every carried
/// dependence distance must be component-wise non-negative, which makes any
/// atomic blocking of the space legal. Reversed (`step == -1`) loops
/// bisect in *execution* order, so a 1-D recursion preserves the exact
/// access sequence.
pub fn cache_oblivious(nest: &LoopNest, leaf: u64) -> Result<Vec<LoopNest>, String> {
    let dists = crate::dependence::carried_distances(nest)?;
    for d in &dists {
        if d.iter().any(|&c| c < 0) {
            return Err(format!(
                "recursive tiling needs a fully permutable nest; dependence {d:?} has a negative component"
            ));
        }
    }
    cache_oblivious_unchecked(nest, leaf)
}

/// [`cache_oblivious`] without the dependence-legality check (bounds must
/// still be constant). Like [`fuse_unchecked`], this exists for cache
/// studies over nests the distance analyzer cannot certify: the leaves
/// cover the same iteration space exactly once, so the access *multiset*
/// is always preserved even where the reordering would not be a legal
/// program transformation.
pub fn cache_oblivious_unchecked(nest: &LoopNest, leaf: u64) -> Result<Vec<LoopNest>, String> {
    if leaf == 0 {
        return Err("leaf extent must be positive".into());
    }
    let mut ranges: Vec<(i64, i64)> = Vec::with_capacity(nest.depth());
    for l in &nest.loops {
        if l.step != 1 && l.step != -1 {
            return Err(format!(
                "recursive tiling requires unit-magnitude steps, loop {} has {}",
                l.var, l.step
            ));
        }
        let lo = const_bound(&l.lowers, true)
            .ok_or_else(|| format!("loop {} has a non-constant lower bound", l.var))?;
        let hi = const_bound(&l.uppers, false)
            .ok_or_else(|| format!("loop {} has a non-constant upper bound", l.var))?;
        ranges.push((lo, hi));
    }
    let mut out = Vec::new();
    bisect(nest, &mut ranges, leaf as i64, &mut out)?;
    crate::layout::stats::COT_NESTS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ok(out)
}

/// [`cache_oblivious`] applied to `program.nests[at]`, splicing the leaf
/// sequence in place of the original nest.
pub fn cache_oblivious_in_program(
    program: &Program,
    at: usize,
    leaf: u64,
) -> Result<Program, String> {
    if at >= program.nests.len() {
        return Err(format!("no nest at index {at}"));
    }
    let leaves = cache_oblivious(&program.nests[at], leaf)?;
    let mut p = program.clone();
    p.nests.splice(at..=at, leaves);
    Ok(p)
}

/// Effective constant bound: max of the lower-bound list / min of the
/// upper-bound list, `None` if any expression references a variable.
fn const_bound(exprs: &[AffineExpr], lower: bool) -> Option<i64> {
    let mut acc: Option<i64> = None;
    for e in exprs {
        if !e.is_constant() {
            return None;
        }
        let c = e.constant_term();
        acc = Some(match acc {
            None => c,
            Some(a) if lower => a.max(c),
            Some(a) => a.min(c),
        });
    }
    acc
}

/// Guard against pathological recursions on fuzz-generated extents.
const MAX_COT_LEAVES: usize = 1 << 16;

fn bisect(
    nest: &LoopNest,
    ranges: &mut [(i64, i64)],
    leaf: i64,
    out: &mut Vec<LoopNest>,
) -> Result<(), String> {
    let mut best = usize::MAX;
    let mut best_trip = leaf;
    for (d, &(lo, hi)) in ranges.iter().enumerate() {
        let trip = hi - lo + 1;
        if trip > best_trip {
            best = d;
            best_trip = trip;
        }
    }
    if best == usize::MAX {
        if out.len() >= MAX_COT_LEAVES {
            return Err(format!(
                "recursive tiling would exceed {MAX_COT_LEAVES} leaves"
            ));
        }
        let loops = nest
            .loops
            .iter()
            .zip(ranges.iter())
            .map(|(l, &(lo, hi))| Loop {
                var: l.var.clone(),
                lowers: vec![AffineExpr::constant(lo)],
                uppers: vec![AffineExpr::constant(hi)],
                step: l.step,
            })
            .collect();
        out.push(LoopNest {
            name: format!("{}@cot{}", nest.name, out.len()),
            loops,
            body: nest.body.clone(),
        });
        return Ok(());
    }
    let (lo, hi) = ranges[best];
    let mid = lo + (hi - lo) / 2;
    // A reversed loop executes its high half first; bisect in execution
    // order so 1-D recursions preserve the exact sequence.
    let halves = if nest.loops[best].step >= 0 {
        [(lo, mid), (mid + 1, hi)]
    } else {
        [(mid + 1, hi), (lo, mid)]
    };
    for h in halves {
        ranges[best] = h;
        bisect(nest, ranges, leaf, out)?;
    }
    ranges[best] = (lo, hi);
    Ok(())
}

/// Where `orig_level` sits after earlier strip-mines in `order[..upto]`
/// inserted controlling loops above it.
fn adjusted_level(orig_level: usize, spec: &[(usize, u64)], order: &[usize], at: usize) -> usize {
    let mut level = orig_level;
    for &k in order {
        if k == at {
            break;
        }
        if spec[k].0 <= orig_level {
            level += 1;
        }
    }
    level
}

/// Permutation that allows element loops to reference controller variables
/// as long as every controller ends up outside its element loop. Dependence
/// legality is still enforced.
fn permute_unchecked_bounds(
    nest: &LoopNest,
    perm: &[usize],
    controllers: &[String],
) -> Result<LoopNest, String> {
    permutation_legal(nest, perm)?;
    let out = LoopNest {
        name: nest.name.clone(),
        loops: perm.iter().map(|&k| nest.loops[k].clone()).collect(),
        body: nest.body.clone(),
    };
    // Verify scoping: every variable used in a bound must be defined by an
    // outer loop of the permuted nest.
    let mut outer: Vec<&str> = Vec::new();
    for l in &out.loops {
        for e in l.lowers.iter().chain(&l.uppers) {
            for v in e.vars() {
                if !outer.contains(&v) {
                    return Err(format!(
                        "tiling scoping violation: bound of {} references {v} (controllers: {controllers:?})",
                        l.var
                    ));
                }
            }
        }
        outer.push(&l.var);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayDecl;
    use crate::expr::AffineExpr as E;
    use crate::layout::DataLayout;
    use crate::program::{figure2_example, Program};
    use crate::reference::ArrayRef;
    use crate::trace_gen::generate;
    use mlc_cache_sim::trace::RecordingSink;

    /// Collect the sorted multiset of addresses a single-nest program touches.
    fn address_multiset(p: &Program) -> Vec<u64> {
        let l = DataLayout::contiguous(&p.arrays);
        let mut rec = RecordingSink::default();
        generate(p, &l, &mut rec);
        let mut v: Vec<u64> = rec.accesses.iter().map(|a| a.addr).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn permutation_preserves_access_multiset() {
        let p = figure2_example(20);
        let mut q = p.clone();
        q.nests[0] = permute(&p.nests[0], &[1, 0]).unwrap();
        q.nests[1] = permute(&p.nests[1], &[1, 0]).unwrap();
        assert_eq!(address_multiset(&p), address_multiset(&q));
    }

    #[test]
    fn fusion_preserves_access_multiset() {
        let p = figure2_example(20);
        let q = fuse_in_program(&p, 0).unwrap();
        assert_eq!(q.nests.len(), 1);
        assert_eq!(q.nests[0].body.len(), 10);
        assert_eq!(address_multiset(&p), address_multiset(&q));
    }

    #[test]
    fn figure6_fused_body_order() {
        let p = figure2_example(20);
        let q = fuse_in_program(&p, 0).unwrap();
        // First nest's six refs, then the second nest's four.
        let offsets: Vec<i64> = q.nests[0]
            .body
            .iter()
            .map(|r| r.subscripts[1].constant_term())
            .collect();
        assert_eq!(offsets, vec![0, 1, 0, 1, 0, 1, -1, 0, 1, 0]);
    }

    #[test]
    fn strip_mine_preserves_access_multiset() {
        let p = figure2_example(24);
        let mut q = p.clone();
        q.nests[0] = strip_mine(&p.nests[0], 1, 7, "iT").unwrap();
        let mut r = p.clone();
        r.nests[0] = p.nests[0].clone();
        assert_eq!(address_multiset(&r), address_multiset(&q));
    }

    #[test]
    fn strip_mine_shape_matches_figure8() {
        let nest = figure2_example(24).nests[0].clone();
        let sm = strip_mine(&nest, 1, 8, "ii").unwrap();
        assert_eq!(sm.depth(), 3);
        assert_eq!(sm.loops[1].var, "ii");
        assert_eq!(sm.loops[1].step, 8);
        assert_eq!(sm.loops[2].var, "i");
        // Inner loop: i from ii to min(ii+7, orig upper).
        assert_eq!(sm.loops[2].lowers, vec![E::var("ii")]);
        assert_eq!(sm.loops[2].uppers[0], E::var_plus("ii", 7));
        assert_eq!(sm.loops[2].uppers[1], E::constant(23));
    }

    fn matmul_model(n: usize) -> Program {
        // do J { do K { do I { C(I,J) += A(I,K) * B(K,J) } } }
        let mut p = Program::new("mm");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
        let c = p.add_array(ArrayDecl::f64("C", vec![n, n]));
        let nn = n as i64 - 1;
        p.add_nest(LoopNest::new(
            "mm",
            vec![
                Loop::counted("J", 0, nn),
                Loop::counted("K", 0, nn),
                Loop::counted("I", 0, nn),
            ],
            vec![
                ArrayRef::read(a, vec![E::var("I"), E::var("K")]),
                ArrayRef::read(b, vec![E::var("K"), E::var("J")]),
                ArrayRef::read(c, vec![E::var("I"), E::var("J")]),
                ArrayRef::write(c, vec![E::var("I"), E::var("J")]),
            ],
        ));
        p
    }

    #[test]
    fn tiled_matmul_matches_figure8_loop_order() {
        let p = matmul_model(12);
        // Tile K by W=4 and I by H=3: KK, II, J, K, I.
        let tiled = tile(&p.nests[0], &[(1, 4), (2, 3)]).unwrap();
        let vars = tiled.loop_vars();
        assert_eq!(vars, vec!["KK", "II", "J", "K", "I"]);
        let mut q = p.clone();
        q.nests[0] = tiled;
        assert_eq!(address_multiset(&p), address_multiset(&q));
    }

    #[test]
    fn tiling_with_non_dividing_tile_still_covers() {
        let p = matmul_model(10);
        let tiled = tile(&p.nests[0], &[(1, 3), (2, 4)]).unwrap();
        let mut q = p.clone();
        q.nests[0] = tiled;
        assert_eq!(address_multiset(&p), address_multiset(&q));
    }

    #[test]
    fn reversal_flips_step_and_preserves_multiset() {
        let p = figure2_example(16);
        let rev = reverse(&p.nests[0], 1).unwrap();
        assert_eq!(rev.loops[1].step, -1);
        let mut q = p.clone();
        q.nests[0] = rev;
        assert_eq!(address_multiset(&p), address_multiset(&q));
    }

    #[test]
    fn illegal_permutation_refused() {
        let nest = LoopNest::new(
            "t",
            vec![Loop::counted("i", 1, 8), Loop::counted("j", 1, 8)],
            vec![
                ArrayRef::write(0, vec![E::var("i"), E::var("j")]),
                ArrayRef::read(0, vec![E::var_plus("i", -1), E::var_plus("j", 1)]),
            ],
        );
        assert!(permute(&nest, &[1, 0]).is_err());
    }

    #[test]
    fn permute_rejects_triangular_without_skew() {
        let nest = LoopNest::new(
            "t",
            vec![
                Loop::counted("j", 0, 9),
                Loop::new("i", E::constant(0), E::var("j")),
            ],
            vec![],
        );
        let err = permute(&nest, &[1, 0]).unwrap_err();
        assert!(err.contains("would not enclose"), "{err}");
    }

    #[test]
    fn fuse_rejects_nonadjacent_oob() {
        let p = figure2_example(16);
        assert!(fuse_in_program(&p, 1).is_err());
    }

    #[test]
    fn skew_preserves_exact_trace() {
        // Skewing renumbers iterations without reordering them: the full
        // access *sequence* (not just the multiset) is unchanged.
        let p = figure2_example(12);
        let layout = DataLayout::contiguous(&p.arrays);
        let mut before = mlc_cache_sim::trace::RecordingSink::default();
        crate::trace_gen::generate_nest(&p, &p.nests[0], &layout, &mut before);
        for factor in [1i64, 2, -1] {
            let skewed = skew(&p.nests[0], 0, 1, factor).unwrap();
            let mut after = mlc_cache_sim::trace::RecordingSink::default();
            crate::trace_gen::generate_nest(&p, &skewed, &layout, &mut after);
            assert_eq!(before.accesses, after.accesses, "factor {factor}");
        }
    }

    #[test]
    fn skew_rewrites_bounds_and_subscripts() {
        // A(i,j) = A(i-1,j) + A(i,j-1) skewed by j' = j + i: bounds of the
        // inner loop gain +i, and subscripts substitute j = j' - i. (The
        // coupled subscripts put the result outside the UGS distance
        // analyzer's domain — it conservatively refuses — but the exact
        // trace-preservation test above establishes semantics.)
        let nest = LoopNest::new(
            "wf",
            vec![Loop::counted("i", 1, 8), Loop::counted("j", 1, 8)],
            vec![
                ArrayRef::write(0, vec![E::var("i"), E::var("j")]),
                ArrayRef::read(0, vec![E::var_plus("i", -1), E::var("j")]),
                ArrayRef::read(0, vec![E::var("i"), E::var_plus("j", -1)]),
            ],
        );
        let skewed = skew(&nest, 0, 1, 1).unwrap();
        // Bounds: j' in (1 + i) ..= (8 + i).
        assert_eq!(skewed.loops[1].lowers[0], E::var("i").plus(1));
        assert_eq!(skewed.loops[1].uppers[0], E::var("i").plus(8));
        // Subscript dim 1 of the write became j' - i.
        let s = &skewed.body[0].subscripts[1];
        assert_eq!(s.coeff("j"), 1);
        assert_eq!(s.coeff("i"), -1);
        assert!(crate::dependence::carried_distances(&skewed).is_err());
    }

    #[test]
    fn skew_rejects_bad_levels() {
        let p = figure2_example(8);
        assert!(skew(&p.nests[0], 1, 1, 1).is_err());
        assert!(skew(&p.nests[0], 0, 5, 1).is_err());
    }

    /// The paper's Figure 1: transposing A turns the column-jumping
    /// A(j,i) into the unit-stride A(i,j).
    #[test]
    fn transpose_restores_unit_stride() {
        let (n, m) = (16usize, 8usize);
        let mut p = Program::new("fig1");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, m]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n]));
        p.add_nest(LoopNest::new(
            "orig",
            vec![
                Loop::counted("j", 0, n as i64 - 1),
                Loop::counted("i", 0, m as i64 - 1),
            ],
            vec![
                ArrayRef::read(a, vec![E::var("j"), E::var("i")]),
                ArrayRef::write(b, vec![E::var("j")]),
            ],
        ));
        let t = transpose_array(&p, a, &[1, 0]).unwrap();
        assert_eq!(t.arrays[a].dims, vec![m, n]);
        // A(j,i) became A(i,j): unit stride on the inner i loop.
        assert_eq!(t.nests[0].body[0].subscripts[0], E::var("i"));
        assert_eq!(t.nests[0].body[0].subscripts[1], E::var("j"));
        t.validate().unwrap();
        // Same number of accesses, and per-iteration addresses differ by a
        // transposition: the inner loop is now sequential.
        let layout = DataLayout::contiguous(&t.arrays);
        let mut rec = mlc_cache_sim::trace::RecordingSink::default();
        generate(&t, &layout, &mut rec);
        assert_eq!(rec.accesses[0].addr + 8, rec.accesses[2].addr);
    }

    #[test]
    fn transpose_rejects_bad_permutation() {
        let p = figure2_example(8);
        assert!(transpose_array(&p, 0, &[0]).is_err());
        assert!(transpose_array(&p, 0, &[0, 0]).is_err());
    }

    #[test]
    fn transpose_preserves_logical_access_count() {
        let p = figure2_example(12);
        let t = transpose_array(&p, 1, &[1, 0]).unwrap();
        assert_eq!(p.const_references(), t.const_references());
    }

    #[test]
    fn transpose_moves_intra_pads_with_dims() {
        let mut p = figure2_example(8);
        p.arrays[0].set_dim_pad(0, 3);
        let t = transpose_array(&p, 0, &[1, 0]).unwrap();
        assert_eq!(t.arrays[0].dim_pad, vec![0, 3]);
    }

    #[test]
    fn cache_oblivious_preserves_access_multiset() {
        for (n, leaf) in [(12usize, 4u64), (10, 3), (7, 2)] {
            let p = matmul_model(n);
            let q = cache_oblivious_in_program(&p, 0, leaf).unwrap();
            assert!(q.nests.len() > 1, "n={n} leaf={leaf}");
            assert_eq!(
                address_multiset(&p),
                address_multiset(&q),
                "n={n} leaf={leaf}"
            );
        }
    }

    #[test]
    fn cache_oblivious_small_nest_is_a_single_leaf() {
        let p = matmul_model(4);
        let leaves = cache_oblivious(&p.nests[0], 8).unwrap();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].loop_vars(), p.nests[0].loop_vars());
        assert_eq!(leaves[0].loops[0].lowers, vec![E::constant(0)]);
        assert_eq!(leaves[0].loops[0].uppers, vec![E::constant(3)]);
    }

    #[test]
    fn cache_oblivious_bisects_largest_dimension_first() {
        // 8×2 space, leaf 2: only the first dimension splits, in order.
        let nest = LoopNest::new(
            "t",
            vec![Loop::counted("i", 0, 7), Loop::counted("j", 0, 1)],
            vec![ArrayRef::read(0, vec![E::var("i"), E::var("j")])],
        );
        let leaves = cache_oblivious_unchecked(&nest, 2).unwrap();
        let spans: Vec<(i64, i64)> = leaves
            .iter()
            .map(|l| {
                (
                    l.loops[0].lowers[0].constant_term(),
                    l.loops[0].uppers[0].constant_term(),
                )
            })
            .collect();
        assert_eq!(spans, vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
    }

    #[test]
    fn cache_oblivious_reversed_loop_keeps_exact_sequence() {
        let mut p = Program::new("rev");
        let a = p.add_array(ArrayDecl::f64("A", vec![16]));
        let mut l = Loop::counted("i", 0, 15);
        l.step = -1;
        p.add_nest(LoopNest::new(
            "rev",
            vec![l],
            vec![ArrayRef::read(a, vec![E::var("i")])],
        ));
        let q = cache_oblivious_in_program(&p, 0, 4).unwrap();
        assert_eq!(q.nests.len(), 4);
        let layout = DataLayout::contiguous(&p.arrays);
        let mut before = RecordingSink::default();
        generate(&p, &layout, &mut before);
        let mut after = RecordingSink::default();
        generate(&q, &layout, &mut after);
        assert_eq!(before.accesses, after.accesses);
    }

    #[test]
    fn cache_oblivious_refuses_non_permutable_nests() {
        // Distance (1, -1): blocking the space would run the source after
        // its sink.
        let nest = LoopNest::new(
            "t",
            vec![Loop::counted("i", 1, 8), Loop::counted("j", 1, 8)],
            vec![
                ArrayRef::write(0, vec![E::var("i"), E::var("j")]),
                ArrayRef::read(0, vec![E::var_plus("i", -1), E::var_plus("j", 1)]),
            ],
        );
        let err = cache_oblivious(&nest, 2).unwrap_err();
        assert!(err.contains("fully permutable"), "{err}");
        // The unchecked variant still covers the space exactly once.
        let mut p = Program::new("t");
        p.add_array(ArrayDecl::f64("A", vec![10, 10]));
        p.add_nest(nest);
        let leaves = cache_oblivious_unchecked(&p.nests[0], 2).unwrap();
        let mut q = p.clone();
        q.nests.splice(0..=0, leaves);
        assert_eq!(address_multiset(&p), address_multiset(&q));
    }

    #[test]
    fn cache_oblivious_refuses_non_constant_bounds() {
        let nest = LoopNest::new(
            "t",
            vec![
                Loop::counted("j", 0, 9),
                Loop::new("i", E::constant(0), E::var("j")),
            ],
            vec![],
        );
        let err = cache_oblivious_unchecked(&nest, 2).unwrap_err();
        assert!(err.contains("non-constant"), "{err}");
    }
}
