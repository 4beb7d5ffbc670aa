//! The heuristic two-level minimizer: EXPAND / IRREDUNDANT / REDUCE.
//!
//! This is a faithful, compact implementation of the classic ESPRESSO
//! operator loop. It is deliberately *conventional*: the whole point of the
//! N-SHOT architecture is that no hazard-related constraint is imposed on the
//! minimizer — the don't-care set may be used freely and the result is just a
//! good sum-of-products cover.

use crate::oracle::Oracle;
use crate::{Cover, Cube, Function};

/// Statistics reported by [`espresso_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EspressoStats {
    /// Number of EXPAND/IRREDUNDANT/REDUCE iterations executed.
    pub iterations: usize,
    /// Cube count of the initial (unminimized) cover.
    pub initial_cubes: usize,
    /// Cube count of the result.
    pub final_cubes: usize,
    /// Literal count of the result.
    pub final_literals: usize,
}

/// Minimize `f`, returning a prime, irredundant cover of the ON-set that may
/// dip freely into the DC-set.
///
/// The result is guaranteed to implement `f`: it covers every ON point and no
/// OFF point (checked with `debug_assert!` in debug builds).
pub fn espresso(f: &Function) -> Cover {
    espresso_with_stats(f).0
}

/// Above this many initial cubes the IRREDUNDANT/REDUCE refinement (whose
/// tautology checks are super-linear in cover size) is skipped and only
/// EXPAND + single-cube containment runs. The result is still a valid prime
/// cover — just not guaranteed irredundant. This keeps the largest Table 2
/// benchmarks (thousands of states) tractable.
const REFINEMENT_CUBE_LIMIT: usize = 1_200;

/// Like [`espresso`], but also reports loop statistics.
pub fn espresso_with_stats(f: &Function) -> (Cover, EspressoStats) {
    let (cover, stats) = minimize(f.on_set(), &*f.oracle());
    debug_assert!(
        f.is_implemented_by(&cover),
        "espresso produced an incorrect cover"
    );
    (cover, stats)
}

/// The ESPRESSO loop over either [`Oracle`]: both function forms run exactly
/// this code, so equal oracle answers give equal covers.
fn minimize(on: &Cover, oracle: &dyn Oracle) -> (Cover, EspressoStats) {
    let mut stats = EspressoStats {
        initial_cubes: on.num_cubes(),
        ..EspressoStats::default()
    };
    if on.is_empty() {
        stats.final_cubes = 0;
        return (Cover::empty(on.num_vars()), stats);
    }

    let fast_mode = on.num_cubes() > REFINEMENT_CUBE_LIMIT;
    let mut cover = on.clone();
    cover.single_cube_containment();
    expand(&mut cover, oracle);
    if fast_mode {
        stats.iterations = 1;
        stats.final_cubes = cover.num_cubes();
        stats.final_literals = cover.literal_count();
        return (cover, stats);
    }
    irredundant(&mut cover, oracle, &[], on);
    stats.iterations = 1;

    // Essential primes are set aside: they must appear in every cover, so
    // the refinement loop only has to work on the rest (the classic
    // ESPRESSO decomposition).
    let essentials = essential_primes(&cover, oracle);
    if !essentials.is_empty() && essentials.num_cubes() < cover.num_cubes() {
        let mut rest = Cover::from_cubes(
            on.num_vars(),
            cover
                .iter()
                .filter(|c| !essentials.iter().any(|e| e == *c))
                .cloned()
                .collect(),
        );
        let mut best_rest = rest.clone();
        let mut best_rest_cost = cost(&rest);
        for _ in 0..16 {
            reduce(&mut rest, oracle, essentials.cubes());
            expand(&mut rest, oracle);
            irredundant(&mut rest, oracle, essentials.cubes(), on);
            stats.iterations += 1;
            let c = cost(&rest);
            if c < best_rest_cost {
                best_rest = rest.clone();
                best_rest_cost = c;
            } else {
                break;
            }
        }
        cover = essentials.union(&best_rest);
        irredundant(&mut cover, oracle, &[], on);
    }

    let mut best = cover.clone();
    let mut best_cost = cost(&best);
    // REDUCE / EXPAND / IRREDUNDANT until no improvement.
    for _ in 0..16 {
        reduce(&mut cover, oracle, &[]);
        expand(&mut cover, oracle);
        irredundant(&mut cover, oracle, &[], on);
        stats.iterations += 1;
        let c = cost(&cover);
        if c < best_cost {
            best = cover.clone();
            best_cost = c;
        } else {
            break;
        }
    }

    // LAST_GASP: try reduced cubes expanded in isolation; keep any that
    // let the irredundant pass drop more cubes.
    let mut gasp = best.clone();
    reduce(&mut gasp, oracle, &[]);
    expand(&mut gasp, oracle);
    let mut candidate = best.union(&gasp);
    candidate.single_cube_containment();
    irredundant(&mut candidate, oracle, &[], on);
    if cost(&candidate) < best_cost {
        best = candidate;
    }

    stats.final_cubes = best.num_cubes();
    stats.final_literals = best.literal_count();
    (best, stats)
}

/// Cost: primary = cube count, secondary = literal count.
fn cost(c: &Cover) -> (usize, usize) {
    (c.num_cubes(), c.literal_count())
}

/// The cubes of `cubes` other than index `skip`, followed by `extra`.
fn others<'a>(cubes: &'a [Cube], skip: usize, extra: &'a [Cube]) -> Vec<&'a Cube> {
    cubes
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != skip)
        .map(|(_, c)| c)
        .chain(extra)
        .collect()
}

/// The relatively essential cubes of `cover`: those not covered by the rest
/// of the cover plus the don't-care set. Every valid cover made of these
/// primes must contain them.
pub(crate) fn essential_primes(cover: &Cover, oracle: &dyn Oracle) -> Cover {
    let mut essentials = Cover::empty(cover.num_vars());
    for (i, cube) in cover.iter().enumerate() {
        if !oracle.covers(&others(cover.cubes(), i, &[]), cube) {
            essentials.push(cube.clone());
        }
    }
    essentials
}

/// EXPAND: make every cube prime by greedily raising literals while the cube
/// stays disjoint from the OFF-set, then remove covered cubes.
///
/// Raising single literals yields primes: a cube is prime iff no single
/// literal can be removed without hitting the OFF-set. One sweep over the
/// raise order is enough, because a rejected raise stays rejected: the cube
/// only grows, and a superset of a trial that meets OFF meets OFF too.
///
/// The oracle is asked only when the answer is not already known. Every
/// cube that enters EXPAND is OFF-free (an ON minterm, a DC cube or a
/// consensus of two primes in [`crate::all_primes`], or a REDUCE result,
/// which only shrinks a cover cube), and EXPAND accepts only OFF-free
/// raises, so every prime it has finished is OFF-free. A subcube of an
/// OFF-free cube is OFF-free, so a trial inside a finished prime is
/// accepted without asking: that is the oracle's own answer. A trial lies
/// inside a prime only if the cube before the raise does, so each cube
/// tests its trials only against the primes that contain it.
pub(crate) fn expand(cover: &mut Cover, oracle: &dyn Oracle) {
    let order = oracle.raise_order();
    let mut cubes: Vec<Cube> = cover.iter().cloned().collect();
    // Expand most-specific cubes first so expanded primes absorb the rest.
    cubes.sort_by_key(Cube::literal_count);
    cubes.reverse();

    // Indices of the distinct primes finished so far, and of those that
    // contain the cube being raised.
    let mut primes: Vec<usize> = Vec::new();
    let mut around: Vec<usize> = Vec::new();
    for i in 0..cubes.len() {
        let (done, rest) = cubes.split_at_mut(i);
        let c = &mut rest[0];
        around.clear();
        around.extend(primes.iter().copied().filter(|&p| done[p].contains(c)));
        for &v in &order {
            let positive = match c.polarity(v) {
                crate::Polarity::Positive => true,
                crate::Polarity::Negative => false,
                _ => continue,
            };
            c.raise(v);
            if around.iter().any(|&p| done[p].contains(c)) {
                around.retain(|&p| done[p].contains(c));
            } else if oracle.meets_off(c) {
                c.set(v, positive);
            } else {
                // The trial lies in no listed prime, and it only grows.
                around.clear();
            }
        }
        // A prime inside another prime equals it, so only a cube that no
        // listed prime contains is a new one.
        if around.is_empty() {
            debug_assert!(
                !oracle.meets_off(c),
                "EXPAND met a cube that is not OFF-free"
            );
            primes.push(i);
        }
    }
    let mut result = Cover::from_cubes(cover.num_vars(), cubes);
    result.single_cube_containment();
    *cover = result;
}

/// IRREDUNDANT: greedily drop cubes that are covered by the remaining cover
/// plus `extra` plus the DC-set, while preserving coverage of the original
/// ON-set.
fn irredundant(cover: &mut Cover, oracle: &dyn Oracle, extra: &[Cube], on: &Cover) {
    let mut cubes: Vec<Cube> = cover.iter().cloned().collect();
    // Try to drop large cubes last: removing small ones first tends to keep
    // the big primes that cover many ON points.
    cubes.sort_by_key(Cube::literal_count);
    cubes.reverse();
    let mut keep = vec![true; cubes.len()];
    for i in 0..cubes.len() {
        keep[i] = false;
        let rest: Vec<&Cube> = cubes
            .iter()
            .zip(&keep)
            .filter(|&(_, &k)| k)
            .map(|(c, _)| c)
            .chain(extra)
            .collect();
        if !oracle.covers(&rest, &cubes[i]) {
            keep[i] = true;
        }
    }
    let kept: Vec<Cube> = cubes
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(c, _)| c)
        .collect();
    debug_assert!(
        {
            let rest: Vec<&Cube> = kept.iter().chain(extra).collect();
            on.iter().all(|c| oracle.covers(&rest, c))
        },
        "irredundant dropped ON coverage"
    );
    *cover = Cover::from_cubes(cover.num_vars(), kept);
}

/// REDUCE: shrink each cube to the smallest cube that still covers its unique
/// share of the ON-set (against the other cubes, `extra` and the DC-set),
/// opening room for EXPAND to find different primes.
fn reduce(cover: &mut Cover, oracle: &dyn Oracle, extra: &[Cube]) {
    let mut cubes: Vec<Cube> = cover.iter().cloned().collect();
    // Standard heuristic order: reduce the biggest cubes first.
    cubes.sort_by_key(Cube::literal_count);
    for i in 0..cubes.len() {
        // A cube the others already cover keeps its shape: the oracle
        // returns it unchanged, and IRREDUNDANT decides whether it stays.
        let reduced = oracle.reduce(&others(&cubes, i, extra), &cubes[i]);
        cubes[i] = reduced;
    }
    *cover = Cover::from_cubes(cover.num_vars(), cubes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Function;

    fn check(f: &Function) -> Cover {
        let c = espresso(f);
        assert!(f.is_implemented_by(&c), "cover must implement the function");
        c
    }

    #[test]
    fn empty_on_set_gives_empty_cover() {
        let f = Function::new(Cover::empty(3), Cover::empty(3));
        assert!(espresso(&f).is_empty());
    }

    #[test]
    fn single_minterm() {
        let f = Function::new(Cover::from_minterms(3, &[0b101]), Cover::empty(3));
        let c = check(&f);
        assert_eq!(c.num_cubes(), 1);
        assert_eq!(c.literal_count(), 3);
    }

    #[test]
    fn merges_adjacent_minterms() {
        // ON = {00, 01} over 2 vars → single cube !a (var0 = a).
        let f = Function::new(Cover::from_minterms(2, &[0b00, 0b10]), Cover::empty(2));
        let c = check(&f);
        assert_eq!(c.num_cubes(), 1);
        assert_eq!(c.literal_count(), 1);
    }

    #[test]
    fn uses_dont_cares() {
        // ON = {111}, DC = {110, 101, 011} → can reduce literals.
        let f = Function::new(
            Cover::from_minterms(3, &[0b111]),
            Cover::from_minterms(3, &[0b110, 0b101, 0b011]),
        );
        let c = check(&f);
        assert_eq!(c.num_cubes(), 1);
        assert!(c.literal_count() <= 2);
    }

    #[test]
    fn xor_needs_two_cubes() {
        let f = Function::new(Cover::from_minterms(2, &[0b01, 0b10]), Cover::empty(2));
        let c = check(&f);
        assert_eq!(c.num_cubes(), 2);
        assert_eq!(c.literal_count(), 4);
    }

    #[test]
    fn classic_four_var_function() {
        // f = Σ(0,1,2,3,8,9,10,11) = !x3 … wait: minterms where bit3 clear in
        // {0..3} and bit3 set in {8..11}: both have bits {2}=0 → f = !x2.
        let ms: Vec<u64> = vec![0, 1, 2, 3, 8, 9, 10, 11];
        let f = Function::new(Cover::from_minterms(4, &ms), Cover::empty(4));
        let c = check(&f);
        assert_eq!(c.num_cubes(), 1);
        assert_eq!(c.literal_count(), 1);
    }

    #[test]
    fn result_is_prime_and_irredundant() {
        let ms: Vec<u64> = vec![1, 3, 5, 7, 6];
        let f = Function::new(Cover::from_minterms(3, &ms), Cover::empty(3));
        let c = check(&f);
        // Every cube must be prime: raising any literal hits the off-set.
        for cube in c.iter() {
            for v in 0..3 {
                if matches!(
                    cube.polarity(v),
                    crate::Polarity::Positive | crate::Polarity::Negative
                ) {
                    let mut raised = cube.clone();
                    raised.raise(v);
                    assert!(
                        f.off_set().iter().any(|o| o.intersects(&raised)),
                        "cube {cube} is not prime (can raise var {v})"
                    );
                }
            }
        }
        // Irredundant: dropping any cube must lose an ON point.
        for i in 0..c.num_cubes() {
            let rest: Vec<_> = c
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, x)| x.clone())
                .collect();
            let rest = Cover::from_cubes(3, rest).union(f.dc_set());
            assert!(
                !rest.contains_cover(f.on_set()),
                "cube {i} is redundant in the result"
            );
        }
    }

    #[test]
    fn stats_are_populated() {
        let f = Function::new(Cover::from_minterms(3, &[0, 1, 2, 3]), Cover::empty(3));
        let (c, stats) = espresso_with_stats(&f);
        assert_eq!(stats.initial_cubes, 4);
        assert_eq!(stats.final_cubes, c.num_cubes());
        assert!(stats.iterations >= 1);
        assert_eq!(c.num_cubes(), 1);
    }
}

#[cfg(test)]
mod essential_tests {
    use super::*;
    use crate::Function;

    #[test]
    fn essential_primes_are_detected() {
        // f = Σ(0,1,5,7): primes x̄y̅? — concretely: cube x0'x1' (covers 0,1
        // over vars {x1,x2}?) — use the classic: ON = {00-, 1-1} shapes.
        // minterms over 3 vars: 0=000, 1=100, 5=101, 7=111 (bit0 = x0).
        let f = Function::new(Cover::from_minterms(3, &[0, 1, 5, 7]), Cover::empty(3));
        let cover = espresso(&f);
        let ess = essential_primes(&cover, &*f.oracle());
        // Minterm 0 is only coverable by the x1'x2' cube; minterm 7 only by
        // the x0x2 cube — both of those primes are essential.
        assert!(ess.num_cubes() >= 2, "{cover:?} → {ess:?}");
        assert!(f.is_implemented_by(&cover));
    }

    #[test]
    fn essentials_of_disjoint_cubes_are_all() {
        let f = Function::new(Cover::from_minterms(2, &[0b00, 0b11]), Cover::empty(2));
        let cover = espresso(&f);
        let ess = essential_primes(&cover, &*f.oracle());
        assert_eq!(ess.num_cubes(), cover.num_cubes());
    }

    #[test]
    fn last_gasp_never_worsens() {
        // Regression guard: the LAST_GASP candidate only replaces the best
        // cover when strictly cheaper. Exercise with a function whose primes
        // overlap heavily.
        let ms: Vec<u64> = (0..16).filter(|m| m % 3 != 0).collect();
        let f = Function::new(Cover::from_minterms(4, &ms), Cover::empty(4));
        let cover = espresso(&f);
        assert!(f.is_implemented_by(&cover));
        let exact = crate::minimize_exact(&f).expect("small");
        assert!(cover.num_cubes() <= exact.num_cubes() + 2, "heuristic close to exact");
    }
}
