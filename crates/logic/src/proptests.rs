//! Property-based tests over the cube/cover algebra and the minimizers.
//! Inputs come from the fixed-seed driver in `nshot_par::prop`.

use crate::oracle::PointOracle;
use crate::{espresso, minimize_exact, Cover, Cube, Function, Polarity};
use nshot_par::prop::{self, Gen};

const NVARS: usize = 5;

fn arb_minterms(g: &mut Gen) -> Vec<u64> {
    g.subset(1 << NVARS, 12).into_iter().map(|m| m as u64).collect()
}

fn arb_cube(g: &mut Gen) -> Cube {
    let mut c = Cube::full(NVARS);
    for v in 0..NVARS {
        match g.index(3) {
            0 => c.set(v, false),
            1 => c.set(v, true),
            _ => {}
        }
    }
    c
}

#[test]
fn cube_containment_agrees_with_minterms() {
    prop::check("logic_cube_containment", |g| {
        let a = arb_cube(g);
        let b = arb_cube(g);
        let semantic = b.minterms().iter().all(|&m| a.contains_minterm(m));
        assert_eq!(a.contains(&b), semantic || b.is_empty());
    });
}

#[test]
fn intersection_is_semantic() {
    prop::check("logic_intersection_semantic", |g| {
        let a = arb_cube(g);
        let b = arb_cube(g);
        let i = a.intersect(&b);
        for m in 0..(1u64 << NVARS) {
            assert_eq!(
                i.contains_minterm(m),
                a.contains_minterm(m) && b.contains_minterm(m)
            );
        }
    });
}

#[test]
fn supercube_contains_both() {
    prop::check("logic_supercube_contains_both", |g| {
        let a = arb_cube(g);
        let b = arb_cube(g);
        let s = a.supercube(&b);
        assert!(s.contains(&a));
        assert!(s.contains(&b));
    });
}

#[test]
fn espresso_implements_function() {
    prop::check("logic_espresso_implements", |g| {
        let on = arb_minterms(g);
        let dc: Vec<u64> = arb_minterms(g)
            .into_iter()
            .filter(|m| !on.contains(m))
            .collect();
        let f = Function::from_on_dc(NVARS, &on, &dc);
        let c = espresso(&f);
        assert!(f.is_implemented_by(&c));
        // Every ON minterm covered, every OFF minterm not.
        for m in 0..(1u64 << NVARS) {
            if on.contains(&m) {
                assert!(c.contains_minterm(m));
            } else if !dc.contains(&m) {
                assert!(!c.contains_minterm(m));
            }
        }
    });
}

#[test]
fn exact_never_worse_than_heuristic() {
    prop::check("logic_exact_never_worse", |g| {
        let on = arb_minterms(g);
        let dc: Vec<u64> = arb_minterms(g)
            .into_iter()
            .filter(|m| !on.contains(m))
            .collect();
        let f = Function::from_on_dc(NVARS, &on, &dc);
        let heur = espresso(&f);
        let exact = minimize_exact(&f).expect("table is tiny");
        assert!(f.is_implemented_by(&exact));
        assert!(exact.num_cubes() <= heur.num_cubes());
    });
}

#[test]
fn multi_output_implements_every_function() {
    prop::check("logic_multi_output_implements", |g| {
        let functions: Vec<Function> = (0..3)
            .map(|_| {
                let on = arb_minterms(g);
                Function::from_on_dc(NVARS, &on, &[])
            })
            .collect();
        let multi = crate::espresso_multi(&functions);
        for (j, f) in functions.iter().enumerate() {
            assert!(f.is_implemented_by(&multi.cover_for(j)), "function {j}");
        }
        // Sharing never needs more gates than independent minimization.
        let independent: usize = functions.iter().map(|f| espresso(f).num_cubes()).sum();
        assert!(multi.num_product_terms() <= independent);
    });
}

/// EXPAND as the plain ESPRESSO loop states it: every trial is a fresh
/// clone, every raise asks the oracle, and each cube is swept in variable
/// order until a full pass changes nothing. The fast EXPAND must return the
/// same cube list.
fn reference_expand(cover: &Cover, oracle: &PointOracle) -> Cover {
    let mut cubes: Vec<Cube> = cover.iter().cloned().collect();
    cubes.sort_by_key(Cube::literal_count);
    cubes.reverse();
    for c in &mut cubes {
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..cover.num_vars() {
                if matches!(c.polarity(v), Polarity::Positive | Polarity::Negative) {
                    let mut trial = c.clone();
                    trial.raise(v);
                    if !oracle.meets_off(&trial) {
                        *c = trial;
                        changed = true;
                    }
                }
            }
        }
    }
    reference_scc(&Cover::from_cubes(cover.num_vars(), cubes))
}

/// Single-cube containment by comparing every cube with every kept one.
fn reference_scc(cover: &Cover) -> Cover {
    let mut cubes = cover.cubes().to_vec();
    cubes.sort_by_key(|c| std::cmp::Reverse(c.free_count()));
    let mut kept: Vec<Cube> = Vec::new();
    for c in cubes {
        if !kept.iter().any(|k| k.contains(&c)) {
            kept.push(c);
        }
    }
    Cover::from_cubes(cover.num_vars(), kept)
}

/// A point-form function over 3..=12 variables whose ON codes cluster in a
/// few random blocks, so that many ON minterms share one prime. ON comes
/// shuffled with duplicates; some don't-cares are listed as reachable.
fn arb_clustered_points(g: &mut Gen) -> Function {
    let n = g.usize_in(3, 12);
    // 0 = OFF, 1 = ON, 2 = unlisted DC, 3 = listed DC.
    let mut mode: Vec<u8> = (0..1usize << n)
        .map(|_| match g.index(8) {
            0..=3 => 0,
            4 | 5 => 1,
            6 => 2,
            _ => 3,
        })
        .collect();
    for _ in 0..g.usize_in(1, 3) {
        let (mut care, value) = (0u64, g.u64() & ((1 << n) - 1));
        for v in 0..n {
            if g.index(3) == 0 {
                care |= 1 << v;
            }
        }
        for code in 0..1u64 << n {
            if code & care == value & care {
                mode[code as usize] = if g.index(6) == 0 { 2 } else { 1 };
            }
        }
    }
    let codes = |want: u8| -> Vec<u64> {
        (0..1u64 << n)
            .filter(|&c| mode[c as usize] == want)
            .collect()
    };
    let (mut on, off, qr) = (codes(1), codes(0), codes(3));
    for i in (1..on.len()).rev() {
        on.swap(i, g.index(i + 1));
    }
    for _ in 0..g.usize_in(0, 4) {
        if !on.is_empty() {
            on.insert(g.index(on.len()), on[g.index(on.len())]);
        }
    }
    Function::from_points(n, on, qr, off)
}

/// OFF-free cubes as REDUCE hands them to EXPAND: random codes that are not
/// OFF, grown by raising random literals while the oracle allows it.
fn arb_off_free_cubes(g: &mut Gen, f: &Function) -> Vec<Cube> {
    let (n, oracle) = (f.num_vars(), f.oracle());
    let mut out = Vec::new();
    for _ in 0..g.usize_in(0, 24) {
        let mut c = Cube::from_minterm(n, g.u64() & ((1 << n) - 1));
        if oracle.meets_off(&c) {
            continue;
        }
        for _ in 0..g.usize_in(0, n) {
            let mut trial = c.clone();
            trial.raise(g.index(n));
            if !oracle.meets_off(&trial) {
                c = trial;
            }
        }
        out.push(c);
    }
    out
}

#[test]
fn expand_matches_reference_on_clustered_point_functions() {
    prop::check("logic_expand_reference_points", |g| {
        let f = arb_clustered_points(g);
        let oracle = f.oracle();
        let mut cubes = f.on_set().cubes().to_vec();
        for c in arb_off_free_cubes(g, &f) {
            cubes.insert(g.index(cubes.len() + 1), c);
        }
        let input = Cover::from_cubes(f.num_vars(), cubes);
        let mut fast = input.clone();
        crate::espresso::expand(&mut fast, &oracle);
        assert_eq!(fast.cubes(), reference_expand(&input, &oracle).cubes());
    });
}

#[test]
fn single_cube_containment_matches_reference() {
    // Duplicates, cubes nested in other cubes, supercubes of other cubes
    // and now and then an empty cube, over one or two words of variables.
    // A third of the covers are minterm lists, whose one size level is
    // large enough to be looked up through a hash set.
    prop::check("logic_scc_reference", |g| {
        let minterms = g.index(3) == 0;
        let n = if minterms {
            g.usize_in(3, 8)
        } else if g.index(4) == 0 {
            g.usize_in(33, 40)
        } else {
            g.usize_in(1, 6)
        };
        let random_cube = |g: &mut Gen| {
            if minterms {
                return Cube::from_minterm(n, g.u64() & ((1 << n) - 1));
            }
            let mut c = Cube::full(n);
            for v in 0..n {
                match g.index(if n > 6 { 9 } else { 3 }) {
                    0 => c.set(v, false),
                    1 => c.set(v, true),
                    _ => {}
                }
            }
            c
        };
        let mut cubes = g.vec_with(0, if minterms { 40 } else { 12 }, random_cube);
        for _ in 0..g.usize_in(0, 36) {
            if cubes.is_empty() {
                break;
            }
            let mut c = cubes[g.index(cubes.len())].clone();
            let v = g.index(n);
            match g.index(3) {
                0 => {}
                1 => c.set(v, g.bool()),
                _ => c.raise(v),
            }
            cubes.insert(g.index(cubes.len() + 1), c);
        }
        if !cubes.is_empty() && g.index(3) == 0 {
            // Empty one field of a cube of the cover: the empty cube sits
            // in that cube's size level or the one below.
            let v = g.index(n);
            let empty = cubes[g.index(cubes.len())]
                .intersect(&Cube::from_literals(n, &[(v, true)]))
                .intersect(&Cube::from_literals(n, &[(v, false)]));
            cubes.insert(g.index(cubes.len() + 1), empty);
        }
        let cover = Cover::from_cubes(n, cubes);
        let mut fast = cover.clone();
        fast.single_cube_containment();
        assert_eq!(fast.cubes(), reference_scc(&cover).cubes());
    });
}
