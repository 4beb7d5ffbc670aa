//! Property-based tests over the cube/cover algebra and the minimizers.
//! Inputs come from the fixed-seed driver in `nshot_par::prop`.

use crate::{espresso, minimize_exact, Cover, Cube, Function};
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

fn arb_cover(g: &mut Gen) -> Cover {
    let cubes = g.vec_with(0, 5, arb_cube);
    Cover::from_cubes(NVARS, cubes)
}

#[test]
fn complement_partitions_space() {
    prop::check("logic_complement_partitions_space", |g| {
        let cover = arb_cover(g);
        let comp = cover.complement();
        for m in 0..(1u64 << NVARS) {
            assert_eq!(cover.contains_minterm(m), !comp.contains_minterm(m));
        }
    });
}

#[test]
fn tautology_agrees_with_enumeration() {
    prop::check("logic_tautology_enumeration", |g| {
        let cover = arb_cover(g);
        let full = (0..(1u64 << NVARS)).all(|m| cover.contains_minterm(m));
        assert_eq!(cover.is_tautology(), full);
    });
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
        let f = Function::new(
            Cover::from_minterms(NVARS, &on),
            Cover::from_minterms(NVARS, &dc),
        );
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
        let f = Function::new(
            Cover::from_minterms(NVARS, &on),
            Cover::from_minterms(NVARS, &dc),
        );
        let heur = espresso(&f);
        let exact = minimize_exact(&f).expect("table is tiny");
        assert!(f.is_implemented_by(&exact));
        assert!(exact.num_cubes() <= heur.num_cubes());
    });
}

#[test]
fn cofactor_shannon_expansion() {
    prop::check("logic_cofactor_shannon", |g| {
        let cover = arb_cover(g);
        let v = g.index(NVARS);
        // F == x·F_x + x̄·F_x̄ pointwise.
        let p1 = Cube::from_literals(NVARS, &[(v, true)]);
        let p0 = Cube::from_literals(NVARS, &[(v, false)]);
        let f1 = cover.cofactor(&p1);
        let f0 = cover.cofactor(&p0);
        for m in 0..(1u64 << NVARS) {
            let bit = (m >> v) & 1 == 1;
            let expect = if bit {
                f1.contains_minterm(m)
            } else {
                f0.contains_minterm(m)
            };
            assert_eq!(cover.contains_minterm(m), expect);
        }
    });
}

#[test]
fn pla_round_trip() {
    prop::check("logic_pla_round_trip", |g| {
        let on = arb_minterms(g);
        let dc: Vec<u64> = arb_minterms(g)
            .into_iter()
            .filter(|m| !on.contains(m))
            .collect();
        let f = Function::new(
            Cover::from_minterms(NVARS, &on),
            Cover::from_minterms(NVARS, &dc),
        );
        let back = crate::parse_pla(&f.to_pla()).expect("self-emitted PLA parses");
        for m in 0..(1u64 << NVARS) {
            assert_eq!(
                f.on_set().contains_minterm(m),
                back.on_set().contains_minterm(m)
            );
            assert_eq!(
                f.dc_set().contains_minterm(m),
                back.dc_set().contains_minterm(m)
            );
        }
    });
}

#[test]
fn multi_output_implements_every_function() {
    prop::check("logic_multi_output_implements", |g| {
        let functions: Vec<Function> = (0..3)
            .map(|_| {
                let on = arb_minterms(g);
                Function::new(Cover::from_minterms(NVARS, &on), Cover::empty(NVARS))
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

#[test]
fn point_form_minimizes_like_cover_form() {
    // Random disjoint ON/OFF code sets over up to 8 variables, every other
    // code a don't-care (some of them listed as reachable DC). ON comes in
    // random order with the odd duplicate, as state-graph derivation
    // produces it. Both forms must give the same cubes in the same order.
    prop::check("logic_point_form_like_cover_form", |g| {
        let n = g.usize_in(1, 8);
        let (mut on, mut qr, mut off) = (Vec::new(), Vec::new(), Vec::new());
        let (on_weight, off_weight) = (g.usize_in(1, 4), g.usize_in(1, 4));
        for code in 0..1u64 << n {
            match g.index(on_weight + off_weight + 3) {
                w if w < on_weight => on.push(code),
                w if w < on_weight + off_weight => off.push(code),
                w if w == on_weight + off_weight => qr.push(code),
                _ => {}
            }
        }
        for i in (1..on.len()).rev() {
            on.swap(i, g.index(i + 1));
        }
        if !on.is_empty() && g.bool() {
            on.push(on[g.index(on.len())]);
        }
        let point = Function::from_points(n, on.clone(), qr, off.clone());
        let dc = point.dc_set();
        for code in 0..1u64 << n {
            assert_eq!(
                dc.contains_minterm(code),
                !on.contains(&code) && !off.contains(&code),
                "DC is every code neither ON nor OFF"
            );
        }
        let cover = Function::with_off(point.on_set().clone(), dc.clone(), point.off_set().clone());
        assert_eq!(espresso(&point).cubes(), espresso(&cover).cubes());
    });
}
