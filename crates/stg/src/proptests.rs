//! Property tests: random marked-graph STGs elaborate to well-formed SGs,
//! and marked-place enabling agrees with a dense scan on random nets.
//! Inputs come from the fixed-seed driver in `nshot_par::prop`.

use crate::petri::Marking;
use crate::{PlaceId, Stg, TransId};
use nshot_par::prop;
use nshot_sg::{Dir, SignalKind};

/// Build a random *marked graph* (every place has one producer and one
/// consumer): a ring of handshaking stages. Stage `i` has signals `r_i`
/// (input if `kinds[i]`, else output) rising then falling, with the ring
/// closed by a single initial token. Marked graphs are choice-free, so the
/// elaboration is always consistent and semi-modular.
fn ring_stg(kinds: &[bool]) -> Stg {
    let mut stg = Stg::new("ring");
    let mut ts = Vec::new();
    for (i, &is_input) in kinds.iter().enumerate() {
        let kind = if is_input {
            SignalKind::Input
        } else {
            SignalKind::Output
        };
        let s = stg.add_signal(&format!("s{i}"), kind);
        let up = stg.add_transition(s, Dir::Rise, 0);
        let down = stg.add_transition(s, Dir::Fall, 0);
        ts.push((up, down));
    }
    // Chain: s0+ → s1+ → … → s(n-1)+ → s0- → s1- → … → s(n-1)- → s0+.
    let order: Vec<_> = ts
        .iter()
        .map(|&(u, _)| u)
        .chain(ts.iter().map(|&(_, d)| d))
        .collect();
    for w in 0..order.len() {
        let next = (w + 1) % order.len();
        stg.connect(order[w], order[next], u8::from(next == 0));
    }
    stg
}

#[test]
fn ring_elaboration_is_sound() {
    prop::check("stg_ring_elaboration_sound", |g| {
        let kinds = g.vec_bool(1, 6);
        let stg = ring_stg(&kinds);
        stg.check_structure().expect("rings are structurally fine");
        let sg = stg.elaborate().expect("marked graphs are consistent");
        // A sequential ring of n stages visits 2n markings.
        assert_eq!(sg.num_states(), 2 * kinds.len());
        assert!(sg.check_csc().is_ok());
        assert!(sg.check_semi_modular().is_ok());
        assert!(sg.is_distributive());
        assert!(sg.check_output_trapping());
        // The elaborated code of the initial state has every signal at 0:
        // the first transition of each signal is rising.
        assert_eq!(sg.code(sg.initial()), 0);
    });
}

#[test]
fn elaboration_is_deterministic() {
    prop::check("stg_elaboration_deterministic", |g| {
        let kinds = g.vec_bool(1, 4);
        let stg = ring_stg(&kinds);
        let a = stg.elaborate().expect("consistent");
        let b = stg.elaborate().expect("consistent");
        assert_eq!(a.num_states(), b.num_states());
        let codes_a: std::collections::BTreeSet<u64> = a.state_ids().map(|s| a.code(s)).collect();
        let codes_b: std::collections::BTreeSet<u64> = b.state_ids().map(|s| b.code(s)).collect();
        assert_eq!(codes_a, codes_b);
    });
}

/// `enabled(m)` collects the consumers of marked places only; on random
/// small nets (every transition with an input place, as `check_structure`
/// requires) and random multi-token markings it must equal the dense
/// reference: every transition, in id order, filtered by `is_enabled`.
#[test]
fn enabled_matches_dense_scan() {
    prop::check("stg_enabled_matches_dense_scan", |g| {
        let mut stg = Stg::new("random");
        let s = stg.add_signal("s", SignalKind::Output);
        let places: Vec<PlaceId> = (0..g.usize_in(1, 6))
            .map(|i| stg.add_place(&format!("p{i}"), 0))
            .collect();
        let transitions: Vec<TransId> = (0..g.usize_in(1, 8) as u32)
            .map(|k| stg.add_transition(s, Dir::Rise, k))
            .collect();
        for &t in &transitions {
            let mut pre = g.subset(places.len(), 3);
            if pre.is_empty() {
                pre.push(g.index(places.len()));
            }
            for p in pre {
                stg.arc_pt(places[p], t);
            }
            for p in g.subset(places.len(), 2) {
                stg.arc_tp(t, places[p]);
            }
        }
        let dense = |m: &Marking| -> Vec<TransId> {
            transitions
                .iter()
                .copied()
                .filter(|&t| stg.is_enabled(m, t))
                .collect()
        };
        let mut m = Marking(
            places
                .iter()
                .flat_map(|p| std::iter::repeat_n(p.0, g.index(3)))
                .collect(),
        );
        // Check the drawn marking and a short random firing walk from it.
        for _ in 0..8 {
            let enabled = stg.enabled(&m);
            assert_eq!(enabled, dense(&m), "marking {m:?}");
            if enabled.is_empty() {
                break;
            }
            match stg.fire(&m, enabled[g.index(enabled.len())]) {
                Ok(next) => m = next,
                Err(_) => break,
            }
        }
    });
}
