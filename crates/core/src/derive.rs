//! Deriving the set/reset specifications from the region decomposition.
//!
//! This implements the logic-derivation procedure of Section IV.A and its
//! Table 1: for a non-input signal `a`,
//!
//! | region      | SET | RESET | mode     |
//! |-------------|-----|-------|----------|
//! | `ER(+a)`    |  1  |   0   | `+a`     |
//! | `QR(+a)`    |  *  |   0   | `a = 1`  |
//! | `ER(-a)`    |  0  |   1   | `-a`     |
//! | `QR(-a)`    |  0  |   *   | `a = 0`  |
//! | unreachable |  *  |   *   | memory   |
//!
//! Each function is built in the point form of [`Function::from_points`]:
//! the ON, quiescent (reachable don't-care) and OFF codes straight from the
//! table, with every code no reachable state uses left implicit as a
//! don't-care. The minimizer answers its EXPAND, IRREDUNDANT and REDUCE
//! queries over these codes (see `nshot_logic`'s oracle module), so no DC
//! cover is built on the heuristic synthesis path at all.
//! [`Function::dc_set`] materializes one on demand, for the exact minimizer
//! and for tests: the quiescent minterms of the firing direction, then a
//! prefix-split cover of the unreachable codes. Exact-mode prime
//! tie-breaks depend on that cube structure, so it is fixed.

use nshot_logic::Function;
use nshot_sg::{RegionMode, SignalId, StateGraph};

/// The ON/DC/OFF specification of one signal's set and reset functions.
#[derive(Debug, Clone)]
pub struct SetResetSpec {
    /// The signal being implemented.
    pub signal: SignalId,
    /// The set function (fires `+a`).
    pub set: Function,
    /// The reset function (fires `-a`).
    pub reset: Function,
}

impl SetResetSpec {
    /// Derive the specification for non-input signal `a` from the reachable
    /// states of `sg`, per Table 1.
    ///
    /// # Panics
    ///
    /// Panics if `a` is an input signal (inputs are driven by the
    /// environment and are never implemented).
    pub fn derive(sg: &StateGraph, a: SignalId) -> Self {
        assert!(
            sg.signal_kind(a).is_non_input(),
            "input signal '{}' is not synthesized",
            sg.signal_name(a)
        );
        let n = sg.num_signals();
        let mut er_up = Vec::new();
        let mut qr_up = Vec::new();
        let mut er_down = Vec::new();
        let mut qr_down = Vec::new();
        for &s in sg.reachable() {
            let code = sg.code(s);
            match sg.region_mode(s, a) {
                RegionMode::ExcitedUp => er_up.push(code),
                RegionMode::StableHigh => qr_up.push(code),
                RegionMode::ExcitedDown => er_down.push(code),
                RegionMode::StableLow => qr_down.push(code),
            }
        }

        // SET: on = ER(+a); dc = QR(+a) ∪ unreachable; off = ER(-a) ∪ QR(-a).
        let set_off = [er_down.as_slice(), &qr_down].concat();
        // RESET: on = ER(-a); dc = QR(-a) ∪ unreachable; off = ER(+a) ∪ QR(+a).
        let reset_off = [er_up.as_slice(), &qr_up].concat();
        let set = Function::from_points(n, er_up, qr_up, set_off);
        let reset = Function::from_points(n, er_down, qr_down, reset_off);

        SetResetSpec { signal: a, set, reset }
    }

    /// Render the Table 1 row for a given state: `(SET, RESET, mode)` as the
    /// paper prints them (`1`, `0`, `*`).
    pub fn table1_row(&self, sg: &StateGraph, state: nshot_sg::StateId) -> (char, char, String) {
        let name = sg.signal_name(self.signal);
        match sg.region_mode(state, self.signal) {
            RegionMode::ExcitedUp => ('1', '0', format!("+{name}")),
            RegionMode::StableHigh => ('*', '0', format!("{name} = 1")),
            RegionMode::ExcitedDown => ('0', '1', format!("-{name}")),
            RegionMode::StableLow => ('0', '*', format!("{name} = 0")),
        }
    }
}

/// Derive the specifications of every non-input signal, working the
/// signals in parallel (deterministic output order regardless of
/// `NSHOT_THREADS`).
pub fn derive_all(sg: &StateGraph) -> Vec<SetResetSpec> {
    let signals: Vec<SignalId> = sg.non_input_signals().collect();
    nshot_par::par_map(&signals, |&a| SetResetSpec::derive(sg, a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn handshake_set_reset_functions() {
        let sg = fixtures::handshake();
        let g = sg.signal_by_name("g").unwrap();
        let spec = SetResetSpec::derive(&sg, g);
        // States (r,g): 00 → 01(r) → 11 → 10(g only). r = bit0, g = bit1.
        // ER(+g) = {01}; QR(+g) = {11}; ER(-g) = {10}; QR(-g) = {00}.
        assert_eq!(spec.set.on_set().minterms(), vec![0b01]);
        assert_eq!(spec.set.off_set().minterms(), vec![0b00, 0b10]);
        assert!(spec.set.dc_set().contains_minterm(0b11));
        assert_eq!(spec.reset.on_set().minterms(), vec![0b10]);
        assert_eq!(spec.reset.off_set().minterms(), vec![0b01, 0b11]);
        assert!(spec.reset.dc_set().contains_minterm(0b00));
    }

    #[test]
    fn unreachable_codes_are_dont_care() {
        // figure1_csc has 14 reachable states over 4 signals → 2 unreachable
        // codes, which must land in both DC sets.
        let sg = fixtures::figure1_csc();
        let c = sg.signal_by_name("c").unwrap();
        let spec = SetResetSpec::derive(&sg, c);
        let reachable = sg.reachable_codes();
        for code in 0..16u64 {
            if !reachable.contains(&code) {
                assert!(
                    spec.set.dc_set().contains_minterm(code),
                    "unreachable {code:04b} must be a set don't-care"
                );
                assert!(
                    spec.reset.dc_set().contains_minterm(code),
                    "unreachable {code:04b} must be a reset don't-care"
                );
            }
        }
    }

    #[test]
    fn dc_cover_is_quiescent_then_unreachable_codes() {
        // The DC cover holds exactly QR(dir) plus the unreachable codes,
        // with the QR minterms first in reachable-state order.
        for sg in [
            fixtures::handshake(),
            fixtures::figure7b(),
            fixtures::figure1_csc(),
        ] {
            let reachable = sg.reachable_codes();
            for a in sg.non_input_signals() {
                let spec = SetResetSpec::derive(&sg, a);
                for (f, quiet) in [
                    (&spec.set, RegionMode::StableHigh),
                    (&spec.reset, RegionMode::StableLow),
                ] {
                    let qr: Vec<u64> = sg
                        .reachable()
                        .iter()
                        .filter(|&&s| sg.region_mode(s, a) == quiet)
                        .map(|&s| sg.code(s))
                        .collect();
                    let dc = f.dc_set();
                    for (cube, &code) in dc.iter().zip(&qr) {
                        assert_eq!(cube.minterms(), vec![code], "{}", sg.name());
                    }
                    for code in 0..(1u64 << sg.num_signals()) {
                        let expect = qr.contains(&code) || !reachable.contains(&code);
                        assert_eq!(dc.contains_minterm(code), expect, "{} {code:b}", sg.name());
                    }
                }
            }
        }
    }

    #[test]
    fn derive_all_matches_per_signal_derive() {
        let sg = fixtures::figure1_csc();
        let all = derive_all(&sg);
        let singly: Vec<SetResetSpec> = sg
            .non_input_signals()
            .map(|a| SetResetSpec::derive(&sg, a))
            .collect();
        assert_eq!(all.len(), singly.len());
        for (a, b) in all.iter().zip(&singly) {
            assert_eq!(a.signal, b.signal);
            for (f, g) in [(&a.set, &b.set), (&a.reset, &b.reset)] {
                assert_eq!(f.on_set().minterms(), g.on_set().minterms());
                assert_eq!(f.dc_set().minterms(), g.dc_set().minterms());
                assert_eq!(f.off_set().minterms(), g.off_set().minterms());
            }
        }
    }

    #[test]
    fn table1_partition_is_exact() {
        // For every reachable state the (SET, RESET) spec matches Table 1,
        // and ON/DC/OFF partition the space.
        let sg = fixtures::figure1_csc();
        for a in sg.non_input_signals() {
            let spec = SetResetSpec::derive(&sg, a);
            for &s in sg.reachable() {
                let code = sg.code(s);
                let (set_c, reset_c, _) = spec.table1_row(&sg, s);
                match set_c {
                    '1' => assert!(spec.set.on_set().contains_minterm(code)),
                    '0' => assert!(spec.set.off_set().contains_minterm(code)),
                    _ => assert!(spec.set.dc_set().contains_minterm(code)),
                }
                match reset_c {
                    '1' => assert!(spec.reset.on_set().contains_minterm(code)),
                    '0' => assert!(spec.reset.off_set().contains_minterm(code)),
                    _ => assert!(spec.reset.dc_set().contains_minterm(code)),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not synthesized")]
    fn deriving_an_input_panics() {
        let sg = fixtures::handshake();
        let r = sg.signal_by_name("r").unwrap();
        let _ = SetResetSpec::derive(&sg, r);
    }
}
