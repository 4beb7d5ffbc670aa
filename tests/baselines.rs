//! Cross-method integration: the Table 2 comparison behaves as the paper
//! describes on our reconstructed suite.

use nshot::baselines::{sis, syn, BaselineError};
use nshot::core::{synthesize, SynthesisOptions};
use nshot::netlist::DelayModel;
use nshot::sg::Dir;

#[test]
fn distributive_only_restriction_is_exact() {
    // SIS-like and SYN-like accept exactly the distributive circuits.
    for b in nshot::benchmarks::suite() {
        if b.paper_states > 300 {
            continue;
        }
        let sg = b.build();
        let model = DelayModel::nominal();
        let sis_result = sis(&sg, &model);
        let syn_result = syn(&sg, &model);
        if b.distributive {
            assert!(sis_result.is_ok(), "{}: {:?}", b.name, sis_result.err());
            assert!(syn_result.is_ok(), "{}: {:?}", b.name, syn_result.err());
        } else {
            assert!(
                matches!(sis_result, Err(BaselineError::NonDistributive { .. })),
                "{}",
                b.name
            );
            assert!(
                matches!(syn_result, Err(BaselineError::NonDistributive { .. })),
                "{}",
                b.name
            );
        }
    }
}

#[test]
fn syn_covers_are_monotonous() {
    // The defining constraint: one cube per excitation region, covering the
    // whole region, avoiding every other reachable state outside ER ∪ QR_i.
    for name in ["full", "chu133", "sbuf-send-ctl", "wrdatab"] {
        let sg = nshot::benchmarks::by_name(name).expect("in suite").build();
        let imp = syn(&sg, &DelayModel::nominal()).expect("distributive");
        for (a, set, reset) in &imp.covers {
            let regions = sg.regions_of(*a);
            for dir in [Dir::Rise, Dir::Fall] {
                let cover = if dir == Dir::Rise { set } else { reset };
                let ers: Vec<_> = regions
                    .excitation
                    .iter()
                    .zip(&regions.quiescent)
                    .filter(|(e, _)| e.instance.dir == dir)
                    .collect();
                assert_eq!(cover.num_cubes(), ers.len(), "{name}: one cube per ER");
                for ((er, qr), cube) in ers.iter().zip(cover.iter()) {
                    // Covers its ER…
                    for s in &er.states {
                        assert!(cube.contains_minterm(sg.code(s)));
                    }
                    // …and no reachable state outside ER ∪ QR_i.
                    let allowed: std::collections::HashSet<u64> = er
                        .states
                        .iter()
                        .chain(qr.states.iter())
                        .map(|s| sg.code(s))
                        .collect();
                    for &s in sg.reachable() {
                        let code = sg.code(s);
                        if cube.contains_minterm(code) {
                            assert!(allowed.contains(&code), "{name}: monotonicity violated");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn sis_covers_implement_next_state_functions() {
    for name in ["full", "chu172", "vbe5b"] {
        let sg = nshot::benchmarks::by_name(name).expect("in suite").build();
        let imp = sis(&sg, &DelayModel::nominal()).expect("distributive");
        for (a, cover) in &imp.covers {
            for &s in sg.reachable() {
                let expect = sg.value(s, *a) != sg.is_excited(s, *a);
                assert_eq!(
                    cover.contains_minterm(sg.code(s)),
                    expect,
                    "{name}/{}",
                    sg.signal_name(*a)
                );
            }
        }
    }
}

#[test]
fn sequential_circuits_favor_sis_concurrent_favor_nshot() {
    // The Table 2 delay shape: on purely sequential controllers SIS (no
    // storage element) is fastest; on concurrent ones its hazard padding
    // makes it slower than the N-SHOT circuit.
    let model = DelayModel::nominal();
    let seq = nshot::benchmarks::by_name("chu172").expect("in suite").build();
    let conc = nshot::benchmarks::by_name("chu133").expect("in suite").build();
    let sis_seq = sis(&seq, &model).expect("ok");
    let nshot_seq = synthesize(&seq, &SynthesisOptions::default()).expect("ok");
    assert!(sis_seq.delay_ns < nshot_seq.delay_ns);
    let sis_conc = sis(&conc, &model).expect("ok");
    let nshot_conc = synthesize(&conc, &SynthesisOptions::default()).expect("ok");
    assert!(sis_conc.delay_ns > nshot_conc.delay_ns);
}

#[test]
fn ack_hardware_shows_up_on_multi_region_outputs() {
    // Shared outputs across choice branches have several excitation regions;
    // the SYN flow pays acknowledgement hardware there and ends up larger
    // than the N-SHOT circuit (the pe-send-ifc / sbuf-send-ctl shape).
    let sg = nshot::benchmarks::by_name("sbuf-send-ctl").expect("in suite").build();
    let syn_imp = syn(&sg, &DelayModel::nominal()).expect("distributive");
    let nshot_imp = synthesize(&sg, &SynthesisOptions::default()).expect("ok");
    assert!(
        syn_imp.area > nshot_imp.area,
        "syn {} vs nshot {}",
        syn_imp.area,
        nshot_imp.area
    );
}

#[test]
fn qmodule_pays_the_section2_premium() {
    use nshot::baselines::qmodule;
    // The §II argument, as an invariant over the suite: the Q-module
    // implementation is always larger and slower than the N-SHOT one.
    for b in nshot::benchmarks::suite() {
        if b.paper_states > 300 {
            continue;
        }
        let sg = b.build();
        let q = qmodule(&sg, &DelayModel::nominal()).expect("no distributivity restriction");
        let n = synthesize(&sg, &SynthesisOptions::default()).expect("synthesizes");
        assert!(q.area > n.area, "{}: {} <= {}", b.name, q.area, n.area);
        assert!(q.delay_ns > n.delay_ns, "{}", b.name);
        // Q-flop count = inputs + state signals, as §II says.
        assert_eq!(
            q.qflops,
            sg.input_signals().count() + sg.non_input_signals().count(),
            "{}",
            b.name
        );
    }
}

#[test]
fn qmodule_accepts_what_sis_and_syn_refuse() {
    use nshot::baselines::qmodule;
    let sg = nshot::benchmarks::by_name("pmcm1").expect("in suite").build();
    assert!(sis(&sg, &DelayModel::nominal()).is_err());
    assert!(syn(&sg, &DelayModel::nominal()).is_err());
    assert!(qmodule(&sg, &DelayModel::nominal()).is_ok());
}

#[test]
fn nshot_fanout_assumption_report() {
    // The architecture's delay assumption: primary inputs may fan out to
    // several product terms (they need negligible skew); the report makes
    // the assumption auditable.
    let sg = nshot::benchmarks::by_name("chu133").expect("in suite").build();
    let imp = synthesize(&sg, &SynthesisOptions::default()).expect("synthesizes");
    let report = imp.netlist.multi_fanout_report();
    assert!(
        report.iter().any(|&(_, _, is_input)| is_input),
        "some primary input feeds multiple gates"
    );
    // Every flip-flop output also fans out (feedback + observability).
    assert!(report.iter().any(|&(_, _, is_input)| !is_input));
}

/// FNV-1a, as in `tests/golden.rs`: stable across Rust releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a of the SIS-like and Q-module results over the whole suite: per
/// circuit the cover of every signal cube for cube, the area, the delay and
/// the BLIF of the netlist, or the refusal. `(SIS-like, Q-module)`.
const BASELINE_PINS: (u64, u64) = (0xdba14d72cd06b71e, 0xc60b909238f6c94b);

#[test]
fn sis_and_qmodule_results_are_pinned() {
    use nshot::baselines::qmodule;
    use std::fmt::Write as _;
    let model = DelayModel::nominal();
    let (mut sis_text, mut q_text) = (String::new(), String::new());
    for b in nshot::benchmarks::suite() {
        let sg = b.build();
        let name = |s| sg.signal_name(s);
        match sis(&sg, &model) {
            Ok(imp) => {
                for (a, cover) in &imp.covers {
                    writeln!(sis_text, "{} {}: {cover}", b.name, name(*a)).unwrap();
                }
                writeln!(
                    sis_text,
                    "{} area {} delay {:.3} lines {} {:?}\n{}",
                    b.name,
                    imp.area,
                    imp.delay_ns,
                    imp.delay_lines,
                    imp.hazards,
                    imp.netlist.to_blif()
                )
                .unwrap();
            }
            Err(e) => writeln!(sis_text, "{} {e:?}", b.name).unwrap(),
        }
        match qmodule(&sg, &model) {
            Ok(imp) => {
                for (a, cover) in &imp.covers {
                    writeln!(q_text, "{} {}: {cover}", b.name, name(*a)).unwrap();
                }
                writeln!(
                    q_text,
                    "{} area {} delay {:.3}\n{}",
                    b.name,
                    imp.area,
                    imp.delay_ns,
                    imp.netlist.to_blif()
                )
                .unwrap();
            }
            Err(e) => writeln!(q_text, "{} {e:?}", b.name).unwrap(),
        }
    }
    let got = (fnv1a(sis_text.as_bytes()), fnv1a(q_text.as_bytes()));
    assert_eq!(
        got, BASELINE_PINS,
        "baseline results hash to ({:#018x}, {:#018x})",
        got.0, got.1
    );
}
