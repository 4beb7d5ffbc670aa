use nshot_core::{assemble_netlist, synthesize, SynthesisOptions, DEFAULT_PROOF_STATES};
use nshot_logic::Cover;
use nshot_netlist::DelayModel;
use nshot_sg::{SgBuilder, SignalKind, StateGraph};

use crate::{check, verify_budgeted, McConfig, McViolation, Verdict};

fn handshake() -> StateGraph {
    let mut b = SgBuilder::named("handshake");
    let r = b.signal("r", SignalKind::Input);
    let g = b.signal("g", SignalKind::Output);
    b.edge_codes(0b00, (r, true), 0b01).unwrap();
    b.edge_codes(0b01, (g, true), 0b11).unwrap();
    b.edge_codes(0b11, (r, false), 0b10).unwrap();
    b.edge_codes(0b10, (g, false), 0b00).unwrap();
    b.build(0b00).unwrap()
}

/// Two independent handshakes: real input/output concurrency, 16 composed
/// spec states — exercises commuting gate firings.
fn parallel_handshakes() -> StateGraph {
    let mut b = SgBuilder::named("par2");
    let r0 = b.signal("r0", SignalKind::Input);
    let g0 = b.signal("g0", SignalKind::Output);
    let r1 = b.signal("r1", SignalKind::Input);
    let g1 = b.signal("g1", SignalKind::Output);
    let phase = |v: u64, s: usize| (v >> s) & 0b11;
    // Each handshake cycles 00 -> 01 -> 11 -> 10 (r in bit 0, g in bit 1).
    let step = |ph: u64| -> (usize, bool, u64) {
        match ph {
            0b00 => (0, true, 0b01),  // +r
            0b01 => (1, true, 0b11),  // +g
            0b11 => (0, false, 0b10), // -r
            0b10 => (1, false, 0b00), // -g
            _ => unreachable!(),
        }
    };
    for code in 0u64..16 {
        for hs in 0..2 {
            let shift = 2 * hs;
            let (bit, rise, next_ph) = step(phase(code, shift));
            let sig = match (hs, bit) {
                (0, 0) => r0,
                (0, 1) => g0,
                (1, 0) => r1,
                (1, 1) => g1,
                _ => unreachable!(),
            };
            let next = (code & !(0b11 << shift)) | (next_ph << shift);
            b.edge_codes(code, (sig, rise), next).unwrap();
        }
    }
    b.build(0).unwrap()
}

#[test]
fn handshake_is_proved() {
    let sg = handshake();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let verdict = check(&sg, &imp.netlist, &McConfig::default()).unwrap();
    let cert = verdict.certificate().expect("proved");
    assert!(verdict.is_proved(), "{}", verdict.render());
    assert!(cert.complete);
    assert!(cert.assumed_delay_requirement);
    assert!(
        cert.stats.states > 4,
        "trivially few states: {}",
        cert.stats.states
    );
    // A finished run drained its frontier, burned budget, and checked the
    // one output signal at least once.
    assert_eq!(cert.stats.final_frontier, 0);
    assert!(cert.stats.visited_bytes > 0);
    assert!(cert.stats.budget_fraction() > 0.0);
    assert_eq!(cert.stats.violation_checks.len(), 1);
    assert_eq!(cert.stats.violation_checks[0].0, "g");
    assert!(cert.stats.violation_checks[0].1 > 0);
    assert_eq!(
        cert.stats.total_violation_checks(),
        cert.stats.violation_checks[0].1
    );
}

#[test]
fn parallel_handshakes_are_proved() {
    let sg = parallel_handshakes();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let verdict = check(&sg, &imp.netlist, &McConfig::default()).unwrap();
    assert!(verdict.is_proved(), "{}", verdict.render());
}

#[test]
fn checker_is_deterministic_at_any_thread_count() {
    let sg = parallel_handshakes();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let baseline = check(&sg, &imp.netlist, &McConfig::default())
        .unwrap()
        .render();
    for threads in [1usize, 4] {
        let _guard = nshot_par::ThreadGuard::pin(threads);
        let v = check(&sg, &imp.netlist, &McConfig::default()).unwrap();
        assert_eq!(v.render(), baseline, "thread count changed the verdict");
    }
}

/// Pins of one suite circuit's plain-BFS certificate, run to completion
/// and cut by the budget mid-expansion. Every enabled action of every
/// state is explored exactly once, so these figures are a pure function
/// of the model and the budget: any change to what the explorer visits,
/// or to how it counts the frontier at a cut, shows up here as a diff.
#[test]
fn chu133_plain_bfs_certificate() {
    let sg = nshot_benchmarks::by_name("chu133").expect("in suite").build();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    // (max_states, proved, (states, edges, max_depth, peak_frontier, final_frontier))
    let pins = [
        (McConfig::default().max_states, true, (3228, 11818, 68, 200, 0)),
        (1000, false, (1000, 3083, 38, 98, 29)),
    ];
    for (max_states, proved, expected) in pins {
        let config = McConfig {
            max_states,
            ..McConfig::default()
        };
        let verdict = check(&sg, &imp.netlist, &config).unwrap();
        assert_eq!(verdict.is_proved(), proved, "{}", verdict.render());
        let s = &verdict.certificate().expect("certificate").stats;
        assert_eq!(s.reopened, 0);
        assert_eq!(
            (s.states, s.edges, s.max_depth, s.peak_frontier, s.final_frontier),
            expected,
            "max_states {max_states}: {}",
            verdict.render()
        );
    }
}

#[test]
fn swapped_covers_yield_unexpected_transition() {
    let sg = handshake();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let si = &imp.signals[0];
    let covers = vec![(si.signal, si.reset_cover.clone(), si.set_cover.clone())];
    let (nl, _) = assemble_netlist(&sg, &covers, &DelayModel::nominal()).unwrap();
    let verdict = check(&sg, &nl, &McConfig::default()).unwrap();
    let cex = verdict.counterexample().expect("swapped covers must fail");
    match &cex.violation {
        McViolation::UnexpectedTransition { signal, rose, .. } => {
            assert_eq!(signal, "g");
            assert!(*rose, "swapped set fires +g out of phase");
        }
        v => panic!("expected an unexpected transition, got {v:?}"),
    }
    assert!(!cex.steps.is_empty());
}

#[test]
fn empty_covers_deadlock() {
    let sg = handshake();
    let n = sg.num_signals();
    let g = sg.non_input_signals().next().unwrap();
    let covers = vec![(g, Cover::empty(n), Cover::empty(n))];
    let (nl, _) = assemble_netlist(&sg, &covers, &DelayModel::nominal()).unwrap();
    let verdict = check(&sg, &nl, &McConfig::default()).unwrap();
    let cex = verdict.counterexample().expect("dead circuit must deadlock");
    match &cex.violation {
        McViolation::Deadlock { expected, .. } => {
            assert_eq!(expected, &vec!["+g".to_string()]);
        }
        v => panic!("expected deadlock, got {v:?}"),
    }
}

#[test]
fn dropping_the_eq1_assumption_exposes_leftover_pulses() {
    // Under fully unbounded delays even a correct circuit trespasses: the
    // stale reset SOP (r-bar still high after +r) slips through the reset
    // gate the moment the enable opens, before the inverter settles. Eq. 1
    // exists to forbid exactly this interleaving — forcing the assumption
    // off must therefore produce a counterexample on the *correct* netlist.
    let sg = handshake();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let verdict = check(
        &sg,
        &imp.netlist,
        &McConfig {
            assume_delay_requirement: Some(false),
            ..McConfig::default()
        },
    )
    .unwrap();
    let cex = verdict
        .counterexample()
        .expect("unbounded delays admit the trespass");
    match &cex.violation {
        McViolation::UnexpectedTransition { signal, rose, .. } => {
            assert_eq!(signal, "g");
            assert!(!*rose, "the leftover reset pulse fires -g early");
        }
        v => panic!("expected the -g trespass, got {v:?}"),
    }
}

#[test]
fn budget_exhaustion_is_reported() {
    let sg = handshake();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let verdict = check(
        &sg,
        &imp.netlist,
        &McConfig {
            max_states: 2,
            ..McConfig::default()
        },
    )
    .unwrap();
    match verdict {
        Verdict::BudgetExceeded(cert) => {
            assert!(!cert.complete);
            // The whole budget was burned and unexplored work remains.
            assert_eq!(cert.stats.states, 2);
            assert_eq!(cert.stats.max_states, 2);
            assert_eq!(cert.stats.budget_fraction(), 1.0);
            assert!(cert.stats.final_frontier > 0, "{}", cert.render());
        }
        v => panic!("expected budget exhaustion, got {}", v.render()),
    }
}

#[test]
fn heartbeats_do_not_change_verdicts() {
    // Byte-identity with progress on vs off: heartbeats observe, they do
    // not steer. Runs under a file-target Progress writer must render the
    // very same certificate as silent runs, and the heartbeat stream must
    // be well-formed NDJSON ending in a final line.
    let sg = parallel_handshakes();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let silent = check(&sg, &imp.netlist, &McConfig::default())
        .unwrap()
        .render();

    let path = std::env::temp_dir().join(format!("nshot_mc_hb_{}.ndjson", std::process::id()));
    nshot_obs::set_progress(Some(nshot_obs::TraceTarget::File(path.clone()))).unwrap();
    let with_hb = check(&sg, &imp.netlist, &McConfig::default())
        .unwrap()
        .render();
    let _ = nshot_obs::set_progress(None);

    assert_eq!(with_hb, silent, "heartbeats changed the certificate");

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    // Other tests may run checks concurrently; look only at this job's
    // lines. At least the reporter's opening and closing beats exist.
    let ours: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"hb\":\"mc:par2\""))
        .collect();
    assert!(ours.len() >= 2, "expected >=2 heartbeats: {text}");
    for line in &ours {
        assert!(line.contains("\"elapsed_ms\":"), "{line}");
        assert!(line.contains("\"states\":"), "{line}");
        assert!(line.contains("\"states_per_sec\":"), "{line}");
        assert!(line.contains("\"frontier\":"), "{line}");
        assert!(line.contains("\"budget_pct\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    let last = ours.last().unwrap();
    assert!(last.contains("\"final\":true"), "{last}");
}

#[test]
fn validate_levels() {
    let sg = handshake();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();

    let proved = verify_budgeted(&sg, &imp, DEFAULT_PROOF_STATES).unwrap();
    assert!(proved.hazard_free);
    assert!(proved.verdict.as_ref().unwrap().is_proved());
    assert!(proved.monte_carlo.is_none(), "no fallback when proof fits");

    // A starved budget falls back to sampling.
    let fallback = verify_budgeted(&sg, &imp, 2).unwrap();
    assert!(matches!(
        fallback.verdict,
        Some(Verdict::BudgetExceeded(_))
    ));
    assert!(fallback.monte_carlo.is_some(), "sampling is the fallback");
    assert!(fallback.hazard_free);
}
