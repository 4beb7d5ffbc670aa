//! Mutation tests for the hazard model checker.
//!
//! Each test seeds a *known-bad* N-SHOT implementation — a mutation a
//! correct synthesis flow would never emit — and asserts that:
//!
//! 1. `nshot-mc` refutes it with a concrete counterexample (and proves the
//!    unmutated twin clean, so the mutation is what the checker caught);
//! 2. the counterexample *replays* through the timed `nshot-sim`
//!    conformance oracle: a deterministic seed sweep finds a gate-delay
//!    assignment realizing the same externally observable violation —
//!    same kind, same signal, same direction.
//!
//! The mutations mirror the paper's correctness obligations:
//!
//! * dropping a trigger cube violates the trigger requirement (§IV.C);
//! * removing the Eq. 1 compensation delay line lets the previous phase's
//!   left-over SOP pulse trespass through the freshly opened ack gate;
//! * an MHS flip-flop with ω = 0 stops absorbing the sub-ω runts that an
//!   undersized delay line relies on the filter to swallow.
//!
//! The last two tests pin counterexamples byte for byte — the archived fuzz
//! finding `tests/corpus/generated/violation_seed5.g` and generator seed 8
//! of the benchmark's gen-verify pool — so a change to how the checker
//! stores states or re-derives a trace's actions from parent links shows
//! up.

use nshot::core::{assemble_netlist, synthesize, SynthesisOptions};
use nshot::logic::{Cover, Cube};
use nshot::mc::replay::{replay, same_violation};
use nshot::mc::{check, McConfig, McViolation};
use nshot::netlist::DelayModel;
use nshot::sg::{SgBuilder, SignalKind, StateGraph};
use nshot::sim::{ConformanceConfig, SimConfig};
use nshot::stg::parse_stg;

/// The four-phase request/grant handshake (r input, g output).
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

/// Sweep at most this many conformance seeds looking for a timed
/// realization. Every counterexample below reproduces well within this.
const MAX_REPLAY_SEEDS: u64 = 200;

fn replay_config(model: DelayModel, omega_ps: u64) -> ConformanceConfig {
    ConformanceConfig {
        sim: SimConfig {
            delay_model: model,
            omega_ps,
            ..SimConfig::default()
        },
        ..ConformanceConfig::default()
    }
}

/// Mutation 1 — drop a trigger cube from the set network.
///
/// Start from the redundant but correct set cover `r·g' + r·g` (≡ `r`) and
/// delete `r·g'` — the cube covering the trigger region, where `g` is still
/// low. The survivor `r·g` can never excite before `g` itself rises, so the
/// circuit stalls in state `01` with `+g` pending: a deadlock.
#[test]
fn dropped_trigger_cube_deadlocks_and_replays() {
    let sg = handshake();
    let g = sg.non_input_signals().next().unwrap();
    let n = sg.num_signals();
    let reset = {
        let mut c = Cover::empty(n);
        c.push(Cube::from_literals(n, &[(0, false)]));
        c
    };

    // The unmutated redundant cover is hazard-free — the checker proves it.
    let mut full_set = Cover::empty(n);
    full_set.push(Cube::from_literals(n, &[(0, true), (1, false)]));
    full_set.push(Cube::from_literals(n, &[(0, true), (1, true)]));
    let (good_nl, _) = assemble_netlist(
        &sg,
        &[(g, full_set, reset.clone())],
        &DelayModel::nominal(),
    )
    .unwrap();
    let good = check(&sg, &good_nl, &McConfig::default()).unwrap();
    assert!(good.is_proved(), "baseline must prove: {}", good.render());

    // Drop the trigger cube r·g'.
    let mut mutated_set = Cover::empty(n);
    mutated_set.push(Cube::from_literals(n, &[(0, true), (1, true)]));
    let (bad_nl, _) =
        assemble_netlist(&sg, &[(g, mutated_set, reset)], &DelayModel::nominal()).unwrap();
    let verdict = check(&sg, &bad_nl, &McConfig::default()).unwrap();
    let cex = verdict
        .counterexample()
        .expect("dropping the trigger cube must be refuted");
    match &cex.violation {
        McViolation::Deadlock { expected, .. } => {
            assert_eq!(expected, &vec!["+g".to_string()]);
        }
        v => panic!("expected a deadlock on +g, got {v:?}"),
    }

    // Replay: any delay assignment stalls identically, so the very first
    // seed realizes the deadlock in the timed simulator.
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let mut mutant = imp.clone();
    mutant.netlist = bad_nl;
    let outcome = replay(
        &sg,
        &mutant,
        cex,
        &replay_config(DelayModel::nominal(), 300),
        MAX_REPLAY_SEEDS,
    )
    .expect("a deadlock replays under any delay assignment");
    assert_eq!(outcome.seed, 0, "no delay assignment avoids a deadlock");
    assert!(same_violation(&cex.violation, &outcome.violation));
}

/// Mutation 2 — zero the Eq. 1 compensation delay line.
///
/// Under a delay model with a wide min/max spread, Eq. 1 demands a real
/// delay line on the handshake's feedback path (the reset SOP can settle
/// up to 700 ps after the flip-flop has already responded). The compensated
/// netlist is proved hazard-free; stripping the line (a 0 ps delay line is
/// timing-identical to a wire) lets the stale reset pulse trespass through
/// the freshly opened ack gate and fire `-g` out of phase.
#[test]
fn zeroed_delay_line_trespasses_and_replays() {
    let sg = handshake();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let covers: Vec<_> = imp
        .signals
        .iter()
        .map(|s| (s.signal, s.set_cover.clone(), s.reset_cover.clone()))
        .collect();

    // Wide enough that Eq. 1 exceeds the ω = 300 ps absorption credit, so
    // the requirement must be met by a physical line, not the pulse filter.
    let wide = DelayModel {
        combinational_ns: (0.1, 1.2),
        storage_ns: (0.5, 2.4),
    };
    let config = McConfig {
        delay_model: wide.clone(),
        ..McConfig::default()
    };

    // Compensated: the assembler sizes the line for this model → proved.
    let (good_nl, good_sigs) = assemble_netlist(&sg, &covers, &wide).unwrap();
    assert!(
        good_sigs.iter().any(|s| s.delay_line.is_some()),
        "the wide model must force a real delay line"
    );
    let good = check(&sg, &good_nl, &config).unwrap();
    assert!(good.is_proved(), "compensated: {}", good.render());

    // Zeroed: assembling under the nominal model emits no line at all.
    let (bad_nl, bad_sigs) = assemble_netlist(&sg, &covers, &DelayModel::nominal()).unwrap();
    assert!(bad_sigs.iter().all(|s| s.delay_line.is_none()));
    let verdict = check(&sg, &bad_nl, &config).unwrap();
    let cex = verdict
        .counterexample()
        .expect("the uncompensated netlist must be refuted");
    match &cex.violation {
        McViolation::UnexpectedTransition { signal, rose, .. } => {
            assert_eq!(signal, "g");
            assert!(!rose, "the left-over reset pulse fires -g early");
        }
        v => panic!("expected the -g trespass, got {v:?}"),
    }

    // Replay under the same wide model: the sweep finds a delay assignment
    // where the reset SOP outlives the flip-flop response by more than ω.
    let mut mutant = imp.clone();
    mutant.netlist = bad_nl;
    let outcome = replay(&sg, &mutant, cex, &replay_config(wide, 300), MAX_REPLAY_SEEDS)
        .expect("the trespass must replay within the seed sweep");
    assert!(same_violation(&cex.violation, &outcome.violation));
    assert!(
        !outcome.waveform.signals().is_empty(),
        "the violating trial is traced"
    );
}

/// Mutation 3 — swap the MHS pulse filter threshold ω down to 0.
///
/// Under the wide-spread model the handshake's Eq. 1 requirement is 200 ps
/// — *less* than ω = 300 ps, so the paper allows the compensation to ride
/// on the pulse filter alone: the uncompensated netlist is hazard-free
/// because every trespassing pulse is a sub-ω runt the flip-flop absorbs.
/// A flip-flop with ω = 0 passes those runts, and the same netlist fails.
#[test]
fn omega_zero_unmasks_the_filtered_runts() {
    let sg = handshake();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let covers: Vec<_> = imp
        .signals
        .iter()
        .map(|s| (s.signal, s.set_cover.clone(), s.reset_cover.clone()))
        .collect();
    let (nl, sigs) = assemble_netlist(&sg, &covers, &DelayModel::nominal()).unwrap();
    assert!(sigs.iter().all(|s| s.delay_line.is_none()));

    // With the real ω the runts are absorbed and the proof closes.
    let healthy = check(
        &sg,
        &nl,
        &McConfig {
            delay_model: DelayModel::wide_spread(),
            ..McConfig::default()
        },
    )
    .unwrap();
    assert!(healthy.is_proved(), "ω = 300: {}", healthy.render());

    // ω = 0: absorption gone, the credit in the Eq. 1 check gone.
    let verdict = check(
        &sg,
        &nl,
        &McConfig {
            delay_model: DelayModel::wide_spread(),
            omega_ps: 0,
            ..McConfig::default()
        },
    )
    .unwrap();
    let cex = verdict
        .counterexample()
        .expect("a filterless flip-flop must be refuted");
    let McViolation::UnexpectedTransition { signal, .. } = &cex.violation else {
        panic!("expected a trespass, got {:?}", cex.violation);
    };
    assert_eq!(signal, "g");

    // Replay with the simulator's MHS threshold forced to 0 as well: some
    // seed gives the reset inverter a longer delay than the flip-flop
    // response, and the resulting runt — absorbed in the healthy circuit —
    // fires observably.
    let mut mutant = imp.clone();
    mutant.netlist = nl;
    let outcome = replay(
        &sg,
        &mutant,
        cex,
        &replay_config(DelayModel::wide_spread(), 0),
        MAX_REPLAY_SEEDS,
    )
    .expect("the runt must replay within the seed sweep");
    assert!(same_violation(&cex.violation, &outcome.violation));

    // Sanity: the same seed sweep under the healthy ω stays clean — the
    // violation is the filter's absence, not a latent bug.
    assert!(
        replay(
            &sg,
            &mutant,
            cex,
            &replay_config(DelayModel::wide_spread(), 300),
            MAX_REPLAY_SEEDS,
        )
        .is_none(),
        "ω = 300 absorbs every runt the sweep can produce"
    );
}

/// FNV-1a, the same stable hash the golden suite uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn archived_violation_counterexample_is_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/generated/violation_seed5.g");
    let text = std::fs::read_to_string(path).unwrap();
    let sg = parse_stg(&text).unwrap().elaborate().unwrap();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let config = McConfig {
        max_states: 200_000,
        ..McConfig::default()
    };
    let verdict = check(&sg, &imp.netlist, &config).unwrap();
    let cex = verdict.counterexample().expect("the archived violation reproduces");
    let rendered = cex.render();
    assert_eq!(cex.steps.len(), 26, "{rendered}");
    assert_eq!(fnv1a(rendered.as_bytes()), 0x3597_daf1_e4b8_11fd, "{rendered}");
}

/// Generator seed 8 at the gen-verify pool's configuration (product capped
/// at 128 states), synthesized and checked from its `.g` text at the fuzz
/// budget as the benchmark does.
#[test]
fn generated_seed8_counterexample_is_pinned() {
    let cfg = nshot::gen::GenConfig {
        max_states: 128,
        ..nshot::gen::GenConfig::default()
    };
    let spec = nshot::gen::draw(8, &cfg).expect("seed 8 is accepted");
    let sg = parse_stg(&spec.g_text).unwrap().elaborate().unwrap();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let config = McConfig {
        max_states: 200_000,
        ..McConfig::default()
    };
    let verdict = check(&sg, &imp.netlist, &config).unwrap();
    let cex = verdict.counterexample().expect("seed 8 is refuted");
    let rendered = cex.render();
    assert_eq!(cex.steps.len(), 26, "{rendered}");
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        0x78f3_24ee_9b11_4c09,
        "{rendered}"
    );
}
