use nshot_core::{assemble_netlist, synthesize, SynthesisOptions, DEFAULT_PROOF_STATES};
use nshot_logic::Cover;
use nshot_netlist::{DelayModel, GateKind, Netlist};
use nshot_par::prop::Gen;
use nshot_sg::{SgBuilder, SignalKind, StateGraph};

use crate::explore::SlotCode;
use crate::model::{disjoint, Model};
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

/// Pins of two suite circuits' plain-BFS certificates, each run to
/// completion and cut by the budget mid-expansion. Every enabled action of
/// every state is explored exactly once, so these figures are a pure
/// function of the model and the budget: any change to what the explorer
/// visits, or to how it counts the frontier at a cut, shows up here as a
/// diff. chu150's runs cross the explorer's arena page boundary and
/// several visited-table rehashes.
#[test]
fn chu133_plain_bfs_certificate() {
    let full = McConfig::default().max_states;
    // (circuit, max_states, proved,
    //  (states, edges, max_depth, peak_frontier, final_frontier),
    //  violation checks per flip-flop)
    let pins = [
        (
            "chu133",
            full,
            true,
            (3228, 11818, 68, 200, 0),
            "q0=300 q1=300 d=66 t0=60",
        ),
        (
            "chu133",
            1000,
            false,
            (1000, 3083, 38, 98, 29),
            "q0=75 q1=75 d=23 t0=24",
        ),
        (
            "chu150",
            full,
            true,
            (35802, 181422, 118, 1614, 0),
            "s1=857 s3=678 s4=612 s6=648 s8=792 s10=1068 s12=1522",
        ),
        (
            "chu150",
            20_000,
            false,
            (20000, 94660, 93, 1519, 1513),
            "s1=193 s3=256 s4=352 s6=496 s8=712 s10=1012 s12=455",
        ),
    ];
    for (name, max_states, proved, expected, checks) in pins {
        let sg = nshot_benchmarks::by_name(name).expect("in suite").build();
        let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
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
            "{name} max_states {max_states}: {}",
            verdict.render()
        );
        let seen: Vec<String> = s
            .violation_checks
            .iter()
            .map(|(signal, n)| format!("{signal}={n}"))
            .collect();
        assert_eq!(seen.join(" "), checks, "{name} max_states {max_states}");
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
    // The rendering pins the trace's re-derived action and the deadlock's
    // missing last action.
    let rendered = cex.render();
    assert_eq!(cex.steps, vec!["+r (environment)".to_string()]);
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        0x7b12_b498_5554_61c2,
        "{rendered}"
    );
}

/// FNV-1a, the same stable hash the golden suite uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

/// Pins of chu133 and chu150 certificates at budgets around two powers of
/// two. The visited table packs a state id into the low
/// `64 - max_states.leading_zeros()` bits of a slot and a hash tag into the
/// rest, so these budgets run with 11- and 15-bit ids; 1025 and 16385 also
/// cross a table doubling, which shows in `visited_bytes`. Recorded on the
/// explorer before slots carried tags: tagging must change nothing here.
#[test]
fn certificates_across_id_widths() {
    // (circuit, max_states, proved,
    //  (states, edges, max_depth, peak_frontier, final_frontier),
    //  visited_bytes, violation checks per flip-flop)
    let pins = [
        (
            "chu133",
            1024,
            false,
            (1024, 3133, 39, 98, 40),
            36864,
            "q0=75 q1=75 d=24 t0=24",
        ),
        (
            "chu133",
            1025,
            false,
            (1025, 3134, 39, 98, 41),
            45084,
            "q0=75 q1=75 d=24 t0=24",
        ),
        (
            "chu133",
            16384,
            true,
            (3228, 11818, 68, 200, 0),
            123152,
            "q0=300 q1=300 d=66 t0=60",
        ),
        (
            "chu133",
            16385,
            true,
            (3228, 11818, 68, 200, 0),
            123152,
            "q0=300 q1=300 d=66 t0=60",
        ),
        (
            "chu150",
            1024,
            false,
            (1024, 3696, 35, 112, 88),
            36864,
            "s1=42 s3=2 s4=4 s6=8 s8=16 s10=32 s12=64",
        ),
        (
            "chu150",
            1025,
            false,
            (1025, 3700, 35, 112, 88),
            45084,
            "s1=42 s3=2 s4=4 s6=8 s8=16 s10=32 s12=64",
        ),
        (
            "chu150",
            16384,
            false,
            (16384, 76004, 90, 1224, 1220),
            589824,
            "s1=192 s3=256 s4=352 s6=496 s8=712 s10=678 s12=159",
        ),
        (
            "chu150",
            16385,
            false,
            (16385, 76010, 90, 1224, 1220),
            720924,
            "s1=192 s3=256 s4=352 s6=496 s8=712 s10=678 s12=160",
        ),
    ];
    for (name, max_states, proved, expected, bytes, checks) in pins {
        let sg = nshot_benchmarks::by_name(name).expect("in suite").build();
        let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
        let config = McConfig {
            max_states,
            ..McConfig::default()
        };
        let verdict = check(&sg, &imp.netlist, &config).unwrap();
        assert_eq!(verdict.is_proved(), proved, "{}", verdict.render());
        let s = &verdict.certificate().expect("certificate").stats;
        assert_eq!(
            (
                s.states,
                s.edges,
                s.max_depth,
                s.peak_frontier,
                s.final_frontier
            ),
            expected,
            "{name} max_states {max_states}: {}",
            verdict.render()
        );
        assert_eq!(s.visited_bytes, bytes, "{name} max_states {max_states}");
        let seen: Vec<String> = s
            .violation_checks
            .iter()
            .map(|(signal, n)| format!("{signal}={n}"))
            .collect();
        assert_eq!(seen.join(" "), checks, "{name} max_states {max_states}");
    }
}

#[test]
fn slot_codes_keep_ids_and_never_read_as_empty() {
    const NONE: u32 = u32::MAX;
    // (max_states, id_bits): the id width is that of max(max_states, 2).
    let widths = [
        (0, 2),
        (1, 2),
        (2, 2),
        (1024, 11),
        (2047, 11),
        (1 << 30, 31),
        ((1 << 31) - 1, 31),
        (1 << 31, 32),
        (u32::MAX as usize, 32),
        (usize::MAX, 32),
    ];
    let hashes = [0, 1, 0x9e37_79b9_7f4a_7c15, u64::MAX, u64::MAX << 32];
    for (max_states, bits) in widths {
        let code = SlotCode::for_budget(max_states);
        assert_eq!(code.id_bits(), bits, "max_states {max_states}");
        // The ids a run can store: 0 up to max(max_states, 2) - 1, and
        // below NONE, which the arena never hands out.
        let top = (max_states.max(2) - 1).min(NONE as usize - 1) as u32;
        for id in [0, 1, top / 2, top] {
            for h in hashes {
                let slot = code.encode(id, h);
                assert_ne!(slot, NONE, "max_states {max_states} id {id} hash {h:#x}");
                assert_eq!(code.id(slot), id);
                assert!(code.tag_matches(slot, h));
                // The tag is the hash's top 32 - id_bits bits, in place.
                let tag = if bits >= 32 {
                    0
                } else {
                    (h >> (32 + bits)) as u32
                };
                assert_eq!(slot, tag.checked_shl(bits).unwrap_or(0) | id);
                // A hash differing only in its lowest tag bit: rejected
                // when there is a tag, accepted when there is none.
                let other = h ^ 1u64.checked_shl(32 + bits).unwrap_or(0);
                assert_eq!(code.tag_matches(slot, other), bits >= 32);
            }
        }
    }
}

/// The per-input definition of a comb gate's value: AND over bubbled
/// inputs, OR, NOT of the first input.
fn reference_value(nl: &Netlist, gate: u32, w: &[u64]) -> bool {
    let g = nl.gate_id(gate as usize);
    let bit = |n: &nshot_netlist::NetId| w[n.index() >> 6] >> (n.index() & 63) & 1 == 1;
    match nl.kind(g) {
        GateKind::And { inverted } => nl
            .inputs(g)
            .iter()
            .zip(inverted)
            .all(|(n, &bubble)| bit(n) != bubble),
        GateKind::Or => nl.inputs(g).iter().any(bit),
        GateKind::Not => !bit(&nl.inputs(g)[0]),
        k => panic!("gate {gate} is {k:?}, not combinational"),
    }
}

fn is_comb(kind: &GateKind) -> bool {
    matches!(kind, GateKind::And { .. } | GateKind::Or | GateKind::Not)
}

/// Gate indices of the comb gates in the transitive fanin of net `root`.
fn reference_cone(nl: &Netlist, root: u32) -> Vec<u32> {
    let mut seen = std::collections::BTreeSet::new();
    let mut stack = vec![nl.net_id(root as usize).driver()];
    while let Some(g) = stack.pop() {
        if is_comb(nl.kind(g)) && seen.insert(g.index() as u32) {
            stack.extend(nl.inputs(g).iter().map(|n| n.driver()));
        }
    }
    seen.into_iter().collect()
}

/// Compare the compiled gates of `nl`'s model with the per-input
/// definition on random packed states: each gate's value, the excitation
/// bitset, and `exc & cone == 0` against re-evaluating every gate of the
/// cone. Half the states are settled (every comb output at its function
/// value, sources random) with up to two outputs flipped, so that cones
/// are seen both settled and not.
fn check_compiled_gates(sg: &StateGraph, nl: &Netlist, seed: u64) -> usize {
    let m = Model::build(sg, nl, &McConfig::default()).expect("model builds");
    let mut g = Gen::from_seed(seed);
    let mut w = vec![0u64; m.state_words()];
    let mut exc = vec![0u64; m.comb_words];
    let bit = |w: &[u64], i: u32| w[i as usize >> 6] >> (i & 63) & 1 == 1;
    let flip = |w: &mut [u64], i: u32| w[i as usize >> 6] ^= 1 << (i & 63);
    let cones: Vec<[(Vec<u32>, &Vec<u64>); 2]> = m
        .ffs
        .iter()
        .map(|f| {
            [
                (reference_cone(nl, f.set_sop), &f.set_cone),
                (reference_cone(nl, f.reset_sop), &f.reset_cone),
            ]
        })
        .collect();
    for sample in 0..256 {
        for x in &mut w {
            *x = g.u64();
        }
        if sample % 2 == 1 {
            // Gate indices are topological over comb paths.
            for c in &m.comb {
                if reference_value(nl, c.gate, &w) != bit(&w, c.gate) {
                    flip(&mut w, c.gate);
                }
            }
            for _ in 0..g.index(3) {
                flip(&mut w, m.comb[g.index(m.comb.len())].gate);
            }
        }
        m.excitation(&w, &mut exc);
        for (i, c) in m.comb.iter().enumerate() {
            let v = reference_value(nl, c.gate, &w);
            assert_eq!(m.value(c, &w), v, "{} gate {}", nl.name(), c.gate);
            assert_eq!(exc[i >> 6] >> (i & 63) & 1 == 1, v != bit(&w, c.gate));
        }
        for [set, reset] in &cones {
            for (gates, cone) in [set, reset] {
                let settled = gates
                    .iter()
                    .all(|&gate| reference_value(nl, gate, &w) == bit(&w, gate));
                assert_eq!(disjoint(&exc, cone), settled, "{}", nl.name());
            }
        }
    }
    m.comb.len()
}

#[test]
fn compiled_gates_match_the_per_input_definition_on_the_suite() {
    for (i, bench) in nshot_benchmarks::suite().iter().enumerate() {
        let sg = bench.build();
        let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
        let gates = check_compiled_gates(&sg, &imp.netlist, i as u64);
        assert!(gates > 0, "{}", bench.name);
    }
}

#[test]
fn compiled_gates_match_the_per_input_definition_on_generated_specs() {
    // The e2ebench gen-verify pool: the first 40 accepted draws from seed
    // 0 at a 128-state product cap, compiled from their `.g` text.
    let cfg = nshot_gen::GenConfig {
        max_states: 128,
        ..nshot_gen::GenConfig::default()
    };
    let (mut seed, mut pool) = (0u64, 0);
    while pool < 40 {
        if let Ok(spec) = nshot_gen::draw(seed, &cfg) {
            let sg = nshot_stg::parse_stg(&spec.g_text)
                .unwrap()
                .elaborate()
                .unwrap();
            let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
            check_compiled_gates(&sg, &imp.netlist, seed);
            pool += 1;
        }
        seed += 1;
    }
}

#[test]
fn compiled_gates_span_two_words() {
    // No real circuit has more than 64 nets: grow the handshake's netlist
    // by 72 random AND/OR/NOT gates over its sources and each other, some
    // reading one net both plain and inverted, and move its set SOP to
    // the last of them so that cone crosses into the second comb word.
    let sg = handshake();
    let mut nl = synthesize(&sg, &SynthesisOptions::default())
        .unwrap()
        .netlist;
    let mut g = Gen::from_seed(64);
    let mut nets: Vec<_> = nl
        .gate_ids()
        .filter(|&id| {
            matches!(nl.kind(id), GateKind::Input | GateKind::MhsFlipFlop) || is_comb(nl.kind(id))
        })
        .map(|id| id.net())
        .collect();
    let mut last = nets[0];
    for i in 0..72 {
        let k = g.usize_in(1, 5);
        let mut ins: Vec<_> = (0..k).map(|_| nets[g.index(nets.len())]).collect();
        let kind = match g.index(4) {
            0 => GateKind::Not,
            1 => GateKind::Or,
            _ => {
                if g.index(4) == 0 {
                    ins.push(ins[0]);
                }
                let mut inverted = g.vec_bool(ins.len(), ins.len());
                if ins.len() > k {
                    inverted[k] = !inverted[0];
                }
                GateKind::And { inverted }
            }
        };
        if matches!(kind, GateKind::Not) {
            ins.truncate(1);
        }
        last = nl.add_gate(kind, ins, &format!("x{i}"));
        nets.push(last);
    }
    let ack_set = nl
        .gate_ids()
        .find(|&id| {
            matches!(
                nl.kind(id),
                GateKind::AckAnd {
                    invert_enable: true
                }
            )
        })
        .expect("a set-side ack gate");
    nl.rewire_input(ack_set, 0, last);
    let m = Model::build(&sg, &nl, &McConfig::default()).unwrap();
    assert_eq!((m.net_words, m.comb_words), (2, 2));
    assert!(
        m.terms.len() > m.comb.len(),
        "some gate reads both net words"
    );
    assert!(
        m.ffs[0].set_cone[1] != 0,
        "the set cone reaches comb word 1"
    );
    assert!(check_compiled_gates(&sg, &nl, 1) > 64);
}
