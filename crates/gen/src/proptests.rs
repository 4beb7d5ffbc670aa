//! Seed-sweep property tests for the generator. Inputs come from the
//! fixed-seed driver in `nshot_par::prop`; no external proptest crate.

use std::sync::Mutex;

use nshot_core::{synthesize, SynthesisOptions};
use nshot_logic::reset_cache;
use nshot_par::{prop, ThreadGuard};
use nshot_stg::parse_stg;

use crate::{draw, validate_spec, GenConfig};

/// Serializes tests that pin the process-global thread override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn accepted_draws_are_valid_and_byte_stable() {
    // One draw per case serves both checks: the validity predicate holds,
    // and the canonical `.g` emission is a fixpoint.
    prop::check("gen_accepted_draws_valid", |g| {
        let cfg = GenConfig::default();
        let seed = g.u64();
        let spec = draw(seed, &cfg).expect("default config accepts every seed");
        validate_spec(&spec.sg, &cfg).expect("accepted spec re-validates");
        assert!(spec.sg.non_input_signals().count() >= 1);
        assert!(spec.sg.num_signals() <= cfg.max_signals);
        assert!(spec.sg.num_states() <= cfg.max_states);
        let stg = parse_stg(&spec.g_text).expect("canonical text parses");
        assert_eq!(
            stg.to_g_text(),
            spec.g_text,
            "seed {seed}: emission is not a fixpoint"
        );
    });
}

#[test]
fn narrowed_configs_stay_deterministic() {
    // Shrunken budgets change which recipes fit, never determinism: the
    // same (seed, cfg) must give the same outcome both times, accepted or
    // rejected.
    prop::check("gen_narrowed_configs_deterministic", |g| {
        let cfg = GenConfig {
            max_signals: g.usize_in(2, 12),
            max_states: g.usize_in(4, 256),
            max_fragments: g.usize_in(1, 2),
        };
        let seed = g.u64();
        let a = draw(seed, &cfg);
        let b = draw(seed, &cfg);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x.g_text, y.g_text),
            (Err(x), Err(y)) => assert_eq!(x, y),
            (x, y) => panic!("seed {seed}: outcomes diverged: {x:?} vs {y:?}"),
        }
    });
}

#[test]
fn generated_specs_synthesize_identically_at_1_and_8_threads() {
    let _lock = OVERRIDE_LOCK.lock().unwrap();
    // Fewer cases than the default sweep: each case runs synthesis twice.
    prop::check_n("gen_synthesis_thread_determinism", 8, |g| {
        let seed = g.u64();
        let spec = draw(seed, &GenConfig::default()).expect("accepted");
        let serial = {
            let _g = ThreadGuard::pin(1);
            reset_cache();
            let imp =
                synthesize(&spec.sg, &SynthesisOptions::default()).expect("synthesizes");
            format!("{imp:?}")
        };
        let parallel = {
            let _g = ThreadGuard::pin(8);
            reset_cache();
            let imp =
                synthesize(&spec.sg, &SynthesisOptions::default()).expect("synthesizes");
            format!("{imp:?}")
        };
        assert_eq!(
            serial, parallel,
            "seed {seed}: thread count changed synthesis output"
        );
    });
}
