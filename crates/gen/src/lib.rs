//! `nshot-gen` — seeded random generation of valid specifications.
//!
//! The 25-circuit Table 2 suite is a fixed corpus; this crate turns the
//! synthesis flow's input space into a *sampled* one. A draw is a pure
//! function of a `u64` seed:
//!
//! 1. **Sample** a [`Recipe`] — a structured composition of controller
//!    archetypes (pipeline, parallel handshakes, fork/join, free choice,
//!    OR-causality) with budget-clamped parameters ([`Recipe::sample`]).
//! 2. **Build** the recipe into a state graph by asynchronous interleaving
//!    of the fragments, then run the validity predicate of the paper's
//!    front-end: CSC, semi-modularity, strong reachability, unique state
//!    codes, and the 63-signal packing guard ([`build_recipe`]).
//! 3. **Emit** the canonical `.g` text ([`nshot_stg::sg_to_g_text`]) and
//!    re-elaborate it through the token game, requiring byte-stable
//!    re-emission and a digest-identical state graph — the generated
//!    artifact is guaranteed to mean what it says to every consumer that
//!    parses it.
//!
//! Draws that fail any step surface as a typed [`Rejection`] (never a
//! panic) and bump `nshot_gen_rejected_total{reason=...}` on the global
//! metrics registry; accepted draws bump `nshot_gen_accepted_total`. Under
//! [`GenConfig::default`] the sampler clamps parameters into the budgets up
//! front, so every seed is accepted — the rejection paths guard against
//! degenerate configs and hand-written recipes (and keep the fuzz loop
//! honest if a future archetype breaks an invariant).
//!
//! Shrinking ([`shrink`]) works on recipes, not text: a minimized
//! counterexample is itself a valid recipe whose parameters cannot be
//! reduced further without losing the failure.

#![warn(missing_docs)]

mod recipe;
mod shrink;

pub use recipe::{Fragment, Recipe};
pub use shrink::shrink;

use nshot_sg::StateGraph;
use nshot_stg::{parse_stg, sg_to_g_text};

/// State codes are packed into a `u64` with one bit spare: no specification
/// in the flow may exceed 63 signals.
pub const HARD_SIGNAL_LIMIT: usize = 63;

/// Budgets for sampling and validation (each archetype's own parameter
/// ceilings are fixed in the sampler).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Total signals across all fragments (clamped to
    /// [`HARD_SIGNAL_LIMIT`]).
    pub max_signals: usize,
    /// States of the interleaved product.
    pub max_states: usize,
    /// Fragments per recipe.
    pub max_fragments: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_signals: 24,
            max_states: 1024,
            max_fragments: 3,
        }
    }
}

/// Why a draw (or a hand-written recipe) was rejected. Every variant maps
/// to a stable `reason` label on `nshot_gen_rejected_total`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// A fragment's parameters are outside the archetype's supported range.
    InvalidFragment(String),
    /// The recipe has no fragments.
    EmptyRecipe,
    /// Combined signal count exceeds the configured (or hard 63) limit.
    TooManySignals {
        /// Declared signals.
        signals: usize,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The interleaved product exceeds the state budget.
    TooManyStates {
        /// Predicted (or measured) states.
        states: usize,
        /// The configured budget.
        limit: usize,
    },
    /// No output or internal signal anywhere — nothing to synthesize.
    NoOutputs,
    /// The built graph violates Complete State Coding.
    Csc {
        /// Number of violating state pairs.
        violations: usize,
    },
    /// The built graph violates semi-modularity.
    SemiModular {
        /// Number of violating (state, transition) triples.
        violations: usize,
    },
    /// Some state is unreachable from the initial state.
    NotStronglyReachable,
    /// Two reachable states share a binary code (the code-addressed `.g`
    /// state-machine encoding cannot express the graph).
    DuplicateCodes,
    /// The emitted `.g` text did not round-trip (re-parse, byte-stable
    /// re-emission, or token-game elaboration back to the same graph).
    Roundtrip(String),
}

impl Rejection {
    /// Stable label for the `reason` dimension of
    /// `nshot_gen_rejected_total`.
    pub fn reason(&self) -> &'static str {
        match self {
            Rejection::InvalidFragment(_) => "params",
            Rejection::EmptyRecipe => "empty",
            Rejection::TooManySignals { .. } => "too_many_signals",
            Rejection::TooManyStates { .. } => "too_many_states",
            Rejection::NoOutputs => "no_outputs",
            Rejection::Csc { .. } => "csc",
            Rejection::SemiModular { .. } => "semi_modular",
            Rejection::NotStronglyReachable => "not_strongly_reachable",
            Rejection::DuplicateCodes => "duplicate_codes",
            Rejection::Roundtrip(_) => "roundtrip",
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::InvalidFragment(what) => write!(f, "invalid fragment: {what}"),
            Rejection::EmptyRecipe => write!(f, "recipe has no fragments"),
            Rejection::TooManySignals { signals, limit } => {
                write!(f, "{signals} signals exceed the limit of {limit}")
            }
            Rejection::TooManyStates { states, limit } => {
                write!(f, "{states} states exceed the budget of {limit}")
            }
            Rejection::NoOutputs => write!(f, "no non-input signals to synthesize"),
            Rejection::Csc { violations } => {
                write!(f, "CSC violated ({violations} state pairs)")
            }
            Rejection::SemiModular { violations } => {
                write!(f, "semi-modularity violated ({violations} transitions)")
            }
            Rejection::NotStronglyReachable => write!(f, "not strongly reachable"),
            Rejection::DuplicateCodes => write!(f, "duplicate reachable state codes"),
            Rejection::Roundtrip(what) => write!(f, "`.g` round-trip failed: {what}"),
        }
    }
}

impl std::error::Error for Rejection {}

/// An accepted draw: the recipe, the validated state graph, and its
/// canonical `.g` serialization.
#[derive(Debug, Clone)]
pub struct GeneratedSpec {
    /// The seed that produced this spec.
    pub seed: u64,
    /// The genotype.
    pub recipe: Recipe,
    /// The validated state graph.
    pub sg: StateGraph,
    /// Canonical `.g` text; parsing and elaborating it reproduces `sg`.
    pub g_text: String,
}

/// Sorted-line digest of a state graph's code-addressed text form: equal
/// digests mean the same signals (names, kinds, declaration grouping), the
/// same initial code and the same labelled edge set, independent of state
/// discovery order.
fn digest(sg: &StateGraph) -> String {
    let text = sg.to_text();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.join("\n")
}

/// Build and validate a recipe, returning the state graph and its
/// canonical `.g` text.
///
/// This is the generator's validity predicate: parameter ranges, the signal
/// and state budgets, CSC, semi-modularity, strong reachability, unique
/// codes, and the emit→parse→elaborate round-trip all must hold.
///
/// # Errors
///
/// A typed [`Rejection`] naming the first failed check.
pub fn build_recipe(
    recipe: &Recipe,
    cfg: &GenConfig,
) -> Result<(StateGraph, String), Rejection> {
    if recipe.fragments.is_empty() {
        return Err(Rejection::EmptyRecipe);
    }
    for f in &recipe.fragments {
        f.validate()?;
    }
    let limit = cfg.max_signals.min(HARD_SIGNAL_LIMIT);
    let signals = recipe.signals();
    if signals > limit {
        return Err(Rejection::TooManySignals { signals, limit });
    }
    let predicted = recipe.states();
    if predicted > cfg.max_states {
        return Err(Rejection::TooManyStates {
            states: predicted,
            limit: cfg.max_states,
        });
    }
    if recipe.non_inputs() == 0 {
        return Err(Rejection::NoOutputs);
    }

    // Build fragments and fold the asynchronous product. Signal names are
    // prefixed per fragment, so interleave's collision panic cannot fire;
    // the running product guard keeps a wrong states() prediction from
    // materializing a huge graph.
    let mut sg: Option<StateGraph> = None;
    for (i, f) in recipe.fragments.iter().enumerate() {
        let part = f.build(&recipe.name, &format!("f{i}_"));
        sg = Some(match sg {
            None => part,
            Some(acc) => {
                let product = acc.num_states().saturating_mul(part.num_states());
                if product > cfg.max_states {
                    return Err(Rejection::TooManyStates {
                        states: product,
                        limit: cfg.max_states,
                    });
                }
                nshot_benchmarks::interleave(&recipe.name, &acc, &part)
            }
        });
    }
    let sg = sg.expect("non-empty recipe");

    validate_spec(&sg, cfg)?;

    // Canonical emission + full round-trip through the token game.
    let g_text = sg_to_g_text(&sg);
    let stg =
        parse_stg(&g_text).map_err(|e| Rejection::Roundtrip(format!("re-parse: {e}")))?;
    if stg.to_g_text() != g_text {
        return Err(Rejection::Roundtrip("emission is not a fixpoint".into()));
    }
    let sg2 = stg
        .elaborate_with_cap(cfg.max_states.saturating_mul(2).max(16))
        .map_err(|e| Rejection::Roundtrip(format!("elaborate: {e}")))?;
    if sg2.reachable_codes().len() != sg2.reachable().len() {
        return Err(Rejection::Roundtrip(
            "elaborated graph has duplicate codes".into(),
        ));
    }
    if digest(&sg) != digest(&sg2) {
        return Err(Rejection::Roundtrip(
            "elaborated graph differs from the source".into(),
        ));
    }
    Ok((sg, g_text))
}

/// The semantic half of the validity predicate, usable on any state graph
/// (the corpus regression runner applies it to archived specs too).
///
/// # Errors
///
/// A typed [`Rejection`] naming the first failed check.
pub fn validate_spec(sg: &StateGraph, cfg: &GenConfig) -> Result<(), Rejection> {
    let limit = cfg.max_signals.min(HARD_SIGNAL_LIMIT);
    if sg.num_signals() > limit {
        return Err(Rejection::TooManySignals {
            signals: sg.num_signals(),
            limit,
        });
    }
    if sg.num_states() > cfg.max_states {
        return Err(Rejection::TooManyStates {
            states: sg.num_states(),
            limit: cfg.max_states,
        });
    }
    if sg.non_input_signals().count() == 0 {
        return Err(Rejection::NoOutputs);
    }
    if let Err(v) = sg.check_csc() {
        return Err(Rejection::Csc {
            violations: v.len(),
        });
    }
    if let Err(v) = sg.check_semi_modular() {
        return Err(Rejection::SemiModular {
            violations: v.len(),
        });
    }
    if !sg.is_strongly_reachable() {
        return Err(Rejection::NotStronglyReachable);
    }
    if sg.reachable_codes().len() != sg.reachable().len() {
        return Err(Rejection::DuplicateCodes);
    }
    Ok(())
}

/// One seeded draw: sample a recipe, build it, validate it, and account the
/// outcome on the global metrics registry (`nshot_gen_accepted_total` /
/// `nshot_gen_rejected_total{reason=...}`).
///
/// Deterministic: the same `(seed, cfg)` always yields the same result,
/// byte for byte.
///
/// # Errors
///
/// The [`Rejection`] that stopped the draw. Under the default config every
/// seed is accepted; see the crate docs.
pub fn draw(seed: u64, cfg: &GenConfig) -> Result<GeneratedSpec, Rejection> {
    let recipe = Recipe::sample(seed, cfg);
    match build_recipe(&recipe, cfg) {
        Ok((sg, g_text)) => {
            nshot_obs::Registry::global()
                .counter("nshot_gen_accepted_total")
                .inc();
            Ok(GeneratedSpec {
                seed,
                recipe,
                sg,
                g_text,
            })
        }
        Err(r) => {
            nshot_obs::Registry::global()
                .counter(&format!(
                    "nshot_gen_rejected_total{{reason=\"{}\"}}",
                    r.reason()
                ))
                .inc();
            Err(r)
        }
    }
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_accepts_every_seed() {
        let cfg = GenConfig::default();
        for seed in 0..64u64 {
            let spec = draw(seed, &cfg).unwrap_or_else(|r| {
                panic!("seed {seed} rejected: {r}");
            });
            assert_eq!(spec.sg.name(), format!("gen{seed}"));
            assert!(spec.g_text.contains(".graph"));
        }
    }

    #[test]
    fn draws_are_deterministic() {
        let cfg = GenConfig::default();
        for seed in [0u64, 7, 42, 1000, u64::MAX] {
            let a = draw(seed, &cfg).expect("accepted");
            let b = draw(seed, &cfg).expect("accepted");
            assert_eq!(a.g_text, b.g_text, "seed {seed}");
            assert_eq!(a.recipe, b.recipe, "seed {seed}");
        }
    }

    #[test]
    fn seeds_yield_distinct_g_text() {
        let cfg = GenConfig::default();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let spec = draw(seed, &cfg).expect("accepted");
            assert!(seen.insert(spec.g_text), "seed {seed} duplicated g_text");
        }
    }

    #[test]
    fn out_of_range_params_reject_not_panic() {
        let cfg = GenConfig::default();
        let recipe = Recipe {
            name: "bad".into(),
            fragments: vec![Fragment::ParHandshakes { k: 9 }],
        };
        assert!(matches!(
            build_recipe(&recipe, &cfg),
            Err(Rejection::InvalidFragment(_))
        ));
        assert!(matches!(
            build_recipe(
                &Recipe {
                    name: "empty".into(),
                    fragments: vec![]
                },
                &cfg
            ),
            Err(Rejection::EmptyRecipe)
        ));
    }

    #[test]
    fn signal_budget_is_enforced_before_building() {
        // 10 fragments × 6 signals = 60 ≤ 63 but over the default 24.
        let recipe = Recipe {
            name: "wide".into(),
            fragments: vec![Fragment::ParHandshakes { k: 3 }; 10],
        };
        let cfg = GenConfig::default();
        assert!(matches!(
            build_recipe(&recipe, &cfg),
            Err(Rejection::TooManySignals { signals: 60, .. })
        ));
        // And past the hard 63-signal packing guard even with a huge budget.
        let recipe64 = Recipe {
            name: "wider".into(),
            fragments: vec![Fragment::ParHandshakes { k: 8 }; 4],
        };
        let loose = GenConfig {
            max_signals: 100,
            max_states: usize::MAX,
            ..GenConfig::default()
        };
        assert!(matches!(
            build_recipe(&recipe64, &loose),
            Err(Rejection::TooManySignals { signals: 64, limit: 63 })
        ));
    }

    #[test]
    fn state_budget_is_enforced() {
        let recipe = Recipe {
            name: "deep".into(),
            fragments: vec![Fragment::ParHandshakes { k: 3 }; 3], // 64^3
        };
        let cfg = GenConfig::default();
        assert!(matches!(
            build_recipe(&recipe, &cfg),
            Err(Rejection::TooManyStates { .. })
        ));
    }

    #[test]
    fn all_input_pipeline_is_rejected_as_no_outputs() {
        let recipe = Recipe {
            name: "inputs-only".into(),
            fragments: vec![Fragment::Pipeline {
                kinds: vec![true, true],
            }],
        };
        assert!(matches!(
            build_recipe(&recipe, &GenConfig::default()),
            Err(Rejection::NoOutputs)
        ));
    }

    #[test]
    fn validate_spec_flags_semantic_violations() {
        use nshot_sg::{SgBuilder, SignalKind};
        let cfg = GenConfig::default();
        // CSC violation: states 00 and 00' cannot exist in a code-addressed
        // builder, so build a USC-violating graph via fresh_state: two
        // distinct states share code 0b01 with different excited outputs.
        let mut b = SgBuilder::named("csc-bad");
        let a = b.signal("a", SignalKind::Input);
        let y = b.signal("y", SignalKind::Output);
        let s0 = b.fresh_state(0b00);
        let s1 = b.fresh_state(0b01);
        let s2 = b.fresh_state(0b11);
        let s3 = b.fresh_state(0b01);
        b.edge_states(s0, (a, true), s1).unwrap();
        b.edge_states(s1, (y, true), s2).unwrap();
        b.edge_states(s2, (y, false), s3).unwrap();
        b.edge_states(s3, (a, false), s0).unwrap();
        let sg = b.build_with_initial(s0).unwrap();
        assert!(matches!(
            validate_spec(&sg, &cfg),
            Err(Rejection::Csc { .. })
        ));

        // Semi-modularity violation: an excited output y gets disabled by
        // an input transition instead of firing.
        let mut b = SgBuilder::named("sm-bad");
        let a = b.signal("a", SignalKind::Input);
        let y = b.signal("y", SignalKind::Output);
        b.edge_codes(0b00, (y, true), 0b10).unwrap();
        b.edge_codes(0b00, (a, true), 0b01).unwrap();
        b.edge_codes(0b01, (a, false), 0b00).unwrap();
        b.edge_codes(0b10, (y, false), 0b00).unwrap();
        let sg = b.build(0b00).unwrap();
        assert!(matches!(
            validate_spec(&sg, &cfg),
            Err(Rejection::SemiModular { .. })
        ));
    }

    #[test]
    fn shrinking_a_failing_recipe_minimizes_it() {
        // Pretend any recipe containing an OrCausal fragment "fails": the
        // shrinker must strip everything else and reduce its tail to 0.
        let recipe = Recipe {
            name: "shrink-me".into(),
            fragments: vec![
                Fragment::ParHandshakes { k: 2 },
                Fragment::OrCausal { tail: 2 },
                Fragment::Pipeline {
                    kinds: vec![false, true, false],
                },
            ],
        };
        let minimized = shrink(&recipe, |r| {
            r.fragments
                .iter()
                .any(|f| matches!(f, Fragment::OrCausal { .. }))
        });
        assert_eq!(minimized.fragments, vec![Fragment::OrCausal { tail: 0 }]);
    }
}
