//! Recipes: the structured genotype of a generated specification.
//!
//! A [`Recipe`] is a list of [`Fragment`]s — parameterized instances of the
//! controller archetypes in `nshot_benchmarks` — composed by asynchronous
//! interleaving. Sampling happens at the recipe level (cheap integer
//! arithmetic against the configured budgets), building and validation at
//! the state-graph level, and shrinking back at the recipe level, so a
//! minimized counterexample is always a *well-formed* specification rather
//! than an arbitrary text mutation.

use nshot_par::SmallRng;
use nshot_sg::StateGraph;

use crate::{GenConfig, Rejection};

// Upper bounds on each archetype's sampled parameters; the sampler clamps
// each further into the remaining signal and state budgets.
/// Pipeline ring length.
const MAX_PIPELINE: usize = 8;
/// Parallel handshake count `k`.
const MAX_HANDSHAKES: usize = 3;
/// Fork/join channel count.
const MAX_CHANNELS: usize = 3;
/// Tail handshake pairs (fork/join and OR-causal).
const MAX_TAIL: usize = 2;
/// Free-choice branch count.
const MAX_BRANCHES: usize = 4;
/// Handshake pairs per free-choice branch.
const MAX_PAIRS: usize = 4;

/// One parameterized archetype instance inside a [`Recipe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fragment {
    /// Sequential ring of `kinds.len()` signals (`true` = input); `2n`
    /// states.
    Pipeline {
        /// Signal roles along the ring, `true` for inputs.
        kinds: Vec<bool>,
    },
    /// `k` independent four-phase request/grant handshakes; `4^k` states.
    ParHandshakes {
        /// Number of handshakes, `1..=8`.
        k: usize,
    },
    /// Request forking to `channels` concurrent req/ack channels with a
    /// completion join and `tail` sequential pairs; `2·3^k + 2 + 4·tail`
    /// states.
    ForkJoin {
        /// Number of forked channels, `1..=8`.
        channels: usize,
        /// Sequential handshake pairs after the join.
        tail: usize,
    },
    /// Input free choice among `branches` cycles of `pairs` handshake
    /// pairs, with `pairs − 1` outputs shared across branches.
    ChoiceCycle {
        /// Number of branches of the free choice, `≥ 1`.
        branches: usize,
        /// Handshake pairs per branch, `≥ 1`.
        pairs: usize,
    },
    /// OR-causality with CSC and `tail` sequential pairs — the
    /// non-distributive archetype; `14 + 4·tail` states.
    OrCausal {
        /// Sequential handshake pairs between the phases.
        tail: usize,
    },
}

impl Fragment {
    /// Number of signals this fragment declares.
    pub fn signals(&self) -> usize {
        match self {
            Fragment::Pipeline { kinds } => kinds.len(),
            Fragment::ParHandshakes { k } => 2 * k,
            Fragment::ForkJoin { channels, tail } => 2 * channels + 2 * tail + 2,
            Fragment::ChoiceCycle { branches, pairs } => {
                (pairs - 1) + branches * (pairs + 1)
            }
            Fragment::OrCausal { tail } => 4 + 2 * tail,
        }
    }

    /// Number of states of the fragment's state graph (exact — checked
    /// against the built graph by unit tests).
    pub fn states(&self) -> usize {
        match self {
            Fragment::Pipeline { kinds } => 2 * kinds.len(),
            Fragment::ParHandshakes { k } => 4usize.saturating_pow(*k as u32),
            Fragment::ForkJoin { channels, tail } => {
                2 * 3usize.saturating_pow(*channels as u32) + 2 + 4 * tail
            }
            // pairs = 1 has no shared outputs: branches share only the
            // initial state, 1 + 3·b states. With shared outputs the
            // common tail merges more: b·(4p − 2) + 2.
            Fragment::ChoiceCycle { branches, pairs } => {
                if *pairs == 1 {
                    3 * branches + 1
                } else {
                    branches * (4 * pairs - 2) + 2
                }
            }
            Fragment::OrCausal { tail } => 14 + 4 * tail,
        }
    }

    /// Number of non-input (output or internal) signals — the ones the
    /// synthesis flow must implement.
    pub fn non_inputs(&self) -> usize {
        match self {
            Fragment::Pipeline { kinds } => kinds.iter().filter(|&&k| !k).count(),
            Fragment::ParHandshakes { k } => *k,
            Fragment::ForkJoin { channels, tail } => channels + tail + 1,
            Fragment::ChoiceCycle { branches, pairs } => (pairs - 1) + branches,
            Fragment::OrCausal { tail } => 2 + tail, // c, the phase signal d, and the tail outputs
        }
    }

    /// Check the parameter ranges the archetype builders assert on, as a
    /// typed error instead of a panic.
    pub fn validate(&self) -> Result<(), Rejection> {
        let bad = |what: &str| Err(Rejection::InvalidFragment(what.to_owned()));
        match self {
            Fragment::Pipeline { kinds } if kinds.is_empty() => bad("pipeline needs ≥1 signal"),
            Fragment::ParHandshakes { k } if !(1..=8).contains(k) => {
                bad("par_handshakes k must be 1..=8")
            }
            Fragment::ForkJoin { channels, .. } if !(1..=8).contains(channels) => {
                bad("fork_join channels must be 1..=8")
            }
            Fragment::ChoiceCycle { branches, pairs } if *branches < 1 || *pairs < 1 => {
                bad("choice_cycle needs branches ≥ 1 and pairs ≥ 1")
            }
            _ => Ok(()),
        }
    }

    /// Build the fragment's state graph. Parameters must have passed
    /// [`Fragment::validate`] — the underlying builders panic otherwise.
    pub fn build(&self, name: &str, prefix: &str) -> StateGraph {
        match self {
            Fragment::Pipeline { kinds } => nshot_benchmarks::pipeline(name, prefix, kinds),
            Fragment::ParHandshakes { k } => nshot_benchmarks::par_handshakes(name, prefix, *k),
            Fragment::ForkJoin { channels, tail } => {
                nshot_benchmarks::fork_join_channels(name, prefix, *channels, *tail)
            }
            Fragment::ChoiceCycle { branches, pairs } => {
                nshot_benchmarks::choice_cycle(name, prefix, *branches, *pairs)
            }
            Fragment::OrCausal { tail } => nshot_benchmarks::or_causal(name, prefix, *tail),
        }
    }

    /// Single-step parameter reductions, each strictly smaller than `self`
    /// (the shrinker's move set).
    pub(crate) fn shrink_steps(&self) -> Vec<Fragment> {
        let mut out = Vec::new();
        match self {
            Fragment::Pipeline { kinds } => {
                if kinds.len() > 1 {
                    for i in 0..kinds.len() {
                        let mut smaller = kinds.clone();
                        smaller.remove(i);
                        out.push(Fragment::Pipeline { kinds: smaller });
                    }
                }
            }
            Fragment::ParHandshakes { k } => {
                if *k > 1 {
                    out.push(Fragment::ParHandshakes { k: k - 1 });
                }
            }
            Fragment::ForkJoin { channels, tail } => {
                if *channels > 1 {
                    out.push(Fragment::ForkJoin {
                        channels: channels - 1,
                        tail: *tail,
                    });
                }
                if *tail > 0 {
                    out.push(Fragment::ForkJoin {
                        channels: *channels,
                        tail: tail - 1,
                    });
                }
            }
            Fragment::ChoiceCycle { branches, pairs } => {
                if *branches > 1 {
                    out.push(Fragment::ChoiceCycle {
                        branches: branches - 1,
                        pairs: *pairs,
                    });
                }
                if *pairs > 1 {
                    out.push(Fragment::ChoiceCycle {
                        branches: *branches,
                        pairs: pairs - 1,
                    });
                }
            }
            Fragment::OrCausal { tail } => {
                if *tail > 0 {
                    out.push(Fragment::OrCausal { tail: tail - 1 });
                }
            }
        }
        out
    }

    /// Sample one fragment fitting the remaining signal and state budgets,
    /// or `None` when nothing fits. Total over its domain: parameters are
    /// clamped *into* the budgets rather than drawn and rejected.
    fn sample(rng: &mut SmallRng, sig_left: usize, state_budget: usize) -> Option<Fragment> {
        #[derive(Clone, Copy)]
        enum Arch {
            Pipe,
            Hs,
            Fj,
            Choice,
            Or,
        }
        let pipe_max = MAX_PIPELINE.min(sig_left).min(state_budget / 2);
        let hs_max = {
            let mut k = MAX_HANDSHAKES.min(sig_left / 2);
            while k >= 1 && 4usize.saturating_pow(k as u32) > state_budget {
                k -= 1;
            }
            k
        };
        let fj_max = {
            let mut k = MAX_CHANNELS.min(sig_left.saturating_sub(2) / 2);
            while k >= 1 && 2 * 3usize.saturating_pow(k as u32) + 2 > state_budget {
                k -= 1;
            }
            k
        };

        let mut feasible = Vec::new();
        if pipe_max >= 1 {
            feasible.push(Arch::Pipe);
        }
        if hs_max >= 1 {
            feasible.push(Arch::Hs);
        }
        if fj_max >= 1 {
            feasible.push(Arch::Fj);
        }
        if sig_left >= 2 && state_budget >= 4 {
            feasible.push(Arch::Choice);
        }
        if sig_left >= 4 && state_budget >= 14 {
            feasible.push(Arch::Or);
        }
        if feasible.is_empty() {
            return None;
        }

        Some(match feasible[rng.gen_index(feasible.len())] {
            Arch::Pipe => {
                let n = 1 + rng.gen_index(pipe_max);
                let mut kinds: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
                // Keep at least one output so a single-fragment recipe
                // always has something to synthesize.
                if kinds.iter().all(|&k| k) {
                    let i = rng.gen_index(n);
                    kinds[i] = false;
                }
                Fragment::Pipeline { kinds }
            }
            Arch::Hs => Fragment::ParHandshakes {
                k: 1 + rng.gen_index(hs_max),
            },
            Arch::Fj => {
                let channels = 1 + rng.gen_index(fj_max);
                let base_states = 2 * 3usize.saturating_pow(channels as u32) + 2;
                let t_max = MAX_TAIL
                    .min((sig_left - 2 - 2 * channels) / 2)
                    .min((state_budget - base_states) / 4);
                let tail = if t_max == 0 { 0 } else { rng.gen_index(t_max + 1) };
                Fragment::ForkJoin { channels, tail }
            }
            Arch::Choice => {
                // With branches = 1, `pairs` costs 2p signals and 4p states
                // (p ≥ 2) — both bounds also admit p = 1.
                let p_max = MAX_PAIRS.min(sig_left / 2).min((state_budget / 4).max(1));
                let pairs = 1 + rng.gen_index(p_max);
                let b_sig = (sig_left - (pairs - 1)) / (pairs + 1);
                let b_state = if pairs == 1 {
                    (state_budget - 1) / 3
                } else {
                    (state_budget - 2) / (4 * pairs - 2)
                };
                let b_max = MAX_BRANCHES.min(b_sig).min(b_state);
                Fragment::ChoiceCycle {
                    branches: 1 + rng.gen_index(b_max),
                    pairs,
                }
            }
            Arch::Or => {
                let t_max = MAX_TAIL
                    .min((sig_left - 4) / 2)
                    .min((state_budget - 14) / 4);
                let tail = if t_max == 0 { 0 } else { rng.gen_index(t_max + 1) };
                Fragment::OrCausal { tail }
            }
        })
    }
}

/// The genotype of a generated specification: a name plus the composed
/// fragments. Identical recipes build byte-identical specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recipe {
    /// Model name of the built specification (carried into the `.g` text).
    pub name: String,
    /// Fragments, composed left to right by interleaving.
    pub fragments: Vec<Fragment>,
}

impl Recipe {
    /// Total declared signals across fragments.
    pub fn signals(&self) -> usize {
        self.fragments.iter().map(Fragment::signals).sum()
    }

    /// Total states of the interleaved product (saturating).
    pub fn states(&self) -> usize {
        self.fragments
            .iter()
            .fold(1usize, |acc, f| acc.saturating_mul(f.states()))
    }

    /// Total non-input signals across fragments.
    pub fn non_inputs(&self) -> usize {
        self.fragments.iter().map(Fragment::non_inputs).sum()
    }

    /// One-line human summary, e.g. `pipeline[oio] ⊗ or_causal[t=1]`.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .fragments
            .iter()
            .map(|f| match f {
                Fragment::Pipeline { kinds } => format!(
                    "pipeline[{}]",
                    kinds
                        .iter()
                        .map(|&k| if k { 'i' } else { 'o' })
                        .collect::<String>()
                ),
                Fragment::ParHandshakes { k } => format!("par_handshakes[k={k}]"),
                Fragment::ForkJoin { channels, tail } => {
                    format!("fork_join[k={channels},t={tail}]")
                }
                Fragment::ChoiceCycle { branches, pairs } => {
                    format!("choice[b={branches},p={pairs}]")
                }
                Fragment::OrCausal { tail } => format!("or_causal[t={tail}]"),
            })
            .collect();
        parts.join(" x ")
    }

    /// Deterministically sample a recipe for `seed` within `cfg`'s budgets.
    ///
    /// Total: every seed yields a recipe. Under sane budgets (the default
    /// config) the sampled recipe always builds and validates; a degenerate
    /// config (e.g. `max_signals = 0`) yields a minimal recipe that
    /// [`crate::build_recipe`] then rejects with a typed error.
    pub fn sample(seed: u64, cfg: &GenConfig) -> Recipe {
        let mut rng = SmallRng::seed_from_u64(seed);
        let target = 1 + rng.gen_index(cfg.max_fragments.max(1));
        let mut fragments = Vec::new();
        let mut sig_left = cfg.max_signals.min(crate::HARD_SIGNAL_LIMIT);
        let mut states = 1usize;
        for _ in 0..target {
            let budget = cfg.max_states.checked_div(states).unwrap_or(0);
            let Some(f) = Fragment::sample(&mut rng, sig_left, budget) else {
                break;
            };
            sig_left -= f.signals();
            states = states.saturating_mul(f.states());
            fragments.push(f);
        }
        if fragments.is_empty() {
            // Nothing fit the budgets; emit the smallest possible recipe
            // and let build_recipe produce the typed rejection.
            fragments.push(Fragment::Pipeline {
                kinds: vec![false],
            });
        }
        Recipe {
            name: format!("gen{seed}"),
            fragments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_counts_match_built_graphs() {
        let cases = vec![
            Fragment::Pipeline {
                kinds: vec![true, false, false],
            },
            Fragment::Pipeline {
                kinds: vec![false],
            },
            Fragment::ParHandshakes { k: 2 },
            Fragment::ForkJoin {
                channels: 2,
                tail: 1,
            },
            Fragment::ChoiceCycle {
                branches: 2,
                pairs: 1,
            },
            Fragment::ChoiceCycle {
                branches: 3,
                pairs: 2,
            },
            Fragment::OrCausal { tail: 1 },
        ];
        for f in cases {
            let sg = f.build("t", "x_");
            assert_eq!(sg.num_signals(), f.signals(), "{f:?}");
            assert_eq!(sg.num_states(), f.states(), "{f:?}");
            assert_eq!(
                sg.non_input_signals().count(),
                f.non_inputs(),
                "{f:?}"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_and_within_budget() {
        let cfg = GenConfig::default();
        for seed in 0..200u64 {
            let a = Recipe::sample(seed, &cfg);
            let b = Recipe::sample(seed, &cfg);
            assert_eq!(a, b, "seed {seed} resampled differently");
            assert!(
                a.signals() <= cfg.max_signals,
                "seed {seed}: {} signals",
                a.signals()
            );
            assert!(
                a.states() <= cfg.max_states,
                "seed {seed}: {} states ({})",
                a.states(),
                a.describe()
            );
            assert!(a.non_inputs() >= 1, "seed {seed} has nothing to implement");
            for f in &a.fragments {
                f.validate().expect("sampled params in range");
            }
        }
    }

    #[test]
    fn invalid_params_are_typed_not_panics() {
        assert!(Fragment::ParHandshakes { k: 9 }.validate().is_err());
        assert!(Fragment::ForkJoin {
            channels: 0,
            tail: 0
        }
        .validate()
        .is_err());
        assert!(Fragment::Pipeline { kinds: vec![] }.validate().is_err());
        assert!(Fragment::ChoiceCycle {
            branches: 0,
            pairs: 1
        }
        .validate()
        .is_err());
    }
}
