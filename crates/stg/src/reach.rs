//! The token game ([`Stg::explore`]) and reachability elaboration: STG →
//! state graph.

use crate::error::StgError;
use crate::petri::{Marking, Stg, TransId};
use nshot_par::FxHashMap;
use nshot_sg::{Dir, SgBuilder, StateGraph};

/// Default cap on the number of reachable markings.
pub(crate) const DEFAULT_STATE_CAP: usize = 500_000;

impl Stg {
    /// Elaborate the STG into a validated [`StateGraph`] by exhaustive token
    /// game exploration, inferring initial signal values from the transition
    /// constraints (a marking about to fire `a+` has `a = 0`, and values
    /// propagate across edges of other signals).
    ///
    /// # Errors
    ///
    /// * [`StgError::Unbounded`] / [`StgError::TooManyStates`] for nets that
    ///   blow up;
    /// * [`StgError::InconsistentSignal`] when no consistent state assignment
    ///   exists (the STG violates consistency);
    /// * [`StgError::Sg`] when the reachability graph fails state-graph
    ///   validation (e.g. two same-label transitions enabled together).
    pub fn elaborate(&self) -> Result<StateGraph, StgError> {
        self.elaborate_with_cap(DEFAULT_STATE_CAP)
    }

    /// [`Stg::elaborate`] with an explicit cap on reachable markings.
    ///
    /// # Errors
    ///
    /// See [`Stg::elaborate`].
    pub fn elaborate_with_cap(&self, cap: usize) -> Result<StateGraph, StgError> {
        let _span = nshot_obs::span(nshot_obs::Stage::Elaborate);
        self.check_structure()?;
        // State codes are packed into a u64; reject oversized declarations
        // up front so the phase-2 bit shifts cannot overflow.
        if self.num_signals() > 63 {
            return Err(StgError::Sg(nshot_sg::SgError::TooManySignals(
                self.num_signals(),
            )));
        }

        // --- Phase 1: explore the marking graph.
        let graph = self.explore(cap)?;
        // A transition that fires in no reachable marking sits on a cycle
        // that carries no token — an unmarked cycle, or an entirely empty
        // initial marking. The state graph such a net elaborates to is
        // degenerate (the signal is frozen at its default), so reject it
        // with the authoring mistake named instead.
        if let Some(t) = graph.dead_transition(self.num_transitions()) {
            return Err(StgError::DeadTransition(self.transition_name(t)));
        }
        let edges: Vec<(usize, usize, Dir, usize)> = graph
            .edges
            .iter()
            .map(|&(from, t, to)| {
                let tr = &self.transitions[t.0 as usize];
                (from, tr.signal, tr.dir, to)
            })
            .collect();

        // --- Phase 2: infer each marking's signal code.
        let codes = self.infer_codes(&edges)?;

        // --- Phase 3: build and validate the state graph.
        let mut b = SgBuilder::named(self.name());
        let sig_ids: Vec<_> = self
            .signals
            .iter()
            .map(|s| b.signal(&s.name, s.kind))
            .collect();
        let state_ids: Vec<_> = codes.iter().map(|&c| b.fresh_state(c)).collect();
        for &(from, sig, dir, to) in &edges {
            b.edge_states(
                state_ids[from],
                (sig_ids[sig], dir.target_value()),
                state_ids[to],
            )?;
        }
        Ok(b.build_with_initial(state_ids[0])?)
    }

    /// The token game: every firing between markings reachable from the
    /// initial one, as `(from, transition, to)`. Markings are numbered in
    /// breadth-first discovery order (the initial marking is 0); firings are
    /// grouped by `from` in that same order and within a marking in
    /// ascending [`TransId`] order.
    ///
    /// Each firing writes one reused successor marking, which is cloned
    /// only when it is new.
    ///
    /// # Errors
    ///
    /// [`StgError::Unbounded`] from [`Stg::fire`];
    /// [`StgError::TooManyStates`] when more than `cap` markings are
    /// reachable.
    pub(crate) fn explore(&self, cap: usize) -> Result<MarkingGraph, StgError> {
        // Marking → index interning is the hottest map of the token game
        // (one lookup per firing); markings are never adversarial, so
        // FxHash rather than SipHash.
        let m0 = self.initial_marking();
        let mut index: FxHashMap<Marking, usize> = FxHashMap::default();
        index.insert(m0.clone(), 0);
        // The FIFO queue: index order is discovery order. A marking leaves
        // the queue when it is expanded; `index` keeps its own copy.
        let mut queue = vec![m0];
        let mut graph = MarkingGraph { edges: Vec::new() };
        let mut enabled = Vec::new();
        let mut next = Marking(Vec::new());
        let mut mi = 0;
        while mi < queue.len() {
            let m = std::mem::replace(&mut queue[mi], Marking(Vec::new()));
            self.enabled_into(&m, &mut enabled);
            for &t in &enabled {
                self.fire_into(&m, t, &mut next)?;
                let ni = match index.get(&next) {
                    Some(&ni) => ni,
                    None => {
                        let ni = queue.len();
                        if ni >= cap {
                            return Err(StgError::TooManyStates(cap));
                        }
                        index.insert(next.clone(), ni);
                        queue.push(next.clone());
                        ni
                    }
                };
                graph.edges.push((mi, t, ni));
            }
            mi += 1;
        }
        Ok(graph)
    }

    /// Phase 2: the signal code of every marking, from the firings
    /// `(from, signal, dir, to)` in [`Stg::explore`] order, where the first
    /// edge into each marking other than 0 discovers it, in index order.
    ///
    /// One parity pass: each marking's code relative to marking 0 flips the
    /// fired signal's bit along the edge that discovered it, and every edge
    /// must agree with those relative codes. A signal's initial value is
    /// the value before any of its edges, and all of them must agree. A
    /// signal that never fires stays 0.
    ///
    /// # Errors
    ///
    /// [`StgError::InconsistentSignal`] when no consistent assignment
    /// exists, naming a signal that would need two values at once.
    fn infer_codes(&self, edges: &[(usize, usize, Dir, usize)]) -> Result<Vec<u64>, StgError> {
        let inconsistent =
            |sig: usize| StgError::InconsistentSignal(self.signals[sig].name.clone());
        let mut relative: Vec<u64> = vec![0];
        for &(from, sig, _, to) in edges {
            let flipped = relative[from] ^ (1 << sig);
            if to == relative.len() {
                relative.push(flipped);
            } else if relative[to] != flipped {
                let diff = relative[to] ^ flipped;
                return Err(inconsistent(diff.trailing_zeros() as usize));
            }
        }
        let mut initial: Vec<Option<bool>> = vec![None; self.num_signals()];
        for &(from, sig, dir, _) in edges {
            let flipped_since_zero = (relative[from] >> sig) & 1 == 1;
            let at_zero = !dir.target_value() ^ flipped_since_zero;
            if *initial[sig].get_or_insert(at_zero) != at_zero {
                return Err(inconsistent(sig));
            }
        }
        let base = initial.iter().enumerate().fold(0u64, |acc, (s, v)| {
            acc | (u64::from(v.unwrap_or(false)) << s)
        });
        Ok(relative.iter().map(|r| base ^ r).collect())
    }
}

/// The reachable marking graph, as [`Stg::explore`] returns it.
pub(crate) struct MarkingGraph {
    /// Firings `(from, transition, to)` in exploration order.
    pub edges: Vec<(usize, TransId, usize)>,
}

impl MarkingGraph {
    /// The first of `num_transitions` transitions that never fires.
    pub fn dead_transition(&self, num_transitions: usize) -> Option<TransId> {
        let mut fired = vec![false; num_transitions];
        for &(_, t, _) in &self.edges {
            fired[t.0 as usize] = true;
        }
        fired.iter().position(|&f| !f).map(|i| TransId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_stg;
    use crate::StgError;

    #[test]
    fn handshake_elaborates_to_four_states() {
        let stg = parse_stg(
            ".model hs\n.inputs r\n.outputs g\n.graph\nr+ g+\ng+ r-\nr- g-\ng- r+\n.marking { <g-,r+> }\n.end",
        )
        .unwrap();
        let sg = stg.elaborate().unwrap();
        assert_eq!(sg.num_states(), 4);
        assert!(sg.check_csc().is_ok());
        assert!(sg.check_semi_modular().is_ok());
        assert!(sg.is_distributive());
        // Initial marking enables r+, so r = 0 and g = 0 initially.
        assert_eq!(sg.code(sg.initial()), 0);
    }

    #[test]
    fn concurrency_gives_diamond() {
        // Two concurrent outputs after one input: a+ || b+ diamond.
        let stg = parse_stg(
            ".model conc\n.inputs r\n.outputs a b\n.graph\nr+ a+ b+\na+ r-\nb+ r-\nr- a- b-\na- r+\nb- r+\n.marking { <b-,r+> <a-,r+> }\n.end",
        )
        .unwrap();
        let sg = stg.elaborate().unwrap();
        // r+ (1) → {a+,b+} diamond (4 states incl. join) … total 8.
        assert_eq!(sg.num_states(), 8);
        assert!(sg.check_semi_modular().is_ok());
        assert!(sg.check_csc().is_ok());
    }

    #[test]
    fn input_choice_elaborates() {
        // Free choice at p0 between a+ and b+; each branch has its own c
        // occurrence (c+ / c+/2), the canonical OR shape.
        let stg = parse_stg(
            ".model choice\n.inputs a b\n.outputs c\n.graph\np0 a+ b+\na+ c+\nb+ c+/2\nc+ a-\nc+/2 b-\na- c-\nb- c-/2\nc- p0\nc-/2 p0\n.marking { p0 }\n.end",
        )
        .unwrap();
        let sg = stg.elaborate().unwrap();
        assert_eq!(sg.num_states(), 7);
        assert!(sg.check_semi_modular().is_ok());
        assert!(sg.check_csc().is_ok(), "both 001 markings excite -c");
        // Two falling excitation regions for c (one per branch).
        let c = sg.signal_by_name("c").unwrap();
        let regions = sg.regions_of(c);
        use nshot_sg::Dir;
        assert_eq!(regions.excitation_of(Dir::Fall).count(), 2);
        assert_eq!(regions.excitation_of(Dir::Rise).count(), 2);
    }

    #[test]
    fn unbounded_net_is_rejected() {
        // A producer with no consumer accumulates tokens.
        let stg = parse_stg(
            ".model bad\n.outputs a\n.graph\np a+\na+ p q\na- q\nq a-\n.marking { p }\n.end",
        )
        .unwrap();
        let err = stg.elaborate().unwrap_err();
        assert!(
            matches!(err, StgError::Unbounded { .. } | StgError::TooManyStates(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn inconsistent_stg_is_rejected() {
        // a+ followed by a+ again without a- in between.
        let stg = parse_stg(
            ".model inc\n.outputs a\n.graph\na+ a+/2\na+/2 a-\na- a+\n.marking { <a-,a+> }\n.end",
        )
        .unwrap();
        let err = stg.elaborate().unwrap_err();
        assert!(
            matches!(err, StgError::InconsistentSignal(_) | StgError::Sg(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn odd_parity_cycle_is_inconsistent() {
        // p0 → p1 through a+ or b+: p1 would need a = 1, b = 0 and a = 0,
        // b = 1 at once.
        let stg = parse_stg(
            ".model m\n.inputs a b\n.graph\np0 a+ b+\na+ p1\nb+ p1\np1 a- b-\na- p0\nb- p0\n.marking { p0 }\n.end",
        )
        .unwrap();
        assert!(matches!(
            stg.elaborate(),
            Err(StgError::InconsistentSignal(_))
        ));
    }

    #[test]
    fn disagreeing_initial_values_are_inconsistent() {
        // a+ a+/2 a- a-/2: every cycle flips a evenly, but a+/2 needs a = 0
        // where a+ has just set it to 1.
        let stg = parse_stg(
            ".model d\n.outputs a\n.graph\na+ a+/2\na+/2 a-\na- a-/2\na-/2 a+\n.marking { <a-/2,a+> }\n.end",
        )
        .unwrap();
        assert_eq!(
            stg.elaborate().unwrap_err(),
            StgError::InconsistentSignal("a".into())
        );
    }

    #[test]
    fn state_cap_is_enforced() {
        // 6 concurrent toggling outputs → 2^6 diamond states exceed cap 10.
        let mut text = String::from(".model big\n.outputs");
        for i in 0..6 {
            text.push_str(&format!(" s{i}"));
        }
        text.push_str("\n.graph\n");
        for i in 0..6 {
            text.push_str(&format!("s{i}+ s{i}-\ns{i}- s{i}+\n"));
        }
        text.push_str(".marking {");
        for i in 0..6 {
            text.push_str(&format!(" <s{i}-,s{i}+>"));
        }
        text.push_str(" }\n.end");
        let stg = parse_stg(&text).unwrap();
        assert!(matches!(
            stg.elaborate_with_cap(10),
            Err(StgError::TooManyStates(10))
        ));
        // And with a generous cap it elaborates to 4^6/…: each toggler has 2
        // phases, so 2^6 = 64 states.
        let sg = stg.elaborate().unwrap();
        assert_eq!(sg.num_states(), 64);
    }
}
