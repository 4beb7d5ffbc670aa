//! Structural analyses of STGs: net-class classification, liveness and
//! safeness via the token game, and DOT export.
//!
//! These are the standard sanity checks an STG front-end offers: marked
//! graphs (no choice) and free-choice nets cover most published
//! specifications; safeness (1-boundedness) is what the elaboration
//! assumes; liveness rules out specifications that deadlock.

use crate::error::StgError;
use crate::petri::{Marking, PlaceId, Stg, TransId};
use crate::reach::DEFAULT_STATE_CAP;
use std::collections::VecDeque;

/// Structural class of the underlying net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetClass {
    /// Every place has at most one producer and one consumer: no choice at
    /// all (pure concurrency/causality).
    MarkedGraph,
    /// Every choice place's consumers have that place as their only input:
    /// choices are free (never controlled by concurrency).
    FreeChoice,
    /// Anything else.
    General,
}

/// Result of the behavioural checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StgReport {
    /// Structural class.
    pub class: NetClass,
    /// `true` if no reachable place ever holds more than one token.
    pub safe: bool,
    /// `true` if from every reachable marking every transition can
    /// eventually fire again.
    pub live: bool,
    /// Number of reachable markings explored.
    pub markings: usize,
}

impl Stg {
    /// Classify the net structurally.
    pub fn net_class(&self) -> NetClass {
        let mut marked_graph = true;
        let mut free_choice = true;
        for (pi, p) in self.places.iter().enumerate() {
            if p.post.len() > 1 {
                marked_graph = false;
                // Free choice: each consumer of a choice place must have
                // exactly this place as its preset.
                for &t in &p.post {
                    let pre = &self.transitions[t.0 as usize].pre;
                    if pre.len() != 1 || pre[0] != PlaceId(pi as u32) {
                        free_choice = false;
                    }
                }
            }
            if p.pre.len() > 1 {
                marked_graph = false;
            }
        }
        if marked_graph {
            NetClass::MarkedGraph
        } else if free_choice {
            NetClass::FreeChoice
        } else {
            NetClass::General
        }
    }

    /// Explore the token game and report class, safeness and liveness.
    ///
    /// # Errors
    ///
    /// Propagates [`StgError`] from the exploration (unbounded nets, caps).
    pub fn analyze(&self) -> Result<StgReport, StgError> {
        self.check_structure()?;
        let graph = self.explore(DEFAULT_STATE_CAP)?;
        let safe = graph.markings.iter().all(Marking::is_safe);

        // Liveness: compute SCCs coarsely — the net is live iff every
        // transition fires inside every terminal SCC. For the controller
        // nets here a simpler check suffices and is exact for strongly
        // connected reachability graphs: (a) no deadlock marking, and
        // (b) every transition fires somewhere, and (c) the marking graph
        // is strongly connected (every marking can return to the initial
        // one).
        let n = graph.markings.len();
        let mut has_succ = vec![false; n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, _, to) in &graph.edges {
            has_succ[from] = true;
            preds[to].push(from);
        }
        let deadlock_free = has_succ.iter().all(|&s| s);
        let all_fire = graph.dead_transition(self.num_transitions()).is_none();
        // Reverse reachability to marking 0.
        let mut reaches_initial = vec![false; n];
        let mut queue = VecDeque::from([0usize]);
        reaches_initial[0] = true;
        while let Some(mi) = queue.pop_front() {
            for &p in &preds[mi] {
                if !reaches_initial[p] {
                    reaches_initial[p] = true;
                    queue.push_back(p);
                }
            }
        }
        let strongly_connected = reaches_initial.iter().all(|&r| r);
        Ok(StgReport {
            class: self.net_class(),
            safe,
            live: deadlock_free && all_fire && strongly_connected,
            markings: n,
        })
    }

    /// Render the STG as Graphviz DOT (transitions as boxes, places as
    /// circles; implicit places are collapsed into arrows).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph stg {\n  rankdir=TB;\n");
        for (i, _) in self.transitions.iter().enumerate() {
            let t = TransId(i as u32);
            out.push_str(&format!(
                "  t{i} [shape=box, label=\"{}\"];\n",
                self.transition_name(t)
            ));
        }
        let marking = self.initial_marking();
        for (pi, p) in self.places.iter().enumerate() {
            let implicit = p.pre.len() == 1 && p.post.len() == 1;
            let tokens = marking.tokens(PlaceId(pi as u32));
            if implicit && tokens == 0 {
                // Collapse into a direct arc.
                out.push_str(&format!(
                    "  t{} -> t{};\n",
                    p.pre[0].0, p.post[0].0
                ));
            } else {
                let label = if tokens > 0 {
                    "●".repeat(tokens as usize)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "  p{pi} [shape=circle, label=\"{label}\"];\n"
                ));
                for &t in &p.pre {
                    out.push_str(&format!("  t{} -> p{pi};\n", t.0));
                }
                for &t in &p.post {
                    out.push_str(&format!("  p{pi} -> t{};\n", t.0));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_stg;

    const HANDSHAKE: &str = ".model hs\n.inputs r\n.outputs g\n.graph\nr+ g+\ng+ r-\nr- g-\ng- r+\n.marking { <g-,r+> }\n.end";

    #[test]
    fn handshake_is_a_live_safe_marked_graph() {
        let stg = parse_stg(HANDSHAKE).unwrap();
        let report = stg.analyze().unwrap();
        assert_eq!(report.class, NetClass::MarkedGraph);
        assert!(report.safe);
        assert!(report.live);
        assert_eq!(report.markings, 4);
    }

    #[test]
    fn choice_net_is_free_choice() {
        let stg = parse_stg(
            ".model c\n.inputs a b\n.outputs y\n.graph\np0 a+ b+\na+ y+\nb+ y+/2\ny+ a-\ny+/2 b-\na- y-\nb- y-/2\ny- p0\ny-/2 p0\n.marking { p0 }\n.end",
        )
        .unwrap();
        let report = stg.analyze().unwrap();
        assert_eq!(report.class, NetClass::FreeChoice);
        assert!(report.safe);
        assert!(report.live);
    }

    #[test]
    fn controlled_choice_is_general() {
        // A choice place whose consumer also needs a second token: not FC.
        let stg = parse_stg(
            ".model g\n.inputs a b c\n.graph\np0 a+ b+\nq0 a+\na+ p0 q0\nb+ p0\n.marking { p0 q0 }\n.end",
        )
        .unwrap();
        assert_eq!(stg.net_class(), NetClass::General);
    }

    #[test]
    fn deadlocking_net_is_not_live() {
        // b+ consumes the only token and nothing returns it.
        let stg = parse_stg(
            ".model d\n.inputs a b\n.graph\np0 a+ b+\na+ p0\nb+ pdead\npdead b-\nb- pdead2\npdead2 b+\n.marking { p0 }\n.end",
        )
        .unwrap();
        let report = stg.analyze().unwrap();
        assert!(!report.live);
    }

    #[test]
    fn unsafe_net_is_detected() {
        // A 2-bounded (but not safe) token ring.
        let stg = parse_stg(
            ".model u\n.outputs a\n.graph\np a+\na+ a-\na- p\n.marking { p=2 }\n.end",
        )
        .unwrap();
        let report = stg.analyze().unwrap();
        assert!(!report.safe);
        assert!(report.live, "still live, just not 1-bounded");
    }

    #[test]
    fn dot_renders_transitions_and_marking() {
        let stg = parse_stg(HANDSHAKE).unwrap();
        let dot = stg.to_dot();
        assert!(dot.contains("t0 [shape=box, label=\"r+\"]"));
        assert!(dot.contains("●"), "initial token rendered");
        assert!(dot.contains("->"));
    }
}
