//! The labelled Petri net underlying an STG.

use crate::error::StgError;
use nshot_sg::{Dir, SignalKind};
use std::fmt;

/// Index of a place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(pub(crate) u32);

/// Index of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransId(pub(crate) u32);

#[derive(Debug, Clone)]
pub(crate) struct SignalDecl {
    pub name: String,
    pub kind: SignalKind,
}

#[derive(Debug, Clone)]
pub(crate) struct TransitionDecl {
    /// Index into the signal table.
    pub signal: usize,
    pub dir: Dir,
    /// Occurrence index (the `/k` suffix of the `.g` format), used only to
    /// distinguish multiple transitions of the same signal edge.
    pub occurrence: u32,
    pub pre: Vec<PlaceId>,
    pub post: Vec<PlaceId>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct PlaceDecl {
    pub name: String,
    pub pre: Vec<TransId>,
    pub post: Vec<TransId>,
}

/// A marking: the marked places as a sorted multiset of place ids, a place
/// repeated once per token. Unmarked places take no room, so hashing,
/// comparing and cloning a marking cost its token count, not the size of
/// the net.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Marking(pub(crate) Vec<u32>);

impl Marking {
    /// Token count of a place.
    pub fn tokens(&self, p: PlaceId) -> u8 {
        u8::try_from(self.count(p)).expect("initial counts are u8 and firing stops past 8")
    }

    /// Token count of a place, by binary search.
    fn count(&self, p: PlaceId) -> usize {
        let first = self.0.partition_point(|&q| q < p.0);
        self.0[first..].partition_point(|&q| q == p.0)
    }

    /// The marked places, ascending, each once.
    fn marked(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.chunk_by(|a, b| a == b).map(|run| run[0])
    }

    /// `true` if no place holds more than one token.
    pub(crate) fn is_safe(&self) -> bool {
        self.0.windows(2).all(|w| w[0] != w[1])
    }
}

/// A Signal Transition Graph: a Petri net whose transitions are labelled
/// with signal edges.
///
/// Build one programmatically with [`Stg::new`] / [`Stg::add_signal`] /
/// [`Stg::add_transition`] / [`Stg::connect`], or parse the `.g` format with
/// [`crate::parse_stg`]. Elaborate to a state graph with [`Stg::elaborate`].
#[derive(Debug, Clone)]
pub struct Stg {
    pub(crate) name: String,
    pub(crate) signals: Vec<SignalDecl>,
    pub(crate) transitions: Vec<TransitionDecl>,
    pub(crate) places: Vec<PlaceDecl>,
    pub(crate) initial: Vec<u8>,
}

impl Stg {
    /// An empty STG with the given model name.
    pub fn new(name: &str) -> Self {
        Stg {
            name: name.to_owned(),
            signals: Vec::new(),
            transitions: Vec::new(),
            places: Vec::new(),
            initial: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of signals.
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Number of places (explicit and implicit).
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Declare a signal. Returns its index.
    pub fn add_signal(&mut self, name: &str, kind: SignalKind) -> usize {
        self.signals.push(SignalDecl {
            name: name.to_owned(),
            kind,
        });
        self.signals.len() - 1
    }

    /// Look up a signal index by name.
    pub fn signal_index(&self, name: &str) -> Option<usize> {
        self.signals.iter().position(|s| s.name == name)
    }

    /// Add a transition of `signal` with the given direction and occurrence
    /// index (use 0 when a signal edge occurs only once).
    pub fn add_transition(&mut self, signal: usize, dir: Dir, occurrence: u32) -> TransId {
        let id = TransId(self.transitions.len() as u32);
        self.transitions.push(TransitionDecl {
            signal,
            dir,
            occurrence,
            pre: Vec::new(),
            post: Vec::new(),
        });
        id
    }

    /// Add an explicit place with `tokens` initial tokens.
    pub fn add_place(&mut self, name: &str, tokens: u8) -> PlaceId {
        let id = PlaceId(self.places.len() as u32);
        self.places.push(PlaceDecl {
            name: name.to_owned(),
            ..PlaceDecl::default()
        });
        self.initial.push(tokens);
        id
    }

    /// Connect two transitions through a fresh implicit place holding
    /// `tokens` initial tokens (the `.g` arc `t1 t2`).
    pub fn connect(&mut self, from: TransId, to: TransId, tokens: u8) -> PlaceId {
        let p = self.add_place(
            &format!("<{},{}>", self.transition_name(from), self.transition_name(to)),
            tokens,
        );
        self.arc_tp(from, p);
        self.arc_pt(p, to);
        p
    }

    /// Arc transition → place.
    pub fn arc_tp(&mut self, t: TransId, p: PlaceId) {
        self.transitions[t.0 as usize].post.push(p);
        self.places[p.0 as usize].pre.push(t);
    }

    /// Arc place → transition.
    pub fn arc_pt(&mut self, p: PlaceId, t: TransId) {
        self.transitions[t.0 as usize].pre.push(p);
        self.places[p.0 as usize].post.push(t);
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        Marking(
            self.initial
                .iter()
                .enumerate()
                .flat_map(|(p, &tok)| std::iter::repeat_n(p as u32, tok.into()))
                .collect(),
        )
    }

    /// Human-readable transition name, e.g. `a+` or `b-/2`.
    pub fn transition_name(&self, t: TransId) -> String {
        let tr = &self.transitions[t.0 as usize];
        let base = format!("{}{}", self.signals[tr.signal].name, tr.dir.sign());
        if tr.occurrence == 0 {
            base
        } else {
            format!("{base}/{}", tr.occurrence)
        }
    }

    /// `true` if `t` is enabled in `m` (every pre-place holds a token).
    pub fn is_enabled(&self, m: &Marking, t: TransId) -> bool {
        self.transitions[t.0 as usize]
            .pre
            .iter()
            .all(|&p| m.count(p) > 0)
    }

    /// All transitions enabled in `m`, in ascending [`TransId`] order.
    ///
    /// Only consumers of marked places are candidates, so the cost follows
    /// the marking, not the size of the net. A transition without an input
    /// place, which [`Stg::check_structure`] rejects, is never reported.
    ///
    /// The ascending order is a contract: elaboration numbers states
    /// breadth-first in this order, and state ids, the order of ON codes
    /// and the emitted netlists all follow that numbering.
    pub fn enabled(&self, m: &Marking) -> Vec<TransId> {
        let mut out: Vec<TransId> = m
            .marked()
            .flat_map(|p| self.places[p as usize].post.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out.retain(|&t| self.is_enabled(m, t));
        out
    }

    /// Fire `t` from `m`.
    ///
    /// # Errors
    ///
    /// [`StgError::NotEnabled`] if `t` is not enabled;
    /// [`StgError::Unbounded`] if a place would exceed 8 tokens.
    pub fn fire(&self, m: &Marking, t: TransId) -> Result<Marking, StgError> {
        if !self.is_enabled(m, t) {
            return Err(StgError::NotEnabled(self.transition_name(t)));
        }
        let mut next = m.clone();
        let tr = &self.transitions[t.0 as usize];
        for &p in &tr.pre {
            if let Ok(i) = next.0.binary_search(&p.0) {
                next.0.remove(i);
            }
        }
        for &p in &tr.post {
            next.0.insert(next.0.partition_point(|&q| q <= p.0), p.0);
            if next.count(p) > 8 {
                return Err(StgError::Unbounded {
                    place: self.places[p.0 as usize].name.clone(),
                });
            }
        }
        Ok(next)
    }

    /// Structural sanity check: every transition has at least one pre-place
    /// (otherwise it is always enabled and the net is unbounded) and every
    /// place connects to some transition.
    ///
    /// # Errors
    ///
    /// [`StgError::Structural`] describing the offending element.
    pub fn check_structure(&self) -> Result<(), StgError> {
        for (i, t) in self.transitions.iter().enumerate() {
            if t.pre.is_empty() {
                return Err(StgError::Structural(format!(
                    "transition {} has no input place",
                    self.transition_name(TransId(i as u32))
                )));
            }
        }
        for p in &self.places {
            if p.pre.is_empty() && p.post.is_empty() {
                return Err(StgError::Structural(format!(
                    "place {} is disconnected",
                    p.name
                )));
            }
        }
        Ok(())
    }

    /// Find a transition by its textual name (`a+`, `b-/2`).
    pub fn transition_by_name(&self, name: &str) -> Option<TransId> {
        (0..self.transitions.len() as u32)
            .map(TransId)
            .find(|&t| self.transition_name(t) == name)
    }

    /// Find or lazily remember a place between two transitions (used by the
    /// parser to place marking tokens on implicit places).
    pub(crate) fn place_between(&self, from: TransId, to: TransId) -> Option<PlaceId> {
        self.transitions[from.0 as usize]
            .post
            .iter()
            .copied()
            .find(|p| self.places[p.0 as usize].post.contains(&to))
    }

    /// Find an explicit place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.places
            .iter()
            .position(|p| p.name == name)
            .map(|i| PlaceId(i as u32))
    }

    /// Set the initial token count of a place.
    pub fn set_tokens(&mut self, p: PlaceId, tokens: u8) {
        self.initial[p.0 as usize] = tokens;
    }

}

impl fmt::Display for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".model {}", self.name)?;
        for (tag, kind) in [
            (".inputs", SignalKind::Input),
            (".outputs", SignalKind::Output),
            (".internal", SignalKind::Internal),
        ] {
            let names: Vec<&str> = self
                .signals
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.name.as_str())
                .collect();
            if !names.is_empty() {
                writeln!(f, "{tag} {}", names.join(" "))?;
            }
        }
        writeln!(f, ".graph")?;
        for (i, t) in self.transitions.iter().enumerate() {
            let from = self.transition_name(TransId(i as u32));
            for &p in &t.post {
                for &succ in &self.places[p.0 as usize].post {
                    writeln!(f, "{from} {}", self.transition_name(succ))?;
                }
            }
        }
        let marked: Vec<String> = self
            .places
            .iter()
            .zip(&self.initial)
            .filter(|&(_, &tok)| tok > 0)
            .map(|(p, &tok)| {
                if tok == 1 {
                    p.name.clone()
                } else {
                    format!("{}={tok}", p.name)
                }
            })
            .collect();
        writeln!(f, ".marking {{ {} }}", marked.join(" "))?;
        writeln!(f, ".end")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle_net() -> (Stg, TransId, TransId) {
        let mut stg = Stg::new("toggle");
        let a = stg.add_signal("a", SignalKind::Output);
        let up = stg.add_transition(a, Dir::Rise, 0);
        let down = stg.add_transition(a, Dir::Fall, 0);
        stg.connect(up, down, 0);
        stg.connect(down, up, 1);
        (stg, up, down)
    }

    #[test]
    fn firing_moves_token() {
        let (stg, up, down) = toggle_net();
        let m0 = stg.initial_marking();
        assert!(stg.is_enabled(&m0, up));
        assert!(!stg.is_enabled(&m0, down));
        let m1 = stg.fire(&m0, up).unwrap();
        assert!(stg.is_enabled(&m1, down));
        assert!(!stg.is_enabled(&m1, up));
        let m2 = stg.fire(&m1, down).unwrap();
        assert_eq!(m2, m0);
    }

    #[test]
    fn firing_disabled_is_error() {
        let (stg, _, down) = toggle_net();
        let m0 = stg.initial_marking();
        assert!(matches!(
            stg.fire(&m0, down),
            Err(StgError::NotEnabled(_))
        ));
    }

    #[test]
    fn structure_check_catches_sourceless_transition() {
        let mut stg = Stg::new("bad");
        let a = stg.add_signal("a", SignalKind::Output);
        stg.add_transition(a, Dir::Rise, 0);
        assert!(matches!(
            stg.check_structure(),
            Err(StgError::Structural(_))
        ));
    }

    #[test]
    fn transition_names() {
        let mut stg = Stg::new("n");
        let a = stg.add_signal("a", SignalKind::Input);
        let t0 = stg.add_transition(a, Dir::Rise, 0);
        let t1 = stg.add_transition(a, Dir::Fall, 2);
        assert_eq!(stg.transition_name(t0), "a+");
        assert_eq!(stg.transition_name(t1), "a-/2");
        assert_eq!(stg.transition_by_name("a-/2"), Some(t1));
    }

    /// A bare net: `n` rising transitions of one signal, occurrence
    /// indices `0..n`, and the given places with their tokens, no arcs.
    fn scaffold(n: u32, places: &[(&str, u8)]) -> (Stg, Vec<TransId>, Vec<PlaceId>) {
        let mut stg = Stg::new("scaffold");
        let a = stg.add_signal("a", SignalKind::Output);
        let ts = (0..n)
            .map(|k| stg.add_transition(a, Dir::Rise, k))
            .collect();
        let ps = places
            .iter()
            .map(|&(name, tok)| stg.add_place(name, tok))
            .collect();
        (stg, ts, ps)
    }

    #[test]
    fn multi_token_places_count_each_token() {
        let stg = crate::parse_stg(".outputs a\n.graph\np a+\na+ a-\na- p\n.marking { p=2 }\n.end")
            .unwrap();
        let p = stg.place_by_name("p").unwrap();
        let m0 = stg.initial_marking();
        assert_eq!(m0.tokens(p), 2);
        let up = stg.transition_by_name("a+").unwrap();
        let down = stg.transition_by_name("a-").unwrap();
        let m1 = stg.fire(&m0, up).unwrap();
        assert_eq!(m1.tokens(p), 1);
        assert_eq!(stg.enabled(&m1), vec![up, down]);
        let m2 = stg.fire(&m1, up).unwrap();
        assert_eq!(m2.tokens(p), 0);
        assert_eq!(stg.enabled(&m2), vec![down]);
        // Both tokens back on p: equal to the initial marking.
        let back = stg.fire(&stg.fire(&m2, down).unwrap(), down).unwrap();
        assert_eq!(back, m0);
    }

    #[test]
    fn shared_pre_and_post_place_keeps_its_token() {
        let (mut stg, ts, ps) = scaffold(1, &[("p", 1), ("q", 0)]);
        let (t, p, q) = (ts[0], ps[0], ps[1]);
        stg.arc_pt(p, t);
        stg.arc_tp(t, q);
        stg.arc_tp(t, p);
        let m1 = stg.fire(&stg.initial_marking(), t).unwrap();
        assert_eq!((m1.tokens(p), m1.tokens(q)), (1, 1));
        let m2 = stg.fire(&m1, t).unwrap();
        assert_eq!((m2.tokens(p), m2.tokens(q)), (1, 2));
    }

    #[test]
    fn ninth_token_is_unbounded_on_that_place() {
        let (mut stg, ts, ps) = scaffold(1, &[("src", 1), ("sink", 7)]);
        let (t, src, sink) = (ts[0], ps[0], ps[1]);
        stg.arc_pt(src, t);
        stg.arc_tp(t, src);
        stg.arc_tp(t, sink);
        let m8 = stg.fire(&stg.initial_marking(), t).unwrap();
        assert_eq!(m8.tokens(sink), 8);
        match stg.fire(&m8, t) {
            Err(StgError::Unbounded { place }) => assert_eq!(place, "sink"),
            other => panic!("expected Unbounded, got {other:?}"),
        }
    }

    #[test]
    fn unmarked_place_has_no_tokens() {
        let (stg, _, ps) = scaffold(0, &[("a", 0), ("b", 1), ("c", 0)]);
        let m = stg.initial_marking();
        assert_eq!(
            ps.iter().map(|&p| m.tokens(p)).collect::<Vec<_>>(),
            [0, 1, 0]
        );
    }

    #[test]
    fn enabled_is_ascending_through_choice_and_join() {
        // Marked `a` is a choice place whose consumers are listed in
        // descending order; `t2` joins `a` and `b`; `t3` also needs the
        // unmarked `c`.
        let (mut stg, t, ps) = scaffold(4, &[("a", 1), ("b", 1), ("c", 0)]);
        let (a, b, c) = (ps[0], ps[1], ps[2]);
        let arcs = [(a, 3), (c, 3), (a, 2), (b, 2), (a, 1), (b, 0)];
        for (p, i) in arcs {
            stg.arc_pt(p, t[i]);
        }
        let m = stg.initial_marking();
        assert_eq!(stg.enabled(&m), vec![t[0], t[1], t[2]]);
        let dense: Vec<TransId> = t
            .iter()
            .copied()
            .filter(|&x| stg.is_enabled(&m, x))
            .collect();
        assert_eq!(stg.enabled(&m), dense);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let (stg, _, _) = toggle_net();
        let text = stg.to_string();
        let stg2 = crate::parse_stg(&text).expect("display output parses");
        assert_eq!(stg2.num_transitions(), 2);
        assert_eq!(stg2.num_places(), 2);
    }
}
