//! The labelled Petri net underlying an STG.

use crate::error::StgError;
use nshot_sg::{Dir, SignalKind};
use std::fmt::{self, Write as _};
use std::sync::OnceLock;

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
}

/// Every node's arcs as compressed rows, each row in the order its arcs
/// were added: the index [`Stg`] builds from its arc lists.
#[derive(Debug, Clone)]
struct Adjacency {
    t_pre: Rows<PlaceId>,
    t_post: Rows<PlaceId>,
    p_pre: Rows<TransId>,
    p_post: Rows<TransId>,
}

/// Compressed sparse rows: row `i` is `items[start[i]..start[i + 1]]`.
#[derive(Debug, Clone)]
struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// `n` rows from `(row, item)` pairs, by counting sort: each row keeps
    /// the order of its pairs.
    fn build(n: usize, pairs: impl Iterator<Item = (u32, T)> + Clone) -> Self {
        let mut start = vec![0u32; n + 1];
        for (r, _) in pairs.clone() {
            start[r as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        // Every slot is written below; the first item only fills the vector.
        let mut items = match pairs.clone().next() {
            Some((_, x)) => vec![x; start[n] as usize],
            None => Vec::new(),
        };
        let mut next = start.clone();
        for (r, x) in pairs {
            let slot = &mut next[r as usize];
            items[*slot as usize] = x;
            *slot += 1;
        }
        Rows { start, items }
    }

    fn row(&self, i: u32) -> &[T] {
        let i = i as usize;
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
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
    /// Place names, by place id.
    pub(crate) place_names: Vec<String>,
    pub(crate) initial: Vec<u8>,
    /// The arcs transition → place, in the order they were added.
    pub(crate) tp: Vec<(TransId, PlaceId)>,
    /// The arcs place → transition, in the order they were added.
    pub(crate) pt: Vec<(PlaceId, TransId)>,
    /// Built from the arc lists on first use; every change drops it.
    adjacency: OnceLock<Adjacency>,
}

impl Stg {
    /// An empty STG with the given model name.
    pub fn new(name: &str) -> Self {
        Stg {
            name: name.to_owned(),
            signals: Vec::new(),
            transitions: Vec::new(),
            place_names: Vec::new(),
            initial: Vec::new(),
            tp: Vec::new(),
            pt: Vec::new(),
            adjacency: OnceLock::new(),
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
        self.place_names.len()
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
        });
        self.adjacency.take();
        id
    }

    /// Add an explicit place with `tokens` initial tokens.
    pub fn add_place(&mut self, name: &str, tokens: u8) -> PlaceId {
        let id = PlaceId(self.place_names.len() as u32);
        self.place_names.push(name.to_owned());
        self.initial.push(tokens);
        self.adjacency.take();
        id
    }

    /// Connect two transitions through a fresh implicit place holding
    /// `tokens` initial tokens (the `.g` arc `t1 t2`).
    pub fn connect(&mut self, from: TransId, to: TransId, tokens: u8) -> PlaceId {
        let p = self.add_place(&self.implicit_place_name(from, to), tokens);
        self.arc_tp(from, p);
        self.arc_pt(p, to);
        p
    }

    /// The name of the implicit place from `from` to `to`: `<a+,b->`.
    pub(crate) fn implicit_place_name(&self, from: TransId, to: TransId) -> String {
        let mut name = String::from("<");
        self.push_transition_name(&mut name, from);
        name.push(',');
        self.push_transition_name(&mut name, to);
        name.push('>');
        name
    }

    /// Arc transition → place.
    pub fn arc_tp(&mut self, t: TransId, p: PlaceId) {
        assert!(t.0 < self.transitions.len() as u32 && p.0 < self.num_places() as u32);
        self.tp.push((t, p));
        self.adjacency.take();
    }

    /// Arc place → transition.
    pub fn arc_pt(&mut self, p: PlaceId, t: TransId) {
        assert!(t.0 < self.transitions.len() as u32 && p.0 < self.num_places() as u32);
        self.pt.push((p, t));
        self.adjacency.take();
    }

    /// The arc index, built on first use after a change.
    fn adjacency(&self) -> &Adjacency {
        self.adjacency.get_or_init(|| {
            let (nt, np) = (self.transitions.len(), self.num_places());
            let tp = self.tp.iter();
            let pt = self.pt.iter();
            Adjacency {
                t_pre: Rows::build(nt, pt.clone().map(|&(p, t)| (t.0, p))),
                t_post: Rows::build(nt, tp.clone().map(|&(t, p)| (t.0, p))),
                p_pre: Rows::build(np, tp.map(|&(t, p)| (p.0, t))),
                p_post: Rows::build(np, pt.map(|&(p, t)| (p.0, t))),
            }
        })
    }

    /// The input places of `t`, in arc order.
    pub(crate) fn t_pre(&self, t: TransId) -> &[PlaceId] {
        self.adjacency().t_pre.row(t.0)
    }

    /// The output places of `t`, in arc order.
    pub(crate) fn t_post(&self, t: TransId) -> &[PlaceId] {
        self.adjacency().t_post.row(t.0)
    }

    /// The input transitions of `p`, in arc order.
    pub(crate) fn p_pre(&self, p: PlaceId) -> &[TransId] {
        self.adjacency().p_pre.row(p.0)
    }

    /// The output transitions of `p`, in arc order.
    pub(crate) fn p_post(&self, p: PlaceId) -> &[TransId] {
        self.adjacency().p_post.row(p.0)
    }

    /// The name of `p`.
    pub(crate) fn place_name(&self, p: PlaceId) -> &str {
        &self.place_names[p.0 as usize]
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
        let mut name = String::new();
        self.push_transition_name(&mut name, t);
        name
    }

    /// Append [`Stg::transition_name`] to `out`.
    fn push_transition_name(&self, out: &mut String, t: TransId) {
        let tr = &self.transitions[t.0 as usize];
        out.push_str(&self.signals[tr.signal].name);
        out.push(tr.dir.sign());
        if tr.occurrence != 0 {
            write!(out, "/{}", tr.occurrence).expect("writing to a String");
        }
    }

    /// `true` if `t` is enabled in `m` (every pre-place holds a token).
    pub fn is_enabled(&self, m: &Marking, t: TransId) -> bool {
        self.t_pre(t).iter().all(|&p| m.count(p) > 0)
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
        let mut out = Vec::new();
        self.enabled_into(m, &mut out);
        out
    }

    /// [`Stg::enabled`] into a reused buffer.
    pub(crate) fn enabled_into(&self, m: &Marking, out: &mut Vec<TransId>) {
        out.clear();
        out.extend(
            m.marked()
                .flat_map(|p| self.p_post(PlaceId(p)).iter().copied()),
        );
        out.sort_unstable();
        out.dedup();
        out.retain(|&t| self.is_enabled(m, t));
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
        let mut next = Marking(Vec::new());
        self.fire_into(m, t, &mut next)?;
        Ok(next)
    }

    /// Fire the enabled transition `t` from `m` into `next`, reusing its
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`StgError::Unbounded`] if a place would exceed 8 tokens.
    pub(crate) fn fire_into(
        &self,
        m: &Marking,
        t: TransId,
        next: &mut Marking,
    ) -> Result<(), StgError> {
        next.0.clone_from(&m.0);
        for &p in self.t_pre(t) {
            if let Ok(i) = next.0.binary_search(&p.0) {
                next.0.remove(i);
            }
        }
        for &p in self.t_post(t) {
            next.0.insert(next.0.partition_point(|&q| q <= p.0), p.0);
            if next.count(p) > 8 {
                return Err(StgError::Unbounded {
                    place: self.place_name(p).to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Structural sanity check: every transition has at least one pre-place
    /// (otherwise it is always enabled and the net is unbounded) and every
    /// place connects to some transition.
    ///
    /// # Errors
    ///
    /// [`StgError::Structural`] describing the offending element.
    pub fn check_structure(&self) -> Result<(), StgError> {
        for t in (0..self.transitions.len() as u32).map(TransId) {
            if self.t_pre(t).is_empty() {
                return Err(StgError::Structural(format!(
                    "transition {} has no input place",
                    self.transition_name(t)
                )));
            }
        }
        for p in (0..self.num_places() as u32).map(PlaceId) {
            if self.p_pre(p).is_empty() && self.p_post(p).is_empty() {
                return Err(StgError::Structural(format!(
                    "place {} is disconnected",
                    self.place_name(p)
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
        self.t_post(from)
            .iter()
            .copied()
            .find(|&p| self.p_post(p).contains(&to))
    }

    /// Find an explicit place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_names
            .iter()
            .position(|p| p == name)
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
        for t in (0..self.transitions.len() as u32).map(TransId) {
            let from = self.transition_name(t);
            for &p in self.t_post(t) {
                for &succ in self.p_post(p) {
                    writeln!(f, "{from} {}", self.transition_name(succ))?;
                }
            }
        }
        let marked: Vec<String> = self
            .place_names
            .iter()
            .zip(&self.initial)
            .filter(|&(_, &tok)| tok > 0)
            .map(|(name, &tok)| {
                if tok == 1 {
                    name.clone()
                } else {
                    format!("{name}={tok}")
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
        assert!(matches!(stg.fire(&m0, down), Err(StgError::NotEnabled(_))));
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
