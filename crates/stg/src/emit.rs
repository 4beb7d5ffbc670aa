//! Canonical `.g` emission.
//!
//! [`Stg::to_g_text`] renders a net back into the classic `.g` format in a
//! *canonical* form: signal declarations grouped by kind, graph lines
//! ordered by a transition key that depends only on the net itself (signal
//! declaration rank, direction, occurrence index) — never on internal ids —
//! and a sorted marking. Canonicality gives byte stability: parsing the
//! emitted text and emitting again reproduces the same bytes, which is what
//! lets the generator and the shrinker treat `.g` artifacts as
//! content-addressable keys.
//!
//! [`sg_to_stg`] encodes a [`StateGraph`] as the equivalent state-machine
//! net (one place per reachable state, one transition per edge, occurrence
//! indices distinguishing repeated labels); [`sg_to_g_text`] composes the
//! two, so state-graph specifications gain a `.g` serialization whose token
//! game elaborates back to the original graph.

use crate::petri::{PlaceId, Stg, TransId};
use nshot_sg::{Dir, SignalKind, StateGraph};
use std::collections::HashMap;

/// The canonical sort key of a transition: signal rank in the emitted
/// declaration order (inputs, then outputs, then internals), direction,
/// occurrence index. Independent of internal transition ids, so emission
/// order survives a parse round-trip.
fn canonical_order(stg: &Stg) -> (Vec<usize>, Vec<TransId>) {
    // Rank per signal index: position in the grouped declaration order.
    let mut rank = vec![0usize; stg.signals.len()];
    let mut next = 0usize;
    for kind in [SignalKind::Input, SignalKind::Output, SignalKind::Internal] {
        for (i, s) in stg.signals.iter().enumerate() {
            if s.kind == kind {
                rank[i] = next;
                next += 1;
            }
        }
    }
    let mut order: Vec<TransId> = (0..stg.transitions.len() as u32).map(TransId).collect();
    order.sort_by_key(|&t| {
        let tr = &stg.transitions[t.0 as usize];
        (
            rank[tr.signal],
            matches!(tr.dir, Dir::Fall) as u8,
            tr.occurrence,
            t.0,
        )
    });
    (rank, order)
}

/// `true` if `name` survives the `.g` tokenizer as a *place* reference: one
/// whitespace-free token that is not a directive, not a signal-edge token,
/// and not marking syntax.
fn is_safe_place_name(name: &str) -> bool {
    if name.is_empty()
        || name.starts_with('.')
        || name
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, '<' | '>' | '{' | '}' | '=' | '#' | ','))
    {
        return false;
    }
    // Tokens whose pre-`/` part ends in +/- parse as signal edges.
    let edge = name.split_once('/').map_or(name, |(e, _)| e);
    !(edge.ends_with('+') || edge.ends_with('-'))
}

impl Stg {
    /// Serialize to canonical `.g` text (see the module docs).
    ///
    /// Places with exactly one producer and one consumer — and no sibling
    /// place joining the same transition pair — are emitted as implicit
    /// arcs (`t1 t2`, marked as `<t1,t2>`); every other place is emitted
    /// explicitly, renamed to `xp{k}` when its current name would not
    /// survive the tokenizer.
    ///
    /// The output is a fixpoint: `parse_stg(s.to_g_text())` emits the same
    /// bytes again (covered by round-trip tests).
    pub fn to_g_text(&self) -> String {
        let (rank, trans_order) = canonical_order(self);
        let tkey = |t: TransId| {
            let tr = &self.transitions[t.0 as usize];
            (
                rank[tr.signal],
                matches!(tr.dir, Dir::Fall) as u8,
                tr.occurrence,
                t.0,
            )
        };

        // Classify places. Implicit-emittable: one pre, one post, and the
        // only such place between its (pre, post) pair — the parser can
        // address at most one implicit place per pair in the marking.
        let places = || (0..self.num_places() as u32).map(PlaceId);
        let mut pair_count: HashMap<(u32, u32), usize> = HashMap::new();
        for p in places() {
            if let (&[pre], &[post]) = (self.p_pre(p), self.p_post(p)) {
                *pair_count.entry((pre.0, post.0)).or_insert(0) += 1;
            }
        }
        let implicit = |p: PlaceId| -> bool {
            matches!((self.p_pre(p), self.p_post(p)), (&[pre], &[post])
                if pair_count[&(pre.0, post.0)] == 1)
        };

        // Canonical explicit-place names: keep safe, unique names; rename
        // the rest deterministically (in place order, skipping taken
        // names). Duplicates must rename — the parser interns places by
        // token, so two lines sharing a name would merge into one place.
        let mut explicit_name: Vec<Option<String>> = vec![None; self.num_places()];
        let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
        for p in places() {
            let name = self.place_name(p);
            if !implicit(p) && is_safe_place_name(name) && used.insert(name.to_owned()) {
                explicit_name[p.0 as usize] = Some(name.to_owned());
            }
        }
        let mut next_fresh = 0usize;
        for p in places() {
            if implicit(p) || explicit_name[p.0 as usize].is_some() {
                continue;
            }
            let fresh = loop {
                let candidate = format!("xp{next_fresh}");
                next_fresh += 1;
                if used.insert(candidate.clone()) {
                    break candidate;
                }
            };
            explicit_name[p.0 as usize] = Some(fresh);
        }

        let mut out = String::new();
        let model = self.name.replace(['#', '\n', '\r'], "_");
        out.push_str(&format!(
            ".model {}\n",
            if model.trim().is_empty() {
                "stg"
            } else {
                model.trim()
            }
        ));
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
                out.push_str(&format!("{tag} {}\n", names.join(" ")));
            }
        }
        out.push_str(".graph\n");

        // Transition lines: implicit successors (canonical transition
        // order), then explicit post-places (canonical name order).
        for &t in &trans_order {
            let mut succs: Vec<TransId> = Vec::new();
            let mut posts: Vec<&str> = Vec::new();
            for &p in self.t_post(t) {
                if implicit(p) {
                    succs.push(self.p_post(p)[0]);
                } else {
                    posts.push(explicit_name[p.0 as usize].as_deref().expect("explicit"));
                }
            }
            succs.sort_by_key(|&u| tkey(u));
            posts.sort_unstable();
            if succs.is_empty() && posts.is_empty() {
                continue;
            }
            let mut line = self.transition_name(t);
            for u in succs {
                line.push(' ');
                line.push_str(&self.transition_name(u));
            }
            for p in posts {
                line.push(' ');
                line.push_str(p);
            }
            out.push_str(&line);
            out.push('\n');
        }

        // Explicit place lines (place → consumers), canonical name order.
        let mut explicit_ids: Vec<PlaceId> = places()
            .filter(|p| explicit_name[p.0 as usize].is_some())
            .collect();
        explicit_ids.sort_by(|a, b| explicit_name[a.0 as usize].cmp(&explicit_name[b.0 as usize]));
        for &p in &explicit_ids {
            if self.p_post(p).is_empty() {
                continue;
            }
            let mut posts = self.p_post(p).to_vec();
            posts.sort_by_key(|&u| tkey(u));
            let mut line = explicit_name[p.0 as usize].clone().expect("explicit");
            for u in posts {
                line.push(' ');
                line.push_str(&self.transition_name(u));
            }
            out.push_str(&line);
            out.push('\n');
        }

        // Marking: sorted rendered tokens.
        let mut marks: Vec<String> = Vec::new();
        for (p, &tok) in places().zip(&self.initial) {
            if tok == 0 {
                continue;
            }
            let name = match &explicit_name[p.0 as usize] {
                Some(n) => n.clone(),
                None => self.implicit_place_name(self.p_pre(p)[0], self.p_post(p)[0]),
            };
            marks.push(if tok == 1 {
                name
            } else {
                format!("{name}={tok}")
            });
        }
        marks.sort_unstable();
        out.push_str(&format!(".marking {{ {} }}\n.end\n", marks.join(" ")));
        out
    }
}

/// Encode a [`StateGraph`] as its state-machine net: one place per
/// reachable state (`p{i}` in reachable order), one transition per edge,
/// occurrence indices (`/2`, `/3`, …) distinguishing repeated labels in
/// source-state order. The net's token game is exactly the original graph,
/// so [`Stg::elaborate`] recovers it (up to the parser's grouped signal
/// renumbering).
pub fn sg_to_stg(sg: &StateGraph) -> Stg {
    let mut stg = Stg::new(sg.name());
    let sig_idx: Vec<usize> = sg
        .signal_ids()
        .map(|s| stg.add_signal(sg.signal_name(s), sg.signal_kind(s)))
        .collect();

    let reachable = sg.reachable();
    let mut place_of = vec![None; sg.num_states()];
    for (i, &s) in reachable.iter().enumerate() {
        place_of[s.index()] = Some(stg.add_place(&format!("p{i}"), u8::from(s == sg.initial())));
    }

    // Occurrence indices are assigned in canonical enumeration order:
    // source state ascending, stored edge order within a state.
    let mut label_seen: HashMap<(u16, bool), u32> = HashMap::new();
    for &s in reachable {
        let src = place_of[s.index()].expect("reachable");
        for &(t, dst) in sg.successors(s) {
            let key = (t.signal.index() as u16, t.dir.target_value());
            let seen = label_seen.entry(key).or_insert(0);
            // First edge of a label keeps the plain name (occurrence 0);
            // later ones get `/2`, `/3`, … matching `.g` conventions.
            let occ = if *seen == 0 { 0 } else { *seen + 1 };
            *seen += 1;
            let trans = stg.add_transition(sig_idx[t.signal.index()], t.dir, occ);
            stg.arc_pt(src, trans);
            stg.arc_tp(trans, place_of[dst.index()].expect("reachable"));
        }
    }
    stg
}

/// [`sg_to_stg`] rendered through the canonical emitter: the `.g`
/// serialization of a state-graph specification.
pub fn sg_to_g_text(sg: &StateGraph) -> String {
    sg_to_stg(sg).to_g_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_stg;
    use nshot_sg::{parse_sg, SgBuilder};

    // Already in canonical form: graph lines sorted by (signal rank, dir).
    const HANDSHAKE_G: &str = ".model hs\n.inputs r\n.outputs g\n.graph\nr+ g+\nr- g-\ng+ r-\ng- r+\n.marking { <g-,r+> }\n.end\n";

    #[test]
    fn emit_is_byte_stable_for_implicit_nets() {
        let stg = parse_stg(HANDSHAKE_G).unwrap();
        let once = stg.to_g_text();
        let twice = parse_stg(&once).unwrap().to_g_text();
        assert_eq!(once, twice);
        // And the canonical form of the already-canonical source is itself.
        assert_eq!(once, HANDSHAKE_G);
    }

    #[test]
    fn emit_preserves_explicit_choice_places() {
        let src = ".model choice\n.inputs a b\n.outputs c\n.graph\np0 a+ b+\na+ c+\nb+ c+/2\nc+ a-\nc+/2 b-\na- c-\nb- c-/2\nc- p0\nc-/2 p0\n.marking { p0 }\n.end";
        let stg = parse_stg(src).unwrap();
        let text = stg.to_g_text();
        let reparsed = parse_stg(&text).unwrap();
        assert_eq!(reparsed.num_places(), stg.num_places());
        assert_eq!(reparsed.num_transitions(), stg.num_transitions());
        assert_eq!(text, reparsed.to_g_text());
        // The free-choice place must stay a single shared place, not be
        // split into per-branch implicit places.
        assert!(reparsed.place_by_name("p0").is_some());
        let sg = stg.elaborate().unwrap();
        let sg2 = reparsed.elaborate().unwrap();
        assert_eq!(sg.num_states(), sg2.num_states());
    }

    #[test]
    fn unsafe_place_names_are_canonicalized() {
        let mut stg = Stg::new("weird");
        let a = stg.add_signal("a", nshot_sg::SignalKind::Output);
        let up = stg.add_transition(a, Dir::Rise, 0);
        let down = stg.add_transition(a, Dir::Fall, 0);
        // A fork place with a name the tokenizer would mangle.
        let p = stg.add_place("bad name=1", 1);
        stg.arc_pt(p, up);
        stg.arc_tp(up, p);
        let q = stg.add_place("also<bad>", 0);
        stg.arc_tp(up, q);
        stg.arc_pt(q, down);
        let r = stg.add_place("<a+,a->", 0); // sibling pair: both explicit
        stg.arc_tp(up, r);
        stg.arc_pt(r, down);
        let text = stg.to_g_text();
        let reparsed = parse_stg(&text).unwrap();
        assert_eq!(reparsed.num_places(), 3);
        assert_eq!(text, reparsed.to_g_text());
    }

    #[test]
    fn sg_roundtrips_through_state_machine_net() {
        let sg = parse_sg(
            ".name hs\n.inputs r\n.outputs g\n.initial 00\n00 +r 10\n10 +g 11\n11 -r 01\n01 -g 00\n",
        )
        .unwrap();
        let text = sg_to_g_text(&sg);
        let stg = parse_stg(&text).unwrap();
        assert_eq!(text, stg.to_g_text(), "canonical form is a fixpoint");
        let sg2 = stg.elaborate().unwrap();
        assert_eq!(sg2.num_states(), sg.num_states());
        assert_eq!(sg2.num_signals(), sg.num_signals());
        assert_eq!(sg2.code(sg2.initial()), sg.code(sg.initial()));
        assert!(sg2.check_csc().is_ok());
    }

    #[test]
    fn sg_with_repeated_labels_gets_occurrence_indices() {
        // A diamond: +a enabled concurrently with +b, so +a occurs from two
        // states — the SM encoding needs a+/2.
        let mut b = SgBuilder::named("dia");
        let a = b.signal("a", nshot_sg::SignalKind::Input);
        let y = b.signal("y", nshot_sg::SignalKind::Output);
        b.edge_codes(0b00, (a, true), 0b01).unwrap();
        b.edge_codes(0b00, (y, true), 0b10).unwrap();
        b.edge_codes(0b01, (y, true), 0b11).unwrap();
        b.edge_codes(0b10, (a, true), 0b11).unwrap();
        b.edge_codes(0b11, (a, false), 0b10).unwrap();
        b.edge_codes(0b10, (y, false), 0b00).unwrap();
        let sg = b.build(0b00).unwrap();
        let text = sg_to_g_text(&sg);
        assert!(
            text.contains("/2"),
            "repeated labels need occurrences:\n{text}"
        );
        let sg2 = parse_stg(&text).unwrap().elaborate().unwrap();
        assert_eq!(sg2.num_states(), sg.num_states());
    }
}
