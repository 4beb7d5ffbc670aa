//! Parser for the `.g` (astg) interchange format.
//!
//! One pass over the lines sorts the header from the graph lines. The graph
//! pass then streams each line's tokens through one intern map keyed by the
//! token text, one lookup per token, and appends nodes and arcs to the net's
//! flat lists in text order.

use crate::error::StgError;
use crate::petri::{PlaceId, Stg, TransId, TransitionDecl};
use nshot_par::{FxHashMap, FxHashSet};
use nshot_sg::{Dir, SignalKind};
use std::collections::hash_map::Entry;

/// Parse an STG from the classic `.g` format:
///
/// ```text
/// .model example
/// .inputs a
/// .outputs b
/// .graph
/// a+ b+         # arc(s): a+ → b+ through an implicit place
/// b+ a-
/// a- b-
/// b- a+
/// .marking { <b-,a+> }
/// .end
/// ```
///
/// Supported features: implicit places (`t1 t2` arcs), explicit places (any
/// graph token that is not a signal edge), occurrence indices (`a+/2`),
/// multi-token markings (`p=2`), markings on implicit places (`<t1,t2>`),
/// `.internal` signals and `#` comments.
///
/// # Errors
///
/// [`StgError::Parse`] describes the offending line.
pub fn parse_stg(text: &str) -> Result<Stg, StgError> {
    let _span = nshot_obs::span(nshot_obs::Stage::Parse);
    let mut model = "stg";
    let mut declared: Vec<(&str, SignalKind)> = Vec::new();
    let mut in_graph = false;
    let mut graph_lines: Vec<(usize, &str)> = Vec::new();
    let mut marking_tokens: Vec<(usize, String)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if !line.starts_with('.') {
            if !in_graph {
                return Err(StgError::Parse {
                    line: lineno + 1,
                    message: format!("unexpected line outside .graph: '{line}'"),
                });
            }
            graph_lines.push((lineno + 1, line));
            continue;
        }
        if let Some(rest) = line
            .strip_prefix(".model")
            .or_else(|| line.strip_prefix(".name"))
        {
            model = rest.trim();
            continue;
        }
        if let Some(rest) = line.strip_prefix(".inputs") {
            for n in rest.split_whitespace() {
                declared.push((n, SignalKind::Input));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(".outputs") {
            for n in rest.split_whitespace() {
                declared.push((n, SignalKind::Output));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(".internal") {
            for n in rest.split_whitespace() {
                declared.push((n, SignalKind::Internal));
            }
            continue;
        }
        if line.starts_with(".graph") {
            in_graph = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix(".marking") {
            in_graph = false;
            let inner = rest.trim().trim_start_matches('{').trim_end_matches('}');
            // Tokenize respecting `<a+,b+>` groups.
            let mut cur = String::new();
            let mut depth = 0usize;
            for ch in inner.chars() {
                match ch {
                    '<' => {
                        depth += 1;
                        cur.push(ch);
                    }
                    '>' => {
                        depth = depth.saturating_sub(1);
                        cur.push(ch);
                    }
                    c if c.is_whitespace() && depth == 0 => {
                        if !cur.is_empty() {
                            marking_tokens.push((lineno + 1, std::mem::take(&mut cur)));
                        }
                    }
                    c => cur.push(c),
                }
            }
            if !cur.is_empty() {
                marking_tokens.push((lineno + 1, cur));
            }
            continue;
        }
        if line.starts_with(".end") {
            break;
        }
        // Other dot directives (e.g. `.dummy`) are ignored.
    }

    // Register declared signals in declaration order.
    let mut stg = Stg::new(model);
    let mut signals: FxHashMap<&str, usize> = FxHashMap::default();
    for &(name, kind) in &declared {
        if signals.insert(name, stg.num_signals()).is_some() {
            return Err(StgError::Parse {
                line: 0,
                message: format!("duplicate signal '{name}'"),
            });
        }
        stg.add_signal(name, kind);
    }

    // The graph pass: every node and arc, in text order.
    let mut net = Net::new(&signals, graph_lines.len());
    for (li, &(line, body)) in graph_lines.iter().enumerate() {
        let li = li as u32;
        let mut toks = body.split_whitespace();
        let (Some(src_tok), Some(first)) = (toks.next(), toks.next()) else {
            return Err(StgError::Parse {
                line,
                message: "graph line needs a source and at least one target".into(),
            });
        };
        let src = net.resolve(&mut stg, src_tok, line)?;
        // The `.g` format has no arc weights: a repeated arc is always an
        // authoring mistake (and a silent one — the duplicate implicit
        // place never receives a token, so the target quietly dies). A
        // repeat shares its source, so while a node is the source of one
        // line only, a per-target stamp of the line finds it. The arcs of
        // a source of several lines go through `repeated`.
        let source_of = net.seen(src).source_of;
        net.seen(src).source_of = if source_of == NEVER { li } else { MANY };
        let repeated = source_of != NEVER;
        if source_of < MANY {
            // The first repeat: the one earlier line joins the set.
            for tok in graph_lines[source_of as usize].1.split_whitespace().skip(1) {
                let dst = net.nodes[tok];
                net.repeated.insert(src.code() << 32 | dst.code());
            }
        }
        for tok in std::iter::once(first).chain(toks) {
            let dst = net.resolve(&mut stg, tok, line)?;
            let duplicate = if repeated {
                !net.repeated.insert(src.code() << 32 | dst.code())
            } else {
                std::mem::replace(&mut net.seen(dst).target_on, li) == li
            };
            if duplicate {
                return Err(StgError::Parse {
                    line,
                    message: format!("duplicate arc '{src_tok} {tok}'"),
                });
            }
            match (src, dst) {
                (Node::Trans(a), Node::Trans(b)) => {
                    let name = stg.implicit_place_name(a, b);
                    let p = new_place(&mut stg, &mut net.p_seen, name);
                    stg.tp.push((a, p));
                    stg.pt.push((p, b));
                }
                (Node::Trans(a), Node::Place(p)) => stg.tp.push((a, p)),
                (Node::Place(p), Node::Trans(b)) => stg.pt.push((p, b)),
                (Node::Place(_), Node::Place(_)) => {
                    return Err(StgError::Parse {
                        line,
                        message: "place-to-place arcs are not allowed".into(),
                    })
                }
            }
        }
    }

    // Apply the marking. `<a,b>` names transitions by their canonical
    // names (`Stg::transition_name`, the first transition wins a shared
    // name): a token is accepted only if it is that name (`a+/0` and
    // `a+/01` are not).
    for (line, tok) in &marking_tokens {
        let (name, count) = match tok.split_once('=') {
            Some((n, c)) => (
                n,
                c.parse::<u8>().map_err(|_| StgError::Parse {
                    line: *line,
                    message: format!("bad token count in '{tok}'"),
                })?,
            ),
            None => (tok.as_str(), 1u8),
        };
        if let Some(inner) = name.strip_prefix('<').and_then(|s| s.strip_suffix('>')) {
            let (a, b) = inner.split_once(',').ok_or_else(|| StgError::Parse {
                line: *line,
                message: format!("bad implicit place '{name}'"),
            })?;
            let lookup = |t: &str| {
                let t = t.trim();
                net.first_named(t).ok_or_else(|| StgError::Parse {
                    line: *line,
                    message: format!("unknown transition '{t}' in marking"),
                })
            };
            let (ta, tb) = (lookup(a)?, lookup(b)?);
            let p = stg.place_between(ta, tb).ok_or_else(|| StgError::Parse {
                line: *line,
                message: format!("no place between {a} and {b}"),
            })?;
            stg.set_tokens(p, count);
        } else if let Some(&Node::Place(p)) = net.nodes.get(name) {
            stg.set_tokens(p, count);
        } else {
            return Err(StgError::Parse {
                line: *line,
                message: format!("unknown place '{name}' in marking"),
            });
        }
    }

    stg.check_structure()?;
    Ok(stg)
}

/// A graph-section node: a transition or a place (explicit or implicit).
#[derive(Clone, Copy)]
enum Node {
    Trans(TransId),
    Place(PlaceId),
}

impl Node {
    /// Distinct for every node of either kind (ids stay below 2^31).
    fn code(self) -> u64 {
        match self {
            Node::Trans(t) => u64::from(t.0),
            Node::Place(p) => u64::from(p.0) | 1 << 31,
        }
    }
}

/// A graph-line index that no line has.
const NEVER: u32 = u32::MAX;
/// `Seen::source_of` of a node that is the source of several lines.
const MANY: u32 = u32::MAX - 1;

/// Where a node has appeared in the graph section, by graph-line index.
#[derive(Clone, Copy)]
struct Seen {
    /// The line it is the source of, [`NEVER`] or [`MANY`].
    source_of: u32,
    /// The last line it is a target on.
    target_on: u32,
}

impl Seen {
    const NOWHERE: Seen = Seen {
        source_of: NEVER,
        target_on: NEVER,
    };
}

/// The graph section's names, keyed by the tokens of the text itself, and
/// where each node has appeared.
struct Net<'t, 's> {
    signals: &'s FxHashMap<&'t str, usize>,
    /// Every graph token, resolved once.
    nodes: FxHashMap<&'t str, Node>,
    /// Per transition and per place, the graph lines it appeared on.
    t_seen: Vec<Seen>,
    p_seen: Vec<Seen>,
    /// `Node::code` pairs of the arcs from sources of several lines.
    repeated: FxHashSet<u64>,
    /// The first transition of each `(signal, dir, occurrence)` whose
    /// token is not its canonical name (`a+/0`, `a+/01`). Emitted text has
    /// none.
    aliases: FxHashMap<(usize, Dir, u32), TransId>,
}

impl<'t, 's> Net<'t, 's> {
    /// An empty graph whose intern map takes `lines` tokens without
    /// growing: emitted `.g` texts name about one node per graph line.
    fn new(signals: &'s FxHashMap<&'t str, usize>, lines: usize) -> Self {
        Net {
            signals,
            nodes: FxHashMap::with_capacity_and_hasher(lines, Default::default()),
            t_seen: Vec::new(),
            p_seen: Vec::new(),
            repeated: FxHashSet::default(),
            aliases: FxHashMap::default(),
        }
    }

    /// The transition or explicit place `tok` names, created in `stg` on
    /// first use.
    fn resolve(&mut self, stg: &mut Stg, tok: &'t str, line: usize) -> Result<Node, StgError> {
        let slot = match self.nodes.entry(tok) {
            Entry::Occupied(e) => return Ok(*e.get()),
            Entry::Vacant(slot) => slot,
        };
        // Not a signal edge → explicit place.
        let Some((sig, dir, occurrence)) = split_edge_token(tok) else {
            let p = new_place(stg, &mut self.p_seen, tok.to_owned());
            return Ok(*slot.insert(Node::Place(p)));
        };
        let Some(&signal) = self.signals.get(sig) else {
            return Err(StgError::Parse {
                line,
                message: format!("transition '{tok}' references undeclared signal '{sig}'"),
            });
        };
        let t = TransId(stg.transitions.len() as u32);
        stg.transitions.push(TransitionDecl {
            signal,
            dir,
            occurrence,
        });
        self.t_seen.push(Seen::NOWHERE);
        if !is_canonical(tok, occurrence) {
            self.aliases.entry((signal, dir, occurrence)).or_insert(t);
        }
        Ok(*slot.insert(Node::Trans(t)))
    }

    /// Where `node` has appeared so far.
    fn seen(&mut self, node: Node) -> &mut Seen {
        match node {
            Node::Trans(t) => &mut self.t_seen[t.0 as usize],
            Node::Place(p) => &mut self.p_seen[p.0 as usize],
        }
    }

    /// The first transition whose canonical name is `t`.
    fn first_named(&self, t: &str) -> Option<TransId> {
        let (sig, dir, occ) = split_edge_token(t)?;
        if !is_canonical(t, occ) {
            return None;
        }
        let spelled = match self.nodes.get(t) {
            Some(&Node::Trans(id)) => Some(id),
            _ => None,
        };
        let alias = self
            .aliases
            .get(&(*self.signals.get(sig)?, dir, occ))
            .copied();
        spelled.into_iter().chain(alias).min()
    }
}

/// A new place of `stg`, with no tokens yet and not yet seen.
fn new_place(stg: &mut Stg, p_seen: &mut Vec<Seen>, name: String) -> PlaceId {
    let p = PlaceId(stg.place_names.len() as u32);
    stg.place_names.push(name);
    stg.initial.push(0);
    p_seen.push(Seen::NOWHERE);
    p
}

/// Split a signal-edge token like `req+`, `ack-/2` into (signal, dir, occ).
fn split_edge_token(tok: &str) -> Option<(&str, Dir, u32)> {
    let (edge, occ) = match tok.split_once('/') {
        Some((e, o)) => (e, o.parse::<u32>().ok()?),
        None => (tok, 0),
    };
    let dir = match edge.chars().last()? {
        '+' => Dir::Rise,
        '-' => Dir::Fall,
        _ => return None,
    };
    let sig = &edge[..edge.len() - 1];
    if sig.is_empty() {
        return None;
    }
    Some((sig, dir, occ))
}

/// `true` if the edge token `tok`, of occurrence `occ`, is spelled as
/// `Stg::transition_name` spells it: no `/0`, no leading zeros or sign.
fn is_canonical(tok: &str, occ: u32) -> bool {
    match tok.split_once('/') {
        None => true,
        Some((_, o)) => occ != 0 && !o.starts_with('0') && o.bytes().all(|b| b.is_ascii_digit()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HANDSHAKE: &str = "
        .model hs
        .inputs r
        .outputs g
        .graph
        r+ g+
        g+ r-
        r- g-
        g- r+
        .marking { <g-,r+> }
        .end
    ";

    #[test]
    fn parses_handshake() {
        let stg = parse_stg(HANDSHAKE).unwrap();
        assert_eq!(stg.name(), "hs");
        assert_eq!(stg.num_signals(), 2);
        assert_eq!(stg.num_transitions(), 4);
        assert_eq!(stg.num_places(), 4);
        let m0 = stg.initial_marking();
        let enabled = stg.enabled(&m0);
        assert_eq!(enabled.len(), 1);
        assert_eq!(stg.transition_name(enabled[0]), "r+");
    }

    #[test]
    fn occurrence_indices() {
        let stg = parse_stg(
            ".inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b+/2...
            ",
        );
        // Malformed tail — must be a parse error, not a panic.
        assert!(stg.is_err());
        let stg = parse_stg(
            ".inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+/2\na+/2 b+/2\nb+/2 a-/2\na-/2 b-/2\nb-/2 a+\n.marking { <b-/2,a+> }\n.end",
        )
        .unwrap();
        assert_eq!(stg.num_transitions(), 8);
    }

    #[test]
    fn explicit_places_and_choice() {
        // A free-choice place feeding two input transitions.
        let stg = parse_stg(
            ".inputs a b\n.outputs c\n.graph\np0 a+ b+\na+ c+\nb+ c+\nc+ p1\np1 a-\na- c-\nc- p0\n.marking { p0 }\n.end",
        )
        .unwrap();
        assert!(stg.place_by_name("p0").is_some());
        let m0 = stg.initial_marking();
        let enabled: Vec<String> = stg
            .enabled(&m0)
            .into_iter()
            .map(|t| stg.transition_name(t))
            .collect();
        assert_eq!(enabled, vec!["a+", "b+"]);
    }

    #[test]
    fn marking_with_counts() {
        let stg = parse_stg(".outputs a\n.graph\np a+\na+ p\n.marking { p=2 }\n.end").unwrap();
        let p = stg.place_by_name("p").unwrap();
        assert_eq!(stg.initial_marking().tokens(p), 2);
    }

    #[test]
    fn undeclared_signal_is_error() {
        let err = parse_stg(".inputs a\n.graph\na+ q+\nq+ a-\n.marking { }\n.end").unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }));
    }

    #[test]
    fn marking_on_missing_place_is_error() {
        let err = parse_stg(
            ".inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <a+,a-> }\n.end",
        )
        .unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }));
    }

    #[test]
    fn marking_names_only_canonical_transitions() {
        let ring = |graph: &str, marking: &str| {
            parse_stg(&format!(
                ".inputs a\n.outputs b\n.graph\n{graph}\n.marking {{ {marking} }}\n.end"
            ))
        };
        // `a+/0` is the transition `a+`: the marking must call it that.
        let g = "a+/0 b+\nb+ a-\na- b-\nb- a+/0";
        let stg = ring(g, "<b-,a+>").unwrap();
        assert_eq!(
            stg.transition_name(stg.enabled(&stg.initial_marking())[0]),
            "a+"
        );
        assert!(matches!(ring(g, "<b-,a+/0>"), Err(StgError::Parse { .. })));
        // `a+/01` is the transition `a+/1`, and likewise.
        let g = "a+/01 b+\nb+ a-\na- b-\nb- a+/01";
        let stg = ring(g, "<b-,a+/1>").unwrap();
        assert_eq!(
            stg.transition_name(stg.enabled(&stg.initial_marking())[0]),
            "a+/1"
        );
        assert!(matches!(ring(g, "<b-,a+/01>"), Err(StgError::Parse { .. })));
        // Tokens `a+/0` and `a+` are two transitions named `a+`; the marking
        // means the first one created. Only that one has an arc to `b+`.
        let g = "a+/0 b+\nb+ a-\na- b-\nb- a+/0\nb- a+\na+ a-";
        let stg = ring(g, "<a+,b+>").unwrap();
        let first = stg.enabled(&stg.initial_marking());
        assert_eq!(first.len(), 1);
        assert_eq!(stg.transition_name(first[0]), "b+");
        assert!(matches!(ring(g, "<a+,a->"), Err(StgError::Parse { .. })));
    }

    #[test]
    fn duplicate_arcs_are_found_on_any_line_of_their_source() {
        let net = |graph: &str| {
            parse_stg(&format!(
                ".inputs a\n.outputs b c\n.graph\n{graph}\n.marking {{ p }}\n.end"
            ))
        };
        let dup = |line: usize, arc: &str| {
            Err(StgError::Parse {
                line,
                message: format!("duplicate arc '{arc}'"),
            })
        };
        // `p` is the source of three lines; the third repeats the first.
        let g = "p a+\na+ b+\np b-\nb+ p\np a+";
        assert_eq!(net(g).map(|_| ()), dup(8, "p a+"));
        // The third repeats the second, and `b+` is a target of other
        // sources in between.
        let g = "p a+\na+ b+\nb- b+\np b-\nc+ b+\np b-";
        assert_eq!(net(g).map(|_| ()), dup(9, "p b-"));
        // The same target from two sources is two arcs.
        let g = "p a+\na+ b+\nb+ c+\nc+ p\np b+";
        assert!(net(g).is_ok());
    }
}
