//! Parser for the `.g` (astg) interchange format.

use crate::error::StgError;
use crate::petri::{PlaceId, Stg, TransId};
use nshot_par::{FxHashMap, FxHashSet};
use nshot_sg::{Dir, SignalKind};

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
    let mut stg = Stg::new("stg");
    let mut declared: Vec<(&str, SignalKind)> = Vec::new();
    let mut in_graph = false;
    let mut graph_lines: Vec<(usize, Vec<&str>)> = Vec::new();
    let mut marking_tokens: Vec<(usize, String)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".model").or_else(|| line.strip_prefix(".name")) {
            stg = Stg::new(rest.trim());
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
        if line.starts_with('.') {
            // Ignore unknown dot directives (e.g. `.dummy`, which we reject
            // below if actually used).
            continue;
        }
        if in_graph {
            graph_lines.push((lineno + 1, line.split_whitespace().collect()));
        } else {
            return Err(StgError::Parse {
                line: lineno + 1,
                message: format!("unexpected line outside .graph: '{line}'"),
            });
        }
    }

    // Register declared signals in declaration order.
    let mut seen_signals: FxHashSet<&str> = FxHashSet::default();
    for &(name, kind) in &declared {
        if !seen_signals.insert(name) {
            return Err(StgError::Parse {
                line: 0,
                message: format!("duplicate signal '{name}'"),
            });
        }
        stg.add_signal(name, kind);
    }

    // First pass: create all transitions and explicit places named in the
    // graph section.
    let mut nodes = Nodes::default();

    // The `.g` format has no arc weights: a repeated arc is always an
    // authoring mistake (and a silent one — the duplicate implicit place
    // never receives a token, so the target quietly dies).
    let mut seen_arcs: FxHashSet<(u8, u32, u32)> = FxHashSet::default();
    for (line, tokens) in &graph_lines {
        if tokens.len() < 2 {
            return Err(StgError::Parse {
                line: *line,
                message: "graph line needs a source and at least one target".into(),
            });
        }
        let src = nodes.resolve(&mut stg, tokens[0], *line)?;
        for &tok in &tokens[1..] {
            let dst = nodes.resolve(&mut stg, tok, *line)?;
            let arc_key = match (src, dst) {
                (Node::Trans(a), Node::Trans(b)) => (0u8, a.0, b.0),
                (Node::Trans(a), Node::Place(p)) => (1, a.0, p.0),
                (Node::Place(p), Node::Trans(b)) => (2, p.0, b.0),
                (Node::Place(p), Node::Place(q)) => (3, p.0, q.0),
            };
            if !seen_arcs.insert(arc_key) {
                return Err(StgError::Parse {
                    line: *line,
                    message: format!("duplicate arc '{} {tok}'", tokens[0]),
                });
            }
            match (src, dst) {
                (Node::Trans(a), Node::Trans(b)) => {
                    stg.connect(a, b, 0);
                }
                (Node::Trans(a), Node::Place(p)) => stg.arc_tp(a, p),
                (Node::Place(p), Node::Trans(b)) => stg.arc_pt(p, b),
                (Node::Place(_), Node::Place(_)) => {
                    return Err(StgError::Parse {
                        line: *line,
                        message: "place-to-place arcs are not allowed".into(),
                    })
                }
            }
        }
    }

    // Apply the marking. `<a,b>` names transitions by their canonical
    // names (`Stg::transition_name`, the first transition wins a shared
    // name). Every parsed transition came from `split_edge_token`, so its
    // name splits back to its own `(signal, dir, occurrence)` key: a token
    // is looked up by its split and accepted only if it is that
    // transition's name (`a+/0` and `a+/01` are not). The map is built
    // once, on the first such token.
    let mut by_key: Option<FxHashMap<(usize, Dir, u32), TransId>> = None;
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
            let by_key = by_key.get_or_insert_with(|| {
                let mut map = FxHashMap::default();
                for (i, tr) in stg.transitions.iter().enumerate() {
                    map.entry((tr.signal, tr.dir, tr.occurrence))
                        .or_insert(TransId(i as u32));
                }
                map
            });
            let lookup = |t: &str| {
                let t = t.trim();
                split_edge_token(t)
                    .and_then(|(sig, dir, occ)| {
                        by_key.get(&(stg.signal_index(sig)?, dir, occ)).copied()
                    })
                    .filter(|&id| stg.transition_name(id) == t)
                    .ok_or_else(|| StgError::Parse {
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
        } else if let Some(&p) = nodes.places.get(name) {
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

#[derive(Clone, Copy)]
enum Node {
    Trans(TransId),
    Place(PlaceId),
}

/// The graph section's names, keyed by the tokens of the text itself.
#[derive(Default)]
struct Nodes<'t> {
    trans: FxHashMap<&'t str, TransId>,
    places: FxHashMap<&'t str, PlaceId>,
}

impl<'t> Nodes<'t> {
    /// The transition or explicit place `tok` names, created on first use.
    fn resolve(&mut self, stg: &mut Stg, tok: &'t str, line: usize) -> Result<Node, StgError> {
        if let Some(&id) = self.trans.get(tok) {
            return Ok(Node::Trans(id));
        }
        if let Some((sig, dir, occ)) = split_edge_token(tok) {
            if let Some(idx) = stg.signal_index(sig) {
                let id = stg.add_transition(idx, dir, occ);
                self.trans.insert(tok, id);
                return Ok(Node::Trans(id));
            }
            return Err(StgError::Parse {
                line,
                message: format!("transition '{tok}' references undeclared signal '{sig}'"),
            });
        }
        // Not a signal edge → explicit place.
        let id = *self
            .places
            .entry(tok)
            .or_insert_with(|| stg.add_place(tok, 0));
        Ok(Node::Place(id))
    }
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
        let stg = parse_stg(
            ".outputs a\n.graph\np a+\na+ p\n.marking { p=2 }\n.end",
        )
        .unwrap();
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
        let err =
            parse_stg(".inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <a+,a-> }\n.end")
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
}
