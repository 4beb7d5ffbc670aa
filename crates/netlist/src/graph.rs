//! The single-driver gate graph.

use crate::gate::GateKind;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a gate; the gate's output net has the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The net this gate drives.
    pub fn net(self) -> NetId {
        NetId(self.0)
    }
}

/// Identifier of a net (= the output of exactly one gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The driving gate.
    pub fn driver(self) -> GateId {
        GateId(self.0)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Gate {
    pub kind: GateKind,
    pub inputs: Vec<NetId>,
    pub name: String,
}

/// Per-kind gate counts and totals, for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of AND gates.
    pub ands: usize,
    /// Number of OR gates.
    pub ors: usize,
    /// Number of inverters.
    pub inverters: usize,
    /// Number of storage elements (C, RS, MHS).
    pub storage: usize,
    /// Number of delay lines.
    pub delays: usize,
    /// Total literal count feeding AND gates.
    pub and_literals: usize,
}

/// A gate-level netlist: gates with single-driver nets, named primary inputs
/// and marked observable outputs.
///
/// See the crate documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    outputs: Vec<(String, NetId)>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new(name: &str) -> Self {
        Netlist {
            name: name.to_owned(),
            gates: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate with the given index (inverse of [`GateId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn gate_id(&self, index: usize) -> GateId {
        assert!(index < self.gates.len(), "gate index {index} out of range");
        GateId(index as u32)
    }

    /// The net with the given index (inverse of [`NetId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn net_id(&self, index: usize) -> NetId {
        assert!(index < self.gates.len(), "net index {index} out of range");
        NetId(index as u32)
    }

    /// Add a primary input; returns its net.
    pub fn add_input(&mut self, name: &str) -> NetId {
        self.add_gate(GateKind::Input, Vec::new(), name)
    }

    /// Add a gate; returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if the kind has a fixed arity that `inputs` does not match, or
    /// if an input net does not exist yet.
    pub fn add_gate(&mut self, kind: GateKind, inputs: Vec<NetId>, name: &str) -> NetId {
        if let Some(k) = kind.arity() {
            assert_eq!(
                inputs.len(),
                k,
                "gate {kind} expects {k} inputs, got {}",
                inputs.len()
            );
        }
        for i in &inputs {
            assert!(
                (i.0 as usize) < self.gates.len(),
                "input net {} does not exist",
                i.0
            );
        }
        let id = NetId(self.gates.len() as u32);
        self.gates.push(Gate {
            kind,
            inputs,
            name: name.to_owned(),
        });
        id
    }

    /// Rewire one input of an existing gate (used to close feedback loops:
    /// add the storage element first, then connect its output back).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn rewire_input(&mut self, gate: GateId, position: usize, net: NetId) {
        assert!((net.0 as usize) < self.gates.len(), "net does not exist");
        self.gates[gate.0 as usize].inputs[position] = net;
    }

    /// Declare a named observable output.
    pub fn mark_output(&mut self, name: &str, net: NetId) {
        self.outputs.push((name.to_owned(), net));
    }

    /// Maximum fan-in of library AND/OR cells; wider functions are built as
    /// trees by [`Netlist::add_or_tree`] / [`Netlist::add_and_tree`].
    pub const MAX_FANIN: usize = 4;

    /// Build a (possibly multi-level) OR over `inputs`, respecting the
    /// library fan-in limit. Returns the input itself for a single net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn add_or_tree(&mut self, mut inputs: Vec<NetId>, name: &str) -> NetId {
        assert!(!inputs.is_empty(), "OR tree needs at least one input");
        let mut level = 0;
        while inputs.len() > 1 {
            let mut next = Vec::with_capacity(inputs.len().div_ceil(Self::MAX_FANIN));
            for (i, chunk) in inputs.chunks(Self::MAX_FANIN).enumerate() {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    next.push(self.add_gate(
                        GateKind::Or,
                        chunk.to_vec(),
                        &format!("{name}.or{level}_{i}"),
                    ));
                }
            }
            inputs = next;
            level += 1;
        }
        inputs[0]
    }

    /// Build a (possibly multi-level) AND over `(net, inverted)` literals,
    /// respecting the fan-in limit. Bubbles are only free on the first
    /// level (they attach to the literals themselves).
    ///
    /// # Panics
    ///
    /// Panics if `literals` is empty.
    pub fn add_and_tree(&mut self, literals: &[(NetId, bool)], name: &str) -> NetId {
        assert!(!literals.is_empty(), "AND tree needs at least one literal");
        if literals.len() == 1 {
            let (net, inv) = literals[0];
            return if inv {
                self.add_gate(GateKind::Not, vec![net], name)
            } else {
                net
            };
        }
        // First level: AND gates with bubbles.
        let mut nets = Vec::with_capacity(literals.len().div_ceil(Self::MAX_FANIN));
        for (i, chunk) in literals.chunks(Self::MAX_FANIN).enumerate() {
            if chunk.len() == 1 && !chunk[0].1 {
                nets.push(chunk[0].0);
            } else {
                nets.push(self.add_gate(
                    GateKind::And {
                        inverted: chunk.iter().map(|&(_, inv)| inv).collect(),
                    },
                    chunk.iter().map(|&(n, _)| n).collect(),
                    &format!("{name}.l0_{i}"),
                ));
            }
        }
        // Upper levels: plain ANDs.
        let mut level = 1;
        while nets.len() > 1 {
            let mut next = Vec::with_capacity(nets.len().div_ceil(Self::MAX_FANIN));
            for (i, chunk) in nets.chunks(Self::MAX_FANIN).enumerate() {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    next.push(self.add_gate(
                        GateKind::and(chunk.len()),
                        chunk.to_vec(),
                        &format!("{name}.l{level}_{i}"),
                    ));
                }
            }
            nets = next;
            level += 1;
        }
        nets[0]
    }

    /// The observable outputs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Look up an output net by name.
    pub fn output_by_name(&self, name: &str) -> Option<NetId> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, net)| net)
    }

    /// Number of gates (including pseudo-gates for inputs).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The kind of a gate.
    pub fn kind(&self, g: GateId) -> &GateKind {
        &self.gates[g.0 as usize].kind
    }

    /// The inputs of a gate.
    pub fn inputs(&self, g: GateId) -> &[NetId] {
        &self.gates[g.0 as usize].inputs
    }

    /// The instance name of a gate.
    pub fn gate_name(&self, g: GateId) -> &str {
        &self.gates[g.0 as usize].name
    }

    /// All gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Total area in library units.
    pub fn area(&self) -> u32 {
        self.gates
            .iter()
            .map(|g| g.kind.area(g.inputs.len()))
            .sum()
    }

    /// Gate-count statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats::default();
        for g in &self.gates {
            match &g.kind {
                GateKind::Input => s.inputs += 1,
                GateKind::And { .. } => {
                    s.ands += 1;
                    s.and_literals += g.inputs.len();
                }
                GateKind::Or => s.ors += 1,
                GateKind::Not => s.inverters += 1,
                GateKind::CElement { .. } | GateKind::RsLatch | GateKind::MhsFlipFlop => s.storage += 1,
                GateKind::AckAnd { .. } => s.ands += 1,
                GateKind::DelayLine { .. } => s.delays += 1,
                GateKind::Const(_) => {}
            }
        }
        s
    }

    /// Fan-out of every net: how many gate inputs it drives.
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.gates.len()];
        for g in &self.gates {
            for i in &g.inputs {
                counts[i.0 as usize] += 1;
            }
        }
        counts
    }

    /// The nets where the paper's skew assumptions live: primary inputs
    /// distributed to multiple destinations ("I/O signals that are
    /// distributed to multiple destinations must have negligible skews")
    /// and multi-fanout internal nets (where, unlike speed-independent
    /// methods, *no* isochronicity is required). Returns
    /// `(net name, fanout, is_primary_input)` for every net with fanout >= 2.
    pub fn multi_fanout_report(&self) -> Vec<(String, usize, bool)> {
        self.fanout_counts()
            .into_iter()
            .enumerate()
            .filter(|&(_, f)| f >= 2)
            .map(|(i, f)| {
                let g = &self.gates[i];
                (g.name.clone(), f, matches!(g.kind, GateKind::Input))
            })
            .collect()
    }

    /// Merge structurally identical combinational gates (same kind, same
    /// input multiset, same bubbles). This implements the paper's
    /// product-term sharing across set/reset networks. Returns the number of
    /// gates merged away.
    pub fn dedupe(&mut self) -> usize {
        let mut canonical: HashMap<(GateKind, Vec<(NetId, bool)>), NetId> = HashMap::new();
        let mut replace: HashMap<NetId, NetId> = HashMap::new();
        for idx in 0..self.gates.len() {
            // Apply earlier replacements to this gate's inputs first.
            let inputs: Vec<NetId> = self.gates[idx]
                .inputs
                .iter()
                .map(|i| *replace.get(i).unwrap_or(i))
                .collect();
            self.gates[idx].inputs = inputs.clone();
            let kind = self.gates[idx].kind.clone();
            if kind.is_sequential() || matches!(kind, GateKind::Input | GateKind::DelayLine { .. })
            {
                continue;
            }
            // Canonical key: kind with bubbles folded into the input list.
            let mut pairs: Vec<(NetId, bool)> = match &kind {
                GateKind::And { inverted } => inputs
                    .iter()
                    .zip(inverted)
                    .map(|(&n, &b)| (n, b))
                    .collect(),
                _ => inputs.iter().map(|&n| (n, false)).collect(),
            };
            pairs.sort_unstable();
            let key_kind = match &kind {
                GateKind::And { inverted } => GateKind::And {
                    inverted: vec![false; inverted.len()],
                },
                k => k.clone(),
            };
            let this_net = NetId(idx as u32);
            match canonical.entry((key_kind, pairs)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    replace.insert(this_net, *e.get());
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(this_net);
                }
            }
        }
        if replace.is_empty() {
            return 0;
        }
        // Rewrite all references (later gates and outputs), then drop the
        // merged gates by reclassifying them as zero-area constants.
        for g in &mut self.gates {
            for i in &mut g.inputs {
                if let Some(r) = replace.get(i) {
                    *i = *r;
                }
            }
        }
        for (_, net) in &mut self.outputs {
            if let Some(r) = replace.get(net) {
                *net = *r;
            }
        }
        for &dead in replace.keys() {
            let g = &mut self.gates[dead.0 as usize];
            g.kind = GateKind::Const(false);
            g.inputs.clear();
        }
        replace.len()
    }

    /// Evaluate the combinational portion: given values for source nets
    /// (inputs, storage outputs, constants override automatically), compute
    /// every combinational net.
    ///
    /// # Panics
    ///
    /// Panics if a needed source value is missing or on combinational loops.
    pub fn eval_combinational(&self, sources: &HashMap<NetId, bool>) -> HashMap<NetId, bool> {
        let mut values: HashMap<NetId, bool> = sources.clone();
        // Iterate to fixpoint; the graph is a DAG on combinational gates so
        // |gates| passes suffice. Loops are detected by non-convergence.
        for _ in 0..=self.gates.len() {
            let mut changed = false;
            for idx in 0..self.gates.len() {
                let net = NetId(idx as u32);
                let g = &self.gates[idx];
                if g.kind.is_sequential() || matches!(g.kind, GateKind::Input) {
                    continue;
                }
                if values.contains_key(&net) && !matches!(g.kind, GateKind::Const(_)) {
                    continue;
                }
                let v = match &g.kind {
                    GateKind::Const(v) => Some(*v),
                    GateKind::Not | GateKind::DelayLine { .. } => {
                        values.get(&g.inputs[0]).map(|v| {
                            if matches!(g.kind, GateKind::Not) {
                                !v
                            } else {
                                *v
                            }
                        })
                    }
                    GateKind::And { inverted } => {
                        let vals: Option<Vec<bool>> =
                            g.inputs.iter().map(|i| values.get(i).copied()).collect();
                        vals.map(|vs| vs.iter().zip(inverted).all(|(&v, &inv)| v != inv))
                    }
                    GateKind::Or => {
                        let vals: Option<Vec<bool>> =
                            g.inputs.iter().map(|i| values.get(i).copied()).collect();
                        vals.map(|vs| vs.iter().any(|&v| v))
                    }
                    GateKind::AckAnd { invert_enable } => {
                        match (values.get(&g.inputs[0]), values.get(&g.inputs[1])) {
                            (Some(&a), Some(&b)) => Some(a && (b ^ invert_enable)),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                if let Some(v) = v {
                    if values.insert(net, v) != Some(v) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        values
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# netlist {}", self.name)?;
        for (i, g) in self.gates.iter().enumerate() {
            let ins: Vec<String> = g
                .inputs
                .iter()
                .map(|n| self.gates[n.0 as usize].name.clone())
                .collect();
            writeln!(f, "{}: {} = {}({})", i, g.name, g.kind, ins.join(", "))?;
        }
        for (name, net) in &self.outputs {
            writeln!(f, ".output {name} <- {}", self.gates[net.0 as usize].name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_area() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let p = n.add_gate(GateKind::and(2), vec![a, b], "p");
        let q = n.add_gate(GateKind::and(2), vec![a, b], "q");
        let o = n.add_gate(GateKind::Or, vec![p, q], "o");
        n.mark_output("y", o);
        assert_eq!(n.area(), 24 + 24 + 24);
        assert_eq!(n.stats().ands, 2);
        assert_eq!(n.stats().ors, 1);
    }

    #[test]
    fn dedupe_merges_identical_ands() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let p = n.add_gate(GateKind::and(2), vec![a, b], "p");
        let q = n.add_gate(GateKind::and(2), vec![b, a], "q"); // same term
        let o = n.add_gate(GateKind::Or, vec![p, q], "o");
        n.mark_output("y", o);
        let merged = n.dedupe();
        assert_eq!(merged, 1);
        assert_eq!(n.stats().ands, 1);
        // The OR now sees the surviving AND twice.
        assert_eq!(n.inputs(o.driver()), &[p, p]);
    }

    #[test]
    fn dedupe_respects_bubbles() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let p = n.add_gate(
            GateKind::And {
                inverted: vec![true, false],
            },
            vec![a, b],
            "p",
        );
        let q = n.add_gate(
            GateKind::And {
                inverted: vec![false, true],
            },
            vec![a, b],
            "q",
        );
        let _o = n.add_gate(GateKind::Or, vec![p, q], "o");
        assert_eq!(n.dedupe(), 0, "different bubbles are different terms");
        // But the same bubbles in permuted order do merge.
        let mut n = Netlist::new("t2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let p = n.add_gate(
            GateKind::And {
                inverted: vec![true, false],
            },
            vec![a, b],
            "p",
        );
        let q = n.add_gate(
            GateKind::And {
                inverted: vec![false, true],
            },
            vec![b, a],
            "q",
        );
        let _o = n.add_gate(GateKind::Or, vec![p, q], "o");
        assert_eq!(n.dedupe(), 1);
        let _ = (p, q);
    }

    #[test]
    fn eval_combinational_logic() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let nb = n.add_gate(GateKind::Not, vec![b], "nb");
        let p = n.add_gate(GateKind::and(2), vec![a, nb], "p");
        let o = n.add_gate(GateKind::Or, vec![p, b], "o");
        let mut sources = HashMap::new();
        sources.insert(a, true);
        sources.insert(b, false);
        let vals = n.eval_combinational(&sources);
        assert!(vals[&p]);
        assert!(vals[&o]);
        sources.insert(a, false);
        let vals = n.eval_combinational(&sources);
        assert!(!vals[&o]);
    }

    #[test]
    fn rewire_closes_feedback() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let tmp = n.add_input("placeholder");
        let and = n.add_gate(GateKind::and(2), vec![a, tmp], "and");
        let ff = n.add_gate(GateKind::MhsFlipFlop, vec![and, a], "ff");
        n.rewire_input(and.driver(), 1, ff);
        assert_eq!(n.inputs(and.driver())[1], ff);
    }

    #[test]
    #[should_panic(expected = "expects 1 inputs")]
    fn arity_is_enforced() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let _ = n.add_gate(GateKind::Not, vec![a, b], "bad");
    }
}

#[cfg(test)]
mod tree_tests {
    use super::*;
    use crate::DelayModel;

    #[test]
    fn or_tree_respects_fanin_limit() {
        let mut n = Netlist::new("t");
        let inputs: Vec<NetId> = (0..17).map(|i| n.add_input(&format!("x{i}"))).collect();
        let out = n.add_or_tree(inputs, "wide");
        n.mark_output("y", out);
        for g in n.gate_ids() {
            assert!(n.inputs(g).len() <= Netlist::MAX_FANIN, "fan-in violated");
        }
        // 17 → 5 → 2 → 1: three levels.
        let model = DelayModel::nominal();
        let depth = n.arrival_max_ns(out, &model).unwrap();
        assert!((depth - 3.6).abs() < 1e-9, "depth {depth}");
        // Function: OR of all inputs.
        let mut sources = std::collections::HashMap::new();
        for g in n.gate_ids().take(17) {
            sources.insert(g.net(), false);
        }
        assert!(!n.eval_combinational(&sources)[&out]);
        sources.insert(n.gate_ids().nth(16).unwrap().net(), true);
        assert!(n.eval_combinational(&sources)[&out]);
    }

    #[test]
    fn and_tree_with_bubbles_evaluates_correctly() {
        let mut n = Netlist::new("t");
        let inputs: Vec<NetId> = (0..9).map(|i| n.add_input(&format!("x{i}"))).collect();
        let literals: Vec<(NetId, bool)> =
            inputs.iter().enumerate().map(|(i, &x)| (x, i % 3 == 0)).collect();
        let out = n.add_and_tree(&literals, "deep");
        n.mark_output("y", out);
        for g in n.gate_ids() {
            assert!(n.inputs(g).len() <= Netlist::MAX_FANIN);
        }
        // Satisfying assignment: xi = (i % 3 != 0).
        let mut sources = std::collections::HashMap::new();
        for (i, &x) in inputs.iter().enumerate() {
            sources.insert(x, i % 3 != 0);
        }
        assert!(n.eval_combinational(&sources)[&out]);
        // Flip one literal → false.
        sources.insert(inputs[1], false);
        assert!(!n.eval_combinational(&sources)[&out]);
    }

    #[test]
    fn single_literal_trees_degenerate() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        assert_eq!(n.add_or_tree(vec![a], "or1"), a, "single-input OR is a wire");
        let w = n.add_and_tree(&[(a, false)], "and1");
        assert_eq!(w, a, "positive single literal is a wire");
        let inv = n.add_and_tree(&[(a, true)], "inv1");
        assert!(matches!(n.kind(inv.driver()), GateKind::Not));
    }
}

#[cfg(test)]
mod fanout_tests {
    use super::*;

    #[test]
    fn fanout_counts_and_report() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let p = n.add_gate(GateKind::and(2), vec![a, b], "p");
        let q = n.add_gate(GateKind::and(2), vec![a, p], "q");
        let o = n.add_gate(GateKind::Or, vec![p, q], "o");
        n.mark_output("y", o);
        let counts = n.fanout_counts();
        assert_eq!(counts[a.index()], 2);
        assert_eq!(counts[b.index()], 1);
        assert_eq!(counts[p.index()], 2);
        let report = n.multi_fanout_report();
        assert_eq!(report.len(), 2);
        assert!(report.iter().any(|(name, f, inp)| name == "a" && *f == 2 && *inp));
        assert!(report.iter().any(|(name, f, inp)| name == "p" && *f == 2 && !*inp));
    }
}
