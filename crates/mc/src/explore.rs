//! Breadth-first exhaustive exploration of the composed circuit ×
//! environment transition system.
//!
//! States are packed bit vectors (net values ‖ per-flip-flop enable +
//! pending bits ‖ specification state). Every discovered state is stored
//! once, in discovery order, in a paged flat [`Arena`]; its discovery index
//! is its `u32` id. The visited set is an open-addressed [`Table`] of ids
//! tagged with hash bits, so a probe reads the arena only where the tag
//! matches. Exploration is plain BFS: every
//! enabled action is explored from every state, and each state is expanded
//! once, in discovery order, so the frontier is the id range `next..len`
//! and the first violation found is depth-minimal. Per state the explorer
//! keeps only its parent id: depth comes from BFS level boundaries, and a
//! counterexample's actions are re-derived from the parent links when its
//! trace is rendered.
//!
//! Expanding a state evaluates every combinational gate once, through the
//! word masks `Model::build` compiled, into one excitation bitset. Excited
//! gates are its set bits, and the Eq. 1 opening check is one disjointness
//! test of that bitset with the cone's. The flip-flops' enable, pending
//! and rail bits are gathered into masks once per state as well.
//!
//! The canonical successor order (flip-flop fires, commits, cancels, enable
//! updates, gate fires in index order, environment inputs in specification
//! order) makes the result a pure function of the model — identical
//! counterexample and certificate bytes at any `NSHOT_THREADS` value, since
//! the explorer is sequential by design (parallelism lives one level up,
//! across circuits).

use std::hash::Hasher;
use std::sync::Arc;

use nshot_obs::{Gauge, Progress, Registry};
use nshot_par::FxHasher;
use nshot_sg::{Dir, TransitionLabel};

use crate::model::{disjoint, Model};
use crate::{Certificate, Counterexample, ExplorationStats, McViolation, Verdict};

/// One interleaving transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Environment fires a specification-enabled input transition.
    Input { signal: u16, rise: bool },
    /// An excited combinational gate propagates (comb index).
    Gate { comb: u32, value: bool },
    /// A high acknowledgement rail arms the flip-flop pulse.
    Commit { ff: u16, rise: bool },
    /// The pulse filter absorbs a runt (rail back low before ω).
    Cancel { ff: u16 },
    /// The feedback/enable rail catches up with the flip-flop output.
    Enable { ff: u16, value: bool },
    /// The flip-flop fires — the externally observable event.
    Fire { ff: u16, rise: bool },
}

/// An empty [`Table`] slot, and the root's missing parent.
const NONE: u32 = u32::MAX;

/// States per [`Arena`] page.
const PAGE_STATES: usize = 1 << 14;

/// Every discovered state's packed words, in discovery order. The arena
/// grows by whole fixed-size pages, so storing a state never moves the
/// ones before it: a doubling `Vec` would copy the arena on each growth
/// and briefly hold it twice.
struct Arena {
    words: usize,
    pages: Vec<Box<[u64]>>,
    len: usize,
}

impl Arena {
    fn new(words: usize) -> Self {
        Arena {
            words,
            pages: Vec::new(),
            len: 0,
        }
    }

    fn get(&self, id: u32) -> &[u64] {
        let i = id as usize;
        let at = i % PAGE_STATES * self.words;
        &self.pages[i / PAGE_STATES][at..at + self.words]
    }

    /// Store `w` and return its id.
    fn push(&mut self, w: &[u64]) -> u32 {
        assert!(self.len < NONE as usize, "state ids fit in u32");
        let at = self.len % PAGE_STATES * self.words;
        if at == 0 {
            self.pages
                .push(vec![0; PAGE_STATES * self.words].into_boxed_slice());
        }
        self.pages.last_mut().expect("a page")[at..at + self.words].copy_from_slice(w);
        self.len += 1;
        (self.len - 1) as u32
    }
}

/// FxHash of a packed state's words.
fn hash(w: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &x in w {
        h.write_u64(x);
    }
    h.finish()
}

/// How a [`Table`] slot packs a state id with a tag of its hash. The id
/// takes the low `id_bits` bits, the width of `max(max_states, 2)`
/// (capped at 32); the spare high bits of the slot hold the same bits of
/// the hash's high half. Equal states hash alike, so a slot whose tag
/// differs cannot hold the state sought, and the probe skips it without
/// reading the arena. The tag bits sit above the ones that pick the slot,
/// so the states of one probe run seldom share a tag. From `id_bits = 32`
/// on, there is no tag.
///
/// No encoded slot equals [`NONE`]: that takes an id of `2^id_bits - 1`
/// with `id_bits < 32`, and ids stay below `max(max_states, 2)`, since the
/// explorer stops once the arena holds `max_states` states (a budget of 0
/// or 1 still stores the root and one successor).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotCode {
    /// The id bits of a slot.
    id_mask: u32,
}

impl SlotCode {
    pub(crate) fn for_budget(max_states: usize) -> Self {
        let id_bits = 64 - (max_states.max(2) as u64).leading_zeros();
        SlotCode {
            id_mask: if id_bits >= 32 {
                u32::MAX
            } else {
                (1 << id_bits) - 1
            },
        }
    }

    /// Bits of a slot that hold the id (32: no tag).
    #[cfg(test)]
    pub(crate) fn id_bits(self) -> u32 {
        self.id_mask.count_ones()
    }

    /// The slot for state `id`, whose words hash to `h`.
    pub(crate) fn encode(self, id: u32, h: u64) -> u32 {
        debug_assert_eq!(id & !self.id_mask, 0, "id {id} exceeds the id bits");
        ((h >> 32) as u32 & !self.id_mask) | id
    }

    /// The id an occupied slot holds.
    pub(crate) fn id(self, slot: u32) -> u32 {
        slot & self.id_mask
    }

    /// Whether `slot` may hold a state whose words hash to `h`.
    pub(crate) fn tag_matches(self, slot: u32, h: u64) -> bool {
        (slot ^ (h >> 32) as u32) & !self.id_mask == 0
    }
}

/// The visited set: a power-of-two, linear-probing table of tagged arena
/// ids (see [`SlotCode`]), rehashed from the arena when its load passes ½.
/// A probe compares a state's words only where the tag matches.
struct Table {
    slots: Vec<u32>,
    code: SlotCode,
}

impl Table {
    fn new(max_states: usize) -> Self {
        Table {
            slots: vec![NONE; 256],
            code: SlotCode::for_budget(max_states),
        }
    }

    /// `Ok(id)` of the stored state equal to `w`, whose words hash to `h`,
    /// or `Err(slot)`: the empty slot where `w` belongs.
    fn find(&self, arena: &Arena, w: &[u64], h: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            match self.slots[i] {
                NONE => return Err(i),
                s if self.code.tag_matches(s, h) && arena.get(self.code.id(s)) == w => {
                    return Ok(self.code.id(s))
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Double the table and re-insert every stored state (all distinct,
    /// so probes need no comparison).
    fn grow(&mut self, arena: &Arena) {
        self.slots = vec![NONE; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for id in 0..arena.len as u32 {
            let h = hash(arena.get(id));
            let mut i = h as usize & mask;
            while self.slots[i] != NONE {
                i = (i + 1) & mask;
            }
            self.slots[i] = self.code.encode(id, h);
        }
    }
}

/// Explorer statistics (grow into the proof certificate).
#[derive(Default)]
struct Stats {
    edges: u64,
    max_depth: u32,
    peak_frontier: u64,
    /// Spec-conformance checks per flip-flop (every `Fire` edge).
    violation_checks: Vec<u64>,
    /// Running total of `violation_checks`.
    vchecks_total: u64,
}

/// Heartbeat gauges the explorer updates from its hot loop. Present only
/// when progress reporting is enabled; the explorer's decisions never
/// read them, so runs are byte-identical with or without.
struct ProgressGauges {
    states: Arc<Gauge>,
    edges: Arc<Gauge>,
    frontier: Arc<Gauge>,
    frontier_peak: Arc<Gauge>,
    depth: Arc<Gauge>,
    visited_bytes: Arc<Gauge>,
    budget_pct: Arc<Gauge>,
    violation_checks: Arc<Gauge>,
}

pub(crate) struct Explorer<'m, 'a> {
    m: &'m Model<'a>,
    max_states: usize,
    /// Every discovered state, indexed by id (discovery order).
    arena: Arena,
    /// The visited set, over `arena`.
    table: Table,
    /// Parent id, indexed by state id.
    parents: Vec<u32>,
    /// States expanded or being expanded; the frontier is `next..len`.
    next: usize,
    stats: Stats,
    progress: Option<ProgressGauges>,
}

// --- packed-state bit accessors -------------------------------------------

/// The set bits of `mask`, lowest first.
fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

fn get_bit(w: &[u64], i: usize) -> bool {
    w[i >> 6] >> (i & 63) & 1 == 1
}

fn set_bit(w: &mut [u64], i: usize, v: bool) {
    if v {
        w[i >> 6] |= 1 << (i & 63);
    } else {
        w[i >> 6] &= !(1 << (i & 63));
    }
}

impl<'m, 'a> Explorer<'m, 'a> {
    pub fn new(m: &'m Model<'a>, max_states: usize) -> Self {
        Explorer {
            m,
            max_states,
            arena: Arena::new(m.state_words()),
            table: Table::new(max_states),
            parents: Vec::new(),
            next: 0,
            stats: Stats {
                violation_checks: vec![0; m.ffs.len()],
                ..Stats::default()
            },
            progress: None,
        }
    }

    /// Register this run's heartbeat fields on `p`. The explorer then
    /// refreshes the gauges every few thousand edges; `p`'s reporter
    /// thread does the actual emitting.
    pub fn attach_progress(&mut self, p: &Progress) {
        self.progress = Some(ProgressGauges {
            states: p.rate("states"),
            edges: p.rate("edges"),
            frontier: p.field("frontier"),
            frontier_peak: p.field("frontier_peak"),
            depth: p.field("max_depth"),
            visited_bytes: p.field("visited_bytes"),
            budget_pct: p.field("budget_pct"),
            violation_checks: p.field("violation_checks"),
        });
        self.publish_progress();
    }

    /// Deterministic memory estimate: per state, its packed words in the
    /// arena and its parent id; plus the visited table's slots (a pure
    /// function of the state count).
    fn visited_bytes(&self) -> u64 {
        let per_state = self.m.state_words() * 8 + std::mem::size_of::<u32>();
        (self.arena.len * per_state + self.table.slots.len() * std::mem::size_of::<u32>()) as u64
    }

    /// States discovered but not yet expanded.
    fn frontier(&self) -> u64 {
        (self.arena.len - self.next) as u64
    }

    #[cold]
    fn publish_progress(&self) {
        let Some(g) = &self.progress else { return };
        g.states.set(self.arena.len as u64);
        g.edges.set(self.stats.edges);
        g.frontier.set(self.frontier());
        g.frontier_peak.set(self.stats.peak_frontier);
        g.depth.set(self.stats.max_depth as u64);
        g.visited_bytes.set(self.visited_bytes());
        g.budget_pct
            .set(self.arena.len as u64 * 100 / self.max_states.max(1) as u64);
        g.violation_checks.set(self.stats.vchecks_total);
    }

    // -- state layout -------------------------------------------------------

    fn enable_bit(&self, ff: usize) -> usize {
        self.m.net_words * 64 + 3 * ff
    }

    fn set_pending(&self, w: &mut [u64], ff: usize, p: Option<bool>) {
        let base = self.enable_bit(ff);
        set_bit(w, base + 1, p.is_some());
        set_bit(w, base + 2, p.unwrap_or(false));
    }

    fn spec_of(&self, w: &[u64]) -> nshot_sg::StateId {
        self.m.spec_states[w[self.m.net_words + self.m.ff_words] as usize]
    }

    fn set_spec(&self, w: &mut [u64], s: nshot_sg::StateId) {
        w[self.m.net_words + self.m.ff_words] = s.index() as u64;
    }

    /// Refresh the zero-delay acknowledgement rails of flip-flop `f` (and
    /// its delay-line net) from the current SOP and enable values.
    fn refresh_ack(&self, w: &mut [u64], f: usize) {
        let ff = &self.m.ffs[f];
        let e = get_bit(w, self.enable_bit(f));
        let set = get_bit(w, ff.set_sop as usize) && !e;
        let reset = get_bit(w, ff.reset_sop as usize) && e;
        set_bit(w, ff.ack_set as usize, set);
        set_bit(w, ff.ack_reset as usize, reset);
        if let Some(d) = ff.delay_line {
            set_bit(w, d as usize, e);
        }
    }

    // -- initial state ------------------------------------------------------

    fn initial_words(&self) -> Vec<u64> {
        let m = self.m;
        let mut w = vec![0u64; m.state_words()];
        let init = m.sg.initial();
        // Sources: inputs and flip-flop outputs at their specified initial
        // values; constants at their value.
        for s in m.sg.signal_ids() {
            set_bit(&mut w, m.signal_net[s.index()] as usize, m.sg.value(init, s));
        }
        for g in m.nl.gate_ids() {
            if let nshot_netlist::GateKind::Const(v) = m.nl.kind(g) {
                set_bit(&mut w, g.index(), *v);
            }
        }
        // Enables start agreeing with the outputs; no pending pulses.
        for (f, ff) in m.ffs.iter().enumerate() {
            let out = get_bit(&w, ff.ff as usize);
            set_bit(&mut w, self.enable_bit(f), out);
            self.set_pending(&mut w, f, None);
        }
        // Settle the combinational fabric (t = 0 initialization assumption,
        // matching the event simulator's `eval_combinational` seed). Gate
        // indices are topologically ordered over combinational paths, so one
        // pass suffices; iterate to a fixpoint anyway and assert it.
        for _ in 0..m.comb.len() + 1 {
            let mut changed = false;
            for c in &m.comb {
                let v = m.value(c, &w);
                if v != get_bit(&w, c.gate as usize) {
                    set_bit(&mut w, c.gate as usize, v);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        debug_assert!(m
            .comb
            .iter()
            .all(|c| m.value(c, &w) == get_bit(&w, c.gate as usize)));
        for f in 0..m.ffs.len() {
            self.refresh_ack(&mut w, f);
        }
        self.set_spec(&mut w, init);
        w
    }

    // -- canonical enabled-action enumeration -------------------------------

    /// Write the actions enabled in `w`, in canonical order, into `out`.
    /// `exc` (`comb_words` long) receives `w`'s excitation bitset.
    fn enabled_actions(&self, w: &[u64], exc: &mut [u64], out: &mut Vec<Action>) {
        let m = self.m;
        out.clear();
        m.excitation(w, exc);
        // Every flip-flop's bits, as masks over flip-flop indices (a
        // specification has at most 63 signals).
        let (mut pending, mut rising, mut enable, mut output, mut set, mut reset) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for (f, ff) in m.ffs.iter().enumerate() {
            let base = self.enable_bit(f);
            enable |= u64::from(get_bit(w, base)) << f;
            pending |= u64::from(get_bit(w, base + 1)) << f;
            rising |= u64::from(get_bit(w, base + 2)) << f;
            output |= u64::from(get_bit(w, ff.ff as usize)) << f;
            set |= u64::from(get_bit(w, ff.ack_set as usize)) << f;
            reset |= u64::from(get_bit(w, ff.ack_reset as usize)) << f;
        }
        // 1. Observable flip-flop fires.
        for f in ones(pending) {
            out.push(Action::Fire {
                ff: f as u16,
                rise: rising >> f & 1 == 1,
            });
        }
        // 2. Pulse commits (the opposite rail is structurally low: the two
        //    acknowledgement gates share one enable, so a conflict cannot
        //    reach the flip-flop — the guard mirrors `MhsCell` regardless).
        for f in ones(!pending & ((set & !reset & !output) | (reset & !set & output))) {
            out.push(Action::Commit {
                ff: f as u16,
                rise: set >> f & 1 == 1,
            });
        }
        // 3. Runt absorption (only with ω > 0, only while the pending
        //    pulse's rail is back low — a held-high rail must eventually
        //    fire).
        if m.absorption {
            for f in ones(pending & !((rising & set) | (!rising & reset))) {
                out.push(Action::Cancel { ff: f as u16 });
            }
        }
        // 4. Enable/feedback updates. The update that *opens* an
        //    acknowledgement gate waits for that SOP cone to settle (no
        //    gate of it excited) when the Eq. 1 assumption is in force.
        for f in ones(enable ^ output) {
            let ff = &m.ffs[f];
            let value = output >> f & 1 == 1;
            let opening = if value { &ff.reset_cone } else { &ff.set_cone };
            if !m.assume_delay_requirement || disjoint(exc, opening) {
                out.push(Action::Enable {
                    ff: f as u16,
                    value,
                });
            }
        }
        // 5. Excited combinational gates, in index order.
        for (i, &word) in exc.iter().enumerate() {
            for c in ones(word).map(|b| i * 64 + b) {
                let value = !get_bit(w, m.comb[c].gate as usize);
                out.push(Action::Gate {
                    comb: c as u32,
                    value,
                });
            }
        }
        // 6. Specification-enabled environment inputs, straight off the
        //    excitation mask (determinism gives one transition per signal;
        //    its direction is forced by the signal's current value).
        let spec = self.spec_of(w);
        for i in ones(m.sg.excited_mask(spec) & m.input_mask) {
            out.push(Action::Input {
                signal: i as u16,
                rise: !m.sg.value(spec, m.signal_ids[i]),
            });
        }
    }

    /// Write the successor of `w` under `action` into `nw`. Returns
    /// `Err(violation)` when the action is an observable fire the
    /// specification does not enable.
    fn apply(&self, w: &[u64], nw: &mut [u64], action: Action) -> Result<(), McViolation> {
        let m = self.m;
        nw.copy_from_slice(w);
        match action {
            Action::Input { signal, rise } => {
                let s = m.signal_ids[signal as usize];
                let net = m.signal_net[signal as usize] as usize;
                debug_assert_eq!(get_bit(nw, net), !rise);
                set_bit(nw, net, rise);
                let spec = self.spec_of(w);
                let label = TransitionLabel::new(s, Dir::to_value(rise));
                let next = m.sg.delta(spec, label).expect("enabled input transition");
                self.set_spec(nw, next);
            }
            Action::Gate { comb, value } => {
                let gate = m.comb[comb as usize].gate;
                set_bit(nw, gate as usize, value);
                for &(f, _) in &m.sop_readers[gate as usize] {
                    self.refresh_ack(nw, f as usize);
                }
            }
            Action::Commit { ff, rise } => {
                self.set_pending(nw, ff as usize, Some(rise));
            }
            Action::Cancel { ff } => {
                self.set_pending(nw, ff as usize, None);
            }
            Action::Enable { ff, value } => {
                set_bit(nw, self.enable_bit(ff as usize), value);
                self.refresh_ack(nw, ff as usize);
            }
            Action::Fire { ff, rise } => {
                let info = &m.ffs[ff as usize];
                let spec = self.spec_of(w);
                let label = TransitionLabel::new(info.signal, Dir::to_value(rise));
                match m.sg.delta(spec, label) {
                    Some(next) => {
                        set_bit(nw, info.ff as usize, rise);
                        self.set_pending(nw, ff as usize, None);
                        self.set_spec(nw, next);
                    }
                    None => {
                        return Err(McViolation::UnexpectedTransition {
                            signal: m.sg.signal_name(info.signal).to_string(),
                            rose: rise,
                            state_code: m.sg.code(spec),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    // -- dedupe -------------------------------------------------------------

    /// Record `w`, discovered from `parent`, unless it has been seen.
    /// Returns whether it is new.
    fn visit(&mut self, w: &[u64], parent: u32) -> bool {
        let h = hash(w);
        let Err(slot) = self.table.find(&self.arena, w, h) else {
            return false;
        };
        self.table.slots[slot] = self.table.code.encode(self.arena.push(w), h);
        self.parents.push(parent);
        if 2 * self.arena.len > self.table.slots.len() {
            self.table.grow(&self.arena);
        }
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.frontier());
        true
    }

    // -- trace reconstruction ----------------------------------------------

    fn describe(&self, action: Action) -> String {
        let m = self.m;
        match action {
            Action::Input { signal, rise } => {
                let name = m.sg.signal_name(m.signal_ids[signal as usize]);
                format!("{}{name} (environment)", if rise { '+' } else { '-' })
            }
            Action::Gate { comb, value } => {
                let gate = m.comb[comb as usize].gate;
                let name = m.nl.gate_name(m.nl.gate_id(gate as usize));
                format!("gate {name} -> {}", u8::from(value))
            }
            Action::Commit { ff, rise } => {
                let name = m.sg.signal_name(m.ffs[ff as usize].signal);
                format!(
                    "flip-flop {name} latches {} pulse",
                    if rise { "set" } else { "reset" }
                )
            }
            Action::Cancel { ff } => {
                let name = m.sg.signal_name(m.ffs[ff as usize].signal);
                format!("flip-flop {name} absorbs runt pulse")
            }
            Action::Enable { ff, value } => {
                let name = m.sg.signal_name(m.ffs[ff as usize].signal);
                format!("enable[{name}] := {}", u8::from(value))
            }
            Action::Fire { ff, rise } => {
                let name = m.sg.signal_name(m.ffs[ff as usize].signal);
                format!("{}{name}", if rise { '+' } else { '-' })
            }
        }
    }

    /// The action that discovered `child` from `parent`: the first, in
    /// canonical order, of the parent's enabled actions whose successor is
    /// `child`. Any earlier action of `parent` leading there would have
    /// discovered `child` itself.
    fn discovering_action(&self, parent: u32, child: u32) -> Action {
        let (w, target) = (self.arena.get(parent), self.arena.get(child));
        let mut enabled = Vec::new();
        self.enabled_actions(w, &mut vec![0; self.m.comb_words], &mut enabled);
        let mut next = vec![0u64; w.len()];
        enabled
            .into_iter()
            .find(|&a| self.apply(w, &mut next, a).is_ok() && next == target)
            .expect("a parent reaches its child")
    }

    fn trace_to(&self, id: u32, last: Option<Action>) -> (Vec<String>, Vec<(String, bool)>) {
        let mut path = vec![id];
        let mut cur = id;
        while self.parents[cur as usize] != NONE {
            cur = self.parents[cur as usize];
            path.push(cur);
        }
        path.reverse();
        let mut actions: Vec<Action> = path
            .windows(2)
            .map(|pair| self.discovering_action(pair[0], pair[1]))
            .collect();
        actions.extend(last);
        let steps = actions.iter().map(|&a| self.describe(a)).collect();
        let inputs = actions
            .iter()
            .filter_map(|&a| match a {
                Action::Input { signal, rise } => Some((
                    self.m
                        .sg
                        .signal_name(self.m.signal_ids[signal as usize])
                        .to_string(),
                    rise,
                )),
                _ => None,
            })
            .collect();
        (steps, inputs)
    }

    fn counterexample(&self, id: u32, last: Option<Action>, violation: McViolation) -> Verdict {
        let (steps, inputs) = self.trace_to(id, last);
        Verdict::Violated(Box::new(Counterexample {
            circuit: self.m.nl.name().to_string(),
            violation,
            steps,
            inputs,
        }))
    }

    fn certificate(&self, complete: bool) -> Certificate {
        let violation_checks = self
            .m
            .ffs
            .iter()
            .zip(&self.stats.violation_checks)
            .map(|(ff, &n)| (self.m.sg.signal_name(ff.signal).to_string(), n))
            .collect();
        Certificate {
            circuit: self.m.nl.name().to_string(),
            assumed_delay_requirement: self.m.assume_delay_requirement,
            complete,
            stats: ExplorationStats {
                states: self.arena.len as u64,
                edges: self.stats.edges,
                reopened: 0,
                max_depth: self.stats.max_depth,
                peak_frontier: self.stats.peak_frontier,
                final_frontier: self.frontier(),
                visited_bytes: self.visited_bytes(),
                max_states: self.max_states as u64,
                violation_checks,
            },
        }
    }

    /// Publish this run's totals as `nshot_mc_*` registry series: run and
    /// verdict counters, cumulative exploration counters, and high-water
    /// gauges. Called once per run, on every exit path.
    fn publish_registry(&self, verdict: &Verdict) {
        let r = Registry::global();
        r.counter("nshot_mc_runs_total").inc();
        r.counter("nshot_mc_states_total").add(self.arena.len as u64);
        r.counter("nshot_mc_edges_total").add(self.stats.edges);
        r.counter("nshot_mc_violation_checks_total")
            .add(self.stats.vchecks_total);
        // Create all three verdict labels eagerly so one scrape sees the
        // full family, then bump the one that happened.
        for label in ["budget_exceeded", "proved", "violated"] {
            let _ = r.counter(&format!("nshot_mc_verdicts_total{{verdict=\"{label}\"}}"));
        }
        let label = match verdict {
            Verdict::Proved(_) => "proved",
            Verdict::Violated(_) => "violated",
            Verdict::BudgetExceeded(_) => "budget_exceeded",
        };
        r.counter(&format!("nshot_mc_verdicts_total{{verdict=\"{label}\"}}"))
            .inc();
        r.gauge("nshot_mc_peak_frontier").raise(self.stats.peak_frontier);
        r.gauge("nshot_mc_max_depth").raise(self.stats.max_depth as u64);
        r.gauge("nshot_mc_visited_bytes").raise(self.visited_bytes());
    }

    // -- main loop ----------------------------------------------------------

    pub fn run(mut self) -> Verdict {
        let verdict = self.run_loop();
        // Final gauge refresh so the heartbeat's closing line carries the
        // end-of-run values, then the registry totals.
        self.publish_progress();
        self.publish_registry(&verdict);
        verdict
    }

    fn run_loop(&mut self) -> Verdict {
        let root = self.initial_words();
        self.visit(&root, NONE);

        // The state being expanded, its successors and its enabled actions
        // are written into these; only new states are copied out.
        let mut words = root;
        let mut next = vec![0u64; words.len()];
        let mut exc = vec![0u64; self.m.comb_words];
        let mut enabled = Vec::new();
        // BFS depth of the state being expanded, and the id where its
        // level ends: every state of a level is discovered before the
        // first of them is expanded.
        let (mut depth, mut level_end) = (0u32, 1usize);
        while self.next < self.arena.len {
            if self.next == level_end {
                depth += 1;
                level_end = self.arena.len;
            }
            let id = self.next as u32;
            self.next += 1;
            words.copy_from_slice(self.arena.get(id));
            self.enabled_actions(&words, &mut exc, &mut enabled);
            if enabled.is_empty() {
                // Quiescent and environment-blocked: if the specification
                // still expects an output, the circuit has deadlocked.
                let spec = self.spec_of(&words);
                let expected: Vec<String> = self
                    .m
                    .sg
                    .successors(spec)
                    .iter()
                    .filter(|(l, _)| self.m.sg.signal_kind(l.signal) != nshot_sg::SignalKind::Input)
                    .map(|(l, _)| self.m.sg.label_string(*l))
                    .collect();
                if !expected.is_empty() {
                    return self.counterexample(
                        id,
                        None,
                        McViolation::Deadlock {
                            state_code: self.m.sg.code(spec),
                            expected,
                        },
                    );
                }
                continue;
            }
            for &action in &enabled {
                if let Some(v) = self.step(id, depth, &words, &mut next, action) {
                    return v;
                }
                if self.arena.len >= self.max_states {
                    return Verdict::BudgetExceeded(self.certificate(false));
                }
            }
        }
        Verdict::Proved(self.certificate(true))
    }

    /// Generate one successor; returns a verdict only on a violation.
    fn step(
        &mut self,
        id: u32,
        depth: u32,
        words: &[u64],
        next: &mut [u64],
        action: Action,
    ) -> Option<Verdict> {
        self.stats.edges += 1;
        if let Action::Fire { ff, .. } = action {
            self.stats.violation_checks[ff as usize] += 1;
            self.stats.vchecks_total += 1;
        }
        // Refresh the heartbeat gauges every 4096 edges — off the hot
        // path entirely when progress is disabled.
        if self.progress.is_some() && self.stats.edges & 0xFFF == 0 {
            self.publish_progress();
        }
        if let Err(violation) = self.apply(words, next, action) {
            return Some(self.counterexample(id, Some(action), violation));
        }
        if self.visit(next, id) {
            self.stats.max_depth = self.stats.max_depth.max(depth + 1);
        }
        None
    }
}
