//! Breadth-first exhaustive exploration of the composed circuit ×
//! environment transition system.
//!
//! States are packed bit vectors (net values ‖ per-flip-flop enable +
//! pending bits ‖ specification state) deduplicated through an
//! [`FxHashSet`] of the full packed words. Exploration is plain BFS: every
//! enabled action is explored from every state, and each state is expanded
//! once, in discovery order, off a FIFO queue that shares each state's
//! allocation with the set, so the first violation found is depth-minimal.
//! A state's id is its discovery index; `meta` holds its parent link.
//! The canonical successor order (flip-flop fires, commits, cancels, enable
//! updates, gate fires in index order, environment inputs in specification
//! order) makes the result a pure function of the model — identical
//! counterexample and certificate bytes at any `NSHOT_THREADS` value, since
//! the explorer is sequential by design (parallelism lives one level up,
//! across circuits).

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use nshot_obs::{Gauge, Progress, Registry};
use nshot_par::FxHashSet;
use nshot_sg::{Dir, TransitionLabel};

use crate::model::{CombGate, CombOp, Model};
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

struct Meta {
    parent: u32,
    action: Action,
    depth: u32,
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
    /// Every discovered state.
    seen: FxHashSet<Rc<[u64]>>,
    /// Discovered states not yet expanded, in discovery order.
    frontier: VecDeque<Rc<[u64]>>,
    /// Parent link and depth, indexed by state id (discovery order).
    meta: Vec<Meta>,
    stats: Stats,
    progress: Option<ProgressGauges>,
}

// --- packed-state bit accessors -------------------------------------------

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
            seen: FxHashSet::default(),
            frontier: VecDeque::new(),
            meta: Vec::new(),
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

    /// Deterministic visited-set memory estimate, per state: the packed
    /// words and their two reference counts, the set's slot and the BFS
    /// metadata.
    fn visited_bytes(&self) -> u64 {
        let per_state = self.m.state_words() * 8
            + 2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<Rc<[u64]>>()
            + std::mem::size_of::<Meta>();
        (self.meta.len() * per_state) as u64
    }

    /// States discovered but not yet expanded.
    fn frontier(&self) -> u64 {
        self.frontier.len() as u64
    }

    #[cold]
    fn publish_progress(&self) {
        let Some(g) = &self.progress else { return };
        g.states.set(self.meta.len() as u64);
        g.edges.set(self.stats.edges);
        g.frontier.set(self.frontier());
        g.frontier_peak.set(self.stats.peak_frontier);
        g.depth.set(self.stats.max_depth as u64);
        g.visited_bytes.set(self.visited_bytes());
        g.budget_pct
            .set(self.meta.len() as u64 * 100 / self.max_states.max(1) as u64);
        g.violation_checks.set(self.stats.vchecks_total);
    }

    // -- state layout -------------------------------------------------------

    fn enable_bit(&self, ff: usize) -> usize {
        self.m.net_words * 64 + 3 * ff
    }

    fn pending_of(&self, w: &[u64], ff: usize) -> Option<bool> {
        let base = self.enable_bit(ff);
        if get_bit(w, base + 1) {
            Some(get_bit(w, base + 2))
        } else {
            None
        }
    }

    fn set_pending(&self, w: &mut [u64], ff: usize, p: Option<bool>) {
        let base = self.enable_bit(ff);
        set_bit(w, base + 1, p.is_some());
        set_bit(w, base + 2, p.unwrap_or(false));
    }

    fn spec_of(&self, w: &[u64]) -> nshot_sg::StateId {
        let idx = w[self.m.net_words + self.m.ff_words] as usize;
        self.m
            .sg
            .state_ids()
            .nth(idx)
            .expect("packed spec state index in range")
    }

    fn set_spec(&self, w: &mut [u64], s: nshot_sg::StateId) {
        w[self.m.net_words + self.m.ff_words] = s.index() as u64;
    }

    fn eval_comb(&self, w: &[u64], c: &CombGate) -> bool {
        match c.op {
            CombOp::And => c.inputs.iter().all(|&(n, inv)| get_bit(w, n as usize) ^ inv),
            CombOp::Or => c.inputs.iter().any(|&(n, _)| get_bit(w, n as usize)),
            CombOp::Not => !get_bit(w, c.inputs[0].0 as usize),
        }
    }

    fn excited(&self, w: &[u64], comb: u32) -> bool {
        let c = &self.m.comb[comb as usize];
        self.eval_comb(w, c) != get_bit(w, c.gate as usize)
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

    fn settled(&self, w: &[u64], cone: &[u32]) -> bool {
        cone.iter().all(|&c| !self.excited(w, c))
    }

    // -- initial state ------------------------------------------------------

    fn initial_words(&self) -> Rc<[u64]> {
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
                let v = self.eval_comb(&w, c);
                if v != get_bit(&w, c.gate as usize) {
                    set_bit(&mut w, c.gate as usize, v);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        debug_assert!((0..m.comb.len()).all(|c| !self.excited(&w, c as u32)));
        for f in 0..m.ffs.len() {
            self.refresh_ack(&mut w, f);
        }
        self.set_spec(&mut w, init);
        w.into()
    }

    // -- canonical enabled-action enumeration -------------------------------

    fn enabled_actions(&self, w: &[u64]) -> Vec<Action> {
        let m = self.m;
        let mut out = Vec::new();
        // 1. Observable flip-flop fires.
        for f in 0..m.ffs.len() {
            if let Some(rise) = self.pending_of(w, f) {
                out.push(Action::Fire { ff: f as u16, rise });
            }
        }
        // 2. Pulse commits (the opposite rail is structurally low: the two
        //    acknowledgement gates share one enable, so a conflict cannot
        //    reach the flip-flop — the guard mirrors `MhsCell` regardless).
        for (f, ff) in m.ffs.iter().enumerate() {
            if self.pending_of(w, f).is_some() {
                continue;
            }
            let out_v = get_bit(w, ff.ff as usize);
            let set = get_bit(w, ff.ack_set as usize);
            let reset = get_bit(w, ff.ack_reset as usize);
            if set && !reset && !out_v {
                out.push(Action::Commit { ff: f as u16, rise: true });
            }
            if reset && !set && out_v {
                out.push(Action::Commit { ff: f as u16, rise: false });
            }
        }
        // 3. Runt absorption (only with ω > 0, only while the rail is back
        //    low — a held-high rail must eventually fire).
        if m.absorption {
            for (f, ff) in m.ffs.iter().enumerate() {
                if let Some(rise) = self.pending_of(w, f) {
                    let rail = if rise { ff.ack_set } else { ff.ack_reset };
                    if !get_bit(w, rail as usize) {
                        out.push(Action::Cancel { ff: f as u16 });
                    }
                }
            }
        }
        // 4. Enable/feedback updates. The update that *opens* an
        //    acknowledgement gate waits for that SOP cone to settle when the
        //    Eq. 1 assumption is in force.
        for (f, ff) in m.ffs.iter().enumerate() {
            let e = get_bit(w, self.enable_bit(f));
            let out_v = get_bit(w, ff.ff as usize);
            if e != out_v {
                let opening = if out_v { &ff.reset_cone } else { &ff.set_cone };
                if !m.assume_delay_requirement || self.settled(w, opening) {
                    out.push(Action::Enable { ff: f as u16, value: out_v });
                }
            }
        }
        // 5. Excited combinational gates, in gate-index order.
        for c in 0..m.comb.len() as u32 {
            if self.excited(w, c) {
                let value = !get_bit(w, m.comb[c as usize].gate as usize);
                out.push(Action::Gate { comb: c, value });
            }
        }
        // 6. Specification-enabled environment inputs, straight off the
        //    excitation mask (determinism gives one transition per signal;
        //    its direction is forced by the signal's current value).
        let spec = self.spec_of(w);
        let mut inputs = m.sg.excited_mask(spec) & !m.sg.non_input_mask();
        while inputs != 0 {
            let i = inputs.trailing_zeros() as usize;
            inputs &= inputs - 1;
            out.push(Action::Input {
                signal: i as u16,
                rise: !m.sg.value(spec, m.signal_ids[i]),
            });
        }
        out
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

    /// Record a newly discovered state: one allocation, shared by the
    /// visited set and the queue.
    fn insert(&mut self, w: Rc<[u64]>, meta: Meta) {
        self.seen.insert(Rc::clone(&w));
        self.frontier.push_back(w);
        self.stats.max_depth = self.stats.max_depth.max(meta.depth);
        self.meta.push(meta);
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.frontier());
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

    fn trace_to(&self, id: u32, last: Option<Action>) -> (Vec<String>, Vec<(String, bool)>) {
        let mut actions = Vec::new();
        let mut cur = id;
        while cur != u32::MAX {
            let meta = &self.meta[cur as usize];
            if meta.parent == u32::MAX {
                break;
            }
            actions.push(meta.action);
            cur = meta.parent;
        }
        actions.reverse();
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
                states: self.meta.len() as u64,
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
        r.counter("nshot_mc_states_total").add(self.meta.len() as u64);
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
        self.insert(
            root,
            Meta {
                parent: u32::MAX,
                action: Action::Cancel { ff: 0 }, // unused sentinel at the root
                depth: 0,
            },
        );

        // Successors are written here; only new states are copied out.
        let mut next = vec![0u64; self.m.state_words()];
        while let Some(words) = self.frontier.pop_front() {
            let id = (self.meta.len() - self.frontier.len() - 1) as u32;
            let depth = self.meta[id as usize].depth;
            let enabled = self.enabled_actions(&words);
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
            for action in enabled {
                if let Some(v) = self.step(id, depth, &words, &mut next, action) {
                    return v;
                }
                if self.meta.len() >= self.max_states {
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
        if !self.seen.contains(&*next) {
            self.insert(
                Rc::from(&*next),
                Meta {
                    parent: id,
                    action,
                    depth: depth + 1,
                },
            );
        }
        None
    }
}
