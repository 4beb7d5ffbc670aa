//! Harness regenerating every table and figure of the paper.
//!
//! * [`run_table2`] — the main experiment: area/delay for the SIS-like and
//!   SYN-like baselines versus the N-SHOT (ASSASSIN) flow over the
//!   25-circuit suite, with the paper's footnote behaviour reproduced;
//! * [`table2_text`] — renders the rows side by side with the paper's
//!   figures;
//! * [`run_table1`] — the region ↔ MHS-mode correspondence on a concrete
//!   specification;
//! * [`run_validation`] — the Monte-Carlo external-hazard-freeness check
//!   (the claim the whole paper is about);
//! * figure generators in [`figures`].
//!
//! Binaries: `table2`, `tables`, `figures`, `validate`.

pub mod figures;
pub mod telemetry;

use nshot_baselines::{sis, syn, BaselineError};
use nshot_benchmarks::{suite, Benchmark, PaperNote};
use nshot_core::{synthesize, NshotImplementation, SynthesisOptions};
use nshot_netlist::DelayModel;
use nshot_sg::StateGraph;
use nshot_sim::{monte_carlo, ConformanceConfig, MonteCarloSummary};

/// One measured Table 2 cell.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Measured area (library units) and delay (ns).
    Value(u32, f64),
    /// The method refused, with the matching Table 2 footnote.
    Note(PaperNote),
}

impl Cell {
    /// Table cell rendering, e.g. `352/5.2` or `(1)`.
    pub fn render(&self) -> String {
        match self {
            Cell::Value(a, d) => format!("{a}/{d:.1}"),
            Cell::Note(n) => match n {
                PaperNote::NonDistributive => "(1)".into(),
                PaperNote::NeedsStateSignals => "(2)".into(),
                PaperNote::LaterVersion => "(3)".into(),
                PaperNote::SgFormat => "(4)".into(),
            },
        }
    }
}

/// One measured Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Circuit name.
    pub name: String,
    /// Paper's state count.
    pub paper_states: usize,
    /// Our rebuilt specification's state count.
    pub states: usize,
    /// Measured SIS-like result.
    pub sis: Cell,
    /// Measured SYN-like result.
    pub syn: Cell,
    /// Measured N-SHOT result.
    pub assassin: Cell,
    /// Whether Eq. 1 demanded a delay line anywhere (paper: never).
    pub delay_compensation: bool,
    /// The benchmark metadata (paper cells for comparison).
    pub benchmark: Benchmark,
}

fn baseline_cell<T>(result: Result<T, BaselineError>, extract: impl Fn(&T) -> (u32, f64)) -> Cell {
    match result {
        Ok(imp) => {
            let (a, d) = extract(&imp);
            Cell::Value(a, d)
        }
        Err(BaselineError::NonDistributive { .. }) => Cell::Note(PaperNote::NonDistributive),
        Err(BaselineError::NeedsStateSignals { .. }) => Cell::Note(PaperNote::NeedsStateSignals),
        Err(e) => panic!("baseline failed unexpectedly: {e}"),
    }
}

/// Run the full Table 2 experiment on one benchmark.
///
/// # Panics
///
/// Panics if N-SHOT synthesis fails (it must succeed on every suite entry —
/// that is Theorem 2).
pub fn run_table2_row(benchmark: &Benchmark, model: &DelayModel) -> Table2Row {
    let sg = benchmark.build();
    let states = sg.reachable().len();
    let sis_cell = if benchmark.sg_format_only {
        // Note (4): the SIS frontend cannot read SG-format inputs.
        Cell::Note(PaperNote::SgFormat)
    } else {
        baseline_cell(sis(&sg, model), |i| (i.area, i.delay_ns))
    };
    let syn_cell = baseline_cell(syn(&sg, model), |i| (i.area, i.delay_ns));
    let nshot = synthesize(&sg, &SynthesisOptions::default())
        .unwrap_or_else(|e| panic!("{}: N-SHOT synthesis failed: {e}", benchmark.name));
    Table2Row {
        name: benchmark.name.to_owned(),
        paper_states: benchmark.paper_states,
        states,
        sis: sis_cell,
        syn: syn_cell,
        assassin: Cell::Value(nshot.area, nshot.delay_ns),
        delay_compensation: !nshot.delay_compensation_free(),
        benchmark: benchmark.clone(),
    }
}

/// Run Table 2 over the whole suite (or a filtered subset).
pub fn run_table2(filter: Option<&str>, model: &DelayModel) -> Vec<Table2Row> {
    suite()
        .iter()
        .filter(|b| filter.is_none_or(|f| b.name.contains(f)))
        .map(|b| run_table2_row(b, model))
        .collect()
}

/// Render measured rows next to the paper's figures.
pub fn table2_text(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<15} {:>6} {:>6} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}\n",
        "circuit", "states", "paper", "SIS", "SYN", "ASSASSIN", "SIS*", "SYN*", "ASSASSIN*"
    ));
    out.push_str(&format!(
        "{:<15} {:>6} {:>6} | {:^32} | {:^32}\n",
        "", "(ours)", "", "measured (this reproduction)", "paper (DAC'95)"
    ));
    out.push_str(&"-".repeat(103));
    out.push('\n');
    let paper_cell = |c: &nshot_benchmarks::PaperCell| match c {
        Ok((a, d)) => format!("{a}/{d:.1}"),
        Err(PaperNote::NonDistributive) => "(1)".into(),
        Err(PaperNote::NeedsStateSignals) => "(2)".into(),
        Err(PaperNote::LaterVersion) => "(3)".into(),
        Err(PaperNote::SgFormat) => "(4)".into(),
    };
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:>6} {:>6} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}\n",
            r.name,
            r.states,
            r.paper_states,
            r.sis.render(),
            r.syn.render(),
            r.assassin.render(),
            paper_cell(&r.benchmark.paper_sis),
            paper_cell(&r.benchmark.paper_syn),
            format!(
                "{}/{:.1}",
                r.benchmark.paper_assassin.0, r.benchmark.paper_assassin.1
            ),
        ));
    }
    out.push_str(&"-".repeat(103));
    out.push('\n');
    out.push_str(
        "(1) non-distributive SG   (2) must add state signals   (3) latest version only   (4) SG-format input\n",
    );
    let comp = rows.iter().filter(|r| r.delay_compensation).count();
    out.push_str(&format!(
        "Eq. 1 delay compensation required on {comp} of {} circuits (paper: never required).\n",
        rows.len()
    ));
    out
}

/// Render Table 1 (region ↔ MHS operation modes) for every non-input signal
/// of a specification.
pub fn run_table1(sg: &StateGraph) -> String {
    let mut out = String::new();
    for a in sg.non_input_signals() {
        let spec = nshot_core::SetResetSpec::derive(sg, a);
        out.push_str(&format!(
            "signal {}:\n  {:<12} {:>3} {:>5}  mode\n",
            sg.signal_name(a),
            "state",
            "SET",
            "RESET"
        ));
        for &s in sg.reachable() {
            let (set, reset, mode) = spec.table1_row(sg, s);
            out.push_str(&format!(
                "  {:<12} {:>3} {:>5}  {}\n",
                sg.code_string(s),
                set,
                reset,
                mode
            ));
        }
    }
    out
}

/// Monte-Carlo external-hazard-freeness validation of one benchmark.
///
/// # Panics
///
/// Panics if synthesis fails.
pub fn run_validation(
    benchmark: &Benchmark,
    trials: usize,
    transitions: usize,
) -> (NshotImplementation, MonteCarloSummary) {
    let sg = benchmark.build();
    let imp = synthesize(&sg, &SynthesisOptions::default())
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", benchmark.name));
    let config = ConformanceConfig {
        max_transitions: transitions,
        ..ConformanceConfig::default()
    };
    let summary = monte_carlo(&sg, &imp, &config, trials);
    (imp, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_for_full() {
        let b = nshot_benchmarks::by_name("full").unwrap();
        let row = run_table2_row(&b, &DelayModel::nominal());
        assert_eq!(row.states, 16);
        let Cell::Value(area, delay) = row.assassin else {
            panic!("N-SHOT always produces a value");
        };
        assert!(area > 0 && delay > 0.0);
        assert!(matches!(row.sis, Cell::Value(..)));
        assert!(matches!(row.syn, Cell::Value(..)));
        assert!(!row.delay_compensation);
    }

    #[test]
    fn table2_notes_for_non_distributive() {
        let b = nshot_benchmarks::by_name("pmcm2").unwrap();
        let row = run_table2_row(&b, &DelayModel::nominal());
        assert!(matches!(row.sis, Cell::Note(PaperNote::NonDistributive)));
        assert!(matches!(row.syn, Cell::Note(PaperNote::NonDistributive)));
        assert!(matches!(row.assassin, Cell::Value(..)));
    }

    #[test]
    fn sg_format_note_is_reproduced() {
        let b = nshot_benchmarks::by_name("tsbmsi").unwrap();
        assert!(b.sg_format_only);
        // Only check the cell logic, not the full (expensive) run.
        let cell = if b.sg_format_only {
            Cell::Note(PaperNote::SgFormat)
        } else {
            Cell::Value(0, 0.0)
        };
        assert_eq!(cell.render(), "(4)");
    }

    #[test]
    fn table1_text_contains_all_modes() {
        let b = nshot_benchmarks::by_name("pmcm2").unwrap();
        let text = run_table1(&b.build());
        assert!(text.contains("+c"));
        assert!(text.contains("-c"));
        assert!(text.contains("c = 1"));
        assert!(text.contains("c = 0"));
    }

    #[test]
    fn validation_of_a_medium_benchmark() {
        let b = nshot_benchmarks::by_name("chu133").unwrap();
        let (_, summary) = run_validation(&b, 3, 80);
        assert!(summary.all_clean(), "{:?}", summary.first_failure);
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;

    #[test]
    fn table2_text_renders_measured_and_paper_columns() {
        let b = nshot_benchmarks::by_name("full").unwrap();
        let rows = vec![run_table2_row(&b, &DelayModel::nominal())];
        let text = table2_text(&rows);
        assert!(text.contains("circuit"));
        assert!(text.contains("full"));
        assert!(text.contains("224/5.2"), "paper SIS cell present");
        assert!(text.contains("240/4.8"), "paper SYN cell present");
        assert!(text.contains("delay compensation required on 0 of 1"));
    }

    #[test]
    fn note_cells_render_footnotes() {
        assert_eq!(Cell::Note(PaperNote::NonDistributive).render(), "(1)");
        assert_eq!(Cell::Note(PaperNote::NeedsStateSignals).render(), "(2)");
        assert_eq!(Cell::Note(PaperNote::LaterVersion).render(), "(3)");
        assert_eq!(Cell::Note(PaperNote::SgFormat).render(), "(4)");
        assert_eq!(Cell::Value(352, 5.25).render(), "352/5.2");
    }
}
