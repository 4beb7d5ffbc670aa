//! `assassin` — the command-line face of the synthesis flow, named after
//! the compiler the paper's method was automated in.
//!
//! ```text
//! assassin check <file>                       analyse a specification
//! assassin synth <file> [options]             synthesize an N-SHOT circuit
//!     --exact          use the exact minimizer
//!     --no-share       disable product-term sharing
//!     --fix-csc        repair CSC violations by state-signal insertion
//!     --report         print the full synthesis report (covers, PLA, Eq. 1)
//!     --verilog <out>  write structural Verilog
//!     --blif <out>     write BLIF (the SIS interchange format)
//!     --dot <out>      write the SG with regions highlighted as DOT
//!     --netlist        print the netlist
//! assassin simulate <file> [options]          validate by simulation
//!     --trials <n>     Monte-Carlo trials (default 10)
//!     --transitions <n>  per trial (default 200)
//!     --vcd <out>      write a waveform of the first trial
//! assassin bench <name>                       run one Table 2 circuit
//! assassin suite                              list the benchmark suite
//! ```
//!
//! Specification files may be Signal Transition Graphs in the `.g` format
//! (detected by a `.graph` section) or state graphs in the SG text format.

use nshot::core::{synthesize, SynthesisOptions};
use nshot::sg::StateGraph;
use nshot::sim::{check_conformance_traced, monte_carlo, ConformanceConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&args);
    // Drain any buffered NSHOT_TRACE span lines before the process exits.
    nshot_obs::flush_trace();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("assassin: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("usage: assassin <check|synth|simulate|bench|suite> …".into());
    };
    match command.as_str() {
        "check" => check(args.get(1).ok_or("check needs a file")?),
        "synth" => synth(args.get(1).ok_or("synth needs a file")?, &args[2..]),
        "simulate" => simulate(args.get(1).ok_or("simulate needs a file")?, &args[2..]),
        "bench" => bench(args.get(1).ok_or("bench needs a circuit name")?),
        "suite" => {
            for b in nshot::benchmarks::suite() {
                println!(
                    "{:<15} {:>5} states  {}  ({:?})",
                    b.name,
                    b.paper_states,
                    if b.distributive {
                        "distributive    "
                    } else {
                        "non-distributive"
                    },
                    b.provenance
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn load(path: &str) -> Result<StateGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    nshot::server::load_spec(&text).map_err(|e| format!("{path}: {e}"))
}

fn check(path: &str) -> Result<(), String> {
    let sg = load(path)?;
    println!("specification '{}':", sg.name());
    println!("  signals:          {}", sg.num_signals());
    println!(
        "  inputs/outputs:   {}/{}",
        sg.input_signals().count(),
        sg.non_input_signals().count()
    );
    println!("  states:           {}", sg.reachable().len());
    match sg.check_csc() {
        Ok(()) => println!("  CSC:              ok"),
        Err(v) => println!("  CSC:              VIOLATED ({} state pairs)", v.len()),
    }
    match sg.check_semi_modular() {
        Ok(()) => println!("  semi-modular:     ok"),
        Err(v) => println!("  semi-modular:     VIOLATED ({} diamonds)", v.len()),
    }
    let nd = sg.non_distributive_signals();
    if nd.is_empty() {
        println!("  distributive:     yes");
    } else {
        let names: Vec<&str> = nd.iter().map(|&s| sg.signal_name(s)).collect();
        println!("  distributive:     no (detonant w.r.t. {})", names.join(", "));
    }
    println!("  single traversal: {}", sg.is_single_traversal());
    for a in sg.non_input_signals() {
        let regions = sg.regions_of(a);
        println!(
            "  signal {:<10} {} ER / {} TR (largest TR: {} states)",
            sg.signal_name(a),
            regions.excitation.len(),
            regions.triggers.len(),
            regions.triggers.iter().map(|t| t.states.len()).max().unwrap_or(0)
        );
    }
    Ok(())
}

fn synth(path: &str, flags: &[String]) -> Result<(), String> {
    let mut sg = load(path)?;
    if has_flag(flags, "--fix-csc") && sg.check_csc().is_err() {
        sg = sg.resolve_csc(3).map_err(|e| e.to_string())?;
        println!(
            "CSC repaired with {} inserted state signal(s)",
            sg.signal_ids()
                .filter(|&s| sg.signal_name(s).starts_with("csc"))
                .count()
        );
    }
    let mut options = SynthesisOptions::default();
    if has_flag(flags, "--exact") {
        options.minimizer = nshot::core::Minimizer::Exact;
    }
    if has_flag(flags, "--no-share") {
        options.share_products = false;
    }
    let imp = synthesize(&sg, &options).map_err(|e| e.to_string())?;
    println!(
        "synthesized '{}': {} units, {:.1} ns critical path, {} product terms",
        imp.name,
        imp.area,
        imp.delay_ns,
        imp.product_terms()
    );
    for s in &imp.signals {
        println!(
            "  {:<10} set = {:<20} reset = {:<20} init = {:?}{}",
            s.name,
            s.set_cover.to_string(),
            s.reset_cover.to_string(),
            s.init,
            if s.delay.needs_delay_line() {
                format!(" t_del = {:.2} ns", s.delay.t_del_ns)
            } else {
                String::new()
            }
        );
    }
    if has_flag(flags, "--netlist") {
        println!("\n{}", imp.netlist);
    }
    if has_flag(flags, "--report") {
        println!("\n{}", imp.report(&sg));
    }
    if let Some(out) = flag_value(flags, "--blif") {
        std::fs::write(&out, imp.netlist.to_blif()).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote BLIF to {out}");
    }
    if let Some(out) = flag_value(flags, "--verilog") {
        std::fs::write(&out, imp.netlist.to_verilog()).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote Verilog to {out}");
    }
    if let Some(out) = flag_value(flags, "--dot") {
        let highlight = sg.non_input_signals().next();
        std::fs::write(&out, sg.to_dot_highlighting(highlight))
            .map_err(|e| format!("{out}: {e}"))?;
        println!("wrote DOT to {out}");
    }
    Ok(())
}

fn simulate(path: &str, flags: &[String]) -> Result<(), String> {
    let sg = load(path)?;
    let imp = synthesize(&sg, &SynthesisOptions::default()).map_err(|e| e.to_string())?;
    let trials: usize = flag_value(flags, "--trials")
        .map(|v| v.parse().map_err(|_| "--trials needs a number"))
        .transpose()?
        .unwrap_or(10);
    let transitions: usize = flag_value(flags, "--transitions")
        .map(|v| v.parse().map_err(|_| "--transitions needs a number"))
        .transpose()?
        .unwrap_or(200);
    let config = ConformanceConfig {
        max_transitions: transitions,
        ..ConformanceConfig::default()
    };
    if let Some(out) = flag_value(flags, "--vcd") {
        let (report, wave) = check_conformance_traced(&sg, &imp, &config);
        std::fs::write(&out, wave.to_vcd()).map_err(|e| format!("{out}: {e}"))?;
        println!(
            "traced trial: {} transitions, hazard-free = {}; wrote {out}",
            report.transitions,
            report.is_hazard_free()
        );
    }
    let summary = monte_carlo(&sg, &imp, &config, trials);
    println!(
        "monte carlo: {}/{} clean trials, {} transitions exercised",
        summary.clean_trials, summary.trials, summary.total_transitions
    );
    if let Some(fail) = &summary.first_failure {
        println!("first failure: {:?}", fail.violations.first());
        return Err("hazard violations found".into());
    }
    Ok(())
}

fn bench(name: &str) -> Result<(), String> {
    let b = nshot::benchmarks::by_name(name)
        .ok_or_else(|| format!("unknown benchmark '{name}' (try `assassin suite`)"))?;
    let row = nshot_bench_row(&b);
    println!("{row}");
    Ok(())
}

fn nshot_bench_row(b: &nshot::benchmarks::Benchmark) -> String {
    use nshot::baselines::{sis, syn};
    let sg = b.build();
    let model = nshot::netlist::DelayModel::nominal();
    let fmt = |r: Result<(u32, f64), String>| match r {
        Ok((a, d)) => format!("{a}/{d:.1}"),
        Err(note) => note,
    };
    let sis_cell = if b.sg_format_only {
        Err("(4)".to_owned())
    } else {
        sis(&sg, &model)
            .map(|i| (i.area, i.delay_ns))
            .map_err(|_| "(1)".to_owned())
    };
    let syn_cell = syn(&sg, &model)
        .map(|i| (i.area, i.delay_ns))
        .map_err(|_| "(1)/(2)".to_owned());
    let nshot = synthesize(&sg, &SynthesisOptions::default()).expect("suite synthesizes");
    format!(
        "{:<15} {:>6} states | SIS {:>9} | SYN {:>9} | ASSASSIN {:>9} | paper ASSASSIN {}/{:.1}",
        b.name,
        sg.reachable().len(),
        fmt(sis_cell),
        fmt(syn_cell),
        fmt(Ok((nshot.area, nshot.delay_ns))),
        b.paper_assassin.0,
        b.paper_assassin.1,
    )
}

fn has_flag(flags: &[String], name: &str) -> bool {
    flags.iter().any(|f| f == name)
}

fn flag_value(flags: &[String], name: &str) -> Option<String> {
    flags
        .iter()
        .position(|f| f == name)
        .and_then(|i| flags.get(i + 1))
        .cloned()
}
