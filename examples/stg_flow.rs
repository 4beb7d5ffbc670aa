//! The classic front-end flow: a Signal Transition Graph in the `.g`
//! interchange format, elaborated to a state graph by the token game, then
//! synthesized and compared across all three methods.
//!
//! Run with: `cargo run --example stg_flow`

use nshot::baselines::{sis, syn};
use nshot::core::{synthesize, SynthesisOptions};
use nshot::netlist::DelayModel;
use nshot::stg::parse_stg;

/// A two-stage micropipeline control: `rin` requests, stage outputs `s0`,
/// `s1` propagate, `aout` acknowledges from the right environment.
const PIPELINE_G: &str = "
.model micropipeline
.inputs rin aout
.outputs s0 s1
.graph
rin+ s0+
s0+ s1+
s1+ aout+ rin-
rin- s0-
aout+ s1-
s0- s1-/ignore
.marking { <s1-,rin+> }
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The sloppy first attempt fails structurally — errors are diagnosed,
    // not panicked on.
    match parse_stg(PIPELINE_G).map(|stg| stg.elaborate()) {
        Ok(Ok(_)) => println!("(unexpectedly consistent)"),
        Ok(Err(e)) => println!("elaboration rejected the sketch: {e}"),
        Err(e) => println!("parser rejected the sketch: {e}"),
    }

    // A clean four-phase handshake pair instead.
    let stg = parse_stg(
        ".model latch-ctl\n.inputs rin\n.outputs aout lt\n.graph\nrin+ lt+\nlt+ aout+\naout+ rin-\nrin- lt-\nlt- aout-\naout- rin+\n.marking { <aout-,rin+> }\n.end",
    )?;
    println!(
        "\nparsed '{}': {} transitions, {} places",
        stg.name(),
        stg.num_transitions(),
        stg.num_places()
    );
    let sg = stg.elaborate()?;
    println!(
        "elaborated to {} states over {} signals; CSC = {}, distributive = {}",
        sg.num_states(),
        sg.num_signals(),
        sg.check_csc().is_ok(),
        sg.is_distributive()
    );

    let model = DelayModel::nominal();
    let nshot = synthesize(&sg, &SynthesisOptions::default())?;
    let sis_imp = sis(&sg, &model)?;
    let syn_imp = syn(&sg, &model)?;
    println!("\nmethod comparison (area units / ns):");
    println!("  SIS-like  {:>5} / {:.1}", sis_imp.area, sis_imp.delay_ns);
    println!("  SYN-like  {:>5} / {:.1}", syn_imp.area, syn_imp.delay_ns);
    println!("  N-SHOT    {:>5} / {:.1}", nshot.area, nshot.delay_ns);

    // Round-trip: the elaborated SG serializes to the SG text format too.
    let text = sg.to_text();
    let back = nshot::sg::parse_sg(&text)?;
    assert_eq!(back.num_states(), sg.num_states());
    println!("\nSG text round-trip OK ({} states)", back.num_states());
    Ok(())
}
