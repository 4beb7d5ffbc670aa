//! End-to-end integration: STG text → state graph → N-SHOT synthesis →
//! gate-level conformance, across specification styles.

use nshot::core::{synthesize, verify_covers, SynthesisOptions};
use nshot::sim::{check_conformance, monte_carlo, ConformanceConfig};
use nshot::stg::parse_stg;

#[test]
fn stg_to_validated_circuit() {
    let stg = parse_stg(
        ".model latch-ctl\n.inputs rin\n.outputs lt aout\n.graph\nrin+ lt+\nlt+ aout+\naout+ rin-\nrin- lt-\nlt- aout-\naout- rin+\n.marking { <aout-,rin+> }\n.end",
    )
    .expect("parses");
    let sg = stg.elaborate().expect("elaborates");
    assert_eq!(sg.num_states(), 6);
    let imp = synthesize(&sg, &SynthesisOptions::default()).expect("synthesizes");
    for s in &imp.signals {
        verify_covers(&sg, s.signal, &s.set_cover, &s.reset_cover).expect("covers verify");
    }
    let report = check_conformance(&sg, &imp, &ConformanceConfig::default());
    assert!(report.is_hazard_free(), "{:?}", report.violations);
}

#[test]
fn concurrent_stg_with_choice() {
    // Free input choice with per-branch output occurrences.
    let stg = parse_stg(
        ".model choice\n.inputs a b\n.outputs c\n.graph\np0 a+ b+\na+ c+\nb+ c+/2\nc+ a-\nc+/2 b-\na- c-\nb- c-/2\nc- p0\nc-/2 p0\n.marking { p0 }\n.end",
    )
    .expect("parses");
    let sg = stg.elaborate().expect("elaborates");
    let imp = synthesize(&sg, &SynthesisOptions::default()).expect("synthesizes");
    let summary = monte_carlo(&sg, &imp, &ConformanceConfig::default(), 10);
    assert!(summary.all_clean(), "{:?}", summary.first_failure);
}

#[test]
fn text_format_round_trip_preserves_synthesis() {
    let sg = nshot::benchmarks::by_name("full").expect("in suite").build();
    let text = sg.to_text();
    let back = nshot::sg::parse_sg(&text).expect("round-trips");
    let a = synthesize(&sg, &SynthesisOptions::default()).expect("original synthesizes");
    let b = synthesize(&back, &SynthesisOptions::default()).expect("round-trip synthesizes");
    assert_eq!(a.area, b.area);
    assert_eq!(a.signals.len(), b.signals.len());
}

#[test]
fn exact_and_heuristic_flows_both_validate() {
    let sg = nshot::benchmarks::by_name("chu133").expect("in suite").build();
    for options in [SynthesisOptions::default(), SynthesisOptions::exact()] {
        let imp = synthesize(&sg, &options).expect("synthesizes");
        let report = check_conformance(&sg, &imp, &ConformanceConfig::default());
        assert!(report.is_hazard_free(), "{:?}", report.violations);
    }
}

#[test]
fn sharing_ablation_preserves_correctness() {
    let sg = nshot::benchmarks::or_causal("abl", "", 2);
    for options in [
        SynthesisOptions {
            share_products: true,
            ..SynthesisOptions::default()
        },
        SynthesisOptions::default(),
    ] {
        let imp = synthesize(&sg, &options).expect("synthesizes");
        let report = check_conformance(&sg, &imp, &ConformanceConfig::default());
        assert!(report.is_hazard_free(), "{:?}", report.violations);
    }
}
