//! The fuzz and model-checker telemetry series render as well-formed,
//! sorted Prometheus text in the global registry exposition.

use nshot_bench::telemetry::FuzzMetrics;
use nshot_core::{synthesize, SynthesisOptions};
use nshot_mc::{check, McConfig};
use nshot_obs::Registry;

#[test]
fn fuzz_and_mc_series_render_sorted_and_parse() {
    // Touch every fuzz series so it has a sample to render.
    let m = FuzzMetrics::global();
    m.seeds.add(3);
    m.accepted.add(2);
    m.rejected.inc();
    m.proved.inc();
    m.mc_fallback.inc();
    m.violations.inc();
    m.known_violations.inc();
    m.shrink_steps.add(5);
    m.generate_us.record(10);
    m.synthesize_us.record(20);
    m.verify_us.record(30);

    // One real exhaustive check populates the nshot_mc_* series.
    let sg = nshot_benchmarks::by_name("hazard").expect("in suite").build();
    let imp = synthesize(&sg, &SynthesisOptions::default()).expect("synthesize");
    let verdict = check(&sg, &imp.netlist, &McConfig::default()).expect("model build");
    assert!(verdict.is_proved());

    let expo = Registry::global().render_prometheus();

    // Every non-comment line is `series value` with a numeric value.
    for line in expo.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable exposition line: {line}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample on line: {line}"
        );
        assert!(
            series.chars().next().is_some_and(|c| c.is_ascii_alphabetic()),
            "bad series name on line: {line}"
        );
    }

    // Every new series is present.
    for series in [
        "nshot_fuzz_seeds_total 3",
        "nshot_fuzz_accepted_total 2",
        "nshot_fuzz_rejected_total 1",
        "nshot_fuzz_proved_total 1",
        "nshot_fuzz_mc_fallback_total 1",
        "nshot_fuzz_violations_total 1",
        "nshot_fuzz_known_violations_total 1",
        "nshot_fuzz_shrink_steps_total 5",
        "nshot_fuzz_phase_us_count{phase=\"generate\"} 1",
        "nshot_fuzz_phase_us_count{phase=\"synthesize\"} 1",
        "nshot_fuzz_phase_us_count{phase=\"verify\"} 1",
        "nshot_mc_runs_total 1",
        "nshot_mc_states_total",
        "nshot_mc_edges_total",
        "nshot_mc_violation_checks_total",
        "nshot_mc_verdicts_total{verdict=\"budget_exceeded\"} 0",
        "nshot_mc_verdicts_total{verdict=\"proved\"} 1",
        "nshot_mc_verdicts_total{verdict=\"violated\"} 0",
        "nshot_mc_peak_frontier",
        "nshot_mc_max_depth",
        "nshot_mc_visited_bytes",
    ] {
        assert!(expo.contains(series), "missing series {series} in:\n{expo}");
    }

    // Within each metric kind the bases come out sorted: collect the
    // `# TYPE` headers per kind and check the name order.
    let mut by_kind: std::collections::HashMap<&str, Vec<&str>> = Default::default();
    for line in expo.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.rsplit_once(' ') {
                by_kind.entry(kind).or_default().push(name);
            }
        }
    }
    for (kind, names) in &by_kind {
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, &sorted, "{kind} series are not sorted");
    }
}
