//! The point form and the cover form of a Table 1 function minimize to the
//! same cover, cube for cube and in the same order.
//!
//! `SetResetSpec::derive` builds point-form functions, whose EXPAND /
//! IRREDUNDANT / REDUCE queries are answered by scanning state codes. The
//! same function rebuilt from its materialized ON, DC and OFF covers is
//! answered by cube algebra (tautology and complement). Both forms run one
//! ESPRESSO loop, so equal answers must give equal covers. This holds over
//! every set/reset function of the Table 2 suite, of the archived generated
//! corpus and of a run of freshly drawn specifications.

use std::path::PathBuf;

use nshot::core::SetResetSpec;
use nshot::logic::{espresso, Cover, Function};
use nshot_sg::StateGraph;
use nshot_stg::parse_stg;

/// Every `(label, function)` of every non-input signal of `sg`.
fn functions(name: &str, sg: &StateGraph) -> Vec<(String, Function)> {
    sg.non_input_signals()
        .flat_map(|a| {
            let spec = SetResetSpec::derive(sg, a);
            let signal = sg.signal_name(a);
            [
                (format!("{name}/{signal}.set"), spec.set),
                (format!("{name}/{signal}.reset"), spec.reset),
            ]
        })
        .collect()
}

/// Minimize each function in both forms and compare the cube lists.
fn assert_forms_agree(functions: &[(String, Function)]) {
    let mismatches: Vec<String> = nshot_par::par_map(functions, |(label, point)| {
        let cover_form = Function::with_off(
            point.on_set().clone(),
            point.dc_set().clone(),
            point.off_set().clone(),
        );
        let (a, b): (Cover, Cover) = (espresso(point), espresso(&cover_form));
        (a.cubes() != b.cubes()).then(|| format!("{label}:\n point {a:?}\n cover {b:?}"))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn suite_functions_minimize_identically_in_both_forms() {
    let mut all = Vec::new();
    for bench in nshot::benchmarks::suite() {
        all.extend(functions(bench.name, &bench.build()));
    }
    assert!(all.len() > 200, "only {} functions", all.len());
    assert_forms_agree(&all);
}

#[test]
fn generated_functions_minimize_identically_in_both_forms() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("generated");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("readable corpus dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "g"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no archived specs in {}", dir.display());

    let mut all = Vec::new();
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(path).expect("readable artifact");
        let stg = parse_stg(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sg = stg.elaborate().unwrap_or_else(|e| panic!("{name}: {e}"));
        all.extend(functions(&name, &sg));
    }
    for seed in 0..16u64 {
        if let Ok(spec) = nshot_gen::draw(seed, &nshot_gen::GenConfig::default()) {
            all.extend(functions(&format!("gen{seed}"), &spec.sg));
        }
    }
    assert!(all.len() > 50, "only {} functions", all.len());
    assert_forms_agree(&all);
}
