//! Golden-file regression suite over the Table 2 benchmarks.
//!
//! For every circuit the default synthesis flow is run and a small artifact
//! is rendered: an FNV-1a hash of the canonical BLIF netlist, the area and
//! critical-path numbers, and the per-network cube/literal totals. The
//! artifacts live in `tests/golden/<circuit>.txt` and pin the exact output
//! of the whole pipeline — parser, region derivation, minimizer, trigger
//! repair, assembly — so an accidental change anywhere shows up as a
//! one-line diff naming the circuit and the drifted quantity.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! NSHOT_BLESS=1 cargo test --test golden
//! ```
//!
//! and review the resulting `tests/golden/` diff like any other code.

use std::fmt::Write as _;
use std::path::PathBuf;

use nshot::core::{derive_all, synthesize, SetResetSpec, SynthesisOptions};
use nshot::logic::minimize_exact;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// FNV-1a, the same stable hash used for proptest seeds — no dependency on
/// `DefaultHasher`, whose output may change across Rust releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn render_artifact(name: &str) -> String {
    let bench = nshot::benchmarks::by_name(name).expect("in suite");
    let sg = bench.build();
    let imp = synthesize(&sg, &SynthesisOptions::default())
        .unwrap_or_else(|e| panic!("{name}: synthesis failed: {e}"));

    let (mut set_cubes, mut set_lits, mut reset_cubes, mut reset_lits) = (0, 0, 0, 0);
    for s in &imp.signals {
        set_cubes += s.set_cover.num_cubes();
        set_lits += s.set_cover.literal_count();
        reset_cubes += s.reset_cover.num_cubes();
        reset_lits += s.reset_cover.literal_count();
    }

    let mut out = String::new();
    writeln!(out, "circuit: {name}").unwrap();
    writeln!(out, "spec_states: {}", imp.num_states).unwrap();
    writeln!(out, "netlist_fnv1a: {:#018x}", fnv1a(imp.netlist.to_blif().as_bytes())).unwrap();
    writeln!(out, "area: {}", imp.area).unwrap();
    writeln!(out, "delay_ns: {:.3}", imp.delay_ns).unwrap();
    writeln!(out, "set_cubes: {set_cubes}").unwrap();
    writeln!(out, "set_literals: {set_lits}").unwrap();
    writeln!(out, "reset_cubes: {reset_cubes}").unwrap();
    writeln!(out, "reset_literals: {reset_lits}").unwrap();
    writeln!(
        out,
        "delay_compensation_free: {}",
        imp.delay_compensation_free()
    )
    .unwrap();
    out
}

#[test]
fn golden_artifacts_match() {
    let bless = std::env::var("NSHOT_BLESS").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }

    let mut drifted = Vec::new();
    let mut expected_files = Vec::new();
    for bench in nshot::benchmarks::suite() {
        let actual = render_artifact(bench.name);
        let path = dir.join(format!("{}.txt", bench.name));
        expected_files.push(format!("{}.txt", bench.name));
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == actual => {}
            Ok(golden) => {
                if bless {
                    std::fs::write(&path, &actual).unwrap();
                } else {
                    let diff: Vec<String> = golden
                        .lines()
                        .zip(actual.lines())
                        .filter(|(g, a)| g != a)
                        .map(|(g, a)| format!("  - {g}\n  + {a}"))
                        .collect();
                    drifted.push(format!("{}:\n{}", bench.name, diff.join("\n")));
                }
            }
            Err(_) => {
                if bless {
                    std::fs::write(&path, &actual).unwrap();
                } else {
                    drifted.push(format!("{}: golden file missing", bench.name));
                }
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "{} golden artifact(s) drifted (NSHOT_BLESS=1 to re-bless):\n{}",
        drifted.len(),
        drifted.join("\n")
    );

    // Stale artifacts are drift too: a renamed circuit must not leave its
    // old golden file silently green. Subdirectories (the wire-encoding
    // fixtures under `wire/`) run their own stale check in
    // `tests/wire_differential.rs`.
    let mut stale = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/golden/ must exist") {
        let entry = entry.unwrap();
        if entry.path().is_dir() {
            continue;
        }
        let file = entry.file_name().into_string().unwrap();
        if !expected_files.iter().any(|e| e == &file) {
            stale.push(file);
        }
    }
    assert!(stale.is_empty(), "stale golden files: {stale:?}");
}

/// The hash in the artifact must be a function of the netlist alone —
/// synthesizing twice yields byte-identical BLIF (determinism guard at the
/// export boundary, complementing the model checker's certificate check).
#[test]
fn golden_rendering_is_deterministic() {
    for name in ["chu133", "hybridf", "vbe10b"] {
        assert_eq!(render_artifact(name), render_artifact(name), "{name}");
    }
}

/// Pins for the exact and multi-output flows, which the per-circuit
/// artifacts (default heuristic flow) do not cover. Both minimizers read
/// the materialized don't-care cover, and exact-mode prime tie-breaks
/// depend on its cube structure, so next to the two BLIF hashes this also
/// pins the cube lists of every DC cover and every exact cover.
/// `(circuit, exact BLIF, multi-output BLIF, DC covers, exact covers)`.
#[rustfmt::skip]
const MINIMIZER_PINS: [(&str, u64, u64, u64, u64); 5] = [
    ("chu133", 0x213cda8bd78468e8, 0x213cda8bd78468e8, 0xa5e4ec069947daab, 0x3022cd7e2433c61c),
    ("full", 0x6a3ea44bd4202c70, 0x6a3ea44bd4202c70, 0x70044ebaf37578fd, 0xdbc58502f1a3011d),
    ("hazard", 0x475d2eed8d32be57, 0x475d2eed8d32be57, 0xd48480c5864c265f, 0xccbb61b00fed7789),
    ("converta", 0x47552e80c8fbfcb6, 0x47552e80c8fbfcb6, 0x4b6807428e301da9, 0xd6e9a31081999d5c),
    ("vbe5b", 0x5afb26e4f54e2f25, 0x5afb26e4f54e2f25, 0xe2f2500af2879d41, 0x645cf65a643128c8),
];

#[test]
fn exact_and_multi_output_netlists_are_pinned() {
    let mut drifted = Vec::new();
    for (name, exact_blif, multi_blif, dc_covers, exact_covers) in MINIMIZER_PINS {
        let sg = nshot::benchmarks::by_name(name).expect("in suite").build();
        let blif_hash = |options: &SynthesisOptions| {
            let imp = synthesize(&sg, options).unwrap_or_else(|e| panic!("{name}: {e}"));
            fnv1a(imp.netlist.to_blif().as_bytes())
        };
        let (mut dc, mut exact) = (String::new(), String::new());
        for a in sg.non_input_signals() {
            let spec = SetResetSpec::derive(&sg, a);
            for f in [&spec.set, &spec.reset] {
                writeln!(dc, "{}", f.dc_set()).unwrap();
                let cover = minimize_exact(f).unwrap_or_else(|e| panic!("{name}: {e}"));
                writeln!(exact, "{cover}").unwrap();
            }
        }
        let got = (
            blif_hash(&SynthesisOptions::exact()),
            blif_hash(&SynthesisOptions::multi_output()),
            fnv1a(dc.as_bytes()),
            fnv1a(exact.as_bytes()),
        );
        if got != (exact_blif, multi_blif, dc_covers, exact_covers) {
            drifted.push(format!(
                "(\"{name}\", {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "exact/multi-output pins drifted:\n{}",
        drifted.join("\n")
    );
}

/// FNV-1a of every DC cover of the whole suite, cube for cube in derive
/// order. The minimizers that read DC covers see exactly these.
const SUITE_DC_COVERS: u64 = 0xccebab94776c9a2b;

#[test]
fn suite_dc_covers_are_pinned() {
    let mut dc = String::new();
    for bench in nshot::benchmarks::suite() {
        let sg = bench.build();
        for spec in derive_all(&sg) {
            writeln!(dc, "{}\n{}", spec.set.dc_set(), spec.reset.dc_set()).unwrap();
        }
    }
    let hash = fnv1a(dc.as_bytes());
    assert_eq!(hash, SUITE_DC_COVERS, "DC covers hash to {hash:#018x}");
}
