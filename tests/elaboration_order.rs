//! Elaboration keeps its state order.
//!
//! `Stg::elaborate` numbers states in breadth-first order over the token
//! game, visiting each marking's enabled transitions in ascending
//! `TransId` order. State ids, the order of ON codes handed to the
//! minimizer and with it every emitted netlist follow that numbering, so
//! this suite pins it: an FNV-1a of each elaborated state graph rendered
//! state by state, in id order: the code, then the successor
//! `(signal, dir, target)` list in stored order. `g_roundtrip` compares
//! sorted edge sets and cannot see a renumbering; these pins can.
//!
//! Covered inputs: the 25 Table 2 circuits emitted by `sg_to_g_text`, the
//! archived `tests/corpus/generated/*.g` specs and `nshot_gen::draw`
//! seeds 0..16 (each elaborated from its `.g` text).

use std::fmt::Write as _;
use std::path::PathBuf;

use nshot_sg::StateGraph;
use nshot_stg::{parse_stg, sg_to_g_text};

/// FNV-1a, the same stable hash the golden suite uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-sensitive rendering of a state graph: states in id order, each
/// with its code and its successor list as stored.
fn ordered_digest(sg: &StateGraph) -> u64 {
    let mut out = String::new();
    writeln!(out, "initial {}", sg.initial().index()).unwrap();
    for s in sg.state_ids() {
        write!(out, "{} {:#x}:", s.index(), sg.code(s)).unwrap();
        for &(label, t) in sg.successors(s) {
            write!(
                out,
                " {}{}>{}",
                label.dir.sign(),
                label.signal.index(),
                t.index()
            )
            .unwrap();
        }
        out.push('\n');
    }
    fnv1a(out.as_bytes())
}

fn elaborate(name: &str, text: &str) -> StateGraph {
    parse_stg(text)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .elaborate()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Compare each `(name, digest)` against its pin; report every drift at
/// once, formatted as a replacement table row.
fn assert_pinned(pins: &[(&str, u64)], got: &[(String, u64)]) {
    assert_eq!(
        pins.iter().map(|p| p.0).collect::<Vec<_>>(),
        got.iter().map(|g| g.0.as_str()).collect::<Vec<_>>(),
        "pinned inputs changed"
    );
    let drifted: Vec<String> = pins
        .iter()
        .zip(got)
        .filter(|(pin, g)| pin.1 != g.1)
        .map(|(_, (name, hash))| format!("(\"{name}\", {hash:#018x}),"))
        .collect();
    assert!(
        drifted.is_empty(),
        "elaborated state order drifted:\n{}",
        drifted.join("\n")
    );
}

#[rustfmt::skip]
const SUITE_PINS: [(&str, u64); 25] = [
    ("chu133", 0x3bf652d2bda773cb),
    ("chu150", 0x9561786f3e11e39a),
    ("chu172", 0x2e0bddae0789e858),
    ("converta", 0xabe305d2976a4bc6),
    ("ebergen", 0xefb468916d38c039),
    ("full", 0xb2be998774acfcf1),
    ("hazard", 0x94e0c91f67cb970d),
    ("hybridf", 0x625f2014fcf5d4d1),
    ("pe-send-ifc", 0xb4b6f2b5f32b7563),
    ("qr42", 0xefb468916d38c039),
    ("vbe10b", 0x2b598506bff0a10b),
    ("vbe5b", 0xe17ed703798e6253),
    ("wrdatab", 0xb6d52a1fdbd4a644),
    ("sbuf-send-ctl", 0xc102848d7759510d),
    ("pr-rcv-ifc", 0x3dca1c5c1cd5823b),
    ("master-read", 0x1c2a7dc35d7039cf),
    ("read-write", 0xe92c62bd2f083c8b),
    ("tsbmsi", 0xcc062909845f3507),
    ("tsbmsiBRK", 0x0b70e20d8250fa4f),
    ("pmcm1", 0xc4073eedd16a8bda),
    ("pmcm2", 0x1147d1157a421d81),
    ("combuf1", 0x0fecd1d013ad820f),
    ("combuf2", 0xacc81800590d319b),
    ("sing2dual-inp", 0x38f046fca37843d9),
    ("sing2dual-out", 0x266a4e4495b01af1),
];

#[rustfmt::skip]
const CORPUS_PINS: [(&str, u64); 9] = [
    ("anchor_seed0", 0x94ede0e01e31cc71),
    ("anchor_seed1", 0x7d657266b288c4ab),
    ("anchor_seed2", 0xc05c36979d842cc3),
    ("anchor_seed3", 0xed90f67888d191cf),
    ("anchor_seed4", 0x143346bf1be15ca9),
    ("anchor_seed6", 0xfb09f828025d1d34),
    ("anchor_seed7", 0xe00c1d27ec1d3963),
    ("anchor_seed9", 0x446314b0318b064b),
    ("violation_seed5", 0xd8347ed79ede1161),
];

#[rustfmt::skip]
const GEN_PINS: [(&str, u64); 16] = [
    ("gen0", 0x94ede0e01e31cc71),
    ("gen1", 0x7d657266b288c4ab),
    ("gen2", 0xc05c36979d842cc3),
    ("gen3", 0xed90f67888d191cf),
    ("gen4", 0x143346bf1be15ca9),
    ("gen5", 0x5f21210ec2776467),
    ("gen6", 0xfb09f828025d1d34),
    ("gen7", 0xe00c1d27ec1d3963),
    ("gen8", 0x25f6cbfa3e0ebbad),
    ("gen9", 0x446314b0318b064b),
    ("gen10", 0x4ee15044ce7a0ab1),
    ("gen11", 0x446314b0318b064b),
    ("gen12", 0xacc81800590d319b),
    ("gen13", 0x04dedcffc503fd61),
    ("gen14", 0x7eae3f1bd2fddec6),
    ("gen15", 0x5fb62209a6247acd),
];

#[test]
fn suite_elaboration_order_is_pinned() {
    let got: Vec<(String, u64)> = nshot_benchmarks::suite()
        .iter()
        .map(|b| {
            let text = sg_to_g_text(&b.build());
            (b.name.to_owned(), ordered_digest(&elaborate(b.name, &text)))
        })
        .collect();
    assert_pinned(&SUITE_PINS, &got);
}

#[test]
fn corpus_elaboration_order_is_pinned() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("generated");
    let got: Vec<(String, u64)> = CORPUS_PINS
        .iter()
        .map(|&(name, _)| {
            let text = std::fs::read_to_string(dir.join(format!("{name}.g")))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.to_owned(), ordered_digest(&elaborate(name, &text)))
        })
        .collect();
    assert_pinned(&CORPUS_PINS, &got);
}

#[test]
fn generated_elaboration_order_is_pinned() {
    let got: Vec<(String, u64)> = (0..16u64)
        .map(|seed| {
            let name = format!("gen{seed}");
            let spec = nshot_gen::draw(seed, &nshot_gen::GenConfig::default())
                .unwrap_or_else(|r| panic!("{name} rejected: {r}"));
            let hash = ordered_digest(&elaborate(&name, &spec.g_text));
            (name, hash)
        })
        .collect();
    assert_pinned(&GEN_PINS, &got);
}
