//! Pins of what [`crate::parse_stg`] builds and of every error it reports.
//!
//! The structure pin hashes the parsed net with FNV-1a: signals in order,
//! each transition in id order (signal, direction, occurrence, preset and
//! postset in stored order) and each place in id order (name, preset,
//! postset, initial tokens). It covers the 25 suite texts, the generated
//! corpus and `nshot_gen::draw` seeds 0..64, so it sees place names and arc
//! order, which the elaborated state graphs do not.
//!
//! The error table pins the exact line and message of every parse and
//! structural error, including inputs with several faults, where the one
//! reported must stay the one reported today.

use crate::{parse_stg, sg_to_g_text, PlaceId, Stg, StgError, TransId};
use nshot_sg::{Dir, SignalKind};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn ids(&mut self, ids: impl ExactSizeIterator<Item = u32>) {
        self.num(ids.len() as u64);
        for id in ids {
            self.num(u64::from(id));
        }
    }
}

/// The structure digest of one parsed net.
fn digest(stg: &Stg, h: &mut Fnv) {
    h.str(&stg.name);
    h.num(stg.signals.len() as u64);
    for s in &stg.signals {
        h.str(&s.name);
        h.num(match s.kind {
            SignalKind::Input => 0,
            SignalKind::Output => 1,
            SignalKind::Internal => 2,
        });
    }
    h.num(stg.transitions.len() as u64);
    for (i, t) in stg.transitions.iter().enumerate() {
        let id = TransId(i as u32);
        h.num(t.signal as u64);
        h.num(u64::from(matches!(t.dir, Dir::Fall)));
        h.num(u64::from(t.occurrence));
        h.ids(stg.t_pre(id).iter().map(|p| p.0));
        h.ids(stg.t_post(id).iter().map(|p| p.0));
    }
    h.num(stg.num_places() as u64);
    let m0 = stg.initial_marking();
    for p in (0..stg.num_places() as u32).map(PlaceId) {
        h.str(stg.place_name(p));
        h.ids(stg.p_pre(p).iter().map(|t| t.0));
        h.ids(stg.p_post(p).iter().map(|t| t.0));
        h.num(u64::from(m0.tokens(p)));
    }
}

fn digest_of(text: &str) -> u64 {
    let mut h = Fnv::new();
    digest(&parse_stg(text).expect("pinned text parses"), &mut h);
    h.0
}

#[test]
fn suite_parses_are_pinned() {
    let got: Vec<(&str, u64)> = nshot_benchmarks::suite()
        .iter()
        .map(|b| (b.name, digest_of(&sg_to_g_text(&b.build()))))
        .collect();
    let want: &[(&str, u64)] = &[
        ("chu133", 0x7308_dc05_c68a_e3e4),
        ("chu150", 0x531a_b676_08de_0d4c),
        ("chu172", 0xf31d_c509_6d0a_1392),
        ("converta", 0x3f11_6255_e125_4520),
        ("ebergen", 0xceaa_3def_8abd_ba7e),
        ("full", 0x9693_8175_6d25_9f93),
        ("hazard", 0x1bca_337e_0bc7_01f3),
        ("hybridf", 0x3344_16a0_9e12_e3ae),
        ("pe-send-ifc", 0xbfe9_1e10_8735_637c),
        ("qr42", 0x9c8f_1a4b_b937_b0f2),
        ("vbe10b", 0xd21b_1c0f_1dd2_aa6d),
        ("vbe5b", 0x6ae9_f9d6_8fe7_5449),
        ("wrdatab", 0x6379_3fbd_b209_4078),
        ("sbuf-send-ctl", 0xf7bf_ea62_3522_45f1),
        ("pr-rcv-ifc", 0x78d0_ef72_1ae7_1b77),
        ("master-read", 0x80a2_bd41_3037_d99b),
        ("read-write", 0x9676_a49d_fbc9_38f8),
        ("tsbmsi", 0xdd33_9116_6821_b6cc),
        ("tsbmsiBRK", 0x2d39_9eda_7b3a_3f2e),
        ("pmcm1", 0x7f4d_302c_17c9_9def),
        ("pmcm2", 0x4495_749c_e87e_25fa),
        ("combuf1", 0x5858_84a6_f743_5e07),
        ("combuf2", 0x5eb5_15ba_98f8_988b),
        ("sing2dual-inp", 0x2edf_ee9d_a55e_8191),
        ("sing2dual-out", 0x7b46_1db7_3d72_8771),
    ];
    assert_eq!(got, want);
}

#[test]
fn generated_corpus_parses_are_pinned() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/generated");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("generated corpus")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "g"))
        .collect();
    files.sort();
    let got: Vec<(String, u64)> = files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("read corpus file");
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, digest_of(&text))
        })
        .collect();
    let want: &[(&str, u64)] = &[
        ("anchor_seed0.g", 0x167a_435d_2305_6e0c),
        ("anchor_seed1.g", 0x26d9_2ace_4d2d_47b4),
        ("anchor_seed2.g", 0x19de_95e9_d0ef_bee2),
        ("anchor_seed3.g", 0xd241_717c_88bb_384c),
        ("anchor_seed4.g", 0xf9db_4e6e_9146_38ae),
        ("anchor_seed6.g", 0x6285_1f41_3835_c8d9),
        ("anchor_seed7.g", 0x22d3_585e_8009_e989),
        ("anchor_seed9.g", 0x0801_cc5e_6754_abff),
        ("violation_seed5.g", 0x9a05_5d8b_513a_b7d9),
    ];
    let want: Vec<(String, u64)> = want.iter().map(|&(n, d)| (n.to_owned(), d)).collect();
    assert_eq!(got, want);
}

/// Hand-written texts for what the emitter never writes: two tokens for
/// one transition name, a token that looks like an edge but is a place,
/// several targets per line, late declarations, tabs, CRLF and comments.
#[test]
fn edge_case_parses_are_pinned() {
    let texts = [
        ".inputs a\n.outputs b\n.graph\na+/0 b+\nb+ a-\na- b-\nb- a+/0\nb- a+\na+ a-\n.marking { <a+,b+> }\n.end",
        ".inputs a\n.outputs b\n.graph\na+/01 b+\nb+ a-\na- b-\nb- a+/01\n.marking { <b-,a+/1> }\n.end",
        ".model m\n.name n\n.inputs a b\n.outputs c\n.dummy t\n.graph\np0 a+ b+\na+ c+\n\
         b+ c+/2\nc+ a+/x\na+/x a-\nc+/2 b-\na- c-\nb- c-/2\nc- p0\nc-/2 p0\n\
         .marking { p0=2 a+/x }\n.end",
        "# lead\r\n.graph\r\nr+\tg+ q\t# to both\r\nq r-\r\ng+ r-\r\nr- g-\r\ng- r+\r\n\
         .inputs r\r\n.internal g\r\n.marking {<g- , r+> q=3}\r\n.end\r\nignored after end\r\n",
    ];
    let got: Vec<u64> = texts.iter().map(|t| digest_of(t)).collect();
    assert_eq!(
        got,
        [
            0x4e15_115a_ff91_45a8,
            0x6941_1e47_47e1_90bc,
            0x1f64_54b3_bd18_244b,
            0x8e07_6fd9_d176_01ee
        ]
    );
}

#[test]
fn drawn_parses_are_pinned() {
    let cfg = nshot_gen::GenConfig::default();
    let mut h = Fnv::new();
    let mut parsed = 0;
    for seed in 0..64 {
        if let Ok(spec) = nshot_gen::draw(seed, &cfg) {
            digest(&parse_stg(&spec.g_text).expect("drawn text parses"), &mut h);
            parsed += 1;
        } else {
            h.num(u64::MAX);
        }
    }
    assert_eq!((parsed, h.0), (64, 0x9c55_1954_4cbe_f11c));
}

/// `.inputs a` / `.outputs b` around the given graph and marking lines.
fn net(graph: &str, marking: &str) -> String {
    format!(".model m\n.inputs a\n.outputs b\n.graph\n{graph}\n.marking {{ {marking} }}\n.end\n")
}

fn parse_err(line: usize, message: &str) -> StgError {
    StgError::Parse {
        line,
        message: message.to_owned(),
    }
}

#[test]
fn parse_errors_are_pinned() {
    let ring = "a+ b+\nb+ a-\na- b-\nb- a+";
    let cases: Vec<(&str, String, StgError)> = vec![
        (
            "line outside .graph",
            ".model m\n.inputs a\nfoo bar\n.graph\na+ a-\na- a+\n.marking { <a-,a+> }\n.end".into(),
            parse_err(3, "unexpected line outside .graph: 'foo bar'"),
        ),
        (
            "line after .marking",
            net(ring, "<b-,a+>").replace(".end", "stray line\n.end"),
            parse_err(10, "unexpected line outside .graph: 'stray line'"),
        ),
        ("one-token graph line", net("a+ b+\nb+", "<b-,a+>"), parse_err(6, "graph line needs a source and at least one target")),
        ("duplicate signal", ".inputs a\n.outputs b a\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end".into(), parse_err(0, "duplicate signal 'a'")),
        ("undeclared signal", net("a+ b+\nb+ q+\nq+ a-\na- b-\nb- a+", "<b-,a+>"), parse_err(6, "transition 'q+' references undeclared signal 'q'")),
        ("undeclared signal as source", net("a+ b+\nq- a-\nb+ a-\na- b-\nb- a+", "<b-,a+>"), parse_err(6, "transition 'q-' references undeclared signal 'q'")),
        ("duplicate T->T arc", net("a+ b+\nb+ a-\na- b-\nb- a+\na+ b+", "<b-,a+>"), parse_err(9, "duplicate arc 'a+ b+'")),
        ("duplicate T->T arc on one line", net("a+ b+ b+\nb+ a-\na- b-\nb- a+", "<b-,a+>"), parse_err(5, "duplicate arc 'a+ b+'")),
        ("duplicate T->P arc", net("p a+\na+ b+\nb+ a-\na- b-\nb- p\nb- p", "p"), parse_err(10, "duplicate arc 'b- p'")),
        ("duplicate P->T arc", net("p a+\na+ b+\nb+ a-\na- b-\nb- p\np a+", "p"), parse_err(10, "duplicate arc 'p a+'")),
        ("duplicate place-to-place arc", net("p q\np q", "p"), parse_err(5, "place-to-place arcs are not allowed")),
        ("place-to-place arc", net("p a+\na+ b+\nb+ a-\na- b-\nb- p\np q", "p"), parse_err(10, "place-to-place arcs are not allowed")),
        ("bad =count", net(ring, "<b-,a+>=x"), parse_err(9, "bad token count in '<b-,a+>=x'")),
        ("=count past u8", net(ring, "<b-,a+>=256"), parse_err(9, "bad token count in '<b-,a+>=256'")),
        ("bad =count on a place", net("p a+\na+ b+\nb+ a-\na- b-\nb- p", "p=-1"), parse_err(10, "bad token count in 'p=-1'")),
        ("unknown marking place", net(ring, "q"), parse_err(9, "unknown place 'q' in marking")),
        ("unclosed implicit place", net(ring, "<b-,a+"), parse_err(9, "unknown place '<b-,a+ ' in marking")),
        ("implicit place without comma", net(ring, "<b->"), parse_err(9, "bad implicit place '<b->'")),
        ("unknown marking transition", net(ring, "<b-,c+>"), parse_err(9, "unknown transition 'c+' in marking")),
        ("unknown marking signal edge", net(ring, "<b-,a*>"), parse_err(9, "unknown transition 'a*' in marking")),
        ("missing implicit place", net(ring, "<a+,a->"), parse_err(9, "no place between a+ and a-")),
        ("marking a+/0 names a+", net(ring, "<b-,a+/0>"), parse_err(9, "unknown transition 'a+/0' in marking")),
        ("marking a+/01 names a+/1", net("a+/01 b+\nb+ a-\na- b-\nb- a+/01", "<b-,a+/01>"), parse_err(9, "unknown transition 'a+/01' in marking")),
        ("marking names a place as a transition", net("p a+\na+ b+\nb+ a-\na- b-\nb- p", "<p,a+>"), parse_err(10, "unknown transition 'p' in marking")),
        ("second marking line", net(ring, "<b-,a+>").replace(".end", ".marking { <a+,a-> }\n.end"), parse_err(10, "no place between a+ and a-")),
        ("CRLF undeclared signal", net(ring, "<b-,a+>").replace('\n', "\r\n").replace("b- a+", "b- z+"), parse_err(8, "transition 'z+' references undeclared signal 'z'")),
        ("CRLF bad marking", net(ring, "<b-,a+> q").replace('\n', "\r\n"), parse_err(9, "unknown place 'q' in marking")),
        ("comment and blank lines count", "# head\n\n.inputs a # in\n.outputs b\n\n.graph\na+ b+ # arc\nb+ a-\na- b-\nb- a+\nb+ a-\n.marking { <b-,a+> }\n.end".into(), parse_err(11, "duplicate arc 'b+ a-'")),
        ("duplicate arc before undeclared signal", net("a+ b+\nb+ a-\na- b-\na- b-\nb- a+\nb- q+", "<b-,a+>"), parse_err(8, "duplicate arc 'a- b-'")),
        ("undeclared signal before duplicate arc", net("a+ b+\nb+ q+\na- b-\nb- a+\na+ b+", "<b-,a+>"), parse_err(6, "transition 'q+' references undeclared signal 'q'")),
        ("place-to-place before duplicate arc", net("p q\na+ b+\na+ b+", "p"), parse_err(5, "place-to-place arcs are not allowed")),
        ("duplicate arc before place-to-place", net("a+ b+\na+ b+\np q", "p"), parse_err(6, "duplicate arc 'a+ b+'")),
        ("one-token line before undeclared signal", net("a+\nb+ q+", "<b-,a+>"), parse_err(5, "graph line needs a source and at least one target")),
        ("graph fault before a marking fault", net("a+ b+\nb+ q+", "nowhere"), parse_err(6, "transition 'q+' references undeclared signal 'q'")),
        ("first of two marking faults", net(ring, "<a+,a-> nowhere"), parse_err(9, "no place between a+ and a-")),
        ("stray line after a graph fault", net("a+ b+\nb+ q+", "<b-,a+>").replace(".end", "stray\n.end"), parse_err(8, "unexpected line outside .graph: 'stray'")),
        ("duplicate signal after a graph fault", ".inputs a a\n.graph\na+ q+\n.end".into(), parse_err(0, "duplicate signal 'a'")),
        ("transition with no input place", net("a+ b+\nb+ a-\na- b-", ""), StgError::Structural("transition a+ has no input place".into())),
        ("marking fault before a missing input place", net("a+ b+", "<b+,a+>"), parse_err(6, "no place between b+ and a+")),
    ];
    for (what, text, want) in cases {
        assert_eq!(parse_stg(&text).map(|_| ()), Err(want), "{what}");
    }
}
