//! Pins the generator's output: an FNV-1a digest of `draw(seed).g_text`
//! over seeds 0..64, under the default config and the two narrowed budgets
//! the benchmark draws from. Any change to sampling, building or emission
//! (a moved constant, a reordered RNG call) changes a digest.

use nshot_gen::{draw, GenConfig};

/// 64-bit FNV-1a over every seed's `.g` text (or rejection reason), in
/// seed order, each followed by a `0xff` separator.
fn digest(cfg: &GenConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for seed in 0..64u64 {
        let text = match draw(seed, cfg) {
            Ok(spec) => spec.g_text,
            Err(r) => format!("rejected: {}", r.reason()),
        };
        for b in text.bytes().chain(std::iter::once(0xff)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn default_config_draws_are_pinned() {
    assert_eq!(digest(&GenConfig::default()), 0x3ada_7e50_6a96_7488);
}

#[test]
fn gen_verify_pool_draws_are_pinned() {
    let cfg = GenConfig {
        max_states: 128,
        ..GenConfig::default()
    };
    assert_eq!(digest(&cfg), 0x1ef3_5211_3abf_d37d);
}

#[test]
fn serve_miss_draws_are_pinned() {
    let cfg = GenConfig {
        max_states: 64,
        ..GenConfig::default()
    };
    assert_eq!(digest(&cfg), 0xe4ad_4902_6de8_db3b);
}
