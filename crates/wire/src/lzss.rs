//! A small deterministic LZSS codec for large text payloads.
//!
//! Netlists, certificates and specifications are line-oriented and highly
//! repetitive (`.names` headers, repeated product-term rows, signal names),
//! so even a classic byte-oriented LZSS with a 4 KiB window shrinks them
//! several-fold — without reaching outside the std-only workspace for a
//! real compression crate.
//!
//! Format: a stream of groups, each led by one control byte holding eight
//! flags (least-significant bit first). Flag 1 ⇒ one literal byte follows;
//! flag 0 ⇒ a two-byte match token: `offset_low8`, then
//! `offset_high4 << 4 | (len - MIN_MATCH)`. Offsets count back from the
//! current output position (1..=4096); match lengths span 3..=18 bytes.
//! The final control byte's unused flags are simply not consumed — the
//! decoder stops exactly at the declared raw length.
//!
//! The decoder is fully bounds-checked: a match reaching before the start
//! of the output, a truncated token, or trailing garbage yields a typed
//! [`WireError`], never a panic or an over-read. Compression is
//! deterministic (greedy longest-match over hash chains with a fixed probe
//! budget), so identical input bytes always produce identical compressed
//! bytes, and a store segment's length is a function of what was put.
//!
//! [`pack`]/[`unpack`] hold the storage rule for store record parts
//! (`nshot-store`, its only caller): a large part is kept as
//! `varint(raw_len) ++ compress(raw)` only when that is shorter. Wire
//! frames carry their payloads raw.

use crate::varint::{get_varint, put_varint, MAX_VARINT_LEN};
use crate::WireError;

/// Window size: how far back a match may reach.
pub const WINDOW: usize = 4096;
/// Shortest match worth a 2-byte token.
const MIN_MATCH: usize = 3;
/// Longest match one token can encode.
const MAX_MATCH: usize = 18;
/// Hash-chain probe budget per position (compression effort knob).
const MAX_PROBES: usize = 64;
/// Payloads below this size are never worth a compression attempt.
const PACK_MIN: usize = 64;

fn hash3(b: &[u8]) -> usize {
    let h = (u32::from(b[0]) << 16) ^ (u32::from(b[1]) << 8) ^ u32::from(b[2]);
    (h.wrapping_mul(0x9E37_79B1) >> 20) as usize & (WINDOW - 1)
}

/// Compress `raw`. The output does **not** record the raw length; the
/// caller frames it ([`pack`] stores the raw length as a varint next to the
/// compressed bytes).
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 8);
    // head[h] = most recent position with hash h; prev[pos & mask] = the
    // position before it in the same chain. usize::MAX = chain end.
    let mut head = vec![usize::MAX; WINDOW];
    let mut prev = vec![usize::MAX; WINDOW];

    let mut pos = 0;
    let mut flag_at = usize::MAX; // index of the current control byte
    let mut flag_bit = 8; // forces a fresh control byte on first token

    let mut push_flag = |out: &mut Vec<u8>, is_literal: bool| {
        if flag_bit == 8 {
            flag_at = out.len();
            out.push(0);
            flag_bit = 0;
        }
        if is_literal {
            out[flag_at] |= 1 << flag_bit;
        }
        flag_bit += 1;
    };

    while pos < raw.len() {
        let mut best_len = 0;
        let mut best_off = 0;
        if pos + MIN_MATCH <= raw.len() {
            let mut cand = head[hash3(&raw[pos..])];
            // A match token has 12 offset bits, so the farthest encodable
            // offset is WINDOW - 1: a distance of exactly WINDOW would wrap
            // to 0 and decode as "before start of output".
            let limit = pos.saturating_sub(WINDOW - 1);
            let max_len = MAX_MATCH.min(raw.len() - pos);
            for _ in 0..MAX_PROBES {
                let Some(c) = (cand != usize::MAX && cand >= limit).then_some(cand) else {
                    break;
                };
                let mut len = 0;
                while len < max_len && raw[c + len] == raw[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_off = pos - c;
                    if len == max_len {
                        break;
                    }
                }
                cand = prev[c & (WINDOW - 1)];
            }
        }

        let insert_span = if best_len >= MIN_MATCH {
            push_flag(&mut out, false);
            out.push((best_off & 0xff) as u8);
            out.push((((best_off >> 8) & 0x0f) << 4) as u8 | (best_len - MIN_MATCH) as u8);
            best_len
        } else {
            push_flag(&mut out, true);
            out.push(raw[pos]);
            1
        };
        // Index every position the token covered so later matches can
        // start inside it.
        for p in pos..pos + insert_span {
            if p + MIN_MATCH <= raw.len() {
                let h = hash3(&raw[p..]);
                prev[p & (WINDOW - 1)] = head[h];
                head[h] = p;
            }
        }
        pos += insert_span;
    }
    out
}

/// Decompress exactly `raw_len` bytes from `comp`.
///
/// # Errors
///
/// [`WireError::Truncated`] when the stream ends before `raw_len` bytes
/// are produced, [`WireError::Malformed`] for a match reaching before the
/// start of the output or a stream longer than its declared content.
pub fn decompress(comp: &[u8], raw_len: usize) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0;
    while out.len() < raw_len {
        let Some(&flags) = comp.get(i) else {
            return Err(WireError::Truncated {
                needed: i + 1,
                have: comp.len(),
            });
        };
        i += 1;
        for bit in 0..8 {
            if out.len() == raw_len {
                break;
            }
            if flags & (1 << bit) != 0 {
                let Some(&b) = comp.get(i) else {
                    return Err(WireError::Truncated {
                        needed: i + 1,
                        have: comp.len(),
                    });
                };
                i += 1;
                out.push(b);
            } else {
                let (Some(&lo), Some(&hi)) = (comp.get(i), comp.get(i + 1)) else {
                    return Err(WireError::Truncated {
                        needed: i + 2,
                        have: comp.len(),
                    });
                };
                i += 2;
                let off = usize::from(lo) | (usize::from(hi >> 4) << 8);
                let len = usize::from(hi & 0x0f) + MIN_MATCH;
                if off == 0 || off > out.len() {
                    return Err(WireError::Malformed("lzss match before start of output"));
                }
                if out.len() + len > raw_len {
                    return Err(WireError::Malformed("lzss match past declared length"));
                }
                let start = out.len() - off;
                // Byte-by-byte: matches may overlap their own output (the
                // classic run-length trick), so no memcpy of the whole span.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    if i != comp.len() {
        return Err(WireError::Malformed("lzss trailing bytes"));
    }
    Ok(out)
}

/// The compress-if-shorter rule: a payload of at least 64 bytes is stored
/// as `varint(raw_len) ++ compress(raw)` when that is strictly shorter than
/// `raw`. `None` means the store keeps `raw` as is, flag bit clear.
pub fn pack(raw: &[u8]) -> Option<Vec<u8>> {
    if raw.len() < PACK_MIN {
        return None;
    }
    let comp = compress(raw);
    let mut stored = Vec::with_capacity(MAX_VARINT_LEN + comp.len());
    put_varint(&mut stored, raw.len() as u64);
    stored.extend_from_slice(&comp);
    (stored.len() < raw.len()).then_some(stored)
}

/// Reverse [`pack`]. The raw length is checked against `max_raw` before
/// anything is allocated.
///
/// # Errors
///
/// [`WireError::TooLong`] for a raw length over `max_raw`, otherwise the
/// varint and [`decompress`] errors.
pub fn unpack(stored: &[u8], max_raw: u64) -> Result<Vec<u8>, WireError> {
    let (raw_len, used) = get_varint(stored)?;
    if raw_len > max_raw {
        return Err(WireError::TooLong {
            len: raw_len,
            max: max_raw,
        });
    }
    decompress(&stored[used..], raw_len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) {
        let comp = compress(raw);
        let back = decompress(&comp, raw.len()).expect("decompress");
        assert_eq!(back, raw);
    }

    #[test]
    fn round_trips_representative_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abcabcabcabcabcabc");
        roundtrip(&vec![0u8; 10_000]);
        roundtrip(&(0u32..5000).flat_map(|i| i.to_le_bytes()).collect::<Vec<_>>());
        let blif_like = ".names a b c\n110 1\n101 1\n.names c d e\n110 1\n101 1\n"
            .repeat(200)
            .into_bytes();
        roundtrip(&blif_like);
    }

    #[test]
    fn repetitive_text_shrinks_severalfold() {
        let raw = ".names req ack out\n110 1\n101 1\n011 1\n".repeat(300).into_bytes();
        let comp = compress(&raw);
        assert!(
            comp.len() * 3 < raw.len(),
            "expected ≥3x on repetitive text, got {} -> {}",
            raw.len(),
            comp.len()
        );
    }

    #[test]
    fn compression_is_deterministic() {
        let raw = b"determinism determinism determinism".repeat(50);
        assert_eq!(compress(&raw), compress(&raw));
    }

    #[test]
    fn truncated_streams_are_typed_errors() {
        let raw = b"hello hello hello hello hello".repeat(20);
        let comp = compress(&raw);
        for cut in 0..comp.len() {
            match decompress(&comp[..cut], raw.len()) {
                Err(WireError::Truncated { .. } | WireError::Malformed(_)) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn matches_cannot_read_before_the_output() {
        // Control byte: first flag 0 (match), offset 5 with nothing written.
        let bogus = [0b0000_0000u8, 5, 0x00];
        assert!(matches!(
            decompress(&bogus, 8),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn match_at_window_edge_roundtrips() {
        // A repeat at distance exactly WINDOW used to encode as offset 0
        // (the 12-bit field wraps), which the decoder rejects. The marker
        // bytes stay below 0x80 and the filler at or above it, so the only
        // cross-filler match candidate is the one at distance WINDOW.
        let marker = b"marker!!";
        let mut raw = marker.to_vec();
        raw.extend((0..WINDOW - marker.len()).map(|i| (i % 120 + 128) as u8));
        raw.extend_from_slice(marker);
        assert_eq!(raw.len(), WINDOW + marker.len());
        roundtrip(&raw);
    }

    #[test]
    fn pack_keeps_only_shrinking_payloads_and_unpack_caps_length() {
        assert_eq!(pack(&b"ab".repeat(31)), None, "below the 64-byte floor");
        let noise: Vec<u8> = (0u32..64)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        assert_eq!(pack(&noise), None, "incompressible payloads stay raw");
        let raw = b"pack pack pack ".repeat(20);
        let stored = pack(&raw).expect("repetitive payload packs");
        assert!(stored.len() < raw.len());
        assert_eq!(unpack(&stored, raw.len() as u64).expect("unpack"), raw);
        assert!(matches!(
            unpack(&stored, raw.len() as u64 - 1),
            Err(WireError::TooLong { .. })
        ));
    }

    #[test]
    fn overlapping_matches_replay_runs() {
        // "aaaaaaaa…" exercises the off=1 overlap path.
        let raw = vec![b'a'; 1000];
        roundtrip(&raw);
        let comp = compress(&raw);
        assert!(comp.len() < 200, "runs must collapse, got {}", comp.len());
    }
}
