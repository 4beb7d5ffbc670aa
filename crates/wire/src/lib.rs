//! # nshot-wire — the versioned binary wire encoding
//!
//! One length-framed, CRC-checked, versioned binary encoding for the
//! server and shard front (per-connection `format: binary` negotiation,
//! responses streamed record-by-record). JSON-over-NDJSON stays available
//! as the negotiated fallback for debuggability; this crate is the
//! binary path.
//!
//! The crate deliberately sits at the bottom of the dependency graph
//! (only `nshot-obs`, for the decode-error counter): `nshot-store`
//! borrows its checksum for record frames, and `nshot-server` builds its
//! record payloads (requests, response heads, fields) on the primitives
//! here.
//!
//! * [`frame`] — the record frame: tag byte, format version byte, varint
//!   length, raw payload, u32 CRC trailer.
//! * [`varint`] — LEB128 unsigned integers.
//! * [`crc32`] — CRC-32/ISO-HDLC, the one checksum frames and store use.
//!
//! Every decoder in this crate returns a typed [`WireError`] — never a
//! panic, never an over-read, never an unbounded allocation (lengths are
//! capped before allocating). Decode failures are counted in the
//! process-global `nshot_wire_decode_errors_total` counter so a misbehaving
//! client population is visible in any metrics scrape.

pub mod crc32;
pub mod frame;
pub mod varint;

pub use frame::{decode_frame, encode_frame, read_frame, Frame, MAX_FRAME_PAYLOAD};
pub use varint::{get_varint, put_varint};

use nshot_obs::{Counter, Registry};
use std::sync::{Arc, OnceLock};

/// The wire-format version stamped in every frame. Bump on any change to
/// the frame layout or record payload encodings — the golden wire
/// fixtures fail until it is bumped, and a peer speaking another version
/// gets a typed [`WireError::BadVersion`].
pub const WIRE_VERSION: u8 = 2;

/// Record tags (a frame's first byte).
pub mod tags {
    /// A request envelope (id + op + op-specific fields).
    pub const REQUEST: u8 = 1;
    /// The response head: id, code, status and the stamped-on call fields.
    pub const RESPONSE_HEAD: u8 = 2;
    /// One deterministic response body field (name + value).
    pub const FIELD: u8 = 3;
    /// End of a response record stream (carries the field count).
    pub const END: u8 = 4;

    /// Is `tag` a known record tag?
    pub fn is_known(tag: u8) -> bool {
        (REQUEST..=END).contains(&tag)
    }
}

/// Everything that can go wrong decoding wire bytes. Every variant is a
/// *structured* refusal: decoders never panic, never over-read, and cap
/// allocations before trusting a length prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ends before the structure it declares.
    Truncated {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The frame's format version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// Unknown record tag.
    BadTag(u8),
    /// The CRC trailer does not match the frame bytes.
    BadCrc {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC found in the trailer.
        found: u32,
    },
    /// A varint is non-canonical or overflows a `u64`.
    BadVarint,
    /// A declared length exceeds the hard cap.
    TooLong {
        /// The declared length.
        len: u64,
        /// The cap it violated.
        max: u64,
    },
    /// A payload is structurally invalid (bad value type byte, bad UTF-8,
    /// …).
    Malformed(&'static str),
    /// A transport error while reading frames (not a decode failure).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated: needed {needed} bytes, have {have}")
            }
            WireError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::BadTag(t) => write!(f, "unknown record tag {t}"),
            WireError::BadCrc { expected, found } => {
                write!(f, "crc mismatch: computed {expected:#010x}, frame says {found:#010x}")
            }
            WireError::BadVarint => write!(f, "malformed varint"),
            WireError::TooLong { len, max } => {
                write!(f, "declared length {len} exceeds cap {max}")
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(kind) => write!(f, "io error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Count this error in `nshot_wire_decode_errors_total` (transport
    /// [`WireError::Io`] failures are not decode errors and not counted)
    /// and pass it through — used at the public decode boundaries.
    pub fn noted(self) -> WireError {
        if !matches!(self, WireError::Io(_)) {
            decode_errors().inc();
        }
        self
    }
}

/// The process-global decode-error counter, registered on first use in
/// [`nshot_obs::Registry::global`] so it shows up in every metrics scrape.
pub fn decode_errors() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| Registry::global().counter("nshot_wire_decode_errors_total"))
}

/// Current value of `nshot_wire_decode_errors_total`.
pub fn decode_errors_total() -> u64 {
    decode_errors().get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable() {
        // The wire spec (DESIGN.md §4k) names these numbers; changing one
        // is a format change and must bump WIRE_VERSION.
        assert_eq!(WIRE_VERSION, 2);
        assert_eq!(tags::REQUEST, 1);
        assert_eq!(tags::RESPONSE_HEAD, 2);
        assert_eq!(tags::FIELD, 3);
        assert_eq!(tags::END, 4);
        assert!(!tags::is_known(0));
        // 5..=7 were the retired artifact records, 0x80 the version-1
        // compression bit.
        assert!(!tags::is_known(5));
        assert!(!tags::is_known(tags::FIELD | 0x80));
    }

    #[test]
    fn metric_is_registered_on_first_use() {
        let _ = decode_errors();
        let text = Registry::global().render_prometheus();
        assert!(text.contains("nshot_wire_decode_errors_total"));
    }
}
