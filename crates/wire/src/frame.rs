//! Length-framed, versioned, CRC-checked record frames.
//!
//! One frame on the wire:
//!
//! ```text
//! +--------+-----------+-------------------+---------------+-----------+
//! | tag u8 | version   | payload_len       | payload bytes | crc32 LE  |
//! |        | u8 (= 2)  | varint (LEB128)   | (raw)         | over all  |
//! |        |           |                   |               | prior     |
//! +--------+-----------+-------------------+---------------+-----------+
//! ```
//!
//! The CRC covers every byte before it (tag, version, length varint and
//! the payload), so a flipped bit anywhere in the frame is caught. The
//! payload is stored as is: frames travel over loopback and short links,
//! where compressing them costs encode time and buys nothing measurable.
//! Encoding is deterministic, so decode→re-encode reproduces the original
//! frame bytes exactly — the property the shard front's relay path and
//! the golden fixtures rely on.

use crate::varint::{get_varint, put_varint};
use crate::{crc32::crc32, tags, WireError, WIRE_VERSION};
use std::io::BufRead;

/// Hard cap on one frame's payload: a hostile length prefix must not be
/// able to commit the decoder to a giant allocation.
pub const MAX_FRAME_PAYLOAD: u64 = 64 * 1024 * 1024;

/// One decoded frame: the record tag and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Record tag (see [`crate::tags`]).
    pub tag: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Re-encode this frame. Deterministic: equal frames encode to equal
    /// bytes, so decode → encode is the identity on valid frames.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.tag, &self.payload)
    }
}

/// Encode one frame.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    debug_assert!(tags::is_known(tag), "unknown record tag {tag}");
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.push(tag);
    out.push(WIRE_VERSION);
    put_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validate the header fields and return `(tag, payload_len,
/// header_len)`. Shared by the buffer and reader decode paths.
fn decode_header(buf: &[u8]) -> Result<(u8, usize, usize), WireError> {
    let [tag, version, ..] = *buf else {
        return Err(WireError::Truncated {
            needed: 2,
            have: buf.len(),
        });
    };
    if !tags::is_known(tag) {
        return Err(WireError::BadTag(tag));
    }
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let (payload_len, var_len) = get_varint(&buf[2..])?;
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(WireError::TooLong {
            len: payload_len,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    Ok((tag, payload_len as usize, 2 + var_len))
}

/// Check the trailer CRC of a whole frame occupying
/// `buf[..header_len + payload_len + 4]` and copy out its payload.
fn finish_frame(
    buf: &[u8],
    tag: u8,
    payload_len: usize,
    header_len: usize,
) -> Result<Frame, WireError> {
    let body_end = header_len + payload_len;
    let expected = crc32(&buf[..body_end]);
    let found = u32::from_le_bytes(
        buf[body_end..body_end + 4]
            .try_into()
            .expect("4 trailer bytes"),
    );
    if expected != found {
        return Err(WireError::BadCrc { expected, found });
    }
    Ok(Frame {
        tag,
        payload: buf[header_len..body_end].to_vec(),
    })
}

/// Decode one frame from the front of `buf`; returns the frame and the
/// number of bytes consumed. Never reads past the returned length.
///
/// # Errors
///
/// Every malformation is a typed [`WireError`] (and counted in
/// `nshot_wire_decode_errors_total`); the decoder never panics and never
/// reads beyond `buf`.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    decode_frame_inner(buf).map_err(WireError::noted)
}

fn decode_frame_inner(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    let (tag, payload_len, header_len) = decode_header(buf)?;
    let total = header_len + payload_len + 4;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let frame = finish_frame(buf, tag, payload_len, header_len)?;
    Ok((frame, total))
}

/// Read one frame from a buffered reader. `Ok(None)` is a clean EOF at a
/// frame boundary; EOF anywhere inside a frame is [`WireError::Truncated`].
///
/// # Errors
///
/// Typed [`WireError`] for malformed frames (counted in
/// `nshot_wire_decode_errors_total`), [`WireError::Io`] for transport
/// failures.
pub fn read_frame<R: BufRead>(reader: &mut R) -> Result<Option<Frame>, WireError> {
    read_frame_inner(reader).map_err(WireError::noted)
}

fn read_frame_inner<R: BufRead>(reader: &mut R) -> Result<Option<Frame>, WireError> {
    // Tag byte: the only place EOF is clean.
    let mut buf = vec![0u8; 1];
    match reader.read(&mut buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(WireError::Io(e.kind())),
    }
    // Version byte, then the length varint one byte at a time (at most 10).
    read_byte_into(reader, &mut buf)?;
    loop {
        let b = read_byte_into(reader, &mut buf)?;
        if b & 0x80 == 0 {
            break;
        }
        if buf.len() > 2 + crate::varint::MAX_VARINT_LEN {
            return Err(WireError::BadVarint);
        }
    }
    let (tag, payload_len, header_len) = decode_header(&buf)?;
    debug_assert_eq!(header_len, buf.len());
    buf.resize(header_len + payload_len + 4, 0);
    match reader.read_exact(&mut buf[header_len..]) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Err(WireError::Truncated {
                needed: header_len + payload_len + 4,
                have: header_len,
            })
        }
        Err(e) => return Err(WireError::Io(e.kind())),
    }
    finish_frame(&buf, tag, payload_len, header_len).map(Some)
}

fn read_byte_into<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> Result<u8, WireError> {
    let mut byte = [0u8; 1];
    match reader.read_exact(&mut byte) {
        Ok(()) => {
            buf.push(byte[0]);
            Ok(byte[0])
        }
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(WireError::Truncated {
            needed: buf.len() + 1,
            have: buf.len(),
        }),
        Err(e) => Err(WireError::Io(e.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags;

    #[test]
    fn round_trips_small_and_large_payloads() {
        for payload in [
            Vec::new(),
            b"x".to_vec(),
            b"hello frame".to_vec(),
            ".names a b c\n11 1\n".repeat(500).into_bytes(),
        ] {
            let bytes = encode_frame(tags::FIELD, &payload);
            let (frame, used) = decode_frame(&bytes).expect("decode");
            assert_eq!(used, bytes.len());
            assert_eq!(frame.tag, tags::FIELD);
            assert_eq!(frame.payload, payload);
            // decode → encode is the identity.
            assert_eq!(frame.encode(), bytes);
        }
    }

    #[test]
    fn payloads_are_stored_raw() {
        let payload = ".names a b c\n11 1\n".repeat(500).into_bytes();
        let bytes = encode_frame(tags::FIELD, &payload);
        assert_eq!(bytes[0], tags::FIELD);
        assert_eq!(
            &bytes[bytes.len() - 4 - payload.len()..bytes.len() - 4],
            payload
        );
    }

    #[test]
    fn a_tag_with_bit7_set_is_a_bad_tag() {
        // Version 1 used bit 7 to flag a compressed payload; version 2 has
        // no such bit, so the byte is simply an unknown tag — on both the
        // buffer and the reader path, whatever the CRC says.
        for tag in [tags::REQUEST, tags::RESPONSE_HEAD, tags::FIELD, tags::END] {
            let mut bytes = encode_frame(tag, b"payload");
            bytes[0] |= 0x80;
            let body_end = bytes.len() - 4;
            let crc = crc32(&bytes[..body_end]);
            bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(decode_frame(&bytes), Err(WireError::BadTag(tag | 0x80)));
            let mut r = std::io::Cursor::new(bytes);
            assert_eq!(read_frame(&mut r), Err(WireError::BadTag(tag | 0x80)));
        }
    }

    #[test]
    fn reader_path_matches_buffer_path() {
        let a = encode_frame(tags::REQUEST, b"abc");
        let b = encode_frame(tags::END, &[]);
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut r = std::io::Cursor::new(stream);
        let fa = read_frame(&mut r).expect("read a").expect("some");
        let fb = read_frame(&mut r).expect("read b").expect("some");
        assert_eq!(fa.tag, tags::REQUEST);
        assert_eq!(fa.payload, b"abc");
        assert_eq!(fb.tag, tags::END);
        assert!(read_frame(&mut r).expect("eof").is_none(), "clean EOF");
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode_frame(tags::FIELD, b"truncate me truncate me truncate me");
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut {cut}: {other:?}"),
            }
            // The reader path must agree (EOF mid-frame is truncation).
            if cut > 0 {
                let mut r = std::io::Cursor::new(bytes[..cut].to_vec());
                match read_frame(&mut r) {
                    Err(WireError::Truncated { .. }) => {}
                    other => panic!("reader cut {cut}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn flipped_bytes_are_caught() {
        let bytes = encode_frame(tags::RESPONSE_HEAD, b"payload payload payload");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn bad_tag_version_and_length_are_typed() {
        let good = encode_frame(tags::END, &[]);
        let mut bad_tag = good.clone();
        bad_tag[0] = 0x7f;
        assert!(matches!(decode_frame(&bad_tag), Err(WireError::BadTag(0x7f))));
        let mut bad_ver = good.clone();
        bad_ver[1] = 9;
        assert!(matches!(
            decode_frame(&bad_ver),
            Err(WireError::BadVersion(9))
        ));
        // A length claiming more than the cap must be rejected before any
        // allocation of that size.
        let mut huge = vec![tags::FIELD, WIRE_VERSION];
        crate::varint::put_varint(&mut huge, MAX_FRAME_PAYLOAD + 1);
        huge.extend_from_slice(&[0; 8]);
        assert!(matches!(decode_frame(&huge), Err(WireError::TooLong { .. })));
    }

    #[test]
    fn decode_errors_are_counted() {
        let before = crate::decode_errors_total();
        let _ = decode_frame(&[0x7f, WIRE_VERSION, 0, 0, 0, 0, 0]);
        assert!(crate::decode_errors_total() > before);
    }
}
