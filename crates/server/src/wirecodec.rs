//! Binary payload encodings for the protocol, built on `nshot-wire`.
//!
//! `nshot-wire` owns the *frame* layer (tag, version, varint length, CRC
//! trailer); this module owns what rides inside the frames once a
//! connection has negotiated `format: binary`:
//!
//! * a **value encoding** mirroring [`Json`] (type byte, then the
//!   payload), so any field the NDJSON protocol can carry travels in
//!   binary without a schema change;
//! * the **request envelope** (`REQUEST` frames): id value, op byte, then
//!   the op-specific fields. The bytes come from the protocol's wire
//!   tables and the decoded request passes the same validate step as
//!   [`crate::protocol::parse_request`], so a binary client cannot sneak
//!   past the JSON path's caps;
//! * the **response stream** (`RESPONSE_HEAD`, one `FIELD` per body
//!   field, `END` with the field count) — responses go out record by
//!   record instead of as one rendered line;
//! * the **store value encoding** (`RESPONSE_STORE_VERSION` 2): code,
//!   status byte and the structured body, replacing the version-1
//!   deterministic-field JSON string.
//!
//! Decoding failures split in two: structural damage (truncation, bad
//! type byte, bad UTF-8) is a typed [`WireError`] — counted in
//! `nshot_wire_decode_errors_total`, and the connection is closed because
//! framing can no longer be trusted; a *well-formed* envelope carrying an
//! invalid request (unknown op byte, oversized `trials`) is a semantic
//! error answered with a 400 response, exactly like the JSON path.
//!
//! Determinism note: numbers are IEEE-754 bit patterns (little-endian),
//! strings are raw UTF-8, and object/array order is preserved, so
//! decode → re-render reproduces the NDJSON rendering byte for byte. The
//! differential tests (`tests/wire_differential.rs`) hold both paths to
//! that.

use crate::json::{self, Json, MAX_VALUE_DEPTH};
use crate::protocol::{
    saturate, validate, Decoded, Envelope, Op, Request, Response, SynthRequest, VerifyRequest,
    WireEnum,
};
use nshot_wire::{encode_frame, get_varint, put_varint, read_frame, tags, Frame, WireError};
use std::io::BufRead;

/// Value type bytes.
mod ty {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const NUM: u8 = 3;
    pub const STR: u8 = 4;
    pub const ARR: u8 = 5;
    pub const OBJ: u8 = 6;
}

/// A bounds-checked read cursor over one frame payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16_le(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn f64_le(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let (v, used) = get_varint(&self.buf[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    /// A length-prefixed UTF-8 string. The length is capped by the bytes
    /// actually present, so a hostile prefix cannot force an allocation.
    fn str_(&mut self) -> Result<String, WireError> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(WireError::Truncated {
                needed: self.pos + len as usize,
                have: self.buf.len(),
            });
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-utf8 string"))
    }

    /// One enum byte, looked up in the enum's wire table: a missing byte
    /// is damage, an unknown one a refusal.
    fn pick<E: WireEnum>(&mut self) -> Result<E, Refusal> {
        Ok(E::from_byte(self.u8()?)?)
    }

    fn bool_(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bad bool byte")),
        }
    }

    /// Reject trailing bytes: every payload must be consumed exactly.
    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, WireError> {
        if depth >= MAX_VALUE_DEPTH {
            return Err(WireError::Malformed("value nested too deeply"));
        }
        match self.u8()? {
            ty::NULL => Ok(Json::Null),
            ty::FALSE => Ok(Json::Bool(false)),
            ty::TRUE => Ok(Json::Bool(true)),
            ty::NUM => {
                let n = self.f64_le()?;
                if !n.is_finite() {
                    return Err(WireError::Malformed("non-finite number"));
                }
                Ok(Json::Num(n))
            }
            ty::STR => Ok(Json::Str(self.str_()?)),
            ty::ARR => {
                let count = self.varint()?;
                // Each element costs ≥ 1 byte, so the element count is
                // bounded by the bytes left — checked before reserving.
                if count > self.remaining() as u64 {
                    return Err(WireError::Malformed("array count exceeds payload"));
                }
                let mut items = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            ty::OBJ => {
                let count = self.varint()?;
                if count > self.remaining() as u64 {
                    return Err(WireError::Malformed("object count exceeds payload"));
                }
                let mut pairs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let key = self.str_()?;
                    pairs.push((key, self.value(depth + 1)?));
                }
                Ok(Json::Obj(pairs))
            }
            _ => Err(WireError::Malformed("unknown value type byte")),
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Encode one [`Json`] value (type byte + payload). Deterministic: equal
/// values encode to equal bytes.
pub fn encode_value(out: &mut Vec<u8>, value: &Json) {
    match value {
        Json::Null => out.push(ty::NULL),
        Json::Bool(false) => out.push(ty::FALSE),
        Json::Bool(true) => out.push(ty::TRUE),
        Json::Num(n) => {
            out.push(ty::NUM);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Json::Str(s) => {
            out.push(ty::STR);
            put_str(out, s);
        }
        Json::Arr(items) => {
            out.push(ty::ARR);
            put_varint(out, items.len() as u64);
            for v in items {
                encode_value(out, v);
            }
        }
        Json::Obj(pairs) => {
            out.push(ty::OBJ);
            put_varint(out, pairs.len() as u64);
            for (k, v) in pairs {
                put_str(out, k);
                encode_value(out, v);
            }
        }
    }
}

/// Decode one [`Json`] value occupying the whole buffer.
///
/// # Errors
///
/// Typed [`WireError`] (counted) — never a panic, never an over-read.
pub fn decode_value(buf: &[u8]) -> Result<Json, WireError> {
    (|| {
        let mut cur = Cur::new(buf);
        let v = cur.value(0)?;
        cur.done()?;
        Ok(v)
    })()
    .map_err(WireError::noted)
}

fn status_byte(status: &str) -> u8 {
    match status {
        "ok" => 0,
        "rejected" => 2,
        _ => 1,
    }
}

fn status_name(byte: u8) -> Result<&'static str, WireError> {
    match byte {
        0 => Ok("ok"),
        1 => Ok("error"),
        2 => Ok("rejected"),
        _ => Err(WireError::Malformed("unknown status byte")),
    }
}

/// How decoding a `REQUEST` frame payload can fail.
#[derive(Debug)]
pub enum RequestDecodeError {
    /// Structural damage — the connection's framing can no longer be
    /// trusted, so the server closes it (after counting the error).
    Frame(WireError),
    /// A well-formed envelope carrying an invalid request: answered with
    /// a 400 response carrying the recovered id, like the JSON path.
    Invalid {
        /// Correlation id recovered from the envelope.
        id: Json,
        /// Human-readable refusal, mirroring `parse_request`'s wording.
        message: String,
    },
}

/// Encode one request envelope as a complete `REQUEST` frame.
///
/// # Errors
///
/// [`WireError::Malformed`] for [`Request::Hello`] — negotiation is
/// NDJSON-only (a binary connection has, by definition, already said
/// hello).
pub fn encode_request(env: &Envelope) -> Result<Vec<u8>, WireError> {
    let mut p = Vec::new();
    encode_value(&mut p, &env.id);
    p.push(env.request.op().byte());
    match &env.request {
        Request::Synth(s) => {
            p.push(s.method.byte());
            p.push(s.minimizer.byte());
            put_varint(&mut p, s.trials as u64);
            p.push(s.format.byte());
            p.push(u8::from(s.share));
            put_str(&mut p, &s.spec);
        }
        Request::Verify(v) => {
            p.push(v.minimizer.byte());
            put_varint(&mut p, v.max_states as u64);
            put_str(&mut p, &v.spec);
        }
        Request::Metrics | Request::Ping | Request::Shutdown => {}
        Request::Hello { .. } => return Err(WireError::Malformed("hello is json-only")),
    }
    Ok(encode_frame(tags::REQUEST, &p))
}

/// Why a `REQUEST` payload after its id did not decode: damage, or a
/// refusal answered with a 400.
enum Refusal {
    Frame(WireError),
    Invalid(String),
}

impl From<WireError> for Refusal {
    fn from(e: WireError) -> Refusal {
        Refusal::Frame(e)
    }
}

impl From<String> for Refusal {
    fn from(message: String) -> Refusal {
        Refusal::Invalid(message)
    }
}

/// Decode a `REQUEST` frame payload, applying the same validation limits
/// as the JSON parser.
///
/// # Errors
///
/// [`RequestDecodeError`] — structural damage closes the connection,
/// semantic refusals become 400 responses.
pub fn decode_request(payload: &[u8]) -> Result<Envelope, RequestDecodeError> {
    let mut cur = Cur::new(payload);
    let id = cur
        .value(0)
        .map_err(|e| RequestDecodeError::Frame(e.noted()))?;
    match decode_body(&mut cur) {
        Ok(request) => Ok(Envelope { id, request }),
        Err(Refusal::Frame(e)) => Err(RequestDecodeError::Frame(e.noted())),
        Err(Refusal::Invalid(message)) => Err(RequestDecodeError::Invalid { id, message }),
    }
}

/// The request after the id, read in [`encode_request`]'s field order
/// (struct fields evaluate in the order written), then validated.
fn decode_body(cur: &mut Cur) -> Result<Request, Refusal> {
    let request = match cur.pick::<Op>()? {
        Op::Synth => Request::Synth(SynthRequest {
            method: cur.pick()?,
            minimizer: cur.pick()?,
            trials: saturate(cur.varint()?),
            format: cur.pick()?,
            share: cur.bool_()?,
            spec: cur.str_()?,
        }),
        Op::Verify => Request::Verify(VerifyRequest {
            minimizer: cur.pick()?,
            max_states: saturate(cur.varint()?),
            spec: cur.str_()?,
        }),
        Op::Metrics => Request::Metrics,
        Op::Ping => Request::Ping,
        Op::Shutdown => Request::Shutdown,
        Op::Hello => return Err(Refusal::Invalid("hello is json-only".into())),
    };
    cur.done()?;
    Ok(validate(request)?)
}

/// Decode one inbound frame for a request handler, in
/// [`crate::protocol::parse_request`]'s result shape. `None` is structural
/// damage (already counted): the connection's framing can no longer be
/// trusted, so the handler closes it. A valid frame of the wrong kind is
/// an answerable refusal, like a JSON line with an unknown op.
pub fn decode_request_frame(frame: &Frame) -> Option<Decoded> {
    if frame.tag != tags::REQUEST {
        return Some(Err((
            Json::Null,
            format!("expected a request frame, got tag {}", frame.tag),
        )));
    }
    match decode_request(&frame.payload) {
        Ok(env) => Some(Ok(env)),
        Err(RequestDecodeError::Invalid { id, message }) => Some(Err((id, message))),
        Err(RequestDecodeError::Frame(_)) => None,
    }
}

/// One decoded `RESPONSE_HEAD`: everything a response line carries outside
/// the deterministic body fields.
#[derive(Debug, PartialEq)]
pub struct ResponseHead {
    /// Echoed correlation id.
    pub id: Json,
    /// HTTP-flavoured status code.
    pub code: u16,
    /// `"ok"`, `"error"` or `"rejected"`.
    pub status: &'static str,
    /// Whether the deterministic body was served from the response cache.
    pub cached: bool,
    /// Wall-clock service time in µs, stamped at send time.
    pub service_us: u64,
    /// The request's trace id.
    pub trace: u64,
    /// The per-stage timing object, pre-rendered as JSON (empty = absent),
    /// exactly as the NDJSON path would append it.
    pub timing_json: String,
}

/// Encode one complete response as its frame stream: `RESPONSE_HEAD`, one
/// `FIELD` per body field, then `END` carrying the field count.
///
/// The flat argument list is the signature `e2ebench` calls; it is kept as
/// is so the benchmark package keeps building.
#[allow(clippy::too_many_arguments)]
pub fn encode_response_frames(
    id: &Json,
    code: u16,
    status: &str,
    body: &[(String, Json)],
    cached: bool,
    service_us: u64,
    trace: u64,
    timing_json: &str,
) -> Vec<Vec<u8>> {
    let mut head = Vec::new();
    encode_value(&mut head, id);
    head.extend_from_slice(&code.to_le_bytes());
    head.push(status_byte(status));
    head.push(u8::from(cached));
    put_varint(&mut head, service_us);
    put_varint(&mut head, trace);
    if timing_json.is_empty() {
        encode_value(&mut head, &Json::Null);
    } else {
        encode_value(&mut head, &Json::Str(timing_json.to_owned()));
    }

    let mut frames = Vec::with_capacity(body.len() + 2);
    frames.push(encode_frame(tags::RESPONSE_HEAD, &head));
    for (k, v) in body {
        let mut field = Vec::new();
        put_str(&mut field, k);
        encode_value(&mut field, v);
        frames.push(encode_frame(tags::FIELD, &field));
    }
    let mut end = Vec::new();
    put_varint(&mut end, body.len() as u64);
    frames.push(encode_frame(tags::END, &end));
    frames
}

/// Decode a `RESPONSE_HEAD` payload.
///
/// # Errors
///
/// Typed [`WireError`] (counted).
pub fn decode_response_head(payload: &[u8]) -> Result<ResponseHead, WireError> {
    (|| {
        let mut cur = Cur::new(payload);
        let id = cur.value(0)?;
        let code = cur.u16_le()?;
        let status = status_name(cur.u8()?)?;
        let cached = cur.bool_()?;
        let service_us = cur.varint()?;
        let trace = cur.varint()?;
        let timing_json = match cur.value(0)? {
            Json::Null => String::new(),
            Json::Str(s) => s,
            _ => return Err(WireError::Malformed("timing must be a string or null")),
        };
        cur.done()?;
        Ok(ResponseHead {
            id,
            code,
            status,
            cached,
            service_us,
            trace,
            timing_json,
        })
    })()
    .map_err(WireError::noted)
}

/// Decode one `FIELD` payload into its `(name, value)` pair.
///
/// # Errors
///
/// Typed [`WireError`] (counted).
pub fn decode_field(payload: &[u8]) -> Result<(String, Json), WireError> {
    (|| {
        let mut cur = Cur::new(payload);
        let key = cur.str_()?;
        let value = cur.value(0)?;
        cur.done()?;
        Ok((key, value))
    })()
    .map_err(WireError::noted)
}

/// Decode an `END` payload into the field count it declares.
///
/// # Errors
///
/// Typed [`WireError`] (counted).
pub fn decode_end(payload: &[u8]) -> Result<u64, WireError> {
    (|| {
        let mut cur = Cur::new(payload);
        let count = cur.varint()?;
        cur.done()?;
        Ok(count)
    })()
    .map_err(WireError::noted)
}

/// Read one full response stream (head, fields, end) and assemble the
/// same object shape the NDJSON line parses to — key order included — so
/// callers compare the two transports value for value.
///
/// # Errors
///
/// Typed [`WireError`]; a clean EOF before the head is
/// [`WireError::Io`]`(UnexpectedEof)`, mid-stream EOF is truncation.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Json, WireError> {
    let head = match read_frame(reader)? {
        None => return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof)),
        Some(f) if f.tag == tags::RESPONSE_HEAD => decode_response_head(&f.payload)?,
        Some(_) => {
            return Err(WireError::Malformed("expected a response head frame").noted())
        }
    };
    let mut body: Vec<(String, Json)> = Vec::new();
    loop {
        match read_frame(reader)? {
            None => {
                return Err(WireError::Truncated {
                    needed: 1,
                    have: 0,
                })
            }
            Some(f) if f.tag == tags::FIELD => body.push(decode_field(&f.payload)?),
            Some(f) if f.tag == tags::END => {
                let declared = decode_end(&f.payload)?;
                if declared != body.len() as u64 {
                    return Err(WireError::Malformed("field count mismatch").noted());
                }
                break;
            }
            Some(_) => {
                return Err(WireError::Malformed("unexpected frame in response stream").noted())
            }
        }
    }

    let mut pairs = vec![
        ("id".to_owned(), head.id),
        ("code".to_owned(), Json::Num(f64::from(head.code))),
        ("status".to_owned(), Json::Str(head.status.to_owned())),
    ];
    pairs.extend(body);
    pairs.push(("cached".to_owned(), Json::Bool(head.cached)));
    pairs.push(("service_us".to_owned(), Json::Num(head.service_us as f64)));
    pairs.push(("trace".to_owned(), Json::Num(head.trace as f64)));
    if !head.timing_json.is_empty() {
        let timing = json::parse(&head.timing_json)
            .map_err(|_| WireError::Malformed("bad timing json").noted())?;
        pairs.push(("timing".to_owned(), timing));
    }
    Ok(Json::Obj(pairs))
}

/// Split an assembled response object (the shape [`read_response`]
/// returns and an NDJSON line parses to) back into its frame stream —
/// the inverse of [`read_response`]. The shard front uses this to relay
/// a backend's NDJSON answer to a binary-framed client; because the value
/// encoding is deterministic, relayed deterministic fields stay
/// byte-identical to a direct binary call.
///
/// # Errors
///
/// [`WireError::Malformed`] when the object is missing the envelope
/// fields (`id`, `code`, `status`, `cached`, `service_us`, `trace`) or
/// they have the wrong types.
pub fn encode_response_obj(obj: &Json) -> Result<Vec<Vec<u8>>, WireError> {
    let Json::Obj(pairs) = obj else {
        return Err(WireError::Malformed("response must be an object"));
    };
    let field = |name: &'static str| {
        pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or(WireError::Malformed("response missing an envelope field"))
    };
    let id = field("id")?;
    let code = field("code")?
        .as_u64()
        .and_then(|n| u16::try_from(n).ok())
        .ok_or(WireError::Malformed("bad response code"))?;
    let status = match field("status")?.as_str() {
        Some("ok") => "ok",
        Some("error") => "error",
        Some("rejected") => "rejected",
        _ => return Err(WireError::Malformed("bad response status")),
    };
    let cached = field("cached")?
        .as_bool()
        .ok_or(WireError::Malformed("bad cached flag"))?;
    let service_us = field("service_us")?
        .as_u64()
        .ok_or(WireError::Malformed("bad service_us"))?;
    let trace = field("trace")?
        .as_u64()
        .ok_or(WireError::Malformed("bad trace"))?;
    let timing_json = match pairs.iter().find(|(k, _)| k == "timing") {
        Some((_, t)) => t.to_string(),
        None => String::new(),
    };
    // The body is everything that is not envelope: the fields between
    // `status` and `cached` in render order.
    const ENVELOPE: [&str; 7] =
        ["id", "code", "status", "cached", "service_us", "trace", "timing"];
    let body: Vec<(String, Json)> = pairs
        .iter()
        .filter(|(k, _)| !ENVELOPE.contains(&k.as_str()))
        .cloned()
        .collect();
    Ok(encode_response_frames(
        id,
        code,
        status,
        &body,
        cached,
        service_us,
        trace,
        &timing_json,
    ))
}

/// Encode the version-2 store value for a persisted response: code,
/// status byte, then the structured body.
pub fn encode_response_value(code: u16, status: &str, body: &[(String, Json)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&code.to_le_bytes());
    out.push(status_byte(status));
    put_varint(&mut out, body.len() as u64);
    for (k, v) in body {
        put_str(&mut out, k);
        encode_value(&mut out, v);
    }
    out
}

/// Decode a version-2 store value back into a [`Response`].
///
/// # Errors
///
/// Typed [`WireError`] (counted) — a damaged store record is skipped by
/// the caller, never served.
pub fn decode_response_value(bytes: &[u8]) -> Result<Response, WireError> {
    (|| {
        let mut cur = Cur::new(bytes);
        let code = cur.u16_le()?;
        let status = status_name(cur.u8()?)?;
        let count = cur.varint()?;
        if count > cur.remaining() as u64 {
            return Err(WireError::Malformed("field count exceeds payload"));
        }
        let mut body = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let key = cur.str_()?;
            body.push((key, cur.value(0)?));
        }
        cur.done()?;
        Ok(Response { code, status, body })
    })()
    .map_err(WireError::noted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Method, OutputFormat};
    use nshot_core::Minimizer;
    use nshot_wire::decode_frame;

    fn roundtrip_value(v: &Json) {
        let mut bytes = Vec::new();
        encode_value(&mut bytes, v);
        assert_eq!(&decode_value(&bytes).expect("decode"), v);
    }

    #[test]
    fn values_round_trip() {
        roundtrip_value(&Json::Null);
        roundtrip_value(&Json::Bool(true));
        roundtrip_value(&Json::Bool(false));
        roundtrip_value(&Json::Num(0.0));
        roundtrip_value(&Json::Num(-4.5));
        roundtrip_value(&Json::Num(9_007_199_254_740_992.0));
        roundtrip_value(&Json::Str("τ→λ with\nnewlines".into()));
        roundtrip_value(&Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]));
        roundtrip_value(&Json::Obj(vec![
            ("a".into(), Json::Null),
            ("b".into(), Json::Arr(vec![Json::Obj(vec![])])),
        ]));
    }

    #[test]
    fn hostile_values_are_typed_errors() {
        // Unknown type byte.
        assert!(decode_value(&[9]).is_err());
        // Non-finite number.
        let mut nan = vec![ty::NUM];
        nan.extend_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode_value(&nan).is_err());
        // String length past the payload.
        assert!(decode_value(&[ty::STR, 200]).is_err());
        // Array count past the payload (must not allocate the count).
        let mut arr = vec![ty::ARR];
        put_varint(&mut arr, u64::MAX / 2);
        assert!(decode_value(&arr).is_err());
        // Nesting past the depth cap.
        let mut deep = [ty::ARR, 1].repeat(MAX_VALUE_DEPTH as usize + 1);
        deep.push(ty::NULL);
        assert!(matches!(
            decode_value(&deep),
            Err(WireError::Malformed("value nested too deeply"))
        ));
        // Trailing bytes.
        assert!(decode_value(&[ty::NULL, 0]).is_err());
    }

    fn synth_envelope() -> Envelope {
        Envelope {
            id: Json::Num(7.0),
            request: Request::Synth(SynthRequest {
                spec: ".inputs r\n.outputs g\n".into(),
                method: Method::Syn,
                minimizer: Minimizer::Exact,
                trials: 12,
                format: OutputFormat::Verilog,
                share: true,
            }),
        }
    }

    #[test]
    fn requests_round_trip_through_frames() {
        let envs = vec![
            synth_envelope(),
            Envelope {
                id: Json::Str("v1".into()),
                request: Request::Verify(VerifyRequest {
                    spec: ".inputs a\n".into(),
                    minimizer: Minimizer::MultiOutput,
                    max_states: 4_000,
                }),
            },
            Envelope {
                id: Json::Num(1.0),
                request: Request::Metrics,
            },
            Envelope {
                id: Json::Num(2.0),
                request: Request::Ping,
            },
            Envelope {
                id: Json::Num(3.0),
                request: Request::Shutdown,
            },
        ];
        for env in envs {
            let bytes = encode_request(&env).expect("encode");
            let (frame, used) = decode_frame(&bytes).expect("frame");
            assert_eq!(used, bytes.len());
            assert_eq!(frame.tag, tags::REQUEST);
            let back = decode_request(&frame.payload).expect("request");
            assert_eq!(back.id, env.id);
            match (&back.request, &env.request) {
                (Request::Synth(a), Request::Synth(b)) => {
                    assert_eq!(a.spec, b.spec);
                    assert_eq!(a.method, b.method);
                    assert_eq!(a.minimizer, b.minimizer);
                    assert_eq!(a.trials, b.trials);
                    assert_eq!(a.format, b.format);
                    assert_eq!(a.share, b.share);
                }
                (Request::Verify(a), Request::Verify(b)) => {
                    assert_eq!(a.spec, b.spec);
                    assert_eq!(a.minimizer, b.minimizer);
                    assert_eq!(a.max_states, b.max_states);
                }
                (Request::Metrics, Request::Metrics)
                | (Request::Ping, Request::Ping)
                | (Request::Shutdown, Request::Shutdown) => {}
                other => panic!("mismatched ops: {other:?}"),
            }
        }
    }

    #[test]
    fn binary_requests_hit_the_same_validation_limits() {
        // Oversized trials: semantic — the id is recovered and the wording
        // matches the JSON parser's.
        let mut p = Vec::new();
        encode_value(&mut p, &Json::Num(9.0));
        p.extend_from_slice(&[Op::Synth.byte(), 1, 1]);
        put_varint(&mut p, 10_001);
        p.extend_from_slice(&[1, 0]);
        put_str(&mut p, "x");
        match decode_request(&p) {
            Err(RequestDecodeError::Invalid { id, message }) => {
                assert_eq!(id.as_u64(), Some(9));
                assert!(message.contains("trials"), "{message}");
            }
            other => panic!("expected semantic refusal: {other:?}"),
        }

        // Unknown op bytes, the retired 3 among them: semantic, like an
        // unknown `op` string.
        for byte in [3, 99] {
            let mut p = Vec::new();
            encode_value(&mut p, &Json::Null);
            p.push(byte);
            match decode_request(&p) {
                Err(RequestDecodeError::Invalid { message, .. }) => {
                    assert_eq!(message, format!("unknown op byte {byte}"));
                }
                other => panic!("expected semantic refusal: {other:?}"),
            }
        }

        // Truncated payload: structural — close the connection.
        let env = synth_envelope();
        let bytes = encode_request(&env).expect("encode");
        let (frame, _) = decode_frame(&bytes).expect("frame");
        assert!(matches!(
            decode_request(&frame.payload[..frame.payload.len() - 1]),
            Err(RequestDecodeError::Frame(_))
        ));

        // Hello never encodes: negotiation is NDJSON-only.
        assert!(encode_request(&Envelope {
            id: Json::Null,
            request: Request::Hello { binary: true },
        })
        .is_err());
    }

    #[test]
    fn response_streams_round_trip() {
        let body = vec![
            ("name".to_owned(), Json::Str("hs".into())),
            ("area".to_owned(), Json::Num(52.0)),
            ("netlist".to_owned(), Json::Str(".model hs\n.end\n".repeat(40))),
        ];
        let frames = encode_response_frames(
            &Json::Num(3.0),
            200,
            "ok",
            &body,
            true,
            1234,
            77,
            "{\"parse\":3}",
        );
        assert_eq!(frames.len(), body.len() + 2);
        let stream: Vec<u8> = frames.concat();
        let mut reader = std::io::Cursor::new(stream);
        let obj = read_response(&mut reader).expect("response");
        assert_eq!(obj.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(obj.get("code").unwrap().as_u64(), Some(200));
        assert_eq!(obj.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(obj.get("area").unwrap().as_u64(), Some(52));
        assert_eq!(obj.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(obj.get("service_us").unwrap().as_u64(), Some(1234));
        assert_eq!(obj.get("trace").unwrap().as_u64(), Some(77));
        assert_eq!(
            obj.get("timing").unwrap().get("parse").unwrap().as_u64(),
            Some(3)
        );
        // The field order matches the NDJSON rendering exactly.
        let Json::Obj(pairs) = obj else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["id", "code", "status", "name", "area", "netlist", "cached", "service_us",
             "trace", "timing"]
        );
    }

    #[test]
    fn relayed_response_frames_are_byte_identical() {
        // The shard front decodes a backend's frame stream into the
        // object shape and re-encodes it for the client; that relay must
        // reproduce the exact bytes a direct connection would see.
        let body = vec![
            ("name".to_owned(), Json::Str("hs".into())),
            ("area".to_owned(), Json::Num(52.5)),
            ("hazard_free".to_owned(), Json::Bool(true)),
        ];
        let frames = encode_response_frames(
            &Json::Str("req-1".into()),
            200,
            "ok",
            &body,
            false,
            88,
            21,
            "{\"parse\":3,\"minimize\":900}",
        );
        let mut reader = std::io::Cursor::new(frames.concat());
        let obj = read_response(&mut reader).expect("response");
        assert_eq!(encode_response_obj(&obj).expect("re-encode"), frames);

        // And the NDJSON line parses to an object this can frame too.
        let line = crate::protocol::render_response(
            &Json::Num(4.0),
            "\"code\":422,\"status\":\"error\",\"error\":\"csc conflict\"",
            true,
            12,
            9,
            "",
        );
        let parsed = json::parse(&line).expect("line json");
        let relayed = encode_response_obj(&parsed).expect("frames");
        let mut reader = std::io::Cursor::new(relayed.concat());
        let back = read_response(&mut reader).expect("response");
        assert_eq!(back, parsed);

        assert!(encode_response_obj(&Json::Null).is_err());
        assert!(encode_response_obj(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn response_stream_rejects_a_field_count_mismatch() {
        let frames = encode_response_frames(&Json::Null, 200, "ok", &[], false, 1, 2, "");
        // Drop the END frame's declared count by splicing in a lying END.
        let mut lying_end = Vec::new();
        put_varint(&mut lying_end, 5);
        let stream: Vec<u8> = [frames[0].clone(), encode_frame(tags::END, &lying_end)].concat();
        let mut reader = std::io::Cursor::new(stream);
        assert!(matches!(
            read_response(&mut reader),
            Err(WireError::Malformed("field count mismatch"))
        ));
    }

    #[test]
    fn store_values_round_trip() {
        let body = vec![
            ("verdict".to_owned(), Json::Bool(true)),
            ("netlist".to_owned(), Json::Str(".model x\n".into())),
        ];
        let bytes = encode_response_value(422, "error", &body);
        let back = decode_response_value(&bytes).expect("decode");
        assert_eq!(back.code, 422);
        assert_eq!(back.status, "error");
        assert_eq!(back.body, body);
        // Damage is typed, never served.
        assert!(decode_response_value(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_response_value(&[]).is_err());
        let mut bad_status = bytes.clone();
        bad_status[2] = 9;
        assert!(matches!(
            decode_response_value(&bad_status),
            Err(WireError::Malformed("unknown status byte"))
        ));
    }
}
