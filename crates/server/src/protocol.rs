//! The NDJSON request/response protocol.
//!
//! One JSON object per line in each direction. Requests:
//!
//! ```text
//! {"id":1,"op":"synth","spec":".name hs\n…","method":"nshot",
//!  "minimizer":"heuristic","trials":8,"format":"blif","share":true}
//! {"id":2,"op":"verify","spec":".name hs\n…","minimizer":"heuristic",
//!  "max_states":4000000}
//! {"id":3,"op":"ping"}
//! {"id":4,"op":"metrics"}
//! {"id":5,"op":"shutdown"}
//! ```
//!
//! `verify` synthesizes the N-SHOT implementation and then model-checks it
//! exhaustively with `nshot-mc`; past the state budget it falls back to
//! Monte-Carlo sampling (reported in the `method` field).
//!
//! Responses always carry `id` (echoed verbatim, `null` when the request
//! had none or was unparseable), `code` (HTTP-flavoured: 200 ok, 400 bad
//! request, 422 valid request the method cannot synthesize, 429 queue full,
//! 503 shutting down, 504 deadline exceeded), `status`, then the
//! result fields, and finally `cached`, `service_us`, the request's
//! `trace` id, and — on executed synthesis responses — a `timing` object
//! mapping pipeline stage names to µs spent. Everything up to `cached` is
//! a pure function of the request — that prefix is what the response cache
//! stores and what the loopback tests compare byte-for-byte against direct
//! library calls; `trace`/`timing` are observability and stamped on at
//! send time, like `service_us`.
//!
//! The `metrics` op answers inline with the Prometheus text exposition of
//! the service's registry plus the process-global one (service counters,
//! pipeline-stage histograms, espresso-cache counters), embedded as the
//! `exposition` string field (the protocol is NDJSON, so the text rides
//! inside the JSON envelope).
//!
//! This module is the request model of both transports. Each request enum
//! has one wire table (`WireEnum`) holding its binary byte and NDJSON
//! name, and every decoded request — NDJSON here, binary in
//! [`crate::wirecodec`] — passes the one `validate` step, so each limit
//! and its 400 message is stated once.

use crate::json::{self, Json};
use nshot_core::Minimizer;

/// A request enum with one wire table: each value's byte in a binary
/// `REQUEST` payload and its name in an NDJSON request. Every encoder and
/// decoder of both transports reads the table, so they cannot drift.
///
/// Byte `0` never decodes, so an all-zero payload cannot parse; a row with
/// byte `0` has no binary encoding.
pub(crate) trait WireEnum: Copy + PartialEq + 'static {
    /// What the enum names, for refusal messages.
    const WHAT: &'static str;
    /// Every value with its wire byte and wire name.
    const TABLE: &'static [(Self, u8, &'static str)];

    /// The byte in a binary `REQUEST` payload.
    fn byte(self) -> u8 {
        row(self).1
    }

    /// The name in an NDJSON request.
    fn wire_name(self) -> &'static str {
        row(self).2
    }

    /// The value an NDJSON name stands for, or the 400 message.
    fn from_name(name: &str) -> Result<Self, String> {
        Self::TABLE
            .iter()
            .find(|r| r.2 == name)
            .map(|r| r.0)
            .ok_or_else(|| format!("unknown {} '{name}'", Self::WHAT))
    }

    /// The value a binary byte stands for, or the 400 message.
    fn from_byte(byte: u8) -> Result<Self, String> {
        Self::TABLE
            .iter()
            .find(|r| r.1 == byte && byte != 0)
            .map(|r| r.0)
            .ok_or_else(|| format!("unknown {} byte {byte}", Self::WHAT))
    }
}

fn row<E: WireEnum>(value: E) -> &'static (E, u8, &'static str) {
    E::TABLE
        .iter()
        .find(|r| r.0 == value)
        .expect("every value has a row in its wire table")
}

/// Which synthesis flow to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The paper's N-SHOT architecture (the service's raison d'être).
    Nshot,
    /// The SYN-like monotonous-cover baseline.
    Syn,
    /// The SIS-like bounded-delay baseline.
    Sis,
}

impl WireEnum for Method {
    const WHAT: &'static str = "method";
    const TABLE: &'static [(Self, u8, &'static str)] = &[
        (Method::Nshot, 1, "nshot"),
        (Method::Syn, 2, "syn"),
        (Method::Sis, 3, "sis"),
    ];
}

impl Method {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        self.wire_name()
    }
}

/// The wire names are also the cache key's spelling.
impl WireEnum for Minimizer {
    const WHAT: &'static str = "minimizer";
    const TABLE: &'static [(Self, u8, &'static str)] = &[
        (Minimizer::Heuristic, 1, "heuristic"),
        (Minimizer::Exact, 2, "exact"),
        (Minimizer::MultiOutput, 3, "multi"),
    ];
}

/// Netlist text format requested in the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// BLIF (the SIS interchange format).
    Blif,
    /// Structural Verilog.
    Verilog,
    /// No netlist text (verdicts and estimates only).
    None,
}

impl WireEnum for OutputFormat {
    const WHAT: &'static str = "format";
    const TABLE: &'static [(Self, u8, &'static str)] = &[
        (OutputFormat::Blif, 1, "blif"),
        (OutputFormat::Verilog, 2, "verilog"),
        (OutputFormat::None, 3, "none"),
    ];
}

impl OutputFormat {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        self.wire_name()
    }
}

/// A request's op: the first thing either transport decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Synth,
    Verify,
    Metrics,
    Ping,
    Shutdown,
    Hello,
}

/// Byte 3 belonged to a retired op and stays unassigned, so an old client
/// gets a 400 rather than another op. `hello` is NDJSON-only.
impl WireEnum for Op {
    const WHAT: &'static str = "op";
    const TABLE: &'static [(Self, u8, &'static str)] = &[
        (Op::Synth, 1, "synth"),
        (Op::Verify, 2, "verify"),
        (Op::Metrics, 4, "metrics"),
        (Op::Ping, 5, "ping"),
        (Op::Shutdown, 6, "shutdown"),
        (Op::Hello, 0, "hello"),
    ];
}

/// A fully validated synthesis request.
#[derive(Debug, Clone)]
pub struct SynthRequest {
    /// The specification text: a `.g` STG (detected by a `.graph` section)
    /// or the SG text format.
    pub spec: String,
    /// Synthesis flow.
    pub method: Method,
    /// Two-level minimizer (N-SHOT only).
    pub minimizer: Minimizer,
    /// Monte-Carlo conformance trials to run after synthesis (0 = skip;
    /// N-SHOT only).
    pub trials: usize,
    /// Netlist text format to include.
    pub format: OutputFormat,
    /// Share structurally identical product terms (N-SHOT only).
    pub share: bool,
}

impl SynthRequest {
    /// The canonical response-cache key — the shared
    /// [`nshot_logic::request_key`] encoding, so the in-RAM response cache
    /// and the on-disk artifact store (`nshot-store`) key on identical
    /// bytes and can never drift. The full key is stored, so hash
    /// collisions cannot poison the cache.
    pub fn cache_key(&self) -> String {
        nshot_logic::request_key(
            self.method.wire_name(),
            self.minimizer.wire_name(),
            self.trials,
            self.format.wire_name(),
            self.share,
            &self.spec,
        )
    }
}

/// The largest Monte-Carlo trial count a `synth` request may ask for.
pub const MAX_TRIALS: usize = 10_000;

/// Hard cap on the `verify` state budget a client may request: keeps one
/// request from committing the service to gigabytes of visited-set.
pub const MAX_VERIFY_STATES: usize = 50_000_000;

/// A fully validated verification request: synthesize, then model-check
/// the implementation exhaustively (`nshot-mc`).
#[derive(Debug, Clone)]
pub struct VerifyRequest {
    /// The specification text, same formats as [`SynthRequest::spec`].
    pub spec: String,
    /// Two-level minimizer used for the synthesis step.
    pub minimizer: Minimizer,
    /// Model-checker state budget; past it the service falls back to
    /// Monte-Carlo sampling.
    pub max_states: usize,
}

impl VerifyRequest {
    /// Response-cache key, sharing [`nshot_logic::request_key`]'s encoding
    /// with [`SynthRequest::cache_key`]: the op rides in the method slot and
    /// the state budget in the trials slot, so a `verify` response can never
    /// collide with a `synth` one for the same spec.
    pub fn cache_key(&self) -> String {
        nshot_logic::request_key(
            Op::Verify.wire_name(),
            self.minimizer.wire_name(),
            self.max_states,
            OutputFormat::None.wire_name(),
            false,
            &self.spec,
        )
    }
}

/// A request, parsed and validated.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a synthesis job (queued).
    Synth(SynthRequest),
    /// Run a synthesis + exhaustive model-checking job (queued).
    Verify(VerifyRequest),
    /// Prometheus-text metrics exposition (answered inline).
    Metrics,
    /// Liveness probe (answered inline).
    Ping,
    /// Drain in-flight jobs and stop the service.
    Shutdown,
    /// Negotiate the connection's framing (answered inline). With
    /// `binary: true` the acknowledgement line is the last NDJSON on the
    /// connection: everything after it is length-framed `nshot-wire`
    /// records in both directions. `format: "json"` (the default) is an
    /// explicit no-op, so a client can always probe what the server speaks.
    Hello {
        /// Upgrade the connection to binary framing after the ack.
        binary: bool,
    },
}

impl Request {
    /// This request's op.
    pub(crate) fn op(&self) -> Op {
        match self {
            Request::Synth(_) => Op::Synth,
            Request::Verify(_) => Op::Verify,
            Request::Metrics => Op::Metrics,
            Request::Ping => Op::Ping,
            Request::Shutdown => Op::Shutdown,
            Request::Hello { .. } => Op::Hello,
        }
    }
}

/// A parsed request line: the echoed `id` plus the request itself.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Client correlation id, echoed verbatim in the response.
    pub id: Json,
    /// The validated request.
    pub request: Request,
}

/// A decoded request from either transport, or the 400 refusal for it:
/// `(id, message)`, with the id recovered whenever the envelope was
/// readable so the refusal can still be correlated.
pub type Decoded = Result<Envelope, (Json, String)>;

/// The one validate step every decoded request passes, whichever transport
/// carried it. Each request limit and its 400 message is stated here and
/// nowhere else.
///
/// # Errors
///
/// The 400 message naming the violated limit.
pub(crate) fn validate(request: Request) -> Result<Request, String> {
    match &request {
        Request::Synth(s) if s.trials > MAX_TRIALS => {
            Err(format!("'trials' must be an integer ≤ {MAX_TRIALS}"))
        }
        Request::Verify(v) if !(1..=MAX_VERIFY_STATES).contains(&v.max_states) => Err(format!(
            "'max_states' must be an integer in 1..={MAX_VERIFY_STATES}"
        )),
        _ => Ok(request),
    }
}

/// A decoded count as `usize`; one too large for it reads as `usize::MAX`,
/// which [`validate`] refuses like any other out-of-range value.
pub(crate) fn saturate(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// The text of one raw request line: a trailing `\r` is dropped, and bytes
/// that are not UTF-8 are a 400 like any other malformed line.
///
/// # Errors
///
/// The refusal, in [`Decoded`]'s error shape.
pub fn line_text(raw: &[u8]) -> Result<&str, (Json, String)> {
    std::str::from_utf8(raw)
        .map(|text| text.trim_end_matches('\r'))
        .map_err(|_| (Json::Null, "request is not valid utf-8".into()))
}

/// Parse and validate one request line.
///
/// # Errors
///
/// `(id, message)` — the id is recovered when the line is valid JSON so
/// the error response can still be correlated.
pub fn parse_request(line: &str) -> Decoded {
    let value = json::parse(line).map_err(|e| (Json::Null, format!("bad json: {e}")))?;
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    match request_of(&value).and_then(validate) {
        Ok(request) => Ok(Envelope { id, request }),
        Err(message) => Err((id, message)),
    }
}

/// An optional enum field: absent means `default`.
fn named<E: WireEnum>(value: &Json, key: &str, default: E) -> Result<E, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map_or(Ok(default), E::from_name)
}

/// An optional count field: absent means `default`. A value that is not a
/// non-negative integer reads as `usize::MAX`, so [`validate`] refuses it
/// with the limit's message.
fn count(value: &Json, key: &str, default: usize) -> usize {
    value
        .get(key)
        .map_or(default, |v| v.as_u64().map_or(usize::MAX, saturate))
}

/// The request a parsed line spells, before [`validate`].
fn request_of(value: &Json) -> Result<Request, String> {
    if !matches!(value, Json::Obj(_)) {
        return Err("request must be a json object".into());
    }
    let op = value.get("op").and_then(Json::as_str).ok_or("missing 'op'")?;
    let op = Op::from_name(op)?;
    let spec = || {
        value
            .get("spec")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{} needs a 'spec' string", op.wire_name()))
    };
    Ok(match op {
        // Defaults mirror `SynthesisOptions::default()` so a bare synth
        // request is byte-identical to a direct library call.
        Op::Synth => Request::Synth(SynthRequest {
            spec: spec()?,
            method: named(value, "method", Method::Nshot)?,
            minimizer: named(value, "minimizer", Minimizer::Heuristic)?,
            trials: count(value, "trials", 0),
            format: named(value, "format", OutputFormat::Blif)?,
            share: match value.get("share") {
                None => false,
                Some(v) => v.as_bool().ok_or("'share' must be a boolean")?,
            },
        }),
        Op::Verify => Request::Verify(VerifyRequest {
            spec: spec()?,
            minimizer: named(value, "minimizer", Minimizer::Heuristic)?,
            max_states: count(value, "max_states", nshot_core::DEFAULT_PROOF_STATES),
        }),
        Op::Metrics => Request::Metrics,
        Op::Ping => Request::Ping,
        Op::Shutdown => Request::Shutdown,
        Op::Hello => Request::Hello {
            binary: match value.get("format").and_then(Json::as_str).unwrap_or("json") {
                "binary" => true,
                "json" => false,
                other => return Err(format!("unknown wire format '{other}'")),
            },
        },
    })
}

/// Render a validated envelope back to one canonical NDJSON request line
/// (no trailing newline). Every option is spelled out explicitly, so the
/// line parses back to the same validated request regardless of which
/// defaults the original client relied on. The shard front uses this to
/// forward a binary client's request to its backend — correctness rests
/// on responses being functions of the *validated* request, not of the
/// client's original byte spelling.
pub fn render_request(env: &Envelope) -> String {
    let id = &env.id;
    let op = env.request.op().wire_name();
    match &env.request {
        Request::Synth(s) => format!(
            "{{\"id\":{id},\"op\":\"{op}\",\"spec\":{},\"method\":\"{}\",\"minimizer\":\"{}\",\"trials\":{},\"format\":\"{}\",\"share\":{}}}",
            Json::Str(s.spec.clone()),
            s.method.wire_name(),
            s.minimizer.wire_name(),
            s.trials,
            s.format.wire_name(),
            s.share,
        ),
        Request::Verify(v) => format!(
            "{{\"id\":{id},\"op\":\"{op}\",\"spec\":{},\"minimizer\":\"{}\",\"max_states\":{}}}",
            Json::Str(v.spec.clone()),
            v.minimizer.wire_name(),
            v.max_states,
        ),
        Request::Metrics | Request::Ping | Request::Shutdown => {
            format!("{{\"id\":{id},\"op\":\"{op}\"}}")
        }
        Request::Hello { binary } => format!(
            "{{\"id\":{id},\"op\":\"{op}\",\"format\":\"{}\"}}",
            if *binary { "binary" } else { "json" },
        ),
    }
}

/// A response: the HTTP-flavoured code, a status word, and the result
/// fields. `code`/`status`/`body` are deterministic functions of the
/// request; `id`, `cached` and `service_us` are stamped on at send time.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP-flavoured status code (see module docs).
    pub code: u16,
    /// `"ok"`, `"error"`, or `"rejected"`.
    pub status: &'static str,
    /// Result fields, in render order.
    pub body: Vec<(String, Json)>,
}

impl Response {
    /// A 200 response with the given result fields.
    pub fn ok(body: Vec<(String, Json)>) -> Self {
        Response {
            code: 200,
            status: "ok",
            body,
        }
    }

    /// An error response (`code` ∈ {400, 422, 500, 504}).
    pub fn error(code: u16, message: impl Into<String>) -> Self {
        Response {
            code,
            status: "error",
            body: vec![("error".into(), Json::Str(message.into()))],
        }
    }

    /// A 429/503 backpressure rejection.
    pub fn rejected(code: u16, message: impl Into<String>, depth: Option<usize>) -> Self {
        let mut body = vec![("error".into(), Json::Str(message.into()))];
        if let Some(d) = depth {
            body.push(("queue_depth".into(), Json::Num(d as f64)));
        }
        Response {
            code,
            status: "rejected",
            body,
        }
    }

    /// The `ping` answer.
    pub fn pong() -> Self {
        Response::ok(vec![("pong".into(), Json::Bool(true))])
    }

    /// The `hello` ack: echoes the agreed format so clients can assert on
    /// it, plus the wire version a binary connection speaks after the
    /// upgrade.
    pub fn hello(binary: bool) -> Self {
        Response::ok(vec![
            (
                "format".into(),
                Json::Str(if binary { "binary" } else { "json" }.into()),
            ),
            (
                "wire_version".into(),
                Json::Num(f64::from(nshot_wire::WIRE_VERSION)),
            ),
        ])
    }

    /// The `metrics` answer: the Prometheus text rides inside the NDJSON
    /// envelope as the `exposition` string field.
    pub fn metrics(exposition: String) -> Self {
        Response::ok(vec![("exposition".into(), Json::Str(exposition))])
    }

    /// The `shutdown` ack, sent once the drain is done. A shard front adds
    /// how many backends acknowledged their own drain.
    pub fn shutdown(served: u64, shards_drained: Option<usize>) -> Self {
        let mut body = vec![
            ("shutdown".into(), Json::Bool(true)),
            ("drained".into(), Json::Bool(true)),
        ];
        if let Some(n) = shards_drained {
            body.push(("shards_drained".into(), Json::Num(n as f64)));
        }
        body.push(("served".into(), Json::Num(served as f64)));
        Response::ok(body)
    }

    /// The deterministic prefix — `code`, `status` and the body fields —
    /// rendered as the inner part of the response object. This is the
    /// string the response cache stores.
    pub fn deterministic_fields(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "\"code\":{},\"status\":\"{}\"",
            self.code, self.status
        ));
        for (k, v) in &self.body {
            s.push_str(&format!(",{}:{}", Json::Str(k.clone()), v));
        }
        s
    }
}

/// Assemble a complete response line from the deterministic prefix and the
/// per-call fields: `cached`, `service_us`, the request's `trace` id, and
/// — when `timing_json` is non-empty — the per-stage `timing` object (a
/// JSON string like `{"parse":12,"minimize":140}`). The caller appends the
/// trailing `\n`.
pub fn render_response(
    id: &Json,
    deterministic_fields: &str,
    cached: bool,
    service_us: u64,
    trace_id: u64,
    timing_json: &str,
) -> String {
    let timing = if timing_json.is_empty() {
        String::new()
    } else {
        format!(",\"timing\":{timing_json}")
    };
    format!(
        "{{\"id\":{id},{deterministic_fields},\"cached\":{cached},\"service_us\":{service_us},\"trace\":{trace_id}{timing}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_synth_request() {
        let env = parse_request(
            r#"{"id":3,"op":"synth","spec":".inputs r\n","method":"syn","minimizer":"exact","trials":4,"format":"verilog","share":false}"#,
        )
        .unwrap();
        let Request::Synth(s) = env.request else {
            panic!("expected synth")
        };
        assert_eq!(env.id.as_u64(), Some(3));
        assert_eq!(s.method, Method::Syn);
        assert_eq!(s.minimizer, Minimizer::Exact);
        assert_eq!(s.trials, 4);
        assert_eq!(s.format, OutputFormat::Verilog);
        assert!(!s.share);
        assert_eq!(s.spec, ".inputs r\n");
    }

    #[test]
    fn defaults_are_nshot_heuristic_blif() {
        let env = parse_request(r#"{"op":"synth","spec":"x"}"#).unwrap();
        let Request::Synth(s) = env.request else {
            panic!("expected synth")
        };
        assert_eq!(s.method, Method::Nshot);
        assert_eq!(s.minimizer, Minimizer::Heuristic);
        assert_eq!(s.trials, 0);
        assert_eq!(s.format, OutputFormat::Blif);
        assert!(!s.share, "share defaults off, like SynthesisOptions");
    }

    #[test]
    fn errors_keep_the_id_when_json_is_valid() {
        let (id, msg) = parse_request(r#"{"id":"abc","op":"synth"}"#).unwrap_err();
        assert_eq!(id.as_str(), Some("abc"));
        assert!(msg.contains("spec"));
        let (id, _) = parse_request("not json").unwrap_err();
        assert_eq!(id, Json::Null);
    }

    #[test]
    fn rejects_unknown_enums_and_oversized_trials() {
        for bad in [
            r#"{"op":"synth","spec":"x","method":"magic"}"#,
            r#"{"op":"synth","spec":"x","minimizer":"quantum"}"#,
            r#"{"op":"synth","spec":"x","format":"edif"}"#,
            r#"{"op":"synth","spec":"x","trials":999999}"#,
            r#"{"op":"synth","spec":"x","trials":-1}"#,
            r#"{"op":"synth","spec":"x","share":"yes"}"#,
            r#"{"op":"fly"}"#,
            r#"{"op":"stats"}"#,
            r#"{"spec":"x"}"#,
            r#"[1,2]"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn cache_key_distinguishes_options() {
        let base = SynthRequest {
            spec: ".inputs r\n".into(),
            method: Method::Nshot,
            minimizer: Minimizer::Heuristic,
            trials: 0,
            format: OutputFormat::Blif,
            share: true,
        };
        let mut other = base.clone();
        other.share = false;
        assert_ne!(base.cache_key(), other.cache_key());
        let mut fmt = base.clone();
        fmt.format = OutputFormat::None;
        assert_ne!(base.cache_key(), fmt.cache_key());
        assert_eq!(base.cache_key(), base.clone().cache_key());
    }

    #[test]
    fn cache_key_encoding_is_stable() {
        // The key is what the store files records under, so a server
        // restarted on its store hits only if the encoding survives the
        // restart: it is a contract, not an implementation detail.
        let req = SynthRequest {
            spec: ".inputs r\n".into(),
            method: Method::Nshot,
            minimizer: Minimizer::MultiOutput,
            trials: 4,
            format: OutputFormat::Verilog,
            share: true,
        };
        assert_eq!(req.cache_key(), "nshot|multi|4|verilog|true|.inputs r\n");
        assert_eq!(
            req.cache_key(),
            format!(
                "{}|{}|{}|{}|{}|{}",
                req.method.name(),
                req.minimizer.wire_name(),
                req.trials,
                req.format.name(),
                req.share,
                req.spec
            ),
        );
    }

    #[test]
    fn rendered_response_is_one_parseable_line() {
        let r = Response::ok(vec![
            ("name".into(), Json::Str("hs".into())),
            ("area".into(), Json::Num(52.0)),
        ]);
        let line = render_response(
            &Json::Num(9.0),
            &r.deterministic_fields(),
            false,
            1234,
            7,
            "{\"parse\":3,\"minimize\":900}",
        );
        assert!(!line.contains('\n'));
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(9));
        assert_eq!(v.get("code").unwrap().as_u64(), Some(200));
        assert_eq!(v.get("area").unwrap().as_u64(), Some(52));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("service_us").unwrap().as_u64(), Some(1234));
        assert_eq!(v.get("trace").unwrap().as_u64(), Some(7));
        let timing = v.get("timing").unwrap();
        assert_eq!(timing.get("minimize").unwrap().as_u64(), Some(900));
    }

    #[test]
    fn empty_timing_is_omitted() {
        let r = Response::error(429, "queue full");
        let line = render_response(&Json::Null, &r.deterministic_fields(), false, 10, 3, "");
        assert!(!line.contains("timing"));
        assert!(line.contains("\"trace\":3"));
        crate::json::parse(&line).unwrap();
    }

    #[test]
    fn parses_a_verify_request_with_defaults() {
        let env = parse_request(r#"{"id":7,"op":"verify","spec":".inputs r\n"}"#).unwrap();
        let Request::Verify(v) = env.request else {
            panic!("expected verify")
        };
        assert_eq!(v.minimizer, Minimizer::Heuristic);
        assert_eq!(v.max_states, nshot_core::DEFAULT_PROOF_STATES);
        assert_eq!(v.spec, ".inputs r\n");

        let env = parse_request(
            r#"{"op":"verify","spec":"x","minimizer":"exact","max_states":1000}"#,
        )
        .unwrap();
        let Request::Verify(v) = env.request else {
            panic!("expected verify")
        };
        assert_eq!(v.minimizer, Minimizer::Exact);
        assert_eq!(v.max_states, 1000);
    }

    #[test]
    fn verify_rejects_bad_fields() {
        for bad in [
            r#"{"op":"verify"}"#,
            r#"{"op":"verify","spec":"x","minimizer":"quantum"}"#,
            r#"{"op":"verify","spec":"x","max_states":0}"#,
            r#"{"op":"verify","spec":"x","max_states":999999999999}"#,
            r#"{"op":"verify","spec":"x","max_states":"lots"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn verify_cache_key_cannot_collide_with_synth() {
        let v = VerifyRequest {
            spec: ".inputs r\n".into(),
            minimizer: Minimizer::Heuristic,
            max_states: 4,
        };
        let s = SynthRequest {
            spec: ".inputs r\n".into(),
            method: Method::Nshot,
            minimizer: Minimizer::Heuristic,
            trials: 4,
            format: OutputFormat::None,
            share: false,
        };
        assert_ne!(v.cache_key(), s.cache_key());
        let mut bigger = v.clone();
        bigger.max_states = 8;
        assert_ne!(v.cache_key(), bigger.cache_key());
    }

    #[test]
    fn metrics_op_parses() {
        let env = parse_request(r#"{"id":1,"op":"metrics"}"#).unwrap();
        assert!(matches!(env.request, Request::Metrics));
    }

    #[test]
    fn rendered_requests_parse_back_to_the_same_request() {
        for line in [
            r#"{"id":3,"op":"synth","spec":".inputs r\n","method":"syn","minimizer":"multi","trials":4,"format":"verilog","share":true}"#,
            r#"{"op":"synth","spec":"x"}"#,
            r#"{"id":"k","op":"verify","spec":"x","minimizer":"exact","max_states":1000}"#,
            r#"{"op":"ping"}"#,
            r#"{"id":9,"op":"shutdown"}"#,
            r#"{"op":"hello","format":"binary"}"#,
        ] {
            let env = parse_request(line).unwrap();
            let rendered = render_request(&env);
            // The rendered line is canonical: parsing it and rendering
            // again is a fixed point.
            let reparsed = parse_request(&rendered).unwrap();
            assert_eq!(render_request(&reparsed), rendered, "not canonical: {line}");
            // And the cache key (the routing key) survives the round trip.
            match (&env.request, &reparsed.request) {
                (Request::Synth(a), Request::Synth(b)) => {
                    assert_eq!(a.cache_key(), b.cache_key());
                }
                (Request::Verify(a), Request::Verify(b)) => {
                    assert_eq!(a.cache_key(), b.cache_key());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn wire_tables_are_one_to_one() {
        fn check<E: WireEnum + std::fmt::Debug>() {
            for &(value, byte, name) in E::TABLE {
                assert_eq!(E::from_name(name), Ok(value));
                if byte != 0 {
                    assert_eq!(E::from_byte(byte), Ok(value));
                }
            }
        }
        check::<Method>();
        check::<Minimizer>();
        check::<OutputFormat>();
        check::<Op>();
        // The retired op byte and the reserved zero stay unassigned.
        assert_eq!(Op::from_byte(3), Err("unknown op byte 3".into()));
        assert_eq!(Op::from_byte(0), Err("unknown op byte 0".into()));
    }

    #[test]
    fn hello_negotiates_framing() {
        let env = parse_request(r#"{"id":1,"op":"hello","format":"binary"}"#).unwrap();
        assert!(matches!(env.request, Request::Hello { binary: true }));
        let env = parse_request(r#"{"op":"hello","format":"json"}"#).unwrap();
        assert!(matches!(env.request, Request::Hello { binary: false }));
        let env = parse_request(r#"{"op":"hello"}"#).unwrap();
        assert!(matches!(env.request, Request::Hello { binary: false }));
        assert!(parse_request(r#"{"op":"hello","format":"ascii"}"#).is_err());
    }
}
