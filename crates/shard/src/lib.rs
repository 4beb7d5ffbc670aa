//! `nshot-shard`: a shared-nothing sharded serving tier for the N-SHOT
//! service.
//!
//! One **front** process accepts the existing NDJSON-over-TCP protocol and
//! consistent-hashes each request's canonical key
//! ([`nshot_logic::request_key`] — the same encoding the response cache
//! and the artifact store use) across N backend `nshot-serve` workers.
//! Each backend is shared-nothing: its own espresso memo, its own response
//! cache, its own worker pool — they share only the (read-only) warm-start
//! store directory. Key-affinity routing means a key always lands on the
//! shard whose caches already saw it, so cache hit rates survive scale-out
//! instead of being divided by N.
//!
//! **Why sharding is safe**: responses are deterministic functions of the
//! request (hazard-freedom under the paper's externally-hazard-free
//! discipline makes synthesis reproducible; the service caches only the
//! deterministic response prefix). Any backend, any thread count, any
//! cache state produces byte-identical deterministic fields — so routing
//! is a pure performance decision, never a correctness one, and the shard
//! smoke can assert byte-identity end to end.
//!
//! The front runs on the same runtime layer as the backends
//! ([`nshot_server::runtime`]): one accept-loop/framing implementation in
//! the tree. Proxying is synchronous in the connection thread, bounded by
//! per-backend connection pools ([`BackendPool`]) with an IO timeout and a
//! retry-once discipline; a backend that stays unreachable degrades **only
//! its own keys** to 503 responses naming the shard, while every other
//! shard keeps serving byte-identical answers.
//!
//! Clients may speak NDJSON or negotiate binary framing; the front always
//! speaks NDJSON to its backends. An NDJSON client's line is relayed
//! verbatim, a binary client's request is rendered canonically, and the
//! backend's answer is re-encoded as frames for a binary client. Both
//! framings share one serve path, so they cannot drift.
//!
//! Control ops:
//!
//! * `ping` — answered locally, byte-identical to a backend's pong;
//! * `metrics` — fans out to every backend and merges the expositions
//!   under a `shard="i"` label after the front's own series;
//! * `shutdown` — fans out as a graceful drain to every backend, then
//!   stops the front itself.
//!
//! Every fan-out (the bind-time probe, `metrics`, `shutdown`) goes through
//! the same pools as proxied requests, so a backend that accepts but never
//! answers costs one IO timeout, not a hung front.

pub mod pool;
pub mod ring;

pub use pool::BackendPool;
pub use ring::{HashRing, DEFAULT_VNODES};

use nshot_obs::{Counter, Gauge, Histogram, Registry};
use nshot_server::json::{self, Json};
use nshot_server::protocol::{self, Decoded, Envelope, Request, Response};
use nshot_server::runtime::{FrameReply, LineHandler, LineReply, TcpLineServer};
use nshot_server::wirecodec;
use std::borrow::Cow;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Bind address for the front (`host:port`; port 0 picks one).
    pub addr: String,
    /// Backend addresses, one per shard; shard id = index in this list.
    pub backends: Vec<SocketAddr>,
    /// Max concurrent proxied requests per backend.
    pub pool_cap: usize,
    /// Per-attempt connect/send/receive timeout toward a backend, in ms
    /// (0 = OS defaults). Keep it above the backends' own request
    /// deadline, or slow-but-alive synthesis gets misread as a dead shard.
    pub io_timeout_ms: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            pool_cap: 8,
            io_timeout_ms: 60_000,
        }
    }
}

/// Per-shard metric series, labelled `shard="i"` in the front's registry.
struct ShardSeries {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    up: Arc<Gauge>,
    latency: Arc<Histogram>,
}

/// The front's mutable state: ring, pools, metrics. This is the
/// [`LineHandler`] the runtime drives.
struct FrontShared {
    ring: HashRing,
    pools: Vec<BackendPool>,
    registry: Registry,
    requests: Arc<Counter>,
    degraded: Arc<Counter>,
    shards: Vec<ShardSeries>,
}

impl FrontShared {
    fn new(config: &ShardConfig) -> FrontShared {
        let registry = Registry::new();
        let requests = registry.counter("nshot_shard_front_requests_total");
        let degraded = registry.counter("nshot_shard_degraded_total");
        let io_timeout = (config.io_timeout_ms > 0)
            .then(|| Duration::from_millis(config.io_timeout_ms));
        let mut pools = Vec::with_capacity(config.backends.len());
        let mut shards = Vec::with_capacity(config.backends.len());
        for (i, &addr) in config.backends.iter().enumerate() {
            pools.push(BackendPool::new(addr, config.pool_cap, io_timeout));
            shards.push(ShardSeries {
                requests: registry
                    .counter(&format!("nshot_shard_requests_total{{shard=\"{i}\"}}")),
                errors: registry
                    .counter(&format!("nshot_shard_errors_total{{shard=\"{i}\"}}")),
                up: registry.gauge(&format!("nshot_shard_backend_up{{shard=\"{i}\"}}")),
                latency: registry.histogram(&format!(
                    "nshot_shard_request_duration_us{{shard=\"{i}\"}}"
                )),
            });
        }
        FrontShared {
            ring: HashRing::new(config.backends.len(), DEFAULT_VNODES),
            pools,
            registry,
            requests,
            degraded,
            shards,
        }
    }

    /// One roundtrip to shard `i` through its pool (IO timeout,
    /// retry-once), keeping the shard's `up` gauge current. On failure the
    /// pool's idle sockets are dropped, so recovery starts from fresh
    /// dials, and a `shard_backend_down` event names the shard.
    fn call(&self, i: usize, line: &str, trace_id: u64) -> Result<String, String> {
        let result = self.pools[i].roundtrip(line);
        self.shards[i].up.set(u64::from(result.is_ok()));
        if let Err(e) = &result {
            self.pools[i].clear_idle();
            let addr = self.pools[i].addr();
            nshot_obs::event("shard_backend_down", || {
                format!("shard={i} addr={addr} trace={trace_id} err={e}")
            });
        }
        result
    }

    /// Forward one request to the shard owning `key`. `raw` is the client's
    /// original NDJSON line when there is one, relayed verbatim (the
    /// cheapest path, and trivially byte-identical); a binary client's
    /// request is re-rendered canonically from the validated envelope,
    /// which is safe because responses are functions of the validated
    /// request. An unreachable backend degrades to a local 503 naming the
    /// shard.
    fn forward(
        &self,
        key: &str,
        env: &Envelope,
        raw: Option<&str>,
        trace_id: u64,
        t0: Instant,
    ) -> Answer {
        let shard = self
            .ring
            .shard_for(key)
            .expect("bind() rejects empty topologies") as usize;
        let series = &self.shards[shard];
        series.requests.inc();
        let line = raw.map_or_else(|| Cow::Owned(protocol::render_request(env)), Cow::Borrowed);
        let result = self.call(shard, &line, trace_id);
        series.latency.record(t0.elapsed().as_micros() as u64);
        match result {
            Ok(line) => Answer::Backend(line),
            Err(_) => {
                series.errors.inc();
                self.degraded.inc();
                let mut r =
                    Response::rejected(503, format!("shard {shard} backend unavailable"), None);
                r.body.push(("shard".into(), Json::Num(shard as f64)));
                Answer::Local(r)
            }
        }
    }

    /// The merged Prometheus exposition: the front's own series first,
    /// then every reachable backend's exposition with `shard="i"` injected
    /// into each sample line. Backends are scraped first, so the front's
    /// `up` gauges reflect this scrape. Backend `# TYPE` headers are
    /// dropped in the merge (the series are self-describing by suffix;
    /// re-deduplicating headers across shards is not worth the
    /// bookkeeping).
    fn metrics_text(&self, trace_id: u64) -> String {
        let backends: Vec<String> = (0..self.pools.len())
            .filter_map(|i| {
                let line = self.call(i, "{\"op\":\"metrics\"}", trace_id).ok()?;
                let json = json::parse(&line).ok()?;
                let expo = json.get("exposition").and_then(Json::as_str)?;
                Some(relabel_exposition(expo, i))
            })
            .collect();
        let mut text = self.registry.render_prometheus();
        text.extend(backends);
        text
    }

    /// Fan the graceful drain out to every backend; each `shutdown`
    /// roundtrip returns only after that backend has drained its queue.
    /// Unreachable backends (already dead) do not block the drain.
    fn shutdown_backends(&self, trace_id: u64) -> usize {
        (0..self.pools.len())
            .filter(|&i| self.call(i, "{\"op\":\"shutdown\"}", trace_id).is_ok())
            .count()
    }

    /// Count an arriving request and start the clock — before decoding, so
    /// a frame too damaged to answer is still counted.
    fn admit(&self) -> Instant {
        self.requests.inc();
        Instant::now()
    }

    /// The one serve path behind both framings. A malformed request never
    /// reaches a backend: the local 400 carries the same deterministic
    /// fields a backend would emit. Control ops are answered locally;
    /// `synth` and `verify` go to the shard owning their cache key.
    fn serve(&self, t0: Instant, decoded: Decoded, raw: Option<&str>) -> Served {
        let trace_id = nshot_obs::next_trace_id();
        let (id, answer, shutdown, upgrade) = match decoded {
            Err((id, message)) => (id, Answer::Local(Response::error(400, message)), false, false),
            Ok(env) => {
                let answer = match &env.request {
                    Request::Synth(s) => self.forward(&s.cache_key(), &env, raw, trace_id, t0),
                    Request::Verify(v) => self.forward(&v.cache_key(), &env, raw, trace_id, t0),
                    Request::Ping => Answer::Local(Response::pong()),
                    Request::Metrics => Answer::Local(Response::metrics(self.metrics_text(trace_id))),
                    Request::Hello { binary } => Answer::Local(Response::hello(*binary)),
                    Request::Shutdown => {
                        let drained = self.shutdown_backends(trace_id);
                        Answer::Local(Response::shutdown(self.requests.get(), Some(drained)))
                    }
                };
                let shutdown = matches!(env.request, Request::Shutdown);
                let upgrade = matches!(env.request, Request::Hello { binary: true });
                (env.id, answer, shutdown, upgrade)
            }
        };
        Served {
            id,
            answer,
            trace_id,
            t0,
            shutdown,
            upgrade,
        }
    }
}

/// What the front answers with: a response it built (control ops,
/// refusals, 503 degradation), or a backend's NDJSON line.
enum Answer {
    Local(Response),
    Backend(String),
}

/// One served request, ready to render in either framing.
struct Served {
    id: Json,
    answer: Answer,
    trace_id: u64,
    t0: Instant,
    shutdown: bool,
    upgrade: bool,
}

impl Served {
    /// The NDJSON reply: a backend's line verbatim, or the local response
    /// rendered with the backends' envelope shape.
    fn into_line(self) -> LineReply {
        let line = match self.answer {
            Answer::Backend(line) => line,
            Answer::Local(r) => protocol::render_response(
                &self.id,
                &r.deterministic_fields(),
                false,
                self.t0.elapsed().as_micros() as u64,
                self.trace_id,
                "",
            ),
        };
        LineReply {
            line,
            shutdown: self.shutdown,
            upgrade: self.upgrade,
        }
    }

    /// The binary reply. A backend's line is parsed and framed
    /// (deterministically — equal values give equal bytes); one the front
    /// cannot re-frame degrades to a local 500 naming the relay, never a
    /// closed connection.
    fn into_frames(self) -> FrameReply {
        let local = |r: &Response| {
            wirecodec::encode_response_frames(
                &self.id,
                r.code,
                r.status,
                &r.body,
                false,
                self.t0.elapsed().as_micros() as u64,
                self.trace_id,
                "",
            )
        };
        let frames = match &self.answer {
            Answer::Local(r) => local(r),
            Answer::Backend(line) => json::parse(line)
                .map_err(|e| format!("bad backend response json: {e}"))
                .and_then(|obj| wirecodec::encode_response_obj(&obj).map_err(|e| e.to_string()))
                .unwrap_or_else(|msg| local(&Response::error(500, format!("shard relay: {msg}")))),
        };
        FrameReply {
            frames,
            shutdown: self.shutdown,
        }
    }
}

/// Inject `shard="i"` as the first label of every sample line of a
/// Prometheus exposition; comment lines (`# TYPE …`) are dropped.
fn relabel_exposition(exposition: &str, shard: usize) -> String {
    let mut out = String::with_capacity(exposition.len() + 64);
    for line in exposition.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once('{') {
            Some((name, rest)) => {
                out.push_str(name);
                out.push_str(&format!("{{shard=\"{shard}\","));
                out.push_str(rest);
            }
            None => match line.split_once(' ') {
                Some((name, value)) => {
                    out.push_str(&format!("{name}{{shard=\"{shard}\"}} {value}"));
                }
                None => out.push_str(line),
            },
        }
        out.push('\n');
    }
    out
}

impl LineHandler for FrontShared {
    fn handle_line(&self, raw: Vec<u8>) -> LineReply {
        let t0 = self.admit();
        let line = protocol::line_text(&raw);
        let decoded = line.clone().and_then(protocol::parse_request);
        self.serve(t0, decoded, line.ok()).into_line()
    }

    fn handle_frame(&self, frame: nshot_wire::Frame) -> Option<FrameReply> {
        let t0 = self.admit();
        let decoded = wirecodec::decode_request_frame(&frame)?;
        Some(self.serve(t0, decoded, None).into_frames())
    }
}

/// A running shard front.
pub struct ShardFront {
    shared: Arc<FrontShared>,
    line_server: TcpLineServer,
}

impl ShardFront {
    /// Bind the front and start proxying. Backends are probed with one
    /// `ping` each to seed the `nshot_shard_backend_up` gauges — a probe
    /// failure is recorded, not fatal (the shard degrades per request).
    /// Each probe is bounded by the pools' IO timeout.
    ///
    /// # Errors
    ///
    /// An empty backend list ([`std::io::ErrorKind::InvalidInput`]) or a
    /// bind failure.
    pub fn bind(config: ShardConfig) -> std::io::Result<ShardFront> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "shard front needs at least one backend",
            ));
        }
        let shared = Arc::new(FrontShared::new(&config));
        for i in 0..shared.pools.len() {
            let _ = shared.call(i, "{\"op\":\"ping\"}", 0);
        }
        let line_server = TcpLineServer::bind(&config.addr, Arc::clone(&shared))?;
        Ok(ShardFront {
            shared,
            line_server,
        })
    }

    /// The front's bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.line_server.local_addr()
    }

    /// The merged metrics exposition (what the `metrics` op returns).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text(nshot_obs::next_trace_id())
    }

    /// Stop the front's accept loop. Does **not** touch the backends —
    /// the protocol `shutdown` op is the fan-out drain; this is the local
    /// half (used by tests and embedders that own their backends).
    pub fn stop(&self) {
        self.line_server.stop();
    }

    /// Block until the front has stopped (via [`stop`](Self::stop) or a
    /// protocol `shutdown`). Returns total request lines served.
    pub fn wait(self) -> u64 {
        self.line_server.join();
        self.shared.requests.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabel_injects_shard_into_both_shapes() {
        let merged = relabel_exposition(
            "# TYPE nshot_requests_total counter\n\
             nshot_requests_total 7\n\
             nshot_responses_total{outcome=\"ok\"} 5\n",
            2,
        );
        assert_eq!(
            merged,
            "nshot_requests_total{shard=\"2\"} 7\n\
             nshot_responses_total{shard=\"2\",outcome=\"ok\"} 5\n"
        );
    }

    #[test]
    fn empty_topology_is_rejected() {
        let err = match ShardFront::bind(ShardConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("empty topology must be rejected"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
