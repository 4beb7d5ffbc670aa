//! # nshot-server — the N-SHOT synthesis service
//!
//! A std-only TCP service speaking newline-delimited JSON: each request
//! carries a `.g` STG or SG-text specification plus options (method
//! nshot/syn/sis, exact vs heuristic minimization, Monte-Carlo trial
//! count), and each response carries the synthesized netlist, area/delay
//! estimates, trigger/delay-requirement verdicts and timing. The `verify`
//! op additionally model-checks the synthesized implementation with
//! `nshot-mc` — exhaustive proof within the state budget, Monte-Carlo
//! fallback past it. Around that core sits the production plumbing the
//! ROADMAP's north star asks for:
//!
//! * the **reusable runtime layer** ([`runtime`]): the TCP accept loop +
//!   newline framing ([`runtime::TcpLineServer`]) and the bounded job
//!   queue + worker pool + graceful drain ([`runtime::WorkerPool`]).
//!   The sharded serving tier (`nshot-shard`) runs its front on the same
//!   module, so there is exactly one accept/queue/drain implementation in
//!   the tree;
//! * explicit **backpressure** — a full queue rejects immediately with a
//!   429-style response carrying the observed depth, instead of buffering
//!   without bound;
//! * per-request **wall-clock deadlines**, enforced cooperatively between
//!   pipeline stages (see [`service`]);
//! * a **whole-response cache** keyed on the canonical encoding of
//!   (specification text, options), built on the same bounded segmented
//!   cache that backs the espresso memo table
//!   ([`nshot_logic::BoundedCache`]);
//! * **observability** via `nshot-obs`: every request gets a trace id
//!   ([`nshot_obs::next_trace_id`]); workers execute jobs inside
//!   [`nshot_obs::with_request`], so the pipeline's stage spans are
//!   attributed to the request and surface as a per-response `timing`
//!   map. Service counters and the request-latency histogram live in a
//!   per-server [`nshot_obs::Registry`]; the **`metrics`** op renders it
//!   (plus the process-global registry with the stage histograms and
//!   espresso-cache counters) as Prometheus text;
//! * **graceful shutdown** on a control request: admission closes, queued
//!   and in-flight jobs drain, workers exit, and only then is the shutdown
//!   acknowledged. [`Server::wait`] returns a [`ShutdownReport`] with the
//!   final counters and metrics snapshot;
//! * a shared **NDJSON client** ([`client`]) used by the `loadgen`
//!   checking client, the benchmark and the shard front's backend pools.
//!
//! Protocol details live in [`protocol`]; the deterministic request
//! execution in [`service`]. `cargo run --release -p nshot-bench --bin
//! loadgen` checks a running service byte for byte against direct
//! synthesis; `e2ebench --workload serve-mixed` measures it.

pub mod client;
pub mod json;
pub mod protocol;
pub mod runtime;
pub mod service;
pub mod wirecodec;

pub use json::Json;
pub use protocol::{
    Envelope, Method, OutputFormat, Request, Response, SynthRequest, VerifyRequest,
};
pub use service::{load_spec, process_synth, process_verify, Deadline};

use nshot_logic::BoundedCache;
use nshot_obs::{Counter, Gauge, Histogram, Registry, StageTimings};
use nshot_par::PushError;
use nshot_store::{Store, StoreConfig, StoreReport};
use protocol::Decoded;
use runtime::{FrameReply, LineHandler, LineReply, TcpLineServer, WorkerPool};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

pub use nshot_store::FsyncPolicy;

/// Version stamped on every persisted response record. Bump when the
/// persisted payload changes shape. Version 2 is the binary encoding
/// ([`wirecodec::encode_response_value`]: code, status byte, structured
/// body); version 1 — the rendered deterministic-field JSON string — is
/// listed in [`RESPONSE_STORE_LEGACY`], so old records keep being served
/// byte-identically while every new write (cache fills, compaction
/// rewrites) lands in binary.
pub const RESPONSE_STORE_VERSION: u32 = 2;

/// Older persisted-payload versions this release still reads. Drop a
/// version from this list and [`Store::open`] counts its records stale
/// and recompiles them instead.
pub const RESPONSE_STORE_LEGACY: &[u32] = &[1];

/// Service configuration. `Default` gives a loopback service on an
/// ephemeral port with generous limits.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads draining the job queue (0 = [`nshot_par::num_threads`]).
    pub workers: usize,
    /// Job-queue capacity; a full queue rejects with 429.
    pub queue_cap: usize,
    /// Per-request wall-clock budget in ms (0 = unlimited).
    pub timeout_ms: u64,
    /// Whole-response cache entry cap (0 disables the cache).
    pub cache_cap: usize,
    /// Persistent artifact store directory (`None` = in-RAM caching only).
    /// When set, the response cache is warmed from the store at bind time
    /// and cache fills are persisted write-behind on a dedicated thread,
    /// so the request path never blocks on fsync.
    pub store_dir: Option<PathBuf>,
    /// Warm the response cache at bind time from this store directory
    /// *without becoming a writer*: a read-only segment scan that never
    /// truncates, prunes or creates segments, so any number of processes
    /// (e.g. every backend of a shard topology) can warm from one shared
    /// directory concurrently. Ignored when `store_dir` is set (a writer
    /// already warms from its own directory).
    pub warm_dir: Option<PathBuf>,
    /// Fsync policy for the artifact store (ignored without `store_dir`).
    pub store_fsync: FsyncPolicy,
    /// Slow-request threshold in ms (0 disables): any request whose
    /// service time exceeds it is logged to stderr with its per-stage
    /// timings, counted in `nshot_slow_requests_total`, and recorded as a
    /// flight-recorder event.
    pub slow_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_cap: 64,
            timeout_ms: 30_000,
            cache_cap: 1024,
            store_dir: None,
            warm_dir: None,
            store_fsync: FsyncPolicy::default(),
            slow_ms: 1000,
        }
    }
}

/// The service's metric handles, backed by a **per-server**
/// [`Registry`] so two servers in one test process don't pollute each
/// other's counters. The registry itself is kept for the `metrics`
/// exposition.
struct Counters {
    registry: Registry,
    requests: Arc<Counter>,
    synth_requests: Arc<Counter>,
    verify_requests: Arc<Counter>,
    ok: Arc<Counter>,
    client_errors: Arc<Counter>,
    server_errors: Arc<Counter>,
    rejects: Arc<Counter>,
    timeouts: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    cache_evictions: Arc<Counter>,
    cache_warmed: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_capacity: Arc<Gauge>,
    queue_high_water: Arc<Gauge>,
    slow_requests: Arc<Counter>,
    latency: Arc<Histogram>,
}

impl Counters {
    fn new() -> Counters {
        let registry = Registry::new();
        let requests = registry.counter("nshot_requests_total");
        let synth_requests = registry.counter("nshot_synth_requests_total");
        let verify_requests = registry.counter("nshot_verify_requests_total");
        let ok = registry.counter("nshot_responses_total{outcome=\"ok\"}");
        let client_errors = registry.counter("nshot_responses_total{outcome=\"client_error\"}");
        let server_errors = registry.counter("nshot_responses_total{outcome=\"server_error\"}");
        let rejects = registry.counter("nshot_responses_total{outcome=\"rejected\"}");
        let timeouts = registry.counter("nshot_responses_total{outcome=\"timeout\"}");
        let cache_hits = registry.counter("nshot_response_cache_hits_total");
        let cache_misses = registry.counter("nshot_response_cache_misses_total");
        let cache_entries = registry.gauge("nshot_response_cache_entries");
        let cache_evictions = registry.counter("nshot_response_cache_evictions_total");
        let cache_warmed = registry.counter("nshot_response_cache_warmed_total");
        let queue_depth = registry.gauge("nshot_queue_depth");
        let queue_capacity = registry.gauge("nshot_queue_capacity");
        let queue_high_water = registry.gauge("nshot_queue_high_water");
        let slow_requests = registry.counter("nshot_slow_requests_total");
        let latency = registry.histogram("nshot_request_duration_us");
        Counters {
            registry,
            requests,
            synth_requests,
            verify_requests,
            ok,
            client_errors,
            server_errors,
            rejects,
            timeouts,
            cache_hits,
            cache_misses,
            cache_entries,
            cache_evictions,
            cache_warmed,
            queue_depth,
            queue_capacity,
            queue_high_water,
            slow_requests,
            latency,
        }
    }
}

/// A queueable unit of work: the two pipeline-running ops share the queue,
/// the workers, the deadline plumbing and the response cache.
enum Work {
    Synth(SynthRequest),
    Verify(VerifyRequest),
}

impl Work {
    /// The canonical cache key (each op has its own namespace inside the
    /// shared `request_key` encoding).
    fn cache_key(&self) -> String {
        match self {
            Work::Synth(s) => s.cache_key(),
            Work::Verify(v) => v.cache_key(),
        }
    }

    /// Run the work to completion under the deadline.
    fn process(&self, deadline: &Deadline) -> Response {
        match self {
            Work::Synth(s) => process_synth(s, deadline),
            Work::Verify(v) => process_verify(v, deadline),
        }
    }
}

/// One queued job: the work, its deadline, its trace id, and the channel
/// the worker answers on (response + per-stage timings).
struct Job {
    work: Work,
    deadline: Deadline,
    trace_id: u64,
    reply: mpsc::Sender<(Response, StageTimings)>,
}

/// Run one job to completion (the worker pool's `run` closure). Executes
/// inside [`nshot_obs::with_request`], so pipeline spans (including those
/// recorded on `par_map` worker threads) are attributed to the job's trace
/// id and come back as its per-stage timings.
fn run_worker_job(job: Job) {
    let (response, timings) = nshot_obs::with_request(job.trace_id, || {
        if job.deadline.expired() {
            Response::error(504, "deadline exceeded while queued")
        } else {
            job.work.process(&job.deadline)
        }
    });
    // A dropped receiver just means the client hung up mid-request.
    let _ = job.reply.send((response, timings));
}

/// One cacheable response in both renderings: the deterministic JSON
/// field string (served *verbatim* on NDJSON connections — what the
/// byte-identity tests compare against direct library calls) and the
/// structured body the binary path streams out as `FIELD` records and
/// the store persists as its version-2 value. Kept behind an `Arc` so a
/// cache hit clones a pointer, not a netlist.
struct CachedResponse {
    code: u16,
    status: &'static str,
    fields: String,
    body: Vec<(String, Json)>,
}

impl CachedResponse {
    fn from_response(r: Response) -> CachedResponse {
        let fields = r.deterministic_fields();
        CachedResponse {
            code: r.code,
            status: r.status,
            fields,
            body: r.body,
        }
    }

    /// Rebuild from a legacy (version-1) store record: the stored string
    /// is kept verbatim as the JSON rendering — byte identity with what
    /// the old release served — and re-parsed once for the structured
    /// body the binary path needs. `None` means the record is foreign.
    fn from_legacy_fields(fields: String) -> Option<CachedResponse> {
        let parsed = json::parse(&format!("{{{fields}}}")).ok()?;
        let Json::Obj(pairs) = parsed else { return None };
        let mut code = None;
        let mut status = None;
        let mut body = Vec::new();
        for (k, v) in pairs {
            match k.as_str() {
                "code" => code = v.as_u64(),
                "status" => {
                    status = match v.as_str() {
                        Some("ok") => Some("ok"),
                        Some("error") => Some("error"),
                        Some("rejected") => Some("rejected"),
                        _ => None,
                    }
                }
                _ => body.push((k, v)),
            }
        }
        Some(CachedResponse {
            code: u16::try_from(code?).ok()?,
            status: status?,
            fields,
            body,
        })
    }

    /// Decode one persisted record into a cache entry, by the payload
    /// version the store recovered it at. `None` (foreign or damaged
    /// record) means skip — never serve.
    fn from_store_record(version: u32, value: Vec<u8>) -> Option<CachedResponse> {
        if version == RESPONSE_STORE_VERSION {
            let r = wirecodec::decode_response_value(&value).ok()?;
            Some(CachedResponse::from_response(r))
        } else {
            String::from_utf8(value)
                .ok()
                .and_then(CachedResponse::from_legacy_fields)
        }
    }

    /// The version-2 store value for this response.
    fn store_value(&self) -> Vec<u8> {
        wirecodec::encode_response_value(self.code, self.status, &self.body)
    }
}

/// One write-behind record for the store thread: cache key and response.
type PersistItem = (String, Arc<CachedResponse>);

/// State shared by the connection handlers and the shutdown path. The
/// queue/worker/drain plumbing lives in the embedded [`WorkerPool`].
struct Shared {
    config: ServerConfig,
    pool: WorkerPool<Job>,
    cache: Mutex<BoundedCache<String, Arc<CachedResponse>>>,
    counters: Counters,
    /// Write-behind channel to the store thread (`None` when no store is
    /// configured). Taken — dropping the sender — at drain time, which is
    /// what tells the store thread to flush and exit.
    persist: Mutex<Option<mpsc::Sender<PersistItem>>>,
}

impl Shared {
    fn count_code(&self, code: u16) {
        match code {
            200 => self.counters.ok.inc(),
            429 | 503 => self.counters.rejects.inc(),
            504 => self.counters.timeouts.inc(),
            400..=499 => self.counters.client_errors.inc(),
            _ => self.counters.server_errors.inc(),
        };
    }

    /// Refresh the gauges that mirror live data structures (queue, caches).
    fn refresh_gauges(&self) {
        let c = &self.counters;
        c.queue_depth.set(self.pool.queue_len() as u64);
        c.queue_capacity.set(self.pool.queue_capacity() as u64);
        c.queue_high_water.set(self.pool.queue_high_water() as u64);
        let (cache_len, cache_evictions) = {
            let cache = self.cache.lock().expect("cache poisoned");
            (cache.len(), cache.evictions())
        };
        c.cache_entries.set(cache_len as u64);
        c.cache_evictions.store(cache_evictions);
    }

    /// The Prometheus text exposition: this server's registry followed by
    /// the process-global one (pipeline-stage histograms, espresso-cache
    /// counters).
    fn metrics_text(&self) -> String {
        self.refresh_gauges();
        let mut text = self.counters.registry.render_prometheus();
        text.push_str(&Registry::global().render_prometheus());
        text
    }

    /// Close admission and wait for queued + in-flight jobs to finish,
    /// then release the store thread (every job's cache fill has been
    /// sent by the time the workers are idle, so dropping the sender here
    /// loses nothing).
    fn drain(&self) {
        self.pool.drain();
        self.persist.lock().expect("persist poisoned").take();
    }

    /// Count an arriving request and start its clock — before decoding, so
    /// a frame too damaged to answer is still counted.
    fn admit(&self) -> Instant {
        self.counters.requests.inc();
        Instant::now()
    }

    /// The one serve path behind both framings: dispatch the decoded
    /// request (or refuse it), then count the outcome, record the latency
    /// and log the request if it was slow.
    fn serve(&self, t0: Instant, decoded: Decoded) -> Served {
        let trace_id = nshot_obs::next_trace_id();
        let (id, request) = match decoded {
            Ok(Envelope { id, request }) => (id, Ok(request)),
            Err((id, message)) => (id, Err(message)),
        };
        let upgrade = matches!(request, Ok(Request::Hello { binary: true }));
        let inline = |r: Response| {
            let r = Arc::new(CachedResponse::from_response(r));
            (r, false, StageTimings::default())
        };
        let mut shutdown = false;
        let (resp, cached, timings) = match request {
            Ok(Request::Synth(synth)) => run_job(self, Work::Synth(synth), trace_id),
            Ok(Request::Verify(verify)) => run_job(self, Work::Verify(verify), trace_id),
            Ok(Request::Ping) => inline(Response::pong()),
            Ok(Request::Metrics) => inline(Response::metrics(self.metrics_text())),
            Ok(Request::Hello { binary }) => inline(Response::hello(binary)),
            Ok(Request::Shutdown) => {
                self.drain();
                shutdown = true;
                inline(Response::shutdown(self.counters.requests.get(), None))
            }
            Err(message) => inline(Response::error(400, message)),
        };

        self.count_code(resp.code);
        let service_us = t0.elapsed().as_micros() as u64;
        self.counters.latency.record(service_us);
        let timing_json = if timings.is_empty() {
            String::new()
        } else {
            timings.to_json()
        };
        self.note_slow(resp.code, cached, service_us, trace_id, &timing_json);
        Served {
            id,
            resp,
            cached,
            service_us,
            trace_id,
            timing_json,
            shutdown,
            upgrade,
        }
    }

    /// Slow-request log: anything past the threshold is triageable from
    /// stderr (and the flight recorder) without a trace sink.
    fn note_slow(
        &self,
        code: u16,
        cached: bool,
        service_us: u64,
        trace_id: u64,
        timing_json: &str,
    ) {
        let slow_ms = self.config.slow_ms;
        if slow_ms == 0 || service_us <= slow_ms.saturating_mul(1000) {
            return;
        }
        self.counters.slow_requests.inc();
        let timing = if timing_json.is_empty() {
            "{}"
        } else {
            timing_json
        };
        eprintln!(
            "nshot-serve: slow request trace={trace_id} code={code} \
             cached={cached} service_us={service_us} timing={timing}"
        );
        nshot_obs::event("slow_request", || {
            format!(
                "trace={trace_id} code={code} cached={cached} \
                 service_us={service_us} timing={timing}"
            )
        });
    }
}

/// Whether a response prefix may be served from / stored in the cache or
/// the persistent store: only deterministic outcomes (success, spec parse
/// errors, synthesis rejections) — never backpressure or deadline
/// artifacts.
pub fn cacheable(code: u16) -> bool {
    matches!(code, 200 | 400 | 422)
}

/// Handle one queued request (synth or verify) end to end (cache → queue →
/// worker → cache fill). Returns the response, whether it was served from
/// cache, and the per-stage timings (empty for cache hits and rejections —
/// no pipeline ran).
fn run_job(shared: &Shared, work: Work, trace_id: u64) -> (Arc<CachedResponse>, bool, StageTimings) {
    match &work {
        Work::Synth(_) => shared.counters.synth_requests.inc(),
        Work::Verify(_) => shared.counters.verify_requests.inc(),
    }

    // The key feeds both the in-RAM cache and the persistent store (same
    // canonical encoding, see `nshot_logic::request_key`).
    let key = (shared.config.cache_cap > 0 || shared.config.store_dir.is_some())
        .then(|| work.cache_key());
    if shared.config.cache_cap > 0 {
        if let Some(key) = &key {
            let mut cache = shared.cache.lock().expect("cache poisoned");
            if let Some(hit) = cache.get(key) {
                let resp = Arc::clone(hit);
                drop(cache);
                shared.counters.cache_hits.inc();
                return (resp, true, StageTimings::default());
            }
            shared.counters.cache_misses.inc();
        }
    }

    let deadline = Deadline::after_ms(shared.config.timeout_ms);
    let (tx, rx) = mpsc::channel();
    let job = Job {
        work,
        deadline,
        trace_id,
        reply: tx,
    };
    let (mut response, timings) = match shared.pool.try_submit(job) {
        Ok(()) => rx.recv().unwrap_or_else(|_| {
            // Workers only exit after the queue is closed *and* drained, so
            // an accepted job always gets an answer; this is a last-resort
            // guard, not an expected path.
            (
                Response::error(500, "worker dropped the job"),
                StageTimings::default(),
            )
        }),
        Err(PushError::Full(depth)) => (
            Response::rejected(429, "queue full", Some(depth)),
            StageTimings::default(),
        ),
        Err(PushError::Closed) => (
            Response::rejected(503, "shutting down", None),
            StageTimings::default(),
        ),
    };

    // A deadline kill is triageable from the response alone: the stages
    // that *did* finish before the deadline ride along in the body. Safe
    // to add here — 504 is never cacheable, so the deterministic prefix
    // of cached responses is untouched.
    if response.code == 504 && !timings.is_empty() {
        let partial: Vec<(String, Json)> = timings
            .entries()
            .iter()
            .map(|&(stage, _, us)| (stage.name().to_string(), Json::Num(us as f64)))
            .collect();
        response
            .body
            .push(("partial_timing".into(), Json::Obj(partial)));
    }

    let resp = Arc::new(CachedResponse::from_response(response));
    if cacheable(resp.code) {
        if let Some(key) = key {
            // Write-behind: hand the record to the store thread before the
            // cache fill; the request path never waits on disk. A closed
            // channel (store thread released at drain) just skips. The
            // store thread owns the binary encoding, so that cost is off
            // the request path too.
            if let Some(tx) = shared.persist.lock().expect("persist poisoned").as_ref() {
                let _ = tx.send((key.clone(), Arc::clone(&resp)));
            }
            if shared.config.cache_cap > 0 {
                shared
                    .cache
                    .lock()
                    .expect("cache poisoned")
                    .insert(key, Arc::clone(&resp));
            }
        }
    }
    (resp, false, timings)
}

/// One served request, ready to render in either framing.
struct Served {
    id: Json,
    resp: Arc<CachedResponse>,
    cached: bool,
    service_us: u64,
    trace_id: u64,
    timing_json: String,
    shutdown: bool,
    upgrade: bool,
}

impl LineHandler for Shared {
    /// Serve one NDJSON request line. The runtime owns framing and sockets.
    fn handle_line(&self, raw: Vec<u8>) -> LineReply {
        let t0 = self.admit();
        let decoded = protocol::line_text(&raw).and_then(protocol::parse_request);
        let s = self.serve(t0, decoded);
        LineReply {
            line: protocol::render_response(
                &s.id,
                &s.resp.fields,
                s.cached,
                s.service_us,
                s.trace_id,
                &s.timing_json,
            ),
            shutdown: s.shutdown,
            upgrade: s.upgrade,
        }
    }

    /// Serve one binary request frame after the `hello` upgrade, streaming
    /// the response back as head/field/end frames. A structurally damaged
    /// payload (already counted in `nshot_wire_decode_errors_total`)
    /// closes the connection.
    fn handle_frame(&self, frame: nshot_wire::Frame) -> Option<FrameReply> {
        let t0 = self.admit();
        let s = self.serve(t0, wirecodec::decode_request_frame(&frame)?);
        let frames = wirecodec::encode_response_frames(
            &s.id,
            s.resp.code,
            s.resp.status,
            &s.resp.body,
            s.cached,
            s.service_us,
            s.trace_id,
            &s.timing_json,
        );
        Some(FrameReply {
            frames,
            shutdown: s.shutdown,
        })
    }
}

/// What a gracefully stopped server saw over its lifetime; returned by
/// [`Server::wait`] so the `serve` bin can report instead of draining
/// silently.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Total request lines served (all ops).
    pub served: u64,
    /// Deepest the job queue ever got.
    pub queue_high_water: u64,
    /// Final Prometheus exposition (per-server + global registries).
    pub metrics: String,
    /// Final artifact-store summary (`None` when no store was configured).
    pub store: Option<StoreReport>,
}

/// A running service. Dropping the handle does **not** stop the server;
/// send a `shutdown` request or call [`Server::shutdown`], then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    line_server: TcpLineServer,
    store_thread: Option<std::thread::JoinHandle<StoreReport>>,
}

impl Server {
    /// Bind and start: workers first, then the accept loop.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        // Force-register the pipeline-stage histograms and the wire
        // decode-error counter so a `metrics` scrape sees every series
        // (with zero counts) from the first request on.
        let _ = nshot_obs::stage_histograms();
        let _ = nshot_wire::decode_errors();
        let workers = if config.workers == 0 {
            nshot_par::num_threads()
        } else {
            config.workers
        };

        // Open the persistent store (recovering whatever survives on
        // disk) before serving: warm-start records go straight into the
        // response cache, so the first request for a stored spec is a
        // cache hit, not a recompilation.
        let store_config = |dir: &PathBuf| StoreConfig {
            fsync: config.store_fsync,
            value_version: RESPONSE_STORE_VERSION,
            legacy_versions: RESPONSE_STORE_LEGACY.to_vec(),
            ..StoreConfig::new(dir)
        };
        let mut store = match &config.store_dir {
            None => None,
            Some(dir) => Some(Store::open(store_config(dir))?),
        };

        // A writer warms from its own store; without one, shard backends
        // warm by a read-only scan that N processes can share. Binary
        // (version-2) records and legacy field strings both warm the
        // cache; a record neither decodes as is foreign and skipped.
        let warm = match (&mut store, &config.warm_dir) {
            _ if config.cache_cap == 0 => Vec::new(),
            (Some(store), _) => store.entries_versioned(),
            (None, Some(dir)) => {
                nshot_store::read_entries_with(dir, &store_config(dir).wanted_versions())?
            }
            (None, None) => Vec::new(),
        };
        let counters = Counters::new();
        let cache = Mutex::new(BoundedCache::new(config.cache_cap.max(2)));
        {
            let mut guard = cache.lock().expect("cache poisoned");
            for (key, version, value) in warm {
                if let Some(resp) = CachedResponse::from_store_record(version, value) {
                    guard.insert(key, Arc::new(resp));
                    counters.cache_warmed.inc();
                }
            }
        }

        let (persist, store_thread) = match store {
            None => (None, None),
            Some(mut store) => {
                let (tx, rx) = mpsc::channel::<PersistItem>();
                let handle = std::thread::Builder::new()
                    .name("nshot-store".into())
                    .spawn(move || {
                        // Write-behind loop: exits when every sender is
                        // dropped (drain), then flushes and reports. The
                        // binary store value is encoded here, off the
                        // request path.
                        while let Ok((key, resp)) = rx.recv() {
                            let _ = store.put(&key, &resp.store_value());
                        }
                        let _ = store.flush();
                        store.report()
                    })
                    .expect("spawn store thread");
                (Some(tx), Some(handle))
            }
        };

        let addr = config.addr.clone();
        let shared = Arc::new(Shared {
            pool: WorkerPool::new("nshot-worker", workers, config.queue_cap, run_worker_job),
            cache,
            counters,
            persist: Mutex::new(persist),
            config,
        });

        let line_server = TcpLineServer::bind(&addr, Arc::clone(&shared))?;
        Ok(Server {
            shared,
            line_server,
            store_thread,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.line_server.local_addr()
    }

    /// Programmatic graceful shutdown: drain jobs, stop the accept loop.
    pub fn shutdown(&self) {
        self.shared.drain();
        self.line_server.stop();
    }

    /// Block until the service has shut down (via a `shutdown` request or
    /// [`Server::shutdown`]) and every worker has exited, then report what
    /// it saw.
    pub fn wait(self) -> ShutdownReport {
        self.line_server.join();
        self.shared.pool.join();
        // The workers are gone and drain() dropped the persist sender, so
        // the store thread is already flushing its tail; joining it here
        // makes the returned report (and the on-disk state) final.
        let store = self.store_thread.and_then(|h| h.join().ok());
        ShutdownReport {
            served: self.shared.counters.requests.get(),
            queue_high_water: self.shared.pool.queue_high_water() as u64,
            metrics: self.shared.metrics_text(),
            store,
        }
    }
}
