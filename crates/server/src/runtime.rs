//! Reusable service runtime: the TCP plumbing every serving tier shares.
//!
//! Extracted from the original single-process server so the sharded front
//! (`nshot-shard`) and the backend workers (`nshot-serve`) run on *one*
//! implementation instead of two drifting copies:
//!
//! * [`TcpLineServer`] — bind, accept loop, one thread per connection,
//!   newline framing (empty and bare-`\r` lines skipped, lines capped at
//!   [`MAX_LINE_BYTES`]), cooperative stop flag. What to do with a request
//!   line is a [`LineHandler`], so the same loop serves synthesis backends
//!   (queue + workers behind it) and the shard front (a proxy with no
//!   queue at all).
//! * [`WorkerPool`] — the bounded job queue ([`nshot_par::BoundedQueue`])
//!   with explicit 429-style backpressure, a fixed worker-thread pool
//!   draining it, in-flight accounting and the condvar-based graceful
//!   drain the shutdown path waits on.
//!
//! Per-request deadlines stay cooperative (see [`crate::service::Deadline`]);
//! [`Deadline::after_ms`](crate::service::Deadline) is the one place the
//! `timeout_ms = 0 means unlimited` convention is interpreted.

use nshot_par::{BoundedQueue, PushError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The longest request line read, newline excluded: the same cap as a
/// binary frame's payload. A longer line is answered with a 400 and its
/// connection closed, so a peer that never sends a newline cannot grow a
/// connection's buffer without bound.
pub const MAX_LINE_BYTES: u64 = nshot_wire::MAX_FRAME_PAYLOAD;

/// The 400 an over-long line gets. Both services behind this runtime speak
/// the same NDJSON protocol, so the runtime renders it without a handler.
fn line_too_long() -> String {
    let refusal = crate::protocol::Response::error(
        400,
        format!("request line exceeds {MAX_LINE_BYTES} bytes"),
    );
    let mut line = crate::protocol::render_response(
        &crate::Json::Null,
        &refusal.deterministic_fields(),
        false,
        0,
        0,
        "",
    );
    line.push('\n');
    line
}

/// What a [`LineHandler`] wants done with one request line.
pub struct LineReply {
    /// The response line (no trailing newline; the runtime appends it).
    pub line: String,
    /// Stop the whole service once this reply has been flushed. The
    /// runtime raises the stop flag and wakes the accept loop; the handler
    /// is expected to have drained its own work before returning this.
    pub shutdown: bool,
    /// Switch this connection to binary (`nshot-wire`) framing once the
    /// reply has been flushed: every later exchange goes through
    /// [`LineHandler::handle_frame`]. Returned by the handler's `hello`
    /// negotiation ack.
    pub upgrade: bool,
}

impl LineReply {
    /// An ordinary reply.
    pub fn reply(line: String) -> LineReply {
        LineReply {
            line,
            shutdown: false,
            upgrade: false,
        }
    }

    /// A reply after which the service stops (graceful-shutdown ack).
    pub fn last_reply(line: String) -> LineReply {
        LineReply {
            line,
            shutdown: true,
            upgrade: false,
        }
    }
}

/// What a [`LineHandler`] wants done with one binary request frame (only
/// reachable after a [`LineReply::upgrade`]).
pub struct FrameReply {
    /// Encoded response frames, written in order and flushed together —
    /// a response streams out record by record (head, fields, end).
    pub frames: Vec<Vec<u8>>,
    /// Stop the whole service once the frames have been flushed (the
    /// binary shutdown ack), like [`LineReply::shutdown`].
    pub shutdown: bool,
}

/// One request line → one response line. Implementations own everything
/// protocol-level: parsing (including the UTF-8 check — a binary line is a
/// protocol error to answer, not a reason to drop the connection),
/// dispatch, counters, and rendering.
pub trait LineHandler: Send + Sync + 'static {
    /// Handle one framed line (newline stripped, may still carry a
    /// trailing `\r` from CRLF clients).
    fn handle_line(&self, raw: Vec<u8>) -> LineReply;

    /// Handle one binary request frame after a negotiated upgrade.
    /// `None` closes the connection — the default for handlers that never
    /// return [`LineReply::upgrade`], and the answer to a frame whose
    /// payload is structurally damaged (framing can no longer be
    /// trusted; the decode error has already been counted).
    fn handle_frame(&self, frame: nshot_wire::Frame) -> Option<FrameReply> {
        let _ = frame;
        None
    }
}

/// A bound NDJSON-over-TCP service: accept loop plus per-connection
/// threads, all funneling lines through one shared [`LineHandler`].
pub struct TcpLineServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TcpLineServer {
    /// Bind `addr` (port 0 picks an ephemeral port) and start accepting.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn bind<H: LineHandler>(addr: &str, handler: Arc<H>) -> std::io::Result<TcpLineServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("nshot-accept".into())
            .spawn(move || {
                for incoming in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    let handler = Arc::clone(&handler);
                    let stop = Arc::clone(&accept_stop);
                    let _ = std::thread::Builder::new()
                        .name("nshot-conn".into())
                        .spawn(move || serve_connection(&*handler, stream, &stop, addr));
                }
            })
            .expect("spawn accept loop");
        Ok(TcpLineServer {
            addr,
            stop,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raise the stop flag and wake the accept loop. In-flight connection
    /// threads finish the line they are handling, then close without
    /// reading further; new connections are refused.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Self-connect so the blocking `incoming()` observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until the accept loop has exited (after [`stop`](Self::stop)
    /// or a handler's `shutdown` reply).
    pub fn join(&self) {
        let handle = self.accept.lock().expect("accept handle poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// Serve one client connection: one request line in, one response line
/// out, in order, until EOF or a shutdown reply. After a negotiated
/// upgrade the same connection switches to length-framed binary records
/// (`nshot-wire`), one request frame in, a response frame stream out.
fn serve_connection<H: LineHandler + ?Sized>(
    handler: &H,
    stream: TcpStream,
    stop: &AtomicBool,
    local_addr: SocketAddr,
) {
    // Small request/response exchanges must not sit out Nagle + delayed-ACK
    // stalls — the binary path in particular streams a response as several
    // frames, and 40 ms per exchange would swamp every latency figure.
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let mut raw = Vec::new();
        match (&mut reader)
            .take(MAX_LINE_BYTES + 1)
            .read_until(b'\n', &mut raw)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let complete = raw.last() == Some(&b'\n');
        if complete {
            raw.pop();
        }
        // A stopped service answers nothing further, even on established
        // connections: closing here is what lets a peer (e.g. a shard
        // front's pooled connection) observe the shutdown as EOF instead
        // of talking to a half-dead server.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // The rest of an over-long line would read as the next request,
        // so the connection closes after the refusal.
        if !complete && raw.len() as u64 > MAX_LINE_BYTES {
            let _ = writer
                .write_all(line_too_long().as_bytes())
                .and_then(|()| writer.flush());
            return;
        }
        if raw.is_empty() || raw == b"\r" {
            continue;
        }
        let reply = handler.handle_line(raw);
        let mut line = reply.line;
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
        if reply.shutdown {
            stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the stop flag.
            let _ = TcpStream::connect(local_addr);
            return;
        }
        if reply.upgrade {
            break;
        }
    }

    // Binary phase: the upgrade ack has been flushed, everything from
    // here is nshot-wire frames in both directions. A decode error has
    // already been counted by the frame reader; the connection closes
    // because its framing can no longer be trusted.
    loop {
        let frame = match nshot_wire::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Some(reply) = handler.handle_frame(frame) else {
            return;
        };
        for bytes in &reply.frames {
            if writer.write_all(bytes).is_err() {
                return;
            }
        }
        if writer.flush().is_err() {
            return;
        }
        if reply.shutdown {
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(local_addr);
            return;
        }
    }
}

struct PoolShared<J> {
    queue: BoundedQueue<J>,
    in_flight: AtomicUsize,
    /// Signalled by workers after each finished job so the drain path can
    /// wait without spinning hot.
    drain: (Mutex<()>, Condvar),
}

/// A bounded job queue drained by a fixed pool of named worker threads.
/// `try_submit` never blocks — a full queue is an explicit backpressure
/// error the caller turns into a 429-style response.
pub struct WorkerPool<J: Send + 'static> {
    shared: Arc<PoolShared<J>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Start `workers` threads (named `{name}-{i}`) running `run` on each
    /// job popped from a queue of capacity `queue_cap`.
    pub fn new<F>(name: &str, workers: usize, queue_cap: usize, run: F) -> WorkerPool<J>
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        let shared = Arc::new(PoolShared {
            queue: BoundedQueue::new(queue_cap),
            in_flight: AtomicUsize::new(0),
            drain: (Mutex::new(()), Condvar::new()),
        });
        let run = Arc::new(run);
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let run = Arc::clone(&run);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared, &*run))
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueue one job; `Err(PushError::Full(depth))` is the caller's
    /// backpressure signal, `Err(PushError::Closed)` means a drain began.
    pub fn try_submit(&self, job: J) -> Result<(), PushError> {
        self.shared.queue.try_push(job)
    }

    /// Jobs currently queued (not yet popped by a worker).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// The queue's fixed capacity.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Deepest the queue ever got.
    pub fn queue_high_water(&self) -> usize {
        self.shared.queue.high_water()
    }

    /// Close admission and block until every queued and in-flight job has
    /// finished. Idempotent; safe to call from a connection thread.
    pub fn drain(&self) {
        self.shared.queue.close();
        let (lock, cvar) = &self.shared.drain;
        let mut guard = lock.lock().expect("drain mutex poisoned");
        while !self.shared.queue.is_empty()
            || self.shared.in_flight.load(Ordering::SeqCst) > 0
        {
            let (g, _) = cvar
                .wait_timeout(guard, Duration::from_millis(20))
                .expect("drain mutex poisoned");
            guard = g;
        }
    }

    /// Join the worker threads. Call after [`drain`](Self::drain) — the
    /// workers only exit once the queue is closed and empty.
    pub fn join(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Worker loop: pop jobs until the queue closes and drains.
fn worker_loop<J, F: Fn(J) + ?Sized>(shared: &PoolShared<J>, run: &F) {
    while let Some(job) = shared.queue.pop() {
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        run(job);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        let (lock, cvar) = &shared.drain;
        let _g = lock.lock().expect("drain mutex poisoned");
        cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_jobs_and_drains() {
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        let pool: WorkerPool<u64> = WorkerPool::new("t", 2, 8, move |j| {
            d.fetch_add(j, Ordering::SeqCst);
        });
        for j in 1..=5 {
            pool.try_submit(j).expect("submit");
        }
        pool.drain();
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 15);
        assert!(matches!(pool.try_submit(9), Err(PushError::Closed)));
    }

    #[test]
    fn full_queue_reports_depth() {
        // A pool with zero workers never pops, so the queue fills.
        let pool: WorkerPool<u8> = WorkerPool::new("t", 0, 2, |_| {});
        pool.try_submit(1).expect("submit");
        pool.try_submit(2).expect("submit");
        assert!(matches!(pool.try_submit(3), Err(PushError::Full(2))));
        assert_eq!(pool.queue_high_water(), 2);
    }

    struct Echo;
    impl LineHandler for Echo {
        fn handle_line(&self, raw: Vec<u8>) -> LineReply {
            let text = String::from_utf8_lossy(&raw).trim_end_matches('\r').to_owned();
            if text == "quit" {
                LineReply::last_reply("bye".into())
            } else {
                LineReply::reply(format!("echo {text}"))
            }
        }
    }

    /// Echoes lines until "up", then echoes binary frames; a REQUEST
    /// frame with an empty payload is the shutdown signal.
    struct FrameEcho;
    impl LineHandler for FrameEcho {
        fn handle_line(&self, raw: Vec<u8>) -> LineReply {
            if raw == b"up" {
                LineReply {
                    line: "ok".into(),
                    shutdown: false,
                    upgrade: true,
                }
            } else {
                LineReply::reply(String::from_utf8_lossy(&raw).into_owned())
            }
        }

        fn handle_frame(&self, frame: nshot_wire::Frame) -> Option<FrameReply> {
            if frame.payload.is_empty() {
                return Some(FrameReply {
                    frames: Vec::new(),
                    shutdown: true,
                });
            }
            Some(FrameReply {
                frames: vec![nshot_wire::encode_frame(frame.tag, &frame.payload)],
                shutdown: false,
            })
        }
    }

    #[test]
    fn connections_upgrade_to_binary_framing() {
        use nshot_wire::{encode_frame, read_frame, tags};
        let server = TcpLineServer::bind("127.0.0.1:0", Arc::new(FrameEcho)).expect("bind");
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);

        writer.write_all(b"ping\nup\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "ping\n");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "ok\n");

        // Past the upgrade ack the connection speaks frames.
        writer
            .write_all(&encode_frame(tags::FIELD, b"binary now"))
            .expect("write frame");
        let back = read_frame(&mut reader).expect("frame").expect("some");
        assert_eq!(back.tag, tags::FIELD);
        assert_eq!(back.payload, b"binary now");

        // The binary shutdown path stops the whole service.
        writer
            .write_all(&encode_frame(tags::REQUEST, b""))
            .expect("write shutdown");
        server.join();
    }

    #[test]
    fn default_handlers_close_on_frames() {
        // Echo never upgrades; a handler without handle_frame support
        // closes the connection if it ever returns upgrade anyway — here
        // we just assert the default implementation is None.
        let frame = nshot_wire::Frame {
            tag: nshot_wire::tags::REQUEST,
            payload: b"x".to_vec(),
        };
        assert!(Echo.handle_frame(frame).is_none());
    }

    #[test]
    fn line_server_frames_and_stops() {
        let server = TcpLineServer::bind("127.0.0.1:0", Arc::new(Echo)).expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"hello\r\n\nquit\n").expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "echo hello\n");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "bye\n");
        server.join();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may still accept briefly; a fresh request must go
                // unanswered either way.
                true
            }
        );
    }
}
