//! Minimal NDJSON-over-TCP client: connect, line framing, one-request/
//! one-response roundtrips, IO timeouts.
//!
//! One implementation shared by everything that talks to the service —
//! the `loadgen` checking client, `e2ebench`, the shard front's proxy path
//! and the front's metrics/shutdown fan-out — instead of each hand-rolling
//! its own `BufReader` + `write_all` dance.
//!
//! A client can also negotiate the binary wire format
//! ([`Client::upgrade_binary`]): after the `hello` ack the connection
//! carries `nshot-wire` frames, requests encoded by
//! [`crate::wirecodec::encode_request`] and responses read back as the
//! same object shape the NDJSON line parses to.

use crate::json::{self, Json};
use crate::protocol::Envelope;
use crate::wirecodec;
use nshot_wire::WireError;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A connected NDJSON client. One request line out, one response line in,
/// strictly in order (the protocol answers in order per connection).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect with the OS default connect timeout.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`io::Error`].
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connect with an explicit connect timeout.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`io::Error`] (including timeout).
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        Self::from_stream(TcpStream::connect_timeout(&addr, timeout)?)
    }

    fn from_stream(writer: TcpStream) -> io::Result<Client> {
        // Request/response exchanges are latency-bound; Nagle + delayed-ACK
        // would add ~40 ms to every roundtrip whose write spans segments.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Set (or clear, with `None`) the per-operation read/write timeout.
    /// A timed-out roundtrip leaves the connection in an unknown framing
    /// state — drop the client and reconnect.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`io::Error`].
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)
    }

    /// Send one raw line (newline appended here) and read one response
    /// line (trailing newline/`\r` stripped).
    ///
    /// # Errors
    ///
    /// IO failures, plus [`io::ErrorKind::UnexpectedEof`] when the peer
    /// closed before answering.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut raw = String::new();
        self.reader.read_line(&mut raw)?;
        if raw.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response line",
            ));
        }
        while raw.ends_with('\n') || raw.ends_with('\r') {
            raw.pop();
        }
        Ok(raw)
    }

    /// [`roundtrip`](Self::roundtrip), then parse the response as JSON.
    ///
    /// # Errors
    ///
    /// A human-readable string for IO or JSON failures (the callers —
    /// harnesses and fan-out paths — report, they do not match on kinds).
    pub fn roundtrip_json(&mut self, line: &str) -> Result<Json, String> {
        let raw = self.roundtrip(line).map_err(|e| format!("io: {e}"))?;
        json::parse(&raw).map_err(|e| format!("bad response json ({e}): {raw}"))
    }

    /// Negotiate binary framing: send the `hello` line and check the ack.
    /// Every later exchange on this connection must use
    /// [`roundtrip_frame`](Self::roundtrip_frame) /
    /// [`roundtrip_binary`](Self::roundtrip_binary).
    ///
    /// # Errors
    ///
    /// IO failures, or [`io::ErrorKind::InvalidData`] when the server
    /// refuses the upgrade.
    pub fn upgrade_binary(&mut self) -> io::Result<()> {
        let raw = self.roundtrip(r#"{"op":"hello","format":"binary"}"#)?;
        if !raw.contains("\"code\":200") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("binary upgrade refused: {raw}"),
            ));
        }
        Ok(())
    }

    /// Send one pre-encoded request frame and read back the response
    /// frame stream, assembled into the same object shape
    /// [`roundtrip_json`](Self::roundtrip_json) returns. Only valid
    /// after [`upgrade_binary`](Self::upgrade_binary).
    ///
    /// # Errors
    ///
    /// IO failures; decode failures surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn roundtrip_frame(&mut self, frame: &[u8]) -> io::Result<Json> {
        self.writer.write_all(frame)?;
        self.writer.flush()?;
        wirecodec::read_response(&mut self.reader).map_err(wire_to_io)
    }

    /// Encode `env` and [`roundtrip_frame`](Self::roundtrip_frame) it.
    ///
    /// # Errors
    ///
    /// As `roundtrip_frame`, plus [`io::ErrorKind::InvalidData`] for a
    /// request that has no binary encoding (`hello`).
    pub fn roundtrip_binary(&mut self, env: &Envelope) -> io::Result<Json> {
        let frame = wirecodec::encode_request(env).map_err(wire_to_io)?;
        self.roundtrip_frame(&frame)
    }
}

fn wire_to_io(e: WireError) -> io::Error {
    match e {
        WireError::Io(kind) => io::Error::new(kind, "binary roundtrip failed"),
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// One-shot request on a fresh connection (metrics scrapes, control ops).
///
/// # Errors
///
/// A human-readable string for connect, IO or JSON failures.
pub fn request(addr: SocketAddr, line: &str) -> Result<Json, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.roundtrip_json(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{LineHandler, LineReply, TcpLineServer};
    use std::sync::Arc;

    struct Upper;
    impl LineHandler for Upper {
        fn handle_line(&self, raw: Vec<u8>) -> LineReply {
            LineReply::reply(String::from_utf8_lossy(&raw).to_uppercase())
        }
    }

    #[test]
    fn roundtrips_in_order() {
        let server = TcpLineServer::bind("127.0.0.1:0", Arc::new(Upper)).expect("bind");
        let mut c = Client::connect(server.local_addr()).expect("connect");
        assert_eq!(c.roundtrip("abc").expect("rt"), "ABC");
        assert_eq!(c.roundtrip("def").expect("rt"), "DEF");
        server.stop();
        server.join();
    }

    /// Speaks just enough of the binary protocol to exercise the client
    /// side of the upgrade without a full synthesis server.
    struct BinaryPong;
    impl LineHandler for BinaryPong {
        fn handle_line(&self, _raw: Vec<u8>) -> LineReply {
            crate::runtime::LineReply {
                line: "{\"id\":null,\"code\":200,\"status\":\"ok\"}".into(),
                shutdown: false,
                upgrade: true,
            }
        }

        fn handle_frame(&self, frame: nshot_wire::Frame) -> Option<crate::runtime::FrameReply> {
            let env = wirecodec::decode_request(&frame.payload).ok()?;
            let frames = wirecodec::encode_response_frames(
                &env.id,
                200,
                "ok",
                &[("pong".to_owned(), Json::Bool(true))],
                false,
                5,
                9,
                "",
            );
            Some(crate::runtime::FrameReply {
                frames,
                shutdown: false,
            })
        }
    }

    #[test]
    fn binary_upgrade_and_roundtrip() {
        use crate::protocol::{Envelope, Request};
        let server = TcpLineServer::bind("127.0.0.1:0", Arc::new(BinaryPong)).expect("bind");
        let mut c = Client::connect(server.local_addr()).expect("connect");
        c.upgrade_binary().expect("upgrade");
        let env = Envelope {
            id: Json::Num(42.0),
            request: Request::Ping,
        };
        let obj = c.roundtrip_binary(&env).expect("roundtrip");
        assert_eq!(obj.get("id").unwrap().as_u64(), Some(42));
        assert_eq!(obj.get("code").unwrap().as_u64(), Some(200));
        assert_eq!(obj.get("pong").unwrap().as_bool(), Some(true));
        server.stop();
        server.join();
    }

    #[test]
    fn eof_is_an_error_not_an_empty_line() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accept = std::thread::spawn(move || drop(listener.accept()));
        let mut c = Client::connect(addr).expect("connect");
        accept.join().expect("join");
        let err = c.roundtrip("{\"op\":\"ping\"}");
        assert!(err.is_err(), "EOF must surface as an error");
    }
}
