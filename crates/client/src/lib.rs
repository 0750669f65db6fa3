//! Blocking client for the xqview session protocol: a [`Client`] with
//! one typed method per [`proto::Request`], plus an open-loop
//! many-connection load generator ([`load`]) behind `xqview-cli bench`.
//!
//! ```no_run
//! use client::Client;
//! use xquery_lang::UpdateBatch;
//!
//! let mut c = Client::connect("127.0.0.1:7464", "example").unwrap();
//! c.register_view("y1900", r#"<r>{ for $b in doc("bib.xml")/bib/book
//!     where $b/@year = "1994" return <hit>{$b/title}</hit> }</r>"#)
//! .unwrap();
//! let batch = UpdateBatch::from_script(r#"for $r in doc("bib.xml")/bib update $r
//!     insert <book year="1994"><title>New</title></book> into $r"#)
//! .unwrap();
//! c.submit(&batch).unwrap();
//! let receipt = c.commit().unwrap();
//! assert_eq!(receipt.batches_submitted, 1);
//! let extent = c.query_view("y1900").unwrap();
//! println!("{}", extent.to_xml());
//! ```

pub mod load;

use proto::{
    CommitReceipt, ErrorKind, FrameError, Request, Response, ServerStats, WireErr, PROTOCOL_VERSION,
};
use std::net::TcpStream;
use std::time::Duration;
use wire::Encode;
use xquery_lang::UpdateBatch;

/// Default socket I/O timeout for every call: generous enough for a
/// commit waiting on a loaded group fsync, small enough that a wedged
/// server fails the call ([`ClientError::TimedOut`]) instead of hanging
/// the caller forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A client-side failure: transport, framing, a typed server error, or a
/// response of the wrong shape.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection failed (connect, send, or response write).
    Io(std::io::Error),
    /// The response stream was defective (torn frame, bad CRC, …).
    Frame(FrameError),
    /// The server produced no (complete) response within the socket
    /// timeout ([`DEFAULT_IO_TIMEOUT`] unless overridden via
    /// [`Client::set_io_timeout`]). The stream may have been left
    /// mid-frame, so the connection is no longer usable — reconnect.
    TimedOut {
        /// The timeout that expired.
        after: Duration,
    },
    /// The server answered with a typed [`WireErr`] — inspect
    /// [`WireErr::kind`]; [`ErrorKind::QueueFull`] is the remote
    /// backpressure signal (the submitted batch is still owned by the
    /// caller, [`Client::submit`] takes it by reference).
    Server(WireErr),
    /// The server answered with a well-formed but unexpected variant.
    Unexpected {
        /// The response variant the request called for.
        expected: &'static str,
        /// Debug rendering of what arrived instead.
        got: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Frame(e) => write!(f, "response stream defective: {e}"),
            ClientError::TimedOut { after } => {
                write!(f, "no response within {after:?}; the connection must be re-established")
            }
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected { expected, got } => {
                write!(f, "expected a {expected} response, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            ClientError::Server(e) => Some(e),
            ClientError::TimedOut { .. } | ClientError::Unexpected { .. } => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        ClientError::Frame(e)
    }
}

impl ClientError {
    /// True when the server rejected a submit with remote backpressure —
    /// flush/commit, then resubmit the batch (still owned by the caller).
    pub fn is_queue_full(&self) -> bool {
        matches!(self, ClientError::Server(e) if matches!(e.kind, ErrorKind::QueueFull { .. }))
    }
}

/// `Request::Submit` encoded from a *borrowed* batch — byte-identical to
/// `Request::Submit(batch.clone())` without the clone, so the caller
/// keeps ownership for retry after backpressure.
struct SubmitRef<'a>(&'a UpdateBatch);

// xqcheck: allow(codec-pair) — outbound-only borrowed mirror of Request::Submit; the owned Request decodes
impl Encode for SubmitRef<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(3); // Request::Submit's tag (pinned by a unit test below)
        self.0.encode(out);
    }
}

/// A blocking session with one `xqview-server`: connects, performs the
/// `Hello` handshake, then exchanges one framed response per request.
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
    io_timeout: Option<Duration>,
    views: Vec<String>,
    server: String,
}

impl Client {
    /// Connect and greet with the [`DEFAULT_IO_TIMEOUT`]. `name`
    /// identifies this client in server logs.
    pub fn connect(addr: &str, name: &str) -> Result<Client, ClientError> {
        Client::connect_with(addr, name, Some(DEFAULT_IO_TIMEOUT))
    }

    /// Connect and greet with an explicit socket timeout (`None` blocks
    /// forever, the pre-timeout behavior).
    pub fn connect_with(
        addr: &str,
        name: &str,
        io_timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Client::handshake(stream, name, io_timeout)
    }

    /// Connect with retries — for racing a server that is still binding
    /// (process startup, restart-after-crash tests). Retries only
    /// connection establishment, never a request.
    pub fn connect_with_retry(
        addr: &str,
        name: &str,
        attempts: usize,
        delay: Duration,
    ) -> Result<Client, ClientError> {
        let attempts = attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let r = TcpStream::connect(addr)
                .map_err(ClientError::from)
                .and_then(|stream| Client::handshake(stream, name, Some(DEFAULT_IO_TIMEOUT)));
            match r {
                Ok(c) => return Ok(c),
                Err(e) if attempt >= attempts => return Err(e),
                Err(_) => std::thread::sleep(delay),
            }
        }
    }

    fn handshake(
        stream: TcpStream,
        name: &str,
        io_timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let mut c = Client {
            stream,
            max_frame: proto::DEFAULT_MAX_FRAME,
            io_timeout,
            views: Vec::new(),
            server: String::new(),
        };
        let resp = c
            .call(&Request::Hello { client: name.to_string(), protocol: PROTOCOL_VERSION })
            .and_then(Client::ok)?;
        match resp {
            Response::HelloOk { server, views, .. } => {
                c.server = server;
                c.views = views;
                Ok(c)
            }
            other => Err(unexpected("HelloOk", other)),
        }
    }

    /// Override the per-call socket timeout (`None` blocks forever).
    pub fn set_io_timeout(&mut self, io_timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(io_timeout)?;
        self.stream.set_write_timeout(io_timeout)?;
        self.io_timeout = io_timeout;
        Ok(())
    }

    /// The server's self-identification from the handshake.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// View names reported by the handshake (a snapshot, not live).
    pub fn views(&self) -> &[String] {
        &self.views
    }

    /// Send one request, read one response.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        proto::send(&mut self.stream, req).map_err(|e| self.io_err(e))?;
        proto::recv(&mut self.stream, self.max_frame).map_err(|e| self.frame_err(e))
    }

    /// Classify a transport error, surfacing an expired socket timeout
    /// as the typed [`ClientError::TimedOut`].
    fn io_err(&self, e: std::io::Error) -> ClientError {
        use std::io::ErrorKind;
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            ClientError::TimedOut { after: self.io_timeout.unwrap_or_default() }
        } else {
            ClientError::Io(e)
        }
    }

    /// Classify a response-stream error, surfacing an expired socket
    /// timeout as the typed [`ClientError::TimedOut`].
    fn frame_err(&self, e: FrameError) -> ClientError {
        if e.is_timeout() {
            ClientError::TimedOut { after: self.io_timeout.unwrap_or_default() }
        } else {
            ClientError::Frame(e)
        }
    }

    /// Turn a `Response::Error` into `ClientError::Server`, pass the rest.
    fn ok(resp: Response) -> Result<Response, ClientError> {
        match resp {
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Ok(other),
        }
    }

    /// Define, materialize, and register a view on the server.
    pub fn register_view(&mut self, name: &str, query: &str) -> Result<(), ClientError> {
        let resp =
            self.call(&Request::RegisterView { name: name.to_string(), query: query.to_string() })?;
        match Self::ok(resp)? {
            Response::Registered { .. } => Ok(()),
            other => Err(unexpected("Registered", other)),
        }
    }

    /// Drop the view named `name` on the server.
    pub fn drop_view(&mut self, name: &str) -> Result<(), ClientError> {
        let resp = self.call(&Request::DropView { name: name.to_string() })?;
        match Self::ok(resp)? {
            Response::Dropped { .. } => Ok(()),
            other => Err(unexpected("Dropped", other)),
        }
    }

    /// Enqueue a typed batch into this connection's server-side session
    /// (scripts are parsed at the edge: [`UpdateBatch::from_script`]).
    /// Takes the batch by reference (encoded borrowed), so on
    /// [`ErrorKind::QueueFull`] the caller still owns it and can commit
    /// then resubmit. Returns `(queued_batches, queued_ops)`.
    pub fn submit(&mut self, batch: &UpdateBatch) -> Result<(u64, u64), ClientError> {
        proto::send(&mut self.stream, &SubmitRef(batch)).map_err(|e| self.io_err(e))?;
        let resp: Response =
            proto::recv(&mut self.stream, self.max_frame).map_err(|e| self.frame_err(e))?;
        match Self::ok(resp)? {
            Response::Submitted { queued_batches, queued_ops } => Ok((queued_batches, queued_ops)),
            other => Err(unexpected("Submitted", other)),
        }
    }

    /// Nudge a server drain round (no durability wait). Returns the
    /// chunks the round applied.
    pub fn flush(&mut self) -> Result<u64, ClientError> {
        let resp = self.call(&Request::Flush)?;
        match Self::ok(resp)? {
            Response::Flushed { chunks_applied } => Ok(chunks_applied),
            other => Err(unexpected("Flushed", other)),
        }
    }

    /// Drain this session's queue, wait for durability, fold receipts —
    /// the remote durability boundary.
    pub fn commit(&mut self) -> Result<CommitReceipt, ClientError> {
        let resp = self.call(&Request::Commit)?;
        match Self::ok(resp)? {
            Response::Committed(r) => Ok(r),
            other => Err(unexpected("Committed", other)),
        }
    }

    /// The materialized extent of `name`, decoded.
    pub fn query_view(&mut self, name: &str) -> Result<xat::ViewExtent, ClientError> {
        let bytes = self.query_view_bytes(name)?;
        wire::from_slice(&bytes).map_err(|e| ClientError::Frame(FrameError::Decode(e)))
    }

    /// The materialized extent of `name` as raw wire bytes —
    /// byte-identical to the server's in-process `extent_bytes`.
    pub fn query_view_bytes(&mut self, name: &str) -> Result<Vec<u8>, ClientError> {
        self.query_view_stamped(name).map(|(bytes, _, _)| bytes)
    }

    /// Like [`Client::query_view_bytes`], plus the snapshot provenance:
    /// the epoch sequence the bytes were served from and its commit
    /// watermark (batches applied when the epoch was frozen). Two reads
    /// returning the same epoch are guaranteed byte-identical.
    pub fn query_view_stamped(&mut self, name: &str) -> Result<(Vec<u8>, u64, u64), ClientError> {
        let resp = self.call(&Request::QueryView { name: name.to_string() })?;
        match Self::ok(resp)? {
            Response::Extent { bytes, epoch, watermark, .. } => Ok((bytes, epoch, watermark)),
            other => Err(unexpected("Extent", other)),
        }
    }

    /// Service counters, catalog shape, WAL position, `net/*` latencies.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        let resp = self.call(&Request::Stats)?;
        match Self::ok(resp)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", other)),
        }
    }

    /// The full merged metrics snapshot as JSON.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        let resp = self.call(&Request::MetricsDump)?;
        match Self::ok(resp)? {
            Response::Metrics { json } => Ok(json),
            other => Err(unexpected("Metrics", other)),
        }
    }

    /// Ask the server to shut down gracefully (drain, seal, exit).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let resp = self.call(&Request::Shutdown)?;
        match Self::ok(resp)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", other)),
        }
    }
}

fn unexpected(expected: &'static str, got: Response) -> ClientError {
    ClientError::Unexpected { expected, got: format!("{got:?}") }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SubmitRef` must stay byte-identical to an owned
    /// `Request::Submit` — the borrowed-encode fast path depends on it.
    #[test]
    fn submit_ref_encodes_like_owned_submit() {
        let batch = UpdateBatch::from_script(
            r#"for $r in doc("bib.xml")/bib update $r
               insert <book year="2001"><title>B</title></book> into $r"#,
        )
        .unwrap();
        let owned = wire::to_vec(&Request::Submit(batch.clone()));
        let borrowed = wire::to_vec(&SubmitRef(&batch));
        assert_eq!(owned, borrowed);
    }

    /// A server that accepts but never answers must fail the call with
    /// the typed timeout, not hang the caller.
    #[test]
    fn silent_server_times_out_typed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || {
            // Accept and hold the socket open, answering nothing.
            let (s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(400));
            drop(s);
        });
        let err = match Client::connect_with(&addr, "impatient", Some(Duration::from_millis(100))) {
            Err(e) => e,
            Ok(_) => panic!("handshake against a silent server must not succeed"),
        };
        assert!(matches!(err, ClientError::TimedOut { .. }), "expected a timeout, got {err:?}");
        hold.join().unwrap();
    }
}
