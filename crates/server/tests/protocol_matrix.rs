//! Malformed-input matrix over a live socket: every defective byte
//! sequence must cost the abuser at most its own connection — a typed
//! error response or a clean drop, never a panic, a wedged hub, or
//! collateral damage to a concurrent well-behaved client.

use client::Client;
use proto::{ErrorKind, FrameError, Request, Response};
use server::{Server, ServerConfig};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;
use viewsrv::ViewCatalog;
use xmlstore::Store;

const BIB: &str = r#"<bib><book year="1900"><title>T0</title></book></bib>"#;

const VIEW: &str = r#"<result>{
  for $b in doc("bib.xml")/bib/book
  where $b/@year = "1900"
  return <hit>{$b/title}</hit>
}</result>"#;

const SCRIPT: &str = r#"for $r in doc("bib.xml")/bib update $r
    insert <book year="1900"><title>net</title></book> into $r"#;

fn start_server(max_frame: usize) -> Server {
    let mut store = Store::new();
    store.load_doc("bib.xml", BIB).unwrap();
    Server::start_volatile(
        ViewCatalog::new(store),
        ServerConfig { max_frame, ..ServerConfig::default() },
    )
    .unwrap()
}

fn raw(srv: &Server) -> TcpStream {
    let s = TcpStream::connect(srv.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// What the server did about one abusive byte sequence.
#[derive(Debug)]
enum Outcome {
    /// A typed error frame came back (then the connection closed).
    TypedError(ErrorKind),
    /// The connection dropped with no response — acceptable for a peer
    /// that never sent an intelligible frame.
    Dropped,
}

/// Read the server's reaction: exactly one `Response::Error` or a close.
/// Anything else — a non-error response, a defective response frame, a
/// hang — fails the test.
fn reaction(stream: &mut TcpStream, what: &str) -> Outcome {
    // The server closes while our defective bytes may still sit unread in
    // its receive buffer, which surfaces as RST (connection reset) rather
    // than a clean FIN — both count as the connection being dropped.
    let reset = |e: &FrameError| matches!(e, FrameError::Io(io) if io.kind() == std::io::ErrorKind::ConnectionReset);
    match proto::recv::<Response>(stream, proto::DEFAULT_MAX_FRAME) {
        Ok(Response::Error(e)) => {
            // After the error the stream must close, not resync.
            match proto::recv::<Response>(stream, proto::DEFAULT_MAX_FRAME) {
                Err(FrameError::Closed) => {}
                Err(e) if reset(&e) => {}
                other => panic!("{what}: connection stayed open after error: {other:?}"),
            }
            Outcome::TypedError(e.kind)
        }
        Ok(other) => panic!("{what}: expected an error or a drop, got {other:?}"),
        Err(FrameError::Closed) => Outcome::Dropped,
        Err(e) if reset(&e) => Outcome::Dropped,
        Err(e) => panic!("{what}: defective server response: {e}"),
    }
}

/// A valid `Hello` frame so abuse can also be tested mid-conversation.
fn hello_bytes(name: &str) -> Vec<u8> {
    let payload = wire::to_vec(&Request::Hello {
        client: name.to_string(),
        protocol: proto::PROTOCOL_VERSION,
    });
    let mut out = Vec::new();
    wire::frame::write_frame(&mut out, &payload);
    out
}

/// Drive the shared good client through a full useful round trip — the
/// "hub still healthy" probe between abuse cases.
fn assert_healthy(good: &mut Client, round: usize) {
    let batch = viewsrv::UpdateBatch::from_script(SCRIPT).unwrap();
    good.submit(&batch).unwrap_or_else(|e| panic!("round {round}: submit failed: {e}"));
    let r = good.commit().unwrap_or_else(|e| panic!("round {round}: commit failed: {e}"));
    assert_eq!(r.batches_submitted, 1, "round {round}");
    let extent =
        good.query_view("y1900").unwrap_or_else(|e| panic!("round {round}: query failed: {e}"));
    // One book seeded + one insert per healthy probe (this is probe
    // number `round + 1`).
    let xml = extent.to_xml();
    let hits = xml.matches("<hit>").count();
    assert_eq!(hits, round + 2, "round {round}: unexpected extent {xml}");
}

#[test]
fn malformed_input_matrix() {
    // A small frame bound so the oversized case needs no 64 MiB prefix.
    let srv = start_server(64 * 1024);
    let addr = srv.local_addr().to_string();
    let mut good =
        Client::connect_with_retry(&addr, "good", 20, Duration::from_millis(25)).unwrap();
    good.register_view("y1900", VIEW).unwrap();
    let mut round = 0;
    assert_healthy(&mut good, round);

    // 1. Torn frame: a header promising more payload than ever arrives.
    {
        let mut s = raw(&srv);
        let mut bytes = vec![wire::frame::VERSION];
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 10]);
        s.write_all(&bytes).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        match reaction(&mut s, "torn frame") {
            Outcome::TypedError(ErrorKind::Frame) | Outcome::Dropped => {}
            other => panic!("torn frame: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 2. Bad CRC: a complete well-formed frame with a corrupted trailer.
    {
        let mut s = raw(&srv);
        let mut bytes = hello_bytes("crc-abuser");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        s.write_all(&bytes).unwrap();
        match reaction(&mut s, "bad crc") {
            Outcome::TypedError(ErrorKind::Frame) | Outcome::Dropped => {}
            other => panic!("bad crc: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 3. Wrong frame-format version byte.
    {
        let mut s = raw(&srv);
        let mut bytes = hello_bytes("version-abuser");
        bytes[0] = 9;
        s.write_all(&bytes).unwrap();
        match reaction(&mut s, "wrong version") {
            Outcome::TypedError(ErrorKind::Frame) | Outcome::Dropped => {}
            other => panic!("wrong version: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 4. Oversized length prefix: refused before any payload allocation.
    {
        let mut s = raw(&srv);
        let mut bytes = vec![wire::frame::VERSION];
        bytes.extend_from_slice(&(512u32 * 1024 * 1024).to_le_bytes());
        s.write_all(&bytes).unwrap();
        match reaction(&mut s, "oversized") {
            Outcome::TypedError(ErrorKind::Frame) | Outcome::Dropped => {}
            other => panic!("oversized: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 5. A peer speaking a different protocol entirely.
    {
        let mut s = raw(&srv);
        s.write_all(b"GET / HTTP/1.1\r\nHost: xqview\r\n\r\n").unwrap();
        match reaction(&mut s, "http garbage") {
            Outcome::TypedError(ErrorKind::Frame) | Outcome::Dropped => {}
            other => panic!("http garbage: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 6. Half-close before any bytes: a silent, clean drop.
    {
        let s = raw(&srv);
        s.shutdown(Shutdown::Write).unwrap();
        let mut s = s;
        match reaction(&mut s, "half close") {
            Outcome::Dropped => {}
            other => panic!("half close: expected a quiet drop, got {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 7. Well-framed garbage payload: framing is fine, schema is not.
    {
        let mut s = raw(&srv);
        let mut bytes = Vec::new();
        wire::frame::write_frame(&mut bytes, &[0xEE, 0xFF, 0x00, 0x42]);
        s.write_all(&bytes).unwrap();
        match reaction(&mut s, "undecodable payload") {
            Outcome::TypedError(ErrorKind::Protocol) => {}
            other => panic!("undecodable payload: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 8. A valid request that skips the handshake.
    {
        let mut s = raw(&srv);
        proto::send(&mut s, &Request::Stats).unwrap();
        match reaction(&mut s, "no hello") {
            Outcome::TypedError(ErrorKind::Protocol) => {}
            other => panic!("no hello: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 9. A hello from the future: unsupported protocol version.
    {
        let mut s = raw(&srv);
        proto::send(&mut s, &Request::Hello { client: "future".into(), protocol: 99 }).unwrap();
        match reaction(&mut s, "future protocol") {
            Outcome::TypedError(ErrorKind::Protocol) => {}
            other => panic!("future protocol: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 10. A first frame above the handshake bound: an unauthenticated
    // peer cannot claim a large payload, even one under the server's
    // post-handshake maximum.
    {
        let mut s = raw(&srv);
        let mut bytes = vec![wire::frame::VERSION];
        bytes.extend_from_slice(&(16u32 * 1024).to_le_bytes());
        s.write_all(&bytes).unwrap();
        match reaction(&mut s, "pre-hello oversized") {
            Outcome::TypedError(ErrorKind::Frame) | Outcome::Dropped => {}
            other => panic!("pre-hello oversized: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // 11. A handshaken peer submits `/bib/book[0]`. No parser or builder
    // produces position 0 (positions are 1-based), so only hand-made
    // bytes carry it; it is refused at decode, before it can reach the
    // resolver's position arithmetic on the drain thread.
    {
        let mut s = raw(&srv);
        s.write_all(&hello_bytes("zeroth")).unwrap();
        match proto::recv::<Response>(&mut s, proto::DEFAULT_MAX_FRAME) {
            Ok(Response::Error(e)) => panic!("hello refused: {e:?}"),
            Ok(_) => {}
            Err(e) => panic!("hello: {e}"),
        }
        // Encode `/bib/book[1]`, then make its position 0: the request ends
        // `[1]` (Some, Position, 1), no filter (0), delete (1) of no path (0).
        let op = xquery_lang::UpdateOp::delete("bib.xml", "/bib/book[1]").unwrap();
        let mut payload = wire::to_vec(&Request::Submit(xquery_lang::UpdateBatch::new().with(op)));
        let n = payload.len();
        assert_eq!(payload[n - 6..], [1, 1, 1, 0, 1, 0]);
        payload[n - 4] = 0;
        let mut frame = Vec::new();
        wire::frame::write_frame(&mut frame, &payload);
        s.write_all(&frame).unwrap();
        match reaction(&mut s, "position zero") {
            Outcome::TypedError(ErrorKind::Protocol) => {}
            other => panic!("position zero: {other:?}"),
        }
    }
    round += 1;
    assert_healthy(&mut good, round);

    // The abuse was all counted, and only the abuse.
    let stats = good.stats().unwrap();
    assert!(
        stats.frame_errors >= 6,
        "expected the six defective-stream cases counted, got {}",
        stats.frame_errors
    );
    assert_eq!(stats.views, vec!["y1900"]);

    // The hub shuts down cleanly after all of it.
    srv.shutdown().expect("hub intact").catalog().verify_all().unwrap();
}

/// A legitimate frame whose bytes span many poll ticks must be
/// reassembled and served: a slow link is not a protocol defect, and a
/// mid-frame read timeout must never restart header parsing on the
/// half-consumed stream.
#[test]
fn slow_frames_spanning_poll_ticks_are_served() {
    let srv = start_server(64 * 1024);
    let mut s = raw(&srv);
    // Trickle the Hello frame a few bytes at a time, each gap well past
    // the server's 100 ms poll tick, so the read timeout fires inside
    // the frame repeatedly while bytes keep arriving.
    let bytes = hello_bytes("slowpoke");
    for chunk in bytes.chunks(3) {
        s.write_all(chunk).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    match proto::recv::<Response>(&mut s, proto::DEFAULT_MAX_FRAME).unwrap() {
        Response::HelloOk { .. } => {}
        other => panic!("slow hello: expected HelloOk, got {other:?}"),
    }
    // The stream stayed synchronized: a normal follow-up round-trips.
    proto::send(&mut s, &Request::Stats).unwrap();
    match proto::recv::<Response>(&mut s, proto::DEFAULT_MAX_FRAME).unwrap() {
        Response::Stats(stats) => assert_eq!(stats.frame_errors, 0),
        other => panic!("stats after slow hello: {other:?}"),
    }
}

/// A peer that stalls *inside* a frame is reaped at the read timeout —
/// delivering bytes resets the idle clock, going silent does not.
#[test]
fn stalled_mid_frame_is_reaped() {
    let mut store = Store::new();
    store.load_doc("bib.xml", BIB).unwrap();
    let srv = Server::start_volatile(
        ViewCatalog::new(store),
        ServerConfig { read_timeout: Duration::from_millis(300), ..ServerConfig::default() },
    )
    .unwrap();
    let mut s = raw(&srv);
    // Half a Hello frame, then silence past the read timeout.
    let bytes = hello_bytes("staller");
    s.write_all(&bytes[..bytes.len() / 2]).unwrap();
    s.flush().unwrap();
    std::thread::sleep(Duration::from_millis(900));
    match reaction(&mut s, "mid-frame stall") {
        Outcome::Dropped => {}
        other => panic!("mid-frame stall: expected a quiet drop, got {other:?}"),
    }
    // A fresh client is unaffected.
    let mut c = Client::connect(&srv.local_addr().to_string(), "after-stall").unwrap();
    c.register_view("y1900", VIEW).unwrap();
    assert_eq!(c.stats().unwrap().views, vec!["y1900"]);
}

/// A silent connection is reaped at the read timeout without affecting
/// an active one.
#[test]
fn idle_connections_are_reaped() {
    let mut store = Store::new();
    store.load_doc("bib.xml", BIB).unwrap();
    let srv = Server::start_volatile(
        ViewCatalog::new(store),
        ServerConfig { read_timeout: Duration::from_millis(200), ..ServerConfig::default() },
    )
    .unwrap();
    let addr = srv.local_addr().to_string();

    // The idler greets, then goes silent past the timeout.
    let mut idler =
        Client::connect_with_retry(&addr, "idler", 20, Duration::from_millis(25)).unwrap();
    std::thread::sleep(Duration::from_millis(700));
    let r = idler.stats();
    assert!(r.is_err(), "idle connection should have been closed, got {r:?}");

    // A fresh, active client is unaffected.
    let mut active = Client::connect(&addr, "active").unwrap();
    active.register_view("y1900", VIEW).unwrap();
    assert_eq!(active.stats().unwrap().views, vec!["y1900"]);
}
