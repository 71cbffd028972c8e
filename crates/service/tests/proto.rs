//! Protocol corruption suite, mirroring the persistence layer's
//! kill-every-byte style: every truncation point, every single-byte flip,
//! oversized lengths, forged checksums, and bad bodies must each produce a
//! typed protocol error and a clean connection close — never a panic, a
//! hang, or an allocation sized by attacker-controlled bytes. After every
//! abuse the server must still serve the next well-formed connection.

use cpma_api::testkit::{assert_all_refused, Damage};
use cpma_pma::Cpma;
use cpma_service::proto::{self, ProtoError, RecvError, PROTOCOL_VERSION};
use cpma_service::{Client, Reply, Request, Service, ServiceConfig, MAX_FRAME_BYTES};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A server with a short read timeout, so half-sent frames cannot park a
/// worker for long.
fn serve_short_timeout() -> (Service, SocketAddr) {
    serve_short_timeout_with(ServiceConfig::default().workers)
}

fn serve_short_timeout_with(workers: usize) -> (Service, SocketAddr) {
    let cfg = ServiceConfig {
        workers,
        read_timeout: Some(Duration::from_millis(200)),
    };
    let (service, _combiner) = Service::serve(Cpma::new(), cfg).unwrap();
    let addr = service.local_addr();
    (service, addr)
}

/// Write `bytes`, half-close, and collect every reply frame until the
/// server closes. Returns the decoded replies; panics on a reply that does
/// not parse (the server must never emit garbage).
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<Reply> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut replies = Vec::new();
    loop {
        match proto::read_frame(&mut stream, MAX_FRAME_BYTES) {
            Ok(Some(body)) => replies.push(Reply::decode_body(&body).expect("server sent garbage")),
            Ok(None) => return replies, // clean close
            Err(RecvError::Io(e)) => panic!("transport error reading reply: {e}"),
            Err(RecvError::Proto(e)) => panic!("server sent malformed frame: {e}"),
        }
    }
}

/// The server is alive iff a fresh connection round-trips a request.
fn assert_server_alive(addr: SocketAddr) {
    let mut client = Client::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.contains(0).unwrap();
}

fn insert_frame(seq: u64, key: u64) -> Vec<u8> {
    proto::request_frame(&Request::Insert { seq, key })
}

/// What the server made of `bytes`, as the shared corruption table wants
/// it: `Err` (naming the replies) iff nothing was acknowledged — every
/// reply is a typed `Error` — and `Ok` if any op got through.
fn acked(addr: SocketAddr, bytes: &[u8]) -> Result<(), String> {
    let replies = send_raw(addr, bytes);
    if replies.iter().all(|r| matches!(r, Reply::Error { .. })) {
        Err(format!("{replies:?}"))
    } else {
        Ok(())
    }
}

#[test]
fn truncation_at_every_byte_closes_cleanly() {
    let (mut service, addr) = serve_short_timeout();
    let frame = insert_frame(7, 42);
    assert!(acked(addr, &frame).is_ok(), "the whole frame is served");
    let cuts = Damage::sweep(frame.len(), usize::MAX, 1, &[]);
    assert_all_refused(&frame, cuts, |cut| {
        let replies = send_raw(addr, cut);
        if cut.is_empty() {
            // Nothing sent: a clean close at the frame boundary, no reply.
            assert!(replies.is_empty(), "cut 0: unexpected replies {replies:?}");
        } else {
            // Mid-frame EOF: at most one typed error reply, then close.
            assert!(replies.len() <= 1, "cut {}: {replies:?}", cut.len());
        }
        acked(addr, cut)
    });
    assert_server_alive(addr);
    service.shutdown();
}

#[test]
fn byte_flip_at_every_position_yields_typed_error() {
    let (mut service, addr) = serve_short_timeout();
    let frame = insert_frame(9, 1234);
    // Whatever byte was hit — length prefix, version, opcode, seq, payload,
    // digest — the server must answer with errors only and close; a flipped
    // frame must never ack as a valid op.
    let flips = Damage::sweep(frame.len(), usize::MAX, 1, &[0x01, 0x80])
        .into_iter()
        .filter(|d| matches!(d, Damage::Flip { .. }));
    assert_all_refused(&frame, flips, |bad| acked(addr, bad));
    assert_server_alive(addr);
    service.shutdown();
}

/// The reply to `damage` applied to a valid insert frame: exactly one typed
/// error, whose code is returned.
fn error_code_for(addr: SocketAddr, damage: Damage) -> u8 {
    let replies = send_raw(addr, &damage.apply(&insert_frame(3, 55)));
    match replies[..] {
        [Reply::Error { code, .. }] => code,
        ref other => panic!("{damage:?}: expected one Error, got {other:?}"),
    }
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    let (mut service, addr) = serve_short_timeout();
    // Claim a 4 GiB body. The server (frame cap 1 MiB) must reject on the
    // prefix alone — long before 4 GiB could arrive — with the Oversize
    // code, and fast.
    let started = Instant::now();
    assert_eq!(
        error_code_for(addr, Damage::OversizeLength),
        ProtoError::Oversize { len: 0, max: 0 }.code()
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "oversize rejection took {:?}",
        started.elapsed()
    );
    assert_server_alive(addr);
    service.shutdown();
}

#[test]
fn forged_checksum_is_rejected() {
    let (mut service, addr) = serve_short_timeout();
    // The digest rewritten to a wrong-but-plausible value.
    assert_eq!(
        error_code_for(addr, Damage::ForgedDigest),
        ProtoError::ChecksumMismatch.code()
    );
    assert_server_alive(addr);
    service.shutdown();
}

/// A version-1 request, byte for byte as the last FNV-1a build framed it
/// (`Insert { seq: 7, key: 42 }`): its frame digest no longer verifies, so
/// an old client gets one typed error and a clean close, nothing is
/// inserted, and the server goes on serving.
#[test]
fn a_v1_frame_gets_a_typed_error_and_a_clean_close() {
    const FRAME_V1: [u8; 30] = [
        18, 0, 0, 0, 1, 1, 7, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0, 154, 75, 6, 203, 73,
        20, 65, 36,
    ];
    let (mut service, addr) = serve_short_timeout();
    assert_eq!(
        send_raw(addr, &FRAME_V1),
        vec![Reply::Error {
            seq: 0,
            code: ProtoError::ChecksumMismatch.code()
        }]
    );
    // The same v1 body under today's digest gets past the frame and is
    // refused on its version byte, echoing the sequence id.
    assert_eq!(
        send_raw(addr, &framed(&FRAME_V1[4..22])),
        vec![Reply::Error {
            seq: 7,
            code: ProtoError::UnsupportedVersion(1).code()
        }]
    );
    let mut client = Client::connect(addr).unwrap();
    assert!(!client.contains(42).unwrap());
    assert_server_alive(addr);
    service.shutdown();
}

/// Frame a raw body with a *valid* checksum (to reach the body decoder).
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    proto::encode_frame(body, &mut out);
    out
}

#[test]
fn bad_version_opcode_and_length_echo_seq() {
    let (mut service, addr) = serve_short_timeout();

    // Unsupported version byte.
    let mut body = proto::request_frame(&Request::Insert { seq: 11, key: 1 })[4..22].to_vec();
    body[0] = 9;
    let replies = send_raw(addr, &framed(&body));
    assert_eq!(
        replies,
        vec![Reply::Error {
            seq: 11,
            code: ProtoError::UnsupportedVersion(9).code()
        }]
    );

    // Unknown opcode; the seq survives and is echoed.
    let mut body = vec![PROTOCOL_VERSION, 0xAB];
    body.extend_from_slice(&77u64.to_le_bytes());
    body.extend_from_slice(&5u64.to_le_bytes());
    let replies = send_raw(addr, &framed(&body));
    assert_eq!(
        replies,
        vec![Reply::Error {
            seq: 77,
            code: ProtoError::BadOpcode(0xAB).code()
        }]
    );

    // Insert with a short payload.
    let mut body = vec![PROTOCOL_VERSION, 1];
    body.extend_from_slice(&13u64.to_le_bytes());
    body.extend_from_slice(&[1, 2, 3]); // 3 bytes where a key needs 8
    let replies = send_raw(addr, &framed(&body));
    assert_eq!(
        replies,
        vec![Reply::Error {
            seq: 13,
            code: ProtoError::BadLength { opcode: 1, len: 3 }.code()
        }]
    );

    // ContainsBatch whose count field lies about the bytes present: must
    // be BadLength (no allocation from the forged count).
    let mut body = vec![PROTOCOL_VERSION, 4];
    body.extend_from_slice(&21u64.to_le_bytes());
    body.extend_from_slice(&1_000_000u32.to_le_bytes());
    body.extend_from_slice(&7u64.to_le_bytes()); // one key, not a million
    let replies = send_raw(addr, &framed(&body));
    assert_eq!(replies.len(), 1);
    assert!(matches!(
        replies[0],
        Reply::Error { seq: 21, code } if code == ProtoError::BadLength { opcode: 4, len: 12 }.code()
    ));

    // Body shorter than the header: error with seq 0 (nothing to echo).
    let replies = send_raw(addr, &framed(&[PROTOCOL_VERSION, 1]));
    assert_eq!(replies.len(), 1);
    assert!(matches!(replies[0], Reply::Error { seq: 0, .. }));

    assert_server_alive(addr);
    service.shutdown();
}

#[test]
fn good_frames_before_a_bad_one_are_still_answered() {
    let (mut service, addr) = serve_short_timeout();
    // Pipeline: two valid inserts, then a checksum-corrupt frame.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&insert_frame(1, 100));
    bytes.extend_from_slice(&insert_frame(2, 200));
    let mut bad = insert_frame(3, 300);
    let n = bad.len();
    bad[n - 1] ^= 0xFF;
    bytes.extend_from_slice(&bad);

    let replies = send_raw(addr, &bytes);
    // The two good ops are acked (in order), then one error, then close.
    assert!(
        (1..=3).contains(&replies.len()),
        "unexpected reply count: {replies:?}"
    );
    assert!(
        matches!(replies.last().unwrap(), Reply::Error { .. }),
        "last reply must be the error: {replies:?}"
    );
    for rep in &replies[..replies.len() - 1] {
        assert!(matches!(rep, Reply::Bool { value: true, .. }), "{rep:?}");
    }

    // Whatever was acked is durable in the store: check over a fresh
    // connection that the acked keys are present.
    let mut client = Client::connect(addr).unwrap();
    for (i, key) in [100u64, 200].iter().enumerate() {
        if i < replies.len() - 1 {
            assert!(client.contains(*key).unwrap(), "acked key {key} missing");
        }
    }
    assert_server_alive(addr);
    service.shutdown();
}

#[test]
fn half_sent_frame_then_silence_times_out() {
    half_sent_frame_then_silence_times_out_with(ServiceConfig::default().workers);
}

/// The slow-loris case: the stalled client holds the only worker, and a
/// client that connects during the stall waits in the listen backlog until
/// the read timeout frees the worker.
#[test]
fn half_sent_frame_then_silence_times_out_with_one_worker() {
    half_sent_frame_then_silence_times_out_with(1);
}

fn half_sent_frame_then_silence_times_out_with(workers: usize) {
    let (mut service, addr) = serve_short_timeout_with(workers);
    let frame = insert_frame(5, 5);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Send half a frame and go silent — the 200 ms server read timeout
    // must free the worker (close), not hang it.
    stream.write_all(&frame[..frame.len() / 2]).unwrap();
    let started = Instant::now();
    let mut waiting = Client::connect(addr).unwrap();
    waiting
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let waiting = std::thread::spawn(move || waiting.insert(6).unwrap());
    match proto::read_frame(&mut stream, MAX_FRAME_BYTES) {
        Ok(None) => {} // server closed cleanly
        Ok(Some(_)) => panic!("server answered a half frame"),
        Err(RecvError::Io(_)) => {} // reset also acceptable
        Err(RecvError::Proto(e)) => panic!("garbage from server: {e}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "server held a half-open connection for {:?}",
        started.elapsed()
    );
    assert!(waiting.join().unwrap(), "the waiting client's insert");
    assert_server_alive(addr);
    service.shutdown();
}

#[test]
fn shutdown_with_a_backlogged_client_returns() {
    let (mut service, addr) = serve_short_timeout_with(1);
    // A is served by the only worker; B waits in the backlog behind it.
    let mut a = Client::connect(addr).unwrap();
    assert!(a.insert(1).unwrap());
    let mut b = TcpStream::connect(addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    b.write_all(&insert_frame(2, 2)).unwrap();

    let started = Instant::now();
    service.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
    match proto::read_frame(&mut b, MAX_FRAME_BYTES) {
        Ok(None) | Err(RecvError::Io(_)) => {} // EOF or reset
        Ok(Some(body)) => panic!("a backlogged client was served: {body:?}"),
        Err(RecvError::Proto(e)) => panic!("garbage from server: {e}"),
    }
}

#[test]
fn connect_and_close_immediately_is_fine() {
    let (mut service, addr) = serve_short_timeout();
    for _ in 0..8 {
        drop(TcpStream::connect(addr).unwrap());
    }
    assert_server_alive(addr);
    service.shutdown();
}
