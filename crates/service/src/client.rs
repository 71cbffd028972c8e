//! Blocking loopback client for the service protocol.
//!
//! [`Client`] assigns per-connection sequence ids, frames requests, and
//! verifies that every reply echoes the id of the request it answers. The
//! burst methods ([`Client::pipeline`], [`Client::mutate_burst`]) write all
//! frames in one `write_all` and then read all replies — the pipelining
//! that lets the server-side combiner see the whole burst as one epoch.
//! Every request is framed in place into one reused buffer (a batch of
//! keys goes from the caller's slice straight onto the wire image), and
//! replies are read through one buffered reader, so a burst's reply frames
//! cost a handful of `read` syscalls rather than two apiece.

use crate::proto::{self, ProtoError, RecvError, Reply, Request, DEFAULT_MAX_FRAME_BYTES};
use cpma_api::BatchOp;
use cpma_persist::frame;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport broke (connect, read, write, or a server hangup).
    Io(io::Error),
    /// The server's bytes did not parse.
    Proto(ProtoError),
    /// The server sent a typed [`Reply::Error`] (and closed).
    Server { seq: u64, code: u8 },
    /// A reply echoed the wrong sequence id.
    SeqMismatch { want: u64, got: u64 },
    /// The reply kind did not match the request (e.g. `Sum` for `Insert`).
    UnexpectedReply { seq: u64 },
    /// The server closed mid-conversation (fewer replies than requests).
    ConnectionClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server { seq, code } => {
                write!(f, "server error code {code} for seq {seq}")
            }
            ClientError::SeqMismatch { want, got } => {
                write!(f, "reply seq {got}, expected {want}")
            }
            ClientError::UnexpectedReply { seq } => {
                write!(f, "unexpected reply kind for seq {seq}")
            }
            ClientError::ConnectionClosed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Io(e) => ClientError::Io(e),
            RecvError::Proto(e) => ClientError::Proto(e),
        }
    }
}

/// Reply read buffer: a 512-op burst's replies (34 bytes each) fit in one
/// fill, an 8 192-op burst's in five.
const REPLY_BUF_BYTES: usize = 64 << 10;

/// The reader every reply goes through: [`proto::read_frame`]'s two small
/// reads per frame are served from memory, and a body larger than the
/// buffer is read straight into its own allocation.
fn reply_reader<R: Read>(stream: R) -> BufReader<R> {
    BufReader::with_capacity(REPLY_BUF_BYTES, stream)
}

/// One blocking connection to a [`crate::Service`].
pub struct Client {
    /// Reads are buffered; writes go to the stream underneath.
    reader: BufReader<TcpStream>,
    /// The request frames of the call in flight, encoded in place.
    wire: Vec<u8>,
    next_seq: u64,
    max_frame: u32,
}

impl Client {
    /// Connect to `addr` (typically [`crate::Service::local_addr`]).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: reply_reader(stream),
            wire: Vec::new(),
            next_seq: 1,
            max_frame: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Set a read timeout for replies (`None` waits forever).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(t)
    }

    /// Insert `key`; `true` iff newly added.
    pub fn insert(&mut self, key: u64) -> Result<bool, ClientError> {
        self.call_bool(|seq| Request::Insert { seq, key })
    }

    /// Remove `key`; `true` iff it was present.
    pub fn remove(&mut self, key: u64) -> Result<bool, ClientError> {
        self.call_bool(|seq| Request::Remove { seq, key })
    }

    /// Linearized membership test.
    pub fn contains(&mut self, key: u64) -> Result<bool, ClientError> {
        self.call_bool(|seq| Request::Contains { seq, key })
    }

    /// Snapshot membership for a batch of keys, positional.
    pub fn contains_batch(&mut self, keys: &[u64]) -> Result<Vec<bool>, ClientError> {
        let reply = self.call(|seq, body| proto::encode_contains_batch(body, seq, keys))?;
        match reply {
            Reply::Bools { values, .. } => Ok(values),
            other => Err(unexpected(other)),
        }
    }

    /// Snapshot sum of keys in `lo..=hi`.
    pub fn range_sum(&mut self, lo: u64, hi: u64) -> Result<u64, ClientError> {
        let reply = self.call(|seq, body| Request::RangeSum { seq, lo, hi }.encode_body(body))?;
        match reply {
            Reply::Sum { value, .. } => Ok(value),
            other => Err(unexpected(other)),
        }
    }

    /// Snapshot scan: up to `max` keys from `lo` upward (the server may
    /// clamp `max` to its configured scan limit).
    pub fn scan(&mut self, lo: u64, max: u32) -> Result<Vec<u64>, ClientError> {
        let reply = self.call(|seq, body| Request::Scan { seq, lo, max }.encode_body(body))?;
        match reply {
            Reply::Keys { keys, .. } => Ok(keys),
            other => Err(unexpected(other)),
        }
    }

    /// Pipeline a burst of mutations as one write: the whole burst reaches
    /// the server together, so it combines into (at most) one epoch.
    /// Per-op acks in submission order.
    pub fn mutate_burst(&mut self, ops: &[BatchOp<u64>]) -> Result<Vec<bool>, ClientError> {
        let requests: Vec<Request> = ops
            .iter()
            .map(|op| match *op {
                BatchOp::Insert(key) => Request::Insert { seq: 0, key },
                BatchOp::Remove(key) => Request::Remove { seq: 0, key },
            })
            .collect();
        let replies = self.pipeline(requests)?;
        replies
            .into_iter()
            .map(|r| match r {
                Reply::Bool { value, .. } => Ok(value),
                other => Err(unexpected(other)),
            })
            .collect()
    }

    /// Pipeline arbitrary requests: fresh sequence ids are assigned in
    /// order, all frames go out in one write, then all replies are read
    /// and their sequence echoes verified positionally.
    pub fn pipeline(&mut self, mut requests: Vec<Request>) -> Result<Vec<Reply>, ClientError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.wire.clear();
        for req in &mut requests {
            req.set_seq(self.take_seq());
            req.encode_frame(&mut self.wire);
        }
        self.reader.get_mut().write_all(&self.wire)?;
        requests
            .iter()
            .map(|req| self.reply_to(req.seq()))
            .collect()
    }

    fn take_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// One request, its body written by `body` under a fresh sequence id,
    /// and the reply that answers it.
    fn call(&mut self, body: impl FnOnce(u64, &mut Vec<u8>)) -> Result<Reply, ClientError> {
        let seq = self.take_seq();
        self.wire.clear();
        frame::write(&mut self.wire, |out| body(seq, out));
        self.reader.get_mut().write_all(&self.wire)?;
        self.reply_to(seq)
    }

    fn call_bool(&mut self, req: impl FnOnce(u64) -> Request) -> Result<bool, ClientError> {
        match self.call(|seq, body| req(seq).encode_body(body))? {
            Reply::Bool { value, .. } => Ok(value),
            other => Err(unexpected(other)),
        }
    }

    /// Read the next reply and check that it answers request `want`.
    fn reply_to(&mut self, want: u64) -> Result<Reply, ClientError> {
        let body = proto::read_frame(&mut self.reader, self.max_frame)?
            .ok_or(ClientError::ConnectionClosed)?;
        match Reply::decode_body(&body).map_err(ClientError::Proto)? {
            Reply::Error { seq, code } => Err(ClientError::Server { seq, code }),
            reply if reply.seq() != want => Err(ClientError::SeqMismatch {
                want,
                got: reply.seq(),
            }),
            reply => Ok(reply),
        }
    }
}

fn unexpected(reply: Reply) -> ClientError {
    ClientError::UnexpectedReply { seq: reply.seq() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `bytes` at most `step` at a time and counts the calls.
    struct Metered<'a> {
        bytes: &'a [u8],
        step: usize,
        reads: usize,
    }

    impl Read for Metered<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Every frame `read_frame` yields from `r` up to the clean end or the
    /// first error, rendered so two readers can be compared.
    fn drain(r: &mut impl Read) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match proto::read_frame(r, DEFAULT_MAX_FRAME_BYTES) {
                Ok(Some(body)) => out.push(format!("{:?}", Reply::decode_body(&body))),
                Ok(None) => return out,
                Err(e) => {
                    out.push(format!("{e:?}"));
                    return out;
                }
            }
        }
    }

    fn buffered(bytes: &[u8], step: usize) -> (Vec<String>, usize) {
        let mut r = reply_reader(Metered {
            bytes,
            step,
            reads: 0,
        });
        let got = drain(&mut r);
        (got, r.get_ref().reads)
    }

    fn bool_replies(n: u64) -> Vec<u8> {
        (1..=n)
            .flat_map(|seq| {
                proto::reply_frame(&Reply::Bool {
                    seq,
                    value: seq % 3 == 0,
                })
            })
            .collect()
    }

    #[test]
    fn a_burst_of_replies_costs_a_handful_of_reads() {
        let wire = bool_replies(512);
        let (got, reads) = buffered(&wire, usize::MAX);
        assert_eq!(got.len(), 512);
        assert_eq!(got, drain(&mut &wire[..]));
        // Unbuffered, `read_frame` reads the length apart from the body and
        // its digest: 2 × 512 reads (+ 1 for the end of the stream).
        let mut bare = Metered {
            bytes: &wire,
            step: usize::MAX,
            reads: 0,
        };
        drain(&mut bare);
        assert_eq!(bare.reads, 2 * 512 + 1);
        assert!(reads <= 8, "{reads} reads for 512 reply frames");
    }

    #[test]
    fn buffered_reader_parses_like_the_bare_one_however_bytes_arrive() {
        let mut wire = bool_replies(3);
        wire.extend(proto::reply_frame(&Reply::Keys {
            seq: 4,
            keys: (0..40).collect(),
        }));
        wire.extend(proto::reply_frame(&Reply::Error { seq: 5, code: 2 }));
        let want = drain(&mut &wire[..]);
        assert_eq!(want.len(), 5);
        // One byte at a time, and in steps that split the 4-byte length
        // prefix and the 8-byte checksum of a 34-byte `Bool` frame.
        for step in [1, 2, 3, 5, 7, 29, 33, 35, usize::MAX] {
            assert_eq!(buffered(&wire, step).0, want, "step {step}");
        }

        // The wire-corruption table: every truncation point and every
        // single-byte flip ends in the same replies and the same typed
        // error as the unbuffered reader gives.
        for cut in 0..wire.len() {
            let want = drain(&mut &wire[..cut]);
            assert_eq!(buffered(&wire[..cut], 1).0, want, "cut {cut}, trickled");
            assert_eq!(buffered(&wire[..cut], usize::MAX).0, want, "cut {cut}");
        }
        for pos in 0..wire.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = wire.clone();
                bad[pos] ^= flip;
                let want = drain(&mut &bad[..]);
                assert_eq!(buffered(&bad, 7).0, want, "pos {pos} flip {flip:#04x}");
            }
        }
        let truncated = drain(&mut &wire[..wire.len() - 3]);
        assert!(
            truncated.last().unwrap().contains("Truncated"),
            "{truncated:?}"
        );
    }

    #[test]
    fn read_timeout_reaches_the_socket_under_the_buffer() {
        // A listener that accepts and never answers.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let _peer = listener.accept().unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        match client.contains(1) {
            Err(ClientError::Io(e)) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "{e}"
            ),
            other => panic!("expected a timeout, got {other:?}"),
        }
    }
}
