//! The blocking TCP server: its worker threads are the only threads.
//!
//! ## Thread model and backpressure
//!
//! [`ServiceConfig::workers`] threads share one blocking listener: each
//! accepts a connection and serves it to completion, then accepts the
//! next. The worker count is the concurrency bound *and* the backpressure
//! mechanism: when every worker is busy, new connections wait in the
//! kernel's listen backlog and the clients behind them simply wait. The
//! service holds no connection it is not serving, so there is no queue of
//! its own to bound.
//!
//! The service owns one [`rayon::ThreadPool`] the size `B` of the pool
//! of the thread that started it ([`rayon::current_num_threads`]), and a
//! worker serves its connection inside that pool's `install`. A pool is a
//! shared count of threads, so the connections held — idle keep-alive
//! ones too — count against `B` together with the forks their batches
//! make: at `B = 2` a lone connection forks and two fork nothing (the
//! cores are already full when both are busy).
//!
//! ## Pipelining → combining
//!
//! A worker reads one frame blocking, then opportunistically drains every
//! further complete frame the client has already sent (up to
//! [`MAX_PIPELINE_OPS`] frames, and reading no further once the batch
//! holds [`MAX_FRAME_BYTES`]). Contiguous runs of mutating /
//! linearized ops are funneled through [`Combiner::submit_many`] as **one**
//! publication — the flat-combining layer does the batching that async
//! frameworks usually fake. Snapshot reads (`ContainsBatch`, `RangeSum`,
//! `Scan`) split those runs: the pending run is submitted first, so a read
//! observes this connection's earlier acked writes (the combiner publishes
//! the post-epoch snapshot before waking any waiter), then the read runs
//! wait-free against the published `Arc` snapshot.
//!
//! ## Protocol errors
//!
//! A malformed frame gets one typed [`Reply::Error`] (echoing the sequence
//! id when the body header survived, 0 otherwise) and the connection is
//! closed. Replies for well-formed frames received before the bad one are
//! still sent first.

use crate::proto::{
    self, ProtoError, RecvError, Reply, Request, MAX_FRAME_BYTES, MAX_PIPELINE_OPS, SCAN_LIMIT,
};
use cpma_api::{BatchSet, ConfigError, Persist, PersistError, RangeSet};
use cpma_obs::{Counter, Gauge, Histogram, Unit};
use cpma_persist::frame;
use cpma_store::{Combiner, CombinerConfig, Op, RecoveryReport, WalConfig};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Deployment settings for a [`Service`]; the wire limits are the
/// protocol's constants ([`MAX_FRAME_BYTES`], [`MAX_PIPELINE_OPS`],
/// [`SCAN_LIMIT`]). `docs/TUNING.md` has the rationale table.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads serving connections; also the connection concurrency
    /// bound (excess connections wait in the listen backlog). Default 4.
    pub workers: usize,
    /// Per-connection read timeout; an idle or half-dead client is
    /// disconnected when it expires. `None` waits forever. Default 30 s.
    pub read_timeout: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ServiceConfig {
    /// Validate the settings.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::new("workers", "must be at least 1"));
        }
        Ok(())
    }
}

/// Up to `max` keys of `set` from `lo` upward, into a vector sized once
/// (a page never holds more than `max` keys nor more than the set does)
/// and filled a chunk — a leaf — at a time.
pub fn scan_page<S: RangeSet>(set: &S, lo: u64, max: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(max.min(set.len()));
    if max > 0 {
        set.scan_chunks_from(lo, &mut |chunk| {
            let room = max - out.len();
            out.extend_from_slice(&chunk[..chunk.len().min(room)]);
            out.len() < max
        });
    }
    out
}

/// Service startup/teardown failure.
#[derive(Debug)]
pub enum ServiceError {
    Io(io::Error),
    Persist(PersistError),
    Config(ConfigError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o: {e}"),
            ServiceError::Persist(e) => write!(f, "persist: {e}"),
            ServiceError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<PersistError> for ServiceError {
    fn from(e: PersistError) -> Self {
        ServiceError::Persist(e)
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}

/// Observability handles for the accept → decode → combine → reply phases.
struct Metrics {
    connections: Counter,
    frames: Counter,
    ops: Counter,
    proto_errors: Counter,
    conns_active: Gauge,
    decode_ns: Histogram,
    combine_ns: Histogram,
    reply_ns: Histogram,
}

impl Metrics {
    fn new() -> Self {
        let reg = cpma_obs::global();
        Self {
            connections: reg.shared_counter("service.connections", Unit::Count),
            frames: reg.shared_counter("service.frames", Unit::Count),
            ops: reg.shared_counter("service.ops", Unit::Count),
            proto_errors: reg.shared_counter("service.proto_errors", Unit::Count),
            conns_active: reg.shared_gauge("service.conns_active"),
            decode_ns: reg.shared_histogram("service.decode_ns", Unit::Nanos),
            combine_ns: reg.shared_histogram("service.combine_ns", Unit::Nanos),
            reply_ns: reg.shared_histogram("service.reply_ns", Unit::Nanos),
        }
    }
}

/// The connection a worker is serving, kept as a `try_clone` so
/// `shutdown` can sever a blocked read; a worker holds at most one.
type Slot = Mutex<Option<TcpStream>>;

/// How long a worker waits after a failed `accept` (say `EMFILE`) before it
/// tries again, so an error that persists cannot spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A running front door: [`ServiceConfig::workers`] threads, each
/// accepting from one shared loopback listener. Dropping the service (or
/// calling [`Service::shutdown`]) severs in-flight connections and joins
/// every thread.
pub struct Service {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<(Arc<Slot>, JoinHandle<()>)>,
}

impl Service {
    /// Serve a fresh (non-durable) combining store over `set`. Returns the
    /// service and the backing combiner (for stats, snapshots, or
    /// `into_inner` after shutdown).
    pub fn serve<S>(set: S, cfg: ServiceConfig) -> Result<(Service, Arc<Combiner<S>>), ServiceError>
    where
        S: BatchSet + RangeSet + Clone + Send + Sync + 'static,
    {
        let combiner = Arc::new(Combiner::new(set));
        Ok((Self::start(combiner.clone(), cfg)?, combiner))
    }

    /// Serve a **durable** combining store: recover from `wal`'s directory
    /// (newest checkpoint + WAL tail), then log every epoch before
    /// acknowledging it. Restarting on the same directory resumes exactly
    /// at the last acked epoch.
    pub fn serve_durable<S>(
        cfg: ServiceConfig,
        wal: WalConfig,
    ) -> Result<(Service, Arc<Combiner<S>>, RecoveryReport), ServiceError>
    where
        S: BatchSet + RangeSet + Clone + Send + Sync + Persist + 'static,
    {
        cfg.check()?;
        let (combiner, report) = Combiner::open_durable(CombinerConfig::default(), wal)?;
        let combiner = Arc::new(combiner);
        Ok((Self::start(combiner.clone(), cfg)?, combiner, report))
    }

    /// Serve `combiner` on an OS-assigned loopback port: ops combine
    /// through [`Combiner::submit_many`], reads run wait-free against the
    /// published `Arc` snapshot.
    fn start<S>(combiner: Arc<Combiner<S>>, cfg: ServiceConfig) -> Result<Service, ServiceError>
    where
        S: BatchSet + RangeSet + Clone + Send + Sync + 'static,
    {
        cfg.check()?;
        let listener = Arc::new(TcpListener::bind(("127.0.0.1", 0))?);
        let metrics = Arc::new(Metrics::new());
        let pool = Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(rayon::current_num_threads())
                .build()
                .expect("a pool of at least one thread"),
        );
        // Built before the first spawn, so a failed spawn drops it and
        // `shutdown` joins the workers already running.
        let mut service = Service {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            workers: Vec::with_capacity(cfg.workers),
        };
        for w in 0..cfg.workers {
            let slot = Arc::new(Slot::default());
            let handle = {
                let (listener, stop, slot) = (listener.clone(), service.stop.clone(), slot.clone());
                let (combiner, cfg) = (combiner.clone(), cfg.clone());
                let (metrics, pool) = (metrics.clone(), pool.clone());
                std::thread::Builder::new()
                    .name(format!("cpma-service-worker-{w}"))
                    .spawn(move || {
                        worker_loop(&listener, &stop, &slot, &combiner, &cfg, &metrics, &pool)
                    })?
            };
            service.workers.push((slot, handle));
        }
        Ok(service)
    }

    /// The bound loopback address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving, sever in-flight connections, and join every thread.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for (slot, _) in &self.workers {
            if let Some(stream) = &*slot.lock().unwrap() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // One connection per worker wakes each one blocked in `accept`. A
        // worker blocks there only while the backlog is empty, so the
        // connects go through; a serving worker finds its stream severed.
        for _ in &self.workers {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
        for (_, handle) in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept a connection and serve it to completion inside `pool`, until
/// `stop`. Connections past the worker count wait in the listener's
/// backlog.
fn worker_loop<S: BatchSet + RangeSet + Clone + Send + Sync>(
    listener: &TcpListener,
    stop: &AtomicBool,
    slot: &Slot,
    combiner: &Combiner<S>,
    cfg: &ServiceConfig,
    metrics: &Metrics,
    pool: &rayon::ThreadPool,
) {
    while !stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        metrics.connections.inc();
        // A connection `shutdown` could not sever is not served.
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        *slot.lock().unwrap() = Some(clone);
        // `shutdown` severs what it finds in the slot after setting `stop`:
        // a stream it missed was put there later, and sees `stop` here.
        if !stop.load(Ordering::SeqCst) {
            metrics.conns_active.add(1);
            let _ = pool.install(|| serve_conn(stream, combiner, cfg, metrics));
            metrics.conns_active.add(-1);
        }
        slot.lock().unwrap().take();
    }
}

/// Serve one connection to completion. `Err` is a transport failure —
/// already handled by closing; protocol errors are reported in-band.
fn serve_conn<S: BatchSet + RangeSet + Clone + Send + Sync>(
    stream: TcpStream,
    combiner: &Combiner<S>,
    cfg: &ServiceConfig,
    metrics: &Metrics,
) -> io::Result<()> {
    stream.set_read_timeout(cfg.read_timeout)?;
    stream.set_nodelay(true)?;
    let mut reader = FrameReader::new(stream);
    // Where the batch's request bodies lie in the reader's buffer.
    let mut bodies = Vec::new();
    // Reply frames of one batch, each encoded in place.
    let mut out = Vec::new();

    loop {
        // Blocking read of the next frame (honors the read timeout).
        bodies.clear();
        match reader.next_blocking() {
            Ok(Some(body)) => bodies.push(body),
            Ok(None) => return Ok(()), // clean close at a frame boundary
            Err(RecvError::Io(_)) => return Ok(()), // timeout / reset: close
            Err(RecvError::Proto(e)) => {
                metrics.proto_errors.inc();
                send_error(&mut reader.stream, 0, e)?;
                return Ok(());
            }
        }

        // Opportunistic pipeline drain: every complete frame the client
        // has already sent joins this batch.
        let (drain_err, eof) = reader.drain_nonblocking(&mut bodies);
        metrics.frames.add(bodies.len() as u64);

        // Decode, each body where it was read. A bad body stops the batch;
        // the good prefix still runs.
        let mut requests = Vec::with_capacity(bodies.len());
        let mut fatal: Option<(u64, ProtoError)> = None;
        {
            let mut span = cpma_obs::span_with(&metrics.decode_ns, "service.decode");
            span.set_items(bodies.len() as u64);
            for body in bodies.iter().map(|at| reader.body(at)) {
                match Request::decode_body(body) {
                    Ok(r) => requests.push(r),
                    Err(e) => {
                        fatal = Some((proto::seq_hint(body), e));
                        break;
                    }
                }
            }
        }
        reader.release();
        if fatal.is_none() {
            fatal = drain_err.map(|e| (0, e));
        }
        metrics.ops.add(requests.len() as u64);

        // Runs of linearized ops combine into single submissions;
        // snapshot reads split the runs.
        let replies = {
            let mut span = cpma_obs::span_with(&metrics.combine_ns, "service.combine");
            span.set_items(requests.len() as u64);
            serve_requests(combiner, &requests)
        };

        // Reply in request order, one write per batch.
        {
            let mut span = cpma_obs::span_with(&metrics.reply_ns, "service.reply");
            span.set_items(replies.len() as u64);
            out.clear();
            for rep in &replies {
                rep.encode_frame(&mut out);
            }
            if let Some((seq, e)) = fatal {
                metrics.proto_errors.inc();
                Reply::Error {
                    seq,
                    code: e.code(),
                }
                .encode_frame(&mut out);
            }
            reader.stream.write_all(&out)?;
        }

        if fatal.is_some() || eof {
            return Ok(());
        }
    }
}

fn send_error(stream: &mut TcpStream, seq: u64, e: ProtoError) -> io::Result<()> {
    let frame = proto::reply_frame(&Reply::Error {
        seq,
        code: e.code(),
    });
    stream.write_all(&frame)
}

/// Serve a decoded batch: accumulate `Insert`/`Remove`/`Contains` into a
/// pending run, flush the run through one [`Combiner::submit_many`]
/// whenever a snapshot read (or the batch end) arrives; the reads run
/// against the published snapshot. Replies are positional.
fn serve_requests<S: BatchSet + RangeSet + Clone + Send + Sync>(
    combiner: &Combiner<S>,
    requests: &[Request],
) -> Vec<Reply> {
    let mut replies: Vec<Option<Reply>> = (0..requests.len()).map(|_| None).collect();
    let mut run_idx: Vec<usize> = Vec::new();
    let mut run_ops: Vec<Op<u64>> = Vec::new();

    fn flush<S: BatchSet + RangeSet + Clone + Send + Sync>(
        combiner: &Combiner<S>,
        requests: &[Request],
        replies: &mut [Option<Reply>],
        run_idx: &mut Vec<usize>,
        run_ops: &mut Vec<Op<u64>>,
    ) {
        if run_ops.is_empty() {
            return;
        }
        let results = combiner.submit_many(run_ops);
        for (&i, value) in run_idx.iter().zip(results) {
            replies[i] = Some(Reply::Bool {
                seq: requests[i].seq(),
                value,
            });
        }
        run_idx.clear();
        run_ops.clear();
    }

    for (i, req) in requests.iter().enumerate() {
        match *req {
            Request::Insert { key, .. } => {
                run_idx.push(i);
                run_ops.push(Op::Insert(key));
            }
            Request::Remove { key, .. } => {
                run_idx.push(i);
                run_ops.push(Op::Remove(key));
            }
            Request::Contains { key, .. } => {
                run_idx.push(i);
                run_ops.push(Op::Contains(key));
            }
            Request::ContainsBatch { seq, ref keys } => {
                flush(combiner, requests, &mut replies, &mut run_idx, &mut run_ops);
                replies[i] = Some(Reply::Bools {
                    seq,
                    values: combiner.snapshot().contains_batch(keys),
                });
            }
            Request::RangeSum { seq, lo, hi } => {
                flush(combiner, requests, &mut replies, &mut run_idx, &mut run_ops);
                replies[i] = Some(Reply::Sum {
                    seq,
                    value: combiner.snapshot().range_sum(lo..=hi),
                });
            }
            Request::Scan { seq, lo, max } => {
                flush(combiner, requests, &mut replies, &mut run_idx, &mut run_ops);
                replies[i] = Some(Reply::Keys {
                    seq,
                    keys: scan_page(&*combiner.snapshot(), lo, max.min(SCAN_LIMIT) as usize),
                });
            }
        }
    }
    flush(combiner, requests, &mut replies, &mut run_idx, &mut run_ops);
    replies.into_iter().map(|r| r.unwrap()).collect()
}

/// Bytes a [`FrameReader`] asks the socket for at a time.
const READ_CHUNK: usize = 16 * 1024;

/// Buffered frame reader over a `TcpStream`, supporting a blocking "next
/// frame" and a non-blocking "drain whatever is already here". Frames are
/// parsed in place: a batch's bodies are handed out as ranges of the
/// buffer and stay there, uncopied, until the batch is
/// [released](Self::release).
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Where the next frame starts: the bytes before it are parsed frames.
    start: usize,
}

impl FrameReader {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            start: 0,
        }
    }

    /// Parse one complete frame out of the buffer, if present, and return
    /// where its body lies — after its length and digest have been checked
    /// on the buffered bytes. `Ok(None)` means more bytes are needed.
    fn pop_frame(&mut self) -> Result<Option<Range<usize>>, ProtoError> {
        let Some((body, used)) = frame::parse(&self.buf[self.start..], MAX_FRAME_BYTES)? else {
            return Ok(None);
        };
        let at = self.start + frame::LEN_BYTES;
        let body = at..at + body.len();
        self.start += used;
        Ok(Some(body))
    }

    /// The bytes of a body [`Self::pop_frame`] returned, until the next
    /// [`Self::release`].
    fn body(&self, at: &Range<usize>) -> &[u8] {
        &self.buf[at.clone()]
    }

    /// Drop the frames parsed so far, their bodies done with: the buffer
    /// moves what is left — the start of a frame still arriving — to its
    /// front once that is all it holds or the parsed bytes pass 64 KiB.
    fn release(&mut self) {
        if self.start > 64 * 1024 || self.start == self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Blocking read of the next frame. `Ok(None)` on clean EOF at a
    /// frame boundary.
    fn next_blocking(&mut self) -> Result<Option<Range<usize>>, RecvError> {
        loop {
            if let Some(frame) = self.pop_frame()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; READ_CHUNK];
            match io::Read::read(&mut self.stream, &mut chunk) {
                Ok(0) => {
                    return if self.buf.len() == self.start {
                        Ok(None)
                    } else {
                        Err(ProtoError::Truncated("frame").into())
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Non-blocking drain: pull every complete frame already buffered or
    /// readable without waiting, up to [`MAX_PIPELINE_OPS`] total frames in
    /// `out`, reading no more once the batch that starts at `out`'s first
    /// frame holds [`MAX_FRAME_BYTES`] (frames already buffered still
    /// parse). Returns a protocol error to report after serving the good
    /// prefix, and whether the stream hit EOF.
    fn drain_nonblocking(&mut self, out: &mut Vec<Range<usize>>) -> (Option<ProtoError>, bool) {
        let mut eof = false;
        if self.stream.set_nonblocking(true).is_err() {
            return (None, false);
        }
        let batch_start = out
            .first()
            .map_or(self.start, |body| body.start - frame::LEN_BYTES);
        let err = 'drain: loop {
            // Parse what is buffered first.
            while out.len() < MAX_PIPELINE_OPS {
                match self.pop_frame() {
                    Ok(Some(frame)) => out.push(frame),
                    Ok(None) => break,
                    Err(e) => break 'drain Some(e),
                }
            }
            if out.len() >= MAX_PIPELINE_OPS
                || self.buf.len() - batch_start >= MAX_FRAME_BYTES as usize
            {
                break None;
            }
            let mut chunk = [0u8; READ_CHUNK];
            match io::Read::read(&mut self.stream, &mut chunk) {
                Ok(0) => {
                    // EOF: a partial trailing frame is a truncation.
                    eof = true;
                    break if self.buf.len() != self.start {
                        Some(ProtoError::Truncated("frame"))
                    } else {
                        None
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break None;
                }
                Err(_) => {
                    eof = true;
                    break None;
                }
            }
        };
        let _ = self.stream.set_nonblocking(false);
        (err, eof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client that pipelines megabyte frames cannot grow a connection's
    /// buffer past two frames and a read: per batch the reader holds at
    /// most the last batch's unreleased bytes (< 64 KiB), the batch's first
    /// frame and what one read adds past [`MAX_FRAME_BYTES`]. Every frame
    /// still arrives whole and in order.
    #[test]
    fn drain_is_bounded_by_bytes() {
        const FRAMES: u64 = 4;
        // Just under a full frame each: 4 frames are ≈ 4 MiB.
        let keys: Vec<u64> = (0..(MAX_FRAME_BYTES as u64 - 64) / 8).collect();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut reader = FrameReader::new(listener.accept().unwrap().0);
        let (sent, all_sent) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let keys = &keys;
            scope.spawn(move || {
                for seq in 0..FRAMES {
                    let keys = keys.clone();
                    let frame = proto::request_frame(&Request::ContainsBatch { seq, keys });
                    client.write_all(&frame).unwrap();
                }
                sent.send(()).unwrap();
            });
            let (mut bodies, mut seen, mut batches) = (Vec::new(), 0, 0);
            while seen < FRAMES {
                bodies.clear();
                bodies.push(reader.next_blocking().unwrap().unwrap());
                if batches == 0 {
                    // Let the whole pipeline reach the socket (loopback
                    // buffers hold it), so the first drain could read it all.
                    let _ = all_sent.recv_timeout(Duration::from_secs(5));
                }
                let (err, _) = reader.drain_nonblocking(&mut bodies);
                assert!(err.is_none(), "{err:?}");
                let held = reader.buf.len();
                assert!(
                    held <= 2 * MAX_FRAME_BYTES as usize + READ_CHUNK,
                    "batch {batches} holds {held} bytes"
                );
                for body in &bodies {
                    match Request::decode_body(reader.body(body)).unwrap() {
                        Request::ContainsBatch { seq, keys: got } => {
                            assert_eq!(seq, seen);
                            assert!(got == *keys);
                        }
                        other => panic!("unexpected request {other:?}"),
                    }
                    seen += 1;
                }
                reader.release();
                batches += 1;
            }
        });
    }
}
