//! The blocking TCP server: accept loop + bounded worker threads.
//!
//! ## Thread model and backpressure
//!
//! One accept thread polls a non-blocking listener and pushes accepted
//! connections onto a queue; [`ServiceConfig::workers`] worker threads pop
//! connections and serve each one to completion. The worker count is the
//! concurrency bound *and* the backpressure mechanism: when every worker is
//! busy, new connections sit accepted-but-unserved in the queue and the
//! clients behind them simply wait. No request is ever dropped; the queue
//! holds sockets (cheap), not decoded frames.
//!
//! ## Pipelining → combining
//!
//! A worker reads one frame blocking, then opportunistically drains every
//! further complete frame the client has already sent (up to
//! [`MAX_PIPELINE_OPS`]). Contiguous runs of mutating /
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
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Deployment settings for a [`Service`]; the wire limits are the
/// protocol's constants ([`MAX_FRAME_BYTES`], [`MAX_PIPELINE_OPS`],
/// [`SCAN_LIMIT`]). `docs/TUNING.md` has the rationale table.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads serving connections; also the connection concurrency
    /// bound (excess connections queue). Default 4.
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

/// Anything the service can open a front door onto. Object-safe, so the
/// accept and worker loops are compiled once rather than per backend `S`.
pub trait Engine: Send + Sync {
    /// Apply a run of linearized ops; per-op results in submission order.
    fn submit(&self, ops: &[Op<u64>]) -> Vec<bool>;
    /// Positional membership against a current-snapshot view.
    fn contains_batch(&self, keys: &[u64]) -> Vec<bool>;
    /// Sum of keys in `lo..=hi` against a current-snapshot view.
    fn range_sum(&self, lo: u64, hi: u64) -> u64;
    /// Up to `max` keys from `lo` upward, ascending.
    fn scan(&self, lo: u64, max: usize) -> Vec<u64>;
}

/// The production engine: ops combine through [`Combiner::submit_many`],
/// reads run wait-free against the published `Arc` snapshot.
pub struct CombinerEngine<S> {
    combiner: Arc<Combiner<S>>,
}

impl<S> CombinerEngine<S> {
    pub fn new(combiner: Arc<Combiner<S>>) -> Self {
        Self { combiner }
    }
}

impl<S> Engine for CombinerEngine<S>
where
    S: BatchSet + RangeSet + Clone + Send + Sync,
{
    fn submit(&self, ops: &[Op<u64>]) -> Vec<bool> {
        self.combiner.submit_many(ops)
    }

    fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        self.combiner.snapshot().contains_batch(keys)
    }

    fn range_sum(&self, lo: u64, hi: u64) -> u64 {
        self.combiner.snapshot().range_sum(lo..=hi)
    }

    fn scan(&self, lo: u64, max: usize) -> Vec<u64> {
        scan_page(&*self.combiner.snapshot(), lo, max)
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

/// Accepted-connection queue between the accept thread and the workers.
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// Streams currently being served, kept as `try_clone`s so `shutdown` can
/// sever blocked reads.
struct LiveConns {
    streams: Mutex<Vec<(u64, TcpStream)>>,
    next_token: AtomicU64,
}

impl LiveConns {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().unwrap().push((token, clone));
        Some(token)
    }

    fn deregister(&self, token: u64) {
        self.streams.lock().unwrap().retain(|(t, _)| *t != token);
    }

    fn sever_all(&self) {
        for (_, s) in self.streams.lock().unwrap().iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// A running front door: accept thread + worker pool bound to a loopback
/// listener. Dropping the service (or calling [`Service::shutdown`]) stops
/// the accept loop, severs in-flight connections, and joins every thread.
pub struct Service {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    live: Arc<LiveConns>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Serve a fresh (non-durable) combining store over `set`. Returns the
    /// service and the backing combiner (for stats, snapshots, or
    /// `into_inner` after shutdown).
    pub fn serve<S>(set: S, cfg: ServiceConfig) -> Result<(Service, Arc<Combiner<S>>), ServiceError>
    where
        S: BatchSet + RangeSet + Clone + Send + Sync + 'static,
    {
        cfg.check()?;
        let combiner = Arc::new(Combiner::new(set));
        let engine: Arc<dyn Engine> = Arc::new(CombinerEngine::new(combiner.clone()));
        Ok((Self::serve_engine(engine, cfg)?, combiner))
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
        let engine: Arc<dyn Engine> = Arc::new(CombinerEngine::new(combiner.clone()));
        Ok((Self::serve_engine(engine, cfg)?, combiner, report))
    }

    /// Serve an arbitrary [`Engine`] on an OS-assigned loopback port.
    pub fn serve_engine(
        engine: Arc<dyn Engine>,
        cfg: ServiceConfig,
    ) -> Result<Service, ServiceError> {
        cfg.check()?;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        let live = Arc::new(LiveConns {
            streams: Mutex::new(Vec::new()),
            next_token: AtomicU64::new(0),
        });
        let metrics = Arc::new(Metrics::new());

        let accept_handle = {
            let stop = stop.clone();
            let queue = queue.clone();
            let metrics = metrics.clone();
            std::thread::Builder::new()
                .name("cpma-service-accept".into())
                .spawn(move || accept_loop(listener, stop, queue, metrics))?
        };

        let mut workers = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let stop = stop.clone();
            let queue = queue.clone();
            let live = live.clone();
            let engine = engine.clone();
            let cfg = cfg.clone();
            let metrics = metrics.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cpma-service-worker-{w}"))
                    .spawn(move || worker_loop(stop, queue, live, engine, cfg, metrics))?,
            );
        }

        Ok(Service {
            addr,
            stop,
            queue,
            live,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The bound loopback address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, sever in-flight connections, and join every thread.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.ready.notify_all();
        self.live.sever_all();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Connections accepted but never served are dropped here.
        self.queue.queue.lock().unwrap().clear();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    metrics: Arc<Metrics>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                metrics.connections.inc();
                queue.queue.lock().unwrap().push_back(stream);
                queue.ready.notify_one();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn worker_loop(
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    live: Arc<LiveConns>,
    engine: Arc<dyn Engine>,
    cfg: ServiceConfig,
    metrics: Arc<Metrics>,
) {
    loop {
        let stream = {
            let mut q = queue.queue.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break s;
                }
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = queue
                    .ready
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap();
                q = guard;
            }
        };
        metrics.conns_active.add(1);
        let token = live.register(&stream);
        let _ = serve_conn(stream, &*engine, &cfg, &metrics);
        if let Some(t) = token {
            live.deregister(t);
        }
        metrics.conns_active.add(-1);
    }
}

/// Serve one connection to completion. `Err` is a transport failure —
/// already handled by closing; protocol errors are reported in-band.
fn serve_conn(
    stream: TcpStream,
    engine: &dyn Engine,
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

        // Serve: runs of linearized ops combine into single submissions;
        // snapshot reads split the runs.
        let replies = {
            let mut span = cpma_obs::span_with(&metrics.combine_ns, "service.combine");
            span.set_items(requests.len() as u64);
            serve_requests(engine, &requests)
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
/// pending run, flush the run through one [`Engine::submit`] whenever a
/// snapshot read (or the batch end) arrives. Replies are positional.
fn serve_requests(engine: &dyn Engine, requests: &[Request]) -> Vec<Reply> {
    let mut replies: Vec<Option<Reply>> = (0..requests.len()).map(|_| None).collect();
    let mut run_idx: Vec<usize> = Vec::new();
    let mut run_ops: Vec<Op<u64>> = Vec::new();

    fn flush(
        engine: &dyn Engine,
        requests: &[Request],
        replies: &mut [Option<Reply>],
        run_idx: &mut Vec<usize>,
        run_ops: &mut Vec<Op<u64>>,
    ) {
        if run_ops.is_empty() {
            return;
        }
        let results = engine.submit(run_ops);
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
                flush(engine, requests, &mut replies, &mut run_idx, &mut run_ops);
                replies[i] = Some(Reply::Bools {
                    seq,
                    values: engine.contains_batch(keys),
                });
            }
            Request::RangeSum { seq, lo, hi } => {
                flush(engine, requests, &mut replies, &mut run_idx, &mut run_ops);
                replies[i] = Some(Reply::Sum {
                    seq,
                    value: engine.range_sum(lo, hi),
                });
            }
            Request::Scan { seq, lo, max } => {
                flush(engine, requests, &mut replies, &mut run_idx, &mut run_ops);
                replies[i] = Some(Reply::Keys {
                    seq,
                    keys: engine.scan(lo, max.min(SCAN_LIMIT) as usize),
                });
            }
        }
    }
    flush(engine, requests, &mut replies, &mut run_idx, &mut run_ops);
    replies.into_iter().map(|r| r.unwrap()).collect()
}

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
            let mut chunk = [0u8; 16 * 1024];
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
    /// `out`. Returns a protocol error to report after serving the good
    /// prefix, and whether the stream hit EOF.
    fn drain_nonblocking(&mut self, out: &mut Vec<Range<usize>>) -> (Option<ProtoError>, bool) {
        let mut eof = false;
        if self.stream.set_nonblocking(true).is_err() {
            return (None, false);
        }
        let err = 'drain: loop {
            // Parse what is buffered first.
            while out.len() < MAX_PIPELINE_OPS {
                match self.pop_frame() {
                    Ok(Some(frame)) => out.push(frame),
                    Ok(None) => break,
                    Err(e) => break 'drain Some(e),
                }
            }
            if out.len() >= MAX_PIPELINE_OPS {
                break None;
            }
            let mut chunk = [0u8; 16 * 1024];
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
