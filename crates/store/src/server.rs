//! The `rtlt-stored` artifact service and the event loop every service
//! of the workspace runs on.
//!
//! The artifact server is nothing but a [`StoreTier`] stack behind the
//! [`wire`](crate::wire) protocol — a byte-LRU [`MemTier`] fronting a
//! checksummed [`DiskTier`], the exact impls the local `Store` composes.
//! GETs walk the stack (disk hits promote into memory), PUTs land in every
//! tier, STAT2 snapshots tier sizes and live load, GC evicts down to a
//! budget.
//!
//! Transport is one std-only, hand-rolled **nonblocking event loop**
//! ([`serve_until`]) that both services run on: [`ArtifactServer`] and the
//! live annotation service in `rtl_timer::live`. One thread owns the
//! listener and every connection; each tick accepts pending peers, then
//! drives every connection's write buffer, read buffer and
//! [`FrameReassembler`] until the socket reports `WouldBlock`. A
//! [`Service`] supplies only request → reply logic: it pushes ready
//! replies, or defers one and fulfils it from its [`Service::advance`]
//! step. Replies leave in request order per connection, and a deferred one
//! holds back only its own connection. A connection whose unflushed
//! replies — queued ones included — exceed [`MAX_CONN_INFLIGHT`] is not
//! read until the peer drains them (backpressure), and one silent past
//! [`IDLE_TIMEOUT`] is reaped. A client can keep a window of
//! [`op::TAGGED`] envelopes in flight on one connection; responses carry
//! the request's tag, batch streams included. Untagged frames are answered
//! in order, one response per request.
//!
//! Payload *content* is never inspected: the server moves opaque bytes
//! whose integrity the entry checksums and content keys already pin down,
//! so it needs no knowledge of the pipeline's artifact types. The tiers
//! hold [`crate::compress`] frames and the data ops (`GET2`/`PUT2`/
//! `GETM2`) move them verbatim. Unknown payload encodings degrade to miss
//! (GET) or a discarded write (PUT), never to garbage; unknown opcodes,
//! the retired generation-1 data ops and planner verbs included, are
//! answered `Failed` on the still-alive connection. GETM2 answers a whole
//! key batch as a stream of bounded [`Response::BatchPart`] chunks.

use crate::tier::{DiskTier, MemTier, StoreTier, TierLookup};
use crate::wire::{
    op, tag_response, untag, Frame, FrameReassembler, Request, Response, ServerLoad,
    MAX_BATCH_CHUNK, MAX_BATCH_KEYS, MAX_CONN_INFLIGHT, PAYLOAD_ENCODING_FRAME, WIRE_VERSION,
};
use crate::ContentHash;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default listen address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Default in-memory tier budget: 512 MiB of payload bytes.
pub const DEFAULT_SERVER_MEM_BUDGET: usize = 512 << 20;

/// Configuration of one [`ArtifactServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root of the server's disk tier.
    pub dir: PathBuf,
    /// Byte budget of the in-memory tier (0 disables it).
    pub mem_budget: usize,
}

/// The shared artifact service: a tier stack and the request handler.
///
/// Transport-independent — [`ArtifactServer::handle`] maps one
/// single-response request to its response and
/// [`ArtifactServer::handle_batch`] maps a GETM2 to its chunk stream, so
/// tests can drive both without sockets; its [`Service`] impl puts them
/// on the event loop.
#[derive(Debug)]
pub struct ArtifactServer {
    tiers: Vec<Arc<dyn StoreTier>>,
    metrics: ServerMetrics,
}

/// Live gauges a service's event loop keeps current — open connections and
/// exchanges accepted but not yet fully flushed back to their peers; the
/// artifact server surfaces them through [`Request::Stat2`]. Zero outside
/// [`serve_until`] (e.g. when tests drive [`ArtifactServer::handle`]
/// directly).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    connections: AtomicU64,
    inflight: AtomicU64,
}

impl ServerMetrics {
    /// Connections currently open on the event loop.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Exchanges accepted but not yet fully flushed.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }
}

impl ArtifactServer {
    /// Builds the mem-over-disk tier stack from `cfg`.
    pub fn new(cfg: &ServerConfig) -> ArtifactServer {
        let mut tiers: Vec<Arc<dyn StoreTier>> = Vec::new();
        if cfg.mem_budget > 0 {
            tiers.push(Arc::new(MemTier::new(cfg.mem_budget)));
        }
        tiers.push(Arc::new(DiskTier::new(cfg.dir.clone())));
        ArtifactServer::with_tiers(tiers)
    }

    /// Server over an explicit tier stack (fallback order).
    pub fn with_tiers(tiers: Vec<Arc<dyn StoreTier>>) -> ArtifactServer {
        ArtifactServer {
            tiers,
            metrics: ServerMetrics::default(),
        }
    }

    /// One tier-stack lookup with promotion into earlier (faster) tiers,
    /// as the local store does. Corrupt entries were already dropped by
    /// the tier; they fall through like a miss.
    fn lookup(&self, ns: &str, key: ContentHash) -> Option<Vec<u8>> {
        for (i, tier) in self.tiers.iter().enumerate() {
            if let TierLookup::Hit(payload) = tier.get_bytes(ns, key) {
                for earlier in &self.tiers[..i] {
                    earlier.put_bytes(ns, key, &payload);
                }
                return Some(payload);
            }
        }
        None
    }

    /// Answers one single-response request ([`Request::GetBatch2`] streams
    /// instead — see [`ArtifactServer::handle_batch`]).
    pub fn handle(&self, req: Request) -> Response {
        match req {
            Request::Get2 { ns, key, encoding } => {
                if encoding != PAYLOAD_ENCODING_FRAME {
                    // Unknown encoding: degrade to a miss — the client
                    // recomputes, byte-identically.
                    return Response::Miss;
                }
                match self.lookup(&ns, key) {
                    Some(frame) => Response::Hit(frame),
                    None => Response::Miss,
                }
            }
            Request::GetBatch2 { .. } => {
                Response::Failed("GETM2 is a streaming request; use handle_batch".to_owned())
            }
            Request::Put2 {
                ns,
                key,
                encoding,
                payload,
            } => {
                // An unknown encoding is acknowledged without storing — a
                // lost write, never a corrupt entry.
                if encoding == PAYLOAD_ENCODING_FRAME {
                    for tier in &self.tiers {
                        tier.put_bytes(&ns, key, &payload);
                    }
                }
                Response::Done(Default::default())
            }
            Request::Stat2 => Response::ServerStats(ServerLoad {
                tiers: self.tiers.iter().map(|t| t.stats()).collect(),
                connections: self.metrics.connections(),
                inflight: self.metrics.inflight(),
                wire_version: WIRE_VERSION,
            }),
            Request::Gc { budget_bytes } => {
                let mut report = crate::GcReport::default();
                for tier in &self.tiers {
                    report.absorb(tier.gc(budget_bytes));
                }
                Response::Done(report)
            }
            // Session verbs belong to the live annotation service. The
            // artifact store refuses them on a live connection — the same
            // `Failed` it answers an unknown opcode with — and the session
            // client degrades to local annotation, byte-identically.
            Request::Open { .. }
            | Request::Edit { .. }
            | Request::Annotate { .. }
            | Request::Close { .. } => {
                Response::Failed("session verbs are served by rtlt-annotated".to_owned())
            }
        }
    }

    /// Answers a [`Request::GetBatch2`] as a stream of
    /// [`Response::BatchPart`] chunks, handing each chunk to `emit` as
    /// soon as it is full — the server never materializes more than one
    /// chunk (plus the payload being looked up), so a near-budget batch
    /// costs ~[`MAX_BATCH_CHUNK`] of server memory, not the whole answer.
    ///
    /// Two byte bounds apply: each part flushes around `chunk_bytes`, and
    /// the *cumulative* frame-body bytes of the whole answer are capped at
    /// [`MAX_CONN_INFLIGHT`] — hits past the cap degrade to misses (the
    /// client recomputes them), so a batch of maximum-size payloads can
    /// never balloon either side of the connection. Hit payloads travel as
    /// the compress frames the tiers hold.
    ///
    /// # Errors
    ///
    /// Propagates the first `emit` failure (a dead peer stops the stream).
    pub fn stream_batch<E>(
        &self,
        items: &[(String, ContentHash)],
        chunk_bytes: u64,
        mut emit: impl FnMut(Response) -> Result<(), E>,
    ) -> Result<(), E> {
        if items.len() > MAX_BATCH_KEYS {
            return emit(Response::Failed(format!(
                "batch of {} keys exceeds the {MAX_BATCH_KEYS} cap",
                items.len()
            )));
        }
        // The client reads the response stream under a cumulative
        // MAX_CONN_INFLIGHT budget charged on full frame-body bytes, so
        // the server must budget the same way: every item is charged a
        // conservative framing overhead (index, flags, length prefixes,
        // amortized part headers — actually ~20 bytes) on top of its
        // payload, guaranteeing a stream the server emits always fits the
        // client's budget.
        const ITEM_OVERHEAD: u64 = 64;
        let mut cur: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
        let mut cur_bytes = 0u64;
        let mut budget = MAX_CONN_INFLIGHT;
        for (i, (ns, key)) in items.iter().enumerate() {
            // Miss markers occupy body bytes too; with at most
            // MAX_BATCH_KEYS items this charge alone can never exhaust
            // the budget.
            budget = budget.saturating_sub(ITEM_OVERHEAD);
            let payload = match self.lookup(ns, *key) {
                Some(p) if (p.len() as u64) <= budget => {
                    budget -= p.len() as u64;
                    Some(p)
                }
                // Over-budget hits degrade to misses: the client
                // recomputes them, byte-identically.
                _ => None,
            };
            let len = payload.as_ref().map_or(0, |p| p.len() as u64);
            if cur_bytes + len > chunk_bytes && !cur.is_empty() {
                emit(Response::BatchPart {
                    items: std::mem::take(&mut cur),
                    last: false,
                })?;
                cur_bytes = 0;
            }
            cur_bytes += len;
            cur.push((i as u64, payload));
        }
        emit(Response::BatchPart {
            items: cur,
            last: true,
        })
    }

    /// Collecting form of [`ArtifactServer::stream_batch`] with the
    /// production [`MAX_BATCH_CHUNK`] threshold — for tests and transports
    /// that want the parts as a `Vec`.
    pub fn handle_batch(&self, items: &[(String, ContentHash)]) -> Vec<Response> {
        self.handle_batch_chunked(items, MAX_BATCH_CHUNK)
    }

    /// [`ArtifactServer::handle_batch`] with an explicit chunk threshold.
    pub fn handle_batch_chunked(
        &self,
        items: &[(String, ContentHash)],
        chunk_bytes: u64,
    ) -> Vec<Response> {
        let mut parts = Vec::new();
        let _ = self.stream_batch(items, chunk_bytes, |part| {
            parts.push(part);
            Ok::<(), std::convert::Infallible>(())
        });
        parts
    }
}

impl Service for ArtifactServer {
    const NAME: &'static str = "rtlt-stored";
    type Conn = ();

    fn respond(&mut self, _conn: &mut (), req: Request, out: &mut Replies<'_>) {
        match req {
            // Batch answers stream in bounded chunks; under a tagged
            // envelope every chunk carries the request's tag, so the
            // stream can interleave with other in-flight exchanges.
            Request::GetBatch2 { items, encoding } if encoding == PAYLOAD_ENCODING_FRAME => {
                let _ = self.stream_batch(&items, MAX_BATCH_CHUNK, |part| {
                    out.push(part);
                    Ok::<(), std::convert::Infallible>(())
                });
            }
            // Unknown encoding: a well-formed all-miss stream — the
            // client recomputes everything.
            Request::GetBatch2 { .. } => out.push(Response::BatchPart {
                items: Vec::new(),
                last: true,
            }),
            req => out.push(self.handle(req)),
        }
    }

    fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }
}

/// Per-connection idle timeout: a client that disappears without closing
/// (sleep, network drop) releases its connection state and socket after
/// this long instead of leaking them for the service's lifetime.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// How long the event loop sleeps when a full tick made no progress —
/// nothing accepted, read, written, parsed or advanced. Short enough that
/// a lone serialized client pays sub-millisecond turnaround; long enough
/// that an idle server burns no meaningful CPU.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Read scratch size per tick; bigger reads just take more ticks.
const READ_CHUNK: usize = 64 << 10;

/// The request → reply logic of one service on the event loop
/// ([`serve_until`]). The loop owns the transport: accept, framing,
/// [`op::TAGGED`] envelopes, per-connection reply order, backpressure,
/// flushing and idle reaping. A service only decides what to answer.
pub trait Service {
    /// Prefix of the loop's log lines.
    const NAME: &'static str;

    /// Per-connection state, created on accept and dropped with the
    /// connection.
    type Conn: Default;

    /// Answers one decoded request: push one or more ready replies, or
    /// [`Replies::defer`] a single slot that a later
    /// [`Service::advance`] fulfils. Requests that fail to decode never
    /// get here; the loop answers them [`Response::Failed`].
    fn respond(&mut self, conn: &mut Self::Conn, req: Request, out: &mut Replies<'_>);

    /// Steps the connection's deferred work by a bounded slice, calling
    /// [`Replies::fulfil`] for each slot whose work completed. Runs once
    /// per connection per tick; returns whether anything progressed.
    fn advance(&mut self, _conn: &mut Self::Conn, _out: &mut Replies<'_>) -> bool {
        false
    }

    /// The gauges the loop keeps current.
    fn metrics(&self) -> &ServerMetrics;
}

/// One exchange in a connection's reply queue: its reply bytes, or a
/// deferred reply awaiting [`Replies::fulfil`].
#[derive(Debug)]
enum Slot {
    Ready(Vec<u8>),
    Deferred { ticket: u64, tag: Option<u64> },
}

/// A connection's write side: `wbuf` flushes as the socket takes bytes,
/// and `queue` holds, in request order, the exchanges not yet moved into
/// it — an unfulfilled deferred reply and every reply behind it.
#[derive(Debug, Default)]
struct Outbox {
    wbuf: Vec<u8>,
    wpos: usize,
    /// Total bytes flushed to the socket over the connection's lifetime.
    flushed: u64,
    /// Per exchange in `wbuf`: the absolute `flushed` offset at which its
    /// bytes end. Popped (and the in-flight gauge decremented) as the
    /// write side advances past it.
    pending: VecDeque<u64>,
    queue: VecDeque<Slot>,
    /// Ready bytes held in `queue`.
    queued_bytes: u64,
    next_ticket: u64,
}

impl Outbox {
    /// Reply bytes not yet flushed, queued ones included: the figure the
    /// read side's [`MAX_CONN_INFLIGHT`] gate compares.
    fn backlog(&self) -> u64 {
        (self.wbuf.len() - self.wpos) as u64 + self.queued_bytes
    }

    /// Exchanges accepted but not yet fully flushed.
    fn unsettled(&self) -> u64 {
        (self.pending.len() + self.queue.len()) as u64
    }

    /// Answers one request through `f`, then releases what is ready.
    fn exchange(&mut self, tag: Option<u64>, f: impl FnOnce(&mut Replies<'_>)) {
        self.queue.push_back(Slot::Ready(Vec::new()));
        f(&mut Replies { out: self, tag });
        self.promote();
    }

    /// Moves the ready prefix of the queue into `wbuf`, reusing a fully
    /// flushed one.
    fn promote(&mut self) {
        while let Some(Slot::Ready(bytes)) = self.queue.front_mut() {
            let bytes = std::mem::take(bytes);
            self.queue.pop_front();
            self.queued_bytes -= bytes.len() as u64;
            if self.wpos == self.wbuf.len() {
                (self.wbuf, self.wpos) = (bytes, 0);
            } else {
                self.wbuf.extend_from_slice(&bytes);
            }
            let end = self.flushed + (self.wbuf.len() - self.wpos) as u64;
            self.pending.push_back(end);
        }
    }
}

/// Where a service puts the replies of one connection (see [`Service`]).
/// Replies to a tagged request are tagged with its tag; the service never
/// sees envelopes. [`Service::respond`] pushes or defers the reply of the
/// request at hand; [`Service::advance`] only fulfils.
#[derive(Debug)]
pub struct Replies<'a> {
    out: &'a mut Outbox,
    tag: Option<u64>,
}

impl Replies<'_> {
    fn encode(tag: Option<u64>, resp: &Response) -> Vec<u8> {
        let frame = resp.to_frame();
        match tag {
            Some(t) => tag_response(t, &frame).to_bytes(),
            None => frame.to_bytes(),
        }
    }

    /// Queues one reply frame of the current request.
    pub fn push(&mut self, resp: Response) {
        if let Some(Slot::Ready(slot)) = self.out.queue.back_mut() {
            let bytes = Self::encode(self.tag, &resp);
            self.out.queued_bytes += bytes.len() as u64;
            slot.extend_from_slice(&bytes);
        }
    }

    /// Defers the current request's single reply until [`Replies::fulfil`]
    /// is called with the returned ticket; replies to later requests on
    /// the connection wait behind it.
    pub fn defer(&mut self) -> u64 {
        let ticket = self.out.next_ticket;
        self.out.next_ticket += 1;
        let slot = self.out.queue.back_mut().expect("an open exchange");
        debug_assert!(matches!(slot, Slot::Ready(b) if b.is_empty()));
        *slot = Slot::Deferred {
            ticket,
            tag: self.tag,
        };
        ticket
    }

    /// Readies the deferred reply `ticket` with `resp`.
    pub fn fulfil(&mut self, ticket: u64, resp: Response) {
        for slot in &mut self.out.queue {
            if let Slot::Deferred { ticket: t, tag } = *slot {
                if t == ticket {
                    let bytes = Self::encode(tag, &resp);
                    self.out.queued_bytes += bytes.len() as u64;
                    *slot = Slot::Ready(bytes);
                    return;
                }
            }
        }
    }
}

/// One nonblocking connection on the event loop: an incremental frame
/// reassembler on the read side, the reply queue on the write side, and
/// the service's per-connection state.
#[derive(Debug)]
struct Conn<C> {
    stream: TcpStream,
    peer: SocketAddr,
    rx: FrameReassembler,
    out: Outbox,
    state: C,
    last_activity: Instant,
    /// The peer half-closed its read side; finish answering, then drop.
    read_closed: bool,
}

impl<C> Conn<C> {
    /// Unwraps one request frame (tagged or bare) and hands it to the
    /// service. Never fails: malformed-but-framed requests are answered
    /// [`Response::Failed`] on the still-alive connection.
    fn respond<S: Service<Conn = C>>(&mut self, svc: &mut S, frame: Frame) {
        svc.metrics().inflight.fetch_add(1, Ordering::Relaxed);
        let (tag, req) = if frame.op == op::TAGGED {
            match untag(&frame) {
                Ok((t, inner)) => (Some(t), Request::from_frame(&inner)),
                // The envelope itself is malformed: no tag to echo, so
                // answer bare — the client treats an untagged response
                // as a protocol error.
                Err(e) => (None, Err(e)),
            }
        } else {
            (None, Request::from_frame(&frame))
        };
        let state = &mut self.state;
        self.out.exchange(tag, |out| match req {
            Ok(req) => svc.respond(state, req, out),
            Err(e) => out.push(Response::Failed(e.to_string())),
        });
    }

    /// Flushes queued bytes until the socket would block. Returns
    /// `(alive, progressed)`.
    fn flush(&mut self, metrics: &ServerMetrics) -> (bool, bool) {
        let out = &mut self.out;
        let mut progressed = false;
        while out.wpos < out.wbuf.len() {
            match self.stream.write(&out.wbuf[out.wpos..]) {
                Ok(0) => return (false, progressed),
                Ok(n) => {
                    out.wpos += n;
                    out.flushed += n as u64;
                    progressed = true;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return (false, progressed),
            }
        }
        while out.pending.front().is_some_and(|end| *end <= out.flushed) {
            out.pending.pop_front();
            metrics.inflight.fetch_sub(1, Ordering::Relaxed);
        }
        (true, progressed)
    }

    /// One scheduler tick: flush, read, parse and answer, advance
    /// deferred work, promote ready replies. Returns `(alive, progressed)`.
    fn tick<S: Service<Conn = C>>(&mut self, svc: &mut S, scratch: &mut [u8]) -> (bool, bool) {
        let (alive, mut progressed) = self.flush(svc.metrics());
        if !alive {
            return (false, progressed);
        }
        // Backpressure: a peer that stops reading while pumping requests
        // cannot balloon the reply backlog (parked replies included) past
        // the same cumulative bound the wire's FrameBudget enforces per
        // exchange — the loop simply stops reading it until it drains.
        if !self.read_closed && self.out.backlog() <= MAX_CONN_INFLIGHT {
            loop {
                match self.stream.read(scratch) {
                    Ok(0) => {
                        self.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        self.rx.ingest(&scratch[..n]);
                        self.last_activity = Instant::now();
                        progressed = true;
                        if self.out.backlog() + self.rx.buffered() as u64 > MAX_CONN_INFLIGHT {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return (false, progressed),
                }
            }
        }
        loop {
            match self.rx.next_frame() {
                Ok(Some(frame)) => {
                    progressed = true;
                    self.respond(svc, frame);
                }
                Ok(None) => break,
                Err(e) => {
                    // The stream can no longer be framed: drop the
                    // connection. Clients treat it as a dead peer.
                    eprintln!("[{}] connection {}: {e}", S::NAME, self.peer);
                    return (false, progressed);
                }
            }
        }
        let mut out = Replies {
            out: &mut self.out,
            tag: None,
        };
        progressed |= svc.advance(&mut self.state, &mut out);
        self.out.promote();
        // A half-closed peer is done once everything is answered.
        let done = self.read_closed && self.out.unsettled() == 0;
        (
            !done && self.last_activity.elapsed() <= IDLE_TIMEOUT,
            progressed,
        )
    }
}

/// The event loop: serves `listener` on the calling thread until `stop` is
/// set (checked once per tick). See the module docs for the architecture.
///
/// # Panics
///
/// If the listener cannot be switched to nonblocking mode (a broken
/// socket at startup — nothing can be served).
pub fn serve_until<S: Service>(listener: TcpListener, mut service: S, stop: &AtomicBool) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let mut conns: Vec<Conn<S::Conn>> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    while !stop.load(Ordering::Relaxed) {
        let mut progressed = false;
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    // Nagle would delay every small RPC and ack; the
                    // protocol writes whole frames, so nothing coalesces.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    service
                        .metrics()
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    conns.push(Conn {
                        stream,
                        peer,
                        rx: FrameReassembler::new(),
                        out: Outbox::default(),
                        state: S::Conn::default(),
                        last_activity: Instant::now(),
                        read_closed: false,
                    });
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    eprintln!("[{}] accept failed: {e}", S::NAME);
                    break;
                }
            }
        }
        conns.retain_mut(|conn| {
            let (alive, p) = conn.tick(&mut service, &mut scratch);
            progressed |= p;
            if !alive {
                let metrics = service.metrics();
                metrics.connections.fetch_sub(1, Ordering::Relaxed);
                metrics
                    .inflight
                    .fetch_sub(conn.out.unsettled(), Ordering::Relaxed);
            }
            alive
        });
        if !progressed {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Handle to a [`spawn`]ed event loop.
#[derive(Debug)]
pub struct ServerHandle {
    /// The bound listen address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Stops the event loop within a tick; open connections drop (tests
    /// use this to simulate a killed server).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Blocks until the event loop stops.
    ///
    /// # Panics
    ///
    /// If the loop's thread panicked.
    pub fn join(self) {
        self.thread.join().expect("event loop thread");
    }
}

/// Binds `addr` and serves `service` on a background thread.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn<S: Service + Send + 'static>(addr: &str, service: S) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || serve_until(listener, service, &flag));
    Ok(ServerHandle {
        addr: bound,
        stop,
        thread,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress;
    use crate::hash::KeyBuilder;
    use crate::wire::{tag_request, WireError};
    use crate::ContentHash;
    use std::io::Write;

    fn key(n: u64) -> ContentHash {
        KeyBuilder::new("server-test").u64(n).finish()
    }

    fn get2(ns: &str, key: ContentHash) -> Request {
        Request::Get2 {
            ns: ns.into(),
            key,
            encoding: PAYLOAD_ENCODING_FRAME,
        }
    }

    fn put2(ns: &str, key: ContentHash, payload: Vec<u8>) -> Request {
        Request::Put2 {
            ns: ns.into(),
            key,
            encoding: PAYLOAD_ENCODING_FRAME,
            payload,
        }
    }

    #[test]
    fn handle_round_trips_get_put_stat_gc() {
        let server = ArtifactServer::with_tiers(vec![Arc::new(MemTier::new(1 << 20))]);
        assert_eq!(server.handle(get2("ns", key(1))), Response::Miss);
        let frame = compress::raw_frame(&[1, 2, 3]);
        assert!(matches!(
            server.handle(put2("ns", key(1), frame.clone())),
            Response::Done(_)
        ));
        assert_eq!(
            server.handle(get2("ns", key(1))),
            Response::Hit(frame.clone())
        );
        match server.handle(Request::Stat2) {
            Response::ServerStats(load) => {
                assert_eq!(load.tiers.len(), 1);
                assert_eq!(load.tiers[0].entries, 1);
                assert_eq!(load.wire_version, WIRE_VERSION);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown encodings degrade: GET2 to a miss, PUT2 to a lost write.
        assert_eq!(
            server.handle(Request::Get2 {
                ns: "ns".into(),
                key: key(1),
                encoding: 42,
            }),
            Response::Miss
        );
        assert!(matches!(
            server.handle(Request::Put2 {
                ns: "ns".into(),
                key: key(3),
                encoding: 42,
                payload: frame,
            }),
            Response::Done(_)
        ));
        assert_eq!(
            server.handle(get2("ns", key(3))),
            Response::Miss,
            "unknown-encoding writes are discarded, not stored as garbage"
        );
        match server.handle(Request::Gc { budget_bytes: 0 }) {
            Response::Done(r) => assert_eq!(r.evicted_files, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.handle(get2("ns", key(1))), Response::Miss);
    }

    #[test]
    fn batched_get_streams_in_bounded_chunks() {
        let server = ArtifactServer::with_tiers(vec![Arc::new(MemTier::new(1 << 20))]);
        for i in 0..4u64 {
            server.handle(put2("ns", key(i), vec![i as u8; 100]));
        }
        let items: Vec<(String, ContentHash)> = (0..6u64).map(|i| ("ns".into(), key(i))).collect();
        // Chunk threshold of 150 bytes: 100-byte payloads flush after
        // every hit-pair boundary, so the stream has several parts.
        let parts = server.handle_batch_chunked(&items, 150);
        assert!(parts.len() > 1, "chunked into {} part(s)", parts.len());
        let mut got: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            match part {
                Response::BatchPart { items, last } => {
                    assert_eq!(*last, i == parts.len() - 1, "only the final part is last");
                    got.extend(items.iter().cloned());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        got.sort_by_key(|(i, _)| *i);
        assert_eq!(got.len(), 6);
        for (i, payload) in &got {
            if *i < 4 {
                assert_eq!(payload.as_deref(), Some(&vec![*i as u8; 100][..]));
            } else {
                assert!(payload.is_none(), "missing keys report as misses");
            }
        }
        // An over-long batch is refused outright.
        let huge: Vec<(String, ContentHash)> = (0..=MAX_BATCH_KEYS as u64)
            .map(|i| ("ns".into(), key(i)))
            .collect();
        assert!(matches!(
            server.handle_batch(&huge).as_slice(),
            [Response::Failed(_)]
        ));
        // And GETM2 through the single-response path is a typed failure.
        assert!(matches!(
            server.handle(Request::GetBatch2 {
                items,
                encoding: PAYLOAD_ENCODING_FRAME,
            }),
            Response::Failed(_)
        ));
    }

    #[test]
    fn retired_opcodes_are_refused_on_a_live_connection() {
        // The generation-1 data ops GET=1, PUT=2, STAT=3 and GETM=5 and
        // the planner verbs LEASE=6, REPORT=7, PLAN=8 and PLANSTAT=9 no
        // longer decode; the event loop answers them `Failed` — bare or
        // tagged — and keeps serving the connection.
        const RETIRED: [u8; 8] = [1, 2, 3, 5, 6, 7, 8, 9];
        let body = get2("ns", key(1)).to_frame().body;
        for op in RETIRED {
            assert_eq!(
                Request::from_frame(&Frame {
                    op,
                    body: body.clone(),
                }),
                Err(WireError::Malformed("request opcode"))
            );
        }
        // Their responses STATS=0x84, LEASED=0x86, DRAINED=0x87 and
        // PLANSTATS=0x88 no longer decode either.
        for op in [0x84, 0x86, 0x87, 0x88] {
            assert_eq!(
                Response::from_frame(&Frame {
                    op,
                    body: body.clone(),
                }),
                Err(WireError::Malformed("response opcode"))
            );
        }
        let scratch =
            std::env::temp_dir().join(format!("rtlt-stored-retired-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let cfg = ServerConfig {
            dir: scratch.clone(),
            mem_budget: 1 << 20,
        };
        let addr = spawn("127.0.0.1:0", ArtifactServer::new(&cfg))
            .expect("bind ephemeral port")
            .addr;
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut exchange = |frame: Frame| {
            frame.write_to(&mut conn).expect("write");
            Frame::read_from(&mut conn).expect("answered on a live connection")
        };
        for op in RETIRED {
            let reply = exchange(Frame {
                op,
                body: body.clone(),
            });
            assert!(
                matches!(Response::from_frame(&reply), Ok(Response::Failed(_))),
                "op {op}"
            );
            let reply = exchange(tag_request(
                u64::from(op),
                &Frame {
                    op,
                    body: body.clone(),
                },
            ));
            let (tag, inner) = untag(&reply).expect("tagged reply");
            assert_eq!(tag, u64::from(op));
            assert!(matches!(
                Response::from_frame(&inner),
                Ok(Response::Failed(_))
            ));
        }
        // The same connection still serves the current data ops.
        let frame = compress::raw_frame(b"still alive");
        let reply = exchange(put2("ns", key(1), frame.clone()).to_frame());
        assert!(matches!(
            Response::from_frame(&reply),
            Ok(Response::Done(_))
        ));
        let reply = exchange(get2("ns", key(1)).to_frame());
        assert_eq!(Response::from_frame(&reply), Ok(Response::Hit(frame)));
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn queued_replies_count_toward_the_read_backlog() {
        // A reply that is ready but queued behind a deferred one has not
        // left the server; the read gate must see its bytes, or a peer
        // could pipeline an unbounded queue behind one slow job.
        let mut out = Outbox::default();
        let mut ticket = 0;
        out.exchange(None, |r| ticket = r.defer());
        assert_eq!(out.backlog(), 0);
        let reply = Response::Hit(vec![7; 1000]);
        let len = reply.to_frame().to_bytes().len() as u64;
        for tag in [None, Some(9)] {
            out.exchange(tag, |r| r.push(reply.clone()));
        }
        assert!(out.backlog() >= 2 * len, "queued bytes are backlog");
        assert_eq!((out.wbuf.len(), out.unsettled()), (0, 3));
        // Fulfilling the deferred reply releases the whole queue, in
        // request order, into the write buffer.
        let mut head = Replies {
            out: &mut out,
            tag: None,
        };
        head.fulfil(ticket, Response::Miss);
        out.promote();
        assert_eq!(out.backlog(), out.wbuf.len() as u64);
        assert!(out.backlog() > 2 * len);
        assert_eq!((out.queued_bytes, out.unsettled()), (0, 3));
    }

    /// Test service: the first request it ever sees is deferred until
    /// `release` is set, every other one is answered inline. GET2 with
    /// namespace `w` is answered `Hit(w)`, so each reply names its request.
    #[derive(Default)]
    struct DeferFirst {
        release: Arc<AtomicBool>,
        deferred_once: bool,
        metrics: ServerMetrics,
    }

    impl Service for DeferFirst {
        const NAME: &'static str = "defer-first";
        type Conn = Option<(u64, Response)>;

        fn respond(&mut self, conn: &mut Self::Conn, req: Request, out: &mut Replies<'_>) {
            let Request::Get2 { ns, .. } = req else {
                return out.push(Response::Failed("get2 only".into()));
            };
            let reply = Response::Hit(ns.into_bytes());
            if std::mem::replace(&mut self.deferred_once, true) {
                out.push(reply);
            } else {
                *conn = Some((out.defer(), reply));
            }
        }

        fn advance(&mut self, conn: &mut Self::Conn, out: &mut Replies<'_>) -> bool {
            let ready = self.release.load(Ordering::Relaxed);
            let head = conn.take_if(|_| ready);
            head.map(|(ticket, reply)| out.fulfil(ticket, reply))
                .is_some()
        }

        fn metrics(&self) -> &ServerMetrics {
            &self.metrics
        }
    }

    #[test]
    fn deferred_replies_keep_order_and_tags_without_blocking_other_connections() {
        let svc = DeferFirst::default();
        let release = Arc::clone(&svc.release);
        let handle = spawn("127.0.0.1:0", svc).expect("bind ephemeral port");
        let connect = || {
            let conn = TcpStream::connect(handle.addr).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            conn
        };
        let ask = |w: &str| get2(w, key(0)).to_frame();
        let named = |w: &str| Response::Hit(w.into()).to_frame();
        let wrap = |tag: Option<u64>, f: Frame, envelope: fn(u64, &Frame) -> Frame| {
            tag.map_or(f.clone(), |t| envelope(t, &f))
        };
        // Connection A: a tagged request the service defers, then bare and
        // tagged ones it answers inline, all in one write.
        let script = [(Some(1), "a0"), (None, "a1"), (Some(2), "a2"), (None, "a3")];
        let mut a = connect();
        let bytes: Vec<u8> = script
            .iter()
            .flat_map(|&(tag, w)| wrap(tag, ask(w), tag_request).to_bytes())
            .collect();
        a.write_all(&bytes).expect("write");
        // Connection B is answered while A's head is still deferred.
        let mut b = connect();
        for (tag, w) in [(Some(10), "b0"), (None, "b1")] {
            wrap(tag, ask(w), tag_request)
                .write_to(&mut b)
                .expect("write");
            let reply = Frame::read_from(&mut b).expect("reply");
            assert_eq!(reply, wrap(tag, named(w), tag_response), "{w}");
        }
        a.set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        assert!(Frame::read_from(&mut a).is_err(), "A waits behind its head");
        a.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        // Released, A's replies leave in request order, each echoing its
        // request's tag.
        release.store(true, Ordering::Relaxed);
        for (tag, w) in script {
            let reply = Frame::read_from(&mut a).expect("reply");
            assert_eq!(reply, wrap(tag, named(w), tag_response), "{w}");
        }
        handle.stop();
        handle.join();
    }

    #[test]
    fn disk_hits_promote_into_the_mem_tier() {
        let scratch = std::env::temp_dir().join(format!("rtlt-stored-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let mem = Arc::new(MemTier::new(1 << 20));
        let disk = Arc::new(DiskTier::new(&scratch));
        let frame = compress::raw_frame(&[7; 10]);
        disk.put_bytes("ns", key(2), &frame);
        let server = ArtifactServer::with_tiers(vec![mem.clone(), disk]);
        assert_eq!(server.handle(get2("ns", key(2))), Response::Hit(frame));
        assert_eq!(mem.stats().entries, 1, "promoted");
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
