//! The `rtlt-stored` artifact service: a shared warm cache for fleets.
//!
//! The server is nothing but a [`StoreTier`] stack behind the [`wire`]
//! protocol — a byte-LRU [`MemTier`] fronting a checksummed [`DiskTier`],
//! the exact impls the local `Store` composes. GETs walk the stack (disk
//! hits promote into memory), PUTs land in every tier, STAT2 snapshots
//! tier sizes and live load, GC evicts down to a budget.
//!
//! Transport is a std-only, hand-rolled **nonblocking event loop**
//! ([`serve`]): one thread owns the listener and every connection, all in
//! nonblocking mode, and each scheduler tick accepts pending peers, then
//! drives every connection's write buffer, read buffer and incremental
//! [`FrameReassembler`] until the socket reports `WouldBlock`. A
//! connection whose response backlog exceeds [`MAX_CONN_INFLIGHT`] stops
//! being read until the peer drains it (backpressure), and a connection
//! silent past [`IDLE_TIMEOUT`] is reaped. Because requests are consumed
//! as fast as they arrive — not one lockstep exchange at a time — a
//! client can keep a window of [`op::TAGGED`] envelopes in flight on one
//! connection; responses carry the request's tag, batch streams included.
//! Untagged frames are still answered in order, one response per request
//! (the live session client speaks bare frames).
//!
//! Payload *content* is never inspected: the server moves opaque bytes
//! whose integrity the entry checksums and content keys already pin down,
//! so it needs no knowledge of the pipeline's artifact types. The tiers
//! hold [`crate::compress`] frames and the data ops (`GET2`/`PUT2`/
//! `GETM2`) move them verbatim. Unknown payload encodings degrade to miss
//! (GET) or a discarded write (PUT), never to garbage; unknown opcodes,
//! the retired generation-1 data ops included, are answered `Failed` on
//! the still-alive connection.
//!
//! Beyond bytes, the server holds the fleet's [`Planner`]: LEASE/REPORT/
//! PLAN requests let workers draw design names from one shared
//! work-stealing queue (see [`crate::plan`]), and GETM2 answers a whole
//! key batch as a stream of bounded [`Response::BatchPart`] chunks.

use crate::plan::{LeaseGrant, Planner};
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
    /// Deadline after which a silent worker's design lease is re-queued
    /// (work stealing).
    pub lease_timeout: Duration,
}

/// The shared artifact service: a tier stack, the fleet planner, and the
/// request handler.
///
/// Transport-independent — [`ArtifactServer::handle`] maps one
/// single-response request to its response and
/// [`ArtifactServer::handle_batch`] maps a GETM2 to its chunk stream, so
/// tests can drive both without sockets and [`serve`] wires them to a
/// [`TcpListener`].
#[derive(Debug)]
pub struct ArtifactServer {
    tiers: Vec<Arc<dyn StoreTier>>,
    planner: Planner,
    metrics: ServerMetrics,
}

/// Live gauges of the event loop, surfaced through [`Request::Stat2`]:
/// open connections and exchanges accepted but not yet fully flushed back
/// to their peers. Zero outside [`serve`] (e.g. when tests drive
/// [`ArtifactServer::handle`] directly).
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
        ArtifactServer {
            tiers,
            planner: Planner::new(cfg.lease_timeout),
            metrics: ServerMetrics::default(),
        }
    }

    /// Server over an explicit tier stack (fallback order) with the
    /// default lease timeout.
    pub fn with_tiers(tiers: Vec<Arc<dyn StoreTier>>) -> ArtifactServer {
        ArtifactServer {
            tiers,
            planner: Planner::default(),
            metrics: ServerMetrics::default(),
        }
    }

    /// The fleet work queue.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The event loop's live gauges.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
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
            Request::Lease { worker } => match self.planner.lease(&worker) {
                LeaseGrant::Granted { design } => Response::Leased { design },
                LeaseGrant::Drained { outstanding } => Response::Drained { outstanding },
            },
            Request::Report {
                worker,
                design,
                seconds,
                ok,
            } => {
                self.planner.complete(&worker, &design, seconds, ok);
                Response::Done(Default::default())
            }
            Request::Plan { epoch, designs } => {
                self.planner.plan(epoch, &designs);
                Response::Done(Default::default())
            }
            Request::PlanStat => Response::PlanStats(self.planner.stats()),
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

/// Per-connection idle timeout: a client that disappears without closing
/// (sleep, network drop) releases its connection state and socket after
/// this long instead of leaking them for the service's lifetime.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// How long the event loop sleeps when a full tick made no progress —
/// nothing accepted, read, written or parsed. Short enough that a lone
/// serialized client pays sub-millisecond turnaround; long enough that an
/// idle server burns no meaningful CPU.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Read scratch size per tick; bigger reads just take more ticks.
const READ_CHUNK: usize = 64 << 10;

/// One nonblocking connection on the event loop: an incremental frame
/// reassembler on the read side, a flush-as-writable byte queue on the
/// write side, and the bookkeeping that maps queued response bytes back
/// to in-flight exchange counts.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    rx: FrameReassembler,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Total bytes flushed to the socket over the connection's lifetime.
    flushed: u64,
    /// Per accepted exchange: the absolute `flushed` offset at which its
    /// response bytes end. Popped (and the in-flight gauge decremented)
    /// as the write side advances past it.
    pending: VecDeque<u64>,
    last_activity: Instant,
    /// The peer half-closed its read side; finish flushing, then drop.
    read_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, peer: SocketAddr) -> Conn {
        Conn {
            stream,
            peer,
            rx: FrameReassembler::new(),
            wbuf: Vec::new(),
            wpos: 0,
            flushed: 0,
            pending: VecDeque::new(),
            last_activity: Instant::now(),
            read_closed: false,
        }
    }

    /// Response bytes queued but not yet flushed.
    fn backlog(&self) -> u64 {
        (self.wbuf.len() - self.wpos) as u64
    }

    /// Queues one response frame, wrapping it in a tagged envelope when
    /// the request arrived in one.
    fn queue(&mut self, tag: Option<u64>, frame: &Frame) {
        let bytes = match tag {
            Some(t) => tag_response(t, frame).to_bytes(),
            None => frame.to_bytes(),
        };
        self.wbuf.extend_from_slice(&bytes);
    }

    /// Parses and answers one request frame (tagged or bare), queuing the
    /// response bytes. Never fails: malformed-but-framed requests are
    /// answered as [`Response::Failed`] on the still-alive connection,
    /// exactly as the blocking loop did.
    fn respond(&mut self, server: &ArtifactServer, frame: Frame) {
        server.metrics.inflight.fetch_add(1, Ordering::Relaxed);
        let (tag, inner) = if frame.op == op::TAGGED {
            match untag(&frame) {
                Ok((t, f)) => (Some(t), f),
                Err(e) => {
                    // The envelope itself is malformed: no tag to echo, so
                    // answer bare — the client treats an untagged
                    // response as a protocol error.
                    self.queue(None, &Response::Failed(e.to_string()).to_frame());
                    self.settle();
                    return;
                }
            }
        } else {
            (None, frame)
        };
        match Request::from_frame(&inner) {
            // Batch answers stream in bounded chunks; under a tagged
            // envelope every chunk carries the request's tag, so the
            // stream can interleave with other in-flight exchanges.
            Ok(Request::GetBatch2 { items, encoding }) => {
                if encoding == PAYLOAD_ENCODING_FRAME {
                    let _ = server.stream_batch(&items, MAX_BATCH_CHUNK, |part| {
                        self.queue(tag, &part.to_frame());
                        Ok::<(), std::convert::Infallible>(())
                    });
                } else {
                    // Unknown encoding: a well-formed all-miss stream —
                    // the client recomputes everything.
                    self.queue(
                        tag,
                        &Response::BatchPart {
                            items: Vec::new(),
                            last: true,
                        }
                        .to_frame(),
                    );
                }
            }
            Ok(req) => {
                let resp = server.handle(req).to_frame();
                self.queue(tag, &resp);
            }
            Err(e) => self.queue(tag, &Response::Failed(e.to_string()).to_frame()),
        }
        self.settle();
    }

    /// Records where the just-queued exchange's response bytes end.
    fn settle(&mut self) {
        self.pending.push_back(self.flushed + self.backlog());
    }

    /// Flushes queued bytes until the socket would block. Returns
    /// `(alive, progressed)`.
    fn flush(&mut self, server: &ArtifactServer) -> (bool, bool) {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return (false, progressed),
                Ok(n) => {
                    self.wpos += n;
                    self.flushed += n as u64;
                    progressed = true;
                    self.last_activity = Instant::now();
                    while self.pending.front().is_some_and(|end| *end <= self.flushed) {
                        self.pending.pop_front();
                        server.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return (false, progressed),
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }
        (true, progressed)
    }

    /// One scheduler tick: flush, read, parse, dispatch. Returns
    /// `(alive, progressed)`.
    fn tick(&mut self, server: &ArtifactServer, scratch: &mut [u8]) -> (bool, bool) {
        let (alive, mut progressed) = self.flush(server);
        if !alive {
            return (false, progressed);
        }
        if self.read_closed {
            // Half-closed peer: once the response backlog drains, the
            // conversation is over.
            return (self.backlog() > 0, progressed);
        }
        // Backpressure: a peer that stops reading while pumping requests
        // cannot balloon the response backlog past the same cumulative
        // bound the wire's FrameBudget enforces per exchange — the loop
        // simply stops reading it until the backlog drains.
        if self.backlog() <= MAX_CONN_INFLIGHT {
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
                        if self.backlog() + self.rx.buffered() as u64 > MAX_CONN_INFLIGHT {
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
                    self.respond(server, frame);
                }
                Ok(None) => break,
                Err(e) => {
                    // The stream can no longer be framed: drop the
                    // connection, as the blocking loop did. The client
                    // treats it as misses.
                    eprintln!("[rtlt-stored] connection {}: {e}", self.peer);
                    return (false, progressed);
                }
            }
        }
        if self.read_closed && self.backlog() == 0 {
            return (false, progressed);
        }
        if self.last_activity.elapsed() > IDLE_TIMEOUT {
            return (false, progressed);
        }
        (true, progressed)
    }
}

/// The event loop: serves `listener` forever on the calling thread —
/// nonblocking accept plus per-connection readiness polling driven by
/// `WouldBlock`. See the module docs for the architecture.
///
/// # Panics
///
/// If the listener cannot be switched to nonblocking mode (a broken
/// socket at startup — nothing can be served).
pub fn serve(listener: TcpListener, server: Arc<ArtifactServer>) -> ! {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    loop {
        let mut progressed = false;
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    // Nagle would add a delay to every small planner RPC
                    // (LEASE/REPORT) and every tagged ack; the protocol
                    // writes whole frames, so there is nothing to coalesce.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    server.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    conns.push(Conn::new(stream, peer));
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    eprintln!("[rtlt-stored] accept failed: {e}");
                    break;
                }
            }
        }
        conns.retain_mut(|conn| {
            let (alive, p) = conn.tick(&server, &mut scratch);
            progressed |= p;
            if !alive {
                server.metrics.connections.fetch_sub(1, Ordering::Relaxed);
                server
                    .metrics
                    .inflight
                    .fetch_sub(conn.pending.len() as u64, Ordering::Relaxed);
            }
            alive
        });
        if !progressed {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Binds `addr` and serves an [`ArtifactServer`] on a background thread —
/// the in-process form the integration tests (and the bin) use. Returns
/// the bound address (useful with port 0).
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(addr: &str, cfg: &ServerConfig) -> std::io::Result<std::net::SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let server = Arc::new(ArtifactServer::new(cfg));
    std::thread::spawn(move || serve(listener, server));
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress;
    use crate::hash::KeyBuilder;
    use crate::wire::tag_request;
    use crate::ContentHash;

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
    fn planner_verbs_round_trip_through_handle() {
        let server = ArtifactServer::with_tiers(vec![Arc::new(MemTier::new(1 << 20))]);
        assert!(matches!(
            server.handle(Request::Plan {
                epoch: 1,
                designs: vec![("small".into(), 1.0), ("big".into(), 7.0)],
            }),
            Response::Done(_)
        ));
        assert_eq!(
            server.handle(Request::Lease {
                worker: "w1".into()
            }),
            Response::Leased {
                design: "big".into()
            }
        );
        assert!(matches!(
            server.handle(Request::Report {
                worker: "w1".into(),
                design: "big".into(),
                seconds: 2.0,
                ok: true,
            }),
            Response::Done(_)
        ));
        assert_eq!(
            server.handle(Request::Lease {
                worker: "w2".into()
            }),
            Response::Leased {
                design: "small".into()
            }
        );
        match server.handle(Request::PlanStat) {
            Response::PlanStats(s) => {
                assert_eq!((s.planned, s.completed, s.active_leases), (2, 1, 1));
                assert_eq!(s.workers, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn retired_v1_opcodes_are_refused_on_a_live_connection() {
        // The generation-1 data ops GET=1, PUT=2, STAT=3 and GETM=5 no
        // longer decode; the event loop answers them `Failed` — bare or
        // tagged — and keeps serving the connection.
        const RETIRED: [u8; 4] = [1, 2, 3, 5];
        let body = get2("ns", key(1)).to_frame().body;
        for op in RETIRED {
            assert_eq!(
                Request::from_frame(&Frame {
                    op,
                    body: body.clone(),
                }),
                Err(crate::wire::WireError::Malformed("request opcode"))
            );
        }
        let scratch = std::env::temp_dir().join(format!("rtlt-stored-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let cfg = ServerConfig {
            dir: scratch.clone(),
            mem_budget: 1 << 20,
            lease_timeout: crate::plan::DEFAULT_LEASE_TIMEOUT,
        };
        let addr = spawn("127.0.0.1:0", &cfg).expect("bind ephemeral port");
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
