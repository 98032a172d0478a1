//! [`RemoteTier`] — the client side of the `rtlt-stored` artifact service.
//!
//! A [`StoreTier`] over one TCP connection (lazily established, reused
//! across requests, re-established after failures). The governing rule is
//! **graceful degradation**: a server that is down, unreachable, slow, or
//! speaking a different format version turns every operation into a miss
//! or a no-op — the pipeline recomputes exactly what it would have
//! computed cold, byte-identically, and never sees an error. After
//! [`MAX_CONSECUTIVE_FAILURES`] the tier trips open and stops trying for
//! the rest of the process, so a dead server costs a bounded number of
//! connect timeouts rather than one per lookup.
//!
//! The client is **pipelined**: every request travels in an
//! [`op::TAGGED`] envelope, so one connection carries many in-flight
//! exchanges and write-back PUTs become fire-and-forget — up to
//! [`PIPELINE_WINDOW`] unacknowledged puts ride the wire while the
//! pipeline keeps computing, and their acks are absorbed lazily (while
//! awaiting some later response, or in [`RemoteTier::flush`]). Responses
//! are matched by tag, not arrival order. Payloads travel as
//! [`crate::compress`] frames through the data ops (`GET2`/`PUT2`/
//! `GETM2`), so the store above sees exactly the bytes its own tiers hold.
//! A peer that answers outside that protocol (an untagged frame, an
//! unknown tag) is a protocol error: the breaker counts it and the lookup
//! degrades to a miss.
//!
//! The tier also counts **round trips** — write→read turnarounds on the
//! wire, the thing pipelining actually removes (request counts stay the
//! same; waiting does not). [`RemoteTier::round_trips`] is cumulative and
//! monotonic; the store samples it around remote calls to attribute
//! turnarounds per namespace.

use crate::hash::ContentHash;
use crate::tier::{GcReport, StoreTier, TierKind, TierLookup, TierStats};
use crate::wire::{
    op, tag_request, untag, Frame, FrameBudget, Request, Response, ServerLoad, WireError,
    MAX_CONN_INFLIGHT, PAYLOAD_ENCODING_FRAME,
};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Consecutive transport failures after which the tier stops trying.
pub const MAX_CONSECUTIVE_FAILURES: u32 = 3;

/// Default connect/read/write timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// In-flight window of fire-and-forget PUTs: how many unacknowledged
/// tagged writes may ride the wire before the client absorbs an ack.
/// Small on purpose — the point is overlapping latency, not buffering
/// unbounded bytes on either side.
pub const PIPELINE_WINDOW: usize = 8;

#[derive(Debug, Default)]
struct RemoteState {
    conn: Option<TcpStream>,
    consecutive_failures: u32,
    next_tag: u64,
    /// Tags of fire-and-forget PUTs whose acks have not been absorbed yet
    /// (bounded by [`PIPELINE_WINDOW`]).
    pending_puts: VecDeque<u64>,
    /// A request was written since the last read — the next read is a
    /// wire turnaround.
    wrote_since_read: bool,
}

/// Client tier speaking to a shared `rtlt-stored` server.
#[derive(Debug)]
pub struct RemoteTier {
    addr: String,
    timeout: Duration,
    /// Cumulative write→read turnarounds on the wire (monotonic).
    turns: AtomicU64,
    state: Mutex<RemoteState>,
}

impl RemoteTier {
    /// Client of the server at `addr` (`host:port`), with the
    /// [`DEFAULT_TIMEOUT`].
    pub fn new(addr: impl Into<String>) -> RemoteTier {
        RemoteTier::with_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// Client with an explicit per-operation timeout.
    pub fn with_timeout(addr: impl Into<String>, timeout: Duration) -> RemoteTier {
        RemoteTier {
            addr: addr.into(),
            timeout,
            turns: AtomicU64::new(0),
            state: Mutex::new(RemoteState::default()),
        }
    }

    /// The configured server address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the tier has tripped open (too many consecutive failures).
    pub fn is_down(&self) -> bool {
        self.state
            .lock()
            .expect("remote state lock")
            .consecutive_failures
            >= MAX_CONSECUTIVE_FAILURES
    }

    /// Cumulative write→read wire turnarounds this tier has paid.
    pub fn wire_round_trips(&self) -> u64 {
        self.turns.load(Ordering::Relaxed)
    }

    fn connect(&self) -> Result<TcpStream, WireError> {
        let mut last = WireError::Io(std::io::ErrorKind::NotFound);
        let addrs: Vec<SocketAddr> = self
            .addr
            .to_socket_addrs()
            .map_err(WireError::from)?
            .collect();
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.timeout))?;
                    stream.set_write_timeout(Some(self.timeout))?;
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) => last = e.into(),
            }
        }
        Err(last)
    }

    /// Runs one wire interaction under the failure breaker: refused
    /// outright once tripped; a failure drops the connection (and any
    /// unacknowledged puts with it — lost best-effort writes, never
    /// corrupt ones) and bumps the counter; success resets it.
    fn with_breaker<T>(
        &self,
        f: impl FnOnce(&mut RemoteState) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut state = self.state.lock().expect("remote state lock");
        if state.consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
            return Err(WireError::Io(std::io::ErrorKind::ConnectionRefused));
        }
        let result = f(&mut state);
        match &result {
            Ok(_) => state.consecutive_failures = 0,
            Err(_) => {
                state.conn = None;
                state.pending_puts.clear();
                state.wrote_since_read = false;
                state.consecutive_failures += 1;
            }
        }
        result
    }

    fn send_frame(&self, state: &mut RemoteState, frame: &Frame) -> Result<(), WireError> {
        if state.conn.is_none() {
            state.conn = Some(self.connect()?);
        }
        let conn = state.conn.as_mut().expect("connection just set");
        frame.write_to(conn)?;
        state.wrote_since_read = true;
        Ok(())
    }

    fn read_frame(
        &self,
        state: &mut RemoteState,
        budget: &mut FrameBudget,
    ) -> Result<Frame, WireError> {
        if state.wrote_since_read {
            state.wrote_since_read = false;
            self.turns.fetch_add(1, Ordering::Relaxed);
        }
        let conn = state
            .conn
            .as_mut()
            .ok_or(WireError::Io(std::io::ErrorKind::NotConnected))?;
        Frame::read_budgeted(conn, budget)
    }

    /// Absorbs the ack of a previously fire-and-forgotten PUT. Any tag
    /// that is neither the awaited one nor a pending put is a protocol
    /// error — the demux has exactly those two kinds in flight.
    fn absorb_put_ack(&self, state: &mut RemoteState, tag: u64) -> Result<(), WireError> {
        match state.pending_puts.iter().position(|&t| t == tag) {
            Some(i) => {
                state.pending_puts.remove(i);
                Ok(())
            }
            None => Err(WireError::Malformed("response for unknown tag")),
        }
    }

    /// Sends `req` in a tagged envelope and returns its tag.
    fn send_tagged(&self, state: &mut RemoteState, req: &Request) -> Result<u64, WireError> {
        let tag = state.next_tag;
        state.next_tag += 1;
        self.send_frame(state, &tag_request(tag, &req.to_frame()))?;
        Ok(tag)
    }

    /// Reads one response envelope. Every response on this connection is
    /// tagged; a bare frame is a protocol error.
    fn read_tagged(
        &self,
        state: &mut RemoteState,
        budget: &mut FrameBudget,
    ) -> Result<(u64, Frame), WireError> {
        let frame = self.read_frame(state, budget)?;
        if frame.op != op::TAGGED_RESP {
            return Err(WireError::Malformed("untagged response"));
        }
        untag(&frame)
    }

    /// Reads one response and absorbs it as a put ack.
    fn drain_one_put(&self, state: &mut RemoteState) -> Result<(), WireError> {
        let mut budget = FrameBudget::new(MAX_CONN_INFLIGHT);
        let (tag, _) = self.read_tagged(state, &mut budget)?;
        self.absorb_put_ack(state, tag)
    }

    /// Reads responses until one answers `want`, absorbing put acks for
    /// other tags along the way. Returns the awaited inner frame.
    fn await_tag(
        &self,
        state: &mut RemoteState,
        want: u64,
        budget: &mut FrameBudget,
    ) -> Result<Frame, WireError> {
        loop {
            let (tag, inner) = self.read_tagged(state, budget)?;
            if tag == want {
                return Ok(inner);
            }
            self.absorb_put_ack(state, tag)?;
        }
    }

    /// One request/response round trip under the breaker.
    fn round_trip(&self, req: &Request) -> Result<Response, WireError> {
        self.with_breaker(|state| {
            let tag = self.send_tagged(state, req)?;
            let mut budget = FrameBudget::new(MAX_CONN_INFLIGHT);
            Response::from_frame(&self.await_tag(state, tag, &mut budget)?)
        })
    }

    /// One GETM2 exchange: writes `req`, then reads its
    /// [`Response::BatchPart`] stream under one cumulative [`FrameBudget`],
    /// filling `out`. Parts already received survive a mid-stream failure
    /// — the unanswered tail simply stays "miss" (partial-batch
    /// degradation). A `Failed` answer is healthy and leaves the rest
    /// missing.
    fn batch_round_trip(&self, req: &Request, out: &mut [TierLookup]) -> Result<(), WireError> {
        self.with_breaker(|state| {
            let tag = self.send_tagged(state, req)?;
            let mut budget = FrameBudget::new(MAX_CONN_INFLIGHT);
            loop {
                let inner = self.await_tag(state, tag, &mut budget)?;
                match Response::from_frame(&inner)? {
                    Response::BatchPart { items: part, last } => {
                        for (idx, payload) in part {
                            if let (Some(slot), Some(p)) = (out.get_mut(idx as usize), payload) {
                                *slot = TierLookup::Hit(p);
                            }
                        }
                        if last {
                            return Ok(());
                        }
                    }
                    Response::Failed(_) => return Ok(()),
                    _ => return Err(WireError::Malformed("unexpected batch response")),
                }
            }
        })
    }

    /// Size snapshot of the *server's* tiers, if reachable.
    pub fn stat_remote(&self) -> Option<Vec<TierStats>> {
        self.server_load().map(|load| load.tiers)
    }

    /// Live load snapshot of the server (tier sizes plus connection and
    /// in-flight gauges). `None` when the server is unreachable.
    pub fn server_load(&self) -> Option<ServerLoad> {
        match self.round_trip(&Request::Stat2) {
            Ok(Response::ServerStats(load)) => Some(load),
            _ => None,
        }
    }

    /// Asks the server to evict down to `budget_bytes`. Deliberately *not*
    /// part of [`Store::gc`](crate::Store::gc) — evicting a fleet's shared
    /// cache is an explicit operator action, never a local side effect.
    pub fn gc_remote(&self, budget_bytes: u64) -> Option<GcReport> {
        match self.round_trip(&Request::Gc { budget_bytes }) {
            Ok(Response::Done(report)) => Some(report),
            _ => None,
        }
    }
}

impl StoreTier for RemoteTier {
    fn kind(&self) -> TierKind {
        TierKind::Remote
    }

    fn get_bytes(&self, ns: &str, key: ContentHash) -> TierLookup {
        match self.round_trip(&Request::Get2 {
            ns: ns.to_owned(),
            key,
            encoding: PAYLOAD_ENCODING_FRAME,
        }) {
            Ok(Response::Hit(frame)) => TierLookup::Hit(frame),
            // A miss, a refusal, a protocol error or a dead server all
            // degrade to a miss.
            _ => TierLookup::Miss,
        }
    }

    fn get_bytes_batch(&self, items: &[(String, ContentHash)]) -> Vec<TierLookup> {
        let mut out = vec![TierLookup::Miss; items.len()];
        if !items.is_empty() {
            // Partial results survive a mid-stream failure; the rest stay
            // misses, which the store recomputes byte-identically.
            let _ = self.batch_round_trip(
                &Request::GetBatch2 {
                    items: items.to_vec(),
                    encoding: PAYLOAD_ENCODING_FRAME,
                },
                &mut out,
            );
        }
        out
    }

    /// Fire-and-forget within the [`PIPELINE_WINDOW`]: the ack is absorbed
    /// lazily. A failed write is lost, never an error upstream.
    fn put_bytes(&self, ns: &str, key: ContentHash, payload: &[u8]) {
        let req = Request::Put2 {
            ns: ns.to_owned(),
            key,
            encoding: PAYLOAD_ENCODING_FRAME,
            payload: payload.to_vec(),
        };
        let _ = self.with_breaker(|state| {
            while state.pending_puts.len() >= PIPELINE_WINDOW {
                self.drain_one_put(state)?;
            }
            let tag = self.send_tagged(state, &req)?;
            state.pending_puts.push_back(tag);
            Ok(())
        });
    }

    /// Blocks until every fire-and-forgotten PUT has been acknowledged (or
    /// the connection fails, losing the best-effort writes). Callers that
    /// care about writes being durable-on-the-server before they exit or
    /// measure call this; nobody else pays for it.
    fn flush(&self) {
        {
            let state = self.state.lock().expect("remote state lock");
            if state.pending_puts.is_empty() {
                return;
            }
        }
        let _ = self.with_breaker(|state| {
            while !state.pending_puts.is_empty() {
                self.drain_one_put(state)?;
            }
            Ok(())
        });
    }

    fn round_trips(&self) -> u64 {
        self.wire_round_trips()
    }

    fn stats(&self) -> TierStats {
        match self.stat_remote() {
            Some(tiers) => TierStats {
                kind: TierKind::Remote,
                detail: self.addr.clone(),
                entries: tiers.iter().map(|t| t.entries).sum(),
                bytes: tiers.iter().map(|t| t.bytes).sum(),
                reachable: true,
            },
            None => TierStats {
                kind: TierKind::Remote,
                detail: self.addr.clone(),
                entries: 0,
                bytes: 0,
                reachable: false,
            },
        }
    }

    /// No local bytes to evict; remote eviction is explicit via
    /// [`RemoteTier::gc_remote`].
    fn gc(&self, _budget_bytes: u64) -> GcReport {
        GcReport::default()
    }
}
