//! `rtlt-annotated` — the live annotation service and its session client.
//!
//! The paper's early-optimization loop, served over the wire: a designer's
//! editor OPENs a design, streams EDITs as line splices, and receives the
//! re-annotated source from ANNOTATE in one round trip. [`LiveService`] is
//! a [`Service`] on the workspace's one event loop
//! ([`rtlt_store::server::serve_until`]), which owns the transport; the
//! service supplies the session verbs. An ANNOTATE does not compute inline
//! (a cold pass on a large design would starve every other session); its
//! reply is deferred behind a resumable
//! [`ReannotateJob`](crate::incremental::ReannotateJob), and the loop's
//! [`Service::advance`] step moves every pending job of a connection a
//! bounded shard slice per tick, round-robin. Replies leave in request
//! order per connection, so the serial client never sees reordering.
//!
//! Every failure mode degrades exactly like the artifact store: a dead
//! server, a version-skewed peer (which answers `Failed` to the unknown
//! session opcodes), or a refused edit all cause the
//! [`LiveAnnotator`] to fall back to its local
//! [`IncrementalAnnotator`] — and because the service runs the *same*
//! resumable job pipeline over the *same* store keys, the fallback is
//! byte-identical, not merely equivalent.

use crate::incremental::{IncrementalAnnotator, ReannotateJob, ReannotateOutcome};
use crate::pipeline::{DesignData, RtlTimer, TimerConfig};
use rtlt_store::entry::fnv1a;
use rtlt_store::server::{Replies, ServerMetrics, Service};
use rtlt_store::wire::{AnnotationReply, EditSplice, Frame, Request, Response, WireError};
use rtlt_store::Store;
use rtlt_verilog::VerilogError;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Runs a [`LiveService`] (or any other [`Service`]) on the calling
/// thread until the stop flag is set.
pub use rtlt_store::server::serve_until;

/// Store-stats namespace the session client charges its wire round trips
/// to — `print_store_stats`-style tables then show EDIT→ANNOTATE
/// turnarounds alongside the artifact namespaces' traffic.
pub const SESSION_NS: &str = "session";

/// Default shard slice one pending re-annotation advances per event-loop
/// tick. Small enough that a cold 600-shard session cannot freeze a warm
/// 4-shard one behind it; large enough that slicing overhead (a map walk
/// per tick) stays invisible.
pub const DEFAULT_STEP_SHARDS: usize = 64;

/// Client-side connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Client-side read timeout — generous: a cold first ANNOTATE legitimately
/// computes for a while before its deferred reply flushes.
const READ_TIMEOUT: Duration = Duration::from_secs(120);
/// Client-side write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Consecutive client failures before the session breaker trips open for
/// the process lifetime, matching [`rtlt_store::RemoteTier`].
const MAX_CONSECUTIVE_FAILURES: u32 = 3;

/// FNV-1a over the full source text — the cheap end-to-end check both
/// sides of an EDIT exchange use to prove their mirrors agree.
pub fn source_check(source: &str) -> u64 {
    fnv1a(source.as_bytes())
}

/// Splits `source` into lines *including* their terminators, so a splice
/// concatenation reproduces the original byte-for-byte (CRLF, missing
/// trailing newline and all).
fn split_lines(source: &str) -> Vec<&str> {
    source.split_inclusive('\n').collect()
}

/// Applies ordered, non-overlapping line splices to `source`. Returns
/// `None` when a splice is out of bounds, overlapping, or out of order —
/// the server refuses such an edit and keeps its mirror untouched.
pub fn apply_splices(source: &str, splices: &[EditSplice]) -> Option<String> {
    let lines = split_lines(source);
    let mut out = String::with_capacity(source.len());
    let mut cursor = 0usize;
    for s in splices {
        let at = usize::try_from(s.at).ok()?;
        let delete = usize::try_from(s.delete).ok()?;
        if at < cursor || at.checked_add(delete)? > lines.len() {
            return None;
        }
        for line in &lines[cursor..at] {
            out.push_str(line);
        }
        out.push_str(&s.insert);
        cursor = at + delete;
    }
    for line in &lines[cursor..] {
        out.push_str(line);
    }
    Some(out)
}

/// Computes the minimal single-hunk line diff from `old` to `new`: the
/// common prefix and suffix are kept, everything between travels as one
/// splice. Returns an empty vec when the texts are identical.
pub fn diff_splices(old: &str, new: &str) -> Vec<EditSplice> {
    if old == new {
        return Vec::new();
    }
    let a = split_lines(old);
    let b = split_lines(new);
    let mut prefix = 0;
    while prefix < a.len() && prefix < b.len() && a[prefix] == b[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < a.len() - prefix
        && suffix < b.len() - prefix
        && a[a.len() - 1 - suffix] == b[b.len() - 1 - suffix]
    {
        suffix += 1;
    }
    vec![EditSplice {
        at: prefix as u64,
        delete: (a.len() - prefix - suffix) as u64,
        insert: b[prefix..b.len() - suffix].concat(),
    }]
}

/// The live annotation service's shared state: the trained model, the
/// artifact store every session's shard lookups run through, and a
/// prototype annotator per prepared design (OPEN clones it, so sessions
/// start from the same pinned clock and diff base as a local loop would).
pub struct LiveService {
    model: Arc<RtlTimer>,
    store: Store,
    bases: HashMap<String, (IncrementalAnnotator, String)>,
    step_shards: usize,
    next_session: u64,
    metrics: ServerMetrics,
}

impl LiveService {
    /// Builds the service over prepared designs. `step_shards` bounds the
    /// per-tick slice of each pending re-annotation
    /// ([`DEFAULT_STEP_SHARDS`] is the production value).
    pub fn new(
        model: Arc<RtlTimer>,
        store: Store,
        bases: &[&DesignData],
        cfg: &TimerConfig,
        step_shards: usize,
    ) -> LiveService {
        let bases = bases
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    (IncrementalAnnotator::new(d, cfg), d.source.clone()),
                )
            })
            .collect();
        LiveService {
            model,
            store,
            bases,
            step_shards: step_shards.max(1),
            next_session: 1,
            metrics: ServerMetrics::default(),
        }
    }
}

/// One server-side session: the per-design incremental annotator plus the
/// source mirror EDITs splice into.
struct LiveSession {
    annotator: IncrementalAnnotator,
    source: String,
    revision: u64,
}

/// Per-connection state of the live service: the connection's sessions
/// and their pending re-annotations, keyed by the deferred reply ticket
/// each one answers. A dropped editor drops its server-side state with it.
#[derive(Default)]
pub struct Sessions {
    sessions: HashMap<u64, LiveSession>,
    jobs: BTreeMap<u64, ReannotateJob>,
}

impl Service for LiveService {
    const NAME: &'static str = "rtlt-annotated";
    type Conn = Sessions;

    /// Answers one session verb: a started ANNOTATE defers its reply,
    /// everything else answers SESSION or `Failed`. Never kills the
    /// connection: unknown designs, stale sessions and broken edits all
    /// answer `Failed` — the client's cue to degrade to its local
    /// annotator.
    fn respond(&mut self, conn: &mut Sessions, req: Request, out: &mut Replies<'_>) {
        let reply = match req {
            Request::Open { design, source } => match self.bases.get(&design) {
                Some((proto, base_source)) => {
                    let id = self.next_session;
                    self.next_session += 1;
                    let source = if source.is_empty() {
                        base_source.clone()
                    } else {
                        source
                    };
                    let check = source_check(&source);
                    let annotator = proto.clone();
                    let revision = 0;
                    conn.sessions.insert(
                        id,
                        LiveSession {
                            annotator,
                            source,
                            revision,
                        },
                    );
                    Ok((id, revision, check))
                }
                None => Err(format!("unknown design {design}")),
            },
            Request::Edit {
                session,
                splices,
                check,
            } => match conn.sessions.get_mut(&session) {
                Some(s) => match apply_splices(&s.source, &splices) {
                    Some(next) if source_check(&next) == check => {
                        s.source = next;
                        s.revision += 1;
                        Ok((session, s.revision, check))
                    }
                    Some(_) => Err("edit check mismatch".to_owned()),
                    None => Err("edit splices out of bounds".to_owned()),
                },
                None => Err(format!("no session {session}")),
            },
            Request::Annotate { session } => match conn.sessions.get_mut(&session) {
                Some(s) => match s.annotator.begin(&s.source, &self.store) {
                    Ok(job) => {
                        conn.jobs.insert(out.defer(), job);
                        return;
                    }
                    Err(e) => Err(format!("edit error: {}", e.message)),
                },
                None => Err(format!("no session {session}")),
            },
            Request::Close { session } => match conn.sessions.remove(&session) {
                Some(s) => Ok((session, s.revision, source_check(&s.source))),
                None => Err(format!("no session {session}")),
            },
            // A store request reaching the annotation service: refuse it
            // the way a store refuses session verbs — the remote tier
            // treats `Failed` as a miss and recomputes.
            _ => Err("rtlt-annotated serves sessions, not artifacts".to_owned()),
        };
        out.push(match reply {
            Ok((session, revision, check)) => Response::Session {
                session,
                revision,
                check,
            },
            Err(msg) => Response::Failed(msg),
        });
    }

    /// Advances every pending job of the connection by one bounded slice,
    /// fulfilling the deferred reply of each job that completes.
    fn advance(&mut self, conn: &mut Sessions, out: &mut Replies<'_>) -> bool {
        if conn.jobs.is_empty() {
            return false;
        }
        let finished: Vec<u64> = conn
            .jobs
            .iter_mut()
            .filter_map(|(&ticket, job)| job.step(&self.store, self.step_shards).then_some(ticket))
            .collect();
        for ticket in finished {
            let job = conn.jobs.remove(&ticket).expect("finished job");
            let done = job.finish(&self.model, &self.store);
            out.fulfil(
                ticket,
                Response::Annotation(AnnotationReply {
                    annotated: done.annotated,
                    dirty_modules: done.dirty_modules,
                    dirty_cone_bound: done.dirty_cone_bound.len() as u64,
                    dirty_shards: done.dirty_shards,
                    reused_shards: done.reused_shards,
                    total_shards: done.total_shards,
                }),
            );
        }
        true
    }

    fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }
}

/// Reconnecting session client, [`rtlt_store::RemoteTier`]-style: serial
/// framing, a consecutive-failure breaker that trips open for the process
/// lifetime, and a source mirror kept in lockstep with the server through
/// per-edit FNV checks. An EDIT and its ANNOTATE are written back to back
/// and both replies read afterwards — one wire turnaround per edit.
pub struct SessionClient {
    addr: String,
    design: String,
    conn: Option<TcpStream>,
    session: Option<u64>,
    mirror: Option<String>,
    failures: u32,
    turns: u64,
}

impl SessionClient {
    /// A client for `design` on the service at `addr` (`host:port`). No
    /// connection is attempted until the first [`SessionClient::annotate`].
    pub fn new(addr: &str, design: &str) -> SessionClient {
        SessionClient {
            addr: addr.to_owned(),
            design: design.to_owned(),
            conn: None,
            session: None,
            mirror: None,
            failures: 0,
            turns: 0,
        }
    }

    /// Whether the breaker has tripped: [`MAX_CONSECUTIVE_FAILURES`]
    /// consecutive failed exchanges, after which every call returns
    /// `None` without touching the network.
    pub fn is_down(&self) -> bool {
        self.failures >= MAX_CONSECUTIVE_FAILURES
    }

    /// Wire turnarounds paid so far (write→read transitions).
    pub fn round_trips(&self) -> u64 {
        self.turns
    }

    /// Annotates `source` remotely: reconnect + OPEN if needed, then a
    /// pipelined EDIT + ANNOTATE. `None` on any failure (dead server,
    /// version-skewed peer answering `Failed`, mirror divergence) — the
    /// caller falls back to its local annotator.
    pub fn annotate(&mut self, source: &str) -> Option<AnnotationReply> {
        if self.is_down() {
            return None;
        }
        match self.try_annotate(source) {
            Ok(reply) => {
                self.failures = 0;
                self.mirror = Some(source.to_owned());
                Some(reply)
            }
            Err(_) => {
                self.failures += 1;
                self.conn = None;
                self.session = None;
                self.mirror = None;
                None
            }
        }
    }

    /// Best-effort CLOSE of the current session (ignores failures — the
    /// server reaps dropped connections anyway).
    pub fn close(&mut self) {
        if let (Some(mut conn), Some(session)) = (self.conn.take(), self.session.take()) {
            let _ = conn.write_all(&Request::Close { session }.to_frame().to_bytes());
            let _ = Frame::read_from(&mut conn);
        }
        self.mirror = None;
    }

    fn try_annotate(&mut self, source: &str) -> Result<AnnotationReply, WireError> {
        self.ensure_session(source)?;
        let session = self.session.expect("session ensured");
        let splices = diff_splices(self.mirror.as_deref().unwrap_or(""), source);
        let check = source_check(source);
        let conn = self.conn.as_mut().expect("connection ensured");
        let mut buf = Request::Edit {
            session,
            splices,
            check,
        }
        .to_frame()
        .to_bytes();
        buf.extend_from_slice(&Request::Annotate { session }.to_frame().to_bytes());
        conn.write_all(&buf).map_err(|e| WireError::Io(e.kind()))?;
        self.turns += 1;
        match Response::from_frame(&Frame::read_from(conn)?)? {
            Response::Session {
                check: echoed_check,
                ..
            } if echoed_check == check => {}
            _ => return Err(WireError::Malformed("edit refused")),
        }
        match Response::from_frame(&Frame::read_from(conn)?)? {
            Response::Annotation(reply) => Ok(reply),
            _ => Err(WireError::Malformed("annotate refused")),
        }
    }

    /// Connects and OPENs a session seeded with the full current source
    /// (so both mirrors provably agree), if none is live.
    fn ensure_session(&mut self, source: &str) -> Result<(), WireError> {
        if self.conn.is_some() && self.session.is_some() {
            return Ok(());
        }
        let addr = self
            .addr
            .to_socket_addrs()
            .map_err(|e| WireError::Io(e.kind()))?
            .next()
            .ok_or(WireError::Io(std::io::ErrorKind::AddrNotAvailable))?;
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
            .map_err(|e| WireError::Io(e.kind()))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let mut stream = stream;
        stream
            .write_all(
                &Request::Open {
                    design: self.design.clone(),
                    source: source.to_owned(),
                }
                .to_frame()
                .to_bytes(),
            )
            .map_err(|e| WireError::Io(e.kind()))?;
        self.turns += 1;
        match Response::from_frame(&Frame::read_from(&mut stream)?)? {
            Response::Session { session, check, .. } if check == source_check(source) => {
                self.conn = Some(stream);
                self.session = Some(session);
                self.mirror = Some(source.to_owned());
                Ok(())
            }
            // `Failed` here is the capability refusal of a version-skewed
            // or plain-store peer — same degrade as a dead server.
            _ => Err(WireError::Malformed("open refused")),
        }
    }
}

/// Result of one [`LiveAnnotator::reannotate`] pass, remote or degraded.
#[derive(Debug)]
pub struct LiveOutcome {
    /// The annotated source (byte-identical remote vs local).
    pub annotated: String,
    /// Modules whose text changed since the previous pass.
    pub dirty_modules: Vec<String>,
    /// Signals whose cone provenance may overlap the dirty modules.
    pub dirty_cone_bound: u64,
    /// Shards recomputed for this pass.
    pub dirty_shards: u64,
    /// Shards served from cache.
    pub reused_shards: u64,
    /// Total shard lookups (signals × variants).
    pub total_shards: u64,
    /// Whether the remote service produced this pass.
    pub remote: bool,
    /// Wire turnarounds paid for this pass (0 when local).
    pub round_trips: u64,
}

impl LiveOutcome {
    fn from_local(out: ReannotateOutcome) -> LiveOutcome {
        LiveOutcome {
            annotated: out.annotated,
            dirty_modules: out.dirty_modules,
            dirty_cone_bound: out.dirty_cone_bound.len() as u64,
            dirty_shards: out.dirty_shards,
            reused_shards: out.reused_shards,
            total_shards: out.total_shards,
            remote: false,
            round_trips: 0,
        }
    }
}

/// The designer-facing edit loop: a remote session when one is reachable,
/// the local [`IncrementalAnnotator`] otherwise — with the degrade being
/// byte-identical because both run the same resumable job pipeline. On a
/// remote success the local diff base is advanced
/// ([`IncrementalAnnotator::note_revision`]) so a later fallback diffs
/// against the revision the designer actually sees, and the turnarounds
/// paid are charged to the store's `session` namespace
/// ([`Store::charge_round_trips`]).
pub struct LiveAnnotator {
    local: IncrementalAnnotator,
    client: Option<SessionClient>,
}

impl LiveAnnotator {
    /// Local-only loop (no service configured).
    pub fn new(base: &DesignData, cfg: &TimerConfig) -> LiveAnnotator {
        LiveAnnotator {
            local: IncrementalAnnotator::new(base, cfg),
            client: None,
        }
    }

    /// Loop with a remote session against the service at `addr`.
    pub fn with_remote(base: &DesignData, cfg: &TimerConfig, addr: &str) -> LiveAnnotator {
        LiveAnnotator {
            local: IncrementalAnnotator::new(base, cfg),
            client: Some(SessionClient::new(addr, &base.name)),
        }
    }

    /// Whether the remote session is still usable (configured and the
    /// breaker has not tripped).
    pub fn remote_active(&self) -> bool {
        self.client.as_ref().is_some_and(|c| !c.is_down())
    }

    /// Re-annotates `source` — remotely in one EDIT→ANNOTATE round trip
    /// when the session is up, locally otherwise.
    ///
    /// # Errors
    ///
    /// Frontend errors from the local fallback (a broken edit the server
    /// refused fails locally with the real parse error).
    pub fn reannotate(
        &mut self,
        source: &str,
        model: &RtlTimer,
        store: &Store,
    ) -> Result<LiveOutcome, VerilogError> {
        if let Some(client) = self.client.as_mut() {
            let before = client.round_trips();
            if let Some(reply) = client.annotate(source) {
                let turns = client.round_trips() - before;
                store.charge_round_trips(SESSION_NS, turns);
                self.local.note_revision(source);
                return Ok(LiveOutcome {
                    annotated: reply.annotated,
                    dirty_modules: reply.dirty_modules,
                    dirty_cone_bound: reply.dirty_cone_bound,
                    dirty_shards: reply.dirty_shards,
                    reused_shards: reply.reused_shards,
                    total_shards: reply.total_shards,
                    remote: true,
                    round_trips: turns,
                });
            }
            store.charge_round_trips(SESSION_NS, client.round_trips() - before);
        }
        Ok(LiveOutcome::from_local(
            self.local.reannotate(source, model, store)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_then_apply_reproduces_the_edit() {
        let cases = [
            ("a\nb\nc\n", "a\nB\nc\n"),
            ("a\nb\nc\n", "a\nb\nc\nd\n"),
            ("a\nb\nc\n", "b\nc\n"),
            ("a\nb\nc\n", ""),
            ("", "x\ny\n"),
            ("one\r\ntwo\r\n", "one\r\nTWO\r\n"),
            ("no trailing newline", "still no trailing newline"),
            ("a\nb", "a\nb\nc"),
            ("same\n", "same\n"),
            (
                "module m;\n  wire a;\n  wire b;\nendmodule\n",
                "module m;\n  wire a;\n  wire b2;\n  wire c;\nendmodule\n",
            ),
        ];
        for (old, new) in cases {
            let splices = diff_splices(old, new);
            if old == new {
                assert!(splices.is_empty(), "identical texts need no splice");
            }
            let applied = apply_splices(old, &splices).expect("apply");
            assert_eq!(applied, new, "diff({old:?} -> {new:?})");
            assert_eq!(source_check(&applied), source_check(new));
        }
    }

    #[test]
    fn bad_splices_are_refused_not_misapplied() {
        let src = "a\nb\nc\n";
        // Out of bounds.
        assert_eq!(
            apply_splices(
                src,
                &[EditSplice {
                    at: 2,
                    delete: 5,
                    insert: String::new(),
                }]
            ),
            None
        );
        // Out of order / overlapping.
        assert_eq!(
            apply_splices(
                src,
                &[
                    EditSplice {
                        at: 2,
                        delete: 1,
                        insert: String::new(),
                    },
                    EditSplice {
                        at: 0,
                        delete: 1,
                        insert: String::new(),
                    },
                ]
            ),
            None
        );
    }

    #[test]
    fn multi_splice_sequences_apply_in_order() {
        let src = "l0\nl1\nl2\nl3\nl4\n";
        let out = apply_splices(
            src,
            &[
                EditSplice {
                    at: 1,
                    delete: 1,
                    insert: "L1\n".into(),
                },
                EditSplice {
                    at: 3,
                    delete: 0,
                    insert: "inserted\n".into(),
                },
                EditSplice {
                    at: 4,
                    delete: 1,
                    insert: String::new(),
                },
            ],
        )
        .expect("apply");
        assert_eq!(out, "l0\nL1\nl2\ninserted\nl3\n");
    }
}
