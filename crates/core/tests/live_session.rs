//! End-to-end tests of the live annotation service (`rtlt-annotated`):
//! concurrent sessions over real TCP against one single-threaded event
//! loop, byte-identity of every remote annotation vs. a local
//! [`IncrementalAnnotator`], and the full degrade matrix — killed server
//! mid-session and version-skewed peer (a plain artifact store answering
//! the session opcodes with `Failed`) — falling back to local recompute
//! with the same bytes.

use rtl_timer::live::{LiveAnnotator, LiveService};
use rtl_timer::pipeline::{DesignSet, RtlTimer, TimerConfig};
use rtl_timer::IncrementalAnnotator;
use rtlt_store::Store;
use std::sync::Arc;

fn lane(name: &str, body: &str) -> String {
    format!(
        "module {name}(input clk, input [7:0] x, output [7:0] y);
  reg [7:0] r;
  always @(posedge clk) r <= {body};
  assign y = r;
endmodule"
    )
}

fn design(top: &str, lane_a_body: &str) -> String {
    format!(
        "{}
{}
module {top}(input clk, input [7:0] a, input [7:0] b, output [7:0] q);
  wire [7:0] ya;
  wire [7:0] yb;
  laneA u0 (.clk(clk), .x(a), .y(ya));
  laneB u1 (.clk(clk), .x(b), .y(yb));
  reg [7:0] merge_r;
  always @(posedge clk) merge_r <= ya ^ yb;
  assign q = merge_r;
endmodule",
        lane("laneA", lane_a_body),
        lane("laneB", "x ^ (x >> 1)")
    )
}

struct Fixture {
    model: Arc<RtlTimer>,
    cfg: TimerConfig,
    service_store: Store,
    alpha: (rtl_timer::DesignData, String),
    beta: (rtl_timer::DesignData, String),
}

/// Prepares two editable designs plus a trainer, fits a model, and leaves
/// a warm store for the service side. The editable [`DesignData`] are
/// cloned out so the service can be built from them by reference.
fn fixture() -> Fixture {
    let cfg = TimerConfig {
        threads: 2,
        ..Default::default()
    };
    let alpha_src = design("alpha", "x + 8'd3");
    let beta_src = design("beta", "x + (x >> 2)");
    let store = Store::in_memory();
    let sources = vec![
        ("alpha".to_owned(), alpha_src.clone()),
        ("beta".to_owned(), beta_src.clone()),
        ("trainer".to_owned(), design("trainer", "x - 8'd1")),
    ];
    let set = DesignSet::prepare_named_with(&sources, &cfg, &store).unwrap();
    let (train, test) = set.split(&["alpha", "beta"]);
    let model = Arc::new(RtlTimer::fit(&train, &cfg));
    let mut alpha = None;
    let mut beta = None;
    for d in test {
        match &*d.name {
            "alpha" => alpha = Some(d.clone()),
            "beta" => beta = Some(d.clone()),
            _ => {}
        }
    }
    Fixture {
        model,
        cfg,
        service_store: store,
        alpha: (alpha.unwrap(), alpha_src),
        beta: (beta.unwrap(), beta_src),
    }
}

#[test]
fn two_concurrent_sessions_interleave_byte_identically() {
    let fx = fixture();
    // step_shards = 1 forces maximal interleaving: every pending job
    // advances one shard per tick, so neither session can starve the
    // other no matter how their edits land.
    let svc = LiveService::new(
        Arc::clone(&fx.model),
        fx.service_store,
        &[&fx.alpha.0, &fx.beta.0],
        &fx.cfg,
        1,
    );
    let handle = rtlt_store::server::spawn("127.0.0.1:0", svc).expect("bind");
    let addr = handle.addr.to_string();

    let run_session = |base: &rtl_timer::DesignData, base_src: &str, edits: Vec<String>| {
        let model = Arc::clone(&fx.model);
        let cfg = fx.cfg.clone();
        let addr = addr.clone();
        let base = base.clone();
        let base_src = base_src.to_owned();
        move || {
            let client_store = Store::in_memory();
            let local_store = Store::in_memory();
            let mut live = LiveAnnotator::with_remote(&base, &cfg, &addr);
            let mut local = IncrementalAnnotator::new(&base, &cfg);
            let mut remote_passes = 0u32;
            let _ = base_src;
            for edit in edits {
                let out = live
                    .reannotate(&edit, &model, &client_store)
                    .expect("live pass");
                let twin = local.reannotate(&edit, &model, &local_store).expect("twin");
                assert_eq!(
                    out.annotated, twin.annotated,
                    "remote annotation must be byte-identical to the local loop"
                );
                assert_eq!(out.total_shards, twin.total_shards);
                if out.remote {
                    remote_passes += 1;
                    assert!(
                        out.round_trips >= 1,
                        "an edit costs at least one turnaround"
                    );
                }
            }
            remote_passes
        }
    };

    let alpha_edits = vec![
        fx.alpha.1.replace("x + 8'd3", "x + (x << 1)"),
        fx.alpha.1.replace("x ^ (x >> 1)", "x ^ (x >> 3)"),
        fx.alpha.1.clone(),
    ];
    let beta_edits = vec![
        fx.beta.1.replace("x + (x >> 2)", "x + (x >> 4)"),
        fx.beta.1.replace("x ^ (x >> 1)", "x ^ (x >> 2)"),
        fx.beta.1.replace("x + (x >> 2)", "x | (x << 2)"),
    ];
    let a = run_session(&fx.alpha.0, &fx.alpha.1, alpha_edits);
    let b = run_session(&fx.beta.0, &fx.beta.1, beta_edits);
    let (ra, rb) = std::thread::scope(|s| {
        let ta = s.spawn(a);
        let tb = s.spawn(b);
        (
            ta.join().expect("alpha session"),
            tb.join().expect("beta session"),
        )
    });
    assert_eq!(ra, 3, "every alpha pass served remotely");
    assert_eq!(rb, 3, "every beta pass served remotely");
    handle.stop();
}

#[test]
fn killed_server_mid_session_degrades_to_identical_local_bytes() {
    let fx = fixture();
    let svc = LiveService::new(
        Arc::clone(&fx.model),
        fx.service_store,
        &[&fx.alpha.0],
        &fx.cfg,
        rtl_timer::live::DEFAULT_STEP_SHARDS,
    );
    let handle = rtlt_store::server::spawn("127.0.0.1:0", svc).expect("bind");
    let addr = handle.addr.to_string();

    let client_store = Store::in_memory();
    let mut live = LiveAnnotator::with_remote(&fx.alpha.0, &fx.cfg, &addr);
    let edit1 = fx.alpha.1.replace("x + 8'd3", "x + (x << 1)");
    let out1 = live
        .reannotate(&edit1, &fx.model, &client_store)
        .expect("first pass");
    assert!(out1.remote, "server up: first pass is remote");
    assert_eq!(
        client_store.stats().namespace("session").round_trips,
        out1.round_trips,
        "session turnarounds are charged to the store's session namespace"
    );

    // Kill the server mid-session, then keep editing: the loop degrades
    // to the local annotator with byte-identical output, diffing against
    // the last revision the designer saw (which the server produced).
    handle.stop();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let edit2 = fx.alpha.1.replace("x + 8'd3", "x + (x << 2)");
    let out2 = live
        .reannotate(&edit2, &fx.model, &client_store)
        .expect("degraded pass");
    assert!(!out2.remote, "server dead: pass degrades to local");

    // Twin that saw both revisions locally from the start.
    let twin_store = Store::in_memory();
    let mut twin = IncrementalAnnotator::new(&fx.alpha.0, &fx.cfg);
    let twin1 = twin.reannotate(&edit1, &fx.model, &twin_store).unwrap();
    let twin2 = twin.reannotate(&edit2, &fx.model, &twin_store).unwrap();
    assert_eq!(out1.annotated, twin1.annotated);
    assert_eq!(out2.annotated, twin2.annotated, "degrade is byte-identical");
    // The degraded diff base advanced with the remote passes: only the
    // re-edited module is dirty, not the whole design.
    assert_eq!(out2.dirty_modules, vec!["laneA".to_owned()]);
}

#[test]
fn version_skewed_store_peer_refuses_sessions_and_client_degrades() {
    let fx = fixture();
    // A plain artifact store on the other end: it answers OPEN with
    // `Failed` (unknown verb for its service), which must read as
    // "annotate locally", not as an error.
    let scratch =
        std::env::temp_dir().join(format!("rtlt-live-skew-{}-{}", std::process::id(), line!()));
    let server_addr = rtlt_store::server::spawn(
        "127.0.0.1:0",
        rtlt_store::server::ArtifactServer::new(&rtlt_store::server::ServerConfig {
            dir: scratch.clone(),
            mem_budget: 16 << 20,
        }),
    )
    .expect("spawn store")
    .addr;

    let client_store = Store::in_memory();
    let mut live = LiveAnnotator::with_remote(&fx.alpha.0, &fx.cfg, &server_addr.to_string());
    let edit = fx.alpha.1.replace("x + 8'd3", "x + (x << 1)");
    let out = live
        .reannotate(&edit, &fx.model, &client_store)
        .expect("degraded pass");
    assert!(!out.remote, "store peer refuses sessions");

    let twin_store = Store::in_memory();
    let mut twin = IncrementalAnnotator::new(&fx.alpha.0, &fx.cfg);
    let twin_out = twin.reannotate(&edit, &fx.model, &twin_store).unwrap();
    assert_eq!(out.annotated, twin_out.annotated);
    let _ = std::fs::remove_dir_all(scratch);
}

#[test]
fn live_peer_refuses_store_requests_and_remote_tier_recomputes() {
    use rtlt_store::wire::{tag_request, untag, Frame, Request, Response, PAYLOAD_ENCODING_FRAME};
    use rtlt_store::{compress, KeyBuilder, RemoteTier, StoreTier, TierLookup};

    // The other direction of the skew above: an artifact-store client
    // pointed at the live annotation service.
    let fx = fixture();
    let step = rtl_timer::live::DEFAULT_STEP_SHARDS;
    let svc = LiveService::new(fx.model, fx.service_store, &[&fx.alpha.0], &fx.cfg, step);
    let handle = rtlt_store::server::spawn("127.0.0.1:0", svc).expect("bind");
    let (ns, key) = ("featurize", KeyBuilder::new("live-refusal").finish());
    let encoding = PAYLOAD_ENCODING_FRAME;

    // On the wire: tagged GET2 and GETM2 are answered with a tagged
    // `Failed`, on a connection that stays up.
    let mut conn = std::net::TcpStream::connect(handle.addr).expect("connect");
    let timeout = Some(std::time::Duration::from_secs(10));
    conn.set_read_timeout(timeout).expect("read timeout");
    let get = Request::Get2 {
        ns: ns.into(),
        key,
        encoding,
    };
    let items = vec![(ns.to_owned(), key)];
    for (tag, req) in [(3, get), (4, Request::GetBatch2 { items, encoding })] {
        tag_request(tag, &req.to_frame())
            .write_to(&mut conn)
            .expect("write");
        let reply = untag(&Frame::read_from(&mut conn).expect("answered")).expect("tagged");
        assert_eq!(reply.0, tag);
        assert!(matches!(
            Response::from_frame(&reply.1),
            Ok(Response::Failed(_))
        ));
    }

    // Through the remote tier: GET2 and GETM2 read as misses and PUT2 is
    // dropped, without tripping the breaker.
    let remote = Arc::new(RemoteTier::new(handle.addr.to_string()));
    remote.put_bytes(ns, key, &compress::raw_frame(b"never stored"));
    remote.flush();
    assert_eq!(remote.get_bytes(ns, key), TierLookup::Miss);
    assert_eq!(
        remote.get_bytes_batch(&[(ns.into(), key)]),
        vec![TierLookup::Miss]
    );

    // A prepare through a store backed by that tier recomputes every
    // artifact, byte-identically to a cold in-memory store.
    let mut store = Store::in_memory();
    store.push_tier(remote.clone());
    let sources = [fx.alpha, fx.beta].map(|(d, src)| (d.name.to_string(), src));
    let served = DesignSet::prepare_named_with(&sources, &fx.cfg, &store).expect("prepare");
    let cold = DesignSet::prepare_named_with(&sources, &fx.cfg, &Store::in_memory()).unwrap();
    assert_eq!(served.content_digest(), cold.content_digest());
    let stats = store.stats();
    assert_eq!(stats.tier_hits().remote, 0, "every lookup was a miss");
    assert!(stats.remote_round_trips > 0, "the prepare reached the peer");
    assert!(!remote.is_down(), "refusals are answers, not failures");
    handle.stop();
}
