//! `live_edit`: the paper's edit loop through a live annotation session on
//! loopback, replayed afterwards through a local `IncrementalAnnotator` on
//! a fresh store to check every annotation.

use crate::report::Outcome;
use crate::{finish_trace, median, push_op, push_setup, trace, Ctx, SplitMix, Stopwatch, SOC_TOP};
use rtl_timer::incremental::IncrementalAnnotator;
use rtl_timer::live::{self, LiveAnnotator, LiveService};
use rtl_timer::pipeline::{DesignSet, RtlTimer};
use rtlt_store::Store;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Share of script steps (percent) that go back to an earlier revision,
/// whose shards are all warm, instead of editing a lane.
pub const REVERT_PCT: usize = 25;

/// Edits at least this many per run, so p90 has samples above it even on a
/// slow machine.
pub const MIN_EDITS: usize = 20;

/// The seeded edit script: revisions of the design and the order the
/// designer visits them in. Revision 0 is the prepared source; every other
/// revision is an earlier one with one more `hier::edit_lane` edit.
#[derive(Debug, Clone)]
pub struct EditScript {
    rng: SplitMix,
    lanes: usize,
    /// Distinct sources, in creation order.
    pub revisions: Vec<String>,
    /// Revision index of each step taken so far.
    pub steps: Vec<usize>,
    /// Steps that went back to an earlier revision.
    pub reverts: usize,
}

impl EditScript {
    /// A script over `base` (a `hier::soc` source with `lanes` lanes).
    pub fn new(base: String, lanes: usize, seed: u64) -> EditScript {
        EditScript {
            rng: SplitMix::new(seed),
            lanes,
            revisions: vec![base],
            steps: Vec::new(),
            reverts: 0,
        }
    }

    /// The next step's revision index: a revert to a random earlier
    /// revision, or an edit of a random lane of the current one.
    pub fn next_step(&mut self) -> usize {
        let current = self.steps.last().copied().unwrap_or(0);
        let idx = if self.revisions.len() > 1 && self.rng.below(100) < REVERT_PCT {
            self.reverts += 1;
            let back = self.rng.below(self.revisions.len() - 1);
            if back >= current {
                back + 1
            } else {
                back
            }
        } else {
            let lane = self.rng.below(self.lanes);
            let edited = rtlt_designgen::hier::edit_lane(&self.revisions[current], lane)
                .expect("every lane of a hier::soc source is editable");
            self.revisions.push(edited);
            self.revisions.len() - 1
        };
        self.steps.push(idx);
        idx
    }
}

/// The prepared design, its model, and the live service serving it on a
/// loopback port; the service is stopped and joined on drop.
struct Fixture {
    set: DesignSet,
    model: Arc<RtlTimer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<()>>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(server) = self.server.take() {
            // A panicked service thread already failed the edits it owed.
            let _ = server.join();
        }
    }
}

fn setup(ctx: &Ctx) -> Result<Fixture, String> {
    let cfg = ctx.cfg();
    let store = Store::in_memory();
    let set = DesignSet::prepare_named_with(&ctx.size.soc_sources(), &cfg, &store)
        .map_err(|e| format!("prepare failed: {e}"))?;
    let (train, test) = set.split(&[SOC_TOP]);
    let model = Arc::new(RtlTimer::fit(&train, &cfg));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
    let svc = LiveService::new(
        model.clone(),
        store,
        &[test[0]],
        &cfg,
        live::DEFAULT_STEP_SHARDS,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let server = std::thread::spawn(move || live::serve_until(listener, svc, &flag));
    Ok(Fixture {
        set,
        model,
        addr,
        stop,
        server: Some(server),
    })
}

/// One step the live session answered.
struct Answer {
    revision: usize,
    annotated: String,
    remote: bool,
    round_trips: u64,
}

/// The `live_edit` workload.
///
/// # Errors
///
/// A design that fails to prepare, or a revision the frontend rejects.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = ctx.cfg();
    let (fixture, setup_times) = ctx.setup(|| setup(ctx), |_| ())?;
    let base = fixture.set.get(SOC_TOP).expect("prepared base design");
    let mut script = EditScript::new(base.source.clone(), ctx.size.soc_lanes(), ctx.seed);
    let mut out = Outcome::default();

    // The session: OPEN plus the baseline annotation, then the script.
    // The client's store only backs its local fallback.
    trace::set_enabled(ctx.trace);
    let client_store = Store::in_memory();
    let mut session = LiveAnnotator::with_remote(base, &cfg, &fixture.addr.to_string());
    let err = |e: rtlt_verilog::VerilogError| format!("annotation failed: {e}");
    let t = Instant::now();
    let open = trace::timed("live.open", || {
        session.reannotate(&base.source, &fixture.model, &client_store)
    })
    .map_err(err)?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut answers = vec![Answer {
        revision: 0,
        annotated: open.annotated,
        remote: open.remote,
        round_trips: open.round_trips,
    }];
    // A traced run alternates untraced [0] and traced [1] edits, so the
    // span cost shows as the difference of their medians.
    let mut laps = Vec::new();
    let mut edit_ms = Vec::new();
    let mut by_trace: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut last = 0.0;
    while ctx.more(start, edit_ms.len(), MIN_EDITS, last) {
        let traced = ctx.trace && edit_ms.len() % 2 == 1;
        trace::set_enabled(traced);
        let revision = script.next_step();
        let source = &script.revisions[revision];
        let t = Stopwatch::start();
        let o = trace::timed("live.edit", || {
            session.reannotate(source, &fixture.model, &client_store)
        })
        .map_err(err)?;
        let lap = t.lap();
        laps.push(lap);
        last = lap.wall;
        let ms = last * 1e3;
        edit_ms.push(ms);
        by_trace[usize::from(traced)].push(ms);
        answers.push(Answer {
            revision,
            annotated: o.annotated,
            remote: o.remote,
            round_trips: o.round_trips,
        });
    }
    trace::set_enabled(false);
    drop(session);

    // Outside the timed loop: replay every step locally on a fresh store.
    // Each annotation must match the session's byte for byte, and a step
    // the session answered locally (degraded) counts as failed too.
    trace::set_enabled(ctx.trace);
    let replay_store = Store::in_memory();
    let mut local = IncrementalAnnotator::new(base, &cfg);
    let mut begin_ms = Vec::new();
    let mut step_ms = Vec::new();
    let mut finish_ms = Vec::new();
    let (mut dirty, mut reused, mut total) = (0u64, 0u64, 0u64);
    for (i, a) in answers.iter().enumerate() {
        let source = &script.revisions[a.revision];
        let t = Instant::now();
        let mut job = trace::timed("incremental.begin", || local.begin(source, &replay_store))
            .map_err(err)?;
        let t1 = Instant::now();
        trace::timed("incremental.step", || {
            while !job.step(&replay_store, usize::MAX) {}
        });
        let t2 = Instant::now();
        let o = trace::timed("incremental.finish", || {
            job.finish(&fixture.model, &replay_store)
        });
        let t3 = Instant::now();
        out.ops
            .check(a.remote, || format!("step {i}: session degraded to local"));
        out.ops.check(o.annotated == a.annotated, || {
            format!(
                "step {i} (revision {}): annotation differs from local replay",
                a.revision
            )
        });
        // Step 0 is the cold baseline pass on the fresh store; the layer
        // numbers describe the edits.
        if i > 0 {
            begin_ms.push((t1 - t).as_secs_f64() * 1e3);
            step_ms.push((t2 - t1).as_secs_f64() * 1e3);
            finish_ms.push((t3 - t2).as_secs_f64() * 1e3);
            dirty += o.dirty_shards;
            reused += o.reused_shards;
            total += o.total_shards;
        }
    }
    trace::set_enabled(false);
    let edits = edit_ms.len();
    out.note("edits", edits.to_string());
    out.note("revisions", script.revisions.len().to_string());
    out.note("reverts", script.reverts.to_string());

    if !ctx.trace {
        push_setup(&mut out, &setup_times);
        push_op(&mut out, &laps);
        return Ok(out);
    }

    let spans = trace::take();
    let local_ms: Vec<f64> = (0..edits)
        .map(|i| begin_ms[i] + step_ms[i] + finish_ms[i])
        .collect();
    out.push("incremental.begin_ms", median(&begin_ms), edits);
    out.push("incremental.step_ms", median(&step_ms), edits);
    out.push("incremental.finish_ms", median(&finish_ms), edits);
    out.push(
        "incremental.dirty_shards",
        dirty as f64 / edits as f64,
        edits,
    );
    out.push(
        "incremental.total_shards",
        total as f64 / edits as f64,
        edits,
    );
    out.push(
        "incremental.reuse_pct",
        100.0 * reused as f64 / total.max(1) as f64,
        edits,
    );
    out.push("live.edit_ms", median(&edit_ms), edits);
    out.push("live.open_ms", open_ms, 1);
    let turns: u64 = answers[1..].iter().map(|a| a.round_trips).sum();
    out.push(
        "live.round_trips_per_edit",
        turns as f64 / edits as f64,
        edits,
    );
    out.push("live.wire_ms", median(&edit_ms) - median(&local_ms), edits);
    let degraded = answers.iter().filter(|a| !a.remote).count();
    out.push("live.degraded", degraded as f64, answers.len());
    let to_s = |v: &[f64]| v.iter().map(|ms| ms / 1e3).collect::<Vec<_>>();
    finish_trace(
        ctx,
        &mut out,
        &to_s(&by_trace[1]),
        &to_s(&by_trace[0]),
        &spans,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_seeded_and_reverts_to_earlier_revisions() {
        let base = rtlt_designgen::hier::soc("hier_soc", 3, 8, 2);
        let mut a = EditScript::new(base.clone(), 3, 7);
        let mut b = EditScript::new(base, 3, 7);
        for _ in 0..40 {
            assert_eq!(a.next_step(), b.next_step());
        }
        let mut prev = 0;
        for &s in &a.steps {
            assert_ne!(s, prev, "every step changes the source");
            prev = s;
        }
        assert_eq!(a.revisions.len() + a.reverts, 41);
        assert!(a.reverts > 0 && a.revisions.len() > 20);
    }
}
