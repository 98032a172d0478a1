//! `cold_prepare` and `warm_prepare`: the suite through
//! `DesignSet::prepare_named_timed_with` into an empty store, and back out
//! of a filled on-disk one.

use crate::report::Outcome;
use crate::tier::{store_over, TierCounters};
use crate::{
    finish_trace, mb, median, push_op, push_setup, trace, walls, Ctx, Fingerprint, Lap, Stopwatch,
};
use rtl_timer::dataset::cone_dedup_stats;
use rtl_timer::pipeline::{BlastedDesign, DesignData, DesignSet, PrepareStages, TimerConfig};
use rtlt_bog::BogVariant;
use rtlt_liberty::Library;
use rtlt_sta::{LevelScratch, Sta, StaConfig};
use rtlt_store::{DiskTier, MemTier, NamespaceStats, Store, StoreTier};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Byte budget of the in-memory tier the timed cold prepares fill: far
/// above the suite's ~24 MB of frames, so nothing is evicted.
const MEM_TIER_BYTES: usize = 1 << 30;

/// One prepare of the suite through a store.
struct Prepared {
    lap: Lap,
    fingerprint: Fingerprint,
    /// Per-design prepare seconds, as the library reports them.
    per_design: Vec<f64>,
    /// Store counters summed over namespaces.
    stats: NamespaceStats,
    /// Timed-tier counters (traced iterations only).
    tier: Option<TierCounters>,
}

/// Prepares `sources` through a store over the byte tier `tier`; returns
/// the measurements and the prepared set.
fn prepare_into<T: StoreTier + 'static>(
    tier: T,
    sources: &[(String, String)],
    cfg: &TimerConfig,
    traced: bool,
) -> Result<(Prepared, DesignSet), String> {
    let (store, tier) = store_over(tier, traced);
    trace::set_enabled(traced);
    let t = Stopwatch::start();
    let prepared = trace::timed("runtime.prepare", || {
        DesignSet::prepare_named_timed_with(sources, cfg, &store)
    });
    let lap = t.lap();
    trace::set_enabled(false);
    let (set, per_design) = prepared.map_err(|e| format!("prepare failed: {e}"))?;
    let snap = store.stats();
    let p = Prepared {
        lap,
        fingerprint: Fingerprint::of(&set),
        per_design: per_design.into_iter().map(|(_, s)| s).collect(),
        stats: snap.aggregate(snap.namespaces.iter().map(|(n, _)| n.as_str())),
        tier: tier.map(|t| t.counters()),
    };
    Ok((p, set))
}

fn disk_bytes(dir: &Path) -> u64 {
    DiskTier::new(dir).usage().iter().map(|(_, _, b)| b).sum()
}

fn remove_dir(dir: &Path) {
    // Best effort: the whole per-run directory is removed at exit anyway.
    let _ = std::fs::remove_dir_all(dir);
}

/// `runtime.busy_share`: per-design busy seconds over the worker seconds
/// the wall time offered.
fn busy_share(p: &Prepared, threads: usize) -> f64 {
    p.per_design.iter().sum::<f64>() / (threads as f64 * p.lap.wall)
}

/// The `cold_prepare` workload. The timed prepares fill an empty store
/// whose byte tier is in memory: every compute layer runs, and every
/// artifact is encoded, compressed and put, but no fsync'd disk write sits
/// on the timed path, because disk latency on a shared host swung whole
/// prepares by 2x within minutes. One untimed prepare into an empty
/// on-disk store follows the loop: it gives `cache_disk_mb`, the warm
/// check, and (traced) the disk tier's write numbers.
///
/// # Errors
///
/// A design that fails to prepare.
pub fn cold(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = ctx.cfg();
    // Setup: the suite, plus one storeless prepare of it so the process's
    // lazy set-up (code paging, allocator growth) is done before timing.
    let (sources, setup_times) = ctx.setup(
        || {
            let sources = ctx.size.suite();
            DesignSet::prepare_named(&sources, &cfg).map_err(|e| format!("prepare failed: {e}"))?;
            Ok(sources)
        },
        |_| (),
    )?;
    let mut out = Outcome::default();
    let mut reference = None;
    // Times of untraced [0] and traced [1] iterations.
    let mut laps: [Vec<Lap>; 2] = [Vec::new(), Vec::new()];
    let mut traced_runs = Vec::new();
    let start = Instant::now();
    let (mut i, mut last) = (0, 0.0);
    while ctx.more(start, i, if ctx.trace { 2 } else { 1 }, last) {
        let t = Instant::now();
        let traced = ctx.trace && i % 2 == 1;
        let (p, set) = prepare_into(MemTier::new(MEM_TIER_BYTES), &sources, &cfg, traced)?;
        drop(set);
        laps[usize::from(traced)].push(p.lap);
        let want = reference.get_or_insert_with(|| p.fingerprint.clone());
        Fingerprint::check(&mut out.ops, "cold prepare", &p.fingerprint, want);
        if traced {
            traced_runs.push(p);
        }
        i += 1;
        last = t.elapsed().as_secs_f64();
    }
    let reference = reference.expect("at least one iteration");

    // The same suite into an empty on-disk store, and back out of it warm.
    let dir = ctx.tmp.join("cold-disk");
    let (disk, set) = prepare_into(DiskTier::new(&dir), &sources, &cfg, ctx.trace)?;
    drop(set);
    Fingerprint::check(
        &mut out.ops,
        "on-disk cold prepare",
        &disk.fingerprint,
        &reference,
    );
    let disk_mb = mb(disk_bytes(&dir));
    let warm = DesignSet::prepare_named_with(&sources, &cfg, &Store::on_disk(&dir))
        .map_err(|e| format!("warm check failed: {e}"))?;
    Fingerprint::check(
        &mut out.ops,
        "warm from cold cache",
        &Fingerprint::of(&warm),
        &reference,
    );
    out.note("suite_digest", warm.content_digest().to_hex());
    drop(warm);
    remove_dir(&dir);
    out.note("designs", sources.len().to_string());
    if !ctx.trace {
        push_setup(&mut out, &setup_times);
        push_op(&mut out, &laps[0]);
        out.note("cache_disk_mb", disk_mb.to_string());
        return Ok(out);
    }

    let mut spans = trace::take();
    let tier = disk.tier.expect("traced prepares are timed");
    let n = traced_runs.len();
    let med = |f: &dyn Fn(&Prepared) -> f64| median(&traced_runs.iter().map(f).collect::<Vec<_>>());
    // Store writes of the on-disk prepare: fsync'd puts, busy time summed
    // over the workers.
    out.push("store.put_count", tier.puts as f64, 1);
    out.push("store.put_s", tier.put_s, 1);
    out.push("store.put_mb", mb(tier.put_bytes), 1);
    out.push("store.disk_mb", disk_mb, 1);
    out.push("store.logical_put_mb", mb(disk.stats.bytes_written), 1);
    out.push("store.compression_ratio", disk.stats.compression_ratio(), 1);
    out.push(
        "runtime.busy_share",
        med(&|p| busy_share(p, ctx.threads)),
        n,
    );
    out.push(
        "runtime.longest_design_s",
        med(&|p| p.per_design.iter().copied().fold(0.0, f64::max)),
        n,
    );

    // The layer pass: the same suite once more, stage by stage, with each
    // layer's public call in its own span. It must reproduce the suite.
    trace::set_enabled(true);
    let dedup0 = cone_dedup_stats();
    let layered = layer_pass(&sources, &cfg)?;
    let dedup1 = cone_dedup_stats();
    trace::set_enabled(false);
    let set = DesignSet::new(layered.designs);
    Fingerprint::check(
        &mut out.ops,
        "stage-by-stage prepare",
        &Fingerprint::of(&set),
        &reference,
    );
    spans.extend(trace::take());
    for (metric, span) in [
        ("verilog.parse_s", "verilog.parse"),
        ("verilog.elaborate_s", "verilog.elaborate"),
        ("bog.blast_s", "bog.blast"),
        ("bog.variants_s", "bog.variants"),
        ("synth.label_s", "synth.label"),
        ("dataset.featurize_s", "dataset.featurize"),
        ("sta.levelized_s", "sta.levelized"),
    ] {
        let d = trace::durations(&spans, span);
        out.push(metric, d.iter().sum(), d.len());
    }
    out.push("bog.sog_nodes", layered.sog_nodes as f64, 1);
    out.push("dataset.path_rows", layered.path_rows as f64, 1);
    out.push(
        "dataset.unique_cones",
        (dedup1.unique_cones - dedup0.unique_cones) as f64,
        1,
    );
    out.push(
        "dataset.signals",
        (dedup1.total_signals - dedup0.total_signals) as f64,
        1,
    );
    finish_trace(ctx, &mut out, &walls(&laps[1]), &walls(&laps[0]), &spans)?;
    Ok(out)
}

struct Layered {
    designs: Vec<DesignData>,
    sog_nodes: u64,
    path_rows: u64,
}

/// Prepares every design stage by stage on the calling thread, timing each
/// layer's public call in its own span.
fn layer_pass(sources: &[(String, String)], cfg: &TimerConfig) -> Result<Layered, String> {
    let stages = PrepareStages::new(cfg);
    let pseudo = Library::pseudo_bog();
    let mut levels = LevelScratch::new();
    let mut out = Layered {
        designs: Vec::with_capacity(sources.len()),
        sog_nodes: 0,
        path_rows: 0,
    };
    for (name, src) in sources {
        let _design = trace::span("runtime.design");
        let err = |e: rtlt_verilog::VerilogError| format!("{name}: {e}");
        let file = trace::timed("verilog.parse", || rtlt_verilog::parse(src)).map_err(err)?;
        let netlist = trace::timed("verilog.elaborate", || rtlt_verilog::elaborate(&file, name))
            .map_err(err)?;
        std::hint::black_box(netlist);
        let compiled =
            trace::timed("verilog.compile", || stages.compile(name, src)).map_err(err)?;
        let sog = trace::timed("bog.blast", || rtlt_bog::blast(&compiled.netlist));
        let variants: Vec<_> = trace::timed("bog.variants", || {
            BogVariant::ALL.iter().map(|&v| sog.to_variant(v)).collect()
        });
        out.sog_nodes += sog.len() as u64;
        let labeled = trace::timed("synth.label", || {
            stages.label(BlastedDesign { compiled, sog })
        });
        let sta = StaConfig {
            clock_period: labeled.synth.clock_period,
            ..Default::default()
        };
        trace::timed("sta.levelized", || {
            for v in &variants {
                std::hint::black_box(Sta::run_levelized(v, &pseudo, sta, &mut levels).result());
            }
        });
        let d = trace::timed("dataset.featurize", || stages.featurize(labeled));
        out.path_rows += d
            .variant_data
            .iter()
            .map(|v| v.rows.len() as u64)
            .sum::<u64>();
        out.designs.push(d);
    }
    Ok(out)
}

/// A filled on-disk cache of the suite; removed when dropped.
struct WarmCache {
    sources: Vec<(String, String)>,
    dir: PathBuf,
}

impl Drop for WarmCache {
    fn drop(&mut self) {
        remove_dir(&self.dir);
    }
}

/// The `warm_prepare` workload.
///
/// # Errors
///
/// A design that fails to prepare.
pub fn warm(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = ctx.cfg();
    let mut out = Outcome::default();
    let mut setup_fingerprints = Vec::new();
    let mut k = 0;
    let ((cache, cold_set), setup_times) = ctx.setup(
        || {
            let sources = ctx.size.suite();
            let dir = ctx.tmp.join(format!("warm-cache-{k}"));
            k += 1;
            let set = DesignSet::prepare_named_with(&sources, &cfg, &Store::on_disk(&dir))
                .map_err(|e| format!("prepare failed: {e}"))?;
            Ok((WarmCache { sources, dir }, set))
        },
        |(_, set)| setup_fingerprints.push(Fingerprint::of(set)),
    )?;
    let reference = Fingerprint::of(&cold_set);
    out.note("suite_digest", cold_set.content_digest().to_hex());
    drop(cold_set);
    for f in &setup_fingerprints {
        Fingerprint::check(&mut out.ops, "repeated cold setup", f, &reference);
    }
    let mut laps: [Vec<Lap>; 2] = [Vec::new(), Vec::new()];
    let mut traced_runs = Vec::new();
    let start = Instant::now();
    let (mut i, mut last) = (0, 0.0);
    while ctx.more(start, i, if ctx.trace { 2 } else { 1 }, last) {
        let t = Instant::now();
        let traced = ctx.trace && i % 2 == 1;
        let (p, set) = prepare_into(DiskTier::new(&cache.dir), &cache.sources, &cfg, traced)?;
        drop(set);
        laps[usize::from(traced)].push(p.lap);
        Fingerprint::check(&mut out.ops, "warm prepare", &p.fingerprint, &reference);
        if traced {
            traced_runs.push(p);
        }
        i += 1;
        last = t.elapsed().as_secs_f64();
    }
    if !ctx.trace {
        push_setup(&mut out, &setup_times);
        push_op(&mut out, &laps[0]);
        return Ok(out);
    }

    let spans = trace::take();
    let n = traced_runs.len();
    let last = traced_runs.last().expect("a traced iteration");
    let tier = last.tier.expect("traced iterations are timed");
    let med = |f: &dyn Fn(&Prepared, TierCounters) -> f64| {
        let v: Vec<f64> = traced_runs
            .iter()
            .map(|p| f(p, p.tier.unwrap_or_default()))
            .collect();
        median(&v)
    };
    out.push("store.get_count", tier.gets as f64, 1);
    out.push("store.get_s", med(&|_, t| t.get_s), n);
    out.push("store.read_mb", mb(tier.read_bytes), 1);
    out.push("store.decoded_mb", mb(last.stats.bytes_read), 1);
    out.push("store.hit_pct", last.stats.hit_rate_pct(), 1);
    // Busy time outside the tier: decompression, decoding and key
    // derivation, summed over workers like the tier time it excludes.
    out.push(
        "store.decode_s",
        med(&|p, t| p.per_design.iter().sum::<f64>() - t.get_s),
        n,
    );
    finish_trace(ctx, &mut out, &walls(&laps[1]), &walls(&laps[0]), &spans)?;
    Ok(out)
}
