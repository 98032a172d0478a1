//! The repository benchmark: four closed-loop workloads driven through the
//! public APIs of the workspace crates, each reporting end-to-end metrics
//! from an untraced run and per-layer metrics from a traced run. See
//! `README.md` next to this package for the workload rationale and the
//! layer → metric → workload map.

pub mod live;
pub mod prepare;
pub mod report;
pub mod tier;
pub mod trace;
pub mod train;

use report::{Ops, Outcome, END_TO_END, PER_LAYER};
use rtl_timer::pipeline::{DesignSet, TimerConfig};
use rtlt_store::Codec;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Setups per run: at least two, and a third while the setups so far took
/// under [`SETUP_BUDGET_S`]. The reported `setup_s` is their median.
pub const MIN_SETUPS: usize = 2;
/// See [`MIN_SETUPS`].
pub const SETUP_BUDGET_S: f64 = 6.0;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The suite into an empty on-disk store.
    ColdPrepare,
    /// The suite from a filled on-disk store, fresh handle each time.
    WarmPrepare,
    /// 3-fold cross-validation with the storeless fit.
    TrainPredict,
    /// A seeded edit script through a live annotation session.
    LiveEdit,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdPrepare,
        Workload::WarmPrepare,
        Workload::TrainPredict,
        Workload::LiveEdit,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPrepare => "cold_prepare",
            Workload::WarmPrepare => "warm_prepare",
            Workload::TrainPredict => "train_predict",
            Workload::LiveEdit => "live_edit",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The 21-design suite and the 12-lane SoC.
    Full,
    /// A handful of two-lane designs: seconds, not minutes, in a debug
    /// build.
    Tiny,
}

/// Top module of the live-edit design.
pub const SOC_TOP: &str = "hier_soc";

impl Size {
    /// The design suite the prepare and train workloads run.
    pub fn suite(self) -> Vec<(String, String)> {
        match self {
            Size::Full => rtlt_designgen::generate_all(),
            Size::Tiny => (0..6)
                .map(|i| {
                    let name = format!("tiny{i}");
                    let src = rtlt_designgen::hier::soc(&name, 2 + i % 2, 8, 2);
                    (name, src)
                })
                .collect(),
        }
    }

    /// Lanes of the live-edit design.
    pub fn soc_lanes(self) -> usize {
        match self {
            Size::Full => 12,
            Size::Tiny => 3,
        }
    }

    /// The live-edit design first, then the two designs the model trains
    /// on.
    pub fn soc_sources(self) -> Vec<(String, String)> {
        let (width, depth) = match self {
            Size::Full => (32, 3),
            Size::Tiny => (8, 2),
        };
        let lanes = self.soc_lanes();
        let mut out = vec![(
            SOC_TOP.to_owned(),
            rtlt_designgen::hier::soc(SOC_TOP, lanes, width, depth),
        )];
        for i in 0..2 {
            let name = format!("soc_trainer{i}");
            let src = rtlt_designgen::hier::soc(&name, lanes, width, depth);
            out.push((name, src));
        }
        out
    }
}

/// Everything one workload run needs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: `TimerConfig.seed`, and the live-edit script.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Worker threads (`nproc`).
    pub threads: usize,
    /// Per-run scratch directory for on-disk caches.
    pub tmp: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
}

impl Ctx {
    /// The pipeline configuration of this run.
    pub fn cfg(&self) -> TimerConfig {
        TimerConfig {
            seed: self.seed,
            threads: self.threads,
            ..Default::default()
        }
    }

    /// Whether the measured loop should run another iteration: always
    /// until `min` are done, then while one more, as long as the `last`
    /// one took, ends closer to `--seconds` after `start` than stopping
    /// now would.
    pub fn more(&self, start: Instant, done: usize, min: usize, last: f64) -> bool {
        done < min || start.elapsed().as_secs_f64() + last / 2.0 < self.seconds
    }

    /// Runs the workload's setup several times (see [`MIN_SETUPS`]) and
    /// keeps the last result; returns it with every setup's times. Each
    /// earlier result is dropped before the next setup starts, so no two
    /// live at once. `after` sees each result outside the timed part (for
    /// checks).
    pub fn setup<T>(
        &self,
        mut f: impl FnMut() -> Result<T, String>,
        mut after: impl FnMut(&T),
    ) -> Result<(T, Vec<Lap>), String> {
        let mut times: Vec<Lap> = Vec::new();
        let mut kept = None;
        loop {
            let (n, total) = (times.len(), times.iter().map(|l| l.wall).sum::<f64>());
            if n >= MIN_SETUPS && (n >= 3 || total >= SETUP_BUDGET_S) {
                break;
            }
            drop(kept.take());
            let t = Stopwatch::start();
            let value = f()?;
            times.push(t.lap());
            after(&value);
            kept = Some(value);
        }
        Ok((kept.expect("at least one setup"), times))
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A setup or pipeline step that returned an error (the benchmark then
/// prints no result).
pub fn run(workload: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.tmp).map_err(|e| format!("{}: {e}", ctx.tmp.display()))?;
    let mut out = match workload {
        Workload::ColdPrepare => prepare::cold(ctx),
        Workload::WarmPrepare => prepare::warm(ctx),
        Workload::TrainPredict => train::run(ctx),
        Workload::LiveEdit => live::run(ctx),
    }?;
    if ctx.trace {
        out.complete(&PER_LAYER);
    } else {
        out.push("peak_rss_mb", report::peak_rss_mb(), 1);
        out.complete(&END_TO_END);
    }
    Ok(out)
}

/// Wall time and process CPU time (see [`report::process_cpu_s`]) of one
/// timed piece of work, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    /// Wall-clock seconds.
    pub wall: f64,
    /// CPU seconds of every thread of the process.
    pub cpu: f64,
}

/// Start point of a [`Lap`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: report::process_cpu_s(),
        }
    }

    /// Wall and CPU seconds since [`Stopwatch::start`].
    pub fn lap(&self) -> Lap {
        Lap {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: report::process_cpu_s() - self.cpu,
        }
    }
}

/// The wall times of `laps`.
pub fn walls(laps: &[Lap]) -> Vec<f64> {
    laps.iter().map(|l| l.wall).collect()
}

/// Adds `setup_s`, the median CPU time of the setups, and notes their
/// median wall time.
pub fn push_setup(out: &mut Outcome, times: &[Lap]) {
    let cpu: Vec<f64> = times.iter().map(|l| l.cpu).collect();
    out.push("setup_s", median(&cpu), times.len());
    out.note("setup_wall_s", median(&walls(times)).to_string());
}

/// Adds `op_cpu_ms`, the mean CPU time of the operations `laps` (the
/// closed loop's CPU seconds per operation), and notes the mean, median
/// and p90 of their wall times.
///
/// CPU time rather than wall time, because on a shared host the wall time
/// also includes the time the hypervisor gives the vCPUs to other guests
/// (steal), which came and went within minutes on the 2-vCPU VM this was
/// tuned on (up to 28 % of it in one 10 s sample). The mean rather than
/// the median, because an operation mix (edits and reverts; designs of
/// many sizes) leaves gaps in the distribution that the median jumps
/// across from run to run.
pub fn push_op(out: &mut Outcome, laps: &[Lap]) {
    let n = laps.len() as f64;
    let wall = walls(laps);
    out.push(
        "op_cpu_ms",
        laps.iter().map(|l| l.cpu).sum::<f64>() * 1e3 / n,
        laps.len(),
    );
    out.note(
        "op_wall_ms",
        (wall.iter().sum::<f64>() * 1e3 / n).to_string(),
    );
    out.note("op_wall_ms_p50", (median(&wall) * 1e3).to_string());
    out.note(
        "op_wall_ms_p90",
        (percentile(&wall, 90.0) * 1e3).to_string(),
    );
}

/// Ends a traced run: adds the tracing overhead (traced minus untraced
/// median of the same end-to-end measure, both taken in this run) and the
/// per-layer self times of `spans`, and writes the span file.
///
/// # Errors
///
/// The span file cannot be written.
pub fn finish_trace(
    ctx: &Ctx,
    out: &mut Outcome,
    traced: &[f64],
    untraced: &[f64],
    spans: &[trace::Span],
) -> Result<(), String> {
    out.push(
        "trace.overhead_s",
        median(traced) - median(untraced),
        traced.len().min(untraced.len()),
    );
    out.self_times = trace::self_times(spans)
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    trace::write(&ctx.trace_file, spans, &out.self_times)
        .map_err(|e| format!("{}: {e}", ctx.trace_file.display()))?;
    out.note("trace_file", ctx.trace_file.display().to_string());
    out.note("spans", spans.len().to_string());
    Ok(())
}

/// Per design (sorted by name), a 64-bit hash of its full codec encoding.
/// Stricter than `DesignSet::content_digest` (it also covers the source
/// and the SOG) and an order of magnitude cheaper, so every timed
/// iteration can be checked; the suite digest is computed once per run,
/// for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint(Vec<(Arc<str>, u64)>);

impl Fingerprint {
    /// Fingerprint of a prepared set.
    pub fn of(set: &DesignSet) -> Fingerprint {
        let mut v: Vec<(Arc<str>, u64)> = set
            .designs()
            .iter()
            .map(|d| (d.name.clone(), hash_bytes(&Codec::to_bytes(&**d))))
            .collect();
        v.sort();
        Fingerprint(v)
    }

    /// Records one checked operation: `got` must equal `want`.
    pub fn check(ops: &mut Ops, what: &str, got: &Fingerprint, want: &Fingerprint) {
        ops.check(got == want, || {
            let differ: Vec<&str> = got
                .0
                .iter()
                .zip(&want.0)
                .filter(|(a, b)| a != b)
                .map(|(a, _)| &*a.0)
                .collect();
            format!("{what}: designs differ from the reference: {differ:?}")
        });
    }
}

/// Word-wise multiply-rotate hash (inputs are the benchmark's own outputs,
/// so no protection against crafted collisions is needed).
fn hash_bytes(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks of 8"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h
}

/// Median (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Percentile by linear interpolation between closest ranks (NaN when
/// empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Bytes → MB (10^6).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// SplitMix64: the seeded generator of the live-edit script (inputs only;
/// the library never sees it).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_sees_every_byte() {
        let a: Vec<u8> = (0..=255).collect();
        for i in 0..a.len() {
            let mut b = a.clone();
            b[i] ^= 1;
            assert_ne!(hash_bytes(&a), hash_bytes(&b), "byte {i}");
        }
        assert_ne!(hash_bytes(&a), hash_bytes(&a[..255]));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}
