//! Metrics, correctness accounting, the run environment, and the printed
//! report whose last line is the machine-readable result.

use std::fmt::Write as _;
use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, error).
    Lower,
    /// Larger is better (accuracy, hit rates, counts of useful work).
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decl {
    /// Name, unique across both sections.
    pub name: &'static str,
    /// Unit (`s`, `ms`, `MB`, `count`, `%`, `ratio`, `r`).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn decl(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload's untraced run reports each of
/// them, in this order. `setup_s` and `op_cpu_ms` are CPU time of the
/// process: the median setup, and the mean of the workload's own
/// operation (a suite prepare, a cross-validation round, an edit).
pub const END_TO_END: [Decl; 3] = [
    decl("setup_s", "s", Lower),
    decl("op_cpu_ms", "ms", Lower),
    decl("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics: every workload's traced run reports each of them,
/// in this order; a layer the workload does not call reports 0 from no
/// samples.
pub const PER_LAYER: [Decl; 47] = [
    decl("verilog.parse_s", "s", Lower),
    decl("verilog.elaborate_s", "s", Lower),
    decl("bog.blast_s", "s", Lower),
    decl("bog.variants_s", "s", Lower),
    decl("bog.sog_nodes", "count", Lower),
    decl("synth.label_s", "s", Lower),
    decl("dataset.featurize_s", "s", Lower),
    decl("sta.levelized_s", "s", Lower),
    decl("dataset.path_rows", "count", Lower),
    decl("dataset.unique_cones", "count", Lower),
    decl("dataset.signals", "count", Lower),
    decl("store.put_count", "count", Lower),
    decl("store.put_s", "s", Lower),
    decl("store.put_mb", "MB", Lower),
    decl("store.logical_put_mb", "MB", Lower),
    decl("store.compression_ratio", "ratio", Lower),
    decl("store.disk_mb", "MB", Lower),
    decl("store.get_count", "count", Lower),
    decl("store.get_s", "s", Lower),
    decl("store.read_mb", "MB", Lower),
    decl("store.decoded_mb", "MB", Lower),
    decl("store.hit_pct", "%", Higher),
    decl("store.decode_s", "s", Lower),
    decl("runtime.busy_share", "ratio", Higher),
    decl("runtime.longest_design_s", "s", Lower),
    decl("runtime.fold_busy_share", "ratio", Higher),
    decl("model.fit_s", "s", Lower),
    decl("model.bitwise_fit_s", "s", Lower),
    decl("model.predict_ms", "ms", Lower),
    decl("model.predict_bitwise_ms", "ms", Lower),
    decl("model.predict_rest_ms", "ms", Lower),
    decl("model.bit_r", "r", Higher),
    decl("model.signal_covr_pct", "%", Higher),
    decl("model.bit_mape_pct", "%", Lower),
    decl("model.wns_r", "r", Higher),
    decl("incremental.begin_ms", "ms", Lower),
    decl("incremental.step_ms", "ms", Lower),
    decl("incremental.finish_ms", "ms", Lower),
    decl("incremental.dirty_shards", "count", Lower),
    decl("incremental.total_shards", "count", Lower),
    decl("incremental.reuse_pct", "%", Higher),
    decl("live.edit_ms", "ms", Lower),
    decl("live.open_ms", "ms", Lower),
    decl("live.round_trips_per_edit", "count", Lower),
    decl("live.wire_ms", "ms", Lower),
    decl("live.degraded", "count", Lower),
    decl("trace.overhead_s", "s", Lower),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The declaration: name, unit and direction.
    pub decl: Decl,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a count or a single measurement,
    /// 0 for a layer the workload does not call).
    pub samples: usize,
}

/// Correctness accounting: every checked operation is attempted; each
/// mismatch is one failed operation.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ops {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output did not match.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Ops {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Correctness accounting.
    pub ops: Ops,
    /// Informational lines (digests, sample notes) printed with the report.
    pub notes: Vec<(String, String)>,
    /// Self time per layer (traced run only).
    pub self_times: Vec<(String, f64)>,
}

impl Outcome {
    /// Adds the declared metric `name`.
    ///
    /// # Panics
    ///
    /// `name` is declared in neither [`END_TO_END`] nor [`PER_LAYER`].
    pub fn push(&mut self, name: &str, value: f64, n: usize) {
        let decl = *END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.push(Metric {
            decl,
            value,
            samples: n,
        });
    }

    /// Puts the metrics in the order of `section` and adds each declared
    /// one the run did not measure as 0 from no samples.
    ///
    /// # Panics
    ///
    /// A metric outside `section`, or one reported twice.
    pub fn complete(&mut self, section: &[Decl]) {
        let outside: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !section.contains(&m.decl))
            .map(|m| m.decl.name)
            .collect();
        assert!(
            outside.is_empty(),
            "metrics outside the section: {outside:?}"
        );
        self.metrics = section
            .iter()
            .map(|d| {
                let mut found = self.metrics.iter().filter(|m| m.decl == *d);
                let m = found.next().cloned().unwrap_or(Metric {
                    decl: *d,
                    value: 0.0,
                    samples: 0,
                });
                assert!(found.next().is_none(), "metric {} reported twice", d.name);
                m
            })
            .collect();
    }

    /// Adds an informational line.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_owned(), value.into()));
    }
}

/// `RTLT_*` switches the library reads inside the timed calls: any of them
/// changes the measured path, so the benchmark refuses to run with one set.
pub const REFUSED_ENV: [&str; 6] = [
    "RTLT_NO_CONE_DEDUP",
    "RTLT_NO_FLAT_PREDICT",
    "RTLT_HIST_SUBTRACT",
    "RTLT_TIER_POLICY",
    "RTLT_FAST",
    "RTLT_PREDICT_TRACE",
];

/// The run environment recorded with every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// Commit of the checkout (`unknown` outside a git checkout).
    pub commit: String,
    /// `available_parallelism`.
    pub nproc: usize,
    /// Worker threads the workloads use.
    pub threads: usize,
    /// Every set `RTLT_*` variable, sorted.
    pub rtlt_vars: Vec<(String, String)>,
}

impl Env {
    /// Captures the environment of this process, run from `root`.
    pub fn capture(root: &Path) -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut rtlt_vars: Vec<(String, String)> = std::env::vars_os()
            .filter_map(|(k, v)| {
                let k = k.into_string().ok()?;
                k.starts_with("RTLT_")
                    .then(|| (k, v.to_string_lossy().into_owned()))
            })
            .collect();
        rtlt_vars.sort();
        Env {
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_owned()),
            nproc,
            threads: nproc,
            rtlt_vars,
        }
    }

    /// The refused switches that are set.
    pub fn refused(&self) -> Vec<&str> {
        self.rtlt_vars
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| REFUSED_ENV.contains(k))
            .collect()
    }

    fn to_json(&self) -> String {
        let vars: Vec<String> = self
            .rtlt_vars
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!(
            "{{\"commit\": {}, \"nproc\": {}, \"threads\": {}, \"rtlt_vars\": {{{}}}}}",
            json_str(&self.commit),
            self.nproc,
            self.threads,
            vars.join(", ")
        )
    }
}

/// Reads the checked-out commit from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit of the measurement (shortest round-trip
/// form); JSON has no NaN, so a non-finite value renders as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The one-line result: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.decl.name),
                json_num(m.value),
                json_str(m.decl.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ops.failed == 0,
        outcome.ops.attempted,
        outcome.ops.failed,
        metrics.join(", ")
    )
}

/// The full record written next to the trace: environment, every metric
/// with direction and sample count, notes and self times.
pub fn result_record(workload: &str, seed: u64, traced: bool, env: &Env, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"samples\": {}}}",
                json_str(m.decl.name),
                json_num(m.value),
                json_str(m.decl.unit),
                json_str(m.decl.better.label()),
                m.samples
            )
        })
        .collect();
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let selfs: Vec<String> = o
        .self_times
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"trace\": {traced},\n  \"env\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"notes\": {{{}}},\n  \"self_time_s\": {{{}}},\n  \
         \"metrics\": {{\n{}\n  }}\n}}\n",
        json_str(workload),
        env.to_json(),
        o.ops.attempted,
        o.ops.failed,
        notes.join(", "),
        selfs.join(", "),
        metrics.join(",\n")
    )
}

/// Human-readable report lines (everything but the result line).
pub fn report_lines(env: &Env, o: &Outcome) -> Vec<String> {
    let mut lines = vec![format!(
        "env commit={} nproc={} threads={} {}",
        env.commit,
        env.nproc,
        env.threads,
        if env.rtlt_vars.is_empty() {
            "RTLT_*=(none)".to_owned()
        } else {
            env.rtlt_vars
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        }
    )];
    for (k, v) in &o.notes {
        lines.push(format!("note {k} {v}"));
    }
    for m in &o.metrics {
        lines.push(format!(
            "metric {:<28} {:>14.6} {:<6} ({} is better, n={})",
            m.decl.name,
            m.value,
            m.decl.unit,
            m.decl.better.label(),
            m.samples
        ));
    }
    for (layer, s) in &o.self_times {
        lines.push(format!("self_time {layer:<12} {s:.6} s"));
    }
    lines.push(format!(
        "checks attempted={} failed={}",
        o.ops.attempted, o.ops.failed
    ));
    for f in o.ops.failures.iter().take(10) {
        lines.push(format!("check FAILED: {f}"));
    }
    lines
}

/// CPU seconds (user and system) of every thread of this process, exited
/// ones included: `CLOCK_PROCESS_CPUTIME_ID`. It leaves out the time the
/// hypervisor of a shared host runs other guests on the vCPUs (steal),
/// which wall time includes.
///
/// # Panics
///
/// The clock cannot be read.
pub fn process_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C `long`s
    // on Linux) for the whole call, and the clock id is the constant Linux
    // defines for process CPU time.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.push("op_cpu_ms", 2.5, 3);
        o.ops.check(true, String::new);
        o.ops.check(false, || "digest".into());
        assert_eq!(
            result_line(&o),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"op_cpu_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
    }
}
