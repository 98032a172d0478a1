//! Command line of the repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_prepare|warm_prepare|train_predict|live_edit|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report (environment, notes, every metric with unit, direction
//! and sample count) and, as its last line, the one-line JSON result. Files
//! go under `.perfbench/` in the working directory: per-run caches in a
//! temporary directory removed at exit, the full result record under
//! `results/`, and a traced run's spans under `traces/`.

use rtlt_perfbench::report::{self, Env};
use rtlt_perfbench::{Ctx, Size, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: rtlt-perfbench --workload <cold_prepare|warm_prepare|train_predict|live_edit|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Output directory, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = Env::capture(Path::new("."));
    let refused = env.refused();
    if !refused.is_empty() {
        eprintln!(
            "refusing to run: {} set; these switches change the measured path inside the timed calls",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&argv);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let out = PathBuf::from(OUT_DIR);
    let tag = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        threads: env.threads,
        tmp: out.join(format!("tmp-{}", std::process::id())),
        trace_file: out.join("traces").join(format!("{tag}.json")),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = rtlt_perfbench::run(workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for line in report::report_lines(&env, &outcome) {
        println!("{line}");
    }
    let record = out.join("results").join(format!("{tag}.json"));
    let written = std::fs::create_dir_all(record.parent().expect("results dir")).and_then(|()| {
        std::fs::write(
            &record,
            report::result_record(workload.name(), args.seed, args.trace, &env, &outcome),
        )
    });
    if let Err(e) = written {
        eprintln!("{}: {e}", record.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}

/// `--workload all`: every workload in a process of its own (peak memory
/// and the library's process-wide counters stay per workload), one after
/// the other. Prints each report and a summary line.
fn run_all(argv: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args = argv.to_vec();
        let pos = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed --workload");
        child_args[pos + 1] = w.name().to_owned();
        // `output` waits for the child to exit.
        let out = match Command::new(&exe).args(&child_args).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        match (
            out.status.success(),
            count(last, "attempted"),
            count(last, "failed"),
        ) {
            (true, Some(a), Some(f)) => {
                attempted += a;
                failed += f;
            }
            _ => {
                eprintln!("{} did not produce a result", w.name());
                ok = false;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}",
        ok && failed == 0
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads `"key": <integer>` from a result line.
fn count(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}
