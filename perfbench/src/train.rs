//! `train_predict`: 3-fold cross-validation rounds on the prepared suite
//! with the storeless fit; a traced run adds closed-loop prediction sweeps
//! over the held-out designs.

use crate::report::{Ops, Outcome};
use crate::{
    finish_trace, median, push_op, push_setup, trace, walls, Ctx, Fingerprint, Lap, Stopwatch,
};
use rtl_timer::bitwise::{BitModelKind, BitwiseCorpus, BitwiseModel};
use rtl_timer::metrics::pearson;
use rtl_timer::pipeline::{DesignSet, PredictScratch, Prediction, RtlTimer, TimerConfig};
use rtlt_store::Store;
use std::sync::Arc;
use std::time::Instant;

/// Cross-validation folds.
pub const FOLDS: usize = 3;

/// CV rounds of an untraced run, at least: a round takes 7 to 13 s on two
/// workers, so a run of `--seconds 15` still has a second sample.
pub const MIN_ROUNDS: usize = 2;

/// Prediction sweeps over every held-out design in a traced run, at
/// least: 21 designs × 5 = 105 samples, so p90 has ten above it.
pub const MIN_SWEEPS: usize = 5;

/// A traced run's sweeps run for the rest of `--seconds`, but at least
/// this long (or `--seconds`, if shorter), so the predict layer covers a
/// few seconds of machine time after the two CV rounds.
pub const MIN_SWEEP_S: f64 = 8.0;

/// One fold of one CV round.
struct Fold {
    test: Vec<Arc<str>>,
    model: RtlTimer,
    preds: Vec<Prediction>,
    fit_s: f64,
    fold_s: f64,
}

/// One CV round: every fold fitted and its held-out designs predicted, on
/// `cfg.threads` workers (folds in parallel, as `cross_validate` runs
/// them).
struct Round {
    folds: Vec<Fold>,
    lap: Lap,
}

fn cv_round(set: &DesignSet, cfg: &TimerConfig) -> Round {
    let names = set.folds(FOLDS);
    let t = Stopwatch::start();
    let folds = trace::timed("runtime.cv", || {
        rtlt_runtime::par_map(cfg.threads, &names, |test| {
            let _fold = trace::span("runtime.fold");
            let t = Instant::now();
            let held_out: Vec<&str> = test.iter().map(|s| &**s).collect();
            let (train, test_designs) = set.split(&held_out);
            let model = trace::timed("model.fit", || RtlTimer::fit(&train, cfg));
            let fit_s = t.elapsed().as_secs_f64();
            let mut scratch = PredictScratch::default();
            let preds = test_designs
                .iter()
                .map(|d| trace::timed("model.predict", || model.predict_with(d, &mut scratch)))
                .collect();
            Fold {
                test: test_designs.iter().map(|d| d.name.clone()).collect(),
                model,
                preds,
                fit_s,
                fold_s: t.elapsed().as_secs_f64(),
            }
        })
    });
    Round {
        folds,
        lap: t.lap(),
    }
}

fn same_floats(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two predictions of one design are bit-for-bit identical.
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    a.design == b.design
        && same_floats(&a.bit_pred, &b.bit_pred)
        && a.variant_bit_preds.len() == b.variant_bit_preds.len()
        && a.variant_bit_preds
            .iter()
            .zip(&b.variant_bit_preds)
            .all(|(x, y)| same_floats(x, y))
        && same_floats(&a.signal_pred, &b.signal_pred)
        && same_floats(&a.signal_rank_score, &b.signal_rank_score)
        && same_floats(
            &[a.wns_pred, a.tns_pred, a.wns_direct, a.tns_direct],
            &[b.wns_pred, b.tns_pred, b.wns_direct, b.tns_direct],
        )
}

/// Checks every prediction of `round` against the reference round.
fn check_round(ops: &mut Ops, what: &str, round: &Round, reference: &Round) {
    for (f, r) in round.folds.iter().zip(&reference.folds) {
        for (p, q) in f.preds.iter().zip(&r.preds) {
            ops.check(same_prediction(p, q), || {
                format!("{what}: prediction of {} differs", p.design)
            });
        }
    }
}

/// Accuracy of a CV round: per-design means as in the paper's tables, and
/// the design-level WNS correlation over the 21 held-out designs.
struct Accuracy {
    designs: usize,
    bit_r: f64,
    bit_mape_pct: f64,
    signal_covr_pct: f64,
    wns_r: f64,
}

fn accuracy(round: &Round) -> Accuracy {
    let preds: Vec<&Prediction> = round.folds.iter().flat_map(|f| &f.preds).collect();
    let n = preds.len();
    let mean = |f: &dyn Fn(&Prediction) -> f64| preds.iter().map(|p| f(p)).sum::<f64>() / n as f64;
    let wns_pred: Vec<f64> = preds.iter().map(|p| p.wns_pred).collect();
    let wns_label: Vec<f64> = preds.iter().map(|p| p.wns_label).collect();
    Accuracy {
        designs: n,
        bit_r: mean(&|p| p.bit_r()),
        bit_mape_pct: mean(&|p| p.bit_mape()),
        signal_covr_pct: mean(&|p| p.signal_covr_ranking()),
        wns_r: pearson(&wns_pred, &wns_label),
    }
}

/// The `train_predict` workload.
///
/// # Errors
///
/// A design of the suite that fails to prepare.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = ctx.cfg();
    let mut out = Outcome::default();
    let mut fingerprints = Vec::new();
    let (set, setup_times) = ctx.setup(
        || {
            DesignSet::prepare_named_with(&ctx.size.suite(), &cfg, &Store::disabled())
                .map_err(|e| format!("prepare failed: {e}"))
        },
        |set| fingerprints.push(Fingerprint::of(set)),
    )?;
    let reference = Fingerprint::of(&set);
    for f in &fingerprints {
        Fingerprint::check(&mut out.ops, "repeated suite setup", f, &reference);
    }
    out.note("suite_digest", set.content_digest().to_hex());

    // CV rounds, each checked against the first. An untraced run makes as
    // many as fit in the time, and at least `MIN_ROUNDS`.
    let start = Instant::now();
    let reference = cv_round(&set, &cfg);
    let mut laps: [Vec<Lap>; 2] = [vec![reference.lap], Vec::new()];
    if !ctx.trace {
        let mut last = reference.lap.wall;
        while ctx.more(start, laps[0].len(), MIN_ROUNDS, last) {
            let round = cv_round(&set, &cfg);
            check_round(&mut out.ops, "repeated CV round", &round, &reference);
            laps[0].push(round.lap);
            last = round.lap.wall;
        }
        push_setup(&mut out, &setup_times);
        push_op(&mut out, &laps[0]);
        let acc = accuracy(&reference);
        out.note("bit_r", acc.bit_r.to_string());
        out.note("signal_covr_pct", acc.signal_covr_pct.to_string());
        out.note("bit_mape_pct", acc.bit_mape_pct.to_string());
        out.note("wns_r", acc.wns_r.to_string());
        return Ok(out);
    }

    // A traced run: one traced round, whose predictions must agree with
    // the untraced one's, then closed-loop prediction sweeps (one caller,
    // every held-out design with its fold's model, each prediction checked
    // against the CV one) for the predict layer.
    trace::set_enabled(true);
    let round = cv_round(&set, &cfg);
    check_round(&mut out.ops, "traced vs untraced CV", &round, &reference);
    laps[1].push(round.lap);
    let mut predict_ms = Vec::new();
    let mut bitwise_ms = Vec::new();
    let mut scratch = PredictScratch::default();
    let mut sweeps = 0;
    let window = (ctx.seconds - start.elapsed().as_secs_f64()).max(MIN_SWEEP_S.min(ctx.seconds));
    let sweep_start = Instant::now();
    let mut last = 0.0;
    while sweeps < MIN_SWEEPS || sweep_start.elapsed().as_secs_f64() + last / 2.0 < window {
        let sweep_t = Instant::now();
        for fold in &reference.folds {
            for (name, first) in fold.test.iter().zip(&fold.preds) {
                let d = set.get(name).expect("held-out design is in the set");
                let t = Instant::now();
                let p = trace::timed("model.predict", || fold.model.predict_with(d, &mut scratch));
                predict_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.ops.check(same_prediction(&p, first), || {
                    format!("prediction sweep {sweeps}: {name} differs from its CV prediction")
                });
                let t = Instant::now();
                let bits = trace::timed("model.predict_bitwise", || {
                    fold.model.variant_bit_predictions(d)
                });
                bitwise_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.ops.check(
                    bits.iter()
                        .zip(&first.variant_bit_preds)
                        .all(|(a, b)| same_floats(a, b)),
                    || format!("bit-wise predictions of {name} differ"),
                );
            }
        }
        sweeps += 1;
        last = sweep_t.elapsed().as_secs_f64();
    }
    trace::set_enabled(false);

    // The bit-wise stage of each fold's fit on its own: the four
    // per-representation models `RtlTimer::fit` starts with.
    trace::set_enabled(true);
    let names = set.folds(FOLDS);
    rtlt_runtime::par_map(cfg.threads, &names, |test| {
        let held_out: Vec<&str> = test.iter().map(|s| &**s).collect();
        let (train, _) = set.split(&held_out);
        for v in 0..4 {
            let corpus = BitwiseCorpus {
                designs: train
                    .iter()
                    .map(|d| (&d.variant_data[v], &d.labels_at[..]))
                    .collect(),
            };
            trace::timed("model.bitwise_fit", || {
                std::hint::black_box(BitwiseModel::fit(
                    BitModelKind::TreeMax,
                    &corpus,
                    cfg.seed ^ v as u64,
                ))
            });
        }
    });
    trace::set_enabled(false);
    let spans = trace::take();
    let fit_s: f64 = round.folds.iter().map(|f| f.fit_s).sum();
    let fold_s: f64 = round.folds.iter().map(|f| f.fold_s).sum();
    out.push("model.fit_s", fit_s, round.folds.len());
    let bw = trace::durations(&spans, "model.bitwise_fit");
    out.push("model.bitwise_fit_s", bw.iter().sum(), bw.len());
    let (p, b) = (median(&predict_ms), median(&bitwise_ms));
    out.push("model.predict_ms", p, predict_ms.len());
    out.push("model.predict_bitwise_ms", b, bitwise_ms.len());
    out.push("model.predict_rest_ms", p - b, predict_ms.len());
    let acc = accuracy(&round);
    out.push("model.bit_r", acc.bit_r, acc.designs);
    out.push("model.signal_covr_pct", acc.signal_covr_pct, acc.designs);
    out.push("model.bit_mape_pct", acc.bit_mape_pct, acc.designs);
    out.push("model.wns_r", acc.wns_r, acc.designs);
    out.push(
        "runtime.fold_busy_share",
        fold_s / (cfg.threads as f64 * round.lap.wall),
        1,
    );
    finish_trace(ctx, &mut out, &walls(&laps[1]), &walls(&laps[0]), &spans)?;
    Ok(out)
}
