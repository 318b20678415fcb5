//! `train-exchange`: the paper's per-label training cost. The timed phase
//! trains the exchange detector with `Session::train` a fixed number of
//! times, each training followed by the first use of its fresh model: a
//! fixed number of rounds over the test split, one account per call.

use crate::common::{
    deploy, exchange_world, median, ms, oracle_bits, peak_rss_mb, permutation, pinned, secs, tail,
    train_config, Scratch, TRAIN_FRAC,
};
use crate::layers::Layers;
use crate::{Args, Report};
use dbg4eth::Session;
use eth_graph::Subgraph;
use eth_sim::POSITIVE;
use std::time::Instant;

/// World generations per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `Session::train` calls per run; `train_s` is their median, and every
/// one must reproduce the first one's test scores.
const TRAININGS: usize = 2;
/// Passes over the test split after each training, each in its own seeded
/// order. Splitting the scoring between the trainings spreads its samples
/// over most of the run, so a slow stretch of the machine weighs less.
const ROUNDS: usize = 15;

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let mut report = Report::default();
    let mut layers = Layers::default();
    let cfg = train_config();

    // The measured set-up; the extra ones for the setup_s median run after
    // the checks, so they neither disturb the timed phase nor raise its
    // peak RSS.
    let t = Instant::now();
    let (_, dataset, generate) = exchange_world();
    let mut setups = vec![secs(t.elapsed())];
    let mut generate_ms = vec![ms(generate)];
    let (fit_idx, test_idx) = dataset.split(TRAIN_FRAC, cfg.seed);
    let test: Vec<Subgraph> = test_idx.iter().map(|&i| dataset.graphs[i].clone()).collect();

    // Timed phase: a fixed number of whole trainings, each followed by its
    // model's first use: the test split scored one account per call (pinned
    // scaling, one thread), as a server would score it.
    if args.trace {
        obs::set_metrics_enabled(true);
        obs::reset();
    }
    let mut train_s = Vec::with_capacity(TRAININGS);
    let mut first: Option<Vec<f64>> = None;
    let mut last = None;
    let mut latencies = Vec::with_capacity(TRAININGS * ROUNDS * test.len());
    let mut served: Vec<Option<u64>> = vec![None; test.len()];
    let mut txs = 0usize;
    let mut scoring_s = 0.0;
    for training in 0..TRAININGS {
        let t = Instant::now();
        let (session, run) =
            Session::train(&dataset, TRAIN_FRAC, &cfg).map_err(|e| format!("training: {e}"))?;
        train_s.push(secs(t.elapsed()));
        match &first {
            None => first = Some(run.test_scores),
            Some(scores) => report.check(bits(scores) == bits(&run.test_scores), || {
                "retraining on the same inputs changed the test scores".into()
            }),
        }

        let t = Instant::now();
        for k in 0..ROUNDS {
            let round = (training * ROUNDS + k) as u64;
            for i in permutation(test.len(), args.seed.wrapping_add(round)) {
                let t = Instant::now();
                let result = session.score_with(std::slice::from_ref(&test[i]), &pinned(1));
                latencies.push(ms(t.elapsed()));
                report.attempted += 1;
                match result.map(|r| r.scores[0].as_ref().map(|s| s.score.to_bits()).ok()) {
                    Ok(Some(b)) => {
                        txs += test[i].txs.len();
                        report.check(served[i].map_or(true, |prev| prev == b), || {
                            format!("test account {i} scored differently in round {round}")
                        });
                        served[i] = Some(b);
                    }
                    _ => report.failed += 1,
                }
            }
        }
        scoring_s += secs(t.elapsed());
        last = Some(session);
    }
    if args.trace {
        layers.copy_tape_times(TRAININGS);
        obs::set_metrics_enabled(false);
    }
    let (session, test_scores) = (last.expect("one training"), first.expect("one training"));
    let peak_rss = peak_rss_mb();

    // Checks: the model-io round trip reproduces the run's test scores and
    // the singleton scores served above; scores are probabilities; on the
    // test split, both the pipeline's test scores and the served singleton
    // scores beat predicting every account positive.
    let deployed = deploy(&session, &scratch, "train.dbgm")?;
    let reopened = deployed.session.score(&test);
    let reopened_bits: Vec<u64> = reopened
        .scores
        .iter()
        .map(|r| r.as_ref().map_or(u64::MAX, |s| s.score.to_bits()))
        .collect();
    report.check(reopened_bits == bits(&test_scores), || {
        "save -> open_mmap -> score does not reproduce the test scores".into()
    });
    match oracle_bits(&deployed.session, &test) {
        Ok(oracle) => {
            let same = oracle.iter().zip(&served).all(|(b, s)| *s == Some(*b));
            report.check(same, || {
                "reopened model's singleton scores differ from the trained session's".into()
            });
        }
        Err(e) => report.check(false, || e),
    }
    let labels: Vec<bool> = test.iter().map(|g| g.label == Some(POSITIVE)).collect();
    let served_scores: Vec<f64> = served.iter().flatten().map(|b| f64::from_bits(*b)).collect();
    report.check(served_scores.len() == test.len(), || "a test account was never scored".into());
    report.check(
        test_scores.iter().chain(&served_scores).all(|p| p.is_finite() && (0.0..=1.0).contains(p)),
        || "a score is not a probability".into(),
    );
    let baseline = f1(&vec![1.0; labels.len()], &labels);
    let (test_f1, served_f1) = (f1(&test_scores, &labels), f1(&served_scores, &labels));
    report.check(test_f1 > baseline, || {
        format!("test-split F1 {test_f1:.3} does not beat all-positive {baseline:.3}")
    });
    report.check(served_f1 > baseline, || {
        format!("served singleton F1 {served_f1:.3} does not beat all-positive {baseline:.3}")
    });

    for _ in 1..SETUPS {
        let t = Instant::now();
        let (_, _, generate) = std::hint::black_box(exchange_world());
        setups.push(secs(t.elapsed()));
        generate_ms.push(ms(generate));
    }

    let (pct, tail_ms) = tail(&latencies);
    eprintln!(
        "train-exchange: {TRAININGS} trainings, {} test-account scorings (tail is p{pct}); test \
         split F1 {test_f1:.3}, served singleton F1 {served_f1:.3}, all-positive {baseline:.3}",
        latencies.len()
    );
    if args.trace {
        layers.set("eth-sim.generate_ms", median(&generate_ms));
        let fit: Vec<Subgraph> = fit_idx.iter().map(|&i| dataset.graphs[i].clone()).collect();
        layers.probe_training(&cfg, &session, &fit);
        layers.set("share.setup_pct", 100.0 * median(&generate_ms) / (median(&setups) * 1e3));
        layers.set("share.train_pct", 100.0 * layers.tape_ms() / (median(&train_s) * 1e3));
        layers.report(&mut report);
        eprintln!(
            "train-exchange traced end-to-end: setup_s {:.4} train_s {:.4} latency_p50_ms {:.4}",
            median(&setups),
            median(&train_s),
            median(&latencies)
        );
    } else {
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_mb", peak_rss, "MiB");
        report.metric("train_s", median(&train_s), "s");
        report.metric("scores_per_s", latencies.len() as f64 / scoring_s, "1/s");
        report.metric("ingest_txs_per_s", txs as f64 / scoring_s, "1/s");
        report.metric("latency_p50_ms", median(&latencies), "ms");
        report.metric("latency_tail_ms", tail_ms, "ms");
    }
    Ok(report)
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|p| p.to_bits()).collect()
}

/// F1 of the positive class at threshold 0.5.
fn f1(scores: &[f64], labels: &[bool]) -> f64 {
    let (mut tp, mut fp, mut fneg) = (0.0, 0.0, 0.0);
    for (&p, &y) in scores.iter().zip(labels) {
        match (p >= 0.5, y) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, true) => fneg += 1.0,
            (false, false) => {}
        }
    }
    if tp == 0.0 {
        0.0
    } else {
        2.0 * tp / (2.0 * tp + fp + fneg)
    }
}
