//! Per-layer timings for `--trace 1`.
//!
//! Every number here is taken from outside the program: by timing calls
//! into one crate's public functions on the workload's own inputs, or by
//! copying a span self-time the program's run-report already records
//! (`DBG4ETH_METRICS`'s registry, switched on for traced runs only). The
//! benchmark adds no span or counter to the program.

use crate::common::{ms, pinned, THREADS};
use crate::Report;
use boost::{Gbdt, GbdtConfig};
use calib::{AdaptiveCalibrator, ConfidenceScaler};
use dbg4eth::{BranchScorer, Dbg4EthConfig, Session};
use eth_graph::Subgraph;
use gnn::GraphTensors;
use serve::{Request, ScoreRequest};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in the order printed.
pub const METRICS: [(&str, &str); 37] = [
    ("eth-sim.generate_ms", "ms"),
    ("eth-graph.apply_ms", "ms"),
    ("eth-graph.apply_txs", "count"),
    ("eth-graph.delta_accounts", "count"),
    ("eth-graph.rescored", "count"),
    ("eth-graph.sample_ms", "ms"),
    ("eth-graph.sample_nodes", "count"),
    ("core.train_gsg_ms", "ms"),
    ("core.train_ldg_ms", "ms"),
    ("core.score_ms", "ms"),
    ("core.batch_score_ms", "ms"),
    ("tensor.gsg_forward_ms", "ms"),
    ("tensor.gsg_backward_ms", "ms"),
    ("tensor.ldg_forward_ms", "ms"),
    ("tensor.ldg_backward_ms", "ms"),
    ("gnn.lower_ms", "ms"),
    ("gnn.gsg_score_ms", "ms"),
    ("gnn.ldg_score_ms", "ms"),
    ("calib.fit_ms", "ms"),
    ("calib.apply_us", "us"),
    ("boost.fit_ms", "ms"),
    ("boost.predict_us", "us"),
    ("model-io.save_ms", "ms"),
    ("model-io.open_ms", "ms"),
    ("model-io.bytes", "bytes"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.request_bytes", "bytes"),
    ("serve.fingerprint_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.shed", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("share.setup_pct", "%"),
    ("share.train_pct", "%"),
    ("share.score_pct", "%"),
    ("share.latency_pct", "%"),
];

/// The traced run's per-layer values, filled in by the workload.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|(n, _)| *n == name), "unlisted layer metric {name}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Move every layer metric into the report, in [`METRICS`] order. Each
    /// workload measures only the layers mapped to it (see README.md); a
    /// layer it does not measure reads 0.
    pub fn report(&self, report: &mut Report) {
        for (name, unit) in METRICS {
            report.metric(name, self.get(name), unit);
        }
    }

    /// Copy the run-report times of the training tape's forward and
    /// backward spans, per training (`trainings` `Session::train` calls
    /// were recorded since the registry was last reset). The inclusive time
    /// is taken: each forward span's self-time excludes its nested
    /// `encode.batch` span, which is where the packed forward runs.
    pub fn copy_tape_times(&mut self, trainings: usize) {
        let spans = obs::snapshot().spans;
        let per = |span: &str| {
            spans.get(span).map_or(0.0, |s| s.total_ns as f64 / 1e6) / trainings.max(1) as f64
        };
        self.set("tensor.gsg_forward_ms", per("train.gsg.forward"));
        self.set("tensor.gsg_backward_ms", per("train.gsg.backward"));
        self.set("tensor.ldg_forward_ms", per("train.ldg.forward"));
        self.set("tensor.ldg_backward_ms", per("train.ldg.backward"));
    }

    /// Busy time of the tape per training, summed over both branches.
    pub fn tape_ms(&self) -> f64 {
        const TAPE: [&str; 4] = [
            "tensor.gsg_forward_ms",
            "tensor.gsg_backward_ms",
            "tensor.ldg_forward_ms",
            "tensor.ldg_backward_ms",
        ];
        TAPE.iter().map(|n| self.get(n)).sum()
    }

    pub fn model_io(&mut self, save: Duration, open: Duration, bytes: u64) {
        self.set("model-io.save_ms", ms(save));
        self.set("model-io.open_ms", ms(open));
        self.set("model-io.bytes", bytes as f64);
    }

    /// Per-account costs of the scoring path's stages, timed from outside
    /// on `accounts` against the loaded model: lowering, each encoder's raw
    /// score, scaling plus calibration, the GBDT stacker, and the whole
    /// singleton `Session::score_with` (pinned, one thread) they add up to.
    pub fn probe_scoring(&mut self, session: &Session, accounts: &[Subgraph]) {
        let model = session.model();
        let t_slices = model.config.t_slices;
        let [mut lower, mut gsg, mut ldg, mut cal, mut predict, mut score] = [Duration::ZERO; 6];
        for g in accounts {
            let t = Instant::now();
            let tensors = GraphTensors::from_subgraph(g, t_slices);
            lower += t.elapsed();
            let mut row = Vec::with_capacity(2);
            if let Some(b) = &model.gsg {
                let t = Instant::now();
                let raw = std::hint::black_box(b.scorer.raw_score(&tensors));
                gsg += t.elapsed();
                row.push((raw, b.scaler, b.calibrator.as_ref()));
            }
            if let Some(b) = &model.ldg {
                let t = Instant::now();
                let raw = std::hint::black_box(b.scorer.raw_score(&tensors));
                ldg += t.elapsed();
                row.push((raw, b.scaler, b.calibrator.as_ref()));
            }
            let t = Instant::now();
            let confs: Vec<f64> = row
                .iter()
                .map(|(raw, scaler, cal)| {
                    let p = scaler.map_or(0.5, |s| s.scale(*raw));
                    cal.map_or(p, |c| c.calibrate(p))
                })
                .collect();
            cal += t.elapsed();
            let t = Instant::now();
            std::hint::black_box(model.classifier.predict_proba(&confs));
            predict += t.elapsed();

            let t = Instant::now();
            let _ = std::hint::black_box(session.score_with(std::slice::from_ref(g), &pinned(1)));
            score += t.elapsed();
        }
        let n = accounts.len().max(1) as f64;
        let per_ms = |d: Duration| ms(d) / n;
        self.set("gnn.lower_ms", per_ms(lower));
        self.set("gnn.gsg_score_ms", per_ms(gsg));
        self.set("gnn.ldg_score_ms", per_ms(ldg));
        self.set("calib.apply_us", per_ms(cal) * 1e3);
        self.set("boost.predict_us", per_ms(predict) * 1e3);
        self.set("core.score_ms", per_ms(score));
        let stages = per_ms(lower + gsg + ldg + cal + predict);
        self.set("share.score_pct", 100.0 * stages / self.get("core.score_ms"));
    }

    /// Lowering alone (`GraphTensors::from_subgraph`), mean per account.
    pub fn probe_lowering(&mut self, t_slices: usize, accounts: &[Subgraph]) {
        let t = Instant::now();
        for g in accounts {
            std::hint::black_box(GraphTensors::from_subgraph(g, t_slices));
        }
        self.set("gnn.lower_ms", ms(t.elapsed()) / accounts.len().max(1) as f64);
    }

    /// The wire codec and cache fingerprint of one-account requests, timed
    /// from outside, mean per request.
    pub fn probe_wire(&mut self, accounts: &[Subgraph]) {
        let [mut encode, mut decode, mut fp] = [Duration::ZERO; 3];
        let mut bytes = 0usize;
        for g in accounts {
            let request =
                Request::Score(ScoreRequest { id: 1, deadline_ms: 0, accounts: vec![g.clone()] });
            let t = Instant::now();
            let payload = std::hint::black_box(request.to_payload());
            encode += t.elapsed();
            bytes += payload.len();
            let t = Instant::now();
            let _ = std::hint::black_box(Request::from_payload(&payload));
            decode += t.elapsed();
            let mut w = model_io::SectionWriter::new();
            serve::proto::encode_subgraph(&mut w, g);
            let key = w.into_bytes();
            let t = Instant::now();
            std::hint::black_box(serve::fingerprint(&key));
            fp += t.elapsed();
        }
        let n = accounts.len().max(1) as f64;
        self.set("serve.encode_us", ms(encode) * 1e3 / n);
        self.set("serve.decode_us", ms(decode) * 1e3 / n);
        self.set("serve.fingerprint_us", ms(fp) * 1e3 / n);
        self.set("serve.request_bytes", bytes as f64 / n);
    }

    /// The training stages, timed from outside on the workload's training
    /// split: each encoder trained once on the fit graphs, then the six
    /// calibrators and the GBDT stacker fitted on that split's scaled
    /// branch scores.
    pub fn probe_training(&mut self, config: &Dbg4EthConfig, session: &Session, fit: &[Subgraph]) {
        let tensors: Vec<GraphTensors> =
            fit.iter().map(|g| GraphTensors::from_subgraph(g, config.t_slices)).collect();
        let refs: Vec<&GraphTensors> = tensors.iter().collect();
        let t = Instant::now();
        std::hint::black_box(dbg4eth::train_gsg(&refs, config));
        self.set("core.train_gsg_ms", ms(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(dbg4eth::train_ldg(&refs, config));
        self.set("core.train_ldg_ms", ms(t.elapsed()));

        let model = session.model();
        let labels: Vec<bool> = fit.iter().map(|g| g.label == Some(eth_sim::POSITIVE)).collect();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        let mut fit_time = Duration::ZERO;
        let mut fit_branch = |raw: Vec<f64>| {
            let scaled = ConfidenceScaler::fit(&raw).scale_all(&raw);
            let t = Instant::now();
            let cal = AdaptiveCalibrator::fit(
                &scaled,
                &labels,
                config.calibration.subset,
                config.calibration.adaptive,
            );
            fit_time += t.elapsed();
            columns.push(cal.calibrate_all(&scaled));
        };
        if let Some(b) = &model.gsg {
            fit_branch(b.scorer.raw_scores_par(&refs, THREADS));
        }
        if let Some(b) = &model.ldg {
            fit_branch(b.scorer.raw_scores_par(&refs, THREADS));
        }
        self.set("calib.fit_ms", ms(fit_time));
        let rows: Vec<Vec<f64>> =
            (0..fit.len()).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
        let t = Instant::now();
        std::hint::black_box(Gbdt::fit(
            &rows,
            &labels,
            GbdtConfig { parallelism: config.threads(), ..GbdtConfig::lightgbm() },
        ));
        self.set("boost.fit_ms", ms(t.elapsed()));
    }

    pub fn ingest(&mut self, tally: &IngestTally) {
        self.set("eth-graph.apply_ms", ms(tally.apply));
        self.set("eth-graph.apply_txs", tally.txs as f64);
        self.set("eth-graph.delta_accounts", tally.delta_accounts as f64);
        self.set("eth-graph.rescored", tally.resampled as f64);
        self.set("eth-graph.sample_ms", ms(tally.sample));
        self.set("eth-graph.sample_nodes", tally.sample_nodes as f64);
        if tally.score_calls > 0 {
            self.set("core.batch_score_ms", ms(tally.score) / tally.score_calls as f64);
        }
    }

    /// Mean of the program's own `serve.queue_wait` span since the
    /// registry was last reset.
    pub fn queue_wait(&mut self) {
        let wait = obs::snapshot()
            .spans
            .get("serve.queue_wait")
            .map_or(0.0, |s| s.total_ns as f64 / 1e6 / s.count.max(1) as f64);
        self.set("serve.queue_wait_ms", wait);
    }
}

/// Work and time of a sequence of ingest batches.
#[derive(Default)]
pub struct IngestTally {
    pub apply: Duration,
    pub sample: Duration,
    pub score: Duration,
    pub score_calls: usize,
    pub txs: usize,
    pub delta_accounts: usize,
    /// Centres re-sampled (and re-scored, where the workload re-scores).
    pub resampled: usize,
    pub sample_nodes: usize,
}
