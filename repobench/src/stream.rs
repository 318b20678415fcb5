//! `stream-ingest`: a drifting transaction stream applied batch by batch
//! through `GraphStore::apply`, with the watched centres each `IngestDelta`
//! names re-sampled and re-scored in one multi-account call per batch.

use crate::common::{
    deploy, mean, median, ms, peak_rss_mb, pinned, sampler, secs, stream_config, tail, Scratch,
    DATA_SEED, THREADS, TRAIN_FRAC,
};
use crate::layers::{IngestTally, Layers};
use crate::{Args, Report};
use dbg4eth::{ScoreError, Session};
use eth_graph::{sample_subgraph, GraphStore, StoreConfig, Subgraph, TxGraph, TxRecord};
use eth_sim::{AccountClass, GraphDataset, StreamScenario, WorldConfig, NEGATIVE, POSITIVE};
use std::time::Instant;

/// Background accounts of the stream world.
const BACKGROUND: usize = 500_000;
/// Noise transactions each background account initiates, on average.
const ACTIVITY: f64 = 4.0;
/// Labelled exchange centres (and as many `Normal` ones); the model trains
/// on all of them.
const N_POS: usize = 24;
/// Centres per class on the watch-list the timed phase keeps scored.
const WATCH_PER_CLASS: usize = 4;
/// Behavioural drift of the labelled centres over their lifetimes.
const DRIFT: f64 = 0.5;
/// Share of the (time-sorted) stream applied in set-up, before training.
const PREFIX: f64 = 0.25;
/// Transactions per timed ingest batch.
const BATCH_TXS: usize = 3000;
/// Batches applied in the timed phase: the same stretch of the stream on
/// every run, so every commit is timed on the same work (later batches meet
/// a larger graph and cost more).
const BATCHES: usize = 288;
/// The timed phase stops early, as a safety cap only, after this many
/// times `--seconds`.
const CAP: f64 = 5.0;
/// Set-ups per run; `setup_s` and `train_s` are their medians. The stream
/// model trains in about a second, so three set-ups left `train_s` spread
/// by a quarter over ten runs.
const SETUPS: usize = 5;

/// Labelled centres, sorted by account id.
struct Centres {
    ids: Vec<usize>,
    labels: Vec<Option<usize>>,
}

impl Centres {
    fn new(pairs: impl IntoIterator<Item = (usize, Option<usize>)>) -> Self {
        let mut pairs: Vec<(usize, Option<usize>)> = pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        pairs.dedup_by_key(|&mut (id, _)| id);
        let (ids, labels) = pairs.into_iter().unzip();
        Self { ids, labels }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn sample(&self, store: &GraphStore, i: usize) -> Subgraph {
        store.sample(self.ids[i], sampler(), self.labels[i])
    }
}

/// What one ingest batch did: the centres it re-scored (indices into
/// [`Centres`]) with their new score bits, and whether every record was
/// applied and every re-score succeeded.
struct Batch {
    touched: Vec<usize>,
    bits: Vec<Option<u64>>,
    clean: bool,
}

/// Apply one batch, then re-sample exactly the centres its delta names and
/// re-score them in one multi-account call.
fn ingest_batch(
    store: &mut GraphStore,
    batch: &[TxRecord],
    centres: &Centres,
    session: &Session,
    tally: &mut IngestTally,
) -> Batch {
    let t = Instant::now();
    let delta = store.apply(batch);
    tally.apply += t.elapsed();
    tally.txs += delta.applied;
    tally.delta_accounts += delta.accounts.len();
    let submitted = batch.iter().filter(|t| t.submitted).count();
    let mut clean = delta.applied == submitted;

    let touched: Vec<usize> = (0..centres.len())
        .filter(|&i| delta.accounts.binary_search(&centres.ids[i]).is_ok())
        .collect();
    let t = Instant::now();
    let graphs: Vec<Subgraph> = touched.iter().map(|&i| centres.sample(store, i)).collect();
    tally.sample += t.elapsed();
    tally.sample_nodes += graphs.iter().map(|g| g.nodes.len()).sum::<usize>();
    tally.resampled += graphs.len();
    let mut bits = Vec::with_capacity(graphs.len());
    if !graphs.is_empty() {
        let t = Instant::now();
        match session.score_with(&graphs, &pinned(THREADS)) {
            Ok(report) => {
                bits = report
                    .scores
                    .iter()
                    .map(|r| r.as_ref().ok().map(|s| s.score.to_bits()))
                    .collect();
            }
            Err(_) => bits = vec![None; graphs.len()],
        }
        tally.score += t.elapsed();
        tally.score_calls += 1;
    }
    clean &= bits.iter().all(Option::is_some);
    Batch { touched, bits, clean }
}

struct SetUp {
    scenario: StreamScenario,
    store: GraphStore,
    centres: Centres,
    trained: Session,
    served: crate::common::Deployed,
    table: Vec<Option<u64>>,
    prefix_end: usize,
    generate_ms: f64,
    /// Applying the prefix in one batch, and the first scoring of every
    /// centre.
    prefix_ms: f64,
    initial_ms: f64,
    train_s: f64,
}

fn set_up(scratch: &Scratch) -> Result<SetUp, String> {
    let t = Instant::now();
    let config = WorldConfig {
        n_background: BACKGROUND,
        background_activity: ACTIVITY,
        drift: DRIFT,
        seed: DATA_SEED,
        ..WorldConfig::default()
    };
    let scenario = StreamScenario::from_config(config, AccountClass::Exchange, N_POS);
    let generate_ms = ms(t.elapsed());

    let mut store_config = StoreConfig::default();
    store_config.hops = store_config.hops.max(sampler().hops);
    store_config.epoch_start = scenario.t_start;
    let mut store = GraphStore::new(scenario.kinds.clone(), store_config);
    let prefix_end = (scenario.txs.len() as f64 * PREFIX) as usize;
    let t = Instant::now();
    store.apply(&scenario.txs[..prefix_end]);
    let prefix_ms = ms(t.elapsed());

    let label = |p: bool| Some(if p { POSITIVE } else { NEGATIVE });
    let labelled = Centres::new(scenario.centers.iter().map(|&(id, p)| (id, label(p))));
    let graphs: Vec<Subgraph> = (0..labelled.len()).map(|i| labelled.sample(&store, i)).collect();
    let dataset = GraphDataset { class: AccountClass::Exchange, graphs };
    // The watch-list: the lowest-id centres of each class.
    let centres = Centres::new([true, false].into_iter().flat_map(|positive| {
        let mut ids: Vec<usize> =
            scenario.centers.iter().filter(|&&(_, p)| p == positive).map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.into_iter().take(WATCH_PER_CLASS).map(move |id| (id, label(positive)))
    }));
    let watched: Vec<Subgraph> = (0..centres.len()).map(|i| centres.sample(&store, i)).collect();
    let cfg = stream_config();
    let t = Instant::now();
    let (trained, _) =
        Session::train(&dataset, TRAIN_FRAC, &cfg).map_err(|e| format!("training: {e}"))?;
    let train_s = secs(t.elapsed());
    let served = deploy(&trained, scratch, "stream.dbgm")?;
    let t = Instant::now();
    let table = served
        .session
        .score_with(&watched, &pinned(THREADS))
        .map_err(|e| format!("initial scoring: {e}"))?
        .scores
        .iter()
        .map(|r| r.as_ref().ok().map(|s| s.score.to_bits()))
        .collect();
    let initial_ms = ms(t.elapsed());
    Ok(SetUp {
        scenario,
        store,
        centres,
        trained,
        served,
        table,
        prefix_end,
        generate_ms,
        prefix_ms,
        initial_ms,
        train_s,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let mut report = Report::default();
    let mut layers = Layers::default();

    // The measured set-up; the extra ones for the setup_s median run after
    // the checks, so they neither disturb the timed phase nor raise its
    // peak RSS.
    let t = Instant::now();
    let mut s = set_up(&scratch)?;
    let mut setups = vec![secs(t.elapsed())];
    let mut train_s = vec![s.train_s];

    // Timed phase: a fixed number of batches right after the prefix.
    let mut tally = IngestTally::default();
    let mut latencies = Vec::with_capacity(BATCHES);
    let mut next = s.prefix_end;
    let start = Instant::now();
    for _ in 0..BATCHES {
        if next >= s.scenario.txs.len() || secs(start.elapsed()) > CAP * args.seconds {
            break;
        }
        let end = (next + BATCH_TXS).min(s.scenario.txs.len());
        let t = Instant::now();
        let batch = ingest_batch(
            &mut s.store,
            &s.scenario.txs[next..end],
            &s.centres,
            &s.served.session,
            &mut tally,
        );
        for (&i, &b) in batch.touched.iter().zip(&batch.bits) {
            s.table[i] = b;
        }
        latencies.push(ms(t.elapsed()));
        report.attempted += 1;
        report.failed += u64::from(!batch.clean);
        next = end;
    }
    let elapsed = secs(start.elapsed());
    let peak_rss = peak_rss_mb();

    check(&mut report, &s, next);

    let (pct, tail_ms) = tail(&latencies);
    eprintln!(
        "stream-ingest: {} txs in the stream, {} batches of {BATCH_TXS} ({} txs applied; apply \
         {:.0} ms, sample {:.0} ms, re-score {:.0} ms of {:.0} ms; the deltas named {} accounts, \
         {} of them re-scores of the {} watched centres), latency tail is p{pct}",
        s.scenario.txs.len(),
        latencies.len(),
        tally.txs,
        ms(tally.apply),
        ms(tally.sample),
        ms(tally.score),
        elapsed * 1e3,
        tally.delta_accounts,
        tally.resampled,
        s.centres.len(),
    );
    // Set-up stages other than training, for the traced set-up share.
    let setup_stages_ms =
        s.generate_ms + s.prefix_ms + ms(s.served.save) + ms(s.served.open) + s.initial_ms;
    if args.trace {
        layers.set("eth-sim.generate_ms", s.generate_ms);
        let graphs: Vec<Subgraph> =
            (0..s.centres.len()).map(|i| s.centres.sample(&s.store, i)).collect();
        layers.probe_lowering(s.trained.model().config.t_slices, &graphs);
        layers.ingest(&tally);
    }
    drop(s); // release the stream world before building the next

    for _ in 1..SETUPS {
        let t = Instant::now();
        let extra = set_up(&scratch)?;
        setups.push(secs(t.elapsed()));
        train_s.push(extra.train_s);
    }

    if args.trace {
        let train_ms = median(&train_s) * 1e3;
        layers
            .set("share.setup_pct", 100.0 * (setup_stages_ms + train_ms) / (median(&setups) * 1e3));
        let n = latencies.len().max(1) as f64;
        let per_batch = (ms(tally.apply) + ms(tally.sample) + ms(tally.score)) / n;
        layers.set("share.latency_pct", 100.0 * per_batch / mean(&latencies));
        layers.report(&mut report);
        eprintln!(
            "stream-ingest traced end-to-end: setup_s {:.4} ingest_txs_per_s {:.1} \
             latency_p50_ms {:.4}",
            median(&setups),
            tally.txs as f64 / elapsed,
            median(&latencies)
        );
    } else {
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_mb", peak_rss, "MiB");
        report.metric("train_s", median(&train_s), "s");
        report.metric("scores_per_s", tally.resampled as f64 / elapsed, "1/s");
        report.metric("ingest_txs_per_s", tally.txs as f64 / elapsed, "1/s");
        report.metric("latency_p50_ms", median(&latencies), "ms");
        report.metric("latency_tail_ms", tail_ms, "ms");
    }
    Ok(report)
}

/// After the last batch: the live graph equals a from-scratch rebuild over
/// the applied records, every centre samples the same subgraph from both,
/// and the incrementally maintained score table equals a fresh scoring of
/// the rebuilt subgraphs by the in-memory model (no centre left stale).
fn check(report: &mut Report, s: &SetUp, applied_end: usize) {
    let rebuild = TxGraph::build(s.scenario.kinds.clone(), s.scenario.txs[..applied_end].to_vec());
    let live = s.store.graph();
    report.check(graph_eq(live, &rebuild), || "live graph differs from a rebuild".into());
    let rebuilt: Vec<Subgraph> = (0..s.centres.len())
        .map(|i| sample_subgraph(&rebuild, s.centres.ids[i], sampler(), s.centres.labels[i]))
        .collect();
    for (i, g) in rebuilt.iter().enumerate() {
        let l = s.centres.sample(&s.store, i);
        let same = l.nodes == g.nodes && l.kinds == g.kinds && l.txs == g.txs && l.label == g.label;
        report.check(same, || {
            format!("centre {} samples differently from a rebuild", s.centres.ids[i])
        });
    }
    // A centre that has not transacted yet samples an edge-less singleton,
    // which no model can score: both sides must then agree it has no score.
    match s.trained.score_with(&rebuilt, &pinned(THREADS)) {
        Ok(fresh) => {
            for (i, r) in fresh.scores.iter().enumerate() {
                let want = match r {
                    Ok(a) => Some(a.score.to_bits()),
                    Err(ScoreError::Invalid(_)) if rebuilt[i].txs.is_empty() => None,
                    Err(e) => {
                        report.check(false, || format!("fresh scoring failed: {e}"));
                        continue;
                    }
                };
                report.check(want == s.table[i], || {
                    format!("centre {} has a stale score", s.centres.ids[i])
                });
            }
        }
        Err(e) => report.check(false, || format!("fresh scoring failed: {e}")),
    }
}

/// Two graphs agree on every public accessor.
fn graph_eq(a: &TxGraph, b: &TxGraph) -> bool {
    a.n_accounts() == b.n_accounts()
        && a.transactions() == b.transactions()
        && (0..a.n_accounts()).all(|acct| {
            a.kind(acct) == b.kind(acct)
                && a.sent_by(acct) == b.sent_by(acct)
                && a.received_by(acct) == b.received_by(acct)
                && a.neighbours(acct) == b.neighbours(acct)
                && a.neighbours(acct).iter().all(|&n| a.pair(acct, n) == b.pair(acct, n))
        })
}
