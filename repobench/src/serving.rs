//! `serve-cold`: an in-process `ScoreServer` over the memory-mapped model,
//! with the score cache disabled, driven by two closed-loop clients that
//! send one account per request, cycling through every labelled centre of
//! the default world (the model is trained on the exchange dataset), so
//! every request runs the model.

use crate::common::{
    deploy, exchange_world, labelled_accounts, mean, median, ms, oracle_bits, peak_rss_mb,
    permutation, quantile, secs, serve_config, tail, Deployed, Scratch, THREADS, TRAIN_FRAC,
};
use crate::layers::Layers;
use crate::{Args, Report};
use dbg4eth::Session;
use eth_graph::Subgraph;
use serve::{Reply, Request, ScoreClient, ScoreRequest, ScoreServer, ServeConfig, WireResult};
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct SetUp {
    accounts: Vec<Subgraph>,
    trained: Session,
    server: ScoreServer,
    clients: Vec<ScoreClient>,
    save: Duration,
    open: Duration,
    bytes: u64,
    generate_ms: f64,
    train_s: f64,
}

fn set_up(scratch: &Scratch) -> Result<SetUp, String> {
    let (world, dataset, generate) = exchange_world();
    let cfg = serve_config();
    let t = Instant::now();
    let (trained, _) =
        Session::train(&dataset, TRAIN_FRAC, &cfg).map_err(|e| format!("training: {e}"))?;
    let train_s = secs(t.elapsed());
    let Deployed { session, save, open, bytes } = deploy(&trained, scratch, "serve.dbgm")?;
    let accounts = labelled_accounts(&world);
    let config = ServeConfig {
        workers: THREADS,
        cache_capacity: 0,
        idle_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let server = ScoreServer::bind(session, config).map_err(|e| format!("bind: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| ScoreClient::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SetUp {
        accounts,
        trained,
        server,
        clients,
        save,
        open,
        bytes,
        generate_ms: ms(generate),
        train_s,
    })
}

/// One client's record of the timed phase.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<f64>,
    ok: u64,
    failed: u64,
    /// `(account index, score bits)` of every Ok reply.
    replies: Vec<(usize, u64)>,
}

/// Closed loop: send the next account the moment the previous reply
/// lands. Each client owns every `CLIENTS`-th request of the seeded order,
/// so no two in-flight requests share a fingerprint and single-flight never
/// turns a cold request into a hit.
fn client_loop(
    client: &mut ScoreClient,
    requests: &[(usize, Request)],
    until: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    for (i, request) in requests.iter().cycle() {
        if Instant::now() >= until {
            break;
        }
        let t = Instant::now();
        let reply = client.request(request);
        log.latencies.push(ms(t.elapsed()));
        match reply {
            Ok(Reply::Scores(r)) => match r.results[..] {
                [WireResult::Ok { score, .. }] => {
                    log.ok += 1;
                    log.replies.push((*i, score.to_bits()));
                }
                _ => log.failed += 1,
            },
            // Shed, protocol errors and transport failures all count as
            // failures and are never retried.
            _ => log.failed += 1,
        }
    }
    log
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

    // Timed phase.
    // The accounts in a seeded order, one request each.
    let requests: Vec<(usize, Request)> = permutation(s.accounts.len(), args.seed)
        .into_iter()
        .map(|i| {
            let r = ScoreRequest {
                id: i as u64,
                deadline_ms: 0,
                accounts: vec![s.accounts[i].clone()],
            };
            (i, Request::Score(r))
        })
        .collect();
    let before = s.server.stats();
    if args.trace {
        obs::set_metrics_enabled(true);
        obs::reset();
    }
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(args.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mine: Vec<(usize, Request)> =
                    requests.iter().skip(c).step_by(CLIENTS).cloned().collect();
                scope.spawn(move || client_loop(client, &mine, until))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = secs(start.elapsed());
    let after = s.server.stats();
    if args.trace {
        layers.queue_wait();
        obs::set_metrics_enabled(false);
    }
    let peak_rss = peak_rss_mb();
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let shed = after.shed - before.shed;
    drop(std::mem::take(&mut s.clients));
    s.server.shutdown();

    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.latencies.iter().copied()).collect();
    let ok: u64 = logs.iter().map(|l| l.ok).sum();
    let txs: usize =
        logs.iter().flat_map(|l| &l.replies).map(|&(i, _)| s.accounts[i].txs.len()).sum();
    report.attempted = latencies.len() as u64;
    report.failed = logs.iter().map(|l| l.failed).sum();

    // Checks: every reply bit-equal to the in-memory model's singleton
    // score; the disabled cache answered none of them.
    match oracle_bits(&s.trained, &s.accounts) {
        Ok(oracle) => {
            let wrong =
                logs.iter().flat_map(|l| &l.replies).filter(|&&(i, b)| oracle[i] != b).count();
            report.check(wrong == 0, || format!("{wrong} replies differ from in-process scoring"));
        }
        Err(e) => report.check(false, || e),
    }
    report.check(hits == 0, || format!("cold server reported {hits} cache hits"));

    for _ in 1..SETUPS {
        let t = Instant::now();
        let extra = set_up(&scratch)?;
        setups.push(secs(t.elapsed()));
        train_s.push(extra.train_s);
    }

    let (pct, tail_ms) = tail(&latencies);
    eprintln!(
        "serve-cold: {} requests from {CLIENTS} clients in {elapsed:.2} s, {hits} hits / {misses} \
         misses / {shed} shed, latency tail is p{pct} (p90 {:.4} ms, p99 {:.4} ms)",
        latencies.len(),
        quantile(&latencies, 0.90),
        quantile(&latencies, 0.99),
    );
    if args.trace {
        layers.set("serve.cache_hits", hits as f64);
        layers.set("serve.cache_misses", misses as f64);
        layers.set("serve.shed", shed as f64);
        layers.model_io(s.save, s.open, s.bytes);
        layers.probe_wire(&s.accounts);
        layers.probe_scoring(&s.trained, &s.accounts);
        // Set-up stages the benchmark times: generation, training, save
        // and open.
        let stages_ms = s.generate_ms + median(&train_s) * 1e3 + ms(s.save) + ms(s.open);
        layers.set("share.setup_pct", 100.0 * stages_ms / (median(&setups) * 1e3));
        let wire = ["serve.encode_us", "serve.decode_us", "serve.fingerprint_us"]
            .iter()
            .map(|m| layers.get(m) / 1e3)
            .sum::<f64>();
        let model = layers.get("core.score_ms");
        layers.set(
            "share.latency_pct",
            100.0 * (wire + model + layers.get("serve.queue_wait_ms")) / mean(&latencies),
        );
        layers.report(&mut report);
        eprintln!(
            "serve-cold traced end-to-end: setup_s {:.4} scores_per_s {:.1} latency_p50_ms {:.4}",
            median(&setups),
            ok as f64 / elapsed,
            median(&latencies)
        );
    } else {
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_rss_mb", peak_rss, "MiB");
        report.metric("train_s", median(&train_s), "s");
        report.metric("scores_per_s", ok as f64 / elapsed, "1/s");
        report.metric("ingest_txs_per_s", txs as f64 / elapsed, "1/s");
        report.metric("latency_p50_ms", median(&latencies), "ms");
        report.metric("latency_tail_ms", tail_ms, "ms");
    }
    Ok(report)
}
