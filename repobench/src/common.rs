//! Shared pieces: the generated inputs, the model configurations, the
//! save-and-reopen step, and the statistics every workload reports.

use dbg4eth::{Dbg4EthConfig, InferOptions, Session};
use eth_graph::{SamplerConfig, Subgraph};
use eth_sim::{AccountClass, Benchmark, DatasetScale, GraphDataset};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker threads of the serve workers, the stream re-scores and the
/// benchmark's own checks (the benchmark VM has two vCPUs; auto-detection
/// is never relied on). Every training runs on one thread.
pub const THREADS: usize = 2;

/// Share of each labelled dataset used for training; the rest is held out.
pub const TRAIN_FRAC: f64 = 0.8;

/// The default reduced-scale world every bench binary uses (`bench::scale`).
pub fn scale() -> DatasetScale {
    DatasetScale { exchange: 50, ico_wallet: 40, mining: 36, phish_hack: 70, bridge: 40, defi: 40 }
}

/// The shared sampler settings (`bench::sampler`: K = 2000, two hops).
pub fn sampler() -> SamplerConfig {
    SamplerConfig::new(2000, 2)
}

/// Seed of every generated world and of every model trained on it (the
/// train/test split, the initialisation and the calibration folds). The
/// training inputs are held fixed, as a real transaction dataset and its
/// split would be, so two runs of any seed train on identical inputs and
/// their timings differ only by the machine's noise. The benchmark's
/// `--seed` drives the order the timed operations arrive in. (Letting it
/// pick the world moved every timing by 10-20% from seed to seed; letting
/// it pick the split made train-exchange's peak RSS bimodal, near 500 or
/// near 600 MiB, by which graphs landed in training.)
pub const DATA_SEED: u64 = 7;

/// The default world (`bench`'s default seed, 7), its exchange dataset, and
/// how long `Benchmark::generate` took.
pub fn exchange_world() -> (Benchmark, GraphDataset, Duration) {
    let t = Instant::now();
    let world = Benchmark::generate(scale(), sampler(), DATA_SEED);
    let generate = t.elapsed();
    let graphs = world.dataset(AccountClass::Exchange).graphs.clone();
    (world, GraphDataset { class: AccountClass::Exchange, graphs }, generate)
}

/// Every labelled centre of the world, once each (the six per-category
/// datasets share their negatives), in dataset order.
pub fn labelled_accounts(world: &Benchmark) -> Vec<Subgraph> {
    let mut seen = std::collections::HashSet::new();
    world
        .datasets
        .iter()
        .flat_map(|d| &d.graphs)
        .filter(|g| seen.insert(g.nodes[0]))
        .cloned()
        .collect()
}

/// The per-label training run of train-exchange: the default architecture
/// with cross-fitting, two epochs, Strict numerics, one thread. (At two
/// threads the cross-fit fan-out nests inside the branch fan-out, four
/// workers share the two vCPUs, and both the training time and the peak
/// RSS moved by a quarter between runs of the same inputs.)
pub fn train_config() -> Dbg4EthConfig {
    let mut cfg = Dbg4EthConfig::default();
    cfg.epochs = 2;
    cfg.parallelism = 1;
    cfg.seed = DATA_SEED;
    cfg.numerics = tensor::NumericsProfile::Strict;
    cfg
}

/// The model serve-cold trains in set-up: the same architecture
/// (so scoring costs what train-exchange's model costs), one epoch and a
/// plain holdout instead of cross-fitting, so that set-up stays short
/// enough to repeat.
pub fn serve_config() -> Dbg4EthConfig {
    let mut cfg = train_config();
    cfg.epochs = 1;
    cfg.cross_fit = false;
    cfg.holdout_frac = 0.3;
    cfg
}

/// The model stream-ingest trains on the stream's prefix in set-up:
/// train-exchange's settings. The prefix subgraphs are small, so a
/// one-epoch fit would be too brief to time steadily.
pub fn stream_config() -> Dbg4EthConfig {
    train_config()
}

/// A seeded permutation of `0..n` (Fisher-Yates over SplitMix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Serving options of every scoring call the benchmark makes: pinned
/// scaling, so a score does not depend on what shares its batch.
pub fn pinned(threads: usize) -> InferOptions {
    InferOptions { pinned_scaling: true, threads: Some(threads), ..InferOptions::default() }
}

/// Files the benchmark writes (saved models), inside the working directory.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let dir = PathBuf::from(".repobench").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(".repobench");
    }
}

/// A model after the model-io round trip.
pub struct Deployed {
    pub session: Session,
    pub save: Duration,
    pub open: Duration,
    pub bytes: u64,
}

/// Save `session` and reopen it through the read-only memory map.
pub fn deploy(session: &Session, scratch: &Scratch, name: &str) -> Result<Deployed, String> {
    let path = scratch.path(name);
    let t = Instant::now();
    session.save(&path).map_err(|e| format!("save {}: {e}", path.display()))?;
    let save = t.elapsed();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let t = Instant::now();
    let reopened = Session::open_mmap(&path).map_err(|e| format!("open_mmap: {e}"))?;
    Ok(Deployed { session: reopened, save, open: t.elapsed(), bytes })
}

/// Score one account at a time (batch 1, pinned scaling; two accounts in
/// flight): the reference every served score is checked against.
pub fn oracle_bits(session: &Session, accounts: &[Subgraph]) -> Result<Vec<u64>, String> {
    par::par_map(THREADS, accounts, |g| {
        let report = session
            .score_with(std::slice::from_ref(g), &pinned(1))
            .map_err(|e| format!("oracle scoring: {e}"))?;
        match &report.scores[0] {
            Ok(s) => Ok(s.score.to_bits()),
            Err(e) => Err(format!("oracle scoring: {e}")),
        }
    })
    .into_iter()
    .collect()
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p99/p90/p75 with at least ten samples beyond it, as
/// `(percentile, value)`; the median when there are fewer than forty.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let n = values.len();
    let p = if n >= 1000 {
        99
    } else if n >= 100 {
        90
    } else if n >= 40 {
        75
    } else {
        50
    };
    (p, quantile(values, f64::from(p) / 100.0))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
