//! `repobench` — the repository benchmark.
//!
//! ```text
//! repobench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one of three workloads (`train-exchange`, `serve-cold`,
//! `stream-ingest`; see README.md), checks the program's outputs against
//! references computed apart from the path under test, and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are per-layer timings taken by timing calls into each
//! crate's public functions from this file's siblings, plus self-times the
//! program's own run-report already records. End-to-end metrics are never
//! taken from a traced run.

mod common;
mod layers;
mod serving;
mod stream;
mod train;

use std::process::ExitCode;

/// One run's outcome, as printed.
#[derive(Default)]
pub struct Report {
    /// Every output check that failed, in words.
    pub mismatches: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    fn to_json(&self) -> obs::Json {
        let mut metrics = obs::Json::obj();
        for (name, value, unit) in &self.metrics {
            let mut m = obs::Json::obj();
            m.set("value", *value);
            m.set("unit", *unit);
            metrics.set(name, m);
        }
        let mut out = obs::Json::obj();
        out.set("correct", self.mismatches.is_empty());
        out.set("attempted", self.attempted);
        out.set("failed", self.failed);
        out.set("metrics", metrics);
        out
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainExchange,
    ServeCold,
    StreamIngest,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("train-exchange", Workload::TrainExchange),
        ("serve-cold", Workload::ServeCold),
        ("stream-ingest", Workload::StreamIngest),
    ];
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(name, _)| name == value)
                        .map(|&(_, w)| w)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(7),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Clear the program's environment knobs so a run measures the same
/// configuration whatever the caller's shell exports. Thread counts are
/// then pinned by the benchmark itself, in every configuration and call.
fn pin_environment() {
    for var in [
        par::THREADS_ENV,
        obs::METRICS_ENV,
        obs::TRACE_ENV,
        "DBG4ETH_FAULTS",
        "DBG4ETH_NUMERICS",
        obs::LOG_ENV,
        "DBG4ETH_WINDOW_HOPS",
        "DBG4ETH_WINDOW_SLICE_SECS",
    ] {
        std::env::remove_var(var);
    }
    obs::set_metrics_enabled(false);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            eprintln!(
                "usage: repobench --workload train-exchange|serve-cold|stream-ingest \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let result = match args.workload {
        Workload::TrainExchange => train::run(&args),
        Workload::ServeCold => serving::run(&args),
        Workload::StreamIngest => stream::run(&args),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.mismatches {
        eprintln!("repobench: check failed: {m}");
    }
    println!("{}", report.to_json().render());
    if report.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
