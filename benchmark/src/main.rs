//! The repo benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload wal3-write --seed 1 --seconds 20 --trace 0
//! ```
//!
//! prints every metric by name with its unit, runs the correctness gate, and
//! ends with one JSON line (`correct`, `attempted`, `failed`, `metrics`):
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` next to this crate for what each workload
//! and metric is for.
//!
//! The environment is fixed here, not by flags:
//!
//! * two runtime workers (nodes are seated round-robin, so placement is
//!   deterministic), leadership pinned on node 1, worker *i* pinned to cpu
//!   *i* and the generator to the last cpu;
//! * `Timing::default()` timers (150–300 ms elections, 50 ms heartbeats) with
//!   compaction switched off over sockets (`socket::NO_COMPACTION` says why);
//!   the traced loop keeps the default 4096-entry compaction;
//! * real fsync on `wal`, with `TMPDIR` pinned under this crate's `target/`
//!   so it lands on the checkout's filesystem;
//! * every `RECRAFT_*` variable removed from the process environment;
//! * no injected message delay: loopback TCP, so latency is CPU + fsync +
//!   loopback, not a network's.

mod gen;
mod hist;
mod reconfig;
mod schedule;
mod socket;
mod sys;
mod trace;
mod traced;

use recraft_cluster::HarnessBackend;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// One benchmark workload. Rates are constants, chosen once from the parent
/// commit's measured saturation (about a seventh to a quarter of it — see
/// README, calibration) and then frozen.
pub struct Workload {
    pub name: &'static str,
    pub nodes: usize,
    pub backend: HarnessBackend,
    /// Offered operations per second in the fixed-rate phase.
    pub rate: f64,
    /// Percentage of operations that are linearizable `Get`s.
    pub read_pct: u64,
    /// Whether reconfiguration cycles follow the steady phase.
    pub reconfig: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wal3-write",
        nodes: 3,
        backend: HarnessBackend::Wal,
        rate: 2000.0,
        read_pct: 0,
        reconfig: false,
    },
    Workload {
        name: "mem3-write",
        nodes: 3,
        backend: HarnessBackend::Mem,
        rate: 8000.0,
        read_pct: 0,
        reconfig: false,
    },
    Workload {
        name: "mem3-read90",
        nodes: 3,
        backend: HarnessBackend::Mem,
        rate: 8000.0,
        read_pct: 90,
        reconfig: false,
    },
    Workload {
        name: "wal6-reconfig",
        nodes: 6,
        backend: HarnessBackend::Wal,
        rate: 1000.0,
        read_pct: 0,
        reconfig: true,
    },
];

/// Named metrics in report order, split the way `BENCHMARK.json` splits them.
#[derive(Default)]
pub struct Metrics {
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push((name, value, unit));
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <name> is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where WAL directories and trace files go: under this crate's `target/`,
/// inside the checkout whatever the working directory is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

fn pin_environment() {
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("RECRAFT_") {
            std::env::remove_var(name);
        }
    }
    // The harness derives its WAL root from `std::env::temp_dir()`.
    let data = out_dir().join("data");
    std::fs::create_dir_all(&data).expect("create benchmark data directory");
    std::env::set_var("TMPDIR", &data);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let w = args.workload;
    println!(
        "workload {}: {} nodes on {}, {} op/s fixed rate, {} % reads, seed {}, {} s, \
         {} workers, message delay 0 (loopback TCP), {} cpus",
        w.name,
        w.nodes,
        w.backend.as_str(),
        w.rate,
        w.read_pct,
        args.seed,
        args.seconds,
        socket::WORKERS,
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    let mut run = socket::run(w, args.seed, args.seconds, args.trace);
    let mut correct = run.correct;
    if args.trace {
        let traced = traced::run(w, args.seed, run.cpu_us_per_op);
        correct &= traced.correct;
        run.metrics.per_layer.extend(traced.per_layer);
    }

    for (name, value, unit) in run.metrics.end_to_end.iter().filter(|_| !args.trace) {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    for (name, value, unit) in &run.metrics.per_layer {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!(
        "operations attempted {} failed {}",
        run.attempted, run.failed
    );

    let reported = if args.trace {
        &run.metrics.per_layer
    } else {
        &run.metrics.end_to_end
    };
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted, run.failed
    );
    for (i, (name, value, unit)) in reported.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        assert!(value.is_finite(), "metric {name} is not finite");
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
