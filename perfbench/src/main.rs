//! One benchmark for the ppn workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|decide|live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Workloads:
//!
//! * `train`: the two-stream PPN (paper `NetConfig`, batch 16) trains on the
//!   Crypto-A preset for a fixed number of steps from the seed, then
//!   backtests over the test split at psi = 0.25%; repeated until the time
//!   budget is spent, every repeat bit-identical to the first. Kernels,
//!   backward, Adam and the arena dominate; serving is idle.
//! * `decide`: an open-loop `/decide` generator against `ppn-serve` holding
//!   a small PPN-LSTM (4 assets, window 8) at a fixed nominal rate for
//!   latency, then closed-loop with 64 requests in flight for throughput.
//!   HTTP, JSON, the queue and the batcher dominate; the kernels do little.
//! * `live`: a `StreamService` adapts the same small net online over a
//!   two-regime feed at full speed and promotes versions into the registry
//!   a running server serves, while the generator sends `/decide` at a low
//!   fixed rate. The registry is written while it is read, and the updater
//!   competes with the batcher for the cores.
//!
//! `--trace 0` prints the end-to-end metrics with request tracing off;
//! `--trace 1` prints the per-layer metrics: in-process timings of public
//! functions, the crates' own `ppn-obs` counters and histograms, and the
//! stage durations of the server's sampled `serve.*` request spans. The
//! first stdout line is the host envelope and the last the JSON result.

mod loadgen;
mod obs;
mod probes;
mod report;
mod serving;
mod stats;
mod train;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a traced run writes its span stream (removed after reading).
const TRACE_DIR: &str = ".bench_out";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["train", "decide", "live"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (train, decide, live)"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train|decide|live> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Metrics stay on in every run. A traced run also sends trace-level
    // events (the sampled request spans among them) to a JSONL file.
    let trace_file = args
        .trace
        .then(|| PathBuf::from(TRACE_DIR).join(format!("trace-{}.jsonl", std::process::id())));
    ppn_obs::init(ppn_obs::ObsConfig {
        stderr_level: Some(ppn_obs::Level::Warn),
        jsonl_level: args.trace.then_some(ppn_obs::Level::Trace),
        jsonl_path: trace_file.as_ref().map(|p| p.to_string_lossy().into_owned()),
        spans: true,
        metrics: true,
    });
    ppn_obs::trace::set_sample_rate(0);
    println!("{}", envelope(&args));
    // Work on this thread (train steps, backtests, in-process probes) runs
    // on one pool thread: on a shared 2-core host, per-kernel thread
    // wake-ups make two-thread step times wander from run to run. Server,
    // batcher and updater threads keep the pool's default.
    ppn_tensor::par::with_threads(1, || measure(&args, trace_file.as_deref()));
}

fn measure(args: &Args, trace_file: Option<&Path>) {
    let started = Instant::now();
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "train" => train::run(args, &mut outcome),
        "decide" => serving::decide(args, &mut outcome),
        _ => serving::live(args, &mut outcome),
    }
    if args.trace {
        probes::run(args, &mut outcome);
        if let Some(path) = trace_file {
            ppn_obs::sink::jsonl_flush();
            let text = std::fs::read_to_string(path).unwrap_or_default();
            probes::span_metrics(&ppn_trace::parse_events(&text), &mut outcome);
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_dir(TRACE_DIR);
        }
    }
    outcome.set("peak_rss_mb", peak_rss_mb());
    eprintln!("perfbench: {} finished in {:.1}s", args.workload, started.elapsed().as_secs_f64());
    report::print(&outcome, args.trace);
}

/// The host envelope, as one JSON line: what a result needs to be
/// compared with another.
fn envelope(args: &Args) -> String {
    let threads_env = std::env::var("PPN_THREADS").ok();
    format!(
        "{{\"envelope\":{{\"commit\":{},\"source_digest\":\"{:016x}\",\"nproc\":{},\
         \"simd_compiled\":{},\"simd_active\":{},\"ppn_threads_env\":{},\"pool_threads\":{},\"bench_thread_pool\":1,\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}}}",
        git_commit().map_or("null".to_string(), |c| format!("\"{c}\"")),
        source_digest(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cfg!(feature = "simd"),
        ppn_tensor::simd::enabled(),
        threads_env.map_or("null".to_string(), |v| format!("\"{}\"", v.escape_default())),
        ppn_tensor::par::threads(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
    )
}

/// The checked-out commit when run inside a git work tree (read from
/// `.git`, no subprocess); `None` in an exported tree.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the workspace sources (paths and contents, sorted), so two
/// results can be matched to the same code even without git.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size from `/proc/self/status` (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
