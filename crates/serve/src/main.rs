//! Standalone `ppn-serve` binary.
//!
//! ```text
//! ppn-serve [--addr HOST:PORT] [--model NAME=CHECKPOINT.json]...
//! ```
//!
//! With no `--model` flags the server starts with a freshly-initialised
//! (untrained) demo PPN-LSTM under the name `demo`, so the HTTP surface can
//! be exercised without a training run. Press Enter (or send EOF + SIGTERM)
//! to stop; an interactive Enter performs a graceful shutdown.
//!
//! Admission control is tuned through the environment:
//! `PPN_SERVE_QUEUE_CAP` (bounded decision queue, overflow sheds with 429),
//! `PPN_SERVE_MAX_CONNS` (connection limit, overflow refused with 503), and
//! `PPN_SERVE_IDLE_MS` (idle keep-alive reap timeout). These and `--addr`
//! are the only settings: the 5 ms batcher poll slice and the 10 s
//! per-decision timeout are fixed, and batching is natural (whatever is
//! queued when the batcher wakes goes in one forward pass).
#![forbid(unsafe_code)]

use ppn_core::config::NetConfig;
use ppn_core::ppn::{PolicyNet, Variant};
use ppn_serve::{ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn parse_args() -> Result<(ServeConfig, Vec<(String, String)>), String> {
    let mut cfg = ServeConfig::from_env();
    let mut models = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                cfg.addr = args.next().ok_or("--addr needs HOST:PORT")?;
            }
            "--model" => {
                let spec = args.next().ok_or("--model needs NAME=PATH")?;
                let (name, path) =
                    spec.split_once('=').ok_or(format!("bad --model spec `{spec}`"))?;
                models.push((name.to_string(), path.to_string()));
            }
            "--help" | "-h" => {
                return Err("usage: ppn-serve [--addr HOST:PORT] [--model NAME=PATH]...".into())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((cfg, models))
}

fn main() {
    ppn_obs::init_from_env();
    let (mut cfg, models) = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if cfg.addr == "127.0.0.1:0" {
        // A standalone server wants a stable default port, unlike the
        // ephemeral-port tests.
        cfg.addr = "127.0.0.1:7878".to_string();
    }

    let registry = std::sync::Arc::new(ModelRegistry::new());
    for (name, path) in models {
        if let Err(e) = registry.load_checkpoint(&name, &path) {
            eprintln!("failed to load model '{name}' from {path}: {e}");
            std::process::exit(1);
        }
    }
    if registry.is_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = PolicyNet::new(Variant::PpnLstm, NetConfig::paper(4), &mut rng);
        ppn_obs::obs_info!("serve: no --model given, registering untrained demo net (4 assets)");
        registry.publish("demo", net);
    }

    let server = match Server::start(registry, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start server: {e}");
            std::process::exit(1);
        }
    };
    println!("ppn-serve listening on http://{} (Enter to stop)", server.addr());

    let mut line = String::new();
    match std::io::stdin().read_line(&mut line) {
        // Interactive Enter (or any input): graceful shutdown.
        Ok(n) if n > 0 => {
            server.shutdown();
        }
        // EOF (piped/daemonised stdin): serve until the process is killed.
        _ => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}
