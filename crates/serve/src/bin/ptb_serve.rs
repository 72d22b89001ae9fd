//! Serve a `ptb-farm` store over HTTP.
//!
//! ```text
//! ptb_serve [--addr HOST:PORT] [--farm-dir PATH] [--workers N]
//!           [--queue N] [--sim-threads N] [--job-timeout SECS]
//!           [--lease-ttl-ms N] [--reaper-tick-ms N] [--max-claims N]
//!           [--batch-ttl SECS] [--worker-grace-ms N] [--no-local]
//! ```
//!
//! `--farm-dir` defaults to `PTB_FARM_DIR`, then `target/farm`. Fault
//! injection honours `PTB_CHAOS`/`PTB_CHAOS_SEED` exactly like the
//! experiment runners. The process prints one `listening` line once
//! the socket is bound, then serves until killed; `/healthz` is the
//! readiness probe.

use ptb_farm::Farm;
use ptb_serve::{ServeConfig, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: ptb_serve [--addr HOST:PORT] [--farm-dir PATH] [--workers N] \
             [--queue N] [--sim-threads N] [--job-timeout SECS] \
             [--lease-ttl-ms N] [--reaper-tick-ms N] [--max-claims N] [--batch-ttl SECS] \
             [--worker-grace-ms N] [--no-local]"
        );
        return;
    }
    let addr = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let farm_dir = flag(&args, "--farm-dir")
        .or_else(|| std::env::var("PTB_FARM_DIR").ok())
        .unwrap_or_else(|| "target/farm".to_string());

    let mut server_cfg = ServerConfig::default();
    if let Some(n) = flag(&args, "--workers").and_then(|v| v.parse().ok()) {
        server_cfg.workers = n;
    }
    if let Some(n) = flag(&args, "--queue").and_then(|v| v.parse().ok()) {
        server_cfg.queue_depth = n;
    }
    let mut serve_cfg = ServeConfig::default();
    if let Some(n) = flag(&args, "--sim-threads").and_then(|v| v.parse().ok()) {
        serve_cfg.sim_threads = n;
    }
    if let Some(secs) = flag(&args, "--job-timeout").and_then(|v| v.parse::<u64>().ok()) {
        serve_cfg.job_timeout = (secs > 0).then(|| Duration::from_secs(secs));
    }
    if let Some(ms) = flag(&args, "--lease-ttl-ms").and_then(|v| v.parse::<u64>().ok()) {
        serve_cfg.lease_default_ttl = Duration::from_millis(ms);
        serve_cfg.lease_max_ttl = serve_cfg.lease_max_ttl.max(serve_cfg.lease_default_ttl);
    }
    if let Some(ms) = flag(&args, "--reaper-tick-ms").and_then(|v| v.parse::<u64>().ok()) {
        serve_cfg.reaper_tick = Duration::from_millis(ms.max(1));
    }
    if let Some(n) = flag(&args, "--max-claims").and_then(|v| v.parse().ok()) {
        serve_cfg.max_claims = n;
    }
    if let Some(secs) = flag(&args, "--batch-ttl").and_then(|v| v.parse::<u64>().ok()) {
        serve_cfg.batch_ttl = Duration::from_secs(secs);
    }
    if let Some(ms) = flag(&args, "--worker-grace-ms").and_then(|v| v.parse::<u64>().ok()) {
        serve_cfg.worker_grace = Duration::from_millis(ms);
    }
    if args.iter().any(|a| a == "--no-local") {
        serve_cfg.local_execution = false;
    }

    let farm = match Farm::open_with_io(&farm_dir, ptb_farm::io_from_env()) {
        Ok(f) => Arc::new(f),
        Err(e) => {
            eprintln!("error: cannot open farm store {farm_dir}: {e}");
            std::process::exit(2);
        }
    };

    let handle = match ptb_serve::start(farm, &addr, serve_cfg, server_cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    };
    println!("ptb-serve listening on http://{}", handle.addr());
    println!("  farm store: {farm_dir}");
    // Serve until the process is killed (CI stops it with SIGTERM).
    loop {
        std::thread::park();
    }
}
