//! `relm_server` — a standalone ReLM serving endpoint over a small
//! built-in demonstration model.
//!
//! ```text
//! relm_server [ADDR] [--shards N] [--max-inflight N]
//!             [--max-inflight-per-conn N] [--max-requests N]
//!             [--plan-store DIR]
//! ```
//!
//! Binds `ADDR` (default `127.0.0.1:7474`; use port 0 for an ephemeral
//! port, printed on startup), trains the deterministic toy corpus model
//! every scripted client knows, and serves until killed — or, with
//! `--max-requests N`, until `N` queries completed (the deterministic
//! shutdown CI's smoke job uses). `--shards N` runs N driver shards
//! with connection affinity (plan memo, scoring cache, and store stay
//! shared); `--max-inflight` / `--max-inflight-per-conn` set the
//! backpressure caps. `--plan-store DIR` points at a warm-artifact
//! store: compiled plans are preloaded from it at boot (the
//! `relm_store compile` bin fills one ahead of time), written back on
//! every fresh compile, and the scoring cache is flushed to it on
//! shutdown. Drive it with the `relm_client` and `relm_loadgen` bins.

#![forbid(unsafe_code)]

use std::sync::atomic::AtomicBool;

use relm_bpe::BpeTokenizer;
use relm_core::{Relm, SessionConfig};
use relm_lm::{NGramConfig, NGramLm};
use relm_serve::{RelmServer, ServerConfig};

/// The deterministic demonstration corpus shared with `relm_client`'s
/// example queries (and the serve smoke job in CI).
pub const DEMO_DOCS: [&str; 4] = [
    "the cat sat on the mat",
    "the cat sat on the mat",
    "the dog sat on the log",
    "the cow ate the grass",
];

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("relm_server: {msg}");
            std::process::ExitCode::from(2)
        }
    }
}

/// Parse one numeric flag value or explain which flag wanted it.
fn numeric_flag<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} takes a number"))
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mut addr = "127.0.0.1:7474".to_string();
    let mut config = ServerConfig::new();
    let mut session_config = SessionConfig::new();
    let mut store_configured = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-requests" => {
                config = config.with_max_requests(numeric_flag(&mut args, "--max-requests")?);
            }
            "--shards" => {
                config = config.with_shards(numeric_flag(&mut args, "--shards")?);
            }
            "--max-inflight" => {
                config = config.with_max_inflight(numeric_flag(&mut args, "--max-inflight")?);
            }
            "--max-inflight-per-conn" => {
                config = config.with_max_inflight_per_conn(numeric_flag(
                    &mut args,
                    "--max-inflight-per-conn",
                )?);
            }
            "--plan-store" => {
                let dir = args.next().ok_or("--plan-store takes a directory")?;
                session_config = session_config.with_plan_store(dir);
                config = config.with_preload_store(true).with_flush_store(true);
                store_configured = true;
            }
            other => addr = other.to_string(),
        }
    }

    let corpus = DEMO_DOCS.join(". ");
    let tokenizer = BpeTokenizer::train(&corpus, 80);
    let model = NGramLm::train(&tokenizer, &DEMO_DOCS, NGramConfig::xl());
    let client = Relm::builder(model, tokenizer)
        .config(session_config)
        .build()
        .map_err(|e| format!("building demo session: {e}"))?;

    let listener =
        std::net::TcpListener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("reading bound address: {e}"))?;
    println!("relm_server listening on {addr}");

    let server = RelmServer::with_config(client, config);
    let shutdown = AtomicBool::new(false);
    let report = server
        .serve(listener, &shutdown)
        .map_err(|e| format!("serve loop: {e}"))?;
    if store_configured {
        let stats = server.client().stats();
        println!(
            "relm_server store: {} hits, {} misses, {} bytes written, \
             {} plans preloaded, {} cache entries preloaded, {} bytes flushed",
            stats.store_hits,
            stats.store_misses,
            stats.store_bytes_written,
            report.plans_preloaded,
            report.cache_entries_preloaded,
            report.store_flush_bytes,
        );
    }
    for shard in &report.shards {
        println!(
            "relm_server shard {}: {} connections, {} admitted, {} completed, \
             {} cancelled, {} expired, {} busy_rejections, {} store hits",
            shard.shard,
            shard.connections,
            shard.admitted,
            shard.completed,
            shard.cancelled,
            shard.expired,
            shard.busy_rejections,
            shard.store_hits,
        );
    }
    println!(
        "relm_server done: {} connections, {} admitted, {} completed, {} cancelled, \
         mean batch fill {:.2}",
        report.accepted,
        report.admitted,
        report.completed,
        report.cancelled,
        report.mean_batch_fill,
    );
    Ok(())
}
