//! `relm_client` — a scripted client for a `relm_server` endpoint.
//!
//! ```text
//! relm_client ADDR [--take N] [--stats] PATTERN [PATTERN...]
//! ```
//!
//! Pipelines one query per `PATTERN` (all sent before any response is
//! read — the server interleaves them through its driver),
//! prints one line per match as responses arrive, and with `--stats`
//! finishes by printing the server's counters. A `PREFIX::PATTERN`
//! argument attaches a conditioning prefix.

#![forbid(unsafe_code)]

use relm_serve::{QueryRequest, Request, Response, ServeClient};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("relm_client: {msg}");
            std::process::ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let addr = args
        .next()
        .ok_or("usage: relm_client ADDR [--take N] [--stats] PATTERN [PATTERN...]")?;
    let mut take = 2usize;
    let mut want_stats = false;
    let mut patterns: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--take" => {
                take = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--take takes a number")?;
            }
            "--stats" => want_stats = true,
            other => patterns.push(other.to_string()),
        }
    }

    let mut client = ServeClient::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    for (i, spec) in patterns.iter().enumerate() {
        let (prefix, pattern) = match spec.split_once("::") {
            Some((prefix, pattern)) => (Some(prefix), pattern),
            None => (None, spec.as_str()),
        };
        let mut request = QueryRequest::new(i as u64, pattern, take);
        if let Some(prefix) = prefix {
            request = request.with_prefix(prefix);
        }
        client
            .send(&Request::Query(request))
            .map_err(|e| format!("sending query {i}: {e}"))?;
    }
    for _ in 0..patterns.len() {
        match client.recv().map_err(|e| format!("receiving: {e}"))? {
            Response::Matches { id, matches } => {
                for m in &matches {
                    // The decimal echo is for human eyes only; the
                    // bit-exact score travels in `score_bits` beside it.
                    // lint: allow(float_fmt, "readability echo; exact bits printed alongside")
                    println!(
                        "match[{id}]: {:?} log_prob={:.6} score_bits={:016x}",
                        m.text,
                        m.log_prob(),
                        m.score_bits
                    );
                }
                if matches.is_empty() {
                    println!("match[{id}]: (none)");
                }
            }
            Response::Error { id, message } => println!("error[{id}]: {message}"),
            Response::Busy { id, message } => println!("busy[{id}]: {message}"),
            Response::DeadlineExceeded { id } => println!("deadline_exceeded[{id}]"),
            Response::Stats(_) => {
                return Err("protocol violation: stats answer to a query request".into())
            }
        }
    }
    if want_stats {
        match client
            .roundtrip(&Request::Stats)
            .map_err(|e| format!("stats roundtrip: {e}"))?
        {
            Response::Stats(stats) => println!(
                "server stats: {} admitted, {} completed, {} cancelled, in flight {}, \
                 mean batch fill {:.2}",
                stats.admitted,
                stats.completed,
                stats.cancelled,
                stats.in_flight,
                stats.mean_batch_fill,
            ),
            other => println!("unexpected stats answer: {other:?}"),
        }
    }
    Ok(())
}
