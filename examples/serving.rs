//! Serving ReLM queries over TCP: spawn a `RelmServer`, drive it with
//! concurrent protocol clients, and read the server's counters.
//!
//! Run with `cargo run --example serving`. For a standalone endpoint
//! and a scripted driver, see the `relm_server` / `relm_client` bins in
//! `crates/serve`.

#![forbid(unsafe_code)]

use relm::serve::{
    spawn, QueryRequest, RelmServer, Request, Response, ServeClient, ServerConfig, StrategySpec,
};
use relm::{BpeTokenizer, NGramConfig, NGramLm, Relm};

fn main() {
    let docs = [
        "the cat sat on the mat",
        "the cat sat on the mat",
        "the dog sat on the log",
        "the cow ate the grass",
    ];
    let corpus = docs.join(". ");
    let tokenizer = BpeTokenizer::train(&corpus, 80);
    let model = NGramLm::train(&tokenizer, &docs, NGramConfig::xl());
    let client = Relm::builder(model, tokenizer).build().unwrap();

    // One shard; concurrency comes from its driver stepping every live
    // query round-robin, not from a thread pool.
    let handle = spawn(
        RelmServer::with_config(client, ServerConfig::new()),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.addr();
    println!("serving on {addr}");

    // Two concurrent clients, each pipelining an audit battery.
    std::thread::scope(|scope| {
        for t in 0u64..2 {
            scope.spawn(move || {
                let mut peer = ServeClient::connect(addr).unwrap();
                let requests = [
                    QueryRequest::new(1, "the ((cat)|(dog)|(cow)) ((sat)|(ate))", 3),
                    QueryRequest::new(2, "the ((cat)|(dog)) sat on the ((mat)|(log))", 2)
                        .with_strategy(StrategySpec::Beam { width: 8 }),
                    QueryRequest::new(3, "the ((cat)|(dog)|(cow)) ((sat)|(ate))", 3)
                        .with_strategy(StrategySpec::Sampling { seed: 7 + t })
                        .with_max_tokens(16),
                ];
                for request in &requests {
                    peer.send(&Request::Query(request.clone())).unwrap();
                }
                for _ in 0..requests.len() {
                    if let Response::Matches { id, matches } = peer.recv().unwrap() {
                        for m in matches {
                            println!(
                                "client {t} query {id}: {:?} (log p = {:.4})",
                                m.text,
                                m.log_prob()
                            );
                        }
                    }
                }
            });
        }
    });

    let report = handle.stop().unwrap();
    println!(
        "server: {} queries over {} connections, mean batch fill {:.2}",
        report.completed, report.accepted, report.mean_batch_fill
    );
}
