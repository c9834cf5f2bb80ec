//! `relm_store` — manage a warm-artifact store from the command line:
//! compile once, serve everywhere.
//!
//! ```text
//! relm_store compile <DIR> [--prefix P] [--take N] [PATTERN...]
//! relm_store ls <DIR>
//! relm_store verify <DIR>
//! ```
//!
//! * `compile` trains the deterministic demonstration model shared with
//!   `relm_server` (same corpus, same tokenizer merges, same n-gram
//!   config — so the tokenizer fingerprints match and the artifacts are
//!   loadable by a serving replica), compiles each PATTERN, and writes
//!   the plans into `DIR`. With no patterns, the CI smoke set is
//!   compiled. `--prefix P` attaches a conditioning prefix to every
//!   pattern; `--take N` additionally *executes* each query for `N`
//!   matches so the execute-time walk tables materialize, then
//!   re-persists the plans with them and snapshots the scoring cache.
//!   The files do not depend on the host's core count: a plan compiled
//!   here is byte for byte the plan any other host writes.
//! * `ls` lists the artifacts in `DIR` with their keys and sizes.
//! * `verify` decodes every artifact (checksum, structure, key) and
//!   exits nonzero if any fails.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use relm::{
    BpeTokenizer, NGramConfig, NGramLm, PlanStore, QueryString, Relm, SearchQuery, SearchStrategy,
    SessionConfig,
};

/// The deterministic demonstration corpus shared with `relm_server` and
/// `relm_client` (and the serve smoke job in CI).
const DEMO_DOCS: [&str; 4] = [
    "the cat sat on the mat",
    "the cat sat on the mat",
    "the dog sat on the log",
    "the cow ate the grass",
];

/// The patterns CI's serve smoke queries — the default compile set, so
/// a store filled by `relm_store compile` boots `relm_server` warm for
/// exactly that traffic.
const DEMO_PATTERNS: [&str; 3] = [
    "the ((cat)|(dog)) sat",
    "the cow ate",
    "the ((cat)|(cow)) ((sat)|(ate))",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: relm_store <compile|ls|verify> <DIR> [options]";
    let (cmd, dir) = match (args.first(), args.get(1)) {
        (Some(cmd), Some(dir)) => (cmd.as_str(), dir.clone()),
        _ => {
            eprintln!("{usage}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "compile" => compile(&dir, &args[2..]),
        "ls" => ls(&dir),
        "verify" => verify(&dir),
        other => {
            eprintln!("unknown command {other:?}\n{usage}");
            ExitCode::FAILURE
        }
    }
}

fn compile(dir: &str, rest: &[String]) -> ExitCode {
    let mut prefix: Option<String> = None;
    let mut take: usize = 0;
    let mut patterns: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--prefix" => match it.next() {
                Some(p) => prefix = Some(p.clone()),
                None => {
                    eprintln!("--prefix takes a pattern");
                    return ExitCode::FAILURE;
                }
            },
            "--take" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => take = n,
                None => {
                    eprintln!("--take takes a number");
                    return ExitCode::FAILURE;
                }
            },
            other => patterns.push(other.to_string()),
        }
    }
    if patterns.is_empty() {
        patterns = DEMO_PATTERNS.iter().map(|p| p.to_string()).collect();
    }

    let corpus = DEMO_DOCS.join(". ");
    let tokenizer = BpeTokenizer::train(&corpus, 80);
    let model = NGramLm::train(&tokenizer, &DEMO_DOCS, NGramConfig::xl());
    let client = match Relm::builder(model, tokenizer)
        .config(SessionConfig::new().with_plan_store(dir))
        .build()
    {
        Ok(client) => client,
        Err(e) => {
            eprintln!("building demo session: {e}");
            return ExitCode::FAILURE;
        }
    };

    for pattern in &patterns {
        let mut query_string = QueryString::new(pattern);
        if let Some(p) = &prefix {
            query_string = query_string.with_prefix(p);
        }
        let mut query = SearchQuery::new(query_string);
        if take > 0 && prefix.is_some() {
            // A prefixed sampling execute is what materializes the walk
            // table — the artifact worth shipping warm.
            query = query.with_strategy(SearchStrategy::RandomSampling { seed: 7 });
        }
        match client.plan(&query) {
            Ok(_) => {
                if take > 0 {
                    match client.search(&query) {
                        Ok(results) => {
                            let n = results.take(take).count();
                            println!("compiled + executed ({n} matches): {pattern}");
                        }
                        Err(e) => {
                            eprintln!("execute failed for {pattern:?}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    println!("compiled: {pattern}");
                }
            }
            Err(e) => {
                eprintln!("compile failed for {pattern:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if take > 0 {
        let persisted = client
            .persist_plans()
            .and_then(|p| client.save_scoring_cache().map(|c| (p, c)));
        match persisted {
            Ok((plan_bytes, cache_bytes)) => println!(
                "persisted warm artifacts: {plan_bytes} plan bytes, {cache_bytes} cache bytes"
            ),
            Err(e) => {
                eprintln!("persisting warm artifacts: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let stats = client.stats();
    println!(
        "relm_store compile done: {} plans, {} bytes written to {dir}",
        stats.plan_misses, stats.store_bytes_written
    );
    ExitCode::SUCCESS
}

fn ls(dir: &str) -> ExitCode {
    let store = match PlanStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open store {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let files = match store.plan_files() {
        Ok(files) => files,
        Err(e) => {
            eprintln!("cannot list store {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for path in &files {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        match PlanStore::read_plan_file(path) {
            Ok(artifact) => {
                let key = &artifact.key;
                let prefix = key.prefix.as_deref().unwrap_or("-");
                println!(
                    "{name}  {bytes}B  tokenizer={:016x}  tokenization={}  prefix={prefix:?}  \
                     pattern={:?}{}",
                    key.tokenizer,
                    key.tokenization,
                    key.pattern,
                    if artifact.walk_table.is_some() {
                        "  [walk table]"
                    } else {
                        ""
                    },
                );
            }
            Err(e) => println!("{name}  {bytes}B  UNREADABLE: {e}"),
        }
    }
    println!("{} plan artifacts in {dir}", files.len());
    ExitCode::SUCCESS
}

fn verify(dir: &str) -> ExitCode {
    let store = match PlanStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open store {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let files = match store.plan_files() {
        Ok(files) => files,
        Err(e) => {
            eprintln!("cannot list store {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for path in &files {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        match PlanStore::read_plan_file(path) {
            Ok(artifact) => println!("ok    {name}  pattern={:?}", artifact.key.pattern),
            Err(e) => {
                failures += 1;
                println!("FAIL  {name}  {e}");
            }
        }
    }
    match store.load_cache() {
        Ok(Some(cache)) => println!(
            "ok    scoring-cache.relm  generation={} entries={}",
            cache.generation,
            cache.entries.len()
        ),
        Ok(None) => {}
        Err(e) => {
            failures += 1;
            println!("FAIL  scoring-cache.relm  {e}");
        }
    }
    if failures > 0 {
        eprintln!("{failures} corrupt artifact(s) in {dir}");
        return ExitCode::FAILURE;
    }
    println!("all {} plan artifacts verify clean", files.len());
    ExitCode::SUCCESS
}
