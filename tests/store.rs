//! The warm-artifact store's contract: a plan loaded from disk executes
//! **bit-for-bit identically** (f64 bits included) to a fresh compile —
//! across all three executors, under sharded parallelism, through
//! `run_many`, and over the served TCP path — even when the artifact
//! was written by a *different process* (the `relm_store` bin). Also:
//! memo-evicted plans restore from disk instead of recompiling, and
//! corrupted artifacts fail closed into compilation.

#![forbid(unsafe_code)]

use std::process::Command;

use relm::serve::{spawn, QueryRequest, RelmServer, ServerConfig};
use relm::{
    explain, BpeTokenizer, NGramConfig, NGramLm, Parallelism, QuerySet, QueryString, Relm,
    SearchQuery, SearchStrategy, SessionConfig, TokenizationStrategy,
};

/// The deterministic demonstration corpus the `relm_store` and
/// `relm_server` bins train — training here with the same inputs yields
/// the same tokenizer fingerprint, which is what makes bin-written
/// artifacts loadable in-process.
const DOCS: [&str; 4] = [
    "the cat sat on the mat",
    "the cat sat on the mat",
    "the dog sat on the log",
    "the cow ate the grass",
];

fn fixture() -> (BpeTokenizer, NGramLm) {
    let corpus = DOCS.join(". ");
    let tok = BpeTokenizer::train(&corpus, 80);
    let lm = NGramLm::train(&tok, &DOCS, NGramConfig::xl());
    (tok, lm)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("relm-store-test-{tag}-{}", std::process::id()))
}

/// Run the `relm_store` bin — the cross-process half of these tests.
fn relm_store(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_relm_store"))
        .args(args)
        .output()
        .expect("relm_store bin runs")
}

/// The identity currency: `(text, exact score bits)` per match.
fn bits(matches: &[relm::MatchResult]) -> Vec<(String, u64)> {
    matches
        .iter()
        .map(|m| (m.text.clone(), m.log_prob.to_bits()))
        .collect()
}

#[test]
fn cross_process_warm_equals_cold_for_all_three_executors() {
    let dir = temp_dir("executors");
    let _ = std::fs::remove_dir_all(&dir);
    let pattern = "the ((cat)|(dog)) sat on the ((mat)|(log))";
    let prefix = "the ((cat)|(dog))";

    // Another process compiles (and executes, materializing the walk
    // table) the plan and persists it.
    let out = relm_store(&[
        "compile",
        dir.to_str().unwrap(),
        "--prefix",
        prefix,
        "--take",
        "2",
        pattern,
    ]);
    assert!(
        out.status.success(),
        "relm_store compile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let strategies = [
        SearchStrategy::ShortestPath,
        SearchStrategy::Beam { width: 16 },
        SearchStrategy::RandomSampling { seed: 7 },
    ];
    for strategy in strategies {
        let query = SearchQuery::new(QueryString::new(pattern).with_prefix(prefix))
            .with_strategy(strategy)
            .with_max_tokens(20);

        // Cold: fresh compile, no store anywhere near it.
        let (tok, lm) = fixture();
        let cold = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_parallelism(Parallelism::sharded(4)))
            .build()
            .unwrap();
        let cold_bits = bits(&cold.search(&query).unwrap().take(3).collect::<Vec<_>>());

        // Disk-warm: a fresh process-equivalent session restoring the
        // bin-written artifact on its first (memo-missing) plan.
        let (tok, lm) = fixture();
        let warm = Relm::builder(lm, tok)
            .config(
                SessionConfig::new()
                    .with_parallelism(Parallelism::sharded(4))
                    .with_plan_store(&dir),
            )
            .build()
            .unwrap();
        let warm_bits = bits(&warm.search(&query).unwrap().take(3).collect::<Vec<_>>());
        let stats = warm.stats();
        assert_eq!(stats.store_hits, 1, "served from the bin's artifact");
        assert_eq!(stats.plan_misses, 1, "no recompilation");
        assert_eq!(cold_bits, warm_bits, "strategy {strategy:?} diverged");
        assert!(!warm_bits.is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_process_warm_equals_cold_through_run_many() {
    let dir = temp_dir("run-many");
    let _ = std::fs::remove_dir_all(&dir);
    let out = relm_store(&["compile", dir.to_str().unwrap()]);
    assert!(out.status.success());

    let set = QuerySet::new()
        .with_query(
            SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat")),
            2,
        )
        .with_query(SearchQuery::new(QueryString::new("the cow ate")), 1)
        .with_query(
            SearchQuery::new(QueryString::new("the ((cat)|(cow)) ((sat)|(ate))"))
                .with_strategy(SearchStrategy::RandomSampling { seed: 5 })
                .with_max_tokens(16),
            3,
        );

    let (tok, lm) = fixture();
    let cold = Relm::builder(lm, tok)
        .config(SessionConfig::new().with_parallelism(Parallelism::sharded(4)))
        .build()
        .unwrap();
    let cold_report = cold.run_many(&set).unwrap();

    let (tok, lm) = fixture();
    let warm = Relm::builder(lm, tok)
        .config(
            SessionConfig::new()
                .with_parallelism(Parallelism::sharded(4))
                .with_plan_store(&dir),
        )
        .build()
        .unwrap();
    let warm_report = warm.run_many(&set).unwrap();

    assert_eq!(warm.stats().store_hits, 3, "all three plans from disk");
    for (c, w) in cold_report.outcomes.iter().zip(&warm_report.outcomes) {
        assert_eq!(bits(&c.matches), bits(&w.matches));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_tcp_path_is_byte_identical_from_a_bin_written_store() {
    let dir = temp_dir("serve");
    let _ = std::fs::remove_dir_all(&dir);
    let out = relm_store(&["compile", dir.to_str().unwrap()]);
    assert!(out.status.success());

    // Solo reference over an identically trained model, storeless.
    let (tok, lm) = fixture();
    let solo = Relm::new(lm, tok).unwrap();
    let request = QueryRequest::new(1, "the ((cat)|(dog)) sat", 2);
    let expected = bits(
        &solo
            .search(&request.to_search_query())
            .unwrap()
            .take(2)
            .collect::<Vec<_>>(),
    );

    // A server booted disk-warm from the bin-written store.
    let (tok, lm) = fixture();
    let client = Relm::builder(lm, tok)
        .config(SessionConfig::new().with_plan_store(&dir))
        .build()
        .unwrap();
    let server = RelmServer::with_config(
        client,
        ServerConfig::new()
            .with_preload_store(true)
            .with_flush_store(true),
    );
    let handle = spawn(server, "127.0.0.1:0").unwrap();
    let mut conn = relm::serve::ServeClient::connect(handle.addr()).unwrap();
    conn.send(&relm::serve::Request::Query(request)).unwrap();
    let response = conn.recv().unwrap();
    let served = match &response {
        relm::serve::Response::Matches { matches, .. } => matches
            .iter()
            .map(|m| (m.text.clone(), m.score_bits))
            .collect::<Vec<_>>(),
        other => panic!("expected matches, got {other:?}"),
    };
    assert_eq!(served, expected);
    drop(conn);
    let report = handle.stop().unwrap();
    assert_eq!(report.plans_preloaded, 3, "booted warm from the store");
    assert!(report.store_flush_bytes > 0, "flushed on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memo_eviction_restores_from_disk_instead_of_recompiling() {
    let dir = temp_dir("eviction");
    let _ = std::fs::remove_dir_all(&dir);
    let (tok, lm) = fixture();
    let client = Relm::builder(lm, tok)
        .config(
            SessionConfig::new()
                .with_plan_memo_capacity(1)
                .with_plan_store(&dir),
        )
        .build()
        .unwrap();
    let a = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
    let b = SearchQuery::new(QueryString::new("the cow ate"));
    let first = bits(&client.search(&a).unwrap().take(2).collect::<Vec<_>>());
    let _ = client.search(&b).unwrap().take(1).count(); // evicts `a`
    let again = bits(&client.search(&a).unwrap().take(2).collect::<Vec<_>>());
    assert_eq!(first, again);
    let stats = client.stats();
    assert!(stats.plan_evictions >= 1, "{stats:?}");
    assert_eq!(
        stats.store_hits, 1,
        "the evicted plan came back from disk, not the compiler: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bin_verify_catches_corruption_and_sessions_fall_back() {
    let dir = temp_dir("verify");
    let _ = std::fs::remove_dir_all(&dir);
    let out = relm_store(&["compile", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let verify = relm_store(&["verify", dir.to_str().unwrap()]);
    assert!(verify.status.success(), "pristine store verifies clean");
    let listing = relm_store(&["ls", dir.to_str().unwrap()]);
    assert!(listing.status.success());
    assert!(
        String::from_utf8_lossy(&listing.stdout).contains("3 plan artifacts"),
        "ls reports the compiled plans"
    );

    // Flip one payload byte in every artifact.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
    }
    let verify = relm_store(&["verify", dir.to_str().unwrap()]);
    assert!(
        !verify.status.success(),
        "corrupt store must fail verification"
    );

    // A session over the corrupt store still answers — compilation is
    // the fallback, and the rewrite heals the store.
    let (tok, lm) = fixture();
    let client = Relm::builder(lm, tok)
        .config(SessionConfig::new().with_plan_store(&dir))
        .build()
        .unwrap();
    let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
    let matches: Vec<_> = client.search(&query).unwrap().take(2).collect();
    assert_eq!(matches.len(), 2);
    let stats = client.stats();
    assert_eq!(stats.store_hits, 0);
    assert_eq!(stats.store_misses, 1);
    let verify = relm_store(&["verify", dir.to_str().unwrap()]);
    assert!(
        !verify.status.success(),
        "untouched artifacts are still corrupt"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store another build wrote — every file stamped with a format
/// version that is not this build's — is a store of plain misses:
/// `verify` names each file, a session over it answers bit for bit what
/// a storeless cold client answers, preloads nothing, and leaves behind
/// files this build reads again.
#[test]
fn other_version_store_is_all_misses_and_answers_like_a_cold_compile() {
    let dir = temp_dir("other-version");
    let _ = std::fs::remove_dir_all(&dir);
    let patterns = ["the ((cat)|(dog)) sat", "the cow ate"];
    let mut args = vec!["compile", dir.to_str().unwrap()];
    args.extend(patterns);
    assert!(relm_store(&args).status.success());

    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    assert_eq!(files.len(), patterns.len());
    for path in &files {
        let mut bytes = std::fs::read(path).unwrap();
        assert_eq!(bytes[8..12], relm::FORMAT_VERSION.to_le_bytes());
        bytes[8] = 1;
        std::fs::write(path, bytes).unwrap();
    }
    let verify = relm_store(&["verify", dir.to_str().unwrap()]);
    assert!(!verify.status.success(), "version-1 files must not verify");
    let report = String::from_utf8_lossy(&verify.stdout).into_owned();
    for path in &files {
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(
            report.contains(&format!("FAIL  {name}  store format version 1")),
            "{report}"
        );
    }

    let (tok, lm) = fixture();
    let cold = Relm::builder(lm, tok).build().unwrap();
    let (tok, lm) = fixture();
    let over = Relm::builder(lm, tok)
        .config(SessionConfig::new().with_plan_store(&dir))
        .build()
        .unwrap();
    assert_eq!(
        over.preload_plans().unwrap(),
        0,
        "nothing readable to preload"
    );
    for pattern in patterns {
        let query = SearchQuery::new(QueryString::new(pattern));
        let cold_bits = bits(&cold.search(&query).unwrap().take(2).collect::<Vec<_>>());
        let over_bits = bits(&over.search(&query).unwrap().take(2).collect::<Vec<_>>());
        assert!(!cold_bits.is_empty());
        assert_eq!(over_bits, cold_bits, "{pattern}");
    }
    let stats = over.stats();
    assert_eq!(stats.store_hits, 0);
    assert_eq!(stats.store_misses, patterns.len() as u64);
    // Each miss recompiled and overwrote its file in this build's format.
    let verify = relm_store(&["verify", dir.to_str().unwrap()]);
    assert!(verify.status.success(), "the rewritten store verifies");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A plan file is a function of the plan, not of the host that wrote
/// it: the same sampling search persisted by a serial client and by a
/// four-worker client writes the same bytes, even when the prefix is
/// wide enough for the four-worker client to fill its walk table on
/// the pool.
#[test]
fn plan_files_do_not_depend_on_the_worker_count() {
    // Under all-encodings lowering the prefix token automaton keeps
    // every state of the character automaton: one per byte of a
    // literal, so this prefix clears the pooled walk-table threshold.
    let prefix = DOCS.join(" ");
    let query = SearchQuery::new(
        QueryString::new(format!("{prefix} the ((cat)|(dog))")).with_prefix(prefix.as_str()),
    )
    .with_tokenization(TokenizationStrategy::All)
    .with_strategy(SearchStrategy::RandomSampling { seed: 3 })
    .with_max_tokens(128);
    let (tok, _) = fixture();
    let shape = explain(&query, &tok, 128).unwrap();
    let prefix_states = shape.prefix_machine.expect("query has a prefix").states;
    assert!(prefix_states >= 64, "prefix too small: {prefix_states}");

    let files_written_under = |par: Parallelism, tag: &str| -> Vec<(String, Vec<u8>)> {
        let dir = temp_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let (tok, lm) = fixture();
        let client = Relm::builder(lm, tok)
            .config(
                SessionConfig::new()
                    .with_parallelism(par)
                    .with_plan_store(&dir),
            )
            .build()
            .unwrap();
        let _ = client.search(&query).unwrap().take(1).count();
        assert!(client.persist_plans().unwrap() > 0);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_str().unwrap().to_string();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&dir);
        files
    };
    let serial = files_written_under(Parallelism::Serial, "workers-serial");
    let sharded = files_written_under(Parallelism::sharded(4), "workers-sharded");
    assert_eq!(serial.len(), 1, "one plan file");
    assert!(
        serial == sharded,
        "plan files differ between a serial and a four-worker writer"
    );
}

/// N racing threads compiling the same fresh query behind one shared
/// session (the sharded server's exact shape: N shard threads, one
/// plan store) must elect exactly one writer — one artifact, one
/// write-back's worth of bytes, and no stray temp files from losers.
#[test]
fn concurrent_fresh_compiles_write_back_exactly_once() {
    let dir = temp_dir("concurrent-compile");
    let _ = std::fs::remove_dir_all(&dir);
    let (tok, lm) = fixture();
    let shared = Relm::builder(lm, tok)
        .config(SessionConfig::new().with_plan_store(&dir))
        .build()
        .unwrap();
    let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))"));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                shared.session().plan(&query).unwrap();
            });
        }
    });

    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    let plans: Vec<&String> = names.iter().filter(|n| n.starts_with("plan-")).collect();
    assert_eq!(
        plans.len(),
        1,
        "one artifact, not one per winner: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.contains(".tmp")),
        "losing writers must clean up: {names:?}"
    );

    // One write-back's worth of bytes: the same as a solo session
    // compiling the same query once.
    let solo_dir = temp_dir("concurrent-compile-solo");
    let _ = std::fs::remove_dir_all(&solo_dir);
    let (tok, lm) = fixture();
    let solo = Relm::builder(lm, tok)
        .config(SessionConfig::new().with_plan_store(&solo_dir))
        .build()
        .unwrap();
    solo.session().plan(&query).unwrap();
    assert_eq!(
        shared.stats().store_bytes_written,
        solo.stats().store_bytes_written,
        "racing threads wrote more than one back-copy"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&solo_dir);
}
