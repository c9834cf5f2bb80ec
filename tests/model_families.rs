//! The same ReLM queries executed over two *different model families* —
//! the count-based n-gram and the from-scratch neural LM — demonstrating
//! that the engine is model-agnostic (the paper's planned extension,
//! §6), plus the beam-search traversal added on top of the paper's two.

#![forbid(unsafe_code)]

use relm::{
    BpeTokenizer, DecodingPolicy, LanguageModel, NGramConfig, NGramLm, NeuralLm, NeuralLmConfig,
    QueryString, Regex, Relm, SearchQuery, SearchStrategy,
};

fn corpus() -> (BpeTokenizer, Vec<&'static str>) {
    let docs = vec![
        "the cat sat on the mat",
        "the cat sat on the mat",
        "the cat sat on the mat",
        "the dog sat on the log",
    ];
    let tok = BpeTokenizer::train("the cat sat on the mat. the dog sat on the log.", 60);
    (tok, docs)
}

fn run_query<M: LanguageModel>(
    model: &M,
    tok: &BpeTokenizer,
    strategy: SearchStrategy,
) -> Vec<String> {
    let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"))
        .with_strategy(strategy)
        .with_policy(DecodingPolicy::top_k(1000));
    Relm::new(model, tok.clone())
        .unwrap()
        .search(&query)
        .unwrap()
        .take(4)
        .map(|m| m.text)
        .collect()
}

#[test]
fn ngram_and_neural_agree_on_the_dominant_string() {
    let (tok, docs) = corpus();
    let ngram = NGramLm::train(&tok, &docs, NGramConfig::xl());
    let neural = NeuralLm::train(
        &tok,
        &docs,
        NeuralLmConfig {
            epochs: 25,
            ..NeuralLmConfig::default()
        },
    );
    let from_ngram = run_query(&ngram, &tok, SearchStrategy::ShortestPath);
    let from_neural = run_query(&neural, &tok, SearchStrategy::ShortestPath);
    // Both model families must rank the 3x-repeated sentence first.
    assert_eq!(from_ngram[0], "the cat sat");
    assert_eq!(
        from_neural[0], "the cat sat",
        "neural LM should memorize the dominant string"
    );
}

#[test]
fn all_three_traversals_work_on_the_neural_model() {
    let (tok, docs) = corpus();
    let neural = NeuralLm::train(&tok, &docs, NeuralLmConfig::default());
    let re = Regex::compile("the ((cat)|(dog)) sat").unwrap();
    for strategy in [
        SearchStrategy::ShortestPath,
        SearchStrategy::Beam { width: 8 },
        SearchStrategy::RandomSampling { seed: 3 },
    ] {
        let results = run_query(&neural, &tok, strategy);
        assert!(!results.is_empty(), "{strategy:?} found nothing");
        for t in &results {
            assert!(re.is_match(t), "{strategy:?} emitted {t:?}");
        }
    }
}

#[test]
fn cached_wrapper_composes_with_neural_model() {
    // The session's scoring cache memoizes any model family.
    let (tok, docs) = corpus();
    let neural = NeuralLm::train(&tok, &docs, NeuralLmConfig::default());
    let client = Relm::new(&neural, tok).unwrap();
    let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"))
        .with_policy(DecodingPolicy::top_k(1000));
    let results: Vec<_> = client.search(&query).unwrap().take(4).collect();
    assert!(!results.is_empty());
    assert!(
        client.stats().scoring.entries > 0,
        "search should populate the cache"
    );
}

#[test]
fn beam_and_dijkstra_agree_at_large_width() {
    let (tok, docs) = corpus();
    let ngram = NGramLm::train(&tok, &docs, NGramConfig::xl());
    let dijkstra = run_query(&ngram, &tok, SearchStrategy::ShortestPath);
    let beam = run_query(&ngram, &tok, SearchStrategy::Beam { width: 128 });
    assert_eq!(dijkstra, beam);
}
