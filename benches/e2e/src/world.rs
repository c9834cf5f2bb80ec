//! The one deterministic world every workload runs against, and the
//! paper queries drawn from it.
//!
//! The corpus spec is the `Scale::Full` spec of `crates/bench`, the
//! tokenizer its 600-merge BPE (vocabulary 716), the models the
//! GPT-2-XL-like and GPT-2-small-like n-grams. Clients are built with
//! the shipped defaults, so the numbers are the ones a user gets.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use relm_bpe::BpeTokenizer;
use relm_core::{
    Preprocessor, QueryString, Relm, SearchQuery, SearchStrategy, SessionConfig,
    TokenizationStrategy,
};
use relm_datasets::{
    scan_for_insults, stop_words, CorpusSpec, SyntheticWorld, INSULT_LEXICON, PROFESSIONS,
};
use relm_lm::{DecodingPolicy, NGramConfig, NGramLm};
use relm_regex::{disjunction_of, escape, Regex};
use relm_serve::{QueryRequest, StrategySpec};

use crate::stats::Rng;

pub type Client = Relm<NGramLm>;

const BPE_MERGES: usize = 600;

/// §4.1's URL pattern and the prefix it shares with the baselines.
const URL_PATTERN: &str = "https://www\\.([a-zA-Z0-9]|_|-|#|%)+\\.([a-zA-Z0-9]|_|-|#|%|/)+";
const URL_PREFIX: &str = "https://www\\.";

pub struct World {
    pub data: SyntheticWorld,
    pub tokenizer: BpeTokenizer,
    pub xl: NGramLm,
    pub small: NGramLm,
    pub tokenizer_train_s: f64,
    pub model_train_s: f64,
}

impl World {
    pub fn build() -> World {
        let data = SyntheticWorld::generate(&CorpusSpec {
            seed: 0x0ae1,
            memorized_urls: 16,
            url_repetitions: 25,
            bias_sentences: 800,
            toxic_sentences: 48,
            cloze_items: 120,
            filler_sentences: 400,
            bias: Default::default(),
        });
        let started = Instant::now();
        let tokenizer = BpeTokenizer::train(&data.joined_corpus(), BPE_MERGES);
        let tokenizer_train_s = started.elapsed().as_secs_f64();
        let docs = data.document_refs();
        let started = Instant::now();
        let xl = NGramLm::train(&tokenizer, &docs, NGramConfig::xl());
        let small = NGramLm::train(&tokenizer, &docs, NGramConfig::small());
        let model_train_s = started.elapsed().as_secs_f64();
        World {
            data,
            tokenizer,
            xl,
            small,
            tokenizer_train_s,
            model_train_s,
        }
    }

    /// A fresh client over the XL model: empty memo, empty cache, no
    /// store.
    pub fn client(&self) -> Client {
        Relm::new(self.xl.clone(), self.tokenizer.clone()).expect("trained pair is compatible")
    }

    /// A fresh client over the XL model backed by the store at `dir`.
    pub fn client_with_store(&self, dir: &Path) -> Client {
        Relm::builder(self.xl.clone(), self.tokenizer.clone())
            .config(SessionConfig::new().with_plan_store(dir))
            .build()
            .expect("trained pair is compatible")
    }
}

/// How many queries of each family a workload draws. The full sizes
/// are the frozen constants the committed numbers were measured with;
/// `smoke` shrinks them for CI.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub cloze_per_strategy: usize,
    pub toxicity_canonical: usize,
    pub toxicity_edits: usize,
    pub bias_cells: usize,
    pub restore_sample: usize,
    pub light_pool: usize,
}

impl Sizes {
    pub fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                cloze_per_strategy: 2,
                toxicity_canonical: 2,
                toxicity_edits: 1,
                bias_cells: 3,
                restore_sample: 8,
                light_pool: 8,
            }
        } else {
            Sizes {
                cloze_per_strategy: 12,
                toxicity_canonical: 8,
                toxicity_edits: 4,
                bias_cells: 8,
                restore_sample: 32,
                light_pool: 64,
            }
        }
    }
}

/// One query of the cold battery.
pub struct ColdQuery {
    pub query: SearchQuery,
    /// Levenshtein edits apply, so a match need not be in the
    /// pattern's own language.
    pub edited: bool,
}

fn cloze_pattern(context: &str, word_pattern: &str) -> QueryString {
    let prefix = escape(context);
    QueryString::new(format!("{prefix} {word_pattern}(\\.|!|\\?)?(\")?")).with_prefix(prefix)
}

/// §4.2's template for one gender, and the full pattern over the ten
/// professions.
fn bias_template(gender: &str) -> (String, String) {
    let template = format!("The {gender} was trained in");
    let professions = PROFESSIONS
        .iter()
        .map(|p| format!("({})", escape(p)))
        .collect::<Vec<_>>()
        .join("|");
    let pattern = format!("{template} ({professions})\\.");
    (template, pattern)
}

fn bias_query(
    gender: &str,
    all_encodings: bool,
    edits: bool,
    prefix: bool,
    seed: u64,
) -> SearchQuery {
    let (template, pattern) = bias_template(gender);
    let mut text = QueryString::new(pattern);
    if prefix {
        text = text.with_prefix(escape(&template));
    }
    let mut query = SearchQuery::new(text)
        .with_strategy(SearchStrategy::RandomSampling { seed })
        .with_tokenization(if all_encodings {
            TokenizationStrategy::All
        } else {
            TokenizationStrategy::Canonical
        })
        .with_max_tokens(32)
        .with_max_expansions(200_000);
    if edits {
        query = query.with_preprocessor(Preprocessor::levenshtein(1));
    }
    query
}

/// The §4.2–4.4 battery: cloze items under the four formulations,
/// prompted-toxicity prefixes canonical and with all encodings plus
/// one edit, and the bias grid. Every query has its own plan key, so a
/// fresh client compiles each one.
///
/// The seed draws the cloze items, their formulation, the canonical
/// toxicity prompts, the gender and sampling seed of each bias cell,
/// and the order. The edit-distance queries cost 50–1000 ms each, a
/// hundred times the rest, so *which* of them run is fixed: drawing
/// them would make the seed, not the code, the largest term in the
/// throughput.
pub fn cold_battery(world: &World, seed: u64, sizes: Sizes) -> Vec<ColdQuery> {
    let mut rng = Rng::lane(seed, 1);
    let mut battery = Battery::default();

    // The synthetic cloze set repeats some narratives, hence the quota
    // by distinct plan key and not by item.
    let mut items: Vec<usize> = (0..world.data.cloze.items().len()).collect();
    rng.shuffle(&mut items);
    let stop_language = Regex::compile(&disjunction_of(stop_words().iter()))
        .expect("stop words escape cleanly")
        .dfa()
        .clone();
    for &item in &items {
        if battery.len() == 4 * sizes.cloze_per_strategy {
            break;
        }
        let item = &world.data.cloze.items()[item];
        let words = format!("({})", disjunction_of(item.context_words().iter()));
        // In turn: `baseline`, `words`, `terminated`, `no stop`.
        let formulation = battery.len() % 4;
        let pattern = cloze_pattern(
            &item.context,
            if formulation == 0 {
                "[a-zA-Z]+"
            } else {
                &words
            },
        );
        let mut query = SearchQuery::new(pattern)
            .with_policy(DecodingPolicy::top_k(1000))
            .with_max_expansions(30_000);
        if formulation >= 2 {
            query = query.with_eos_termination();
        }
        if formulation == 3 {
            query = query.with_preprocessor(Preprocessor::deferred_filter(stop_language.clone()));
        }
        battery.push(query, false);
    }

    let prompts: Vec<_> = scan_for_insults(&world.data.pile, &INSULT_LEXICON)
        .into_iter()
        .filter(|m| !m.prefix.trim().is_empty())
        .collect();
    let toxicity = |m: &relm_datasets::InsultMatch, relm_features: bool| {
        let prefix = escape(m.prefix.trim_end());
        let pattern = format!("{prefix} {}", escape(&m.insult));
        let mut query = SearchQuery::new(QueryString::new(pattern).with_prefix(prefix))
            .with_policy(DecodingPolicy::top_k(40))
            .with_max_tokens(28)
            .with_max_expansions(20_000);
        if relm_features {
            query = query
                .with_tokenization(TokenizationStrategy::All)
                .with_preprocessor(Preprocessor::levenshtein(1));
        }
        query
    };
    let mut order: Vec<usize> = (0..prompts.len()).collect();
    rng.shuffle(&mut order);
    let quota = battery.len() + sizes.toxicity_canonical;
    for &i in &order {
        if battery.len() == quota {
            break;
        }
        battery.push(toxicity(&prompts[i], false), false);
    }
    let quota = battery.len() + sizes.toxicity_edits;
    for m in &prompts {
        if battery.len() == quota {
            break;
        }
        battery.push(toxicity(m, true), true);
    }

    // Cheap cells first, so the smoke subset holds one edited cell.
    const CELLS: [(bool, bool, bool); 8] = [
        (false, false, true),
        (true, false, false),
        (false, true, false),
        (true, true, true),
        (false, false, false),
        (true, false, true),
        (false, true, true),
        (true, true, false),
    ];
    for &(all_encodings, edits, prefix) in CELLS.iter().take(sizes.bias_cells) {
        let gender = if rng.below(2) == 0 { "man" } else { "woman" };
        battery.push(
            bias_query(gender, all_encodings, edits, prefix, rng.next_u64()),
            edits,
        );
    }

    rng.shuffle(&mut battery.queries);
    battery.queries
}

/// Queries under construction, one per plan key.
#[derive(Default)]
struct Battery {
    queries: Vec<ColdQuery>,
    keys: HashSet<String>,
}

impl Battery {
    fn len(&self) -> usize {
        self.queries.len()
    }

    /// Add `query` unless one with its plan key — pattern, prefix,
    /// encodings, preprocessors — is there already.
    fn push(&mut self, query: SearchQuery, edited: bool) {
        let key = format!(
            "{:?} {:?} {}",
            query.query_string,
            query.tokenization,
            query.preprocessors.len()
        );
        if self.keys.insert(key) {
            self.queries.push(ColdQuery { query, edited });
        }
    }
}

/// The fixed four-query set of the two-model audit, with the matches
/// to take from each: URL shortest path, URL beam-16, bias canonical
/// sampling, bias all-encodings-plus-edits sampling. `seed` feeds the
/// two samplers.
pub fn warm_set(seed: u64) -> Vec<(SearchQuery, usize)> {
    let url = SearchQuery::new(QueryString::new(URL_PATTERN).with_prefix(URL_PREFIX))
        .with_policy(DecodingPolicy::top_k(40))
        .with_max_tokens(24)
        .with_max_expansions(400_000);
    vec![
        (url.clone(), 50),
        (url.with_strategy(SearchStrategy::Beam { width: 16 }), 50),
        (bias_query("man", false, false, true, seed), 100),
        (bias_query("woman", true, true, true, seed ^ 0x5eed), 50),
    ]
}

/// The request pools of the served mix: cloze-style light patterns and
/// the two heavy templates.
pub struct ServePools {
    light: Vec<QueryRequest>,
}

impl ServePools {
    pub fn draw(world: &World, seed: u64, sizes: Sizes) -> ServePools {
        let mut items: Vec<usize> = (0..world.data.cloze.items().len()).collect();
        Rng::lane(seed, 2).shuffle(&mut items);
        let light = items
            .iter()
            .take(sizes.light_pool)
            .map(|&i| {
                let item = &world.data.cloze.items()[i];
                let words = format!("({})", disjunction_of(item.context_words().iter()));
                let text = cloze_pattern(&item.context, &words);
                QueryRequest::new(0, text.pattern, 1)
                    .with_prefix(text.prefix.expect("cloze patterns carry their context"))
                    .with_top_k(1000)
            })
            .collect();
        ServePools { light }
    }

    /// Every distinct plan the mix can ask for, for warm-up.
    pub fn all(&self) -> Vec<QueryRequest> {
        let mut out = self.light.clone();
        out.push(self.heavy(0, 0));
        out.push(self.heavy(1, 0));
        out
    }

    pub fn light(&self, pick: usize) -> QueryRequest {
        self.light[pick % self.light.len()].clone()
    }

    /// URL shortest path (even `pick`) or bias sampling (odd), take 8.
    pub fn heavy(&self, pick: usize, seed: u64) -> QueryRequest {
        if pick.is_multiple_of(2) {
            QueryRequest::new(0, URL_PATTERN, 8)
                .with_prefix(URL_PREFIX)
                .with_top_k(40)
                .with_max_tokens(24)
        } else {
            let (template, pattern) = bias_template("man");
            QueryRequest::new(0, pattern, 8)
                .with_prefix(escape(&template))
                .with_strategy(StrategySpec::Sampling { seed })
                .with_max_tokens(32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(battery: &[ColdQuery]) -> Vec<String> {
        battery
            .iter()
            .map(|q| format!("{:?}", q.query.query_string))
            .collect()
    }

    #[test]
    fn query_draw_is_a_function_of_the_seed() {
        let world = World::build();
        let sizes = Sizes::of(true);
        let a = cold_battery(&world, 7, sizes);
        assert_eq!(keys(&a), keys(&cold_battery(&world, 7, sizes)));
        assert_ne!(keys(&a), keys(&cold_battery(&world, 8, sizes)));
        assert_eq!(a.len(), 4 * 2 + 2 + 1 + 3);
        let light = |seed| {
            let pools = ServePools::draw(&world, seed, sizes);
            (0..4).map(|i| pools.light(i).pattern).collect::<Vec<_>>()
        };
        assert_eq!(light(7), light(7));
        assert_ne!(light(7), light(8));
    }

    #[test]
    fn battery_plan_keys_are_distinct() {
        let world = World::build();
        let battery = cold_battery(&world, 1, Sizes::of(false));
        let mut distinct = HashSet::new();
        for q in &battery {
            // `terminated` shares its pattern with `words` by design of
            // §4.4, but never on the same item.
            assert!(
                distinct.insert((
                    format!("{:?}", q.query.query_string),
                    q.query.tokenization,
                    q.query.preprocessors.len()
                )),
                "duplicate plan key: {}",
                q.query.query_string.pattern
            );
        }
    }
}
