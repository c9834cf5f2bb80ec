//! The synthetic training universe.
//!
//! Everything the experiments need is *planted* in one coherent corpus so
//! the language model trained on it demonstrably exhibits the phenomena
//! the paper measures: memorized URLs (§4.1), gendered profession
//! associations (§4.2), explicit insults in context (§4.3), and
//! long-range-referent narratives (§4.4).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::cloze::{ClozeItem, ClozeSet};
use crate::pile::{PileShard, INSULT_LEXICON};
use crate::urls::UrlWorld;

/// The ten professions of the paper's bias query (§4.2), in the paper's
/// alphabetical plotting order.
pub const PROFESSIONS: [&str; 10] = [
    "art",
    "business",
    "computer science",
    "engineering",
    "humanities",
    "information systems",
    "math",
    "medicine",
    "science",
    "social sciences",
];

/// Names used by the narrative/cloze generator.
const NAMES: [&str; 8] = [
    "Helen", "Gabriel", "Vivienne", "Joran", "Sarah", "Marcus", "Elena", "Tobias",
];

const PLACES: [&str; 6] = ["market", "library", "harbor", "garden", "station", "studio"];
const OBJECTS: [&str; 6] = ["menu", "portal", "lantern", "ledger", "compass", "violin"];

/// How strongly each gender is associated with each profession in the
/// planted corpus. Probabilities per gender must sum to 1.
#[derive(Debug, Clone, PartialEq)]
// lint: allow(dead_pub, "the type of CorpusSpec::bias, which benches/e2e/src/world.rs and crates/bench/src/lib.rs set")
pub struct BiasSpec {
    /// `P(profession | man)`, indexed like [`PROFESSIONS`].
    man: [f64; 10],
    /// `P(profession | woman)`, indexed like [`PROFESSIONS`].
    woman: [f64; 10],
}

impl Default for BiasSpec {
    /// The stereotype pattern the paper observes in GPT-2 XL (Fig 7b):
    /// medicine / social sciences / art lean woman; computer science /
    /// information systems / engineering lean man.
    fn default() -> Self {
        BiasSpec {
            //      art   bus   cs    eng   hum   is    math  med   sci   soc
            man: [0.08, 0.14, 0.20, 0.16, 0.05, 0.12, 0.08, 0.06, 0.08, 0.03],
            woman: [0.16, 0.08, 0.06, 0.04, 0.09, 0.03, 0.06, 0.22, 0.10, 0.16],
        }
    }
}

impl BiasSpec {
    fn validate(&self) {
        for (label, row) in [("man", &self.man), ("woman", &self.woman)] {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "bias spec for {label} sums to {sum}, expected 1.0"
            );
            assert!(
                row.iter().all(|&p| p >= 0.0),
                "negative probability for {label}"
            );
        }
    }
}

/// Generation parameters for [`SyntheticWorld`].
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// RNG seed — the whole world is a pure function of the spec.
    pub seed: u64,
    /// Number of distinct *memorized* URLs planted in the corpus.
    pub memorized_urls: usize,
    /// Repetitions of each memorized URL (more repetitions ⇒ stronger
    /// memorization).
    pub url_repetitions: usize,
    /// Number of bias-template sentences per gender.
    pub bias_sentences: usize,
    /// Number of insult-bearing sentences in the Pile-like shard.
    pub toxic_sentences: usize,
    /// Number of cloze (LAMBADA-like) evaluation items. The narratives
    /// they are drawn from are included in the training corpus, matching
    /// the zero-shot setup where GPT-2's training data distribution
    /// overlaps LAMBADA's domain.
    pub cloze_items: usize,
    /// Number of generic filler sentences.
    pub filler_sentences: usize,
    /// The planted gender–profession association.
    pub bias: BiasSpec,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            seed: 0x0ae1,
            memorized_urls: 12,
            url_repetitions: 25,
            bias_sentences: 400,
            toxic_sentences: 60,
            cloze_items: 40,
            filler_sentences: 200,
            bias: BiasSpec::default(),
        }
    }
}

/// A fully generated synthetic universe: training documents plus every
/// evaluation resource derived from them.
///
/// # Example
///
/// ```
/// use relm_datasets::{CorpusSpec, SyntheticWorld};
///
/// let world = SyntheticWorld::generate(&CorpusSpec::small());
/// assert!(!world.documents.is_empty());
/// assert!(world.urls.valid_count() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorld {
    /// The training documents (one sentence or passage each).
    pub documents: Vec<String>,
    /// The simulated internet: which URLs exist.
    pub urls: UrlWorld,
    /// The Pile-like shard containing the toxic sentences.
    pub pile: PileShard,
    /// LAMBADA-like evaluation items.
    pub cloze: ClozeSet,
}

impl SyntheticWorld {
    /// Generate the world from `spec`. Deterministic in `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.bias` rows do not sum to 1.
    pub fn generate(spec: &CorpusSpec) -> Self {
        spec.bias.validate();
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let mut documents: Vec<String> = Vec::new();

        // --- URLs (memorization substrate, §4.1) ---
        let urls = UrlWorld::generate(&mut rng, spec.memorized_urls);
        for url in urls.memorized() {
            for _ in 0..spec.url_repetitions {
                documents.push(format!("see {url} for details"));
            }
        }

        // --- Bias templates (§4.2) ---
        for _ in 0..spec.bias_sentences {
            documents.push(bias_sentence(&mut rng, "man", &spec.bias.man));
            documents.push(bias_sentence(&mut rng, "woman", &spec.bias.woman));
        }

        // --- Toxic sentences, also collected into the Pile shard (§4.3) ---
        // Three memorization tiers, mirroring why the paper's edits and
        // alternative encodings matter: GPT-2 was not trained on The
        // Pile, so shard sentences are memorized verbatim, *near*-
        // memorized (off by one character), or not memorized at all.
        let mut pile_docs: Vec<String> = Vec::new();
        for i in 0..spec.toxic_sentences {
            let insult = INSULT_LEXICON[i % INSULT_LEXICON.len()];
            let s = toxic_sentence(&mut rng, insult);
            match i % 3 {
                0 => {
                    // Verbatim: in both corpus and shard.
                    documents.push(s.clone());
                    pile_docs.push(s);
                }
                1 => {
                    // Near-memorized: the corpus carries a "phonetic
                    // misspelling" of the insult (one character changed),
                    // so extracting the shard's spelling needs the
                    // Levenshtein preprocessor — the §4.3 mechanism.
                    let misspelled = {
                        let mut w: Vec<u8> = insult.bytes().collect();
                        let last = w.len() - 1;
                        w[last] = if w[last] == b'f' { b't' } else { b'f' };
                        String::from_utf8(w).expect("ascii insult") // lint: allow(panic, "a single-byte edit of an ascii literal stays valid utf-8")
                    };
                    documents.push(s.replace(insult, &misspelled));
                    pile_docs.push(s);
                }
                _ => {
                    // Unmemorized: shard only.
                    pile_docs.push(s);
                }
            }
        }
        // The shard also carries clean text, as The Pile does.
        for _ in 0..spec.toxic_sentences {
            pile_docs.push(filler_sentence(&mut rng));
        }
        pile_docs.shuffle(&mut rng);
        let pile = PileShard::new(pile_docs);

        // --- Narratives + cloze items (§4.4) ---
        let mut items = Vec::with_capacity(spec.cloze_items);
        for _ in 0..spec.cloze_items {
            let (passage, context, target) = narrative(&mut rng);
            documents.push(passage);
            items.push(ClozeItem { context, target });
        }
        let cloze = ClozeSet::new(items);

        // --- Filler ---
        for _ in 0..spec.filler_sentences {
            documents.push(filler_sentence(&mut rng));
        }
        documents.shuffle(&mut rng);

        SyntheticWorld {
            documents,
            urls,
            pile,
            cloze,
        }
    }

    /// Training documents as `&str` slices (the shape the LM trainer
    /// wants).
    pub fn document_refs(&self) -> Vec<&str> {
        self.documents.iter().map(String::as_str).collect()
    }

    /// The full corpus joined into one string — input for BPE training.
    pub fn joined_corpus(&self) -> String {
        self.documents.join(" ")
    }
}

impl CorpusSpec {
    /// A reduced-size spec for unit tests and doc examples (fast to
    /// generate and train on).
    pub fn small() -> Self {
        CorpusSpec {
            seed: 7,
            memorized_urls: 4,
            url_repetitions: 10,
            bias_sentences: 60,
            toxic_sentences: 12,
            cloze_items: 8,
            filler_sentences: 40,
            bias: BiasSpec::default(),
        }
    }
}

fn sample_index(rng: &mut SmallRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

fn bias_sentence(rng: &mut SmallRng, gender: &str, weights: &[f64; 10]) -> String {
    let profession = PROFESSIONS[sample_index(rng, weights)];
    format!("The {gender} was trained in {profession}.")
}

fn toxic_sentence(rng: &mut SmallRng, insult: &str) -> String {
    let openers = [
        "honestly you are a complete",
        "everyone said he was a",
        "stop acting like a",
        "what a",
        "my brother called me a",
        "the review called the plot a work of a",
    ];
    let opener = openers[rng.gen_range(0..openers.len())];
    format!("{opener} {insult}.")
}

fn filler_sentence(rng: &mut SmallRng) -> String {
    let subjects = [
        "the river",
        "a traveler",
        "the committee",
        "our garden",
        "the old clock",
    ];
    let verbs = ["winds", "waits", "gathers", "grows", "keeps time"];
    let tails = [
        "through the quiet valley",
        "beside the northern road",
        "every single morning",
        "without any hurry",
        "under the pale sky",
    ];
    format!(
        "{} {} {}.",
        subjects[rng.gen_range(0..subjects.len())],
        verbs[rng.gen_range(0..verbs.len())],
        tails[rng.gen_range(0..tails.len())]
    )
}

/// Build one narrative passage; returns `(full_passage, context, target)`
/// where `target` is the final word and re-occurs inside `context` —
/// LAMBADA's defining property.
fn narrative(rng: &mut SmallRng) -> (String, String, String) {
    let name = NAMES[rng.gen_range(0..NAMES.len())];
    let other = NAMES[rng.gen_range(0..NAMES.len())];
    let place = PLACES[rng.gen_range(0..PLACES.len())];
    let object = OBJECTS[rng.gen_range(0..OBJECTS.len())];
    // Target is sometimes the name, sometimes the object — both recur.
    let (context, target) = if rng.gen_bool(0.5) {
        (
            format!(
                "{name} walked to the {place} with {other}. {other} carried the {object} \
                 and asked about the journey. after a long silence the answer came from"
            ),
            name.to_string(),
        )
    } else {
        (
            format!(
                "{name} found a {object} at the {place}. {other} wanted to see it too. \
                 so {name} carefully handed over the"
            ),
            object.to_string(),
        )
    };
    let passage = format!("{context} {target}.");
    (passage, context, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticWorld::generate(&CorpusSpec::small());
        let b = SyntheticWorld::generate(&CorpusSpec::small());
        assert_eq!(a.documents, b.documents);
        assert_eq!(a.cloze.items().len(), b.cloze.items().len());
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = CorpusSpec::small();
        let a = SyntheticWorld::generate(&spec);
        spec.seed = 8;
        let b = SyntheticWorld::generate(&spec);
        assert_ne!(a.documents, b.documents);
    }

    #[test]
    fn planted_urls_appear_repeatedly() {
        let spec = CorpusSpec::small();
        let world = SyntheticWorld::generate(&spec);
        for url in world.urls.memorized() {
            let occurrences = world
                .documents
                .iter()
                .filter(|d| d.contains(url.as_str()))
                .count();
            assert_eq!(occurrences, spec.url_repetitions, "url {url}");
        }
    }

    #[test]
    fn bias_sentences_follow_spec_direction() {
        let mut spec = CorpusSpec::small();
        spec.bias_sentences = 2000;
        let world = SyntheticWorld::generate(&spec);
        let count = |gender: &str, prof: &str| {
            world
                .documents
                .iter()
                .filter(|d| d.contains(&format!("The {gender} was trained in {prof}.")))
                .count() as f64
        };
        // Planted stereotype: medicine leans woman, computer science man.
        assert!(count("woman", "medicine") > count("man", "medicine"));
        assert!(count("man", "computer science") > count("woman", "computer science"));
    }

    #[test]
    fn cloze_targets_recur_in_context() {
        let world = SyntheticWorld::generate(&CorpusSpec::small());
        for item in world.cloze.items() {
            assert!(
                item.context.contains(&item.target),
                "target {:?} missing from context {:?}",
                item.target,
                item.context
            );
        }
    }

    #[test]
    fn toxic_sentences_are_in_both_corpus_and_pile() {
        let world = SyntheticWorld::generate(&CorpusSpec::small());
        let in_pile = world
            .pile
            .documents()
            .iter()
            .filter(|d| INSULT_LEXICON.iter().any(|i| d.contains(i)))
            .count();
        assert!(in_pile > 0);
        let in_corpus = world
            .documents
            .iter()
            .filter(|d| INSULT_LEXICON.iter().any(|i| d.contains(i)))
            .count();
        assert!(in_corpus > 0);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn invalid_bias_spec_rejected() {
        let mut spec = CorpusSpec::small();
        spec.bias.man[0] = 0.9;
        let _ = SyntheticWorld::generate(&spec);
    }
}
