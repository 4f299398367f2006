//! Property tests for domain categorization.

use proptest::prelude::*;
use spector_vtcat::{DomainCategory, Tokenizer, VendorOracle};

fn category() -> impl Strategy<Value = DomainCategory> {
    prop::sample::select(DomainCategory::ALL.to_vec())
}

/// Labels the vendors repeat across domains, some differing only in
/// case, some tokenizing to several categories or to none.
const SHARED_LABELS: [&str; 12] = [
    "advertising",
    "Advertising",
    "ADVERTISING",
    "online games",
    "Online Games",
    "news",
    "IM and chat",
    "animation",
    "bot network",
    "robots",
    "",
    "xyzzy",
];

/// A domain table: per domain, up to eight labels drawn mostly from
/// [`SHARED_LABELS`] (so most repeat within and across domains) and
/// sometimes made up.
fn domain_table() -> impl Strategy<Value = Vec<Vec<String>>> {
    let label = prop_oneof![
        prop::sample::select(SHARED_LABELS.to_vec()).prop_map(str::to_owned),
        prop::sample::select(SHARED_LABELS.to_vec()).prop_map(str::to_owned),
        "[a-zA-Z ]{0,16}",
    ];
    proptest::collection::vec(proptest::collection::vec(label, 0..8), 0..24)
}

proptest! {
    #[test]
    fn tokenize_never_panics_and_yields_known_categories(label in ".{0,60}") {
        let tokenizer = Tokenizer::new();
        for category in tokenizer.tokenize(&label) {
            prop_assert!(DomainCategory::ALL.contains(&category));
            prop_assert_ne!(category, DomainCategory::Unknown);
        }
    }

    #[test]
    fn tokenize_results_are_unique_and_in_table_order(label in "[a-z ]{0,40}") {
        let tokenizer = Tokenizer::new();
        let tokens = tokenizer.tokenize(&label);
        let mut sorted = tokens.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), tokens.len(), "duplicates in {:?}", tokens);
        // Table order == DomainCategory::ALL order.
        for window in tokens.windows(2) {
            let a = DomainCategory::ALL.iter().position(|c| *c == window[0]).unwrap();
            let b = DomainCategory::ALL.iter().position(|c| *c == window[1]).unwrap();
            prop_assert!(a < b);
        }
    }

    #[test]
    fn classify_is_deterministic(labels in proptest::collection::vec("[a-z ]{0,30}", 0..6)) {
        let tokenizer = Tokenizer::new();
        prop_assert_eq!(tokenizer.classify(&labels), tokenizer.classify(&labels));
    }

    #[test]
    fn classify_of_repeated_label_equals_first_token(label in "[a-z ]{1,30}") {
        let tokenizer = Tokenizer::new();
        let tokens = tokenizer.tokenize(&label);
        let repeated = vec![label.clone(), label.clone(), label];
        let classified = tokenizer.classify(&repeated);
        match tokens.first() {
            Some(first) => prop_assert_eq!(classified, *first),
            None => prop_assert_eq!(classified, DomainCategory::Unknown),
        }
    }

    #[test]
    fn noise_free_oracle_recovers_truth(domain in "[a-z]{3,12}\\.[a-z]{2,5}",
                                        truth in category()) {
        prop_assume!(truth != DomainCategory::Unknown);
        let oracle = VendorOracle { coverage: 1.0, mislabel: 0.0, seed: 5 };
        let tokenizer = Tokenizer::new();
        let labels = oracle.labels(&domain, truth);
        prop_assert_eq!(labels.len(), spector_vtcat::oracle::VENDOR_COUNT);
        prop_assert_eq!(tokenizer.classify(&labels), truth);
    }

    #[test]
    fn domain_table_equals_classify_per_domain(domains in domain_table()) {
        let tokenizer = Tokenizer::new();
        let table = tokenizer.classify_domains(
            domains.iter().enumerate().map(|(i, labels)| (i, labels.as_slice())),
        );
        prop_assert_eq!(table.len(), domains.len());
        for (i, labels) in domains.iter().enumerate() {
            prop_assert_eq!(table[&i], tokenizer.classify(labels), "labels {:?}", labels);
        }
    }

    #[test]
    fn oracle_is_seed_deterministic(domain in "[a-z]{3,12}", truth in category(), seed in any::<u64>()) {
        let a = VendorOracle::new(seed).labels(&domain, truth);
        let b = VendorOracle::new(seed).labels(&domain, truth);
        prop_assert_eq!(a, b);
    }
}
