//! Property tests for library detection and the categorization
//! heuristics.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use spector_dex::model::{CodeItem, DexFile, Instruction, MethodDef, MethodRef};
use spector_dex::sig::MethodSig;
use spector_dex::{write_dex, DexView, FeatureTable, PackageTree, Sha256};
use spector_libradar::detect::LibraryFingerprint;
use spector_libradar::structural::within_band;
use spector_libradar::{
    AggregatedLibraries, LibCategory, LibraryDb, LibraryLists, StructuralIndex, MIN_MATCH_FEATURES,
};

#[path = "support/fingerprint.rs"]
mod fingerprint;
#[path = "support/listing2.rs"]
mod listing2;
#[path = "../../dex/tests/support/ragged.rs"]
mod ragged;
#[path = "../../dex/tests/support/subtree.rs"]
mod subtree;
#[path = "support/tables.rs"]
mod tables;

use fingerprint::fingerprint_subtree;
use ragged::ragged_dex;
use subtree::subtree_profile;
use tables::{add_library, detect, table_fingerprint};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,5}"
}

fn package() -> impl Strategy<Value = String> {
    proptest::collection::vec(ident(), 1..4).prop_map(|parts| parts.join("."))
}

/// Packages over a three-letter alphabet: shared prefixes, siblings
/// and tied Listing 2 votes are common, unlike in [`package`].
fn dense_package() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop::sample::select(vec!["a", "b", "c"]), 1..5)
        .prop_map(|parts| parts.join("."))
}

fn category() -> impl Strategy<Value = LibCategory> {
    prop::sample::select(LibCategory::ALL.to_vec())
}

/// A deterministic little library body rooted at `root`.
fn library_dex(root: &str, salt: u8) -> DexFile {
    let methods = (0..4 + usize::from(salt % 3))
        .map(|i| MethodDef {
            sig: MethodSig::new(
                &format!("{root}{}", if i % 2 == 0 { "" } else { ".inner" }),
                &format!("C{i}"),
                &format!("m{i}"),
                "()V",
            ),
            code: CodeItem {
                instructions: vec![
                    Instruction::Const(u32::from(salt) + i as u32),
                    Instruction::Return,
                ],
            },
        })
        .collect();
    DexFile {
        methods,
        classes: vec![],
    }
}

proptest! {
    #[test]
    fn fingerprint_is_rename_invariant(a in package(), b in package(), salt in any::<u8>()) {
        prop_assume!(a != b);
        let fp_a = table_fingerprint(&library_dex(&a, salt), &a);
        let fp_b = table_fingerprint(&library_dex(&b, salt), &b);
        prop_assert_eq!(fp_a, fp_b);
    }

    #[test]
    fn fingerprint_tracks_structure_not_operands(root in package(), s1 in any::<u8>(), s2 in any::<u8>()) {
        // Structure differs only via the method count (salt % 3): same
        // count ⇒ same fingerprint (operand values are invisible, like
        // LibRadar's obfuscation-resilient features), different count ⇒
        // different fingerprint.
        let fp1 = table_fingerprint(&library_dex(&root, s1), &root);
        let fp2 = table_fingerprint(&library_dex(&root, s2), &root);
        if s1 % 3 == s2 % 3 {
            prop_assert_eq!(fp1, fp2);
        } else {
            prop_assert_ne!(fp1, fp2);
        }
    }

    #[test]
    fn detection_finds_registered_library_under_any_name(
        canonical in package(),
        in_app in package(),
        salt in any::<u8>(),
        cat in category(),
    ) {
        let mut db = LibraryDb::new();
        add_library(&mut db, &canonical, cat, &library_dex(&canonical, salt));
        let app = library_dex(&in_app, salt);
        let detected = detect(&db, &app);
        prop_assert!(
            detected.iter().any(|d| d.name == canonical && d.in_app_prefix == in_app),
            "library not recognized under {in_app}"
        );
    }

    #[test]
    fn longest_prefix_is_a_real_prefix(names in proptest::collection::btree_set(package(), 1..12),
                                       query in package()) {
        let mut agg = AggregatedLibraries::new();
        for name in &names {
            agg.record(name, LibCategory::Utility);
        }
        if let Some(found) = agg.longest_matching_prefix(&query) {
            prop_assert!(names.contains(found));
            let dotted = format!("{}.", found);
            let is_prefix = query == found || query.starts_with(&dotted);
            prop_assert!(is_prefix);
            // No longer candidate exists.
            for name in &names {
                let name_dotted = format!("{}.", name);
                if query == *name || query.starts_with(&name_dotted) {
                    prop_assert!(name.len() <= found.len());
                }
            }
        } else {
            for name in &names {
                let name_dotted = format!("{}.", name);
                let unrelated = query != *name && !query.starts_with(&name_dotted);
                prop_assert!(unrelated);
            }
        }
    }

    #[test]
    fn predict_category_never_panics_and_is_deterministic(
        entries in proptest::collection::vec((package(), category()), 0..12),
        query in package(),
    ) {
        let mut agg = AggregatedLibraries::new();
        for (name, cat) in &entries {
            agg.record(name, *cat);
        }
        let a = agg.predict_category(&query);
        let b = agg.predict_category(&query);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn enclosing_known_library_dominates_prediction(root in package(), suffix in ident(), cat in category()) {
        prop_assume!(cat != LibCategory::Unknown);
        let mut agg = AggregatedLibraries::new();
        agg.record(&root, cat);
        let sub = format!("{}.{}", root, suffix);
        prop_assert_eq!(agg.predict_category(&sub), cat);
    }

    #[test]
    fn trie_agrees_with_linear_oracle(
        entries in proptest::collection::vec(
            (prop_oneof![package(), dense_package()], category()),
            0..16,
        ),
        queries in proptest::collection::vec(prop_oneof![package(), dense_package()], 1..8),
    ) {
        let mut agg = AggregatedLibraries::new();
        for (name, cat) in &entries {
            agg.record(name, *cat);
        }
        // Arbitrary queries, the recorded names themselves, and dotted
        // extensions of recorded names (deep trie walks) must all agree
        // with the linear reference.
        let extensions: Vec<String> = entries
            .iter()
            .map(|(name, _)| format!("{name}.zz9.aa"))
            .collect();
        for query in queries
            .iter()
            .chain(entries.iter().map(|(name, _)| name))
            .chain(&extensions)
        {
            prop_assert_eq!(
                agg.longest_matching_prefix(query),
                listing2::longest_matching_prefix(&agg, query),
                "longest prefix diverged for {}", query
            );
            prop_assert_eq!(
                agg.predict_category(query),
                listing2::predict_category(&agg, query),
                "prediction diverged for {}", query
            );
        }
    }

    #[test]
    fn list_membership_respects_component_boundaries(prefix in package(), extra in ident()) {
        let lists = LibraryLists::from_prefixes([prefix.clone()], Vec::<String>::new());
        prop_assert!(lists.is_ant(&prefix));
        let child = format!("{}.{}", prefix, extra);
        let lookalike = format!("{}{}x", prefix, extra);
        prop_assert!(lists.is_ant(&child));
        prop_assert!(!lists.is_ant(&lookalike));
    }

    #[test]
    fn list_membership_matches_a_linear_prefix_scan(
        ant in proptest::collection::vec(ragged_package(), 0..6),
        common in proptest::collection::vec(ragged_package(), 0..6),
        queries in proptest::collection::vec(ragged_package(), 1..12),
    ) {
        let lists = LibraryLists::from_prefixes(ant.clone(), common.clone());
        for query in queries.iter().chain(&ant).chain(&common) {
            prop_assert_eq!(lists.is_ant(query), linear_list_match(&ant, query), "ant {:?}", query);
            prop_assert_eq!(
                lists.is_common(query),
                linear_list_match(&common, query),
                "common {:?}",
                query
            );
        }
    }
}

/// Dotted names over a tiny alphabet whose components may be empty, so
/// leading, trailing and doubled dots and the empty name all occur.
fn ragged_package() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop::sample::select(vec!["", "a", "b", "ab"]), 1..5)
        .prop_map(|parts| parts.join("."))
}

/// The list lookup as a scan over every listed prefix: a prefix matches
/// when it is the package or is followed in it by a `.`.
fn linear_list_match(prefixes: &[String], package: &str) -> bool {
    prefixes.iter().any(|prefix| {
        package == prefix
            || (package.starts_with(prefix.as_str())
                && package.as_bytes().get(prefix.len()) == Some(&b'.'))
    })
}

/// One generated library method: sub-package depth, descriptor, and
/// opcodes (internal invokes land on a method of the same copy).
type MethodSpec = (u8, u8, Vec<u8>);

fn method_spec() -> impl Strategy<Value = MethodSpec> {
    (0u8..3, 0u8..4, proptest::collection::vec(0u8..6, 1..6))
}

/// The methods of one library copy rooted at `root`, placed at method
/// index `offset` of the app.
fn copy_methods(root: &str, specs: &[MethodSpec], offset: u32) -> Vec<MethodDef> {
    let n = specs.len() as u32;
    specs
        .iter()
        .enumerate()
        .map(|(i, (depth, descriptor, ops))| {
            let package = match depth {
                0 => root.to_owned(),
                1 => format!("{root}.net"),
                _ => format!("{root}.net.io"),
            };
            let descriptor =
                ["()V", "(I)V", "(Landroid/content/Context;)V", "([B)I"][usize::from(*descriptor)];
            let instructions = ops
                .iter()
                .map(|&op| match op {
                    0 => Instruction::Return,
                    1 => Instruction::Const(u32::from(op)),
                    2 | 3 => Instruction::Invoke(MethodRef::Internal(
                        offset + (i as u32 + u32::from(op)) % n,
                    )),
                    4 => Instruction::Invoke(MethodRef::External(MethodSig::new(
                        "android.util",
                        "Log",
                        "d",
                        "()V",
                    ))),
                    _ => Instruction::Nop,
                })
                .collect();
            MethodDef {
                sig: MethodSig::new(
                    &package,
                    &format!("K{}", i / 3),
                    &format!("m{i}"),
                    descriptor,
                ),
                code: CodeItem { instructions },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The size band is a consequence of the threshold, not a heuristic:
    /// every library the unpruned `best_match` returns for any prefix is
    /// inside the band of the prefix's total, and pruned detection
    /// reports exactly the unpruned matches. Copies drop up to three
    /// methods and gain up to four, so scores land near the threshold.
    #[test]
    fn band_admits_every_library_the_unpruned_best_match_returns(
        libs in proptest::collection::vec(proptest::collection::vec(method_spec(), 4..14), 1..4),
        dropped in proptest::collection::vec(0usize..4, 3),
        extra in proptest::collection::vec(proptest::collection::vec(method_spec(), 0..5), 3),
    ) {
        let mut index = StructuralIndex::new();
        let mut totals = HashMap::new();
        let mut app = DexFile::new();
        for (k, specs) in libs.iter().enumerate() {
            let name = format!("com.lib{k}");
            let library = DexFile {
                methods: copy_methods(&name, specs, 0),
                classes: vec![],
            };
            let profile = subtree_profile(&library, &name);
            totals.insert(name.clone(), profile.total());
            index.add_profile(&name, LibCategory::Utility, &profile);
            let mut copy = specs[..specs.len() - dropped[k]].to_vec();
            copy.extend(extra[k].iter().cloned());
            let offset = app.methods.len() as u32;
            app.methods.extend(copy_methods(&format!("qx.c{k}"), &copy, offset));
        }
        let mut unpruned = Vec::new();
        let bytes = write_dex(&app);
        let view = DexView::parse(&bytes).expect("generated dexes validate");
        for subtree in PackageTree::new(&view).subtrees() {
            let prefix = subtree.prefix();
            let profile = subtree_profile(&app, &prefix);
            if let Some(matched) = index.best_match(&profile) {
                prop_assert!(index.admits(profile.total()), "{} not admitted", prefix);
                prop_assert!(
                    within_band(profile.total(), totals[&matched.name]),
                    "{} ({}) outside the band of {} ({})",
                    prefix, profile.total(), matched.name, totals[&matched.name]
                );
                unpruned.push((prefix, matched.name));
            }
        }
        let pruned: Vec<(String, String)> = index
            .detect(&view)
            .into_iter()
            .map(|m| (m.in_app_prefix, m.name))
            .collect();
        prop_assert_eq!(pruned, unpruned);
    }
}

// Obfuscator-backed properties: each case generates a small corpus and
// runs the real synthetic obfuscator over it, so the case count is kept
// low — the corpus itself already varies per seed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The exact tier's size check is implied by a match: every prefix
    /// whose fingerprint, computed from scratch, is registered is
    /// reported by `detect`, and nothing else is. Copies are exact,
    /// renamed, or lose or gain methods, so near-misses of equal method
    /// count are common.
    #[test]
    fn size_check_never_rejects_a_registered_fingerprint(
        libs in proptest::collection::vec(proptest::collection::vec(method_spec(), 2..9), 1..4),
        dropped in proptest::collection::vec(0usize..2, 3),
        extra in proptest::collection::vec(proptest::collection::vec(method_spec(), 0..2), 3),
    ) {
        let mut db = LibraryDb::new();
        let mut app = DexFile::new();
        for (k, specs) in libs.iter().enumerate() {
            let name = format!("com.lib{k}");
            let library = DexFile {
                methods: copy_methods(&name, specs, 0),
                classes: vec![],
            };
            add_library(&mut db, &name, LibCategory::Utility, &library);
            let mut copy = specs[..specs.len() - dropped[k]].to_vec();
            copy.extend(extra[k].iter().cloned());
            for root in [format!("qx.c{k}"), format!("qx.c{k}.d")] {
                let offset = app.methods.len() as u32;
                app.methods.extend(copy_methods(&root, &copy, offset));
            }
            let offset = app.methods.len() as u32;
            app.methods.extend(copy_methods(&format!("org.v{k}"), specs, offset));
        }
        let bytes = write_dex(&app);
        let view = DexView::parse(&bytes).expect("generated dexes validate");
        let unfiltered: Vec<(String, String)> = PackageTree::new(&view)
            .subtrees()
            .filter_map(|subtree| {
                let prefix = subtree.prefix();
                let fp = fingerprint_subtree(&app, &prefix)?;
                db.lookup(&fp).map(|(name, _)| (prefix, name.to_owned()))
            })
            .collect();
        prop_assert!(!unfiltered.is_empty());
        let detected: Vec<(String, String)> = db
            .detect(&view)
            .into_iter()
            .map(|d| (d.in_app_prefix, d.name))
            .collect();
        prop_assert_eq!(detected, unfiltered);
    }

    /// The feature table's sorted lines, over the dex's view, hash to the
    /// from-scratch `fingerprint_subtree` of every prefix over the owned
    /// dex.
    #[test]
    fn feature_table_fingerprints_equal_fingerprint_subtree(
        specs in proptest::collection::vec(method_spec(), 1..12),
        roots in proptest::collection::vec(dense_package(), 1..4),
    ) {
        let mut app = DexFile::new();
        for (k, root) in roots.iter().enumerate() {
            let offset = app.methods.len() as u32;
            let mut methods = copy_methods(root, &specs[k % specs.len()..], offset);
            for method in &mut methods {
                let smali = method.sig.as_smali().replace("->m", &format!("->r{k}m"));
                method.sig = smali.parse().unwrap();
            }
            app.methods.extend(methods);
        }
        let bytes = write_dex(&app);
        let view = DexView::parse(&bytes).expect("generated dexes validate");
        let mut table = FeatureTable::new(&view);
        for id in 0..table.tree().len() {
            let prefix = table.tree().subtree(id).prefix();
            let fp = LibraryFingerprint(Sha256::digest(table.sorted_lines(id)));
            prop_assert_eq!(Some(fp), fingerprint_subtree(&app, &prefix), "{}", prefix);
        }
    }
}

/// Names to register a library under in the dex of `tree`: every
/// dotted prefix of the tree; each prefix cut short by a byte and
/// lengthened by one past its end, which are mostly no level of the
/// tree (`a.b` beside only `a.bc`); and each prefix spelled with `/`
/// for `.`. The empty name is left out: the reference and the tree
/// part on it by design (the unit tests pin both).
fn registration_names(tree: &PackageTree) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for subtree in tree.subtrees() {
        let prefix = subtree.prefix();
        names.insert(prefix[..prefix.len().saturating_sub(1)].to_owned());
        for extra in ["b", "$", "-"] {
            names.insert(format!("{prefix}{extra}"));
        }
        names.insert(prefix.replace('.', "/"));
        names.insert(prefix);
    }
    names.remove("");
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Registration through one feature table equals the from-scratch
    /// reference under every name. Where the reference finds an empty
    /// subtree, neither tier registers anything. Elsewhere the tree
    /// finds the name, the subtree's (method count, line bytes) pair and
    /// profile are the reference's, the exact tier registers the
    /// reference's fingerprint and detects the subtree again (so the
    /// size it recorded admits it), and the structural tier indexes one
    /// library, which the reference's profile matches exactly once it is
    /// large enough to be scored.
    #[test]
    fn registration_through_the_table_equals_the_reference(dex in ragged_dex()) {
        let bytes = write_dex(&dex);
        let view = DexView::parse(&bytes).expect("generated dexes validate");
        let mut table = FeatureTable::new(&view);
        for name in registration_names(table.tree()) {
            let mut db = LibraryDb::new();
            let mut index = StructuralIndex::new();
            db.add_library(&name, LibCategory::Utility, &mut table);
            index.add_library(&name, LibCategory::Utility, &mut table);
            let Some((fp, methods, line_bytes)) = fingerprint::fingerprint_with_size(&dex, &name)
            else {
                prop_assert!(db.is_empty() && index.is_empty(), "{:?}", &name);
                continue;
            };
            let id = table.tree().find(&name);
            prop_assert!(id.is_some(), "{:?} not found", &name);
            let id = id.unwrap();
            let subtree = table.tree().subtree(id);
            let prefix = subtree.prefix();
            prop_assert_eq!(
                (subtree.methods(), table.line_bytes(id)),
                (methods, line_bytes),
                "size of {:?}", &name
            );
            let profile = subtree_profile(&dex, &name);
            prop_assert_eq!(&table.profile(id), &profile, "profile of {:?}", &name);
            prop_assert_eq!(
                (db.len(), db.lookup(&fp)),
                (1, Some((name.as_str(), LibCategory::Utility))),
                "fingerprint of {:?}", &name
            );
            let detected = db.detect_in(&mut table);
            prop_assert!(
                detected.iter().any(|d| d.name == name && d.in_app_prefix == prefix),
                "{:?} not detected again", &name
            );
            prop_assert_eq!(index.len(), 1, "{:?}", &name);
            if profile.total() >= MIN_MATCH_FEATURES {
                let matched = index.best_match(&profile);
                prop_assert_eq!(
                    matched.map(|m| (m.name, m.score)),
                    Some((name.clone(), 1.0)),
                    "indexed profile of {:?}", &name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Structural profiles are the cascade's last line of defense: they
    /// must be bit-identical across every obfuscation tier, per library
    /// subtree, through the canonical→obfuscated root mapping.
    #[test]
    fn structural_profile_is_invariant_under_every_obfuscation_tier(
        seed in 0u64..1_000,
        obf_seed in 0u64..1_000,
    ) {
        use spector_corpus::obfuscate::{library_roots, obfuscate_dex};
        use spector_corpus::{AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};

        let corpus = Corpus::generate(&CorpusConfig {
            apps: 2,
            seed,
            appgen: AppGenConfig { method_scale: 0.004, ..Default::default() },
            ..Default::default()
        });
        for app in &corpus.apps {
            let view = app.apk.dex().unwrap();
            let mut table = FeatureTable::new(&view);
            let roots = library_roots(table.tree());
            let original = view.to_dex();
            prop_assume!(!roots.is_empty());
            for tier in [ObfuscationTier::Rename, ObfuscationTier::Mangle, ObfuscationTier::Junk] {
                let mut obfuscated = original.clone();
                let mapping = obfuscate_dex(&mut obfuscated, &roots, tier, obf_seed);
                let bytes = write_dex(&obfuscated);
                let obfuscated_view = DexView::parse(&bytes).expect("obfuscated dexes validate");
                let mut obfuscated_table = FeatureTable::new(&obfuscated_view);
                for root in &roots {
                    let renamed = mapping.get(*root).map(String::as_str).unwrap_or(root);
                    // Every library root is a prefix of its dex's tree.
                    let before = table.profile(table.tree().find(root).unwrap());
                    prop_assert_eq!(
                        &before,
                        &obfuscated_table.profile(obfuscated_table.tree().find(renamed).unwrap()),
                        "profile of {} drifted at {:?}", root, tier
                    );
                    prop_assert_eq!(&before, &subtree_profile(&original, root), "{}", root);
                }
            }
        }
    }

    /// Zero false positives by construction: whatever the structural
    /// index matches in a fully-obfuscated app must be a library the
    /// app really instantiates — first-party subtrees never cross the
    /// match threshold.
    #[test]
    fn first_party_code_never_crosses_the_structural_threshold(
        seed in 0u64..1_000,
        obf_seed in 0u64..1_000,
    ) {
        use spector_corpus::obfuscate::{library_roots, obfuscate_app};
        use spector_corpus::{AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};

        let mut corpus = Corpus::generate(&CorpusConfig {
            apps: 2,
            seed,
            appgen: AppGenConfig { method_scale: 0.004, ..Default::default() },
            ..Default::default()
        });
        for app in &mut corpus.apps {
            let truth: BTreeSet<&str> = library_roots(&PackageTree::new(&app.apk.dex().unwrap()))
                .into_iter()
                .collect();
            obfuscate_app(app, ObfuscationTier::Junk, obf_seed);
            for matched in corpus.structural_index.detect(&app.apk.dex().unwrap()) {
                prop_assert!(
                    truth.contains(matched.name.as_str()),
                    "structural tier claimed {} (score {:.3}) which {} does not instantiate",
                    matched.name, matched.score, app.package
                );
            }
        }
    }
}

/// The Listing 2 universe of the paper plus a tied family: the trie and
/// the linear reference agree on every case the paper walks through.
#[test]
fn trie_agrees_with_linear_reference_on_listing2() {
    let mut agg = AggregatedLibraries::new();
    agg.record("com.unity3d", LibCategory::GameEngine);
    agg.record("com.unity3d.ads", LibCategory::Advertisement);
    agg.record("com.unity3d.plugin.downloader", LibCategory::AppMarket);
    agg.record("com.unity3d.services", LibCategory::GameEngine);
    agg.record("org.engine.core", LibCategory::GameEngine);
    agg.record("org.engine.ads", LibCategory::Advertisement);
    for query in [
        "com.unity3d.example",
        "com.unity3d.ads.android.cache",
        "com.unity3d",
        "com.unity3dx.foo",
        "com.other",
        "io.unrelated",
        "org.engine.example",
    ] {
        assert_eq!(
            agg.longest_matching_prefix(query),
            listing2::longest_matching_prefix(&agg, query),
            "{query}"
        );
        assert_eq!(
            agg.predict_category(query),
            listing2::predict_category(&agg, query),
            "{query}"
        );
    }
}

#[test]
fn linear_reference_helpers_split_on_dots() {
    assert!(listing2::is_dotted_prefix("a.b", "a.b.c"));
    assert!(listing2::is_dotted_prefix("a.b", "a.b"));
    assert!(!listing2::is_dotted_prefix("a.b", "a.bc"));
    assert_eq!(listing2::common_dotted_components("a.b.c", "a.b.x"), 2);
    assert_eq!(listing2::common_dotted_components("a", "b"), 0);
    assert_eq!(listing2::dotted_prefix("a.b.c", 2), "a.b");
}
