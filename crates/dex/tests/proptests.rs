//! Property-based tests for the dex/apk formats and SHA-256.

use bytes::Bytes;
use proptest::prelude::*;
use spector_dex::model::{
    ClassDef, CodeItem, DexFile, Instruction, MethodDef, MethodRef, SigIndex,
};
use spector_dex::sig::{prefix_levels, MethodSig};
use spector_dex::{
    parse_dex, profile_total, subtree_profile, write_dex, Apk, ApkEntry, DexView, FeatureTable,
    PackageTree, Sha256,
};

#[path = "support/package_tree.rs"]
mod reference_tree;

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}"
}

fn package() -> impl Strategy<Value = String> {
    proptest::collection::vec(ident(), 1..5).prop_map(|parts| parts.join("."))
}

fn descriptor() -> impl Strategy<Value = String> {
    let ty = prop_oneof![
        Just("I".to_owned()),
        Just("J".to_owned()),
        Just("Z".to_owned()),
        Just("[B".to_owned()),
        Just("Ljava/lang/String;".to_owned()),
        Just("[Ljava/lang/Object;".to_owned()),
    ];
    let ret = prop_oneof![
        Just("V".to_owned()),
        Just("I".to_owned()),
        Just("Ljava/lang/Object;".to_owned()),
    ];
    (proptest::collection::vec(ty, 0..4), ret)
        .prop_map(|(params, ret)| format!("({}){}", params.join(""), ret))
}

fn method_sig() -> impl Strategy<Value = MethodSig> {
    (package(), ident(), ident(), descriptor()).prop_map(|(pkg, class, method, desc)| {
        MethodSig::new(&pkg, &format!("C{class}"), &method, &desc)
    })
}

prop_compose! {
    fn dex_file()(sigs in proptest::collection::btree_set(method_sig(), 0..20))
        (insts in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 0..6), sigs.len()),
         sigs in Just(sigs))
        -> DexFile
    {
        let sigs: Vec<MethodSig> = sigs.into_iter().collect();
        let n = sigs.len() as u32;
        let methods: Vec<MethodDef> = sigs
            .iter()
            .zip(&insts)
            .map(|(sig, ops)| MethodDef {
                sig: sig.clone(),
                code: CodeItem {
                    instructions: ops
                        .iter()
                        .map(|&op| match op {
                            0 => Instruction::Nop,
                            1 => Instruction::Const(42),
                            2 if n > 0 => Instruction::Invoke(MethodRef::Internal(op as u32 % n)),
                            2 => Instruction::Nop,
                            _ => Instruction::Return,
                        })
                        .collect(),
                },
            })
            .collect();
        let classes = if methods.is_empty() {
            vec![]
        } else {
            vec![ClassDef {
                dotted_name: methods[0].sig.dotted_class(),
                method_indices: (0..n).collect(),
            }]
        };
        DexFile { methods, classes }
    }
}

proptest! {
    #[test]
    fn sig_display_parse_roundtrip(sig in method_sig()) {
        let rendered = sig.to_string();
        let parsed: MethodSig = rendered.parse().expect("rendered sig must parse");
        prop_assert_eq!(parsed, sig);
    }

    #[test]
    fn sig_components_recombine(sig in method_sig()) {
        let rebuilt = MethodSig::new(
            &sig.package(),
            sig.class_name(),
            sig.method_name(),
            sig.descriptor(),
        );
        prop_assert_eq!(rebuilt, sig);
    }

    #[test]
    fn prefix_levels_is_prefix(pkg in package(), levels in 0usize..6) {
        let p = prefix_levels(&pkg, levels);
        prop_assert!(pkg.starts_with(&p));
        if levels > 0 {
            prop_assert!(p.split('.').count() <= levels);
        }
    }

    #[test]
    fn dex_roundtrip(dex in dex_file()) {
        prop_assert_eq!(dex.validate(), Ok(()));
        let bytes = write_dex(&dex);
        let parsed = parse_dex(&bytes).expect("written dex must parse");
        prop_assert_eq!(parsed, dex);
    }

    #[test]
    fn dex_parse_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_dex(&noise);
    }

    #[test]
    fn apk_roundtrip(dex in dex_file(), names in proptest::collection::vec("[a-z/]{1,12}", 0..4)) {
        let manifest = spector_dex::Manifest {
            package: "com.prop.test".into(),
            version_code: 1,
            category: "TOOLS".into(),
            dex_timestamp: 100,
            vt_scan_date: None,
            application_on_create: vec![],
            activities: vec![],
        };
        let extra: Vec<ApkEntry> = names
            .into_iter()
            .enumerate()
            .map(|(i, name)| ApkEntry {
                name: format!("{name}{i}"),
                data: Bytes::from(vec![i as u8; i]),
            })
            .collect();
        let apk = Apk::build(&manifest, &dex, extra);
        let parsed = Apk::from_bytes(&apk.to_bytes()).expect("apk must parse");
        prop_assert_eq!(parsed.manifest().unwrap(), manifest);
        prop_assert_eq!(parsed.dex().unwrap(), dex);
        prop_assert_eq!(parsed.sha256(), apk.sha256());
        prop_assert_eq!(apk.sha256(), Sha256::digest(&apk.to_bytes()));
    }

    #[test]
    fn sha256_streaming_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                        split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }
}

/// A dex whose packages nest: each method sits at a path of up to three
/// components drawn from `{a, b, c}` (the empty path is the default
/// package), in one of two classes, with invokes to arbitrary methods.
/// The class path is written as smali allows: each component joined to
/// the previous one by `/` or by a `.` inside one smali component, and
/// sometimes with a leading `.`.
fn nested_dex() -> impl Strategy<Value = DexFile> {
    let method = (
        proptest::collection::vec((0u8..3, any::<bool>()), 0..4),
        0u8..4,
        0u8..2,
        proptest::collection::vec(0u8..5, 0..6),
    );
    proptest::collection::vec(method, 0..24).prop_map(|specs| {
        let n = specs.len() as u32;
        let methods = specs
            .iter()
            .enumerate()
            .map(|(i, (path, lead, class, ops))| {
                let mut smali = String::from("L");
                for (k, &(c, dot)) in path.iter().enumerate() {
                    smali.push_str(match (k, dot) {
                        (0, _) if *lead == 0 => ".",
                        (0, _) => "",
                        (_, true) => ".",
                        (_, false) => "/",
                    });
                    smali.push_str(["a", "b", "c"][c as usize]);
                }
                if !path.is_empty() {
                    smali.push('/');
                }
                let descriptor = if i % 2 == 0 { "()V" } else { "(I)V" };
                smali.push_str(&format!("K{class};->m{i}{descriptor}"));
                MethodDef {
                    sig: smali.parse().expect("generated signatures are valid"),
                    code: CodeItem {
                        instructions: ops
                            .iter()
                            .map(|&op| match op {
                                0 => Instruction::Nop,
                                1 => Instruction::Return,
                                _ => Instruction::Invoke(MethodRef::Internal(
                                    (i as u32 + u32::from(op)) % n,
                                )),
                            })
                            .collect(),
                    },
                }
            })
            .collect();
        DexFile {
            methods,
            classes: vec![],
        }
    })
}

proptest! {
    #[test]
    fn package_tree_holds_every_prefix_with_its_subtree(dex in nested_dex()) {
        let tree = PackageTree::new(&dex);
        let packages: Vec<String> = dex.methods.iter().map(|m| m.sig.package()).collect();
        let mut expected = std::collections::BTreeSet::new();
        for pkg in packages.iter().filter(|p| !p.is_empty()) {
            let parts: Vec<&str> = pkg.split('.').collect();
            for level in 1..=parts.len() {
                expected.insert(parts[..level].join("."));
            }
        }
        let prefixes: Vec<String> = tree.subtrees().map(|subtree| subtree.prefix()).collect();
        prop_assert_eq!(prefixes, expected.into_iter().collect::<Vec<_>>());
        for subtree in tree.subtrees() {
            let prefix = subtree.prefix();
            let scanned: Vec<u32> = (0..packages.len() as u32)
                .filter(|&i| {
                    let pkg = &packages[i as usize];
                    *pkg == prefix || pkg.starts_with(&format!("{prefix}."))
                })
                .collect();
            prop_assert_eq!(subtree.methods(), scanned.len(), "size of {}", prefix);
            prop_assert_eq!(subtree.members(), scanned, "members of {}", prefix);
        }
        for (i, path) in tree.paths().iter().enumerate() {
            prop_assert_eq!(path.replace('/', "."), packages[i].clone());
        }
    }

    #[test]
    fn profile_total_is_three_per_method_plus_two(dex in nested_dex()) {
        let mut table = FeatureTable::of_dex(&dex);
        for id in 0..table.tree().len() {
            let subtree = table.tree().subtree(id);
            let (prefix, methods) = (subtree.prefix(), subtree.methods());
            let profile = subtree_profile(&dex, &prefix);
            prop_assert_eq!(profile.total(), 3 * methods as u64 + 2, "prefix {}", prefix);
            prop_assert_eq!(profile.total(), profile_total(methods));
            prop_assert_eq!(&table.profile(id), &profile);
        }
        prop_assert_eq!(subtree_profile(&dex, "zz").total(), profile_total(0));
    }
}

/// A dex with ragged package paths: components that hold a `.` or a
/// byte that sorts before it (`$`, `-`), joined by `/` or by a `.`
/// inside one smali component (so `com/foo` and `com.foo` meet), the
/// default package, packages with a leading dot, methods of one
/// package interleaved with others', and internal invokes (sync and
/// async) to arbitrary methods.
fn ragged_dex() -> impl Strategy<Value = DexFile> {
    const COMPONENTS: [&str; 6] = ["a", "b", "a$", "a-b", "a.b", "$"];
    let method = (
        proptest::collection::vec((0usize..COMPONENTS.len(), any::<bool>()), 0..4),
        any::<bool>(),
        0u8..3,
        proptest::collection::vec((0u8..6, 0u32..64), 0..6),
    );
    proptest::collection::vec(method, 0..32).prop_map(|specs| {
        let n = specs.len() as u32;
        let methods = specs
            .iter()
            .enumerate()
            .map(|(i, (path, lead, class, ops))| {
                let mut smali = String::from("L");
                if *lead && !path.is_empty() {
                    smali.push('.');
                }
                for (k, &(c, dot)) in path.iter().enumerate() {
                    if k > 0 {
                        smali.push(if dot { '.' } else { '/' });
                    }
                    smali.push_str(COMPONENTS[c]);
                }
                if !path.is_empty() {
                    smali.push('/');
                }
                let descriptor = ["()V", "(I)V", "([Ljava/lang/String;J)Ljava/lang/Object;"][i % 3];
                smali.push_str(&format!(
                    "{};->m{i}{descriptor}",
                    ["K", "K$1", "a"][*class as usize]
                ));
                let target = |t: u32| MethodRef::Internal(t % n);
                MethodDef {
                    sig: smali.parse().expect("generated signatures are valid"),
                    code: CodeItem {
                        instructions: ops
                            .iter()
                            .map(|&(op, t)| match op {
                                0 => Instruction::Nop,
                                1 => Instruction::Return,
                                2 => Instruction::Const(t),
                                3 => Instruction::InvokeAsync {
                                    dispatcher: spector_dex::Dispatcher::Thread,
                                    target: target(t),
                                },
                                4 => Instruction::Invoke(MethodRef::External(MethodSig::new(
                                    "java.net", "Socket", "connect", "()V",
                                ))),
                                _ => Instruction::Invoke(target(t)),
                            })
                            .collect(),
                    },
                }
            })
            .collect();
        DexFile {
            methods,
            classes: vec![],
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The tree built from the view's signatures lists the subtrees the
    /// old map-and-sort build lists: same prefixes in the same order,
    /// same prefix lengths, method counts and members.
    #[test]
    fn package_tree_equals_the_reference_build_on_ragged_paths(dex in ragged_dex()) {
        let expected = reference_tree::subtrees(&dex);
        let bytes = write_dex(&dex);
        let view = DexView::parse(&bytes).expect("generated dexes validate");
        for tree in [PackageTree::new(&dex), PackageTree::of_view(&view)] {
            prop_assert_eq!(tree.len(), expected.len());
            for (subtree, want) in tree.subtrees().zip(&expected) {
                let got = reference_tree::Subtree {
                    prefix: subtree.prefix(),
                    prefix_len: subtree.prefix_len(),
                    methods: subtree.methods(),
                    members: subtree.members(),
                };
                prop_assert_eq!(&got, want);
            }
        }
    }

    /// Every subtree's profile from the feature table, over the owned dex
    /// and over its view, equals `subtree_profile` of its prefix, and
    /// its line bytes count the sorted lines it hashes (less one newline
    /// per method).
    #[test]
    fn feature_table_profiles_equal_subtree_profile(dex in ragged_dex()) {
        let bytes = write_dex(&dex);
        let view = DexView::parse(&bytes).expect("generated dexes validate");
        for mut table in [FeatureTable::of_dex(&dex), FeatureTable::of_view(&view)] {
            // Visit the subtrees out of order, so methods are computed
            // first for a subtree other than the one they are read for.
            for id in (0..table.tree().len()).rev() {
                let subtree = table.tree().subtree(id);
                let (prefix, methods) = (subtree.prefix(), subtree.methods());
                let line_bytes = table.line_bytes(id);
                prop_assert_eq!(table.profile(id), subtree_profile(&dex, &prefix), "{}", &prefix);
                let lines = table.sorted_lines(id);
                prop_assert_eq!(lines.len() as u64, line_bytes + methods as u64, "{}", &prefix);
            }
        }
    }
}

const PACKAGES: [&str; 4] = ["", "a", "a.b", "b"];

/// A dex whose dotted names collide often: methods `m0`/`m1` of classes
/// `K0`/`K1` in the default package or under `a`, `a.b` or `b`, with one
/// of three descriptors, so most dotted names are shared by overloads
/// defined in arbitrary order.
fn overloaded_dex() -> impl Strategy<Value = DexFile> {
    let sig = (0usize..4, 0u8..2, 0u8..2, 0usize..3).prop_map(|(p, c, m, d)| {
        MethodSig::new(
            PACKAGES[p],
            &format!("K{c}"),
            &format!("m{m}"),
            ["()V", "(I)V", "(J)I"][d],
        )
    });
    proptest::collection::vec(sig, 0..24).prop_map(|sigs| {
        let mut seen = std::collections::BTreeSet::new();
        let methods = sigs
            .into_iter()
            .filter(|sig| seen.insert(sig.clone()))
            .map(|sig| MethodDef {
                sig,
                code: CodeItem::default(),
            })
            .collect();
        DexFile {
            methods,
            classes: vec![],
        }
    })
}

/// Every dotted name the alphabet of [`overloaded_dex`] can spell,
/// framework frames no app dex defines, and near misses (a class alone,
/// an extended method, the slashed package form, the empty frame).
fn probe_frames() -> Vec<String> {
    let mut frames = Vec::new();
    for package in PACKAGES {
        for class in ["K0", "K1"] {
            for method in ["m0", "m1"] {
                let dotted = if package.is_empty() {
                    format!("{class}.{method}")
                } else {
                    format!("{package}.{class}.{method}")
                };
                frames.push(format!("{dotted}x"));
                frames.push(dotted);
            }
        }
    }
    frames.extend(
        [
            "java.net.Socket.connect",
            "android.os.Handler.dispatchMessage",
            "com.android.okhttp.Connection.connect",
            "a.K0",
            "K0",
            "a/b.K0.m0",
            "",
        ]
        .map(str::to_owned),
    );
    frames
}

proptest! {
    #[test]
    fn dotted_name_joins_package_class_and_method(
        package in prop_oneof![Just(String::new()), package()],
        class in ident(),
        method in ident(),
        desc in descriptor(),
    ) {
        let sig = MethodSig::new(&package, &format!("C{class}"), &method, &desc);
        let expected = if package.is_empty() {
            format!("C{class}.{method}")
        } else {
            format!("{package}.C{class}.{method}")
        };
        prop_assert_eq!(sig.dotted_bytes().collect::<Vec<u8>>(), expected.as_bytes().to_vec());
        prop_assert_eq!(sig.dotted_name(), expected);
    }

    #[test]
    fn sig_index_translates_like_a_linear_first_match_scan(dex in overloaded_dex()) {
        let index = SigIndex::build(&dex);
        prop_assert_eq!(index.len(), dex.methods.len());
        for frame in probe_frames() {
            let scanned = dex.signatures().find(|sig| sig.dotted_name() == frame);
            prop_assert_eq!(index.first_match(&frame), scanned, "frame {:?}", frame);
        }
    }
}

/// The streamed apk digest equals the digest of the serialized archive
/// on generated apks: legacy and half-modern, native libraries and all.
#[test]
fn generated_apk_digests_hash_the_serialized_archive() {
    for modern_fraction in [0.0, 0.5] {
        let corpus = spector_corpus::Corpus::generate(&spector_corpus::CorpusConfig {
            apps: 6,
            seed: 29,
            appgen: spector_corpus::AppGenConfig {
                method_scale: 0.002,
                modern_fraction,
                ..Default::default()
            },
            ..Default::default()
        });
        for app in &corpus.apps {
            assert_eq!(
                app.apk.sha256(),
                Sha256::digest(&app.apk.to_bytes()),
                "{}",
                app.package
            );
        }
    }
}
