//! The single-pass corpus generator, frozen as it was before app
//! generation split into a plan (every draw from the corpus generator,
//! in order, on the calling thread) and a build (instantiation, layout,
//! filler and apk writing, which draws nothing). `generate_app`,
//! `build_instance`, the `Corpus::generate` loop and the private
//! helpers they call are copied verbatim; only the paths name the crate
//! from outside. The corpus proptests hold the product to it, byte for
//! byte.
//!
//! Included with `#[path]` by `crates/corpus/tests/proptests.rs`.
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spector_corpus::categories::{game_share, mean_volume_multiplier, AppCategory};
use spector_corpus::domains::DomainUniverse;
use spector_corpus::fig9;
use spector_corpus::libraries::{
    instantiate, template_connector, templates_of, InstantiatedLibrary, LibraryOps, LibraryTemplate,
};
use spector_corpus::{categories, AppGenConfig, Archetype, CorpusConfig, FlowTruth, GeneratedApp};
use spector_corpus::{OpStyle, SystemOp};
use spector_dex::apk::{ActivityDecl, Apk, ApkEntry, Manifest};
use spector_dex::model::{
    fnv1a, ClassDef, CodeItem, Connector, DexFile, Dispatcher, Instruction, MethodDef, MethodRef,
    NetworkOp, WireShape,
};
use spector_dex::sig::MethodSig;
use spector_libradar::LibCategory;
use spector_vtcat::DomainCategory;

/// The apps and the domain universe `Corpus::generate` made: its
/// domain-count default, then its per-app loop.
pub fn generate(config: &CorpusConfig) -> (Vec<GeneratedApp>, DomainUniverse) {
    let domain_count = config
        .domain_count
        .unwrap_or_else(|| (config.apps * 6).clamp(200, 14_140));
    let domains = DomainUniverse::generate(config.seed, domain_count);
    let mut rng = SmallRng::seed_from_u64(config.seed);

    let total_weight: f64 = categories::APP_CATEGORIES.iter().map(|c| c.weight).sum();
    let mut apps = Vec::with_capacity(config.apps);
    for index in 0..config.apps {
        // Category: weight-proportional.
        let mut roll = rng.gen::<f64>() * total_weight;
        let mut category = &categories::APP_CATEGORIES[0];
        for c in &categories::APP_CATEGORIES {
            roll -= c.weight;
            if roll <= 0.0 {
                category = c;
                break;
            }
        }
        // Archetype split (§IV-A): 35 % AnT-only, 54 % mixed,
        // 11 % AnT-free.
        let archetype = match rng.gen::<f64>() {
            r if r < 0.35 => Archetype::AntOnly,
            r if r < 0.89 => Archetype::Mixed,
            _ => Archetype::NoAnt,
        };
        apps.push(generate_app(
            index,
            category,
            archetype,
            &domains,
            &config.appgen,
            &mut rng,
        ));
    }

    (apps, domains)
}

const MB: f64 = 1_048_576.0;

/// Deterministic wire-shape assignment, hashed rather than rolled: the
/// FNV-1a hash of `owner` and `domain` decides both *whether* the op is
/// modern (against `modern_fraction`) and *which* shape it gets, so
/// shape assignment consumes zero RNG draws and every other random
/// decision in the generator is unperturbed by the knob.
fn shape_for_op(modern_fraction: f64, owner: &str, domain: &str) -> WireShape {
    if modern_fraction <= 0.0 {
        return WireShape::Plain;
    }
    let hash = fnv1a(format!("{owner}\u{1f}{domain}").bytes());
    if (hash % 10_000) as f64 >= modern_fraction * 10_000.0 {
        return WireShape::Plain;
    }
    match (hash >> 16) % 4 {
        0 => WireShape::V6,
        1 => WireShape::TlsSni,
        2 => WireShape::ConnectProxy,
        _ => WireShape::Pooled {
            streams: 2 + ((hash >> 32) % 3) as u32,
        },
    }
}

/// Samples a domain of `category`, retrying to avoid domains this app
/// already uses so that `(app, domain)` uniquely identifies a ground-
/// truth op (tiny universes may still collide after the retry budget).
fn sample_unused<'u>(
    universe: &'u DomainUniverse,
    category: DomainCategory,
    rng: &mut SmallRng,
    used: &mut std::collections::HashSet<String>,
) -> &'u spector_corpus::domains::Domain {
    for _ in 0..32 {
        let candidate = universe.sample(category, rng);
        if !used.contains(&candidate.name) {
            used.insert(candidate.name.clone());
            return candidate;
        }
    }
    let fallback = universe.sample(category, rng);
    used.insert(fallback.name.clone());
    fallback
}

/// Generates one app.
#[allow(clippy::too_many_lines)]
pub fn generate_app(
    index: usize,
    category: &'static AppCategory,
    archetype: Archetype,
    universe: &DomainUniverse,
    config: &AppGenConfig,
    rng: &mut SmallRng,
) -> GeneratedApp {
    let package = format!("com.dev{}.app{index}", index % 911);
    let mut methods: Vec<MethodDef> = Vec::new();
    let mut truth: Vec<FlowTruth> = Vec::new();
    let mut used_domains: std::collections::HashSet<String> = std::collections::HashSet::new();

    // --- Volume planning -------------------------------------------------
    // Per-app volume factor: Figure 8 category multiplier × lognormal
    // spread, normalized so corpus expectation matches Figure 9.
    let spread = lognormal(rng, 0.9);
    let factor =
        category.volume_multiplier / mean_volume_multiplier() * spread * config.volume_scale;

    // --- Library composition ---------------------------------------------
    let mut libraries: Vec<(InstantiatedLibrary, f64)> = Vec::new(); // (instance, volume bytes)
    for lib_category in fig9::LIB_ORDER {
        if lib_category == LibCategory::Unknown {
            continue; // first-party, handled below
        }
        let is_ant_cat = matches!(
            lib_category,
            LibCategory::Advertisement | LibCategory::MobileAnalytics
        );
        // Archetype gating with expectation-preserving corrections.
        let (present, correction) = match (archetype, is_ant_cat) {
            (Archetype::AntOnly, true) | (Archetype::Mixed, true) => (true, 1.0 / 0.89),
            (_, true) => (false, 0.0),
            (Archetype::AntOnly, false) => (false, 0.0),
            (_, false) => (true, 1.0 / 0.65),
        };
        if !present {
            continue;
        }
        // Game engines only materialize in game apps.
        let correction = if lib_category == LibCategory::GameEngine {
            if !category.is_game() {
                continue;
            }
            correction / game_share()
        } else {
            correction
        };
        let target_bytes = fig9::per_app_mb(lib_category) * MB * factor * correction;
        if target_bytes < 1.0 {
            continue;
        }
        // Pick 1-2 templates of this category, popularity-weighted.
        let instances = if target_bytes > 2.0 * MB { 2 } else { 1 };
        let picked = pick_templates(lib_category, instances, rng);
        for template in picked {
            let share = target_bytes / instances as f64;
            let instance = build_instance(
                template,
                methods.len() as u32,
                share,
                universe,
                config,
                rng,
                &mut truth,
                &mut used_domains,
            );
            methods.extend(instance.methods.iter().cloned());
            libraries.push((instance, share));
        }
    }

    // --- First-party code (the Unknown column) ----------------------------
    let fp_target = if archetype == Archetype::AntOnly {
        0.0
    } else {
        fig9::per_app_mb(LibCategory::Unknown) * MB * factor / 0.65
    };
    let app_on_create_sig = MethodSig::new(&package, "App", "onCreate", "()V");
    let mut app_on_create_code: Vec<Instruction> = vec![Instruction::Const(0)];
    for (lib, _) in &libraries {
        let id = methods
            .iter()
            .position(|m| m.sig == lib.init_entry)
            .expect("init entry exists") as u32;
        app_on_create_code.push(Instruction::Invoke(MethodRef::Internal(id)));
    }
    // First-party network: an async loader plus an inline (synchronous)
    // fetch — both attribute to the app package.
    if fp_target > 1.0 {
        let (async_share, sync_share) = (fp_target * 0.6, fp_target * 0.4);
        let loader_sig = MethodSig::new(&format!("{package}.net"), "Loader", "run", "()V");
        let op = first_party_op(
            async_share,
            universe,
            config,
            rng,
            &package,
            &mut truth,
            &mut used_domains,
        );
        // The async loader runs on its own thread, so attribution lands
        // on the loader's own (sub-)package rather than the app root.
        if let Some(t) = truth.last_mut() {
            t.owner_package = loader_sig.package();
            t.expected_origin = Some(loader_sig.package());
        }
        let loader_id = methods.len() as u32;
        methods.push(MethodDef {
            sig: loader_sig,
            code: CodeItem {
                instructions: vec![Instruction::Network(op), Instruction::Return],
            },
        });
        app_on_create_code.push(Instruction::InvokeAsync {
            dispatcher: Dispatcher::Executor,
            target: MethodRef::Internal(loader_id),
        });
        // Synchronous first-party fetch inside onCreate itself.
        let op = first_party_op(
            sync_share,
            universe,
            config,
            rng,
            &package,
            &mut truth,
            &mut used_domains,
        );
        app_on_create_code.push(Instruction::Network(op));
    }
    app_on_create_code.push(Instruction::Return);
    let app_on_create_id = methods.len() as u32;
    methods.push(MethodDef {
        sig: app_on_create_sig.clone(),
        code: CodeItem {
            instructions: app_on_create_code,
        },
    });

    // --- Activities and handlers -------------------------------------------
    let activity_count = rng.gen_range(1..=4usize);
    let mut activities = Vec::with_capacity(activity_count);
    for a in 0..activity_count {
        let class = format!("{package}.Activity{a}");
        let on_create_sig = MethodSig::new(
            &package,
            &format!("Activity{a}"),
            "onCreate",
            "(Landroid/os/Bundle;)V",
        );
        methods.push(MethodDef {
            sig: on_create_sig.clone(),
            code: CodeItem {
                instructions: vec![Instruction::Const(a as u32), Instruction::Return],
            },
        });
        let handler_count = rng.gen_range(2..=5usize);
        let mut handlers = Vec::with_capacity(handler_count);
        for h in 0..handler_count {
            let sig = MethodSig::new(
                &package,
                &format!("Activity{a}"),
                &format!("onClick{h}"),
                "(Landroid/view/View;)V",
            );
            let mut instructions = vec![Instruction::Const(h as u32)];
            // Some handlers poke a library refresh entry (sparse:
            // most UI interactions do not trigger a banner rotation).
            if !libraries.is_empty() && rng.gen_bool(0.05) {
                let (lib, _) = &libraries[rng.gen_range(0..libraries.len())];
                let id = methods
                    .iter()
                    .position(|m| m.sig == lib.refresh_entry)
                    .expect("refresh entry exists") as u32;
                instructions.push(Instruction::Invoke(MethodRef::Internal(id)));
            }
            instructions.push(Instruction::Return);
            methods.push(MethodDef {
                sig: sig.clone(),
                code: CodeItem { instructions },
            });
            handlers.push(sig);
        }
        activities.push(ActivityDecl {
            class,
            handlers,
            on_create: vec![on_create_sig],
        });
    }

    // --- Filler to reach the method-count target ---------------------------
    let target_methods = (49_138.0 * config.method_scale * lognormal(rng, 0.55)).max(40.0) as usize;
    let mut filler_index = 0usize;
    while methods.len() < target_methods {
        let sub = ["", ".data", ".ui", ".sync"][filler_index % 4];
        let sig = MethodSig::new(
            &format!("{package}{sub}"),
            &format!("F{}", filler_index / 4),
            &format!("f{filler_index}"),
            "()V",
        );
        methods.push(MethodDef {
            sig,
            code: CodeItem {
                instructions: vec![Instruction::Const(filler_index as u32), Instruction::Return],
            },
        });
        filler_index += 1;
    }

    // --- System (platform) traffic -----------------------------------------
    let mut system_ops = Vec::new();
    // ~1.5 % of a typical app's volume: connectivity checks and account
    // sync through the platform okhttp, plus an occasional raw socket.
    let sys_volume = 0.015 * fig9::total_mb() / fig9::PAPER_APP_COUNT as f64 * MB * factor;
    if sys_volume > 1.0 {
        for (i, connector) in [Connector::AndroidOkHttp, Connector::DirectSocket]
            .into_iter()
            .enumerate()
        {
            let domain_category = if i == 0 {
                DomainCategory::InfoTech
            } else {
                DomainCategory::Advertisements
            };
            let domain = sample_unused(universe, domain_category, rng, &mut used_domains);
            let recv = (sys_volume / 2.0).max(64.0) as u64;
            let send = (recv as f64 / ratio_for(LibCategory::Utility, rng)).max(32.0) as u64;
            let shape = shape_for_op(config.modern_fraction, "android.system", &domain.name);
            let op = NetworkOp {
                domain: domain.name.clone(),
                port: 443,
                send_bytes: send,
                recv_bytes: recv,
                connector,
                shape,
            };
            let expected_origin = match connector {
                Connector::AndroidOkHttp => Some("com.android.okhttp.internal.huc".to_owned()),
                _ => None,
            };
            truth.push(FlowTruth {
                domain: domain.name.clone(),
                port: 443,
                send_bytes: send,
                recv_bytes: recv,
                owner_package: "android.system".to_owned(),
                expected_origin,
                lib_category: LibCategory::Unknown,
                domain_category,
                is_ant: false,
                is_common: false,
                style: OpStyle::System,
                shape,
            });
            system_ops.push(SystemOp {
                op,
                dispatcher: Dispatcher::Thread,
            });
        }
    }

    // --- Assemble the apk ----------------------------------------------------
    let classes = vec![ClassDef {
        dotted_name: format!("{package}.App"),
        method_indices: vec![app_on_create_id],
    }];
    let dex = DexFile { methods, classes };
    let manifest = Manifest {
        package: package.clone(),
        version_code: 1 + (index % 40) as u32,
        category: category.name.to_owned(),
        dex_timestamp: 1_400_000_000 + (index as u64 * 7_919) % 160_000_000,
        vt_scan_date: Some(1_560_000_000 + (index as u64 * 104_729) % 30_000_000),
        application_on_create: vec![app_on_create_sig],
        activities,
    };
    // A minority of apps ship native code; most of those are fat apks.
    let extra = native_lib_entries(rng);
    let apk = Apk::build(&manifest, &dex, extra);
    debug_assert!(apk.dex().is_ok(), "generated dex: {:?}", apk.dex().err());

    GeneratedApp {
        package,
        category,
        apk,
        truth,
        system_ops,
        archetype,
    }
}

/// Picks `count` distinct templates of a category, weight-proportionally.
fn pick_templates(
    category: LibCategory,
    count: usize,
    rng: &mut SmallRng,
) -> Vec<&'static LibraryTemplate> {
    let mut pool = templates_of(category);
    let mut picked = Vec::new();
    for _ in 0..count.min(pool.len()) {
        let total: f64 = pool.iter().map(|t| t.weight).sum();
        let mut roll = rng.gen::<f64>() * total;
        let mut chosen = 0;
        for (i, t) in pool.iter().enumerate() {
            roll -= t.weight;
            if roll <= 0.0 {
                chosen = i;
                break;
            }
        }
        picked.push(pool.remove(chosen));
    }
    picked
}

/// Expected number of refresh invocations per refresh entry during a
/// run (used to budget refresh op sizes); matches a 1,000-event monkey
/// with default hit rates.
const EXPECTED_REFRESH_INVOCATIONS: f64 = 7.0;

/// Builds one library instance carrying `target_bytes` of session
/// volume, recording ground truth.
#[allow(clippy::too_many_arguments)] // generation context is inherently wide
fn build_instance(
    template: &'static LibraryTemplate,
    base_index: u32,
    target_bytes: f64,
    universe: &DomainUniverse,
    config: &AppGenConfig,
    rng: &mut SmallRng,
    truth: &mut Vec<FlowTruth>,
    used_domains: &mut std::collections::HashSet<String>,
) -> InstantiatedLibrary {
    let connector = template_connector(template);
    let dist = fig9::domain_distribution(template.category);
    let mut make_op = |bytes: f64, style: OpStyle| {
        let domain_category = sample_weighted(&dist, rng);
        let domain = sample_unused(universe, domain_category, rng, used_domains);
        let recv = bytes.max(64.0) as u64;
        let send = (bytes / ratio_for(template.category, rng)).max(32.0) as u64;
        let op = NetworkOp {
            domain: domain.name.clone(),
            port: if rng.gen_bool(0.85) { 443 } else { 80 },
            send_bytes: send,
            recv_bytes: recv,
            connector,
            shape: shape_for_op(config.modern_fraction, template.package, &domain.name),
        };
        (op, domain_category, style)
    };
    let (bg0, cat0, _) = make_op(target_bytes * 0.55, OpStyle::Startup);
    let (bg1, cat1, _) = make_op(target_bytes * 0.30, OpStyle::Startup);
    let (refresh, catr, _) = make_op(
        target_bytes * 0.15 / EXPECTED_REFRESH_INVOCATIONS,
        OpStyle::Refresh,
    );
    let ops = LibraryOps {
        bg0: bg0.clone(),
        bg1: bg1.clone(),
        refresh: refresh.clone(),
    };
    let instance = instantiate(template, base_index, &ops);
    for ((sig, op), (domain_category, style)) in instance.owned_ops.iter().zip([
        (cat0, OpStyle::Startup),
        (cat1, OpStyle::Startup),
        (catr, OpStyle::Refresh),
    ]) {
        truth.push(FlowTruth {
            domain: op.domain.clone(),
            port: op.port,
            send_bytes: op.send_bytes,
            recv_bytes: op.recv_bytes,
            owner_package: sig.package(),
            expected_origin: Some(sig.package()),
            lib_category: template.category,
            domain_category,
            is_ant: template.is_ant,
            is_common: template.is_common,
            style,
            shape: op.shape,
        });
    }
    instance
}

/// Creates a first-party network op of roughly `bytes` and records its
/// truth (origin = the app's own package tree → Unknown category).
fn first_party_op(
    bytes: f64,
    universe: &DomainUniverse,
    config: &AppGenConfig,
    rng: &mut SmallRng,
    package: &str,
    truth: &mut Vec<FlowTruth>,
    used_domains: &mut std::collections::HashSet<String>,
) -> NetworkOp {
    let dist = fig9::domain_distribution(LibCategory::Unknown);
    let domain_category = sample_weighted(&dist, rng);
    let domain = sample_unused(universe, domain_category, rng, used_domains);
    let recv = bytes.max(64.0) as u64;
    let send = (bytes / ratio_for(LibCategory::Unknown, rng)).max(32.0) as u64;
    let op = NetworkOp {
        domain: domain.name.clone(),
        port: 443,
        send_bytes: send,
        recv_bytes: recv,
        connector: Connector::AndroidOkHttp,
        shape: shape_for_op(config.modern_fraction, package, &domain.name),
    };
    truth.push(FlowTruth {
        domain: domain.name.clone(),
        port: 443,
        send_bytes: send,
        recv_bytes: recv,
        owner_package: package.to_owned(),
        expected_origin: Some(package.to_owned()),
        lib_category: LibCategory::Unknown,
        domain_category,
        is_ant: false,
        is_common: false,
        style: OpStyle::Startup,
        shape: op.shape,
    });
    op
}

/// Per-flow received/sent ratio by category: AnT libraries pull far
/// more than they push (paper: AnT ratio ≈ 54.8 vs common ≈ 24.4).
fn ratio_for(category: LibCategory, rng: &mut SmallRng) -> f64 {
    // Payload-level means sit above the paper's wire-level targets
    // because per-flow header overhead (handshake, ACKs, teardown)
    // compresses the measured ratio.
    let mean = match category {
        LibCategory::Advertisement | LibCategory::MobileAnalytics => 220.0,
        LibCategory::GameEngine => 260.0,
        LibCategory::Unknown => 120.0,
        _ => 80.0,
    };
    (mean * lognormal(rng, 0.7)).clamp(1.2, 2_000.0)
}

fn sample_weighted(dist: &[(DomainCategory, f64)], rng: &mut SmallRng) -> DomainCategory {
    let mut roll = rng.gen::<f64>();
    for (cat, p) in dist {
        roll -= p;
        if roll <= 0.0 {
            return *cat;
        }
    }
    dist.last()
        .map(|(c, _)| *c)
        .unwrap_or(DomainCategory::Unknown)
}

/// Mean-1 lognormal multiplier with shape `sigma`.
fn lognormal(rng: &mut SmallRng, sigma: f64) -> f64 {
    // Box-Muller.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z - sigma * sigma / 2.0).exp()
}

/// Native-library entries: ~72 % pure Java, ~20 % fat (arm+x86), ~8 %
/// ARM-only (those get filtered out during app selection, §III-A).
fn native_lib_entries(rng: &mut SmallRng) -> Vec<ApkEntry> {
    let roll: f64 = rng.gen();
    let abis: &[&str] = if roll < 0.72 {
        &[]
    } else if roll < 0.92 {
        &["armeabi-v7a", "x86"]
    } else {
        &["armeabi-v7a", "arm64-v8a"]
    };
    abis.iter()
        .map(|abi| ApkEntry {
            name: format!("lib/{abi}/libnative.so"),
            data: bytes::Bytes::from(vec![0x7f, b'E', b'L', b'F']),
        })
        .collect()
}
