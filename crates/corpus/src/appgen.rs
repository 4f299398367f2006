//! Per-app generation: composition, call graph, volumes, ground truth.
//!
//! Every generated app is a complete apk (manifest + dex + optional
//! native libs) plus a *ground-truth* record of every network operation
//! baked into it — which method owns it, what origin the attribution
//! heuristic is expected to produce, the true library and domain
//! categories, and the op's list memberships. The original authors had
//! no ground truth for 25,000 real apps; the simulation does, and the
//! integration tests exploit it.
//!
//! Generation has two phases. `plan_app` makes every draw an app
//! takes from the corpus generator, in a fixed order, and records the
//! first-party and system ground truth. `AppPlan::build` draws
//! nothing: it instantiates the planned libraries (each template seeds
//! its own generator from its package name), lays out the method table
//! and writes the apk, all as pure functions of the plan. A corpus
//! therefore makes its plans in app order on one thread and builds the
//! apps on every core, and the bytes do not depend on which thread
//! built which app.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use spector_dex::apk::{ActivityDecl, Apk, ApkEntry, Manifest};
use spector_dex::model::{
    fnv1a, ClassDef, CodeItem, Connector, DexFile, Dispatcher, Instruction, MethodDef, MethodRef,
    NetworkOp, WireShape,
};
use spector_dex::sig::MethodSig;
use spector_libradar::LibCategory;
use spector_vtcat::DomainCategory;

use crate::categories::{game_share, mean_volume_multiplier, AppCategory};
use crate::domains::DomainUniverse;
use crate::fig9;
use crate::libraries::{
    instantiate, template_connector, templates_of, LibraryOps, LibraryTemplate,
};

/// Traffic archetypes (§IV-A: 35 % of apps had AnT-only traffic, ~89 %
/// had some AnT traffic, ~10 % were AnT-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Archetype {
    /// All of this app's traffic comes from AnT libraries.
    AntOnly,
    /// AnT plus other libraries plus first-party traffic.
    Mixed,
    /// No AnT libraries at all.
    NoAnt,
}

/// How a network op is exercised during an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpStyle {
    /// Runs exactly once, from `Application.onCreate`.
    Startup,
    /// Re-runs on UI events (count depends on the monkey).
    Refresh,
    /// Platform-initiated, no app code on the stack.
    System,
}

/// Ground truth for one generated network operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowTruth {
    /// Destination host.
    pub domain: String,
    /// Destination port.
    pub port: u16,
    /// Request payload bytes per execution.
    pub send_bytes: u64,
    /// Response payload bytes per execution.
    pub recv_bytes: u64,
    /// Package of the method whose code contains the op.
    pub owner_package: String,
    /// Origin package the attribution heuristic is expected to find
    /// (`None` = only built-in frames remain: the `*` bucket).
    pub expected_origin: Option<String>,
    /// Library category this traffic should be accounted under.
    pub lib_category: LibCategory,
    /// True category of the destination domain.
    pub domain_category: DomainCategory,
    /// Op is owned by an advertisement/tracker library.
    pub is_ant: bool,
    /// Op is owned by a Li et al. common library.
    pub is_common: bool,
    /// Execution style.
    pub style: OpStyle,
    /// Wire shape the op was generated with (legacy ops are `Plain`).
    #[serde(default)]
    pub shape: WireShape,
}

/// A system-initiated op the experiment driver replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemOp {
    /// The operation.
    pub op: NetworkOp,
    /// Scheduler base frames for the system thread.
    pub dispatcher: Dispatcher,
}

/// One generated application.
#[derive(Debug, Clone)]
pub struct GeneratedApp {
    /// Application package name.
    pub package: String,
    /// Play category.
    pub category: &'static AppCategory,
    /// The built apk.
    pub apk: Apk,
    /// Ground truth for all baked-in ops (app + system).
    pub truth: Vec<FlowTruth>,
    /// Platform traffic replayed by the driver.
    pub system_ops: Vec<SystemOp>,
    /// Traffic archetype.
    pub archetype: Archetype,
}

/// Generator tunables.
#[derive(Debug, Clone)]
pub struct AppGenConfig {
    /// Scale on per-app method counts (1.0 ≈ the paper's mean of
    /// 49,138 methods per apk — far too slow for simulation; the
    /// default generates ~1/50th).
    pub method_scale: f64,
    /// Scale on per-app byte volumes (1.0 = paper per-app volumes).
    pub volume_scale: f64,
    /// Fraction of network ops carrying a modern wire shape — IPv6,
    /// TLS-like framing, CONNECT proxying, or pooled keep-alive —
    /// assigned deterministically per (owner, domain) with no RNG
    /// draws, so `0.0` (the default) generates a corpus byte-identical
    /// to the pre-shape generator.
    pub modern_fraction: f64,
}

impl Default for AppGenConfig {
    fn default() -> Self {
        AppGenConfig {
            method_scale: 0.02,
            volume_scale: 1.0,
            modern_fraction: 0.0,
        }
    }
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
) -> &'u crate::domains::Domain {
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

/// A library instance planned into an app: its template, the three ops
/// drawn for it (two background fetches and the refresh fetch), and
/// the domain category each op's domain was sampled from.
#[derive(Debug)]
struct LibraryPlan {
    template: &'static LibraryTemplate,
    ops: LibraryOps,
    domain_categories: [DomainCategory; 3],
}

/// Every draw one app takes from the corpus generator, made in order by
/// [`plan_app`]. [`AppPlan::build`] turns the plan into the app and
/// draws nothing, so a corpus plans its apps in order on one thread and
/// builds them on any.
#[derive(Debug)]
pub(crate) struct AppPlan {
    index: usize,
    package: String,
    category: &'static AppCategory,
    archetype: Archetype,
    /// Library instances, in method-table order.
    libraries: Vec<LibraryPlan>,
    /// The first-party async loader's op and the inline fetch's op.
    first_party: Option<(NetworkOp, NetworkOp)>,
    /// Per activity, per click handler: the library whose refresh entry
    /// the handler invokes, if any.
    handlers: Vec<Vec<Option<usize>>>,
    /// Method count the filler pads the dex to.
    target_methods: usize,
    system_ops: Vec<SystemOp>,
    /// First-party and system ground truth, in order; the build puts
    /// each library's rows ahead of it.
    truth: Vec<FlowTruth>,
    native_abis: &'static [&'static str],
}

/// Plans one app: every draw [`AppPlan::build`] needs, in generation
/// order — the volume spread, the template picks with each template's
/// three ops, the two first-party ops, the activity and handler counts
/// with each handler's refresh pick, the method-count target, the two
/// system ops, and the native ABIs.
pub(crate) fn plan_app(
    index: usize,
    category: &'static AppCategory,
    archetype: Archetype,
    universe: &DomainUniverse,
    config: &AppGenConfig,
    rng: &mut SmallRng,
) -> AppPlan {
    let package = format!("com.dev{}.app{index}", index % 911);
    let mut truth: Vec<FlowTruth> = Vec::new();
    let mut used_domains: std::collections::HashSet<String> = std::collections::HashSet::new();

    // --- Volume planning -------------------------------------------------
    // Per-app volume factor: Figure 8 category multiplier × lognormal
    // spread, normalized so corpus expectation matches Figure 9.
    let spread = lognormal(rng, 0.9);
    let factor =
        category.volume_multiplier / mean_volume_multiplier() * spread * config.volume_scale;

    // --- Library composition ---------------------------------------------
    let mut libraries = Vec::new();
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
            libraries.push(plan_library(
                template,
                share,
                universe,
                config,
                rng,
                &mut used_domains,
            ));
        }
    }

    // --- First-party code (the Unknown column) ----------------------------
    let fp_target = if archetype == Archetype::AntOnly {
        0.0
    } else {
        fig9::per_app_mb(LibCategory::Unknown) * MB * factor / 0.65
    };
    // First-party network: an async loader plus an inline (synchronous)
    // fetch — both attribute to the app package.
    let first_party = (fp_target > 1.0).then(|| {
        let (async_share, sync_share) = (fp_target * 0.6, fp_target * 0.4);
        let loader = first_party_op(
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
            let loader_package = loader_sig(&package).package();
            t.owner_package = loader_package.clone();
            t.expected_origin = Some(loader_package);
        }
        let inline = first_party_op(
            sync_share,
            universe,
            config,
            rng,
            &package,
            &mut truth,
            &mut used_domains,
        );
        (loader, inline)
    });

    // --- Activities and handlers -------------------------------------------
    let activity_count = rng.gen_range(1..=4usize);
    let mut handlers = Vec::with_capacity(activity_count);
    for _ in 0..activity_count {
        let handler_count = rng.gen_range(2..=5usize);
        let mut refreshes = Vec::with_capacity(handler_count);
        for _ in 0..handler_count {
            // Some handlers poke a library refresh entry (sparse: most
            // UI interactions do not trigger a banner rotation).
            let refresh = (!libraries.is_empty() && rng.gen_bool(0.05))
                .then(|| rng.gen_range(0..libraries.len()));
            refreshes.push(refresh);
        }
        handlers.push(refreshes);
    }

    // --- Filler target -------------------------------------------------------
    let target_methods = (49_138.0 * config.method_scale * lognormal(rng, 0.55)).max(40.0) as usize;

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

    AppPlan {
        index,
        package,
        category,
        archetype,
        libraries,
        first_party,
        handlers,
        target_methods,
        system_ops,
        truth,
        native_abis: native_abis(rng),
    }
}

/// The first-party async loader, in the app's `.net` sub-package.
fn loader_sig(package: &str) -> MethodSig {
    MethodSig::new(&format!("{package}.net"), "Loader", "run", "()V")
}

impl AppPlan {
    /// Builds the planned app: instantiates each library at its place
    /// in the method table (adding its three ground-truth rows ahead of
    /// the planned ones), lays out `Application.onCreate`, the
    /// activities and their handlers, pads with filler to the method
    /// target, and writes the apk. Draws nothing: the result is a pure
    /// function of the plan.
    pub(crate) fn build(&self) -> GeneratedApp {
        let package = &self.package;
        let mut methods: Vec<MethodDef> = Vec::with_capacity(self.target_methods);
        let mut truth = Vec::with_capacity(3 * self.libraries.len() + self.truth.len());
        // Method ids of each library's init and refresh entries.
        let mut entries = Vec::with_capacity(self.libraries.len());

        // --- Library instances -------------------------------------------
        for library in &self.libraries {
            let template = library.template;
            let base = methods.len() as u32;
            let instance = instantiate(template, base, &library.ops);
            let styles = [OpStyle::Startup, OpStyle::Startup, OpStyle::Refresh];
            for ((sig, op), (domain_category, style)) in instance
                .owned_ops
                .iter()
                .zip(library.domain_categories.into_iter().zip(styles))
            {
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
            let id_of = |entry: &MethodSig| {
                let offset = instance.methods.iter().position(|m| m.sig == *entry);
                base + offset.expect("an instance defines its entries") as u32
            };
            entries.push((id_of(&instance.init_entry), id_of(&instance.refresh_entry)));
            methods.extend(instance.methods);
        }
        truth.extend(self.truth.iter().cloned());

        // --- First-party code (the Unknown column) ------------------------
        let app_on_create_sig = MethodSig::new(package, "App", "onCreate", "()V");
        let mut app_on_create_code: Vec<Instruction> = vec![Instruction::Const(0)];
        for &(init, _) in &entries {
            app_on_create_code.push(Instruction::Invoke(MethodRef::Internal(init)));
        }
        if let Some((loader, inline)) = &self.first_party {
            let loader_id = methods.len() as u32;
            methods.push(MethodDef {
                sig: loader_sig(package),
                code: CodeItem {
                    instructions: vec![Instruction::Network(loader.clone()), Instruction::Return],
                },
            });
            app_on_create_code.push(Instruction::InvokeAsync {
                dispatcher: Dispatcher::Executor,
                target: MethodRef::Internal(loader_id),
            });
            // Synchronous first-party fetch inside onCreate itself.
            app_on_create_code.push(Instruction::Network(inline.clone()));
        }
        app_on_create_code.push(Instruction::Return);
        let app_on_create_id = methods.len() as u32;
        methods.push(MethodDef {
            sig: app_on_create_sig.clone(),
            code: CodeItem {
                instructions: app_on_create_code,
            },
        });

        // --- Activities and handlers ---------------------------------------
        let mut activities = Vec::with_capacity(self.handlers.len());
        for (a, refreshes) in self.handlers.iter().enumerate() {
            let class = format!("{package}.Activity{a}");
            let on_create_sig = MethodSig::new(
                package,
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
            let mut handlers = Vec::with_capacity(refreshes.len());
            for (h, refresh) in refreshes.iter().enumerate() {
                let sig = MethodSig::new(
                    package,
                    &format!("Activity{a}"),
                    &format!("onClick{h}"),
                    "(Landroid/view/View;)V",
                );
                let mut instructions = vec![Instruction::Const(h as u32)];
                if let Some(library) = refresh {
                    let (_, refresh_id) = entries[*library];
                    instructions.push(Instruction::Invoke(MethodRef::Internal(refresh_id)));
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

        // --- Filler to reach the method-count target -----------------------
        let mut filler_index = 0usize;
        while methods.len() < self.target_methods {
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
                    instructions: vec![
                        Instruction::Const(filler_index as u32),
                        Instruction::Return,
                    ],
                },
            });
            filler_index += 1;
        }

        // --- Assemble the apk ------------------------------------------------
        let index = self.index;
        let classes = vec![ClassDef {
            dotted_name: format!("{package}.App"),
            method_indices: vec![app_on_create_id],
        }];
        let dex = DexFile { methods, classes };
        let manifest = Manifest {
            package: package.clone(),
            version_code: 1 + (index % 40) as u32,
            category: self.category.name.to_owned(),
            dex_timestamp: 1_400_000_000 + (index as u64 * 7_919) % 160_000_000,
            vt_scan_date: Some(1_560_000_000 + (index as u64 * 104_729) % 30_000_000),
            application_on_create: vec![app_on_create_sig],
            activities,
        };
        let apk = Apk::build(&manifest, &dex, native_lib_entries(self.native_abis));
        debug_assert!(apk.dex().is_ok(), "generated dex: {:?}", apk.dex().err());

        GeneratedApp {
            package: package.clone(),
            category: self.category,
            apk,
            truth,
            system_ops: self.system_ops.clone(),
            archetype: self.archetype,
        }
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

/// Plans one library instance carrying `target_bytes` of session
/// volume: its three ops, with their domains, ports and ratios.
fn plan_library(
    template: &'static LibraryTemplate,
    target_bytes: f64,
    universe: &DomainUniverse,
    config: &AppGenConfig,
    rng: &mut SmallRng,
    used_domains: &mut std::collections::HashSet<String>,
) -> LibraryPlan {
    let connector = template_connector(template);
    let dist = fig9::domain_distribution(template.category);
    let mut make_op = |bytes: f64| {
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
        (op, domain_category)
    };
    let (bg0, cat0) = make_op(target_bytes * 0.55);
    let (bg1, cat1) = make_op(target_bytes * 0.30);
    let (refresh, catr) = make_op(target_bytes * 0.15 / EXPECTED_REFRESH_INVOCATIONS);
    LibraryPlan {
        template,
        ops: LibraryOps { bg0, bg1, refresh },
        domain_categories: [cat0, cat1, catr],
    }
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

/// Native-library ABIs: ~72 % pure Java, ~20 % fat (arm+x86), ~8 %
/// ARM-only (those get filtered out during app selection, §III-A).
fn native_abis(rng: &mut SmallRng) -> &'static [&'static str] {
    let roll: f64 = rng.gen();
    if roll < 0.72 {
        &[]
    } else if roll < 0.92 {
        &["armeabi-v7a", "x86"]
    } else {
        &["armeabi-v7a", "arm64-v8a"]
    }
}

/// One stub native library per ABI.
fn native_lib_entries(abis: &[&str]) -> Vec<ApkEntry> {
    abis.iter()
        .map(|abi| ApkEntry {
            name: format!("lib/{abi}/libnative.so"),
            data: bytes::Bytes::from(vec![0x7f, b'E', b'L', b'F']),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categories::APP_CATEGORIES;
    use rand::SeedableRng;

    /// One app, planned and built.
    fn generate_app(
        index: usize,
        category: &'static AppCategory,
        archetype: Archetype,
        universe: &DomainUniverse,
        config: &AppGenConfig,
        rng: &mut SmallRng,
    ) -> GeneratedApp {
        plan_app(index, category, archetype, universe, config, rng).build()
    }

    fn quick_app(seed: u64, archetype: Archetype) -> GeneratedApp {
        let universe = DomainUniverse::generate(1, 400);
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = AppGenConfig {
            method_scale: 0.005,
            ..Default::default()
        };
        generate_app(
            0,
            &APP_CATEGORIES[0],
            archetype,
            &universe,
            &config,
            &mut rng,
        )
    }

    #[test]
    fn generated_apk_is_well_formed() {
        let app = quick_app(1, Archetype::Mixed);
        let dex = app.apk.dex().expect("dex parses and validates").to_dex();
        let manifest = app.apk.manifest().expect("manifest parses");
        assert_eq!(manifest.package, app.package);
        assert_eq!(manifest.application_on_create.len(), 1);
        assert!(!manifest.activities.is_empty());
        // Every manifest entry point is defined in the dex.
        for sig in manifest.application_on_create.iter().chain(
            manifest
                .activities
                .iter()
                .flat_map(|a| a.on_create.iter().chain(a.handlers.iter())),
        ) {
            assert!(dex.signatures().any(|s| s == sig), "{sig} missing from dex");
        }
    }

    #[test]
    fn ant_only_apps_have_only_ant_truth() {
        let app = quick_app(2, Archetype::AntOnly);
        let app_flows: Vec<_> = app
            .truth
            .iter()
            .filter(|t| t.style != OpStyle::System)
            .collect();
        assert!(!app_flows.is_empty());
        assert!(app_flows.iter().all(|t| t.is_ant));
    }

    #[test]
    fn no_ant_apps_have_no_ant_truth() {
        let app = quick_app(3, Archetype::NoAnt);
        assert!(app.truth.iter().all(|t| !t.is_ant));
        // But they still talk to the network.
        assert!(app.truth.iter().any(|t| t.recv_bytes > 0));
    }

    #[test]
    fn mixed_apps_cover_ant_and_first_party() {
        let app = quick_app(4, Archetype::Mixed);
        assert!(app.truth.iter().any(|t| t.is_ant));
        assert!(app
            .truth
            .iter()
            .any(|t| t.lib_category == LibCategory::Unknown && t.style != OpStyle::System));
    }

    #[test]
    fn game_engine_only_in_game_apps() {
        let universe = DomainUniverse::generate(1, 400);
        let config = AppGenConfig::default();
        let game_cat = APP_CATEGORIES
            .iter()
            .find(|c| c.name == "GAME_ACTION")
            .unwrap();
        let tool_cat = APP_CATEGORIES.iter().find(|c| c.name == "TOOLS").unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let game = generate_app(0, game_cat, Archetype::Mixed, &universe, &config, &mut rng);
        let mut rng = SmallRng::seed_from_u64(5);
        let tool = generate_app(0, tool_cat, Archetype::Mixed, &universe, &config, &mut rng);
        assert!(game
            .truth
            .iter()
            .any(|t| t.lib_category == LibCategory::GameEngine));
        assert!(!tool
            .truth
            .iter()
            .any(|t| t.lib_category == LibCategory::GameEngine));
    }

    #[test]
    fn truth_domains_are_in_universe() {
        let universe = DomainUniverse::generate(1, 400);
        let mut rng = SmallRng::seed_from_u64(6);
        let app = generate_app(
            1,
            &APP_CATEGORIES[3],
            Archetype::Mixed,
            &universe,
            &AppGenConfig::default(),
            &mut rng,
        );
        for t in &app.truth {
            assert!(
                universe.by_name(&t.domain).is_some(),
                "{} unknown",
                t.domain
            );
        }
    }

    #[test]
    fn modern_fraction_consumes_no_rng() {
        // Same seed, different fraction: every random decision must be
        // identical — only the shape labels change. This is the
        // legacy-inertness guarantee at the generator level.
        let universe = DomainUniverse::generate(1, 400);
        let config = |modern_fraction| AppGenConfig {
            method_scale: 0.005,
            modern_fraction,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let legacy = generate_app(
            0,
            &APP_CATEGORIES[0],
            Archetype::Mixed,
            &universe,
            &config(0.0),
            &mut rng,
        );
        let mut rng = SmallRng::seed_from_u64(11);
        let modern = generate_app(
            0,
            &APP_CATEGORIES[0],
            Archetype::Mixed,
            &universe,
            &config(0.6),
            &mut rng,
        );
        assert!(legacy.truth.iter().all(|t| t.shape == WireShape::Plain));
        assert!(modern.truth.iter().any(|t| t.shape != WireShape::Plain));
        assert_eq!(legacy.truth.len(), modern.truth.len());
        for (l, m) in legacy.truth.iter().zip(&modern.truth) {
            assert_eq!(l.domain, m.domain);
            assert_eq!(l.send_bytes, m.send_bytes);
            assert_eq!(l.recv_bytes, m.recv_bytes);
            assert_eq!(l.owner_package, m.owner_package);
        }
    }

    #[test]
    fn shape_assignment_covers_every_kind() {
        // Across a spread of owners and domains at a high fraction, all
        // four modern shapes (and plain) must appear.
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let shape = shape_for_op(0.7, &format!("com.lib{}", i % 17), &format!("d{i}.example"));
            seen.insert(std::mem::discriminant(&shape));
        }
        assert_eq!(seen.len(), 5, "plain + 4 modern shapes");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick_app(7, Archetype::Mixed);
        let b = quick_app(7, Archetype::Mixed);
        assert_eq!(a.apk.sha256(), b.apk.sha256());
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn received_exceeds_sent() {
        let app = quick_app(8, Archetype::Mixed);
        let recv: u64 = app.truth.iter().map(|t| t.recv_bytes).sum();
        let sent: u64 = app.truth.iter().map(|t| t.send_bytes).sum();
        assert!(recv > sent * 3, "recv {recv} sent {sent}");
    }

    #[test]
    fn lognormal_mean_is_about_one() {
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| lognormal(&mut rng, 0.9)).sum::<f64>() / n as f64;
        assert!((0.9..1.1).contains(&mean), "mean {mean}");
    }
}
