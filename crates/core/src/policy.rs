//! Library-granular policy enforcement (§IV-E "Security").
//!
//! BorderPatrol-style systems enforce per-library network policies but
//! need a-priori knowledge of *which* library to blacklist; the paper
//! positions Libspector as the system that supplies that knowledge.
//! This module closes the loop:
//!
//! * [`Policy`] — an ordered rule list (first match wins) over a flow's
//!   origin-library, library category, destination domain, or domain
//!   category;
//! * [`Policy::evaluate`] — the verdict for one analyzed flow;
//! * [`apply`] — a what-if replay over a campaign: flows that would
//!   have been blocked, bytes (and dollars) saved;
//! * [`suggest_blacklist`] — derives candidate blacklist entries from
//!   measured AnT traffic, the "insights on which library to blacklist"
//!   the paper describes.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spector_libradar::LibCategory;
use spector_vtcat::DomainCategory;

use crate::cost::DataPlan;
use crate::knowledge::Knowledge;
use crate::pipeline::{AnalyzedFlow, AppAnalysis};
use crate::OriginKind;

/// What a rule matches on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Matcher {
    /// Origin-library package prefix (whole-component match).
    LibraryPrefix(String),
    /// Predicted library category.
    LibraryCategory(LibCategory),
    /// Exact destination domain.
    Domain(String),
    /// Destination domain category.
    DomainCategory(DomainCategory),
    /// Flows whose origin is on the AnT list.
    AnyAnt,
    /// Platform-created sockets (no app frames).
    BuiltinOrigin,
}

impl Matcher {
    /// Does this matcher cover `flow`?
    pub fn matches(&self, flow: &AnalyzedFlow) -> bool {
        match self {
            Matcher::LibraryPrefix(prefix) => match &flow.origin {
                OriginKind::Library { origin_library, .. } => {
                    origin_library == prefix
                        || (origin_library.starts_with(prefix.as_str())
                            && origin_library.as_bytes().get(prefix.len()) == Some(&b'.'))
                }
                OriginKind::Builtin => false,
            },
            Matcher::LibraryCategory(category) => flow.lib_category == *category,
            Matcher::Domain(domain) => flow.domain.as_deref() == Some(domain.as_str()),
            Matcher::DomainCategory(category) => flow.domain_category == *category,
            Matcher::AnyAnt => flow.is_ant,
            Matcher::BuiltinOrigin => matches!(flow.origin, OriginKind::Builtin),
        }
    }
}

/// Verdict for a matched flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Permit the flow.
    Allow,
    /// Block the flow.
    Block,
}

/// One policy rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// Human-readable rule name (reported per-rule in the outcome).
    pub name: String,
    /// Match condition.
    pub matcher: Matcher,
    /// Verdict when matched.
    pub action: Action,
}

/// An ordered policy: first matching rule wins; unmatched flows get the
/// default action.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Policy {
    /// Rules, highest priority first.
    pub rules: Vec<Rule>,
    /// Verdict when no rule matches.
    pub default_action: Action,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            rules: Vec::new(),
            default_action: Action::Allow,
        }
    }
}

impl Policy {
    /// Creates an allow-by-default policy.
    pub fn allow_by_default() -> Self {
        Self::default()
    }

    /// Appends a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, name: &str, matcher: Matcher, action: Action) -> Self {
        self.rules.push(Rule {
            name: name.to_owned(),
            matcher,
            action,
        });
        self
    }

    /// Verdict for one flow, with the deciding rule's name.
    pub fn evaluate(&self, flow: &AnalyzedFlow) -> (Action, Option<&str>) {
        for rule in &self.rules {
            if rule.matcher.matches(flow) {
                return (rule.action, Some(rule.name.as_str()));
            }
        }
        (self.default_action, None)
    }
}

/// Outcome of replaying a policy over a campaign.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PolicyReport {
    /// Flows evaluated.
    pub flows: usize,
    /// Flows that would have been blocked.
    pub blocked_flows: usize,
    /// Wire bytes that would have been blocked.
    pub blocked_bytes: u64,
    /// Wire bytes allowed.
    pub allowed_bytes: u64,
    /// `(rule name, flows matched, bytes)` in rule order.
    pub per_rule: Vec<(String, usize, u64)>,
    /// Apps whose entire traffic would have been blocked.
    pub fully_blocked_apps: usize,
}

impl PolicyReport {
    /// Hourly savings implied by the blocked volume, per app, under a
    /// data plan.
    pub fn hourly_savings_usd(&self, plan: &DataPlan, apps: usize) -> f64 {
        plan.hourly_cost_usd(self.blocked_bytes as f64 / apps.max(1) as f64)
    }
}

/// Replays `policy` over a campaign's analyzed flows.
pub fn apply(policy: &Policy, analyses: &[AppAnalysis]) -> PolicyReport {
    let mut report = PolicyReport::default();
    let mut rule_stats: Vec<(usize, u64)> = vec![(0, 0); policy.rules.len()];
    for analysis in analyses {
        let mut app_total = 0u64;
        let mut app_blocked = 0u64;
        for flow in &analysis.flows {
            report.flows += 1;
            let bytes = flow.total_bytes();
            app_total += bytes;
            let (action, rule_name) = policy.evaluate(flow);
            if let Some(name) = rule_name {
                let idx = policy
                    .rules
                    .iter()
                    .position(|r| r.name == name)
                    .expect("rule came from this policy");
                rule_stats[idx].0 += 1;
                rule_stats[idx].1 += bytes;
            }
            match action {
                Action::Block => {
                    report.blocked_flows += 1;
                    report.blocked_bytes += bytes;
                    app_blocked += bytes;
                }
                Action::Allow => report.allowed_bytes += bytes,
            }
        }
        if app_total > 0 && app_blocked == app_total {
            report.fully_blocked_apps += 1;
        }
    }
    report.per_rule = policy
        .rules
        .iter()
        .zip(rule_stats)
        .map(|(rule, (flows, bytes))| (rule.name.clone(), flows, bytes))
        .collect();
    report
}

/// Online, in-emulator policy enforcement: a [`spector_runtime::RuntimeHook`]
/// that evaluates the policy at `connect` time and tears blocked
/// connections down before any payload moves — the BorderPatrol
/// enforcement model, fed by Libspector's own attribution heuristic
/// applied live to the creating thread's stack.
///
/// Library rules see the verdict the offline pipeline would give the
/// flow: the origin comes from the knowledge base's builtin filter and
/// its category and list membership from the knowledge base's tiered
/// cascade ([`Knowledge::library_verdict_tiered`]), so renamed and
/// mangled SDKs are recognized online as they are offline. Domain
/// rules resolve the destination address through the supplied
/// IP→domain map (the enforcer's equivalent of a DNS inspection cache).
#[derive(Debug)]
pub struct OnlineEnforcer {
    policy: Policy,
    knowledge: Arc<Knowledge>,
    domains: HashMap<IpAddr, String>,
    blocked: u64,
}

impl OnlineEnforcer {
    /// Builds an enforcer from a policy plus the campaign's knowledge,
    /// shared with (not copied from) the analysis that uses it.
    pub fn new(
        policy: Policy,
        knowledge: Arc<Knowledge>,
        domains: HashMap<IpAddr, String>,
    ) -> Self {
        OnlineEnforcer {
            policy,
            knowledge,
            domains,
            blocked: 0,
        }
    }

    /// Connections this enforcer has blocked so far.
    pub fn blocked(&self) -> u64 {
        self.blocked
    }
}

impl spector_runtime::RuntimeHook for OnlineEnforcer {
    fn after_socket_connect(
        &mut self,
        _ctx: &mut spector_runtime::HookContext<'_>,
        _socket: spector_netsim::SocketId,
    ) {
        // Pure enforcer: observation is the supervisor's job.
    }

    fn connect_verdict(
        &mut self,
        ctx: &mut spector_runtime::HookContext<'_>,
        socket: spector_netsim::SocketId,
    ) -> spector_runtime::ConnectVerdict {
        let Some(pair) = ctx.net.socket_pair(socket) else {
            return spector_runtime::ConnectVerdict::Allow;
        };
        let frames = ctx.stack.snapshot();
        let attribution = crate::attribution::attribute(&frames, &self.knowledge.builtin);
        let (lib_category, is_ant, is_common) = match &attribution.origin {
            OriginKind::Library { origin_library, .. } => {
                self.knowledge.library_verdict_tiered(origin_library).0
            }
            OriginKind::Builtin => (LibCategory::Unknown, false, false),
        };
        let domain = self
            .domains
            .get(&spector_netsim::canonical_ip(pair.dst_ip))
            .cloned();
        // Domain category is not known online (no VT labels inside the
        // emulator); domain-category rules only fire offline.
        let flow = AnalyzedFlow {
            domain,
            domain_category: DomainCategory::Unknown,
            origin: attribution.origin,
            lib_category,
            is_ant,
            is_common,
            sent_bytes: 0,
            recv_bytes: 0,
            sent_payload: 0,
            recv_payload: 0,
            start_micros: 0,
            http_user_agent: None,
            family: spector_netsim::shape::IpFamily::of(&pair),
            shape: spector_netsim::shape::FlowShape::Plain,
            stream: None,
        };
        match self.policy.evaluate(&flow).0 {
            Action::Block => {
                self.blocked += 1;
                spector_runtime::ConnectVerdict::Block
            }
            Action::Allow => spector_runtime::ConnectVerdict::Allow,
        }
    }
}

/// Suggests blacklist entries: the 2-level origins of AnT traffic,
/// ranked by bytes, keeping those above `min_bytes`. This is the
/// Libspector→BorderPatrol hand-off the paper describes.
pub fn suggest_blacklist(analyses: &[AppAnalysis], min_bytes: u64) -> Vec<(String, u64)> {
    let mut per_origin: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for analysis in analyses {
        for flow in &analysis.flows {
            if !flow.is_ant {
                continue;
            }
            if let OriginKind::Library { two_level, .. } = &flow.origin {
                *per_origin.entry(two_level.clone()).or_default() += flow.total_bytes();
            }
        }
    }
    let mut ranked: Vec<(String, u64)> = per_origin
        .into_iter()
        .filter(|(_, bytes)| *bytes >= min_bytes)
        .collect();
    ranked.sort_by_key(|(name, bytes)| (std::cmp::Reverse(*bytes), name.clone()));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageReport;

    fn flow(
        origin: Option<&str>,
        lib: LibCategory,
        domain: &str,
        dc: DomainCategory,
        bytes: u64,
    ) -> AnalyzedFlow {
        AnalyzedFlow {
            domain: Some(domain.to_owned()),
            domain_category: dc,
            origin: match origin {
                Some(pkg) => OriginKind::Library {
                    origin_library: pkg.to_owned(),
                    two_level: spector_dex::sig::prefix_levels(pkg, 2),
                },
                None => OriginKind::Builtin,
            },
            lib_category: lib,
            is_ant: matches!(
                lib,
                LibCategory::Advertisement | LibCategory::MobileAnalytics
            ),
            is_common: false,
            sent_bytes: 0,
            recv_bytes: bytes,
            sent_payload: 0,
            recv_payload: bytes,
            start_micros: 0,
            http_user_agent: None,
            family: Default::default(),
            shape: Default::default(),
            stream: None,
        }
    }

    fn app(flows: Vec<AnalyzedFlow>) -> AppAnalysis {
        AppAnalysis {
            package: "com.a".into(),
            app_category: "TOOLS".into(),
            flows,
            unattributed_flows: 0,
            reports_without_flow: 0,
            coverage: CoverageReport {
                total_methods: 1,
                executed_methods: 1,
                external_methods: 0,
            },
            dns_packets: 0,
            report_packets: 0,
            integrity: Default::default(),
            detect: Default::default(),
            sampling: Default::default(),
        }
    }

    #[test]
    fn first_match_wins_and_prefix_is_component_aware() {
        let policy = Policy::allow_by_default()
            .with_rule(
                "allow-unity-player",
                Matcher::LibraryPrefix("com.unity3d.player".into()),
                Action::Allow,
            )
            .with_rule(
                "block-unity",
                Matcher::LibraryPrefix("com.unity3d".into()),
                Action::Block,
            );
        let player = flow(
            Some("com.unity3d.player.core"),
            LibCategory::GameEngine,
            "g",
            DomainCategory::Games,
            10,
        );
        let ads = flow(
            Some("com.unity3d.ads.cache"),
            LibCategory::Advertisement,
            "a",
            DomainCategory::Advertisements,
            10,
        );
        let lookalike = flow(
            Some("com.unity3dx.thing"),
            LibCategory::Utility,
            "u",
            DomainCategory::InfoTech,
            10,
        );
        assert_eq!(
            policy.evaluate(&player),
            (Action::Allow, Some("allow-unity-player"))
        );
        assert_eq!(policy.evaluate(&ads), (Action::Block, Some("block-unity")));
        assert_eq!(policy.evaluate(&lookalike), (Action::Allow, None));
    }

    #[test]
    fn apply_accounts_bytes_and_rules() {
        let policy =
            Policy::allow_by_default().with_rule("block-ant", Matcher::AnyAnt, Action::Block);
        let analyses = vec![
            app(vec![
                flow(
                    Some("com.ads.sdk"),
                    LibCategory::Advertisement,
                    "a",
                    DomainCategory::Advertisements,
                    700,
                ),
                flow(
                    Some("okhttp3.internal"),
                    LibCategory::DevelopmentAid,
                    "c",
                    DomainCategory::Cdn,
                    300,
                ),
            ]),
            // AnT-only app: fully blocked.
            app(vec![flow(
                Some("com.ads.sdk"),
                LibCategory::Advertisement,
                "a",
                DomainCategory::Advertisements,
                500,
            )]),
        ];
        let report = apply(&policy, &analyses);
        assert_eq!(report.flows, 3);
        assert_eq!(report.blocked_flows, 2);
        assert_eq!(report.blocked_bytes, 1_200);
        assert_eq!(report.allowed_bytes, 300);
        assert_eq!(report.fully_blocked_apps, 1);
        assert_eq!(report.per_rule, vec![("block-ant".to_owned(), 2, 1_200)]);
        let savings = report.hourly_savings_usd(&DataPlan::default(), 2);
        assert!(savings > 0.0);
    }

    #[test]
    fn category_domain_and_builtin_matchers() {
        let game = flow(
            Some("com.engine"),
            LibCategory::GameEngine,
            "play.x",
            DomainCategory::Games,
            1,
        );
        let builtin = flow(
            None,
            LibCategory::Unknown,
            "probe.x",
            DomainCategory::InfoTech,
            1,
        );
        assert!(Matcher::LibraryCategory(LibCategory::GameEngine).matches(&game));
        assert!(!Matcher::LibraryCategory(LibCategory::Payment).matches(&game));
        assert!(Matcher::Domain("play.x".into()).matches(&game));
        assert!(Matcher::DomainCategory(DomainCategory::Games).matches(&game));
        assert!(Matcher::BuiltinOrigin.matches(&builtin));
        assert!(!Matcher::BuiltinOrigin.matches(&game));
        assert!(!Matcher::LibraryPrefix("com".into()).matches(&builtin));
    }

    #[test]
    fn blacklist_suggestion_ranks_ant_two_levels() {
        let analyses = vec![app(vec![
            flow(
                Some("com.vungle.publisher"),
                LibCategory::Advertisement,
                "a",
                DomainCategory::Advertisements,
                900,
            ),
            flow(
                Some("com.adnet.banner"),
                LibCategory::Advertisement,
                "b",
                DomainCategory::Cdn,
                400,
            ),
            flow(
                Some("com.tiny.ads"),
                LibCategory::Advertisement,
                "c",
                DomainCategory::Advertisements,
                10,
            ),
            flow(
                Some("okhttp3.internal"),
                LibCategory::DevelopmentAid,
                "d",
                DomainCategory::Cdn,
                5_000,
            ),
        ])];
        let suggestions = suggest_blacklist(&analyses, 100);
        assert_eq!(
            suggestions,
            vec![
                ("com.vungle".to_owned(), 900),
                ("com.adnet".to_owned(), 400),
            ]
        );
    }

    #[test]
    fn default_block_policy() {
        let policy = Policy {
            rules: vec![],
            default_action: Action::Block,
        };
        let f = flow(
            Some("com.x"),
            LibCategory::Utility,
            "d",
            DomainCategory::InfoTech,
            5,
        );
        assert_eq!(policy.evaluate(&f), (Action::Block, None));
    }
}
