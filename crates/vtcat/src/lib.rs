//! DNS domain categorization (§III-F, Table I).
//!
//! For every domain its apps contacted, Libspector queried VirusTotal,
//! which returns category labels aggregated from five cybersecurity
//! vendors. Because "there are no universal baselines for domain
//! category naming", the paper tokenizes the heterogeneous vendor labels
//! into **17 generic categories** using hand-curated regular-expression
//! patterns (Table I) and then majority-votes per domain.
//!
//! This crate implements:
//!
//! * [`DomainCategory`] — the 17 generic categories;
//! * [`Tokenizer`] — Table I as the token lists its patterns alternate
//!   (a few short tokens count only as whole words) plus the
//!   majority-vote classifier; its tests compile the patterns
//!   themselves with `spector_regexlite` and hold the table to them;
//! * [`VendorOracle`] — the VirusTotal stand-in: a deterministic,
//!   seedable source of noisy multi-vendor labels for a domain whose
//!   true category is known to the workload generator (vendors disagree,
//!   sometimes return nothing, and sometimes mislabel — so the
//!   tokenizer's `unknown` and tie-breaking paths are all exercised).

pub mod category;
pub mod oracle;
pub mod tokenizer;

pub use category::DomainCategory;
pub use oracle::VendorOracle;
pub use tokenizer::Tokenizer;
