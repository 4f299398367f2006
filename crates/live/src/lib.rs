//! `spector-live` — the streaming online attribution engine.
//!
//! The offline pipeline ([`libspector::analyze_run`]) answers "which
//! library moved these bytes" after a run finishes, from a complete
//! capture. This crate answers the same question *while the campaign
//! is running*: captured frames and Socket Supervisor report datagrams
//! are consumed one event at a time, in virtual-clock order, and a
//! live summary of per-library and per-domain-category traffic is
//! available at any instant — with the guarantee that once the stream
//! is finished, the live answer equals the offline one exactly.
//!
//! # Architecture: two-phase ingress
//!
//! Decode happens **per shard, not on the producer**. The producer
//! peeks at the raw bytes with the decoders' own header walks (netsim's
//! frame walk without the TCP checksum and, for a report datagram, the
//! report header parse) just far enough to extract the canonical
//! 4-tuple, routes by the stable FNV-1a hash, and ships frames in
//! per-shard batches — one channel operation per ~dozens of frames.
//! A frame is a [`FrameBytes`], a range of a
//! buffer shared with the other frames copied in with it, so ingress
//! allocates and copies once per socket read or run, not per frame.
//! Each shard then runs the full classified decode on the bytes it
//! owns.
//!
//! ```text
//!  capture / collector / ingest socket     LiveEngine
//!  ───────────────────────────────  push_run / push_raw_run
//!  raw frame bytes ───────▶ ┌────────────────────────────────────┐
//!                           │ PEEK   decoders' header walks      │
//!                           │ ROUTE  hash(run, 4-tuple) → shard  │
//!                           │        DNS lane: broadcast (Arc    │
//!                           │        clone); unroutable bytes →  │
//!                           │        deterministic fallback shard│
//!                           │ BATCH  RawBatch per shard channel  │
//!                           └──┬───────────┬───────────┬─────────┘
//!                     bounded  ▼           ▼           ▼
//!                     queues  shard 0    shard 1  …  shard N-1
//!                             frame step + collector step (the
//!                             offline pipeline's own; one ledger)
//!                             LiveJoiner per run, per shard
//!                               snapshot() ⇒ LiveSummary
//! ```
//!
//! * [`batch`] is the producer half: [`classify_route`] peeks and
//!   routes, [`IngressBatcher`] accumulates per-shard [`RawBatch`]es.
//!   Raw frames are the only ingress: every frame reaches a joiner
//!   through the shard's classified decode.
//! * [`shard_of`] ([`event`]) is the `(run, canonical 4-tuple)` shard
//!   key.
//! * [`LiveJoiner`] ([`joiner`]) feeds each frame through netsim's
//!   per-frame step ([`spector_netsim::CaptureTables`], the step the
//!   offline capture index loops) into growing tables, drives
//!   libspector's one report↔flow join ([`libspector::ReportJoin`])
//!   over them, and adds only a pending buffer for out-of-order
//!   arrivals with TTL eviction on the virtual clock.
//! * [`LiveEngine`] ([`shard`]) owns N shard threads fed by bounded
//!   channels with an explicit backpressure policy
//!   ([`OverflowPolicy`]). A shard decodes collector payloads with the
//!   hooks collector step ([`spector_hooks::Collected`]) and tallies
//!   failures with the offline walk's record calls into one
//!   [`libspector::RunIntegrity`]. Sharding changes throughput, never
//!   results — decode errors land on deterministic shards so even the
//!   ledger is shard-count-invariant.
//! * [`IngestServer`] ([`ingest`]) is the service boundary: a loopback
//!   TCP listener speaking a 16-byte-header record framing, feeding
//!   the same batched ingress with the same backpressure.
//! * [`LiveSummary`] ([`summary`]) is the mergeable snapshot, a fold
//!   over borrowed flow rows ([`libspector::FlowRow`]) plus the run
//!   ledger ([`RunIntegrity`](libspector::RunIntegrity) and
//!   [`SamplingLedger`](spector_sampling::SamplingLedger)), directly
//!   comparable with the offline pipeline via
//!   [`LiveSummary::offline_view`] and [`LiveSummary::from_analyses`].
//!   It is the repository's one traffic fold: the store query
//!   (`spector-analysis`'s `storeq`) embeds it too.
//!
//! # Event ordering semantics
//!
//! The engine assumes **per-key order**: events of one `(run,
//! canonical 4-tuple)` arrive in virtual-clock order, which one
//! producer streaming one run trivially provides. Across keys and
//! across runs, any interleaving is fine. Two out-of-order hazards
//! are handled explicitly rather than assumed away:
//!
//! * **report-before-SYN** — a report datagram observed before its
//!   connection's first TCP segment pends in the joiner and re-joins
//!   when that segment arrives;
//! * **data-before-DNS** — destination domains are resolved lazily at
//!   snapshot time against the DNS map as of the snapshot, so a flow
//!   whose DNS response has not arrived yet shows as `Unknown` and
//!   converges in a later snapshot.
//!
//! # Eviction semantics
//!
//! A pending report whose flow never materializes (its packets were
//! lost from the capture) is evicted once the joiner's watermark — the
//! largest delivery timestamp seen — advances more than
//! [`JoinerConfig::pending_ttl_micros`] past the report's enqueue
//! point. Eviction is driven purely by the virtual clock: a stalled
//! stream never evicts. Evicted and still-pending ("orphaned")
//! reports are counted in every summary; for an in-order replay of a
//! finished capture, `evicted + orphaned` equals the offline join's
//! `reports_without_flow`.
//!
//! # Offline equivalence
//!
//! The claim and row rules are the offline pipeline's own
//! ([`libspector::ReportJoin`]), so the equivalence argument covers
//! only what differs: an incremental versus a finished flow table. The
//! virtual clock is monotone in capture order, so when a report is
//! delivered, every epoch of its 4-tuple that the offline join could
//! select already exists — epochs opened later start strictly after
//! the report's hook time and are never selected by `lookup_epoch`.
//! First-claimant-wins is preserved because per-key delivery order
//! matches capture order, and the per-run, per-shard join sees reports
//! for one pair in that order. Rows are read at snapshot time from the
//! table-so-far, which at end-of-stream *is* the offline flow table.
//! The integration test `live_equivalence` asserts the resulting
//! identity as one whole-struct equality,
//! `live.offline_view() == LiveSummary::from_analyses(&analyses)`.

pub mod batch;
pub mod event;
pub mod ingest;
pub mod joiner;
pub mod shard;
pub mod summary;

pub use batch::{classify_route, fallback_shard, FrameBytes, RawBatch, RawFrame, RawItem, Route};
pub use event::shard_of;
pub use ingest::{encode_record, IngestClient, IngestConfig, IngestServer, RECORD_HEADER_LEN};
pub use joiner::{JoinerConfig, LiveJoiner};
pub use shard::{IngressBatcher, LiveConfig, LiveEngine, OverflowPolicy};
pub use summary::{LiveSummary, Volume};
