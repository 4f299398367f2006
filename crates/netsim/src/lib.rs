//! Simulated network substrate for the Libspector emulator.
//!
//! The original system records all emulator traffic with a packet capture
//! and later answers "how many bytes did this socket move" by summing the
//! TCP packets that share the socket's connection 4-tuple, and "which
//! domain was this connection to" by replaying the DNS requests observed
//! in the same capture (§III-E, §III-F).
//!
//! To exercise those exact code paths we simulate the emulator's network
//! interface at the *wire* level:
//!
//! * [`packet`] encodes and decodes real Ethernet II / IPv4 / IPv6 /
//!   TCP / UDP headers, with genuine internet checksums. Its one header
//!   walk serves both the decoder and [`peek_frame`], the decoder
//!   without the TCP checksum, with which the streaming
//!   (`spector-live`) engine routes raw frames to the shard that
//!   decodes them;
//! * [`dns`] implements the DNS wire format for A-record queries and
//!   responses (including compression-pointer parsing);
//! * [`pcap`] reads and writes the classic libpcap file format, so
//!   captures produced here are valid tcpdump/wireshark files;
//! * [`stack`] is the emulator-facing socket API — `connect`, `transfer`,
//!   `close`, `udp_send`, `getsockname`/`getpeername` — which emits
//!   packets into a capture as a side effect;
//! * [`flows`] reassembles a capture back into per-connection flows with
//!   per-direction byte counts, and recovers the IP→domain map from
//!   observed DNS responses;
//! * [`capture`] holds the one per-frame step ([`CaptureTables`]): a
//!   frame is decoded once and lands in the flow table, the DNS map,
//!   or the collector's lane. [`CaptureIndex`] loops it over a
//!   finished capture, building every offline view in a single decode
//!   pass and borrowing payloads instead of copying them; the
//!   streaming engine's joiners call it per arriving frame;
//! * [`clock`] is the deterministic virtual clock everything is stamped
//!   with.
//!
//! # Examples
//!
//! ```
//! use spector_netsim::clock::Clock;
//! use spector_netsim::stack::NetStack;
//!
//! let clock = Clock::new();
//! let mut stack = NetStack::new(clock, "10.0.2.15".parse().unwrap());
//! let ip = stack.resolve("ads.example.com", "93.184.216.34".parse().unwrap());
//! let sock = stack.tcp_connect(ip, 443);
//! stack.tcp_transfer(sock, 400, 51_200); // sent, received payload bytes
//! stack.tcp_close(sock);
//! let pcap = stack.capture_pcap();
//! assert!(pcap.len() > 24); // non-empty valid capture
//! ```

pub mod capture;
pub mod clock;
pub mod dns;
pub mod flows;
pub mod http;
pub mod packet;
pub mod pcap;
pub mod shape;
pub mod stack;

pub use capture::{CaptureIndex, CaptureTables, Lane};
pub use clock::Clock;
pub use flows::{DnsMap, FlowTable, FlowTableBuilder, StreamStat, TcpFlow};
pub use packet::{canonical_ip, peek_frame, FrameErrorCounts, FrameErrorKind, SocketPair};
pub use shape::{classify_shape, resolve_flow_domain, FlowShape, IpFamily};
pub use stack::{local_ipv6_for, NetStack, SocketId};
