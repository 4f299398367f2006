//! The first real service boundary: a loopback TCP ingest listener in
//! front of the live engine.
//!
//! Every prior ingress path shared the producer's address space. This
//! module accepts the same raw frames over a socket — the shape a
//! fleet of emulators would use — and feeds them through the exact
//! peek-route-batch ingress of [`crate::batch`], so the service
//! inherits the engine's backpressure ([`OverflowPolicy`]) and all of
//! its accounting guarantees.
//!
//! # Framing protocol
//!
//! One **record** is a 16-byte little-endian header followed by the
//! raw Ethernet frame bytes:
//!
//! ```text
//! offset  size  field
//!      0     4  run id            (u32 LE)
//!      4     8  capture timestamp (u64 LE, microseconds)
//!     12     4  frame length      (u32 LE, bytes; capped)
//!     16     …  raw frame bytes
//! ```
//!
//! Connection-per-emulator: each accepted connection carries one
//! ordered stream of records (per-key order within a connection is
//! preserved end to end, which is all the engine requires). EOF ends
//! the stream; whatever buffered is flushed.
//!
//! # Reading a connection
//!
//! A connection handler reads into one reused 64 KiB buffer, grown only
//! to fit a record longer than that (never past the header plus
//! [`IngestConfig::max_frame_len`]). After each read it copies every
//! record the read completed into one exactly-sized shared buffer and
//! pushes each frame as a range of it ([`FrameBytes`]), then moves the
//! partial record left over to the front of the read buffer. A
//! connection thus costs one allocation and one copy per read, not per
//! record, and a frame in flight pins only the records read with it,
//! never a whole read buffer.
//!
//! Each of these is one malformed record, counted in
//! `spector_ingest_malformed_records_total`, and ends the connection:
//! a header or body cut short by EOF (or a failed read), a length over
//! `max_frame_len`, or a record still incomplete at the second idle
//! tick after shutdown. Records before it are delivered; nothing is
//! silently skipped.
//!
//! # Shutdown
//!
//! [`IngestServer::shutdown`] stops accepting — after serving every
//! connection the kernel had already queued — lets every connection
//! handler drain what its peer already sent (handlers end at EOF or
//! after an idle read-timeout once the flag is up), joins all
//! threads, and hands the engine back — callers then `finish()` or
//! keep snapshotting it. Handlers that finish earlier are joined as
//! the next connection is accepted, so a long-lived server keeps no
//! thread for a past connection.
//!
//! [`OverflowPolicy`]: crate::OverflowPolicy

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use spector_netsim::pcap::CapturedPacket;
use spector_telemetry::{Counter, Telemetry};

use crate::batch::FrameBytes;
use crate::shard::{IngressBatcher, LiveEngine};
use crate::summary::LiveSummary;

/// Bytes in a record header: run (4) + timestamp (8) + length (4).
pub const RECORD_HEADER_LEN: usize = 16;

/// Bytes a connection's read buffer starts with.
const READ_BUF_LEN: usize = 64 * 1024;

/// Listener tuning.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Socket read timeout: the idle tick on which handlers flush
    /// their batch buffers (bounding snapshot staleness) and check the
    /// shutdown flag.
    pub read_timeout: Duration,
    /// Upper bound on one record's frame length; larger claims are
    /// malformed (a real Ethernet frame is ≤ ~64 KiB in this corpus).
    pub max_frame_len: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            read_timeout: Duration::from_millis(25),
            max_frame_len: 256 * 1024,
        }
    }
}

/// Pre-resolved listener counters, shared by all handler threads.
#[derive(Clone)]
struct IngestCounters {
    connections: Counter,
    records: Counter,
    malformed: Counter,
}

impl IngestCounters {
    fn new(telemetry: &Telemetry) -> IngestCounters {
        IngestCounters {
            connections: telemetry.counter("spector_ingest_connections_total"),
            records: telemetry.counter("spector_ingest_records_total"),
            malformed: telemetry.counter("spector_ingest_malformed_records_total"),
        }
    }
}

/// The running TCP listener in front of one engine.
pub struct IngestServer {
    engine: Arc<LiveEngine>,
    tcp_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Tells the accept loop which connection is shutdown's wake-up.
    wake: mpsc::Sender<SocketAddr>,
    /// Yields the handlers still unjoined at shutdown, and whether an
    /// already joined one panicked.
    accept_handle: JoinHandle<(Vec<JoinHandle<()>>, bool)>,
}

impl IngestServer {
    /// Binds the loopback listener on an ephemeral port and starts
    /// serving into `engine`.
    pub fn start(engine: LiveEngine, config: IngestConfig) -> io::Result<IngestServer> {
        let engine = Arc::new(engine);
        let counters = IngestCounters::new(engine.telemetry());
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let tcp_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (wake, wake_rx) = mpsc::channel::<SocketAddr>();

        let accept_handle = {
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || {
                let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                let mut reaped_panic = false;
                let mut wake_addr = None;
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    // Shutdown raises the flag before it connects, and
                    // the accept queue is FIFO: every connection ahead
                    // of its wake-up is a real client already queued,
                    // served like any other.
                    if shutdown.load(Ordering::SeqCst) {
                        let wake_addr = *wake_addr.get_or_insert_with(|| {
                            wake_rx.recv().expect("shutdown sends its wake-up address")
                        });
                        if stream.peer_addr().ok() == Some(wake_addr) {
                            break;
                        }
                    }
                    counters.connections.inc();
                    // A thread nobody joins keeps its stack mapped.
                    for finished in handlers.extract_if(.., |handler| handler.is_finished()) {
                        reaped_panic |= finished.join().is_err();
                    }
                    let engine = Arc::clone(&engine);
                    let shutdown = Arc::clone(&shutdown);
                    let config = config.clone();
                    let counters = counters.clone();
                    handlers.push(thread::spawn(move || {
                        serve_connection(&engine, stream, &shutdown, &config, &counters)
                    }));
                }
                (handlers, reaped_panic)
            })
        };

        Ok(IngestServer {
            engine,
            tcp_addr,
            shutdown,
            wake,
            accept_handle,
        })
    }

    /// The TCP listener's loopback address.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// A consistent summary of everything ingested so far (handlers
    /// flush their batches at least every read-timeout tick, so a
    /// quiescent server's snapshot includes every record received).
    pub fn snapshot(&self) -> LiveSummary {
        self.engine.snapshot()
    }

    /// Graceful drain: serve every connection already queued, stop
    /// accepting, let handlers finish reading what peers already sent,
    /// join every thread, and return the engine for finishing.
    pub fn shutdown(self) -> LiveEngine {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the (blocking) accept loop with a connection of our own,
        // kept open until the loop has seen it and left.
        let wake =
            TcpStream::connect(self.tcp_addr).expect("connecting to the own ingest listener");
        self.wake
            .send(wake.local_addr().expect("wake-up connection address"))
            .expect("ingest accept loop is running");
        let (handlers, reaped_panic) = self.accept_handle.join().expect("ingest accept panicked");
        drop(wake);
        for handler in handlers {
            handler.join().expect("ingest connection handler panicked");
        }
        assert!(!reaped_panic, "ingest connection handler panicked");
        Arc::into_inner(self.engine).expect("all ingest threads joined")
    }
}

/// Encodes one record (header + frame) for the wire.
pub fn encode_record(run: u32, timestamp_micros: u64, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + frame.len());
    out.extend_from_slice(&run.to_le_bytes());
    out.extend_from_slice(&timestamp_micros.to_le_bytes());
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
    out
}

/// A buffered TCP sender speaking the record protocol — the client
/// half used by benches, tests, and emulator-side adapters.
pub struct IngestClient {
    stream: io::BufWriter<TcpStream>,
}

impl IngestClient {
    /// Connects to a server's TCP address.
    pub fn connect(addr: SocketAddr) -> io::Result<IngestClient> {
        Ok(IngestClient {
            stream: io::BufWriter::with_capacity(64 * 1024, TcpStream::connect(addr)?),
        })
    }

    /// Sends one frame as a record.
    pub fn send_frame(&mut self, run: u32, timestamp_micros: u64, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(&run.to_le_bytes())?;
        self.stream.write_all(&timestamp_micros.to_le_bytes())?;
        self.stream.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.stream.write_all(frame)
    }

    /// Sends a whole capture as run `run`, in capture order.
    pub fn send_run(&mut self, run: u32, capture: &[CapturedPacket]) -> io::Result<()> {
        for packet in capture {
            self.send_frame(run, packet.timestamp_micros, &packet.data)?;
        }
        Ok(())
    }

    /// Flushes and closes the write half, signalling end-of-stream.
    pub fn finish(mut self) -> io::Result<()> {
        self.stream.flush()?;
        self.stream.get_ref().shutdown(std::net::Shutdown::Write)
    }
}

/// One record header, as sent.
struct Header {
    run: u32,
    timestamp_micros: u64,
    frame_len: usize,
}

impl Header {
    /// The header at the start of `bytes`, if all of it is there.
    fn parse(bytes: &[u8]) -> Option<Header> {
        let (run, rest) = bytes.split_first_chunk()?;
        let (timestamp_micros, rest) = rest.split_first_chunk()?;
        let (frame_len, _) = rest.split_first_chunk()?;
        Some(Header {
            run: u32::from_le_bytes(*run),
            timestamp_micros: u64::from_le_bytes(*timestamp_micros),
            frame_len: u32::from_le_bytes(*frame_len) as usize,
        })
    }
}

/// Where a connection's frames go: the engine's batcher in service.
trait FrameSink {
    /// Takes one frame.
    fn push(&mut self, run: u32, timestamp_micros: u64, frame: FrameBytes);
    /// An idle read-timeout tick: nothing arrived for a while.
    fn idle(&mut self);
}

impl FrameSink for IngressBatcher<'_> {
    fn push(&mut self, run: u32, timestamp_micros: u64, frame: FrameBytes) {
        self.push_raw(run, timestamp_micros, frame);
    }

    /// Flushes, so in-flight frames stay visible to snapshots.
    fn idle(&mut self) {
        self.flush();
    }
}

/// One emulator connection: a loop of records into one batcher.
fn serve_connection(
    engine: &LiveEngine,
    mut stream: TcpStream,
    shutdown: &AtomicBool,
    config: &IngestConfig,
    counters: &IngestCounters,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let mut batcher = engine.batcher();
    read_records(
        &mut stream,
        &mut batcher,
        shutdown,
        config.max_frame_len,
        counters,
    );
    // Dropping the batcher flushes the tail.
}

/// Cuts `stream` into records and pushes their frames into `sink`, as
/// the module docs describe, until EOF, a malformed record, or an idle
/// tick with the shutdown flag up at a record boundary.
fn read_records(
    stream: &mut impl Read,
    sink: &mut impl FrameSink,
    shutdown: &AtomicBool,
    max_frame_len: usize,
    counters: &IngestCounters,
) {
    let mut buf = vec![0u8; READ_BUF_LEN];
    // Bytes read but not yet pushed, at the front of `buf`.
    let mut filled = 0;
    let mut idle_ticks_after_shutdown = 0;
    loop {
        let n = match stream.read(&mut buf[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                sink.idle();
                if shutdown.load(Ordering::Relaxed) {
                    if filled == 0 {
                        return;
                    }
                    // Mid-record at shutdown: one grace tick, then cut.
                    idle_ticks_after_shutdown += 1;
                    if idle_ticks_after_shutdown > 1 {
                        counters.malformed.inc();
                        return;
                    }
                }
                continue;
            }
            // A failed read ends the stream as EOF does.
            Err(_) => 0,
        };
        if n == 0 {
            if filled > 0 {
                counters.malformed.inc();
            }
            return;
        }
        idle_ticks_after_shutdown = 0;
        filled += n;
        let (complete, oversize) = complete_records(&buf[..filled], max_frame_len);
        if complete > 0 {
            push_records(Arc::from(&buf[..complete]), sink, counters);
            buf.copy_within(complete..filled, 0);
            filled -= complete;
        }
        if oversize {
            counters.malformed.inc();
            return;
        }
        if let Some(header) = Header::parse(&buf[..filled]) {
            let record_len = RECORD_HEADER_LEN + header.frame_len;
            if record_len > buf.len() {
                buf.resize(record_len, 0);
            }
        }
    }
}

/// The length of the complete records at the start of `bytes`, and
/// whether the header after them claims more than `max_frame_len`.
fn complete_records(bytes: &[u8], max_frame_len: usize) -> (usize, bool) {
    let mut end = 0;
    while let Some(header) = Header::parse(&bytes[end..]) {
        if header.frame_len > max_frame_len {
            return (end, true);
        }
        let record_end = end + RECORD_HEADER_LEN + header.frame_len;
        if record_end > bytes.len() {
            break;
        }
        end = record_end;
    }
    (end, false)
}

/// Pushes every frame of `records` — complete records, end to end — as
/// a range of it.
fn push_records(records: Arc<[u8]>, sink: &mut impl FrameSink, counters: &IngestCounters) {
    let mut at = 0;
    while let Some(header) = Header::parse(&records[at..]) {
        let frame = at + RECORD_HEADER_LEN..at + RECORD_HEADER_LEN + header.frame_len;
        at = frame.end;
        counters.records.inc();
        sink.push(
            header.run,
            header.timestamp_micros,
            FrameBytes::new(Arc::clone(&records), frame),
        );
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;
    use std::time::Instant;

    use libspector::Knowledge;
    use proptest::prelude::*;
    use spector_dex::sha256::Sha256;
    use spector_hooks::{SocketReport, SupervisorConfig};
    use spector_netsim::{Clock, NetStack};

    use super::*;
    use crate::shard::LiveConfig;

    fn knowledge() -> Arc<Knowledge> {
        Arc::new(Knowledge::new(
            Default::default(),
            Default::default(),
            Default::default(),
        ))
    }

    fn scripted_capture(salt: u8) -> Vec<CapturedPacket> {
        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        for i in 0..2u8 {
            let ip = stack.resolve(
                &format!("svc{i}.example.net"),
                Ipv4Addr::new(198, 51, 100, salt.wrapping_add(i)),
            );
            let sock = stack.tcp_connect(ip, 443);
            let pair = stack.socket_pair(sock).unwrap();
            let report = SocketReport {
                stream: None,
                apk_sha256: Sha256::digest(&[salt]),
                pair,
                timestamp_micros: stack.clock().now_micros(),
                frames: vec![format!("com.svc{i}.Net.call")],
            };
            stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
            stack.tcp_transfer(sock, 80 * (i as u64 + 1), 900 * (i as u64 + 1));
            stack.tcp_close(sock);
        }
        stack.into_capture()
    }

    #[test]
    fn tcp_ingest_equals_in_process_push_run() {
        let captures: Vec<_> = (0..3).map(|i| scripted_capture(20 + i * 9)).collect();

        let reference = LiveEngine::start(knowledge(), LiveConfig::default());
        for (run, capture) in captures.iter().enumerate() {
            reference.push_run(run as u32, capture);
        }
        let expected = reference.finish();

        let engine = LiveEngine::start(
            knowledge(),
            LiveConfig {
                shards: 2,
                batch_events: 4,
                ..Default::default()
            },
        );
        let server = IngestServer::start(engine, IngestConfig::default()).unwrap();
        let addr = server.tcp_addr();
        // Connection-per-emulator: each run arrives on its own socket.
        std::thread::scope(|scope| {
            for (run, capture) in captures.iter().enumerate() {
                scope.spawn(move || {
                    let mut client = IngestClient::connect(addr).unwrap();
                    client.send_run(run as u32, capture).unwrap();
                    client.finish().unwrap();
                });
            }
        });
        // Clients closed; drain and compare.
        let drained = wait_for_events(&server, expected.events);
        assert_eq!(drained.events, expected.events, "ingest must be lossless");
        let live = server.shutdown().finish();
        assert_eq!(
            live, expected,
            "socket ingress must equal in-process ingress"
        );
    }

    /// Clients that finished before `shutdown()` are served in full even
    /// when the accept loop has not taken their connections yet, and the
    /// wake-up connection is not counted as a client.
    #[test]
    fn shutdown_serves_every_queued_connection() {
        let captures: Vec<_> = (0..16).map(|i| scripted_capture(40 + i * 7)).collect();
        let frames: usize = captures.iter().map(Vec::len).sum();
        let engine = LiveEngine::start(
            knowledge(),
            LiveConfig {
                shards: 2,
                telemetry: Telemetry::enabled(),
                ..Default::default()
            },
        );
        let server = IngestServer::start(engine, IngestConfig::default()).unwrap();
        // Connect every client before any sends, so connections queue
        // up behind the accept loop, then shut down the moment the last
        // one has finished.
        let clients: Vec<IngestClient> = captures
            .iter()
            .map(|_| IngestClient::connect(server.tcp_addr()).unwrap())
            .collect();
        for (run, (mut client, capture)) in clients.into_iter().zip(&captures).enumerate() {
            client.send_run(run as u32, capture).unwrap();
            client.finish().unwrap();
        }
        let (summary, metrics) = server.shutdown().finish_with_metrics();
        assert_eq!(summary.events, frames as u64, "no queued record is lost");
        assert_eq!(
            metrics.counter("spector_ingest_connections_total"),
            captures.len() as u64
        );
        assert_eq!(
            metrics.counter("spector_ingest_records_total"),
            frames as u64
        );
    }

    /// Polls until the engine has accepted `expected` events (the
    /// clients' sockets are closed, but handler threads race the
    /// assertion otherwise).
    fn wait_for_events(server: &IngestServer, expected: u64) -> LiveSummary {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snapshot = server.snapshot();
            if snapshot.events >= expected || Instant::now() > deadline {
                return snapshot;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn malformed_records_are_counted_and_end_the_connection() {
        let engine = LiveEngine::start(
            knowledge(),
            LiveConfig {
                telemetry: Telemetry::enabled(),
                ..Default::default()
            },
        );
        let server = IngestServer::start(engine, IngestConfig::default()).unwrap();
        // A header claiming a frame far beyond the cap.
        let mut stream = TcpStream::connect(server.tcp_addr()).unwrap();
        let mut bad = Vec::new();
        bad.extend_from_slice(&7u32.to_le_bytes());
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&(u32::MAX).to_le_bytes());
        stream.write_all(&bad).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // The server closes its side once it rejects the record.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(10);
        let engine = loop {
            let telemetry = server.engine.telemetry().snapshot();
            if telemetry.counter("spector_ingest_malformed_records_total") >= 1
                || Instant::now() > deadline
            {
                break server.shutdown();
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let (summary, metrics) = engine.finish_with_metrics();
        assert_eq!(metrics.counter("spector_ingest_malformed_records_total"), 1);
        assert_eq!(summary.events, 0, "no record was accepted");
    }

    /// Hands out a byte stream in pieces of the given sizes, cycling; a
    /// zero-size piece is an idle tick (a read timeout). Once the bytes
    /// run out it reports EOF, or with `then_idle` idles for good.
    struct Pieces<'a> {
        bytes: &'a [u8],
        sizes: &'a [usize],
        next: usize,
        then_idle: bool,
        /// The largest buffer a read offered to fill.
        max_request: usize,
    }

    impl<'a> Pieces<'a> {
        fn new(bytes: &'a [u8], sizes: &'a [usize], then_idle: bool) -> Pieces<'a> {
            Pieces {
                bytes,
                sizes,
                next: 0,
                then_idle,
                max_request: 0,
            }
        }
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.max_request = self.max_request.max(buf.len());
            if self.bytes.is_empty() && self.then_idle {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            if self.bytes.is_empty() {
                return Ok(0);
            }
            let size = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            if size == 0 {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let n = size.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The frames a reader pushed, and its idle ticks.
    #[derive(Default)]
    struct Log {
        frames: Vec<(u32, u64, Vec<u8>)>,
        idle_ticks: usize,
    }

    impl FrameSink for Log {
        fn push(&mut self, run: u32, timestamp_micros: u64, frame: FrameBytes) {
            self.frames.push((run, timestamp_micros, frame.to_vec()));
        }

        fn idle(&mut self) {
            self.idle_ticks += 1;
        }
    }

    /// Runs the record reader over `stream` at the default frame cap:
    /// the frames it pushed, then the records and the malformed records
    /// it counted.
    fn read_all(stream: &mut impl Read, shutdown: bool) -> (Log, u64, u64) {
        let telemetry = Telemetry::enabled();
        let mut log = Log::default();
        read_records(
            stream,
            &mut log,
            &AtomicBool::new(shutdown),
            IngestConfig::default().max_frame_len,
            &IngestCounters::new(&telemetry),
        );
        let metrics = telemetry.snapshot();
        (
            log,
            metrics.counter("spector_ingest_records_total"),
            metrics.counter("spector_ingest_malformed_records_total"),
        )
    }

    /// `len` bytes that differ from record to record.
    fn frame_bytes(record: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (record * 131 + i * 7 + i / 251) as u8)
            .collect()
    }

    /// Malformed tails: an oversize header, EOF `cut` bytes into a
    /// header, and EOF inside a body.
    fn malformed_tails(cut: usize) -> [Vec<u8>; 3] {
        let max_frame_len = IngestConfig::default().max_frame_len;
        let mut oversize = encode_record(1, 2, &[]);
        oversize[12..16].copy_from_slice(&(max_frame_len as u32 + 1).to_le_bytes());
        let body = encode_record(1, 2, &[5; 100]);
        [
            oversize,
            body[..cut].to_vec(),
            body[..RECORD_HEADER_LEN + cut - 1].to_vec(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// However reads split the stream — headers and bodies cut at any
        /// offset, records longer than the read buffer — the reader
        /// pushes exactly the records' frames in order and counts each
        /// once, and its buffer grows only to fit the longest record. A
        /// malformed tail costs one malformed record and no valid one.
        #[test]
        fn record_reader_is_split_invariant(
            records in prop::collection::vec(
                (
                    any::<u32>(),
                    any::<u64>(),
                    prop_oneof![0usize..=64, 65usize..=2_048, 2_049usize..=256 * 1024],
                ),
                0..8,
            ),
            sizes in prop::collection::vec(
                prop_oneof![1usize..=17, 18usize..=8_192, Just(0usize)],
                1..24,
            ),
            cut in 1..RECORD_HEADER_LEN,
        ) {
            let expected: Vec<(u32, u64, Vec<u8>)> = records
                .iter()
                .enumerate()
                .map(|(i, &(run, timestamp, len))| (run, timestamp, frame_bytes(i, len)))
                .collect();
            let stream: Vec<u8> = expected
                .iter()
                .flat_map(|(run, timestamp, frame)| encode_record(*run, *timestamp, frame))
                .collect();
            let longest = expected
                .iter()
                .map(|(_, _, frame)| RECORD_HEADER_LEN + frame.len())
                .max()
                .unwrap_or(0);
            let [oversize, header_cut, body_cut] = malformed_tails(cut);
            for tail in [Vec::new(), oversize, header_cut, body_cut] {
                let bytes = [stream.as_slice(), &tail].concat();
                let mut pieces = Pieces::new(&bytes, &sizes, false);
                let (log, counted, malformed) = read_all(&mut pieces, false);
                prop_assert!(
                    log.frames == expected,
                    "pushed {} frames, sent {}",
                    log.frames.len(),
                    expected.len()
                );
                prop_assert_eq!(counted, expected.len() as u64);
                prop_assert_eq!(malformed, u64::from(!tail.is_empty()));
                prop_assert!(pieces.max_request <= READ_BUF_LEN.max(longest));
            }
        }
    }

    /// With the shutdown flag up, a stream idle at a record boundary
    /// ends at the first idle tick; one idle mid-record is cut at the
    /// second and counted malformed. Records before either are
    /// delivered.
    #[test]
    fn shutdown_ends_an_idle_stream_and_cuts_a_stuck_record() {
        let record = encode_record(3, 4, &[9; 300]);
        let stuck = [record.as_slice(), &record[..100]].concat();
        for (bytes, malformed) in [(&record, 0), (&stuck, 1)] {
            let mut stream = Pieces::new(bytes, &[64], true);
            let (log, counted, counted_malformed) = read_all(&mut stream, true);
            assert_eq!(log.frames.len(), 1);
            assert_eq!(counted, 1);
            assert_eq!(counted_malformed, malformed);
            assert_eq!(log.idle_ticks as u64, 1 + malformed);
        }
    }
}
