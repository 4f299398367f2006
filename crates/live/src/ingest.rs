//! The first real service boundary: a loopback TCP/UDP ingest
//! listener in front of the live engine.
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
//! * **TCP** — connection-per-emulator: each accepted connection
//!   carries one ordered stream of records (per-key order within a
//!   connection is preserved end to end, which is all the engine
//!   requires). EOF ends the stream; whatever buffered is flushed.
//! * **UDP** — one record per datagram, for fire-and-forget senders.
//!   A datagram shorter than its header claims is malformed.
//!
//! Records that cannot be parsed (short header, oversized or
//! truncated frame body) are counted in
//! `spector_ingest_malformed_records_total` and end the connection —
//! never silently skipped.
//!
//! # Shutdown
//!
//! [`IngestServer::shutdown`] stops accepting — after serving every
//! connection the kernel had already queued — lets every connection
//! handler drain what its peer already sent (handlers end at EOF or
//! after an idle read-timeout once the flag is up), joins all
//! threads, and hands the engine back — callers then `finish()` or
//! keep snapshotting it.
//!
//! [`OverflowPolicy`]: crate::OverflowPolicy

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use spector_netsim::pcap::CapturedPacket;
use spector_telemetry::Counter;

use crate::shard::{IngressBatcher, LiveEngine};
use crate::summary::LiveSummary;

/// Bytes in a record header: run (4) + timestamp (8) + length (4).
pub const RECORD_HEADER_LEN: usize = 16;

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
    datagrams: Counter,
    malformed: Counter,
}

impl IngestCounters {
    fn new(engine: &LiveEngine) -> IngestCounters {
        let telemetry = engine.telemetry();
        IngestCounters {
            connections: telemetry.counter("spector_ingest_connections_total"),
            records: telemetry.counter("spector_ingest_records_total"),
            datagrams: telemetry.counter("spector_ingest_udp_datagrams_total"),
            malformed: telemetry.counter("spector_ingest_malformed_records_total"),
        }
    }
}

/// The running listener pair (TCP + UDP) in front of one engine.
pub struct IngestServer {
    engine: Arc<LiveEngine>,
    tcp_addr: SocketAddr,
    udp_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Tells the accept loop which connection is shutdown's wake-up.
    wake: mpsc::Sender<SocketAddr>,
    accept_handle: JoinHandle<Vec<JoinHandle<()>>>,
    udp_handle: JoinHandle<()>,
}

impl IngestServer {
    /// Binds both loopback listeners on ephemeral ports and starts
    /// serving into `engine`.
    pub fn start(engine: LiveEngine, config: IngestConfig) -> io::Result<IngestServer> {
        let engine = Arc::new(engine);
        let counters = IngestCounters::new(&engine);
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let tcp_addr = listener.local_addr()?;
        let udp = UdpSocket::bind(("127.0.0.1", 0))?;
        let udp_addr = udp.local_addr()?;
        udp.set_read_timeout(Some(config.read_timeout))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (wake, wake_rx) = mpsc::channel::<SocketAddr>();

        let accept_handle = {
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            let counters = counters.clone();
            std::thread::spawn(move || {
                let mut handlers: Vec<JoinHandle<()>> = Vec::new();
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
                    let engine = Arc::clone(&engine);
                    let shutdown = Arc::clone(&shutdown);
                    let config = config.clone();
                    let counters = counters.clone();
                    handlers.push(std::thread::spawn(move || {
                        serve_connection(&engine, stream, &shutdown, &config, &counters)
                    }));
                }
                handlers
            })
        };

        let udp_handle = {
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            std::thread::spawn(move || serve_udp(&engine, udp, &shutdown, &config, &counters))
        };

        Ok(IngestServer {
            engine,
            tcp_addr,
            udp_addr,
            shutdown,
            wake,
            accept_handle,
            udp_handle,
        })
    }

    /// The TCP listener's loopback address.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The UDP socket's loopback address.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
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
        let handlers = self.accept_handle.join().expect("ingest accept panicked");
        drop(wake);
        for handler in handlers {
            handler.join().expect("ingest connection handler panicked");
        }
        self.udp_handle.join().expect("ingest udp handler panicked");
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

/// `read_exact` with idle awareness: fills `buf`, flushing the batcher
/// on every read-timeout tick so in-flight items stay visible to
/// snapshots. Returns the bytes filled — short only at EOF or when the
/// shutdown flag ends an idle (or stuck mid-record) connection.
fn read_patient(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    batcher: &mut IngressBatcher<'_>,
) -> io::Result<usize> {
    let mut filled = 0;
    let mut idle_ticks_after_shutdown = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                batcher.flush();
                if shutdown.load(Ordering::Relaxed) {
                    if filled == 0 {
                        break;
                    }
                    // Mid-record at shutdown: one grace tick, then cut.
                    idle_ticks_after_shutdown += 1;
                    if idle_ticks_after_shutdown > 1 {
                        break;
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
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
    let mut header = [0u8; RECORD_HEADER_LEN];
    while let Ok(n) = read_patient(&mut stream, &mut header, shutdown, &mut batcher) {
        if n == 0 {
            break; // clean end-of-stream at a record boundary
        }
        if n < RECORD_HEADER_LEN {
            counters.malformed.inc();
            break;
        }
        let run = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let timestamp_micros = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let frame_len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        if frame_len > config.max_frame_len {
            counters.malformed.inc();
            break;
        }
        let mut frame = vec![0u8; frame_len];
        match read_patient(&mut stream, &mut frame, shutdown, &mut batcher) {
            Ok(n) if n == frame_len => {}
            _ => {
                counters.malformed.inc();
                break;
            }
        }
        counters.records.inc();
        batcher.push_raw(run, timestamp_micros, Arc::from(frame));
    }
    // Dropping the batcher flushes the tail.
}

/// The fire-and-forget lane: one record per datagram.
fn serve_udp(
    engine: &LiveEngine,
    socket: UdpSocket,
    shutdown: &AtomicBool,
    config: &IngestConfig,
    counters: &IngestCounters,
) {
    let mut batcher = engine.batcher();
    let mut buf = vec![0u8; RECORD_HEADER_LEN + config.max_frame_len];
    loop {
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                if n < RECORD_HEADER_LEN {
                    counters.malformed.inc();
                    continue;
                }
                let run = u32::from_le_bytes(buf[0..4].try_into().unwrap());
                let timestamp_micros = u64::from_le_bytes(buf[4..12].try_into().unwrap());
                let frame_len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
                if n != RECORD_HEADER_LEN + frame_len {
                    counters.malformed.inc();
                    continue;
                }
                counters.datagrams.inc();
                counters.records.inc();
                batcher.push_raw(run, timestamp_micros, Arc::from(&buf[RECORD_HEADER_LEN..n]));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                batcher.flush();
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;
    use std::time::Instant;

    use libspector::Knowledge;
    use spector_dex::sha256::Sha256;
    use spector_hooks::{SocketReport, SupervisorConfig};
    use spector_netsim::{Clock, NetStack};
    use spector_telemetry::Telemetry;

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
    fn udp_ingest_accepts_records_and_counts_datagrams() {
        let capture = scripted_capture(77);
        let engine = LiveEngine::start(
            knowledge(),
            LiveConfig {
                telemetry: Telemetry::enabled(),
                ..Default::default()
            },
        );
        let server = IngestServer::start(engine, IngestConfig::default()).unwrap();
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        for packet in &capture {
            socket
                .send_to(
                    &encode_record(0, packet.timestamp_micros, &packet.data),
                    server.udp_addr(),
                )
                .unwrap();
        }
        let snapshot = wait_for_events(&server, capture.len() as u64);
        // Loopback UDP at this trickle volume is lossless in practice;
        // tolerate kernel drops without tolerating silent corruption.
        assert!(snapshot.events <= capture.len() as u64);
        assert!(snapshot.events > 0, "no datagrams arrived");
        let (summary, metrics) = {
            let engine = server.shutdown();
            engine.finish_with_metrics()
        };
        assert_eq!(
            metrics.counter("spector_ingest_udp_datagrams_total"),
            summary.events,
            "every accepted datagram is exactly one ingress event"
        );
        assert_eq!(metrics.counter("spector_ingest_malformed_records_total"), 0);
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
}
