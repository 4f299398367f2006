//! A long-lived `IngestServer` keeps no thread for a past connection.
//!
//! Every connection gets a handler thread, and a thread nobody joins
//! keeps its stack mapped. The accept loop joins finished handlers as
//! it accepts new connections, so a server that has served many short
//! connections maps about as much as one that served a few. The test
//! counts the lines of `/proc/self/maps` (one or two per thread stack),
//! so it runs in a binary of its own: no other test's threads share
//! the process.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

use libspector::Knowledge;
use spector_live::{encode_record, IngestConfig, IngestServer, LiveConfig, LiveEngine};

const CONNECTIONS: usize = 1_000;

fn mapped_regions() -> Option<usize> {
    std::fs::read_to_string("/proc/self/maps")
        .ok()
        .map(|maps| maps.lines().count())
}

/// Sends one record on a connection of its own and waits until the
/// server has closed it, i.e. until its handler is done.
fn one_record_connection(server: &IngestServer, run: u32) {
    let mut stream = TcpStream::connect(server.tcp_addr()).expect("loopback connect");
    stream
        .write_all(&encode_record(run, 1, b"frame"))
        .expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut sink = Vec::new();
    stream.read_to_end(&mut sink).expect("server closes");
}

#[test]
fn finished_connection_handlers_are_joined() {
    if mapped_regions().is_none() {
        eprintln!("skipped: /proc/self/maps does not exist on this platform");
        return;
    }
    let knowledge = Arc::new(Knowledge::new(
        Default::default(),
        Default::default(),
        Default::default(),
    ));
    let engine = LiveEngine::start(knowledge, LiveConfig::default());
    let server = IngestServer::start(engine, IngestConfig::default()).expect("loopback bind");
    // Warm up, so allocator arenas and the like are already mapped.
    for run in 0..50 {
        one_record_connection(&server, run);
    }
    let before = mapped_regions().expect("checked above");
    for run in 0..CONNECTIONS as u32 {
        one_record_connection(&server, run);
    }
    let after = mapped_regions().expect("checked above");
    let summary = server.shutdown().finish();
    assert_eq!(summary.events, 50 + CONNECTIONS as u64);
    assert!(
        after < before + 200,
        "{CONNECTIONS} sequential connections grew the memory map from {before} to {after} lines"
    );
}
