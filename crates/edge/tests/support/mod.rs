//! Shared helpers for the edge integration suites: a tiny raw HTTP
//! client (the tests deliberately speak bytes, not a client library,
//! so they can also send *broken* requests) and service fixtures.

// Each integration binary uses a different subset of these helpers.
#![allow(dead_code)]

use hp_core::testing::BehaviorTestConfig;
use hp_edge::{EdgeConfig, EdgeServer};
use hp_service::{ReputationService, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A fast service config for edge tests: 2 shards, cheap calibration,
/// rows on demand.
pub fn fast_service_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(2)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(300)
                .build()
                .expect("valid test config"),
        )
        .with_calibration_surface(None)
}

/// Boots an edge over a fresh service with the given configs.
pub fn boot(service_config: ServiceConfig, edge_config: EdgeConfig) -> (EdgeServer, SocketAddr) {
    let service = Arc::new(ReputationService::new(service_config).expect("service boots"));
    let edge = EdgeServer::serve(service, edge_config).expect("edge binds");
    let addr = edge.local_addr();
    (edge, addr)
}

/// Boots an edge with default-ish test configs.
pub fn boot_default() -> (EdgeServer, SocketAddr) {
    boot(fast_service_config(), EdgeConfig::default().with_workers(2))
}

/// Sends raw bytes on a fresh connection and returns everything the
/// server sends back before closing (the connection is half-closed for
/// writing so `read_to_end` terminates).
pub fn raw_roundtrip(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(bytes).expect("write");
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).ok();
    String::from_utf8_lossy(&out).into_owned()
}

/// A minimal keep-alive client for well-formed requests.
pub struct TestClient {
    stream: TcpStream,
}

impl TestClient {
    pub fn connect(addr: SocketAddr) -> TestClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        TestClient { stream }
    }

    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        let (status, _head, body) = self.request_with_headers(method, path, &[], body);
        (status, body)
    }

    /// Like `request`, but sends extra request headers and also returns
    /// the raw response head so tests can assert on response headers
    /// (e.g. the `x-hp-trace` echo).
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> (u16, String, String) {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: t\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        // One write: a head and body sent apart wait out Nagle's
        // algorithm against the server's delayed ACK (~40 ms a request).
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        self.stream.write_all(&request).expect("write request");
        self.read_response()
    }

    pub fn get(&mut self, path: &str) -> (u16, String) {
        self.request("GET", path, b"")
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> (u16, String) {
        self.request("POST", path, body)
    }

    fn read_response(&mut self) -> (u16, String, String) {
        let mut buf = Vec::new();
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "connection closed mid-response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line in {head:?}"));
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("content-length header");
        let mut body = buf.split_off(head_end + 4);
        while body.len() < content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid-response body");
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(content_length);
        (status, head, String::from_utf8_lossy(&body).into_owned())
    }
}

/// Extracts a response header value from a raw response head (as
/// returned by `request_with_headers`), case-insensitive on the name.
pub fn response_header(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (n, v) = l.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
    })
}
