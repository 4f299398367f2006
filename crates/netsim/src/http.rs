//! Minimal HTTP/1.1 request/response framing inside TCP payloads.
//!
//! The paper's introduction dismisses header-based traffic attribution
//! because of "the prevalence of generic identifiers in HTTP headers" —
//! prior work (Xu et al., Maier et al.) keyed on the `User-Agent`. To
//! *measure* that inadequacy rather than assert it, the simulated HTTP
//! clients put realistic request heads on the wire: a request line, a
//! `Host` header, and a `User-Agent` that is usually the HTTP client's
//! generic token and only sometimes carries an SDK identifier — exactly
//! the mix that made UA-based classification unreliable.

use std::fmt;

/// A parsed (or to-be-encoded) HTTP request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`).
    pub method: String,
    /// Request path.
    pub path: String,
    /// `Host` header value.
    pub host: String,
    /// `User-Agent` header value.
    pub user_agent: String,
    /// `Content-Length` header value (body bytes following the head).
    pub content_length: u64,
}

impl fmt::Display for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} (host {})", self.method, self.path, self.host)
    }
}

impl HttpRequest {
    /// Encodes the head plus `content_length` bytes of deterministic
    /// body filler.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`encode`](Self::encode), appended to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use std::io::Write;

        out.reserve(usize::try_from(self.head_len() + self.content_length).unwrap_or(0));
        write!(
            out,
            "{} {} HTTP/1.1\r\nHost: {}\r\nUser-Agent: {}\r\nAccept: */*\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.method, self.path, self.host, self.user_agent, self.content_length
        )
        .expect("writing to a Vec cannot fail");
        extend_filler(out, b'a', self.content_length);
    }

    /// Byte length of the encoded head (everything before the body),
    /// computed without encoding it.
    pub fn head_len(&self) -> u64 {
        // The request line, the four headers and the blank line, less
        // the five values.
        const FRAMING: u64 = 86;
        FRAMING
            + [&self.method, &self.path, &self.host, &self.user_agent]
                .iter()
                .map(|value| value.len() as u64)
                .sum::<u64>()
            + digits(self.content_length)
    }

    /// Parses a request head from the beginning of a client payload.
    ///
    /// Returns `None` for anything that does not start with a plausible
    /// HTTP/1.x request line (raw-socket protocols, truncated data).
    pub fn parse(payload: &[u8]) -> Option<HttpRequest> {
        let text = std::str::from_utf8(&payload[..payload.len().min(2_048)]).ok()?;
        let mut lines = text.split("\r\n");
        let request_line = lines.next()?;
        let mut parts = request_line.split(' ');
        let method = parts.next()?.to_owned();
        let path = parts.next()?.to_owned();
        let version = parts.next()?;
        if !version.starts_with("HTTP/1.") || !path.starts_with('/') {
            return None;
        }
        if !matches!(method.as_str(), "GET" | "POST" | "PUT" | "HEAD" | "DELETE") {
            return None;
        }
        let mut host = None;
        let mut user_agent = None;
        let mut content_length = 0u64;
        for line in lines {
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("host") {
                host = Some(value.to_owned());
            } else if name.eq_ignore_ascii_case("user-agent") {
                user_agent = Some(value.to_owned());
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            }
        }
        Some(HttpRequest {
            method,
            path,
            host: host?,
            user_agent: user_agent.unwrap_or_default(),
            content_length,
        })
    }
}

/// Appends `len` bytes of deterministic body filler, `first + i % 23` at
/// offset `i`, by repeating the 23-byte pattern.
fn extend_filler(out: &mut Vec<u8>, first: u8, len: u64) {
    let pattern: [u8; 23] = std::array::from_fn(|i| first + i as u8);
    let mut left = usize::try_from(len).expect("body length fits in memory");
    out.reserve(left);
    while left > 0 {
        let chunk = &pattern[..left.min(pattern.len())];
        out.extend_from_slice(chunk);
        left -= chunk.len();
    }
}

/// Decimal digits of `n` (1 for 0).
fn digits(n: u64) -> u64 {
    n.checked_ilog10().map_or(1, |d| u64::from(d) + 1)
}

/// Encodes an HTTP/1.1 200 response head plus `content_length` bytes of
/// deterministic body filler.
pub fn encode_response(content_length: u64) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {content_length}\r\nConnection: close\r\n\r\n"
    );
    let mut out = head.into_bytes();
    extend_filler(&mut out, b'A', content_length);
    out
}

/// Encodes a response whose head + body total *exactly* `total` bytes
/// (so simulated transfer sizes stay byte-accurate). When `total` is
/// smaller than the minimal head, the minimal head is returned.
pub fn encode_response_total(total: u64) -> Vec<u8> {
    // The head is a fixed part plus the Content-Length digits, so a body
    // `b` fits when `b + digits(b) <= room`. `room - digits(room)` fits,
    // and one byte more fits when it has a digit fewer. Take the largest
    // body that fits: just past a digit boundary none fills `room`
    // exactly, and the byte left over is trailing padding (harmless —
    // the paper sums packet bytes, not HTTP semantics).
    let room = total.saturating_sub(encode_response(0).len() as u64 - 1);
    let mut body = room.saturating_sub(digits(room));
    if body + 1 + digits(body + 1) <= room {
        body += 1;
    }
    let mut out = encode_response(body);
    let total = usize::try_from(total).expect("response length fits in memory");
    if out.len() < total {
        out.resize(total, b'.');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            path: "/v2/config".into(),
            host: "ads.vendor.example".into(),
            user_agent: "okhttp/3.12.1 com.vungle.publisher".into(),
            content_length: 40,
        }
    }

    #[test]
    fn roundtrip() {
        let request = sample();
        let bytes = request.encode();
        let parsed = HttpRequest::parse(&bytes).unwrap();
        assert_eq!(parsed, request);
        // Body length is honored.
        let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert_eq!(bytes.len() - head_end, 40);
    }

    #[test]
    fn head_len_is_the_encoded_head() {
        for content_length in [0, 9, 10, 99_999, 100_000] {
            let request = HttpRequest {
                content_length,
                ..sample()
            };
            assert_eq!(
                request.head_len() + content_length,
                request.encode().len() as u64,
                "{content_length}"
            );
        }
        let mut out = b"preamble".to_vec();
        sample().encode_into(&mut out);
        assert_eq!(out, [&b"preamble"[..], &sample().encode()].concat());
    }

    #[test]
    fn parse_rejects_non_http() {
        assert!(HttpRequest::parse(b"").is_none());
        assert!(HttpRequest::parse(b"\x16\x03\x01\x02\x00").is_none()); // TLS hello
        assert!(HttpRequest::parse(b"NOTHTTP junk\r\n").is_none());
        assert!(HttpRequest::parse(b"GET noslash HTTP/1.1\r\nHost: h\r\n\r\n").is_none());
        assert!(HttpRequest::parse(b"GET / SPDY/1\r\nHost: h\r\n\r\n").is_none());
        // Missing Host.
        assert!(HttpRequest::parse(b"GET / HTTP/1.1\r\nUser-Agent: x\r\n\r\n").is_none());
    }

    #[test]
    fn parse_is_case_insensitive_on_headers() {
        let raw = b"POST /track HTTP/1.1\r\nHOST: t.example\r\nuser-agent: Dalvik/2.1.0\r\ncontent-length: 7\r\n\r\npayload";
        let parsed = HttpRequest::parse(raw).unwrap();
        assert_eq!(parsed.host, "t.example");
        assert_eq!(parsed.user_agent, "Dalvik/2.1.0");
        assert_eq!(parsed.content_length, 7);
        assert_eq!(parsed.method, "POST");
    }

    #[test]
    fn missing_user_agent_is_empty() {
        let parsed = HttpRequest::parse(b"GET / HTTP/1.1\r\nHost: h.example\r\n\r\n").unwrap();
        assert_eq!(parsed.user_agent, "");
    }

    #[test]
    fn response_total_is_exact() {
        let samples = [
            0u64, 10, 90, 91, 92, 100, 1_000, 9_999, 10_000, 8_192, 1_048_576,
        ];
        for total in samples.into_iter().chain(total_sweep()) {
            let bytes = encode_response_total(total);
            let min = encode_response(0).len() as u64;
            if total >= min {
                assert_eq!(bytes.len() as u64, total, "total {total}");
            } else {
                assert_eq!(bytes.len() as u64, min);
            }
        }
    }

    /// `encode_response` and `encode_response_total` as they were
    /// before the body was written once: a per-byte filler, and a
    /// Content-Length fixpoint over the encoded head's length.
    fn old_response_head(content_length: u64) -> String {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {content_length}\r\nConnection: close\r\n\r\n"
        )
    }

    fn old_filler(len: u64) -> Vec<u8> {
        (0..len).map(|i| b'A' + (i % 23) as u8).collect()
    }

    fn old_encode_response(content_length: u64) -> Vec<u8> {
        let mut out = old_response_head(content_length).into_bytes();
        out.extend(old_filler(content_length));
        out
    }

    /// The old `encode_response_total`, cutting its body from `filler`
    /// (an [`old_filler`] at least as long as any body) instead of
    /// rebuilding it byte by byte.
    fn old_encode_response_total(total: u64, filler: &[u8]) -> Vec<u8> {
        let mut body = total.saturating_sub(old_encode_response(0).len() as u64);
        for _ in 0..4 {
            // `encode_response(body).len() - body`, without the body.
            let head_len = old_response_head(body).len() as u64;
            let next = total.saturating_sub(head_len);
            if next == body {
                break;
            }
            body = next;
        }
        let mut out = old_response_head(body).into_bytes();
        out.extend_from_slice(&filler[..body as usize]);
        while (out.len() as u64) < total {
            out.push(b'.');
        }
        out
    }

    /// Every total up to 12,000, and every total within ±8 of a power of
    /// ten and of each total where the Content-Length gains a digit, up
    /// to 10^7.
    fn total_sweep() -> Vec<u64> {
        let head = encode_response(0).len() as u64;
        let mut totals: Vec<u64> = (0..=12_000).collect();
        for k in 1..=7u32 {
            let power = 10u64.pow(k);
            for centre in [power, power + head + u64::from(k)] {
                totals.extend(centre - 8..=centre + 8);
            }
        }
        totals
    }

    #[test]
    fn response_total_matches_the_old_formula_off_the_digit_boundaries() {
        let head = encode_response(0).len() as u64;
        let totals = total_sweep();
        let filler = old_filler(*totals.iter().max().unwrap());
        let mut overshot = Vec::new();
        for total in totals {
            let old = old_encode_response_total(total, &filler);
            if total >= head && old.len() as u64 == total + 1 {
                // The old fixpoint stopped on the wider head with body
                // 10^k; the new encoding sends body 10^k - 1 under the
                // narrower head and pads one byte.
                overshot.push(total);
                let body = (1..=7u32)
                    .map(|k| 10u64.pow(k) - 1)
                    .find(|&b| old_response_head(b).len() as u64 + b + 1 == total)
                    .expect("an overshoot sits just past a 10^k - 1 body");
                let mut expected = old_response_head(body).into_bytes();
                expected.extend_from_slice(&filler[..body as usize]);
                expected.push(b'.');
                assert_eq!(encode_response_total(total), expected, "total {total}");
            } else {
                assert_eq!(encode_response_total(total), old, "total {total}");
            }
        }
        // The old encoding overshot exactly where the body gains a
        // digit: 107, 198, 1099, 10100, 100101, 1000102 and 10000103.
        let boundaries: Vec<u64> = (1..=7u32)
            .map(|k| 10u64.pow(k) + head - 1 + u64::from(k))
            .collect();
        overshot.sort_unstable();
        overshot.dedup();
        assert_eq!(overshot, boundaries);
    }

    #[test]
    fn request_and_response_bodies_match_the_per_byte_filler() {
        for len in [0u64, 1, 22, 23, 24, 46, 1_000] {
            assert_eq!(encode_response(len), old_encode_response(len));
            let request = HttpRequest {
                content_length: len,
                ..sample()
            };
            let bytes = request.encode();
            let body = &bytes[bytes.len() - len as usize..];
            assert!(body
                .iter()
                .enumerate()
                .all(|(i, &b)| b == b'a' + (i % 23) as u8));
        }
    }

    #[test]
    fn response_head_and_length() {
        let bytes = encode_response(100);
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 100\r\n"));
        let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert_eq!(bytes.len() - head_end, 100);
    }
}
