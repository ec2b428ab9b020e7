//! Incremental HTTP/1.1 request parsing and response rendering.
//!
//! [`parse_request`] is a pure function over the connection's read buffer:
//! it either needs more bytes ([`Parse::Incomplete`]), yields one complete
//! request and how many bytes it consumed ([`Parse::Ready`]), or condemns
//! the stream with a status code ([`Parse::Bad`] — after a framing error
//! the byte stream cannot be resynchronized, so the connection closes
//! after the error response). Reparsing from scratch on every new read is
//! deliberate: requests are bounded by [`Limits`], so the head is small
//! and the parser stays stateless and trivially testable.
//!
//! Unsupported mechanics are rejected explicitly rather than misframed:
//! chunked transfer encoding is `501`, HTTP versions other than 1.0/1.1
//! are `505`, oversized heads are `431`, and oversized bodies `413`.

/// Byte budgets that bound a single request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest request head (request line + headers + blank line) accepted
    /// before the parser answers `431`.
    pub max_head_bytes: usize,
    /// Largest declared `Content-Length` accepted before `413`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One fully received request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// The body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection stays open after the response (HTTP/1.1
    /// default, overridden by `Connection:` headers).
    pub keep_alive: bool,
    /// Total bytes this request occupied in the buffer (head + body);
    /// the caller drains this many before parsing the next pipelined
    /// request.
    pub consumed: usize,
}

/// A request the server must refuse, with the status to say so.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The response status (4xx/5xx).
    pub status: u16,
    /// Human-readable cause, returned in the JSON error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Outcome of one parse attempt over the buffered bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// The buffer does not yet hold a complete request. `expects_continue`
    /// turns true once the head is complete and carried
    /// `Expect: 100-continue` — the connection should emit the interim
    /// response (once) so the client sends its body.
    Incomplete {
        /// Whether an interim `100 Continue` is owed.
        expects_continue: bool,
    },
    /// One complete request.
    Ready(Request),
    /// The stream is unsalvageable; respond and close.
    Bad(HttpError),
}

/// Attempts to parse one request from the front of `buf`.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Parse {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > limits.max_head_bytes {
            return Parse::Bad(HttpError::new(
                431,
                format!(
                    "request head exceeds {} bytes without terminating",
                    limits.max_head_bytes
                ),
            ));
        }
        return Parse::Incomplete {
            expects_continue: false,
        };
    };
    if head_len > limits.max_head_bytes {
        return Parse::Bad(HttpError::new(
            431,
            format!("request head exceeds {} bytes", limits.max_head_bytes),
        ));
    }
    let Ok(head) = std::str::from_utf8(buf.get(..head_len).unwrap_or_default()) else {
        return Parse::Bad(HttpError::new(400, "request head is not valid UTF-8"));
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Parse::Bad(HttpError::new(
                400,
                format!("malformed request line {request_line:?}"),
            ))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase() || b == b'-') {
        return Parse::Bad(HttpError::new(400, format!("malformed method {method:?}")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => {
            return Parse::Bad(HttpError::new(
                505,
                format!("unsupported protocol version {version:?}"),
            ))
        }
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = http11;
    let mut expects_continue = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Bad(HttpError::new(400, format!("malformed header {line:?}")));
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Parse::Bad(HttpError::new(
                400,
                format!("malformed header name {name:?}"),
            ));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let Ok(parsed) = value.parse::<usize>() else {
                    return Parse::Bad(HttpError::new(
                        400,
                        format!("unparseable Content-Length {value:?}"),
                    ));
                };
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Parse::Bad(HttpError::new(400, "conflicting Content-Length headers"));
                }
                content_length = Some(parsed);
            }
            "transfer-encoding" => {
                return Parse::Bad(HttpError::new(
                    501,
                    "transfer encodings (including chunked) are not supported; \
                     send Content-Length",
                ));
            }
            "connection" => {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
            "expect" => {
                if value.eq_ignore_ascii_case("100-continue") {
                    expects_continue = true;
                } else {
                    return Parse::Bad(HttpError::new(
                        417,
                        format!("unsupported expectation {value:?}"),
                    ));
                }
            }
            _ => {}
        }
    }

    let body_len = content_length.unwrap_or(0);
    if body_len > limits.max_body_bytes {
        return Parse::Bad(HttpError::new(
            413,
            format!(
                "declared body of {body_len} bytes exceeds the {} byte limit",
                limits.max_body_bytes
            ),
        ));
    }
    let total = head_len + body_len;
    if buf.len() < total {
        return Parse::Incomplete { expects_continue };
    }
    let path = target.split('?').next().unwrap_or(target);
    Parse::Ready(Request {
        method: method.to_string(),
        path: path.to_string(),
        body: buf.get(head_len..total).unwrap_or_default().to_vec(),
        keep_alive,
        consumed: total,
    })
}

/// Index one past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        417 => "Expectation Failed",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// Renders a complete response with a JSON body.
pub fn write_response(
    status: u16,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    out.extend_from_slice(format!("HTTP/1.1 {status} {}\r\n", reason(status)).as_bytes());
    out.extend_from_slice(b"Content-Type: application/json\r\n");
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    if !keep_alive {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits::default()
    }

    #[test]
    fn parses_a_simple_get() {
        let buf = b"GET /metrics?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n";
        match parse_request(buf, &limits()) {
            Parse::Ready(req) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/metrics");
                assert!(req.body.is_empty());
                assert!(req.keep_alive);
                assert_eq!(req.consumed, buf.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body_and_pipelined_tail() {
        let buf = b"POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"k\": 5} GET /x";
        match parse_request(buf, &limits()) {
            Parse::Ready(req) => {
                assert_eq!(req.body, b"{\"k\": 5} ");
                assert_eq!(req.consumed, buf.len() - 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incomplete_until_head_and_body_arrive() {
        let full = b"POST /query HTTP/1.1\r\nContent-Length: 8\r\n\r\n{\"k\": 5}";
        for cut in [0, 1, 10, 30, full.len() - 1] {
            assert_eq!(
                parse_request(&full[..cut], &limits()),
                Parse::Incomplete {
                    expects_continue: false
                },
                "cut at {cut}"
            );
        }
        assert!(matches!(parse_request(full, &limits()), Parse::Ready(_)));
    }

    #[test]
    fn expect_continue_is_flagged_once_the_head_is_in() {
        let head = b"POST /query HTTP/1.1\r\nContent-Length: 4\r\nExpect: 100-continue\r\n\r\n";
        assert_eq!(
            parse_request(head, &limits()),
            Parse::Incomplete {
                expects_continue: true
            }
        );
    }

    #[test]
    fn connection_negotiation_follows_version_defaults() {
        let close11 = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let plain10 = b"GET / HTTP/1.0\r\n\r\n";
        let ka10 = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        for (buf, expect) in [(&close11[..], false), (plain10, false), (ka10, true)] {
            match parse_request(buf, &limits()) {
                Parse::Ready(req) => assert_eq!(req.keep_alive, expect),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn limit_violations_get_the_right_statuses() {
        let tight = Limits {
            max_head_bytes: 64,
            max_body_bytes: 16,
        };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        assert!(matches!(
            parse_request(long_head.as_bytes(), &tight),
            Parse::Bad(HttpError { status: 431, .. })
        ));
        // An unterminated head that already blew the budget is also 431,
        // not Incomplete: waiting can never help.
        let unterminated = "G".repeat(100);
        assert!(matches!(
            parse_request(unterminated.as_bytes(), &tight),
            Parse::Bad(HttpError { status: 431, .. })
        ));
        let big_body = b"POST /query HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        assert!(matches!(
            parse_request(big_body, &tight),
            Parse::Bad(HttpError { status: 413, .. })
        ));
        let chunked = b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(
            parse_request(chunked, &tight),
            Parse::Bad(HttpError { status: 501, .. })
        ));
    }

    #[test]
    fn malformed_heads_are_400s() {
        for bad in [
            &b"GET\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: two\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
            b"GET / HTTP/1.1\r\nExpect: 200-maybe\r\n\r\n",
            b"\xff\xff\xff\xff\r\n\r\n",
        ] {
            match parse_request(bad, &limits()) {
                Parse::Bad(err) => assert!(
                    (400..=417).contains(&err.status),
                    "{err:?} for {:?}",
                    String::from_utf8_lossy(bad)
                ),
                other => panic!("{other:?} for {:?}", String::from_utf8_lossy(bad)),
            }
        }
    }

    #[test]
    fn unknown_versions_are_505() {
        assert!(matches!(
            parse_request(b"GET / HTTP/2.0\r\n\r\n", &limits()),
            Parse::Bad(HttpError { status: 505, .. })
        ));
    }

    #[test]
    fn responses_render_with_framing_headers() {
        let bytes = write_response(429, b"{}", true, &[("Retry-After", "1".into())]);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(!text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let closing = write_response(200, b"x", false, &[]);
        assert!(String::from_utf8(closing)
            .unwrap()
            .contains("Connection: close\r\n"));
    }
}
