//! End-to-end service tests over real sockets: concurrent clients, route
//! validation against an independently prepared `(I, J)`, forest-cache
//! behavior, metrics consistency, LRU eviction, graceful shutdown, and
//! keep-alive framing under admission deadlines (byte-exact response
//! boundaries around 408/429).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use routes_chase::ChaseOptions;
use routes_cli::{load_scenario_str, prepare_scenario};
use routes_core::{Route, RouteEnv, SatisfactionStep};
use routes_model::Value;
use routes_server::json::{parse, Json};
use routes_server::{Server, ServerConfig};

/// A keep-alive HTTP client speaking just enough of the protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Send one request on the persistent connection; parse the JSON reply.
    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes()).unwrap();
        self.writer.write_all(body.as_bytes()).unwrap();
        self.writer.flush().unwrap();

        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        let text = String::from_utf8(body).unwrap();
        (
            status,
            parse(&text).unwrap_or_else(|e| panic!("bad JSON {text:?}: {e}")),
        )
    }
}

/// A scenario whose chase produces only constants, so the test can rebuild
/// the server's route from its JSON (integer homs) and replay it locally.
fn scenario_text(tag: i64) -> String {
    format!(
        "source schema:\n  S(a, b)\n\
         target schema:\n  T(a, b)\n  U(a)\n\
         dependencies:\n  m1: S(x, y) -> T(x, y)\n  m2: T(x, y) -> U(x)\n\
         source data:\n  S({tag}, {t1})\n  S({t2}, {t3})\n",
        t1 = tag + 1,
        t2 = tag + 10,
        t3 = tag + 11,
    )
}

fn json_escape(text: &str) -> String {
    Json::from(text).encode()
}

fn start(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    server.spawn().expect("spawn")
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    let mut c = Client::connect(addr);
    let (status, body) = c.request("POST", "/shutdown", None);
    assert_eq!(status, 200);
    assert_eq!(body.get("shutting_down").unwrap().as_bool(), Some(true));
    handle.join().expect("server thread exits cleanly");
}

/// Rebuild the served route from its JSON steps against a locally prepared
/// copy of the same scenario, and replay it with `Route::validate`.
fn validate_served_route(tag: i64, steps: &[Json], selected_relation: &str, selected_row: u32) {
    let prepared = prepare_scenario(
        load_scenario_str(&scenario_text(tag)).unwrap(),
        ChaseOptions::fresh(),
    )
    .unwrap();
    let env = RouteEnv::new(&prepared.mapping, &prepared.source, &prepared.target);
    let route = Route::new(
        steps
            .iter()
            .map(|step| {
                let name = step.get("tgd").unwrap().as_str().unwrap();
                let tgd = prepared.mapping.tgd_by_name(name).expect("tgd exists");
                let tgd_ref = prepared.mapping.tgd(tgd);
                let hom_obj = step.get("hom").unwrap();
                let hom: Vec<Value> = (0..tgd_ref.var_count() as u32)
                    .map(|v| {
                        let rendered = hom_obj
                            .get(tgd_ref.var_name(routes_model::Var(v)))
                            .unwrap()
                            .as_str()
                            .unwrap();
                        Value::Int(rendered.parse().expect("integer-only scenario"))
                    })
                    .collect();
                SatisfactionStep::new(tgd, hom)
            })
            .collect(),
    );
    let rel = prepared.mapping.target().rel_id(selected_relation).unwrap();
    let selected = [routes_model::TupleId {
        rel,
        row: selected_row,
    }];
    route
        .validate(&env, &selected)
        .expect("served route replays against the local (I, J)");
}

/// One parsed raw response, for byte-exact framing assertions.
struct RawResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl RawResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Split one complete HTTP/1.1 response off the front of `bytes`;
/// `None` while the head or the `content-length` body is still partial.
/// Returns the response and the exact number of bytes it occupied.
fn try_split_response(bytes: &[u8]) -> Option<(RawResponse, usize)> {
    let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&bytes[..head_end]).expect("UTF-8 response head");
    let mut lines = head.trim_end().split("\r\n");
    let status_line = lines.next().unwrap();
    assert!(
        status_line.starts_with("HTTP/1.1 "),
        "bad status line {status_line:?}"
    );
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut headers = Vec::new();
    for line in lines {
        let (k, v) = line.split_once(':').unwrap_or_else(|| {
            panic!("header line without colon: {line:?}");
        });
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().expect("numeric content-length"))
        .expect("content-length always present");
    let total = head_end + len;
    if bytes.len() < total {
        return None;
    }
    Some((
        RawResponse {
            status,
            headers,
            body: bytes[head_end..total].to_vec(),
        },
        total,
    ))
}

/// Read from `stream` until one complete response is buffered; returns it
/// (EOF or a read error before that is a test failure).
fn read_one_response(stream: &mut TcpStream) -> RawResponse {
    let mut buf = Vec::new();
    loop {
        if let Some((response, consumed)) = try_split_response(&buf) {
            assert_eq!(consumed, buf.len(), "no bytes beyond the response yet");
            return response;
        }
        let mut chunk = [0u8; 1024];
        let n = stream
            .read(&mut chunk)
            .expect("read while awaiting response");
        assert!(n > 0, "EOF before a complete response (got {buf:?})");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn pipelined_keep_alive_responses_are_byte_exact() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Four requests in one write: three keep-alive, the last closing.
    let mut burst = String::new();
    for _ in 0..3 {
        burst.push_str("GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    }
    burst.push_str("GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
    stream.write_all(burst.as_bytes()).unwrap();

    let mut all = Vec::new();
    stream.read_to_end(&mut all).unwrap();
    let mut rest: &[u8] = &all;
    for i in 0..4 {
        let (response, consumed) =
            try_split_response(rest).unwrap_or_else(|| panic!("response {i} incomplete"));
        assert_eq!(response.status, 200, "response {i}");
        assert_eq!(
            response.header("connection"),
            Some(if i < 3 { "keep-alive" } else { "close" }),
            "response {i}"
        );
        parse(std::str::from_utf8(&response.body).unwrap())
            .unwrap_or_else(|e| panic!("response {i} body is not JSON: {e:?}"));
        rest = &rest[consumed..];
    }
    assert!(
        rest.is_empty(),
        "exactly four responses, no trailing bytes: {rest:?}"
    );
    shutdown(addr, handle);
}

#[test]
fn deadline_mid_body_yields_exactly_one_408_then_eof() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        request_deadline: Some(Duration::from_millis(500)),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The first request stalls mid-body: 3 of 10 promised bytes, then
    // silence. The wall-clock deadline (not the 30 s per-read timeout)
    // must answer 408.
    stream
        .write_all(b"POST /sessions HTTP/1.1\r\nhost: t\r\ncontent-length: 10\r\n\r\nabc")
        .unwrap();
    let response = read_one_response(&mut stream);
    assert_eq!(response.status, 408);
    assert_eq!(response.header("connection"), Some("close"));
    let body = parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert!(body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("deadline"));

    // A back-to-back second request after the 408 must not be consumed
    // as the missing body or produce a second response — framing is
    // unreliable after a timeout, so the connection just closes.
    let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    let mut extra = [0u8; 256];
    match stream.read(&mut extra) {
        Ok(0) => {}  // clean EOF at the response boundary
        Err(_) => {} // reset after our late write — still no bytes
        Ok(n) => panic!("unexpected bytes after the 408: {:?}", &extra[..n]),
    }
    shutdown(addr, handle);
}

#[test]
fn shed_connection_answers_pipelined_requests_with_exactly_one_429() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        max_queue: 1,
        request_deadline: Some(Duration::from_secs(3)),
        ..ServerConfig::default()
    });
    // Pin the single worker with a request stalled mid-headers...
    let mut pin = TcpStream::connect(addr).expect("connect");
    pin.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    pin.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    // ...and fill the one-slot queue with a parked complete request.
    let mut parked = TcpStream::connect(addr).expect("connect");
    parked
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    parked
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // A shed connection gets its 429 at accept time, before sending a
    // single byte. It must be byte-exact, and two complete back-to-back
    // requests sent afterwards must not smear a second response (or
    // partial bytes) onto the wire.
    let mut shed = TcpStream::connect(addr).expect("connect");
    shed.set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let response = read_one_response(&mut shed);
    assert_eq!(response.status, 429);
    assert_eq!(response.header("connection"), Some("close"));
    response
        .header("retry-after")
        .expect("Retry-After on shed responses")
        .parse::<u64>()
        .expect("integer Retry-After");
    let _ = shed.write_all(
        b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\nGET /healthz HTTP/1.1\r\nhost: t\r\n\r\n",
    );
    let mut extra = [0u8; 256];
    match shed.read(&mut extra) {
        Ok(0) => {}  // clean EOF at the response boundary
        Err(_) => {} // reset after our late write — still no bytes
        Ok(n) => panic!("unexpected bytes after the 429: {:?}", &extra[..n]),
    }

    // Unpin: the stalled client is reaped with one byte-exact 408, and
    // the parked client is then served normally — the deadline on one
    // connection never corrupts its neighbors.
    let mut all = Vec::new();
    pin.read_to_end(&mut all).unwrap();
    let (response, consumed) = try_split_response(&all).expect("complete 408");
    assert_eq!(response.status, 408);
    assert_eq!(consumed, all.len(), "exactly one 408 then EOF");
    let mut all = Vec::new();
    parked.read_to_end(&mut all).unwrap();
    let (response, consumed) = try_split_response(&all).expect("complete 200");
    assert_eq!(response.status, 200);
    assert_eq!(consumed, all.len(), "exactly one 200 then EOF");

    shutdown(addr, handle);
}

#[test]
fn concurrent_clients_probe_validate_and_clean_up() {
    let (addr, handle) = start(ServerConfig {
        threads: 4,
        max_sessions: 16,
        session_shards: 4,
        read_timeout: Duration::from_secs(30),
        data_dir: None,
        ..ServerConfig::default()
    });

    let clients: Vec<_> = (0..4)
        .map(|k| {
            std::thread::spawn(move || {
                let tag = 100 * (k as i64 + 1);
                let mut c = Client::connect(addr);

                let create = format!("{{\"scenario\": {}}}", json_escape(&scenario_text(tag)));
                let (status, body) = c.request("POST", "/sessions", Some(&create));
                assert_eq!(status, 201, "{body:?}");
                let id = body.get("session").unwrap().as_u64().unwrap();
                assert_eq!(body.get("target_tuples").unwrap().as_u64(), Some(4));
                assert_eq!(body.get("weakly_acyclic").unwrap().as_bool(), Some(true));
                let chase = body.get("chase").unwrap();
                assert_eq!(chase.get("target_tuples").unwrap().as_u64(), Some(4));

                // One route for U's first tuple: m1 then m2.
                let probe = r#"{"tuples": [{"relation": "U", "row": 0}]}"#;
                let (status, body) =
                    c.request("POST", &format!("/sessions/{id}/one-route"), Some(probe));
                assert_eq!(status, 200, "{body:?}");
                assert_eq!(body.get("found").unwrap().as_bool(), Some(true));
                assert_eq!(body.get("validated").unwrap().as_bool(), Some(true));
                let steps = body.get("steps").unwrap().as_array().unwrap();
                assert_eq!(steps.len(), 2, "m1 then m2");
                validate_served_route(tag, steps, "U", 0);

                // All routes, twice: the repeat must hit the forest cache.
                let select_both =
                    r#"{"tuples": [{"relation": "U", "row": 0}, {"relation": "T", "row": 0}]}"#;
                let (status, first) = c.request(
                    "POST",
                    &format!("/sessions/{id}/all-routes"),
                    Some(select_both),
                );
                assert_eq!(status, 200);
                assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
                assert_eq!(
                    first.get("all_roots_provable").unwrap().as_bool(),
                    Some(true)
                );
                // Same set, permuted order.
                let permuted =
                    r#"{"tuples": [{"relation": "T", "row": 0}, {"relation": "U", "row": 0}]}"#;
                let (status, second) = c.request(
                    "POST",
                    &format!("/sessions/{id}/all-routes"),
                    Some(permuted),
                );
                assert_eq!(status, 200);
                assert_eq!(second.get("cached").unwrap().as_bool(), Some(true));
                assert_eq!(
                    second.get("num_branches").unwrap().as_u64(),
                    first.get("num_branches").unwrap().as_u64(),
                );

                let (status, body) = c.request("GET", &format!("/sessions/{id}"), None);
                assert_eq!(status, 200);
                assert_eq!(body.get("cached_forests").unwrap().as_u64(), Some(1));
                assert_eq!(
                    body.get("target").unwrap().get("T").unwrap().as_u64(),
                    Some(2)
                );

                let (status, body) = c.request("DELETE", &format!("/sessions/{id}"), None);
                assert_eq!(status, 200);
                assert_eq!(body.get("deleted").unwrap().as_bool(), Some(true));
                let (status, _) = c.request("GET", &format!("/sessions/{id}"), None);
                assert_eq!(status, 404, "deleted sessions are gone");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // Metrics reflect the four clients' traffic exactly.
    let mut c = Client::connect(addr);
    let (status, m) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let count = |key: &str| m.get(key).unwrap().as_u64().unwrap();
    assert_eq!(count("sessions_created"), 4);
    assert_eq!(count("sessions_deleted"), 4);
    assert_eq!(count("sessions_evicted"), 0);
    assert_eq!(count("live_sessions"), 0);
    assert_eq!(count("one_routes_computed"), 4);
    assert_eq!(count("all_routes_computed"), 8);
    assert_eq!(count("forest_cache_hits"), 4);
    assert_eq!(count("forest_cache_misses"), 4);
    // 7 requests per client (create, one-route, 2× all-routes, get,
    // delete, get-after-delete); the in-flight /metrics request itself is
    // recorded only after its snapshot is rendered.
    assert_eq!(count("requests_total"), 4 * 7);
    assert_eq!(count("responses_2xx"), 4 * 6);
    assert_eq!(count("responses_4xx"), 4, "one 404 per client");
    assert_eq!(count("responses_5xx"), 0);
    let hist = m.get("latency_us").unwrap().as_array().unwrap();
    let hist_total: u64 = hist
        .iter()
        .map(|b| b.get("count").unwrap().as_u64().unwrap())
        .sum();
    assert_eq!(hist_total, count("requests_total"));

    // Per-phase wall-time accounting reconciles against the same traffic:
    // every create chased (no supplied target), every forest-cache miss built
    // a forest, every one-route enumerated, and every routed response
    // (one-route + both all-routes replies) was printed.
    assert!(count("threads") >= 1, "pool width is reported");
    let phases = m.get("phases").unwrap();
    let phase = |name: &str, field: &str| {
        phases
            .get(name)
            .unwrap()
            .get(field)
            .unwrap()
            .as_u64()
            .unwrap()
    };
    assert_eq!(phase("chase", "count"), count("sessions_created"));
    assert_eq!(phase("forest", "count"), count("forest_cache_misses"));
    assert_eq!(phase("route", "count"), count("one_routes_computed"));
    assert_eq!(
        phase("print", "count"),
        count("one_routes_computed") + count("all_routes_computed"),
    );
    for name in ["chase", "forest", "route", "print"] {
        let entry = phases.get(name).unwrap();
        let phase_hist: u64 = entry
            .get("latency_us")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b.get("count").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(
            Some(phase_hist),
            entry.get("count").unwrap().as_u64(),
            "{name} histogram reconciles with its sample count"
        );
        assert!(
            entry.get("total_us").unwrap().as_u64().is_some(),
            "{name} reports total wall time"
        );
    }

    shutdown(addr, handle);
}

#[test]
fn bad_inputs_get_four_xx_not_hangs() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        max_sessions: 4,
        session_shards: 2,
        read_timeout: Duration::from_secs(30),
        data_dir: None,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);

    let (status, _) = c.request("GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = c.request("PATCH", "/sessions/1", None);
    assert_eq!(status, 405);
    let (status, _) = c.request("POST", "/sessions", Some("not json"));
    assert_eq!(status, 400);
    let (status, _) = c.request("POST", "/sessions", Some("{}"));
    assert_eq!(status, 422);
    let (status, body) = c.request(
        "POST",
        "/sessions",
        Some(r#"{"scenario": "source schema:\n  S(a\n"}"#),
    );
    assert_eq!(status, 422, "loader errors surface as unprocessable");
    assert!(body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("load"));
    let (status, _) = c.request("GET", "/sessions/99", None);
    assert_eq!(status, 404);
    let (status, _) = c.request("GET", "/sessions/banana", None);
    assert_eq!(status, 400);

    // Selection errors on a real session.
    let create = format!("{{\"scenario\": {}}}", json_escape(&scenario_text(1)));
    let (status, body) = c.request("POST", "/sessions", Some(&create));
    assert_eq!(status, 201);
    let id = body.get("session").unwrap().as_u64().unwrap();
    for (what, bad) in [
        ("no tuples field", "{}"),
        ("empty selection", r#"{"tuples": []}"#),
        (
            "unknown relation",
            r#"{"tuples": [{"relation": "Z", "row": 0}]}"#,
        ),
        (
            "row out of range",
            r#"{"tuples": [{"relation": "U", "row": 99}]}"#,
        ),
    ] {
        let (status, _) = c.request("POST", &format!("/sessions/{id}/one-route"), Some(bad));
        assert_eq!(status, 422, "{what}");
    }

    shutdown(addr, handle);
}

#[test]
fn lru_eviction_over_http() {
    // One shard so the LRU victim is the classic least-recently-used
    // session regardless of id→shard placement.
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        max_sessions: 2,
        session_shards: 1,
        read_timeout: Duration::from_secs(30),
        data_dir: None,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);
    let create = |c: &mut Client, tag: i64| {
        let body = format!("{{\"scenario\": {}}}", json_escape(&scenario_text(tag)));
        let (status, reply) = c.request("POST", "/sessions", Some(&body));
        assert_eq!(status, 201);
        reply.get("session").unwrap().as_u64().unwrap()
    };
    let a = create(&mut c, 1);
    let b = create(&mut c, 2);
    // Touch a; b becomes the LRU victim of the third insert.
    let (status, _) = c.request("GET", &format!("/sessions/{a}"), None);
    assert_eq!(status, 200);
    let body = format!("{{\"scenario\": {}}}", json_escape(&scenario_text(3)));
    let (status, reply) = c.request("POST", "/sessions", Some(&body));
    assert_eq!(status, 201);
    let evicted = reply.get("evicted").unwrap().as_array().unwrap();
    assert_eq!(evicted.len(), 1);
    assert_eq!(evicted[0].as_u64(), Some(b));
    let (status, _) = c.request("GET", &format!("/sessions/{b}"), None);
    assert_eq!(status, 410, "evicted sessions answer Gone, not Not Found");
    let (status, _) = c.request("DELETE", &format!("/sessions/{b}"), None);
    assert_eq!(status, 410, "deleting an evicted session is Gone too");
    let (status, _) = c.request("GET", &format!("/sessions/{a}"), None);
    assert_eq!(status, 200, "recently used session survives");

    let (status, m) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    assert_eq!(m.get("sessions_evicted").unwrap().as_u64(), Some(1));
    assert_eq!(m.get("live_sessions").unwrap().as_u64(), Some(2));
    let store = m.get("session_store").unwrap();
    assert_eq!(store.get("shard_count").unwrap().as_u64(), Some(1));
    assert_eq!(store.get("evictions").unwrap().as_u64(), Some(1));

    shutdown(addr, handle);
}

/// Four concurrent clients churn 3× the store's capacity over HTTP; the
/// per-shard `/metrics` counters must reconcile exactly with the ids the
/// clients saw evicted, and every one of those ids must answer 410 Gone.
#[test]
fn over_capacity_churn_reconciles_per_shard_eviction_metrics() {
    const CLIENTS: usize = 4;
    const CREATES_PER_CLIENT: usize = 6;
    const SHARDS: u64 = 4;
    const CAPACITY: u64 = 8;
    let (addr, handle) = start(ServerConfig {
        threads: 4,
        max_sessions: CAPACITY as usize,
        session_shards: SHARDS as usize,
        read_timeout: Duration::from_secs(30),
        data_dir: None,
        ..ServerConfig::default()
    });

    let evicted: Vec<u64> = {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|k| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut seen = Vec::new();
                    for j in 0..CREATES_PER_CLIENT {
                        let tag = 1000 * (k as i64 + 1) + j as i64;
                        let body =
                            format!("{{\"scenario\": {}}}", json_escape(&scenario_text(tag)));
                        let (status, reply) = c.request("POST", "/sessions", Some(&body));
                        assert_eq!(status, 201, "{reply:?}");
                        for id in reply.get("evicted").unwrap().as_array().unwrap() {
                            seen.push(id.as_u64().unwrap());
                        }
                    }
                    seen
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().expect("client thread"));
        }
        all
    };

    // Every eviction happens inside some create's scan and is reported in
    // that create's response, so the union of the clients' `evicted`
    // arrays is the complete eviction history — and ids are never
    // reported twice.
    let mut unique = evicted.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), evicted.len(), "no id evicted twice");
    let total_creates = (CLIENTS * CREATES_PER_CLIENT) as u64;
    assert_eq!(
        evicted.len() as u64,
        total_creates - CAPACITY,
        "every shard saturates, so evictions = inserts - capacity"
    );

    let mut c = Client::connect(addr);
    let (status, m1) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    assert_eq!(
        m1.get("sessions_created").unwrap().as_u64(),
        Some(total_creates)
    );
    assert_eq!(
        m1.get("sessions_evicted").unwrap().as_u64(),
        Some(evicted.len() as u64)
    );
    assert_eq!(m1.get("live_sessions").unwrap().as_u64(), Some(CAPACITY));
    let store = m1.get("session_store").unwrap();
    assert_eq!(store.get("shard_count").unwrap().as_u64(), Some(SHARDS));
    assert_eq!(
        store.get("evictions").unwrap().as_u64(),
        Some(evicted.len() as u64),
        "store totals agree with the service counter"
    );
    // Ids are dense (1..=24) and shard_of = id % 4, so each shard saw
    // exactly 6 inserts into 2 slots: per-shard counters are fully
    // determined even though the traffic was concurrent.
    let shards = store.get("shards").unwrap().as_array().unwrap();
    assert_eq!(shards.len(), SHARDS as usize);
    for (k, shard) in shards.iter().enumerate() {
        let field = |name: &str| shard.get(name).unwrap().as_u64().unwrap();
        assert_eq!(field("sessions"), CAPACITY / SHARDS, "shard {k} saturated");
        assert_eq!(field("capacity"), CAPACITY / SHARDS);
        assert_eq!(field("inserts"), total_creates / SHARDS);
        assert_eq!(
            field("evictions"),
            total_creates / SHARDS - CAPACITY / SHARDS,
            "shard {k} evicted its overflow exactly"
        );
    }

    // Every id the clients saw evicted answers 410 Gone — never 404, and
    // never a resurrected 200.
    for id in &evicted {
        let (status, _) = c.request("GET", &format!("/sessions/{id}"), None);
        assert_eq!(status, 410, "evicted session {id}");
    }
    let (status, m2) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let store2 = m2.get("session_store").unwrap();
    let delta = |name: &str| {
        store2.get(name).unwrap().as_u64().unwrap() - store.get(name).unwrap().as_u64().unwrap()
    };
    assert_eq!(delta("misses"), evicted.len() as u64, "each 410 was a miss");
    assert_eq!(delta("hits"), 0, "no evicted id was served");
    assert_eq!(delta("evictions"), 0, "probing evicts nothing");

    shutdown(addr, handle);
}

/// A two-hop pipeline scenario. The second hop has a redundant
/// existential tgd, so with `core: on` the chase's `U(x, Z)` null rows are
/// subsumed by the `U(x, y)` constant rows and the core strictly shrinks.
fn pipeline_text(core: bool) -> String {
    let options = if core {
        "\npipeline:\n  core: on\n"
    } else {
        ""
    };
    format!(
        "stage clean:\n\
        \x20 source schema:\n    S(a, b)\n\
        \x20 target schema:\n    T(a, b)\n\
        \x20 dependencies:\n    m1: S(x, y) -> T(x, y)\n\
        stage publish:\n\
        \x20 source schema:\n    T(a, b)\n\
        \x20 target schema:\n    U(a, b)\n\
        \x20 dependencies:\n\
        \x20   m2: T(x, y) -> exists Z: U(x, Z)\n\
        \x20   m3: T(x, y) -> U(x, y)\n\
        source data:\n  S(1, 2)\n  S(3, 4)\n{options}"
    )
}

#[test]
fn pipeline_sessions_stitch_routes_and_reject_edits() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        max_sessions: 4,
        session_shards: 2,
        read_timeout: Duration::from_secs(30),
        data_dir: None,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);

    // Core mode on: the chase makes 4 U-rows per the two tgds, the core
    // keeps only the 2 constant rows.
    let create = format!("{{\"scenario\": {}}}", json_escape(&pipeline_text(true)));
    let (status, reply) = c.request("POST", "/sessions", Some(&create));
    assert_eq!(status, 201, "{reply:?}");
    let id = reply.get("session").unwrap().as_u64().unwrap();
    let pipe = reply
        .get("pipeline")
        .expect("pipeline block in create reply");
    assert_eq!(pipe.get("hops").unwrap().as_u64(), Some(2));
    assert_eq!(pipe.get("core").unwrap().as_bool(), Some(true));
    let stages = pipe.get("stages").unwrap().as_array().unwrap();
    assert_eq!(stages.len(), 2);
    assert_eq!(stages[0].as_str(), Some("clean"));
    assert_eq!(stages[1].as_str(), Some("publish"));
    let before = pipe.get("core_tuples_before").unwrap().as_u64().unwrap();
    let after = pipe.get("core_tuples_after").unwrap().as_u64().unwrap();
    assert!(after < before, "core must shrink: {before} -> {after}");
    assert_eq!(
        reply.get("target_tuples").unwrap().as_u64(),
        Some(2),
        "the final hop serves the minimized instance"
    );

    // The flat view (final hop) answers the single-mapping surface.
    let (status, summary) = c.request("GET", &format!("/sessions/{id}"), None);
    assert_eq!(status, 200);
    assert_eq!(
        summary.get("target").unwrap().get("U").unwrap().as_u64(),
        Some(2)
    );
    let (status, one) = c.request(
        "POST",
        &format!("/sessions/{id}/one-route"),
        Some(r#"{"tuples": [{"relation": "U", "row": 0}]}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(one.get("found").unwrap().as_bool(), Some(true));

    // A stitched route crosses both hops and is replay-validated.
    let (status, stitched) = c.request(
        "POST",
        &format!("/sessions/{id}/stitched-route"),
        Some(r#"{"tuples": [{"relation": "U", "row": 0}, {"relation": "U", "row": 1}]}"#),
    );
    assert_eq!(status, 200, "{stitched:?}");
    assert_eq!(stitched.get("found").unwrap().as_bool(), Some(true));
    assert_eq!(stitched.get("validated").unwrap().as_bool(), Some(true));
    assert_eq!(stitched.get("hops").unwrap().as_u64(), Some(2));
    let hops = stitched.get("stages").unwrap().as_array().unwrap();
    assert_eq!(hops.len(), 2);
    assert_eq!(hops[0].get("name").unwrap().as_str(), Some("clean"));
    assert_eq!(hops[1].get("name").unwrap().as_str(), Some("publish"));
    for hop in hops {
        assert!(
            !hop.get("steps").unwrap().as_array().unwrap().is_empty(),
            "every hop contributes satisfaction steps"
        );
    }
    let total = stitched.get("total_steps").unwrap().as_u64().unwrap();
    assert!(total >= 2, "at least one step per hop, got {total}");

    // Pipeline sessions are immutable: edits answer 409.
    let (status, _) = c.request(
        "POST",
        &format!("/sessions/{id}/edit"),
        Some(r#"{"ops": [{"op": "insert_tuple", "line": "S(9, 9)"}]}"#),
    );
    assert_eq!(status, 409, "pipeline sessions reject edits");

    // Stitched-route on a flat session answers 409 the other way around.
    let flat = format!("{{\"scenario\": {}}}", json_escape(&scenario_text(1)));
    let (status, reply) = c.request("POST", "/sessions", Some(&flat));
    assert_eq!(status, 201);
    assert!(
        reply.get("pipeline").is_none(),
        "flat creates carry no pipeline block"
    );
    let flat_id = reply.get("session").unwrap().as_u64().unwrap();
    let (status, _) = c.request(
        "POST",
        &format!("/sessions/{flat_id}/stitched-route"),
        Some(r#"{"tuples": [{"relation": "U", "row": 0}]}"#),
    );
    assert_eq!(status, 409, "flat sessions have no stages to stitch");

    let (status, m) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let pm = m.get("pipeline").unwrap();
    assert_eq!(pm.get("sessions_created").unwrap().as_u64(), Some(1));
    assert_eq!(pm.get("stage_chases").unwrap().as_u64(), Some(2));
    assert_eq!(pm.get("core_runs").unwrap().as_u64(), Some(2));
    assert_eq!(
        pm.get("core_tuples_removed").unwrap().as_u64(),
        Some(before - after)
    );
    assert_eq!(pm.get("stitched_routes").unwrap().as_u64(), Some(1));
    assert_eq!(pm.get("stitched_hops").unwrap().as_u64(), Some(2));

    shutdown(addr, handle);
}

/// Pipeline sessions persist as `(text, chase-mode)` like flat ones; a
/// restart re-chases the whole chain (core mode included) and the stitched
/// answer is byte-identical to the pre-restart one.
#[test]
fn pipeline_sessions_survive_a_restart() {
    let tmp = routes_store::testutil::TempDir::new("svc-pipeline-restart");
    let config = || ServerConfig {
        threads: 2,
        max_sessions: 4,
        session_shards: 2,
        read_timeout: Duration::from_secs(30),
        data_dir: Some(tmp.path().to_path_buf()),
        ..ServerConfig::default()
    };
    let probe = r#"{"tuples": [{"relation": "U", "row": 1}]}"#;
    let (id, first) = {
        let (addr, handle) = start(config());
        let mut c = Client::connect(addr);
        let create = format!("{{\"scenario\": {}}}", json_escape(&pipeline_text(true)));
        let (status, reply) = c.request("POST", "/sessions", Some(&create));
        assert_eq!(status, 201);
        let id = reply.get("session").unwrap().as_u64().unwrap();
        let (status, stitched) = c.request(
            "POST",
            &format!("/sessions/{id}/stitched-route"),
            Some(probe),
        );
        assert_eq!(status, 200);
        shutdown(addr, handle);
        (id, stitched)
    };
    let (addr, handle) = start(config());
    let mut c = Client::connect(addr);
    let (status, again) = c.request(
        "POST",
        &format!("/sessions/{id}/stitched-route"),
        Some(probe),
    );
    assert_eq!(status, 200, "recovered pipeline session answers probes");
    assert_eq!(
        again.encode(),
        first.encode(),
        "re-chasing the chain after recovery reproduces the stitched route"
    );
    let (status, _) = c.request(
        "POST",
        &format!("/sessions/{id}/edit"),
        Some(r#"{"ops": [{"op": "insert_tuple", "line": "S(9, 9)"}]}"#),
    );
    assert_eq!(status, 409, "recovery restores the edit rejection too");
    shutdown(addr, handle);
}

/// A `spiderd` child process, killed if the test fails before shutting it
/// down.
struct Spiderd(std::process::Child);

impl Spiderd {
    /// Start `spiderd` on an ephemeral port with one worker thread and the
    /// given extra environment; returns it and the address it listens on.
    fn spawn(env: &[(&str, &str)]) -> (Spiderd, std::net::SocketAddr) {
        use std::process::{Command, Stdio};
        let mut child = Spiderd(
            Command::new(env!("CARGO_BIN_EXE_spiderd"))
                .args(["--addr", "127.0.0.1:0", "--threads", "1"])
                .env("ROUTES_LOG", "error")
                .envs(env.iter().copied())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn spiderd"),
        );
        let mut banner = String::new();
        BufReader::new(child.0.stdout.take().expect("piped stdout"))
            .read_line(&mut banner)
            .expect("listening line");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("no address in {banner:?}"));
        (child, addr)
    }
}

impl Drop for Spiderd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Every `ROUTES_*` number is trimmed before it parses, whichever knob
/// reads it. The settings go to a child `spiderd`, so this process's
/// environment is never touched.
#[test]
fn padded_env_numbers_configure_the_server() {
    let (mut child, addr) =
        Spiderd::spawn(&[("ROUTES_MAX_QUEUE", " 8"), ("ROUTES_WINDOW_SECONDS", "7\n")]);
    let mut c = Client::connect(addr);
    let (status, metrics) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let read = |block: &str, key: &str| metrics.get(block).and_then(|b| b.get(key)?.as_u64());
    assert_eq!(
        read("admission", "queue_capacity"),
        Some(8),
        "ROUTES_MAX_QUEUE=\" 8\""
    );
    assert_eq!(
        read("window", "seconds"),
        Some(7),
        "ROUTES_WINDOW_SECONDS=\"7\\n\""
    );
    let (status, _) = c.request("POST", "/shutdown", None);
    assert_eq!(status, 200);
    assert!(child.0.wait().expect("spiderd exits").success());
}

/// A core-on pipeline create whose chase makes 4,000 rows is answered on a
/// worker's default 2 MiB stack, and the process serves on. (The core's
/// homomorphism search once recursed per mapped row, and this create
/// overflowed the worker's stack, aborting the whole server.)
#[test]
fn large_core_pipeline_create_keeps_the_server_alive() {
    let (mut child, addr) = Spiderd::spawn(&[]);
    let mut text = String::from(
        "stage widen:\n  source schema:\n    S(a, b)\n  target schema:\n    T(a, b)\n  \
         dependencies:\n    r1: S(x, y) -> exists Z: T(x, Z)\n    c1: S(x, y) -> T(x, y)\n\
         source data:\n",
    );
    for i in 0..2_000 {
        text.push_str(&format!("  S({i}, {})\n", i + 1));
    }
    text.push_str("pipeline:\n  core: on\n");
    let create = format!("{{\"scenario\": {}}}", json_escape(&text));
    let mut c = Client::connect(addr);
    let (status, reply) = c.request("POST", "/sessions", Some(&create));
    assert_eq!(status, 201, "{reply:?}");
    let pipe = reply
        .get("pipeline")
        .expect("pipeline block in create reply");
    assert_eq!(
        pipe.get("core_tuples_before").unwrap().as_u64(),
        Some(4_000)
    );
    assert_eq!(pipe.get("core_tuples_after").unwrap().as_u64(), Some(2_000));
    let (status, _) = c.request("GET", "/healthz", None);
    assert_eq!(status, 200);
    let (status, _) = c.request("POST", "/shutdown", None);
    assert_eq!(status, 200);
    assert!(child.0.wait().expect("spiderd exits").success());
}
