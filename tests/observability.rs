//! End-to-end observability tests over real sockets: trace-ID
//! propagation (supplied and minted), the `/trace` span dump with its
//! child-durations-sum-≤-request invariant, the slow-request warning
//! log and its per-phase breakdown with tracing off, and oldest-first
//! ring eviction.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use routes_server::json::parse;
use routes_server::{Json, Server, ServerConfig};
use routes_store::testutil::TempDir;

fn scenario_body(tag: i64) -> String {
    let text = format!(
        "source schema:\n  S(a, b)\ntarget schema:\n  T(a, b)\n\
         dependencies:\n  m: S(x, y) -> T(x, y)\nsource data:\n  S({tag}, {})\n",
        tag + 1
    );
    format!("{{\"scenario\": {}}}", Json::from(text).encode())
}

/// One raw HTTP/1.1 exchange; returns status, lower-cased headers, body.
fn raw_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let body = body.unwrap_or("");
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes()).unwrap();
    writer.write_all(body.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut response_headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (k, v) = line.split_once(':').unwrap();
        response_headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    (status, response_headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn start(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let (status, _, _) = raw_request(addr, "POST", "/shutdown", &[], None);
    assert_eq!(status, 200);
    handle.join().expect("server exits");
}

#[test]
fn trace_ids_are_echoed_minted_and_unique_across_concurrent_clients() {
    let (addr, handle) = start(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });

    // Concurrent clients: half supply their own IDs (echoed verbatim on
    // success AND error responses, and inside error bodies), half rely on
    // minted IDs (16 lowercase hex chars, globally unique).
    let minted = Arc::new(Mutex::new(Vec::new()));
    let mut clients = Vec::new();
    for c in 0..4 {
        let minted = Arc::clone(&minted);
        clients.push(std::thread::spawn(move || {
            for i in 0..8 {
                if c % 2 == 0 {
                    let supplied = format!("client-{c}-req-{i}");
                    let (status, headers, _) =
                        raw_request(addr, "GET", "/healthz", &[("X-Trace-Id", &supplied)], None);
                    assert_eq!(status, 200);
                    assert_eq!(header(&headers, "x-trace-id"), Some(supplied.as_str()));

                    // Error responses carry the ID too — header and body.
                    let (status, headers, body) = raw_request(
                        addr,
                        "GET",
                        "/sessions/999999",
                        &[("X-Trace-Id", &supplied)],
                        None,
                    );
                    assert_eq!(status, 404);
                    assert_eq!(header(&headers, "x-trace-id"), Some(supplied.as_str()));
                    let body = parse(&body).unwrap();
                    assert_eq!(
                        body.get("trace_id").and_then(|v| v.as_str()),
                        Some(supplied.as_str()),
                        "error body must embed the trace id"
                    );
                } else {
                    let (status, headers, _) = raw_request(addr, "GET", "/healthz", &[], None);
                    assert_eq!(status, 200);
                    let id = header(&headers, "x-trace-id")
                        .expect("minted id")
                        .to_owned();
                    assert_eq!(id.len(), 16, "minted ids are 16 hex chars: {id:?}");
                    assert!(
                        id.bytes()
                            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()),
                        "minted ids are lowercase hex: {id:?}"
                    );
                    minted.lock().unwrap().push(id);
                }
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    let mut ids = minted.lock().unwrap().clone();
    let total = ids.len();
    assert_eq!(total, 16);
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), total, "minted trace ids must be unique");

    // /healthz contract: well-formed body, no store involvement needed.
    let (status, _, body) = raw_request(addr, "GET", "/healthz", &[], None);
    assert_eq!(status, 200);
    let body = parse(&body).unwrap();
    assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
    assert!(body.get("version").and_then(|v| v.as_str()).is_some());
    assert!(body
        .get("uptime_seconds")
        .and_then(|v| v.as_u64())
        .is_some());

    shutdown(addr, handle);
}

#[test]
fn trace_dump_shows_child_spans_whose_durations_sum_within_the_request() {
    let tmp = TempDir::new("obs-trace-dump");
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        data_dir: Some(tmp.path().to_path_buf()),
        tracing: true,
        trace_capacity: 256,
        ..ServerConfig::default()
    });

    let trace_id = "trace-dump-create";
    let (status, headers, _) = raw_request(
        addr,
        "POST",
        "/sessions",
        &[("X-Trace-Id", trace_id)],
        Some(&scenario_body(7)),
    );
    assert_eq!(status, 201);
    assert_eq!(header(&headers, "x-trace-id"), Some(trace_id));

    let (status, _, body) = raw_request(
        addr,
        "GET",
        &format!("/trace?trace_id={trace_id}"),
        &[],
        None,
    );
    assert_eq!(status, 200);
    let dump = parse(&body).unwrap();
    assert_eq!(dump.get("enabled"), Some(&Json::Bool(true)));
    assert_eq!(dump.get("capacity").and_then(|v| v.as_u64()), Some(256));
    let spans = dump.get("spans").unwrap().as_array().unwrap();
    assert!(
        spans
            .iter()
            .all(|s| s.get("trace_id").and_then(|v| v.as_str()) == Some(trace_id)),
        "trace_id filter must drop other traces"
    );

    let names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    for expected in [
        "request",
        "chase",
        "session_lock_write",
        "wal_append",
        "wal_fsync",
    ] {
        assert!(
            names.contains(&expected),
            "expected a {expected:?} span for a durable create, got {names:?}"
        );
    }

    // Instrumented seams are disjoint sub-intervals of the request, so
    // their durations must sum to no more than the request span's.
    let dur_of = |pred: &dyn Fn(&str) -> bool| -> u64 {
        spans
            .iter()
            .filter(|s| pred(s.get("name").unwrap().as_str().unwrap()))
            .map(|s| s.get("dur_us").unwrap().as_u64().unwrap())
            .sum()
    };
    let request_us = dur_of(&|n| n == "request");
    let child_us = dur_of(&|n| n != "request");
    assert!(
        child_us <= request_us,
        "child spans ({child_us}µs) exceed the request span ({request_us}µs): {spans:?}"
    );

    // A malformed filter (over-long id) is rejected, not truncated.
    let long = "x".repeat(200);
    let (status, _, _) = raw_request(addr, "GET", &format!("/trace?trace_id={long}"), &[], None);
    assert_eq!(status, 400);

    shutdown(addr, handle);
}

/// A `Write` sink that appends into a shared buffer, letting the test
/// capture structured log output produced by server worker threads.
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run `serve` with the process-wide log sink captured, one test at a
/// time, and return the `slow_request` warning logged for each trace id
/// in `traces`.
fn slow_request_lines(serve: impl FnOnce(), traces: &[&str]) -> Vec<Json> {
    static SINK: Mutex<()> = Mutex::new(());
    let _serial = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let buffer = Arc::new(Mutex::new(Vec::new()));
    routes_obs::set_sink(Some(Box::new(Capture(Arc::clone(&buffer)))));
    serve();
    routes_obs::set_sink(None);

    let captured = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let records: Vec<Json> = captured
        .lines()
        .map(|line| parse(line).unwrap_or_else(|e| panic!("unparseable log {line:?}: {e:?}")))
        .collect();
    let warning = |trace_id: &str| {
        records
            .iter()
            .find(|record| {
                record.get("event").and_then(|v| v.as_str()) == Some("slow_request")
                    && record.get("trace_id").and_then(|v| v.as_str()) == Some(trace_id)
            })
            .unwrap_or_else(|| panic!("no slow_request warning for {trace_id:?} in:\n{captured}"))
            .clone()
    };
    traces.iter().map(|trace_id| warning(trace_id)).collect()
}

#[test]
fn slow_request_warning_fires_above_the_threshold() {
    // Threshold zero: every request is "slow". The warning must carry the
    // request's trace id so the log line joins against `/trace`.
    let trace_id = "slow-req-probe";
    let serve = || {
        let (addr, handle) = start(ServerConfig {
            threads: 1,
            slow_request: Some(Duration::ZERO),
            ..ServerConfig::default()
        });
        let headers = [("X-Trace-Id", trace_id)];
        let (status, _, _) = raw_request(addr, "GET", "/healthz", &headers, None);
        assert_eq!(status, 200);
        shutdown(addr, handle);
    };
    let warning = &slow_request_lines(serve, &[trace_id])[0];
    assert_eq!(warning.get("level").and_then(|v| v.as_str()), Some("warn"));
    assert_eq!(
        warning.get("path").and_then(|v| v.as_str()),
        Some("/healthz")
    );
    assert_eq!(warning.get("status").and_then(|v| v.as_u64()), Some(200));
    assert!(warning.get("elapsed_us").and_then(|v| v.as_u64()).is_some());
}

/// The breakdown is the request's own phase samples, so it needs no span
/// ring: with tracing off, a create reports its chase, and an edit its
/// batch and the replay chase inside it.
#[test]
fn slow_request_breakdown_reports_phases_with_tracing_off() {
    let serve = || {
        let (addr, handle) = start(ServerConfig {
            threads: 1,
            tracing: false,
            slow_request: Some(Duration::ZERO),
            ..ServerConfig::default()
        });
        let headers = [("X-Trace-Id", "breakdown-create")];
        let (status, _, body) =
            raw_request(addr, "POST", "/sessions", &headers, Some(&scenario_body(3)));
        assert_eq!(status, 201, "{body}");
        let id = parse(&body)
            .unwrap()
            .get("session")
            .unwrap()
            .as_u64()
            .unwrap();
        let edit = r#"{"ops": [{"op": "insert_tuple", "line": "S(8, 9)"}]}"#;
        let headers = [("X-Trace-Id", "breakdown-edit")];
        let path = format!("/sessions/{id}/edit");
        let (status, _, body) = raw_request(addr, "POST", &path, &headers, Some(edit));
        assert_eq!(status, 200, "{body}");
        shutdown(addr, handle);
    };
    let lines = slow_request_lines(serve, &["breakdown-create", "breakdown-edit"]);
    let us = |line: &Json, key: &str| line.get(key).and_then(|v| v.as_u64()).unwrap();
    let (create, edit) = (&lines[0], &lines[1]);
    assert!(us(create, "chase_us") > 0, "create: {create:?}");
    assert_eq!(us(create, "edit_us"), 0, "create: {create:?}");
    assert!(us(edit, "edit_us") > 0, "edit: {edit:?}");
    assert!(us(edit, "chase_us") > 0, "edit: {edit:?}");
    assert!(
        us(edit, "chase_us") <= us(edit, "edit_us"),
        "the replay chase runs inside the edit batch: {edit:?}"
    );
}

#[test]
fn span_ring_evicts_oldest_first_at_capacity() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        tracing: true,
        trace_capacity: 8,
        ..ServerConfig::default()
    });

    // 20 requests with distinct supplied ids against a ring of 8: only the
    // last 8 request spans survive, oldest first. A single worker thread
    // plus sequential requests pins the arrival order.
    let ids: Vec<String> = (0..20).map(|i| format!("ring-{i:02}")).collect();
    for id in &ids {
        let (status, _, _) = raw_request(addr, "GET", "/healthz", &[("X-Trace-Id", id)], None);
        assert_eq!(status, 200);
    }
    let (status, _, body) = raw_request(addr, "GET", "/trace", &[], None);
    assert_eq!(status, 200);
    let dump = parse(&body).unwrap();
    assert_eq!(dump.get("capacity").and_then(|v| v.as_u64()), Some(8));
    let survivors: Vec<String> = dump
        .get("spans")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.get("trace_id").unwrap().as_str().unwrap().to_owned())
        .collect();
    assert_eq!(
        survivors,
        ids[12..].to_vec(),
        "ring must keep exactly the newest 8 spans, oldest first"
    );

    shutdown(addr, handle);
}
