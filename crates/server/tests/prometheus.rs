//! Prometheus exposition tests.
//!
//! 1. **Golden file** — a fully deterministic `Metrics` + store +
//!    persistence snapshot rendered through `to_prometheus` must match
//!    `tests/golden/metrics.prom` byte for byte: family ordering, `# HELP`
//!    / `# TYPE` lines, label rendering, and cumulative histogram buckets
//!    are all pinned.
//!    The same fixed snapshot rendered through `to_json_with_store` must
//!    match `tests/golden/metrics.json` as a tree (object keys in any
//!    order, arrays in order).
//! 2. **Live traffic** — drive a live server over real sockets, then
//!    render the same frozen snapshots as JSON and as Prometheus text: the
//!    text must be well-formed (every family announced once, `# HELP`
//!    before `# TYPE`, no duplicate series) and carry the latency
//!    exemplars the JSON lists, and every exemplar's trace id must resolve
//!    at `GET /trace`. That the two renderings agree series for series is
//!    pinned by the unit test beside the declaration list in
//!    `src/metrics.rs`, which both renderings walk.
//! 3. **Negotiation** — `?format=prometheus` and `Accept: text/plain`
//!    serve the text form with its content type; `?format=json` keeps
//!    JSON; an unknown format is a 400.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use routes_model::JoinSnapshot;
use routes_server::json::{parse, Json};
use routes_server::metrics::{Metrics, Phase};
use routes_server::session::LOCK_WAIT_BUCKETS_US;
use routes_server::{Server, ServerConfig, ShardSnapshot, StoreSnapshot};
use routes_store::testutil::TempDir;
use routes_store::{PersistSnapshot, FSYNC_BUCKETS_US};

/// A deterministic store snapshot with two distinguishable shards.
fn fixed_store() -> StoreSnapshot {
    let shard = |base: u64| {
        let mut read = vec![0u64; LOCK_WAIT_BUCKETS_US.len() + 1];
        let mut write = vec![0u64; LOCK_WAIT_BUCKETS_US.len() + 1];
        read[0] = base;
        read[LOCK_WAIT_BUCKETS_US.len()] = 1;
        write[1] = base + 1;
        ShardSnapshot {
            sessions: base as usize,
            capacity: 8,
            hits: 10 + base,
            misses: base,
            inserts: 3 + base,
            removes: base,
            evictions: 1,
            demotions: 2,
            evict_scan_steps: 5 + base,
            write_locks: 7 + base,
            lock_wait_read_us: read,
            lock_wait_write_us: write,
        }
    };
    StoreSnapshot {
        capacity: 16,
        shards: vec![shard(1), shard(2)],
    }
}

fn fixed_persist() -> PersistSnapshot {
    let mut fsync = vec![0u64; FSYNC_BUCKETS_US.len() + 1];
    fsync[0] = 4;
    fsync[2] = 2;
    fsync[FSYNC_BUCKETS_US.len()] = 1;
    PersistSnapshot {
        wal_gen: 3,
        wal_appends: 41,
        wal_bytes: 8_192,
        wal_records_since_checkpoint: 9,
        fsync_batches: 7,
        fsync_records: 40,
        fsync_latency_us: fsync,
        snapshots_written: 2,
        replayed_records: 12,
        restored_sessions: 5,
        recovery_dropped: 1,
        recovery_us: 1_234,
    }
}

fn fixed_join() -> JoinSnapshot {
    JoinSnapshot {
        batches: 11,
        rows_probed: 230,
        index_probes: 57,
        hash_builds: 6,
        hash_build_rows: 92,
    }
}

/// The fixed `Metrics` both golden files render: every counter set, every
/// phase sampled, one traced response for an exemplar.
fn fixed_metrics() -> Metrics {
    let m = Metrics::new();
    m.record_response(200, Duration::from_micros(80), Some("gold01"));
    m.record_response(201, Duration::from_micros(600), None);
    m.record_response(404, Duration::from_millis(2), None);
    m.record_response(500, Duration::from_secs(2), None);
    for (phase, dur) in [
        (Phase::Chase, Duration::from_micros(90)),
        (Phase::Chase, Duration::from_micros(450)),
        (Phase::Forest, Duration::from_millis(3)),
        (Phase::Route, Duration::from_micros(40)),
        (Phase::Print, Duration::from_micros(20)),
        (Phase::Edit, Duration::from_micros(700)),
    ] {
        routes_obs::record(phase.name(), Some(m.phase(phase)), dur);
    }
    use std::sync::atomic::Ordering::Relaxed;
    m.bad_requests.store(2, Relaxed);
    m.connections_accepted.store(6, Relaxed);
    m.admission_queue_capacity.store(64, Relaxed);
    m.admission_queue_depth.store(1, Relaxed);
    m.admission_admitted.store(5, Relaxed);
    m.admission_shed.store(2, Relaxed);
    m.admission_timeouts.store(1, Relaxed);
    m.admission_reaped.store(1, Relaxed);
    for wait in [Duration::from_micros(40), Duration::from_millis(8)] {
        routes_obs::record("queue_wait", Some(&m.admission_queue_wait), wait);
    }
    m.sessions_created.store(5, Relaxed);
    m.sessions_deleted.store(1, Relaxed);
    m.sessions_evicted.store(2, Relaxed);
    m.one_routes_computed.store(3, Relaxed);
    m.all_routes_computed.store(4, Relaxed);
    m.forest_cache_hits.store(2, Relaxed);
    m.forest_cache_misses.store(2, Relaxed);
    m.edits_applied.store(3, Relaxed);
    m.edits_rejected.store(1, Relaxed);
    m.edit_ops_applied.store(9, Relaxed);
    m.edit_forests_kept.store(4, Relaxed);
    m.edit_forests_invalidated.store(2, Relaxed);
    m.pipeline_sessions_created.store(2, Relaxed);
    m.pipeline_stage_chases.store(5, Relaxed);
    m.pipeline_core_runs.store(3, Relaxed);
    m.pipeline_core_tuples_removed.store(7, Relaxed);
    m.pipeline_stitched_routes.store(4, Relaxed);
    m.pipeline_stitched_hops.store(10, Relaxed);
    m
}

#[test]
fn exposition_matches_the_golden_file() {
    let m = fixed_metrics();
    let text = m.to_prometheus(&fixed_store(), Some(&fixed_persist()), &fixed_join(), 4);
    // Uptime is the only wall-clock-dependent sample; normalize it so the
    // golden stays byte-stable.
    let normalized: String = text
        .lines()
        .map(|line| {
            if line.starts_with("routes_uptime_seconds ") {
                "routes_uptime_seconds 0".to_owned()
            } else {
                line.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &normalized).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file exists");
    assert_eq!(
        normalized, golden,
        "to_prometheus drifted from tests/golden/metrics.prom \
         (set UPDATE_GOLDEN=1 to regenerate, then review the diff)"
    );
}

#[test]
fn json_rendering_matches_the_golden_file() {
    let m = fixed_metrics();
    let mut json = m.to_json_with_store(&fixed_store(), Some(&fixed_persist()), &fixed_join(), 4);
    // Normalize the wall-clock-dependent uptime, as the text golden does.
    if let Json::Object(fields) = &mut json {
        for (key, value) in fields.iter_mut() {
            if key == "uptime_seconds" {
                *value = Json::from(0u64);
            }
        }
    }
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut text = String::new();
        pretty(&json, 0, &mut text);
        text.push('\n');
        std::fs::write(golden_path, text).unwrap();
        return;
    }
    let golden = parse(&std::fs::read_to_string(golden_path).expect("golden file exists"))
        .expect("golden file parses");
    assert_eq!(
        sorted(&json),
        sorted(&golden),
        "to_json_with_store drifted from tests/golden/metrics.json \
         (set UPDATE_GOLDEN=1 to regenerate, then review the diff)"
    );
}

/// Render `json` one container entry per line; objects holding only
/// scalars (histogram buckets, exemplars) stay on one line.
fn pretty(json: &Json, depth: usize, out: &mut String) {
    let nested = |v: &Json| matches!(v, Json::Object(_) | Json::Array(_));
    let indent = "  ".repeat(depth + 1);
    match json {
        Json::Object(fields) if fields.iter().any(|(_, v)| nested(v)) => {
            out.push_str("{\n");
            for (i, (key, value)) in fields.iter().enumerate() {
                out.push_str(&format!("{indent}{}: ", Json::from(key.as_str()).encode()));
                pretty(value, depth + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}}}", &indent[2..]));
        }
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&indent);
                pretty(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}]", &indent[2..]));
        }
        other => out.push_str(&other.encode()),
    }
}

/// `json` with every object's keys sorted: trees compare with keys in any
/// order and arrays in order.
fn sorted(json: &Json) -> Json {
    match json {
        Json::Object(fields) => {
            let mut fields: Vec<_> = fields.iter().map(|(k, v)| (k.clone(), sorted(v))).collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Object(fields)
        }
        Json::Array(items) => Json::Array(items.iter().map(sorted).collect()),
        other => other.clone(),
    }
}

/// Parse an exposition into `series-with-labels -> value` plus
/// `series -> (exemplar trace_id, exemplar value)` for bucket lines
/// carrying an OpenMetrics-style ` # {trace_id="…"} N` annotation,
/// checking `# HELP` precedes `# TYPE`, each family is announced once, and
/// every sample's base name was announced.
fn parse_prom(text: &str) -> (HashMap<String, u64>, HashMap<String, (String, u64)>) {
    let mut series = HashMap::new();
    let mut exemplars = HashMap::new();
    let mut announced: Vec<String> = Vec::new();
    let mut pending_help: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_owned();
            pending_help = Some(name);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap().to_owned();
            let kind = it.next().unwrap();
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown family kind in {line:?}"
            );
            assert_eq!(
                pending_help.take().as_deref(),
                Some(name.as_str()),
                "# TYPE for {name} not directly preceded by its # HELP"
            );
            assert!(!announced.contains(&name), "{name} announced twice");
            announced.push(name);
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        // Split off an exemplar annotation before the value parse.
        let (sample, exemplar) = match line.split_once(" # ") {
            Some((sample, rest)) => (sample, Some(rest)),
            None => (line, None),
        };
        let (key, value) = sample.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let base = key.split('{').next().unwrap();
        let family = announced.iter().any(|name| {
            base == name
                || base == format!("{name}_bucket")
                || base == format!("{name}_count")
                || base == format!("{name}_sum")
        });
        assert!(family, "sample {base} has no announced family");
        if let Some(rest) = exemplar {
            let (labels, ex_value) = rest.rsplit_once(' ').unwrap();
            let trace = labels
                .strip_prefix("{trace_id=\"")
                .and_then(|l| l.strip_suffix("\"}"))
                .unwrap_or_else(|| panic!("malformed exemplar labels in {line:?}"));
            exemplars.insert(
                key.to_owned(),
                (trace.to_owned(), ex_value.parse::<u64>().unwrap()),
            );
        }
        let prior = series.insert(key.to_owned(), value.parse::<u64>().unwrap());
        assert!(prior.is_none(), "duplicate series {key}");
    }
    (series, exemplars)
}

fn as_u64(v: &Json) -> u64 {
    v.as_u64().expect("numeric JSON field")
}

fn scenario_json(tag: i64) -> String {
    let text = format!(
        "source schema:\n  S(a, b)\ntarget schema:\n  T(a, b)\n\
         dependencies:\n  m: S(x, y) -> T(x, y)\nsource data:\n  S({tag}, {})\n",
        tag + 1
    );
    format!("{{\"scenario\": {}}}", Json::from(text).encode())
}

/// One raw HTTP exchange returning status, headers, and body.
fn raw_request(
    addr: std::net::SocketAddr,
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

#[test]
fn live_scrape_is_well_formed_and_exemplars_round_trip() {
    let tmp = TempDir::new("prom-reconcile");
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 3,
            max_sessions: 4,
            session_shards: 2,
            data_dir: Some(tmp.path().to_path_buf()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let app = server.app();
    let (addr, handle) = server.spawn().expect("spawn");

    // Live traffic across every counter family: creates past capacity
    // (evictions), gets, a delete, both forest paths, one-route, errors.
    let mut ids = Vec::new();
    for tag in 0..6 {
        let (status, _, body) =
            raw_request(addr, "POST", "/sessions", &[], Some(&scenario_json(tag)));
        assert_eq!(status, 201, "create failed: {body}");
        ids.push(as_u64(parse(&body).unwrap().get("session").unwrap()));
    }
    let select = r#"{"tuples": [{"relation": "T", "row": 0}]}"#;
    let live = *ids.last().unwrap();
    for _ in 0..2 {
        let (status, _, _) = raw_request(
            addr,
            "POST",
            &format!("/sessions/{live}/all-routes"),
            &[],
            Some(select),
        );
        assert_eq!(status, 200);
    }
    let (status, _, _) = raw_request(
        addr,
        "POST",
        &format!("/sessions/{live}/one-route"),
        &[],
        Some(select),
    );
    assert_eq!(status, 200);
    // An edit far from T(…, row 0): the cached forest survives, and the
    // post-edit all-routes is still a cache hit.
    let edit = r#"{"ops": [{"op": "insert_tuple", "line": "S(100, 101)"}]}"#;
    let (status, _, body) = raw_request(
        addr,
        "POST",
        &format!("/sessions/{live}/edit"),
        &[],
        Some(edit),
    );
    assert_eq!(status, 200, "edit failed: {body}");
    let edit_json = parse(&body).unwrap();
    assert_eq!(as_u64(edit_json.get("edit_seq").unwrap()), 1);
    assert_eq!(as_u64(edit_json.get("forests_kept").unwrap()), 1);
    let (status, _, body) = raw_request(
        addr,
        "POST",
        &format!("/sessions/{live}/all-routes"),
        &[],
        Some(select),
    );
    assert_eq!(status, 200);
    assert_eq!(
        parse(&body).unwrap().get("cached").unwrap().as_bool(),
        Some(true),
        "surviving forest keeps serving cached answers"
    );
    // A malformed edit feeds edits_rejected.
    let (status, _, _) = raw_request(
        addr,
        "POST",
        &format!("/sessions/{live}/edit"),
        &[],
        Some(r#"{"ops": [{"op": "delete_tuple", "relation": "S", "row": 99}]}"#),
    );
    assert_eq!(status, 422);
    raw_request(addr, "GET", &format!("/sessions/{live}"), &[], None);
    raw_request(addr, "DELETE", &format!("/sessions/{live}"), &[], None);
    raw_request(addr, "GET", "/sessions/999999", &[], None); // 404
    let (status, headers, _) = raw_request(addr, "PATCH", "/metrics", &[], None);
    assert_eq!(status, 405, "known route, unsupported method");
    assert_eq!(header(&headers, "allow"), Some("GET"));

    // Quiesce, then render both forms from one frozen snapshot set. Their
    // agreement is the declaration list's unit test; here the text must be
    // well-formed and carry the exemplars the JSON lists.
    let store = app.store.snapshot();
    let persist = app.persistence().map(|p| p.metrics.snapshot());
    let join = routes_model::joinstats::snapshot();
    let threads = app.pool.threads();
    let json = app
        .metrics
        .to_json_with_store(&store, persist.as_ref(), &join, threads);
    let text = app
        .metrics
        .to_prometheus(&store, persist.as_ref(), &join, threads);
    let (series, exemplars) = parse_prom(&text);
    let json_exemplars = json.get("exemplars").unwrap().as_array().unwrap();
    assert_eq!(exemplars.len(), json_exemplars.len());
    for entry in json_exemplars {
        let le = entry.get("le_us").unwrap().as_str().unwrap();
        let le = if le == "inf" { "+Inf" } else { le };
        let key = format!("routes_request_latency_us_bucket{{le=\"{le}\"}}");
        let trace = entry.get("trace_id").unwrap().as_str().unwrap().to_owned();
        let dur = as_u64(entry.get("dur_us").unwrap());
        assert_eq!(
            exemplars.get(&key),
            Some(&(trace, dur)),
            "exemplar on {key}"
        );
    }
    assert_eq!(series["routes_forest_cache_hits_total"], 2);

    // Sanity: the traffic actually exercised the interesting families.
    assert!(
        as_u64(json.get("sessions_evicted").unwrap()) >= 1,
        "wanted evictions"
    );
    // hits: second pre-edit all-routes + the post-edit surviving-forest hit.
    assert_eq!(as_u64(json.get("forest_cache_hits").unwrap()), 2);
    assert_eq!(as_u64(json.get("forest_cache_misses").unwrap()), 1);
    let join_block = json.get("join").unwrap();
    assert!(
        as_u64(join_block.get("batches").unwrap()) >= 1,
        "the session chases must have run the batch executor"
    );
    assert!(
        as_u64(join_block.get("hash_builds").unwrap()) >= 1,
        "chasing indexes the source relations"
    );
    let edits = json.get("edits").unwrap();
    assert_eq!(as_u64(edits.get("applied").unwrap()), 1);
    assert_eq!(as_u64(edits.get("rejected").unwrap()), 1);
    assert_eq!(as_u64(edits.get("forests_kept").unwrap()), 1);
    assert!(
        as_u64(
            json.get("persistence")
                .unwrap()
                .get("fsync_batches")
                .unwrap()
        ) >= 1,
        "synced creates must have fsynced"
    );

    // Negotiation over the live socket.
    let (status, headers, body) = raw_request(addr, "GET", "/metrics?format=prometheus", &[], None);
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(body.contains("# TYPE routes_requests_total counter"));
    assert!(body.contains(
        "routes_session_shard_lock_wait_us_bucket{shard=\"1\",mode=\"write\",le=\"+Inf\"}"
    ));

    let (status, headers, _) = raw_request(
        addr,
        "GET",
        "/metrics",
        &[("accept", "text/plain; version=0.0.4")],
        None,
    );
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );

    let (status, headers, body) = raw_request(addr, "GET", "/metrics?format=json", &[], None);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    assert!(parse(&body).is_ok());

    let (status, _, body) = raw_request(addr, "GET", "/metrics?format=xml", &[], None);
    assert_eq!(status, 400);
    assert!(body.contains("unknown metrics format"));

    // Exemplar → trace round-trip: every latency exemplar's trace id is
    // accepted by the trace endpoint (spans, when still in the ring, all
    // belong to it), and `?limit=` caps and validates the dump.
    let exemplar_entries = json.get("exemplars").unwrap().as_array().unwrap();
    assert!(
        !exemplar_entries.is_empty(),
        "live traffic must leave latency exemplars"
    );
    for entry in exemplar_entries {
        let trace = entry.get("trace_id").unwrap().as_str().unwrap();
        let (status, _, body) =
            raw_request(addr, "GET", &format!("/trace?trace_id={trace}"), &[], None);
        assert_eq!(status, 200);
        for span in parse(&body)
            .unwrap()
            .get("spans")
            .unwrap()
            .as_array()
            .unwrap()
        {
            assert_eq!(span.get("trace_id").unwrap().as_str().unwrap(), trace);
        }
    }
    let (status, _, body) = raw_request(addr, "GET", "/trace?limit=2", &[], None);
    assert_eq!(status, 200);
    assert!(
        parse(&body)
            .unwrap()
            .get("spans")
            .unwrap()
            .as_array()
            .unwrap()
            .len()
            <= 2,
        "limit caps the span dump"
    );
    let (status, _, body) = raw_request(addr, "GET", "/trace?limit=nope", &[], None);
    assert_eq!(status, 400);
    assert!(body.contains("malformed limit"));

    let (status, _, _) = raw_request(addr, "POST", "/shutdown", &[], None);
    assert_eq!(status, 200);
    handle.join().expect("server exits");
}

/// An in-process app for the `/profile` endpoint (the profiler's state is
/// process-global; no sockets needed).
fn bare_app() -> routes_server::App {
    routes_server::App::with_observability(
        routes_server::SessionStore::with_shards(4, 1),
        routes_pool::Pool::sequential(),
        None,
        std::sync::Arc::new(routes_obs::Tracer::disabled()),
        Duration::from_millis(500),
    )
}

fn get(path: &str, query: &str, accept: Option<&str>) -> routes_server::http::Request {
    routes_server::http::Request {
        method: "GET".to_owned(),
        path: path.to_owned(),
        query: query.to_owned(),
        headers: accept
            .map(|a| ("accept".to_owned(), a.to_owned()))
            .into_iter()
            .collect(),
        body: Vec::new(),
        keep_alive: false,
    }
}

#[test]
fn profile_endpoint_negotiates_content_types() {
    let app = bare_app();

    // Default (no Accept) and */* serve JSON.
    let resp = app.handle_traced(&get("/profile", "", None));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "application/json");
    let json = parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert!(json.get("enabled").is_some());
    let resp = app.handle_traced(&get("/profile", "", Some("*/*")));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "application/json");

    // text/plain negotiates the flamegraph-collapsed form; `?format=`
    // overrides negotiation in both directions.
    let resp = app.handle_traced(&get("/profile", "", Some("text/plain")));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "text/plain; charset=utf-8");
    let resp = app.handle_traced(&get(
        "/profile",
        "format=collapsed",
        Some("application/json"),
    ));
    assert_eq!(resp.content_type, "text/plain; charset=utf-8");
    let resp = app.handle_traced(&get("/profile", "format=json", Some("text/plain")));
    assert_eq!(resp.content_type, "application/json");

    // An Accept the endpoint cannot satisfy is 406; a bogus format or
    // delta value is the caller's error.
    let resp = app.handle_traced(&get("/profile", "", Some("application/xml")));
    assert_eq!(resp.status, 406);
    let resp = app.handle_traced(&get("/profile", "format=svg", None));
    assert_eq!(resp.status, 400);
    let resp = app.handle_traced(&get("/profile", "delta=maybe", None));
    assert_eq!(resp.status, 400);

    // Only GET is served.
    let mut post = get("/profile", "", None);
    post.method = "POST".to_owned();
    let resp = app.handle_traced(&post);
    assert_eq!(resp.status, 405);
}

#[test]
fn profile_samples_render_as_phases_and_a_weighted_tree() {
    let app = bare_app();

    // Deterministic samples: open a request→chase frame stack by hand and
    // tick the sampler five times (no ticker thread involved).
    let _on = routes_obs::manual_profile();
    {
        let _request = routes_obs::span("profreq");
        let _chase = routes_obs::span("profchase");
        for _ in 0..5 {
            routes_obs::sample_once();
        }
    }

    let resp = app.handle_traced(&get("/profile", "", None));
    assert_eq!(resp.status, 200);
    let json = parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    // Inclusive per-phase totals: the parent frame covers its child.
    let phases = json.get("phases").unwrap();
    assert!(as_u64(phases.get("profreq").unwrap()) >= 5);
    assert!(as_u64(phases.get("profchase").unwrap()) >= 5);
    // The tree nests profchase under profreq with the same weight.
    let tree = json.get("tree").unwrap().as_array().unwrap();
    let node = tree
        .iter()
        .find(|n| n.get("name").unwrap().as_str() == Some("profreq"))
        .expect("profreq root in tree");
    let child = node
        .get("children")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|n| n.get("name").unwrap().as_str() == Some("profchase"))
        .expect("profchase nested under profreq");
    assert!(as_u64(child.get("samples").unwrap()) >= 5);

    // The collapsed form carries the same stack as `a;b N` lines.
    let resp = app.handle_traced(&get("/profile", "format=collapsed", None));
    let text = String::from_utf8(resp.body).unwrap();
    assert!(
        text.lines().any(|l| l.starts_with("profreq;profchase ")),
        "collapsed output missing the sampled stack: {text:?}"
    );
}
