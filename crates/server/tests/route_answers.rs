//! Byte-exact route answers: the one-route (found and `no_route`),
//! all-routes (forest-cache miss, then hit) and stitched-route bodies the
//! service sends, for three scenarios, compared against files under
//! `tests/golden/routes/`. The service is driven in-process through
//! [`App::handle`]; no sockets.
//!
//! The scenarios stress what the answer writer must get right: constants
//! that need JSON escaping (quotes, backslashes, a tab, a control
//! character, non-ASCII text, a negative integer), labeled nulls in
//! assignments and tuple texts, target-side branches, an underivable
//! tuple, the paper's running example, and a two-hop core-on pipeline.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p routes-server --test
//! route_answers`, then review the diff: every byte of these files is part
//! of the wire format.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use routes_chase::EgdLog;
use routes_cli::PreparedScenario;
use routes_gen::fargo_scenario;
use routes_mapping::is_weakly_acyclic;
use routes_pool::Pool;
use routes_server::http::Request;
use routes_server::{App, Json, SessionStore};

fn app(store: SessionStore) -> App {
    App::with_observability(
        store,
        Pool::sequential(),
        None,
        Arc::new(routes_obs::Tracer::disabled()),
        Duration::from_secs(60),
    )
}

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".to_owned(),
        path: path.to_owned(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

/// Load a scenario through `POST /sessions`; returns the session id.
fn create(app: &App, scenario: &str) -> u64 {
    let body = Json::obj([("scenario", Json::from(scenario))]).encode();
    let resp = app.handle(&post("/sessions", &body));
    let text = String::from_utf8(resp.body).unwrap();
    assert_eq!(resp.status, 201, "{text}");
    routes_server::json::parse(&text)
        .unwrap()
        .get("session")
        .and_then(Json::as_u64)
        .unwrap()
}

/// `{"tuples": [...]}` for `(relation, row)` pairs.
fn selection(tuples: &[(&str, u32)]) -> String {
    let items = tuples
        .iter()
        .map(|&(relation, row)| {
            Json::obj([("relation", Json::from(relation)), ("row", Json::from(row))])
        })
        .collect();
    Json::obj([("tuples", Json::Array(items))]).encode()
}

/// POST a selection to `/sessions/{id}/{answer}` and return the 200 body.
fn ask(app: &App, id: u64, answer: &str, tuples: &[(&str, u32)]) -> String {
    let resp = app.handle(&post(
        &format!("/sessions/{id}/{answer}"),
        &selection(tuples),
    ));
    let text = String::from_utf8(resp.body).unwrap();
    assert_eq!(resp.status, 200, "{answer} {tuples:?}: {text}");
    text
}

/// Compare `body` byte for byte with `tests/golden/routes/{name}.json`
/// (written instead when `UPDATE_GOLDEN` is set).
fn check_golden(name: &str, body: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/routes")
        .join(format!("{name}.json"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, body).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} is readable: {e}", path.display()));
    assert!(
        body == golden,
        "{name} drifted from {} (set UPDATE_GOLDEN=1 to regenerate, then review the diff)\n\
         got:    {body}\nwanted: {golden}",
        path.display()
    );
}

/// Constants that need escaping, labeled nulls (existential `m1`, `m3`),
/// a target tgd (`m2`), and `U(99, 'orphan')`, which no tgd derives.
fn escapes_text() -> String {
    r#"source schema:
  S(a, b)
target schema:
  T(a, b)
  U(a, b)
dependencies:
  m1: S(x, y) -> exists Z: T(x, Z)
  m2: T(x, z) -> U(z, x)
  m3: S(x, y) -> exists W: U(W, x)
source data:
  S('say "hi"', "C:\tmp")
  S("tab<TAB>in", "é😀")
  S(-7, "bell<BEL>")
target data:
  T('say "hi"', N1)
  T("tab<TAB>in", N2)
  T(-7, N3)
  U(N1, 'say "hi"')
  U(N2, "tab<TAB>in")
  U(N3, -7)
  U(99, 'orphan')
"#
    .replace("<TAB>", "\t")
    .replace("<BEL>", "\u{1}")
}

#[test]
fn escaped_constants_and_labeled_nulls() {
    let app = app(SessionStore::with_shards(4, 1));
    let id = create(&app, &escapes_text());
    let answers = [
        ("escapes_one_route", ask(&app, id, "one-route", &[("U", 0)])),
        (
            "escapes_one_route_pair",
            ask(&app, id, "one-route", &[("U", 1), ("U", 2)]),
        ),
        (
            "escapes_one_route_no_route",
            ask(&app, id, "one-route", &[("U", 3), ("U", 0)]),
        ),
        (
            "escapes_all_routes",
            ask(
                &app,
                id,
                "all-routes",
                &[("U", 0), ("U", 1), ("U", 2), ("U", 3)],
            ),
        ),
        (
            "escapes_all_routes_cached",
            ask(
                &app,
                id,
                "all-routes",
                &[("U", 0), ("U", 1), ("U", 2), ("U", 3)],
            ),
        ),
    ];
    for (name, body) in &answers {
        check_golden(name, body);
    }
}

/// The paper's Figures 1 and 2, with the hand-crafted solution `J`.
#[test]
fn fargo_running_example() {
    let fargo = fargo_scenario();
    let sc = fargo.scenario;
    let prepared = PreparedScenario {
        weakly_acyclic: is_weakly_acyclic(&sc.mapping),
        pool: sc.pool,
        mapping: sc.mapping,
        source: sc.source,
        target: fargo.solution,
        egd_log: EgdLog::new(),
        chase_stats: None,
        nested_target: None,
        chase_wall: None,
    };
    let store = SessionStore::with_shards(4, 1);
    let (id, _) = store.insert(prepared, &Pool::sequential());
    let app = app(store);
    // t6 = Clients(234, 'A. Long', M1, I1, 'California') is the paper's
    // suspicious tuple; t1..t4 are Accounts rows 0..3.
    let all = [
        ("Accounts", 0),
        ("Accounts", 1),
        ("Accounts", 2),
        ("Accounts", 3),
        ("Clients", 1),
        ("Clients", 5),
    ];
    let answers = [
        (
            "fargo_one_route",
            ask(&app, id, "one-route", &[("Clients", 1)]),
        ),
        (
            "fargo_one_route_many",
            ask(&app, id, "one-route", &[("Accounts", 1), ("Clients", 4)]),
        ),
        ("fargo_all_routes", ask(&app, id, "all-routes", &all)),
        ("fargo_all_routes_cached", ask(&app, id, "all-routes", &all)),
    ];
    for (name, body) in &answers {
        check_golden(name, body);
    }
}

/// Two hops, core on: `clean` copies `S` into `T`; `publish` maps `T` into
/// `U` twice (once with an existential the core then removes).
fn pipeline_text() -> &'static str {
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
    source data:\n  S(1, 2)\n  S(3, 'four')\n\
    pipeline:\n  core: on\n"
}

#[test]
fn two_hop_core_pipeline() {
    let app = app(SessionStore::with_shards(4, 1));
    let id = create(&app, pipeline_text());
    let answers = [
        (
            "pipeline_stitched_route",
            ask(&app, id, "stitched-route", &[("U", 0)]),
        ),
        (
            "pipeline_stitched_route_pair",
            ask(&app, id, "stitched-route", &[("U", 1), ("U", 0)]),
        ),
        (
            "pipeline_one_route",
            ask(&app, id, "one-route", &[("U", 1)]),
        ),
        (
            "pipeline_all_routes",
            ask(&app, id, "all-routes", &[("U", 0), ("U", 1)]),
        ),
        (
            "pipeline_all_routes_cached",
            ask(&app, id, "all-routes", &[("U", 0), ("U", 1)]),
        ),
    ];
    for (name, body) in &answers {
        check_golden(name, body);
    }
}
