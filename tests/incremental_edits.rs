//! Differential gate for the live-mutation subsystem (`routes-incr` +
//! `POST /sessions/{id}/edit`).
//!
//! Three layers:
//!
//! 1. **Library-level campaign** — replay a 200-op seeded campaign
//!    ([`routes_gen::edit_campaign`]) through `apply_batch`, and after
//!    *every* batch assert the incrementally maintained instance, chase
//!    statistics, and null pool are byte-identical to a from-scratch
//!    re-chase of the same text — at worker-pool sizes 1 and 2. A route
//!    forest cache rides along: forests the invalidation analysis keeps
//!    must render byte-identically to a fresh computation over the edited
//!    scenario, and survivors stay in the cache across batches so staleness
//!    would compound (and be caught) rather than reset. A fixed scenario
//!    whose constants alias under any `,`-joined or prefix-tagged render
//!    runs the same checks, and deletes each aliased row by index.
//! 2. **HTTP round-trip** — drive the edit endpoint over real sockets:
//!    cached forests survive unrelated edits (`cached: true` after the
//!    edit), edits touching a forest's support invalidate it, and the
//!    post-edit answers equal those of a session created directly from the
//!    final text. Method/route mismatches answer 405 with an `Allow`
//!    header. Runs under whatever `ROUTES_SESSION_SHARDS` the CI matrix
//!    sets.
//! 3. **Restart replay** — edits are WAL records: a server restarted on
//!    the same data directory reconstructs the edited scenario (same
//!    all-routes bytes) and continues the edit sequence where it left off.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use routes_chase::ChaseOptions;
use routes_cli::{load_scenario_str, prepare_scenario_with, PreparedScenario};
use routes_core::{compute_all_routes, RouteEnv, RouteForest};
use routes_gen::edit_campaign;
use routes_incr::{apply_batch, surviving_selections, IncrState};
use routes_model::{Instance, Schema, TupleId, ValuePool};
use routes_pool::Pool;
use routes_server::json::{parse, Json};
use routes_server::{Server, ServerConfig};
use routes_store::testutil::TempDir;

/// Canonical rendering of a target instance (relation/row/printed values).
fn dump_instance(schema: &Schema, inst: &Instance, values: &ValuePool) -> String {
    let mut out = String::new();
    for (rel, relation) in schema.iter() {
        for (t, row) in inst.rel_tuples(rel) {
            let vs: Vec<String> = row.iter().map(|&v| values.value_to_string(v)).collect();
            out.push_str(&format!(
                "{}[{}]({})\n",
                relation.name(),
                t.row,
                vs.join(", ")
            ));
        }
    }
    out
}

/// Canonical rendering of a route forest (roots, order, every branch).
fn dump_forest(forest: &RouteForest, values: &ValuePool) -> String {
    let mut out = format!("roots: {:?}\norder: {:?}\n", forest.roots, forest.order);
    for &t in &forest.order {
        out.push_str(&format!("node {t:?}\n"));
        for b in forest.branches_of(t) {
            let hom: Vec<String> = b.hom.iter().map(|&v| values.value_to_string(v)).collect();
            out.push_str(&format!(
                "  branch {:?} hom=[{}] lhs={:?} rhs={:?}\n",
                b.tgd,
                hom.join(", "),
                b.lhs_facts,
                b.rhs_tuples
            ));
        }
    }
    out
}

fn prepare(text: &str, workers: &Pool) -> PreparedScenario {
    let loaded = load_scenario_str(text).expect("campaign text loads");
    prepare_scenario_with(loaded, ChaseOptions::fresh(), workers).expect("campaign text chases")
}

fn forest_for(p: &PreparedScenario, sel: &[TupleId]) -> RouteForest {
    let env = RouteEnv::new(&p.mapping, &p.source, &p.target);
    compute_all_routes(env, sel)
}

/// One single-root selection per non-empty target relation (the first row),
/// the forests a live debugging session would plausibly have cached.
fn selections(p: &PreparedScenario) -> Vec<Vec<TupleId>> {
    p.mapping
        .target()
        .iter()
        .filter(|(rel, _)| p.target.rel_len(*rel) > 0)
        .map(|(rel, _)| vec![TupleId { rel, row: 0 }])
        .collect()
}

#[test]
fn campaign_matches_full_rechase_at_every_prefix() {
    // 50 batches x 4 ops = 200 ops, the acceptance floor.
    let campaign = edit_campaign(0xC0FFEE, 50, 4);
    assert!(campaign.total_ops() >= 200);
    for threads in [1usize, 2] {
        let workers = Pool::new(threads);
        let mut text = campaign.scenario.clone();
        let mut scenario = prepare(&text, &workers);
        let mut state = IncrState::default();
        // selection -> forest, maintained exactly like the server's cache:
        // survivors carry over verbatim, the rest recompute on demand.
        let mut cache: HashMap<Vec<TupleId>, RouteForest> = selections(&scenario)
            .into_iter()
            .map(|sel| {
                let f = forest_for(&scenario, &sel);
                (sel, f)
            })
            .collect();
        let mut kept_total = 0usize;
        for (k, ops) in campaign.batches.iter().enumerate() {
            let apply = apply_batch(
                &text,
                &scenario,
                &state,
                ops,
                ChaseOptions::fresh(),
                &workers,
            )
            .unwrap_or_else(|e| panic!("threads {threads} batch {k}: {e}"));
            let fresh = prepare(&apply.text, &workers);

            // The incremental instance is byte-identical to the re-chase.
            assert_eq!(
                dump_instance(
                    apply.scenario.mapping.target(),
                    &apply.scenario.target,
                    &apply.scenario.pool
                ),
                dump_instance(fresh.mapping.target(), &fresh.target, &fresh.pool),
                "threads {threads} batch {k}: target instance diverged"
            );
            assert_eq!(
                apply.scenario.chase_stats, fresh.chase_stats,
                "threads {threads} batch {k}: chase stats diverged"
            );
            assert_eq!(
                apply.scenario.pool.num_nulls(),
                fresh.pool.num_nulls(),
                "threads {threads} batch {k}: null pool diverged"
            );

            // Surviving forests must equal a fresh forest over the edited
            // scenario, rendered byte for byte.
            let keep = surviving_selections(cache.iter(), &apply, &scenario.pool);
            let mut next_cache: HashMap<Vec<TupleId>, RouteForest> = HashMap::new();
            for sel in keep {
                let survivor = cache
                    .remove(&sel)
                    .expect("kept selections come from the cache");
                let recomputed = forest_for(&fresh, &sel);
                assert_eq!(
                    dump_forest(&survivor, &apply.scenario.pool),
                    dump_forest(&recomputed, &fresh.pool),
                    "threads {threads} batch {k}: kept forest for {sel:?} is stale"
                );
                kept_total += 1;
                next_cache.insert(sel, survivor);
            }
            // Re-cache a forest for every populated relation not kept, as
            // the server would on the next all-routes miss.
            for sel in selections(&apply.scenario) {
                next_cache
                    .entry(sel.clone())
                    .or_insert_with(|| forest_for(&apply.scenario, &sel));
            }
            cache = next_cache;

            text = apply.text;
            scenario = apply.scenario;
            state = apply.state;
        }
        assert!(
            kept_total > 0,
            "threads {threads}: the campaign never kept a forest — the \
             invalidation analysis is vacuous"
        );
    }
}

/// Constants that alias under any rendering that joins a row's values with
/// `,` or tags them by a prefix: `'a,s:b'`/`'c'` against `'a'`/`'b,s:c'`,
/// a quoted `#`, `'i:5'`, and `5` / `'5'` / the labeled null `n5`.
const ALIASED_SCENARIO: &str = "\
source schema:
  S(a, b)
  M(a)
target schema:
  T(a, b)
  U(a, b)
  V(a)
dependencies:
  ex: S(x, y) -> exists W: T(x, W) & U(W, y)
  cp: M(x) -> V(x)
  tv: U(w, y) -> V(y)
source data:
  S('a,s:b', 'c')
  S('a', 'b,s:c')
  S(\"x#y\", 'i:5')   # the quoted # is data, this one a comment
  S(5, '5')
  S(n5, 5)
  M('5')
  M(5)
  M(n5)
";

/// The rows of source relation `rel` as data lines, strings single-quoted
/// so that every row spells its type.
fn source_lines(p: &PreparedScenario, rel: &str) -> Vec<String> {
    let id = p.mapping.source().rel_id(rel).expect("source relation");
    p.source
        .rel_tuples(id)
        .map(|(_, vals)| {
            let vs: Vec<String> = vals
                .iter()
                .map(|&v| match v {
                    routes_model::Value::Str(s) => format!("'{}'", p.pool.resolve(s)),
                    _ => p.pool.value_to_string(v),
                })
                .collect();
            format!("{rel}({})", vs.join(", "))
        })
        .collect()
}

#[test]
fn aliased_rows_stay_distinct_through_edits() {
    use routes_store::EditOp;
    let del = |relation: &str, row: u32| EditOp::DeleteTuple {
        relation: relation.to_owned(),
        row,
    };
    let ins = |line: &str| EditOp::InsertTuple {
        line: line.to_owned(),
    };
    let batches: Vec<Vec<EditOp>> = vec![
        vec![ins("M('c')")], // warms every memo
        vec![del("S", 1)],   // S('a', 'b,s:c')
        vec![ins("S('a', 'b,s:c')")],
        vec![del("S", 0)], // S('a,s:b', 'c')
        vec![ins("S('a,s:b', 'c')")],
        vec![del("S", 0)], // S('x#y', 'i:5')
        vec![ins("S('x#y', 'i:5')"), del("M", 0)],
        vec![del("S", 0), del("S", 0)], // S(5, '5'), then S(n5, 5)
        vec![ins("S(5, '5')"), ins("S(n5, 5)"), ins("M('5')")],
        vec![EditOp::AddTgd {
            line: "g0: S(x, y) -> exists Z: U(Z, x)".to_owned(),
        }],
        vec![EditOp::DropTgd {
            name: "g0".to_owned(),
        }],
    ];
    let workers = Pool::new(1);
    let mut text = ALIASED_SCENARIO.to_owned();
    let mut scenario = prepare(&text, &workers);
    assert_eq!(
        source_lines(&scenario, "S").len(),
        5,
        "five distinct S rows"
    );
    let mut state = IncrState::default();
    let mut cache: HashMap<Vec<TupleId>, RouteForest> = selections(&scenario)
        .into_iter()
        .map(|sel| {
            let f = forest_for(&scenario, &sel);
            (sel, f)
        })
        .collect();
    for (k, ops) in batches.iter().enumerate() {
        // What the batch must do to the source rows: deletes remove the
        // row-th distinct row, inserts append rows not yet present.
        let mut expected: HashMap<&str, Vec<String>> = ["S", "M"]
            .into_iter()
            .map(|rel| (rel, source_lines(&scenario, rel)))
            .collect();
        for op in ops {
            match op {
                EditOp::DeleteTuple { relation, row } => {
                    expected
                        .get_mut(relation.as_str())
                        .unwrap()
                        .remove(*row as usize);
                }
                EditOp::InsertTuple { line } => {
                    let relation = line.split('(').next().unwrap();
                    let rows = expected.get_mut(relation).unwrap();
                    if !rows.contains(line) {
                        rows.push(line.clone());
                    }
                }
                _ => {}
            }
        }
        let apply = apply_batch(
            &text,
            &scenario,
            &state,
            ops,
            ChaseOptions::fresh(),
            &workers,
        )
        .unwrap_or_else(|e| panic!("batch {k}: {e}"));
        for (rel, rows) in &expected {
            assert_eq!(
                &source_lines(&apply.scenario, rel),
                rows,
                "batch {k}: source relation {rel}"
            );
        }

        let fresh = prepare(&apply.text, &workers);
        assert_eq!(
            dump_instance(
                apply.scenario.mapping.target(),
                &apply.scenario.target,
                &apply.scenario.pool
            ),
            dump_instance(fresh.mapping.target(), &fresh.target, &fresh.pool),
            "batch {k}: target instance diverged"
        );
        assert_eq!(
            apply.scenario.chase_stats, fresh.chase_stats,
            "batch {k}: chase stats (per-tgd included) diverged"
        );
        assert_eq!(
            apply.scenario.pool.num_nulls(),
            fresh.pool.num_nulls(),
            "batch {k}: null pool diverged"
        );
        let keep = surviving_selections(cache.iter(), &apply, &scenario.pool);
        let mut next_cache: HashMap<Vec<TupleId>, RouteForest> = HashMap::new();
        for sel in keep {
            let survivor = cache.remove(&sel).expect("kept selections are cached");
            assert_eq!(
                dump_forest(&survivor, &apply.scenario.pool),
                dump_forest(&forest_for(&fresh, &sel), &fresh.pool),
                "batch {k}: kept forest for {sel:?} is stale"
            );
            next_cache.insert(sel, survivor);
        }
        for sel in selections(&apply.scenario) {
            next_cache
                .entry(sel.clone())
                .or_insert_with(|| forest_for(&apply.scenario, &sel));
        }
        cache = next_cache;
        text = apply.text;
        scenario = apply.scenario;
        state = apply.state;
    }
}

/// Every tuple of an instance by stable id, for before/after comparisons.
fn tuples_by_id(schema: &Schema, inst: &Instance) -> Vec<(TupleId, Vec<routes_model::Value>)> {
    let mut out = Vec::new();
    for (rel, _) in schema.iter() {
        for row in 0..inst.rel_len(rel) {
            let id = TupleId { rel, row };
            out.push((id, inst.tuple(id)));
        }
    }
    out
}

#[test]
fn insert_only_edits_keep_existing_tuple_ids_stable() {
    // Column-store invariant: relations are append-only, so an edit batch
    // that only inserts source tuples must leave every pre-existing
    // `TupleId { rel, row }` resolving to the same values on both sides —
    // the property that lets routes, forests, and WAL records survive
    // edits without id translation.
    let workers = Pool::new(1);
    let mut text = HTTP_SCENARIO.to_owned();
    let mut scenario = prepare(&text, &workers);
    let mut state = IncrState::default();

    let batches: Vec<Vec<routes_store::EditOp>> = vec![
        vec![routes_store::EditOp::InsertTuple {
            line: "S(5, 6)".to_owned(),
        }],
        vec![
            routes_store::EditOp::InsertTuple {
                line: "M(77)".to_owned(),
            },
            routes_store::EditOp::InsertTuple {
                line: "S(5, 9)".to_owned(),
            },
        ],
    ];
    for (k, ops) in batches.iter().enumerate() {
        let before_source = tuples_by_id(scenario.mapping.source(), &scenario.source);
        let before_target = tuples_by_id(scenario.mapping.target(), &scenario.target);
        let apply = apply_batch(
            &text,
            &scenario,
            &state,
            ops,
            ChaseOptions::fresh(),
            &workers,
        )
        .unwrap_or_else(|e| panic!("batch {k}: {e}"));
        for (id, values) in &before_source {
            assert_eq!(
                &apply.scenario.source.tuple(*id),
                values,
                "batch {k}: source tuple {id:?} moved under an insert-only edit"
            );
        }
        for (id, values) in &before_target {
            assert_eq!(
                &apply.scenario.target.tuple(*id),
                values,
                "batch {k}: target tuple {id:?} moved under an insert-only edit"
            );
        }
        // The batch actually grew the instance (new source rows, and the
        // chase derived at least their copies), so the check is not vacuous.
        assert!(
            tuples_by_id(apply.scenario.mapping.source(), &apply.scenario.source).len()
                > before_source.len(),
            "batch {k}: inserts must append source rows"
        );
        assert!(
            tuples_by_id(apply.scenario.mapping.target(), &apply.scenario.target).len()
                > before_target.len(),
            "batch {k}: the delta chase must append derived target rows"
        );
        text = apply.text;
        scenario = apply.scenario;
        state = apply.state;
    }
}

#[test]
fn edit_batch_index_build_work_is_bounded_by_instance_size() {
    // Regression gate for the index-clone fix: cloning an instance (the
    // edit pipeline snapshots the session's instances every batch) must
    // not copy or eagerly rebuild hash indexes. Each edited instance
    // starts with `index_build_rows() == 0` and rebuilds lazily, so the
    // build work attributable to one batch is bounded by a small multiple
    // of the instance size — independent of how many batches preceded it.
    // Under the old deep-copy `#[derive(Clone)]`, work carried over and
    // grew with the batch index, which this bound catches.
    let campaign = edit_campaign(0x0001_DEC5_BEEF, 12, 2);
    let workers = Pool::new(1);
    let mut text = campaign.scenario.clone();
    let mut scenario = prepare(&text, &workers);
    let mut state = IncrState::default();
    for (k, ops) in campaign.batches.iter().enumerate() {
        let apply = apply_batch(
            &text,
            &scenario,
            &state,
            ops,
            ChaseOptions::fresh(),
            &workers,
        )
        .unwrap_or_else(|e| panic!("batch {k}: {e}"));
        let source_rows: u64 = apply
            .scenario
            .mapping
            .source()
            .iter()
            .map(|(rel, _)| u64::from(apply.scenario.source.rel_len(rel)))
            .sum();
        let target_rows: u64 = apply
            .scenario
            .mapping
            .target()
            .iter()
            .map(|(rel, _)| u64::from(apply.scenario.target.rel_len(rel)))
            .sum();
        // Per relation, each distinct probe shape (a handful of single
        // columns plus composites) is built at most once over at most
        // rel_len rows, plus incremental catch-ups for appended rows; 16
        // shapes is a generous ceiling for the campaign's 2-3 column
        // schemas. Accumulated work from prior batches would overflow this
        // within a batch or two.
        let bound = |rows: u64| 16 * (rows + 1);
        assert!(
            apply.scenario.source.index_build_rows() <= bound(source_rows),
            "batch {k}: source index build work {} exceeds 16x instance size {}",
            apply.scenario.source.index_build_rows(),
            source_rows,
        );
        assert!(
            apply.scenario.target.index_build_rows() <= bound(target_rows),
            "batch {k}: target index build work {} exceeds 16x instance size {}",
            apply.scenario.target.index_build_rows(),
            target_rows,
        );
        text = apply.text;
        scenario = apply.scenario;
        state = apply.state;
    }
}

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

    /// One request on the persistent connection; returns status, response
    /// headers (lowercased names), and the parsed JSON body.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> (u16, Vec<(String, String)>, Json) {
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
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_owned();
                if name == "content-length" {
                    content_length = value.parse().unwrap();
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        let text = String::from_utf8(body).unwrap();
        let json = parse(&text).unwrap_or_else(|e| panic!("bad JSON {text:?}: {e}"));
        (status, headers, json)
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// The answer-bearing fields of an all-routes body (everything but the
/// cache-status flag), for cross-session equality checks.
fn answer_of(body: &Json) -> String {
    let mut parts = Vec::new();
    for field in [
        "num_nodes",
        "num_branches",
        "all_roots_provable",
        "roots",
        "nodes",
    ] {
        parts.push(format!(
            "{field}={}",
            body.get(field)
                .unwrap_or_else(|| panic!("all-routes body missing {field}"))
                .encode()
        ));
    }
    parts.join("\n")
}

const HTTP_SCENARIO: &str = "source schema:\n  S(a, b)\n  M(a)\n\
     target schema:\n  T(a, b)\n  V(a)\n\
     dependencies:\n  m: S(x, y) -> T(x, y)\n  cp: M(x) -> V(x)\n\
     source data:\n  S(1, 2)\n  S(3, 4)\n  M(9)\n";

fn create_body(text: &str) -> String {
    format!("{{\"scenario\": {}}}", Json::from(text).encode())
}

fn config_with_dir(dir: &Path) -> ServerConfig {
    ServerConfig {
        threads: 2,
        max_sessions: 8,
        session_shards: 0, // CI pins ROUTES_SESSION_SHARDS to 1 and to 8
        read_timeout: Duration::from_secs(30),
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    server.spawn().expect("spawn")
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    let mut c = Client::connect(addr);
    let (status, _, _) = c.request("POST", "/shutdown", None);
    assert_eq!(status, 200);
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn edit_endpoint_maintains_forests_and_matches_a_fresh_session() {
    let tmp = TempDir::new("incr-http");
    let (addr, handle) = start(config_with_dir(tmp.path()));
    let mut c = Client::connect(addr);

    let (status, _, body) = c.request("POST", "/sessions", Some(&create_body(HTTP_SCENARIO)));
    assert_eq!(status, 201, "{body:?}");
    let id = body.get("session").unwrap().as_u64().unwrap();

    // Warm a forest over T row 0.
    let select = r#"{"tuples": [{"relation": "T", "row": 0}]}"#;
    let (status, _, body) = c.request("POST", &format!("/sessions/{id}/all-routes"), Some(select));
    assert_eq!(status, 200);
    assert_eq!(body.get("cached").unwrap().as_bool(), Some(false));

    // An edit far from T row 0: the forest survives and keeps serving
    // cached answers.
    let far = r#"{"ops": [{"op": "insert_tuple", "line": "M(55)"}]}"#;
    let (status, _, body) = c.request("POST", &format!("/sessions/{id}/edit"), Some(far));
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("edit_seq").unwrap().as_u64(), Some(1));
    assert_eq!(body.get("ops_applied").unwrap().as_u64(), Some(1));
    assert_eq!(body.get("forests_kept").unwrap().as_u64(), Some(1));
    assert_eq!(body.get("forests_invalidated").unwrap().as_u64(), Some(0));
    assert_eq!(body.get("mapping_changed").unwrap().as_bool(), Some(false));
    let (status, _, body) = c.request("POST", &format!("/sessions/{id}/all-routes"), Some(select));
    assert_eq!(status, 200);
    assert_eq!(
        body.get("cached").unwrap().as_bool(),
        Some(true),
        "unrelated edit must not invalidate the forest"
    );

    // An edit deleting S row 0 kills T row 0's forest.
    let near = r#"{"ops": [{"op": "delete_tuple", "relation": "S", "row": 0}]}"#;
    let (status, _, body) = c.request("POST", &format!("/sessions/{id}/edit"), Some(near));
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("edit_seq").unwrap().as_u64(), Some(2));
    assert_eq!(body.get("forests_invalidated").unwrap().as_u64(), Some(1));
    let (status, _, edited_answer) =
        c.request("POST", &format!("/sessions/{id}/all-routes"), Some(select));
    assert_eq!(status, 200);
    assert_eq!(edited_answer.get("cached").unwrap().as_bool(), Some(false));

    // The edited session answers exactly like a session created directly
    // from the final text.
    let final_text = "source schema:\n  S(a, b)\n  M(a)\n\
         target schema:\n  T(a, b)\n  V(a)\n\
         dependencies:\n  m: S(x, y) -> T(x, y)\n  cp: M(x) -> V(x)\n\
         source data:\n  S(3, 4)\n  M(9)\n\nsource data:\n  M(55)\n";
    let (status, _, body) = c.request("POST", "/sessions", Some(&create_body(final_text)));
    assert_eq!(status, 201);
    let twin = body.get("session").unwrap().as_u64().unwrap();
    let (status, _, twin_answer) = c.request(
        "POST",
        &format!("/sessions/{twin}/all-routes"),
        Some(select),
    );
    assert_eq!(status, 200);
    assert_eq!(
        answer_of(&edited_answer),
        answer_of(&twin_answer),
        "edited session must answer like a fresh session on the final text"
    );

    // Validation errors are 422 and counted; the text is untouched.
    for bad in [
        r#"{"ops": [{"op": "delete_tuple", "relation": "Nope", "row": 0}]}"#,
        r#"{"ops": [{"op": "warp_core_breach"}]}"#,
        r#"{"ops": []}"#,
        r#"{"ops": [{"op": "insert_tuple", "line": "S(1)"}]}"#,
    ] {
        let (status, _, body) = c.request("POST", &format!("/sessions/{id}/edit"), Some(bad));
        assert_eq!(status, 422, "{bad} -> {body:?}");
    }
    let (status, _, _) = c.request("POST", "/sessions/999999/edit", Some(far));
    assert_eq!(status, 404);

    // Known routes with wrong methods answer 405 + Allow (not 404).
    for (method, path, allow) in [
        ("GET", format!("/sessions/{id}/edit"), "POST"),
        ("DELETE", format!("/sessions/{id}/all-routes"), "POST"),
        ("PATCH", "/sessions".to_owned(), "POST"),
        ("POST", "/metrics".to_owned(), "GET"),
        ("GET", "/shutdown".to_owned(), "POST"),
    ] {
        let (status, headers, _) = c.request(method, &path, None);
        assert_eq!(status, 405, "{method} {path}");
        assert_eq!(header(&headers, "allow"), Some(allow), "{method} {path}");
    }

    // The metrics edits block accounts for all of the above.
    let (status, _, m) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let edits = m.get("edits").expect("edits block in /metrics");
    assert_eq!(edits.get("applied").unwrap().as_u64(), Some(2));
    assert_eq!(edits.get("ops_applied").unwrap().as_u64(), Some(2));
    assert_eq!(edits.get("rejected").unwrap().as_u64(), Some(4));
    assert_eq!(edits.get("forests_kept").unwrap().as_u64(), Some(1));
    assert_eq!(edits.get("forests_invalidated").unwrap().as_u64(), Some(1));

    shutdown(addr, handle);
}

#[test]
fn delete_of_an_aliased_row_removes_exactly_that_row_over_http() {
    let tmp = TempDir::new("incr-aliased");
    let (addr, handle) = start(config_with_dir(tmp.path()));
    let mut c = Client::connect(addr);
    let scenario = "source schema:\n  S(a, b)\ntarget schema:\n  T(a, b)\n\
         dependencies:\n  m: S(x, y) -> T(x, y)\n\
         source data:\n  S('a,s:b', 'c')\n  S('a', 'b,s:c')\n";
    let (status, _, body) = c.request("POST", "/sessions", Some(&create_body(scenario)));
    assert_eq!(status, 201, "{body:?}");
    let id = body.get("session").unwrap().as_u64().unwrap();
    assert_eq!(body.get("source_tuples").unwrap().as_u64(), Some(2));

    let delete = r#"{"ops": [{"op": "delete_tuple", "relation": "S", "row": 1}]}"#;
    let (status, _, body) = c.request("POST", &format!("/sessions/{id}/edit"), Some(delete));
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("source_deleted").unwrap().as_u64(), Some(1));
    assert_eq!(body.get("source_tuples").unwrap().as_u64(), Some(1));

    // The surviving row is S('a,s:b', 'c'): the session answers like one
    // created from that row alone.
    let select = r#"{"tuples": [{"relation": "T", "row": 0}]}"#;
    let (status, _, edited) =
        c.request("POST", &format!("/sessions/{id}/all-routes"), Some(select));
    assert_eq!(status, 200);
    let single = scenario.replace("  S('a', 'b,s:c')\n", "");
    let (status, _, body) = c.request("POST", "/sessions", Some(&create_body(&single)));
    assert_eq!(status, 201);
    let twin = body.get("session").unwrap().as_u64().unwrap();
    let (status, _, expected) = c.request(
        "POST",
        &format!("/sessions/{twin}/all-routes"),
        Some(select),
    );
    assert_eq!(status, 200);
    assert_eq!(answer_of(&edited), answer_of(&expected));
    shutdown(addr, handle);
}

#[test]
fn restart_replays_edit_records_to_the_same_state() {
    let tmp = TempDir::new("incr-restart");
    let select = r#"{"tuples": [{"relation": "T", "row": 0}]}"#;

    // First life: create, edit twice (data and mapping), record the answer.
    let (addr, handle) = start(config_with_dir(tmp.path()));
    let mut c = Client::connect(addr);
    let (status, _, body) = c.request("POST", "/sessions", Some(&create_body(HTTP_SCENARIO)));
    assert_eq!(status, 201);
    let id = body.get("session").unwrap().as_u64().unwrap();
    let batch1 = r#"{"ops": [
        {"op": "insert_tuple", "line": "S(7, 8)"},
        {"op": "delete_tuple", "relation": "M", "row": 0}
    ]}"#;
    let (status, _, body) = c.request("POST", &format!("/sessions/{id}/edit"), Some(batch1));
    assert_eq!(status, 200, "{body:?}");
    let batch2 = r#"{"ops": [{"op": "add_tgd", "line": "g0: S(x, y) -> V(y)"}]}"#;
    let (status, _, body) = c.request("POST", &format!("/sessions/{id}/edit"), Some(batch2));
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("edit_seq").unwrap().as_u64(), Some(2));
    let (status, _, before) =
        c.request("POST", &format!("/sessions/{id}/all-routes"), Some(select));
    assert_eq!(status, 200);
    shutdown(addr, handle);

    // Second life: the replayed session must answer byte-identically and
    // continue the edit sequence at 3.
    let (addr, handle) = start(config_with_dir(tmp.path()));
    let mut c = Client::connect(addr);
    let (status, _, after) = c.request("POST", &format!("/sessions/{id}/all-routes"), Some(select));
    assert_eq!(status, 200, "replayed session must be live: {after:?}");
    assert_eq!(
        answer_of(&before),
        answer_of(&after),
        "restart must reconstruct the edited scenario exactly"
    );
    let (status, _, body) = c.request(
        "POST",
        &format!("/sessions/{id}/edit"),
        Some(r#"{"ops": [{"op": "drop_tgd", "name": "g0"}]}"#),
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(
        body.get("edit_seq").unwrap().as_u64(),
        Some(3),
        "the edit sequence continues across restarts"
    );
    shutdown(addr, handle);
}
