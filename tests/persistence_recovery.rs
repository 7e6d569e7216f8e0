//! Crash-recovery suite for the durable session store (DESIGN.md §9).
//!
//! Three layers, most integrated first:
//!
//! 1. **HTTP restart round-trip** — boot `spiderd` with a data directory,
//!    drive it over real sockets (creates past capacity so the LRU evicts,
//!    a delete, a forest-cache warm), shut down gracefully, and boot a
//!    second server on the same directory. Every live session must answer
//!    200 with its original chase results, every evicted id 410, the
//!    deleted id 404, and the `/metrics` persistence block must account
//!    for exactly the restored population. Runs under whatever
//!    `ROUTES_SESSION_SHARDS` the CI matrix sets (shards are auto here),
//!    so the same history must survive at 1 shard and at 8.
//!
//! 2. **Torn-tail boot** — damage the WAL behind a stopped server and
//!    assert recovery keeps exactly the intact prefix: the torn create is
//!    the only session lost. A log whose records decode but no longer
//!    apply (a create whose text does not load, an edit whose op does not
//!    apply) boots with those records dropped, counted, and logged.
//!
//! 3. **Seeded fault campaign** — at the `routes-store` API level, inject
//!    one `random_fault` per SplitMix64 seed into a known log and assert
//!    the recovered records are always an exact prefix of what was
//!    written (or the written sequence plus one duplicated tail frame),
//!    and that the post-recovery checkpoint truncates the damage away.
//!    Also pins `store::faults::SplitMix64` bit-for-bit against
//!    `routes_gen::Rng`, the promise made in `faults`' module docs.

use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use routes_server::json::{parse, Json};
use routes_server::{Server, ServerConfig};
use routes_store::faults::{inject, random_fault, Fault, SplitMix64};
use routes_store::testutil::TempDir;
use routes_store::{
    ChaseMode, Durability, EditOp, PersistMetrics, Record, SnapshotState, StoreDir,
};

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

fn create_body(tag: i64) -> String {
    format!(
        "{{\"scenario\": {}}}",
        Json::from(scenario_text(tag).as_str()).encode()
    )
}

fn config_with_dir(dir: &Path, max_sessions: usize) -> ServerConfig {
    ServerConfig {
        threads: 2,
        max_sessions,
        // Auto shards: the CI matrix pins ROUTES_SESSION_SHARDS to 1 and
        // to 8, so recovery is exercised at both extremes.
        session_shards: 0,
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
    let (status, body) = c.request("POST", "/shutdown", None);
    assert_eq!(status, 200);
    assert_eq!(body.get("shutting_down").unwrap().as_bool(), Some(true));
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn restart_restores_live_evicted_and_deleted_sessions() {
    let tmp = TempDir::new("recovery-http");
    const CAPACITY: usize = 8;
    const CREATES: i64 = 12;

    // First life: create past capacity so the LRU evicts, warm one
    // forest, delete one live session.
    let (addr, handle) = start(config_with_dir(tmp.path(), CAPACITY));
    let mut c = Client::connect(addr);
    let mut live: Vec<u64> = Vec::new();
    let mut gone: Vec<u64> = Vec::new();
    for k in 0..CREATES {
        let (status, body) = c.request("POST", "/sessions", Some(&create_body(100 * (k + 1))));
        assert_eq!(status, 201, "{body:?}");
        let id = body.get("session").unwrap().as_u64().unwrap();
        live.push(id);
        for v in body.get("evicted").unwrap().as_array().unwrap() {
            let victim = v.as_u64().unwrap();
            live.retain(|&x| x != victim);
            gone.push(victim);
        }
    }
    assert!(
        !gone.is_empty(),
        "capacity {CAPACITY} with {CREATES} creates must evict"
    );

    // Warm the forest cache of the freshest session (certainly live) so
    // the restart can prove the memo was replayed.
    let warmed = *live.last().unwrap();
    let select = r#"{"tuples": [{"relation": "U", "row": 0}, {"relation": "T", "row": 1}]}"#;
    let (status, body) = c.request(
        "POST",
        &format!("/sessions/{warmed}/all-routes"),
        Some(select),
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("cached").unwrap().as_bool(), Some(false));
    let branches = body.get("num_branches").unwrap().as_u64();

    // Delete the oldest live session.
    let deleted = live.remove(0);
    let (status, _) = c.request("DELETE", &format!("/sessions/{deleted}"), None);
    assert_eq!(status, 200);
    shutdown(addr, handle);

    // Second life on the same directory.
    let (addr, handle) = start(config_with_dir(tmp.path(), CAPACITY));
    let mut c = Client::connect(addr);
    for &id in &live {
        let (status, body) = c.request("GET", &format!("/sessions/{id}"), None);
        assert_eq!(status, 200, "live session {id} must be restored: {body:?}");
        assert_eq!(body.get("session").unwrap().as_u64(), Some(id));
    }
    for &id in &gone {
        let (status, _) = c.request("GET", &format!("/sessions/{id}"), None);
        assert_eq!(status, 410, "evicted session {id} must stay 410 Gone");
    }
    let (status, _) = c.request("GET", &format!("/sessions/{deleted}"), None);
    assert_eq!(status, 404, "deleted session {deleted} must stay 404");

    // The warmed forest was replayed: the same selection (permuted) is a
    // cache hit with the same branch count.
    let permuted = r#"{"tuples": [{"relation": "T", "row": 1}, {"relation": "U", "row": 0}]}"#;
    let (status, body) = c.request(
        "POST",
        &format!("/sessions/{warmed}/all-routes"),
        Some(permuted),
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(
        body.get("cached").unwrap().as_bool(),
        Some(true),
        "forest memo replayed"
    );
    assert_eq!(body.get("num_branches").unwrap().as_u64(), branches);

    // Metrics accounting: the persistence block counts exactly the
    // restored population, and the store agrees shard by shard.
    let (status, m) = c.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(m
        .get("version")
        .unwrap()
        .as_str()
        .is_some_and(|v| !v.is_empty()));
    assert!(m.get("uptime_seconds").unwrap().as_u64().is_some());
    assert_eq!(
        m.get("live_sessions").unwrap().as_u64(),
        Some(live.len() as u64)
    );
    let p = m
        .get("persistence")
        .expect("persistence block when --data-dir is set");
    assert_eq!(
        p.get("restored_sessions").unwrap().as_u64(),
        Some(live.len() as u64)
    );
    assert!(
        p.get("replayed_records").unwrap().as_u64().unwrap() > 0,
        "boot replayed the WAL"
    );
    assert!(
        p.get("wal_gen").unwrap().as_u64().unwrap() >= 2,
        "each boot rotates a generation"
    );
    let shard_total: u64 = m
        .get("session_store")
        .unwrap()
        .get("shards")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.get("sessions").unwrap().as_u64().unwrap())
        .sum();
    assert_eq!(
        shard_total,
        live.len() as u64,
        "shard occupancy matches restored sessions"
    );
    shutdown(addr, handle);
}

#[test]
fn torn_wal_tail_loses_only_the_unsynced_suffix() {
    let tmp = TempDir::new("recovery-torn");

    // Five creates, no other traffic: generation 1 holds exactly five
    // Create records in id order.
    let (addr, handle) = start(config_with_dir(tmp.path(), 32));
    let mut c = Client::connect(addr);
    for k in 0..5i64 {
        let (status, _) = c.request("POST", "/sessions", Some(&create_body(10 * (k + 1))));
        assert_eq!(status, 201);
    }
    shutdown(addr, handle);

    // Tear the tail of the live log, as a crash mid-write would.
    let dir = StoreDir::open(tmp.path()).expect("open data dir");
    let wal_path = dir.wal_path(1);
    let report = inject(&wal_path, &Fault::TruncateTail { bytes: 7 }).expect("inject");
    assert_eq!(report.len_after, report.len_before - 7);

    // The boot survives, keeping the intact prefix: sessions 1–4 answer,
    // the torn fifth create was never made durable again.
    let (addr, handle) = start(config_with_dir(tmp.path(), 32));
    let mut c = Client::connect(addr);
    for id in 1..=4u64 {
        let (status, _) = c.request("GET", &format!("/sessions/{id}"), None);
        assert_eq!(status, 200, "session {id} is before the tear");
    }
    let (status, _) = c.request("GET", "/sessions/5", None);
    assert_eq!(status, 404, "the torn create is gone, not resurrected");
    let (_, m) = c.request("GET", "/metrics", None);
    let p = m.get("persistence").unwrap();
    assert_eq!(p.get("replayed_records").unwrap().as_u64(), Some(4));
    assert_eq!(p.get("restored_sessions").unwrap().as_u64(), Some(4));

    // The id horizon was replayed from the surviving records: the next
    // create allocates past every restored session.
    let (status, body) = c.request("POST", "/sessions", Some(&create_body(999)));
    assert_eq!(status, 201, "{body:?}");
    let id = body.get("session").unwrap().as_u64().unwrap();
    assert!(id >= 5, "ids advance past every replayed create, got {id}");
    shutdown(addr, handle);
}

/// A `Write` sink appending into a shared buffer, capturing the server's
/// structured log lines.
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

#[test]
fn records_that_no_longer_apply_are_dropped_counted_and_logged() {
    let tmp = TempDir::new("recovery-drops");
    let dir = StoreDir::open(tmp.path()).expect("open dir");
    let wal = dir
        .checkpoint(
            &SnapshotState::default(),
            1,
            Arc::new(PersistMetrics::new()),
        )
        .expect("checkpoint");
    // One good create, one create whose text does not load, and an edit
    // of the good session deleting a row it does not have.
    for record in [
        Record::Create {
            id: 1,
            chase: ChaseMode::Fresh,
            scenario: scenario_text(7),
        },
        Record::Create {
            id: 2,
            chase: ChaseMode::Fresh,
            scenario: "this is not a scenario".to_owned(),
        },
        Record::Edit {
            id: 1,
            seq: 1,
            ops: vec![EditOp::DeleteTuple {
                relation: "S".to_owned(),
                row: 9,
            }],
        },
    ] {
        wal.append(&record, Durability::Synced).expect("append");
    }
    drop(wal);

    let buffer = Arc::new(Mutex::new(Vec::new()));
    routes_obs::set_sink(Some(Box::new(Capture(Arc::clone(&buffer)))));
    let (addr, handle) = start(config_with_dir(tmp.path(), 32));
    routes_obs::set_sink(None);
    let mut c = Client::connect(addr);
    let (status, body) = c.request("GET", "/sessions/1", None);
    assert_eq!(status, 200, "the good create survives");
    assert_eq!(
        body.get("source").unwrap().get("S").unwrap().as_u64(),
        Some(2),
        "at its pre-edit text: the dropped edit deleted nothing"
    );
    let (status, _) = c.request("GET", "/sessions/2", None);
    assert_eq!(status, 404, "the create whose text does not load is gone");
    let (_, m) = c.request("GET", "/metrics", None);
    let p = m.get("persistence").unwrap();
    assert_eq!(p.get("replayed_records").unwrap().as_u64(), Some(3));
    assert_eq!(p.get("restored_sessions").unwrap().as_u64(), Some(1));
    assert_eq!(p.get("recovery_dropped").unwrap().as_u64(), Some(2));
    shutdown(addr, handle);

    let captured = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let drops: Vec<(u64, String)> = captured
        .lines()
        .map(|line| parse(line).unwrap_or_else(|e| panic!("unparseable log {line:?}: {e}")))
        .filter(|record| record.get("event").and_then(Json::as_str) == Some("recovery_drop"))
        .map(|record| {
            assert_eq!(record.get("level").and_then(Json::as_str), Some("warn"));
            assert!(record.get("error").and_then(Json::as_str).is_some());
            (
                record.get("session").and_then(Json::as_u64).unwrap(),
                record
                    .get("record")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_owned(),
            )
        })
        .collect();
    assert_eq!(drops, [(2, "create".to_owned()), (1, "edit".to_owned())]);
}

#[test]
fn fault_campaign_recovers_a_prefix_of_the_log() {
    const RECORDS: u64 = 12;
    for seed in 0..32u64 {
        let tmp = TempDir::new(&format!("recovery-campaign-{seed}"));
        let dir = StoreDir::open(tmp.path()).expect("open dir");
        let metrics = Arc::new(PersistMetrics::new());
        let wal = dir
            .checkpoint(&SnapshotState::default(), 1, Arc::clone(&metrics))
            .expect("checkpoint");
        // Creates interleaved with Edit records (every third session gets
        // one), so the campaign damages edit frames as often as creates.
        let mut written: Vec<Record> = Vec::new();
        for id in 1..=RECORDS {
            written.push(Record::Create {
                id,
                chase: ChaseMode::Fresh,
                scenario: format!("scenario body for session {id}"),
            });
            if id.is_multiple_of(3) {
                written.push(Record::Edit {
                    id,
                    seq: 1,
                    ops: vec![
                        EditOp::InsertTuple {
                            line: format!("S({id}, {id})"),
                        },
                        EditOp::DeleteTuple {
                            relation: "S".to_owned(),
                            row: 0,
                        },
                        EditOp::AddTgd {
                            line: "g0: S(x, y) -> T(x, y)".to_owned(),
                        },
                        EditOp::DropTgd {
                            name: "g0".to_owned(),
                        },
                    ],
                });
            }
        }
        for r in &written {
            wal.append(r, Durability::Synced).expect("append");
        }
        drop(wal);

        let mut rng = SplitMix64::seed_from_u64(seed);
        let wal_path = dir.wal_path(1);
        let len = std::fs::metadata(&wal_path).expect("stat").len();
        let fault = random_fault(&mut rng, len);
        inject(&wal_path, &fault).expect("inject");

        let rec = dir.recover().expect("recovery never errors on damage");
        match fault {
            Fault::DuplicateLastFrame => {
                // A doubly applied buffer is valid bytes: the whole log
                // plus one repeat of its last record (replay of a Create
                // is idempotent upstream).
                let mut expected = written.clone();
                expected.push(written.last().unwrap().clone());
                assert_eq!(rec.records, expected, "seed {seed}: {fault:?}");
                assert!(rec.stop.is_clean(), "seed {seed}");
            }
            _ => {
                assert!(
                    rec.records.len() < written.len(),
                    "seed {seed}: {fault:?} must cost at least the frame it hit"
                );
                assert_eq!(
                    rec.records,
                    written[..rec.records.len()],
                    "seed {seed}: recovery must keep an exact prefix"
                );
                assert!(!rec.stop.is_clean(), "seed {seed}: damage is reported");
            }
        }

        // The post-recovery checkpoint truncates the damage out of
        // existence: the next recovery is clean and replays nothing.
        let _wal = dir
            .checkpoint(&rec.state, rec.wal_gen + 1, Arc::clone(&metrics))
            .expect("checkpoint after recovery");
        let again = dir.recover().expect("recover the compacted dir");
        assert!(again.stop.is_clean(), "seed {seed}");
        assert!(again.records.is_empty(), "seed {seed}");
        assert_eq!(again.wal_gen, rec.wal_gen + 1, "seed {seed}");
    }
}

#[test]
fn store_splitmix_matches_the_workspace_generator() {
    // `store::faults` mirrors the workspace PRNG instead of depending on
    // `routes-gen`; this is the pin its module docs promise. If either
    // constant set drifts, fault campaigns stop being reproducible from
    // the seeds recorded in CI logs.
    for seed in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
        let mut mirror = SplitMix64::seed_from_u64(seed);
        let mut canonical = routes_gen::Rng::seed_from_u64(seed);
        for _ in 0..256 {
            assert_eq!(mirror.next_u64(), canonical.next_u64(), "seed {seed}");
        }
        // The bounded reduction must agree too (gen_range(0..n) is the
        // canonical spelling of `bounded`).
        for bound in [1u64, 2, 3, 10, 1 << 40] {
            assert_eq!(
                mirror.bounded(bound),
                canonical.gen_range(0..bound),
                "seed {seed} bound {bound}"
            );
        }
    }
}
