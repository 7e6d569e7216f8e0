//! The end-to-end run: `spiderd` as a child process, driven in a closed
//! loop over one keep-alive loopback connection from one client thread.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use routes_store::{Durability, PersistMetrics, StoreDir, Wal};

use crate::check::check;
use crate::gen::{Kind, Op, Workload};
use crate::net::{self, Conn, Spiderd};

/// Set-ups per run; `setup_s` is their median. Each takes 1–2 s on a
/// 2-vCPU host, so two more would add a tenth to every run.
pub const SETUPS: usize = 3;

/// One timed op's outcome.
pub struct Sample {
    pub kind: Kind,
    pub latency_s: f64,
    pub ok: bool,
}

/// Everything an end-to-end run measured.
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    pub peak_rss_mb: f64,
    pub cpu_ms: f64,
    pub setup_failures: usize,
    pub first_error: Option<String>,
}

/// Scratch space inside the checkout for data directories.
pub struct WorkDir {
    pub root: PathBuf,
}

impl WorkDir {
    pub fn create(root: PathBuf) -> std::io::Result<WorkDir> {
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// A fresh data directory: a copy of the WAL template when the
    /// workload has one, empty otherwise.
    pub fn fresh_data_dir(&self, w: &Workload, k: usize) -> std::io::Result<PathBuf> {
        let dir = self.root.join(format!("data-{k}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        if !w.wal.is_empty() {
            let template = self.template(w)?;
            for entry in std::fs::read_dir(template)? {
                let entry = entry?;
                std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
            }
        }
        Ok(dir)
    }

    /// The data directory holding only the workload's WAL records (no
    /// snapshot), written once per run.
    fn template(&self, w: &Workload) -> std::io::Result<PathBuf> {
        let dir = self.root.join("wal-template");
        if !dir.exists() {
            let store = StoreDir::open(&dir)?;
            let wal = Wal::create(store.wal_path(0), Arc::new(PersistMetrics::new()))?;
            for record in &w.wal {
                wal.append(record, Durability::Buffered)?;
            }
            wal.flush()?;
        }
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Send one op; `Err` carries the reason it counts as failed.
pub fn send_checked(conn: &mut Conn, op: &Op, request: &[u8]) -> (f64, Result<(), String>) {
    let start = Instant::now();
    let reply = conn.send(request);
    let latency = start.elapsed().as_secs_f64();
    let outcome = match reply {
        Ok(reply) => check(op, reply.status, &reply.body)
            .map_err(|e| format!("{} {}: {e}", op.method, op.path)),
        Err(e) => Err(format!("{} {}: transport error: {e}", op.method, op.path)),
    };
    (latency, outcome)
}

/// Launch `spiderd` and run the workload's set-up ops; returns the server,
/// its connection, the set-up time, and the set-up failures.
pub fn set_up(
    bin: &Path,
    w: &Workload,
    work: &WorkDir,
    k: usize,
    errors: &mut Vec<String>,
) -> std::io::Result<(Spiderd, Conn, f64)> {
    let data = if w.data_dir {
        Some(work.fresh_data_dir(w, k)?)
    } else {
        None
    };
    let start = Instant::now();
    let server = Spiderd::launch(bin, data.as_deref())?;
    let mut conn = Conn::connect(server.addr)?;
    for op in &w.setup {
        if let (_, Err(e)) = send_checked(&mut conn, op, &op.request_bytes()) {
            errors.push(format!("set-up: {e}"));
        }
    }
    Ok((server, conn, start.elapsed().as_secs_f64()))
}

/// Run `SETUPS` set-ups (timing each), then the timed op list on the last
/// server.
pub fn run(bin: &Path, w: &Workload, work: &WorkDir) -> std::io::Result<E2e> {
    let requests: Vec<Vec<u8>> = w.timed.iter().map(Op::request_bytes).collect();
    let mut errors = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live = None;
    for k in 0..SETUPS {
        // Only one server at a time: the previous one exits before the
        // next set-up starts.
        if let Some((previous, conn)) = live.take() {
            drop(conn);
            Spiderd::shutdown(previous)?;
        }
        let (server, conn, secs) = set_up(bin, w, work, k, &mut errors)?;
        setup_s.push(secs);
        live = Some((server, conn));
    }
    let setup_failures = errors.len();
    let (server, mut conn) = live.expect("at least one set-up");
    let pid = server.pid();
    let cpu_before = net::cpu_ms(pid)?;
    let mut samples = Vec::with_capacity(w.timed.len());
    for (op, request) in w.timed.iter().zip(&requests) {
        let (latency_s, outcome) = send_checked(&mut conn, op, request);
        if let Err(e) = &outcome {
            errors.push(e.clone());
            if e.contains("transport error") {
                conn = Conn::connect(server.addr)?;
            }
        }
        samples.push(Sample {
            kind: op.kind,
            latency_s,
            ok: outcome.is_ok(),
        });
    }
    let cpu_ms = net::cpu_ms(pid)? - cpu_before;
    let peak_rss_mb = net::peak_rss_mb(pid)?;
    drop(conn);
    server.shutdown()?;
    Ok(E2e {
        setup_s,
        samples,
        peak_rss_mb,
        cpu_ms,
        setup_failures,
        first_error: errors.into_iter().next(),
    })
}
