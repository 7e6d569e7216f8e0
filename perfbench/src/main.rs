//! `spiderd-bench` — the spiderd benchmark.
//!
//! ```text
//! spiderd-bench --spiderd PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` launches `spiderd` and prints the end-to-end metrics;
//! `--trace 1` replays the same op lists in-process with spans around each
//! public call and prints the per-layer metrics. The last stdout line is
//! the result object; the lines before it are the run record. See
//! `README.md` beside this crate for the workloads and the metrics.

mod check;
mod e2e;
mod gen;
mod net;
#[cfg(test)]
mod tests;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use gen::{Kind, Workload};

struct Args {
    spiderd: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spiderd = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} must be a whole number"))
        };
        match flag.as_str() {
            "--spiderd" => spiderd = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        spiderd: spiderd.ok_or("--spiderd is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("spiderd-bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Fail before launching anything if a request would exceed the server's
/// body limit (it would answer 413 mid-run).
fn guard_sizes(w: &Workload) -> Result<(), String> {
    let limit = routes_server::http::MAX_BODY;
    match w.all_ops().find(|op| op.body.len() > limit) {
        Some(op) => Err(format!(
            "workload {}: a {} {} body is {} bytes, over the server's {limit}-byte limit",
            w.name,
            op.method,
            op.path,
            op.body.len()
        )),
        None => Ok(()),
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    if !args.spiderd.is_file() {
        return Err(format!("no spiderd binary at {}", args.spiderd.display()));
    }
    let started = Instant::now();
    let steal_before = net::cpu_steal();
    let w = gen::generate(&args.workload, args.seed, args.seconds)?;
    guard_sizes(&w)?;
    let gen_s = started.elapsed().as_secs_f64();
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = e2e::WorkDir::create(cwd.join(".bench_work")).map_err(|e| e.to_string())?;

    let mut record = Record::default();
    record.text("workload", w.name);
    record.num("seed", args.seed as f64);
    record.num(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    record.text("git_sha", &net::git_sha(&cwd));
    let data_dir = w.data_dir.then(|| work.root.join("data-N"));
    record.text(
        "spiderd_flags",
        &net::spiderd_flags(data_dir.as_deref()).join(" "),
    );
    record.num("routes_threads", gen::THREADS as f64);
    record.text(
        "data_dir_fs",
        &if w.data_dir {
            net::fs_type(&work.root)
        } else {
            "none (in-memory)".to_owned()
        },
    );
    record.num("gen_s", gen_s);

    let (result, code) = if args.trace {
        trace::run(&args.spiderd, &w, &work, &mut record)?
    } else {
        let e = e2e::run(&args.spiderd, &w, &work).map_err(|e| e.to_string())?;
        end_to_end(&w, &e, &mut record)
    };
    let steal_after = net::cpu_steal();
    let total = steal_after.1.saturating_sub(steal_before.1).max(1);
    record.num(
        "cpu_steal_share",
        steal_after.0.saturating_sub(steal_before.0) as f64 / total as f64,
    );
    record.num("run_s", started.elapsed().as_secs_f64());
    println!("run_record {}", record.finish());
    println!("{result}");
    Ok(code)
}

/// Nearest-rank percentile of sorted samples, with the number of samples
/// strictly beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// A flat JSON object built in insertion order.
#[derive(Default)]
pub struct Record {
    body: String,
}

impl Record {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{key}\": ");
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
    }

    pub fn text(&mut self, key: &str, value: &str) {
        self.key(key);
        self.body
            .push_str(&routes_server::Json::from(value).encode());
    }

    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.body.push_str(json);
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics` with a
/// unit per value.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut m = Record::default();
    for (name, value, unit) in metrics {
        let mut one = Record::default();
        one.num("value", *value);
        one.text("unit", unit);
        m.raw(name, &one.finish());
    }
    let mut out = Record::default();
    out.raw("correct", if correct { "true" } else { "false" });
    out.num("attempted", attempted as f64);
    out.num("failed", failed as f64);
    out.raw("metrics", &m.finish());
    out.finish()
}

/// Per-kind latency percentiles (ms) under each kind's own name for the
/// run record, and the workload's light/heavy roles as the gated metrics.
fn end_to_end(w: &Workload, e: &e2e::E2e, record: &mut Record) -> (String, i32) {
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for s in &e.samples {
        by_kind.entry(s.kind).or_default().push(s.latency_s * 1e3);
    }
    let by_kind: BTreeMap<Kind, Vec<f64>> =
        by_kind.into_iter().map(|(k, v)| (k, sorted(v))).collect();
    let mut tails_ok = true;
    let mut named = Record::default();
    let mut counts = Record::default();
    for (kind, ms) in &by_kind {
        counts.num(kind.name(), ms.len() as f64);
        let (p50, _) = percentile(ms, 0.5);
        named.num(&format!("{}_p50_ms", kind.name()), p50);
        let tail = match kind {
            Kind::OneRoute | Kind::Stitch => Some((0.99, "p99")),
            Kind::AllRoutes | Kind::Edit | Kind::Create => Some((0.90, "p90")),
            Kind::Delete | Kind::Scrape => None,
        };
        if let Some((p, label)) = tail {
            let (value, beyond) = percentile(ms, p);
            named.num(&format!("{}_{label}_ms", kind.name()), value);
            tails_ok &= beyond >= 10;
        }
    }
    let timed = e.samples.len();
    let failed_timed = e.samples.iter().filter(|s| !s.ok).count();
    let failed = failed_timed + e.setup_failures;
    let attempted = timed + e2e::SETUPS * w.setup.len();
    let latency_sum: f64 = e.samples.iter().map(|s| s.latency_s).sum();
    record.raw("samples", &counts.finish());
    record.raw("metrics_by_kind", &named.finish());
    record.raw(
        "setup_s_each",
        &format!(
            "[{}]",
            e.setup_s
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    record.num("failed_share", failed as f64 / attempted as f64);
    if let Some(err) = &e.first_error {
        record.text("first_error", err);
    }
    record.raw(
        "tails_have_10_beyond",
        if tails_ok { "true" } else { "false" },
    );

    let role = |kind: Kind, p: f64| {
        by_kind
            .get(&kind)
            .map_or(f64::NAN, |ms| percentile(ms, p).0)
    };
    let metrics = [
        (
            "setup_s",
            percentile(&sorted(e.setup_s.clone()), 0.5).0,
            "s",
        ),
        ("ops_per_s", timed as f64 / latency_sum, "1/s"),
        ("light_p50_ms", role(w.light, 0.5), "ms"),
        ("heavy_p50_ms", role(w.heavy, 0.5), "ms"),
        ("heavy_p90_ms", role(w.heavy, 0.90), "ms"),
        ("peak_rss_mb", e.peak_rss_mb, "MB"),
        ("cpu_ms_per_op", e.cpu_ms / timed as f64, "ms"),
    ];
    let correct = failed == 0 && tails_ok;
    (
        result_line(correct, attempted, failed, &metrics),
        if correct { 0 } else { 1 },
    )
}
