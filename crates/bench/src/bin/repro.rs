//! Reproduce the paper's evaluation: prints each figure/table's series and
//! writes CSVs under `bench_results/`.
//!
//! ```text
//! repro [all|fig10a|fig10b|fig10c|fig10d|flat|fig11|table1|micro] [--factor F]
//! repro micro parallel [--quick]
//! repro micro sessions [--quick]
//! repro micro persist [--quick]
//! repro micro obs [--quick]
//! repro micro edit [--quick]
//! repro micro join [--quick]
//! repro micro http [--quick]
//! repro micro pipeline [--quick]
//! repro micro prof [--quick]
//! ```
//!
//! `--factor` scales the paper-equivalent instance sizes (default 0.1; use
//! 1.0 for full paper-scale instances — slow). `micro` runs the
//! fixed-small-scale micro-benchmarks (the retired criterion harnesses) and
//! is not part of `all`; it ignores `--factor`. `micro parallel` runs the
//! thread-scaling sweep (chase + all-routes at 1/2/4/N worker threads) and
//! writes `bench_results/micro_parallel.csv`; `micro sessions` runs the
//! session-store shard-scaling sweep (8 driver threads against 1/2/4/8
//! shards) and writes `bench_results/micro_sessions.csv`; `micro persist`
//! runs the WAL fsync-batch sweep (append throughput and recovery time at
//! 1/8/64/512 records per fsync) and writes
//! `bench_results/micro_persist.csv`; `micro obs` measures tracing
//! overhead on the get-session hot path (off vs on vs slow-log) and
//! writes `bench_results/micro_obs.csv`; `micro edit` compares the
//! incremental delta-chase against a full re-chase over a pinned edit
//! campaign and writes `bench_results/micro_edit.csv`; `micro join` sweeps
//! the vectorized batch executor against the row-at-a-time `MatchIter` at
//! batch sizes 1/64/1024 over the TPC-H, hierarchy, and random generators
//! and writes `bench_results/micro_join.csv`; `micro http` saturates a
//! small-capacity `spiderd` with closed-loop clients through the real
//! socket path (accept, admission queue, probe, response) and writes
//! `bench_results/micro_http.csv`; `micro pipeline` chases a
//! redundancy-heavy mapping chain at increasing hop counts with core
//! minimization off and on, stitches end-to-end routes for a pinned probe
//! set, and writes `bench_results/micro_pipeline.csv`; `--quick` shrinks
//! any of them to a CI smoke run and writes its CSV under
//! `target/bench-smoke/` instead, so smoke runs never overwrite the
//! committed full-run results in `bench_results/`.

use std::path::Path;

use routes_bench::{
    edit_benches, fig10a, fig10b, fig10c, fig10d, fig11, flat_hierarchy, http_benches,
    join_benches, micro_benches, obs_benches, parallel_benches, persist_benches, pipeline_benches,
    prof_benches, session_benches, table1, Sizing, Table,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positionals: Vec<String> = Vec::new();
    let mut sizing = Sizing::default();
    let mut quick = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--factor" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| usage("--factor requires a number"));
                sizing.factor = v;
            }
            "--quick" => quick = true,
            name if !name.starts_with('-') => positionals.push(name.to_owned()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let which = match positionals.as_slice() {
        [] => "all".to_owned(),
        [one] => one.clone(),
        [a, b] if a == "micro" && b == "parallel" => "micro-parallel".to_owned(),
        [a, b] if a == "micro" && b == "sessions" => "micro-sessions".to_owned(),
        [a, b] if a == "micro" && b == "persist" => "micro-persist".to_owned(),
        [a, b] if a == "micro" && b == "obs" => "micro-obs".to_owned(),
        [a, b] if a == "micro" && b == "edit" => "micro-edit".to_owned(),
        [a, b] if a == "micro" && b == "join" => "micro-join".to_owned(),
        [a, b] if a == "micro" && b == "http" => "micro-http".to_owned(),
        [a, b] if a == "micro" && b == "pipeline" => "micro-pipeline".to_owned(),
        [a, b] if a == "micro" && b == "prof" => "micro-prof".to_owned(),
        _ => usage("too many experiment names"),
    };

    let out_dir = Path::new(if quick {
        "target/bench-smoke"
    } else {
        "bench_results"
    });
    let run = |name: &str| which == "all" || which == name;
    let mut ran = false;

    let emit = |name: &str, tables: Vec<Table>| {
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.to_text());
            let suffix = if tables.len() > 1 {
                format!("{name}_{i}")
            } else {
                name.to_owned()
            };
            if let Err(e) = t.save_csv(out_dir, &suffix) {
                eprintln!("warning: could not write {suffix}.csv: {e}");
            }
        }
    };

    println!(
        "Reproducing 'Debugging Schema Mappings with Routes' (VLDB 2006) — size factor {}\n",
        sizing.factor
    );
    if run("fig10a") {
        eprintln!("running fig10a ...");
        emit("fig10a", vec![fig10a(&sizing)]);
        ran = true;
    }
    if run("fig10b") {
        eprintln!("running fig10b ...");
        emit("fig10b", vec![fig10b(&sizing)]);
        ran = true;
    }
    if run("fig10c") {
        eprintln!("running fig10c ...");
        emit("fig10c", vec![fig10c(&sizing)]);
        ran = true;
    }
    if run("fig10d") {
        eprintln!("running fig10d ...");
        emit("fig10d", vec![fig10d(&sizing)]);
        ran = true;
    }
    if run("flat") {
        eprintln!("running flat-hierarchy ...");
        emit("flat", flat_hierarchy(&sizing));
        ran = true;
    }
    if run("fig11") {
        eprintln!("running fig11 ...");
        emit("fig11", vec![fig11(&sizing)]);
        ran = true;
    }
    if run("table1") {
        eprintln!("running table1 ...");
        emit("table1", table1(&sizing));
        ran = true;
    }
    if which == "micro" {
        eprintln!("running micro-benchmarks ...");
        for t in micro_benches() {
            let name = t.title.clone();
            emit(&name, vec![t]);
        }
        ran = true;
    }
    if which == "micro-parallel" {
        eprintln!(
            "running thread-scaling micro-benchmarks{} ...",
            if quick { " (quick)" } else { "" }
        );
        let t = parallel_benches(quick);
        let name = t.title.clone();
        emit(&name, vec![t]);
        ran = true;
    }
    if which == "micro-sessions" {
        eprintln!(
            "running session-store shard-scaling micro-benchmarks{} ...",
            if quick { " (quick)" } else { "" }
        );
        let t = session_benches(quick);
        let name = t.title.clone();
        emit(&name, vec![t]);
        ran = true;
    }
    if which == "micro-persist" {
        eprintln!(
            "running WAL fsync-batch micro-benchmarks{} ...",
            if quick { " (quick)" } else { "" }
        );
        let t = persist_benches(quick);
        let name = t.title.clone();
        emit(&name, vec![t]);
        ran = true;
    }
    if which == "micro-obs" {
        eprintln!(
            "running tracing-overhead micro-benchmarks{} ...",
            if quick { " (quick)" } else { "" }
        );
        let t = obs_benches(quick);
        let name = t.title.clone();
        emit(&name, vec![t]);
        ran = true;
    }
    if which == "micro-edit" {
        eprintln!(
            "running incremental-edit micro-benchmarks{} ...",
            if quick { " (quick)" } else { "" }
        );
        let t = edit_benches(quick);
        let name = t.title.clone();
        emit(&name, vec![t]);
        ran = true;
    }
    if which == "micro-join" {
        eprintln!(
            "running vectorized-join micro-benchmarks{} ...",
            if quick { " (quick)" } else { "" }
        );
        let t = join_benches(quick);
        let name = t.title.clone();
        emit(&name, vec![t]);
        ran = true;
    }
    if which == "micro-http" {
        eprintln!(
            "running HTTP saturation micro-benchmarks{} ...",
            if quick { " (quick)" } else { "" }
        );
        let t = http_benches(quick);
        let name = t.title.clone();
        emit(&name, vec![t]);
        ran = true;
    }
    if which == "micro-pipeline" {
        eprintln!(
            "running pipeline stitching micro-benchmarks{} ...",
            if quick { " (quick)" } else { "" }
        );
        let t = pipeline_benches(quick);
        let name = t.title.clone();
        emit(&name, vec![t]);
        ran = true;
    }
    if which == "micro-prof" {
        eprintln!(
            "running self-profiler micro-benchmarks{} ...",
            if quick { " (quick)" } else { "" }
        );
        let t = prof_benches(quick);
        let name = t.title.clone();
        emit(&name, vec![t]);
        ran = true;
    }
    if !ran {
        usage(&format!("unknown experiment `{which}`"));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [all|fig10a|fig10b|fig10c|fig10d|flat|fig11|table1|micro] [--factor F]\n\
         \u{20}      repro micro parallel [--quick]\n\
         \u{20}      repro micro sessions [--quick]\n\
         \u{20}      repro micro persist [--quick]\n\
         \u{20}      repro micro obs [--quick]\n\
         \u{20}      repro micro edit [--quick]\n\
         \u{20}      repro micro join [--quick]\n\
         \u{20}      repro micro http [--quick]\n\
         \u{20}      repro micro pipeline [--quick]\n\
         \u{20}      repro micro prof [--quick]"
    );
    std::process::exit(2);
}
