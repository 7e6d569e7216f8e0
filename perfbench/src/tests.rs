//! The benchmark's own tests: seed determinism, and that a wrong answer
//! (or a wrong expectation) makes a run fail.

use crate::check::{check, members};
use crate::e2e::{E2e, Sample};
use crate::gen::{generate, Expect, Kind, Op, Workload, WORKLOADS};

fn fingerprint(w: &Workload) -> (Vec<Op>, Vec<Op>, String) {
    (w.setup.clone(), w.timed.clone(), format!("{:?}", w.wal))
}

/// Generating a workload twice from one seed gives byte-identical scenario
/// texts and op lists; another seed gives different ones. A claim can then
/// be re-checked on a seed nobody used while writing the change.
#[test]
fn workloads_are_pinned_to_their_seed() {
    for name in WORKLOADS {
        let a = fingerprint(&generate(name, 5, 1).expect("known workload"));
        let b = fingerprint(&generate(name, 5, 1).expect("known workload"));
        assert!(a == b, "{name}: one seed gave two different workloads");
        let c = fingerprint(&generate(name, 6, 1).expect("known workload"));
        assert!(a.1 != c.1, "{name}: two seeds gave the same op list");
        assert!(
            a.0 != c.0 || a.2 != c.2,
            "{name}: two seeds gave the same scenario texts"
        );
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(generate("no-such-workload", 1, 1).is_err());
}

fn op(kind: Kind, expect: Expect) -> Op {
    Op {
        kind,
        method: "POST",
        path: "/sessions/1/x".to_owned(),
        body: String::new(),
        expect,
    }
}

#[test]
fn members_skip_nested_values_and_escapes() {
    let text = r#"{"a": "x\"}y", "b": [1, {"c": 2}], "d": {"e": [3]}, "n": 12}"#;
    let fields = members(text).expect("an object");
    let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, ["a", "b", "d", "n"]);
    assert_eq!(fields[3].1, "12");
    assert_eq!(fields[2].1, r#"{"e": [3]}"#);
    assert!(members("[1, 2]").is_none());
}

#[test]
fn answers_are_checked_against_the_reference() {
    let forest = op(
        Kind::AllRoutes,
        Expect::Forest {
            nodes: 3,
            branches: 4,
        },
    );
    let good = br#"{"cached": false, "num_nodes": 3, "num_branches": 4, "nodes": []}"#;
    assert!(check(&forest, 200, good).is_ok());
    let wrong = br#"{"cached": false, "num_nodes": 3, "num_branches": 5, "nodes": []}"#;
    assert!(check(&forest, 200, wrong).is_err());
    assert!(check(&forest, 422, good).is_err(), "unexpected status");

    let route = op(Kind::OneRoute, Expect::Route { found: true });
    assert!(check(&route, 200, br#"{"found": true, "validated": true}"#).is_ok());
    assert!(check(&route, 200, br#"{"found": true, "validated": false}"#).is_err());
    assert!(check(&route, 200, br#"{"found": false}"#).is_err());

    let create = op(
        Kind::Create,
        Expect::Create {
            session: 5,
            target_tuples: 10,
            core_after: Some(7),
        },
    );
    let body = br#"{"session": 5, "target_tuples": 10, "pipeline": {"core_tuples_after": 7}}"#;
    assert!(check(&create, 201, body).is_ok());
    assert!(check(&create, 200, body).is_err(), "creates answer 201");
    let shrunk = br#"{"session": 5, "target_tuples": 10, "pipeline": {"core_tuples_after": 8}}"#;
    assert!(check(&create, 201, shrunk).is_err());

    let edit = op(
        Kind::Edit,
        Expect::Edit {
            seq: 21,
            target_tuples: 9,
        },
    );
    assert!(check(&edit, 200, br#"{"edit_seq": 21, "target_tuples": 9}"#).is_ok());
    assert!(check(&edit, 200, br#"{"edit_seq": 22, "target_tuples": 9}"#).is_err());
}

/// A run with one failed answer prints `"correct": false`, counts the
/// failure, and exits non-zero.
#[test]
fn a_failed_answer_fails_the_command() {
    let w = generate("probe-tpch", 3, 1).expect("known workload");
    let run = |failing: bool| {
        let samples = w
            .timed
            .iter()
            .enumerate()
            .map(|(i, op)| Sample {
                kind: op.kind,
                latency_s: 1e-3 * (1.0 + i as f64 / 1e3),
                ok: !(failing && i == 7),
            })
            .collect();
        let e = E2e {
            setup_s: vec![1.0, 1.1, 1.2],
            samples,
            peak_rss_mb: 100.0,
            cpu_ms: 500.0,
            setup_failures: 0,
            first_error: None,
        };
        crate::end_to_end(&w, &e, &mut crate::Record::default())
    };
    let (line, code) = run(false);
    assert_eq!(code, 0);
    assert!(line.starts_with(r#"{"correct": true"#), "{line}");
    let (line, code) = run(true);
    assert_ne!(code, 0);
    assert!(line.starts_with(r#"{"correct": false"#), "{line}");
    assert!(line.contains(r#""failed": 1"#), "{line}");
}

/// A body over the server's 1 MiB limit is refused before launch, naming
/// the workload, instead of answering 413 mid-run.
#[test]
fn oversized_bodies_are_refused_before_launch() {
    let mut w = generate("edit-live", 1, 1).expect("known workload");
    assert!(crate::guard_sizes(&w).is_ok());
    w.timed[3].body = "x".repeat(routes_server::http::MAX_BODY + 1);
    let err = crate::guard_sizes(&w).expect_err("oversized body");
    assert!(err.contains("edit-live"), "{err}");
}
