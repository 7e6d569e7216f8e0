//! Seeded workload generation: scenario texts, the fixed op lists, and the
//! in-process reference answers every op is checked against.
//!
//! Everything here is a pure function of `(workload, seed, seconds)`: the
//! same arguments give byte-identical request bodies and expectations, which
//! is what lets two runs (or two commits) be compared op for op.

use std::collections::HashSet;
use std::fmt::Write as _;

use routes_chase::ChaseOptions;
use routes_cli::PreparedScenario;
use routes_cli::{load_pipeline_str, load_scenario_str, prepare_pipeline, prepare_scenario_with};
use routes_core::{compute_all_routes_with_pool, compute_one_route, RouteEnv};
use routes_gen::{Rng, TpchRows};
use routes_model::{Instance, Schema, TupleId, Value, ValuePool};
use routes_pipeline::{stitch_route, PreparedPipeline};
use routes_pool::Pool;
use routes_server::Json;
use routes_store::{ChaseMode, EditOp, Record};

/// The workloads, in the order the docs describe them.
pub const WORKLOADS: [&str; 3] = ["probe-tpch", "edit-live", "pipeline-churn"];

/// Worker threads of the server and of every in-process pool; a constant
/// (not this machine's parallelism) so every host runs one configuration.
pub const THREADS: usize = 2;

/// `edit-live` sessions. Each follows its own seeded campaign, and a
/// campaign's edit latency depends on which added tgds stay live: with two
/// trajectories one seed's edit p50 read twice another's, with four the
/// p90 still spread by a quarter across seeds; eight average it out.
const EDIT_SESSIONS: usize = 8;
/// Edit batches per session already in the WAL before the timed phase (40
/// records for recovery to replay).
const EDIT_WARM_BATCHES: usize = 5;
/// Fixed all-routes selections (and WAL forest memos) per edit session.
const EDIT_MEMOS: usize = 8;
/// Seed (plus the session index) of the campaigns whose tgd ops every
/// `edit-live` run replays; see `edit_campaign`.
const EDIT_TGD_SCHEDULE: u64 = 0x7D6D_5C4E;
/// Tuples of `U` in each timed `edit-live` one-route probe. A one-tuple
/// probe is ~5 us of server work under a ~65 us loopback round trip, so its
/// p50 followed the host's wake-up latency rather than the program. T and V
/// swing by thousands of rows as campaign tgds come and go, so a probe
/// over them costs what each seed's trajectory makes it; U is written by
/// the `ex` tgd alone and stays near one row per source node.
const EDIT_PROBE_TUPLES: usize = 16;

/// What one op does; also the unit a percentile is taken over (never two
/// kinds pooled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    OneRoute,
    AllRoutes,
    Edit,
    Create,
    Stitch,
    Delete,
    Scrape,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::OneRoute,
        Kind::AllRoutes,
        Kind::Edit,
        Kind::Create,
        Kind::Stitch,
        Kind::Delete,
        Kind::Scrape,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OneRoute => "one_route",
            Kind::AllRoutes => "all_routes",
            Kind::Edit => "edit",
            Kind::Create => "create",
            Kind::Stitch => "stitch",
            Kind::Delete => "delete",
            Kind::Scrape => "scrape",
        }
    }
}

/// The reference answer an op's response must match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// one-route / stitched-route: `found`, and `validated` when found.
    Route {
        found: bool,
    },
    /// all-routes: forest shape.
    Forest {
        nodes: usize,
        branches: usize,
    },
    /// edit: the post-batch sequence number and solution size.
    Edit {
        seq: u64,
        target_tuples: usize,
    },
    /// create: assigned id, solution size, and (pipelines) core size.
    Create {
        session: u64,
        target_tuples: usize,
        core_after: Option<usize>,
    },
    Deleted,
    Scrape,
}

/// One request of a workload, fixed before the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub method: &'static str,
    pub path: String,
    pub body: String,
    pub expect: Expect,
}

impl Op {
    fn post(kind: Kind, path: String, body: String, expect: Expect) -> Op {
        Op {
            kind,
            method: "POST",
            path,
            body,
            expect,
        }
    }

    fn scrape() -> Op {
        Op {
            kind: Kind::Scrape,
            method: "GET",
            path: "/metrics?format=prometheus".to_owned(),
            body: String::new(),
            expect: Expect::Scrape,
        }
    }

    /// The exact request bytes sent on the wire.
    pub fn request_bytes(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\nhost: bench\r\n", self.method, self.path);
        if !self.body.is_empty() {
            let _ = write!(
                out,
                "content-type: application/json\r\ncontent-length: {}\r\n",
                self.body.len()
            );
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// A generated workload: what set-up sends (or pre-writes), then the timed
/// op list.
pub struct Workload {
    pub name: &'static str,
    /// Whether `spiderd` runs with `--data-dir`.
    pub data_dir: bool,
    /// WAL records written into a fresh data dir before launch.
    pub wal: Vec<Record>,
    /// Ops sent during set-up, after launch (creates, warm-up probes).
    pub setup: Vec<Op>,
    /// The timed ops, in order.
    pub timed: Vec<Op>,
    /// The op kind reported as `light_*` (p50/p99) and as `heavy_*`
    /// (p50/p90).
    pub light: Kind,
    pub heavy: Kind,
}

impl Workload {
    pub fn all_ops(&self) -> impl Iterator<Item = &Op> {
        self.setup.iter().chain(&self.timed)
    }
}

/// Generate a workload from its seed. The timed list's length scales with
/// `seconds` (ops per second the program sustained on a 2-vCPU host,
/// with floors that guarantee the sample counts), and depends only on the
/// arguments, never on how fast the program answers.
pub fn generate(name: &str, seed: u64, seconds: u64) -> Result<Workload, String> {
    match name {
        "probe-tpch" => Ok(probe_tpch(seed, seconds)),
        "edit-live" => Ok(edit_live(seed, seconds)),
        "pipeline-churn" => Ok(pipeline_churn(seed, seconds)),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

fn scenario_body(text: &str) -> String {
    Json::obj([("scenario", Json::from(text))]).encode()
}

fn selection_body(target: &Schema, tuples: &[TupleId]) -> String {
    let items = tuples
        .iter()
        .map(|t| {
            Json::obj([
                ("relation", Json::from(target.relation(t.rel).name())),
                ("row", Json::from(t.row)),
            ])
        })
        .collect();
    Json::obj([("tuples", Json::Array(items))]).encode()
}

fn edit_body(ops: &[EditOp]) -> String {
    let items = ops
        .iter()
        .map(|op| match op {
            EditOp::InsertTuple { line } => Json::obj([
                ("op", Json::from("insert_tuple")),
                ("line", Json::from(line.as_str())),
            ]),
            EditOp::DeleteTuple { relation, row } => Json::obj([
                ("op", Json::from("delete_tuple")),
                ("relation", Json::from(relation.as_str())),
                ("row", Json::from(*row)),
            ]),
            EditOp::AddTgd { line } => Json::obj([
                ("op", Json::from("add_tgd")),
                ("line", Json::from(line.as_str())),
            ]),
            EditOp::DropTgd { name } => Json::obj([
                ("op", Json::from("drop_tgd")),
                ("name", Json::from(name.as_str())),
            ]),
        })
        .collect();
    Json::obj([("ops", Json::Array(items))]).encode()
}

fn render_schema(out: &mut String, indent: &str, schema: &Schema) {
    for (_, rel) in schema.iter() {
        let _ = writeln!(out, "{indent}{}({})", rel.name(), rel.attrs().join(", "));
    }
}

fn render_data(out: &mut String, schema: &Schema, inst: &Instance, pool: &ValuePool) {
    for (rel_id, rel) in schema.iter() {
        for (_, values) in inst.rel_tuples(rel_id) {
            let rendered: Vec<String> = values
                .iter()
                .map(|v| match v {
                    Value::Int(n) => n.to_string(),
                    Value::Str(s) => format!("'{}'", pool.resolve(*s)),
                    Value::Null(n) => pool.null_label(*n).to_owned(),
                })
                .collect();
            let _ = writeln!(out, "  {}({})", rel.name(), rendered.join(", "));
        }
    }
}

/// Loader text for a generated flat scenario.
fn relational_text(sc: &routes_gen::Scenario) -> String {
    let m = &sc.mapping;
    let mut out = String::from("source schema:\n");
    render_schema(&mut out, "  ", m.source());
    out.push_str("target schema:\n");
    render_schema(&mut out, "  ", m.target());
    out.push_str("dependencies:\n");
    for tgd in m.st_tgds() {
        let _ = writeln!(
            out,
            "  {}",
            routes_mapping::tgd_to_string(&sc.pool, m.source(), m.target(), tgd)
        );
    }
    for tgd in m.target_tgds() {
        let _ = writeln!(
            out,
            "  {}",
            routes_mapping::tgd_to_string(&sc.pool, m.target(), m.target(), tgd)
        );
    }
    out.push_str("source data:\n");
    render_data(&mut out, m.source(), &sc.source, &sc.pool);
    out
}

/// Loader text for a generated pipeline (`core: on`).
fn pipeline_text(sc: &routes_gen::PipelineScenario) -> String {
    let mut out = String::from("pipeline:\n  core: on\n");
    for stage in sc.pipeline.stages() {
        let m = &stage.mapping;
        let _ = writeln!(out, "stage {}:", stage.name);
        out.push_str("  source schema:\n");
        render_schema(&mut out, "    ", m.source());
        out.push_str("  target schema:\n");
        render_schema(&mut out, "    ", m.target());
        out.push_str("  dependencies:\n");
        for tgd in m.st_tgds() {
            let _ = writeln!(
                out,
                "    {}",
                routes_mapping::tgd_to_string(&sc.pool, m.source(), m.target(), tgd)
            );
        }
    }
    out.push_str("source data:\n");
    let first = sc.pipeline.stages()[0].mapping.source();
    render_data(&mut out, first, &sc.source, &sc.pool);
    out
}

/// Prepare flat loader text exactly as `POST /sessions` does.
pub fn prepare_flat(text: &str, pool: &Pool) -> PreparedScenario {
    let loaded = load_scenario_str(text).expect("generated scenario text loads");
    prepare_scenario_with(loaded, ChaseOptions::fresh(), pool).expect("generated scenario chases")
}

/// Prepare pipeline loader text exactly as `POST /sessions` does.
pub fn prepare_chain(text: &str, pool: &Pool) -> (PreparedScenario, PreparedPipeline) {
    let loaded = load_pipeline_str(text).expect("generated pipeline text loads");
    prepare_pipeline(loaded, ChaseOptions::fresh(), pool).expect("generated pipeline chases")
}

fn env(p: &PreparedScenario) -> RouteEnv<'_> {
    RouteEnv::new(&p.mapping, &p.source, &p.target)
}

fn expect_one_route(p: &PreparedScenario, sel: &[TupleId]) -> Expect {
    Expect::Route {
        found: compute_one_route(env(p), sel).is_ok(),
    }
}

fn expect_forest(p: &PreparedScenario, sel: &[TupleId], pool: &Pool) -> Expect {
    let mut key = sel.to_vec();
    key.sort_unstable_by_key(|t| (t.rel.0, t.row));
    key.dedup();
    let forest = compute_all_routes_with_pool(env(p), &key, pool);
    Expect::Forest {
        nodes: forest.order.len(),
        branches: forest.num_branches(),
    }
}

/// `n` distinct tuples drawn uniformly from the rows of `rels`.
fn pick_tuples(
    rng: &mut Rng,
    inst: &Instance,
    rels: &[routes_model::RelId],
    n: usize,
) -> Vec<TupleId> {
    let total: u64 = rels.iter().map(|&r| u64::from(inst.rel_len(r))).sum();
    assert!(total > 0, "selection relations are populated");
    let n = n.min(total as usize);
    let mut picked: Vec<TupleId> = Vec::with_capacity(n);
    while picked.len() < n {
        let mut k = rng.gen_range(0..total);
        for &rel in rels {
            let len = u64::from(inst.rel_len(rel));
            if k < len {
                let t = TupleId { rel, row: k as u32 };
                if !picked.contains(&t) {
                    picked.push(t);
                }
                break;
            }
            k -= len;
        }
    }
    picked
}

fn session_path(id: u64, action: &str) -> String {
    format!("/sessions/{id}/{action}")
}

/// `probe-tpch`: the paper's Figure 10 probes as a service. M0–M3 at SF
/// 0.001; blocks of 50 timed ops hold exactly 44 one-route, 5 all-routes
/// and 1 scrape, so the mix (and thus `ops_per_s`) does not vary by seed.
fn probe_tpch(seed: u64, seconds: u64) -> Workload {
    const BLOCK: usize = 50;
    const ALL_ROUTES_PER_BLOCK: usize = 5;
    let pool = Pool::new(THREADS);
    let rows = TpchRows::scale(0.001);
    let mut setup = Vec::new();
    let mut sessions = Vec::new();
    for joins in 0..4 {
        let rs = routes_gen::relational_scenario(joins, &rows, seed);
        let text = relational_text(&rs.scenario);
        let prepared = prepare_flat(&text, &pool);
        // Group relations by name, resolved in the loaded schema.
        let groups: Vec<Vec<routes_model::RelId>> = rs
            .target_groups
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|&r| {
                        let name = rs.scenario.mapping.target().relation(r).name();
                        prepared
                            .mapping
                            .target()
                            .rel_id(name)
                            .expect("group relation")
                    })
                    .collect()
            })
            .collect();
        setup.push(Op::post(
            Kind::Create,
            "/sessions".to_owned(),
            scenario_body(&text),
            Expect::Create {
                session: joins as u64 + 1,
                target_tuples: prepared.target.total_tuples(),
                core_after: None,
            },
        ));
        sessions.push((prepared, groups));
    }
    // One warm-up probe per session, so lazy index builds land in set-up.
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 1));
    for (k, (prepared, groups)) in sessions.iter().enumerate() {
        let sel = pick_tuples(&mut rng, &prepared.target, &groups[0], 1);
        setup.push(Op::post(
            Kind::OneRoute,
            session_path(k as u64 + 1, "one-route"),
            selection_body(prepared.mapping.target(), &sel),
            expect_one_route(prepared, &sel),
        ));
    }

    let blocks = (seconds as usize * 3).div_ceil(2).max(24);
    let mut timed = Vec::with_capacity(blocks * BLOCK);
    let mut seen: HashSet<Vec<TupleId>> = HashSet::new();
    let mut all_routes_made = 0usize;
    for _ in 0..blocks {
        let mut kinds = vec![Kind::OneRoute; BLOCK - ALL_ROUTES_PER_BLOCK - 1];
        kinds.extend([Kind::AllRoutes; ALL_ROUTES_PER_BLOCK]);
        kinds.push(Kind::Scrape);
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let op = match kind {
                Kind::OneRoute => {
                    let s = rng.gen_range(0..sessions.len());
                    let group = rng.gen_range(1..=routes_gen::GROUPS);
                    let n = rng.gen_range(1..=20usize);
                    let (prepared, groups) = &sessions[s];
                    let sel = pick_tuples(&mut rng, &prepared.target, &groups[group - 1], n);
                    Op::post(
                        kind,
                        session_path(s as u64 + 1, "one-route"),
                        selection_body(prepared.mapping.target(), &sel),
                        expect_one_route(prepared, &sel),
                    )
                }
                Kind::AllRoutes => {
                    // M1, group 3, 1–5 tuples (cycled, not drawn, so every
                    // seed has the same size mix); never a repeat, so every
                    // probe misses the forest cache.
                    let (prepared, groups) = &sessions[1];
                    let n = all_routes_made % 5 + 1;
                    all_routes_made += 1;
                    let sel = loop {
                        let sel = pick_tuples(&mut rng, &prepared.target, &groups[2], n);
                        let mut key = sel.clone();
                        key.sort_unstable_by_key(|t| (t.rel.0, t.row));
                        if seen.insert(key) {
                            break sel;
                        }
                    };
                    Op::post(
                        kind,
                        session_path(2, "all-routes"),
                        selection_body(prepared.mapping.target(), &sel),
                        expect_forest(prepared, &sel, &pool),
                    )
                }
                _ => Op::scrape(),
            };
            timed.push(op);
        }
    }
    Workload {
        name: "probe-tpch",
        data_dir: false,
        wal: Vec::new(),
        setup,
        timed,
        light: Kind::OneRoute,
        heavy: Kind::AllRoutes,
    }
}

/// The relations an `edit-live` set-up probe draws from (every target
/// relation of the campaign's base scenario).
const EDIT_TARGETS: [&str; 4] = ["T", "W", "V", "U"];

/// `edit-live`: eight campaign sessions recovered from a WAL of creates, 5
/// edit batches each and 8 forest memos each; then rounds of 1 edit, 8
/// one-route probes of the edited session (16 U tuples each) and 1
/// all-routes probe taken round-robin from its 8 memoized selections, with
/// a scrape every other round.
fn edit_live(seed: u64, seconds: u64) -> Workload {
    let pool = Pool::new(THREADS);
    let rounds = (seconds as usize * 22).max(200);
    let steps = rounds.div_ceil(EDIT_SESSIONS);
    let mut wal = Vec::new();
    let mut states = Vec::new();
    let mut campaigns = Vec::new();
    for s in 0..EDIT_SESSIONS as u64 {
        let campaign = edit_campaign(sub_seed(seed, 10 + s), s, EDIT_WARM_BATCHES + steps);
        wal.push(Record::Create {
            id: s + 1,
            chase: ChaseMode::Fresh,
            scenario: campaign.scenario.clone(),
        });
        campaigns.push(campaign);
    }
    for k in 0..EDIT_WARM_BATCHES {
        for (s, campaign) in campaigns.iter().enumerate() {
            wal.push(Record::Edit {
                id: s as u64 + 1,
                seq: k as u64 + 1,
                ops: campaign.batches[k].clone(),
            });
        }
    }
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 20));
    let mut memos: Vec<Vec<Vec<TupleId>>> = Vec::new();
    for (s, campaign) in campaigns.iter().enumerate() {
        let mut text = campaign.scenario.clone();
        for batch in &campaign.batches[..EDIT_WARM_BATCHES] {
            text = routes_incr::apply_edits(&text, batch)
                .expect("campaign batches apply")
                .0;
        }
        let prepared = prepare_flat(&text, &pool);
        // Memo selections: one low row each of T, V and U. Added and
        // dropped tgds swing T and V by thousands of rows, but their base
        // rows (the `j`, `cp` and `ex` tgds) only ever shrink by the few
        // deletes a campaign makes, so these rows stay in range (checked
        // every round).
        let target = prepared.mapping.target();
        let mut sels = Vec::new();
        for k in 0..EDIT_MEMOS {
            let (name, rows) = [("T", 64), ("V", 16), ("U", 64)][k % 3];
            let rel = target.rel_id(name).expect("campaign relation");
            let row = rng.gen_range(0..rows);
            let t = TupleId { rel, row };
            wal.push(Record::Forest {
                id: s as u64 + 1,
                selection: vec![(t.rel.0, t.row)],
            });
            sels.push(vec![t]);
        }
        memos.push(sels);
        states.push((text, prepared));
    }
    let mut setup = Vec::new();
    for (s, (_, prepared)) in states.iter().enumerate() {
        let sel = pick_tuples(&mut rng, &prepared.target, &edit_rels(prepared), 1);
        setup.push(Op::post(
            Kind::OneRoute,
            session_path(s as u64 + 1, "one-route"),
            selection_body(prepared.mapping.target(), &sel),
            expect_one_route(prepared, &sel),
        ));
    }

    // The sessions' trajectories are independent: simulate them in
    // parallel.
    let sessions: Vec<usize> = (0..EDIT_SESSIONS).collect();
    let per_session: Vec<Vec<Vec<Op>>> = pool.par_map_items(&sessions, 1, |&s| {
        session_rounds(seed, s, &campaigns[s], &memos[s], &states[s].0, steps)
    });
    let mut timed = Vec::new();
    for round in 0..rounds {
        let s = round % EDIT_SESSIONS;
        timed.extend(per_session[s][round / EDIT_SESSIONS].iter().cloned());
        if round % 2 == 1 {
            timed.push(Op::scrape());
        }
    }
    Workload {
        name: "edit-live",
        data_dir: true,
        wal,
        setup,
        timed,
        light: Kind::OneRoute,
        heavy: Kind::Edit,
    }
}

/// Session `s`'s campaign: `sized_edit_campaign(seed, 256, 16, batches, 4)`
/// with its tgd ops replaced by those of session `s`'s fixed schedule, at
/// the schedule's positions. Its tuple ops stay the seeded campaign's, in
/// order, so every delete still names a live row (a campaign's row
/// bookkeeping covers source tuples only). An added `S(x, y) -> T(y, x)`
/// copies all 4096 S rows into T, so while it is live a session's edits
/// cost ~3× more; left to the seed, the share of edits made in that state
/// ranged 0.3–0.55 over fifteen seeds and raised one seed's edit p50 by
/// 40 %. With the fixed schedule it is 0.41 on every seed.
fn edit_campaign(seed: u64, s: u64, batches: usize) -> routes_gen::EditCampaign {
    let schedule = routes_gen::sized_edit_campaign(EDIT_TGD_SCHEDULE + s, 256, 16, batches, 4);
    // Twice the batches: about three ops in four are tuple ops.
    let seeded = routes_gen::sized_edit_campaign(seed, 256, 16, 2 * batches, 4);
    let mut tuple_ops = seeded
        .batches
        .into_iter()
        .flatten()
        .filter(|op| matches!(op, EditOp::InsertTuple { .. } | EditOp::DeleteTuple { .. }));
    let batches = schedule
        .batches
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|op| match op {
                    EditOp::AddTgd { .. } | EditOp::DropTgd { .. } => op,
                    _ => tuple_ops
                        .next()
                        .expect("twice the batches hold enough tuple ops"),
                })
                .collect()
        })
        .collect();
    routes_gen::EditCampaign {
        scenario: schedule.scenario,
        batches,
    }
}

/// One edit session's timed rounds: the next campaign batch, then 8
/// one-route probes of the post-edit U rows, then the next memoized
/// all-routes selection.
fn session_rounds(
    seed: u64,
    s: usize,
    campaign: &routes_gen::EditCampaign,
    memos: &[Vec<TupleId>],
    text: &str,
    steps: usize,
) -> Vec<Vec<Op>> {
    let pool = Pool::sequential();
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 21 + s as u64));
    let id = s as u64 + 1;
    let mut text = text.to_owned();
    let mut out = Vec::with_capacity(steps);
    for step in 0..steps {
        let batch = &campaign.batches[EDIT_WARM_BATCHES + step];
        text = routes_incr::apply_edits(&text, batch)
            .expect("campaign batches apply")
            .0;
        let prepared = prepare_flat(&text, &pool);
        let mut ops = vec![Op::post(
            Kind::Edit,
            session_path(id, "edit"),
            edit_body(batch),
            Expect::Edit {
                seq: (EDIT_WARM_BATCHES + step + 1) as u64,
                target_tuples: prepared.target.total_tuples(),
            },
        )];
        let u = prepared
            .mapping
            .target()
            .rel_id("U")
            .expect("campaign relation");
        for _ in 0..8 {
            let sel = pick_tuples(&mut rng, &prepared.target, &[u], EDIT_PROBE_TUPLES);
            ops.push(Op::post(
                Kind::OneRoute,
                session_path(id, "one-route"),
                selection_body(prepared.mapping.target(), &sel),
                expect_one_route(&prepared, &sel),
            ));
        }
        let sel = &memos[step % EDIT_MEMOS];
        assert!(
            sel.iter().all(|t| t.row < prepared.target.rel_len(t.rel)),
            "edit-live seed {seed}: memo selection {sel:?} fell out of range at step {step}"
        );
        ops.push(Op::post(
            Kind::AllRoutes,
            session_path(id, "all-routes"),
            selection_body(prepared.mapping.target(), sel),
            expect_forest(&prepared, sel, &pool),
        ));
        out.push(ops);
    }
    out
}

fn edit_rels(p: &PreparedScenario) -> Vec<routes_model::RelId> {
    EDIT_TARGETS
        .iter()
        .filter_map(|name| p.mapping.target().rel_id(name))
        .filter(|&rel| p.target.rel_len(rel) > 0)
        .collect()
}

/// The expectation of a pipeline create, from the in-process chain.
fn expect_create(session: u64, scenario: &PreparedScenario, chain: &PreparedPipeline) -> Expect {
    Expect::Create {
        session,
        target_tuples: scenario.target.total_tuples(),
        core_after: Some(chain.core_shrink().1),
    }
}

fn expect_stitch(chain: &PreparedPipeline, sel: &[TupleId]) -> Expect {
    Expect::Route {
        found: stitch_route(chain, sel).is_ok(),
    }
}

/// `pipeline-churn`: 4 long-lived 4-hop pipelines in set-up, then blocks
/// of 20 ops: 1 core-mode create (2–4 hops × 128 rows, fresh seed), a
/// delete of the oldest churn session whenever four are live, 1 scrape,
/// and stitched-route probes for the rest.
fn pipeline_churn(seed: u64, seconds: u64) -> Workload {
    const BLOCK: usize = 20;
    let pool = Pool::new(THREADS);
    let mut setup = Vec::new();
    let mut long_lived = Vec::new();
    for k in 0..4u64 {
        let sc = routes_gen::pipeline_scenario(4, 256, sub_seed(seed, 30 + k), true, true);
        let text = pipeline_text(&sc);
        let (scenario, chain) = prepare_chain(&text, &pool);
        setup.push(Op::post(
            Kind::Create,
            "/sessions".to_owned(),
            scenario_body(&text),
            expect_create(k + 1, &scenario, &chain),
        ));
        long_lived.push((scenario, chain));
    }
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 40));
    let stitch_op = |rng: &mut Rng, k: usize| {
        let (scenario, chain) = &long_lived[k];
        let rels: Vec<_> = scenario
            .mapping
            .target()
            .iter()
            .map(|(rel, _)| rel)
            .filter(|&rel| scenario.target.rel_len(rel) > 0)
            .collect();
        let n = rng.gen_range(1..=3usize);
        let sel = pick_tuples(rng, &scenario.target, &rels, n);
        Op::post(
            Kind::Stitch,
            session_path(k as u64 + 1, "stitched-route"),
            selection_body(scenario.mapping.target(), &sel),
            expect_stitch(chain, &sel),
        )
    };
    for k in 0..long_lived.len() {
        setup.push(stitch_op(&mut rng, k));
    }

    // Creates are the expensive reference: fan them out over the pool.
    let blocks = (seconds as usize * 11).max(110);
    // Hop counts cycle 2, 3, 4 rather than being drawn, so every seed has
    // the same size mix and the percentiles do not move with the draw.
    let first_churn = long_lived.len() as u64 + 1;
    let create_specs: Vec<(u64, usize, u64)> = (0..blocks)
        .map(|k| (first_churn + k as u64, 2 + k % 3, rng.next_u64()))
        .collect();
    let creates: Vec<Op> = pool.par_map_items(&create_specs, 1, |&(id, hops, s)| {
        let sc = routes_gen::pipeline_scenario(hops, 128, s, true, true);
        let text = pipeline_text(&sc);
        let (scenario, chain) = prepare_chain(&text, &Pool::sequential());
        Op::post(
            Kind::Create,
            "/sessions".to_owned(),
            scenario_body(&text),
            expect_create(id, &scenario, &chain),
        )
    });
    let mut timed = Vec::with_capacity(blocks * BLOCK);
    let mut live: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    for (id, create) in (first_churn..).zip(creates) {
        let mut block = vec![create];
        live.push_back(id);
        if live.len() == 4 {
            let oldest = live.pop_front().expect("four live");
            block.push(Op {
                kind: Kind::Delete,
                method: "DELETE",
                path: format!("/sessions/{oldest}"),
                body: String::new(),
                expect: Expect::Deleted,
            });
        }
        block.push(Op::scrape());
        while block.len() < BLOCK {
            let k = rng.gen_range(0..long_lived.len());
            block.push(stitch_op(&mut rng, k));
        }
        // The create stays first, so deletes always name a live session.
        rng.shuffle(&mut block[1..]);
        timed.extend(block);
    }
    Workload {
        name: "pipeline-churn",
        data_dir: true,
        wal: Vec::new(),
        setup,
        timed,
        light: Kind::Stitch,
        heavy: Kind::Create,
    }
}
