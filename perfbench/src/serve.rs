//! `ide_serve`: the serving path under an interactive IDE mix.
//!
//! An in-process `panda-serve` runs with the production telemetry
//! defaults and a durable state directory. Sessions are created over the
//! wire; then a closed loop of keep-alive clients sends the seeded
//! read/edit mix to each session in turn. Afterwards a library-only
//! replica of each session replays its edits in the order the server
//! applied them, and every wire `/match` score must equal the replica's
//! `score_pair` bit for bit.

use crate::http::{Client, Response};
use crate::ide::{LibOps, LibTimes, QUERY_LIMIT};
use crate::offline::Counts;
use crate::opmix::{edit_spec, rotation, sub_seed, Op, OpMix, RotationAttrs};
use crate::stats::{self, median, timing_summary, Confusion, Digest};
use crate::trace::{self_seconds_by_name, Tracer};
use crate::{another_setup, out_dir, sysinfo, Outcome, RunArgs};
use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
use panda_serve::api::{
    build_tables, CreateSessionRequest, LfSpec, MatchResponse, SessionConfigDto, SessionResponse,
};
use panda_serve::{Server, ServerConfig, ServerHandle};
use panda_session::PandaSession;
use panda_table::TablePair;
use serde::Value;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sessions served one after another in a run, each on its own generated
/// abt-buy task of `ENTITIES` entities. An edit's cost differs between
/// generated tables by up to 4× (the warm-started refit runs for more EM
/// iterations on some), so a run pools many small sessions: sixteen of
/// 150 entities give about 330 edits a run, where four of 600 gave about
/// 80, whose percentiles spread 15–30% across seeds.
const SESSIONS: u64 = 16;
const ENTITIES: usize = 150;
/// Closed-loop clients (capped at the processor count).
const CLIENTS: usize = 2;
/// A reply slower than this fails its operation.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// `/match` batch size when scoring every candidate for F1.
const F1_BATCH: usize = 512;
/// Keep-alive `/healthz` calls timed in the traced run.
const HEALTHZ_CALLS: usize = 2000;

fn rotation_attrs() -> RotationAttrs {
    RotationAttrs {
        text: "name",
        numeric: "price",
        size: &["name", "description"],
    }
}

/// The LFs the session is created with: the curated abt-buy name LF the
/// wire can express, then the edit rotation. The curated
/// `price_close` is left out: on these tables it votes +1 on most
/// non-matching pairs and drags the served F1 to about 0.35.
fn initial_lfs(rot: &[LfSpec]) -> Vec<LfSpec> {
    let mut lfs = vec![LfSpec {
        name: "name_overlap".into(),
        kind: "similarity".into(),
        attr: Some("name".into()),
        upper: Some(0.6),
        lower: Some(0.1),
        ..Default::default()
    }];
    lfs.extend_from_slice(rot);
    lfs
}

fn create_request(tables: &TablePair) -> CreateSessionRequest {
    let mut gold: Vec<Vec<u32>> = tables
        .gold
        .as_ref()
        .map(|g| g.iter().map(|p| vec![p.left.0, p.right.0]).collect())
        .unwrap_or_default();
    gold.sort();
    CreateSessionRequest {
        left_csv: tables.left.to_csv_string(),
        right_csv: tables.right.to_csv_string(),
        gold: Some(gold),
        config: Some(SessionConfigDto {
            auto_lfs: Some(false),
            ..Default::default()
        }),
    }
}

fn expect_200(what: &str, r: std::io::Result<Response>) -> Result<Response, String> {
    match r {
        Ok(resp) if resp.status == 200 => Ok(resp),
        Ok(resp) => Err(format!("{what}: HTTP {}: {}", resp.status, resp.body)),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// A booted server and its sessions: wire id and candidate count.
struct Served {
    handle: ServerHandle,
    addr: SocketAddr,
    state_dir: PathBuf,
    sessions: Vec<(u64, usize)>,
}

/// Boot a server on a fresh state directory.
fn boot(dir: &Path) -> Result<Served, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let handle = Server::start(ServerConfig {
        // One event loop per processor, as `panda serve` runs by default.
        workers: sysinfo::nproc(),
        state_dir: Some(dir.to_path_buf()),
        // The WAL is appended and fsynced on every op, but the periodic
        // snapshot is off: its fsync, rename and directory fsync took
        // from a few to over a hundred ms depending on the host's disk,
        // which split runs of the same code into two modes whose edit
        // rate differed by 35%.
        snapshot_every: 0,
        ..Default::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    Ok(Served {
        addr: handle.addr(),
        handle,
        state_dir: dir.to_path_buf(),
        sessions: Vec::new(),
    })
}

/// Step 1 over the wire: create the session, add the initial LFs, fit.
/// Returns the wire time in seconds.
fn step1(served: &mut Served, create_body: &str, lfs: &[LfSpec]) -> Result<f64, String> {
    let mut c = Client::connect(served.addr, REPLY_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let t = Instant::now();
    let created = expect_200("create session", c.call("POST", "/sessions", create_body))?;
    let created: SessionResponse =
        serde_json::from_str(&created.body).map_err(|e| format!("create response: {e}"))?;
    let id = created.session;
    for spec in lfs {
        let body = serde_json::to_string(spec).expect("LfSpec serializes");
        expect_200(
            "add LF",
            c.call("POST", &format!("/sessions/{id}/lfs"), &body),
        )?;
    }
    expect_200("fit", c.call("POST", &format!("/sessions/{id}/fit"), ""))?;
    let secs = t.elapsed().as_secs_f64();
    served
        .sessions
        .push((id, created.snapshot.em.candidate_pairs));
    Ok(secs)
}

fn stop(served: Served) {
    served.handle.shutdown();
    served.handle.join();
    let _ = std::fs::remove_dir_all(&served.state_dir);
}

/// The library session the server's should equal: same tables, config
/// and LF calls.
fn replica(req: &CreateSessionRequest, lfs: &[LfSpec]) -> Result<PandaSession, String> {
    let cfg = req.config.clone().unwrap_or_default().resolve()?;
    let mut s = PandaSession::load(build_tables(req)?, cfg);
    for spec in lfs {
        s.upsert_lf_incremental(spec.build()?)?;
    }
    s.fit();
    Ok(s)
}

/// One read as the client saw it. `lo..=hi` bounds the server state
/// versions it may have observed.
struct ReadRec {
    send_ns: u64,
    recv_ns: u64,
    lo: u64,
    hi: u64,
    op: Op,
    scores: Option<Vec<f64>>,
    ok: bool,
}

/// One edit (upsert + fit) as the client saw it.
struct EditRec {
    send_ns: u64,
    recv_ns: u64,
    ok: bool,
    /// Its index in the [`EditLog`]; `None` when it never reached the
    /// server.
    log: Option<usize>,
}

/// Edits in the order the server applied them: rotation index, and
/// whether the upsert and the fit succeeded.
#[derive(Default)]
struct EditLog(Vec<(usize, bool, bool)>);

/// State shared by the clients. Mutation `2k+1` is the upsert of edit
/// `k` and `2k+2` its fit; version 0 is the state after Step 1.
struct Shared {
    epoch: Instant,
    started: AtomicU64,
    completed: AtomicU64,
    edits: Mutex<EditLog>,
}

impl Shared {
    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

struct ClientRun {
    reads: Vec<ReadRec>,
    edits: Vec<EditRec>,
}

fn ok_200(r: &std::io::Result<Response>) -> bool {
    matches!(r, Ok(resp) if resp.status == 200)
}

fn client_loop(
    shared: &Shared,
    addr: SocketAddr,
    session: u64,
    mix: OpMix,
    names: &[String],
    rot: &[LfSpec],
    deadline: Instant,
) -> ClientRun {
    let mut run = ClientRun {
        reads: Vec::new(),
        edits: Vec::new(),
    };
    let mut client = Client::connect(addr, REPLY_TIMEOUT).ok();
    let lfs_path = format!("/sessions/{session}/lfs");
    let fit_path = format!("/sessions/{session}/fit");
    let query_path = format!("/sessions/{session}/query");
    for op in mix {
        if Instant::now() >= deadline {
            break;
        }
        if client.is_none() {
            client = Client::connect(addr, REPLY_TIMEOUT).ok();
        }
        let Some(c) = client.as_mut() else {
            // Could not connect: the op fails without reaching the server.
            let now = shared.ns();
            if op.is_edit() {
                run.edits.push(EditRec {
                    send_ns: now,
                    recv_ns: now,
                    ok: false,
                    log: None,
                });
            } else {
                let v = shared.completed.load(SeqCst);
                run.reads.push(ReadRec {
                    send_ns: now,
                    recv_ns: now,
                    lo: v,
                    hi: v,
                    op,
                    scores: None,
                    ok: false,
                });
            }
            continue;
        };
        let broken;
        match &op {
            Op::Edit => {
                let mut log = shared.edits.lock().expect("edit log lock");
                let k = log.0.len();
                let spec = edit_spec(k);
                let body = serde_json::to_string(&rot[spec]).expect("LfSpec serializes");
                let send_ns = shared.ns();
                let version = 2 * k as u64;
                shared.started.store(version + 1, SeqCst);
                let up = c.call("POST", &lfs_path, &body);
                shared.completed.store(version + 1, SeqCst);
                let up_ok = ok_200(&up);
                shared.started.store(version + 2, SeqCst);
                let fit = if up.is_ok() {
                    c.call("POST", &fit_path, "")
                } else {
                    Err(std::io::Error::other("upsert failed on the socket"))
                };
                shared.completed.store(version + 2, SeqCst);
                let fit_ok = ok_200(&fit);
                broken = up.is_err() || fit.is_err();
                log.0.push((spec, up_ok, fit_ok));
                drop(log);
                run.edits.push(EditRec {
                    send_ns,
                    recv_ns: shared.ns(),
                    ok: up_ok && fit_ok,
                    log: Some(k),
                });
            }
            Op::Match(_) | Op::Query { .. } => {
                let lo = shared.completed.load(SeqCst);
                let send_ns = shared.ns();
                let resp = match &op {
                    Op::Match(pairs) => {
                        let pairs: Vec<Vec<u32>> = pairs.iter().map(|&(l, r)| vec![l, r]).collect();
                        let body = format!(
                            "{{\"session\":{session},\"pairs\":{}}}",
                            serde_json::to_string(&pairs).expect("pairs serialize")
                        );
                        c.call("POST", "/match", &body)
                    }
                    Op::Query { lf, query } => {
                        let body = format!(
                            "{{\"lf\":{},\"query\":\"{query:?}\",\"limit\":{QUERY_LIMIT}}}",
                            serde_json::to_string(&names[*lf]).expect("name serializes")
                        );
                        c.call("POST", &query_path, &body)
                    }
                    Op::Edit => unreachable!(),
                };
                let recv_ns = shared.ns();
                let hi = shared.started.load(SeqCst);
                broken = resp.is_err();
                let ok = ok_200(&resp);
                let scores = match (&op, resp) {
                    (Op::Match(_), Ok(r)) if ok => serde_json::from_str::<MatchResponse>(&r.body)
                        .ok()
                        .map(|m| m.scores),
                    _ => None,
                };
                let ok = ok && (scores.is_some() || !matches!(op, Op::Match(_)));
                run.reads.push(ReadRec {
                    send_ns,
                    recv_ns,
                    lo,
                    hi,
                    op,
                    scores,
                    ok,
                });
            }
        }
        if broken {
            client = None;
        }
    }
    run
}

/// Library-side times of the replay, and whether every wire score
/// matched.
#[derive(Default)]
struct Replay {
    mismatches: u64,
    wall_s: f64,
    lib: LibTimes,
    /// Library time of each edit (upsert + fit), by [`EditLog`] index.
    edit_lib_ms: Vec<f64>,
    /// Library `score_pair` time per `/match` read, by read index.
    read_lib_us: Vec<Option<f64>>,
}

/// Replay the edits on the replica in server order, scoring each read at
/// every state version it may have observed. A read whose scores match
/// none of them is a parity failure.
fn replay(
    session: &mut PandaSession,
    log: &EditLog,
    reads: &[ReadRec],
    names: &[String],
    rot: &[LfSpec],
    tracer: Option<&mut Tracer>,
) -> Replay {
    let mut ops = match tracer {
        Some(tr) => LibOps::traced(tr),
        None => LibOps::default(),
    };
    let started = Instant::now();
    let versions = 2 * log.0.len() as u64;
    let mut by_lo: Vec<Vec<usize>> = vec![Vec::new(); versions as usize + 1];
    for (i, r) in reads.iter().enumerate() {
        if r.ok {
            by_lo[r.lo.min(versions) as usize].push(i);
        }
    }
    let mut out = Replay {
        read_lib_us: vec![None; reads.len()],
        ..Replay::default()
    };
    let mut active: Vec<usize> = Vec::new();
    let mut upsert_ms = 0.0;
    for v in 0..=versions {
        if v > 0 {
            let (spec, up_ok, fit_ok) = log.0[((v - 1) / 2) as usize];
            if v % 2 == 1 {
                upsert_ms = if up_ok {
                    ops.upsert(session, &rot[spec]).expect("replica upsert")
                } else {
                    0.0
                };
            } else {
                let fit_ms = if fit_ok { ops.fit(session) } else { 0.0 };
                out.edit_lib_ms.push(upsert_ms + fit_ms);
            }
        }
        active.extend_from_slice(&by_lo[v as usize]);
        let mut still = Vec::new();
        for i in active.drain(..) {
            let r = &reads[i];
            let first_visit = r.lo.min(versions) == v;
            let matched = match &r.op {
                Op::Match(pairs) => {
                    let (lib, us) = ops.score(session, pairs);
                    if first_visit {
                        out.read_lib_us[i] = Some(us);
                    }
                    let wire = r.scores.as_deref().unwrap_or(&[]);
                    wire.len() == lib.len()
                        && wire
                            .iter()
                            .zip(&lib)
                            .all(|(w, l)| matches!(l, Ok(x) if x.to_bits() == w.to_bits()))
                }
                Op::Query { lf, query } => {
                    if first_visit {
                        ops.query(session, &names[*lf], *query);
                    }
                    true
                }
                Op::Edit => true,
            };
            if !matched {
                if r.hi.min(versions) > v {
                    still.push(i);
                } else {
                    out.mismatches += 1;
                }
            }
        }
        active = still;
    }
    out.mismatches += active.len() as u64;
    out.wall_s = started.elapsed().as_secs_f64();
    out.lib = ops.times;
    out
}

/// Wire latency minus library upsert plus fit of each successful edit,
/// in ms. `lib_ms` is indexed by [`EditLog`] position, which each edit
/// records, so an edit that never reached the server shifts no pairing.
fn edit_overheads(edits: &[EditRec], lib_ms: &[f64]) -> Vec<f64> {
    edits
        .iter()
        .filter(|e| e.ok)
        .filter_map(|e| {
            let lib = lib_ms.get(e.log?)?;
            Some((e.recv_ns - e.send_ns) as f64 / 1e6 - lib)
        })
        .collect()
}

/// Reads whose interval overlapped an in-flight edit, and their
/// latencies in ms.
fn reads_behind_edits(reads: &[ReadRec], edits: &[EditRec]) -> Vec<f64> {
    let mut spans: Vec<(u64, u64)> = edits.iter().map(|e| (e.send_ns, e.recv_ns)).collect();
    spans.sort_unstable();
    reads
        .iter()
        .filter(|r| {
            // Edits starting before the read ended; any of them still
            // running when the read started overlaps it.
            let before_end = spans.partition_point(|&(s, _)| s < r.recv_ns);
            spans[..before_end].iter().any(|&(_, e)| e > r.send_ns)
        })
        .map(|r| latency_ms(r.ok, r.send_ns, r.recv_ns))
        .collect()
}

fn latency_ms(ok: bool, send_ns: u64, recv_ns: u64) -> f64 {
    if ok {
        (recv_ns - send_ns) as f64 / 1e6
    } else {
        f64::INFINITY
    }
}

pub fn ide_serve(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new("metrics+journal");
    match run(args, &mut out) {
        Ok(()) => {}
        Err(e) => out.check(false, || e),
    }
    out
}

/// What the clients recorded while serving one session.
struct Phase {
    session: u64,
    reads: Vec<ReadRec>,
    edits: Vec<EditRec>,
    log: EditLog,
}

/// Drive `clients` closed-loop clients against one session until
/// `deadline`.
fn serve_phase(
    served: &Served,
    k: usize,
    seed: u64,
    clients: usize,
    replica: &PandaSession,
    rot: &[LfSpec],
    deadline: Instant,
) -> Phase {
    let names = replica.registry().names();
    let rows = (
        replica.tables().left.len() as u32,
        replica.tables().right.len() as u32,
    );
    let session = served.sessions[k].0;
    let shared = Shared {
        epoch: Instant::now(),
        started: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        edits: Mutex::new(EditLog::default()),
    };
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let mix = OpMix::new(seed, c, rows, names.len());
                let (shared, names) = (&shared, &names);
                s.spawn(move || {
                    client_loop(shared, served.addr, session, mix, names, rot, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase {
        session,
        reads: Vec::new(),
        edits: Vec::new(),
        log: shared.edits.into_inner().expect("edit log lock"),
    };
    for r in runs {
        phase.reads.extend(r.reads);
        phase.edits.extend(r.edits);
    }
    phase
}

fn run(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    // The serve binary's production defaults: metrics and the journal
    // ring on.
    panda_obs::set_enabled(true);
    panda_obs::set_journal_enabled(true);
    let rot = rotation(&rotation_attrs());
    let lfs = initial_lfs(&rot);
    let root = out_dir().join(format!("state-{}", args.seed));

    let mut setup_times = Vec::new();
    // Step 1 times by session, one per set-up.
    let mut step1_times = vec![Vec::new(); SESSIONS as usize];
    let mut kept = None;
    let mut requests = Vec::new();
    let setup_started = Instant::now();
    while another_setup(setup_times.len(), setup_started.elapsed()) {
        let rep = setup_times.len();
        // One server at a time: an idle one would still share the cores.
        if let Some(prev) = kept.take() {
            stop(prev);
        }
        let t = Instant::now();
        requests = (0..SESSIONS)
            .map(|k| {
                let g = GeneratorConfig::new(sub_seed(args.seed, k)).with_entities(ENTITIES);
                create_request(&generate(DatasetFamily::AbtBuy, &g))
            })
            .collect();
        let mut served = boot(&root.join(format!("rep{rep}")))?;
        for (times, req) in step1_times.iter_mut().zip(&requests) {
            let body = serde_json::to_string(req).expect("request serializes");
            times.push(step1(&mut served, &body, &lfs)?);
        }
        setup_times.push(t.elapsed().as_secs_f64());
        kept = Some(served);
    }
    let served = kept.expect("at least one set-up");
    out.set("setup_s", median(&setup_times));
    let pipeline_s: f64 = step1_times.iter().map(|t| median(t)).sum();
    let candidates: usize = served.sessions.iter().map(|s| s.1).sum();
    out.set("pipeline_s", pipeline_s);
    out.set("pairs_per_s", candidates as f64 / pipeline_s);
    let all: Vec<f64> = step1_times.concat();
    out.detail("step1_s", timing_summary(&all, "s"));
    out.detail(
        "state_dir_fs",
        Value::Str(sysinfo::fs_type(&served.state_dir)),
    );

    let mut replicas = Vec::new();
    let mut confusion = Confusion::default();
    let mut digests = Vec::new();
    for (k, req) in requests.iter().enumerate() {
        let r = replica(req, &lfs)?;
        let (id, n) = served.sessions[k];
        out.check(r.candidates().len() == n, || {
            format!(
                "replica {k} has {} candidates, server {n}",
                r.candidates().len()
            )
        });
        let digest = wire_confusion(&served, id, &r, &mut confusion, out)?;
        digests.push(Value::Str(digest));
        replicas.push(r);
    }
    out.set("f1", confusion.f1());
    out.detail("digests", Value::Array(digests));

    let clients = CLIENTS.min(sysinfo::nproc()).max(1);
    let bytes_before = sysinfo::dir_bytes(&served.state_dir);
    // The mix gets two thirds of the run; the parity replay, which redoes
    // every edit on the replica, takes most of the rest.
    let mix = args.seconds * 2 / 3;
    let started = Instant::now();
    let mut phases = Vec::new();
    for (k, r) in replicas.iter().enumerate() {
        let deadline = started + mix * (k as u32 + 1) / SESSIONS as u32;
        let seed = sub_seed(args.seed, k as u64);
        phases.push(serve_phase(&served, k, seed, clients, r, &rot, deadline));
    }
    let mix_s = started.elapsed().as_secs_f64();
    let bytes_after = sysinfo::dir_bytes(&served.state_dir);
    out.set("peak_rss_mb", sysinfo::peak_rss_mb());

    let reads: Vec<&ReadRec> = phases.iter().flat_map(|p| &p.reads).collect();
    let edits: Vec<&EditRec> = phases.iter().flat_map(|p| &p.edits).collect();
    let read_ms: Vec<f64> = reads
        .iter()
        .map(|r| latency_ms(r.ok, r.send_ns, r.recv_ns))
        .collect();
    let edit_ms: Vec<f64> = edits
        .iter()
        .map(|e| latency_ms(e.ok, e.send_ns, e.recv_ns))
        .collect();
    let failed = read_ms
        .iter()
        .chain(&edit_ms)
        .filter(|x| x.is_infinite())
        .count() as u64;
    let attempted = (reads.len() + edits.len()) as u64;
    out.attempted += attempted;
    out.failed += failed;
    out.set("ops_per_s", (attempted - failed) as f64 / mix_s);
    if !read_ms.is_empty() {
        out.set("read_p50_ms", median(&read_ms));
        out.set("read_mean_ms", stats::mean_completed(&read_ms));
    }
    if !edit_ms.is_empty() {
        out.set("edit_mean_ms", stats::mean_completed(&edit_ms));
        out.set(
            "edit_p75_ms",
            stats::percentile(&stats::sorted(&edit_ms), 75.0),
        );
    }
    out.detail("read_ms", timing_summary(&read_ms, "ms"));
    out.detail("edit_ms", timing_summary(&edit_ms, "ms"));
    out.detail("clients", Value::UInt(clients as u64));
    // Edit latency by the rotation spec the server applied, which sets
    // how much column and refit work the edit does.
    let mut by_spec = vec![Vec::new(); rot.len()];
    for p in &phases {
        for e in &p.edits {
            if let Some(k) = e.log {
                by_spec[p.log.0[k].0].push(latency_ms(e.ok, e.send_ns, e.recv_ns));
            }
        }
    }
    out.detail(
        "edit_ms_by_spec",
        Value::Object(
            rot.iter()
                .zip(&by_spec)
                .map(|(spec, ms)| (spec.name.clone(), timing_summary(ms, "ms")))
                .collect(),
        ),
    );
    out.detail(
        "reads_per_edit",
        Value::Float(reads.len() as f64 / edits.len().max(1) as f64),
    );
    for p in &phases {
        out.check(p.edits.len() >= 2, || {
            format!("only {} edits ran on session {}", p.edits.len(), p.session)
        });
    }
    let behind: Vec<f64> = phases
        .iter()
        .flat_map(|p| reads_behind_edits(&p.reads, &p.edits))
        .collect();
    out.set(
        "serve.reads_behind_edit_share",
        behind.len() as f64 / reads.len().max(1) as f64,
    );
    out.set(
        "serve.read_behind_edit_p50_ms",
        if behind.is_empty() {
            0.0
        } else {
            median(&behind)
        },
    );
    out.set(
        "persist.bytes_per_edit",
        (bytes_after as f64 - bytes_before as f64) / edits.len().max(1) as f64,
    );

    if args.trace {
        let mut c = Client::connect(served.addr, REPLY_TIMEOUT).map_err(|e| e.to_string())?;
        let mut us = Vec::with_capacity(HEALTHZ_CALLS);
        for _ in 0..HEALTHZ_CALLS {
            let t = Instant::now();
            let r = c.call("GET", "/healthz", "");
            us.push(t.elapsed().as_secs_f64() * 1e6);
            out.check(ok_200(&r), || format!("healthz: {r:?}"));
        }
        out.set("serve.healthz_us", median(&us));
        out.detail("healthz_us", timing_summary(&us, "us"));
    }
    stop(served);
    // The replay is the benchmark's checker, not the served system.
    panda_obs::set_enabled(false);
    panda_obs::set_journal_enabled(false);

    let mut checks = Vec::new();
    for (phase, replica) in phases.iter().zip(replicas.iter_mut()) {
        let names = replica.registry().names();
        let check = replay(replica, &phase.log, &phase.reads, &names, &rot, None);
        out.check(check.mismatches == 0, || {
            format!(
                "{} wire /match reads on session {} differ from the library replica",
                check.mismatches, phase.session
            )
        });
        out.failed += check.mismatches;
        checks.push(check);
    }
    let mismatches: u64 = checks.iter().map(|c| c.mismatches).sum();
    out.detail("parity_mismatches", Value::UInt(mismatches));

    if args.trace {
        let mut tracer = Tracer::default();
        let mut traced_s = 0.0;
        for (phase, req) in phases.iter().zip(&requests) {
            let mut again = replica(req, &lfs)?;
            let names = again.registry().names();
            let traced = replay(
                &mut again,
                &phase.log,
                &phase.reads,
                &names,
                &rot,
                Some(&mut tracer),
            );
            out.check(traced.mismatches == 0, || {
                "traced replay lost parity".into()
            });
            traced_s += traced.wall_s;
        }
        let untraced_s: f64 = checks.iter().map(|c| c.wall_s).sum();
        out.set("obs.trace_overhead", traced_s / untraced_s);
        let mut lib = LibTimes::default();
        let mut read_overhead = Vec::new();
        let mut edit_overhead = Vec::new();
        for (phase, check) in phases.iter().zip(checks) {
            for (r, lib) in phase.reads.iter().zip(&check.read_lib_us) {
                if let (true, Some(lib)) = (r.ok, lib) {
                    read_overhead.push((r.recv_ns - r.send_ns) as f64 / 1e3 - lib);
                }
            }
            edit_overhead.extend(edit_overheads(&phase.edits, &check.edit_lib_ms));
            lib.extend(check.lib);
        }
        lib.report(out);
        out.set("model.fit_s", median(&lib.fit_ms) / 1e3);
        out.set("serve.read_overhead_us", median(&read_overhead));
        out.set("serve.edit_overhead_ms", median(&edit_overhead));
        let mut counts = Counts::default();
        for r in &replicas {
            counts.add(r.tables(), r.candidates(), r.matrix());
        }
        counts.report(out);
        out.detail(
            "replay_self_s",
            Value::Object(
                self_seconds_by_name(tracer.spans())
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::Float(v)))
                    .collect(),
            ),
        );
        out.spans = Some(tracer.to_json());
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

/// Score every candidate pair over the wire; each score must equal the
/// replica's. Records the scores against gold in `confusion` and returns
/// a digest of their bits, which is the same on every run of a seed.
fn wire_confusion(
    served: &Served,
    session: u64,
    replica: &PandaSession,
    confusion: &mut Confusion,
    out: &mut Outcome,
) -> Result<String, String> {
    let mut c = Client::connect(served.addr, REPLY_TIMEOUT).map_err(|e| e.to_string())?;
    let gold = replica.gold_vector().ok_or("replica has no gold")?;
    let pairs = replica.candidates().pairs();
    let mut mismatches = 0u64;
    let mut digest = Digest::default();
    for (chunk, gold) in pairs.chunks(F1_BATCH).zip(gold.chunks(F1_BATCH)) {
        let wire_pairs: Vec<Vec<u32>> = chunk.iter().map(|p| vec![p.left.0, p.right.0]).collect();
        let body = format!(
            "{{\"session\":{session},\"pairs\":{}}}",
            serde_json::to_string(&wire_pairs).expect("pairs serialize")
        );
        let resp = expect_200("score candidates", c.call("POST", "/match", &body))?;
        let scores = serde_json::from_str::<MatchResponse>(&resp.body)
            .map_err(|e| format!("match response: {e}"))?
            .scores;
        out.check(scores.len() == chunk.len(), || "short /match reply".into());
        digest.f64s(&scores);
        for ((p, w), &g) in chunk.iter().zip(&scores).zip(gold) {
            let lib = replica.score_pair(*p)?;
            mismatches += u64::from(lib.to_bits() != w.to_bits());
            confusion.record(*w, g);
        }
    }
    out.check(mismatches == 0, || {
        format!("{mismatches} candidate scores on session {session} differ from the replica")
    });
    out.failed += mismatches;
    Ok(digest.hex())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edit(send_ms: u64, took_ms: u64, ok: bool, log: Option<usize>) -> EditRec {
        EditRec {
            send_ns: send_ms * 1_000_000,
            recv_ns: (send_ms + took_ms) * 1_000_000,
            ok,
            log,
        }
    }

    /// An edit that never reached the server has no log entry; the edits
    /// after it must still be paired with their own library times.
    #[test]
    fn edit_overheads_pair_each_edit_with_its_log_entry() {
        let edits = [
            edit(0, 50, true, Some(0)),
            edit(60, 0, false, None),
            edit(70, 90, true, Some(1)),
            edit(200, 40, false, Some(2)),
            edit(300, 30, true, Some(3)),
        ];
        let lib_ms = [40.0, 80.0, 5.0, 25.0];
        assert_eq!(edit_overheads(&edits, &lib_ms), vec![10.0, 10.0, 5.0]);
    }
}
