//! The library calls behind each IDE operation, timed in one place.
//!
//! [`LibOps`] is the one executor of the op mix against a library
//! session. The offline workloads run the mix through it directly (no
//! wire), and `ide_serve` replays the served mix through it on a replica
//! to check the wire scores and to learn the library's share of each
//! wire latency.

use crate::opmix::{edit_spec, sub_seed, Op, OpMix, BLOCK};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use panda_serve::api::LfSpec;
use panda_session::{DebugQuery, PandaSession, SessionConfig};
use panda_table::{CandidatePair, TablePair};
use std::time::{Duration, Instant};

/// Rows a debug query returns, as the IDE panels ask for.
pub const QUERY_LIMIT: usize = 10;

/// Times of the library calls an executor made.
#[derive(Default)]
pub struct LibTimes {
    pub add_column_ms: Vec<f64>,
    pub fit_ms: Vec<f64>,
    /// Per pair scored.
    pub score_pair_us: Vec<f64>,
    pub query_us: Vec<f64>,
}

impl LibTimes {
    pub fn extend(&mut self, other: LibTimes) {
        self.add_column_ms.extend(other.add_column_ms);
        self.fit_ms.extend(other.fit_ms);
        self.score_pair_us.extend(other.score_pair_us);
        self.query_us.extend(other.query_us);
    }

    /// The per-call medians: `lf.add_column_ms`, `model.score_pair_us`
    /// and `session.query_us`.
    pub fn report(&self, out: &mut Outcome) {
        out.set("lf.add_column_ms", median_or_zero(&self.add_column_ms));
        out.set("model.score_pair_us", median_or_zero(&self.score_pair_us));
        out.set("session.query_us", median_or_zero(&self.query_us));
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Runs the library side of IDE ops on a session, timing each call and,
/// when given a tracer, recording a span around it.
#[derive(Default)]
pub struct LibOps<'t> {
    pub times: LibTimes,
    tracer: Option<&'t mut Tracer>,
}

impl<'t> LibOps<'t> {
    pub fn traced(tracer: &'t mut Tracer) -> LibOps<'t> {
        LibOps {
            times: LibTimes::default(),
            tracer: Some(tracer),
        }
    }

    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t = Instant::now();
        let out = match self.tracer.as_deref_mut() {
            Some(tr) => tr.span(name, |_| f()),
            None => f(),
        };
        (out, t.elapsed())
    }

    /// Upsert one LF spec (`upsert_lf_incremental`). Returns its time in ms.
    pub fn upsert(&mut self, session: &mut PandaSession, spec: &LfSpec) -> Result<f64, String> {
        let lf = spec.build()?;
        let (done, took) = self.call("lf.add_column", || session.upsert_lf_incremental(lf));
        done?;
        let ms = took.as_secs_f64() * 1e3;
        self.times.add_column_ms.push(ms);
        Ok(ms)
    }

    /// Warm refit. Returns its time in ms.
    pub fn fit(&mut self, session: &mut PandaSession) -> f64 {
        let ((), took) = self.call("model.fit", || session.fit());
        let ms = took.as_secs_f64() * 1e3;
        self.times.fit_ms.push(ms);
        ms
    }

    /// Score ad-hoc pairs. Returns each score and the total time in µs.
    pub fn score(
        &mut self,
        session: &PandaSession,
        pairs: &[(u32, u32)],
    ) -> (Vec<Result<f64, String>>, f64) {
        let (scores, took) = self.call("model.score_pair", || {
            pairs
                .iter()
                .map(|&(l, r)| session.score_pair(CandidatePair::new(l, r)))
                .collect::<Vec<_>>()
        });
        let us = took.as_secs_f64() * 1e6;
        self.times
            .score_pair_us
            .push(us / pairs.len().max(1) as f64);
        (scores, us)
    }

    /// One debug query. Returns the number of rows.
    pub fn query(&mut self, session: &PandaSession, lf: &str, query: DebugQuery) -> usize {
        let (rows, took) = self.call("session.debug_pairs", || {
            session.debug_pairs(lf, query, QUERY_LIMIT).len()
        });
        self.times.query_us.push(took.as_secs_f64() * 1e6);
        rows
    }
}

/// Whole-op latencies of the offline IDE phase.
#[derive(Default)]
pub struct IdeRun {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Whole-op latencies; a failed op is `+inf`.
    pub read_ms: Vec<f64>,
    pub edit_ms: Vec<f64>,
    pub lib: LibTimes,
}

/// Load a session of each task with the rotation's LFs only (no
/// auto-LFs, the default model), so the mix's cost does not hinge on how
/// many LFs a dataset happened to yield; then run whole blocks of the mix
/// on each for an equal share of `budget`, pooling the timings.
pub fn run_all<'a>(
    tasks: impl IntoIterator<Item = &'a TablePair>,
    seed: u64,
    rot: &[LfSpec],
    budget: Duration,
) -> Result<IdeRun, String> {
    let tasks: Vec<&TablePair> = tasks.into_iter().collect();
    let share = budget / tasks.len().max(1) as u32;
    let mut all = IdeRun::default();
    for (k, tables) in tasks.into_iter().enumerate() {
        let cfg = SessionConfig {
            auto_lfs: false,
            ..SessionConfig::default()
        };
        let mut session = PandaSession::load(tables.clone(), cfg);
        for spec in rot {
            session.upsert_lf_incremental(spec.build()?)?;
        }
        session.fit();
        let r = run(&mut session, sub_seed(seed, k as u64), rot, share);
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.wall_s += r.wall_s;
        all.read_ms.extend(r.read_ms);
        all.edit_ms.extend(r.edit_ms);
        all.lib.extend(r.lib);
    }
    Ok(all)
}

/// Run whole blocks of the seeded op mix on `session` until `budget`
/// has passed (at least one block).
fn run(session: &mut PandaSession, seed: u64, rotation: &[LfSpec], budget: Duration) -> IdeRun {
    let rows = (
        session.tables().left.len() as u32,
        session.tables().right.len() as u32,
    );
    let names = session.registry().names();
    let mix = OpMix::new(seed, 0, rows, names.len());
    let mut ops = LibOps::default();
    let mut edits = 0;
    let mut run = IdeRun::default();
    let started = Instant::now();
    for (i, op) in mix.enumerate() {
        if i > 0 && (i as u64).is_multiple_of(BLOCK) && started.elapsed() >= budget {
            break;
        }
        run.attempted += 1;
        let t = Instant::now();
        let ok = match &op {
            Op::Match(pairs) => ops.score(session, pairs).0.iter().all(Result::is_ok),
            Op::Query { lf, query } => ops.query(session, &names[*lf], *query) <= QUERY_LIMIT,
            Op::Edit => match ops.upsert(session, &rotation[edit_spec(edits)]) {
                Ok(_) => {
                    edits += 1;
                    ops.fit(session);
                    true
                }
                Err(e) => {
                    eprintln!("perfbench: library edit failed: {e}");
                    false
                }
            },
        };
        let latency = if ok {
            t.elapsed().as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        };
        run.failed += u64::from(!ok);
        if op.is_edit() {
            run.edit_ms.push(latency);
        } else {
            run.read_ms.push(latency);
        }
    }
    run.wall_s = started.elapsed().as_secs_f64();
    run.lib = ops.times;
    run
}
