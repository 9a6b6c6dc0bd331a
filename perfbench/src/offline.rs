//! The offline paper pipeline: `develop` (the IDE's Step 1, `load`) and
//! `deploy` (the §4 scale-out, `deploy` on the full tables).
//!
//! Each run generates a small suite of datasets from its seed and times
//! the pipeline call on every one of them per round; a round's time is
//! the sum over the suite, and the reported time is the median round.
//! Several datasets per run keep the figures from hinging on the quirks
//! of a single generated table pair.

use crate::ide::{self, IdeRun};
use crate::opmix::{rotation, sub_seed, RotationAttrs};
use crate::stats::{self, median, timing_summary, Confusion, Digest};
use crate::trace::{self_times, Tracer};
use crate::{another_setup, sysinfo, Outcome, RunArgs, PER_LAYER};
use panda_autolf::generate_auto_lfs;
use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
use panda_embed::{blocking_stats, cosine, Blocker, EmbeddingLshBlocker};
use panda_lf::{LabelMatrix, LfRegistry};
use panda_model::{LabelModel, PandaModel, TransitivityGraph, TransitivityMode};
use panda_session::{downsample_task, ModelChoice, PandaSession, SessionConfig};
use panda_table::{CandidateSet, TablePair};
use serde::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// abt-buy task pairs per `develop` run, and entities in each. Small
/// tasks, so that a load takes about 0.55 s and each task is timed in
/// about seven rounds, whose median shrugs off bursts of contention on a
/// shared host; six of them average out how much work a seed's tables
/// happen to need.
const DEVELOP_DATASETS: u64 = 6;
const DEVELOP_ENTITIES: usize = 200;
/// cora-dedup task pairs per `deploy` run, entities (before duplicates)
/// in each, duplicates per entity, and rows per side of the sample the
/// LFs are developed on.
const DEPLOY_DATASETS: u64 = 3;
const DEPLOY_ENTITIES: usize = 800;
const DEPLOY_DUPS: usize = 4;
const DEPLOY_SAMPLE: usize = 200;
/// `--seconds` is split into this many shares: one for the IDE op mix,
/// run on the developed sessions after the pipeline rounds, and the rest
/// for the rounds.
const IDE_SHARE: u32 = 5;
/// Pipeline rounds per run, at the least.
const MIN_ROUNDS: usize = 3;
/// IDE-phase sessions, taken from the datasets in turn, and rows per side
/// of each.
const IDE_SESSIONS: u64 = 12;
const IDE_SAMPLE_ROWS: usize = 200;

fn ide_budget(args: &RunArgs) -> Duration {
    args.seconds / IDE_SHARE
}

/// Time `build` as often as [`another_setup`] asks; keep the last result
/// and the median time.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while another_setup(times.len(), started.elapsed()) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Run at least `MIN_ROUNDS` rounds, and more while the next one, taking
/// as long as the last, still ends within `budget`.
fn rounds(budget: Duration, mut round: impl FnMut()) {
    let started = Instant::now();
    let mut n = 0;
    let mut last = Duration::ZERO;
    while n < MIN_ROUNDS || started.elapsed() + last <= budget {
        let t = Instant::now();
        round();
        last = t.elapsed();
        n += 1;
    }
}

/// Timed-call durations by dataset, one per round.
struct RoundTimes(Vec<Vec<f64>>);

impl RoundTimes {
    fn new(datasets: usize) -> RoundTimes {
        RoundTimes(vec![Vec::new(); datasets])
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(Vec::is_empty)
    }

    fn push(&mut self, dataset: usize, seconds: f64) {
        self.0[dataset].push(seconds);
    }

    /// The suite's time: the sum over datasets of each one's median call.
    /// A burst of contention that slows some calls of a round moves only
    /// the medians it reaches in more than half the rounds.
    fn pipeline_s(&self) -> f64 {
        self.0.iter().map(|t| median(t)).sum()
    }

    fn rounds(&self) -> usize {
        self.0.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Each round's summed time, for the detail line.
    fn round_totals(&self) -> Vec<f64> {
        (0..self.rounds())
            .map(|r| self.0.iter().map(|t| t[r]).sum())
            .collect()
    }
}

/// Record a candidate set's posteriors against the task's gold.
fn add_confusion(c: &mut Confusion, tables: &TablePair, cands: &CandidateSet, posteriors: &[f64]) {
    let gold = tables.gold.as_ref().expect("generated tasks carry gold");
    for (p, &g) in cands.pairs().iter().zip(posteriors) {
        c.record(g, gold.contains(p));
    }
}

fn blocker(cfg: &SessionConfig) -> EmbeddingLshBlocker {
    let mut b = EmbeddingLshBlocker::new(cfg.seed);
    b.min_cosine = cfg.blocking_min_cosine;
    b.max_per_record = cfg.blocking_max_per_record;
    b
}

/// The model a session config builds, constructed through public calls.
fn model(cfg: &SessionConfig) -> PandaModel {
    match cfg.model {
        ModelChoice::Panda => PandaModel::new(),
        ModelChoice::PandaTransitive(mode) => PandaModel::new().with_transitivity(mode),
        other => panic!("the benchmark decomposes only Panda models, not {other:?}"),
    }
}

fn develop_config() -> SessionConfig {
    SessionConfig::default()
}

/// LFs are developed with the curated set only: the number of auto-LFs
/// found on a 200×200 sample varies from 3 to 5 by seed, which swung the
/// deployed LF set, and with it `pipeline_s`, by about 20% across seeds.
fn deploy_config() -> SessionConfig {
    SessionConfig {
        auto_lfs: false,
        model: ModelChoice::PandaTransitive(TransitivityMode::SelfJoin),
        ..SessionConfig::default()
    }
}

fn develop_digest(auto_lfs: &[String], posteriors: &[f64]) -> String {
    let mut d = Digest::default();
    for name in auto_lfs {
        d.str(name);
    }
    d.f64s(posteriors).hex()
}

fn deploy_digest(cands: &CandidateSet, posteriors: &[f64]) -> String {
    let mut matches: Vec<(u32, u32)> = cands
        .pairs()
        .iter()
        .zip(posteriors)
        .filter(|(_, &g)| g >= 0.5)
        .map(|(p, _)| (p.left.0, p.right.0))
        .collect();
    matches.sort_unstable();
    let mut d = Digest::default();
    d.u64(matches.len() as u64);
    for (l, r) in matches {
        d.u64(u64::from(l) << 32 | u64::from(r));
    }
    d.f64s(posteriors).hex()
}

/// Tracks that every round of one dataset reproduces the same digest.
struct Digests(Vec<Option<String>>);

impl Digests {
    fn new(n: usize) -> Digests {
        Digests(vec![None; n])
    }

    fn check(&mut self, out: &mut Outcome, d: usize, digest: String, what: &str) {
        match &self.0[d] {
            None => self.0[d] = Some(digest),
            Some(first) => out.check(*first == digest, || {
                format!("{what} digest of dataset {d} changed: {first} then {digest}")
            }),
        }
    }

    fn to_json(&self) -> Value {
        Value::Array(
            self.0
                .iter()
                .map(|d| Value::Str(d.clone().unwrap_or_default()))
                .collect(),
        )
    }
}

/// Per-round medians of the traced decomposition.
#[derive(Default)]
struct TracedRounds {
    tracer: Tracer,
    /// Span-index ranges of each round.
    bounds: Vec<(usize, usize)>,
}

impl TracedRounds {
    fn round(&mut self, f: impl FnOnce(&mut Tracer)) {
        let start = self.tracer.spans().len();
        f(&mut self.tracer);
        self.bounds.push((start, self.tracer.spans().len()));
    }

    /// Median over rounds of each span name's summed self time, and of
    /// the summed duration of the root spans named `root`.
    fn medians(&self, root: &str) -> (BTreeMap<&'static str, f64>, f64) {
        let spans = self.tracer.spans();
        let own = self_times(spans);
        let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut root_totals = Vec::new();
        for &(a, b) in &self.bounds {
            let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
            let mut root_total = 0.0;
            for i in a..b {
                *sums.entry(spans[i].name).or_default() += own[i] as f64 / 1e9;
                if spans[i].name == root {
                    root_total += self.tracer.seconds(i);
                }
            }
            for (name, s) in sums {
                per_name.entry(name).or_default().push(s);
            }
            root_totals.push(root_total);
        }
        let medians = per_name.into_iter().map(|(k, v)| (k, median(&v))).collect();
        (medians, median(&root_totals))
    }
}

/// The IDE op mix on `IDE_SESSIONS` samples of `IDE_SAMPLE_ROWS` rows per
/// side, taken from the datasets in turn, as a user develops LFs on a
/// sample (§4). The cost of an edit differs between generated tables by
/// more than between LF kinds, so the mix pools a dozen sessions.
fn ide_phase(out: &mut Outcome, args: &RunArgs, suite: &[TablePair], attrs: &RotationAttrs) {
    let samples: Vec<TablePair> = (0..IDE_SESSIONS)
        .map(|j| {
            let full = &suite[j as usize % suite.len()];
            let seed = sub_seed(args.seed, 1000 + j);
            downsample_task(full, IDE_SAMPLE_ROWS, IDE_SAMPLE_ROWS, seed)
        })
        .collect();
    let run = ide::run_all(&samples, args.seed, &rotation(attrs), ide_budget(args));
    out.check(run.is_ok(), || {
        format!("IDE phase: {:?}", run.as_ref().err())
    });
    report_ide(out, &run.unwrap_or_default());
}

/// IDE-phase metrics shared by both offline workloads.
fn report_ide(out: &mut Outcome, ide: &IdeRun) {
    out.attempted += ide.attempted;
    out.failed += ide.failed;
    out.set(
        "ops_per_s",
        (ide.attempted - ide.failed) as f64 / ide.wall_s,
    );
    out.set("read_p50_ms", stats::median(&ide.read_ms));
    out.set("read_mean_ms", stats::mean_completed(&ide.read_ms));
    out.set("edit_mean_ms", stats::mean_completed(&ide.edit_ms));
    out.set(
        "edit_p75_ms",
        stats::percentile(&stats::sorted(&ide.edit_ms), 75.0),
    );
    ide.lib.report(out);
    out.detail("read_ms", timing_summary(&ide.read_ms, "ms"));
    out.detail("edit_ms", timing_summary(&ide.edit_ms, "ms"));
    out.detail("ide_fit_ms", timing_summary(&ide.lib.fit_ms, "ms"));
}

/// Share of candidate pairs on which at least one LF voted.
fn coverage(matrix: &LabelMatrix) -> (u64, u64) {
    let mut voted = vec![false; matrix.n_pairs()];
    for (_, col) in matrix.columns() {
        for (v, &x) in voted.iter_mut().zip(&col) {
            *v |= x != 0;
        }
    }
    (
        voted.iter().filter(|&&v| v).count() as u64,
        voted.len() as u64,
    )
}

/// Counts of what each layer produced, summed over a suite of sessions.
#[derive(Default)]
pub struct Counts {
    candidates: u64,
    gold_covered: u64,
    gold_total: u64,
    votes: u64,
    pairs_voted: u64,
    pairs: u64,
    triangles: u64,
    auto_lfs: u64,
}

impl Counts {
    pub fn add(&mut self, tables: &TablePair, cands: &CandidateSet, matrix: &LabelMatrix) {
        let b = blocking_stats(tables, cands);
        self.candidates += b.candidates as u64;
        self.gold_covered += b.matches_covered as u64;
        self.gold_total += b.total_matches as u64;
        self.votes += (matrix.n_pairs() * matrix.n_lfs()) as u64;
        let (voted, n) = coverage(matrix);
        self.pairs_voted += voted;
        self.pairs += n;
    }

    /// The count metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("embed.candidates", self.candidates as f64);
        out.set(
            "embed.pair_completeness",
            self.gold_covered as f64 / self.gold_total.max(1) as f64,
        );
        out.set("autolf.lfs_kept", self.auto_lfs as f64);
        out.set(
            "lf.coverage",
            self.pairs_voted as f64 / self.pairs.max(1) as f64,
        );
        out.set("model.triangles", self.triangles as f64);
    }

    /// The count metrics and the stage times of a traced pipeline.
    fn report_stages(&self, out: &mut Outcome, stages: &BTreeMap<&'static str, f64>) {
        self.report(out);
        let stage = |n: &str| stages.get(n).copied().unwrap_or(0.0);
        out.set("embed.candidates_s", stage("embed.candidates"));
        out.set("embed.embed_tables_s", stage("embed.embed_tables"));
        out.set("autolf.generate_s", stage("autolf.generate"));
        out.set("lf.apply_s", stage("lf.apply"));
        out.set("lf.votes_per_s", self.votes as f64 / stage("lf.apply"));
        out.set("model.fit_s", stage("model.fit"));
        out.set(
            "model.transitivity_build_s",
            stage("model.transitivity.build"),
        );
    }
}

fn auto_lf_names(registry: &LfRegistry) -> Vec<String> {
    registry
        .names()
        .into_iter()
        .filter(|n| n.starts_with("auto_lf_"))
        .collect()
}

/// The `load` pipeline rebuilt from public calls in the order the
/// session makes them. Returns the auto-LF names and the posteriors.
fn traced_load(
    tr: &mut Tracer,
    tables: &TablePair,
    cfg: &SessionConfig,
    counts: &mut Counts,
) -> (Vec<String>, Vec<f64>) {
    let (cands, registry, matrix, posteriors) = tr.span("session.load", |tr| {
        let blocker = blocker(cfg);
        let cands = tr.span("embed.candidates", |_| blocker.candidates(tables));
        let (lv, rv) = tr.span("embed.embed_tables", |_| blocker.embed_tables(tables));
        let likelihood: Vec<f64> = cands
            .pairs()
            .iter()
            .map(|p| f64::from(cosine(&lv[p.left.idx()], &rv[p.right.idx()])))
            .collect();
        black_box(likelihood);
        let generated = tr.span("autolf.generate", |_| {
            generate_auto_lfs(tables, &cands, &cfg.auto_lf_config)
        });
        let mut registry = LfRegistry::new();
        for g in generated {
            registry.upsert(Arc::new(g.lf));
        }
        let mut matrix = LabelMatrix::new();
        tr.span("lf.apply", |_| matrix.apply(&registry, tables, &cands));
        let mut model = model(cfg);
        let posteriors = tr.span("model.fit", |_| model.fit_predict(&matrix, Some(&cands)));
        (cands, registry, matrix, posteriors)
    });
    // Outside the pipeline: does this candidate graph have triangles?
    let graph = tr.span("model.transitivity.build", |_| {
        TransitivityGraph::build(
            &cands,
            TransitivityMode::TwoTable,
            PandaModel::new().max_triangles,
        )
    });
    counts.triangles += graph.n_triangles() as u64;
    counts.add(tables, &cands, &matrix);
    let auto = auto_lf_names(&registry);
    counts.auto_lfs += auto.len() as u64;
    (auto, posteriors)
}

/// `develop`: time `PandaSession::load` with auto-LFs and the default
/// model on freshly generated abt-buy tables.
pub fn develop(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new("off");
    let cfg = develop_config();
    let (setup_s, suite) = timed_setup(|| {
        (0..DEVELOP_DATASETS)
            .map(|i| {
                let g =
                    GeneratorConfig::new(sub_seed(args.seed, i)).with_entities(DEVELOP_ENTITIES);
                generate(DatasetFamily::AbtBuy, &g)
            })
            .collect::<Vec<_>>()
    });
    out.set("setup_s", setup_s);

    let rounds_s = args.seconds - ide_budget(args);
    let budget = if args.trace { rounds_s / 2 } else { rounds_s };
    let mut digests = Digests::new(suite.len());
    let mut times = RoundTimes::new(suite.len());
    let mut confusion = Confusion::default();
    let mut candidates = 0u64;
    rounds(budget, || {
        let first = times.is_empty();
        for (d, tables) in suite.iter().enumerate() {
            let input = tables.clone();
            out.attempted += 1;
            let t = Instant::now();
            let session = PandaSession::load(input, cfg.clone());
            times.push(d, t.elapsed().as_secs_f64());
            let auto = auto_lf_names(session.registry());
            digests.check(
                &mut out,
                d,
                develop_digest(&auto, session.posteriors()),
                "develop",
            );
            if first {
                add_confusion(
                    &mut confusion,
                    tables,
                    session.candidates(),
                    session.posteriors(),
                );
                candidates += session.candidates().len() as u64;
            }
        }
    });
    let pipeline_s = times.pipeline_s();
    out.set("pipeline_s", pipeline_s);
    out.set("pairs_per_s", candidates as f64 / pipeline_s);
    out.set("f1", confusion.f1());
    out.detail(
        "pipeline_round_s",
        timing_summary(&times.round_totals(), "s"),
    );
    out.detail("digests", digests.to_json());

    if args.trace {
        let mut traced = TracedRounds::default();
        let mut counts = Counts::default();
        rounds(budget, || {
            counts = Counts::default();
            traced.round(|tr| {
                for (d, tables) in suite.iter().enumerate() {
                    let (auto, post) = traced_load(tr, tables, &cfg, &mut counts);
                    let digest = develop_digest(&auto, &post);
                    let untraced = digests.0[d].clone().unwrap_or_default();
                    out.check(digest == untraced, || {
                        format!("traced load of dataset {d} gave {digest}, untraced {untraced}")
                    });
                }
            });
        });
        let (stages, traced_s) = traced.medians("session.load");
        counts.report_stages(&mut out, &stages);
        // The root span's self time: the traced pipeline minus its stages.
        out.set("session.glue_s", stages["session.load"]);
        out.set("obs.trace_overhead", traced_s / pipeline_s);
        out.spans = Some(traced.tracer.to_json());
    }

    let attrs = RotationAttrs {
        text: "name",
        numeric: "price",
        size: &["name", "description"],
    };
    ide_phase(&mut out, args, &suite, &attrs);
    out.set("peak_rss_mb", sysinfo::peak_rss_mb());
    out
}

/// One `deploy` dataset: the full tables and the session developed on a
/// sample of them.
struct DeployCase {
    full: TablePair,
    session: PandaSession,
}

fn deploy_case(seed: u64, cfg: &SessionConfig) -> DeployCase {
    let g = GeneratorConfig::new(seed)
        .with_entities(DEPLOY_ENTITIES)
        .with_right_dups(DEPLOY_DUPS);
    let full = generate(DatasetFamily::CoraDedup, &g);
    let sample = downsample_task(&full, DEPLOY_SAMPLE, DEPLOY_SAMPLE, seed);
    let mut session = PandaSession::load(sample, cfg.clone());
    for lf in panda_bench::curated_lfs(DatasetFamily::CoraDedup) {
        session.upsert_lf(lf);
    }
    session.apply();
    DeployCase { full, session }
}

/// The `deploy` pipeline rebuilt from public calls in the order the
/// session makes them. Returns the candidates and posteriors.
fn traced_deploy(
    tr: &mut Tracer,
    case: &DeployCase,
    cfg: &SessionConfig,
    counts: &mut Counts,
) -> (CandidateSet, Vec<f64>) {
    let full = &case.full;
    let registry = case.session.registry();
    let (cands, matrix, posteriors) = tr.span("session.deploy", |tr| {
        let cands = tr.span("embed.candidates", |_| blocker(cfg).candidates(full));
        let mut matrix = LabelMatrix::new();
        tr.span("lf.apply", |_| matrix.apply(registry, full, &cands));
        let mut model = model(cfg);
        let posteriors = tr.span("model.fit", |_| model.fit_predict(&matrix, Some(&cands)));
        let mut conf = Confusion::default();
        add_confusion(&mut conf, full, &cands, &posteriors);
        black_box(conf.f1());
        (cands, matrix, posteriors)
    });
    // Outside the pipeline: the embedding share of blocking, the
    // transitivity graph on its own, and each curated LF's column.
    let emb = tr.span("embed.embed_tables", |_| blocker(cfg).embed_tables(full));
    black_box(emb);
    let mode = TransitivityMode::SelfJoin;
    let graph = tr.span("model.transitivity.build", |_| {
        TransitivityGraph::build(&cands, mode, PandaModel::new().max_triangles)
    });
    counts.triangles += graph.n_triangles() as u64;
    let mut cols = LabelMatrix::new();
    for lf in panda_bench::curated_lfs(DatasetFamily::CoraDedup) {
        let metric = format!("lf.column_s.{}", lf.name());
        let name = PER_LAYER
            .iter()
            .find(|(n, _)| *n == metric)
            .map_or("lf.column_s.unlisted", |(n, _)| *n);
        let added = tr.span(name, |_| cols.add_column(&lf, 1, full, &cands));
        assert!(added.is_ok(), "curated LF {} failed: {added:?}", lf.name());
    }
    counts.add(full, &cands, &matrix);
    counts.auto_lfs += auto_lf_names(registry).len() as u64;
    (cands, posteriors)
}

/// `deploy`: time `PandaSession::deploy` of a sample-developed LF set on
/// the full cora-dedup tables.
pub fn deploy(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new("off");
    let cfg = deploy_config();
    let (setup_s, suite) = timed_setup(|| {
        (0..DEPLOY_DATASETS)
            .map(|i| deploy_case(sub_seed(args.seed, i), &cfg))
            .collect::<Vec<_>>()
    });
    out.set("setup_s", setup_s);

    let rounds_s = args.seconds - ide_budget(args);
    let budget = if args.trace { rounds_s / 2 } else { rounds_s };
    let mut digests = Digests::new(suite.len());
    let mut times = RoundTimes::new(suite.len());
    let mut confusion = Confusion::default();
    let mut candidates = 0u64;
    rounds(budget, || {
        let first = times.is_empty();
        for (d, case) in suite.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let result = case.session.deploy(&case.full);
            times.push(d, t.elapsed().as_secs_f64());
            let digest = deploy_digest(&result.candidates, &result.posteriors);
            digests.check(&mut out, d, digest, "deploy");
            if first {
                add_confusion(
                    &mut confusion,
                    &case.full,
                    &result.candidates,
                    &result.posteriors,
                );
                candidates += result.candidates.len() as u64;
            }
        }
    });
    let pipeline_s = times.pipeline_s();
    out.set("pipeline_s", pipeline_s);
    out.set("pairs_per_s", candidates as f64 / pipeline_s);
    out.set("f1", confusion.f1());
    out.detail(
        "pipeline_round_s",
        timing_summary(&times.round_totals(), "s"),
    );
    out.detail("digests", digests.to_json());

    if args.trace {
        let mut traced = TracedRounds::default();
        let mut counts = Counts::default();
        rounds(budget, || {
            counts = Counts::default();
            traced.round(|tr| {
                for (d, case) in suite.iter().enumerate() {
                    let (cands, post) = traced_deploy(tr, case, &cfg, &mut counts);
                    let digest = deploy_digest(&cands, &post);
                    let untraced = digests.0[d].clone().unwrap_or_default();
                    out.check(digest == untraced, || {
                        format!("traced deploy of dataset {d} gave {digest}, untraced {untraced}")
                    });
                }
            });
        });
        let (stages, traced_s) = traced.medians("session.deploy");
        counts.report_stages(&mut out, &stages);
        out.set("session.glue_s", stages["session.deploy"]);
        out.set("obs.trace_overhead", traced_s / pipeline_s);
        for lf in panda_bench::curated_lfs(DatasetFamily::CoraDedup) {
            let metric = format!("lf.column_s.{}", lf.name());
            if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric) {
                out.set(name, stages.get(name).copied().unwrap_or(0.0));
            }
        }
        out.spans = Some(traced.tracer.to_json());
    }

    let attrs = RotationAttrs {
        text: "title",
        numeric: "year",
        size: &["title", "venue"],
    };
    let full: Vec<TablePair> = suite.iter().map(|c| c.full.clone()).collect();
    ide_phase(&mut out, args, &full, &attrs);
    out.set("peak_rss_mb", sysinfo::peak_rss_mb());
    out
}
