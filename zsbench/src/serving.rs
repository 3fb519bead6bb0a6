//! The serving workloads: closed-loop callers against an in-process
//! `PredictionServer` (`serve_local_cold`), a `NetServer` on loopback
//! (`serve_remote_hot`) and a `MultiTaskPredictionServer`
//! (`serve_multitask_cold`).  Every answer is checked against a
//! `predict_blocking` reference from a one-worker server.

use crate::candidates::candidates;
use crate::offline::{holdout, trace_build, Holdout};
use crate::pace::{Pace, Window, PACE_PASSES};
use crate::recipe::{same_corpus, Build, Head, Models, Recipe};
use crate::report::{
    mean, median, peak_rss_mb, percentile, ratio, reset_peak_rss, Breakdown, Outcome, Phase,
};
use crate::{replay_mean_us, Args, Size};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use zsdb_catalog::SchemaCatalog;
use zsdb_client::{Client, ClientConfig};
use zsdb_core::dataset::TrainingDataConfig;
use zsdb_core::features::featurize_plan;
use zsdb_core::{FeaturizerConfig, InferenceScratch, TrainedModel, TrainingConfig};
use zsdb_engine::PlanNode;
use zsdb_multitask::{MultiTaskPrediction, TrainedMultiTaskModel};
use zsdb_nn::q_error;
use zsdb_obs::ActiveTrace;
use zsdb_protocol::{decode_frame, encode_frame, Frame, Message, WirePrediction};
use zsdb_query::WorkloadGenerator;
use zsdb_serve::{
    MetricsSnapshot, MultiTaskPredictionServer, MultiTaskPredictionTicket, NetServer,
    NetServerConfig, PredictionServer, PredictionTicket, ServerConfig, STAGE_ADMISSION,
    STAGE_CACHE_LOOKUP, STAGE_FEATURIZE, STAGE_FORWARD, STAGE_QUEUE_WAIT, STAGE_RESPOND,
};

/// Which serving workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    LocalCold,
    RemoteHot,
    MultitaskCold,
}

/// Completed requests between two hot-swaps on `serve_remote_hot`.
const SWAP_EVERY: u64 = 20_000;

struct Sizes {
    scale: f64,
    truth_queries: usize,
    setups: usize,
    recipe: Recipe,
}

fn sizes(mode: Mode, size: Size) -> Sizes {
    let head = match mode {
        Mode::LocalCold => Head::Single,
        Mode::RemoteHot => Head::SingleWithFinetune,
        Mode::MultitaskCold => Head::Multi,
    };
    let (scale, truth_queries, setups, databases, queries, epochs) = match size {
        Size::Full => (0.02, 200, 5, 3, 60, 4),
        Size::Tiny => (0.01, 20, 2, 2, 10, 1),
    };
    let mut data = TrainingDataConfig {
        num_databases: databases,
        queries_per_database: queries,
        random_indexes_per_database: 3,
        ..TrainingDataConfig::default()
    };
    if size == Size::Tiny {
        data.schema_config = zsdb_catalog::GeneratorConfig::tiny();
    }
    Sizes {
        scale,
        truth_queries,
        setups,
        recipe: Recipe {
            data,
            training: TrainingConfig {
                epochs,
                ..TrainingConfig::default()
            },
            // The serving path featurizes plans with estimated
            // cardinalities, so the served models are trained on them.
            featurizer: FeaturizerConfig::estimated(),
            head,
        },
    }
}

/// Distinct plans (by fingerprint) in the request stream: at least 8× the
/// default cache capacity on the cold workloads, a quarter of it on the
/// hot one.
fn distinct_plans(mode: Mode, size: Size) -> usize {
    let capacity = ServerConfig::default().cache_capacity;
    match (mode, size) {
        (Mode::RemoteHot, Size::Full) => capacity / 4,
        (Mode::RemoteHot, Size::Tiny) => 16,
        (_, Size::Full) => 8 * capacity,
        (_, Size::Tiny) => 64,
    }
}

/// The request stream: distinct plans, grouped into candidate sets.
struct Stream {
    plans: Vec<PlanNode>,
    /// One candidate set per query, as a range of `plans`.
    sets: Vec<Range<usize>>,
}

/// Random queries on the serving database, each turned into its
/// candidate set (see `candidates`); plans already in the stream are
/// dropped.  Stops at `n` distinct plans; no query is executed.
fn plan_stream(db: &zsdb_storage::Database, n: usize, seed: u64) -> Result<Stream, String> {
    let generator = WorkloadGenerator::with_defaults();
    let mut seen = HashSet::new();
    let mut plans = Vec::with_capacity(n);
    let mut sets = Vec::new();
    for round in 0..64u64 {
        let queries = generator.generate(db.catalog(), 256, seed ^ (0xC0DE + round));
        for query in &queries {
            let candidates = candidates(db, query).ok_or_else(|| {
                "the rebuilt join candidates do not reproduce the optimizer's plan".to_string()
            })?;
            let start = plans.len();
            for plan in candidates {
                if plans.len() < n && seen.insert(zsdb_core::plan_fingerprint(&plan)) {
                    plans.push(plan);
                }
            }
            if plans.len() > start {
                sets.push(start..plans.len());
            }
            if plans.len() == n {
                return Ok(Stream { plans, sets });
            }
        }
    }
    Err(format!(
        "the query generator produced fewer than {n} distinct plans"
    ))
}

/// The running server of a workload.
enum Served {
    Local(PredictionServer),
    Remote(NetServer, Vec<Client>),
    Multi(MultiTaskPredictionServer),
}

struct Fixture {
    holdout: Holdout,
    build: Build,
    plans: Vec<PlanNode>,
    sets: Vec<Range<usize>>,
    served: Served,
}

fn callers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn start(mode: Mode, build: &Build, catalog: &SchemaCatalog) -> Served {
    let config = ServerConfig::default();
    match (&build.models, mode) {
        (Models::Single(model), Mode::LocalCold) => Served::Local(PredictionServer::start(
            model.clone(),
            catalog.clone(),
            config,
        )),
        (Models::Pair(model, _), Mode::RemoteHot) => {
            let server = PredictionServer::start(model.clone(), catalog.clone(), config);
            let net = NetServer::start("127.0.0.1:0", server, NetServerConfig::default())
                .expect("bind the loopback gateway");
            let clients = (0..callers())
                .map(|_| {
                    Client::connect(net.local_addr(), ClientConfig::tenant("zsbench"))
                        .expect("connect to the loopback gateway")
                })
                .collect();
            Served::Remote(net, clients)
        }
        (Models::Multi(model), Mode::MultitaskCold) => Served::Multi(
            MultiTaskPredictionServer::start(model.clone(), catalog.clone(), config),
        ),
        _ => unreachable!("the recipe's head matches the workload"),
    }
}

/// One set-up: unseen database, ground truth, served model(s), request
/// stream and running server.
fn setup(mode: Mode, sizes: &Sizes, args: &Args) -> Result<Fixture, String> {
    let holdout = holdout(sizes.scale, sizes.truth_queries, args.seed);
    let build = sizes.recipe.build();
    let n = distinct_plans(mode, args.size);
    let stream = plan_stream(&holdout.db, n, args.seed)?;
    let served = start(mode, &build, holdout.db.catalog());
    Ok(Fixture {
        holdout,
        build,
        plans: stream.plans,
        sets: stream.sets,
        served,
    })
}

/// A bit-exact digest of one multi-task answer (every head).
fn digest_multi(tasks: &MultiTaskPrediction) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    eat(tasks.runtime_secs.to_bits());
    eat(tasks.root_rows.to_bits());
    for rows in &tasks.operator_rows {
        eat(rows.to_bits());
    }
    h
}

/// Reference answers keyed by (model slot, plan fingerprint).  Slot `s`
/// serves model versions `v` with `(v - 1) % models == s`.
struct Reference {
    answers: HashMap<(u32, u64), u64>,
    models: u32,
    /// Held-out cost predictions of the first served model.
    holdout: Vec<f64>,
}

impl Reference {
    fn slot(&self, version: u32) -> u32 {
        version.wrapping_sub(1) % self.models
    }

    fn matches(&self, version: u32, fingerprint: u64, digest: u64) -> bool {
        version >= 1 && self.answers.get(&(self.slot(version), fingerprint)) == Some(&digest)
    }
}

/// Reference answers from one-worker servers via `predict_blocking`.
fn reference(fx: &Fixture, corrupt: bool) -> Result<Reference, String> {
    let catalog = fx.holdout.db.catalog();
    let one = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let fail = |e: zsdb_serve::ServeError| format!("reference prediction failed: {e}");
    let mut answers = HashMap::new();
    let mut holdout = Vec::new();
    let singles: Vec<&TrainedModel> = match &fx.build.models {
        Models::Single(m) => vec![m],
        Models::Pair(a, b) => vec![a, b],
        Models::Multi(model) => {
            let server = MultiTaskPredictionServer::start(model.clone(), catalog.clone(), one);
            for plan in &fx.plans {
                let p = server.predict_blocking(plan.clone()).map_err(fail)?;
                answers.insert((0, p.fingerprint), digest_multi(&p.tasks));
            }
            for e in &fx.holdout.truth {
                let p = server.predict_blocking(e.plan.clone()).map_err(fail)?;
                holdout.push(p.tasks.runtime_secs);
            }
            vec![]
        }
    };
    for (slot, model) in singles.iter().enumerate() {
        let server = PredictionServer::start((*model).clone(), catalog.clone(), one);
        for plan in &fx.plans {
            let p = server.predict_blocking(plan.clone()).map_err(fail)?;
            answers.insert((slot as u32, p.fingerprint), p.runtime_secs.to_bits());
        }
        if slot == 0 {
            for e in &fx.holdout.truth {
                holdout.push(
                    server
                        .predict_blocking(e.plan.clone())
                        .map_err(fail)?
                        .runtime_secs,
                );
            }
        }
    }
    if corrupt {
        // Self-test hook: a wrong reference value must fail the run.
        let key = (0, zsdb_core::plan_fingerprint(&fx.plans[0]));
        if let Some(v) = answers.get_mut(&key) {
            *v ^= 1;
        }
    }
    Ok(Reference {
        answers,
        models: singles.len().max(1) as u32,
        holdout,
    })
}

/// Per-stage duration sums of traced requests.
#[derive(Debug, Default, Clone)]
struct Stages {
    ns: HashMap<&'static str, u64>,
    traces: u64,
}

impl Stages {
    fn add(&mut self, stages: &[zsdb_obs::TraceStage]) {
        for stage in stages {
            *self.ns.entry(stage.name).or_default() += stage.duration_ns;
        }
        self.traces += 1;
    }

    fn merge(&mut self, other: &Stages) {
        for (name, ns) in &other.ns {
            *self.ns.entry(name).or_default() += ns;
        }
        self.traces += other.traces;
    }

    /// Mean duration of a stage per traced request, in µs.
    fn mean_us(&self, name: &str) -> f64 {
        ratio(
            self.ns.get(name).copied().unwrap_or(0) as f64 / 1e3,
            self.traces as f64,
        )
    }
}

/// A phase is split into this many equal windows; its throughput and
/// latency percentiles are medians over the windows, so a burst of
/// outside load in one window moves them little.
const WINDOWS: usize = 20;

/// When a phase started and how long its windows are.
#[derive(Debug, Clone, Copy)]
struct Clock {
    started: Instant,
    window_secs: f64,
}

impl Clock {
    /// The window a completion at `at` falls in; `WINDOWS` collects the
    /// completions after the deadline.
    fn deadline(&self) -> Instant {
        self.started + Duration::from_secs_f64(self.window_secs * WINDOWS as f64)
    }

    fn window(&self, at: Instant) -> usize {
        let secs = at.saturating_duration_since(self.started).as_secs_f64();
        ((secs / self.window_secs) as usize).min(WINDOWS)
    }
}

/// What one caller thread saw in one phase.
#[derive(Debug)]
struct Rec {
    clock: Clock,
    phase: Phase,
    /// Caller-observed latencies by completion window.
    windows: Vec<Vec<f64>>,
    /// Answers that differ from the reference.
    wrong: u64,
    // Traced phase only.
    submit_us: Vec<f64>,
    server_us: Vec<f64>,
    outside_us: Vec<f64>,
    stolen: u64,
    stages: Stages,
    untraced_lookups: u64,
}

/// A phase's per-window figures (windows without samples left out).
struct Windowed {
    qps: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    /// Fewest latency samples in one window.
    min_samples: usize,
}

impl Rec {
    fn new(clock: Clock) -> Self {
        Rec {
            clock,
            phase: Phase::default(),
            windows: vec![Vec::new(); WINDOWS + 1],
            wrong: 0,
            submit_us: Vec::new(),
            server_us: Vec::new(),
            outside_us: Vec::new(),
            stolen: 0,
            stages: Stages::default(),
            untraced_lookups: 0,
        }
    }

    fn merge(&mut self, other: Rec) {
        self.phase.add(&other.phase);
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
        self.wrong += other.wrong;
        self.submit_us.extend(other.submit_us);
        self.server_us.extend(other.server_us);
        self.outside_us.extend(other.outside_us);
        self.stolen += other.stolen;
        self.stages.merge(&other.stages);
        self.untraced_lookups += other.untraced_lookups;
    }

    fn answered(&mut self, reference: &Reference, a: Answer, sent: Instant, traced: bool) {
        let done = Instant::now();
        let window = self.clock.window(done);
        self.windows[window].push((done - sent).as_secs_f64() * 1e3);
        if reference.matches(a.version, a.fingerprint, a.digest) {
            self.phase.succeeded += 1;
        } else {
            self.phase.failed += 1;
            self.wrong += 1;
        }
        if traced {
            self.server_us.push(a.server_latency.as_secs_f64() * 1e6);
            self.stolen += u64::from(a.stolen);
            if let Some(trace) = &a.trace {
                self.stages.add(trace.stages());
            }
        }
    }

    /// Merge a whole phase as window `w` of this one: its completions by
    /// its deadline land in window `w`, later ones after the deadline.
    fn absorb(&mut self, mut other: Rec, w: usize) {
        let late = other.windows.pop().unwrap_or_default();
        let on_time = other.windows.concat();
        other.windows = vec![Vec::new(); WINDOWS + 1];
        other.windows[w] = on_time;
        other.windows[WINDOWS] = late;
        self.merge(other);
    }

    /// Every latency sample of the phase.
    fn latencies(&self) -> Vec<f64> {
        self.windows.concat()
    }

    fn windowed(&self) -> Windowed {
        let full = &self.windows[..WINDOWS];
        let per = |q: f64| -> Vec<f64> {
            full.iter()
                .filter(|w| !w.is_empty())
                .map(|w| percentile(w, q))
                .collect()
        };
        Windowed {
            qps: full
                .iter()
                .map(|w| w.len() as f64 / self.clock.window_secs)
                .collect(),
            p50_ms: per(50.0),
            p99_ms: per(99.0),
            min_samples: full.iter().map(Vec::len).min().unwrap_or(0),
        }
    }
}

/// One answer, whatever server produced it.
struct Answer {
    digest: u64,
    fingerprint: u64,
    version: u32,
    server_latency: Duration,
    stolen: bool,
    trace: Option<ActiveTrace>,
}

/// An in-process server the closed-loop callers drive.
trait InProcess: Sync {
    type Ticket;
    fn send(&self, plan: PlanNode, traced: bool) -> Option<Self::Ticket>;
    fn receive(ticket: Self::Ticket, traced: bool) -> Option<Answer>;
}

impl InProcess for PredictionServer {
    type Ticket = PredictionTicket;

    fn send(&self, plan: PlanNode, traced: bool) -> Option<PredictionTicket> {
        if traced {
            self.submit_traced(plan, self.tracer().begin()).ok()
        } else {
            self.submit(plan).ok()
        }
    }

    fn receive(ticket: PredictionTicket, traced: bool) -> Option<Answer> {
        let (p, trace) = if traced {
            ticket.wait_traced().ok()?
        } else {
            (ticket.wait().ok()?, None)
        };
        Some(Answer {
            digest: p.runtime_secs.to_bits(),
            fingerprint: p.fingerprint,
            version: p.model_version,
            server_latency: p.latency,
            stolen: p.stolen,
            trace,
        })
    }
}

impl InProcess for MultiTaskPredictionServer {
    type Ticket = MultiTaskPredictionTicket;

    fn send(&self, plan: PlanNode, traced: bool) -> Option<MultiTaskPredictionTicket> {
        if traced {
            self.submit_traced(plan, self.tracer().begin()).ok()
        } else {
            self.submit(plan).ok()
        }
    }

    fn receive(ticket: MultiTaskPredictionTicket, traced: bool) -> Option<Answer> {
        let (p, trace) = if traced {
            ticket.wait_traced().ok()?
        } else {
            (ticket.wait().ok()?, None)
        };
        Some(Answer {
            digest: digest_multi(&p.tasks),
            fingerprint: p.fingerprint,
            version: p.model_version,
            server_latency: p.latency,
            stolen: false,
            trace,
        })
    }
}

/// Caller `c`'s contiguous stripe of `items` (plans or candidate sets);
/// callers cycle through their own stripes, so a plan recurs only after
/// every other plan has been requested once.
fn stripe(items: usize, c: usize, callers: usize) -> Range<usize> {
    (items * c / callers)..(items * (c + 1) / callers)
}

/// Closed loop: submit one candidate set as single tickets, wait for all
/// of them, move on to the next set; until the deadline.
fn in_process_caller<S: InProcess>(
    server: &S,
    plans: &[PlanNode],
    sets: &[Range<usize>],
    clock: Clock,
    reference: &Reference,
    traced: bool,
) -> Rec {
    let deadline = clock.deadline();
    let mut rec = Rec::new(clock);
    let mut tickets = Vec::new();
    for set in sets.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        for plan in &plans[set.clone()] {
            let plan = plan.clone();
            rec.phase.sent += 1;
            let t = Instant::now();
            match server.send(plan, traced) {
                Some(ticket) => {
                    if traced {
                        rec.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    tickets.push((t, ticket));
                }
                None => rec.phase.failed += 1,
            }
        }
        for (t, ticket) in tickets.drain(..) {
            match S::receive(ticket, traced) {
                Some(answer) => rec.answered(reference, answer, t, traced),
                None => rec.phase.failed += 1,
            }
        }
    }
    rec
}

/// What the remote callers share: the gateway, the two models it
/// alternates between, and the request counter that triggers swaps.
struct Remote<'a> {
    net: &'a NetServer,
    models: [&'a TrainedModel; 2],
    completed: AtomicU64,
    version: AtomicU32,
    swaps: AtomicU64,
    swap: bool,
}

impl Remote<'_> {
    fn completed_one(&self) {
        let n = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if self.swap && n.is_multiple_of(SWAP_EVERY) {
            let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
            let model = self.models[((version - 1) % 2) as usize];
            self.net.server().swap_model(model.clone(), version);
            self.swaps.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Closed loop over one connection: one `predict` in flight at a time.
fn remote_caller(
    remote: &Remote,
    client: &Client,
    plans: &[PlanNode],
    range: Range<usize>,
    clock: Clock,
    reference: &Reference,
    traced: bool,
) -> Rec {
    let deadline = clock.deadline();
    let mut rec = Rec::new(clock);
    let mut cursor = range.start;
    let mut previous_trace = 0u64;
    while Instant::now() < deadline {
        let plan = &plans[cursor];
        cursor = if cursor + 1 == range.end {
            range.start
        } else {
            cursor + 1
        };
        rec.phase.sent += 1;
        let t = Instant::now();
        match client.predict(plan) {
            Ok(p) => {
                let rtt = t.elapsed();
                if traced {
                    rec.outside_us
                        .push(rtt.saturating_sub(p.server_latency).as_secs_f64() * 1e6);
                    // The gateway finishes a request's trace after writing
                    // its reply, so the previous request's trace is
                    // complete once this reply has arrived.
                    match remote.net.tracer().find(previous_trace) {
                        Some(trace) => rec.stages.add(&trace.stages),
                        None => rec.untraced_lookups += u64::from(previous_trace != 0),
                    }
                    previous_trace = p.trace_id;
                }
                let answer = Answer {
                    digest: p.runtime_secs.to_bits(),
                    fingerprint: p.fingerprint,
                    version: p.model_version,
                    server_latency: p.server_latency,
                    stolen: false,
                    trace: None,
                };
                rec.answered(reference, answer, t, traced);
                remote.completed_one();
            }
            Err(_) => rec.phase.failed += 1,
        }
    }
    rec
}

/// Run one phase of `seconds` from every caller thread.
fn phase(
    fx: &Fixture,
    remote: Option<&Remote>,
    reference: &Reference,
    seconds: f64,
    traced: bool,
    name: &'static str,
) -> Rec {
    let n = callers();
    let clock = Clock {
        started: Instant::now(),
        window_secs: seconds / WINDOWS as f64,
    };
    let merged = Mutex::new(Rec::new(clock));
    std::thread::scope(|scope| {
        for c in 0..n {
            let plans = &fx.plans;
            let sets = &fx.sets[stripe(fx.sets.len(), c, n)];
            let merged = &merged;
            scope.spawn(move || {
                let rec = match (&fx.served, remote) {
                    (Served::Local(s), _) => {
                        in_process_caller(s, plans, sets, clock, reference, traced)
                    }
                    (Served::Multi(s), _) => {
                        in_process_caller(s, plans, sets, clock, reference, traced)
                    }
                    (Served::Remote(_, clients), Some(remote)) => {
                        let range = stripe(plans.len(), c, n);
                        remote_caller(remote, &clients[c], plans, range, clock, reference, traced)
                    }
                    (Served::Remote(..), None) => unreachable!("remote phases carry the gateway"),
                };
                merged.lock().expect("caller record").merge(rec);
            });
        }
    });
    let mut rec = merged.into_inner().expect("caller record");
    rec.phase.name = name;
    rec
}

fn snapshot(fx: &Fixture) -> MetricsSnapshot {
    match &fx.served {
        Served::Local(s) => s.metrics(),
        Served::Multi(s) => s.metrics(),
        Served::Remote(net, _) => net.server().metrics(),
    }
}

pub fn run(mode: Mode, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let sizes = sizes(mode, args.size);

    // Set-up, several times; the last fixture serves the phases.
    let mut setup_secs = Vec::new();
    let mut fixture = None;
    let mut pace = Pace::default();
    pace.sample(PACE_PASSES);
    for _ in 0..sizes.setups {
        drop(fixture.take());
        let t = Instant::now();
        match setup(mode, &sizes, args) {
            Ok(fx) => {
                setup_secs.push((t.elapsed().as_secs_f64(), pace.sample(PACE_PASSES)));
                fixture = Some(fx);
            }
            Err(problem) => {
                out.problem(problem);
                return out;
            }
        }
    }
    let fx = fixture.expect("at least one set-up");
    let reference = match reference(&fx, args.corrupt_reference) {
        Ok(r) => r,
        Err(problem) => {
            out.problem(problem);
            return out;
        }
    };
    let remote = match &fx.served {
        Served::Remote(net, _) => match &fx.build.models {
            Models::Pair(a, b) => Some(Remote {
                net,
                models: [a, b],
                completed: AtomicU64::new(0),
                version: AtomicU32::new(1),
                swaps: AtomicU64::new(0),
                swap: false,
            }),
            _ => unreachable!("the remote workload serves a model pair"),
        },
        _ => None,
    };

    let setup_peak_mb = peak_rss_mb();
    reset_peak_rss();

    // Warm-up fills the caches; no swaps yet.
    let warm = (args.seconds * 0.1).clamp(0.05, 1.0);
    let warm_rec = phase(&fx, remote.as_ref(), &reference, warm, false, "warmup");
    out.phases.push(warm_rec.phase.clone());
    let mut remote = remote;
    if let Some(r) = remote.as_mut() {
        r.swap = true;
        r.completed.store(0, Ordering::Relaxed);
    }

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = snapshot(&fx);
    let (timed, builds, windows, peak_mb) = timed_phase(
        &sizes,
        &fx,
        remote.as_ref(),
        &reference,
        budget,
        &mut pace,
        &mut out,
    );
    let after = snapshot(&fx);
    out.phases.push(timed.phase.clone());
    out.check(timed.wrong == 0, || {
        format!(
            "{} answers differ from the predict_blocking reference",
            timed.wrong
        )
    });

    let qerrors: Vec<f64> = reference
        .holdout
        .iter()
        .zip(&fx.holdout.truth)
        .map(|(p, e)| q_error(*p, e.runtime_secs))
        .collect();
    out.check(reference.holdout.iter().all(|p| p.is_finite()), || {
        "a held-out prediction is not finite".into()
    });
    let w = timed.windowed();
    let m = &mut out.end_to_end;
    m.push("holdout_qerror_p50", percentile(&qerrors, 50.0), "ratio");
    m.push("holdout_qerror_p95", percentile(&qerrors, 95.0), "ratio");
    m.push("peak_rss_mb", peak_mb, "MB");
    pace.report(&mut out, &setup_secs, &builds, &windows);
    out.details.push(("setup_peak_rss_mb", setup_peak_mb));
    out.details
        .push(("latency_samples", timed.latencies().len() as f64));
    out.details
        .push(("latency_samples_min_per_window", w.min_samples as f64));
    let range = |v: &[f64]| {
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(0.0, f64::max),
        )
    };
    let (lo, hi) = range(&w.qps);
    out.details.push(("window_qps_min", lo));
    out.details.push(("window_qps_max", hi));
    let (lo, hi) = range(&w.p99_ms);
    out.details.push(("window_p99_ms_min", lo));
    out.details.push(("window_p99_ms_max", hi));
    out.details.push(("builds", builds.len() as f64));
    out.details.push(("distinct_plans", fx.plans.len() as f64));
    out.details.push(("candidate_sets", fx.sets.len() as f64));
    out.details.push((
        "candidate_set_max",
        fx.sets.iter().map(|s| s.len()).max().unwrap_or(0) as f64,
    ));
    out.details.push(("callers", callers() as f64));
    out.details
        .push(("timed_cache_hit_rate", hit_rate(&before, &after)));
    if let Some(r) = &remote {
        out.details
            .push(("model_swaps", r.swaps.load(Ordering::Relaxed) as f64));
    }

    if args.trace {
        traced_phase(
            mode,
            &fx,
            remote.as_ref(),
            &reference,
            budget,
            median(&w.p50_ms),
            &mut out,
        );
        if mode == Mode::LocalCold {
            hot_probe(&fx, &reference, warm, &mut out);
            wire_probe(&fx, &reference, warm, &mut out);
        }
        let untraced_build = median(&builds.iter().map(|b| b.0).collect::<Vec<_>>());
        let traced = trace_build(&sizes.recipe, &fx.build, &mut out);
        out.per_layer
            .push("trace.build_overhead_s", traced.secs - untraced_build, "s");
        replay(mode, &fx, &mut out);
    }
    out
}

/// The timed phase, run as `WINDOWS` slices with one build of the served
/// model before each.  A slice gives one window's throughput and latency
/// percentiles, a build one sample of `build_s`; both are spread over the
/// whole phase, and each carries the machine's slowdown from the pace
/// passes right before and after it (see `pace`).  The builds run away
/// from the set-ups' ground-truth executions,
/// and each must collect the set-up's corpus.  The peak RSS is that of the
/// slices: the high-water mark restarts after each build.
fn timed_phase(
    sizes: &Sizes,
    fx: &Fixture,
    remote: Option<&Remote>,
    reference: &Reference,
    seconds: f64,
    pace: &mut Pace,
    out: &mut Outcome,
) -> (Rec, Vec<(f64, f64)>, Vec<Window>, f64) {
    let slice = seconds / WINDOWS as f64;
    let mut timed = Rec::new(Clock {
        started: Instant::now(),
        window_secs: slice,
    });
    timed.phase.name = "timed";
    let mut builds = Vec::with_capacity(WINDOWS);
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut peak_mb: f64 = 0.0;
    pace.sample(PACE_PASSES);
    for w in 0..WINDOWS {
        let build = sizes.recipe.build();
        builds.push((build.secs, pace.sample(PACE_PASSES)));
        out.check(same_corpus(&build.corpus, &fx.build.corpus), || {
            "two builds of the served model collected different corpora".into()
        });
        drop(build);
        reset_peak_rss();
        let rec = phase(fx, remote, reference, slice, false, "timed");
        peak_mb = peak_mb.max(peak_rss_mb());
        let on_time = rec.windows[..WINDOWS].concat();
        let slow = pace.sample(PACE_PASSES);
        if !on_time.is_empty() {
            windows.push(Window {
                qps: on_time.len() as f64 / slice,
                p50_ms: percentile(&on_time, 50.0),
                p99_ms: percentile(&on_time, 99.0),
                slow,
            });
        }
        timed.absorb(rec, w);
    }
    (timed, builds, windows, peak_mb)
}

fn hit_rate(before: &MetricsSnapshot, after: &MetricsSnapshot) -> f64 {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    ratio(hits as f64, (hits + misses) as f64)
}

/// The traced phase: the same callers with per-request spans, giving the
/// serving layers' metrics and the latency breakdown.
fn traced_phase(
    mode: Mode,
    fx: &Fixture,
    remote: Option<&Remote>,
    reference: &Reference,
    seconds: f64,
    untraced_p50_ms: f64,
    out: &mut Outcome,
) {
    let gateway_before = remote.map(|r| r.net.gateway_metrics());
    let before = snapshot(fx);
    let rec = phase(fx, remote, reference, seconds, true, "traced");
    let after = snapshot(fx);
    out.phases.push(rec.phase.clone());
    out.check(rec.wrong == 0, || {
        format!(
            "{} traced answers differ from the predict_blocking reference",
            rec.wrong
        )
    });
    let latencies = rec.latencies();
    let answered = latencies.len() as f64;
    let st = &rec.stages;
    let p = &mut out.per_layer;
    p.push(
        "trace.latency_overhead_ms",
        median(&rec.windowed().p50_ms) - untraced_p50_ms,
        "ms",
    );
    if mode != Mode::RemoteHot {
        p.push(
            "serve.submit_us_p50",
            percentile(&rec.submit_us, 50.0),
            "us",
        );
    }
    p.push(
        "serve.server_latency_us_p50",
        percentile(&rec.server_us, 50.0),
        "us",
    );
    p.push(
        "serve.server_latency_us_p99",
        percentile(&rec.server_us, 99.0),
        "us",
    );
    p.push(
        "serve.queue_wait_us_mean",
        st.mean_us(STAGE_QUEUE_WAIT),
        "us",
    );
    p.push(
        "serve.cache_lookup_us_mean",
        st.mean_us(STAGE_CACHE_LOOKUP),
        "us",
    );
    p.push("serve.featurize_us_mean", st.mean_us(STAGE_FEATURIZE), "us");
    p.push("serve.forward_us_mean", st.mean_us(STAGE_FORWARD), "us");
    if mode != Mode::LocalCold {
        cache_layers(&before, &after, out);
    }
    let p = &mut out.per_layer;
    if mode == Mode::LocalCold {
        p.push(
            "serve.stolen_share",
            ratio(rec.stolen as f64, answered),
            "ratio",
        );
    }
    let latency_us = mean(&latencies) * 1e3;
    let mut parts = Vec::new();
    if mode == Mode::RemoteHot {
        let net = remote.expect("remote phases carry the gateway").net;
        let before = gateway_before.expect("gateway metrics");
        wire_layers(&rec, &before, &net.gateway_metrics(), out);
        parts.push(("net.admission", st.mean_us(STAGE_ADMISSION)));
    }
    for (part, stage) in [
        ("serve.queue_wait", STAGE_QUEUE_WAIT),
        ("serve.cache_lookup", STAGE_CACHE_LOOKUP),
        ("serve.featurize", STAGE_FEATURIZE),
        ("serve.forward", STAGE_FORWARD),
    ] {
        parts.push((part, st.mean_us(stage)));
    }
    if mode == Mode::RemoteHot {
        parts.push(("net.respond", st.mean_us(STAGE_RESPOND)));
    }
    let breakdown = Breakdown {
        row: "latency_mean_us",
        unit: "us",
        total: latency_us,
        parts,
    };
    out.per_layer
        .push("serve.unattributed_us", breakdown.unattributed(), "us");
    out.breakdowns.push(breakdown);
    out.details.push(("traced_samples", answered));
    out.details
        .push(("traced_latency_sum_ms", rec.windows.iter().flatten().sum()));
}

fn cache_layers(before: &MetricsSnapshot, after: &MetricsSnapshot, out: &mut Outcome) {
    out.per_layer
        .push("serve.cache_hit_rate", hit_rate(before, after), "ratio");
    out.per_layer.push(
        "serve.cache_invalidations",
        (after.cache_invalidations - before.cache_invalidations) as f64,
        "count",
    );
}

/// The traced run of `serve_local_cold` also drives the cache's hot path
/// and its invalidation: the callers loop over the candidate sets of the
/// stream's first quarter-capacity plans against a fresh server of the
/// same model, which is hot-swapped once (same model, next version)
/// halfway.  The one-model reference holds for every version.
fn hot_probe(fx: &Fixture, reference: &Reference, seconds: f64, out: &mut Outcome) {
    let Models::Single(model) = &fx.build.models else {
        unreachable!("serve_local_cold serves one single-task model")
    };
    let config = ServerConfig::default();
    let hot = config.cache_capacity / 4;
    let sets: Vec<Range<usize>> = fx
        .sets
        .iter()
        .take_while(|s| s.end <= hot)
        .cloned()
        .collect();
    let server = PredictionServer::start(model.clone(), fx.holdout.db.catalog().clone(), config);
    let half = |name: &'static str| {
        let n = callers();
        let clock = Clock {
            started: Instant::now(),
            window_secs: seconds / 2.0 / WINDOWS as f64,
        };
        let mut merged = Rec::new(clock);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|c| {
                    let sets = &sets[stripe(sets.len(), c, n)];
                    let server = &server;
                    scope.spawn(move || {
                        in_process_caller(server, &fx.plans, sets, clock, reference, false)
                    })
                })
                .collect();
            for handle in handles {
                merged.merge(handle.join().expect("hot-probe caller"));
            }
        });
        merged.phase.name = name;
        merged
    };
    // One pass fills the cache; the probe measures from there.
    for set in &sets {
        for plan in &fx.plans[set.clone()] {
            let _ = server.predict_blocking(plan.clone());
        }
    }
    let before = server.metrics();
    let mut rec = half("hot_probe");
    server.swap_model(model.clone(), 2);
    rec.merge(half("hot_probe"));
    let after = server.metrics();
    out.phases.push(rec.phase.clone());
    out.check(rec.wrong == 0, || {
        format!(
            "{} hot-probe answers differ from the predict_blocking reference",
            rec.wrong
        )
    });
    cache_layers(&before, &after, out);
    out.details
        .push(("hot_probe_plans", sets.last().map_or(0, |s| s.end) as f64));
}

/// The wire layers' metrics from a traced remote phase: client RTT
/// outside the server, the gateway's own stages, and its rejections.
fn wire_layers(
    rec: &Rec,
    before: &zsdb_protocol::GatewayMetrics,
    after: &zsdb_protocol::GatewayMetrics,
    out: &mut Outcome,
) {
    let sum = |g: &zsdb_protocol::GatewayMetrics, f: fn(&zsdb_protocol::TenantMetrics) -> u64| {
        g.tenants.iter().map(f).sum::<u64>() as f64
    };
    let rejected = sum(after, |t| t.rejected_quota + t.rejected_shed)
        - sum(before, |t| t.rejected_quota + t.rejected_shed);
    let admitted = sum(after, |t| t.admitted) - sum(before, |t| t.admitted);
    let st = &rec.stages;
    let p = &mut out.per_layer;
    p.push(
        "client.outside_server_us_p50",
        percentile(&rec.outside_us, 50.0),
        "us",
    );
    p.push("net.admission_us_mean", st.mean_us(STAGE_ADMISSION), "us");
    p.push("net.respond_us_mean", st.mean_us(STAGE_RESPOND), "us");
    p.push("net.rejected_share", ratio(rejected, admitted), "ratio");
    out.details.push(("gateway_traces", st.traces as f64));
    out.details
        .push(("gateway_traces_missed", rec.untraced_lookups as f64));
}

/// The traced run of `serve_local_cold` also sends its cold stream over
/// one loopback connection to a gateway in front of the same model, so
/// that the wire layers (client, protocol, gateway) are measured by a
/// workload `BENCHMARK.json` runs.
fn wire_probe(fx: &Fixture, reference: &Reference, seconds: f64, out: &mut Outcome) {
    let Models::Single(model) = &fx.build.models else {
        unreachable!("serve_local_cold serves one single-task model")
    };
    let catalog = fx.holdout.db.catalog().clone();
    let server = PredictionServer::start(model.clone(), catalog, ServerConfig::default());
    let net = NetServer::start("127.0.0.1:0", server, NetServerConfig::default())
        .expect("bind the loopback gateway");
    let client = Client::connect(net.local_addr(), ClientConfig::tenant("zsbench"))
        .expect("connect to the loopback gateway");
    let remote = Remote {
        net: &net,
        models: [model, model],
        completed: AtomicU64::new(0),
        version: AtomicU32::new(1),
        swaps: AtomicU64::new(0),
        swap: false,
    };
    let before = net.gateway_metrics();
    let clock = Clock {
        started: Instant::now(),
        window_secs: seconds / WINDOWS as f64,
    };
    let range = 0..fx.plans.len();
    let mut rec = remote_caller(&remote, &client, &fx.plans, range, clock, reference, true);
    rec.phase.name = "wire_probe";
    out.phases.push(rec.phase.clone());
    out.check(rec.wrong == 0, || {
        format!(
            "{} wire-probe answers differ from the predict_blocking reference",
            rec.wrong
        )
    });
    wire_layers(&rec, &before, &net.gateway_metrics(), out);
}

/// Single-thread replays over the workload's own plans: the featurizer,
/// the forward pass, and (single-task workloads) the wire codec.
fn replay(mode: Mode, fx: &Fixture, out: &mut Outcome) {
    let catalog = fx.holdout.db.catalog();
    let plans = &fx.plans;
    let (featurizer, single, multi): (_, Option<&TrainedModel>, Option<&TrainedMultiTaskModel>) =
        match &fx.build.models {
            Models::Single(m) | Models::Pair(m, _) => (m.featurizer, Some(m), None),
            Models::Multi(m) => (m.featurizer, None, Some(m)),
        };
    let featurize_us = replay_mean_us(plans.len(), |i| {
        std::hint::black_box(featurize_plan(catalog, &plans[i], featurizer));
    });
    let graphs: Vec<_> = plans
        .iter()
        .map(|p| featurize_plan(catalog, p, featurizer))
        .collect();
    let forward_us = match (single, multi) {
        (Some(model), _) => {
            let mut scratch = InferenceScratch::default();
            replay_mean_us(graphs.len(), |i| {
                std::hint::black_box(model.model.predict_with(&graphs[i], &mut scratch));
            })
        }
        (None, Some(model)) => replay_mean_us(graphs.len(), |i| {
            std::hint::black_box(model.predict(&graphs[i]));
        }),
        (None, None) => unreachable!("a build trains a model"),
    };
    out.per_layer
        .push("core.featurize_plan_us", featurize_us, "us");
    out.per_layer.push("nn.forward_us", forward_us, "us");

    if mode != Mode::MultitaskCold {
        let frames: Vec<(Frame, Frame)> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let id = i as u64 + 1;
                let reply = WirePrediction {
                    runtime_secs: 1.0,
                    fingerprint: zsdb_core::plan_fingerprint(plan),
                    cache_hit: true,
                    server_latency_micros: 40,
                    model_version: 1,
                };
                (
                    Frame::traced(id, id, Message::Predict(Box::new(plan.clone()))),
                    Frame::traced(id, id, Message::PredictOk(reply)),
                )
            })
            .collect();
        let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
            .iter()
            .map(|(q, r)| {
                (
                    encode_frame(q).expect("encode"),
                    encode_frame(r).expect("encode"),
                )
            })
            .collect();
        let roundtrip = encoded.iter().zip(&frames).all(|((q, r), (fq, fr))| {
            let dq = decode_frame(q).ok().flatten().map(|(f, _)| f);
            let dr = decode_frame(r).ok().flatten().map(|(f, _)| f);
            dq.as_ref() == Some(fq) && dr.as_ref() == Some(fr)
        });
        out.check(roundtrip, || {
            "a replayed frame does not decode to itself".into()
        });
        let encode_us = replay_mean_us(frames.len(), |i| {
            let (q, r) = &frames[i];
            let _ = std::hint::black_box((encode_frame(q), encode_frame(r)));
        });
        let decode_us = replay_mean_us(encoded.len(), |i| {
            let (q, r) = &encoded[i];
            let _ = std::hint::black_box((decode_frame(q), decode_frame(r)));
        });
        let bytes: Vec<f64> = encoded
            .iter()
            .map(|(q, r)| (q.len() + r.len()) as f64)
            .collect();
        out.per_layer.push("protocol.encode_us", encode_us, "us");
        out.per_layer.push("protocol.decode_us", decode_us, "us");
        out.per_layer
            .push("protocol.bytes_per_request", mean(&bytes), "bytes");
    }
}
