//! `offline_build`: the paper's recipe.  Build a zero-shot cost model
//! from a fixed corpus of generated training databases, then score it on
//! an unseen IMDB-like database's JOB-light queries.

use crate::pace::{Pace, Window, PACE_PASSES};
use crate::recipe::{input_tuples, same_corpus, Build, Head, Models, Recipe};
use crate::report::{median, peak_rss_mb, percentile, reset_peak_rss, Breakdown, Outcome, Phase};
use crate::{replay_mean_us, Args, Size};
use std::time::Instant;
use zsdb_catalog::{presets, GeneratorConfig};
use zsdb_core::dataset::TrainingDataConfig;
use zsdb_core::features::{featurize_execution, featurize_plan};
use zsdb_core::{FeaturizerConfig, InferenceScratch, TrainedModel, TrainingConfig};
use zsdb_engine::{QueryExecution, QueryRunner};
use zsdb_nn::q_error;
use zsdb_query::{BenchmarkWorkload, WorkloadKind};
use zsdb_storage::Database;

/// The unseen database and its ground truth: built in set-up.
pub struct Holdout {
    pub db: Database,
    pub truth: Vec<QueryExecution>,
}

/// Generate the unseen IMDB-like database from the workload seed and
/// execute its JOB-light queries for ground-truth runtimes.
pub fn holdout(scale: f64, queries: usize, seed: u64) -> Holdout {
    let db = Database::generate(presets::imdb_like(scale), seed);
    let workload =
        BenchmarkWorkload::generate(WorkloadKind::JobLight, db.catalog(), queries, seed ^ 0x77);
    let truth = QueryRunner::with_defaults(&db).run_workload(&workload.queries, seed ^ 0x99);
    Holdout { db, truth }
}

/// The training corpus is the same for every seed: with the default
/// schema generator, the work of a corpus varies several-fold between
/// schema seeds, which would make `build_s` measure the seed rather than
/// the code.  The seed picks the unseen database and its queries.
fn recipe(size: Size) -> Recipe {
    match size {
        Size::Full => Recipe {
            data: TrainingDataConfig {
                num_databases: 6,
                queries_per_database: 100,
                random_indexes_per_database: 3,
                ..TrainingDataConfig::default()
            },
            training: TrainingConfig {
                epochs: 12,
                ..TrainingConfig::default()
            },
            featurizer: FeaturizerConfig::default(),
            head: Head::Single,
        },
        Size::Tiny => Recipe {
            data: TrainingDataConfig {
                num_databases: 2,
                queries_per_database: 20,
                random_indexes_per_database: 2,
                schema_config: GeneratorConfig::tiny(),
                ..TrainingDataConfig::default()
            },
            training: TrainingConfig {
                epochs: 2,
                ..TrainingConfig::default()
            },
            featurizer: FeaturizerConfig::default(),
            head: Head::Single,
        },
    }
}

/// Predictions per scoring window: about 0.1 s, with twenty samples
/// beyond a window's 99th percentile.
const WINDOW: usize = 2000;

/// Reference passes after each scoring window.
const WINDOW_PASSES: usize = 3;

/// Holdout scoring of one model, pass after pass.
struct Scored {
    /// The first pass's predictions.
    predictions: Vec<f64>,
    phase: Phase,
    /// Consecutive windows of `WINDOW` predictions (a last partial one
    /// is left out).
    windows: Vec<Window>,
}

/// Predict every held-out query, pass after pass, for at least
/// `min_secs` and one full window (one pass takes a few tens of
/// milliseconds).  A prediction fails when it is not finite or differs
/// from the first pass's.
fn score(
    model: &TrainedModel,
    holdout: &Holdout,
    min_secs: f64,
    name: &'static str,
    pace: &mut Pace,
) -> Scored {
    let mut predictions = Vec::with_capacity(holdout.truth.len());
    let mut windows = Vec::new();
    let mut latencies_ms = Vec::with_capacity(WINDOW);
    let mut phase = Phase::new(name);
    let started = Instant::now();
    let mut window_started = started;
    while windows.is_empty() || started.elapsed().as_secs_f64() < min_secs {
        let first_pass = predictions.is_empty();
        for (i, execution) in holdout.truth.iter().enumerate() {
            let t = Instant::now();
            let graph = featurize_execution(holdout.db.catalog(), execution, model.featurizer);
            let prediction = model.predict(&graph);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if first_pass {
                predictions.push(prediction);
            }
            phase.sent += 1;
            if prediction.is_finite() && prediction.to_bits() == predictions[i].to_bits() {
                phase.succeeded += 1;
            } else {
                phase.failed += 1;
            }
            if latencies_ms.len() == WINDOW {
                let qps = WINDOW as f64 / window_started.elapsed().as_secs_f64();
                windows.push(Window {
                    qps,
                    p50_ms: percentile(&latencies_ms, 50.0),
                    p99_ms: percentile(&latencies_ms, 99.0),
                    slow: pace.sample(WINDOW_PASSES),
                });
                latencies_ms.clear();
                window_started = Instant::now();
            }
        }
    }
    Scored {
        predictions,
        phase,
        windows,
    }
}

/// Median over `windows` of one unscaled figure.
fn median_of(windows: &[Window], figure: impl Fn(&Window) -> f64) -> f64 {
    median(&windows.iter().map(figure).collect::<Vec<_>>())
}

fn single(build: &Build) -> &TrainedModel {
    match &build.models {
        Models::Single(model) => model,
        _ => unreachable!("offline_build trains a single-task model"),
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let recipe = recipe(args.size);
    let (scale, queries, setups, min_builds, score_secs) = match args.size {
        Size::Full => (0.04, 1000, 3, 3, 0.5),
        Size::Tiny => (0.01, 30, 2, 1, 0.02),
    };

    // Set-up: the unseen database and its ground truth, several times.
    let mut setup_secs = Vec::new();
    let mut fixture: Option<Holdout> = None;
    let mut pace = Pace::default();
    pace.sample(PACE_PASSES);
    for _ in 0..setups {
        let t = Instant::now();
        let next = holdout(scale, queries, args.seed);
        setup_secs.push((t.elapsed().as_secs_f64(), pace.sample(PACE_PASSES)));
        if let Some(prev) = &fixture {
            out.check(prev.truth == next.truth, || {
                "ground truth differs between identical set-ups".into()
            });
        }
        fixture = Some(next);
    }
    let holdout = fixture.expect("at least one set-up");
    let setup_peak_mb = peak_rss_mb();
    reset_peak_rss();

    // Timed phase: whole builds, each scored on the unseen database, with
    // the machine's pace sampled around every build and after every
    // scoring window.  The figures are medians over the run's builds and
    // scoring windows, at the nominal pace (see `pace`).
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut phase = Phase::new("timed");
    let mut build_secs = Vec::new();
    let mut windows = Vec::new();
    let mut first: Option<Vec<f64>> = None;
    let mut last_build: Option<Build> = None;
    let started = Instant::now();
    while build_secs.len() < min_builds || started.elapsed().as_secs_f64() < budget {
        pace.sample(PACE_PASSES);
        let build = recipe.build();
        build_secs.push((build.secs, pace.sample(PACE_PASSES)));
        let scored = score(single(&build), &holdout, score_secs, "timed", &mut pace);
        phase.add(&scored.phase);
        windows.extend(scored.windows);
        match &first {
            None => first = Some(scored.predictions),
            Some(reference) => out.check(same_bits(reference, &scored.predictions), || {
                "two builds of the same corpus predict differently".into()
            }),
        }
        last_build = Some(build);
    }
    out.check(phase.failed == 0, || {
        format!(
            "{} held-out predictions are not finite or not repeatable",
            phase.failed
        )
    });
    out.phases.push(phase);
    let predictions = first.expect("at least one build");
    let build = last_build.expect("at least one build");
    let qerrors: Vec<f64> = predictions
        .iter()
        .zip(&holdout.truth)
        .map(|(p, e)| q_error(*p, e.runtime_secs))
        .collect();

    let m = &mut out.end_to_end;
    m.push("holdout_qerror_p50", percentile(&qerrors, 50.0), "ratio");
    m.push("holdout_qerror_p95", percentile(&qerrors, 95.0), "ratio");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    pace.report(&mut out, &setup_secs, &build_secs, &windows);
    out.details.push(("setup_peak_rss_mb", setup_peak_mb));
    out.details.push(("builds", build_secs.len() as f64));
    out.details.push(("scoring_windows", windows.len() as f64));
    out.details
        .push(("holdout_queries", holdout.truth.len() as f64));
    out.details
        .push(("corpus_executions", build.corpus.len() as f64));

    if args.trace {
        let traced = trace_build(&recipe, &build, &mut out);
        let scored = score(single(&traced), &holdout, score_secs, "traced", &mut pace);
        out.check(same_bits(&predictions, &scored.predictions), || {
            "the traced build's model predicts differently from the untraced build's".into()
        });
        out.phases.push(scored.phase);
        let p = &mut out.per_layer;
        p.push(
            "trace.build_overhead_s",
            traced.secs - median(&build_secs.iter().map(|b| b.0).collect::<Vec<_>>()),
            "s",
        );
        p.push(
            "trace.latency_overhead_ms",
            median_of(&scored.windows, |w| w.p50_ms) - median_of(&windows, |w| w.p50_ms),
            "ms",
        );
        replay(&mut out, single(&traced), &holdout);
    }
    out
}

/// Run the recipe layer by layer, check that it did the same work as the
/// untraced `build`, and record the layer metrics and the `build_s`
/// breakdown.  Shared by every workload (each builds its models).
pub fn trace_build(recipe: &Recipe, untraced: &Build, out: &mut Outcome) -> Build {
    let (traced, layers) = recipe.build_traced();
    out.check(same_corpus(&untraced.corpus, &traced.corpus), || {
        "the layer-by-layer corpus differs from collect_training_corpus".into()
    });
    let untraced_tuples = input_tuples(&untraced.corpus);
    out.check(untraced_tuples == layers.exec_input_tuples, || {
        format!(
            "engine.exec_input_tuples differs: untraced {untraced_tuples}, traced {}",
            layers.exec_input_tuples
        )
    });
    let p = &mut out.per_layer;
    p.push("storage.datagen_s", layers.datagen_s, "s");
    p.push("engine.plan_s", layers.plan_s, "s");
    p.push("engine.exec_s", layers.exec_s, "s");
    p.push(
        "engine.exec_tuples_per_s",
        layers.exec_input_tuples as f64 / layers.exec_s,
        "1/s",
    );
    p.push(
        "engine.exec_input_tuples",
        layers.exec_input_tuples as f64,
        "count",
    );
    p.push("core.featurize_s", layers.featurize_s, "s");
    p.push("core.train_s", layers.train_s, "s");
    p.push(
        "core.train_graphs_per_s",
        (traced.epochs_run * traced.train_graphs) as f64 / layers.train_s,
        "1/s",
    );
    let breakdown = Breakdown {
        row: "build_s",
        unit: "s",
        total: traced.secs,
        parts: layers.parts(),
    };
    p.push("build.unattributed_s", breakdown.unattributed(), "s");
    out.breakdowns.push(breakdown);
    out.details.push(("traced_build_s", traced.secs));
    traced
}

/// Single-thread replays of the featurizer and the forward pass over the
/// unseen database's plans.
fn replay(out: &mut Outcome, model: &TrainedModel, holdout: &Holdout) {
    let catalog = holdout.db.catalog();
    let plans: Vec<_> = holdout.truth.iter().map(|e| &e.plan).collect();
    let featurize_us = replay_mean_us(plans.len(), |i| {
        std::hint::black_box(featurize_plan(catalog, plans[i], model.featurizer));
    });
    let graphs: Vec<_> = plans
        .iter()
        .map(|p| featurize_plan(catalog, p, model.featurizer))
        .collect();
    let mut scratch = InferenceScratch::default();
    let forward_us = replay_mean_us(graphs.len(), |i| {
        std::hint::black_box(model.model.predict_with(&graphs[i], &mut scratch));
    });
    out.per_layer
        .push("core.featurize_plan_us", featurize_us, "us");
    out.per_layer.push("nn.forward_us", forward_us, "us");
    out.details.push(("replay_plans", plans.len() as f64));
}
