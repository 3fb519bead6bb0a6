//! Model builds: the paper's recipe from schema generation to a trained
//! model, run either as the library runs it (untraced, one call per
//! stage) or layer by layer with every layer call timed (traced).

use std::time::Instant;
use zsdb_catalog::{SchemaCatalog, SchemaGenerator};
use zsdb_core::dataset::{collect_training_corpus, TrainingDataConfig};
use zsdb_core::features::featurize_execution;
use zsdb_core::{
    FeaturizerConfig, FinetuneConfig, ModelConfig, TrainedModel, Trainer, TrainingConfig,
};
use zsdb_engine::{EngineConfig, Executor, HardwareProfile, QueryExecution, QueryRunner};
use zsdb_multitask::{
    sample_from_execution, samples_from_executions, MultiTaskConfig, MultiTaskTrainer,
    TrainedMultiTaskModel,
};
use zsdb_query::WorkloadGenerator;
use zsdb_storage::Database;

/// What one build trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// One single-task cost model (`Trainer::train`).
    Single,
    /// A single-task model plus a fine-tuned second version of it, the
    /// pair a server alternates between on hot-swaps.
    SingleWithFinetune,
    /// One multi-task model (`MultiTaskTrainer::train`).
    Multi,
}

/// A build: the training corpus to collect and the model to train on it.
#[derive(Debug, Clone)]
pub struct Recipe {
    pub data: TrainingDataConfig,
    pub training: TrainingConfig,
    pub featurizer: FeaturizerConfig,
    pub head: Head,
}

/// Graphs the fine-tuned second version is adapted on.
const FINETUNE_GRAPHS: usize = 64;

/// The trained result of a build.
#[derive(Debug, Clone)]
pub enum Models {
    Single(TrainedModel),
    /// The trained model and its fine-tuned second version.
    Pair(TrainedModel, TrainedModel),
    Multi(TrainedMultiTaskModel),
}

/// One finished build.
pub struct Build {
    pub models: Models,
    pub corpus: Vec<QueryExecution>,
    /// Wall time from schema generation to the trained model(s).
    pub secs: f64,
    /// Training graphs seen per epoch (the graphs before the validation
    /// split) and epochs run, for the trainer's graphs-per-second rate.
    pub train_graphs: usize,
    pub epochs_run: usize,
}

/// Time spent inside each layer's public calls during a traced build.
#[derive(Debug, Clone, Default)]
pub struct BuildLayers {
    /// `Database::generate` + `create_random_indexes`.
    pub datagen_s: f64,
    /// `QueryRunner::plan`.
    pub plan_s: f64,
    /// `Executor::execute`.
    pub exec_s: f64,
    /// Σ `WorkMetrics.input_tuples` over every executed plan.
    pub exec_input_tuples: u64,
    /// `featurize_execution` (multi-task: `sample_from_execution`) over the corpus.
    pub featurize_s: f64,
    /// `Trainer::train` / `MultiTaskTrainer::train` (+ fine-tuning).
    pub train_s: f64,
}

impl BuildLayers {
    /// The build's named layer parts, in pipeline order.
    pub fn parts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("storage.datagen_s", self.datagen_s),
            ("engine.plan_s", self.plan_s),
            ("engine.exec_s", self.exec_s),
            ("core.featurize_s", self.featurize_s),
            ("core.train_s", self.train_s),
        ]
    }
}

/// Σ input tuples of a corpus's executed plans.
pub fn input_tuples(corpus: &[QueryExecution]) -> u64 {
    corpus.iter().map(|e| e.total_work().input_tuples).sum()
}

fn schemas_of(data: &TrainingDataConfig) -> Vec<SchemaCatalog> {
    SchemaGenerator::new(data.schema_config.clone()).generate_corpus(
        "train",
        data.num_databases,
        data.seed,
    )
}

fn catalog<'a>(schemas: &'a [SchemaCatalog], name: &str) -> &'a SchemaCatalog {
    schemas
        .iter()
        .find(|s| s.name == name)
        .expect("catalog for corpus database")
}

impl Recipe {
    fn trainer(&self) -> Trainer {
        Trainer::new(ModelConfig::default(), self.training, self.featurizer)
    }

    fn multitask_trainer(&self) -> MultiTaskTrainer {
        MultiTaskTrainer::new(MultiTaskConfig::default(), self.training, self.featurizer)
    }

    fn validation_len(&self, graphs: usize) -> usize {
        ((graphs as f64) * self.training.validation_fraction) as usize
    }

    /// Train on an already featurized corpus (single-task heads).
    fn train_single(&self, graphs: &[zsdb_core::PlanGraph]) -> (Models, usize) {
        let model = self.trainer().train(graphs);
        let epochs = model.training_curve.len();
        let models = if self.head == Head::SingleWithFinetune {
            let adapt = &graphs[..graphs.len().min(FINETUNE_GRAPHS)];
            let tuned = Trainer::finetune_from(
                &model,
                adapt,
                FinetuneConfig {
                    epochs: 3,
                    ..FinetuneConfig::default()
                },
            );
            Models::Pair(model, tuned)
        } else {
            Models::Single(model)
        };
        (models, epochs)
    }

    /// The build as the library runs it: `collect_training_corpus`, then
    /// the featurizer over the corpus, then the trainer.
    pub fn build(&self) -> Build {
        let started = Instant::now();
        let corpus = collect_training_corpus(&self.data);
        let schemas = schemas_of(&self.data);
        let (models, graphs, epochs_run) = match self.head {
            Head::Multi => {
                let samples = samples_from_executions(
                    &corpus,
                    |name| catalog(&schemas, name),
                    self.featurizer,
                );
                let model = self.multitask_trainer().train(&samples);
                let epochs = model.training_curve.len();
                (Models::Multi(model), samples.len(), epochs)
            }
            Head::Single | Head::SingleWithFinetune => {
                let graphs = self
                    .trainer()
                    .featurize_corpus(&corpus, |name| catalog(&schemas, name));
                let (models, epochs) = self.train_single(&graphs);
                (models, graphs.len(), epochs)
            }
        };
        Build {
            models,
            secs: started.elapsed().as_secs_f64(),
            train_graphs: graphs - self.validation_len(graphs),
            epochs_run,
            corpus,
        }
    }

    /// The same build decomposed into its layer calls, each timed: the
    /// corpus is collected exactly as `collect_training_corpus` collects
    /// it (same seeds, same order), so the caller can check that the two
    /// corpora are equal and the layer times describe the work `build`
    /// does.
    pub fn build_traced(&self) -> (Build, BuildLayers) {
        let mut layers = BuildLayers::default();
        let started = Instant::now();
        let config = &self.data;
        let schemas = schemas_of(config);
        let mut corpus = Vec::new();
        for (i, schema) in schemas.iter().enumerate() {
            let db_seed = config.seed.wrapping_add(1000 + i as u64);
            let t = Instant::now();
            let mut db = Database::generate(schema.clone(), db_seed);
            if config.random_indexes_per_database > 0 {
                db.create_random_indexes(config.random_indexes_per_database, db_seed ^ 0xA5A5);
            }
            layers.datagen_s += t.elapsed().as_secs_f64();
            // collect_for_database(db, spec, n, db_seed ^ 0x77) → run_workload(queries, seed ^ 0x1234).
            let workload_seed = db_seed ^ 0x77;
            let queries = WorkloadGenerator::new(config.workload_spec.clone()).generate(
                db.catalog(),
                config.queries_per_database,
                workload_seed,
            );
            let profile = HardwareProfile::default();
            let runner = QueryRunner::new(&db, EngineConfig::default(), profile.clone());
            let executor = Executor::new(&db);
            let noise_base = workload_seed ^ 0x1234;
            for (q, query) in queries.iter().enumerate() {
                let t = Instant::now();
                let plan = runner.plan(query);
                layers.plan_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let result = executor.execute(&plan);
                layers.exec_s += t.elapsed().as_secs_f64();
                layers.exec_input_tuples += result.root.total_work().input_tuples;
                let runtime_secs =
                    profile.plan_runtime_secs(&result.root, noise_base.wrapping_add(q as u64));
                corpus.push(QueryExecution {
                    database: db.catalog().name.clone(),
                    query: query.clone(),
                    plan,
                    executed: result.root,
                    aggregates: result.aggregates,
                    runtime_secs,
                });
            }
        }
        let (models, graphs, epochs_run) = match self.head {
            Head::Multi => {
                let t = Instant::now();
                let samples: Vec<_> = corpus
                    .iter()
                    .map(|e| {
                        sample_from_execution(catalog(&schemas, &e.database), e, self.featurizer)
                    })
                    .collect();
                layers.featurize_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let model = self.multitask_trainer().train(&samples);
                layers.train_s = t.elapsed().as_secs_f64();
                let epochs = model.training_curve.len();
                (Models::Multi(model), samples.len(), epochs)
            }
            Head::Single | Head::SingleWithFinetune => {
                let t = Instant::now();
                let graphs: Vec<_> = corpus
                    .iter()
                    .map(|e| {
                        featurize_execution(catalog(&schemas, &e.database), e, self.featurizer)
                    })
                    .collect();
                layers.featurize_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let (models, epochs) = self.train_single(&graphs);
                layers.train_s = t.elapsed().as_secs_f64();
                (models, graphs.len(), epochs)
            }
        };
        let build = Build {
            models,
            secs: started.elapsed().as_secs_f64(),
            train_graphs: graphs - self.validation_len(graphs),
            epochs_run,
            corpus,
        };
        (build, layers)
    }
}

/// Whether two corpora are equal bit for bit (runtimes compared by bit
/// pattern, everything else structurally).
pub fn same_corpus(a: &[QueryExecution], b: &[QueryExecution]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.runtime_secs.to_bits() == y.runtime_secs.to_bits() && x == y)
}
