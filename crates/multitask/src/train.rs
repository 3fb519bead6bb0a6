//! Joint training of multi-task models.
//!
//! There is no multi-task training loop: [`MultiTaskTrainer`] is
//! [`zsdb_core::Trainer`] over [`MultiTaskConfig`], the one epoch loop of
//! the workspace, running on the same deterministic sharded mini-batch
//! engine as the single-task model.  Every optimizer step forwards a
//! shuffled mini-batch through the shared encoder once, splits it into
//! fixed-size micro-batch shards whose joint-loss gradients are computed
//! independently (optionally on worker threads) and reduced in ascending
//! shard order.  Shard boundaries depend only on the configuration —
//! never on the thread count — so 1-thread and N-thread training produce
//! **bit-identical** weights.  Fine-tuning
//! ([`Trainer::finetune_from`](zsdb_core::Trainer::finetune_from)) is the
//! same loop continued from trained weights.
//!
//! This module holds what is multi-task about training: the per-task
//! q-error metrics and the trained artifact.  The joint loss itself is
//! [`MultiTaskModel::accumulate_gradients_batch`].

use crate::model::{MultiTaskConfig, MultiTaskModel, MultiTaskPrediction};
use serde::{Deserialize, Serialize};
use zsdb_core::features::{FeaturizerConfig, PlanGraph};
use zsdb_core::{TrainedArtifact, Trainer, TrainingStats};

/// Median q-error of every task head over one evaluation set.
///
/// Cardinality q-errors are computed on `1 + rows` (the same `ln(1+·)`
/// smoothing the training targets use), so empty intermediate results do
/// not blow the ratio up to the `1e-9` floor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskQErrors {
    /// Median q-error of the runtime-cost head.
    pub cost: f64,
    /// Median q-error of the root-result cardinality head.
    pub root_card: f64,
    /// Median q-error of the per-operator cardinality head (over all
    /// operators of all plans).
    pub op_card: f64,
}

/// A trained multi-task model together with its featurizer configuration
/// and per-task training statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedMultiTaskModel {
    /// The trained model.
    pub model: MultiTaskModel,
    /// Featurizer configuration used during training (required to
    /// featurize requests identically at inference time).
    pub featurizer: FeaturizerConfig,
    /// Per-task median training q-errors of the returned weights.
    pub final_train_qerrors: TaskQErrors,
    /// Per-task median validation q-errors of the returned weights
    /// (`None` without a validation split).
    pub final_validation_qerrors: Option<TaskQErrors>,
    /// Per-epoch per-task median q-errors of the epoch's own training
    /// forwards (one entry per epoch actually run).
    pub training_curve: Vec<TaskQErrors>,
    /// Per-epoch monitored validation cost q-errors (empty without a
    /// validation split).
    pub validation_curve: Vec<f64>,
    /// Whether early stopping ended training before the epoch cap.
    pub stopped_early: bool,
}

impl TrainedMultiTaskModel {
    /// Predict every task for one plan graph.
    pub fn predict(&self, graph: &PlanGraph) -> MultiTaskPrediction {
        self.model.predict(graph)
    }

    /// Batched all-task prediction, bit-identical per graph to
    /// [`TrainedMultiTaskModel::predict`].
    pub fn predict_batch(&self, graphs: &[&PlanGraph]) -> Vec<MultiTaskPrediction> {
        self.model.predict_batch(graphs)
    }

    /// Serialize to JSON (for persistence).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trained model serialization cannot fail")
    }

    /// Restore from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl TrainedArtifact for TrainedMultiTaskModel {
    type Model = MultiTaskModel;

    fn from_training(
        model: MultiTaskModel,
        featurizer: FeaturizerConfig,
        stats: TrainingStats<TaskQErrors>,
    ) -> Self {
        TrainedMultiTaskModel {
            model,
            featurizer,
            final_train_qerrors: stats.final_train,
            final_validation_qerrors: stats.final_validation,
            training_curve: stats.training_curve,
            validation_curve: stats.validation_curve,
            stopped_early: stats.stopped_early,
        }
    }

    fn parts(&self) -> (&MultiTaskModel, FeaturizerConfig) {
        (&self.model, self.featurizer)
    }
}

/// Trainer of multi-task models: the generic [`zsdb_core::Trainer`] over
/// [`MultiTaskConfig`].  Its `TrainingConfig` and `FinetuneConfig` mean
/// exactly what they mean for the single-task model.
pub type MultiTaskTrainer = Trainer<MultiTaskConfig>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::sample_from_execution;
    use crate::MultiTaskSample;
    use zsdb_catalog::presets;
    use zsdb_core::dataset::{collect_training_corpus, TrainingDataConfig};
    use zsdb_core::{
        FinetuneConfig, ModelConfig, Trainable, TrainableConfig, TrainedModel, TrainingConfig,
    };
    use zsdb_engine::QueryRunner;
    use zsdb_obs::Tracer;
    use zsdb_query::WorkloadGenerator;
    use zsdb_storage::Database;

    type Sample<T> = <<T as TrainedArtifact>::Model as Trainable>::Sample;

    /// A trained artifact the trainer behaviour tests below run against:
    /// its model configuration and tiny corpus, plus every bit the tests
    /// compare.
    trait Fixture: TrainedArtifact + Sized {
        /// The configuration [`Trainer`] is generic over.
        type Config: TrainableConfig<Model = Self::Model>;
        /// A tiny trainer with the given training loop.
        fn trainer(training: TrainingConfig) -> Trainer<Self::Config>;
        /// The tiny labelled corpus.
        fn samples() -> Vec<Sample<Self>>;
        /// JSON of the model weights alone.
        fn model_json(&self) -> String;
        /// JSON of the whole artifact.
        fn to_json(&self) -> String;
        /// Restore from [`Fixture::to_json`].
        fn from_json(json: &str) -> Self;
        /// Every output bit of every head for one sample.
        fn bits(&self, sample: &Sample<Self>) -> Vec<u64>;
        /// Per-epoch per-task training q-errors.
        fn training_curve(&self) -> Vec<Vec<f64>>;
        /// Per-epoch validation cost q-errors.
        fn validation_curve(&self) -> &[f64];
        /// Final validation cost q-error.
        fn final_validation_cost(&self) -> Option<f64>;
        /// Whether early stopping fired.
        fn stopped_early(&self) -> bool;
    }

    impl Fixture for TrainedModel {
        type Config = ModelConfig;

        fn trainer(training: TrainingConfig) -> Trainer {
            Trainer::new(ModelConfig::tiny(), training, FeaturizerConfig::exact())
        }

        fn samples() -> Vec<PlanGraph> {
            let config = TrainingDataConfig::tiny();
            let corpus = collect_training_corpus(&config);
            // Rebuild the catalogs the corpus was generated from.
            let schemas = zsdb_catalog::SchemaGenerator::new(config.schema_config.clone())
                .generate_corpus("train", config.num_databases, config.seed);
            Self::trainer(TrainingConfig::tiny()).featurize_corpus(&corpus, |name| {
                schemas
                    .iter()
                    .find(|s| s.name == name)
                    .expect("catalog for corpus database")
            })
        }

        fn model_json(&self) -> String {
            self.model.to_json()
        }

        fn to_json(&self) -> String {
            TrainedModel::to_json(self)
        }

        fn from_json(json: &str) -> Self {
            TrainedModel::from_json(json).unwrap()
        }

        fn bits(&self, graph: &PlanGraph) -> Vec<u64> {
            vec![self.predict(graph).to_bits()]
        }

        fn training_curve(&self) -> Vec<Vec<f64>> {
            self.training_curve.iter().map(|&q| vec![q]).collect()
        }

        fn validation_curve(&self) -> &[f64] {
            &self.validation_curve
        }

        fn final_validation_cost(&self) -> Option<f64> {
            self.final_validation_qerror
        }

        fn stopped_early(&self) -> bool {
            self.stopped_early
        }
    }

    impl Fixture for TrainedMultiTaskModel {
        type Config = MultiTaskConfig;

        fn trainer(training: TrainingConfig) -> MultiTaskTrainer {
            MultiTaskTrainer::new(
                MultiTaskConfig::tiny(),
                training,
                FeaturizerConfig::estimated(),
            )
        }

        fn samples() -> Vec<MultiTaskSample> {
            let mut samples = Vec::new();
            for seed in [3u64, 4] {
                let db = Database::generate(presets::imdb_like(0.02), seed);
                let runner = QueryRunner::with_defaults(&db);
                let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 30, seed);
                samples.extend(runner.run_workload(&queries, 0).iter().map(|e| {
                    sample_from_execution(db.catalog(), e, FeaturizerConfig::estimated())
                }));
            }
            samples
        }

        fn model_json(&self) -> String {
            self.model.to_json()
        }

        fn to_json(&self) -> String {
            TrainedMultiTaskModel::to_json(self)
        }

        fn from_json(json: &str) -> Self {
            TrainedMultiTaskModel::from_json(json).unwrap()
        }

        fn bits(&self, sample: &MultiTaskSample) -> Vec<u64> {
            let p = self.predict(&sample.graph);
            let heads = [p.runtime_secs, p.root_rows].into_iter();
            heads.chain(p.operator_rows).map(f64::to_bits).collect()
        }

        fn training_curve(&self) -> Vec<Vec<f64>> {
            let curve = self.training_curve.iter();
            curve
                .map(|q| vec![q.cost, q.root_card, q.op_card])
                .collect()
        }

        fn validation_curve(&self) -> &[f64] {
            &self.validation_curve
        }

        fn final_validation_cost(&self) -> Option<f64> {
            self.final_validation_qerrors.map(|q| q.cost)
        }

        fn stopped_early(&self) -> bool {
            self.stopped_early
        }
    }

    /// The shard boundaries are fixed by `microbatch_size` and shard
    /// gradients are reduced in ascending shard order, so the thread count
    /// must not change a single bit of the trained weights, curves or
    /// predictions.
    fn training_is_thread_count_deterministic<T: Fixture>() {
        let samples = T::samples();
        let base = TrainingConfig {
            epochs: 3,
            batch_size: 8,
            microbatch_size: 3,
            validation_fraction: 0.1,
            early_stopping_patience: 0,
            ..TrainingConfig::tiny()
        };
        let train_with = |threads| T::trainer(TrainingConfig { threads, ..base }).train(&samples);
        let [one, two, four] = [1, 2, 4].map(train_with);
        for other in [&two, &four] {
            assert_eq!(one.model_json(), other.model_json());
            assert_eq!(one.training_curve(), other.training_curve());
            assert_eq!(one.validation_curve(), other.validation_curve());
            for s in samples.iter().take(10) {
                assert_eq!(one.bits(s), other.bits(s));
            }
        }
        assert_eq!(one.validation_curve().len(), 3);
    }

    /// Fine-tuning runs the same sharded engine: 1, 2 and 4 threads give
    /// the same bits, the weights move, and the featurizer rides along.
    fn finetuning_is_thread_count_deterministic<T: Fixture>() {
        let samples = T::samples();
        let base = T::trainer(TrainingConfig {
            epochs: 2,
            ..TrainingConfig::tiny()
        })
        .train(&samples);
        let finetune_set = &samples[..12];
        let tune = |threads| {
            Trainer::finetune_from(
                &base,
                finetune_set,
                FinetuneConfig {
                    epochs: 4,
                    batch_size: 8,
                    microbatch_size: 3,
                    threads,
                    ..FinetuneConfig::default()
                },
            )
        };
        let [one, two, four] = [1, 2, 4].map(tune);
        for other in [&two, &four] {
            assert_eq!(one.model_json(), other.model_json());
            assert_eq!(one.training_curve(), other.training_curve());
            for s in finetune_set {
                assert_eq!(one.bits(s), other.bits(s));
            }
        }
        assert_eq!(one.training_curve().len(), 4);
        assert_ne!(one.model_json(), base.model_json());
        assert_eq!(one.parts().1, base.parts().1);
    }

    /// A tracer records one event per epoch of training and of
    /// fine-tuning, and never changes the weights.
    fn tracer_records_epochs_without_changing_weights<T: Fixture>() {
        let samples = T::samples();
        let trainer = T::trainer(TrainingConfig {
            epochs: 3,
            ..TrainingConfig::tiny()
        });
        let tracer = Tracer::new(64);
        let plain = trainer.train(&samples);
        let traced = trainer.clone().with_tracer(tracer.clone()).train(&samples);
        assert_eq!(
            plain.model_json(),
            traced.model_json(),
            "tracing must not perturb training"
        );
        let epochs: Vec<_> = tracer
            .events(16)
            .into_iter()
            .filter(|e| e.name == "train.epoch_secs")
            .collect();
        assert_eq!(epochs.len(), 3, "one event per epoch");
        assert!(epochs.iter().all(|e| e.value >= 0.0));
        assert!(epochs.iter().all(|e| e.detail.contains("shard gradients")));

        let config = FinetuneConfig {
            epochs: 2,
            ..FinetuneConfig::default()
        };
        let untraced = Trainer::finetune_from(&plain, &samples[..8], config);
        let tuned = Trainer::finetune_from_traced(&plain, &samples[..8], config, Some(&tracer));
        assert_eq!(tuned.model_json(), untraced.model_json());
        assert_eq!(tuned.training_curve().len(), 2);
        let finetune_epochs = tracer
            .events(32)
            .into_iter()
            .filter(|e| e.name == "finetune.epoch_secs")
            .count();
        assert_eq!(finetune_epochs, 2);
    }

    /// A trained artifact survives a JSON round trip bit for bit.
    fn serialization_roundtrips<T: Fixture>() {
        let samples = T::samples();
        let trained = T::trainer(TrainingConfig {
            epochs: 2,
            ..TrainingConfig::tiny()
        })
        .train(&samples);
        let restored = T::from_json(&trained.to_json());
        for s in samples.iter().take(5) {
            assert_eq!(restored.bits(s), trained.bits(s));
        }
        assert_eq!(restored.parts().1, trained.parts().1);
        assert_eq!(restored.stopped_early(), trained.stopped_early());
        assert_eq!(restored.training_curve(), trained.training_curve());
        assert_eq!(restored.validation_curve(), trained.validation_curve());
    }

    /// A validation split is evaluated every epoch, and with early
    /// stopping the returned weights are the best monitored epoch's.
    fn validation_and_early_stopping_return_the_best_epoch<T: Fixture>() {
        let samples = T::samples();
        let trained = T::trainer(TrainingConfig {
            epochs: 60,
            validation_fraction: 0.25,
            early_stopping_patience: 2,
            ..TrainingConfig::tiny()
        })
        .train(&samples);
        let epochs = trained.training_curve().len();
        assert_eq!(trained.validation_curve().len(), epochs);
        let final_val = trained
            .final_validation_cost()
            .expect("validation split requested");
        assert!(final_val.is_finite());
        let best_seen = trained
            .validation_curve()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            (final_val - best_seen).abs() < 1e-12,
            "returned model should be the best epoch: best {best_seen}, got {final_val}"
        );
        assert!(
            trained.stopped_early() || epochs == 60,
            "curve bookkeeping is consistent"
        );
    }

    macro_rules! for_both_models {
        ($($behaviour:ident),* $(,)?) => {
            mod single_task {
                $(#[test]
                fn $behaviour() {
                    super::$behaviour::<zsdb_core::TrainedModel>();
                })*
            }
            mod multi_task {
                $(#[test]
                fn $behaviour() {
                    super::$behaviour::<super::TrainedMultiTaskModel>();
                })*
            }
        };
    }

    for_both_models!(
        training_is_thread_count_deterministic,
        finetuning_is_thread_count_deterministic,
        tracer_records_epochs_without_changing_weights,
        serialization_roundtrips,
        validation_and_early_stopping_return_the_best_epoch,
    );

    #[test]
    fn joint_training_improves_every_task() {
        let samples = TrainedMultiTaskModel::samples();
        let trained = TrainedMultiTaskModel::trainer(TrainingConfig {
            epochs: 20,
            ..TrainingConfig::tiny()
        })
        .train(&samples);
        let first = trained.training_curve.first().unwrap();
        let last = trained.final_train_qerrors;
        assert!(
            last.cost < first.cost,
            "cost q-error should improve: {} -> {}",
            first.cost,
            last.cost
        );
        assert!(
            last.op_card < first.op_card,
            "op-card q-error should improve: {} -> {}",
            first.op_card,
            last.op_card
        );
        // The root-cardinality median starts degenerate on a tiny corpus
        // (many queries return zero rows and the fresh head predicts zero,
        // so the initial median q-error is already ~1); assert the trained
        // head stays accurate rather than strictly improving.
        assert!(
            last.root_card < 4.0,
            "trained root-card q-error too high: {}",
            last.root_card
        );
        assert!(
            last.cost < 2.5,
            "trained cost q-error too high: {}",
            last.cost
        );
    }
}
