//! Training, validation and few-shot fine-tuning of zero-shot models.
//!
//! [`Trainer`] is the **batched** trainer, generic over the model it
//! trains ([`Trainable`]: the single-head [`ZeroShotCostModel`] and the
//! multi-task model in `zsdb_multitask`).  Every optimizer step forwards a
//! shuffled mini-batch of plan graphs through the (level, kind)-batched
//! message-passing engine ([`crate::batch`]), with the mini-batch split
//! into fixed-size micro-batch *shards* whose gradients are computed
//! independently (optionally on `std::thread` workers) and reduced in
//! ascending shard order.  Because the shard boundaries depend only on the
//! configuration — never on the thread count — training with 1 thread and
//! with N threads produces **bit-identical** weights.  Fine-tuning
//! ([`Trainer::finetune_from`]) is the same epoch loop continued from
//! trained weights.
//!
//! The original one-graph-at-a-time loop is retained as
//! [`Trainer::train_per_example`]; it is the reference implementation the
//! batched path is benchmarked against (`bench_train`).

use crate::features::{featurize_execution, FeaturizerConfig, PlanGraph};
use crate::model::{ModelConfig, ZeroShotCostModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use zsdb_engine::QueryExecution;
use zsdb_nn::{median, q_error, Adam, ParamBuf};
use zsdb_obs::Tracer;
use zsdb_storage::Database;

/// Hyper-parameters of the training loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Number of passes over the training corpus (upper bound when early
    /// stopping is enabled).
    pub epochs: usize,
    /// Mini-batch size (graphs per optimizer step).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Fraction of training *databases* held out for validation (0 = no
    /// validation split).
    pub validation_fraction: f64,
    /// Shuffling / initialisation seed.
    pub seed: u64,
    /// Fixed shard granularity of data-parallel gradient accumulation:
    /// each mini-batch is split into micro-batches of at most this many
    /// graphs, whose gradients are computed independently and reduced in
    /// ascending micro-batch order.  The shard boundaries depend only on
    /// this value — not on [`TrainingConfig::threads`] — which is what
    /// makes training results independent of the thread count.
    pub microbatch_size: usize,
    /// Worker threads for micro-batch gradient computation (0 = one per
    /// available CPU core).  Any value produces bit-identical weights.
    pub threads: usize,
    /// Early stopping: abort after this many epochs without improvement
    /// of the monitored median Q-error (validation when a split exists,
    /// training otherwise) and return the best epoch's weights.  0
    /// disables early stopping.
    pub early_stopping_patience: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 40,
            batch_size: 16,
            learning_rate: 1.5e-3,
            validation_fraction: 0.1,
            seed: 13,
            microbatch_size: 8,
            threads: 1,
            early_stopping_patience: 6,
        }
    }
}

impl TrainingConfig {
    /// Fast configuration for unit tests.  Early stopping is disabled so
    /// test assertions about full training curves stay deterministic.
    pub fn tiny() -> Self {
        TrainingConfig {
            epochs: 60,
            batch_size: 8,
            validation_fraction: 0.0,
            microbatch_size: 4,
            early_stopping_patience: 0,
            ..TrainingConfig::default()
        }
    }

    /// Effective number of worker threads (resolves the `0 = auto`
    /// setting against the machine's available parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Hyper-parameters of incremental fine-tuning: continuing training from
/// an already-trained model on a (typically small) set of newly observed
/// executions, e.g. few-shot adaptation to an unseen database or an online
/// adaptation round inside the serving layer.
///
/// Fine-tuning runs the epoch loop of [`Trainer::train`] (without a
/// validation split or early stopping), so the 1-thread ≡ N-thread
/// bit-determinism guarantee carries over: the shard boundaries depend
/// only on [`FinetuneConfig::microbatch_size`], never on
/// [`FinetuneConfig::threads`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FinetuneConfig {
    /// Number of passes over the fine-tuning set.
    pub epochs: usize,
    /// Adam learning rate (fine-tuning wants a smaller step than initial
    /// training — the model starts near a good optimum).
    pub learning_rate: f64,
    /// Mini-batch size; `0` means full-batch (one optimizer step per
    /// epoch), the natural choice for few-shot-sized sets.
    pub batch_size: usize,
    /// Micro-batch shard granularity of the deterministic data-parallel
    /// gradient accumulation (see [`TrainingConfig::microbatch_size`]).
    pub microbatch_size: usize,
    /// Worker threads (0 = one per core); any value produces bit-identical
    /// weights.
    pub threads: usize,
    /// Shuffling seed (only relevant when `batch_size` splits the set).
    pub seed: u64,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            epochs: 30,
            learning_rate: 3e-4,
            batch_size: 0,
            microbatch_size: 8,
            threads: 1,
            seed: 17,
        }
    }
}

impl FinetuneConfig {
    /// The training loop that fine-tunes a set of `len` samples: every
    /// sample is trained on, nothing is held out, no early stopping.
    fn as_training(&self, len: usize) -> TrainingConfig {
        TrainingConfig {
            epochs: self.epochs,
            batch_size: if self.batch_size == 0 {
                len
            } else {
                self.batch_size
            },
            learning_rate: self.learning_rate,
            validation_fraction: 0.0,
            seed: self.seed,
            microbatch_size: self.microbatch_size,
            threads: self.threads,
            early_stopping_patience: 0,
        }
    }
}

/// A model the generic [`Trainer`] can train: flat parameter buffers, a
/// batched backward pass of its (joint) loss and per-task q-errors.
///
/// Implemented by the single-head [`ZeroShotCostModel`] and by the
/// multi-task model in `zsdb_multitask`, so both run on one epoch loop
/// and one deterministic data-parallel shard engine, however many task
/// heads hang off the encoder.
pub trait Trainable: Clone + Send + Sync {
    /// Hyper-parameters a fresh model is built from.
    type Config: TrainableConfig<Model = Self>;
    /// One labelled training example.
    type Sample: Sync;
    /// Median q-errors of every task (`f64` for a single head).
    type Metrics: Copy;
    /// What [`Trainer::train`] returns: the model plus its training
    /// statistics.
    type Trained: TrainedArtifact<Model = Self>;
    /// Number of task heads whose q-errors are tracked.  Task 0 is the
    /// runtime cost, the metric validation and early stopping monitor.
    const TASKS: usize;

    /// A freshly initialised model.
    fn from_config(config: Self::Config) -> Self;

    /// Every parameter buffer in canonical order.  This order is the
    /// layout of the flat gradient vectors of the shard reduction.
    fn all_params(&self) -> Vec<&ParamBuf>;

    /// Mutable counterpart of [`Trainable::all_params`], same order.
    fn all_params_mut(&mut self) -> Vec<&mut ParamBuf>;

    /// Accumulate the loss gradients of `samples` in one batched
    /// forward/backward pass (no optimizer step) and push the q-errors of
    /// the training forward onto `qerrors[task]`.
    fn accumulate_shard(&mut self, samples: &[&Self::Sample], qerrors: &mut [Vec<f64>]);

    /// Push the q-errors of the batched forward over `samples` onto
    /// `qerrors[task]`.
    fn push_qerrors(&self, samples: &[&Self::Sample], qerrors: &mut [Vec<f64>]);

    /// The metrics of per-task medians (`medians.len() == TASKS`).
    fn metrics(medians: &[f64]) -> Self::Metrics;

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.all_params_mut() {
            p.zero_grad();
        }
    }

    /// Apply one optimizer step over all parameters, in canonical order.
    fn apply_step(&mut self, adam: &mut Adam) {
        adam.step(&mut self.all_params_mut());
    }

    /// Export the accumulated gradients as one flat vector in canonical
    /// parameter order (cleared and refilled).
    fn export_gradients(&self, out: &mut Vec<f64>) {
        out.clear();
        for p in self.all_params() {
            out.extend_from_slice(&p.grad);
        }
    }

    /// Add a flat gradient vector (as produced by
    /// [`Trainable::export_gradients`]) onto this model's gradient
    /// buffers.  Together with a fixed caller-side reduction order this
    /// makes multi-shard gradient accumulation deterministic.
    fn add_gradients(&mut self, flat: &[f64]) {
        let mut offset = 0;
        for p in self.all_params_mut() {
            let len = p.grad.len();
            for (g, v) in p.grad.iter_mut().zip(&flat[offset..offset + len]) {
                *g += v;
            }
            offset += len;
        }
        assert_eq!(offset, flat.len(), "flat gradient length mismatch");
    }

    /// Copy the parameter *values* (not gradients or optimizer moments)
    /// from `src`.  Refreshes the worker-shard replicas after every
    /// optimizer step; allocation-free (buffer-to-buffer copies).
    fn copy_weights_from(&mut self, src: &Self) {
        let from = src.all_params();
        let dst = self.all_params_mut();
        assert_eq!(dst.len(), from.len(), "model shapes differ");
        for (d, s) in dst.into_iter().zip(from) {
            d.data.copy_from_slice(&s.data);
        }
    }
}

/// The model type a configuration builds: lets [`Trainer`] be generic
/// over its model configuration.
pub trait TrainableConfig: Copy {
    /// The model this configuration builds.
    type Model: Trainable<Config = Self>;
}

/// A trained model with the featurizer it was trained with and its
/// training statistics.
pub trait TrainedArtifact {
    /// The trained model type.
    type Model: Trainable<Trained = Self>;

    /// Package the result of an epoch loop.
    fn from_training(
        model: Self::Model,
        featurizer: FeaturizerConfig,
        stats: TrainingStats<<Self::Model as Trainable>::Metrics>,
    ) -> Self;

    /// The trained model and its featurizer configuration.
    fn parts(&self) -> (&Self::Model, FeaturizerConfig);
}

/// What one run of the epoch loop measured, in the model's metric type.
#[derive(Debug, Clone)]
pub struct TrainingStats<Q> {
    /// Median training q-errors of the returned weights.
    pub final_train: Q,
    /// Median validation q-errors of the returned weights (`None` without
    /// a validation split).
    pub final_validation: Option<Q>,
    /// Per-epoch median q-errors of the epoch's own training forwards
    /// (one entry per epoch actually run).
    pub training_curve: Vec<Q>,
    /// Per-epoch monitored validation cost q-errors (empty without a
    /// validation split).
    pub validation_curve: Vec<f64>,
    /// Whether early stopping ended training before the epoch cap.
    pub stopped_early: bool,
}

/// A trained zero-shot model together with its featurizer configuration and
/// training statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    /// The trained model.
    pub model: ZeroShotCostModel,
    /// Featurizer configuration used during training (and required at
    /// inference time).
    pub featurizer: FeaturizerConfig,
    /// Median training Q-error of the returned weights.
    pub final_train_qerror: f64,
    /// Median validation Q-error of the returned weights (`None` when no
    /// validation split was used).
    pub final_validation_qerror: Option<f64>,
    /// Per-epoch median training Q-errors (training curve; one entry per
    /// epoch actually run).
    pub training_curve: Vec<f64>,
    /// Per-epoch median validation Q-errors (empty without a validation
    /// split).
    pub validation_curve: Vec<f64>,
    /// Whether early stopping ended training before
    /// [`TrainingConfig::epochs`] epochs.
    pub stopped_early: bool,
}

impl TrainedModel {
    /// Predict the runtime (seconds) of a featurized plan.
    pub fn predict(&self, graph: &PlanGraph) -> f64 {
        self.model.predict(graph)
    }

    /// Batched runtime prediction, bit-identical per graph to
    /// [`TrainedModel::predict`].
    pub fn predict_batch(&self, graphs: &[&PlanGraph]) -> Vec<f64> {
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

impl TrainedArtifact for TrainedModel {
    type Model = ZeroShotCostModel;

    fn from_training(
        model: ZeroShotCostModel,
        featurizer: FeaturizerConfig,
        stats: TrainingStats<f64>,
    ) -> Self {
        TrainedModel {
            model,
            featurizer,
            final_train_qerror: stats.final_train,
            final_validation_qerror: stats.final_validation,
            training_curve: stats.training_curve,
            validation_curve: stats.validation_curve,
            stopped_early: stats.stopped_early,
        }
    }

    fn parts(&self) -> (&ZeroShotCostModel, FeaturizerConfig) {
        (&self.model, self.featurizer)
    }
}

/// Trainer of zero-shot models, generic over the model configuration:
/// `Trainer` (= `Trainer<ModelConfig>`) trains the single-head
/// [`ZeroShotCostModel`], `Trainer<MultiTaskConfig>` the multi-task model.
#[derive(Debug, Clone)]
pub struct Trainer<C = ModelConfig> {
    model_config: C,
    training_config: TrainingConfig,
    featurizer: FeaturizerConfig,
    tracer: Option<Tracer>,
}

impl<C: TrainableConfig> Trainer<C> {
    /// Create a trainer.
    pub fn new(
        model_config: C,
        training_config: TrainingConfig,
        featurizer: FeaturizerConfig,
    ) -> Self {
        Trainer {
            model_config,
            training_config,
            featurizer,
            tracer: None,
        }
    }

    /// Attach a [`Tracer`]: [`Trainer::train`] then emits one
    /// `train.epoch_secs` event per epoch (wall time, shard-gradient time
    /// and the epoch's median cost q-error in the detail).  Tracing never
    /// changes the trained weights.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The trainer's training configuration.
    pub fn training_config(&self) -> &TrainingConfig {
        &self.training_config
    }

    /// The trainer's featurizer configuration.
    pub fn featurizer(&self) -> FeaturizerConfig {
        self.featurizer
    }

    /// Train a fresh model on labelled samples with the batched engine:
    /// shuffled mini-batches, (level, kind)-batched message passing,
    /// deterministic sharded gradient accumulation, validation split and
    /// early stopping.
    ///
    /// Samples in the validation tail split are evaluated but never
    /// trained on.  The monitored early-stopping metric is the validation
    /// cost q-error (training cost q-error without a split).
    pub fn train(
        &self,
        samples: &[<C::Model as Trainable>::Sample],
    ) -> <C::Model as Trainable>::Trained {
        let model = C::Model::from_config(self.model_config);
        let (model, stats) = fit(
            model,
            samples,
            &self.training_config,
            "train.epoch_secs",
            self.tracer.as_ref(),
        );
        TrainedArtifact::from_training(model, self.featurizer, stats)
    }

    /// Incrementally fine-tune an already-trained model on newly observed
    /// labelled samples, returning a new trained model; `trained` is not
    /// modified.
    ///
    /// This is the one fine-tuning path in the workspace: few-shot
    /// adaptation ([`few_shot_finetune`]) and the online adaptation loop
    /// in `zsdb_serve` both run through it.  It is the epoch loop of
    /// [`Trainer::train`] continued from the trained weights, so
    /// fine-tuning with 1 thread and with N threads produces
    /// **bit-identical** weights.
    pub fn finetune_from<T>(
        trained: &T,
        samples: &[<T::Model as Trainable>::Sample],
        config: FinetuneConfig,
    ) -> T
    where
        T: TrainedArtifact,
        T::Model: Trainable<Config = C>,
    {
        Self::finetune_from_traced(trained, samples, config, None)
    }

    /// [`Trainer::finetune_from`] emitting one `finetune.epoch_secs`
    /// event per epoch on the given tracer (wall time, shard-gradient
    /// time and the epoch's median cost q-error in the detail).  Tracing
    /// never changes the fine-tuned weights.
    pub fn finetune_from_traced<T>(
        trained: &T,
        samples: &[<T::Model as Trainable>::Sample],
        config: FinetuneConfig,
        tracer: Option<&Tracer>,
    ) -> T
    where
        T: TrainedArtifact,
        T::Model: Trainable<Config = C>,
    {
        assert!(!samples.is_empty(), "fine-tuning needs at least one sample");
        let (model, featurizer) = trained.parts();
        let (model, stats) = fit(
            model.clone(),
            samples,
            &config.as_training(samples.len()),
            "finetune.epoch_secs",
            tracer,
        );
        T::from_training(model, featurizer, stats)
    }
}

impl Trainer {
    /// Trainer with default hyper-parameters and exact-cardinality
    /// featurization.
    pub fn with_defaults() -> Self {
        Trainer::new(
            ModelConfig::default(),
            TrainingConfig::default(),
            FeaturizerConfig::exact(),
        )
    }

    /// Featurize a multi-database corpus of executions.
    ///
    /// Every execution is featurized against the catalog of the database it
    /// ran on — `catalogs` maps database names to catalogs via the supplied
    /// lookup closure.
    pub fn featurize_corpus<'a, F>(
        &self,
        corpus: &[QueryExecution],
        mut catalog_of: F,
    ) -> Vec<PlanGraph>
    where
        F: FnMut(&str) -> &'a zsdb_catalog::SchemaCatalog,
    {
        corpus
            .iter()
            .map(|e| featurize_execution(catalog_of(&e.database), e, self.featurizer))
            .collect()
    }

    /// The pre-batching reference trainer: one graph at a time through
    /// per-node mat-vec message passing, gradients accumulated directly
    /// into the model.
    ///
    /// Kept (verbatim from the original implementation) as the baseline
    /// that `bench_train` measures the batched engine against, and as an
    /// independent oracle for equivalence tests.  New code should use
    /// [`Trainer::train`].
    pub fn train_per_example(&self, graphs: &[PlanGraph]) -> TrainedModel {
        assert!(
            graphs.iter().all(|g| g.runtime_secs.is_some()),
            "all training graphs must carry runtime labels"
        );
        let cfg = &self.training_config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let val_len = ((graphs.len() as f64) * cfg.validation_fraction) as usize;
        let (train_graphs, val_graphs) = graphs.split_at(graphs.len() - val_len);

        let mut model = ZeroShotCostModel::new(self.model_config);
        let mut adam = Adam::new(cfg.learning_rate);
        let mut indices: Vec<usize> = (0..train_graphs.len()).collect();
        let mut training_curve = Vec::with_capacity(cfg.epochs);

        for _epoch in 0..cfg.epochs {
            indices.shuffle(&mut rng);
            let mut batch_count = 0usize;
            model.zero_grad();
            for &i in &indices {
                let g = &train_graphs[i];
                model.accumulate_gradients(g, g.runtime_secs.expect("labelled"));
                batch_count += 1;
                if batch_count == cfg.batch_size {
                    model.apply_step(&mut adam);
                    model.zero_grad();
                    batch_count = 0;
                }
            }
            if batch_count > 0 {
                model.apply_step(&mut adam);
                model.zero_grad();
            }
            training_curve.push(median_q_error_per_example(&model, train_graphs));
        }

        let final_train_qerror = *training_curve.last().unwrap_or(&f64::NAN);
        let final_validation_qerror = if val_graphs.is_empty() {
            None
        } else {
            Some(median_q_error_per_example(&model, val_graphs))
        };
        TrainedModel {
            model,
            featurizer: self.featurizer,
            final_train_qerror,
            final_validation_qerror,
            training_curve,
            validation_curve: Vec::new(),
            stopped_early: false,
        }
    }
}

/// The one batched epoch loop behind [`Trainer::train`] and
/// [`Trainer::finetune_from`]: shuffle, sharded optimizer steps, one
/// `event` per epoch on the tracer, validation on the tail split, early
/// stopping and best-epoch restore.
fn fit<M: Trainable>(
    mut model: M,
    samples: &[M::Sample],
    cfg: &TrainingConfig,
    event: &'static str,
    tracer: Option<&Tracer>,
) -> (M, TrainingStats<M::Metrics>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Split into train / validation by index (samples from the same
    // database are contiguous in collection order, so a tail split
    // approximates a database-level holdout).
    let val_len = ((samples.len() as f64) * cfg.validation_fraction) as usize;
    let (train, val) = samples.split_at(samples.len() - val_len);

    let mut adam = Adam::new(cfg.learning_rate);
    let batch_size = cfg.batch_size.max(1);
    let microbatch = cfg.microbatch_size.max(1);

    // Worker replicas compute shard gradients against a snapshot of the
    // current weights.  A single replica is used even when `threads == 1`,
    // so the reduction structure (zeroed shard buffer → flat export →
    // ordered add) never depends on the thread count.
    let replica_count = cfg
        .effective_threads()
        .min(batch_size.div_ceil(microbatch))
        .max(1);
    let mut replicas = vec![model.clone(); replica_count];

    let mut indices: Vec<usize> = (0..train.len()).collect();
    let mut training_curve = Vec::with_capacity(cfg.epochs);
    let mut validation_curve = Vec::new();
    let mut best: Option<(f64, M)> = None;
    let mut epochs_without_improvement = 0usize;
    let mut stopped_early = false;

    let mut epoch_qerrors: Vec<Vec<f64>> = vec![Vec::new(); M::TASKS];
    for epoch in 0..cfg.epochs {
        let epoch_started = Instant::now();
        let mut shard_secs = 0.0f64;
        indices.shuffle(&mut rng);
        epoch_qerrors.iter_mut().for_each(Vec::clear);
        for step in indices.chunks(batch_size) {
            let micro_batches: Vec<&[usize]> = step.chunks(microbatch).collect();
            let shard_started = Instant::now();
            let shards = compute_shards(&model, &mut replicas, train, &micro_batches);
            shard_secs += shard_started.elapsed().as_secs_f64();
            model.zero_grad();
            for shard in &shards {
                model.add_gradients(&shard.gradients);
            }
            model.apply_step(&mut adam);
            for shard in shards {
                for (epoch_q, shard_q) in epoch_qerrors.iter_mut().zip(shard.qerrors) {
                    epoch_q.extend(shard_q);
                }
            }
        }

        // Running training metric: the median q-errors of the predictions
        // made by the epoch's own training forwards (no separate
        // evaluation pass over the training set).
        let medians: Vec<f64> = epoch_qerrors.iter().map(|q| median(q)).collect();
        let train_cost_q = medians[0];
        training_curve.push(M::metrics(&medians));
        if let Some(tracer) = tracer {
            tracer.event(
                event,
                epoch_started.elapsed().as_secs_f64(),
                format!(
                    "epoch {epoch}: median cost q-error {train_cost_q:.4}, {shard_secs:.6}s in shard gradients"
                ),
            );
        }
        let monitored = if val.is_empty() {
            train_cost_q
        } else {
            let val_q = task_medians(&model, val)[0];
            validation_curve.push(val_q);
            val_q
        };

        if cfg.early_stopping_patience > 0 {
            let improved = best.as_ref().map(|(b, _)| monitored < *b).unwrap_or(true);
            if improved {
                best = Some((monitored, model.clone()));
                epochs_without_improvement = 0;
            } else {
                epochs_without_improvement += 1;
                if epochs_without_improvement >= cfg.early_stopping_patience {
                    stopped_early = true;
                    break;
                }
            }
        }
    }

    // With early stopping enabled, return the best-epoch weights.
    if let Some((_, best_model)) = best {
        model = best_model;
    }

    let stats = TrainingStats {
        final_train: median_qerrors(&model, train),
        final_validation: (!val.is_empty()).then(|| median_qerrors(&model, val)),
        training_curve,
        validation_curve,
        stopped_early,
    };
    (model, stats)
}

/// One shard's contribution to an optimizer step.
struct ShardResult {
    /// Flat gradient vector (canonical parameter order).
    gradients: Vec<f64>,
    /// Per-task q-errors of the shard's training-forward predictions.
    qerrors: Vec<Vec<f64>>,
}

/// Compute every micro-batch shard's flat gradient vector and q-errors,
/// in shard order, using up to `replicas.len()` worker threads.
///
/// This is the deterministic data-parallel core of the trainer: each
/// shard is computed against a replica freshly synced to `model`'s
/// weights, work distribution across threads is dynamic (an atomic
/// cursor), but since each shard is computed independently and results
/// are returned in shard order, the *outcome* — and therefore training —
/// does not depend on which thread computed which shard or how many
/// threads ran.
fn compute_shards<M: Trainable>(
    model: &M,
    replicas: &mut [M],
    samples: &[M::Sample],
    micro_batches: &[&[usize]],
) -> Vec<ShardResult> {
    let run_shard = |replica: &mut M, shard: &[usize]| {
        let refs: Vec<&M::Sample> = shard.iter().map(|&i| &samples[i]).collect();
        let mut qerrors = vec![Vec::new(); M::TASKS];
        replica.zero_grad();
        replica.accumulate_shard(&refs, &mut qerrors);
        let mut gradients = Vec::new();
        replica.export_gradients(&mut gradients);
        ShardResult { gradients, qerrors }
    };

    // Only the replicas that will actually run a shard need this step's
    // weights (e.g. the final partial mini-batch of an epoch may have a
    // single shard).
    let used = replicas.len().min(micro_batches.len()).max(1);
    let replicas = &mut replicas[..used];
    for replica in replicas.iter_mut() {
        replica.copy_weights_from(model);
    }

    if replicas.len() <= 1 || micro_batches.len() <= 1 {
        let replica = replicas.first_mut().expect("at least one replica");
        return micro_batches
            .iter()
            .map(|shard| run_shard(replica, shard))
            .collect();
    }

    let slots: Mutex<Vec<Option<ShardResult>>> =
        Mutex::new((0..micro_batches.len()).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for replica in replicas.iter_mut() {
            let slots = &slots;
            let cursor = &cursor;
            let run_shard = &run_shard;
            scope.spawn(move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= micro_batches.len() {
                    break;
                }
                let result = run_shard(replica, micro_batches[k]);
                slots.lock().expect("shard slots poisoned")[k] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("shard slots poisoned")
        .into_iter()
        .map(|s| s.expect("every shard computed"))
        .collect()
}

/// Per-task median q-errors of `model` over `samples`, evaluated through
/// the batched forward pass in bounded-size chunks.
fn task_medians<M: Trainable>(model: &M, samples: &[M::Sample]) -> Vec<f64> {
    let mut qerrors = vec![Vec::new(); M::TASKS];
    for chunk in samples.chunks(crate::eval::EVAL_CHUNK) {
        let refs: Vec<&M::Sample> = chunk.iter().collect();
        model.push_qerrors(&refs, &mut qerrors);
    }
    qerrors.iter().map(|q| median(q)).collect()
}

/// Median q-error of every task of `model` over labelled `samples`,
/// evaluated through the batched forward pass.
fn median_qerrors<M: Trainable>(model: &M, samples: &[M::Sample]) -> M::Metrics {
    M::metrics(&task_medians(model, samples))
}

/// Median Q-error of a model over labelled graphs, evaluated through the
/// batched forward pass (bit-identical to per-example prediction).
/// Unlabelled graphs are skipped.
pub fn median_q_error(model: &ZeroShotCostModel, graphs: &[PlanGraph]) -> f64 {
    let labelled: Vec<&PlanGraph> = graphs.iter().filter(|g| g.runtime_secs.is_some()).collect();
    let qs: Vec<f64> = crate::eval::batched_predictions(model, &labelled)
        .into_iter()
        .zip(&labelled)
        .map(|(p, g)| q_error(p, g.runtime_secs.expect("labelled")))
        .collect();
    median(&qs)
}

/// Per-example counterpart of [`median_q_error`], used by the reference
/// trainer so its measured cost matches the pre-batching implementation.
fn median_q_error_per_example(model: &ZeroShotCostModel, graphs: &[PlanGraph]) -> f64 {
    let qs: Vec<f64> = graphs
        .iter()
        .filter_map(|g| g.runtime_secs.map(|rt| q_error(model.predict(g), rt)))
        .collect();
    median(&qs)
}

/// Few-shot fine-tuning: continue training an existing zero-shot model with
/// a small number of executions from the (previously unseen) target
/// database.  Returns a new `TrainedModel`; the original is not modified.
///
/// Featurizes the executions with the model's own featurizer and runs
/// [`few_shot_finetune_with`] (full-batch by default — fine-tuning sets
/// are tiny by definition) with the given epoch/learning-rate overrides.
pub fn few_shot_finetune(
    trained: &TrainedModel,
    target_db: &Database,
    executions: &[QueryExecution],
    epochs: usize,
    learning_rate: f64,
) -> TrainedModel {
    few_shot_finetune_with(
        trained,
        target_db,
        executions,
        FinetuneConfig {
            epochs,
            learning_rate,
            ..FinetuneConfig::default()
        },
    )
}

/// [`few_shot_finetune`] with full control over the fine-tuning
/// hyper-parameters: featurize the target-database executions with the
/// model's own featurizer, then run [`Trainer::finetune_from`].
pub fn few_shot_finetune_with(
    trained: &TrainedModel,
    target_db: &Database,
    executions: &[QueryExecution],
    config: FinetuneConfig,
) -> TrainedModel {
    let graphs: Vec<PlanGraph> = executions
        .iter()
        .map(|e| featurize_execution(target_db.catalog(), e, trained.featurizer))
        .collect();
    Trainer::finetune_from(trained, &graphs, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{collect_for_database, collect_training_corpus, TrainingDataConfig};
    use zsdb_catalog::presets;
    use zsdb_query::WorkloadSpec;

    fn featurized_tiny_corpus() -> Vec<PlanGraph> {
        let config = TrainingDataConfig::tiny();
        let corpus = collect_training_corpus(&config);
        // Rebuild the catalogs the corpus was generated from.
        let schemas = zsdb_catalog::SchemaGenerator::new(config.schema_config.clone())
            .generate_corpus("train", config.num_databases, config.seed);
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig::tiny(),
            FeaturizerConfig::exact(),
        );
        trainer.featurize_corpus(&corpus, |name| {
            schemas
                .iter()
                .find(|s| s.name == name)
                .expect("catalog for corpus database")
        })
    }

    #[test]
    fn training_reduces_qerror() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig::tiny(),
            FeaturizerConfig::exact(),
        );
        let trained = trainer.train(&graphs);
        let first = trained.training_curve.first().copied().unwrap();
        let last = trained.final_train_qerror;
        assert!(last < first, "q-error should improve: {first} -> {last}");
        assert!(last < 2.5, "final training q-error too high: {last}");
    }

    #[test]
    fn trained_model_generalizes_to_unseen_database() {
        // Train on the tiny synthetic corpus, evaluate on the IMDB-like
        // database the model has never seen.  Zero-shot predictions should
        // be far better than a naive constant predictor.
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig::tiny(),
            FeaturizerConfig::exact(),
        );
        let trained = trainer.train(&graphs);

        let imdb = Database::generate(presets::imdb_like(0.02), 42);
        let eval_execs = collect_for_database(&imdb, &WorkloadSpec::paper_training(), 30, 77);
        let eval_graphs: Vec<PlanGraph> = eval_execs
            .iter()
            .map(|e| featurize_execution(imdb.catalog(), e, trained.featurizer))
            .collect();
        let zero_shot_q = median_q_error(&trained.model, &eval_graphs);

        // Naive baseline: always predict the mean training runtime.
        let mean_runtime =
            graphs.iter().filter_map(|g| g.runtime_secs).sum::<f64>() / graphs.len() as f64;
        let naive_q = median(
            &eval_execs
                .iter()
                .map(|e| q_error(mean_runtime, e.runtime_secs))
                .collect::<Vec<_>>(),
        );
        assert!(
            zero_shot_q < naive_q,
            "zero-shot {zero_shot_q} should beat naive {naive_q}"
        );
        assert!(zero_shot_q < 5.0, "zero-shot median q-error {zero_shot_q}");
    }

    #[test]
    fn few_shot_improves_on_target_database() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig::tiny(),
            FeaturizerConfig::exact(),
        );
        let trained = trainer.train(&graphs);

        let imdb = Database::generate(presets::imdb_like(0.02), 42);
        let target_execs = collect_for_database(&imdb, &WorkloadSpec::paper_training(), 40, 5);
        let (finetune_set, holdout) = target_execs.split_at(25);

        let holdout_graphs: Vec<PlanGraph> = holdout
            .iter()
            .map(|e| featurize_execution(imdb.catalog(), e, trained.featurizer))
            .collect();
        let before = median_q_error(&trained.model, &holdout_graphs);
        let finetuned = few_shot_finetune(&trained, &imdb, finetune_set, 30, 3e-4);
        let after = median_q_error(&finetuned.model, &holdout_graphs);
        assert!(
            after <= before * 1.15,
            "few-shot should not make things much worse: {before} -> {after}"
        );
    }

    #[test]
    fn finetune_from_improves_fit_on_the_finetuning_set() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig {
                epochs: 2,
                validation_fraction: 0.0,
                ..TrainingConfig::tiny()
            },
            FeaturizerConfig::exact(),
        );
        let base = trainer.train(&graphs);
        let finetune_set = &graphs[..16];
        let before = median_q_error(&base.model, finetune_set);
        let tuned = Trainer::finetune_from(
            &base,
            finetune_set,
            FinetuneConfig {
                epochs: 25,
                ..FinetuneConfig::default()
            },
        );
        assert!(
            tuned.final_train_qerror <= before * 1.05,
            "fine-tuning should not hurt the set it fits: {before} -> {}",
            tuned.final_train_qerror
        );
        assert_eq!(tuned.training_curve.len(), 25);
    }

    #[test]
    fn early_stopping_disabled_runs_all_epochs() {
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig {
                epochs: 4,
                early_stopping_patience: 0,
                ..TrainingConfig::tiny()
            },
            FeaturizerConfig::exact(),
        );
        let trained = trainer.train(&graphs);
        assert_eq!(trained.training_curve.len(), 4);
        assert!(!trained.stopped_early);
    }

    #[test]
    fn batched_and_per_example_trainers_converge_to_similar_quality() {
        // The two trainers differ in gradient summation order, so weights
        // are not bit-equal — but both must fit the same tiny corpus to a
        // comparable final q-error.
        let graphs = featurized_tiny_corpus();
        let trainer = Trainer::new(
            ModelConfig::tiny(),
            TrainingConfig::tiny(),
            FeaturizerConfig::exact(),
        );
        let batched = trainer.train(&graphs);
        let reference = trainer.train_per_example(&graphs);
        assert!(batched.final_train_qerror < 2.5);
        assert!(reference.final_train_qerror < 2.5);
    }
}
