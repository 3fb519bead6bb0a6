//! Serving multi-task models: one submitted plan, **all** task heads
//! answered.
//!
//! There is no second server here: [`TrainedMultiTaskModel`] implements
//! [`ServableModel`], so [`MultiTaskPredictionServer`] is the sharded
//! [`PredictionServer`] over the multi-task model — the same per-shard
//! queues and cache slices, work stealing, hot-swap, metrics and
//! tracing.  A request is featurized **once** and pushed through the
//! shared encoder **once** ([`MultiTaskModel::predict_with`] on the
//! worker's warm scratch; its one heap allocation per request is the
//! returned `operator_rows`, which the caller owns); the cost,
//! root-cardinality and per-operator heads all read that single pass —
//! which is the point of the multi-task subsystem: the marginal cost of
//! an extra task at serving time is one tiny head MLP, not another model.
//!
//! Served predictions are bit-identical to the single-threaded
//! `model.predict(featurize_plan(…))` path, for every head.
//!
//! [`MultiTaskModel::predict_with`]: zsdb_multitask::MultiTaskModel::predict_with

use crate::provenance::ProvenanceSeed;
use crate::server::{
    BatchPredictionTicket, PredictionServer, PredictionTicket, ServableModel, ServeMeta,
    ServedModel,
};
use std::time::Duration;
use zsdb_core::{FeaturizerConfig, InferenceScratch, PlanGraph};
use zsdb_multitask::{MultiTaskPrediction, TrainedMultiTaskModel};
use zsdb_obs::FlightClass;

/// The sharded prediction server over a multi-task model.
pub type MultiTaskPredictionServer = PredictionServer<TrainedMultiTaskModel>;

/// Claim ticket for an in-flight multi-task request.
pub type MultiTaskPredictionTicket = PredictionTicket<TrainedMultiTaskModel>;

/// Claim ticket for an in-flight multi-task batch.
pub type MultiTaskBatchTicket = BatchPredictionTicket<TrainedMultiTaskModel>;

/// A versioned, immutable served multi-task model — the unit of an
/// atomic hot-swap.
pub type ServedMultiTaskModel = ServedModel<TrainedMultiTaskModel>;

/// One answered multi-task request: every head's output from one submit.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedMultiTaskPrediction {
    /// All task-head outputs (runtime, root cardinality, per-operator
    /// cardinalities).
    pub tasks: MultiTaskPrediction,
    /// Structural fingerprint of the request plan.
    pub fingerprint: u64,
    /// Whether featurization was skipped thanks to the feature cache.
    pub cache_hit: bool,
    /// Enqueue-to-response latency.
    pub latency: Duration,
    /// Version of the model that answered (changes across hot-swaps).
    pub model_version: u32,
    /// Shard the plan's fingerprint routes to (its cache home).
    pub home_shard: u32,
    /// Shard whose worker executed the request — differs from
    /// `home_shard` when the job was work-stolen.
    pub executed_shard: u32,
    /// Whether the request was stolen off its home queue.
    pub stolen: bool,
    /// The flight recorder's verdict on this request's latency.
    pub flight_class: FlightClass,
}

impl ServedMultiTaskPrediction {
    /// The provenance seed of this prediction (see
    /// [`Prediction::provenance_seed`](crate::Prediction::provenance_seed));
    /// the recorded predicted value is the cost head's runtime.
    pub fn provenance_seed(&self) -> ProvenanceSeed {
        ProvenanceSeed {
            fingerprint: self.fingerprint,
            model_version: self.model_version,
            cache_hit: self.cache_hit,
            home_shard: self.home_shard,
            executed_shard: self.executed_shard,
            stolen: self.stolen,
            predicted_secs: self.tasks.runtime_secs,
            class: self.flight_class,
        }
    }
}

impl ServableModel for TrainedMultiTaskModel {
    type Output = MultiTaskPrediction;
    type Prediction = ServedMultiTaskPrediction;

    fn featurizer(&self) -> FeaturizerConfig {
        self.featurizer
    }

    fn predict_with(
        &self,
        graph: &PlanGraph,
        scratch: &mut InferenceScratch,
    ) -> MultiTaskPrediction {
        self.model.predict_with(graph, scratch)
    }

    fn predict_batch(&self, graphs: &[&PlanGraph]) -> Vec<MultiTaskPrediction> {
        self.model.predict_batch(graphs)
    }

    fn answer(tasks: MultiTaskPrediction, meta: ServeMeta) -> ServedMultiTaskPrediction {
        ServedMultiTaskPrediction {
            tasks,
            fingerprint: meta.fingerprint,
            cache_hit: meta.cache_hit,
            latency: meta.latency,
            model_version: meta.model_version,
            home_shard: meta.home_shard,
            executed_shard: meta.executed_shard,
            stolen: meta.stolen,
            flight_class: meta.flight_class,
        }
    }

    fn provenance_seed(prediction: &ServedMultiTaskPrediction) -> ProvenanceSeed {
        prediction.provenance_seed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{STAGE_CACHE_LOOKUP, STAGE_FORWARD, STAGE_QUEUE_WAIT};
    use crate::server::tests::Fixture;
    use crate::server::ServerConfig;

    #[test]
    fn traced_submit_marks_the_pipeline_stages() {
        let (model, catalog, plans) = TrainedMultiTaskModel::fixture();
        let server = MultiTaskPredictionServer::start(model, catalog, ServerConfig::default());
        // Warm the cache so the traced request takes the hit path.
        server.predict_blocking(plans[0].clone()).unwrap();
        let active = server.tracer().begin().expect("tracer starts enabled");
        let id = active.id();
        let ticket = server
            .submit_traced(plans[0].clone(), Some(active))
            .unwrap();
        let (prediction, trace) = ticket.wait_traced().unwrap();
        assert!(prediction.cache_hit);
        let done = server.complete_traced(&prediction, trace.expect("trace rides the job"));
        assert_eq!(done.id, id);
        let stages: Vec<&str> = done.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            stages,
            vec![STAGE_QUEUE_WAIT, STAGE_CACHE_LOOKUP, STAGE_FORWARD]
        );
        assert_eq!(
            done.total_ns,
            done.stages.iter().map(|s| s.duration_ns).sum::<u64>(),
            "stages tile the trace"
        );
        // The finished trace is queryable by id, and so is its
        // provenance record — with the real shard placement.
        assert_eq!(server.tracer().find(id).expect("retained").id, id);
        let record = server.explain(id).expect("provenance retained");
        assert_eq!(record.model_version, prediction.model_version);
        assert_eq!(record.fingerprint, prediction.fingerprint);
        assert!(record.cache_hit);
        assert_eq!(
            record.predicted_secs.to_bits(),
            prediction.tasks.runtime_secs.to_bits()
        );
        let workers = ServerConfig::default().workers as u64;
        assert_eq!(record.home_shard, (prediction.fingerprint % workers) as u32);
        assert_eq!(
            (record.home_shard, record.executed_shard, record.stolen),
            (
                prediction.home_shard,
                prediction.executed_shard,
                prediction.stolen
            )
        );
        assert_eq!(record.stolen, record.home_shard != record.executed_shard);
    }
}
