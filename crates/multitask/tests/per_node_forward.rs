//! The per-node multi-task forward ([`MultiTaskModel::predict_with`], the
//! serving path) is bit-identical to the batched forward
//! ([`MultiTaskModel::predict_batch`], the training and evaluation path)
//! on every head, under both MLP kernels.
//!
//! The kernel is chosen once per process from `ZSDB_KERNEL`, so the test
//! re-runs itself in a child process per kernel and also checks that
//! both kernels produce the same answers.

use std::process::Command;
use zsdb_catalog::presets;
use zsdb_core::features::{FeaturizerConfig, PlanGraph};
use zsdb_core::{InferenceScratch, TrainingConfig};
use zsdb_engine::QueryRunner;
use zsdb_multitask::{
    sample_from_execution, MultiTaskConfig, MultiTaskModel, MultiTaskPrediction, MultiTaskTrainer,
};
use zsdb_query::WorkloadGenerator;
use zsdb_storage::Database;

const TEST: &str = "per_node_forward_matches_batched_forward_under_both_kernels";
/// Set in the child processes: answer with the digest, spawn nothing.
const CHILD: &str = "ZSDB_PER_NODE_FORWARD_CHILD";

/// A jointly trained tiny model and the featurized graphs of a generated
/// workload.
fn workload() -> (MultiTaskModel, Vec<PlanGraph>) {
    let db = Database::generate(presets::imdb_like(0.02), 21);
    let runner = QueryRunner::with_defaults(&db);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 60, 3);
    let samples: Vec<_> = runner
        .run_workload(&queries, 0)
        .iter()
        .map(|e| sample_from_execution(db.catalog(), e, FeaturizerConfig::estimated()))
        .collect();
    let trained = MultiTaskTrainer::new(
        MultiTaskConfig::tiny(),
        TrainingConfig {
            epochs: 3,
            validation_fraction: 0.0,
            early_stopping_patience: 0,
            ..TrainingConfig::default()
        },
        FeaturizerConfig::estimated(),
    )
    .train(&samples);
    let graphs = samples.into_iter().map(|s| s.graph).collect();
    (trained.model, graphs)
}

/// Every output bit of one prediction, head by head.
fn bits(p: &MultiTaskPrediction) -> Vec<u64> {
    let mut bits = vec![p.runtime_secs.to_bits(), p.root_rows.to_bits()];
    bits.extend(p.operator_rows.iter().map(|r| r.to_bits()));
    bits
}

/// Check per-node ≡ batched in this process's kernel; return a digest of
/// every answer.
fn check_and_digest() -> u64 {
    let (model, graphs) = workload();
    let refs: Vec<&PlanGraph> = graphs.iter().collect();
    let mut scratch = InferenceScratch::default();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [1, 4, 64] {
        let batched: Vec<MultiTaskPrediction> = refs
            .chunks(chunk)
            .flat_map(|c| model.predict_batch(c))
            .collect();
        assert_eq!(batched.len(), graphs.len());
        for (i, (graph, batched)) in graphs.iter().zip(&batched).enumerate() {
            // One scratch reused across graphs of different sizes, as in
            // a serving worker.
            let per_node = model.predict_with(graph, &mut scratch);
            assert_eq!(
                bits(&per_node),
                bits(batched),
                "graph {i}, chunk {chunk}: per-node forward differs from the batched one"
            );
            assert_eq!(bits(&model.predict(graph)), bits(&per_node));
            for b in bits(&per_node) {
                digest = (digest ^ b).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    digest
}

#[test]
fn per_node_forward_matches_batched_forward_under_both_kernels() {
    let digest = check_and_digest();
    if std::env::var_os(CHILD).is_some() {
        println!("kernel={}", zsdb_nn::active_kernel().name());
        println!("digest={digest}");
        return;
    }
    for kernel in ["simd", "scalar"] {
        let out = Command::new(std::env::current_exe().expect("test binary path"))
            .args([TEST, "--exact", "--nocapture", "--test-threads=1"])
            .env("ZSDB_KERNEL", kernel)
            .env(CHILD, "1")
            .output()
            .expect("re-run the test under another kernel");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "kernel {kernel} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The harness prints the test name on the line of the first field.
        let field = |key: &str| {
            stdout
                .lines()
                .find_map(|l| l.split_once(key).map(|(_, value)| value))
                .unwrap_or_else(|| panic!("child printed no {key}: {stdout}"))
                .to_string()
        };
        assert_eq!(field("kernel="), kernel, "child ran the requested kernel");
        assert_eq!(
            field("digest=").parse::<u64>().expect("numeric digest"),
            digest,
            "kernel {kernel} changed an output bit"
        );
    }
}
