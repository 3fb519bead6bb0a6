//! Allocation-regression guard for the serving hot path.
//!
//! The raw-speed inference path promises that a **warm** request —
//! featurization into arena-backed scratch, a cache hit on the slab LRU,
//! and the forward pass through caller-provided [`InferenceScratch`] —
//! performs **zero heap allocations**.  This test enforces it with a
//! counting `#[global_allocator]`: warm the buffers to their high-water
//! mark, then replay the hot path and assert the allocation counter does
//! not move.
//!
//! Integration tests are separate crates, so installing a global
//! allocator (and the `unsafe` it requires) here does not relax the
//! `#![forbid(unsafe_code)]` contract of any library crate.
//!
//! The counter is **thread-local and armed only around the measured
//! loop** ([`count_allocations`]): the test harness runs sibling tests on
//! other threads, and their cold set-up must not land in this window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zero_shot_db::catalog::presets;
use zero_shot_db::multitask::{MultiTaskConfig, MultiTaskModel, MultiTaskPrediction};
use zero_shot_db::serve::FeatureCache;
use zero_shot_db::storage::Database;
use zero_shot_db::zeroshot::features::{featurize_plan, featurize_plan_into};
use zero_shot_db::zeroshot::{plan_fingerprint, GraphArena, InferenceScratch};
use zsdb_bench::tiny_serving_fixture;

/// Pass-through allocator that counts every allocation made by a thread
/// while that thread's counter is armed (fresh and growing reallocations
/// both count — the hot path must do neither).
struct CountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs during thread teardown, after
    // thread-locals may be gone.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over; the counting touches
// only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `f` with this thread's counter armed; returns its result and the
/// number of allocations it made on this thread.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (result, ALLOCATIONS.with(Cell::get))
}

#[test]
fn warm_inference_hot_path_does_not_allocate() {
    // Cold setup: database, trained model, request plans — allocate freely.
    let db = Database::generate(presets::imdb_like(0.02), 11);
    let (model, plans) = tiny_serving_fixture(&db, 8, 5);
    let featurizer = model.featurizer;

    let mut arena = GraphArena::new();
    let mut graph = arena.take_graph();
    let mut scratch = InferenceScratch::default();
    let cache = FeatureCache::new(16);

    // Warm-up: every buffer (arena node pools, flat state vector, MLP
    // ping-pong buffers, cache slab) grows to its high-water mark here.
    // Two rounds so re-featurizing an already-seen shape is exercised
    // warm too.
    for _ in 0..2 {
        for plan in &plans {
            featurize_plan_into(db.catalog(), plan, featurizer, &mut arena, &mut graph);
            let fingerprint = plan_fingerprint(plan);
            cache.get_or_insert_with(1, fingerprint, || graph.clone());
            let prediction = model.model.predict_with(&graph, &mut scratch);
            assert!(prediction.is_finite());
        }
    }

    // Measured section: the exact per-request hot path of a serving
    // worker — featurize into warm scratch, slab-cache hit, forward
    // pass — must not touch the allocator at all.
    let (checksum, allocations) = count_allocations(|| {
        let mut checksum = 0.0;
        for _ in 0..50 {
            for plan in &plans {
                featurize_plan_into(db.catalog(), plan, featurizer, &mut arena, &mut graph);
                let fingerprint = plan_fingerprint(plan);
                let cached = cache
                    .get(1, fingerprint)
                    .expect("warmed shape must be cached");
                checksum += model.model.predict_with(&cached, &mut scratch);
            }
        }
        checksum
    });

    assert!(checksum.is_finite());
    assert_eq!(
        allocations,
        0,
        "warm hot path allocated {allocations} times over {} requests",
        50 * plans.len()
    );
}

/// ISSUE 9: with the flight recorder and SLO tracker enabled, the warm
/// cache-hit path stays zero-allocation.  Every request crosses
/// [`FlightRecorder::classify`] and [`SloTracker::record`] on the hot
/// path — both must be pure atomics.  Provenance assembly is cold-path
/// only (slow or explicitly traced requests) and is deliberately *not*
/// in the measured loop.
#[test]
fn warm_hot_path_stays_zero_alloc_with_flight_recorder_enabled() {
    use zero_shot_db::obs::{FlightRecorder, FlightRecorderConfig, SloConfig, SloTracker};

    let db = Database::generate(presets::imdb_like(0.02), 13);
    let (model, plans) = tiny_serving_fixture(&db, 8, 5);
    let featurizer = model.featurizer;

    let mut arena = GraphArena::new();
    let mut graph = arena.take_graph();
    let mut scratch = InferenceScratch::default();
    let cache = FeatureCache::new(16);
    let recorder = FlightRecorder::new(FlightRecorderConfig::default());
    let slo = SloTracker::new(SloConfig::default());

    // Warm-up, classifying every request just like a serving worker.
    for _ in 0..2 {
        for plan in &plans {
            featurize_plan_into(db.catalog(), plan, featurizer, &mut arena, &mut graph);
            let fingerprint = plan_fingerprint(plan);
            cache.get_or_insert_with(1, fingerprint, || graph.clone());
            let prediction = model.model.predict_with(&graph, &mut scratch);
            assert!(prediction.is_finite());
            recorder.classify(1_000, true);
            slo.record(1_000, true);
        }
    }

    // Measured section: hot path *plus* per-request observability.
    let (checksum, allocations) = count_allocations(|| {
        let mut checksum = 0.0;
        for round in 0..50u64 {
            for plan in &plans {
                featurize_plan_into(db.catalog(), plan, featurizer, &mut arena, &mut graph);
                let fingerprint = plan_fingerprint(plan);
                let cached = cache
                    .get(1, fingerprint)
                    .expect("warmed shape must be cached");
                checksum += model.model.predict_with(&cached, &mut scratch);
                // Vary the latency so the percentile trigger arms and both
                // classification branches execute inside the measured
                // loop.  Any verdict is fine — classify must not allocate
                // either way.
                let _ = recorder.classify(500 + round * 10, true);
                slo.record(500 + round * 10, true);
            }
        }
        checksum
    });

    assert!(checksum.is_finite());
    assert_eq!(
        allocations,
        0,
        "observed warm hot path allocated {allocations} times over {} requests",
        50 * plans.len()
    );
}

/// The multi-task model's per-node forward — all three heads into a
/// reused [`MultiTaskPrediction`] through warm scratch — is
/// zero-allocation too.  A multi-task serving worker answers through
/// `predict_with`, the same forward into a fresh prediction: exactly one
/// allocation per request, the returned `operator_rows`, which the caller
/// owns.
#[test]
fn warm_multitask_forward_does_not_allocate() {
    let db = Database::generate(presets::imdb_like(0.02), 17);
    let (single, plans) = tiny_serving_fixture(&db, 8, 5);
    let graphs: Vec<_> = plans
        .iter()
        .map(|p| featurize_plan(db.catalog(), p, single.featurizer))
        .collect();
    let model = MultiTaskModel::new(MultiTaskConfig::default());
    let mut scratch = InferenceScratch::default();
    let mut prediction = MultiTaskPrediction {
        runtime_secs: 0.0,
        root_rows: 0.0,
        operator_rows: Vec::new(),
    };

    // Warm-up: scratch and `operator_rows` grow to their high-water mark.
    for graph in &graphs {
        model.predict_into(graph, &mut scratch, &mut prediction);
    }

    let (checksum, allocations) = count_allocations(|| {
        let mut checksum = 0.0;
        for _ in 0..50 {
            for graph in &graphs {
                model.predict_into(graph, &mut scratch, &mut prediction);
                checksum += prediction.runtime_secs + prediction.root_rows;
                checksum += prediction.operator_rows.iter().sum::<f64>();
            }
        }
        checksum
    });

    assert!(checksum.is_finite());
    assert_eq!(
        allocations,
        0,
        "warm multi-task forward allocated {allocations} times over {} requests",
        50 * graphs.len()
    );

    let (served, allocations) = count_allocations(|| {
        let mut served = Vec::with_capacity(graphs.len());
        for graph in &graphs {
            served.push(model.predict_with(graph, &mut scratch));
        }
        served
    });
    for (graph, tasks) in graphs.iter().zip(&served) {
        model.predict_into(graph, &mut scratch, &mut prediction);
        assert_eq!(tasks, &prediction);
    }
    // One for the collecting `Vec`, one per request for its rows.
    assert_eq!(
        allocations,
        1 + graphs.len() as u64,
        "served multi-task forward made {allocations} allocations over {} requests",
        graphs.len()
    );
}

#[test]
fn counting_allocator_is_installed() {
    let ((), allocations) = count_allocations(|| {
        let v: Vec<u64> = Vec::with_capacity(1024);
        drop(std::hint::black_box(v));
    });
    assert!(allocations > 0, "global allocator hook not active");
}
