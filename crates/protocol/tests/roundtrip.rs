//! Fuzz-ish property suite: `decode(encode(x)) == x` for arbitrary
//! frames, including frames carrying randomly generated plan trees, and
//! streaming decode over arbitrarily chunked concatenations.  Hostile
//! input — arbitrary bytes, bit-flipped frames, payloads nested past the
//! JSON recursion limit — must give an error, never a panic or a stack
//! overflow.

use proptest::prelude::*;
use serde_json::RECURSION_LIMIT;
use zsdb_catalog::{presets, ColumnId, ColumnRef, TableId, Value};
use zsdb_core::{FeaturizerConfig, ModelConfig, Trainer, TrainingConfig};
use zsdb_engine::{PhysOperator, PlanNode, QueryRunner};
use zsdb_multitask::{sample_from_execution, MultiTaskConfig, MultiTaskTrainer};
use zsdb_protocol::{
    decode_frame, encode_frame, ErrorCode, ErrorResponse, Frame, GatewayMetrics, HealthResponse,
    HelloAck, HelloRequest, Message, ProtocolError, TenantMetrics, WirePrediction, HEADER_LEN,
    MAGIC, PROTOCOL_VERSION,
};
use zsdb_query::{Aggregate, CmpOp, Predicate, WorkloadGenerator, WorkloadSpec};
use zsdb_storage::Database;

/// Deterministic SplitMix64 — a self-contained value generator so one
/// sampled `u64` seed expands into an arbitrarily complex frame.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// A finite, non-NaN f64 spanning many magnitudes (including exact
    /// bit-patterns that stress shortest-round-trip formatting).
    fn finite_f64(&mut self) -> f64 {
        loop {
            let v = f64::from_bits(self.next());
            if v.is_finite() {
                return v;
            }
        }
    }

    fn column(&mut self) -> ColumnRef {
        ColumnRef::new(
            TableId(self.below(8) as u32),
            ColumnId(self.below(16) as u32),
        )
    }

    fn predicate(&mut self) -> Predicate {
        let op = CmpOp::ALL[self.below(CmpOp::ALL.len() as u64) as usize];
        let value = match self.below(5) {
            0 => Value::Null,
            1 => Value::Int(self.next() as i64),
            2 => Value::Float(self.finite_f64()),
            3 => Value::Cat(self.next() as u32),
            _ => Value::Bool(self.next().is_multiple_of(2)),
        };
        Predicate::new(self.column(), op, value)
    }

    /// A random plan tree of bounded depth with every operator kind
    /// reachable.
    fn plan(&mut self, depth: u64) -> PlanNode {
        let leaf_only = depth == 0;
        let choice = if leaf_only {
            self.below(2)
        } else {
            self.below(5)
        };
        let (op, children) = match choice {
            0 => (
                PhysOperator::SeqScan {
                    table: TableId(self.below(8) as u32),
                    predicates: (0..self.below(3)).map(|_| self.predicate()).collect(),
                },
                vec![],
            ),
            1 => (
                PhysOperator::IndexScan {
                    table: TableId(self.below(8) as u32),
                    index_column: self.column(),
                    lo: (self.next().is_multiple_of(2)).then(|| self.finite_f64()),
                    hi: (self.next().is_multiple_of(2)).then(|| self.finite_f64()),
                    residual: (0..self.below(2)).map(|_| self.predicate()).collect(),
                },
                vec![],
            ),
            2 => (
                PhysOperator::HashJoin {
                    build_key: self.column(),
                    probe_key: self.column(),
                },
                vec![self.plan(depth - 1), self.plan(depth - 1)],
            ),
            3 => (
                PhysOperator::NestedLoopJoin {
                    outer_key: self.column(),
                    inner_key: self.column(),
                },
                vec![self.plan(depth - 1), self.plan(depth - 1)],
            ),
            _ => (
                PhysOperator::Aggregate {
                    aggregates: vec![Aggregate::count_star()],
                },
                vec![self.plan(depth - 1)],
            ),
        };
        PlanNode {
            op,
            children,
            est_cardinality: self.finite_f64().abs(),
            est_cost: self.finite_f64().abs(),
            output_width: self.below(512) as f64,
        }
    }

    fn prediction(&mut self) -> WirePrediction {
        WirePrediction {
            runtime_secs: self.finite_f64(),
            fingerprint: self.next(),
            cache_hit: self.next().is_multiple_of(2),
            server_latency_micros: self.next(),
            model_version: self.next() as u32,
        }
    }

    fn tenant_name(&mut self) -> String {
        // Exercise escaping: quotes, backslashes, non-ASCII, control chars.
        let alphabet = ['a', 'Z', '9', '-', '_', '"', '\\', 'é', '☃', '\n'];
        (0..self.below(12))
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }

    fn message(&mut self) -> Message {
        match self.below(13) {
            0 => Message::Hello(HelloRequest {
                protocol_version: PROTOCOL_VERSION,
                tenant: self.tenant_name(),
            }),
            1 => Message::HelloAck(HelloAck {
                protocol_version: PROTOCOL_VERSION,
                model_version: self.next() as u32,
                tenant_quota: self.next(),
            }),
            2 => Message::Predict(Box::new(self.plan(3))),
            3 => Message::PredictBatch((0..self.below(4)).map(|_| self.plan(2)).collect()),
            4 => Message::PredictOk(self.prediction()),
            5 => Message::PredictBatchOk((0..self.below(5)).map(|_| self.prediction()).collect()),
            6 => Message::Metrics,
            7 => Message::MetricsOk(Box::new(GatewayMetrics {
                connections_total: self.next(),
                connections_active: self.next(),
                server_total_requests: self.next(),
                server_rejected_requests: self.next(),
                server_throughput_qps: self.finite_f64().abs(),
                server_latency_p50_ms: self.finite_f64().abs(),
                server_latency_p95_ms: self.finite_f64().abs(),
                server_latency_p99_ms: self.finite_f64().abs(),
                model_version: self.next() as u32,
                tenants: (0..self.below(3))
                    .map(|_| TenantMetrics {
                        tenant: self.tenant_name(),
                        admitted: self.next(),
                        completed: self.next(),
                        rejected_quota: self.next(),
                        rejected_shed: self.next(),
                        in_flight: self.next(),
                        quota: self.next(),
                        latency_p50_ms: self.finite_f64().abs(),
                        latency_p95_ms: self.finite_f64().abs(),
                        latency_p99_ms: self.finite_f64().abs(),
                        latency_min_ms: self.finite_f64().abs(),
                        latency_max_ms: self.finite_f64().abs(),
                    })
                    .collect(),
                uptime_seconds: self.finite_f64().abs(),
                queue_depth: self.next(),
                server_latency_min_ms: self.finite_f64().abs(),
                server_latency_max_ms: self.finite_f64().abs(),
                window_occupancy: self.next(),
                window_capacity: self.next(),
            })),
            11 => Message::MetricsText,
            12 => Message::MetricsTextOk(
                (0..self.below(64))
                    .map(|_| ['#', ' ', 'a', '_', '0', '\n', '"', 'é'][self.below(8) as usize])
                    .collect(),
            ),
            8 => Message::Health,
            9 => Message::HealthOk(HealthResponse {
                healthy: self.next().is_multiple_of(2),
                model_version: self.next() as u32,
            }),
            _ => Message::Error(ErrorResponse {
                code: [
                    ErrorCode::Unauthenticated,
                    ErrorCode::BadRequest,
                    ErrorCode::QuotaExceeded,
                    ErrorCode::Overloaded,
                    ErrorCode::Closed,
                    ErrorCode::Internal,
                ][self.below(6) as usize],
                message: self.tenant_name(),
            }),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_encode_is_identity(
        seed in 0u64..u64::MAX,
        request_id in 0u64..u64::MAX,
        trace_id in 0u64..u64::MAX,
    ) {
        // trace_id 0 exercises the baseline v1 encoding, everything else
        // the v2 trace-id extension.
        let trace_id = if seed.is_multiple_of(2) { 0 } else { trace_id };
        let frame = Frame::traced(request_id, trace_id, Gen(seed).message());
        let bytes = encode_frame(&frame).expect("encode");
        let decoded = decode_frame(&bytes).expect("decode");
        let (back, consumed) = decoded.expect("complete frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn streaming_decode_survives_arbitrary_chunking(
        seed in 0u64..u64::MAX,
        chunk in 1usize..97,
    ) {
        // Several frames concatenated, fed to the decoder `chunk` bytes at
        // a time: each frame must come out exactly once, in order, and no
        // prefix may decode early.
        let mut gen = Gen(seed);
        let frames: Vec<Frame> = (0..4).map(|i| Frame::new(i, gen.message())).collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f).expect("encode"));
        }
        let mut buf: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            buf.extend_from_slice(piece);
            while let Some((frame, used)) = decode_frame(&buf).expect("decode") {
                buf.drain(..used);
                decoded.push(frame);
            }
        }
        prop_assert!(buf.is_empty(), "no residual bytes");
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn truncation_never_panics_or_misdecodes(seed in 0u64..u64::MAX, cut_frac in 0.0f64..1.0) {
        let frame = Frame::new(7, Gen(seed).message());
        let bytes = encode_frame(&frame).expect("encode");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // A strict prefix either reports "incomplete" or never a frame.
        if cut < bytes.len() {
            if let Some((decoded, used)) = decode_frame(&bytes[..cut]).expect("prefix decode") {
                // Only possible if an empty-payload frame fits the prefix
                // exactly — and then it must be OUR frame's header, which
                // means the frame was empty-payload and cut == len.
                prop_assert_eq!(used, cut);
                prop_assert_eq!(decoded, frame);
            }
        }
    }
}

/// A well-formed frame header for `message`'s opcode carrying `payload`
/// verbatim.
fn frame_with_payload(message: Message, payload: &[u8]) -> Vec<u8> {
    let mut bytes = encode_frame(&Frame::new(1, message)).expect("encode");
    bytes.truncate(HEADER_LEN);
    bytes[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Deepest array/object nesting of a JSON text.
fn json_depth(text: &str) -> usize {
    let (mut depth, mut deepest) = (0usize, 0usize);
    let (mut in_string, mut escaped) = (false, false);
    for c in text.chars() {
        match (in_string, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (true, false, '"') | (false, _, '"') => in_string = !in_string,
            (false, _, '[' | '{') => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            (false, _, ']' | '}') => depth -= 1,
            _ => {}
        }
    }
    deepest
}

fn hello() -> Message {
    Message::Hello(HelloRequest {
        protocol_version: PROTOCOL_VERSION,
        tenant: "t".into(),
    })
}

#[test]
fn payloads_nested_past_the_recursion_limit_are_malformed() {
    for depth in [RECURSION_LIMIT + 1, 100_000] {
        for (message, op) in [
            (hello(), "Hello"),
            (Message::Predict(Box::new(Gen(1).plan(0))), "Predict"),
        ] {
            let payload = "[".repeat(depth) + &"]".repeat(depth);
            match decode_frame(&frame_with_payload(message, payload.as_bytes())) {
                Err(ProtocolError::MalformedPayload { op: got, detail }) => {
                    assert_eq!(got, op);
                    assert!(detail.contains("recursion limit"), "{detail}");
                }
                other => {
                    panic!("{op} nested {depth} deep: expected MalformedPayload, got {other:?}")
                }
            }
        }
    }
}

#[test]
fn deepest_generated_plans_and_trained_models_round_trip() {
    // The deepest plan the workload generator produces: joins over every
    // table of each preset schema.
    let mut deepest: Option<(usize, PlanNode)> = None;
    for (catalog, seed) in [
        (presets::imdb_like(0.02), 3u64),
        (presets::ssb_like(0.02), 5),
    ] {
        let db = Database::generate(catalog, seed);
        let spec = WorkloadSpec {
            max_tables: db.catalog().tables().len(),
            ..WorkloadSpec::default()
        };
        let queries = WorkloadGenerator::new(spec).generate(db.catalog(), 200, seed);
        for plan in QueryRunner::with_defaults(&db).plan_workload(&queries) {
            let depth = json_depth(&serde_json::to_string(&plan).expect("plan json"));
            if deepest.as_ref().is_none_or(|(d, _)| depth > *d) {
                deepest = Some((depth, plan));
            }
        }
    }
    let (depth, plan) = deepest.expect("generated plans");
    let frame = Frame::new(9, Message::PredictBatch(vec![plan.clone(), plan.clone()]));
    let bytes = encode_frame(&frame).expect("encode");
    assert!(json_depth(std::str::from_utf8(&bytes[HEADER_LEN..]).unwrap()) < RECURSION_LIMIT);
    assert_eq!(
        decode_frame(&bytes).expect("decode"),
        Some((frame, bytes.len()))
    );
    assert!(
        depth < RECURSION_LIMIT / 2,
        "plan nesting {depth} is near the limit"
    );

    // Trained models as the registry persists them (`model.json`,
    // `multitask_model.json` are their `to_json`).
    let db = Database::generate(presets::imdb_like(0.02), 3);
    let runner = QueryRunner::with_defaults(&db);
    let queries = WorkloadGenerator::with_defaults().generate(db.catalog(), 12, 3);
    let executions = runner.run_workload(&queries, 0);
    let training = TrainingConfig {
        epochs: 1,
        ..TrainingConfig::tiny()
    };
    let graphs: Vec<_> = executions
        .iter()
        .map(|e| {
            zsdb_core::features::featurize_execution(db.catalog(), e, FeaturizerConfig::exact())
        })
        .collect();
    let single =
        Trainer::new(ModelConfig::tiny(), training, FeaturizerConfig::exact()).train(&graphs);
    let json = single.to_json();
    assert!(json_depth(&json) < RECURSION_LIMIT);
    assert_eq!(
        zsdb_core::TrainedModel::from_json(&json).unwrap().to_json(),
        json
    );

    let samples: Vec<_> = executions
        .iter()
        .map(|e| sample_from_execution(db.catalog(), e, FeaturizerConfig::estimated()))
        .collect();
    let multi = MultiTaskTrainer::new(
        MultiTaskConfig::tiny(),
        training,
        FeaturizerConfig::estimated(),
    )
    .train(&samples);
    let json = multi.to_json();
    assert!(json_depth(&json) < RECURSION_LIMIT);
    assert_eq!(
        zsdb_multitask::TrainedMultiTaskModel::from_json(&json)
            .unwrap()
            .to_json(),
        json
    );
}

/// `decode_frame` on hostile bytes: an error or a frame, never a panic,
/// and a decoded frame never claims more bytes than the buffer holds.
fn assert_decodes_safely(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(Some((_, used))) = decode_frame(bytes) {
        prop_assert!(
            used <= bytes.len(),
            "consumed {used} of {} bytes",
            bytes.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic(
        body in prop::collection::vec(0u16..256, 0..256),
        header_only in 0u8..2,
        version in 1u8..3,
    ) {
        let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
        // Raw garbage, and garbage behind a valid magic and version so it
        // reaches the header, length and payload checks.
        assert_decodes_safely(&body)?;
        let mut framed = MAGIC.to_vec();
        framed.push(version);
        framed.extend_from_slice(&body);
        if header_only == 1 && framed.len() >= HEADER_LEN {
            let payload_len = (framed.len() - HEADER_LEN) as u32;
            framed[6..8].copy_from_slice(&[0, 0]);
            framed[16..20].copy_from_slice(&payload_len.to_le_bytes());
        }
        assert_decodes_safely(&framed)?;
    }

    #[test]
    fn bit_flipped_frames_never_panic(seed in 0u64..u64::MAX, trace_id in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let trace_id = if seed.is_multiple_of(2) { 0 } else { trace_id };
        let mut bytes = encode_frame(&Frame::traced(3, trace_id, gen.message())).expect("encode");
        for _ in 0..=gen.below(4) {
            let bit = gen.below(bytes.len() as u64 * 8) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert_decodes_safely(&bytes)?;
    }
}
