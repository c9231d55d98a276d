//! The scenario replay driver end to end: the whole seeded suite
//! (`mgp-scenario`'s `TraceGenerator`) replayed in order against one
//! live engine + front-end pair through `run_scenarios`. Every scenario
//! must run clean, and each mutation-bearing scenario must reach the
//! write path it exists to exercise.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use semantic_proximity::datagen::facebook::{generate_facebook, FacebookConfig, FAMILY};
use semantic_proximity::engine::scenario::{
    run_scenarios, DriverConfig, GeneratorConfig, Scenario, TraceGenerator,
};
use semantic_proximity::engine::{PipelineConfig, SearchEngine, TrainingStrategy};
use semantic_proximity::graph::NodeId;
use semantic_proximity::learning::{sample_examples, TrainConfig};

#[test]
fn seeded_suite_replays_clean_through_every_write_path() {
    let d = generate_facebook(&FacebookConfig::tiny(42));
    let mut cfg = PipelineConfig::new(d.anchor_type, 5);
    cfg.train = TrainConfig::fast(1);
    cfg.strategy = TrainingStrategy::Full;
    let mut engine = SearchEngine::build(d.graph.clone(), cfg);
    let anchors: Vec<NodeId> = d.graph.nodes_of_type(d.anchor_type).to_vec();
    let examples = sample_examples(
        &d.labels.queries_of_class(FAMILY),
        |q| d.labels.positives_of(q, FAMILY),
        |q, v| d.labels.has(q, v, FAMILY),
        &anchors,
        100,
        &mut ChaCha8Rng::seed_from_u64(9),
    );
    engine.train_class("family", &examples);

    let frontend = engine.serve_frontend();
    // A small hub keeps the storm's combinatorial instance delta cheap
    // in an unoptimised test build; it still touches anchors in several
    // shards.
    let gen_cfg = GeneratorConfig {
        hub_degree: 8,
        ..GeneratorConfig::default()
    };
    let storms = gen_cfg.storms;
    let mut generator = TraceGenerator::new(engine.graph(), engine.anchor_type(), gen_cfg);
    let traces = generator.generate_suite();
    let classes_before = frontend.server().n_classes();
    let report = run_scenarios(&mut engine, &frontend, &traces, &DriverConfig::default());

    assert_eq!(report.scenarios.len(), Scenario::ALL.len());
    for (trace, s) in traces.iter().zip(&report.scenarios) {
        assert!(
            s.clean(),
            "{}: {} query errors, mutation failures: {:?}",
            s.scenario,
            s.errors,
            s.mutation_failures
        );
        assert_eq!(
            s.completed,
            trace.n_queries() as u64,
            "{}: every generated query must be answered",
            s.scenario
        );
    }

    let steady = report.get("steady-read").expect("steady-read ran");
    assert!(
        steady.cache_hits > 0,
        "zipfian steady reads must hit the result cache"
    );

    let churn = report.get("diurnal-churn").expect("diurnal-churn ran");
    assert!(churn.deltas >= 2, "diurnal churn must actually churn");

    let buster = report.get("cache-buster").expect("cache-buster ran");
    assert!(
        buster.shed_events < buster.completed,
        "cache-buster drowned in admission sheds ({} sheds / {} queries)",
        buster.shed_events,
        buster.completed
    );

    let storm = report.get("deletion-storm").expect("deletion-storm ran");
    assert_eq!(
        storm.deltas,
        2 * storms,
        "each storm is one hub-build delta and one hub-drop delta"
    );
    assert!(
        storm.match_work.instances > 0 && storm.match_work.proposals > 0,
        "storm deltas must exercise the wcoj delta matcher (got {})",
        storm.match_work
    );
    assert!(
        storm.fused_shard_visits > 0 && storm.fused_shard_visits <= storm.sequential_shard_visits,
        "storm deltas must land through the fused patch path ({} fused / {} sequential)",
        storm.fused_shard_visits,
        storm.sequential_shard_visits
    );

    let register = report
        .get("register-mid-traffic")
        .expect("register-mid-traffic ran");
    assert_eq!(register.registers, 1);
    assert_eq!(frontend.server().n_classes(), classes_before + 1);
    frontend.shutdown();
}
