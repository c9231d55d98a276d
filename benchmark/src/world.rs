//! The fixed set-up every workload starts from: one dataset, the offline
//! pipeline (mine → match → index → train), and a front-end over the
//! trained engine. Set-up ends at the first correct answer.

use crate::spec;
use mgp_core::{Frontend, PipelineConfig, SearchEngine, TrainingStrategy};
use mgp_datagen::facebook::{generate_facebook, CLASSMATE, FAMILY};
use mgp_datagen::{ClassId, Dataset};
use mgp_eval::{ndcg_at, Split};
use mgp_graph::NodeId;
use mgp_learning::{sample_examples, TrainConfig};
use mgp_metagraph::Metagraph;
use mgp_scenario::{ClassSpec, PatternSelect};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Ground-truth class ids, in [`spec::CLASSES`] order.
const CLASS_IDS: [ClassId; 2] = [FAMILY, CLASSMATE];
/// Seeds of the per-class train/test split and example sampling — part
/// of the fixed set-up, never derived from `--seed`.
const SPLIT_SEEDS: [u64; 2] = [9, 11];

/// The trained engine plus what verification and `ndcg10` need.
pub struct World {
    /// Graph and ground-truth labels.
    pub dataset: Dataset,
    /// The trained engine.
    pub engine: SearchEngine,
    /// Held-out queries per class with their relevant answers.
    pub held_out: [Vec<(NodeId, Vec<NodeId>)>; 2],
    /// Dataset generation time.
    pub datagen_ms: f64,
}

impl World {
    /// Generates the dataset and runs the offline pipeline.
    pub fn build(smoke: bool) -> World {
        let t0 = Instant::now();
        let dataset = generate_facebook(&spec::dataset(smoke));
        let datagen_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut cfg = PipelineConfig::new(dataset.anchor_type, spec::MIN_SUPPORT);
        cfg.train = TrainConfig::fast(1);
        cfg.strategy = TrainingStrategy::Full;
        let mut engine = SearchEngine::build(dataset.graph.clone(), cfg);

        let anchors: Vec<NodeId> = dataset.graph.nodes_of_type(dataset.anchor_type).to_vec();
        let mut held_out = [Vec::new(), Vec::new()];
        for (c, &class) in CLASS_IDS.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(SPLIT_SEEDS[c]);
            let queries = dataset.labels.queries_of_class(class);
            let split = Split::random(&queries, spec::TRAIN_FRACTION, &mut rng);
            let examples = sample_examples(
                &split.train,
                |q| dataset.labels.positives_of(q, class),
                |q, v| dataset.labels.has(q, v, class),
                &anchors,
                spec::EXAMPLES_PER_CLASS,
                &mut rng,
            );
            engine.train_class(spec::CLASSES[c], &examples);
            held_out[c] = split
                .test
                .iter()
                .take(spec::NDCG_QUERIES_PER_CLASS)
                .map(|&q| (q, dataset.labels.positives_of(q, class)))
                .collect();
        }
        World {
            dataset,
            engine,
            held_out,
            datagen_ms,
        }
    }

    /// All anchor nodes, in graph order.
    pub fn anchors(&self) -> Vec<NodeId> {
        self.dataset
            .graph
            .nodes_of_type(self.dataset.anchor_type)
            .to_vec()
    }

    /// [`spec::EQUIV_QUERIES`] anchors spread evenly over the graph: the
    /// queries compared bit for bit after churn and after each reopen.
    pub fn equivalence_queries(&self) -> Vec<NodeId> {
        let anchors = self.anchors();
        anchors
            .iter()
            .step_by((anchors.len() / spec::EQUIV_QUERIES).max(1))
            .copied()
            .take(spec::EQUIV_QUERIES)
            .collect()
    }

    /// A front-end over a fresh server with the benchmark's fixed
    /// serving configuration.
    pub fn serve(&self) -> Frontend {
        self.engine
            .serve_frontend_with(spec::serve_config(), spec::frontend_config())
    }

    /// The class a `lifecycle-storm` cycle registers. `Custom` metagraphs
    /// are appended to the engine's pattern set as new patterns, so
    /// registration has to match each of them first: two users who share
    /// one, two or three attributes of a kind (work, family, study).
    pub fn custom_class(&self) -> ClassSpec {
        let types = self.dataset.graph.types();
        let ty = |name: &str| types.id(name).expect("facebook schema type");
        let user = ty("user");
        // Users sit at positions 0 and 1; each shared attribute is
        // adjacent to both.
        let sharing = |attrs: &[&str]| {
            let mut node_types = vec![user, user];
            node_types.extend(attrs.iter().map(|a| ty(a)));
            let edges: Vec<(usize, usize)> = (2..node_types.len())
                .flat_map(|a| [(0, a), (1, a)])
                .collect();
            Metagraph::from_edges(&node_types, &edges).expect("a valid metagraph")
        };
        let shapes = vec![
            sharing(&["employer", "work-location"]),
            sharing(&["employer", "work-location", "work-project"]),
            sharing(&["surname", "hometown", "location"]),
            sharing(&["school", "major", "degree"]),
            sharing(&["school", "employer"]),
            sharing(&["location", "employer"]),
        ];
        ClassSpec::new("acquaintance", PatternSelect::Custom(shapes))
    }
}

/// One complete set-up, timed from `from` to the first correct answer
/// through the front-end.
pub fn set_up(smoke: bool, from: Instant) -> (World, Frontend, f64) {
    let world = World::build(smoke);
    let frontend = world.serve();
    let q = world.anchors()[0];
    let answer = frontend
        .submit(0, q, spec::ZIPF_K)
        .and_then(|t| t.wait())
        .expect("the first query is answered");
    assert_eq!(
        *answer,
        world.engine.search(spec::CLASSES[0], q, spec::ZIPF_K),
        "set-up: the first answer through the front-end must equal SearchEngine::search"
    );
    let secs = from.elapsed().as_secs_f64();
    (world, frontend, secs)
}

/// NDCG@10 over the held-out queries, answered through `frontend`.
/// Returns the score, the queries attempted and how many failed.
pub fn ndcg10(world: &World, frontend: &Frontend) -> (f64, u64, u64) {
    let (mut sum, mut scored, mut attempted, mut failed) = (0.0, 0u64, 0u64, 0u64);
    for (c, queries) in world.held_out.iter().enumerate() {
        for chunk in queries.chunks(spec::IN_FLIGHT) {
            let tickets: Vec<_> = chunk
                .iter()
                .map(|(q, _)| frontend.submit(c, *q, 10))
                .collect();
            for ((_, relevant), ticket) in chunk.iter().zip(tickets) {
                attempted += 1;
                match ticket.and_then(|t| t.wait()) {
                    Ok(list) => {
                        let ranking: Vec<NodeId> = list.iter().map(|&(v, _)| v).collect();
                        sum += ndcg_at(&ranking, relevant, 10);
                        scored += 1;
                    }
                    Err(_) => failed += 1,
                }
            }
        }
    }
    (sum / scored.max(1) as f64, attempted, failed)
}
