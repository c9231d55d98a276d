//! The [`QueryServer`]: a batched, concurrent top-k proximity ranker.
//!
//! ## From per-query loop to serving layer
//!
//! The seed's online phase answers one query at a time with
//! `mgp_learning::mgp::rank`: for query `q` it walks `q`'s index partners
//! and evaluates `π(q, v; w) = 2 (m_qv · w) / (m_q · w + m_v · w)` from the
//! sparse vectors, recomputing every dot product per candidate. A trained
//! model's weights are *fixed* at serve time, so all of those dot products
//! are query-independent — the server materialises them once per class:
//!
//! * `m_v · w` for every anchor node → one dense score per node,
//! * `m_qv · w` for every co-occurring pair → one score per posting,
//!
//! and folds both into per-anchor **fused posting blocks** carrying the
//! **final proximity**, partitioned into shards by `q`. A query then
//! costs one contiguous column sweep plus a top-k sort — no arithmetic,
//! no per-candidate lookups. Scores come out bit-identical to the seed
//! path because each dot is evaluated once with the same
//! `mgp_index::dot` accumulation over the same coordinate order, the
//! score uses the same final expression, and the tie-break comparator is
//! copied verbatim.
//!
//! ## Fused posting layout: one block per anchor, one column per class
//!
//! Each anchor `q` owns a single structure-of-arrays `FusedBlock`:
//! one sorted candidate-id array shared by every class, plus one dense
//! `f64` score column **per registered class** (absent `(class,
//! candidate)` combinations hold a sentinel). Ranking class `c` for `q`
//! is one branch-light sweep over `columns[c]` in fixed-width chunks —
//! a chunk whose maximum can't reach the current top-k gate is skipped
//! wholesale, and the loop shape auto-vectorizes — so
//! [`QueryServer::rank_multi`] walks N classes over **one** hot
//! candidate array instead of N pointer-chased posting lists. Delta
//! replay patches score columns in place and rebuilds an anchor's block
//! only when its candidate union actually changes.
//!
//! ## Concurrency model: epoch-swapped shard snapshots
//!
//! Shards live at the **server** level: shard `q mod n` carries *every*
//! registered class's columns for the anchors it owns. Every shard sits
//! behind an `arc_swap::ArcSwap<Shard>`: readers pin the current epoch
//! with **one atomic load** (no lock, no reference-count contention) and
//! then rank entirely from that snapshot; because one snapshot covers
//! all classes, a multi-class query ([`QueryServer::rank_multi`]) pins
//! exactly one epoch however many classes it ranks.
//! [`QueryServer::apply_delta`] takes `&self`: the writer prepares a
//! patched **copy** of each touched shard off to the side (blocks are
//! individually `Arc`'d, so the copy shares every untouched block and
//! deep-clones only the patched ones) and installs it with one atomic
//! pointer swap; the replaced epoch is reclaimed only after every
//! in-flight reader pin has drained. Serving therefore never pauses for
//! ingest; a query observes each shard either entirely pre-delta or
//! entirely post-delta, never a half-patched one. Independent shards of
//! one wide delta are patched **in parallel** across the rayon pool
//! (see [`QueryServer::apply_delta_fused`]).
//!
//! ## Multi-class fusion
//!
//! One graph event usually touches *every* class (classes share the
//! per-pattern instance deltas upstream). [`QueryServer::apply_delta_fused`]
//! therefore plans the posting ops of **all** classes first and then
//! visits each affected shard **once**: one copy-on-write clone, one
//! replay covering every class's ops, one pointer swap — instead of the
//! `classes × shards` clone/swap cycles that per-class application costs.
//! The saving is reported as [`FusedDeltaStats::fused_shard_visits`]
//! against the per-class sum. Writers to a shard serialise on a
//! per-shard patch lock (readers never touch it), so concurrent
//! different-class deltas still interleave safely at shard granularity.
//!
//! Generation stamps ride *inside* the shard snapshot next to the
//! postings, so the pair (generation, posting) a query reads is always
//! mutually consistent — a cache fill can never stamp a pre-delta result
//! with a post-delta generation, which is what makes the lazy
//! generation-stamped invalidation safe under concurrency. Writers to the
//! *same* class serialise on a per-class ingest lock; writers to
//! different classes, and all readers, proceed in parallel.
//!
//! [`QueryServer::rank_batch`] first coalesces duplicate queries, then
//! splits the distinct misses into one contiguous chunk per rayon
//! worker. Workers write disjoint slices of the result vector and only
//! *read* the batch's shard snapshots, so the compute phase is lock-free;
//! each worker reuses a scratch buffer across its chunk so the hot
//! loop does no per-query allocation beyond the returned lists. The
//! bounded LRU cache is consulted once before the parallel section and
//! updated once after it (two short critical sections per batch, none per
//! query).

use crate::cache::LruCache;
use crate::histogram::{LatencyHistogram, LatencySnapshot};
use arc_swap::ArcSwap;
use mgp_graph::{FxHashMap, FxHashSet, NodeId};
use mgp_index::{IndexTouch, VectorIndex};
use parking_lot::{Mutex, MutexGuard};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// A ranked result list: `(node, score)` in descending score order.
pub type RankedList = Vec<(NodeId, f64)>;

/// A shareable server handle: clone it into every serving thread while a
/// writer thread keeps calling [`QueryServer::apply_delta`] (all of it
/// `&self`) through its own clone.
pub type ServerHandle = Arc<QueryServer>;

/// Cache payload: the anchor's invalidation generation at fill time plus
/// the shared result (see the field docs on [`QueryServer`]).
type CachedEntry = (u64, Arc<RankedList>);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads for [`QueryServer::rank_batch`] (0 = available
    /// parallelism).
    pub workers: usize,
    /// Posting-list shards per class (0 = 4 × workers, at least 1).
    pub shards: usize,
    /// Bounded LRU capacity in `(class, query, k)` entries (0 disables
    /// caching).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            shards: 0,
            cache_capacity: 4096,
        }
    }
}

impl ServeConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            rayon::current_num_threads()
        } else {
            self.workers
        }
    }

    fn resolved_shards(&self) -> usize {
        if self.shards == 0 {
            (4 * self.resolved_workers()).max(1)
        } else {
            self.shards
        }
    }
}

/// Score sentinel for a `(class, candidate)` combination with no posting
/// entry. `NEG_INFINITY` (not `NaN`) so the sentinel stays inside the
/// comparator's total order — the verbatim tie-break uses
/// `partial_cmp().unwrap()`, which a `NaN` would panic. Real proximities
/// are always finite (finite count vectors and weights produce finite
/// dots, and `score_of` returns `0.0` for a non-positive denominator),
/// so the sentinel can never collide with a live score.
const ABSENT: f64 = f64::NEG_INFINITY;

/// The sentinel marking "this class has no entry for this candidate" in
/// an exported score column ([`PostingExport::columns`]). Snapshot
/// readers and writers must preserve it bit-for-bit.
pub const ABSENT_SCORE: f64 = ABSENT;

/// One anchor's fused posting block in export form — the payload
/// [`QueryServer::export_postings`] emits and
/// [`QueryServer::from_parts`] installs. The field layout mirrors the
/// internal structure-of-arrays block: one ascending candidate array
/// plus one dense score column per class slot (a column may be missing
/// for classes registered after the block was last rebuilt, which is
/// equivalent to all-[`ABSENT_SCORE`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PostingExport {
    /// The anchor (query) node id owning this block.
    pub anchor: u32,
    /// Candidate node ids, strictly ascending — the union of every
    /// class's partner set for this anchor.
    pub candidates: Vec<u32>,
    /// Per-class-slot score columns, each exactly `candidates.len()`
    /// long; absent entries hold [`ABSENT_SCORE`].
    pub columns: Vec<Vec<f64>>,
}

/// A class to register on the warm-start path
/// ([`QueryServer::from_parts`]): the same `(name, index, weights)`
/// triple [`QueryServer::add_class`] takes, borrowed so callers can
/// hand over their model storage without cloning.
#[derive(Debug, Clone, Copy)]
pub struct ClassExport<'a> {
    /// Class name (the id is the position in the slice).
    pub name: &'a str,
    /// The class's restricted vector index.
    pub index: &'a VectorIndex,
    /// Learned weights, one per index coordinate.
    pub weights: &'a [f64],
}

/// Chunk width of the fused scoring sweep: the per-chunk max reduction
/// and the gated copy both run over fixed 8-wide lanes, the shape LLVM
/// auto-vectorizes on every target with 128/256-bit vector units.
const LANES: usize = 8;

/// One anchor's fused posting block, structure-of-arrays: a single
/// candidate-id array sorted ascending (the union of every class's
/// partner set) plus one dense score column **per class slot**, aligned
/// index-for-index with `candidates`. A candidate a class has no entry
/// for holds [`ABSENT`] in that class's column.
///
/// Columns may be *shorter* than the server's class-slot count: a block
/// untouched since before a class registered simply has no column for it
/// (equivalent to all-[`ABSENT`]). Blocks are individually `Arc`'d so a
/// copy-on-write shard clone shares every untouched block; delta replay
/// writes score columns in place (under `Arc::make_mut`) and only
/// rebuilds a block when its candidate union changes.
#[derive(Debug, Default, Clone)]
struct FusedBlock {
    candidates: Vec<u32>,
    columns: Vec<Vec<f64>>,
}

impl FusedBlock {
    /// Present (non-sentinel) entries in one class's column — the fused
    /// equivalent of that class's old posting-list length for this
    /// anchor (0 when the column is missing or all-absent).
    fn column_entries(&self, cid: usize) -> usize {
        self.columns
            .get(cid)
            .map_or(0, |col| col.iter().filter(|&&s| s != ABSENT).count())
    }

    /// Whether the class logically has a posting for this anchor.
    fn has_column_entries(&self, cid: usize) -> bool {
        self.columns
            .get(cid)
            .is_some_and(|col| col.iter().any(|&s| s != ABSENT))
    }

    /// Grow `columns` (all-absent) so slot `cid` exists.
    fn ensure_slot(&mut self, cid: usize) {
        if self.columns.len() <= cid {
            let len = self.candidates.len();
            self.columns.resize_with(cid + 1, || vec![ABSENT; len]);
        }
    }
}

/// Per-worker scratch for delta replay: the rebuilt posting and the
/// candidate-union merge buffer, reused across every op a worker replays
/// so the hot loop allocates only for blocks that genuinely change shape.
#[derive(Default)]
struct PatchScratch {
    posting: Vec<(u32, f64)>,
    union: Vec<u32>,
}

/// Install `posting` (sorted ascending by candidate id — the index
/// partner order) as class `cid`'s column of anchor `q`'s block. Merges
/// with the candidates other classes keep: when the block's candidate
/// union is unchanged the column is overwritten **in place** (one
/// copy-on-write of the block, no remap of other columns); otherwise the
/// block is rebuilt around the new union. A block left with no present
/// entry in any class is dropped from the shard.
fn install_column(
    blocks: &mut FxHashMap<u32, Arc<FusedBlock>>,
    cid: usize,
    q: u32,
    posting: &[(u32, f64)],
    union: &mut Vec<u32>,
) {
    use std::collections::hash_map::Entry;
    let mut slot = match blocks.entry(q) {
        Entry::Occupied(slot) => slot,
        Entry::Vacant(slot) => {
            if !posting.is_empty() {
                let mut block = FusedBlock {
                    candidates: posting.iter().map(|&(v, _)| v).collect(),
                    columns: Vec::new(),
                };
                block.ensure_slot(cid);
                for (dst, &(_, s)) in block.columns[cid].iter_mut().zip(posting) {
                    *dst = s;
                }
                slot.insert(Arc::new(block));
            }
            return;
        }
    };

    // New candidate union: every old candidate some *other* class still
    // scores, merged with the new posting's ids (both sides sorted).
    let old = slot.get();
    union.clear();
    let mut pi = 0;
    for (i, &c) in old.candidates.iter().enumerate() {
        while pi < posting.len() && posting[pi].0 < c {
            union.push(posting[pi].0);
            pi += 1;
        }
        let in_posting = pi < posting.len() && posting[pi].0 == c;
        if in_posting {
            pi += 1;
        }
        let kept_by_others = old
            .columns
            .iter()
            .enumerate()
            .any(|(s, col)| s != cid && col[i] != ABSENT);
        if in_posting || kept_by_others {
            union.push(c);
        }
    }
    union.extend(posting[pi..].iter().map(|&(v, _)| v));

    if union.is_empty() {
        slot.remove();
    } else if *union == old.candidates {
        // Candidate set unchanged: overwrite the one column in place.
        let block = Arc::make_mut(slot.get_mut());
        block.ensure_slot(cid);
        let col = &mut block.columns[cid];
        col.iter_mut().for_each(|s| *s = ABSENT);
        let mut pi = 0;
        for (i, &c) in block.candidates.iter().enumerate() {
            if pi < posting.len() && posting[pi].0 == c {
                col[i] = posting[pi].1;
                pi += 1;
            }
        }
    } else {
        // Union changed: rebuild the block, remapping every other
        // class's column onto the new candidate array.
        let n_slots = old.columns.len().max(cid + 1);
        let mut next = FusedBlock {
            candidates: union.clone(),
            columns: Vec::with_capacity(n_slots),
        };
        for s in 0..n_slots {
            let mut col = vec![ABSENT; next.candidates.len()];
            if s == cid {
                let mut pi = 0;
                for (i, &c) in next.candidates.iter().enumerate() {
                    if pi < posting.len() && posting[pi].0 == c {
                        col[i] = posting[pi].1;
                        pi += 1;
                    }
                }
            } else if let Some(old_col) = old.columns.get(s) {
                let mut oi = 0;
                for (i, &c) in next.candidates.iter().enumerate() {
                    while oi < old.candidates.len() && old.candidates[oi] < c {
                        oi += 1;
                    }
                    if oi < old.candidates.len() && old.candidates[oi] == c {
                        col[i] = old_col[oi];
                    }
                }
            }
            next.columns.push(col);
        }
        *slot.get_mut() = Arc::new(next);
    }
}

/// Rebuild anchor `x`'s column for class `cid` from the index wholesale,
/// clearing it (and possibly the whole block) when `x` has no partners
/// left. Stats semantics match the pre-fusion per-class posting lists
/// exactly: `rebuilt_postings` per non-empty rebuild, `dropped_postings`
/// when an existing posting vanishes.
fn rebuild_block_column(
    blocks: &mut FxHashMap<u32, Arc<FusedBlock>>,
    cid: usize,
    x: u32,
    index: &VectorIndex,
    w: &WriterState,
    stats: &mut DeltaStats,
    scratch: &mut PatchScratch,
) {
    let PatchScratch { posting, union } = scratch;
    let partners = index.partners(NodeId(x));
    if partners.is_empty() {
        let had = blocks.get(&x).is_some_and(|b| b.has_column_entries(cid));
        if had {
            stats.dropped_postings += 1;
            install_column(blocks, cid, x, &[], union);
        }
    } else {
        posting.clear();
        posting.extend(
            partners
                .iter()
                .map(|&v| (v, score_of(x, v, &w.node_dots, &w.pair_dots))),
        );
        install_column(blocks, cid, x, posting, union);
        stats.rebuilt_postings += 1;
    }
}

/// Rescore (or insert, for a brand-new partner) class `cid`'s entry for
/// candidate `v` in anchor `q`'s block.
fn patch_block_entry(
    blocks: &mut FxHashMap<u32, Arc<FusedBlock>>,
    cid: usize,
    q: u32,
    v: u32,
    w: &WriterState,
    stats: &mut DeltaStats,
) {
    let score = score_of(q, v, &w.node_dots, &w.pair_dots);
    let slot = blocks.entry(q).or_default();
    let block = Arc::make_mut(slot);
    block.ensure_slot(cid);
    match block.candidates.binary_search(&v) {
        Ok(pos) => block.columns[cid][pos] = score,
        Err(pos) => {
            block.candidates.insert(pos, v);
            for (s, col) in block.columns.iter_mut().enumerate() {
                col.insert(pos, if s == cid { score } else { ABSENT });
            }
        }
    }
    stats.patched_entries += 1;
}

/// Remove class `cid`'s dead entry for candidate `v` from anchor `q`'s
/// block: the score reverts to [`ABSENT`]; a candidate no class scores
/// any more is spliced out of the block (tombstone compaction), and a
/// block with no candidates left leaves the shard.
fn remove_block_entry(
    blocks: &mut FxHashMap<u32, Arc<FusedBlock>>,
    cid: usize,
    q: u32,
    v: u32,
    stats: &mut DeltaStats,
) {
    let Some(slot) = blocks.get_mut(&q) else {
        return;
    };
    // Probe the shared block before make_mut: a no-op remove (entry
    // already absent) must not deep-clone the block and lose the
    // structural sharing with the previous epoch.
    let Ok(pos) = slot.candidates.binary_search(&v) else {
        return;
    };
    if slot.columns.get(cid).is_none_or(|col| col[pos] == ABSENT) {
        return;
    }
    let block = Arc::make_mut(slot);
    block.columns[cid][pos] = ABSENT;
    stats.removed_entries += 1;
    if !block.has_column_entries(cid) {
        stats.dropped_postings += 1;
    }
    if block.columns.iter().all(|col| col[pos] == ABSENT) {
        block.candidates.remove(pos);
        for col in &mut block.columns {
            col.remove(pos);
        }
    }
    if block.candidates.is_empty() {
        blocks.remove(&q);
    }
}

/// One planned posting mutation, replayed against the copy-on-write clone
/// of its shard in the order the monolithic algorithm would have applied
/// it.
enum Op {
    /// Rebuild anchor's whole posting (its own dot changed).
    Rebuild(u32),
    /// Rescore/insert the entry for candidate `.1` in anchor `.0`'s list.
    Patch(u32, u32),
    /// Remove the dead entry for candidate `.1` from anchor `.0`'s list.
    Remove(u32, u32),
}

/// Writer-side state of a class: the dot tables and weights needed to
/// score patched entries. Only delta application touches it, under the
/// per-class ingest lock — readers never look here.
struct WriterState {
    weights: Vec<f64>,
    node_dots: FxHashMap<u32, f64>,
    pair_dots: FxHashMap<u64, f64>,
}

/// One epoch snapshot of a server-level shard: the fused posting blocks
/// of every anchor `q` with `q mod n_shards == shard_id` (each block
/// carrying **all** classes' score columns), plus one invalidation
/// generation map per class slot. Blocks and generation maps are
/// individually `Arc`'d so a copy-on-write shard clone is a map of
/// pointer copies — a delta deep-clones only the blocks it patches and
/// the generation maps of the classes it bumps. Generations live *in*
/// the snapshot so a reader always observes a (generation, block) pair
/// from the same epoch.
#[derive(Debug, Default)]
struct Shard {
    blocks: FxHashMap<u32, Arc<FusedBlock>>,
    /// Per-class-slot `anchor → generation` maps; anchors absent from a
    /// map are at generation 0, as is any class slot registered after
    /// this snapshot was taken.
    generations: Vec<Arc<FxHashMap<u32, u64>>>,
}

impl Shard {
    /// Class `cid`'s invalidation stamp for anchor `q`.
    fn generation(&self, cid: usize, q: u32) -> u64 {
        self.generations
            .get(cid)
            .map_or(0, |g| g.get(&q).copied().unwrap_or(0))
    }

    /// Ranks one query for one class into `out`, replicating
    /// `mgp_learning::mgp::rank_with_scores` bit-for-bit: one chunked
    /// sweep over the class's score column collects a superset of the
    /// true top-k, and the verbatim tie-break sort finishes it.
    ///
    /// The sweep processes [`LANES`]-wide chunks: a branch-free max
    /// reduction prices each chunk, and once `k` candidates are
    /// collected a *gate* (the minimum collected score — a lower bound
    /// on the final k-th score, which only rises as more candidates
    /// land) skips every chunk whose max falls strictly below it.
    /// Strictness keeps score-ties: a candidate tying the gate can still
    /// enter the final top-k on the ascending-id tie-break.
    fn rank_into(
        &self,
        cid: usize,
        q: NodeId,
        k: usize,
        scratch: &mut Scratch,
        out: &mut RankedList,
    ) {
        out.clear();
        let Some(block) = self.blocks.get(&q.0) else {
            return;
        };
        let Some(col) = block.columns.get(cid) else {
            return;
        };
        scratch.scored.clear();
        let mut gate = ABSENT;
        let mut gated = false;
        for (cands, scores) in block.candidates.chunks(LANES).zip(col.chunks(LANES)) {
            let mut m = ABSENT;
            for &s in scores {
                m = if s > m { s } else { m };
            }
            if m == ABSENT || m < gate {
                continue; // all-absent, or provably below the top-k
            }
            for (&v, &s) in cands.iter().zip(scores) {
                if s != ABSENT && s >= gate {
                    scratch.scored.push((s, v));
                }
            }
            if !gated && scratch.scored.len() >= k {
                gated = true;
                gate = scratch
                    .scored
                    .iter()
                    .fold(f64::INFINITY, |g, &(s, _)| if s < g { s } else { g });
            }
        }
        // Verbatim tie-break from mgp::rank_with_scores: descending score,
        // then ascending node id.
        scratch
            .scored
            .sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        scratch.scored.truncate(k);
        out.extend(scratch.scored.iter().map(|&(s, v)| (NodeId(v), s)));
    }
}

/// A shard's slot in the server: the live epoch plus writer-side
/// bookkeeping.
struct ShardSlot {
    /// The live epoch. Readers pin it with one atomic load — no lock,
    /// no shared-refcount bump (see the `arc_swap` shim); a replaced
    /// epoch is reclaimed only after every in-flight pin drains.
    current: ArcSwap<Shard>,
    /// Serialises writers *to this shard* (clone → replay → swap), so
    /// two concurrent deltas to different classes can never lose each
    /// other's swap. Readers never touch it.
    patch: Mutex<()>,
    /// Weak handles to replaced epochs, pruned as readers drop them —
    /// the raw data behind [`QueryServer::epoch_stats`].
    retired: Mutex<Vec<Weak<Shard>>>,
}

impl ShardSlot {
    fn new() -> Self {
        ShardSlot {
            current: ArcSwap::from_pointee(Shard::default()),
            patch: Mutex::new(()),
            retired: Mutex::new(Vec::new()),
        }
    }
}

/// A registered class: its name, cache counters, and the writer-side dot
/// tables (the postings themselves live in the server-level shards).
struct ClassState {
    name: String,
    /// Dot tables + weights, retained after build so delta application
    /// can re-dot only touched anchors/pairs. Doubles as the per-class
    /// ingest lock serialising same-class writers.
    writer: Mutex<WriterState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ClassState {
    fn new(name: &str, writer: WriterState) -> Self {
        ClassState {
            name: name.to_owned(),
            writer: Mutex::new(writer),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// The registered-class table: one entry per class id, individually
/// `Arc`'d so a copy-on-write append shares every existing entry (and
/// so a reader can hold a class across the table swap a concurrent
/// registration performs).
type ClassTable = Vec<Arc<ClassState>>;

/// Why [`QueryServer::register_class`] rejected a registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// A class with this name is already registered. The live path only
    /// *appends*: replacing a serving class's tables under `&self` would
    /// have to retract postings out from under in-flight queries holding
    /// its id — use a distinct name, or rebuild the server offline via
    /// [`QueryServer::add_class`] (which does replace, under `&mut self`).
    DuplicateName(String),
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::DuplicateName(name) => {
                write!(f, "class {name:?} is already registered")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// One class's planned contribution to a (possibly fused) delta
/// application: its writer guard (held until every shard is swapped),
/// the per-shard op lists and generation bumps, and the stats being
/// accumulated.
struct ClassPlan<'a> {
    /// Position in the caller's update slice (stats come back in input
    /// order even though locks are taken in class-id order).
    input_slot: usize,
    class_id: usize,
    index: &'a VectorIndex,
    guard: MutexGuard<'a, WriterState>,
    ops: FxHashMap<usize, Vec<Op>>,
    bumps: FxHashMap<usize, Vec<u32>>,
    stats: DeltaStats,
}

/// The read-only slice of a [`ClassPlan`] that phase-5 replay workers
/// share: replay only *reads* the writer state (dot tables, weights), so
/// one plan's context can fan out to every shard worker at once.
struct ReplayCtx<'a> {
    class_id: usize,
    index: &'a VectorIndex,
    writer: &'a WriterState,
    bumps: &'a FxHashMap<usize, Vec<u32>>,
}

/// Phases 1–4 of delta application for one class: refresh the dot tables
/// for exactly the touched set and plan the posting mutations — rebuild
/// the postings of anchors whose own `m_q · w` changed (dropping postings
/// of anchors with no partners left), patch the individual entries those
/// changes leak into (a changed node dot alters the denominator of every
/// posting entry *pointing at* that node; a changed pair dot alters the
/// two entries of that pair; a *dead* pair removes them), and group the
/// invalidation-stamp bumps by shard. Replay (phase 5) happens in
/// [`QueryServer::apply_delta_fused`], which fuses it across classes.
fn plan_class_delta(
    w: &mut WriterState,
    index: &VectorIndex,
    touch: &IndexTouch,
    n_shards: usize,
    stats: &mut DeltaStats,
) -> (FxHashMap<usize, Vec<Op>>, FxHashMap<usize, Vec<u32>>) {
    // Phase 1: refresh the dot tables for exactly the touched set;
    // vanished nodes/pairs leave the tables instead of staying at 0.
    let redot: FxHashSet<u32> = touch.nodes.iter().copied().collect();
    for &x in &touch.nodes {
        let vec = index.node_vec(NodeId(x));
        if vec.is_empty() {
            w.node_dots.remove(&x);
        } else {
            w.node_dots.insert(x, mgp_index::dot(vec, &w.weights));
        }
    }
    stats.redotted_nodes += touch.nodes.len();
    for &key in &touch.pairs {
        let (x, y) = mgp_graph::ids::unpack_pair(key);
        let vec = index.pair_vec(x, y);
        if vec.is_empty() {
            w.pair_dots.remove(&key);
        } else {
            w.pair_dots.insert(key, mgp_index::dot(vec, &w.weights));
        }
    }
    stats.redotted_pairs += touch.pairs.len();

    // Phase 2: plan whole-posting rebuilds for anchors with a changed
    // node dot (every entry's denominator moved, and partners may have
    // appeared or vanished).
    let mut ops: FxHashMap<usize, Vec<Op>> = FxHashMap::default();
    let mut changed: FxHashSet<u32> = FxHashSet::default();
    for &x in &touch.nodes {
        ops.entry(x as usize % n_shards)
            .or_default()
            .push(Op::Rebuild(x));
        changed.insert(x);
    }

    // Phase 3: plan single-entry patches. (a) For each anchor x with a
    // changed dot, every surviving partner v of x holds an entry
    // (v → x) whose denominator moved. (b) A touched pair {x, y}
    // where neither dot changed (defensive: deltas normally touch
    // both endpoints' node counts too) needs its two entries rescored
    // — or removed, when the pair died.
    for &x in &touch.nodes {
        for &v in index.partners(NodeId(x)) {
            if redot.contains(&v) {
                continue; // rebuilt wholesale
            }
            ops.entry(v as usize % n_shards)
                .or_default()
                .push(Op::Patch(v, x));
            changed.insert(v);
        }
    }
    for &key in &touch.pairs {
        let alive = w.pair_dots.contains_key(&key);
        let (x, y) = mgp_graph::ids::unpack_pair(key);
        for (q, v) in [(x.0, y.0), (y.0, x.0)] {
            if redot.contains(&q) {
                continue;
            }
            let op = if alive {
                Op::Patch(q, v)
            } else {
                Op::Remove(q, v)
            };
            ops.entry(q as usize % n_shards).or_default().push(op);
            changed.insert(q);
        }
    }
    stats.invalidated_anchors += changed.len();

    // Phase 4: group the invalidation-stamp bumps of every anchor
    // whose ranking may have moved by shard. Every op's target anchor
    // is in `changed`, so the bump shards are a superset of the op
    // shards.
    let mut bumps: FxHashMap<usize, Vec<u32>> = FxHashMap::default();
    for q in changed {
        bumps.entry(q as usize % n_shards).or_default().push(q);
    }
    (ops, bumps)
}

/// Per-worker reusable state: the candidate scoring buffer.
#[derive(Default)]
struct Scratch {
    scored: Vec<(f64, u32)>,
}

/// Final proximity of `(q, v)` from the dot tables — the exact expression
/// shape of `mgp_learning::mgp::proximity` for distinct nodes.
#[inline]
fn score_of(
    q: u32,
    v: u32,
    node_dots: &FxHashMap<u32, f64>,
    pair_dots: &FxHashMap<u64, f64>,
) -> f64 {
    let key = mgp_graph::ids::pack_pair(NodeId(q), NodeId(v));
    let pair_dot = pair_dots.get(&key).copied().unwrap_or(0.0);
    let nq = node_dots.get(&q).copied().unwrap_or(0.0);
    let nv = node_dots.get(&v).copied().unwrap_or(0.0);
    let denom = nq + nv;
    if denom <= 0.0 {
        0.0
    } else {
        2.0 * pair_dot / denom
    }
}

/// One posting map per shard: query id → scored partner list.
type ShardPostings = Vec<FxHashMap<u32, Vec<(u32, f64)>>>;

/// The shared precompute of class registration — build-time
/// ([`QueryServer::add_class`]) and live ([`QueryServer::register_class`])
/// alike: the writer-side dot tables (each entry evaluated once with the
/// same `mgp_index::dot` accumulation order the reference ranker uses)
/// plus the per-shard posting lists carrying final proximities.
fn build_class_tables(
    index: &VectorIndex,
    weights: &[f64],
    n_shards: usize,
) -> (WriterState, ShardPostings) {
    let mut node_dots: FxHashMap<u32, f64> =
        FxHashMap::with_capacity_and_hasher(index.n_nodes(), Default::default());
    for (x, v) in index.iter_nodes() {
        node_dots.insert(x.0, mgp_index::dot(v, weights));
    }
    let mut pair_dots: FxHashMap<u64, f64> =
        FxHashMap::with_capacity_and_hasher(index.n_pairs(), Default::default());
    for (key, v) in index.iter_pairs() {
        pair_dots.insert(key, mgp_index::dot(v, weights));
    }
    // Postings follow the index's partner order (ascending node id)
    // and carry the final proximity, evaluated with the same
    // expression shape as mgp::proximity (q == v cannot occur in a
    // posting: pairs are strictly unordered distinct nodes).
    let mut per_shard: ShardPostings = (0..n_shards).map(|_| FxHashMap::default()).collect();
    for (q, partners) in index.iter_partners() {
        let posting = posting_for(q, partners, &node_dots, &pair_dots);
        per_shard[q.0 as usize % n_shards].insert(q.0, posting);
    }
    let writer = WriterState {
        weights: weights.to_vec(),
        node_dots,
        pair_dots,
    };
    (writer, per_shard)
}

/// Materialises an anchor's posting list in the index's partner order
/// (ascending node id).
fn posting_for(
    q: NodeId,
    partners: &[u32],
    node_dots: &FxHashMap<u32, f64>,
    pair_dots: &FxHashMap<u64, f64>,
) -> Vec<(u32, f64)> {
    partners
        .iter()
        .map(|&v| (v, score_of(q.0, v, node_dots, pair_dots)))
        .collect()
}

/// Work accounting for one [`QueryServer::apply_delta`] call — evidence
/// that a delta stayed proportional to its touch set rather than the
/// class size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Node dot products recomputed.
    pub redotted_nodes: usize,
    /// Pair dot products recomputed.
    pub redotted_pairs: usize,
    /// Posting lists rebuilt wholesale (anchors whose own dot changed).
    pub rebuilt_postings: usize,
    /// Individual posting entries rescored or inserted.
    pub patched_entries: usize,
    /// Individual posting entries removed (dead pairs).
    pub removed_entries: usize,
    /// Whole posting lists dropped (anchors left with no partners).
    pub dropped_postings: usize,
    /// Anchors whose cached results were invalidated (generation bumped).
    pub invalidated_anchors: usize,
    /// Shard snapshots copy-on-write-cloned and epoch-swapped — the
    /// shards readers could observe flipping from the pre- to the
    /// post-delta epoch while this delta landed.
    pub swapped_shards: usize,
}

impl std::ops::AddAssign for DeltaStats {
    fn add_assign(&mut self, rhs: DeltaStats) {
        self.redotted_nodes += rhs.redotted_nodes;
        self.redotted_pairs += rhs.redotted_pairs;
        self.rebuilt_postings += rhs.rebuilt_postings;
        self.patched_entries += rhs.patched_entries;
        self.removed_entries += rhs.removed_entries;
        self.dropped_postings += rhs.dropped_postings;
        self.invalidated_anchors += rhs.invalidated_anchors;
        self.swapped_shards += rhs.swapped_shards;
    }
}

impl fmt::Display for DeltaStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} node / {} pair dots redone; postings: {} rebuilt, {} patched, \
             {} removed, {} dropped; {} anchors invalidated across {} shard swaps",
            self.redotted_nodes,
            self.redotted_pairs,
            self.rebuilt_postings,
            self.patched_entries,
            self.removed_entries,
            self.dropped_postings,
            self.invalidated_anchors,
            self.swapped_shards
        )
    }
}

/// One class's slice of a fused delta: the class to patch, its vector
/// index *after* `VectorIndex::apply_delta`, and the touch that call
/// returned. Input to [`QueryServer::apply_delta_fused`].
#[derive(Clone, Copy)]
pub struct ClassDelta<'a> {
    /// The registered class id (see [`QueryServer::class_id`]).
    pub class_id: usize,
    /// The class's vector index, already patched by the same graph event.
    pub index: &'a VectorIndex,
    /// The nodes/pairs the index patch touched.
    pub touch: &'a IndexTouch,
}

/// Work accounting for one [`QueryServer::apply_delta_fused`] call: the
/// per-class patch work plus the fused shard-visit count — the evidence
/// that one graph event touched each shard once, not once per class.
#[derive(Debug, Clone, Default)]
pub struct FusedDeltaStats {
    /// Per-class patch work, in the order of the updates passed in.
    pub per_class: Vec<DeltaStats>,
    /// Shards copy-on-write-cloned and epoch-swapped by this call —
    /// each visited **once** for all classes together.
    pub fused_shard_visits: usize,
}

impl FusedDeltaStats {
    /// The shard visits per-class application would have paid (the
    /// `classes × shards` product the fusion collapses): each class's
    /// `swapped_shards` summed.
    pub fn sequential_shard_visits(&self) -> usize {
        self.per_class.iter().map(|s| s.swapped_shards).sum()
    }

    /// All classes' patch work summed.
    pub fn total(&self) -> DeltaStats {
        let mut t = DeltaStats::default();
        for &s in &self.per_class {
            t += s;
        }
        t
    }
}

impl fmt::Display for FusedDeltaStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} classes in {} fused shard visits (sequential would take {}); total: {}",
            self.per_class.len(),
            self.fused_shard_visits,
            self.sequential_shard_visits(),
            self.total()
        )
    }
}

/// Copy-on-write memory retained by old epochs that slow readers still
/// pin — the gauges operators watch to see memory amplification under
/// churn (see [`QueryServer::epoch_stats`]). All values are zero when no
/// reader holds a pre-delta snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Retired shard epochs still alive because a reader pins them.
    pub retained_epochs: usize,
    /// Fused posting blocks in retained epochs **not shared** with the
    /// live epoch — the blocks churn actually duplicated.
    pub retained_postings: usize,
    /// Candidate rows across those unshared blocks (each row spans every
    /// class column).
    pub retained_posting_entries: usize,
    /// Approximate heap bytes the retained epochs keep alive beyond the
    /// live tables (unshared block payloads plus map-slot overhead).
    pub approx_retained_bytes: usize,
}

impl fmt::Display for EpochStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} retained epochs holding {} unshared postings ({} entries, ~{} bytes)",
            self.retained_epochs,
            self.retained_postings,
            self.retained_posting_entries,
            self.approx_retained_bytes
        )
    }
}

/// Per-class cache counters (the server-wide totals live in
/// [`ServerStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCacheStats {
    /// Queries for this class answered from the LRU cache.
    pub hits: u64,
    /// Queries for this class computed from the postings.
    pub misses: u64,
}

impl ClassCacheStats {
    /// Hit fraction in `[0, 1]` (0 when the class was never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sizes of one class's precomputed serving tables — observability for
/// capacity planning, and the churn-soak tests' leak detector (a delta
/// sequence that nets to nothing must restore these exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Posting lists across all shards (one per anchor with partners).
    pub n_postings: usize,
    /// Total posting entries across all lists.
    pub n_posting_entries: usize,
    /// Entries in the `m_x · w` node-dot table.
    pub n_node_dots: usize,
    /// Entries in the `m_xy · w` pair-dot table.
    pub n_pair_dots: usize,
}

impl fmt::Display for TableStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} postings ({} entries), {} node dots, {} pair dots",
            self.n_postings, self.n_posting_entries, self.n_node_dots, self.n_pair_dots
        )
    }
}

/// Cache hit/miss counters and latency summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Queries answered from the LRU cache.
    pub cache_hits: u64,
    /// Queries computed from the index.
    pub cache_misses: u64,
    /// Per-batch latency summary.
    pub latency: LatencySnapshot,
}

/// Why a `try_rank*` entry point rejected a query instead of answering
/// it. The panicking entry points ([`QueryServer::rank`] and friends)
/// are thin wrappers that turn this into a panic for callers who treat a
/// bad class id as a programming error; the serving front-end
/// ([`crate::frontend`]) uses the `try_` forms exclusively, so a
/// degenerate request comes back as data instead of poisoning a serving
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The class id is not registered on this server. Unknown *anchor*
    /// ids are not an error — an anchor without postings simply ranks to
    /// an empty list, exactly like the reference ranker.
    UnknownClass(usize),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownClass(id) => write!(f, "unknown class id {id}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// An opaque guard pinning one shard's current epoch snapshot alive, as
/// a slow reader implicitly does mid-batch. While the guard lives, every
/// delta landing on that shard retires an epoch that
/// [`QueryServer::epoch_stats`] reports as retained — which is exactly
/// the gauge the serving front-end's admission control watches. Tests,
/// benches and operators use [`QueryServer::pin_epoch`] to exercise that
/// backpressure path deterministically instead of racing a real slow
/// reader.
#[derive(Debug)]
pub struct EpochPin {
    _snap: Arc<Shard>,
}

/// A query-serving facade over one or more trained class models.
///
/// Build one via `mgp_core::SearchEngine::serve()` (which registers every
/// trained class) or manually with [`QueryServer::new`] +
/// [`QueryServer::add_class`]. Registration needs `&mut self`; everything
/// after — ranking *and* [`QueryServer::apply_delta`] /
/// [`QueryServer::apply_delta_fused`] — is `&self`, so the
/// built server can be shared as a [`ServerHandle`] (`Arc<QueryServer>`)
/// between serving threads and a delta-ingesting writer.
///
/// Shards are shared across classes (shard `q mod n` holds every class's
/// postings for its anchors), so a multi-class query pins one snapshot
/// ([`QueryServer::rank_multi`]) and a fused delta touches each shard
/// once ([`QueryServer::apply_delta_fused`]) however many classes are
/// registered.
pub struct QueryServer {
    cfg: ServeConfig,
    workers: usize,
    n_shards: usize,
    /// The registered-class table, epoch-swapped exactly like the shard
    /// snapshots so [`QueryServer::register_class`] can grow it on a
    /// *live* server: readers pin the table with one atomic load and
    /// index it by class id; a registration installs the new class's
    /// score columns into every shard first and only then swaps in a
    /// table one entry longer — a reader can never observe a class id
    /// whose postings don't exist yet. Ids are positions and never
    /// shrink, so ids cached by callers stay valid forever.
    classes: ArcSwap<ClassTable>,
    /// Serialises registrations (`register_class`) so two concurrent
    /// callers cannot claim the same class id. Build-time registration
    /// (`add_class`) is `&mut self` and needs no lock.
    registry: Mutex<()>,
    shards: Vec<ShardSlot>,
    /// `(class, query, k) → (anchor generation at fill time, result)`.
    /// Entries whose stamp trails the anchor's current generation are
    /// stale (the anchor's postings were patched by a delta) and are
    /// treated as misses, then overwritten — so a delta invalidates
    /// exactly the keys whose query's result set changed, lazily, without
    /// scanning the cache. Both the stamp and the result of an entry come
    /// from the same shard snapshot, so they are mutually consistent even
    /// when a fill races a delta.
    cache: Mutex<LruCache<(u32, u32, u32), CachedEntry>>,
    latency: Mutex<LatencyHistogram>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Shared `k == 0` answer: every degenerate request returns a clone
    /// of this one allocation and never consults or fills the cache.
    empty: Arc<RankedList>,
}

impl QueryServer {
    /// Creates an empty server.
    pub fn new(cfg: ServeConfig) -> Self {
        let workers = cfg.resolved_workers();
        let n_shards = cfg.resolved_shards();
        let cache = Mutex::new(LruCache::new(cfg.cache_capacity));
        QueryServer {
            cfg,
            workers,
            n_shards,
            classes: ArcSwap::from_pointee(Vec::new()),
            registry: Mutex::new(()),
            shards: (0..n_shards).map(|_| ShardSlot::new()).collect(),
            cache,
            latency: Mutex::new(LatencyHistogram::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            empty: Arc::new(RankedList::new()),
        }
    }

    /// Registers a class model, precomputing its score tables. Returns the
    /// class id used by the ranking entry points. Replaces any same-named
    /// class (and drops its cached results).
    pub fn add_class(&mut self, name: &str, index: &VectorIndex, weights: &[f64]) -> usize {
        let (writer, per_shard) = build_class_tables(index, weights, self.n_shards);
        let mut table = (*self.classes.load_full()).clone();
        let replaced = table.iter().position(|c| c.name == name);
        let slot = match replaced {
            Some(i) => {
                table[i] = Arc::new(ClassState::new(name, writer));
                i
            }
            None => {
                table.push(Arc::new(ClassState::new(name, writer)));
                table.len() - 1
            }
        };
        self.classes.store(Arc::new(table));
        // Merge the class's score column into every shard epoch's fused
        // blocks. Registration is `&mut self`, so no reader can race
        // these swaps. Replacement wipes the class's old state: a fresh
        // generation map, and a cleared column on every block the new
        // index no longer covers.
        let mut union = Vec::new();
        for (sid, mut postings) in per_shard.into_iter().enumerate() {
            let cur = self.shards[sid].current.load_full();
            let mut next = Shard {
                blocks: cur.blocks.clone(),
                generations: cur.generations.clone(),
            };
            if next.generations.len() <= slot {
                next.generations.resize_with(slot + 1, Default::default);
            }
            next.generations[slot] = Arc::new(FxHashMap::default());
            let existing: Vec<u32> = next.blocks.keys().copied().collect();
            for q in existing {
                let posting = postings.remove(&q).unwrap_or_default();
                if posting.is_empty()
                    && !next
                        .blocks
                        .get(&q)
                        .is_some_and(|b| b.has_column_entries(slot))
                {
                    continue; // nothing to install, nothing to clear
                }
                install_column(&mut next.blocks, slot, q, &posting, &mut union);
            }
            for (q, posting) in postings {
                install_column(&mut next.blocks, slot, q, &posting, &mut union);
            }
            self.shards[sid].current.store(Arc::new(next));
        }
        if replaced.is_some() {
            // Cached entries for the replaced model are stale; class ids
            // are cache keys, so drop everything for safety.
            self.cache.lock().clear();
        }
        slot
    }

    /// Registers a **new** class on a *live* server — `&self`, while
    /// concurrent `rank*` readers and `apply_delta_fused` writers keep
    /// flowing. Returns the new class id.
    ///
    /// The new class's score columns are merged into each shard through
    /// the normal copy-on-write epoch swap (clone the current snapshot,
    /// install the columns, one pointer swap — serialised with concurrent
    /// deltas on the per-shard patch lock), and the class *table* is
    /// swapped last, one entry longer. Publication ordering is the whole
    /// trick: until the table swap, queries for the new id fail with
    /// [`QueryError::UnknownClass`] exactly as before the call; after it,
    /// every shard already carries the class's columns, so the first
    /// query served is already bit-identical to a server built with the
    /// class from scratch (proven by the runtime-class equivalence
    /// proptest under churn).
    ///
    /// Unlike [`QueryServer::add_class`] this never replaces: a duplicate
    /// name is a typed error, because retracting a serving class's
    /// postings under `&self` would tear in-flight queries holding its id.
    ///
    /// Registration must be sequenced with ingest by the caller the same
    /// way `VectorIndex::apply_delta` is (one logical writer — e.g.
    /// `SearchEngine::register_class_serving` runs on the `&mut` engine):
    /// `index` must describe the same graph epoch the server's other
    /// classes are at, or the new class starts consistently *behind* and
    /// catches up only with the next delta that touches it.
    pub fn register_class(
        &self,
        name: &str,
        index: &VectorIndex,
        weights: &[f64],
    ) -> Result<usize, RegisterError> {
        let _reg = self.registry.lock();
        let table = self.classes.load_full();
        if table.iter().any(|c| c.name == name) {
            return Err(RegisterError::DuplicateName(name.to_owned()));
        }
        let cid = table.len();
        let (writer, per_shard) = build_class_tables(index, weights, self.n_shards);

        // Install the new class's columns shard by shard, each through
        // the same clone/replay/swap cycle a delta uses. A brand-new id
        // can't have columns or generations anywhere yet, so unlike
        // `add_class` there is nothing to clear on existing blocks.
        let mut union = Vec::new();
        for (sid, postings) in per_shard.into_iter().enumerate() {
            let slot = &self.shards[sid];
            let _patch = slot.patch.lock();
            let cur = slot.current.load_full();
            let mut next = Shard {
                blocks: cur.blocks.clone(),
                generations: cur.generations.clone(),
            };
            next.generations.resize_with(cid + 1, Default::default);
            for (q, posting) in postings {
                install_column(&mut next.blocks, cid, q, &posting, &mut union);
            }
            let prev = slot.current.swap(Arc::new(next));
            let weak = Arc::downgrade(&prev);
            drop(prev);
            drop(cur);
            let mut retired = slot.retired.lock();
            retired.push(weak);
            retired.retain(|w| w.strong_count() > 0);
        }

        // Publish last: grow the class table by one. Readers holding the
        // old table simply don't know the id yet; the cache can hold
        // nothing under it (unknown ids never reach the cache).
        let mut next_table = (*table).clone();
        next_table.push(Arc::new(ClassState::new(name, writer)));
        self.classes.store(Arc::new(next_table));
        Ok(cid)
    }

    /// Exports every shard's fused posting blocks, sorted by anchor id —
    /// the serving-table payload of the `mgp-persist` snapshot format.
    /// Candidate arrays and score columns are copied bit-for-bit
    /// (absent entries keep the [`ABSENT_SCORE`] sentinel), so a server
    /// rebuilt with [`QueryServer::from_parts`] answers identically to
    /// this one without recomputing a single posting. The export is
    /// shard-count-independent: anchors are re-distributed by
    /// `anchor % n_shards` on import, so the snapshot can be reopened
    /// with a different shard layout.
    ///
    /// Each shard is read from one pinned epoch snapshot, so a concurrent
    /// delta never tears an individual block; callers that need a single
    /// cross-shard cut (e.g. a snapshot paired with a journal sequence
    /// number) should quiesce ingest around the call, as
    /// `SearchEngine::save_snapshot` does.
    pub fn export_postings(&self) -> Vec<PostingExport> {
        let mut out = Vec::new();
        for sid in 0..self.n_shards {
            let snap = self.snapshot_shard(sid);
            for (&q, block) in &snap.blocks {
                out.push(PostingExport {
                    anchor: q,
                    candidates: block.candidates.clone(),
                    columns: block.columns.clone(),
                });
            }
        }
        out.sort_unstable_by_key(|b| b.anchor);
        out
    }

    /// Rebuilds a server from registered-class descriptions plus the
    /// posting blocks a previous [`QueryServer::export_postings`]
    /// returned — the warm-start path. The per-class dot tables are
    /// recomputed from each class's index (entry-for-entry with
    /// `mgp_index::dot`, exactly as [`QueryServer::add_class`] does — the
    /// tables are pure per-entry functions, so hash iteration order
    /// cannot change them), while the expensive posting construction is
    /// skipped entirely: the exported blocks are installed as-is,
    /// re-sharded by `anchor % n_shards`.
    ///
    /// The result answers bit-identically to registering every class
    /// from scratch (asserted by tests and `bench_persist`). Blocks are
    /// validated structurally — unsorted or duplicate candidates,
    /// column-length mismatches, column counts beyond the class count,
    /// or duplicate anchors are rejected with a message — so a corrupt
    /// snapshot fails loudly instead of serving garbage.
    pub fn from_parts(
        cfg: ServeConfig,
        classes: &[ClassExport<'_>],
        postings: Vec<PostingExport>,
    ) -> Result<Self, String> {
        let server = QueryServer::new(cfg);
        let mut table: ClassTable = Vec::with_capacity(classes.len());
        for c in classes {
            let mut node_dots: FxHashMap<u32, f64> =
                FxHashMap::with_capacity_and_hasher(c.index.n_nodes(), Default::default());
            for (x, v) in c.index.iter_nodes() {
                node_dots.insert(x.0, mgp_index::dot(v, c.weights));
            }
            let mut pair_dots: FxHashMap<u64, f64> =
                FxHashMap::with_capacity_and_hasher(c.index.n_pairs(), Default::default());
            for (key, v) in c.index.iter_pairs() {
                pair_dots.insert(key, mgp_index::dot(v, c.weights));
            }
            if table.iter().any(|s| s.name == c.name) {
                return Err(format!("class {:?} appears twice", c.name));
            }
            table.push(Arc::new(ClassState::new(
                c.name,
                WriterState {
                    weights: c.weights.to_vec(),
                    node_dots,
                    pair_dots,
                },
            )));
        }
        let n_classes = table.len();
        server.classes.store(Arc::new(table));
        let mut per_shard: Vec<FxHashMap<u32, Arc<FusedBlock>>> =
            (0..server.n_shards).map(|_| FxHashMap::default()).collect();
        for p in postings {
            if p.columns.len() > n_classes {
                return Err(format!(
                    "anchor {} has {} columns but only {n_classes} classes are registered",
                    p.anchor,
                    p.columns.len()
                ));
            }
            for (cid, col) in p.columns.iter().enumerate() {
                if col.len() != p.candidates.len() {
                    return Err(format!(
                        "anchor {} column {cid} has {} entries for {} candidates",
                        p.anchor,
                        col.len(),
                        p.candidates.len()
                    ));
                }
            }
            if p.candidates.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "anchor {} candidates are not strictly ascending",
                    p.anchor
                ));
            }
            let sid = p.anchor as usize % server.n_shards;
            let block = FusedBlock {
                candidates: p.candidates,
                columns: p.columns,
            };
            if per_shard[sid].insert(p.anchor, Arc::new(block)).is_some() {
                return Err(format!("anchor {} appears twice", p.anchor));
            }
        }
        for (sid, blocks) in per_shard.into_iter().enumerate() {
            server.shards[sid].current.store(Arc::new(Shard {
                blocks,
                generations: (0..n_classes).map(|_| Default::default()).collect(),
            }));
        }
        Ok(server)
    }

    /// The id of a registered class.
    pub fn class_id(&self, name: &str) -> Option<usize> {
        self.classes.load().iter().position(|c| c.name == name)
    }

    /// Names of registered classes, in id order. (Owned: the table can
    /// be swapped by a concurrent [`QueryServer::register_class`], so
    /// borrows out of it cannot escape.)
    pub fn class_names(&self) -> Vec<String> {
        self.classes.load().iter().map(|c| c.name.clone()).collect()
    }

    /// Number of posting-list shards per class.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Worker threads used by [`QueryServer::rank_batch`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    fn class(&self, class_id: usize) -> Arc<ClassState> {
        self.try_class(class_id).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_class(&self, class_id: usize) -> Result<Arc<ClassState>, QueryError> {
        self.classes
            .load()
            .get(class_id)
            .cloned()
            .ok_or(QueryError::UnknownClass(class_id))
    }

    /// Number of registered classes (valid ids are `0..n_classes()`).
    pub fn n_classes(&self) -> usize {
        self.classes.load().len()
    }

    /// Whether `class_id` is registered — the admission-time check the
    /// front-end runs so batcher workers only ever see valid classes.
    pub fn has_class(&self, class_id: usize) -> bool {
        class_id < self.classes.load().len()
    }

    /// The cache key for a `(class, query, k)` request. `k` saturates at
    /// `u32::MAX` instead of truncating: a truncated `k = 2³²` used to
    /// collide with `k = 0`, poisoning the degenerate-k entry with a
    /// full result list. Saturation is lossless — any `k ≥ u32::MAX`
    /// returns the whole posting list (postings are keyed by `u32` node
    /// ids, so no list reaches that length), so every saturated `k` maps
    /// to the same result. `k == 0` never reaches the cache at all (it
    /// short-circuits to the shared empty list).
    fn cache_key(class_id: usize, q: u32, k: usize) -> (u32, u32, u32) {
        (class_id as u32, q, k.min(u32::MAX as usize) as u32)
    }

    fn shard_of(&self, q: u32) -> usize {
        q as usize % self.n_shards
    }

    /// Pins the current epoch snapshot of one shard: one atomic pin plus
    /// one refcount bump, no lock — readers never contend with writers
    /// or each other. The snapshot covers **every** class's columns for
    /// the shard's anchors.
    fn snapshot_shard(&self, sid: usize) -> Arc<Shard> {
        self.shards[sid].current.load_full()
    }

    /// The epoch snapshot covering anchor `q`.
    fn snapshot(&self, q: u32) -> Arc<Shard> {
        self.snapshot_shard(self.shard_of(q))
    }

    /// Pins the current epoch of the shard owning anchor `q` — exactly
    /// what a slow reader does implicitly for the duration of a batch —
    /// and returns an opaque guard holding it alive. See [`EpochPin`].
    pub fn pin_epoch(&self, q: NodeId) -> EpochPin {
        EpochPin {
            _snap: self.snapshot(q.0),
        }
    }

    /// Ranks a single query (cache-aware). Panics on an unknown class id;
    /// [`QueryServer::try_rank`] is the non-panicking form.
    pub fn rank(&self, class_id: usize, q: NodeId, k: usize) -> Arc<RankedList> {
        self.try_rank(class_id, q, k)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Ranks a single query (cache-aware), returning a typed error on an
    /// unknown class id instead of panicking. `k == 0` short-circuits to
    /// a shared empty list without touching the cache or the hit/miss
    /// counters, so a degenerate request can neither poison nor evict
    /// cached entries.
    pub fn try_rank(
        &self,
        class_id: usize,
        q: NodeId,
        k: usize,
    ) -> Result<Arc<RankedList>, QueryError> {
        let class = self.try_class(class_id)?;
        if k == 0 {
            return Ok(Arc::clone(&self.empty));
        }
        // One snapshot serves the generation read, the cache-staleness
        // check and the ranking — all from the same epoch.
        let snap = self.snapshot(q.0);
        let gen = snap.generation(class_id, q.0);
        let key = Self::cache_key(class_id, q.0, k);
        if self.cfg.cache_capacity > 0 {
            if let Some((stamp, hit)) = self.cache.lock().get(&key) {
                if *stamp == gen {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    class.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(hit));
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        class.misses.fetch_add(1, Ordering::Relaxed);
        let mut scratch = Scratch::default();
        let mut out = RankedList::new();
        snap.rank_into(class_id, q, k, &mut scratch, &mut out);
        let result = Arc::new(out);
        if self.cfg.cache_capacity > 0 {
            self.cache.lock().put(key, (gen, Arc::clone(&result)));
        }
        Ok(result)
    }

    /// Ranks one query for **several classes in one pass**: pins a single
    /// epoch snapshot (one lock acquisition however many classes), checks
    /// and fills the cache in one critical section each, and walks the
    /// missing classes' postings with one shared scratch buffer. Returns
    /// one list per entry of `class_ids`, in order — each bit-identical
    /// to what [`QueryServer::rank`] returns for that class.
    ///
    /// Cache entries are keyed per class exactly as `rank` keys them, so
    /// the two entry points share hits freely and single-class callers
    /// are unaffected. Panics on an unknown class id;
    /// [`QueryServer::try_rank_multi`] is the non-panicking form.
    /// Duplicate class ids are fine — each slot is answered
    /// independently (and duplicates share the cached `Arc`).
    pub fn rank_multi(&self, class_ids: &[usize], q: NodeId, k: usize) -> Vec<Arc<RankedList>> {
        self.try_rank_multi(class_ids, q, k)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`QueryServer::rank_multi`] with a typed error on an unknown class
    /// id instead of a panic. No class is queried (and no counter moves)
    /// unless every id validates; `k == 0` short-circuits every slot to
    /// the shared empty list without touching the cache.
    pub fn try_rank_multi(
        &self,
        class_ids: &[usize],
        q: NodeId,
        k: usize,
    ) -> Result<Vec<Arc<RankedList>>, QueryError> {
        // One table pin covers validation and the per-class counters —
        // ids stay valid for the whole call even if a concurrent
        // registration swaps in a longer table.
        let classes = self.classes.load_full();
        for &cid in class_ids {
            if cid >= classes.len() {
                return Err(QueryError::UnknownClass(cid));
            }
        }
        if k == 0 {
            return Ok(vec![Arc::clone(&self.empty); class_ids.len()]);
        }
        let snap = self.snapshot(q.0);
        // Miss slots hold the shared empty list until the compute pass
        // overwrites them — no `Option` wrapper, no second allocation on
        // the all-hit fast path (the steady state warm traffic lives in).
        let mut out: Vec<Arc<RankedList>> = Vec::with_capacity(class_ids.len());

        // Cache pass: one lock round-trip covers every class. `miss`
        // stays unallocated on the all-hit fast path.
        let mut miss: Vec<usize> = Vec::new();
        if self.cfg.cache_capacity > 0 {
            let mut cache = self.cache.lock();
            for (j, &cid) in class_ids.iter().enumerate() {
                let gen = snap.generation(cid, q.0);
                match cache.get(&Self::cache_key(cid, q.0, k)) {
                    Some((stamp, hit)) if *stamp == gen => out.push(Arc::clone(hit)),
                    _ => {
                        miss.push(j);
                        out.push(Arc::clone(&self.empty));
                    }
                }
            }
        } else {
            miss.extend(0..class_ids.len());
            out.resize_with(class_ids.len(), || Arc::clone(&self.empty));
        }
        let n_hits = (class_ids.len() - miss.len()) as u64;
        if n_hits > 0 {
            self.hits.fetch_add(n_hits, Ordering::Relaxed);
        }
        if !miss.is_empty() {
            self.misses.fetch_add(miss.len() as u64, Ordering::Relaxed);
        }
        let mut next_miss = miss.iter().peekable();
        for (j, &cid) in class_ids.iter().enumerate() {
            let missed = next_miss.next_if_eq(&&j).is_some();
            let counter = if missed {
                &classes[cid].misses
            } else {
                &classes[cid].hits
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }

        // Compute pass: the missing classes sweep their columns of the
        // *same* fused block — resident in cache after the first class's
        // walk — all from the same pinned epoch and one scratch buffer.
        if !miss.is_empty() {
            let mut scratch = Scratch::default();
            for &j in &miss {
                let mut list = RankedList::new();
                snap.rank_into(class_ids[j], q, k, &mut scratch, &mut list);
                out[j] = Arc::new(list);
            }

            // Fill pass: second single lock round-trip, stamped with the
            // generations of the snapshot the results came from.
            if self.cfg.cache_capacity > 0 {
                let mut cache = self.cache.lock();
                for &j in &miss {
                    let cid = class_ids[j];
                    let gen = snap.generation(cid, q.0);
                    cache.put(Self::cache_key(cid, q.0, k), (gen, Arc::clone(&out[j])));
                }
            }
        }
        Ok(out)
    }

    /// Ranks a batch of queries rayon-parallel, returning one list per
    /// query in input order. Records the batch's wall time in the latency
    /// histogram. Panics on an unknown class id;
    /// [`QueryServer::try_rank_batch`] is the non-panicking form.
    ///
    /// The batch pins one epoch snapshot per distinct shard up front; a
    /// delta landing mid-batch is simply not observed by this batch, and
    /// cache fills stamp each result with the generation of the snapshot
    /// that produced it.
    pub fn rank_batch(
        &self,
        class_id: usize,
        queries: &[NodeId],
        k: usize,
    ) -> Vec<Arc<RankedList>> {
        self.try_rank_batch(class_id, queries, k)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`QueryServer::rank_batch`] with a typed error on an unknown class
    /// id instead of a panic.
    pub fn try_rank_batch(
        &self,
        class_id: usize,
        queries: &[NodeId],
        k: usize,
    ) -> Result<Vec<Arc<RankedList>>, QueryError> {
        // The single-class case of the shared grid protocol: with one
        // class the row-major grid IS the per-query result vector.
        self.try_rank_grid(&[class_id], queries, k)
    }

    /// The batch form of [`QueryServer::rank_multi`]: ranks every query
    /// for every class in `class_ids`, returning `result[i][j]` for query
    /// `i` under class `class_ids[j]`. Pins one epoch snapshot per
    /// distinct shard up front (shared by all classes), runs one cache
    /// pass over the whole query × class grid, coalesces duplicate
    /// `(query, class)` misses, and fans the distinct ones across rayon
    /// workers. Records one latency histogram entry, like
    /// [`QueryServer::rank_batch`]. Panics on an unknown class id;
    /// [`QueryServer::try_rank_multi_batch`] is the non-panicking form.
    pub fn rank_multi_batch(
        &self,
        class_ids: &[usize],
        queries: &[NodeId],
        k: usize,
    ) -> Vec<Vec<Arc<RankedList>>> {
        self.try_rank_multi_batch(class_ids, queries, k)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`QueryServer::rank_multi_batch`] with a typed error on an unknown
    /// class id instead of a panic — the front-end's execution primitive.
    /// Nothing is computed (and no counter moves) unless every class id
    /// validates.
    pub fn try_rank_multi_batch(
        &self,
        class_ids: &[usize],
        queries: &[NodeId],
        k: usize,
    ) -> Result<Vec<Vec<Arc<RankedList>>>, QueryError> {
        if class_ids.is_empty() {
            return Ok(queries.iter().map(|_| Vec::new()).collect());
        }
        let mut flat = self.try_rank_grid(class_ids, queries, k)?.into_iter();
        Ok((0..queries.len())
            .map(|_| flat.by_ref().take(class_ids.len()).collect())
            .collect())
    }

    /// The shared batched-ranking core: ranks every query under every
    /// class, returning the row-major grid (`result[i * n_classes + j]`
    /// is query `i` under class `class_ids[j]`). One epoch snapshot per
    /// distinct shard (covering all classes), one cache critical section
    /// over the whole grid, duplicate `(query, class)` misses coalesced,
    /// distinct misses fanned across per-worker chunks (lock-free — the
    /// workers read only the pinned snapshots, one reusable scratch
    /// each), one stamped cache fill, one latency histogram entry. Both
    /// public batch entry points are thin views of this grid, so the
    /// generation-stamp protocol lives exactly once.
    ///
    /// Degenerate inputs are handled here once for both entry points:
    /// every class id validates before anything is computed, and `k == 0`
    /// fills the whole grid from the shared empty list without touching
    /// the cache, the hit/miss counters or the latency histogram.
    fn try_rank_grid(
        &self,
        class_ids: &[usize],
        queries: &[NodeId],
        k: usize,
    ) -> Result<Vec<Arc<RankedList>>, QueryError> {
        let t0 = Instant::now();
        let classes = self.classes.load_full();
        for &cid in class_ids {
            if cid >= classes.len() {
                return Err(QueryError::UnknownClass(cid));
            }
        }
        if k == 0 {
            return Ok(vec![
                Arc::clone(&self.empty);
                queries.len() * class_ids.len()
            ]);
        }
        let n_classes = class_ids.len();
        let n_shards = self.n_shards;
        let mut out: Vec<Option<Arc<RankedList>>> = vec![None; queries.len() * n_classes];

        // Snapshot pass: clone the epoch of every shard this grid reads.
        let mut snaps: FxHashMap<usize, Arc<Shard>> = FxHashMap::default();
        for q in queries {
            let sid = q.0 as usize % n_shards;
            snaps.entry(sid).or_insert_with(|| self.snapshot_shard(sid));
        }

        // Cache pass: one critical section for the whole grid. Entries
        // stamped with an outdated anchor generation are stale (postings
        // patched since) and fall through to recompute.
        let mut miss_idx: Vec<usize> = Vec::new();
        if self.cfg.cache_capacity > 0 {
            let mut cache = self.cache.lock();
            for (i, q) in queries.iter().enumerate() {
                let snap = &snaps[&(q.0 as usize % n_shards)];
                for (j, &cid) in class_ids.iter().enumerate() {
                    let gen = snap.generation(cid, q.0);
                    match cache.get(&Self::cache_key(cid, q.0, k)) {
                        Some((stamp, hit)) if *stamp == gen => {
                            out[i * n_classes + j] = Some(Arc::clone(hit))
                        }
                        _ => miss_idx.push(i * n_classes + j),
                    }
                }
            }
        } else {
            miss_idx.extend(0..queries.len() * n_classes);
        }
        let total = (queries.len() * n_classes) as u64;
        self.hits
            .fetch_add(total - miss_idx.len() as u64, Ordering::Relaxed);
        self.misses
            .fetch_add(miss_idx.len() as u64, Ordering::Relaxed);
        let mut miss_per_class = vec![0u64; n_classes];
        for &slot in &miss_idx {
            miss_per_class[slot % n_classes] += 1;
        }
        for (j, &cid) in class_ids.iter().enumerate() {
            let c = &classes[cid];
            c.hits
                .fetch_add(queries.len() as u64 - miss_per_class[j], Ordering::Relaxed);
            c.misses.fetch_add(miss_per_class[j], Ordering::Relaxed);
        }

        // Coalesce duplicate (query, class) misses: a batch repeating a
        // hot key computes each distinct pair once and fans the Arc out.
        let mut slot_of: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        let mut unique: Vec<(NodeId, usize)> = Vec::new();
        for &slot in &miss_idx {
            let (q, cid) = (queries[slot / n_classes], class_ids[slot % n_classes]);
            slot_of.entry((q.0, cid as u32)).or_insert_with(|| {
                unique.push((q, cid));
                unique.len() - 1
            });
        }

        // Compute pass: per-worker chunks over the distinct misses. The
        // miss list is row-major, so a query missing several classes
        // occupies a consecutive run and its later classes sweep a
        // block the first class just pulled into cache.
        let mut computed: Vec<Option<Arc<RankedList>>> = vec![None; unique.len()];
        if !unique.is_empty() {
            let chunk = unique.len().div_ceil(self.workers);
            let snaps_ref = &snaps;
            rayon::scope(|s| {
                for (qs, outs) in unique.chunks(chunk).zip(computed.chunks_mut(chunk)) {
                    s.spawn(move |_| {
                        let mut scratch = Scratch::default();
                        for (slot, &(q, cid)) in outs.iter_mut().zip(qs) {
                            let mut list = RankedList::new();
                            snaps_ref[&(q.0 as usize % n_shards)].rank_into(
                                cid,
                                q,
                                k,
                                &mut scratch,
                                &mut list,
                            );
                            *slot = Some(Arc::new(list));
                        }
                    });
                }
            });
        }

        // Merge + cache fill: second short critical section. Stamps come
        // from the same snapshots the results were computed from.
        if self.cfg.cache_capacity > 0 && !unique.is_empty() {
            let mut cache = self.cache.lock();
            for ((q, cid), result) in unique.iter().zip(computed.iter()) {
                let result = result.as_ref().expect("worker filled every slot");
                let gen = snaps[&(q.0 as usize % n_shards)].generation(*cid, q.0);
                cache.put(Self::cache_key(*cid, q.0, k), (gen, Arc::clone(result)));
            }
        }
        for slot in miss_idx {
            let (q, cid) = (queries[slot / n_classes], class_ids[slot % n_classes]);
            let u = slot_of[&(q.0, cid as u32)];
            out[slot] = Some(Arc::clone(
                computed[u].as_ref().expect("worker filled every slot"),
            ));
        }

        self.latency.lock().record(t0.elapsed());
        Ok(out
            .into_iter()
            .map(|slot| slot.expect("every query × class answered"))
            .collect())
    }

    /// Applies an index delta to a registered class **without pausing
    /// serving**: re-dots only the touched anchors/pairs against the
    /// (already-updated) `index`, rebuilds/patches just the affected
    /// posting entries in copy-on-write clones of the touched shards,
    /// epoch-swaps each clone in with one pointer write, and bumps the
    /// invalidation generation of exactly the anchors whose result sets
    /// changed — cached entries for untouched queries keep serving, and
    /// concurrent `rank`/`rank_batch` calls keep flowing throughout,
    /// each observing every shard either pre- or post-delta, never torn.
    ///
    /// Concurrent deltas to the *same* class serialise on a per-class
    /// ingest lock; deltas to different classes run in parallel.
    ///
    /// `index` must be the class's vector index *after*
    /// `VectorIndex::apply_delta` returned `touch`, and the class's
    /// weights are the ones it was registered with (deltas never retrain).
    /// Results afterwards are bit-identical to re-registering the class
    /// from the updated index (asserted by tests and the
    /// `bench_incremental` acceptance check). Panics on an unknown class
    /// id.
    pub fn apply_delta(
        &self,
        class_id: usize,
        index: &VectorIndex,
        touch: &IndexTouch,
    ) -> DeltaStats {
        let fused = self.apply_delta_fused(&[ClassDelta {
            class_id,
            index,
            touch,
        }]);
        fused.per_class[0]
    }

    /// Applies one graph event's index deltas to **several classes in one
    /// pass**: plans every class's posting ops first (each under its
    /// per-class ingest lock, taken in ascending class-id order), then
    /// visits each affected shard **once** — one copy-on-write clone, one
    /// replay covering every class's ops and generation bumps, one
    /// pointer swap — instead of the `classes × shards` clone/swap cycles
    /// sequential [`QueryServer::apply_delta`] calls would pay. Readers
    /// keep flowing throughout, exactly as for the single-class path; a
    /// query observes each shard either wholly pre- or wholly post-swap
    /// (and since all classes land in the same swap, a multi-class query
    /// pinning one snapshot sees the delta atomically across classes).
    ///
    /// Each update's `index` must be that class's vector index *after*
    /// `VectorIndex::apply_delta` returned its `touch` (typically all
    /// patched from one shared `mgp_index::IndexDeltaBatch`). Results
    /// afterwards are bit-identical to applying the updates one class at
    /// a time, which in turn equals re-registering each class from its
    /// updated index. Per-class stats come back in input order;
    /// `swapped_shards` counts the shards *that class* changed, while
    /// [`FusedDeltaStats::fused_shard_visits`] counts the actual
    /// clone/swap cycles paid — one per affected shard, however many
    /// classes patch (or drop postings in) it.
    ///
    /// After planning, the affected shards are **independent**: each
    /// clone/replay/swap touches only its own slot. A wide delta
    /// therefore fans the shard patching across the rayon pool (one
    /// reusable scratch per worker), sized by [`ServeConfig::workers`].
    ///
    /// # Panics
    /// Panics on an unknown class id or a class appearing twice.
    pub fn apply_delta_fused(&self, updates: &[ClassDelta<'_>]) -> FusedDeltaStats {
        // Lock order: writer locks in ascending class id (so concurrent
        // fused writers with overlapping class sets cannot deadlock),
        // then per-shard patch locks, at most one held per worker.
        let mut order: Vec<usize> = (0..updates.len()).collect();
        order.sort_unstable_by_key(|&s| updates[s].class_id);
        for w in order.windows(2) {
            assert!(
                updates[w[0]].class_id != updates[w[1]].class_id,
                "class id {} appears twice in a fused delta",
                updates[w[1]].class_id
            );
        }
        // Pin the class table once for the whole application: the writer
        // guards below borrow the pinned entries, and ids stay valid
        // across a concurrent registration (which only appends).
        let classes = self.classes.load_full();
        let mut plans: Vec<ClassPlan<'_>> = Vec::with_capacity(updates.len());
        for &input_slot in &order {
            let u = updates[input_slot];
            let class = classes
                .get(u.class_id)
                .unwrap_or_else(|| panic!("{}", QueryError::UnknownClass(u.class_id)));
            let mut guard = class.writer.lock();
            let mut stats = DeltaStats::default();
            let (ops, bumps) =
                plan_class_delta(&mut guard, u.index, u.touch, self.n_shards, &mut stats);
            plans.push(ClassPlan {
                input_slot,
                class_id: u.class_id,
                index: u.index,
                guard,
                ops,
                bumps,
                stats,
            });
        }

        // Phase 5, fused epoch swap: for each shard any class affects,
        // clone the current snapshot once (block and generation maps of
        // `Arc`s — shallow until an op actually touches an entry), replay
        // every class's ops, bump every class's generations, and install
        // the new epoch with one pointer swap — the only writer step a
        // reader can ever observe.
        //
        // A shard with a dropped-posting op also has a generation bump
        // for that anchor (its result set changed), so collecting both
        // key sets — then deduping — counts a shard that is patched AND
        // loses postings as ONE visit, matching the clone/swap cycles
        // actually paid.
        let mut affected: Vec<usize> = plans
            .iter()
            .flat_map(|p| p.ops.keys().chain(p.bumps.keys()).copied())
            .collect();
        affected.sort_unstable();
        affected.dedup();
        let fused_shard_visits = affected.len();

        // Split each plan's op map into per-shard rows up front so the
        // borrows fan out cleanly: workers get disjoint `&mut` rows of
        // ops and stats, plus a shared read-only replay context per class
        // (the writer guard is only *read* during replay).
        let n_plans = plans.len();
        let pos_of: FxHashMap<usize, usize> = affected
            .iter()
            .enumerate()
            .map(|(i, &sid)| (sid, i))
            .collect();
        let mut shard_ops: Vec<Vec<Vec<Op>>> = affected
            .iter()
            .map(|_| (0..n_plans).map(|_| Vec::new()).collect())
            .collect();
        for (pi, plan) in plans.iter_mut().enumerate() {
            for (sid, ops) in plan.ops.drain() {
                shard_ops[pos_of[&sid]][pi] = ops;
            }
        }
        let ctx: Vec<ReplayCtx<'_>> = plans
            .iter()
            .map(|p| ReplayCtx {
                class_id: p.class_id,
                index: p.index,
                writer: &p.guard,
                bumps: &p.bumps,
            })
            .collect();
        let mut stats_grid: Vec<Vec<DeltaStats>> = affected
            .iter()
            .map(|_| vec![DeltaStats::default(); n_plans])
            .collect();

        // The affected shards are independent (each worker touches only
        // its own slots), so a wide delta fans the clone+replay+swap
        // across the rayon pool in contiguous chunks, one reusable
        // scratch per worker. Narrow deltas (or a one-worker server)
        // replay inline — no pool round-trip for the common 1-shard case.
        let workers = self.workers.min(affected.len()).max(1);
        if workers <= 1 {
            let mut scratch = PatchScratch::default();
            for ((&sid, ops_row), stats_row) in affected
                .iter()
                .zip(shard_ops.iter_mut())
                .zip(stats_grid.iter_mut())
            {
                self.patch_shard(sid, ops_row, &ctx, stats_row, &mut scratch);
            }
        } else {
            let chunk = affected.len().div_ceil(workers);
            let ctx = &ctx;
            rayon::scope(|s| {
                for ((sid_chunk, ops_chunk), stats_chunk) in affected
                    .chunks(chunk)
                    .zip(shard_ops.chunks_mut(chunk))
                    .zip(stats_grid.chunks_mut(chunk))
                {
                    s.spawn(move |_| {
                        let mut scratch = PatchScratch::default();
                        for ((&sid, ops_row), stats_row) in
                            sid_chunk.iter().zip(ops_chunk).zip(stats_chunk)
                        {
                            self.patch_shard(sid, ops_row, ctx, stats_row, &mut scratch);
                        }
                    });
                }
            });
        }
        drop(ctx);

        // Fold the replay stats back into the planning stats. Every
        // counter is a sum, so the shard fold order cannot change the
        // per-class totals — inline and fanned-out replay report
        // identical stats.
        for stats_row in stats_grid {
            for (pi, st) in stats_row.into_iter().enumerate() {
                plans[pi].stats += st;
            }
        }

        let mut per_class = vec![DeltaStats::default(); updates.len()];
        for plan in plans {
            per_class[plan.input_slot] = plan.stats;
        }
        FusedDeltaStats {
            per_class,
            fused_shard_visits,
        }
    }

    /// Phase-5 worker: clone, replay, and swap **one** shard for every
    /// class of a fused delta. `ops_by_plan[pi]`/`out[pi]` are plan
    /// `pi`'s ops for this shard and its stats slot (written by exactly
    /// one worker — the grid rows are disjoint across workers).
    fn patch_shard(
        &self,
        sid: usize,
        ops_by_plan: &mut [Vec<Op>],
        ctx: &[ReplayCtx<'_>],
        out: &mut [DeltaStats],
        scratch: &mut PatchScratch,
    ) {
        let slot = &self.shards[sid];
        // Per-shard writer exclusion: a concurrent delta to *other*
        // classes must not clone the same epoch and lose this swap.
        let _patch = slot.patch.lock();
        let cur = slot.current.load_full();
        let mut next = Shard {
            blocks: cur.blocks.clone(),
            generations: cur.generations.clone(),
        };
        for (pi, ops) in ops_by_plan.iter_mut().enumerate() {
            let c = &ctx[pi];
            let bumps = c.bumps.get(&sid);
            if ops.is_empty() && bumps.is_none() {
                continue;
            }
            let stats = &mut out[pi];
            for op in ops.drain(..) {
                match op {
                    Op::Rebuild(x) => rebuild_block_column(
                        &mut next.blocks,
                        c.class_id,
                        x,
                        c.index,
                        c.writer,
                        stats,
                        scratch,
                    ),
                    Op::Patch(q, v) => {
                        patch_block_entry(&mut next.blocks, c.class_id, q, v, c.writer, stats)
                    }
                    Op::Remove(q, v) => {
                        remove_block_entry(&mut next.blocks, c.class_id, q, v, stats)
                    }
                }
            }
            if let Some(bumps) = bumps {
                if next.generations.len() <= c.class_id {
                    next.generations
                        .resize_with(c.class_id + 1, Default::default);
                }
                let g = Arc::make_mut(&mut next.generations[c.class_id]);
                for &q in bumps {
                    *g.entry(q).or_insert(0) += 1;
                }
            }
            stats.swapped_shards += 1;
        }
        // Swap first, drop after: `cur` (and `prev`, the same epoch)
        // keep the old shard alive across the pointer swap, so its
        // teardown — potentially thousands of Arc'd blocks — happens out
        // here (or in the shim's graveyard if a reader still pins it),
        // never on a reader's load path.
        let prev = slot.current.swap(Arc::new(next));
        let weak = Arc::downgrade(&prev);
        drop(prev);
        drop(cur);
        let mut retired = slot.retired.lock();
        retired.push(weak);
        retired.retain(|w| w.strong_count() > 0);
    }

    /// The invalidation generation of an anchor in a class (0 until a
    /// delta changes the anchor's result set). Cached results are stamped
    /// with this at fill time; a stamp behind the current generation is
    /// stale. Exposed so tests and operators can verify that a delta
    /// invalidated exactly the anchors it should have.
    pub fn anchor_generation(&self, class_id: usize, q: NodeId) -> u64 {
        let _ = self.class(class_id);
        self.snapshot(q.0).generation(class_id, q.0)
    }

    /// Sizes of a class's serving tables (postings, dot tables). A churn
    /// sequence that nets to nothing restores these exactly — no leaked
    /// empty entries. Panics on an unknown class id.
    ///
    /// Serialises with in-flight deltas on the per-class ingest lock, so
    /// the reported totals always describe one delta boundary — never a
    /// mix of shards from different epochs (a concurrent call blocks
    /// until the in-flight delta finishes; readers are unaffected).
    pub fn table_stats(&self, class_id: usize) -> TableStats {
        let class = self.class(class_id);
        // Ingest lock first, shard reads second — the same order
        // `apply_delta` takes them, so no deadlock and no torn totals.
        let w = class.writer.lock();
        let mut t = TableStats {
            n_node_dots: w.node_dots.len(),
            n_pair_dots: w.pair_dots.len(),
            ..Default::default()
        };
        for sid in 0..self.n_shards {
            let snap = self.snapshot_shard(sid);
            // A "posting" in the fused layout is a block column with at
            // least one present entry; churn that nets to nothing must
            // restore both counts exactly (no lingering all-absent
            // columns, no tombstoned candidate rows).
            for block in snap.blocks.values() {
                let entries = block.column_entries(class_id);
                if entries > 0 {
                    t.n_postings += 1;
                    t.n_posting_entries += entries;
                }
            }
        }
        t
    }

    /// Copy-on-write memory gauges for retired epochs: how many replaced
    /// shard snapshots are still alive because slow readers pin their
    /// `Arc`, and how much posting data those snapshots keep that the
    /// live epoch no longer shares. A healthy server with no in-flight
    /// readers reports all zeros — every swap's predecessor dies as soon
    /// as its last reader drops it (asserted by a unit test). Under churn
    /// with long-running batches, these gauges bound the transient memory
    /// amplification of the epoch-swap design.
    ///
    /// The byte figure is approximate: unshared block payloads (candidate
    /// ids plus every score column) plus a nominal per-map-slot overhead
    /// for the retired epoch's own maps.
    pub fn epoch_stats(&self) -> EpochStats {
        /// Nominal hash-map slot overhead (key + `Arc` pointer + control
        /// byte, rounded up) for the approximate byte gauge.
        const MAP_SLOT_BYTES: usize = 24;
        let mut s = EpochStats::default();
        for slot in &self.shards {
            // Drain the swap shim's deferred-reclamation list first: a
            // replaced epoch whose readers are all gone may still be
            // parked there, and it must count as dead, not retained.
            slot.current.collect();
            let mut retired = slot.retired.lock();
            retired.retain(|w| w.strong_count() > 0);
            if retired.is_empty() {
                continue;
            }
            let cur = slot.current.load_full();
            for weak in retired.iter() {
                let Some(old) = weak.upgrade() else { continue };
                s.retained_epochs += 1;
                for (q, block) in &old.blocks {
                    // A block shared with the live epoch costs nothing
                    // beyond the Arc — skip it entirely.
                    let shared = cur.blocks.get(q).is_some_and(|lb| Arc::ptr_eq(lb, block));
                    if shared {
                        continue;
                    }
                    s.retained_postings += 1;
                    s.retained_posting_entries += block.candidates.len();
                    s.approx_retained_bytes += block.candidates.len() * std::mem::size_of::<u32>()
                        + block.columns.iter().map(Vec::len).sum::<usize>()
                            * std::mem::size_of::<f64>();
                }
                let unshared_gens = old
                    .generations
                    .iter()
                    .enumerate()
                    .filter(|(cid, g)| {
                        !cur.generations
                            .get(*cid)
                            .is_some_and(|lg| Arc::ptr_eq(lg, g))
                    })
                    .map(|(_, g)| g.len())
                    .sum::<usize>();
                s.approx_retained_bytes += (old.blocks.len() + unshared_gens) * MAP_SLOT_BYTES;
            }
        }
        s
    }

    /// Per-class cache counters (the totals across classes are in
    /// [`QueryServer::stats`]). Panics on an unknown class id.
    pub fn class_stats(&self, class_id: usize) -> ClassCacheStats {
        let class = self.class(class_id);
        ClassCacheStats {
            hits: class.hits.load(Ordering::Relaxed),
            misses: class.misses.load(Ordering::Relaxed),
        }
    }

    /// Cache and latency counters accumulated since construction.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            latency: self.latency.lock().snapshot(),
        }
    }

    /// Drops every cached result (stats are kept).
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgp_index::{Transform, VectorIndex};
    use mgp_matching::AnchorCounts;

    /// Small consistent index: M0 links (1,2) and (1,3); M1 links (2,3)
    /// and (1,2) with different counts — enough for distinct rankings.
    fn sample_index() -> VectorIndex {
        let mut c0 = AnchorCounts::default();
        let mut c1 = AnchorCounts::default();
        let ins = |c: &mut AnchorCounts, x: u32, y: u32, n: u64| {
            c.per_pair
                .insert(mgp_graph::ids::pack_pair(NodeId(x), NodeId(y)), n);
            *c.per_node.entry(x).or_insert(0) += n;
            *c.per_node.entry(y).or_insert(0) += n;
        };
        ins(&mut c0, 1, 2, 4);
        ins(&mut c0, 1, 3, 1);
        ins(&mut c1, 2, 3, 2);
        ins(&mut c1, 1, 2, 1);
        VectorIndex::from_counts(&[c0, c1], Transform::Raw)
    }

    fn server(cache: usize) -> (QueryServer, VectorIndex, Vec<f64>) {
        let idx = sample_index();
        let w = vec![0.7, 0.3];
        let mut srv = QueryServer::new(ServeConfig {
            workers: 2,
            shards: 3,
            cache_capacity: cache,
        });
        srv.add_class("demo", &idx, &w);
        (srv, idx, w)
    }

    fn reference(idx: &VectorIndex, w: &[f64], q: NodeId, k: usize) -> RankedList {
        mgp_learning::mgp::rank_with_scores(idx, q, w, k)
    }

    #[test]
    fn export_import_roundtrip_is_bit_identical() {
        let (srv, idx, w) = server(0);
        let postings = srv.export_postings();
        assert!(!postings.is_empty());
        // Re-shard on import: 5 shards instead of 3.
        let back = QueryServer::from_parts(
            ServeConfig {
                workers: 2,
                shards: 5,
                cache_capacity: 0,
            },
            &[ClassExport {
                name: "demo",
                index: &idx,
                weights: &w,
            }],
            postings.clone(),
        )
        .unwrap();
        assert_eq!(back.class_id("demo"), Some(0));
        for q in 0..6u32 {
            for k in [0, 1, 2, 10] {
                assert_eq!(*back.rank(0, NodeId(q), k), *srv.rank(0, NodeId(q), k));
            }
        }
        assert_eq!(back.table_stats(0), srv.table_stats(0));
        // A second export from the rebuilt server is identical too.
        assert_eq!(back.export_postings(), postings);
    }

    #[test]
    fn from_parts_rejects_corrupt_blocks() {
        let (srv, idx, w) = server(0);
        let classes = [ClassExport {
            name: "demo",
            index: &idx,
            weights: &w,
        }];
        let cfg = || ServeConfig {
            workers: 1,
            shards: 2,
            cache_capacity: 0,
        };
        let good = srv.export_postings();

        let mut unsorted = good.clone();
        unsorted[0].candidates.reverse();
        let mut short_col = good.clone();
        short_col[0].columns[0].pop();
        let mut extra_col = good.clone();
        let n = extra_col[0].candidates.len();
        extra_col[0].columns = vec![vec![0.0; n]; 3];
        let mut dup = good.clone();
        let copy = dup[0].clone();
        dup.push(copy);
        for (what, bad) in [
            ("unsorted candidates", unsorted),
            ("short column", short_col),
            ("too many columns", extra_col),
            ("duplicate anchor", dup),
        ] {
            assert!(
                QueryServer::from_parts(cfg(), &classes, bad).is_err(),
                "{what} accepted"
            );
        }
        assert!(QueryServer::from_parts(cfg(), &classes, good).is_ok());
    }

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryServer>();
        assert_send_sync::<ServerHandle>();
    }

    #[test]
    fn matches_reference_ranker_exactly() {
        let (srv, idx, w) = server(0);
        for q in 0..6u32 {
            for k in [0, 1, 2, 10] {
                let got = srv.rank(0, NodeId(q), k);
                let want = reference(&idx, &w, NodeId(q), k);
                assert_eq!(*got, want, "q={q} k={k}");
            }
        }
    }

    #[test]
    fn batch_matches_reference() {
        let (srv, idx, w) = server(0);
        let queries: Vec<NodeId> = (0..40).map(|i| NodeId(i % 5)).collect();
        let batch = srv.rank_batch(0, &queries, 3);
        assert_eq!(batch.len(), queries.len());
        for (b, &q) in batch.iter().zip(&queries) {
            assert_eq!(**b, reference(&idx, &w, q, 3));
        }
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let (srv, _, _) = server(16);
        let q = NodeId(1);
        let a = srv.rank(0, q, 2);
        let b = srv.rank(0, q, 2);
        assert_eq!(*a, *b);
        // Same Arc served from cache.
        assert!(Arc::ptr_eq(&a, &b));
        let stats = srv.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        // Different k is a different cache entry.
        let _ = srv.rank(0, q, 1);
        assert_eq!(srv.stats().cache_misses, 2);
    }

    #[test]
    fn batch_cache_interplay() {
        let (srv, _, _) = server(16);
        let queries: Vec<NodeId> = vec![NodeId(1), NodeId(2), NodeId(1), NodeId(3)];
        // First batch: 1 is deduped through the cache? No — the cache is
        // filled after the compute pass, so the first batch misses all 4.
        let first = srv.rank_batch(0, &queries, 2);
        let s1 = srv.stats();
        assert_eq!(s1.cache_misses, 4);
        // Second identical batch: all hits, equal values; duplicates now
        // share one cached Arc.
        let second = srv.rank_batch(0, &queries, 2);
        let s2 = srv.stats();
        assert_eq!(s2.cache_hits, 4);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(**a, **b);
        }
        assert!(Arc::ptr_eq(&second[0], &second[2]));
        assert_eq!(s2.latency.count, 2, "two batches recorded");
    }

    #[test]
    fn cache_eviction_keeps_serving_correct() {
        let (srv, idx, w) = server(2);
        for round in 0..3 {
            for q in 0..5u32 {
                let got = srv.rank(0, NodeId(q), 2);
                assert_eq!(
                    *got,
                    reference(&idx, &w, NodeId(q), 2),
                    "round {round} q={q}"
                );
            }
        }
    }

    #[test]
    fn unknown_query_is_empty_not_error() {
        let (srv, _, _) = server(4);
        assert!(srv.rank(0, NodeId(999), 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown class id")]
    fn unknown_class_panics() {
        let (srv, _, _) = server(0);
        let _ = srv.rank(7, NodeId(1), 1);
    }

    #[test]
    fn try_rank_rejects_unknown_class_without_moving_counters() {
        let (srv, _, _) = server(16);
        assert_eq!(
            srv.try_rank(7, NodeId(1), 1).unwrap_err(),
            QueryError::UnknownClass(7)
        );
        // A mixed list fails atomically: the valid class is not queried.
        assert_eq!(
            srv.try_rank_multi(&[0, 7], NodeId(1), 1).unwrap_err(),
            QueryError::UnknownClass(7)
        );
        assert_eq!(
            srv.try_rank_multi_batch(&[7], &[NodeId(1)], 1).unwrap_err(),
            QueryError::UnknownClass(7)
        );
        assert_eq!(
            srv.try_rank_batch(9, &[NodeId(1)], 1).unwrap_err(),
            QueryError::UnknownClass(9)
        );
        let s = srv.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
        assert_eq!(s.latency.count, 0);
        assert_eq!(
            srv.try_rank(7, NodeId(1), 1).unwrap_err().to_string(),
            "unknown class id 7"
        );
        assert!(srv.has_class(0) && !srv.has_class(7));
        assert_eq!(srv.n_classes(), 1);
        // The happy path answers through the same entry points.
        assert_eq!(
            *srv.try_rank(0, NodeId(1), 2).unwrap(),
            *srv.rank(0, NodeId(1), 2)
        );
    }

    #[test]
    fn k_zero_is_empty_and_never_touches_the_cache() {
        let (srv, _, _) = server(16);
        let a = srv.rank(0, NodeId(1), 0);
        assert!(a.is_empty());
        // Neither a hit nor a miss, no cache fill, no latency entry.
        let s = srv.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
        // All entry points share the one preallocated empty list.
        let multi = srv.rank_multi(&[0, 0], NodeId(1), 0);
        let grid = srv.rank_multi_batch(&[0], &[NodeId(1), NodeId(2)], 0);
        assert!(multi.iter().all(|r| Arc::ptr_eq(r, &a)));
        assert!(grid.iter().flatten().all(|r| Arc::ptr_eq(r, &a)));
        assert_eq!(srv.stats().latency.count, 0);
        // And the k == 0 entry cannot have displaced or poisoned real
        // keys: a k = 2 lookup computes fresh and a repeat hits.
        let _ = srv.rank(0, NodeId(1), 2);
        let _ = srv.rank(0, NodeId(1), 2);
        let s = srv.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
    }

    #[test]
    fn huge_k_saturates_instead_of_truncating_into_k_zero() {
        let (srv, idx, w) = server(16);
        // Before the fix `k as u32` truncated: k = 2³² + 17 landed in the
        // k = 17 slot and k = 2³² landed in the k = 0 slot. Saturating at
        // u32::MAX is lossless — no posting list has 2³² entries — so all
        // huge ks share one (correct, full-list) cache entry.
        let huge = (u32::MAX as usize).saturating_add(17);
        let full = srv.rank(0, NodeId(1), huge);
        assert_eq!(*full, reference(&idx, &w, NodeId(1), huge));
        let also = srv.rank(0, NodeId(1), (u32::MAX as usize).saturating_add(99));
        assert_eq!(*full, *also);
        // A degenerate k = 0 request after the huge-k fill stays empty.
        assert!(srv.rank(0, NodeId(1), 0).is_empty());
        assert_eq!(
            *srv.rank(0, NodeId(1), 17),
            reference(&idx, &w, NodeId(1), 17)
        );
    }

    #[test]
    fn pin_epoch_is_a_public_slow_reader() {
        let (srv, mut idx, _) = server(16);
        assert_eq!(srv.epoch_stats(), EpochStats::default());
        let pin = srv.pin_epoch(NodeId(1));
        let touch = idx.apply_delta(&count_delta(&[(1, 2), (2, 2)], &[((1, 2), 2)], 0, 2));
        srv.apply_delta(0, &idx, &touch);
        let held = srv.epoch_stats();
        assert!(held.retained_epochs >= 1, "{held}");
        drop(pin);
        assert_eq!(srv.epoch_stats(), EpochStats::default());
    }

    #[test]
    fn replacing_a_class_clears_its_cache() {
        let (mut srv, idx, _) = server(16);
        let before = srv.rank(0, NodeId(1), 2);
        // Re-register with flipped weights: ranking changes.
        let w2 = vec![0.0, 1.0];
        let id = srv.add_class("demo", &idx, &w2);
        assert_eq!(id, 0);
        let after = srv.rank(0, NodeId(1), 2);
        assert_eq!(*after, reference(&idx, &w2, NodeId(1), 2));
        assert_ne!(*before, *after);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (srv, _, _) = server(4);
        assert!(srv.rank_batch(0, &[], 3).is_empty());
    }

    /// Applies a count delta to both the index and the server, asserting
    /// the server now answers identically to a freshly registered class
    /// over the updated index. `apply_delta` goes through `&self` — the
    /// server is shared, not exclusively borrowed.
    fn apply_and_check(
        srv: &QueryServer,
        idx: &mut VectorIndex,
        w: &[f64],
        delta: mgp_index::IndexDelta,
    ) -> DeltaStats {
        let touch = idx.apply_delta(&delta);
        let stats = srv.apply_delta(0, idx, &touch);
        let mut fresh = QueryServer::new(ServeConfig {
            workers: 2,
            shards: 3,
            cache_capacity: 0,
        });
        fresh.add_class("fresh", idx, w);
        for q in 0..8u32 {
            for k in [1, 3, 10] {
                assert_eq!(
                    *srv.rank(0, NodeId(q), k),
                    *fresh.rank(0, NodeId(q), k),
                    "q={q} k={k} after delta"
                );
                assert_eq!(
                    *srv.rank(0, NodeId(q), k),
                    reference(idx, w, NodeId(q), k),
                    "q={q} k={k} vs reference"
                );
            }
        }
        stats
    }

    fn count_delta(
        node: &[(u32, i64)],
        pairs: &[((u32, u32), i64)],
        coord: usize,
        n: usize,
    ) -> mgp_index::IndexDelta {
        let mut d = mgp_index::IndexDelta::empty(n);
        for &(x, c) in node {
            d.counts[coord].per_node.insert(x, c);
        }
        for &((x, y), c) in pairs {
            d.counts[coord]
                .per_pair
                .insert(mgp_graph::ids::pack_pair(NodeId(x), NodeId(y)), c);
        }
        d
    }

    #[test]
    fn delta_patch_matches_full_reregistration() {
        let (srv, mut idx, w) = server(16);
        // Bump an existing pair (1,2) on coordinate 0.
        let stats = apply_and_check(
            &srv,
            &mut idx,
            &w,
            count_delta(&[(1, 2), (2, 2)], &[((1, 2), 2)], 0, 2),
        );
        assert_eq!(stats.redotted_nodes, 2);
        assert_eq!(stats.redotted_pairs, 1);
        assert_eq!(stats.rebuilt_postings, 2);
        // Nodes 1, 2 rebuilt; partner entries pointing at them patched.
        assert!(stats.patched_entries > 0);
        assert!(stats.invalidated_anchors >= 2);
        // Every invalidated anchor's shard was epoch-swapped (3 shards,
        // anchors 1, 2, 3 all changed → all 3 swapped).
        assert!(stats.swapped_shards >= 1 && stats.swapped_shards <= 3);
    }

    #[test]
    fn delta_with_new_pair_and_new_node() {
        let (srv, mut idx, w) = server(16);
        // Node 4 never seen before; new pair (3,4) on coordinate 1.
        apply_and_check(
            &srv,
            &mut idx,
            &w,
            count_delta(&[(3, 1), (4, 1)], &[((3, 4), 1)], 1, 2),
        );
        // 4 is now rankable and 3's posting gained an entry.
        assert_eq!(srv.rank(0, NodeId(4), 5).len(), 1);
        assert!(srv
            .rank(0, NodeId(3), 5)
            .iter()
            .any(|&(v, _)| v == NodeId(4)));
    }

    #[test]
    fn delta_invalidates_only_changed_queries() {
        let (srv, mut idx, w) = server(32);
        // Warm the cache for all anchors.
        for q in 1..4u32 {
            let _ = srv.rank(0, NodeId(q), 2);
        }
        let before = srv.stats();
        assert_eq!(before.cache_misses, 3);

        // Touch only the pair (2,3): anchors 2 and 3 change; their node
        // dots also move, patching entries that point at them (1 holds an
        // entry for 2 → 1's results change too in general). Use a delta
        // touching only node 3's count instead for a clean split: anchors
        // with 3 in their partner list are 1 (via M1) and 2 (via M1).
        let touch = idx.apply_delta(&count_delta(&[(3, 5)], &[], 1, 2));
        srv.apply_delta(0, &idx, &touch);

        // Anchor 3 and its partners 1, 2 were invalidated...
        let s1 = srv.stats();
        let _ = srv.rank(0, NodeId(3), 2);
        assert_eq!(srv.stats().cache_misses, s1.cache_misses + 1);
        // ...and recomputed answers match a fresh registration.
        let mut fresh = QueryServer::new(ServeConfig::default());
        fresh.add_class("fresh", &idx, &w);
        for q in 1..4u32 {
            assert_eq!(*srv.rank(0, NodeId(q), 2), *fresh.rank(0, NodeId(q), 2));
        }
    }

    #[test]
    fn untouched_queries_keep_their_cache_entries() {
        let (srv, mut idx, _) = server(32);
        // Anchor 1's partners are 2 and 3; a delta touching node 9 (an
        // isolated newcomer with no pairs) changes nobody's results.
        for q in 1..4u32 {
            let _ = srv.rank(0, NodeId(q), 2);
        }
        let touch = idx.apply_delta(&count_delta(&[(9, 1)], &[], 0, 2));
        srv.apply_delta(0, &idx, &touch);
        let before = srv.stats();
        for q in 1..4u32 {
            let _ = srv.rank(0, NodeId(q), 2);
        }
        let after = srv.stats();
        // 9 has no partners: every repeat query was a cache hit except 9's
        // own (rebuilt, empty) posting — queries 1..4 all hit.
        assert_eq!(after.cache_hits, before.cache_hits + 3);
        assert_eq!(after.cache_misses, before.cache_misses);
    }

    #[test]
    #[should_panic(expected = "unknown class id")]
    fn delta_on_unknown_class_panics() {
        let (srv, idx, _) = server(4);
        let touch = mgp_index::IndexTouch::default();
        let _ = srv.apply_delta(9, &idx, &touch);
    }

    #[test]
    fn deletion_patch_matches_full_reregistration() {
        let (srv, mut idx, w) = server(16);
        // Kill pair (1,3) on coordinate 0 (its only coordinate): its
        // entries must vanish from both endpoints' postings.
        let stats = apply_and_check(
            &srv,
            &mut idx,
            &w,
            count_delta(&[(1, -1), (3, -1)], &[((1, 3), -1)], 0, 2),
        );
        assert_eq!(stats.redotted_nodes, 2);
        assert_eq!(stats.redotted_pairs, 1);
        // 1 and 3 remain partners through M1's pair (1,3)? No — the
        // sample index pairs are (1,2),(1,3) on M0 and (2,3),(1,2) on M1;
        // killing (1,3) on M0 removes the pair entirely.
        assert!(!srv
            .rank(0, NodeId(1), 5)
            .iter()
            .any(|&(v, _)| v == NodeId(3)));
        assert!(!srv
            .rank(0, NodeId(3), 5)
            .iter()
            .any(|&(v, _)| v == NodeId(1)));
    }

    #[test]
    fn deletion_that_empties_an_anchor_drops_its_posting() {
        let (srv, mut idx, w) = server(16);
        let before = srv.table_stats(0);
        // Remove every contribution node 3 has: pair (1,3) on M0 and
        // pair (2,3) on M1, with the matching node decrements.
        let mut d = count_delta(&[(1, -1), (3, -1)], &[((1, 3), -1)], 0, 2);
        let d2 = count_delta(&[(2, -2), (3, -2)], &[((2, 3), -2)], 1, 2);
        d.counts[1] = d2.counts[1].clone();
        apply_and_check(&srv, &mut idx, &w, d);
        // Node 3 is unrankable and holds no serving state at all.
        assert!(srv.rank(0, NodeId(3), 5).is_empty());
        let after = srv.table_stats(0);
        assert_eq!(after.n_postings, before.n_postings - 1);
        assert_eq!(after.n_pair_dots, before.n_pair_dots - 2);
        assert_eq!(after.n_node_dots, before.n_node_dots - 1);
    }

    #[test]
    fn churn_roundtrip_restores_tables_exactly() {
        let (srv, mut idx, w) = server(16);
        let before = srv.table_stats(0);
        // Forward: kill pair (1,3), add brand-new pair (4,5).
        let mut fwd = count_delta(&[(1, -1), (3, -1)], &[((1, 3), -1)], 0, 2);
        fwd.counts[1] = count_delta(&[(4, 3), (5, 3)], &[((4, 5), 3)], 1, 2).counts[1].clone();
        apply_and_check(&srv, &mut idx, &w, fwd);
        assert_ne!(srv.table_stats(0), before);
        // Backward: exact inverse.
        let mut bwd = count_delta(&[(1, 1), (3, 1)], &[((1, 3), 1)], 0, 2);
        bwd.counts[1] = count_delta(&[(4, -3), (5, -3)], &[((4, 5), -3)], 1, 2).counts[1].clone();
        apply_and_check(&srv, &mut idx, &w, bwd);
        // Tables restored exactly: same posting/dot footprint, no leaked
        // empties from the churn.
        assert_eq!(srv.table_stats(0), before);
        assert!(srv.rank(0, NodeId(4), 5).is_empty());
    }

    /// Satellite: a query whose result set is unchanged by a delta keeps
    /// serving from cache — its generation stamp is untouched — for both
    /// an insertion-only and a deletion-only delta.
    #[test]
    fn unchanged_result_set_still_serves_from_cache() {
        let (srv, mut idx, _) = server(32);
        for q in 1..4u32 {
            let _ = srv.rank(0, NodeId(q), 2);
        }
        let gens: Vec<u64> = (1..4)
            .map(|q| srv.anchor_generation(0, NodeId(q)))
            .collect();

        // Insertion far away: brand-new pair (8,9) on coordinate 0.
        let touch = idx.apply_delta(&count_delta(&[(8, 1), (9, 1)], &[((8, 9), 1)], 0, 2));
        srv.apply_delta(0, &idx, &touch);
        for (i, q) in (1..4u32).enumerate() {
            assert_eq!(srv.anchor_generation(0, NodeId(q)), gens[i], "insert");
        }
        let s0 = srv.stats();
        for q in 1..4u32 {
            let _ = srv.rank(0, NodeId(q), 2);
        }
        assert_eq!(srv.stats().cache_hits, s0.cache_hits + 3);
        assert_eq!(srv.stats().cache_misses, s0.cache_misses);

        // Deletion of the same far-away pair: still nobody's result set
        // in 1..4 changed — still all cache hits, stamps untouched.
        let touch = idx.apply_delta(&count_delta(&[(8, -1), (9, -1)], &[((8, 9), -1)], 0, 2));
        srv.apply_delta(0, &idx, &touch);
        for (i, q) in (1..4u32).enumerate() {
            assert_eq!(srv.anchor_generation(0, NodeId(q)), gens[i], "delete");
        }
        let s1 = srv.stats();
        for q in 1..4u32 {
            let _ = srv.rank(0, NodeId(q), 2);
        }
        assert_eq!(srv.stats().cache_hits, s1.cache_hits + 3);
        assert_eq!(srv.stats().cache_misses, s1.cache_misses);
        // ...while the churned anchors 8/9 were invalidated and emptied.
        assert!(srv.rank(0, NodeId(8), 2).is_empty());
        assert!(srv.anchor_generation(0, NodeId(8)) > 0);
    }

    #[test]
    fn multiple_classes_are_independent() {
        let idx = sample_index();
        let mut srv = QueryServer::new(ServeConfig::default());
        let a = srv.add_class("m0", &idx, &[1.0, 0.0]);
        let b = srv.add_class("m1", &idx, &[0.0, 1.0]);
        assert_eq!(srv.class_names(), vec!["m0", "m1"]);
        assert_eq!(srv.class_id("m1"), Some(b));
        let ra = srv.rank(a, NodeId(2), 1);
        let rb = srv.rank(b, NodeId(2), 1);
        // Under M0-only weights node 2's best is 1; under M1-only it's 3.
        assert_eq!(ra[0].0, NodeId(1));
        assert_eq!(rb[0].0, NodeId(3));
    }

    /// Tentpole: queries flow while a delta lands. Readers hammer the
    /// shared server from other threads while this thread applies a
    /// delta through `&self` — no `&mut` anywhere after registration.
    #[test]
    fn rank_batch_runs_concurrently_with_apply_delta() {
        let (srv, mut idx, w) = server(64);
        let srv = Arc::new(srv);
        let queries: Vec<NodeId> = (0..6u32).map(NodeId).collect();
        let stop = std::sync::atomic::AtomicBool::new(false);

        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let batch = srv.rank_batch(0, &queries, 3);
                        assert_eq!(batch.len(), queries.len());
                    }
                });
            }
            // Writer: a burst of forward/backward deltas on pair (1,2).
            for round in 0..20 {
                let sign = if round % 2 == 0 { 1 } else { -1 };
                let touch = idx.apply_delta(&count_delta(
                    &[(1, sign), (2, sign)],
                    &[((1, 2), sign)],
                    0,
                    2,
                ));
                let stats = srv.apply_delta(0, &idx, &touch);
                assert!(stats.swapped_shards > 0);
            }
            stop.store(true, Ordering::Relaxed);
        });

        // Settled state answers like a fresh registration.
        let mut fresh = QueryServer::new(ServeConfig::default());
        fresh.add_class("fresh", &idx, &w);
        for &q in &queries {
            assert_eq!(*srv.rank(0, q, 3), *fresh.rank(0, q, 3));
        }
    }

    /// A two-class server over the sample index with distinct weights —
    /// the fused-path fixture.
    fn two_class_server(cache: usize) -> (QueryServer, VectorIndex, Vec<f64>, Vec<f64>) {
        let idx = sample_index();
        let (wa, wb) = (vec![0.7, 0.3], vec![0.2, 0.8]);
        let mut srv = QueryServer::new(ServeConfig {
            workers: 2,
            shards: 3,
            cache_capacity: cache,
        });
        srv.add_class("a", &idx, &wa);
        srv.add_class("b", &idx, &wb);
        (srv, idx, wa, wb)
    }

    #[test]
    fn rank_multi_matches_per_class_rank() {
        let (srv, idx, wa, wb) = two_class_server(16);
        for q in 0..6u32 {
            for k in [1, 2, 10] {
                let multi = srv.rank_multi(&[0, 1], NodeId(q), k);
                assert_eq!(multi.len(), 2);
                assert_eq!(*multi[0], reference(&idx, &wa, NodeId(q), k), "a q={q}");
                assert_eq!(*multi[1], reference(&idx, &wb, NodeId(q), k), "b q={q}");
                assert_eq!(*multi[0], *srv.rank(0, NodeId(q), k));
                assert_eq!(*multi[1], *srv.rank(1, NodeId(q), k));
            }
        }
        // Duplicate class ids are answered per slot.
        let dup = srv.rank_multi(&[1, 1], NodeId(2), 2);
        assert_eq!(*dup[0], *dup[1]);
    }

    #[test]
    fn rank_multi_shares_cache_entries_with_rank() {
        let (srv, _, _, _) = two_class_server(32);
        // rank_multi fills (class, q, k) entries that rank then hits...
        let first = srv.rank_multi(&[0, 1], NodeId(1), 2);
        let s0 = srv.stats();
        assert_eq!(s0.cache_misses, 2);
        let a = srv.rank(0, NodeId(1), 2);
        let b = srv.rank(1, NodeId(1), 2);
        assert!(Arc::ptr_eq(&a, &first[0]));
        assert!(Arc::ptr_eq(&b, &first[1]));
        assert_eq!(srv.stats().cache_hits, 2);
        // ...and vice versa: a warmed single-class entry hits in multi.
        let again = srv.rank_multi(&[0, 1], NodeId(1), 2);
        assert!(Arc::ptr_eq(&again[0], &a));
        assert_eq!(srv.stats().cache_hits, 4);
    }

    #[test]
    fn rank_multi_batch_matches_singles() {
        let (srv, idx, wa, wb) = two_class_server(16);
        let queries: Vec<NodeId> = (0..20).map(|i| NodeId(i % 6)).collect();
        let grid = srv.rank_multi_batch(&[0, 1], &queries, 3);
        assert_eq!(grid.len(), queries.len());
        for (row, &q) in grid.iter().zip(&queries) {
            assert_eq!(*row[0], reference(&idx, &wa, q, 3), "a q={q}");
            assert_eq!(*row[1], reference(&idx, &wb, q, 3), "b q={q}");
        }
        assert_eq!(srv.stats().latency.count, 1, "one histogram entry");
        assert!(srv.rank_multi_batch(&[0, 1], &[], 3).is_empty());
    }

    #[test]
    fn fused_apply_matches_sequential_applies() {
        // The same churn (bump pair (1,2) on coordinate 0, kill pair
        // (2,3) on coordinate 1) lands on two servers: one via
        // apply_delta_fused across both classes, one via two sequential
        // single-class apply_delta calls. Both must equal each other and
        // a fresh registration, entry for entry.
        let (fused_srv, mut idx_f, wa, wb) = two_class_server(16);
        let (seq_srv, mut idx_s, _, _) = two_class_server(16);

        let mut d = count_delta(&[(1, 2), (2, 2)], &[((1, 2), 2)], 0, 2);
        d.counts[1] = count_delta(&[(2, -2), (3, -2)], &[((2, 3), -2)], 1, 2).counts[1].clone();

        let touch_f = idx_f.apply_delta(&d);
        let fused = fused_srv.apply_delta_fused(&[
            ClassDelta {
                class_id: 0,
                index: &idx_f,
                touch: &touch_f,
            },
            ClassDelta {
                class_id: 1,
                index: &idx_f,
                touch: &touch_f,
            },
        ]);
        let touch_s = idx_s.apply_delta(&d);
        let sa = seq_srv.apply_delta(0, &idx_s, &touch_s);
        let sb = seq_srv.apply_delta(1, &idx_s, &touch_s);

        // Same per-class work, reported in input order.
        assert_eq!(fused.per_class[0], sa);
        assert_eq!(fused.per_class[1], sb);
        // The fusion saving: every shard visited once, not once per class.
        assert_eq!(
            fused.sequential_shard_visits(),
            sa.swapped_shards + sb.swapped_shards
        );
        assert!(fused.fused_shard_visits < fused.sequential_shard_visits());
        assert!(fused.fused_shard_visits >= sa.swapped_shards.max(sb.swapped_shards));
        let shown = fused.to_string();
        assert!(shown.contains("fused shard visits"), "{shown}");

        // Bit-identical serving state on both paths and vs fresh builds.
        let mut fresh = QueryServer::new(ServeConfig::default());
        fresh.add_class("a", &idx_f, &wa);
        fresh.add_class("b", &idx_f, &wb);
        for cid in 0..2 {
            assert_eq!(fused_srv.table_stats(cid), seq_srv.table_stats(cid));
            for q in 0..8u32 {
                for k in [1, 3, 10] {
                    let want = fresh.rank(cid, NodeId(q), k);
                    assert_eq!(*fused_srv.rank(cid, NodeId(q), k), *want, "fused {cid} {q}");
                    assert_eq!(*seq_srv.rank(cid, NodeId(q), k), *want, "seq {cid} {q}");
                }
            }
        }
        assert_eq!(
            fused.total().redotted_nodes,
            sa.redotted_nodes + sb.redotted_nodes
        );
    }

    #[test]
    fn parallel_and_sequential_fused_replay_are_bit_identical() {
        // The same wide two-class churn (touching anchors in every
        // shard) lands on two servers with the same shard layout: one
        // with four workers replays phase 5 through the rayon fan-out,
        // the other with one worker replays it inline. Stats, tables,
        // and rankings must all be bit-identical.
        let with_workers = |workers| {
            let idx = sample_index();
            let mut srv = QueryServer::new(ServeConfig {
                workers,
                shards: 3,
                cache_capacity: 0,
            });
            srv.add_class("a", &idx, &[0.7, 0.3]);
            srv.add_class("b", &idx, &[0.2, 0.8]);
            (srv, idx)
        };
        let (par, mut idx_p) = with_workers(4);
        let (seq, mut idx_s) = with_workers(1);
        let (wa, wb) = (vec![0.7, 0.3], vec![0.2, 0.8]);

        let mut d = count_delta(
            &[(1, 2), (2, 2), (4, 3), (5, 3)],
            &[((1, 2), 2), ((4, 5), 3)],
            0,
            2,
        );
        d.counts[1] = count_delta(
            &[(2, 1), (3, 1), (6, 2), (7, 2)],
            &[((2, 3), 1), ((6, 7), 2)],
            1,
            2,
        )
        .counts[1]
            .clone();

        let tp = idx_p.apply_delta(&d);
        let fp = par.apply_delta_fused(&[
            ClassDelta {
                class_id: 0,
                index: &idx_p,
                touch: &tp,
            },
            ClassDelta {
                class_id: 1,
                index: &idx_p,
                touch: &tp,
            },
        ]);
        let ts = idx_s.apply_delta(&d);
        let fs = seq.apply_delta_fused(&[
            ClassDelta {
                class_id: 0,
                index: &idx_s,
                touch: &ts,
            },
            ClassDelta {
                class_id: 1,
                index: &idx_s,
                touch: &ts,
            },
        ]);

        assert_eq!(fp.per_class, fs.per_class);
        assert_eq!(fp.fused_shard_visits, fs.fused_shard_visits);
        assert!(fp.fused_shard_visits <= fp.sequential_shard_visits());

        let mut fresh = QueryServer::new(ServeConfig::default());
        fresh.add_class("a", &idx_p, &wa);
        fresh.add_class("b", &idx_p, &wb);
        for cid in 0..2 {
            assert_eq!(par.table_stats(cid), seq.table_stats(cid));
            for q in 0..10u32 {
                let want = fresh.rank(cid, NodeId(q), 4);
                assert_eq!(*par.rank(cid, NodeId(q), 4), *want, "par {cid} q={q}");
                assert_eq!(*seq.rank(cid, NodeId(q), 4), *want, "seq {cid} q={q}");
            }
        }
    }

    /// Satellite: the shard-visit fix. A delta that both rescores an
    /// entry and drops a whole posting **in the same shard** pays (and
    /// reports) one clone/swap cycle, not two.
    #[test]
    fn patch_and_drop_in_one_shard_is_one_visit() {
        let (srv, mut idx, w) = server(0);
        // Grow anchor 6 (shard 0) a posting that points at node 1.
        let t1 = idx.apply_delta(&count_delta(&[(1, 2), (6, 2)], &[((1, 6), 2)], 0, 2));
        srv.apply_delta(0, &idx, &t1);
        // One delta kills anchor 3's last pairs — dropping its posting
        // in shard 0 — while node 1's changed dot rescores entry
        // (6 → 1), also shard 0.
        let mut d = count_delta(&[(1, -1), (3, -1)], &[((1, 3), -1)], 0, 2);
        d.counts[1] = count_delta(&[(2, -2), (3, -2)], &[((2, 3), -2)], 1, 2).counts[1].clone();
        let t2 = idx.apply_delta(&d);
        let fused = srv.apply_delta_fused(&[ClassDelta {
            class_id: 0,
            index: &idx,
            touch: &t2,
        }]);
        let st = fused.per_class[0];
        assert!(st.dropped_postings >= 1, "{st}");
        assert!(st.patched_entries >= 1, "{st}");
        assert_eq!(
            fused.fused_shard_visits, st.swapped_shards,
            "a single-class fusion visits each affected shard exactly once"
        );
        assert!(fused.fused_shard_visits <= fused.sequential_shard_visits());

        let mut fresh = QueryServer::new(ServeConfig::default());
        fresh.add_class("demo", &idx, &w);
        for q in 0..8u32 {
            assert_eq!(
                *srv.rank(0, NodeId(q), 5),
                *fresh.rank(0, NodeId(q), 5),
                "q={q}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn fused_apply_rejects_duplicate_class() {
        let (srv, idx, _, _) = two_class_server(0);
        let touch = mgp_index::IndexTouch::default();
        let d = ClassDelta {
            class_id: 0,
            index: &idx,
            touch: &touch,
        };
        let _ = srv.apply_delta_fused(&[d, d]);
    }

    /// Satellite: GC accounting. A reader pinning a pre-delta snapshot
    /// keeps exactly that epoch (and its unshared postings) alive; when
    /// the last reader drops it, the epoch is released and every gauge
    /// returns to zero.
    #[test]
    fn dropping_last_reader_releases_retired_epoch() {
        let (srv, mut idx, _) = server(16);
        assert_eq!(srv.epoch_stats(), EpochStats::default());

        // Pin the shard that anchor 1 lives in, then churn anchor 1.
        let pin = srv.snapshot(1);
        let touch = idx.apply_delta(&count_delta(&[(1, 2), (2, 2)], &[((1, 2), 2)], 0, 2));
        srv.apply_delta(0, &idx, &touch);

        let held = srv.epoch_stats();
        assert!(held.retained_epochs >= 1, "{held}");
        assert!(
            held.retained_postings >= 1,
            "the pinned epoch holds anchor 1's pre-delta posting: {held}"
        );
        assert!(held.retained_posting_entries >= 1);
        assert!(held.approx_retained_bytes > 0);
        assert!(held.to_string().contains("retained epochs"));

        drop(pin);
        assert_eq!(
            srv.epoch_stats(),
            EpochStats::default(),
            "dropping the last reader must release the epoch"
        );
    }

    #[test]
    fn class_stats_track_per_class_hits_and_misses() {
        let (srv, _, _, _) = two_class_server(32);
        let _ = srv.rank(0, NodeId(1), 2); // a: miss
        let _ = srv.rank(0, NodeId(1), 2); // a: hit
        let _ = srv.rank_multi(&[0, 1], NodeId(1), 2); // a: hit, b: miss
        let a = srv.class_stats(0);
        let b = srv.class_stats(1);
        assert_eq!((a.hits, a.misses), (2, 1));
        assert_eq!((b.hits, b.misses), (0, 1));
        assert!((a.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ClassCacheStats::default().hit_rate(), 0.0);
        let s = srv.stats();
        assert_eq!(s.cache_hits, a.hits + b.hits);
        assert_eq!(s.cache_misses, a.misses + b.misses);
    }

    #[test]
    fn delta_stats_display_and_sum() {
        let mut a = DeltaStats {
            redotted_nodes: 2,
            redotted_pairs: 1,
            rebuilt_postings: 2,
            patched_entries: 3,
            removed_entries: 1,
            dropped_postings: 1,
            invalidated_anchors: 4,
            swapped_shards: 2,
        };
        let shown = a.to_string();
        assert!(shown.contains("2 node / 1 pair dots"), "{shown}");
        assert!(shown.contains("2 shard swaps"), "{shown}");
        a += a;
        assert_eq!(a.redotted_nodes, 4);
        assert_eq!(a.swapped_shards, 4);

        let t = TableStats {
            n_postings: 3,
            n_posting_entries: 6,
            n_node_dots: 4,
            n_pair_dots: 3,
        };
        assert_eq!(
            t.to_string(),
            "3 postings (6 entries), 4 node dots, 3 pair dots"
        );
    }

    #[test]
    fn register_class_matches_from_scratch_build() {
        // Live-register a second class on a serving (&self via Arc)
        // server, then compare every answer and every table stat against
        // a server built with both classes from scratch.
        let idx = sample_index();
        let (wa, wb) = (vec![0.7, 0.3], vec![0.2, 0.8]);
        let mut srv = QueryServer::new(ServeConfig {
            workers: 2,
            shards: 3,
            cache_capacity: 16,
        });
        srv.add_class("a", &idx, &wa);
        let srv: ServerHandle = Arc::new(srv);
        assert_eq!(srv.n_classes(), 1);
        let b = srv.register_class("b", &idx, &wb).unwrap();
        assert_eq!(b, 1);
        assert_eq!(srv.n_classes(), 2);
        assert_eq!(srv.class_id("b"), Some(1));
        assert_eq!(srv.class_names(), vec!["a", "b"]);

        let mut fresh = QueryServer::new(ServeConfig {
            workers: 2,
            shards: 3,
            cache_capacity: 16,
        });
        fresh.add_class("a", &idx, &wa);
        fresh.add_class("b", &idx, &wb);
        for q in 0..6u32 {
            for k in [1usize, 3, 10] {
                for cid in 0..2 {
                    assert_eq!(
                        *srv.rank(cid, NodeId(q), k),
                        *fresh.rank(cid, NodeId(q), k),
                        "q={q} k={k} cid={cid}"
                    );
                }
                assert_eq!(
                    srv.rank_multi(&[0, 1], NodeId(q), k)
                        .iter()
                        .map(|r| (**r).clone())
                        .collect::<Vec<_>>(),
                    fresh
                        .rank_multi(&[0, 1], NodeId(q), k)
                        .iter()
                        .map(|r| (**r).clone())
                        .collect::<Vec<_>>(),
                );
            }
        }
        for cid in 0..2 {
            assert_eq!(srv.table_stats(cid), fresh.table_stats(cid));
        }
        // Registration epoch-swapped shards; with no reader pinning the
        // old epochs nothing may be retained.
        assert_eq!(srv.epoch_stats(), EpochStats::default());
    }

    #[test]
    fn register_class_rejects_duplicate_names() {
        let (srv, idx, w) = server(4);
        let err = srv.register_class("demo", &idx, &w).unwrap_err();
        assert_eq!(err, RegisterError::DuplicateName("demo".to_owned()));
        assert!(err.to_string().contains("demo"));
        assert_eq!(srv.n_classes(), 1);
    }

    #[test]
    fn register_class_then_delta_flows_like_any_class() {
        // A runtime-registered class must ride subsequent deltas exactly
        // like a build-time class: patch both through one fused call and
        // compare against full re-registration.
        let idx = sample_index();
        let (wa, wb) = (vec![0.7, 0.3], vec![0.2, 0.8]);
        let mut srv = QueryServer::new(ServeConfig {
            workers: 2,
            shards: 3,
            cache_capacity: 16,
        });
        srv.add_class("a", &idx, &wa);
        srv.register_class("b", &idx, &wb).unwrap();

        // One signed count change: bump pair (1,2) on metagraph 0.
        let mut idx_now = idx.clone();
        let touch = idx_now.apply_delta(&count_delta(&[(1, 2), (2, 2)], &[((1, 2), 2)], 0, 2));
        let fused = srv.apply_delta_fused(&[
            ClassDelta {
                class_id: 0,
                index: &idx_now,
                touch: &touch,
            },
            ClassDelta {
                class_id: 1,
                index: &idx_now,
                touch: &touch,
            },
        ]);
        assert_eq!(fused.per_class.len(), 2);

        let mut fresh = QueryServer::new(ServeConfig {
            workers: 2,
            shards: 3,
            cache_capacity: 0,
        });
        fresh.add_class("a", &idx_now, &wa);
        fresh.add_class("b", &idx_now, &wb);
        for q in 0..6u32 {
            for cid in 0..2 {
                assert_eq!(
                    *srv.rank(cid, NodeId(q), 10),
                    *fresh.rank(cid, NodeId(q), 10),
                    "q={q} cid={cid}"
                );
            }
            assert_eq!(
                srv.table_stats(q as usize % 2),
                fresh.table_stats(q as usize % 2)
            );
        }
    }

    #[test]
    fn register_class_is_readable_mid_traffic() {
        // Readers hammer class 0 while a writer registers classes 1..=4;
        // every successfully-resolved new id must answer correctly
        // immediately (publish-last ordering), and class 0 must never
        // miss a beat.
        let idx = sample_index();
        let w = vec![0.7, 0.3];
        let mut srv = QueryServer::new(ServeConfig {
            workers: 2,
            shards: 3,
            cache_capacity: 16,
        });
        srv.add_class("base", &idx, &w);
        let srv: ServerHandle = Arc::new(srv);
        let expect = (*srv.rank(0, NodeId(1), 10)).clone();

        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let srv = Arc::clone(&srv);
                let stop = Arc::clone(&stop);
                let expect = expect.clone();
                std::thread::spawn(move || {
                    let mut seen_new = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        assert_eq!(*srv.rank(0, NodeId(1), 10), expect);
                        let n = srv.n_classes();
                        for cid in 1..n {
                            // Registered ids must already have postings.
                            let _ = srv.rank(cid, NodeId(1), 10);
                            seen_new += 1;
                        }
                    }
                    seen_new
                })
            })
            .collect();
        for i in 1..=4 {
            let name = format!("extra{i}");
            let wid = vec![0.1 * i as f64, 1.0 - 0.1 * i as f64];
            let cid = srv.register_class(&name, &idx, &wid).unwrap();
            assert_eq!(cid, i);
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // Every registered class answers exactly like a fresh build.
        let mut fresh = QueryServer::new(ServeConfig {
            workers: 2,
            shards: 3,
            cache_capacity: 0,
        });
        fresh.add_class("base", &idx, &w);
        for i in 1..=4 {
            let wid = vec![0.1 * i as f64, 1.0 - 0.1 * i as f64];
            fresh.add_class(&format!("extra{i}"), &idx, &wid);
        }
        for cid in 0..5 {
            for q in 0..6u32 {
                assert_eq!(
                    *srv.rank(cid, NodeId(q), 10),
                    *fresh.rank(cid, NodeId(q), 10)
                );
            }
        }
    }
}
