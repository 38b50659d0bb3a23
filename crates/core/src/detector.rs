//! The FlexCore detector: position vectors → parallel tree paths (§3.2).
//!
//! `prepare` is the paper's pre-processing phase: sorted QR, per-level
//! error model, and the pre-processing tree search selecting `N_PE`
//! position vectors. `detect` is the parallel phase: each position vector
//! becomes one independent tree-path evaluation — one processing element —
//! and the minimum-distance complete path wins.
//!
//! Per level, the `k`-th closest symbol to the effective received point is
//! found through the *approximate predefined ordering* (triangle LUT,
//! Fig. 6) in O(1), or exactly (sort all `|Q|` distances) when configured —
//! the `ablation` driver quantifies the accuracy/cost trade. Paths whose
//! predefined order points outside the constellation are deactivated
//! exactly as in the paper's FPGA engine; rank-1 lookups fall back to the
//! clamped slicer so the SIC path always completes, and a row whose
//! SQRD pivot is exactly zero gets a finite effective point
//! (`Triangular::pivot_inv`) so its metric stays finite (both
//! software-robustness additions).

use crate::model::LevelErrorModel;
use crate::position::PositionVector;
use crate::preprocess::{prob_sum, Preprocessor, Selection, ROOT};
use flexcore_detect::common::{
    batch_rows, detect_each_into, first_min_metric, group_len, Detector, PathScratch, Triangular,
};
use flexcore_modulation::ordering::kth_nearest_exact;
use flexcore_modulation::{Constellation, LocatedOrderingTable, OrderingLut};
use flexcore_numeric::qr::{fcsd_sorted_qr, mgs_qr, sorted_qr_sqrd_into, Qr};
use flexcore_numeric::{CMat, Cx, CxLane, LANES};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

/// How each level finds its k-th closest symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathOrdering {
    /// The approximate predefined ordering (triangle LUT) with
    /// out-of-constellation entries *skipped*, so ranks index constellation
    /// symbols as the probability model assumes. Still O(1)-ish: no
    /// Euclidean distances, no sorting. The default.
    TriangleLut,
    /// The paper's strict FPGA semantics: an out-of-constellation entry
    /// deactivates the processing element (ablation mode; compared by the
    /// `ablation` driver).
    TriangleLutStrict,
    /// Exact ordering (compute and sort all |Q| distances) — the oracle the
    /// LUT approximates; costs |Q|−1 redundant distance evaluations.
    Exact,
}

/// Which sorted QR decomposition feeds the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QrOrdering {
    /// Wübben et al. SQRD \[13\] (reliable streams on top).
    Sqrd,
    /// Barbero–Thompson FCSD ordering \[4\] with the given number of
    /// "worst-first" top levels.
    Fcsd(usize),
    /// Natural column order (ablation baseline).
    Plain,
}

/// FlexCore configuration.
#[derive(Clone, Debug)]
pub struct FlexCoreConfig {
    /// Available processing elements = tree paths evaluated per vector.
    pub n_pe: usize,
    /// Symbol-ordering strategy at each level.
    pub path_ordering: PathOrdering,
    /// Column ordering for the QR decomposition. The paper evaluates both
    /// sorted variants and reports the better (§5.1).
    pub qr_ordering: QrOrdering,
    /// a-FlexCore stopping threshold on cumulative path probability.
    pub stop_threshold: Option<f64>,
    /// Pre-processing expansion batch (1 = sequential).
    pub expand_batch: usize,
}

impl FlexCoreConfig {
    /// Default configuration for `n_pe` processing elements: triangle-LUT
    /// ordering, SQRD, sequential pre-processing, no early stop.
    pub fn new(n_pe: usize) -> Self {
        FlexCoreConfig {
            n_pe,
            path_ordering: PathOrdering::TriangleLut,
            qr_ordering: QrOrdering::Sqrd,
            stop_threshold: None,
            expand_batch: 1,
        }
    }
}

/// The block walk's "no path yet" per lane, and the located table's "no
/// row".
const NIL: u32 = u32::MAX;

/// A [`PathTrie`] node id, path index, rank or row. [`PathTrie::build`]
/// checks that its budget's `budget · nt` nodes stay below [`NONE`], which
/// bounds the other three as well (a row is below `nt`, a path index below
/// the budget, and a rank `k` takes `k` sibling nodes). The budget is
/// `min(N_PE, |Q|^nt)`, the most paths a search can select.
type Id = u16;

/// "No node / no path" in the [`PathTrie`].
const NONE: Id = Id::MAX;

/// One node of the prefix-sharing path trie: the decision "take rank `k`
/// at row `row`" given the (shared) rank prefix above it. A node above
/// row 0 has children, and the first of them is the node made right after
/// it (node `id + 1`): a path lays its nodes down top row first.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TrieNode {
    row: Id,
    rank: Id,
    /// Index into the path list when this node completes a path
    /// (`row == 0`), else [`NONE`].
    path_idx: Id,
    next_sibling: Id,
}

impl TrieNode {
    /// A node at `row` of rank `rank` with no path and no sibling yet.
    fn fresh(row: usize, rank: Id) -> Self {
        TrieNode {
            row: row as Id,
            rank,
            path_idx: NONE,
            next_sibling: NONE,
        }
    }

    /// Node `id`'s first child, if it has a row below it.
    fn first_child(self, id: Id) -> Id {
        if self.row > 0 {
            id + 1
        } else {
            NONE
        }
    }
}

impl From<[Id; 4]> for TrieNode {
    fn from([row, rank, path_idx, next_sibling]: [Id; 4]) -> Self {
        TrieNode {
            row,
            rank,
            path_idx,
            next_sibling,
        }
    }
}

impl From<TrieNode> for [Id; 4] {
    fn from(n: TrieNode) -> Self {
        [n.row, n.rank, n.path_idx, n.next_sibling]
    }
}

/// One sibling chain in the block walk's selection order.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Chain {
    /// First node; the rest follow `next_sibling`.
    first: Id,
    /// The path that opened the chain, so one through its parent: the
    /// chain's ancestors, parent first, are
    /// `lineage[via · nt + row + 1 .. (via + 1) · nt]`.
    via: Id,
}

/// Prefix-sharing trie over the selected position vectors, built in place
/// from the search's own `(parent, row)` links by every `prepare`
/// ([`PathTrie::build`]).
///
/// Position vectors share rank *prefixes* from the top row down, yet
/// evaluating paths independently re-derives every shared effective point
/// and LUT lookup once *per path*. How much there is to share depends on
/// the width, and less than one would guess: the selected paths deviate
/// from rank 1 mostly at the **top** rows — the first-detected levels are
/// the unreliable ones — so prefixes split early. Counted over 48 i.i.d.
/// draws of FlexCore-16 at the benchmark's SNRs (seed 3), deviations per
/// row, bottom row first: 8×8 `[73, 59, 65, 63, 90, 153, 190, 259]`
/// (85.8 nodes in 70.8 chains of a possible 128); 4×4
/// `[222, 219, 242, 330]` (39.4 / 24.4 of 64); at 64×64 every deviation
/// sits in the top 17 rows, so the 16 paths are distinct nearly all the
/// way down (981 nodes in 966 chains of a possible 1024, ≈ 15 chains per
/// level). Walking the trie evaluates each
/// distinct `(rank-prefix, level)` node exactly once; per-level term
/// values and the top-down metric accumulation order are unchanged, so
/// every path's symbols and metric are bit-identical to an independent
/// [`FlexCoreDetector::run_path_into`] evaluation — only the redundant
/// arithmetic disappears.
///
/// For the four-observation block walk the same trie is also laid out as a
/// flat program: `chains` lists every sibling chain in **selection order**
/// — in the order the paths, most probable first, opened them, each
/// path's own chains top row first. A chain's parent sits in a chain
/// opened earlier (by the same path, one row up, or by the earlier path it
/// shares that prefix with), so one plain loop over `chains` evaluates the
/// whole trie; and path 0, the SIC path, completes within its first `nt`
/// chains, so every later chain already meets a finished path's metric —
/// the bound [`FlexCoreDetector::walk_paths_block`] prunes against.
///
/// Nodes, chains and lineage live in one buffer of [`Id`] words sized for
/// the budget once (`bound = budget · nt`: 4 words a node, 2 a chain, 1 a
/// lineage entry, 14 bytes per possible node), so a channel refresh never
/// regrows it.
#[derive(Clone, Debug, Default)]
struct PathTrie {
    /// `[nodes: 4·bound | chains: 2·bound | lineage: bound]`. The
    /// lineage's `lineage[path · nt + row]` is the node of `path` at
    /// `row`: every chain's ancestor list is a row suffix of one path's
    /// lineage, so the ids are materialised once per path (`n_paths · nt`
    /// words), not once per chain.
    words: Vec<Id>,
    /// The budget's node bound the buffer is laid out for.
    bound: usize,
    /// Paths, nodes and chains in use.
    n_paths: usize,
    n_nodes: usize,
    n_chains: usize,
    /// Set by [`PathTrie::build`]; meaningless before the first one.
    first_root: Id,
    /// Static per-vector work of walking this trie, in arithmetic-weighted
    /// path-extension units, counted as the trie is built: each sibling
    /// chain whose nodes sit at `row` pays one effective point
    /// (`nt − 1 − row` cancellation multiply-adds) plus the shared
    /// `|R(row,row)|²`, i.e. `nt − row`, and each node a LUT slice + metric
    /// update, 2. This is what [`Detector::extension_work`] reports for
    /// FlexCore — equal path *counts* can walk very differently sized
    /// tries, and the difference is real detection time a fabric scheduler
    /// must predict. It prices the whole trie: what the bounded block walk
    /// prunes depends on the observations, so a static price cannot see
    /// it.
    work: usize,
}

impl PathTrie {
    /// Empties the trie and lays its buffer out for `budget` paths over
    /// `nt` rows, allocating only when that bound changes.
    ///
    /// # Panics
    /// Panics if `budget · nt` nodes do not fit below [`NONE`].
    fn reset(&mut self, nt: usize, budget: usize) {
        // flexcore-lint: hot-path
        let bound = budget * nt;
        assert!(
            bound < NONE as usize,
            "PathTrie: {budget} paths over {nt} rows need {bound} node ids; at most {} fit",
            NONE
        );
        if bound != self.bound {
            self.words.clear();
            self.words.reserve_exact(7 * bound);
            self.words.resize(7 * bound, NONE);
            self.bound = bound;
        }
        (self.n_paths, self.n_nodes, self.n_chains) = (0, 0, 0);
        (self.first_root, self.work) = (NONE, 0);
    }

    /// The nodes in use, as words ([`TrieNode::from`] reads one).
    fn nodes(&self) -> &[[Id; 4]] {
        &self.words[..4 * self.bound].as_chunks().0[..self.n_nodes]
    }

    fn node(&self, id: Id) -> TrieNode {
        TrieNode::from(self.nodes()[id as usize])
    }

    fn set_node(&mut self, id: Id, node: TrieNode) {
        let at = 4 * id as usize;
        self.words[at..at + 4].copy_from_slice(&<[Id; 4]>::from(node));
    }

    /// Appends a node; returns its id.
    fn push_node(&mut self, node: TrieNode) -> Id {
        let id = self.n_nodes as Id;
        self.n_nodes += 1;
        self.set_node(id, node);
        id
    }

    /// The chains in selection order.
    fn chains(&self) -> impl Iterator<Item = Chain> + '_ {
        let words = &self.words[4 * self.bound..6 * self.bound];
        let chains = &words.as_chunks().0[..self.n_chains];
        chains.iter().map(|&[first, via]| Chain { first, via })
    }

    fn push_chain(&mut self, chain: Chain) {
        let at = 4 * self.bound + 2 * self.n_chains;
        self.words[at..at + 2].copy_from_slice(&[chain.first, chain.via]);
        self.n_chains += 1;
    }

    /// Every built path's nodes by row, `nt` per path in selection order
    /// (and unused words past them).
    fn lineage(&self) -> &[Id] {
        &self.words[6 * self.bound..]
    }

    fn lineage_mut(&mut self) -> &mut [Id] {
        &mut self.words[6 * self.bound..]
    }

    /// Builds the trie over the paths the search reached through `links`
    /// (see `Selection::links`) inside its own storage, in O(nodes built).
    /// `budget` is the most paths this trie will ever be built over (the
    /// search's, `min(N_PE, |Q|^nt)`): the buffer is laid out for it once,
    /// so a channel refresh never regrows it.
    ///
    /// Path `i` with link `(p, row)` is path `p` plus one at `row`, and all
    /// of `p`'s own increments sit at rows ≥ `row` (the search only
    /// deepens rows at or below the one a node was generated by). So `i`
    /// shares `p`'s nodes above `row`; at `row` it opens a node of rank
    /// `p`'s + 1, which no earlier path holds — any other path with this
    /// prefix down to `row` descends from `i` and is selected after it;
    /// below `row` it is rank 1 on a path of its own, one new one-node
    /// chain per row. The root (a [`ROOT`] parent) is that last case for
    /// every row. A rank above 1 only ever appears this way, one past an
    /// existing sibling, so a sibling list holds ranks 1, 2, … in order
    /// and `p`'s node at `row` is its tail: the new node goes right after
    /// it. Node ids, sibling order, chain order and `lineage` come out
    /// exactly as a scan of the vectors in selection order makes them
    /// (the test-only `PathTrie::rebuild`, which looks each path's rank up
    /// in the sibling list at every row).
    ///
    /// # Panics
    /// Panics if `budget · nt` nodes do not fit below [`NONE`].
    fn build(&mut self, links: &[(u32, u32)], nt: usize, budget: usize) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        self.reset(nt, budget);
        self.n_paths = links.len();
        for (pi, &(parent, row)) in links.iter().enumerate() {
            let via = pi as Id;
            // Rows below `fresh` are this path's alone; at `fresh` a child
            // path opens its link node, and above it shares its parent's.
            let (fresh, shared) = match parent {
                ROOT => {
                    self.first_root = self.n_nodes as Id;
                    (nt, None)
                }
                parent => {
                    let (from, row) = (parent as usize * nt, row as usize);
                    let tail = self.lineage()[from + row];
                    let mut sibling = self.node(tail);
                    debug_assert_eq!(sibling.next_sibling, NONE);
                    sibling.next_sibling = self.n_nodes as Id;
                    self.set_node(tail, sibling);
                    let id = self.push_node(TrieNode::fresh(row, sibling.rank + 1));
                    self.work += 2;
                    (row, Some((id, from)))
                }
            };
            // Each fresh node, rank 1, opens a chain under the one made
            // just before it (or heads the top row's list); the path's
            // lineage takes them in row order.
            let at = pi * nt;
            for row in (0..fresh).rev() {
                let first = self.push_node(TrieNode::fresh(row, 1));
                self.push_chain(Chain { first, via });
                self.lineage_mut()[at + row] = first;
            }
            // Σ over rows r < fresh of a chain's `nt − r` and a node's 2.
            self.work += fresh * (nt + 2) - fresh * fresh.saturating_sub(1) / 2;
            if let Some((id, from)) = shared {
                let lineage = self.lineage_mut();
                lineage[at + fresh] = id;
                lineage.copy_within(from + fresh + 1..from + nt, at + fresh + 1);
            }
            let leaf = self.lineage()[at];
            let node = TrieNode {
                path_idx: via,
                ..self.node(leaf)
            };
            self.set_node(leaf, node);
        }
    }

    /// The reference [`PathTrie::build`] is pinned against: the trie over
    /// `paths` by scanning each one top row down for an existing node of
    /// its rank and appending a new one at the sibling list's tail
    /// otherwise, with the work priced by [`PathTrie::static_work`]
    /// afterwards. Also builds the hand-made tries of the walk tests.
    #[cfg(test)]
    fn rebuild(&mut self, paths: &[PositionVector], nt: usize, budget: usize) {
        self.reset(nt, budget);
        self.n_paths = paths.len();
        for (pi, p) in paths.iter().enumerate() {
            let mut parent: Option<Id> = None;
            for row in (0..nt).rev() {
                let rank = p.rank(row) as Id;
                // Scan the sibling list for an existing node; append a new
                // node at the tail otherwise. A node's children, once it
                // has any, start right after it.
                let mut slot = match parent {
                    None => self.first_root,
                    Some(pa) if pa as usize + 1 < self.n_nodes => pa + 1,
                    Some(_) => NONE,
                };
                let mut prev = NONE;
                let mut found = NONE;
                while slot != NONE {
                    if self.node(slot).rank == rank {
                        found = slot;
                        break;
                    }
                    prev = slot;
                    slot = self.node(slot).next_sibling;
                }
                if found == NONE {
                    found = self.push_node(TrieNode::fresh(row, rank));
                    if prev != NONE {
                        let tail = TrieNode {
                            next_sibling: found,
                            ..self.node(prev)
                        };
                        self.set_node(prev, tail);
                    } else {
                        // A new sibling list: its chain runs in this
                        // path's turn.
                        if parent.is_none() {
                            self.first_root = found;
                        }
                        self.push_chain(Chain {
                            first: found,
                            via: pi as Id,
                        });
                    }
                }
                if row == 0 {
                    let leaf = TrieNode {
                        path_idx: pi as Id,
                        ..self.node(found)
                    };
                    self.set_node(found, leaf);
                }
                self.lineage_mut()[pi * nt + row] = found;
                parent = Some(found);
            }
        }
        self.work = self.static_work(nt);
    }

    /// The node-walk price [`PathTrie::work`] is pinned against: each
    /// sibling list, the top row's and every node's children, costs `nt` −
    /// its row, and each node 2.
    #[cfg(test)]
    fn static_work(&self, nt: usize) -> usize {
        let chain_cost = |first: Id| match first {
            NONE => 0,
            first => nt - self.node(first).row as usize,
        };
        let children: usize = (0..self.n_nodes as Id)
            .map(|id| 2 + chain_cost(self.node(id).first_child(id)))
            .sum();
        chain_cost(self.first_root) + children
    }

    /// The ancestor nodes of `chain`, whose own nodes sit at `row`: parent
    /// first, ascending by row.
    #[inline]
    fn ancestors(&self, chain: Chain, row: usize, nt: usize) -> &[Id] {
        let via = chain.via as usize * nt;
        &self.lineage()[via + row + 1..via + nt]
    }
}

/// Per-channel state computed by `prepare`. Every buffer is overwritten
/// in place by the next `prepare`, so a channel refresh of the same shape
/// touches no heap.
#[derive(Clone, Debug)]
struct State {
    tri: Triangular,
    /// Per-level error model of `tri`'s `R` (Eq. 4).
    model: LevelErrorModel,
    /// The selection the prepare-time search produced (links and
    /// ln-probabilities, most promising first): every selected path is an
    /// active one.
    selection: Selection,
    /// Prefix-sharing evaluation order over the selected paths.
    trie: PathTrie,
    /// The selected position vectors, built from `selection` by the first
    /// [`FlexCoreDetector::position_vectors`] call after a `prepare`: no
    /// detection path reads them.
    paths: OnceLock<Vec<PositionVector>>,
    /// Per row `(Triangular::pivot_inv, |R(row,row)|²)`, exactly as the
    /// scalar walk forms them per chain.
    diag: Vec<(Cx, f64)>,
    /// Whether this state's batches may take a lane of
    /// [`FlexCoreDetector::walk_lane_group`], decided by `prepare` once the
    /// rest is in place: the selection is the SIC path alone (a-FlexCore
    /// on a well-conditioned channel, §5.1; rank 1 on every row, which the
    /// search's root path always is), there is a stream at all and `Q` (so
    /// `R` too, as QR needs rows ≥ streams) fits the kernel's
    /// [`GROUP_ROWS`]-row stack planes, and every row's `|R(row,row)|²` and
    /// reciprocal are finite. The last keeps each Eq. 1 increment off `NaN`
    /// for any effective point that is not itself `NaN` (a dead row has
    /// both zero), so the one path the general walk would complete on a
    /// lane is the one the kernel returns.
    groups: bool,
}

impl State {
    /// The empty state the first `prepare` fills in.
    fn new(constellation: Constellation) -> Self {
        State {
            tri: Triangular::new(Qr::default(), constellation),
            model: LevelErrorModel::default(),
            selection: Selection::default(),
            trie: PathTrie::default(),
            paths: OnceLock::new(),
            diag: Vec::new(),
            groups: false,
        }
    }

    /// `(Q rows, transmit streams)`: what the lane-group kernel's members
    /// must share.
    fn shape(&self) -> (usize, usize) {
        (self.tri.qr.q.rows(), self.tri.nt())
    }
}

/// Rows of the lane-group kernel's largest stack planes: a state groups
/// only when its `Q` has at most this many rows.
const GROUP_ROWS: usize = 8;

/// Symbols of one lane group the kernel walks interleaved: each row step
/// advances this many independent SIC chains.
const GROUP_SYMBOLS: usize = 4;

/// Reusable per-worker workspace for the sequential FlexCore hot path:
/// per-path result planes for one trie walk, sized on first use and
/// reused for every subsequent vector of a batch.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkScratch {
    /// Path metrics, `NaN` = deactivated.
    pub(crate) metrics: Vec<f64>,
    /// Completed tree-order decisions, `nt` per path in path order
    /// ([`WalkScratch::path`] reads one). Reused across vectors: a path's
    /// entries are only read when its metric is non-`NaN`, and both are
    /// rewritten together on every walk.
    syms: Vec<u16>,
    /// Streams per path of the last walk.
    nt: usize,
    /// The walk's branch state, `nt` tree-order decisions, reused across
    /// vectors.
    branch: Vec<u16>,
}

impl WalkScratch {
    /// Path `i`'s tree-order decisions from the last walk (meaningful
    /// only when `metrics[i]` is not `NaN`).
    pub(crate) fn path(&self, i: usize) -> &[u16] {
        &self.syms[i * self.nt..][..self.nt]
    }
}

/// Workspace of the four-observation block walk: per-node lane state (by
/// [`PathTrie`] node index) plus each lane's running winner. Sized on
/// first use and reused across blocks.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkBlockScratch {
    /// The four decided constellation points per node.
    points: Vec<CxLane>,
    /// Accumulated path metric per node and lane; `NaN` = the lane is
    /// deactivated at (or above) this node.
    metric: Vec<[f64; LANES]>,
    /// The four decided symbols per node.
    syms: Vec<[u16; LANES]>,
    /// Per lane: the best completed path so far and its metric
    /// ([`NIL`] = none yet).
    pub(crate) best_path: [u32; LANES],
    pub(crate) best_metric: [f64; LANES],
    /// Tree-order decisions of the lane last passed to
    /// [`FlexCoreDetector::block_winner`].
    pub(crate) winner: Vec<u16>,
}

/// Everything [`FlexCoreDetector::detect_batch_into`] works in: the block
/// walk's rotated observations and lane state. Sized by the first batch
/// of a shape and reused by every later one.
#[derive(Default)]
struct BatchScratch {
    /// One block's rotated observations, observation-major.
    ybars: Vec<Cx>,
    block: WalkBlockScratch,
}

thread_local! {
    /// The batch path's workspace, one per thread like the SQRD planes: a
    /// PE streams batch after batch through the same registers, and a
    /// band of prepared detectors shares them instead of owning a set
    /// each. A batch takes it out of the slot and puts it back, so a
    /// batch nested on the same thread starts from an empty one.
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// The FlexCore detector.
#[derive(Clone, Debug)]
pub struct FlexCoreDetector {
    constellation: Constellation,
    config: FlexCoreConfig,
    /// The predefined ordering (§3.2), read by the scan path: its orders
    /// are the modulation's build-time `static` table.
    lut: OrderingLut,
    /// Materialised `(centre, triangle, rank) → symbol` form of `lut` for
    /// the SIMD block walk (`None` under [`PathOrdering::Exact`]), resolved
    /// once in [`FlexCoreDetector::new`] — the config has no setter, so the
    /// semantics it was built for cannot change — through the process-wide
    /// `OrderingLut::shared_table` memo: every detector clone (one per
    /// subcarrier in a frame engine) points at the *same* table (36 KiB at
    /// 16-QAM), which depends only on the constellation and the ordering
    /// semantics — never on the channel. Its window is the predefined
    /// order's reach, so every located pick is one read of it.
    fast_lut: Option<Arc<LocatedOrderingTable>>,
    state: Option<State>,
}

impl FlexCoreDetector {
    /// Creates a FlexCore detector. The triangle LUT and its located table
    /// are resolved here (they depend only on the constellation and the
    /// ordering semantics, not the channel): the orders are `static`, and
    /// only the first detector of a modulation and semantics in a process
    /// builds the located table.
    ///
    /// # Panics
    /// Panics unless `config.n_pe ≥ 1`, `config.expand_batch ≥ 1` and any
    /// `config.stop_threshold` lies in `[0, 1]` — checked here, so a bad
    /// configuration never reaches `prepare`.
    pub fn new(constellation: Constellation, config: FlexCoreConfig) -> Self {
        assert!(config.n_pe >= 1, "FlexCore: need at least one PE");
        assert!(
            config.expand_batch >= 1,
            "FlexCore: expand_batch must be >= 1"
        );
        if let Some(t) = config.stop_threshold {
            assert!(
                (0.0..=1.0).contains(&t),
                "FlexCore: stop_threshold must be in [0, 1], got {t}"
            );
        }
        let lut = OrderingLut::new(constellation.modulation(), constellation.order());
        let fast_lut = match config.path_ordering {
            PathOrdering::Exact => None,
            PathOrdering::TriangleLut => Some(lut.shared_table(&constellation, false)),
            PathOrdering::TriangleLutStrict => Some(lut.shared_table(&constellation, true)),
        };
        FlexCoreDetector {
            constellation,
            config,
            lut,
            fast_lut,
            state: None,
        }
    }

    /// Convenience constructor with the default configuration.
    pub fn with_pes(constellation: Constellation, n_pe: usize) -> Self {
        Self::new(constellation, FlexCoreConfig::new(n_pe))
    }

    /// a-FlexCore (§5.1, Fig. 10): out of `n_pe` *available* processing
    /// elements, each channel activates only as many paths as it takes for
    /// their cumulative probability `Σ Pc` to reach `threshold` (the paper
    /// uses 0.95). A well-conditioned channel collapses to ~1 active path —
    /// [`FlexCoreDetector::active_paths`] reports the count per `prepare`.
    pub fn adaptive(constellation: Constellation, n_pe: usize, threshold: f64) -> Self {
        let mut config = FlexCoreConfig::new(n_pe);
        config.stop_threshold = Some(threshold);
        Self::new(constellation, config)
    }

    /// The configuration in use.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &FlexCoreConfig {
        &self.config
    }

    /// The prepared channel state. Every detection entry point funnels its
    /// prepare-before-detect contract check through here so the panic
    /// surface is a single audited site.
    #[track_caller]
    fn prepared(&self) -> &State {
        // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; sole audited panic site, documented on every public entry point")
        self.state.as_ref().expect("FlexCore: prepare() not called")
    }

    /// Number of *active* paths selected for the current channel (equals
    /// `n_pe` unless the stopping criterion fired earlier) — the quantity
    /// plotted as "active PEs" in Fig. 10.
    pub fn active_paths(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.selection.len())
    }

    /// `Σ Pc` captured by the active paths for the current channel, summed
    /// on demand over their `ln Pc`s in selection order — the bits the
    /// search's own running sum had at the cut.
    pub fn cumulative_prob(&self) -> f64 {
        self.state
            .as_ref()
            .map_or(0.0, |s| prob_sum(&s.selection.ln_probs))
    }

    /// Real multiplications spent by the last pre-processing run (Table 2).
    pub fn preprocess_mults(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.selection.real_mults)
    }

    /// The prepared triangular system (QR factors + constellation).
    ///
    /// # Panics
    /// Panics if `prepare` was never called.
    pub fn triangular(&self) -> &Triangular {
        &self.prepared().tri
    }

    /// The constellation this detector slices against.
    pub(crate) fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// The selected position vectors (most promising first), borrowed from
    /// the prepared state (empty before `prepare`). The state keeps the
    /// selection as links and a trie; the first call after a `prepare`
    /// builds the vectors from them.
    pub fn position_vectors(&self) -> &[PositionVector] {
        self.state.as_ref().map_or(&[], |s| {
            s.paths
                .get_or_init(|| s.selection.position_vectors(s.tri.nt()))
        })
    }

    /// Allocation-free path evaluation: streams the tree path selected by
    /// `p` for the rotated observation `ybar`, writing per-level symbol
    /// decisions into `scratch.symbols` (tree order). Returns the path
    /// metric, or `None` if the path was deactivated (the predefined order
    /// left the constellation) — `scratch.symbols` is unspecified then.
    ///
    /// This is the software processing element of §3.2: after `prepare`,
    /// one call touches no heap whatsoever.
    ///
    /// # Panics
    /// Panics if `prepare` was never called.
    pub fn run_path_into(
        &self,
        ybar: &[Cx],
        p: &PositionVector,
        scratch: &mut PathScratch,
    ) -> Option<f64> {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let state = self.prepared();
        let tri = &state.tri;
        let nt = tri.nt();
        let symbols = &mut scratch.symbols;
        symbols.clear();
        symbols.resize(nt, 0);
        let mut metric = 0.0f64;
        for row in (0..nt).rev() {
            let eff = tri.effective_point(ybar, symbols, row);
            let sym = self.pick_symbol(eff, p.rank(row) as usize)?;
            symbols[row] = sym as u16;
            let rdiag = tri.qr.r[(row, row)].norm_sqr();
            metric += rdiag * self.constellation.point(sym).dist_sqr(eff);
        }
        Some(metric)
    }

    /// The per-level symbol choice shared by every FlexCore evaluation
    /// path: the configured ordering's `k`-th symbol for effective point
    /// `eff`, with the rank-1 clamped-slicer fallback that keeps the SIC
    /// path alive for ultra-far effective points.
    #[inline]
    fn pick_symbol(&self, eff: Cx, k: usize) -> Option<usize> {
        let c = &self.constellation;
        let s = match self.config.path_ordering {
            PathOrdering::Exact => return kth_nearest_exact(c, eff, k),
            PathOrdering::TriangleLut => self.lut.kth_nearest_skip(c, eff, k),
            PathOrdering::TriangleLutStrict => self.lut.kth_nearest(c, eff, k),
        };
        if s.is_none() && k == 1 {
            // Ultra-far effective points can out-range even the skip
            // table; the clamped slicer keeps the SIC path alive.
            Some(c.slice(eff))
        } else {
            s
        }
    }

    /// Evaluates **all** prepared paths over one rotated observation via
    /// the prefix-sharing trie, filling `out.metrics[i]` / `out.path(i)`
    /// for path `i` (`NaN` = deactivated). Each distinct rank-prefix node
    /// costs one effective point + one LUT lookup, instead of once per
    /// path; values and accumulation order are unchanged, so
    /// every completed path's result is bit-identical to
    /// [`FlexCoreDetector::run_path_into`].
    pub(crate) fn walk_paths(&self, ybar: &[Cx], out: &mut WalkScratch) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let state = self.prepared();
        let (n, nt) = (state.trie.n_paths, state.tri.nt());
        out.metrics.clear();
        out.metrics.resize(n, f64::NAN);
        // No clear(): surviving entries are overwritten in place by the
        // walk. A path's entries are only read when its metric is
        // non-NaN, and the two planes are always written together, so
        // stale symbols are unreachable.
        out.nt = nt;
        out.syms.resize(n * nt, 0);
        // Detach the branch buffer to walk with, dodging the double
        // &mut borrow of `out`; its storage is preserved across vectors.
        let mut symbols = std::mem::take(&mut out.branch);
        symbols.clear();
        symbols.resize(nt, 0);
        self.walk_level(state, ybar, state.trie.first_root, &mut symbols, 0.0, out);
        out.branch = symbols;
    }

    /// Walks one sibling chain of the trie (all at the same row, sharing
    /// the branch state in `symbols` above that row). The effective point
    /// and `|R(row,row)|²` are computed once for the whole chain.
    fn walk_level(
        &self,
        state: &State,
        ybar: &[Cx],
        first: Id,
        symbols: &mut [u16],
        parent_metric: f64,
        out: &mut WalkScratch,
    ) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        if first == NONE {
            return;
        }
        let tri = &state.tri;
        let row = state.trie.node(first).row as usize;
        let eff = tri.effective_point(ybar, symbols, row);
        let rdiag = tri.qr.r[(row, row)].norm_sqr();
        let mut idx = first;
        while idx != NONE {
            let node = state.trie.node(idx);
            if let Some(sym) = self.pick_symbol(eff, node.rank as usize) {
                symbols[row] = sym as u16;
                let metric = parent_metric + rdiag * self.constellation.point(sym).dist_sqr(eff);
                if node.path_idx != NONE {
                    let (path, nt) = (node.path_idx as usize, symbols.len());
                    out.metrics[path] = metric;
                    out.syms[path * nt..][..nt].copy_from_slice(symbols);
                }
                let child = node.first_child(idx);
                self.walk_level(state, ybar, child, symbols, metric, out);
            }
            idx = node.next_sibling;
        }
    }

    /// Four-observation block form of [`FlexCoreDetector::walk_paths`]
    /// followed by its `first_min_metric` reduction: one pass over the
    /// trie's selection-ordered `chains` evaluates it for **four rotated
    /// observations** at once and leaves each lane's winning path in
    /// `out.best_path` / `out.best_metric`
    /// ([`FlexCoreDetector::block_winner`] reads its symbols back).
    /// `ybars` is the flat observation-major plane a blocked rotate
    /// produces (`ybars[lane * nt + row]`).
    ///
    /// Per chain: one four-wide effective point (Eq. 5, cancelling the
    /// ancestors' points in ascending row order like
    /// `Triangular::effective_point`, then the hoisted reciprocal) and one
    /// fused locate → table-base kernel; per node: one table read per lane
    /// and a four-wide metric update. Per lane, term values and
    /// accumulation order replay the scalar walk exactly, so every path the
    /// block walk completes carries the metric and symbols
    /// [`FlexCoreDetector::walk_paths`] gives it on that lane's
    /// observation.
    ///
    /// **Bounded:** before a chain runs, every lane whose parent metric is
    /// strictly greater than that lane's best completed metric so far is
    /// marked dead. Each Eq. 1 increment `|R(row,row)|²·dist` is ≥ 0 (and
    /// rounding is monotone), so a path's final metric is ≥ each of its
    /// partial metrics: a pruned path can neither win nor tie, and the
    /// winner is exactly the full walk's. The comparison is strict so an
    /// equal-metric path with a lower index still gets to tie and win.
    /// Selection order brings the SIC path's metric in after its first
    /// `nt` chains; at the benchmark's operating points (i.i.d. channels,
    /// FlexCore-16, four observations per channel) whole chains skipped
    /// 47 % of the nodes at 8×8, 45 % at 64×64 and 48 % at fixed 4×4, but
    /// 7 % of the ≈ 1.5-path tries adaptive 4×4 keeps. That last figure
    /// counts one-path tries, which seldom come here: at `cell_coded`'s
    /// operating point 72 % of the batches are one-path (539 884 of the
    /// first 750 000, seed 1), and the tick hands them to
    /// [`FlexCoreDetector::walk_lane_group`] four subcarriers to a block
    /// (69 quads of a tick's 384 batches); only a one-path batch that runs
    /// alone walks here.
    ///
    /// `active` is the partial-tail mask: a batch whose length is not a
    /// multiple of [`LANES`] pads its last block by repeating the final
    /// observation and walks it with only the real lanes active. A lane
    /// that is inactive — from the start, or from the node where its
    /// predefined order left the constellation — carries a `NaN` metric
    /// down its subtree: it still rides through the lane kernels (on valid
    /// points, so the results are finite garbage), but can never win, and a
    /// chain whose four lanes are all dead or pruned is skipped with its
    /// whole subtree. Lanes inactive from the start end with
    /// `best_path == NIL` — callers must not extract them.
    ///
    /// The winner is the streaming form of `first_min_metric`: strictly
    /// smaller metric, equal metrics broken by the lower path index, `NaN`
    /// never — independent of the order leaves are visited in.
    ///
    /// Out of line on purpose: inlined into `detect_batch_into` the loop
    /// shares its registers with the batch driver and spills more
    /// (measured: 5 % slower at 4×4 and 64×64).
    #[inline(never)]
    pub(crate) fn walk_paths_block(
        &self,
        ybars: &[Cx],
        active: [bool; LANES],
        out: &mut WalkBlockScratch,
    ) {
        // flexcore-lint: scalar-twin = walk_paths
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let state = self.prepared();
        let (trie, r) = (&state.trie, &state.tri.qr.r);
        let nt = state.tri.nt();
        assert_eq!(ybars.len(), LANES * nt, "walk_paths_block: plane length");
        let nodes = trie.nodes();
        let n = nodes.len();
        // Every node starts dead, so a skipped chain needs no marking.
        out.metric.clear();
        out.metric.resize(n, [f64::NAN; LANES]);
        // No clear(): a live node's points and symbols are written before
        // any chain below it (or the winner read-back) can reach them.
        out.points.resize(n, CxLane::zero());
        out.syms.resize(n, [0; LANES]);
        let (mut best_path, mut best_metric) = ([NIL; LANES], [f64::INFINITY; LANES]);
        // Rank lookups go through the materialised (centre, triangle,
        // rank) table — bit-identical to the scan path by construction.
        // `Exact` ordering has no LUT.
        let fast = self.fast_lut.as_deref();
        let cpoints = self.constellation.points();
        for chain in trie.chains() {
            let row = TrieNode::from(nodes[chain.first as usize]).row as usize;
            let above = trie.ancestors(chain, row, nt);
            let mut parent_metric = match above.first() {
                Some(&pa) => out.metric[pa as usize],
                None => active.map(|a| if a { 0.0 } else { f64::NAN }),
            };
            // The bound: a lane already beaten by a completed path is
            // dead from here down (`NaN > x` is false, so dead stays dead).
            for l in 0..LANES {
                if parent_metric[l] > best_metric[l] {
                    parent_metric[l] = f64::NAN;
                }
            }
            if parent_metric.iter().all(|m| m.is_nan()) {
                continue;
            }
            let mut acc = CxLane::from_fn(|l| ybars[l * nt + row]);
            for (&coef, &pa) in r.row(row)[row + 1..].iter().zip(above) {
                acc.sub_mul(CxLane::splat(coef), out.points[pa as usize]);
            }
            let (inv, rdiag) = state.diag[row];
            let eff = acc * CxLane::splat(inv);
            // One locate per lane per chain — every sibling shares it. A
            // centre beyond the table's window gets its shared empty row;
            // `NIL` = no table (`Exact`, or BPSK's windowless one): exact
            // scan per node.
            let mut bases = [NIL; LANES];
            if let Some(t) = fast {
                t.locate_bases(&self.lut, &self.constellation, &eff.re, &eff.im, &mut bases);
            }
            let live = parent_metric.map(|m| !m.is_nan());
            let mut next = chain.first;
            while next != NONE {
                let idx = next as usize;
                let node = TrieNode::from(nodes[idx]);
                next = node.next_sibling;
                let k = node.rank as usize;
                let (mut points, mut syms) = (CxLane::zero(), [0u16; LANES]);
                let mut metric = [f64::NAN; LANES];
                for l in 0..LANES {
                    let on_table = fast.filter(|_| bases[l] != NIL);
                    let picked = match on_table.and_then(|t| t.get(bases[l] as usize, k)) {
                        None if live[l] => self.pick_off_table(eff.get(l), k, on_table.is_none()),
                        s => s,
                    };
                    if let Some(s) = picked {
                        syms[l] = s as u16;
                        metric[l] = parent_metric[l];
                    }
                    points.re[l] = cpoints[syms[l] as usize].re;
                    points.im[l] = cpoints[syms[l] as usize].im;
                }
                // Four-wide Eq. 1 increment, then the scalar chain
                // `parent + rdiag·dist` per lane (`NaN` stays `NaN`).
                let dist = points.dist_sqr(eff);
                for l in 0..LANES {
                    metric[l] += rdiag * dist[l];
                }
                out.points[idx] = points;
                out.syms[idx] = syms;
                out.metric[idx] = metric;
                if node.path_idx != NONE {
                    let path = u32::from(node.path_idx);
                    for l in 0..LANES {
                        let (m, best) = (metric[l], best_metric[l]);
                        if (m < best) | ((m == best) & (path < best_path[l])) {
                            best_metric[l] = m;
                            best_path[l] = path;
                        }
                    }
                }
            }
        }
        out.best_path = best_path;
        out.best_metric = best_metric;
    }

    /// The block walk's per-lane pick when the table has no answer. With
    /// no table row (`scan`: `Exact`, or BPSK) that is the exact
    /// [`FlexCoreDetector::pick_symbol`]. On a table `None` — a
    /// deactivation, an exhausted skip row, or the empty row of a centre
    /// beyond the order's reach — it is `pick_symbol`'s rank-1
    /// clamped-slicer fallback, which is what `pick_symbol` returns after
    /// a scan that finds nothing.
    #[cold]
    #[inline(never)]
    fn pick_off_table(&self, eff: Cx, k: usize, scan: bool) -> Option<usize> {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        if scan {
            self.pick_symbol(eff, k)
        } else {
            (k == 1).then(|| self.constellation.slice(eff))
        }
    }

    /// [`FlexCoreDetector::walk_paths_block`] for one-path selections
    /// across subcarriers: one to four groupable detectors (`quad`,
    /// [`State::groups`], one shape and one located table) in the four
    /// lanes of each block, one lane per slot, and one block per symbol.
    /// With one path the winner is path 0 on every lane by construction,
    /// so the kernel walks the SIC chains top row first and keeps only
    /// what the next row reads: no metric, no bound, no winner. `ys` holds
    /// the members' batches back to back (`ys.len() / quad.len()` vectors
    /// each) and `out` their rows. A quad of fewer than four repeats its
    /// last member in the spare lanes, which nothing reads back.
    ///
    /// Each member's `Q`, the upper triangle of its `R` and its
    /// reciprocals go into stack lane planes once per call. Then, per
    /// [`GROUP_SYMBOLS`] symbols: each symbol's four observations are
    /// rotated, every lane adding `conj(Q[c, r])·y[c]` in ascending `c`
    /// from zero as `Qr::rotate_batch_into` does; and the chains are
    /// walked top row first, all the chunk's symbols each row step, which
    /// is what the lanes buy: a one-path chain is bound by its latency, and
    /// up to four independent ones hide each other's. Per row and lane the
    /// effective point (`ȳ` minus the ancestors' points in ascending row
    /// order, times the lane's `diag[row].0`) and the rank-1 pick (the
    /// located table's `get`, or the lane's own `pick_off_table`) are the
    /// block walk's, so each lane's symbols are its slot's scalar walk's
    /// bits; each lane is unpermuted through its own slot's `perm`.
    ///
    /// At rank 1 the fallback always answers, so no chain deactivates. A
    /// `NaN` effective point (a non-finite observation, or one huge enough
    /// to overflow the cancellation) or a pick with no answer returns
    /// `false`, and the caller detects the quad member by member, which
    /// ends as each member's own batch ends.
    ///
    /// Out of line so CI can disassemble it.
    #[inline(never)]
    fn walk_lane_group<const N: usize>(quad: &[&Self], ys: &[&[Cx]], out: &mut [u16]) -> bool {
        // flexcore-lint: scalar-twin = walk_paths
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let slot = |l: usize| quad[l.min(quad.len() - 1)];
        let states: [&State; LANES] = std::array::from_fn(|l| slot(l).prepared());
        let (nr, nt) = states[0].shape();
        assert!(
            nr <= N && (1..=LANES).contains(&quad.len()),
            "walk_lane_group: {} slots of {nr} rows",
            quad.len()
        );
        let n_sym = group_len(quad.len(), ys.len());
        assert_eq!(
            out.len(),
            ys.len() * nt,
            "walk_lane_group: output plane length"
        );
        let Some(t) = quad[0].fast_lut.as_deref() else {
            return false;
        };
        let (lut, constellation) = (&quad[0].lut, &quad[0].constellation);
        let cpoints = constellation.points();
        for y in ys {
            assert_eq!(y.len(), nr, "walk_lane_group: observation length");
        }
        // `q[c][row]`, `r[row][p]` (p > row) and `inv[row]`: lane `l` is
        // slot `l`'s.
        let mut q = [[CxLane::zero(); N]; N];
        let mut r = [[CxLane::zero(); N]; N];
        let mut inv = [CxLane::zero(); N];
        let set = |lane: &mut CxLane, l: usize, z: Cx| (lane.re[l], lane.im[l]) = (z.re, z.im);
        for (l, s) in states.iter().enumerate() {
            let qr = &s.tri.qr;
            for (c, q) in q[..nr].iter_mut().enumerate() {
                for (lane, &z) in q[..nt].iter_mut().zip(qr.q.row(c)) {
                    set(lane, l, z);
                }
            }
            for (row, r) in r[..nt].iter_mut().enumerate() {
                for (lane, &z) in r[row + 1..nt].iter_mut().zip(&qr.r.row(row)[row + 1..]) {
                    set(lane, l, z);
                }
            }
            for (lane, &(z, _)) in inv[..nt].iter_mut().zip(&s.diag) {
                set(lane, l, z);
            }
        }
        let vector = |l: usize, sym: usize| ys[l.min(quad.len() - 1) * n_sym + sym];
        for s0 in (0..n_sym).step_by(GROUP_SYMBOLS) {
            let m = GROUP_SYMBOLS.min(n_sym - s0);
            let mut ybars = [[CxLane::zero(); N]; GROUP_SYMBOLS];
            for (s, ybar) in ybars[..m].iter_mut().enumerate() {
                let mut tile = [CxLane::zero(); N];
                for (c, t) in tile[..nr].iter_mut().enumerate() {
                    *t = CxLane::from_fn(|l| vector(l, s0 + s)[c]);
                }
                for (row, acc) in ybar[..nt].iter_mut().enumerate() {
                    for (q, &y) in q[..nr].iter().zip(&tile[..nr]) {
                        acc.add_conj_mul(q[row], y);
                    }
                }
            }
            let mut points = [[CxLane::zero(); N]; GROUP_SYMBOLS];
            let mut syms = [[[0u16; LANES]; N]; GROUP_SYMBOLS];
            for row in (0..nt).rev() {
                for s in 0..m {
                    let mut acc = ybars[s][row];
                    for (&coef, &point) in r[row][row + 1..nt].iter().zip(&points[s][row + 1..nt]) {
                        acc.sub_mul(coef, point);
                    }
                    let eff = acc * inv[row];
                    let nan = (0..LANES).fold(false, |nan, l| {
                        nan | eff.re[l].is_nan() | eff.im[l].is_nan()
                    });
                    if nan {
                        return false;
                    }
                    let mut bases = [NIL; LANES];
                    t.locate_bases(lut, constellation, &eff.re, &eff.im, &mut bases);
                    for l in 0..LANES {
                        let on_table = Some(t).filter(|_| bases[l] != NIL);
                        let picked = match on_table.and_then(|t| t.get(bases[l] as usize, 1)) {
                            None => slot(l).pick_off_table(eff.get(l), 1, on_table.is_none()),
                            s => s,
                        };
                        let Some(sym) = picked else {
                            return false;
                        };
                        syms[s][row][l] = sym as u16;
                        points[s][row].re[l] = cpoints[sym].re;
                        points[s][row].im[l] = cpoints[sym].im;
                    }
                }
            }
            for (l, state) in states.iter().enumerate().take(quad.len()) {
                let rows = out[(l * n_sym + s0) * nt..].chunks_exact_mut(nt);
                for (row, syms) in rows.zip(&syms[..m]) {
                    for (&p, syms) in state.tri.qr.perm.iter().zip(syms) {
                        row[p] = syms[l];
                    }
                }
            }
        }
        true
    }

    /// The prepared state and located table of a detector whose batches
    /// may take a lane of [`FlexCoreDetector::walk_lane_group`]
    /// ([`State::groups`]; `Exact` ordering has no table and never
    /// groups).
    fn lane_state(&self) -> Option<(&State, &Arc<LocatedOrderingTable>)> {
        let state = self.state.as_ref().filter(|s| s.groups)?;
        Some((state, self.fast_lut.as_ref()?))
    }

    /// Materialises lane `lane`'s winning path of the last
    /// [`FlexCoreDetector::walk_paths_block`] into `out.winner` (tree
    /// order) — the only path of the block whose symbols are ever
    /// gathered.
    pub(crate) fn block_winner(&self, lane: usize, out: &mut WalkBlockScratch) {
        // flexcore-lint: hot-path
        let state = self.prepared();
        let nt = state.tri.nt();
        // On finite observations the rank-1 slicing fallback completes the
        // SIC path on every active lane, with a finite metric even past a
        // zero pivot. A `NaN` sample completes none and panics here
        // (`a_nan_sample_ends_a_lane_group_as_its_slots_batch_ends`).
        assert!(out.best_path[lane] != NIL, "the SIC path always completes");
        let lineage = &state.trie.lineage()[out.best_path[lane] as usize * nt..][..nt];
        out.winner.clear();
        out.winner
            .extend(lineage.iter().map(|&node| out.syms[node as usize][lane]));
    }

    /// Evaluates all paths over one rotated observation (trie walk) and
    /// writes the minimum-metric decision into `row`, in original stream
    /// order — the shared allocation-free core of `detect` and the scalar
    /// `detect_batch_into`.
    fn detect_prepared(&self, ybar: &[Cx], walk: &mut WalkScratch, row: &mut [u16]) {
        let state = self.prepared();
        self.walk_paths(ybar, walk);
        let (i, _) =
            // flexcore-lint: allow(FL004, reason = "on finite observations the rank-1 slicing fallback completes the SIC path and pivot_inv keeps a zero pivot's effective point finite, so the walk yields a finite metric; a NaN sample panics here as the batch path does, pinned by a_nan_sample_ends_a_lane_group_as_its_slots_batch_ends")
            first_min_metric(walk.metrics.iter().copied()).expect("the SIC path always completes");
        state.tri.unpermute_into(walk.path(i), row);
    }
}

impl Detector for FlexCoreDetector {
    fn name(&self) -> String {
        match self.config.stop_threshold {
            Some(t) => format!("a-FlexCore(N_PE={}, t={t})", self.config.n_pe),
            None => format!("FlexCore(N_PE={})", self.config.n_pe),
        }
    }

    /// Overwrites the prepared state in place: after one `prepare`, the
    /// next one on a channel of the same shape performs no heap
    /// allocation (for [`QrOrdering::Sqrd`], at any width and budget), and
    /// leaves exactly the state a fresh clone of this detector would reach
    /// on that channel.
    ///
    /// # Panics
    /// Panics if `min(N_PE, |Q|^nt) · nt` reaches 65 535, the path trie's
    /// node-id range.
    fn prepare(&mut self, h: &CMat, sigma2: f64) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let state = self
            .state
            // flexcore-lint: allow(FL001, reason = "first prepare only, and allocation-free: a constellation clone copies a reference to its modulation's shared tables")
            .get_or_insert_with(|| State::new(self.constellation.clone()));
        let qr = &mut state.tri.qr;
        match self.config.qr_ordering {
            QrOrdering::Sqrd => sorted_qr_sqrd_into(h, qr),
            QrOrdering::Fcsd(l) => *qr = fcsd_sorted_qr(h, l),
            QrOrdering::Plain => *qr = mgs_qr(h),
        }
        state
            .model
            .refit_from_r(&qr.r, sigma2, self.constellation.modulation());
        // The search selects at most the |Q|^nt vectors there are, so the
        // search and the trie are sized for no more.
        let nt = state.tri.nt();
        let n_pe = self.config.n_pe;
        let budget = u32::try_from(nt)
            .ok()
            .and_then(|nt| self.constellation.order().checked_pow(nt))
            .map_or(n_pe, |all| all.min(n_pe));
        let pre = Preprocessor {
            stop_threshold: self.config.stop_threshold,
            expand_batch: self.config.expand_batch,
            ..Preprocessor::new(budget)
        };
        pre.run_into(
            &state.model,
            self.constellation.order(),
            &mut state.selection,
        );
        // Every selected path is active: the trie spans the whole selection.
        state.trie.build(&state.selection.links, nt, budget);
        state.paths.take();
        let tri = &state.tri;
        state.diag.clear();
        state
            .diag
            .extend((0..tri.nt()).map(|row| (tri.pivot_inv(row), tri.qr.r[(row, row)].norm_sqr())));
        let finite = |z: Cx| z.re.is_finite() && z.im.is_finite();
        let rank_one = |&node: &Id| state.trie.node(node).rank == 1;
        state.groups = state.selection.len() == 1
            && state.trie.lineage()[..tri.nt()].iter().all(rank_one)
            && tri.nt() > 0
            && tri.qr.q.rows() <= GROUP_ROWS
            && state
                .diag
                .iter()
                .all(|&(inv, rdiag)| finite(inv) && rdiag.is_finite());
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        let state = self.prepared();
        let ybar = state.tri.rotate(y);
        let mut row = vec![0u16; state.tri.nt()];
        self.detect_prepared(&ybar, &mut WalkScratch::default(), &mut row);
        row.into_iter().map(usize::from).collect()
    }

    fn n_streams(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.tri.nt())
    }

    /// Scratch-based batch override — the SoA streaming path a
    /// frame-engine PE drives: observations go through in blocks of four
    /// (one blocked `rotate_batch_into` + one four-wide trie walk per
    /// block); a batch tail shorter than a block is padded by repeating
    /// its last observation and walked as a masked partial block, so no
    /// observation ever falls back to the scalar per-vector loop. Every
    /// plane of the walk lives in this thread's `BatchScratch`, so once
    /// the thread has seen the shape a batch touches no heap. One-path
    /// selections (most of a-FlexCore's at `cell_coded`'s operating point)
    /// detect four subcarriers to a block through
    /// [`Detector::detect_group_into`]; one that runs alone walks here like
    /// any other. Results stay bit-identical to per-vector
    /// [`Detector::detect`], the scalar walk.
    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        // flexcore-lint: hot-path
        let state = self.prepared();
        let nt = state.tri.nt();
        let mut rows = batch_rows(out, ys.len(), nt);
        let mut scratch = BATCH_SCRATCH.take();
        let BatchScratch { ybars, block } = &mut scratch;
        ybars.resize(LANES * nt, Cx::ZERO);
        for chunk in ys.chunks(LANES) {
            // Masked partial tail: pad to a full block by repeating the
            // last real observation (valid data, so every lane kernel
            // sees finite inputs), walk with only the real lanes active,
            // and extract those lanes only.
            let padded: [&[Cx]; LANES] = std::array::from_fn(|l| chunk[l.min(chunk.len() - 1)]);
            state.tri.qr.rotate_batch_into(&padded, ybars);
            self.walk_paths_block(ybars, std::array::from_fn(|l| l < chunk.len()), block);
            for (l, row) in (0..chunk.len()).zip(&mut rows) {
                self.block_winner(l, block);
                state.tri.unpermute_into(&block.winner, row);
            }
        }
        BATCH_SCRATCH.set(scratch);
    }

    /// Both prepared selections are the SIC path alone with a `Q` of at
    /// most 8 rows, of one shape, and both detectors read the same located
    /// table (so one constellation and one ordering semantics; `Exact` has
    /// none and never groups).
    fn groups_with(&self, other: &Self) -> bool {
        match (self.lane_state(), other.lane_state()) {
            (Some((a, x)), Some((b, y))) => a.shape() == b.shape() && Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// Quads of one-path subcarriers through the lane-group kernel
    /// (`walk_lane_group`), one slot per lane, so four SIC chains share
    /// each block; a quad of one, a group with a member that does not
    /// group with the first, and a quad the kernel declines go member by
    /// member ([`detect_each_into`]), each through the general block walk.
    fn detect_group_into(group: &[&Self], ys: &[&[Cx]], out: &mut [u16]) {
        // flexcore-lint: hot-path
        let per = group_len(group.len(), ys.len());
        let lead = group.first().and_then(|d| d.lane_state());
        let Some((nr, nt)) = lead
            .map(|(s, _)| s.shape())
            .filter(|_| group[1..].iter().all(|m| group[0].groups_with(m)))
        else {
            return detect_each_into(group, ys, out);
        };
        assert_eq!(
            out.len(),
            ys.len() * nt,
            "detect_group_into: output plane length"
        );
        let quads = group.chunks(LANES).zip(ys.chunks(LANES * per.max(1)));
        for ((quad, ys), out) in quads.zip(out.chunks_mut(LANES * per.max(1) * nt)) {
            let done = quad.len() > 1
                && match nr {
                    0..=4 => Self::walk_lane_group::<4>(quad, ys, out),
                    _ => Self::walk_lane_group::<GROUP_ROWS>(quad, ys, out),
                };
            if !done {
                detect_each_into(quad, ys, out);
            }
        }
    }

    /// Per-vector cost = tree paths evaluated, i.e. the PEs the prepared
    /// channel activates (< `n_pe` only under a stopping threshold).
    fn effort(&self) -> usize {
        self.active_paths().max(1)
    }

    /// Per-vector *work* = the `nt²` rotate front-end (`ȳ = Qᴴy`, paid
    /// once per received vector regardless of how many paths survive)
    /// plus the prepared trie's static walk cost: one effective point per
    /// distinct rank-prefix chain plus slice/metric per node. Two
    /// channels with identical path counts can differ severalfold in the
    /// walk term, depending on how much tree the position vectors share —
    /// and at massive-MIMO widths the rotate term dominates a trimmed
    /// a-FlexCore trie, so omitting it would make the fabric scheduler
    /// predict severalfold cost spreads the hardware never exhibits.
    fn extension_work(&self) -> usize {
        self.state
            .as_ref()
            .map_or(1, |s| (s.tri.nt().pow(2) + s.trie.work).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_detect::{FcsdDetector, MlDetector, SicDetector};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A FlexCore-8 16-QAM configuration with one knob changed, built
    /// into a detector: a bad knob must panic here, at construction, not
    /// in the first `prepare`.
    fn build_with(edit: impl FnOnce(&mut FlexCoreConfig)) -> FlexCoreDetector {
        let mut config = FlexCoreConfig::new(8);
        edit(&mut config);
        FlexCoreDetector::new(Constellation::new(Modulation::Qam16), config)
    }

    #[test]
    #[should_panic(expected = "expand_batch must be >= 1")]
    fn zero_expand_batch_is_rejected_at_construction() {
        build_with(|c| c.expand_batch = 0);
    }

    #[test]
    #[should_panic(expected = "stop_threshold must be in [0, 1]")]
    fn threshold_above_one_is_rejected_at_construction() {
        build_with(|c| c.stop_threshold = Some(1.5));
    }

    #[test]
    #[should_panic(expected = "stop_threshold must be in [0, 1]")]
    fn negative_threshold_is_rejected_at_construction() {
        FlexCoreDetector::adaptive(Constellation::new(Modulation::Qam16), 8, -0.1);
    }

    #[test]
    #[should_panic(expected = "stop_threshold must be in [0, 1]")]
    fn nan_threshold_is_rejected_at_construction() {
        build_with(|c| c.stop_threshold = Some(f64::NAN));
    }

    #[test]
    fn threshold_bounds_are_legal() {
        // Both ends of [0, 1] build and prepare.
        let h = ChannelEnsemble::iid(4, 4).draw(&mut StdRng::seed_from_u64(7));
        for t in [0.0, 1.0] {
            let mut det = build_with(|c| c.stop_threshold = Some(t));
            det.prepare(&h, sigma2_from_snr_db(12.0));
            assert!(det.active_paths() >= 1);
        }
    }

    /// The constellation's level→amplitude scale: the point nearest the
    /// origin sits one grid unit out on each axis.
    fn unit_level(c: &Constellation) -> f64 {
        c.point(c.slice(Cx::ZERO)).re.abs()
    }

    fn ser(det: &mut dyn Detector, snr: f64, nt: usize, trials: usize, seed: u64) -> f64 {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(nt, nt);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut e, mut t) = (0usize, 0usize);
        for _ in 0..trials {
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            det.prepare(&h, sigma2_from_snr_db(snr));
            let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..16)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            e += det
                .detect(&y)
                .iter()
                .zip(&s)
                .filter(|(a, b)| a != b)
                .count();
            t += nt;
        }
        e as f64 / t as f64
    }

    /// The link-built `trie` against the path-scan reference over `paths`:
    /// node ids with their rows, ranks, leaves, first children and next
    /// siblings (so sibling order), the root, the chain program in order,
    /// `lineage`, and the counted work against the node walk.
    fn assert_trie_is_the_reference(
        trie: &PathTrie,
        paths: &[PositionVector],
        nt: usize,
        what: &str,
    ) {
        let mut reference = PathTrie::default();
        reference.rebuild(paths, nt, paths.len());
        assert_eq!(trie.nodes(), reference.nodes(), "{what}: nodes");
        assert_eq!(trie.first_root, reference.first_root, "{what}: root");
        let chains = |t: &PathTrie| t.chains().collect::<Vec<_>>();
        assert_eq!(chains(trie), chains(&reference), "{what}: chains");
        let lineage = |t: &PathTrie| t.lineage()[..paths.len() * nt].to_vec();
        assert_eq!(lineage(trie), lineage(&reference), "{what}: lineage");
        assert_eq!(trie.work, reference.static_work(nt), "{what}: counted work");
    }

    /// `draws` random selections, each built from its links into one
    /// reused trie and compared with the reference; half of the searches
    /// are thresholded, so some stop before their budget. The level models
    /// mix distinct levels, exactly tied ones and ones clamped at
    /// `PE_CEIL` (tied too); widths run 1–20 and 64, past the inline
    /// `PositionVector`; BPSK and QPSK orders cap ranks.
    fn sweep_link_built_tries(seed: u64, draws: usize) {
        use crate::model::PE_CEIL;
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut out, mut trie) = (Selection::default(), PathTrie::default());
        let (mut capped, mut tied_at_ceiling, mut cut) = (0, 0, 0);
        for draw in 0..draws {
            let nt = match rng.gen_range(0..21) {
                20 => 64,
                w => w + 1,
            };
            let pe: Vec<f64> = (0..nt)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.2,
                    1 => rng.gen_range(PE_CEIL..0.9),
                    _ => rng.gen_range(1e-4..PE_CEIL),
                })
                .collect();
            tied_at_ceiling += usize::from(pe.iter().filter(|&&p| p >= PE_CEIL).count() > 1);
            let model = LevelErrorModel::from_pe(pe);
            let order = [2usize, 4, 16][rng.gen_range(0..3usize)];
            let n_pe = rng.gen_range(1..=48);
            let mut pre = Preprocessor {
                expand_batch: [1, 4][rng.gen_range(0..2usize)],
                ..Preprocessor::new(n_pe)
            };
            if rng.gen_bool(0.5) {
                pre.stop_threshold = Some([0.95, 0.6][rng.gen_range(0..2usize)]);
            }
            pre.run_into(&model, order, &mut out);
            let what = format!("draw {draw}: nt {nt} order {order} {pre:?}");
            let paths = out.position_vectors(nt);
            let short = paths.len() < n_pe;
            capped += usize::from(short && pre.stop_threshold.is_none());
            cut +=
                usize::from(short && pre.stop_threshold.is_some_and(|t| out.cumulative_prob >= t));
            trie.build(&out.links, nt, n_pe);
            assert_trie_is_the_reference(&trie, &paths, nt, &what);
        }
        assert!(capped > 0, "no constellation order ever capped a selection");
        assert!(
            tied_at_ceiling > 0,
            "no model tied two levels at the ceiling"
        );
        assert!(cut > 0, "no thresholded search stopped before its budget");
    }

    #[test]
    fn link_built_trie_equals_the_path_scan_reference() {
        sweep_link_built_tries(0x7121, 2_000);
    }

    #[test]
    #[ignore = "200 000 random selections; run in release with --ignored"]
    fn link_built_trie_equals_the_path_scan_reference_sweep() {
        sweep_link_built_tries(0x7122, 200_000);
    }

    #[test]
    fn prepared_tries_and_their_work_are_the_references() {
        // The detectors the engine tests prepare — fixed FlexCore of 4 to
        // 64 PEs, a-FlexCore at 0.95, QPSK to 64-QAM, square and tall
        // channels up to 64×64, a batched search: the prepared trie is the
        // path-scan reference's, and `extension_work` is the rotate's
        // `nt²` plus the node walk's price of it.
        let mut rng = StdRng::seed_from_u64(0x7123);
        let shapes = [(4usize, 4usize), (8, 8), (12, 12), (8, 4), (64, 64)];
        for (nr, nt) in shapes {
            for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
                for (n_pe, threshold, batch) in [
                    (4, None, 1),
                    (8, None, 1),
                    (16, None, 1),
                    (64, None, 4),
                    (16, Some(0.95), 1),
                    (64, Some(0.95), 1),
                ] {
                    let mut cfg = FlexCoreConfig::new(n_pe);
                    (cfg.stop_threshold, cfg.expand_batch) = (threshold, batch);
                    let mut det = FlexCoreDetector::new(Constellation::new(m), cfg);
                    let h = ChannelEnsemble::iid(nr, nt).draw(&mut rng);
                    det.prepare(&h, sigma2_from_snr_db(rng.gen_range(6.0..24.0)));
                    let what = format!("{nr}x{nt} {m:?} {:?}", det.config);
                    let state = det.state.as_ref().expect("prepared");
                    let paths = det.position_vectors();
                    assert_trie_is_the_reference(&state.trie, paths, nt, &what);
                    let walked = state.trie.static_work(nt);
                    assert_eq!(det.extension_work(), nt * nt + walked, "{what}");
                }
            }
        }
    }

    #[test]
    fn cumulative_prob_has_the_running_sum_bits() {
        // Summed on demand over the selected `ln Pc`s, `cumulative_prob`
        // carries the bits of the running sum a thresholded search stops
        // on, at every configured threshold.
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(0x7124);
        let mut checked = 0;
        for (n, snr) in [(4usize, 8.0), (4, 14.0), (8, 10.0), (12, 18.0)] {
            for _ in 0..4 {
                let h = ChannelEnsemble::iid(n, n).draw(&mut rng);
                for t in [0.99, 0.9, 0.6, 0.3, 0.95] {
                    let mut det = FlexCoreDetector::adaptive(c.clone(), 32, t);
                    det.prepare(&h, sigma2_from_snr_db(snr));
                    let model = &det.state.as_ref().expect("prepared").model;
                    let pre = Preprocessor {
                        stop_threshold: Some(t),
                        ..Preprocessor::new(32)
                    };
                    let search = pre.run(model, 16);
                    assert_eq!(det.active_paths(), search.paths.len(), "{n}x{n} t={t}");
                    assert_eq!(
                        det.cumulative_prob().to_bits(),
                        search.cumulative_prob.to_bits(),
                        "{n}x{n} {snr} dB t={t}"
                    );
                    checked += usize::from(search.paths.len() > 1);
                }
            }
        }
        assert!(checked > 0, "every selection was a single path");
    }

    /// Mean active paths of the paper's a-FlexCore (64 available PEs,
    /// target 0.95) over 160 channel draws — the line Fig. 10 plots.
    fn mean_active(nr: usize, nt: usize, snr: f64, seed: u64) -> f64 {
        let mut afc = FlexCoreDetector::adaptive(Constellation::new(Modulation::Qam64), 64, 0.95);
        let ens = ChannelEnsemble::iid(nr, nt);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sum = 0usize;
        for _ in 0..160 {
            afc.prepare(&ens.draw(&mut rng), sigma2_from_snr_db(snr));
            sum += afc.active_paths();
        }
        sum as f64 / 160.0
    }

    #[test]
    fn adaptive_well_conditioned_channel_collapses_to_few_pes() {
        // Fig. 10: with 6 users on 12 antennas at 21.6 dB, a-FlexCore
        // activates close to one PE.
        let light = mean_active(12, 6, 21.6, 1);
        assert!(light < 6.0, "6-user mean active PEs {light}");
    }

    #[test]
    fn adaptive_crowded_channel_uses_more_pes() {
        // The magnitude depends on the operating SNR; at a noisier point
        // the 12-user effect is pronounced (Fig. 10 plots the calibrated
        // PER_ML = 0.01 point, reproduced in flexcore-sim::fig10).
        let light = mean_active(12, 6, 18.0, 2);
        let full = mean_active(12, 12, 18.0, 2);
        assert!(
            full > 2.0 * light.max(1.0),
            "12-user ({full}) should need several times the 6-user PEs ({light})"
        );
    }

    #[test]
    fn adaptive_higher_snr_means_fewer_active_pes() {
        let noisy = mean_active(12, 12, 15.0, 4);
        let clean = mean_active(12, 12, 30.0, 4);
        assert!(clean < noisy, "30 dB ({clean}) vs 15 dB ({noisy})");
    }

    #[test]
    fn adaptive_activation_is_bounded_by_budget_and_is_the_effort() {
        let c = Constellation::new(Modulation::Qam64);
        let mut afc = FlexCoreDetector::adaptive(c, 16, 0.9999);
        assert_eq!(afc.name(), "a-FlexCore(N_PE=16, t=0.9999)");
        assert_eq!(afc.effort(), 1, "unprepared effort defaults to 1");
        let mut rng = StdRng::seed_from_u64(3);
        let h = ChannelEnsemble::iid(12, 12).draw(&mut rng);
        afc.prepare(&h, sigma2_from_snr_db(10.0)); // very noisy: wants many
        assert!((1..=16).contains(&afc.active_paths()));
        assert_eq!(afc.effort(), afc.active_paths());
    }

    #[test]
    fn adaptive_detection_still_works() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(6);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let mut afc = FlexCoreDetector::adaptive(c.clone(), 32, 0.95);
        afc.prepare(&h, 1e-6);
        let s = vec![3usize, 7, 11, 0];
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(afc.detect(&h.mul_vec(&x)), s);
    }

    #[test]
    fn single_pe_equals_sic_shape() {
        // N_PE = 1 is the SIC path; noiseless recovery must be exact.
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 1);
        fc.prepare(&h, 0.01);
        assert_eq!(fc.active_paths(), 1);
        let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(fc.detect(&h.mul_vec(&x)), s);
    }

    #[test]
    fn works_for_any_pe_count() {
        // The paper's headline flexibility claim: any N_PE works, not just
        // powers of |Q|.
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(2);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let ch = MimoChannel::new(h.clone(), 14.0);
        let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let y = ch.transmit(&x, &mut rng);
        for n_pe in [1usize, 2, 3, 5, 7, 13, 100] {
            let mut fc = FlexCoreDetector::with_pes(c.clone(), n_pe);
            fc.prepare(&h, sigma2_from_snr_db(14.0));
            let out = fc.detect(&y);
            assert_eq!(out.len(), 4, "N_PE={n_pe}");
        }
    }

    #[test]
    fn more_pes_never_hurt_much_and_eventually_help() {
        let c = Constellation::new(Modulation::Qam16);
        let mut fc1 = FlexCoreDetector::with_pes(c.clone(), 1);
        let mut fc32 = FlexCoreDetector::with_pes(c.clone(), 32);
        let s1 = ser(&mut fc1, 12.0, 6, 300, 3);
        let s32 = ser(&mut fc32, 12.0, 6, 300, 3);
        assert!(s32 < s1, "N_PE=32 SER {s32} should beat N_PE=1 SER {s1}");
    }

    #[test]
    fn close_to_ml_with_enough_pes_small_system() {
        let c = Constellation::new(Modulation::Qpsk);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 16);
        let mut ml = MlDetector::new(c.clone());
        let ens = ChannelEnsemble::iid(3, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let (mut agree, mut total) = (0, 0);
        for _ in 0..200 {
            let h = ens.draw(&mut rng);
            let snr = 10.0;
            let ch = MimoChannel::new(h.clone(), snr);
            fc.prepare(&h, sigma2_from_snr_db(snr));
            ml.prepare(&h, sigma2_from_snr_db(snr));
            let s: Vec<usize> = (0..3).map(|_| rng.gen_range(0..4)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            if fc.detect(&y) == ml.detect(&y) {
                agree += 1;
            }
            total += 1;
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.95, "ML agreement {rate}");
    }

    #[test]
    fn competitive_with_fcsd_at_equal_path_count() {
        // At the same path count FlexCore is at worst marginally behind the
        // FCSD (whose worst-first ordering is tailor-made for exactly
        // |Q|^L paths); Fig. 9's gains appear when comparing *any* path
        // budget, below.
        let c = Constellation::new(Modulation::Qam16);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 16);
        let mut fcsd = FcsdDetector::new(c.clone(), 1); // 16 paths
        let s_fc = ser(&mut fc, 12.0, 8, 400, 5);
        let s_fcsd = ser(&mut fcsd, 12.0, 8, 400, 5);
        assert!(
            s_fc < s_fcsd * 2.0 + 0.005,
            "FlexCore-16 SER {s_fc} should be close to FCSD-16 SER {s_fcsd}"
        );
    }

    #[test]
    fn matches_fcsd_with_a_fraction_of_the_paths() {
        // Fig. 9's headline: FlexCore reaches FCSD-grade reliability with
        // far fewer processing elements (the paper reports 128 vs 4096 at
        // 12×12 64-QAM; here 64 vs 256 at a test-sized 8×8 16-QAM).
        let c = Constellation::new(Modulation::Qam16);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 64);
        let mut fcsd = FcsdDetector::new(c.clone(), 2); // 256 paths
        let s_fc = ser(&mut fc, 12.0, 8, 1600, 5);
        let s_fcsd = ser(&mut fcsd, 12.0, 8, 1600, 5);
        // At 1600 trials the estimates are tight: FlexCore-64 lands a small
        // constant factor behind FCSD-256 in SER (≈3×e-3 vs ≈1.6e-3) while
        // spending 1/4 of the paths — the Fig. 9 regime. The earlier 1.3×
        // margin only held at 400 trials by sampling luck.
        assert!(
            s_fc <= s_fcsd * 3.5 + 0.002,
            "FlexCore-64 SER {s_fc} should be in FCSD-256's regime ({s_fcsd})"
        );
    }

    #[test]
    fn beats_sic_with_few_pes() {
        // Against a same-front-end SIC (FCSD with L=0 is a ZF-ordered SIC
        // descent), even 4 FlexCore paths must help: the path set is a
        // strict superset of the SIC path, selected by likelihood.
        let c = Constellation::new(Modulation::Qam16);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 4);
        let mut sic_zf = FcsdDetector::new(c.clone(), 0);
        let s_fc = ser(&mut fc, 12.0, 6, 300, 6);
        let s_sic = ser(&mut sic_zf, 12.0, 6, 300, 6);
        assert!(s_fc < s_sic, "FlexCore-4 {s_fc} vs ZF-SIC {s_sic}");
        // And it should at least be competitive with the MMSE-ordered SIC.
        let mut sic = SicDetector::new(c.clone());
        let s_mmse_sic = ser(&mut sic, 12.0, 6, 300, 6);
        assert!(
            s_fc < s_mmse_sic * 1.5 + 0.01,
            "FlexCore-4 {s_fc} vs MMSE-SIC {s_mmse_sic}"
        );
    }

    #[test]
    fn exact_and_lut_ordering_agree_mostly() {
        let c = Constellation::new(Modulation::Qam16);
        let mk = |ord| {
            let mut cfg = FlexCoreConfig::new(16);
            cfg.path_ordering = ord;
            FlexCoreDetector::new(c.clone(), cfg)
        };
        let mut lut = mk(PathOrdering::TriangleLut);
        let mut exact = mk(PathOrdering::Exact);
        let s_lut = ser(&mut lut, 12.0, 6, 300, 7);
        let s_exact = ser(&mut exact, 12.0, 6, 300, 7);
        // The LUT approximation must cost only a small SER penalty.
        assert!(
            s_lut < s_exact * 1.5 + 0.01,
            "LUT {s_lut} vs exact {s_exact}"
        );
    }

    #[test]
    fn trie_walk_matches_per_path_evaluation_under_strict_deactivation() {
        // TriangleLutStrict at low SNR maximises deactivated paths: the
        // prefix-sharing trie walk behind detect() must deactivate exactly
        // the subtrees the independent per-path evaluation deactivates.
        use flexcore_detect::common::PathScratch;
        let c = Constellation::new(Modulation::Qam16);
        let mut cfg = FlexCoreConfig::new(24);
        cfg.path_ordering = PathOrdering::TriangleLutStrict;
        let mut rng = StdRng::seed_from_u64(33);
        for trial in 0..20 {
            let h = ChannelEnsemble::iid(5, 5).draw(&mut rng);
            let mut fc = FlexCoreDetector::new(c.clone(), cfg.clone());
            fc.prepare(&h, sigma2_from_snr_db(6.0));
            let ch = MimoChannel::new(h, 6.0);
            let s: Vec<usize> = (0..5).map(|_| rng.gen_range(0..16)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            // Reference: independent per-path scratch evaluations reduced
            // in path order with first-min tie-breaking.
            let ybar = fc.triangular().rotate(&y);
            let mut scratch = PathScratch::default();
            let mut best: Option<(Vec<u16>, f64)> = None;
            for p in fc.position_vectors() {
                if let Some(m) = fc.run_path_into(&ybar, p, &mut scratch) {
                    if best.as_ref().is_none_or(|(_, bm)| m < *bm) {
                        best = Some((scratch.symbols.clone(), m));
                    }
                }
            }
            let (best, _) = best.expect("SIC always completes");
            let reference = fc.triangular().unpermute(&best);
            assert_eq!(fc.detect(&y), reference, "trial {trial}");
        }
    }

    /// The block walk's answer on `lane` against the scalar walk +
    /// `first_min_metric` on that lane's observation: same winning path,
    /// same metric bits, same symbols.
    fn assert_lane_matches_scalar(
        fc: &FlexCoreDetector,
        ybar: &[Cx],
        lane: usize,
        block: &mut WalkBlockScratch,
        what: &str,
    ) -> usize {
        let mut walk = WalkScratch::default();
        fc.walk_paths(ybar, &mut walk);
        let (i, m) = first_min_metric(walk.metrics.iter().copied()).expect("SIC completes");
        assert_eq!(block.best_path[lane] as usize, i, "{what}: winning path");
        assert_eq!(block.best_metric[lane].to_bits(), m.to_bits(), "{what}");
        fc.block_winner(lane, block);
        assert_eq!(block.winner, walk.path(i), "{what}: symbols");
        walk.metrics.iter().filter(|m| m.is_nan()).count()
    }

    #[test]
    fn block_walk_winner_matches_scalar_walk_under_every_lane_mask() {
        // Widths on both sides of the lane boundaries and of 16 streams, × every
        // ordering × all 16 initial lane masks, on observations noisy
        // enough that strict ordering deactivates lanes mid-tree — with a
        // single live lane that kills whole chains.
        use flexcore_numeric::rng::CxRng;
        let mut deactivated = 0;
        for nt in [1usize, 4, 8, 17, 64] {
            for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
                for ordering in [
                    PathOrdering::TriangleLut,
                    PathOrdering::TriangleLutStrict,
                    PathOrdering::Exact,
                ] {
                    let what = format!("nt={nt} {m:?} {ordering:?}");
                    let mut rng = StdRng::seed_from_u64(nt as u64 * 31 + m.order() as u64);
                    let mut cfg = FlexCoreConfig::new(12);
                    cfg.path_ordering = ordering;
                    let mut fc = FlexCoreDetector::new(Constellation::new(m), cfg);
                    fc.prepare(
                        &ChannelEnsemble::iid(nt, nt).draw(&mut rng),
                        sigma2_from_snr_db(8.0),
                    );
                    // Lane 0 near the constellation, the others further out.
                    let ybars: Vec<Cx> = (0..LANES * nt)
                        .map(|i| rng.cx_normal(0.5 + (i / nt) as f64))
                        .collect();
                    let mut block = WalkBlockScratch::default();
                    for mask in 0..1u32 << LANES {
                        let active: [bool; LANES] = std::array::from_fn(|l| mask >> l & 1 == 1);
                        fc.walk_paths_block(&ybars, active, &mut block);
                        for l in 0..LANES {
                            if active[l] {
                                let ybar = &ybars[l * nt..(l + 1) * nt];
                                let dead = assert_lane_matches_scalar(
                                    &fc,
                                    ybar,
                                    l,
                                    &mut block,
                                    &format!("{what} mask {mask:04b} lane {l}"),
                                );
                                if ordering == PathOrdering::TriangleLutStrict {
                                    deactivated += dead;
                                }
                            } else {
                                assert_eq!(block.best_path[l], NIL, "{what}: masked lane won");
                            }
                        }
                    }
                }
            }
        }
        assert!(deactivated > 0, "the sweep never deactivated a path");
    }

    #[test]
    fn one_path_batches_walk_the_general_walk_bit_identically() {
        // One-path selections — FlexCore-1, and a-FlexCore-16 channels
        // whose search stops at the root — at nt 1, 4, 8 (both lane-group
        // plane sizes), 16 and 17 (too tall to group, and past the inline
        // width), BPSK to 256-QAM under every ordering, on observations
        // near the constellation and on far outliers whose effective points
        // get no table answer, each with and without a zero pivot. Only a
        // `Q` of at most `GROUP_ROWS` rows groups, and a batch of 1 to 7
        // vectors that runs alone must return per-vector `detect`'s rows.
        use flexcore_numeric::rng::CxRng;
        let (mut stopped_at_root, mut off_table) = (0, 0);
        for nt in [1usize, 4, 8, 16, 17] {
            for m in [
                Modulation::Bpsk,
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam64,
                Modulation::Qam256,
            ] {
                let c = Constellation::new(m);
                let reach = (c.order() as f64).sqrt().ceil() * unit_level(&c);
                for ordering in [
                    PathOrdering::TriangleLut,
                    PathOrdering::TriangleLutStrict,
                    PathOrdering::Exact,
                ] {
                    for adaptive in [false, true] {
                        let what = format!("nt={nt} {m:?} {ordering:?} adaptive={adaptive}");
                        let mut rng = StdRng::seed_from_u64(nt as u64 * 977 + m.order() as u64);
                        let mut cfg = FlexCoreConfig::new(if adaptive { 16 } else { 1 });
                        cfg.path_ordering = ordering;
                        cfg.stop_threshold = adaptive.then_some(0.95);
                        let mut fc = FlexCoreDetector::new(c.clone(), cfg);
                        let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
                        fc.prepare(&h, sigma2_from_snr_db(if adaptive { 40.0 } else { 10.0 }));
                        if fc.active_paths() > 1 {
                            assert!(adaptive, "{what}: FlexCore-1 kept several paths");
                            continue;
                        }
                        stopped_at_root += usize::from(adaptive);
                        assert_eq!(fc.prepared().groups, nt <= GROUP_ROWS, "{what}");
                        let ch = MimoChannel::new(h.clone(), 10.0);
                        for (zero_pivot, far) in [(false, false), (false, true), (true, false)] {
                            let what = format!("{what} zero_pivot={zero_pivot} far={far}");
                            if zero_pivot {
                                let state = fc.state.as_mut().expect("prepared");
                                let row = nt / 2;
                                state.tri.qr.r[(row, row)] = Cx::ZERO;
                                state.diag[row] = (state.tri.pivot_inv(row), 0.0);
                            }
                            let ys: Vec<Vec<Cx>> = (0..7)
                                .map(|_| {
                                    let x: Vec<Cx> = (0..nt)
                                        .map(|_| {
                                            let s = c.point(rng.gen_range(0..c.order()));
                                            if far {
                                                s + rng.cx_normal(1.0).scale(4.0 * reach)
                                            } else {
                                                s
                                            }
                                        })
                                        .collect();
                                    if far {
                                        h.mul_vec(&x)
                                    } else {
                                        ch.transmit(&x, &mut rng)
                                    }
                                })
                                .collect();
                            let per_vector: Vec<Vec<usize>> =
                                ys.iter().map(|y| fc.detect(y)).collect();
                            let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
                            for n in 1..=refs.len() {
                                assert_eq!(
                                    fc.detect_batch_refs(&refs[..n]),
                                    per_vector[..n],
                                    "{what}: batch of {n}"
                                );
                            }
                            off_table += off_table_picks(&[&fc], &refs);
                        }
                    }
                }
            }
        }
        assert!(
            stopped_at_root > 0,
            "no a-FlexCore search stopped at the root"
        );
        assert!(off_table > 0, "no effective point went off the table");
    }

    /// Row 0's effective point with its ancestors (`syms` above row 0)
    /// cancelled in ascending row order, as the scalar walk does, or in
    /// descending order.
    fn row0_effective_point(tri: &Triangular, ybar0: Cx, syms: &[u16], descending: bool) -> Cx {
        let c = &tri.constellation;
        let mut acc = ybar0;
        let mut cancel = |p: usize| acc -= tri.qr.r[(0, p)] * c.point(usize::from(syms[p]));
        if descending {
            (1..syms.len()).rev().for_each(&mut cancel);
        } else {
            (1..syms.len()).for_each(&mut cancel);
        }
        acc * tri.pivot_inv(0)
    }

    /// `n` one-path detectors of one `(nr, nt)` shape, each prepared on a
    /// channel of its own (one user per slot): FlexCore-1, and every other
    /// one a-FlexCore-16 wherever its search stops at the root within a
    /// few draws.
    fn one_path_slots(
        c: &Constellation,
        ordering: PathOrdering,
        (nr, nt): (usize, usize),
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<(FlexCoreDetector, CMat)> {
        let mut slot = |k: usize| {
            for attempt in 0.. {
                let adaptive = k % 2 == 1 && attempt < 8;
                let mut cfg = FlexCoreConfig::new(if adaptive { 16 } else { 1 });
                cfg.path_ordering = ordering;
                cfg.stop_threshold = adaptive.then_some(0.95);
                let mut fc = FlexCoreDetector::new(c.clone(), cfg);
                let h = ChannelEnsemble::iid(nr, nt).draw(rng);
                fc.prepare(&h, sigma2_from_snr_db(if adaptive { 40.0 } else { 10.0 }));
                if fc.active_paths() == 1 {
                    return (fc, h);
                }
            }
            unreachable!("FlexCore-1 keeps one path")
        };
        (0..n).map(&mut slot).collect()
    }

    /// Each slot's per-vector `detect` over its own vectors (`ys`, the
    /// slots' batches back to back), as one row plane.
    fn per_vector_rows(slots: &[&FlexCoreDetector], ys: &[&[Cx]]) -> Vec<u16> {
        let per = ys.len() / slots.len();
        let rows = ys.chunks(per).zip(slots).flat_map(|(ys, fc)| {
            ys.iter()
                .flat_map(|y| fc.detect(y).into_iter().map(|s| s as u16))
        });
        rows.collect()
    }

    /// The lane-group kernel at the stack-plane size the group call picks.
    fn lane_group(slots: &[&FlexCoreDetector], ys: &[&[Cx]], out: &mut [u16]) -> bool {
        match slots[0].prepared().shape().0 {
            0..=4 => FlexCoreDetector::walk_lane_group::<4>(slots, ys, out),
            _ => FlexCoreDetector::walk_lane_group::<GROUP_ROWS>(slots, ys, out),
        }
    }

    #[test]
    fn lane_group_matches_per_vector_detect() {
        // Quads of one to four one-path slots, each on a channel of its
        // own, at nt 1 to 8 (both stack-plane sizes) and a tall 6×3, BPSK
        // to 256-QAM under both table orderings, on observations near the
        // constellation and far outliers whose effective points get no
        // table answer, with a zero pivot in the second slot, and 1 to 9
        // symbols per slot. The group call's rows must be each slot's
        // per-vector `detect` (the scalar walk), and from two slots on the
        // lane-group kernel itself must have taken the quad.
        use flexcore_numeric::rng::CxRng;
        let (mut kernels, mut off_table) = (0, 0);
        let shapes = (1..=8usize).map(|nt| (nt, nt)).chain([(6, 3)]);
        for (nr, nt) in shapes {
            for m in [
                Modulation::Bpsk,
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam64,
                Modulation::Qam256,
            ] {
                let c = Constellation::new(m);
                let reach = (c.order() as f64).sqrt().ceil() * unit_level(&c);
                for ordering in [PathOrdering::TriangleLut, PathOrdering::TriangleLutStrict] {
                    let what = format!("{nr}x{nt} {m:?} {ordering:?}");
                    let seed = (nr * 64 + nt) as u64 * 977 + m.order() as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut slots = one_path_slots(&c, ordering, (nr, nt), LANES, &mut rng);
                    let state = slots[1].0.state.as_mut().expect("prepared");
                    let row = nt / 2;
                    state.tri.qr.r[(row, row)] = Cx::ZERO;
                    state.diag[row] = (state.tri.pivot_inv(row), 0.0);
                    let fcs: Vec<&FlexCoreDetector> = slots.iter().map(|(fc, _)| fc).collect();
                    assert!(fcs.iter().all(|fc| fcs[0].groups_with(fc)), "{what}");
                    for far in [false, true] {
                        for n_sym in 1..=9 {
                            let ys: Vec<Vec<Cx>> = slots
                                .iter()
                                .flat_map(|(_, h)| std::iter::repeat_n(h, n_sym))
                                .map(|h| {
                                    let x: Vec<Cx> = (0..nt)
                                        .map(|_| c.point(rng.gen_range(0..c.order())))
                                        .collect();
                                    if !far {
                                        return MimoChannel::new(h.clone(), 10.0)
                                            .transmit(&x, &mut rng);
                                    }
                                    let x: Vec<Cx> = x
                                        .iter()
                                        .map(|&s| s + rng.cx_normal(1.0).scale(4.0 * reach))
                                        .collect();
                                    h.mul_vec(&x)
                                })
                                .collect();
                            let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
                            if far {
                                off_table += off_table_picks(&fcs, &refs);
                            }
                            for g in 1..=LANES {
                                let at = format!("{what} far={far}, {n_sym} symbols, {g} slots");
                                let ys = &refs[..g * n_sym];
                                let want = per_vector_rows(&fcs[..g], ys);
                                let mut got = vec![0u16; want.len()];
                                FlexCoreDetector::detect_group_into(&fcs[..g], ys, &mut got);
                                assert_eq!(got, want, "{at}: group call");
                                if g > 1 {
                                    got.fill(u16::MAX);
                                    assert!(lane_group(&fcs[..g], ys, &mut got), "{at}: declined");
                                    assert_eq!(got, want, "{at}: kernel");
                                    kernels += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(kernels > 0);
        assert!(off_table > 0, "no effective point went off the table");
    }

    #[test]
    fn lane_group_cancels_in_the_scalar_walks_order() {
        // The lane-group kernel computes no metric either, so only picks
        // decided by a cancellation sum's last ulps show an order change.
        // Per stack-plane size (nt 4 and 8) and modulation, four slots on
        // channels of their own each get two received vectors
        // `y = H·x + t·Q[·, 0]`, with `t` bisected onto the boundary where
        // row 0's pick changes and then stepped ulp by ulp to where
        // cancelling the ancestors in descending order picks another
        // symbol than the scalar walk's ascending order. On those the
        // kernel's rows must equal the scalar walk's.
        let (mut sensitive, mut cases) = (0, 0);
        for nt in [4usize, 8] {
            for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
                let c = Constellation::new(m);
                let what = format!("nt={nt} {m:?}");
                let mut rng = StdRng::seed_from_u64(0x6A0E + nt as u64 * 256 + m.order() as u64);
                let slots =
                    one_path_slots(&c, PathOrdering::TriangleLut, (nt, nt), LANES, &mut rng);
                let mut ys: Vec<Vec<Cx>> = Vec::new();
                for (fc, h) in &slots {
                    let tri = fc.triangular();
                    let q0: Vec<Cx> = (0..nt).map(|r| tri.qr.q[(r, 0)]).collect();
                    let step = 2.0 * unit_level(&c) * tri.qr.r[(0, 0)].abs();
                    let mut found: Vec<Vec<Cx>> = Vec::new();
                    for _ in 0..400 {
                        if found.len() == 2 {
                            break;
                        }
                        let x: Vec<Cx> = (0..nt)
                            .map(|_| c.point(rng.gen_range(0..c.order())))
                            .collect();
                        let base = h.mul_vec(&x);
                        let y_at = |t: f64| -> Vec<Cx> {
                            base.iter()
                                .zip(&q0)
                                .map(|(&b, &q)| b + q.scale(t))
                                .collect()
                        };
                        let pick = |t: f64, descending: bool| {
                            let ybar = tri.rotate(&y_at(t));
                            let mut walk = WalkScratch::default();
                            fc.walk_paths(&ybar, &mut walk);
                            let syms = walk.path(0);
                            fc.pick_symbol(row0_effective_point(tri, ybar[0], syms, descending), 1)
                        };
                        let (mut lo, mut hi) = (0.0, step);
                        let below = pick(lo, false);
                        if pick(hi, false) == below {
                            continue;
                        }
                        loop {
                            let mid = lo + (hi - lo) / 2.0;
                            if mid == lo || mid == hi {
                                break;
                            }
                            if pick(mid, false) == below {
                                lo = mid;
                            } else {
                                hi = mid;
                            }
                        }
                        let start = (0..32).fold(lo, |v: f64, _| v.next_down());
                        let flips = std::iter::successors(Some(start), |v| Some(v.next_up()))
                            .take(64)
                            .find(|&t| pick(t, false) != pick(t, true));
                        if let Some(t) = flips {
                            found.push(y_at(t));
                        }
                    }
                    if found.is_empty() {
                        break;
                    }
                    sensitive += found.len();
                    ys.extend((0..2).map(|s| found[s.min(found.len() - 1)].clone()));
                }
                if ys.len() < LANES * 2 {
                    continue;
                }
                let fcs: Vec<&FlexCoreDetector> = slots.iter().map(|(fc, _)| fc).collect();
                let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
                let want = per_vector_rows(&fcs, &refs);
                let mut got = vec![0u16; want.len()];
                assert!(lane_group(&fcs, &refs, &mut got), "{what}: declined");
                assert_eq!(got, want, "{what}");
                cases += 1;
            }
        }
        assert!(
            cases >= 4 && sensitive >= 16,
            "{cases} cases, {sensitive} order-sensitive observations"
        );
    }

    #[test]
    fn a_nan_sample_ends_a_lane_group_as_its_slots_batch_ends() {
        // A NaN sample in one slot of a group must end the call exactly as
        // that slot's own batch ends (the block walk's "the SIC path
        // always completes" panic), whether the slot sits inside the quad
        // or last, where its lane is also repeated into the spare ones.
        use flexcore_numeric::rng::CxRng;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(0x4e42);
        let slots = one_path_slots(&c, PathOrdering::TriangleLut, (4, 4), LANES, &mut rng);
        let fcs: Vec<&FlexCoreDetector> = slots.iter().map(|(fc, _)| fc).collect();
        let mut ys: Vec<Vec<Cx>> = (0..LANES * 3)
            .map(|_| (0..4).map(|_| rng.cx_normal(1.0)).collect())
            .collect();
        ys[2 * 3 + 1][2].re = f64::NAN;
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        let message = |f: &mut dyn FnMut()| {
            let err = catch_unwind(AssertUnwindSafe(f)).expect_err("a NaN sample returned bits");
            match err.downcast::<String>() {
                Ok(msg) => *msg,
                Err(err) => err
                    .downcast_ref::<&str>()
                    .map_or_else(String::new, |m| m.to_string()),
            }
        };
        let own = message(&mut || fcs[2].detect_batch_into(&refs[6..9], &mut [0u16; 12]));
        assert!(own.contains("the SIC path always completes"), "{own}");
        for g in [3, LANES] {
            let mut out = vec![0u16; g * 3 * 4];
            let group = message(&mut || {
                FlexCoreDetector::detect_group_into(&fcs[..g], &refs[..g * 3], &mut out)
            });
            assert_eq!(group, own, "{g} slots");
        }
    }

    /// How many of the scalar chain's effective points over `ys` (the
    /// slots' batches back to back) the located table has no rank-1
    /// answer for.
    fn off_table_picks(slots: &[&FlexCoreDetector], ys: &[&[Cx]]) -> usize {
        let per = ys.len() / slots.len();
        let mut none = 0;
        for (ys, fc) in ys.chunks(per).zip(slots) {
            let (Some(t), tri) = (fc.fast_lut.as_deref(), fc.triangular()) else {
                continue;
            };
            for y in ys {
                let ybar = tri.rotate(y);
                let mut walk = WalkScratch::default();
                fc.walk_paths(&ybar, &mut walk);
                for level in 0..tri.nt() {
                    let eff = tri.effective_point(&ybar, walk.path(0), level);
                    let mut base = [NIL; LANES];
                    t.locate_bases(
                        &fc.lut,
                        fc.constellation(),
                        &[eff.re; LANES],
                        &[eff.im; LANES],
                        &mut base,
                    );
                    none += usize::from(base[0] == NIL || t.get(base[0] as usize, 1).is_none());
                }
            }
        }
        none
    }

    #[test]
    fn block_walk_winner_matches_scalar_chain_on_far_outliers() {
        // Transmitted points 3 to 2·side cells outside the grid (one
        // coordinate in four inside it), noiseless: most effective points
        // land outside `[−2, side + 1]`, the two cells around the grid,
        // both inside the located table's window and beyond the order's
        // reach, where every located pick reads the shared empty row. The
        // block walk must still pick the scalar chain's winner (scalar
        // rotate + `walk_paths` + `first_min_metric`), bit for bit.
        let (mut far, mut points) = (0usize, 0usize);
        for m in [Modulation::Qpsk, Modulation::Qam16] {
            let c = Constellation::new(m);
            let side = (c.order() as f64).sqrt() as i32;
            let near = -2..side + 2;
            let coord = |rng: &mut StdRng| {
                if rng.gen_range(0..4) == 0 {
                    return rng.gen_range(-(side as f64)..side as f64);
                }
                let cells_out = rng.gen_range(3..=2 * side);
                let u = (side - 1 + 2 * cells_out) as f64 + rng.gen_range(-1.0..1.0);
                if rng.gen_range(0..2) == 0 {
                    u
                } else {
                    -u
                }
            };
            for ordering in [PathOrdering::TriangleLut, PathOrdering::TriangleLutStrict] {
                for nt in [4usize, 8] {
                    let what = format!("nt={nt} {m:?} {ordering:?}");
                    let mut rng = StdRng::seed_from_u64(nt as u64 * 131 + m.order() as u64);
                    let mut cfg = FlexCoreConfig::new(16);
                    cfg.path_ordering = ordering;
                    let mut fc = FlexCoreDetector::new(c.clone(), cfg);
                    let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
                    fc.prepare(&h, sigma2_from_snr_db(9.0));
                    let tri = fc.triangular();
                    let mut block = WalkBlockScratch::default();
                    for _ in 0..16 {
                        let mut ybars = vec![Cx::ZERO; LANES * nt];
                        for ybar in ybars.chunks_exact_mut(nt) {
                            let x: Vec<Cx> = (0..nt)
                                .map(|_| {
                                    Cx::new(coord(&mut rng), coord(&mut rng)).scale(unit_level(&c))
                                })
                                .collect();
                            tri.qr.q.mul_vec_hermitian_into_scalar(&h.mul_vec(&x), ybar);
                        }
                        fc.walk_paths_block(&ybars, [true; LANES], &mut block);
                        for (l, ybar) in ybars.chunks_exact(nt).enumerate() {
                            let at = format!("{what} lane {l}");
                            assert_lane_matches_scalar(&fc, ybar, l, &mut block, &at);
                            // Where the scalar chain's effective points fall.
                            for p in fc.position_vectors() {
                                let mut syms = vec![0u16; nt];
                                for row in (0..nt).rev() {
                                    let eff = tri.effective_point(ybar, &syms, row);
                                    let (ci, cj, _) = fc.lut.locate(&c, eff);
                                    points += 1;
                                    let close = near.contains(&ci) && near.contains(&cj);
                                    far += usize::from(!close);
                                    let Some(sym) = fc.pick_symbol(eff, p.rank(row) as usize)
                                    else {
                                        break;
                                    };
                                    syms[row] = sym as u16;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            far * 2 > points,
            "{far} of {points} effective points outside [−2, side + 1]"
        );
    }

    #[test]
    fn bounded_block_walk_completes_scalar_bits_and_prunes_only_beaten_paths() {
        // Hand-built tries with exactly `c` chains on every row below the
        // top one — path `i` takes its own rank at the top row and rank 1
        // below (plus one path that splits off path 0 at the bottom row,
        // so one chain has two nodes). A top-row rank no ordering can
        // serve kills its node on all four lanes, hence the chain below
        // it on every row: one dead chain in each slot in turn, and in the
        // first and last slot together. Under all 15 non-empty lane masks,
        // every path the block walk completes must carry the scalar walk's
        // bits, and every path it prunes (`NaN` in the block, finite in
        // the scalar walk) must be strictly beaten by the lane's winner.
        use flexcore_numeric::rng::CxRng;
        const DEAD: u32 = 1000;
        const MAX_C: usize = 9;
        let (mut dead_chains_seen, mut pruned) = (0, 0);
        for nt in [2usize, 4, 8, 12, 64] {
            let mut rng = StdRng::seed_from_u64(77 + nt as u64);
            let budget = MAX_C + 1;
            let mut fc = FlexCoreDetector::with_pes(Constellation::new(Modulation::Qam16), budget);
            fc.prepare(
                &ChannelEnsemble::iid(nt, nt).draw(&mut rng),
                sigma2_from_snr_db(10.0),
            );
            let ybars: Vec<Cx> = (0..LANES * nt)
                .map(|i| rng.cx_normal(0.4 + 0.2 * (i / nt) as f64))
                .collect();
            for c in 1..=MAX_C {
                let kills = std::iter::once(vec![])
                    .chain((0..c).map(|p| vec![p]))
                    .chain((c > 1).then(|| vec![0, c - 1]));
                for dead in kills {
                    let top_rank = |i: usize| match dead.iter().position(|&p| p == i) {
                        Some(d) => DEAD + d as u32,
                        None => i as u32 + 1,
                    };
                    // Path `c` is path 0 again down to the bottom row.
                    let paths: Vec<PositionVector> = (0..=c)
                        .map(|i| {
                            let mut ranks = vec![1u32; nt];
                            ranks[0] = if i == c { 2 } else { 1 };
                            ranks[nt - 1] = top_rank(i % c);
                            PositionVector::from_entries(ranks)
                        })
                        .collect();
                    let state = fc.state.as_mut().expect("prepared");
                    state.trie.rebuild(&paths, nt, budget);
                    assert_eq!(state.trie.chains().count(), 1 + (nt - 1) * c);
                    let what = format!("nt={nt} c={c} dead={dead:?}");
                    let mut block = WalkBlockScratch::default();
                    for mask in 1..1u32 << LANES {
                        let active: [bool; LANES] = std::array::from_fn(|l| mask >> l & 1 == 1);
                        fc.walk_paths_block(&ybars, active, &mut block);
                        for l in (0..LANES).filter(|&l| active[l]) {
                            let mut walk = WalkScratch::default();
                            fc.walk_paths(&ybars[l * nt..(l + 1) * nt], &mut walk);
                            let best = first_min_metric(walk.metrics.iter().copied());
                            let want = best.map_or(f64::INFINITY, |(_, m)| m);
                            let winner = format!("{what} mask {mask:04b} lane {l}: winner");
                            assert_eq!(block.best_metric[l].to_bits(), want.to_bits(), "{winner}");
                            let trie = &fc.state.as_ref().expect("prepared").trie;
                            let lineage = &trie.lineage()[..trie.n_paths * nt];
                            for (path, lineage) in lineage.chunks(nt).enumerate() {
                                let what = format!("{what} mask {mask:04b} lane {l} path {path}");
                                let got = block.metric[lineage[0] as usize][l];
                                let want = walk.metrics[path];
                                if want.is_nan() {
                                    assert!(got.is_nan(), "{what}: a dead path completed");
                                    dead_chains_seen += 1;
                                    continue;
                                }
                                if got.is_nan() {
                                    assert!(
                                        want > block.best_metric[l],
                                        "{what}: pruned a contender"
                                    );
                                    pruned += 1;
                                    continue;
                                }
                                assert_eq!(got.to_bits(), want.to_bits(), "{what}: metric");
                                let syms: Vec<u16> =
                                    lineage.iter().map(|&n| block.syms[n as usize][l]).collect();
                                assert_eq!(syms, walk.path(path), "{what}: symbols");
                            }
                        }
                    }
                }
            }
        }
        assert!(dead_chains_seen > 0, "no rank ever killed a chain");
        assert!(pruned > 0, "the bound never pruned a path");
    }

    #[test]
    fn block_walk_breaks_metric_ties_by_path_index_not_visit_order() {
        // R = I makes a path's metric the plain sum of its two per-level
        // distances to the rows' observations. In both crafts path 0 opens
        // the top-rank-2 subtree and path 2 joins it, so the selection
        // order reaches path 2 — that chain's second leaf — before path 1,
        // the only leaf of a later chain; paths 1 and 2 tie exactly, and
        // only the index tie-break picks 1.
        //
        // Craft 1: the same observation on both rows, ranks (top, bottom)
        // (1, 2) and (2, 1) tie as d₁ + d₂ = d₂ + d₁. Craft 2 pins the
        // prune boundary: the top observation sits midway between two
        // points (d₁ = d₂ bit for bit) and the bottom one on a point
        // (d₁ = 0), so (1, 1) and (2, 1) tie and path 1's chain starts at
        // a parent metric *equal* to path 2's completed one. A `>=` bound
        // would skip that chain and crown path 2.
        let c = Constellation::new(Modulation::Qpsk);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 3);
        fc.prepare(
            &CMat::from_fn(2, 2, |r, c| if r == c { Cx::real(1.0) } else { Cx::ZERO }),
            0.1,
        );
        let e = Cx::new(0.3 * unit_level(&c), 0.1 * unit_level(&c));
        let on_point = c.point(0);
        let midway = Cx::new(0.0, on_point.im);
        // Ranks bottom row first, observations `[bottom, top]`.
        let crafts = [
            ([[2, 2], [2, 1], [1, 2]], [e, e]),
            ([[2, 2], [1, 1], [1, 2]], [on_point, midway]),
        ];
        for (craft, (ranks, ybar)) in crafts.into_iter().enumerate() {
            let what = format!("craft {}", craft + 1);
            let paths: Vec<PositionVector> = ranks
                .iter()
                .map(|ranks| PositionVector::from_entries(ranks.to_vec()))
                .collect();
            let state = fc.state.as_mut().expect("prepared");
            state.trie.rebuild(&paths, 2, 3);
            let trie = &state.trie;
            let leaves: Vec<Id> = trie
                .chains()
                .skip(1)
                .flat_map(|chain| {
                    std::iter::successors(Some(chain.first), |&i| {
                        Some(trie.node(i).next_sibling).filter(|&next| next != NONE)
                    })
                })
                .map(|i| trie.node(i).path_idx)
                .collect();
            assert_eq!(
                leaves,
                [0, 2, 1],
                "{what}: the craft relies on this visit order"
            );
            // `lineage[path · nt + row]`: path 1's top-row node.
            let path1_top = trie.lineage()[2 + 1] as usize;
            let mut walk = WalkScratch::default();
            fc.walk_paths(&ybar, &mut walk);
            assert_eq!(
                walk.metrics[1].to_bits(),
                walk.metrics[2].to_bits(),
                "{what}"
            );
            assert!(walk.metrics[1] < walk.metrics[0], "{what}");
            let mut block = WalkBlockScratch::default();
            let ybars: Vec<Cx> = (0..LANES).flat_map(|_| ybar).collect();
            fc.walk_paths_block(&ybars, [true; LANES], &mut block);
            for l in 0..LANES {
                assert_lane_matches_scalar(&fc, &ybar, l, &mut block, &what);
                assert_eq!(block.best_path[l], 1, "{what}");
            }
            if craft == 1 {
                let parent = block.metric[path1_top][0];
                assert_eq!(
                    parent.to_bits(),
                    walk.metrics[2].to_bits(),
                    "{what}: boundary"
                );
            }
        }
    }

    #[test]
    fn blocked_batch_matches_per_vector_under_strict_deactivation() {
        // The four-wide block walk must deactivate exactly the (path, lane)
        // pairs the scalar walk deactivates — strict LUT semantics at low
        // SNR maximise deactivation, and odd batch sizes exercise every
        // scalar-tail remainder.
        let c = Constellation::new(Modulation::Qam16);
        let mut cfg = FlexCoreConfig::new(24);
        cfg.path_ordering = PathOrdering::TriangleLutStrict;
        let mut rng = StdRng::seed_from_u64(55);
        let h = ChannelEnsemble::iid(5, 5).draw(&mut rng);
        let mut fc = FlexCoreDetector::new(c.clone(), cfg);
        fc.prepare(&h, sigma2_from_snr_db(6.0));
        let ch = MimoChannel::new(h, 6.0);
        for n_obs in [1usize, 2, 3, 4, 5, 7, 9, 16] {
            let ys: Vec<Vec<Cx>> = (0..n_obs)
                .map(|_| {
                    let s: Vec<usize> = (0..5).map(|_| rng.gen_range(0..16)).collect();
                    let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                    ch.transmit(&x, &mut rng)
                })
                .collect();
            let per_vector: Vec<Vec<usize>> = ys.iter().map(|y| fc.detect(y)).collect();
            let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
            assert_eq!(fc.detect_batch_refs(&refs), per_vector, "batch of {n_obs}");
        }
    }

    #[test]
    fn clones_and_fresh_detectors_share_the_ordering_artifacts() {
        // The located table is process-wide: an engine slot's clone and a
        // detector built later read the first detector's by `Arc`; only
        // the semantics split tables. (The orders under it are `static`
        // data, shared by construction.)
        let c = Constellation::new(Modulation::Qam16);
        let det = FlexCoreDetector::with_pes(c.clone(), 16);
        let table = |d: &FlexCoreDetector| d.fast_lut.clone().expect("a triangle-LUT detector");
        let shared = |d: &FlexCoreDetector| Arc::ptr_eq(&table(d), &table(&det));
        assert!(shared(&det.clone()), "clone");
        assert!(shared(&FlexCoreDetector::with_pes(c.clone(), 16)), "fresh");
        let with = |path_ordering| {
            let mut cfg = FlexCoreConfig::new(16);
            cfg.path_ordering = path_ordering;
            FlexCoreDetector::new(c.clone(), cfg)
        };
        let strict = with(PathOrdering::TriangleLutStrict);
        assert!(!shared(&strict));
        assert!(Arc::ptr_eq(
            &table(&strict),
            &det.lut.shared_table(&c, true)
        ));
        assert!(Arc::ptr_eq(&table(&det), &det.lut.shared_table(&c, false)));
        assert!(with(PathOrdering::Exact).fast_lut.is_none());
    }

    #[test]
    fn qr_ordering_variants_all_work() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(9);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let y = h.mul_vec(&x);
        for ord in [QrOrdering::Sqrd, QrOrdering::Fcsd(1), QrOrdering::Plain] {
            let mut cfg = FlexCoreConfig::new(8);
            cfg.qr_ordering = ord;
            let mut fc = FlexCoreDetector::new(c.clone(), cfg);
            fc.prepare(&h, 1e-6);
            assert_eq!(fc.detect(&y), s, "{ord:?}");
        }
    }

    #[test]
    fn prepare_accepts_streams_beyond_the_inline_capacity() {
        // Seed-era `prepare` rejected anything past an inline
        // `[u16; 16]` symbol store; the `Vec<u16>` stores detect 17
        // streams end-to-end.
        let c = Constellation::new(Modulation::Qpsk);
        let mut rng = StdRng::seed_from_u64(40);
        let h = ChannelEnsemble::iid(17, 17).draw(&mut rng);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 4);
        fc.prepare(&h, 1e-9);
        let s: Vec<usize> = (0..17).map(|_| rng.gen_range(0..4)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(fc.detect(&h.mul_vec(&x)), s);
    }

    #[test]
    fn rows_past_255_keep_their_index() {
        // `TrieNode::row` was once a `u8`: at 257 streams rows 256 and 255
        // wrapped to 0 and 255, the scalar walk returned wrong symbols
        // and the block walk found no completed path. Every node field is
        // one 16-bit word now.
        assert_eq!(std::mem::size_of::<TrieNode>(), 8);
        let nt = 257;
        let c = Constellation::new(Modulation::Qpsk);
        let mut rng = StdRng::seed_from_u64(42);
        let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 4);
        fc.prepare(&h, 1e-9);
        let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..4)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let y = h.mul_vec(&x);
        assert_eq!(fc.detect(&y), s, "scalar walk");
        assert_eq!(fc.detect_batch_refs(&[&y]), [s], "block walk");
    }

    #[test]
    #[should_panic(expected = "node ids; at most 65535 fit")]
    fn a_budget_past_the_trie_ids_fails_loudly() {
        // 7 282 QPSK paths (of 4^9) over nine rows need 65 538 node ids,
        // past the trie's `NONE` (65 535): the prepare that sizes the trie
        // refuses it rather than wrap an id.
        let c = Constellation::new(Modulation::Qpsk);
        let h = ChannelEnsemble::iid(9, 9).draw(&mut StdRng::seed_from_u64(44));
        let mut fc = FlexCoreDetector::with_pes(c, 7_282);
        fc.prepare(&h, 0.1);
    }

    #[test]
    fn the_largest_budgets_in_use_fit_the_trie_ids() {
        // 1 024 nodes (exhaustive FlexCore at QPSK 4×4), the 257-row trie
        // and 65 529 nodes, the last nine-row bound below `NONE`: prepared,
        // detected, no panic.
        for (m, nt, n_pe) in [
            (Modulation::Qpsk, 4, 256),
            (Modulation::Qpsk, 257, 4),
            (Modulation::Qpsk, 9, 7_281),
        ] {
            let c = Constellation::new(m);
            let mut rng = StdRng::seed_from_u64(43);
            let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
            let mut fc = FlexCoreDetector::with_pes(c.clone(), n_pe);
            fc.prepare(&h, 1e-6);
            let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..c.order())).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            assert_eq!(fc.detect(&h.mul_vec(&x)), s, "{m:?} nt {nt} N_PE {n_pe}");
        }
    }

    #[test]
    fn a_budget_past_the_constellation_sizes_the_trie_for_its_vectors() {
        // BPSK over one row has 2 vectors, so 65 534 PEs select 2 paths
        // and the trie is laid out for 2 one-node paths: 7 words each.
        let c = Constellation::new(Modulation::Bpsk);
        let mut fc = FlexCoreDetector::with_pes(c, usize::from(NONE) - 1);
        fc.prepare(&CMat::from_fn(1, 1, |_, _| Cx::real(1.0)), 0.1);
        assert_eq!(fc.active_paths(), 2);
        let words = &fc.prepared().trie.words;
        assert_eq!((words.len(), words.capacity()), (14, 14));
        assert_eq!(fc.detect(&[Cx::real(-1.0)]).len(), 1);
    }

    #[test]
    fn prepare_accepts_the_full_16_stream_capacity() {
        let c = Constellation::new(Modulation::Qpsk);
        let mut rng = StdRng::seed_from_u64(41);
        let h = ChannelEnsemble::iid(16, 16).draw(&mut rng);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 4);
        fc.prepare(&h, 1e-9);
        let s: Vec<usize> = (0..16).map(|_| rng.gen_range(0..4)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(fc.detect(&h.mul_vec(&x)), s);
    }

    #[test]
    fn preprocess_accounting_exposed() {
        let c = Constellation::new(Modulation::Qam64);
        let mut rng = StdRng::seed_from_u64(10);
        let h = ChannelEnsemble::iid(8, 8).draw(&mut rng);
        let mut fc = FlexCoreDetector::with_pes(c, 32);
        fc.prepare(&h, sigma2_from_snr_db(18.0));
        assert!(fc.preprocess_mults() > 0);
        assert!(fc.preprocess_mults() <= 32 * 8);
        assert!(fc.cumulative_prob() > 0.0 && fc.cumulative_prob() <= 1.0 + 1e-9);
        assert_eq!(fc.active_paths(), 32);
    }
}
