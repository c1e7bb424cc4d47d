//! Word-parallel (PPSFP-style) fault simulation kernel.
//!
//! The scalar path ([`crate::propagate`]/[`crate::respond`]) answers "does pressure reach the
//! sinks?" for **one** `(vector, fault set)` combination per BFS. Campaigns
//! and audits ask that question for thousands of fault scenarios against
//! the *same* vector, so this module packs [`LANES`] scenarios into one
//! `u64` per graph element and propagates all of them through a single
//! bitset BFS — the classic parallel-pattern/parallel-fault answer from
//! VLSI ATPG, transplanted to valve-array pressure propagation:
//!
//! * [`LoweredChip`] — the chip's cell adjacency lowered once per chip into
//!   a flat CSR table (wall edges dropped, channel edges marked
//!   always-open, valve edges tagged with their dense valve index),
//! * [`LaneSet`] — one `u64` lane word per element of some universe
//!   (per valve: "which scenarios hold this valve open"; per cell: "which
//!   scenarios pressurise this cell"),
//! * [`BitFrontier`] — the reusable bitset-BFS worklist: seeds a lane word
//!   at the source cells and saturates reachability with word-wide
//!   AND/OR over the lowered adjacency,
//! * [`BitSimulator`] — the batch detector built on top: applies every
//!   suite vector to up to [`LANES`] fault sets at once and reports the
//!   detected lanes as a bitmask, plus [`KernelStats`] counters,
//! * [`SingleFaultTable`] — per vector, which single stuck-at faults it
//!   exposes; read off the graph structure (one bridge-finding DFS per
//!   vector, no flood) once per `(chip, suite)`, it answers the single and
//!   leak audits outright and lets the detector answer multi-fault lanes
//!   by lookup.
//!
//! # Fault-activation pruning
//!
//! A fault can only change a response on a vector that activates it
//! ([`Fault::is_active`]): a stuck-at-0 on a valve commanded open, a
//! stuck-at-1 on a valve commanded closed, a control leak whose actuator
//! is commanded closed while its victim is commanded open. Before flooding
//! a vector, [`BitSimulator::detect_block`] sorts the still-undetected
//! lanes:
//!
//! * a lane with no active fault is **dormant**: its valves sit at their
//!   commanded states, so its response is the golden one;
//! * given a [`SingleFaultTable`], a lane whose only active fault is a
//!   stuck-at is **looked up**: every other valve is at its commanded
//!   state, so the lane responds exactly like that single fault does;
//! * every other lane needs the flood.
//!
//! A vector on which no undetected lane needs the flood is answered
//! without one (counted in [`KernelStats::pruned_passes`]); otherwise one
//! flood answers all 64 lanes as before. The vectors stop once every lane
//! is detected. Over-approximating "active" only costs a flood, never a
//! wrong answer.
//!
//! # Scalar-oracle invariant
//!
//! For every `(vector, fault set)` the lane bit computed here equals the
//! scalar result of [`crate::respond`] compared against the
//! suite's golden response — byte for byte, not approximately. The scalar
//! path stays in the tree as the oracle: the differential campaign tests
//! run both kernels over the Table I layouts and assert identical
//! [`crate::campaign::CampaignRow`]s, and the unit tests below check the
//! per-scenario reachability sets themselves. Every bit of a
//! [`SingleFaultTable`] is held to the same standard: it equals the scalar
//! verdict for the single fault it stands for, checked on seeded generated
//! chips and, against the 64-lane flood, on the Table I plans. Anything
//! observable may *only* differ in speed.

use crate::fault::{Fault, FaultSet};
use crate::pressure::Response;
use crate::suite::TestSuite;
use fpva_grid::{EdgeKind, Fpva, PortKind, TestVector, ValveId};
use std::collections::VecDeque;

/// Scenarios packed per machine word.
pub const LANES: usize = 64;

/// Gate marker for an always-open (channel) edge in the lowered adjacency.
const OPEN_GATE: u32 = u32::MAX;

/// A chip's adjacency pre-lowered for the bitset kernel: flat CSR arrays
/// built **once** per chip (next to [`crate::campaign::ObservableLeaks`] in
/// a campaign) and shared read-only by every worker.
///
/// Wall edges are dropped at lowering time, channel edges carry an
/// always-open marker, and valve edges carry the dense valve index — so
/// the BFS inner loop is a word AND against the per-valve lane word, with
/// no `EdgeKind` dispatch or `EdgeId` arithmetic left on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredChip {
    cell_count: usize,
    valve_count: usize,
    /// CSR row starts: cell `c`'s neighbours live at
    /// `adj_start[c]..adj_start[c + 1]`.
    adj_start: Vec<u32>,
    /// Neighbour cell index of each adjacency entry.
    adj_next: Vec<u32>,
    /// Gate of each adjacency entry: [`OPEN_GATE`] or a valve index.
    adj_gate: Vec<u32>,
    /// Source-port cells (deduplicated, in port order).
    sources: Vec<u32>,
    /// Sink-port cells in port declaration order — parallel to the
    /// readings of a [`crate::Response`], duplicates kept.
    sinks: Vec<u32>,
}

impl LoweredChip {
    /// Lowers `fpva`'s adjacency. Cost is one scan over the cells and
    /// edges; do it once per chip, not per campaign row.
    pub fn build(fpva: &Fpva) -> Self {
        let cell_count = fpva.cell_count();
        let mut adj_start = Vec::with_capacity(cell_count + 1);
        let mut adj_next = Vec::new();
        let mut adj_gate = Vec::new();
        adj_start.push(0);
        for ci in 0..cell_count {
            let cell = fpva.cell_at(ci);
            for (edge, next) in fpva.neighbors(cell) {
                let gate = match fpva.edge_kind(edge) {
                    EdgeKind::Wall => continue,
                    EdgeKind::Open => OPEN_GATE,
                    EdgeKind::Valve => {
                        let v = fpva.valve_at(edge).expect("valve edge has a valve id");
                        u32::try_from(v.index()).expect("valve index fits u32")
                    }
                };
                adj_next.push(u32::try_from(fpva.cell_index(next)).expect("cell fits u32"));
                adj_gate.push(gate);
            }
            adj_start.push(u32::try_from(adj_next.len()).expect("adjacency fits u32"));
        }
        let mut sources = Vec::new();
        let mut sinks = Vec::new();
        for (_, port) in fpva.ports() {
            let ci = u32::try_from(fpva.cell_index(port.cell)).expect("cell fits u32");
            match port.kind {
                PortKind::Source => {
                    if !sources.contains(&ci) {
                        sources.push(ci);
                    }
                }
                PortKind::Sink => sinks.push(ci),
            }
        }
        LoweredChip {
            cell_count,
            valve_count: fpva.valve_count(),
            adj_start,
            adj_next,
            adj_gate,
            sources,
            sinks,
        }
    }

    /// Number of fluid cells of the lowered chip.
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// Number of valves of the lowered chip.
    pub fn valve_count(&self) -> usize {
        self.valve_count
    }

    /// Dense cell indices of the source ports (deduplicated).
    pub fn source_cells(&self) -> &[u32] {
        &self.sources
    }

    /// Dense cell indices of the sink ports, in port declaration order
    /// (one entry per sink port, so the slice is parallel to golden
    /// response readings).
    pub fn sink_cells(&self) -> &[u32] {
        &self.sinks
    }
}

/// One `u64` lane word per element of some universe — per valve ("which
/// scenarios hold this valve open") or per cell ("which scenarios reach
/// this cell"). Bit `l` of word `i` belongs to scenario lane `l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSet {
    words: Vec<u64>,
}

impl LaneSet {
    /// All-zero lane words over `len` elements.
    pub fn zeros(len: usize) -> Self {
        LaneSet {
            words: vec![0; len],
        }
    }

    /// Number of elements (words), not lanes.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when the universe has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The lane word of element `i`.
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Clears every word to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Re-shapes recycled scratch to `len` all-zero words without
    /// reallocating when capacity suffices.
    fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len, 0);
    }

    /// Broadcasts a per-element predicate to all 64 lanes: element `i`
    /// becomes all-ones when `pred(i)`, all-zeros otherwise.
    pub fn broadcast(&mut self, pred: impl Fn(usize) -> bool) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = if pred(i) { !0 } else { 0 };
        }
    }

    /// Sets lane `lane` of element `i`.
    pub fn set_lane(&mut self, i: usize, lane: usize) {
        debug_assert!(lane < LANES);
        self.words[i] |= 1 << lane;
    }

    /// Clears lane `lane` of element `i`.
    pub fn clear_lane(&mut self, i: usize, lane: usize) {
        debug_assert!(lane < LANES);
        self.words[i] &= !(1 << lane);
    }

    /// `true` when lane `lane` of element `i` is set.
    pub fn lane(&self, i: usize, lane: usize) -> bool {
        debug_assert!(lane < LANES);
        self.words[i] >> lane & 1 == 1
    }
}

/// Reusable bitset-BFS state: the per-cell reached [`LaneSet`] plus the
/// worklist. One propagation floods **all 64 lanes at once** — the inner
/// loop is `reached[cell] & open[valve]` per adjacency entry, i.e. the
/// per-scenario BFS of [`crate::propagate`] collapsed into
/// word-wide AND/OR.
#[derive(Debug, Clone)]
pub struct BitFrontier {
    reached: LaneSet,
    queue: VecDeque<u32>,
    queued: Vec<bool>,
}

impl BitFrontier {
    /// Fresh frontier for a chip with `cells` fluid cells.
    pub fn new(cells: usize) -> Self {
        BitFrontier {
            reached: LaneSet::zeros(cells),
            queue: VecDeque::new(),
            queued: vec![false; cells],
        }
    }

    /// Floods reachability from the chip's source cells: lane `l` of cell
    /// `c` ends up set exactly when scenario `l` (whose open valves are
    /// lane `l` of `open`) lets pressure travel from some source to `c`.
    ///
    /// `open` must hold one word per valve of `chip`. Source cells are
    /// pressurised in every lane, mirroring the scalar propagation.
    pub fn propagate(&mut self, chip: &LoweredChip, open: &LaneSet) {
        self.propagate_from(chip, chip.source_cells(), open);
    }

    /// Like [`BitFrontier::propagate`], seeded at an arbitrary cell set —
    /// the graph is undirected, so seeding at the sinks computes "which
    /// scenarios let this cell reach a sink" (used by the
    /// observable-leak precomputation).
    ///
    /// # Panics
    ///
    /// Panics if `open` was not sized for `chip`'s valve count or the
    /// frontier for its cell count.
    pub fn propagate_from(&mut self, chip: &LoweredChip, seeds: &[u32], open: &LaneSet) {
        assert_eq!(open.len(), chip.valve_count, "open-lane/valve mismatch");
        assert_eq!(
            self.reached.len(),
            chip.cell_count,
            "frontier/chip mismatch"
        );
        self.reached.clear();
        self.queue.clear();
        for &s in seeds {
            let si = s as usize;
            if self.reached.words[si] == 0 {
                self.reached.words[si] = !0;
                self.queued[si] = true;
                self.queue.push_back(s);
            }
        }
        while let Some(c) = self.queue.pop_front() {
            let ci = c as usize;
            self.queued[ci] = false;
            let w = self.reached.words[ci];
            let lo = chip.adj_start[ci] as usize;
            let hi = chip.adj_start[ci + 1] as usize;
            for k in lo..hi {
                let gate = chip.adj_gate[k];
                let pass = if gate == OPEN_GATE {
                    w
                } else {
                    w & open.words[gate as usize]
                };
                let ni = chip.adj_next[k] as usize;
                let new = pass & !self.reached.words[ni];
                if new != 0 {
                    self.reached.words[ni] |= new;
                    if !self.queued[ni] {
                        self.queued[ni] = true;
                        self.queue.push_back(chip.adj_next[k]);
                    }
                }
            }
        }
    }

    /// Re-shapes recycled scratch for a chip with `cells` fluid cells.
    /// The queue is empty and `queued` all-false whenever a frontier is
    /// at rest (every propagation drains its own worklist), so only the
    /// sizes need fixing up.
    fn reset(&mut self, cells: usize) {
        self.reached.reset(cells);
        self.queue.clear();
        self.queued.clear();
        self.queued.resize(cells, false);
    }

    /// The per-cell reached lanes of the last propagation.
    pub fn reached(&self) -> &LaneSet {
        &self.reached
    }

    /// Lane word of one cell (by dense cell index).
    pub fn lanes_at(&self, cell: usize) -> u64 {
        self.reached.word(cell)
    }
}

/// Which simulation kernel a campaign or audit runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimKernel {
    /// One BFS per `(vector, fault set)` — the original path, kept as the
    /// differential oracle.
    Scalar,
    /// [`LANES`] fault scenarios per word through one bitset BFS per
    /// vector (this module). Produces byte-identical results.
    #[default]
    BitParallel,
}

/// Work counters of a campaign/audit run, for throughput reporting.
///
/// All counters are a pure function of `(chip, suite, config)` — chunk
/// decomposition, activation pruning and early exits are deterministic —
/// so stats, like rows, are identical for every thread count *within* one
/// kernel. Across kernels only the results match; the stats are exactly
/// what differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// 64-lane scenario blocks simulated by the bit-parallel kernel.
    pub blocks: usize,
    /// Word-parallel bitset-BFS passes (floods): one per vector a live
    /// block needed flooded.
    pub word_passes: usize,
    /// Vector applications of the bit-parallel kernel answered without a
    /// flood: every undetected lane was dormant or answered by a
    /// [`SingleFaultTable`] lookup.
    pub pruned_passes: usize,
    /// Live scenario lanes simulated by the bit-parallel kernel (partial
    /// trailing blocks count only their occupied lanes).
    pub lanes: usize,
    /// Scalar BFS passes (vector applications) by the scalar kernel.
    pub scalar_passes: usize,
    /// Vectors read structurally (one bridge DFS each) to build a
    /// [`SingleFaultTable`], in place of simulating their faults.
    pub structural_passes: usize,
}

impl KernelStats {
    /// Accumulates another counter set into this one (used to merge
    /// per-chunk stats in worker-pool order).
    pub fn merge(&mut self, other: &KernelStats) {
        self.blocks += other.blocks;
        self.word_passes += other.word_passes;
        self.pruned_passes += other.pruned_passes;
        self.lanes += other.lanes;
        self.scalar_passes += other.scalar_passes;
        self.structural_passes += other.structural_passes;
    }
}

/// Which single stuck-at faults each vector of a suite exposes.
///
/// Every vector activates exactly one stuck-at fault per valve: stuck-at-0
/// on a valve commanded open, stuck-at-1 on one commanded closed (the
/// other is dormant and never detected). Row `i` of the table is a bitset
/// over valves whose bit `v` says whether vector `i`'s response under that
/// active fault on `v` deviates from the golden one. So the stuck-at-0
/// detections of vector `i` are its row ∧ the vector's open bits, and the
/// stuck-at-1 detections its row ∧ the closed bits.
///
/// The table is read off the graph structure, with no fault simulation
/// (critical path tracing made exact by the undirected flow layer). Take
/// the vector's open subgraph, plus a super-source joined to every source
/// cell:
///
/// * a **stuck-at-0** on an open valve changes a reading iff its edge is a
///   bridge of that graph whose far side (away from the super-source)
///   holds a sink: cutting it depressurises exactly the far side;
/// * a **stuck-at-1** on a closed valve changes a reading iff exactly one
///   endpoint is pressurised and the other endpoint's open component
///   holds a sink: opening it pressurises exactly that component.
///
/// One pass per vector finds both: an iterative lowlink DFS (Tarjan's
/// bridge finding) from the super-source with per-subtree sink counts,
/// then a lazy labelling of the unpressurised open components seen across
/// closed valves. The pass costs O(cells + edges) per vector, against
/// `⌈n_v / 64⌉` 64-lane floods for simulating every active fault; it is
/// counted in [`KernelStats::structural_passes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleFaultTable {
    /// Rows: the suite's vector count.
    vectors: usize,
    /// Columns: the chip's valve count.
    valves: usize,
    /// `u64` words per row (`⌈n_v / 64⌉`).
    words: usize,
    /// `vectors × words` exposure bits, row-major.
    exposed: Vec<u64>,
}

impl SingleFaultTable {
    /// Builds the table for `suite` on `chip`, one structural pass per
    /// vector (serial and deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the suite's vectors were built for a different valve
    /// count than the lowered chip, or if a vector's golden response
    /// disagrees with the chip's fault-free pressurisation (a suite built
    /// for another chip).
    pub fn build(chip: &LoweredChip, suite: &TestSuite) -> Self {
        let nv = chip.valve_count();
        let words = nv.div_ceil(LANES);
        let mut exposed = vec![0; suite.len() * words];
        let mut scan = ExposureScan::new(chip);
        for (i, (vector, golden)) in suite.vectors().iter().zip(suite.expected()).enumerate() {
            assert_eq!(vector.len(), nv, "vector/chip size mismatch");
            scan.run(chip, vector, &mut exposed[i * words..(i + 1) * words]);
            assert!(
                golden.readings().len() == chip.sink_cells().len()
                    && chip
                        .sink_cells()
                        .iter()
                        .zip(golden.readings())
                        .all(|(&cell, &reading)| scan.pressurised(cell) == reading),
                "vector {i}: golden response disagrees with the chip (suite built for another chip?)"
            );
        }
        SingleFaultTable {
            vectors: suite.len(),
            valves: nv,
            words,
            exposed,
        }
    }

    /// `true` when vector `i`'s response under the stuck-at fault it
    /// activates on valve `v` deviates from the golden response.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `v` is out of range.
    pub fn exposes(&self, i: usize, v: ValveId) -> bool {
        assert!(
            i < self.vectors && v.index() < self.valves,
            "({i}, {v}) outside the {} x {} table",
            self.vectors,
            self.valves
        );
        self.exposed[i * self.words + v.index() / LANES] >> (v.index() % LANES) & 1 == 1
    }

    /// The valves whose active stuck-at fault vector `i` exposes,
    /// ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn exposed(&self, i: usize) -> impl Iterator<Item = ValveId> + '_ {
        assert!(i < self.vectors, "vector {i} outside the table");
        let row = &self.exposed[i * self.words..(i + 1) * self.words];
        row.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    ValveId(w * LANES + bit)
                })
            })
        })
    }

    /// The work spent building the table: one structural pass per vector.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            structural_passes: self.vectors,
            ..KernelStats::default()
        }
    }
}

/// Discovery time of the super-source; cells are numbered from `ROOT + 1`
/// and `0` marks an unpressurised (undiscovered) cell.
const ROOT: u32 = 1;

/// One DFS stack entry: a cell, its next adjacency entry to try, and the
/// gate of the tree edge from its parent ([`OPEN_GATE`] for a DFS root).
#[derive(Debug, Clone, Copy)]
struct Frame {
    cell: u32,
    next: u32,
    gate: u32,
}

/// Scratch of the structural single-fault scan, sized once per chip and
/// reset per vector.
#[derive(Debug)]
struct ExposureScan {
    /// Per cell: sink ports on it, and whether a source port is on it.
    sinks_at: Vec<u32>,
    is_source: Vec<bool>,
    /// Per cell: DFS discovery time (`0` = unpressurised), lowlink, and
    /// sink ports in its DFS subtree.
    disc: Vec<u32>,
    low: Vec<u32>,
    below: Vec<u32>,
    /// Pressurised cells in discovery order.
    order: Vec<u32>,
    stack: Vec<Frame>,
    /// Per cell: label of its unpressurised open component (`0` = not yet
    /// labelled); per label: whether the component holds a sink.
    label: Vec<u32>,
    label_sink: Vec<bool>,
    /// Cells still to expand while labelling a component.
    pending: Vec<u32>,
}

/// `true` when an adjacency entry with `gate` conducts under `vector`.
fn conducts(gate: u32, vector: &TestVector) -> bool {
    gate == OPEN_GATE || vector.is_open(ValveId(gate as usize))
}

/// Marks valve `gate` exposed in a table row.
fn set_bit(row: &mut [u64], gate: u32) {
    let g = gate as usize;
    row[g / LANES] |= 1 << (g % LANES);
}

impl ExposureScan {
    fn new(chip: &LoweredChip) -> Self {
        let n = chip.cell_count();
        let mut sinks_at = vec![0; n];
        for &c in chip.sink_cells() {
            sinks_at[c as usize] += 1;
        }
        let mut is_source = vec![false; n];
        for &c in chip.source_cells() {
            is_source[c as usize] = true;
        }
        ExposureScan {
            sinks_at,
            is_source,
            disc: vec![0; n],
            low: vec![0; n],
            below: vec![0; n],
            order: Vec::with_capacity(n),
            stack: Vec::new(),
            label: vec![0; n],
            label_sink: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// `true` when the last scan pressurised `cell`.
    fn pressurised(&self, cell: u32) -> bool {
        self.disc[cell as usize] != 0
    }

    /// Sets in `row` the valves whose active stuck-at fault changes a sink
    /// reading under `vector` (see [`SingleFaultTable`]).
    fn run(&mut self, chip: &LoweredChip, vector: &TestVector, row: &mut [u64]) {
        self.disc.fill(0);
        self.label.fill(0);
        self.label_sink.clear();
        self.label_sink.push(false);
        self.order.clear();
        self.bridges(chip, vector, row);
        for oi in 0..self.order.len() {
            let c = self.order[oi] as usize;
            for k in chip.adj_start[c] as usize..chip.adj_start[c + 1] as usize {
                let gate = chip.adj_gate[k];
                let n = chip.adj_next[k];
                if !conducts(gate, vector)
                    && !self.pressurised(n)
                    && self.holds_sink(chip, vector, n)
                {
                    set_bit(row, gate);
                }
            }
        }
    }

    fn discover(&mut self, cell: u32, time: &mut u32) {
        let c = cell as usize;
        *time += 1;
        self.disc[c] = *time;
        // A source cell hangs off the super-source, so no edge below it can
        // cut it off.
        self.low[c] = if self.is_source[c] { ROOT } else { *time };
        self.below[c] = self.sinks_at[c];
        self.order.push(cell);
    }

    /// The lowlink DFS over the open subgraph from the super-source: marks
    /// the pressurised cells and sets the stuck-at-0 bits of open valves
    /// on bridges with a sink beyond them.
    fn bridges(&mut self, chip: &LoweredChip, vector: &TestVector, row: &mut [u64]) {
        let mut time = ROOT;
        for &s in chip.source_cells() {
            if self.pressurised(s) {
                continue;
            }
            self.discover(s, &mut time);
            self.stack.push(Frame {
                cell: s,
                next: chip.adj_start[s as usize],
                gate: OPEN_GATE,
            });
            while let Some(top) = self.stack.last_mut() {
                let c = top.cell as usize;
                let k = top.next as usize;
                if k < chip.adj_start[c + 1] as usize {
                    top.next += 1;
                    let gate = chip.adj_gate[k];
                    if !conducts(gate, vector) {
                        continue;
                    }
                    let n = chip.adj_next[k];
                    let ni = n as usize;
                    if !self.pressurised(n) {
                        self.discover(n, &mut time);
                        self.stack.push(Frame {
                            cell: n,
                            next: chip.adj_start[ni],
                            gate,
                        });
                    } else {
                        // The grid has no parallel edges, so the entry
                        // back to the parent cell is the tree edge itself.
                        let depth = self.stack.len();
                        let parent = (depth >= 2).then(|| self.stack[depth - 2].cell);
                        if parent != Some(n) {
                            self.low[c] = self.low[c].min(self.disc[ni]);
                        }
                    }
                } else {
                    let done = self.stack.pop().expect("non-empty stack");
                    if let Some(parent) = self.stack.last() {
                        let p = parent.cell as usize;
                        self.low[p] = self.low[p].min(self.low[c]);
                        self.below[p] += self.below[c];
                        if done.gate != OPEN_GATE && self.low[c] > self.disc[p] && self.below[c] > 0
                        {
                            set_bit(row, done.gate);
                        }
                    }
                }
            }
        }
    }

    /// `true` when the unpressurised open component of `cell` holds a
    /// sink, labelling the component on first use.
    fn holds_sink(&mut self, chip: &LoweredChip, vector: &TestVector, cell: u32) -> bool {
        if self.label[cell as usize] == 0 {
            let id = u32::try_from(self.label_sink.len()).expect("labels fit u32");
            let mut sink = false;
            self.label[cell as usize] = id;
            self.pending.push(cell);
            while let Some(c) = self.pending.pop() {
                let c = c as usize;
                sink |= self.sinks_at[c] > 0;
                for k in chip.adj_start[c] as usize..chip.adj_start[c + 1] as usize {
                    let n = chip.adj_next[k];
                    if conducts(chip.adj_gate[k], vector) && self.label[n as usize] == 0 {
                        self.label[n as usize] = id;
                        self.pending.push(n);
                    }
                }
            }
            self.label_sink.push(sink);
        }
        self.label_sink[self.label[cell as usize] as usize]
    }
}

/// Recycled [`BitSimulator`] scratch: the per-valve open lanes and the
/// BFS frontier, parked between simulator lifetimes.
struct Scratch {
    open: LaneSet,
    frontier: BitFrontier,
}

/// Per-thread pool of retired scratch buffers. Campaign and audit chunks
/// construct one short-lived `BitSimulator` per work item inside the
/// worker closures; without the pool every chunk re-allocates the lane
/// words and the frontier from cold. Bounded so a burst of simulators
/// cannot pin memory.
const SCRATCH_POOL_CAP: usize = 8;
thread_local! {
    static SCRATCH_POOL: std::cell::RefCell<Vec<Scratch>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Batch fault-detection engine: owns the scratch buffers ([`LaneSet`] of
/// per-valve open lanes + [`BitFrontier`]) so a worker can push thousands
/// of scenario blocks through without reallocating. The buffers outlive
/// the simulator itself: dropping one parks them in a per-thread pool and
/// the next construction on that thread re-shapes them instead of
/// allocating, so per-chunk simulators in campaign workers stop paying an
/// allocation per block. Recycling is invisible in the results — every
/// propagation fully overwrites the scratch it reads.
#[derive(Debug)]
pub struct BitSimulator<'c> {
    chip: &'c LoweredChip,
    open: LaneSet,
    frontier: BitFrontier,
    stats: KernelStats,
}

impl<'c> BitSimulator<'c> {
    /// A simulator (with fresh scratch state) over one lowered chip,
    /// recycling this thread's pooled buffers when available.
    pub fn new(chip: &'c LoweredChip) -> Self {
        let recycled = SCRATCH_POOL.with(|pool| pool.borrow_mut().pop());
        let (open, frontier) = match recycled {
            Some(mut s) => {
                s.open.reset(chip.valve_count());
                s.frontier.reset(chip.cell_count());
                (s.open, s.frontier)
            }
            None => (
                LaneSet::zeros(chip.valve_count()),
                BitFrontier::new(chip.cell_count()),
            ),
        };
        BitSimulator {
            chip,
            open,
            frontier,
            stats: KernelStats::default(),
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Loads the effective per-valve lane words for one vector and up to
    /// [`LANES`] fault sets, replicating [`FaultSet::effective_states`]
    /// per lane: commanded state broadcast, then control leaks force their
    /// victim closed when the actuator is commanded closed, then stuck-at
    /// faults override everything.
    fn load_open_lanes(&mut self, vector: &TestVector, sets: &[FaultSet]) {
        self.open
            .broadcast(|i| vector.is_open(fpva_grid::ValveId(i)));
        for (lane, set) in sets.iter().enumerate() {
            for fault in set.faults() {
                if let Fault::ControlLeak { actuator, victim } = fault {
                    if !vector.is_open(*actuator) {
                        self.open.clear_lane(victim.index(), lane);
                    }
                }
            }
            for fault in set.faults() {
                match fault {
                    Fault::StuckAt0(v) => self.open.clear_lane(v.index(), lane),
                    Fault::StuckAt1(v) => self.open.set_lane(v.index(), lane),
                    Fault::ControlLeak { .. } => {}
                }
            }
        }
    }

    /// Floods one vector for all lanes of `sets` and returns the lanes
    /// whose sink readings differ from `golden`.
    fn respond(&mut self, vector: &TestVector, golden: &Response, sets: &[FaultSet]) -> u64 {
        self.load_open_lanes(vector, sets);
        self.frontier.propagate(self.chip, &self.open);
        self.stats.word_passes += 1;
        let mut differs = 0u64;
        for (s, &cell) in self.chip.sink_cells().iter().enumerate() {
            let lanes = self.frontier.lanes_at(cell as usize);
            let gold = if golden.readings()[s] { !0u64 } else { 0 };
            differs |= lanes ^ gold;
        }
        differs
    }

    /// Applies every vector of `suite` to up to [`LANES`] fault sets at
    /// once and returns the detected lanes as a bitmask: bit `l` is set
    /// exactly when some vector's response under `sets[l]` deviates from
    /// the suite's golden response — the same criterion as
    /// [`TestSuite::detects`], evaluated for all lanes per pass.
    ///
    /// A vector is flooded only when some undetected lane has an active
    /// fault on it; a vector on which every undetected lane is dormant is
    /// answered without a flood (see the module docs). Vectors stop being
    /// applied once every lane is detected (the word-level analogue of the
    /// scalar early exit). Neither shortcut changes the result.
    ///
    /// Bits at and above `sets.len()` are always zero.
    ///
    /// # Panics
    ///
    /// Panics if `sets.len() > LANES`, if the suite's vectors were built
    /// for a different valve count than the lowered chip, or if a fault
    /// references a valve outside the chip.
    pub fn detect_block(&mut self, suite: &TestSuite, sets: &[FaultSet]) -> u64 {
        self.detect(suite, None, sets)
    }

    /// [`BitSimulator::detect_block`] that also answers, by lookup in
    /// `table`, every lane whose only active fault on a vector is a
    /// stuck-at; such a lane responds exactly like that single fault. A
    /// vector is then flooded only when some undetected lane has two or
    /// more active faults, or an active control leak.
    ///
    /// # Panics
    ///
    /// As [`BitSimulator::detect_block`]; also if `table` was built for a
    /// suite with a different vector count (it must be built for `suite`).
    pub fn detect_block_with(
        &mut self,
        suite: &TestSuite,
        table: &SingleFaultTable,
        sets: &[FaultSet],
    ) -> u64 {
        assert_eq!(table.vectors, suite.len(), "table/suite mismatch");
        self.detect(suite, Some(table), sets)
    }

    fn detect(
        &mut self,
        suite: &TestSuite,
        table: Option<&SingleFaultTable>,
        sets: &[FaultSet],
    ) -> u64 {
        assert!(sets.len() <= LANES, "at most {LANES} fault sets per block");
        if sets.is_empty() {
            return 0;
        }
        let live = if sets.len() == LANES {
            !0
        } else {
            (1u64 << sets.len()) - 1
        };
        self.stats.blocks += 1;
        self.stats.lanes += sets.len();
        let mut detected = 0u64;
        for (i, (vector, golden)) in suite.vectors().iter().zip(suite.expected()).enumerate() {
            if detected == live {
                break;
            }
            assert_eq!(
                vector.len(),
                self.chip.valve_count(),
                "vector/chip size mismatch"
            );
            let mut flood = 0u64;
            let mut pending = live & !detected;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let mut active = sets[lane].faults().iter().filter(|f| f.is_active(vector));
                let Some(first) = active.next() else {
                    continue;
                };
                match (first, table) {
                    (Fault::StuckAt0(v) | Fault::StuckAt1(v), Some(table))
                        if active.next().is_none() =>
                    {
                        if table.exposes(i, *v) {
                            detected |= 1 << lane;
                        }
                    }
                    _ => flood |= 1 << lane,
                }
            }
            if flood == 0 {
                self.stats.pruned_passes += 1;
                continue;
            }
            detected |= self.respond(vector, golden, sets) & live;
        }
        detected
    }
}

impl Drop for BitSimulator<'_> {
    fn drop(&mut self) {
        let open = std::mem::replace(&mut self.open, LaneSet { words: Vec::new() });
        let frontier = std::mem::replace(
            &mut self.frontier,
            BitFrontier {
                reached: LaneSet { words: Vec::new() },
                queue: VecDeque::new(),
                queued: Vec::new(),
            },
        );
        SCRATCH_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < SCRATCH_POOL_CAP {
                pool.push(Scratch { open, frontier });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::{layouts, FpvaBuilder, Side, TestVector, ValveId, ValveState};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn line3() -> Fpva {
        FpvaBuilder::new(1, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap()
    }

    #[test]
    fn lowering_drops_walls_and_tags_valves() {
        let f = FpvaBuilder::new(1, 3)
            .obstacle(0, 1, 0, 1)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let chip = LoweredChip::build(&f);
        assert_eq!(chip.cell_count(), 3);
        assert_eq!(chip.valve_count(), 0);
        // Both edges border the obstacle: all adjacency entries dropped.
        assert_eq!(chip.adj_next.len(), 0);
        assert_eq!(chip.source_cells(), &[0]);
        assert_eq!(chip.sink_cells(), &[2]);
    }

    #[test]
    fn channel_edges_are_always_open_gates() {
        let f = FpvaBuilder::new(1, 3)
            .channel_horizontal(0, 0, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let chip = LoweredChip::build(&f);
        assert!(chip.adj_gate.iter().all(|&g| g == OPEN_GATE));
        let mut sim = BitSimulator::new(&chip);
        let suite = TestSuite::new(&f, vec![TestVector::all_open(0)]);
        // Channels conduct in every lane; a fault-free block detects
        // nothing.
        assert_eq!(sim.detect_block(&suite, &[FaultSet::new()]), 0);
    }

    /// Exhaustive oracle check on a small chip: every vector × a batch of
    /// random fault sets, bit lanes vs scalar responses.
    #[test]
    fn propagation_matches_scalar_oracle_on_random_scenarios() {
        let f = layouts::full_array(3, 4);
        let chip = LoweredChip::build(&f);
        let mut frontier = BitFrontier::new(chip.cell_count());
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..8 {
            // A random vector and 64 random fault sets.
            let mut vector = TestVector::all_closed(f.valve_count());
            for (v, _) in f.valves() {
                if rng.gen_range(0..2) == 1 {
                    vector.set(v, ValveState::Open);
                }
            }
            let sets: Vec<FaultSet> = (0..LANES)
                .map(|_| crate::campaign::random_fault_set(&f, &mut rng, round % 4 + 1, true))
                .collect();
            let mut sim = BitSimulator::new(&chip);
            sim.load_open_lanes(&vector, &sets);
            frontier.propagate(&chip, &sim.open);
            for (lane, set) in sets.iter().enumerate() {
                let scalar = crate::pressure::propagate(&f, &vector, set);
                for ci in 0..f.cell_count() {
                    assert_eq!(
                        frontier.reached().lane(ci, lane),
                        scalar.at(f.cell_at(ci)),
                        "round {round} lane {lane} cell {ci}: {set:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn detect_block_matches_suite_detects() {
        let f = layouts::table1_5x5();
        let chip = LoweredChip::build(&f);
        let mut rng = StdRng::seed_from_u64(5);
        // The all-open/all-closed pair, then random vectors on which each
        // fault kind is active on some vectors and dormant on others.
        let mut vectors = vec![
            TestVector::all_open(f.valve_count()),
            TestVector::all_closed(f.valve_count()),
        ];
        for _ in 0..6 {
            vectors.push(TestVector::from_open_valves(
                f.valve_count(),
                f.valves()
                    .map(|(v, _)| v)
                    .filter(|_| rng.gen_range(0..3) != 0),
            ));
        }
        let suite = TestSuite::new(&f, vectors);
        let table = SingleFaultTable::build(&chip, &suite);
        // 70 sets with control leaks: one full block plus a partial one.
        let sets: Vec<FaultSet> = (0..70)
            .map(|i| crate::campaign::random_fault_set(&f, &mut rng, i % 5 + 1, true))
            .collect();
        let mut sim = BitSimulator::new(&chip);
        for block in sets.chunks(LANES) {
            let mask = sim.detect_block(&suite, block);
            assert_eq!(sim.detect_block_with(&suite, &table, block), mask);
            for (lane, set) in block.iter().enumerate() {
                assert_eq!(
                    mask >> lane & 1 == 1,
                    suite.detects(&f, set),
                    "lane {lane}: {set:?}"
                );
            }
            // Dead lanes of a partial block must be zero.
            if block.len() < LANES {
                assert_eq!(mask >> block.len(), 0);
            }
        }
        let stats = sim.stats();
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.lanes, 140);
        assert!(stats.word_passes >= 2);
    }

    /// A lane whose faults are all dormant on a vector has the golden
    /// response there, so a block of such lanes is not flooded.
    #[test]
    fn dormant_lanes_are_not_flooded() {
        let f = line3();
        let chip = LoweredChip::build(&f);
        // Vector 0 closes v0 and opens v1; vector 1 opens both.
        let mut first = TestVector::all_open(f.valve_count());
        first.set(ValveId(0), ValveState::Closed);
        let suite = TestSuite::new(&f, vec![first, TestVector::all_open(f.valve_count())]);
        let sets = [
            // Dormant on vector 0 (v0 commanded closed), active on 1.
            FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(0))]).unwrap(),
            // Dormant on both (v1 commanded open).
            FaultSet::try_from_faults(vec![Fault::StuckAt1(ValveId(1))]).unwrap(),
        ];
        let mut sim = BitSimulator::new(&chip);
        assert_eq!(sim.detect_block(&suite, &sets), 0b01);
        let stats = sim.stats();
        assert_eq!(stats.word_passes, 1, "only vector 1 needs a flood");
        assert_eq!(stats.pruned_passes, 1);

        // A block whose undetected lanes are all dormant is never flooded.
        let mut sim = BitSimulator::new(&chip);
        assert_eq!(sim.detect_block(&suite, &sets[1..]), 0);
        assert_eq!(sim.stats().word_passes, 0);
        assert_eq!(sim.stats().pruned_passes, 2);
    }

    #[test]
    fn leak_onto_a_closed_victim_is_dormant() {
        let f = layouts::full_array(2, 2);
        let a = ValveId(0);
        let v = f.valve_neighbors(a)[0];
        let leak = Fault::ControlLeak {
            actuator: a,
            victim: v,
        };
        let mut vector = TestVector::all_closed(f.valve_count());
        assert!(!leak.is_active(&vector), "victim commanded closed");
        vector.set(v, ValveState::Open);
        assert!(leak.is_active(&vector), "actuator closed, victim open");
        vector.set(a, ValveState::Open);
        assert!(!leak.is_active(&vector), "actuator commanded open");

        // On an all-closed vector the leak lane is dormant: no flood.
        let chip = LoweredChip::build(&f);
        let suite = TestSuite::new(&f, vec![TestVector::all_closed(f.valve_count())]);
        let mut sim = BitSimulator::new(&chip);
        let set = FaultSet::try_from_faults(vec![leak]).unwrap();
        assert_eq!(sim.detect_block(&suite, &[set]), 0);
        assert_eq!(sim.stats().word_passes, 0);
        assert_eq!(sim.stats().pruned_passes, 1);
    }

    /// A stuck-at-1 on a leak's victim overrides the leak, so the lane is
    /// neither the leak's nor the stuck-at's single-fault response on
    /// every vector; with and without the single-fault table the kernel
    /// must still agree with the scalar oracle on every vector.
    #[test]
    fn stuck_at_1_on_leak_victim_matches_oracle() {
        let f = layouts::full_array(3, 3);
        let chip = LoweredChip::build(&f);
        let mut sets = Vec::new();
        for (a, _) in f.valves() {
            for v in f.valve_neighbors(a) {
                sets.push(
                    FaultSet::try_from_faults(vec![
                        Fault::ControlLeak {
                            actuator: a,
                            victim: v,
                        },
                        Fault::StuckAt1(v),
                    ])
                    .unwrap(),
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..16 {
            let vector = TestVector::from_open_valves(
                f.valve_count(),
                f.valves()
                    .map(|(v, _)| v)
                    .filter(|_| rng.gen_range(0..2) == 1),
            );
            let suite = TestSuite::new(&f, vec![vector]);
            let table = SingleFaultTable::build(&chip, &suite);
            let mut sim = BitSimulator::new(&chip);
            for block in sets.chunks(LANES) {
                let plain = sim.detect_block(&suite, block);
                let looked_up = sim.detect_block_with(&suite, &table, block);
                for (lane, set) in block.iter().enumerate() {
                    let oracle = suite.detects(&f, set);
                    assert_eq!(plain >> lane & 1 == 1, oracle, "{set:?}");
                    assert_eq!(looked_up >> lane & 1 == 1, oracle, "{set:?}");
                }
            }
        }
    }

    /// Every table bit against the scalar oracle for the single stuck-at
    /// fault the vector activates on that valve.
    #[test]
    fn single_fault_table_matches_scalar_oracle() {
        let f = layouts::custom_biochip();
        let chip = LoweredChip::build(&f);
        let mut rng = StdRng::seed_from_u64(8);
        let vectors: Vec<TestVector> = (0..5)
            .map(|_| {
                TestVector::from_open_valves(
                    f.valve_count(),
                    f.valves()
                        .map(|(v, _)| v)
                        .filter(|_| rng.gen_range(0..4) != 0),
                )
            })
            .collect();
        let suite = TestSuite::new(&f, vectors);
        let table = SingleFaultTable::build(&chip, &suite);
        assert_eq!(
            table.stats(),
            KernelStats {
                structural_passes: suite.len(),
                ..KernelStats::default()
            }
        );
        for (i, vector) in suite.vectors().iter().enumerate() {
            let one = TestSuite::new(&f, vec![vector.clone()]);
            for (v, _) in f.valves() {
                let fault = if vector.is_open(v) {
                    Fault::StuckAt0(v)
                } else {
                    Fault::StuckAt1(v)
                };
                let set = FaultSet::try_from_faults(vec![fault]).unwrap();
                assert_eq!(table.exposes(i, v), one.detects(&f, &set), "{i} {fault}");
            }
        }
    }

    /// A valve index past the chip's last valve is an error, not a read
    /// of the row's padding bits (or of the next row).
    #[test]
    #[should_panic(expected = "outside the 2 x 2 table")]
    fn exposes_rejects_out_of_range_valves() {
        let f = line3();
        let chip = LoweredChip::build(&f);
        let suite = TestSuite::new(
            &f,
            vec![
                TestVector::all_open(f.valve_count()),
                TestVector::all_closed(f.valve_count()),
            ],
        );
        let table = SingleFaultTable::build(&chip, &suite);
        // Series line: every stuck-at-0 cuts the sink off the all-open
        // vector; no single stuck-at-1 crosses the two closed valves.
        assert_eq!(
            table.exposed(0).collect::<Vec<_>>(),
            [ValveId(0), ValveId(1)]
        );
        assert_eq!(table.exposed(1).count(), 0);
        table.exposes(0, ValveId(2));
    }

    #[test]
    fn empty_block_detects_nothing() {
        let f = line3();
        let chip = LoweredChip::build(&f);
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let mut sim = BitSimulator::new(&chip);
        assert_eq!(sim.detect_block(&suite, &[]), 0);
        assert_eq!(sim.stats(), KernelStats::default());
    }

    #[test]
    fn stuck_at_lanes_detected_independently() {
        let f = line3();
        let chip = LoweredChip::build(&f);
        // All-open path vector: a stuck-at-0 anywhere on the series line
        // kills the sink reading; a stuck-at-1 is invisible.
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let sets = [
            FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(0))]).unwrap(),
            FaultSet::try_from_faults(vec![Fault::StuckAt1(ValveId(0))]).unwrap(),
            FaultSet::new(),
            FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(1))]).unwrap(),
        ];
        let mut sim = BitSimulator::new(&chip);
        assert_eq!(sim.detect_block(&suite, &sets), 0b1001);
    }

    #[test]
    fn control_leak_follows_actuator_command_per_lane() {
        // 2x2 array; leak actuator commanded closed drags the victim
        // closed only in the lane carrying the leak.
        let f = layouts::full_array(2, 2);
        let chip = LoweredChip::build(&f);
        let a = ValveId(0);
        let v = f.valve_neighbors(a)[0];
        let mut vector = TestVector::all_open(f.valve_count());
        vector.set(a, ValveState::Closed);
        let leak = FaultSet::try_from_faults(vec![Fault::ControlLeak {
            actuator: a,
            victim: v,
        }])
        .unwrap();
        let mut sim = BitSimulator::new(&chip);
        sim.load_open_lanes(&vector, std::slice::from_ref(&leak));
        // Lane 0 carries the leak: victim closed. Lane 1 is fault-free:
        // victim follows its open command.
        assert!(!sim.open.lane(v.index(), 0));
        assert!(sim.open.lane(v.index(), 1));
        // With the actuator commanded open the leak is dormant.
        sim.load_open_lanes(&TestVector::all_open(f.valve_count()), &[leak]);
        assert!(sim.open.lane(v.index(), 0));
    }

    #[test]
    fn frontier_is_reusable_across_propagations() {
        let f = line3();
        let chip = LoweredChip::build(&f);
        let mut frontier = BitFrontier::new(chip.cell_count());
        let mut open = LaneSet::zeros(chip.valve_count());
        open.broadcast(|_| true);
        frontier.propagate(&chip, &open);
        assert_eq!(frontier.lanes_at(2), !0);
        open.broadcast(|_| false);
        frontier.propagate(&chip, &open);
        assert_eq!(frontier.lanes_at(2), 0, "stale lanes must be cleared");
        assert_eq!(frontier.lanes_at(0), !0, "sources stay pressurised");
    }

    #[test]
    fn scratch_is_recycled_across_simulators() {
        let f = layouts::table1_5x5();
        let chip = LoweredChip::build(&f);
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let set = FaultSet::new();
        let ptr = {
            let mut sim = BitSimulator::new(&chip);
            sim.detect_block(&suite, std::slice::from_ref(&set));
            sim.open.words.as_ptr()
        };
        // Drop parked the buffers in the thread-local pool; the next
        // simulator on this thread must pick them up, not allocate.
        let sim = BitSimulator::new(&chip);
        assert_eq!(sim.open.words.as_ptr(), ptr, "lane scratch reallocated");
    }

    #[test]
    fn recycled_scratch_reshapes_to_a_different_chip() {
        // Park scratch sized for a 4x4, then simulate a 1x3: the recycled
        // buffers must re-shape and produce correct (clean) results.
        let big = LoweredChip::build(&layouts::full_array(4, 4));
        drop(BitSimulator::new(&big));
        let f = line3();
        let chip = LoweredChip::build(&f);
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let mut sim = BitSimulator::new(&chip);
        assert_eq!(sim.open.len(), chip.valve_count());
        assert_eq!(
            sim.detect_block(
                &suite,
                &[
                    FaultSet::new(),
                    FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(0))]).unwrap(),
                ]
            ),
            0b10
        );
    }

    #[test]
    fn lane_set_bit_ops() {
        let mut set = LaneSet::zeros(3);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        set.set_lane(1, 63);
        assert!(set.lane(1, 63));
        assert_eq!(set.word(1), 1 << 63);
        set.clear_lane(1, 63);
        assert_eq!(set.word(1), 0);
        set.broadcast(|i| i == 2);
        assert_eq!(set.word(2), !0);
        set.clear();
        assert_eq!(set.word(2), 0);
    }
}
