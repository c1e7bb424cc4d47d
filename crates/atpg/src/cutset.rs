//! Cut-set generation (Section III-C of the paper).
//!
//! A *cut-set* is a set of valves whose simultaneous closure separates all
//! source ports from all sink ports; if a pressure meter still reads
//! pressure while a cut-set is closed, some valve is stuck-at-1. Cut-sets
//! start and end at the chip boundary (paper's observation in Fig. 7(d)).
//!
//! Geometrically a cut-set is a **path in the dual lattice**: a curve of
//! corner points crossing valve sites. On the corner-port Table I arrays,
//! straight vertical/horizontal grid lines are valid cuts — yielding
//! exactly the paper's `n_c = (rows − 1) + (cols − 1)` counts — and when a
//! transportation channel crosses a line (the channel site cannot be
//! closed), the dual search detours around it.
//!
//! The two-fault masking pattern of the paper's Fig. 5(c)/(d) is excluded
//! per constraint (9): whenever both dual endpoints of a valve lie on the
//! cut curve, that valve must itself join the cut-set — otherwise one
//! stuck-at-0 fault at that valve could "repair" the cut and mask a
//! stuck-at-1 inside it.

use crate::connectivity::Adjacency;
use crate::error::AtpgError;
use fpva_grid::{Axis, CellId, EdgeId, EdgeKind, Fpva, TestVector, ValveId, ValveState};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// A validated cut-set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CutSet {
    valves: Vec<ValveId>,
}

impl CutSet {
    /// Builds a cut-set after checking that closing `valves` (on an
    /// otherwise all-open chip) disconnects every source port from every
    /// sink port.
    ///
    /// # Errors
    ///
    /// [`AtpgError::NotSeparating`] when some sink is still reachable.
    pub fn new(fpva: &Fpva, valves: Vec<ValveId>) -> Result<Self, AtpgError> {
        CutContext::new(fpva).cut(valves)
    }

    /// The valves of the cut, ascending.
    pub fn valves(&self) -> &[ValveId] {
        &self.valves
    }

    /// Number of valves in the cut.
    pub fn len(&self) -> usize {
        self.valves.len()
    }

    /// `true` when the cut has no valves (possible when walls alone already
    /// separate the ports).
    pub fn is_empty(&self) -> bool {
        self.valves.is_empty()
    }

    /// The test vector realising the cut: cut valves closed, every other
    /// valve open.
    pub fn to_vector(&self, fpva: &Fpva) -> TestVector {
        let mut v = TestVector::all_open(fpva.valve_count());
        for &valve in &self.valves {
            v.set(valve, ValveState::Closed);
        }
        v
    }

    /// Whether the cut contains `valve`.
    pub fn covers(&self, valve: ValveId) -> bool {
        self.valves.binary_search(&valve).is_ok()
    }
}

/// A corner point of the lattice: `(i, j)` with `0 ≤ i ≤ rows`,
/// `0 ≤ j ≤ cols`.
type Corner = (usize, usize);

/// Dense index of a corner, row-major over the `(rows + 1) × (cols + 1)`
/// corner lattice.
fn corner_index(fpva: &Fpva, c: Corner) -> usize {
    c.0 * (fpva.cols() + 1) + c.1
}

fn corner_count(fpva: &Fpva) -> usize {
    (fpva.rows() + 1) * (fpva.cols() + 1)
}

/// Dense flood context of one chip, built once per [`cut_cover`] call and
/// reused by every cut: the passable adjacency, a blocked-edge mask that
/// holds the cut under test, one reach mask per side, and the corner and
/// valve masks of the constraint-(9) repair.
///
/// Closing a cut floods from the sources. That one flood is both the
/// separation check of [`CutSet::new`] and the first half of
/// [`exposed_valves`], whose second half is a flood from the sinks: two
/// floods per cut in all.
struct CutContext<'a> {
    fpva: &'a Fpva,
    adj: Adjacency,
    sources: Vec<usize>,
    sinks: Vec<usize>,
    /// Closed edges by dense edge index; `closed` lists the set entries.
    blocked: Vec<bool>,
    closed: Vec<usize>,
    from_sources: Vec<bool>,
    from_sinks: Vec<bool>,
    queue: Vec<usize>,
    /// Corners on the curve under repair, by [`corner_index`].
    on_curve: Vec<bool>,
    /// Valves already in the cut under repair.
    in_cut: Vec<bool>,
    /// Corners the second half of a forced cut may not enter.
    forbidden: Vec<bool>,
}

impl<'a> CutContext<'a> {
    fn new(fpva: &'a Fpva) -> Self {
        let passable: Vec<bool> = fpva.edges().map(|(_, k)| k != EdgeKind::Wall).collect();
        CutContext {
            fpva,
            adj: Adjacency::new(fpva, &passable),
            sources: fpva
                .sources()
                .map(|(_, p)| fpva.cell_index(p.cell))
                .collect(),
            sinks: fpva.sinks().map(|(_, p)| fpva.cell_index(p.cell)).collect(),
            blocked: vec![false; fpva.edge_count()],
            closed: Vec::new(),
            from_sources: vec![false; fpva.cell_count()],
            from_sinks: vec![false; fpva.cell_count()],
            queue: Vec::with_capacity(fpva.cell_count()),
            on_curve: vec![false; corner_count(fpva)],
            in_cut: vec![false; fpva.valve_count()],
            forbidden: vec![false; corner_count(fpva)],
        }
    }

    /// Closes exactly `valves` (every other valve open) and floods from
    /// the sources.
    fn close(&mut self, valves: &[ValveId]) {
        for &e in &self.closed {
            self.blocked[e] = false;
        }
        self.closed.clear();
        for &v in valves {
            let e = self.fpva.edge_index(self.fpva.edge_of(v));
            self.blocked[e] = true;
            self.closed.push(e);
        }
        self.adj.flood(
            &self.blocked,
            &self.sources,
            &mut self.from_sources,
            &mut self.queue,
        );
    }

    /// [`CutSet::new`]: on success the cut stays closed, with its source
    /// flood ready for [`CutContext::exposed`].
    fn cut(&mut self, mut valves: Vec<ValveId>) -> Result<CutSet, AtpgError> {
        valves.sort_unstable();
        valves.dedup();
        self.close(&valves);
        match self.sinks.iter().find(|&&s| self.from_sources[s]) {
            Some(&sink) => Err(AtpgError::NotSeparating {
                reached_sink: self.fpva.cell_at(sink),
            }),
            None => Ok(CutSet { valves }),
        }
    }

    /// [`exposed_valves`] of the cut last closed, which must be `valves`:
    /// one flood from the sinks, read against the source flood.
    fn exposed(&mut self, valves: &[ValveId]) -> Vec<ValveId> {
        debug_assert_eq!(self.closed.len(), valves.len());
        self.adj.flood(
            &self.blocked,
            &self.sinks,
            &mut self.from_sinks,
            &mut self.queue,
        );
        let (s, t) = (&self.from_sources, &self.from_sinks);
        valves
            .iter()
            .copied()
            .filter(|&v| {
                let (a, b) = self.fpva.valve_endpoints(v);
                let (a, b) = (self.fpva.cell_index(a), self.fpva.cell_index(b));
                (s[a] && t[b]) || (s[b] && t[a])
            })
            .collect()
    }

    /// Applies the paper's constraint (9) to a cut curve: every valve whose
    /// *both* dual endpoints lie on the curve is added to `valves`, so that
    /// no single stuck-at-0 valve can re-form the cut and mask a
    /// stuck-at-1 inside it (Fig. 5(c)/(d)).
    fn repair(&mut self, corners: &[Corner], valves: &mut Vec<ValveId>) {
        let fpva = self.fpva;
        for &c in corners {
            self.on_curve[corner_index(fpva, c)] = true;
        }
        for &v in valves.iter() {
            self.in_cut[v.index()] = true;
        }
        for (valve, edge) in fpva.valves() {
            if self.in_cut[valve.index()] {
                continue;
            }
            let (p, q) = dual_endpoints(edge);
            if self.on_curve[corner_index(fpva, p)] && self.on_curve[corner_index(fpva, q)] {
                valves.push(valve);
            }
        }
        for &c in corners {
            self.on_curve[corner_index(fpva, c)] = false;
        }
        for &v in valves.iter() {
            self.in_cut[v.index()] = false;
        }
    }

    /// The cut of a dual-lattice curve: its crossed valves plus `extra`,
    /// repaired per constraint (9), if they separate.
    fn curve_cut(&mut self, curve: &[Corner], extra: Option<ValveId>) -> Option<CutSet> {
        let mut valves = crossed_valves(self.fpva, curve);
        valves.extend(extra);
        self.repair(curve, &mut valves);
        self.cut(valves).ok()
    }

    /// [`straight_line_cuts`]. `accepted` sees each new cut while it is
    /// still closed, so it may ask for [`CutContext::exposed`].
    fn straight_lines(&mut self, mut accepted: impl FnMut(&mut Self, &CutSet)) -> Vec<CutSet> {
        let fpva = self.fpva;
        let (rows, cols) = (fpva.rows(), fpva.cols());
        // Moves on the intended grid line cost 1, everything else 2
        // (keeps detours local).
        let vertical = (1..cols).map(|j| {
            let cost = move |a: Corner, b: Corner| if a.1 == j && b.1 == j { 1 } else { 2 };
            dual_dijkstra(fpva, (0, j), (rows, j), cost)
        });
        let horizontal = (1..rows).map(|i| {
            let cost = move |a: Corner, b: Corner| if a.0 == i && b.0 == i { 1 } else { 2 };
            dual_dijkstra(fpva, (i, 0), (i, cols), cost)
        });
        let mut cuts: Vec<CutSet> = Vec::new();
        let mut seen: HashSet<Vec<ValveId>> = HashSet::new();
        for curve in vertical.chain(horizontal).flatten() {
            let Some(cut) = self.curve_cut(&curve, None) else {
                continue;
            };
            if seen.insert(cut.valves().to_vec()) {
                accepted(self, &cut);
                cuts.push(cut);
            }
        }
        cuts
    }

    /// [`cut_through_valve`], with the cut's exposed members.
    fn through_valve(&mut self, valve: ValveId) -> Option<(CutSet, Vec<ValveId>)> {
        let fpva = self.fpva;
        let (rows, cols) = (fpva.rows(), fpva.cols());
        let (p, q) = dual_endpoints(fpva.edge_of(valve));
        // The curve must leave sources and sinks on opposite sides; which
        // pair of boundary sides achieves that depends on the port
        // placement, so probe all combinations and keep the first
        // separating curve.
        type SideGoal = fn(Corner, usize, usize) -> bool;
        let sides: [SideGoal; 4] = [
            |c, _, _| c.0 == 0,
            |c, rows, _| c.0 == rows,
            |c, _, _| c.1 == 0,
            |c, _, cols| c.1 == cols,
        ];
        for g1 in sides {
            for g2 in sides {
                self.forbidden[corner_index(fpva, q)] = true;
                let half1 = dual_bfs(fpva, p, |c| g1(c, rows, cols), &self.forbidden);
                self.forbidden[corner_index(fpva, q)] = false;
                let Some(half1) = half1 else {
                    continue;
                };
                for &c in &half1 {
                    self.forbidden[corner_index(fpva, c)] = true;
                }
                let half2 = dual_bfs(fpva, q, |c| g2(c, rows, cols), &self.forbidden);
                for &c in &half1 {
                    self.forbidden[corner_index(fpva, c)] = false;
                }
                let Some(half2) = half2 else {
                    continue;
                };
                // Assemble: boundary <- half1 reversed, p, q, half2 -> boundary.
                let mut curve: Vec<Corner> = half1.into_iter().rev().collect();
                curve.extend(half2);
                let Some(cut) = self.curve_cut(&curve, Some(valve)) else {
                    continue;
                };
                // The cut must be *minimal through `valve`*: a stuck-at-1
                // at `valve` is only observable if opening it alone
                // reconnects a source to a sink, i.e. if the cut exposes
                // it. Otherwise try the next curve shape.
                let exposed = self.exposed(cut.valves());
                if exposed.binary_search(&valve).is_ok() {
                    return Some((cut, exposed));
                }
            }
        }
        None
    }
}

/// The lattice edge crossed when the cut curve moves between two adjacent
/// corners, or `None` for moves along the chip boundary.
fn crossing(fpva: &Fpva, a: Corner, b: Corner) -> Option<EdgeId> {
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let ((i0, j0), (i1, j1)) = if a <= b { (a, b) } else { (b, a) };
    if j0 == j1 && i1 == i0 + 1 {
        // Vertical move at column boundary j0: crosses H(i0, j0-1).
        if j0 >= 1 && j0 < cols {
            Some(EdgeId::horizontal(i0, j0 - 1))
        } else {
            None
        }
    } else if i0 == i1 && j1 == j0 + 1 {
        // Horizontal move at row boundary i0: crosses V(i0-1, j0).
        if i0 >= 1 && i0 < rows {
            Some(EdgeId::vertical(i0 - 1, j0))
        } else {
            None
        }
    } else {
        None
    }
}

fn corner_neighbors(fpva: &Fpva, c: Corner) -> Vec<Corner> {
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let mut out = Vec::with_capacity(4);
    if c.0 > 0 {
        out.push((c.0 - 1, c.1));
    }
    if c.0 < rows {
        out.push((c.0 + 1, c.1));
    }
    if c.1 > 0 {
        out.push((c.0, c.1 - 1));
    }
    if c.1 < cols {
        out.push((c.0, c.1 + 1));
    }
    out
}

/// May the cut curve take this move? Boundary moves are free; interior
/// moves must cross a closable site (a valve) or an existing wall — never
/// an always-open channel site.
fn move_allowed(fpva: &Fpva, a: Corner, b: Corner) -> bool {
    match crossing(fpva, a, b) {
        None => true,
        Some(edge) => fpva.edge_kind(edge) != EdgeKind::Open,
    }
}

/// Dijkstra in the dual lattice from `start` to the exact corner `goal`,
/// with per-move costs from `cost`. Used for the straight-line cuts: moves
/// off the intended grid line are penalised so a channel produces a *local*
/// detour around its end instead of sliding the whole curve onto the
/// neighbouring line (which would collapse two cuts into one).
fn dual_dijkstra(
    fpva: &Fpva,
    start: Corner,
    goal: Corner,
    cost: impl Fn(Corner, Corner) -> usize,
) -> Option<Vec<Corner>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let index = |c: Corner| corner_index(fpva, c);
    let n = corner_count(fpva);
    let mut dist = vec![usize::MAX; n];
    let mut prev: Vec<Option<Corner>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[index(start)] = 0;
    heap.push(Reverse((0usize, start)));
    while let Some(Reverse((d, c))) = heap.pop() {
        if c == goal {
            let mut path = vec![c];
            let mut cur = c;
            while let Some(p) = prev[index(cur)] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        if d > dist[index(c)] {
            continue;
        }
        for nb in corner_neighbors(fpva, c) {
            if !move_allowed(fpva, c, nb) {
                continue;
            }
            let nd = d + cost(c, nb);
            if nd < dist[index(nb)] {
                dist[index(nb)] = nd;
                prev[index(nb)] = Some(c);
                heap.push(Reverse((nd, nb)));
            }
        }
    }
    None
}

/// BFS in the dual lattice from `start` to `goal`, avoiding the corners
/// set in the `forbidden` mask (by [`corner_index`]). Returns the corner
/// sequence.
fn dual_bfs(
    fpva: &Fpva,
    start: Corner,
    goal: impl Fn(Corner) -> bool,
    forbidden: &[bool],
) -> Option<Vec<Corner>> {
    let index = |c: Corner| corner_index(fpva, c);
    if forbidden[index(start)] {
        return None;
    }
    let mut prev: Vec<Option<Corner>> = vec![None; corner_count(fpva)];
    let mut seen = vec![false; corner_count(fpva)];
    let mut queue = VecDeque::new();
    seen[index(start)] = true;
    queue.push_back(start);
    while let Some(c) = queue.pop_front() {
        if goal(c) {
            let mut path = vec![c];
            let mut cur = c;
            while let Some(p) = prev[index(cur)] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for n in corner_neighbors(fpva, c) {
            if !seen[index(n)] && !forbidden[index(n)] && move_allowed(fpva, c, n) {
                seen[index(n)] = true;
                prev[index(n)] = Some(c);
                queue.push_back(n);
            }
        }
    }
    None
}

fn crossed_valves(fpva: &Fpva, corners: &[Corner]) -> Vec<ValveId> {
    corners
        .windows(2)
        .filter_map(|w| crossing(fpva, w[0], w[1]))
        .filter_map(|e| fpva.valve_at(e))
        .collect()
}

/// The two corner points bounding a lattice edge's crossing segment.
fn dual_endpoints(edge: EdgeId) -> (Corner, Corner) {
    let CellId { row, col } = edge.cell;
    match edge.axis {
        // H(r, c) separates cells (r,c)/(r,c+1): segment at column boundary
        // c+1 from corner (r, c+1) to (r+1, c+1).
        Axis::Horizontal => ((row, col + 1), (row + 1, col + 1)),
        // V(r, c): segment at row boundary r+1 from (r+1, c) to (r+1, c+1).
        Axis::Vertical => ((row + 1, col), (row + 1, col + 1)),
    }
}

/// Valves of a cut curve that violate constraint (9) — used by tests and
/// audits; the generators below always repair violations instead.
pub fn masking_violations(fpva: &Fpva, cut: &CutSet, curve: &[Corner]) -> Vec<ValveId> {
    let on_curve: HashSet<Corner> = curve.iter().copied().collect();
    fpva.valves()
        .filter(|&(v, edge)| {
            if cut.covers(v) {
                return false;
            }
            let (p, q) = dual_endpoints(edge);
            on_curve.contains(&p) && on_curve.contains(&q)
        })
        .map(|(v, _)| v)
        .collect()
}

/// Generates the straight-line cut family: one cut per interior column
/// boundary (vertical lines) and one per interior row boundary (horizontal
/// lines), with dual-lattice detours around channels and the constraint-(9)
/// repair applied. Degenerate curves that fail to separate are dropped.
///
/// On the Table I arrays this produces exactly
/// `(rows − 1) + (cols − 1)` cut-sets — the paper's `n_c` column.
pub fn straight_line_cuts(fpva: &Fpva) -> Result<Vec<CutSet>, AtpgError> {
    require_ports(fpva)?;
    Ok(CutContext::new(fpva).straight_lines(|_, _| {}))
}

fn require_ports(fpva: &Fpva) -> Result<(), AtpgError> {
    if fpva.sources().next().is_none() || fpva.sinks().next().is_none() {
        return Err(AtpgError::MissingPorts);
    }
    Ok(())
}

/// A cut forced through the given valve's dual segment: the curve runs
/// from one endpoint of the segment to the chip boundary, and from the
/// other endpoint to the boundary avoiding the first half. Used to cover
/// valves the straight-line family misses.
pub fn cut_through_valve(fpva: &Fpva, valve: ValveId) -> Option<CutSet> {
    CutContext::new(fpva)
        .through_valve(valve)
        .map(|(cut, _)| cut)
}

/// Result of [`cut_cover`].
#[derive(Debug, Clone)]
pub struct CutCover {
    /// The generated cut-sets.
    pub cuts: Vec<CutSet>,
    /// Valves in no cut-set (their stuck-at-1 fault is untestable by
    /// cut vectors); empty on the paper's layouts.
    pub uncovered: Vec<ValveId>,
}

impl CutCover {
    /// `true` when every valve is in at least one cut.
    pub fn is_complete(&self) -> bool {
        self.uncovered.is_empty()
    }
}

/// Valves of `cut` whose stuck-at-1 fault the cut vector *exposes*:
/// opening that valve alone (everything else as commanded) reconnects a
/// source to a sink. Valves the cut merely contains redundantly (e.g.
/// added by the constraint-(9) repair) are not exposed by it.
///
/// Two floods decide every member at once: with the whole cut closed,
/// flood from the sources and from the sinks. A member is exposed iff one
/// of its cells is source-reachable and the other sink-reachable. This is
/// exact because the cut separates, so the two flooded regions are
/// disjoint: reopening one member joins them iff it bridges both.
/// [`cut_cover`] reuses the source flood of each cut's separation check,
/// so only the sink flood is extra.
pub fn exposed_valves(fpva: &Fpva, cut: &CutSet) -> Vec<ValveId> {
    let mut ctx = CutContext::new(fpva);
    ctx.close(cut.valves());
    ctx.exposed(cut.valves())
}

/// The full cut-set generator: straight-line cuts plus targeted cuts for
/// any valve whose stuck-at-1 fault the lines do not *expose* (membership
/// in a cut is not enough — see [`exposed_valves`]).
///
/// One dense flood context serves the whole chip: each cut costs two
/// floods, the source flood of its separation check and the sink flood of
/// its exposure.
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the array lacks ports.
pub fn cut_cover(fpva: &Fpva) -> Result<CutCover, AtpgError> {
    require_ports(fpva)?;
    let mut ctx = CutContext::new(fpva);
    let mut exposed = vec![false; fpva.valve_count()];
    let mut cuts = ctx.straight_lines(|ctx, cut| {
        for v in ctx.exposed(cut.valves()) {
            exposed[v.index()] = true;
        }
    });
    let mut uncovered = Vec::new();
    for (v, _) in fpva.valves() {
        if exposed[v.index()] {
            continue;
        }
        // A forced cut is returned only if it exposes `v` itself.
        match ctx.through_valve(v) {
            Some((cut, members)) => {
                for w in members {
                    exposed[w.index()] = true;
                }
                cuts.push(cut);
            }
            None => uncovered.push(v),
        }
    }
    Ok(CutCover { cuts, uncovered })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{reachable_from, sink_cells, source_cells};
    use fpva_grid::{layouts, FpvaBuilder, PortKind, Side};

    #[test]
    fn straight_cut_counts_match_table1() {
        for entry in layouts::table1() {
            let cuts = straight_line_cuts(&entry.fpva).unwrap();
            assert_eq!(
                cuts.len(),
                entry.paper_cut_sets,
                "{}: cut count deviates from Table I",
                entry.name
            );
        }
    }

    #[test]
    fn cuts_cover_every_valve_on_table1_arrays() {
        for entry in layouts::table1() {
            let cover = cut_cover(&entry.fpva).unwrap();
            assert!(
                cover.is_complete(),
                "{}: uncovered {:?}",
                entry.name,
                cover.uncovered
            );
        }
    }

    #[test]
    fn cut_vectors_block_all_pressure() {
        use fpva_sim::{respond, FaultSet};
        let f = layouts::table1_5x5();
        for cut in straight_line_cuts(&f).unwrap() {
            let vec = cut.to_vector(&f);
            let r = respond(&f, &vec, &FaultSet::new());
            assert!(!r.any_pressure(), "cut {:?} leaks", cut.valves());
        }
    }

    #[test]
    fn invalid_cut_rejected() {
        let f = layouts::full_array(3, 3);
        // A single valve never separates a 3x3 grid.
        let err = CutSet::new(&f, vec![ValveId(0)]).unwrap_err();
        assert!(matches!(err, AtpgError::NotSeparating { .. }));
    }

    #[test]
    fn full_column_line_is_a_cut() {
        let f = layouts::full_array(3, 3);
        // Vertical line between columns 0 and 1: H(0,0), H(1,0), H(2,0).
        let valves: Vec<ValveId> = (0..3)
            .map(|r| f.valve_at(EdgeId::horizontal(r, 0)).unwrap())
            .collect();
        let cut = CutSet::new(&f, valves).unwrap();
        assert_eq!(cut.len(), 3);
        assert!(!cut.is_empty());
    }

    #[test]
    fn straight_cuts_have_no_masking_violations_on_full_grid() {
        let f = layouts::full_array(4, 4);
        let mut ctx = CutContext::new(&f);
        let none = vec![false; corner_count(&f)];
        // Regenerate the curves to audit them.
        for j in 1..4 {
            let curve = dual_bfs(&f, (0, j), |c| c.0 == 4, &none).unwrap();
            let mut valves = crossed_valves(&f, &curve);
            ctx.repair(&curve, &mut valves);
            let cut = CutSet::new(&f, valves).unwrap();
            assert!(masking_violations(&f, &cut, &curve).is_empty());
        }
    }

    #[test]
    fn channel_detour_still_separates() {
        // Channel crossing every vertical line of its columns.
        let f = FpvaBuilder::new(3, 4)
            .channel_horizontal(1, 0, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(2, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let cuts = straight_line_cuts(&f).unwrap();
        assert!(!cuts.is_empty());
        use fpva_sim::{respond, FaultSet};
        for cut in &cuts {
            assert!(!respond(&f, &cut.to_vector(&f), &FaultSet::new()).any_pressure());
        }
    }

    #[test]
    fn cut_through_specific_valve() {
        let f = layouts::full_array(4, 4);
        for (v, _) in f.valves() {
            let cut = cut_through_valve(&f, v).unwrap_or_else(|| panic!("no cut through {v}"));
            assert!(cut.covers(v));
        }
    }

    /// The per-member oracle [`exposed_valves`] replaced: one whole-chip
    /// flood per cut valve, with every other member closed.
    fn reference_exposed_valves(fpva: &Fpva, cut: &CutSet) -> Vec<ValveId> {
        let sources = source_cells(fpva);
        let sinks = sink_cells(fpva);
        cut.valves()
            .iter()
            .copied()
            .filter(|&v| {
                let blocked: HashSet<EdgeId> = cut
                    .valves()
                    .iter()
                    .filter(|&&w| w != v)
                    .map(|&w| fpva.edge_of(w))
                    .collect();
                let reach = reachable_from(fpva, &sources, &blocked);
                sinks.iter().any(|&s| reach[fpva.cell_index(s)])
            })
            .collect()
    }

    fn assert_exposure_matches_reference(f: &Fpva, cut: &CutSet) {
        assert_eq!(
            exposed_valves(f, cut),
            reference_exposed_valves(f, cut),
            "exposure of cut {:?} differs",
            cut.valves()
        );
    }

    fn assert_cover_exposure_matches_reference(chips: &[Fpva]) {
        for f in chips {
            for cut in cut_cover(f).unwrap().cuts {
                assert_exposure_matches_reference(f, &cut);
            }
        }
    }

    #[test]
    fn exposure_matches_reference_on_generated_cuts() {
        let mut chips = vec![layouts::table1_5x5(), layouts::table1_10x10()];
        chips.extend((2..=12).map(|n| layouts::full_array(n, n)));
        chips.push(layouts::custom_biochip());
        assert_cover_exposure_matches_reference(&chips);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "per-valve oracle is slow unoptimised: run with --release"
    )]
    fn exposure_matches_reference_on_large_table1_cuts() {
        assert_cover_exposure_matches_reference(&[
            layouts::table1_15x15(),
            layouts::table1_20x20(),
            layouts::table1_30x30(),
        ]);
    }

    #[test]
    fn exposure_matches_reference_on_random_separating_sets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let chips = [
            layouts::table1_5x5(),
            layouts::full_array(4, 6),
            layouts::custom_biochip(),
        ];
        for f in &chips {
            let mut tested = 0;
            for round in 0..90 {
                // Dense random subsets separate often; mixing in a known
                // cut keeps sparse, barely-separating ones in the sample.
                let density = [0.4, 0.6, 0.8][round % 3];
                let mut valves: Vec<ValveId> = f
                    .valves()
                    .map(|(v, _)| v)
                    .filter(|_| rng.gen_bool(density))
                    .collect();
                if round % 2 == 0 {
                    let lines = straight_line_cuts(f).unwrap();
                    let line = &lines[rng.gen_range(0..lines.len())];
                    valves = line
                        .valves()
                        .iter()
                        .copied()
                        .chain(valves.into_iter().filter(|_| rng.gen_bool(0.1)))
                        .collect();
                }
                if let Ok(cut) = CutSet::new(f, valves) {
                    assert_exposure_matches_reference(f, &cut);
                    tested += 1;
                }
            }
            assert!(tested > 25, "only {tested} separating sets sampled");
        }
    }

    #[test]
    fn permanently_split_chip_exposes_no_stuck_at_1() {
        // Obstacle spanning a full column splits the chip for good: the
        // meters can never see pressure, so no stuck-at-1 fault is
        // observable and cut_cover must report every valve as uncovered
        // rather than fabricate useless cuts.
        let f = FpvaBuilder::new(3, 5)
            .obstacle(0, 2, 2, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(2, 4, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let cover = cut_cover(&f).unwrap();
        assert!(!cover.is_complete());
        assert_eq!(cover.uncovered.len(), f.valve_count());
    }

    #[test]
    fn exposure_ignores_redundant_members() {
        // A cut with one redundant valve: v is in the cut but opening it
        // does not reconnect anything.
        let f = layouts::full_array(2, 2);
        // Close all 4 valves: a valid cut; opening any single one does not
        // reconnect (0,0) to (1,1)... except it does via two hops? No: one
        // open valve joins only two cells; reaching the sink from the
        // source needs two open valves. So nothing is exposed.
        let all: Vec<ValveId> = f.valves().map(|(v, _)| v).collect();
        let cut = CutSet::new(&f, all).unwrap();
        assert!(exposed_valves(&f, &cut).is_empty());
        // The two-valve cut {H(0,0), V(0,0)} isolates the source cell and
        // exposes both members.
        let tight = CutSet::new(
            &f,
            vec![
                f.valve_at(EdgeId::horizontal(0, 0)).unwrap(),
                f.valve_at(EdgeId::vertical(0, 0)).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(exposed_valves(&f, &tight).len(), 2);
    }
}
