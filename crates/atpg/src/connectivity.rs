//! Graph utilities over the valve lattice: reachability and randomized
//! simple-path search. These are the workhorses behind the greedy path
//! cover, the leakage generator and cut-set validation.

use fpva_grid::{CellId, EdgeId, EdgeKind, Fpva, PortId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Whether fluid could ever cross this edge on a fault-free chip (i.e. the
/// edge is a valve or an always-open channel site, not a wall).
pub fn edge_passable(fpva: &Fpva, edge: EdgeId) -> bool {
    fpva.edge_kind(edge) != EdgeKind::Wall
}

/// Resolves the source and sink ports whose cells are the endpoints of a
/// search result. [`path_through_edge`] routes between *arbitrary*
/// source/sink pairs, so callers must not assume the chip's first ports;
/// on multi-port chips that assumption rejects (or mis-labels) every path
/// that terminates elsewhere.
pub fn endpoint_ports(fpva: &Fpva, cells: &[CellId]) -> Option<(PortId, PortId)> {
    let first = *cells.first()?;
    let last = *cells.last()?;
    let source = fpva
        .sources()
        .find(|(_, p)| p.cell == first)
        .map(|(id, _)| id)?;
    let sink = fpva
        .sinks()
        .find(|(_, p)| p.cell == last)
        .map(|(id, _)| id)?;
    Some((source, sink))
}

/// Component id per cell (indexed by [`Fpva::cell_index`]) where cells
/// joined by always-open channel edges share a component. Cells outside
/// channels are singleton components.
///
/// Pressure spreads freely inside such a component, so a flow path that
/// visits one component in two separate stretches has an implicit bypass
/// loop through the channel — [`crate::FlowPath`] rejects that.
pub fn open_components(fpva: &Fpva) -> Vec<usize> {
    let mut comp = vec![usize::MAX; fpva.cell_count()];
    let mut next = 0usize;
    for cell in fpva.cells() {
        let ix = fpva.cell_index(cell);
        if comp[ix] != usize::MAX {
            continue;
        }
        comp[ix] = next;
        let mut queue = std::collections::VecDeque::from([cell]);
        while let Some(c) = queue.pop_front() {
            for (edge, n) in fpva.neighbors(c) {
                if fpva.edge_kind(edge) == EdgeKind::Open {
                    let ni = fpva.cell_index(n);
                    if comp[ni] == usize::MAX {
                        comp[ni] = next;
                        queue.push_back(n);
                    }
                }
            }
        }
        next += 1;
    }
    comp
}

/// Rewrites a simple path so that every open component is visited in one
/// contiguous run: between the first entry into a component and the last
/// exit from it, the detour outside is replaced by the in-component route
/// (always-open edges, so the replacement is physically equivalent — the
/// detour segment was a pressure bypass anyway). Returns the repaired
/// simple path.
pub fn repair_contiguity(fpva: &Fpva, components: &[usize], mut cells: Vec<CellId>) -> Vec<CellId> {
    'outer: loop {
        // Locate a component whose occurrences are non-contiguous.
        let comp_of = |c: CellId| components[fpva.cell_index(c)];
        for i in 0..cells.len() {
            let c = comp_of(cells[i]);
            let first = cells
                .iter()
                .position(|&x| comp_of(x) == c)
                .expect("present");
            if first < i {
                continue; // handled when scanning `first`
            }
            let last = cells
                .iter()
                .rposition(|&x| comp_of(x) == c)
                .expect("present");
            let gap = (first..=last).any(|k| comp_of(cells[k]) != c);
            if !gap {
                continue;
            }
            // Splice: prefix ..=first, in-component route, suffix last.. .
            let inner = path_within_component(fpva, components, c, cells[first], cells[last]);
            let mut repaired = cells[..first].to_vec();
            repaired.extend(inner);
            repaired.extend(cells[last + 1..].iter().copied());
            cells = repaired;
            continue 'outer;
        }
        return cells;
    }
}

/// BFS route between two cells of one open component using only the
/// component's always-open edges.
///
/// # Panics
///
/// Panics if the cells are not in component `comp` (components are
/// connected by construction, so a route always exists).
fn path_within_component(
    fpva: &Fpva,
    components: &[usize],
    comp: usize,
    from: CellId,
    to: CellId,
) -> Vec<CellId> {
    assert_eq!(components[fpva.cell_index(from)], comp);
    assert_eq!(components[fpva.cell_index(to)], comp);
    let mut prev: Vec<Option<CellId>> = vec![None; fpva.cell_count()];
    let mut seen = vec![false; fpva.cell_count()];
    seen[fpva.cell_index(from)] = true;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(c) = queue.pop_front() {
        if c == to {
            let mut path = vec![c];
            let mut cur = c;
            while let Some(p) = prev[fpva.cell_index(cur)] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return path;
        }
        for (edge, n) in fpva.neighbors(c) {
            if fpva.edge_kind(edge) == EdgeKind::Open
                && components[fpva.cell_index(n)] == comp
                && !seen[fpva.cell_index(n)]
            {
                seen[fpva.cell_index(n)] = true;
                prev[fpva.cell_index(n)] = Some(c);
                queue.push_back(n);
            }
        }
    }
    panic!("open component {comp} is not connected");
}

/// Checks the channel-contiguity rule: the cells of every open component
/// appear as one contiguous run of `cells`.
pub fn components_contiguous(fpva: &Fpva, components: &[usize], cells: &[CellId]) -> bool {
    let mut closed: HashSet<usize> = HashSet::new();
    let mut current = usize::MAX;
    for &cell in cells {
        let c = components[fpva.cell_index(cell)];
        if c == current {
            continue;
        }
        if current != usize::MAX {
            closed.insert(current);
        }
        if closed.contains(&c) {
            return false;
        }
        current = c;
    }
    true
}

/// Cells of all source ports.
pub fn source_cells(fpva: &Fpva) -> Vec<CellId> {
    fpva.sources().map(|(_, p)| p.cell).collect()
}

/// Cells of all sink ports.
pub fn sink_cells(fpva: &Fpva) -> Vec<CellId> {
    fpva.sinks().map(|(_, p)| p.cell).collect()
}

/// BFS over passable edges, skipping `blocked` edges. Returns a
/// `cell_count()`-sized reachability mask.
pub fn reachable_from(fpva: &Fpva, starts: &[CellId], blocked: &HashSet<EdgeId>) -> Vec<bool> {
    let (passable, closed): (Vec<bool>, Vec<bool>) = fpva
        .edges()
        .map(|(edge, kind)| (kind != EdgeKind::Wall, blocked.contains(&edge)))
        .unzip();
    let starts: Vec<usize> = starts.iter().map(|&c| fpva.cell_index(c)).collect();
    let mut seen = vec![false; fpva.cell_count()];
    Adjacency::new(fpva, &passable).flood(&closed, &starts, &mut seen, &mut Vec::new());
    seen
}

/// Dense adjacency of the usable lattice edges, in compressed-row form:
/// for each cell index, `(edge index, neighbour cell index)` pairs in
/// [`Fpva::neighbors`] order. Shared by the router and the cut-set flood
/// context, which differ only in which edges they may cross.
pub(crate) struct Adjacency {
    /// `adj[start[c]..start[c + 1]]` are the entries of cell index `c`.
    start: Vec<usize>,
    adj: Vec<(usize, usize)>,
}

impl Adjacency {
    /// The adjacency over the edges whose dense index is `usable`.
    pub(crate) fn new(fpva: &Fpva, usable: &[bool]) -> Self {
        let mut start = Vec::with_capacity(fpva.cell_count() + 1);
        let mut adj = Vec::with_capacity(2 * fpva.edge_count());
        start.push(0);
        for cell in fpva.cells() {
            for (edge, next) in fpva.neighbors(cell) {
                let e = fpva.edge_index(edge);
                if usable[e] {
                    adj.push((e, fpva.cell_index(next)));
                }
            }
            start.push(adj.len());
        }
        Adjacency { start, adj }
    }

    /// The usable `(edge index, neighbour cell index)` pairs of `cell`.
    pub(crate) fn of(&self, cell: usize) -> &[(usize, usize)] {
        &self.adj[self.start[cell]..self.start[cell + 1]]
    }

    /// Multi-source BFS from the cell indices `starts` over the usable
    /// edges not set in the `blocked` edge mask. Overwrites `seen` with the
    /// reached cells; `queue` is scratch.
    pub(crate) fn flood(
        &self,
        blocked: &[bool],
        starts: &[usize],
        seen: &mut [bool],
        queue: &mut Vec<usize>,
    ) {
        seen.fill(false);
        queue.clear();
        for &s in starts {
            if !seen[s] {
                seen[s] = true;
                queue.push(s);
            }
        }
        let mut head = 0;
        while let Some(&cell) = queue.get(head) {
            head += 1;
            for &(edge, next) in self.of(cell) {
                if !blocked[edge] && !seen[next] {
                    seen[next] = true;
                    queue.push(next);
                }
            }
        }
    }
}

/// Per-call routing context of [`path_through_edge`], built once and
/// reused by every attempt: the passable, non-avoided adjacency, the
/// `prefer` verdict per edge, and the search scratch (visited mask, BFS
/// queue, flat choice stack).
struct Router {
    adj: Adjacency,
    /// `prefer(edge)` per dense edge index (only usable edges evaluated).
    preferred: Vec<bool>,
    /// Cells the path under construction may not enter.
    visited: Vec<bool>,
    /// Reachability pre-check scratch.
    seen: Vec<bool>,
    queue: Vec<usize>,
    /// Remaining neighbour choices of every open DFS frame, concatenated;
    /// `frames` holds the offset where each frame starts.
    choices: Vec<(usize, usize)>,
    frames: Vec<usize>,
    /// Expansion budget per segment: enough to walk the whole array with
    /// moderate backtracking, but far below exponential enumeration.
    budget: usize,
}

impl Router {
    fn new(fpva: &Fpva, avoid: &HashSet<EdgeId>, prefer: &dyn Fn(EdgeId) -> bool) -> Self {
        let mut usable = vec![false; fpva.edge_count()];
        let mut preferred = vec![false; fpva.edge_count()];
        for (i, (edge, kind)) in fpva.edges().enumerate() {
            if kind != EdgeKind::Wall && !avoid.contains(&edge) {
                usable[i] = true;
                preferred[i] = prefer(edge);
            }
        }
        Router {
            adj: Adjacency::new(fpva, &usable),
            preferred,
            visited: vec![false; fpva.cell_count()],
            seen: vec![false; fpva.cell_count()],
            queue: Vec::new(),
            choices: Vec::new(),
            frames: Vec::new(),
            budget: 16 * fpva.cell_count() + 64,
        }
    }

    /// Whether `goal` is reachable from `start` without entering a
    /// visited cell.
    fn reachable(&mut self, start: usize, goal: usize) -> bool {
        if start == goal {
            return true;
        }
        self.seen.fill(false);
        self.seen[start] = true;
        self.queue.clear();
        self.queue.push(start);
        let mut head = 0;
        while let Some(&cell) = self.queue.get(head) {
            head += 1;
            for &(_, next) in self.adj.of(cell) {
                if next == goal && !self.visited[next] {
                    return true;
                }
                if !self.visited[next] && !self.seen[next] {
                    self.seen[next] = true;
                    self.queue.push(next);
                }
            }
        }
        false
    }

    /// Opens a DFS frame for `cell`: its unvisited neighbours, shuffled,
    /// then stably ordered with preferred edges last (the frame is popped
    /// last-in-first-out, so preferred edges are tried first).
    fn expand(&mut self, cell: usize, rng: &mut impl Rng) {
        let start = self.choices.len();
        for &(edge, next) in self.adj.of(cell) {
            if !self.visited[next] {
                self.choices.push((edge, next));
            }
        }
        let preferred = &self.preferred;
        let frame = &mut self.choices[start..];
        frame.shuffle(rng);
        frame.sort_by_key(|&(e, _)| preferred[e]);
        self.frames.push(start);
    }

    /// Randomised depth-first search for a simple path `start → goal` that
    /// never enters a visited cell. On success the path's cells are
    /// appended to `path` and marked visited; on failure (goal walled off,
    /// or the expansion budget spent) `path` and the visited set are left
    /// as they were.
    fn segment(
        &mut self,
        start: usize,
        goal: usize,
        path: &mut Vec<usize>,
        rng: &mut impl Rng,
    ) -> bool {
        if self.visited[start] || !self.reachable(start, goal) {
            return false;
        }
        let base = path.len();
        path.push(start);
        self.visited[start] = true;
        if start == goal {
            return true;
        }
        self.choices.clear();
        self.frames.clear();
        self.expand(start, rng);
        let mut budget = self.budget;
        while let Some(&frame) = self.frames.last() {
            if budget == 0 {
                for &cell in &path[base..] {
                    self.visited[cell] = false;
                }
                path.truncate(base);
                return false;
            }
            budget -= 1;
            if self.choices.len() == frame {
                // Backtrack.
                let dead = path.pop().expect("path nonempty while a frame is open");
                self.visited[dead] = false;
                self.frames.pop();
                continue;
            }
            let (_, next) = self.choices.pop().expect("open frame has a choice");
            if self.visited[next] {
                continue;
            }
            self.visited[next] = true;
            path.push(next);
            if next == goal {
                return true;
            }
            self.expand(next, rng);
        }
        false
    }
}

/// Searches for a simple source→sink path crossing `edge`, avoiding the
/// `avoid` edges. Tries both orientations of `edge` and up to `tries`
/// random restarts.
///
/// Each attempt draws a source and a sink port, then routes two segments
/// by randomised depth-first search: source → near endpoint (never
/// entering the far endpoint), then far endpoint → sink (never re-entering
/// the first segment). Neighbour order is shuffled, with edges for which
/// `prefer` returns `true` tried first — the greedy cover passes "edge's
/// valve still uncovered" here, which makes the search naturally
/// serpentine through unexplored array regions. Each segment gives up
/// after an expansion budget proportional to the array size rather than
/// backtracking exhaustively (which would be exponential when the goal is
/// walled off); the next attempt re-randomises instead. A path that
/// re-enters a transportation channel is repaired by splicing in the
/// in-channel route, and the attempt fails if the repair drops `edge`.
///
/// The routing context (adjacency, `avoid`/`prefer` masks, channel
/// components, search buffers) is built once per call, so `prefer` is
/// evaluated once per usable edge and must not change during the call.
///
/// Returns the cell sequence (first cell = a source-port cell, last = a
/// sink-port cell), or `None` when no attempt succeeds — which, after
/// enough tries on these well-connected lattices, is strong evidence the
/// valve cannot lie on any simple source→sink path.
pub fn path_through_edge(
    fpva: &Fpva,
    edge: EdgeId,
    avoid: &HashSet<EdgeId>,
    prefer: &dyn Fn(EdgeId) -> bool,
    rng: &mut impl Rng,
    tries: usize,
) -> Option<Vec<CellId>> {
    if !edge_passable(fpva, edge) || avoid.contains(&edge) {
        return None;
    }
    let sources: Vec<usize> = fpva
        .sources()
        .map(|(_, p)| fpva.cell_index(p.cell))
        .collect();
    let sinks: Vec<usize> = fpva.sinks().map(|(_, p)| fpva.cell_index(p.cell)).collect();
    let (a, b) = edge.endpoints();
    let (a, b) = (fpva.cell_index(a), fpva.cell_index(b));
    let mut router = Router::new(fpva, avoid, prefer);
    let comps = open_components(fpva);
    let mut path: Vec<usize> = Vec::new();
    for attempt in 0..tries {
        let (u, v) = if attempt % 2 == 0 { (a, b) } else { (b, a) };
        let src = sources[rng.gen_range(0..sources.len())];
        let snk = sinks[rng.gen_range(0..sinks.len())];
        router.visited.fill(false);
        path.clear();
        // Segment 1: source -> u (must not consume v, or the path could
        // not continue across the edge).
        router.visited[v] = true;
        if !router.segment(src, u, &mut path, rng) {
            continue;
        }
        router.visited[v] = false;
        // Segment 2: v -> sink, avoiding everything segment 1 used.
        if !router.segment(v, snk, &mut path, rng) {
            continue;
        }
        let mut cells: Vec<CellId> = path.iter().map(|&i| fpva.cell_at(i)).collect();
        // Channel-bypass repair: splice out detours that re-enter an open
        // component. The repair may remove the requested edge, in which
        // case this attempt failed and the next one re-randomises.
        if !components_contiguous(fpva, &comps, &cells) {
            cells = repair_contiguity(fpva, &comps, cells);
        }
        let crosses = cells
            .windows(2)
            .any(|w| fpva.edge_between(w[0], w[1]) == Some(edge));
        if !crosses {
            continue;
        }
        debug_assert!(components_contiguous(fpva, &comps, &cells));
        return Some(cells);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::{layouts, FpvaBuilder, PortKind, Side};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The `HashSet`-based router that [`path_through_edge`] replaced, kept
    /// verbatim as the oracle of the differential tests below: the dense
    /// kernel must return the same paths *and* leave the RNG in the same
    /// state, draw for draw.
    mod reference {
        use super::super::{components_contiguous, open_components, repair_contiguity};
        use super::super::{edge_passable, sink_cells, source_cells};
        use fpva_grid::{CellId, EdgeId, Fpva};
        use rand::seq::SliceRandom;
        use rand::Rng;
        use std::collections::HashSet;

        /// Randomized depth-first search for a simple path `start → goal` over
        /// passable edges.
        ///
        /// * `avoid` edges are never crossed;
        /// * `visited` cells are never entered (the caller threads this through to
        ///   concatenate segments into one simple path); on success the cells of
        ///   the returned path are added to it;
        /// * neighbour order is randomly shuffled but edges for which `prefer`
        ///   returns `true` are tried first — the greedy cover passes "edge's valve
        ///   still uncovered" here, which makes the search naturally serpentine
        ///   through unexplored array regions.
        ///
        /// The search gives up after a work budget proportional to the array size
        /// rather than backtracking exhaustively (which would be exponential when
        /// the goal has been walled off); the caller retries with fresh
        /// randomness instead.
        ///
        /// Returns the cell sequence `start ..= goal`, or `None` when the search
        /// exhausts its budget (the caller typically retries with fresh
        /// randomness).
        pub fn random_simple_path(
            fpva: &Fpva,
            start: CellId,
            goal: CellId,
            avoid: &HashSet<EdgeId>,
            visited: &mut HashSet<CellId>,
            prefer: &dyn Fn(EdgeId) -> bool,
            rng: &mut impl Rng,
        ) -> Option<Vec<CellId>> {
            if visited.contains(&start) {
                return None;
            }
            // Expansion budget: enough to walk the whole array with moderate
            // backtracking, but far below exponential enumeration.
            let mut budget = 16 * fpva.cell_count() + 64;
            // Cheap pre-check: is the goal even reachable around `visited`?
            {
                let mut seen = vec![false; fpva.cell_count()];
                let mut queue = std::collections::VecDeque::new();
                seen[fpva.cell_index(start)] = true;
                queue.push_back(start);
                let mut found = start == goal;
                while let Some(cell) = queue.pop_front() {
                    if found {
                        break;
                    }
                    for (edge, next) in fpva.neighbors(cell) {
                        if edge_passable(fpva, edge)
                            && !avoid.contains(&edge)
                            && !visited.contains(&next)
                            && !seen[fpva.cell_index(next)]
                        {
                            if next == goal {
                                found = true;
                                break;
                            }
                            seen[fpva.cell_index(next)] = true;
                            queue.push_back(next);
                        }
                    }
                }
                if !found {
                    return None;
                }
            }
            // Iterative DFS: stack of (cell, remaining neighbour choices).
            let mut path: Vec<CellId> = vec![start];
            let mut choice_stack: Vec<Vec<(EdgeId, CellId)>> = Vec::new();
            visited.insert(start);
            let mut order_buffer: Vec<(EdgeId, CellId)> = Vec::new();

            let expand = |cell: CellId,
                          visited: &HashSet<CellId>,
                          rng: &mut dyn rand::RngCore,
                          buf: &mut Vec<(EdgeId, CellId)>| {
                buf.clear();
                for (edge, next) in fpva.neighbors(cell) {
                    if edge_passable(fpva, edge)
                        && !avoid.contains(&edge)
                        && !visited.contains(&next)
                    {
                        buf.push((edge, next));
                    }
                }
                buf.shuffle(rng);
                // Stable partition: preferred edges first (tried last-in-first-out,
                // so push preferred LAST).
                buf.sort_by_key(|&(e, _)| prefer(e));
            };

            if start == goal {
                return Some(path);
            }
            expand(start, visited, rng, &mut order_buffer);
            choice_stack.push(order_buffer.clone());

            while let Some(choices) = choice_stack.last_mut() {
                if budget == 0 {
                    // Unwind whatever this attempt consumed and give up.
                    for cell in path {
                        visited.remove(&cell);
                    }
                    return None;
                }
                budget -= 1;
                let Some((_, next)) = choices.pop() else {
                    // Backtrack.
                    let dead = path.pop().expect("path nonempty while stack nonempty");
                    visited.remove(&dead);
                    choice_stack.pop();
                    continue;
                };
                if visited.contains(&next) {
                    continue;
                }
                visited.insert(next);
                path.push(next);
                if next == goal {
                    return Some(path);
                }
                expand(next, visited, rng, &mut order_buffer);
                choice_stack.push(order_buffer.clone());
            }
            None
        }

        /// Searches for a simple source→sink path crossing `edge`, avoiding the
        /// `avoid` edges. Tries both orientations of `edge` and up to `tries`
        /// random restarts.
        ///
        /// Returns the cell sequence (first cell = a source-port cell, last = a
        /// sink-port cell), or `None` when no attempt succeeds — which, after
        /// enough tries on these well-connected lattices, is strong evidence the
        /// valve cannot lie on any simple source→sink path.
        pub fn path_through_edge(
            fpva: &Fpva,
            edge: EdgeId,
            avoid: &HashSet<EdgeId>,
            prefer: &dyn Fn(EdgeId) -> bool,
            rng: &mut impl Rng,
            tries: usize,
        ) -> Option<Vec<CellId>> {
            if !edge_passable(fpva, edge) || avoid.contains(&edge) {
                return None;
            }
            let sources = source_cells(fpva);
            let sinks = sink_cells(fpva);
            let (a, b) = edge.endpoints();
            for attempt in 0..tries {
                let (u, v) = if attempt % 2 == 0 { (a, b) } else { (b, a) };
                let src = sources[rng.gen_range(0..sources.len())];
                let snk = sinks[rng.gen_range(0..sinks.len())];
                let mut visited: HashSet<CellId> = HashSet::new();
                // Segment 1: source -> u (must not consume v, or the path could
                // not continue across the edge).
                visited.insert(v);
                let Some(seg1) = random_simple_path(fpva, src, u, avoid, &mut visited, prefer, rng)
                else {
                    continue;
                };
                visited.remove(&v);
                // Segment 2: v -> sink, avoiding everything segment 1 used.
                let Some(seg2) = random_simple_path(fpva, v, snk, avoid, &mut visited, prefer, rng)
                else {
                    continue;
                };
                let mut cells = seg1;
                cells.extend(seg2);
                // Channel-bypass repair: splice out detours that re-enter an open
                // component. The repair may remove the requested edge, in which
                // case this attempt failed and the next one re-randomises.
                let comps = open_components(fpva);
                if !components_contiguous(fpva, &comps, &cells) {
                    cells = repair_contiguity(fpva, &comps, cells);
                }
                let crosses = cells
                    .windows(2)
                    .any(|w| fpva.edge_between(w[0], w[1]) == Some(edge));
                if !crosses {
                    continue;
                }
                debug_assert!(components_contiguous(fpva, &comps, &cells));
                return Some(cells);
            }
            None
        }
    }

    #[test]
    fn reachability_full_grid() {
        let f = layouts::full_array(3, 3);
        let seen = reachable_from(&f, &[CellId::new(0, 0)], &HashSet::new());
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reachability_respects_blocked_edges() {
        let f = layouts::full_array(1, 3);
        let blocked: HashSet<EdgeId> = [EdgeId::horizontal(0, 1)].into_iter().collect();
        let seen = reachable_from(&f, &[CellId::new(0, 0)], &blocked);
        assert!(seen[f.cell_index(CellId::new(0, 1))]);
        assert!(!seen[f.cell_index(CellId::new(0, 2))]);
    }

    #[test]
    fn obstacles_block_reachability() {
        let f = FpvaBuilder::new(3, 3)
            .obstacle(0, 1, 2, 1)
            .port(0, 0, Side::West, PortKind::Source)
            .port(2, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let seen = reachable_from(&f, &[CellId::new(0, 0)], &HashSet::new());
        assert!(
            !seen[f.cell_index(CellId::new(0, 2))],
            "obstacle column splits the array"
        );
    }

    /// One DFS segment of the production kernel, `start → goal`, with no
    /// avoided edges and nothing visited beforehand.
    fn route(
        f: &Fpva,
        start: CellId,
        goal: CellId,
        prefer: &dyn Fn(EdgeId) -> bool,
        rng: &mut StdRng,
    ) -> Option<Vec<CellId>> {
        let mut router = Router::new(f, &HashSet::new(), prefer);
        let mut path = Vec::new();
        router
            .segment(f.cell_index(start), f.cell_index(goal), &mut path, rng)
            .then(|| path.iter().map(|&i| f.cell_at(i)).collect())
    }

    #[test]
    fn random_path_reaches_goal_and_is_simple() {
        let f = layouts::full_array(4, 4);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let path = route(
                &f,
                CellId::new(0, 0),
                CellId::new(3, 3),
                &|_| false,
                &mut rng,
            )
            .expect("full grid is connected");
            assert_eq!(path[0], CellId::new(0, 0));
            assert_eq!(*path.last().unwrap(), CellId::new(3, 3));
            let unique: HashSet<_> = path.iter().collect();
            assert_eq!(unique.len(), path.len(), "path must be simple");
            for w in path.windows(2) {
                assert!(f.edge_between(w[0], w[1]).is_some());
            }
        }
    }

    #[test]
    fn path_through_every_edge_of_small_grid() {
        let f = layouts::full_array(3, 3);
        let mut rng = StdRng::seed_from_u64(11);
        for (_, edge) in f.valves() {
            let cells = path_through_edge(&f, edge, &HashSet::new(), &|_| false, &mut rng, 64)
                .unwrap_or_else(|| panic!("no path through {edge}"));
            let crossed = cells
                .windows(2)
                .any(|w| f.edge_between(w[0], w[1]) == Some(edge));
            assert!(crossed, "returned path skips the requested edge {edge}");
        }
    }

    #[test]
    fn path_through_edge_respects_avoid() {
        let f = layouts::full_array(1, 3);
        let mut rng = StdRng::seed_from_u64(5);
        // A 1x3 pipeline: avoiding edge 0 makes edge 1 unreachable.
        let avoid: HashSet<EdgeId> = [EdgeId::horizontal(0, 0)].into_iter().collect();
        let got = path_through_edge(
            &f,
            EdgeId::horizontal(0, 1),
            &avoid,
            &|_| false,
            &mut rng,
            16,
        );
        assert!(got.is_none());
    }

    #[test]
    fn open_components_group_channel_cells() {
        let f = FpvaBuilder::new(3, 4)
            .channel_horizontal(1, 0, 2)
            .port(0, 0, Side::North, PortKind::Source)
            .port(2, 3, Side::South, PortKind::Sink)
            .build()
            .unwrap();
        let comps = open_components(&f);
        let id = |r, c| comps[f.cell_index(CellId::new(r, c))];
        assert_eq!(id(1, 0), id(1, 1));
        assert_eq!(id(1, 1), id(1, 2));
        assert_ne!(id(1, 0), id(1, 3));
        assert_ne!(id(0, 0), id(1, 0));
        // Singleton components are all distinct.
        assert_ne!(id(0, 0), id(0, 1));
    }

    #[test]
    fn contiguity_rule_accepts_single_pass() {
        let f = FpvaBuilder::new(3, 4)
            .channel_horizontal(1, 0, 2)
            .port(0, 0, Side::North, PortKind::Source)
            .port(2, 3, Side::South, PortKind::Sink)
            .build()
            .unwrap();
        let comps = open_components(&f);
        // Straight pass through the channel: fine.
        let pass: Vec<CellId> = vec![
            CellId::new(0, 0),
            CellId::new(1, 0),
            CellId::new(1, 1),
            CellId::new(2, 1),
        ];
        assert!(components_contiguous(&f, &comps, &pass));
        // Leave the channel and come back: bypass loop, rejected.
        let reenter: Vec<CellId> = vec![
            CellId::new(1, 0),
            CellId::new(0, 0),
            CellId::new(0, 1),
            CellId::new(1, 1),
        ];
        assert!(!components_contiguous(&f, &comps, &reenter));
    }

    #[test]
    fn path_through_edge_respects_channel_contiguity() {
        use rand::SeedableRng;
        // Vertical channel: paths crossing it twice are rejected, so every
        // returned path must be contiguous per component.
        let f = FpvaBuilder::new(5, 5)
            .channel_vertical(2, 1, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(4, 4, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let comps = open_components(&f);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for (_, edge) in f.valves() {
            if let Some(cells) =
                path_through_edge(&f, edge, &HashSet::new(), &|_| false, &mut rng, 64)
            {
                assert!(
                    components_contiguous(&f, &comps, &cells),
                    "path through {edge} re-enters the channel"
                );
            }
        }
    }

    #[test]
    fn preference_biases_first_steps() {
        // With a strong preference for uncovered (here: vertical) edges the
        // first move from the corner should be south rather than east.
        let f = layouts::full_array(3, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let path = route(
            &f,
            CellId::new(0, 0),
            CellId::new(2, 2),
            &|e| e.axis == fpva_grid::Axis::Vertical,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            path[1],
            CellId::new(1, 0),
            "preferred (vertical) edge tried first"
        );
    }

    /// Runs the production and the reference router from the same RNG
    /// state and asserts the same result and the same RNG state after.
    fn assert_same_route(
        f: &Fpva,
        edge: EdgeId,
        avoid: &HashSet<EdgeId>,
        prefer: &dyn Fn(EdgeId) -> bool,
        rng: &StdRng,
        tries: usize,
    ) {
        let (mut fast_rng, mut slow_rng) = (rng.clone(), rng.clone());
        let fast = path_through_edge(f, edge, avoid, prefer, &mut fast_rng, tries);
        let slow = reference::path_through_edge(f, edge, avoid, prefer, &mut slow_rng, tries);
        assert_eq!(fast, slow, "routes through {edge} differ (avoid {avoid:?})");
        assert_eq!(
            fast_rng.next_u64(),
            slow_rng.next_u64(),
            "RNG streams diverge after routing through {edge}"
        );
    }

    /// Every valve of `f`, each with a random `avoid` set (some of the
    /// valve's physical neighbours, as in leakage routing, plus one valve
    /// anywhere) and a random `prefer` mask of varying density.
    fn differential_sweep(f: &Fpva, seed: u64, tries: usize) {
        use rand::Rng;
        let mut draw = StdRng::seed_from_u64(seed);
        for (v, edge) in f.valves() {
            let mut avoid: HashSet<EdgeId> = f
                .valve_neighbors(v)
                .into_iter()
                .filter(|_| draw.gen_bool(0.3))
                .map(|n| f.edge_of(n))
                .collect();
            if draw.gen_bool(0.5) {
                let any = fpva_grid::ValveId(draw.gen_range(0..f.valve_count()));
                avoid.insert(f.edge_of(any));
            }
            let density = [0.0, 0.3, 0.7][v.index() % 3];
            let mask: Vec<bool> = (0..f.edge_count())
                .map(|_| draw.gen_bool(density))
                .collect();
            let prefer = |e: EdgeId| mask[f.edge_index(e)];
            let rng = StdRng::seed_from_u64(draw.gen_range(0..u64::MAX));
            assert_same_route(f, edge, &avoid, &prefer, &rng, tries);
        }
    }

    /// A 4×4 chip whose channel cells form a 2×2 block: the valve V(1,1)
    /// joins two cells of one open component.
    fn shared_component_chip() -> Fpva {
        FpvaBuilder::new(4, 4)
            .channel_horizontal(1, 0, 1)
            .channel_horizontal(2, 0, 1)
            .channel_vertical(0, 1, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(3, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap()
    }

    #[test]
    fn router_matches_reference_on_small_table1_chips() {
        for (i, entry) in layouts::table1().into_iter().take(2).enumerate() {
            differential_sweep(&entry.fpva, 100 + i as u64, 4);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "reference router is slow unoptimised: run with --release"
    )]
    fn router_matches_reference_on_large_table1_chips() {
        // Two tries cover both orientations; most calls here exhaust them,
        // which is where the two kernels' RNG consumption could diverge.
        for (i, entry) in layouts::table1().into_iter().enumerate().skip(2) {
            differential_sweep(&entry.fpva, 100 + i as u64, 2);
        }
    }

    #[test]
    fn router_matches_reference_on_channelled_and_multi_sink_chips() {
        let obstacled = FpvaBuilder::new(5, 5)
            .channel_vertical(2, 1, 3)
            .obstacle(3, 0, 4, 0)
            .port(0, 0, Side::West, PortKind::Source)
            .port(4, 4, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        differential_sweep(&layouts::custom_biochip(), 0, 2);
        for (seed, f) in [obstacled, shared_component_chip()].iter().enumerate() {
            differential_sweep(f, 1 + seed as u64, 4);
            // The escalated retry budget leakage routing falls back to.
            differential_sweep(f, 50 + seed as u64, 64);
        }
    }

    #[test]
    fn router_matches_reference_inside_one_channel_component() {
        let f = shared_component_chip();
        let comps = open_components(&f);
        let edge = EdgeId::vertical(1, 1);
        assert!(f.valve_at(edge).is_some());
        let (a, b) = edge.endpoints();
        assert_eq!(comps[f.cell_index(a)], comps[f.cell_index(b)]);
        let mut found = 0;
        for seed in 0..32 {
            let rng = StdRng::seed_from_u64(seed);
            assert_same_route(&f, edge, &HashSet::new(), &|_| false, &rng, 16);
            let mut rng = rng.clone();
            if let Some(cells) =
                path_through_edge(&f, edge, &HashSet::new(), &|_| false, &mut rng, 16)
            {
                assert!(components_contiguous(&f, &comps, &cells));
                assert!(cells
                    .windows(2)
                    .any(|w| f.edge_between(w[0], w[1]) == Some(edge)));
                found += 1;
            }
        }
        assert!(found > 0, "no route through the in-component valve");
    }
}
