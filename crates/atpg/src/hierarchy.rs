//! Hierarchical path construction (Section III-B-4 of the paper).
//!
//! The paper partitions the array into subblocks (5×5 in its evaluation),
//! solves the path problem per block and stitches subpaths along the
//! top-level flow directions. This module implements that decomposition
//! for the corner-port arrays of Table I as **block bands**:
//!
//! * one flow path per *row band* of `block_size` rows — it descends the
//!   west boundary column, serpentines through the whole band (covering
//!   every horizontal valve of those rows, exactly the subpaths of the
//!   paper's Fig. 7(b) concatenated across the block row) and continues to
//!   the sink: down the east column when the serpentine ends east (odd
//!   height), else down the west column and east along the bottom row;
//! * the *closing* row band (the last, below row 0) of even height has no
//!   bottom row left to run along, so it goes the other way round: east
//!   along row 0, down the east column to its first row, then a
//!   serpentine that starts westward and so ends on the sink;
//! * one flow path per *column band*, mirrored.
//!
//! On a full array this is exactly `⌈rows/b⌉ + ⌈cols/b⌉` paths at every
//! band height `b < min(rows, cols)`. A band whose path is blocked (an
//! obstacle or a wall on it, or ports off the corners) is counted in
//! [`PathCover::skipped_bands`], and a greedy fix-up stage routes
//! [`PathCover::fixup_paths`] more paths through the valves no band
//! covers — the hierarchical trade-off the paper reports: a few more
//! vectors than the direct model, far better scalability.

use crate::cover::CoverageTracker;
use crate::error::AtpgError;
use crate::heuristic::{cover_remaining, serpentine_cells, transpose, PathCover};
use crate::path::FlowPath;
use fpva_grid::{CellId, CellKind, Fpva, PortId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the hierarchical engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Subblock edge length. `None` (the default) derives it from the
    /// array dimensions via [`HierarchyConfig::derived_block_size`]; a
    /// `Some` value overrides the derivation (the paper evaluates with a
    /// fixed 5).
    pub block_size: Option<usize>,
    /// Seed for the greedy fix-up stage.
    pub seed: u64,
    /// Routing attempts per valve in the fix-up stage.
    pub tries: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            block_size: None,
            seed: 0x11EA_2017,
            tries: 64,
        }
    }
}

impl HierarchyConfig {
    /// Band height derived from the array size, per the Fig. 8 trade-off:
    /// each band of `b` rows contributes one flow path, so the band count
    /// (and with it the vector count) falls as `b` grows, while the
    /// paper's per-block solve cost argument caps how far `b` may grow
    /// with the array. Half the geometric-mean edge length reproduces the
    /// paper's choice of 5 on the 10×10 evaluation array and keeps small
    /// arrays at that floor.
    pub fn derived_block_size(rows: usize, cols: usize) -> usize {
        let half_mean = ((rows * cols) as f64).sqrt() / 2.0;
        (half_mean.round() as usize).clamp(5, 15)
    }

    /// The band height to use for `fpva`: the explicit override when
    /// set; otherwise [`HierarchyConfig::derived_block_size`] — unless
    /// the array contains obstacle cells, where the derivation falls
    /// back to the paper's 5. A band whose serpentine crosses an
    /// obstacle is skipped wholesale and its valves fall to the greedy
    /// fix-up, so on obstacled arrays a taller band *loses* coverage and
    /// time instead of saving paths (measured: the Table I 20×20 and
    /// 30×30 go incomplete at their derived heights).
    pub fn resolved_block_size(&self, fpva: &Fpva) -> usize {
        if let Some(block) = self.block_size {
            return block.max(1);
        }
        let has_obstacles = fpva
            .cells()
            .any(|c| fpva.cell_kind(c) == CellKind::Obstacle);
        if has_obstacles {
            5
        } else {
            Self::derived_block_size(fpva.rows(), fpva.cols())
        }
    }
}

fn ports(fpva: &Fpva) -> Result<(PortId, PortId), AtpgError> {
    let source = fpva
        .sources()
        .next()
        .map(|(id, _)| id)
        .ok_or(AtpgError::MissingPorts)?;
    let sink = fpva
        .sinks()
        .next()
        .map(|(id, _)| id)
        .ok_or(AtpgError::MissingPorts)?;
    Ok((source, sink))
}

/// Cell sequence of the row-band path for rows `r0..=r1` of a
/// `rows × cols` array, from the top-left source to the bottom-right sink.
fn row_band_cells(rows: usize, cols: usize, r0: usize, r1: usize) -> Vec<CellId> {
    let ends_east = (r1 - r0).is_multiple_of(2);
    if !ends_east && r1 == rows - 1 && r0 > 0 {
        // Closing band of even height: run east along row 0 and down the
        // east column, then serpentine westward first, ending on the sink.
        let mut cells: Vec<CellId> = (0..cols).map(|c| CellId::new(0, c)).collect();
        cells.extend((1..r0).map(|r| CellId::new(r, cols - 1)));
        let band = serpentine_cells(r0, r1, cols);
        cells.extend(
            band.into_iter()
                .map(|c| CellId::new(c.row, cols - 1 - c.col)),
        );
        return cells;
    }
    let mut cells: Vec<CellId> = (0..r0).map(|r| CellId::new(r, 0)).collect();
    cells.extend(serpentine_cells(r0, r1, cols));
    if ends_east {
        // Band ends at (r1, cols-1): descend the east column to the sink.
        cells.extend((r1 + 1..rows).map(|r| CellId::new(r, cols - 1)));
    } else {
        // Band ends at (r1, 0): keep descending the west column, then run
        // east along the bottom row.
        cells.extend((r1 + 1..rows).map(|r| CellId::new(r, 0)));
        cells.extend((1..cols).map(|c| CellId::new(rows - 1, c)));
    }
    cells
}

/// The bands `(first, last)` of `block` lines each (the last may be
/// shorter) partitioning `0..len`.
fn bands(len: usize, block: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(block)
        .map(move |first| (first, (first + block - 1).min(len - 1)))
}

/// The band paths, row bands first: a column band is a row band of the
/// transposed array, transposed back. Returns them with the number of
/// bands whose path [`FlowPath::new`] rejected.
fn band_paths(fpva: &Fpva, block_size: usize) -> Result<(Vec<FlowPath>, usize), AtpgError> {
    let (source, sink) = ports(fpva)?;
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let row_bands = bands(rows, block_size).map(|(r0, r1)| row_band_cells(rows, cols, r0, r1));
    let col_bands =
        bands(cols, block_size).map(|(c0, c1)| transpose(row_band_cells(cols, rows, c0, c1)));
    let mut paths = Vec::new();
    let mut skipped = 0;
    for cells in row_bands.chain(col_bands) {
        match FlowPath::new(fpva, source, sink, cells) {
            Ok(path) => paths.push(path),
            Err(_) => skipped += 1,
        }
    }
    Ok((paths, skipped))
}

/// Hierarchical path cover: band paths plus a greedy fix-up for valves the
/// bands miss. [`PathCover::skipped_bands`] counts the bands that could
/// not be built, and [`PathCover::fixup_paths`] the paths the fix-up
/// added; both are 0 on a full array at any band height below both
/// dimensions.
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the array lacks a source or a
/// sink port.
pub fn hierarchical_cover(fpva: &Fpva, config: &HierarchyConfig) -> Result<PathCover, AtpgError> {
    let block = config.resolved_block_size(fpva);
    let (mut paths, skipped_bands) = band_paths(fpva, block)?;
    let band_count = paths.len();
    let mut tracker = CoverageTracker::new(fpva);
    for p in &paths {
        tracker.cover_all(p.valves(fpva));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let uncovered = cover_remaining(fpva, &mut tracker, &mut paths, &mut rng, config.tries)?;
    Ok(PathCover {
        fixup_paths: paths.len() - band_count,
        skipped_bands,
        paths,
        uncovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::layouts;

    fn assert_complete(fpva: &Fpva, cover: &PathCover) {
        assert!(cover.is_complete(), "uncovered: {:?}", cover.uncovered);
        let mut tracker = CoverageTracker::new(fpva);
        for p in &cover.paths {
            tracker.cover_all(p.valves(fpva));
        }
        assert!(tracker.is_complete());
    }

    #[test]
    fn full_10x10_needs_exactly_four_band_paths() {
        // The paper's Fig. 8(b): hierarchical model with 5x5 blocks on the
        // full 10x10 array yields 4 paths.
        let f = layouts::full_array(10, 10);
        let cover = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        assert_eq!(cover.paths.len(), 4);
        assert_complete(&f, &cover);
    }

    #[test]
    fn bands_handle_partial_blocks() {
        // 7 rows with block size 5: a 5-band and a 2-band.
        let f = layouts::full_array(7, 7);
        let cover = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        assert_complete(&f, &cover);
    }

    #[test]
    fn all_table1_layouts_covered() {
        for entry in layouts::table1() {
            let cover = hierarchical_cover(&entry.fpva, &HierarchyConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert_complete(&entry.fpva, &cover);
            // Sanity: vector count stays in the paper's order of magnitude
            // (Table I reports 4..=20 flow paths for these arrays).
            assert!(
                cover.paths.len() <= 2 * entry.paper_flow_paths + 8,
                "{}: {} paths vs paper {}",
                entry.name,
                cover.paths.len(),
                entry.paper_flow_paths
            );
        }
    }

    #[test]
    fn derived_block_size_tracks_array_dims() {
        assert_eq!(HierarchyConfig::derived_block_size(5, 5), 5);
        assert_eq!(HierarchyConfig::derived_block_size(10, 10), 5);
        assert_eq!(HierarchyConfig::derived_block_size(15, 15), 8);
        assert_eq!(HierarchyConfig::derived_block_size(30, 30), 15);
        // Obstacled arrays fall back to the paper's 5.
        let obstacled = layouts::table1_30x30();
        assert_eq!(
            HierarchyConfig::default().resolved_block_size(&obstacled),
            5
        );
        // Explicit override always wins.
        let cfg = HierarchyConfig {
            block_size: Some(7),
            ..Default::default()
        };
        assert_eq!(cfg.resolved_block_size(&obstacled), 7);
    }

    #[test]
    fn derived_bands_on_30x30_need_4_paths_vs_12_without_fixup() {
        // The Fig. 8 trade-off on the obstacle-free 30×30: the derived
        // band height (15) needs a third of the paths of the historical
        // fixed 5, and neither height leaves work to the fix-up.
        let f = layouts::full_array(30, 30);
        let fixed = HierarchyConfig {
            block_size: Some(5),
            ..Default::default()
        };
        for (config, paths) in [(fixed, 12), (HierarchyConfig::default(), 4)] {
            let cover = hierarchical_cover(&f, &config).unwrap();
            assert_complete(&f, &cover);
            assert_eq!((cover.fixup_paths, cover.skipped_bands), (0, 0));
            assert_eq!(cover.paths.len(), paths, "{config:?}");
        }
    }

    /// Every band height `b` below both dimensions of the full `r×c`
    /// arrays with `r` in `rows` and `c ∈ {r, r+1, r+3}`: one valid path
    /// per band covers the array, with nothing skipped and nothing left to
    /// the fix-up. (At `b ≥` a dimension a single band of even height may
    /// have no route to the sink at all, e.g. 4×4 at `b = 4`.)
    fn assert_bands_alone_cover(rows: std::ops::RangeInclusive<usize>) {
        for r in rows {
            for c in [r, r + 1, r + 3] {
                let f = layouts::full_array(r, c);
                for b in 1..r.min(c) {
                    let config = HierarchyConfig {
                        block_size: Some(b),
                        ..Default::default()
                    };
                    let cover = hierarchical_cover(&f, &config).unwrap();
                    assert_complete(&f, &cover);
                    assert_eq!(
                        (cover.fixup_paths, cover.skipped_bands),
                        (0, 0),
                        "{r}x{c} at band height {b}"
                    );
                    assert_eq!(
                        cover.paths.len(),
                        r.div_ceil(b) + c.div_ceil(b),
                        "{r}x{c} at band height {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn bands_alone_cover_small_full_arrays_at_every_height() {
        assert_bands_alone_cover(2..=12);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "hundreds of large covers are slow unoptimised: run with --release"
    )]
    fn bands_alone_cover_full_arrays_up_to_40_at_every_height() {
        assert_bands_alone_cover(13..=40);
    }

    #[test]
    fn block_size_one_still_works() {
        let f = layouts::full_array(3, 3);
        let config = HierarchyConfig {
            block_size: Some(1),
            ..Default::default()
        };
        let cover = hierarchical_cover(&f, &config).unwrap();
        assert_complete(&f, &cover);
    }

    #[test]
    fn paths_are_simple_and_end_at_ports() {
        let f = layouts::table1_20x20();
        let cover = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        for p in &cover.paths {
            let unique: std::collections::HashSet<_> = p.cells().iter().collect();
            assert_eq!(unique.len(), p.len());
            assert_eq!(p.cells()[0], CellId::new(0, 0));
            assert_eq!(*p.cells().last().unwrap(), CellId::new(19, 19));
        }
    }
}
