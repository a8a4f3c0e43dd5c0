//! Location areas (GSM MAP / IS-41 style).
//!
//! Section 1.1 of the paper: the cells are partitioned into *location
//! areas*; a terminal reports (over a wireless link) whenever it
//! crosses an area boundary, and an incoming call pages (some of) the
//! cells of the terminal's last-reported area. Larger areas mean fewer
//! reports but more cells to page — the trade-off experiment `E11`
//! sweeps.

use crate::topology::{CellId, Topology};

/// An area identifier.
pub(crate) type AreaId = usize;

/// A partition of a topology's cells into location areas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationAreaPlan {
    area_of: Vec<AreaId>,
    cells: Vec<Vec<CellId>>,
}

impl LocationAreaPlan {
    /// Builds a plan from an explicit assignment `cell → area`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is empty or the area ids are not
    /// contiguous from zero.
    #[must_use]
    pub(crate) fn from_assignment(area_of: Vec<AreaId>) -> LocationAreaPlan {
        assert!(!area_of.is_empty(), "assignment must cover the cells");
        let num_areas = area_of.iter().max().expect("non-empty") + 1;
        let mut cells = vec![Vec::new(); num_areas];
        for (cell, &a) in area_of.iter().enumerate() {
            cells[a].push(cell);
        }
        assert!(
            cells.iter().all(|c| !c.is_empty()),
            "area ids must be contiguous from zero"
        );
        LocationAreaPlan { area_of, cells }
    }

    /// One area containing every cell (pure paging, no reports).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn single(topology: &Topology) -> LocationAreaPlan {
        LocationAreaPlan::from_assignment(vec![0; topology.num_cells()])
    }

    /// Splits the cells into consecutive blocks of (at most)
    /// `cells_per_area` cells in id order — contiguous for lines, and
    /// row-major stripes for grids.
    ///
    /// # Panics
    ///
    /// Panics if `cells_per_area == 0`.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn blocks(topology: &Topology, cells_per_area: usize) -> LocationAreaPlan {
        assert!(cells_per_area > 0, "areas must contain at least one cell");
        let assignment: Vec<AreaId> = (0..topology.num_cells())
            .map(|c| c / cells_per_area)
            .collect();
        LocationAreaPlan::from_assignment(assignment)
    }

    /// Splits a grid/hex topology into rectangular tiles of
    /// `tile_w × tile_h` cells.
    ///
    /// # Panics
    ///
    /// Panics if a tile dimension is zero.
    #[must_use]
    pub fn tiles(topology: &Topology, tile_w: usize, tile_h: usize) -> LocationAreaPlan {
        assert!(tile_w > 0 && tile_h > 0, "tile dimensions must be positive");
        let tiles_per_row = topology.width().div_ceil(tile_w);
        let assignment: Vec<AreaId> = (0..topology.num_cells())
            .map(|cell| {
                let (col, row) = topology.position(cell);
                (row / tile_h) * tiles_per_row + col / tile_w
            })
            .collect();
        // Re-compact ids (some tiles may be empty on ragged edges).
        let mut remap = std::collections::BTreeMap::new();
        let compact: Vec<AreaId> = assignment
            .iter()
            .map(|&a| {
                let next = remap.len();
                *remap.entry(a).or_insert(next)
            })
            .collect();
        LocationAreaPlan::from_assignment(compact)
    }

    /// Number of areas.
    #[must_use]
    pub fn num_areas(&self) -> usize {
        self.cells.len()
    }

    /// The area containing a cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn area_of(&self, cell: CellId) -> AreaId {
        self.area_of[cell]
    }

    /// The cells of an area, in increasing id order.
    ///
    /// # Panics
    ///
    /// Panics if `area` is out of range.
    #[must_use]
    pub fn cells_in(&self, area: AreaId) -> &[CellId] {
        &self.cells[area]
    }

    /// Whether moving `from → to` crosses an area boundary (and thus
    /// triggers a report).
    ///
    /// # Panics
    ///
    /// Panics if either cell is out of range.
    #[must_use]
    pub(crate) fn crosses_boundary(&self, from: CellId, to: CellId) -> bool {
        self.area_of[from] != self.area_of[to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_partition_line() {
        let t = Topology::line(10);
        let plan = LocationAreaPlan::blocks(&t, 4);
        assert_eq!(plan.num_areas(), 3);
        assert_eq!(plan.cells_in(0), &[0, 1, 2, 3]);
        assert_eq!(plan.cells_in(2), &[8, 9]);
        assert!(plan.crosses_boundary(3, 4));
        assert!(!plan.crosses_boundary(4, 5));
    }

    #[test]
    fn single_area_holds_every_cell() {
        let t = Topology::grid(3, 2);
        let one = LocationAreaPlan::single(&t);
        assert_eq!(one.num_areas(), 1);
        assert_eq!(one.cells_in(0).len(), 6);
    }

    #[test]
    fn tiles_cover_grid() {
        let t = Topology::grid(4, 4);
        let plan = LocationAreaPlan::tiles(&t, 2, 2);
        assert_eq!(plan.num_areas(), 4);
        for a in 0..4 {
            assert_eq!(plan.cells_in(a).len(), 4);
        }
        // Cells 0, 1, 4, 5 form the top-left tile.
        assert_eq!(plan.area_of(0), plan.area_of(5));
        assert_ne!(plan.area_of(0), plan.area_of(2));
    }

    #[test]
    fn tiles_handle_ragged_edges() {
        let t = Topology::grid(5, 3);
        let plan = LocationAreaPlan::tiles(&t, 2, 2);
        // Every cell assigned; ids contiguous.
        let covered: usize = (0..plan.num_areas()).map(|a| plan.cells_in(a).len()).sum();
        assert_eq!(covered, 15);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_rejected() {
        let _ = LocationAreaPlan::from_assignment(vec![0, 2]);
    }
}
