//! Cell-graph topologies.
//!
//! A wireless system's coverage is modelled as a graph of cells: the
//! paper's model only needs the *set* of cells, but the motivating
//! system (Section 1.1) — base stations, location areas, terminals
//! crossing cell boundaries — needs adjacency. Three standard layouts
//! are provided: a line (highway), a rectangular grid, and an
//! offset-coordinate hexagonal grid (the classical cellular layout).

/// A cell identifier (index into the topology).
pub(crate) type CellId = usize;

/// The shape of a cellular layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Layout {
    /// `c` cells in a row; cell `i` neighbours `i − 1` and `i + 1`.
    Line,
    /// `c` cells in a cycle (a ring road); like a line but with the
    /// ends joined, so every cell has exactly two neighbours.
    Ring,
    /// A `width × height` rectangular grid, 4-neighbour adjacency.
    Grid,
    /// A `width × height` hexagonal grid (odd-row offset coordinates),
    /// 6-neighbour adjacency.
    Hex,
}

/// A cellular topology: a layout plus dimensions.
///
/// # Examples
///
/// ```
/// use cellnet::topology::Topology;
///
/// let t = Topology::grid(4, 3);
/// assert_eq!(t.num_cells(), 12);
/// assert_eq!(t.neighbors(0), vec![1, 4]); // corner cell
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topology {
    layout: Layout,
    width: usize,
    height: usize,
}

impl Topology {
    /// A line of `c` cells.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    #[must_use]
    pub fn line(c: usize) -> Topology {
        assert!(c > 0, "a topology needs at least one cell");
        Topology {
            layout: Layout::Line,
            width: c,
            height: 1,
        }
    }

    /// A ring of `c` cells.
    ///
    /// # Panics
    ///
    /// Panics if `c < 3` (smaller rings degenerate to multi-edges).
    #[must_use]
    pub fn ring(c: usize) -> Topology {
        assert!(c >= 3, "a ring needs at least three cells");
        Topology {
            layout: Layout::Ring,
            width: c,
            height: 1,
        }
    }

    /// A `width × height` rectangular grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn grid(width: usize, height: usize) -> Topology {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        Topology {
            layout: Layout::Grid,
            width,
            height,
        }
    }

    /// A `width × height` hexagonal grid with odd-row offset
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn hex(width: usize, height: usize) -> Topology {
        assert!(width > 0 && height > 0, "hex dimensions must be positive");
        Topology {
            layout: Layout::Hex,
            width,
            height,
        }
    }

    /// Grid width (the line length for [`Layout::Line`]).
    #[must_use]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Total number of cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.width * self.height
    }

    /// The `(column, row)` of a cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub(crate) fn position(&self, cell: CellId) -> (usize, usize) {
        assert!(cell < self.num_cells(), "cell {cell} out of range");
        (cell % self.width, cell / self.width)
    }

    /// The cell at `(column, row)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    #[must_use]
    pub fn cell_at(&self, col: usize, row: usize) -> CellId {
        assert!(
            col < self.width && row < self.height,
            "position out of range"
        );
        row * self.width + col
    }

    /// The neighbouring cells, in increasing id order.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn neighbors(&self, cell: CellId) -> Vec<CellId> {
        let (col, row) = self.position(cell);
        let mut out = Vec::with_capacity(6);
        let mut push = |c: isize, r: isize| {
            if c >= 0 && r >= 0 && (c as usize) < self.width && (r as usize) < self.height {
                out.push(self.cell_at(c as usize, r as usize));
            }
        };
        let (c, r) = (col as isize, row as isize);
        match self.layout {
            Layout::Line => {
                push(c - 1, 0);
                push(c + 1, 0);
            }
            Layout::Ring => {
                let w = self.width as isize;
                push((c - 1).rem_euclid(w), 0);
                push((c + 1).rem_euclid(w), 0);
            }
            Layout::Grid => {
                push(c, r - 1);
                push(c - 1, r);
                push(c + 1, r);
                push(c, r + 1);
            }
            Layout::Hex => {
                // Odd-row offset: odd rows shift right.
                let shift: [(isize, isize); 6] = if row % 2 == 0 {
                    [(-1, -1), (0, -1), (-1, 0), (1, 0), (-1, 1), (0, 1)]
                } else {
                    [(0, -1), (1, -1), (-1, 0), (1, 0), (0, 1), (1, 1)]
                };
                for (dc, dr) in shift {
                    push(c + dc, r + dr);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Hop distance between two cells (BFS).
    ///
    /// # Panics
    ///
    /// Panics if either cell is out of range.
    #[must_use]
    pub fn distance(&self, from: CellId, to: CellId) -> usize {
        assert!(from < self.num_cells() && to < self.num_cells());
        if from == to {
            return 0;
        }
        let mut dist = vec![usize::MAX; self.num_cells()];
        dist[from] = 0;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            for n in self.neighbors(cur) {
                if dist[n] == usize::MAX {
                    dist[n] = dist[cur] + 1;
                    if n == to {
                        return dist[n];
                    }
                    queue.push_back(n);
                }
            }
        }
        unreachable!("all provided topologies are connected")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_neighbors() {
        let t = Topology::line(5);
        assert_eq!(t.num_cells(), 5);
        assert_eq!(t.neighbors(0), vec![1]);
        assert_eq!(t.neighbors(2), vec![1, 3]);
        assert_eq!(t.neighbors(4), vec![3]);
    }

    #[test]
    fn ring_neighbors_wrap() {
        let t = Topology::ring(5);
        assert_eq!(t.neighbors(0), vec![1, 4]);
        assert_eq!(t.neighbors(4), vec![0, 3]);
        assert_eq!(t.neighbors(2), vec![1, 3]);
        // Every cell has exactly two neighbours.
        for cell in 0..5 {
            assert_eq!(t.neighbors(cell).len(), 2);
        }
        // Distances go the short way around.
        assert_eq!(t.distance(0, 4), 1);
        assert_eq!(t.distance(0, 2), 2);
    }

    #[test]
    fn ring_uniform_stationary() {
        use crate::mobility::{empirical_distribution, RandomWalk};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // On a ring the random walk's stationary distribution is
        // uniform (constant degree).
        let t = Topology::ring(6);
        let mut m = RandomWalk::new(0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let dist = empirical_distribution(&mut m, &t, 0, 120_000, &mut rng);
        for &p in &dist {
            assert!((p - 1.0 / 6.0).abs() < 0.01, "{dist:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn tiny_ring_rejected() {
        let _ = Topology::ring(2);
    }

    #[test]
    fn grid_neighbors() {
        let t = Topology::grid(3, 3);
        assert_eq!(t.neighbors(4), vec![1, 3, 5, 7]); // centre
        assert_eq!(t.neighbors(0), vec![1, 3]); // corner
        assert_eq!(t.neighbors(1), vec![0, 2, 4]); // edge
    }

    #[test]
    fn hex_neighbors_are_symmetric() {
        let t = Topology::hex(4, 4);
        for cell in 0..t.num_cells() {
            for n in t.neighbors(cell) {
                assert!(
                    t.neighbors(n).contains(&cell),
                    "asymmetric adjacency {cell} -> {n}"
                );
            }
        }
    }

    #[test]
    fn hex_interior_has_six_neighbors() {
        let t = Topology::hex(5, 5);
        let centre = t.cell_at(2, 2);
        assert_eq!(t.neighbors(centre).len(), 6);
    }

    #[test]
    fn positions_round_trip() {
        let t = Topology::grid(4, 3);
        for cell in 0..t.num_cells() {
            let (c, r) = t.position(cell);
            assert_eq!(t.cell_at(c, r), cell);
        }
    }

    #[test]
    fn distances() {
        let line = Topology::line(6);
        assert_eq!(line.distance(0, 5), 5);
        assert_eq!(line.distance(3, 3), 0);
        let grid = Topology::grid(4, 4);
        assert_eq!(grid.distance(0, 15), 6); // Manhattan
        let hex = Topology::hex(4, 4);
        assert!(hex.distance(0, 15) <= 6); // hex paths are shorter
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = Topology::line(0);
    }
}
