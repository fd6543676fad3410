//! Grid partition of the crossbar for control signals (paper §4.2).
//!
//! Driving every building block with its own control signal would need
//! `n(n − 1)` wires. Instead the crossbar is partitioned into `l × l`
//! grids; one challenge bit programs (via the capacitor-stored relative
//! bias of §4.2) every block whose crossbar intersection falls in that
//! grid cell.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use ppuf_maxflow::NodeId;

use crate::challenge::{Challenge, ChallengeSpace};
use crate::error::PpufError;

/// Maps crossbar intersections to grid-cell (challenge-bit) indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridPartition {
    nodes: usize,
    grid: usize,
}

impl GridPartition {
    /// Creates the partition of an `n × n` crossbar into `l × l` grids.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] unless `1 ≤ l ≤ n`.
    pub fn new(nodes: usize, grid: usize) -> Result<Self, PpufError> {
        if nodes == 0 || grid == 0 || grid > nodes {
            return Err(PpufError::InvalidConfig {
                reason: format!("grid {grid} must be in 1..={nodes}"),
            });
        }
        Ok(GridPartition { nodes, grid })
    }

    /// Number of circuit nodes `n`.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Grid dimension `l`.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Number of grid cells (`l²` = control bits).
    pub fn cell_count(&self) -> usize {
        self.grid * self.grid
    }

    /// The challenges this partition accepts; every challenge check runs
    /// [`ChallengeSpace::validate`] on it.
    ///
    /// # Errors
    ///
    /// Returns [`PpufError::InvalidConfig`] for fewer than two nodes.
    pub fn challenge_space(&self) -> Result<ChallengeSpace, PpufError> {
        ChallengeSpace::new(self.nodes, self.grid)
    }

    /// The control bit `challenge` sets on edge `from → to`: its grid
    /// cell's (paper §4.2).
    ///
    /// # Panics
    ///
    /// Panics on a node out of range or too few control bits.
    pub(crate) fn edge_bit(&self, challenge: &Challenge, from: NodeId, to: NodeId) -> bool {
        challenge.control_bits[self.cell_of_edge(from, to)]
    }

    /// The grid-cell (= challenge-bit) index controlling the block at the
    /// crossbar intersection of vertical bar `from` and horizontal bar
    /// `to` — i.e. the directed edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn cell_of_edge(&self, from: NodeId, to: NodeId) -> usize {
        assert!(from.index() < self.nodes && to.index() < self.nodes);
        let stripe = self.nodes.div_ceil(self.grid);
        let col = from.index() / stripe;
        let row = to.index() / stripe;
        row * self.grid + col
    }

    /// The grid cells of the edges leaving `from`, one run per cell:
    /// each `(cell, targets)` says that every edge `from → to` with `to`
    /// in `targets` lies in `cell`, as [`cell_of_edge`](Self::cell_of_edge)
    /// would say edge by edge. The runs cover `0..n` in order (`from`
    /// itself included, though it has no edge to itself); some are empty
    /// when `l` does not divide `n`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub(crate) fn out_cells(&self, from: NodeId) -> impl Iterator<Item = (usize, Range<usize>)> {
        assert!(from.index() < self.nodes);
        let (nodes, grid) = (self.nodes, self.grid);
        let stripe = nodes.div_ceil(grid);
        let col = from.index() / stripe;
        (0..grid).map(move |row| {
            (row * grid + col, (row * stripe).min(nodes)..((row + 1) * stripe).min(nodes))
        })
    }

    /// The grid cells that cover a terminal pair's star: every cell
    /// containing an out-edge of `source` or an in-edge of `sink`.
    ///
    /// These are the cells whose control bits the max-flow response
    /// actually depends on (the minimum cut of a single-source complete
    /// graph lies on the terminal stars) — the basis of the
    /// terminal-aware challenge perturbation studied in Fig 9.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn terminal_cells(&self, source: NodeId, sink: NodeId) -> Vec<usize> {
        let mut mask = vec![false; self.cell_count()];
        for v in 0..self.nodes {
            let v = NodeId::new(v as u32);
            if v != source {
                mask[self.cell_of_edge(source, v)] = true;
            }
            if v != sink {
                mask[self.cell_of_edge(v, sink)] = true;
            }
        }
        mask.iter().enumerate().filter(|&(_, &m)| m).map(|(i, _)| i).collect()
    }

    /// Number of blocks controlled by each grid cell (row-major), counting
    /// only real edges (`from ≠ to`).
    pub fn cell_populations(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cell_count()];
        for from in 0..self.nodes {
            for to in 0..self.nodes {
                if from != to {
                    counts[self.cell_of_edge(NodeId::new(from as u32), NodeId::new(to as u32))] +=
                        1;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_bounds() {
        assert!(GridPartition::new(0, 1).is_err());
        assert!(GridPartition::new(10, 0).is_err());
        assert!(GridPartition::new(10, 11).is_err());
        assert!(GridPartition::new(10, 10).is_ok());
    }

    #[test]
    fn cell_indices_in_range() {
        let g = GridPartition::new(40, 8).unwrap();
        for from in 0..40u32 {
            for to in 0..40u32 {
                if from == to {
                    continue;
                }
                let cell = g.cell_of_edge(NodeId::new(from), NodeId::new(to));
                assert!(cell < 64);
            }
        }
    }

    #[test]
    fn out_cell_runs_agree_with_cell_of_edge() {
        for (nodes, grid) in [(1, 1), (4, 3), (10, 3), (40, 8), (900, 8)] {
            let g = GridPartition::new(nodes, grid).unwrap();
            for from in (0..nodes as u32).map(NodeId::new) {
                let mut next = 0;
                for (cell, targets) in g.out_cells(from) {
                    assert_eq!(targets.start, next, "runs are contiguous");
                    next = targets.end;
                    for to in targets.map(|v| NodeId::new(v as u32)).filter(|&to| to != from) {
                        assert_eq!(cell, g.cell_of_edge(from, to), "{from} -> {to}");
                    }
                }
                assert_eq!(next, nodes, "runs cover every node");
            }
        }
    }

    #[test]
    fn even_partition_populations() {
        // 40 nodes / 8 grids = 5-node stripes; diagonal cells lose their
        // self-loop positions
        let g = GridPartition::new(40, 8).unwrap();
        let pops = g.cell_populations();
        assert_eq!(pops.iter().sum::<usize>(), 40 * 39);
        // off-diagonal cells have 25 blocks, diagonal cells 20
        for row in 0..8 {
            for col in 0..8 {
                let expected = if row == col { 20 } else { 25 };
                assert_eq!(pops[row * 8 + col], expected, "cell ({row},{col})");
            }
        }
    }

    #[test]
    fn uneven_partition_covers_everything() {
        // 10 nodes, 3 grids: stripes of 4/4/2
        let g = GridPartition::new(10, 3).unwrap();
        let pops = g.cell_populations();
        assert_eq!(pops.len(), 9);
        assert_eq!(pops.iter().sum::<usize>(), 10 * 9);
        assert!(pops.iter().all(|&p| p > 0));
    }

    #[test]
    fn one_grid_controls_all() {
        let g = GridPartition::new(7, 1).unwrap();
        assert_eq!(g.cell_count(), 1);
        assert_eq!(g.cell_populations(), vec![7 * 6]);
    }

    #[test]
    fn terminal_cells_cover_source_row_and_sink_column() {
        let g = GridPartition::new(40, 8).unwrap();
        let cells = g.terminal_cells(NodeId::new(0), NodeId::new(39));
        // source in stripe 0, sink in stripe 7: one row + one column of
        // cells minus the shared corner = 8 + 8 − 1 = 15
        assert_eq!(cells.len(), 15);
        // sorted and unique by construction
        assert!(cells.windows(2).all(|w| w[0] < w[1]));
        // every out-edge of the source maps into the set
        for v in 1..40u32 {
            assert!(cells.contains(&g.cell_of_edge(NodeId::new(0), NodeId::new(v))));
            assert!(cells.contains(&g.cell_of_edge(NodeId::new(v), NodeId::new(39))));
        }
    }

    #[test]
    fn terminal_cells_same_stripe() {
        let g = GridPartition::new(40, 8).unwrap();
        // the source fixes a cell column, the sink a cell row; they always
        // share exactly the one corner cell — same stripe or not
        let cells = g.terminal_cells(NodeId::new(0), NodeId::new(1));
        assert_eq!(cells.len(), 8 + 8 - 1);
    }

    #[test]
    fn full_grid_is_per_stripe_of_one() {
        let g = GridPartition::new(5, 5).unwrap();
        assert_eq!(g.cell_of_edge(NodeId::new(2), NodeId::new(4)), 4 * 5 + 2);
    }
}
