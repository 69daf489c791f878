//! [`CodeLayout`] — the complete description of one array code.
//!
//! A layout couples a [`Grid`] with per-cell kinds and the list of parity
//! [`Equation`]s. Everything downstream — the byte codec, the peeling
//! decoder, the MDS checker, the I/O-load simulator — is generic over a
//! layout, so all five codes in the reproduction run through one tested
//! engine (mirroring how the paper implements every code on Jerasure).

use crate::equation::{Equation, EquationKind};
use crate::fnv::Fnv1a;
use crate::grid::{Cell, CellKind, Grid};
use std::collections::BTreeSet;
use std::fmt;

/// Errors detected while assembling a [`CodeLayout`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LayoutError {
    /// An equation references a cell outside the grid.
    OutOfGrid {
        /// The offending cell.
        cell: Cell,
    },
    /// Two equations claim the same parity cell.
    DuplicateParityCell {
        /// The doubly-claimed cell.
        cell: Cell,
    },
    /// A data cell is not covered by any equation, so its loss would be
    /// unrecoverable even under a single failure.
    UnprotectedDataCell {
        /// The uncovered cell.
        cell: Cell,
    },
    /// Parity elements depend on each other in a cycle, so no encode order
    /// exists.
    CyclicParityDependency,
    /// A custom logical order does not list every data cell exactly once.
    InvalidLogicalOrder,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::OutOfGrid { cell } => write!(f, "cell {cell} lies outside the grid"),
            LayoutError::DuplicateParityCell { cell } => {
                write!(f, "cell {cell} is the parity of more than one equation")
            }
            LayoutError::UnprotectedDataCell { cell } => {
                write!(f, "data cell {cell} is not a member of any equation")
            }
            LayoutError::CyclicParityDependency => {
                write!(f, "parity elements form a dependency cycle")
            }
            LayoutError::InvalidLogicalOrder => {
                write!(
                    f,
                    "custom logical order must list every data cell exactly once"
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A fully-assembled array code: geometry, cell kinds, equations, and the
/// derived indexes used throughout the workspace.
#[derive(Clone, Debug)]
pub struct CodeLayout {
    name: String,
    prime: usize,
    grid: Grid,
    kinds: Vec<CellKind>,
    equations: Vec<Equation>,
    /// Data cells in logical (row-major) order; defines the mapping from a
    /// workload's "continuous data elements" to grid positions.
    data_cells: Vec<Cell>,
    /// Per-cell logical index (`None` for parity cells).
    logical_of: Vec<Option<usize>>,
    /// Per-cell list of equation indices in which the cell is a *member*.
    member_eqs: Vec<Vec<usize>>,
    /// Equation indices in an order where every parity is computed after all
    /// parities it depends on (topological order).
    encode_order: Vec<usize>,
    /// Structural hash over name, prime, grid, equations, and logical order,
    /// computed once at build time. Two layouts with equal fingerprints are
    /// byte-for-byte the same code for every consumer in the workspace, so
    /// caches (e.g. the codec's `ScheduleCache`) may key on it instead of
    /// deep-comparing equation lists.
    fingerprint: u64,
}

impl CodeLayout {
    /// Human-readable code name, e.g. `"D-Code"` or `"RDP"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The prime parameter `p` (the paper's `n` for D-Code and X-Code).
    pub fn prime(&self) -> usize {
        self.prime
    }

    /// Stripe geometry.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Rows per stripe.
    pub fn rows(&self) -> usize {
        self.grid.rows
    }

    /// Number of disks (columns).
    pub fn disks(&self) -> usize {
        self.grid.cols
    }

    /// Kind of the element at `cell`.
    pub fn kind(&self, cell: Cell) -> CellKind {
        self.kinds[self.grid.index(cell)]
    }

    /// All parity equations.
    pub fn equations(&self) -> &[Equation] {
        &self.equations
    }

    /// One equation by index.
    pub fn equation(&self, idx: usize) -> &Equation {
        &self.equations[idx]
    }

    /// Data cells in logical order.
    pub fn data_cells(&self) -> &[Cell] {
        &self.data_cells
    }

    /// Number of data elements per stripe.
    pub fn data_len(&self) -> usize {
        self.data_cells.len()
    }

    /// Map a logical data index (`0..data_len`) to its grid position.
    pub fn logical_to_cell(&self, idx: usize) -> Cell {
        self.data_cells[idx]
    }

    /// Map a grid position to its logical data index, if it is a data cell.
    pub fn logical_of(&self, cell: Cell) -> Option<usize> {
        self.logical_of[self.grid.index(cell)]
    }

    /// Equations in which `cell` appears as a member (not as the parity).
    pub fn member_eqs(&self, cell: Cell) -> &[usize] {
        &self.member_eqs[self.grid.index(cell)]
    }

    /// The equation stored at `cell`, if `cell` is a parity element.
    pub fn storing_eq(&self, cell: Cell) -> Option<usize> {
        match self.kind(cell) {
            CellKind::Parity(eq) => Some(eq),
            CellKind::Data => None,
        }
    }

    /// Equation indices in a valid encode order (dependencies first).
    pub fn encode_order(&self) -> &[usize] {
        &self.encode_order
    }

    /// Structural fingerprint of this layout, computed once at build time.
    ///
    /// Hashes the name, prime, grid geometry, every equation (kind, parity,
    /// members in order), and the logical data ordering with FNV-1a. Layouts
    /// that fingerprint equal describe the same code to every consumer, so
    /// this is a sound (and cheap) cache key for compiled artifacts such as
    /// the codec's XOR schedules.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Group equation indices into dependency *levels*: an equation whose
    /// members include the parity of a level-`k` equation lands in level
    /// `k+1` or later, so all equations within one level are mutually
    /// independent. Level order is a valid encode order: the codec's
    /// schedule compiler emits its encode ops in it, and the number of
    /// levels is the code's parity dependency depth (1 where the parity
    /// families are independent, 2 where one reads the other).
    pub fn dependency_levels(&self) -> Vec<Vec<usize>> {
        let n_eq = self.equations.len();
        let mut level = vec![0usize; n_eq];
        // encode_order is topologically sorted, so one pass suffices.
        for &eq_idx in &self.encode_order {
            let eq = &self.equations[eq_idx];
            let mut lv = 0;
            for &m in &eq.members {
                if let CellKind::Parity(dep) = self.kind(m) {
                    lv = lv.max(level[dep] + 1);
                }
            }
            level[eq_idx] = lv;
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut groups = vec![Vec::new(); max_level + 1];
        for (eq_idx, &lv) in level.iter().enumerate() {
            groups[lv].push(eq_idx);
        }
        groups
    }

    /// Iterate over all parity cells.
    pub fn parity_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.grid.cells().filter(|&c| self.kind(c).is_parity())
    }

    /// Number of parity elements stored on disk `col`.
    pub fn parity_count_in_col(&self, col: usize) -> usize {
        self.grid
            .column(col)
            .filter(|&c| self.kind(c).is_parity())
            .count()
    }

    /// Number of data elements stored on disk `col`.
    pub fn data_count_in_col(&self, col: usize) -> usize {
        self.grid
            .column(col)
            .filter(|&c| self.kind(c).is_data())
            .count()
    }

    /// The set of parity cells that must be rewritten when `changed` data
    /// cells are modified, following parity-on-parity dependencies to a fixed
    /// point (RDP's diagonal parity covers the row parity, so one data write
    /// can cascade).
    pub fn update_closure(&self, changed: &[Cell]) -> BTreeSet<Cell> {
        let mut dirty_parities: BTreeSet<Cell> = BTreeSet::new();
        let mut frontier: Vec<Cell> = changed.to_vec();
        while let Some(cell) = frontier.pop() {
            for &eq_idx in self.member_eqs(cell) {
                let parity = self.equations[eq_idx].parity;
                if dirty_parities.insert(parity) {
                    frontier.push(parity);
                }
            }
        }
        dirty_parities
    }

    /// Per-kind equation counts, e.g. `[(Horizontal, 7), (Deployment, 7)]`.
    pub fn equation_census(&self) -> Vec<(EquationKind, usize)> {
        let mut census: Vec<(EquationKind, usize)> = Vec::new();
        for eq in &self.equations {
            match census.iter_mut().find(|(k, _)| *k == eq.kind) {
                Some((_, n)) => *n += 1,
                None => census.push((eq.kind, 1)),
            }
        }
        census
    }
}

/// Incrementally assembles a [`CodeLayout`]; [`LayoutBuilder::build`] runs
/// the structural validation.
#[derive(Clone, Debug)]
pub struct LayoutBuilder {
    name: String,
    prime: usize,
    grid: Grid,
    equations: Vec<Equation>,
    logical_order: Option<Vec<Cell>>,
}

impl LayoutBuilder {
    /// Start a layout for a `rows × cols` stripe of the code named `name`
    /// with prime parameter `prime`.
    pub fn new(name: impl Into<String>, prime: usize, rows: usize, cols: usize) -> Self {
        LayoutBuilder {
            name: name.into(),
            prime,
            grid: Grid::new(rows, cols),
            equations: Vec::new(),
            logical_order: None,
        }
    }

    /// Override the logical data ordering (the grid positions of
    /// consecutive logical addresses). Defaults to row-major over the data
    /// cells; HDP's stripe mapping, for example, runs along wrapped
    /// diagonals. The order must list every data cell exactly once.
    pub fn with_logical_order(&mut self, order: Vec<Cell>) -> &mut Self {
        self.logical_order = Some(order);
        self
    }

    /// Add one parity equation. The `parity` cell becomes a parity element.
    pub fn equation(&mut self, kind: EquationKind, parity: Cell, members: Vec<Cell>) -> &mut Self {
        self.equations.push(Equation::new(kind, parity, members));
        self
    }

    /// Validate and freeze the layout.
    pub fn build(self) -> Result<CodeLayout, LayoutError> {
        let grid = self.grid;
        // Bounds.
        for eq in &self.equations {
            for cell in eq.cells() {
                if !grid.contains(cell) {
                    return Err(LayoutError::OutOfGrid { cell });
                }
            }
        }
        // Cell kinds; duplicate parity detection.
        let mut kinds = vec![CellKind::Data; grid.len()];
        for (i, eq) in self.equations.iter().enumerate() {
            let slot = &mut kinds[grid.index(eq.parity)];
            if slot.is_parity() {
                return Err(LayoutError::DuplicateParityCell { cell: eq.parity });
            }
            *slot = CellKind::Parity(i);
        }
        // Member index.
        let mut member_eqs: Vec<Vec<usize>> = vec![Vec::new(); grid.len()];
        for (i, eq) in self.equations.iter().enumerate() {
            for &m in &eq.members {
                member_eqs[grid.index(m)].push(i);
            }
        }
        // Every data cell must be protected.
        for cell in grid.cells() {
            if kinds[grid.index(cell)].is_data() && member_eqs[grid.index(cell)].is_empty() {
                return Err(LayoutError::UnprotectedDataCell { cell });
            }
        }
        // Topological encode order over parity-on-parity dependencies.
        let n_eq = self.equations.len();
        let mut indegree = vec![0usize; n_eq];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_eq];
        for (i, eq) in self.equations.iter().enumerate() {
            for &m in &eq.members {
                if let CellKind::Parity(dep) = kinds[grid.index(m)] {
                    // Equation `i` consumes the output of equation `dep`.
                    dependents[dep].push(i);
                    indegree[i] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n_eq).filter(|&i| indegree[i] == 0).collect();
        let mut encode_order = Vec::with_capacity(n_eq);
        while let Some(i) = queue.pop() {
            encode_order.push(i);
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push(d);
                }
            }
        }
        if encode_order.len() != n_eq {
            return Err(LayoutError::CyclicParityDependency);
        }
        // Logical data ordering: custom if supplied, else row-major over
        // the data cells.
        let mut data_cells = Vec::new();
        let mut logical_of = vec![None; grid.len()];
        match self.logical_order {
            Some(order) => {
                let n_data = grid
                    .cells()
                    .filter(|&c| kinds[grid.index(c)].is_data())
                    .count();
                if order.len() != n_data {
                    return Err(LayoutError::InvalidLogicalOrder);
                }
                for cell in order {
                    if !grid.contains(cell)
                        || !kinds[grid.index(cell)].is_data()
                        || logical_of[grid.index(cell)].is_some()
                    {
                        return Err(LayoutError::InvalidLogicalOrder);
                    }
                    logical_of[grid.index(cell)] = Some(data_cells.len());
                    data_cells.push(cell);
                }
            }
            None => {
                for cell in grid.cells() {
                    if kinds[grid.index(cell)].is_data() {
                        logical_of[grid.index(cell)] = Some(data_cells.len());
                        data_cells.push(cell);
                    }
                }
            }
        }
        // Structural fingerprint: FNV-1a over everything a consumer can
        // observe about the code. Derived indexes (kinds, member_eqs,
        // encode_order) are functions of the hashed inputs, so they add no
        // information and are skipped.
        let mut fp = Fnv1a::new();
        fp.bytes(self.name.as_bytes());
        fp.word(self.prime as u64);
        fp.word(grid.rows as u64);
        fp.word(grid.cols as u64);
        fp.word(self.equations.len() as u64);
        for eq in &self.equations {
            fp.word(eq.kind as u64);
            fp.word(grid.index(eq.parity) as u64);
            fp.word(eq.members.len() as u64);
            for &m in &eq.members {
                fp.word(grid.index(m) as u64);
            }
        }
        fp.word(data_cells.len() as u64);
        for &c in &data_cells {
            fp.word(grid.index(c) as u64);
        }
        Ok(CodeLayout {
            name: self.name,
            prime: self.prime,
            grid,
            kinds,
            equations: self.equations,
            data_cells,
            logical_of,
            member_eqs,
            encode_order,
            fingerprint: fp.finish(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy 2×3 code: one row parity per row in the last column.
    fn toy() -> CodeLayout {
        let mut b = LayoutBuilder::new("toy", 3, 2, 3);
        for r in 0..2 {
            b.equation(
                EquationKind::Row,
                Cell::new(r, 2),
                vec![Cell::new(r, 0), Cell::new(r, 1)],
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn kinds_and_logical_order() {
        let l = toy();
        assert!(l.kind(Cell::new(0, 2)).is_parity());
        assert!(l.kind(Cell::new(0, 0)).is_data());
        assert_eq!(l.data_len(), 4);
        assert_eq!(l.logical_to_cell(0), Cell::new(0, 0));
        assert_eq!(l.logical_to_cell(2), Cell::new(1, 0));
        assert_eq!(l.logical_of(Cell::new(1, 1)), Some(3));
        assert_eq!(l.logical_of(Cell::new(0, 2)), None);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        // Rebuilding the identical layout yields the identical fingerprint.
        assert_eq!(toy().fingerprint(), toy().fingerprint());
        // Any observable difference — name, prime, geometry, equation shape —
        // changes it.
        let mut renamed = LayoutBuilder::new("toy2", 3, 2, 3);
        let mut reprimed = LayoutBuilder::new("toy", 5, 2, 3);
        for b in [&mut renamed, &mut reprimed] {
            for r in 0..2 {
                b.equation(
                    EquationKind::Row,
                    Cell::new(r, 2),
                    vec![Cell::new(r, 0), Cell::new(r, 1)],
                );
            }
        }
        let fp = toy().fingerprint();
        assert_ne!(fp, renamed.build().unwrap().fingerprint());
        assert_ne!(fp, reprimed.build().unwrap().fingerprint());
    }

    #[test]
    fn member_index() {
        let l = toy();
        assert_eq!(l.member_eqs(Cell::new(0, 0)), &[0]);
        assert_eq!(l.member_eqs(Cell::new(1, 1)), &[1]);
        assert!(l.member_eqs(Cell::new(0, 2)).is_empty());
    }

    #[test]
    fn update_closure_simple() {
        let l = toy();
        let dirty = l.update_closure(&[Cell::new(0, 0)]);
        assert_eq!(dirty.into_iter().collect::<Vec<_>>(), vec![Cell::new(0, 2)]);
    }

    #[test]
    fn update_closure_cascades_through_parity() {
        // Row parity in col 2; a "diagonal" parity at (1,2)... build a chain:
        // q covers data (0,0) and parity (0,2) does not exist here; instead:
        // eq0: (0,2) = (0,0) ^ (0,1);  eq1: (1,2) = (1,0) ^ (0,2)
        let mut b = LayoutBuilder::new("cascade", 3, 2, 3);
        b.equation(
            EquationKind::Row,
            Cell::new(0, 2),
            vec![Cell::new(0, 0), Cell::new(0, 1)],
        );
        b.equation(
            EquationKind::Diagonal,
            Cell::new(1, 2),
            vec![Cell::new(1, 0), Cell::new(1, 1), Cell::new(0, 2)],
        );
        let l = b.build().unwrap();
        let dirty = l.update_closure(&[Cell::new(0, 0)]);
        assert_eq!(
            dirty.into_iter().collect::<Vec<_>>(),
            vec![Cell::new(0, 2), Cell::new(1, 2)]
        );
        // Encode order must compute eq0 before eq1.
        let order = l.encode_order();
        let pos0 = order.iter().position(|&i| i == 0).unwrap();
        let pos1 = order.iter().position(|&i| i == 1).unwrap();
        assert!(pos0 < pos1);
    }

    #[test]
    fn duplicate_parity_rejected() {
        let mut b = LayoutBuilder::new("dup", 3, 2, 3);
        b.equation(EquationKind::Row, Cell::new(0, 2), vec![Cell::new(0, 0)]);
        b.equation(EquationKind::Row, Cell::new(0, 2), vec![Cell::new(0, 1)]);
        assert_eq!(
            b.build().unwrap_err(),
            LayoutError::DuplicateParityCell {
                cell: Cell::new(0, 2)
            }
        );
    }

    #[test]
    fn unprotected_data_rejected() {
        let mut b = LayoutBuilder::new("hole", 3, 1, 3);
        b.equation(EquationKind::Row, Cell::new(0, 2), vec![Cell::new(0, 0)]);
        // (0,1) is data but in no equation.
        assert_eq!(
            b.build().unwrap_err(),
            LayoutError::UnprotectedDataCell {
                cell: Cell::new(0, 1)
            }
        );
    }

    #[test]
    fn out_of_grid_rejected() {
        let mut b = LayoutBuilder::new("oob", 3, 1, 3);
        b.equation(EquationKind::Row, Cell::new(0, 2), vec![Cell::new(0, 5)]);
        assert_eq!(
            b.build().unwrap_err(),
            LayoutError::OutOfGrid {
                cell: Cell::new(0, 5)
            }
        );
    }

    #[test]
    fn cyclic_dependency_rejected() {
        let mut b = LayoutBuilder::new("cycle", 3, 1, 4);
        // (0,0) and (0,1) are parities of each other; (0,2),(0,3) data.
        b.equation(
            EquationKind::Row,
            Cell::new(0, 0),
            vec![Cell::new(0, 1), Cell::new(0, 2)],
        );
        b.equation(
            EquationKind::Row,
            Cell::new(0, 1),
            vec![Cell::new(0, 0), Cell::new(0, 3)],
        );
        assert_eq!(b.build().unwrap_err(), LayoutError::CyclicParityDependency);
    }

    #[test]
    fn census_counts_kinds() {
        let l = toy();
        assert_eq!(l.equation_census(), vec![(EquationKind::Row, 2)]);
    }

    #[test]
    fn per_column_counts() {
        let l = toy();
        assert_eq!(l.parity_count_in_col(2), 2);
        assert_eq!(l.data_count_in_col(2), 0);
        assert_eq!(l.data_count_in_col(0), 2);
    }
}
