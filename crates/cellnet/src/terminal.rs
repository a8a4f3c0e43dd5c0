//! Mobile terminals.

use crate::topology::CellId;

/// A mobile terminal roaming the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Terminal {
    cell: CellId,
    powered: bool,
    history: Vec<CellId>,
    history_cap: usize,
}

impl Terminal {
    /// Creates a powered-on terminal at `cell` with a bounded movement
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if `history_cap == 0`.
    #[must_use]
    pub(crate) fn new(cell: CellId, history_cap: usize) -> Terminal {
        assert!(history_cap > 0, "history capacity must be positive");
        Terminal {
            cell,
            powered: true,
            history: vec![cell],
            history_cap,
        }
    }

    /// The cell the terminal currently occupies.
    #[must_use]
    pub(crate) fn cell(&self) -> CellId {
        self.cell
    }

    /// Whether the terminal is powered on (powered-off terminals do not
    /// report, which is why the system loses track of them — the
    /// paper's motivation for probabilistic search).
    #[must_use]
    pub(crate) fn is_powered(&self) -> bool {
        self.powered
    }

    /// Powers the terminal on or off.
    pub(crate) fn set_powered(&mut self, on: bool) {
        self.powered = on;
    }

    /// Moves the terminal, recording the new cell in its history.
    pub(crate) fn move_to(&mut self, cell: CellId) {
        self.cell = cell;
        if self.history.len() == self.history_cap {
            self.history.remove(0);
        }
        self.history.push(cell);
    }

    /// The movement history, oldest first (bounded by the capacity).
    #[must_use]
    pub(crate) fn history(&self) -> &[CellId] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movement_recorded() {
        let mut t = Terminal::new(3, 4);
        assert_eq!(t.cell(), 3);
        t.move_to(4);
        t.move_to(5);
        assert_eq!(t.cell(), 5);
        assert_eq!(t.history(), &[3, 4, 5]);
    }

    #[test]
    fn history_bounded() {
        let mut t = Terminal::new(0, 3);
        for c in 1..=5 {
            t.move_to(c);
        }
        assert_eq!(t.history(), &[3, 4, 5]);
    }

    #[test]
    fn power_toggles() {
        let mut t = Terminal::new(0, 2);
        assert!(t.is_powered());
        t.set_powered(false);
        assert!(!t.is_powered());
        t.set_powered(true);
        assert!(t.is_powered());
    }
}
