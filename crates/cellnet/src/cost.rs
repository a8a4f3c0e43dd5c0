//! Wireless-link cost accounting.
//!
//! The paper's motivation (Section 1.1): location management balances
//! the *reporting* traffic (terminals signalling area crossings) against
//! the *paging* traffic (base stations broadcasting searches). This
//! module tallies both and combines them under a configurable cost
//! model, enabling the trade-off study of experiment `E11`.

/// Tallies of wireless-link usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkUsage {
    /// Number of location-report messages sent by terminals.
    pub reports: u64,
    /// Number of cells paged by base stations.
    pub pages: u64,
    /// Number of search (call-establishment) operations performed.
    pub searches: u64,
    /// Total rounds of paging used across searches.
    pub paging_rounds: u64,
}

impl LinkUsage {
    /// A zeroed tally.
    #[must_use]
    pub(crate) fn new() -> LinkUsage {
        LinkUsage::default()
    }

    /// Mean cells paged per search (`NaN` when no search happened).
    #[must_use]
    pub fn pages_per_search(&self) -> f64 {
        self.pages as f64 / self.searches as f64
    }
}

/// Relative costs of the two kinds of wireless transmissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one report message.
    pub report_cost: f64,
    /// Cost of paging one cell.
    pub page_cost: f64,
}

impl Default for CostModel {
    /// Reports and pages cost the same by default.
    fn default() -> CostModel {
        CostModel {
            report_cost: 1.0,
            page_cost: 1.0,
        }
    }
}

impl CostModel {
    /// Total weighted wireless cost of a tally.
    #[must_use]
    pub fn total(&self, usage: &LinkUsage) -> f64 {
        self.report_cost * usage.reports as f64 + self.page_cost * usage.pages as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_per_search_averages() {
        let a = LinkUsage {
            reports: 4,
            pages: 15,
            searches: 3,
            paging_rounds: 6,
        };
        assert!((a.pages_per_search() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cost_model_weighs() {
        let usage = LinkUsage {
            reports: 10,
            pages: 4,
            searches: 1,
            paging_rounds: 1,
        };
        let even = CostModel::default();
        assert!((even.total(&usage) - 14.0).abs() < 1e-12);
        let paging_heavy = CostModel {
            report_cost: 1.0,
            page_cost: 3.0,
        };
        assert!((paging_heavy.total(&usage) - 22.0).abs() < 1e-12);
    }
}
