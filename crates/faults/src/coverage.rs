//! The paper's area-weighted hard-error instruction-coverage model (§5).

/// Core-area split used to weight coverage.
///
/// Following the paper's HotSpot-derived numbers: the issue queue is
/// excluded (both SRT and BlackJack are credited with covering it — SRT by
/// assumption, BlackJack via the dependence check of §4.4); of the
/// remaining core area, 34% is touched by an instruction in the frontend
/// pipe stages and 66% in the backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Fraction of (non-issue-queue) core area in the frontend.
    pub frontend_frac: f64,
    /// Fraction of (non-issue-queue) core area in the backend.
    pub backend_frac: f64,
}

impl Default for AreaModel {
    fn default() -> AreaModel {
        AreaModel { frontend_frac: 0.34, backend_frac: 0.66 }
    }
}

impl AreaModel {
    /// Creates a model from a frontend fraction; backend gets the rest.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= frontend_frac <= 1.0`.
    pub fn with_frontend_frac(frontend_frac: f64) -> AreaModel {
        assert!(
            (0.0..=1.0).contains(&frontend_frac),
            "frontend fraction {frontend_frac} out of [0,1]"
        );
        AreaModel { frontend_frac, backend_frac: 1.0 - frontend_frac }
    }

    /// Area-weighted coverage of one instruction pair.
    pub fn pair_coverage(&self, front_diverse: bool, back_diverse: bool) -> f64 {
        let mut c = 0.0;
        if front_diverse {
            c += self.frontend_frac;
        }
        if back_diverse {
            c += self.backend_frac;
        }
        c
    }
}

/// Accumulates spatial-diversity observations over all committed
/// leading/trailing instruction pairs of a run.
///
/// An instruction pair may be *partially* covered — diverse in the frontend
/// but not the backend, or vice versa — which the area weighting turns into
/// fractional coverage, exactly as in the paper ("we allow for partial
/// coverage of single instructions").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageAccum {
    /// Total instruction pairs observed.
    pub pairs: u64,
    /// Pairs whose copies used different frontend ways.
    pub front_diverse: u64,
    /// Pairs whose copies used different backend ways.
    pub back_diverse: u64,
}

impl CoverageAccum {
    /// Creates an empty accumulator.
    pub fn new() -> CoverageAccum {
        CoverageAccum::default()
    }

    /// Records one committed pair's diversity outcome.
    pub fn record_pair(&mut self, front_diverse: bool, back_diverse: bool) {
        self.pairs += 1;
        self.front_diverse += front_diverse as u64;
        self.back_diverse += back_diverse as u64;
    }

    /// Fraction of pairs with frontend diversity, `[0, 1]`.
    pub fn frontend_coverage(&self) -> f64 {
        self.frac(self.front_diverse)
    }

    /// Fraction of pairs with backend diversity, `[0, 1]` (Figure 4b).
    pub fn backend_coverage(&self) -> f64 {
        self.frac(self.back_diverse)
    }

    /// Area-weighted whole-pipeline coverage, `[0, 1]` (Figure 4a).
    pub fn total_coverage(&self, area: &AreaModel) -> f64 {
        area.frontend_frac * self.frontend_coverage()
            + area.backend_frac * self.backend_coverage()
    }

    fn frac(&self, n: u64) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            n as f64 / self.pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_split() {
        let a = AreaModel::default();
        assert_eq!(a.frontend_frac, 0.34);
        assert_eq!(a.backend_frac, 0.66);
    }

    #[test]
    fn pair_coverage_weights() {
        let a = AreaModel::default();
        assert_eq!(a.pair_coverage(false, false), 0.0);
        assert_eq!(a.pair_coverage(true, false), 0.34);
        assert_eq!(a.pair_coverage(false, true), 0.66);
        assert_eq!(a.pair_coverage(true, true), 1.0);
    }

    #[test]
    fn empty_accumulator_reports_zero() {
        let c = CoverageAccum::new();
        assert_eq!(c.frontend_coverage(), 0.0);
        assert_eq!(c.backend_coverage(), 0.0);
        assert_eq!(c.total_coverage(&AreaModel::default()), 0.0);
    }

    #[test]
    fn fractions_accumulate() {
        let mut c = CoverageAccum::new();
        c.record_pair(true, true);
        c.record_pair(true, false);
        c.record_pair(false, false);
        c.record_pair(false, true);
        assert_eq!(c.pairs, 4);
        assert_eq!(c.frontend_coverage(), 0.5);
        assert_eq!(c.backend_coverage(), 0.5);
        let total = c.total_coverage(&AreaModel::default());
        assert!((total - 0.5).abs() < 1e-12);
    }

    #[test]
    fn srt_like_profile() {
        // SRT: zero frontend diversity, ~52% accidental backend diversity
        // should land near the paper's 34% average.
        let mut c = CoverageAccum::new();
        for i in 0..100 {
            c.record_pair(false, i < 52);
        }
        let total = c.total_coverage(&AreaModel::default());
        assert!((total - 0.3432).abs() < 1e-9);
    }

    #[test]
    fn custom_split() {
        let a = AreaModel::with_frontend_frac(0.5);
        assert_eq!(a.backend_frac, 0.5);
    }

    #[test]
    #[should_panic]
    fn bad_split_panics() {
        let _ = AreaModel::with_frontend_frac(1.5);
    }
}
