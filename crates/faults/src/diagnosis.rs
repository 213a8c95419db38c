//! Online hard-fault diagnosis by detection-pattern accumulation.
//!
//! BlackJack *detects* a hard error but does not say which unit is broken.
//! The paper discusses online diagnosis (Bower et al., MICRO'05) as
//! related work; this module implements the natural diagnosis layer on top
//! of BlackJack's detections: every detection implicates the hardware both
//! copies of the failing instruction used, and across repeated detections
//! the defective unit accumulates suspicion fastest — the fault-free
//! diverse copy changes from run to run while the faulty unit keeps
//! reappearing.

/// Accumulates suspicion per backend way (FU instance) and per frontend
/// way across detections.
///
/// # Example
///
/// ```
/// use blackjack_faults::DiagnosisTable;
///
/// let mut d = DiagnosisTable::new(16, 4);
/// // Three detections, all involving backend way 4 (plus varying ways).
/// d.record_backend(4); d.record_backend(5);
/// d.record_backend(4); d.record_backend(6);
/// d.record_backend(4); d.record_backend(7);
/// assert_eq!(d.suspect_backend(), Some(4));
/// ```
#[derive(Debug, Clone)]
pub struct DiagnosisTable {
    backend: Vec<u64>,
    frontend: Vec<u64>,
    detections: u64,
}

impl DiagnosisTable {
    /// Creates a table for `backend_ways` FU instances and
    /// `frontend_ways` fetch slots.
    pub fn new(backend_ways: usize, frontend_ways: usize) -> DiagnosisTable {
        DiagnosisTable {
            backend: vec![0; backend_ways],
            frontend: vec![0; frontend_ways],
            detections: 0,
        }
    }

    /// Number of detections folded in (count once per detection via
    /// [`DiagnosisTable::close_detection`], or track externally).
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Implicates a backend way in the current detection.
    pub fn record_backend(&mut self, way: usize) {
        if let Some(c) = self.backend.get_mut(way) {
            *c += 1;
        }
    }

    /// Implicates a frontend way in the current detection.
    pub fn record_frontend(&mut self, way: usize) {
        if let Some(c) = self.frontend.get_mut(way) {
            *c += 1;
        }
    }

    /// Marks the end of one detection's evidence.
    pub fn close_detection(&mut self) {
        self.detections += 1;
    }

    /// The most-implicated backend way, if it stands out (strictly more
    /// counts than any other way).
    pub fn suspect_backend(&self) -> Option<usize> {
        unique_max(&self.backend)
    }

    /// The most-implicated frontend way, if it stands out.
    pub fn suspect_frontend(&self) -> Option<usize> {
        unique_max(&self.frontend)
    }

    /// Suspicion counts per backend way.
    pub fn backend_counts(&self) -> &[u64] {
        &self.backend
    }
}

fn unique_max(counts: &[u64]) -> Option<usize> {
    let (mut best, mut best_count, mut tied) = (0usize, 0u64, true);
    for (i, &c) in counts.iter().enumerate() {
        if c > best_count {
            best = i;
            best_count = c;
            tied = false;
        } else if c == best_count {
            tied = true;
        }
    }
    (!tied && best_count > 0).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_evidence_no_suspect() {
        let d = DiagnosisTable::new(16, 4);
        assert_eq!(d.suspect_backend(), None);
        assert_eq!(d.suspect_frontend(), None);
    }

    #[test]
    fn single_detection_is_ambiguous() {
        // One detection implicates both copies' ways equally.
        let mut d = DiagnosisTable::new(16, 4);
        d.record_backend(4);
        d.record_backend(5);
        d.close_detection();
        assert_eq!(d.suspect_backend(), None, "tie: cannot tell which copy was wrong");
    }

    #[test]
    fn repeated_detections_converge() {
        let mut d = DiagnosisTable::new(16, 4);
        for other in [5, 6, 7] {
            d.record_backend(4);
            d.record_backend(other);
            d.close_detection();
        }
        assert_eq!(d.suspect_backend(), Some(4));
        assert_eq!(d.detections(), 3);
        assert_eq!(d.backend_counts()[4], 3);
    }

    #[test]
    fn frontend_diagnosis() {
        let mut d = DiagnosisTable::new(16, 4);
        d.record_frontend(1);
        d.record_frontend(2);
        d.close_detection();
        d.record_frontend(1);
        d.record_frontend(3);
        d.close_detection();
        assert_eq!(d.suspect_frontend(), Some(1));
    }

    #[test]
    fn out_of_range_ways_ignored() {
        let mut d = DiagnosisTable::new(4, 2);
        d.record_backend(99);
        d.record_frontend(99);
        assert_eq!(d.suspect_backend(), None);
    }
}
