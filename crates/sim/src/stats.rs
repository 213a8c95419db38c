//! Simulation statistics: performance, interference, burstiness, coverage.

use blackjack_faults::{AreaModel, CoverageAccum};

use crate::detect::DetectionEvent;

/// How the most recent [`Core::run`](crate::Core::run) call ended, as
/// recorded in [`SimStats::exit_reason`] for the telemetry stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// Clean completion (both threads halted, stores checked).
    Completed,
    /// A redundancy check fired.
    Detected,
    /// The cycle budget (or the built-in no-progress watchdog) cut the
    /// run off.
    CycleLimit,
    /// Early exit: the fault site went quiescent with zero activations.
    Converged,
    /// Early exit: the configured stall window elapsed with no progress.
    Stalled,
}

impl ExitReason {
    /// Every reason, in stable (telemetry/metrics) order — campaign
    /// metrics key per-reason counters off this enumeration.
    pub const ALL: [ExitReason; 5] = [
        ExitReason::Completed,
        ExitReason::Detected,
        ExitReason::CycleLimit,
        ExitReason::Converged,
        ExitReason::Stalled,
    ];

    /// Stable telemetry token for the reason.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExitReason::Completed => "completed",
            ExitReason::Detected => "detected",
            ExitReason::CycleLimit => "cycle_limit",
            ExitReason::Converged => "converged",
            ExitReason::Stalled => "stalled",
        }
    }
}

/// Everything a run measures; the figure harnesses read these fields.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Wall-clock nanoseconds spent inside [`Core::run`](crate::Core::run)
    /// — campaign observability reads it as the run's *simulate*-phase
    /// stamp when attributing wall time to phases. For campaign-level
    /// throughput, divide the summed cycles by the campaign's elapsed
    /// time (`CampaignTrace::wall`), not by a sum of these.
    pub wall_nanos: u64,
    /// Architectural instructions committed, per context.
    pub committed: [u64; 2],
    /// Instructions fetched (including wrong-path), per context.
    pub fetched: [u64; 2],
    /// Instructions issued (including wrong-path and filler NOPs), per
    /// context.
    pub issued: [u64; 2],
    /// Safe-shuffle filler NOPs issued.
    pub filler_issued: u64,
    /// Wrong-path instructions squashed.
    pub squashed: u64,
    /// Leading-thread branch mispredictions.
    pub mispredicts: u64,
    /// Committed conditional branches (leading).
    pub branches: u64,

    // --- issue-cycle classification (Figures 5 and 6) ---
    /// Cycles in which at least one instruction issued.
    pub issue_cycles: u64,
    /// Issue cycles whose instructions all came from one context (Fig. 6).
    pub single_ctx_issue_cycles: u64,
    /// Issue cycles where leading and trailing instructions co-issued.
    pub lt_coissue_cycles: u64,
    /// Issue cycles where two or more trailing packets co-issued.
    pub tt_coissue_cycles: u64,
    /// Leading-trailing co-issue cycles that *violated* spatial diversity
    /// (Fig. 5, black bars).
    pub lt_interference_cycles: u64,
    /// Trailing-trailing co-issue cycles that violated spatial diversity
    /// (Fig. 5, white bars).
    pub tt_interference_cycles: u64,

    // --- coverage (Figure 4) ---
    /// Spatial-diversity observations over committed pairs.
    pub coverage: CoverageAccum,
    /// Backend-diversity outcome per FU class: `[class][0]` = pairs that
    /// shared a way, `[class][1]` = pairs on different ways.
    pub back_div_by_fu: [[u64; 2]; 7],

    // --- safe-shuffle ---
    /// Input packets split by the shuffle.
    pub shuffle_splits: u64,
    /// Filler NOPs emitted by the shuffle.
    pub shuffle_nops: u64,
    /// Forced (non-diverse) placements by the shuffle.
    pub shuffle_forced: u64,
    /// Packets shuffled.
    pub shuffle_packets: u64,

    // --- redundancy machinery ---
    /// Trailing stores checked against the store buffer.
    pub store_checks: u64,
    /// Single-bit upsets corrected by the LVQ payload SEC-DED decoder
    /// (`CoreConfig::lvq_ecc`) — the CE count of the reliability
    /// taxonomy. Always zero when ECC is off.
    pub ecc_corrected: u64,
    /// Detection events (at most one — the run stops on detection).
    pub detections: Vec<DetectionEvent>,
    /// True if the run was cut off by the no-progress watchdog (possible
    /// under injected faults that stall a thread forever).
    pub deadlocked: bool,
    /// How the last `run()` call ended; `None` before the first call.
    pub exit_reason: Option<ExitReason>,
}

impl SimStats {
    /// Committed instructions per cycle for the leading (or single)
    /// thread — the paper's performance metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed[0] as f64 / self.cycles as f64
        }
    }

    /// Fraction of issue cycles drawing from a single context (Fig. 6).
    pub fn burstiness(&self) -> f64 {
        if self.issue_cycles == 0 {
            0.0
        } else {
            self.single_ctx_issue_cycles as f64 / self.issue_cycles as f64
        }
    }

    /// Fraction of issue cycles with diversity-violating leading-trailing
    /// interference (Fig. 5, black bars).
    pub fn lt_interference(&self) -> f64 {
        if self.issue_cycles == 0 {
            0.0
        } else {
            self.lt_interference_cycles as f64 / self.issue_cycles as f64
        }
    }

    /// Fraction of issue cycles with diversity-violating trailing-trailing
    /// interference (Fig. 5, white bars).
    pub fn tt_interference(&self) -> f64 {
        if self.issue_cycles == 0 {
            0.0
        } else {
            self.tt_interference_cycles as f64 / self.issue_cycles as f64
        }
    }

    /// Whole-pipeline hard-error instruction coverage (Fig. 4a).
    pub fn total_coverage(&self, area: &AreaModel) -> f64 {
        self.coverage.total_coverage(area)
    }

    /// Backend-only coverage (Fig. 4b).
    pub fn backend_coverage(&self) -> f64 {
        self.coverage.backend_coverage()
    }

    /// Frontend-only coverage.
    pub fn frontend_coverage(&self) -> f64 {
        self.coverage.frontend_coverage()
    }

    /// One-line JSON object with the run's headline counters, for the
    /// `BJ_TRACE` telemetry stream. Same counter names as the fields.
    pub fn to_json(&self) -> String {
        // Additive, schema-v1-compatible tail: exit_reason absent when no
        // run() ended, ECC corrections absent unless one actually fired.
        let mut extras = self
            .exit_reason
            .map(|r| format!(",\"exit_reason\":\"{}\"", r.as_str()))
            .unwrap_or_default();
        if self.ecc_corrected > 0 {
            extras.push_str(&format!(",\"ecc_corrected\":{}", self.ecc_corrected));
        }
        format!(
            "{{\"cycles\":{},\"wall_nanos\":{},\
             \"committed\":[{},{}],\"fetched\":[{},{}],\"issued\":[{},{}],\
             \"filler_issued\":{},\"squashed\":{},\"mispredicts\":{},\
             \"branches\":{},\"issue_cycles\":{},\"single_ctx_issue_cycles\":{},\
             \"lt_interference_cycles\":{},\"tt_interference_cycles\":{},\
             \"shuffle_nops\":{},\"store_checks\":{},\"detections\":{},\
             \"deadlocked\":{}{},\"ipc\":{:.6}}}",
            self.cycles,
            self.wall_nanos,
            self.committed[0],
            self.committed[1],
            self.fetched[0],
            self.fetched[1],
            self.issued[0],
            self.issued[1],
            self.filler_issued,
            self.squashed,
            self.mispredicts,
            self.branches,
            self.issue_cycles,
            self.single_ctx_issue_cycles,
            self.lt_interference_cycles,
            self.tt_interference_cycles,
            self.shuffle_nops,
            self.store_checks,
            self.detections.len(),
            self.deadlocked,
            extras,
            self.ipc(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_division_by_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.burstiness(), 0.0);
        assert_eq!(s.lt_interference(), 0.0);
        assert_eq!(s.tt_interference(), 0.0);
    }

    #[test]
    fn ipc_uses_leading_commits() {
        let s = SimStats { cycles: 100, committed: [250, 240], ..SimStats::default() };
        assert_eq!(s.ipc(), 2.5);
    }

    #[test]
    fn interference_fractions() {
        let s = SimStats {
            issue_cycles: 200,
            single_ctx_issue_cycles: 140,
            lt_interference_cycles: 5,
            tt_interference_cycles: 1,
            ..SimStats::default()
        };
        assert_eq!(s.burstiness(), 0.7);
        assert_eq!(s.lt_interference(), 0.025);
        assert_eq!(s.tt_interference(), 0.005);
    }

    #[test]
    fn exit_reason_json() {
        // Absent reason: the field stays out of the JSON entirely.
        let s = SimStats::default();
        assert!(!s.to_json().contains("exit_reason"));

        let done = SimStats { exit_reason: Some(ExitReason::Completed), ..SimStats::default() };
        assert!(done.to_json().contains("\"exit_reason\":\"completed\""));
    }

    #[test]
    fn coverage_passthrough() {
        let mut s = SimStats::default();
        s.coverage.record_pair(true, true);
        s.coverage.record_pair(false, false);
        assert_eq!(s.frontend_coverage(), 0.5);
        assert_eq!(s.backend_coverage(), 0.5);
        assert_eq!(s.total_coverage(&AreaModel::default()), 0.5);
    }
}
