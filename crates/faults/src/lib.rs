//! # Hard-fault models and coverage accounting
//!
//! This crate defines *where* a permanent (hard) fault can live in the
//! simulated core ([`FaultSite`]), *how* it corrupts values flowing through
//! the faulty structure ([`Corruption`]), and *when* it fires
//! ([`Trigger`] — always, or only under specific operand patterns, modeling
//! the paper's "errors exercised by very specific machine state").
//!
//! It also implements the paper's coverage methodology (§5): hard-error
//! instruction coverage is the fraction of leading/trailing instruction
//! pairs that executed on spatially diverse hardware, weighted by core
//! area — 34% of the (non-issue-queue) core is frontend logic and 66% is
//! backend logic ([`AreaModel`], [`CoverageAccum`]).
//!
//! # Example
//!
//! ```
//! use blackjack_faults::{AreaModel, CoverageAccum};
//!
//! let mut cov = CoverageAccum::default();
//! // A pair diverse in the frontend but sharing a backend way:
//! cov.record_pair(true, false);
//! // A fully diverse pair:
//! cov.record_pair(true, true);
//! let area = AreaModel::default();
//! assert!((cov.total_coverage(&area) - (0.34 + 0.5 * 0.66)).abs() < 1e-12);
//! ```

mod coverage;
mod detection;
mod diagnosis;
pub mod ecc;
mod fault;

pub use coverage::{AreaModel, CoverageAccum};
pub use detection::{DetectionOutcome, DetectionTally, Taxonomy, TaxonomyTally};
pub use diagnosis::DiagnosisTable;
pub use ecc::EccOutcome;
pub use fault::{parse_fault, Corruption, FaultKind, FaultPlan, FaultSite, HardFault, Trigger};
