//! # Benchmark harnesses for the BlackJack reproduction
//!
//! The paper's evaluation and the extension/ablation harnesses:
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fig_all` | Table 1, Figures 4a/4b, 5, 6 and 7, and the EXPERIMENTS.md body |
//! | `ext_detection` | detection-rate sweep under injected faults |
//! | `ext_ablation` | slack sweep + design-choice ablation |
//!
//! Run with `cargo run --release -p blackjack-bench --bin <name>`. The
//! harnesses fan out over a worker pool ([`blackjack::Campaign`]); set
//! `BJ_THREADS` to pick the worker count and `BJ_SCALE` to scale the
//! workloads. Self-timed microbenchmarks of the simulator's machinery
//! live in `benches/`.

use blackjack::{envcfg, Experiment};

pub mod detection;

/// Builds the standard experiment at the scale used by the harnesses
/// (`BJ_SCALE`, default 1), exiting with a clear message when the
/// override is malformed.
pub fn standard_experiment() -> Experiment {
    let scale = envcfg::positive_from_env::<u32>("BJ_SCALE")
        .unwrap_or_else(|e| envcfg::exit_invalid(&e))
        .unwrap_or(1);
    Experiment::new().scale(scale)
}
