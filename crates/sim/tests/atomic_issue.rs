//! Atomic trailing-packet issue (DESIGN §1): under BlackJack every
//! trailing packet issues whole, in one cycle, even when rename pressure
//! dispatches its members across several cycles. The completeness check
//! behind this reads the trailing fetch queue, so the test starves rename
//! of physical registers until packets do split at dispatch, and checks
//! from the flight recorder that no packet splits at issue.

use std::collections::BTreeMap;

use blackjack_faults::FaultPlan;
use blackjack_isa::NUM_LOG_REGS;
use blackjack_sim::{Core, CoreConfig, FlightKind, Mode, RunOutcome, TRAILING};
use blackjack_workloads::{build, Benchmark};

/// Flight-recorder depth: enough for every event of the run below, so
/// the recorder never overwrites one.
const FLIGHT_EVENTS: usize = 600_000;

#[test]
fn trailing_packets_issue_whole_under_split_dispatch() {
    let mut cfg = CoreConfig::with_mode(Mode::BlackJack);
    // The fewest registers `validate` accepts: rename stalls mid-packet.
    cfg.phys_regs = NUM_LOG_REGS + cfg.width;
    let prog = build(Benchmark::Gzip, 1);
    let mut core = Core::new(cfg, &prog, FaultPlan::new());
    core.enable_trace_with_capacity(FLIGHT_EVENTS);
    assert_eq!(core.run(50_000_000), RunOutcome::Completed);

    let flight = &core.trace().expect("tracing was enabled").flight;
    assert_eq!(flight.len() as u64, flight.recorded(), "the recorder must hold the whole run");

    // Per trailing packet: the cycles its members dispatched and issued in.
    let mut dispatch: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut issue: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for ev in flight.events().iter().filter(|e| e.ctx == TRAILING) {
        match ev.kind {
            FlightKind::Dispatch => dispatch.entry(ev.packet).or_default().push(ev.cycle),
            FlightKind::Issue => issue.entry(ev.packet).or_default().push(ev.cycle),
            _ => {}
        }
    }
    let spans_cycles = |cycles: &Vec<u64>| cycles.iter().any(|&c| c != cycles[0]);
    let split_dispatch = dispatch.values().filter(|c| spans_cycles(c)).count();
    assert!(split_dispatch > 0, "no packet dispatched across cycles: the test exercises nothing");
    assert!(!issue.is_empty());
    for (packet, cycles) in &issue {
        assert!(!spans_cycles(cycles), "packet {packet} issued across cycles {cycles:?}");
        assert_eq!(
            cycles.len(),
            dispatch[packet].len(),
            "packet {packet}: every dispatched member issues"
        );
    }
}
