//! The cycle-level out-of-order SMT core.
//!
//! One `step()` simulates one cycle, walking the pipeline back to front so
//! structural resources freed by a later stage become visible to earlier
//! stages only in the following cycle:
//!
//! ```text
//! commit → complete/writeback → issue/execute → rename/dispatch →
//! safe-shuffle (off the critical path) → fetch
//! ```
//!
//! Context 0 is the leading (or only) thread; context 1 is the trailing
//! thread in the redundant modes. See the crate documentation for how the
//! SRT and BlackJack machinery hangs off this pipeline.

use std::sync::atomic::{AtomicU64, Ordering};

use blackjack_faults::{FaultPlan, FaultSite};
use blackjack_isa::exec::{effective_addr, exec_nonmem, finish_load, store_data};
use blackjack_isa::{decode, initial_int_regs, FuType, Inst, LogReg, PagedMem, Program};
use blackjack_mem::{MemSystem, StoreBuffer, StoreCheck, StoreRecord};

use crate::config::{CoreConfig, Mode, ShuffleAlgo};
use crate::detect::{DetectionEvent, DetectionKind, EarlyExitReason, RunOutcome};
use crate::stats::ExitReason;
use crate::dtq::{Dtq, DtqPayload};
use crate::fu::FuPool;
use crate::iq::IssueQueue;
use crate::lsq::Lsq;
use crate::predictor::{Btb, Gshare, Ras};
use crate::regfile::{CommitRat, LeadIndexedRat, RegFile};
use crate::rob::ActiveList;
use crate::shuffle::{exhaustive_shuffle, no_shuffle, safe_shuffle, ShuffleItem, Slot};
use crate::srt::{Boq, BoqEntry, Lvq, LvqEntry, WayLog, WayRecord};
use crate::stats::SimStats;
use crate::trace::{FlightEvent, FlightKind, TraceState, Tracer};
use crate::uop::{Stage, Uop, UopId, UopSlab};

/// Leading/single context index.
pub const LEADING: usize = 0;
/// Trailing context index.
pub const TRAILING: usize = 1;

/// Watchdog: a run with no commit for this many cycles is declared stuck.
const WATCHDOG_CYCLES: u64 = 200_000;

/// Default flight-recorder depth: enough to cover the in-flight window of
/// both contexts (each uop produces ~4 events and the machine holds at
/// most ~60 uops live), so a dump reaches back past the fetch of
/// everything in flight at the incident.
pub const FLIGHT_CAPACITY: usize = 256;

/// An architectural memory effect observed at leading commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEffect {
    /// A committed load.
    Load {
        /// Effective address.
        addr: u64,
        /// Loaded (extended) value.
        value: u64,
    },
    /// A committed store.
    Store {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
        /// Stored value (width-truncated).
        data: u64,
    },
}

/// One committed leading-context instruction, as recorded by
/// [`Core::enable_commit_log`].
///
/// This is the core's externally visible architectural trace — the
/// differential-fuzzing harness compares it 1:1 against the golden
/// interpreter's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Program-order sequence number.
    pub seq: u64,
    /// Fetch PC.
    pub pc: u64,
    /// Committed next PC.
    pub next_pc: u64,
    /// Conditional-branch outcome.
    pub taken: bool,
    /// Destination logical register and the value written, if any
    /// (writes to `x0` are architectural no-ops and appear as `None`).
    pub dst: Option<(LogReg, u64)>,
    /// Memory effect, for loads and stores.
    pub mem: Option<MemEffect>,
}

/// Per-site last-exercise tracker, filled in by the fault hooks of a core
/// with [`Core::enable_site_usage`] on (the *reference pass* of an
/// early-exit campaign; off by default and costing one branch per hook).
///
/// "Exercise" means the hook for the site was applied under exactly the
/// conditions a fault there would be consulted — frontend ways on every
/// fetched word, backend ways on every computed value, payload entries
/// only for occupants a (possibly split) payload RAM would expose. A
/// fault armed after its site's last exercise in the fault-free run can
/// never activate, so its run is bit-identical to the fault-free run and
/// provably benign with zero simulation.
///
/// Cells are atomics only so the tracker (inside a `Core`) stays `Sync`
/// for campaign-shared snapshots; recording is single-threaded.
#[derive(Debug, Default)]
pub struct SiteUsage {
    /// Last exercise cycle + 1 per frontend way (0 = never exercised).
    frontend: Vec<AtomicU64>,
    /// Last exercise cycle + 1 per backend way.
    backend: Vec<AtomicU64>,
    /// Last exercise cycle + 1 per payload-RAM entry.
    payload: Vec<AtomicU64>,
    /// Last exercise cycle + 1 per L1D data-array set (leading load
    /// value composition).
    cache_data: Vec<AtomicU64>,
    /// Last exercise cycle + 1 per L1D tag-array set (actual cache
    /// lookups on the load latency path — forwarded loads skip the tags).
    cache_tag: Vec<AtomicU64>,
    /// Last exercise cycle + 1 per store-buffer entry.
    store_buffer: Vec<AtomicU64>,
    /// Last exercise cycle + 1 per DTQ payload-RAM entry.
    dtq: Vec<AtomicU64>,
    /// Last exercise cycle + 1 per LVQ payload-RAM entry.
    lvq: Vec<AtomicU64>,
}

impl Clone for SiteUsage {
    fn clone(&self) -> SiteUsage {
        let copy = |v: &[AtomicU64]| {
            v.iter().map(|c| AtomicU64::new(c.load(Ordering::Relaxed))).collect()
        };
        SiteUsage {
            frontend: copy(&self.frontend),
            backend: copy(&self.backend),
            payload: copy(&self.payload),
            cache_data: copy(&self.cache_data),
            cache_tag: copy(&self.cache_tag),
            store_buffer: copy(&self.store_buffer),
            dtq: copy(&self.dtq),
            lvq: copy(&self.lvq),
        }
    }

    fn clone_from(&mut self, source: &SiteUsage) {
        let refill = |dst: &mut Vec<AtomicU64>, src: &[AtomicU64]| {
            dst.clear();
            dst.extend(src.iter().map(|c| AtomicU64::new(c.load(Ordering::Relaxed))));
        };
        refill(&mut self.frontend, &source.frontend);
        refill(&mut self.backend, &source.backend);
        refill(&mut self.payload, &source.payload);
        refill(&mut self.cache_data, &source.cache_data);
        refill(&mut self.cache_tag, &source.cache_tag);
        refill(&mut self.store_buffer, &source.store_buffer);
        refill(&mut self.dtq, &source.dtq);
        refill(&mut self.lvq, &source.lvq);
    }
}

impl SiteUsage {
    fn for_config(cfg: &CoreConfig) -> SiteUsage {
        let cells = |site| (0..cfg.site_extent(site)).map(|_| AtomicU64::new(0)).collect();
        SiteUsage {
            frontend: cells(FaultSite::Frontend { way: 0 }),
            backend: cells(FaultSite::Backend { way: 0 }),
            payload: cells(FaultSite::PayloadRam { entry: 0 }),
            cache_data: cells(FaultSite::CacheData { index: 0 }),
            cache_tag: cells(FaultSite::CacheTag { index: 0 }),
            store_buffer: cells(FaultSite::StoreBuffer { entry: 0 }),
            dtq: cells(FaultSite::DtqPayload { entry: 0 }),
            lvq: cells(FaultSite::LvqPayload { entry: 0 }),
        }
    }

    fn note(cells: &[AtomicU64], i: usize, cycle: u64) {
        if let Some(c) = cells.get(i) {
            // Cycles only move forward, so a plain store stays monotone.
            c.store(cycle + 1, Ordering::Relaxed);
        }
    }

    /// The cycle `site` was last exercised, or `None` if never.
    pub fn last_use(&self, site: FaultSite) -> Option<u64> {
        let cell = match site {
            FaultSite::Frontend { way } => self.frontend.get(way),
            FaultSite::Backend { way } => self.backend.get(way),
            FaultSite::PayloadRam { entry } => self.payload.get(entry),
            FaultSite::CacheData { index } => self.cache_data.get(index),
            FaultSite::CacheTag { index } => self.cache_tag.get(index),
            FaultSite::StoreBuffer { entry } => self.store_buffer.get(entry),
            FaultSite::DtqPayload { entry } => self.dtq.get(entry),
            FaultSite::LvqPayload { entry } => self.lvq.get(entry),
        };
        match cell.map(|c| c.load(Ordering::Relaxed)).unwrap_or(0) {
            0 => None,
            stamped => Some(stamped - 1),
        }
    }
}

impl ShuffleItem for DtqPayload {
    fn fu_type(&self) -> FuType {
        self.fu
    }
    fn lead_front_way(&self) -> usize {
        self.front_way
    }
    fn lead_back_way(&self) -> usize {
        self.back_way
    }
}

/// Reusable per-cycle scratch buffers.
///
/// `step()` runs hundreds of millions of times per campaign; these
/// buffers are taken (`std::mem::take`), cleared, filled, and put back
/// each cycle, so the steady-state hot path performs no heap allocation —
/// every buffer retains its high-water-mark capacity across cycles.
#[derive(Clone, Default)]
struct StepScratch {
    /// Completions due this cycle.
    due: Vec<(u64, UopId)>,
    /// Uops issued this cycle.
    issued: Vec<UopId>,
    /// Age-ordered issue candidates.
    candidates: Vec<(UopId, usize)>,
    /// Per-trailing-packet operand readiness (packet id, all ready).
    packet_ready: Vec<(u64, bool)>,
    /// Trailing packets already considered for atomic issue this cycle.
    handled_packets: Vec<u64>,
    /// Members of the atomic packet under consideration.
    members: Vec<(UopId, usize)>,
    /// Backend ways allocated to the atomic packet under consideration.
    ways: Vec<usize>,
    /// Distinct trailing packets seen this issue cycle.
    packets: Vec<u64>,
    /// Leading uops issued this cycle (DTQ allocation order).
    leading: Vec<UopId>,
    /// Packet-boundary markers for DTQ allocation.
    breaks: Vec<bool>,
    /// Same-group destination registers (packet-splitting dependence check).
    dsts: Vec<crate::uop::PhysReg>,
}

/// Per-context (per-SMT-thread) machine state.
#[derive(Clone)]
struct Context {
    regs: RegFile,
    al: ActiveList,
    lsq: Lsq,
    frontq: std::collections::VecDeque<UopId>,
    fetch_pc: u64,
    fetch_halted: bool,
    fetch_stall_until: u64,
    /// Counters assigned at fetch: [next_seq, next_load, next_store, next_mem].
    counters: [u64; 4],
    /// Committed memory ops (trailing LSQ-window head).
    committed_mem: u64,
    /// Real (non-filler) instructions fetched — the slack denominator.
    fetched_real: u64,
}

impl Context {
    fn new(cfg: &CoreConfig, entry: u64) -> Context {
        Context {
            regs: RegFile::new(cfg.phys_regs, &initial_int_regs()),
            al: ActiveList::new(cfg.active_list),
            lsq: Lsq::new(cfg.lsq),
            frontq: std::collections::VecDeque::with_capacity(cfg.fetch_queue),
            fetch_pc: entry,
            fetch_halted: false,
            fetch_stall_until: 0,
            counters: [0; 4],
            committed_mem: 0,
            fetched_real: 0,
        }
    }
}

/// The simulated core. Construct with [`Core::new`], drive with
/// [`Core::run`], inspect with [`Core::stats`] and the architectural-state
/// accessors.
///
/// `Clone` covers the *entire* ownership tree (contexts, queues,
/// predictors, memory hierarchy, statistics), which is what makes
/// [`Core::snapshot`] exact: a clone is indistinguishable from the
/// original under every subsequent `step()`. The impl is hand-written
/// only so `clone_from` can forward field-wise — snapshot recycling
/// refreshes a retired snapshot in place, reusing its allocations,
/// instead of rebuilding ~50 vectors per snapshot.
pub struct Core {
    cfg: CoreConfig,
    cycle: u64,
    next_uid: u64,
    slab: UopSlab,
    ctxs: Vec<Context>,
    iq: IssueQueue,
    fus: FuPool,
    mem_sys: MemSystem,
    mem: PagedMem,
    sb: StoreBuffer,
    boq: Boq,
    lvq: Lvq,
    waylog: WayLog,
    dtq: Dtq,
    /// Shuffled packets awaiting trailing fetch (BlackJack modes).
    fetchq_packets: std::collections::VecDeque<Vec<Slot<DtqPayload>>>,
    gshare: Gshare,
    btb: Btb,
    ras: Ras,
    plan: FaultPlan,
    stats: SimStats,
    inflight: Vec<(u64, UopId)>,
    halted: [bool; 2],
    detection: Option<DetectionEvent>,
    done: bool,
    lead_packets: u64,
    trail_packets: u64,

    /// Reusable per-cycle scratch buffers (see [`StepScratch`]).
    scratch: StepScratch,

    /// Expected PC of the next trailing commit (program-order chain check).
    trail_expect_pc: u64,
    commit_rat: CommitRat,
    tmap: LeadIndexedRat,
    last_commit_cycle: u64,
    /// Early-exit watchdog: declare the run stuck after this many cycles
    /// with no commit and no fault-hook activity (`None` = only the
    /// built-in [`WATCHDOG_CYCLES`] applies).
    stall_window: Option<u64>,
    /// Early-exit convergence point: once past this cycle with zero plan
    /// activations the run is sealed benign (`None` = never seal).
    quiesce_cycle: Option<u64>,
    /// Plan activation count at the last early-exit check, to timestamp
    /// fault-hook activity for the stall watchdog.
    seen_activations: u64,
    /// Cycle of the last observed fault-hook activation.
    last_activity_cycle: u64,
    /// Reference-pass site-usage tracker ([`Core::enable_site_usage`]).
    site_usage: Option<SiteUsage>,
    /// Architectural commit trace ([`Core::enable_commit_log`]); `None`
    /// (the default) keeps the commit path a single branch.
    commit_log: Option<Vec<CommitRecord>>,
    /// Observability hooks; `Tracer::Off` (the default) keeps every hook
    /// a single discriminant branch — no allocation in the hot loop.
    tracer: Tracer,
}

/// Field-wise `clone_from` (see the struct docs). The destructuring in
/// `clone_from` is deliberate: adding a field to `Core` without updating
/// the impl is a compile error, so a snapshot refresh can never silently
/// skip state.
impl Clone for Core {
    fn clone(&self) -> Core {
        Core {
            cfg: self.cfg.clone(),
            cycle: self.cycle,
            next_uid: self.next_uid,
            slab: self.slab.clone(),
            ctxs: self.ctxs.clone(),
            iq: self.iq.clone(),
            fus: self.fus.clone(),
            mem_sys: self.mem_sys.clone(),
            mem: self.mem.clone(),
            sb: self.sb.clone(),
            boq: self.boq.clone(),
            lvq: self.lvq.clone(),
            waylog: self.waylog.clone(),
            dtq: self.dtq.clone(),
            fetchq_packets: self.fetchq_packets.clone(),
            gshare: self.gshare.clone(),
            btb: self.btb.clone(),
            ras: self.ras.clone(),
            plan: self.plan.clone(),
            stats: self.stats.clone(),
            inflight: self.inflight.clone(),
            halted: self.halted,
            detection: self.detection,
            done: self.done,
            lead_packets: self.lead_packets,
            trail_packets: self.trail_packets,
            scratch: self.scratch.clone(),
            trail_expect_pc: self.trail_expect_pc,
            commit_rat: self.commit_rat.clone(),
            tmap: self.tmap.clone(),
            last_commit_cycle: self.last_commit_cycle,
            stall_window: self.stall_window,
            quiesce_cycle: self.quiesce_cycle,
            seen_activations: self.seen_activations,
            last_activity_cycle: self.last_activity_cycle,
            site_usage: self.site_usage.clone(),
            commit_log: self.commit_log.clone(),
            tracer: self.tracer.clone(),
        }
    }

    fn clone_from(&mut self, source: &Core) {
        let Core {
            cfg,
            cycle,
            next_uid,
            slab,
            ctxs,
            iq,
            fus,
            mem_sys,
            mem,
            sb,
            boq,
            lvq,
            waylog,
            dtq,
            fetchq_packets,
            gshare,
            btb,
            ras,
            plan,
            stats,
            inflight,
            halted,
            detection,
            done,
            lead_packets,
            trail_packets,
            scratch,
            trail_expect_pc,
            commit_rat,
            tmap,
            last_commit_cycle,
            stall_window,
            quiesce_cycle,
            seen_activations,
            last_activity_cycle,
            site_usage,
            commit_log,
            tracer,
        } = source;
        self.cfg.clone_from(cfg);
        self.cycle = *cycle;
        self.next_uid = *next_uid;
        self.slab.clone_from(slab);
        self.ctxs.clone_from(ctxs);
        self.iq.clone_from(iq);
        self.fus.clone_from(fus);
        self.mem_sys.clone_from(mem_sys);
        self.mem.clone_from(mem);
        self.sb.clone_from(sb);
        self.boq.clone_from(boq);
        self.lvq.clone_from(lvq);
        self.waylog.clone_from(waylog);
        self.dtq.clone_from(dtq);
        self.fetchq_packets.clone_from(fetchq_packets);
        self.gshare.clone_from(gshare);
        self.btb.clone_from(btb);
        self.ras.clone_from(ras);
        self.plan.clone_from(plan);
        self.stats.clone_from(stats);
        self.inflight.clone_from(inflight);
        self.halted = *halted;
        self.detection.clone_from(detection);
        self.done = *done;
        self.lead_packets = *lead_packets;
        self.trail_packets = *trail_packets;
        self.scratch.clone_from(scratch);
        self.trail_expect_pc = *trail_expect_pc;
        self.commit_rat.clone_from(commit_rat);
        self.tmap.clone_from(tmap);
        self.last_commit_cycle = *last_commit_cycle;
        self.stall_window = *stall_window;
        self.quiesce_cycle = *quiesce_cycle;
        self.seen_activations = *seen_activations;
        self.last_activity_cycle = *last_activity_cycle;
        self.site_usage.clone_from(site_usage);
        self.commit_log.clone_from(commit_log);
        self.tracer.clone_from(tracer);
    }
}

impl Core {
    /// Builds a core running `prog` under `cfg` with faults from `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CoreConfig::validate`]).
    pub fn new(cfg: CoreConfig, prog: &Program, plan: FaultPlan) -> Core {
        cfg.validate();
        let n_ctx = if cfg.mode.is_redundant() { 2 } else { 1 };
        let ctxs = (0..n_ctx).map(|_| Context::new(&cfg, prog.entry())).collect();
        Core {
            cycle: 0,
            next_uid: 0,
            slab: UopSlab::new(),
            ctxs,
            iq: IssueQueue::new(cfg.issue_queue),
            fus: FuPool::new(cfg.fu_counts),
            mem_sys: MemSystem::new(&cfg.mem),
            mem: prog.load(),
            sb: StoreBuffer::new(cfg.store_buffer),
            boq: Boq::new(cfg.boq),
            lvq: Lvq::new(cfg.lvq),
            waylog: WayLog::new(),
            dtq: Dtq::new(cfg.dtq),
            fetchq_packets: std::collections::VecDeque::new(),
            gshare: Gshare::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_entries),
            ras: Ras::new(cfg.ras_depth),
            plan,
            stats: SimStats::default(),
            inflight: Vec::new(),
            halted: [false, false],
            detection: None,
            done: false,
            lead_packets: 0,
            trail_packets: 0,
            scratch: StepScratch::default(),
            trail_expect_pc: prog.entry(),
            commit_rat: CommitRat::new(),
            tmap: LeadIndexedRat::new(cfg.phys_regs),
            last_commit_cycle: 0,
            stall_window: None,
            quiesce_cycle: None,
            seen_activations: 0,
            last_activity_cycle: 0,
            site_usage: None,
            commit_log: None,
            tracer: Tracer::Off,
            cfg,
        }
    }

    /// Turns on the observability layer (occupancy histograms, the way
    /// heatmap, and a [`FLIGHT_CAPACITY`]-event flight recorder). All
    /// buffers are allocated here, once; recording never allocates.
    pub fn enable_trace(&mut self) {
        self.enable_trace_with_capacity(FLIGHT_CAPACITY);
    }

    /// [`Core::enable_trace`] with an explicit flight-recorder depth.
    pub fn enable_trace_with_capacity(&mut self, flight_capacity: usize) {
        self.tracer = Tracer::enabled(&self.cfg, flight_capacity);
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceState> {
        self.tracer.state()
    }

    /// Detaches and returns the recorded trace, turning tracing off.
    pub fn take_trace(&mut self) -> Option<Box<TraceState>> {
        match std::mem::take(&mut self.tracer) {
            Tracer::Off => None,
            Tracer::On(t) => Some(t),
        }
    }

    /// Turns on recording of every leading-context commit as a
    /// [`CommitRecord`] (PC, destination write, memory effect). Works in
    /// every mode and with faults injected — the record reflects what the
    /// (possibly corrupted) pipeline actually did.
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// The recorded commit stream, if [`Core::enable_commit_log`] was
    /// called.
    pub fn commit_log(&self) -> Option<&[CommitRecord]> {
        self.commit_log.as_deref()
    }

    /// Detaches and returns the recorded commit stream, turning recording
    /// off.
    pub fn take_commit_log(&mut self) -> Option<Vec<CommitRecord>> {
        self.commit_log.take()
    }

    /// The active fault plan (its activation counters drive the
    /// early-exit mechanisms and their tests).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Replaces the fault plan and clears every piece of early-exit
    /// bookkeeping — the new plan's counters, the quiescence point, the
    /// stall window, and any reference-pass site-usage tracker — so a
    /// fork never inherits stale state from its donor.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        plan.reset_counters();
        self.plan = plan;
        self.seen_activations = 0;
        self.last_activity_cycle = self.cycle;
        self.quiesce_cycle = None;
        self.stall_window = None;
        self.site_usage = None;
    }

    /// Arms the early-exit stall watchdog: after `window` cycles with no
    /// commit and no fault-hook activity the run returns
    /// [`RunOutcome::EarlyExit`]`(`[`EarlyExitReason::Stalled`]`)`.
    /// `None` (the default) leaves only the built-in watchdog.
    pub fn set_stall_window(&mut self, window: Option<u64>) {
        self.stall_window = window;
    }

    /// Arms the early-exit convergence seal: once `cycle` is reached with
    /// zero plan activations the run returns
    /// [`RunOutcome::EarlyExit`]`(`[`EarlyExitReason::Converged`]`)`.
    /// Sound only when `cycle` is at or past the fault site's last
    /// exercise in the fault-free run (see [`SiteUsage`]).
    pub fn set_quiesce_cycle(&mut self, cycle: Option<u64>) {
        self.quiesce_cycle = cycle;
    }

    /// Turns on per-site last-exercise tracking (the reference pass of an
    /// early-exit campaign). Off by default: one branch per fault hook.
    pub fn enable_site_usage(&mut self) {
        self.site_usage = Some(SiteUsage::for_config(&self.cfg));
    }

    /// The site-usage tracker, if enabled.
    pub fn site_usage(&self) -> Option<&SiteUsage> {
        self.site_usage.as_ref()
    }

    /// Detaches the site-usage tracker, turning tracking off.
    pub fn take_site_usage(&mut self) -> Option<SiteUsage> {
        self.site_usage.take()
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// One-line description of machine occupancy, for stuck-state triage.
    pub fn debug_state(&self) -> String {
        let mut out = format!(
            "cycle={} halted={:?} iq={} inflight={} sb={} lvq={} boq={} dtq={} fetchq_pkts={}",
            self.cycle,
            self.halted,
            self.iq.len(),
            self.inflight.len(),
            self.sb.len(),
            self.lvq.len(),
            self.boq.len(),
            self.dtq.len(),
            self.fetchq_packets.len(),
        );
        for (i, c) in self.ctxs.iter().enumerate() {
            out += &format!(
                " | ctx{i}: frontq={} al={} head_seq={} head_ready={} lsq={} fetch_pc={:#x} fetch_halted={} committed_mem={}",
                c.frontq.len(),
                c.al.len(),
                c.al.head_seq(),
                c.al.head().map(|h| format!("{:?}", self.slab.at(h).stage)).unwrap_or_else(|| "hole".into()),
                c.lsq.len(),
                c.fetch_pc,
                c.fetch_halted,
                c.committed_mem,
            );
        }
        for (id, _) in self.iq.iter_aged().take(12) {
            let u = self.slab.at(id);
            out += &format!(
                "\n  iq: ctx={} seq={} pc={:#x} {} pkt={:?} filler={} ready={}",
                u.ctx, u.seq, u.pc, u.inst, u.packet, u.filler, self.operands_ready(id)
            );
        }
        for &(done, id) in self.inflight.iter().take(6) {
            if let Some(u) = self.slab.get(id) {
                out += &format!(
                    "\n  inflight(done={done}): ctx={} seq={} pc={:#x} {} store_val={:?} result={:?}",
                    u.ctx, u.seq, u.pc, u.inst, u.store_val, u.result
                );
            }
        }
        out
    }

    /// The (post-check) memory image.
    pub fn mem(&self) -> &PagedMem {
        &self.mem
    }

    /// The memory-hierarchy timing model (for cache statistics).
    pub fn mem_sys(&self) -> &MemSystem {
        &self.mem_sys
    }

    /// Committed architectural value of integer register `x<n>` in the
    /// leading context. Exact once the run has completed.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn arch_reg(&self, n: usize) -> u64 {
        let p = self.ctxs[LEADING].regs.lookup(blackjack_isa::LogReg::new(n as u8));
        self.ctxs[LEADING].regs.read(p)
    }

    /// Committed architectural value of FP register `f<n>` (raw bits).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn arch_freg_bits(&self, n: usize) -> u64 {
        let p = self.ctxs[LEADING].regs.lookup(blackjack_isa::LogReg::new(32 + n as u8));
        self.ctxs[LEADING].regs.read(p)
    }

    /// True once the run has finished cleanly.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Freezes the complete simulation state — contexts, queues,
    /// predictors, the memory hierarchy, and statistics — into a
    /// restore-exact [`CoreSnapshot`]. The original core is untouched and
    /// both copies evolve identically under subsequent [`Core::step`]s.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot { core: self.clone() }
    }

    /// Runs until completion, detection, or `max_cycles`. Wall-clock time
    /// spent here accumulates into [`SimStats::wall_nanos`].
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        let t0 = std::time::Instant::now();
        let mut watchdog_fired = false;
        let mut early: Option<EarlyExitReason> = None;
        while !self.done && self.detection.is_none() && self.cycle < max_cycles {
            self.step();
            if self.cycle - self.last_commit_cycle > WATCHDOG_CYCLES {
                self.stats.deadlocked = true;
                watchdog_fired = true;
                break;
            }
            if let Some(r) = self.early_exit_check() {
                early = Some(r);
                break;
            }
        }
        self.stats.wall_nanos += t0.elapsed().as_nanos() as u64;
        let outcome = if watchdog_fired {
            RunOutcome::CycleLimit
        } else if let Some(e) = self.detection {
            RunOutcome::Detected(e)
        } else if self.done {
            RunOutcome::Completed
        } else if let Some(r) = early {
            if r == EarlyExitReason::Stalled {
                self.stats.deadlocked = true;
            }
            RunOutcome::EarlyExit(r)
        } else {
            RunOutcome::CycleLimit
        };
        self.stats.exit_reason = Some(match outcome {
            RunOutcome::Completed => ExitReason::Completed,
            RunOutcome::Detected(_) => ExitReason::Detected,
            RunOutcome::CycleLimit => ExitReason::CycleLimit,
            RunOutcome::EarlyExit(EarlyExitReason::Converged) => ExitReason::Converged,
            RunOutcome::EarlyExit(EarlyExitReason::Stalled) => ExitReason::Stalled,
        });
        outcome
    }

    /// The per-cycle early-exit probe; free (two `None` tests) unless a
    /// mechanism was enabled with [`Core::set_quiesce_cycle`] or
    /// [`Core::set_stall_window`].
    #[inline]
    fn early_exit_check(&mut self) -> Option<EarlyExitReason> {
        if self.stall_window.is_none() && self.quiesce_cycle.is_none() {
            return None;
        }
        let acts = self.plan.activations();
        if acts != self.seen_activations {
            self.seen_activations = acts;
            self.last_activity_cycle = self.cycle;
        }
        if let Some(q) = self.quiesce_cycle {
            // Past the site's last fault-free exercise with zero
            // activations: the run has been bit-identical to the
            // fault-free run so far, so its future is the fault-free
            // future — in which the site is never exercised again. The
            // verdict (clean completion, golden memory) is sealed.
            if self.cycle >= q && acts == 0 {
                return Some(EarlyExitReason::Converged);
            }
        }
        if let Some(w) = self.stall_window {
            // Fold the fault plan's hook state in: an activation counts
            // as progress, so a periodically re-activating fault cannot
            // false-positive the watchdog, and the window never starts
            // before the plan has even armed.
            let base =
                self.last_commit_cycle.max(self.last_activity_cycle).max(self.plan.arm_cycle());
            if self.cycle.saturating_sub(base) > w {
                return Some(EarlyExitReason::Stalled);
            }
        }
        None
    }

    /// Simulates one cycle.
    pub fn step(&mut self) {
        if self.done || self.detection.is_some() {
            return;
        }
        self.cycle += 1;
        // Publish the cycle so every fault hook this step evaluates the
        // plan's temporal model (transient/intermittent presence) against
        // the cycle being simulated.
        self.plan.observe_cycle(self.cycle);
        self.stats.cycles = self.cycle;
        if self.tracer.is_on() {
            // Start-of-cycle occupancy snapshot (last cycle's end state).
            let lsq: usize = self.ctxs.iter().map(|c| c.lsq.len()).sum();
            let al: usize = self.ctxs.iter().map(|c| c.al.len()).sum();
            let slack = self.cfg.mode.is_redundant().then(|| {
                self.stats.committed[LEADING]
                    .saturating_sub(self.ctxs[TRAILING].fetched_real)
            });
            self.tracer.cycle_sample(self.iq.len(), self.dtq.len(), lsq, al, slack);
        }
        self.commit();
        if self.done || self.detection.is_some() {
            return;
        }
        self.complete();
        if self.detection.is_some() {
            return;
        }
        self.issue();
        self.dispatch();
        if self.cfg.mode.uses_dtq() {
            self.shuffle_stage();
        }
        if self.detection.is_some() {
            return;
        }
        self.fetch();
    }

    fn detect(&mut self, kind: DetectionKind, seq: u64, pc: u64) {
        self.detect_ways(kind, seq, pc, None, None, None);
    }

    fn detect_ways(
        &mut self,
        kind: DetectionKind,
        seq: u64,
        pc: u64,
        lead_back_way: Option<usize>,
        trail_back_way: Option<usize>,
        front_ways: Option<(usize, usize)>,
    ) {
        let ev = DetectionEvent {
            kind,
            cycle: self.cycle,
            seq,
            pc,
            lead_back_way,
            trail_back_way,
            front_ways,
            store_compared: None,
        };
        self.record_detection(ev);
    }

    fn record_detection(&mut self, ev: DetectionEvent) {
        if self.tracer.is_on() {
            self.tracer.event(FlightEvent {
                cycle: ev.cycle,
                kind: FlightKind::Detect,
                uid: u64::MAX,
                ctx: if self.cfg.mode.is_redundant() { TRAILING } else { LEADING },
                seq: ev.seq,
                pc: ev.pc,
                way: ev.trail_back_way.unwrap_or(usize::MAX),
                packet: u64::MAX,
                filler: false,
            });
        }
        if self.detection.is_none() {
            self.detection = Some(ev);
        }
        self.stats.detections.push(ev);
    }

    /// Flight-recorder hook: records `id` reaching pipeline stage `kind`.
    /// A single branch when tracing is off; must run while the uop is
    /// still in the slab.
    #[inline]
    fn trace_uop(&mut self, kind: FlightKind, id: UopId) {
        if !self.tracer.is_on() {
            return;
        }
        let u = self.slab.at(id);
        let way = match kind {
            FlightKind::Fetch | FlightKind::Dispatch => u.front_way,
            _ => u.back_way.unwrap_or(usize::MAX),
        };
        let ev = FlightEvent {
            cycle: self.cycle,
            kind,
            uid: u.uid,
            ctx: u.ctx,
            seq: u.seq,
            pc: u.pc,
            way,
            packet: u.packet.unwrap_or(u64::MAX),
            filler: u.filler,
        };
        self.tracer.event(ev);
    }

    // ----------------------------------------------------------------- commit

    fn commit(&mut self) {
        self.commit_ctx(LEADING);
        if self.cfg.mode.is_redundant() && self.detection.is_none() {
            self.commit_ctx(TRAILING);
        }
        // Run-completion check.
        if self.cfg.mode.is_redundant() {
            if self.halted[0] && self.halted[1] {
                if !self.sb.is_empty() && !self.plan.is_empty() {
                    // A fault that corrupts the trailing stream into an
                    // early `halt` leaves leading stores unchecked; the
                    // surplus is itself the divergence.
                    self.detect(
                        DetectionKind::UncheckedStores,
                        self.stats.committed[TRAILING],
                        self.trail_expect_pc,
                    );
                    return;
                }
                debug_assert!(self.sb.is_empty(), "stores unchecked at completion");
                self.done = true;
            }
        } else if self.halted[0] {
            self.done = true;
        }
    }

    fn commit_ctx(&mut self, ctx: usize) {
        for _ in 0..self.cfg.width {
            if self.halted[ctx] || self.detection.is_some() {
                break;
            }
            let Some(id) = self.ctxs[ctx].al.head() else { break };
            if self.slab.at(id).stage != Stage::Completed {
                break;
            }
            let ok = if ctx == LEADING {
                self.commit_leading(id)
            } else {
                self.commit_trailing(id)
            };
            if !ok {
                break; // structural stall (queue full)
            }
            self.last_commit_cycle = self.cycle;
        }
    }

    /// Commits the leading-context head. Returns false on a structural
    /// stall (downstream queue full).
    fn commit_leading(&mut self, id: UopId) -> bool {
        let redundant = self.cfg.mode.is_redundant();
        let uses_dtq = self.cfg.mode.uses_dtq();
        let u = self.slab.at(id);

        // Structural stalls before any state change.
        if redundant {
            if u.inst.is_store() && self.sb.is_full() {
                return false;
            }
            if u.inst.is_load() && self.lvq.is_full() {
                return false;
            }
            if self.cfg.mode == Mode::Srt && u.inst.is_control() && self.boq.is_full() {
                return false;
            }
        }

        let (seq, pc, next_pc, taken) = (u.seq, u.pc, u.next_pc, u.taken);
        let inst = u.inst;
        let pristine = u.pristine;
        let log_dst = u.log_dst;
        let (front_way, back_way) = (u.front_way, u.back_way.unwrap_or(usize::MAX));
        let (dst, old_dst) = (u.dst, u.old_dst);
        let (load_seq, store_seq, mem_seq) = (u.load_seq, u.store_seq, u.mem_seq);
        let (eff_addr, store_val, result) = (u.eff_addr, u.store_val, u.result);
        let ecc = u.ecc;
        let lead_srcs = u.srcs;
        let ghist = u.ghist_snapshot;
        let dtq_index = u.dtq_index;

        // Register freeing.
        if dst.is_some() {
            if let Some(old) = old_dst {
                self.ctxs[LEADING].regs.free_reg(old);
            }
        }

        // Memory side.
        if inst.is_mem() {
            self.ctxs[LEADING].lsq.commit_head(seq);
            self.ctxs[LEADING].committed_mem += 1;
        }
        if inst.is_store() {
            let mut rec = StoreRecord {
                addr: eff_addr.expect("committed store has an address"),
                bytes: inst.mem_bytes().expect("store width"),
                data: store_val.expect("committed store has data"),
                seq: store_seq.expect("store seq"),
            };
            if redundant {
                // A defective store-buffer entry corrupts the buffered
                // leading copy; the trailing comparison at release then
                // disagrees and the store never reaches memory.
                rec.data = self.corrupt_sb_data(rec.seq, rec.data);
                self.sb.push(rec);
            } else {
                self.mem.write_sized(rec.addr, rec.bytes, rec.data);
                self.mem_sys.access_data(rec.addr, true);
            }
        }
        if inst.is_load() && redundant {
            let load_seq = load_seq.expect("load seq");
            self.lvq.push(LvqEntry {
                load_seq,
                addr: eff_addr.expect("committed load has an address"),
                value: result.expect("committed load has a value"),
                ecc,
            });
        }

        // Control side: predictor training + BOQ.
        if inst.is_cond_branch() {
            self.stats.branches += 1;
            self.gshare.train(pc, ghist, taken);
        }
        if let Inst::Jalr { .. } = inst {
            self.btb.update(pc, next_pc);
        }
        if inst.is_control() && self.cfg.mode == Mode::Srt {
            self.boq.push(BoqEntry { branch_seq: seq, taken, next_pc });
        }

        // Redundancy bookkeeping.
        if uses_dtq {
            let payload = DtqPayload {
                raw: pristine,
                pc,
                next_pc,
                seq,
                load_seq,
                store_seq,
                mem_seq,
                lead_srcs,
                lead_dst: dst,
                front_way,
                back_way,
                fu: inst.fu_type(),
            };
            self.dtq.record(dtq_index.expect("leading committed without a DTQ entry"), payload);
        } else if redundant {
            self.waylog.push(WayRecord { seq, front_way, back_way });
        }

        if matches!(inst, Inst::Halt) {
            self.halted[LEADING] = true;
        }

        if let Some(log) = self.commit_log.as_mut() {
            let dst_write = match (log_dst, dst) {
                (Some(l), Some(_)) => {
                    Some((l, result.expect("committed writer has a result")))
                }
                _ => None,
            };
            let mem = if inst.is_store() {
                Some(MemEffect::Store {
                    addr: eff_addr.expect("committed store has an address"),
                    bytes: inst.mem_bytes().expect("store width"),
                    data: store_val.expect("committed store has data"),
                })
            } else if inst.is_load() {
                Some(MemEffect::Load {
                    addr: eff_addr.expect("committed load has an address"),
                    value: result.expect("committed load has a value"),
                })
            } else {
                None
            };
            log.push(CommitRecord { seq, pc, next_pc, taken, dst: dst_write, mem });
        }

        self.trace_uop(FlightKind::Commit, id);
        self.ctxs[LEADING].al.commit_head();
        self.slab.remove(id);
        self.stats.committed[LEADING] += 1;
        true
    }

    /// Commits the trailing-context head, running the BlackJack/SRT checks.
    fn commit_trailing(&mut self, id: UopId) -> bool {
        let uses_dtq = self.cfg.mode.uses_dtq();
        let u = self.slab.at(id);
        let (seq, pc, next_pc) = (u.seq, u.pc, u.next_pc);
        // The trailing thread is the checker: it must never commit an
        // instruction the leading thread has not committed (possible in
        // SRT when structural stalls collapse the slack to zero — the
        // trailing store would find an empty store buffer and
        // false-positive as an unpaired store).
        if seq >= self.stats.committed[LEADING] {
            return false;
        }
        // Way usage of the two copies, recorded with any detection so an
        // online-diagnosis layer can localize the defective unit.
        let ev_lead_back = if uses_dtq {
            (u.lead_back_way != usize::MAX).then_some(u.lead_back_way)
        } else {
            self.waylog.get(seq).map(|r| r.back_way)
        };
        let ev_trail_back = u.back_way;
        let ev_fronts = if uses_dtq {
            (u.lead_front_way != usize::MAX).then_some((u.lead_front_way, u.front_way))
        } else {
            self.waylog.get(seq).map(|r| (r.front_way, u.front_way))
        };
        let dw = (ev_lead_back, ev_trail_back, ev_fronts);
        let inst = u.inst;
        let (dst, old_dst) = (u.dst, u.old_dst);
        let srcs = u.srcs;
        let (load_seq, _store_seq) = (u.load_seq, u.store_seq);
        let (eff_addr, store_val) = (u.eff_addr, u.store_val);
        let (front_way, back_way) = (u.front_way, u.back_way.unwrap_or(usize::MAX));
        let (lead_front, lead_back) = (u.lead_front_way, u.lead_back_way);
        let lead_next_pc = u.lead_next_pc;

        // Program-order (PC chain) check, §4.4.
        if pc != self.trail_expect_pc {
            self.detect_ways(DetectionKind::ProgramOrderMismatch, seq, pc, dw.0, dw.1, dw.2);
            return false;
        }

        // Branch-outcome verification of borrowed control flow.
        if uses_dtq && next_pc != lead_next_pc {
            self.detect_ways(DetectionKind::BranchOutcomeMismatch, seq, pc, dw.0, dw.1, dw.2);
            return false;
        }

        // Dependence check through the second (program-order) rename table
        // (BlackJack modes; SRT's trailing rename is its own program-order
        // rename, so no borrowed dependence information exists to check).
        if uses_dtq {
            let mut logical_srcs = inst.srcs().filter(|r| !r.is_zero());
            for (i, used) in srcs.iter().enumerate() {
                let Some(used) = used else { continue };
                let Some(log) = logical_srcs.next() else { continue };
                let expected = self.commit_rat.lookup(log);
                if expected != *used {
                    self.detect_ways(DetectionKind::DependenceCheckMismatch, seq, pc, dw.0, dw.1, dw.2);
                    return false;
                }
                let _ = i;
            }
            if let (Some(d), Some(log)) = (dst, inst.dst()) {
                let prev = self.commit_rat.commit_dst(log, d);
                self.ctxs[TRAILING].regs.free_reg(prev);
            }
        } else if dst.is_some() {
            if let Some(old) = old_dst {
                self.ctxs[TRAILING].regs.free_reg(old);
            }
        }

        // Store check against the buffered leading store. In the DTQ
        // modes the trailing store's data is read here, at commit, through
        // the program-order rename table (see `try_rename_dispatch`).
        if inst.is_store() {
            let addr = eff_addr.expect("committed store has an address");
            let bytes = inst.mem_bytes().expect("store width");
            let data = if uses_dtq {
                let log = inst
                    .srcs()
                    .nth(1)
                    .expect("stores have a data operand");
                let raw = if log.is_zero() {
                    0
                } else {
                    self.ctxs[TRAILING].regs.read(self.commit_rat.lookup(log))
                };
                store_data(&inst, raw)
            } else {
                store_val.expect("committed store has data")
            };
            self.stats.store_checks += 1;
            match self.sb.check(addr, bytes, data, &mut self.mem) {
                StoreCheck::Match => {
                    self.mem_sys.access_data(addr, true);
                }
                StoreCheck::Mismatch(lead) => {
                    let ev = DetectionEvent {
                        kind: DetectionKind::StoreMismatch,
                        cycle: self.cycle,
                        seq,
                        pc,
                        lead_back_way: dw.0,
                        trail_back_way: dw.1,
                        front_ways: dw.2,
                        store_compared: Some(((lead.addr, lead.data), (addr, data))),
                    };
                    self.record_detection(ev);
                    return false;
                }
                StoreCheck::Unpaired => {
                    self.detect_ways(DetectionKind::UnpairedStore, seq, pc, dw.0, dw.1, dw.2);
                    return false;
                }
            }
        }
        if inst.is_load() {
            self.lvq.retire_through(load_seq.expect("load seq"));
        }
        if inst.is_mem() {
            if !uses_dtq {
                self.ctxs[TRAILING].lsq.commit_head(seq);
            }
            self.ctxs[TRAILING].committed_mem += 1;
        }

        // Coverage accounting for the pair.
        let lead_ways = if uses_dtq {
            Some((lead_front, lead_back))
        } else {
            self.waylog.take(seq).map(|r| (r.front_way, r.back_way))
        };
        if let Some((lf, lb)) = lead_ways {
            self.stats.coverage.record_pair(front_way != lf, back_way != lb);
            self.stats.back_div_by_fu[inst.fu_type().index()][(back_way != lb) as usize] += 1;
        }

        self.trail_expect_pc = next_pc;
        if matches!(inst, Inst::Halt) {
            self.halted[TRAILING] = true;
        }
        self.trace_uop(FlightKind::Commit, id);
        self.ctxs[TRAILING].al.commit_head();
        self.slab.remove(id);
        self.stats.committed[TRAILING] += 1;
        true
    }

    // --------------------------------------------------------------- complete

    fn complete(&mut self) {
        let cycle = self.cycle;
        let mut due = std::mem::take(&mut self.scratch.due);
        due.clear();
        self.inflight.retain(|&(done, id)| {
            if done <= cycle {
                due.push((done, id));
                false
            } else {
                true
            }
        });
        // Oldest first so the eldest mispredicted branch squashes first.
        due.sort_by_key(|&(_, id)| self.slab.get(id).map(|u| u.uid).unwrap_or(u64::MAX));

        for &(_, id) in &due {
            if !self.slab.contains(id) {
                continue; // squashed while executing
            }
            if !self.capture_late_values(id) {
                // Data not produced yet: poll again next cycle.
                self.inflight.push((cycle + 1, id));
                continue;
            }
            let u = self.slab.at_mut(id);
            u.stage = Stage::Completed;
            let (ctx, dst, result) = (u.ctx, u.dst, u.result);
            let filler = u.filler;
            if let Some(d) = dst {
                self.ctxs[ctx].regs.write(d, result.unwrap_or(0));
            }
            self.trace_uop(FlightKind::Complete, id);
            if filler {
                self.slab.remove(id);
                continue;
            }
            let u = self.slab.at(id);
            let (is_control, next_pc, pred_next_pc, seq, pc) =
                (u.inst.is_control(), u.next_pc, u.pred_next_pc, u.seq, u.pc);
            if is_control && next_pc != pred_next_pc {
                match (ctx, self.cfg.mode) {
                    (LEADING, _) => {
                        self.stats.mispredicts += 1;
                        self.squash_after(LEADING, id);
                    }
                    (TRAILING, Mode::Srt) => {
                        // The BOQ outcome was the trailing "prediction";
                        // disagreement is the §4.4-style verification firing.
                        self.detect(DetectionKind::BranchOutcomeMismatch, seq, pc);
                        break;
                    }
                    // BlackJack trailing branches carry no prediction
                    // (pred_next_pc is set to the computed leading next PC
                    // at fetch); a mismatch surfaces at commit instead.
                    (TRAILING, _) => {}
                    _ => unreachable!(),
                }
            }
        }
        self.scratch.due = due;
    }

    // ----------------------------------------------------------------- squash

    /// Squashes everything in `ctx` younger than `branch` and redirects
    /// fetch to the branch's computed target.
    fn squash_after(&mut self, ctx: usize, branch: UopId) {
        let b = self.slab.at(branch);
        let (bseq, target, ghist, taken, counters) =
            (b.seq, b.next_pc, b.ghist_snapshot, b.taken, b.cnt_after);

        // Predictor history repair.
        if ctx == LEADING {
            self.gshare.recover(ghist, taken);
        }

        // Renamed instructions, youngest first.
        let victims = self.ctxs[ctx].al.squash_after(bseq);
        for id in victims {
            let u = self.slab.at(id);
            let (dst, old_dst, log_dst, dtq_index, way, stage, fu) =
                (u.dst, u.old_dst, u.log_dst, u.dtq_index, u.back_way, u.stage, u.fu);
            if let (Some(d), Some(log)) = (dst, log_dst) {
                self.ctxs[ctx].regs.undo_rename(log, d, old_dst.expect("renamed dst has old"));
            } else if let Some(d) = dst {
                // Allocated without a RAT update (never happens for the
                // leading thread, which is the only squasher).
                self.ctxs[ctx].regs.free_reg(d);
            }
            if stage == Stage::InQueue {
                self.iq.remove(id);
            }
            if stage == Stage::Executing {
                if let Some(w) = way {
                    if crate::config::FuLatencies::unpipelined(fu) {
                        self.fus.release(w);
                    }
                }
            }
            if let Some(idx) = dtq_index {
                self.dtq.squash(idx);
            }
            self.slab.remove(id);
            self.stats.squashed += 1;
        }
        self.ctxs[ctx].lsq.squash_after(bseq);

        // Fetch-queue instructions (not yet renamed).
        let frontq = std::mem::take(&mut self.ctxs[ctx].frontq);
        for id in frontq {
            let u = self.slab.at(id);
            if u.seq > bseq {
                self.slab.remove(id);
                self.stats.squashed += 1;
            } else {
                self.ctxs[ctx].frontq.push_back(id);
            }
        }

        // Counter and fetch redirect.
        self.ctxs[ctx].counters = counters;
        self.ctxs[ctx].fetch_pc = target & !3u64;
        self.ctxs[ctx].fetch_halted = false;
        self.ctxs[ctx].fetch_stall_until = 0;
    }

    // ------------------------------------------------------------------ issue

    fn issue(&mut self) {
        self.fus.begin_cycle();
        let mut budget = self.cfg.width;
        let mut issued = std::mem::take(&mut self.scratch.issued);
        issued.clear();
        let mut lead_dtq_needed = 0usize;

        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        candidates.clear();
        candidates.extend(self.iq.iter_aged());
        // Filler NOPs must move *with* their packet or the backend-way
        // mapping safe-shuffle computed is destroyed; compute per-packet
        // operand readiness first.
        let mut packet_ready = std::mem::take(&mut self.scratch.packet_ready);
        packet_ready.clear();
        for &(id, _) in &candidates {
            let u = self.slab.at(id);
            if u.ctx == TRAILING && !u.filler {
                if let Some(p) = u.packet {
                    let r = self.operands_ready(id);
                    match packet_ready.iter_mut().find(|e| e.0 == p) {
                        Some(e) => e.1 &= r,
                        None => packet_ready.push((p, r)),
                    }
                }
            }
        }
        let atomic = self.cfg.trailing_packet_atomic && self.cfg.mode.uses_dtq();
        // Trailing packets enter the fetch queue whole and leave it in
        // order, so the only packet that can be part-dispatched is the
        // one at the fetch queue's head: every other packet with members
        // in the issue queue has all of them there.
        let split_packet = if atomic {
            self.ctxs[TRAILING].frontq.front().and_then(|&h| self.slab.at(h).packet)
        } else {
            None
        };
        let mut handled_packets = std::mem::take(&mut self.scratch.handled_packets);
        handled_packets.clear();
        let mut members = std::mem::take(&mut self.scratch.members);
        let mut ways = std::mem::take(&mut self.scratch.ways);
        for (id, payload_entry) in candidates.iter().copied() {
            if budget == 0 {
                break;
            }
            let u = self.slab.at(id);
            if u.stage != Stage::InQueue {
                continue; // already issued as part of an atomic packet
            }
            let (ctx, fu) = (u.ctx, u.fu);

            if atomic && ctx == TRAILING {
                // Whole-packet-or-nothing issue for trailing packets, so
                // the intra-packet backend mapping computed by safe-shuffle
                // is realized exactly.
                let pid = u.packet.expect("trailing DTQ uops belong to a packet");
                if handled_packets.contains(&pid) {
                    continue;
                }
                handled_packets.push(pid);
                members.clear();
                members.extend(candidates.iter().copied().filter(|&(cid, _)| {
                    let c = self.slab.at(cid);
                    c.ctx == TRAILING && c.packet == Some(pid)
                }));
                if split_packet == Some(pid)
                    || budget < members.len()
                    || !members.iter().all(|&(mid, _)| self.operands_ready(mid))
                {
                    continue;
                }
                let snap = self.fus.snapshot();
                ways.clear();
                for &(mid, _) in &members {
                    match self.fus.try_alloc(self.slab.at(mid).fu, self.cycle, &self.cfg.fu_lat)
                    {
                        Some(w) => ways.push(w),
                        None => break,
                    }
                }
                if ways.len() != members.len() {
                    self.fus.restore(snap);
                    continue;
                }
                for (&(mid, pe), &way) in members.iter().zip(&ways) {
                    self.do_issue(mid, way, pe, &mut issued, &mut budget);
                }
                continue;
            }

            // Non-atomic path (leading, SRT trailing, and ablations).
            {
                let u = self.slab.at(id);
                if u.filler {
                    // A filler NOP is ready when every unissued real member
                    // of its packet is ready (it then issues in slot order
                    // with them, preserving the mapping).
                    let p = u.packet.expect("filler NOPs belong to a packet");
                    if !packet_ready.iter().find(|e| e.0 == p).map(|e| e.1).unwrap_or(true) {
                        continue;
                    }
                } else if !self.operands_ready(id) {
                    continue;
                }
            }
            // Leading issue must reserve a DTQ entry.
            if ctx == LEADING
                && self.cfg.mode.uses_dtq()
                && self.dtq.free_slots() <= lead_dtq_needed
            {
                continue;
            }
            let Some(way) = self.fus.try_alloc(fu, self.cycle, &self.cfg.fu_lat) else {
                continue;
            };
            if ctx == LEADING && self.cfg.mode.uses_dtq() {
                lead_dtq_needed += 1;
            }
            self.do_issue(id, way, payload_entry, &mut issued, &mut budget);
        }
        self.classify_issue_cycle(&issued);
        self.allocate_dtq_entries(&issued);
        self.scratch.issued = issued;
        self.scratch.candidates = candidates;
        self.scratch.packet_ready = packet_ready;
        self.scratch.handled_packets = handled_packets;
        self.scratch.members = members;
        self.scratch.ways = ways;
    }

    /// Common issue bookkeeping: removes the uop from the queue, executes
    /// it, and schedules completion.
    fn do_issue(
        &mut self,
        id: UopId,
        way: usize,
        payload_entry: usize,
        issued: &mut Vec<UopId>,
        budget: &mut usize,
    ) {
        self.iq.remove(id);
        *budget -= 1;
        let latency = self.execute(id, way, payload_entry);
        self.inflight.push((self.cycle + latency, id));
        issued.push(id);
        let u = self.slab.at(id);
        let (ctx, filler) = (u.ctx, u.filler);
        self.stats.issued[ctx] += 1;
        if filler {
            self.stats.filler_issued += 1;
        }
        if self.tracer.is_on() {
            self.tracer.issue_way(ctx, way);
            self.trace_uop(FlightKind::Issue, id);
        }
    }

    /// Readiness: operands produced plus per-kind structural conditions.
    fn operands_ready(&self, id: UopId) -> bool {
        let u = self.slab.at(id);
        if u.stage != Stage::InQueue {
            return false;
        }
        let regs = &self.ctxs[u.ctx].regs;
        if u.inst.is_store() {
            // Split store: only the address operand gates issue; the data
            // operand is captured at completion.
            if !u.srcs[0].map(|p| regs.is_ready(p)).unwrap_or(true) {
                return false;
            }
        } else if !u.srcs.iter().all(|s| s.map(|p| regs.is_ready(p)).unwrap_or(true)) {
            return false;
        }
        if u.inst.is_load() {
            if u.ctx == LEADING {
                // Split-store disambiguation: all older stores must have
                // known addresses so overlap is decidable.
                if !self.ctxs[LEADING].lsq.older_stores_addr_known(u.seq) {
                    return false;
                }
            } else {
                // Trailing loads read the LVQ; the entry must have arrived.
                let Some(ls) = u.load_seq else { return true };
                if self.lvq.lookup(ls).is_none() {
                    return false;
                }
            }
        }
        true
    }

    /// Applies backend-way and payload-RAM faults to a computed value.
    ///
    /// Payload-RAM faults corrupt whoever occupies the defective entry; with
    /// split payload RAMs (the paper's fix, §4.5) only the leading thread's
    /// RAM is modeled as defective, so the two copies can never be corrupted
    /// identically.
    /// Frontend corruption hook; inert before the plan's arming cycle
    /// (wear-out faults develop mid-run).
    fn corrupt_fetch(&self, way: usize, word: u32) -> u32 {
        if let Some(u) = &self.site_usage {
            SiteUsage::note(&u.frontend, way, self.cycle);
        }
        if self.cycle < self.plan.arm_cycle() {
            word
        } else {
            self.plan.corrupt_frontend(way, word)
        }
    }

    fn fault_value(&self, ctx: usize, way: usize, payload_slot: usize, v: u64) -> u64 {
        if let Some(u) = &self.site_usage {
            // Mirror the exact application conditions below, so "last
            // exercised" means "a fault here would have been consulted".
            SiteUsage::note(&u.backend, way, self.cycle);
            if ctx == LEADING || !self.cfg.split_payload_ram {
                SiteUsage::note(&u.payload, payload_slot, self.cycle);
            }
        }
        if self.plan.is_empty() || self.cycle < self.plan.arm_cycle() {
            return v;
        }
        let v = self.plan.corrupt_backend(way, v);
        if ctx == LEADING || !self.cfg.split_payload_ram {
            self.plan.corrupt_payload_value(payload_slot, v)
        } else {
            v
        }
    }

    /// Store-buffer entry corruption hook, applied to the leading store's
    /// data as it is written into its circular-RAM slot at commit
    /// (`slot = store ordinal mod capacity`).
    fn corrupt_sb_data(&self, store_seq: u64, data: u64) -> u64 {
        let slot = (store_seq % self.cfg.store_buffer as u64) as usize;
        if let Some(u) = &self.site_usage {
            SiteUsage::note(&u.store_buffer, slot, self.cycle);
        }
        if self.plan.is_empty() || self.cycle < self.plan.arm_cycle() {
            return data;
        }
        self.plan.corrupt_store_buffer(slot, data)
    }

    /// L1D data-array corruption hook, applied to the composed leading
    /// load value as it leaves the set `addr` maps to — *after* the ECC
    /// check bits were generated, so the LVQ decoder sees the upset.
    fn corrupt_cache_value(&self, addr: u64, value: u64) -> u64 {
        let set = self.mem_sys.l1d_set(addr);
        if let Some(u) = &self.site_usage {
            SiteUsage::note(&u.cache_data, set, self.cycle);
        }
        if self.plan.is_empty() || self.cycle < self.plan.arm_cycle() {
            return value;
        }
        self.plan.corrupt_cache_data(set, value)
    }

    /// L1D tag-array fault predicate for the set `addr` maps to: a
    /// corrupted tag makes the lookup miss, so the load pays the L2 path
    /// — purely a timing perturbation (the refill rewrites the tag).
    /// Consulted only on the real-cache-access latency path; fully
    /// forwarded loads never read the tags.
    fn cache_tag_fault(&self, addr: u64) -> bool {
        let set = self.mem_sys.l1d_set(addr);
        if let Some(u) = &self.site_usage {
            SiteUsage::note(&u.cache_tag, set, self.cycle);
        }
        if self.plan.is_empty() || self.cycle < self.plan.arm_cycle() {
            return false;
        }
        self.plan.cache_tag_miss(set)
    }

    /// DTQ payload-RAM corruption hook, applied to the carried pristine
    /// instruction word as the trailing thread reads its circular-RAM
    /// slot (`slot = program-order sequence mod capacity` — entries are
    /// allocated in program order).
    fn corrupt_dtq_word(&self, seq: u64, word: u32) -> u32 {
        let slot = (seq % self.cfg.dtq as u64) as usize;
        if let Some(u) = &self.site_usage {
            SiteUsage::note(&u.dtq, slot, self.cycle);
        }
        if self.plan.is_empty() || self.cycle < self.plan.arm_cycle() {
            return word;
        }
        self.plan.corrupt_dtq_payload(slot, word)
    }

    /// LVQ payload-RAM corruption hook, applied to the captured load
    /// value as the trailing load reads its circular-RAM slot.
    fn corrupt_lvq_value(&self, slot: usize, value: u64) -> u64 {
        if let Some(u) = &self.site_usage {
            SiteUsage::note(&u.lvq, slot, self.cycle);
        }
        if self.plan.is_empty() || self.cycle < self.plan.arm_cycle() {
            return value;
        }
        self.plan.corrupt_lvq_payload(slot, value)
    }

    /// Computes the uop's result on backend way `way`, applying backend and
    /// payload-RAM faults, and returns its completion latency.
    ///
    /// Stores are *split*: they issue once their address operand is ready
    /// and capture their data at completion (polling until the data
    /// register is produced). Leading loads likewise compose their value at
    /// completion, so forwarding sees final store data.
    fn execute(&mut self, id: UopId, way: usize, payload_entry: usize) -> u64 {
        let u = self.slab.at(id);
        let (ctx, seq, pc, inst) = (u.ctx, u.seq, u.pc, u.inst);
        let srcs = u.srcs;
        let a = srcs[0].map(|p| self.ctxs[ctx].regs.read(p)).unwrap_or(0);
        let b = srcs[1].map(|p| self.ctxs[ctx].regs.read(p)).unwrap_or(0);

        {
            let u = self.slab.at_mut(id);
            u.back_way = Some(way);
            u.payload_slot = payload_entry;
            u.stage = Stage::Executing;
        }

        let lat;
        if inst.is_mem() {
            let addr = effective_addr(&inst, a);
            let bytes = inst.mem_bytes().expect("memory width");
            if inst.is_store() {
                // Split store: address now, data at completion if the data
                // register is already ready.
                let data = srcs[1]
                    .map(|p| self.ctxs[ctx].regs.is_ready(p).then(|| self.ctxs[ctx].regs.read(p)))
                    .unwrap_or(Some(0))
                    .map(|raw| {
                        store_data(&inst, self.fault_value(ctx, way, payload_entry, store_data(&inst, raw)))
                    });
                if ctx == LEADING {
                    self.ctxs[LEADING].lsq.execute(seq, addr, data);
                }
                let u = self.slab.at_mut(id);
                u.eff_addr = Some(addr);
                u.store_val = data;
                lat = self.cfg.fu_lat.agen + 1;
            } else if ctx == LEADING {
                // Value is composed at completion; probe forwarding now only
                // to pick the latency (full forward = L1-hit-like).
                self.ctxs[LEADING].lsq.execute(seq, addr, None);
                let probe = self.ctxs[LEADING].lsq.forward_status(seq, addr, bytes);
                let mem_lat = match &probe {
                    Some(f) if f.iter().all(|b| b.is_some()) => self.cfg.mem.l1d.hit_latency,
                    None => self.cfg.mem.l1d.hit_latency,
                    _ => {
                        if self.cache_tag_fault(addr) {
                            self.mem_sys.access_data_forced_miss(addr, false)
                        } else {
                            self.mem_sys.access_data(addr, false)
                        }
                    }
                };
                let u = self.slab.at_mut(id);
                u.eff_addr = Some(addr);
                lat = self.cfg.fu_lat.agen + mem_lat;
            } else {
                // Trailing load: LVQ access with address check.
                let load_seq = self.slab.at(id).load_seq.expect("trailing load seq");
                let entry = *self.lvq.lookup(load_seq).expect("readiness guaranteed the entry");
                if entry.addr != addr {
                    let u = self.slab.at(id);
                    let lead_back =
                        (u.lead_back_way != usize::MAX).then_some(u.lead_back_way);
                    self.detect_ways(
                        DetectionKind::LoadAddrMismatch,
                        seq,
                        pc,
                        lead_back,
                        Some(way),
                        None,
                    );
                }
                // The payload RAM read: a defective slot corrupts what
                // the trailing thread sees (never what the leading
                // thread committed).
                let value = self.corrupt_lvq_value(self.lvq.slot_of(load_seq), entry.value);
                // SEC-DED decode at the read port. The check bits were
                // generated over the *clean* composed value, before the
                // backend/payload/cache-data hooks on the leading side
                // could strike, so a single-bit upset anywhere along the
                // captured value's path is repaired here — the trailing
                // thread then diverges from the corrupt leading copy and
                // the pair checks fire (closing the LVQ escape).
                let value = if self.cfg.lvq_ecc {
                    match blackjack_faults::ecc::decode(value, entry.ecc) {
                        blackjack_faults::EccOutcome::Clean => value,
                        blackjack_faults::EccOutcome::Corrected { data, .. } => {
                            self.stats.ecc_corrected += 1;
                            data
                        }
                        blackjack_faults::EccOutcome::Uncorrectable => {
                            let u = self.slab.at(id);
                            let lead_back =
                                (u.lead_back_way != usize::MAX).then_some(u.lead_back_way);
                            self.detect_ways(
                                DetectionKind::EccUncorrectable,
                                seq,
                                pc,
                                lead_back,
                                Some(way),
                                None,
                            );
                            value
                        }
                    }
                } else {
                    value
                };
                let value = self.fault_value(ctx, way, payload_entry, value);
                let u = self.slab.at_mut(id);
                u.eff_addr = Some(addr);
                u.result = Some(value);
                lat = self.cfg.fu_lat.agen + self.cfg.mem.l1d.hit_latency;
            }
        } else {
            let out = exec_nonmem(&inst, a, b, pc);
            let (taken, next_pc, result) = if inst.is_control() {
                (out.taken, self.fault_value(ctx, way, payload_entry, out.next_pc), out.wb)
            } else {
                (out.taken, out.next_pc, out.wb.map(|v| self.fault_value(ctx, way, payload_entry, v)))
            };
            let u = self.slab.at_mut(id);
            u.taken = taken;
            u.next_pc = next_pc;
            u.result = result;
            lat = self.cfg.fu_lat.of(u.fu);
        }
        lat
    }

    /// Late value capture at completion: split-store data and leading-load
    /// value composition. Returns false if the uop must keep polling.
    fn capture_late_values(&mut self, id: UopId) -> bool {
        let u = self.slab.at(id);
        let (ctx, seq, inst, way, payload_slot) =
            (u.ctx, u.seq, u.inst, u.back_way.unwrap_or(0), u.payload_slot);
        let srcs = u.srcs;
        let trailing_dtq_store = ctx == TRAILING && self.cfg.mode.uses_dtq();
        if inst.is_store() && u.store_val.is_none() && !trailing_dtq_store {
            let Some(p) = srcs[1] else { unreachable!("store without data operand has store_val") };
            if !self.ctxs[ctx].regs.is_ready(p) {
                return false;
            }
            let raw = self.ctxs[ctx].regs.read(p);
            let data = store_data(&inst, self.fault_value(ctx, way, payload_slot, store_data(&inst, raw)));
            if ctx == LEADING {
                self.ctxs[LEADING].lsq.set_data(seq, data);
            }
            self.slab.at_mut(id).store_val = Some(data);
            return true;
        }
        if inst.is_load() && ctx == LEADING && u.result.is_none() {
            let addr = u.eff_addr.expect("issued load has an address");
            let bytes = inst.mem_bytes().expect("memory width");
            let Some(fwd) = self.ctxs[LEADING].lsq.forward_status(seq, addr, bytes) else {
                return false; // an overlapping older store has no data yet
            };
            // Bytes no older in-flight store covers come from the store
            // buffer and memory behind it.
            let mut raw = self.sb.read_through(addr, bytes, &self.mem);
            for (i, byte) in fwd.iter().enumerate() {
                if let Some(v) = byte {
                    raw = (raw & !(0xff << (8 * i))) | (u64::from(*v) << (8 * i));
                }
            }
            // ECC check bits are generated over the clean composed value
            // — the protected end of the load path. Everything after
            // (cache data array, memory-port backend way, payload RAM)
            // corrupts only the data bits, which the LVQ read port's
            // decoder can then repair for the trailing thread.
            let clean = finish_load(&inst, raw);
            let ecc = if self.cfg.lvq_ecc { blackjack_faults::ecc::encode(clean) } else { 0 };
            let value = self.corrupt_cache_value(addr, clean);
            let value = self.fault_value(ctx, way, payload_slot, value);
            let u = self.slab.at_mut(id);
            u.result = Some(value);
            u.ecc = ecc;
            return true;
        }
        true
    }

    /// Figures 5/6 bookkeeping for one issue cycle.
    fn classify_issue_cycle(&mut self, issued: &[UopId]) {
        if issued.is_empty() {
            return;
        }
        self.stats.issue_cycles += 1;
        let mut lead_n = 0usize;
        let mut trail_n = 0usize;
        let mut packets = std::mem::take(&mut self.scratch.packets);
        packets.clear();
        let mut violated = false;
        for &id in issued {
            let u = self.slab.at(id);
            if u.ctx == LEADING {
                lead_n += 1;
            } else {
                trail_n += 1;
                if let Some(p) = u.packet {
                    if !packets.contains(&p) {
                        packets.push(p);
                    }
                }
                if !u.filler {
                    let lead_back = if self.cfg.mode.uses_dtq() {
                        (u.lead_back_way != usize::MAX).then_some(u.lead_back_way)
                    } else {
                        self.waylog.get(u.seq).map(|r| r.back_way)
                    };
                    if lead_back == u.back_way {
                        violated = true;
                    }
                }
            }
        }
        if lead_n == 0 || trail_n == 0 {
            self.stats.single_ctx_issue_cycles += 1;
        }
        if lead_n > 0 && trail_n > 0 {
            self.stats.lt_coissue_cycles += 1;
            if violated {
                self.stats.lt_interference_cycles += 1;
            }
        }
        if packets.len() > 1 {
            self.stats.tt_coissue_cycles += 1;
            if violated {
                self.stats.tt_interference_cycles += 1;
            }
        }
        self.scratch.packets = packets;
    }

    /// Allocates DTQ entries for this cycle's leading packet, in issue
    /// order, marking packet boundaries.
    ///
    /// Safe-shuffle's correctness rests on packet members being mutually
    /// independent. Split stores are the one way a dependent pair can
    /// co-issue (a store and its data producer), so the packet is broken
    /// before any instruction whose source matches an earlier same-cycle
    /// destination.
    fn allocate_dtq_entries(&mut self, issued: &[UopId]) {
        if !self.cfg.mode.uses_dtq() {
            return;
        }
        // Group = split stores whose data arrived this cycle (older, first)
        // plus this cycle's issued leading instructions — except stores
        // still awaiting data, which join the packet of their capture
        // cycle. This keeps the DTQ in *dependence-complete* order, which
        // is what safe-shuffle's within-packet-independence and
        // across-packet-ordering guarantees actually require.
        let mut leading = std::mem::take(&mut self.scratch.leading);
        leading.clear();
        leading.extend(issued.iter().copied().filter(|&id| self.slab.at(id).ctx == LEADING));
        let n = leading.len();
        if n == 0 {
            self.scratch.leading = leading;
            return;
        }
        // Compute packet-boundary positions (break *before* index i): at a
        // same-group dependence (safety net), at the machine width, and
        // when a class would exceed its FU instance count (late-captured
        // split stores can push a group past what any single cycle could
        // actually co-issue — such a packet could never issue whole).
        let mut breaks = std::mem::take(&mut self.scratch.breaks);
        breaks.clear();
        breaks.resize(n, false);
        let mut dsts = std::mem::take(&mut self.scratch.dsts);
        dsts.clear();
        let mut members = 0usize;
        let mut class_counts = [0usize; 7];
        for (i, &id) in leading.iter().enumerate() {
            let u = self.slab.at(id);
            let class = u.fu.index();
            if members == self.cfg.width
                || class_counts[class] == self.cfg.fu_counts.of(u.fu)
                || u.srcs.iter().flatten().any(|src| dsts.contains(src))
            {
                breaks[i] = true;
                dsts.clear();
                members = 0;
                class_counts = [0; 7];
            }
            if let Some(d) = u.dst {
                dsts.push(d);
            }
            members += 1;
            class_counts[class] += 1;
        }
        let mut packet_id = self.lead_packets;
        for (i, &id) in leading.iter().enumerate() {
            if i > 0 && breaks[i] {
                packet_id += 1;
            }
            let last = i + 1 == n || breaks[i + 1];
            let idx = self.dtq.allocate(last);
            let u = self.slab.at_mut(id);
            u.dtq_index = Some(idx);
            u.packet = Some(packet_id);
        }
        self.lead_packets = packet_id + 1;
        self.scratch.leading = leading;
        self.scratch.breaks = breaks;
        self.scratch.dsts = dsts;
    }

    // --------------------------------------------------------------- dispatch

    fn dispatch(&mut self) {
        let mut budget = self.cfg.width;
        let atomic = self.cfg.trailing_packet_atomic && self.cfg.mode.uses_dtq();
        // Trailing first: it is the high-IPC drain.
        let order: &[usize] =
            if self.cfg.mode.is_redundant() { &[TRAILING, LEADING] } else { &[LEADING] };
        for &ctx in order {
            while budget > 0 {
                let Some(&id) = self.ctxs[ctx].frontq.front() else { break };
                if ctx == TRAILING && atomic {
                    // Don't start dispatching a packet unless the whole
                    // packet fits in the issue queue and the cycle's
                    // budget: a packet stranded half-in/half-out of a full
                    // queue can never issue atomically (deadlock).
                    let pid = self.slab.at(id).packet;
                    let members = self.ctxs[TRAILING]
                        .frontq
                        .iter()
                        .take_while(|&&m| self.slab.at(m).packet == pid)
                        .count();
                    if self.iq.free_slots() < members || budget < members {
                        break;
                    }
                }
                if !self.try_rename_dispatch(ctx, id) {
                    break;
                }
                self.ctxs[ctx].frontq.pop_front();
                budget -= 1;
            }
        }
    }

    /// Renames and dispatches one uop; false = structural stall.
    fn try_rename_dispatch(&mut self, ctx: usize, id: UopId) -> bool {
        if self.iq.is_full() {
            return false;
        }
        // Reserve one machine width of issue-queue entries for the
        // trailing thread: a leading thread stalled at commit (full store
        // buffer / DTQ) must never be able to lock the trailing thread —
        // the only thing that can unblock it — out of the issue queue.
        if ctx == LEADING
            && self.cfg.mode.is_redundant()
            && self.iq.free_slots() <= self.cfg.width
        {
            return false;
        }
        let u = self.slab.at(id);
        let filler = u.filler;
        let (seq, inst, mem_seq) = (u.seq, u.inst, u.mem_seq);
        let lead_srcs = u.lead_srcs;
        let lead_dst = u.lead_dst;
        let trailing_dtq = ctx == TRAILING && self.cfg.mode.uses_dtq();

        if !filler {
            // Window checks.
            if !self.ctxs[ctx].al.can_allocate(seq) {
                return false;
            }
            if inst.is_mem() {
                if ctx == LEADING || !trailing_dtq {
                    if self.ctxs[ctx].lsq.is_full() {
                        return false;
                    }
                } else {
                    // Virtual→physical LSQ window for the DTQ trailing thread.
                    let m = mem_seq.expect("trailing mem op carries mem_seq");
                    if m - self.ctxs[ctx].committed_mem >= self.cfg.lsq as u64 {
                        return false;
                    }
                }
            }
            // Register availability.
            let needs_reg = if trailing_dtq { lead_dst.is_some() } else { inst.dst().is_some() };
            if needs_reg && self.ctxs[ctx].regs.free_count() == 0 {
                return false;
            }
        }

        // All checks passed: mutate.
        if !filler {
            if trailing_dtq {
                // A store's *data* source is not renamed here: the DTQ is
                // in leading issue order, and a split store can issue (and
                // therefore appear in the DTQ) before its data producer,
                // so the issue-time map could be stale. The trailing store
                // instead reads its data at commit through the second
                // (program-order) rename table, where the producer is
                // guaranteed committed.
                let srcs = if inst.is_store() {
                    [lead_srcs[0].map(|lp| self.tmap.lookup(lp)), None]
                } else {
                    [
                        lead_srcs[0].map(|lp| self.tmap.lookup(lp)),
                        lead_srcs[1].map(|lp| self.tmap.lookup(lp)),
                    ]
                };
                let dst = lead_dst.map(|lp| {
                    let t = self.ctxs[ctx].regs.alloc().expect("checked free_count");
                    self.tmap.update(lp, t);
                    t
                });
                let u = self.slab.at_mut(id);
                u.srcs = srcs;
                u.dst = dst;
            } else {
                let mut srcs = [None, None];
                for (i, r) in inst.srcs().enumerate() {
                    if !r.is_zero() {
                        srcs[i] = Some(self.ctxs[ctx].regs.lookup(r));
                    }
                }
                let dst_pair = inst.dst().map(|r| {
                    self.ctxs[ctx].regs.rename_dst(r).expect("checked free_count")
                });
                let u = self.slab.at_mut(id);
                u.srcs = srcs;
                if let Some((new, old)) = dst_pair {
                    u.dst = Some(new);
                    u.old_dst = Some(old);
                }
            }
            self.ctxs[ctx].al.allocate(seq, id);
            if inst.is_mem() && (ctx == LEADING || !trailing_dtq) {
                self.ctxs[ctx].lsq.allocate(id, seq, inst.is_store(), inst.mem_bytes().unwrap());
            }
        }
        let entry = self.iq.insert(id).expect("checked is_full");
        let _ = entry;
        self.slab.at_mut(id).stage = Stage::InQueue;
        self.trace_uop(FlightKind::Dispatch, id);
        true
    }

    // ---------------------------------------------------------------- shuffle

    /// Consumes complete DTQ packets, shuffles them, and refills the
    /// trailing fetch queue. Runs well off the critical path (§4.6).
    fn shuffle_stage(&mut self) {
        while self.fetchq_packets.len() < 4 {
            let Some(packet) = self.dtq.pop_packet() else { break };
            self.shuffle_packet(packet);
        }
        // Starvation escape: a commit-stalled entry (e.g., a store
        // waiting on the full store buffer, which only trailing commits
        // can drain) can wedge the queue's head while committed entries
        // sit behind it. Harvest those committed entries — provably
        // independent of everything pending ahead of them — as
        // single-instruction packets (they are not mutually independent,
        // so they must not be shuffled or issue-grouped).
        if self.fetchq_packets.is_empty() && self.ctxs[TRAILING].frontq.is_empty() {
            if let Some(harvest) = self.dtq.pop_committed_starved(self.cfg.width) {
                for p in harvest {
                    // One instruction per packet: a singleton is trivially
                    // shuffle-safe, so it still gets spatial diversity.
                    self.shuffle_packet(vec![p]);
                }
            }
        }
    }

    fn shuffle_packet(&mut self, packet: Vec<DtqPayload>) {
        let outcome = if !self.cfg.mode.shuffles() {
            no_shuffle(packet)
        } else {
            match self.cfg.shuffle_algo {
                ShuffleAlgo::Greedy => {
                    safe_shuffle(packet, self.cfg.width, &self.cfg.fu_counts)
                }
                ShuffleAlgo::Exhaustive => {
                    exhaustive_shuffle(packet, self.cfg.width, &self.cfg.fu_counts)
                }
            }
        };
        self.stats.shuffle_splits += outcome.splits;
        self.stats.shuffle_nops += outcome.nops;
        self.stats.shuffle_forced += outcome.forced;
        self.stats.shuffle_packets += outcome.packets.len() as u64;
        for p in outcome.packets {
            self.fetchq_packets.push_back(p);
        }
    }

    // ------------------------------------------------------------------ fetch

    fn fetch(&mut self) {
        if !self.cfg.mode.is_redundant() {
            self.fetch_leading();
            return;
        }
        let slack =
            self.stats.committed[LEADING].saturating_sub(self.ctxs[TRAILING].fetched_real);
        let trailing_ready = !self.halted[TRAILING]
            && if self.cfg.mode.uses_dtq() {
                self.fetchq_packets
                    .front()
                    .map(|p| {
                        p.len() <= self.cfg.fetch_queue - self.ctxs[TRAILING].frontq.len()
                    })
                    .unwrap_or(false)
            } else {
                self.ctxs[TRAILING].frontq.len() < self.cfg.fetch_queue
                    && !self.ctxs[TRAILING].fetch_halted
            };
        // The slack target yields the fetch slot to the leading thread, but
        // a blocked leading frontend (full fetch queue, fetched halt) cedes
        // the slot so trailing work hides under leading stalls — and so the
        // trailing thread can always drain a full store buffer (deadlock
        // freedom).
        let leading_blocked = self.halted[LEADING]
            || self.ctxs[LEADING].fetch_halted
            || self.ctxs[LEADING].frontq.len() >= self.cfg.fetch_queue;
        let want_trailing = trailing_ready && (slack >= self.cfg.slack || leading_blocked);
        if want_trailing {
            if self.cfg.mode.uses_dtq() {
                self.fetch_trailing_packet();
            } else {
                self.fetch_icache(TRAILING);
            }
        } else if !self.halted[LEADING] {
            self.fetch_leading();
        }
    }

    fn fetch_leading(&mut self) {
        if !self.ctxs[LEADING].fetch_halted {
            self.fetch_icache(LEADING);
        }
    }

    /// Fetches one aligned group from the I-cache for `ctx` (leading
    /// always; trailing in SRT mode, predicted by the BOQ).
    fn fetch_icache(&mut self, ctx: usize) {
        if self.cycle < self.ctxs[ctx].fetch_stall_until || self.ctxs[ctx].fetch_halted {
            return;
        }
        let width = self.cfg.width as u64;
        let mut pc = self.ctxs[ctx].fetch_pc;

        // One I-cache access per group; a miss stalls fetch until refill.
        let lat = self.mem_sys.access_instr(pc);
        if lat > self.cfg.mem.l1i.hit_latency {
            self.ctxs[ctx].fetch_stall_until = self.cycle + lat;
            return;
        }

        let slots_left = width - ((pc >> 2) % width);
        for _ in 0..slots_left {
            if self.ctxs[ctx].frontq.len() >= self.cfg.fetch_queue {
                break;
            }
            let front_way = ((pc >> 2) % width) as usize;
            let word = self.mem.read_u32(pc);
            let raw = self.corrupt_fetch(front_way, word);
            let inst = decode(raw).unwrap_or(Inst::Nop);
            // `word` (not `raw`) is what the DTQ will carry: the trailing
            // copy applies its own way's corruption to the pristine bits.

            // SRT trailing: control flow is predicted by the BOQ; stall at
            // a branch whose outcome has not arrived.
            let mut boq_next: Option<u64> = None;
            if ctx == TRAILING && inst.is_control() {
                match self.boq.pop() {
                    Some(e) => boq_next = Some(e.next_pc),
                    None => break,
                }
            }

            let seq = self.ctxs[ctx].counters[0];
            let mut u = Uop::new(self.next_uid, ctx, seq, pc, raw, inst);
            u.pristine = word;
            self.next_uid += 1;

            // Sequence counters (snapshot carried for squash recovery).
            let mut c = self.ctxs[ctx].counters;
            c[0] += 1;
            if inst.is_load() {
                u.load_seq = Some(c[1]);
                c[1] += 1;
            }
            if inst.is_store() {
                u.store_seq = Some(c[2]);
                c[2] += 1;
            }
            if inst.is_mem() {
                u.mem_seq = Some(c[3]);
                c[3] += 1;
            }
            u.cnt_after = c;
            self.ctxs[ctx].counters = c;
            u.front_way = front_way;

            // Branch prediction / next-pc selection.
            let fall = pc.wrapping_add(4);
            let pred = if ctx == TRAILING {
                boq_next.unwrap_or(fall)
            } else {
                match inst {
                    Inst::Branch { offset, .. } => {
                        u.ghist_snapshot = self.gshare.history();
                        let taken = self.gshare.predict(pc);
                        self.gshare.push_history(taken);
                        if taken {
                            pc.wrapping_add(offset as i64 as u64)
                        } else {
                            fall
                        }
                    }
                    Inst::Jal { rd, offset } => {
                        if rd.index() == 1 {
                            self.ras.push(fall);
                        }
                        pc.wrapping_add(offset as i64 as u64)
                    }
                    Inst::Jalr { rd, rs1, .. } => {
                        let target = if rs1.index() == 1 && rd.index() == 0 {
                            self.ras.pop().or_else(|| self.btb.lookup(pc)).unwrap_or(fall)
                        } else {
                            if rd.index() == 1 {
                                self.ras.push(fall);
                            }
                            self.btb.lookup(pc).unwrap_or(fall)
                        };
                        target & !3u64
                    }
                    _ => fall,
                }
            };
            u.pred_next_pc = pred;
            let is_halt = matches!(inst, Inst::Halt);

            let id = self.slab.insert(u);
            self.ctxs[ctx].frontq.push_back(id);
            self.stats.fetched[ctx] += 1;
            self.ctxs[ctx].fetched_real += 1;
            self.trace_uop(FlightKind::Fetch, id);

            if is_halt {
                self.ctxs[ctx].fetch_halted = true;
                self.ctxs[ctx].fetch_pc = fall;
                return;
            }
            if pred != fall {
                // Redirect: group ends at a (predicted-)taken control op.
                self.ctxs[ctx].fetch_pc = pred;
                return;
            }
            pc = fall;
        }
        self.ctxs[ctx].fetch_pc = pc;
    }

    /// Fetches one shuffled packet for the BlackJack trailing thread.
    fn fetch_trailing_packet(&mut self) {
        let Some(packet) = self.fetchq_packets.pop_front() else { return };
        let packet_id = self.trail_packets;
        self.trail_packets += 1;
        for (slot, s) in packet.into_iter().enumerate() {
            match s {
                Slot::Hole => {}
                Slot::Nop(ty) => {
                    let mut u = Uop::new(self.next_uid, TRAILING, u64::MAX, 0, 0, Inst::Nop);
                    self.next_uid += 1;
                    u.filler = true;
                    u.fu = ty;
                    u.front_way = slot;
                    u.packet = Some(packet_id);
                    let id = self.slab.insert(u);
                    self.ctxs[TRAILING].frontq.push_back(id);
                    self.trace_uop(FlightKind::Fetch, id);
                }
                Slot::Inst(p) => {
                    // The DTQ payload RAM read: a defective entry hands
                    // the trailing thread a corrupted copy of the
                    // pristine word, *before* the trailing fetch way's
                    // own corruption applies.
                    let word = self.corrupt_dtq_word(p.seq, p.raw);
                    let raw = self.corrupt_fetch(slot, word);
                    let inst = decode(raw).ok();
                    // A decode that disagrees with the leading structure
                    // (class or memory behaviour) would derail the virtual
                    // resource allocation; the allocation logic flags it.
                    let structural_match = inst
                        .map(|i| {
                            i.fu_type() == p.fu
                                && i.is_load() == p.load_seq.is_some()
                                && i.is_store() == p.store_seq.is_some()
                        })
                        .unwrap_or(false);
                    if !structural_match {
                        self.detect(DetectionKind::ProgramOrderMismatch, p.seq, p.pc);
                        return;
                    }
                    let inst = inst.expect("structural match implies decode");
                    let mut u = Uop::new(self.next_uid, TRAILING, p.seq, p.pc, raw, inst);
                    self.next_uid += 1;
                    u.front_way = slot;
                    u.packet = Some(packet_id);
                    u.lead_srcs = p.lead_srcs;
                    u.lead_dst = p.lead_dst;
                    u.lead_front_way = p.front_way;
                    u.lead_back_way = p.back_way;
                    u.lead_next_pc = p.next_pc;
                    u.pred_next_pc = p.next_pc;
                    u.load_seq = p.load_seq;
                    u.store_seq = p.store_seq;
                    u.mem_seq = p.mem_seq;
                    let id = self.slab.insert(u);
                    self.ctxs[TRAILING].frontq.push_back(id);
                    self.stats.fetched[TRAILING] += 1;
                    self.ctxs[TRAILING].fetched_real += 1;
                    self.trace_uop(FlightKind::Fetch, id);
                }
            }
        }
    }
}

/// A frozen, restore-exact copy of a [`Core`] mid-simulation, taken with
/// [`Core::snapshot`].
///
/// The snapshot owns a deep copy of the entire simulation state, so it
/// outlives the core it came from and can mint any number of independent
/// continuations. Two uses:
///
/// - [`CoreSnapshot::restore`] resumes the *same* run — stepping the
///   restored core is bit-identical to stepping the original.
/// - [`CoreSnapshot::fork`] substitutes a fault plan armed *after* the
///   snapshot point — the fork-at-injection path. Because every fault
///   hook is inert before the plan's arming cycle, a run forked at cycle
///   `C` with a plan armed at `C+1` is bit-identical to a cold run from
///   cycle 0 with the same armed plan: both simulate cycles `1..=C`
///   fault-free and first corrupt at `C+1`.
#[derive(Clone)]
pub struct CoreSnapshot {
    core: Core,
}

impl CoreSnapshot {
    /// The cycle the snapshot was taken at.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// A fresh core continuing the snapshotted run, fault plan unchanged.
    pub fn restore(&self) -> Core {
        self.core.clone()
    }

    /// Re-freezes `core`'s current state into this snapshot in place.
    /// Equivalent to `*self = core.snapshot()` but reuses the snapshot's
    /// existing buffers — the periodic chain builder recycles retired
    /// snapshots through this instead of allocating fresh ones.
    pub fn refill_from(&mut self, core: &Core) {
        self.core.clone_from(core);
    }

    /// A fresh core continuing from the snapshot point under `plan` — the
    /// injection fork.
    ///
    /// # Panics
    ///
    /// Panics if the plan would already have fired inside the simulated
    /// prefix (non-empty plan with `arm_cycle() <= cycle()` on a snapshot
    /// past cycle 0) — such a fork could not be equivalent to a
    /// replay-from-zero run.
    pub fn fork(&self, plan: FaultPlan) -> Core {
        assert!(
            self.core.cycle == 0 || plan.is_empty() || plan.arm_cycle() > self.core.cycle,
            "fault plan arms at cycle {} but the snapshot already simulated {} fault-free cycles",
            plan.arm_cycle(),
            self.core.cycle,
        );
        let mut core = self.core.clone();
        core.set_plan(plan);
        core
    }
}

#[cfg(test)]
mod tests {
    use crate::{Core, CoreConfig, Mode, RunOutcome};
    use blackjack_faults::FaultPlan;
    use blackjack_isa::asm::assemble;

    #[test]
    fn boundary_queue_config_runs_blackjack() {
        // The tightest *workable* config for width 4: at
        // issue_queue == width a whole trailing packet can never hold
        // the shared issue queue alone (atomic packet issue livelocks),
        // so width + 1 is the boundary; a fetch queue of one width is
        // the smallest that admits a whole packet.
        let mut cfg = CoreConfig::with_mode(Mode::BlackJack);
        cfg.fetch_queue = cfg.width;
        cfg.issue_queue = cfg.width + 1;
        let prog = assemble(
            ".text
                li   x1, 64
                li   x2, 0
                li   x10, 0x200000
            loop:
                addi x2, x2, 1
                mul  x3, x2, x2
                sd   x3, 0(x10)
                blt  x2, x1, loop
                halt
            ",
        )
        .unwrap();
        let mut core = Core::new(cfg, &prog, FaultPlan::new());
        let out = core.run(1_000_000);
        assert_eq!(out, RunOutcome::Completed);
        assert_eq!(core.arch_reg(2), 64);
    }
}
