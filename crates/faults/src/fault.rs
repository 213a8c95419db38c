//! Hard-fault descriptions and the injection plan consulted by the
//! simulator's decode and execute stages.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A structure in the core that can harbor a permanent fault.
///
/// The granularity matches the paper's spatial-diversity argument: an
/// instruction is processed by exactly one *frontend way* (fetch slot,
/// decoder, rename port) and one *backend way* (functional-unit instance
/// with its operand-read and writeback paths), so faults are attached to
/// ways. The shared issue queue's payload RAM is its own site class
/// (§4.5's residual vulnerability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The fetch/decode/rename path of frontend way `way` (0-based).
    /// Corrupts the raw instruction word of every instruction that flows
    /// through the way while the trigger matches.
    Frontend {
        /// Frontend way index.
        way: usize,
    },
    /// The execute path of the backend way with global index `way`
    /// (a specific functional-unit instance, including cache ports).
    /// Corrupts the computed result (or the resolved target of a control
    /// instruction, or the effective address of a memory operation).
    Backend {
        /// Global backend-way index.
        way: usize,
    },
    /// One entry of the issue-queue payload RAM. Corrupts the instruction
    /// word of whichever instruction occupies the entry, in *both* threads
    /// if they happen to reuse it — the escape the paper closes by
    /// splitting the payload RAM per thread.
    PayloadRam {
        /// Issue-queue entry index.
        entry: usize,
    },
    /// One set of the L1 data-cache data array (uncore). Corrupts the
    /// value of every load whose address maps to the set, *before* the
    /// leading thread captures it into the LVQ — so both threads agree on
    /// the corrupt value unless an ECC layer intervenes.
    CacheData {
        /// Cache set index.
        index: usize,
    },
    /// One set of the L1 data-cache tag array (uncore). A tag defect can
    /// only force spurious misses here (the model never fabricates false
    /// hits), so it perturbs latency without corrupting architectural
    /// state.
    CacheTag {
        /// Cache set index.
        index: usize,
    },
    /// One entry of the store buffer holding leading stores awaiting
    /// their trailing check. Corrupts the buffered store data, so the
    /// pair check sees a leading/trailing disagreement.
    StoreBuffer {
        /// Store-buffer entry index.
        entry: usize,
    },
    /// One entry of the DTQ payload RAM carrying the pristine instruction
    /// word to the trailing thread. Corrupts only the trailing copy —
    /// memory is driven by the leading thread, so this can never escape.
    DtqPayload {
        /// DTQ entry index.
        entry: usize,
    },
    /// One entry of the LVQ payload RAM holding captured load values for
    /// the trailing thread. Without ECC this corrupts the trailing load
    /// value (detected by the pair checks); with SEC-DED ECC enabled a
    /// single-bit defect is corrected and a multi-bit one raises a DUE.
    LvqPayload {
        /// LVQ entry index.
        entry: usize,
    },
}

impl FaultSite {
    /// The site's family token in the `SITE:WAY[:BIT]` spelling that
    /// `bjsim --fault`, `.bjcase` files and campaign job labels share
    /// (the inverse of [`parse_fault`]'s `SITE`).
    pub fn family(self) -> &'static str {
        match self {
            FaultSite::Frontend { .. } => "frontend",
            FaultSite::Backend { .. } => "backend",
            FaultSite::PayloadRam { .. } => "payload",
            FaultSite::CacheData { .. } => "cachedata",
            FaultSite::CacheTag { .. } => "cachetag",
            FaultSite::StoreBuffer { .. } => "sbuf",
            FaultSite::DtqPayload { .. } => "dtq",
            FaultSite::LvqPayload { .. } => "lvq",
        }
    }

    /// The way, entry or set the site names within its structure.
    pub fn index(self) -> usize {
        match self {
            FaultSite::Frontend { way } | FaultSite::Backend { way } => way,
            FaultSite::PayloadRam { entry }
            | FaultSite::StoreBuffer { entry }
            | FaultSite::DtqPayload { entry }
            | FaultSite::LvqPayload { entry } => entry,
            FaultSite::CacheData { index } | FaultSite::CacheTag { index } => index,
        }
    }
}

/// Parses `SITE:WAY[:BIT]` into a stuck-at-1 fault on bit `BIT` (default
/// 0). `SITE` is a [`FaultSite::family`] token; `WAY` is the way, entry
/// or set index. Whether that index exists depends on the machine, so
/// range-checking it is the caller's job.
///
/// # Errors
///
/// Names what is wrong: the shape, an unknown family, a non-numeric
/// field, or `BIT` outside `0..64`.
pub fn parse_fault(spec: &str) -> Result<HardFault, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 2 || parts.len() > 3 {
        return Err(format!("bad fault spec `{spec}` (want SITE:WAY[:BIT])"));
    }
    let i: usize =
        parts[1].parse().map_err(|_| format!("bad way `{}` in fault spec `{spec}`", parts[1]))?;
    let bit: u8 = match parts.get(2) {
        None => 0,
        Some(b) => b.parse().map_err(|_| format!("bad bit `{b}` in fault spec `{spec}`"))?,
    };
    if bit >= 64 {
        return Err(format!("bit {bit} out of range in fault spec `{spec}` (want 0..64)"));
    }
    let site = match parts[0] {
        "frontend" => FaultSite::Frontend { way: i },
        "backend" => FaultSite::Backend { way: i },
        "payload" => FaultSite::PayloadRam { entry: i },
        "cachedata" => FaultSite::CacheData { index: i },
        "cachetag" => FaultSite::CacheTag { index: i },
        "sbuf" => FaultSite::StoreBuffer { entry: i },
        "dtq" => FaultSite::DtqPayload { entry: i },
        "lvq" => FaultSite::LvqPayload { entry: i },
        other => {
            return Err(format!(
                "unknown fault site `{other}` (want frontend, backend, payload, \
                 cachedata, cachetag, sbuf, dtq or lvq)"
            ))
        }
    };
    Ok(HardFault::stuck_bit(site, bit))
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Frontend { way } => write!(f, "frontend way {way}"),
            FaultSite::Backend { way } => write!(f, "backend way {way}"),
            FaultSite::PayloadRam { entry } => write!(f, "payload RAM entry {entry}"),
            FaultSite::CacheData { index } => write!(f, "L1D data array set {index}"),
            FaultSite::CacheTag { index } => write!(f, "L1D tag array set {index}"),
            FaultSite::StoreBuffer { entry } => write!(f, "store buffer entry {entry}"),
            FaultSite::DtqPayload { entry } => write!(f, "DTQ payload entry {entry}"),
            FaultSite::LvqPayload { entry } => write!(f, "LVQ payload entry {entry}"),
        }
    }
}

/// The temporal model of a fault plan: when, relative to the arming
/// cycle, the plan's faults are physically present.
///
/// Hard faults are the paper's subject — permanent from arming onwards.
/// Transient and intermittent faults extend the universe per the uncore
/// soft-error literature: a transient is a single-cycle upset, an
/// intermittent fault cycles between broken and healthy with a duty
/// cycle (burst faults from marginal hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultKind {
    /// Permanent: active on every cycle at or after arming.
    #[default]
    Hard,
    /// Single-cycle upset: active only on the arming cycle itself.
    Transient,
    /// Duty-cycled burst: starting at the arming cycle, active for the
    /// first `on` cycles of every `period`-cycle window.
    Intermittent {
        /// Window length in cycles (≥ 1).
        period: u64,
        /// Active cycles at the start of each window (1 ..= period).
        on: u64,
    },
}

impl FaultKind {
    /// True if a fault of this kind is physically present at `cycle`,
    /// given the plan armed at `arm`.
    pub fn active(self, cycle: u64, arm: u64) -> bool {
        if cycle < arm {
            return false;
        }
        match self {
            FaultKind::Hard => true,
            FaultKind::Transient => cycle == arm,
            FaultKind::Intermittent { period, on } => {
                debug_assert!(period >= 1 && (1..=period).contains(&on));
                (cycle - arm) % period < on
            }
        }
    }

    /// Short lower-case name used in reports and env parsing.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Hard => "hard",
            FaultKind::Transient => "transient",
            FaultKind::Intermittent { .. } => "intermittent",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Intermittent { period, on } => {
                write!(f, "intermittent({on}/{period})")
            }
            other => f.write_str(other.name()),
        }
    }
}

/// How a fault transforms a value passing through the faulty structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corruption {
    /// Bit `bit` reads as `value` regardless of what was written.
    StuckAt {
        /// Bit position, `0..64`.
        bit: u8,
        /// The stuck level.
        value: bool,
    },
    /// Bit `bit` inverts on every pass.
    FlipBit {
        /// Bit position, `0..64`.
        bit: u8,
    },
    /// The value is XORed with `mask` (a multi-bit defect).
    XorMask {
        /// Bits to invert.
        mask: u64,
    },
}

impl Corruption {
    /// Applies the corruption to a value.
    pub fn apply(self, v: u64) -> u64 {
        match self {
            Corruption::StuckAt { bit, value } => {
                if value {
                    v | (1 << bit)
                } else {
                    v & !(1 << bit)
                }
            }
            Corruption::FlipBit { bit } => v ^ (1 << bit),
            Corruption::XorMask { mask } => v ^ mask,
        }
    }
}

/// The machine-state condition under which a fault manifests.
///
/// `Always` models a gross defect. `ValuePattern` models marginal hardware
/// that fails only under specific signal patterns — exactly the class of
/// error the paper argues escapes manufacturing test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// Fires on every value.
    Always,
    /// Fires only when `(value & mask) == pattern`.
    ValuePattern {
        /// Bits that participate in the condition.
        mask: u64,
        /// Required value of those bits.
        pattern: u64,
    },
}

impl Trigger {
    /// True if the fault fires for `v`.
    pub fn matches(self, v: u64) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::ValuePattern { mask, pattern } => (v & mask) == pattern,
        }
    }
}

/// One permanent fault: a site, a corruption, and a trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HardFault {
    /// Where the fault lives.
    pub site: FaultSite,
    /// What it does to values.
    pub corruption: Corruption,
    /// When it fires.
    pub trigger: Trigger,
}

impl HardFault {
    /// An always-firing stuck-at-1 fault on bit 0 — the simplest defect,
    /// handy for tests and examples.
    pub fn stuck_bit(site: FaultSite, bit: u8) -> HardFault {
        HardFault { site, corruption: Corruption::StuckAt { bit, value: true }, trigger: Trigger::Always }
    }

    /// Applies the fault to `v` if the trigger matches.
    pub fn apply(&self, v: u64) -> u64 {
        if self.trigger.matches(v) {
            self.corruption.apply(v)
        } else {
            v
        }
    }
}

impl fmt::Display for HardFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at {}", self.corruption, self.site)
    }
}

/// The set of faults active in one simulation, with per-site lookups used
/// by the pipeline's decode and execute hooks.
///
/// A plan can be *armed* at a cycle: before `arm_cycle` the hardware is
/// healthy and every corruption hook is inert. This models wear-out
/// defects that develop mid-run, and it is what makes the fault-free
/// prefix of an injection run shareable — every plan for the same
/// workload is identical (empty, effectively) until its arming point.
///
/// The plan also counts its own use: every hook application where a fault
/// matched the site bumps [`FaultPlan::exercised`], and every application
/// that actually *changed* the value bumps [`FaultPlan::activations`].
/// While `activations() == 0` the faulted run is bit-identical to the
/// fault-free run — the invariant the campaign's early-exit layer builds
/// on. The counters are atomics only so a plan stays `Sync` inside
/// campaign-shared snapshots; each simulation mutates its own plan from
/// one thread.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<HardFault>,
    kind: FaultKind,
    arm_cycle: u64,
    /// The simulator's current cycle, published by [`FaultPlan::
    /// observe_cycle`] once per step so the temporal model can decide
    /// whether the faults are present when a hook fires. An atomic only
    /// for the same `Sync` reason as the counters.
    now: AtomicU64,
    exercised: AtomicU64,
    activations: AtomicU64,
}

impl Clone for FaultPlan {
    /// Clones the plan *including* the current counter values, so a
    /// snapshot/restore boundary is invisible to the early-exit layer.
    fn clone(&self) -> FaultPlan {
        FaultPlan {
            faults: self.faults.clone(),
            kind: self.kind,
            arm_cycle: self.arm_cycle,
            now: AtomicU64::new(self.now.load(Ordering::Relaxed)),
            exercised: AtomicU64::new(self.exercised()),
            activations: AtomicU64::new(self.activations()),
        }
    }
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn single(fault: HardFault) -> FaultPlan {
        FaultPlan { faults: vec![fault], ..FaultPlan::default() }
    }

    /// Defers the plan's faults until simulation cycle `cycle` (a wear-out
    /// fault). The default arming cycle is 0: faulty from power-on.
    pub fn arm_at(mut self, cycle: u64) -> FaultPlan {
        self.arm_cycle = cycle;
        self
    }

    /// The cycle at which the faults begin to manifest.
    pub fn arm_cycle(&self) -> u64 {
        self.arm_cycle
    }

    /// Sets the plan's temporal model (default: [`FaultKind::Hard`]).
    pub fn with_kind(mut self, kind: FaultKind) -> FaultPlan {
        if let FaultKind::Intermittent { period, on } = kind {
            assert!(period >= 1 && (1..=period).contains(&on), "intermittent duty cycle must satisfy 1 <= on <= period");
        }
        self.kind = kind;
        self
    }

    /// The plan's temporal model.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Publishes the simulator's current cycle. The core calls this once
    /// at the top of every step; hooks firing later in the same cycle
    /// consult it to decide whether the faults are physically present
    /// under the plan's temporal model.
    pub fn observe_cycle(&self, cycle: u64) {
        self.now.store(cycle, Ordering::Relaxed);
    }

    /// Adds a fault.
    pub fn add(&mut self, fault: HardFault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// All faults.
    pub fn faults(&self) -> &[HardFault] {
        &self.faults
    }

    /// True if no faults are active.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Hook applications (post-arming) where a fault matched the site —
    /// how often the defective structure was read while defective.
    pub fn exercised(&self) -> u64 {
        self.exercised.load(Ordering::Relaxed)
    }

    /// Hook applications that changed the value passing through. While
    /// this is zero the run is bit-identical to its fault-free twin: the
    /// hooks are the only nondeterminism a plan introduces, and an
    /// application that returns its input leaves no trace.
    pub fn activations(&self) -> u64 {
        self.activations.load(Ordering::Relaxed)
    }

    /// Zeroes both counters (a fork installing this plan starts fresh).
    pub fn reset_counters(&self) {
        self.exercised.store(0, Ordering::Relaxed);
        self.activations.store(0, Ordering::Relaxed);
    }

    /// Applies every fault at `site` to `v`, counting matches and
    /// value changes.
    ///
    /// Under a non-hard temporal model the faults are only present on
    /// the cycles [`FaultKind::active`] admits: a dormant structure is
    /// momentarily healthy, so the read neither exercises nor activates
    /// anything.
    fn apply_site(&self, site: FaultSite, v: u64) -> u64 {
        if !self.kind.active(self.now.load(Ordering::Relaxed), self.arm_cycle) {
            return v;
        }
        let mut out = v;
        for f in &self.faults {
            if f.site == site {
                self.exercised.fetch_add(1, Ordering::Relaxed);
                out = f.apply(out);
            }
        }
        if out != v {
            self.activations.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Applies every fault on frontend way `way` to an instruction word.
    pub fn corrupt_frontend(&self, way: usize, word: u32) -> u32 {
        self.apply_site(FaultSite::Frontend { way }, word as u64) as u32
    }

    /// Applies every fault on backend way `way` to a computed value.
    pub fn corrupt_backend(&self, way: usize, value: u64) -> u64 {
        self.apply_site(FaultSite::Backend { way }, value)
    }

    /// Applies every fault on payload-RAM entry `entry` to a 64-bit value
    /// (the simulator models payload corruption as corrupting the computed
    /// result of whichever instruction occupies the defective entry).
    pub fn corrupt_payload_value(&self, entry: usize, value: u64) -> u64 {
        self.apply_site(FaultSite::PayloadRam { entry }, value)
    }

    /// Applies every fault on payload-RAM entry `entry` to an instruction
    /// word.
    pub fn corrupt_payload(&self, entry: usize, word: u32) -> u32 {
        self.apply_site(FaultSite::PayloadRam { entry }, word as u64) as u32
    }

    /// Applies every fault on L1D data-array set `index` to a load value
    /// read from the cache (before LVQ capture).
    pub fn corrupt_cache_data(&self, index: usize, value: u64) -> u64 {
        self.apply_site(FaultSite::CacheData { index }, value)
    }

    /// Applies every fault on store-buffer entry `entry` to buffered
    /// store data.
    pub fn corrupt_store_buffer(&self, entry: usize, value: u64) -> u64 {
        self.apply_site(FaultSite::StoreBuffer { entry }, value)
    }

    /// Applies every fault on DTQ payload entry `entry` to the carried
    /// instruction word.
    pub fn corrupt_dtq_payload(&self, entry: usize, word: u32) -> u32 {
        self.apply_site(FaultSite::DtqPayload { entry }, word as u64) as u32
    }

    /// Applies every fault on LVQ payload entry `entry` to the captured
    /// load value read by the trailing thread.
    pub fn corrupt_lvq_payload(&self, entry: usize, value: u64) -> u64 {
        self.apply_site(FaultSite::LvqPayload { entry }, value)
    }

    /// True if a fault on L1D *tag* set `index` is physically present
    /// right now (tag faults only perturb latency, so the hook is a
    /// predicate rather than a value transform). Counts as exercised —
    /// the defective set was consulted.
    pub fn cache_tag_miss(&self, index: usize) -> bool {
        if !self.kind.active(self.now.load(Ordering::Relaxed), self.arm_cycle) {
            return false;
        }
        let hit = self.faults.iter().any(|f| f.site == FaultSite::CacheTag { index });
        if hit {
            // A forced miss perturbs timing, so the run is no longer
            // bit-identical to its fault-free twin: count it as an
            // activation so the convergence seal stays conservative.
            self.exercised.fetch_add(1, Ordering::Relaxed);
            self.activations.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// True if any fault targets the given frontend way.
    pub fn has_frontend(&self, way: usize) -> bool {
        self.faults.iter().any(|f| f.site == FaultSite::Frontend { way })
    }

    /// True if any fault targets the given backend way.
    pub fn has_backend(&self, way: usize) -> bool {
        self.faults.iter().any(|f| f.site == FaultSite::Backend { way })
    }

    /// True if any fault targets the given site.
    pub fn has_site(&self, site: FaultSite) -> bool {
        self.faults.iter().any(|f| f.site == site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_specs_round_trip_every_family() {
        for site in [
            FaultSite::Frontend { way: 3 },
            FaultSite::Backend { way: 3 },
            FaultSite::PayloadRam { entry: 3 },
            FaultSite::CacheData { index: 3 },
            FaultSite::CacheTag { index: 3 },
            FaultSite::StoreBuffer { entry: 3 },
            FaultSite::DtqPayload { entry: 3 },
            FaultSite::LvqPayload { entry: 3 },
        ] {
            let spec = format!("{}:{}:63", site.family(), site.index());
            assert_eq!(parse_fault(&spec), Ok(HardFault::stuck_bit(site, 63)), "{spec}");
        }
        assert_eq!(
            parse_fault("backend:4"),
            Ok(HardFault::stuck_bit(FaultSite::Backend { way: 4 }, 0))
        );
    }

    #[test]
    fn fault_specs_reject_malformed_and_out_of_range_bits() {
        for bad in [
            "backend",
            "backend:4:2:1",
            "backend:x",
            "backend:-1",
            "backend:4:x",
            "backend:4:-1",
            "backend:4:64",
            "backend:4:200",
            "backend:4:256",
            "alu:4",
            "",
        ] {
            assert!(parse_fault(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(parse_fault("backend:4:200").unwrap_err().contains("out of range"));
        assert!(parse_fault("alu:4").unwrap_err().contains("lvq"));
    }

    #[test]
    fn stuck_at_semantics() {
        let c = Corruption::StuckAt { bit: 3, value: true };
        assert_eq!(c.apply(0), 8);
        assert_eq!(c.apply(8), 8);
        let c = Corruption::StuckAt { bit: 3, value: false };
        assert_eq!(c.apply(0xf), 0x7);
        assert_eq!(c.apply(0x7), 0x7);
    }

    #[test]
    fn flip_and_mask() {
        assert_eq!(Corruption::FlipBit { bit: 0 }.apply(0), 1);
        assert_eq!(Corruption::FlipBit { bit: 0 }.apply(1), 0);
        assert_eq!(Corruption::XorMask { mask: 0xff }.apply(0x0f), 0xf0);
    }

    #[test]
    fn pattern_trigger_is_selective() {
        let f = HardFault {
            site: FaultSite::Backend { way: 0 },
            corruption: Corruption::FlipBit { bit: 8 },
            trigger: Trigger::ValuePattern { mask: 0xf, pattern: 0xa },
        };
        assert_eq!(f.apply(0x1a), 0x11a, "pattern matches: corrupted");
        assert_eq!(f.apply(0x1b), 0x1b, "pattern misses: clean");
    }

    #[test]
    fn plan_routes_by_site() {
        let mut plan = FaultPlan::new();
        plan.add(HardFault::stuck_bit(FaultSite::Backend { way: 2 }, 0));
        plan.add(HardFault::stuck_bit(FaultSite::Frontend { way: 1 }, 4));
        assert_eq!(plan.corrupt_backend(2, 0), 1);
        assert_eq!(plan.corrupt_backend(3, 0), 0, "other ways unaffected");
        assert_eq!(plan.corrupt_frontend(1, 0), 16);
        assert_eq!(plan.corrupt_frontend(0, 0), 0);
        assert!(plan.has_backend(2) && !plan.has_backend(0));
        assert!(plan.has_frontend(1) && !plan.has_frontend(3));
    }

    #[test]
    fn multiple_faults_compose() {
        let mut plan = FaultPlan::new();
        plan.add(HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 0));
        plan.add(HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 1));
        assert_eq!(plan.corrupt_backend(0, 0), 3);
    }

    #[test]
    fn payload_site() {
        let plan = FaultPlan::single(HardFault::stuck_bit(FaultSite::PayloadRam { entry: 7 }, 2));
        assert_eq!(plan.corrupt_payload(7, 0), 4);
        assert_eq!(plan.corrupt_payload(6, 0), 0);
    }

    #[test]
    fn empty_plan_is_transparent() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.corrupt_backend(0, 42), 42);
        assert_eq!(plan.corrupt_frontend(0, 42), 42);
    }

    #[test]
    fn arming_defaults_to_power_on() {
        assert_eq!(FaultPlan::new().arm_cycle(), 0);
        let f = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 0);
        assert_eq!(FaultPlan::single(f).arm_cycle(), 0);
        let armed = FaultPlan::single(f).arm_at(12_345);
        assert_eq!(armed.arm_cycle(), 12_345);
        assert!(!armed.is_empty(), "arming does not change the fault set");
    }

    #[test]
    fn counters_distinguish_exercise_from_activation() {
        // Stuck-at-1 on bit 3: reading a value whose bit 3 is already 1
        // exercises the fault without activating it.
        let plan = FaultPlan::single(HardFault::stuck_bit(FaultSite::Backend { way: 1 }, 3));
        assert_eq!((plan.exercised(), plan.activations()), (0, 0));
        assert_eq!(plan.corrupt_backend(0, 0), 0, "other way: no exercise");
        assert_eq!((plan.exercised(), plan.activations()), (0, 0));
        assert_eq!(plan.corrupt_backend(1, 8), 8, "bit already stuck level");
        assert_eq!((plan.exercised(), plan.activations()), (1, 0));
        assert_eq!(plan.corrupt_backend(1, 0), 8, "value changed");
        assert_eq!((plan.exercised(), plan.activations()), (2, 1));

        let copy = plan.clone();
        assert_eq!((copy.exercised(), copy.activations()), (2, 1), "clone keeps counts");
        plan.reset_counters();
        assert_eq!((plan.exercised(), plan.activations()), (0, 0));
        assert_eq!((copy.exercised(), copy.activations()), (2, 1), "copies are independent");
    }

    #[test]
    fn counters_cover_every_hook_and_mismatched_triggers() {
        let mut plan = FaultPlan::new();
        plan.add(HardFault {
            site: FaultSite::Frontend { way: 0 },
            corruption: Corruption::FlipBit { bit: 1 },
            trigger: Trigger::ValuePattern { mask: 0xf, pattern: 0xa },
        });
        plan.add(HardFault::stuck_bit(FaultSite::PayloadRam { entry: 2 }, 0));
        // Trigger miss: exercised (the defective structure was read) but
        // the value passed through unchanged.
        assert_eq!(plan.corrupt_frontend(0, 0xb), 0xb);
        assert_eq!((plan.exercised(), plan.activations()), (1, 0));
        assert_eq!(plan.corrupt_frontend(0, 0xa), 0x8);
        assert_eq!((plan.exercised(), plan.activations()), (2, 1));
        assert_eq!(plan.corrupt_payload_value(2, 0), 1);
        assert_eq!(plan.corrupt_payload(2, 1), 1);
        assert_eq!((plan.exercised(), plan.activations()), (4, 2));
    }

    #[test]
    fn display_forms() {
        let f = HardFault::stuck_bit(FaultSite::Frontend { way: 2 }, 0);
        assert!(f.to_string().contains("frontend way 2"));
        assert!(FaultSite::PayloadRam { entry: 3 }.to_string().contains("entry 3"));
        assert!(FaultSite::LvqPayload { entry: 9 }.to_string().contains("LVQ payload entry 9"));
        assert_eq!(FaultKind::Hard.to_string(), "hard");
        assert_eq!(FaultKind::Transient.to_string(), "transient");
        assert_eq!(
            FaultKind::Intermittent { period: 64, on: 8 }.to_string(),
            "intermittent(8/64)"
        );
    }

    #[test]
    fn kind_activity_windows() {
        // Hard: on from arming forever.
        assert!(!FaultKind::Hard.active(9, 10));
        assert!(FaultKind::Hard.active(10, 10));
        assert!(FaultKind::Hard.active(1_000_000, 10));
        // Transient: exactly the arming cycle.
        assert!(!FaultKind::Transient.active(9, 10));
        assert!(FaultKind::Transient.active(10, 10));
        assert!(!FaultKind::Transient.active(11, 10));
        // Intermittent 2-on / 5-period windows starting at arm.
        let i = FaultKind::Intermittent { period: 5, on: 2 };
        assert!(!i.active(9, 10));
        assert!(i.active(10, 10) && i.active(11, 10));
        assert!(!i.active(12, 10) && !i.active(14, 10));
        assert!(i.active(15, 10) && i.active(16, 10));
        assert!(!i.active(17, 10));
    }

    #[test]
    fn transient_plan_fires_only_on_the_arming_cycle() {
        let plan = FaultPlan::single(HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 0))
            .arm_at(100)
            .with_kind(FaultKind::Transient);
        plan.observe_cycle(99);
        assert_eq!(plan.corrupt_backend(0, 0), 0, "pre-arm: healthy");
        assert_eq!((plan.exercised(), plan.activations()), (0, 0));
        plan.observe_cycle(100);
        assert_eq!(plan.corrupt_backend(0, 0), 1, "arming cycle: upset");
        assert_eq!((plan.exercised(), plan.activations()), (1, 1));
        plan.observe_cycle(101);
        assert_eq!(plan.corrupt_backend(0, 0), 0, "one cycle later: healthy again");
        assert_eq!((plan.exercised(), plan.activations()), (1, 1), "dormant reads count nothing");
    }

    #[test]
    fn intermittent_plan_follows_the_duty_cycle() {
        let plan = FaultPlan::single(HardFault::stuck_bit(FaultSite::LvqPayload { entry: 3 }, 2))
            .arm_at(50)
            .with_kind(FaultKind::Intermittent { period: 4, on: 1 });
        for cycle in 48..58 {
            plan.observe_cycle(cycle);
            let expect = cycle >= 50 && (cycle - 50) % 4 == 0;
            let out = plan.corrupt_lvq_payload(3, 0);
            assert_eq!(out != 0, expect, "cycle {cycle}");
        }
    }

    #[test]
    fn uncore_sites_route_independently() {
        let mut plan = FaultPlan::new();
        plan.add(HardFault::stuck_bit(FaultSite::CacheData { index: 5 }, 0));
        plan.add(HardFault::stuck_bit(FaultSite::StoreBuffer { entry: 2 }, 1));
        plan.add(HardFault::stuck_bit(FaultSite::DtqPayload { entry: 7 }, 2));
        plan.add(HardFault::stuck_bit(FaultSite::LvqPayload { entry: 9 }, 3));
        assert_eq!(plan.corrupt_cache_data(5, 0), 1);
        assert_eq!(plan.corrupt_cache_data(4, 0), 0);
        assert_eq!(plan.corrupt_store_buffer(2, 0), 2);
        assert_eq!(plan.corrupt_store_buffer(3, 0), 0);
        assert_eq!(plan.corrupt_dtq_payload(7, 0), 4);
        assert_eq!(plan.corrupt_dtq_payload(6, 0), 0);
        assert_eq!(plan.corrupt_lvq_payload(9, 0), 8);
        assert_eq!(plan.corrupt_lvq_payload(8, 0), 0);
        assert!(plan.has_site(FaultSite::CacheData { index: 5 }));
        assert!(!plan.has_site(FaultSite::CacheData { index: 4 }));
    }

    #[test]
    fn cache_tag_predicate_counts_as_activation() {
        let plan = FaultPlan::single(HardFault::stuck_bit(FaultSite::CacheTag { index: 1 }, 0));
        assert!(!plan.cache_tag_miss(0), "other sets healthy");
        assert_eq!((plan.exercised(), plan.activations()), (0, 0));
        assert!(plan.cache_tag_miss(1));
        assert_eq!((plan.exercised(), plan.activations()), (1, 1));
    }

    #[test]
    fn clone_preserves_kind_and_observed_cycle() {
        let plan = FaultPlan::single(HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 0))
            .arm_at(10)
            .with_kind(FaultKind::Transient);
        plan.observe_cycle(10);
        let copy = plan.clone();
        assert_eq!(copy.kind(), FaultKind::Transient);
        assert_eq!(copy.corrupt_backend(0, 0), 1, "copy still sees the arming cycle");
    }
}
