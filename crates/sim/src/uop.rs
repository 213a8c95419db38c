//! Dynamic micro-ops and the in-flight instruction slab.

use blackjack_isa::{FuType, Inst, LogReg};

/// Index of a physical register within one context's file.
pub type PhysReg = u16;

/// Stable handle to an in-flight [`Uop`] in the [`UopSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UopId {
    idx: u32,
    gen: u32,
}

/// Pipeline position of a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Sitting in the frontend fetch queue.
    Fetched,
    /// Renamed, waiting in the issue queue.
    InQueue,
    /// Issued to a functional unit, executing.
    Executing,
    /// Result produced; waiting to commit.
    Completed,
}

/// One dynamic instruction (or safe-shuffle filler NOP) in flight.
#[derive(Debug, Clone)]
pub struct Uop {
    /// Globally unique, monotonically increasing id (age stamp).
    pub uid: u64,
    /// Context: 0 = leading/single, 1 = trailing.
    pub ctx: usize,
    /// Per-context program-order sequence number. Filler NOPs use
    /// `u64::MAX` (they never commit).
    pub seq: u64,
    /// Fetch PC.
    pub pc: u64,
    /// The raw instruction word as seen by this copy (after any frontend
    /// fault corruption).
    pub raw: u32,
    /// The pristine instruction word as stored in memory, before any
    /// frontend corruption. The DTQ carries this copy so a leading
    /// frontend fault cannot replicate into the trailing thread (each
    /// copy's corruption is applied at its own fetch way).
    pub pristine: u32,
    /// The decoded instruction.
    pub inst: Inst,
    /// FU class (normally `inst.fu_type()`; overridden for typed NOPs).
    pub fu: FuType,
    /// Current pipeline stage.
    pub stage: Stage,

    // --- rename ---
    /// Renamed source physical registers (`None` = x0 / absent operand).
    pub srcs: [Option<PhysReg>; 2],
    /// Allocated destination physical register.
    pub dst: Option<PhysReg>,
    /// Previous mapping of the destination logical register (freed at
    /// commit; restored on squash). Leading/SRT-trailing only.
    pub old_dst: Option<PhysReg>,
    /// Destination logical register.
    pub log_dst: Option<LogReg>,

    // --- trailing-thread (DTQ) rename inputs ---
    /// Leading physical source registers borrowed through the DTQ.
    pub lead_srcs: [Option<PhysReg>; 2],
    /// Leading physical destination register borrowed through the DTQ.
    pub lead_dst: Option<PhysReg>,
    /// Leading copy's frontend way (for diversity accounting).
    pub lead_front_way: usize,
    /// Leading copy's backend way.
    pub lead_back_way: usize,
    /// Leading copy's committed next-PC (program-order check input).
    pub lead_next_pc: u64,

    // --- resource usage ---
    /// Frontend way this copy flowed through.
    pub front_way: usize,
    /// Backend way this copy issued to (set at issue).
    pub back_way: Option<usize>,
    /// Issue-queue payload-RAM entry this uop occupied (for payload-fault
    /// application at late value capture).
    pub payload_slot: usize,
    /// Leading: id of the co-issue packet this uop belongs to.
    /// Trailing: id of the shuffled packet it was fetched in.
    pub packet: Option<u64>,
    /// True for safe-shuffle filler NOPs.
    pub filler: bool,

    // --- execution results ---
    /// Computed destination value (raw bits for FP).
    pub result: Option<u64>,
    /// SEC-DED check bits over the *clean* load value, generated at the
    /// leading load's value capture before any backend/payload/cache-data
    /// corruption can strike (`CoreConfig::lvq_ecc`). Travels with the
    /// load to commit, where it is pushed into the LVQ entry.
    pub ecc: u8,
    /// Computed next PC.
    pub next_pc: u64,
    /// Conditional-branch outcome.
    pub taken: bool,
    /// Effective address (memory ops).
    pub eff_addr: Option<u64>,
    /// Width-truncated store data (stores).
    pub store_val: Option<u64>,

    // --- branch prediction (leading) ---
    /// Next PC predicted at fetch.
    pub pred_next_pc: u64,
    /// Global-history snapshot *before* this branch updated it.
    pub ghist_snapshot: u64,

    // --- memory ordering ---
    /// Per-context LSQ ring index.
    pub lsq_slot: Option<u64>,
    /// Program-order load number (loads only).
    pub load_seq: Option<u64>,
    /// Program-order store number (stores only).
    pub store_seq: Option<u64>,
    /// Program-order memory-op number (loads and stores; the virtual LSQ
    /// index of §4.2.1).
    pub mem_seq: Option<u64>,
    /// DTQ entry index allocated at leading issue (BlackJack modes).
    pub dtq_index: Option<u64>,
    /// Context counter values (`next_seq`, `next_load_seq`,
    /// `next_store_seq`, `next_mem_seq`) *after* this uop was fetched;
    /// squash recovery restores from the mispredicted branch's snapshot.
    pub cnt_after: [u64; 4],
}

impl Uop {
    /// Creates a fresh uop in the `Fetched` stage with empty rename and
    /// execution state.
    pub fn new(uid: u64, ctx: usize, seq: u64, pc: u64, raw: u32, inst: Inst) -> Uop {
        Uop {
            uid,
            ctx,
            seq,
            pc,
            raw,
            pristine: raw,
            inst,
            fu: inst.fu_type(),
            stage: Stage::Fetched,
            srcs: [None, None],
            dst: None,
            old_dst: None,
            log_dst: inst.dst(),
            lead_srcs: [None, None],
            lead_dst: None,
            lead_front_way: usize::MAX,
            lead_back_way: usize::MAX,
            lead_next_pc: 0,
            front_way: 0,
            back_way: None,
            payload_slot: 0,
            packet: None,
            filler: false,
            result: None,
            ecc: 0,
            next_pc: pc.wrapping_add(4),
            taken: false,
            eff_addr: None,
            store_val: None,
            pred_next_pc: pc.wrapping_add(4),
            ghist_snapshot: 0,
            lsq_slot: None,
            load_seq: None,
            store_seq: None,
            mem_seq: None,
            dtq_index: None,
            cnt_after: [0; 4],
        }
    }

    /// True if this uop is an architectural instruction (commits), as
    /// opposed to a filler NOP.
    pub fn architectural(&self) -> bool {
        !self.filler
    }
}

/// Generational slab holding all in-flight uops.
///
/// Handles ([`UopId`]) are invalidated on removal, so a stale id from a
/// squashed instruction can never silently alias a new one.
#[derive(Debug, Default)]
pub struct UopSlab {
    slots: Vec<Option<Uop>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

/// Hand-written so `clone_from` reuses the three backing vectors:
/// snapshot recycling clones the slab thousands of times per campaign,
/// and the derived impl would reallocate all of them on every refresh.
impl Clone for UopSlab {
    fn clone(&self) -> UopSlab {
        UopSlab {
            slots: self.slots.clone(),
            gens: self.gens.clone(),
            free: self.free.clone(),
            live: self.live,
        }
    }

    fn clone_from(&mut self, source: &UopSlab) {
        self.slots.clone_from(&source.slots);
        self.gens.clone_from(&source.gens);
        self.free.clone_from(&source.free);
        self.live = source.live;
    }
}

impl UopSlab {
    /// Creates an empty slab.
    pub fn new() -> UopSlab {
        UopSlab::default()
    }

    /// Number of live uops.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no uops are in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a uop, returning its handle.
    pub fn insert(&mut self, uop: Uop) -> UopId {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(uop);
            UopId { idx, gen: self.gens[idx as usize] }
        } else {
            self.slots.push(Some(uop));
            self.gens.push(0);
            UopId { idx: (self.slots.len() - 1) as u32, gen: 0 }
        }
    }

    /// Returns the uop for `id`, if it is still live.
    pub fn get(&self, id: UopId) -> Option<&Uop> {
        if self.gens.get(id.idx as usize) == Some(&id.gen) {
            self.slots[id.idx as usize].as_ref()
        } else {
            None
        }
    }

    /// Mutable access to the uop for `id`, if it is still live.
    pub fn get_mut(&mut self, id: UopId) -> Option<&mut Uop> {
        if self.gens.get(id.idx as usize) == Some(&id.gen) {
            self.slots[id.idx as usize].as_mut()
        } else {
            None
        }
    }

    /// Immutable access that panics on a dead handle (pipeline invariant
    /// violations should fail loudly).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed uop.
    pub fn at(&self, id: UopId) -> &Uop {
        self.get(id).expect("stale UopId")
    }

    /// Mutable access that panics on a dead handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed uop.
    pub fn at_mut(&mut self, id: UopId) -> &mut Uop {
        self.get_mut(id).expect("stale UopId")
    }

    /// Removes and returns the uop, invalidating its handle.
    pub fn remove(&mut self, id: UopId) -> Option<Uop> {
        if self.gens.get(id.idx as usize) != Some(&id.gen) {
            return None;
        }
        let u = self.slots[id.idx as usize].take();
        if u.is_some() {
            self.gens[id.idx as usize] = self.gens[id.idx as usize].wrapping_add(1);
            self.free.push(id.idx);
            self.live -= 1;
        }
        u
    }

    /// True if the handle is still live.
    pub fn contains(&self, id: UopId) -> bool {
        self.get(id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackjack_isa::{AluOp, Reg};

    fn mk(uid: u64) -> Uop {
        Uop::new(
            uid,
            0,
            uid,
            0x1000,
            0,
            Inst::Alu { op: AluOp::Add, rd: Reg::new(1), rs1: Reg::new(2), rs2: Reg::new(3) },
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut s = UopSlab::new();
        let a = s.insert(mk(1));
        let b = s.insert(mk(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.at(a).uid, 1);
        assert_eq!(s.at(b).uid, 2);
        assert_eq!(s.remove(a).unwrap().uid, 1);
        assert!(s.get(a).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn generations_prevent_aliasing() {
        let mut s = UopSlab::new();
        let a = s.insert(mk(1));
        s.remove(a);
        let b = s.insert(mk(2)); // reuses the slot
        assert!(s.get(a).is_none(), "stale handle stays dead");
        assert_eq!(s.at(b).uid, 2);
        assert!(s.remove(a).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn new_uop_defaults() {
        let u = mk(7);
        assert_eq!(u.stage, Stage::Fetched);
        assert_eq!(u.fu, FuType::IntAlu);
        assert!(u.architectural());
        assert_eq!(u.next_pc, 0x1004);
        assert_eq!(u.log_dst, Some(LogReg::new(1)));
    }

    #[test]
    fn double_remove_is_none() {
        let mut s = UopSlab::new();
        let a = s.insert(mk(1));
        assert!(s.remove(a).is_some());
        assert!(s.remove(a).is_none());
        assert!(s.is_empty());
    }
}
