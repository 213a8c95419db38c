//! Safe-shuffle (§4.2.2): the greedy algorithm that reorders a leading
//! packet into a spatially diverse trailing packet.
//!
//! Output-slot semantics, given the direct-mapped fetch policy and the
//! oldest-first first-free-matching-way select policy:
//!
//! * an instruction placed at output slot `k` will use **frontend way
//!   `k`**, and
//! * its **backend way** is the `i`-th instance of its FU class, where `i`
//!   is the number of same-class occupants (instructions *or typed NOPs*)
//!   in slots below `k` —
//!
//! provided the packet later issues whole and alone. The greedy algorithm
//! walks each input instruction across the output slots, claiming the
//! first slot that is spatially diverse from that instruction's leading
//! copy. Passing over an empty slot that conflicts plants a NOP *marked
//! with the instruction's class* (so same-class instructions can swap ways
//! by claiming it, Figure 2); NOPs of a different class are never
//! replaced. When an instruction finds no slot, the output packet is
//! closed and the remainder of the input packet starts a new one — the
//! packet *split* whose cost Figure 7 isolates via BlackJack-NS.

use blackjack_isa::FuType;

use crate::config::FuCounts;

/// What shuffle needs to know about one input instruction.
pub trait ShuffleItem {
    /// The instruction's FU class.
    fn fu_type(&self) -> FuType;
    /// Frontend way used by the leading copy.
    fn lead_front_way(&self) -> usize;
    /// Backend way (global index) used by the leading copy.
    fn lead_back_way(&self) -> usize;
}

/// One slot of a shuffled output packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot<T> {
    /// A real instruction.
    Inst(T),
    /// A filler NOP marked with an FU class; it flows through the pipeline
    /// to writeback, occupying a frontend way, an issue-queue slot, and a
    /// backend way of the marked class — planted only where it is needed
    /// to bump a sibling's backend index past the leading copy's way.
    Nop(FuType),
    /// An unoccupied frontend way. Frontend-way mapping is positional, so
    /// a passed-over slot that is not needed for backend-index bumping
    /// costs nothing (no fetch, issue, or FU bandwidth).
    Hole,
}

impl<T> Slot<T> {
    /// The FU class occupying this slot (`None` for holes).
    pub fn fu_type(&self) -> Option<FuType>
    where
        T: ShuffleItem,
    {
        match self {
            Slot::Inst(i) => Some(i.fu_type()),
            Slot::Nop(t) => Some(*t),
            Slot::Hole => None,
        }
    }

    /// True for filler NOPs.
    pub fn is_nop(&self) -> bool {
        matches!(self, Slot::Nop(_))
    }
}

/// The result of shuffling one input packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleOutcome<T> {
    /// Output packets, each a dense vector of slots (trailing frontend way
    /// = slot index).
    pub packets: Vec<Vec<Slot<T>>>,
    /// Times an input packet had to be split.
    pub splits: u64,
    /// Filler NOPs emitted.
    pub nops: u64,
    /// Instructions placed *without* full diversity because none was
    /// achievable (e.g., a single-instance FU class); counted so coverage
    /// loss is attributable.
    pub forced: u64,
}

/// The intended backend way of the occupant of `slot`, for checking
/// (under whole-packet co-issue, occupant of class `ty` at `slot` takes
/// the `i`-th instance of `ty` where `i` counts same-class occupants
/// below).
fn backend_index<T: ShuffleItem>(slots: &[Option<Slot<T>>], slot: usize, ty: FuType) -> usize {
    slots[..slot]
        .iter()
        .filter(|s| matches!(s, Some(x) if x.fu_type() == Some(ty)))
        .count()
}

/// Runs safe-shuffle on one input packet.
///
/// `width` is the machine width (output packets have at most `width`
/// slots); `counts` supplies FU instance counts so backend mappings stay
/// realizable.
///
/// # Panics
///
/// Panics if `width` is zero or the input packet is wider than `width`.
pub fn safe_shuffle<T: ShuffleItem>(
    input: Vec<T>,
    width: usize,
    counts: &FuCounts,
) -> ShuffleOutcome<T> {
    assert!(width > 0, "shuffle width must be positive");
    assert!(input.len() <= width, "input packet wider than the machine");

    let mut outcome = ShuffleOutcome { packets: Vec::new(), splits: 0, nops: 0, forced: 0 };
    let mut pending: std::collections::VecDeque<T> = input.into();

    while !pending.is_empty() {
        let mut slots: Vec<Option<Slot<T>>> = (0..width).map(|_| None).collect();
        let mut placed_any = false;

        'fill: while let Some(inst) = pending.pop_front() {
            let ty = inst.fu_type();
            for slot in 0..width {
                let be_idx = backend_index(&slots, slot, ty);
                match &slots[slot] {
                    Some(Slot::Inst(_)) => continue,
                    Some(Slot::Hole) => {
                        if be_idx >= counts.of(ty) {
                            // No instance left; no later slot can work.
                            break;
                        }
                        // Occupying a hole (with the instruction itself or
                        // a bump NOP) inserts same-class occupancy below
                        // anything already placed above, retroactively
                        // shifting its backend index — forbidden for the
                        // same reason the paper forbids replacing NOPs
                        // across classes.
                        let shifts_placed = slots[slot + 1..]
                            .iter()
                            .any(|x| matches!(x, Some(o) if o.fu_type() == Some(ty)));
                        if shifts_placed {
                            continue;
                        }
                        // Another instruction's frontend pass-over; free
                        // for us if acceptable.
                        if acceptable(&inst, slot, be_idx, counts) {
                            slots[slot] = Some(Slot::Inst(inst));
                            placed_any = true;
                            continue 'fill;
                        }
                        // Upgrade to a bump NOP on a backend conflict,
                        // when the bump can actually help.
                        if counts.global_way(ty, be_idx) == inst.lead_back_way()
                            && be_idx + 1 < counts.of(ty)
                        {
                            slots[slot] = Some(Slot::Nop(ty));
                            outcome.nops += 1;
                        }
                        continue;
                    }
                    Some(Slot::Nop(t)) => {
                        if *t == ty && acceptable(&inst, slot, be_idx, counts) {
                            // Claim the NOP (the Figure 2 swap). Same-class
                            // occupancy below is unchanged, so previously
                            // placed mappings stay valid.
                            outcome.nops -= 1;
                            slots[slot] = Some(Slot::Inst(inst));
                            placed_any = true;
                            continue 'fill;
                        }
                        continue;
                    }
                    None => {
                        if be_idx >= counts.of(ty) {
                            // No instance of this class left below the
                            // packet's co-issue capacity: no later slot can
                            // work either.
                            break;
                        }
                        if acceptable(&inst, slot, be_idx, counts) {
                            slots[slot] = Some(Slot::Inst(inst));
                            placed_any = true;
                            continue 'fill;
                        }
                        // Pass over. Only a *backend* conflict needs a
                        // planted own-class NOP: it bumps our next backend
                        // index past the leading copy's way (and enables
                        // the Figure 2 swap for a sibling) — useful only
                        // if another instance exists to be bumped onto. A
                        // frontend-only conflict (or a bump that cannot
                        // help) leaves a hole — frontend mapping is
                        // positional, so the slot costs nothing.
                        let backend_conflict = counts.global_way(ty, be_idx) == inst.lead_back_way();
                        if backend_conflict && be_idx + 1 < counts.of(ty) {
                            slots[slot] = Some(Slot::Nop(ty));
                            outcome.nops += 1;
                        } else {
                            slots[slot] = Some(Slot::Hole);
                        }
                        continue;
                    }
                }
            }
            // No slot found.
            if !placed_any {
                // Fresh packet and still unplaceable: diversity is
                // impossible (e.g., single-instance FU class). Force a
                // placement rather than loop forever: prefer a free slot
                // (empty or hole) with frontend diversity and backend
                // capacity, then any free slot with capacity, then slot 0.
                let free = |s: &Option<Slot<T>>| matches!(s, None | Some(Slot::Hole));
                let forced_slot = (0..width)
                    .find(|s| {
                        free(&slots[*s])
                            && *s != inst.lead_front_way()
                            && backend_index(&slots, *s, ty) < counts.of(ty)
                    })
                    .or_else(|| {
                        (0..width).find(|s| {
                            free(&slots[*s]) && backend_index(&slots, *s, ty) < counts.of(ty)
                        })
                    })
                    .unwrap_or(0);
                if matches!(slots[forced_slot], Some(Slot::Nop(_))) {
                    outcome.nops -= 1;
                }
                slots[forced_slot] = Some(Slot::Inst(inst));
                outcome.forced += 1;
                placed_any = true;
                continue 'fill;
            }
            // Split: close this packet, current instruction restarts.
            pending.push_front(inst);
            outcome.splits += 1;
            break 'fill;
        }

        // Trim trailing non-instruction slots: mappings only depend on
        // lower slots, so they serve no purpose.
        while matches!(
            slots.last(),
            Some(None) | Some(Some(Slot::Nop(_))) | Some(Some(Slot::Hole))
        ) {
            if let Some(Some(Slot::Nop(_))) = slots.last() {
                outcome.nops -= 1;
            }
            slots.pop();
        }
        // Interior never-touched slots are holes too.
        let packet: Vec<Slot<T>> = slots.into_iter().map(|s| s.unwrap_or(Slot::Hole)).collect();
        if !packet.is_empty() {
            outcome.packets.push(packet);
        }
    }
    outcome
}

fn acceptable<T: ShuffleItem>(inst: &T, slot: usize, be_idx: usize, counts: &FuCounts) -> bool {
    let ty = inst.fu_type();
    if be_idx >= counts.of(ty) {
        return false;
    }
    slot != inst.lead_front_way() && counts.global_way(ty, be_idx) != inst.lead_back_way()
}

/// Exhaustive safe-shuffle: searches slot assignments and bump-NOP
/// placements for a packet arrangement satisfying both §4.2.2 diversity
/// constraints with **no split and the fewest filler NOPs**, falling back
/// to splitting off a maximal placeable prefix when the whole packet
/// cannot be placed.
///
/// This implements the paper's §6.2 suggestion that "better shuffle
/// algorithms" could close the gap between BlackJack and the ideal 10%
/// slowdown: the greedy algorithm splits packets it cannot place
/// left-to-right, while the exhaustive search (cheap at width 4: at most
/// a few thousand candidate arrangements) only splits when no placement
/// exists at all. Select via `CoreConfig::shuffle_algo`.
pub fn exhaustive_shuffle<T: ShuffleItem + Clone>(
    input: Vec<T>,
    width: usize,
    counts: &FuCounts,
) -> ShuffleOutcome<T> {
    assert!(width > 0, "shuffle width must be positive");
    assert!(input.len() <= width, "input packet wider than the machine");

    let mut outcome = ShuffleOutcome { packets: Vec::new(), splits: 0, nops: 0, forced: 0 };
    let mut rest: Vec<T> = input;
    while !rest.is_empty() {
        // Try the longest placeable prefix.
        let mut placed = false;
        for take in (1..=rest.len()).rev() {
            if let Some((packet, nops)) = best_arrangement(&rest[..take], width, counts) {
                if take < rest.len() {
                    outcome.splits += 1;
                }
                outcome.nops += nops;
                outcome.packets.push(packet);
                rest.drain(..take);
                placed = true;
                break;
            }
        }
        if !placed {
            // Even a single instruction is unplaceable (single-instance FU
            // class): force it like the greedy does.
            let inst = rest.remove(0);
            let ty = inst.fu_type();
            let slot = (0..width)
                .find(|&s| s != inst.lead_front_way())
                .unwrap_or(0);
            let mut packet: Vec<Slot<T>> = (0..slot).map(|_| Slot::Hole).collect();
            packet.push(Slot::Inst(inst));
            let _ = ty;
            outcome.forced += 1;
            outcome.packets.push(packet);
        }
    }
    outcome
}

/// Finds the minimum-NOP single-packet arrangement of `insts`, if any.
fn best_arrangement<T: ShuffleItem + Clone>(
    insts: &[T],
    width: usize,
    counts: &FuCounts,
) -> Option<(Vec<Slot<T>>, u64)> {
    let n = insts.len();
    debug_assert!(n >= 1 && n <= width);
    // The FU classes eligible to appear as bump NOPs.
    let mut nop_types: Vec<FuType> = insts.iter().map(|i| i.fu_type()).collect();
    nop_types.sort_by_key(|t| t.index());
    nop_types.dedup();

    let mut best: Option<(Vec<Slot<T>>, u64)> = None;
    // Enumerate injective slot assignments (permutation of a subset).
    let mut perm: Vec<usize> = Vec::with_capacity(n);
    enumerate_assignments(insts, width, counts, &nop_types, &mut perm, &mut best);
    best
}

fn enumerate_assignments<T: ShuffleItem + Clone>(
    insts: &[T],
    width: usize,
    counts: &FuCounts,
    nop_types: &[FuType],
    perm: &mut Vec<usize>,
    best: &mut Option<(Vec<Slot<T>>, u64)>,
) {
    let n = insts.len();
    if perm.len() == n {
        try_nop_fillings(insts, perm, width, counts, nop_types, best);
        return;
    }
    let i = perm.len();
    for slot in 0..width {
        if perm.contains(&slot) || slot == insts[i].lead_front_way() {
            continue;
        }
        perm.push(slot);
        enumerate_assignments(insts, width, counts, nop_types, perm, best);
        perm.pop();
    }
}

/// For a fixed instruction→slot assignment, choose what each free slot
/// carries (hole or a bump NOP of an eligible class) to satisfy the
/// backend constraints with the fewest NOPs.
fn try_nop_fillings<T: ShuffleItem + Clone>(
    insts: &[T],
    perm: &[usize],
    width: usize,
    counts: &FuCounts,
    nop_types: &[FuType],
    best: &mut Option<(Vec<Slot<T>>, u64)>,
) {
    let free_slots: Vec<usize> = (0..width).filter(|s| !perm.contains(s)).collect();
    // Each free slot: 0 = hole, k = NOP of nop_types[k-1].
    let choices = nop_types.len() + 1;
    let combos = choices.pow(free_slots.len() as u32);
    'combo: for mut combo in 0..combos {
        let mut filling: Vec<Option<FuType>> = Vec::with_capacity(free_slots.len());
        let mut nops = 0u64;
        for _ in 0..free_slots.len() {
            let c = combo % choices;
            combo /= choices;
            if c == 0 {
                filling.push(None);
            } else {
                filling.push(Some(nop_types[c - 1]));
                nops += 1;
            }
        }
        if let Some((b_packet, b_nops)) = best {
            let _ = b_packet;
            if nops >= *b_nops {
                continue; // cannot improve
            }
        }
        // Build slot table and check constraints.
        let mut slots: Vec<Slot<&T>> = (0..width).map(|_| Slot::Hole).collect();
        for (i, &slot) in perm.iter().enumerate() {
            slots[slot] = Slot::Inst(&insts[i]);
        }
        for (k, &slot) in free_slots.iter().enumerate() {
            if let Some(t) = filling[k] {
                slots[slot] = Slot::Nop(t);
            }
        }
        // Verify backend diversity and capacity for every occupant.
        let mut per_class_seen = [0usize; 7];
        for slot_entry in slots.iter() {
            match slot_entry {
                Slot::Hole => {}
                Slot::Nop(t) => {
                    per_class_seen[t.index()] += 1;
                    if per_class_seen[t.index()] > counts.of(*t) {
                        continue 'combo;
                    }
                }
                Slot::Inst(i) => {
                    let ty = i.fu_type();
                    let idx = per_class_seen[ty.index()];
                    if idx >= counts.of(ty) {
                        continue 'combo;
                    }
                    if counts.global_way(ty, idx) == i.lead_back_way() {
                        continue 'combo;
                    }
                    per_class_seen[ty.index()] += 1;
                }
            }
        }
        // Valid: materialize (trim trailing non-instructions).
        let mut packet: Vec<Slot<T>> = slots
            .into_iter()
            .map(|s| match s {
                Slot::Hole => Slot::Hole,
                Slot::Nop(t) => Slot::Nop(t),
                Slot::Inst(i) => Slot::Inst(i.clone()),
            })
            .collect();
        let mut trimmed_nops = nops;
        while matches!(packet.last(), Some(Slot::Hole) | Some(Slot::Nop(_))) {
            if let Some(Slot::Nop(_)) = packet.last() {
                trimmed_nops -= 1;
            }
            packet.pop();
        }
        match best {
            Some((_, b)) if *b <= trimmed_nops => {}
            _ => *best = Some((packet, trimmed_nops)),
        }
    }
}

/// Pass-through "shuffle" used by BlackJack-NS: the packet keeps its DTQ
/// order, is never split, and no NOPs are inserted.
pub fn no_shuffle<T: ShuffleItem>(input: Vec<T>) -> ShuffleOutcome<T> {
    ShuffleOutcome {
        packets: vec![input.into_iter().map(Slot::Inst).collect::<Vec<_>>()]
            .into_iter()
            .filter(|p| !p.is_empty())
            .collect(),
        splits: 0,
        nops: 0,
        forced: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Item {
        ty: FuType,
        fe: usize,
        be: usize,
        tag: usize,
    }

    impl ShuffleItem for Item {
        fn fu_type(&self) -> FuType {
            self.ty
        }
        fn lead_front_way(&self) -> usize {
            self.fe
        }
        fn lead_back_way(&self) -> usize {
            self.be
        }
    }

    fn counts() -> FuCounts {
        FuCounts::default()
    }

    /// Checks the two §4.2.2 diversity constraints for every real
    /// instruction in every output packet.
    fn assert_diverse(out: &ShuffleOutcome<Item>) {
        let c = counts();
        for p in &out.packets {
            for (slot, s) in p.iter().enumerate() {
                if let Slot::Inst(i) = s {
                    assert_ne!(slot, i.fe, "frontend conflict for {i:?} at slot {slot}");
                    let be_idx = p[..slot].iter().filter(|x| x.fu_type() == Some(i.ty)).count();
                    let way = c.global_way(i.ty, be_idx);
                    assert_ne!(way, i.be, "backend conflict for {i:?} at slot {slot}");
                }
            }
        }
    }

    fn collect_tags(out: &ShuffleOutcome<Item>) -> Vec<usize> {
        let mut tags: Vec<usize> = out
            .packets
            .iter()
            .flatten()
            .filter_map(|s| match s {
                Slot::Inst(i) => Some(i.tag),
                Slot::Nop(_) | Slot::Hole => None,
            })
            .collect();
        tags.sort_unstable();
        tags
    }

    #[test]
    fn full_alu_packet_rotates() {
        // Four ALU ops that led on ways fe=0..3 / be=0..3.
        let input: Vec<Item> =
            (0..4).map(|i| Item { ty: FuType::IntAlu, fe: i, be: i, tag: i }).collect();
        let out = safe_shuffle(input, 4, &counts());
        assert_eq!(out.packets.len(), 1, "no split needed");
        assert_eq!(out.splits, 0);
        assert_diverse(&out);
        assert_eq!(collect_tags(&out), vec![0, 1, 2, 3]);
    }

    #[test]
    fn figure2_swap_of_like_instructions() {
        // Two same-class instructions whose leading ways force the swap
        // from Figure 2: A led at (fe 0, be alu0), B at (fe 1, be alu1).
        let a = Item { ty: FuType::IntAlu, fe: 0, be: 0, tag: 0 };
        let b = Item { ty: FuType::IntAlu, fe: 1, be: 1, tag: 1 };
        let out = safe_shuffle(vec![a, b], 4, &counts());
        assert_eq!(out.packets.len(), 1);
        assert_diverse(&out);
        // A cannot take slot 0 (frontend conflict) or slot 1 with be_idx
        // accounting; B claims the slot-0 NOP A planted, A lands above.
        let p = &out.packets[0];
        assert!(matches!(p[0], Slot::Inst(i) if i.tag == 1), "B claims slot 0: {p:?}");
        assert_eq!(collect_tags(&out), vec![0, 1]);
    }

    #[test]
    fn single_instruction_gets_nop_padding() {
        let a = Item { ty: FuType::IntAlu, fe: 0, be: 0, tag: 0 };
        let out = safe_shuffle(vec![a], 4, &counts());
        assert_eq!(out.packets.len(), 1);
        let p = &out.packets[0];
        // Slot 0 conflicts (fe=0); a NOP is planted there, A takes slot 1.
        assert!(p[0].is_nop());
        assert!(matches!(p[1], Slot::Inst(_)));
        assert_eq!(p.len(), 2, "trailing slots trimmed");
        assert_diverse(&out);
        assert!(out.nops >= 1);
    }

    #[test]
    fn fp_capacity_forces_split() {
        // Three FP-mul-class ops cannot co-issue on 2 FP multipliers...
        // but a leading packet can never contain three (it co-issued), so
        // emulate the pressure case: two FP muls whose leading ways are
        // (fe0,fpmul0) and (fe1,fpmul1) — they must swap, which works.
        let c = counts();
        let m0 = c.global_way(FuType::FpMul, 0);
        let m1 = c.global_way(FuType::FpMul, 1);
        let a = Item { ty: FuType::FpMul, fe: 0, be: m0, tag: 0 };
        let b = Item { ty: FuType::FpMul, fe: 1, be: m1, tag: 1 };
        let out = safe_shuffle(vec![a, b], 4, &c);
        assert_diverse(&out);
        assert_eq!(collect_tags(&out), vec![0, 1]);
    }

    #[test]
    fn mixed_packet_no_split() {
        let c = counts();
        let input = vec![
            Item { ty: FuType::IntAlu, fe: 0, be: 0, tag: 0 },
            Item { ty: FuType::MemPort, fe: 1, be: c.global_way(FuType::MemPort, 0), tag: 1 },
            Item { ty: FuType::IntMul, fe: 2, be: c.global_way(FuType::IntMul, 0), tag: 2 },
            Item { ty: FuType::IntAlu, fe: 3, be: 1, tag: 3 },
        ];
        let out = safe_shuffle(input, 4, &c);
        assert_diverse(&out);
        assert_eq!(collect_tags(&out), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_instance_class_forces_placement() {
        // With one mem port, a mem op can never be backend-diverse.
        let mut c = counts();
        c.mem_port = 1;
        let a = Item { ty: FuType::MemPort, fe: 0, be: c.global_way(FuType::MemPort, 0), tag: 0 };
        let out = safe_shuffle(vec![a], 4, &c);
        assert_eq!(out.forced, 1);
        assert_eq!(collect_tags(&out), vec![0]);
        // It still gets frontend diversity.
        let p = &out.packets[0];
        let slot = p.iter().position(|s| matches!(s, Slot::Inst(_))).unwrap();
        assert_ne!(slot, 0);
    }

    #[test]
    fn no_shuffle_passthrough() {
        let input: Vec<Item> =
            (0..3).map(|i| Item { ty: FuType::IntAlu, fe: i, be: i, tag: i }).collect();
        let out = no_shuffle(input.clone());
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.splits, 0);
        assert_eq!(out.nops, 0);
        let p = &out.packets[0];
        assert_eq!(p.len(), 3);
        for (i, s) in p.iter().enumerate() {
            assert!(matches!(s, Slot::Inst(x) if x.tag == i));
        }
    }

    #[test]
    fn all_instructions_preserved_across_many_shapes() {
        // Exhaustive-ish sweep: every 2-instruction combination of classes
        // and leading ways must preserve the instruction multiset and the
        // diversity constraints (unless forced).
        let c = counts();
        let classes = [FuType::IntAlu, FuType::IntMul, FuType::FpMul, FuType::MemPort];
        let mut cases = 0;
        for ta in classes {
            for tb in classes {
                for fea in 0..4 {
                    for feb in 0..4 {
                        let a = Item { ty: ta, fe: fea, be: c.global_way(ta, 0), tag: 0 };
                        let b = Item { ty: tb, fe: feb, be: c.global_way(tb, (c.of(tb) > 1) as usize), tag: 1 };
                        let out = safe_shuffle(vec![a, b], 4, &c);
                        assert_eq!(collect_tags(&out), vec![0, 1], "{ta} {tb} {fea} {feb}");
                        if out.forced == 0 {
                            assert_diverse(&out);
                        }
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 256);
    }

    #[test]
    fn hole_claim_never_shifts_placed_siblings() {
        // A leaves a hole at its frontend-conflict slot; B must not claim
        // or upgrade that hole if doing so would shift A's backend index.
        let c = counts();
        for a_fe in 0..4 {
            for a_be in 0..2 {
                for b_fe in 0..4 {
                    for b_be in 0..2 {
                        for c_fe in 0..4 {
                            let items = vec![
                                Item { ty: FuType::IntMul, fe: a_fe, be: c.global_way(FuType::IntMul, a_be), tag: 0 },
                                Item { ty: FuType::IntMul, fe: b_fe, be: c.global_way(FuType::IntMul, b_be), tag: 1 },
                                Item { ty: FuType::IntAlu, fe: c_fe, be: 0, tag: 2 },
                            ];
                            let out = safe_shuffle(items, 4, &c);
                            assert_eq!(collect_tags(&out), vec![0, 1, 2]);
                            if out.forced == 0 {
                                assert_diverse(&out);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nop_accounting_consistent() {
        let a = Item { ty: FuType::IntAlu, fe: 0, be: 0, tag: 0 };
        let out = safe_shuffle(vec![a], 4, &counts());
        let actual_nops: u64 =
            out.packets.iter().flatten().filter(|s| s.is_nop()).count() as u64;
        assert_eq!(out.nops, actual_nops);
    }
}
