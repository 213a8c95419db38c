//! Replayable corpus cases: a tiny text format (`.bjcase`) holding one
//! program image, an optional fault, and the reason the case was kept.
//!
//! The format is line-oriented and diff-friendly so cases live well in
//! git:
//!
//! ```text
//! # optional comments
//! name frontend-stuck-17
//! kind interesting
//! seed 0xb1ac
//! text_base 0x10000
//! data_base 0x100000
//! fault frontend:2:17
//! text
//! 0001a0b7
//! ...
//! data
//! 00ff3a...        (hex, up to 32 bytes per line)
//! end
//! ```
//!
//! `entry` is implied (`text_base`); `fault` is `SITE:WAY[:BIT]`, read by
//! the same parser as `bjsim --fault` ([`parse_fault`]: `frontend`,
//! `backend`, `payload`, `cachedata`, `cachetag`, `sbuf`, `dtq`, `lvq`;
//! `BIT` in `0..64`). Three
//! optional headers extend a fault across the temporal and ECC
//! dimensions, each omitted when at its default so pre-existing cases
//! stay byte-identical:
//!
//! * `temporal hard:ARM` / `transient:ARM` / `intermittent:ARM:PERIOD:ON`
//!   — the fault's [`FaultKind`] and arming cycle (default `hard:0`).
//! * `ecc 1` — replay with the LVQ SEC-DED layer on (default off).
//! * `expect CE|DUE|SDC|benign` — the [`Taxonomy`] verdict the replay
//!   test asserts (default: no assertion).
//!
//! Loading rebuilds the exact program via
//! [`ProgramBuilder::push_raw`], so a case replays bit-for-bit with no
//! assembler in the loop.

use std::fmt::Write as _;
use std::path::Path;

use blackjack_faults::{parse_fault, FaultKind, FaultPlan, HardFault, Taxonomy};
use blackjack_isa::{Program, ProgramBuilder};

/// Why a case is in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// A (minimized) differential or soundness failure.
    Failure,
    /// A generator find with unusual microarchitectural behavior
    /// (deep queue occupancy, extreme slack excursion).
    Interesting,
}

impl CaseKind {
    fn as_str(self) -> &'static str {
        match self {
            CaseKind::Failure => "failure",
            CaseKind::Interesting => "interesting",
        }
    }

    fn parse(s: &str) -> Option<CaseKind> {
        match s {
            "failure" => Some(CaseKind::Failure),
            "interesting" => Some(CaseKind::Interesting),
            _ => None,
        }
    }
}

/// One corpus case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Case name (also the suggested file stem).
    pub name: String,
    /// Why it was kept.
    pub kind: CaseKind,
    /// The generator seed it came from, if any.
    pub seed: Option<u64>,
    /// The program image.
    pub program: Program,
    /// A fault to inject on replay, if the case is about injection.
    pub fault: Option<HardFault>,
    /// The fault's temporal model (plan-level).
    pub temporal: FaultKind,
    /// The fault's arming cycle.
    pub arm: u64,
    /// Replay with the LVQ SEC-DED layer on.
    pub ecc: bool,
    /// Taxonomy verdict the replay must reproduce, if pinned.
    pub expect: Option<Taxonomy>,
}

impl Case {
    /// A case with the default fault dimensions: hard fault armed at
    /// cycle 0, ECC off, no pinned verdict.
    pub fn new(
        name: String,
        kind: CaseKind,
        seed: Option<u64>,
        program: Program,
        fault: Option<HardFault>,
    ) -> Case {
        Case {
            name,
            kind,
            seed,
            program,
            fault,
            temporal: FaultKind::Hard,
            arm: 0,
            ecc: false,
            expect: None,
        }
    }

    /// The injection plan the case describes, if it carries a fault.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.fault
            .map(|f| FaultPlan::single(f).arm_at(self.arm).with_kind(self.temporal))
    }
    /// Serializes the case to `.bjcase` text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# bj-fuzz corpus case (replay: cargo test -p blackjack-fuzz)");
        let _ = writeln!(out, "name {}", self.name);
        let _ = writeln!(out, "kind {}", self.kind.as_str());
        if let Some(seed) = self.seed {
            let _ = writeln!(out, "seed {seed:#x}");
        }
        let _ = writeln!(out, "text_base {:#x}", self.program.text_base());
        let _ = writeln!(out, "data_base {:#x}", self.program.data_base());
        if let Some(f) = self.fault {
            let bit = match f.corruption {
                blackjack_faults::Corruption::StuckAt { bit, .. } => bit,
                blackjack_faults::Corruption::FlipBit { bit } => bit,
                blackjack_faults::Corruption::XorMask { .. } => 0,
            };
            let _ = writeln!(out, "fault {}:{}:{bit}", f.site.family(), f.site.index());
        }
        // The fault-dimension headers are omitted at their defaults so
        // cases minted before these dimensions existed re-serialize
        // byte-identically.
        match self.temporal {
            FaultKind::Hard if self.arm == 0 => {}
            FaultKind::Hard => {
                let _ = writeln!(out, "temporal hard:{}", self.arm);
            }
            FaultKind::Transient => {
                let _ = writeln!(out, "temporal transient:{}", self.arm);
            }
            FaultKind::Intermittent { period, on } => {
                let _ = writeln!(out, "temporal intermittent:{}:{period}:{on}", self.arm);
            }
        }
        if self.ecc {
            let _ = writeln!(out, "ecc 1");
        }
        if let Some(t) = self.expect {
            let _ = writeln!(out, "expect {}", t.name());
        }
        let _ = writeln!(out, "text");
        for w in self.program.text() {
            let _ = writeln!(out, "{w:08x}");
        }
        if !self.program.data().is_empty() {
            let _ = writeln!(out, "data");
            for chunk in self.program.data().chunks(32) {
                for b in chunk {
                    let _ = write!(out, "{b:02x}");
                }
                let _ = writeln!(out);
            }
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Parses a `.bjcase` text back into a case.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on any malformed line.
    pub fn from_text(text: &str) -> Result<Case, String> {
        let mut name = String::new();
        let mut kind = CaseKind::Failure;
        let mut seed = None;
        let mut text_base = blackjack_isa::TEXT_BASE;
        let mut data_base = blackjack_isa::DATA_BASE;
        let mut fault = None;
        let mut temporal = FaultKind::Hard;
        let mut arm = 0u64;
        let mut ecc = false;
        let mut expect = None;
        let mut words: Vec<u32> = Vec::new();
        let mut data: Vec<u8> = Vec::new();

        #[derive(PartialEq)]
        enum Section {
            Header,
            Text,
            Data,
            Done,
        }
        let mut section = Section::Header;

        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| Err(format!("line {}: {m}: `{line}`", ln + 1));
            match section {
                Section::Header => {
                    let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
                    match key {
                        "name" => name = rest.trim().to_string(),
                        "kind" => {
                            kind = match CaseKind::parse(rest.trim()) {
                                Some(k) => k,
                                None => return err("unknown kind"),
                            }
                        }
                        "seed" => match parse_u64(rest.trim()) {
                            Some(v) => seed = Some(v),
                            None => return err("bad seed"),
                        },
                        "text_base" => match parse_u64(rest.trim()) {
                            Some(v) => text_base = v,
                            None => return err("bad text_base"),
                        },
                        "data_base" => match parse_u64(rest.trim()) {
                            Some(v) => data_base = v,
                            None => return err("bad data_base"),
                        },
                        "fault" => match parse_fault(rest.trim()) {
                            Ok(f) => fault = Some(f),
                            Err(e) => return err(&e),
                        },
                        "temporal" => match parse_temporal(rest.trim()) {
                            Some((k, a)) => {
                                temporal = k;
                                arm = a;
                            }
                            None => return err("bad temporal spec"),
                        },
                        "ecc" => match rest.trim() {
                            "1" => ecc = true,
                            "0" => ecc = false,
                            _ => return err("bad ecc flag"),
                        },
                        "expect" => match parse_taxonomy(rest.trim()) {
                            Some(t) => expect = Some(t),
                            None => return err("bad expect verdict"),
                        },
                        "text" => section = Section::Text,
                        _ => return err("unknown header key"),
                    }
                }
                Section::Text => match line {
                    "data" => section = Section::Data,
                    "end" => section = Section::Done,
                    hex if hex.len() == 8 && is_hex(hex) => {
                        words.push(u32::from_str_radix(hex, 16).expect("eight hex digits"));
                    }
                    _ => return err("bad text word"),
                },
                Section::Data => match line {
                    "end" => section = Section::Done,
                    hex if hex.len() % 2 == 0 && is_hex(hex) => {
                        for i in (0..hex.len()).step_by(2) {
                            data.push(u8::from_str_radix(&hex[i..i + 2], 16).expect("two hex digits"));
                        }
                    }
                    _ => return err("bad data line"),
                },
                Section::Done => return err("content after `end`"),
            }
        }
        if section != Section::Done {
            return Err("missing `end`".into());
        }
        if words.is_empty() {
            return Err("empty text section".into());
        }

        let mut b = ProgramBuilder::new(if name.is_empty() { "corpus-case" } else { &name });
        b.text_base(text_base).data_base(data_base);
        b.push_data(&data);
        for w in words {
            b.push_raw(w);
        }
        Ok(Case { name, kind, seed, program: b.build(), fault, temporal, arm, ecc, expect })
    }

    /// Writes the case to `dir/<name>.bjcase`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors as strings.
    pub fn save(&self, dir: &Path) -> Result<std::path::PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.bjcase", self.name));
        std::fs::write(&path, self.to_text()).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Loads a case from a file.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse error as a string.
    pub fn load(path: &Path) -> Result<Case, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Case::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// True when `s` is made of ASCII hex digits only: `from_str_radix`
/// alone would accept a leading sign, and byte slicing needs ASCII.
fn is_hex(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii_hexdigit())
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parses `KIND:ARM[:PERIOD:ON]` — `hard:200`, `transient:450`,
/// `intermittent:300:64:8`.
fn parse_temporal(s: &str) -> Option<(FaultKind, u64)> {
    let parts: Vec<&str> = s.split(':').collect();
    let arm: u64 = parts.get(1)?.parse().ok()?;
    match (parts[0], parts.len()) {
        ("hard", 2) => Some((FaultKind::Hard, arm)),
        ("transient", 2) => Some((FaultKind::Transient, arm)),
        ("intermittent", 4) => {
            let period: u64 = parts[2].parse().ok()?;
            let on: u64 = parts[3].parse().ok()?;
            (period >= 1 && (1..=period).contains(&on))
                .then_some((FaultKind::Intermittent { period, on }, arm))
        }
        _ => None,
    }
}

fn parse_taxonomy(s: &str) -> Option<Taxonomy> {
    match s {
        "CE" => Some(Taxonomy::Ce),
        "DUE" => Some(Taxonomy::Due),
        "SDC" => Some(Taxonomy::Sdc),
        "benign" => Some(Taxonomy::Benign),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use blackjack_faults::FaultSite;

    #[test]
    fn round_trips_a_generated_program() {
        let prog = generate(42, GenConfig { segments: 4, ..GenConfig::default() });
        let case = Case::new(
            "rt".into(),
            CaseKind::Interesting,
            Some(42),
            prog.clone(),
            Some(HardFault::stuck_bit(FaultSite::Frontend { way: 1 }, 9)),
        );
        let text = case.to_text();
        let back = Case::from_text(&text).unwrap();
        assert_eq!(back.name, "rt");
        assert_eq!(back.kind, CaseKind::Interesting);
        assert_eq!(back.seed, Some(42));
        assert_eq!(back.program.text(), prog.text());
        assert_eq!(back.program.data(), prog.data());
        assert_eq!(back.program.text_base(), prog.text_base());
        assert_eq!(back.program.data_base(), prog.data_base());
        assert_eq!(back.program.entry(), prog.entry());
        assert_eq!(back.fault, case.fault);
        // Serialization is stable: a second trip is byte-identical.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn default_fault_dimensions_write_no_headers() {
        let prog = generate(42, GenConfig { segments: 4, ..GenConfig::default() });
        let case = Case::new(
            "legacy".into(),
            CaseKind::Failure,
            None,
            prog,
            Some(HardFault::stuck_bit(FaultSite::Backend { way: 2 }, 5)),
        );
        let text = case.to_text();
        for header in ["temporal", "ecc", "expect"] {
            assert!(
                !text.lines().any(|l| l.starts_with(header)),
                "default-dimension case grew a `{header}` header"
            );
        }
    }

    #[test]
    fn round_trips_fault_universe_dimensions() {
        let prog = generate(43, GenConfig { segments: 4, ..GenConfig::default() });
        for (site, temporal, arm, ecc, expect) in [
            (
                FaultSite::LvqPayload { entry: 3 },
                FaultKind::Hard,
                120,
                true,
                Some(Taxonomy::Ce),
            ),
            (
                FaultSite::CacheData { index: 0 },
                FaultKind::Transient,
                77,
                false,
                Some(Taxonomy::Sdc),
            ),
            (
                FaultSite::StoreBuffer { entry: 1 },
                FaultKind::Intermittent { period: 64, on: 8 },
                300,
                false,
                Some(Taxonomy::Due),
            ),
            (FaultSite::DtqPayload { entry: 5 }, FaultKind::Hard, 0, false, None),
            (
                FaultSite::CacheTag { index: 9 },
                FaultKind::Transient,
                1,
                false,
                Some(Taxonomy::Benign),
            ),
        ] {
            let mut case = Case::new(
                "dims".into(),
                CaseKind::Interesting,
                None,
                prog.clone(),
                Some(HardFault::stuck_bit(site, 2)),
            );
            case.temporal = temporal;
            case.arm = arm;
            case.ecc = ecc;
            case.expect = expect;
            let text = case.to_text();
            let back = Case::from_text(&text).unwrap_or_else(|e| panic!("{site:?}: {e}"));
            assert_eq!(back.fault, case.fault, "{site:?}");
            assert_eq!(back.temporal, temporal, "{site:?}");
            assert_eq!(back.arm, arm, "{site:?}");
            assert_eq!(back.ecc, ecc, "{site:?}");
            assert_eq!(back.expect, expect, "{site:?}");
            assert_eq!(back.to_text(), text, "{site:?} second trip not byte-stable");
            let plan = back.plan().expect("case carries a fault");
            assert_eq!(plan.kind(), temporal, "{site:?}");
            assert_eq!(plan.arm_cycle(), arm, "{site:?}");
        }
    }

    #[test]
    fn rejects_malformed_cases() {
        assert!(Case::from_text("").is_err());
        assert!(Case::from_text("name x\ntext\nzzzzzzzz\nend\n").is_err());
        assert!(Case::from_text("name x\ntext\n00000013\n").is_err(), "missing end");
        assert!(Case::from_text("bogus line\ntext\n00000013\nend\n").is_err());
        for bad in [
            "temporal sometimes:3\ntext\n00000013",
            "temporal intermittent:1:0:0\ntext\n00000013",
            "temporal intermittent:1:4:9\ntext\n00000013",
            "temporal transient\ntext\n00000013",
            "ecc maybe\ntext\n00000013",
            "expect corrected\ntext\n00000013",
            "fault lvq\ntext\n00000013",
            "fault tlb:0:1\ntext\n00000013",
            "fault backend:4:64\ntext\n00000013",
            "fault backend:4:200\ntext\n00000013",
            // Signed and non-ASCII hex must be rejected, not parsed or
            // sliced mid-character.
            "text\n+7000000",
            "text\n00000013\ndata\na\u{e9}0",
        ] {
            let text = format!("name x\n{bad}\nend\n");
            assert!(Case::from_text(&text).is_err(), "`{bad}` should be rejected");
        }
    }
}
