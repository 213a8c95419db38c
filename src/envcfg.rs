//! Validated environment-variable configuration.
//!
//! The harnesses are steered by a handful of environment variables
//! (`BJ_THREADS`, `BJ_SCALE`, `BJ_PRUNE`, `BJ_TRACE`, `BJ_TRACE_DEPTH`,
//! `BJ_FUZZ_SEED`, `BJ_FUZZ_ITERS`, `BJ_CALL_DEPTH`, `BJ_METRICS`,
//! `BJ_PROGRESS_SECS`, `BJ_FAULT_KINDS`, `BJ_ECC`). Historically a
//! typo like
//! `BJ_THREADS=eight` or `BJ_SCALE=0` was silently swallowed (falling
//! back to a default) or surfaced as a panic deep inside a workload
//! builder. This module centralizes parsing: every variable is either
//! unset, valid, or a clear [`EnvError`] naming the variable and the
//! offending value.

use std::fmt;
use std::str::FromStr;

/// A malformed environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The value does not parse as a number of the expected type.
    NotANumber {
        /// Variable name.
        var: &'static str,
        /// The raw value found.
        value: String,
    },
    /// The value parsed but is zero where a positive number is required.
    Zero {
        /// Variable name.
        var: &'static str,
    },
    /// The value is not a recognized boolean flag.
    NotAFlag {
        /// Variable name.
        var: &'static str,
        /// The raw value found.
        value: String,
    },
    /// A path variable was set to an empty (or all-whitespace) value.
    EmptyPath {
        /// Variable name.
        var: &'static str,
    },
    /// A path variable points somewhere that cannot be opened for
    /// writing.
    Unwritable {
        /// Variable name.
        var: &'static str,
        /// The offending path.
        path: String,
        /// The OS error that rejected it.
        reason: String,
    },
    /// A fault-kind list entry is not part of the fault-universe grammar.
    UnknownKind {
        /// Variable name.
        var: &'static str,
        /// The offending entry (not the whole list).
        value: String,
    },
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::NotANumber { var, value } => {
                write!(f, "{var}={value:?} is not a valid positive integer")
            }
            EnvError::Zero { var } => {
                write!(f, "{var}=0 is invalid: the value must be at least 1")
            }
            EnvError::NotAFlag { var, value } => write!(
                f,
                "{var}={value:?} is not a valid flag (use 0/1, true/false, on/off)"
            ),
            EnvError::EmptyPath { var } => {
                write!(f, "{var} is set but empty: provide a writable file path or unset it")
            }
            EnvError::Unwritable { var, path, reason } => {
                write!(f, "{var}={path:?} is not writable: {reason}")
            }
            EnvError::UnknownKind { var, value } => write!(
                f,
                "{var}: {value:?} is not a fault kind (use hard, transient, or \
                 intermittent[:PERIOD:ON])"
            ),
        }
    }
}

impl std::error::Error for EnvError {}

/// Parses `raw` as a positive (non-zero) integer for variable `var`.
///
/// # Errors
///
/// [`EnvError::NotANumber`] when `raw` does not parse,
/// [`EnvError::Zero`] when it parses to zero.
pub fn parse_positive<T>(var: &'static str, raw: &str) -> Result<T, EnvError>
where
    T: FromStr + PartialEq + Default,
{
    let v: T = raw.trim().parse().map_err(|_| EnvError::NotANumber {
        var,
        value: raw.to_string(),
    })?;
    if v == T::default() {
        return Err(EnvError::Zero { var });
    }
    Ok(v)
}

/// Reads `var` from the environment as a positive integer.
///
/// Returns `Ok(None)` when the variable is unset or empty.
///
/// # Errors
///
/// Propagates [`parse_positive`]'s errors for set, non-empty values.
pub fn positive_from_env<T>(var: &'static str) -> Result<Option<T>, EnvError>
where
    T: FromStr + PartialEq + Default,
{
    match std::env::var(var) {
        Ok(raw) if !raw.trim().is_empty() => parse_positive(var, &raw).map(Some),
        _ => Ok(None),
    }
}

/// Parses `raw` as a `u64` seed, accepting decimal or `0x`-prefixed hex
/// (case-insensitive prefix and digits). Unlike [`parse_positive`], zero
/// is a valid seed.
///
/// # Errors
///
/// [`EnvError::NotANumber`] when `raw` parses as neither form.
pub fn parse_seed(var: &'static str, raw: &str) -> Result<u64, EnvError> {
    let s = raw.trim();
    let parsed = if let Some(hex) =
        s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| EnvError::NotANumber { var, value: raw.to_string() })
}

/// Reads `var` from the environment as a seed ([`parse_seed`] syntax).
///
/// Returns `Ok(None)` when the variable is unset or empty.
///
/// # Errors
///
/// Propagates [`parse_seed`]'s error for set, non-empty values.
pub fn seed_from_env(var: &'static str) -> Result<Option<u64>, EnvError> {
    match std::env::var(var) {
        Ok(raw) if !raw.trim().is_empty() => parse_seed(var, &raw).map(Some),
        _ => Ok(None),
    }
}

/// Parses `raw` as a boolean flag: `1`/`true`/`on`/`yes` or
/// `0`/`false`/`off`/`no` (case-insensitive).
///
/// # Errors
///
/// [`EnvError::NotAFlag`] for anything else.
pub fn parse_flag(var: &'static str, raw: &str) -> Result<bool, EnvError> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Ok(true),
        "0" | "false" | "off" | "no" => Ok(false),
        _ => Err(EnvError::NotAFlag { var, value: raw.to_string() }),
    }
}

/// Reads a boolean flag from the environment, with a default for the
/// unset/empty case.
///
/// # Errors
///
/// Propagates [`parse_flag`]'s error for set, non-empty values.
pub fn flag_from_env(var: &'static str, default: bool) -> Result<bool, EnvError> {
    match std::env::var(var) {
        Ok(raw) if !raw.trim().is_empty() => parse_flag(var, &raw),
        _ => Ok(default),
    }
}

/// Reads the `BJ_SNAPSHOT` flag: whether injection campaigns take the
/// fork path (default) — snapshot forks of the shared fault-free prefix,
/// with each run stopping the moment its verdict is decided — or the
/// reference replay, every run from cycle 0 to its natural end. The two
/// paths produce byte-identical reports; the flag exists so the fork path
/// can be checked against the reference.
///
/// # Errors
///
/// [`EnvError::NotAFlag`] for set, non-empty, non-flag values.
pub fn snapshot_from_env() -> Result<bool, EnvError> {
    flag_from_env("BJ_SNAPSHOT", true)
}

/// Reads `var` from the environment as a path that must be writable
/// (used by `BJ_TRACE`).
///
/// Returns `Ok(None)` when the variable is unset. A set-but-empty value
/// is rejected rather than treated as unset: an empty `BJ_TRACE` is
/// almost always a broken shell expansion, and silently dropping the
/// telemetry the user asked for is worse than stopping. Writability is
/// probed by opening the file in append mode (creating it if absent), so
/// a bad directory or permission surfaces here, before any simulation
/// work is done.
///
/// # Errors
///
/// [`EnvError::EmptyPath`] for set-but-empty values,
/// [`EnvError::Unwritable`] when the open probe fails.
pub fn writable_path_from_env(
    var: &'static str,
) -> Result<Option<std::path::PathBuf>, EnvError> {
    let Ok(raw) = std::env::var(var) else { return Ok(None) };
    if raw.trim().is_empty() {
        return Err(EnvError::EmptyPath { var });
    }
    let path = std::path::PathBuf::from(raw);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| EnvError::Unwritable {
            var,
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
    Ok(Some(path))
}

/// Default call depth for the fuzz generator's call trees: `main` plus
/// one level of helpers — deep enough to exercise call/return machinery
/// (RAS push/pop, return resolution) without dominating the program.
pub const DEFAULT_CALL_DEPTH: usize = 2;

/// Reads `BJ_CALL_DEPTH`: how many function levels the fuzz generator
/// emits (`1` = `main` only, no calls; [`DEFAULT_CALL_DEPTH`] when
/// unset). Zero is rejected — a program with no functions at all is not
/// generable — as are non-numeric values, matching the
/// `BJ_THREADS`/`BJ_SCALE` grammar.
///
/// # Errors
///
/// [`EnvError::NotANumber`] / [`EnvError::Zero`] per [`parse_positive`].
pub fn call_depth_from_env() -> Result<usize, EnvError> {
    Ok(positive_from_env::<usize>("BJ_CALL_DEPTH")?.unwrap_or(DEFAULT_CALL_DEPTH))
}

/// Reads the `BJ_METRICS` flag: whether campaigns record the typed
/// metrics registry (`metrics::MetricsRegistry`) while they run. Default
/// off — the registry is the observability layer's opt-in, and the
/// metrics-off path must stay the zero-overhead hot path.
///
/// # Errors
///
/// [`EnvError::NotAFlag`] for set, non-empty, non-flag values.
pub fn metrics_from_env() -> Result<bool, EnvError> {
    flag_from_env("BJ_METRICS", false)
}

/// Reads `BJ_PROGRESS_SECS`: the wall-clock cadence (seconds) of live
/// `progress` telemetry records during a campaign. `Ok(None)` when unset
/// (no progress streaming); zero is rejected — a zero cadence would emit
/// a record at every job boundary and swamp the stream — as are
/// non-numeric values, matching the `BJ_THREADS`/`BJ_SCALE` grammar.
///
/// # Errors
///
/// [`EnvError::NotANumber`] / [`EnvError::Zero`] per [`parse_positive`].
pub fn progress_secs_from_env() -> Result<Option<u64>, EnvError> {
    positive_from_env::<u64>("BJ_PROGRESS_SECS")
}

/// Default duty-cycle window for an `intermittent` fault kind given
/// without explicit parameters: broken for the first
/// [`DEFAULT_INTERMITTENT_ON`] cycles of every 64-cycle window —
/// bursty enough to dodge a single check yet dense enough that every
/// campaign workload crosses many active windows.
pub const DEFAULT_INTERMITTENT_PERIOD: u64 = 64;

/// Active cycles per default intermittent window.
pub const DEFAULT_INTERMITTENT_ON: u64 = 8;

/// Parses one fault-kind entry: `hard`, `transient`, `intermittent`
/// (default 8-of-64 duty cycle), or `intermittent:PERIOD:ON` with
/// `1 <= ON <= PERIOD`.
///
/// # Errors
///
/// [`EnvError::UnknownKind`] for anything else.
pub fn parse_fault_kind(
    var: &'static str,
    raw: &str,
) -> Result<crate::faults::FaultKind, EnvError> {
    use crate::faults::FaultKind;
    let bad = || EnvError::UnknownKind { var, value: raw.trim().to_string() };
    let parts: Vec<&str> = raw.trim().split(':').collect();
    match (parts[0], parts.len()) {
        ("hard", 1) => Ok(FaultKind::Hard),
        ("transient", 1) => Ok(FaultKind::Transient),
        ("intermittent", 1) => Ok(FaultKind::Intermittent {
            period: DEFAULT_INTERMITTENT_PERIOD,
            on: DEFAULT_INTERMITTENT_ON,
        }),
        ("intermittent", 3) => {
            let period: u64 = parts[1].parse().map_err(|_| bad())?;
            let on: u64 = parts[2].parse().map_err(|_| bad())?;
            if period >= 1 && (1..=period).contains(&on) {
                Ok(FaultKind::Intermittent { period, on })
            } else {
                Err(bad())
            }
        }
        _ => Err(bad()),
    }
}

/// Parses `raw` as a comma-separated fault-kind list (the `BJ_FAULT_KINDS`
/// grammar). Entries may repeat; an empty list is rejected.
///
/// # Errors
///
/// [`EnvError::UnknownKind`] naming the first bad entry.
pub fn parse_fault_kinds(
    var: &'static str,
    raw: &str,
) -> Result<Vec<crate::faults::FaultKind>, EnvError> {
    let kinds: Vec<_> = raw
        .split(',')
        .map(|e| parse_fault_kind(var, e))
        .collect::<Result<_, _>>()?;
    if kinds.is_empty() {
        return Err(EnvError::UnknownKind { var, value: raw.to_string() });
    }
    Ok(kinds)
}

/// Reads `BJ_FAULT_KINDS`: which temporal fault models the injection
/// campaigns sweep, as a comma-separated list (`hard`, `transient`,
/// `intermittent[:PERIOD:ON]`). Unset/empty defaults to `[hard]` — the
/// original wear-out campaign, whose report is the byte-stability
/// contract.
///
/// # Errors
///
/// [`EnvError::UnknownKind`] per [`parse_fault_kinds`].
pub fn fault_kinds_from_env() -> Result<Vec<crate::faults::FaultKind>, EnvError> {
    match std::env::var("BJ_FAULT_KINDS") {
        Ok(raw) if !raw.trim().is_empty() => parse_fault_kinds("BJ_FAULT_KINDS", &raw),
        _ => Ok(vec![crate::faults::FaultKind::Hard]),
    }
}

/// Reads the `BJ_ECC` flag: whether the LVQ payload RAM carries the
/// SEC-DED check-bit layer. Default off — the legacy hard-fault report
/// is byte-stable only on the unprotected datapath, and ECC is the
/// fault-universe extension's opt-in.
///
/// # Errors
///
/// [`EnvError::NotAFlag`] for set, non-empty, non-flag values.
pub fn ecc_from_env() -> Result<bool, EnvError> {
    flag_from_env("BJ_ECC", false)
}

/// Prints `err` to stderr (prefixed with the program's purpose) and
/// exits with status 2 — the shared failure path for harness binaries,
/// which have no caller to propagate to.
pub fn exit_invalid(err: &EnvError) -> ! {
    eprintln!("error: {err}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_accepts_normal_values() {
        assert_eq!(parse_positive::<usize>("BJ_THREADS", "8"), Ok(8));
        assert_eq!(parse_positive::<u32>("BJ_SCALE", " 3 "), Ok(3));
        assert_eq!(parse_positive::<u32>("BJ_SCALE", "1"), Ok(1));
    }

    #[test]
    fn zero_rejected_with_named_variable() {
        let err = parse_positive::<u32>("BJ_SCALE", "0").unwrap_err();
        assert_eq!(err, EnvError::Zero { var: "BJ_SCALE" });
        assert!(err.to_string().contains("BJ_SCALE=0"));
    }

    #[test]
    fn non_numeric_rejected_with_value_echoed() {
        for bad in ["eight", "-1", "3.5", "1e3", "0x10"] {
            let err = parse_positive::<usize>("BJ_THREADS", bad).unwrap_err();
            assert_eq!(
                err,
                EnvError::NotANumber { var: "BJ_THREADS", value: bad.to_string() },
                "{bad}"
            );
            assert!(err.to_string().contains(bad), "{bad}");
        }
    }

    #[test]
    fn seeds_accept_decimal_and_hex_including_zero() {
        assert_eq!(parse_seed("BJ_FUZZ_SEED", "12345"), Ok(12345));
        assert_eq!(parse_seed("BJ_FUZZ_SEED", "0"), Ok(0));
        assert_eq!(parse_seed("BJ_FUZZ_SEED", " 0xB1AC "), Ok(0xB1AC));
        assert_eq!(parse_seed("BJ_FUZZ_SEED", "0Xdead_beef".replace('_', "").as_str()), Ok(0xdead_beef));
        for bad in ["", "seed", "0x", "0xZZ", "-1", "1.5"] {
            let err = parse_seed("BJ_FUZZ_SEED", bad).unwrap_err();
            assert_eq!(
                err,
                EnvError::NotANumber { var: "BJ_FUZZ_SEED", value: bad.to_string() },
                "{bad:?}"
            );
        }
        assert_eq!(seed_from_env("BJ_ENVCFG_TEST_UNSET"), Ok(None));
    }

    #[test]
    fn flags_parse_both_polarities() {
        for yes in ["1", "true", "ON", "Yes"] {
            assert_eq!(parse_flag("BJ_PRUNE", yes), Ok(true), "{yes}");
        }
        for no in ["0", "false", "off", "NO"] {
            assert_eq!(parse_flag("BJ_PRUNE", no), Ok(false), "{no}");
        }
        assert_eq!(
            parse_flag("BJ_PRUNE", "maybe"),
            Err(EnvError::NotAFlag { var: "BJ_PRUNE", value: "maybe".to_string() })
        );
    }

    #[test]
    fn path_validation_rejects_unwritable_and_accepts_tempfile() {
        // Unset → None (a name no harness sets, to avoid env races).
        assert_eq!(writable_path_from_env("BJ_ENVCFG_TEST_UNSET"), Ok(None));

        // Unwritable: a path under a directory that does not exist.
        std::env::set_var("BJ_ENVCFG_TEST_BADPATH", "/nonexistent-dir-bj/trace.jsonl");
        let err = writable_path_from_env("BJ_ENVCFG_TEST_BADPATH").unwrap_err();
        match &err {
            EnvError::Unwritable { var, path, .. } => {
                assert_eq!(*var, "BJ_ENVCFG_TEST_BADPATH");
                assert!(path.contains("nonexistent-dir-bj"));
            }
            other => panic!("expected Unwritable, got {other:?}"),
        }
        assert!(err.to_string().contains("not writable"));
        std::env::remove_var("BJ_ENVCFG_TEST_BADPATH");

        // Writable: a file in the target dir.
        let ok = std::env::temp_dir().join("bj_envcfg_test_trace.jsonl");
        std::env::set_var("BJ_ENVCFG_TEST_GOODPATH", &ok);
        assert_eq!(
            writable_path_from_env("BJ_ENVCFG_TEST_GOODPATH"),
            Ok(Some(ok.clone()))
        );
        std::env::remove_var("BJ_ENVCFG_TEST_GOODPATH");
        let _ = std::fs::remove_file(ok);
    }

    #[test]
    fn empty_path_is_an_error_not_unset() {
        std::env::set_var("BJ_ENVCFG_TEST_EMPTYPATH", "  ");
        let err = writable_path_from_env("BJ_ENVCFG_TEST_EMPTYPATH").unwrap_err();
        assert_eq!(err, EnvError::EmptyPath { var: "BJ_ENVCFG_TEST_EMPTYPATH" });
        assert!(err.to_string().contains("set but empty"));
        std::env::remove_var("BJ_ENVCFG_TEST_EMPTYPATH");
    }

    #[test]
    fn unset_variables_are_none_or_default() {
        // A variable name no test or harness ever sets.
        assert_eq!(positive_from_env::<u32>("BJ_ENVCFG_TEST_UNSET"), Ok(None));
        assert_eq!(flag_from_env("BJ_ENVCFG_TEST_UNSET", true), Ok(true));
        assert_eq!(flag_from_env("BJ_ENVCFG_TEST_UNSET", false), Ok(false));
    }

    #[test]
    fn snapshot_flag_accepts_and_rejects_like_prune() {
        // BJ_SNAPSHOT goes through the same flag grammar as BJ_PRUNE.
        assert_eq!(parse_flag("BJ_SNAPSHOT", "1"), Ok(true));
        assert_eq!(parse_flag("BJ_SNAPSHOT", "0"), Ok(false));
        let err = parse_flag("BJ_SNAPSHOT", "fork").unwrap_err();
        assert_eq!(err, EnvError::NotAFlag { var: "BJ_SNAPSHOT", value: "fork".to_string() });
        assert!(err.to_string().contains("BJ_SNAPSHOT"));
        // Unset defaults to on (the optimized path); the harness-facing
        // wrapper only consults the real variable, so it can only be
        // exercised here when the suite's environment leaves it unset.
        if std::env::var("BJ_SNAPSHOT").is_err() {
            assert_eq!(snapshot_from_env(), Ok(true));
        }
    }

    #[test]
    fn call_depth_rejects_zero_and_defaults_when_unset() {
        assert_eq!(parse_positive::<usize>("BJ_CALL_DEPTH", "3"), Ok(3));
        assert_eq!(parse_positive::<usize>("BJ_CALL_DEPTH", "1"), Ok(1));
        assert_eq!(
            parse_positive::<usize>("BJ_CALL_DEPTH", "0"),
            Err(EnvError::Zero { var: "BJ_CALL_DEPTH" })
        );
        assert_eq!(
            parse_positive::<usize>("BJ_CALL_DEPTH", "deep"),
            Err(EnvError::NotANumber { var: "BJ_CALL_DEPTH", value: "deep".to_string() })
        );
        if std::env::var("BJ_CALL_DEPTH").is_err() {
            assert_eq!(call_depth_from_env(), Ok(DEFAULT_CALL_DEPTH));
        }
    }

    #[test]
    fn metrics_flag_accepts_and_rejects_like_prune() {
        assert_eq!(parse_flag("BJ_METRICS", "1"), Ok(true));
        assert_eq!(parse_flag("BJ_METRICS", "off"), Ok(false));
        let err = parse_flag("BJ_METRICS", "all").unwrap_err();
        assert_eq!(err, EnvError::NotAFlag { var: "BJ_METRICS", value: "all".to_string() });
        assert!(err.to_string().contains("BJ_METRICS"));
        // Unset defaults to off: metrics are opt-in.
        if std::env::var("BJ_METRICS").is_err() {
            assert_eq!(metrics_from_env(), Ok(false));
        }
    }

    #[test]
    fn progress_secs_rejects_zero_and_non_numeric_like_threads() {
        assert_eq!(parse_positive::<u64>("BJ_PROGRESS_SECS", "5"), Ok(5));
        assert_eq!(parse_positive::<u64>("BJ_PROGRESS_SECS", " 1 "), Ok(1));
        assert_eq!(
            parse_positive::<u64>("BJ_PROGRESS_SECS", "0"),
            Err(EnvError::Zero { var: "BJ_PROGRESS_SECS" })
        );
        for bad in ["soon", "-1", "2.5"] {
            assert_eq!(
                parse_positive::<u64>("BJ_PROGRESS_SECS", bad),
                Err(EnvError::NotANumber { var: "BJ_PROGRESS_SECS", value: bad.to_string() }),
                "{bad}"
            );
        }
        if std::env::var("BJ_PROGRESS_SECS").is_err() {
            assert_eq!(progress_secs_from_env(), Ok(None));
        }
    }

    #[test]
    fn fault_kinds_parse_the_universe() {
        use crate::faults::FaultKind;
        assert_eq!(parse_fault_kinds("BJ_FAULT_KINDS", "hard"), Ok(vec![FaultKind::Hard]));
        assert_eq!(
            parse_fault_kinds("BJ_FAULT_KINDS", "hard,transient,intermittent"),
            Ok(vec![
                FaultKind::Hard,
                FaultKind::Transient,
                FaultKind::Intermittent {
                    period: DEFAULT_INTERMITTENT_PERIOD,
                    on: DEFAULT_INTERMITTENT_ON,
                },
            ])
        );
        assert_eq!(
            parse_fault_kinds("BJ_FAULT_KINDS", " transient , intermittent:100:25 "),
            Ok(vec![FaultKind::Transient, FaultKind::Intermittent { period: 100, on: 25 }])
        );
        if std::env::var("BJ_FAULT_KINDS").is_err() {
            assert_eq!(fault_kinds_from_env(), Ok(vec![FaultKind::Hard]));
        }
    }

    #[test]
    fn fault_kinds_reject_malformed_entries() {
        for bad in [
            "soft",
            "",
            "hard,,transient",
            "intermittent:0:0",
            "intermittent:8:9",
            "intermittent:8",
            "intermittent:8:2:1",
            "transient:5",
            "HARD",
        ] {
            let err = parse_fault_kinds("BJ_FAULT_KINDS", bad).unwrap_err();
            assert!(
                matches!(err, EnvError::UnknownKind { var: "BJ_FAULT_KINDS", .. }),
                "{bad:?} gave {err:?}"
            );
            assert!(err.to_string().contains("BJ_FAULT_KINDS"), "{bad:?}");
        }
        // The error names the offending entry, not the whole list.
        let err = parse_fault_kinds("BJ_FAULT_KINDS", "hard,soft").unwrap_err();
        assert_eq!(
            err,
            EnvError::UnknownKind { var: "BJ_FAULT_KINDS", value: "soft".to_string() }
        );
    }

    #[test]
    fn ecc_flag_accepts_and_rejects_like_prune() {
        assert_eq!(parse_flag("BJ_ECC", "1"), Ok(true));
        assert_eq!(parse_flag("BJ_ECC", "off"), Ok(false));
        let err = parse_flag("BJ_ECC", "secded").unwrap_err();
        assert_eq!(err, EnvError::NotAFlag { var: "BJ_ECC", value: "secded".to_string() });
        // Unset defaults to off: the unprotected datapath is the
        // byte-stable legacy configuration.
        if std::env::var("BJ_ECC").is_err() {
            assert_eq!(ecc_from_env(), Ok(false));
        }
    }
}
