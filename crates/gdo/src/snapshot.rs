//! Crash-safe run snapshots: a versioned, self-describing, checksummed
//! serialization of everything a [`Pipeline`](crate::Pipeline) run needs
//! to continue after exhaustion, cancellation, or a crash.
//!
//! # Determinism contract
//!
//! A snapshot is captured at an *engine-iteration boundary* — the top of
//! a [`GdoEngine`](crate::GdoEngine) outer round or a
//! [`ResubEngine`](crate::ResubEngine) round — where the state that
//! drives every future decision is exactly: the netlist (in raw form,
//! including dead slots, fanout order and the free-slot stack), the RNG
//! seed cursor, the SAT refutation cache, the quarantine set, the
//! accumulated statistics, and the pipeline position. Work done *after*
//! the captured boundary is deliberately discarded: a resumed run redoes
//! the interrupted round from the boundary, and because every engine
//! round is a pure function of that state, the redo replays the same
//! decisions. Splitting a run across any number of suspend/resume cycles
//! therefore produces a byte-identical final netlist to an uninterrupted
//! run.
//!
//! # File format
//!
//! Line-based text, written atomically (temp file + rename):
//!
//! ```text
//! gdo-snapshot v1
//! checksum <fnv1a64 of every following byte, 16 hex digits>
//! kind <run|partition>
//! <kind-specific payload lines>
//! ```
//!
//! Strings are `%XX`-escaped, floats stored as IEEE-754 bit patterns —
//! the codec never goes through a decimal round trip. A truncated file
//! fails the checksum; an unknown version line is reported as
//! [`SnapshotError::VersionSkew`]; both reject cleanly so recovery can
//! fall back to re-running from scratch.

use crate::budget::Budget;
use crate::engine::{EngineId, OptimizeRequest};
use crate::optimizer::GdoStats;
use crate::rewrite::{Gate3, Rewrite, RewriteKind};
use crate::site::{SigLit, Site};
use netlist::{Branch, GateKind, Netlist, RawCell, RawFanout, RawNetlist, SignalId};
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic first line of every snapshot file.
pub const MAGIC: &str = "gdo-snapshot v1";
/// Snapshot kind written by the whole-netlist pipeline.
pub const KIND_RUN: &str = "run";
/// Snapshot kind written by the partitioned driver.
pub const KIND_PARTITION: &str = "partition";

/// Why a snapshot could not be written or restored.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Filesystem failure reading or writing the snapshot.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file ends before the header or a declared section is complete.
    Truncated(String),
    /// The payload does not hash to the checksum in the header — a
    /// partial write or on-disk corruption.
    BadChecksum {
        /// Checksum declared in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        found: u64,
    },
    /// The file carries a different format version (or is not a snapshot
    /// at all).
    VersionSkew {
        /// The first line found in place of the magic.
        found: String,
    },
    /// A structurally invalid payload (bad field, bad index, wrong kind).
    Malformed(String),
    /// The snapshot is internally valid but does not belong to this run:
    /// config digest, input digest, or timing cross-check disagree.
    Mismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot io error on {}: {source}", path.display())
            }
            SnapshotError::Truncated(what) => write!(f, "truncated snapshot: {what}"),
            SnapshotError::BadChecksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:016x}, payload hashes to {found:016x}"
            ),
            SnapshotError::VersionSkew { found } => write!(
                f,
                "snapshot version skew: expected {MAGIC:?}, found {found:?}"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Mismatch(what) => write!(f, "snapshot does not match this run: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit hash — the snapshot checksum and digest primitive.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escapes a string for single-token storage: `%`, whitespace, control
/// and non-ASCII bytes become `%XX`; printable ASCII passes through.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        if b <= 0x20 || b == b'%' || b >= 0x7f {
            out.push('%');
            out.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
            out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap());
        } else {
            out.push(b as char);
        }
    }
    out
}

/// Reverses [`escape`].
///
/// # Errors
///
/// [`SnapshotError::Malformed`] on a dangling or non-hex `%XX` sequence,
/// or when the unescaped bytes are not UTF-8.
pub fn unescape(s: &str) -> Result<String, SnapshotError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| SnapshotError::Malformed(format!("bad escape in {s:?}")))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out)
        .map_err(|_| SnapshotError::Malformed(format!("escaped string {s:?} is not UTF-8")))
}

/// Writes `kind` + `payload` to `path` atomically: the full header and
/// body go to a sibling temp file which is then renamed over `path`, so
/// a reader (or a crash) never observes a half-written snapshot under
/// the final name. Reports `snapshot.written` / `snapshot.bytes`.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the temp file cannot be written or the
/// rename fails.
pub fn write_atomic(path: &Path, kind: &str, payload: &str) -> Result<(), SnapshotError> {
    let body = format!("kind {kind}\n{payload}");
    let text = format!(
        "{MAGIC}\nchecksum {:016x}\n{body}",
        fnv1a64(body.as_bytes())
    );
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let io = |source| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    };
    std::fs::write(&tmp, &text).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)?;
    telemetry::counter_add("snapshot.written", 1);
    telemetry::counter_add("snapshot.bytes", text.len() as u64);
    Ok(())
}

/// Reads a snapshot file, verifying magic and checksum, and returns
/// `(kind, payload)` without interpreting the payload.
///
/// # Errors
///
/// [`SnapshotError::Io`] / [`VersionSkew`](SnapshotError::VersionSkew) /
/// [`Truncated`](SnapshotError::Truncated) /
/// [`BadChecksum`](SnapshotError::BadChecksum) /
/// [`Malformed`](SnapshotError::Malformed) as described on the variants.
pub fn read_payload(path: &Path) -> Result<(String, String), SnapshotError> {
    let text = std::fs::read_to_string(path).map_err(|source| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let (magic, rest) = text
        .split_once('\n')
        .ok_or_else(|| SnapshotError::Truncated("missing header".into()))?;
    if magic != MAGIC {
        return Err(SnapshotError::VersionSkew {
            found: magic.to_string(),
        });
    }
    let (checksum_line, body) = rest
        .split_once('\n')
        .ok_or_else(|| SnapshotError::Truncated("missing checksum line".into()))?;
    let expected = checksum_line
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| SnapshotError::Malformed(format!("bad checksum line {checksum_line:?}")))?;
    let found = fnv1a64(body.as_bytes());
    if found != expected {
        return Err(SnapshotError::BadChecksum { expected, found });
    }
    let (kind_line, payload) = body
        .split_once('\n')
        .ok_or_else(|| SnapshotError::Truncated("missing kind line".into()))?;
    let kind = kind_line
        .strip_prefix("kind ")
        .ok_or_else(|| SnapshotError::Malformed(format!("bad kind line {kind_line:?}")))?;
    Ok((kind.to_string(), payload.to_string()))
}

/// Reads only the budget remainders from a snapshot of either kind —
/// what a resuming caller needs to rebase a fresh [`Budget`] *before*
/// deciding how to run the job. Returns
/// `(time_remaining_ms, work_remaining)`.
///
/// # Errors
///
/// Any [`read_payload`] error, or [`SnapshotError::Malformed`] when the
/// remainder lines are missing.
pub fn peek_remainders(path: &Path) -> Result<(Option<u64>, Option<u64>), SnapshotError> {
    let (_, payload) = read_payload(path)?;
    let mut time = None;
    let mut work = None;
    let mut seen = 0;
    for line in payload.lines() {
        if let Some(v) = line.strip_prefix("time_remaining_ms ") {
            time = parse_opt_u64(v)?;
            seen += 1;
        } else if let Some(v) = line.strip_prefix("work_remaining ") {
            work = parse_opt_u64(v)?;
            seen += 1;
        }
        if seen == 2 {
            return Ok((time, work));
        }
    }
    Err(SnapshotError::Malformed(
        "missing budget remainder lines".into(),
    ))
}

/// Builds the resumed-leg [`Budget`] from snapshot remainders: explicit
/// caller limits win; otherwise the *remaining* wall-clock time and work
/// from the snapshot are rebased onto a fresh budget (the original
/// deadline was absolute and would already have expired).
#[must_use]
pub fn rebased_budget(
    explicit_time_ms: Option<u64>,
    explicit_work: Option<u64>,
    snapshot_time_ms: Option<u64>,
    snapshot_work: Option<u64>,
) -> Budget {
    let time = explicit_time_ms.or(snapshot_time_ms);
    let work = explicit_work.or(snapshot_work);
    Budget::new(time.map(std::time::Duration::from_millis), work)
}

fn parse_opt_u64(tok: &str) -> Result<Option<u64>, SnapshotError> {
    if tok == "none" {
        return Ok(None);
    }
    tok.parse::<u64>()
        .map(Some)
        .map_err(|_| SnapshotError::Malformed(format!("bad integer {tok:?}")))
}

/// Sequential reader over payload lines with uniform error reporting.
pub struct PayloadReader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> PayloadReader<'a> {
    /// Starts reading `payload`.
    #[must_use]
    pub fn new(payload: &'a str) -> Self {
        PayloadReader {
            lines: payload.lines(),
            line_no: 0,
        }
    }

    /// Next line, or a [`SnapshotError::Truncated`] naming what was
    /// expected.
    pub fn line(&mut self, expect: &str) -> Result<&'a str, SnapshotError> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| SnapshotError::Truncated(format!("expected {expect}")))
    }

    /// Next line, which must start with `key ` — returns the remainder.
    pub fn field(&mut self, key: &str) -> Result<&'a str, SnapshotError> {
        let line = self.line(key)?;
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| {
                SnapshotError::Malformed(format!(
                    "line {}: expected field {key:?}, found {line:?}",
                    self.line_no
                ))
            })
    }

    /// [`field`](Self::field) parsed as `u64`.
    pub fn u64_field(&mut self, key: &str) -> Result<u64, SnapshotError> {
        let v = self.field(key)?;
        v.parse::<u64>()
            .map_err(|_| SnapshotError::Malformed(format!("bad integer for {key}: {v:?}")))
    }

    /// [`field`](Self::field) parsed as 16-digit hex `u64`.
    pub fn hex_field(&mut self, key: &str) -> Result<u64, SnapshotError> {
        let v = self.field(key)?;
        u64::from_str_radix(v, 16)
            .map_err(|_| SnapshotError::Malformed(format!("bad hex for {key}: {v:?}")))
    }

    /// [`field`](Self::field) parsed as `u64` or the token `none`.
    pub fn opt_u64_field(&mut self, key: &str) -> Result<Option<u64>, SnapshotError> {
        parse_opt_u64(self.field(key)?)
    }
}

/// Canonical (encoding-sorted) order for the refutation cache — makes
/// snapshots of the same state byte-identical regardless of hash-set
/// iteration order.
fn sorted_rewrites(set: &std::collections::HashSet<Rewrite>) -> Vec<Rewrite> {
    let mut items: Vec<(String, Rewrite)> = set
        .iter()
        .map(|rw| {
            let mut key = String::new();
            encode_rewrite(rw, &mut key);
            (key, *rw)
        })
        .collect();
    items.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    items.into_iter().map(|(_, rw)| rw).collect()
}

fn malformed(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(what.into())
}

fn parse_usize(tok: &str) -> Result<usize, SnapshotError> {
    tok.parse::<usize>()
        .map_err(|_| malformed(format!("bad integer {tok:?}")))
}

fn parse_f64_bits(tok: &str) -> Result<f64, SnapshotError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| malformed(format!("bad float bits {tok:?}")))
}

fn csv_u32(items: &[u32]) -> String {
    if items.is_empty() {
        return "-".into();
    }
    items
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_csv_u32(tok: &str) -> Result<Vec<u32>, SnapshotError> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    tok.split(',')
        .map(|v| {
            v.parse::<u32>()
                .map_err(|_| malformed(format!("bad index {v:?}")))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Netlist codec (shared by run and partition snapshots)
// ---------------------------------------------------------------------

/// Appends the exact raw state of `nl` to `out` (see
/// [`netlist::RawNetlist`] for what "exact" includes).
pub fn encode_netlist(nl: &Netlist, out: &mut String) {
    use fmt::Write;
    let raw = nl.to_raw();
    let _ = writeln!(out, "nname {}", escape(&raw.name));
    let _ = writeln!(out, "cells {}", raw.cells.len());
    for slot in &raw.cells {
        match slot {
            None => out.push_str("c -\n"),
            Some(c) => {
                let _ = writeln!(
                    out,
                    "c {} {} {} {}",
                    c.kind.mnemonic(),
                    c.lib.map_or_else(|| "-".into(), |l| l.to_string()),
                    c.name.as_deref().map_or_else(|| "-".into(), escape),
                    csv_u32(&c.fanins),
                );
            }
        }
    }
    let _ = writeln!(out, "fanouts {}", raw.fanouts.len());
    for list in &raw.fanouts {
        if list.is_empty() {
            out.push_str("f -\n");
            continue;
        }
        out.push('f');
        out.push(' ');
        for (i, f) in list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match f {
                RawFanout::Gate { cell, pin } => {
                    let _ = write!(out, "g{cell}.{pin}");
                }
                RawFanout::Po(i) => {
                    let _ = write!(out, "p{i}");
                }
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "pis {}", csv_u32(&raw.pis));
    let _ = writeln!(out, "pos {}", raw.pos.len());
    for (name, driver) in &raw.pos {
        let _ = writeln!(out, "o {} {driver}", escape(name));
    }
    let _ = writeln!(out, "free {}", csv_u32(&raw.free));
}

/// Reads a netlist section written by [`encode_netlist`] and rebuilds
/// the [`Netlist`] (journal disarmed).
///
/// # Errors
///
/// [`SnapshotError::Truncated`] / [`Malformed`](SnapshotError::Malformed)
/// on a short or inconsistent section.
pub fn decode_netlist(r: &mut PayloadReader<'_>) -> Result<Netlist, SnapshotError> {
    let name = unescape(r.field("nname")?)?;
    let n_cells = parse_usize(r.field("cells")?)?;
    let mut cells = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        let line = r.field("c")?;
        if line == "-" {
            cells.push(None);
            continue;
        }
        let mut toks = line.split(' ');
        let mut tok = |what: &str| {
            toks.next()
                .ok_or_else(|| malformed(format!("cell line missing {what}")))
        };
        let kind_tok = tok("kind")?;
        let kind = GateKind::ALL
            .iter()
            .copied()
            .find(|k| k.mnemonic() == kind_tok)
            .ok_or_else(|| malformed(format!("unknown gate kind {kind_tok:?}")))?;
        let lib_tok = tok("lib")?;
        let lib = if lib_tok == "-" {
            None
        } else {
            Some(
                lib_tok
                    .parse::<u32>()
                    .map_err(|_| malformed(format!("bad lib tag {lib_tok:?}")))?,
            )
        };
        let name_tok = tok("name")?;
        let cell_name = if name_tok == "-" {
            None
        } else {
            Some(unescape(name_tok)?)
        };
        let fanins = parse_csv_u32(tok("fanins")?)?;
        cells.push(Some(RawCell {
            kind,
            fanins,
            lib,
            name: cell_name,
        }));
    }
    let n_fanouts = parse_usize(r.field("fanouts")?)?;
    let mut fanouts = Vec::with_capacity(n_fanouts);
    for _ in 0..n_fanouts {
        let line = r.field("f")?;
        let mut list = Vec::new();
        if line != "-" {
            for item in line.split(',') {
                if let Some(rest) = item.strip_prefix('g') {
                    let (cell, pin) = rest
                        .split_once('.')
                        .ok_or_else(|| malformed(format!("bad fanout {item:?}")))?;
                    list.push(RawFanout::Gate {
                        cell: cell
                            .parse()
                            .map_err(|_| malformed(format!("bad fanout {item:?}")))?,
                        pin: pin
                            .parse()
                            .map_err(|_| malformed(format!("bad fanout {item:?}")))?,
                    });
                } else if let Some(po) = item.strip_prefix('p') {
                    list.push(RawFanout::Po(
                        po.parse()
                            .map_err(|_| malformed(format!("bad fanout {item:?}")))?,
                    ));
                } else {
                    return Err(malformed(format!("bad fanout {item:?}")));
                }
            }
        }
        fanouts.push(list);
    }
    let pis = parse_csv_u32(r.field("pis")?)?;
    let n_pos = parse_usize(r.field("pos")?)?;
    let mut pos = Vec::with_capacity(n_pos);
    for _ in 0..n_pos {
        let line = r.field("o")?;
        let (name, driver) = line
            .split_once(' ')
            .ok_or_else(|| malformed(format!("bad po line {line:?}")))?;
        pos.push((
            unescape(name)?,
            driver
                .parse::<u32>()
                .map_err(|_| malformed(format!("bad po driver {driver:?}")))?,
        ));
    }
    let free = parse_csv_u32(r.field("free")?)?;
    let raw = RawNetlist {
        name,
        cells,
        fanouts,
        pis,
        pos,
        free,
    };
    Netlist::from_raw(&raw).map_err(|e| malformed(format!("inconsistent netlist section: {e}")))
}

/// Digest of the exact raw state of `nl` — identifies the run's input
/// so a snapshot is never restored against the wrong netlist.
#[must_use]
pub fn netlist_digest(nl: &Netlist) -> u64 {
    let mut s = String::new();
    encode_netlist(nl, &mut s);
    fnv1a64(s.as_bytes())
}

/// Digest of every configuration choice that affects the deterministic
/// rewrite sequence (budget limits and thread counts excluded: both are
/// bit-transparent by design).
#[must_use]
pub fn config_digest(req: &OptimizeRequest) -> u64 {
    use fmt::Write;
    let c = &req.cfg;
    let mut s = String::new();
    // The trailing `false` stands where the removed `legacy_eval` switch
    // was hashed (it was `false` unless a benchmark set it). Keeping the
    // literal keeps every digest unchanged, so snapshots and gateway
    // journals written before the switch was removed still resume.
    let _ = write!(
        s,
        "{}|{}|{}|{}|{}|{:?}|{:?}|{}|{:?}|{}|{}|{}|{}|{}|{}|false",
        c.vectors,
        c.seed,
        c.enable_sub3,
        c.enable_xor,
        c.xor_direct,
        c.candidates,
        c.prover,
        c.conflict_budget,
        c.verify_policy,
        c.area_phase,
        c.area_batch,
        c.max_sites_per_round,
        c.max_proofs_per_round,
        c.max_delay_rounds,
        c.max_outer_rounds,
    );
    let _ = write!(s, "|{}", EngineId::render_list(&req.engines));
    if let Some(rc) = &req.region {
        for v in &rc.input_arrivals {
            let _ = write!(s, "|a{:016x}", v.to_bits());
        }
        for v in &rc.po_required {
            let _ = write!(s, "|r{:016x}", v.to_bits());
        }
    }
    fnv1a64(s.as_bytes())
}

// ---------------------------------------------------------------------
// GdoStats codec
// ---------------------------------------------------------------------

/// Appends `stats` to `out` as two lines (`stats ...` and `engstats ...`,
/// floats as bit patterns).
pub fn encode_stats(stats: &GdoStats, out: &mut String) {
    use fmt::Write;
    let _ = writeln!(
        out,
        "stats {} {} {} {} {:016x} {:016x} {:016x} {:016x} {} {} {} {} {} {} {} {:016x} {} {} {} {} {}",
        stats.gates_before,
        stats.gates_after,
        stats.literals_before,
        stats.literals_after,
        stats.delay_before.to_bits(),
        stats.delay_after.to_bits(),
        stats.area_before.to_bits(),
        stats.area_after.to_bits(),
        stats.sub2_mods,
        stats.sub3_mods,
        stats.const_mods,
        stats.resub_mods,
        stats.proofs,
        stats.proofs_valid,
        stats.rounds,
        stats.cpu_seconds.to_bits(),
        u8::from(stats.budget_exhausted),
        stats.verify_checks,
        stats.verify_failures,
        stats.verify_rollbacks,
        stats.quarantined_kinds,
    );
    out.push_str("engstats");
    for e in &stats.engines {
        let _ = write!(
            out,
            " {} {} {} {}",
            e.proposed, e.filtered, e.proved, e.applied
        );
    }
    out.push('\n');
}

/// Reads the two lines written by [`encode_stats`].
///
/// # Errors
///
/// [`SnapshotError::Truncated`] / [`Malformed`](SnapshotError::Malformed)
/// on a short or inconsistent section.
pub fn decode_stats(r: &mut PayloadReader<'_>) -> Result<GdoStats, SnapshotError> {
    let line = r.field("stats")?;
    let toks: Vec<&str> = line.split(' ').collect();
    if toks.len() != 21 {
        return Err(malformed(format!(
            "stats line has {} fields, expected 21",
            toks.len()
        )));
    }
    let mut stats = GdoStats {
        gates_before: parse_usize(toks[0])?,
        gates_after: parse_usize(toks[1])?,
        literals_before: parse_usize(toks[2])?,
        literals_after: parse_usize(toks[3])?,
        delay_before: parse_f64_bits(toks[4])?,
        delay_after: parse_f64_bits(toks[5])?,
        area_before: parse_f64_bits(toks[6])?,
        area_after: parse_f64_bits(toks[7])?,
        sub2_mods: parse_usize(toks[8])?,
        sub3_mods: parse_usize(toks[9])?,
        const_mods: parse_usize(toks[10])?,
        resub_mods: parse_usize(toks[11])?,
        proofs: parse_usize(toks[12])?,
        proofs_valid: parse_usize(toks[13])?,
        rounds: parse_usize(toks[14])?,
        cpu_seconds: parse_f64_bits(toks[15])?,
        budget_exhausted: toks[16] == "1",
        verify_checks: parse_usize(toks[17])?,
        verify_failures: parse_usize(toks[18])?,
        verify_rollbacks: parse_usize(toks[19])?,
        quarantined_kinds: parse_usize(toks[20])?,
        ..GdoStats::default()
    };
    let line = r.field("engstats")?;
    let toks: Vec<&str> = line.split(' ').collect();
    if toks.len() != EngineId::COUNT * 4 {
        return Err(malformed(format!(
            "engstats line has {} fields, expected {}",
            toks.len(),
            EngineId::COUNT * 4
        )));
    }
    for (i, chunk) in toks.chunks(4).enumerate() {
        stats.engines[i].proposed = parse_usize(chunk[0])?;
        stats.engines[i].filtered = parse_usize(chunk[1])?;
        stats.engines[i].proved = parse_usize(chunk[2])?;
        stats.engines[i].applied = parse_usize(chunk[3])?;
    }
    Ok(stats)
}

// ---------------------------------------------------------------------
// Rewrite codec (the SAT refutation cache)
// ---------------------------------------------------------------------

fn encode_rewrite(rw: &Rewrite, out: &mut String) {
    use fmt::Write;
    match rw.site {
        Site::Stem(s) => {
            let _ = write!(out, "s{}", s.index());
        }
        Site::Branch(b) => {
            let _ = write!(out, "b{}.{}", b.cell.index(), b.pin);
        }
    }
    match rw.kind {
        RewriteKind::Sub2 { b } => {
            let _ = write!(
                out,
                " sub2 {} {}",
                b.signal.index(),
                if b.positive { 'p' } else { 'n' }
            );
        }
        RewriteKind::Sub3 { gate, b, c } => {
            let (g, pb, pc) = match gate {
                Gate3::And(pb, pc) => ("and", pb, pc),
                Gate3::Or(pb, pc) => ("or", pb, pc),
                Gate3::Xor => ("xor", true, true),
                Gate3::Xnor => ("xnor", true, true),
            };
            let _ = write!(
                out,
                " sub3 {g} {} {} {} {}",
                u8::from(pb),
                u8::from(pc),
                b.index(),
                c.index()
            );
        }
        RewriteKind::SubConst { value } => {
            let _ = write!(out, " const {}", u8::from(value));
        }
    }
}

fn decode_rewrite(line: &str) -> Result<Rewrite, SnapshotError> {
    let toks: Vec<&str> = line.split(' ').collect();
    let bad = || malformed(format!("bad rewrite {line:?}"));
    let site_tok = toks.first().ok_or_else(bad)?;
    let site = if let Some(rest) = site_tok.strip_prefix('s') {
        Site::Stem(SignalId::from_index(
            rest.parse::<usize>().map_err(|_| bad())?,
        ))
    } else if let Some(rest) = site_tok.strip_prefix('b') {
        let (cell, pin) = rest.split_once('.').ok_or_else(bad)?;
        Site::Branch(Branch {
            cell: SignalId::from_index(cell.parse::<usize>().map_err(|_| bad())?),
            pin: pin.parse::<u32>().map_err(|_| bad())?,
        })
    } else {
        return Err(bad());
    };
    let kind = match *toks.get(1).ok_or_else(bad)? {
        "sub2" => {
            if toks.len() != 4 {
                return Err(bad());
            }
            let signal = SignalId::from_index(toks[2].parse::<usize>().map_err(|_| bad())?);
            let positive = match toks[3] {
                "p" => true,
                "n" => false,
                _ => return Err(bad()),
            };
            RewriteKind::Sub2 {
                b: SigLit { signal, positive },
            }
        }
        "sub3" => {
            if toks.len() != 7 {
                return Err(bad());
            }
            let pb = toks[3] == "1";
            let pc = toks[4] == "1";
            let gate = match toks[2] {
                "and" => Gate3::And(pb, pc),
                "or" => Gate3::Or(pb, pc),
                "xor" => Gate3::Xor,
                "xnor" => Gate3::Xnor,
                _ => return Err(bad()),
            };
            RewriteKind::Sub3 {
                gate,
                b: SignalId::from_index(toks[5].parse::<usize>().map_err(|_| bad())?),
                c: SignalId::from_index(toks[6].parse::<usize>().map_err(|_| bad())?),
            }
        }
        "const" => {
            if toks.len() != 3 {
                return Err(bad());
            }
            RewriteKind::SubConst {
                value: toks[2] == "1",
            }
        }
        _ => return Err(bad()),
    };
    Ok(Rewrite { site, kind })
}

// ---------------------------------------------------------------------
// RunSnapshot
// ---------------------------------------------------------------------

/// Where a run stands in its engine pipeline: the state captured is
/// "about to execute iteration `iter` of engine `engine_idx`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCursor {
    /// Index into the request's engine list.
    pub engine_idx: usize,
    /// The engine-internal iteration about to execute (outer round for
    /// `gdo`, delay round for `resub`).
    pub iter: usize,
}

/// Checkpointing parameters for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Where to write the snapshot (atomically, in place).
    pub path: PathBuf,
    /// Write cadence in engine-iteration boundaries (`1` = every
    /// boundary). The latest boundary is also written unconditionally
    /// when the budget trips, whatever the cadence.
    pub every: usize,
}

impl CheckpointSpec {
    /// A spec writing to `path` at every boundary.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> CheckpointSpec {
        CheckpointSpec {
            path: path.into(),
            every: 1,
        }
    }

    /// Sets the write cadence (clamped to at least 1).
    #[must_use]
    pub fn every(mut self, every: usize) -> CheckpointSpec {
        self.every = every.max(1);
        self
    }
}

/// The complete resumable state of a whole-netlist
/// [`Pipeline`](crate::Pipeline) run at an engine-iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// The request's engine list (cross-checked on resume).
    pub engines: Vec<EngineId>,
    /// [`config_digest`] of the request this run executes.
    pub config_digest: u64,
    /// [`netlist_digest`] of the *original* input netlist — identifies
    /// the run; the working netlist below has diverged from it.
    pub input_digest: u64,
    /// Pipeline position the working netlist corresponds to.
    pub cursor: RunCursor,
    /// RNG seed cursor at the boundary.
    pub seed: u64,
    /// Work units left under the ceiling at the boundary (`None` =
    /// unlimited).
    pub work_remaining: Option<u64>,
    /// Wall-clock milliseconds left at the boundary (`None` = no
    /// deadline).
    pub time_remaining_ms: Option<u64>,
    /// Bit pattern of the timing graph's circuit delay at the boundary —
    /// a cross-check that the resuming process rebuilt the same timing
    /// view (catches library or delay-model skew).
    pub delay_bits: u64,
    /// Statistics accumulated up to the boundary.
    pub stats: GdoStats,
    /// Quarantined rewrite-class names, sorted.
    pub quarantine: Vec<String>,
    /// The SAT refutation cache, sorted by encoding.
    pub refuted: Vec<Rewrite>,
    /// Human-readable journal of every rewrite applied so far.
    pub journal: Vec<String>,
    /// The working netlist at the boundary, exact raw state.
    pub netlist: RawNetlist,
}

impl RunSnapshot {
    /// Serializes the payload (everything after the `kind` line).
    #[must_use]
    pub fn to_payload(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "engines {}", EngineId::render_list(&self.engines));
        let _ = writeln!(out, "config {:016x}", self.config_digest);
        let _ = writeln!(out, "input {:016x}", self.input_digest);
        let _ = writeln!(
            out,
            "cursor {} {}",
            self.cursor.engine_idx, self.cursor.iter
        );
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(
            out,
            "work_remaining {}",
            self.work_remaining
                .map_or_else(|| "none".into(), |v| v.to_string())
        );
        let _ = writeln!(
            out,
            "time_remaining_ms {}",
            self.time_remaining_ms
                .map_or_else(|| "none".into(), |v| v.to_string())
        );
        let _ = writeln!(out, "delay {:016x}", self.delay_bits);
        encode_stats(&self.stats, &mut out);
        let _ = writeln!(
            out,
            "quarantine {}",
            if self.quarantine.is_empty() {
                "-".into()
            } else {
                self.quarantine.join(",")
            }
        );
        let _ = writeln!(out, "refuted {}", self.refuted.len());
        let mut lines: Vec<String> = self
            .refuted
            .iter()
            .map(|rw| {
                let mut line = String::from("r ");
                encode_rewrite(rw, &mut line);
                line
            })
            .collect();
        lines.sort_unstable();
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        let _ = writeln!(out, "journal {}", self.journal.len());
        for entry in &self.journal {
            let _ = writeln!(out, "j {}", escape(entry));
        }
        let nl = Netlist::from_raw(&self.netlist).expect("snapshot raw netlist is consistent");
        encode_netlist(&nl, &mut out);
        out
    }

    /// Parses a payload written by [`to_payload`](Self::to_payload).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] /
    /// [`Malformed`](SnapshotError::Malformed) on a short or inconsistent
    /// payload.
    pub fn from_payload(payload: &str) -> Result<RunSnapshot, SnapshotError> {
        let mut r = PayloadReader::new(payload);
        let engines = EngineId::parse_list(r.field("engines")?)
            .map_err(|e| malformed(format!("bad engine list: {e}")))?;
        let config_digest = r.hex_field("config")?;
        let input_digest = r.hex_field("input")?;
        let cursor_line = r.field("cursor")?;
        let (ei, it) = cursor_line
            .split_once(' ')
            .ok_or_else(|| malformed(format!("bad cursor {cursor_line:?}")))?;
        let cursor = RunCursor {
            engine_idx: parse_usize(ei)?,
            iter: parse_usize(it)?,
        };
        let seed = r.u64_field("seed")?;
        let work_remaining = r.opt_u64_field("work_remaining")?;
        let time_remaining_ms = r.opt_u64_field("time_remaining_ms")?;
        let delay_bits = r.hex_field("delay")?;
        let stats = decode_stats(&mut r)?;
        let quarantine_tok = r.field("quarantine")?;
        let quarantine = if quarantine_tok == "-" {
            Vec::new()
        } else {
            quarantine_tok.split(',').map(str::to_string).collect()
        };
        let n_refuted = parse_usize(r.field("refuted")?)?;
        let mut refuted = Vec::with_capacity(n_refuted);
        for _ in 0..n_refuted {
            refuted.push(decode_rewrite(r.field("r")?)?);
        }
        let n_journal = parse_usize(r.field("journal")?)?;
        let mut journal = Vec::with_capacity(n_journal);
        for _ in 0..n_journal {
            journal.push(unescape(r.field("j")?)?);
        }
        let netlist = decode_netlist(&mut r)?.to_raw();
        if cursor.engine_idx >= engines.len() {
            return Err(malformed(format!(
                "cursor engine index {} out of range for {} engines",
                cursor.engine_idx,
                engines.len()
            )));
        }
        Ok(RunSnapshot {
            engines,
            config_digest,
            input_digest,
            cursor,
            seed,
            work_remaining,
            time_remaining_ms,
            delay_bits,
            stats,
            quarantine,
            refuted,
            journal,
            netlist,
        })
    }

    /// Writes the snapshot atomically to `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the write or rename fails.
    pub fn write(&self, path: &Path) -> Result<(), SnapshotError> {
        write_atomic(path, KIND_RUN, &self.to_payload())
    }

    /// Reads and validates a run snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Any [`read_payload`] error;
    /// [`SnapshotError::Mismatch`] when the file is a partition snapshot.
    pub fn read(path: &Path) -> Result<RunSnapshot, SnapshotError> {
        let (kind, payload) = read_payload(path)?;
        if kind != KIND_RUN {
            return Err(SnapshotError::Mismatch(format!(
                "expected a {KIND_RUN} snapshot, found kind {kind:?}"
            )));
        }
        Self::from_payload(&payload)
    }
}

// ---------------------------------------------------------------------
// Checkpointer: the pipeline-side driver
// ---------------------------------------------------------------------

/// Pipeline-owned checkpoint state: collects the applied-rewrite journal,
/// captures a [`RunSnapshot`] at every engine-iteration boundary, and
/// writes it out on cadence. Inactive (no [`CheckpointSpec`]) it costs a
/// branch per hook.
pub(crate) struct Checkpointer {
    spec: Option<CheckpointSpec>,
    engines: Vec<EngineId>,
    config_digest: u64,
    input_digest: u64,
    resume: Option<RunCursor>,
    pub(crate) engine_idx: usize,
    boundaries: usize,
    journal: Vec<String>,
    pub(crate) latest: Option<RunSnapshot>,
}

impl Checkpointer {
    pub(crate) fn new(
        req: &OptimizeRequest,
        input_digest: u64,
    ) -> Result<Checkpointer, SnapshotError> {
        let config_digest = config_digest(req);
        let mut resume = None;
        let mut journal = Vec::new();
        if let Some(snap) = &req.resume_from {
            if snap.config_digest != config_digest {
                return Err(SnapshotError::Mismatch(format!(
                    "config digest {:016x} != request digest {config_digest:016x}",
                    snap.config_digest
                )));
            }
            if snap.input_digest != input_digest {
                return Err(SnapshotError::Mismatch(format!(
                    "input digest {:016x} != netlist digest {input_digest:016x}",
                    snap.input_digest
                )));
            }
            if snap.engines != req.engines {
                return Err(SnapshotError::Mismatch(format!(
                    "engine list {} != request's {}",
                    EngineId::render_list(&snap.engines),
                    EngineId::render_list(&req.engines)
                )));
            }
            resume = Some(snap.cursor);
            journal.clone_from(&snap.journal);
        }
        Ok(Checkpointer {
            spec: req.checkpoint.clone(),
            engines: req.engines.clone(),
            config_digest,
            input_digest,
            resume,
            engine_idx: 0,
            boundaries: 0,
            journal,
            latest: None,
        })
    }

    /// Whether boundary capture does anything (a spec is set).
    pub(crate) fn capturing(&self) -> bool {
        self.spec.is_some()
    }

    /// The iteration the current engine should start from: the resume
    /// cursor's when this is the engine it points at, `0` otherwise.
    pub(crate) fn resume_start(&self) -> usize {
        match self.resume {
            Some(c) if c.engine_idx == self.engine_idx => c.iter,
            _ => 0,
        }
    }

    /// Whether the resume cursor says this engine already completed.
    pub(crate) fn engine_done(&self, engine_idx: usize) -> bool {
        self.resume.is_some_and(|c| engine_idx < c.engine_idx)
    }

    /// Appends one applied-rewrite description (only while capturing).
    pub(crate) fn record_applied(&mut self, describe: impl FnOnce() -> String) {
        if self.capturing() {
            self.journal.push(describe());
        }
    }

    /// Captures the boundary snapshot and writes it out when the cadence
    /// is due.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn at_boundary(
        &mut self,
        iter: usize,
        nl: &Netlist,
        delay: f64,
        budget: &Budget,
        stats: &GdoStats,
        seed: u64,
        refuted: &std::collections::HashSet<Rewrite>,
        quarantine: Vec<String>,
    ) -> Result<(), SnapshotError> {
        let Some(spec) = &self.spec else {
            return Ok(());
        };
        let mut quarantine = quarantine;
        quarantine.sort_unstable();
        let snap = RunSnapshot {
            engines: self.engines.clone(),
            config_digest: self.config_digest,
            input_digest: self.input_digest,
            cursor: RunCursor {
                engine_idx: self.engine_idx,
                iter,
            },
            seed,
            work_remaining: budget.remaining_work(),
            time_remaining_ms: budget
                .remaining_time()
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            delay_bits: delay.to_bits(),
            stats: *stats,
            quarantine,
            refuted: sorted_rewrites(refuted),
            journal: self.journal.clone(),
            netlist: nl.to_raw(),
        };
        self.boundaries += 1;
        let due = self.boundaries.is_multiple_of(spec.every.max(1));
        self.latest = Some(snap);
        if due {
            self.write_latest()?;
        }
        Ok(())
    }

    /// Writes the most recent boundary snapshot, if any (used both on
    /// cadence and unconditionally when the budget trips).
    pub(crate) fn write_latest(&self) -> Result<(), SnapshotError> {
        if let (Some(spec), Some(snap)) = (&self.spec, &self.latest) {
            snap.write(&spec.path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;

    fn sample_netlist() -> Netlist {
        let mut nl = Netlist::new("snap-test");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let d = nl.add_gate(GateKind::Not, &[c]).unwrap();
        nl.add_output("d", d);
        nl
    }

    fn sample_snapshot() -> RunSnapshot {
        let nl = sample_netlist();
        let mut stats = GdoStats {
            gates_before: 2,
            delay_before: 1.25,
            cpu_seconds: 0.5,
            sub2_mods: 3,
            ..GdoStats::default()
        };
        stats.engines[0].applied = 3;
        let sig = |i| SignalId::from_index(i);
        RunSnapshot {
            engines: vec![EngineId::Gdo, EngineId::Resub],
            config_digest: 0x1234,
            input_digest: 0x5678,
            cursor: RunCursor {
                engine_idx: 1,
                iter: 2,
            },
            seed: 99,
            work_remaining: Some(1000),
            time_remaining_ms: None,
            delay_bits: 1.25f64.to_bits(),
            stats,
            quarantine: vec!["sub2".into()],
            // Canonical (encoding-sorted) order, as `at_boundary` emits.
            refuted: vec![
                Rewrite {
                    site: Site::Branch(Branch {
                        cell: sig(3),
                        pin: 0,
                    }),
                    kind: RewriteKind::Sub3 {
                        gate: Gate3::And(true, false),
                        b: sig(0),
                        c: sig(1),
                    },
                },
                Rewrite {
                    site: Site::Stem(sig(2)),
                    kind: RewriteKind::SubConst { value: true },
                },
                Rewrite {
                    site: Site::Stem(sig(3)),
                    kind: RewriteKind::Sub2 {
                        b: SigLit {
                            signal: sig(2),
                            positive: false,
                        },
                    },
                },
            ],
            journal: vec![
                "stem n3 := !n2".into(),
                "with %, spaces\tand\nnewlines".into(),
            ],
            netlist: nl.to_raw(),
        }
    }

    #[test]
    fn payload_round_trip_is_exact() {
        let snap = sample_snapshot();
        let back = RunSnapshot::from_payload(&snap.to_payload()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn file_round_trip_and_atomicity() {
        let dir = std::env::temp_dir().join(format!("gdo-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.ckpt");
        let snap = sample_snapshot();
        snap.write(&path).unwrap();
        assert!(!path.with_extension("ckpt.tmp").exists());
        let back = RunSnapshot::read(&path).unwrap();
        assert_eq!(back, snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let dir = std::env::temp_dir().join(format!("gdo-snap-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt");
        let snap = sample_snapshot();
        snap.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // Partial write: cut the file mid-payload.
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            RunSnapshot::read(&path),
            Err(SnapshotError::BadChecksum { .. })
        ));

        // Bit rot: flip one payload byte.
        let mut corrupt = text.clone().into_bytes();
        let last = corrupt.len() - 2;
        corrupt[last] = corrupt[last].wrapping_add(1);
        std::fs::write(&path, &corrupt).unwrap();
        assert!(matches!(
            RunSnapshot::read(&path),
            Err(SnapshotError::BadChecksum { .. })
        ));

        // Version skew.
        let skewed = text.replacen("gdo-snapshot v1", "gdo-snapshot v9", 1);
        std::fs::write(&path, skewed).unwrap();
        assert!(matches!(
            RunSnapshot::read(&path),
            Err(SnapshotError::VersionSkew { .. })
        ));

        // Header cut before the checksum line.
        std::fs::write(&path, "gdo-snapshot v1").unwrap();
        assert!(matches!(
            RunSnapshot::read(&path),
            Err(SnapshotError::Truncated(_) | SnapshotError::VersionSkew { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn peek_remainders_reads_both_kinds_of_limit() {
        let dir = std::env::temp_dir().join(format!("gdo-snap-p-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("peek.ckpt");
        let mut snap = sample_snapshot();
        snap.work_remaining = Some(42);
        snap.time_remaining_ms = Some(9000);
        snap.write(&path).unwrap();
        assert_eq!(peek_remainders(&path).unwrap(), (Some(9000), Some(42)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn escape_round_trips_awkward_strings() {
        for s in ["", "plain", "a b\tc", "100%", "x%20y", "π≤∞", "line\nbreak"] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "{s:?}");
            assert!(!escape(s).contains(' '), "{s:?} must be one token");
        }
        assert!(unescape("%zz").is_err());
        assert!(unescape("%2").is_err());
    }

    #[test]
    fn rebased_budget_prefers_explicit_limits() {
        let b = rebased_budget(None, None, Some(50), Some(7));
        assert_eq!(b.remaining_work(), Some(7));
        assert!(b.remaining_time().is_some());
        let b = rebased_budget(None, Some(100), Some(50), Some(7));
        assert_eq!(b.remaining_work(), Some(100));
        let b = rebased_budget(None, None, None, None);
        assert_eq!(b.remaining_work(), None);
        assert!(b.remaining_time().is_none());
    }

    /// Snapshots and gateway journals carry `config_digest`; these are
    /// the values earlier releases wrote, so a changed digest would make
    /// their files refuse to resume.
    #[test]
    fn config_digest_matches_earlier_releases() {
        use crate::{GdoConfig, RegionConstraints};
        let plain = OptimizeRequest::new(GdoConfig::default());
        assert_eq!(config_digest(&plain), 0xb081_bfc5_24ce_b562);
        let region = OptimizeRequest::new(GdoConfig::default())
            .engines(vec![EngineId::Gdo, EngineId::Resub])
            .region(RegionConstraints {
                input_arrivals: vec![1.5],
                po_required: vec![4.25],
            });
        assert_eq!(config_digest(&region), 0xa1dd_8d45_0424_8397);
    }
}
