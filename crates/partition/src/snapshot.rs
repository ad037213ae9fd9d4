//! Partition-level crash-safe snapshots: the phase-1 region outcomes of
//! a partitioned run, serialized in the same atomic, checksummed
//! container as run snapshots (`kind partition`).
//!
//! Phase 1 never mutates the parent netlist, and clustering is a pure
//! function of `(netlist, ClusterConfig)`, so the snapshot does not
//! store the parent: a resuming caller passes the *original* input
//! netlist (digest-checked) and the driver re-derives every region
//! extract deterministically. Only regions whose child budget never
//! tripped are recorded — a region that completed under *any* budget is
//! byte-identical to the same region run with no budget at all (the
//! budget acts purely through cooperative exhaustion checks), which is
//! what lets an interrupted-and-resumed run converge on the
//! uninterrupted result: resumed legs redo the interrupted regions from
//! scratch and reuse the finished ones verbatim.

use crate::cluster::ClusterConfig;
use gdo::snapshot::{
    config_digest, decode_netlist, decode_stats, encode_netlist, encode_stats, fnv1a64,
    read_payload, write_atomic, PayloadReader, SnapshotError, KIND_PARTITION,
};
use gdo::{EngineId, GdoConfig, GdoStats, OptimizeRequest};
use netlist::Netlist;
use std::path::Path;

/// A finished region recorded in a [`PartitionSnapshot`]: the outcome
/// phase 2 stitches, minus the [`netlist::RegionExtract`] (re-derived on
/// resume from the deterministic clustering of the original parent).
#[derive(Debug, Clone)]
pub struct RegionDone {
    /// Region index (into `Clustering::regions`).
    pub region: usize,
    /// The region's optimizer counters.
    pub stats: GdoStats,
    /// True when the region failed its equivalence check and must be
    /// skipped at stitch time.
    pub quarantined: bool,
    /// The accepted optimized sub-netlist, when the region improved.
    pub optimized: Option<Netlist>,
}

/// The serializable phase-1 state of a partitioned run.
#[derive(Debug, Clone, Default)]
pub struct PartitionSnapshot {
    /// Digest over the optimizer config, engine list, clustering bounds
    /// and region-verification switch (budgets and threads left out).
    pub config_digest: u64,
    /// [`gdo::snapshot::netlist_digest`] of the original parent netlist.
    pub input_digest: u64,
    /// Parent budget work units left when the snapshot was written.
    pub work_remaining: Option<u64>,
    /// Parent budget wall-clock milliseconds left when the snapshot was
    /// written.
    pub time_remaining_ms: Option<u64>,
    /// Total region count of the clustering (validated on resume).
    pub n_regions: usize,
    /// Finished regions, ascending by region index.
    pub done: Vec<RegionDone>,
}

/// Digest over everything that must match for a partition snapshot to
/// be resumable: the determinism-relevant [`GdoConfig`] fields and
/// engine list (via [`gdo::snapshot::config_digest`]) plus the
/// clustering constraints and the region-verification switch. Budgets
/// and thread counts are deliberately excluded — they never change the
/// result of a region that finishes.
#[must_use]
pub(crate) fn options_digest(
    cfg: &GdoConfig,
    cluster: &ClusterConfig,
    engines: &[EngineId],
    verify_regions: bool,
) -> u64 {
    let base = OptimizeRequest::new(cfg.clone()).engines(engines.to_vec());
    let text = format!(
        "{:016x}|{}|{}|{}|{}",
        config_digest(&base),
        cluster.max_region_size,
        cluster.max_region_fanout,
        cluster.seed,
        verify_regions,
    );
    fnv1a64(text.as_bytes())
}

fn encode_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "none".into(),
    }
}

impl PartitionSnapshot {
    /// Serializes to the canonical payload text.
    #[must_use]
    pub fn to_payload(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("config {:016x}\n", self.config_digest));
        out.push_str(&format!("input {:016x}\n", self.input_digest));
        out.push_str(&format!(
            "work_remaining {}\n",
            encode_opt_u64(self.work_remaining)
        ));
        out.push_str(&format!(
            "time_remaining_ms {}\n",
            encode_opt_u64(self.time_remaining_ms)
        ));
        out.push_str(&format!("regions {}\n", self.n_regions));
        out.push_str(&format!("done {}\n", self.done.len()));
        for rd in &self.done {
            out.push_str(&format!(
                "region {} {} {}\n",
                rd.region,
                u8::from(rd.quarantined),
                u8::from(rd.optimized.is_some())
            ));
            encode_stats(&rd.stats, &mut out);
            if let Some(nl) = &rd.optimized {
                encode_netlist(&nl.to_raw(), &mut out);
            }
        }
        out
    }

    /// Parses a payload produced by [`to_payload`](Self::to_payload).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`] on any
    /// structural defect, including region indices out of range or out
    /// of ascending order.
    pub fn from_payload(payload: &str) -> Result<PartitionSnapshot, SnapshotError> {
        let mut r = PayloadReader::new(payload);
        let config_digest = r.hex_field("config")?;
        let input_digest = r.hex_field("input")?;
        let work_remaining = r.opt_u64_field("work_remaining")?;
        let time_remaining_ms = r.opt_u64_field("time_remaining_ms")?;
        let n_regions = r.u64_field("regions")? as usize;
        let n_done = r.u64_field("done")? as usize;
        if n_done > n_regions {
            return Err(SnapshotError::Malformed(format!(
                "{n_done} finished regions out of {n_regions}"
            )));
        }
        let mut done = Vec::with_capacity(n_done);
        let mut prev: Option<usize> = None;
        for _ in 0..n_done {
            let line = r.field("region")?;
            let mut toks = line.split(' ');
            let mut tok = |what: &str| {
                toks.next()
                    .ok_or_else(|| SnapshotError::Malformed(format!("region line missing {what}")))
            };
            let region = tok("index")?
                .parse::<usize>()
                .map_err(|_| SnapshotError::Malformed("bad region index".into()))?;
            let quarantined = match tok("quarantine flag")? {
                "0" => false,
                "1" => true,
                other => {
                    return Err(SnapshotError::Malformed(format!(
                        "bad quarantine flag {other:?}"
                    )))
                }
            };
            let has_optimized = match tok("netlist flag")? {
                "0" => false,
                "1" => true,
                other => {
                    return Err(SnapshotError::Malformed(format!(
                        "bad netlist flag {other:?}"
                    )))
                }
            };
            if region >= n_regions || prev.is_some_and(|p| region <= p) {
                return Err(SnapshotError::Malformed(format!(
                    "region index {region} out of range or order"
                )));
            }
            prev = Some(region);
            let stats = decode_stats(&mut r)?;
            let optimized = if has_optimized {
                Some(decode_netlist(&mut r)?)
            } else {
                None
            };
            done.push(RegionDone {
                region,
                stats,
                quarantined,
                optimized,
            });
        }
        Ok(PartitionSnapshot {
            config_digest,
            input_digest,
            work_remaining,
            time_remaining_ms,
            n_regions,
            done,
        })
    }

    /// Writes the snapshot atomically (temp file + rename) under the
    /// checksummed `kind partition` container.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn write(&self, path: &Path) -> Result<(), SnapshotError> {
        write_atomic(path, KIND_PARTITION, &self.to_payload())
    }

    /// Reads and validates a partition snapshot.
    ///
    /// # Errors
    ///
    /// Any [`read_payload`] error; [`SnapshotError::Mismatch`] when the
    /// file holds a snapshot of a different kind.
    pub fn read(path: &Path) -> Result<PartitionSnapshot, SnapshotError> {
        let (kind, payload) = read_payload(path)?;
        if kind != KIND_PARTITION {
            return Err(SnapshotError::Mismatch(format!(
                "expected a {KIND_PARTITION} snapshot, found kind {kind:?}"
            )));
        }
        PartitionSnapshot::from_payload(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;

    fn sample_netlist() -> Netlist {
        let mut nl = Netlist::new("region-0");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        nl.add_output("y", g);
        nl
    }

    fn sample() -> PartitionSnapshot {
        let stats = GdoStats {
            sub2_mods: 3,
            proofs: 11,
            delay_after: 2.5,
            ..GdoStats::default()
        };
        PartitionSnapshot {
            config_digest: 0xdead_beef_0123_4567,
            input_digest: 0x0fed_cba9_8765_4321,
            work_remaining: Some(42),
            time_remaining_ms: None,
            n_regions: 5,
            done: vec![
                RegionDone {
                    region: 1,
                    stats,
                    quarantined: false,
                    optimized: Some(sample_netlist()),
                },
                RegionDone {
                    region: 3,
                    stats: GdoStats::default(),
                    quarantined: true,
                    optimized: None,
                },
            ],
        }
    }

    #[test]
    fn payload_round_trip_is_exact() {
        let snap = sample();
        let payload = snap.to_payload();
        let back = PartitionSnapshot::from_payload(&payload).unwrap();
        assert_eq!(back.config_digest, snap.config_digest);
        assert_eq!(back.input_digest, snap.input_digest);
        assert_eq!(back.work_remaining, snap.work_remaining);
        assert_eq!(back.time_remaining_ms, snap.time_remaining_ms);
        assert_eq!(back.n_regions, snap.n_regions);
        assert_eq!(back.done.len(), snap.done.len());
        for (a, b) in back.done.iter().zip(snap.done.iter()) {
            assert_eq!(a.region, b.region);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.quarantined, b.quarantined);
            assert_eq!(
                a.optimized.as_ref().map(Netlist::to_raw),
                b.optimized.as_ref().map(Netlist::to_raw)
            );
        }
        // And the canonical form is a fixpoint.
        assert_eq!(back.to_payload(), payload);
    }

    #[test]
    fn file_round_trip_checks_kind() {
        let dir = std::env::temp_dir().join(format!("gdo-part-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("part.ckpt");
        let snap = sample();
        snap.write(&path).unwrap();
        let back = PartitionSnapshot::read(&path).unwrap();
        assert_eq!(back.to_payload(), snap.to_payload());
        // A run snapshot container is rejected by kind, not mis-parsed.
        write_atomic(&path, "run", &snap.to_payload()).unwrap();
        assert!(matches!(
            PartitionSnapshot::read(&path),
            Err(SnapshotError::Mismatch(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let snap = sample();
        let payload = snap.to_payload();
        // Region order violation: swap the two region indices.
        let swapped = payload.replacen("region 1 ", "region 3 ", 1);
        assert!(PartitionSnapshot::from_payload(&swapped).is_err());
        // More finished regions than the clustering has.
        let overfull = payload.replacen("regions 5", "regions 1", 1);
        assert!(PartitionSnapshot::from_payload(&overfull).is_err());
        // Truncation mid-region.
        let cut: String = payload.lines().take(8).collect::<Vec<_>>().join("\n");
        assert!(PartitionSnapshot::from_payload(&cut).is_err());
    }
}
