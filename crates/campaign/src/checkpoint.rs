//! Campaign checkpoints: one JSON line per snapshot, written through
//! [`obs::RunReport`] and parsed back with [`obs::json`].
//!
//! A checkpoint captures everything the engine needs to resume at a
//! shard boundary: the campaign identity ([`CampaignKey`]: label, target
//! digest and every tally-affecting budget field), how many shards are
//! folded in, and the accumulated outcome tallies.
//! Because every shard owns a self-contained RNG stream, resuming from a
//! checkpoint and running to the end is bit-identical to an uninterrupted
//! campaign. Site-class and DUE-kind observability tallies are *not*
//! checkpointed — they live in the caller's [`obs::MetricsRegistry`] and
//! only cover the shards run in the current process.

use crate::budget::Budget;
use obs::json::{self, Json};
use obs::RunReport;
use stats::OutcomeCounts;
use std::collections::BTreeMap;

/// The JSONL `"report"` tag of a checkpoint line.
pub const CHECKPOINT_REPORT_KIND: &str = "campaign.checkpoint";

/// Everything that fixes a campaign's tallies. Two campaigns with equal
/// keys draw the same trials and fold them the same way, so one may
/// resume from the other's checkpoint; any field that differs makes them
/// different campaigns.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignKey {
    /// Campaign label: `kind/device/target`.
    pub label: String,
    /// Digest of the target identity the golden cache keys on (name,
    /// kernel length, launch geometry, memory size): tells apart
    /// same-named builds (e.g. the CUDA 7 and CUDA 10 FMXM).
    pub target: u64,
    /// Budget seed the shards are keyed with.
    pub seed: u64,
    /// Shard size of the partition.
    pub shard_size: u32,
    /// Budget floor (trials before the stop rule may fire).
    pub floor: u32,
    /// Budget ceiling.
    pub ceiling: u32,
    /// Wilson CI half-width stop target (`None`: fixed budget).
    pub ci_half_width: Option<f64>,
    /// Watchdog dynamic-instruction factor.
    pub dyn_factor: u64,
    /// Watchdog dynamic-instruction slack.
    pub dyn_slack: u64,
}

impl CampaignKey {
    /// The key of a campaign labeled `label` over a target with digest
    /// `target`, run under `budget`.
    pub(crate) fn new(label: String, target: u64, budget: &Budget) -> CampaignKey {
        CampaignKey {
            label,
            target,
            seed: budget.seed,
            shard_size: budget.shard_size,
            floor: budget.floor,
            ceiling: budget.ceiling,
            ci_half_width: budget.ci_half_width,
            dyn_factor: budget.watchdog.dyn_factor,
            dyn_slack: budget.watchdog.dyn_slack,
        }
    }

    /// A stable one-line rendering of every field, the store's pointer
    /// file name is derived from.
    pub(crate) fn canonical(&self) -> String {
        let ci = self.ci_half_width.map_or_else(|| "none".to_string(), |c| format!("{c:?}"));
        format!(
            "{} target={:016x} seed={} shard={} floor={} ceiling={} ci={ci} dyn={}x+{}",
            self.label,
            self.target,
            self.seed,
            self.shard_size,
            self.floor,
            self.ceiling,
            self.dyn_factor,
            self.dyn_slack
        )
    }
}

/// A resumable campaign snapshot at a shard boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Campaign identity.
    pub key: CampaignKey,
    /// Shards folded in so far; the next shard to run.
    pub shards_done: u32,
    /// Trials accounted so far.
    pub trials: u64,
    /// Outcome tallies over all trials.
    pub counts: OutcomeCounts,
    /// Tallies of trials resolved without execution, keyed by the
    /// sampler's direct label (e.g. `beam.unstruck`).
    pub direct: BTreeMap<String, OutcomeCounts>,
}

impl Checkpoint {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let key = &self.key;
        let mut r = RunReport::new(CHECKPOINT_REPORT_KIND);
        r.push_str("label", &key.label)
            .push_str("target", &format!("{:016x}", key.target))
            // A string: JSON numbers are f64 and would round seeds past 2^53.
            .push_str("seed", &key.seed.to_string())
            .push_uint("shard_size", key.shard_size as u64)
            .push_uint("floor", key.floor as u64)
            .push_uint("ceiling", key.ceiling as u64)
            .push_uint("dyn_factor", key.dyn_factor)
            .push_uint("dyn_slack", key.dyn_slack);
        if let Some(ci) = key.ci_half_width {
            r.push_float("ci_half_width", ci);
        }
        r.push_uint("shards_done", self.shards_done as u64)
            .push_uint("trials", self.trials)
            .push_uint("sdc", self.counts.sdc)
            .push_uint("due", self.counts.due)
            .push_uint("masked", self.counts.masked);
        for (label, c) in &self.direct {
            r.push_uint(&format!("direct.{label}.sdc"), c.sdc)
                .push_uint(&format!("direct.{label}.due"), c.due)
                .push_uint(&format!("direct.{label}.masked"), c.masked);
        }
        r.to_json_line()
    }

    /// Parse a checkpoint line produced by [`Checkpoint::to_json_line`].
    pub fn parse(line: &str) -> Result<Checkpoint, String> {
        let parsed = json::parse(line)?;
        let obj = parsed.as_obj().ok_or("checkpoint line is not a JSON object")?;
        if obj.get("report").and_then(Json::as_str) != Some(CHECKPOINT_REPORT_KIND) {
            return Err(format!("not a {CHECKPOINT_REPORT_KIND} line"));
        }
        let str_field = |k: &str| -> Result<String, String> {
            obj.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("checkpoint missing string field {k:?}"))
        };
        let uint_field = |k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(Json::as_num)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| format!("checkpoint missing numeric field {k:?}"))
        };
        let mut direct: BTreeMap<String, OutcomeCounts> = BTreeMap::new();
        for (key, value) in obj {
            let Some(rest) = key.strip_prefix("direct.") else { continue };
            let Some((label, outcome)) = rest.rsplit_once('.') else {
                return Err(format!("malformed direct tally key {key:?}"));
            };
            let n = value
                .as_num()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("non-numeric direct tally {key:?}"))?
                as u64;
            let c = direct.entry(label.to_string()).or_default();
            match outcome {
                "sdc" => c.sdc = n,
                "due" => c.due = n,
                "masked" => c.masked = n,
                other => return Err(format!("unknown outcome {other:?} in {key:?}")),
            }
        }
        let target = str_field("target")?;
        let ci_half_width = match obj.get("ci_half_width") {
            None => None,
            Some(v) => Some(
                v.as_num()
                    .filter(|c| c.is_finite() && *c >= 0.0)
                    .ok_or("checkpoint has a non-numeric ci_half_width")?,
            ),
        };
        let cp = Checkpoint {
            key: CampaignKey {
                label: str_field("label")?,
                target: u64::from_str_radix(&target, 16)
                    .map_err(|e| format!("bad target digest {target:?}: {e}"))?,
                seed: str_field("seed")?.parse().map_err(|e| format!("bad seed: {e}"))?,
                shard_size: uint_field("shard_size")? as u32,
                floor: uint_field("floor")? as u32,
                ceiling: uint_field("ceiling")? as u32,
                ci_half_width,
                dyn_factor: uint_field("dyn_factor")?,
                dyn_slack: uint_field("dyn_slack")?,
            },
            shards_done: uint_field("shards_done")? as u32,
            trials: uint_field("trials")?,
            counts: OutcomeCounts {
                sdc: uint_field("sdc")?,
                due: uint_field("due")?,
                masked: uint_field("masked")?,
            },
            direct,
        };
        if cp.counts.total() != cp.trials {
            return Err(format!(
                "inconsistent checkpoint: {} tallied outcomes for {} trials",
                cp.counts.total(),
                cp.trials
            ));
        }
        Ok(cp)
    }

    /// Scan a JSONL stream (e.g. a checkpoint file) and return the last
    /// checkpoint for `key`, ignoring non-checkpoint lines.
    ///
    /// This keeps only the answer; corrupt lines are indistinguishable
    /// from absent ones. Recovery paths that need to warn (instead of
    /// silently restarting from zero) should use [`Checkpoint::scan_stream`].
    pub fn last_in_stream(text: &str, key: &CampaignKey) -> Option<Checkpoint> {
        Checkpoint::scan_stream(text, key).checkpoint
    }

    /// Scan a JSONL stream for the last checkpoint whose key equals `key`
    /// in every field, reporting what was seen along the way.
    ///
    /// Three kinds of line are distinguished:
    ///
    /// * a parseable checkpoint — the last one whose key matches wins;
    /// * a *foreign* line — valid JSON that is not a
    ///   `campaign.checkpoint` report (progress lines, run reports);
    ///   these are expected in shared streams and are not counted as
    ///   damage;
    /// * a *rejected* line — unparseable JSON, or a checkpoint report
    ///   that fails validation (truncated tail after a crash, torn
    ///   write, inconsistent tallies). These are tolerated — the scan
    ///   falls back to the previous parseable checkpoint — but counted,
    ///   so recovery can warn that history was lost.
    pub fn scan_stream(text: &str, key: &CampaignKey) -> StreamScan {
        let mut scan = StreamScan::default();
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            scan.lines_scanned += 1;
            let parsed = match json::parse(line) {
                Ok(v) => v,
                Err(why) => {
                    scan.reject(&why);
                    continue;
                }
            };
            let is_checkpoint =
                parsed.as_obj().and_then(|obj| obj.get("report")).and_then(Json::as_str)
                    == Some(CHECKPOINT_REPORT_KIND);
            if !is_checkpoint {
                continue; // foreign but well-formed: not damage
            }
            match Checkpoint::parse(line) {
                Ok(cp) => {
                    if cp.key == *key {
                        scan.checkpoint = Some(cp);
                    }
                }
                Err(why) => scan.reject(&why),
            }
        }
        scan
    }
}

/// What [`Checkpoint::scan_stream`] saw: the recovered checkpoint (if
/// any) plus damage diagnostics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamScan {
    /// The last parseable checkpoint whose key matched.
    pub checkpoint: Option<Checkpoint>,
    /// Non-empty lines examined.
    pub lines_scanned: u64,
    /// Lines that were unparseable JSON or failed checkpoint validation.
    pub lines_rejected: u64,
    /// The first rejection's parse error, for the recovery warning.
    pub first_error: Option<String>,
}

impl StreamScan {
    fn reject(&mut self, why: &str) {
        self.lines_rejected += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why.to_string());
        }
    }

    /// True when the stream contained lines that had to be discarded.
    pub fn damaged(&self) -> bool {
        self.lines_rejected > 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut direct = BTreeMap::new();
        direct.insert("beam.unstruck".to_string(), OutcomeCounts { sdc: 0, due: 0, masked: 70 });
        direct.insert("beam.direct".to_string(), OutcomeCounts { sdc: 1, due: 4, masked: 2 });
        Checkpoint {
            key: CampaignKey::new(
                "beam/ecc-on/SK40c/FMXM".to_string(),
                0xfeed_beef_0123_4567,
                &Budget::quick(),
            ),
            shards_done: 4,
            trials: 128,
            counts: OutcomeCounts { sdc: 11, due: 13, masked: 104 },
            direct,
        }
    }

    #[test]
    fn json_round_trip() {
        let cp = sample();
        let line = cp.to_json_line();
        assert!(line.contains("\"report\":\"campaign.checkpoint\""));
        assert_eq!(Checkpoint::parse(&line).unwrap(), cp);
        // Fixed budgets carry no CI target; the absence round-trips too,
        // and so do seeds past f64's exact-integer range.
        let mut fixed = sample();
        let budget = Budget::fixed(128).seed(0x9e37_79b9_7f4a_7c15);
        fixed.key = CampaignKey::new(fixed.key.label.clone(), 1, &budget);
        assert_eq!(Checkpoint::parse(&fixed.to_json_line()).unwrap(), fixed);
    }

    #[test]
    fn scan_matches_every_key_field() {
        let cp = sample();
        let stream = cp.to_json_line();
        let variants: [fn(&mut CampaignKey); 8] = [
            |k| k.target ^= 1,
            |k| k.seed += 1,
            |k| k.shard_size += 1,
            |k| k.floor += 1,
            |k| k.ceiling += 1,
            |k| k.ci_half_width = None,
            |k| k.dyn_factor += 1,
            |k| k.dyn_slack += 1,
        ];
        for vary in variants {
            let mut key = cp.key.clone();
            vary(&mut key);
            assert_ne!(key.canonical(), cp.key.canonical());
            assert_eq!(Checkpoint::last_in_stream(&stream, &key), None, "{key:?}");
        }
        assert_eq!(Checkpoint::last_in_stream(&stream, &cp.key), Some(cp));
    }

    #[test]
    fn parse_rejects_foreign_and_inconsistent_lines() {
        assert!(Checkpoint::parse("{\"report\":\"run\"}").is_err());
        assert!(Checkpoint::parse("not json").is_err());
        let mut cp = sample();
        cp.trials += 1; // no longer equals counts.total()
        assert!(Checkpoint::parse(&cp.to_json_line()).is_err());
    }

    #[test]
    fn last_in_stream_picks_matching_label() {
        let mut early = sample();
        early.shards_done = 2;
        early.trials = 64;
        early.counts = OutcomeCounts { sdc: 5, due: 7, masked: 52 };
        early.direct.clear();
        let late = sample();
        let mut other = sample();
        other.key.label = "something/else".to_string();
        let stream = format!(
            "{}\n{{\"report\":\"run\",\"campaigns\":3}}\n{}\n{}\n",
            early.to_json_line(),
            late.to_json_line(),
            other.to_json_line()
        );
        assert_eq!(Checkpoint::last_in_stream(&stream, &late.key), Some(late.clone()));
        let mut missing = late.key.clone();
        missing.label = "missing".to_string();
        assert_eq!(Checkpoint::last_in_stream(&stream, &missing), None);
    }

    #[test]
    fn scan_stream_counts_damage_and_recovers_previous_checkpoint() {
        let good = sample();
        let mut torn = good.to_json_line();
        torn.truncate(torn.len() / 2); // crash mid-write
        let stream = format!(
            "{}\n{{\"report\":\"run\",\"campaigns\":3}}\nnot json at all\n{torn}\n",
            good.to_json_line()
        );
        let scan = Checkpoint::scan_stream(&stream, &good.key);
        assert_eq!(scan.checkpoint, Some(good));
        assert_eq!(scan.lines_scanned, 4);
        // The foreign-but-valid run report is not damage; the garbage
        // line and the torn checkpoint are.
        assert_eq!(scan.lines_rejected, 2);
        assert!(scan.damaged());
        assert!(scan.first_error.is_some());
    }

    #[test]
    fn scan_stream_rejects_inconsistent_checkpoint_lines() {
        let mut cp = sample();
        cp.trials += 1; // violates counts.total() == trials
        let scan = Checkpoint::scan_stream(&cp.to_json_line(), &cp.key);
        assert_eq!(scan.checkpoint, None);
        assert_eq!(scan.lines_rejected, 1);
        assert!(scan.first_error.unwrap().contains("inconsistent"));
    }

    #[test]
    fn scan_stream_on_clean_stream_reports_no_damage() {
        let cp = sample();
        let scan = Checkpoint::scan_stream(&cp.to_json_line(), &cp.key);
        assert_eq!(scan.checkpoint, Some(cp));
        assert_eq!((scan.lines_scanned, scan.lines_rejected), (1, 0));
        assert!(!scan.damaged());
        assert_eq!(scan.first_error, None);
    }
}
