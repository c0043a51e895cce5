//! Trial supervision: the quarantine record emitted when a trial panics
//! twice. Hangs need no supervisor thread — the dynamic-instruction
//! bound ([`crate::dyn_limit`]) and the engine's stall and deadlock
//! detectors end every hung trial deterministically.

use gpu_sim::FaultPlan;
use obs::RunReport;

/// The JSONL `"report"` tag of a quarantine line.
pub const QUARANTINE_REPORT_KIND: &str = "campaign.quarantine";

/// One quarantined trial: everything needed to reproduce the panic
/// offline (the campaign identity pins the RNG stream; the plan is the
/// exact fault that was in flight).
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineRecord {
    /// Campaign identity: `kind/device/target`.
    pub label: String,
    /// Global trial index within the campaign.
    pub trial: u64,
    /// Shard that owned the trial.
    pub shard: u32,
    /// The fault plan in flight, when the panic happened after sampling.
    /// `None` means the sampler itself panicked before producing one.
    pub plan: Option<FaultPlan>,
    /// The panic payload, when it was a string.
    pub panic: String,
}

impl QuarantineRecord {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut r = RunReport::new(QUARANTINE_REPORT_KIND);
        r.push_str("label", &self.label)
            .push_uint("trial", self.trial)
            .push_uint("shard", self.shard as u64)
            .push_str(
                "plan",
                &self.plan.map_or_else(|| "sampler-panicked".to_string(), |p| format!("{p:?}")),
            )
            .push_str("panic", &self.panic);
        r.to_json_line()
    }
}

/// Extract a readable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_record_json_line_has_identity_and_plan() {
        let rec = QuarantineRecord {
            label: "avf/sassifi/ecc-on/K20/NW".to_string(),
            trial: 137,
            shard: 4,
            plan: Some(FaultPlan::PredicateOutput { nth: 9 }),
            panic: "boom".to_string(),
        };
        let line = rec.to_json_line();
        assert!(line.contains("\"report\":\"campaign.quarantine\""));
        assert!(line.contains("\"trial\":137"));
        assert!(line.contains("PredicateOutput"));
        assert!(line.contains("boom"));
        let none = QuarantineRecord { plan: None, ..rec };
        assert!(none.to_json_line().contains("sampler-panicked"));
    }
}
