//! Ground-truth neutron cross-sections for the simulated devices.
//!
//! **These numbers are the "silicon" of this reproduction.** They live
//! in `.xsec` files under `specs/devices/`, siblings of the `.spec`
//! device models but included **only by this crate**: the prediction
//! pipeline must recover their consequences through micro-benchmark
//! beam measurements, the way the paper does, and can read every
//! `.spec` field but never the silicon truth. Values are in cm^2 per
//! exposure unit (per lane-cycle for pipes, per bit-second for storage,
//! per device-second for hidden logic); see the per-file comments for
//! the relative findings each corpus is calibrated to reproduce.

use gpu_arch::spec::{RawSpec, ValidationError};
use gpu_arch::{Architecture, DeviceModel, FunctionalUnit};

/// Per-resource ground-truth cross-sections.
#[derive(Clone, Debug)]
pub struct CrossSections {
    /// Per functional-unit pipe, per busy lane-cycle
    /// (indexed by [`FunctionalUnit::index`]).
    pub unit: [f64; FunctionalUnit::COUNT],
    /// SRAM (register file, shared memory) per bit-second.
    pub sram_bit: f64,
    /// DRAM + L2 per bit-second (scales with the process node like the
    /// SRAM arrays; ~2x the SRAM per-bit rate on both devices).
    pub dram_bit: f64,
    /// Probability that a storage strike upsets two bits of one word
    /// (~2% for the register file, Section V-A).
    pub mbu_probability: f64,
    /// Fraction of LD/ST-path strikes that corrupt the *address* rather
    /// than the data.
    pub ldst_address_fraction: f64,
    /// Hidden logic per SM, per second.
    pub hidden_sm: f64,
    /// Hidden memory-system logic (controller, queues, coalescers) per
    /// executed memory operation: the resource the paper blames for the
    /// DUE inflation of access-heavy codes (NW, FGEMM — Section VI).
    pub hidden_mem_op: f64,
    /// Hidden device-level logic (memory controller, host interface),
    /// per second.
    pub hidden_device: f64,
    /// P(DUE | hidden strike).
    pub hidden_due_fraction: f64,
    /// P(SDC | hidden strike) — rare silent corruption through e.g. a
    /// scheduler replaying a stale instruction.
    pub hidden_sdc_fraction: f64,
}

impl CrossSections {
    /// FNV-1a over every field (via the round-trip-exact `Debug` form):
    /// a stable content digest naming an override in campaign labels.
    pub fn digest(&self) -> u64 {
        format!("{self:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }
}

/// The beam-only ground-truth corpus, one `.xsec` file per architecture.
const GROUND_TRUTH: &[(Architecture, &str)] = &[
    (Architecture::Kepler, include_str!("../../../specs/devices/k40c.xsec")),
    (Architecture::Volta, include_str!("../../../specs/devices/v100.xsec")),
    (Architecture::Ampere, include_str!("../../../specs/devices/a100.xsec")),
];

fn req(raw: &RawSpec, section: &str, key: &str) -> Result<f64, ValidationError> {
    let value = raw.section(section).and_then(|s| s.get(key)).ok_or_else(|| ValidationError {
        field: format!("{section}.{key}"),
        message: "missing required key".to_string(),
    })?;
    value.parse::<f64>().ok().filter(|v| v.is_finite() && *v >= 0.0).ok_or_else(|| {
        ValidationError {
            field: format!("{section}.{key}"),
            message: format!("expected a non-negative number, got {value:?}"),
        }
    })
}

/// Parse one `.xsec` document into base cross-sections (per-bit storage
/// rates still unscaled by the device's process-node sensitivity).
///
/// Public so the spec-validation tooling can lint the `.xsec` corpus;
/// the *values* never leave this crate through that path.
pub fn parse_xsec(text: &str) -> Result<CrossSections, Vec<ValidationError>> {
    let raw = RawSpec::parse(text).map_err(|e| vec![e])?;
    let mut errors = Vec::new();
    let mut unit = [0.0; FunctionalUnit::COUNT];
    match raw.section("unit_sigma") {
        None => errors.push(ValidationError {
            field: "unit_sigma".to_string(),
            message: "missing required section".to_string(),
        }),
        Some(sec) => {
            for (key, value) in sec.entries() {
                let Some(u) = FunctionalUnit::from_name(key) else {
                    errors.push(ValidationError {
                        field: format!("unit_sigma.{key}"),
                        message: "unknown functional unit".to_string(),
                    });
                    continue;
                };
                match value.parse::<f64>().ok().filter(|v| v.is_finite() && *v >= 0.0) {
                    Some(v) => unit[u.index()] = v,
                    None => errors.push(ValidationError {
                        field: format!("unit_sigma.{key}"),
                        message: format!("expected a non-negative number, got {value:?}"),
                    }),
                }
            }
        }
    }
    let mut get = |section: &str, key: &str| match req(&raw, section, key) {
        Ok(v) => v,
        Err(e) => {
            errors.push(e);
            0.0
        }
    };
    let xsec = CrossSections {
        unit,
        sram_bit: get("storage_sigma", "sram_bit"),
        dram_bit: get("storage_sigma", "dram_bit"),
        mbu_probability: get("effects", "mbu_probability"),
        ldst_address_fraction: get("effects", "ldst_address_fraction"),
        hidden_sm: get("hidden", "sm"),
        hidden_device: get("hidden", "device"),
        hidden_mem_op: get("hidden", "mem_op"),
        hidden_due_fraction: get("hidden", "due_fraction"),
        hidden_sdc_fraction: get("hidden", "sdc_fraction"),
    };
    if errors.is_empty() {
        Ok(xsec)
    } else {
        Err(errors)
    }
}

impl CrossSections {
    /// The ground truth for a device: the architecture's `.xsec` corpus
    /// with the per-bit storage rates scaled by the device model's
    /// process-node sensitivity.
    pub fn ground_truth(device: &DeviceModel) -> CrossSections {
        let text = GROUND_TRUTH
            .iter()
            .find(|(arch, _)| *arch == device.arch)
            .map(|(_, text)| *text)
            .unwrap_or_else(|| panic!("no ground-truth .xsec corpus for {}", device.arch));
        let mut xsec = parse_xsec(text).unwrap_or_else(|errors| {
            panic!(
                "ground-truth .xsec for {} failed validation: {}",
                device.arch,
                errors.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ")
            )
        });
        xsec.sram_bit *= device.sram_bit_sensitivity;
        xsec.dram_bit *= device.sram_bit_sensitivity;
        xsec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kepler_int_is_4x_fp32() {
        let x = CrossSections::ground_truth(&DeviceModel::named("k40c"));
        let ratio = x.unit[FunctionalUnit::Iadd.index()] / x.unit[FunctionalUnit::Fadd.index()];
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
        let imul_iadd = x.unit[FunctionalUnit::Imul.index()] / x.unit[FunctionalUnit::Iadd.index()];
        assert!((imul_iadd - 1.3).abs() < 0.05);
        assert!(x.unit[FunctionalUnit::Imad.index()] > x.unit[FunctionalUnit::Imul.index()]);
    }

    #[test]
    fn volta_precision_ordering() {
        let x = CrossSections::ground_truth(&DeviceModel::named("v100"));
        for ops in [
            [FunctionalUnit::Hadd, FunctionalUnit::Fadd, FunctionalUnit::Dadd],
            [FunctionalUnit::Hmul, FunctionalUnit::Fmul, FunctionalUnit::Dmul],
            [FunctionalUnit::Hfma, FunctionalUnit::Ffma, FunctionalUnit::Dfma],
        ] {
            assert!(x.unit[ops[0].index()] < x.unit[ops[1].index()]);
            assert!(x.unit[ops[1].index()] < x.unit[ops[2].index()]);
        }
        // complexity ordering: add < mul < fma within each precision
        assert!(x.unit[FunctionalUnit::Fadd.index()] < x.unit[FunctionalUnit::Fmul.index()]);
        assert!(x.unit[FunctionalUnit::Fmul.index()] < x.unit[FunctionalUnit::Ffma.index()]);
    }

    #[test]
    fn tensor_cores_dominate() {
        let x = CrossSections::ground_truth(&DeviceModel::named("v100"));
        let hmma = x.unit[FunctionalUnit::Hmma.index()];
        let dfma = x.unit[FunctionalUnit::Dfma.index()];
        assert!(hmma / dfma > 10.0, "HMMA/DFMA = {}", hmma / dfma);
    }

    #[test]
    fn kepler_sram_is_order_of_magnitude_worse() {
        let k = CrossSections::ground_truth(&DeviceModel::named("k40c"));
        let v = CrossSections::ground_truth(&DeviceModel::named("v100"));
        assert!((k.sram_bit / v.sram_bit - 10.0).abs() < 0.5);
    }

    #[test]
    fn hidden_strikes_mostly_due() {
        let x = CrossSections::ground_truth(&DeviceModel::named("v100"));
        assert!(x.hidden_due_fraction > 0.5);
        assert!(x.hidden_due_fraction + x.hidden_sdc_fraction <= 1.0);
    }

    #[test]
    fn ampere_corpus_loads_and_scales_by_process_node() {
        let a = CrossSections::ground_truth(&DeviceModel::named("a100"));
        let v = CrossSections::ground_truth(&DeviceModel::named("v100"));
        // Wider tensor cores: per-op MMA sigma rises vs Volta.
        assert!(a.unit[FunctionalUnit::Hmma.index()] > v.unit[FunctionalUnit::Hmma.index()]);
        // 7 nm node: per-bit storage sensitivity drops below the 16 nm
        // baseline through the device model's scaling factor.
        assert!(a.sram_bit < v.sram_bit);
    }

    #[test]
    fn malformed_xsec_reports_field_paths() {
        let errors = parse_xsec("[unit_sigma]\nWARP = 1.0\nFADD = fast\n").unwrap_err();
        let fields: Vec<&str> = errors.iter().map(|e| e.field.as_str()).collect();
        assert!(fields.contains(&"unit_sigma.WARP"), "{fields:?}");
        assert!(fields.contains(&"unit_sigma.FADD"), "{fields:?}");
        assert!(fields.contains(&"storage_sigma.sram_bit"), "{fields:?}");
    }
}
