//! The spec layer's equivalence and robustness contracts.
//!
//! 1. **Parity:** every paper-era built-in spec compiles to exactly the
//!    model field values pinned here (the values the hand-coded
//!    constructors produced before the specs replaced them).
//! 2. **Robustness:** the parser/validator never panics on malformed
//!    input — random mutations of valid specs and arbitrary junk either
//!    validate or produce field-path `ValidationError`s.

use gpu_arch::spec::{DeviceRegistry, DeviceSpec, RawSpec, BUILTIN_SPECS};
use gpu_arch::{DeviceCaps, DeviceModel};
use proptest::prelude::*;

/// Every field of the paper-era compiled models, pinned to the values the
/// hand-coded constructors produced before the specs replaced them. Per
/// field, one value for all five boards or one per board in `ids` order.
#[test]
fn builtin_specs_compile_to_pinned_models() {
    use gpu_arch::Architecture::{Kepler, Volta};
    use gpu_arch::CodeGen::{Cuda10, Cuda7};
    use gpu_arch::FunctionalUnit::*;
    let ids = ["k40c", "v100", "titan-v", "k40c-sim", "v100-sim"];
    let names =
        ["Tesla K40c", "Tesla V100", "Titan V", "Tesla K40c (1-SM sim)", "Tesla V100 (1-SM sim)"];
    let kepler = vec![Fadd, Fmul, Ffma, Iadd, Imul, Imad];
    let volta =
        vec![Hadd, Hmul, Hfma, Fadd, Fmul, Ffma, Dadd, Dmul, Dfma, Iadd, Imul, Imad, Hmma, Fmma];
    for (i, id) in ids.into_iter().enumerate() {
        let pinned = DeviceModel {
            name: names[i].to_string(),
            arch: [Kepler, Volta, Volta, Kepler, Volta][i],
            sms: [15, 80, 80, 1, 1][i],
            schedulers_per_sm: 4,
            issue_per_scheduler: [2, 1, 1, 2, 1][i],
            fp32_lanes: [192, 64, 64, 192, 64][i],
            fp64_lanes: [64, 32, 32, 64, 32][i],
            int32_lanes: [0, 64, 64, 0, 64][i],
            fp16_lanes: [0, 128, 128, 0, 128][i],
            tensor_cores: [0, 8, 8, 0, 8][i],
            tensor_core_width: 32,
            ldst_units: 32,
            rf_bytes_per_sm: 256 * 1024,
            shared_bytes_per_sm: [48, 96, 96, 48, 96][i] * 1024,
            max_threads_per_sm: 2048,
            max_warps_per_sm: 64,
            clock_hz: [745e6, 1380e6, 1380e6, 745e6, 1380e6][i],
            sram_bit_sensitivity: [10.0, 1.0, 1.0, 10.0, 1.0][i],
            ecc_capable: [true, true, false, true, true][i],
            caps: DeviceCaps {
                sassifi: [true, false, false, true, false][i],
                default_codegen: [Cuda7, Cuda10, Cuda10, Cuda7, Cuda10][i],
                fig3_reference: ["FADD", "HFMA", "HFMA", "FADD", "HFMA"][i].to_string(),
                bench_units: [&kepler, &volta, &volta, &kepler, &volta][i].clone(),
            },
        };
        assert_eq!(DeviceModel::named(id), pinned, "spec-compiled {id} differs from its pin");
    }
}

#[test]
fn named_lookup_agrees_with_registry() {
    for id in ["k40c", "v100", "titan-v", "a100", "a100-sim"] {
        assert_eq!(DeviceModel::named(id), DeviceRegistry::builtin().model(id).unwrap());
    }
}

/// Inputs a device-spec author plausibly produces: a built-in spec with
/// one line dropped, duplicated, or its value scrambled.
fn mutated_builtin(spec_idx: usize, line_idx: usize, mutation: u8, junk: &str) -> String {
    let text = BUILTIN_SPECS[spec_idx % BUILTIN_SPECS.len()].1;
    let lines: Vec<&str> = text.lines().collect();
    let target = line_idx % lines.len();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if i == target {
            match mutation % 4 {
                0 => continue, // drop the line
                1 => {
                    out.push(line.to_string());
                    out.push(line.to_string()); // duplicate it
                }
                2 => match line.split_once('=') {
                    // scramble the value
                    Some((k, _)) => out.push(format!("{k}= {junk}")),
                    None => out.push(junk.to_string()),
                },
                _ => out.push(junk.to_string()), // replace wholesale
            }
        } else {
            out.push(line.to_string());
        }
    }
    out.join("\n")
}

/// Printable-ASCII strings (the vendored proptest has no regex-string
/// strategies).
fn junk_strategy(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..max_len)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

/// Junk with structural characters mixed in, so section headers, `=`
/// signs, and comments appear often enough to exercise every parse arm.
fn structured_junk_strategy() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b" abc=[]#\n_0.-";
    prop::collection::vec(0usize..CHARSET.len(), 0..400)
        .prop_map(|idx| idx.into_iter().map(|i| CHARSET[i] as char).collect())
}

proptest! {
    #[test]
    fn parser_never_panics_on_mutations(
        spec_idx in 0usize..4,
        line_idx in 0usize..200,
        mutation in 0u8..4,
        junk in junk_strategy(40),
    ) {
        let text = mutated_builtin(spec_idx, line_idx, mutation, &junk);
        match DeviceSpec::parse(&text) {
            Ok(spec) => {
                // A surviving spec must still compile to a usable model.
                let model = spec.model();
                prop_assert!(model.sms >= 1);
                prop_assert!(!model.name.is_empty());
            }
            Err(errors) => {
                prop_assert!(!errors.is_empty());
                for e in &errors {
                    prop_assert!(!e.field.is_empty(), "errors must carry a field path");
                    prop_assert!(!e.message.is_empty());
                }
            }
        }
    }

    #[test]
    fn parser_never_panics_on_junk(text in structured_junk_strategy()) {
        // Raw junk: both layers must return errors, never panic.
        let _ = RawSpec::parse(&text);
        let _ = DeviceSpec::parse(&text);
    }
}
