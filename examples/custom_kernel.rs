//! Write your own kernel in the textual SASS-like assembly, run it on the
//! simulator, and inject faults into it — the full user path for custom
//! reliability studies.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use gpu_reliability::arch::{asm, Kernel, LaunchConfig};
use gpu_reliability::prelude::*;
use gpu_reliability::sim::{run, Executed};

const DOT_PRODUCT: &str = r#"
.kernel dot
// params: 0 = x base, 1 = y base, 2 = out base, 3 = n
// One warp: each lane accumulates a strided dot-product slice, then a
// butterfly reduction combines the lanes and lane 0 stores the result.
    S2R.LaneId R0
    LDP R1, 0            // x
    LDP R2, 1            // y
    LDP R3, 3            // n
    MOV R4, 0.0f         // acc
    MOV R5, R0           // i = lane
loop:
    ISETP.GE P0, R5, R3
    @P0 BRA reduce
    SHL R6, R5, 2
    IADD R7, R1, R6
    LDG.32 R8, R7, 0
    IADD R7, R2, R6
    LDG.32 R9, R7, 0
    FFMA R4, R8, R9, R4
    IADD R5, R5, 32      // warp-strided
    BRA loop
reduce:
    SHFL.BFLY R10, R4, 16
    FADD R4, R4, R10
    SHFL.BFLY R10, R4, 8
    FADD R4, R4, R10
    SHFL.BFLY R10, R4, 4
    FADD R4, R4, R10
    SHFL.BFLY R10, R4, 2
    FADD R4, R4, R10
    SHFL.BFLY R10, R4, 1
    FADD R4, R4, R10
    ISETP.NE P1, R0, 0
    @P1 BRA done
    LDP R11, 2
    STG.32 R11, 0, R4
done:
    EXIT
"#;

fn main() {
    let kernel = asm::assemble(DOT_PRODUCT).expect("kernel assembles");
    println!("assembled `{}`: {} instructions\n", kernel.name, kernel.len());
    println!("{}", kernel.disassemble());

    // Prepare inputs: x = [1..n], y = all 0.5; dot = 0.5 * n(n+1)/2.
    let n = 96u32;
    let x_base = 0u32;
    let y_base = 4 * n;
    let out_base = 8 * n;
    let mut mem = GlobalMemory::new(8 * n + 4);
    for i in 0..n {
        mem.write_f32_host(x_base + 4 * i, (i + 1) as f32).expect("x buffer covers every element");
        mem.write_f32_host(y_base + 4 * i, 0.5).expect("y buffer covers every element");
    }
    let launch = LaunchConfig::new(1, 32, vec![x_base, y_base, out_base, n]);
    let device = DeviceModel::named("v100-sim");

    let golden = run(&device, &kernel, &launch, mem.clone(), &RunOptions::default());
    assert_eq!(golden.status, ExecStatus::Completed);
    let result = golden.memory.read_f32_host(out_base).expect("output in bounds");
    println!("dot(x, y) = {result}   (expected {})", 0.5 * (n * (n + 1) / 2) as f32);

    // Now flip one bit in each of the first 20 FFMA outputs and watch the
    // outcomes.
    println!("\ninjecting into the first 20 FFMA outputs (bit 20):");
    let mut outcomes = OutcomeCounts::new();
    for nth in 0..20 {
        let opts = RunOptions::trial(FaultPlan::InstructionOutput {
            nth,
            site: SiteClass::Unit(FunctionalUnit::Ffma),
            flip: BitFlip::single(20),
        })
        .ecc(false)
        .watchdog(gpu_reliability::campaign::dyn_limit(golden.counts.total));
        let faulty = run(&device, &kernel, &launch, mem.clone(), &opts);
        let outcome = match faulty.status {
            ExecStatus::Due(_) => Outcome::Due,
            ExecStatus::Completed => {
                if faulty.memory.read_f32_host(out_base).expect("output in bounds") == result {
                    Outcome::Masked
                } else {
                    Outcome::Sdc
                }
            }
        };
        outcomes.record(outcome);
    }
    println!(
        "SDC {}  DUE {}  Masked {}  (a mantissa-bit flip in an accumulating\n\
         FFMA almost always survives to the dot product)",
        outcomes.sdc, outcomes.due, outcomes.masked
    );

    // Implementing `Target` makes any hand-written kernel a first-class
    // citizen of the campaign engine: seeded, sharded, adaptive.
    let dot = Dot { kernel, launch, memory: mem, out_base };
    let (avf, campaign) = Campaign::new(Avf::new(Injector::NvBitFi), &dot, &device)
        .budget(Budget::adaptive(50, 800, 0.05).seed(42))
        .run_full()
        .unwrap();
    println!(
        "\nadaptive NVBitFI campaign over the whole kernel: SDC {:.2}  DUE {:.2}\n\
         ({} trials, stop: {:?})",
        avf.sdc_avf(),
        avf.due_avf(),
        campaign.trials,
        campaign.stop
    );
}

/// The dot-product kernel as a campaign target.
struct Dot {
    kernel: Kernel,
    launch: LaunchConfig,
    memory: GlobalMemory,
    out_base: u32,
}

impl Target for Dot {
    fn name(&self) -> &str {
        "DOT"
    }
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }
    fn launch(&self) -> &LaunchConfig {
        &self.launch
    }
    fn fresh_memory(&self) -> GlobalMemory {
        self.memory.clone()
    }
    fn output_matches(&self, golden: &Executed, faulty: &Executed) -> bool {
        golden.memory.read_f32_host(self.out_base).expect("output in bounds")
            == faulty.memory.read_f32_host(self.out_base).expect("output in bounds")
    }
}
