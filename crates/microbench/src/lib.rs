//! The seven synthetic micro-benchmark classes of Section V.
//!
//! | Class | Kernels | Measures |
//! |---|---|---|
//! | FMA  | HFMA FFMA DFMA | fused multiply-add pipes per precision |
//! | ADD  | HADD FADD DADD | add pipes |
//! | MUL  | HMUL FMUL DMUL | multiply pipes |
//! | MAD  | IADD IMUL IMAD | integer pipes |
//! | MMA  | HMMA FMMA      | tensor cores (Volta) |
//! | LDST | LDST           | load/store address path (ECC on) |
//! | RF   | RF             | register-file storage (ECC off) |
//!
//! Each arithmetic kernel runs a dependent chain of one operation per
//! thread over pre-defined overflow-free inputs and writes the final
//! value; errors are found by comparing with the fault-free output after
//! completion, exactly as the paper's setup does (Section V-A). The
//! masking this end-of-chain check introduces is what the paper corrects
//! for by multiplying the measured FIT by the micro-benchmark's own
//! injection-measured AVF.

use gpu_arch::{
    CmpOp, DeviceModel, FunctionalUnit, Kernel, KernelBuilder, LaunchConfig, MemWidth, Operand,
    Precision, Pred, Reg, SpecialReg, WARP_SIZE,
};
use gpu_sim::{Executed, GlobalMemory, Target};
use softfloat::F16;

fn r(i: u8) -> Reg {
    Reg(i)
}
fn imm(v: u32) -> Operand {
    Operand::Imm(v)
}

/// Operations each thread chains in the arithmetic micro-benchmarks
/// (scaled down from the paper's 1e8; the FIT math normalizes by exposure,
/// so the count only affects statistics, not the rate — Section V-B).
pub const OPS_PER_THREAD: u32 = 192;

/// Chain operations emitted per loop iteration: heavy unrolling keeps the
/// measured pipe busy instead of the loop-control logic, like the paper's
/// straight-line 1e8-operation streams.
pub const UNROLL: u32 = 16;

/// MMA operations per warp (paper uses 1e7 vs 1e8 — one decade fewer).
pub const MMA_OPS_PER_WARP: u32 = 96;

/// MMAs emitted back-to-back per loop iteration.
pub const MMA_UNROLL: u32 = 8;

/// Round-trips each LDST thread performs.
pub const LDST_MOVES: u32 = 32;

/// Registers the RF kernel patterns and checks.
pub const RF_REGS: u32 = 250;

/// A synthetic micro-benchmark: a [`Target`] plus the functional unit it
/// characterizes.
#[derive(Clone, Debug)]
pub struct MicroBench {
    /// Paper-style name: "FADD", "IMAD", "HMMA", "LDST", "RF".
    pub name: String,
    /// The unit whose FIT rate this kernel isolates (`Ldst` for LDST,
    /// `Other` for RF, which measures storage rather than a pipe).
    pub unit: FunctionalUnit,
    /// The kernel.
    pub kernel: Kernel,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Input image.
    pub memory: GlobalMemory,
    /// Output region compared against the golden run.
    pub output: (u32, u32),
}

impl MicroBench {
    /// Whether this is the RF storage exposure (beamed with ECC off and
    /// rated per exposed bit) rather than a functional-unit pipe.
    pub fn is_register_file(&self) -> bool {
        self.name == "RF"
    }

    /// Register-file bits this bench exposes on `device`: the kernel's
    /// registers (at least 16) of every resident thread on every SM.
    pub fn exposed_rf_bits(&self, device: &DeviceModel) -> f64 {
        let golden = self.execute_golden(device);
        let resident_threads = golden.timing.resident_warps * WARP_SIZE as f64 * device.sms as f64;
        self.kernel.regs_per_thread.max(16) as f64 * 32.0 * resident_threads
    }
}

impl Target for MicroBench {
    fn name(&self) -> &str {
        &self.name
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
        let (o, l) = (self.output.0 as usize, self.output.1 as usize);
        golden.memory.raw()[o..o + l] == faulty.memory.raw()[o..o + l]
    }
}

/// Threads launched for arithmetic micro-benchmarks: enough warps to keep
/// every pipe of the 1-SM campaign devices busy.
const ARITH_THREADS: u32 = 512;

/// Which arithmetic micro-benchmark kernels exist for a unit.
fn arith_params(unit: FunctionalUnit) -> (Precision, &'static str) {
    use FunctionalUnit::*;
    match unit {
        Fadd => (Precision::Single, "FADD"),
        Fmul => (Precision::Single, "FMUL"),
        Ffma => (Precision::Single, "FFMA"),
        Dadd => (Precision::Double, "DADD"),
        Dmul => (Precision::Double, "DMUL"),
        Dfma => (Precision::Double, "DFMA"),
        Hadd => (Precision::Half, "HADD"),
        Hmul => (Precision::Half, "HMUL"),
        Hfma => (Precision::Half, "HFMA"),
        Iadd => (Precision::Int32, "IADD"),
        Imul => (Precision::Int32, "IMUL"),
        Imad => (Precision::Int32, "IMAD"),
        other => panic!("{other:?} is not an arithmetic micro-benchmark"),
    }
}

/// Per-thread chain seed values, overflow-free for every precision:
/// multiplications walk values close to 1, additions accumulate small
/// increments, integers wrap harmlessly.
fn seed_values(unit: FunctionalUnit, tid: u32) -> (f64, f64) {
    use FunctionalUnit::*;
    match unit {
        Fmul | Dmul | Hmul => {
            // x slightly above 1 so a long product stays in range.
            (1.0 + ((tid % 7) as f64) / 1024.0, 1.0)
        }
        // Odd multipliers are units modulo 2^32, so integer chains stay
        // bijective (a corrupted accumulator can never be multiplied into
        // oblivion — the paper's integer AVF is ~100%).
        Iadd | Imul | Imad => ((2 * (tid % 13) + 1) as f64, ((tid % 5) + 1) as f64),
        _ => (((tid % 11) as f64 + 1.0) / 256.0, ((tid % 3) as f64 + 1.0) / 16.0),
    }
}

/// Build an arithmetic micro-benchmark for `unit`.
pub fn arith(unit: FunctionalUnit) -> MicroBench {
    let (prec, name) = arith_params(unit);
    let elem = prec.size_bytes();
    let threads = ARITH_THREADS;
    let mut b = KernelBuilder::new(name);

    // params: [x_base, y_base, out_base]
    b.s2r(r(0), SpecialReg::TidX);
    b.s2r(r(1), SpecialReg::CtaidX);
    b.s2r(r(2), SpecialReg::NtidX);
    b.imad(r(0), r(1).into(), r(2).into(), r(0).into()); // global id
    b.ldp(r(10), 0);
    b.ldp(r(11), 1);
    b.ldp(r(12), 2);
    b.shl(r(3), r(0).into(), imm(prec_shift(prec)));
    b.iadd(r(4), r(3).into(), r(10).into());
    load(&mut b, prec, r(16), r(4)); // x (chain operand)
    b.iadd(r(4), r(3).into(), r(11).into());
    load(&mut b, prec, r(18), r(4)); // y / initial accumulator
                                     // acc starts at y; chain OPS times.
    mov_like(&mut b, prec, r(20), r(18));
    b.mov(r(5), imm(0));
    b.label("chain");
    for _ in 0..UNROLL {
        emit_op(&mut b, unit, r(20), r(16), r(18));
    }
    b.iadd(r(5), r(5).into(), imm(UNROLL));
    b.isetp(Pred(0), CmpOp::Lt, r(5).into(), imm(OPS_PER_THREAD));
    b.if_p(Pred(0)).bra("chain");
    b.iadd(r(4), r(3).into(), r(12).into());
    store(&mut b, prec, r(4), r(20));
    b.exit();

    let kernel = b.build().expect("arith microbench");
    let x_base = 0u32;
    let y_base = threads * elem;
    let out_base = 2 * threads * elem;
    let mut mem = GlobalMemory::new(3 * threads * elem);
    for t in 0..threads {
        let (x, y) = seed_values(unit, t);
        write_val(&mut mem, prec, x_base + t * elem, x);
        write_val(&mut mem, prec, y_base + t * elem, y);
    }
    MicroBench {
        name: name.to_string(),
        unit,
        kernel,
        launch: LaunchConfig::new(threads / 128, 128, vec![x_base, y_base, out_base]),
        memory: mem,
        output: (out_base, threads * elem),
    }
}

fn prec_shift(p: Precision) -> u32 {
    match p {
        Precision::Half => 1,
        Precision::Int32 | Precision::Single => 2,
        Precision::Double => 3,
    }
}

fn load(b: &mut KernelBuilder, p: Precision, dst: Reg, addr: Reg) {
    b.ldg(p.mem_width(), dst, addr, 0);
}

fn store(b: &mut KernelBuilder, p: Precision, addr: Reg, val: Reg) {
    b.stg(p.mem_width(), addr, 0, val);
}

fn mov_like(b: &mut KernelBuilder, p: Precision, dst: Reg, src: Reg) {
    b.mov(dst, src.into());
    if p == Precision::Double {
        b.mov(dst.pair_hi(), src.pair_hi().into());
    }
}

fn write_val(mem: &mut GlobalMemory, p: Precision, addr: u32, v: f64) {
    match p {
        Precision::Int32 => mem.write_u32_host(addr, v as i32 as u32),
        Precision::Half => mem.write_u16_host(addr, F16::from_f64(v).to_bits()),
        Precision::Single => mem.write_f32_host(addr, v as f32),
        Precision::Double => mem.write_f64_host(addr, v),
    }
    .expect("microbench operand buffer sized for every lane");
}

/// The chained operation: `acc = acc OP x` (FMA uses `acc = x*y + acc`).
fn emit_op(b: &mut KernelBuilder, unit: FunctionalUnit, acc: Reg, x: Reg, y: Reg) {
    use FunctionalUnit::*;
    match unit {
        Fadd => b.fadd(acc, acc.into(), x.into()),
        Fmul => b.fmul(acc, acc.into(), x.into()),
        Ffma => b.ffma(acc, x.into(), y.into(), acc.into()),
        Dadd => b.dadd(acc, acc.into(), x.into()),
        Dmul => b.dmul(acc, acc.into(), x.into()),
        Dfma => b.dfma(acc, x.into(), y.into(), acc.into()),
        Hadd => b.hadd(acc, acc.into(), x.into()),
        Hmul => b.hmul(acc, acc.into(), x.into()),
        Hfma => b.hfma(acc, x.into(), y.into(), acc.into()),
        Iadd => b.iadd(acc, acc.into(), x.into()),
        Imul => b.imul(acc, acc.into(), x.into()),
        Imad => b.imad(acc, x.into(), y.into(), acc.into()),
        other => panic!("{other:?} has no chained op"),
    };
}

/// The tensor-core micro-benchmark: each warp repeats `D = A*B + D`.
/// `half_accumulate` selects HMMA vs FMMA (FMMA casts binary32 inputs).
pub fn mma(half_accumulate: bool) -> MicroBench {
    let name = if half_accumulate { "HMMA" } else { "FMMA" };
    let prec = if half_accumulate { Precision::Half } else { Precision::Single };
    let elem = prec.size_bytes();
    let n = 16u32;
    let warps = 8u32;
    let mut b = KernelBuilder::new(name);

    // params: [a_base, b_base, d_base]; every warp uses the same A/B but
    // its own D region.
    b.s2r(r(0), SpecialReg::LaneId);
    b.s2r(r(2), SpecialReg::CtaidX); // warp index (1 warp per block)
    b.ldp(r(50), 0);
    b.ldp(r(51), 1);
    b.ldp(r(52), 2);

    // Load the A and B fragments once (packed f16 pairs in 10..14, 14..18).
    for j in 0..8u32 {
        b.imad(r(5), r(0).into(), imm(8), imm(j));
        b.shl(r(6), r(5).into(), imm(prec_shift(prec)));
        b.iadd(r(7), r(6).into(), r(50).into());
        if half_accumulate {
            b.ldg(MemWidth::W16, r(9), r(7), 0);
        } else {
            b.ldg(MemWidth::W32, r(9), r(7), 0);
            b.f2h(r(9), r(9).into());
        }
        let a_reg = 10 + (j / 2) as u8;
        if j % 2 == 0 {
            b.mov(r(a_reg), r(9).into());
        } else {
            b.shl(r(9), r(9).into(), imm(16));
            b.or(r(a_reg), r(a_reg).into(), r(9).into());
        }
        b.iadd(r(7), r(6).into(), r(51).into());
        if half_accumulate {
            b.ldg(MemWidth::W16, r(9), r(7), 0);
        } else {
            b.ldg(MemWidth::W32, r(9), r(7), 0);
            b.f2h(r(9), r(9).into());
        }
        let b_reg = 14 + (j / 2) as u8;
        if j % 2 == 0 {
            b.mov(r(b_reg), r(9).into());
        } else {
            b.shl(r(9), r(9).into(), imm(16));
            b.or(r(b_reg), r(b_reg).into(), r(9).into());
        }
    }
    // Zero accumulator.
    if half_accumulate {
        for j in 0..4u8 {
            b.mov(r(18 + j), imm(0));
        }
    } else {
        for j in 0..8u8 {
            b.mov(r(18 + j), Operand::imm_f32(0.0));
        }
    }
    // Repeat the MMA.
    b.mov(r(4), imm(0));
    b.label("mmaloop");
    for _ in 0..MMA_UNROLL {
        if half_accumulate {
            b.hmma(r(10), r(14), r(18));
        } else {
            b.fmma(r(10), r(14), r(18));
        }
    }
    b.iadd(r(4), r(4).into(), imm(MMA_UNROLL));
    b.isetp(Pred(0), CmpOp::Lt, r(4).into(), imm(MMA_OPS_PER_WARP));
    b.if_p(Pred(0)).bra("mmaloop");
    // Store D to this warp's output region.
    for j in 0..8u32 {
        b.imad(r(5), r(0).into(), imm(8), imm(j));
        // output element index = warp*256 + idx
        b.imad(r(5), r(2).into(), imm(256), r(5).into());
        b.shl(r(6), r(5).into(), imm(prec_shift(prec)));
        b.iadd(r(7), r(6).into(), r(52).into());
        if half_accumulate {
            let c_reg = 18 + (j / 2) as u8;
            if j % 2 == 0 {
                b.and(r(9), r(c_reg).into(), imm(0xFFFF));
            } else {
                b.shr(r(9), r(c_reg).into(), imm(16));
            }
            b.stg(MemWidth::W16, r(7), 0, r(9));
        } else {
            b.stg(MemWidth::W32, r(7), 0, r(18 + j as u8));
        }
    }
    b.exit();

    let kernel = b.build().expect("mma microbench");
    let a_base = 0u32;
    let b_base = n * n * elem;
    let d_base = 2 * n * n * elem;
    let out_len = warps * 256 * elem;
    let mut mem = GlobalMemory::new(d_base + out_len);
    // A near-identity-scale inputs: products in [-0.25, 0.25] so 24 chained
    // MMAs cannot overflow binary16.
    for i in 0..n {
        for j in 0..n {
            let va = (((i * 3 + j) % 5) as f64 - 2.0) / 32.0;
            let vb = (((i * 7 + j * 5) % 9) as f64 - 4.0) / 64.0;
            write_val(&mut mem, prec, a_base + (i * n + j) * elem, va);
            write_val(&mut mem, prec, b_base + (i * n + j) * elem, vb);
        }
    }
    MicroBench {
        name: name.to_string(),
        unit: if half_accumulate { FunctionalUnit::Hmma } else { FunctionalUnit::Fmma },
        kernel,
        launch: LaunchConfig::new(warps, 32, vec![a_base, b_base, d_base]),
        memory: mem,
        output: (d_base, out_len),
    }
}

/// The LDST micro-benchmark: threads copy a patterned region between two
/// global buffers repeatedly; the critical operand is the address, so
/// most faults become DUEs ("an incorrect address can either be valid or
/// invalid... the chances of invalid addresses is higher", Section V-B).
pub fn ldst() -> MicroBench {
    let threads = 512u32;
    let mut b = KernelBuilder::new("LDST");

    // params: [src_base, dst_base]
    b.s2r(r(0), SpecialReg::TidX);
    b.s2r(r(1), SpecialReg::CtaidX);
    b.s2r(r(2), SpecialReg::NtidX);
    b.imad(r(0), r(1).into(), r(2).into(), r(0).into());
    b.ldp(r(10), 0);
    b.ldp(r(11), 1);
    b.shl(r(3), r(0).into(), imm(2));
    b.iadd(r(4), r(3).into(), r(10).into()); // src addr
    b.iadd(r(5), r(3).into(), r(11).into()); // dst addr
    b.mov(r(6), imm(0));
    b.label("moveloop");
    // Ping-pong the word: src -> dst, dst -> src, preserving the pattern.
    b.ldg(MemWidth::W32, r(7), r(4), 0);
    b.stg(MemWidth::W32, r(5), 0, r(7));
    b.ldg(MemWidth::W32, r(8), r(5), 0);
    b.stg(MemWidth::W32, r(4), 0, r(8));
    b.iadd(r(6), r(6).into(), imm(1));
    b.isetp(Pred(0), CmpOp::Lt, r(6).into(), imm(LDST_MOVES));
    b.if_p(Pred(0)).bra("moveloop");
    b.exit();

    let kernel = b.build().expect("ldst microbench");
    let src_base = 0u32;
    let dst_base = 4 * threads;
    let mut mem = GlobalMemory::new(8 * threads);
    for t in 0..threads {
        mem.write_u32_host(src_base + 4 * t, 0xA5A5_0000 | t)
            .expect("shuffle source buffer covers every lane");
    }
    MicroBench {
        name: "LDST".to_string(),
        unit: FunctionalUnit::Ldst,
        kernel,
        launch: LaunchConfig::new(threads / 128, 128, vec![src_base, dst_base]),
        memory: mem,
        // Both buffers must carry the pattern at the end.
        output: (0, 8 * threads),
    }
}

/// The register-file micro-benchmark: write a known pattern into
/// [`RF_REGS`] registers, idle through a delay loop (the "exposure
/// time"), then XOR-reduce every register into a signature. Run with ECC
/// disabled, as in the paper.
pub fn register_file() -> MicroBench {
    let threads = 256u32;
    let delay = 256u32;
    let mut b = KernelBuilder::new("RF");
    b.reserve_regs(255);

    // params: [out_base]
    b.s2r(r(0), SpecialReg::TidX);
    b.s2r(r(1), SpecialReg::CtaidX);
    b.s2r(r(2), SpecialReg::NtidX);
    b.imad(r(0), r(1).into(), r(2).into(), r(0).into());
    b.ldp(r(1), 0);
    b.shl(r(2), r(0).into(), imm(2));
    b.iadd(r(1), r(1).into(), r(2).into()); // out addr
                                            // Pattern fill: registers 4..4+RF_REGS get tid-dependent patterns.
    for i in 0..RF_REGS {
        let reg = 4 + i as u8;
        // pattern = rotate(0x5A5A_A5A5, i) ^ tid — emitted as XOR of an
        // immediate with the global id.
        let pat = 0x5A5A_A5A5u32.rotate_left(i % 32);
        b.xor(r(reg), r(0).into(), imm(pat));
    }
    // Exposure delay: a tight loop touching only r2/r3.
    b.mov(r(2), imm(0));
    b.label("delay");
    b.iadd(r(2), r(2).into(), imm(1));
    b.isetp(Pred(0), CmpOp::Lt, r(2).into(), imm(delay));
    b.if_p(Pred(0)).bra("delay");
    // Read back: XOR-reduce into r3.
    b.mov(r(3), imm(0));
    for i in 0..RF_REGS {
        let reg = 4 + i as u8;
        b.xor(r(3), r(3).into(), r(reg).into());
    }
    b.stg(MemWidth::W32, r(1), 0, r(3));
    b.exit();

    let kernel = b.build().expect("rf microbench");
    let mem = GlobalMemory::new(4 * threads);
    MicroBench {
        name: "RF".to_string(),
        unit: FunctionalUnit::Other,
        kernel,
        launch: LaunchConfig::new(threads / 128, 128, vec![0]),
        memory: mem,
        output: (0, 4 * threads),
    }
}

/// All micro-benchmarks that exist for a device: its spec's `bench_units`
/// table (the Figure 3 x axis — float + int on Kepler, all precisions +
/// tensor cores on Volta/Ampere) plus the LDST and RF exposures every
/// target gets.
pub fn suite(device: &DeviceModel) -> Vec<MicroBench> {
    let mut out = Vec::new();
    for &u in &device.caps.bench_units {
        out.push(match u {
            FunctionalUnit::Hmma => mma(true),
            FunctionalUnit::Fmma => mma(false),
            _ => arith(u),
        });
    }
    out.push(ldst());
    out.push(register_file());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::ExecStatus;

    #[test]
    fn all_arith_benches_complete() {
        let volta = DeviceModel::named("v100-sim");
        for mb in suite(&volta) {
            let out = mb.execute_golden(&volta);
            assert_eq!(out.status, ExecStatus::Completed, "{}", mb.name);
            assert!(mb.output_matches(&out, &out));
        }
    }

    #[test]
    fn kepler_suite_has_no_half_or_mma() {
        let names: Vec<String> =
            suite(&DeviceModel::named("k40c")).iter().map(|m| m.name.clone()).collect();
        assert!(!names.iter().any(|n| n.starts_with('H')));
        assert!(!names.iter().any(|n| n.contains("MMA")));
        assert!(names.contains(&"LDST".to_string()));
        assert!(names.contains(&"RF".to_string()));
    }

    #[test]
    fn volta_suite_matches_figure3_axis() {
        let names: Vec<String> =
            suite(&DeviceModel::named("v100")).iter().map(|m| m.name.clone()).collect();
        for expect in [
            "HADD", "HMUL", "HFMA", "FADD", "FMUL", "FFMA", "DADD", "DMUL", "DFMA", "IADD", "IMUL",
            "IMAD", "HMMA", "FMMA", "LDST", "RF",
        ] {
            assert!(names.contains(&expect.to_string()), "missing {expect}");
        }
    }

    #[test]
    fn iadd_chain_is_fully_unmasked() {
        // A bit flipped in the integer accumulator propagates to the
        // output with probability 1 (paper: integer AVF is 100%).
        use gpu_sim::{BitFlip, FaultPlan, RunOptions, SiteClass};
        let device = DeviceModel::named("k40c-sim");
        let mb = arith(FunctionalUnit::Iadd);
        let golden = mb.execute_golden(&device);
        for nth in [0u64, 100, 5000] {
            let opts = RunOptions::trial(FaultPlan::InstructionOutput {
                nth,
                site: SiteClass::Unit(FunctionalUnit::Iadd),
                flip: BitFlip::single(7),
            });
            let out = mb.execute(&device, &opts);
            assert_eq!(out.status, ExecStatus::Completed);
            assert!(out.fault_triggered);
            assert!(!mb.output_matches(&golden, &out), "nth={nth} was masked");
        }
    }

    #[test]
    fn rf_bench_uses_full_register_file() {
        let mb = register_file();
        assert_eq!(mb.kernel.regs_per_thread, 255);
    }

    #[test]
    fn ldst_bench_roundtrip_preserves_pattern() {
        let device = DeviceModel::named("v100-sim");
        let mb = ldst();
        let out = mb.execute_golden(&device);
        assert_eq!(out.status, ExecStatus::Completed);
        // dst now carries the pattern too.
        assert_eq!(out.memory.read_u32_host(4 * 512 + 4 * 3).unwrap(), 0xA5A5_0003);
    }

    #[test]
    fn mma_bench_stresses_tensor_unit() {
        let device = DeviceModel::named("v100-sim");
        for half in [true, false] {
            let mb = mma(half);
            let out = mb.execute_golden(&device);
            assert_eq!(out.status, ExecStatus::Completed, "{}", mb.name);
            let unit = if half { FunctionalUnit::Hmma } else { FunctionalUnit::Fmma };
            assert!(out.counts.unit(unit) >= (MMA_OPS_PER_WARP * 8) as u64);
        }
    }
}
