//! Architecture-level fault injection: models of **SASSIFI** and
//! **NVBitFI** (Section III-D).
//!
//! Both frameworks instrument SASS and corrupt *architecturally visible*
//! state — instruction outputs, predicate registers, general-purpose
//! registers, addresses. Neither can reach schedulers, fetch logic, or
//! memory controllers, which is precisely why the paper finds DUE rates
//! underestimated by orders of magnitude.
//!
//! The models reproduce the documented capability differences:
//!
//! * **SASSIFI** targets Kepler/Maxwell, supports injections into the
//!   outputs of FP/INT/load instruction groups, predicate registers,
//!   general-purpose registers, and store addresses — but cannot
//!   instrument pre-compiled proprietary-library kernels (cuBLAS GEMM,
//!   cuDNN-backed YOLO) at all.
//! * **NVBitFI** targets Kepler through Turing and *can* instrument
//!   proprietary libraries, but only injects into instructions that write
//!   general-purpose registers and — as of the paper's submission —
//!   **not into half-precision instructions**, the limitation behind the
//!   HHotspot 27x overestimation (Section VII-A).
//!
//! Campaigns run on the shared [`campaign`] engine: construct a
//! [`campaign::Campaign`] with an [`Avf`] (or [`ClassAvf`]) kind and a
//! [`campaign::Budget`], e.g.
//!
//! ```ignore
//! let result = Campaign::new(Avf::new(Injector::Sassifi), &target, &device)
//!     .budget(Budget::quick())
//!     .run()?;
//! ```
//!
//! which draws single-bit faults uniformly over the target's dynamic
//! injectable-site population, runs each to completion, classifies the
//! outcome as SDC / DUE / Masked, and yields the AVF with a Wilson 95%
//! CI — stopping early once the CI target is met when the budget is
//! adaptive. (The legacy `measure_avf*` / `CampaignConfig` forwarders,
//! deprecated for several releases, are gone; see the README migration
//! notes.)

use campaign::{Budget, Campaign, CampaignRun, Kind, Sampler, TrialPlan};
use gpu_arch::decode::{FP32_ARITH_UNITS, FP64_ARITH_UNITS, HALF_ARITH_UNITS, INT_ARITH_UNITS};
use gpu_arch::{DeviceModel, FunctionalUnit, LaunchConfig, Op};
use gpu_sim::{
    BitFlip, ExecStatus, Executed, FaultPlan, FetchEffect, MemQueueEffect, Persistence, SiteClass,
    Target,
};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use stats::{binomial_ci95, Outcome, OutcomeCounts};
use std::fmt;
use std::sync::Arc;

/// The two fault-injection frameworks compared by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Injector {
    /// SASSIFI (ISPASS'17): CUDA 7-era, Kepler/Maxwell.
    Sassifi,
    /// NVBitFI (DSN'20): CUDA 10-era, Kepler..Turing.
    NvBitFi,
}

impl fmt::Display for Injector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Injector::Sassifi => write!(f, "SASSIFI"),
            Injector::NvBitFi => write!(f, "NVBitFI"),
        }
    }
}

/// Why an injector refuses a target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unsupported {
    /// The device is outside the injector's support matrix (its spec's
    /// `[exec] sassifi` capability is off).
    Device(String),
    /// SASSIFI cannot instrument proprietary-library kernels.
    ProprietaryKernel,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unsupported::Device(name) => {
                write!(f, "device {name} not supported by this injector")
            }
            Unsupported::ProprietaryKernel => {
                write!(f, "cannot instrument proprietary-library kernels")
            }
        }
    }
}

impl Injector {
    /// Can this injector instrument `target` on `device`?
    pub fn supports<T: Target + ?Sized>(
        self,
        target: &T,
        device: &DeviceModel,
    ) -> Result<(), Unsupported> {
        match self {
            Injector::Sassifi => {
                if !device.caps.sassifi {
                    return Err(Unsupported::Device(device.name.clone()));
                }
                if target.proprietary() {
                    return Err(Unsupported::ProprietaryKernel);
                }
                Ok(())
            }
            Injector::NvBitFi => Ok(()),
        }
    }
}

/// An injection mode: which fault model one run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Flip one bit of the output value of an instruction in a site class.
    Output(SiteClass),
    /// Replace the output with a random value (SASSIFI's RV model).
    OutputRandom(SiteClass),
    /// Replace the output with zero (SASSIFI's ZV model).
    OutputZero(SiteClass),
    /// Invert a predicate produced by a `SETP`.
    Predicate,
    /// Flip a bit of a live general-purpose register (SASSIFI's GPR/RF
    /// mode).
    Register,
    /// Corrupt a memory instruction's effective address (SASSIFI's
    /// store-address group, extended to loads as in its LD group).
    Address,
}

/// The result of an AVF campaign (one bar of Figure 4).
#[derive(Clone, Debug)]
pub struct AvfResult {
    /// Target name.
    pub target: String,
    /// Which injector ran.
    pub injector: Injector,
    /// Outcome tallies.
    pub counts: OutcomeCounts,
    /// SDC AVF with 95% CI.
    pub sdc: (f64, f64, f64),
    /// DUE AVF with 95% CI.
    pub due: (f64, f64, f64),
    /// Masked fraction.
    pub masked: f64,
}

impl AvfResult {
    fn from_counts(target: String, injector: Injector, counts: OutcomeCounts) -> Self {
        let total = counts.total();
        let (slo, shi) = binomial_ci95(counts.sdc, total);
        let (dlo, dhi) = binomial_ci95(counts.due, total);
        AvfResult {
            target,
            injector,
            counts,
            sdc: (counts.sdc_fraction(), slo, shi),
            due: (counts.due_fraction(), dlo, dhi),
            masked: counts.masked_fraction(),
        }
    }

    /// SDC AVF point estimate.
    pub fn sdc_avf(&self) -> f64 {
        self.sdc.0
    }

    /// SDC AVF with a resolution floor of half an event: a campaign that
    /// observed zero SDCs can only bound the AVF, not prove it zero
    /// (relevant for the CNNs, whose classification tolerance masks
    /// almost everything).
    pub fn sdc_avf_floored(&self) -> f64 {
        self.sdc_avf().max(0.5 / self.counts.total().max(1) as f64)
    }

    /// DUE AVF with the same resolution floor.
    pub fn due_avf_floored(&self) -> f64 {
        self.due_avf().max(0.5 / self.counts.total().max(1) as f64)
    }

    /// DUE AVF point estimate.
    pub fn due_avf(&self) -> f64 {
        self.due.0
    }
}

/// The modes an injector cycles through, given the target's dynamic site
/// populations (modes with an empty population are dropped).
fn available_modes(
    injector: Injector,
    sites: &gpu_sim::SiteCounts,
    unit_counts: &[u64; FunctionalUnit::COUNT],
) -> Vec<Mode> {
    let unit = |u: FunctionalUnit| unit_counts[u.index()];
    match injector {
        Injector::Sassifi => {
            // One mode per instruction group ("1,000 for each instruction
            // kind"), plus predicate, GPR and address modes.
            // Populations are sized by summing per-unit counts over the
            // shared predecode unit groups; `gpu_arch::decode` tests pin
            // these groups equal to the engine's site-class tallies.
            let mut modes = Vec::new();
            let float: u64 = FP32_ARITH_UNITS.iter().map(|&u| unit(u)).sum();
            let double: u64 = FP64_ARITH_UNITS.iter().map(|&u| unit(u)).sum();
            let int: u64 = INT_ARITH_UNITS.iter().map(|&u| unit(u)).sum();
            if float + double > 0 {
                modes.push(Mode::Output(SiteClass::FloatArith));
                modes.push(Mode::OutputRandom(SiteClass::FloatArith));
                modes.push(Mode::OutputZero(SiteClass::FloatArith));
            }
            if int > 0 {
                modes.push(Mode::Output(SiteClass::IntArith));
                modes.push(Mode::OutputRandom(SiteClass::IntArith));
            }
            if sites.loads > 0 {
                modes.push(Mode::Output(SiteClass::Load));
            }
            if sites.setp > 0 {
                modes.push(Mode::Predicate);
            }
            modes.push(Mode::Register);
            if sites.mem_ops > 0 {
                modes.push(Mode::Address);
            }
            modes
        }
        Injector::NvBitFi => {
            // Injections into instructions that write GPRs — excluding
            // half-precision ops (documented limitation).
            if sites.gpr_writers_no_half > 0 {
                vec![Mode::Output(SiteClass::GprWriterNoHalf)]
            } else {
                Vec::new()
            }
        }
    }
}

/// Population size of a site class (for uniform `nth` sampling).
fn class_population(
    class: SiteClass,
    sites: &gpu_sim::SiteCounts,
    unit_counts: &[u64; FunctionalUnit::COUNT],
) -> u64 {
    let unit = |u: FunctionalUnit| unit_counts[u.index()];
    match class {
        SiteClass::GprWriter => sites.gpr_writers,
        SiteClass::GprWriterNoHalf => sites.gpr_writers_no_half,
        SiteClass::FloatArith => {
            FP32_ARITH_UNITS.iter().chain(FP64_ARITH_UNITS.iter()).map(|&u| unit(u)).sum()
        }
        SiteClass::HalfArith => HALF_ARITH_UNITS.iter().map(|&u| unit(u)).sum(),
        SiteClass::IntArith => INT_ARITH_UNITS.iter().map(|&u| unit(u)).sum(),
        SiteClass::Load => sites.loads,
        SiteClass::Unit(u) => unit(u),
    }
}

/// Bit-width hint for sampling a flip position in a class.
fn class_bits(class: SiteClass) -> u32 {
    match class {
        SiteClass::HalfArith => 16,
        SiteClass::Unit(u) => match u {
            FunctionalUnit::Hadd
            | FunctionalUnit::Hmul
            | FunctionalUnit::Hfma
            | FunctionalUnit::Hmma => 16,
            FunctionalUnit::Dadd | FunctionalUnit::Dmul | FunctionalUnit::Dfma => 64,
            _ => 32,
        },
        // NVBitFI and SASSIFI flip bits of 32-bit architectural registers;
        // 64-bit values occupy two registers and each injection touches
        // one of them — the low word here (documented simplification).
        _ => 32,
    }
}

/// Draw one fault plan for `mode`.
fn sample_plan<R: Rng>(
    rng: &mut R,
    mode: Mode,
    golden: &Executed,
    target_launch: &LaunchConfig,
    regs_per_thread: u16,
) -> Option<FaultPlan> {
    let sites = &golden.counts.sites;
    match mode {
        Mode::Output(class) => {
            let pop = class_population(class, sites, &golden.counts.per_unit);
            if pop == 0 {
                return None;
            }
            let nth = rng.gen_range(0..pop);
            let bit = rng.gen_range(0..class_bits(class));
            Some(FaultPlan::InstructionOutput { nth, site: class, flip: BitFlip::single(bit) })
        }
        Mode::OutputRandom(class) => {
            let pop = class_population(class, sites, &golden.counts.per_unit);
            if pop == 0 {
                return None;
            }
            Some(FaultPlan::InstructionOutputSet {
                nth: rng.gen_range(0..pop),
                site: class,
                value: rng.gen::<u64>(),
            })
        }
        Mode::OutputZero(class) => {
            let pop = class_population(class, sites, &golden.counts.per_unit);
            if pop == 0 {
                return None;
            }
            Some(FaultPlan::InstructionOutputSet {
                nth: rng.gen_range(0..pop),
                site: class,
                value: 0,
            })
        }
        Mode::Predicate => {
            if sites.setp == 0 {
                return None;
            }
            Some(FaultPlan::PredicateOutput { nth: rng.gen_range(0..sites.setp) })
        }
        Mode::Register => {
            let at = rng.gen_range(0..golden.counts.total.max(1));
            let block = rng.gen_range(0..target_launch.grid.count()) as u32;
            let thread = rng.gen_range(0..target_launch.block.count()) as u32;
            let reg = rng.gen_range(0..regs_per_thread.max(1)) as u8;
            Some(FaultPlan::RegisterBit {
                block,
                thread,
                reg,
                flip: BitFlip::single(rng.gen_range(0..32)),
                at,
            })
        }
        Mode::Address => {
            if sites.mem_ops == 0 {
                return None;
            }
            Some(FaultPlan::MemAddress {
                nth: rng.gen_range(0..sites.mem_ops),
                flip: BitFlip::single(rng.gen_range(0..32)),
            })
        }
    }
}

/// How the static oracle resolved one sampled fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StaticResolution {
    /// No proof applies: simulate the trial.
    Simulate,
    /// Provably Masked: no observed bit ever differs from the golden run.
    Masked,
    /// Provably a DUE of this kind: the corrupted value reaches a
    /// misaligned or out-of-bounds access before anything else can
    /// observe it.
    Due(gpu_sim::DueKind),
}

/// The static fault-resolution oracle backing pruned AVF campaigns
/// ([`Avf::new_pruned`]).
///
/// Built from the memoized [`sass_analysis::analyze`] result —
/// [`sass_analysis::StaticMasks`] (bit-level liveness) plus
/// [`sass_analysis::KernelVerdicts`] (value-flow taint verdicts and
/// interval/alignment DUE proofs) — and the golden run's site provenance
/// ([`gpu_sim::SitesRecord`]), which resolves a sampled `nth` dynamic
/// site to the static pc the corruption lands on. A trial the oracle
/// proves Masked (or a DUE of a specific kind) is tallied directly
/// instead of simulated; the outcome counts are bit-identical to the
/// unpruned campaign because the sampler consumes the RNG identically
/// and only replaces provably-resolved executions.
struct PruneState {
    analysis: Arc<sass_analysis::KernelAnalysis>,
    /// Per site class in the mode rotation: the golden dynamic site
    /// stream filtered to that class, mirroring the engine's in-order
    /// `site_matches` numbering.
    class_streams: Vec<(SiteClass, Vec<u32>)>,
    /// Per linear block: `[start, end)` dynamic-index residency window.
    block_windows: Vec<(u64, u64)>,
    /// Dynamic memory-op pc stream (the engine's `MemAddress` `nth`
    /// numbering).
    mem_pcs: Vec<u32>,
    /// Dynamic SETP pc stream (the engine's `PredicateOutput` `nth`
    /// numbering).
    setp_pcs: Vec<u32>,
}

impl PruneState {
    fn build(
        kernel: &gpu_arch::Kernel,
        launch: &LaunchConfig,
        global_bytes: u64,
        record: &gpu_sim::SitesRecord,
        modes: &[Mode],
    ) -> Self {
        let mut classes: Vec<SiteClass> = Vec::new();
        for m in modes {
            if let Mode::Output(c) | Mode::OutputRandom(c) | Mode::OutputZero(c) = *m {
                if !classes.contains(&c) {
                    classes.push(c);
                }
            }
        }
        let class_streams = classes
            .into_iter()
            .map(|c| {
                let stream = record
                    .site_pcs
                    .iter()
                    .copied()
                    .filter(|&pc| c.matches(kernel.instrs[pc as usize].op))
                    .collect();
                (c, stream)
            })
            .collect();
        let ctx = sass_analysis::AnalysisContext::for_launch(launch, global_bytes);
        PruneState {
            analysis: sass_analysis::analyze(kernel, &ctx),
            class_streams,
            block_windows: record.block_windows.clone(),
            mem_pcs: record.mem_pcs.clone(),
            setp_pcs: record.setp_pcs.clone(),
        }
    }

    /// Static pc of the `nth` dynamic site of `class` (the instruction the
    /// engine's in-order site numbering lands the fault on).
    fn pc_of(&self, class: SiteClass, nth: u64) -> Option<u32> {
        let stream = &self.class_streams.iter().find(|(c, _)| *c == class)?.1;
        stream.get(nth as usize).copied()
    }

    /// Statically resolve `plan`. Sound only for ECC-off runs (AVF
    /// campaigns), where a register strike lands raw instead of being
    /// corrected/detected.
    fn resolve(&self, plan: &FaultPlan, regs_per_thread: u16) -> StaticResolution {
        use sass_analysis::SiteVerdict;
        let masks = &self.analysis.masks;
        let verdicts = &self.analysis.verdicts;
        match *plan {
            FaultPlan::InstructionOutput { nth, site, flip } => {
                let Some(pc) = self.pc_of(site, nth) else {
                    return StaticResolution::Simulate;
                };
                if masks.output_flip_masked(pc, flip.mask)
                    || verdicts.output_verdict(pc) == SiteVerdict::ProvenMasked
                {
                    return StaticResolution::Masked;
                }
                if let Some(kind) = verdicts.output_flip_due(pc, flip.mask) {
                    return StaticResolution::Due(kind);
                }
                StaticResolution::Simulate
            }
            FaultPlan::InstructionOutputSet { nth, site, .. } => {
                let masked = self.pc_of(site, nth).is_some_and(|pc| {
                    masks.output_replace_masked(pc)
                        || verdicts.output_verdict(pc) == SiteVerdict::ProvenMasked
                });
                if masked {
                    StaticResolution::Masked
                } else {
                    StaticResolution::Simulate
                }
            }
            FaultPlan::RegisterBit { block, thread: _, reg, flip, at } => {
                let Some(&(start, end)) = self.block_windows.get(block as usize) else {
                    return StaticResolution::Simulate;
                };
                if at < start || at >= end {
                    // Blocks run sequentially; a strike timed outside the
                    // target block's residency window is the engine's
                    // "target block not resident" no-op.
                    return StaticResolution::Masked;
                }
                if masks.register_flip_masked(reg, regs_per_thread, flip.mask as u32) {
                    StaticResolution::Masked
                } else {
                    StaticResolution::Simulate
                }
            }
            FaultPlan::PredicateOutput { nth } => {
                let masked = self
                    .setp_pcs
                    .get(nth as usize)
                    .is_some_and(|&pc| verdicts.predicate_verdict(pc) == SiteVerdict::ProvenMasked);
                if masked {
                    StaticResolution::Masked
                } else {
                    StaticResolution::Simulate
                }
            }
            FaultPlan::MemAddress { nth, flip } => {
                let due = self
                    .mem_pcs
                    .get(nth as usize)
                    .and_then(|&pc| verdicts.mem_flip_due(pc, flip.mask));
                match due {
                    Some(kind) => StaticResolution::Due(kind),
                    None => StaticResolution::Simulate,
                }
            }
            // PC and whole-value memory faults are never resolved
            // statically.
            _ => StaticResolution::Simulate,
        }
    }

    /// Verdict stratum of the static site `plan` lands on, for the
    /// campaign's `campaign.pruned.*` / `campaign.verdict.*` telemetry.
    fn stratum_of(&self, plan: &FaultPlan) -> Option<&'static str> {
        let verdicts = &self.analysis.verdicts;
        let verdict = match *plan {
            FaultPlan::InstructionOutput { nth, site, .. }
            | FaultPlan::InstructionOutputSet { nth, site, .. } => {
                verdicts.output_verdict(self.pc_of(site, nth)?)
            }
            FaultPlan::PredicateOutput { nth } => {
                verdicts.predicate_verdict(*self.setp_pcs.get(nth as usize)?)
            }
            FaultPlan::MemAddress { nth, .. } => {
                verdicts.mem_verdict(*self.mem_pcs.get(nth as usize)?)
            }
            // Register-file strikes have no single static site.
            _ => return None,
        };
        Some(stratum_name(verdict))
    }
}

/// Collapse a [`sass_analysis::SiteVerdict`] to the four-stratum naming
/// used by [`sass_analysis::VerdictSummary`] and the campaign counters
/// (`AddressReaching` and `ControlReaching` are both DUE-prone and
/// share the `addr_ctl` stratum).
fn stratum_name(v: sass_analysis::SiteVerdict) -> &'static str {
    use sass_analysis::SiteVerdict;
    match v {
        SiteVerdict::ProvenMasked => "masked",
        SiteVerdict::StoreReaching => "store",
        SiteVerdict::AddressReaching | SiteVerdict::ControlReaching => "addr_ctl",
        SiteVerdict::Unknown => "unknown",
    }
}

/// Classify one faulty run against the golden run.
pub fn classify<T: Target + ?Sized>(target: &T, golden: &Executed, faulty: &Executed) -> Outcome {
    match faulty.status {
        ExecStatus::Due(_) => Outcome::Due,
        ExecStatus::Completed => {
            if target.output_matches(golden, faulty) {
                Outcome::Masked
            } else {
                Outcome::Sdc
            }
        }
    }
}

/// The AVF campaign kind: single-bit (and SASSIFI RV/ZV) faults drawn
/// uniformly over the injector's site population, cycling the budget
/// evenly across the available modes.
///
/// Injection runs execute with ECC disabled in the simulator: an
/// instrumentation-based injector writes state architecturally, so ECC
/// never sees a raw bit error (unlike particle strikes).
///
/// Check [`Injector::supports`] before running: `prepare` panics on an
/// unsupported (target, device) pair, mirroring the real frameworks'
/// hard instrumentation failures.
#[derive(Clone, Copy, Debug)]
pub struct Avf {
    /// Which framework's capability model to apply.
    pub injector: Injector,
    /// Skip trials a static proof already classifies as Masked or as a
    /// DUE (see [`Avf::new_pruned`]). Outcome tallies are bit-identical
    /// to the unpruned campaign; only the number of *simulated* trials
    /// shrinks.
    pub pruned: bool,
}

impl Avf {
    /// An AVF campaign kind for `injector`.
    pub fn new(injector: Injector) -> Self {
        Avf { injector, pruned: false }
    }

    /// [`Avf::new`] with static-resolution pruning: trials whose sampled
    /// fault is provably unobservable (dead destination bits, sites whose
    /// value-flow taint reaches no store/address/branch, never-read
    /// register bits, strikes timed outside the target block's residency)
    /// are tallied Masked directly, and single-bit flips proven to
    /// produce a misaligned or out-of-bounds access are tallied as DUEs
    /// of the proven kind — both without simulating. The sampler draws
    /// from the RNG exactly as the unpruned campaign does, so
    /// SDC/DUE/Masked counts match it bit for bit at equal seeds.
    pub fn new_pruned(injector: Injector) -> Self {
        Avf { injector, pruned: true }
    }
}

/// Sampler state for [`Avf`]: the golden run's site populations and the
/// mode rotation (plus the static masking oracle when pruning).
pub struct AvfSampler {
    golden: Arc<Executed>,
    modes: Vec<Mode>,
    launch: LaunchConfig,
    regs_per_thread: u16,
    prune: Option<PruneState>,
}

impl Sampler for AvfSampler {
    fn sample(&self, trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan {
        // SASSIFI splits the budget evenly across instruction kinds
        // ("1,000 for each instruction kind"); cycling on the global
        // trial index achieves the same, independent of sharding.
        let mode = self.modes[(trial % self.modes.len() as u64) as usize];
        match sample_plan(rng, mode, &self.golden, &self.launch, self.regs_per_thread) {
            Some(plan) => {
                if let Some(pr) = &self.prune {
                    match pr.resolve(&plan, self.regs_per_thread) {
                        StaticResolution::Masked => {
                            return TrialPlan::Direct {
                                outcome: Outcome::Masked,
                                due: None,
                                label: "static-masked",
                            };
                        }
                        StaticResolution::Due(kind) => {
                            return TrialPlan::Direct {
                                outcome: Outcome::Due,
                                due: Some(kind),
                                label: "static-due",
                            };
                        }
                        StaticResolution::Simulate => {}
                    }
                }
                TrialPlan::Fault(plan)
            }
            // A mode whose population turned out empty: the fault has no
            // site to land on, so the run is trivially masked.
            None => TrialPlan::Direct { outcome: Outcome::Masked, due: None, label: "presampled" },
        }
    }

    fn stratum(&self, _trial: u64, plan: &TrialPlan) -> Option<&'static str> {
        let pr = self.prune.as_ref()?;
        match plan {
            // Pruned trials: proven-Masked sites land in the masked
            // stratum; proven-DUE sites are DUE-prone by construction
            // (the corrupted value reaches an address), so they count
            // under the DUE-prone stratum.
            TrialPlan::Direct { label, .. } => match *label {
                "static-masked" => Some("masked"),
                "static-due" => Some("addr_ctl"),
                _ => None,
            },
            TrialPlan::Fault(plan) => pr.stratum_of(plan),
        }
    }
}

impl<T: Target + Sync + ?Sized> Kind<T> for Avf {
    type Sampler = AvfSampler;
    type Output = AvfResult;

    fn label(&self) -> String {
        let base = match self.injector {
            Injector::Sassifi => "avf/sassifi",
            Injector::NvBitFi => "avf/nvbitfi",
        };
        if self.pruned {
            format!("{base}+prune")
        } else {
            base.to_string()
        }
    }

    fn ecc(&self) -> bool {
        false
    }

    fn record_sites(&self) -> bool {
        self.pruned
    }

    fn prepare(&self, target: &T, device: &DeviceModel, golden: &Arc<Executed>) -> AvfSampler {
        if let Err(why) = self.injector.supports(target, device) {
            panic!("{} cannot instrument {}: {why}", self.injector, target.name());
        }
        let modes = available_modes(self.injector, &golden.counts.sites, &golden.counts.per_unit);
        assert!(!modes.is_empty(), "no injectable sites in {}", target.name());
        let prune = self.pruned.then(|| {
            let record = golden
                .sites_record
                .as_ref()
                .expect("pruned AVF campaign requires a site-recorded golden run");
            PruneState::build(
                target.kernel(),
                target.launch(),
                golden.memory.len() as u64,
                record,
                &modes,
            )
        });
        AvfSampler {
            golden: Arc::clone(golden),
            modes,
            launch: target.launch().clone(),
            regs_per_thread: target.kernel().regs_per_thread,
            prune,
        }
    }

    fn finish(&self, target: &T, _sampler: &AvfSampler, run: &CampaignRun) -> AvfResult {
        AvfResult::from_counts(target.name().to_string(), self.injector, run.counts)
    }
}

/// A capability-ablation campaign kind: injections restricted to one site
/// class, regardless of any real framework's mode set. Used for the
/// Figure 3 / Section V-A unit-AVF de-masking and for "what if NVBitFI
/// could inject into half-precision?" ablations (Section VII-A).
///
/// Results are reported under [`Injector::NvBitFi`], the framework such
/// single-class campaigns model.
#[derive(Clone, Copy, Debug)]
pub struct ClassAvf {
    /// The site class all faults target.
    pub class: SiteClass,
}

impl ClassAvf {
    /// A campaign kind injecting only into `class`.
    pub fn new(class: SiteClass) -> Self {
        ClassAvf { class }
    }

    /// A campaign kind injecting only into outputs of `unit` (the
    /// micro-benchmark unit-AVF measurement).
    pub fn unit(unit: FunctionalUnit) -> Self {
        ClassAvf { class: SiteClass::Unit(unit) }
    }
}

/// Sampler state for [`ClassAvf`]: the class population and flip width.
pub struct ClassAvfSampler {
    class: SiteClass,
    population: u64,
    bits: u32,
}

impl Sampler for ClassAvfSampler {
    fn sample(&self, _trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan {
        if self.population == 0 {
            return TrialPlan::Direct { outcome: Outcome::Masked, due: None, label: "empty-class" };
        }
        TrialPlan::Fault(FaultPlan::InstructionOutput {
            nth: rng.gen_range(0..self.population),
            site: self.class,
            flip: BitFlip::single(rng.gen_range(0..self.bits)),
        })
    }
}

impl<T: Target + Sync + ?Sized> Kind<T> for ClassAvf {
    type Sampler = ClassAvfSampler;
    type Output = AvfResult;

    fn label(&self) -> String {
        format!("avf/class/{}", self.class.label())
    }

    fn ecc(&self) -> bool {
        false
    }

    fn prepare(
        &self,
        _target: &T,
        _device: &DeviceModel,
        golden: &Arc<Executed>,
    ) -> ClassAvfSampler {
        ClassAvfSampler {
            class: self.class,
            population: class_population(self.class, &golden.counts.sites, &golden.counts.per_unit),
            bits: class_bits(self.class),
        }
    }

    fn finish(&self, target: &T, _sampler: &ClassAvfSampler, run: &CampaignRun) -> AvfResult {
        AvfResult::from_counts(target.name().to_string(), Injector::NvBitFi, run.counts)
    }
}

/// AVF broken down by injection-site class: which *kind* of instruction,
/// once corrupted, drives the code's failure rate. The paper's conclusion
/// ("this data can be used to tune future fault simulation frameworks")
/// calls for exactly this decomposition.
#[derive(Clone, Debug)]
pub struct AvfBreakdown {
    /// Target name.
    pub target: String,
    /// Per-class results (classes with zero population are omitted).
    pub per_class: Vec<(SiteClass, AvfResult)>,
}

/// Measure the SDC/DUE AVF separately per site class. Every per-class
/// campaign shares the same cached golden run and `budget`.
pub fn measure_avf_breakdown<T: Target + Sync + ?Sized>(
    target: &T,
    device: &DeviceModel,
    budget: &Budget,
) -> AvfBreakdown {
    let (golden, _) =
        campaign::golden::fetch(target, device, campaign::golden::GoldenRequest::new(false))
            .expect("golden run failed");
    let classes =
        [SiteClass::FloatArith, SiteClass::HalfArith, SiteClass::IntArith, SiteClass::Load];
    let mut per_class = Vec::new();
    for class in classes {
        let pop = class_population(class, &golden.counts.sites, &golden.counts.per_unit);
        if pop == 0 {
            continue;
        }
        let r = Campaign::new(ClassAvf::new(class), target, device)
            .budget(budget.clone())
            .run()
            .expect("class-AVF campaign failed");
        per_class.push((class, r));
    }
    AvfBreakdown { target: target.name().to_string(), per_class }
}

/// One hidden micro-architectural resource class — state neither SASSIFI
/// nor NVBitFI can reach, and the paper's explanation for their
/// orders-of-magnitude DUE underestimation (Section VII-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HiddenClass {
    /// Warp-scheduler entries: next-pc fields and issue priority.
    Scheduler,
    /// Fetch/decode stage: stale instruction replays and opcode-bit flips.
    Fetch,
    /// Warp active masks: lanes forced off or exited lanes revived.
    Mask,
    /// Block barrier arrival counters: phantom and lost arrivals.
    Barrier,
    /// Pending-memory-queue entries: drops, stuck replays, poison flags.
    MemQueue,
}

impl HiddenClass {
    /// Every hidden class, in reporting order.
    pub const ALL: [HiddenClass; 5] = [
        HiddenClass::Scheduler,
        HiddenClass::Fetch,
        HiddenClass::Mask,
        HiddenClass::Barrier,
        HiddenClass::MemQueue,
    ];

    /// Short identifier used in coverage labels, metric names
    /// (`campaign.hidden.<label>.*`) and gap reports.
    pub fn label(self) -> &'static str {
        match self {
            HiddenClass::Scheduler => "scheduler",
            HiddenClass::Fetch => "fetch",
            HiddenClass::Mask => "mask",
            HiddenClass::Barrier => "barrier",
            HiddenClass::MemQueue => "memq",
        }
    }

    /// The site label the engine reports for this class's fault plans
    /// (matches [`FaultPlan::site_label`]).
    pub fn site_label(self) -> &'static str {
        match self {
            HiddenClass::Scheduler => "hidden-scheduler",
            HiddenClass::Fetch => "hidden-fetch",
            HiddenClass::Mask => "hidden-mask",
            HiddenClass::Barrier => "hidden-barrier",
            HiddenClass::MemQueue => "hidden-memq",
        }
    }

    fn bit(self) -> u8 {
        match self {
            HiddenClass::Scheduler => 1 << 0,
            HiddenClass::Fetch => 1 << 1,
            HiddenClass::Mask => 1 << 2,
            HiddenClass::Barrier => 1 << 3,
            HiddenClass::MemQueue => 1 << 4,
        }
    }
}

impl fmt::Display for HiddenClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Which hidden resource classes a campaign (and hence a prediction) can
/// reach — the independent variable of the Figure 6 gap-closure ladder.
/// An empty coverage models today's architecture-level injectors; full
/// coverage models an injector extended with every hidden site the
/// simulator exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct HiddenCoverage {
    bits: u8,
}

impl HiddenCoverage {
    /// No hidden class covered (the register-only status quo).
    pub fn none() -> Self {
        HiddenCoverage { bits: 0 }
    }

    /// Every hidden class covered.
    pub fn full() -> Self {
        HiddenCoverage::of(&HiddenClass::ALL)
    }

    /// Coverage of exactly `classes`.
    pub fn of(classes: &[HiddenClass]) -> Self {
        classes.iter().fold(HiddenCoverage::none(), |c, &cl| c.with(cl))
    }

    /// This coverage extended with `class`.
    pub fn with(self, class: HiddenClass) -> Self {
        HiddenCoverage { bits: self.bits | class.bit() }
    }

    /// Does this coverage include `class`?
    pub fn covers(self, class: HiddenClass) -> bool {
        self.bits & class.bit() != 0
    }

    /// The covered classes, in [`HiddenClass::ALL`] order.
    pub fn classes(self) -> Vec<HiddenClass> {
        HiddenClass::ALL.into_iter().filter(|&c| self.covers(c)).collect()
    }

    /// Number of covered classes.
    pub fn count(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// True when no class is covered.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Stable label: `none`, `full`, or a `+`-joined class list.
    pub fn label(self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        if self == HiddenCoverage::full() {
            return "full".to_string();
        }
        self.classes().iter().map(|c| c.label()).collect::<Vec<_>>().join("+")
    }
}

impl fmt::Display for HiddenCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The result of a hidden-resource injection campaign.
#[derive(Clone, Debug)]
pub struct HiddenResult {
    /// Target name.
    pub target: String,
    /// The coverage the campaign sampled from.
    pub coverage: HiddenCoverage,
    /// Outcome tallies.
    pub counts: OutcomeCounts,
    /// SDC probability with 95% CI.
    pub sdc: (f64, f64, f64),
    /// DUE probability with 95% CI.
    pub due: (f64, f64, f64),
    /// Masked fraction.
    pub masked: f64,
}

impl HiddenResult {
    fn from_counts(target: String, coverage: HiddenCoverage, counts: OutcomeCounts) -> Self {
        let total = counts.total();
        let (slo, shi) = binomial_ci95(counts.sdc, total);
        let (dlo, dhi) = binomial_ci95(counts.due, total);
        HiddenResult {
            target,
            coverage,
            counts,
            sdc: (counts.sdc_fraction(), slo, shi),
            due: (counts.due_fraction(), dlo, dhi),
            masked: counts.masked_fraction(),
        }
    }

    /// P(SDC | hidden strike) point estimate.
    pub fn sdc_avf(&self) -> f64 {
        self.sdc.0
    }

    /// P(DUE | hidden strike) point estimate.
    pub fn due_avf(&self) -> f64 {
        self.due.0
    }

    /// [`HiddenResult::due_avf`] with a half-event resolution floor.
    pub fn due_avf_floored(&self) -> f64 {
        self.due_avf().max(0.5 / self.counts.total().max(1) as f64)
    }
}

/// The hidden classes `target`'s golden run actually exercises: scheduler,
/// fetch and mask state exist for every kernel; barrier counters only for
/// kernels that synchronize; the pending-memory queue only when the run
/// performs memory operations.
pub fn hidden_classes_available(kernel: &gpu_arch::Kernel, golden: &Executed) -> Vec<HiddenClass> {
    let mut classes = vec![HiddenClass::Scheduler, HiddenClass::Fetch, HiddenClass::Mask];
    if kernel.instrs.iter().any(|i| i.op == Op::Bar) {
        classes.push(HiddenClass::Barrier);
    }
    if golden.counts.sites.mem_ops > 0 {
        classes.push(HiddenClass::MemQueue);
    }
    classes
}

/// The hidden-resource campaign kind: faults drawn uniformly over the
/// covered (and live) hidden classes, cycling the budget evenly across
/// them the way [`Avf`] cycles injection modes. Each trial draws the
/// persistence first (transient vs. stuck-at, 50/50, following the NSREC
/// 2021 parallelism-management observations), then the class-specific
/// site.
///
/// Like instrumentation-based injection, trials run with ECC off — the
/// corrupted state (scheduler SRAM, queue entries, fetch latches) is
/// outside the ECC-protected register/memory arrays anyway.
#[derive(Clone, Copy, Debug)]
pub struct HiddenAvf {
    /// Which hidden classes faults may land on.
    pub coverage: HiddenCoverage,
}

impl HiddenAvf {
    /// A hidden campaign over `coverage`.
    pub fn new(coverage: HiddenCoverage) -> Self {
        HiddenAvf { coverage }
    }

    /// A hidden campaign over every class.
    pub fn full() -> Self {
        HiddenAvf::new(HiddenCoverage::full())
    }

    /// A hidden campaign over exactly one class (the per-class
    /// P(DUE | strike) measurement predictions consume).
    pub fn class(class: HiddenClass) -> Self {
        HiddenAvf::new(HiddenCoverage::of(&[class]))
    }
}

/// Sampler state for [`HiddenAvf`]: the live covered classes and the
/// golden run's population sizes.
pub struct HiddenSampler {
    classes: Vec<HiddenClass>,
    total: u64,
    mem_ops: u64,
    warps_per_block: u32,
}

impl Sampler for HiddenSampler {
    fn sample(&self, trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan {
        let class = self.classes[(trial % self.classes.len() as u64) as usize];
        let persist = if rng.gen_bool(0.5) { Persistence::StuckAt } else { Persistence::Transient };
        let plan = match class {
            HiddenClass::Scheduler => {
                let at = rng.gen_range(0..self.total);
                let warp = rng.gen_range(0..self.warps_per_block);
                if rng.gen_bool(0.5) {
                    FaultPlan::SchedulerNextPc {
                        at,
                        warp,
                        flip: BitFlip::single(rng.gen_range(0..16)),
                        persist,
                    }
                } else {
                    FaultPlan::SchedulerPriority { at, warp, persist }
                }
            }
            HiddenClass::Fetch => {
                let at = rng.gen_range(0..self.total);
                let effect = if rng.gen_bool(0.5) {
                    FetchEffect::StaleReplay
                } else {
                    FetchEffect::OpcodeFlip(BitFlip::single(rng.gen_range(0..16)))
                };
                FaultPlan::Fetch { at, effect, persist }
            }
            HiddenClass::Mask => FaultPlan::ActiveMask {
                at: rng.gen_range(0..self.total),
                warp: rng.gen_range(0..self.warps_per_block),
                flip: BitFlip::single(rng.gen_range(0..32)),
                persist,
            },
            HiddenClass::Barrier => FaultPlan::BarrierCounter {
                at: rng.gen_range(0..self.total),
                phantom: rng.gen_bool(0.5),
                persist,
            },
            HiddenClass::MemQueue => {
                let nth = rng.gen_range(0..self.mem_ops);
                let effect = match rng.gen_range(0..3u32) {
                    0 => MemQueueEffect::Drop,
                    1 => MemQueueEffect::Replay,
                    _ => MemQueueEffect::Flag,
                };
                FaultPlan::MemQueue { nth, effect, persist }
            }
        };
        TrialPlan::Fault(plan)
    }
}

impl<T: Target + Sync + ?Sized> Kind<T> for HiddenAvf {
    type Sampler = HiddenSampler;
    type Output = HiddenResult;

    fn label(&self) -> String {
        format!("avf/hidden/{}", self.coverage.label())
    }

    fn ecc(&self) -> bool {
        false
    }

    fn prepare(&self, target: &T, _device: &DeviceModel, golden: &Arc<Executed>) -> HiddenSampler {
        let available = hidden_classes_available(target.kernel(), golden);
        let classes: Vec<HiddenClass> =
            available.into_iter().filter(|&c| self.coverage.covers(c)).collect();
        assert!(
            !classes.is_empty(),
            "hidden coverage '{}' reaches no live resource in {}",
            self.coverage,
            target.name()
        );
        HiddenSampler {
            classes,
            total: golden.counts.total.max(1),
            mem_ops: golden.counts.sites.mem_ops,
            warps_per_block: target.launch().block.count().div_ceil(32).max(1) as u32,
        }
    }

    fn finish(&self, target: &T, _sampler: &HiddenSampler, run: &CampaignRun) -> HiddenResult {
        HiddenResult::from_counts(target.name().to_string(), self.coverage, run.counts)
    }
}

/// P(DUE | strike) broken down per hidden class: the calibration table a
/// hidden-aware DUE prediction multiplies against the beam room's hidden
/// strike rates.
#[derive(Clone, Debug)]
pub struct HiddenBreakdown {
    /// Target name.
    pub target: String,
    /// Per-class results (classes the target never exercises are
    /// omitted).
    pub per_class: Vec<(HiddenClass, HiddenResult)>,
}

impl HiddenBreakdown {
    /// P(DUE | strike in `class`), if the target exercises it.
    pub fn due_fraction(&self, class: HiddenClass) -> Option<f64> {
        self.per_class.iter().find(|(c, _)| *c == class).map(|(_, r)| r.due_avf())
    }
}

/// Measure P(SDC/DUE | strike) separately per live hidden class. Every
/// per-class campaign shares the same cached golden run and `budget`.
pub fn measure_hidden_breakdown<T: Target + Sync + ?Sized>(
    target: &T,
    device: &DeviceModel,
    budget: &Budget,
) -> HiddenBreakdown {
    let (golden, _) =
        campaign::golden::fetch(target, device, campaign::golden::GoldenRequest::new(false))
            .expect("golden run failed");
    let mut per_class = Vec::new();
    for class in hidden_classes_available(target.kernel(), &golden) {
        let r = Campaign::new(HiddenAvf::class(class), target, device)
            .budget(budget.clone())
            .run()
            .expect("hidden-class campaign failed");
        per_class.push((class, r));
    }
    HiddenBreakdown { target: target.name().to_string(), per_class }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::{CodeGen, Precision};
    use workloads::{build, Benchmark, Scale};

    fn budget(n: u32) -> Budget {
        Budget::fixed(n).seed(42)
    }

    fn avf<T: Target + Sync + ?Sized>(
        injector: Injector,
        target: &T,
        device: &DeviceModel,
        n: u32,
    ) -> AvfResult {
        Campaign::new(Avf::new(injector), target, device).budget(budget(n)).run().unwrap()
    }

    #[test]
    fn sassifi_rejects_volta_and_proprietary() {
        let volta = DeviceModel::named("v100-sim");
        let kepler = DeviceModel::named("k40c-sim");
        let mxm = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let gemm = build(Benchmark::Gemm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        assert_eq!(
            Injector::Sassifi.supports(&mxm, &volta),
            Err(Unsupported::Device(volta.name.clone()))
        );
        assert_eq!(Injector::Sassifi.supports(&mxm, &kepler), Ok(()));
        assert_eq!(Injector::Sassifi.supports(&gemm, &kepler), Err(Unsupported::ProprietaryKernel));
        assert_eq!(Injector::NvBitFi.supports(&gemm, &volta), Ok(()));
        assert_eq!(Injector::NvBitFi.supports(&gemm, &kepler), Ok(()));
    }

    #[test]
    fn campaign_is_reproducible() {
        let kepler = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let a = avf(Injector::Sassifi, &w, &kepler, 60);
        let b = avf(Injector::Sassifi, &w, &kepler, 60);
        assert_eq!(a.counts, b.counts);
    }

    /// The pruning regression contract: at equal seeds a pruned campaign
    /// must reproduce the unpruned SDC/DUE/Masked tallies bit for bit
    /// while *simulating* strictly fewer trials. If the static oracle
    /// ever mislabeled a consequential fault as Masked, the tallies would
    /// diverge here.
    #[test]
    fn pruned_campaign_is_bit_identical_and_simulates_fewer_trials() {
        let cases: [(Injector, DeviceModel, Precision); 2] = [
            (Injector::NvBitFi, DeviceModel::named("v100-sim"), Precision::Half),
            (Injector::Sassifi, DeviceModel::named("k40c-sim"), Precision::Single),
        ];
        for (injector, device, precision) in cases {
            let w = build(Benchmark::Mxm, precision, CodeGen::Cuda7, Scale::Tiny);
            let (base, base_run) = Campaign::new(Avf::new(injector), &w, &device)
                .budget(budget(200))
                .run_full()
                .unwrap();
            let (pruned, pruned_run) = Campaign::new(Avf::new_pruned(injector), &w, &device)
                .budget(budget(200))
                .run_full()
                .unwrap();
            assert_eq!(base.counts, pruned.counts, "{injector} tallies diverged");
            assert!(
                pruned_run.executed.total() < base_run.executed.total(),
                "{injector}: pruned campaign simulated {} of {} trials",
                pruned_run.executed.total(),
                base_run.executed.total(),
            );
            let skipped = pruned_run.direct.get("static-masked").map_or(0, |c| c.total())
                + pruned_run.direct.get("static-due").map_or(0, |c| c.total());
            assert_eq!(
                skipped,
                base_run.executed.total() - pruned_run.executed.total(),
                "{injector}: every skipped trial is tallied under static-masked/static-due"
            );
            // The verdict strata partition every resolved trial, and the
            // dynamic outcomes inside each stratum must respect its
            // static bound: a masked/addr_ctl-stratum SDC or a
            // store-stratum DUE would falsify the lattice.
            let pruned_total: u64 = pruned_run.strata_pruned.values().map(|c| c.total()).sum();
            assert_eq!(pruned_total, skipped, "{injector}: pruned strata cover skipped trials");
            for (s, c) in &pruned_run.strata_sim {
                match s.as_str() {
                    "masked" | "addr_ctl" => {
                        assert_eq!(c.sdc, 0, "{injector}: SDC in simulated {s} stratum")
                    }
                    "store" => assert_eq!(c.due, 0, "{injector}: DUE in simulated store stratum"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let kepler = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let runs: Vec<OutcomeCounts> = [1usize, 2, 5]
            .into_iter()
            .map(|workers| {
                Campaign::new(Avf::new(Injector::Sassifi), &w, &kepler)
                    .budget(budget(96).shard_size(16))
                    .workers(workers)
                    .run_full()
                    .unwrap()
                    .1
                    .counts
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        let kepler = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let b = budget(80).shard_size(16);
        let mut checkpoints = Vec::new();
        let (_, full) = Campaign::new(Avf::new(Injector::Sassifi), &w, &kepler)
            .budget(b.clone())
            .on_checkpoint(|cp| checkpoints.push(cp.clone()))
            .run_full()
            .unwrap();
        assert_eq!(full.trials, 80);
        assert_eq!(checkpoints.len(), 5);
        // Round-trip the mid-campaign checkpoint through its JSONL form,
        // as a separate process would.
        let mid = campaign::Checkpoint::parse(&checkpoints[2].to_json_line()).unwrap();
        assert_eq!(mid.trials, 48);
        let (_, resumed) = Campaign::new(Avf::new(Injector::Sassifi), &w, &kepler)
            .budget(b)
            .resume_from(mid)
            .run_full()
            .unwrap();
        assert_eq!(resumed.counts, full.counts);
        assert_eq!(resumed.trials, full.trials);
        assert_eq!(resumed.resumed_trials, 48);
    }

    #[test]
    fn resume_rejects_mismatched_partition() {
        let kepler = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let b = budget(64).shard_size(16);
        let mut checkpoints = Vec::new();
        Campaign::new(Avf::new(Injector::Sassifi), &w, &kepler)
            .budget(b.clone())
            .on_checkpoint(|cp| checkpoints.push(cp.clone()))
            .run()
            .unwrap();
        let mid = checkpoints[1].clone();
        let err = Campaign::new(Avf::new(Injector::Sassifi), &w, &kepler)
            .budget(b.clone().seed(43))
            .resume_from(mid.clone())
            .run()
            .unwrap_err();
        assert!(matches!(err, campaign::CampaignError::CheckpointMismatch(_)));
        let err = Campaign::new(Avf::new(Injector::NvBitFi), &w, &kepler)
            .budget(b)
            .resume_from(mid)
            .run()
            .unwrap_err();
        assert!(matches!(err, campaign::CampaignError::CheckpointMismatch(_)));
    }

    #[test]
    fn store_tells_same_named_builds_apart() {
        let kepler = DeviceModel::named("k40c-sim");
        let w7 = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let w10 = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
        assert_eq!(w7.name, w10.name, "the probe needs two builds sharing a name");
        let alone = avf(Injector::NvBitFi, &w10, &kepler, 96);
        assert_ne!(alone.counts, avf(Injector::NvBitFi, &w7, &kepler, 96).counts);

        let dir =
            std::env::temp_dir().join(format!("injector-store-builds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = campaign::CheckpointStore::open(&dir).unwrap();
        for w in [&w7, &w10] {
            let (r, run) = Campaign::new(Avf::new(Injector::NvBitFi), w, &kepler)
                .budget(budget(96))
                .store(&mut store)
                .run_full()
                .unwrap();
            assert_eq!(run.resumed_trials, 0, "{}: served another build's tallies", w.name);
            if std::ptr::eq(w, &w10) {
                assert_eq!(r.counts, alone.counts);
            }
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn avf_fractions_sum_to_one() {
        let kepler = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let r = avf(Injector::NvBitFi, &w, &kepler, 80);
        assert_eq!(r.counts.total(), 80);
        let sum = r.sdc_avf() + r.due_avf() + r.masked;
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mxm_campaign_produces_all_outcome_kinds() {
        let kepler = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let r = avf(Injector::Sassifi, &w, &kepler, 240);
        assert!(r.counts.sdc > 0, "no SDCs: {:?}", r.counts);
        assert!(r.counts.due > 0, "no DUEs: {:?}", r.counts);
        assert!(r.counts.masked > 0, "nothing masked: {:?}", r.counts);
    }

    #[test]
    fn unit_avf_of_integer_chain_is_high() {
        // Section V-A: micro-benchmark AVF is >= 70%, 100% for integer
        // versions (modulo the end-of-chain check masking).
        let kepler = DeviceModel::named("k40c-sim");
        let mb = microbench::arith(FunctionalUnit::Iadd);
        let r = Campaign::new(ClassAvf::unit(FunctionalUnit::Iadd), &mb, &kepler)
            .budget(budget(100))
            .run()
            .unwrap();
        assert!(r.sdc_avf() > 0.9, "IADD AVF {}", r.sdc_avf());
    }

    #[test]
    fn coverage_labels_and_membership() {
        assert_eq!(HiddenCoverage::none().label(), "none");
        assert_eq!(HiddenCoverage::full().label(), "full");
        assert_eq!(HiddenCoverage::full().count(), 5);
        let c = HiddenCoverage::of(&[HiddenClass::Scheduler, HiddenClass::MemQueue]);
        assert_eq!(c.label(), "scheduler+memq");
        assert!(c.covers(HiddenClass::Scheduler));
        assert!(!c.covers(HiddenClass::Fetch));
        assert_eq!(c.classes(), vec![HiddenClass::Scheduler, HiddenClass::MemQueue]);
        assert!(HiddenCoverage::none().is_empty());
    }

    #[test]
    fn hidden_campaign_is_reproducible_and_produces_dues() {
        let volta = DeviceModel::named("v100-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
        let run =
            |n: u32| Campaign::new(HiddenAvf::full(), &w, &volta).budget(budget(n)).run().unwrap();
        let a = run(120);
        let b = run(120);
        assert_eq!(a.counts, b.counts);
        // Hidden strikes are DUE-heavy: stalls, fetch faults, queue
        // poisons and deadlocks — the exact mechanisms register-level
        // injection never reaches.
        assert!(a.counts.due > 0, "no hidden DUEs: {:?}", a.counts);
        assert!(a.due_avf() > 0.2, "hidden DUE fraction {}", a.due_avf());
    }

    #[test]
    fn hidden_campaign_is_deterministic_across_worker_counts() {
        let volta = DeviceModel::named("v100-sim");
        let w = build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
        let runs: Vec<OutcomeCounts> = [1usize, 2, 5]
            .into_iter()
            .map(|workers| {
                Campaign::new(HiddenAvf::full(), &w, &volta)
                    .budget(budget(96).shard_size(16))
                    .workers(workers)
                    .run_full()
                    .unwrap()
                    .1
                    .counts
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn hidden_coverage_restricts_the_sampled_sites() {
        let volta = DeviceModel::named("v100-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
        let (_, run) = Campaign::new(HiddenAvf::class(HiddenClass::MemQueue), &w, &volta)
            .budget(budget(40))
            .run_full()
            .unwrap();
        assert_eq!(run.trials, 40);
        // Single-class coverage is honored: the result's coverage label
        // round-trips and the campaign completes on just that class.
        let r = Campaign::new(HiddenAvf::class(HiddenClass::MemQueue), &w, &volta)
            .budget(budget(40))
            .run()
            .unwrap();
        assert_eq!(r.coverage.label(), "memq");
    }

    #[test]
    #[should_panic(expected = "reaches no live resource")]
    fn empty_hidden_coverage_panics() {
        let volta = DeviceModel::named("v100-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
        let _ = Campaign::new(HiddenAvf::new(HiddenCoverage::none()), &w, &volta)
            .budget(budget(10))
            .run();
    }

    #[test]
    fn hidden_breakdown_covers_live_classes_only() {
        let volta = DeviceModel::named("v100-sim");
        // MXM synchronizes and touches memory: every class is live.
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
        let b = measure_hidden_breakdown(&w, &volta, &Budget::fixed(50).seed(7));
        let classes: Vec<HiddenClass> = b.per_class.iter().map(|(c, _)| *c).collect();
        assert!(classes.contains(&HiddenClass::Scheduler));
        assert!(classes.contains(&HiddenClass::MemQueue));
        for (_, r) in &b.per_class {
            assert_eq!(r.counts.total(), 50);
        }
        // Scheduler strikes must be distinctly DUE-prone (stalls and
        // illegal fetches), the core of the paper's Section VII-B gap.
        assert!(
            b.due_fraction(HiddenClass::Scheduler).unwrap() > 0.2,
            "scheduler DUE fraction {:?}",
            b.due_fraction(HiddenClass::Scheduler)
        );
    }

    #[test]
    fn nvbitfi_never_injects_into_half_ops() {
        // On a half-precision workload NVBitFI still runs, but its site
        // population excludes the H* arithmetic.
        let volta = DeviceModel::named("v100-sim");
        let w = build(Benchmark::Hotspot, Precision::Half, CodeGen::Cuda10, Scale::Tiny);
        let g = w.golden(&volta);
        assert!(g.counts.sites.gpr_writers > g.counts.sites.gpr_writers_no_half);
        let r = avf(Injector::NvBitFi, &w, &volta, 50);
        assert_eq!(r.counts.total(), 50);
    }
}

#[cfg(test)]
mod breakdown_tests {
    use super::*;
    use gpu_arch::{CodeGen, Precision};
    use workloads::{build, Benchmark, Scale};

    #[test]
    fn breakdown_covers_the_code_mix() {
        let device = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
        let b = measure_avf_breakdown(&w, &device, &Budget::fixed(60).seed(4));
        let classes: Vec<SiteClass> = b.per_class.iter().map(|(c, _)| *c).collect();
        assert!(classes.contains(&SiteClass::FloatArith));
        assert!(classes.contains(&SiteClass::IntArith));
        assert!(classes.contains(&SiteClass::Load));
        assert!(!classes.contains(&SiteClass::HalfArith)); // FP32 code
        for (_, r) in &b.per_class {
            assert_eq!(r.counts.total(), 60);
        }
    }

    #[test]
    fn float_faults_hit_harder_than_loop_overhead_in_mxm() {
        // Corrupting the FMA stream of a matrix multiply should produce at
        // least as many SDCs as corrupting the (partially dead) integer
        // address arithmetic.
        let device = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
        let b = measure_avf_breakdown(&w, &device, &Budget::fixed(150).seed(4));
        let get = |c: SiteClass| {
            b.per_class.iter().find(|(cc, _)| *cc == c).map(|(_, r)| r.sdc_avf()).unwrap()
        };
        assert!(get(SiteClass::FloatArith) > 0.5, "float AVF {}", get(SiteClass::FloatArith));
    }
}
