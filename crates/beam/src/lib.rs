//! Monte-Carlo neutron-beam experiment engine.
//!
//! Replaces the ChipIR/LANSCE campaigns of Section III-C: the device under
//! test is the architectural simulator, and every hardware resource
//! carries a **ground-truth cross-section** ([`CrossSections`]) that only
//! this crate knows — the prediction pipeline never reads it, so the
//! beam-vs-simulation comparison (Figure 6) stays a blind test.
//!
//! Physics model:
//!
//! * strikes arrive as a Poisson process at an accelerated flux over each
//!   run's modeled wall time; the flux is chosen so that multi-strike runs
//!   are negligible, mirroring the paper's "<1 error per 1,000 executions"
//!   discipline;
//! * a strike on a functional-unit pipe corrupts the in-flight
//!   instruction's destination (strike opportunity scales with the unit's
//!   *dynamic work*, `sigma_u x lane-cycles`, which is what makes FIT
//!   independent of serial execution time but linear in parallelism —
//!   Section III-C's observation);
//! * a strike on an SRAM bit (register file, shared memory) or DRAM bit
//!   flips it; SECDED ECC corrects/detects per word when enabled;
//! * a strike on a **hidden resource** — warp scheduler, fetch/decode,
//!   memory controller, host interface — mostly hangs or crashes the
//!   device. Architecture-level injectors cannot reach these, which is
//!   the paper's explanation for the orders-of-magnitude DUE gap.
//!
//! Runs without a strike are not executed: the simulator is
//! deterministic, so they are bit-identical to the golden run and counted
//! directly (a pure optimization; the fluence accounting still includes
//! them).
//!
//! Campaigns run on the shared [`campaign`] engine: construct a
//! [`campaign::Campaign`] with a [`Beam`] kind, e.g.
//!
//! ```ignore
//! let result = Campaign::new(Beam::auto(true), &target, &device)
//!     .budget(Budget::fixed(4000).seed(3))
//!     .run()?;
//! ```
//!
//! Fluence (and therefore FIT denominators) scales with the trials
//! actually spent, so fixed budgets remain the default discipline for
//! beam statistics: stopping a beam campaign on a *proportion* CI would
//! starve the Poisson error-count CIs the paper reports. (The legacy
//! `expose*` / `BeamConfig` forwarders, deprecated for several releases,
//! are gone; see the README migration notes.)

mod xsec;

pub use xsec::{parse_xsec, CrossSections};

use campaign::{CampaignRun, Kind, Sampler, TrialPlan};
use gpu_arch::{DeviceModel, FunctionalUnit};
use gpu_sim::{BitFlip, DueKind, Executed, FaultPlan, SiteClass, Target};
use obs::MetricsRegistry;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use stats::{FitRate, Fluence, Outcome, OutcomeCounts};
use std::sync::Arc;

/// Result of one beam campaign: SDC and DUE FIT rates with Poisson CIs.
#[derive(Clone, Debug)]
pub struct BeamResult {
    /// Target name.
    pub target: String,
    /// Outcome tallies over all accounted runs.
    pub counts: OutcomeCounts,
    /// Received fluence (n/cm^2) over the whole campaign.
    pub fluence: Fluence,
    /// Silent-data-corruption FIT rate.
    pub sdc_fit: FitRate,
    /// Detected-unrecoverable-error FIT rate.
    pub due_fit: FitRate,
    /// How many runs were actually executed (received >= 1 strike).
    pub struck_runs: u32,
}

/// One strikeable resource with its per-run strike rate and plan factory.
enum StrikeKind {
    Unit(FunctionalUnit),
    Ldst,
    RegisterFile,
    SharedMem,
    GlobalMem,
    Hidden,
}

struct StrikeChannel {
    kind: StrikeKind,
    /// Expected strikes on this resource per run at flux 1 n/(cm^2 s).
    rate_per_flux: f64,
}

/// Build the strike channels for a target on a device.
fn channels(
    device: &DeviceModel,
    xsec: &CrossSections,
    target_kernel: &gpu_arch::Kernel,
    launch: &gpu_arch::LaunchConfig,
    golden: &Executed,
) -> Vec<StrikeChannel> {
    let mut out = Vec::new();
    let seconds = golden.timing.seconds;
    let clock = device.clock_hz;

    // Functional units: strike opportunity = sigma_u x busy lane-cycles.
    // counts are thread-instructions = lane-cycles for scalar pipes; an
    // MMA occupies a tensor core for ~4 cycles.
    for i in 0..FunctionalUnit::COUNT {
        let unit = FunctionalUnit::from_index(i);
        let count = golden.counts.per_unit[i] as f64;
        if count == 0.0 {
            continue;
        }
        let sigma = xsec.unit[i];
        if sigma == 0.0 {
            continue;
        }
        let lane_cycles = if matches!(unit, FunctionalUnit::Hmma | FunctionalUnit::Fmma) {
            count * 4.0
        } else {
            count
        };
        let rate = sigma * lane_cycles / clock;
        if unit == FunctionalUnit::Ldst {
            out.push(StrikeChannel { kind: StrikeKind::Ldst, rate_per_flux: rate });
        } else if unit != FunctionalUnit::Other {
            out.push(StrikeChannel { kind: StrikeKind::Unit(unit), rate_per_flux: rate });
        } else {
            // "Other" work (control, conversions) runs on shared pipes;
            // its data-path strikes are folded into the hidden channel
            // below at a reduced weight via xsec.unit[Other].
            out.push(StrikeChannel { kind: StrikeKind::Hidden, rate_per_flux: rate });
        }
    }

    // Register file: resident register bits x exposure time.
    let resident_threads = golden.timing.resident_warps * 32.0 * device.sms as f64;
    let rf_bits = target_kernel.regs_per_thread.max(16) as f64 * 32.0 * resident_threads;
    out.push(StrikeChannel {
        kind: StrikeKind::RegisterFile,
        rate_per_flux: xsec.sram_bit * rf_bits * seconds,
    });

    // Shared memory: resident blocks x allocation.
    if target_kernel.shared_bytes > 0 {
        let blocks_resident = (resident_threads / launch.block.count().max(1) as f64).max(1.0);
        let sh_bits = target_kernel.shared_bytes as f64 * 8.0 * blocks_resident;
        out.push(StrikeChannel {
            kind: StrikeKind::SharedMem,
            rate_per_flux: xsec.sram_bit * sh_bits * seconds,
        });
    }

    // Global memory (DRAM + L2, folded): whole allocation exposed.
    let g_bits = golden.memory.len() as f64 * 8.0;
    out.push(StrikeChannel {
        kind: StrikeKind::GlobalMem,
        rate_per_flux: xsec.dram_bit * g_bits * seconds,
    });

    // Hidden resources: scheduler/fetch/host interface scale with SM count
    // and exposure time; the memory-system logic (controller, queues)
    // scales with memory traffic.
    let hidden = xsec.hidden_sm * device.sms as f64 + xsec.hidden_device;
    out.push(StrikeChannel { kind: StrikeKind::Hidden, rate_per_flux: hidden * seconds });
    let mem_traffic = golden.counts.sites.mem_ops as f64;
    out.push(StrikeChannel {
        kind: StrikeKind::Hidden,
        rate_per_flux: xsec.hidden_mem_op * mem_traffic / clock,
    });

    out
}

/// Translate a strike on a channel into a trial plan: either a fault to
/// execute, or a direct outcome (no-strike runs, off-chip address faults,
/// hidden-resource strikes).
fn sample_effect(
    rng: &mut ChaCha12Rng,
    channel: &StrikeChannel,
    xsec: &CrossSections,
    golden: &Executed,
    regs_per_thread: u16,
    shared_bytes: u32,
    memory_len: u32,
) -> TrialPlan {
    let total_dyn = golden.counts.total.max(1);
    match channel.kind {
        StrikeKind::Unit(unit) => {
            let pop = golden.counts.per_unit[unit.index()].max(1);
            let bits = match unit {
                FunctionalUnit::Hadd
                | FunctionalUnit::Hmul
                | FunctionalUnit::Hfma
                | FunctionalUnit::Hmma => 16,
                FunctionalUnit::Dadd | FunctionalUnit::Dmul | FunctionalUnit::Dfma => 64,
                _ => 32,
            };
            TrialPlan::Fault(FaultPlan::InstructionOutput {
                nth: rng.gen_range(0..pop),
                site: SiteClass::Unit(unit),
                flip: BitFlip::single(rng.gen_range(0..bits)),
            })
        }
        StrikeKind::Ldst => {
            // The critical operand of the LD/ST path is the address
            // (Section V-B); the rest of the strikes corrupt load data.
            // Device addresses are 64-bit: a strike in the high word is
            // always an invalid access (immediate DUE), which is what
            // drives the LDST micro-benchmark's ~7x DUE/SDC ratio.
            if rng.gen_bool(xsec.ldst_address_fraction) {
                let bit = rng.gen_range(0..64);
                if bit >= 32 {
                    return TrialPlan::Direct {
                        outcome: Outcome::Due,
                        due: Some(DueKind::MemoryViolation),
                        label: "beam.direct",
                    };
                }
                let pop = golden.counts.sites.mem_ops.max(1);
                TrialPlan::Fault(FaultPlan::MemAddress {
                    nth: rng.gen_range(0..pop),
                    flip: BitFlip::single(bit),
                })
            } else {
                let pop = golden.counts.sites.loads.max(1);
                TrialPlan::Fault(FaultPlan::InstructionOutput {
                    nth: rng.gen_range(0..pop),
                    site: SiteClass::Load,
                    flip: BitFlip::single(rng.gen_range(0..32)),
                })
            }
        }
        StrikeKind::RegisterFile => {
            let mbu = rng.gen_bool(xsec.mbu_probability);
            let bit = rng.gen_range(0..32);
            let flip =
                if mbu { BitFlip::double(bit, (bit + 1) % 32) } else { BitFlip::single(bit) };
            TrialPlan::Fault(FaultPlan::RegisterBit {
                block: u32::MAX, // whichever block is resident at that instant
                thread: u32::MAX,
                reg: rng.gen_range(0..regs_per_thread.max(1)) as u8,
                flip,
                at: rng.gen_range(0..total_dyn),
            })
        }
        StrikeKind::SharedMem => TrialPlan::Fault(FaultPlan::SharedMemBit {
            block: u32::MAX,
            byte: rng.gen_range(0..shared_bytes.max(1)),
            bit: rng.gen_range(0..32),
            at: rng.gen_range(0..total_dyn),
            mbu: rng.gen_bool(xsec.mbu_probability),
        }),
        StrikeKind::GlobalMem => TrialPlan::Fault(FaultPlan::GlobalMemBit {
            byte: rng.gen_range(0..memory_len.max(1)),
            bit: rng.gen_range(0..32),
            at: rng.gen_range(0..total_dyn),
            mbu: rng.gen_bool(xsec.mbu_probability),
        }),
        StrikeKind::Hidden => {
            // Hidden-resource strikes resolve without simulation: the
            // affected state (scheduler, fetch, controller queues) is
            // below the architectural level.
            let roll: f64 = rng.gen();
            let (outcome, due) = if roll < xsec.hidden_due_fraction {
                (Outcome::Due, Some(DueKind::HiddenResource))
            } else if roll < xsec.hidden_due_fraction + xsec.hidden_sdc_fraction {
                (Outcome::Sdc, None)
            } else {
                (Outcome::Masked, None)
            };
            TrialPlan::Direct { outcome, due, label: "beam.direct" }
        }
    }
}

/// The beam-exposure campaign kind: every trial is one accounted run
/// under the beam; struck runs execute with the sampled fault, unstruck
/// runs are counted directly as masked.
#[derive(Clone, Debug)]
pub struct Beam {
    /// Accelerated flux, n/(cm^2 s); `0.0` auto-tunes so the expected
    /// strikes per run land at [`Beam::TARGET_LAMBDA`].
    pub flux: f64,
    /// SECDED ECC state for the exposed device.
    pub ecc: bool,
    /// Cross-sections override for ablations; `None` uses the device's
    /// ground truth.
    pub xsec: Option<CrossSections>,
}

impl Beam {
    /// Expected strikes per run under auto-tuned flux — the simulated
    /// equivalent of the paper's "<1 error per 1,000 executions"
    /// discipline (FIT rates are flux-independent; only the statistics
    /// change).
    pub const TARGET_LAMBDA: f64 = 0.25;

    /// Auto-flux exposure with ground-truth cross-sections.
    pub fn auto(ecc: bool) -> Self {
        Beam { flux: 0.0, ecc, xsec: None }
    }

    /// Replace the flux.
    pub fn flux(mut self, flux: f64) -> Self {
        self.flux = flux;
        self
    }

    /// Override the cross-sections (ablation studies: MBU-rate sweeps,
    /// hypothetical process nodes...).
    pub fn with_xsec(mut self, xsec: CrossSections) -> Self {
        self.xsec = Some(xsec);
        self
    }
}

/// Sampler state for [`Beam`]: the strike channels and resolved flux.
pub struct BeamSampler {
    golden: Arc<Executed>,
    xsec: CrossSections,
    chans: Vec<StrikeChannel>,
    lambda_per_flux: f64,
    flux: f64,
    p_strike: f64,
    regs_per_thread: u16,
    shared_bytes: u32,
    memory_len: u32,
}

impl BeamSampler {
    /// The flux this campaign runs at (auto-tuned when the kind's flux
    /// was `0.0`).
    pub fn resolved_flux(&self) -> f64 {
        self.flux
    }
}

impl Sampler for BeamSampler {
    fn sample(&self, _trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan {
        if !rng.gen_bool(self.p_strike.clamp(0.0, 1.0)) {
            return TrialPlan::Direct {
                outcome: Outcome::Masked,
                due: None,
                label: "beam.unstruck",
            };
        }
        // Pick the struck channel proportionally to its rate.
        let mut pick = rng.gen_range(0.0..self.lambda_per_flux);
        let mut chosen = self.chans.last().expect("channels never empty");
        for c in &self.chans {
            if pick < c.rate_per_flux {
                chosen = c;
                break;
            }
            pick -= c.rate_per_flux;
        }
        sample_effect(
            rng,
            chosen,
            &self.xsec,
            &self.golden,
            self.regs_per_thread,
            self.shared_bytes,
            self.memory_len,
        )
    }
}

impl<T: Target + Sync + ?Sized> Kind<T> for Beam {
    type Sampler = BeamSampler;
    type Output = BeamResult;

    /// `beam/ecc-on` or `beam/ecc-off`, plus a suffix per override: the
    /// flux and cross-sections change the tallies, so they belong to the
    /// campaign identity. [`Beam::auto`] keeps the bare label.
    fn label(&self) -> String {
        let mut label = format!("beam/{}", if self.ecc { "ecc-on" } else { "ecc-off" });
        if self.flux != 0.0 {
            label.push_str(&format!("/flux={:?}", self.flux));
        }
        if let Some(xsec) = &self.xsec {
            label.push_str(&format!("/xsec={:016x}", xsec.digest()));
        }
        label
    }

    fn ecc(&self) -> bool {
        self.ecc
    }

    fn prepare(&self, target: &T, device: &DeviceModel, golden: &Arc<Executed>) -> BeamSampler {
        let xsec = self.xsec.clone().unwrap_or_else(|| CrossSections::ground_truth(device));
        let chans = channels(device, &xsec, target.kernel(), target.launch(), golden);
        let lambda_per_flux: f64 = chans.iter().map(|c| c.rate_per_flux).sum();
        let flux = if self.flux > 0.0 {
            self.flux
        } else {
            Beam::TARGET_LAMBDA / lambda_per_flux.max(f64::MIN_POSITIVE)
        };
        let lambda = lambda_per_flux * flux;
        BeamSampler {
            golden: Arc::clone(golden),
            xsec,
            chans,
            lambda_per_flux,
            flux,
            p_strike: 1.0 - (-lambda).exp(),
            regs_per_thread: target.kernel().regs_per_thread,
            shared_bytes: target.kernel().shared_bytes,
            memory_len: golden.memory.len(),
        }
    }

    fn finish(&self, target: &T, sampler: &BeamSampler, run: &CampaignRun) -> BeamResult {
        let unstruck = run.direct.get("beam.unstruck").map_or(0, |c| c.total());
        let fluence =
            Fluence::from_flux(sampler.flux, run.golden.timing.seconds * run.trials as f64);
        BeamResult {
            target: target.name().to_string(),
            sdc_fit: FitRate::from_beam(run.counts.sdc, fluence),
            due_fit: FitRate::from_beam(run.counts.due, fluence),
            counts: run.counts,
            fluence,
            struck_runs: (run.trials - unstruck) as u32,
        }
    }

    fn export_metrics(&self, _sampler: &BeamSampler, run: &CampaignRun, m: &MetricsRegistry) {
        // Compatibility counters alongside the engine's generic
        // `direct.beam.*` tallies.
        let unstruck = run.direct.get("beam.unstruck").map_or(0, |c| c.total());
        m.counter("beam.unstruck").add(unstruck);
        m.counter("beam.struck").add(run.trials - unstruck);
        if let Some(d) = run.direct.get("beam.direct") {
            m.counter("beam.direct.sdc").add(d.sdc);
            m.counter("beam.direct.due").add(d.due);
            m.counter("beam.direct.masked").add(d.masked);
        }
    }
}

/// A hidden-resource-only exposure, used by ablation studies: returns the
/// DUE FIT a device accumulates from resources no injector can reach.
pub fn hidden_due_fit(device: &DeviceModel, seconds: f64, runs: u32, flux: f64) -> FitRate {
    let xsec = CrossSections::ground_truth(device);
    let rate = (xsec.hidden_sm * device.sms as f64 + xsec.hidden_device) * seconds * flux;
    let expected_dues = rate * runs as f64 * xsec.hidden_due_fraction;
    let fluence = Fluence::from_flux(flux, seconds * runs as f64);
    FitRate::from_beam(expected_dues.round() as u64, fluence)
}

/// Convenience: classify a DUE kind as originating from hidden resources.
///
/// Covers both the beam engine's directly-resolved strikes
/// ([`DueKind::HiddenResource`]) and the specific kinds the simulated
/// hidden-site fault plans raise.
pub fn is_hidden_due(kind: DueKind) -> bool {
    matches!(
        kind,
        DueKind::HiddenResource
            | DueKind::SchedulerStall
            | DueKind::FetchFault
            | DueKind::MemQueueFault
    )
}

/// Hidden-resource strike rates *measured* under the beam, per unit flux:
/// the calibration a hidden-aware DUE prediction consumes.
///
/// Like [`BeamResult`] FIT rates — and unlike [`CrossSections`] — these
/// are experimental outputs with sampling noise, so handing them to the
/// prediction pipeline keeps the Figure 6 comparison blind: the
/// prediction never sees the ground-truth cross-sections, only what a
/// beam room could actually report.
#[derive(Clone, Copy, Debug)]
pub struct HiddenRates {
    /// Chip-level hidden strikes (scheduler, fetch, host interface) per
    /// second of exposure per unit flux.
    pub chip_per_s: f64,
    /// Memory-path hidden strikes (controller, queues) per dynamic
    /// memory operation per unit flux.
    pub per_mem_op: f64,
}

/// Sample a Poisson count, chunking the rate so `exp(-lambda)` never
/// underflows (Knuth's method is additive over independent intervals).
fn poisson(rng: &mut ChaCha12Rng, lambda: f64) -> u64 {
    let mut remaining = lambda;
    let mut k: u64 = 0;
    while remaining > 0.0 {
        let step = remaining.min(30.0);
        remaining -= step;
        let floor = (-step).exp();
        let mut p: f64 = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= floor {
                break;
            }
            k += 1;
        }
    }
    k
}

/// Measure [`HiddenRates`] the way beam rooms do (Section III-C's DUE
/// tests): dwell the device under accelerated flux while it runs a
/// known-idle kernel and a saturating memory streamer, count device-level
/// error events, and divide by the received fluence. Deterministic in
/// `seed`; the estimates carry Poisson sampling noise like every other
/// beam measurement.
pub fn characterize_hidden(device: &DeviceModel, runs: u32, seed: u64) -> HiddenRates {
    use rand::SeedableRng;
    let xsec = CrossSections::ground_truth(device);
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x4849_4444); // "HIDD"
    let flux = 3.5e6;
    let dwell = 1.0e-3; // seconds of chip exposure per accounted run
    let mem_ops_per_run = 100_000u64; // streamer traffic per accounted run
    let lam_chip = (xsec.hidden_sm * device.sms as f64 + xsec.hidden_device) * dwell * flux;
    let lam_mem = xsec.hidden_mem_op * mem_ops_per_run as f64 / device.clock_hz * flux;
    let mut chip_strikes = 0u64;
    let mut mem_strikes = 0u64;
    for _ in 0..runs {
        chip_strikes += poisson(&mut rng, lam_chip);
        mem_strikes += poisson(&mut rng, lam_mem);
    }
    let runs = runs.max(1) as f64;
    HiddenRates {
        chip_per_s: chip_strikes as f64 / (runs * dwell * flux),
        per_mem_op: mem_strikes as f64 / (runs * mem_ops_per_run as f64 * flux),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campaign::{Budget, Campaign};
    use gpu_arch::{CodeGen, Precision};
    use workloads::{build, Benchmark, Scale};

    fn run<T: Target + Sync + ?Sized>(
        target: &T,
        device: &DeviceModel,
        runs: u32,
        ecc: bool,
    ) -> BeamResult {
        Campaign::new(Beam::auto(ecc).flux(3.5e6), target, device)
            .budget(Budget::fixed(runs).seed(7))
            .run()
            .unwrap()
    }

    #[test]
    fn beam_campaign_is_reproducible_and_counts_all_runs() {
        let device = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let a = run(&w, &device, 500, true);
        let b = run(&w, &device, 500, true);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts.total(), 500);
        assert!(a.struck_runs > 0, "flux too low for the test");
        assert!(a.struck_runs < 500, "flux too high: every run struck");
    }

    #[test]
    fn beam_campaign_is_deterministic_across_worker_counts() {
        let device = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let counts: Vec<OutcomeCounts> = [1usize, 4]
            .into_iter()
            .map(|workers| {
                Campaign::new(Beam::auto(true).flux(3.5e6), &w, &device)
                    .budget(Budget::fixed(400).seed(7))
                    .workers(workers)
                    .run_full()
                    .unwrap()
                    .1
                    .counts
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn label_names_overrides_only() {
        let label = |b: Beam| <Beam as Kind<workloads::Workload>>::label(&b);
        assert_eq!(label(Beam::auto(true)), "beam/ecc-on");
        assert_eq!(label(Beam::auto(false)), "beam/ecc-off");
        assert_eq!(label(Beam::auto(true).flux(3.5e6)), "beam/ecc-on/flux=3500000.0");
        let device = DeviceModel::named("k40c-sim");
        let mut xsec = CrossSections::ground_truth(&device);
        let base = label(Beam::auto(true).with_xsec(xsec.clone()));
        assert!(base.starts_with("beam/ecc-on/xsec="), "{base}");
        xsec.mbu_probability = 0.3;
        assert_ne!(label(Beam::auto(true).with_xsec(xsec)), base);
    }

    #[test]
    fn ecc_off_raises_sdc_fit() {
        let device = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let on = run(&w, &device, 1500, true);
        let off = run(&w, &device, 1500, false);
        assert!(
            off.sdc_fit.fit > on.sdc_fit.fit,
            "ECC off {} !> on {}",
            off.sdc_fit.fit,
            on.sdc_fit.fit
        );
    }

    #[test]
    fn fluence_scales_with_runs() {
        let device = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
        let a = run(&w, &device, 200, true);
        let b = run(&w, &device, 400, true);
        assert!((b.fluence.0 / a.fluence.0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hidden_channel_produces_dues() {
        let device = DeviceModel::named("v100-sim");
        let fit = hidden_due_fit(&device, 1e-3, 10_000, 3.5e6);
        assert!(fit.fit > 0.0);
    }

    #[test]
    fn hidden_characterization_is_deterministic_and_unbiased() {
        let device = DeviceModel::named("v100-sim");
        let a = characterize_hidden(&device, 2000, 9);
        let b = characterize_hidden(&device, 2000, 9);
        assert_eq!(a.chip_per_s, b.chip_per_s);
        assert_eq!(a.per_mem_op, b.per_mem_op);
        // The measured rates must recover the (beam-private) ground truth
        // to within Poisson sampling noise.
        let xsec = CrossSections::ground_truth(&device);
        let true_chip = xsec.hidden_sm * device.sms as f64 + xsec.hidden_device;
        let true_mem = xsec.hidden_mem_op / device.clock_hz;
        assert!(
            (a.chip_per_s / true_chip - 1.0).abs() < 0.05,
            "chip rate {} vs truth {true_chip}",
            a.chip_per_s
        );
        assert!(
            (a.per_mem_op / true_mem - 1.0).abs() < 0.10,
            "mem-op rate {} vs truth {true_mem}",
            a.per_mem_op
        );
    }

    #[test]
    fn hidden_due_kinds_classify() {
        assert!(is_hidden_due(DueKind::HiddenResource));
        assert!(is_hidden_due(DueKind::SchedulerStall));
        assert!(is_hidden_due(DueKind::FetchFault));
        assert!(is_hidden_due(DueKind::MemQueueFault));
        assert!(!is_hidden_due(DueKind::Watchdog));
        assert!(!is_hidden_due(DueKind::BarrierDeadlock));
    }
}
