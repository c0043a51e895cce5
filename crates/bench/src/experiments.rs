//! One function per table/figure of the paper.
//!
//! Every function returns plain data; [`crate::render`] turns it into the
//! textual tables the `repro` binary prints. The per-experiment index in
//! DESIGN.md maps each function to its paper counterpart.

use beam::{Beam, BeamResult};
use campaign::{Budget, Campaign, Kind};
use gpu_arch::{CodeGen, DeviceModel, DeviceSpec, MixCategory, Precision};
use gpu_sim::Target;
use injector::{Avf, AvfResult, ClassAvf, HiddenClass, HiddenCoverage, Injector};
use microbench::MicroBench;
use obs::{CampaignObserver, MetricsRegistry, MetricsSnapshot, Progress};
use prediction::{
    compare, memory_footprint, predict, predict_hidden, ComparisonRow, PredictOptions, UnitFits,
};
use profiler::profile;
use workloads::{build, build_with, kepler_suite, volta_suite, Benchmark, Scale, Workload};

/// Campaign sizing for the harness: one [`Budget`] per campaign family.
///
/// Injection budgets are adaptive (CI-targeted early stopping) in the
/// presets; beam budgets stay fixed because the fluence accounting — and
/// the paper's Poisson error-count statistics — assume a predetermined
/// number of accounted runs.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Workload scale for injection/beam campaigns.
    pub scale: Scale,
    /// Workload scale for the profiling experiments (Table I, Figure 1).
    pub profile_scale: Scale,
    /// Budget per workload AVF campaign.
    pub injection: Budget,
    /// Budget per workload beam campaign.
    pub beam: Budget,
    /// Budget per micro-benchmark beam campaign (Figure 3).
    pub bench_beam: Budget,
    /// Budget per micro-benchmark injection campaign (FIT de-masking AVF).
    pub bench_injection: Budget,
}

impl HarnessConfig {
    /// Laptop-scale settings: every figure regenerates in minutes.
    pub fn quick() -> Self {
        HarnessConfig {
            scale: Scale::Small,
            profile_scale: Scale::Profile,
            injection: Budget::quick(),
            beam: Budget::fixed(4000).seed(2021),
            bench_beam: Budget::fixed(3000).seed(2021),
            bench_injection: Budget::fixed(200).seed(2021),
        }
    }

    /// Larger campaigns approaching the paper's statistics (>=4,000
    /// injections per code).
    pub fn full() -> Self {
        HarnessConfig {
            injection: Budget::full(),
            beam: Budget::fixed(40_000).seed(2021),
            bench_beam: Budget::fixed(20_000).seed(2021),
            bench_injection: Budget::fixed(1000).seed(2021),
            ..HarnessConfig::quick()
        }
    }

    /// Reads `REPRO_PROFILE` (`quick` default, `full`) from the
    /// environment.
    ///
    /// # Errors
    /// When `REPRO_PROFILE` is set to any other value.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("REPRO_PROFILE").as_deref() {
            Ok("quick") | Err(std::env::VarError::NotPresent) => Ok(HarnessConfig::quick()),
            Ok("full") => Ok(HarnessConfig::full()),
            Ok(name) => Err(format!("REPRO_PROFILE={name:?}: expected quick|full")),
            Err(e) => Err(format!("REPRO_PROFILE: {e}; expected quick|full")),
        }
    }
}

/// The campaign devices: a 1-SM Kepler and a 1-SM Volta (see DESIGN.md on
/// SM-count scaling).
pub fn devices() -> (DeviceModel, DeviceModel) {
    (DeviceModel::named("k40c-sim"), DeviceModel::named("v100-sim"))
}

// -------------------------------------------------------- observability --

/// One campaign's worth of metrics, labeled for routing into a JSONL
/// stream (`repro --metrics-out`).
#[derive(Clone, Debug)]
pub struct CampaignObservation {
    /// Campaign label, e.g. `fig4/Kepler/SASSIFI/FMXM`.
    pub campaign: String,
    /// Resolved device-model name the campaign ran on.
    pub device: String,
    /// Final metrics: outcome tallies, trials/sec, profile gauges.
    pub snapshot: MetricsSnapshot,
}

impl CampaignObservation {
    /// One JSON line:
    /// `{"report":"campaign","campaign":...,"device":...,"metrics":{...}}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"report\":\"campaign\",\"campaign\":");
        obs::json::escape_str(&mut out, &self.campaign);
        out.push_str(",\"device\":");
        obs::json::escape_str(&mut out, &self.device);
        out.push_str(",\"metrics\":");
        out.push_str(&self.snapshot.to_json_line());
        out.push('}');
        out
    }
}

/// The run-wide campaign context every experiment takes: each campaign
/// runs through [`ObserveCtx::run`], which attaches a fresh metrics
/// registry and progress meter and, when `repro` was given them, the
/// checkpoint store, span bus and status publisher.
pub struct ObserveCtx<'a> {
    /// Render stderr progress meters while campaigns run.
    pub progress: bool,
    /// Minimum time between progress renders (`repro --progress-interval`;
    /// `None` keeps the 200ms default).
    pub progress_interval: Option<std::time::Duration>,
    /// Receives one observation per campaign, in execution order.
    pub observe: &'a mut dyn FnMut(CampaignObservation),
    /// Durable checkpoint store shared by every campaign in the run:
    /// each campaign saves shard-boundary checkpoints to it and resumes
    /// from the last checkpoint with the same [`campaign::CampaignKey`]
    /// (`repro --checkpoint-dir`). A campaign that recurs across
    /// experiments — fig4's AVFs inside fig6 — resumes as finished.
    pub store: Option<&'a mut campaign::CheckpointStore>,
    /// Span bus collecting campaign → shard → trial → engine-phase spans
    /// across every campaign in the run (`repro --spans-out`).
    pub spans: Option<&'a obs::SpanBus>,
    /// Live status publisher (`repro --status-dir`): re-pointed at each
    /// campaign's registry as it starts, so `campaign-top` always shows
    /// the campaign currently running.
    pub publisher: Option<&'a obs::SnapshotPublisher>,
}

impl<'a> ObserveCtx<'a> {
    /// A context that hands each observation to `observe` and attaches no
    /// progress meter, store, spans or publisher.
    pub fn new(observe: &'a mut dyn FnMut(CampaignObservation)) -> Self {
        ObserveCtx {
            progress: false,
            progress_interval: None,
            observe,
            store: None,
            spans: None,
            publisher: None,
        }
    }

    /// Run one campaign of `kind` over `target` on `device`: tally
    /// per-trial metrics, tick a progress meter (total = budget ceiling;
    /// adaptive campaigns may finish early), append the target's profile
    /// gauges and emit one [`CampaignObservation`] labeled `label`.
    ///
    /// # Panics
    /// When the campaign fails (golden run, checkpoint store).
    pub fn run<T: Target + Sync + ?Sized, K: Kind<T>>(
        &mut self,
        label: &str,
        kind: K,
        target: &T,
        device: &DeviceModel,
        budget: &Budget,
    ) -> K::Output {
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let mut meter = Progress::new(label, budget.ceiling as u64, self.progress);
        if let Some(interval) = self.progress_interval {
            meter = meter.with_interval(interval);
        }
        if let Some(publisher) = self.publisher {
            publisher.set_campaign(label, device.name.clone(), std::sync::Arc::clone(&metrics));
        }
        let mut observer = CampaignObserver::with_metrics(&metrics);
        observer.progress = Some(&meter);
        observer.spans = self.spans;
        let mut campaign =
            Campaign::new(kind, target, device).budget(budget.clone()).observer(observer);
        if let Some(store) = self.store.as_deref_mut() {
            campaign = campaign.store(store);
        }
        let output = campaign.run().unwrap_or_else(|e| panic!("campaign {label} failed: {e}"));
        meter.finish();
        profile(target, device).export_metrics(&metrics);
        if let Some(publisher) = self.publisher {
            let _ = publisher.publish_now();
        }
        (self.observe)(CampaignObservation {
            campaign: label.to_string(),
            device: device.name.clone(),
            snapshot: metrics.snapshot(),
        });
        output
    }

    /// [`ObserveCtx::run`] for an `injector` AVF campaign, or `None` when
    /// the injector cannot instrument `target` on `device`.
    fn avf(
        &mut self,
        label: &str,
        injector: Injector,
        target: &Workload,
        device: &DeviceModel,
        budget: &Budget,
    ) -> Option<AvfResult> {
        injector.supports(target, device).ok()?;
        Some(self.run(label, Avf::new(injector), target, device, budget))
    }

    /// Beam-measure every micro-benchmark of `device` (the Figure 3
    /// campaigns, labeled `{prefix}/{arch}/{bench}`): arithmetic, MMA and
    /// LDST benches with ECC on, the RF bench with ECC off.
    fn bench_beams(
        &mut self,
        prefix: &str,
        device: &DeviceModel,
        budget: &Budget,
    ) -> Vec<(MicroBench, BeamResult)> {
        let arch = device.arch.name();
        microbench::suite(device)
            .into_iter()
            .map(|mb| {
                let label = format!("{prefix}/{arch}/{}", mb.name);
                let beam =
                    self.run(&label, Beam::auto(!mb.is_register_file()), &mb, device, budget);
                (mb, beam)
            })
            .collect()
    }

    /// Characterize `device`'s functional units, the unit FITs of
    /// Equation 2: the micro-benchmark beams (labeled
    /// `{prefix}/units/{arch}/{bench}`), each non-RF bench de-masked by
    /// its own unit AVF (`.../demask`), folded with [`UnitFits::fold`].
    /// The same campaigns and fold as [`prediction::characterize_units`]
    /// with `cfg`'s bench budgets, so the beams resume Figure 3's from a
    /// shared checkpoint store.
    pub fn unit_fits(
        &mut self,
        prefix: &str,
        device: &DeviceModel,
        cfg: &HarnessConfig,
    ) -> UnitFits {
        let prefix = format!("{prefix}/units");
        let mut fits = UnitFits::default();
        for (mb, beam) in self.bench_beams(&prefix, device, &cfg.bench_beam) {
            let demask = (!mb.is_register_file()).then(|| {
                let label = format!("{prefix}/{}/{}/demask", device.arch.name(), mb.name);
                self.run(&label, ClassAvf::unit(mb.unit), &mb, device, &cfg.bench_injection)
            });
            fits.fold(&mb, device, &beam, demask.as_ref());
        }
        fits
    }
}

// ------------------------------------------------------------- Table I --

/// One Table I row, plus the code's Figure 1 instruction mix.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// Bytes of shared memory per block.
    pub shared: u32,
    /// Registers per thread.
    pub regs: u16,
    /// Executed IPC.
    pub ipc: f64,
    /// Achieved occupancy.
    pub occupancy: f64,
    /// Figure 1 instruction-mix fractions in [`MixCategory::ALL`] order.
    pub mix_fractions: [f64; MixCategory::COUNT],
}

/// Regenerate Table I — per-code shared memory, registers, IPC and
/// occupancy — and the Figure 1 instruction mixes from the same profiles,
/// emitting one observation (φ/IPC/occupancy gauges) per code.
pub fn table1(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<ProfileRow> {
    let (kepler, volta) = devices();
    let mut rows = Vec::new();
    let sets = [
        ("Kepler", &kepler, kepler_suite(CodeGen::Cuda7, cfg.profile_scale)),
        ("Volta", &volta, volta_suite(cfg.profile_scale)),
    ];
    for (device_label, dm, suite) in sets {
        for w in suite {
            let p = profile(&w, dm);
            let metrics = MetricsRegistry::new();
            p.export_metrics(&metrics);
            (ctx.observe)(CampaignObservation {
                campaign: format!("table1/{device_label}/{}", w.name),
                device: dm.name.clone(),
                snapshot: metrics.snapshot(),
            });
            rows.push(ProfileRow {
                device: device_label,
                name: w.name.clone(),
                shared: p.shared_bytes,
                regs: p.regs_per_thread,
                ipc: p.ipc,
                occupancy: p.occupancy,
                mix_fractions: p.mix_fractions,
            });
        }
    }
    rows
}

// ------------------------------------------------------------ Figure 3 --

/// One Figure 3 bar pair: a micro-benchmark's SDC and DUE FIT.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Micro-benchmark name ("FADD", "HMMA", "RF/MB", ...).
    pub name: String,
    /// Raw SDC FIT (arbitrary units).
    pub sdc_fit: f64,
    /// Raw DUE FIT.
    pub due_fit: f64,
    /// SDC normalized to the device's reference DUE (FADD on Kepler, HFMA
    /// on Volta), as in the figure.
    pub sdc_norm: f64,
    /// Normalized DUE.
    pub due_norm: f64,
}

fn fig3_device(
    device: &DeviceModel,
    cfg: &HarnessConfig,
    ctx: &mut ObserveCtx<'_>,
) -> Vec<Fig3Row> {
    let beams = ctx.bench_beams("fig3", device, &cfg.bench_beam);
    // Normalization reference from the device spec: FADD DUE on Kepler,
    // HFMA DUE on Volta/Ampere.
    let reference = beams
        .iter()
        .find(|(mb, _)| mb.name == device.caps.fig3_reference)
        .map(|(_, r)| r.due_fit.fit)
        .filter(|&v| v > 0.0)
        .unwrap_or(1.0);
    beams
        .into_iter()
        .map(|(mb, r)| {
            // Report the register file per megabyte, as the figure does:
            // bits per megabyte / exposed bits.
            let (name, scale) = if mb.is_register_file() {
                ("RF/MB".to_string(), 8_388_608.0 / mb.exposed_rf_bits(device))
            } else {
                (mb.name, 1.0)
            };
            Fig3Row {
                device: device.arch.name(),
                name,
                sdc_fit: r.sdc_fit.fit * scale,
                due_fit: r.due_fit.fit * scale,
                sdc_norm: r.sdc_fit.fit * scale / reference,
                due_norm: r.due_fit.fit * scale / reference,
            }
        })
        .collect()
}

/// Regenerate Figure 3: micro-benchmark FIT rates, both devices.
pub fn fig3(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<Fig3Row> {
    let (kepler, volta) = devices();
    let mut rows = fig3_device(&kepler, cfg, ctx);
    rows.extend(fig3_device(&volta, cfg, ctx));
    rows
}

// ------------------------------------------------------------ Figure 4 --

/// One Figure 4 stacked bar: a code's AVF under one injector.
#[derive(Clone, Debug)]
pub struct AvfRow {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// "SASSIFI" or "NVBitFI".
    pub injector: Injector,
    /// SDC AVF.
    pub sdc: f64,
    /// DUE AVF.
    pub due: f64,
    /// Masked fraction.
    pub masked: f64,
}

impl AvfRow {
    fn from(device: &'static str, r: &AvfResult) -> AvfRow {
        AvfRow {
            device,
            name: r.target.clone(),
            injector: r.injector,
            sdc: r.sdc_avf(),
            due: r.due_avf(),
            masked: r.masked,
        }
    }
}

/// The Volta Figure 4 set: F and D variants of the mixed-precision codes.
fn volta_fig4_set(scale: Scale) -> Vec<Workload> {
    use Benchmark::*;
    use Precision::*;
    [
        (Hotspot, Single),
        (Hotspot, Double),
        (Lava, Single),
        (Lava, Double),
        (Mxm, Single),
        (Mxm, Double),
        (Gemm, Single),
        (Gemm, Double),
        (Yolov2, Single),
        (Yolov3, Single),
    ]
    .into_iter()
    .map(|(b, p)| build(b, p, CodeGen::Cuda10, scale))
    .collect()
}

/// Regenerate Figure 4: per-code AVF. On Kepler both injectors run (each
/// on the codegen it supports); on Volta only NVBitFI. SASSIFI rows are
/// absent for proprietary-library codes, as on real hardware.
pub fn fig4(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<AvfRow> {
    let (kepler, volta) = devices();
    let budget = &cfg.injection;
    let sets = [
        ("Kepler", Injector::Sassifi, &kepler, kepler_suite(CodeGen::Cuda7, cfg.scale)),
        ("Kepler", Injector::NvBitFi, &kepler, kepler_suite(CodeGen::Cuda10, cfg.scale)),
        ("Volta", Injector::NvBitFi, &volta, volta_fig4_set(cfg.scale)),
    ];
    let mut rows = Vec::new();
    for (device, injector, dm, suite) in sets {
        for w in suite {
            let label = format!("fig4/{device}/{injector}/{}", w.name);
            if let Some(r) = ctx.avf(&label, injector, &w, dm, budget) {
                rows.push(AvfRow::from(device, &r));
            }
        }
    }
    rows
}

// ------------------------------------------------------------ Figure 5 --

/// One Figure 5 bar pair: a code's beam SDC/DUE FIT under one ECC state.
#[derive(Clone, Debug)]
pub struct BeamRow {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// ECC enabled?
    pub ecc: bool,
    /// Raw FITs.
    pub sdc_fit: f64,
    /// Raw DUE FIT.
    pub due_fit: f64,
    /// Observed error counts backing the estimate.
    pub sdc_errors: u64,
    /// DUE count.
    pub due_errors: u64,
}

/// The Kepler ECC-OFF beam set of Figure 5.
fn kepler_ecc_off_set(scale: Scale) -> Vec<Workload> {
    use Benchmark::*;
    [Hotspot, Lava, Mxm, Nw, Mergesort, Quicksort, Gemm, Yolov2, Yolov3]
        .into_iter()
        .map(|b| {
            let p = if b.is_integer() { Precision::Int32 } else { Precision::Single };
            build(b, p, CodeGen::Cuda10, scale)
        })
        .collect()
}

/// The Volta beam sets of Figure 5: (ECC OFF, ECC ON).
fn volta_fig5_sets(scale: Scale) -> (Vec<Workload>, Vec<Workload>) {
    use Benchmark::*;
    use Precision::*;
    let off = [
        (Hotspot, Half),
        (Hotspot, Single),
        (Hotspot, Double),
        (Lava, Half),
        (Lava, Single),
        (Lava, Double),
        (Mxm, Half),
        (Mxm, Single),
        (Mxm, Double),
        (Gemm, Half),
        (Gemm, Single),
        (Gemm, Double),
    ]
    .into_iter()
    .map(|(b, p)| build(b, p, CodeGen::Cuda10, scale))
    .collect();
    let on = [(GemmMma, Half), (GemmMma, Single), (Yolov3, Half), (Yolov3, Single)]
        .into_iter()
        .map(|(b, p)| build(b, p, CodeGen::Cuda10, scale))
        .collect();
    (off, on)
}

/// Regenerate Figure 5: workload beam FIT rates, ECC off and on.
pub fn fig5(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<BeamRow> {
    let (kepler, volta) = devices();
    let (volta_off, volta_on) = volta_fig5_sets(cfg.scale);
    let sets = [
        ("Kepler", &kepler, false, kepler_ecc_off_set(cfg.scale)),
        ("Kepler", &kepler, true, kepler_suite(CodeGen::Cuda10, cfg.scale)),
        ("Volta", &volta, false, volta_off),
        ("Volta", &volta, true, volta_on),
    ];
    let mut rows = Vec::new();
    for (device, dm, ecc, suite) in sets {
        for w in suite {
            let label = format!("fig5/{device}/{}/{}", ecc_label(ecc), w.name);
            let res = ctx.run(&label, Beam::auto(ecc), &w, dm, &cfg.beam);
            rows.push(BeamRow {
                device,
                name: w.name.clone(),
                ecc,
                sdc_fit: res.sdc_fit.fit,
                due_fit: res.due_fit.fit,
                sdc_errors: res.counts.sdc,
                due_errors: res.counts.due,
            });
        }
    }
    rows
}

/// `ecc-on` / `ecc-off`, the ECC segment of campaign labels.
fn ecc_label(ecc: bool) -> &'static str {
    if ecc {
        "ecc-on"
    } else {
        "ecc-off"
    }
}

// ------------------------------------------------------------ Figure 6 --

/// One Figure 6 point plus its DUE-channel companion.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// ECC state of the comparison.
    pub ecc: bool,
    /// AVF source series ("SASSIFI", "NVBitFI").
    pub injector: Injector,
    /// The comparison itself.
    pub row: ComparisonRow,
}

/// All Figure 6 data plus the unit characterization it used.
#[derive(Clone, Debug)]
pub struct ComparisonSet {
    /// Individual code comparisons.
    pub rows: Vec<Fig6Row>,
    /// Kepler unit FITs (measured).
    pub kepler_units: UnitFits,
    /// Volta unit FITs (measured).
    pub volta_units: UnitFits,
}

impl ComparisonSet {
    /// Geometric-mean |ratio| for a (device, ecc, injector) series.
    pub fn average_magnitude(&self, device: &str, ecc: bool, injector: Injector) -> f64 {
        let mags: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.device == device && r.ecc == ecc && r.injector == injector)
            .map(|r| r.row.sdc_ratio.abs())
            .filter(|m| m.is_finite())
            .collect();
        stats::geometric_mean(&mags)
    }

    /// Fraction of predictions within `factor`x of the measurement.
    pub fn within_factor(&self, factor: f64) -> f64 {
        let all: Vec<&Fig6Row> = self.rows.iter().filter(|r| r.row.sdc_ratio.is_finite()).collect();
        if all.is_empty() {
            return f64::NAN;
        }
        let close = all.iter().filter(|r| r.row.sdc_ratio.abs() <= factor).count();
        close as f64 / all.len() as f64
    }

    /// Average DUE underestimation factor for a (device, ecc) group.
    pub fn due_factor(&self, device: &str, ecc: bool) -> f64 {
        let f: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.device == device && r.ecc == ecc)
            .map(|r| r.row.due_underestimation)
            .filter(|v| v.is_finite() && *v > 0.0)
            .collect();
        stats::geometric_mean(&f)
    }
}

/// AVF lookup strategy mirroring Section VII: SASSIFI on the CUDA 7 build;
/// NVBitFI on the CUDA 10 build; proprietary codes on Kepler borrow the
/// Volta NVBitFI AVF; half-precision codes borrow their single-precision
/// sibling's AVF (NVBitFI cannot inject into half instructions).
struct AvfBank {
    kepler_sassifi: Vec<AvfResult>,
    kepler_nvbitfi: Vec<AvfResult>,
    volta_nvbitfi: Vec<AvfResult>,
}

impl AvfBank {
    fn find<'a>(pool: &'a [AvfResult], name: &str) -> Option<&'a AvfResult> {
        pool.iter().find(|r| r.target == name)
    }

    /// The AVF used for predicting `name` on Kepler with `injector`.
    fn kepler(&self, name: &str, injector: Injector) -> Option<&AvfResult> {
        let pool = match injector {
            Injector::Sassifi => &self.kepler_sassifi,
            Injector::NvBitFi => &self.kepler_nvbitfi,
        };
        Self::find(pool, name)
            // Proprietary-library codes: borrow the Volta NVBitFI AVF
            // (Section III-D's substitution).
            .or_else(|| Self::find(&self.volta_nvbitfi, name))
    }

    /// The AVF used for predicting `name` on Volta.
    fn volta(&self, w: &Workload) -> Option<&AvfResult> {
        if w.precision == Precision::Half {
            // NVBitFI cannot inject into half-precision instructions; the
            // paper substitutes the float variant's AVF.
            let sibling = w.benchmark.display_name(Precision::Single);
            return Self::find(&self.volta_nvbitfi, &sibling)
                .or_else(|| Self::find(&self.volta_nvbitfi, &w.name));
        }
        Self::find(&self.volta_nvbitfi, &w.name)
    }
}

/// Regenerate Figure 6 (and the Section VII-B DUE analysis): beam-measured
/// vs predicted SDC FIT for every code, ECC off and on, both devices.
///
/// The characterization beams are Figure 3's and the AVF and beam
/// campaigns Figure 4's and Figure 5's (same kinds, targets and budgets),
/// so with a checkpoint store shared across the run they resume as
/// finished instead of running again.
pub fn fig6(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> ComparisonSet {
    let (kepler, volta) = devices();

    // 1. Characterize the functional units on both devices (Figure 3 data
    //    in usable form).
    let kepler_units = ctx.unit_fits("fig6", &kepler, cfg);
    let volta_units = ctx.unit_fits("fig6", &volta, cfg);

    // 2. AVF banks.
    let mut bank = AvfBank {
        kepler_sassifi: Vec::new(),
        kepler_nvbitfi: Vec::new(),
        volta_nvbitfi: Vec::new(),
    };
    for w in kepler_suite(CodeGen::Cuda7, cfg.scale) {
        let label = format!("fig6/Kepler/SASSIFI/{}", w.name);
        bank.kepler_sassifi.extend(ctx.avf(&label, Injector::Sassifi, &w, &kepler, &cfg.injection));
    }
    for w in kepler_suite(CodeGen::Cuda10, cfg.scale) {
        let label = format!("fig6/Kepler/NVBitFI/{}", w.name);
        bank.kepler_nvbitfi.extend(ctx.avf(&label, Injector::NvBitFi, &w, &kepler, &cfg.injection));
    }
    // Volta AVFs: every (benchmark, precision) the Volta comparisons need,
    // plus single-precision variants of the Kepler proprietary codes.
    // Half-precision codes are skipped: predictions use the float sibling.
    let mut volta_avf_targets = volta_suite(cfg.scale);
    volta_avf_targets.push(build(Benchmark::Yolov2, Precision::Single, CodeGen::Cuda10, cfg.scale));
    for w in volta_avf_targets.iter().filter(|w| w.precision != Precision::Half) {
        let label = format!("fig6/Volta/NVBitFI/{}", w.name);
        bank.volta_nvbitfi.extend(ctx.avf(&label, Injector::NvBitFi, w, &volta, &cfg.injection));
    }

    // 3. Per-code comparisons.
    let mut rows = Vec::new();

    // Kepler, both ECC states. The beam runs the CUDA 10 build.
    let kepler_sets: [(bool, Vec<Workload>); 2] =
        [(false, kepler_ecc_off_set(cfg.scale)), (true, kepler_suite(CodeGen::Cuda10, cfg.scale))];
    for (ecc, set) in kepler_sets {
        for w in &set {
            let prof = profile(w, &kepler);
            let feet = memory_footprint(w, &kepler, &prof);
            let label = format!("fig6/Kepler/{}/{}", ecc_label(ecc), w.name);
            let measured = ctx.run(&label, Beam::auto(ecc), w, &kepler, &cfg.beam);
            for injector in [Injector::Sassifi, Injector::NvBitFi] {
                let Some(avf) = bank.kepler(&w.name, injector) else { continue };
                let pred = predict(
                    &prof,
                    avf,
                    &kepler_units,
                    &feet,
                    &PredictOptions { ecc, use_phi: true },
                );
                rows.push(Fig6Row {
                    device: "Kepler",
                    name: w.name.clone(),
                    ecc,
                    injector,
                    row: compare(&w.name, &measured, &pred),
                });
            }
        }
    }

    // Volta.
    let (off, on) = volta_fig5_sets(cfg.scale);
    for (ecc, set) in [(false, off), (true, on)] {
        for w in &set {
            let prof = profile(w, &volta);
            let feet = memory_footprint(w, &volta, &prof);
            let label = format!("fig6/Volta/{}/{}", ecc_label(ecc), w.name);
            let measured = ctx.run(&label, Beam::auto(ecc), w, &volta, &cfg.beam);
            let Some(avf) = bank.volta(w) else { continue };
            let pred =
                predict(&prof, avf, &volta_units, &feet, &PredictOptions { ecc, use_phi: true });
            rows.push(Fig6Row {
                device: "Volta",
                name: w.name.clone(),
                ecc,
                injector: Injector::NvBitFi,
                row: compare(&w.name, &measured, &pred),
            });
        }
    }

    ComparisonSet { rows, kepler_units, volta_units }
}

// ------------------------------------------------- Section VII-B (DUE) --

/// Aggregated DUE underestimation factors per (device, ECC) group.
#[derive(Clone, Debug)]
pub struct DueSummary {
    /// Group label, e.g. "Kepler ECC OFF".
    pub group: String,
    /// Geometric-mean measured/predicted DUE factor.
    pub factor: f64,
}

/// The Section VII-B analysis: how badly fault simulation underestimates
/// DUE rates.
pub fn due_analysis(set: &ComparisonSet) -> Vec<DueSummary> {
    let mut out = Vec::new();
    for (device, ecc) in [("Kepler", false), ("Kepler", true), ("Volta", false), ("Volta", true)] {
        let factor = set.due_factor(device, ecc);
        out.push(DueSummary {
            group: format!("{device} ECC {}", if ecc { "ON" } else { "OFF" }),
            factor,
        });
    }
    out
}

// --------------------------------- hidden-resource DUE gap closure --

/// One rung of the hidden-coverage ladder for one code: how close the
/// DUE prediction gets to the beam measurement when the injector reaches
/// this subset of hidden resources.
#[derive(Clone, Debug)]
pub struct GapRow {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// Coverage label ("none", "scheduler", ..., "full").
    pub coverage: String,
    /// Live hidden classes the coverage reaches on this code.
    pub covered: usize,
    /// Fraction of the code's hidden strike rate the coverage reaches.
    pub rate_coverage: f64,
    /// Beam-measured DUE FIT (the ground truth, fixed per code).
    pub measured_due: f64,
    /// Predicted DUE FIT at this coverage.
    pub predicted_due: f64,
    /// The hidden-resource share of `predicted_due`.
    pub predicted_hidden_due: f64,
    /// Measured / predicted: the Section VII-B underestimation factor.
    pub gap: f64,
}

/// The full gap-closure ladder: per code, the DUE prediction gap at each
/// hidden-coverage level, from register-only ("none", today's injectors)
/// to full hidden-resource coverage.
#[derive(Clone, Debug)]
pub struct GapClosure {
    /// Rows grouped by code, coverage levels in ladder order.
    pub rows: Vec<GapRow>,
    /// Coverage levels per code.
    pub levels: usize,
}

impl GapClosure {
    /// Distinct code names, in run order.
    pub fn codes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !out.contains(&r.name.as_str()) {
                out.push(&r.name);
            }
        }
        out
    }

    /// One code's rows, in ladder order.
    pub fn ladder(&self, name: &str) -> Vec<&GapRow> {
        self.rows.iter().filter(|r| r.name == name).collect()
    }

    /// One JSON line per rung (`{"report":"hidden_gap",...}`), for the CI
    /// gap-closure artifact.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 160);
        for r in &self.rows {
            out.push_str("{\"report\":\"hidden_gap\",\"device\":");
            obs::json::escape_str(&mut out, r.device);
            out.push_str(",\"code\":");
            obs::json::escape_str(&mut out, &r.name);
            out.push_str(",\"coverage\":");
            obs::json::escape_str(&mut out, &r.coverage);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"covered\":{},\"rate_coverage\":{},\"measured_due\":{},\
                     \"predicted_due\":{},\"predicted_hidden_due\":{},\"gap\":{}}}\n",
                    r.covered,
                    r.rate_coverage,
                    r.measured_due,
                    r.predicted_due,
                    r.predicted_hidden_due,
                    r.gap
                ),
            );
        }
        out
    }
}

/// The coverage ladder the gap study climbs: register-only, one hidden
/// class, the SM-front-end classes, everything.
fn coverage_ladder() -> [HiddenCoverage; 4] {
    [
        HiddenCoverage::none(),
        HiddenCoverage::of(&[HiddenClass::Scheduler]),
        HiddenCoverage::of(&[HiddenClass::Scheduler, HiddenClass::Fetch, HiddenClass::Mask]),
        HiddenCoverage::full(),
    ]
}

/// The Section VII-B closure experiment: hold the beam DUE measurement
/// and the architectural (register-level) prediction fixed per code, then
/// grow the hidden-injection coverage rung by rung and watch the
/// measured/predicted DUE gap shrink from its orders-of-magnitude
/// register-only size toward 1.
///
/// Everything on the prediction side is measured blind: hidden strike
/// rates come from [`beam::characterize_hidden`] (a simulated calibration
/// experiment, not the ground-truth cross-sections) and the per-class
/// P(DUE | strike) from [`injector::measure_hidden_breakdown`] campaigns.
pub fn hidden_gap_closure(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> GapClosure {
    let (_, volta) = devices();
    let units = ctx.unit_fits("gap", &volta, cfg);
    let rates = beam::characterize_hidden(&volta, cfg.beam.ceiling, cfg.beam.seed);
    let ladder = coverage_ladder();

    let mut rows = Vec::new();
    for bench in [Benchmark::Mxm, Benchmark::Hotspot] {
        let w = build(bench, Precision::Single, CodeGen::Cuda10, cfg.scale);
        let prof = profile(&w, &volta);
        let feet = memory_footprint(&w, &volta, &prof);
        let label = format!("gap/Volta/NVBitFI/{}", w.name);
        let avf = ctx.run(&label, Avf::new(Injector::NvBitFi), &w, &volta, &cfg.injection);
        let label = format!("gap/Volta/ecc-on/{}", w.name);
        let measured = ctx.run(&label, Beam::auto(true), &w, &volta, &cfg.beam);
        let breakdown = injector::measure_hidden_breakdown(&w, &volta, |kind| {
            let label = format!("gap/Volta/hidden/{}/{}", kind.coverage.label(), w.name);
            ctx.run(&label, kind, &w, &volta, &cfg.injection)
        });
        let base =
            predict(&prof, &avf, &units, &feet, &PredictOptions { ecc: true, use_phi: true });
        for coverage in ladder {
            let term = predict_hidden(&prof, &rates, &breakdown, coverage);
            let row = compare(&w.name, &measured, &base.with_hidden(&term));
            rows.push(GapRow {
                device: "Volta",
                name: w.name.clone(),
                coverage: coverage.label(),
                covered: breakdown.per_class.iter().filter(|(c, _)| coverage.covers(*c)).count(),
                rate_coverage: term.rate_coverage,
                measured_due: row.measured_due,
                predicted_due: row.predicted_due,
                predicted_hidden_due: row.predicted_hidden_due,
                gap: row.due_underestimation,
            });
        }
    }
    GapClosure { rows, levels: ladder.len() }
}

// -------------------------------------------- spec-driven device run --

/// One workload's beam-vs-prediction comparison from a spec-resolved
/// device run (the hidden DUE term is always included at full coverage).
#[derive(Clone, Debug)]
pub struct DeviceRow {
    /// Workload name.
    pub name: String,
    /// ECC state of the comparison.
    pub ecc: bool,
    /// AVF source series.
    pub injector: Injector,
    /// The comparison itself.
    pub row: ComparisonRow,
}

/// The full-pipeline report for an arbitrary device resolved from the
/// registry or a user spec file (`repro device --device <name|path>`).
#[derive(Clone, Debug)]
pub struct DeviceReport {
    /// Registry id of the spec the run resolved.
    pub id: String,
    /// Marketing name of the board the spec describes.
    pub device: String,
    /// Architecture generation name.
    pub arch: String,
    /// SM count of the full board (campaigns run the 1-SM variant).
    pub sms: u32,
    /// Measured functional-unit FITs on this device.
    pub units: UnitFits,
    /// Per-code comparisons, ECC states in spec-capability order.
    pub rows: Vec<DeviceRow>,
}

impl DeviceReport {
    /// One JSON line per comparison (`{"report":"device_row",...}`), for
    /// the metrics stream / CI device artifact.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 200);
        for r in &self.rows {
            out.push_str("{\"report\":\"device_row\",\"id\":");
            obs::json::escape_str(&mut out, &self.id);
            out.push_str(",\"device\":");
            obs::json::escape_str(&mut out, &self.device);
            out.push_str(",\"arch\":");
            obs::json::escape_str(&mut out, &self.arch);
            out.push_str(",\"code\":");
            obs::json::escape_str(&mut out, &r.name);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"ecc\":{},\"injector\":\"{}\",\"measured_sdc\":{},\
                     \"predicted_sdc\":{},\"sdc_ratio\":{},\"measured_due\":{},\
                     \"predicted_due\":{},\"predicted_hidden_due\":{}}}\n",
                    r.ecc,
                    r.injector,
                    r.row.measured_sdc,
                    r.row.predicted_sdc,
                    r.row.sdc_ratio,
                    r.row.measured_due,
                    r.row.predicted_due,
                    r.row.predicted_hidden_due
                ),
            );
        }
        out
    }
}

/// The codes a spec-driven device run compares (one dense arithmetic
/// kernel, one stencil, one irregular molecular-dynamics kernel).
fn device_suite() -> [Benchmark; 3] {
    [Benchmark::Mxm, Benchmark::Hotspot, Benchmark::Lava]
}

/// Run the paper's whole methodology — unit characterization, register
/// AVF, hidden-resource calibration + injection, beam exposure,
/// prediction — on one spec-resolved device and report Figure 6-style
/// comparison rows. Everything downstream of the spec is table-driven:
/// workloads build with the spec's codegen-quirk profile, the injector
/// follows the spec's tooling capability (SASSIFI where supported,
/// NVBitFI otherwise), and beam campaigns run only the ECC states the
/// board can actually be put in.
pub fn device_pipeline(
    spec: &DeviceSpec,
    cfg: &HarnessConfig,
    ctx: &mut ObserveCtx<'_>,
) -> DeviceReport {
    // Campaigns run the derived single-SM variant (see DESIGN.md on
    // SM-count scaling); the report carries the full board's identity.
    let device = spec.sim_model();
    let units = ctx.unit_fits(&format!("device/{}", spec.id), &device, cfg);
    let rates = beam::characterize_hidden(&device, cfg.beam.ceiling, cfg.beam.seed);
    let codegen = spec.codegen_profile();
    let injector_kind = if spec.sassifi { Injector::Sassifi } else { Injector::NvBitFi };
    let ecc_states: &[bool] = if spec.ecc_toggle { &[false, true] } else { &[true] };

    let mut rows = Vec::new();
    for bench in device_suite() {
        let w = build_with(bench, Precision::Single, &codegen, cfg.scale);
        let prof = profile(&w, &device);
        let feet = memory_footprint(&w, &device, &prof);
        let label = format!("device/{}/{}", spec.id, w.name);
        let avf = ctx
            .avf(&label, injector_kind, &w, &device, &cfg.injection)
            .expect("spec-selected injector rejected its own device");
        let breakdown = injector::measure_hidden_breakdown(&w, &device, |kind| {
            let label = format!("device/{}/hidden/{}/{}", spec.id, kind.coverage.label(), w.name);
            ctx.run(&label, kind, &w, &device, &cfg.injection)
        });
        let term = predict_hidden(&prof, &rates, &breakdown, HiddenCoverage::full());
        for &ecc in ecc_states {
            let label = format!("device/{}/{}/{}", spec.id, w.name, ecc_label(ecc));
            let measured = ctx.run(&label, Beam::auto(ecc), &w, &device, &cfg.beam);
            let pred = predict(&prof, &avf, &units, &feet, &PredictOptions { ecc, use_phi: true })
                .with_hidden(&term);
            rows.push(DeviceRow {
                name: w.name.clone(),
                ecc,
                injector: injector_kind,
                row: compare(&w.name, &measured, &pred),
            });
        }
    }
    DeviceReport {
        id: spec.id.clone(),
        device: spec.name.clone(),
        arch: spec.arch.name().to_string(),
        sms: spec.sms,
        units,
        rows,
    }
}

// ------------------------------------------- compiler-generation study --

/// One row of the codegen comparison: the same source, two back ends,
/// one injector.
#[derive(Clone, Debug)]
pub struct CodegenRow {
    /// Workload name (CUDA 10 naming).
    pub name: String,
    /// SDC AVF of the CUDA 7-era binary.
    pub avf_cuda7: f64,
    /// SDC AVF of the CUDA 10-era binary.
    pub avf_cuda10: f64,
    /// Dynamic instructions of each binary (the optimizer's footprint).
    pub dyn_cuda7: u64,
    /// CUDA 10 dynamic count.
    pub dyn_cuda10: u64,
}

/// Isolate the compiler-generation effect the paper identifies as the
/// main driver of the SASSIFI/NVBitFI AVF gap (Section VI): measure the
/// same codes with the *same* injector (NVBitFI) on both codegen levels.
/// Optimized code executes fewer, more "useful" instructions, raising
/// the probability that a corrupted value reaches the output.
pub fn codegen_comparison(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<CodegenRow> {
    let (kepler, _) = devices();
    let mut rows = Vec::new();
    for bench in [
        Benchmark::Mxm,
        Benchmark::Hotspot,
        Benchmark::Lava,
        Benchmark::Gaussian,
        Benchmark::Lud,
        Benchmark::Nw,
        Benchmark::Ccl,
        Benchmark::Mergesort,
    ] {
        let precision = if bench.is_integer() { Precision::Int32 } else { Precision::Single };
        let w7 = build(bench, precision, CodeGen::Cuda7, cfg.scale);
        let w10 = build(bench, precision, CodeGen::Cuda10, cfg.scale);
        let nvbitfi = Avf::new(Injector::NvBitFi);
        let label = format!("codegen/cuda7/{}", w7.name);
        let a7 = ctx.run(&label, nvbitfi, &w7, &kepler, &cfg.injection);
        let label = format!("codegen/cuda10/{}", w10.name);
        let a10 = ctx.run(&label, nvbitfi, &w10, &kepler, &cfg.injection);
        let g7 = w7.execute_golden(&kepler);
        let g10 = w10.execute_golden(&kepler);
        rows.push(CodegenRow {
            name: w10.name.clone(),
            avf_cuda7: a7.sdc_avf(),
            avf_cuda10: a10.sdc_avf(),
            dyn_cuda7: g7.counts.total,
            dyn_cuda10: g10.counts.total,
        });
    }
    rows
}

// ----------------------------------------------- campaign convergence --

/// One point of the convergence study.
#[derive(Clone, Debug)]
pub struct ConvergenceRow {
    /// Injection count.
    pub injections: u32,
    /// SDC AVF point estimate.
    pub sdc_avf: f64,
    /// Wilson 95% CI width (`hi - lo`).
    pub ci_width: f64,
}

/// How the AVF estimate converges with campaign size — the paper sizes
/// campaigns so that "95% confidence intervals \[are\] lower than 5%"
/// (Section III-D).
pub fn convergence(
    cfg: &HarnessConfig,
    benchmark: Benchmark,
    ctx: &mut ObserveCtx<'_>,
) -> Vec<ConvergenceRow> {
    let (kepler, _) = devices();
    let precision = if benchmark.is_integer() { Precision::Int32 } else { Precision::Single };
    let w = build(benchmark, precision, CodeGen::Cuda10, cfg.scale);
    let mut rows = Vec::new();
    for n in [100u32, 250, 500, 1000, 2000, 4000] {
        let label = format!("convergence/{}/{n}", w.name);
        let budget = Budget::fixed(n).seed(cfg.injection.seed);
        let r = ctx.run(&label, Avf::new(Injector::NvBitFi), &w, &kepler, &budget);
        rows.push(ConvergenceRow {
            injections: n,
            sdc_avf: r.sdc_avf(),
            ci_width: r.sdc.2 - r.sdc.1,
        });
    }
    rows
}

// ------------------------------------------------- per-class AVF table --

/// Per-site-class AVF rows for a few representative codes — the
/// decomposition the paper's conclusion asks for ("identify which
/// instruction or resource, once corrupted, is more likely to affect the
/// GPU computation").
#[derive(Clone, Debug)]
pub struct BreakdownRow {
    /// Workload name.
    pub name: String,
    /// Class label ("FP", "INT", "LD", "HALF").
    pub class: &'static str,
    /// SDC AVF for injections restricted to that class.
    pub sdc: f64,
    /// DUE AVF.
    pub due: f64,
}

/// Measure per-class AVFs for a representative code set: one campaign
/// (and one observation) per row.
pub fn avf_breakdown(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<BreakdownRow> {
    use gpu_sim::SiteClass;
    let (kepler, _) = devices();
    let class_label = |c: SiteClass| match c {
        SiteClass::FloatArith => "FP",
        SiteClass::HalfArith => "HALF",
        SiteClass::IntArith => "INT",
        SiteClass::Load => "LD",
        _ => "?",
    };
    let mut rows = Vec::new();
    for bench in [Benchmark::Mxm, Benchmark::Hotspot, Benchmark::Nw, Benchmark::Mergesort] {
        let precision = if bench.is_integer() { Precision::Int32 } else { Precision::Single };
        let w = build(bench, precision, CodeGen::Cuda10, cfg.scale);
        let b = injector::measure_avf_breakdown(&w, &kepler, |kind| {
            let label = format!("breakdown/{}/{}", class_label(kind.class), w.name);
            ctx.run(&label, kind, &w, &kepler, &cfg.injection)
        });
        for (class, r) in &b.per_class {
            rows.push(BreakdownRow {
                name: w.name.clone(),
                class: class_label(*class),
                sdc: r.sdc_avf(),
                due: r.due_avf(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::HarnessConfig;

    /// The only test in this binary that touches `REPRO_PROFILE`.
    #[test]
    fn from_env_accepts_only_quick_and_full() {
        for (name, ceiling) in [("quick", Some(4000)), ("full", Some(40_000)), ("Full", None)] {
            std::env::set_var("REPRO_PROFILE", name);
            assert_eq!(HarnessConfig::from_env().ok().map(|c| c.beam.ceiling), ceiling, "{name}");
        }
        std::env::set_var("REPRO_PROFILE", "ful");
        assert!(HarnessConfig::from_env().unwrap_err().contains("quick|full"));
        std::env::remove_var("REPRO_PROFILE");
        assert_eq!(HarnessConfig::from_env().map(|c| c.beam.ceiling), Ok(4000));
    }
}
