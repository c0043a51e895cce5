//! The benchmark's workloads: one cold pass of each, measured.
//!
//! A pass builds its inputs (timed as set-up), then calls the layers in
//! the order the paper's pipeline does, counting the work each call did
//! and checking every result. Every layer call goes through
//! [`crate::trace::Tracer`], so a traced pass attributes its wall time to
//! layers.

use crate::trace::{self, Tracer};
use beam::Beam;
use campaign::{golden, Budget, Campaign, CampaignRun, GoldenRequest, Kind};
use gpu_arch::{CodeGen, DeviceModel, Precision};
use gpu_sim::Target;
use injector::{Avf, AvfResult, Injector};
use obs::{CampaignObserver, MetricsRegistry, SpanBus, ROOT_SPAN};
use prediction::{characterize_units, compare, memory_footprint, predict, CharacterizeConfig};
use prediction::{PredictOptions, UnitFits};
use profiler::KernelProfile;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{build, Benchmark, Scale, Workload};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// AVF campaigns over a Figure 4 code subset: every trial simulated.
    Avf,
    /// Unit characterization, then beam + AVF + profile + prediction per
    /// HPC code of the Figure 5 sets: most trials resolved unsimulated.
    BeamPredict,
    /// Profile Table I codes at profile scale: golden runs and the static
    /// verdict pass, no campaigns.
    ProfileCnn,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 3] =
        [WorkloadId::Avf, WorkloadId::BeamPredict, WorkloadId::ProfileCnn];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Avf => "avf",
            WorkloadId::BeamPredict => "beam-predict",
            WorkloadId::ProfileCnn => "profile-cnn",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem scales and campaign budgets of one pass.
#[derive(Clone, Debug)]
pub struct Sizing {
    scale: Scale,
    profile_scale: Scale,
    /// Every AVF campaign.
    avf: Budget,
    /// Beam campaigns per code and ECC state.
    beam: Budget,
    /// Micro-benchmark beam and de-masking campaigns of the unit
    /// characterization.
    characterize: CharacterizeConfig,
}

impl Sizing {
    /// The measured sizes. AVF campaigns use the quick adaptive preset,
    /// as `repro` does; the fixed beam budgets are cut from the harness's
    /// 4,000 (workloads) and 3,000/200 (micro-benchmarks) so that one
    /// pass of each workload takes seconds, not minutes.
    pub fn bench(seed: u64) -> Sizing {
        Sizing {
            scale: Scale::Small,
            profile_scale: Scale::Profile,
            avf: Budget::quick().seed(seed),
            beam: Budget::fixed(1000).seed(seed),
            characterize: CharacterizeConfig {
                beam: Budget::fixed(200).seed(seed),
                injection: Budget::fixed(32).seed(seed),
            },
        }
    }

    /// Minimal sizes for the self-test.
    #[cfg(test)]
    pub fn tiny(seed: u64) -> Sizing {
        Sizing {
            scale: Scale::Tiny,
            profile_scale: Scale::Tiny,
            avf: Budget::adaptive(32, 64, 0.05).seed(seed),
            beam: Budget::fixed(64).seed(seed),
            characterize: CharacterizeConfig {
                beam: Budget::fixed(32).seed(seed),
                injection: Budget::fixed(32).seed(seed),
            },
        }
    }
}

/// What one pass measured: named values, the tally digest, and every
/// correctness failure.
#[derive(Clone, Debug, Default)]
pub struct PassRecord {
    pub values: BTreeMap<String, f64>,
    pub digest: u64,
    pub errors: Vec<String>,
}

impl PassRecord {
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Run one pass of `workload`. `trace` attaches a span bus and campaign
/// metrics; it changes what is recorded, never what is computed.
pub fn run_pass(workload: WorkloadId, sizing: &Sizing, trace: Option<&SpanBus>) -> PassRecord {
    let metrics = trace.map(|_| MetricsRegistry::new());
    let mut pass = Pass::new(Tracer::new(trace), metrics.as_ref());
    let (setup, inputs) = pass.setup(workload, sizing);
    let tracer = pass.tracer;
    let t0 = Instant::now();
    tracer.span(trace::PASS, ROOT_SPAN, |root| {
        pass.root = root;
        match inputs {
            Inputs::Avf(codes) => pass.avf_workload(&codes, sizing),
            Inputs::BeamPredict(devices) => pass.beam_predict_workload(&devices, sizing),
            Inputs::Profile(codes) => pass.profile_workload(&codes),
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    pass.finish(setup, wall, trace)
}

/// One code on one device.
struct Code {
    device: DeviceModel,
    /// The injector of the code's AVF campaign; profiling ignores it.
    injector: Injector,
    target: Workload,
}

/// One device's inputs for `beam-predict`.
struct DeviceInputs {
    device: DeviceModel,
    benches: Vec<microbench::MicroBench>,
    codes: Vec<Workload>,
}

enum Inputs {
    Avf(Vec<Code>),
    BeamPredict(Vec<DeviceInputs>),
    Profile(Vec<Code>),
}

/// Set-up is repeated this many times per pass and its median reported:
/// one build takes milliseconds, too short for a single reading to be
/// steady.
const SETUP_REPEATS: usize = 25;

fn kepler() -> DeviceModel {
    DeviceModel::named("k40c-sim")
}

fn volta() -> DeviceModel {
    DeviceModel::named("v100-sim")
}

fn code(
    device: &DeviceModel,
    injector: Injector,
    codegen: CodeGen,
    scale: Scale,
) -> impl Fn(&(Benchmark, Precision)) -> Code + '_ {
    move |&(b, p)| Code { device: device.clone(), injector, target: build(b, p, codegen, scale) }
}

/// The `avf` code set: from each Figure 4 series (Kepler SASSIFI on the
/// CUDA 7 build, Kepler NVBitFI and Volta NVBitFI on the CUDA 10 build),
/// stencil, linear-algebra, graph, matrix and CNN kernels. The full
/// Figure 4 set takes ~30 s per pass on a 2-core host; this subset ~3 s.
fn avf_codes(scale: Scale) -> Vec<Code> {
    use Benchmark::*;
    use Precision::*;
    let (k, v) = (kepler(), volta());
    let mut codes: Vec<Code> = [(Hotspot, Single), (Gaussian, Single), (Nw, Int32)]
        .iter()
        .map(code(&k, Injector::Sassifi, CodeGen::Cuda7, scale))
        .collect();
    codes.extend([(Bfs, Int32), (Lud, Single), (Yolov2, Single)].iter().map(code(
        &k,
        Injector::NvBitFi,
        CodeGen::Cuda10,
        scale,
    )));
    codes.extend([(Hotspot, Double), (Mxm, Double)].iter().map(code(
        &v,
        Injector::NvBitFi,
        CodeGen::Cuda10,
        scale,
    )));
    codes
}

/// The `beam-predict` HPC codes per device, drawn from the Figure 5
/// beam sets (CUDA 10 builds).
fn beam_predict_inputs(scale: Scale) -> Vec<DeviceInputs> {
    use Benchmark::*;
    use Precision::*;
    let sets: [(DeviceModel, &[(Benchmark, Precision)]); 2] = [
        (kepler(), &[(Hotspot, Single), (Nw, Int32), (Bfs, Int32), (Gaussian, Single)]),
        (volta(), &[(Hotspot, Single), (Hotspot, Double), (GemmMma, Single)]),
    ];
    sets.into_iter()
        .map(|(device, set)| DeviceInputs {
            benches: microbench::suite(&device),
            codes: set.iter().map(|&(b, p)| build(b, p, CodeGen::Cuda10, scale)).collect(),
            device,
        })
        .collect()
}

/// The `profile-cnn` codes: Table I on its two devices, as `repro table1`
/// profiles them, without the three YOLOv3 rows. Their 5,053-instruction
/// kernel makes the static verdict pass alone take ~26 s per kernel on a
/// 2-core host; YOLOv2 (1,918 instructions) keeps a CNN verdict pass in
/// the mix at ~1.5 s.
fn profile_codes(scale: Scale) -> Vec<Code> {
    use Benchmark::*;
    use Precision::*;
    let (k, v) = (kepler(), volta());
    let mut codes: Vec<Code> = [
        (Ccl, Int32),
        (Bfs, Int32),
        (Lava, Single),
        (Hotspot, Single),
        (Gaussian, Single),
        (Lud, Single),
        (Nw, Int32),
        (Mxm, Single),
        (Gemm, Single),
        (Mergesort, Int32),
        (Quicksort, Int32),
        (Yolov2, Single),
    ]
    .iter()
    .map(code(&k, Injector::NvBitFi, CodeGen::Cuda7, scale))
    .collect();
    codes.extend(
        [
            (Lava, Half),
            (Lava, Single),
            (Lava, Double),
            (Hotspot, Half),
            (Hotspot, Single),
            (Hotspot, Double),
            (Mxm, Half),
            (Mxm, Single),
            (Mxm, Double),
            (Gemm, Half),
            (Gemm, Single),
            (Gemm, Double),
            (GemmMma, Half),
            (GemmMma, Single),
        ]
        .iter()
        .map(code(&v, Injector::NvBitFi, CodeGen::Cuda10, scale)),
    );
    codes
}

/// Counters every pass reports, zero when the workload never touches them.
const COUNTERS: [&str; 13] = [
    "attempted",
    "failed",
    "campaign.golden_miss",
    "campaign.snapshot_bytes",
    "campaign.trials",
    "campaign.trials_executed",
    "campaign.trials_direct",
    "campaign.stop_early",
    "campaign.retries",
    "campaign.quarantined",
    "injector.masked_trials",
    "gpu_sim.golden_instrs",
    "sass_analysis.kernel_instrs",
];

/// Accumulates one pass's counters, digest rows and errors.
struct Pass<'a> {
    tracer: Tracer<'a>,
    metrics: Option<&'a MetricsRegistry>,
    root: u64,
    values: BTreeMap<&'static str, f64>,
    rows: Vec<String>,
    errors: Vec<String>,
    /// Each top-level layer call's wall seconds at the reference host
    /// speed (see [`host_slowdown`]), in call order.
    steps: Vec<f64>,
    /// The host slowdown read before each step.
    slowdowns: Vec<f64>,
}

impl<'a> Pass<'a> {
    fn new(tracer: Tracer<'a>, metrics: Option<&'a MetricsRegistry>) -> Self {
        let values = COUNTERS.iter().map(|&k| (k, 0.0)).collect();
        Pass {
            tracer,
            metrics,
            root: ROOT_SPAN,
            values,
            rows: Vec::new(),
            errors: Vec::new(),
            steps: Vec::new(),
            slowdowns: Vec::new(),
        }
    }

    /// Run one top-level layer call in a span under the pass, timing it as
    /// the pass's next step, scaled to the reference host speed read just
    /// before it.
    fn step<R>(&mut self, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        let host = self.tracer.span(HOST_PROBE, self.root, |_| host_slowdown());
        let t0 = Instant::now();
        let out = self.tracer.span(name, self.root, f);
        self.steps.push(t0.elapsed().as_secs_f64() / host.powf(PROGRAM_SENSITIVITY));
        self.slowdowns.push(host);
        out
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.values.entry(name).or_insert(v);
        *slot = slot.max(v);
    }

    fn fail(&mut self, why: String) {
        self.add("failed", 1.0);
        self.errors.push(why);
    }

    /// Build the workload's inputs [`SETUP_REPEATS`] times; returns the
    /// median build time, at the reference host speed read before and
    /// after the builds, and the last build.
    fn setup(&mut self, workload: WorkloadId, sizing: &Sizing) -> (f64, Inputs) {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut last = None;
        let before = host_slowdown();
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            let inputs = self.tracer.span("workloads.build", ROOT_SPAN, |_| match workload {
                WorkloadId::Avf => Inputs::Avf(avf_codes(sizing.scale)),
                WorkloadId::BeamPredict => Inputs::BeamPredict(beam_predict_inputs(sizing.scale)),
                WorkloadId::ProfileCnn => Inputs::Profile(profile_codes(sizing.profile_scale)),
            });
            times.push(t0.elapsed().as_secs_f64());
            last = Some(inputs);
        }
        let host = (before + host_slowdown()) / 2.0;
        (median(&mut times) / host.powf(PROGRAM_SENSITIVITY), last.expect("SETUP_REPEATS > 0"))
    }

    fn avf_workload(&mut self, codes: &[Code], sizing: &Sizing) {
        for c in codes {
            self.avf(c.injector, &c.target, &c.device, &sizing.avf);
        }
    }

    fn beam_predict_workload(&mut self, devices: &[DeviceInputs], sizing: &Sizing) {
        for d in devices {
            let units = self.step("prediction.characterize", |_| {
                characterize_units(&d.device, &d.benches, &sizing.characterize)
            });
            self.add("attempted", 1.0);
            self.check_units(&d.device, &units);
            for w in &d.codes {
                let beams = [false, true].map(|ecc| self.beam(w, &d.device, ecc, &sizing.beam));
                let avf = self.avf(Injector::NvBitFi, w, &d.device, &sizing.avf);
                let profile = self.profile(w, &d.device);
                let (Some(avf), Some(profile)) = (avf, profile) else { continue };
                for (ecc, measured) in [false, true].into_iter().zip(&beams) {
                    let Some(measured) = measured else { continue };
                    self.add("attempted", 1.0);
                    let row = self.step("prediction.predict", |_| {
                        let feet = memory_footprint(w, &d.device, &profile);
                        let pred = predict(
                            &profile,
                            &avf,
                            &units,
                            &feet,
                            &PredictOptions { ecc, use_phi: true },
                        );
                        compare(&w.name, measured, &pred)
                    });
                    if !(row.predicted_sdc.is_finite() && row.predicted_due.is_finite()) {
                        self.fail(format!("prediction for {} ecc={ecc} is not finite", w.name));
                        continue;
                    }
                    // A beam campaign that saw no SDC has no ratio; Figure 6
                    // leaves such rows out, and so does this fraction.
                    if row.sdc_ratio.is_finite() {
                        self.add("sdc_compared", 1.0);
                        self.add("sdc_within_5x", f64::from(u8::from(row.sdc_ratio.abs() <= 5.0)));
                    }
                }
            }
        }
    }

    fn profile_workload(&mut self, codes: &[Code]) {
        for c in codes {
            self.profile(&c.target, &c.device);
        }
    }

    fn check_units(&mut self, device: &DeviceModel, units: &UnitFits) {
        let mut all = units
            .sdc
            .iter()
            .chain(&units.due)
            .chain([&units.rf_sdc_per_bit, &units.rf_due_per_bit]);
        if all.any(|v| !v.is_finite() || *v < 0.0) {
            self.fail(format!("unit characterization of {} is not finite", device.name));
        }
        self.rows.push(format!("units {} {:?} {:?}", device.name, units.sdc, units.due));
    }

    /// Fetch the golden run a campaign of `kind` will ask for, so its cost
    /// lands in its own span; the campaign's own fetch then hits.
    fn golden<K: Kind<Workload>>(
        &mut self,
        kind: &K,
        w: &Workload,
        device: &DeviceModel,
        budget: &Budget,
    ) -> bool {
        let req = GoldenRequest::new(kind.ecc())
            .record_sites(kind.record_sites())
            .snapshots(budget.snapshots.stride());
        self.add("attempted", 1.0);
        let got = self.step("campaign.golden_fetch", |_| golden::fetch(w, device, req));
        match got {
            Ok((_, true)) => {}
            Ok((run, false)) => {
                self.add("runs", 1.0);
                self.add("golden_fetch_instrs", run.counts.total as f64);
                self.add("campaign.golden_miss", 1.0);
                self.add(
                    "campaign.snapshot_bytes",
                    run.snapshots.iter().map(|s| s.approx_bytes()).sum::<u64>() as f64,
                );
            }
            Err(why) => {
                self.fail(why);
                return false;
            }
        }
        true
    }

    fn campaign<K: Kind<Workload>>(
        &mut self,
        span: &'static str,
        kind: K,
        w: &Workload,
        device: &DeviceModel,
        budget: &Budget,
    ) -> Option<(K::Output, CampaignRun)> {
        if !self.golden(&kind, w, device, budget) {
            return None;
        }
        let observer =
            self.metrics.map_or_else(CampaignObserver::none, CampaignObserver::with_metrics);
        self.add("attempted", 1.0);
        let ran = self.step(span, |_| {
            Campaign::new(kind, w, device).budget(budget.clone()).observer(observer).run_full()
        });
        let (out, run) = match ran {
            Ok(ok) => ok,
            Err(e) => {
                self.fail(format!("{span} on {} / {}: {e}", w.name, device.name));
                return None;
            }
        };
        let executed = run.executed.total() as f64;
        self.add("attempted", run.trials as f64);
        self.add("runs", run.trials as f64);
        self.add("campaign.trials", run.trials as f64);
        self.add("campaign.trials_executed", executed);
        self.add("campaign.trials_direct", run.trials as f64 - executed);
        self.add("campaign.stop_early", f64::from(u8::from(run.stop.stopped_early())));
        self.add("campaign.retries", run.retries as f64);
        self.add("campaign.quarantined", run.quarantine.len() as f64);
        self.add("failed", run.quarantine.len() as f64);
        if run.counts.total() != run.trials {
            self.fail(format!(
                "{}: SDC+DUE+Masked = {} != {} trials",
                run.label,
                run.counts.total(),
                run.trials
            ));
        }
        let c = run.counts;
        self.rows.push(format!("{} {} {} {} {}", run.label, c.sdc, c.due, c.masked, run.trials));
        Some((out, run))
    }

    fn avf(
        &mut self,
        injector: Injector,
        w: &Workload,
        device: &DeviceModel,
        budget: &Budget,
    ) -> Option<AvfResult> {
        if let Err(why) = injector.supports(w, device) {
            self.fail(format!("{injector} on {} / {}: {why}", w.name, device.name));
            return None;
        }
        let (avf, run) = self.campaign("campaign.avf", Avf::new(injector), w, device, budget)?;
        if avf.counts.total() != run.trials {
            self.fail(format!(
                "{}: AVF tallies {} != {} trials",
                run.label,
                avf.counts.total(),
                run.trials
            ));
        }
        if ![avf.sdc_avf(), avf.due_avf(), avf.masked].iter().all(|v| (0.0..=1.0).contains(v)) {
            self.fail(format!("{}: AVF outside [0, 1]", run.label));
        }
        self.max("avf_ci_half_width", run.ci_half_width());
        self.add("injector.masked_trials", run.executed.masked as f64);
        Some(avf)
    }

    fn beam(
        &mut self,
        w: &Workload,
        device: &DeviceModel,
        ecc: bool,
        budget: &Budget,
    ) -> Option<beam::BeamResult> {
        let (res, run) = self.campaign("campaign.beam", Beam::auto(ecc), w, device, budget)?;
        if res.counts.total() != run.trials {
            self.fail(format!(
                "{}: beam tallies {} != {} trials",
                run.label,
                res.counts.total(),
                run.trials
            ));
        }
        if ![res.sdc_fit.fit, res.due_fit.fit].iter().all(|v| v.is_finite() && *v >= 0.0) {
            self.fail(format!("{}: beam FIT not finite", run.label));
        }
        self.add("beam.struck", f64::from(res.struck_runs));
        self.add("beam.trials", run.trials as f64);
        Some(res)
    }

    /// `profiler::profile`, taken apart at its public seams so the golden
    /// run and the static verdict pass get spans of their own: the golden
    /// run, then the memoized verdict summary, then
    /// [`KernelProfile::from_execution`] (which finds the verdict memoized).
    fn profile(&mut self, w: &Workload, device: &DeviceModel) -> Option<KernelProfile> {
        self.add("attempted", 1.0);
        let tracer = self.tracer;
        let (out, profile) = self.step("profiler.profile", |parent| {
            let out = tracer.span("gpu_sim.golden", parent, |_| w.execute_golden(device));
            if !out.status.completed() {
                return (out, None);
            }
            let ctx =
                sass_analysis::AnalysisContext::for_launch(w.launch(), out.memory.len() as u64);
            tracer.span("sass_analysis.verdict", parent, |_| {
                sass_analysis::verdict_summary(w.kernel(), &ctx)
            });
            let profile = KernelProfile::from_execution(w.name(), w.kernel(), w.launch(), &out);
            (out, Some(profile))
        });
        self.add("runs", 1.0);
        self.add("gpu_sim.golden_instrs", out.counts.total as f64);
        self.add("sass_analysis.kernel_instrs", w.kernel().len() as f64);
        let Some(p) = profile else {
            self.fail(format!(
                "golden run of {} on {} failed: {:?}",
                w.name, device.name, out.status
            ));
            return None;
        };
        if ![p.ipc, p.occupancy, p.phi, p.static_ace, p.static_sdc_upper, p.static_due_upper]
            .iter()
            .all(|v| v.is_finite())
            || p.total_instructions == 0
        {
            self.fail(format!("profile of {} on {} is not finite", w.name, device.name));
        }
        self.rows.push(format!(
            "profile {} {} {} {:?} {} {} {:x} {:x} {:x}",
            device.name,
            p.name,
            p.total_instructions,
            p.unit_counts,
            p.shared_bytes,
            p.regs_per_thread,
            p.ipc.to_bits(),
            p.occupancy.to_bits(),
            p.static_sdc_upper.to_bits()
        ));
        Some(p)
    }

    fn finish(mut self, setup: f64, wall: f64, trace: Option<&SpanBus>) -> PassRecord {
        let mut out = PassRecord { digest: fnv1a(&self.rows.join("\n")), ..PassRecord::default() };
        out.errors = std::mem::take(&mut self.errors);
        let mut v: BTreeMap<String, f64> =
            self.values.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
        let fault_free = get(&v, "gpu_sim.golden_instrs") + get(&v, "golden_fetch_instrs");
        let e2e = [
            ("setup_s", setup),
            ("wall_s", wall),
            ("runs", get(&v, "runs")),
            ("fault_free_instrs", fault_free),
            ("peak_rss_mib", peak_rss_mib()),
            // An empty sample's Wilson interval is [0, 1].
            ("avf_ci_half_width", v.get("avf_ci_half_width").copied().unwrap_or(0.5)),
            // With no prediction made, none is outside 5x.
            ("sdc_within_5x", ratio_or_one(get(&v, "sdc_within_5x"), get(&v, "sdc_compared"))),
        ];
        out.values.extend(e2e.map(|(k, x)| (k.to_string(), x)));
        for k in ["attempted", "failed"] {
            out.values.insert(k.to_string(), get(&v, k));
        }
        for (i, secs) in self.steps.iter().enumerate() {
            out.values.insert(step_key(i), *secs);
        }
        out.values.insert("host.slowdown".to_string(), median(&mut self.slowdowns));
        if let (Some(bus), Some(m)) = (trace, self.metrics) {
            let snap = m.snapshot();
            let hist = |name: &str| snap.histograms.get(name).cloned().unwrap_or_default();
            let (dyn_instrs, ff, trial_us) = (
                hist("campaign.trial_dyn_instrs"),
                hist("campaign.snapshot.fastforward_instrs"),
                hist("campaign.trial_micros"),
            );
            let own = trace::self_seconds(bus);
            let own = |name: &str| own.get(name).copied().unwrap_or(0.0);
            let trial_minstrs = (dyn_instrs.sum - ff.sum) as f64 / 1e6;
            let golden_minstrs = get(&v, "gpu_sim.golden_instrs") / 1e6;
            let sim_s = own("campaign.avf") + own("campaign.beam") + own("gpu_sim.golden");
            // A campaign whose own fetch missed ran a golden run the
            // benchmark's fetch did not; count it too.
            let engine_misses = snap.counters.get("campaign.golden.miss").copied().unwrap_or(0);
            let layer = [
                ("campaign.golden_miss", get(&v, "campaign.golden_miss") + engine_misses as f64),
                ("workloads.build_s", own("workloads.build") / SETUP_REPEATS as f64),
                ("gpu_sim.trial_minstrs", trial_minstrs),
                ("gpu_sim.fastforward_minstrs", ff.sum as f64 / 1e6),
                (
                    "gpu_sim.minstrs_per_s",
                    if sim_s > 0.0 { (trial_minstrs + golden_minstrs) / sim_s } else { 0.0 },
                ),
                ("gpu_sim.golden_s", own("gpu_sim.golden")),
                ("gpu_sim.golden_minstrs", golden_minstrs),
                ("sass_analysis.verdict_s", own("sass_analysis.verdict")),
                ("profiler.profile_s", own("profiler.profile")),
                ("campaign.avf_s", own("campaign.avf")),
                ("campaign.beam_s", own("campaign.beam")),
                ("campaign.golden_fetch_s", own("campaign.golden_fetch")),
                ("campaign.trial_us.p50", quantile(&trial_us, 0.5)),
                ("campaign.trial_us.p99", quantile(&trial_us, 0.99)),
                ("beam.struck_frac", ratio_or_zero(get(&v, "beam.struck"), get(&v, "beam.trials"))),
                ("prediction.characterize_s", own("prediction.characterize")),
                ("prediction.predict_s", own("prediction.predict")),
                ("pass.unattributed_s", own(trace::PASS)),
                ("host.probe_s", own(HOST_PROBE)),
            ];
            v.extend(layer.map(|(k, x)| (k.to_string(), x)));
            out.values.extend(v.into_iter().filter(|(k, _)| k.contains('.')));
        }
        out
    }
}

/// Span name of the host-speed probe taken before each step.
const HOST_PROBE: &str = "host.probe";

/// The reference loop's time on an idle host of the reference machine
/// (2-vCPU Intel Xeon VM): the speed every reported time is scaled to.
const REFERENCE_PROBE_S: f64 = 0.004;

/// How much more the program slows than the probe when the host is
/// loaded: its time goes as the probe's to this power. Fitted on the
/// reference machine to four rounds of ten runs per workload, taken while
/// other tenants' load came and went (probes reading 0.91x to 2.29x). The
/// program slows more than the probe under moderate load (the best power
/// there is 1.4) and less in the heaviest phases (there 1.0); 1.2 keeps
/// every round's quartile distance under 20% of its median and the
/// rounds' medians within 13% of each other, on every workload.
const PROGRAM_SENSITIVITY: f64 = 1.2;

/// How much slower than the reference speed the host runs right now: the
/// time of a fixed ~4 ms loop over [`REFERENCE_PROBE_S`].
///
/// On a shared host the same code runs up to ~2x slower in phases of
/// seconds to minutes, when other tenants load the machine; a whole run
/// can fall into one. Dividing a step's time by the slowdown read just
/// before it, to the power [`PROGRAM_SENSITIVITY`], takes most of that
/// out. The loop (hashing with scattered reads and writes over a 256 KiB
/// table, as an interpreter works a register file and memory image) calls
/// no code of the program, so a change to the program never moves it.
fn host_slowdown() -> f64 {
    const TABLE: usize = 1 << 16;
    let t0 = Instant::now();
    let mut table = vec![0u32; TABLE];
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for _ in 0..2_000_000 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 48) as usize % TABLE;
        table[i] = table[i].wrapping_add(x as u32);
        acc = acc.wrapping_add(u64::from(table[i.wrapping_mul(7) % TABLE])) ^ (x >> 7);
        if acc & 1 == 0 {
            acc = acc.rotate_left(3);
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() / REFERENCE_PROBE_S
}

/// The record key of a pass's `i`-th step.
pub fn step_key(i: usize) -> String {
    format!("step.{i:04}")
}

fn ratio_or_one(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

fn ratio_or_zero(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Quantile `q` of a log2-bucketed histogram, interpolated linearly
/// within the bucket the rank falls in (the engine's own
/// `HistogramSnapshot::quantile` returns the bucket's upper edge, which
/// reads the same on most runs).
fn quantile(h: &obs::HistogramSnapshot, q: f64) -> f64 {
    let rank = q * h.count as f64;
    let mut below = 0.0;
    for &(idx, n) in &h.buckets {
        let n = n as f64;
        if below + n >= rank {
            let (lo, hi) = obs::Histogram::bucket_range(idx as usize);
            let v = lo as f64 + (hi - lo) as f64 * ((rank - below) / n);
            return v.clamp(h.min as f64, h.max as f64);
        }
        below += n;
    }
    h.max as f64
}

/// Median of `xs` (sorts in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_within_the_bucket() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t");
        for v in [100, 110, 120, 130, 900] {
            h.observe(v);
        }
        let snap = reg.snapshot().histograms["t"].clone();
        let p50 = quantile(&snap, 0.5);
        // Four of five values sit in the [64, 127] and [128, 255] buckets;
        // the median lies inside them, not at an edge.
        assert!(p50 > 64.0 && p50 < 255.0, "p50 = {p50}");
        assert!(quantile(&snap, 0.99) <= 900.0);
        assert!(quantile(&snap, 0.2) <= p50);
        assert_eq!(quantile(&obs::HistogramSnapshot::default(), 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
