//! The campaign engine: seed-deterministic sharded execution with a
//! CI-targeted stop rule and checkpoint/resume.
//!
//! # Determinism contract
//!
//! A campaign partitions its trial indices `0..ceiling` into shards of
//! [`Budget::shard_size`] trials. Shard `s` owns trials
//! `s*size .. min((s+1)*size, ceiling)` and a private ChaCha12 stream
//! seeded by `splitmix64(base ^ s*GOLDEN_GAMMA)` where
//! `base = budget.seed ^ fnv1a(target name)`. Because no RNG state crosses
//! a shard boundary, the outcome of every trial is a pure function of
//! `(budget.seed, shard_size, target, device, kind)` — running with 1
//! worker, N workers, or resuming from any checkpoint produces
//! bit-identical tallies.
//!
//! # Stop rule
//!
//! Shards are *executed* in waves of up to `workers` at a time but
//! *folded* strictly in shard order. After each fold (and before starting
//! any new wave) the engine evaluates the budget: past the floor, if the
//! Wilson 95% CI half-widths of both the SDC and DUE fractions are at or
//! below [`Budget::ci_half_width`], it stops with
//! [`StopReason::CiTarget`]; at the ceiling it stops with
//! [`StopReason::Ceiling`]. Shards speculatively executed past a stop
//! boundary are discarded, which keeps the decision independent of the
//! worker count.

use crate::budget::Budget;
use crate::checkpoint::{CampaignKey, Checkpoint};
use crate::golden;
use crate::store::CheckpointStore;
use crate::supervise::{panic_message, DeadlineMonitor, QuarantineRecord};
use gpu_arch::DeviceModel;
use gpu_sim::{
    nearest_snapshot, DueKind, EngineSnapshot, ExecStatus, Executed, FaultPlan, RunOptions, Target,
};
use obs::span::SpanBus;
use obs::{CampaignObserver, MetricsRegistry};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use stats::{wilson_half_width, Outcome, OutcomeCounts};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Direct-tally label for trials that panicked twice and were
/// quarantined. They count as DUEs: like the paper's beam-room crashes,
/// the experiment detected its own failure and produced no output.
pub const QUARANTINE_LABEL: &str = "engine.quarantined";

/// What a sampler decided to do with one trial.
pub enum TrialPlan {
    /// Execute the target with this fault injected and classify the run.
    Fault(FaultPlan),
    /// Resolve the trial without executing (e.g. a beam run with no
    /// strike, or a fault whose site population is empty). The outcome is
    /// tallied under `direct.{label}` instead of a fault-site label.
    Direct {
        /// The predetermined outcome.
        outcome: Outcome,
        /// DUE kind when `outcome == Due` (for `due.*` metrics).
        due: Option<DueKind>,
        /// Stable tally label, e.g. `"beam.unstruck"`.
        label: &'static str,
    },
}

/// Draws one trial's plan. Shared across worker threads, so it must be
/// `Sync`; all per-trial randomness comes from the shard RNG passed in.
pub trait Sampler: Sync {
    /// Plan trial number `trial` (global index, for mode-cycling
    /// samplers); `rng` is the owning shard's private stream.
    fn sample(&self, trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan;

    /// Optional static-verdict stratum for `plan` — a small stable label
    /// (e.g. `"masked"`, `"store"`, `"addr_ctl"`, `"unknown"`). Purely
    /// telemetry: direct trials accumulate under `campaign.pruned.{s}`
    /// and executed trials under `campaign.verdict.{s}.*`, and both maps
    /// surface on [`CampaignRun`]. Must be a pure function of
    /// `(trial, plan)` so retries and worker counts cannot skew the
    /// strata. The default sampler has no strata.
    fn stratum(&self, _trial: u64, _plan: &TrialPlan) -> Option<&'static str> {
        None
    }
}

/// A campaign flavor: how to set up a sampler from the golden run and how
/// to turn the accumulated tallies into a domain result (an AVF estimate,
/// a FIT rate, ...). Implemented by `injector` and `beam`; anything that
/// implements [`Kind`] runs on the same engine and inherits sharding,
/// early stopping, caching and checkpointing.
pub trait Kind<T: Target + Sync + ?Sized> {
    /// Per-campaign sampler state (modes, strike channels, ...).
    type Sampler: Sampler;
    /// Domain result produced by [`Kind::finish`].
    type Output;

    /// Short kind tag used in the campaign label, e.g. `"avf/sassifi"`.
    fn label(&self) -> String;

    /// ECC state for the golden run and every trial.
    fn ecc(&self) -> bool;

    /// Whether the golden run must carry a site-provenance record
    /// ([`gpu_sim::SitesRecord`]). Kinds that statically prune masked
    /// sites need it; everything else leaves the default `false` and
    /// shares the cheaper plain golden.
    fn record_sites(&self) -> bool {
        false
    }

    /// Build the sampler from the golden run.
    fn prepare(&self, target: &T, device: &DeviceModel, golden: &Arc<Executed>) -> Self::Sampler;

    /// Convert the finished run into the domain result.
    fn finish(&self, target: &T, sampler: &Self::Sampler, run: &CampaignRun) -> Self::Output;

    /// Optional kind-specific metrics (compat counters etc.).
    fn export_metrics(&self, _sampler: &Self::Sampler, _run: &CampaignRun, _m: &MetricsRegistry) {}
}

/// Why a campaign stopped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopReason {
    /// Ran out of budget: `trials == ceiling`.
    Ceiling,
    /// The CI target was met at a shard boundary past the floor.
    CiTarget {
        /// The worst (largest) tracked half-width at the stop boundary.
        half_width: f64,
        /// Trials spent when the rule fired.
        trials: u64,
    },
}

impl StopReason {
    /// True when the stop rule fired before the ceiling.
    pub fn stopped_early(&self) -> bool {
        matches!(self, StopReason::CiTarget { .. })
    }
}

/// Campaign failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// The golden (fault-free) run did not complete.
    GoldenFailed(String),
    /// A resume checkpoint does not match this campaign's identity or
    /// shard partition.
    CheckpointMismatch(String),
    /// The attached [`CheckpointStore`] failed (lock held, I/O error
    /// after retries).
    Store(String),
    /// A shard worker died outside the supervised per-trial scope (a
    /// bug in the engine itself, not in a trial).
    ShardPanicked(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::GoldenFailed(why) => write!(f, "golden run failed: {why}"),
            CampaignError::CheckpointMismatch(why) => write!(f, "checkpoint mismatch: {why}"),
            CampaignError::Store(why) => write!(f, "checkpoint store: {why}"),
            CampaignError::ShardPanicked(why) => write!(f, "shard worker panicked: {why}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The engine-level result of a campaign: tallies, stop decision, golden
/// run, and the terminal checkpoint. Kinds wrap this into domain results;
/// callers that want both use [`Campaign::run_full`].
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Campaign identity: `kind/device/target`.
    pub label: String,
    /// Outcome tallies over every trial (executed and direct).
    pub counts: OutcomeCounts,
    /// Outcome tallies over executed (fault-injected) trials only.
    pub executed: OutcomeCounts,
    /// Tallies of trials resolved without execution, by direct label.
    pub direct: BTreeMap<String, OutcomeCounts>,
    /// Direct (pruned) trials by sampler-reported verdict stratum.
    /// Covers only trials run in this process, not resumed ones.
    pub strata_pruned: BTreeMap<String, OutcomeCounts>,
    /// Executed trials by sampler-reported verdict stratum (same
    /// coverage caveat). A nonzero `sdc` under a stratum whose verdict
    /// forbids SDCs is a soundness bug in the sampler's static oracle.
    pub strata_sim: BTreeMap<String, OutcomeCounts>,
    /// Total trials spent (including any resumed from a checkpoint).
    pub trials: u64,
    /// Shards folded in (including resumed ones).
    pub shards: u32,
    /// Trials that were replayed from the resume checkpoint, not run here.
    pub resumed_trials: u64,
    /// Why the campaign stopped.
    pub stop: StopReason,
    /// The shared golden run.
    pub golden: Arc<Executed>,
    /// Terminal checkpoint (resuming from it is a no-op).
    pub checkpoint: Checkpoint,
    /// Trials that panicked once and succeeded on replay.
    pub retries: u64,
    /// Trials that panicked twice and were quarantined (also tallied as
    /// DUEs under `direct.engine.quarantined`).
    pub quarantine: Vec<QuarantineRecord>,
}

impl CampaignRun {
    /// Worst (largest) tracked Wilson 95% half-width at the end.
    pub fn ci_half_width(&self) -> f64 {
        max_half_width(&self.counts, self.trials)
    }
}

/// A borrowed callback invoked with each emitted [`Checkpoint`].
type CheckpointSink<'a> = Box<dyn FnMut(&Checkpoint) + 'a>;

/// A configured campaign, ready to run. Build with [`Campaign::new`],
/// chain the builder methods, then call [`Campaign::run`] (domain result)
/// or [`Campaign::run_full`] (domain result plus [`CampaignRun`]).
pub struct Campaign<'a, T: Target + Sync + ?Sized, K: Kind<T>> {
    kind: K,
    target: &'a T,
    device: &'a DeviceModel,
    budget: Budget,
    observer: CampaignObserver<'a>,
    workers: usize,
    checkpoint_every: u32,
    sink: Option<CheckpointSink<'a>>,
    resume: Option<Checkpoint>,
    store: Option<&'a mut CheckpointStore>,
}

impl<'a, T: Target + Sync + ?Sized, K: Kind<T>> Campaign<'a, T, K> {
    /// A campaign of `kind` over `target` on `device` with the default
    /// budget ([`Budget::quick`]), one worker, and no observer.
    pub fn new(kind: K, target: &'a T, device: &'a DeviceModel) -> Self {
        Campaign {
            kind,
            target,
            device,
            budget: Budget::default(),
            observer: CampaignObserver::none(),
            workers: 1,
            checkpoint_every: 1,
            sink: None,
            resume: None,
            store: None,
        }
    }

    /// Replace the budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attach metrics/progress observability.
    pub fn observer(mut self, observer: CampaignObserver<'a>) -> Self {
        self.observer = observer;
        self
    }

    /// Worker threads per wave. `0` means one per available CPU. Any
    /// value yields bit-identical results; this only affects wall-clock.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Emit a checkpoint to the sink every `shards` folded shards
    /// (default 1; the terminal checkpoint is always emitted).
    pub fn checkpoint_every(mut self, shards: u32) -> Self {
        self.checkpoint_every = shards.max(1);
        self
    }

    /// Receive checkpoints as they are emitted (write them to a JSONL
    /// stream with [`Checkpoint::to_json_line`]).
    pub fn on_checkpoint(mut self, sink: impl FnMut(&Checkpoint) + 'a) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Attach a durable [`CheckpointStore`]: checkpoints are saved to it
    /// at the [`Campaign::checkpoint_every`] cadence, quarantined trials
    /// are appended to its quarantine journal, and — unless
    /// [`Campaign::resume_from`] was given explicitly — the campaign
    /// automatically resumes from the store's last checkpoint for this
    /// campaign's [`CampaignKey`] (label, target digest and budget).
    pub fn store(mut self, store: &'a mut CheckpointStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Resume from a previously emitted checkpoint instead of starting at
    /// shard 0. The checkpoint's [`CampaignKey`] must equal this
    /// campaign's (label, target digest and every tally-affecting budget
    /// field), else the run fails with
    /// [`CampaignError::CheckpointMismatch`]; the completed run is
    /// bit-identical to an uninterrupted one.
    pub fn resume_from(mut self, checkpoint: Checkpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Run the campaign and return the kind's domain result.
    pub fn run(self) -> Result<K::Output, CampaignError> {
        self.run_full().map(|(output, _)| output)
    }

    /// Run the campaign and return the domain result together with the
    /// engine-level [`CampaignRun`] (trials spent, stop reason, golden).
    pub fn run_full(mut self) -> Result<(K::Output, CampaignRun), CampaignError> {
        let ecc = self.kind.ecc();
        let store_damage0 = self.store.as_deref().map_or(0, |s| s.damage_events());
        let golden_timer = obs::Timer::start();
        let stride = self.budget.snapshots.stride();
        let req = golden::GoldenRequest::new(ecc)
            .record_sites(self.kind.record_sites())
            .snapshots(stride);
        let (golden, cache_hit) =
            golden::fetch(self.target, self.device, req).map_err(CampaignError::GoldenFailed)?;
        // Fast-forward is gated by *this* budget's policy, not by whatever
        // a cached golden happens to carry: with the policy off, trials
        // replay from instruction zero even when snapshots are available.
        let ff: Option<&[Arc<EngineSnapshot>]> =
            (stride > 0 && !golden.snapshots.is_empty()).then(|| golden.snapshots.as_slice());
        if let Some(m) = self.observer.metrics {
            m.counter(if cache_hit { "campaign.golden.hit" } else { "campaign.golden.miss" }).inc();
            golden_timer.observe(&m.histogram("campaign.golden.fetch_micros"));
            m.gauge("campaign.snapshot.cached").set(golden.snapshots.len() as f64);
            m.gauge("campaign.snapshot.bytes")
                .set(golden.snapshots.iter().map(|s| s.approx_bytes()).sum::<u64>() as f64);
        }
        let sampler = self.kind.prepare(self.target, self.device, &golden);
        let label = format!("{}/{}/{}", self.kind.label(), self.device.name, self.target.name());
        let key = CampaignKey::new(label.clone(), golden::target_digest(self.target), &self.budget);
        let shard_size = self.budget.shard_size.max(1) as u64;
        let ceiling = self.budget.effective_ceiling() as u64;
        let floor = self.budget.effective_floor() as u64;
        let ci = self.budget.ci_half_width;
        let total_shards = ceiling.div_ceil(shard_size) as u32;
        let watchdog = self.budget.watchdog.dyn_limit(golden.counts.total);
        let base_seed = self.budget.seed ^ fnv1a(self.target.name());
        // Trial span IDs are keyed off the campaign label + trial index,
        // so a trial's span ID is stable across runs and worker counts
        // (the same function of the FaultPlan draw).
        let key_base = fnv1a(&label);
        let campaign_span = self.observer.spans.map(|bus| {
            let mut span = bus.begin(label.clone(), "campaign", obs::ROOT_SPAN, 0);
            span.arg("ceiling", ceiling.to_string());
            span.arg("shard_size", shard_size.to_string());
            span
        });
        let campaign_span_id = campaign_span.as_ref().map_or(obs::ROOT_SPAN, |s| s.id());
        if let Some(m) = self.observer.metrics {
            m.gauge("campaign.trial_ceiling").set(ceiling as f64);
            m.gauge("campaign.shards_total").set(total_shards as f64);
            if let Some(target) = ci {
                m.gauge("campaign.ci_target").set(target);
            }
        }

        if self.resume.is_none() {
            if let Some(store) = self.store.as_mut() {
                self.resume = store.load(&key).map_err(|e| CampaignError::Store(e.to_string()))?;
            }
        }

        let mut counts = OutcomeCounts::default();
        let mut executed = OutcomeCounts::default();
        let mut direct: BTreeMap<String, OutcomeCounts> = BTreeMap::new();
        let mut strata_pruned: BTreeMap<String, OutcomeCounts> = BTreeMap::new();
        let mut strata_sim: BTreeMap<String, OutcomeCounts> = BTreeMap::new();
        let mut trials = 0u64;
        let mut next_shard = 0u32;
        let mut resumed_trials = 0u64;
        if let Some(cp) = self.resume.take() {
            if cp.key != key {
                return Err(CampaignError::CheckpointMismatch(format!(
                    "checkpoint is for {}, campaign is {}",
                    cp.key.canonical(),
                    key.canonical()
                )));
            }
            // A checkpoint is only resumable mid-campaign when it sits at
            // a full shard boundary of *this* budget's partition (the
            // final shard of a smaller ceiling may have been partial).
            if cp.shards_done < total_shards && cp.trials != cp.shards_done as u64 * shard_size {
                return Err(CampaignError::CheckpointMismatch(format!(
                    "checkpoint trials {} is not a boundary of {}-trial shards",
                    cp.trials, shard_size
                )));
            }
            counts = cp.counts;
            executed =
                subtract(cp.counts, cp.direct.values().fold(OutcomeCounts::new(), |a, &b| a + b));
            direct = cp.direct;
            trials = cp.trials;
            resumed_trials = cp.trials;
            next_shard = cp.shards_done.min(total_shards);
        }

        let workers = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        };
        let monitor =
            self.budget.watchdog.wall_budget.map(|wall| DeadlineMonitor::new(wall, workers));
        let mut retries = 0u64;
        let mut quarantine: Vec<QuarantineRecord> = Vec::new();

        let mut stop = eval_stop(&counts, trials, floor, ceiling, ci);
        let mut since_checkpoint = 0u32;
        'campaign: while stop.is_none() && next_shard < total_shards {
            let wave_start = next_shard;
            let wave_end = (wave_start + workers as u32).min(total_shards);
            let outs = run_wave(
                self.target,
                self.device,
                &golden,
                &sampler,
                ecc,
                watchdog,
                ff,
                wave_start..wave_end,
                base_seed,
                shard_size,
                ceiling,
                self.observer,
                campaign_span_id,
                key_base,
                monitor.as_ref(),
            )?;
            for mut out in outs {
                counts += out.counts;
                executed += out.executed;
                for (dlabel, c) in &out.direct {
                    *direct.entry((*dlabel).to_string()).or_default() += *c;
                }
                for (s, c) in &out.strata_pruned {
                    *strata_pruned.entry((*s).to_string()).or_default() += *c;
                }
                for (s, c) in &out.strata_sim {
                    *strata_sim.entry((*s).to_string()).or_default() += *c;
                }
                trials += out.trials;
                next_shard += 1;
                since_checkpoint += 1;
                retries += out.retries;
                for mut rec in std::mem::take(&mut out.quarantined) {
                    rec.label.clone_from(&label);
                    if let Some(store) = self.store.as_mut() {
                        store.quarantine(&rec).map_err(|e| CampaignError::Store(e.to_string()))?;
                    }
                    quarantine.push(rec);
                }
                if let Some(m) = self.observer.metrics {
                    export_shard_metrics(m, &out);
                }
                stop = eval_stop(&counts, trials, floor, ceiling, ci);
                // Convergence telemetry at every fold: the live console and
                // progress line both show the current Wilson half-width.
                let half_width = max_half_width(&counts, trials);
                if let Some(m) = self.observer.metrics {
                    m.gauge("campaign.shards_done").set(next_shard as f64);
                    m.gauge("campaign.ci_half_width").set(half_width);
                    if let Some(p) = self.observer.progress {
                        m.gauge("trials_per_sec").set(p.rate());
                    }
                }
                if let Some(p) = self.observer.progress {
                    p.note_ci(half_width);
                }
                if let Some(bus) = self.observer.spans {
                    bus.instant(
                        "ci-update",
                        campaign_span_id,
                        0,
                        vec![
                            ("trials", trials.to_string()),
                            ("half_width", format!("{half_width:.6}")),
                        ],
                    );
                }
                let boundary = stop.is_some() || next_shard == total_shards;
                if (boundary || since_checkpoint >= self.checkpoint_every)
                    && (self.sink.is_some() || self.store.is_some())
                {
                    let cp = snapshot(&key, next_shard, trials, counts, &direct);
                    if let Some(sink) = self.sink.as_mut() {
                        sink(&cp);
                    }
                    if let Some(store) = self.store.as_mut() {
                        let save_timer = obs::Timer::start();
                        store.save(&cp).map_err(|e| CampaignError::Store(e.to_string()))?;
                        if let Some(m) = self.observer.metrics {
                            save_timer.observe(&m.histogram("campaign.store.save_micros"));
                        }
                    }
                    since_checkpoint = 0;
                }
                if stop.is_some() {
                    // Discard any shards speculatively run past the stop
                    // boundary: the decision must not depend on `workers`.
                    break 'campaign;
                }
            }
        }
        let stop = stop.unwrap_or(StopReason::Ceiling);

        let run = CampaignRun {
            checkpoint: snapshot(&key, next_shard, trials, counts, &direct),
            label,
            counts,
            executed,
            direct,
            strata_pruned,
            strata_sim,
            trials,
            shards: next_shard,
            resumed_trials,
            stop,
            golden,
            retries,
            quarantine,
        };
        if let Some(mut span) = campaign_span {
            span.arg("trials", run.trials.to_string());
            span.arg(
                "stop",
                match run.stop {
                    StopReason::Ceiling => "ceiling",
                    StopReason::CiTarget { .. } => "ci-target",
                },
            );
            span.end();
        }
        if let Some(m) = self.observer.metrics {
            match run.stop {
                StopReason::CiTarget { .. } => m.counter("campaign.stop.ci_target").inc(),
                StopReason::Ceiling => m.counter("campaign.stop.ceiling").inc(),
            }
            m.gauge("campaign.ci_half_width").set(run.ci_half_width());
            if let Some(p) = self.observer.progress {
                m.gauge("trials_per_sec").set(p.rate());
            }
            if let Some(store) = self.store.as_deref() {
                // Durable-store health: damage seen by this campaign's
                // loads/saves plus stale locks broken when the store was
                // opened.
                let damage = store.damage_events() - store_damage0;
                if damage > 0 {
                    m.counter("campaign.store.damage").add(damage);
                }
                if store.lock_breaks() > 0 {
                    m.counter("campaign.store.lock_broken").add(store.lock_breaks());
                }
            }
            self.kind.export_metrics(&sampler, &run, m);
        }
        let output = self.kind.finish(self.target, &sampler, &run);
        Ok((output, run))
    }
}

/// Per-shard tallies produced by a worker, folded in shard order.
#[derive(Default)]
struct ShardOut {
    trials: u64,
    counts: OutcomeCounts,
    executed: OutcomeCounts,
    direct: BTreeMap<&'static str, OutcomeCounts>,
    sites: BTreeMap<&'static str, OutcomeCounts>,
    strata_pruned: BTreeMap<&'static str, OutcomeCounts>,
    strata_sim: BTreeMap<&'static str, OutcomeCounts>,
    dues: BTreeMap<&'static str, u64>,
    micros: u64,
    retries: u64,
    quarantined: Vec<QuarantineRecord>,
}

#[allow(clippy::too_many_arguments)]
fn run_wave<T: Target + Sync + ?Sized, S: Sampler>(
    target: &T,
    device: &DeviceModel,
    golden: &Executed,
    sampler: &S,
    ecc: bool,
    watchdog: u64,
    ff: Option<&[Arc<EngineSnapshot>]>,
    shards: std::ops::Range<u32>,
    base_seed: u64,
    shard_size: u64,
    ceiling: u64,
    observer: CampaignObserver<'_>,
    campaign_span: u64,
    key_base: u64,
    monitor: Option<&DeadlineMonitor>,
) -> Result<Vec<ShardOut>, CampaignError> {
    let wave_start = shards.start;
    let run_one = |s: u32| {
        let start = s as u64 * shard_size;
        let end = ((s as u64 + 1) * shard_size).min(ceiling);
        let slot = (s - wave_start) as usize;
        run_shard(
            target,
            device,
            golden,
            sampler,
            ecc,
            watchdog,
            ff,
            s,
            start..end,
            shard_seed(base_seed, s),
            observer,
            campaign_span,
            key_base,
            monitor.map(|m| (m, slot)),
        )
    };
    if shards.len() == 1 {
        return Ok(vec![run_one(shards.start)]);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards.map(|s| scope.spawn(move || run_one(s))).collect();
        handles
            .into_iter()
            .map(|h| {
                // Per-trial panics are caught inside `run_shard`; a panic
                // that reaches the join is an engine bug, reported as a
                // typed error instead of poisoning the caller.
                h.join().map_err(|payload| {
                    CampaignError::ShardPanicked(panic_message(payload.as_ref()))
                })
            })
            .collect()
    })
}

/// What one trial resolved to, produced by [`run_trial`] so the
/// supervision wrapper can apply it (or discard it on a retry) as a
/// unit.
enum TrialTally {
    Direct {
        outcome: Outcome,
        due: Option<DueKind>,
        label: &'static str,
        stratum: Option<&'static str>,
    },
    Fault {
        plan: FaultPlan,
        outcome: Outcome,
        due: Option<DueKind>,
        stratum: Option<&'static str>,
        dyn_instrs: u64,
        /// Dynamic instructions skipped by resuming from a golden
        /// snapshot; `None` when the trial replayed from zero.
        fast_forwarded: Option<u64>,
    },
}

impl TrialTally {
    /// `(outcome, due kind, tally label)` for span args.
    fn meta(&self) -> (Outcome, Option<DueKind>, &'static str) {
        match self {
            TrialTally::Direct { outcome, due, label, .. } => (*outcome, *due, label),
            TrialTally::Fault { plan, outcome, due, .. } => (*outcome, *due, plan.site_label()),
        }
    }
}

/// Sample and (when planned) execute one trial. Pure with respect to the
/// shard state: everything it decides comes back in the [`TrialTally`],
/// so a panic anywhere inside leaves `out` untouched and the supervision
/// wrapper can replay from an RNG snapshot.
#[allow(clippy::too_many_arguments)]
fn run_trial<T: Target + Sync + ?Sized, S: Sampler>(
    target: &T,
    device: &DeviceModel,
    golden: &Executed,
    sampler: &S,
    ecc: bool,
    watchdog: u64,
    trial: u64,
    rng: &mut ChaCha12Rng,
    monitor: Option<(&DeadlineMonitor, usize)>,
    phase_trace: Option<(&SpanBus, u64, u64)>,
    ff: Option<&[Arc<EngineSnapshot>]>,
) -> TrialTally {
    let planned = sampler.sample(trial, rng);
    let stratum = sampler.stratum(trial, &planned);
    match planned {
        TrialPlan::Direct { outcome, due, label } => {
            TrialTally::Direct { outcome, due, label, stratum }
        }
        TrialPlan::Fault(plan) => {
            let cancel = monitor.map(|(m, slot)| m.arm(slot));
            // Fast-forward: resume from the latest golden snapshot at or
            // before the fault site. The skipped prefix is fault-free and
            // bit-identical to the golden run, so the tally is the same
            // either way — only the wall clock changes.
            let resume = ff.and_then(|snaps| nearest_snapshot(snaps, &plan)).cloned();
            let fast_forwarded = resume.as_ref().map(|s| s.dyn_count());
            let opts = RunOptions::trial(plan)
                .ecc(ecc)
                .watchdog(watchdog)
                .cancel_flag(cancel)
                .resume(resume);
            // Sampled trials run with the engine-phase sink attached; the
            // sink only timestamps phase events, so architectural results
            // (and therefore tallies) are identical either way.
            let faulty = match phase_trace {
                Some((bus, span, tid)) => {
                    let mut sink = obs::SpanSink::new(bus, span, tid);
                    target.execute_traced(device, &opts, &mut sink)
                }
                None => target.execute(device, &opts),
            };
            if let Some((m, slot)) = monitor {
                m.disarm(slot);
            }
            let (outcome, due) = match faulty.status {
                ExecStatus::Due(kind) => (Outcome::Due, Some(kind)),
                ExecStatus::Completed => {
                    if target.output_matches(golden, &faulty) {
                        (Outcome::Masked, None)
                    } else {
                        (Outcome::Sdc, None)
                    }
                }
            };
            TrialTally::Fault {
                plan,
                outcome,
                due,
                stratum,
                dyn_instrs: faulty.counts.total,
                fast_forwarded,
            }
        }
    }
}

fn apply_tally(out: &mut ShardOut, tally: TrialTally) {
    match tally {
        TrialTally::Direct { outcome, due, label, stratum } => {
            out.counts.record(outcome);
            out.direct.entry(label).or_default().record(outcome);
            if let Some(s) = stratum {
                out.strata_pruned.entry(s).or_default().record(outcome);
            }
            if let Some(kind) = due {
                *out.dues.entry(kind.name()).or_default() += 1;
            }
        }
        TrialTally::Fault { plan, outcome, due, stratum, .. } => {
            out.counts.record(outcome);
            out.executed.record(outcome);
            out.sites.entry(plan.site_label()).or_default().record(outcome);
            if let Some(s) = stratum {
                out.strata_sim.entry(s).or_default().record(outcome);
            }
            if let Some(kind) = due {
                *out.dues.entry(kind.name()).or_default() += 1;
            }
        }
    }
}

/// Run one shard under supervision: every trial executes inside
/// `catch_unwind` on a clone of the shard RNG, so a panicking trial can
/// be retried once from an identical stream and, on a second panic,
/// quarantined — tallied as a DUE under [`QUARANTINE_LABEL`] with its
/// fault plan recovered for the quarantine journal. The shard's RNG
/// state after any trial is the state after its sampler draws, whether
/// the trial completed, retried, or was quarantined — which is what
/// keeps tallies bit-identical at any worker count.
#[allow(clippy::too_many_arguments)]
fn run_shard<T: Target + Sync + ?Sized, S: Sampler>(
    target: &T,
    device: &DeviceModel,
    golden: &Executed,
    sampler: &S,
    ecc: bool,
    watchdog: u64,
    ff: Option<&[Arc<EngineSnapshot>]>,
    shard: u32,
    range: std::ops::Range<u64>,
    seed: u64,
    observer: CampaignObserver<'_>,
    campaign_span: u64,
    key_base: u64,
    monitor: Option<(&DeadlineMonitor, usize)>,
) -> ShardOut {
    let started = Instant::now();
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut out = ShardOut::default();
    let progress = observer.progress;
    // Resolve hot-loop instruments once per shard, outside the trial loop.
    let trial_hists = observer
        .metrics
        .map(|m| (m.histogram("campaign.trial_micros"), m.histogram("campaign.trial_dyn_instrs")));
    // Snapshot fast-forward instruments, resolved once per shard and only
    // when the policy armed fast-forward for this campaign.
    let snap_instr = ff.and(observer.metrics).map(|m| {
        (
            m.counter("campaign.snapshot.hit"),
            m.counter("campaign.snapshot.miss"),
            m.histogram("campaign.snapshot.fastforward_instrs"),
        )
    });
    let span_tid = shard as u64 + 1;
    let mut shard_span = observer.spans.map(|bus| {
        let mut span = bus.begin(format!("shard-{shard}"), "shard", campaign_span, span_tid);
        span.arg("range", format!("{}..{}", range.start, range.end));
        span
    });
    let shard_span_id = shard_span.as_ref().map_or(obs::ROOT_SPAN, |s| s.id());
    for trial in range {
        let snap = rng.clone();
        let trial_t0 = observer.spans.map(|bus| bus.now_us());
        let timer = trial_hists.is_some().then(obs::Timer::start);
        // Engine-phase tracing is sampled: one trial in `phase_every`
        // executes through the traced path, parented under its trial span.
        let phase_trace = observer.spans.and_then(|bus| {
            bus.sample_phases(trial).then(|| (bus, obs::keyed_id(key_base, trial), span_tid))
        });
        let attempt = || {
            let mut r = snap.clone();
            let tally = run_trial(
                target,
                device,
                golden,
                sampler,
                ecc,
                watchdog,
                trial,
                &mut r,
                monitor,
                phase_trace,
                ff,
            );
            (tally, r)
        };
        let result = match catch_unwind(AssertUnwindSafe(&attempt)) {
            Ok(ok) => Ok(ok),
            Err(_first) => {
                // First panic: deterministic retry on a fresh replay of
                // the same stream (the clone in `attempt`).
                out.retries += 1;
                if let Some((m, slot)) = monitor {
                    m.disarm(slot);
                }
                if let Some(bus) = observer.spans {
                    bus.instant(
                        "retry",
                        shard_span_id,
                        span_tid,
                        vec![("trial", trial.to_string())],
                    );
                }
                catch_unwind(AssertUnwindSafe(&attempt))
            }
        };
        let trial_micros = timer.as_ref().map(|t| t.elapsed_micros());
        match result {
            Ok((tally, r)) => {
                rng = r;
                if let Some((hist_us, hist_dyn)) = &trial_hists {
                    if let Some(us) = trial_micros {
                        hist_us.observe(us);
                    }
                    if let TrialTally::Fault { dyn_instrs, .. } = tally {
                        hist_dyn.observe(dyn_instrs);
                    }
                }
                if let TrialTally::Fault { fast_forwarded, .. } = tally {
                    if let Some((hit, miss, hist)) = &snap_instr {
                        match fast_forwarded {
                            Some(skipped) => {
                                hit.inc();
                                hist.observe(skipped);
                            }
                            None => miss.inc(),
                        }
                    }
                }
                if let Some(bus) = observer.spans {
                    let (outcome, due, site) = tally.meta();
                    let mut args = vec![
                        ("trial", trial.to_string()),
                        ("outcome", outcome.to_string()),
                        ("site", site.to_string()),
                    ];
                    if let Some(kind) = due {
                        args.push(("due", kind.name().to_string()));
                        if matches!(kind, DueKind::Watchdog | DueKind::HostWatchdog) {
                            bus.instant(
                                "watchdog",
                                shard_span_id,
                                span_tid,
                                vec![
                                    ("trial", trial.to_string()),
                                    ("kind", kind.name().to_string()),
                                ],
                            );
                        }
                    }
                    push_trial_span(bus, key_base, trial, shard_span_id, span_tid, trial_t0, args);
                }
                apply_tally(&mut out, tally);
            }
            Err(payload) => {
                // Second panic: quarantine. Recover the fault plan by
                // replaying the sampler alone on another snapshot clone
                // (execution never consumes RNG, so this also yields the
                // canonical post-trial stream state).
                if let Some((m, slot)) = monitor {
                    m.disarm(slot);
                }
                let replay = catch_unwind(AssertUnwindSafe(|| {
                    let mut r = snap.clone();
                    let plan = match sampler.sample(trial, &mut r) {
                        TrialPlan::Fault(plan) => Some(plan),
                        TrialPlan::Direct { .. } => None,
                    };
                    (plan, r)
                }));
                let (plan, after) = match replay {
                    Ok((plan, r)) => (plan, r),
                    // The sampler itself panics: the stream state after
                    // its draws is unknowable, but it is unknowable the
                    // same way in every configuration — fall back to the
                    // pre-trial snapshot.
                    Err(_) => (None, snap),
                };
                rng = after;
                out.counts.record(Outcome::Due);
                out.direct.entry(QUARANTINE_LABEL).or_default().record(Outcome::Due);
                if let Some((hist_us, _)) = &trial_hists {
                    if let Some(us) = trial_micros {
                        hist_us.observe(us);
                    }
                }
                if let Some(bus) = observer.spans {
                    bus.instant(
                        "quarantine",
                        shard_span_id,
                        span_tid,
                        vec![("trial", trial.to_string())],
                    );
                    let args = vec![
                        ("trial", trial.to_string()),
                        ("outcome", Outcome::Due.to_string()),
                        ("site", QUARANTINE_LABEL.to_string()),
                    ];
                    push_trial_span(bus, key_base, trial, shard_span_id, span_tid, trial_t0, args);
                }
                out.quarantined.push(QuarantineRecord {
                    label: String::new(), // filled at fold time
                    trial,
                    shard,
                    plan,
                    panic: panic_message(payload.as_ref()),
                });
            }
        }
        out.trials += 1;
        if let Some(p) = progress {
            p.inc();
        }
    }
    if let Some(span) = shard_span.as_mut() {
        span.arg("trials", out.trials.to_string());
    }
    drop(shard_span);
    out.micros = started.elapsed().as_micros() as u64;
    out
}

/// Record a completed trial as a span with its FaultPlan-keyed ID. Spans
/// are recorded post-hoc (begin time captured before the run), so a
/// panicking or quarantined trial still produces a closed span.
fn push_trial_span(
    bus: &SpanBus,
    key_base: u64,
    trial: u64,
    parent: u64,
    tid: u64,
    t0_us: Option<u64>,
    args: Vec<(&'static str, String)>,
) {
    let t0 = t0_us.unwrap_or(0);
    bus.push(obs::SpanRecord {
        id: obs::keyed_id(key_base, trial),
        parent,
        name: "trial".to_string(),
        cat: "trial",
        tid,
        ts_us: t0,
        dur_us: Some(bus.now_us().saturating_sub(t0)),
        args,
    });
}

fn export_shard_metrics(m: &MetricsRegistry, out: &ShardOut) {
    m.counter("trials").add(out.trials);
    for (name, n) in [
        ("outcome.sdc", out.counts.sdc),
        ("outcome.due", out.counts.due),
        ("outcome.masked", out.counts.masked),
    ] {
        if n > 0 {
            m.counter(name).add(n);
        }
    }
    for (site, c) in &out.sites {
        for (suffix, n) in [("sdc", c.sdc), ("due", c.due), ("masked", c.masked)] {
            if n > 0 {
                m.counter(&format!("site.{site}.{suffix}")).add(n);
            }
        }
        // Hidden-resource sites additionally roll up under the
        // `campaign.hidden.*` namespace the coverage dashboards read
        // (`campaign.hidden.scheduler.due`, `campaign.hidden.memq.sdc`,
        // ...), so hidden-site campaigns are distinguishable from
        // architectural ones at a glance.
        if let Some(class) = site.strip_prefix("hidden-") {
            for (suffix, n) in [("sdc", c.sdc), ("due", c.due), ("masked", c.masked)] {
                if n > 0 {
                    m.counter(&format!("campaign.hidden.{class}.{suffix}")).add(n);
                }
            }
        }
    }
    for (kind, n) in &out.dues {
        m.counter(&format!("due.{kind}")).add(*n);
    }
    if let Some(n) = out.dues.get(DueKind::Watchdog.name()) {
        m.counter("campaign.watchdog.dyn_trips").add(*n);
    }
    if let Some(n) = out.dues.get(DueKind::HostWatchdog.name()) {
        m.counter("campaign.watchdog.wall_trips").add(*n);
    }
    if out.retries > 0 {
        m.counter("campaign.trial_retries").add(out.retries);
    }
    if !out.quarantined.is_empty() {
        m.counter("campaign.quarantined").add(out.quarantined.len() as u64);
    }
    for (dlabel, c) in &out.direct {
        for (suffix, n) in [("sdc", c.sdc), ("due", c.due), ("masked", c.masked)] {
            if n > 0 {
                m.counter(&format!("direct.{dlabel}.{suffix}")).add(n);
            }
        }
    }
    // Verdict strata: pruned totals per stratum, and simulated trials per
    // stratum broken down by outcome (a soundness dashboard — e.g. a
    // nonzero `campaign.verdict.store.due` would falsify the lattice).
    for (s, c) in &out.strata_pruned {
        m.counter(&format!("campaign.pruned.{s}")).add(c.total());
    }
    for (s, c) in &out.strata_sim {
        for (suffix, n) in [("sdc", c.sdc), ("due", c.due), ("masked", c.masked)] {
            if n > 0 {
                m.counter(&format!("campaign.verdict.{s}.{suffix}")).add(n);
            }
        }
    }
    m.counter("campaign.shards").inc();
    m.histogram("campaign.shard_micros").observe(out.micros);
    let per_sec = out.trials.saturating_mul(1_000_000) / out.micros.max(1);
    m.histogram("campaign.shard_trials_per_sec").observe(per_sec);
}

fn snapshot(
    key: &CampaignKey,
    shards_done: u32,
    trials: u64,
    counts: OutcomeCounts,
    direct: &BTreeMap<String, OutcomeCounts>,
) -> Checkpoint {
    Checkpoint { key: key.clone(), shards_done, trials, counts, direct: direct.clone() }
}

fn eval_stop(
    counts: &OutcomeCounts,
    trials: u64,
    floor: u64,
    ceiling: u64,
    ci: Option<f64>,
) -> Option<StopReason> {
    if trials >= ceiling {
        return Some(StopReason::Ceiling);
    }
    let target = ci?;
    if trials < floor {
        return None;
    }
    let half_width = max_half_width(counts, trials);
    (half_width <= target).then_some(StopReason::CiTarget { half_width, trials })
}

/// The stop rule tracks the SDC and DUE proportions (the two quantities
/// every campaign reports); masked is their complement.
fn max_half_width(counts: &OutcomeCounts, trials: u64) -> f64 {
    wilson_half_width(counts.sdc, trials).max(wilson_half_width(counts.due, trials))
}

fn subtract(a: OutcomeCounts, b: OutcomeCounts) -> OutcomeCounts {
    OutcomeCounts {
        sdc: a.sdc.saturating_sub(b.sdc),
        due: a.due.saturating_sub(b.due),
        masked: a.masked.saturating_sub(b.masked),
    }
}

/// FNV-1a over the target name — same mix the legacy entry points used,
/// so different targets at one budget seed get uncorrelated streams.
pub(crate) fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64-derived per-shard seed: adjacent shard indices map to
/// well-separated ChaCha12 key streams.
fn shard_seed(base: u64, shard: u32) -> u64 {
    let mut z = base ^ (shard as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_distinct() {
        let base = 0xDEADBEEF;
        let seeds: Vec<u64> = (0..64).map(|s| shard_seed(base, s)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        // And sensitive to the base seed.
        assert_ne!(shard_seed(base, 0), shard_seed(base + 1, 0));
    }

    #[test]
    fn stop_rule_honors_floor_ceiling_and_target() {
        let skewed = OutcomeCounts { sdc: 2, due: 1, masked: 197 };
        // Below the floor: never stops even if the CI is tight.
        assert_eq!(eval_stop(&skewed, 200, 400, 1000, Some(0.5)), None);
        // Past the floor with a met target: CI stop.
        match eval_stop(&skewed, 200, 100, 1000, Some(0.05)) {
            Some(StopReason::CiTarget { half_width, trials }) => {
                assert!(half_width <= 0.05);
                assert_eq!(trials, 200);
            }
            other => panic!("expected CI stop, got {other:?}"),
        }
        // Unmet target: keep going.
        assert_eq!(eval_stop(&skewed, 200, 100, 1000, Some(0.001)), None);
        // Ceiling always wins.
        assert_eq!(eval_stop(&skewed, 1000, 100, 1000, None), Some(StopReason::Ceiling));
        // Fixed budgets only stop at the ceiling.
        assert_eq!(eval_stop(&skewed, 200, 100, 1000, None), None);
    }
}
