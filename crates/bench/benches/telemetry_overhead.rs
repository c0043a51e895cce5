//! Cost of full campaign telemetry (histograms + spans + progress) at
//! default sampling, against the same campaign running bare.
//!
//! The telemetry pipeline's contract is "watchable for free": histograms
//! are striped atomics, spans record only at shard/trial granularity plus
//! one engine-phase-traced trial in [`obs::span::DEFAULT_PHASE_EVERY`],
//! and the disabled hooks inside the engine are a handful of `Option`
//! checks. This bench holds the pipeline to that contract: end-to-end
//! campaign throughput with telemetry on must stay within a few percent
//! of the bare run. The assertion threshold is 3% on the best-of-samples
//! rate; CI runs the `--smoke` mode on every push.
//!
//! It also reports, without asserting, the cost of the engine's trace
//! hook points on one golden run: `no_sink` (no sink parameter at all),
//! `none_sink` (`run_with_sink(.., None)`, the disabled path: one
//! `Option` check per hook point, which should match `no_sink`) and
//! `counting_sink` (the cheapest enabled sink: the floor cost of
//! constructing and delivering every event).
//!
//! Self-reporting like the other benches: writes
//! `BENCH_telemetry_overhead.json` (override with `BENCH_JSON_PATH`).

use campaign::{Budget, Campaign};
use gpu_arch::{CodeGen, DeviceModel, Precision};
use gpu_sim::{run_with_sink, RunOptions, Target};
use injector::{Avf, Injector};
use obs::{CampaignObserver, CountingSink, MetricsRegistry, SpanBus, TraceSink};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use workloads::{build, Benchmark, Scale, Workload};

const TRIALS: u32 = 200;

/// One campaign run in the given configuration; returns its wall time.
fn run_once(workload: &Workload, device: &DeviceModel, telemetry: bool) -> f64 {
    let metrics = MetricsRegistry::new();
    let spans = SpanBus::new();
    let t = Instant::now();
    let campaign = Campaign::new(Avf::new(Injector::NvBitFi), workload, device)
        .budget(Budget::fixed(TRIALS).seed(2021));
    let campaign = if telemetry {
        campaign.observer(CampaignObserver::with_metrics(&metrics).with_spans(&spans))
    } else {
        campaign
    };
    let result = campaign.run().expect("overhead campaign failed");
    let secs = t.elapsed().as_secs_f64();
    black_box((result, metrics.snapshot().counters.len(), spans.len()));
    secs
}

/// Best-of-`rounds` seconds of one golden run of `workload` per trace-hook
/// configuration, interleaved round by round: `[no_sink, none_sink,
/// counting_sink]`.
fn hook_costs(workload: &Workload, device: &DeviceModel, rounds: usize) -> [f64; 3] {
    let opts = RunOptions::default();
    let mut best = [f64::INFINITY; 3];
    for _ in 0..rounds {
        let t = Instant::now();
        black_box(workload.execute_golden(device));
        best[0] = best[0].min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let memory = workload.fresh_memory();
        black_box(run_with_sink(device, workload.kernel(), workload.launch(), memory, &opts, None));
        best[1] = best[1].min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut sink = CountingSink::default();
        let memory = workload.fresh_memory();
        let sink_ref = Some(&mut sink as &mut dyn TraceSink);
        black_box(run_with_sink(
            device,
            workload.kernel(),
            workload.launch(),
            memory,
            &opts,
            sink_ref,
        ));
        black_box(sink.events);
        best[2] = best[2].min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    // Overhead is a ratio of two noisy minima. The samples are
    // interleaved (bare, telemetry, bare, ...) so clock drift and
    // machine load hit both configurations equally instead of biasing
    // whichever ran second.
    let (budget_secs, min_pairs) = if smoke { (1.5, 6) } else { (8.0, 30) };

    let device = DeviceModel::named("k40c-sim");
    let workload = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);

    // Warm the golden cache through both paths before timing.
    run_once(&workload, &device, false);
    run_once(&workload, &device, true);

    let mut bare = f64::INFINITY;
    let mut telemetry = f64::INFINITY;
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < min_pairs || start.elapsed().as_secs_f64() < budget_secs {
        let b = run_once(&workload, &device, false);
        let t = run_once(&workload, &device, true);
        bare = bare.min(b);
        telemetry = telemetry.min(t);
        ratios.push(t / b);
    }
    // Median of the paired ratios: each pair ran back-to-back, so a load
    // spike inflates both sides of its ratio roughly equally, and the
    // median discards the pairs where it did not.
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let overhead = ratios[ratios.len() / 2] - 1.0;

    println!(
        "telemetry_overhead/bare      {:>8.1} trials/s  (best {:.3} ms)",
        TRIALS as f64 / bare,
        bare * 1e3
    );
    println!(
        "telemetry_overhead/telemetry {:>8.1} trials/s  (best {:.3} ms)",
        TRIALS as f64 / telemetry,
        telemetry * 1e3
    );
    println!(
        "telemetry_overhead/overhead  {:>8.2}%  (median of {} paired ratios)",
        overhead * 100.0,
        ratios.len()
    );

    let hook_workload = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small);
    let hooks = hook_costs(&hook_workload, &device, if smoke { 5 } else { 30 });
    for (name, secs) in ["no_sink", "none_sink", "counting_sink"].iter().zip(hooks) {
        println!("telemetry_overhead/hooks/{name:<13} best {:.3} ms", secs * 1e3);
    }

    let path = std::env::var("BENCH_JSON_PATH")
        .unwrap_or_else(|_| "BENCH_telemetry_overhead.json".to_string());
    let mut json = String::from("{\n  \"bench\": \"telemetry_overhead\",\n");
    let _ = writeln!(json, "  \"trials\": {TRIALS},");
    let _ = writeln!(json, "  \"bare_best_secs\": {bare:.9},");
    let _ = writeln!(json, "  \"telemetry_best_secs\": {telemetry:.9},");
    let _ = writeln!(json, "  \"hook_no_sink_best_secs\": {:.9},", hooks[0]);
    let _ = writeln!(json, "  \"hook_none_sink_best_secs\": {:.9},", hooks[1]);
    let _ = writeln!(json, "  \"hook_counting_sink_best_secs\": {:.9},", hooks[2]);
    let _ = writeln!(json, "  \"overhead\": {overhead:.6}");
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("telemetry_overhead: could not write {path}: {e}");
    } else {
        println!("telemetry_overhead: wrote {path}");
    }

    assert!(
        overhead < 0.03,
        "telemetry overhead {:.2}% exceeds the 3% budget (bare {:.3} ms, telemetry {:.3} ms)",
        overhead * 100.0,
        bare * 1e3,
        telemetry * 1e3
    );
    println!("telemetry_overhead: within the 3% budget");
}
