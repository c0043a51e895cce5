//! Benchmark of the gpu-reliability pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <avf|beam-predict|profile-cnn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run is a closed loop from one client: cold passes of the workload,
//! back to back, while the next one is expected to end within `--seconds`.
//! Each pass is a child process of its own, so each starts with the
//! process-wide golden-run cache and static-verdict memo empty, as a
//! `repro` invocation does. Campaigns run with the engine's default worker
//! count (one thread). The first two passes use `--seed` as the campaign
//! seed and each later one a seed derived from it (see [`pass_seed`]).
//!
//! Every time the benchmark reports is scaled to a reference host speed,
//! read with a fixed probe loop before each timed step (see
//! `workload::host_slowdown`): on a shared host the program's own speed
//! varies up to ~2x over minutes.
//!
//! With `--trace 0` the run reports the end-to-end metrics: pass wall
//! time as the sum of each step's median over the run's passes (see
//! [`pass_wall`]), rates over that time, and medians over the passes for
//! the rest. With `--trace 1` it alternates untraced and traced passes
//! and reports the per-layer metrics of the traced ones: self time per
//! layer span (recorded by this benchmark around each layer call), the
//! campaign engine's own counters, and the tracing overhead. It prints the
//! layer self-time table, with the time no layer span covers, to standard
//! error, and writes its first traced pass as a Chrome trace under
//! `perfbench/out/`.
//!
//! Every pass checks its results (see `workload.rs`); the run also checks
//! that its passes at one seed agree on the tally digest and, at the
//! pinned seed, that the digest of the passes at `--seed` matches
//! `baseline.json`. The last line of standard output is the result as one
//! JSON object; the exit code is 0 only if every check held.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml` runs every
//! workload at tiny budgets as a self-test.

mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{median, run_pass, PassRecord, Sizing, WorkloadId};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("golden_minstrs_per_s", "Minstr/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("avf_ci_half_width", "ratio"),
    ("sdc_within_5x", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 30] = [
    ("workloads.build_s", "s"),
    ("gpu_sim.trial_minstrs", "Minstr"),
    ("gpu_sim.fastforward_minstrs", "Minstr"),
    ("gpu_sim.minstrs_per_s", "Minstr/s"),
    ("gpu_sim.golden_s", "s"),
    ("gpu_sim.golden_minstrs", "Minstr"),
    ("sass_analysis.verdict_s", "s"),
    ("sass_analysis.kernel_instrs", "count"),
    ("profiler.profile_s", "s"),
    ("campaign.avf_s", "s"),
    ("campaign.beam_s", "s"),
    ("campaign.golden_fetch_s", "s"),
    ("campaign.golden_miss", "count"),
    ("campaign.trials", "count"),
    ("campaign.trials_executed", "count"),
    ("campaign.trials_direct", "count"),
    ("campaign.stop_early", "count"),
    ("campaign.trial_us.p50", "us"),
    ("campaign.trial_us.p99", "us"),
    ("campaign.retries", "count"),
    ("campaign.quarantined", "count"),
    ("campaign.snapshot_bytes", "bytes"),
    ("injector.masked_trials", "count"),
    ("beam.struck_frac", "ratio"),
    ("prediction.characterize_s", "s"),
    ("prediction.predict_s", "s"),
    ("pass.unattributed_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("host.probe_s", "s"),
    ("host.slowdown", "ratio"),
];

/// Deterministic work counters pinned in `baseline.json` at the default
/// seed: a change to any of them is a reviewed change to that file.
const WORK_COUNTERS: [&str; 9] = [
    "campaign.trials",
    "campaign.trials_executed",
    "campaign.trials_direct",
    "gpu_sim.trial_minstrs",
    "gpu_sim.fastforward_minstrs",
    "gpu_sim.golden_minstrs",
    "campaign.golden_miss",
    "sass_analysis.kernel_instrs",
    "injector.masked_trials",
];

/// The campaign seed `repro` uses (`HarnessConfig`).
const DEFAULT_SEED: u64 = 2021;

/// Never start a pass later than this into a run, so a run ends well
/// inside its time limit whatever `--seconds` says.
const LAST_START: Duration = Duration::from_secs(120);

const BASELINE: &str = include_str!("../baseline.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Run(run)) => drive(&run),
        Ok(Mode::Pass { workload, seed, traced, trace_out }) => {
            pass_child(workload, &Sizing::bench(seed), traced, trace_out.as_deref())
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!("usage: perfbench --workload <avf|beam-predict|profile-cnn> --seed <n> --seconds <s> --trace <0|1>");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: WorkloadId,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(RunArgs),
    /// One cold pass, run as a child process of [`drive`].
    Pass {
        workload: WorkloadId,
        seed: u64,
        traced: bool,
        trace_out: Option<PathBuf>,
    },
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut child = false;
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "pass" => child = true,
            "--traced" => {
                flags.insert(a, "1");
            }
            "--workload" | "--seed" | "--seconds" | "--trace" | "--trace-out" => {
                flags.insert(a, it.next().ok_or(format!("{a} needs a value"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = flags.get("--workload").ok_or("--workload is required")?;
    let workload = WorkloadId::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let num = |k: &str, default: u64| -> Result<u64, String> {
        flags.get(k).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{k} takes a whole number, got {v:?}"))
        })
    };
    let seed = num("--seed", DEFAULT_SEED)?;
    if child {
        let trace_out = flags.get("--trace-out").map(PathBuf::from);
        return Ok(Mode::Pass {
            workload,
            seed,
            traced: flags.contains_key("--traced"),
            trace_out,
        });
    }
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace takes 0 or 1, got {n}")),
    };
    Ok(Mode::Run(RunArgs { workload, seed, seconds: num("--seconds", 10)?, trace }))
}

/// Run one pass in this process and print its record for the parent.
fn pass_child(
    workload: WorkloadId,
    sizing: &Sizing,
    traced: bool,
    trace_out: Option<&Path>,
) -> ExitCode {
    let bus = traced.then(obs::SpanBus::new);
    let rec = run_pass(workload, sizing, bus.as_ref());
    if let (Some(bus), Some(path)) = (&bus, trace_out) {
        if let Err(e) = bus.write_chrome_trace(path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    print!("{}", encode(&rec));
    ExitCode::SUCCESS
}

/// The child-to-parent record: one `key value` line per field.
fn encode(rec: &PassRecord) -> String {
    let mut out = format!("digest {:016x}\n", rec.digest);
    for (k, v) in &rec.values {
        out.push_str(&format!("value {k} {v}\n"));
    }
    for e in &rec.errors {
        out.push_str(&format!("error {}\n", e.replace('\n', " ")));
    }
    out
}

fn decode(text: &str) -> Result<PassRecord, String> {
    let mut rec = PassRecord::default();
    let mut saw_digest = false;
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "digest" => {
                rec.digest = u64::from_str_radix(rest, 16)
                    .map_err(|e| format!("bad digest {rest:?}: {e}"))?;
                saw_digest = true;
            }
            "value" => {
                let (k, v) = rest.split_once(' ').ok_or(format!("bad value line {line:?}"))?;
                rec.values.insert(
                    k.to_string(),
                    v.parse().map_err(|e| format!("bad value {line:?}: {e}"))?,
                );
            }
            "error" => rec.errors.push(rest.to_string()),
            _ => {}
        }
    }
    if saw_digest {
        Ok(rec)
    } else {
        Err("pass printed no record".to_string())
    }
}

/// The campaign seed of a run's `k`-th pass: the run's seed for the first
/// two, so that the run checks a repeated pass gives the same tallies, and
/// a distinct seed derived from it for each later one, so that a run's
/// medians cover many fault samples and not one seed's draw.
fn pass_seed(seed: u64, k: usize) -> u64 {
    if k < 2 {
        seed
    } else {
        seed.wrapping_add((k as u64 - 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Spawn one pass and wait for it.
fn spawn_pass(
    run: &RunArgs,
    seed: u64,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<PassRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["pass", "--workload", run.workload.name(), "--seed", &seed.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass exited with {}", out.status));
    }
    decode(&String::from_utf8_lossy(&out.stdout))
}

/// Where the first traced pass of a run writes its Chrome trace.
fn trace_path(run: &RunArgs) -> Option<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!("trace-{}-{}.json", run.workload.name(), run.seed)))
}

/// The closed loop, then the report.
fn drive(run: &RunArgs) -> ExitCode {
    let started = Instant::now();
    let budget = Duration::from_secs(run.seconds);
    let mut plain: Vec<PassRecord> = Vec::new();
    let mut traced: Vec<PassRecord> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Tally digests by pass seed: passes at one seed must agree.
    let mut digests: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut record =
        |seed: u64, res: Result<PassRecord, String>, into: &mut Vec<PassRecord>| match res {
            Ok(rec) => {
                attempted += rec.get("attempted") as u64;
                failed += rec.get("failed") as u64;
                errors.extend(rec.errors.iter().cloned());
                digests.entry(seed).or_default().push(rec.digest);
                into.push(rec);
            }
            Err(why) => {
                attempted += 1;
                failed += 1;
                errors.push(why);
            }
        };
    // Passes (pairs, when tracing) run back to back while the next one is
    // expected to finish within `--seconds`; the first always runs.
    let mut rounds: Vec<f64> = Vec::new();
    loop {
        let t0 = Instant::now();
        let seed = pass_seed(run.seed, plain.len());
        record(seed, spawn_pass(run, seed, false, None), &mut plain);
        if run.trace {
            let out = if traced.is_empty() { trace_path(run) } else { None };
            record(seed, spawn_pass(run, seed, true, out.as_deref()), &mut traced);
        }
        rounds.push(t0.elapsed().as_secs_f64());
        let next_end = started.elapsed() + Duration::from_secs_f64(median(&mut rounds.clone()));
        if next_end > budget || started.elapsed() >= LAST_START {
            break;
        }
    }

    for (seed, ds) in &mut digests {
        ds.sort_unstable();
        ds.dedup();
        if ds.len() > 1 {
            errors.push(format!("passes at seed {seed} disagree on the tally digest: {ds:016x?}"));
        }
    }
    let digest = digests.get(&run.seed).and_then(|ds| ds.first()).copied().unwrap_or(0);
    let pinned = pinned(run.workload);
    if run.seed == DEFAULT_SEED {
        let want = pinned.as_ref().and_then(|p| p.as_obj()?.get("digest")?.as_str());
        match want {
            Some(want) if want != format!("{digest:016x}") => errors.push(format!(
                "tally digest {digest:016x} differs from baseline.json's {want} at seed {DEFAULT_SEED}"
            )),
            Some(_) => {}
            None => eprintln!("perfbench: baseline.json pins no digest for {}", run.workload.name()),
        }
    }
    println!("digest {} seed={} {digest:016x}", run.workload.name(), run.seed);

    let metrics: Vec<(&str, &str, f64)> = if run.trace {
        let overhead = pass_wall(&traced) / pass_wall(&plain) - 1.0;
        let rows = PER_LAYER.map(|(name, unit)| {
            let v =
                if name == "obs.trace_overhead_frac" { overhead } else { medians(&traced, name) };
            (name, unit, v)
        });
        print_layer_table(&rows, medians(&traced, "wall_s"));
        if let (DEFAULT_SEED, Some(first)) = (run.seed, traced.first()) {
            report_counter_drift(pinned.as_ref(), first);
        }
        rows.to_vec()
    } else {
        end_to_end(&plain, attempted, failed)
    };
    for e in &errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    eprintln!(
        "perfbench: {} {} untraced + {} traced passes in {:.1} s, host {:.2}x slower than the reference",
        run.workload.name(),
        plain.len(),
        traced.len(),
        started.elapsed().as_secs_f64(),
        medians(&plain, "host.slowdown"),
    );
    let correct = errors.is_empty();
    println!("{}", result_json(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of a run's untraced passes.
fn end_to_end(plain: &[PassRecord], attempted: u64, failed: u64) -> Vec<(&str, &str, f64)> {
    let wall = pass_wall(plain);
    END_TO_END
        .map(|(name, unit)| {
            let v = match name {
                "ok_frac" => 1.0 - failed as f64 / attempted.max(1) as f64,
                "wall_s" => wall,
                "runs_per_s" => medians(plain, "runs") / wall,
                "golden_minstrs_per_s" => medians(plain, "fault_free_instrs") / 1e6 / wall,
                _ => medians(plain, name),
            };
            (name, unit, v)
        })
        .to_vec()
}

/// A pass's wall time at the reference host speed: the sum, over the
/// pass's steps (its top-level layer calls, the same sequence in every
/// pass whatever its seed), of each step's median time among `passes`.
///
/// Each step is scaled by the host speed read just before it, and a
/// step's median over passes then drops the readings a probe misjudged;
/// summing per step keeps one slow step from moving the whole pass.
fn pass_wall(passes: &[PassRecord]) -> f64 {
    let mut steps: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (k, &v) in p.values.iter().filter(|(k, _)| k.starts_with("step.")) {
            steps.entry(k.as_str()).or_default().push(v);
        }
    }
    steps.values_mut().map(|xs| median(xs)).sum()
}

fn medians(passes: &[PassRecord], name: &str) -> f64 {
    let mut xs: Vec<f64> = passes.iter().filter_map(|p| p.values.get(name).copied()).collect();
    median(&mut xs)
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {{\"value\": "));
        obs::json::emit_f64(&mut out, *v);
        out.push_str(&format!(", \"unit\": \"{unit}\"}}"));
    }
    out.push_str("}}");
    out
}

/// The per-layer self-time table of a traced run, with the unattributed
/// remainder, to standard error.
fn print_layer_table(rows: &[(&str, &str, f64)], wall: f64) {
    eprintln!("{:<28} {:>10} {:>7}", "layer self time", "s", "% wall");
    for (name, unit, v) in rows {
        if *unit == "s" && *name != "workloads.build_s" {
            eprintln!("{name:<28} {v:>10.4} {:>6.1}%", 100.0 * v / wall.max(f64::MIN_POSITIVE));
        }
    }
    eprintln!("{:<28} {wall:>10.4}", "wall_s (traced)");
}

/// The `pinned.<workload>` object of `baseline.json`.
fn pinned(workload: WorkloadId) -> Option<obs::json::Json> {
    let doc = obs::json::parse(BASELINE).ok()?;
    doc.as_obj()?.get("pinned")?.as_obj()?.get(workload.name()).cloned()
}

/// Compare the work counters of a pass at the run's seed with
/// `baseline.json`. A difference is reported, not failed: an optimization
/// may change work counts on purpose, and then updates the baseline in the
/// same change.
fn report_counter_drift(pinned: Option<&obs::json::Json>, pass: &PassRecord) {
    let want =
        pinned.and_then(|p| p.as_obj()).and_then(|p| p.get("counters")).and_then(|c| c.as_obj());
    let mut now = String::from("{");
    for (i, name) in WORK_COUNTERS.iter().enumerate() {
        let v = pass.get(name);
        now.push_str(&format!("{}\"{name}\": {v}", if i > 0 { ", " } else { "" }));
        let pinned_v = want.and_then(|w| w.get(*name)).and_then(obs::json::Json::as_num);
        if pinned_v != Some(v) {
            eprintln!("perfbench: work counter {name} = {v}, baseline.json has {pinned_v:?}");
        }
    }
    now.push('}');
    eprintln!("perfbench: work counters {now}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, at tiny budgets, emits every metric with a finite
    /// value and passes its correctness checks, traced and untraced.
    #[test]
    fn every_workload_emits_every_metric_at_tiny_budgets() {
        for w in WorkloadId::ALL {
            let sizing = Sizing::tiny(DEFAULT_SEED);
            let plain = run_pass(w, &sizing, None);
            let bus = obs::SpanBus::new();
            let traced = run_pass(w, &sizing, Some(&bus));
            for rec in [&plain, &traced] {
                assert!(rec.errors.is_empty(), "{}: {:?}", w.name(), rec.errors);
                assert!(rec.get("attempted") >= 1.0);
                assert_eq!(rec.get("failed"), 0.0, "{}", w.name());
            }
            assert_eq!(plain.digest, traced.digest, "{}: tracing changed the tallies", w.name());
            let rows = end_to_end(std::slice::from_ref(&plain), 1, 0);
            assert_eq!(rows.len(), END_TO_END.len());
            for (name, _, v) in rows {
                assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
            }
            for (name, _) in PER_LAYER {
                if name == "obs.trace_overhead_frac" {
                    continue;
                }
                let v = traced.values.get(name).copied();
                assert!(v.is_some_and(f64::is_finite), "{}: {name} missing", w.name());
            }
        }
    }

    /// BENCHMARK.json names exactly the metrics this program reports, with
    /// the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let doc = obs::json::parse(&text).expect("BENCHMARK.json parses");
        let doc = doc.as_obj().expect("an object");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String)> = doc[key]
                .as_arr()
                .expect("a list")
                .iter()
                .map(|m| {
                    let m = m.as_obj().expect("metric object");
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{key}");
        }
        let names: Vec<&str> = doc["workloads"]
            .as_arr()
            .expect("a list")
            .iter()
            .map(|w| w.as_obj().expect("object")["name"].as_str().expect("name"))
            .collect();
        assert_eq!(names, WorkloadId::ALL.map(WorkloadId::name));
    }

    #[test]
    fn pass_wall_sums_each_steps_median() {
        let pass = |steps: &[f64]| {
            let mut rec = PassRecord::default();
            for (i, &s) in steps.iter().enumerate() {
                rec.values.insert(workload::step_key(i), s);
            }
            rec.values.insert("wall_s".into(), 99.0);
            rec
        };
        let passes = [pass(&[1.0, 4.0, 0.5]), pass(&[2.0, 3.0, 0.25]), pass(&[9.0, 5.0, 0.0])];
        assert_eq!(pass_wall(&passes), 2.0 + 4.0 + 0.25);
        assert_eq!(pass_wall(&[]), 0.0);
    }

    #[test]
    fn pass_records_round_trip() {
        let mut rec = PassRecord { digest: 0xfeed, ..PassRecord::default() };
        rec.values.insert("wall_s".into(), 0.1 + 0.2);
        rec.errors.push("two\nlines".into());
        let back = decode(&encode(&rec)).expect("decodes");
        assert_eq!(back.digest, rec.digest);
        assert_eq!(back.values, rec.values);
        assert_eq!(back.errors, vec!["two lines".to_string()]);
        assert!(decode("").is_err());
    }

    #[test]
    fn result_line_is_json_with_the_four_result_keys() {
        let line = result_json(true, 3, 0, &[("wall_s", "s", 1.25)]);
        let doc = obs::json::parse(&line).expect("valid JSON");
        let obj = doc.as_obj().expect("object");
        assert_eq!(obj.keys().collect::<Vec<_>>(), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            obj["metrics"].as_obj().expect("metrics")["wall_s"].as_obj().expect("metric")["value"]
                .as_num(),
            Some(1.25)
        );
    }
}
