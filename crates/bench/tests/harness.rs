//! Smoke tests for the experiment harness: every table/figure function
//! runs end to end at micro campaign sizes, produces well-formed data and
//! renderable text, and reports each campaign it runs through its
//! [`ObserveCtx`].

use bench::{
    avf_breakdown, codegen_comparison, convergence, device_pipeline, due_analysis, fig3, fig4,
    fig5, fig6, table1, Budget, CampaignObservation, HarnessConfig, ObserveCtx,
};
use gpu_arch::{DeviceModel, DeviceRegistry};
use prediction::{characterize_units, CharacterizeConfig};
use workloads::{Benchmark, Scale};

/// Unit-characterization campaigns per device: one beam per
/// micro-benchmark plus one de-masking AVF per non-RF bench (Kepler: 6
/// arithmetic + LDST + RF; Volta: 14 arithmetic/MMA + LDST + RF).
const KEPLER_UNITS: usize = 8 + 7;
const VOLTA_UNITS: usize = 16 + 15;

fn micro() -> HarnessConfig {
    HarnessConfig {
        scale: Scale::Tiny,
        profile_scale: Scale::Tiny,
        injection: Budget::fixed(40).seed(1234),
        beam: Budget::fixed(300).seed(1234),
        bench_beam: Budget::fixed(250).seed(1234),
        bench_injection: Budget::fixed(25).seed(1234),
    }
}

/// Run one experiment with a fresh context; return its result and the
/// observations it emitted.
fn observed<R>(experiment: impl FnOnce(&mut ObserveCtx<'_>) -> R) -> (R, Vec<CampaignObservation>) {
    let mut seen = Vec::new();
    let out = experiment(&mut ObserveCtx::new(&mut |o| seen.push(o)));
    (out, seen)
}

/// Trials the observed campaigns ran in this process (resumed ones
/// excluded).
fn trials_run(observations: &[CampaignObservation]) -> u64 {
    observations.iter().map(|o| o.snapshot.counters.get("trials").copied().unwrap_or(0)).sum()
}

#[test]
fn table1_covers_both_devices() {
    let (rows, seen) = observed(|ctx| table1(&micro(), ctx));
    assert_eq!(seen.len(), rows.len(), "one observation per profiled code");
    assert!(rows.iter().any(|r| r.device == "Kepler"));
    assert!(rows.iter().any(|r| r.device == "Volta"));
    assert_eq!(rows.iter().filter(|r| r.device == "Kepler").count(), 13);
    assert_eq!(rows.iter().filter(|r| r.device == "Volta").count(), 16);
    for r in &rows {
        assert!(r.ipc >= 0.0 && r.occupancy >= 0.0 && r.occupancy <= 1.0, "{r:?}");
    }
    let text = bench::render::table1(&rows);
    assert!(text.contains("FGEMM"));
}

#[test]
fn fig1_fractions_sum_to_one() {
    let (rows, _) = observed(|ctx| table1(&micro(), ctx));
    for r in &rows {
        let s: f64 = r.mix_fractions.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "{}: {s}", r.name);
    }
    assert!(bench::render::fig1(&rows).contains("Figure 1"));
}

#[test]
fn fig3_has_reference_normalization() {
    let (rows, seen) = observed(|ctx| fig3(&micro(), ctx));
    assert_eq!(seen.len(), rows.len(), "one beam campaign per micro-benchmark");
    // The normalization reference (FADD DUE on Kepler) must be 1.0.
    let fadd = rows.iter().find(|r| r.device == "Kepler" && r.name == "FADD").unwrap();
    assert!((fadd.due_norm - 1.0).abs() < 1e-9);
    // RF appears per megabyte.
    assert!(rows.iter().any(|r| r.name == "RF/MB"));
    // Volta carries the tensor benches.
    assert!(rows.iter().any(|r| r.device == "Volta" && r.name == "HMMA"));
}

#[test]
fn fig4_respects_injector_capabilities() {
    let (rows, seen) = observed(|ctx| fig4(&micro(), ctx));
    assert_eq!(seen.len(), rows.len(), "one AVF campaign per row");
    // No SASSIFI rows for proprietary codes.
    assert!(!rows
        .iter()
        .any(|r| r.injector == injector::Injector::Sassifi && r.name.contains("GEMM")));
    assert!(!rows
        .iter()
        .any(|r| r.injector == injector::Injector::Sassifi && r.name.contains("YOLO")));
    // No SASSIFI rows on Volta at all.
    assert!(!rows.iter().any(|r| r.device == "Volta" && r.injector == injector::Injector::Sassifi));
    for r in &rows {
        let s = r.sdc + r.due + r.masked;
        assert!((s - 1.0).abs() < 1e-9, "{}: {s}", r.name);
    }
}

#[test]
fn fig5_rows_follow_the_paper_layout() {
    let (rows, seen) = observed(|ctx| fig5(&micro(), ctx));
    assert_eq!(seen.len(), rows.len(), "one beam campaign per row");
    // Kepler: 9 ECC-off rows + 13 ECC-on rows; Volta: 12 off + 4 on.
    assert_eq!(rows.iter().filter(|r| r.device == "Kepler" && !r.ecc).count(), 9);
    assert_eq!(rows.iter().filter(|r| r.device == "Kepler" && r.ecc).count(), 13);
    assert_eq!(rows.iter().filter(|r| r.device == "Volta" && !r.ecc).count(), 12);
    assert_eq!(rows.iter().filter(|r| r.device == "Volta" && r.ecc).count(), 4);
}

#[test]
fn fig6_and_due_analysis_are_complete() {
    let (set, seen) = observed(|ctx| fig6(&micro(), ctx));
    assert!(!seen.is_empty(), "fig6 ran its campaigns blind");
    assert!(set.rows.len() > 40, "only {} comparisons", set.rows.len());
    // Every Kepler non-proprietary code appears with both AVF sources.
    let sassifi_rows =
        set.rows.iter().filter(|r| r.injector == injector::Injector::Sassifi).count();
    assert!(sassifi_rows > 10);
    let due = due_analysis(&set);
    assert_eq!(due.len(), 4);
    let text = bench::render::fig6(&set);
    assert!(text.contains("geometric mean") || text.contains("Averages"));
}

#[test]
fn fig6_reuses_fig3_fig4_and_fig5_campaigns_from_a_shared_store() {
    let cfg = micro();
    let (alone, alone_seen) = observed(|ctx| fig6(&cfg, ctx));

    let dir = std::env::temp_dir().join(format!("bench-fig6-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = campaign::CheckpointStore::open(&dir).expect("open store");
    {
        let mut ignore = |_| {};
        let mut ctx = ObserveCtx::new(&mut ignore);
        ctx.store = Some(&mut store);
        fig3(&cfg, &mut ctx);
        fig4(&cfg, &mut ctx);
        fig5(&cfg, &mut ctx);
    }
    let mut seen = Vec::new();
    let shared = {
        let mut record = |o| seen.push(o);
        let mut ctx = ObserveCtx::new(&mut record);
        ctx.store = Some(&mut store);
        fig6(&cfg, &mut ctx)
    };
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(format!("{:?}", shared.rows), format!("{:?}", alone.rows));
    assert_eq!(format!("{:?}", shared.kepler_units), format!("{:?}", alone.kepler_units));
    assert_eq!(format!("{:?}", shared.volta_units), format!("{:?}", alone.volta_units));
    assert_eq!(seen.len(), alone_seen.len(), "resumed campaigns are still observed");
    let beams: Vec<_> = seen
        .iter()
        .filter(|o| o.campaign.starts_with("fig6/units/") && !o.campaign.ends_with("/demask"))
        .cloned()
        .collect();
    assert_eq!(beams.len(), 8 + 16, "one characterization beam per micro-benchmark");
    assert_eq!(trials_run(&beams), 0, "fig6 reran fig3's micro-benchmark beams");
    assert!(
        trials_run(&seen) < trials_run(&alone_seen) / 2,
        "fig6 reran fig4/fig5 campaigns: {} of {} trials",
        trials_run(&seen),
        trials_run(&alone_seen)
    );
}

#[test]
fn codegen_study_produces_ratios() {
    let (rows, seen) = observed(|ctx| codegen_comparison(&micro(), ctx));
    assert_eq!(rows.len(), 8);
    assert_eq!(seen.len(), 16, "one campaign per (code, codegen)");
    for r in &rows {
        assert!(r.avf_cuda7 >= 0.0 && r.avf_cuda10 >= 0.0);
        assert!(r.dyn_cuda7 >= r.dyn_cuda10, "{}: optimizer grew the code", r.name);
    }
}

#[test]
fn convergence_ci_shrinks() {
    let (rows, seen) = observed(|ctx| convergence(&micro(), Benchmark::Hotspot, ctx));
    assert_eq!(rows.len(), 6);
    assert_eq!(seen.len(), 6, "one campaign per campaign size");
    assert!(
        rows.last().unwrap().ci_width < rows.first().unwrap().ci_width,
        "CI did not shrink: {rows:?}"
    );
}

#[test]
fn ablations_are_observed() {
    let (text, seen) = observed(|ctx| bench::ablations::render(&micro(), ctx));
    assert!(text.contains("Ablation 3"));
    // phi: Kepler units + 4 codes x (AVF + beam); half: Volta units +
    // 2 AVFs + 1 beam; MBU: 4 beams.
    assert_eq!(seen.len(), 15 + KEPLER_UNITS + VOLTA_UNITS);
}

#[test]
fn device_pipeline_is_observed() {
    let spec = DeviceRegistry::builtin().resolve_spec("k40c").expect("builtin spec");
    let (report, seen) = observed(|ctx| device_pipeline(&spec, &micro(), ctx));
    assert_eq!(report.rows.len(), 6, "3 codes x 2 ECC states");
    // Kepler units, one AVF per code, one beam per row, and one campaign
    // per live hidden class of each code (14 over the three codes).
    let hidden = seen.iter().filter(|o| o.campaign.contains("/hidden/")).count();
    assert_eq!(hidden, 14);
    assert_eq!(seen.len(), KEPLER_UNITS + 9 + hidden);
}

#[test]
fn avf_breakdown_is_observed() {
    let (rows, seen) = observed(|ctx| avf_breakdown(&micro(), ctx));
    assert!(!rows.is_empty());
    assert_eq!(seen.len(), rows.len(), "one class-AVF campaign per row");
}

#[test]
fn observed_characterization_matches_characterize_units() {
    let cfg = micro();
    let char_cfg =
        CharacterizeConfig { beam: cfg.bench_beam.clone(), injection: cfg.bench_injection.clone() };
    for (id, campaigns) in [("k40c-sim", KEPLER_UNITS), ("v100-sim", VOLTA_UNITS)] {
        let device = DeviceModel::named(id);
        let (observed_fits, seen) = observed(|ctx| ctx.unit_fits("test", &device, &cfg));
        let blind = characterize_units(&device, &microbench::suite(&device), &char_cfg);
        assert_eq!(format!("{observed_fits:?}"), format!("{blind:?}"), "{id}");
        assert_eq!(seen.len(), campaigns, "{id}");
    }
}
