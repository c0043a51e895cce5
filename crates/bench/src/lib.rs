//! Experiment harness: one function per table/figure of the paper.
//!
//! Every experiment takes the run's [`ObserveCtx`] and runs its campaigns
//! through [`ObserveCtx::run`]; the `repro` binary dispatches to them.
//! Campaign sizes default to laptop-scale "quick" settings and can be
//! scaled with [`HarnessConfig`].

pub mod ablations;
pub mod experiments;
pub mod render;

pub use campaign::Budget;
pub use experiments::{
    avf_breakdown, codegen_comparison, convergence, device_pipeline, due_analysis, fig3, fig4,
    fig5, fig6, hidden_gap_closure, table1, AvfRow, BeamRow, BreakdownRow, CampaignObservation,
    CodegenRow, ComparisonSet, ConvergenceRow, DeviceReport, DeviceRow, Fig3Row, GapClosure,
    GapRow, HarnessConfig, ObserveCtx, ProfileRow,
};
