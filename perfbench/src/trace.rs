//! Layer spans recorded from the benchmark's own code.
//!
//! Every call into a layer is wrapped in a span on an [`obs::SpanBus`];
//! the untraced pass carries no bus and the wrapper is a plain call. A
//! layer's self time is its span's duration minus the durations of the
//! spans nested directly inside it. The benchmark runs its layer calls
//! one after another on one thread, so sibling spans never overlap and
//! the subtraction is exact.

use obs::{SpanBus, ROOT_SPAN};
use std::collections::BTreeMap;

/// Span name of the whole measured pass; its self time is the time no
/// layer span accounts for.
pub const PASS: &str = "pass";

/// Opens layer spans on an optional bus.
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    bus: Option<&'a SpanBus>,
}

impl<'a> Tracer<'a> {
    pub fn new(bus: Option<&'a SpanBus>) -> Self {
        Tracer { bus }
    }

    /// Run `f` inside a span named `name`, nested under `parent`. `f`
    /// receives the new span's id, to nest further spans under it.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        match self.bus {
            None => f(ROOT_SPAN),
            Some(bus) => {
                let span = bus.begin(name, "layer", parent, 0);
                let out = f(span.id());
                span.end();
                out
            }
        }
    }
}

/// Seconds of self time per span name.
pub fn self_seconds(bus: &SpanBus) -> BTreeMap<String, f64> {
    let records = bus.records();
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &records {
        if let Some(d) = r.dur_us {
            *child_us.entry(r.parent).or_default() += d;
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for r in &records {
        let Some(d) = r.dur_us else { continue };
        let own = d.saturating_sub(child_us.get(&r.id).copied().unwrap_or(0));
        *out.entry(r.name.clone()).or_default() += own as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_spans() {
        let bus = SpanBus::new();
        let tracer = Tracer::new(Some(&bus));
        tracer.span(PASS, ROOT_SPAN, |pass| {
            tracer.span("outer", pass, |outer| {
                tracer.span("inner", outer, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                });
            });
        });
        let own = self_seconds(&bus);
        assert!(own["inner"] >= 0.02, "{own:?}");
        assert!(own["outer"] < own["inner"], "{own:?}");
        let total: f64 = own.values().sum();
        let records = bus.records();
        let pass = records.iter().find(|r| r.name == PASS).and_then(|r| r.dur_us).unwrap();
        assert!((total - pass as f64 / 1e6).abs() < 1e-9, "self times must sum to the pass");
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let tracer = Tracer::new(None);
        assert_eq!(tracer.span("x", ROOT_SPAN, |id| id), ROOT_SPAN);
    }
}
