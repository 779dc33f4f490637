//! Outside-in spans: one per public call the runner makes into a layer,
//! on the driver thread's CPU-time axis (see [`CpuInstant`]).
//!
//! The program under test has no spans of its own yet, so a layer's self
//! time is measured differentially: the runner times a public call, then
//! replays the same work through the calls of the layer below on
//! identical inputs and records those as the call's children. Self time
//! is a span's duration minus its children's. Replays run after the call
//! they explain, on warm inputs, so self times lean slightly high.

use crate::host::CpuInstant;
use crate::json::{obj, Value};
use std::collections::BTreeMap;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span this one replays a part of.
    pub parent: Option<SpanId>,
    /// Shared by all spans replaying the same batch / request / sweep.
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the durations of these spans' children; negative
    /// when replayed children outweigh the calls they explain.
    pub self_ns: i64,
}

impl NameTotal {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Self time as a share of total time (0 for an absent name).
    pub fn self_share(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.total_ns as f64
        }
    }
}

/// In-memory span recorder; written out once, when the run ends.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Times `f` as one span and returns its result and id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        work: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = CpuInstant::now();
        let result = f();
        let end = CpuInstant::now();
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos(),
            end_ns: end.as_nanos().max(start.as_nanos()),
            parent,
            work,
        });
        (result, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self times (see [`totals_of`]).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        totals_of(&self.spans)
    }

    /// Total of one name (zeroes if no such span was recorded).
    pub fn total(&self, name: &str) -> NameTotal {
        self.totals().get(name).copied().unwrap_or_default()
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                    ),
                    ("work", Value::from(s.work)),
                ])
            })
            .collect();
        obj([
            ("schema", Value::from("pivot-benchmark-trace/1")),
            ("workload", Value::from(workload)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// Self-time arithmetic: each span's duration counts towards its name's
/// total, and is subtracted from its parent's name's self time.
pub fn totals_of(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() as i64;
    }
    for s in spans {
        if let Some(p) = s.parent {
            let parent_name = spans[p as usize].name;
            totals.entry(parent_name).or_default().self_ns -= s.duration_ns() as i64;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            work: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // A 100 ns call explained by two replayed children (30 + 50), one
        // of which has a 20 ns grandchild; a second call with no replay.
        let spans = [
            span("serve.process", 0, 100, None),
            span("core.guarded", 100, 130, Some(0)),
            span("core.guarded", 130, 180, Some(0)),
            span("vit.forward", 180, 200, Some(2)),
            span("serve.process", 200, 260, None),
        ];
        let t = totals_of(&spans);
        assert_eq!(t["serve.process"].count, 2);
        assert_eq!(t["serve.process"].total_ns, 160);
        assert_eq!(t["serve.process"].self_ns, 80);
        assert_eq!(t["core.guarded"].total_ns, 80);
        assert_eq!(t["core.guarded"].self_ns, 60);
        assert_eq!(t["vit.forward"].self_ns, 20);
        assert!((t["serve.process"].self_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn children_outweighing_their_parent_read_negative() {
        let spans = [span("a", 0, 10, None), span("b", 10, 25, Some(0))];
        assert_eq!(totals_of(&spans)["a"].self_ns, -5);
        assert!(totals_of(&spans)["a"].self_share() < 0.0);
    }

    #[test]
    fn tracer_records_nested_calls_in_order() {
        let mut t = Tracer::default();
        let (v, outer) = t.span("outer", None, 7, || 42);
        let (_, inner) = t.span("inner", Some(outer), 7, || ());
        assert_eq!(v, 42);
        assert_eq!(t.spans()[inner as usize].parent, Some(outer));
        assert!(t.spans()[outer as usize].end_ns <= t.spans()[inner as usize].start_ns);
        let json = t.to_json("w").encode();
        assert!(json.contains("\"work\": 7"));
    }
}
