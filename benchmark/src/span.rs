//! Benchmark-side spans: one per call into a layer, kept in memory and
//! written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// A named, timed interval around one call into the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    pub name: String,
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans of one workload against one clock.
pub struct Tracer {
    origin: Instant,
    workload: String,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under whichever span
    /// is open; returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            workload: self.workload.clone(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 * 1e-9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds and in the order of `spans`:
/// the span's duration minus the part of its interval that its direct
/// children cover. Overlapping children are counted once, and a child
/// reaching outside its parent counts only for the part inside.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            workload: "w".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 70),
            span(3, Some(2), 55, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 15, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160),
            span(3, Some(0), 190, 250),
            span(4, Some(0), 120, 130),
        ];
        // Covered: [110,160) and [190,200) = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_measures() {
        let mut t = Tracer::new("w");
        let ((), outer_s) = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(outer_s >= 0.002);
        let own = self_times_ns(s);
        assert_eq!(own[1], s[1].end_ns - s[1].start_ns);
        assert!(own[0] < s[0].end_ns - s[0].start_ns);
    }
}
