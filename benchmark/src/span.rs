//! The benchmark's own spans: one around every call it makes into a layer
//! of the system (`setup`, `warmup`, `live::run`, each ladder rung), kept in
//! memory and written out when the run ends. Spans inside the program are
//! the program's business (`telemetry::trace_to_chrome`); the two are merged
//! into one Chrome trace file.

use std::time::Instant;

/// One recorded interval. `parent` indexes into the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder for one workload's traced run.
pub struct Recorder {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome-trace complete (`X`) events on their own process
    /// row (pid 1; the runtime's own events use pid 0), comma-joined and
    /// ready to splice into a `traceEvents` array.
    pub fn chrome_events(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"benchmark {}\"}}}}",
            self.workload
        );
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                ",{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"workload\":\"{}\",\"parent\":{},\"self_ns\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.workload,
                s.parent.map_or(-1, |p| p as i64),
                selfs[i],
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover. Children are clipped to the parent and overlapping
/// children are counted once (interval union).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root: 100 - (30 + 40); a: 30 - 10; grandchildren do not count
        // against the root a second time.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 170, Some(0)),    // overlaps x by 10
            span("z", 120, 130, Some(0)),    // inside x
            span("late", 190, 260, Some(0)), // runs past the parent's end
        ];
        // union = [110,170) + [190,200) = 70
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_parents_and_orders_times() {
        let mut rec = Recorder::new("w");
        rec.span("outer", |r| {
            r.span("inner", |_| std::hint::black_box(1 + 1));
        });
        rec.span("sibling", |_| ());
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let chrome = rec.chrome_events();
        assert!(chrome.contains("\"name\":\"inner\"") && chrome.contains("\"parent\":0"));
    }
}
