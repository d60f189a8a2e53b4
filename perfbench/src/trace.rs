//! Host-time recording around calls into the simulator's public API.
//!
//! Every cell is timed with two reads of the thread's CPU clock (see
//! [`thread_cpu_ns`]). With tracing on, the recorder
//! also keeps a span for the pass, the cell and each layer call inside it,
//! with its parent and cell id, in memory until the run ends. The sweep runs
//! on one worker thread, so a stack of open spans gives every span its
//! parent.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::stats::thread_cpu_ns;

/// One timed interval of a traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call the span covers (`pass`, `cell`, `interaction`, ...).
    pub name: &'static str,
    /// The cell's class (an architecture, `ablation`, a storm class); empty
    /// below the cell level.
    pub class: &'static str,
    /// The cell the span belongs to (`None` for a pass span).
    pub cell: Option<u64>,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Start, in nanoseconds of the thread's CPU time since the recorder was
    /// created.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects cell durations and, while tracing, spans.
#[derive(Debug)]
pub struct Recorder {
    epoch_ns: u64,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    tracing: bool,
    cell_ns: Vec<u64>,
    next_cell: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder with tracing off.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder { epoch_ns: thread_cpu_ns(), state: Mutex::default() })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("recorder lock is never held across a panic")
    }

    /// Every cell runs on the thread that created the recorder: the sweep
    /// has one worker, and the shim runs a one-worker sweep on the caller's
    /// thread.
    fn now_ns(&self) -> u64 {
        thread_cpu_ns() - self.epoch_ns
    }

    /// Turns span recording on or off for the following cells.
    pub fn set_tracing(&self, on: bool) {
        self.state().tracing = on;
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.state().tracing
    }

    /// Starts timing a cell of `class`; the cell ends when the guard drops.
    pub fn cell(self: &Arc<Self>, class: &'static str) -> CellGuard {
        let start_ns = self.now_ns();
        let mut state = self.state();
        let span = state.tracing.then(|| {
            let cell = state.next_cell;
            state.next_cell += 1;
            open(&mut state, "cell", class, Some(cell), start_ns)
        });
        CellGuard { rec: Arc::clone(self), start_ns, span }
    }

    /// Opens a span named `name` under the innermost open span; a no-op
    /// guard when tracing is off.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        let mut state = self.state();
        if !state.tracing {
            return SpanGuard { rec: None, index: 0 };
        }
        let cell = state.open.last().and_then(|&i| state.spans[i].cell);
        let start_ns = self.now_ns();
        let index = open(&mut state, name, "", cell, start_ns);
        SpanGuard { rec: Some(Arc::clone(self)), index }
    }

    /// Runs `f` inside a span named `name`.
    pub fn within<R>(self: &Arc<Self>, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Removes and returns the durations of the cells ended so far, in
    /// nanoseconds, in completion order.
    pub fn take_cells(&self) -> Vec<u64> {
        std::mem::take(&mut self.state().cell_ns)
    }

    /// The number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.state().spans.len()
    }

    /// A copy of the spans recorded from index `from` on.
    pub fn spans_from(&self, from: usize) -> Vec<Span> {
        self.state().spans[from..].to_vec()
    }

    /// Removes and returns every recorded span.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.state().spans)
    }

    fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        let mut state = self.state();
        state.spans[index].end_ns = end_ns;
        let popped = state.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in stack order");
    }
}

fn open(
    state: &mut State,
    name: &'static str,
    class: &'static str,
    cell: Option<u64>,
    start_ns: u64,
) -> usize {
    let parent = state.open.last().copied();
    let index = state.spans.len();
    state.spans.push(Span { name, class, cell, parent, start_ns, end_ns: start_ns });
    state.open.push(index);
    index
}

/// Ends a cell when dropped.
#[derive(Debug)]
pub struct CellGuard {
    rec: Arc<Recorder>,
    start_ns: u64,
    span: Option<usize>,
}

impl Drop for CellGuard {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        if let Some(index) = self.span {
            self.rec.close(index);
        }
        self.rec.state().cell_ns.push(end_ns - self.start_ns);
    }
}

/// Ends a span when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Option<Arc<Recorder>>,
    index: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(rec) = &self.rec {
            rec.close(self.index);
        }
    }
}

/// Self time of every span: its duration minus the part its children cover.
/// Children never overlap on one worker thread, so that part is the sum of
/// their durations.
pub fn self_ns(spans: &[Span], offset: usize) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| p.checked_sub(offset)) {
            if parent < spans.len() {
                child_ns[parent] += span.ns();
            }
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| s.ns().saturating_sub(c)).collect()
}

/// Sums of self time by (span name, class), in nanoseconds.
pub fn self_time_by_name(
    spans: &[Span],
    offset: usize,
) -> HashMap<(&'static str, &'static str), u64> {
    let mut sums = HashMap::new();
    for (span, own) in spans.iter().zip(self_ns(spans, offset)) {
        *sums.entry((span.name, span.class)).or_insert(0) += own;
    }
    sums
}

/// Renders spans as JSON lines: name, class, cell, parent, start and end.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"class\":\"{}\",\"cell\":{cell},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.class, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_cells_record_only_durations() {
        let rec = Recorder::new();
        {
            let _cell = rec.cell("x");
            let _inner = rec.span("inner");
        }
        assert_eq!(rec.take_cells().len(), 1);
        assert!(rec.take_spans().is_empty());
    }

    #[test]
    fn traced_spans_nest_and_self_time_excludes_children() {
        let rec = Recorder::new();
        rec.set_tracing(true);
        {
            let _pass = rec.span("pass");
            let _cell = rec.cell("sgx");
            rec.within("interaction", || {
                let mut x = 0u64;
                for i in 0..2_000_000u64 {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                x
            });
        }
        let spans = rec.take_spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["pass", "cell", "interaction"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].cell, Some(0));
        assert_eq!(spans[0].cell, None);
        let own = self_ns(&spans, 0);
        assert_eq!(own[1], spans[1].ns() - spans[2].ns());
        assert_eq!(own[0], spans[0].ns() - spans[1].ns());
        assert!(spans[2].ns() > 0);
    }
}
