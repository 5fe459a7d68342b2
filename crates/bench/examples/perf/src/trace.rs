//! Spans kept in memory during a traced run and written out at its end, the
//! recorder that feeds the program's own hooks into them, and the
//! benchmark-owned policy wrapper that times `ChargerPolicy` calls.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use wrsn::sim::obs::{Counter, NullRecorder, Recorder};
use wrsn::sim::{ChargerAction, ChargerPolicy, WorldView};

/// Spans kept for the trace file. The program's per-decision hooks fire
/// millions of times in one suite pass, so later spans only count towards
/// [`Tracer::totals`], which stay exact.
const MAX_STORED: usize = 200_000;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// The operation (pass, run or request) the span belongs to.
    pub run: u64,
}

/// Every span of one name: how many, their summed duration, and their summed
/// self time (duration minus the part their child spans cover).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total: Duration,
    pub own: Duration,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start: Duration,
    children: Duration,
    stored: Option<usize>,
}

/// In-memory span store. Disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, Totals>,
    run: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            open: Vec::new(),
            totals: BTreeMap::new(),
            run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with operation `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Per span name, over every span recorded, stored or not.
    pub fn totals(&self) -> &BTreeMap<&'static str, Totals> {
        &self.totals
    }

    /// Spans counted in [`Tracer::totals`] but left out of the trace file.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn store(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_STORED {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            run: self.run,
        });
        Some(self.spans.len() - 1)
    }

    fn tally(&mut self, name: &'static str, total: Duration, own: Duration) {
        let entry = self.totals.entry(name).or_default();
        entry.count += 1;
        entry.total += total;
        entry.own += own;
    }

    /// The innermost open span that was stored.
    fn stored_parent(&self) -> Option<usize> {
        self.open.iter().rev().find_map(|o| o.stored)
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed();
        let parent = self.stored_parent();
        let stored = self.store(name, now, now, parent);
        self.open.push(Open {
            name,
            start: now,
            children: Duration::ZERO,
            stored,
        });
    }

    pub fn exit(&mut self) {
        let Some(open) = self.open.pop() else { return };
        let now = self.origin.elapsed();
        let total = now.saturating_sub(open.start);
        if let Some(idx) = open.stored {
            self.spans[idx].end = now;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.children += total;
        }
        self.tally(open.name, total, total.saturating_sub(open.children));
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Records a finished span and its children from timestamps taken
    /// elsewhere. Children may overlap each other or stick out of the span;
    /// its self time excludes the part of it their union covers.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        children: &[(&'static str, Instant, Instant)],
    ) {
        if !self.enabled {
            return;
        }
        let origin = self.origin;
        let at = |t: Instant| t.saturating_duration_since(origin);
        let (start, end) = (at(start), at(end));
        let parent = self.stored_parent();
        let root = self.store(name, start, end, parent);
        let mut intervals = Vec::with_capacity(children.len());
        for &(child, s, e) in children {
            let (s, e) = (at(s), at(e));
            self.store(child, s, e, root);
            self.tally(child, e.saturating_sub(s), e.saturating_sub(s));
            intervals.push((s, e));
        }
        let total = end.saturating_sub(start);
        let own = total.saturating_sub(covered(start, end, intervals));
        self.tally(name, total, own);
        if let Some(parent) = self.open.last_mut() {
            parent.children += total;
        }
    }

    /// Writes every stored span as one JSON object per line, then, when
    /// spans were left out, a last line `{"dropped":<count>}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"run\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.run
            )?;
        }
        if self.dropped > 0 {
            writeln!(file, "{{\"dropped\":{}}}", self.dropped)?;
        }
        file.flush()
    }
}

/// Length of `[start, end]` covered by the union of `intervals`.
fn covered(start: Duration, end: Duration, intervals: Vec<(Duration, Duration)>) -> Duration {
    let mut clipped: Vec<(Duration, Duration)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Counts the program's counters and turns its span hooks (`world_run`,
/// `policy_decide`, `execute`, `csa_plan`) into tracer spans.
pub struct HookRecorder<'t> {
    tracer: &'t mut Tracer,
    counters: [u64; Counter::COUNT],
}

impl<'t> HookRecorder<'t> {
    pub fn new(tracer: &'t mut Tracer) -> Self {
        HookRecorder {
            tracer,
            counters: [0; Counter::COUNT],
        }
    }

    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    pub fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }
}

impl Recorder for HookRecorder<'_> {
    fn add(&mut self, counter: Counter, delta: u64) {
        self.counters[counter as usize] += delta;
    }

    fn span_enter(&mut self, name: &'static str) {
        self.tracer.enter(name);
    }

    fn span_exit(&mut self, _name: &'static str) {
        self.tracer.exit();
    }
}

/// A policy wrapper recording busy time and call count.
pub struct Timed<P: ?Sized> {
    pub busy: Duration,
    pub calls: u64,
    pub inner: P,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            busy: Duration::ZERO,
            calls: 0,
        }
    }
}

impl<P: ChargerPolicy + ?Sized> ChargerPolicy for Timed<P> {
    fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
        self.next_action_observed(view, &mut NullRecorder)
    }

    fn next_action_observed(
        &mut self,
        view: &WorldView<'_>,
        rec: &mut dyn Recorder,
    ) -> ChargerAction {
        let started = Instant::now();
        let action = self.inner.next_action_observed(view, rec);
        self.busy += started.elapsed();
        self.calls += 1;
        action
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let ms = |m: u64| base + Duration::from_millis(m);
        // The second server span overlaps the first and sticks out of the
        // request.
        t.record(
            "request",
            ms(0),
            ms(100),
            &[
                ("client.late", ms(0), ms(10)),
                ("service.server", ms(60), ms(90)),
                ("service.server", ms(80), ms(120)),
            ],
        );
        let request = t.totals()["request"];
        assert_eq!(request.count, 1);
        assert_eq!(request.total, Duration::from_millis(100));
        assert_eq!(request.own, Duration::from_millis(50));
        assert_eq!(t.totals()["service.server"].count, 2);
        assert_eq!(t.spans[2].parent, Some(0));
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_give_up_their_time() {
        let mut t = Tracer::new(true);
        t.set_run(7);
        t.span("op", |t| {
            t.span("world.run", |_| {
                std::thread::sleep(Duration::from_millis(5))
            })
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].run, 7);
        let (op, run) = (t.totals()["op"], t.totals()["world.run"]);
        assert!(run.total >= Duration::from_millis(5));
        assert_eq!(op.own + run.total, op.total);
        let mut off = Tracer::new(false);
        off.span("op", |_| ());
        assert!(off.spans.is_empty() && off.totals().is_empty());
    }

    #[test]
    fn spans_past_the_cap_still_count() {
        let mut t = Tracer::new(true);
        for _ in 0..MAX_STORED + 5 {
            t.span("decide", |_| ());
        }
        assert_eq!(t.spans.len(), MAX_STORED);
        assert_eq!(t.dropped(), 5);
        assert_eq!(t.totals()["decide"].count, (MAX_STORED + 5) as u64);
    }
}
