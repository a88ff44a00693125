//! The benchmark's own span recorder. Spans wrap the benchmark's calls into
//! each layer's public functions; nothing inside the library is
//! instrumented. Per-layer totals (count, total and self time) accumulate
//! for every span; the first spans of the run also go into a preallocated
//! event buffer that is written out as Chrome Trace Event JSON.
//!
//! A child span starts where its previous sibling, or its parent, last read
//! the clock, so each span costs one clock read (about 55 ns on this guest)
//! and siblings tile their parent. The little code between two layer calls
//! is charged to the later one; what runs after the last child is the
//! parent's self time.

use std::fmt::Write as _;
use std::time::Instant;

/// Buffer room kept free when a new root span starts, so every recorded
/// root can record all of its children and the trace stays balanced.
const ROOT_HEADROOM: usize = 64;

/// Accumulated time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Completed spans.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time child spans cover.
    pub self_ns: u64,
}

impl Total {
    /// Mean duration per span in seconds (0 when none ran).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e9
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Event {
    begin: bool,
    name: &'static str,
    parent: &'static str,
    id: u64,
    ts_ns: u64,
}

struct Open {
    name: &'static str,
    id: u64,
    start_ns: u64,
    child_ns: u64,
    recorded: bool,
}

/// Span recorder. Inactive spans cost one branch.
pub struct Spans {
    active: bool,
    epoch: Instant,
    events: Vec<Event>,
    stack: Vec<Open>,
    totals: Vec<(&'static str, Total)>,
    roots: Total,
    dropped_roots: u64,
    /// The last timestamp taken.
    last_ns: u64,
}

impl Spans {
    /// A recorder whose event buffer holds `capacity` begin/end events.
    pub fn new(capacity: usize) -> Spans {
        Spans {
            active: false,
            epoch: Instant::now(),
            events: Vec::with_capacity(capacity.max(ROOT_HEADROOM)),
            stack: Vec::new(),
            totals: Vec::new(),
            roots: Total::default(),
            dropped_roots: 0,
            last_ns: 0,
        }
    }

    /// Turns recording on or off; only between root spans.
    pub fn set_active(&mut self, on: bool) {
        assert!(
            self.stack.is_empty(),
            "span recording toggled inside a span"
        );
        self.active = on;
    }

    /// Whether spans are being recorded.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Opens span `name` of pass, frame or cycle `id`, as a child of the
    /// innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if self.active {
            let now = if self.stack.is_empty() {
                self.now_ns()
            } else {
                self.last_ns
            };
            self.begin_at(name, id, now);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if self.active {
            let now = self.now_ns();
            self.end_at(now);
        }
    }

    /// Runs `f` inside span `name`.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin_at(&mut self, name: &'static str, id: u64, ts_ns: u64) {
        self.last_ns = ts_ns;
        let parent = self.stack.last();
        let recorded = match parent {
            Some(p) => p.recorded,
            None => self.events.len() + ROOT_HEADROOM <= self.events.capacity(),
        };
        if parent.is_none() && !recorded {
            self.dropped_roots += 1;
        }
        if recorded {
            self.events.push(Event {
                begin: true,
                name,
                parent: parent.map_or("", |p| p.name),
                id,
                ts_ns,
            });
        }
        self.stack.push(Open {
            name,
            id,
            start_ns: ts_ns,
            child_ns: 0,
            recorded,
        });
    }

    fn end_at(&mut self, ts_ns: u64) {
        self.last_ns = ts_ns;
        let open = self.stack.pop().expect("span end without a matching begin");
        let total_ns = ts_ns.saturating_sub(open.start_ns);
        let self_ns = total_ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total_ns;
        } else {
            self.roots.count += 1;
            self.roots.total_ns += total_ns;
            self.roots.self_ns += self_ns;
        }
        // Span names are constants, so the address usually matches.
        let slot = match self
            .totals
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, open.name))
            .or_else(|| self.totals.iter().position(|(n, _)| *n == open.name))
        {
            Some(i) => i,
            None => {
                self.totals.push((open.name, Total::default()));
                self.totals.len() - 1
            }
        };
        let t = &mut self.totals[slot].1;
        t.count += 1;
        t.total_ns += total_ns;
        t.self_ns += self_ns;
        if open.recorded {
            self.events.push(Event {
                begin: false,
                name: open.name,
                parent: "",
                id: open.id,
                ts_ns,
            });
        }
    }

    /// Accumulated time of span `name`.
    pub fn total(&self, name: &str) -> Total {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Total::default, |(_, t)| *t)
    }

    /// Share of root-span time that no child span covers, in percent: the
    /// residual of the layer-sum check.
    pub fn unattributed_pct(&self) -> f64 {
        if self.roots.total_ns == 0 {
            0.0
        } else {
            100.0 * self.roots.self_ns as f64 / self.roots.total_ns as f64
        }
    }

    /// Root spans that did not fit in the event buffer (still counted in
    /// the totals).
    pub fn dropped_roots(&self) -> u64 {
        self.dropped_roots
    }

    /// The buffered spans as Chrome Trace Event JSON (loads in Perfetto and
    /// `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 112);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"{}\",\"ts\":{}.{:03},\
                 \"pid\":1,\"tid\":1",
                e.name,
                if e.begin { 'B' } else { 'E' },
                e.ts_ns / 1000,
                e.ts_ns % 1000,
            );
            if e.begin {
                let _ = write!(
                    out,
                    ",\"args\":{{\"id\":{},\"parent\":\"{}\"}}",
                    e.id, e.parent
                );
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut s = Spans::new(256);
        s.set_active(true);
        s.begin_at("pass", 0, 0);
        s.begin_at("parse", 0, 10);
        s.end_at(30);
        s.begin_at("engine", 0, 40);
        s.begin_at("merge", 0, 41);
        s.end_at(44);
        s.end_at(45);
        s.end_at(100);
        let pass = s.total("pass");
        assert_eq!((pass.count, pass.total_ns, pass.self_ns), (1, 100, 75));
        let engine = s.total("engine");
        assert_eq!((engine.total_ns, engine.self_ns), (5, 2));
        assert_eq!(s.total("parse").self_ns, 20);
        assert_eq!(s.unattributed_pct(), 75.0);
        assert_eq!(s.total("missing"), Total::default());
    }

    #[test]
    fn children_tile_their_parent() {
        let mut s = Spans::new(256);
        s.set_active(true);
        s.begin("frame", 0);
        s.time("encode", 0, || std::hint::black_box(1));
        s.time("roundtrip", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.end();
        let children = s.total("encode").total_ns + s.total("roundtrip").total_ns;
        assert_eq!(
            s.total("frame").total_ns - s.total("frame").self_ns,
            children
        );
        assert!(s.total("roundtrip").total_ns >= 2_000_000);
    }

    #[test]
    fn inactive_spans_record_nothing() {
        let mut s = Spans::new(256);
        assert_eq!(s.time("parse", 0, || 7), 7);
        assert_eq!(s.total("parse").count, 0);
    }

    #[test]
    fn chrome_trace_is_balanced_when_the_buffer_fills() {
        let mut s = Spans::new(ROOT_HEADROOM + 8);
        s.set_active(true);
        for id in 0..10 {
            s.begin("frame", id);
            s.time("encode", id, || ());
            s.time("roundtrip", id, || ());
            s.end();
        }
        assert_eq!(s.total("frame").count, 10);
        assert!(s.dropped_roots() > 0);
        let json = s.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        let mut stack = Vec::new();
        for line in json.lines().filter(|l| l.contains("\"ph\"")) {
            let name = line
                .split("\"name\":\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap();
            if line.contains("\"ph\":\"B\"") {
                stack.push(name.to_string());
            } else {
                assert_eq!(stack.pop().as_deref(), Some(name), "unbalanced end");
            }
        }
        assert!(stack.is_empty(), "unclosed spans {stack:?}");
    }
}
