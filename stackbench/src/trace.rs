//! In-memory span recorder for the traced run.
//!
//! Spans are pushed to a `Vec` as they close and written once at exit.
//! A pass span is the parent of the layer spans opened inside it.
//! Attribution spans time the off-switch calls a workload makes after a
//! pass span has closed, so they never inflate it.

use std::time::Instant;

use sudc_par::json::Json;

/// One timed interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub pass: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attribution: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

/// Handle of an open span; inert when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Switches recording on or off for the spans opened next.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            pass: self.pass,
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            attribution: false,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer, name);
        let out = f();
        self.end(open);
        out
    }

    /// Times an off-switch call made after the pass span closed, returning
    /// its result and wall time in seconds. Recorded as a top-level
    /// attribution span of the current pass.
    pub fn attribute<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        debug_assert!(self.open.is_empty(), "attribution runs outside every span");
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        if self.enabled {
            self.spans.push(Span {
                id: self.spans.len(),
                parent: None,
                pass: self.pass,
                layer,
                name,
                start_ns: start,
                end_ns: end,
                attribution: true,
            });
        }
        (out, (end - start) as f64 * 1e-9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::object()
                        .with("id", s.id)
                        .with("parent", s.parent.map_or(Json::Null, Json::from))
                        .with("pass", s.pass)
                        .with("layer", s.layer)
                        .with("name", s.name)
                        .with("start_ns", s.start_ns as f64)
                        .with("end_ns", s.end_ns as f64)
                        .with("attribution", s.attribution)
                })
                .collect(),
        )
    }
}

/// Wall time one traced span adds, in seconds: the mean over many empty
/// spans on a scratch tracer. Multiplied by the spans a traced pass
/// records, it gives the tracing overhead without having to resolve it
/// against the pass-to-pass noise of the host.
pub fn span_cost_s() -> f64 {
    const SPANS: u32 = 20_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..SPANS {
        let open = t.begin("bench", "empty");
        t.end(open);
    }
    start.elapsed().as_secs_f64() / f64::from(SPANS)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            pass: 1,
            layer: "test",
            name: "test",
            start_ns,
            end_ns,
            attribution: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children_once() {
        // pass 0..100 holds siblings 10..30 and 25..50 (overlapping by 5)
        // and 60..90; the 60..90 child holds a grandchild 70..80.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 25, 50),
            span(3, Some(0), 60, 90),
            span(4, Some(3), 70, 80),
            span(5, None, 200, 210),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st, vec![100 - 40 - 30, 20, 25, 20, 10, 10]);
        // The self times of a tree partition its root's duration, up to
        // the overlap between siblings.
        let tree: u64 = st[..5].iter().sum();
        assert_eq!(tree, 100 + 5);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times_attribution() {
        let mut t = Tracer::new(false);
        let open = t.begin("bench", "pass");
        t.end(open);
        let (v, secs) = t.attribute("sim", "run", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let pass = t.begin("bench", "pass");
        t.span("router", "route_stream", || ());
        t.end(pass);
        let _ = t.attribute("router", "generate_block", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[2].attribution && s.iter().all(|x| x.pass == 3));
        let json = t.to_json().to_string_compact();
        assert!(json.starts_with(r#"[{"id":0,"parent":null,"pass":3,"layer":"bench""#));
    }

    #[test]
    fn a_span_costs_microseconds_at_most() {
        let cost = span_cost_s();
        assert!(cost > 0.0 && cost < 1e-5, "{cost}");
    }
}
