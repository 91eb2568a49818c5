//! Spans recorded from outside the program: one per call into a layer.
//!
//! The traced run wraps every public call it composes a pipeline from in
//! a span named `<layer>.<step>`. Spans live in memory and are written
//! out when the run ends. A layer's self time is its spans' durations
//! minus the part their child spans cover; the root span of a pass has
//! no layer, so its self time is the harness's own glue — the
//! *unaccounted* share the breakdown validator bounds.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Pass (or request) the span belongs to.
    pub pass: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Duration of each span minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur());
        }
    }
    own
}

/// In-memory span recorder for one single-threaded pipeline.
pub struct Tracer {
    /// `false` records nothing and reads no clock: the same pipeline
    /// code then runs untraced, which is what tracing overhead is
    /// measured against.
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records `f` as a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Starts the next pass; later spans carry its number.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Total duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / 1e9
    }

    /// Total duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::dur).sum()
    }

    /// Durations of the spans called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.named(name).map(Span::dur).collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time per layer (the part of a span name before the first
    /// `.`), in nanoseconds. Root spans are reported under `harness`.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let own = self_times(&self.spans);
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            let layer = match s.parent {
                None => "harness",
                Some(_) => s.name.split('.').next().unwrap_or(s.name),
            };
            *out.entry(layer).or_insert(0) += ns;
        }
        out
    }

    /// Share of the root spans' wall time that no layer span covers.
    pub fn unaccounted_frac(&self) -> f64 {
        let own = self_times(&self.spans);
        let (mut wall, mut glue) = (0u64, 0u64);
        for (s, ns) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                wall += s.dur();
                glue += ns;
            }
        }
        if wall == 0 {
            0.0
        } else {
            glue as f64 / wall as f64
        }
    }

    /// The spans as a JSON array (`name, start_ns, end_ns, parent, pass`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.pass
            ));
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 holds a (10..40) and b (50..90); b holds c (60..70).
        let spans = vec![
            span("pass", 0, 100, None),
            span("x.a", 10, 40, Some(0)),
            span("y.b", 50, 90, Some(0)),
            span("x.c", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn layers_sum_to_the_root_wall_time() {
        let mut t = Tracer::new();
        let root = t.enter("pass");
        t.span("embed.walks", || std::hint::black_box(1 + 1));
        let outer = t.enter("core.compare");
        t.span("linkage.decide", || std::hint::black_box(2 + 2));
        t.exit(outer);
        t.exit(root);
        let layers = t.layer_self_ns();
        let wall = t.total_ns("pass");
        assert_eq!(layers.values().sum::<u64>(), wall);
        assert!(layers.contains_key("embed") && layers.contains_key("linkage"));
        let glue = layers["harness"] as f64 / wall as f64;
        assert!((t.unaccounted_frac() - glue).abs() < 1e-12);
        assert_eq!(t.durations_ns("linkage.decide").len(), 1);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let root = t.enter("pass");
        assert_eq!(t.span("embed.walks", || 7), 7);
        t.exit(root);
        assert_eq!(t.to_json(), "[\n]");
        assert_eq!(t.unaccounted_frac(), 0.0);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut t = Tracer::new();
        let root = t.enter("pass");
        t.next_pass();
        t.span("store.wal_append", || ());
        t.exit(root);
        let doc = serve::json::parse_json(&t.to_json()).expect("valid JSON");
        let serve::json::Json::Arr(items) = doc else {
            panic!("array expected")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].str_of("name"), Some("store.wal_append"));
        assert_eq!(items[1].num_of("parent"), Some(0.0));
        assert_eq!(items[1].num_of("pass"), Some(1.0));
        assert_eq!(items[0].get("parent"), Some(&serve::json::Json::Null));
    }
}
