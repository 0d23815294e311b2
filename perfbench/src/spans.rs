//! In-memory spans recorded by the benchmark around each layer's public
//! call, and the self times derived from them.

use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `log.decode`.
    pub name: &'static str,
    /// The program run this span belongs to (shared by all its spans).
    pub run: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans. A span's parent is whichever span is open when it
/// begins.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, run: u64) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            run,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, run: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, run);
        let out = f();
        (out, self.end(id))
    }

    /// Each span's duration minus the time its direct children cover.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Writes every span as one JSON document: `{"spans": [{name, run,
    /// parent, start_ns, end_ns, self_ns}, …]}`.
    pub fn write_json(&self, mut out: impl Write) -> std::io::Result<()> {
        let own = self.self_secs();
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{sep}",
                s.name,
                s.run,
                s.start_ns,
                s.end_ns,
                (own[i] * 1e9).round() as i64,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            run: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new();
        s.spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.inner", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        let own: Vec<i64> = s
            .self_secs()
            .iter()
            .map(|x| (x * 1e9).round() as i64)
            .collect();
        assert_eq!(own, vec![30, 20, 10, 40]);
        // Self times partition the root's duration.
        assert_eq!(own.iter().sum::<i64>(), 100);
    }

    #[test]
    fn nesting_follows_open_spans() {
        let mut s = Spans::new();
        let root = s.begin("root", 7);
        let ((), _) = s.time("child", 7, || ());
        s.end(root);
        assert_eq!(s.spans[1].parent, Some(root));
        assert_eq!(s.spans[1].run, 7);
        assert_eq!(s.spans[root].parent, None);
        let mut json = Vec::new();
        s.write_json(&mut json).unwrap();
        let text = String::from_utf8(json).unwrap();
        assert!(
            text.contains("\"name\": \"child\", \"run\": 7, \"parent\": 0"),
            "{text}"
        );
    }
}
