//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans live in memory and are written out once, when the run ends
//! (`out/<workload>.trace.json`). A disabled recorder runs the wrapped
//! call and nothing else, which is what "tracing off" means for the
//! end-to-end run.

use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder was made.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Timed pass the span belongs to (0 = set-up).
    pub pass: u32,
}

pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Seconds spent in spans called `name` during `pass`.
    pub fn total_s(&self, name: &str, pass: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.pass == pass)
            .fold(0.0, |sum, s| sum + (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Every child span lies inside its parent and shares its pass.
    pub fn check_nesting(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let p = &self.spans[p];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.pass != p.pass {
                    return Err(format!("span {} escapes its parent {}", s.name, p.name));
                }
            }
        }
        Ok(())
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"pass\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.pass,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push(']');
        out
    }
}
