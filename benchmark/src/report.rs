//! Result formatting: the metric table a person reads, the result file
//! under `out/`, and the one-line JSON object a driver reads.

use std::path::PathBuf;
use std::process::Command;

use crate::layers::median;

/// Exact counts read from `JobReport`/`ServiceReport`/`SmrOutcome`, with
/// their units, in the order they are printed. A workload that does not
/// reach a layer reports 0 for it.
pub const COUNTS: [(&str, &str); 26] = [
    ("itask-core.interrupts", "count"),
    ("itask-core.emergency_interrupts", "count"),
    ("itask-core.grows", "count"),
    ("itask-core.serializations", "count"),
    ("itask-core.deserializations", "count"),
    ("itask-core.lugcs", "count"),
    ("itask-core.reclaimed_bytes", "bytes"),
    ("simmem.minor_gcs", "count"),
    ("simmem.full_gcs", "count"),
    ("simmem.useless_gcs", "count"),
    ("simmem.peak_heap_bytes", "bytes"),
    ("simstore.io_stall_vtime_ms", "sim_ms"),
    ("hadoop.map_attempts", "count"),
    ("hadoop.reduce_attempts", "count"),
    ("hadoop.spills", "count"),
    ("simserve.arrivals", "count"),
    ("simserve.rounds", "count"),
    ("simserve.shed_deadline", "count"),
    ("simserve.shed_queue", "count"),
    ("simserve.shed_retry", "count"),
    ("simserve.peak_queued", "count"),
    ("simserve.useful_share", "ratio"),
    ("simsmr.commits", "count"),
    ("simsmr.view_changes", "count"),
    ("simsmr.deflations", "count"),
    ("simsmr.full_gcs", "count"),
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// `(min, max, n)` of the samples behind a median. With fewer than
    /// twenty samples no percentile has ten samples beyond it, so none
    /// is reported.
    pub samples: Option<(f64, f64, usize)>,
}

impl Metric {
    pub fn value(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: None,
        }
    }

    /// The median of `samples`.
    pub fn timing(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Metric {
            name,
            unit,
            value: median(samples.to_vec()),
            samples: Some((min, max, samples.len())),
        }
    }
}

/// The machine a result was measured on.
pub struct Host {
    nproc: usize,
    cpu: String,
    rustc: String,
    commit: String,
    load_start: f64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

impl Host {
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            load_start: load_average(),
        }
    }
}

pub struct Report<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    pub passes: usize,
    /// Engine calls made over the timed passes, and how many ended in
    /// an outcome the workload is sized never to produce.
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub regime_ok: bool,
    pub metrics: Vec<Metric>,
    pub host: Host,
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as JSON, with every digit it was measured to.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_out(file: &str, content: &str) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join(file);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, content))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

impl Report<'_> {
    /// Every metric has a well-formed name, a unit and a finite value.
    pub fn validate(&self) -> Result<(), String> {
        for m in &self.metrics {
            let ok_name = !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !ok_name || m.unit.is_empty() {
                return Err(format!("metric {:?} needs a plain name and a unit", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} was not measured: {}", m.name, m.value));
            }
        }
        Ok(())
    }

    /// Prints the table, writes the result file, and prints the result
    /// object as the last line of standard output.
    pub fn emit(&self) -> Result<(), String> {
        let mode = if self.traced { "traced" } else { "untraced" };
        let load_end = load_average();
        let noisy = self.host.load_start > 1.0;
        println!(
            "== {} seed {} ({mode}{}, {} passes{})",
            self.workload,
            self.seed,
            if self.smoke { ", smoke" } else { "" },
            self.passes,
            if noisy { ", NOISY host" } else { "" },
        );
        for m in &self.metrics {
            let spread = m.samples.map_or(String::new(), |(min, max, n)| {
                format!("  (median of {n}: min {min:.6}, max {max:.6})")
            });
            println!("{:<42} {:>18.6} {}{spread}", m.name, m.value, m.unit);
        }
        println!(
            "{:<42} {:>18}",
            "sim_digest",
            format!("{:016x}", self.sim_digest)
        );

        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        let metrics = format!("{{{}}}", metrics.join(", "));
        let samples: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                let (min, max, n) = m.samples?;
                Some(format!(
                    "{}: {{\"min\": {}, \"max\": {}, \"n\": {n}}}",
                    json_string(m.name),
                    json_number(min),
                    json_number(max)
                ))
            })
            .collect();
        let h = &self.host;
        let file = format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"mode\": \"{mode}\",\n  \"smoke\": {},\n  \"passes\": {},\n  \"correct\": true,\n  \"attempted\": {},\n  \"failed\": {},\n  \"regime_ok\": {},\n  \"sim_digest\": \"{:016x}\",\n  \"noisy\": {noisy},\n  \"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"load_1m_start\": {}, \"load_1m_end\": {}}},\n  \"samples\": {{{}}},\n  \"metrics\": {metrics}\n}}\n",
            json_string(self.workload),
            self.seed,
            self.smoke,
            self.passes,
            self.attempted,
            self.failed,
            self.regime_ok,
            self.sim_digest,
            h.nproc,
            json_string(&h.cpu),
            json_string(&h.rustc),
            json_string(&h.commit),
            json_number(h.load_start),
            json_number(load_end),
            samples.join(", "),
        );
        write_out(&format!("{}.{mode}.json", self.workload), &file)?;
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.attempted, self.failed
        );
        Ok(())
    }
}
