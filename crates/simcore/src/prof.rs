//! A lightweight in-simulator profiler: cheap named counters keyed by
//! pipeline stage, aggregated per run.
//!
//! The deterministic part of every counter — event counts, work units
//! (tuples or bytes) and *virtual-time* nanoseconds — is a commutative
//! sum over relaxed atomics, so totals are byte-identical no matter how
//! a sweep's simulations are spread across worker threads (`--jobs 1`
//! and `--jobs 8` produce the same snapshot). Host wall-clock is
//! inherently nondeterministic, so it lives in an *opt-in sidecar*:
//! [`wall_timer`] guards measure nothing unless [`enable`] was called
//! with `wall = true`, and wall columns are rendered only by
//! [`render_sidecar`], never by the deterministic [`render`].
//!
//! The profiler is process-global and disabled by default; every
//! recording entry point is a single relaxed load when disabled, cheap
//! enough to leave in simulator hot paths unconditionally.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::time::SimDuration;

/// The instrumented pipeline stages, in breakdown-table order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Workload generation (webmap/tpch/words block synthesis).
    Generate = 0,
    /// Tuple processing in `itask_core::scale_loop`: operators and ITasks.
    Map = 1,
    /// Handing emitted tuples to the connector, grouped by bucket.
    EmitFlush = 2,
    /// Splitting record batches into granularity-bounded frames.
    FrameChunk = 3,
    /// Routing bucketed outputs across the fabric.
    Shuffle = 4,
    /// Draining aggregation state in key order.
    AggDrain = 5,
    /// Stop-the-world collections on the simulated heaps.
    Gc = 6,
}

/// Every stage, in rendering order.
pub const STAGES: [Stage; 7] = [
    Stage::Generate,
    Stage::Map,
    Stage::EmitFlush,
    Stage::FrameChunk,
    Stage::Shuffle,
    Stage::AggDrain,
    Stage::Gc,
];

impl Stage {
    /// Stable lower-case name used in breakdowns and JSON sidecars.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Generate => "generate",
            Stage::Map => "map",
            Stage::EmitFlush => "emit-flush",
            Stage::FrameChunk => "frame-chunk",
            Stage::Shuffle => "shuffle",
            Stage::AggDrain => "agg-drain",
            Stage::Gc => "gc",
        }
    }

    /// What one "unit" means for this stage (breakdown header).
    pub fn unit(self) -> &'static str {
        match self {
            Stage::Generate => "tuples",
            Stage::Map => "tuples",
            Stage::EmitFlush => "tuples",
            Stage::FrameChunk => "tuples",
            Stage::Shuffle => "bytes",
            Stage::AggDrain => "tuples",
            Stage::Gc => "bytes-reclaimed",
        }
    }
}

const N: usize = STAGES.len();

#[derive(Default)]
struct Cell {
    events: AtomicU64,
    units: AtomicU64,
    vtime_ns: AtomicU64,
    wall_ns: AtomicU64,
}

struct Registry {
    enabled: AtomicBool,
    wall: AtomicBool,
    cells: [Cell; N],
}

static REGISTRY: Registry = Registry {
    enabled: AtomicBool::new(false),
    wall: AtomicBool::new(false),
    cells: [
        Cell::new(),
        Cell::new(),
        Cell::new(),
        Cell::new(),
        Cell::new(),
        Cell::new(),
        Cell::new(),
    ],
};

impl Cell {
    const fn new() -> Self {
        Cell {
            events: AtomicU64::new(0),
            units: AtomicU64::new(0),
            vtime_ns: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
        }
    }
}

/// Turns recording on. With `wall = true` the wall-clock sidecar is
/// armed too; without it, [`wall_timer`] guards are inert.
pub fn enable(wall: bool) {
    REGISTRY.wall.store(wall, Ordering::Relaxed);
    REGISTRY.enabled.store(true, Ordering::Relaxed);
}

/// Turns recording off (counters keep their values until [`reset`]).
pub fn disable() {
    REGISTRY.enabled.store(false, Ordering::Relaxed);
    REGISTRY.wall.store(false, Ordering::Relaxed);
}

/// Whether recording is on.
#[inline]
pub fn is_enabled() -> bool {
    REGISTRY.enabled.load(Ordering::Relaxed)
}

/// Zeroes every counter.
pub fn reset() {
    for c in &REGISTRY.cells {
        c.events.store(0, Ordering::Relaxed);
        c.units.store(0, Ordering::Relaxed);
        c.vtime_ns.store(0, Ordering::Relaxed);
        c.wall_ns.store(0, Ordering::Relaxed);
    }
}

/// Records `events` occurrences covering `units` work units.
#[inline]
pub fn count(stage: Stage, events: u64, units: u64) {
    if !is_enabled() {
        return;
    }
    let c = &REGISTRY.cells[stage as usize];
    c.events.fetch_add(events, Ordering::Relaxed);
    c.units.fetch_add(units, Ordering::Relaxed);
}

/// Attributes virtual time to a stage (deterministic: simulated cost,
/// not host time).
#[inline]
pub fn vtime(stage: Stage, d: SimDuration) {
    if !is_enabled() {
        return;
    }
    REGISTRY.cells[stage as usize]
        .vtime_ns
        .fetch_add(d.as_nanos(), Ordering::Relaxed);
}

/// A drop guard adding host wall-clock to a stage's sidecar column.
/// Inert (no clock read at all) unless `enable(true)` armed the sidecar.
pub struct WallTimer {
    stage: Stage,
    start: Option<Instant>,
}

/// Starts a wall-clock guard for `stage`.
#[inline]
pub fn wall_timer(stage: Stage) -> WallTimer {
    let armed = is_enabled() && REGISTRY.wall.load(Ordering::Relaxed);
    WallTimer {
        stage,
        start: if armed { Some(Instant::now()) } else { None },
    }
}

impl Drop for WallTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            REGISTRY.cells[self.stage as usize]
                .wall_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// One stage's aggregated counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSnapshot {
    /// The stage.
    pub stage: Stage,
    /// Occurrences recorded.
    pub events: u64,
    /// Work units recorded (see [`Stage::unit`]).
    pub units: u64,
    /// Virtual-time nanoseconds attributed (deterministic).
    pub vtime_ns: u64,
    /// Host wall-clock nanoseconds (sidecar; zero unless opted in).
    pub wall_ns: u64,
}

/// Snapshots every stage, in [`STAGES`] order.
pub fn snapshot() -> Vec<StageSnapshot> {
    STAGES
        .iter()
        .map(|&stage| {
            let c = &REGISTRY.cells[stage as usize];
            StageSnapshot {
                stage,
                events: c.events.load(Ordering::Relaxed),
                units: c.units.load(Ordering::Relaxed),
                vtime_ns: c.vtime_ns.load(Ordering::Relaxed),
                wall_ns: c.wall_ns.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Renders the deterministic columns only (events, units, virtual ms) —
/// byte-identical across reruns and worker counts.
pub fn render(snap: &[StageSnapshot]) -> String {
    let mut out = String::new();
    out.push_str("stage        events       units            vtime_ms\n");
    for s in snap {
        out.push_str(&format!(
            "{:<12} {:<12} {:<16} {:.3}\n",
            s.stage.name(),
            s.events,
            format!("{} {}", s.units, s.stage.unit()),
            s.vtime_ns as f64 / 1e6,
        ));
    }
    out
}

/// Renders the full sidecar including the nondeterministic wall-clock
/// column (host CPU-seconds summed across sweep workers).
pub fn render_sidecar(snap: &[StageSnapshot]) -> String {
    let total_wall: u64 = snap.iter().map(|s| s.wall_ns).sum();
    let mut out = String::new();
    out.push_str("stage        events       units            vtime_ms     wall_ms   wall%\n");
    for s in snap {
        let pct = if total_wall > 0 {
            s.wall_ns as f64 * 100.0 / total_wall as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<12} {:<12} {:<16} {:<12.3} {:<9.1} {:.1}\n",
            s.stage.name(),
            s.events,
            format!("{} {}", s.units, s.stage.unit()),
            s.vtime_ns as f64 / 1e6,
            s.wall_ns as f64 / 1e6,
            pct,
        ));
    }
    out
}

/// Serializes a snapshot as a JSON object keyed by stage name, with
/// deterministic fields first and the wall sidecar last.
pub fn to_json(snap: &[StageSnapshot]) -> String {
    let mut out = String::from("{\n");
    for (i, s) in snap.iter().enumerate() {
        let sep = if i + 1 == snap.len() { "" } else { "," };
        out.push_str(&format!(
            "  \"{}\": {{\"events\": {}, \"units\": {}, \"vtime_ns\": {}, \"wall_ns\": {}}}{sep}\n",
            s.stage.name(),
            s.events,
            s.units,
            s.vtime_ns,
            s.wall_ns,
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Prof state is process-global; every test serializes on this lock
    // and resets before measuring.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_recording_is_a_noop() {
        let _g = LOCK.lock().unwrap();
        disable();
        reset();
        count(Stage::Map, 5, 100);
        vtime(Stage::Gc, SimDuration::from_millis(3));
        let snap = snapshot();
        assert!(snap.iter().all(|s| s.events == 0 && s.vtime_ns == 0));
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(false);
        count(Stage::EmitFlush, 1, 300);
        count(Stage::EmitFlush, 2, 700);
        vtime(Stage::Shuffle, SimDuration::from_micros(5));
        disable();
        let snap = snapshot();
        let flush = &snap[Stage::EmitFlush as usize];
        assert_eq!((flush.events, flush.units), (3, 1000));
        assert_eq!(snap[Stage::Shuffle as usize].vtime_ns, 5_000);
        reset();
        assert!(snapshot().iter().all(|s| s.events == 0));
    }

    #[test]
    fn wall_timer_only_measures_when_opted_in() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(false); // deterministic only
        {
            let _t = wall_timer(Stage::Map);
            std::hint::black_box(0u64);
        }
        assert_eq!(snapshot()[Stage::Map as usize].wall_ns, 0);
        enable(true);
        {
            let _t = wall_timer(Stage::Map);
            let mut acc = 1u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(acc);
        }
        disable();
        assert!(snapshot()[Stage::Map as usize].wall_ns > 0);
        reset();
    }

    #[test]
    fn render_is_deterministic_and_wall_free() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(true);
        count(Stage::Generate, 2, 50);
        {
            let _t = wall_timer(Stage::Generate);
        }
        disable();
        let snap = snapshot();
        let det = render(&snap);
        assert!(det.contains("generate"));
        assert!(!det.contains("wall"));
        let side = render_sidecar(&snap);
        assert!(side.contains("wall_ms"));
        let json = to_json(&snap);
        assert!(json.contains("\"generate\": {\"events\": 2"));
        reset();
    }
}
