//! The Hyracks evaluation grid (§6.2: Figures 9–11, Tables 5–6): the
//! five programs, their datasets, the regular engine's thread sweep,
//! and the rule that picks the regular version's best configuration.

use apps::hyracks_apps::{gr, hj, hs, ii, wc, HyracksParams};
use workloads::tpch::TpchScale;
use workloads::webmap::WebmapSize;

use crate::Cell;

/// The regular engine's thread-count sweep.
pub const THREADS: [usize; 5] = [1, 2, 4, 6, 8];

/// The default Hyracks configuration at `threads` threads.
pub fn params(threads: usize) -> HyracksParams {
    HyracksParams {
        threads,
        ..HyracksParams::default()
    }
}

/// One input of the Hyracks evaluation.
#[derive(Clone, Copy, Debug)]
pub enum Dataset {
    /// A Yahoo! webmap graph (WC, HS, II).
    Webmap(WebmapSize),
    /// A TPC-H scale (HJ, GR).
    Tpch(TpchScale),
}

impl Dataset {
    /// The paper's label, e.g. `"14GB"` or `"30x"`.
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Webmap(size) => size.label(),
            Dataset::Tpch(scale) => scale.label(),
        }
    }

    fn webmap(self) -> WebmapSize {
        match self {
            Dataset::Webmap(size) => size,
            Dataset::Tpch(_) => panic!("{} is not a webmap dataset", self.label()),
        }
    }

    fn tpch(self) -> TpchScale {
        match self {
            Dataset::Tpch(scale) => scale,
            Dataset::Webmap(_) => panic!("{} is not a TPC-H dataset", self.label()),
        }
    }
}

/// The webmap datasets, smallest first, with their paper sizes in GB.
const WEBMAP: [(Dataset, f64); 6] = [
    (Dataset::Webmap(WebmapSize::G3), 3.0),
    (Dataset::Webmap(WebmapSize::G10), 10.0),
    (Dataset::Webmap(WebmapSize::G14), 14.0),
    (Dataset::Webmap(WebmapSize::G27), 27.0),
    (Dataset::Webmap(WebmapSize::G44), 44.0),
    (Dataset::Webmap(WebmapSize::G72), 72.0),
];

/// Table 4's TPC-H scales, smallest first, with their paper sizes in GB.
const TPCH: [(Dataset, f64); 6] = [
    (Dataset::Tpch(TpchScale::X10), 9.8),
    (Dataset::Tpch(TpchScale::X20), 19.7),
    (Dataset::Tpch(TpchScale::X30), 29.7),
    (Dataset::Tpch(TpchScale::X50), 49.6),
    (Dataset::Tpch(TpchScale::X100), 99.8),
    (Dataset::Tpch(TpchScale::X150), 150.4),
];

/// One Hyracks program of the evaluation.
pub struct Program {
    /// Command-line selector and run-label key, e.g. `"wc"`.
    pub key: &'static str,
    /// Table name, e.g. `"WC"`.
    pub name: &'static str,
    /// Figure title, e.g. `"WC (word count)"`.
    pub title: &'static str,
    /// The program's datasets, smallest first, with their paper sizes
    /// in GB.
    pub datasets: &'static [(Dataset, f64)],
    regular: fn(Dataset, &HyracksParams) -> Cell,
    itask: fn(Dataset, &HyracksParams) -> Cell,
}

impl Program {
    /// Runs the program on `dataset`, as an ITask job or a regular one.
    pub fn run(&self, dataset: Dataset, itask: bool, params: &HyracksParams) -> Cell {
        if itask {
            (self.itask)(dataset, params)
        } else {
            (self.regular)(dataset, params)
        }
    }
}

/// The five programs, in table order.
pub static PROGRAMS: [Program; 5] = [
    Program {
        key: "wc",
        name: "WC",
        title: "WC (word count)",
        datasets: &WEBMAP,
        regular: |d, p| Cell::from_summary(&wc::run_regular(d.webmap(), p)),
        itask: |d, p| Cell::from_summary(&wc::run_itask(d.webmap(), p)),
    },
    Program {
        key: "hs",
        name: "HS",
        title: "HS (heap sort)",
        datasets: &WEBMAP,
        regular: |d, p| Cell::from_summary(&hs::run_regular(d.webmap(), p)),
        itask: |d, p| Cell::from_summary(&hs::run_itask(d.webmap(), p)),
    },
    Program {
        key: "ii",
        name: "II",
        title: "II (inverted index)",
        datasets: &WEBMAP,
        regular: |d, p| Cell::from_summary(&ii::run_regular(d.webmap(), p)),
        itask: |d, p| Cell::from_summary(&ii::run_itask(d.webmap(), p)),
    },
    Program {
        key: "hj",
        name: "HJ",
        title: "HJ (hash join)",
        datasets: &TPCH,
        regular: |d, p| Cell::from_summary(&hj::run_regular(d.tpch(), p)),
        itask: |d, p| Cell::from_summary(&hj::run_itask(d.tpch(), p)),
    },
    Program {
        key: "gr",
        name: "GR",
        title: "GR (group by)",
        datasets: &TPCH,
        regular: |d, p| Cell::from_summary(&gr::run_regular(d.tpch(), p)),
        itask: |d, p| Cell::from_summary(&gr::run_itask(d.tpch(), p)),
    },
];

/// The regular version's best configuration, from one cell per
/// [`THREADS`] entry taken in order: the first fastest run that
/// completed, with its thread count; if none completed, the first run
/// and `None`.
pub fn best_regular(cells: &mut impl Iterator<Item = Cell>) -> (Option<usize>, Cell) {
    let runs: Vec<(usize, Cell)> = THREADS
        .iter()
        .map(|&t| (t, cells.next().expect("regular cell")))
        .collect();
    let fastest = runs
        .iter()
        .filter(|(_, cell)| cell.ok)
        .min_by_key(|(_, cell)| cell.elapsed);
    match fastest {
        Some((t, cell)) => (Some(*t), cell.clone()),
        None => (None, runs[0].1.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{ByteSize, SimDuration};

    fn cell(ok: bool, ms: u64) -> Cell {
        Cell {
            ok,
            elapsed: SimDuration::from_millis(ms),
            gc: SimDuration::ZERO,
            peak: ByteSize(ms),
        }
    }

    #[test]
    fn best_regular_is_the_first_fastest_completed_run() {
        let cells = [(false, 1), (true, 9), (true, 5), (true, 5), (false, 2)];
        let mut it = cells.iter().map(|&(ok, ms)| cell(ok, ms));
        let (t, best) = best_regular(&mut it);
        assert_eq!(t, Some(4));
        assert_eq!(best.peak, ByteSize(5));
        assert!(it.next().is_none(), "one cell per thread count");
    }

    #[test]
    fn best_regular_falls_back_to_the_first_run() {
        let mut it = [7, 3, 9, 1, 4].into_iter().map(|ms| cell(false, ms));
        let (t, best) = best_regular(&mut it);
        assert_eq!(t, None);
        assert_eq!(best.elapsed, SimDuration::from_millis(7));
    }

    #[test]
    fn datasets_are_smallest_first() {
        for p in &PROGRAMS {
            let gb: Vec<f64> = p.datasets.iter().map(|&(_, gb)| gb).collect();
            assert!(gb.windows(2).all(|w| w[0] < w[1]), "{}", p.key);
        }
        let web: Vec<&str> = WebmapSize::ALL.iter().rev().map(|s| s.label()).collect();
        let ours: Vec<&str> = WEBMAP.iter().map(|(d, _)| d.label()).collect();
        assert_eq!(ours, web);
        let tpch: Vec<&str> = TpchScale::TABLE4.iter().map(|s| s.label()).collect();
        let ours: Vec<&str> = TPCH.iter().map(|(d, _)| d.label()).collect();
        assert_eq!(ours, tpch);
    }
}
