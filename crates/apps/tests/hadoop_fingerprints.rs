//! Literal fingerprints of regular Hadoop jobs, captured before Hadoop
//! attempts moved onto the Hyracks operator frame loop. The Hadoop
//! goldens (`table1`, `table2`, `survival13`) print whole
//! paper-seconds and cannot see a nanosecond move; these pins hold
//! every number a regular job reports, to the nanosecond and the byte.
//! Every run goes through `apps::hadoop_apps::regular` (the `PROBLEMS`
//! crash runs and the tuned runs call it too), so no engine API is
//! named here. A host-side change must not move any of them; a change
//! to the model moves them on purpose and re-captures.
//!
//! The quick pins run in the default suite: the Wikipedia sample and
//! the StackOverflow dump under a tight and a generous configuration,
//! walking sort-buffer spills (IMC), init bytes (MSA), per-record
//! scratch (CRP) and OME retry chains. The full set (all 13 `PROBLEMS`
//! crash runs and the five tuned runs at seed 42) is `#[ignore]`d for
//! release builds.

use std::fmt::Debug;

use apps::hadoop_apps::{
    crp, iib, imc, msa, regular, stackoverflow_splits, wcm, wikipedia_splits, PROBLEMS,
};
use apps::{AggSpec, RunSummary};
use crp::CrpSpec;
use hadoop::HadoopConfig;
use simcore::rng::stable_hash64;

/// Everything a regular job reports, to the nanosecond and the byte.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    elapsed_ns: u64,
    /// Sums over the nodes, for a readable first look at a mismatch.
    gc_ns: u64,
    compute_ns: u64,
    /// Highest per-node heap peak.
    peak_heap: u64,
    /// Fold of every node's `(gc_time, compute_time, peak_heap)`.
    nodes: u64,
    map_attempts: Option<u64>,
    reduce_attempts: Option<u64>,
    spills: Option<u64>,
    /// Fold of the outputs' `Debug` form in output order, or of the
    /// error that killed the job.
    out: u64,
}

fn fold_str(mut h: u64, s: &str) -> u64 {
    for b in s.bytes() {
        h = stable_hash64(h ^ b as u64);
    }
    stable_hash64(h ^ s.len() as u64)
}

fn fingerprint<T: Debug>(run: &RunSummary<T>) -> Fingerprint {
    let r = &run.report;
    let mut nodes = 0xcbf2_9ce4_8422_2325u64;
    for n in &r.nodes {
        for x in [
            n.gc_time.as_nanos(),
            n.compute_time.as_nanos(),
            n.peak_heap.as_u64(),
        ] {
            nodes = stable_hash64(nodes ^ x);
        }
    }
    let counter = |k: &str| r.counters.get(k).map(|&v| v as u64);
    let out = match &run.result {
        Ok(outs) => outs
            .iter()
            .fold(outs.len() as u64, |h, o| fold_str(h, &format!("{o:?}"))),
        Err(e) => fold_str(0, &format!("{e:?}")),
    };
    Fingerprint {
        elapsed_ns: r.elapsed.as_nanos(),
        gc_ns: r.nodes.iter().map(|n| n.gc_time.as_nanos()).sum(),
        compute_ns: r.nodes.iter().map(|n| n.compute_time.as_nanos()).sum(),
        peak_heap: r.peak_heap().as_u64(),
        nodes,
        map_attempts: counter("hadoop.map_attempts"),
        reduce_attempts: counter("hadoop.reduce_attempts"),
        spills: counter("hadoop.spills"),
        out,
    }
}

fn check(got: &[(String, Fingerprint)], want: &[(&str, Fingerprint)]) {
    let moved: Vec<String> = got
        .iter()
        .enumerate()
        .filter(|(i, (name, g))| want.get(*i).map(|(n, w)| (*n, w)) != Some((name.as_str(), g)))
        .map(|(_, (name, g))| format!("(\"{name}\", {g:?}),"))
        .collect();
    assert_eq!(
        got.len(),
        want.len(),
        "pin count; got:\n{}",
        moved.join("\n")
    );
    assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
}

/// A named regular run of `spec`.
fn pin<S: AggSpec>(
    name: &str,
    spec: &S,
    cfg: &HadoopConfig,
    splits: Vec<Vec<S::In>>,
) -> (String, Fingerprint)
where
    S::Out: Debug,
{
    (name.into(), fingerprint(&regular(spec, cfg, splits).0))
}

/// "8GB" task heaps, 4 slots: every problem completes on the samples.
fn generous() -> HadoopConfig {
    HadoopConfig::table1(10, 8192, 8192, 4, 4)
}

/// Small sort buffers on generous heaps: every map attempt spills.
fn spilly() -> HadoopConfig {
    let mut cfg = generous();
    cfg.sort_buffer = simcore::ByteSize::kib(8);
    cfg
}

#[rustfmt::skip]
const QUICK: [(&str, Fingerprint); 7] = [
    ("imc generous", Fingerprint { elapsed_ns: 30831438, gc_ns: 34416816, compute_ns: 305187679, peak_heap: 2796192, nodes: 5240851923328865911, map_attempts: Some(40), reduce_attempts: Some(40), spills: Some(633), out: 3022024616746755108 }),
    ("imc spilly", Fingerprint { elapsed_ns: 30743283, gc_ns: 33569320, compute_ns: 305177903, peak_heap: 2796192, nodes: 9149373947802205604, map_attempts: Some(40), reduce_attempts: Some(40), spills: Some(7557), out: 3022024616746755108 }),
    ("imc table1", Fingerprint { elapsed_ns: 66356488, gc_ns: 1101672404, compute_ns: 54319880, peak_heap: 524288, nodes: 5362992851053367511, map_attempts: Some(160), reduce_attempts: None, spills: Some(0), out: 17211273111488974060 }),
    ("crp generous", Fingerprint { elapsed_ns: 30740686, gc_ns: 11612248, compute_ns: 348216983, peak_heap: 6241224, nodes: 13375569553133872699, map_attempts: Some(40), reduce_attempts: Some(40), spills: Some(660), out: 3022024616746755108 }),
    ("crp table1", Fingerprint { elapsed_ns: 47560296, gc_ns: 449761311, compute_ns: 174482765, peak_heap: 1048576, nodes: 14901722959709080706, map_attempts: Some(91), reduce_attempts: None, spills: Some(380), out: 9612869822870342576 }),
    ("msa generous", Fingerprint { elapsed_ns: 94103429, gc_ns: 22238696, compute_ns: 710108933, peak_heap: 2796128, nodes: 1436941329434121408, map_attempts: Some(232), reduce_attempts: Some(40), spills: Some(662), out: 10608239463387641778 }),
    ("msa table1", Fingerprint { elapsed_ns: 85826940, gc_ns: 2217548763, compute_ns: 562727789, peak_heap: 1048560, nodes: 13451293140905825038, map_attempts: Some(355), reduce_attempts: None, spills: Some(517), out: 6924293961031171373 }),
];

#[test]
fn quick_regular_fingerprints_hold() {
    let wiki = wikipedia_splits(false, 7);
    let posts = stackoverflow_splits(3);
    let got = vec![
        pin("imc generous", &imc::ImcSpec, &generous(), wiki.clone()),
        pin("imc spilly", &imc::ImcSpec, &spilly(), wiki.clone()),
        pin(
            "imc table1",
            &imc::ImcSpec,
            &imc::table1_config(),
            wiki.clone(),
        ),
        pin(
            "crp generous",
            &CrpSpec::default(),
            &generous(),
            wiki.clone(),
        ),
        pin(
            "crp table1",
            &CrpSpec::default(),
            &crp::table1_config(),
            wiki,
        ),
        pin("msa generous", &msa::MsaSpec, &generous(), posts.clone()),
        pin("msa table1", &msa::MsaSpec, &msa::table1_config(), posts),
    ];
    check(&got, &QUICK);
}

#[rustfmt::skip]
const FULL: [(&str, Fingerprint); 18] = [
    ("msa crash", Fingerprint { elapsed_ns: 92332424, gc_ns: 1834385806, compute_ns: 534085685, peak_heap: 1048568, nodes: 12848333215385931270, map_attempts: Some(334), reduce_attempts: None, spills: Some(546), out: 16375308790925983183 }),
    ("imc crash", Fingerprint { elapsed_ns: 66376240, gc_ns: 10776665068, compute_ns: 524351740, peak_heap: 524288, nodes: 12751200915220093663, map_attempts: Some(1568), reduce_attempts: None, spills: Some(0), out: 17651731339244837684 }),
    ("iib crash", Fingerprint { elapsed_ns: 240352821, gc_ns: 8939220354, compute_ns: 4029474595, peak_heap: 1048576, nodes: 14353652664999477900, map_attempts: Some(392), reduce_attempts: Some(240), spills: Some(9616), out: 3432234109510037977 }),
    ("wcm crash", Fingerprint { elapsed_ns: 84699772, gc_ns: 5760115983, compute_ns: 2848481471, peak_heap: 524288, nodes: 1250830518560826943, map_attempts: Some(401), reduce_attempts: None, spills: Some(10396), out: 690356954415599000 }),
    ("crp crash", Fingerprint { elapsed_ns: 49110744, gc_ns: 816158159, compute_ns: 164337141, peak_heap: 1048576, nodes: 8034929452561122482, map_attempts: Some(124), reduce_attempts: None, spills: Some(196), out: 8972961061841213023 }),
    ("sba crash", Fingerprint { elapsed_ns: 137414132, gc_ns: 576139016, compute_ns: 379211083, peak_heap: 1047620, nodes: 10189569671799841845, map_attempts: Some(232), reduce_attempts: Some(48), spills: Some(232), out: 2823355855724693030 }),
    ("lsb crash", Fingerprint { elapsed_ns: 69128768, gc_ns: 11957869608, compute_ns: 478170364, peak_heap: 524288, nodes: 18248630819054617056, map_attempts: Some(1568), reduce_attempts: None, spills: Some(0), out: 8195954525863871983 }),
    ("wpp crash", Fingerprint { elapsed_ns: 48608408, gc_ns: 1369606829, compute_ns: 428369572, peak_heap: 1048480, nodes: 14099911064090391078, map_attempts: Some(601), reduce_attempts: None, spills: Some(109), out: 5242406178914615299 }),
    ("fav crash", Fingerprint { elapsed_ns: 186818643, gc_ns: 1993798560, compute_ns: 1362228954, peak_heap: 524160, nodes: 11214295944617769506, map_attempts: Some(533), reduce_attempts: Some(240), spills: Some(2131), out: 5883532410845962857 }),
    ("spi crash", Fingerprint { elapsed_ns: 522470280, gc_ns: 15450544745, compute_ns: 6821591124, peak_heap: 1048576, nodes: 3616759804190137801, map_attempts: Some(392), reduce_attempts: Some(240), spills: Some(25167), out: 5047765377907511247 }),
    ("hjd crash", Fingerprint { elapsed_ns: 77838408, gc_ns: 2333131655, compute_ns: 373115731, peak_heap: 1048576, nodes: 10421015365044341684, map_attempts: Some(349), reduce_attempts: None, spills: Some(193), out: 2862697326166276868 }),
    ("tfr crash", Fingerprint { elapsed_ns: 53344928, gc_ns: 38400000, compute_ns: 70917065, peak_heap: 742688, nodes: 242530902889284746, map_attempts: Some(33), reduce_attempts: None, spills: Some(1), out: 12533613536818531170 }),
    ("rhm crash", Fingerprint { elapsed_ns: 333365821, gc_ns: 7807226907, compute_ns: 5038444193, peak_heap: 1048576, nodes: 9047481944500781988, map_attempts: Some(392), reduce_attempts: Some(240), spills: Some(16547), out: 11258391035105530177 }),
    ("msa tuned", Fingerprint { elapsed_ns: 1992494265, gc_ns: 62194380, compute_ns: 1459660751, peak_heap: 1029504, nodes: 16025878468462876240, map_attempts: Some(1856), reduce_attempts: Some(180), spills: Some(1911), out: 18412092414338835494 }),
    ("imc tuned", Fingerprint { elapsed_ns: 318557284, gc_ns: 4514586288, compute_ns: 5115034026, peak_heap: 571792, nodes: 9472704260402070329, map_attempts: Some(784), reduce_attempts: Some(60), spills: Some(9833), out: 6373613250184488485 }),
    ("iib tuned", Fingerprint { elapsed_ns: 382992538, gc_ns: 2834862249, compute_ns: 5276338605, peak_heap: 786432, nodes: 5612180211279050856, map_attempts: Some(784), reduce_attempts: Some(600), spills: Some(9833), out: 17701576768585334729 }),
    ("wcm tuned", Fingerprint { elapsed_ns: 642270578, gc_ns: 2961646059, compute_ns: 6430394471, peak_heap: 3145632, nodes: 9497353965457255433, map_attempts: Some(1046), reduce_attempts: Some(900), spills: Some(10906), out: 4881100795727845552 }),
    ("crp tuned", Fingerprint { elapsed_ns: 35806042, gc_ns: 195462499, compute_ns: 354594418, peak_heap: 1048576, nodes: 16527240978469284632, map_attempts: Some(40), reduce_attempts: Some(60), spills: Some(664), out: 8608260111936691613 }),
];

#[test]
#[ignore = "release only: 13 crash runs and five tuned runs over the full dumps"]
fn all_problems_regular_fingerprints_hold() {
    let mut got: Vec<(String, Fingerprint)> = PROBLEMS
        .iter()
        .map(|p| {
            (
                format!("{} crash", p.key),
                fingerprint::<()>(&(p.crash)(42)),
            )
        })
        .collect();
    got.push(("msa tuned".into(), fingerprint(&msa::run_tuned(42).0)));
    got.push(("imc tuned".into(), fingerprint(&imc::run_tuned(42).0)));
    got.push(("iib tuned".into(), fingerprint(&iib::run_tuned(42).0)));
    got.push(("wcm tuned".into(), fingerprint(&wcm::run_tuned(42).0)));
    got.push(("crp tuned".into(), fingerprint(&crp::run_tuned(42).0)));
    check(&got, &FULL);
}
