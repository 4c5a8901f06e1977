//! §6.1's design ablation: ITask proper vs (1) the naïve kill-restart
//! baseline (terminate a task and reprocess the partition from scratch)
//! and (2) random victim selection instead of the priority rules. The
//! paper reports ITask up to 5x faster than the naïve techniques.
//!
//! Usage: `ablation [--jobs N]`.

use apps::agg::itask_factories;
use apps::hyracks_apps::wc::WcSpec;
use apps::hyracks_apps::HyracksParams;
use itask_bench::{cols, print_table, sweep, Cell};
use itask_core::{InterruptMode, IrsConfig, SerializeMode, VictimPolicy};
use simcore::ByteSize;
use workloads::webmap::WebmapSize;

fn run_with(
    size: WebmapSize,
    heap_mib: u64,
    mode: InterruptMode,
    policy: VictimPolicy,
    ser: SerializeMode,
    hover_pct: u8,
) -> apps::RunSummary<apps::OutKv> {
    // Heaps chosen per dataset so that scheduler interrupts genuinely
    // fire: under milder pressure the proactive serialization machinery
    // absorbs everything and the interrupt policies never run.
    let params = HyracksParams {
        heap_per_node: ByteSize::mib(heap_mib),
        ..HyracksParams::default()
    };
    let mut cluster = params.cluster();
    let spec = hyracks::ItaskJobSpec {
        name: "wc-ablation".into(),
        irs: IrsConfig {
            max_parallelism: apps::hyracks_apps::CORES,
            victim_policy: policy,
            interrupt_mode: mode,
            serialize_mode: ser,
            serialize_free_pct: hover_pct,
            ..IrsConfig::default()
        },
        granularity: params.granularity,
    };
    let factories = itask_factories(WcSpec, apps::hyracks_apps::BUCKETS);
    let inputs = apps::hyracks_apps::webmap_inputs(size, &params, |r| r);
    let (report, result) = hyracks::run_itask::<
        workloads::webmap::AdjRecord,
        apps::CountMid,
        apps::OutKv,
    >(&mut cluster, inputs, &spec, &factories);
    apps::RunSummary { report, result }
}

/// The five ablation configurations, in column order.
const CONFIGS: [(InterruptMode, VictimPolicy, SerializeMode, u8, &str); 5] = [
    (
        InterruptMode::Cooperative,
        VictimPolicy::Rules,
        SerializeMode::Disk,
        40,
        "full",
    ),
    (
        InterruptMode::KillRestart,
        VictimPolicy::Rules,
        SerializeMode::Disk,
        40,
        "kill",
    ),
    (
        InterruptMode::Cooperative,
        VictimPolicy::Random,
        SerializeMode::Disk,
        40,
        "random",
    ),
    (
        InterruptMode::Cooperative,
        VictimPolicy::Rules,
        SerializeMode::MemoryBytes,
        40,
        "membytes",
    ),
    // The paper's literal pseudocode serializes only down to M%:
    // no proactive hover, no write-behind headroom.
    (
        InterruptMode::Cooperative,
        VictimPolicy::Rules,
        SerializeMode::Disk,
        10,
        "lazy",
    ),
];

fn main() {
    let mut h = sweep::harness("ablation");
    h.end_flags(&[]);

    let sizes = [
        (WebmapSize::G10, 3u64),
        (WebmapSize::G14, 4),
        (WebmapSize::G72, 12),
    ];
    let header = cols(&[
        "dataset",
        "ITask (rules, disk)",
        "kill-restart",
        "random victim",
        "in-memory bytes",
        "hover=M% (lazy)",
        "vs kill",
        "vs random",
    ]);

    // 3 datasets × 5 configurations, all independent.
    let mut specs: Vec<sweep::RunSpec<Cell>> = Vec::new();
    for (size, heap) in sizes {
        for (mode, policy, ser, hover, key) in CONFIGS {
            specs.push(sweep::spec(
                format!("ablation {} {key}", size.label()),
                move || Cell::from_summary(&run_with(size, heap, mode, policy, ser, hover)),
            ));
        }
    }
    let mut cells = h.run(specs).into_iter();

    let mut rows = Vec::new();
    for (size, heap) in sizes {
        let full = cells.next().expect("full cell");
        let kill = cells.next().expect("kill cell");
        let random = cells.next().expect("random cell");
        let membytes = cells.next().expect("membytes cell");
        let lazy = cells.next().expect("lazy cell");
        let speed = |other: &Cell| {
            if full.ok && other.ok {
                format!(
                    "{:.2}x",
                    other.elapsed.as_secs_f64() / full.elapsed.as_secs_f64()
                )
            } else if full.ok {
                "inf (baseline failed)".into()
            } else {
                "-".into()
            }
        };
        rows.push(vec![
            format!("{} ({}GB heap)", size.label(), heap),
            full.show(),
            kill.show(),
            random.show(),
            membytes.show(),
            lazy.show(),
            speed(&kill),
            speed(&random),
        ]);
    }
    print_table(
        "Ablation (§6.1 + §5.3): ITask vs naive interrupt designs, and disk vs in-memory serialization (WC)",
        &header,
        &rows,
    );
    h.finish();
}
