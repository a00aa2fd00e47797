//! Experiment E2 (§5, second experiment): space efficiency.
//!
//! Expected ordering (paper):
//!   memory(DSTree mining) > memory(multi-tree) > memory(single-tree ≈
//!   top-down) > memory(vertical ≈ direct),
//! with the DSTable and DSMatrix keeping their capture payload on disk while
//! the DSTree keeps everything in memory — and the DSMatrix's bits taking
//! less disk than the DSTable's 8-byte pointer entries.

use fsm_bench::report::{human_bytes, markdown_table};
use fsm_bench::{run_algorithm_on, run_baselines_on, Workload};
use fsm_core::Algorithm;
use fsm_storage::StorageBackend;
use fsm_types::MinSup;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1usize);
    let window = 5;
    let max_len = Some(4);

    println!("# Experiment E2 — space efficiency\n");

    for workload in Workload::standard_suite(scale) {
        let minsup = match workload.kind {
            fsm_bench::WorkloadKind::Dense => MinSup::relative(0.15),
            _ => MinSup::relative(0.03),
        };
        println!("## {} ({})\n", workload.name, workload.stats());
        let mut rows = Vec::new();
        let mut peaks = std::collections::BTreeMap::new();
        let mut on_disk = std::collections::BTreeMap::new();

        for run in run_baselines_on(&workload, window, minsup, max_len).expect("baselines") {
            peaks.insert(run.label.clone(), run.peak_mining_bytes);
            on_disk.insert(run.label.clone(), run.capture_on_disk_bytes);
            rows.push(vec![
                run.label.clone(),
                human_bytes(run.capture_resident_bytes as u64),
                human_bytes(run.capture_on_disk_bytes),
                human_bytes(run.peak_mining_bytes as u64),
                run.patterns.to_string(),
            ]);
        }
        for algorithm in Algorithm::ALL {
            let run = run_algorithm_on(
                &workload,
                algorithm,
                window,
                minsup,
                max_len,
                StorageBackend::DiskTemp,
            )
            .expect("run");
            peaks.insert(run.label.clone(), run.peak_mining_bytes);
            on_disk.insert(run.label.clone(), run.capture_on_disk_bytes);
            rows.push(vec![
                run.label.clone(),
                human_bytes(run.capture_resident_bytes as u64),
                human_bytes(run.capture_on_disk_bytes),
                human_bytes(run.peak_mining_bytes as u64),
                run.patterns.to_string(),
            ]);
        }

        println!(
            "{}",
            markdown_table(
                &[
                    "miner",
                    "capture resident",
                    "capture on disk",
                    "peak mining working set",
                    "patterns"
                ],
                &rows
            )
        );

        // Check the paper's ordering claims on the mining working set.
        let get = |k: &str| peaks.get(k).copied().unwrap_or(0);
        let multi = get("multi-tree");
        let single = get("single-tree").max(get("top-down"));
        let vertical = get("vertical").max(get("direct-vertical"));
        println!(
            "ordering check: multi-tree ({}) >= single-tree/top-down ({}) >= vertical/direct ({}) : {}\n",
            human_bytes(multi as u64),
            human_bytes(single as u64),
            human_bytes(vertical as u64),
            if multi >= single && single >= vertical {
                "holds"
            } else {
                "VIOLATED"
            }
        );

        // And the paper's disk claim, in exact bytes: every algorithm run
        // captures the same DSMatrix.
        let matrix = Algorithm::ALL
            .iter()
            .map(|a| on_disk.get(a.key()).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let table = on_disk.get("dstable-baseline").copied().unwrap_or(0);
        println!(
            "disk check: DSMatrix on disk ({matrix} B) < DSTable on disk ({table} B) : {}\n",
            if matrix < table { "holds" } else { "VIOLATED" }
        );
    }
}
