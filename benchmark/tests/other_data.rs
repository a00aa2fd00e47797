//! The runs replay one pinned stream ([`DATA_SEED`]); nothing may depend on
//! it.  Every workload is served from a different stream, through the
//! library, and must still verify against its own oracle.
//!
//! A test file of its own because it redirects `TMPDIR` (where the program's
//! disk backends, durable roots and spill roots land) into `benchmark/out/`,
//! which is only sound while no other test thread reads the environment.

use std::path::Path;

use fsm_benchmark::served::{Instance, Limit};
use fsm_benchmark::workload::{Inputs, DATA_SEED, WORKLOADS};

#[test]
fn another_stream_still_verifies() {
    let temp = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("tmp-test-{}", std::process::id()));
    std::fs::create_dir_all(&temp).expect("temp root");
    std::env::set_var("TMPDIR", &temp);
    for workload in &WORKLOADS {
        let inputs = Inputs::generate(workload, DATA_SEED + 1, 2);
        let mut instance = Instance::start(workload, &inputs, 2).expect("server starts");
        instance.round(&inputs, Limit::cycles(1), None);
        let (attempted, failed, why) = instance.finish(&inputs);
        assert!(attempted > 0, "{}", workload.name);
        assert_eq!(failed, 0, "{}: {why:?}", workload.name);
    }
    let _ = std::fs::remove_dir_all(&temp);
}
