//! `fsm-bench [SCALE] [--threads N] [--json-out PATH]`: runs every section of
//! the paper runner (see the library docs), prints each as markdown, writes
//! the JSON report to PATH, and exits 1 naming each section whose check
//! failed (2 on a bad argument).

use fsm_bench::engine;
use fsm_bench::paper::{self, Setup};
use fsm_bench::report::{render_json, Section};

const USAGE: &str = "usage: fsm-bench [SCALE] [--threads N] [--json-out PATH]\n  \
                     SCALE: stream scale, a positive integer (default 1)\n  \
                     --threads N: workers of the scaling and delta sections (default 4, 0 = all cores)";

/// What the command line asked for.
struct Args {
    scale: usize,
    threads: usize,
    json_out: Option<String>,
}

/// Parses the arguments after the program name; `None` on anything else
/// than a positive scale, `--threads N` and `--json-out PATH`.
fn parse(mut args: impl Iterator<Item = String>) -> Option<Args> {
    let (mut scale, mut threads, mut json_out) = (None, 4, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => threads = args.next()?.parse().ok()?,
            "--json-out" => json_out = Some(args.next()?),
            _ if scale.is_none() => scale = Some(arg.parse().ok().filter(|&n: &usize| n > 0)?),
            _ => return None,
        }
    }
    if threads == 0 {
        // Resolve "all cores" up front so the report names the real count.
        threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    Some(Args {
        scale: scale.unwrap_or(1),
        threads,
        json_out,
    })
}

fn main() {
    let Some(args) = parse(std::env::args().skip(1)) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let setup = Setup::new(args.scale, args.threads);
    let mut sections = Vec::new();
    let mut emit = |section: Section| {
        print!("{}", section.markdown());
        sections.push(section);
    };
    for section in paper::suite(&setup) {
        emit(section);
    }
    emit(paper::e4(&setup));
    emit(paper::e5(&setup));
    emit(paper::a1(&setup));
    emit(paper::a2(&setup));
    emit(paper::a3(&setup));
    emit(paper::a4(&setup));
    emit(engine::snapshot(&setup));
    emit(engine::scaling(&setup));
    emit(engine::delta(&setup));
    emit(engine::kernels());

    if let Some(path) = &args.json_out {
        std::fs::write(path, render_json(args.scale, args.threads, &sections))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {} sections to {path}", sections.len());
    }
    let failed: Vec<&str> = sections
        .iter()
        .filter(|s| s.verdict.is_err())
        .map(|s| s.name)
        .collect();
    if !failed.is_empty() {
        eprintln!("FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
}
