//! Hand-rolled argument parsing for the `fsm` command-line tool (keeps the
//! workspace within the approved dependency set — no clap).

use fsm_core::Algorithm;
use fsm_storage::StorageBackend;
use fsm_types::{FsmError, MinSup, Result};

/// Input file formats the CLI understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// FIMI transaction format: one transaction per line, integer item ids.
    Fimi,
    /// N-Triples linked-data format; resource-linking triples become edges.
    NTriples,
}

/// Output condensation selected by the user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputKind {
    /// Every frequent connected collection.
    #[default]
    All,
    /// Closed collections only.
    Closed,
    /// Maximal collections only.
    Maximal,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Path of the input file.
    pub input: String,
    /// Input format (inferred from the extension when not given).
    pub format: InputFormat,
    /// Mining algorithm.
    pub algorithm: Algorithm,
    /// Minimum support.
    pub minsup: MinSup,
    /// Window size in batches.
    pub window: usize,
    /// Transactions per batch.
    pub batch_size: usize,
    /// Optional cap on pattern cardinality.
    pub max_len: Option<usize>,
    /// Optional top-k selection applied after mining.
    pub top_k: Option<usize>,
    /// Output condensation.
    pub output: OutputKind,
    /// Emit CSV instead of human-readable lines.
    pub csv: bool,
    /// For N-Triples input: group triples into one graph per N statements
    /// (`None` means group by subject).
    pub group_size: Option<usize>,
    /// Worker threads for the vertical algorithms (0 = all cores).
    pub threads: usize,
    /// Mine every window slide on a worker thread (epoch snapshots) while
    /// ingest continues on the main thread.
    pub concurrent: bool,
    /// Maintain the frequent-pattern set across window slides (delta mining)
    /// instead of re-mining every window from scratch.
    pub delta: bool,
    /// DSMatrix storage backend (the paper's default keeps the window on
    /// disk).
    pub backend: StorageBackend,
    /// Byte budget of the decoded-chunk cache the disk backend reads
    /// through (0 disables it).
    pub cache_budget: usize,
    /// Durable-directory root: WAL + checkpoints land here and the run
    /// becomes crash-recoverable (`None` keeps the window volatile).
    pub durable_dir: Option<String>,
    /// Resume from the durable directory instead of starting fresh.
    pub recover: bool,
    /// Checkpoint interval in window slides for the durable layer.
    pub checkpoint_every: usize,
    /// Abort the process (simulating a crash) after ingesting this many
    /// batches — for recovery testing only.
    pub crash_after: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            input: String::new(),
            format: InputFormat::Fimi,
            algorithm: Algorithm::DirectVertical,
            minsup: MinSup::Relative(0.05),
            window: 5,
            batch_size: 1000,
            max_len: None,
            top_k: None,
            output: OutputKind::All,
            csv: false,
            group_size: None,
            threads: 1,
            concurrent: false,
            delta: false,
            backend: StorageBackend::default(),
            cache_budget: 0,
            durable_dir: None,
            recover: false,
            checkpoint_every: fsm_core::DurabilityConfig::DEFAULT_CHECKPOINT_EVERY,
            crash_after: None,
        }
    }
}

/// Usage text printed for `--help` and on parse errors.
pub const USAGE: &str = "\
fsm — frequent connected subgraph mining from graph streams

USAGE:
  fsm mine --input <FILE> [OPTIONS]

OPTIONS:
  --input <FILE>        FIMI (.dat/.txt) or N-Triples (.nt) input file
  --format <fimi|ntriples>   override format inference
  --algorithm <NAME>    multi-tree | single-tree | top-down | vertical |
                        direct-vertical        (default: direct-vertical)
  --minsup <VALUE>      absolute count (e.g. 20) or fraction (e.g. 0.05)
  --window <N>          sliding window size in batches     (default: 5)
  --batch-size <N>      transactions per batch             (default: 1000)
  --max-len <N>         cap on pattern cardinality
  --threads <N>         worker threads for the vertical algorithms
                        (0 = all cores, default: 1)
  --concurrent          freeze an epoch snapshot after every ingested batch
                        and mine it on a worker thread while ingest continues
                        (the printed output is identical to a sequential run)
  --delta               maintain the frequent-pattern set across window
                        slides (per-segment support deltas + border
                        re-expansion) instead of re-mining each window;
                        the printed output is identical to a full re-mine
  --backend <disk|memory>   where the DSMatrix keeps the window
                        (default: disk, the paper's space posture)
  --cache-budget <BYTES>    decoded-chunk cache budget for the disk
                        backend: chunks that fit are not re-read from disk
                        by later mines (it buys page reads, never assembly);
                        0 disables it, 'unlimited' holds the whole window
                        (default: 0; rejected with --backend memory)
  --durable-dir <DIR>   make the run crash-recoverable: WAL every batch and
                        checkpoint the window into DIR (disk backend only)
  --recover             resume from DIR instead of starting fresh: rebuild
                        the pre-crash window (newest valid checkpoint + WAL
                        replay) and skip the already-ingested input prefix
  --checkpoint-every <N>    slides between checkpoints    (default: 8)
  --crash-after <N>     abort() after ingesting N batches — simulates a
                        crash for recovery testing (requires --durable-dir)
  --top-k <N>           report only the k best-supported patterns
  --closed | --maximal  condensed output
  --csv                 emit CSV (edges,support) instead of text
  --group-size <N>      N-Triples only: one graph per N linking statements
                        (default: one graph per subject)
  --help                show this message
";

/// Parses the CLI arguments (excluding the program name).
pub fn parse(args: &[String]) -> Result<Options> {
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        return Err(FsmError::config(USAGE));
    }
    if args[0] != "mine" {
        return Err(FsmError::config(format!(
            "unknown command '{}'\n\n{USAGE}",
            args[0]
        )));
    }
    let mut options = Options::default();
    let mut format_given = false;
    let mut iter = args[1..].iter().peekable();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<String> {
            iter.next()
                .cloned()
                .ok_or_else(|| FsmError::config(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--input" => options.input = value("--input")?,
            "--format" => {
                format_given = true;
                options.format = match value("--format")?.as_str() {
                    "fimi" => InputFormat::Fimi,
                    "ntriples" | "nt" => InputFormat::NTriples,
                    other => return Err(FsmError::config(format!("unknown format '{other}'"))),
                };
            }
            "--algorithm" => {
                options.algorithm = match value("--algorithm")?.as_str() {
                    "multi-tree" => Algorithm::MultiTree,
                    "single-tree" => Algorithm::SingleTree,
                    "top-down" => Algorithm::TopDown,
                    "vertical" => Algorithm::Vertical,
                    "direct-vertical" | "direct" => Algorithm::DirectVertical,
                    other => return Err(FsmError::config(format!("unknown algorithm '{other}'"))),
                };
            }
            "--minsup" => {
                let raw = value("--minsup")?;
                options.minsup = parse_minsup(&raw)?;
            }
            "--window" => options.window = parse_number(&value("--window")?, "--window")?,
            "--batch-size" => {
                options.batch_size = parse_number(&value("--batch-size")?, "--batch-size")?
            }
            "--max-len" => options.max_len = Some(parse_number(&value("--max-len")?, "--max-len")?),
            "--threads" => options.threads = parse_number(&value("--threads")?, "--threads")?,
            "--concurrent" => options.concurrent = true,
            "--delta" => options.delta = true,
            "--backend" => {
                options.backend = match value("--backend")?.as_str() {
                    "disk" => StorageBackend::DiskTemp,
                    "memory" | "mem" => StorageBackend::Memory,
                    other => return Err(FsmError::config(format!("unknown backend '{other}'"))),
                };
            }
            "--cache-budget" => {
                let raw = value("--cache-budget")?;
                options.cache_budget = if raw == "unlimited" || raw == "max" {
                    usize::MAX
                } else {
                    parse_number(&raw, "--cache-budget")?
                };
            }
            "--durable-dir" => options.durable_dir = Some(value("--durable-dir")?),
            "--recover" => options.recover = true,
            "--checkpoint-every" => {
                options.checkpoint_every =
                    parse_number(&value("--checkpoint-every")?, "--checkpoint-every")?
            }
            "--crash-after" => {
                options.crash_after = Some(parse_number(&value("--crash-after")?, "--crash-after")?)
            }
            "--top-k" => options.top_k = Some(parse_number(&value("--top-k")?, "--top-k")?),
            "--group-size" => {
                options.group_size = Some(parse_number(&value("--group-size")?, "--group-size")?)
            }
            "--closed" => options.output = OutputKind::Closed,
            "--maximal" => options.output = OutputKind::Maximal,
            "--csv" => options.csv = true,
            "--help" | "-h" => return Err(FsmError::config(USAGE)),
            other => {
                return Err(FsmError::config(format!(
                    "unknown option '{other}'\n\n{USAGE}"
                )))
            }
        }
    }
    if options.input.is_empty() {
        return Err(FsmError::config(format!("--input is required\n\n{USAGE}")));
    }
    if !format_given && (options.input.ends_with(".nt") || options.input.ends_with(".ntriples")) {
        options.format = InputFormat::NTriples;
    }
    if options.window == 0 || options.batch_size == 0 {
        return Err(FsmError::config(
            "--window and --batch-size must be positive",
        ));
    }
    if options.delta && options.concurrent {
        // Delta state lives with the writer and advances one epoch at a
        // time; handing frozen snapshots to a detached worker would either
        // share that state across threads or silently fall back to full
        // re-mines.  Refuse the combination instead of guessing.
        return Err(FsmError::config(
            "--delta and --concurrent are mutually exclusive: delta mining \
             maintains its pattern state on the ingest thread",
        ));
    }
    if options.cache_budget > 0 && matches!(options.backend, StorageBackend::Memory) {
        // Silently ignoring the budget (the memory backend has no chunk
        // cache) hides a misconfiguration: the user asked for a bounded
        // cache but got a fully-resident window.
        return Err(FsmError::config(
            "--cache-budget only applies to --backend disk; the memory backend \
             keeps the whole window resident and has no chunk cache to budget",
        ));
    }
    if options.durable_dir.is_some() && matches!(options.backend, StorageBackend::Memory) {
        return Err(FsmError::config(
            "--durable-dir only applies to --backend disk; the memory backend \
             has no durable artifacts to recover from",
        ));
    }
    if options.recover && options.durable_dir.is_none() {
        return Err(FsmError::config("--recover requires --durable-dir"));
    }
    if options.crash_after.is_some() && options.durable_dir.is_none() {
        return Err(FsmError::config(
            "--crash-after requires --durable-dir (a simulated crash without \
             durability would just lose the run)",
        ));
    }
    if options.checkpoint_every == 0 {
        return Err(FsmError::config("--checkpoint-every must be positive"));
    }
    Ok(options)
}

fn parse_minsup(raw: &str) -> Result<MinSup> {
    if let Ok(count) = raw.parse::<u64>() {
        return Ok(MinSup::absolute(count));
    }
    match raw.parse::<f64>() {
        Ok(fraction) if fraction > 0.0 && fraction <= 1.0 => Ok(MinSup::relative(fraction)),
        _ => Err(FsmError::config(format!(
            "--minsup must be a positive integer or a fraction in (0, 1], got '{raw}'"
        ))),
    }
}

fn parse_number(raw: &str, flag: &str) -> Result<usize> {
    raw.parse()
        .map_err(|_| FsmError::config(format!("{flag} expects a number, got '{raw}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn minimal_invocation_uses_defaults() {
        let options = parse(&to_args("mine --input data.dat")).unwrap();
        assert_eq!(options.input, "data.dat");
        assert_eq!(options.format, InputFormat::Fimi);
        assert_eq!(options.algorithm, Algorithm::DirectVertical);
        assert_eq!(options.window, 5);
        assert_eq!(options.output, OutputKind::All);
        assert!(!options.csv);
        assert!(!options.concurrent, "concurrent mining is opt-in");
    }

    #[test]
    fn concurrent_composes_with_every_backend_and_durability() {
        for args in [
            "mine --input x --concurrent",
            "mine --input x --concurrent --backend memory",
            "mine --input x --concurrent --backend disk --cache-budget unlimited",
            "mine --input x --concurrent --durable-dir /tmp/d --recover",
        ] {
            let options = parse(&to_args(args)).unwrap();
            assert!(options.concurrent, "{args}");
        }
    }

    #[test]
    fn every_flag_is_parsed() {
        let options = parse(&to_args(
            "mine --input log.nt --algorithm vertical --minsup 0.1 --window 3 \
             --batch-size 50 --max-len 4 --top-k 10 --closed --csv --group-size 6 \
             --threads 4 --concurrent --backend disk --cache-budget 65536",
        ))
        .unwrap();
        assert!(matches!(options.backend, StorageBackend::DiskTemp));
        assert!(options.concurrent);
        assert_eq!(options.cache_budget, 65536);
        assert_eq!(options.format, InputFormat::NTriples, "inferred from .nt");
        assert_eq!(options.algorithm, Algorithm::Vertical);
        assert_eq!(options.minsup, MinSup::Relative(0.1));
        assert_eq!(options.window, 3);
        assert_eq!(options.batch_size, 50);
        assert_eq!(options.max_len, Some(4));
        assert_eq!(options.top_k, Some(10));
        assert_eq!(options.output, OutputKind::Closed);
        assert!(options.csv);
        assert_eq!(options.group_size, Some(6));
        assert_eq!(options.threads, 4);
    }

    #[test]
    fn absolute_and_relative_minsup() {
        assert_eq!(
            parse(&to_args("mine --input x --minsup 20"))
                .unwrap()
                .minsup,
            MinSup::Absolute(20)
        );
        assert_eq!(
            parse(&to_args("mine --input x --minsup 0.5"))
                .unwrap()
                .minsup,
            MinSup::Relative(0.5)
        );
        assert!(parse(&to_args("mine --input x --minsup -3")).is_err());
        assert!(parse(&to_args("mine --input x --minsup 1.5")).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&[]).is_err());
        assert!(parse(&to_args("--help")).is_err());
        assert!(parse(&to_args("frobnicate --input x")).is_err());
        assert!(parse(&to_args("mine")).is_err(), "missing --input");
        assert!(parse(&to_args("mine --input x --algorithm nope")).is_err());
        assert!(parse(&to_args("mine --input x --window 0")).is_err());
        assert!(parse(&to_args("mine --input x --format weird")).is_err());
        assert!(
            parse(&to_args("mine --input x --window")).is_err(),
            "missing value"
        );
        assert!(parse(&to_args("mine --input x --bogus 1")).is_err());
    }

    #[test]
    fn backend_and_cache_budget_defaults_and_errors() {
        let options = parse(&to_args("mine --input x")).unwrap();
        assert!(matches!(options.backend, StorageBackend::DiskTemp));
        assert_eq!(options.cache_budget, 0, "cache is opt-in");
        let unlimited = parse(&to_args("mine --input x --cache-budget unlimited")).unwrap();
        assert_eq!(unlimited.cache_budget, usize::MAX);
        let disk = parse(&to_args("mine --input x --backend disk")).unwrap();
        assert!(matches!(disk.backend, StorageBackend::DiskTemp));
        assert!(parse(&to_args("mine --input x --backend floppy")).is_err());
        assert!(parse(&to_args("mine --input x --cache-budget lots")).is_err());
    }

    #[test]
    fn cache_budget_with_memory_backend_is_rejected_not_ignored() {
        // Flag order must not matter, and the error must name the conflict.
        for args in [
            "mine --input x --backend memory --cache-budget 65536",
            "mine --input x --cache-budget 65536 --backend memory",
            "mine --input x --backend mem --cache-budget unlimited",
        ] {
            let err = parse(&to_args(args)).unwrap_err();
            assert!(err.to_string().contains("--cache-budget"), "{args}: {err}");
        }
        // An explicit zero budget is the no-cache default and stays legal.
        let zero = parse(&to_args("mine --input x --backend memory --cache-budget 0")).unwrap();
        assert_eq!(zero.cache_budget, 0);
        assert!(matches!(zero.backend, StorageBackend::Memory));
    }

    #[test]
    fn delta_composes_with_backends_but_not_with_concurrent() {
        assert!(
            !parse(&to_args("mine --input x")).unwrap().delta,
            "delta mining is opt-in"
        );
        for args in [
            "mine --input x --delta",
            "mine --input x --delta --backend memory",
            "mine --input x --delta --backend disk --cache-budget unlimited",
            "mine --input x --delta --durable-dir /tmp/d --recover",
            "mine --input x --delta --threads 4 --minsup 0.1",
        ] {
            assert!(parse(&to_args(args)).unwrap().delta, "{args}");
        }
        // Flag order must not matter, and the error must name the conflict.
        for args in [
            "mine --input x --delta --concurrent",
            "mine --input x --concurrent --delta",
        ] {
            let err = parse(&to_args(args)).unwrap_err();
            assert!(err.to_string().contains("--delta"), "{args}: {err}");
        }
    }

    #[test]
    fn explicit_format_overrides_inference() {
        let options = parse(&to_args("mine --input data.nt --format fimi")).unwrap();
        assert_eq!(options.format, InputFormat::Fimi);
    }

    #[test]
    fn durability_flags_are_parsed() {
        let options = parse(&to_args(
            "mine --input x --durable-dir /tmp/d --checkpoint-every 4 --crash-after 7",
        ))
        .unwrap();
        assert_eq!(options.durable_dir.as_deref(), Some("/tmp/d"));
        assert_eq!(options.checkpoint_every, 4);
        assert_eq!(options.crash_after, Some(7));
        assert!(!options.recover);

        let resumed = parse(&to_args("mine --input x --durable-dir /tmp/d --recover")).unwrap();
        assert!(resumed.recover);

        let defaults = parse(&to_args("mine --input x")).unwrap();
        assert_eq!(defaults.durable_dir, None);
        assert_eq!(
            defaults.checkpoint_every,
            fsm_core::DurabilityConfig::DEFAULT_CHECKPOINT_EVERY
        );
    }

    #[test]
    fn durability_flag_conflicts_are_rejected() {
        for args in [
            // Durability needs something on disk to make durable.
            "mine --input x --backend memory --durable-dir /tmp/d",
            "mine --input x --durable-dir /tmp/d --backend mem",
            // Recovery and crash simulation without a durable dir are no-ops
            // the user surely did not mean.
            "mine --input x --recover",
            "mine --input x --crash-after 3",
            // A zero checkpoint interval would checkpoint never... or always;
            // neither reading is useful.
            "mine --input x --durable-dir /tmp/d --checkpoint-every 0",
        ] {
            assert!(parse(&to_args(args)).is_err(), "{args}");
        }
    }
}
