//! Plain-text report helpers (markdown tables, unit formatting, the host block).

/// One row of a report table.
pub type Row = Vec<String>;

/// Renders a markdown table with the given header and rows.
pub fn markdown_table(header: &[&str], rows: &[Row]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in header {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// Formats a byte count with a binary unit suffix.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Formats a duration in milliseconds with three decimals.
pub fn millis(duration: std::time::Duration) -> String {
    format!("{:.3}", duration.as_secs_f64() * 1000.0)
}

/// The host block a committed `BENCH_*.json` carries so its numbers can be
/// compared: visible cores, the git commit measured (suffixed `-dirty` when
/// the tree holds uncommitted changes on top of it) and the compiler, as a
/// JSON object (`"unknown"` where `git` / `rustc` cannot be asked).
pub fn host_json() -> String {
    let ask = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().replace('"', "'"))
    };
    format!(
        "{{\"cores\": {}, \"kernel_tier\": \"{}\", \"commit\": \"{}\", \"rustc\": \"{}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        fsm_storage::bitvec::kernel_tier(),
        ask("git", &["describe", "--always", "--dirty", "--abbrev=40"]),
        ask("rustc", &["--version"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_has_header_separator_and_rows() {
        let table = markdown_table(&["algo", "ms"], &[vec!["vertical".into(), "1.2".into()]]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("algo"));
        assert!(lines[1].contains("---"));
        assert!(lines[2].contains("vertical"));
    }

    #[test]
    fn host_block_names_cores_commit_and_compiler() {
        let host = host_json();
        assert!(host.starts_with("{\"cores\": ") && host.ends_with("\"}"));
        assert!(host.contains("\"commit\": \"") && host.contains("\"rustc\": \""));
        let tier = format!(
            "\"kernel_tier\": \"{}\"",
            fsm_storage::bitvec::kernel_tier()
        );
        assert!(host.contains(&tier), "{host}");
    }

    #[test]
    fn human_bytes_scales_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn millis_formats_with_three_decimals() {
        assert_eq!(millis(std::time::Duration::from_micros(1500)), "1.500");
    }
}
