//! The runner's one report shape: every section fills [`Row`]s, its check
//! turns them into a [`Verdict`], and the same rows print as a markdown table
//! and write as JSON objects beside the host block.

use std::fmt;
use std::time::Duration;

/// One cell of a [`Row`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A label: workload, miner, kernel.
    Text(String),
    /// An exact count.
    Int(u64),
    /// A byte count: printed with a binary unit, written in bytes.
    Bytes(u64),
    /// A measured or derived quantity, printed and written with this many
    /// decimals.
    Num(f64, usize),
    /// A fact a check reads (printed `yes` / `NO`).
    Flag(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => f.write_str(s),
            Value::Int(n) => write!(f, "{n}"),
            Value::Bytes(n) => f.write_str(&human_bytes(*n)),
            Value::Num(x, decimals) => write!(f, "{x:.decimals$}"),
            Value::Flag(b) => f.write_str(if *b { "yes" } else { "NO" }),
        }
    }
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Text(s) => json_string(s),
            Value::Int(n) | Value::Bytes(n) => n.to_string(),
            Value::Num(x, _) if !x.is_finite() => "null".to_string(),
            Value::Num(..) => self.to_string(),
            Value::Flag(b) => b.to_string(),
        }
    }
}

/// One row of a section's table: named cells in column order.  A section's
/// check reads its rows back by column name, so what it judges is exactly
/// what the report prints and persists.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(pub Vec<(&'static str, Value)>);

impl Row {
    /// Appends a label cell.
    pub fn text(mut self, key: &'static str, s: impl Into<String>) -> Self {
        self.0.push((key, Value::Text(s.into())));
        self
    }

    /// Appends a count cell.
    pub fn int(mut self, key: &'static str, n: u64) -> Self {
        self.0.push((key, Value::Int(n)));
        self
    }

    /// Appends a byte-count cell.
    pub fn bytes(mut self, key: &'static str, n: u64) -> Self {
        self.0.push((key, Value::Bytes(n)));
        self
    }

    /// Appends a quantity cell with `decimals` decimals.
    pub fn num(mut self, key: &'static str, x: f64, decimals: usize) -> Self {
        self.0.push((key, Value::Num(x, decimals)));
        self
    }

    /// Appends a duration cell in milliseconds with three decimals.
    pub fn ms(self, key: &'static str, d: Duration) -> Self {
        self.num(key, d.as_secs_f64() * 1e3, 3)
    }

    /// Appends a flag cell.
    pub fn flag(mut self, key: &'static str, b: bool) -> Self {
        self.0.push((key, Value::Flag(b)));
        self
    }

    /// The cell named `key`.
    ///
    /// # Panics
    /// If the row has no such column: a check reading a column its section
    /// never fills is a bug in this crate.
    pub fn get(&self, key: &str) -> &Value {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("row has no column `{key}`: {self:?}"))
    }

    /// The numeric cell `key` (a flag reads 0 or 1).
    pub fn number(&self, key: &str) -> f64 {
        match self.get(key) {
            Value::Int(n) | Value::Bytes(n) => *n as f64,
            Value::Num(x, _) => *x,
            Value::Flag(b) => f64::from(u8::from(*b)),
            Value::Text(s) => panic!("column `{key}` holds the label {s:?}, not a number"),
        }
    }
}

/// The rows of `rows` grouped by their cell in column `key`, in order of
/// first appearance.
pub(crate) fn groups<'a>(rows: &'a [Row], key: &str) -> Vec<(&'a Value, Vec<&'a Row>)> {
    let mut out: Vec<(&Value, Vec<&Row>)> = Vec::new();
    for row in rows {
        let value = row.get(key);
        match out.iter_mut().find(|(v, _)| *v == value) {
            Some((_, members)) => members.push(row),
            None => out.push((value, vec![row])),
        }
    }
    out
}

/// The row of `group` whose `miner` column reads `miner`.
///
/// # Panics
/// If there is none: every section fills a row per miner it checks.
pub(crate) fn pick<'a>(group: &[&'a Row], miner: &str) -> &'a Row {
    group
        .iter()
        .find(|row| matches!(row.get("miner"), Value::Text(m) if m == miner))
        .unwrap_or_else(|| panic!("no row for miner {miner}"))
}

/// A check that did not hold, naming its section.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The section whose check failed.
    pub section: &'static str,
    /// What the rows showed.
    pub reason: String,
}

/// A check's outcome: the claim it verified, or the failure.
pub type Verdict = Result<String, Failure>;

/// The failed verdict of `section`.
pub(crate) fn fail(section: &'static str, reason: String) -> Verdict {
    Err(Failure { section, reason })
}

/// One section of the report: its rows, the findings derived from them and
/// its check's verdict.
#[derive(Debug, Clone)]
pub struct Section {
    /// Key in the JSON report and the name a failure reports.
    pub name: &'static str,
    /// Markdown heading.
    pub title: String,
    /// The measured rows.
    pub rows: Vec<Row>,
    /// Findings and context derived from the rows, printed under the table.
    pub notes: Vec<String>,
    /// What the section's check made of `rows`.
    pub verdict: Verdict,
}

impl Section {
    /// Builds a section whose verdict is `check` applied to its rows.
    pub fn checked(
        name: &'static str,
        title: impl Into<String>,
        rows: Vec<Row>,
        notes: Vec<String>,
        check: fn(&[Row]) -> Verdict,
    ) -> Self {
        let verdict = check(&rows);
        Self {
            name,
            title: title.into(),
            rows,
            notes,
            verdict,
        }
    }

    /// Heading, table, notes and verdict line.
    pub fn markdown(&self) -> String {
        let header: Vec<&str> = self
            .rows
            .first()
            .map(|row| row.0.iter().map(|(k, _)| *k).collect())
            .unwrap_or_default();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.0.iter().map(|(_, v)| v.to_string()).collect())
            .collect();
        let mut out = format!("# {}\n\n{}\n", self.title, markdown_table(&header, &cells));
        for note in &self.notes {
            out.push_str(&format!("{note}\n\n"));
        }
        let (outcome, text) = self.outcome();
        out.push_str(&format!("verdict {}: {outcome} — {text}\n\n", self.name));
        out
    }

    /// `("holds", the claim)` or `("FAILED", the reason)`.
    fn outcome(&self) -> (&'static str, &str) {
        match &self.verdict {
            Ok(claim) => ("holds", claim),
            Err(failure) => ("FAILED", &failure.reason),
        }
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row
                    .0
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {}", v.json()))
                    .collect();
                format!("      {{{}}}", cells.join(", "))
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        format!(
            "  \"{}\": {{\n    \"title\": {},\n    \"passed\": {},\n    \"verdict\": {},\n    \
             \"notes\": [{}],\n    \"rows\": [\n{}\n    ]\n  }}",
            self.name,
            json_string(&self.title),
            self.verdict.is_ok(),
            json_string(self.outcome().1),
            notes.join(", "),
            rows.join(",\n")
        )
    }
}

/// The JSON report (hand-rolled: the workspace carries no serde): the host
/// block, the run's scale and threads, then one object per section with its
/// title, verdict, notes and rows.
pub fn render_json(scale: usize, threads: usize, sections: &[Section]) -> String {
    let mut entries = vec![
        format!("  \"host\": {}", host_json()),
        format!("  \"scale\": {scale}"),
        format!("  \"threads\": {threads}"),
    ];
    entries.extend(sections.iter().map(Section::json));
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders a markdown table with the given header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
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
pub fn millis(duration: Duration) -> String {
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

    #[test]
    fn one_row_prints_as_markdown_and_writes_as_json() {
        let row = Row::default()
            .text("miner", "dstree \"baseline\"")
            .int("patterns", 109)
            .bytes("memory", 2048)
            .ms("mine_ms", Duration::from_micros(1500))
            .flag("agrees", false);
        let failing = |_: &[Row]| fail("demo", "it broke".into());
        let section = Section::checked("demo", "Demo", vec![row], vec!["a note".into()], failing);
        let markdown = section.markdown();
        assert!(markdown.contains("| miner | patterns | memory | mine_ms | agrees |"));
        assert!(markdown.contains("| dstree \"baseline\" | 109 | 2.0 KiB | 1.500 | NO |"));
        assert!(markdown.contains("verdict demo: FAILED — it broke"));
        let json = render_json(1, 2, &[section]);
        assert!(json.contains("\"scale\": 1,\n  \"threads\": 2,"), "{json}");
        assert!(json.contains("\"passed\": false"), "{json}");
        assert!(
            json.contains(
                "{\"miner\": \"dstree \\\"baseline\\\"\", \"patterns\": 109, \"memory\": 2048, \
                 \"mine_ms\": 1.500, \"agrees\": false}"
            ),
            "{json}"
        );
    }

    #[test]
    fn groups_keep_first_appearance_order() {
        let rows: Vec<Row> = ["b", "a", "b"]
            .iter()
            .enumerate()
            .map(|(i, w)| Row::default().text("workload", *w).int("i", i as u64))
            .collect();
        let grouped = groups(&rows, "workload");
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0.to_string(), "b");
        assert_eq!(grouped[0].1.len(), 2);
        assert_eq!(grouped[1].0.to_string(), "a");
    }
}
