//! `mvkv-report` — renders benchmark JSON lines (the `MVKV_OUT` output of
//! the figure harnesses) into per-figure tables like those in
//! EXPERIMENTS.md.
//!
//! ```text
//! MVKV_OUT=results.jsonl cargo bench --workspace
//! cargo run --bin mvkv-report -- results.jsonl [figure-prefix]
//! ```
//!
//! Rows are grouped by figure, pivoted approach × x-value. Parsing is
//! line-tolerant: malformed lines are counted and skipped.

use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Row {
    figure: String,
    approach: String,
    x: u64,
    metric: String,
    value: f64,
    unit: String,
}

/// Minimal field extractor for the flat JSON objects the harnesses emit
/// (no nested structures, no escapes in our field values).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next().map(str::trim)
    }
}

fn parse_line(line: &str) -> Option<Row> {
    Some(Row {
        figure: json_field(line, "figure")?.to_string(),
        approach: json_field(line, "approach")?.to_string(),
        x: json_field(line, "x")?.parse().ok()?,
        metric: json_field(line, "metric")?.to_string(),
        value: json_field(line, "value")?.parse().ok()?,
        unit: json_field(line, "unit")?.to_string(),
    })
}

fn render(rows: &[Row]) {
    // figure → metric → approach → x → value
    let mut figures: BTreeMap<(String, String), BTreeMap<String, BTreeMap<u64, f64>>> =
        BTreeMap::new();
    let mut units: BTreeMap<(String, String), String> = BTreeMap::new();
    for r in rows {
        let key = (r.figure.clone(), r.metric.clone());
        figures
            .entry(key.clone())
            .or_default()
            .entry(r.approach.clone())
            .or_default()
            .insert(r.x, r.value);
        units.insert(key, r.unit.clone());
    }
    for ((figure, metric), by_approach) in &figures {
        let unit = units.get(&(figure.clone(), metric.clone())).map(String::as_str).unwrap_or("");
        println!("\n## {figure} — {metric} [{unit}]");
        let mut xs: Vec<u64> = by_approach.values().flat_map(|m| m.keys().copied()).collect();
        xs.sort_unstable();
        xs.dedup();
        print!("{:<18}", "approach \\ x");
        for x in &xs {
            print!("{x:>12}");
        }
        println!();
        for (approach, by_x) in by_approach {
            print!("{approach:<18}");
            for x in &xs {
                match by_x.get(x) {
                    Some(v) if *v >= 1000.0 => print!("{v:>12.0}"),
                    Some(v) => print!("{v:>12.4}"),
                    None => print!("{:>12}", "-"),
                }
            }
            println!();
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        eprintln!("usage: mvkv-report <results.jsonl> [figure-prefix]");
        return ExitCode::from(2);
    };
    let filter = args.get(1).map(String::as_str);
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mvkv-report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    let mut skipped = 0usize;
    for line in content.lines().filter(|l| !l.trim().is_empty()) {
        match parse_line(line) {
            Some(row) => {
                if filter.is_none_or(|f| row.figure.starts_with(f)) {
                    rows.push(row);
                }
            }
            None => skipped += 1,
        }
    }
    if rows.is_empty() {
        eprintln!("mvkv-report: no matching rows in {path} ({skipped} unparseable)");
        return ExitCode::FAILURE;
    }
    render(&rows);
    if skipped > 0 {
        eprintln!("\n({skipped} unparseable lines skipped)");
    }
    ExitCode::SUCCESS
}
