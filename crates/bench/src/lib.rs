//! The experiment harness: one driver per experiment in DESIGN.md's
//! index (X3–X19), plus the substrate primitive costs. Drivers return
//! structured rows; the `report` binary renders them as the tables
//! recorded in EXPERIMENTS.md.
//!
//! Real-time numbers (nanoseconds) are machine-dependent; **virtual**-time
//! and byte numbers are exact and reproduce bit-identically from the
//! fixed seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixtures;
pub mod substrate;
pub mod x10_transfer;
pub mod x11_attacks;
pub mod x12_isolation;
pub mod x13_recovery;
pub mod x14_credentials;
pub mod x15_tail;
pub mod x16_sched;
pub mod x17_transport;
pub mod x18_wirepath;
pub mod x19_durability;
pub mod x3_binding;
pub mod x4_access;
pub mod x4b_ablation;
pub mod x5_scaling;
pub mod x6_accounting;
pub mod x7_revocation;
pub mod x8_confinement;
pub mod x9_paradigms;

/// Renders rows as an aligned plain-text table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:w$} | ", cell, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats nanoseconds human-readably.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Formats a byte count human-readably.
pub fn fmt_bytes(b: u64) -> String {
    if b < 1_024 {
        format!("{b} B")
    } else if b < 1_048_576 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{:.2} MiB", b as f64 / 1_048_576.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "Demo",
            &["mechanism", "ns/call"],
            &[
                vec!["proxy".into(), "42".into()],
                vec!["wrapper-with-long-name".into(), "1234".into()],
            ],
        );
        assert!(t.contains("## Demo"));
        assert!(t.contains("mechanism"));
        let lines: Vec<&str> = t.lines().collect();
        // Header, separator, two rows (+title).
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.000 s");
        assert_eq!(fmt_bytes(100), "100 B");
        assert_eq!(fmt_bytes(2_048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
    }
}
