//! The one-page HTML report of `target/figures/`.

use crate::{figures_dir, Ctx};
use std::fmt::Write as _;

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn csv_to_table(text: &str) -> String {
    let mut out = String::from("<table>");
    for (i, line) in text.lines().enumerate() {
        let tag = if i == 0 { "th" } else { "td" };
        let _ = write!(out, "<tr>");
        for cell in line.split(',') {
            let _ = write!(out, "<{tag}>{}</{tag}>", html_escape(cell));
        }
        let _ = write!(out, "</tr>");
    }
    out.push_str("</table>");
    out
}

/// Collect everything under `target/figures/` into one self-contained
/// HTML report: every SVG chart inline, every CSV as a table. `all` runs
/// it last, so the report holds every study's output.
pub fn report(_: &Ctx) -> Result<(), String> {
    let dir = figures_dir();
    let listing = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries: Vec<_> = listing.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();

    let mut html = String::from(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>D-Code reproduction report</title><style>\
         body{font-family:sans-serif;max-width:900px;margin:2em auto;padding:0 1em}\
         table{border-collapse:collapse;margin:1em 0;font-size:13px}\
         td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}\
         th{background:#f0f0f0}\
         h2{border-bottom:2px solid #4477aa;padding-bottom:4px;margin-top:2em}\
         details{margin:0.5em 0}\
         svg{max-width:100%;height:auto}\
         </style></head><body>\
         <h1>D-Code reproduction — figure & study report</h1>\
         <p>Generated from <code>target/figures/</code>. See EXPERIMENTS.md \
         for paper-vs-measured verdicts.</p>",
    );

    let (mut svg_count, mut csv_count) = (0, 0);
    for path in &entries {
        let name = html_escape(&path.file_name().unwrap().to_string_lossy());
        let ext = path.extension().and_then(|e| e.to_str());
        if !matches!(ext, Some("svg" | "csv")) {
            continue;
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
        if ext == Some("svg") {
            svg_count += 1;
            let _ = write!(html, "<h2>{name}</h2>{text}");
        } else {
            csv_count += 1;
            let rows = text.lines().count().saturating_sub(1);
            let table = csv_to_table(&text);
            let _ = write!(
                html,
                "<details><summary><b>{name}</b> ({rows} rows)</summary>{table}</details>"
            );
        }
    }
    html.push_str("</body></html>");

    let out = dir.join("report.html");
    std::fs::write(&out, html).map_err(|e| format!("{}: {e}", out.display()))?;
    let out = out.display();
    println!("report with {svg_count} charts and {csv_count} tables written to {out}");
    Ok(())
}
