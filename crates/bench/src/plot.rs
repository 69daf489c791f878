//! Minimal SVG chart rendering — dependency-free grouped bar charts, so the
//! figure studies can emit an actual picture of each reproduced figure
//! next to its CSV.

use std::fmt::Write as _;

/// One plotted series (a code, in the paper's figures).
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// One value per x-axis group; `f64::NAN` renders as a capped bar with
    /// an ∞ marker (the paper plots infinite LF at the y-axis cap).
    pub values: Vec<f64>,
}

/// A grouped bar chart in the style of the paper's figures.
#[derive(Clone, Debug)]
pub struct BarChart {
    /// Chart title.
    pub title: String,
    /// Y-axis label.
    pub y_label: String,
    /// X-axis group labels (the primes).
    pub x_labels: Vec<String>,
    /// The series (the codes).
    pub series: Vec<Series>,
    /// Optional y-axis cap; values beyond it (and NaN) are clamped and
    /// marked.
    pub y_cap: Option<f64>,
}

/// A qualitative palette readable on white (one per code).
const PALETTE: [&str; 7] = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb",
];

impl BarChart {
    /// Render to a standalone SVG document.
    pub fn render_svg(&self) -> String {
        assert!(!self.series.is_empty() && !self.x_labels.is_empty());
        for s in &self.series {
            let name = &s.name;
            assert_eq!(
                s.values.len(),
                self.x_labels.len(),
                "series '{name}' arity mismatch"
            );
        }
        let (w, h) = (760f64, 420f64);
        let (ml, mr, mt, mb) = (70f64, 150f64, 50f64, 55f64);
        let (plot_w, plot_h) = (w - ml - mr, h - mt - mb);
        // The plot area's right edge, bottom edge and vertical middle.
        let (right, bottom, middle) = (ml + plot_w, mt + plot_h, mt + plot_h / 2.0);

        let values = self.series.iter().flat_map(|s| s.values.iter());
        let finite_max = values
            .filter(|v| v.is_finite())
            .fold(0f64, |a, &b| a.max(b));
        let y_max = match self.y_cap {
            Some(cap) => cap,
            None if finite_max <= 0.0 => 1.0,
            None => finite_max * 1.1,
        };

        let (title_x, title) = (ml + plot_w / 2.0, xml_escape(&self.title));
        let mut svg = format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif"><rect width="{w}" height="{h}" fill="white"/><text x="{title_x}" y="28" font-size="16" text-anchor="middle" font-weight="bold">{title}</text>"#
        );

        // Y axis: 5 ticks with grid lines.
        for t in 0..=5 {
            let (v, y) = (y_max * t as f64 / 5.0, bottom - plot_h * t as f64 / 5.0);
            let (tick_x, tick_y, tick) = (ml - 6.0, y + 4.0, trim_num(v));
            let _ = write!(
                svg,
                r##"<line x1="{ml}" y1="{y}" x2="{right}" y2="{y}" stroke="#dddddd"/><text x="{tick_x}" y="{tick_y}" font-size="11" text-anchor="end">{tick}</text>"##
            );
        }
        let y_label = xml_escape(&self.y_label);
        let _ = write!(
            svg,
            r#"<text x="16" y="{middle}" font-size="12" text-anchor="middle" transform="rotate(-90 16 {middle})">{y_label}</text>"#
        );

        // Bars.
        let group_w = plot_w / self.x_labels.len() as f64;
        let bar_w = group_w * 0.8 / self.series.len() as f64;
        for (g, label) in self.x_labels.iter().enumerate() {
            let gx = ml + group_w * g as f64;
            let (label_x, label_y, label) = (gx + group_w / 2.0, bottom + 18.0, xml_escape(label));
            let _ = write!(
                svg,
                r#"<text x="{label_x}" y="{label_y}" font-size="12" text-anchor="middle">{label}</text>"#
            );
            for (si, s) in self.series.iter().enumerate() {
                let v = s.values[g];
                let clamped = if v.is_finite() { v.min(y_max) } else { y_max };
                let bh = plot_h * clamped / y_max;
                let (x, y) = (gx + group_w * 0.1 + bar_w * si as f64, bottom - bh);
                let (width, color) = (bar_w * 0.92, PALETTE[si % PALETTE.len()]);
                let _ = write!(
                    svg,
                    r#"<rect x="{x:.1}" y="{y:.1}" width="{width:.1}" height="{bh:.1}" fill="{color}"/>"#
                );
                if !v.is_finite() || v > y_max {
                    let (mark_x, mark_y) = (x + bar_w / 2.0, y - 3.0);
                    let _ = write!(
                        svg,
                        r#"<text x="{mark_x:.1}" y="{mark_y:.1}" font-size="11" text-anchor="middle">∞</text>"#
                    );
                }
            }
        }

        // Axes.
        let _ = write!(
            svg,
            r#"<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{bottom}" stroke="black"/><line x1="{ml}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>"#
        );

        // Legend.
        for (si, s) in self.series.iter().enumerate() {
            let (x, y, color) = (
                right + 12.0,
                mt + 18.0 * si as f64,
                PALETTE[si % PALETTE.len()],
            );
            let (name_x, name_y, name) = (x + 17.0, y + 10.0, xml_escape(&s.name));
            let _ = write!(
                svg,
                r#"<rect x="{x}" y="{y}" width="12" height="12" fill="{color}"/><text x="{name_x}" y="{name_y}" font-size="12">{name}</text>"#
            );
        }
        svg.push_str("</svg>");
        svg
    }

    /// Render and write to `target/figures/<name>.svg`, and say where.
    pub fn save(&self, name: &str) -> Result<(), String> {
        let path = crate::figures_dir().join(format!("{name}.svg"));
        std::fs::write(&path, self.render_svg()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("SVG written to {}", path.display());
        Ok(())
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn trim_num(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> BarChart {
        BarChart {
            title: "test & chart".into(),
            y_label: "LF".into(),
            x_labels: vec!["p=5".into(), "p=7".into()],
            series: vec![
                Series {
                    name: "RDP".into(),
                    values: vec![f64::INFINITY, 3.0],
                },
                Series {
                    name: "D-Code".into(),
                    values: vec![1.0, 1.1],
                },
            ],
            y_cap: Some(30.0),
        }
    }

    #[test]
    fn renders_valid_svg_shell() {
        let svg = chart().render_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // Escaped title, both legends, an infinity marker.
        assert!(svg.contains("test &amp; chart"));
        assert!(svg.contains("RDP"));
        assert!(svg.contains("D-Code"));
        assert!(svg.contains('∞'));
        // 2 groups × 2 series bars + 2 legend swatches + background.
        assert_eq!(svg.matches("<rect").count(), 1 + 4 + 2);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut c = chart();
        c.series[0].values.pop();
        let _ = c.render_svg();
    }
}
