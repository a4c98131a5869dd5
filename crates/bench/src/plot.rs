//! Minimal dependency-free SVG line charts for the figure reproductions.
//!
//! Fig. 5 and Fig. 6 of the paper are wealth-curve plots; the figure
//! binaries emit both the raw CSV series and an SVG rendered here. The y
//! axis is log-scale because wealth curves compound.

/// One named series.
pub struct Series {
    /// Legend label.
    pub name: String,
    /// y values (x is the index).
    pub values: Vec<f64>,
}

/// y-axis label shared by every wealth chart.
const Y_LABEL: &str = "accumulated portfolio value (log scale)";
/// Canvas width in px.
const WIDTH: u32 = 960;
/// Canvas height in px.
const HEIGHT: u32 = 540;

/// A categorical palette that stays readable on white.
const PALETTE: [&str; 10] = [
    "#3778bf", "#e1572a", "#3a923a", "#c03d3e", "#9372b2", "#845b53", "#d684bd", "#797979",
    "#b9bc33", "#2fbfc4",
];

/// Renders the series to an SVG string with a log₁₀ y axis.
///
/// # Panics
/// Panics if no series or all series are empty, or if any value is
/// non-positive.
pub fn render_line_chart(series: &[Series], title: &str) -> String {
    assert!(!series.is_empty(), "no series to plot");
    let n = series.iter().map(|s| s.values.len()).max().unwrap();
    assert!(n > 1, "series too short to plot");

    let transform = |v: f64| -> f64 {
        assert!(v > 0.0, "log-scale chart needs positive values, got {v}");
        v.log10()
    };
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for s in series {
        for &v in &s.values {
            let t = transform(v);
            lo = lo.min(t);
            hi = hi.max(t);
        }
    }
    if (hi - lo).abs() < 1e-12 {
        hi = lo + 1.0;
    }

    let (w, h) = (WIDTH as f64, HEIGHT as f64);
    let (ml, mr, mt, mb) = (70.0, 160.0, 40.0, 40.0); // margins (legend right)
    let px = |i: usize| ml + (w - ml - mr) * i as f64 / (n - 1) as f64;
    let py = |v: f64| {
        let t = (transform(v) - lo) / (hi - lo);
        h - mb - (h - mt - mb) * t
    };

    let mut svg = String::new();
    svg.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="0 0 {} {}">"#,
        WIDTH, HEIGHT, WIDTH, HEIGHT
    ));
    svg.push_str(&format!(r#"<rect width="{}" height="{}" fill="white"/>"#, WIDTH, HEIGHT));
    svg.push_str(&format!(
        r#"<text x="{}" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">{}</text>"#,
        w / 2.0,
        title
    ));

    // Axes + y grid lines with labels.
    svg.push_str(&format!(
        r##"<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{}" stroke="#333"/>"##,
        h - mb
    ));
    svg.push_str(&format!(
        r##"<line x1="{ml}" y1="{}" x2="{}" y2="{}" stroke="#333"/>"##,
        h - mb,
        w - mr,
        h - mb
    ));
    for g in 0..=4 {
        let t = lo + (hi - lo) * g as f64 / 4.0;
        let v = 10f64.powf(t);
        let y = h - mb - (h - mt - mb) * g as f64 / 4.0;
        svg.push_str(&format!(
            r##"<line x1="{ml}" y1="{y}" x2="{}" y2="{y}" stroke="#ddd"/>"##,
            w - mr
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-family="sans-serif" font-size="11" text-anchor="end">{}</text>"#,
            ml - 6.0,
            y + 4.0,
            if v.abs() >= 100.0 { format!("{v:.0}") } else { format!("{v:.2}") }
        ));
    }
    svg.push_str(&format!(
        r#"<text x="16" y="{}" font-family="sans-serif" font-size="12" transform="rotate(-90 16 {})" text-anchor="middle">{}</text>"#,
        h / 2.0,
        h / 2.0,
        Y_LABEL
    ));

    // Series.
    for (si, s) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        let mut d = String::from("M");
        for (i, &v) in s.values.iter().enumerate() {
            if i > 0 {
                d.push('L');
            }
            d.push_str(&format!("{:.1},{:.1} ", px(i), py(v)));
        }
        svg.push_str(&format!(
            r#"<path d="{d}" fill="none" stroke="{color}" stroke-width="1.6"/>"#
        ));
        // Legend entry.
        let ly = mt + 18.0 * si as f64;
        svg.push_str(&format!(
            r#"<line x1="{}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="3"/>"#,
            w - mr + 10.0,
            w - mr + 34.0
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-family="sans-serif" font-size="12">{}</text>"#,
            w - mr + 40.0,
            ly + 4.0,
            s.name
        ));
    }
    svg.push_str("</svg>");
    svg
}

/// Convenience: render and write to `results/<file>`.
pub fn save_chart(series: &[Series], title: &str, file: &str) -> std::io::Result<()> {
    let svg = render_line_chart(series, title);
    std::fs::create_dir_all("results")?;
    std::fs::write(format!("results/{file}"), svg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_series() -> Vec<Series> {
        vec![
            Series { name: "up".into(), values: (1..50).map(|i| i as f64).collect() },
            Series { name: "flat".into(), values: vec![10.0; 49] },
        ]
    }

    #[test]
    fn renders_valid_svg_with_all_series() {
        let svg = render_line_chart(&demo_series(), "demo");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains(">up<"));
        assert!(svg.contains(">flat<"));
        assert_eq!(svg.matches("<path").count(), 2);
    }

    #[test]
    fn log_scale_compresses_growth() {
        let series = vec![Series {
            name: "wealth".into(),
            values: (0..100).map(|i| (0.05 * i as f64).exp()).collect(),
        }];
        let svg = render_line_chart(&series, "wealth");
        assert!(svg.contains("<path"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn log_scale_rejects_non_positive() {
        let series = vec![Series { name: "bad".into(), values: vec![1.0, 0.0, 2.0] }];
        let _ = render_line_chart(&series, "bad");
    }

    #[test]
    fn rendered_bytes_are_pinned() {
        // Guards the figure SVGs against accidental layout drift: length and
        // FNV-1a hash of a fixed two-series chart.
        let series = vec![
            Series {
                name: "PPN".into(),
                values: (0..120)
                    .map(|i| (0.03 * i as f64).exp() * (1.0 + 0.1 * (i as f64 * 0.7).sin()))
                    .collect(),
            },
            Series {
                name: "UBAH".into(),
                values: (0..120).map(|i| 1.0 + 0.01 * i as f64).collect(),
            },
        ];
        let svg =
            render_line_chart(&series, "Fig. 5 — wealth development on Crypto-A (test split)");
        let fnv = svg.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((svg.len(), fnv), (4790, 0x4c34_4bb5_b060_b72c));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let series = vec![Series { name: "c".into(), values: vec![5.0; 10] }];
        let svg = render_line_chart(&series, "c");
        assert!(svg.contains("<path"));
        assert!(!svg.contains("NaN"));
    }
}
