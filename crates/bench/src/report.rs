//! Terminal table and ASCII-chart rendering for the harness binaries.

/// Print a fixed-width table: a header row and data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |sep: &str| {
        let parts: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
        println!("{}", parts.join(sep));
    };
    let render = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        println!("{}", parts.join("|"));
    };
    render(headers.iter().map(|s| s.to_string()).collect());
    line("+");
    for row in rows {
        render(row.clone());
    }
}

/// Horizontal ASCII bar chart: one row per (label, value).
pub fn bar_chart(title: &str, data: &[(String, f64)], width: usize) {
    println!("{title}");
    let max = data.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    let label_w = data.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in data {
        let bar_len = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        println!("{label:>label_w$} | {} {value:.0}", "#".repeat(bar_len));
    }
}

/// Scatter plot of (x, y) series in a character grid — used for the
/// precision–recall figure.
pub fn scatter_chart(
    title: &str,
    series: &[(&str, Vec<(f64, f64)>)],
    width: usize,
    height: usize,
) {
    println!("{title}");
    let mut grid = vec![vec![' '; width + 1]; height + 1];
    let markers = ['L', 'M', 'C', 'N', 'P', 'x', 'o', '+'];
    for (si, (_, points)) in series.iter().enumerate() {
        let m = markers[si % markers.len()];
        for &(x, y) in points {
            let cx = (x.clamp(0.0, 1.0) * width as f64).round() as usize;
            let cy = height - (y.clamp(0.0, 1.0) * height as f64).round() as usize;
            grid[cy][cx] = m;
        }
    }
    println!("precision");
    for (i, row) in grid.iter().enumerate() {
        let ylab = 1.0 - i as f64 / height as f64;
        let row_str: String = row.iter().collect();
        println!("{ylab:>5.2} |{row_str}");
    }
    println!("      +{}", "-".repeat(width + 1));
    println!("       0{}recall{}1", " ".repeat(width / 2 - 4), " ".repeat(width / 2 - 6));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(si, (name, _))| format!("{} = {name}", markers[si % markers.len()]))
        .collect();
    println!("legend: {}", legend.join(", "));
}

/// `PASS` / `DIFF` marker for reproduction tables.
pub fn check(matches: bool) -> &'static str {
    if matches {
        "PASS"
    } else {
        "DIFF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_and_charts_do_not_panic() {
        print_table(
            &["a", "b"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333".into(), "4".into()],
            ],
        );
        bar_chart("t", &[("x".into(), 3.0), ("y".into(), 0.0)], 20);
        scatter_chart(
            "pr",
            &[("m1", vec![(0.1, 0.9), (0.5, 0.5)]), ("m2", vec![(1.0, 1.0)])],
            40,
            10,
        );
        assert_eq!(check(true), "PASS");
        assert_eq!(check(false), "DIFF");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
