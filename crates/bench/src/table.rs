//! Minimal fixed-width table printer for the figure studies.

/// `lines` as a right-aligned text table: the first line is the header,
/// ruled off from the rest.
pub fn render(lines: &[Vec<String>]) -> String {
    let cols = lines[0].len();
    let mut widths = vec![0; cols];
    for line in lines {
        assert_eq!(line.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(line) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_line = |cells: &[String]| {
        let cells: Vec<String> = (cells.iter().zip(&widths))
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        cells.join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1));
    let body: String = lines[1..].iter().map(|l| fmt_line(l)).collect();
    fmt_line(&lines[0]) + &rule + "\n" + &body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|&c| c.to_owned()).collect()
    }

    #[test]
    fn renders_aligned() {
        let s = render(&[
            line(&["code", "LF"]),
            line(&["D-Code", "1.01"]),
            line(&["RDP", "30"]),
        ]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(
            lines,
            [
                "  code    LF",
                "------------",
                "D-Code  1.01",
                "   RDP    30"
            ]
        );
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        render(&[line(&["a", "b"]), line(&["x"])]);
    }
}
