//! # dcode-bench
//!
//! One runner for the paper's figures and the studies beside them:
//! `cargo run --release -p dcode-bench -- <study>|all [--seed N]`. Each
//! study in [`REGISTRY`] computes its values once into a `Sheet`, which
//! prints them as tables, writes them as CSV under `target/figures/` and
//! draws the paper's figures from them as SVG. `all` runs every study in
//! registry order; the last one, `report`, gathers `target/figures/` into
//! `report.html`. Throughput is the job of the repo's one benchmark,
//! `benchmark/`; `fused_tile_study` is the one timing study here.

use std::cell::Cell;
use std::fs;
use std::path::PathBuf;

/// A [`Sheet`] row: each value through `Val::from`.
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::Val::from($v)),*]
    };
}

mod figures;
mod plot;
mod report;
mod studies;
mod table;

use plot::Series;
use table::render;

/// Primes the paper evaluates.
pub(crate) const PRIMES: [usize; 4] = [5, 7, 11, 13];

/// Default RNG seed of the seeded studies; override with `--seed N`.
pub const DEFAULT_SEED: u64 = 20150525; // IPDPS'15 conference date

/// A named study: what `cargo run -p dcode-bench -- NAME` runs.
#[derive(Debug)]
pub struct Study {
    /// The name on the command line.
    pub name: &'static str,
    /// Names of the optional positional arguments it takes, in order.
    pub args: &'static [&'static str],
    /// Prints and saves the study's results; `Err` says what went wrong.
    pub run: fn(&Ctx) -> Result<(), String>,
}

/// What a study runs with.
#[derive(Debug, PartialEq, Eq)]
pub struct Ctx {
    /// `--seed N`, else [`DEFAULT_SEED`].
    pub seed: u64,
    /// The positional arguments given, at most one per [`Study::args`].
    pub args: Vec<usize>,
}

/// Every study, in the order `all` runs them.
pub const REGISTRY: [Study; 24] = [
    study("fig1", figures::fig1),
    study("fig2", figures::fig2),
    study("fig3", figures::fig3),
    study("fig4", figures::fig4),
    study("fig5", figures::fig5),
    study("fig6", figures::fig6),
    study("fig7", figures::fig7),
    study("features_table", figures::features_table),
    study("recovery_savings", figures::recovery_savings),
    study("ablation_coalescing", figures::ablation_coalescing),
    study("rotation_study", studies::rotation_study),
    study("double_failure_study", studies::double_failure_study),
    study("degraded_write_study", studies::degraded_write_study),
    study("write_policy", studies::write_policy),
    study("latency_study", studies::latency_study),
    study("load_sweep", studies::load_sweep),
    study("hotspot_study", studies::hotspot_study),
    study("rebuild_time", studies::rebuild_time),
    study("sharing_analysis", studies::sharing_analysis),
    study("scalability_study", studies::scalability_study),
    study("reliability_study", studies::reliability_study),
    study("degraded_balance_study", studies::degraded_balance_study),
    Study {
        name: "fused_tile_study",
        args: &["p", "block_bytes", "batch"],
        run: studies::fused_tile_study,
    },
    study("report", report::report),
];

const fn study(name: &'static str, run: fn(&Ctx) -> Result<(), String>) -> Study {
    Study {
        name,
        args: &[],
        run,
    }
}

/// Resolve a command line (without the program name) to the studies it
/// names and what they run with; `Err` is a usage error.
pub(crate) fn parse<'r>(
    registry: &'r [Study],
    args: &[String],
) -> Result<(Vec<&'r Study>, Ctx), String> {
    let not_a_number = |what: &str, v: &str| format!("{what} {v}: not an unsigned integer");
    let (mut seed, mut words, mut it) = (DEFAULT_SEED, Vec::new(), args.iter());
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| not_a_number("--seed", v))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word => words.push(word),
        }
    }
    let (&name, rest) = words.split_first().ok_or("name a study, or all")?;
    let (studies, takes): (Vec<&Study>, &[&str]) = if name == "all" {
        (registry.iter().collect(), &[])
    } else if let Some(study) = registry.iter().find(|s| s.name == name) {
        (vec![study], study.args)
    } else {
        let names: Vec<&str> = registry.iter().map(|s| s.name).collect();
        return Err(format!(
            "unknown study {name}; registered: all {}",
            names.join(" ")
        ));
    };
    if rest.len() > takes.len() {
        return Err(format!("{name} takes at most {} argument(s)", takes.len()));
    }
    let args = (rest.iter().zip(takes))
        .map(|(v, what)| v.parse().map_err(|_| not_a_number(what, v)))
        .collect::<Result<_, _>>()?;
    Ok((studies, Ctx { seed, args }))
}

/// Run each study in turn, all of them even when one fails; `Err` names
/// the ones that failed (a panic counts as a failure).
pub(crate) fn run(studies: &[&Study], ctx: &Ctx) -> Result<(), String> {
    let mut failed = Vec::new();
    for study in studies {
        let result = std::panic::catch_unwind(|| (study.run)(ctx));
        if let Err(why) = result.unwrap_or_else(|_| Err("panicked".into())) {
            eprintln!("study {} failed: {why}", study.name);
            failed.push(study.name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(", ")))
    }
}

/// The whole command line against `registry`: the process exit code,
/// 0 ok, 1 a study failed, 2 usage.
pub fn main_with(registry: &[Study], args: &[String]) -> i32 {
    match parse(registry, args).map(|(studies, ctx)| run(&studies, &ctx)) {
        Ok(Ok(())) => 0,
        Ok(Err(why)) => {
            eprintln!("{why}");
            1
        }
        Err(why) => {
            eprintln!("error: {why}\nusage: dcode-bench <study>|all [--seed N]");
            for study in registry.iter().filter(|s| !s.args.is_empty()) {
                eprintln!(
                    "       dcode-bench {} [{}]",
                    study.name,
                    study.args.join("] [")
                );
            }
            2
        }
    }
}

/// Where figure CSVs land.
pub(crate) fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// A gate's verdict: `Ok` when the array matched the model everywhere,
/// else print the first mismatches and fail.
pub(crate) fn model_gate(off_model: &[String]) -> Result<(), String> {
    if off_model.is_empty() {
        return Ok(());
    }
    println!("\nmeasured off the model ({} cases):", off_model.len());
    for line in off_model.iter().take(20) {
        println!("  {line}");
    }
    Err(format!("{} case(s) off the model", off_model.len()))
}

/// The CSV format of a load-balancing factor: an infinite one saves as
/// `dcode_iosim::metrics::lf_display`'s axis cap.
pub(crate) const LF_CSV: Fmt = Fmt::FiniteOr(4, 30.0);

/// The mean of `xs`.
pub(crate) fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let xs: Vec<f64> = xs.into_iter().collect();
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `v` as a signed percentage change from `base`.
pub(crate) fn change(v: f64, base: f64) -> f64 {
    100.0 * (v - base) / base
}

/// How a column prints a number; text prints as it is under any format.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fmt {
    /// `{v}`: counts and primes.
    Plain,
    /// `{v:.N}`; an infinite value prints `inf`.
    Fixed(usize),
    /// `{v:.N}` with the second field standing in for an infinite value.
    FiniteOr(usize, f64),
    /// `{v:.Ne}`.
    Sci(usize),
    /// `{v:.N}%`.
    Pct(usize),
    /// `{v:+.N}%`: a signed [`change`].
    Change(usize),
    /// `{v:.N}x`: a ratio.
    Times(usize),
}

impl Fmt {
    fn apply(self, v: f64) -> String {
        match self {
            Fmt::Plain => format!("{v}"),
            Fmt::Fixed(n) => format!("{v:.n$}"),
            Fmt::FiniteOr(n, alt) => format!("{:.n$}", if v.is_finite() { v } else { alt }),
            Fmt::Sci(n) => format!("{v:.n$e}"),
            Fmt::Pct(n) => format!("{v:.n$}%"),
            Fmt::Change(n) => format!("{v:+.n$}%"),
            Fmt::Times(n) => format!("{v:.n$}x"),
        }
    }
}

/// One value of a result row.
#[derive(Debug)]
pub(crate) enum Val {
    /// A label: a code name, a workload, a combined cell.
    Text(String),
    /// A measurement.
    Num(f64),
}

impl Val {
    fn fmt(&self, f: Fmt) -> String {
        match self {
            Val::Text(s) => s.clone(),
            Val::Num(v) => f.apply(*v),
        }
    }
}

impl From<&str> for Val {
    fn from(s: &str) -> Val {
        Val::Text(s.to_string())
    }
}

impl From<String> for Val {
    fn from(s: String) -> Val {
        Val::Text(s)
    }
}

macro_rules! num_val {
    ($($t:ty),*) => {
        $(impl From<$t> for Val {
            fn from(v: $t) -> Val {
                Val::Num(v as f64)
            }
        })*
    };
}
num_val!(f64, usize, u64);

/// A column of a study's results: its header and format in the printed
/// table, then in the CSV. An empty header leaves it out of that output.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Col {
    pub head: &'static str,
    pub show: Fmt,
    pub csv: &'static str,
    pub save: Fmt,
}

/// Shorthand for a [`Col`].
pub(crate) const fn col(head: &'static str, show: Fmt, csv: &'static str, save: Fmt) -> Col {
    Col {
        head,
        show,
        csv,
        save,
    }
}

/// A study's values, a row per measurement under one set of columns: the
/// one source of its tables, CSV and charts. A table shows the rows added
/// since the previous table, so a study fills and prints one section at a
/// time and saves every row as one CSV at the end.
pub(crate) struct Sheet {
    cols: Vec<Col>,
    rows: Vec<Vec<Val>>,
    /// The first row of the section the next table shows.
    start: usize,
    /// Whether that section has been shown: the next row starts another.
    shown: Cell<bool>,
}

impl Sheet {
    /// An empty sheet.
    pub(crate) fn new(cols: Vec<Col>) -> Sheet {
        Sheet {
            cols,
            rows: Vec::new(),
            start: 0,
            shown: Cell::new(false),
        }
    }

    /// Add a row: one value per column, as `row!` builds it.
    pub(crate) fn row(&mut self, row: Vec<Val>) {
        assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        if self.shown.take() {
            self.start = self.rows.len();
        }
        self.rows.push(row);
    }

    /// The rows of the current section, marked shown.
    fn section(&self) -> &[Vec<Val>] {
        self.shown.set(true);
        &self.rows[self.start..]
    }

    /// A header and a line per row of `rows`, in the columns `side` names:
    /// the table's (`head`, `show`) or the CSV's (`csv`, `save`).
    fn grid(&self, rows: &[Vec<Val>], side: fn(&Col) -> (&str, Fmt)) -> Vec<Vec<String>> {
        let cols: Vec<(usize, &str, Fmt)> = (self.cols.iter().enumerate())
            .map(|(i, c)| (i, side(c).0, side(c).1))
            .filter(|c| !c.1.is_empty())
            .collect();
        let mut grid = vec![cols.iter().map(|c| c.1.to_string()).collect()];
        for row in rows {
            grid.push(cols.iter().map(|&(i, _, f)| row[i].fmt(f)).collect());
        }
        grid
    }

    /// Print the section as a table row per row, in the columns with a
    /// table header.
    pub(crate) fn print_table(&self) {
        let lines = self.grid(self.section(), |c| (c.head, c.show));
        print!("{}", render(&lines));
    }

    /// The section's rows grouped by the value of column `key`, in
    /// first-seen order.
    fn groups(&self, key: usize) -> Vec<(String, Vec<&[Val]>)> {
        let mut groups: Vec<(String, Vec<&[Val]>)> = Vec::new();
        for row in self.section() {
            let name = row[key].fmt(Fmt::Plain);
            match groups.iter_mut().find(|(n, _)| *n == name) {
                Some((_, rows)) => rows.push(row),
                None => groups.push((name, vec![row])),
            }
        }
        groups
    }

    /// Print the section as a `key` × `x` table: a table row per value of
    /// column `key`, holding column `cell` of its rows in turn, under
    /// headers `x`.
    pub(crate) fn print_pivot(&self, key: usize, cell: usize, x: &[String]) {
        let mut lines = vec![vec![self.cols[key].head.to_string()]];
        lines[0].extend(x.iter().cloned());
        for (name, rows) in self.groups(key) {
            let cells = rows.iter().map(|r| r[cell].fmt(self.cols[cell].show));
            lines.push(std::iter::once(name).chain(cells).collect());
        }
        print!("{}", render(&lines));
    }

    /// Column `value` of the section as bar-chart series, one per value of
    /// column `key`.
    pub(crate) fn series(&self, key: usize, value: usize) -> Vec<Series> {
        let num = |v: &Val| match v {
            Val::Num(v) => *v,
            Val::Text(_) => f64::NAN,
        };
        (self.groups(key).into_iter())
            .map(|(name, rows)| Series {
                name,
                values: rows.iter().map(|r| num(&r[value])).collect(),
            })
            .collect()
    }

    /// Write every row, in the columns with a CSV header, to
    /// `target/figures/<name>`, and say where.
    pub(crate) fn save_csv(&self, name: &str) -> Result<(), String> {
        let grid = self.grid(&self.rows, |c| (c.csv, c.save));
        let out: String = grid.iter().map(|line| line.join(",") + "\n").collect();
        let path = figures_dir().join(name);
        fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nCSV written to {}", path.display());
        Ok(())
    }
}

/// `p=5`, `p=7`, … for the paper's primes.
pub(crate) fn prime_labels() -> Vec<String> {
    PRIMES.iter().map(|p| format!("p={p}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &str) -> Vec<String> {
        words.split_whitespace().map(String::from).collect()
    }

    fn names(parsed: &(Vec<&Study>, Ctx)) -> Vec<&'static str> {
        parsed.0.iter().map(|s| s.name).collect()
    }

    #[test]
    fn parses_a_study_all_and_a_seed() {
        let one = parse(&REGISTRY, &args("fig4 --seed 7")).unwrap();
        assert_eq!(names(&one), ["fig4"]);
        assert_eq!(
            one.1,
            Ctx {
                seed: 7,
                args: vec![]
            }
        );
        let all = parse(&REGISTRY, &args("all")).unwrap();
        assert_eq!(all.0.len(), REGISTRY.len());
        assert_eq!(all.1.seed, DEFAULT_SEED);
        assert_eq!(names(&all).last(), Some(&"report"));
    }

    #[test]
    fn a_seed_that_does_not_parse_is_a_usage_error() {
        for bad in ["fig4 --seed x", "fig4 --seed -3", "fig4 --seed"] {
            let err = parse(&REGISTRY, &args(bad)).unwrap_err();
            assert!(err.contains("--seed"), "{bad}: {err}");
        }
        assert_eq!(main_with(&REGISTRY, &args("fig4 --seed 1e3")), 2);
    }

    #[test]
    fn tile_study_arguments_parse_or_fail() {
        let ok = parse(&REGISTRY, &args("fused_tile_study 7 4096")).unwrap();
        assert_eq!(ok.1.args, [7, 4096]);
        for bad in [
            "fused_tile_study x",
            "fused_tile_study 13 64K",
            "fused_tile_study 13 65536 -1",
            "fused_tile_study 13 65536 16 9",
        ] {
            assert!(parse(&REGISTRY, &args(bad)).is_err(), "{bad}");
        }
        assert!(parse(&REGISTRY, &args("fig4 13")).is_err());
        assert!(parse(&REGISTRY, &args("all 13")).is_err());
        assert_eq!(main_with(&REGISTRY, &args("fused_tile_study 13 big")), 2);
    }

    #[test]
    fn an_unknown_study_or_option_is_a_usage_error_listing_the_studies() {
        let err = parse(&REGISTRY, &args("fig8")).unwrap_err();
        for study in &REGISTRY {
            assert!(err.contains(study.name), "{err} misses {}", study.name);
        }
        assert!(parse(&REGISTRY, &args("write_policy --assert-model")).is_err());
        assert!(parse(&REGISTRY, &args("")).is_err());
        assert_eq!(main_with(&REGISTRY, &args("fig8")), 2);
    }

    #[test]
    fn names_are_unique() {
        for (i, s) in REGISTRY.iter().enumerate() {
            assert!(REGISTRY[..i].iter().all(|t| t.name != s.name), "{}", s.name);
        }
    }

    fn pass(_: &Ctx) -> Result<(), String> {
        Ok(())
    }

    fn fail(_: &Ctx) -> Result<(), String> {
        Err("planted".into())
    }

    fn boom(_: &Ctx) -> Result<(), String> {
        panic!("planted panic")
    }

    #[test]
    fn a_failed_study_fails_all_and_is_named() {
        let registry = [
            study("first", pass),
            study("broken", fail),
            study("last", pass),
        ];
        let (studies, ctx) = parse(&registry, &args("all")).unwrap();
        assert_eq!(run(&studies, &ctx), Err("failed: broken".into()));
        assert_eq!(main_with(&registry, &args("all")), 1);
        assert_eq!(main_with(&registry, &args("broken")), 1);
        assert_eq!(main_with(&registry, &args("first")), 0);
        let panics = [study("boom", boom), study("fine", pass)];
        assert_eq!(main_with(&panics, &args("all")), 1);
    }

    #[test]
    fn one_sheet_gives_its_tables_csv_and_charts_the_same_values() {
        let mut sheet = Sheet::new(vec![
            col("code", Fmt::Plain, "code", Fmt::Plain),
            col("", Fmt::Plain, "p", Fmt::Plain),
            col("lf", Fmt::Fixed(2), "lf", LF_CSV),
            col("gain", Fmt::Change(1), "", Fmt::Plain),
        ]);
        sheet.row(row!["RDP", 5usize, f64::INFINITY, 12.34]);
        sheet.row(row!["RDP", 7usize, 1.5, -3.0]);
        let table = sheet.grid(sheet.section(), |c| (c.head, c.show));
        assert_eq!(
            table,
            [
                ["code", "lf", "gain"],
                ["RDP", "inf", "+12.3%"],
                ["RDP", "1.50", "-3.0%"]
            ]
        );
        // A row after a shown table opens the next section; the CSV keeps
        // every row.
        sheet.row(row!["X-Code", 5usize, 2.0, 0.0]);
        let series = sheet.series(0, 2);
        assert_eq!(
            (series.len(), &series[0].name[..], &series[0].values[..]),
            (1, "X-Code", &[2.0][..])
        );
        let csv = sheet.grid(&sheet.rows, |c| (c.csv, c.save));
        assert_eq!(
            csv,
            [
                ["code", "p", "lf"],
                ["RDP", "5", "30.0000"],
                ["RDP", "7", "1.5000"],
                ["X-Code", "5", "2.0000"]
            ]
        );
    }

    #[test]
    fn infinite_lf_saves_as_the_plot_cap() {
        let inf = dcode_iosim::metrics::lf_display(f64::INFINITY);
        assert_eq!(LF_CSV.apply(f64::INFINITY), format!("{inf:.4}"));
        assert_eq!(LF_CSV.apply(1.5), "1.5000");
    }

    #[test]
    fn formats_match_the_format_strings_they_stand_for() {
        let v = 1234.5678;
        assert_eq!(Fmt::Plain.apply(12.0), "12");
        assert_eq!(Fmt::Fixed(1).apply(v), format!("{v:.1}"));
        assert_eq!(Fmt::Sci(2).apply(v), format!("{v:.2e}"));
        assert_eq!(Fmt::Pct(1).apply(v), format!("{v:.1}%"));
        assert_eq!(Fmt::Change(1).apply(v), format!("{v:+.1}%"));
        assert_eq!(Fmt::Times(2).apply(v), format!("{v:.2}x"));
        assert_eq!(Fmt::FiniteOr(4, -1.0).apply(f64::INFINITY), "-1.0000");
    }
}
