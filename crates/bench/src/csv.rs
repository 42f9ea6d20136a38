//! Minimal CSV emission for the figure series (no external deps): each
//! experiment can mirror its printed table into `<dir>/<name>.csv` so the
//! series can be plotted or diffed across runs.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A CSV sink bound to one output directory; disabled when no directory
/// was requested.
#[derive(Debug, Clone, Default)]
pub struct CsvSink {
    dir: Option<PathBuf>,
}

impl CsvSink {
    /// A sink writing into `dir` (created on first use).
    #[must_use]
    pub fn to_dir(dir: impl Into<PathBuf>) -> CsvSink {
        CsvSink { dir: Some(dir.into()) }
    }

    /// A disabled sink: [`CsvSink::write`] is a no-op.
    #[must_use]
    pub fn disabled() -> CsvSink {
        CsvSink { dir: None }
    }

    /// Whether the sink writes anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Writes one table: `header` then `rows`, quoting fields only when
    /// needed. Errors are reported to stderr, never fatal — losing a CSV
    /// must not kill an hours-long evaluation run.
    pub fn write(&self, name: &str, header: &[&str], rows: &[Vec<String>]) {
        let Some(dir) = &self.dir else { return };
        if let Err(e) = self.try_write(dir, name, header, rows) {
            eprintln!("csv: failed to write {name}.csv: {e}");
        }
    }

    fn try_write(
        &self,
        dir: &Path,
        name: &str,
        header: &[&str],
        rows: &[Vec<String>],
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = String::new();
        writeln_row(&mut out, header.iter().map(|s| (*s).to_owned()));
        for row in rows {
            writeln_row(&mut out, row.iter().cloned());
        }
        std::fs::write(dir.join(format!("{name}.csv")), out)
    }
}

fn writeln_row(out: &mut String, fields: impl Iterator<Item = String>) {
    let mut first = true;
    for field in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if field.contains([',', '"', '\n']) {
            let _ = write!(out, "\"{}\"", field.replace('"', "\"\""));
        } else {
            out.push_str(&field);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_noop() {
        let sink = CsvSink::disabled();
        assert!(!sink.is_enabled());
        sink.write("x", &["a"], &[vec!["1".into()]]); // must not panic or write
    }

    #[test]
    fn writes_and_quotes() {
        let scratch = indra_persist::ScratchDir::new("csv-test").unwrap();
        let dir = scratch.path();
        let sink = CsvSink::to_dir(dir);
        sink.write(
            "t",
            &["app", "value"],
            &[vec!["bind".into(), "1.5".into()], vec!["we,ird\"name".into(), "2".into()]],
        );
        let text = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(text, "app,value\nbind,1.5\n\"we,ird\"\"name\",2\n");
    }
}
