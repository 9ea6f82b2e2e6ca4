//! Table formatting and machine-readable result output.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Prints an aligned text table: a header row then data rows.
///
/// Column widths adapt to the longest cell; numeric alignment is the
/// caller's business (format values before passing them in).
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n_cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |sep: char| {
        let mut s = String::new();
        for w in &widths {
            s.push('+');
            s.extend(std::iter::repeat_n(sep, w + 2));
        }
        s.push('+');
        s
    };
    println!("{}", line('-'));
    let mut head = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        head.push_str(&format!("| {h:<w$} "));
    }
    head.push('|');
    println!("{head}");
    println!("{}", line('='));
    for row in rows {
        let mut s = String::new();
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = row.get(i).unwrap_or(&empty);
            s.push_str(&format!("| {cell:<w$} "));
        }
        s.push('|');
        println!("{s}");
    }
    println!("{}", line('-'));
}

/// Writes a JSON value as `<workspace>/target/repro/<name>.json` (created
/// on demand), the machine-readable form of the printed table, and returns
/// the path written. The directory is anchored on
/// this crate's manifest, not the CWD, so a run from any directory (a
/// `cargo test` included) lands in the one place. Errors are reported, not
/// fatal — the printed table is the primary artifact — and `None` tells a
/// caller that needs the file that there is none.
pub fn write_json(name: &str, value: &serde_json::Value) -> Option<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/repro");
    match write_json_in(&dir, name, value) {
        Ok(path) => {
            println!("(json: {})", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot write {name}.json under {dir:?}: {e}");
            None
        }
    }
}

fn write_json_in(dir: &Path, name: &str, value: &serde_json::Value) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let text = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_table_does_not_panic_on_ragged_rows() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into()], vec!["22".into(), "333".into(), "extra".into()]],
        );
    }

    #[test]
    fn write_json_smoke() {
        let dir = std::env::temp_dir().join(format!("midas-bench-{}", std::process::id()));
        let value = serde_json::json!({"ok": true, "n": 3});
        let path = write_json_in(&dir, "unit_test_artifact", &value).expect("temp dir is writable");
        assert_eq!(path, dir.join("unit_test_artifact.json"));
        let text = fs::read_to_string(&path).expect("the file was written");
        assert_eq!(text, serde_json::to_string_pretty(&value).expect("serializes"));
        fs::remove_dir_all(&dir).expect("temp dir is removable");
    }
}
