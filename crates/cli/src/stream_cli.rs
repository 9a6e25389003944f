//! `schemachron append` and `schemachron watch` — the CLI surface of the
//! crash-safe streaming store.
//!
//! `append` makes one commit durable (WAL write + fsync before the ack)
//! and prints the acknowledgement; with `--format json` the body is
//! byte-identical to the `POST /project/{id}/commit` answer for the same
//! commit — one renderer, two transports. `watch` polls a directory of
//! dated `.sql` files (`NNNN_YYYY-MM-DD.sql`, the `analyze` ingestion
//! format) and re-ingests new files into the store with debouncing (a
//! file still being written is deferred to the next scan) and bounded
//! retries of appends that failed to become durable.

use std::io::Write;
use std::path::{Path, PathBuf};

use schemachron_fault as fault;
use schemachron_stream::{render, Append, StreamError, StreamStore};

use crate::{flag, json_format, opt_value, positional, CliError, CliResult};

/// How many times `watch` retries an append that failed to become durable.
/// Each retry re-rolls the deterministic fault plan on a fresh attempt,
/// mirroring the chaos drill's bounded-retry discipline.
const WATCH_RETRIES: u32 = 3;

/// Default `watch` poll interval in milliseconds.
const WATCH_INTERVAL_MS: u64 = 500;

fn wal_dir(argv: &[&str], cmd: &str) -> Result<PathBuf, CliError> {
    match opt_value(argv, "--wal-dir") {
        Some(dir) => Ok(PathBuf::from(dir)),
        None => Err(CliError::new(format!(
            "{cmd}: missing --wal-dir <dir> (the streaming store root)"
        ))),
    }
}

fn open_store(dir: &Path, cmd: &str) -> Result<StreamStore, CliError> {
    StreamStore::open(dir).map_err(|e| {
        CliError::new(format!(
            "{cmd}: cannot open stream store {}: {e}",
            dir.display()
        ))
    })
}

/// `schemachron append <project> --seq N --date YYYY-MM-DD
/// (--sql DDL | --file F) --wal-dir DIR [--format json]`.
pub fn run_append(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let project =
        positional(&argv).ok_or_else(|| CliError::new("append: missing <project>"))?;
    let seq: u64 = match opt_value(&argv, "--seq") {
        Some(v) => v.parse().map_err(|_| {
            CliError::new(format!("append: invalid --seq value `{v}` (expected an integer)"))
        })?,
        None => return Err(CliError::new("append: missing --seq <n> (first commit is 1)")),
    };
    let Some(date) = opt_value(&argv, "--date") else {
        return Err(CliError::new("append: missing --date YYYY-MM-DD"));
    };
    let sql = match (opt_value(&argv, "--sql"), opt_value(&argv, "--file")) {
        (Some(s), None) => s.to_owned(),
        (None, Some(f)) => std::fs::read_to_string(f)
            .map_err(|e| CliError::new(format!("append: cannot read {f}: {e}")))?,
        _ => {
            return Err(CliError::new(
                "append: pass exactly one of --sql <ddl> or --file <path>",
            ))
        }
    };
    let json = json_format(&argv)?;
    let dir = wal_dir(&argv, "append")?;
    let mut store = open_store(&dir, "append")?;
    match store.append(project, seq, date, &sql) {
        Ok(outcome) => {
            if json {
                // The same renderer the serve route answers with: the
                // printed body is byte-identical to the HTTP ack.
                let body = serde_json::to_string_pretty(&render::ack_json(project, &outcome))
                    .unwrap_or_else(|_| "{}".to_owned());
                writeln!(out, "{body}")?;
            } else {
                match &outcome {
                    Append::Appended {
                        seq,
                        cursor,
                        before,
                        after,
                    } => writeln!(
                        out,
                        "{project} seq {seq} appended (cursor {cursor}): {} -> {after}",
                        before.as_deref().unwrap_or("(new)")
                    )?,
                    Append::Duplicate { seq, last_seq } => writeln!(
                        out,
                        "{project} seq {seq} already acknowledged (last seq {last_seq}); no-op"
                    )?,
                }
            }
            Ok(())
        }
        Err(StreamError::SequenceGap { expected, got }) => Err(CliError::new(format!(
            "append: sequence gap for {project}: expected seq {expected}, got {got}"
        ))),
        Err(e) => Err(CliError::new(format!("append: {e}"))),
    }
}

/// `schemachron watch --dir <src> --wal-dir DIR [--project NAME]
/// [--interval-ms N] [--once]`.
pub fn run_watch(args: &[String], out: &mut dyn Write) -> CliResult {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let Some(src) = opt_value(&argv, "--dir") else {
        return Err(CliError::new(
            "watch: missing --dir <dir> (the directory of dated .sql files)",
        ));
    };
    let src = PathBuf::from(src);
    let project = match opt_value(&argv, "--project") {
        Some(name) => name.to_owned(),
        None => src
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default(),
    };
    if project.is_empty() {
        return Err(CliError::new(
            "watch: cannot derive a project name from --dir; pass --project <name>",
        ));
    }
    let interval = match opt_value(&argv, "--interval-ms") {
        None => WATCH_INTERVAL_MS,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) if ms > 0 => ms,
            _ => {
                return Err(CliError::new(format!(
                    "watch: invalid --interval-ms value `{v}` (expected a positive integer)"
                )))
            }
        },
    };
    let once = flag(&argv, "--once");
    let dir = wal_dir(&argv, "watch")?;
    let mut store = open_store(&dir, "watch")?;
    loop {
        let appended = scan_once(&mut store, &src, &project, out)?;
        if once {
            writeln!(
                out,
                "watch: {project} at seq {}, pattern {}",
                store.last_seq(&project),
                store.pattern(&project).unwrap_or_else(|| "(none)".to_owned())
            )?;
            return Ok(());
        }
        if appended == 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval));
        }
    }
}

/// The `YYYY-MM-DD` a dated history file carries, if its name matches the
/// `NNNN_YYYY-MM-DD.sql` ingestion format.
fn dated_sql(name: &str) -> Option<String> {
    let stem = name.strip_suffix(".sql")?;
    let (_, date) = stem.split_once('_')?;
    let b = date.as_bytes();
    let dashes_ok = b.len() == 10 && b[4] == b'-' && b[7] == b'-';
    let digits_ok = b
        .iter()
        .enumerate()
        .all(|(i, c)| i == 4 || i == 7 || c.is_ascii_digit());
    (dashes_ok && digits_ok).then(|| date.to_owned())
}

/// One poll pass: enumerate the dated files in order, append every file
/// past the store's last acknowledged sequence, and return how many landed.
/// A file that changes while being read is deferred to the next scan.
fn scan_once(
    store: &mut StreamStore,
    src: &Path,
    project: &str,
    out: &mut dyn Write,
) -> Result<usize, CliError> {
    let entries = std::fs::read_dir(src)
        .map_err(|e| CliError::new(format!("watch: cannot read {}: {e}", src.display())))?;
    let mut files: Vec<(String, String, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let path = e.path();
            let name = path.file_name()?.to_str()?.to_owned();
            let date = dated_sql(&name)?;
            Some((name, date, path))
        })
        .collect();
    files.sort();
    let last = store.last_seq(project);
    let mut appended = 0;
    for (i, (name, date, path)) in files.iter().enumerate() {
        let seq = (i + 1) as u64;
        if seq <= last {
            continue;
        }
        // Debounce: a file whose size changes across the read is mid-write;
        // stop here and pick it (and everything after it) up next scan.
        let Ok(before_len) = std::fs::metadata(path).map(|m| m.len()) else {
            break;
        };
        let Ok(sql) = std::fs::read_to_string(path) else {
            break;
        };
        if std::fs::metadata(path).map(|m| m.len()).ok() != Some(before_len) {
            writeln!(out, "watch: {name} still changing, deferred")?;
            break;
        }
        // Bounded retries: an append that failed to become durable (I/O
        // fault, injected or real) re-rolls on a fresh attempt; the same
        // seq stays safe to retry because nothing was acknowledged.
        let mut result = store.append(project, seq, date, &sql);
        let mut attempt = 1;
        while matches!(result, Err(StreamError::Wal(_))) && attempt < WATCH_RETRIES {
            attempt += 1;
            result = fault::with_attempt(attempt, || store.append(project, seq, date, &sql));
        }
        match result {
            Ok(Append::Appended {
                seq,
                before,
                after,
                ..
            }) => {
                writeln!(
                    out,
                    "watch: appended {project} seq {seq} ({name}): {} -> {after}",
                    before.as_deref().unwrap_or("(new)")
                )?;
                appended += 1;
            }
            Ok(Append::Duplicate { .. }) => {}
            Err(e) => return Err(CliError::new(format!("watch: {name}: {e}"))),
        }
    }
    Ok(appended)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "schemachron-streamcli-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn run(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        let mut out = Vec::new();
        crate::run(&args, &mut out).map(|()| String::from_utf8(out).unwrap())
    }

    #[test]
    fn dated_sql_accepts_the_ingestion_format_only() {
        assert_eq!(dated_sql("0001_2020-01-10.sql"), Some("2020-01-10".to_owned()));
        assert_eq!(dated_sql("0001_2020-01-10.txt"), None);
        assert_eq!(dated_sql("2020-01-10.sql"), None);
        assert_eq!(dated_sql("0001_2020-1-10.sql"), None);
        assert_eq!(dated_sql("notes.sql"), None);
    }

    #[test]
    fn append_cli_acks_duplicates_and_refuses_gaps() {
        let wal = tmp("append");
        let wal_s = wal.to_string_lossy().into_owned();
        let human = run(&[
            "append", "cli-a", "--seq", "1", "--date", "2020-01-10",
            "--sql", "CREATE TABLE t (a INT);", "--wal-dir", &wal_s,
        ])
        .unwrap();
        assert!(human.contains("cli-a seq 1 appended (cursor 1)"), "{human}");

        // JSON ack: the exact serve-route body shape.
        let json = run(&[
            "append", "cli-a", "--seq", "1", "--date", "2020-01-10",
            "--sql", "CREATE TABLE t (a INT);", "--wal-dir", &wal_s, "--format", "json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["status"].as_str(), Some("duplicate"));
        assert_eq!(v["last_seq"].as_u64(), Some(1));

        let gap = run(&[
            "append", "cli-a", "--seq", "9", "--date", "2020-02-10",
            "--sql", "DROP TABLE t;", "--wal-dir", &wal_s,
        ])
        .expect_err("gaps are refused");
        assert!(gap.message.contains("expected seq 2"), "{}", gap.message);

        // Argument validation.
        for bad in [
            vec!["append"],
            vec!["append", "cli-a"],
            vec!["append", "cli-a", "--seq", "2"],
            vec!["append", "cli-a", "--seq", "x", "--date", "2020-01-10", "--sql", "x"],
        ] {
            assert!(run(&bad).is_err(), "{bad:?}");
        }
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn watch_ingests_new_dated_files_in_order() {
        let src = tmp("watch-src");
        let wal = tmp("watch-wal");
        let (src_s, wal_s) = (
            src.to_string_lossy().into_owned(),
            wal.to_string_lossy().into_owned(),
        );
        std::fs::write(src.join("0001_2020-01-10.sql"), "CREATE TABLE t (a INT);").unwrap();
        std::fs::write(src.join("0002_2021-06-10.sql"), "ALTER TABLE t ADD COLUMN b INT;")
            .unwrap();
        std::fs::write(src.join("README.md"), "not sql").unwrap();

        let first = run(&[
            "watch", "--dir", &src_s, "--wal-dir", &wal_s, "--project", "cli-w", "--once",
        ])
        .unwrap();
        assert!(first.contains("appended cli-w seq 1 (0001_2020-01-10.sql)"), "{first}");
        assert!(first.contains("appended cli-w seq 2"), "{first}");
        assert!(first.contains("cli-w at seq 2, pattern "), "{first}");

        // A re-scan is idempotent; a new file is picked up where we left.
        std::fs::write(src.join("0003_2022-01-10.sql"), "DROP TABLE t;").unwrap();
        let second = run(&[
            "watch", "--dir", &src_s, "--wal-dir", &wal_s, "--project", "cli-w", "--once",
        ])
        .unwrap();
        assert!(!second.contains("seq 1"), "{second}");
        assert!(second.contains("appended cli-w seq 3 (0003_2022-01-10.sql)"), "{second}");
        assert!(second.contains("cli-w at seq 3"), "{second}");
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&wal);
    }
}
