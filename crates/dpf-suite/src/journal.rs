//! The durable write-ahead row journal behind `dpf campaign --resume`.
//!
//! A campaign writes its artifacts once, at the end — so a crash at row
//! 250 of a 256-row sweep used to lose everything. The journal makes
//! each completed row durable the moment it exists: one line per record
//! in `journal.jsonl` inside the campaign out-dir, appended and fsync'd
//! before the engine moves on. On `--resume` the journal is replayed,
//! completed work is skipped, and (because tenant fault seeds derive
//! from the tenant *key*, never from scheduling order) the final
//! artifacts come out byte-identical to an uninterrupted run.
//!
//! ## Line format
//!
//! ```text
//! crc32(hex8) SP compact-json LF
//! ```
//!
//! The CRC ([`dpf_core::crc32`], the SPMD link layer's IEEE 802.3 checksum)
//! is computed over the compact JSON bytes. The first record is a
//! header pinning the journal format version, the campaign name and
//! seed, and a fingerprint of the full spec — resuming against a
//! changed spec is a typed [`DpfError::Config`], not a silently mixed
//! artifact.
//!
//! ## Corruption model
//!
//! Appends are ordered and fsync'd, so after a crash only the *final*
//! line can be torn. [`Journal::open_resume`] therefore truncates a
//! corrupt tail line (losing at most the one row that was mid-write)
//! but treats a corrupt *interior* line as real corruption — a typed
//! [`DpfError::Config`] naming the file, line and byte offset.
//!
//! The journal is deleted once the final artifacts are written
//! atomically: its job is done, and leaving it around would make the
//! out-dir of a clean serial run differ from a clean concurrent one
//! (row append order is schedule-dependent; the artifacts are not).

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dpf_core::{crc32, DpfError};

use crate::schema::Json;

/// Journal format version, stored in the header record. Bump on any
/// incompatible change to the line format or record shapes; a resume
/// across versions is a config error.
pub const JOURNAL_VERSION: u64 = 1;

/// File name of the journal inside a campaign out-dir.
pub const JOURNAL_FILE: &str = "journal.jsonl";

fn io_err(path: &Path, op: &str, e: std::io::Error) -> DpfError {
    DpfError::Artifact {
        path: path.display().to_string(),
        what: format!("{op}: {e}"),
    }
}

fn corrupt(path: &Path, line_no: usize, offset: usize, what: &str) -> DpfError {
    DpfError::Config {
        what: format!(
            "corrupt journal {}: line {line_no} (byte offset {offset}): {what}; \
             delete the out-dir and rerun without --resume",
            path.display()
        ),
    }
}

/// An open, append-only journal. Every [`Journal::append`] is written
/// and fsync'd before it returns: once a record is appended, a SIGKILL
/// or power cut cannot take it back.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

/// The readable prefix of a journal: the header record plus every
/// intact row record, in append order.
#[derive(Debug)]
pub struct Replay {
    /// The header record (`kind = "header"`).
    pub header: Json,
    /// The row records (`kind = "row"`), in append order.
    pub records: Vec<Json>,
}

impl Journal {
    /// Create (or truncate) the journal at `path` and durably write the
    /// header record.
    pub fn create(path: &Path, header: &Json) -> Result<Journal, DpfError> {
        let file = File::create(path).map_err(|e| io_err(path, "create journal", e))?;
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
        };
        journal.append(header)?;
        Ok(journal)
    }

    /// Open an existing journal for resume: verify and parse every
    /// line, truncate a torn tail line, and reopen in append mode.
    /// Returns the replayable records alongside the journal.
    ///
    /// Errors: a missing journal, an unreadable file, a corrupt
    /// interior line or a missing/torn header are all typed
    /// [`DpfError::Config`] (there is nothing safe to resume from);
    /// raw I/O failures are [`DpfError::Artifact`].
    pub fn open_resume(path: &Path) -> Result<(Journal, Replay), DpfError> {
        if !path.exists() {
            return Err(DpfError::Config {
                what: format!(
                    "--resume: no journal at {} (nothing to resume; \
                     rerun without --resume)",
                    path.display()
                ),
            });
        }
        let text = fs::read_to_string(path).map_err(|e| io_err(path, "read journal", e))?;
        let mut records = Vec::new();
        let mut keep = 0usize; // byte length of the intact prefix
        let mut offset = 0usize;
        let mut torn = false;
        for (i, line) in text.split_inclusive('\n').enumerate() {
            let line_no = i + 1;
            let body = line.strip_suffix('\n');
            // A line without its newline is by definition the tail.
            match parse_line(body.unwrap_or(line)) {
                Ok(record) if body.is_some() => {
                    records.push(record);
                    offset += line.len();
                    keep = offset;
                }
                Ok(_) | Err(_) if line_len_is_tail(&text, offset, line) => {
                    // Torn tail: the crash hit mid-append. Drop it.
                    torn = true;
                    break;
                }
                Ok(_) => unreachable!("non-tail line with newline handled above"),
                Err(what) => return Err(corrupt(path, line_no, offset, &what)),
            }
        }
        if torn {
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err(path, "open journal for truncate", e))?;
            f.set_len(keep as u64)
                .map_err(|e| io_err(path, "truncate torn journal tail", e))?;
            f.sync_all()
                .map_err(|e| io_err(path, "fsync truncated journal", e))?;
        }
        let mut records = records.into_iter();
        let header = records.next().ok_or_else(|| DpfError::Config {
            what: format!(
                "--resume: journal {} has no intact header record; \
                 delete the out-dir and rerun without --resume",
                path.display()
            ),
        })?;
        if header.get("kind").and_then(Json::as_str) != Some("header") {
            return Err(corrupt(path, 1, 0, "first record is not a header"));
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open journal for append", e))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            Replay {
                header,
                records: records.collect(),
            },
        ))
    }

    /// Append one record durably: compact-render, CRC-tag, write the
    /// full line, fsync. Returns only after the record is on disk.
    pub fn append(&mut self, record: &Json) -> Result<(), DpfError> {
        let body = record.render_compact();
        let line = format!("{:08x} {body}\n", crc32(body.as_bytes()));
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, "append journal record", e))?;
        self.file
            .sync_all()
            .map_err(|e| io_err(&self.path, "fsync journal record", e))?;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// True when the line starting at byte `offset` is the file's last line
/// — the only line a crash-truncated append can corrupt.
fn line_len_is_tail(text: &str, offset: usize, line: &str) -> bool {
    offset + line.len() == text.len()
}

/// Parse one `crc32(hex8) SP json` line into its record.
fn parse_line(line: &str) -> Result<Json, String> {
    let (crc_hex, body) = line
        .split_once(' ')
        .ok_or_else(|| "missing checksum field".to_string())?;
    if crc_hex.len() != 8 {
        return Err(format!("checksum field {crc_hex:?} is not 8 hex digits"));
    }
    let expect = u32::from_str_radix(crc_hex, 16)
        .map_err(|_| format!("checksum field {crc_hex:?} is not 8 hex digits"))?;
    let got = crc32(body.as_bytes());
    if got != expect {
        return Err(format!(
            "checksum mismatch (stored {expect:08x}, computed {got:08x})"
        ));
    }
    Json::parse(body).map_err(|e| format!("record does not parse: {e}"))
}

/// Delete a journal whose campaign completed (its artifacts are now
/// durable on their own). A missing file is fine — a clean first run
/// that never crashed has already consumed its journal.
pub fn discard(path: &Path) -> Result<(), DpfError> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_err(path, "remove journal", e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        // Unit tests don't get CARGO_TARGET_TMPDIR; scratch under the
        // workspace target dir so nothing is written outside the repo.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-tmp")
            .join(name);
        fs::create_dir_all(&dir).unwrap();
        dir.join(JOURNAL_FILE)
    }

    fn header() -> Json {
        Json::Obj(vec![
            ("kind".to_string(), Json::str("header")),
            ("version".to_string(), Json::U64(JOURNAL_VERSION)),
            ("campaign".to_string(), Json::str("t")),
        ])
    }

    fn row(n: u64) -> Json {
        Json::Obj(vec![
            ("kind".to_string(), Json::str("row")),
            ("n".to_string(), Json::U64(n)),
        ])
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = scratch("journal-roundtrip");
        let mut j = Journal::create(&path, &header()).unwrap();
        for n in 0..5 {
            j.append(&row(n)).unwrap();
        }
        drop(j);
        let (_j, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.header, header());
        assert_eq!(replay.records.len(), 5);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.get("n").and_then(Json::as_u64), Some(i as u64));
        }
    }

    #[test]
    fn resume_appends_after_replayed_records() {
        let path = scratch("journal-append-after");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&row(0)).unwrap();
        drop(j);
        let (mut j, _) = Journal::open_resume(&path).unwrap();
        j.append(&row(1)).unwrap();
        drop(j);
        let (_, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = scratch("journal-torn");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&row(0)).unwrap();
        j.append(&row(1)).unwrap();
        drop(j);
        // Simulate a crash mid-append: chop bytes off the last line.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 7]).unwrap();
        let (_, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.records.len(), 1, "torn row is dropped");
        // The truncation is durable: a second open sees a clean file.
        let (_, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
    }

    #[test]
    fn interior_corruption_is_a_typed_config_error() {
        let path = scratch("journal-interior");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&row(0)).unwrap();
        j.append(&row(1)).unwrap();
        drop(j);
        let text = fs::read_to_string(&path).unwrap();
        // Flip a byte inside the *first* row line (line 2).
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let mangled = format!(
            "{}{}{}",
            lines[0],
            lines[1].replace("\"n\":0", "\"n\":9"),
            lines[2]
        );
        fs::write(&path, mangled).unwrap();
        let err = Journal::open_resume(&path).unwrap_err();
        match &err {
            DpfError::Config { what } => {
                assert!(what.contains("line 2"), "{what}");
                assert!(what.contains("byte offset"), "{what}");
                assert!(what.contains("checksum mismatch"), "{what}");
            }
            other => panic!("expected Config, got {other}"),
        }
    }

    #[test]
    fn missing_journal_and_missing_header_are_config_errors() {
        let path = scratch("journal-missing");
        let err = Journal::open_resume(&path).unwrap_err();
        assert!(matches!(err, DpfError::Config { .. }), "{err}");
        // A file whose only line is torn has no intact header.
        fs::write(&path, "deadbeef {\"kind\":\"header\"").unwrap();
        let err = Journal::open_resume(&path).unwrap_err();
        match &err {
            DpfError::Config { what } => assert!(what.contains("no intact header"), "{what}"),
            other => panic!("expected Config, got {other}"),
        }
    }

    #[test]
    fn discard_removes_and_tolerates_missing() {
        let path = scratch("journal-discard");
        let j = Journal::create(&path, &header()).unwrap();
        drop(j);
        discard(&path).unwrap();
        assert!(!path.exists());
        discard(&path).unwrap(); // second discard: no-op
    }
}
