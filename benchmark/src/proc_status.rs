//! Resident-memory readings from `/proc/self/status`.

use std::fmt;
use std::path::Path;

/// Why a memory reading is unavailable.
#[derive(Debug)]
pub enum StatusError {
    /// The status file could not be read (absent off Linux, or no procfs).
    Io(std::io::Error),
    /// The file has no line for the requested key.
    MissingKey(&'static str),
    /// The key's line is not `<key>: <number> kB`.
    Malformed(&'static str),
}

impl fmt::Display for StatusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatusError::Io(e) => write!(f, "cannot read process status: {e}"),
            StatusError::MissingKey(key) => write!(f, "process status has no {key} line"),
            StatusError::Malformed(key) => write!(f, "process status {key} line is malformed"),
        }
    }
}

/// The `key` field (e.g. `VmHWM`, `VmRSS`) of a status file, in bytes.
pub fn read_kb_field(path: &Path, key: &'static str) -> Result<u64, StatusError> {
    let text = std::fs::read_to_string(path).map_err(StatusError::Io)?;
    parse_kb_field(&text, key)
}

/// [`read_kb_field`] on this process's own status file.
pub fn own(key: &'static str) -> Result<u64, StatusError> {
    read_kb_field(Path::new("/proc/self/status"), key)
}

fn parse_kb_field(text: &str, key: &'static str) -> Result<u64, StatusError> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .ok_or(StatusError::MissingKey(key))?;
    let mut parts = line.split_whitespace();
    match (parts.next().map(str::parse::<u64>), parts.next()) {
        (Some(Ok(kb)), Some("kB")) => Ok(kb * 1024),
        _ => Err(StatusError::Malformed(key)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kilobyte_fields() {
        let text = "Name:\tbench\nVmHWM:\t   76604 kB\nVmRSS:\t   66500 kB\n";
        assert_eq!(parse_kb_field(text, "VmHWM").unwrap(), 76604 * 1024);
        assert_eq!(parse_kb_field(text, "VmRSS").unwrap(), 66500 * 1024);
    }

    #[test]
    fn missing_and_malformed_fields_are_typed_errors() {
        let text = "VmRSS:\tlots kB\nVmPeakX:\t1 kB\n";
        assert!(matches!(
            parse_kb_field(text, "VmHWM"),
            Err(StatusError::MissingKey("VmHWM"))
        ));
        assert!(matches!(
            parse_kb_field(text, "VmRSS"),
            Err(StatusError::Malformed("VmRSS"))
        ));
        assert!(matches!(
            parse_kb_field(text, "VmPeak"),
            Err(StatusError::MissingKey("VmPeak"))
        ));
    }

    #[test]
    fn absent_status_file_is_an_error_not_a_panic() {
        let missing = Path::new("no-such-dir/status");
        let err = read_kb_field(missing, "VmHWM").unwrap_err();
        assert!(matches!(err, StatusError::Io(_)));
        assert!(err.to_string().contains("cannot read process status"));
    }
}
