//! Shared error type for the whole workspace.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the bitemporal engines, generators and query layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A named table does not exist.
    UnknownTable(String),
    /// A named column does not exist in the referenced schema.
    UnknownColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// Primary-key (possibly temporal) uniqueness violation.
    DuplicateKey(String),
    /// A DML statement referenced a key that has no visible version.
    KeyNotFound(String),
    /// An operation received a value of the wrong [`crate::DataType`].
    TypeMismatch {
        /// What the schema or operator required.
        expected: String,
        /// What was actually supplied.
        found: String,
    },
    /// A period with `start >= end` (empty or inverted) where a non-empty
    /// period is required.
    EmptyPeriod(String),
    /// The requested point in system time precedes the retention window
    /// (models Oracle's Flashback retention limit, paper §2.4).
    BeyondRetention(String),
    /// A temporal feature is not supported by the engine under test
    /// (e.g. native application time on System C, paper §2.6).
    Unsupported(String),
    /// Attempt to modify data inside a transaction that was already closed.
    TransactionClosed,
    /// Archive (de)serialization failure.
    Archive(String),
    /// A morsel worker panicked; the scan was contained and aborted.
    WorkerPanicked {
        /// Index of the morsel whose worker panicked.
        morsel: u64,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A benchmark query exceeded its wall-clock budget.
    QueryTimeout {
        /// The budget that was exceeded, in milliseconds.
        millis: u64,
    },
    /// A query panicked and was caught by the bench runner.
    Panicked(String),
    /// First-committer-wins validation failed: another transaction that
    /// committed after this one's snapshot was pinned wrote an overlapping
    /// key range. The transaction's buffered writes were discarded; the
    /// caller decides whether to re-run it against a fresh snapshot.
    /// Deliberately *not* [`Error::is_retryable`]: a blind op-level retry
    /// would re-drive the same stale writes.
    Conflict(String),
    /// A retryable I/O condition (interrupted, timed out, would block).
    Transient(String),
    /// Catch-all for invalid arguments.
    Invalid(String),
    /// An engine-internal invariant was violated (a bug, not bad input).
    /// Surfaced as an error instead of a panic so a broken engine cannot
    /// take the whole benchmark run down with it.
    Internal(String),
}

impl Error {
    /// True for failures a caller may sensibly retry or continue past:
    /// transient I/O, timeouts, and contained panics. Data corruption
    /// ([`Error::Archive`]) and logic errors are not retryable.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::Transient(_)
                | Error::QueryTimeout { .. }
                | Error::WorkerPanicked { .. }
                | Error::Panicked(_)
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTable(t) => write!(f, "unknown table: {t}"),
            Error::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            Error::TableExists(t) => write!(f, "table already exists: {t}"),
            Error::DuplicateKey(k) => write!(f, "duplicate key: {k}"),
            Error::KeyNotFound(k) => write!(f, "key not found: {k}"),
            Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            Error::EmptyPeriod(p) => write!(f, "empty or inverted period: {p}"),
            Error::BeyondRetention(t) => write!(f, "system time beyond retention: {t}"),
            Error::Unsupported(m) => write!(f, "unsupported temporal feature: {m}"),
            Error::TransactionClosed => write!(f, "transaction already closed"),
            Error::Archive(m) => write!(f, "archive error: {m}"),
            Error::WorkerPanicked { morsel, message } => {
                write!(f, "worker panicked on morsel {morsel}: {message}")
            }
            Error::QueryTimeout { millis } => {
                write!(f, "query exceeded {millis} ms wall-clock budget")
            }
            Error::Panicked(m) => write!(f, "query panicked: {m}"),
            Error::Conflict(m) => write!(f, "write-write conflict: {m}"),
            Error::Transient(m) => write!(f, "transient I/O error: {m}"),
            Error::Invalid(m) => write!(f, "invalid argument: {m}"),
            Error::Internal(m) => write!(f, "internal invariant violated: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock => {
                Error::Transient(e.to_string())
            }
            _ => Error::Archive(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = Error::TypeMismatch {
            expected: "Int".into(),
            found: "Str".into(),
        };
        assert_eq!(e.to_string(), "type mismatch: expected Int, found Str");
        assert_eq!(
            Error::UnknownTable("orders".into()).to_string(),
            "unknown table: orders"
        );
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Archive(_)));
    }

    #[test]
    fn retryable_io_errors_become_transient() {
        for kind in [
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::TimedOut,
            std::io::ErrorKind::WouldBlock,
        ] {
            let e: Error = std::io::Error::new(kind, "flaky").into();
            assert!(matches!(e, Error::Transient(_)), "{kind:?}");
            assert!(e.is_retryable());
        }
    }

    #[test]
    fn retryability_classification() {
        assert!(Error::QueryTimeout { millis: 5 }.is_retryable());
        assert!(Error::WorkerPanicked {
            morsel: 3,
            message: "x".into()
        }
        .is_retryable());
        assert!(Error::Panicked("x".into()).is_retryable());
        assert!(!Error::Archive("corrupt".into()).is_retryable());
        assert!(!Error::UnknownTable("t".into()).is_retryable());
        assert!(!Error::Internal("broken invariant".into()).is_retryable());
        // A serialization conflict must go back to the *transaction* level
        // (re-run against a fresh snapshot), never to a blind op retry.
        assert!(!Error::Conflict("k=3".into()).is_retryable());
    }
}
