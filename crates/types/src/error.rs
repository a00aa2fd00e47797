//! Error type shared by the workspace.

use std::fmt;
use std::io;

/// Convenient result alias used throughout the workspace.
pub type Result<T, E = FsmError> = std::result::Result<T, E>;

/// Errors produced anywhere in the mining pipeline.
///
/// The variants are intentionally coarse: callers either recover by adjusting
/// configuration (e.g. an unknown edge in a transaction) or simply surface the
/// message to the user (I/O and parse failures).
#[derive(Debug)]
pub enum FsmError {
    /// A transaction referenced an edge that is not present in the catalog.
    UnknownEdge {
        /// Raw identifier that was looked up.
        edge: u32,
    },
    /// A transaction referenced a vertex outside the declared universe.
    UnknownVertex {
        /// Raw identifier that was looked up.
        vertex: u32,
    },
    /// A structural invariant of a capture structure was violated.
    ///
    /// This indicates a bug in the library (or corrupted on-disk state), not a
    /// user error; the message describes the violated invariant.
    CorruptStructure(String),
    /// Configuration is inconsistent (e.g. a zero-sized window).
    InvalidConfig(String),
    /// The requested operation needs at least one ingested batch.
    EmptyWindow,
    /// Parsing of an external format (N-Triples, FIMI, …) failed.
    Parse {
        /// 1-based line where the failure occurred, if known.
        line: Option<usize>,
        /// Human-readable description.
        message: String,
    },
    /// A durable on-disk artifact (WAL record, checkpoint, segment run, data
    /// page) failed its checksum or structural validation.
    ///
    /// Unlike [`FsmError::CorruptStructure`] — which flags an in-memory
    /// invariant violation — this variant names the *file-level artifact* that
    /// is damaged, so recovery code and operators can tell exactly which part
    /// of the durable state to distrust (and which checkpoint to fall back
    /// to).
    CorruptArtifact {
        /// Which artifact is damaged, e.g. `"wal record #3"`,
        /// `"checkpoint-16.ckpt"` or `"seg-7.run"`.
        artifact: String,
        /// What validation failed (checksum mismatch, truncated body, …).
        detail: String,
    },
    /// A service request named a tenant the registry does not know.
    UnknownTenant(String),
    /// A tenant-creation request reused an id the registry already serves.
    TenantExists(String),
    /// A tenant's ingest queue is full; the producer must retry (or slow
    /// down).  Carrying a dedicated variant lets the wire protocol map this
    /// to a retryable status instead of a generic failure.
    Backpressure {
        /// The tenant whose queue is full.
        tenant: String,
    },
    /// Underlying I/O failure (disk-backed structures, dataset readers).
    Io(io::Error),
}

impl FsmError {
    /// Shorthand for a parse error with a line number.
    pub fn parse_at(line: usize, message: impl Into<String>) -> Self {
        Self::Parse {
            line: Some(line),
            message: message.into(),
        }
    }

    /// Shorthand for a parse error without positional information.
    pub fn parse(message: impl Into<String>) -> Self {
        Self::Parse {
            line: None,
            message: message.into(),
        }
    }

    /// Shorthand for an invalid-configuration error.
    pub fn config(message: impl Into<String>) -> Self {
        Self::InvalidConfig(message.into())
    }

    /// Shorthand for a corrupt-structure error.
    pub fn corrupt(message: impl Into<String>) -> Self {
        Self::CorruptStructure(message.into())
    }

    /// Shorthand for an unknown-tenant error.
    pub fn unknown_tenant(tenant: impl Into<String>) -> Self {
        Self::UnknownTenant(tenant.into())
    }

    /// Shorthand for a duplicate-tenant error.
    pub fn tenant_exists(tenant: impl Into<String>) -> Self {
        Self::TenantExists(tenant.into())
    }

    /// Shorthand for an ingest-backpressure signal.
    pub fn backpressure(tenant: impl Into<String>) -> Self {
        Self::Backpressure {
            tenant: tenant.into(),
        }
    }

    /// Shorthand for a corrupt durable-artifact error.
    pub fn corrupt_artifact(artifact: impl Into<String>, detail: impl Into<String>) -> Self {
        Self::CorruptArtifact {
            artifact: artifact.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownEdge { edge } => write!(f, "unknown edge identifier {edge}"),
            Self::UnknownVertex { vertex } => write!(f, "unknown vertex identifier {vertex}"),
            Self::CorruptStructure(msg) => write!(f, "corrupt capture structure: {msg}"),
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::EmptyWindow => write!(f, "the sliding window contains no batches"),
            Self::Parse {
                line: Some(line),
                message,
            } => write!(f, "parse error at line {line}: {message}"),
            Self::Parse {
                line: None,
                message,
            } => write!(f, "parse error: {message}"),
            Self::CorruptArtifact { artifact, detail } => {
                write!(f, "corrupt durable artifact {artifact}: {detail}")
            }
            Self::UnknownTenant(tenant) => write!(f, "unknown tenant {tenant:?}"),
            Self::TenantExists(tenant) => write!(f, "tenant {tenant:?} already exists"),
            Self::Backpressure { tenant } => {
                write!(f, "tenant {tenant:?} ingest queue is full; retry later")
            }
            Self::Io(err) => write!(f, "I/O error: {err}"),
        }
    }
}

impl std::error::Error for FsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for FsmError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(
            FsmError::UnknownEdge { edge: 7 }.to_string(),
            "unknown edge identifier 7"
        );
        assert_eq!(
            FsmError::parse_at(3, "bad triple").to_string(),
            "parse error at line 3: bad triple"
        );
        assert_eq!(
            FsmError::parse("truncated record").to_string(),
            "parse error: truncated record"
        );
        assert_eq!(
            FsmError::config("window of 0 batches").to_string(),
            "invalid configuration: window of 0 batches"
        );
        assert_eq!(
            FsmError::EmptyWindow.to_string(),
            "the sliding window contains no batches"
        );
        assert_eq!(
            FsmError::corrupt_artifact("wal record #3", "checksum mismatch").to_string(),
            "corrupt durable artifact wal record #3: checksum mismatch"
        );
    }

    #[test]
    fn io_errors_are_wrapped_with_source() {
        let err: FsmError = io::Error::new(io::ErrorKind::NotFound, "missing").into();
        assert!(err.to_string().contains("missing"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
