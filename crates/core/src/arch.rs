//! Synchronization-architecture selector and adapter factory.

use std::fmt;

use crate::adapter::SyncAdapter;
use crate::colibri::ColibriAdapter;
use crate::lrsc::LrscAdapter;
use crate::waitq::WaitQueueAdapter;

/// Which synchronization hardware sits in front of every SPM bank.
///
/// Mirrors the design points evaluated in the paper: the MemPool LRSC
/// baseline, the centralized reservation queue with `q` slots (ideal when
/// `q = n`), and Colibri with a configurable number of queues per
/// controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncArch {
    /// MemPool-style single reservation slot per bank (the baseline).
    Lrsc,
    /// Centralized LRSCwait queue with `slots` entries per bank.
    LrscWait {
        /// Queue capacity `q`.
        slots: usize,
    },
    /// Centralized LRSCwait queue with one entry per core (`q = n`).
    LrscWaitIdeal,
    /// Colibri distributed queue with `queues` head/tail pairs per bank.
    Colibri {
        /// Concurrently tracked addresses per controller.
        queues: usize,
    },
}

impl SyncArch {
    /// Builds a fresh adapter for one bank. `num_cores` sizes the ideal
    /// queue variant.
    #[must_use]
    pub fn build(&self, num_cores: usize) -> Box<dyn SyncAdapter> {
        match *self {
            SyncArch::Lrsc => Box::new(LrscAdapter::new()),
            SyncArch::LrscWait { slots } => Box::new(WaitQueueAdapter::new(slots)),
            SyncArch::LrscWaitIdeal => Box::new(WaitQueueAdapter::ideal(num_cores)),
            SyncArch::Colibri { queues } => Box::new(ColibriAdapter::new(queues)),
        }
    }

    /// Whether this architecture implements the wait extension (so kernels
    /// using `lrwait`/`scwait`/`mwait` make forward progress without
    /// retries).
    #[must_use]
    pub fn supports_wait(&self) -> bool {
        !matches!(self, SyncArch::Lrsc)
    }

    /// Whether the distributed Qnode machinery participates (Colibri only).
    #[must_use]
    pub fn uses_qnodes(&self) -> bool {
        matches!(self, SyncArch::Colibri { .. })
    }
}

impl fmt::Display for SyncArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SyncArch::Lrsc => write!(f, "LRSC"),
            SyncArch::LrscWait { slots } => write!(f, "LRSCwait{slots}"),
            SyncArch::LrscWaitIdeal => write!(f, "LRSCwait_ideal"),
            SyncArch::Colibri { queues } => write!(f, "Colibri{queues}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_matching_labels() {
        assert_eq!(SyncArch::Lrsc.build(4).label(), "LRSC");
        assert_eq!(
            SyncArch::LrscWait { slots: 8 }.build(4).label(),
            "LRSCwait8"
        );
        assert_eq!(SyncArch::LrscWaitIdeal.build(16).label(), "LRSCwait_ideal");
        assert_eq!(SyncArch::Colibri { queues: 2 }.build(4).label(), "Colibri2");
    }

    #[test]
    fn classification() {
        assert!(!SyncArch::Lrsc.supports_wait());
        assert!(SyncArch::LrscWaitIdeal.supports_wait());
        assert!(SyncArch::Colibri { queues: 1 }.supports_wait());
        assert!(SyncArch::Colibri { queues: 1 }.uses_qnodes());
        assert!(!SyncArch::LrscWaitIdeal.uses_qnodes());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(SyncArch::LrscWait { slots: 128 }.to_string(), "LRSCwait128");
        assert_eq!(SyncArch::LrscWaitIdeal.to_string(), "LRSCwait_ideal");
    }
}
