//! Typed TMU engine errors.
//!
//! Engine construction, queue sizing and context restore return one of
//! these variants on a malformed configuration, program or snapshot, so
//! harnesses (and the graceful-degradation path) can react instead of
//! dying. Two reads keep a panicking form: [`MemImage::read_index`] and
//! [`MemImage::read_bits`]. The functional interpreter calls them for
//! every element and [`Interp::next_step`] cannot fail, so an unbound or
//! misaligned read there is a program bug; their `try_*` twins return
//! the same variants, and the panic message formats them.
//!
//! [`MemImage::read_index`]: crate::MemImage::read_index
//! [`MemImage::read_bits`]: crate::MemImage::read_bits
//! [`Interp::next_step`]: crate::Interp::next_step

use std::fmt;

/// A typed TMU failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TmuError {
    /// A program step used more lanes than the engine has.
    LanesExceeded {
        /// Lanes the step needs.
        used: usize,
        /// Lanes the engine has.
        lanes: usize,
    },
    /// A stream load or operand read hit an address no tensor is bound at.
    UnboundAddress {
        /// The offending address.
        addr: u64,
    },
    /// A read straddled a bound region's element grid.
    MisalignedAddress {
        /// The offending address.
        addr: u64,
        /// The region's element size in bytes.
        elem: usize,
    },
    /// A context snapshot's step count exceeds its program's step stream.
    SnapshotOutOfRange {
        /// Steps recorded in the snapshot.
        steps: u64,
    },
    /// `size_queues` weights and per-layer stream counts disagree.
    QueueSizingMismatch {
        /// Number of weights supplied.
        weights: usize,
        /// Number of layers supplied.
        layers: usize,
    },
    /// The simulated OS exhausted its fault-service budget; the engine
    /// retired and the kernel should fall back to the software baseline.
    UnserviceableFault {
        /// Page faults seen when the engine gave up.
        serviced: u32,
        /// The configured service budget.
        limit: u32,
    },
}

impl fmt::Display for TmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmuError::LanesExceeded { used, lanes } => {
                write!(f, "program uses {used} lanes but the TMU has {lanes}")
            }
            TmuError::UnboundAddress { addr } => {
                write!(f, "unbound TMU read at {addr:#x}")
            }
            TmuError::MisalignedAddress { addr, elem } => {
                write!(f, "misaligned TMU read at {addr:#x} (element size {elem})")
            }
            TmuError::SnapshotOutOfRange { steps } => {
                write!(f, "snapshot step count exceeds program length ({steps})")
            }
            TmuError::QueueSizingMismatch { weights, layers } => {
                write!(
                    f,
                    "one weight per layer ({weights} weights, {layers} layers)"
                )
            }
            TmuError::UnserviceableFault { serviced, limit } => {
                write!(
                    f,
                    "unserviceable fault: {serviced} page faults exceed the OS service budget of {limit}"
                )
            }
        }
    }
}

impl std::error::Error for TmuError {}
