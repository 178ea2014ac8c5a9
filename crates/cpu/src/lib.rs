//! # counterlab-cpu
//!
//! A micro-architectural model of the three IA32 processors studied by
//! *“Accuracy of Performance Counter Measurements”* (Zaparanuks, Jovic,
//! Hauswirth; ISPASS 2009): the Pentium D 925 (NetBurst), the Core 2 Duo
//! E6600 (Core2) and the Athlon 64 X2 4200+ (K8).
//!
//! The crate provides everything the higher layers (simulated kernel,
//! perfctr/perfmon2 kernel extensions, libpfm/libperfctr/PAPI) need from
//! "hardware":
//!
//! * [`uarch`] — per-processor descriptors straight out of the paper's
//!   Table 1: clock frequency, micro-architecture, and the number of fixed
//!   and programmable performance counters;
//! * [`pmu`] — the performance monitoring unit: programmable counters with
//!   user/kernel conditional counting (§2.5), fixed-function counters, and
//!   the time stamp counter;
//! * [`msr`] — model-specific register addresses and the `RDMSR`/`WRMSR`/
//!   `RDPMC`/`RDTSC` access rules of §2.2, including the `CR4.PCE` bit that
//!   gates user-mode `RDPMC`;
//! * [`mix`] — instruction mixes: the unit of work the execution engine
//!   retires;
//! * [`layout`], [`branch`], [`icache`], [`timing`] — the code-placement
//!   machinery behind §6's observation that cycle counts depend on where the
//!   measured loop lands in memory;
//! * [`machine`] — the execution engine that ties it all together.
//!
//! # Examples
//!
//! Count retired instructions of a small user-mode code block on a Core 2:
//!
//! ```
//! use counterlab_cpu::prelude::*;
//!
//! let mut m = Machine::new(Processor::Core2Duo);
//! let idx = m
//!     .pmu_mut()
//!     .program(0, PmcConfig::counting(Event::InstructionsRetired, CountMode::UserOnly))
//!     .unwrap();
//! let mix = InstMix::straight_line(100);
//! m.execute_mix(&mix, Privilege::User);
//! assert_eq!(m.pmu().read_pmc(idx).unwrap(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod hash;
pub mod icache;
pub mod layout;
pub mod machine;
pub mod mix;
pub mod msr;
pub mod pmu;
pub mod timing;
pub mod uarch;

mod error;
mod lru_sets;

pub use error::CpuError;

/// Commonly used types.
pub mod prelude {
    pub use crate::layout::{BuildFingerprint, CodePlacement};
    pub use crate::machine::{Machine, Privilege};
    pub use crate::mix::InstMix;
    pub use crate::pmu::{CountMode, Event, PmcConfig, Pmu};
    pub use crate::timing::CyclesPerIteration;
    pub use crate::uarch::{MicroArch, Processor, Uarch};
    pub use crate::CpuError;
}

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CpuError>;
