//! Application skeletons driving the collectives — paper Sections 6.5/6.6.
//!
//! The paper evaluates DPML and the SHArP designs inside two proxy apps:
//!
//! * **HPCG** (high-performance conjugate gradient): its `DDOT` kernel
//!   issues an 8-byte `MPI_Allreduce` per dot product — the small-message
//!   regime where SHArP shines (Fig. 11(a)).
//! * **miniAMR** (adaptive mesh refinement): its refinement step issues
//!   allreduces whose size grows with the global block count — the
//!   medium/large regime where DPML shines (Fig. 11(b)).
//!
//! Both apps matter to the collectives only through their *allreduce
//! size/frequency profile* interleaved with local compute, which is exactly
//! what [`app::AppProfile`] captures and [`app::run_app`] simulates.

pub mod app;
pub mod hpcg;
pub mod miniamr;

pub use app::{AppProfile, AppReport, AppStep};
pub use hpcg::HpcgConfig;
pub use miniamr::MiniAmrConfig;
