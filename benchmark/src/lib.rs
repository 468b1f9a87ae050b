//! The PEPPER benchmark (see `README.md` next to this package).

pub mod compare;
pub mod driver;
pub mod json;
pub mod micro;
pub mod report;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
