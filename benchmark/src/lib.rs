//! The repo benchmark: four workloads over the hp-load → hp-edge socket,
//! two gated end-to-end metrics, and a per-layer ledger. See `README.md`.

pub mod child;
pub mod drive;
pub mod est;
pub mod gen;
pub mod layers;
pub mod replay;
pub mod report;
pub mod run;
pub mod spec;
pub mod verify;
