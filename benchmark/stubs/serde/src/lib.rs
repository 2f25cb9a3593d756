//! Offline stand-in for `serde`: only the derive macro names exist.

pub use serde_derive::{Deserialize, Serialize};
