//! Dense row-major 2-D grids.
//!
//! [`Grid2<T>`] is the storage type shared by the whole workspace: surfaces
//! are `Grid2<f64>` height fields, spectra and DFT workspaces are
//! `Grid2<Complex64>`-shaped buffers (the FFT crate operates on the raw
//! slice). The type is intentionally plain — contiguous `Vec<T>`, `(nx,
//! ny)` dimensions, row-major with `x` as the fast axis — so hot loops can
//! borrow `as_slice()` / `row()` and vectorise.
//!
//! Index convention used throughout the workspace (matching the paper's
//! `f(x, y)` with `n_x = 0..N_x`, `n_y = 0..N_y`): `get(ix, iy)` where `ix`
//! runs along a row.

#![warn(missing_docs)]

pub mod grid;
pub mod profile;
pub mod window;

pub use grid::Grid2;
pub use profile::{extract_column, extract_profile, extract_row, Profile};
/// Re-exported for the codecs that checksum grid bytes (`rrs-io`'s
/// snapshots and checkpoints, `rrs-serve`'s frames), which reach `rrs-num`
/// only through this crate.
pub use rrs_num::{fnv1a, fnv1a_extend, word_checksum, word_checksum_extend, WordChecksum};
pub use rrs_error::RrsError;
pub use window::Window;
