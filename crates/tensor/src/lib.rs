//! # rdo-tensor
//!
//! Dense `f32` tensor substrate for the reproduction of *"Digital Offset for
//! RRAM-based Neuromorphic Computing"* (DATE 2021).
//!
//! The crate deliberately implements only what the rest of the workspace
//! needs — shapes, elementwise math, a register-tiled [`matmul()`] built on
//! the [`microkernel`] module, im2col convolution lowering and seeded
//! random construction — with no external math dependencies and no
//! `unsafe` outside the small audited core of the persistent worker
//! [`pool`], so the full stack (NN training, crossbar simulation,
//! VAWO/PWT optimization) is auditable end to end. Hot paths reuse
//! buffers through one [`scratch`] pool per thread instead of allocating
//! per call, and every parallel region runs on the spawn-once [`pool`]
//! rather than spawning threads per call.
//!
//! # Examples
//!
//! ```
//! use rdo_tensor::{matmul, Tensor};
//! use rdo_tensor::rng::{randn, seeded_rng};
//!
//! let mut rng = seeded_rng(1);
//! let w = randn(&[4, 3], 0.0, 1.0, &mut rng);
//! let x = Tensor::ones(&[3, 2]);
//! let y = matmul(&w, &x)?;
//! assert_eq!(y.dims(), &[4, 2]);
//! # Ok::<(), rdo_tensor::TensorError>(())
//! ```

// `deny` rather than `forbid`: the persistent worker pool's type-erased
// task pointer (`pool::TaskPtr`) is the one audited exception, opted in
// item by item with `#[allow(unsafe_code)]` and a safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod conv;
pub mod matmul;
pub mod microkernel;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod scratch;

pub use conv::{
    col2im, col2im_into, conv2d_direct_into, conv2d_lowered_into, im2col, im2col_into,
    patch_group_sums_into, transposed_kernel_into, Conv2dGeometry,
};
pub use error::{Result, TensorError};
pub use matmul::{auto_threads, matmul, matmul_into, matmul_into_threads, vecmat};
pub use microkernel::PackedA;
pub use parallel::{available_threads, parallel_map_indexed, resolve_threads};
pub use shape::Shape;
pub use tensor::Tensor;
