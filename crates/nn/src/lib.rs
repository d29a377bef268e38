//! # rdo-nn
//!
//! A minimal-but-real neural-network framework: layers with explicit
//! backward passes, softmax cross-entropy, SGD with momentum, 8-bit
//! ISAAC-style weight quantization and lognormal weight-noise injection.
//!
//! It exists because the paper's two enabling techniques both require a
//! trainable framework: **VAWO** consumes per-weight loss gradients measured
//! on the training set, and **PWT** backpropagates through the crossbar-
//! mapped network to train the digital offsets. The crate provides the three
//! networks the paper evaluates — [`LeNetConfig`] (MNIST), [`ResNetConfig`]
//! (CIFAR-10) and [`VggConfig`] (the Table III comparison) — plus scaled
//! presets sized for a single CPU core.
//!
//! # Examples
//!
//! ```
//! use rdo_nn::{fit, Linear, Relu, Sequential, TrainConfig};
//! use rdo_tensor::rng::{randn, seeded_rng};
//!
//! let mut rng = seeded_rng(0);
//! let mut net = Sequential::new();
//! net.push(Linear::new(4, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Linear::new(8, 2, &mut rng));
//!
//! let x = randn(&[32, 4], 0.0, 1.0, &mut rng);
//! let labels: Vec<usize> = (0..32).map(|i| i % 2).collect();
//! let report = fit(&mut net, &x, &labels, &TrainConfig { epochs: 2, ..Default::default() })?;
//! assert_eq!(report.epoch_losses.len(), 2);
//! # Ok::<(), rdo_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv;
mod error;
mod layer;
mod lenet;
mod linear;
mod norm;
mod optim;
mod pool;
mod resnet;
mod row_groups;
mod sequential;
mod vgg;

pub mod loss;
pub mod metrics;
pub mod noise;
pub mod quant;
pub mod train;

pub use activation::{Flatten, Relu};
pub use conv::Conv2d;
pub use error::{NnError, Result};
pub use layer::{Layer, Param, ParamKind};
pub use lenet::LeNetConfig;
pub use linear::Linear;
pub use loss::{softmax, SoftmaxCrossEntropy};
pub use norm::BatchNorm2d;
pub use optim::Sgd;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use resnet::ResNetConfig;
pub use row_groups::RowGroups;
pub use sequential::{Residual, Sequential};
pub use train::{
    batch_gather, batch_gather_buf, batch_slice, batch_slice_buf, evaluate, evaluate_packed, fit,
    PackedDataset, TrainConfig, TrainReport,
};
pub use vgg::{VggConfig, VggItem};
