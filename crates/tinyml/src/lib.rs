//! # tinyml — a small neural-network library built from scratch
//!
//! The paper's tropical-cyclone localization uses a Keras/TensorFlow CNN
//! (Section 5.4). No such stack exists as an offline Rust substrate, so this
//! crate implements the pieces the workflow needs, end to end:
//!
//! * a dense [`tensor::Tensor`] type with shape bookkeeping;
//! * differentiable layers ([`layers`]): 2-D convolution, max-pooling,
//!   fully-connected, flatten, and ReLU/sigmoid/tanh activations. Layers
//!   hold only their parameters: `infer`, `input_grad` and
//!   `add_param_grads` all take `&self`. Every layer's forward is one
//!   kernel over a block of samples interleaved innermost, run on one
//!   sample by `infer` and the trainer and on a block by
//!   [`net::Sequential::infer_block`]: the convolution accumulates a block
//!   of output channels × samples per pixel, the dense layer a block of
//!   output rows × samples per pass over its input, and the convolution's
//!   gradients are passes over the non-zero output gradients, each bitwise
//!   equal to its one-output-at-a-time loop;
//! * a [`net::Sequential`] container with a cache-free, allocation-free
//!   `infer(&self, ..)` that threads share, and `infer_block` for a block
//!   of samples, each of whose outputs is bitwise the sample's alone;
//! * the TC-localization head's composite loss ([`loss`]);
//! * minibatch SGD with momentum ([`train`]), each minibatch in two phases
//!   on the `par` pool — per-sample tapes of activations and gradients,
//!   then weight gradients sharded by output row — bitwise the same at
//!   every pool width;
//! * binary model serialization ([`serialize`]) so the workflow can ship a
//!   *pre-trained* model to the inference tasks, exactly as the paper's
//!   pipeline loads pre-trained CNNs;
//! * synthetic labelled datasets ([`data`]) standing in for the historical
//!   reanalysis training data we do not have.
//!
//! Everything is plain safe Rust with exhaustive unit tests, including
//! finite-difference gradient checks; `tests/` holds the per-sample cached
//! backward chain the trainer is proven bitwise against.

pub mod data;
pub mod layers;
pub mod loss;
pub mod net;
pub mod serialize;
pub mod tensor;
pub mod train;

pub use layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU, Sigmoid};
pub use net::{Scratch, Sequential};
pub use tensor::Tensor;
