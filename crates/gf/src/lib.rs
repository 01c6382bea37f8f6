//! Binary extension-field arithmetic GF(2^m) and polynomials over it.
//!
//! This crate is the lowest-level substrate of the PBS reproduction. Every
//! BCH-style syndrome sketch in the workspace (the PBS parity-bitmap sketch
//! and the PinSketch baseline) is decoded with arithmetic from this crate:
//!
//! * [`Field`] — a binary extension field GF(2^m) for `3 <= m <= 32`,
//!   with log/antilog tables iff `m <= 16` and carry-less multiplication
//!   with Barrett reduction above. The backend is a function of `m` alone
//!   (Barrett's carry-less multiply is hardware PCLMUL when the CPU has it,
//!   portable otherwise), resolved once at construction and cached; see
//!   the `field` module docs. Batched entry points (`mul_slice`,
//!   `square_slice`, `scalar_mul_slice`) amortize dispatch for the syndrome
//!   kernels in `bch`.
//! * [`Poly`] — dense polynomials over a [`Field`], with the operations a
//!   Berlekamp–Massey decoder and a Berlekamp-trace root finder need:
//!   multiplication, remainder, gcd, evaluation and modular squaring.
//!
//! Field elements are represented as `u64` values whose low `m` bits are the
//! coefficients of the polynomial-basis representation. The zero element is
//! `0`; the multiplicative identity is `1`.
//!
//! # Example
//!
//! ```
//! use gf::Field;
//!
//! let f = Field::new(8);
//! let a = 0x53;
//! let b = 0xCA;
//! let c = f.mul(a, b);
//! assert_eq!(f.mul(c, f.inv(b)), a);
//! ```

#![warn(missing_docs)]

mod field;
mod poly;

pub use field::{Field, PowerPlanes};
pub use poly::Poly;
