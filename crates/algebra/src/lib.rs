//! # csm-algebra
//!
//! Finite fields, univariate polynomials, and dense linear algebra for the
//! [Coded State Machine](https://arxiv.org/abs/1906.10817) (Li et al., PODC
//! 2019) reproduction.
//!
//! Everything in the paper reduces to arithmetic over a finite field `F`
//! with at least `N` distinct elements (§5.1):
//!
//! * **Fields** — binary extension fields [`Gf2_8`], [`Gf2_16`], [`Gf2_32`]
//!   (Appendix A's Boolean embedding target) and the Mersenne prime field
//!   [`Fp61`], all implementing the [`Field`] trait.
//! * **Polynomials** — [`Poly`] supports Lagrange interpolation (the coded
//!   state construction of §5.1) and the division/XGCD machinery behind
//!   Reed–Solomon decoding; [`SubproductTree`] provides the fast multi-point
//!   evaluation / interpolation used by the §6.2 centralized worker.
//! * **Matrices** — [`Matrix`] with Gaussian elimination and Vandermonde
//!   builders for INTERMIX.
//! * **Operation accounting** — [`Counting`] and [`count`] implement the
//!   paper's exact complexity measure (`c(·)` counted in field additions and
//!   multiplications, §2.2).
//!
//! ## Quick example: Lagrange-coded states (eq. (7))
//!
//! ```
//! use csm_algebra::{distinct_elements, Field, Fp61, Poly};
//!
//! // K = 3 states, N = 7 nodes.
//! let omegas: Vec<Fp61> = distinct_elements(0, 3);
//! let alphas: Vec<Fp61> = distinct_elements(3, 7);
//! let states = vec![Fp61::from_u64(100), Fp61::from_u64(250), Fp61::from_u64(50)];
//!
//! // u(z) interpolates the states at the ω points...
//! let u = Poly::interpolate(&omegas, &states);
//! // ...and node i stores the coded state u(α_i).
//! let coded: Vec<Fp61> = alphas.iter().map(|&a| u.eval(a)).collect();
//! assert_eq!(coded.len(), 7);
//! // Decoding u from any 3 coded values recovers the original states.
//! let recovered = Poly::interpolate(&alphas[..3], &coded[..3]);
//! assert_eq!(recovered.eval(omegas[1]), states[1]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod count;
mod counting;
mod fastpoly;
mod field;
mod fp61;
mod gf2m;
mod matrix;
mod poly;

pub use count::OpCounts;
pub use counting::Counting;
pub use fastpoly::{fast_eval_many, fast_interpolate, SubproductTree};
pub use field::{distinct_elements, Field};
pub use fp61::Fp61;
pub use gf2m::{Gf2_16, Gf2_32, Gf2_8};
pub use matrix::{dot, Matrix};
pub use poly::{Lagrange, Poly};
