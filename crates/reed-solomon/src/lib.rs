//! # csm-reed-solomon
//!
//! Reed–Solomon codes over *arbitrary* evaluation points, with
//! error-and-erasure decoding.
//!
//! This is the "noisy polynomial interpolation" engine of the Coded State
//! Machine (§5.2): each honest node `i` contributes one evaluation
//! `g_i = h_t(α_i)` of the composite polynomial
//! `h_t(z) = f(u_t(z), v_t(z))` of degree `≤ d(K−1)`; up to `b` contributions
//! are arbitrarily wrong (Byzantine) and, in the partially synchronous
//! setting, up to `b` more are missing (erasures). Decoding a Reed–Solomon
//! code of dimension `d(K−1)+1` and length `N` recovers `h_t`, from which
//! every `(S_k(t+1), Y_k(t)) = h_t(ω_k)` follows.
//!
//! Two decoders are provided (same answers, different costs — compared in
//! the `rs_decode` bench):
//!
//! * [`BerlekampMassey`] — the syndrome decoder: `O(n²)`, no matrix, the
//!   cheaper of the two at every size the bench covers and what
//!   [`RsCode::decode`] runs;
//! * [`Gao`] — the extended-Euclidean decoder, asymptotically cheaper with
//!   fast polynomial arithmetic. It shares no code with the first and stays
//!   as the independent reference the property tests and the cluster-level
//!   ablation compare it against.
//!
//! ## Verify first
//!
//! No decoder runs unless it has to. The paper's §6.2 criterion
//! (eq. 9; [`RsCode::tau_threshold`]) says a polynomial of degree `< dim`
//! is the decoding **iff** it disagrees with at most `⌊(present − dim)/2⌋`
//! of the `present` received symbols: two polynomials passing that check
//! would agree with each other on `≥ dim` positions, hence be equal. So a
//! candidate is *checked* in `O(n·dim)` where *finding* one costs a decoder
//! `O(n²)` at best. Every entry point ([`RsCode::decode`],
//! [`RsCode::decode_with`], [`RsCode::decode_hinted`]) interpolates a guess
//! through the first `dim` present symbols outside a caller-supplied
//! suspect set, runs the check, and falls through to the [`Decoder`] —
//! whose answer takes the same check — only when the guess fails. By
//! uniqueness the two routes return the same polynomial, codeword, error
//! positions and failures; the suspect set and the shared interpolation
//! basis only decide how often the cheap route is taken.
//!
//! ## Decode plans
//!
//! Apart from the symbols themselves, everything the cheap route computes
//! depends only on *which* `dim` positions the guess reads, and a cluster
//! whose faults do not move reads the same ones round after round.
//! [`RsCode::plan`] fixes a read set and tabulates its Lagrange basis at
//! every code point and at every point the caller wants the decoded
//! polynomial at, for one inversion. [`DecodePlan::check`] is then the
//! eq. (9) check as a matrix–vector product (the guess's value at an unread
//! position is a dot product with the read symbols) and
//! [`DecodePlan::evaluate`] a second one: no coefficient form, no
//! inversion, no allocation beyond the error list. It accepts exactly when
//! the guess through the same symbols would have, so a refuted plan goes
//! straight to [`RsCode::solve`].
//!
//! ## Example
//!
//! ```
//! use csm_algebra::{distinct_elements, Field, Fp61, Poly};
//! use csm_reed_solomon::RsCode;
//!
//! // length-10 code of dimension 4: corrects (10-4)/2 = 3 errors.
//! let points: Vec<Fp61> = distinct_elements(0, 10);
//! let code = RsCode::new(points, 4).unwrap();
//! let msg: Vec<Fp61> = (1..=4).map(Fp61::from_u64).collect();
//! let mut word: Vec<Option<Fp61>> = code.encode(&msg).unwrap().into_iter().map(Some).collect();
//!
//! // Three Byzantine corruptions.
//! word[1] = Some(Fp61::from_u64(999));
//! word[4] = Some(Fp61::from_u64(123));
//! word[7] = Some(Fp61::from_u64(77));
//!
//! let decoded = code.decode(&word).unwrap();
//! assert_eq!(decoded.message(), &msg[..]);
//! assert_eq!(decoded.error_positions(), &[1, 4, 7]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod code;
mod decoder;
mod plan;

pub use code::{Decoded, RsCode, RsError};
pub use decoder::{BerlekampMassey, Decoder, Gao};
pub use plan::DecodePlan;
