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
//! [`RsCode::decode_with`], [`RsCode::decode_hinted`]) guesses the
//! interpolant through the first `dim` present symbols outside a
//! caller-supplied suspect set, runs the check, and falls through to the
//! [`Decoder`] — whose answer takes the same check — only when the guess
//! fails. By uniqueness the two routes return the same polynomial,
//! codeword, error positions and failures; the suspect set and the shared
//! [`GuessBasis`] only decide how often the cheap route is taken and what
//! it costs.
//!
//! The check does not build the guess. [`RsCode::new`] tabulates
//! `1/(x_i − x_j)` for every pair of points (one batch inversion, `n²`
//! elements), so the read set's barycentric weights
//! `w_j = Π_{l≠j} 1/(x_j − x_l)` are products from the table, and the guess
//! agrees with an unread symbol `y_i` iff
//! `y_i·Π_j 1/(x_i − x_j) = Σ_j w_j·y_j/(x_i − x_j)`. A guess that reads a
//! liar — every word whose liars moved starts with one — is refuted at its
//! `radius + 1`-th disagreement, having inverted nothing and formed no
//! coefficient. Only a verified guess forms its coefficients, by synthetic
//! division with the same weights, and evaluates itself where it disagrees
//! or is erased. The weights and each position's product depend only on
//! the read set, so the coordinates of one result word share them.
//!
//! ## Decode plans
//!
//! Apart from the symbols themselves, everything the cheap route computes
//! depends only on *which* `dim` positions the guess reads, and a cluster
//! whose faults do not move reads the same ones round after round.
//! [`RsCode::plan`] fixes a read set and tabulates its Lagrange basis at
//! every code point and at every point the caller wants the decoded
//! polynomial at, with the table's weights and no inversion.
//! [`DecodePlan::check`] is then the eq. (9) check as a matrix–vector
//! product (the guess's value at an unread position is a dot product with
//! the read symbols) and [`DecodePlan::evaluate`] a second one: no
//! coefficient form, no inversion, no allocation beyond the error list. It
//! accepts exactly when the guess through the same symbols would have, so a
//! refuted plan goes straight to [`RsCode::solve`].
//!
//! ## Error plans
//!
//! A word the guess cannot verify — its liars moved, so no plan's read set
//! avoids them — needs a solve, and most of a Berlekamp–Massey solve
//! depends only on *which* symbols are present: the dual weights
//! `u_i = 1/Π_{j≠i}(x_i − x_j)` (products from the table) and the powers
//! `x_i^j` the syndromes are weighted by. [`RsCode::error_plan`] tabulates
//! the `(m − dim) × m` parity checks `u_i·x_i^j` of a present set once,
//! beside a [`DecodePlan`] through its first `dim` positions.
//! [`ErrorPlan::decode`] then takes the syndromes as dot products, runs the
//! same recurrence as [`BerlekampMassey`] (one function, not a copy), looks
//! for the locator's roots among the `dim` read positions only, gives each
//! error there its value in closed form
//! (`v_l = Σ_j q_l[j]·S_j / (u_l·σ′(x_l))` with `q_l = σ/(z − x_l)`, one
//! batch inversion), and corrects those symbols. The eq. (9) check and the
//! values at the targets are then the [`DecodePlan`]'s products; the check
//! finds the errors outside the read set, and fails a word whose locator is
//! not its own, which happens only beyond the radius. It returns the error
//! positions and target values [`RsCode::solve`] would, and fails exactly
//! when that does.
//!
//! Liars are senders, so the next coordinate of the same result word has
//! its errors where the last one had them, or at fewer of those positions.
//! [`ErrorPlan::decode_keeping`] keeps what it located ([`Located`]: the
//! roots, and the quotients `q_l` and inverted denominators of the read
//! errors), and [`ErrorPlan::decode_located`] decodes the next word through
//! it: `|E|` syndromes, the closed-form values with the kept inverses (a
//! value of 0 is no error), and the same eq. (9) check — no recurrence, no
//! root search, no inversion. It returns what [`ErrorPlan::decode`] would,
//! or declines when the word's errors lie elsewhere.
//!
//! ## Certificates
//!
//! A receiver does not need the whole word to know its decoding is right:
//! a polynomial that agrees with `dim + b` received symbols, at most `b`
//! of them from liars, agrees with `dim` honest ones and is therefore the
//! true polynomial ([`RsCode::certifies`]). That is what lets a CSM node
//! commit an exchange before its deadline.
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

pub use code::{Decoded, GuessBasis, RsCode, RsError};
pub use decoder::{BerlekampMassey, Decoder, Gao};
pub use plan::{DecodePlan, ErrorPlan, Located};
