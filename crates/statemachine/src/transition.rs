//! [`PolyTransition`] — polynomial state transition functions.

use crate::multipoly::MultiPoly;
use csm_algebra::Field;

/// Errors from constructing or applying a transition function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionError {
    /// A component polynomial has the wrong variable count.
    ArityMismatch {
        /// Expected variable count (`state_dim + input_dim`).
        expected: usize,
        /// Actual variable count of the offending polynomial.
        got: usize,
    },
    /// A state or input vector has the wrong length.
    DimensionMismatch {
        /// What was being checked ("state" or "input").
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
}

impl std::fmt::Display for TransitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitionError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "component polynomial has {got} variables, expected {expected}"
                )
            }
            TransitionError::DimensionMismatch {
                what,
                expected,
                got,
            } => {
                write!(f, "{what} vector has length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for TransitionError {}

/// How a machine aggregates a per-round *program* (an ordered batch) of
/// commands into one coded round.
///
/// Classified structurally from the transition polynomials by
/// [`PolyTransition::aggregation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// The machine is additive in its commands: every next-state
    /// coordinate is `s_i + L_i(x)` with `L_i` homogeneous linear in the
    /// inputs, and every output is an affine combination of the
    /// next-state coordinates. A batch `[x_1, …, x_m]` is then exactly
    /// equivalent to the single command `x_1 + … + x_m` (component-wise,
    /// in-field): the whole queue folds into one round input with
    /// unlimited batch size at unchanged composite degree.
    Fold,
    /// General machine: a batch is evaluated as a bounded per-round
    /// program of chained transition applications. The composite degree
    /// compounds per step (`d^m(K−1)` after `m` steps), so the code
    /// dimension must be sized for the program cap when the
    /// `CodedMachine` is constructed.
    Program,
}

/// A deterministic state machine `(S(t+1), Y(t)) = f(S(t), X(t))` where
/// every coordinate of `f` is a multivariate polynomial in the
/// `state_dim + input_dim` variables `[s_0, …, s_{sd−1}, x_0, …, x_{id−1}]`.
///
/// The paper's CSM applies the *same* `f` to coded states and commands; the
/// composite polynomial `h(z) = f(u(z), v(z))` then has degree at most
/// `d(K−1)` where `d` is [`PolyTransition::degree`] (§5.2).
///
/// # Examples
///
/// ```
/// use csm_algebra::{Field, Fp61};
/// use csm_statemachine::machines::bank_machine;
///
/// let f = bank_machine::<Fp61>();
/// let (next, out) = f.apply(&[Fp61::from_u64(100)], &[Fp61::from_u64(25)]).unwrap();
/// assert_eq!(next[0], Fp61::from_u64(125));
/// assert_eq!(out[0], Fp61::from_u64(125));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyTransition<F> {
    state_dim: usize,
    input_dim: usize,
    next_state: Vec<MultiPoly<F>>,
    output: Vec<MultiPoly<F>>,
}

impl<F: Field> PolyTransition<F> {
    /// Creates a transition function from the next-state and output
    /// component polynomials, each in `state_dim + input_dim` variables.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError::ArityMismatch`] if any polynomial's
    /// variable count differs from `state_dim + input_dim`.
    pub fn new(
        state_dim: usize,
        input_dim: usize,
        next_state: Vec<MultiPoly<F>>,
        output: Vec<MultiPoly<F>>,
    ) -> Result<Self, TransitionError> {
        let expected = state_dim + input_dim;
        for p in next_state.iter().chain(&output) {
            if p.num_vars() != expected {
                return Err(TransitionError::ArityMismatch {
                    expected,
                    got: p.num_vars(),
                });
            }
        }
        Ok(PolyTransition {
            state_dim,
            input_dim,
            next_state,
            output,
        })
    }

    /// Dimension of the state vector `S`.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Dimension of the input command vector `X`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Dimension of the output vector `Y`.
    pub fn output_dim(&self) -> usize {
        self.output.len()
    }

    /// The next-state component polynomials.
    pub fn next_state_polys(&self) -> &[MultiPoly<F>] {
        &self.next_state
    }

    /// The degree `d` of the transition function: the maximum total degree
    /// over all component polynomials (at least 1, so a constant machine
    /// still yields a valid code dimension).
    pub fn degree(&self) -> u32 {
        self.next_state
            .iter()
            .chain(&self.output)
            .map(MultiPoly::total_degree)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Degree bound `d(K−1)` of the composite polynomial
    /// `h(z) = f(u(z), v(z))` when `u, v` interpolate `K` values (§5.2).
    pub fn composite_degree_bound(&self, k: usize) -> usize {
        self.degree() as usize * k.saturating_sub(1)
    }

    /// Applies the transition: returns `(S(t+1), Y(t))`.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError::DimensionMismatch`] if `state` or `input`
    /// have the wrong length.
    pub fn apply(&self, state: &[F], input: &[F]) -> Result<(Vec<F>, Vec<F>), TransitionError> {
        if state.len() != self.state_dim {
            return Err(TransitionError::DimensionMismatch {
                what: "state",
                expected: self.state_dim,
                got: state.len(),
            });
        }
        if input.len() != self.input_dim {
            return Err(TransitionError::DimensionMismatch {
                what: "input",
                expected: self.input_dim,
                got: input.len(),
            });
        }
        let mut point = Vec::with_capacity(self.state_dim + self.input_dim);
        point.extend_from_slice(state);
        point.extend_from_slice(input);
        let next = self.next_state.iter().map(|p| p.eval(&point)).collect();
        let out = self.output.iter().map(|p| p.eval(&point)).collect();
        Ok((next, out))
    }

    /// Applies the transition and concatenates `(S(t+1), Y(t))` into the
    /// single vector the CSM execution phase broadcasts as `g_i` (§5.2).
    ///
    /// # Errors
    ///
    /// Same as [`PolyTransition::apply`].
    pub fn apply_flat(&self, state: &[F], input: &[F]) -> Result<Vec<F>, TransitionError> {
        let (mut next, out) = self.apply(state, input)?;
        next.extend(out);
        Ok(next)
    }

    /// The composite polynomials `h_j(z) = f_j(u(z), v(z))` of §5.2,
    /// computed symbolically: substitute the state Lagrange polynomials
    /// `u` and command polynomials `v` into every component of `f`.
    /// Returned in `apply_flat` order (next-state coordinates, then
    /// outputs). Each has degree at most
    /// [`PolyTransition::composite_degree_bound`].
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != state_dim` or `v.len() != input_dim`.
    pub fn composite_polys(
        &self,
        u: &[csm_algebra::Poly<F>],
        v: &[csm_algebra::Poly<F>],
    ) -> Vec<csm_algebra::Poly<F>> {
        assert_eq!(
            u.len(),
            self.state_dim,
            "one u-polynomial per state coordinate"
        );
        assert_eq!(
            v.len(),
            self.input_dim,
            "one v-polynomial per input coordinate"
        );
        let mut subs = u.to_vec();
        subs.extend_from_slice(v);
        self.next_state
            .iter()
            .chain(&self.output)
            .map(|p| p.compose(&subs))
            .collect()
    }

    /// Classifies how this machine aggregates a per-round batch of
    /// commands (see [`Aggregation`]).
    ///
    /// [`Aggregation::Fold`] requires, structurally:
    ///
    /// * every next-state polynomial is `s_i + L_i(x)` where `L_i` is
    ///   homogeneous linear in the input variables alone (so per-command
    ///   increments telescope and the zero command is a no-op), and
    /// * every output polynomial is an affine combination of the
    ///   next-state polynomials (so the folded round's output equals the
    ///   final sequential command's output).
    ///
    /// Everything else is [`Aggregation::Program`].
    pub fn aggregation(&self) -> Aggregation {
        for (i, p) in self.next_state.iter().enumerate() {
            let mut saw_self = false;
            for t in p.terms() {
                if is_state_var(&t.exps, self.state_dim, i) {
                    if t.coeff != F::ONE {
                        return Aggregation::Program;
                    }
                    saw_self = true;
                } else if !is_input_linear(&t.exps, self.state_dim) {
                    return Aggregation::Program;
                }
            }
            if !saw_self {
                return Aggregation::Program;
            }
        }
        for q in &self.output {
            // subtract each next-state poly scaled by q's s_i coefficient;
            // an affine combination leaves a constant residual
            let mut residual = q.clone();
            for (i, p) in self.next_state.iter().enumerate() {
                let c = q
                    .terms()
                    .iter()
                    .find(|t| is_state_var(&t.exps, self.state_dim, i))
                    .map_or(F::ZERO, |t| t.coeff);
                if !c.is_zero() {
                    residual = residual.add(&p.scale(-c));
                }
            }
            if residual.total_degree() != 0 {
                return Aggregation::Program;
            }
        }
        Aggregation::Fold
    }

    /// Whether the all-zero command leaves the state unchanged — the
    /// padding requirement for evaluating uneven per-shard programs
    /// (idle shards and short programs run zero-command no-op steps).
    pub fn zero_command_is_noop(&self) -> bool {
        self.next_state.iter().enumerate().all(|(i, p)| {
            // substituting x = 0 drops every term touching an input var;
            // what remains must be exactly s_i
            let kept: Vec<&crate::multipoly::Term<F>> = p
                .terms()
                .iter()
                .filter(|t| t.exps[self.state_dim..].iter().all(|&e| e == 0))
                .collect();
            kept.len() == 1
                && kept[0].coeff == F::ONE
                && is_state_var(&kept[0].exps, self.state_dim, i)
        })
    }

    /// Folds a batch of commands into the single equivalent round input
    /// (component-wise in-field sum). Exact only for
    /// [`Aggregation::Fold`] machines; the empty batch folds to the
    /// all-zero no-op command.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError::DimensionMismatch`] if any command has
    /// the wrong length.
    pub fn fold_commands(&self, batch: &[Vec<F>]) -> Result<Vec<F>, TransitionError> {
        let mut folded = vec![F::ZERO; self.input_dim];
        for cmd in batch {
            if cmd.len() != self.input_dim {
                return Err(TransitionError::DimensionMismatch {
                    what: "input",
                    expected: self.input_dim,
                    got: cmd.len(),
                });
            }
            for (acc, &x) in folded.iter_mut().zip(cmd) {
                *acc += x;
            }
        }
        Ok(folded)
    }

    /// Maps the machine into another field coefficient-wise (used for the
    /// Appendix-A embedding and for wrapping in
    /// [`csm_algebra::Counting`]).
    pub fn map_field<G: Field>(&self, f: impl Fn(F) -> G + Copy) -> PolyTransition<G> {
        PolyTransition {
            state_dim: self.state_dim,
            input_dim: self.input_dim,
            next_state: self.next_state.iter().map(|p| p.map_coeffs(f)).collect(),
            output: self.output.iter().map(|p| p.map_coeffs(f)).collect(),
        }
    }
}

/// Whether `exps` is exactly the monomial `s_i` (state variable `i` to
/// the first power, everything else zero).
fn is_state_var(exps: &[u32], state_dim: usize, i: usize) -> bool {
    exps.iter()
        .enumerate()
        .all(|(j, &e)| if j == i { e == 1 } else { e == 0 })
        && i < state_dim
}

/// Whether `exps` is a degree-1 monomial in a single *input* variable.
fn is_input_linear(exps: &[u32], state_dim: usize) -> bool {
    exps[..state_dim].iter().all(|&e| e == 0) && exps[state_dim..].iter().sum::<u32>() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::Fp61;

    fn f(v: u64) -> Fp61 {
        Fp61::from_u64(v)
    }

    /// S' = S + X, Y = S·X : degree 2 machine for testing.
    fn product_machine() -> PolyTransition<Fp61> {
        PolyTransition::new(
            1,
            1,
            vec![MultiPoly::from_terms(
                2,
                vec![(Fp61::ONE, vec![1, 0]), (Fp61::ONE, vec![0, 1])],
            )],
            vec![MultiPoly::from_terms(2, vec![(Fp61::ONE, vec![1, 1])])],
        )
        .unwrap()
    }

    #[test]
    fn apply_computes_both_components() {
        let m = product_machine();
        let (next, out) = m.apply(&[f(7)], &[f(5)]).unwrap();
        assert_eq!(next, vec![f(12)]);
        assert_eq!(out, vec![f(35)]);
        assert_eq!(m.apply_flat(&[f(7)], &[f(5)]).unwrap(), vec![f(12), f(35)]);
    }

    #[test]
    fn degree_is_max_over_components() {
        let m = product_machine();
        assert_eq!(m.degree(), 2);
        assert_eq!(m.composite_degree_bound(5), 8); // d(K-1) = 2*4
        assert_eq!(m.composite_degree_bound(1), 0);
    }

    #[test]
    fn arity_checked_at_construction() {
        let bad = MultiPoly::<Fp61>::var(3, 0);
        let err = PolyTransition::new(1, 1, vec![bad], vec![]).unwrap_err();
        assert_eq!(
            err,
            TransitionError::ArityMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn dimensions_checked_at_apply() {
        let m = product_machine();
        assert!(matches!(
            m.apply(&[f(1), f(2)], &[f(3)]),
            Err(TransitionError::DimensionMismatch { what: "state", .. })
        ));
        assert!(matches!(
            m.apply(&[f(1)], &[]),
            Err(TransitionError::DimensionMismatch { what: "input", .. })
        ));
    }

    #[test]
    fn constant_machine_degree_floor() {
        let m = PolyTransition::new(1, 1, vec![MultiPoly::constant(2, f(9))], vec![]).unwrap();
        assert_eq!(m.degree(), 1);
    }

    #[test]
    fn bank_like_machine_folds() {
        // S' = S + X, Y = S + X (an affine combination of next-state):
        // the canonical Fold machine
        let next = MultiPoly::from_terms(2, vec![(Fp61::ONE, vec![1, 0]), (Fp61::ONE, vec![0, 1])]);
        let m = PolyTransition::new(1, 1, vec![next.clone()], vec![next]).unwrap();
        assert_eq!(m.aggregation(), Aggregation::Fold);
        assert!(m.zero_command_is_noop());
        let batch = vec![vec![f(3)], vec![f(10)], vec![f(4)]];
        assert_eq!(m.fold_commands(&batch).unwrap(), vec![f(17)]);
        assert_eq!(m.fold_commands(&[]).unwrap(), vec![f(0)]);
        // folding ≡ sequential application, state and (final) output
        let mut s = vec![f(100)];
        let mut last = Vec::new();
        for cmd in &batch {
            let (next, out) = m.apply(&s, cmd).unwrap();
            s = next;
            last = out;
        }
        let (folded_s, folded_y) = m.apply(&[f(100)], &[f(17)]).unwrap();
        assert_eq!(folded_s, s);
        assert_eq!(folded_y, last);
    }

    #[test]
    fn nonlinear_and_echoing_machines_are_programs() {
        // Y = S·X is not an affine combination of next-state
        assert_eq!(product_machine().aggregation(), Aggregation::Program);
        // S' = S + S·X (interest-like): increment depends on state
        let m = PolyTransition::new(
            1,
            1,
            vec![MultiPoly::from_terms(
                2,
                vec![(Fp61::ONE, vec![1, 0]), (Fp61::ONE, vec![1, 1])],
            )],
            vec![],
        )
        .unwrap();
        assert_eq!(m.aggregation(), Aggregation::Program);
        assert!(m.zero_command_is_noop());
        // Y = X echoes the command itself: folding would sum the batch
        let m = PolyTransition::new(
            1,
            1,
            vec![MultiPoly::from_terms(
                2,
                vec![(Fp61::ONE, vec![1, 0]), (Fp61::ONE, vec![0, 1])],
            )],
            vec![MultiPoly::var(2, 1)],
        )
        .unwrap();
        assert_eq!(m.aggregation(), Aggregation::Program);
    }

    #[test]
    fn affine_increments_break_zero_noop_and_fold() {
        // S' = S + X + 1: the constant term makes the zero command a
        // mutation, and the increments no longer telescope
        let m = PolyTransition::new(
            1,
            1,
            vec![MultiPoly::from_terms(
                2,
                vec![
                    (Fp61::ONE, vec![1, 0]),
                    (Fp61::ONE, vec![0, 1]),
                    (Fp61::ONE, vec![0, 0]),
                ],
            )],
            vec![],
        )
        .unwrap();
        assert_eq!(m.aggregation(), Aggregation::Program);
        assert!(!m.zero_command_is_noop());
    }

    #[test]
    fn fold_commands_checks_widths() {
        let m = product_machine();
        assert!(matches!(
            m.fold_commands(&[vec![f(1), f(2)]]),
            Err(TransitionError::DimensionMismatch { what: "input", .. })
        ));
    }

    #[test]
    fn map_field_preserves_structure() {
        use csm_algebra::Counting;
        let m = product_machine();
        let counted: PolyTransition<Counting<Fp61>> = m.map_field(Counting);
        let (next, out) = counted.apply(&[Counting(f(7))], &[Counting(f(5))]).unwrap();
        assert_eq!(next[0].into_inner(), f(12));
        assert_eq!(out[0].into_inner(), f(35));
    }
}
