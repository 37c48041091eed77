//! Clients and command pools (§2): `M` clients continuously submit signed
//! commands to the `K` machines' pools; each round, one command per machine
//! is selected for consensus.
//!
//! This layer provides the paper's **Validity** property: "the command
//! `X_k(t)` selected in the consensus phase is indeed submitted by some
//! client to SM `k` before the start of round `t`". Commands carry client
//! MACs, so a Byzantine proposer cannot fabricate a never-submitted
//! command without being detected by validators.

use csm_algebra::Field;
use csm_network::auth::{KeyRegistry, Signature};
use csm_network::NodeId;
use std::collections::VecDeque;

/// A client's identifier (distinct space from node ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub usize);

/// A signed command submitted to one machine's pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmittedCommand<F> {
    /// Submitting client.
    pub client: ClientId,
    /// Target machine index.
    pub machine: usize,
    /// Client-chosen sequence number (for duplicate suppression).
    pub sequence: u64,
    /// The command payload.
    pub payload: Vec<F>,
    /// Client MAC over `(machine, sequence, payload)`.
    pub sig: Signature,
}

/// The per-machine command pools plus the client PKI.
///
/// # Examples
///
/// ```
/// use csm_core::commands::{ClientId, CommandPool};
/// use csm_algebra::{Field, Fp61};
///
/// let mut pool: CommandPool<Fp61> = CommandPool::new(2, 3, 42);
/// pool.submit(ClientId(0), 1, vec![Fp61::from_u64(5)]).unwrap();
/// let batch = pool.select_round(&[Fp61::ZERO]).unwrap();
/// assert_eq!(batch[1][0], Fp61::from_u64(5)); // machine 1 got the command
/// assert_eq!(batch[0][0], Fp61::ZERO);        // machine 0 idles (no-op)
/// ```
#[derive(Debug, Clone)]
pub struct CommandPool<F> {
    k: usize,
    registry: KeyRegistry,
    pools: Vec<VecDeque<SubmittedCommand<F>>>,
    sequences: Vec<u64>,
    /// Complete submission history (for validity auditing).
    history: Vec<SubmittedCommand<F>>,
}

/// Errors from command submission/selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandError {
    /// Machine index out of range.
    NoSuchMachine {
        /// Requested machine.
        machine: usize,
        /// Number of machines.
        k: usize,
    },
    /// Client index out of range of the registered client set.
    NoSuchClient(ClientId),
    /// The command's MAC does not verify.
    BadSignature,
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::NoSuchMachine { machine, k } => {
                write!(f, "machine {machine} out of range (K = {k})")
            }
            CommandError::NoSuchClient(c) => write!(f, "unknown client {}", c.0),
            CommandError::BadSignature => write!(f, "command signature invalid"),
        }
    }
}

impl std::error::Error for CommandError {}

/// Signing payload: a stable tuple over the command's identity.
fn auth_payload<F: Field>(machine: usize, sequence: u64, payload: &[F]) -> (usize, u64, Vec<u64>) {
    (
        machine,
        sequence,
        payload.iter().map(|x| x.to_canonical_u64()).collect(),
    )
}

impl<F: Field> CommandPool<F> {
    /// Creates pools for `k` machines and a registry of `m` clients.
    pub fn new(k: usize, m: usize, seed: u64) -> Self {
        CommandPool {
            k,
            registry: KeyRegistry::new(m, seed ^ 0xC11E47),
            pools: (0..k).map(|_| VecDeque::new()).collect(),
            sequences: vec![0; m],
            history: Vec::new(),
        }
    }

    /// Number of pending commands for a machine.
    ///
    /// # Panics
    ///
    /// Panics if `machine >= k`.
    pub fn pending(&self, machine: usize) -> usize {
        self.pools[machine].len()
    }

    /// Client `client` submits `payload` to machine `machine`; the pool
    /// signs on the client's behalf (clients hold their own keys in a real
    /// deployment) and enqueues.
    ///
    /// # Errors
    ///
    /// [`CommandError::NoSuchMachine`] / [`CommandError::NoSuchClient`].
    pub fn submit(
        &mut self,
        client: ClientId,
        machine: usize,
        payload: Vec<F>,
    ) -> Result<&SubmittedCommand<F>, CommandError> {
        if machine >= self.k {
            return Err(CommandError::NoSuchMachine { machine, k: self.k });
        }
        if client.0 >= self.registry.len() {
            return Err(CommandError::NoSuchClient(client));
        }
        let sequence = self.sequences[client.0];
        self.sequences[client.0] += 1;
        let sig = self
            .registry
            .sign(NodeId(client.0), &auth_payload(machine, sequence, &payload));
        let cmd = SubmittedCommand {
            client,
            machine,
            sequence,
            payload,
            sig,
        };
        self.pools[machine].push_back(cmd.clone());
        self.history.push(cmd);
        Ok(self.history.last().expect("just pushed"))
    }

    /// Verifies that a command was genuinely produced by its claimed
    /// client — the check validators run on a proposer's batch.
    pub fn verify(&self, cmd: &SubmittedCommand<F>) -> bool {
        cmd.sig.signer == NodeId(cmd.client.0)
            && self.registry.verify(
                &auth_payload(cmd.machine, cmd.sequence, &cmd.payload),
                &cmd.sig,
            )
    }

    /// Selects the next round's batch: the oldest pending command per
    /// machine, or `noop` for machines with an empty pool. Returns the
    /// payload vectors in machine order (the shape
    /// [`crate::CsmCluster::step`] consumes).
    ///
    /// # Errors
    ///
    /// Returns [`CommandError::BadSignature`] if a pooled command fails
    /// verification (a corrupted pool — should be impossible via
    /// [`CommandPool::submit`]).
    pub fn select_round(&mut self, noop: &[F]) -> Result<Vec<Vec<F>>, CommandError> {
        let mut batch = Vec::with_capacity(self.k);
        for pool in &mut self.pools {
            match pool.pop_front() {
                Some(cmd) => {
                    // re-verify on selection (validity)
                    if !(cmd.sig.signer == NodeId(cmd.client.0)
                        && self.registry.verify(
                            &auth_payload(cmd.machine, cmd.sequence, &cmd.payload),
                            &cmd.sig,
                        ))
                    {
                        return Err(CommandError::BadSignature);
                    }
                    batch.push(cmd.payload.clone());
                }
                None => batch.push(noop.to_vec()),
            }
        }
        Ok(batch)
    }

    /// Whether `payload` for `machine` appears in the submission history —
    /// the Validity predicate a test/auditor evaluates on decided batches.
    pub fn was_submitted(&self, machine: usize, payload: &[F]) -> bool {
        self.history
            .iter()
            .any(|c| c.machine == machine && c.payload == payload)
    }

    /// Total commands ever submitted (for liveness accounting: all client
    /// commands are eventually executed, §2.1 Liveness).
    pub fn total_submitted(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::Fp61;

    fn f(v: u64) -> Fp61 {
        Fp61::from_u64(v)
    }

    #[test]
    fn submit_and_select_fifo() {
        let mut pool: CommandPool<Fp61> = CommandPool::new(2, 2, 1);
        pool.submit(ClientId(0), 0, vec![f(1)]).unwrap();
        pool.submit(ClientId(1), 0, vec![f(2)]).unwrap();
        pool.submit(ClientId(0), 1, vec![f(3)]).unwrap();
        let b1 = pool.select_round(&[f(0)]).unwrap();
        assert_eq!(b1, vec![vec![f(1)], vec![f(3)]]);
        let b2 = pool.select_round(&[f(0)]).unwrap();
        assert_eq!(b2, vec![vec![f(2)], vec![f(0)]]); // machine 1 idles
        assert_eq!(pool.pending(0), 0);
    }

    #[test]
    fn submission_bounds_checked() {
        let mut pool: CommandPool<Fp61> = CommandPool::new(2, 2, 1);
        assert_eq!(
            pool.submit(ClientId(0), 5, vec![f(1)]).unwrap_err(),
            CommandError::NoSuchMachine { machine: 5, k: 2 }
        );
        assert_eq!(
            pool.submit(ClientId(9), 0, vec![f(1)]).unwrap_err(),
            CommandError::NoSuchClient(ClientId(9))
        );
    }

    #[test]
    fn forged_commands_detected() {
        let mut pool: CommandPool<Fp61> = CommandPool::new(1, 2, 1);
        let genuine = pool.submit(ClientId(0), 0, vec![f(10)]).unwrap().clone();
        assert!(pool.verify(&genuine));
        // tamper with payload
        let mut forged = genuine.clone();
        forged.payload = vec![f(99)];
        assert!(!pool.verify(&forged));
        // impersonate another client
        let mut imp = genuine.clone();
        imp.client = ClientId(1);
        assert!(!pool.verify(&imp));
    }

    #[test]
    fn validity_history() {
        let mut pool: CommandPool<Fp61> = CommandPool::new(2, 1, 3);
        pool.submit(ClientId(0), 1, vec![f(42)]).unwrap();
        assert!(pool.was_submitted(1, &[f(42)]));
        assert!(!pool.was_submitted(0, &[f(42)]));
        assert!(!pool.was_submitted(1, &[f(43)]));
        assert_eq!(pool.total_submitted(), 1);
    }

    #[test]
    fn sequences_increase_per_client() {
        let mut pool: CommandPool<Fp61> = CommandPool::new(1, 2, 9);
        let a = pool.submit(ClientId(0), 0, vec![f(1)]).unwrap().sequence;
        let b = pool.submit(ClientId(0), 0, vec![f(1)]).unwrap().sequence;
        let c = pool.submit(ClientId(1), 0, vec![f(1)]).unwrap().sequence;
        assert_eq!((a, b, c), (0, 1, 0));
    }
}
