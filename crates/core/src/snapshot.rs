//! Concurrent-reader-safe snapshots of solved equilibria, plus the
//! tangent warm-start admission policy — the session/state layer the
//! equilibrium server builds on.
//!
//! A [`SolveWorkspace`] is a *mutable* scratch: the next solve overwrites
//! the solution it holds, so it cannot be handed to readers while the
//! server keeps serving. [`EqSnapshot`] is the immutable counterpart —
//! every quantity a query answer needs, copied out of the workspace once
//! and then shared freely behind an [`Arc`] (`EqSnapshot` is plain `Send +
//! Sync` data, so any number of reader threads can hold the same solved
//! state while the workspace moves on).
//!
//! Snapshots double as reusable buffers: [`EqSnapshot::capture_into`]
//! overwrites an existing snapshot in place, growing vectors at most to
//! the game's size, so a server that recycles retired snapshots performs
//! zero heap allocation per warm capture — the contract the warm-server
//! case in `tests/alloc_free.rs` pins.
//!
//! [`TangentPolicy`] decides when a parameter delta is small enough to
//! admit the Theorem 6 first-order predictor ([`WarmStart::Tangent`])
//! instead of plain previous-iterate seeding: tangent extrapolation only
//! pays off inside the equilibrium's differentiable neighbourhood, and a
//! large step (or a blown-up derivative near an active-set change) makes
//! the predictor *worse* than [`WarmStart::Previous`].
//!
//! [`WarmStart::Tangent`]: crate::nash::WarmStart::Tangent
//! [`WarmStart::Previous`]: crate::nash::WarmStart::Previous

use crate::game::SubsidyGame;
use crate::nash::SolveStats;
use crate::workspace::SolveWorkspace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use subcomp_model::system::SystemState;

/// An immutable copy of one solved equilibrium: parameters, subsidies,
/// congestion state, utilities and the derived report scalars. Share it
/// behind an `Arc` — cloning the `Arc` is the server's cache-hit path.
#[derive(Debug, Clone, PartialEq)]
pub struct EqSnapshot {
    price: f64,
    cap: f64,
    mu: f64,
    subsidies: Vec<f64>,
    utilities: Vec<f64>,
    state: SystemState,
    revenue: f64,
    welfare: f64,
    stats: SolveStats,
}

impl Default for EqSnapshot {
    fn default() -> Self {
        EqSnapshot {
            price: 0.0,
            cap: 0.0,
            mu: 0.0,
            subsidies: Vec::new(),
            utilities: Vec::new(),
            state: SystemState::empty(),
            revenue: 0.0,
            welfare: 0.0,
            stats: SolveStats::default(),
        }
    }
}

impl EqSnapshot {
    /// An empty snapshot to use as a reusable capture buffer.
    pub fn empty() -> EqSnapshot {
        EqSnapshot::default()
    }

    /// Copies the solution a successful solve left in `ws` (see
    /// [`SolveWorkspace::subsidies`]) into a fresh snapshot.
    pub fn capture(game: &SubsidyGame, ws: &SolveWorkspace, stats: SolveStats) -> EqSnapshot {
        let mut snap = EqSnapshot::empty();
        snap.capture_into(game, ws, stats);
        snap
    }

    /// Overwrites this snapshot with the solution in `ws`, reusing every
    /// buffer — allocation-free once the snapshot has held a game at
    /// least this large.
    pub fn capture_into(&mut self, game: &SubsidyGame, ws: &SolveWorkspace, stats: SolveStats) {
        let n = game.n();
        self.price = game.price();
        self.cap = game.cap();
        self.mu = game.system().mu();
        copy_slice_into(&mut self.subsidies, ws.subsidies());
        copy_slice_into(&mut self.utilities, ws.utilities());
        let state = ws.state();
        self.state.phi = state.phi;
        self.state.dg_dphi = state.dg_dphi;
        copy_slice_into(&mut self.state.m, &state.m);
        copy_slice_into(&mut self.state.lambda, &state.lambda);
        copy_slice_into(&mut self.state.theta_i, &state.theta_i);
        let theta = state.theta();
        self.revenue = game.price() * theta;
        self.welfare = (0..n).map(|i| game.profitability(i) * state.theta_i[i]).sum();
        self.stats = stats;
    }

    /// The ISP price the equilibrium was solved at.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// The subsidy cap the equilibrium was solved at.
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// The system capacity the equilibrium was solved at.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Equilibrium subsidies `s*`.
    pub fn subsidies(&self) -> &[f64] {
        &self.subsidies
    }

    /// Utilities `U_i(s*)`.
    pub fn utilities(&self) -> &[f64] {
        &self.utilities
    }

    /// Solved congestion state at `s*`.
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// ISP revenue `p · θ(s*)`.
    pub fn revenue(&self) -> f64 {
        self.revenue
    }

    /// System welfare `W = Σ v_i θ_i` at `s*`.
    pub fn welfare(&self) -> f64 {
        self.welfare
    }

    /// The solve's health summary (sweeps, residual, convergence).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Number of CP types in the snapshot.
    pub fn n(&self) -> usize {
        self.subsidies.len()
    }
}

/// Resizes `dst` to `src`'s length and copies — allocation-free when
/// `dst`'s capacity already covers `src` (buffers only grow).
fn copy_slice_into(dst: &mut Vec<f64>, src: &[f64]) {
    dst.resize(src.len(), 0.0);
    dst.copy_from_slice(src);
}

/// The shared map type behind a [`SnapshotIndex`]: key → (publishing
/// fingerprint, published snapshot). The fingerprint names the market
/// parameterization the snapshot answers — the supervision layer uses it
/// to re-seed a rebuilt server's cache under the right key after a shard
/// restart. The whole map lives behind an `Arc` so readers can hold a
/// consistent version without any lock.
type SnapMap = HashMap<u64, (u64, Arc<EqSnapshot>)>;

/// Retired map versions kept for buffer recycling. Two suffice for one
/// writer and steadily-refreshing readers; a few extra absorb readers
/// that lag a couple of generations.
const RETIRED_CAP: usize = 8;

/// Interior of a [`SnapshotIndex`], shared between the writer-side
/// handle and every [`SnapshotReader`].
struct IndexShared {
    /// Publication generation. Bumped (release) under the state lock
    /// after the new map version is in place, so a reader that observes
    /// a new generation and then takes the lock always finds a map at
    /// least that new.
    generation: AtomicU64,
    state: Mutex<IndexState>,
}

struct IndexState {
    map: Arc<SnapMap>,
    /// Old map versions awaiting reuse. A retired map still referenced
    /// by a lagging reader is skipped (never mutated) until that reader
    /// refreshes and drops it.
    retired: Vec<Arc<SnapMap>>,
}

/// A read-mostly publication index of solved equilibria: writers
/// [`publish`]/[`retract`] under a short lock, readers [`get`] through
/// an epoch-style lock-free fast path.
///
/// Publication is copy-on-write: each edit builds a fresh map version
/// (recycled from a retired-version freelist, so the steady state
/// allocates nothing) and swaps it in behind an `Arc`, then bumps a
/// generation counter with release ordering. A [`SnapshotReader`] caches
/// the map version it last saw and re-reads the shared state **only**
/// when the generation counter (one atomic acquire load) has moved —
/// so between publications, reads are a hash lookup plus an `Arc`
/// clone: no lock, no contention with the shard that owns the solver
/// state, and `Send`-safe to fan out across threads.
///
/// [`publish`]: SnapshotIndex::publish
/// [`retract`]: SnapshotIndex::retract
/// [`get`]: SnapshotReader::get
#[derive(Clone)]
pub struct SnapshotIndex {
    shared: Arc<IndexShared>,
}

impl Default for SnapshotIndex {
    fn default() -> Self {
        SnapshotIndex::new()
    }
}

impl std::fmt::Debug for SnapshotIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotIndex")
            .field("generation", &self.shared.generation.load(Ordering::Relaxed))
            .finish()
    }
}

impl SnapshotIndex {
    /// An empty index at generation 0.
    pub fn new() -> SnapshotIndex {
        SnapshotIndex {
            shared: Arc::new(IndexShared {
                generation: AtomicU64::new(0),
                state: Mutex::new(IndexState {
                    map: Arc::new(SnapMap::new()),
                    retired: Vec::with_capacity(RETIRED_CAP),
                }),
            }),
        }
    }

    /// Publishes `snap` under `key`, replacing any previous entry.
    /// `fingerprint` names the parameterization the snapshot answers (see
    /// [`SnapshotIndex::published`]).
    pub fn publish(&self, key: u64, fingerprint: u64, snap: Arc<EqSnapshot>) {
        self.rebuild(|map| {
            map.insert(key, (fingerprint, snap));
        });
    }

    /// The published (fingerprint, snapshot) pair for `key`, if any — the
    /// supervision layer's rehydration source: a respawned shard preloads
    /// each market's rebuilt cache with exactly this pair, so post-restart
    /// reads at an unchanged parameterization stay bit-identical cache
    /// hits instead of fresh solves.
    pub fn published(&self, key: u64) -> Option<(u64, Arc<EqSnapshot>)> {
        let state = self.shared.state.lock().expect("snapshot index lock poisoned");
        state.map.get(&key).map(|(fp, snap)| (*fp, Arc::clone(snap)))
    }

    /// Removes `key` from the index (a no-op if absent). Readers holding
    /// the old version keep serving it until they observe the new
    /// generation — exactly the staleness window the caller's ordering
    /// discipline (retract *before* acknowledging a write) must cover.
    pub fn retract(&self, key: u64) {
        self.rebuild(|map| {
            map.remove(&key);
        });
    }

    /// A detached reader over this index.
    pub fn reader(&self) -> SnapshotReader {
        let state = self.shared.state.lock().expect("snapshot index lock poisoned");
        let map = Arc::clone(&state.map);
        let seen = self.shared.generation.load(Ordering::Acquire);
        drop(state);
        SnapshotReader { shared: Arc::clone(&self.shared), map, seen }
    }

    /// Number of published entries.
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("snapshot index lock poisoned").map.len()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy-on-write edit: clone the current version into a recycled (or
    /// fresh) buffer, apply `edit`, swap it in, retire the old version,
    /// bump the generation. All under the state lock, so edits serialize
    /// and the generation bump is ordered after the map swap.
    fn rebuild(&self, edit: impl FnOnce(&mut SnapMap)) {
        let mut state = self.shared.state.lock().expect("snapshot index lock poisoned");
        let mut next = take_unique(&mut state.retired).unwrap_or_else(|| Arc::new(SnapMap::new()));
        {
            let buf = Arc::get_mut(&mut next).expect("recycled map versions are unique");
            buf.clear();
            for (k, (fp, snap)) in state.map.iter() {
                buf.insert(*k, (*fp, Arc::clone(snap)));
            }
            edit(buf);
        }
        let old = std::mem::replace(&mut state.map, next);
        if state.retired.len() < RETIRED_CAP {
            state.retired.push(old);
        }
        self.shared.generation.fetch_add(1, Ordering::Release);
    }
}

/// Pops a retired map version no reader references any more (safe to
/// mutate through `Arc::get_mut`); versions still held stay in the list
/// untouched until their readers move on.
fn take_unique(retired: &mut Vec<Arc<SnapMap>>) -> Option<Arc<SnapMap>> {
    let at = retired.iter().position(|arc| Arc::strong_count(arc) == 1)?;
    Some(retired.swap_remove(at))
}

/// One thread's lock-free read handle over a [`SnapshotIndex`].
///
/// The reader caches the map version it last observed; [`get`] takes the
/// lock only when the index generation has moved since. Between
/// publications — the read-mostly steady state — a lookup touches no
/// lock and allocates nothing.
///
/// [`get`]: SnapshotReader::get
pub struct SnapshotReader {
    shared: Arc<IndexShared>,
    map: Arc<SnapMap>,
    seen: u64,
}

impl std::fmt::Debug for SnapshotReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("seen", &self.seen)
            .field("entries", &self.map.len())
            .finish()
    }
}

impl SnapshotReader {
    /// Looks up `key` in the freshest published version, refreshing the
    /// cached version first if the index has moved.
    pub fn get(&mut self, key: u64) -> Option<Arc<EqSnapshot>> {
        let generation = self.shared.generation.load(Ordering::Acquire);
        if generation != self.seen {
            let state = self.shared.state.lock().expect("snapshot index lock poisoned");
            self.map = Arc::clone(&state.map);
            // Re-read under the lock: the generation cannot advance while
            // we hold it, so `seen` exactly labels the version we cached.
            self.seen = self.shared.generation.load(Ordering::Acquire);
        }
        self.map.get(&key).map(|(_, snap)| Arc::clone(snap))
    }

    /// The index generation this reader last synchronized with — test
    /// hooks use it to assert that a retraction was observed (the
    /// generation moved) rather than merely that a lookup missed.
    pub fn seen_generation(&self) -> u64 {
        self.seen
    }
}

/// Admission policy for [`WarmStart::Tangent`] on small parameter deltas.
///
/// The Theorem 6 tangent is a *local* object: it predicts the equilibrium
/// displacement to first order around the point it was computed at. The
/// policy admits the predictor only when both the parameter step and the
/// predicted subsidy displacement stay inside a trust region; everything
/// else degrades to [`WarmStart::Previous`], which is always safe.
///
/// [`WarmStart::Tangent`]: crate::nash::WarmStart::Tangent
/// [`WarmStart::Previous`]: crate::nash::WarmStart::Previous
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TangentPolicy {
    /// Largest admissible parameter step `|Δθ|`.
    pub max_dtheta: f64,
    /// Largest admissible predicted displacement `max_i |Δθ · ∂s_i/∂θ|`.
    pub max_predicted_step: f64,
}

impl Default for TangentPolicy {
    fn default() -> Self {
        TangentPolicy { max_dtheta: 0.25, max_predicted_step: 0.5 }
    }
}

impl TangentPolicy {
    /// Whether a tangent step from `ds_dtheta` over `dtheta` is admitted.
    /// Non-finite inputs are always rejected.
    pub fn admits(&self, ds_dtheta: &[f64], dtheta: f64) -> bool {
        if !dtheta.is_finite() || dtheta.abs() > self.max_dtheta {
            return false;
        }
        ds_dtheta.iter().all(|d| {
            let step = d * dtheta;
            step.is_finite() && step.abs() <= self.max_predicted_step
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nash::{NashSolver, WarmStart};
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn game() -> SubsidyGame {
        let specs = [ExpCpSpec::unit(2.0, 3.0, 0.8), ExpCpSpec::unit(5.0, 2.0, 0.6)];
        SubsidyGame::new(build_system(&specs, 1.2).unwrap(), 0.6, 0.9).unwrap()
    }

    #[test]
    fn capture_matches_workspace() {
        let game = game();
        let solver = NashSolver::default().with_tol(1e-8);
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        let snap = EqSnapshot::capture(&game, &ws, stats);
        assert_eq!(snap.subsidies(), ws.subsidies());
        assert_eq!(snap.utilities(), ws.utilities());
        assert_eq!(snap.state().phi.to_bits(), ws.state().phi.to_bits());
        assert_eq!(snap.n(), 2);
        assert_eq!(snap.price(), 0.6);
        assert_eq!(snap.cap(), 0.9);
        assert_eq!(snap.mu(), 1.2);
        assert_eq!(snap.stats(), stats);
        assert_eq!(snap.revenue(), 0.6 * ws.state().theta());
        let w: f64 = (0..2).map(|i| game.profitability(i) * ws.state().theta_i[i]).sum();
        assert_eq!(snap.welfare().to_bits(), w.to_bits());
    }

    #[test]
    fn capture_into_overwrites_and_reuses_buffers() {
        let game = game();
        let solver = NashSolver::default().with_tol(1e-8);
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        let mut snap = EqSnapshot::capture(&game, &ws, stats);
        let reference = snap.clone();
        // Dirty the snapshot, then recapture: bit-identical to the first.
        snap.subsidies.iter_mut().for_each(|s| *s = -1.0);
        snap.revenue = f64::NAN;
        snap.capture_into(&game, &ws, stats);
        assert_eq!(snap, reference);
    }

    #[test]
    fn snapshot_is_shareable_across_threads() {
        let game = game();
        let solver = NashSolver::default();
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        let snap = std::sync::Arc::new(EqSnapshot::capture(&game, &ws, stats));
        let phi = snap.state().phi;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reader = std::sync::Arc::clone(&snap);
                scope.spawn(move || {
                    assert_eq!(reader.state().phi.to_bits(), phi.to_bits());
                });
            }
        });
    }

    #[test]
    fn snapshot_index_publish_retract_and_reader_refresh() {
        let index = SnapshotIndex::new();
        let mut reader = index.reader();
        assert!(reader.get(1).is_none());
        assert!(index.is_empty());

        let snap = std::sync::Arc::new(EqSnapshot::empty());
        index.publish(1, 0xfeed, std::sync::Arc::clone(&snap));
        assert_eq!(index.len(), 1);
        // The pre-existing reader observes the new generation and the
        // published entry is the *same* allocation, not a copy.
        let got = reader.get(1).expect("published entry visible");
        assert!(std::sync::Arc::ptr_eq(&got, &snap));
        // The publishing fingerprint rides along for rehydration.
        let (fp, published) = index.published(1).expect("entry present");
        assert_eq!(fp, 0xfeed);
        assert!(std::sync::Arc::ptr_eq(&published, &snap));

        // Replacing a key swaps the entry readers see.
        let newer = std::sync::Arc::new(EqSnapshot::empty());
        index.publish(1, 0xbeef, std::sync::Arc::clone(&newer));
        assert!(std::sync::Arc::ptr_eq(&reader.get(1).unwrap(), &newer));
        assert_eq!(index.published(1).unwrap().0, 0xbeef);

        index.retract(1);
        assert!(index.published(1).is_none());
        assert!(reader.get(1).is_none());
        assert!(index.is_empty());
        // Retracting an absent key is a harmless no-op.
        index.retract(42);
    }

    #[test]
    fn snapshot_index_reader_is_stable_between_publications() {
        // Between publications, repeated gets return the same allocation
        // — the steady-state fast path never rebuilds anything.
        let index = SnapshotIndex::new();
        index.publish(5, 0, std::sync::Arc::new(EqSnapshot::empty()));
        let mut reader = index.reader();
        let a = reader.get(5).unwrap();
        let b = reader.get(5).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_index_fans_out_across_threads() {
        let game = game();
        let solver = NashSolver::default();
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        let snap = std::sync::Arc::new(EqSnapshot::capture(&game, &ws, stats));
        let phi = snap.state().phi;

        let index = SnapshotIndex::new();
        index.publish(9, 0, std::sync::Arc::clone(&snap));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut reader = index.reader();
                scope.spawn(move || {
                    let got = reader.get(9).expect("published before spawn");
                    assert_eq!(got.state().phi.to_bits(), phi.to_bits());
                });
            }
        });
    }

    #[test]
    fn tangent_policy_trust_region() {
        let policy = TangentPolicy::default();
        assert!(policy.admits(&[0.5, -1.0], 0.1));
        // Parameter step too large.
        assert!(!policy.admits(&[0.5, -1.0], 0.3));
        // Predicted displacement too large even for a small step.
        assert!(!policy.admits(&[100.0], 0.01));
        // Non-finite inputs are rejected, never admitted.
        assert!(!policy.admits(&[f64::NAN], 0.01));
        assert!(!policy.admits(&[1.0], f64::NAN));
        // A tighter policy rejects what the default admits.
        let tight = TangentPolicy { max_dtheta: 0.05, max_predicted_step: 0.5 };
        assert!(!tight.admits(&[0.5], 0.1));
    }
}
