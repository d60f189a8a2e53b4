//! Deterministic, parallel experiment sweeps.
//!
//! The paper's evaluation is a grid of experiments: every interactive
//! application, under every execution architecture, for several core
//! re-allocation policies and input scales. [`SweepRunner`] executes such a
//! {app × architecture × policy × scale} grid with rayon-style data
//! parallelism while keeping the result **bit-for-bit deterministic**:
//!
//! * every cell derives its own seed from the sweep's master seed and the
//!   cell's key (never from thread identity or execution order), and
//! * results are collected in grid order regardless of which worker finished
//!   first,
//!
//! so a [`SweepMatrix`] serialises byte-identically whether the sweep ran on
//! 1 or 64 threads. The matrix exposes the orderings behind the paper's
//! figures as queryable summaries: Figure 6 completion times
//! ([`SweepMatrix::fig6`]), Figure 7 miss-rate gains
//! ([`SweepMatrix::fig7`]) and Figure 8 re-allocation-policy sensitivity
//! ([`SweepMatrix::fig8`]), and [`SweepMatrix::scorecard`] sets each of the
//! paper's reference values ([`PAPER_VALUES`]) beside its reproduction.
//!
//! The application axis is decoupled from any concrete workload crate: a
//! sweep runs [`AppSpec`]s — a label plus a thread-safe factory closure — so
//! `ironhide-workloads` (or any downstream user) can feed its own
//! applications in without `ironhide-core` depending on them.
//!
//! Every grid family — performance, covert-channel attacks, the
//! temporal-fence ablation, tenancy and fault campaigns — runs through one
//! engine, `SweepRunner::run_grid`, and completes into one generic
//! [`Matrix`]. A family supplies only its cell keys and a closure that runs
//! one cell; the engine owns the thread pool, machine recycling, seeds and
//! ordering, so the determinism contract is enforced in exactly one place.

use std::fmt;
use std::sync::{Arc, Mutex};

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

use ironhide_sim::config::MachineConfig;
use ironhide_sim::fence::{FlushSet, TemporalFenceConfig};
use ironhide_sim::machine::Machine;

use crate::app::InteractiveApp;
use crate::arch::{ArchParams, Architecture};
use crate::attack::AttackOutcome;
use crate::fnv1a;
use crate::realloc::ReallocPolicy;
use crate::runner::{CompletionReport, ExperimentRunner, RunError};

// ---------------------------------------------------------------------------
// Grid axes
// ---------------------------------------------------------------------------

/// A named point on the scale axis of a sweep grid (e.g. `"Smoke"` or
/// `"Paper"`). The label is the identity: factories receive it and map it to
/// whatever concrete sizing their workload understands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScalePoint {
    label: String,
}

impl ScalePoint {
    /// Creates a scale point with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        ScalePoint { label: label.into() }
    }

    /// The point's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Display for ScalePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// A thread-safe factory building a fresh application instance for one sweep
/// cell, from the cell's scale point and seed.
pub type AppFactory = Arc<dyn Fn(&ScalePoint, u64) -> Box<dyn InteractiveApp> + Send + Sync>;

/// A point on the application axis: a display label plus a thread-safe
/// factory that builds a fresh application instance for one sweep cell.
///
/// The factory receives the cell's [`ScalePoint`] and the cell's seed.
/// Deterministic workloads (like the paper's nine applications) may ignore
/// the seed; randomised workloads must draw **all** their randomness from it
/// so the sweep stays reproducible.
#[derive(Clone)]
pub struct AppSpec {
    label: String,
    factory: AppFactory,
}

impl AppSpec {
    /// Creates an application spec from a label and a factory.
    pub fn new<F>(label: impl Into<String>, factory: F) -> Self
    where
        F: Fn(&ScalePoint, u64) -> Box<dyn InteractiveApp> + Send + Sync + 'static,
    {
        AppSpec { label: label.into(), factory: Arc::new(factory) }
    }

    /// The application's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Builds a fresh instance for the given scale and cell seed.
    pub fn instantiate(&self, scale: &ScalePoint, seed: u64) -> Box<dyn InteractiveApp> {
        (self.factory)(scale, seed)
    }
}

impl fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppSpec").field("label", &self.label).finish_non_exhaustive()
    }
}

/// The full cartesian grid a sweep executes.
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    /// Applications to run.
    pub apps: Vec<AppSpec>,
    /// Execution architectures to compare.
    pub architectures: Vec<Architecture>,
    /// Core re-allocation policies (only meaningful for architectures with
    /// spatial clusters, but every cell records the policy it ran under).
    pub policies: Vec<ReallocPolicy>,
    /// Input scales.
    pub scales: Vec<ScalePoint>,
}

impl SweepGrid {
    /// Creates an empty grid.
    pub fn new() -> Self {
        SweepGrid::default()
    }

    /// Adds an application.
    pub fn with_app(mut self, app: AppSpec) -> Self {
        self.apps.push(app);
        self
    }

    /// Sets the architecture axis.
    pub fn with_architectures(mut self, archs: &[Architecture]) -> Self {
        self.architectures = archs.to_vec();
        self
    }

    /// Sets the policy axis.
    pub fn with_policies(mut self, policies: &[ReallocPolicy]) -> Self {
        self.policies = policies.to_vec();
        self
    }

    /// Adds a scale point.
    pub fn with_scale(mut self, scale: ScalePoint) -> Self {
        self.scales.push(scale);
        self
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.apps.len() * self.architectures.len() * self.policies.len() * self.scales.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into cell keys, in the canonical (scale-major, then
    /// app, architecture, policy) order the matrix stores them in.
    pub fn keys(&self) -> Vec<CellKey> {
        self.expanded().into_iter().map(|(key, _)| key).collect()
    }

    /// The single source of truth for cell ordering: every consumer (the
    /// runner, `keys()`) derives its cells from this expansion, so the
    /// canonical order and the per-cell seeds can never drift apart.
    fn expanded(&self) -> Vec<(CellKey, (&AppSpec, &ScalePoint))> {
        let mut cells = Vec::with_capacity(self.len());
        for scale in &self.scales {
            for app in &self.apps {
                for arch in &self.architectures {
                    for policy in &self.policies {
                        let key = CellKey {
                            app: app.label.clone(),
                            arch: *arch,
                            policy: *policy,
                            scale: scale.label.clone(),
                        };
                        cells.push((key, (app, scale)));
                    }
                }
            }
        }
        cells
    }
}

/// Identity of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Application label.
    pub app: String,
    /// Execution architecture.
    pub arch: Architecture,
    /// Core re-allocation policy.
    pub policy: ReallocPolicy,
    /// Scale label.
    pub scale: String,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | {} | {} | {}", self.app, self.arch, self.policy, self.scale)
    }
}

// ---------------------------------------------------------------------------
// The sweep engine
// ---------------------------------------------------------------------------

/// A sweep failure: the first failing cell in grid order, plus its error.
#[derive(Debug, Clone)]
pub struct CellError<K, E> {
    /// The cell that failed.
    pub cell: K,
    /// Why it failed.
    pub error: E,
}

impl<K: fmt::Display, E: fmt::Display> fmt::Display for CellError<K, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep cell [{}] failed: {}", self.cell, self.error)
    }
}

impl<K, E> std::error::Error for CellError<K, E>
where
    K: fmt::Debug + fmt::Display,
    E: std::error::Error + 'static,
{
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A performance-sweep failure.
pub type SweepError = CellError<CellKey, RunError>;

/// One completed cell's JSON rendering, used by [`Matrix::to_json`].
pub trait MatrixRow {
    /// Appends the cell as one JSON object to `out`.
    fn write_json(&self, out: &mut String);
}

/// A completed grid: every cell in canonical grid order plus the master seed
/// the sweep ran with. Each grid family adds its own queries on its cell
/// type (see [`SweepMatrix`], [`AttackMatrix`], [`AblationMatrix`]).
#[derive(Debug, Clone)]
pub struct Matrix<C> {
    /// The master seed the sweep ran with.
    pub master_seed: u64,
    /// Completed cells in grid order (the order the grid's `keys()` lists).
    pub cells: Vec<C>,
}

impl<C> Matrix<C> {
    /// The distinct values `f` takes over the cells, in grid order.
    pub(crate) fn distinct<T: PartialEq>(&self, f: impl Fn(&C) -> T) -> Vec<T> {
        let mut values = Vec::new();
        for cell in &self.cells {
            let value = f(cell);
            if !values.contains(&value) {
                values.push(value);
            }
        }
        values
    }
}

impl<C: MatrixRow> Matrix<C> {
    /// Renders the matrix as deterministic JSON: same cells (in the same
    /// order) and same master seed produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048 + self.cells.len() * 1024);
        out.push_str("{\n  \"master_seed\": ");
        out.push_str(&self.master_seed.to_string());
        out.push_str(",\n  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            cell.write_json(&mut out);
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Executes sweep grids in parallel, deterministically.
///
/// # Determinism contract
///
/// Two runs with the same grid, machine configuration, parameters and master
/// seed produce [`Matrix`]es whose [`Matrix::to_json`] renderings are
/// byte-identical, **regardless of the thread count** — each cell's seed is
/// a pure function of the master seed and the cell key, and results are
/// collected in grid order. Every grid family inherits this from the one
/// engine they all run through.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    machine: MachineConfig,
    params: ArchParams,
    threads: usize,
    master_seed: u64,
}

impl SweepRunner {
    /// Creates a runner simulating machines built from `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        SweepRunner { machine, params: ArchParams::default(), threads: 0, master_seed: 0 }
    }

    /// Overrides the architecture parameters used for every cell.
    pub fn with_params(mut self, params: ArchParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the worker thread count (0 = one per available core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the master seed all per-cell seeds derive from.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// The seed the cell with `key` runs with, in any grid family: a pure
    /// function of the master seed and the rendered key. Every family but
    /// the performance grid prefixes its keys with its own namespace
    /// (`attack |`, `ablation |`, `tenancy |`, `faults |`), so equal labels
    /// in different grids never share a seed.
    pub fn cell_seed<K: fmt::Display>(&self, key: &K) -> u64 {
        derive_seed(self.master_seed, &key.to_string())
    }

    /// The machine configuration cells simulate (for sibling grid runners).
    pub(crate) fn machine_config(&self) -> &MachineConfig {
        &self.machine
    }

    /// The one sweep engine: runs `run(key, input, seed, slot)` for every
    /// cell in parallel and collects the results in grid order.
    ///
    /// * `seed` is [`SweepRunner::cell_seed`] of the key — never a function
    ///   of thread identity or execution order.
    /// * `slot` holds a machine recycled from an earlier cell on the same
    ///   worker, or `None`. Whatever the closure leaves in it goes back to
    ///   that worker's pool (see [`WorkerPools`]).
    /// * Results are collected in grid order, so the matrix is
    ///   byte-identical at any thread count and the error returned is the
    ///   first failing cell's in grid order; partial results are discarded.
    pub(crate) fn run_grid<K, X, C, E>(
        &self,
        cells: Vec<(K, X)>,
        run: impl Fn(&K, &X, u64, &mut Option<Machine>) -> Result<C, E> + Sync,
    ) -> Result<Matrix<C>, CellError<K, E>>
    where
        K: fmt::Display + Clone + Send + Sync,
        X: Sync,
        C: Send,
        E: Send,
    {
        let pool = ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("sweep thread pool builds");
        let machine_pools = WorkerPools::new(pool.current_num_threads());
        let results: Vec<Result<C, CellError<K, E>>> = pool.install(|| {
            cells
                .par_iter()
                .map(|(key, input)| {
                    let seed = self.cell_seed(key);
                    let mut slot = machine_pools.take();
                    let result = run(key, input, seed, &mut slot);
                    if let Some(machine) = slot {
                        machine_pools.give(machine);
                    }
                    result.map_err(|error| CellError { cell: key.clone(), error })
                })
                .collect()
        });
        let cells = results.into_iter().collect::<Result<_, _>>()?;
        Ok(Matrix { master_seed: self.master_seed, cells })
    }

    /// Runs every cell of `grid` and collects the reports in grid order.
    ///
    /// # Errors
    ///
    /// Returns the first (in grid order) [`SweepError`] if any cell fails;
    /// partial results are discarded.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepMatrix, SweepError> {
        self.run_grid(grid.expanded(), |key, (app, scale), seed, slot| {
            let mut instance = app.instantiate(scale, seed);
            let runner = ExperimentRunner::new(self.machine.clone())
                .with_params(self.params)
                .with_realloc(key.policy);
            let (report, machine) =
                runner.run_recycled(key.arch, instance.as_mut(), slot.take())?;
            *slot = Some(machine);
            Ok(SweepCell { key: key.clone(), seed, report })
        })
    }
}

/// Per-worker machine pools for recycling simulated machines across sweep
/// cells without cross-worker sharing.
///
/// Machine construction is ~0.5 ms of way/directory-array allocation that
/// would otherwise be paid per cell, so cells recycle machines (pop one,
/// reset-pristine, run, push back). Earlier revisions recycled through one
/// `Mutex<Vec<Machine>>` shared by every worker, which serialised the pool on
/// a single lock; the pools are now *sharded per worker*: worker `i` (by
/// [`rayon::current_thread_index`]) recycles exclusively through shard `i`,
/// so no shard is ever contended and workers share no mutable state on the
/// hot path (the `Mutex` per shard only satisfies `Sync` — its owner is the
/// only thread that locks it). Recycling cannot affect results — a recycled
/// machine is byte-identical to a fresh one — so determinism is unaffected
/// by which worker ran which cell.
///
/// The pools live for one `run_grid` call, which also guarantees every
/// pooled machine was built from that call's `MachineConfig` (the contract
/// `run_recycled` requires).
struct WorkerPools {
    shards: Vec<Mutex<Vec<Machine>>>,
}

impl WorkerPools {
    /// Creates one shard per worker (at least one, for the serial path).
    fn new(workers: usize) -> Self {
        WorkerPools { shards: (0..workers.max(1)).map(|_| Mutex::new(Vec::new())).collect() }
    }

    /// The calling worker's own shard. Work running outside an indexed
    /// worker (the serial fast path executes on the caller's thread) falls
    /// back to shard 0, which is equally uncontended there — it is the only
    /// thread running.
    fn shard(&self) -> &Mutex<Vec<Machine>> {
        let idx = rayon::current_thread_index().unwrap_or(0);
        &self.shards[idx % self.shards.len()]
    }

    /// Pops a recycled machine from the calling worker's shard.
    fn take(&self) -> Option<Machine> {
        self.shard().lock().ok().and_then(|mut shard| shard.pop())
    }

    /// Returns a machine to the calling worker's shard for the next cell.
    fn give(&self, machine: Machine) {
        if let Ok(mut shard) = self.shard().lock() {
            shard.push(machine);
        }
    }
}

/// Seed derivation shared by every grid family: FNV-1a over the rendered
/// key, then a SplitMix64 finalisation so related keys map to
/// well-separated seeds.
pub(crate) fn derive_seed(master_seed: u64, key: &str) -> u64 {
    let mut z = fnv1a(key.bytes()) ^ master_seed.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Attack matrix
// ---------------------------------------------------------------------------

/// A thread-safe closure running one attack cell to completion: given the
/// machine configuration, the architecture under attack, the scale point and
/// the cell's derived seed, it instantiates the channel, co-schedules the
/// attacker/victim pair and decodes the transmission. `ironhide-attacks`
/// provides these via its `LeakageOracle`.
///
/// The final argument is the cell's recycled-machine slot: the runner hands
/// in a pooled machine from a previous cell (or `None`), and a factory that
/// simulates should run through `AttackRunner::run`, which leaves the
/// machine in the slot for the next cell. Machine construction is ~0.5 ms of
/// way/directory-array allocation that would otherwise be paid per cell;
/// recycling cannot affect results because `Machine::reset_pristine` is
/// byte-equivalent to a fresh build. Factories that do not simulate may
/// ignore the slot.
pub type AttackFactory = Arc<
    dyn Fn(
            &MachineConfig,
            Architecture,
            &ScalePoint,
            u64,
            &mut Option<Machine>,
        ) -> Result<AttackOutcome, RunError>
        + Send
        + Sync,
>;

/// A point on the attack grid's channel axis: a display label plus the
/// closure executing the full attack for one cell.
#[derive(Clone)]
pub struct AttackSpec {
    label: String,
    factory: AttackFactory,
}

impl AttackSpec {
    /// Creates a channel spec from a label and an attack closure.
    pub fn new<F>(label: impl Into<String>, factory: F) -> Self
    where
        F: Fn(
                &MachineConfig,
                Architecture,
                &ScalePoint,
                u64,
                &mut Option<Machine>,
            ) -> Result<AttackOutcome, RunError>
            + Send
            + Sync
            + 'static,
    {
        AttackSpec { label: label.into(), factory: Arc::new(factory) }
    }

    /// The channel's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Runs the attack for one cell, recycling (and handing back) the
    /// machine in `slot`.
    pub fn execute(
        &self,
        config: &MachineConfig,
        arch: Architecture,
        scale: &ScalePoint,
        seed: u64,
        slot: &mut Option<Machine>,
    ) -> Result<AttackOutcome, RunError> {
        (self.factory)(config, arch, scale, seed, slot)
    }
}

impl fmt::Debug for AttackSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttackSpec").field("label", &self.label).finish_non_exhaustive()
    }
}

/// The {channel × architecture × scale} grid the security suite executes.
#[derive(Debug, Clone, Default)]
pub struct AttackGrid {
    /// Covert channels to attempt.
    pub channels: Vec<AttackSpec>,
    /// Execution architectures to attack.
    pub architectures: Vec<Architecture>,
    /// Input scales (payload length per the channel implementation).
    pub scales: Vec<ScalePoint>,
}

impl AttackGrid {
    /// Creates an empty grid.
    pub fn new() -> Self {
        AttackGrid::default()
    }

    /// Adds a channel.
    pub fn with_channel(mut self, channel: AttackSpec) -> Self {
        self.channels.push(channel);
        self
    }

    /// Sets the architecture axis.
    pub fn with_architectures(mut self, archs: &[Architecture]) -> Self {
        self.architectures = archs.to_vec();
        self
    }

    /// Adds a scale point.
    pub fn with_scale(mut self, scale: ScalePoint) -> Self {
        self.scales.push(scale);
        self
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.channels.len() * self.architectures.len() * self.scales.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into cell keys, in the canonical (scale-major, then
    /// channel, then architecture) order the matrix stores them in.
    pub fn keys(&self) -> Vec<AttackCellKey> {
        self.expanded().into_iter().map(|(key, _)| key).collect()
    }

    /// The single source of truth for attack-cell ordering (mirrors
    /// [`SweepGrid::expanded`]).
    fn expanded(&self) -> Vec<(AttackCellKey, (&AttackSpec, &ScalePoint))> {
        let mut cells = Vec::with_capacity(self.len());
        for scale in &self.scales {
            for channel in &self.channels {
                for arch in &self.architectures {
                    let key = AttackCellKey {
                        channel: channel.label.clone(),
                        arch: *arch,
                        scale: scale.label().to_string(),
                    };
                    cells.push((key, (channel, scale)));
                }
            }
        }
        cells
    }
}

/// Identity of one attack cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCellKey {
    /// Channel label.
    pub channel: String,
    /// Architecture under attack.
    pub arch: Architecture,
    /// Scale label.
    pub scale: String,
}

impl fmt::Display for AttackCellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The "attack" prefix namespaces attack-cell seeds away from the
        // performance grid's, so identical labels can never collide.
        write!(f, "attack | {} | {} | {}", self.channel, self.arch, self.scale)
    }
}

/// An attack-sweep failure.
pub type AttackSweepError = CellError<AttackCellKey, RunError>;

/// One completed attack cell.
#[derive(Debug, Clone)]
pub struct AttackCell {
    /// The cell's identity.
    pub key: AttackCellKey,
    /// The seed the cell ran with.
    pub seed: u64,
    /// The decoded attack outcome.
    pub outcome: AttackOutcome,
}

/// The completed attack grid, in canonical order (scale-major, then channel,
/// architecture), with differential-security queries.
pub type AttackMatrix = Matrix<AttackCell>;

impl AttackMatrix {
    /// Effective BER (`min(ber, 1 − ber)`, as
    /// [`ChannelVerdict::from_ber`](crate::attack::ChannelVerdict::from_ber)
    /// judges it) below which a channel must decode on the insecure baseline
    /// for the differential security claim to hold.
    pub const BASELINE_MAX_BER: f64 = 0.10;

    /// Looks up one cell.
    pub fn get(&self, channel: &str, arch: Architecture, scale: &str) -> Option<&AttackCell> {
        self.cells
            .iter()
            .find(|c| c.key.channel == channel && c.key.arch == arch && c.key.scale == scale)
    }

    /// Checks the differential security claim over every (channel, scale)
    /// pair for which both the insecure baseline and IRONHIDE are present:
    /// the channel must demonstrably *work* on the shared baseline (verdict
    /// open, effective BER below [`AttackMatrix::BASELINE_MAX_BER`] — an
    /// inverted-polarity decode near BER 1.0 is a working channel) and be
    /// indistinguishable from guessing under IRONHIDE (verdict closed, with a
    /// clean isolation audit). Returns a description of each violation
    /// (empty = the claim holds).
    pub fn differential_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (channel, scale) in self.distinct(|c| (c.key.channel.clone(), c.key.scale.clone())) {
            let (Some(open), Some(closed)) = (
                self.get(&channel, Architecture::Insecure, &scale),
                self.get(&channel, Architecture::Ironhide, &scale),
            ) else {
                continue;
            };
            let effective_ber = open.outcome.ber.min(1.0 - open.outcome.ber);
            if !(open.outcome.is_open() && effective_ber < Self::BASELINE_MAX_BER) {
                violations.push(format!(
                    "{channel} @{scale}: does not decode on the insecure baseline \
                     (BER {:.3}, verdict {}) — the channel itself is broken",
                    open.outcome.ber, open.outcome.verdict
                ));
            }
            if !closed.outcome.is_closed() {
                violations.push(format!(
                    "{channel} @{scale}: IRONHIDE leaks (BER {:.3}, verdict {})",
                    closed.outcome.ber, closed.outcome.verdict
                ));
            }
            if !closed.outcome.isolation.is_clean() {
                violations.push(format!(
                    "{channel} @{scale}: attack tripped isolation invariants under IRONHIDE: {:?}",
                    closed.outcome.isolation.violations
                ));
            }
        }
        violations
    }
}

impl SweepRunner {
    /// Runs every cell of the attack `grid` in parallel and collects the
    /// outcomes in grid order, under the same determinism contract as
    /// [`SweepRunner::run`]: the serialised [`AttackMatrix`] is byte-identical
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// Returns the first (in grid order) [`AttackSweepError`] if any cell
    /// fails; partial results are discarded.
    pub fn run_attacks(&self, grid: &AttackGrid) -> Result<AttackMatrix, AttackSweepError> {
        self.run_grid(grid.expanded(), |key, (channel, scale), seed, slot| {
            let outcome = channel.execute(&self.machine, key.arch, scale, seed, slot)?;
            Ok(AttackCell { key: key.clone(), seed, outcome })
        })
    }
}

// ---------------------------------------------------------------------------
// Ablation matrix (temporal-fence flush subsets × covert channels)
// ---------------------------------------------------------------------------

/// A point on the ablation grid's flush-subset axis: a display label plus the
/// temporal-fence configuration every cell in that row runs under.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationSpec {
    label: String,
    fence: TemporalFenceConfig,
}

impl AblationSpec {
    /// Creates a subset spec with an explicit label (used by presets whose
    /// identity is more than their resource list, like `"simf"`).
    pub fn new(label: impl Into<String>, fence: TemporalFenceConfig) -> Self {
        AblationSpec { label: label.into(), fence }
    }

    /// A selective flush of exactly `set`, labelled by the set itself
    /// (`"none"`, `"tlb"`, `"l1+tlb+dir"`, …).
    pub fn subset(set: FlushSet) -> Self {
        AblationSpec::new(set.label(), TemporalFenceConfig::selective(set))
    }

    /// The SIMF preset: flush everything, one fixed (capacity-worst-case)
    /// cost, labelled `"simf"`.
    pub fn simf() -> Self {
        AblationSpec::new("simf", TemporalFenceConfig::simf())
    }

    /// The subset's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The temporal-fence configuration the subset's cells run under.
    pub fn fence(&self) -> TemporalFenceConfig {
        self.fence
    }
}

/// The {flush subset × channel × scale} grid of the defence-ablation sweep:
/// every cell attacks [`Architecture::TemporalFence`] configured with the
/// row's flush subset, reusing the attack grid's channel specs verbatim.
#[derive(Debug, Clone, Default)]
pub struct AblationGrid {
    /// Temporal-fence flush subsets to ablate.
    pub subsets: Vec<AblationSpec>,
    /// Covert channels to attempt against each subset.
    pub channels: Vec<AttackSpec>,
    /// Input scales (payload length per the channel implementation).
    pub scales: Vec<ScalePoint>,
}

impl AblationGrid {
    /// Creates an empty grid.
    pub fn new() -> Self {
        AblationGrid::default()
    }

    /// Adds a flush subset.
    pub fn with_subset(mut self, subset: AblationSpec) -> Self {
        self.subsets.push(subset);
        self
    }

    /// Adds a channel.
    pub fn with_channel(mut self, channel: AttackSpec) -> Self {
        self.channels.push(channel);
        self
    }

    /// Adds a scale point.
    pub fn with_scale(mut self, scale: ScalePoint) -> Self {
        self.scales.push(scale);
        self
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.subsets.len() * self.channels.len() * self.scales.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into cell keys, in the canonical (scale-major, then
    /// subset, then channel) order the matrix stores them in.
    pub fn keys(&self) -> Vec<AblationCellKey> {
        self.expanded().into_iter().map(|(key, _)| key).collect()
    }

    /// The single source of truth for ablation-cell ordering (mirrors
    /// [`AttackGrid::expanded`]).
    fn expanded(&self) -> Vec<(AblationCellKey, (&AblationSpec, &AttackSpec, &ScalePoint))> {
        let mut cells = Vec::with_capacity(self.len());
        for scale in &self.scales {
            for subset in &self.subsets {
                for channel in &self.channels {
                    let key = AblationCellKey {
                        subset: subset.label.clone(),
                        channel: channel.label.clone(),
                        scale: scale.label().to_string(),
                    };
                    cells.push((key, (subset, channel, scale)));
                }
            }
        }
        cells
    }
}

/// Identity of one ablation cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationCellKey {
    /// Flush-subset label.
    pub subset: String,
    /// Channel label.
    pub channel: String,
    /// Scale label.
    pub scale: String,
}

impl fmt::Display for AblationCellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The "ablation" prefix namespaces these seeds away from both the
        // performance grid's and the attack grid's, so identical channel and
        // scale labels can never collide across matrices.
        write!(f, "ablation | {} | {} | {}", self.subset, self.channel, self.scale)
    }
}

/// An ablation-sweep failure.
pub type AblationSweepError = CellError<AblationCellKey, RunError>;

/// One completed ablation cell.
#[derive(Debug, Clone)]
pub struct AblationCell {
    /// The cell's identity.
    pub key: AblationCellKey,
    /// The seed the cell ran with.
    pub seed: u64,
    /// The state-independent cycles one domain switch charged under the
    /// cell's flush subset (`TemporalFenceConfig::switch_cost` for the cell's
    /// machine configuration) — the throughput price of the row's defence.
    pub switch_cost: u64,
    /// The decoded attack outcome.
    pub outcome: AttackOutcome,
}

/// The completed ablation grid, in canonical order (scale-major, then
/// subset, channel), with closure queries — the fence.t.s experiment as a
/// matrix: which flush subset closes which channel at what switch cost.
pub type AblationMatrix = Matrix<AblationCell>;

impl AblationMatrix {
    /// Looks up one cell.
    pub fn get(&self, subset: &str, channel: &str, scale: &str) -> Option<&AblationCell> {
        self.cells
            .iter()
            .find(|c| c.key.subset == subset && c.key.channel == channel && c.key.scale == scale)
    }

    /// The cheapest (lowest switch cost) subset that closes `channel` at
    /// `scale`, if any subset does. Ties break toward grid order, which lists
    /// smaller subsets first in the shipped grids.
    pub fn cheapest_closed(&self, channel: &str, scale: &str) -> Option<&AblationCell> {
        self.cells
            .iter()
            .filter(|c| c.key.channel == channel && c.key.scale == scale && c.outcome.is_closed())
            .min_by_key(|c| c.switch_cost)
    }

    /// Checks the ablation claim over every (channel, scale) pair for which
    /// both the `none_label` row (zero flush) and the `simf_label` row are
    /// present: the channel must demonstrably *work* when nothing is flushed
    /// (verdict open — a zero-flush fence is the insecure baseline; the open
    /// band admits the reconfiguration-window channel's inherent probe noise,
    /// which sits above the stream channels'
    /// [`AttackMatrix::BASELINE_MAX_BER`]), SIMF must close it, and at least
    /// one selective subset must close it at a strictly lower switch cost
    /// than SIMF. Returns a description of each violation (empty = the claim
    /// holds).
    pub fn differential_violations(&self, none_label: &str, simf_label: &str) -> Vec<String> {
        let mut violations = Vec::new();
        for (channel, scale) in self.distinct(|c| (c.key.channel.clone(), c.key.scale.clone())) {
            let (Some(open), Some(simf)) =
                (self.get(none_label, &channel, &scale), self.get(simf_label, &channel, &scale))
            else {
                continue;
            };
            if !open.outcome.is_open() {
                violations.push(format!(
                    "{channel} @{scale}: does not decode under the zero-flush fence \
                     (BER {:.3}, verdict {}) — the channel itself is broken",
                    open.outcome.ber, open.outcome.verdict
                ));
            }
            if !simf.outcome.is_closed() {
                violations.push(format!(
                    "{channel} @{scale}: SIMF leaks (BER {:.3}, verdict {})",
                    simf.outcome.ber, simf.outcome.verdict
                ));
            }
            match self.cheapest_closed(&channel, &scale) {
                Some(best) if best.switch_cost < simf.switch_cost => {}
                Some(best) => violations.push(format!(
                    "{channel} @{scale}: no selective subset beats SIMF \
                     (cheapest closed is {} at {} cycles, SIMF costs {})",
                    best.key.subset, best.switch_cost, simf.switch_cost
                )),
                None => violations
                    .push(format!("{channel} @{scale}: no subset closes the channel at all")),
            }
        }
        violations
    }

    /// FNV-1a over the serialised matrix — the single number `tests/pins.rs`
    /// pins for the whole ablation (same scheme as the fault campaign's
    /// checksum).
    pub fn checksum(&self) -> u64 {
        fnv1a(self.to_json().into_bytes())
    }
}

impl SweepRunner {
    /// Runs every cell of the ablation `grid` in parallel and collects the
    /// outcomes in grid order, under the same determinism contract as
    /// [`SweepRunner::run_attacks`]: the serialised [`AblationMatrix`] is
    /// byte-identical at any thread count.
    ///
    /// Every cell attacks [`Architecture::TemporalFence`] with the runner's
    /// machine configuration, its `temporal_fence` field overwritten by the
    /// cell's subset. Machines still recycle through the per-worker pools
    /// across subsets: cell configurations differ *only* in the fence policy,
    /// which the runners read from their own configuration at every boundary
    /// — never from the pooled machine's stored copy — so a machine built
    /// under one subset is byte-equivalent, after `reset_pristine`, to one
    /// built under any other.
    ///
    /// # Errors
    ///
    /// Returns the first (in grid order) [`AblationSweepError`] if any cell
    /// fails; partial results are discarded.
    pub fn run_ablation(&self, grid: &AblationGrid) -> Result<AblationMatrix, AblationSweepError> {
        self.run_grid(grid.expanded(), |key, (subset, channel, scale), seed, slot| {
            let mut cell_config = self.machine.clone();
            cell_config.temporal_fence = subset.fence;
            let switch_cost = subset.fence.switch_cost(&cell_config);
            let outcome =
                channel.execute(&cell_config, Architecture::TemporalFence, scale, seed, slot)?;
            Ok(AblationCell { key: key.clone(), seed, switch_cost, outcome })
        })
    }
}

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

/// One completed cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The cell's identity.
    pub key: CellKey,
    /// The seed the cell ran with.
    pub seed: u64,
    /// The experiment's outcome.
    pub report: CompletionReport,
}

/// The completed performance grid, in canonical order (scale-major, then
/// app, architecture, policy), with figure-oriented queries.
pub type SweepMatrix = Matrix<SweepCell>;

/// One row of the Figure 6 summary: per-application completion times under
/// each architecture.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Application label.
    pub app: String,
    /// Scale label.
    pub scale: String,
    /// Completion time under the insecure baseline, in milliseconds.
    pub insecure_ms: f64,
    /// Completion time under the SGX-like architecture, in milliseconds.
    pub sgx_ms: f64,
    /// Completion time under MI6, in milliseconds.
    pub mi6_ms: f64,
    /// Completion time under IRONHIDE, in milliseconds.
    pub ironhide_ms: f64,
    /// Secure-cluster cores IRONHIDE settled on.
    pub ironhide_secure_cores: usize,
    /// MI6 completion time over IRONHIDE completion time (>1 means IRONHIDE
    /// is faster).
    pub mi6_over_ironhide: f64,
}

/// One row of the Figure 7 summary: L1/L2 miss rates under MI6 and IRONHIDE.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Application label.
    pub app: String,
    /// Scale label.
    pub scale: String,
    /// Private L1 miss rate under MI6.
    pub mi6_l1: f64,
    /// Private L1 miss rate under IRONHIDE.
    pub ironhide_l1: f64,
    /// Shared L2 miss rate under MI6.
    pub mi6_l2: f64,
    /// Shared L2 miss rate under IRONHIDE.
    pub ironhide_l2: f64,
}

impl Fig7Row {
    /// L1 miss-rate gain (MI6 / IRONHIDE; above 1 means IRONHIDE misses
    /// less, the paper's "L1 thrashing" effect).
    pub fn l1_gain(&self) -> f64 {
        self.mi6_l1 / self.ironhide_l1.max(1e-9)
    }

    /// L2 miss-rate gain (MI6 / IRONHIDE).
    pub fn l2_gain(&self) -> f64 {
        self.mi6_l2 / self.ironhide_l2.max(1e-9)
    }
}

/// One row of the Figure 8 summary: IRONHIDE under one re-allocation policy.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Application label.
    pub app: String,
    /// Scale label.
    pub scale: String,
    /// Re-allocation policy.
    pub policy: ReallocPolicy,
    /// Completion time in milliseconds.
    pub total_ms: f64,
    /// Secure-cluster cores the policy settled on.
    pub secure_cores: usize,
}

impl SweepMatrix {
    /// Looks up one cell.
    pub fn get(
        &self,
        app: &str,
        arch: Architecture,
        policy: ReallocPolicy,
        scale: &str,
    ) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.key.app == app && c.key.arch == arch && c.key.policy == policy && c.key.scale == scale
        })
    }

    /// The Figure 6 completion-time summary under `policy`, one row per
    /// (app, scale) pair for which all four architectures are present.
    pub fn fig6(&self, policy: ReallocPolicy) -> Vec<Fig6Row> {
        let mut rows = Vec::new();
        for (app, scale) in self.distinct(|c| (c.key.app.clone(), c.key.scale.clone())) {
            let cell = |arch| self.get(&app, arch, policy, &scale);
            let (Some(insecure), Some(sgx), Some(mi6), Some(ironhide)) = (
                cell(Architecture::Insecure),
                cell(Architecture::SgxLike),
                cell(Architecture::Mi6),
                cell(Architecture::Ironhide),
            ) else {
                continue;
            };
            rows.push(Fig6Row {
                app,
                scale,
                insecure_ms: insecure.report.total_time_ms(),
                sgx_ms: sgx.report.total_time_ms(),
                mi6_ms: mi6.report.total_time_ms(),
                ironhide_ms: ironhide.report.total_time_ms(),
                ironhide_secure_cores: ironhide.report.secure_cores,
                mi6_over_ironhide: ironhide.report.speedup_over(&mi6.report),
            });
        }
        rows
    }

    /// Checks the paper's Figure 6 ordering — insecure ≤ IRONHIDE ≤ MI6
    /// completion time — for every complete row under `policy`, returning a
    /// description of each violation (empty = all orderings hold).
    pub fn fig6_ordering_violations(&self, policy: ReallocPolicy) -> Vec<String> {
        let mut violations = Vec::new();
        for row in self.fig6(policy) {
            if row.insecure_ms > row.ironhide_ms {
                violations.push(format!(
                    "{} @{}: insecure ({:.4} ms) slower than IRONHIDE ({:.4} ms)",
                    row.app, row.scale, row.insecure_ms, row.ironhide_ms
                ));
            }
            if row.ironhide_ms > row.mi6_ms {
                violations.push(format!(
                    "{} @{}: IRONHIDE ({:.4} ms) slower than MI6 ({:.4} ms)",
                    row.app, row.scale, row.ironhide_ms, row.mi6_ms
                ));
            }
        }
        violations
    }

    /// The Figure 7 miss-rate summary under `policy`, one row per (app,
    /// scale) pair for which both MI6 and IRONHIDE are present.
    pub fn fig7(&self, policy: ReallocPolicy) -> Vec<Fig7Row> {
        let mut rows = Vec::new();
        for (app, scale) in self.distinct(|c| (c.key.app.clone(), c.key.scale.clone())) {
            let (Some(mi6), Some(ironhide)) = (
                self.get(&app, Architecture::Mi6, policy, &scale),
                self.get(&app, Architecture::Ironhide, policy, &scale),
            ) else {
                continue;
            };
            rows.push(Fig7Row {
                app,
                scale,
                mi6_l1: mi6.report.l1_miss_rate,
                ironhide_l1: ironhide.report.l1_miss_rate,
                mi6_l2: mi6.report.l2_miss_rate,
                ironhide_l2: ironhide.report.l2_miss_rate,
            });
        }
        rows
    }

    /// The Figure 8 policy-sensitivity summary: every IRONHIDE cell, in grid
    /// order.
    pub fn fig8(&self) -> Vec<Fig8Row> {
        self.cells
            .iter()
            .filter(|c| c.key.arch == Architecture::Ironhide)
            .map(|c| Fig8Row {
                app: c.key.app.clone(),
                scale: c.key.scale.clone(),
                policy: c.key.policy,
                total_ms: c.report.total_time_ms(),
                secure_cores: c.report.secure_cores,
            })
            .collect()
    }

    /// Geometric-mean IRONHIDE completion time (ms) under each of two
    /// policies, over the (app, scale) pairs where both are present —
    /// typically used to compare the heuristic against static re-allocation.
    pub fn policy_geomeans(&self, a: ReallocPolicy, b: ReallocPolicy) -> Option<(f64, f64)> {
        let mut times_a = Vec::new();
        let mut times_b = Vec::new();
        for (app, scale) in self.distinct(|c| (c.key.app.clone(), c.key.scale.clone())) {
            let (Some(cell_a), Some(cell_b)) = (
                self.get(&app, Architecture::Ironhide, a, &scale),
                self.get(&app, Architecture::Ironhide, b, &scale),
            ) else {
                continue;
            };
            times_a.push(cell_a.report.total_time_ms());
            times_b.push(cell_b.report.total_time_ms());
        }
        if times_a.is_empty() {
            None
        } else {
            Some((geometric_mean(&times_a), geometric_mean(&times_b)))
        }
    }

    /// Every [`PAPER_VALUES`] entry beside its reproduction from this
    /// matrix, in table order, omitting an entry whose cells the matrix
    /// lacks.
    pub fn scorecard(&self) -> Vec<ScorecardRow> {
        use Architecture::{Insecure, Ironhide, Mi6, SgxLike};
        use ReallocPolicy::{Heuristic, Optimal};
        type Cell = (Architecture, ReallocPolicy);
        let time_ratio = |num: Cell, den: Cell| {
            self.app_geomean(|c| {
                Some(c(num.0, num.1)?.total_time_ms() / c(den.0, den.1)?.total_time_ms())
            })
        };
        // In PAPER_VALUES order.
        let reproduced: [Option<f64>; PAPER_VALUES.len()] = [
            time_ratio((SgxLike, Heuristic), (Insecure, Heuristic)),
            time_ratio((Mi6, Heuristic), (Insecure, Heuristic)),
            time_ratio((Mi6, Heuristic), (Ironhide, Heuristic)),
            time_ratio((SgxLike, Heuristic), (Ironhide, Heuristic)),
            self.app_geomean(|c| Some(c(Mi6, Heuristic)?.overhead_per_interaction_ms())),
            self.app_geomean(|c| {
                let ironhide = c(Ironhide, Heuristic)?;
                let ironhide_cycles = ironhide.overhead_cycles + ironhide.reconfig_cycles;
                Some(c(Mi6, Heuristic)?.overhead_cycles as f64 / ironhide_cycles.max(1) as f64)
            }),
            self.fig7(Heuristic).iter().map(Fig7Row::l1_gain).reduce(f64::max),
            self.fig7(Heuristic).iter().map(Fig7Row::l2_gain).reduce(f64::max),
            time_ratio((Mi6, Heuristic), (Ironhide, Optimal)),
        ];
        PAPER_VALUES
            .into_iter()
            .zip(reproduced)
            .filter_map(|(value, reproduced)| {
                let reproduced = reproduced?;
                Some(ScorecardRow {
                    value,
                    reproduced,
                    relative_error: reproduced / value.paper - 1.0,
                })
            })
            .collect()
    }

    /// The geometric mean of `f` over the (app, scale) pairs it is defined
    /// for, or `None` when it is defined for none. `f` looks the pair's cells
    /// up by architecture and policy.
    fn app_geomean<'a>(&'a self, f: impl Fn(&Cells<'_, 'a>) -> Option<f64>) -> Option<f64> {
        let values: Vec<f64> = self
            .distinct(|c| (c.key.app.clone(), c.key.scale.clone()))
            .iter()
            .filter_map(|(app, scale)| {
                f(&|arch, policy| Some(&self.get(app, arch, policy, scale)?.report))
            })
            .collect();
        (!values.is_empty()).then(|| geometric_mean(&values))
    }
}

/// One (app, scale) pair's cell reports, by architecture and policy.
type Cells<'r, 'a> = dyn Fn(Architecture, ReallocPolicy) -> Option<&'a CompletionReport> + 'r;

/// A value the paper states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperValue {
    /// The figure that states it.
    pub figure: &'static str,
    /// What it measures.
    pub quantity: &'static str,
    /// The paper's value.
    pub paper: f64,
}

/// The paper's reference values (arXiv 1904.12729), as its text states
/// them, in the order [`SweepMatrix::scorecard`] reproduces them. Each is a
/// geometric mean over the applications, except Figure 7's gains, which the
/// paper states as the largest ("up to").
pub const PAPER_VALUES: [PaperValue; 9] = [
    PaperValue { figure: "Fig 1", quantity: "SGX / Insecure completion time", paper: 1.33 },
    PaperValue { figure: "Fig 1", quantity: "MI6 / Insecure completion time", paper: 2.25 },
    PaperValue { figure: "Fig 1", quantity: "MI6 / IRONHIDE completion time", paper: 2.1 },
    PaperValue { figure: "Fig 1", quantity: "SGX / IRONHIDE completion time", paper: 1.2 },
    PaperValue { figure: "Fig 6", quantity: "MI6 purge per interaction (ms)", paper: 0.19 },
    PaperValue { figure: "Fig 6", quantity: "purge-component gain over MI6", paper: 706.0 },
    PaperValue { figure: "Fig 7", quantity: "largest L1 miss-rate gain over MI6", paper: 5.9 },
    PaperValue { figure: "Fig 7", quantity: "largest L2 miss-rate gain over MI6", paper: 2.0 },
    PaperValue { figure: "Fig 8", quantity: "Optimal speedup over MI6", paper: 2.3 },
];

/// One [`PaperValue`] beside its reproduction, from [`SweepMatrix::scorecard`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScorecardRow {
    /// The paper's value and what it measures.
    pub value: PaperValue,
    /// The value this matrix reproduces.
    pub reproduced: f64,
    /// `reproduced / paper − 1`: negative means below the paper's value.
    pub relative_error: f64,
}

/// The geometric mean of a slice of positive values (0 when empty).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

// ---------------------------------------------------------------------------
// JSON rendering (hand-rolled: the build environment has no registry access,
// so serde is unavailable; the subset needed here is tiny and its output
// must be byte-stable anyway).
// ---------------------------------------------------------------------------

pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip rendering is deterministic and re-parses
        // to the same bits; integral values print without a fraction, which
        // is still a valid JSON number.
        out.push_str(&v.to_string());
    } else {
        // JSON has no NaN/Infinity; null keeps the document well-formed.
        out.push_str("null");
    }
}

macro_rules! json_fields {
    ($out:ident, { $($name:literal : $value:expr),+ $(,)? }) => {{
        $out.push('{');
        let mut first = true;
        $(
            if !first {
                $out.push(',');
            }
            first = false;
            let _ = first;
            $out.push('"');
            $out.push_str($name);
            $out.push_str("\":");
            $value;
        )+
        $out.push('}');
    }};
}
pub(crate) use json_fields;

fn cache_stats_json(out: &mut String, s: &ironhide_cache::CacheStats) {
    json_fields!(out, {
        "accesses": out.push_str(&s.accesses.to_string()),
        "hits": out.push_str(&s.hits.to_string()),
        "misses": out.push_str(&s.misses.to_string()),
        "evictions": out.push_str(&s.evictions.to_string()),
        "writebacks": out.push_str(&s.writebacks.to_string()),
        "flushed_lines": out.push_str(&s.flushed_lines.to_string()),
        "purges": out.push_str(&s.purges.to_string()),
    });
}

fn mem_stats_json(out: &mut String, s: &ironhide_mem::MemStats) {
    json_fields!(out, {
        "requests": out.push_str(&s.requests.to_string()),
        "reads": out.push_str(&s.reads.to_string()),
        "writes": out.push_str(&s.writes.to_string()),
        "row_hits": out.push_str(&s.row_hits.to_string()),
        "row_misses": out.push_str(&s.row_misses.to_string()),
        "total_latency_cycles": out.push_str(&s.total_latency_cycles.to_string()),
        "purges": out.push_str(&s.purges.to_string()),
    });
}

fn noc_stats_json(out: &mut String, s: &ironhide_mesh::NocStats) {
    json_fields!(out, {
        "packets": out.push_str(&s.packets.to_string()),
        "flits": out.push_str(&s.flits.to_string()),
        "hops": out.push_str(&s.hops.to_string()),
        "latency_cycles": out.push_str(&s.latency_cycles.to_string()),
        "cross_cluster_packets": out.push_str(&s.cross_cluster_packets.to_string()),
        "requests": out.push_str(&s.requests.to_string()),
        "responses": out.push_str(&s.responses.to_string()),
        "writebacks": out.push_str(&s.writebacks.to_string()),
        "ipc": out.push_str(&s.ipc.to_string()),
        "maintenance": out.push_str(&s.maintenance.to_string()),
    });
}

fn directory_stats_json(out: &mut String, s: &ironhide_cache::DirectoryStats) {
    json_fields!(out, {
        "lookups": out.push_str(&s.lookups.to_string()),
        "hits": out.push_str(&s.hits.to_string()),
        "allocations": out.push_str(&s.allocations.to_string()),
        "invalidations": out.push_str(&s.invalidations.to_string()),
        "downgrades": out.push_str(&s.downgrades.to_string()),
        "back_invalidations": out.push_str(&s.back_invalidations.to_string()),
        "purges": out.push_str(&s.purges.to_string()),
        "flushed_entries": out.push_str(&s.flushed_entries.to_string()),
    });
}

fn machine_stats_json(out: &mut String, s: &ironhide_sim::stats::MachineStats) {
    json_fields!(out, {
        "l1": cache_stats_json(out, &s.l1),
        "tlb": cache_stats_json(out, &s.tlb),
        "l2": cache_stats_json(out, &s.l2),
        "mem": mem_stats_json(out, &s.mem),
        "noc": noc_stats_json(out, &s.noc),
        "directory": directory_stats_json(out, &s.directory),
        "core_purges": out.push_str(&s.core_purges.to_string()),
        "pages_rehomed": out.push_str(&s.pages_rehomed.to_string()),
    });
}

fn isolation_json(out: &mut String, s: &crate::isolation::IsolationSummary) {
    json_fields!(out, {
        "cross_cluster_packets": out.push_str(&s.cross_cluster_packets.to_string()),
        "ipc_packets": out.push_str(&s.ipc_packets.to_string()),
        "spec_checks": out.push_str(&s.spec_checks.to_string()),
        "spec_blocked": out.push_str(&s.spec_blocked.to_string()),
        "containment_verified": out.push_str(if s.containment_verified { "true" } else { "false" }),
        "violations": {
            out.push('[');
            for (i, v) in s.violations.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_string(out, v);
            }
            out.push(']');
        },
    });
}

/// Renders one report as a JSON object. Public so the golden-stats tests and
/// any external tooling can snapshot individual reports.
pub fn report_json(out: &mut String, r: &CompletionReport) {
    json_fields!(out, {
        "app": json_string(out, &r.app),
        "arch": json_string(out, &r.arch.to_string()),
        "total_cycles": out.push_str(&r.total_cycles.to_string()),
        "compute_cycles": out.push_str(&r.compute_cycles.to_string()),
        "overhead_cycles": out.push_str(&r.overhead_cycles.to_string()),
        "reconfig_cycles": out.push_str(&r.reconfig_cycles.to_string()),
        "interactions": out.push_str(&r.interactions.to_string()),
        "secure_cores": out.push_str(&r.secure_cores.to_string()),
        "l1_miss_rate": json_f64(out, r.l1_miss_rate),
        "l2_miss_rate": json_f64(out, r.l2_miss_rate),
        "clock_ghz": json_f64(out, r.clock_ghz),
        "isolation": isolation_json(out, &r.isolation),
        "machine": machine_stats_json(out, &r.machine),
    });
}

impl MatrixRow for SweepCell {
    fn write_json(&self, out: &mut String) {
        json_fields!(out, {
            "app": json_string(out, &self.key.app),
            "arch": json_string(out, &self.key.arch.to_string()),
            "policy": json_string(out, &self.key.policy.to_string()),
            "scale": json_string(out, &self.key.scale),
            "seed": out.push_str(&self.seed.to_string()),
            "report": report_json(out, &self.report),
        });
    }
}

/// Renders one attack outcome as a JSON object (the attack and ablation
/// matrices are snapshotted whole through [`Matrix::to_json`]).
fn attack_outcome_json(out: &mut String, o: &AttackOutcome) {
    json_fields!(out, {
        "channel": json_string(out, &o.channel),
        "arch": json_string(out, &o.arch.to_string()),
        "payload_bits": out.push_str(&o.payload_bits.to_string()),
        "bit_errors": out.push_str(&o.bit_errors.to_string()),
        "ber": json_f64(out, o.ber),
        "threshold_cycles": json_f64(out, o.threshold_cycles),
        "min_probe_cycles": out.push_str(&o.min_probe_cycles.to_string()),
        "max_probe_cycles": out.push_str(&o.max_probe_cycles.to_string()),
        "capacity_bits_per_slot": json_f64(out, o.capacity_bits_per_slot),
        "capacity_bits_per_second": json_f64(out, o.capacity_bits_per_second),
        "payload_cycles": out.push_str(&o.payload_cycles.to_string()),
        "secure_cores": out.push_str(&o.secure_cores.to_string()),
        "verdict": json_string(out, &o.verdict.to_string()),
        "isolation": isolation_json(out, &o.isolation),
    });
}

impl MatrixRow for AttackCell {
    fn write_json(&self, out: &mut String) {
        json_fields!(out, {
            "channel": json_string(out, &self.key.channel),
            "arch": json_string(out, &self.key.arch.to_string()),
            "scale": json_string(out, &self.key.scale),
            "seed": out.push_str(&self.seed.to_string()),
            "outcome": attack_outcome_json(out, &self.outcome),
        });
    }
}

impl MatrixRow for AblationCell {
    fn write_json(&self, out: &mut String) {
        json_fields!(out, {
            "subset": json_string(out, &self.key.subset),
            "channel": json_string(out, &self.key.channel),
            "scale": json_string(out, &self.key.scale),
            "seed": out.push_str(&self.seed.to_string()),
            "switch_cost": out.push_str(&self.switch_cost.to_string()),
            "outcome": attack_outcome_json(out, &self.outcome),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Interaction, MemRef, ProcessProfile, RefStream, WorkUnit};
    use crate::cluster::ClusterError;
    use ironhide_sim::process::SecurityClass;

    /// A deterministic synthetic app whose trace is derived from the cell
    /// seed, exercising the seed plumbing.
    #[derive(Debug)]
    struct SeededApp {
        insecure: ProcessProfile,
        secure: ProcessProfile,
        seed: u64,
    }

    impl SeededApp {
        fn new(seed: u64) -> Self {
            SeededApp {
                insecure: ProcessProfile::new("gen", SecurityClass::Insecure, 0.9, 50, 16),
                secure: ProcessProfile::new("enc", SecurityClass::Secure, 0.8, 100, 8),
                seed,
            }
        }
    }

    impl crate::app::InteractiveApp for SeededApp {
        fn name(&self) -> &str {
            "<SEEDED, TEST>"
        }
        fn insecure_profile(&self) -> &ProcessProfile {
            &self.insecure
        }
        fn secure_profile(&self) -> &ProcessProfile {
            &self.secure
        }
        fn interactions(&self) -> usize {
            4
        }
        fn interactivity_per_second(&self) -> f64 {
            100.0
        }
        fn interaction(&mut self, idx: usize) -> Interaction {
            let base = (self.seed % 64) * 64;
            let mut insecure = RefStream::new();
            let mut secure = RefStream::new();
            for i in 0..32u64 {
                insecure.push(MemRef::write(base + (idx as u64 * 32 + i) * 64));
                secure.push(MemRef::read(0x20_0000 + base + (i % 16) * 64));
            }
            Interaction {
                insecure: WorkUnit::new(1_000, insecure),
                secure: WorkUnit::new(2_000, secure),
                ipc_bytes: 128,
            }
        }
        fn reset(&mut self) {}
    }

    fn test_grid() -> SweepGrid {
        SweepGrid::new()
            .with_app(AppSpec::new("<SEEDED, TEST>", |_, seed| Box::new(SeededApp::new(seed))))
            .with_architectures(&[Architecture::Insecure, Architecture::Ironhide])
            .with_policies(&[ReallocPolicy::Static])
            .with_scale(ScalePoint::new("Smoke"))
    }

    fn test_runner() -> SweepRunner {
        let params =
            ArchParams { warmup_interactions: 1, predictor_sample: 1, ..ArchParams::default() };
        SweepRunner::new(MachineConfig::small_test()).with_params(params).with_seed(7)
    }

    #[test]
    fn grid_expansion_order_is_canonical() {
        let grid = test_grid();
        assert_eq!(grid.len(), 2);
        let keys = grid.keys();
        assert_eq!(keys[0].arch, Architecture::Insecure);
        assert_eq!(keys[1].arch, Architecture::Ironhide);
        assert!(!grid.is_empty());
        assert!(SweepGrid::new().is_empty());
    }

    #[test]
    fn cell_seeds_are_key_pure() {
        let runner = test_runner();
        let keys = test_grid().keys();
        assert_eq!(runner.cell_seed(&keys[0]), runner.cell_seed(&keys[0].clone()));
        assert_ne!(runner.cell_seed(&keys[0]), runner.cell_seed(&keys[1]));
        let reseeded = test_runner().with_seed(8);
        assert_ne!(runner.cell_seed(&keys[0]), reseeded.cell_seed(&keys[0]));
    }

    #[test]
    fn sweep_is_thread_count_independent() {
        let grid = test_grid();
        let baseline = test_runner().with_threads(1).run(&grid).unwrap().to_json();
        for threads in [2, 4] {
            let json = test_runner().with_threads(threads).run(&grid).unwrap().to_json();
            assert_eq!(json, baseline, "thread count {threads} changed the matrix");
        }
    }

    #[test]
    fn matrix_queries_find_cells() {
        let matrix = test_runner().run(&test_grid()).unwrap();
        assert_eq!(matrix.cells.len(), 2);
        let cell = matrix
            .get("<SEEDED, TEST>", Architecture::Ironhide, ReallocPolicy::Static, "Smoke")
            .expect("cell present");
        assert!(cell.report.total_cycles > 0);
        assert!(cell.report.isolation.is_clean());
        // fig6 needs all four architectures; this grid only has two.
        assert!(matrix.fig6(ReallocPolicy::Static).is_empty());
        let fig8 = matrix.fig8();
        assert_eq!(fig8.len(), 1);
        assert_eq!(fig8[0].policy, ReallocPolicy::Static);
    }

    #[test]
    fn scorecard_omits_rows_whose_cells_the_matrix_lacks() {
        let grid = test_grid()
            .with_architectures(&[Architecture::Insecure, Architecture::SgxLike])
            .with_policies(&[ReallocPolicy::Heuristic]);
        let matrix = test_runner().run(&grid).unwrap();
        let card = matrix.scorecard();
        assert_eq!(card.len(), 1, "only SGX / Insecure has its cells: {card:?}");
        let time = |arch| {
            let cell = matrix.get("<SEEDED, TEST>", arch, ReallocPolicy::Heuristic, "Smoke");
            cell.expect("cell present").report.total_time_ms()
        };
        let row = card[0];
        assert_eq!(row.value.quantity, PAPER_VALUES[0].quantity);
        let sgx_over_insecure = time(Architecture::SgxLike) / time(Architecture::Insecure);
        assert!((row.reproduced - sgx_over_insecure).abs() < 1e-12);
        assert_eq!(row.relative_error, row.reproduced / row.value.paper - 1.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let matrix = test_runner().run(&test_grid()).unwrap();
        let json = matrix.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"report\"").count(), 2);
        // Balanced braces and brackets (no string in the output contains
        // braces, so a raw count is a fair structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_strings() {
        let mut out = String::new();
        json_string(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
        let mut out = String::new();
        json_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        let mut out = String::new();
        json_f64(&mut out, 1.25);
        assert_eq!(out, "1.25");
    }

    /// A fake 16-bit attack outcome with `errors` bit errors, derived from
    /// the cell's inputs without simulating a machine.
    fn fake_outcome(
        config: &MachineConfig,
        arch: Architecture,
        scale: &ScalePoint,
        seed: u64,
        errors: u64,
        secure_cores: usize,
    ) -> AttackOutcome {
        let bits = 16u64;
        let ber = errors as f64 / bits as f64;
        AttackOutcome {
            channel: format!("fake-channel@{}", scale.label()),
            arch,
            payload_bits: bits,
            bit_errors: errors,
            ber,
            threshold_cycles: 10.0,
            min_probe_cycles: seed % 100,
            max_probe_cycles: seed % 100 + 50,
            capacity_bits_per_slot: 1.0 - ber,
            capacity_bits_per_second: (1.0 - ber) * config.clock_ghz,
            payload_cycles: 1000,
            secure_cores,
            verdict: crate::attack::ChannelVerdict::from_ber(ber),
            isolation: crate::isolation::IsolationSummary::default(),
        }
    }

    fn synthetic_attack_grid() -> AttackGrid {
        // A fake channel whose "outcome" is derived purely from the cell
        // seed, exercising grid ordering, seed plumbing and serialisation
        // without simulating a machine (the recycled-machine slot is
        // legitimately unused).
        let spec = AttackSpec::new("fake-channel", |config, arch, scale, seed, _machine| {
            Ok(fake_outcome(config, arch, scale, seed, seed % 17, config.cores() / 2))
        });
        AttackGrid::new()
            .with_channel(spec)
            .with_architectures(&[Architecture::Insecure, Architecture::Ironhide])
            .with_scale(ScalePoint::new("Smoke"))
    }

    #[test]
    fn attack_grid_expansion_order_is_canonical() {
        let grid = synthetic_attack_grid();
        assert_eq!(grid.len(), 2);
        assert!(!grid.is_empty());
        assert!(AttackGrid::new().is_empty());
        let keys = grid.keys();
        assert_eq!(keys[0].arch, Architecture::Insecure);
        assert_eq!(keys[1].arch, Architecture::Ironhide);
        assert!(keys[0].to_string().starts_with("attack | "));
    }

    #[test]
    fn attack_seeds_are_key_pure_and_namespaced() {
        let runner = test_runner();
        let keys = synthetic_attack_grid().keys();
        assert_eq!(runner.cell_seed(&keys[0]), runner.cell_seed(&keys[0].clone()));
        assert_ne!(runner.cell_seed(&keys[0]), runner.cell_seed(&keys[1]));
        // The "attack" namespace keeps attack seeds away from an app cell
        // that happens to render similarly.
        let app_key = CellKey {
            app: keys[0].channel.clone(),
            arch: keys[0].arch,
            policy: ReallocPolicy::Static,
            scale: keys[0].scale.clone(),
        };
        assert_ne!(runner.cell_seed(&keys[0]), runner.cell_seed(&app_key));
    }

    #[test]
    fn attack_matrix_is_thread_count_independent() {
        let grid = synthetic_attack_grid();
        let baseline = test_runner().with_threads(1).run_attacks(&grid).unwrap().to_json();
        for threads in [2, 4] {
            let json = test_runner().with_threads(threads).run_attacks(&grid).unwrap().to_json();
            assert_eq!(json, baseline, "thread count {threads} changed the attack matrix");
        }
        assert!(baseline.contains("\"verdict\""));
        assert_eq!(baseline.matches('{').count(), baseline.matches('}').count());
    }

    #[test]
    fn first_failing_cell_in_grid_order_is_the_error() {
        // A fake channel failing on the SGX-like and IRONHIDE cells (grid
        // positions 1 and 3). The earlier failure is slowed down so that,
        // with several workers, the later one finishes first.
        let spec =
            AttackSpec::new("failing-channel", |config, arch, scale, seed, _machine| match arch {
                Architecture::SgxLike => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Err(RunError::Cluster(ClusterError::Containment("first".into())))
                }
                Architecture::Ironhide => {
                    Err(RunError::Cluster(ClusterError::Containment("second".into())))
                }
                _ => Ok(fake_outcome(config, arch, scale, seed, 0, 0)),
            });
        let grid = AttackGrid::new()
            .with_channel(spec)
            .with_architectures(&Architecture::ALL)
            .with_scale(ScalePoint::new("Smoke"));
        let first = grid.keys()[1].clone();
        assert_eq!(first.arch, Architecture::SgxLike);
        for threads in [1, 2, 4] {
            let err = test_runner().with_threads(threads).run_attacks(&grid).unwrap_err();
            assert_eq!(err.cell, first, "{threads} threads returned a later cell's error");
            assert!(
                matches!(&err.error, RunError::Cluster(ClusterError::Containment(m)) if m == "first")
            );
            assert!(err.to_string().contains(&first.to_string()), "{err}");
        }
    }

    #[test]
    fn attack_matrix_queries_and_differential_check() {
        let matrix = test_runner().run_attacks(&synthetic_attack_grid()).unwrap();
        assert_eq!(matrix.cells.len(), 2);
        assert!(matrix.get("fake-channel", Architecture::Insecure, "Smoke").is_some());
        assert!(matrix.get("missing", Architecture::Insecure, "Smoke").is_none());
        // The synthetic outcomes are seed-derived, so the differential claim
        // will generally *not* hold — the checker must report something
        // rather than crash, and must mention the channel by name.
        for violation in matrix.differential_violations() {
            assert!(violation.contains("fake-channel"));
        }
    }

    #[test]
    fn inverted_polarity_baseline_is_a_working_channel() {
        // 16 of 16 bits wrong on the baseline is a perfect inverted decode;
        // 8 of 16 is guessing, so the channel itself is broken.
        let baseline_broken = |errors| {
            let (config, scale) = (MachineConfig::small_test(), ScalePoint::new("Smoke"));
            let cell = |arch, errors| AttackCell {
                key: AttackCellKey { channel: "c".into(), arch, scale: "Smoke".into() },
                seed: 0,
                outcome: fake_outcome(&config, arch, &scale, 0, errors, 0),
            };
            let cells = vec![cell(Architecture::Insecure, errors), cell(Architecture::Ironhide, 8)];
            let matrix = AttackMatrix { master_seed: 0, cells };
            matrix.differential_violations().iter().any(|v| v.contains("insecure baseline"))
        };
        assert!(!baseline_broken(16));
        assert!(baseline_broken(8));
    }

    fn synthetic_ablation_grid() -> AblationGrid {
        // Reuse the fake-channel pattern: outcomes derive purely from the
        // cell seed, exercising subset ordering, the per-cell fence override
        // and serialisation without simulating a machine.
        let spec = AttackSpec::new("fake-channel", |config, arch, scale, seed, _machine| {
            // The fake channel "closes" whenever any resource is flushed, so
            // the matrix queries have both verdicts to work with.
            let errors = if config.temporal_fence.set.is_empty() { seed % 2 } else { 8 };
            Ok(fake_outcome(config, arch, scale, seed, errors, config.cores()))
        });
        use ironhide_sim::fence::FlushResource;
        AblationGrid::new()
            .with_subset(AblationSpec::subset(FlushSet::EMPTY))
            .with_subset(AblationSpec::subset(FlushSet::of(&[FlushResource::Tlb])))
            .with_subset(AblationSpec::simf())
            .with_channel(spec)
            .with_scale(ScalePoint::new("Smoke"))
    }

    #[test]
    fn ablation_grid_expansion_order_is_canonical() {
        let grid = synthetic_ablation_grid();
        assert_eq!(grid.len(), 3);
        assert!(!grid.is_empty());
        assert!(AblationGrid::new().is_empty());
        let keys = grid.keys();
        assert_eq!(keys[0].subset, "none");
        assert_eq!(keys[1].subset, "tlb");
        assert_eq!(keys[2].subset, "simf");
        assert!(keys[0].to_string().starts_with("ablation | "));
    }

    #[test]
    fn ablation_seeds_are_key_pure_and_namespaced() {
        let runner = test_runner();
        let keys = synthetic_ablation_grid().keys();
        assert_eq!(runner.cell_seed(&keys[0]), runner.cell_seed(&keys[0].clone()));
        assert_ne!(runner.cell_seed(&keys[0]), runner.cell_seed(&keys[1]));
        // The "ablation" namespace keeps these seeds away from an attack cell
        // that happens to render similarly.
        let attack_key = AttackCellKey {
            channel: keys[0].channel.clone(),
            arch: Architecture::TemporalFence,
            scale: keys[0].scale.clone(),
        };
        assert_ne!(runner.cell_seed(&keys[0]), runner.cell_seed(&attack_key));
    }

    #[test]
    fn ablation_matrix_is_thread_count_independent() {
        let grid = synthetic_ablation_grid();
        let baseline = test_runner().with_threads(1).run_ablation(&grid).unwrap().to_json();
        for threads in [2, 4] {
            let json = test_runner().with_threads(threads).run_ablation(&grid).unwrap().to_json();
            assert_eq!(json, baseline, "thread count {threads} changed the ablation matrix");
        }
        assert!(baseline.contains("\"switch_cost\""));
        assert_eq!(baseline.matches('{').count(), baseline.matches('}').count());
    }

    #[test]
    fn ablation_matrix_queries_and_differential_check() {
        let matrix = test_runner().run_ablation(&synthetic_ablation_grid()).unwrap();
        assert_eq!(matrix.cells.len(), 3);
        assert!(matrix.get("simf", "fake-channel", "Smoke").is_some());
        assert!(matrix.get("missing", "fake-channel", "Smoke").is_none());
        // The zero-flush row charges nothing; flushing rows charge their
        // capacity costs, SIMF the most.
        let none = matrix.get("none", "fake-channel", "Smoke").unwrap();
        let tlb = matrix.get("tlb", "fake-channel", "Smoke").unwrap();
        let simf = matrix.get("simf", "fake-channel", "Smoke").unwrap();
        assert_eq!(none.switch_cost, 0);
        assert!(tlb.switch_cost > 0 && tlb.switch_cost < simf.switch_cost);
        // The fake channel closes under any flush, so the cheapest closing
        // subset is the TLB row and the differential claim holds.
        let best = matrix.cheapest_closed("fake-channel", "Smoke").unwrap();
        assert_eq!(best.key.subset, "tlb");
        assert!(matrix.differential_violations("none", "simf").is_empty());
        // With the closing rows renamed away, the checker reports rather
        // than crashes.
        assert!(!matrix.differential_violations("tlb", "none").is_empty());
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }
}
