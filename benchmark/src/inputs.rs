//! Workload inputs, built from `--seed` through the public model
//! constructors (never through `registry().model()`'s fixed seed), and the
//! set-up step every engine workload shares: construct the model, profile
//! its dependence distance, run the independent reference.

use std::time::Instant;

use crossinvoc::pir::ir::{Expr, Program, ProgramBuilder, StmtId};
use crossinvoc_domore::{Dispatch, DomoreWorkload};
use crossinvoc_runtime::ThreadId;
use crossinvoc_sim::SimWorkload;
use crossinvoc_speccross::workload::{AccessRecorder, SpecWorkload};
use crossinvoc_workloads::kernel::profile_distance;
use crossinvoc_workloads::registry::{self, InnerPlan};
use crossinvoc_workloads::{
    blackscholes, cg, eclat, equake, fdtd, fluidanimate, jacobi, llubench, loopdep, AccessKernel,
    Scale,
};

use crate::reference;

/// One boxed model type for every kernel, so a workload is a plain list.
/// The reference loop replays the same boxed model, so the dynamic
/// dispatch on `accesses` is paid on both sides of `speedup_vs_seq`.
pub type Model = Box<dyn SimWorkload + Send + Sync>;

/// Epoch window handed to `profile_distance` (the figure harness' value).
pub const PROFILE_WINDOW: u32 = 6;

/// Every Table 5.1 kernel some workload uses.
#[cfg(test)]
pub const ALL_KERNELS: &[&str] = &[
    "JACOBI",
    "FDTD",
    "LOOPDEP",
    "EQUAKE",
    "LLUBENCH",
    "CG",
    "ECLAT",
    "FLUIDANIMATE-1",
    "BLACKSCHOLES",
];

/// Builds the named model at `scale` from `seed`.
///
/// # Panics
///
/// Panics on a name outside [`ALL_KERNELS`].
pub fn model(name: &str, scale: Scale, seed: u64) -> Model {
    match name {
        "JACOBI" => Box::new(jacobi::Jacobi::new(scale, seed)),
        "FDTD" => Box::new(fdtd::Fdtd::new(scale, seed)),
        "LOOPDEP" => Box::new(loopdep::Loopdep::train(scale, seed)),
        "EQUAKE" => Box::new(equake::Equake::new(scale, seed)),
        "LLUBENCH" => Box::new(llubench::Llubench::new(scale, seed)),
        "CG" => Box::new(cg::Cg::new(scale, seed)),
        "ECLAT" => Box::new(eclat::Eclat::new(scale, seed)),
        "FLUIDANIMATE-1" => {
            Box::new(fluidanimate::Fluidanimate::new(scale, seed).force_phase_only())
        }
        "BLACKSCHOLES" => Box::new(blackscholes::Blackscholes::new(scale, seed)),
        other => panic!("no benchmark kernel named {other}"),
    }
}

/// Which engine a kernel runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// SPECCROSS: `T-1` workers + 1 checker.
    Spec,
    /// DOMORE: `T-1` workers + the scheduler on the calling thread.
    Domore,
}

/// A kernel the engines can run and the benchmark can verify.
pub trait BenchKernel:
    SpecWorkload<State = Vec<i64>> + DomoreWorkload + Send + Sync + 'static
{
    /// Wraps `model` over `cells` memory cells.
    fn wrap(model: Model, cells: usize) -> Self;
    /// The wrapped kernel (model access, `reset`, `sequential_checksum`).
    fn access(&self) -> &AccessKernel<Model>;
    /// Extra [`reference::spin`] rounds task `(inv, iter)` performs.
    fn grain(&self, inv: usize, iter: usize) -> u64;
}

impl BenchKernel for AccessKernel<Model> {
    fn wrap(model: Model, cells: usize) -> Self {
        AccessKernel::new(model, cells)
    }
    fn access(&self) -> &AccessKernel<Model> {
        self
    }
    fn grain(&self, _inv: usize, _iter: usize) -> u64 {
        0
    }
}

/// Divisor turning a model's `iteration_cost` (simulated ns) into spin
/// rounds: ≈ 1 µs per task on the suite's 2–10 µs models.
const COARSE_DIVISOR: u64 = 16;

/// The `coarse_mix` adapter: each task first performs
/// `iteration_cost / 16` rounds of [`reference::spin`], then the bare
/// kernel's accesses. Hand-off cost drops to a small share of a task, which
/// makes this the bypass workload for hand-off micro-optimisations.
pub struct Coarse(AccessKernel<Model>);

impl Coarse {
    fn burn(&self, inv: usize, iter: usize) {
        let key = (inv as u64) << 32 | iter as u64;
        std::hint::black_box(reference::spin(key, self.grain(inv, iter)));
    }
}

impl BenchKernel for Coarse {
    fn wrap(model: Model, cells: usize) -> Self {
        Coarse(AccessKernel::new(model, cells))
    }
    fn access(&self) -> &AccessKernel<Model> {
        &self.0
    }
    fn grain(&self, inv: usize, iter: usize) -> u64 {
        self.0.model().iteration_cost(inv, iter) / COARSE_DIVISOR
    }
}

impl SpecWorkload for Coarse {
    type State = Vec<i64>;
    fn num_epochs(&self) -> usize {
        self.0.num_epochs()
    }
    fn num_tasks(&self, epoch: usize) -> usize {
        self.0.num_tasks(epoch)
    }
    fn execute_task(
        &self,
        epoch: usize,
        task: usize,
        tid: ThreadId,
        recorder: &mut dyn AccessRecorder,
    ) {
        self.burn(epoch, task);
        self.0.execute_task(epoch, task, tid, recorder);
    }
    fn snapshot(&self) -> Vec<i64> {
        self.0.snapshot()
    }
    fn restore(&self, state: &Vec<i64>) {
        self.0.restore(state);
    }
}

impl DomoreWorkload for Coarse {
    fn num_invocations(&self) -> usize {
        self.0.num_invocations()
    }
    fn num_iterations(&self, inv: usize) -> usize {
        self.0.num_iterations(inv)
    }
    fn touched_addrs(&self, inv: usize, iter: usize, out: &mut Vec<usize>) {
        self.0.touched_addrs(inv, iter, out);
    }
    fn touched(&self, inv: usize, iter: usize, writes: &mut Vec<usize>, reads: &mut Vec<usize>) {
        self.0.touched(inv, iter, writes, reads);
    }
    fn execute_iteration(&self, inv: usize, iter: usize, tid: ThreadId) {
        self.burn(inv, iter);
        self.0.execute_iteration(inv, iter, tid);
    }
    fn address_space(&self) -> Option<usize> {
        DomoreWorkload::address_space(&self.0)
    }
}

/// Static description of an engine workload (everything but the seed).
#[derive(Debug, Clone, Copy)]
pub struct EngineDef {
    /// Kernels and the engine each runs under.
    pub kernels: &'static [(&'static str, Technique)],
    /// Memory cells per kernel; `None` sizes memory from the model.
    pub cells: Option<usize>,
    /// SPECCROSS checkpoint interval in epochs.
    pub checkpoint_every: usize,
    /// Injected false-positive conflicts per SPECCROSS region.
    pub injected_misspecs: u32,
}

use Technique::{Domore, Spec};

/// `spec_fine`: the SPECCROSS fast path on bare ~22 ns tasks.
pub const SPEC_FINE: EngineDef = EngineDef {
    kernels: &[
        ("JACOBI", Spec),
        ("FDTD", Spec),
        ("LOOPDEP", Spec),
        ("EQUAKE", Spec),
        ("LLUBENCH", Spec),
    ],
    cells: None,
    checkpoint_every: 1000,
    injected_misspecs: 0,
};

/// `domore_fine`: the DOMORE scheduler thread as the serial bottleneck.
pub const DOMORE_FINE: EngineDef = EngineDef {
    kernels: &[
        ("CG", Domore),
        ("ECLAT", Domore),
        ("FLUIDANIMATE-1", Domore),
        ("BLACKSCHOLES", Domore),
        ("LLUBENCH", Domore),
    ],
    cells: None,
    checkpoint_every: 1000,
    injected_misspecs: 0,
};

/// `coarse_mix`: both engines at ≈ 1 µs per task (run with [`Coarse`]).
pub const COARSE_MIX: EngineDef = EngineDef {
    kernels: &[
        ("JACOBI", Spec),
        ("EQUAKE", Spec),
        ("CG", Domore),
        ("ECLAT", Domore),
    ],
    cells: None,
    checkpoint_every: 1000,
    injected_misspecs: 0,
};

/// `spec_recover`: 2 MiB of mostly clean state, a checkpoint every 50
/// epochs and eight injected misspeculations per region.
pub const SPEC_RECOVER: EngineDef = EngineDef {
    kernels: &[("JACOBI", Spec), ("FDTD", Spec), ("EQUAKE", Spec)],
    cells: Some(1 << 18),
    checkpoint_every: 50,
    injected_misspecs: 8,
};

/// The kernels `server_mix` alternates, at `Scale::Test`.
pub const SERVER_KERNELS: &[(&str, Technique)] = &[
    ("JACOBI", Spec),
    ("CG", Domore),
    ("EQUAKE", Spec),
    ("ECLAT", Domore),
];

/// One kernel after set-up: ready to run, with its reference image.
#[derive(Debug)]
pub struct Case<K> {
    /// Table 5.1 name.
    pub name: &'static str,
    /// Engine it runs under.
    pub technique: Technique,
    /// The runnable kernel.
    pub kernel: K,
    /// Tasks of the workload definition.
    pub tasks: u64,
    /// Profiled speculative range (`None` = ungated), SPECCROSS only.
    pub distance: Option<u64>,
    /// Epochs at which a false positive is injected, SPECCROSS only.
    pub fault_epochs: Vec<u32>,
    /// The thesis-implied DOMORE policy for this kernel.
    pub dispatch: Dispatch,
    /// Final memory image of the independent reference.
    pub image: Vec<i64>,
    /// Whether the reference agreed with `sequential_checksum()` at set-up.
    pub reference_agrees: bool,
    /// Wall-clock of `profile_distance` at set-up (0 for DOMORE kernels).
    pub profile_ns: u64,
}

/// Decorrelates per-kernel seeds without losing `--seed` determinism.
pub fn kernel_seed(seed: u64, index: usize) -> u64 {
    reference::mix(seed ^ (index as u64) << 56)
}

/// Owner-computes for LOCALWRITE kernels (congruence classes when field
/// arrays share a grid), round-robin otherwise — the policy the thesis' plan
/// implies, read off the public registry.
pub fn thesis_dispatch(name: &str, scale: Scale, address_space: usize) -> Dispatch {
    let info = registry::by_name(name);
    match (info.inner_plan, info.owner_modulus(scale)) {
        (InnerPlan::LocalWrite, Some(modulus)) => Dispatch::ModuloWrite { modulus },
        (InnerPlan::LocalWrite, None) => Dispatch::LocalWrite { address_space },
        _ => Dispatch::RoundRobin,
    }
}

/// Epochs at which to inject a false positive: up to `wanted` of them,
/// spread evenly over the region, but never closer than two checkpoint
/// intervals. A misspeculation rolls back to the last checkpoint and
/// re-executes up to the workers' frontier under barriers, where no checker
/// request — hence no injected fault — fires; with a checkpoint between any
/// two injections each fires exactly once, at any worker count. Regions too
/// short for that (Test scale) get fewer injections, down to none.
pub fn injection_epochs(epochs: usize, wanted: u32, checkpoint_every: usize) -> Vec<u32> {
    let n = u64::from(wanted).min((epochs / (2 * checkpoint_every)) as u64);
    (0..n)
        .map(|k| ((2 * k + 1) * epochs as u64 / (2 * n)) as u32)
        .collect()
}

/// Sets one kernel up: model, profile, reference run, cross-check.
pub fn build_case<K: BenchKernel>(
    def: &EngineDef,
    index: usize,
    scale: Scale,
    seed: u64,
) -> Case<K> {
    let (name, technique) = def.kernels[index];
    let model = model(name, scale, kernel_seed(seed, index));
    let space = model
        .address_space()
        .expect("suite models declare their space");
    let cells = def.cells.unwrap_or(space);
    assert!(
        cells >= space,
        "{name}: {cells} cells cannot hold {space} addresses"
    );
    let tasks = model.total_iterations();
    let epochs = model.num_invocations();
    let (distance, profile_ns) = match technique {
        Spec => {
            let start = Instant::now();
            let report = profile_distance(&model, PROFILE_WINDOW);
            (report.min_distance, start.elapsed().as_nanos() as u64)
        }
        Domore => (None, 0),
    };
    let kernel = K::wrap(model, cells);
    let mut image = vec![0; cells];
    reference::run(kernel.access().model(), &mut image, |inv, iter| {
        kernel.grain(inv, iter)
    });
    let reference_agrees = reference::checksum(&image) == kernel.access().sequential_checksum();
    let fault_epochs = injection_epochs(epochs, def.injected_misspecs, def.checkpoint_every);
    Case {
        name,
        technique,
        kernel,
        tasks,
        distance,
        fault_epochs,
        dispatch: thesis_dispatch(name, scale, space),
        image,
        reference_agrees,
        profile_ns,
    }
}

/// Sets a whole engine workload up.
pub fn build<K: BenchKernel>(def: &EngineDef, scale: Scale, seed: u64) -> Vec<Case<K>> {
    (0..def.kernels.len())
        .map(|index| build_case(def, index, scale, seed))
        .collect()
}

/// One `auto_pir` input program.
#[derive(Debug)]
pub struct Nest {
    /// Row label.
    pub name: &'static str,
    /// The program.
    pub program: Program,
    /// Its top-level outer loop.
    pub outer: StmtId,
    /// The DOMORE-shaped inner loop, when the nest has one.
    pub inner: Option<StmtId>,
    /// Inner-loop iterations (the workload definition's task count).
    pub tasks: u64,
    /// Minimum cross-epoch dependence distance by construction, for nests
    /// whose strategy depends on the worker count.
    pub barrier_below_workers: Option<u64>,
}

/// Seed-derived small positive constant (keeps stored values seed-specific
/// without changing the amount of work).
fn seeded(seed: u64, salt: u64, modulus: u64) -> i64 {
    (1 + reference::mix(seed ^ salt) % modulus) as i64
}

/// A three-point ping-pong stencil: dependences sit a whole invocation
/// apart, so the driver speculates (→ SPECCROSS).
pub fn stencil_nest(scale: Scale, seed: u64) -> Nest {
    let n = scale.pick(32, 256) as i64;
    let steps = scale.pick(4, 100) as i64;
    let c = seeded(seed, 1, 97);
    let mut b = ProgramBuilder::new();
    let a = b.array("A", n as usize);
    let bb = b.array("B", n as usize);
    let (t, i, x, y, z) = (b.var("t"), b.var("i"), b.var("x"), b.var("y"), b.var("z"));
    let outer = b.for_loop(t, Expr::Const(0), Expr::Const(steps), |b| {
        b.for_loop(i, Expr::Const(1), Expr::Const(n - 1), |b| {
            b.load(x, a, Expr::sub(Expr::Var(i), Expr::Const(1)));
            b.load(y, a, Expr::Var(i));
            b.load(z, a, Expr::add(Expr::Var(i), Expr::Const(1)));
            b.store(
                bb,
                Expr::Var(i),
                Expr::add(
                    Expr::add(Expr::Var(x), Expr::Var(y)),
                    Expr::add(Expr::Var(z), Expr::Const(c)),
                ),
            );
        });
        b.for_loop(i, Expr::Const(1), Expr::Const(n - 1), |b| {
            b.load(x, bb, Expr::Var(i));
            b.store(a, Expr::Var(i), Expr::Var(x));
        });
    });
    Nest {
        name: "stencil",
        program: b.finish(),
        outer,
        inner: None,
        tasks: (2 * (n - 2) * steps) as u64,
        barrier_below_workers: None,
    }
}

/// The CG-style nest of `examples/auto_parallelize.rs`: overlapping row
/// extents collide within a few tasks and the extent is loaded from memory,
/// so only DOMORE applies.
pub fn cg_nest(scale: Scale, seed: u64) -> Nest {
    let rows = scale.pick(32, 6400) as i64;
    let len = 8i64;
    let span = scale.pick(40, 4096) as i64;
    let stride = 2 * seeded(seed, 2, 8) + 1;
    let mut b = ProgramBuilder::new();
    let starts = b.array("starts", rows as usize);
    let c = b.array("C", (span + len) as usize);
    let (k, i, j, start, x) = (
        b.var("k"),
        b.var("i"),
        b.var("j"),
        b.var("start"),
        b.var("x"),
    );
    b.for_loop(k, Expr::Const(0), Expr::Const(rows), |b| {
        b.store(
            starts,
            Expr::Var(k),
            Expr::rem(
                Expr::mul(Expr::Var(k), Expr::Const(stride)),
                Expr::Const(span),
            ),
        );
    });
    let mut inner = StmtId(0);
    let outer = b.for_loop(i, Expr::Const(0), Expr::Const(rows), |b| {
        b.load(start, starts, Expr::Var(i));
        inner = b.for_loop(
            j,
            Expr::Var(start),
            Expr::add(Expr::Var(start), Expr::Const(len)),
            |b| {
                b.load(x, c, Expr::Var(j));
                b.store(c, Expr::Var(j), Expr::add(Expr::Var(x), Expr::Const(1)));
            },
        );
    });
    Nest {
        name: "cg",
        program: b.finish(),
        outer,
        inner: Some(inner),
        tasks: (rows * len) as u64,
        barrier_below_workers: None,
    }
}

/// A nest that defeats both techniques: the second loop reads the first
/// loop's cells in reverse, so the minimum dependence distance is one task
/// (no speculation once there are two workers), and a trailing scalar
/// statement breaks the DOMORE shape. The driver falls back to barriers —
/// except with a single worker, where `d >= workers` holds at any distance
/// and it speculates gated at distance 1.
pub fn reversal_nest(scale: Scale, seed: u64) -> Nest {
    let n = scale.pick(32, 256) as i64;
    let steps = scale.pick(4, 100) as i64;
    let c = seeded(seed, 3, 89);
    let mut b = ProgramBuilder::new();
    let a = b.array("A", n as usize);
    let bb = b.array("B", n as usize);
    let (t, i, x, s) = (b.var("t"), b.var("i"), b.var("x"), b.var("s"));
    let outer = b.for_loop(t, Expr::Const(0), Expr::Const(steps), |b| {
        b.for_loop(i, Expr::Const(0), Expr::Const(n), |b| {
            b.load(x, bb, Expr::Var(i));
            b.store(a, Expr::Var(i), Expr::add(Expr::Var(x), Expr::Const(c)));
        });
        b.for_loop(i, Expr::Const(0), Expr::Const(n), |b| {
            b.load(x, a, Expr::sub(Expr::Const(n - 1), Expr::Var(i)));
            b.store(bb, Expr::Var(i), Expr::add(Expr::Var(x), Expr::Const(1)));
        });
        b.assign(s, Expr::add(Expr::Var(s), Expr::Const(1)));
    });
    Nest {
        name: "reversal",
        program: b.finish(),
        outer,
        inner: None,
        tasks: (2 * n * steps) as u64,
        barrier_below_workers: Some(1),
    }
}

/// The three `auto_pir` nests.
pub fn nests(scale: Scale, seed: u64) -> Vec<Nest> {
    vec![
        stencil_nest(scale, seed),
        cg_nest(scale, seed),
        reversal_nest(scale, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_builds_and_agrees_with_its_reference() {
        for def in [SPEC_FINE, DOMORE_FINE, SPEC_RECOVER] {
            for case in build::<AccessKernel<Model>>(&def, Scale::Test, 0xC602013) {
                assert!(case.reference_agrees, "{}", case.name);
                assert!(
                    case.fault_epochs.is_empty(),
                    "Test-scale regions are too short to inject"
                );
                assert_eq!(case.image.len(), def.cells.unwrap_or(case.image.len()));
            }
        }
        for case in build::<Coarse>(&COARSE_MIX, Scale::Test, 0xC602013) {
            assert!(case.reference_agrees, "coarse {}", case.name);
        }
    }

    #[test]
    fn injected_epochs_are_distinct_and_spread_over_the_region() {
        let case = build_case::<AccessKernel<Model>>(&SPEC_RECOVER, 0, Scale::Figure, 1);
        let epochs = case.kernel.num_epochs() as u32;
        assert_eq!(case.fault_epochs.len(), 8);
        assert!(case
            .fault_epochs
            .windows(2)
            .all(|w| w[1] - w[0] >= epochs / 9));
        assert!(case.fault_epochs[0] > 0 && case.fault_epochs[7] < epochs);
        assert_eq!(injection_epochs(1000, 8, 50).len(), 8);
        assert_eq!(injection_epochs(300, 8, 50), [50, 150, 250]);
        assert!(injection_epochs(16, 8, 50).is_empty());
    }

    #[test]
    fn workload_inputs_follow_the_seed() {
        let hash = |seed| -> Vec<u64> {
            build::<AccessKernel<Model>>(&DOMORE_FINE, Scale::Test, seed)
                .iter()
                .map(|c| reference::stream_hash(c.kernel.model()))
                .collect()
        };
        assert_eq!(hash(5), hash(5));
        assert_ne!(hash(5), hash(6));
    }
}
