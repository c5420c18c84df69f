//! Harness support for regenerating every table and figure of the thesis'
//! evaluation (see DESIGN.md §3 for the experiment index).
//!
//! Each figure is a `harness = false` bench target under `benches/` that
//! prints the paper's rows to stdout and writes a CSV to
//! `target/figures/<name>.csv`. This library holds the shared machinery:
//! the thread sweep, the per-benchmark executor dispatch, the composite
//! plans of the Fig. 5.6 case study, and small output helpers.
#![deny(rustdoc::broken_intra_doc_links)]

/// The workspace's JSON tree, reader and writer (lives in the runtime crate
/// so [`crossinvoc_runtime::telemetry`] can build its exposition from it).
pub use crossinvoc_runtime::json;

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use crossinvoc_domore::policy::{LocalWrite, ModuloWrite, Policy, RoundRobin};
use crossinvoc_sim::prelude::*;
use crossinvoc_workloads::kernel::profile_distance;
use crossinvoc_workloads::{BenchmarkInfo, InnerPlan, Scale};

/// Thread counts swept by the scaling figures (the thesis sweeps 2–24 on
/// its 24-core machine).
pub const THREADS: [usize; 8] = [2, 4, 6, 8, 12, 16, 20, 24];

/// The two thread counts of the barrier-overhead figure (Fig. 4.3).
pub const FIG4_3_THREADS: [usize; 2] = [8, 24];

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Output directory for figure CSVs (`target/figures`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Writes one CSV and announces it on stdout.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = out_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create figure csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    println!("[wrote {}]", path.display());
}

/// One column of a figure [`Table`]: its CSV header (also its stdout
/// title), its stdout width, and — for numeric columns — the decimals its
/// cells get on stdout and in the CSV.
#[derive(Debug, Clone, Copy)]
pub struct Col(&'static str, usize, Option<(usize, usize)>);

impl Col {
    /// A column whose cells are rendered verbatim (labels, counts).
    pub const fn text(name: &'static str, width: usize) -> Self {
        Col(name, width, None)
    }

    /// A numeric column: `shown` decimals on stdout, `csv` in the file.
    pub const fn num(name: &'static str, width: usize, shown: usize, csv: usize) -> Self {
        Col(name, width, Some((shown, csv)))
    }
}

/// A figure's rows, stated once: [`Table::row`] prints the aligned stdout
/// line and records the CSV line, [`Table::finish`] writes the CSV.
#[derive(Debug)]
pub struct Table {
    cols: Vec<Col>,
    rows: Vec<String>,
}

impl Table {
    /// Starts a table and prints its header line.
    pub fn new(cols: &[Col]) -> Self {
        let table = Table {
            cols: cols.to_vec(),
            rows: Vec::new(),
        };
        table.print(cols.iter().map(|c| c.0.to_owned()).collect());
        table
    }

    /// First column left-aligned, the rest right-aligned.
    fn print(&self, cells: Vec<String>) {
        let line: Vec<String> = (self.cols.iter().zip(cells).enumerate())
            .map(|(i, (col, cell))| {
                let width = col.1.max(col.0.len());
                if i == 0 {
                    format!("{cell:<width$}")
                } else {
                    format!("{cell:>width$}")
                }
            })
            .collect();
        println!("{}", line.join(" "));
    }

    /// Prints one row and records it for the CSV.
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not have one value per column.
    pub fn row(&mut self, cells: &[&dyn std::fmt::Display]) {
        assert_eq!(cells.len(), self.cols.len(), "one cell per column");
        let render = |digits: fn((usize, usize)) -> usize| -> Vec<String> {
            (self.cols.iter().zip(cells))
                .map(|(col, cell)| match col.2 {
                    Some(d) => format!("{cell:.*}", digits(d)),
                    None => cell.to_string(),
                })
                .collect()
        };
        self.print(render(|d| d.0));
        let csv = render(|d| d.1).join(",");
        self.rows.push(csv);
    }

    /// Writes `target/figures/<name>.csv`.
    pub fn finish(self, name: &str) {
        let header: Vec<&str> = self.cols.iter().map(|c| c.0).collect();
        write_csv(name, &header.join(","), &self.rows);
    }
}

/// Per-thread trace-ring capacity requested via the `CROSSINVOC_TRACE`
/// environment variable: unset, empty, or `0` disables tracing; `1` (or any
/// non-numeric value such as `on`) enables it at the default capacity of
/// 65536 records; a number ≥ 2 is used as the capacity itself. The
/// `CROSSINVOC_TRACE_CAP` variable, when set to a number ≥ 1, overrides the
/// capacity — and enables tracing on its own, so a dropped-record repro
/// needs only one variable (an explicit `CROSSINVOC_TRACE=0` still wins and
/// disables tracing). Figure benches consult this to emit
/// `<name>.trace.jsonl` files next to their CSVs, which `trace-report`
/// renders (see `docs/OBSERVABILITY.md`).
pub fn trace_capacity() -> Option<usize> {
    let cap_override = std::env::var("CROSSINVOC_TRACE_CAP")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    let raw = match std::env::var("CROSSINVOC_TRACE") {
        Ok(raw) => raw,
        // CROSSINVOC_TRACE_CAP alone still enables tracing.
        Err(_) => return cap_override,
    };
    let raw = raw.trim();
    if raw == "0" {
        return None;
    }
    if raw.is_empty() {
        return cap_override;
    }
    if let Some(cap) = cap_override {
        return Some(cap);
    }
    match raw.parse::<usize>() {
        Ok(1) | Err(_) => Some(1 << 16),
        Ok(n) => Some(n),
    }
}

/// Writes a JSONL execution trace next to the figure CSVs
/// (`target/figures/<name>.trace.jsonl`) and announces it on stdout.
pub fn write_trace(name: &str, trace: &crossinvoc_runtime::trace::Trace) {
    let path = out_dir().join(format!("{name}.trace.jsonl"));
    fs::write(&path, trace.to_jsonl()).expect("write figure trace");
    println!("[wrote {}]", path.display());
}

/// Runs one Test-scale region per threaded engine — JACOBI under SPECCROSS
/// (chunks of several tasks) and CG under DOMORE (runs of several
/// iterations), two workers each — with per-thread rings of `capacity`
/// records, and writes their traces as `engine.speccross.jacobi` and
/// `engine.domore.cg`. Unlike the simulators' traces these carry wall-clock
/// stamps decoded at merge and one task record per chunk or run, so the
/// trace tooling sees both.
pub fn write_engine_traces(capacity: usize) {
    use crossinvoc_domore::{DomoreConfig, DomoreRuntime};
    use crossinvoc_runtime::RangeSignature;
    use crossinvoc_speccross::{SpecConfig, SpecCrossEngine};
    use crossinvoc_workloads::kernel::AccessKernel;
    use crossinvoc_workloads::registry::by_name;

    let jacobi = by_name("JACOBI");
    let distance = profile_distance(jacobi.model(Scale::Test).as_ref(), 6).min_distance;
    let kernel = AccessKernel::from_model(jacobi.model(Scale::Test));
    let report = SpecCrossEngine::<RangeSignature>::new(
        SpecConfig::with_workers(2)
            .spec_distance(distance)
            .trace(capacity),
    )
    .execute(&kernel)
    .expect("JACOBI runs clean under SPECCROSS");
    if let Some(trace) = report.trace {
        write_trace("engine.speccross.jacobi", &trace);
    }

    let kernel = AccessKernel::from_model(by_name("CG").model(Scale::Test));
    let report = DomoreRuntime::new(DomoreConfig::with_workers(2).trace(capacity))
        .execute(&kernel)
        .expect("CG runs clean under DOMORE");
    if let Some(trace) = report.trace {
        write_trace("engine.domore.cg", &trace);
    }
}

/// Profiled speculative range per benchmark (§4.4): the minimum dependence
/// distance, or — when no conflict manifested — the task horizon the
/// profile actually covered ([`ProfileReport::speculative_range`]; a clean
/// 6-epoch profile does not license running hundreds of epochs ahead).
/// Memoized — at Figure scale profiling SYMM still costs about 1.3 s and
/// FLUIDANIMATE-2 0.12 s (every other kernel ≤ 31 ms), and the sweeps would
/// otherwise repeat it per thread count.
///
/// [`ProfileReport::speculative_range`]: crossinvoc_speccross::ProfileReport::speculative_range
pub fn profiled_distance(info: &BenchmarkInfo, scale: Scale) -> u64 {
    type DistanceCache = Mutex<HashMap<(&'static str, Scale), u64>>;
    static CACHE: OnceLock<DistanceCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&d) = cache.lock().expect("cache lock").get(&(info.name, scale)) {
        return d;
    }
    let model = info.model(scale);
    let d = profile_distance(model.as_ref(), 6).speculative_range();
    cache
        .lock()
        .expect("cache lock")
        .insert((info.name, scale), d);
    d
}

/// Builds the simulation parameters a benchmark runs under: its profiled
/// speculative range (§4.4) with the thesis' default checkpoint interval.
pub fn spec_params(info: &BenchmarkInfo, scale: Scale, threads: usize) -> SpecSimParams {
    SpecSimParams::with_threads(threads)
        .spec_distance(Some(profiled_distance(info, scale)))
        .checkpoint_every(1000)
}

/// One benchmark's speedups at a thread count: (barrier, technique).
#[derive(Debug, Clone, Copy)]
pub struct SpeedupPair {
    /// Inner-loop parallel + non-speculative barriers.
    pub barrier: f64,
    /// DOMORE or SPECCROSS, per the figure.
    pub technique: f64,
}

/// Runs one benchmark under barriers and under DOMORE at `threads`
/// (Fig. 5.1's two series). DOMORE worker count excludes the scheduler, as
/// the thesis' thread accounting does.
pub fn domore_pair(info: &BenchmarkInfo, scale: Scale, threads: usize) -> SpeedupPair {
    let model = info.model(scale);
    let cost = CostModel::default();
    let seq = sequential(model.as_ref(), &cost).total_ns;
    let barrier_result = baseline_barrier(info, scale, threads, &cost);
    let workers = threads.saturating_sub(1).max(1);
    let mut policy = domore_policy(info, scale);
    let domore_result = domore(model.as_ref(), workers, policy.as_mut(), &cost);
    SpeedupPair {
        barrier: barrier_result.speedup_over(seq),
        technique: domore_result.speedup_over(seq),
    }
}

/// The iteration-assignment policy the thesis' plan implies for one
/// benchmark: owner-computes over the grid for LOCALWRITE programs
/// (congruence-class ownership when field arrays share a grid),
/// round-robin otherwise.
pub fn domore_policy(info: &BenchmarkInfo, scale: Scale) -> Box<dyn Policy> {
    match info.inner_plan {
        InnerPlan::LocalWrite => match info.owner_modulus(scale) {
            Some(m) => Box::new(ModuloWrite::new(m)),
            None => {
                let space = info
                    .model(scale)
                    .address_space()
                    .expect("models declare space");
                Box::new(LocalWrite::new(space))
            }
        },
        _ => Box::new(RoundRobin),
    }
}

/// Fraction of each iteration that is loop traversal (statements every
/// LOCALWRITE thread executes redundantly, Fig. 2.3(c)), in percent.
pub const LOCALWRITE_TRAVERSAL_PCT: u64 = 20;

/// LOCALWRITE's per-executed-iteration cost factor at a thread count: the
/// update body plus the traversal of the `threads - 1` iterations the
/// thread skips, amortized onto its own. This is why LOCALWRITE's scaling
/// flattens — redundancy grows with the thread count (§5.1, §5.4).
pub fn localwrite_factor_pct(threads: usize) -> u64 {
    (100 - LOCALWRITE_TRAVERSAL_PCT) + LOCALWRITE_TRAVERSAL_PCT * threads as u64
}

/// The conventional barrier plan for one benchmark, honouring its inner
/// plan: LOCALWRITE inner loops pay the redundant traversal (the paper's
/// LOCALWRITE + barrier configuration); DOALL/Spec-DOALL loops do not.
pub fn baseline_barrier(
    info: &BenchmarkInfo,
    scale: Scale,
    threads: usize,
    cost: &CostModel,
) -> SimResult {
    let model = info.model(scale);
    match info.inner_plan {
        InnerPlan::LocalWrite => barrier(
            &RedundantTraversal::new(model, localwrite_factor_pct(threads)),
            threads,
            cost,
        ),
        _ => barrier(model.as_ref(), threads, cost),
    }
}

/// Runs one benchmark under barriers and under SPECCROSS at `threads`
/// (Fig. 5.2's two series). SPECCROSS worker count excludes the checker
/// thread, matching §5.2's accounting.
pub fn speccross_pair(info: &BenchmarkInfo, scale: Scale, threads: usize) -> SpeedupPair {
    let model = info.model(scale);
    let cost = CostModel::default();
    let seq = sequential(model.as_ref(), &cost).total_ns;
    let barrier_result = baseline_barrier(info, scale, threads, &cost);
    let workers = threads.saturating_sub(1).max(1);
    let params = spec_params(info, scale, workers);
    let spec_result = speccross(model.as_ref(), &params, &cost);
    SpeedupPair {
        barrier: barrier_result.speedup_over(seq),
        technique: spec_result.speedup_over(seq),
    }
}

/// A wrapper inflating kernel costs by a redundancy factor — the
/// LOCALWRITE plan's repeated traversal (§5.4: "redundant computation
/// among threads").
#[derive(Debug)]
pub struct RedundantTraversal<W> {
    inner: W,
    /// Kernel cost multiplier in percent (100 = no redundancy).
    pub factor_pct: u64,
}

impl<W> RedundantTraversal<W> {
    /// Wraps `inner` with `factor_pct`% of the original kernel cost.
    pub fn new(inner: W, factor_pct: u64) -> Self {
        Self { inner, factor_pct }
    }
}

impl<W: SimWorkload> SimWorkload for RedundantTraversal<W> {
    fn num_invocations(&self) -> usize {
        self.inner.num_invocations()
    }
    fn num_iterations(&self, inv: usize) -> usize {
        self.inner.num_iterations(inv)
    }
    fn iteration_cost(&self, inv: usize, iter: usize) -> u64 {
        self.inner.iteration_cost(inv, iter) * self.factor_pct / 100
    }
    fn accesses(
        &self,
        inv: usize,
        iter: usize,
        out: &mut Vec<(usize, crossinvoc_runtime::signature::AccessKind)>,
    ) {
        self.inner.accesses(inv, iter, out)
    }
    fn prologue_cost(&self, inv: usize) -> u64 {
        self.inner.prologue_cost(inv)
    }
    fn sched_cost(&self, inv: usize, iter: usize) -> u64 {
        self.inner.sched_cost(inv, iter)
    }
    fn address_space(&self) -> Option<usize> {
        self.inner.address_space()
    }
}

/// The manual DOANY + barrier plan of §5.4: every thread runs its share,
/// but a per-invocation critical fraction of each task serializes on a
/// global lock (zero for lock-free phases).
pub fn doany_barrier<W: SimWorkload>(
    workload: &W,
    threads: usize,
    critical_pct: &dyn Fn(usize) -> u64,
    cost: &CostModel,
) -> SimResult {
    assert!(threads > 0, "at least one thread is required");
    let stats = crossinvoc_runtime::stats::RegionStats::new();
    let mut clocks = vec![0u64; threads];
    let mut busy = vec![0u64; threads];
    let mut idle = vec![0u64; threads];
    let mut lock_clock = 0u64;
    for inv in 0..workload.num_invocations() {
        stats.add_epoch();
        for iter in 0..workload.num_iterations(inv) {
            let tid = iter % threads;
            let work = workload.iteration_cost(inv, iter);
            let critical = work * critical_pct(inv) / 100;
            // Non-critical part runs freely.
            clocks[tid] += work - critical;
            busy[tid] += work - critical;
            // Critical part serializes on the lock.
            let acquire = clocks[tid].max(lock_clock);
            idle[tid] += acquire - clocks[tid];
            lock_clock = acquire + critical + cost.queue_ns; // lock handoff
            clocks[tid] = lock_clock;
            busy[tid] += critical;
            stats.add_task();
        }
        let slowest = *clocks.iter().max().expect("threads > 0");
        for (clock, i) in clocks.iter_mut().zip(idle.iter_mut()) {
            *i += slowest - *clock;
            *clock = slowest + cost.barrier_ns(threads);
        }
    }
    SimResult {
        total_ns: clocks.into_iter().max().unwrap_or(0),
        busy_ns: busy,
        idle_ns: idle,
        stats: stats.summary(),
        degraded: false,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossinvoc_workloads::registry;

    #[test]
    fn geomean_of_identical_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn domore_pairs_produce_positive_speedups() {
        for info in registry().into_iter().filter(|b| b.domore) {
            let pair = domore_pair(&info, Scale::Test, 8);
            assert!(pair.barrier > 0.0, "{}", info.name);
            assert!(pair.technique > 0.0, "{}", info.name);
        }
    }

    #[test]
    fn speccross_pairs_produce_positive_speedups() {
        for info in registry().into_iter().filter(|b| b.speccross) {
            let pair = speccross_pair(&info, Scale::Test, 8);
            assert!(pair.barrier > 0.0, "{}", info.name);
            assert!(pair.technique > 0.0, "{}", info.name);
        }
    }

    #[test]
    fn table_rows_round_numbers_per_column_and_keep_text_verbatim() {
        let mut t = Table::new(&[
            Col::text("kernel", 8),
            Col::num("speedup", 8, 2, 4),
            Col::text("tasks", 5),
        ]);
        t.row(&[&"cg", &1.234_56, &7u64]);
        t.row(&[&"symm", &10.0, &"*"]);
        assert_eq!(t.rows, ["cg,1.2346,7", "symm,10.0000,*"]);
    }

    #[test]
    fn redundant_traversal_inflates_costs() {
        let base = UniformWorkload::independent(2, 4, 1000);
        let wrapped = RedundantTraversal::new(base.clone(), 130);
        assert_eq!(wrapped.iteration_cost(0, 0), 1300);
        assert_eq!(wrapped.num_iterations(0), base.num_iterations(0));
    }

    #[test]
    fn doany_lock_serializes_critical_sections() {
        let w = UniformWorkload::independent(10, 64, 2_000);
        let cost = CostModel::default();
        let seq = sequential(&w, &cost).total_ns;
        let free = doany_barrier(&w, 8, &|_| 0, &cost).speedup_over(seq);
        let locked = doany_barrier(&w, 8, &|_| 60, &cost).speedup_over(seq);
        assert!(
            locked < free,
            "lock contention must cost: {locked} vs {free}"
        );
    }
}
