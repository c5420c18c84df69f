//! Fig. 2.2 — fragility of analysis-based parallelization.
//!
//! The thesis shows PolyBench kernels that DOALL-parallelize cleanly with
//! statically declared arrays but defeat the compiler once the same data
//! moves behind pointers. The PIR analog: each kernel is built twice —
//! directly indexed (`A[i]`, analyzable) and indirected through an identity
//! index array (`A[idx[i]]`, runtime-identical but statically opaque). The
//! classifier parallelizes the first and must refuse the second, and the
//! speedup collapse mirrors the figure.

use crossinvoc_bench::{Col, Table};
use crossinvoc_pir::ir::{Expr, Program, ProgramBuilder, StmtId};
use crossinvoc_pir::pdg::Pdg;
use crossinvoc_pir::techniques::{classify_loop, Technique};
use crossinvoc_sim::prelude::*;

/// Builds one of the mock PolyBench kernels; `indirect` routes every store
/// through the identity index array.
fn kernel(name: &str, indirect: bool) -> (Program, StmtId) {
    let n = 64i64;
    let mut b = ProgramBuilder::new();
    let a = b.array("A", n as usize);
    let src = b.array("S", n as usize);
    let idx = b.array("idx", n as usize);
    let i = b.var("i");
    let k = b.var("k");
    let t = b.var("t");
    // idx[i] = i — the identity mapping the compiler cannot see through.
    let init = b.var("init");
    b.for_loop(init, Expr::Const(0), Expr::Const(n), |b| {
        b.store(idx, Expr::Var(init), Expr::Var(init));
    });
    let weight = match name {
        "2mm" => 3,
        "covariance" => 5,
        _ => 2,
    };
    let l = b.for_loop(i, Expr::Const(0), Expr::Const(n), |b| {
        b.load(t, src, Expr::Var(i));
        if indirect {
            b.load(k, idx, Expr::Var(i));
            b.store(
                a,
                Expr::Var(k),
                Expr::mul(Expr::Var(t), Expr::Const(weight)),
            );
        } else {
            b.store(
                a,
                Expr::Var(i),
                Expr::mul(Expr::Var(t), Expr::Const(weight)),
            );
        }
    });
    (b.finish(), l)
}

fn main() {
    println!("Fig. 2.2: performance sensitivity to memory analysis");
    let mut table = Table::new(&[
        Col::text("kernel", 14),
        Col::num("static_speedup", 16, 2, 4),
        Col::num("dynamic_speedup", 18, 2, 4),
    ]);
    let cost = CostModel::default();
    let threads = 8;
    for name in ["2mm", "jacobi-2d", "covariance", "gramschmidt", "seidel"] {
        let mut speedups = Vec::new();
        for indirect in [false, true] {
            let (p, l) = kernel(name, indirect);
            let pdg = Pdg::build(&p, l);
            let applicability = classify_loop(&p, &pdg);
            // DOALL → parallel speedup; anything else stays sequential
            // (the figure's "blocks parallelization" outcome).
            let speedup = if applicability.best() == Technique::Doall {
                let w = UniformWorkload::independent(200, 64, 3_000);
                let seq = sequential(&w, &cost).total_ns;
                barrier(&w, threads, &cost).speedup_over(seq)
            } else {
                1.0
            };
            speedups.push(speedup);
        }
        table.row(&[&name, &speedups[0], &speedups[1]]);
    }
    table.finish("fig2_2");
}
