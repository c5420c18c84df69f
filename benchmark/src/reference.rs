//! The benchmark's own sequential program: correctness oracle and timing
//! baseline in one.
//!
//! A plain single-threaded loop replays [`SimWorkload::accesses`] with its
//! own copy of the kernel's mixing rule on its own `Vec<i64>`. Every
//! region's final memory image must equal the image this loop leaves, and
//! the loop's wall-clock is the denominator of `speedup_vs_seq` — so a later
//! change that speeds up `AccessKernel::perform` moves the numerator only.
//! Nothing here calls into `crossinvoc_workloads::kernel`; a test pins the
//! two to each other through `AccessKernel::sequential_checksum()`.

use crossinvoc_runtime::signature::AccessKind;
use crossinvoc_sim::SimWorkload;

/// The benchmark's copy of the SplitMix64 output permutation (the kernel's
/// mixing function). Kept here so the reference shares no code with the
/// system under test.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A fixed amount of task-local compute: `rounds` dependent applications of
/// [`mix`]. Fixed instruction count, no clock reads, result returned so the
/// caller can keep it alive. The `coarse_mix` adapter and its reference both
/// call this, so the grain is identical on both sides of the speed-up.
#[inline]
pub fn spin(seed: u64, rounds: u64) -> u64 {
    let mut x = seed;
    for _ in 0..rounds {
        x = mix(x);
    }
    x
}

/// Replays `model` sequentially (invocation-major) on `mem`, which must be
/// zeroed and cover the model's addresses. `grain(inv, iter)` is the number
/// of extra [`spin`] rounds a task performs before its accesses (0 for bare
/// kernels).
pub fn run<W: SimWorkload + ?Sized>(
    model: &W,
    mem: &mut [i64],
    grain: impl Fn(usize, usize) -> u64,
) {
    let mut pairs = Vec::new();
    for inv in 0..model.num_invocations() {
        for iter in 0..model.num_iterations(inv) {
            let key = (inv as u64) << 32 | iter as u64;
            std::hint::black_box(spin(key, grain(inv, iter)));
            pairs.clear();
            model.accesses(inv, iter, &mut pairs);
            let mut acc = mix(key) as i64;
            for &(addr, kind) in &pairs {
                match kind {
                    AccessKind::Read => acc ^= mem[addr],
                    AccessKind::Write => mem[addr] = mix(acc as u64 ^ mem[addr] as u64) as i64,
                }
            }
        }
    }
}

/// Folds a memory image the way `AccessKernel::checksum` does.
pub fn checksum(mem: &[i64]) -> u64 {
    mem.iter().fold(0u64, |h, &v| mix(h ^ v as u64))
}

/// Hash of everything a workload's definition exposes to the engines: the
/// iteration space, every access and every modelled cost. Same seed → same
/// hash; the inputs test uses it to show that `--seed` reaches the models.
pub fn stream_hash<W: SimWorkload + ?Sized>(model: &W) -> u64 {
    let mut h = mix(model.num_invocations() as u64);
    let mut pairs = Vec::new();
    for inv in 0..model.num_invocations() {
        h = mix(h ^ model.num_iterations(inv) as u64);
        for iter in 0..model.num_iterations(inv) {
            pairs.clear();
            model.accesses(inv, iter, &mut pairs);
            h = mix(h ^ model.iteration_cost(inv, iter));
            for &(addr, kind) in &pairs {
                h = mix(h ^ ((addr as u64) << 1 | u64::from(kind == AccessKind::Write)));
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, Model};
    use crossinvoc_workloads::{AccessKernel, Scale};

    #[test]
    fn mixing_rule_matches_the_runtime_permutation() {
        for x in [0, 1, 7, u64::MAX, 0xC602013] {
            assert_eq!(mix(x), crossinvoc_runtime::hash::splitmix64(x));
        }
    }

    #[test]
    fn reference_equals_sequential_checksum_for_every_kernel() {
        for name in inputs::ALL_KERNELS {
            let model: Model = inputs::model(name, Scale::Test, 0xC602013);
            let cells = model
                .address_space()
                .expect("suite models declare their space");
            let mut mem = vec![0; cells];
            run(&model, &mut mem, |_, _| 0);
            let kernel = AccessKernel::from_model(model);
            assert_eq!(checksum(&mem), kernel.sequential_checksum(), "{name}");
        }
    }

    #[test]
    fn grain_changes_time_not_memory() {
        let model = inputs::model("JACOBI", Scale::Test, 1);
        let cells = model.address_space().unwrap();
        let (mut bare, mut coarse) = (vec![0; cells], vec![0; cells]);
        run(&model, &mut bare, |_, _| 0);
        run(&model, &mut coarse, |_, _| 50);
        assert_eq!(bare, coarse);
    }

    #[test]
    fn seed_reaches_the_access_stream() {
        for name in ["CG", "ECLAT", "FLUIDANIMATE-1", "BLACKSCHOLES"] {
            let hash = |seed| stream_hash(&inputs::model(name, Scale::Test, seed));
            assert_eq!(hash(11), hash(11), "{name}: same seed, same stream");
            assert_ne!(
                hash(11),
                hash(12),
                "{name}: different seed, different stream"
            );
        }
    }
}
