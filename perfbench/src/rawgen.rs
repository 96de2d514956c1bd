//! Seeded client-shipped ("Raw") programs the server has never seen.
//!
//! Each program is a suite program with one load-immediate changed, so it
//! has a realistic CDFG size (a cache miss costs what a real new program
//! costs) but a content fingerprint of its own: the server must build its
//! graph on the request path. The changed immediate is the original XOR a
//! nonzero per-program mask, so no program equals its base or another
//! program of the same seed.

use glaive_bench_suite::{Benchmark, SplitMix64};
use glaive_isa::{Instr, Program};

/// `count` distinct Raw programs derived from `suite` under `seed`.
///
/// # Panics
///
/// Panics if no suite program has a load-immediate to change.
pub fn raw_programs(suite: &[Benchmark], seed: u64, count: usize) -> Vec<Program> {
    let bases: Vec<(&Program, Vec<usize>)> = suite
        .iter()
        .map(|b| {
            let p = b.program();
            let lis = (0..p.len())
                .filter(|&pc| matches!(p.instrs()[pc], Instr::Li { .. }))
                .collect();
            (p, lis)
        })
        .filter(|(_, lis): &(_, Vec<usize>)| !lis.is_empty())
        .collect();
    assert!(!bases.is_empty(), "no suite program has a load-immediate");
    let mut rng = SplitMix64::new(seed ^ 0x5241_5750_524f_4753);
    // Bases round-robin, so every seed's set has the same graph sizes.
    (0..count)
        .map(|k| {
            let (base, lis) = &bases[k % bases.len()];
            let pc = lis[rng.next_below(lis.len() as u64) as usize];
            let mut instrs = base.instrs().to_vec();
            if let Instr::Li { imm, .. } = &mut instrs[pc] {
                // Nonzero and distinct per k: bit 62 keeps it nonzero.
                *imm ^= (1 << 62) | ((k as i64) << 20) | (seed as i64 & 0xf_ffff);
            }
            Program::try_new(format!("raw-{k}"), instrs, base.mem_words())
                .expect("changing an immediate keeps every branch target valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_serve::program_fingerprint;
    use std::collections::HashSet;

    #[test]
    fn programs_are_valid_and_pairwise_distinct() {
        let suite = glaive_bench_suite::suite(11);
        let raws = raw_programs(&suite, 11, 200);
        assert_eq!(
            raws,
            raw_programs(&suite, 11, 200),
            "deterministic per seed"
        );
        let mut seen: HashSet<u64> = suite
            .iter()
            .map(|b| program_fingerprint(b.program(), 8))
            .collect();
        for p in &raws {
            // Valid: re-validating the instruction stream succeeds.
            Program::<glaive_isa::GlaiveIsa>::try_new(p.name(), p.instrs().to_vec(), p.mem_words())
                .expect("valid program");
            assert!(!p.is_empty());
            assert!(
                seen.insert(program_fingerprint(p, 8)),
                "{} repeats a fingerprint",
                p.name()
            );
        }
    }
}
