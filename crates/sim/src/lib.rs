//! Functional simulator for the GLAIVE ISA with architectural single-bit
//! fault injection.
//!
//! This crate is the reproduction's stand-in for gem5 full-system simulation:
//! it executes [`glaive_isa::Program`]s against a flat, trap-checked data
//! memory, records the dynamic execution profile, and can re-run a program
//! with a single-bit upset injected into a register operand of one dynamic
//! instruction instance — the fault model of the paper (§II-A): transient
//! faults in the registers that store instruction inputs and outputs.
//!
//! Outcomes are classified exactly as in the paper (§II-B):
//! * **Masked** — faulty output identical to the golden run,
//! * **SDC** — program completed but output differs,
//! * **Crash** — a trap (out-of-bounds access, divide-by-zero, invalid PC) or
//!   an exceeded instruction budget (hang; see DESIGN.md §3 for the fold).
//!
//! # Example
//!
//! ```
//! use glaive_isa::{Asm, Reg, AluOp};
//! use glaive_sim::{run, run_with_fault, classify, ExecConfig, FaultSpec, OperandSlot, Outcome};
//!
//! let mut asm = Asm::new("double");
//! asm.li(Reg(1), 21);
//! asm.alu(AluOp::Add, Reg(2), Reg(1), Reg(1));
//! asm.out(Reg(2));
//! asm.halt();
//! let p = asm.finish()?;
//!
//! let cfg = ExecConfig::default();
//! let golden = run(&p, &[], &cfg);
//! assert_eq!(golden.output, vec![42]);
//!
//! // Flip bit 0 of the first source operand of the add at its first
//! // dynamic instance: 21 becomes 20, the output becomes 40 -> SDC.
//! let fault = FaultSpec { pc: 1, slot: OperandSlot::Use(0), bit: 0, instance: 0 };
//! let faulty = run_with_fault(&p, &[], &cfg, &fault);
//! assert_eq!(classify(&golden, &faulty), Outcome::Sdc);
//! # Ok::<(), glaive_isa::AsmError>(())
//! ```

mod fault;
mod machine;
mod outcome;

pub use fault::{FaultSpec, OperandSlot};
pub use machine::{
    ExecConfig, ExecConfigError, ExitStatus, MachineError, RunResult, Simulator, StepObserver, Trap,
};
pub use outcome::{classify, Outcome};

use glaive_isa::{Isa, Program};

/// Runs `program` to completion on a fresh machine whose memory is
/// initialised from `init_mem` (the remainder is zero-filled). Works for any
/// instruction-set backend; the ISA is inferred from the program.
///
/// This is the *golden* (fault-free) execution used as the reference for
/// outcome classification.
///
/// # Panics
///
/// Panics if `init_mem` exceeds the program's declared data memory; use
/// [`Simulator::try_new`] to get the violation as a value instead.
pub fn run<I: Isa>(program: &Program<I>, init_mem: &[u64], cfg: &ExecConfig) -> RunResult {
    Simulator::try_new(program, init_mem, cfg)
        .unwrap_or_else(|e| panic!("{e}"))
        .run()
}

/// Runs `program` with a single-bit upset injected according to `fault`.
///
/// # Panics
///
/// Panics if `init_mem` exceeds the program's declared data memory; use
/// [`Simulator::try_new`] and [`Simulator::arm_fault`] to get the
/// violation as a value instead.
pub fn run_with_fault<I: Isa>(
    program: &Program<I>,
    init_mem: &[u64],
    cfg: &ExecConfig,
    fault: &FaultSpec,
) -> RunResult {
    let mut sim = Simulator::try_new(program, init_mem, cfg).unwrap_or_else(|e| panic!("{e}"));
    sim.arm_fault(*fault);
    sim.run()
}
