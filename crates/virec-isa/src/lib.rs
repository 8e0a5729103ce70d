#![warn(missing_docs)]

//! # virec-isa
//!
//! An AArch64-flavoured miniature integer ISA used by the ViReC simulator.
//!
//! The ViReC paper evaluates on the gem5 AArch64 in-order core. This crate
//! provides the equivalent substrate for a from-scratch reproduction:
//!
//! * [`Reg`] / [`instr::Instr`] — a reduced 32-register integer instruction
//!   set sufficient for the memory-intensive kernels of the evaluation
//!   (indirect loads/stores, ALU ops, compares, conditional branches).
//! * [`program::Asm`] — a tiny assembler with labels, producing a
//!   [`program::Program`].
//! * [`interp::Interpreter`] — a *golden* functional interpreter. Every
//!   timing simulator in the workspace is differentially tested against it:
//!   because register values really flow through the ViReC spill/fill
//!   machinery, a broken replacement policy produces wrong answers here,
//!   not just wrong cycle counts.
//! * [`analysis`] — static loop-nesting and register-pressure analysis used
//!   to reproduce the paper's Figure 2 (register utilization) and to apply
//!   the compiler register-reduction of §4.2.
//! * [`cfg`] / [`dataflow`] — basic-block CFG construction plus exact
//!   backward-liveness and reaching-definitions fixpoints: the static
//!   ground truth behind the `virec-verify` lint gate and the LRC/oracle
//!   prefetch cross-checks.
//! * [`mem::FlatMem`] — the flat functional memory shared by the golden
//!   interpreter and the timing models.

pub mod analysis;
pub mod cfg;
pub mod cond;
pub mod dataflow;
pub mod instr;
pub mod interp;
pub mod mem;
pub mod program;
pub mod reduce;
pub mod reg;

pub use cfg::{Cfg, CfgError, NaturalLoop};
pub use cond::{Cond, Flags};
pub use dataflow::{Liveness, ReachingDefs};
pub use instr::{AccessSize, AluOp, Instr, MemOffset, Operand2, RegList};
pub use interp::{ExecOutcome, Interpreter, ThreadCtx};
pub use mem::{Chunk, DataMemory, FlatMem, PAGE_SIZE};
pub use program::{Asm, Program};
pub use reduce::{demote_registers, ReducedProgram};
pub use reg::Reg;
