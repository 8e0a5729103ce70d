//! Emission: allocated linear code → a `virec-isa` program.
//!
//! Temporaries living in frame slots are reloaded into scratch registers
//! before each use and written back after each definition — the ordinary
//! load/store spill code of §4.2.
//!
//! Every emitted machine instruction is tagged with an [`EmitTag`]
//! describing *why* it exists (a spill reload, a spill writeback, or the
//! translation of a specific virtual instruction). The tag stream is the
//! witness `virec-verify`'s translation validator replays against the
//! pre-allocation IR: it lets the checker pair each `Slot(n)` reload with
//! the stores that reach it and confine scratch registers to their
//! instruction group.

use crate::ir::{BinOp, Function};
use crate::lower::{lower, VIndex, VInst, VOp};
use crate::regalloc::{
    allocate_with, liveness_divergence, AllocError, AllocStrategy, Allocation, LivenessDivergence,
    Loc, FRAME_PTR, SCRATCH0, SCRATCH1, SCRATCH2,
};
use std::collections::HashMap;
use virec_isa::instr::Operand2;
use virec_isa::{AluOp, Asm, Instr, MemOffset, Program, Reg};

/// Compilation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Budget outside `1..=17`.
    BudgetOutOfRange(usize),
    /// More than 8 parameters.
    TooManyParams(usize),
}

impl From<AllocError> for CompileError {
    fn from(e: AllocError) -> CompileError {
        match e {
            AllocError::BudgetOutOfRange(b) => CompileError::BudgetOutOfRange(b),
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::BudgetOutOfRange(b) => {
                write!(f, "register budget {b} outside 1..=17")
            }
            CompileError::TooManyParams(n) => write!(f, "{n} parameters exceed the 8-register ABI"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Provenance of one emitted machine instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmitTag {
    /// Spill reload: `temp` (resident in frame slot `slot`) loaded into a
    /// scratch register for the uses of virtual instruction `vinst`.
    Reload {
        /// Index into [`Compiled::vcode`].
        vinst: usize,
        /// The slot-resident temporary.
        temp: u32,
        /// Its frame slot.
        slot: u32,
    },
    /// Spill writeback: `temp`'s freshly computed value stored to its
    /// frame slot after virtual instruction `vinst`.
    Spill {
        /// Index into [`Compiled::vcode`].
        vinst: usize,
        /// The slot-resident temporary.
        temp: u32,
        /// Its frame slot.
        slot: u32,
    },
    /// Direct translation of virtual instruction `vinst`.
    Op {
        /// Index into [`Compiled::vcode`].
        vinst: usize,
    },
}

/// A compiled function.
#[derive(Debug)]
pub struct Compiled {
    /// The executable program (ends in `halt`; result in `x0`).
    pub program: Program,
    /// Frame slots the function needs (bytes = `8 * frame_slots`).
    pub frame_slots: u32,
    /// The frame-pointer register the caller must initialize (per thread).
    pub frame_reg: Reg,
    /// ABI registers carrying the parameters, in order.
    pub param_regs: Vec<Reg>,
    /// Temporaries that were spilled by the allocator.
    pub spilled: usize,
    /// The register budget the function was compiled with.
    pub budget: usize,
    /// The allocator strategy used.
    pub strategy: AllocStrategy,
    /// The lowered virtual code the program was emitted from (the
    /// translation validator's reference).
    pub vcode: Vec<VInst>,
    /// The allocation (temp → register/slot) the emitter consumed.
    pub alloc: Allocation,
    /// Per-machine-instruction provenance, parallel to `program`.
    pub emit_map: Vec<EmitTag>,
    /// Static spill reloads emitted (`ldr` from the frame).
    pub spill_loads: usize,
    /// Static spill writebacks emitted (`str` to the frame).
    pub spill_stores: usize,
    /// Warn-level diagnostics: temps whose flat live interval
    /// over-approximates CFG-exact liveness (what linear scan pays for).
    pub divergences: Vec<LivenessDivergence>,
}

fn alu_of(op: BinOp) -> AluOp {
    match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Orr,
        BinOp::Xor => AluOp::Eor,
        BinOp::Shl => AluOp::Lsl,
        BinOp::Shr => AluOp::Lsr,
    }
}

/// Compiles `f` with `budget` allocatable registers (§4.2's knob) using
/// the default graph-coloring allocator.
pub fn compile(f: &Function, budget: usize) -> Result<Compiled, CompileError> {
    compile_with(f, budget, AllocStrategy::default())
}

/// Compiles `f` with an explicit allocation strategy.
pub fn compile_with(
    f: &Function,
    budget: usize,
    strategy: AllocStrategy,
) -> Result<Compiled, CompileError> {
    if f.params.len() > 8 {
        return Err(CompileError::TooManyParams(f.params.len()));
    }
    let low = lower(f);
    let alloc = allocate_with(&low.code, budget, strategy)?;
    let divergences = liveness_divergence(&low.code);

    let mut asm = Asm::new(&f.name);
    let mut tags: Vec<EmitTag> = Vec::new();

    /// Hands out the three spill-scratch registers in order.
    struct ScratchAlloc {
        next: usize,
    }
    impl ScratchAlloc {
        fn take(&mut self) -> Reg {
            let r = [SCRATCH0, SCRATCH1, SCRATCH2][self.next];
            self.next += 1;
            r
        }
    }

    for (vi, inst) in low.code.iter().enumerate() {
        // Per-instruction scratch assignment for slot-resident temps.
        let mut scratch_map: HashMap<u32, Reg> = HashMap::new();
        let mut salloc = ScratchAlloc { next: 0 };

        macro_rules! src_reg {
            ($t:expr) => {{
                let t: u32 = $t;
                match alloc.locs[&t] {
                    Loc::Reg(r) => r,
                    Loc::Slot(s) => {
                        if let Some(&r) = scratch_map.get(&t) {
                            r
                        } else {
                            let r = salloc.take();
                            scratch_map.insert(t, r);
                            asm.emit(Instr::Ldr {
                                dst: r,
                                base: FRAME_PTR,
                                offset: MemOffset::Imm(s as i64 * 8),
                                size: virec_isa::AccessSize::B8,
                            });
                            tags.push(EmitTag::Reload {
                                vinst: vi,
                                temp: t,
                                slot: s,
                            });
                            r
                        }
                    }
                }
            }};
        }

        // Destination register (scratch for slot-resident dsts) plus the
        // writeback emitted after the computation. The closure may emit
        // zero or more instructions; the tag stream is padded to match.
        macro_rules! with_dst {
            ($t:expr, $emit:expr) => {{
                let t: u32 = $t;
                let (reg, slot) = match alloc.locs[&t] {
                    Loc::Reg(r) => (r, None),
                    Loc::Slot(s) => {
                        let r = if let Some(&r) = scratch_map.get(&t) {
                            r
                        } else {
                            salloc.take()
                        };
                        (r, Some(s))
                    }
                };
                let before = asm.here();
                #[allow(clippy::redundant_closure_call)]
                ($emit)(reg);
                for _ in before..asm.here() {
                    tags.push(EmitTag::Op { vinst: vi });
                }
                if let Some(s) = slot {
                    asm.emit(Instr::Str {
                        src: reg,
                        base: FRAME_PTR,
                        offset: MemOffset::Imm(s as i64 * 8),
                        size: virec_isa::AccessSize::B8,
                    });
                    tags.push(EmitTag::Spill {
                        vinst: vi,
                        temp: t,
                        slot: s,
                    });
                }
            }};
        }

        macro_rules! op {
            () => {
                tags.push(EmitTag::Op { vinst: vi })
            };
        }

        match *inst {
            VInst::Param { dst, index } => {
                let abi = Reg::new(index as u8);
                with_dst!(dst, |r: Reg| {
                    if r != abi {
                        asm.mov(r, abi);
                    }
                });
            }
            VInst::MovImm { dst, imm } => {
                with_dst!(dst, |r: Reg| asm.mov_imm(r, imm));
            }
            VInst::Mov { dst, src } => {
                let s = src_reg!(src);
                with_dst!(dst, |r: Reg| {
                    if r != s {
                        asm.mov(r, s);
                    }
                });
            }
            VInst::Bin { op, dst, a, b } => {
                let ar = src_reg!(a);
                let rhs = match b {
                    VOp::Temp(t) => Operand2::Reg(src_reg!(t)),
                    VOp::Imm(i) => Operand2::Imm(i),
                };
                with_dst!(dst, |r: Reg| asm.emit(Instr::Alu {
                    op: alu_of(op),
                    dst: r,
                    src: ar,
                    rhs,
                }));
            }
            VInst::Load { dst, base, index } => {
                let br = src_reg!(base);
                let offset = match index {
                    VIndex::Temp(t) => MemOffset::RegShifted {
                        index: src_reg!(t),
                        shift: 3,
                    },
                    VIndex::ByteOff(o) => MemOffset::Imm(o),
                };
                with_dst!(dst, |r: Reg| asm.emit(Instr::Ldr {
                    dst: r,
                    base: br,
                    offset,
                    size: virec_isa::AccessSize::B8,
                }));
            }
            VInst::Store { src, base, index } => {
                let sr = src_reg!(src);
                let br = src_reg!(base);
                let offset = match index {
                    VIndex::Temp(t) => MemOffset::RegShifted {
                        index: src_reg!(t),
                        shift: 3,
                    },
                    VIndex::ByteOff(o) => MemOffset::Imm(o),
                };
                asm.emit(Instr::Str {
                    src: sr,
                    base: br,
                    offset,
                    size: virec_isa::AccessSize::B8,
                });
                op!();
            }
            VInst::Cmp { a, b } => {
                let ar = src_reg!(a);
                let rhs = match b {
                    VOp::Temp(t) => Operand2::Reg(src_reg!(t)),
                    VOp::Imm(i) => Operand2::Imm(i),
                };
                asm.emit(Instr::Cmp { src: ar, rhs });
                op!();
            }
            VInst::Bcc { cond, target } => {
                asm.bcc(cond, &format!("L{target}"));
                op!();
            }
            VInst::B { target } => {
                asm.b(&format!("L{target}"));
                op!();
            }
            VInst::Label(l) => asm.label(&format!("L{l}")),
            VInst::Ret { src } => {
                let s = src_reg!(src);
                if s != Reg::new(0) {
                    asm.mov(Reg::new(0), s);
                    op!();
                }
                asm.halt();
                op!();
            }
        }
    }

    let program = asm.assemble();
    debug_assert_eq!(tags.len(), program.len(), "emit map must cover program");
    let spill_loads = tags
        .iter()
        .filter(|t| matches!(t, EmitTag::Reload { .. }))
        .count();
    let spill_stores = tags
        .iter()
        .filter(|t| matches!(t, EmitTag::Spill { .. }))
        .count();

    Ok(Compiled {
        program,
        frame_slots: alloc.frame_slots,
        frame_reg: FRAME_PTR,
        param_regs: (0..f.params.len() as u8).map(Reg::new).collect(),
        spilled: alloc.spilled,
        budget,
        strategy,
        vcode: low.code,
        alloc,
        emit_map: tags,
        spill_loads,
        spill_stores,
        divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{interpret, Cmp, Operand, Stmt};
    use virec_isa::{ExecOutcome, FlatMem, Interpreter, ThreadCtx};

    const FRAME_BASE: u64 = 0x8000;

    /// Runs a compiled function on the machine interpreter.
    fn run_compiled(c: &Compiled, args: &[u64], mem: &mut FlatMem) -> u64 {
        let mut ctx = ThreadCtx::new();
        for (i, &v) in args.iter().enumerate() {
            ctx.set(Reg::new(i as u8), v);
        }
        ctx.set(FRAME_PTR, FRAME_BASE);
        let out = Interpreter::new(&c.program, mem).run(&mut ctx, 10_000_000);
        assert!(matches!(out, ExecOutcome::Halted { .. }));
        ctx.get(Reg::new(0))
    }

    /// Differential check across budgets and both allocators: compiled
    /// result must match the IR interpreter for every combination.
    fn check_budgets(f: &Function, args: &[u64], init: impl Fn(&mut FlatMem)) {
        let mut ir_mem = FlatMem::new(0, 0x10_000);
        init(&mut ir_mem);
        let want = interpret(f, args, &mut ir_mem, 10_000_000).value;
        for strategy in [AllocStrategy::GraphColor, AllocStrategy::LinearScan] {
            for budget in [1usize, 2, 3, 4, 6, 10, 17] {
                let c = compile_with(f, budget, strategy).expect("compiles");
                let mut mem = FlatMem::new(0, 0x10_000);
                init(&mut mem);
                let got = run_compiled(&c, args, &mut mem);
                assert_eq!(got, want, "budget {budget}/{} diverged", strategy.name());
                // Memory effects must match too (outside the frame).
                assert_eq!(
                    mem.first_difference(&ir_mem, 0, FRAME_BASE as usize),
                    None,
                    "budget {budget}/{}: memory image diverged",
                    strategy.name()
                );
            }
        }
    }

    fn gather_ir() -> Function {
        // params: t0=data base, t1=idx base, t2=n. Returns Σ data[idx[i]].
        Function {
            name: "gather_ir".into(),
            params: vec![0, 1, 2],
            body: vec![
                Stmt::def_const(3, 0), // sum
                Stmt::def_const(4, 0), // i
                Stmt::While {
                    cond: (Operand::Temp(4), Cmp::Lt, Operand::Temp(2)),
                    body: vec![
                        Stmt::Load {
                            dst: 5,
                            base: 1,
                            index: Operand::Temp(4),
                        },
                        Stmt::Load {
                            dst: 6,
                            base: 0,
                            index: Operand::Temp(5),
                        },
                        Stmt::def_bin(3, BinOp::Add, Operand::Temp(3), Operand::Temp(6)),
                        Stmt::def_bin(4, BinOp::Add, Operand::Temp(4), Operand::Const(1)),
                    ],
                },
                Stmt::Return {
                    value: Operand::Temp(3),
                },
            ],
        }
    }

    #[test]
    fn gather_compiles_correctly_at_every_budget() {
        let n = 64u64;
        let data = 0x1000u64;
        let idx = 0x2000u64;
        check_budgets(&gather_ir(), &[data, idx, n], |mem| {
            for i in 0..n {
                mem.write_u64(data + i * 8, i * 11);
                mem.write_u64(idx + i * 8, (i * 13) % n);
            }
        });
    }

    #[test]
    fn smaller_budget_means_more_spills_and_instructions() {
        let f = gather_ir();
        let big = compile(&f, 12).unwrap();
        let small = compile(&f, 2).unwrap();
        assert_eq!(big.spilled, 0, "12 registers fit the gather kernel");
        assert!(small.spilled > 0);
        assert!(
            small.program.len() > big.program.len(),
            "spill code must lengthen the program"
        );
    }

    #[test]
    fn emit_map_is_parallel_to_the_program() {
        let f = gather_ir();
        for strategy in [AllocStrategy::GraphColor, AllocStrategy::LinearScan] {
            for budget in [1usize, 2, 4, 17] {
                let c = compile_with(&f, budget, strategy).unwrap();
                assert_eq!(c.emit_map.len(), c.program.len());
                // Tag provenance indices are monotone over the program.
                let mut last = 0usize;
                for t in &c.emit_map {
                    let vi = match *t {
                        EmitTag::Reload { vinst, .. }
                        | EmitTag::Spill { vinst, .. }
                        | EmitTag::Op { vinst } => vinst,
                    };
                    assert!(vi >= last, "emit map indices must be non-decreasing");
                    last = vi;
                }
                // Counters agree with the tag stream and the program text.
                let ldrs = c
                    .emit_map
                    .iter()
                    .zip(c.program.instrs())
                    .filter(|(t, i)| {
                        matches!(t, EmitTag::Reload { .. })
                            && matches!(i, Instr::Ldr { base, .. } if *base == FRAME_PTR)
                    })
                    .count();
                assert_eq!(ldrs, c.spill_loads);
            }
        }
    }

    #[test]
    fn graph_coloring_emits_fewer_spill_reloads_at_tight_budgets() {
        let f = gather_ir();
        let mut strictly_better = false;
        for budget in [1usize, 2, 3] {
            let g = compile_with(&f, budget, AllocStrategy::GraphColor).unwrap();
            let l = compile_with(&f, budget, AllocStrategy::LinearScan).unwrap();
            assert!(
                g.spill_loads <= l.spill_loads,
                "budget {budget}: graph {} reloads > linear {}",
                g.spill_loads,
                l.spill_loads
            );
            strictly_better |= g.spill_loads < l.spill_loads;
        }
        assert!(
            strictly_better,
            "graph coloring must beat linear scan on at least one tight budget"
        );
    }

    #[test]
    fn nested_loops_compile() {
        // Σ_{i<4} Σ_{j<6} (i*j)
        let f = Function {
            name: "nest".into(),
            params: vec![],
            body: vec![
                Stmt::def_const(0, 0), // acc
                Stmt::def_const(1, 0), // i
                Stmt::While {
                    cond: (Operand::Temp(1), Cmp::Lt, Operand::Const(4)),
                    body: vec![
                        Stmt::def_const(2, 0), // j
                        Stmt::While {
                            cond: (Operand::Temp(2), Cmp::Lt, Operand::Const(6)),
                            body: vec![
                                Stmt::def_bin(3, BinOp::Mul, Operand::Temp(1), Operand::Temp(2)),
                                Stmt::def_bin(0, BinOp::Add, Operand::Temp(0), Operand::Temp(3)),
                                Stmt::def_bin(2, BinOp::Add, Operand::Temp(2), Operand::Const(1)),
                            ],
                        },
                        Stmt::def_bin(1, BinOp::Add, Operand::Temp(1), Operand::Const(1)),
                    ],
                },
                Stmt::Return {
                    value: Operand::Temp(0),
                },
            ],
        };
        check_budgets(&f, &[], |_| {});
    }

    #[test]
    fn budget_bounds_enforced() {
        let f = gather_ir();
        assert_eq!(
            compile(&f, 0).unwrap_err(),
            CompileError::BudgetOutOfRange(0)
        );
        assert_eq!(
            compile(&f, 18).unwrap_err(),
            CompileError::BudgetOutOfRange(18)
        );
    }

    #[test]
    fn too_many_params_rejected() {
        let f = Function {
            name: "p".into(),
            params: (0..9).collect(),
            body: vec![],
        };
        assert_eq!(compile(&f, 8).unwrap_err(), CompileError::TooManyParams(9));
    }
}
