//! Property-based differential testing: random (but well-formed) programs
//! are run through the full ViReC core and must match the golden
//! interpreter's final register values and memory image.
//!
//! The generator produces a loop with a fixed trip count whose body is a
//! random mix of ALU operations, masked loads, and masked stores. Memory
//! operands are constrained to a window inside the data segment by masking
//! an index register before every access, so every generated program is
//! memory-safe by construction while still producing highly irregular
//! access and register-reuse patterns.

use proptest::prelude::*;
use virec::core::{Core, CoreConfig, PolicyKind, RegRegion};
use virec::isa::reg::names::*;
use virec::isa::{Asm, ExecOutcome, FlatMem, Interpreter, Program, Reg, ThreadCtx};
use virec::mem::{Fabric, FabricConfig};

const REGION_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x10_000;
const DATA_WINDOW: i64 = 0x3FF; // 1023 -> 8KiB window of u64 slots
const CODE_BASE: u64 = 0x4000_0000;

/// One random body operation.
#[derive(Clone, Debug)]
enum Op {
    Alu { kind: u8, dst: u8, a: u8, b: u8 },
    AluImm { kind: u8, dst: u8, a: u8, imm: i16 },
    Load { dst: u8, idx_src: u8 },
    Store { src: u8, idx_src: u8 },
    CmpSel { dst: u8, a: u8, b: u8 },
}

/// Registers usable by generated code (x2 is the reserved data base).
const GP: [Reg; 10] = [X0, X1, X3, X4, X5, X6, X7, X8, X9, X10];
/// Scratch register for masked indices.
const IDX: Reg = X11;
/// Loop counter.
const CNT: Reg = X12;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0u8..10, 0u8..10, 0u8..10).prop_map(|(kind, dst, a, b)| Op::Alu {
            kind,
            dst,
            a,
            b
        }),
        (0u8..6, 0u8..10, 0u8..10, any::<i16>()).prop_map(|(kind, dst, a, imm)| Op::AluImm {
            kind,
            dst,
            a,
            imm
        }),
        (0u8..10, 0u8..10).prop_map(|(dst, idx_src)| Op::Load { dst, idx_src }),
        (0u8..10, 0u8..10).prop_map(|(src, idx_src)| Op::Store { src, idx_src }),
        (0u8..10, 0u8..10, 0u8..10).prop_map(|(dst, a, b)| Op::CmpSel { dst, a, b }),
    ]
}

fn build_program(ops: &[Op], iters: u8) -> Program {
    let mut asm = Asm::new("prop");
    asm.mov_imm(CNT, iters as i64 + 1);
    asm.label("loop");
    for op in ops {
        match *op {
            Op::Alu { kind, dst, a, b } => {
                let (d, a, b) = (GP[dst as usize], GP[a as usize], GP[b as usize]);
                match kind {
                    0 => asm.add(d, a, b),
                    1 => asm.sub(d, a, b),
                    2 => asm.eor(d, a, b),
                    3 => asm.and(d, a, b),
                    4 => asm.orr(d, a, b),
                    _ => asm.mul(d, a, b),
                }
            }
            Op::AluImm { kind, dst, a, imm } => {
                let (d, a) = (GP[dst as usize], GP[a as usize]);
                match kind {
                    0 => asm.addi(d, a, imm as i64),
                    1 => asm.subi(d, a, imm as i64),
                    2 => asm.andi(d, a, imm as i64),
                    3 => asm.lsli(d, a, (imm as i64).rem_euclid(8)),
                    4 => asm.lsri(d, a, (imm as i64).rem_euclid(8)),
                    _ => asm.mov_imm(d, imm as i64),
                }
            }
            Op::Load { dst, idx_src } => {
                asm.andi(IDX, GP[idx_src as usize], DATA_WINDOW);
                asm.ldr_idx(GP[dst as usize], X2, IDX, 3);
            }
            Op::Store { src, idx_src } => {
                asm.andi(IDX, GP[idx_src as usize], DATA_WINDOW);
                asm.str_idx(GP[src as usize], X2, IDX, 3);
            }
            Op::CmpSel { dst, a, b } => {
                asm.cmp(GP[a as usize], GP[b as usize]);
                asm.csel(
                    GP[dst as usize],
                    GP[a as usize],
                    GP[b as usize],
                    virec::isa::Cond::Lt,
                );
            }
        }
    }
    asm.subi(CNT, CNT, 1);
    asm.cbnz(CNT, "loop");
    asm.halt();
    asm.assemble()
}

fn initial_ctx(tid: usize, seed: u64) -> Vec<(Reg, u64)> {
    let mut regs: Vec<(Reg, u64)> = GP
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            (
                r,
                seed.wrapping_mul(i as u64 + 1)
                    .wrapping_add(tid as u64 * 7919),
            )
        })
        .collect();
    regs.push((X2, DATA_BASE + tid as u64 * 0x4000)); // disjoint 16KiB windows
    regs
}

fn run_differential(ops: Vec<Op>, iters: u8, seed: u64, phys_regs: usize, policy: PolicyKind) {
    let nthreads = 3usize;
    let program = build_program(&ops, iters);

    // Golden.
    let mut gold_mem = FlatMem::new(0, 0x40_000);
    let mut gold_ctxs = Vec::new();
    for t in 0..nthreads {
        let mut ctx = ThreadCtx::new();
        for (r, v) in initial_ctx(t, seed) {
            ctx.set(r, v);
        }
        let out = Interpreter::new(&program, &mut gold_mem).run(&mut ctx, 10_000_000);
        assert!(matches!(out, ExecOutcome::Halted { .. }));
        gold_ctxs.push(ctx);
    }

    // Timed core.
    let mut mem = FlatMem::new(0, 0x40_000);
    let region = RegRegion::new(REGION_BASE, nthreads);
    for t in 0..nthreads {
        for (r, v) in initial_ctx(t, seed) {
            mem.write_u64(region.reg_addr(t, r), v);
        }
    }
    let mut cfg = CoreConfig::virec(nthreads, phys_regs);
    cfg.policy = policy;
    let mut core = Core::new(cfg, program, region, CODE_BASE, (0, 1));
    let mut fabric = Fabric::new(FabricConfig::default());
    let mut now = 0u64;
    while !core.done() {
        fabric.tick(now);
        core.tick(now, &mut fabric, &mut mem);
        now += 1;
        assert!(now < 50_000_000, "random program wedged the core");
    }
    core.drain(&mut mem);

    for (t, gctx) in gold_ctxs.iter().enumerate() {
        for r in Reg::allocatable() {
            prop_assert_eq_impl(core.arch_reg(t, r, &mem), gctx.get(r), t, r);
        }
    }
    assert_eq!(
        mem.first_difference(&gold_mem, DATA_BASE as usize, mem.size()),
        None,
        "memory image diverged"
    );
}

fn prop_assert_eq_impl(got: u64, want: u64, t: usize, r: Reg) {
    assert_eq!(got, want, "thread {t} register {r} diverged");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_programs_match_golden_on_tight_virec(
        ops in prop::collection::vec(op_strategy(), 4..24),
        iters in 1u8..12,
        seed in any::<u64>(),
    ) {
        // 12 physical registers for 3 threads: constant eviction pressure.
        run_differential(ops, iters, seed, 12, PolicyKind::Lrc);
    }

    #[test]
    fn random_programs_match_golden_across_policies(
        ops in prop::collection::vec(op_strategy(), 4..16),
        iters in 1u8..8,
        seed in any::<u64>(),
        policy_idx in 0usize..7,
    ) {
        run_differential(ops, iters, seed, 14, PolicyKind::ALL[policy_idx]);
    }
}
