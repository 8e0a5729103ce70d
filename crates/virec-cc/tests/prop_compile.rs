//! Property-based compiler testing: random IR functions, compiled at random
//! register budgets, must agree with the IR interpreter on the returned
//! value and on every memory effect.

use proptest::prelude::*;
use virec_cc::compile;
use virec_cc::ir::{interpret, BinOp, Cmp, Function, Operand, Stmt};
use virec_isa::{ExecOutcome, FlatMem, Interpreter, Reg, ThreadCtx};

const DATA_BASE: u64 = 0x1000;
const FRAME_BASE: u64 = 0x8000;

fn binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
    ]
}

/// A random straight-line body over temps `0..k`, with memory ops through
/// the param-0 base pointer masked to a safe window by construction
/// (indices come from `Const(0..64)`).
fn straight_line(len: usize) -> impl Strategy<Value = Vec<Stmt>> {
    // temps 0..5 are params; defs extend the defined set sequentially.
    prop::collection::vec((0u8..4, binop(), any::<u16>(), 0i64..64), 1..len).prop_map(|ops| {
        let mut defined = 5u32; // params 0..=4
        let mut body = Vec::new();
        for (kind, op, sel, idx) in ops {
            match kind {
                0 | 1 => {
                    // def: dst is a fresh temp (always defined onward).
                    let a = Operand::Temp(sel as u32 % defined);
                    let b = Operand::Temp((sel as u32 / 7) % defined);
                    body.push(Stmt::def_bin(defined, op, a, b));
                    defined += 1;
                }
                2 => {
                    // load from the base (param 0) at a bounded index.
                    body.push(Stmt::Load {
                        dst: defined,
                        base: 0,
                        index: Operand::Const(idx),
                    });
                    defined += 1;
                }
                _ => {
                    // store a defined temp at a bounded index.
                    body.push(Stmt::Store {
                        src: Operand::Temp(sel as u32 % defined),
                        base: 0,
                        index: Operand::Const(idx),
                    });
                }
            }
        }
        // Return the last defined temp.
        body.push(Stmt::Return {
            value: Operand::Temp(defined - 1),
        });
        body
    })
}

fn run_compiled(f: &Function, budget: usize, args: &[u64], mem: &mut FlatMem) -> u64 {
    let c = compile(f, budget).expect("compiles");
    let mut ctx = ThreadCtx::new();
    for (i, &v) in args.iter().enumerate() {
        ctx.set(Reg::new(i as u8), v);
    }
    ctx.set(c.frame_reg, FRAME_BASE);
    let out = Interpreter::new(&c.program, mem).run(&mut ctx, 10_000_000);
    assert!(matches!(out, ExecOutcome::Halted { .. }));
    ctx.get(Reg::new(0))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn compiled_straight_line_matches_ir(
        body in straight_line(24),
        budget in 1usize..=17,
        seed in any::<u64>(),
    ) {
        let f = Function {
            name: "prop".into(),
            params: vec![0, 1, 2, 3, 4],
            body,
        };
        let args = [
            DATA_BASE,
            seed & 0xFFFF,
            seed >> 17,
            seed.rotate_left(9) & 0xFFFF,
            seed.rotate_right(23) & 0xFFFF,
        ];
        let mut ir_mem = FlatMem::new(0, 0x10_000);
        let want = interpret(&f, &args, &mut ir_mem, 1_000_000).value;

        let mut mc_mem = FlatMem::new(0, 0x10_000);
        let got = run_compiled(&f, budget, &args, &mut mc_mem);
        prop_assert_eq!(got, want, "return value diverged at budget {}", budget);
        // Memory effects identical outside the frame.
        prop_assert_eq!(mc_mem.first_difference(&ir_mem, 0, FRAME_BASE as usize), None);
    }

    #[test]
    fn compiled_counted_loop_matches_ir(
        iters in 1u8..30,
        op in binop(),
        budget in 1usize..=17,
        c0 in -50i64..50,
    ) {
        // acc = fold(op) over i in 0..iters starting from c0.
        let f = Function {
            name: "loop".into(),
            params: vec![],
            body: vec![
                Stmt::def_const(0, c0),
                Stmt::def_const(1, 0),
                Stmt::While {
                    cond: (Operand::Temp(1), Cmp::Lt, Operand::Const(iters as i64)),
                    body: vec![
                        Stmt::def_bin(0, op, Operand::Temp(0), Operand::Temp(1)),
                        Stmt::def_bin(1, BinOp::Add, Operand::Temp(1), Operand::Const(1)),
                    ],
                },
                Stmt::Return { value: Operand::Temp(0) },
            ],
        };
        let mut ir_mem = FlatMem::new(0, 0x10_000);
        let want = interpret(&f, &[], &mut ir_mem, 1_000_000).value;
        let mut mc_mem = FlatMem::new(0, 0x10_000);
        let got = run_compiled(&f, budget, &[], &mut mc_mem);
        prop_assert_eq!(got, want);
    }
}
