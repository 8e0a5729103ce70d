//! End-to-end pipeline tests: run real programs through the full core
//! (pipeline + engine + caches + fabric) and check architectural state
//! against the golden interpreter. Because register values really travel
//! through the ViReC spill/fill machinery, these tests validate the whole
//! of §5.

use virec_core::{Core, CoreConfig, OracleSchedule, PolicyKind, RegRegion};
use virec_isa::reg::names::*;
use virec_isa::{Asm, Cond, ExecOutcome, FlatMem, Interpreter, Program, Reg, ThreadCtx};
use virec_mem::{Fabric, FabricConfig};

const REGION_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x10_000;
const CODE_BASE: u64 = 0x4000_0000;

/// Builds a fresh memory image with the data segment initialized by `init`.
fn build_mem(init: impl Fn(&mut FlatMem)) -> FlatMem {
    let mut mem = FlatMem::new(0, 0x40_000);
    init(&mut mem);
    mem
}

/// Runs `program` on every thread of a core and returns (core, mem) after
/// completion. Initial register contexts (one per thread) are produced by
/// `ctx_of` and written to the reserved region, mirroring the offload flow.
fn run_core(
    cfg: CoreConfig,
    program: &Program,
    mem: &mut FlatMem,
    ctx_of: impl Fn(usize) -> Vec<(Reg, u64)>,
) -> Core {
    let region = RegRegion::new(REGION_BASE, cfg.nthreads);
    for t in 0..cfg.nthreads {
        for (r, v) in ctx_of(t) {
            mem.write_u64(region.reg_addr(t, r), v);
        }
    }
    let mut core = Core::new(cfg, program.clone(), region, CODE_BASE, (0, 1));
    let mut fabric = Fabric::new(FabricConfig::default());
    let mut now = 0u64;
    while !core.done() {
        fabric.tick(now);
        core.tick(now, &mut fabric, mem);
        now += 1;
        assert!(now < 20_000_000, "core did not finish");
    }
    core.finalize_stats();
    core.drain(mem);
    core
}

/// Reference run: interpret the program per thread over a copy of memory.
fn golden(
    program: &Program,
    mem: &mut FlatMem,
    nthreads: usize,
    ctx_of: impl Fn(usize) -> Vec<(Reg, u64)>,
) -> Vec<ThreadCtx> {
    let mut out = Vec::new();
    for t in 0..nthreads {
        let mut ctx = ThreadCtx::new();
        for (r, v) in ctx_of(t) {
            ctx.set(r, v);
        }
        let res = Interpreter::new(program, mem).run(&mut ctx, 10_000_000);
        assert!(matches!(res, ExecOutcome::Halted { .. }));
        out.push(ctx);
    }
    out
}

/// Differentially checks a core configuration against the interpreter on a
/// given program/workload.
fn check_against_golden(
    cfg: CoreConfig,
    program: &Program,
    init: impl Fn(&mut FlatMem),
    ctx_of: impl Fn(usize) -> Vec<(Reg, u64)> + Copy,
) -> Core {
    let nthreads = cfg.nthreads;
    let mut mem_golden = build_mem(&init);
    let golden_ctxs = golden(program, &mut mem_golden, nthreads, ctx_of);

    let mut mem = build_mem(&init);
    let core = run_core(cfg, program, &mut mem, ctx_of);

    for (t, gctx) in golden_ctxs.iter().enumerate() {
        for r in Reg::allocatable() {
            assert_eq!(
                core.arch_reg(t, r, &mem),
                gctx.get(r),
                "thread {t} register {r} mismatch"
            );
        }
    }
    // Data segment must match byte-for-byte (stores flowed correctly).
    assert_eq!(
        mem.first_difference(&mem_golden, DATA_BASE as usize, mem.size()),
        None,
        "data segment diverged from golden run"
    );
    core
}

/// Gather-style kernel: each thread sums `data[idx[i]]` over its partition.
/// x0=sum, x1=i, x2=data base, x3=idx base, x4=end, x5=index val, x6=loaded,
/// x7=stride. Results stored at `out[tid]`.
fn gather_program() -> Program {
    let mut a = Asm::new("gather");
    a.label("loop");
    a.ldr_idx(X5, X3, X1, 3); // x5 = idx[i]
    a.ldr_idx(X6, X2, X5, 3); // x6 = data[x5]
    a.add(X0, X0, X6);
    a.add(X1, X1, X7); // i += stride
    a.cmp(X1, X4);
    a.bcc(Cond::Lt, "loop");
    a.str_idx(X0, X8, X9, 3); // out[tid] = sum
    a.halt();
    a.assemble()
}

fn gather_init(n: u64) -> impl Fn(&mut FlatMem) {
    move |mem: &mut FlatMem| {
        let data = DATA_BASE;
        let idx = DATA_BASE + n * 8;
        // Pseudo-random permutation-ish indices.
        for i in 0..n {
            mem.write_u64(data + i * 8, i.wrapping_mul(2654435761) % 1000);
            mem.write_u64(idx + i * 8, (i.wrapping_mul(40503)) % n);
        }
    }
}

fn gather_ctx(n: u64, nthreads: usize) -> impl Fn(usize) -> Vec<(Reg, u64)> + Copy {
    move |t: usize| {
        let data = DATA_BASE;
        let idx = DATA_BASE + n * 8;
        let out = DATA_BASE + 2 * n * 8;
        vec![
            (X0, 0),
            (X1, t as u64),
            (X2, data),
            (X3, idx),
            (X4, n),
            (X7, nthreads as u64),
            (X8, out),
            (X9, t as u64),
        ]
    }
}

#[test]
fn single_thread_banked_matches_golden() {
    let n = 256;
    let cfg = CoreConfig::banked(1);
    let core = check_against_golden(cfg, &gather_program(), gather_init(n), gather_ctx(n, 1));
    assert!(core.stats().instructions > n * 6);
    assert_eq!(
        core.stats().context_switches,
        0,
        "single thread never switches"
    );
}

#[test]
fn multithread_banked_matches_golden() {
    let n = 512;
    let cfg = CoreConfig::banked(4);
    let core = check_against_golden(cfg, &gather_program(), gather_init(n), gather_ctx(n, 4));
    assert!(
        core.stats().context_switches > 10,
        "expected CGMT switching, got {}",
        core.stats().context_switches
    );
}

#[test]
fn virec_full_context_matches_golden() {
    let n = 512;
    // 10 active regs per thread, 4 threads, full context.
    let cfg = CoreConfig::virec(4, 40);
    let core = check_against_golden(cfg, &gather_program(), gather_init(n), gather_ctx(n, 4));
    let s = core.stats();
    assert!(s.rf_misses > 0, "cold fills must count as misses");
    assert!(s.rf_hit_rate() > 0.5, "full context should mostly hit");
}

#[test]
fn virec_small_context_matches_golden() {
    let n = 512;
    // Heavy contention: 4 threads share 16 physical registers.
    let cfg = CoreConfig::virec(4, 16);
    let core = check_against_golden(cfg, &gather_program(), gather_init(n), gather_ctx(n, 4));
    assert!(core.stats().rf_spills > 0, "contention must force spills");
}

#[test]
fn virec_all_policies_match_golden() {
    let n = 128;
    for policy in PolicyKind::ALL {
        let mut cfg = CoreConfig::virec(4, 14);
        cfg.policy = policy;
        check_against_golden(cfg, &gather_program(), gather_init(n), gather_ctx(n, 4));
    }
}

#[test]
fn nsf_baseline_matches_golden() {
    let n = 256;
    let cfg = CoreConfig::nsf(4, 16);
    check_against_golden(cfg, &gather_program(), gather_init(n), gather_ctx(n, 4));
}

#[test]
fn software_engine_matches_golden() {
    let n = 128;
    let cfg = CoreConfig::software(3);
    let core = check_against_golden(cfg, &gather_program(), gather_init(n), gather_ctx(n, 3));
    assert!(core.stats().stall_ctx_software > 0);
}

#[test]
fn prefetch_full_matches_golden() {
    let n = 256;
    let cfg = CoreConfig::prefetch_full(4, 10);
    check_against_golden(cfg, &gather_program(), gather_init(n), gather_ctx(n, 4));
}

#[test]
fn prefetch_exact_with_recorded_oracle_matches_golden() {
    let n = 256;
    // Record quanta on a banked run.
    let mut mem = build_mem(gather_init(n));
    let region = RegRegion::new(REGION_BASE, 4);
    let ctx_of = gather_ctx(n, 4);
    for t in 0..4 {
        for (r, v) in ctx_of(t) {
            mem.write_u64(region.reg_addr(t, r), v);
        }
    }
    let mut rec_core = Core::new(
        CoreConfig::banked(4),
        gather_program(),
        region,
        CODE_BASE,
        (0, 1),
    );
    rec_core.enable_quantum_trace();
    let mut fabric = Fabric::new(FabricConfig::default());
    let mut now = 0;
    while !rec_core.done() {
        fabric.tick(now);
        rec_core.tick(now, &mut fabric, &mut mem);
        now += 1;
        assert!(now < 20_000_000);
    }
    let oracle = OracleSchedule::from_trace(&rec_core.take_quantum_trace(), 4);
    assert!(oracle.sets.iter().any(|s| !s.is_empty()), "oracle recorded");

    // Replay with exact prefetching.
    let nthreads = 4;
    let mut mem_golden = build_mem(gather_init(n));
    let golden_ctxs = golden(&gather_program(), &mut mem_golden, nthreads, ctx_of);

    let mut mem2 = build_mem(gather_init(n));
    for t in 0..nthreads {
        for (r, v) in ctx_of(t) {
            mem2.write_u64(region.reg_addr(t, r), v);
        }
    }
    let mut core = Core::with_oracle(
        CoreConfig::prefetch_exact(4, 10),
        gather_program(),
        region,
        CODE_BASE,
        (0, 1),
        oracle,
    );
    let mut fabric2 = Fabric::new(FabricConfig::default());
    let mut now2 = 0;
    while !core.done() {
        fabric2.tick(now2);
        core.tick(now2, &mut fabric2, &mut mem2);
        now2 += 1;
        assert!(now2 < 20_000_000);
    }
    core.drain(&mut mem2);
    for (t, gctx) in golden_ctxs.iter().enumerate() {
        for r in Reg::allocatable() {
            assert_eq!(core.arch_reg(t, r, &mem2), gctx.get(r), "t{t} {r}");
        }
    }
}

#[test]
fn store_heavy_kernel_matches_golden() {
    // Scatter: out[idx[i]] = i * 3, stressing the store queue.
    let n = 256u64;
    let mut a = Asm::new("scatter");
    a.label("loop");
    a.ldr_idx(X5, X3, X1, 3);
    a.mov_imm(X6, 3);
    a.mul(X6, X1, X6);
    a.str_idx(X6, X2, X5, 3);
    a.add(X1, X1, X7);
    a.cmp(X1, X4);
    a.bcc(Cond::Lt, "loop");
    a.halt();
    let p = a.assemble();
    let init = move |mem: &mut FlatMem| {
        let idx = DATA_BASE + n * 8;
        for i in 0..n {
            // Disjoint per-thread targets: idx[i] = i (identity) keeps
            // threads from racing on the same slot across partitions.
            mem.write_u64(idx + i * 8, i);
        }
    };
    let ctx_of = move |t: usize| {
        vec![
            (X1, t as u64),
            (X2, DATA_BASE),
            (X3, DATA_BASE + n * 8),
            (X4, n),
            (X7, 4u64),
        ]
    };
    let cfg = CoreConfig::virec(4, 24);
    check_against_golden(cfg, &p, init, ctx_of);
}

#[test]
fn dependent_loads_pointer_chase_matches_golden() {
    // Pointer chase: x0 = next[x0], N hops — maximal load-use dependence.
    let n: u64 = 64;
    let mut a = Asm::new("chase");
    a.label("loop");
    a.ldr_idx(X0, X2, X0, 3); // x0 = next[x0]
    a.subi(X1, X1, 1);
    a.cbnz(X1, "loop");
    a.halt();
    let p = a.assemble();
    let init = move |mem: &mut FlatMem| {
        for i in 0..n {
            mem.write_u64(DATA_BASE + i * 8, (i + 17) % n);
        }
    };
    let ctx_of = move |t: usize| vec![(X0, t as u64 % n), (X1, 500u64), (X2, DATA_BASE)];
    let cfg = CoreConfig::virec(2, 16);
    check_against_golden(cfg, &p, init, ctx_of);
}

#[test]
fn udiv_long_latency_matches_golden() {
    let mut a = Asm::new("div");
    a.mov_imm(X1, 1000);
    a.mov_imm(X2, 7);
    a.emit(virec_isa::Instr::Alu {
        op: virec_isa::AluOp::Udiv,
        dst: X3,
        src: X1,
        rhs: virec_isa::instr::Operand2::Reg(X2),
    });
    a.addi(X3, X3, 1);
    a.halt();
    let p = a.assemble();
    let cfg = CoreConfig::banked(1);
    let core = check_against_golden(cfg, &p, |_| {}, |_| vec![]);
    assert!(core.stats().cycles > 12, "udiv latency must show up");
}

#[test]
fn ipc_sanity_alu_chain() {
    // A tight ALU loop should sustain close to 1 IPC on the banked core
    // once the icache is warm (backward branches predict taken).
    let mut a = Asm::new("alu");
    a.mov_imm(X1, 500);
    a.label("loop");
    a.addi(X2, X2, 1);
    a.addi(X3, X3, 1);
    a.addi(X4, X4, 1);
    a.addi(X5, X5, 1);
    a.addi(X6, X6, 1);
    a.addi(X7, X7, 1);
    a.subi(X1, X1, 1);
    a.cbnz(X1, "loop");
    a.halt();
    let p = a.assemble();
    let cfg = CoreConfig::banked(1);
    let mut mem = build_mem(|_| {});
    let core = run_core(cfg, &p, &mut mem, |_| vec![]);
    let s = core.stats();
    assert!(
        s.ipc() > 0.7,
        "ALU chain IPC too low: {} ({} cycles / {} instrs)",
        s.ipc(),
        s.cycles,
        s.instructions
    );
}

#[test]
fn csl_blocks_switch_with_single_thread() {
    let n = 128;
    let cfg = CoreConfig::virec(1, 12);
    let mut mem = build_mem(gather_init(n));
    let core = run_core(cfg, &gather_program(), &mut mem, gather_ctx(n, 1));
    assert_eq!(core.stats().context_switches, 0);
    assert!(core.stats().stall_mem > 0, "misses become blocking waits");
}

#[test]
fn branch_mispredicts_counted() {
    // Forward conditional branches, alternating taken/not-taken.
    let mut a = Asm::new("br");
    a.mov_imm(X1, 100);
    a.label("loop");
    a.andi(X2, X1, 1);
    a.cbnz(X2, "odd");
    a.addi(X3, X3, 1);
    a.label("odd");
    a.subi(X1, X1, 1);
    a.cbnz(X1, "loop");
    a.halt();
    let p = a.assemble();
    let cfg = CoreConfig::banked(1);
    let mut mem = build_mem(|_| {});
    let core = run_core(cfg, &p, &mut mem, |_| vec![]);
    assert!(core.stats().branch_mispredicts > 20);
}
