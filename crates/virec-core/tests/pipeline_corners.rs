//! Corner-case tests for the pipeline: CSL masking, store-queue pressure,
//! round-robin fairness, sysreg buffering, quantum recording, tracer-free
//! clones, the wakes that outside mutators owe the event-driven loop, a
//! decode that sleeps while only fills are outstanding, a corrupted
//! register that reaches an operand read, and an out-of-range address.

use virec_core::{Core, CoreConfig, EngineFault, OracleSchedule, RegRegion, ThreadStatus};
use virec_isa::reg::names::*;
use virec_isa::{Asm, Cond, FlatMem, Program, Reg};
use virec_mem::{Fabric, FabricConfig};

const REGION_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x10_000;
const CODE_BASE: u64 = 0x4000_0000;

struct Rig {
    core: Core,
    fabric: Fabric,
    mem: FlatMem,
}

impl Rig {
    fn new(cfg: CoreConfig, program: Program, ctx_of: impl Fn(usize) -> Vec<(Reg, u64)>) -> Rig {
        let mut mem = FlatMem::new(0, 0x100_000);
        let region = RegRegion::new(REGION_BASE, cfg.nthreads);
        for t in 0..cfg.nthreads {
            for (r, v) in ctx_of(t) {
                mem.write_u64(region.reg_addr(t, r), v);
            }
        }
        Rig {
            core: Core::new(cfg, program, region, CODE_BASE, (0, 1)),
            fabric: Fabric::new(FabricConfig::default()),
            mem,
        }
    }

    fn run_to_completion(&mut self) -> u64 {
        let mut now = 0;
        while !self.core.done() {
            self.fabric.tick(now);
            self.core.tick(now, &mut self.fabric, &mut self.mem);
            now += 1;
            assert!(now < 50_000_000, "run wedged");
        }
        self.core.finalize_stats();
        now
    }

    /// Ticks one cycle; returns the core's next event after that tick.
    fn step(&mut self, now: u64) -> Option<u64> {
        self.fabric.tick(now);
        self.core.tick(now, &mut self.fabric, &mut self.mem);
        self.core.next_event(now, &self.fabric)
    }

    /// Runs to completion as the event-driven loop does: after each tick
    /// the clock jumps to the earlier of the core's and the fabric's next
    /// event, and the core is credited with the cycles jumped over. A live
    /// core with neither has lost a wakeup (the event loop would sleep to
    /// its budget), so that panics.
    fn run_skipping(&mut self) -> u64 {
        let mut now = 0;
        while !self.core.done() {
            let next = self
                .step(now)
                .into_iter()
                .chain(self.fabric.next_event(now))
                .min();
            now += 1;
            if self.core.done() {
                break;
            }
            let next = next.unwrap_or_else(|| panic!("lost wakeup after cycle {}", now - 1));
            if next > now {
                self.core.credit_skipped(next - now);
                now = next;
            }
            assert!(now < 50_000_000, "run wedged");
        }
        self.core.finalize_stats();
        now
    }
}

/// A store-burst kernel: consecutive stores to distinct lines.
fn store_burst(n: i64) -> Program {
    let mut a = Asm::new("burst");
    a.mov_imm(X1, 0);
    a.mov_imm(X2, DATA_BASE as i64);
    a.mov_imm(X3, n);
    a.label("loop");
    a.lsli(X4, X1, 6); // line stride
    a.add(X4, X2, X4);
    a.str(X5, X4, 0);
    a.addi(X1, X1, 1);
    a.cmp(X1, X3);
    a.bcc(Cond::Lt, "loop");
    a.halt();
    a.assemble()
}

#[test]
fn store_queue_fills_under_bursts() {
    let mut cfg = CoreConfig::banked(1);
    cfg.sq_entries = 2; // tiny SQ forces pressure
    let mut rig = Rig::new(cfg, store_burst(64), |_| vec![]);
    rig.run_to_completion();
    assert!(
        rig.core.stats().stall_sq_full > 0,
        "a 2-entry SQ must back-pressure a store burst"
    );
}

#[test]
fn bigger_store_queue_relieves_pressure() {
    let run_with_sq = |sq: usize| {
        let mut cfg = CoreConfig::banked(1);
        cfg.sq_entries = sq;
        let mut rig = Rig::new(cfg, store_burst(64), |_| vec![]);
        let cycles = rig.run_to_completion();
        (cycles, rig.core.stats().stall_sq_full)
    };
    let (c2, s2) = run_with_sq(2);
    let (c16, s16) = run_with_sq(16);
    assert!(s16 < s2);
    assert!(c16 <= c2);
}

#[test]
fn store_refused_by_full_queue_sleeps_until_head_retires() {
    // A one-entry queue behind a 400-cycle hop: every store after the
    // first waits out its predecessor's far miss in the mem stage.
    let mut cfg = CoreConfig::banked(1);
    cfg.sq_entries = 1;
    let rig = || {
        let mut rig = Rig::new(cfg, store_burst(16), |_| vec![]);
        rig.fabric = Fabric::new(FabricConfig {
            xbar_latency: 400,
            ..FabricConfig::default()
        });
        rig
    };

    // The refused store records no wake: once the front end behind it has
    // settled, the core sleeps past the next cycle instead of polling the
    // full queue, while the store is still refused.
    let mut probe = rig();
    let mut now = 0;
    let mut refused = 0;
    loop {
        let next = probe.step(now);
        let stalls = probe.core.stats().stall_sq_full;
        if stalls > 0 {
            assert!(
                stalls > refused,
                "the first refusal ended at cycle {now} and the core never slept"
            );
            if next.is_none_or(|t| t > now + 1) {
                break;
            }
        }
        refused = stalls;
        now += 1;
        assert!(!probe.core.done(), "the store queue never filled");
    }

    // Skipping the sleeps credits every refused cycle to `stall_sq_full`,
    // exactly as the dense run counts them.
    let mut dense = rig();
    let dense_cycles = dense.run_to_completion();
    let mut skipping = rig();
    let skipping_cycles = skipping.run_skipping();
    assert_eq!(skipping_cycles, dense_cycles);
    assert_eq!(skipping.core.stats(), dense.core.stats());
    assert!(dense.core.stats().stall_sq_full > 0);
}

/// Gather kernel for switch-oriented tests.
fn gather_prog() -> Program {
    let mut a = Asm::new("g");
    a.label("loop");
    a.ldr_idx(X5, X3, X1, 3);
    a.ldr_idx(X6, X2, X5, 3);
    a.add(X0, X0, X6);
    a.add(X1, X1, X7);
    a.cmp(X1, X4);
    a.bcc(Cond::Lt, "loop");
    a.halt();
    a.assemble()
}

fn gather_ctx(n: u64, nthreads: usize) -> impl Fn(usize) -> Vec<(Reg, u64)> {
    move |t| {
        vec![
            (X0, 0),
            (X1, t as u64),
            (X2, DATA_BASE),
            (X3, DATA_BASE + n * 8),
            (X4, n),
            (X7, nthreads as u64),
        ]
    }
}

fn init_gather(mem: &mut FlatMem, n: u64) {
    for i in 0..n {
        mem.write_u64(DATA_BASE + i * 8, i * 3);
        mem.write_u64(DATA_BASE + n * 8 + i * 8, (i * 7919) % n);
    }
}

#[test]
fn masked_switches_counted_when_bsi_busy() {
    // Tiny ViReC RF at 8 threads: fills are almost always outstanding, so
    // some switch requests must be masked by the BSI signal.
    let n = 512;
    let cfg = CoreConfig::virec(8, 12);
    let mut rig = Rig::new(cfg, gather_prog(), gather_ctx(n, 8));
    init_gather(&mut rig.mem, n);
    rig.run_to_completion();
    let s = rig.core.stats();
    assert!(s.context_switches > 100);
    assert!(
        s.switches_masked > 0,
        "expected some masked switches with a starved RF"
    );
}

#[test]
fn round_robin_covers_all_threads() {
    let n = 256;
    let nthreads = 5;
    let cfg = CoreConfig::banked(nthreads);
    let mut rig = Rig::new(cfg, gather_prog(), gather_ctx(n, nthreads));
    init_gather(&mut rig.mem, n);
    rig.run_to_completion();
    for t in 0..nthreads {
        assert_eq!(
            rig.core.thread(t).status,
            ThreadStatus::Halted,
            "thread {t} never completed"
        );
    }
    // Fair partitioning: every thread committed work, so instructions far
    // exceed a single partition's worth.
    assert!(rig.core.stats().instructions > n * 6 / 2);
}

#[test]
fn quantum_recording_masks_match_kernel_registers() {
    let n = 256;
    let cfg = CoreConfig::banked(4);
    let mut rig = Rig::new(cfg, gather_prog(), gather_ctx(n, 4));
    init_gather(&mut rig.mem, n);
    rig.core.enable_quantum_trace();
    rig.run_to_completion();
    let oracle = OracleSchedule::from_trace(&rig.core.take_quantum_trace(), 4);
    assert_eq!(oracle.sets.len(), 4);
    // Kernel registers: x0..x7 minus x2/x3 bases… all of x0-x7 appear.
    let all: u32 = oracle.sets.iter().flatten().fold(0, |acc, m| acc | m);
    for r in [0u32, 1, 2, 3, 4, 5, 6, 7] {
        assert!(all & (1 << r) != 0, "x{r} missing from recorded quanta");
    }
    // No register outside the kernel's set may appear.
    assert_eq!(all & !0xFF, 0, "unexpected registers recorded: {all:#x}");
}

#[test]
fn sysreg_buffer_only_for_virec_like_engines() {
    // Banked cores keep sysregs in banks: no register-region dcache traffic
    // beyond the initial context fetch. ViReC cores fetch/writeback sysreg
    // lines each switch.
    let n = 256;
    let virec = {
        let cfg = CoreConfig::virec(4, 32);
        let mut rig = Rig::new(cfg, gather_prog(), gather_ctx(n, 4));
        init_gather(&mut rig.mem, n);
        rig.run_to_completion();
        *rig.core.stats()
    };
    assert!(virec.context_switches > 10);
    // ViReC's dcache sees register-class traffic (fills/spills/sysregs).
    assert!(virec.dcache.reg_hits + virec.dcache.reg_misses > 0);
}

#[test]
fn halted_threads_stop_consuming_cycles() {
    // One thread has 4x the work: the others halt early, and the core
    // finishes only when the straggler does, without deadlock.
    let n = 512;
    let cfg = CoreConfig::banked(4);
    let prog = gather_prog();
    let mut rig = Rig::new(cfg, prog, move |t| {
        let bound = if t == 0 { n } else { n / 4 };
        vec![
            (X0, 0),
            (X1, t as u64),
            (X2, DATA_BASE),
            (X3, DATA_BASE + n * 8),
            (X4, bound),
            (X7, 4u64),
        ]
    });
    init_gather(&mut rig.mem, n);
    rig.run_to_completion();
    assert!(rig.core.done());
}

#[test]
fn zero_iteration_thread_halts_cleanly() {
    // Thread bound below its start index: the loop body still executes
    // once (do-while shape), then halts — no special-casing needed, but
    // the core must not wedge on very short threads.
    let n = 64;
    let cfg = CoreConfig::virec(4, 16);
    let mut rig = Rig::new(cfg, gather_prog(), gather_ctx(n, 4));
    init_gather(&mut rig.mem, n);
    let cycles = rig.run_to_completion();
    assert!(cycles > 0);
}

#[test]
fn dynamic_thread_activation_matches_golden() {
    // Start with 4 of 8 threads; activate the rest mid-run. Final results
    // must still match a full 8-thread golden run (the contexts were
    // offloaded up front).
    let n = 512;
    let nthreads = 8;
    let cfg = CoreConfig::virec(nthreads, 40);
    let prog = gather_prog();
    let ctx_of = gather_ctx(n, nthreads);
    let mut mem = FlatMem::new(0, 0x100_000);
    init_gather(&mut mem, n);
    let region = RegRegion::new(REGION_BASE, nthreads);
    for t in 0..nthreads {
        for (r, v) in ctx_of(t) {
            mem.write_u64(region.reg_addr(t, r), v);
        }
    }
    let mut core = Core::new(cfg, prog.clone(), region, CODE_BASE, (0, 1));
    for t in 4..nthreads {
        core.deactivate_thread(t);
    }
    let mut fabric = Fabric::new(FabricConfig::default());
    let mut now = 0;
    let mut launched_rest = false;
    while !core.done() || !launched_rest {
        fabric.tick(now);
        core.tick(now, &mut fabric, &mut mem);
        now += 1;
        if !launched_rest && now == 5_000 {
            for t in 4..nthreads {
                core.activate_thread(t, 0);
            }
            launched_rest = true;
        }
        assert!(now < 50_000_000);
    }
    core.drain(&mut mem);

    // Golden comparison for all 8 threads.
    let mut gold_mem = FlatMem::new(0, 0x100_000);
    init_gather(&mut gold_mem, n);
    for t in 0..nthreads {
        let mut ctx = virec_isa::ThreadCtx::new();
        for (r, v) in ctx_of(t) {
            ctx.set(r, v);
        }
        let out = virec_isa::Interpreter::new(&prog, &mut gold_mem).run(&mut ctx, 10_000_000);
        assert!(matches!(out, virec_isa::ExecOutcome::Halted { .. }));
        for r in Reg::allocatable() {
            assert_eq!(core.arch_reg(t, r, &mem), ctx.get(r), "t{t} {r}");
        }
    }
}

#[test]
fn inactive_threads_do_not_block_completion() {
    let n = 128;
    let cfg = CoreConfig::banked(4);
    let mut rig = Rig::new(cfg, gather_prog(), gather_ctx(n, 4));
    init_gather(&mut rig.mem, n);
    rig.core.deactivate_thread(3);
    rig.run_to_completion();
    assert_eq!(rig.core.thread(3).status, ThreadStatus::Inactive);
    assert_eq!(rig.core.thread(0).status, ThreadStatus::Halted);
}

#[test]
fn tracer_captures_schedule_events() {
    use virec_core::{TraceEvent, VecTracer};
    let n = 256;
    let cfg = CoreConfig::virec(4, 32);
    let mut rig = Rig::new(cfg, gather_prog(), gather_ctx(n, 4));
    init_gather(&mut rig.mem, n);
    let rec = VecTracer::new();
    rig.core.set_tracer(rec.tracer());
    rig.run_to_completion();
    let events = rec.events();
    let commits = events
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::Commit { .. }))
        .count() as u64;
    assert_eq!(commits, rig.core.stats().instructions);
    let outs = events
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::SwitchOut { blocked: true, .. }))
        .count() as u64;
    assert_eq!(outs, rig.core.stats().context_switches);
    // Cycle stamps are monotonic.
    assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
    // Every blocked switch-out is eventually followed by that thread's
    // wakeup.
    let wakeups = events
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::Wakeup { .. }))
        .count() as u64;
    assert!(
        wakeups >= outs,
        "every blocked thread must wake ({wakeups} vs {outs})"
    );
}

#[test]
fn cloned_core_emits_no_trace_events() {
    use virec_core::VecTracer;
    let n = 64;
    let mut rig = Rig::new(CoreConfig::virec(4, 32), gather_prog(), gather_ctx(n, 4));
    init_gather(&mut rig.mem, n);
    let rec = VecTracer::new();
    rig.core.set_tracer(rec.tracer());

    // The clone runs to completion on copies of the fabric and memory.
    let mut copy = rig.core.clone();
    let (mut fabric, mut mem) = (rig.fabric.clone(), rig.mem.clone());
    let mut now = 0;
    while !copy.done() {
        fabric.tick(now);
        copy.tick(now, &mut fabric, &mut mem);
        now += 1;
        assert!(now < 50_000_000, "clone wedged");
    }
    assert!(copy.stats().instructions > 0);
    assert!(rec.events().is_empty(), "a clone must not emit events");

    rig.run_to_completion();
    let commits = rec
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, virec_core::TraceEvent::Commit { .. }))
        .count() as u64;
    assert_eq!(
        commits,
        rig.core.stats().instructions,
        "the original still traces"
    );
}

#[test]
fn activating_a_thread_wakes_a_quiescent_core() {
    let n = 64;
    let mut rig = Rig::new(CoreConfig::banked(2), gather_prog(), gather_ctx(n, 2));
    init_gather(&mut rig.mem, n);
    rig.core.deactivate_thread(1);
    // Quiescent: neither the core nor the fabric has a next event.
    let mut now = 0;
    while rig.step(now).or(rig.fabric.next_event(now)).is_some() {
        now += 1;
        assert!(now < 50_000_000, "core never went quiescent");
    }
    assert!(
        rig.core.done(),
        "quiescent at {now} but not done:\n{}",
        rig.core.debug_dump()
    );

    rig.core.activate_thread(1, 0);
    assert_eq!(rig.core.next_event(now, &rig.fabric), Some(now + 1));
    now += 1;
    while !rig.core.done() {
        rig.step(now);
        now += 1;
        assert!(now < 50_000_000, "activated thread never halted");
    }
    assert_eq!(rig.core.thread(1).status, ThreadStatus::Halted);
}

#[test]
fn way_retirement_spill_wakes_a_stalled_core() {
    // 16 physical registers for four 8-register threads: once the tag
    // store is full, relocating a retired way's occupant evicts (and
    // spills) another register. A 400-cycle hop gives long stalls.
    let n = 256;
    let mut rig = Rig::new(CoreConfig::virec(4, 16), gather_prog(), gather_ctx(n, 4));
    rig.fabric = Fabric::new(FabricConfig {
        xbar_latency: 400,
        ..FabricConfig::default()
    });
    init_gather(&mut rig.mem, n);
    let mut now = 0;
    loop {
        let next = rig.step(now);
        if next.is_some_and(|t| t > now + 1) {
            // A skippable cycle: retire a way on a copy of the machine.
            let mut core = rig.core.clone();
            let (mut fabric, mut mem) = (rig.fabric.clone(), rig.mem.clone());
            let spills = core.stats().rf_spills;
            let retired = core.retire_value_way(0, false, &mut fabric, &mut mem);
            if retired.is_some() && core.stats().rf_spills > spills {
                assert_eq!(core.next_event(now, &fabric), Some(now + 1));
                return;
            }
        }
        now += 1;
        assert!(!rig.core.done(), "no stalled cycle whose retirement spills");
    }
}

#[test]
fn stuck_fill_on_an_acquired_register_is_a_structural_hazard() {
    // A lost fill on a register that an instruction already acquired
    // reaches that instruction's operand read. The engine reports the
    // register as unreadable and the core latches a structural hazard
    // instead of panicking. Search the run for such a cycle and entry.
    let n = 64;
    let mut rig = Rig::new(CoreConfig::virec(4, 16), gather_prog(), gather_ctx(n, 4));
    init_gather(&mut rig.mem, n);
    for now in 0..5_000 {
        rig.step(now);
        for nth in 0..16 {
            let mut core = rig.core.clone();
            let (mut fabric, mut mem) = (rig.fabric.clone(), rig.mem.clone());
            core.inject_fault(EngineFault::StuckFill { nth });
            for t in now + 1..now + 4 {
                fabric.tick(t);
                core.tick(t, &mut fabric, &mut mem);
                if let Some(hazard) = core.structural_fault() {
                    assert!(hazard.contains("waits for its fill"), "{hazard}");
                    return;
                }
            }
        }
        assert!(!rig.core.done(), "no stuck fill reached an operand read");
    }
    panic!("no stuck fill reached an operand read in 5000 cycles");
}

#[test]
fn out_of_range_access_is_a_structural_hazard() {
    // A load or store whose address lies past the end of memory (as a
    // corrupted base register forms) latches a structural hazard in the
    // mem stage instead of panicking in the memory model.
    for store in [false, true] {
        let mut a = Asm::new("oob");
        if store {
            a.str(X0, X1, 8);
        } else {
            a.ldr(X0, X1, 8);
        }
        a.halt();
        let mut rig = Rig::new(CoreConfig::banked(1), a.assemble(), |_| {
            vec![(X1, 0x100_000 - 8)]
        });
        let hazard = (0..1_000).find_map(|now| {
            rig.step(now);
            rig.core.structural_fault().map(str::to_string)
        });
        let what = if store { "store" } else { "load" };
        assert_eq!(
            hazard.as_deref(),
            Some(&*format!(
                "{what} address 0x100000 (8 bytes) outside memory 0x0..0x100000"
            ))
        );
    }
}

#[test]
fn decode_waiting_only_on_fills_sleeps_until_one_lands() {
    // Forty physical registers for four threads: every register finds a
    // free entry, so decode waits only for fills, over a 400-cycle hop.
    let n = 64;
    let rig = || {
        let mut rig = Rig::new(CoreConfig::virec(4, 40), gather_prog(), gather_ctx(n, 4));
        rig.fabric = Fabric::new(FabricConfig {
            xbar_latency: 400,
            ..FabricConfig::default()
        });
        init_gather(&mut rig.mem, n);
        rig
    };

    // Such a wait records no wake: a cycle charged to a register fill is
    // followed by a sleep past the next cycle, not by a retry.
    let mut probe = rig();
    let mut now = 0;
    loop {
        let waits = probe.core.stats().stall_reg_fill;
        let next = probe.step(now);
        if probe.core.stats().stall_reg_fill > waits && next.is_none_or(|t| t > now + 1) {
            break;
        }
        now += 1;
        assert!(!probe.core.done(), "decode never slept on a fill");
    }

    // The landed fill wakes decode on the cycle the dense loop retries.
    let mut dense = rig();
    let dense_cycles = dense.run_to_completion();
    let mut skipping = rig();
    let skipping_cycles = skipping.run_skipping();
    assert_eq!(skipping_cycles, dense_cycles);
    assert_eq!(skipping.core.stats(), dense.core.stats());
    assert!(dense.core.stats().stall_reg_fill > 0);
}
