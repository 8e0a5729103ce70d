//! Translation validation of register allocation: proves that an
//! allocated + emitted `virec-cc` program computes the same thing as its
//! pre-allocation IR.
//!
//! The validator replays the emitter's witness — the per-instruction
//! [`EmitTag`] stream — against facts it recomputes *independently*:
//!
//! 1. **Coloring soundness** — CFG-exact liveness is recomputed over the
//!    virtual code ([`virec_cc::vcfg`]) and every definition is checked
//!    against its live-out set: two simultaneously live temps must never
//!    share a register, homes must come from the budget's pool, and slot
//!    numbers must stay inside the frame.
//! 2. **Matched def-use dataflow** — each virtual instruction's emitted
//!    group is checked operand by operand: every use reads its temp's
//!    home location (a pool register directly, or a scratch register
//!    freshly reloaded *in this group* from the temp's own frame slot)
//!    and every def writes its home (directly, or scratch + writeback to
//!    the owning slot). Opcodes, immediates, and branch targets must
//!    match the virtual instruction exactly.
//! 3. **Spill/reload pairing** — a forward reaching-stores dataflow over
//!    the *machine* CFG proves every `Slot(n)` reload is reached only by
//!    writebacks of the same temp, and by at least one on every path.
//! 4. **Scratch containment** — the spill scratch set (`x25..x27`) must
//!    be dead at every group boundary: reads are legal only after an
//!    in-group definition.
//! 5. **Frame integrity** — the frame pointer is never clobbered and the
//!    frame is touched only by tagged spill traffic within bounds.
//! 6. **Architectural-effect equivalence** — the IR interpreter and the
//!    machine interpreter run the same concrete inputs; return values
//!    and all memory outside the spill frame must agree byte for byte.

use std::collections::{HashMap, HashSet};
use virec_cc::ir::{interpret, BinOp, Function};
use virec_cc::lower::{VIndex, VInst, VOp};
use virec_cc::regalloc::{pool, Loc, FRAME_PTR, SCRATCH0, SCRATCH1, SCRATCH2};
use virec_cc::vcfg::VDataflow;
use virec_cc::{Compiled, EmitTag};
use virec_isa::{
    AccessSize, AluOp, ExecOutcome, FlatMem, Instr, Interpreter, MemOffset, Operand2, Reg,
    ThreadCtx,
};

/// Frame base used for concrete-equivalence runs.
const TV_FRAME_BASE: u64 = 0x8000;
/// Memory image size for concrete-equivalence runs.
const TV_MEM_SIZE: u64 = 0x10_000;
/// Step budget for concrete-equivalence runs.
const TV_MAX_STEPS: u64 = 10_000_000;

/// The category of a translation-validation finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TvKind {
    /// The emit map does not cover the program or is out of order.
    EmitMapMismatch,
    /// Two simultaneously live temps share a register, or a definition
    /// clobbers a live temp's home.
    ColoringConflict,
    /// A temp's home register is outside the budget's pool, or its slot
    /// is outside the frame.
    BadRegisterClass,
    /// A tagged reload/writeback is not the frame access it claims to be.
    MalformedSpill,
    /// A reload or writeback touches a different frame slot than the one
    /// its temp owns.
    SpillSlotMismatch,
    /// A store of a *different* temp reaches a reload of this slot.
    StaleReload,
    /// A path reaches a reload with no store to the slot at all.
    UninitReload,
    /// A scratch register is read without an in-group definition — its
    /// value would leak across a group boundary.
    ScratchEscape,
    /// The frame pointer is written, or the frame is touched by untagged
    /// code.
    FrameClobber,
    /// A machine instruction does not implement its virtual instruction.
    OpcodeMismatch,
    /// An operand register or immediate differs from the allocation.
    OperandMismatch,
    /// A branch condition or target does not match the label layout.
    BranchMismatch,
    /// Concrete run: the return value diverged from the IR interpreter.
    ResultDivergence,
    /// Concrete run: memory outside the spill frame diverged.
    MemoryDivergence,
}

impl TvKind {
    /// Stable machine-readable name (CI greps for these).
    pub fn name(self) -> &'static str {
        match self {
            TvKind::EmitMapMismatch => "emit-map-mismatch",
            TvKind::ColoringConflict => "coloring-conflict",
            TvKind::BadRegisterClass => "bad-register-class",
            TvKind::MalformedSpill => "malformed-spill",
            TvKind::SpillSlotMismatch => "spill-slot-mismatch",
            TvKind::StaleReload => "stale-reload",
            TvKind::UninitReload => "uninit-reload",
            TvKind::ScratchEscape => "scratch-escape",
            TvKind::FrameClobber => "frame-clobber",
            TvKind::OpcodeMismatch => "opcode-mismatch",
            TvKind::OperandMismatch => "operand-mismatch",
            TvKind::BranchMismatch => "branch-mismatch",
            TvKind::ResultDivergence => "result-divergence",
            TvKind::MemoryDivergence => "memory-divergence",
        }
    }
}

/// One translation-validation finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TvViolation {
    /// Category.
    pub kind: TvKind,
    /// Offending machine PC (`None` for program-level findings).
    pub pc: Option<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for TvViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "[tv:{}] pc {}: {}", self.kind.name(), pc, self.message),
            None => write!(f, "[tv:{}] {}", self.kind.name(), self.message),
        }
    }
}

/// Concrete inputs for the architectural-effect cross-check.
#[derive(Clone, Debug, Default)]
pub struct TvCase {
    /// Function arguments (ABI registers `x0..`).
    pub args: Vec<u64>,
    /// Initial memory image: `(address, 64-bit word)` writes.
    pub mem: Vec<(u64, u64)>,
}

/// Validation outcome for one compiled function.
#[derive(Clone, Debug)]
pub struct TvReport {
    /// Program name (`kernel@b<budget>` style, set by the caller).
    pub name: String,
    /// Findings, in pass order; empty means the translation validated.
    pub violations: Vec<TvViolation>,
    /// Concrete cases executed by pass 6.
    pub cases_run: usize,
}

impl TvReport {
    /// True when every pass succeeded.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
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

fn is_scratch(r: Reg) -> bool {
    r == SCRATCH0 || r == SCRATCH1 || r == SCRATCH2
}

fn vinst_of(tag: &EmitTag) -> usize {
    match *tag {
        EmitTag::Reload { vinst, .. } | EmitTag::Spill { vinst, .. } | EmitTag::Op { vinst } => {
            vinst
        }
    }
}

/// Machine-level successors (instruction granularity).
fn machine_succs(instrs: &[Instr], pc: usize) -> Vec<usize> {
    let n = instrs.len();
    match instrs[pc] {
        Instr::B { target } => vec![target as usize],
        Instr::Bcc { target, .. } | Instr::Cbz { target, .. } | Instr::Cbnz { target, .. } => {
            let mut v = vec![target as usize];
            if pc + 1 < n {
                v.push(pc + 1);
            }
            v
        }
        Instr::Halt => vec![],
        _ => {
            if pc + 1 < n {
                vec![pc + 1]
            } else {
                vec![]
            }
        }
    }
}

/// Validates `c` (compiled from `f`) against the pre-allocation IR,
/// running the symbolic passes plus one concrete cross-check per case.
pub fn validate(name: &str, f: &Function, c: &Compiled, cases: &[TvCase]) -> TvReport {
    let mut v: Vec<TvViolation> = Vec::new();
    check_emit_map(c, &mut v);
    check_coloring(c, &mut v);
    if v.iter().all(|x| x.kind != TvKind::EmitMapMismatch) {
        check_groups(c, &mut v);
        check_reaching_stores(c, &mut v);
    }
    check_frame_integrity(c, &mut v);
    let mut cases_run = 0usize;
    // Symbolically broken programs can loop or fault; only run the
    // concrete cross-check once the structural passes are clean.
    if v.is_empty() {
        for case in cases {
            check_concrete(f, c, case, &mut v);
            cases_run += 1;
        }
    }
    TvReport {
        name: name.to_string(),
        violations: v,
        cases_run,
    }
}

/// Pass 0: the witness itself must be coherent before it can be replayed.
fn check_emit_map(c: &Compiled, v: &mut Vec<TvViolation>) {
    if c.emit_map.len() != c.program.len() {
        v.push(TvViolation {
            kind: TvKind::EmitMapMismatch,
            pc: None,
            message: format!(
                "emit map covers {} instructions but the program has {}",
                c.emit_map.len(),
                c.program.len()
            ),
        });
        return;
    }
    let mut last = 0usize;
    for (pc, tag) in c.emit_map.iter().enumerate() {
        let vi = vinst_of(tag);
        if vi < last || vi >= c.vcode.len() {
            v.push(TvViolation {
                kind: TvKind::EmitMapMismatch,
                pc: Some(pc),
                message: format!(
                    "tag order broken: vinst {vi} after {last} (vcode len {})",
                    c.vcode.len()
                ),
            });
            return;
        }
        last = vi;
    }
}

/// Pass 1: recompute CFG-exact liveness and check the coloring against it.
fn check_coloring(c: &Compiled, v: &mut Vec<TvViolation>) {
    let df = VDataflow::compute(&c.vcode);
    let Ok(regs) = pool(c.budget) else {
        v.push(TvViolation {
            kind: TvKind::BadRegisterClass,
            pc: None,
            message: format!("budget {} has no register pool", c.budget),
        });
        return;
    };
    let pool_set: HashSet<Reg> = regs.into_iter().collect();

    // Every temp that appears must have a legal home.
    let mut seen: HashSet<u32> = HashSet::new();
    for inst in &c.vcode {
        seen.extend(inst.uses());
        seen.extend(inst.def());
    }
    for &t in &seen {
        match c.alloc.locs.get(&t) {
            Some(Loc::Reg(r)) if !pool_set.contains(r) => v.push(TvViolation {
                kind: TvKind::BadRegisterClass,
                pc: None,
                message: format!(
                    "t{t} allocated to {r}, outside the budget-{} pool",
                    c.budget
                ),
            }),
            Some(Loc::Slot(s)) if *s >= c.frame_slots => v.push(TvViolation {
                kind: TvKind::BadRegisterClass,
                pc: None,
                message: format!("t{t} in slot {s}, outside the {}-slot frame", c.frame_slots),
            }),
            None => v.push(TvViolation {
                kind: TvKind::BadRegisterClass,
                pc: None,
                message: format!("t{t} has no location"),
            }),
            _ => {}
        }
    }

    // Definitions must not clobber live temps sharing the register.
    for (pc, inst) in c.vcode.iter().enumerate() {
        let Some(d) = inst.def() else { continue };
        let Some(&Loc::Reg(rd)) = c.alloc.locs.get(&d) else {
            continue;
        };
        for t in df.live_out[pc].iter() {
            if t == d {
                continue;
            }
            if let Some(&Loc::Reg(rt)) = c.alloc.locs.get(&t) {
                if rt == rd {
                    v.push(TvViolation {
                        kind: TvKind::ColoringConflict,
                        pc: None,
                        message: format!(
                            "def of t{d} at vinst {pc} clobbers t{t}, live-out in the same {rd}"
                        ),
                    });
                }
            }
        }
    }
}

/// Pass 2 + 4: per-group structural replay — uses read homes, defs write
/// homes, scratch stays inside the group, opcodes match the IR.
fn check_groups(c: &Compiled, v: &mut Vec<TvViolation>) {
    let instrs = c.program.instrs();

    // Machine start PC of each virtual instruction (for branch targets):
    // the first machine instruction whose tag index is >= vi.
    let mut starts = vec![instrs.len(); c.vcode.len() + 1];
    for pc in (0..instrs.len()).rev() {
        let vi = vinst_of(&c.emit_map[pc]);
        for s in starts.iter_mut().take(vi + 1) {
            if *s > pc {
                *s = pc;
            }
        }
    }
    let label_start = |target: u32| -> Option<usize> {
        c.vcode
            .iter()
            .position(|i| matches!(i, VInst::Label(l) if *l == target))
            .map(|li| starts[li])
    };

    // Group the machine instructions by their virtual-instruction index.
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for pc in 0..instrs.len() {
        groups
            .entry(vinst_of(&c.emit_map[pc]))
            .or_default()
            .push(pc);
    }

    for (vi, vinst) in c.vcode.iter().enumerate() {
        let pcs = groups.get(&vi).cloned().unwrap_or_default();
        let group_pc = pcs.first().copied();

        // Collect and shape-check the group's reloads and writebacks;
        // build the in-group scratch map (temp -> scratch register).
        let mut scratch: HashMap<u32, Reg> = HashMap::new();
        let mut spill_tag: Option<(usize, u32, u32)> = None; // (pc, temp, slot)
        let mut ops: Vec<usize> = Vec::new();
        for &pc in &pcs {
            match c.emit_map[pc] {
                EmitTag::Reload { temp, .. } => {
                    let Instr::Ldr {
                        dst,
                        base,
                        offset: MemOffset::Imm(off),
                        size: AccessSize::B8,
                    } = instrs[pc]
                    else {
                        v.push(TvViolation {
                            kind: TvKind::MalformedSpill,
                            pc: Some(pc),
                            message: format!(
                                "tagged reload of t{temp} is not a 64-bit frame load: {}",
                                instrs[pc]
                            ),
                        });
                        continue;
                    };
                    if base != FRAME_PTR || !is_scratch(dst) || off < 0 || off % 8 != 0 {
                        v.push(TvViolation {
                            kind: TvKind::MalformedSpill,
                            pc: Some(pc),
                            message: format!(
                                "reload of t{temp} must load a scratch register from the frame \
                                 pointer: {}",
                                instrs[pc]
                            ),
                        });
                        continue;
                    }
                    let read_slot = (off / 8) as u32;
                    match c.alloc.locs.get(&temp) {
                        Some(&Loc::Slot(home)) if home == read_slot => {
                            scratch.insert(temp, dst);
                        }
                        Some(&Loc::Slot(home)) => v.push(TvViolation {
                            kind: TvKind::SpillSlotMismatch,
                            pc: Some(pc),
                            message: format!(
                                "reload of t{temp} reads frame slot {read_slot} but t{temp} \
                                 lives in frame slot {home}"
                            ),
                        }),
                        _ => v.push(TvViolation {
                            kind: TvKind::SpillSlotMismatch,
                            pc: Some(pc),
                            message: format!("reload of t{temp}, which is not slot-resident"),
                        }),
                    }
                }
                EmitTag::Spill { temp, slot, .. } => {
                    if spill_tag.is_some() {
                        v.push(TvViolation {
                            kind: TvKind::MalformedSpill,
                            pc: Some(pc),
                            message: "more than one writeback in a group".into(),
                        });
                    }
                    spill_tag = Some((pc, temp, slot));
                }
                EmitTag::Op { .. } => ops.push(pc),
            }
        }

        // Resolve the register carrying a used temp.
        let use_reg = |t: u32, v: &mut Vec<TvViolation>| -> Option<Reg> {
            match c.alloc.locs.get(&t) {
                Some(&Loc::Reg(r)) => Some(r),
                Some(&Loc::Slot(_)) => {
                    let r = scratch.get(&t).copied();
                    if r.is_none() {
                        v.push(TvViolation {
                            kind: TvKind::OperandMismatch,
                            pc: group_pc,
                            message: format!(
                                "vinst {vi} uses spilled t{t} with no in-group reload"
                            ),
                        });
                    }
                    r
                }
                None => None,
            }
        };

        // Resolve the register a defined temp must be computed into, and
        // shape-check the writeback when it lives in the frame.
        let def_reg = |d: u32, v: &mut Vec<TvViolation>| -> Option<Reg> {
            match c.alloc.locs.get(&d) {
                Some(&Loc::Reg(r)) => {
                    if let Some((pc, t, _)) = spill_tag {
                        v.push(TvViolation {
                            kind: TvKind::MalformedSpill,
                            pc: Some(pc),
                            message: format!(
                                "writeback of t{t} in a group whose def t{d} is register-resident"
                            ),
                        });
                    }
                    Some(r)
                }
                Some(&Loc::Slot(home)) => {
                    let Some((pc, t, _)) = spill_tag else {
                        v.push(TvViolation {
                            kind: TvKind::MalformedSpill,
                            pc: group_pc,
                            message: format!(
                                "def of slot-resident t{d} at vinst {vi} has no writeback"
                            ),
                        });
                        return None;
                    };
                    if t != d {
                        v.push(TvViolation {
                            kind: TvKind::SpillSlotMismatch,
                            pc: Some(pc),
                            message: format!("writeback of t{t} in the group defining t{d}"),
                        });
                        return None;
                    }
                    let Instr::Str {
                        src,
                        base,
                        offset: MemOffset::Imm(off),
                        size: AccessSize::B8,
                    } = instrs[pc]
                    else {
                        v.push(TvViolation {
                            kind: TvKind::MalformedSpill,
                            pc: Some(pc),
                            message: format!(
                                "tagged writeback of t{t} is not a 64-bit frame store: {}",
                                instrs[pc]
                            ),
                        });
                        return None;
                    };
                    if base != FRAME_PTR || !is_scratch(src) || off < 0 || off % 8 != 0 {
                        v.push(TvViolation {
                            kind: TvKind::MalformedSpill,
                            pc: Some(pc),
                            message: format!(
                                "writeback of t{t} must store a scratch register through the \
                                 frame pointer: {}",
                                instrs[pc]
                            ),
                        });
                        return None;
                    }
                    let written = (off / 8) as u32;
                    if written != home {
                        v.push(TvViolation {
                            kind: TvKind::SpillSlotMismatch,
                            pc: Some(pc),
                            message: format!(
                                "writeback of t{t} writes frame slot {written} but t{t} lives \
                                 in frame slot {home}"
                            ),
                        });
                    }
                    Some(src)
                }
                None => None,
            }
        };

        // Expected machine code for this virtual instruction.
        let mismatch = |pc: Option<usize>, kind: TvKind, msg: String, v: &mut Vec<TvViolation>| {
            v.push(TvViolation {
                kind,
                pc,
                message: msg,
            })
        };
        let mut expected: Vec<Instr> = Vec::new();
        let mut expect_ok = true;
        match *vinst {
            VInst::Param { dst, index } => {
                let abi = Reg::new(index as u8);
                match def_reg(dst, v) {
                    Some(r) if r != abi => expected.push(Instr::Alu {
                        op: AluOp::Orr,
                        dst: r,
                        src: abi,
                        rhs: Operand2::Imm(0),
                    }),
                    Some(_) => {}
                    None => expect_ok = false,
                }
            }
            VInst::MovImm { dst, imm } => match def_reg(dst, v) {
                Some(r) => expected.push(Instr::MovImm { dst: r, imm }),
                None => expect_ok = false,
            },
            VInst::Mov { dst, src } => {
                let s = use_reg(src, v);
                match (def_reg(dst, v), s) {
                    (Some(r), Some(s)) if r != s => expected.push(Instr::Alu {
                        op: AluOp::Orr,
                        dst: r,
                        src: s,
                        rhs: Operand2::Imm(0),
                    }),
                    (Some(_), Some(_)) => {}
                    _ => expect_ok = false,
                }
            }
            VInst::Bin { op, dst, a, b } => {
                let ar = use_reg(a, v);
                let rhs = match b {
                    VOp::Temp(t) => use_reg(t, v).map(Operand2::Reg),
                    VOp::Imm(i) => Some(Operand2::Imm(i)),
                };
                match (def_reg(dst, v), ar, rhs) {
                    (Some(r), Some(ar), Some(rhs)) => expected.push(Instr::Alu {
                        op: alu_of(op),
                        dst: r,
                        src: ar,
                        rhs,
                    }),
                    _ => expect_ok = false,
                }
            }
            VInst::Load { dst, base, index } => {
                let br = use_reg(base, v);
                let off = match index {
                    VIndex::Temp(t) => {
                        use_reg(t, v).map(|i| MemOffset::RegShifted { index: i, shift: 3 })
                    }
                    VIndex::ByteOff(o) => Some(MemOffset::Imm(o)),
                };
                match (def_reg(dst, v), br, off) {
                    (Some(r), Some(br), Some(off)) => expected.push(Instr::Ldr {
                        dst: r,
                        base: br,
                        offset: off,
                        size: AccessSize::B8,
                    }),
                    _ => expect_ok = false,
                }
            }
            VInst::Store { src, base, index } => {
                let sr = use_reg(src, v);
                let br = use_reg(base, v);
                let off = match index {
                    VIndex::Temp(t) => {
                        use_reg(t, v).map(|i| MemOffset::RegShifted { index: i, shift: 3 })
                    }
                    VIndex::ByteOff(o) => Some(MemOffset::Imm(o)),
                };
                match (sr, br, off) {
                    (Some(sr), Some(br), Some(off)) => expected.push(Instr::Str {
                        src: sr,
                        base: br,
                        offset: off,
                        size: AccessSize::B8,
                    }),
                    _ => expect_ok = false,
                }
            }
            VInst::Cmp { a, b } => {
                let ar = use_reg(a, v);
                let rhs = match b {
                    VOp::Temp(t) => use_reg(t, v).map(Operand2::Reg),
                    VOp::Imm(i) => Some(Operand2::Imm(i)),
                };
                match (ar, rhs) {
                    (Some(ar), Some(rhs)) => expected.push(Instr::Cmp { src: ar, rhs }),
                    _ => expect_ok = false,
                }
            }
            VInst::Bcc { cond, target } => match label_start(target) {
                Some(t) => expected.push(Instr::Bcc {
                    cond,
                    target: t as u32,
                }),
                None => {
                    mismatch(
                        group_pc,
                        TvKind::BranchMismatch,
                        format!("vinst {vi} branches to unknown label L{target}"),
                        v,
                    );
                    expect_ok = false;
                }
            },
            VInst::B { target } => match label_start(target) {
                Some(t) => expected.push(Instr::B { target: t as u32 }),
                None => {
                    mismatch(
                        group_pc,
                        TvKind::BranchMismatch,
                        format!("vinst {vi} branches to unknown label L{target}"),
                        v,
                    );
                    expect_ok = false;
                }
            },
            VInst::Label(_) => {}
            VInst::Ret { src } => match use_reg(src, v) {
                Some(s) => {
                    if s != Reg::new(0) {
                        expected.push(Instr::Alu {
                            op: AluOp::Orr,
                            dst: Reg::new(0),
                            src: s,
                            rhs: Operand2::Imm(0),
                        });
                    }
                    expected.push(Instr::Halt);
                }
                None => expect_ok = false,
            },
        }

        if expect_ok {
            if ops.len() != expected.len() {
                mismatch(
                    group_pc,
                    TvKind::OpcodeMismatch,
                    format!(
                        "vinst {vi} ({vinst:?}) emitted {} op instruction(s), expected {}",
                        ops.len(),
                        expected.len()
                    ),
                    v,
                );
            } else {
                for (&pc, want) in ops.iter().zip(&expected) {
                    let got = instrs[pc];
                    if got != *want {
                        let kind = if std::mem::discriminant(&got) != std::mem::discriminant(want) {
                            TvKind::OpcodeMismatch
                        } else if matches!(got, Instr::B { .. } | Instr::Bcc { .. }) {
                            TvKind::BranchMismatch
                        } else {
                            TvKind::OperandMismatch
                        };
                        mismatch(
                            Some(pc),
                            kind,
                            format!("vinst {vi} ({vinst:?}): emitted `{got}`, expected `{want}`"),
                            v,
                        );
                    }
                }
            }
        }

        // Scratch containment: reads legal only after an in-group def.
        let mut defined: HashSet<Reg> = HashSet::new();
        for &pc in &pcs {
            for r in instrs[pc].srcs().iter() {
                if is_scratch(r) && !defined.contains(&r) {
                    v.push(TvViolation {
                        kind: TvKind::ScratchEscape,
                        pc: Some(pc),
                        message: format!(
                            "{r} read in vinst {vi}'s group without an in-group definition"
                        ),
                    });
                }
            }
            for r in instrs[pc].dsts().iter() {
                if is_scratch(r) {
                    defined.insert(r);
                }
            }
        }
    }
}

/// Pass 3: forward reaching-stores dataflow over the machine CFG — every
/// reload of `Slot(s)` must be reached only by writebacks of its own temp,
/// and by at least one on every path.
fn check_reaching_stores(c: &Compiled, v: &mut Vec<TvViolation>) {
    let instrs = c.program.instrs();
    let n = instrs.len();
    let nslots = c.frame_slots as usize;
    if nslots == 0 || n == 0 {
        return;
    }
    // state[pc][slot] = set of writers that may reach pc (None = uninit).
    type SlotState = Vec<HashSet<Option<u32>>>;
    let entry: SlotState = (0..nslots).map(|_| HashSet::from([None])).collect();
    let empty: SlotState = vec![HashSet::new(); nslots];
    let mut state_in: Vec<SlotState> = vec![empty; n];
    state_in[0] = entry;

    let transfer = |pc: usize, mut s: SlotState| -> SlotState {
        if let EmitTag::Spill { temp, slot, .. } = c.emit_map[pc] {
            if (slot as usize) < nslots {
                s[slot as usize] = HashSet::from([Some(temp)]);
            }
        }
        s
    };

    let mut changed = true;
    while changed {
        changed = false;
        for pc in 0..n {
            let out = transfer(pc, state_in[pc].clone());
            for succ in machine_succs(instrs, pc) {
                for (slot, writers) in out.iter().enumerate() {
                    for w in writers {
                        if state_in[succ][slot].insert(*w) {
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    for (pc, slots) in state_in.iter().enumerate() {
        let EmitTag::Reload { temp, slot, .. } = c.emit_map[pc] else {
            continue;
        };
        if (slot as usize) >= nslots {
            continue; // already reported by the group pass
        }
        for w in &slots[slot as usize] {
            match w {
                None => v.push(TvViolation {
                    kind: TvKind::UninitReload,
                    pc: Some(pc),
                    message: format!(
                        "a path reaches this reload of t{temp} with frame slot {slot} unwritten"
                    ),
                }),
                Some(other) if *other != temp => v.push(TvViolation {
                    kind: TvKind::StaleReload,
                    pc: Some(pc),
                    message: format!(
                        "a writeback of t{other} reaches this reload of t{temp} in slot {slot}"
                    ),
                }),
                _ => {}
            }
        }
    }
}

/// Pass 5: the frame pointer is sacred and the frame is private to tagged
/// spill traffic.
fn check_frame_integrity(c: &Compiled, v: &mut Vec<TvViolation>) {
    let instrs = c.program.instrs();
    for (pc, inst) in instrs.iter().enumerate() {
        if inst.dsts().iter().any(|r| r == FRAME_PTR) {
            v.push(TvViolation {
                kind: TvKind::FrameClobber,
                pc: Some(pc),
                message: format!("the frame pointer {FRAME_PTR} is written: {inst}"),
            });
        }
        let tagged = c
            .emit_map
            .get(pc)
            .is_some_and(|t| !matches!(t, EmitTag::Op { .. }));
        match *inst {
            Instr::Ldr { base, offset, .. } | Instr::Str { base, offset, .. }
                if base == FRAME_PTR =>
            {
                if !tagged {
                    v.push(TvViolation {
                        kind: TvKind::FrameClobber,
                        pc: Some(pc),
                        message: format!("untagged frame access: {inst}"),
                    });
                }
                match offset {
                    MemOffset::Imm(o) if o >= 0 && o % 8 == 0 && (o / 8) < c.frame_slots as i64 => {
                    }
                    _ => v.push(TvViolation {
                        kind: TvKind::FrameClobber,
                        pc: Some(pc),
                        message: format!(
                            "frame access outside the {}-slot frame: {inst}",
                            c.frame_slots
                        ),
                    }),
                }
            }
            _ => {}
        }
    }
}

/// Pass 6: concrete architectural-effect equivalence — IR interpreter vs
/// machine interpreter on one input, comparing the return value and all
/// memory outside the spill frame.
fn check_concrete(f: &Function, c: &Compiled, case: &TvCase, v: &mut Vec<TvViolation>) {
    let mut ir_mem = FlatMem::new(0, TV_MEM_SIZE as usize);
    let mut m_mem = FlatMem::new(0, TV_MEM_SIZE as usize);
    for &(addr, val) in &case.mem {
        ir_mem.write_u64(addr, val);
        m_mem.write_u64(addr, val);
    }
    let want = interpret(f, &case.args, &mut ir_mem, TV_MAX_STEPS).value;

    let mut ctx = ThreadCtx::new();
    for (i, &a) in case.args.iter().enumerate() {
        ctx.set(Reg::new(i as u8), a);
    }
    ctx.set(c.frame_reg, TV_FRAME_BASE);
    let out = Interpreter::new(&c.program, &mut m_mem).run(&mut ctx, TV_MAX_STEPS);
    if !matches!(out, ExecOutcome::Halted { .. }) {
        v.push(TvViolation {
            kind: TvKind::ResultDivergence,
            pc: None,
            message: format!("machine run did not halt within {TV_MAX_STEPS} steps"),
        });
        return;
    }
    let got = ctx.get(Reg::new(0));
    if got != want {
        v.push(TvViolation {
            kind: TvKind::ResultDivergence,
            pc: None,
            message: format!("returned {got:#x}, IR interpreter returned {want:#x}"),
        });
    }
    let frame_lo = TV_FRAME_BASE as usize;
    let frame_hi = frame_lo + 8 * c.frame_slots as usize;
    let first = ir_mem
        .first_difference(&m_mem, 0, frame_lo)
        .or_else(|| ir_mem.first_difference(&m_mem, frame_hi, ir_mem.size()));
    if let Some(first) = first {
        v.push(TvViolation {
            kind: TvKind::MemoryDivergence,
            pc: None,
            message: format!("memory diverges outside the frame, first at {first:#x}"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virec_cc::ir::{Cmp, Operand, Stmt};
    use virec_cc::{compile_with, AllocStrategy};

    fn gather() -> (Function, Vec<TvCase>) {
        let f = Function {
            name: "g".into(),
            params: vec![0, 1, 2],
            body: vec![
                Stmt::def_const(3, 0),
                Stmt::def_const(4, 0),
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
        };
        let n = 16u64;
        let mut mem = Vec::new();
        for i in 0..n {
            mem.push((0x1000 + i * 8, i * 11));
            mem.push((0x2000 + i * 8, (i * 13) % n));
        }
        (
            f,
            vec![TvCase {
                args: vec![0x1000, 0x2000, n],
                mem,
            }],
        )
    }

    #[test]
    fn clean_compiles_validate_at_every_budget() {
        let (f, cases) = gather();
        for strategy in [AllocStrategy::GraphColor, AllocStrategy::LinearScan] {
            for budget in [1usize, 2, 3, 4, 6, 8, 10, 14, 17] {
                let c = compile_with(&f, budget, strategy).unwrap();
                let r = validate("g", &f, &c, &cases);
                assert!(
                    r.is_valid(),
                    "budget {budget}/{}:\n{}",
                    strategy.name(),
                    r.violations
                        .iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join("\n")
                );
                assert_eq!(r.cases_run, 1);
            }
        }
    }

    #[test]
    fn corrupted_reload_slot_is_rejected() {
        let (f, cases) = gather();
        let mut c = compile_with(&f, 2, AllocStrategy::GraphColor).unwrap();
        let pc = c
            .emit_map
            .iter()
            .position(|t| matches!(t, EmitTag::Reload { .. }))
            .expect("budget 2 spills");
        let Instr::Ldr {
            dst,
            base,
            offset: MemOffset::Imm(off),
            size,
        } = c.program.fetch(pc as u32)
        else {
            panic!("reload is a frame load");
        };
        c.program = c.program.patched(
            pc,
            Instr::Ldr {
                dst,
                base,
                offset: MemOffset::Imm(off + 8),
                size,
            },
        );
        let r = validate("g-broken", &f, &c, &cases);
        assert!(!r.is_valid());
        assert!(
            r.violations
                .iter()
                .any(|x| x.kind == TvKind::SpillSlotMismatch),
            "expected spill-slot-mismatch, got:\n{}",
            r.violations
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // Structural failure means the concrete pass never runs.
        assert_eq!(r.cases_run, 0);
    }

    #[test]
    fn clobbered_frame_pointer_is_rejected() {
        let (f, cases) = gather();
        let c0 = compile_with(&f, 4, AllocStrategy::GraphColor).unwrap();
        let mut c = c0;
        c.program = c.program.patched(
            0,
            Instr::MovImm {
                dst: FRAME_PTR,
                imm: 0,
            },
        );
        let r = validate("g-fp", &f, &c, &cases);
        assert!(r
            .violations
            .iter()
            .any(|x| x.kind == TvKind::FrameClobber || x.kind == TvKind::OpcodeMismatch));
    }

    #[test]
    fn wrong_alu_op_is_rejected() {
        let (f, cases) = gather();
        let mut c = compile_with(&f, 17, AllocStrategy::GraphColor).unwrap();
        let pc = c
            .program
            .instrs()
            .iter()
            .position(|i| matches!(i, Instr::Alu { op: AluOp::Add, .. }))
            .expect("gather adds");
        let Instr::Alu { dst, src, rhs, .. } = c.program.fetch(pc as u32) else {
            unreachable!()
        };
        c.program = c.program.patched(
            pc,
            Instr::Alu {
                op: AluOp::Sub,
                dst,
                src,
                rhs,
            },
        );
        let r = validate("g-alu", &f, &c, &cases);
        assert!(r
            .violations
            .iter()
            .any(|x| x.kind == TvKind::OperandMismatch || x.kind == TvKind::OpcodeMismatch));
    }
}
