//! Instruction definitions.
//!
//! The instruction set is a reduced, AArch64-flavoured integer subset chosen
//! to express the paper's memory-intensive kernels (streaming indirect
//! gathers/scatters, strided sweeps, pointer chasing, mixed compute phases).
//! Every instruction knows its source/destination registers so the VRMU in
//! `virec-core` can look them up in the tag store during decode.

use crate::cond::Cond;
use crate::reg::Reg;
use std::fmt;

/// Second operand of ALU/compare instructions: a register or an immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand2 {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i64),
}

/// ALU operations (three-operand register form).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Orr,
    /// Bitwise exclusive or.
    Eor,
    /// Logical shift left (shift amount taken mod 64).
    Lsl,
    /// Logical shift right (shift amount taken mod 64).
    Lsr,
    /// Arithmetic shift right (shift amount taken mod 64).
    Asr,
    /// Multiplication (wrapping, low 64 bits).
    Mul,
    /// Unsigned division (division by zero yields zero, as on AArch64).
    Udiv,
}

impl AluOp {
    /// Applies the operation to two 64-bit values.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Orr => a | b,
            AluOp::Eor => a ^ b,
            AluOp::Lsl => a.wrapping_shl(b as u32 & 63),
            AluOp::Lsr => a.wrapping_shr(b as u32 & 63),
            AluOp::Asr => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Udiv => a.checked_div(b).unwrap_or(0),
        }
    }

    /// Execute-stage latency in cycles for a simple single-issue core.
    ///
    /// Matches the in-order CVA6-like configuration of Table 1: single-cycle
    /// simple ALU, multi-cycle multiply/divide.
    pub fn latency(self) -> u32 {
        match self {
            AluOp::Mul => 3,
            AluOp::Udiv => 12,
            _ => 1,
        }
    }
}

/// Access width for memory instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessSize {
    /// One byte (`ldrb`/`strb`).
    B1,
    /// Four bytes (`ldr w`/`str w`), zero-extended on load.
    B4,
    /// Eight bytes (`ldr x`/`str x`).
    B8,
}

impl AccessSize {
    /// Width in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            AccessSize::B1 => 1,
            AccessSize::B4 => 4,
            AccessSize::B8 => 8,
        }
    }
}

/// Addressing-mode offset for loads and stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOffset {
    /// Immediate byte offset: `[base, #imm]`.
    Imm(i64),
    /// Scaled register offset: `[base, index, lsl #shift]`.
    RegShifted {
        /// Index register.
        index: Reg,
        /// Left-shift applied to the index (0..=4).
        shift: u8,
    },
}

/// A fixed-capacity list of registers, used to report the sources and
/// destinations of an instruction without heap allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegList {
    regs: [Reg; RegList::CAPACITY],
    len: u8,
}

impl Default for RegList {
    fn default() -> Self {
        RegList::new()
    }
}

impl RegList {
    /// Most registers one list holds (an instruction's sources and
    /// destinations together).
    pub const CAPACITY: usize = 4;

    /// The empty list.
    pub const fn new() -> RegList {
        RegList {
            regs: [Reg::XZR; RegList::CAPACITY],
            len: 0,
        }
    }

    /// Appends a register unless it is `xzr` or already present.
    ///
    /// The zero register has no cacheable state, so the VRMU never tracks it.
    pub fn push(&mut self, r: Reg) {
        if r.is_zero() || self.iter().any(|x| x == r) {
            return;
        }
        assert!((self.len as usize) < self.regs.len(), "RegList overflow");
        self.regs[self.len as usize] = r;
        self.len += 1;
    }

    /// Number of registers in the list.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the registers.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs[..self.len as usize].iter().copied()
    }

    /// Whether the list contains `r`.
    pub fn contains(&self, r: Reg) -> bool {
        self.iter().any(|x| x == r)
    }
}

impl FromIterator<Reg> for RegList {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> Self {
        let mut l = RegList::new();
        for r in iter {
            l.push(r);
        }
        l
    }
}

/// A single instruction. Branch targets are absolute instruction indices,
/// resolved by the assembler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Three-operand ALU operation: `dst = op(src, rhs)`.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source register.
        src: Reg,
        /// Second operand.
        rhs: Operand2,
    },
    /// Multiply-add: `dst = a * b + acc`.
    Madd {
        /// Destination register.
        dst: Reg,
        /// First multiplicand.
        a: Reg,
        /// Second multiplicand.
        b: Reg,
        /// Addend.
        acc: Reg,
    },
    /// Load a 64-bit immediate: `dst = imm` (models `mov`/`movz`+`movk`).
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Compare and set flags: `flags = src - rhs`.
    Cmp {
        /// First operand.
        src: Reg,
        /// Second operand.
        rhs: Operand2,
    },
    /// Conditional select: `dst = cond ? a : b`.
    Csel {
        /// Destination register.
        dst: Reg,
        /// Value when the condition holds.
        a: Reg,
        /// Value when it does not.
        b: Reg,
        /// The condition.
        cond: Cond,
    },
    /// Load: `dst = mem[base + offset]`, zero-extended to 64 bits.
    Ldr {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Addressing-mode offset.
        offset: MemOffset,
        /// Access width.
        size: AccessSize,
    },
    /// Store: `mem[base + offset] = src` (low `size` bytes).
    Str {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Addressing-mode offset.
        offset: MemOffset,
        /// Access width.
        size: AccessSize,
    },
    /// Unconditional branch to an absolute instruction index.
    B {
        /// Target instruction index.
        target: u32,
    },
    /// Conditional branch on the flags.
    Bcc {
        /// Branch condition.
        cond: Cond,
        /// Target instruction index.
        target: u32,
    },
    /// Compare-and-branch-if-zero.
    Cbz {
        /// Register compared against zero.
        src: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Compare-and-branch-if-nonzero.
    Cbnz {
        /// Register compared against zero.
        src: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// No operation.
    Nop,
    /// Terminates the thread.
    Halt,
}

impl Instr {
    /// Source registers read by this instruction (excluding `xzr`).
    pub fn srcs(&self) -> RegList {
        let mut l = RegList::new();
        match *self {
            Instr::Alu { src, rhs, .. } => {
                l.push(src);
                if let Operand2::Reg(r) = rhs {
                    l.push(r);
                }
            }
            Instr::Madd { a, b, acc, .. } => {
                l.push(a);
                l.push(b);
                l.push(acc);
            }
            Instr::MovImm { .. } => {}
            Instr::Cmp { src, rhs } => {
                l.push(src);
                if let Operand2::Reg(r) = rhs {
                    l.push(r);
                }
            }
            Instr::Csel { a, b, .. } => {
                l.push(a);
                l.push(b);
            }
            Instr::Ldr { base, offset, .. } => {
                l.push(base);
                if let MemOffset::RegShifted { index, .. } = offset {
                    l.push(index);
                }
            }
            Instr::Str {
                src, base, offset, ..
            } => {
                l.push(src);
                l.push(base);
                if let MemOffset::RegShifted { index, .. } = offset {
                    l.push(index);
                }
            }
            Instr::Cbz { src, .. } | Instr::Cbnz { src, .. } => l.push(src),
            Instr::B { .. } | Instr::Bcc { .. } | Instr::Nop | Instr::Halt => {}
        }
        l
    }

    /// Destination registers written by this instruction (excluding `xzr`).
    pub fn dsts(&self) -> RegList {
        let mut l = RegList::new();
        match *self {
            Instr::Alu { dst, .. }
            | Instr::Madd { dst, .. }
            | Instr::MovImm { dst, .. }
            | Instr::Csel { dst, .. }
            | Instr::Ldr { dst, .. } => l.push(dst),
            _ => {}
        }
        l
    }

    /// All registers touched (sources first, then destinations).
    pub fn regs(&self) -> RegList {
        let mut l = self.srcs();
        for r in self.dsts().iter() {
            l.push(r);
        }
        l
    }

    /// Whether this is a memory (load or store) instruction.
    pub fn is_mem(&self) -> bool {
        matches!(self, Instr::Ldr { .. } | Instr::Str { .. })
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Ldr { .. })
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Str { .. })
    }

    /// Whether this is any kind of control-flow instruction.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Instr::B { .. } | Instr::Bcc { .. } | Instr::Cbz { .. } | Instr::Cbnz { .. }
        )
    }

    /// Branch target, if this is a control-flow instruction.
    pub fn branch_target(&self) -> Option<u32> {
        match *self {
            Instr::B { target }
            | Instr::Bcc { target, .. }
            | Instr::Cbz { target, .. }
            | Instr::Cbnz { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Whether the instruction reads the flags register.
    pub fn reads_flags(&self) -> bool {
        matches!(self, Instr::Bcc { .. } | Instr::Csel { .. })
    }

    /// Whether the instruction writes the flags register.
    pub fn writes_flags(&self) -> bool {
        matches!(self, Instr::Cmp { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn op2(o: &Operand2) -> String {
            match o {
                Operand2::Reg(r) => format!("{r}"),
                Operand2::Imm(i) => format!("#{i}"),
            }
        }
        fn addr(base: &Reg, off: &MemOffset) -> String {
            match off {
                MemOffset::Imm(0) => format!("[{base}]"),
                MemOffset::Imm(i) => format!("[{base}, #{i}]"),
                MemOffset::RegShifted { index, shift: 0 } => format!("[{base}, {index}]"),
                MemOffset::RegShifted { index, shift } => {
                    format!("[{base}, {index}, lsl #{shift}]")
                }
            }
        }
        match self {
            Instr::Alu { op, dst, src, rhs } => {
                let name = format!("{op:?}").to_lowercase();
                write!(f, "{name} {dst}, {src}, {}", op2(rhs))
            }
            Instr::Madd { dst, a, b, acc } => write!(f, "madd {dst}, {a}, {b}, {acc}"),
            Instr::MovImm { dst, imm } => write!(f, "mov {dst}, #{imm}"),
            Instr::Cmp { src, rhs } => write!(f, "cmp {src}, {}", op2(rhs)),
            Instr::Csel { dst, a, b, cond } => {
                write!(f, "csel {dst}, {a}, {b}, {cond:?}")
            }
            Instr::Ldr {
                dst, base, offset, ..
            } => write!(f, "ldr {dst}, {}", addr(base, offset)),
            Instr::Str {
                src, base, offset, ..
            } => write!(f, "str {src}, {}", addr(base, offset)),
            Instr::B { target } => write!(f, "b {target}"),
            Instr::Bcc { cond, target } => {
                let name = format!("{cond:?}").to_lowercase();
                write!(f, "b.{name} {target}")
            }
            Instr::Cbz { src, target } => write!(f, "cbz {src}, {target}"),
            Instr::Cbnz { src, target } => write!(f, "cbnz {src}, {target}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    #[test]
    fn srcs_and_dsts_gather_load() {
        // ldr x6, [x2, x5, lsl #3] — the gather inner-loop access from Fig. 5.
        let i = Instr::Ldr {
            dst: X6,
            base: X2,
            offset: MemOffset::RegShifted {
                index: X5,
                shift: 3,
            },
            size: AccessSize::B8,
        };
        let srcs = i.srcs();
        assert!(srcs.contains(X2) && srcs.contains(X5));
        assert_eq!(srcs.len(), 2);
        assert!(i.dsts().contains(X6));
        assert!(i.is_mem() && i.is_load() && !i.is_store());
    }

    #[test]
    fn store_has_no_dsts() {
        let i = Instr::Str {
            src: X1,
            base: X2,
            offset: MemOffset::Imm(8),
            size: AccessSize::B8,
        };
        assert!(i.dsts().is_empty());
        assert_eq!(i.srcs().len(), 2);
    }

    #[test]
    fn xzr_never_tracked() {
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: XZR,
            src: XZR,
            rhs: Operand2::Reg(XZR),
        };
        assert!(i.srcs().is_empty());
        assert!(i.dsts().is_empty());
    }

    #[test]
    fn reglist_dedups() {
        // madd x1, x2, x2, x2 — x2 must appear once.
        let i = Instr::Madd {
            dst: X1,
            a: X2,
            b: X2,
            acc: X2,
        };
        assert_eq!(i.srcs().len(), 1);
        assert_eq!(i.regs().len(), 2);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Lsl.apply(1, 3), 8);
        assert_eq!(AluOp::Lsr.apply(u64::MAX, 63), 1);
        assert_eq!(AluOp::Asr.apply((-8i64) as u64, 2), (-2i64) as u64);
        assert_eq!(AluOp::Udiv.apply(7, 0), 0, "div by zero yields 0");
        assert_eq!(AluOp::Udiv.apply(7, 2), 3);
        assert_eq!(AluOp::Mul.apply(3, 5), 15);
    }

    #[test]
    fn branch_targets() {
        assert_eq!(Instr::B { target: 7 }.branch_target(), Some(7));
        assert_eq!(Instr::Nop.branch_target(), None);
        assert!(Instr::Bcc {
            cond: Cond::Ne,
            target: 0
        }
        .reads_flags());
        assert!(Instr::Cmp {
            src: X0,
            rhs: Operand2::Imm(0)
        }
        .writes_flags());
    }

    #[test]
    fn display_round() {
        let i = Instr::Ldr {
            dst: X6,
            base: X2,
            offset: MemOffset::RegShifted {
                index: X5,
                shift: 3,
            },
            size: AccessSize::B8,
        };
        assert_eq!(format!("{i}"), "ldr x6, [x2, x5, lsl #3]");
    }
}
