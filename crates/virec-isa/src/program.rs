//! Programs and the label-resolving assembler.

use crate::cond::Cond;
use crate::instr::{AccessSize, AluOp, Instr, MemOffset, Operand2};
use crate::reg::Reg;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A fully assembled program: a sequence of instructions with branch targets
/// resolved to absolute instruction indices.
///
/// Programs are immutable and cheaply cloneable (`Arc` inside); a single
/// program image is shared by every hardware thread executing it.
#[derive(Clone)]
pub struct Program {
    instrs: Arc<[Instr]>,
    name: Arc<str>,
}

impl Program {
    /// Wraps a resolved instruction sequence.
    ///
    /// # Panics
    /// Panics if any branch target is out of range — such a program could
    /// never have been produced by the assembler.
    pub fn new(name: &str, instrs: Vec<Instr>) -> Program {
        for (pc, i) in instrs.iter().enumerate() {
            if let Some(t) = i.branch_target() {
                assert!(
                    (t as usize) < instrs.len(),
                    "instruction {pc} branches to {t}, past the end ({})",
                    instrs.len()
                );
            }
        }
        Program {
            instrs: instrs.into(),
            name: name.into(),
        }
    }

    /// The program's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at index `pc`.
    pub fn fetch(&self, pc: u32) -> Instr {
        self.instrs[pc as usize]
    }

    /// All instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// A copy of this program with the instruction at `pc` replaced.
    /// Used to build negative-control fixtures (e.g. a deliberately
    /// corrupted spill reload) for the verification gates.
    ///
    /// # Panics
    /// Panics if `pc` is out of range or the replacement branches past the
    /// end (same well-formedness contract as [`Program::new`]).
    pub fn patched(&self, pc: usize, instr: Instr) -> Program {
        let mut instrs = self.instrs.to_vec();
        instrs[pc] = instr;
        Program::new(&self.name, instrs)
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} ({} instrs):", self.name, self.instrs.len())?;
        for (pc, i) in self.instrs.iter().enumerate() {
            writeln!(f, "  {pc:4}: {i}")?;
        }
        Ok(())
    }
}

/// A tiny assembler with named labels and forward references.
///
/// ```
/// use virec_isa::{Asm, reg::names::*};
///
/// let mut a = Asm::new("count_down");
/// a.mov_imm(X0, 10);
/// a.label("loop");
/// a.subi(X0, X0, 1);
/// a.cbnz(X0, "loop");
/// a.halt();
/// let prog = a.assemble();
/// assert_eq!(prog.len(), 4);
/// ```
pub struct Asm {
    name: String,
    instrs: Vec<Instr>,
    labels: HashMap<String, u32>,
    // (instruction index, label) fixups for forward references
    fixups: Vec<(usize, String)>,
}

impl Asm {
    /// Starts assembling a program called `name`.
    pub fn new(name: &str) -> Asm {
        Asm {
            name: name.to_string(),
            instrs: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
        }
    }

    /// Defines a label at the current position.
    ///
    /// # Panics
    /// Panics on duplicate label names.
    pub fn label(&mut self, name: &str) {
        let here = self.instrs.len() as u32;
        let prev = self.labels.insert(name.to_string(), here);
        assert!(prev.is_none(), "duplicate label {name:?}");
    }

    /// Current instruction index (useful for size accounting in tests).
    pub fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn target(&mut self, label: &str) -> u32 {
        match self.labels.get(label) {
            Some(&t) => t,
            None => {
                // Forward reference: remember the slot, patch at assemble().
                self.fixups.push((self.instrs.len(), label.to_string()));
                u32::MAX
            }
        }
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    // ---- ALU ----------------------------------------------------------

    /// `dst = src + rhs` (register).
    pub fn add(&mut self, dst: Reg, src: Reg, rhs: Reg) {
        self.emit(Instr::Alu {
            op: AluOp::Add,
            dst,
            src,
            rhs: Operand2::Reg(rhs),
        });
    }

    /// `dst = src + imm`.
    pub fn addi(&mut self, dst: Reg, src: Reg, imm: i64) {
        self.emit(Instr::Alu {
            op: AluOp::Add,
            dst,
            src,
            rhs: Operand2::Imm(imm),
        });
    }

    /// `dst = src - rhs` (register).
    pub fn sub(&mut self, dst: Reg, src: Reg, rhs: Reg) {
        self.emit(Instr::Alu {
            op: AluOp::Sub,
            dst,
            src,
            rhs: Operand2::Reg(rhs),
        });
    }

    /// `dst = src - imm`.
    pub fn subi(&mut self, dst: Reg, src: Reg, imm: i64) {
        self.emit(Instr::Alu {
            op: AluOp::Sub,
            dst,
            src,
            rhs: Operand2::Imm(imm),
        });
    }

    /// `dst = src & imm`.
    pub fn andi(&mut self, dst: Reg, src: Reg, imm: i64) {
        self.emit(Instr::Alu {
            op: AluOp::And,
            dst,
            src,
            rhs: Operand2::Imm(imm),
        });
    }

    /// `dst = src & rhs`.
    pub fn and(&mut self, dst: Reg, src: Reg, rhs: Reg) {
        self.emit(Instr::Alu {
            op: AluOp::And,
            dst,
            src,
            rhs: Operand2::Reg(rhs),
        });
    }

    /// `dst = src ^ rhs`.
    pub fn eor(&mut self, dst: Reg, src: Reg, rhs: Reg) {
        self.emit(Instr::Alu {
            op: AluOp::Eor,
            dst,
            src,
            rhs: Operand2::Reg(rhs),
        });
    }

    /// `dst = src | rhs`.
    pub fn orr(&mut self, dst: Reg, src: Reg, rhs: Reg) {
        self.emit(Instr::Alu {
            op: AluOp::Orr,
            dst,
            src,
            rhs: Operand2::Reg(rhs),
        });
    }

    /// `dst = src << imm`.
    pub fn lsli(&mut self, dst: Reg, src: Reg, imm: i64) {
        self.emit(Instr::Alu {
            op: AluOp::Lsl,
            dst,
            src,
            rhs: Operand2::Imm(imm),
        });
    }

    /// `dst = src >> imm` (logical).
    pub fn lsri(&mut self, dst: Reg, src: Reg, imm: i64) {
        self.emit(Instr::Alu {
            op: AluOp::Lsr,
            dst,
            src,
            rhs: Operand2::Imm(imm),
        });
    }

    /// `dst = src * rhs`.
    pub fn mul(&mut self, dst: Reg, src: Reg, rhs: Reg) {
        self.emit(Instr::Alu {
            op: AluOp::Mul,
            dst,
            src,
            rhs: Operand2::Reg(rhs),
        });
    }

    /// `dst = a * b + acc`.
    pub fn madd(&mut self, dst: Reg, a: Reg, b: Reg, acc: Reg) {
        self.emit(Instr::Madd { dst, a, b, acc });
    }

    /// `dst = imm`.
    pub fn mov_imm(&mut self, dst: Reg, imm: i64) {
        self.emit(Instr::MovImm { dst, imm });
    }

    /// `dst = src` (encoded as `orr dst, src, xzr`-style ALU move).
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        self.emit(Instr::Alu {
            op: AluOp::Orr,
            dst,
            src,
            rhs: Operand2::Imm(0),
        });
    }

    /// `flags = src - rhs` (register).
    pub fn cmp(&mut self, src: Reg, rhs: Reg) {
        self.emit(Instr::Cmp {
            src,
            rhs: Operand2::Reg(rhs),
        });
    }

    /// `flags = src - imm`.
    pub fn cmpi(&mut self, src: Reg, imm: i64) {
        self.emit(Instr::Cmp {
            src,
            rhs: Operand2::Imm(imm),
        });
    }

    /// `dst = cond ? a : b`.
    pub fn csel(&mut self, dst: Reg, a: Reg, b: Reg, cond: Cond) {
        self.emit(Instr::Csel { dst, a, b, cond });
    }

    // ---- Memory -------------------------------------------------------

    /// `dst = mem64[base + imm]`.
    pub fn ldr(&mut self, dst: Reg, base: Reg, imm: i64) {
        self.emit(Instr::Ldr {
            dst,
            base,
            offset: MemOffset::Imm(imm),
            size: AccessSize::B8,
        });
    }

    /// `dst = mem64[base + (index << shift)]`.
    pub fn ldr_idx(&mut self, dst: Reg, base: Reg, index: Reg, shift: u8) {
        self.emit(Instr::Ldr {
            dst,
            base,
            offset: MemOffset::RegShifted { index, shift },
            size: AccessSize::B8,
        });
    }

    /// `mem64[base + imm] = src`.
    pub fn str(&mut self, src: Reg, base: Reg, imm: i64) {
        self.emit(Instr::Str {
            src,
            base,
            offset: MemOffset::Imm(imm),
            size: AccessSize::B8,
        });
    }

    /// `mem64[base + (index << shift)] = src`.
    pub fn str_idx(&mut self, src: Reg, base: Reg, index: Reg, shift: u8) {
        self.emit(Instr::Str {
            src,
            base,
            offset: MemOffset::RegShifted { index, shift },
            size: AccessSize::B8,
        });
    }

    // ---- Control flow -------------------------------------------------

    /// Unconditional branch to `label`.
    pub fn b(&mut self, label: &str) {
        let target = self.target(label);
        self.emit(Instr::B { target });
    }

    /// Conditional branch to `label`.
    pub fn bcc(&mut self, cond: Cond, label: &str) {
        let target = self.target(label);
        self.emit(Instr::Bcc { cond, target });
    }

    /// Branch to `label` if `src == 0`.
    pub fn cbz(&mut self, src: Reg, label: &str) {
        let target = self.target(label);
        self.emit(Instr::Cbz { src, target });
    }

    /// Branch to `label` if `src != 0`.
    pub fn cbnz(&mut self, src: Reg, label: &str) {
        let target = self.target(label);
        self.emit(Instr::Cbnz { src, target });
    }

    /// No operation.
    pub fn nop(&mut self) {
        self.emit(Instr::Nop);
    }

    /// Terminates the thread.
    pub fn halt(&mut self) {
        self.emit(Instr::Halt);
    }

    /// Resolves all forward references and produces the program.
    ///
    /// # Panics
    /// Panics on undefined labels.
    pub fn assemble(mut self) -> Program {
        for (idx, label) in std::mem::take(&mut self.fixups) {
            let &t = self
                .labels
                .get(&label)
                .unwrap_or_else(|| panic!("undefined label {label:?}"));
            let i = &mut self.instrs[idx];
            match i {
                Instr::B { target }
                | Instr::Bcc { target, .. }
                | Instr::Cbz { target, .. }
                | Instr::Cbnz { target, .. } => *target = t,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        Program::new(&self.name, self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    #[test]
    fn backward_label_resolution() {
        let mut a = Asm::new("t");
        a.label("top");
        a.nop();
        a.b("top");
        let p = a.assemble();
        assert_eq!(p.fetch(1).branch_target(), Some(0));
    }

    #[test]
    fn forward_label_resolution() {
        let mut a = Asm::new("t");
        a.cbz(X0, "end");
        a.nop();
        a.label("end");
        a.halt();
        let p = a.assemble();
        assert_eq!(p.fetch(0).branch_target(), Some(2));
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut a = Asm::new("t");
        a.b("nowhere");
        let _ = a.assemble();
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut a = Asm::new("t");
        a.label("x");
        a.label("x");
    }

    #[test]
    fn program_is_cheap_to_clone() {
        let mut a = Asm::new("t");
        for _ in 0..100 {
            a.nop();
        }
        a.halt();
        let p = a.assemble();
        let q = p.clone();
        assert_eq!(p.len(), q.len());
        assert!(std::ptr::eq(p.instrs().as_ptr(), q.instrs().as_ptr()));
    }

    #[test]
    fn mov_is_alu_identity() {
        let mut a = Asm::new("t");
        a.mov(X1, X2);
        let p = a.assemble();
        let i = p.fetch(0);
        assert!(i.srcs().contains(X2));
        assert!(i.dsts().contains(X1));
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn out_of_range_target_rejected() {
        let _ = Program::new("bad", vec![Instr::B { target: 5 }]);
    }
}
