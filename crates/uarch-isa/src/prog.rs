//! Programs and the program builder (assembler).
//!
//! A [`Program`] is an immutable sequence of instructions plus initial data
//! segments. The [`ProgramBuilder`] is a tiny assembler: workload generators
//! and attack litmus tests emit instructions through its helper methods and use
//! forward-referencing labels for control flow; `build` resolves labels and
//! validates targets.

use std::fmt;
use std::sync::Arc;

use simkit::addr::VirtAddr;

use crate::inst::{AluOp, BranchCond, FpuOp, Instruction, MemWidth};
use crate::reg::Reg;

/// Byte size of one instruction slot in the virtual instruction address space;
/// used to derive instruction-fetch addresses for the instruction cache.
pub const INST_BYTES: u64 = 4;

/// Base virtual address of the text (code) segment.
pub const TEXT_BASE: u64 = 0x0040_0000;

/// A forward-referencing label handle returned by [`ProgramBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An initial data segment copied into memory before the program runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataSegment {
    /// Destination virtual address.
    pub addr: VirtAddr,
    /// Bytes to place at `addr`.
    pub bytes: Vec<u8>,
}

/// An immutable µISA program: code, initial data and a name.
///
/// Every field is behind an [`Arc`], so cloning a program — which the system
/// layer does once per thread and per simulation — is three reference-count
/// bumps, never a copy of the instruction stream or the data segments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    name: Arc<str>,
    code: Arc<Vec<Instruction>>,
    data: Arc<Vec<DataSegment>>,
}

impl Program {
    /// Assembles a program directly from parts, bypassing the builder *and*
    /// [`validate`](Self::validate). Static tools use this to construct
    /// deliberately malformed programs (out-of-range targets, fall-through
    /// ends) and check that analyses degrade gracefully instead of panicking;
    /// everything that actually runs should come from [`ProgramBuilder`].
    pub fn from_raw_parts(
        name: impl Into<String>,
        code: Vec<Instruction>,
        data: Vec<DataSegment>,
    ) -> Self {
        Program {
            name: name.into().into(),
            code: Arc::new(code),
            data: Arc::new(data),
        }
    }

    /// The program's name (used as the workload label in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction at index `pc`, if in range.
    pub fn fetch(&self, pc: usize) -> Option<Instruction> {
        self.code.get(pc).copied()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The virtual address instruction `pc` is fetched from (for I-cache and
    /// branch-predictor indexing).
    pub fn inst_addr(&self, pc: usize) -> VirtAddr {
        VirtAddr::new(TEXT_BASE + pc as u64 * INST_BYTES)
    }

    /// The initial data segments.
    pub fn data_segments(&self) -> &[DataSegment] {
        &self.data
    }

    /// Iterates over the instructions in order.
    pub fn iter(&self) -> impl Iterator<Item = &Instruction> {
        self.code.iter()
    }

    /// Checks the whole-program well-formedness invariants the interpreter and
    /// the static analyses rely on:
    ///
    /// * every branch/jump/call target is a valid instruction index
    ///   (strictly less than [`len`](Self::len) — the builder's historical
    ///   check tolerated `target == len`, which the interpreter reports as
    ///   [`PcOutOfRange`](crate::interp::StopReason::PcOutOfRange) when taken);
    /// * the final instruction cannot fall through past the end of the
    ///   program (it must be a halt, jump, return or indirect jump);
    /// * no two initial data segments overlap.
    ///
    /// [`ProgramBuilder::build`] runs this automatically in debug builds, so
    /// every program constructed in tests is known-valid; release builds skip
    /// it and [`from_raw_parts`](Self::from_raw_parts) bypasses it entirely.
    pub fn validate(&self) -> Result<(), ValidateError> {
        for (at, inst) in self.code.iter().enumerate() {
            let target = match *inst {
                Instruction::Branch { target, .. }
                | Instruction::Jump { target }
                | Instruction::Call { target, .. } => Some(target),
                _ => None,
            };
            if let Some(target) = target {
                if target >= self.code.len() {
                    return Err(ValidateError::TargetOutOfRange { at, target });
                }
            }
        }
        if let Some(last) = self.code.last() {
            if crate::cfg::falls_through(last) {
                return Err(ValidateError::FallsOffEnd {
                    at: self.code.len() - 1,
                });
            }
        }
        // Overlap check over segments sorted by start address; zero-length
        // segments occupy no bytes and cannot overlap anything.
        let mut spans: Vec<(u64, u64, usize)> = self
            .data
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.bytes.is_empty())
            .map(|(i, s)| (s.addr.raw(), s.addr.raw() + s.bytes.len() as u64, i))
            .collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            let (_, prev_end, prev_idx) = pair[0];
            let (cur_start, _, cur_idx) = pair[1];
            if prev_end > cur_start {
                return Err(ValidateError::OverlappingData {
                    first: prev_idx.min(cur_idx),
                    second: prev_idx.max(cur_idx),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program `{}` ({} instructions)",
            self.name,
            self.code.len()
        )?;
        for (i, inst) in self.code.iter().enumerate() {
            writeln!(f, "  {i:5}: {inst}")?;
        }
        Ok(())
    }
}

/// Error produced by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A branch, jump or call targets an instruction index at or past the end
    /// of the program.
    TargetOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// The final instruction can fall through past the end of the program.
    FallsOffEnd {
        /// Index of the final instruction.
        at: usize,
    },
    /// Two initial data segments overlap.
    OverlappingData {
        /// Index (into [`Program::data_segments`]) of the earlier segment.
        first: usize,
        /// Index of the overlapping later segment.
        second: usize,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at} targets out-of-range index {target}")
            }
            ValidateError::FallsOffEnd { at } => {
                write!(f, "final instruction {at} can fall off the end")
            }
            ValidateError::OverlappingData { first, second } => {
                write!(f, "data segments {first} and {second} overlap")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Error produced by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced but never bound to a position.
    UnboundLabel(usize),
    /// A branch or jump targets an instruction index outside the program.
    TargetOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// The program contains no instructions.
    Empty,
    /// The assembled program failed [`Program::validate`] (debug builds only).
    Invalid(ValidateError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel(id) => write!(f, "label {id} was never bound"),
            BuildError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at} targets out-of-range index {target}")
            }
            BuildError::Empty => write!(f, "program has no instructions"),
            BuildError::Invalid(e) => write!(f, "program failed validation: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Placeholder target used before labels are resolved.
const UNRESOLVED: usize = usize::MAX;

/// Incremental builder ("assembler") for [`Program`]s.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    code: Vec<Instruction>,
    data: Vec<DataSegment>,
    /// For each label id: bound position (or `None`).
    labels: Vec<Option<usize>>,
    /// (instruction index, label id) pairs to patch at build time.
    fixups: Vec<(usize, usize)>,
}

impl ProgramBuilder {
    /// Creates a builder for a program called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            code: Vec::new(),
            data: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Creates a new, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position (the next emitted instruction).
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind_label(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.code.len());
    }

    /// Creates a label already bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.bind_label(l);
        l
    }

    /// Current number of emitted instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether no instructions have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Adds an initial data segment.
    pub fn data(&mut self, addr: VirtAddr, bytes: Vec<u8>) -> &mut Self {
        self.data.push(DataSegment { addr, bytes });
        self
    }

    /// Adds a data segment of `count` little-endian u64 values.
    pub fn data_u64(&mut self, addr: VirtAddr, values: &[u64]) -> &mut Self {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.data(addr, bytes)
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, inst: Instruction) -> &mut Self {
        self.code.push(inst);
        self
    }

    // ---- ALU helpers -----------------------------------------------------

    /// `rd <- imm`.
    pub fn li(&mut self, rd: Reg, imm: u64) -> &mut Self {
        self.emit(Instruction::LoadImm { rd, imm })
    }

    /// `rd <- rs1 + rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instruction::AluReg {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        })
    }

    /// `rd <- rs1 - rs2`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instruction::AluReg {
            op: AluOp::Sub,
            rd,
            rs1,
            rs2,
        })
    }

    /// `rd <- rs1 * rs2`.
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instruction::AluReg {
            op: AluOp::Mul,
            rd,
            rs1,
            rs2,
        })
    }

    /// `rd <- rs1 / rs2` (signed).
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instruction::AluReg {
            op: AluOp::Div,
            rd,
            rs1,
            rs2,
        })
    }

    /// `rd <- rs1 + imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instruction::AluImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        })
    }

    /// `rd <- rs1 & imm`.
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instruction::AluImm {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        })
    }

    /// `rd <- rs1 ^ rs2`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instruction::AluReg {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        })
    }

    /// `rd <- rs1 & rs2`.
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instruction::AluReg {
            op: AluOp::And,
            rd,
            rs1,
            rs2,
        })
    }

    /// `rd <- rs1 << imm`.
    pub fn shli(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instruction::AluImm {
            op: AluOp::Shl,
            rd,
            rs1,
            imm,
        })
    }

    /// `rd <- rs1 >> imm`.
    pub fn shri(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instruction::AluImm {
            op: AluOp::Shr,
            rd,
            rs1,
            imm,
        })
    }

    /// `rd <- rs1 % imm`.
    pub fn remi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instruction::AluImm {
            op: AluOp::Rem,
            rd,
            rs1,
            imm,
        })
    }

    /// Generic register-register ALU operation.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instruction::AluReg { op, rd, rs1, rs2 })
    }

    /// Generic register-immediate ALU operation.
    pub fn alui(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.emit(Instruction::AluImm { op, rd, rs1, imm })
    }

    /// Floating-point operation.
    pub fn fpu(&mut self, op: FpuOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Instruction::Fpu { op, rd, rs1, rs2 })
    }

    // ---- memory helpers --------------------------------------------------

    /// 8-byte load: `rd <- mem[base + offset]`.
    pub fn load(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Load {
            rd,
            base,
            offset,
            width: MemWidth::Double,
        })
    }

    /// 1-byte load.
    pub fn load_byte(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Load {
            rd,
            base,
            offset,
            width: MemWidth::Byte,
        })
    }

    /// 8-byte store: `mem[base + offset] <- rs`.
    pub fn store(&mut self, rs: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::Store {
            rs,
            base,
            offset,
            width: MemWidth::Double,
        })
    }

    /// Atomic swap (8-byte).
    pub fn amoswap(&mut self, rd: Reg, rs: Reg, base: Reg) -> &mut Self {
        self.emit(Instruction::AtomicSwap { rd, rs, base })
    }

    /// Atomic add (8-byte).
    pub fn amoadd(&mut self, rd: Reg, rs: Reg, base: Reg) -> &mut Self {
        self.emit(Instruction::AtomicAdd { rd, rs, base })
    }

    // ---- control-flow helpers --------------------------------------------

    /// Conditional branch to `label`.
    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        let at = self.code.len();
        self.fixups.push((at, label.0));
        self.emit(Instruction::Branch {
            cond,
            rs1,
            rs2,
            target: UNRESOLVED,
        })
    }

    /// Branch if equal.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch(BranchCond::Eq, rs1, rs2, label)
    }

    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch(BranchCond::Ne, rs1, rs2, label)
    }

    /// Branch if signed less-than.
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch(BranchCond::Lt, rs1, rs2, label)
    }

    /// Branch if unsigned greater-or-equal.
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch(BranchCond::Geu, rs1, rs2, label)
    }

    /// Compares `rs1` with a small immediate (materialised into `X31`) and
    /// branches if `rs1 < imm` (signed). Clobbers `X31`.
    pub fn blt_imm(&mut self, rs1: Reg, imm: u64, label: Label) -> &mut Self {
        self.li(Reg::X31, imm);
        self.blt(rs1, Reg::X31, label)
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        let at = self.code.len();
        self.fixups.push((at, label.0));
        self.emit(Instruction::Jump { target: UNRESOLVED })
    }

    /// Indirect jump to the instruction index in `base` plus `offset`.
    pub fn jump_indirect(&mut self, base: Reg, offset: i64) -> &mut Self {
        self.emit(Instruction::JumpIndirect { base, offset })
    }

    /// Call `label`, linking into `link`.
    pub fn call(&mut self, label: Label, link: Reg) -> &mut Self {
        let at = self.code.len();
        self.fixups.push((at, label.0));
        self.emit(Instruction::Call {
            target: UNRESOLVED,
            link,
        })
    }

    /// Return through `link`.
    pub fn ret(&mut self, link: Reg) -> &mut Self {
        self.emit(Instruction::Return { link })
    }

    // ---- system helpers ---------------------------------------------------

    /// Read the cycle counter into `rd`.
    pub fn rdcycle(&mut self, rd: Reg) -> &mut Self {
        self.emit(Instruction::ReadCycle { rd })
    }

    /// System call.
    pub fn syscall(&mut self, code: u16) -> &mut Self {
        self.emit(Instruction::Syscall { code })
    }

    /// Sandbox entry marker.
    pub fn sandbox_enter(&mut self) -> &mut Self {
        self.emit(Instruction::SandboxEnter)
    }

    /// Sandbox exit marker.
    pub fn sandbox_exit(&mut self) -> &mut Self {
        self.emit(Instruction::SandboxExit)
    }

    /// Speculation barrier.
    pub fn spec_barrier(&mut self) -> &mut Self {
        self.emit(Instruction::SpecBarrier)
    }

    /// No-operation.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instruction::Nop)
    }

    /// Halt the hardware thread.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instruction::Halt)
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    /// Returns [`BuildError`] if the program is empty, a referenced label was
    /// never bound, or a resolved target is out of range. Debug builds also
    /// run [`Program::validate`] and return [`BuildError::Invalid`] on
    /// failure.
    pub fn build(mut self) -> Result<Program, BuildError> {
        if self.code.is_empty() {
            return Err(BuildError::Empty);
        }
        for (at, label_id) in &self.fixups {
            let position = self.labels[*label_id].ok_or(BuildError::UnboundLabel(*label_id))?;
            if position > self.code.len() {
                return Err(BuildError::TargetOutOfRange {
                    at: *at,
                    target: position,
                });
            }
            match &mut self.code[*at] {
                Instruction::Branch { target, .. }
                | Instruction::Jump { target }
                | Instruction::Call { target, .. } => *target = position,
                other => unreachable!("fixup on non-control instruction {other:?}"),
            }
        }
        // Validate static targets (including hand-emitted ones).
        for (i, inst) in self.code.iter().enumerate() {
            let target = match inst {
                Instruction::Branch { target, .. }
                | Instruction::Jump { target }
                | Instruction::Call { target, .. } => Some(*target),
                _ => None,
            };
            if let Some(t) = target {
                if t > self.code.len() {
                    return Err(BuildError::TargetOutOfRange { at: i, target: t });
                }
            }
        }
        let program = Program {
            name: self.name.into(),
            code: Arc::new(self.code),
            data: Arc::new(self.data),
        };
        // Debug builds (which is how every test runs) additionally hold
        // programs to the stricter whole-program invariants; release builds
        // keep the historical fast path.
        #[cfg(debug_assertions)]
        program.validate().map_err(BuildError::Invalid)?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_simple_loop() {
        let mut b = ProgramBuilder::new("loop");
        let top = b.new_label();
        b.li(Reg::X1, 0);
        b.bind_label(top);
        b.addi(Reg::X1, Reg::X1, 1);
        b.blt_imm(Reg::X1, 5, top);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.name(), "loop");
        // li + addi + (li X31 + blt from blt_imm) + halt = 5 instructions.
        assert_eq!(p.len(), 5);
        // The branch at index 3 must target index 1 (after bind).
        match p.fetch(3).unwrap() {
            Instruction::Branch { target, .. } => assert_eq!(target, 1),
            other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.new_label();
        b.jump(l);
        b.halt();
        assert!(matches!(b.build(), Err(BuildError::UnboundLabel(_))));
    }

    #[test]
    fn empty_program_is_an_error() {
        let b = ProgramBuilder::new("empty");
        assert_eq!(b.build().unwrap_err(), BuildError::Empty);
    }

    #[test]
    fn out_of_range_static_target_is_an_error() {
        let mut b = ProgramBuilder::new("bad-target");
        b.emit(Instruction::Jump { target: 999 });
        b.halt();
        assert!(matches!(
            b.build(),
            Err(BuildError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new("double");
        let l = b.new_label();
        b.bind_label(l);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.bind_label(l);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn validate_accepts_a_well_formed_program() {
        let mut b = ProgramBuilder::new("ok");
        let done = b.new_label();
        b.data_u64(VirtAddr::new(0x1000), &[1, 2]);
        b.data_u64(VirtAddr::new(0x1010), &[3]);
        b.li(Reg::X1, 1);
        b.beq(Reg::X1, Reg::X0, done);
        b.bind_label(done);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_target_equal_to_len() {
        // The historical builder check tolerated `target == len`; validate is
        // strict because taking such a branch walks off the program.
        let p = Program::from_raw_parts(
            "edge",
            vec![Instruction::Jump { target: 2 }, Instruction::Halt],
            Vec::new(),
        );
        assert_eq!(
            p.validate(),
            Err(ValidateError::TargetOutOfRange { at: 0, target: 2 })
        );
    }

    #[test]
    fn validate_rejects_a_fall_through_end() {
        let p = Program::from_raw_parts("no-halt", vec![Instruction::Nop], Vec::new());
        assert_eq!(p.validate(), Err(ValidateError::FallsOffEnd { at: 0 }));
        // The build() hook only runs under debug assertions; release builds
        // keep the fast path and accept the program.
        let mut b = ProgramBuilder::new("no-halt-built");
        b.nop();
        let built = b.build();
        if cfg!(debug_assertions) {
            assert!(matches!(
                built,
                Err(BuildError::Invalid(ValidateError::FallsOffEnd { at: 0 }))
            ));
        } else {
            assert!(built.is_ok());
        }
    }

    #[test]
    fn validate_rejects_overlapping_data_segments() {
        let p = Program::from_raw_parts(
            "overlap",
            vec![Instruction::Halt],
            vec![
                DataSegment {
                    addr: VirtAddr::new(0x1000),
                    bytes: vec![0; 16],
                },
                DataSegment {
                    addr: VirtAddr::new(0x1008),
                    bytes: vec![0; 8],
                },
            ],
        );
        assert_eq!(
            p.validate(),
            Err(ValidateError::OverlappingData {
                first: 0,
                second: 1
            })
        );
        // Adjacent (touching) segments and zero-length segments are fine.
        let p = Program::from_raw_parts(
            "adjacent",
            vec![Instruction::Halt],
            vec![
                DataSegment {
                    addr: VirtAddr::new(0x1000),
                    bytes: vec![0; 8],
                },
                DataSegment {
                    addr: VirtAddr::new(0x1008),
                    bytes: vec![0; 8],
                },
                DataSegment {
                    addr: VirtAddr::new(0x1004),
                    bytes: Vec::new(),
                },
            ],
        );
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_error_messages_are_informative() {
        let cases: [(ValidateError, &str); 3] = [
            (
                ValidateError::TargetOutOfRange { at: 3, target: 9 },
                "out-of-range",
            ),
            (ValidateError::FallsOffEnd { at: 7 }, "fall off"),
            (
                ValidateError::OverlappingData {
                    first: 0,
                    second: 2,
                },
                "overlap",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn data_segments_are_kept() {
        let mut b = ProgramBuilder::new("data");
        b.data_u64(VirtAddr::new(0x1000), &[1, 2, 3]);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.data_segments().len(), 1);
        assert_eq!(p.data_segments()[0].bytes.len(), 24);
    }

    #[test]
    fn inst_addr_is_monotonic() {
        let mut b = ProgramBuilder::new("addrs");
        b.nop().nop().halt();
        let p = b.build().unwrap();
        assert!(p.inst_addr(1).raw() > p.inst_addr(0).raw());
        assert_eq!(p.inst_addr(1).raw() - p.inst_addr(0).raw(), INST_BYTES);
    }

    #[test]
    fn display_lists_instructions() {
        let mut b = ProgramBuilder::new("show");
        b.li(Reg::X1, 7);
        b.halt();
        let p = b.build().unwrap();
        let text = format!("{p}");
        assert!(text.contains("program `show`"));
        assert!(text.contains("halt"));
    }

    #[test]
    fn here_binds_at_current_position() {
        let mut b = ProgramBuilder::new("here");
        b.nop();
        let l = b.here();
        b.nop();
        b.jump(l);
        b.halt();
        let p = b.build().unwrap();
        match p.fetch(2).unwrap() {
            Instruction::Jump { target } => assert_eq!(target, 1),
            other => panic!("expected jump, got {other}"),
        }
    }
}
