//! Fetch: follows the predicted path, one instruction-cache line access per
//! new line, and hands each instruction to dispatch.

use simkit::cycles::Cycle;

use uarch_isa::inst::Instruction;

use super::OooCore;
use crate::memmodel::{MemAccessCtx, MemOutcome, MemoryModel};

impl OooCore {
    /// Whether the fetch stage would do nothing at cycle `at`: fetch is
    /// halted or stalled, or the next instruction finds the ROB, load queue
    /// or store queue full. Running off the program is not blocked (fetch
    /// halts, a state change).
    pub(super) fn fetch_blocked(&self, at: Cycle) -> bool {
        if self.fetch_halted || at < self.fetch_stalled_until {
            return true;
        }
        if self.rob.len() >= self.pipeline.rob_entries {
            return true;
        }
        let Some(thread) = self.thread.as_ref() else {
            return true;
        };
        thread
            .program
            .fetch(self.fetch_pc)
            .is_some_and(|inst| self.queues_full_for(inst))
    }

    /// Fetches and dispatches along the predicted path. Returns whether any
    /// progress or state change happened (instructions dispatched, an I-cache
    /// access performed, fetch halted or stalled).
    pub(super) fn fetch_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        let mut active = false;
        let line_bytes = 64;
        for _ in 0..self.pipeline.width {
            if self.fetch_blocked(now) {
                break;
            }
            let thread = self.thread.as_ref().expect("fetch is not blocked");
            let Some(inst) = thread.program.fetch(self.fetch_pc) else {
                self.fetch_halted = true;
                active = true;
                break;
            };

            // Instruction-cache timing, charged once per new line.
            let fetch_addr = thread.program.inst_addr(self.fetch_pc);
            let fetch_line = fetch_addr.raw() / line_bytes;
            if self.last_fetch_line != Some(fetch_line) {
                let under_unresolved_branch = self.has_older_unresolved_branch(self.rob.tail());
                let ctx = MemAccessCtx {
                    speculative: !self.rob.is_empty(),
                    under_unresolved_branch,
                    ..self.access_ctx(fetch_addr, fetch_addr, now, false)
                };
                let latency = match mem.fetch_instruction(&ctx) {
                    MemOutcome::Done { latency } => latency,
                    MemOutcome::RetryWhenNonSpeculative => 1,
                };
                active = true;
                self.last_fetch_line = Some(fetch_line);
                if latency > 1 {
                    self.fetch_stalled_until = now.saturating_add(latency);
                    break;
                }
            }

            // Branch prediction decides the next fetch PC.
            let pc = self.fetch_pc;
            let pc_vaddr = self.pc_addr(pc);
            let predicted_next = match inst {
                Instruction::Branch { target, .. } => {
                    if self.predictor.predict_direction(pc_vaddr) {
                        target
                    } else {
                        pc + 1
                    }
                }
                Instruction::Jump { target } => target,
                Instruction::JumpIndirect { .. } => self
                    .predictor
                    .predict_indirect_target(pc_vaddr)
                    .unwrap_or(pc + 1),
                Instruction::Call { target, .. } => {
                    self.predictor.push_return(pc + 1);
                    target
                }
                Instruction::Return { .. } => self
                    .predictor
                    .predict_return()
                    .or_else(|| self.predictor.predict_indirect_target(pc_vaddr))
                    .unwrap_or(pc + 1),
                _ => pc + 1,
            };
            self.dispatch(inst, pc, predicted_next);
            self.fetch_pc = predicted_next;
            active = true;

            if matches!(inst, Instruction::Halt) {
                // Stop fetching past a halt on the speculative path.
                self.fetch_halted = true;
                break;
            }
        }
        active
    }
}
