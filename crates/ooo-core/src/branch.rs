//! Branch prediction: tournament predictor, branch target buffer and return
//! address stack (Table 1 of the paper).
//!
//! The predictor is the mechanism Spectre variant 1 abuses: attack code trains
//! a conditional branch to be predicted taken (or not taken) so that the
//! victim executes down the wrong path speculatively. The tables here are
//! deliberately conventional — 2-bit saturating counters, a global history
//! register, a chooser — so that the training behaviour the attacks rely on is
//! realistic.

use simkit::addr::VirtAddr;
use simkit::config::BranchPredictorConfig;

/// A 2-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counter2(u8);

impl Counter2 {
    fn taken(self) -> bool {
        self.0 >= 2
    }

    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// The prediction produced for one fetched control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Whether a conditional branch is predicted taken (always true for
    /// unconditional control flow).
    pub taken: bool,
    /// Predicted target instruction index, if the predictor has one. Direct
    /// branches know their target from the instruction; indirect branches and
    /// returns rely on this field.
    pub target: Option<usize>,
}

/// The information fed back to the predictor when a branch resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchUpdate {
    /// PC (as a virtual address) of the branch.
    pub pc: VirtAddr,
    /// Whether the branch was actually taken.
    pub taken: bool,
    /// The actual target instruction index.
    pub target: usize,
    /// Whether the instruction is a conditional branch (trains the direction
    /// tables) as opposed to an unconditional jump/call/return.
    pub conditional: bool,
}

/// Tournament branch predictor with BTB and return-address stack.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    local: Vec<Counter2>,
    local_history: Vec<u16>,
    global: Vec<Counter2>,
    chooser: Vec<Counter2>,
    global_history: u64,
    btb: Vec<Option<(u64, usize)>>,
    ras: Vec<usize>,
    ras_capacity: usize,
}

impl BranchPredictor {
    /// Creates a predictor with the table sizes from `config`.
    pub fn new(config: &BranchPredictorConfig) -> Self {
        BranchPredictor {
            local: vec![Counter2::default(); config.local_entries.max(1)],
            local_history: vec![0; config.local_entries.max(1)],
            global: vec![Counter2::default(); config.global_entries.max(1)],
            chooser: vec![Counter2::default(); config.chooser_entries.max(1)],
            global_history: 0,
            btb: vec![None; config.btb_entries.max(1)],
            ras: Vec::new(),
            ras_capacity: config.ras_entries.max(1),
        }
    }

    fn local_index(&self, pc: VirtAddr) -> usize {
        (pc.raw() as usize / 4) % self.local.len()
    }

    fn global_index(&self) -> usize {
        (self.global_history as usize) % self.global.len()
    }

    fn chooser_index(&self, pc: VirtAddr) -> usize {
        (pc.raw() as usize / 4) % self.chooser.len()
    }

    fn btb_index(&self, pc: VirtAddr) -> usize {
        (pc.raw() as usize / 4) % self.btb.len()
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict_direction(&self, pc: VirtAddr) -> bool {
        let local_idx = self.local_index(pc);
        let history = self.local_history[local_idx] as usize % self.local.len();
        let local_pred = self.local[history].taken();
        let global_pred = self.global[self.global_index()].taken();
        let use_global = self.chooser[self.chooser_index(pc)].taken();
        if use_global {
            global_pred
        } else {
            local_pred
        }
    }

    /// Looks up the predicted target for an indirect branch at `pc`.
    pub fn predict_indirect_target(&mut self, pc: VirtAddr) -> Option<usize> {
        let entry = self.btb[self.btb_index(pc)];
        match entry {
            Some((tag, target)) if tag == pc.raw() => Some(target),
            _ => None,
        }
    }

    /// Pushes a return address (instruction index) on a call.
    pub fn push_return(&mut self, return_index: usize) {
        if self.ras.len() >= self.ras_capacity {
            self.ras.remove(0);
        }
        self.ras.push(return_index);
    }

    /// Pops the predicted return target on a return instruction.
    pub fn predict_return(&mut self) -> Option<usize> {
        self.ras.pop()
    }

    /// Trains the predictor with the resolved outcome of a branch.
    pub fn update(&mut self, update: &BranchUpdate) {
        if update.conditional {
            let local_idx = self.local_index(update.pc);
            let history_idx = self.local_history[local_idx] as usize % self.local.len();
            let local_correct = self.local[history_idx].taken() == update.taken;
            let global_correct = self.global[self.global_index()].taken() == update.taken;

            self.local[history_idx].update(update.taken);
            let g_idx = self.global_index();
            self.global[g_idx].update(update.taken);

            // Chooser moves toward whichever component was right.
            if local_correct != global_correct {
                let c_idx = self.chooser_index(update.pc);
                self.chooser[c_idx].update(global_correct);
            }

            // Update histories.
            self.local_history[local_idx] =
                (self.local_history[local_idx] << 1) | u16::from(update.taken);
            self.global_history = (self.global_history << 1) | u64::from(update.taken);
        }
        if update.taken {
            let idx = self.btb_index(update.pc);
            self.btb[idx] = Some((update.pc.raw(), update.target));
        }
    }

    /// Clears the return-address stack (done on pipeline squash recovery in a
    /// simplified way: the RAS contents after a squash are unreliable).
    pub fn clear_ras(&mut self) {
        self.ras.clear();
    }

    /// Invalidates the branch-target buffer. Recent commodity hardware flushes
    /// or partitions the BTB on context switches to mitigate Spectre variant 2
    /// (the paper assumes this is present, §4.9); the OS model invokes this on
    /// context switches when that mitigation is enabled.
    pub fn flush_btb(&mut self) {
        for e in &mut self.btb {
            *e = None;
        }
        self.ras.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::config::SystemConfig;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(&SystemConfig::paper_default().branch_predictor)
    }

    fn update(pc: u64, taken: bool, target: usize) -> BranchUpdate {
        BranchUpdate {
            pc: VirtAddr::new(pc),
            taken,
            target,
            conditional: true,
        }
    }

    #[test]
    fn repeated_taken_branch_becomes_predicted_taken() {
        let mut p = predictor();
        let pc = VirtAddr::new(0x400);
        // Enough iterations for the local history register to saturate so the
        // same pattern-table entry is trained repeatedly.
        for _ in 0..48 {
            p.update(&update(0x400, true, 10));
        }
        assert!(
            p.predict_direction(pc),
            "predictor should learn an always-taken branch"
        );
    }

    #[test]
    fn training_then_flipping_direction_mispredicts_once() {
        let mut p = predictor();
        let pc = VirtAddr::new(0x800);
        // Train strongly not-taken.
        for _ in 0..16 {
            p.update(&update(0x800, false, 5));
        }
        assert!(!p.predict_direction(pc));
        // The Spectre-style "flip": the next taken execution is mispredicted.
        let predicted = p.predict_direction(pc);
        assert!(
            !predicted,
            "the trained direction must be predicted, enabling the attack window"
        );
        p.update(&update(0x800, true, 5));
    }

    #[test]
    fn btb_remembers_indirect_targets() {
        let mut p = predictor();
        let pc = VirtAddr::new(0x1234);
        assert_eq!(p.predict_indirect_target(pc), None);
        p.update(&BranchUpdate {
            pc,
            taken: true,
            target: 77,
            conditional: false,
        });
        assert_eq!(p.predict_indirect_target(pc), Some(77));
        p.flush_btb();
        assert_eq!(p.predict_indirect_target(pc), None);
    }

    #[test]
    fn ras_predicts_matching_returns() {
        let mut p = predictor();
        p.push_return(11);
        p.push_return(22);
        assert_eq!(p.predict_return(), Some(22));
        assert_eq!(p.predict_return(), Some(11));
        assert_eq!(p.predict_return(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let cfg = SystemConfig::paper_default().branch_predictor;
        let mut p = BranchPredictor::new(&cfg);
        for i in 0..cfg.ras_entries + 4 {
            p.push_return(i);
        }
        // The deepest predictions correspond to the newest pushes.
        assert_eq!(p.predict_return(), Some(cfg.ras_entries + 3));
        // After popping everything available, the oldest four are gone.
        let mut popped = 1;
        while p.predict_return().is_some() {
            popped += 1;
        }
        assert_eq!(popped, cfg.ras_entries);
    }

    #[test]
    fn distinct_pcs_learn_independent_directions() {
        let mut p = predictor();
        let a = VirtAddr::new(0x1000);
        let b = VirtAddr::new(0x2000);
        for _ in 0..12 {
            p.update(&update(0x1000, true, 1));
            p.update(&update(0x2000, false, 2));
        }
        assert!(p.predict_direction(a));
        assert!(!p.predict_direction(b));
    }
}
