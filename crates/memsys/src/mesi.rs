//! MESI coherence states.
//!
//! Every line in a private cache carries a [`MesiState`]. The shared L2 tracks
//! presence only (its lines are either valid or not, with a dirty bit), while
//! the per-core L1s and the MuonTrap filter caches use the full state machine.
//! Section 4.5 of the paper restricts filter caches to the `Shared` state plus
//! an `SE` bookkeeping pseudo-state; that pseudo-state lives in the `muontrap`
//! crate because it is not a real coherence state.

use std::fmt;

/// A MESI coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MesiState {
    /// The line is not present.
    #[default]
    Invalid,
    /// The line is present, clean, and may be present elsewhere.
    Shared,
    /// The line is present, clean, and no other cache holds it.
    Exclusive,
    /// The line is present, dirty, and no other cache holds it.
    Modified,
}

impl MesiState {
    /// Whether the line can be read without a coherence transaction.
    #[inline]
    pub const fn can_read(self) -> bool {
        !matches!(self, MesiState::Invalid)
    }

    /// Whether the line can be written without a coherence transaction.
    #[inline]
    pub const fn can_write(self) -> bool {
        matches!(self, MesiState::Exclusive | MesiState::Modified)
    }

    /// Whether the state implies no other cache holds the line.
    #[inline]
    pub const fn is_private(self) -> bool {
        matches!(self, MesiState::Exclusive | MesiState::Modified)
    }

    /// Whether the line holds data that must be written back before eviction.
    #[inline]
    pub const fn is_dirty(self) -> bool {
        matches!(self, MesiState::Modified)
    }

    /// The state a remote cache's copy moves to when this core performs a
    /// read (a `GetS` snoop): M/E/S collapse to Shared, Invalid stays Invalid.
    #[inline]
    pub const fn after_remote_read(self) -> MesiState {
        match self {
            MesiState::Invalid => MesiState::Invalid,
            _ => MesiState::Shared,
        }
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let letter = match self {
            MesiState::Invalid => "I",
            MesiState::Shared => "S",
            MesiState::Exclusive => "E",
            MesiState::Modified => "M",
        };
        f.write_str(letter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_permissions() {
        assert!(!MesiState::Invalid.can_read());
        assert!(MesiState::Shared.can_read());
        assert!(!MesiState::Shared.can_write());
        assert!(MesiState::Exclusive.can_write());
        assert!(MesiState::Modified.can_write());
    }

    #[test]
    fn privacy_and_dirtiness() {
        assert!(MesiState::Exclusive.is_private());
        assert!(MesiState::Modified.is_private());
        assert!(!MesiState::Shared.is_private());
        assert!(MesiState::Modified.is_dirty());
        assert!(!MesiState::Exclusive.is_dirty());
    }

    #[test]
    fn snoop_transitions() {
        assert_eq!(MesiState::Modified.after_remote_read(), MesiState::Shared);
        assert_eq!(MesiState::Exclusive.after_remote_read(), MesiState::Shared);
        assert_eq!(MesiState::Shared.after_remote_read(), MesiState::Shared);
        assert_eq!(MesiState::Invalid.after_remote_read(), MesiState::Invalid);
    }

    #[test]
    fn default_is_invalid() {
        assert_eq!(MesiState::default(), MesiState::Invalid);
    }

    #[test]
    fn display_is_single_letter() {
        assert_eq!(format!("{}", MesiState::Modified), "M");
        assert_eq!(format!("{}", MesiState::Invalid), "I");
    }
}
