//! LMAC frame geometry and liveness timers.
//!
//! The frame geometry is configurable; the two liveness timers are LMAC's
//! own and fixed here.

use crate::slots::MAX_SLOTS;

/// Frames a neighbour may stay unheard before it is declared dead and a
/// cross-layer notification is raised. LMAC keeps this small: a silent
/// node wastes its reserved slot.
pub(crate) const MAX_MISSED_FRAMES: u32 = 3;

/// Frames a joining node listens before choosing a slot. LMAC mandates at
/// least one full frame of observation.
pub(crate) const LISTEN_FRAMES_BEFORE_PICK: u32 = 1;

/// Configuration of the simulated LMAC instance.
#[derive(Clone, Copy, Debug)]
pub struct LmacConfig {
    /// Slots per TDMA frame. Must exceed the densest 2-hop neighbourhood
    /// for the distributed scheduler to converge.
    pub slots_per_frame: u16,
    /// Data messages one slot's data section can carry. The control section
    /// advertises the recipients of each; the paper's cost model counts
    /// messages, not slots.
    pub data_messages_per_slot: usize,
    /// Inert: nothing in the MAC reads it, and the slot loop is serial.
    /// The field stays only because the benchmark under `perfbench/`
    /// assigns it by name; drop it once the benchmark stops setting it.
    pub workers: usize,
}

impl Default for LmacConfig {
    fn default() -> Self {
        LmacConfig { slots_per_frame: 32, data_messages_per_slot: 4, workers: 1 }
    }
}

impl LmacConfig {
    /// Validate invariants; call once at network construction.
    pub fn validate(&self) {
        assert!(
            self.slots_per_frame > 0 && self.slots_per_frame <= MAX_SLOTS,
            "slots_per_frame must be in 1..={MAX_SLOTS}"
        );
        assert!(self.data_messages_per_slot >= 1, "a slot must carry at least one message");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        LmacConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "slots_per_frame")]
    fn zero_slots_rejected() {
        LmacConfig { slots_per_frame: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "slots_per_frame")]
    fn oversized_frame_rejected() {
        LmacConfig { slots_per_frame: 129, ..Default::default() }.validate();
    }
}
