//! The miss-dilution tracker: a 100-bit hit/miss shift vector.
//!
//! §4.2.2: "The miss shift-vector (MSV) is a 100-bit FIFO shift vector
//! recording the hit/miss history for the last 100 cache accesses
//! (enabled when cache is filled-up). A logic-0 and logic-1 represent a
//! cache hit and miss, respectively. When the number of logic-1 bits
//! reaches a threshold (dilution_t), SLICC enables migration. SLICC
//! resets the MSV with every migration."

/// A fixed-window hit/miss history with an O(1) ones-count.
///
/// # Example
///
/// ```
/// use slicc_core::MissShiftVector;
///
/// let mut msv = MissShiftVector::new(4);
/// msv.record(true);
/// msv.record(false);
/// msv.record(true);
/// assert_eq!(msv.miss_count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissShiftVector {
    bits: Vec<bool>,
    head: usize,
    filled: usize,
    ones: u32,
}

impl MissShiftVector {
    /// Creates an empty vector covering the last `window` accesses.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u32) -> Self {
        assert!(window > 0, "MSV window must be positive");
        MissShiftVector { bits: vec![false; window as usize], head: 0, filled: 0, ones: 0 }
    }

    /// Shifts in one access outcome (`true` = miss).
    pub fn record(&mut self, miss: bool) {
        if self.filled == self.bits.len() {
            // Evict the oldest bit.
            if self.bits[self.head] {
                self.ones -= 1;
            }
        } else {
            self.filled += 1;
        }
        self.bits[self.head] = miss;
        if miss {
            self.ones += 1;
        }
        self.head += 1;
        if self.head == self.bits.len() {
            self.head = 0;
        }
    }

    /// Misses among the recorded window.
    pub fn miss_count(&self) -> u32 {
        self.ones
    }

    /// Whether dilution has reached `dilution_t` (migration enabled).
    ///
    /// A threshold of zero means migration is always enabled once the
    /// cache is full — the Figure 7 sweep configuration.
    pub fn is_diluted(&self, dilution_t: u32) -> bool {
        self.ones >= dilution_t
    }

    /// Window length.
    pub fn window(&self) -> u32 {
        self.bits.len() as u32
    }

    /// Accesses recorded so far, up to the window length.
    pub fn recorded(&self) -> u32 {
        self.filled as u32
    }

    /// Clears the history (done on every migration).
    pub fn reset(&mut self) {
        self.bits.fill(false);
        self.head = 0;
        self.filled = 0;
        self.ones = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_misses_in_window() {
        let mut msv = MissShiftVector::new(100);
        for i in 0..50 {
            msv.record(i % 5 == 0); // 10 misses
        }
        assert_eq!(msv.miss_count(), 10);
        assert_eq!(msv.recorded(), 50);
    }

    #[test]
    fn old_outcomes_age_out() {
        let mut msv = MissShiftVector::new(4);
        msv.record(true);
        msv.record(true);
        msv.record(false);
        msv.record(false);
        assert_eq!(msv.miss_count(), 2);
        // Two more hits push both misses out of the 4-wide window.
        msv.record(false);
        msv.record(false);
        assert_eq!(msv.miss_count(), 0);
    }

    #[test]
    fn dilution_threshold_semantics() {
        let mut msv = MissShiftVector::new(10);
        assert!(msv.is_diluted(0), "zero threshold is always diluted");
        assert!(!msv.is_diluted(1));
        msv.record(true);
        assert!(msv.is_diluted(1));
        assert!(!msv.is_diluted(2));
    }

    #[test]
    fn reset_clears_everything() {
        let mut msv = MissShiftVector::new(8);
        for _ in 0..8 {
            msv.record(true);
        }
        msv.reset();
        assert_eq!(msv.miss_count(), 0);
        assert_eq!(msv.recorded(), 0);
        // Still functional after reset.
        msv.record(true);
        assert_eq!(msv.miss_count(), 1);
    }

    #[test]
    fn all_misses_saturates_at_window() {
        let mut msv = MissShiftVector::new(16);
        for _ in 0..100 {
            msv.record(true);
        }
        assert_eq!(msv.miss_count(), 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = MissShiftVector::new(0);
    }
}
