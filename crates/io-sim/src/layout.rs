//! Address-space layout.
//!
//! Cache-oblivious structures in this workspace are array-based: the PMA is
//! one big array of slots, the vEB trees are arrays of nodes. To charge I/Os
//! for them we only need to map *element indices* to *byte addresses* in the
//! simulated address space. A [`Region`] records a base address and an
//! element size and performs that mapping.

/// A contiguous region of the simulated address space holding fixed-size
/// elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Base byte address.
    pub base: u64,
    /// Size of one element in bytes.
    pub elem_size: u64,
    /// Number of element slots in the region.
    pub slots: u64,
}

impl Region {
    /// Creates a region at `base` with `slots` slots of `elem_size` bytes.
    pub fn new(base: u64, elem_size: u64, slots: u64) -> Self {
        assert!(elem_size > 0, "element size must be positive");
        Self {
            base,
            elem_size,
            slots,
        }
    }

    /// Byte address of slot `index`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `index` is out of bounds.
    #[inline]
    pub fn addr(&self, index: u64) -> u64 {
        debug_assert!(index < self.slots, "slot {index} out of {}", self.slots);
        self.base + index * self.elem_size
    }

    /// Byte length of `count` consecutive slots.
    #[inline]
    pub fn span(&self, count: u64) -> u64 {
        count * self.elem_size
    }

    /// Total byte length of the region.
    pub fn byte_len(&self) -> u64 {
        self.slots * self.elem_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_addressing() {
        let r = Region::new(1000, 8, 100);
        assert_eq!(r.addr(0), 1000);
        assert_eq!(r.addr(5), 1040);
        assert_eq!(r.span(3), 24);
        assert_eq!(r.byte_len(), 800);
    }

    #[test]
    #[should_panic(expected = "element size")]
    fn zero_elem_size_panics() {
        Region::new(0, 0, 10);
    }
}
