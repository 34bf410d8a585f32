//! A reusable gather buffer for rebuild paths: one per structure, handed
//! out by value so the structure and the buffer never entangle for the
//! borrow checker. After warm-up its capacity covers every rebuild, and
//! steady-state rebalances allocate nothing. It outlives the elements that
//! pass through it, so it must not keep their bytes: callers take elements
//! out with `mem::take` or [`take_out`], never `drain` or `Vec::remove`,
//! which leave copies in the spare capacity.

/// A per-structure scratch arena: a `Vec<T>` whose capacity survives reuse.
#[derive(Debug, Clone, Default)]
pub struct Scratch<T> {
    buf: Vec<T>,
}

impl<T: Default> Scratch<T> {
    /// Takes the buffer out of the arena (empty, capacity preserved). Pair
    /// with [`Scratch::restore`]; taking twice without restoring simply
    /// yields a fresh buffer for the nested use.
    pub fn take(&mut self) -> Vec<T> {
        std::mem::take(&mut self.buf)
    }

    /// Returns a buffer to the arena, the larger capacity winning, after
    /// taking out what is left in it: neither buffer keeps an element.
    pub fn restore(&mut self, mut buf: Vec<T>) {
        buf.iter_mut().for_each(|e| drop(std::mem::take(e)));
        buf.clear();
        if buf.capacity() > self.buf.capacity() {
            self.buf = buf;
        }
    }

    /// Current capacity of the held buffer.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// `buf.remove(idx)` that leaves no copy behind: the slot past the new
/// length holds the default, not the old last element.
pub fn take_out<T: Default>(buf: &mut Vec<T>, idx: usize) -> T {
    let item = std::mem::take(&mut buf[idx]);
    buf[idx..].rotate_left(1);
    buf.pop();
    item
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_survives_reuse() {
        let mut scratch: Scratch<u64> = Scratch::default();
        let mut buf = scratch.take();
        buf.extend(0..1000);
        scratch.restore(buf);
        assert!(scratch.capacity() >= 1000);
        let buf = scratch.take();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 1000);
        scratch.restore(buf);
    }

    #[test]
    fn take_out_is_remove() {
        let mut buf: Vec<u64> = (1..=5).collect();
        assert_eq!(take_out(&mut buf, 1), 2);
        assert_eq!(buf, [1, 3, 4, 5]);
        assert_eq!(take_out(&mut buf, 3), 5);
        assert_eq!(buf, [1, 3, 4]);
    }

    #[test]
    fn nested_takes_are_safe() {
        let mut scratch: Scratch<u64> = Scratch::default();
        let mut a = scratch.take();
        a.extend(0..500);
        let b = scratch.take(); // nested: fresh buffer
        assert!(b.is_empty());
        scratch.restore(a);
        scratch.restore(b); // smaller capacity loses; arena keeps the 500-cap buffer
        assert!(scratch.capacity() >= 500);
    }
}
