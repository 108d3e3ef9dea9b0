//! The dense in-flight tag window shared by the fabric's load table and
//! the flit tracer.
//!
//! Load tags are issued in sequence, so the live set is a sliding window
//! over the tag space: `tag - base` indexes a ring of slots, a retire
//! empties its slot in place, and the base advances past leading empty
//! slots. Insert, lookup and remove are O(1) indexes into storage that,
//! once warm, is never reallocated.

use std::collections::VecDeque;

/// Values keyed by load tag over a sliding window of the tag space.
#[derive(Debug, Clone)]
pub(crate) struct TagWindow<V> {
    /// Tag of `slots[0]`.
    base: u64,
    /// One slot per tag from `base` on; `None` slots are retired tags
    /// still behind a live one.
    slots: VecDeque<Option<V>>,
    /// Live (`Some`) slots.
    live: usize,
}

impl<V> Default for TagWindow<V> {
    fn default() -> Self {
        TagWindow {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<V> TagWindow<V> {
    fn index(&self, tag: u64) -> Option<usize> {
        usize::try_from(tag.checked_sub(self.base)?).ok()
    }

    /// Installs `value` for `tag`, growing the window as needed. An
    /// empty window re-bases to `tag` first, so a drained window never
    /// pads from an old base. A tag behind the base (already retired
    /// past) is ignored.
    pub(crate) fn insert(&mut self, tag: u64, value: V) {
        if self.live == 0 {
            self.slots.clear();
            self.base = tag;
        }
        let Some(idx) = self.index(tag) else {
            return;
        };
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].replace(value).is_none() {
            self.live += 1;
        }
    }

    /// The live value for `tag`, if any.
    pub(crate) fn get(&self, tag: u64) -> Option<&V> {
        self.slots.get(self.index(tag)?)?.as_ref()
    }

    /// Mutable variant of [`TagWindow::get`].
    pub(crate) fn get_mut(&mut self, tag: u64) -> Option<&mut V> {
        let idx = self.index(tag)?;
        self.slots.get_mut(idx)?.as_mut()
    }

    /// Removes and returns `tag`'s value, advancing the base past any
    /// leading retired slots.
    pub(crate) fn remove(&mut self, tag: u64) -> Option<V> {
        let idx = self.index(tag)?;
        let value = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Whether no tag is live.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops every entry (the storage is kept).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// Live entries in ascending tag order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(tag, v)| Some((tag, v.as_ref()?)))
    }

    /// Slots between the oldest live tag and the newest, live or not.
    #[cfg(test)]
    pub(crate) fn span(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(tags: std::ops::Range<u64>) -> TagWindow<u64> {
        let mut w = TagWindow::default();
        for t in tags {
            w.insert(t, t * 10);
        }
        w
    }

    #[test]
    fn out_of_order_removal_advances_the_base_only_past_retired_tags() {
        let mut w = window(0..8);
        assert_eq!(w.remove(3), Some(30));
        assert_eq!(w.remove(1), Some(10));
        // Tag 0 still live: nothing moves.
        assert_eq!(w.span(), 8);
        assert_eq!(w.remove(0), Some(0));
        // 0 and 1 retired; 2 is the new front.
        assert_eq!(w.span(), 6);
        assert_eq!(w.get(2), Some(&20));
        assert_eq!(w.get(3), None);
        assert_eq!(w.remove(3), None, "a retired tag cannot retire twice");
        assert_eq!(w.remove(2), Some(20));
        // 2 and the already retired 3 both fall off the front.
        assert_eq!(w.span(), 4);
        assert_eq!(w.len(), 4);
        for t in 4..8 {
            assert_eq!(w.remove(t), Some(t * 10));
        }
        assert!(w.is_empty());
        assert_eq!(w.span(), 0);
    }

    #[test]
    fn a_fault_in_the_middle_leaves_its_neighbours_intact() {
        let mut w = window(10..20);
        // Resolve the middle tag as a fault, as `fail_link` does.
        assert_eq!(w.remove(15), Some(150));
        assert_eq!(w.len(), 9);
        assert_eq!(w.span(), 10, "a hole in the middle keeps the window");
        assert_eq!(w.get(14), Some(&140));
        assert_eq!(w.get(16), Some(&160));
        assert_eq!(w.get(15), None);
        // A late completion for the faulted tag finds nothing.
        assert_eq!(w.remove(15), None);
        if let Some(v) = w.get_mut(16) {
            *v += 1;
        }
        for t in (10..20).filter(|&t| t != 15) {
            let want = if t == 16 { 161 } else { t * 10 };
            assert_eq!(w.remove(t), Some(want), "tag {t}");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn iteration_is_in_tag_order_over_live_tags() {
        let mut w = window(5..12);
        w.remove(9);
        w.remove(5);
        w.remove(7);
        let seen: Vec<(u64, u64)> = w.iter().map(|(t, &v)| (t, v)).collect();
        assert_eq!(seen, vec![(6, 60), (8, 80), (10, 100), (11, 110)]);
        // Stranded tags of one "link" resolve in ascending tag order.
        let odd: Vec<u64> = w
            .iter()
            .filter(|(t, _)| t % 2 == 1)
            .map(|(t, _)| t)
            .collect();
        assert_eq!(odd, vec![11]);
    }

    #[test]
    fn a_drained_window_rebases_instead_of_padding() {
        let mut w = window(100..101);
        assert_eq!(w.remove(100), Some(1000));
        w.insert(5_000, 1);
        assert_eq!(w.span(), 1);
        assert_eq!(w.get(5_000), Some(&1));
        // A tag behind the base is ignored.
        w.insert(4_999, 2);
        assert_eq!(w.len(), 1);
        assert_eq!(w.get(4_999), None);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.iter().count(), 0);
    }
}
