//! The `iter|pos|item` sequence tables and the Table-1 relational algebra
//! (σ, π, δ, ⊎, ⋈, ρ) specialized to them.
//!
//! Invariant: rows are sorted by `(iter, pos)` and `pos` numbers 1..k
//! within each `iter` group.

use std::collections::BTreeMap;
use xdm::{Item, Sequence};

/// A loop-lifted sequence: one row per item per loop iteration.
#[derive(Clone, Debug, Default)]
pub struct SeqTable {
    pub iter: Vec<u32>,
    pub pos: Vec<u32>,
    pub item: Vec<Item>,
}

impl SeqTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.iter.len()
    }

    pub fn is_empty(&self) -> bool {
        self.iter.is_empty()
    }

    pub fn push(&mut self, iter: u32, pos: u32, item: Item) {
        self.iter.push(iter);
        self.pos.push(pos);
        self.item.push(item);
    }

    /// Append `items` as the whole sequence of iteration `iter` (which must
    /// be above every iteration already present).
    pub fn push_items(&mut self, iter: u32, items: &[Item]) {
        self.number(iter, items.len());
        self.item.extend_from_slice(items);
    }

    /// [`push_items`](Self::push_items), moving the items: into an empty
    /// table the sequence moves whole and becomes the item column.
    pub fn push_sequence(&mut self, iter: u32, seq: Sequence) {
        self.number(iter, seq.len());
        if self.item.is_empty() {
            self.item = seq.into_items();
        } else {
            self.item.extend(seq);
        }
    }

    /// The `iter` and `pos` columns of `n` more rows, all of iteration `iter`.
    fn number(&mut self, iter: u32, n: usize) {
        self.iter.resize(self.iter.len() + n, iter);
        self.pos.extend(1..=n as u32);
    }

    /// A literal table (Table 1's literal-table operator): the same
    /// single item in every iteration of `loop_iters`.
    pub fn literal(loop_iters: &[u32], item: &Item) -> Self {
        let mut t = SeqTable::new();
        for &i in loop_iters {
            t.push(i, 1, item.clone());
        }
        t
    }

    /// The same sequence in every iteration of `loop_iters`: how a value
    /// that does not vary with the loop enters a lifted plan.
    pub fn broadcast(loop_iters: &[u32], seq: Sequence) -> Self {
        let mut t = SeqTable::new();
        let Some((&last, rest)) = loop_iters.split_last() else {
            return t;
        };
        if !rest.is_empty() {
            let rows = loop_iters.len() * seq.len();
            t.iter.reserve(rows);
            t.pos.reserve(rows);
            t.item.reserve(rows);
        }
        for &i in rest {
            t.push_items(i, seq.items());
        }
        t.push_sequence(last, seq);
        t
    }

    /// Split into the sequences of iterations `iters` (ascending), moving
    /// the items; rows of other iterations are dropped.
    pub fn into_sequences(self, iters: &[u32]) -> Vec<Sequence> {
        if let [only] = *iters {
            return vec![self.into_sequence_at(only)];
        }
        let mut out = Vec::with_capacity(iters.len());
        let mut items = self.item.into_iter();
        let mut groups = self.iter.chunk_by(|a, b| a == b).peekable();
        for &i in iters {
            while let Some(g) = groups.next_if(|g| g[0] < i) {
                items.by_ref().take(g.len()).for_each(drop);
            }
            out.push(match groups.next_if(|g| g[0] == i) {
                Some([_]) => Sequence::one(items.next().expect("a row per iter entry")),
                Some(g) => Sequence::from_items(items.by_ref().take(g.len()).collect()),
                None => Sequence::empty(),
            });
        }
        out
    }

    /// [`into_sequences`](Self::into_sequences) of a table that is only
    /// lent: the items are copied.
    pub fn sequences(&self, iters: &[u32]) -> Vec<Sequence> {
        let mut groups = self.groups();
        let of = |&i| match groups.at(i) {
            [one] => Sequence::one(one.clone()),
            items => Sequence::from_items(items.to_vec()),
        };
        iters.iter().map(of).collect()
    }

    /// [`sequence_at`](Self::sequence_at) of a table no longer needed: an
    /// iteration that owns every row takes the item column as it is.
    pub(crate) fn into_sequence_at(self, iter: u32) -> Sequence {
        if self.iter.first() == Some(&iter) && self.iter.last() == Some(&iter) {
            Sequence::from_items(self.item)
        } else {
            self.sequence_at(iter)
        }
    }

    /// A cursor over the groups of ascending iterations: no search per
    /// lookup, no copy of the items.
    pub fn groups(&self) -> Groups<'_> {
        Groups { table: self, at: 0 }
    }

    /// Build from one `(iter, Sequence)` pair per iteration (pairs must be
    /// in ascending iter order).
    pub fn from_sequences(pairs: impl IntoIterator<Item = (u32, Sequence)>) -> Self {
        let mut t = SeqTable::new();
        for (iter, seq) in pairs {
            t.push_sequence(iter, seq);
        }
        t
    }

    /// The items of one iteration as an XDM sequence.
    pub fn sequence_at(&self, iter: u32) -> Sequence {
        let (lo, hi) = self.iter_range(iter);
        match &self.item[lo..hi] {
            [one] => Sequence::one(one.clone()),
            items => Sequence::from_items(items.to_vec()),
        }
    }

    /// Group boundaries of an iteration (binary search on the sorted
    /// `iter` column).
    pub fn iter_range(&self, iter: u32) -> (usize, usize) {
        let lo = self.iter.partition_point(|&i| i < iter);
        let hi = self.iter.partition_point(|&i| i <= iter);
        (lo, hi)
    }

    /// σ: keep only the rows of the given (sorted) iterations.
    pub fn restrict(&self, iters: &[u32]) -> SeqTable {
        let mut t = SeqTable::new();
        for &i in iters {
            let (lo, hi) = self.iter_range(i);
            for r in lo..hi {
                t.push(self.iter[r], self.pos[r], self.item[r].clone());
            }
        }
        t
    }

    /// ⊎ of several operand tables *per iteration*, in operand order —
    /// this is how `(e1, e2)` sequence construction is lifted.
    pub fn concat_per_iter(loop_iters: &[u32], operands: &[SeqTable]) -> SeqTable {
        let mut t = SeqTable::new();
        for &i in loop_iters {
            let mut pos = 1u32;
            for op in operands {
                let (lo, hi) = op.iter_range(i);
                for r in lo..hi {
                    t.push(i, pos, op.item[r].clone());
                    pos += 1;
                }
            }
        }
        t
    }

    /// Merge-union of disjoint-iter tables, keeping the (iter, pos) sort —
    /// the final step of Figure 1 (`⋃(res_p1, res_p2)`).
    pub fn merge_union(mut tables: Vec<SeqTable>) -> SeqTable {
        if tables.len() == 1 {
            return tables.pop().expect("one operand");
        }
        let mut groups: BTreeMap<u32, Vec<(u32, Item)>> = BTreeMap::new();
        for t in tables {
            for r in 0..t.len() {
                groups
                    .entry(t.iter[r])
                    .or_default()
                    .push((t.pos[r], t.item[r].clone()));
            }
        }
        let mut out = SeqTable::new();
        for (iter, mut rows) in groups {
            rows.sort_by_key(|(p, _)| *p);
            for (p, (_, item)) in rows.into_iter().enumerate() {
                out.push(iter, p as u32 + 1, item);
            }
        }
        out
    }
}

/// See [`SeqTable::groups`].
pub struct Groups<'a> {
    table: &'a SeqTable,
    at: usize,
}

impl<'a> Groups<'a> {
    /// The items of iteration `iter`; iterations must be asked for in
    /// ascending order.
    pub fn at(&mut self, iter: u32) -> &'a [Item] {
        let iters = &self.table.iter;
        while self.at < iters.len() && iters[self.at] < iter {
            self.at += 1;
        }
        let lo = self.at;
        while self.at < iters.len() && iters[self.at] == iter {
            self.at += 1;
        }
        &self.table.item[lo..self.at]
    }
}

/// ρ + map table of Figure 2: the mapping between outer iterations and
/// the densely renumbered inner/per-peer iterations.
///
/// Row `k` (0-based) maps inner iteration `k + 1` to `outer[k]`.
#[derive(Clone, Debug, Default)]
pub struct IterMap {
    pub outer: Vec<u32>,
}

impl IterMap {
    /// ρ: assign dense inner numbers 1..n to the given outer iterations
    /// (in the order given — ascending for the sorted tables we build).
    pub fn rank(outer: Vec<u32>) -> Self {
        IterMap { outer }
    }

    pub fn to_outer(&self, inner: u32) -> u32 {
        self.outer[(inner - 1) as usize]
    }

    /// Map an outer-iter table into inner numbering: Figure 2's
    /// `req_p = π(ρ(⋈(map_p, param)))`. Outer iterations may repeat
    /// (several inner iterations per outer one).
    pub fn map_in(&self, outer_table: &SeqTable) -> SeqTable {
        let mut t = SeqTable::new();
        for (k, &o) in self.outer.iter().enumerate() {
            let (lo, hi) = outer_table.iter_range(o);
            for r in lo..hi {
                t.push(
                    k as u32 + 1,
                    outer_table.pos[r],
                    outer_table.item[r].clone(),
                );
            }
        }
        t
    }

    /// Map an inner-iter table back to outer numbering: Figure 2's
    /// `res_p = π(⋈(msg_p, map_p))`. Several inner iterations may map to
    /// one outer iteration (a for-loop body); their sequences concatenate
    /// in inner order and `pos` is renumbered per outer group. Requires
    /// `outer` to be non-decreasing (it is: ranks are taken over sorted
    /// iteration columns).
    pub fn map_back(&self, mut inner_table: SeqTable) -> SeqTable {
        debug_assert!(self.outer.windows(2).all(|w| w[0] <= w[1]));
        // rows keep their order, so the item column stays where it is:
        // only the numbering changes
        let (mut cur_outer, mut pos) = (None, 0u32);
        for (iter, p) in inner_table.iter.iter_mut().zip(&mut inner_table.pos) {
            *iter = self.to_outer(*iter);
            pos = if cur_outer == Some(*iter) { pos + 1 } else { 1 };
            cur_outer = Some(*iter);
            *p = pos;
        }
        inner_table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(t: &SeqTable) -> Vec<String> {
        t.item.iter().map(|i| i.string_value()).collect()
    }

    #[test]
    fn literal_and_ranges() {
        let t = SeqTable::literal(&[1, 2, 3], &Item::integer(7));
        assert_eq!(t.len(), 3);
        assert_eq!(t.iter_range(2), (1, 2));
        assert_eq!(t.sequence_at(2).len(), 1);
        assert_eq!(t.sequence_at(9).len(), 0);
    }

    #[test]
    fn broadcast_and_into_sequences() {
        let seq = Sequence::from_items(vec![Item::integer(1), Item::integer(2)]);
        let t = SeqTable::broadcast(&[1, 3], seq);
        assert_eq!(t.iter, vec![1, 1, 3, 3]);
        assert_eq!(t.pos, vec![1, 2, 1, 2]);
        let parts = t.into_sequences(&[1, 2, 3]);
        assert_eq!(
            parts.iter().map(Sequence::len).collect::<Vec<_>>(),
            [2, 0, 2]
        );
        assert!(SeqTable::broadcast(&[1, 2], Sequence::empty()).is_empty());
    }

    #[test]
    fn groups_walk_ascending_iterations() {
        let t = SeqTable::from_sequences(vec![
            (
                2,
                Sequence::from_items(vec![Item::integer(20), Item::integer(21)]),
            ),
            (5, Sequence::one(Item::integer(50))),
        ]);
        let mut g = t.groups();
        let lens: Vec<usize> = [1, 2, 3, 5, 9].iter().map(|&i| g.at(i).len()).collect();
        assert_eq!(lens, [0, 2, 0, 1, 0]);
    }

    #[test]
    fn from_sequences_renumbers_pos() {
        let t = SeqTable::from_sequences(vec![
            (
                1,
                Sequence::from_items(vec![Item::integer(10), Item::integer(11)]),
            ),
            (3, Sequence::one(Item::integer(30))),
        ]);
        assert_eq!(t.iter, vec![1, 1, 3]);
        assert_eq!(t.pos, vec![1, 2, 1]);
    }

    #[test]
    fn restrict_keeps_sorted_subset() {
        let t = SeqTable::from_sequences(vec![
            (1, Sequence::one(Item::integer(1))),
            (2, Sequence::one(Item::integer(2))),
            (3, Sequence::one(Item::integer(3))),
        ]);
        let r = t.restrict(&[1, 3]);
        assert_eq!(items(&r), ["1", "3"]);
    }

    #[test]
    fn concat_per_iter_matches_paper_z_example() {
        // §3.1's $z := ($x, $y) example: four iterations, two values each.
        let x = SeqTable::from_sequences((1..=4).map(|i| {
            (
                i,
                Sequence::one(Item::integer(if i <= 2 { 10 } else { 20 })),
            )
        }));
        let y = SeqTable::from_sequences((1..=4).map(|i| {
            (
                i,
                Sequence::one(Item::integer(if i % 2 == 1 { 100 } else { 200 })),
            )
        }));
        let z = SeqTable::concat_per_iter(&[1, 2, 3, 4], &[x, y]);
        assert_eq!(z.iter, vec![1, 1, 2, 2, 3, 3, 4, 4]);
        assert_eq!(z.pos, vec![1, 2, 1, 2, 1, 2, 1, 2]);
        assert_eq!(
            items(&z),
            ["10", "100", "10", "200", "20", "100", "20", "200"]
        );
    }

    #[test]
    fn iter_map_roundtrip_figure1() {
        // Figure 1: peer p1 handles outer iters {1, 3}, p2 handles {2, 4}.
        let actor = SeqTable::from_sequences(vec![
            (1, Sequence::one(Item::string("Julie Andrews"))),
            (2, Sequence::one(Item::string("Julie Andrews"))),
            (3, Sequence::one(Item::string("Sean Connery"))),
            (4, Sequence::one(Item::string("Sean Connery"))),
        ]);
        let map_p1 = IterMap::rank(vec![1, 3]);
        let map_p2 = IterMap::rank(vec![2, 4]);
        let req_p1 = map_p1.map_in(&actor);
        assert_eq!(req_p1.iter, vec![1, 2]);
        assert_eq!(items(&req_p1), ["Julie Andrews", "Sean Connery"]);

        // peer p1's bulk answer: iter_p 2 → two films, iter_p 1 → none
        let msg_p1 = SeqTable::from_sequences(vec![(
            2,
            Sequence::from_items(vec![Item::string("The Rock"), Item::string("Goldfinger")]),
        )]);
        let msg_p2 =
            SeqTable::from_sequences(vec![(1, Sequence::one(Item::string("Sound Of Music")))]);
        let res_p1 = map_p1.map_back(msg_p1);
        let res_p2 = map_p2.map_back(msg_p2);
        assert_eq!(res_p1.iter, vec![3, 3]);
        assert_eq!(res_p2.iter, vec![2]);
        let result = SeqTable::merge_union(vec![res_p1, res_p2]);
        assert_eq!(result.iter, vec![2, 3, 3]);
        assert_eq!(items(&result), ["Sound Of Music", "The Rock", "Goldfinger"]);
    }

    #[test]
    fn merge_union_restores_order() {
        let a = SeqTable::from_sequences(vec![(3, Sequence::one(Item::integer(3)))]);
        let b = SeqTable::from_sequences(vec![
            (1, Sequence::one(Item::integer(1))),
            (5, Sequence::one(Item::integer(5))),
        ]);
        let m = SeqTable::merge_union(vec![a, b]);
        assert_eq!(m.iter, vec![1, 3, 5]);
        assert_eq!(items(&m), ["1", "3", "5"]);
    }

    #[test]
    fn map_in_expands_repeated_outer_iters() {
        // one outer iteration feeding two inner iterations
        let v = SeqTable::from_sequences(vec![(7, Sequence::one(Item::string("x")))]);
        let map = IterMap::rank(vec![7, 7]);
        let inner = map.map_in(&v);
        assert_eq!(inner.iter, vec![1, 2]);
        assert_eq!(items(&inner), ["x", "x"]);
    }
}
