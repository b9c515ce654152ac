//! Compiled per-table match indexes: sub-linear lookup structures built
//! once by the [`ExecPlan`](crate::plan::ExecPlan) when the pipeline is
//! instantiated.
//!
//! The reference lookup ([`Table::lookup_linear`]) is an O(n) scan over
//! every installed entry. A [`MatchIndex`] replaces that scan on the
//! plan-driven hot path with one of two structures:
//!
//! * **Direct** — any kind whose entries span at most `DIRECT_BITS` (10) key
//!   bits. Each field's *domain* is the smallest all-ones mask covering
//!   the exact values, care masks or range upper bounds its entries name;
//!   the domains side by side number at most 1,024 rows, and the build
//!   fills every row with the linear oracle's answer for it. A lookup
//!   reads one row. A component with bits above its domain is a miss for
//!   exact and range tables (no entry holds such a value) and is masked
//!   for ternary ones (no pattern cares about those bits). Most of a
//!   compiled program's tables are this narrow: they key on flags,
//!   subtree ids and counters' few bits.
//! * **Ternary** — every other table, read as ternary rules. A ternary
//!   entry is one rule. An exact entry is one rule whose patterns are its
//!   values under full masks, so a value with bits above the field's
//!   width still misses. A range entry is the cross product of its
//!   fields' prefix covers (`splidt_ranging::range_to_prefixes` over 64
//!   bits), every rule at the entry's priority. A compiled program's
//!   wide tables are all ternary already (`splidt_ranging` lowers its
//!   feature ranges to prefixes); only hand-built programs reach this
//!   index with exact or range entries.
//!
//!   The rules sit behind one *pivot* dispatch, then a branch-light group.
//!   The care bits every non-wildcard pattern of a field shares fix that
//!   pattern's value over them, so they index a dense array directly:
//!   `(v & mask) >> shift`, no hashing. The field whose shared bits
//!   leave the smallest largest group becomes the pivot (compiled
//!   programs key every feature-slot, keygen and model MAT on the
//!   subtree id, so it is always `m.sid`: a packet only ever sees its
//!   own subtree's few rules); rules wildcard on it join every group.
//!   A group then resolves one of two ways:
//!   * **interval** — its only remaining live field carries prefix
//!     patterns (contiguous care bits under a common top bit, what
//!     `range_to_prefixes` emits: every `keygen_*` group). Prefixes are
//!     ranges, so the group cuts that field into *elementary intervals*
//!     (`splidt_ranging::elementary_cuts`) with the winner of each
//!     precomputed — lookup is one `partition_point`.
//!   * **bits** — per live field one dense row of candidate bits, again
//!     indexed by the field's shared care bits, AND-ed with no early
//!     exit. Fields whose patterns all care about exactly the indexed
//!     bits are decided by their row; survivors are checked in rank
//!     order against the remaining fields' patterns only, so with none
//!     remaining the lowest set bit wins outright, and with no indexable
//!     field at all the group is a rank-ordered scan.
//!
//! Bit `r` of every bitmask is the rule of **rank** `r` (priority
//! descending, ties to the lowest install index), so the first set bit
//! of an intersection is already the highest-priority survivor — no
//! per-candidate priority comparison. The rules one entry expands into
//! are disjoint, so their order among themselves does not matter.
//!
//! One [`TernaryIndex`] may hold the rules of several *member* tables
//! that key on one field list: a plan step whose tables share a key
//! probes them all at once ([`TernaryIndex::lookup_each`]). Ranks are
//! then **member-major** — member 0's rules in rank order, then member
//! 1's — so one pivot dispatch and one AND of each filter row serve every
//! member. Walking the survivors in rank order, a member's first rule
//! that passes verification is its winner and the rest of its rules are
//! skipped; an interval group stores one winner per member per interval.
//! A table's own index is the one-member case.
//!
//! Lookups read key component `i` through one accessor, `Key::get`: the
//! pinned [`MatchIndex::lookup`] passes a slice of values, and the wave
//! executor a view of the packet's PHV through the slot's key field ids,
//! so no key is copied out before it is looked up. Each index reads only
//! the components it inspects — a ternary pivot and its group's live
//! fields, say.
//!
//! Index results equal the linear oracle bit-for-bit, including for
//! patterns the oracle can never match (`value & !mask != 0`, installable
//! through `Ternary`'s public fields): those are dropped at build time.
//! The `indexed_lookup_equals_linear` proptest holds the two paths
//! equivalent over random and compiler-shaped table contents, priorities
//! (including ties) and key streams, and `shared_lookup_equals_linear`
//! holds every member of a shared index to its own table's oracle.
//!
//! [`Table::lookup_linear`]: crate::table::Table::lookup_linear

use crate::phv::FieldId;
use crate::table::{EntryKey, MatchKind, Table};
use crate::tcam::Ternary;
use splidt_ranging::{elementary_cuts, interval_of, range_to_prefixes};
use std::cmp::Reverse;

/// Sentinel for "no entry" in precomputed winner arrays.
const NONE: u32 = u32::MAX;

/// Row budget of a dense direct-indexed array (pivot dispatch, filter
/// rows): this many per rule it indexes, and never more than
/// [`DENSE_ROWS_MAX`]. It keeps index memory and build time linear in
/// the table, whatever the key width: a filter whose shared care bits
/// span more leaves its field to verification, a pivot indexes their
/// low end only.
const DENSE_ROWS_PER_RULE: u64 = 64;
/// Most rows any dense array may have.
const DENSE_ROWS_MAX: u64 = 4096;

/// Most key bits, over all fields, a [`MatchIndex::Direct`] table may
/// span. At 10 its rows are at most 1,024 × 4 B = 4 KiB, a small part of
/// L1, so the one row a lookup reads is as cheap to reach as the probe,
/// search or dispatch it replaces, and a build fills at most 1,024 rows.
/// A fused plan step's row table has the same budget.
pub(crate) const DIRECT_BITS: u32 = 10;

/// Build bound of a direct table: rows × entries, the oracle scans one
/// row costs. Tables past it take the ternary index.
const DIRECT_BUILD_MAX: usize = 1 << 20;

/// A compiled lookup index for one table. See the module docs for the
/// two structures.
#[derive(Debug, Clone)]
pub enum MatchIndex {
    /// Any kind whose entries span at most 10 key bits (`DIRECT_BITS`):
    /// one precomputed row per key value.
    Direct(DirectIndex),
    /// Every other table, its entries as ternary rules behind a pivot
    /// dispatch into per-value groups.
    Ternary(TernaryIndex),
}

/// Pivot-dispatched ternary index over the rules of one or more
/// *member* tables that key on one field list. Every group lists its
/// rules in rank order, member-major: member 0's rules first, and within
/// a member rank 0 is the rule the linear oracle would prefer over all
/// others it ties or beats.
#[derive(Debug, Clone)]
pub struct TernaryIndex {
    /// How many tables' rules it holds; a table's own index holds one.
    members: usize,
    /// The field the rules are split on; `None` when no field's shared
    /// care bits split them (the table is then `groups[0]` alone).
    pivot: Option<DenseBits>,
    /// Pivot row → index into `groups`. Rows no rule names share group 0,
    /// which holds the rules wildcard on the pivot.
    dispatch: Vec<u32>,
    groups: Vec<TernaryGroup>,
}

/// The shared care bits of one key field as a direct array index.
#[derive(Debug, Clone, Copy)]
struct DenseBits {
    field: usize,
    mask: u64,
    shift: u32,
}

/// The rules one pivot value can match, in rank order.
#[derive(Debug, Clone)]
enum TernaryGroup {
    /// One live field of prefix patterns: elementary intervals with the
    /// winner of each precomputed.
    Interval {
        field: usize,
        /// All bits up to the prefixes' common top bit; key bits above it
        /// are cared about by no pattern.
        domain: u64,
        /// Elementary cut points (`splidt_ranging::elementary_cuts`).
        cuts: Vec<u64>,
        /// Interval-major, one per member: each member's winning entry
        /// index (`u32::MAX` = miss); `(cuts.len() + 1) * members` long.
        winners: Vec<u32>,
    },
    /// Bit-parallel candidate rows.
    Bits(BitGroup),
}

#[derive(Debug, Clone)]
struct BitGroup {
    /// Group rank → original entry index (what the pipeline hit-counts).
    entry_of: Vec<u32>,
    /// Per member, the group rank its rules end at (exclusive).
    member_ends: Vec<u32>,
    /// Row width in `u64` words (⌈rules / 64⌉).
    words: usize,
    filters: Vec<BitFilter>,
    /// The live fields no filter decides exactly.
    verify_fields: Vec<usize>,
    /// Group-rank-major patterns of `verify_fields`.
    verify_pats: Vec<Ternary>,
}

/// One field's candidate rows: row `i` has the bit of every rule that is
/// wildcard on the indexed bits or whose value over them is `i`.
#[derive(Debug, Clone)]
struct BitFilter {
    bits: DenseBits,
    /// `bits.rows() * words`, row-major.
    rows: Vec<u64>,
}

/// One precomputed winner per key value of a narrow table. Each field's
/// *domain* is the smallest all-ones mask covering what the entries
/// name on it (exact values, ternary care masks, range upper bounds);
/// the fields' domain bits, packed side by side, number the row.
#[derive(Debug, Clone)]
pub struct DirectIndex {
    /// Per key field, in match order: `(domain, shift)`, the field's
    /// domain and the row bit its lowest domain bit lands on.
    fields: Vec<(u64, u32)>,
    /// Whether a component with bits above its domain misses (exact and
    /// range: no entry holds such a value) rather than being masked
    /// (ternary: no pattern cares about those bits).
    clip: bool,
    /// Row → winning entry index (`u32::MAX` = miss), filled by the
    /// linear oracle.
    rows: Vec<u32>,
}

impl MatchIndex {
    /// Compiles the index for `table`'s current entries.
    pub fn build(table: &Table) -> Self {
        match DirectIndex::build(table) {
            Some(direct) => MatchIndex::Direct(direct),
            None => MatchIndex::Ternary(TernaryIndex::build(&[table])),
        }
    }

    /// Looks up pre-materialized key values (one per key field, in match
    /// order). Returns the winning entry index under the same semantics
    /// as [`Table::lookup_linear_key`](crate::table::Table::lookup_linear_key):
    /// highest priority, ties to the lowest install index.
    ///
    /// `scratch` is unused: no index needs a buffer. The argument stays
    /// because the `perf_ledger` benchmark pins this signature.
    #[inline]
    pub fn lookup(&self, key: &[u64], _scratch: &mut Vec<u64>) -> Option<usize> {
        self.lookup_key(key)
    }

    /// [`MatchIndex::lookup`] over any [`Key`]: each index reads only the
    /// components it inspects, where they already are.
    #[inline]
    pub(crate) fn lookup_key<K: Key + ?Sized>(&self, key: &K) -> Option<usize> {
        match self {
            MatchIndex::Direct(d) => d.lookup(key),
            MatchIndex::Ternary(t) => t.lookup(key),
        }
    }
}

/// A lookup key's components, in match order: a slice of values, or
/// [`PhvKey`], which reads each one where the packet holds it.
pub(crate) trait Key {
    /// Component `i`.
    fn get(&self, i: usize) -> u64;
}

impl Key for [u64] {
    #[inline]
    fn get(&self, i: usize) -> u64 {
        self[i]
    }
}

/// A table's key read in place from a PHV: component `i` is
/// `values[fields[i]]`.
pub(crate) struct PhvKey<'a> {
    pub(crate) values: &'a [u64],
    pub(crate) fields: &'a [FieldId],
}

impl Key for PhvKey<'_> {
    #[inline]
    fn get(&self, i: usize) -> u64 {
        self.values[self.fields[i].index()]
    }
}

impl DirectIndex {
    /// The direct index of `table`, if its entries span at most
    /// [`DIRECT_BITS`] key bits and filling the rows stays within
    /// [`DIRECT_BUILD_MAX`] oracle steps.
    fn build(table: &Table) -> Option<Self> {
        let mut cover = vec![0u64; table.spec().key.len()];
        for e in table.entries() {
            for (i, c) in cover.iter_mut().enumerate() {
                *c |= match &e.key {
                    EntryKey::Exact(values) => values[i],
                    EntryKey::Ternary { fields, .. } => fields[i].mask,
                    EntryKey::Range { fields, .. } => fields[i].1,
                };
            }
        }
        let mut shift = 0;
        let fields: Vec<(u64, u32)> = cover
            .iter()
            .map(|&c| {
                let bits = u64::BITS - c.leading_zeros();
                let field = (u64::MAX.checked_shr(c.leading_zeros()).unwrap_or(0), shift);
                shift += bits;
                field
            })
            .collect();
        if shift > DIRECT_BITS {
            return None;
        }
        let n_rows = 1usize << shift;
        if n_rows * table.n_entries() > DIRECT_BUILD_MAX {
            return None;
        }
        let mut key = vec![0u64; fields.len()];
        let rows = (0..n_rows as u64)
            .map(|row| {
                for (k, &(domain, shift)) in key.iter_mut().zip(&fields) {
                    *k = (row >> shift) & domain;
                }
                table.lookup_linear_key(&key).map_or(NONE, |i| i as u32)
            })
            .collect();
        Some(Self { fields, clip: table.spec().kind != MatchKind::Ternary, rows })
    }

    /// Each key field's domain, in match order.
    pub(crate) fn domains(&self) -> impl Iterator<Item = u64> + '_ {
        self.fields.iter().map(|&(domain, _)| domain)
    }

    #[inline]
    fn lookup<K: Key + ?Sized>(&self, key: &K) -> Option<usize> {
        let mut row = 0;
        for (i, &(domain, shift)) in self.fields.iter().enumerate() {
            let v = key.get(i);
            if self.clip && v & !domain != 0 {
                return None;
            }
            row |= ((v & domain) as usize) << shift;
        }
        let w = self.rows[row];
        (w != NONE).then_some(w as usize)
    }
}

/// Elementary cuts of one field's `(range, member, entry)` list, given
/// in rank order, and per interval each member's first-listed entry
/// covering it.
fn interval_winners(ranked: &[((u64, u64), u32, u32)], members: usize) -> (Vec<u64>, Vec<u32>) {
    let cuts = elementary_cuts(ranked.iter().map(|r| r.0));
    let mut winners = vec![NONE; (cuts.len() + 1) * members];
    for (i, won) in winners.chunks_exact_mut(members).enumerate() {
        // Elementary intervals never straddle a range boundary, so
        // covering the start covers it all.
        let start = if i == 0 { 0 } else { cuts[i - 1] };
        for &((lo, hi), member, entry) in ranked.iter().rev() {
            if lo <= start && start <= hi {
                won[member as usize] = entry;
            }
        }
    }
    (cuts, winners)
}

/// The care bits every non-wildcard mask shares: each such pattern's
/// value over them is fixed, so they can index an array. `None` when all
/// masks are wildcard or the others share no bit.
fn shared_care(masks: impl Iterator<Item = u64>) -> Option<u64> {
    let shared = masks.filter(|&m| m != 0).reduce(|a, b| a & b)?;
    (shared != 0).then_some(shared)
}

impl DenseBits {
    /// Indexes `field` by the low end of `shared` that fits the row
    /// budget of `rules` (≥ 1) rules.
    fn new(field: usize, shared: u64, rules: usize) -> Self {
        let budget = (DENSE_ROWS_PER_RULE * rules as u64).min(DENSE_ROWS_MAX);
        let span = 1u64 << budget.ilog2();
        let shift = shared.trailing_zeros();
        DenseBits { field, mask: shared & ((span - 1) << shift), shift }
    }

    fn rows(&self) -> usize {
        (self.mask >> self.shift) as usize + 1
    }

    #[inline]
    fn row_of(&self, value: u64) -> usize {
        ((value & self.mask) >> self.shift) as usize
    }
}

/// One ternary rule: its member table, entry index and per-field
/// patterns.
#[derive(Clone, Copy)]
struct Rule<'a> {
    member: u32,
    entry: u32,
    pats: &'a [Ternary],
}

impl TernaryIndex {
    /// Compiles the rules of `tables` (member `j` is `tables[j]`): one
    /// probe then finds every member's winner
    /// ([`TernaryIndex::lookup_each`]).
    ///
    /// # Panics
    ///
    /// If the tables do not all key on one field list.
    pub fn build(tables: &[&Table]) -> Self {
        let n_fields = tables.first().map_or(0, |t| t.spec().key.len());
        assert!(
            tables.iter().all(|t| t.spec().key == tables[0].spec().key),
            "a shared ternary index needs one key field list"
        );
        // Per rule its `(member, priority, entry)`, and `n_fields` patterns
        // each.
        let mut heads: Vec<(u32, u32, u32)> = Vec::new();
        let mut pats: Vec<Ternary> = Vec::new();
        for (member, table) in tables.iter().enumerate() {
            let member = member as u32;
            for (entry, e) in table.entries().iter().enumerate() {
                let entry = entry as u32;
                match &e.key {
                    EntryKey::Exact(values) => {
                        heads.push((member, 0, entry));
                        pats.extend(values.iter().map(|&value| Ternary { value, mask: u64::MAX }));
                    }
                    EntryKey::Ternary { fields, priority } => {
                        heads.push((member, *priority, entry));
                        pats.extend_from_slice(fields);
                    }
                    EntryKey::Range { fields, priority } => {
                        let covers: Vec<Vec<_>> =
                            fields.iter().map(|&(lo, hi)| range_to_prefixes(lo, hi, 64)).collect();
                        for mut r in 0..covers.iter().map(Vec::len).product::<usize>() {
                            heads.push((member, *priority, entry));
                            for cover in &covers {
                                let p = cover[r % cover.len()];
                                pats.push(Ternary { value: p.value, mask: p.mask });
                                r /= cover.len();
                            }
                        }
                    }
                }
            }
        }
        // Rank order, member-major, less the rules `Ternary::matches` can
        // never accept. One entry's rules tie, but they are disjoint.
        let mut order: Vec<usize> = (0..heads.len()).collect();
        order.sort_by_key(|&r| (heads[r].0, Reverse(heads[r].1), heads[r].2));
        let rules: Vec<Rule> = order
            .into_iter()
            .map(|r| Rule {
                member: heads[r].0,
                entry: heads[r].2,
                pats: &pats[r * n_fields..(r + 1) * n_fields],
            })
            .filter(|rule| rule.pats.iter().all(|t| t.value & !t.mask == 0))
            .collect();

        let members = tables.len();
        let Some(pivot) = choose_pivot(n_fields, &rules) else {
            let groups = vec![TernaryGroup::build(n_fields, members, &rules, None)];
            return Self { members, pivot: None, dispatch: Vec::new(), groups };
        };
        // Rules naming a pivot value, by dispatch row; the rest can win
        // under any value and join every group at their rank.
        let mut named: Vec<Vec<usize>> = vec![Vec::new(); pivot.rows()];
        let mut wild = Vec::new();
        for (rank, rule) in rules.iter().enumerate() {
            match rule.pats[pivot.field] {
                Ternary { mask: 0, .. } => wild.push(rank),
                t => named[pivot.row_of(t.value)].push(rank),
            }
        }
        let group_of = |ranks: &[usize]| {
            let group: Vec<Rule> = ranks.iter().map(|&r| rules[r]).collect();
            TernaryGroup::build(n_fields, members, &group, Some(&pivot))
        };
        let mut groups = vec![group_of(&wild)];
        let dispatch = named
            .into_iter()
            .map(|mut ranks| {
                if ranks.is_empty() {
                    return 0;
                }
                ranks.extend_from_slice(&wild);
                ranks.sort_unstable();
                groups.push(group_of(&ranks));
                groups.len() as u32 - 1
            })
            .collect();
        Self { members, pivot: Some(pivot), dispatch, groups }
    }

    /// Looks up pre-materialized key values once for every member:
    /// `out[j]` becomes member `j`'s winning entry index under
    /// [`Table::lookup_linear_key`]'s semantics, or `u32::MAX` on a miss.
    /// `out` holds one slot per member.
    pub fn lookup_each(&self, key: &[u64], out: &mut [u32]) {
        self.winners(key, out)
    }

    /// [`TernaryIndex::lookup_each`] over any [`Key`].
    #[inline]
    pub(crate) fn winners<K: Key + ?Sized>(&self, key: &K, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.members);
        let group = match &self.pivot {
            Some(p) => self.dispatch[p.row_of(key.get(p.field))] as usize,
            None => 0,
        };
        match &self.groups[group] {
            TernaryGroup::Interval { field, domain, cuts, winners } => {
                let i = interval_of(cuts, key.get(*field) & domain);
                for (o, &w) in out.iter_mut().zip(&winners[i * self.members..]) {
                    *o = w;
                }
            }
            TernaryGroup::Bits(g) => g.winners(key, out),
        }
    }

    #[inline]
    fn lookup<K: Key + ?Sized>(&self, key: &K) -> Option<usize> {
        let mut out = [NONE];
        self.winners(key, &mut out);
        (out[0] != NONE).then_some(out[0] as usize)
    }
}

/// The field whose shared care bits split `rules` into the smallest
/// largest group (ties: the first such field), if any field splits them
/// at all.
fn choose_pivot(n_fields: usize, rules: &[Rule]) -> Option<DenseBits> {
    let mut best = None;
    let mut best_largest = rules.len();
    for field in 0..n_fields {
        let Some(shared) = shared_care(rules.iter().map(|r| r.pats[field].mask)) else { continue };
        let bits = DenseBits::new(field, shared, rules.len());
        let mut sizes = vec![0usize; bits.rows()];
        let mut wild = 0;
        for rule in rules {
            match rule.pats[field] {
                Ternary { mask: 0, .. } => wild += 1,
                t => sizes[bits.row_of(t.value)] += 1,
            }
        }
        let largest = wild + sizes.iter().max().expect("at least one row");
        if largest < best_largest {
            best_largest = largest;
            best = Some(bits);
        }
    }
    best
}

/// Bits up to and including the common top care bit, if every
/// non-wildcard mask is a contiguous run ending at it (a prefix).
fn prefix_domain(masks: impl Iterator<Item = u64>) -> Option<u64> {
    let mut domain = None;
    for m in masks.filter(|&m| m != 0) {
        let run = m >> m.trailing_zeros();
        let d = u64::MAX >> m.leading_zeros();
        if run & run.wrapping_add(1) != 0 || *domain.get_or_insert(d) != d {
            return None;
        }
    }
    domain
}

impl TernaryGroup {
    /// Compiles `rules` (rank order) of `members` tables. Under a pivot
    /// every rule already agrees with the key on the pivot's bits, so
    /// those count as wildcard here.
    fn build(n_fields: usize, members: usize, rules: &[Rule], pivot: Option<&DenseBits>) -> Self {
        let words = rules.len().div_ceil(64);
        let mut filters = Vec::new();
        let mut verify_fields = Vec::new();
        let mut live_fields = 0;
        // A rule's care bits on `field` that the dispatch left open.
        let open_at = |rule: &Rule, field: usize| {
            rule.pats[field].mask & !pivot.filter(|p| p.field == field).map_or(0, |p| p.mask)
        };
        for field in 0..n_fields {
            let open = |rule: &Rule| open_at(rule, field);
            let Some(shared) = shared_care(rules.iter().map(open)) else {
                if rules.iter().any(|r| open(r) != 0) {
                    live_fields += 1;
                    verify_fields.push(field);
                }
                continue;
            };
            live_fields += 1;
            let bits = DenseBits::new(field, shared, rules.len());
            if bits.mask != shared {
                verify_fields.push(field);
                continue;
            }
            let mut rows = vec![0u64; bits.rows() * words];
            for (rank, rule) in rules.iter().enumerate() {
                let bit = 1u64 << (rank % 64);
                if open(rule) == 0 {
                    rows.iter_mut().skip(rank / 64).step_by(words).for_each(|w| *w |= bit);
                } else {
                    rows[bits.row_of(rule.pats[field].value) * words + rank / 64] |= bit;
                }
            }
            filters.push(BitFilter { bits, rows });
            if rules.iter().any(|r| open(r) & !shared != 0) {
                verify_fields.push(field);
            }
        }

        if let ([field], 1) = (verify_fields.as_slice(), live_fields) {
            let field = *field;
            if let Some(domain) = prefix_domain(rules.iter().map(|r| open_at(r, field))) {
                let ranked: Vec<_> = rules
                    .iter()
                    .map(|rule| {
                        let mask = open_at(rule, field);
                        let lo = rule.pats[field].value & mask;
                        ((lo, lo | (domain & !mask)), rule.member, rule.entry)
                    })
                    .collect();
                let (cuts, winners) = interval_winners(&ranked, members);
                return TernaryGroup::Interval { field, domain, cuts, winners };
            }
        }

        let verify_pats =
            rules.iter().flat_map(|r| verify_fields.iter().map(|&f| r.pats[f])).collect();
        TernaryGroup::Bits(BitGroup {
            entry_of: rules.iter().map(|r| r.entry).collect(),
            member_ends: (0..members as u32)
                .map(|m| rules.partition_point(|r| r.member <= m) as u32)
                .collect(),
            words,
            filters,
            verify_fields,
            verify_pats,
        })
    }
}

impl BitGroup {
    /// Fills `out` with each member's winner: its first candidate, in
    /// rank order, that passes verification.
    #[inline]
    fn winners<K: Key + ?Sized>(&self, key: &K, out: &mut [u32]) {
        out.fill(NONE);
        let n_verify = self.verify_fields.len();
        // The first rank whose member is still undecided, and that member.
        let (mut from, mut member) = (0, 0);
        for w in 0..self.words {
            if from >= (w + 1) * 64 {
                continue;
            }
            // This word's undecided rules, then every filter's row ANDed
            // in without looking at the running result.
            let rules = self.entry_of.len() - w * 64;
            let mut cand = if rules >= 64 { !0 } else { (1u64 << rules) - 1 };
            cand &= !0 << from.saturating_sub(w * 64);
            for f in &self.filters {
                cand &= f.rows[f.bits.row_of(key.get(f.bits.field)) * self.words + w];
            }
            // Survivors in rank order; a member's first to match on the
            // fields no filter decided is its highest-priority true match.
            while cand != 0 {
                let rank = w * 64 + cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let pats = &self.verify_pats[rank * n_verify..(rank + 1) * n_verify];
                if !self.verify_fields.iter().zip(pats).all(|(&f, t)| t.matches(key.get(f))) {
                    continue;
                }
                while rank >= self.member_ends[member] as usize {
                    member += 1;
                }
                out[member] = self.entry_of[rank];
                if member + 1 == out.len() {
                    return;
                }
                // Skip the rest of this member's rules.
                from = self.member_ends[member] as usize;
                if from >= (w + 1) * 64 {
                    break;
                }
                cand &= !0 << (from - w * 64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::phv::PhvLayout;
    use crate::table::TableSpec;

    fn layout2() -> (PhvLayout, crate::phv::FieldId, crate::phv::FieldId) {
        let mut l = PhvLayout::new();
        let a = l.add_field("a", 16);
        let b = l.add_field("b", 16);
        (l, a, b)
    }

    /// Indexed lookup must agree with the linear oracle for every probe.
    fn assert_equivalent(t: &Table, probes: impl Iterator<Item = Vec<u64>>) {
        let idx = MatchIndex::build(t);
        let mut scratch = Vec::new();
        for key in probes {
            assert_eq!(idx.lookup(&key, &mut scratch), t.lookup_linear_key(&key), "key {key:?}");
        }
    }

    /// `t` is past the direct budgets, so its entries become ternary
    /// rules, which must agree with the linear oracle for every probe.
    fn assert_ternary_equivalent(t: &Table, probes: impl Iterator<Item = Vec<u64>>) {
        assert!(matches!(MatchIndex::build(t), MatchIndex::Ternary(_)));
        assert_equivalent(t, probes);
    }

    #[test]
    fn exact_packed_and_wide() {
        let (_l, a, b) = layout2();
        // Two fields over eleven key bits.
        let mut t = Table::new(TableSpec::exact("p", vec![a, b], 64));
        for i in 0..20u64 {
            t.install(EntryKey::Exact(vec![i, i * 3]), Action::new("e")).unwrap();
        }
        assert_ternary_equivalent(&t, (0..25u64).flat_map(|i| [vec![i, i * 3], vec![i, i]]));

        // Three fields.
        let mut l = PhvLayout::new();
        let ks: Vec<_> = (0..3).map(|i| l.add_field(format!("k{i}"), 16)).collect();
        let mut t = Table::new(TableSpec::exact("w", ks, 64));
        for i in 0..20u64 {
            t.install(EntryKey::Exact(vec![i, i + 1, i + 2]), Action::new("e")).unwrap();
        }
        assert_ternary_equivalent(
            &t,
            (0..25u64).flat_map(|i| [vec![i, i + 1, i + 2], vec![i, i, i]]),
        );
    }

    #[test]
    fn ternary_priority_ties_keep_lowest_install_index() {
        let (_l, a, _b) = layout2();
        let mut t = Table::new(TableSpec::ternary("t", vec![a], 8));
        t.install(EntryKey::Ternary { fields: vec![Ternary::ANY], priority: 5 }, Action::new("x"))
            .unwrap();
        t.install(EntryKey::Ternary { fields: vec![Ternary::ANY], priority: 5 }, Action::new("y"))
            .unwrap();
        t.install(
            EntryKey::Ternary { fields: vec![Ternary::exact(7, 16)], priority: 5 },
            Action::new("z"),
        )
        .unwrap();
        let idx = MatchIndex::build(&t);
        let mut s = Vec::new();
        // All three tie at priority 5 on key 7; entry 0 wins.
        assert_eq!(idx.lookup(&[7], &mut s), Some(0));
        assert_equivalent(&t, (0..16u64).map(|v| vec![v]));
    }

    #[test]
    fn ternary_all_wildcard_entries() {
        let (_l, a, b) = layout2();
        let mut t = Table::new(TableSpec::ternary("t", vec![a, b], 8));
        for p in [1u32, 9, 4] {
            t.install(
                EntryKey::Ternary { fields: vec![Ternary::ANY, Ternary::ANY], priority: p },
                Action::new("w"),
            )
            .unwrap();
        }
        let idx = MatchIndex::build(&t);
        let mut s = Vec::new();
        // Highest priority (9) is entry 1, for any key at all.
        assert_eq!(idx.lookup(&[0, 0], &mut s), Some(1));
        assert_eq!(idx.lookup(&[u64::MAX, 12345], &mut s), Some(1));
    }

    #[test]
    fn ternary_pivot_with_wildcards_and_wide_groups() {
        let mut l = PhvLayout::new();
        let key: Vec<_> = (0..3).map(|i| l.add_field(format!("k{i}"), 16)).collect();
        let mut t = Table::new(TableSpec::ternary("t", key, 512));
        // Five values of field 0's low byte split the rules; every 17th
        // rule is wildcard there and must still win, at its rank, under
        // every value — including values no rule names. Each group holds
        // ~100 rules (two candidate words): field 1 is a flag bit its
        // rows decide, field 2 gives every rule a value of its own under
        // masks that share no bit, so it is verified and low-ranked rules
        // win too.
        for i in 0..400u64 {
            let j = i / 5;
            let own = if j % 2 == 0 { Ternary::new(j, 0xFF) } else { Ternary::new(j << 8, 0xFF00) };
            let fields = if i % 17 == 0 {
                vec![Ternary::ANY, Ternary::ANY, own]
            } else {
                vec![Ternary::new(i % 5, 0xFF), Ternary::new(j % 2, 1), own]
            };
            t.install(EntryKey::Ternary { fields, priority: (i % 11) as u32 }, Action::new("e"))
                .unwrap();
        }
        assert_equivalent(
            &t,
            (0..7u64).flat_map(|a| {
                (0..90u64)
                    .flat_map(move |j| [j, j + 1].map(|flag| vec![a | 0x300, flag, j | j << 8]))
            }),
        );
    }

    #[test]
    fn ternary_prefix_groups_resolve_by_interval() {
        use splidt_ranging::range_to_prefixes;
        let (_l, a, b) = layout2();
        let mut t = Table::new(TableSpec::ternary("t", vec![a, b], 512));
        // The keygen shape: exact subtree id × prefix cover of a value
        // range, overlapping ranges told apart by priority alone.
        for (sid, lo, hi, priority) in [
            (1, 0, 999, 3),
            (1, 500, 40_000, 7),
            (1, 600, 700, 7),
            (2, 17, 17, 1),
            (9, 1, 65_535, 2),
        ] {
            for p in range_to_prefixes(lo, hi, 16) {
                t.install(
                    EntryKey::Ternary {
                        fields: vec![Ternary::exact(sid, 8), Ternary::new(p.value, p.mask)],
                        priority,
                    },
                    Action::new("mark"),
                )
                .unwrap();
            }
        }
        let MatchIndex::Ternary(ti) = MatchIndex::build(&t) else { panic!("ternary index") };
        assert!(ti.groups.iter().skip(1).all(|g| matches!(g, TernaryGroup::Interval { .. })));
        // Boundary values of every range, and bits above both fields'
        // patterns.
        let edges = [0u64, 16, 17, 18, 499, 500, 599, 600, 700, 701, 999, 1000, 40_000, 40_001];
        assert_equivalent(
            &t,
            (0..12u64).flat_map(|sid| {
                edges.iter().flat_map(move |&v| [vec![sid, v], vec![sid | 1 << 20, v | 1 << 16]])
            }),
        );
    }

    #[test]
    fn ternary_unnormalised_pattern_never_matches() {
        let (_l, a, b) = layout2();
        let mut t = Table::new(TableSpec::ternary("t", vec![a, b], 8));
        // `value` has a bit outside `mask`: `Ternary::matches` compares
        // `v & mask` to the whole value, so the oracle never matches it.
        // Built by struct literal — `Ternary::new` would normalise.
        let broken = Ternary { value: 0x13, mask: 0x03 };
        assert!(!broken.matches(0x13) && !broken.matches(0x03));
        for (fields, priority) in [
            (vec![Ternary::exact(1, 16), broken], 9),
            (vec![broken, Ternary::ANY], 8),
            (vec![Ternary::exact(1, 16), Ternary::new(0x03, 0x03)], 5),
            (vec![Ternary::ANY, Ternary::new(0x8000, 0x8000)], 1),
        ] {
            t.install(EntryKey::Ternary { fields, priority }, Action::new("e")).unwrap();
        }
        let idx = MatchIndex::build(&t);
        let mut s = Vec::new();
        assert_eq!(idx.lookup(&[1, 0x13], &mut s), Some(2), "the normalised rule below it wins");
        assert_eq!(idx.lookup(&[0x13, 0x8000], &mut s), Some(3));
        assert_equivalent(
            &t,
            (0..4u64).flat_map(|a| [0x03, 0x13, 0x8003, 0x8013, 0].map(|b| vec![a | 0x10, b])),
        );
        assert_equivalent(&t, (0..4u64).flat_map(|a| [0x03, 0x13, 0x8013].map(|b| vec![a, b])));
    }

    #[test]
    fn range_single_field_binary_search() {
        let (_l, a, _b) = layout2();
        let mut t = Table::new(TableSpec::range("t", vec![a], 8));
        // Bounds past the direct budget (15 bits), so the interval index
        // is built.
        t.install(
            EntryKey::Range { fields: vec![(10_000, 20_000)], priority: 1 },
            Action::new("lo"),
        )
        .unwrap();
        t.install(
            EntryKey::Range { fields: vec![(15_000, 30_000)], priority: 2 },
            Action::new("hi"),
        )
        .unwrap();
        let idx = MatchIndex::build(&t);
        assert!(matches!(&idx, MatchIndex::Ternary(_)));
        let mut s = Vec::new();
        assert_eq!(idx.lookup(&[9_999], &mut s), None);
        assert_eq!(idx.lookup(&[12_000], &mut s), Some(0));
        assert_eq!(idx.lookup(&[15_000], &mut s), Some(1), "overlap resolves by priority");
        assert_eq!(idx.lookup(&[30_000], &mut s), Some(1));
        assert_eq!(idx.lookup(&[30_001], &mut s), None);
        assert_ternary_equivalent(
            &t,
            (0..40_000u64).step_by(500).flat_map(|v| [vec![v], vec![v + 1]]),
        );
    }

    #[test]
    fn range_degenerate_single_point() {
        let (_l, a, b) = layout2();
        let mut t = Table::new(TableSpec::range("t", vec![a, b], 8));
        // A degenerate [v, v] point range and an enclosing lower-priority
        // box.
        t.install(
            EntryKey::Range { fields: vec![(7, 7), (3, 3)], priority: 9 },
            Action::new("point"),
        )
        .unwrap();
        t.install(
            EntryKey::Range { fields: vec![(0, 100), (0, 100)], priority: 1 },
            Action::new("box"),
        )
        .unwrap();
        let idx = MatchIndex::build(&t);
        let mut s = Vec::new();
        assert_eq!(idx.lookup(&[7, 3], &mut s), Some(0));
        assert_eq!(idx.lookup(&[7, 4], &mut s), Some(1));
        assert_eq!(idx.lookup(&[101, 3], &mut s), None);
        assert_ternary_equivalent(&t, (0..110u64).flat_map(|v| [vec![v, 3], vec![7, v]]));
    }

    #[test]
    fn range_multi_field_intersection() {
        let (_l, a, b) = layout2();
        let mut t = Table::new(TableSpec::range("t", vec![a, b], 128));
        for i in 0..100u64 {
            t.install(
                EntryKey::Range {
                    fields: vec![(i, i + 10), (i * 2, i * 2 + 5)],
                    priority: (i % 7) as u32,
                },
                Action::new("e"),
            )
            .unwrap();
        }
        assert_ternary_equivalent(&t, (0..240u64).map(|v| vec![v / 2, v]));
    }

    /// Probes every value of each field up to twice its domain, with
    /// and without bits above the field's 16-bit width.
    fn assert_direct_equivalent(t: &Table) {
        let idx = MatchIndex::build(t);
        assert!(matches!(idx, MatchIndex::Direct(_)), "{idx:?}");
        let n = t.spec().key.len() as u32;
        let values = |v: u64| [v, v | 1 << 16, v | 1 << 40];
        assert_equivalent(
            t,
            (0..64u64.pow(n)).flat_map(|r| {
                let key: Vec<u64> = (0..n).map(|i| (r >> (6 * i)) & 63).collect();
                (0..3).map(move |hi| key.iter().map(|&v| values(v)[hi]).collect())
            }),
        );
    }

    #[test]
    fn direct_exact_misses_above_domain() {
        let (_l, a, b) = layout2();
        let mut t = Table::new(TableSpec::exact("e", vec![a, b], 16));
        // Field 0 spans 3 bits, field 1 two: (1, 2) and (2, 1) land on
        // different rows only if each field keeps its own shift.
        for (x, y) in [(1, 2), (2, 1), (5, 0), (0, 3)] {
            t.install(EntryKey::Exact(vec![x, y]), Action::new("e")).unwrap();
        }
        let MatchIndex::Direct(d) = MatchIndex::build(&t) else { panic!("direct") };
        assert_eq!(d.rows.len(), 1 << 5);
        let mut s = Vec::new();
        assert_eq!(d.lookup([2u64, 1].as_slice()), Some(1));
        // 9 & 0b111 == 1 and 6 & 0b11 == 2: the masked row holds (1, 2),
        // but no entry holds 9 or 6.
        assert_eq!(MatchIndex::Direct(d.clone()).lookup(&[9, 2], &mut s), None);
        assert_eq!(MatchIndex::Direct(d).lookup(&[1, 6], &mut s), None);
        assert_direct_equivalent(&t);
    }

    #[test]
    fn direct_ternary_masks_above_domain() {
        let (_l, a, b) = layout2();
        let mut t = Table::new(TableSpec::ternary("t", vec![a, b], 16));
        for (fields, priority) in [
            (vec![Ternary::new(1, 0x3), Ternary::ANY], 1),
            (vec![Ternary::new(4, 0x4), Ternary::new(1, 0x1)], 2),
            (vec![Ternary::ANY, Ternary::new(2, 0x6)], 2),
            (vec![Ternary { value: 0x8, mask: 0x1 }, Ternary::ANY], 9),
        ] {
            t.install(EntryKey::Ternary { fields, priority }, Action::new("e")).unwrap();
        }
        let idx = MatchIndex::build(&t);
        let mut s = Vec::new();
        // No pattern cares about bit 8: the probe matches as 5.
        assert_eq!(idx.lookup(&[0x105, 3], &mut s), Some(1));
        assert_eq!(idx.lookup(&[0x100, 1 << 20], &mut s), None);
        assert_direct_equivalent(&t);
    }

    #[test]
    fn direct_range_misses_above_domain() {
        let (_l, a, b) = layout2();
        let mut t = Table::new(TableSpec::range("r", vec![a, b], 16));
        for (fields, priority) in [
            (vec![(0, 5), (2, 3)], 1),
            (vec![(4, 9), (0, 7)], 3),
            (vec![(6, 6), (1, 1)], 3),
            (vec![(12, 14), (5, 6)], 0),
        ] {
            t.install(EntryKey::Range { fields, priority }, Action::new("e")).unwrap();
        }
        let idx = MatchIndex::build(&t);
        let mut s = Vec::new();
        assert_eq!(idx.lookup(&[13, 5], &mut s), Some(3));
        assert_eq!(idx.lookup(&[16, 5], &mut s), None, "16 is past every upper bound");
        assert_direct_equivalent(&t);
    }

    #[test]
    fn direct_falls_back_past_its_budgets() {
        let (_l, a, b) = layout2();
        // Eleven key bits.
        let mut t = Table::new(TableSpec::exact("e", vec![a, b], 4));
        t.install(EntryKey::Exact(vec![63, 31]), Action::new("e")).unwrap();
        assert_ternary_equivalent(&t, [63, 64, 63 | 1 << 16].into_iter().map(|x| vec![x, 31]));
        // Ten bits, but 1,025 entries: 2^10 rows × 1,025 oracle steps.
        let mut t = Table::new(TableSpec::ternary("t", vec![a], 2048));
        for i in 0..1025u64 {
            let fields = vec![Ternary::new(i, 0x3FF)];
            t.install(EntryKey::Ternary { fields, priority: 0 }, Action::new("e")).unwrap();
        }
        assert_ternary_equivalent(&t, (0..1100u64).map(|v| vec![v]));
    }

    #[test]
    fn exact_empty_key_table() {
        // A keyless exact table (always-hit idiom): every lookup resolves
        // to the single installable entry; no panic packing a 0-wide key.
        let mut t = Table::new(TableSpec::exact("t", vec![], 4));
        let idx = MatchIndex::build(&t);
        let mut s = Vec::new();
        assert_eq!(idx.lookup(&[], &mut s), None);
        t.install(EntryKey::Exact(vec![]), Action::new("always")).unwrap();
        let idx = MatchIndex::build(&t);
        assert_eq!(idx.lookup(&[], &mut s), Some(0));
        assert_eq!(t.lookup_linear_key(&[]), Some(0));
        // A keyless table always fits the direct budget; its entry read
        // as a ternary rule with no patterns hits too.
        let idx = MatchIndex::Ternary(TernaryIndex::build(&[&t]));
        assert_eq!(idx.lookup(&[], &mut s), Some(0));
    }

    #[test]
    fn ternary_fallback_keeps_install_order_and_width() {
        let (_l, a, b) = layout2();
        // The second entry's prefix cover is many rules; wherever the two
        // boxes overlap, the first entry wins the priority tie. The third
        // is empty on field 0: it could never match, so install refuses it.
        let mut t = Table::new(TableSpec::range("r", vec![a, b], 4));
        for (fields, priority) in
            [(vec![(5_000, 9_000), (0, 1_000)], 3), (vec![(1, 60_000), (3, 200)], 3)]
        {
            t.install(EntryKey::Range { fields, priority }, Action::new("e")).unwrap();
        }
        let empty = EntryKey::Range { fields: vec![(9_000, 5_000), (0, 1_000)], priority: 9 };
        assert_eq!(
            t.install(empty, Action::new("e")),
            Err(crate::table::TableError::EmptyRange { table: "r".into() })
        );
        assert_eq!(t.n_entries(), 2);
        let MatchIndex::Ternary(ti) = MatchIndex::build(&t) else { panic!("ternary index") };
        let overlap = (5_000..=9_000u64).flat_map(|x| [3, 100, 200].map(|y| [x, y]));
        assert!(overlap.into_iter().all(|key| ti.lookup(key.as_slice()) == Some(0)));
        assert_equivalent(
            &t,
            (4_990..9_010u64)
                .chain(59_990..60_010)
                .flat_map(|x| [2, 3, 200, 201].map(|y| vec![x, y])),
        );

        // Eleven key bits of exact values: a bit above the 16-bit field
        // width misses, as no entry holds such a value.
        let mut t = Table::new(TableSpec::exact("e", vec![a], 2048));
        for v in 0..2_000u64 {
            t.install(EntryKey::Exact(vec![v]), Action::new("e")).unwrap();
        }
        assert_ternary_equivalent(&t, (0..2_100u64).flat_map(|v| [vec![v], vec![v | 1 << 16]]));
        let mut s = Vec::new();
        assert_eq!(MatchIndex::build(&t).lookup(&[7 | 1 << 16], &mut s), None);
    }

    #[test]
    fn empty_tables_always_miss() {
        let (_l, a, b) = layout2();
        let mut s = Vec::new();
        for spec in [
            TableSpec::exact("e", vec![a], 4),
            TableSpec::ternary("t", vec![a], 4),
            TableSpec::range("r", vec![a], 4),
            TableSpec::range("r2", vec![a, b], 4),
        ] {
            let t = Table::new(spec);
            let idx = MatchIndex::build(&t);
            assert_eq!(idx.lookup(&[0, 0][..t.spec().key.len()], &mut s), None);
        }
    }
}
