//! Match-action tables: exact (SRAM), ternary (TCAM) and range matching.
//!
//! Tables are declared with a [`TableSpec`] (name, match kind, key fields,
//! capacity) and populated with entries. Ternary entries carry priorities;
//! lookup returns the highest-priority match (ties broken by insertion
//! order, as TCAM physical order does). Hit counters per entry support the
//! paper's rule-count accounting and debugging.

use crate::action::Action;
use crate::phv::{FieldId, Phv};
use crate::tcam::Ternary;
use rustc_hash::FxHashSet;

/// Identifier of a table within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub(crate) u16);

impl TableId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A sentinel id for builder scaffolding; never valid to dereference.
    pub fn invalid() -> Self {
        TableId(u16::MAX)
    }
}

/// How a table matches its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Exact match (SRAM hash tables).
    Exact,
    /// Ternary value/mask match with priorities (TCAM).
    Ternary,
    /// Closed-interval range match per key component with priorities
    /// (modelled on range-capable TCAM blocks; used only by tests and
    /// utilities — SpliDT's compiler emits prefix-expanded ternary).
    Range,
}

/// Declaration of a table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Name (unique within a program).
    pub name: String,
    /// Match kind.
    pub kind: MatchKind,
    /// Key fields, in match order.
    pub key: Vec<FieldId>,
    /// Maximum number of entries (resource model input).
    pub max_entries: usize,
}

impl TableSpec {
    /// Shorthand for an exact-match table.
    pub fn exact(name: impl Into<String>, key: Vec<FieldId>, max_entries: usize) -> Self {
        Self { name: name.into(), kind: MatchKind::Exact, key, max_entries }
    }

    /// Shorthand for a ternary (TCAM) table.
    pub fn ternary(name: impl Into<String>, key: Vec<FieldId>, max_entries: usize) -> Self {
        Self { name: name.into(), kind: MatchKind::Ternary, key, max_entries }
    }

    /// Shorthand for a range table.
    pub fn range(name: impl Into<String>, key: Vec<FieldId>, max_entries: usize) -> Self {
        Self { name: name.into(), kind: MatchKind::Range, key, max_entries }
    }
}

/// Entry key variants (must agree with the table's [`MatchKind`]).
#[derive(Debug, Clone)]
pub enum EntryKey {
    /// Exact values, one per key field.
    Exact(Vec<u64>),
    /// Ternary patterns, one per key field, plus priority (higher wins).
    Ternary {
        /// Per-field value/mask patterns.
        fields: Vec<Ternary>,
        /// Priority; higher wins, ties broken by insertion order.
        priority: u32,
    },
    /// Closed intervals `[lo, hi]`, one per key field, plus priority.
    Range {
        /// Per-field inclusive ranges.
        fields: Vec<(u64, u64)>,
        /// Priority; higher wins.
        priority: u32,
    },
}

/// An installed entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Key.
    pub key: EntryKey,
    /// Action on hit.
    pub action: Action,
    /// Hit counter.
    pub hits: u64,
}

/// Errors installing entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Entry key arity or kind does not match the table.
    KeyMismatch {
        /// Table name.
        table: String,
    },
    /// Table is at `max_entries`.
    Full {
        /// Table name.
        table: String,
        /// Configured capacity.
        capacity: usize,
    },
    /// An exact entry with this key is already installed. (Silently
    /// shadowing the old entry used to leave it in `entries` — consuming
    /// capacity, unreachable, its hit counter frozen — while the lookup
    /// index pointed at the new one.)
    DuplicateKey {
        /// Table name.
        table: String,
        /// The already-installed key values.
        key: Vec<u64>,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::KeyMismatch { table } => write!(f, "key mismatch for table {table}"),
            TableError::Full { table, capacity } => {
                write!(f, "table {table} full (capacity {capacity})")
            }
            TableError::DuplicateKey { table, key } => {
                write!(f, "duplicate exact key {key:?} in table {table}")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// A match-action table instance.
///
/// The table itself resolves lookups by the **linear reference scan**
/// ([`Table::lookup_linear`]); the packet hot path goes through the
/// compiled [`MatchIndex`](crate::index::MatchIndex) the
/// [`ExecPlan`](crate::plan::ExecPlan) builds per table — direct rows
/// when the entries span few key bits, otherwise ternary rules, whatever
/// the table's kind — which is held equivalent to the scan by the
/// `indexed_lookup_equals_linear` proptest.
#[derive(Debug, Clone)]
pub struct Table {
    spec: TableSpec,
    entries: Vec<Entry>,
    /// Installed exact keys, for O(1) duplicate rejection at install time
    /// (never consulted by lookups — the linear scan stays the oracle and
    /// the compiled index the hot path).
    exact_keys: FxHashSet<Vec<u64>>,
    /// Default action on miss.
    default_action: Action,
    /// Miss counter.
    misses: u64,
}

impl Table {
    /// Creates an empty table with a no-op default action.
    pub fn new(spec: TableSpec) -> Self {
        Self {
            spec,
            entries: Vec::new(),
            exact_keys: FxHashSet::default(),
            default_action: Action::nop(),
            misses: 0,
        }
    }

    /// The table's declaration.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// Sets the default (miss) action.
    pub fn set_default(&mut self, action: Action) {
        self.default_action = action;
    }

    /// The default (miss) action.
    pub fn default_action(&self) -> &Action {
        &self.default_action
    }

    /// Installed entries.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of installed entries.
    pub fn n_entries(&self) -> usize {
        self.entries.len()
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Installs an entry.
    pub fn install(&mut self, key: EntryKey, action: Action) -> Result<(), TableError> {
        let arity_ok = match (&self.spec.kind, &key) {
            (MatchKind::Exact, EntryKey::Exact(v)) => v.len() == self.spec.key.len(),
            (MatchKind::Ternary, EntryKey::Ternary { fields, .. }) => {
                fields.len() == self.spec.key.len()
            }
            (MatchKind::Range, EntryKey::Range { fields, .. }) => {
                fields.len() == self.spec.key.len()
            }
            _ => false,
        };
        if !arity_ok {
            return Err(TableError::KeyMismatch { table: self.spec.name.clone() });
        }
        if self.entries.len() >= self.spec.max_entries {
            return Err(TableError::Full {
                table: self.spec.name.clone(),
                capacity: self.spec.max_entries,
            });
        }
        if let EntryKey::Exact(v) = &key {
            if !self.exact_keys.insert(v.clone()) {
                return Err(TableError::DuplicateKey {
                    table: self.spec.name.clone(),
                    key: v.clone(),
                });
            }
        }
        self.entries.push(Entry { key, action, hits: 0 });
        Ok(())
    }

    /// Looks up the PHV with the **linear reference scan**; returns the
    /// matched entry index (for hit counting) or `None` on miss. Does
    /// **not** bump counters — the pipeline does, so read-only lookups
    /// stay cheap. Allocates a key buffer per call; loops use
    /// [`Table::lookup_linear_into`] with a reusable buffer.
    ///
    /// This walk over every installed entry is the semantic oracle the
    /// compiled [`MatchIndex`](crate::index::MatchIndex) is tested
    /// against; the plan-driven hot path never calls it.
    pub fn lookup_linear(&self, phv: &Phv) -> Option<usize> {
        let mut key_vals = Vec::with_capacity(self.spec.key.len());
        self.lookup_linear_into(phv, &mut key_vals)
    }

    /// Allocation-free linear lookup: the key is materialized into
    /// `key_vals` (cleared first), so a caller-held buffer is reused
    /// across lookups. Semantics are identical to
    /// [`Table::lookup_linear`].
    pub fn lookup_linear_into(&self, phv: &Phv, key_vals: &mut Vec<u64>) -> Option<usize> {
        key_vals.clear();
        key_vals.extend(self.spec.key.iter().map(|&f| phv.get(f)));
        self.lookup_linear_key(key_vals)
    }

    /// The linear scan over pre-materialized key values (one per key
    /// field, in match order). Highest priority wins; ties keep the
    /// lowest install index.
    pub fn lookup_linear_key(&self, key_vals: &[u64]) -> Option<usize> {
        match self.spec.kind {
            MatchKind::Exact => self
                .entries
                .iter()
                .position(|e| matches!(&e.key, EntryKey::Exact(v) if v.as_slice() == key_vals)),
            MatchKind::Ternary => {
                let mut best: Option<(u32, usize)> = None;
                for (i, e) in self.entries.iter().enumerate() {
                    if let EntryKey::Ternary { fields, priority } = &e.key {
                        if fields.iter().zip(key_vals).all(|(t, &v)| t.matches(v)) {
                            let better = match best {
                                None => true,
                                Some((bp, _)) => *priority > bp,
                            };
                            if better {
                                best = Some((*priority, i));
                            }
                        }
                    }
                }
                best.map(|(_, i)| i)
            }
            MatchKind::Range => {
                let mut best: Option<(u32, usize)> = None;
                for (i, e) in self.entries.iter().enumerate() {
                    if let EntryKey::Range { fields, priority } = &e.key {
                        if fields.iter().zip(key_vals).all(|(&(lo, hi), &v)| lo <= v && v <= hi) {
                            let better = match best {
                                None => true,
                                Some((bp, _)) => *priority > bp,
                            };
                            if better {
                                best = Some((*priority, i));
                            }
                        }
                    }
                }
                best.map(|(_, i)| i)
            }
        }
    }

    /// Carries hit/miss statistics over from another table — used by the
    /// live model swap to keep lifecycle counters continuous across the
    /// flip. The two tables must hold the same number of entries, installed
    /// in the same order (true for the lifecycle MAT: its entries are
    /// determined by the compile-time policy, not the model).
    pub fn carry_stats_from(&mut self, old: &Table) {
        assert_eq!(
            self.entries.len(),
            old.entries.len(),
            "cannot carry stats across tables with different entry counts"
        );
        for (e, o) in self.entries.iter_mut().zip(&old.entries) {
            e.hits = o.hits;
        }
        self.misses = old.misses;
    }

    /// Zeroes hit/miss statistics (fresh-session reset; entries stay).
    pub fn reset_stats(&mut self) {
        self.misses = 0;
        for e in &mut self.entries {
            e.hits = 0;
        }
    }

    /// Bumps the hit counter of entry `i`.
    pub(crate) fn record_hit(&mut self, i: usize) {
        self.entries[i].hits += 1;
    }

    /// Bumps the miss counter.
    pub(crate) fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Key width in bits given a PHV layout (resource accounting).
    pub fn key_bits(&self, layout: &crate::phv::PhvLayout) -> usize {
        self.spec.key.iter().map(|&f| layout.spec(f).bits() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Primitive;
    use crate::phv::PhvLayout;

    fn setup() -> (PhvLayout, FieldId, FieldId) {
        let mut l = PhvLayout::new();
        let a = l.add_field("a", 16);
        let b = l.add_field("b", 16);
        (l, a, b)
    }

    #[test]
    fn exact_lookup() {
        let (l, a, b) = setup();
        let mut t = Table::new(TableSpec::exact("t", vec![a, b], 8));
        t.install(EntryKey::Exact(vec![1, 2]), Action::new("x")).unwrap();
        let mut phv = l.new_phv();
        phv.set(a, 1);
        phv.set(b, 2);
        assert_eq!(t.lookup_linear(&phv), Some(0));
        phv.set(b, 3);
        assert_eq!(t.lookup_linear(&phv), None);
    }

    #[test]
    fn ternary_priority_wins() {
        let (l, a, _b) = setup();
        let mut t = Table::new(TableSpec::ternary("t", vec![a], 8));
        t.install(
            EntryKey::Ternary { fields: vec![Ternary::ANY], priority: 1 },
            Action::new("low"),
        )
        .unwrap();
        t.install(
            EntryKey::Ternary { fields: vec![Ternary::exact(7, 16)], priority: 10 },
            Action::new("high"),
        )
        .unwrap();
        let mut phv = l.new_phv();
        phv.set(a, 7);
        let hit = t.lookup_linear(&phv).unwrap();
        assert_eq!(t.entries()[hit].action.name, "high");
        phv.set(a, 8);
        let hit = t.lookup_linear(&phv).unwrap();
        assert_eq!(t.entries()[hit].action.name, "low");
    }

    #[test]
    fn ternary_tie_keeps_first_installed() {
        let (l, a, _b) = setup();
        let mut t = Table::new(TableSpec::ternary("t", vec![a], 8));
        t.install(
            EntryKey::Ternary { fields: vec![Ternary::ANY], priority: 5 },
            Action::new("first"),
        )
        .unwrap();
        t.install(
            EntryKey::Ternary { fields: vec![Ternary::ANY], priority: 5 },
            Action::new("second"),
        )
        .unwrap();
        let phv = l.new_phv();
        let hit = t.lookup_linear(&phv).unwrap();
        assert_eq!(t.entries()[hit].action.name, "first");
    }

    #[test]
    fn range_lookup() {
        let (l, a, _b) = setup();
        let mut t = Table::new(TableSpec::range("t", vec![a], 8));
        t.install(EntryKey::Range { fields: vec![(10, 20)], priority: 1 }, Action::new("in"))
            .unwrap();
        let mut phv = l.new_phv();
        for (v, hit) in [(9u64, false), (10, true), (15, true), (20, true), (21, false)] {
            phv.set(a, v);
            assert_eq!(t.lookup_linear(&phv).is_some(), hit, "value {v}");
        }
    }

    #[test]
    fn capacity_enforced() {
        let (_l, a, _b) = setup();
        let mut t = Table::new(TableSpec::exact("t", vec![a], 1));
        t.install(EntryKey::Exact(vec![1]), Action::nop()).unwrap();
        let err = t.install(EntryKey::Exact(vec![2]), Action::nop()).unwrap_err();
        assert!(matches!(err, TableError::Full { capacity: 1, .. }));
    }

    #[test]
    fn duplicate_exact_key_rejected() {
        // Regression: duplicates used to shadow silently — the old entry
        // stayed installed (consuming capacity, unreachable) while the
        // exact index pointed at the new one.
        let (l, a, b) = setup();
        let mut t = Table::new(TableSpec::exact("t", vec![a, b], 8));
        t.install(EntryKey::Exact(vec![1, 2]), Action::new("first")).unwrap();
        let err = t.install(EntryKey::Exact(vec![1, 2]), Action::new("second")).unwrap_err();
        assert!(matches!(&err, TableError::DuplicateKey { key, .. } if key == &vec![1, 2]));
        assert_eq!(t.n_entries(), 1, "rejected entry must not consume capacity");
        let mut phv = l.new_phv();
        phv.set(a, 1);
        phv.set(b, 2);
        let hit = t.lookup_linear(&phv).unwrap();
        assert_eq!(t.entries()[hit].action.name, "first");
        // A different key still installs fine.
        t.install(EntryKey::Exact(vec![1, 3]), Action::new("other")).unwrap();
    }

    #[test]
    fn kind_mismatch_rejected() {
        let (_l, a, _b) = setup();
        let mut t = Table::new(TableSpec::exact("t", vec![a], 4));
        let err = t
            .install(EntryKey::Ternary { fields: vec![Ternary::ANY], priority: 0 }, Action::nop())
            .unwrap_err();
        assert!(matches!(err, TableError::KeyMismatch { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (_l, a, b) = setup();
        let mut t = Table::new(TableSpec::exact("t", vec![a, b], 4));
        assert!(t.install(EntryKey::Exact(vec![1]), Action::nop()).is_err());
    }

    #[test]
    fn key_bits_accounting() {
        let (l, a, b) = setup();
        let t = Table::new(TableSpec::ternary("t", vec![a, b], 4));
        assert_eq!(t.key_bits(&l), 32);
    }

    #[test]
    fn default_action_settable() {
        let (_l, a, _b) = setup();
        let mut t = Table::new(TableSpec::exact("t", vec![a], 4));
        t.set_default(Action::new("fallback").with(Primitive::Drop));
        assert_eq!(t.default_action().name, "fallback");
    }
}
