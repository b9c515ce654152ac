//! Stateful register arrays with Tofino-style stateful-ALU semantics.
//!
//! Each array lives in exactly one pipeline stage and supports **one
//! read-modify-write per packet pass** (the pipeline validator enforces the
//! single-stage placement; the one-visit property follows from tables being
//! applied once per pass). The ALU operations mirror what Tofino's SALUs
//! provide and what SpliDT's feature slots need: write, add, min, max — each
//! able to export the old or new value into the PHV.

/// Identifier of a register array within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub(crate) u16);

impl RegId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Declaration of a register array.
#[derive(Debug, Clone)]
pub struct RegisterSpec {
    /// Human-readable name (unique within a program).
    pub name: String,
    /// Element width in bits (1..=64; hardware pairs 32-bit cells for wider).
    pub width_bits: u8,
    /// Number of elements (flow slots). Must be a power of two.
    pub len: usize,
    /// Optional saturation cap: stored values clamp to `min(mask, cap)`.
    /// Models a stateful ALU configured for saturating arithmetic at a
    /// sub-width boundary; SpliDT's feature slots use this so software and
    /// data-plane accumulators agree bit-for-bit.
    pub cap: Option<u64>,
}

impl RegisterSpec {
    /// Convenience constructor without a cap.
    pub fn new(name: impl Into<String>, width_bits: u8, len: usize) -> Self {
        Self { name: name.into(), width_bits, len, cap: None }
    }

    /// Convenience constructor with a saturation cap.
    pub fn capped(name: impl Into<String>, width_bits: u8, len: usize, cap: u64) -> Self {
        Self { name: name.into(), width_bits, len, cap: Some(cap) }
    }
}

impl RegisterSpec {
    /// Total bits of state held by the array.
    pub fn total_bits(&self) -> u64 {
        self.width_bits as u64 * self.len as u64
    }

    /// Mask for element width.
    pub fn mask(&self) -> u64 {
        if self.width_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width_bits) - 1
        }
    }
}

/// Runtime state of a register array.
#[derive(Debug, Clone)]
pub struct RegisterArray {
    spec: RegisterSpec,
    data: Vec<u64>,
}

impl RegisterArray {
    /// Allocates a zeroed array from a spec.
    pub fn new(spec: RegisterSpec) -> Self {
        assert!(spec.len.is_power_of_two(), "register '{}' len must be a power of two", spec.name);
        assert!((1..=64).contains(&spec.width_bits), "register '{}' width out of range", spec.name);
        Self { data: vec![0u64; spec.len], spec }
    }

    /// The array's declaration.
    pub fn spec(&self) -> &RegisterSpec {
        &self.spec
    }

    /// Reads element `i` (no modify).
    pub fn read(&self, i: usize) -> u64 {
        self.data[i & (self.spec.len - 1)]
    }

    /// Writes element `i` (used by tests and controller-style resets).
    pub fn write(&mut self, i: usize, v: u64) {
        let idx = i & (self.spec.len - 1);
        self.data[idx] = v & self.spec.mask();
    }

    /// Read-modify-write: applies `op` with `operand`, returns `(old, new)`.
    ///
    /// When the spec carries a `cap`, the stored value saturates at the cap
    /// (the ALU's saturating mode): with non-negative operands, `Add`
    /// becomes saturating addition.
    pub fn rmw(&mut self, i: usize, op: RegAluOp, operand: u64) -> (u64, u64) {
        let idx = i & (self.spec.len - 1);
        let old = self.data[idx];
        let new = alu_apply(old, op, operand, self.spec.mask(), self.spec.cap);
        self.data[idx] = new;
        (old, new)
    }

    /// Zeroes all elements.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

/// One stateful-ALU visit: applies `op` with `operand` to `old` under the
/// element-width `mask` and optional saturation `cap`, returning the new
/// cell value. Shared by [`RegisterArray::rmw`] and
/// [`RegisterFile::rmw`] so the split and banked layouts are
/// bit-identical by construction.
#[inline]
fn alu_apply(old: u64, op: RegAluOp, operand: u64, mask: u64, cap: Option<u64>) -> u64 {
    let mut new = match op {
        RegAluOp::Read => old,
        RegAluOp::Write => operand & mask,
        RegAluOp::Add => old.wrapping_add(operand) & mask,
        RegAluOp::Sub => old.wrapping_sub(operand) & mask,
        RegAluOp::Min => old.min(operand & mask),
        RegAluOp::Max => old.max(operand & mask),
    };
    if let Some(cap) = cap {
        // Saturating add: if the un-masked sum exceeds the cap, clamp.
        if op == RegAluOp::Add && old.checked_add(operand).is_none_or(|s| s > cap) {
            new = cap.min(mask);
        } else {
            new = new.min(cap.min(mask));
        }
    }
    new
}

/// The CPU cache-line granule the flow bank pads its per-slot stride to.
pub const BANK_LINE_BYTES: usize = 64;

/// Physical cell size (bytes) a register of `width_bits` occupies in a
/// flow bank: the next power-of-two byte count, so every cell is
/// naturally aligned and never straddles a cache line.
pub fn bank_cell_bytes(width_bits: u8) -> usize {
    match width_bits {
        0..=8 => 1,
        9..=16 => 2,
        17..=32 => 4,
        _ => 8,
    }
}

/// Where one logical register's cells live physically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegPlacement {
    /// Coalesced into flow bank `bank` at byte `offset` within each
    /// slot's stride, as a `cell_bytes`-wide little-endian cell.
    Banked { bank: u16, offset: u32, cell_bytes: u8 },
    /// A standalone per-stage [`RegisterArray`] (registers that share a
    /// slot domain with no sibling gain nothing from coalescing).
    Split,
}

/// Descriptor of one flow bank: the registers it coalesces and the
/// per-slot stride they pack into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankDesc {
    /// Shared slot domain (every member's `len`).
    pub slots: usize,
    /// Packed payload bytes per slot, before line padding.
    pub cell_bytes: usize,
    /// Per-slot stride in bytes: `cell_bytes` rounded up to a multiple
    /// of [`BANK_LINE_BYTES`].
    pub stride_bytes: usize,
    /// Member register indices, in packing order (cell size descending,
    /// declaration order within a size class).
    pub members: Vec<u16>,
}

impl BankDesc {
    /// Cache lines one slot's state spans (1 for ≤64B, 2 beyond, …).
    pub fn lines_per_slot(&self) -> usize {
        self.stride_bytes / BANK_LINE_BYTES
    }

    /// Total arena bytes (`slots * stride`).
    pub fn arena_bytes(&self) -> usize {
        self.slots * self.stride_bytes
    }
}

/// Compile-time assignment of logical registers to flow banks: registers
/// sharing a slot domain (`len`) are coalesced into one AoS bank so all
/// of a flow's state sits on one (or two) cache lines; singletons stay
/// split. Computed once by the `ExecPlan` compiler and by
/// [`RegisterFile`] construction — both from the same spec list, so they
/// always agree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankLayout {
    /// Per-register placement, parallel to the program's register list.
    placements: Vec<RegPlacement>,
    /// Bank descriptors, indexed by `RegPlacement::Banked::bank`.
    banks: Vec<BankDesc>,
}

impl BankLayout {
    /// Assigns placements for `specs`. Grouping key is the slot domain:
    /// every register whose `len` matches at least one sibling joins that
    /// domain's bank. Within a bank, cells pack by size descending
    /// (stable by declaration order), so natural alignment holds without
    /// gaps; the stride pads to the next cache-line multiple.
    pub fn assign(specs: &[RegisterSpec]) -> Self {
        let mut placements = vec![RegPlacement::Split; specs.len()];
        let mut banks = Vec::new();
        // Distinct slot domains in declaration order (register counts are
        // tiny — a linear scan beats a map here).
        let mut domains: Vec<usize> = Vec::new();
        for s in specs {
            if !domains.contains(&s.len) {
                domains.push(s.len);
            }
        }
        for len in domains {
            let mut members: Vec<u16> =
                (0..specs.len()).filter(|&i| specs[i].len == len).map(|i| i as u16).collect();
            if members.len() < 2 {
                continue;
            }
            // Size-descending stable sort: 8B cells first, then 4, 2, 1.
            members
                .sort_by_key(|&i| std::cmp::Reverse(bank_cell_bytes(specs[i as usize].width_bits)));
            let bank = banks.len() as u16;
            let mut offset = 0usize;
            for &m in &members {
                let cell = bank_cell_bytes(specs[m as usize].width_bits);
                debug_assert_eq!(offset % cell, 0, "descending pow2 packing keeps cells aligned");
                placements[m as usize] =
                    RegPlacement::Banked { bank, offset: offset as u32, cell_bytes: cell as u8 };
                offset += cell;
            }
            let stride = offset.next_multiple_of(BANK_LINE_BYTES);
            banks.push(BankDesc { slots: len, cell_bytes: offset, stride_bytes: stride, members });
        }
        Self { placements, banks }
    }

    /// Per-register placements (parallel to the spec list).
    pub fn placements(&self) -> &[RegPlacement] {
        &self.placements
    }

    /// The bank descriptors.
    pub fn banks(&self) -> &[BankDesc] {
        &self.banks
    }
}

/// One 64-byte line of flow-bank state. The `align(64)` keeps every
/// slot's stride starting on a real cache-line boundary, so the padding
/// math in [`BankLayout`] translates directly into touched lines.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct CacheLine([u8; BANK_LINE_BYTES]);

const ZERO_LINE: CacheLine = CacheLine([0; BANK_LINE_BYTES]);

impl CacheLine {
    /// The `N` bytes starting at byte `at`.
    #[inline(always)]
    fn get<const N: usize>(&self, at: usize) -> [u8; N] {
        self.0[at..at + N].try_into().expect("an N-byte range is an [u8; N]")
    }
}

/// Hints the CPU to pull `line` toward L1.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch_line(line: &CacheLine) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch is a hint that never faults, and a reference always points in bounds.
    unsafe { _mm_prefetch(line.0.as_ptr().cast(), _MM_HINT_T0) }
}

#[cfg(not(target_arch = "x86_64"))]
fn prefetch_line(_: &CacheLine) {}

/// A flow bank: the cache-line-aligned arena holding every coalesced
/// register cell of one slot domain, AoS by slot. Cell addressing is
/// `slot * stride + offset`; cells are little-endian, power-of-two sized
/// and naturally aligned, so no cell ever straddles a line.
#[derive(Debug, Clone)]
pub struct FlowBank {
    desc: BankDesc,
    lines: Vec<CacheLine>,
}

impl FlowBank {
    fn new(desc: BankDesc) -> Self {
        assert!(desc.slots.is_power_of_two(), "bank slot domain must be a power of two");
        Self { lines: vec![ZERO_LINE; desc.arena_bytes() / BANK_LINE_BYTES], desc }
    }

    /// The bank's descriptor (slot domain, stride, members).
    pub fn desc(&self) -> &BankDesc {
        &self.desc
    }

    /// Every arena byte in address order, padding included — test and
    /// introspection only (asserting e.g. that a reset left no live byte
    /// behind).
    pub fn bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.lines.iter().flat_map(|l| l.0)
    }

    /// The line index holding byte `offset` of `slot`'s stride, and the
    /// byte's position within that line.
    #[inline(always)]
    fn locate(&self, slot: usize, offset: u32) -> (usize, usize) {
        let base = (slot & (self.desc.slots - 1)) * self.desc.stride_bytes + offset as usize;
        (base / BANK_LINE_BYTES, base % BANK_LINE_BYTES)
    }

    #[inline(always)]
    fn cell(&self, slot: usize, offset: u32, cell_bytes: u8) -> u64 {
        let (line, at) = self.locate(slot, offset);
        let l = &self.lines[line];
        match cell_bytes {
            1 => l.0[at] as u64,
            2 => u16::from_le_bytes(l.get(at)) as u64,
            4 => u32::from_le_bytes(l.get(at)) as u64,
            _ => u64::from_le_bytes(l.get(at)),
        }
    }

    #[inline(always)]
    fn set_cell(&mut self, slot: usize, offset: u32, cell_bytes: u8, v: u64) {
        let (line, at) = self.locate(slot, offset);
        let b = &mut self.lines[line].0;
        match cell_bytes {
            1 => b[at] = v as u8,
            2 => b[at..at + 2].copy_from_slice(&(v as u16).to_le_bytes()),
            4 => b[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes()),
            _ => b[at..at + 8].copy_from_slice(&v.to_le_bytes()),
        }
    }

    /// Hints the CPU to pull every line of `slot`'s stride toward L1 —
    /// the wave executor's push-time prefetch. A no-op off x86_64.
    #[inline]
    pub(crate) fn prefetch(&self, slot: usize) {
        let n = self.desc.lines_per_slot();
        let first = (slot & (self.desc.slots - 1)) * n;
        self.lines[first..first + n].iter().for_each(prefetch_line);
    }

    fn clear(&mut self) {
        self.lines.fill(ZERO_LINE);
    }
}

/// Resolved per-register addressing inside a [`RegisterFile`] — the
/// `(bank, offset, width)` the plan compiler assigned, plus the ALU
/// constants the hot path needs without touching the spec.
#[derive(Debug, Clone, Copy)]
enum CellLoc {
    Bank { bank: u16, offset: u32, cell_bytes: u8 },
    Array { arr: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    loc: CellLoc,
    mask: u64,
    cap: Option<u64>,
}

/// The register file: every logical register of a program, stored either
/// coalesced in a [`FlowBank`] (registers sharing a slot domain) or as a
/// standalone [`RegisterArray`]. The logical API — `read`/`write`/`rmw`
/// per `(register, slot)` — is layout-independent; `new_split` keeps the
/// historical one-array-per-register layout as the differential-testing
/// reference.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    specs: Vec<RegisterSpec>,
    cells: Vec<Cell>,
    banks: Vec<FlowBank>,
    arrays: Vec<RegisterArray>,
    layout: BankLayout,
    banked: bool,
}

impl RegisterFile {
    /// Builds the banked (production) layout for `specs`.
    pub fn new_banked(specs: &[RegisterSpec]) -> Self {
        Self::with_mode(specs, true)
    }

    /// Builds the split (reference) layout: one array per register,
    /// exactly the pre-banking representation.
    pub fn new_split(specs: &[RegisterSpec]) -> Self {
        Self::with_mode(specs, false)
    }

    fn with_mode(specs: &[RegisterSpec], banked: bool) -> Self {
        let layout = if banked { BankLayout::assign(specs) } else { BankLayout::assign(&[]) };
        let banks: Vec<FlowBank> = layout.banks().iter().cloned().map(FlowBank::new).collect();
        let mut arrays = Vec::new();
        let cells = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let loc = match layout.placements().get(i) {
                    Some(&RegPlacement::Banked { bank, offset, cell_bytes }) => {
                        CellLoc::Bank { bank, offset, cell_bytes }
                    }
                    _ => {
                        arrays.push(RegisterArray::new(s.clone()));
                        CellLoc::Array { arr: arrays.len() as u32 - 1 }
                    }
                };
                Cell { loc, mask: s.mask(), cap: s.cap }
            })
            .collect();
        Self { specs: specs.to_vec(), cells, banks, arrays, layout, banked }
    }

    /// Whether this file uses the banked layout.
    pub fn is_banked(&self) -> bool {
        self.banked
    }

    /// Number of logical registers.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the file holds no registers.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Declaration of register `i`.
    pub fn spec(&self, i: usize) -> &RegisterSpec {
        &self.specs[i]
    }

    /// The compile-time bank layout this file was built from (empty in
    /// split mode).
    pub fn layout(&self) -> &BankLayout {
        &self.layout
    }

    /// The live flow banks (empty in split mode).
    pub fn banks(&self) -> &[FlowBank] {
        &self.banks
    }

    /// Reads register `i`, slot `slot` (no modify).
    #[inline(always)]
    pub fn read(&self, i: usize, slot: usize) -> u64 {
        match self.cells[i].loc {
            CellLoc::Bank { bank, offset, cell_bytes } => {
                self.banks[bank as usize].cell(slot, offset, cell_bytes)
            }
            CellLoc::Array { arr } => self.arrays[arr as usize].read(slot),
        }
    }

    /// Writes register `i`, slot `slot` (controller-style; masked to the
    /// register width like [`RegisterArray::write`]).
    #[inline(always)]
    pub fn write(&mut self, i: usize, slot: usize, v: u64) {
        let cell = self.cells[i];
        match cell.loc {
            CellLoc::Bank { bank, offset, cell_bytes } => {
                self.banks[bank as usize].set_cell(slot, offset, cell_bytes, v & cell.mask)
            }
            CellLoc::Array { arr } => self.arrays[arr as usize].write(slot, v),
        }
    }

    /// Read-modify-write with [`RegisterArray::rmw`] semantics (same ALU
    /// body, so both layouts saturate and mask identically).
    #[inline(always)]
    pub fn rmw(&mut self, i: usize, slot: usize, op: RegAluOp, operand: u64) -> (u64, u64) {
        let cell = self.cells[i];
        match cell.loc {
            CellLoc::Bank { bank, offset, cell_bytes } => {
                let b = &mut self.banks[bank as usize];
                let old = b.cell(slot, offset, cell_bytes);
                let new = alu_apply(old, op, operand, cell.mask, cell.cap);
                b.set_cell(slot, offset, cell_bytes, new);
                (old, new)
            }
            CellLoc::Array { arr } => self.arrays[arr as usize].rmw(slot, op, operand),
        }
    }

    /// Zeroes every register — whole bank arenas (padding included) and
    /// every split array.
    pub fn clear(&mut self) {
        for b in &mut self.banks {
            b.clear();
        }
        for a in &mut self.arrays {
            a.clear();
        }
    }

    /// Carries state from `old` into this (freshly zeroed) file for every
    /// register whose `(name, width, len, cap)` spec matches — the
    /// program-swap contract. When a whole bank's member spec list
    /// matches one of `old`'s banks (the common recompile case), its
    /// arena is cloned wholesale; otherwise matching registers copy cell
    /// by cell, which also covers carrying across layout modes.
    pub fn carry_from(&mut self, old: &RegisterFile) {
        let same = |a: &RegisterSpec, b: &RegisterSpec| {
            a.name == b.name && a.width_bits == b.width_bits && a.len == b.len && a.cap == b.cap
        };
        let mut carried = vec![false; self.specs.len()];
        for (bi, desc) in self.layout.banks().iter().enumerate().map(|(i, b)| (i, b.clone())) {
            let matched = old.layout.banks().iter().enumerate().find(|(_, od)| {
                od.stride_bytes == desc.stride_bytes
                    && od.members.len() == desc.members.len()
                    && od.slots == desc.slots
                    && desc
                        .members
                        .iter()
                        .zip(&od.members)
                        .all(|(&m, &om)| same(&self.specs[m as usize], &old.specs[om as usize]))
            });
            if let Some((oi, _)) = matched {
                self.banks[bi].lines.copy_from_slice(&old.banks[oi].lines);
                for &m in &desc.members {
                    carried[m as usize] = true;
                }
            }
        }
        for (i, done) in carried.into_iter().enumerate() {
            if done {
                continue;
            }
            let Some(j) = old.specs.iter().position(|s| same(s, &self.specs[i])) else {
                continue;
            };
            for slot in 0..self.specs[i].len {
                self.write(i, slot, old.read(j, slot));
            }
        }
    }
}

/// Bit layout of an **ownership lane** cell: the 64-bit register element
/// that gives every flow slot an owner, packed as
/// `decided(1) ‖ pinned(1) ‖ class(6) ‖ fingerprint(24) ‖ last_seen_us(32)`.
///
/// Tofino stateful ALUs pair two 32-bit lanes over one 64-bit cell with
/// predicated updates; the lane models that pairing — the high word holds
/// identity (fingerprint + the lifecycle-policy bits: decided flag,
/// pinned flag, verdict class), the low word holds recency — which is the
/// same register-reuse discipline pForest applies to keep per-flow state
/// bounded under churn. A fingerprint of 0 means the slot is free (the
/// compiler forces real fingerprints nonzero). The verdict class rides in
/// the lane so the eviction policy can be class-aware: decided lanes whose
/// class is *pinned* (e.g. suspected-malicious) resist takeover until a
/// longer pinned timeout or an explicit operator release.
pub mod owner_lane {
    use crate::hash::FP_MASK;

    /// The free (unowned) cell value.
    pub const FREE: u64 = 0;

    /// Bits available for the verdict class stored in the lane.
    pub const CLASS_BITS: u8 = 6;

    /// Mask selecting the class bits.
    pub const CLASS_MASK: u64 = (1 << CLASS_BITS) - 1;

    /// Packs a lane cell.
    pub fn pack(decided: bool, pinned: bool, class: u64, fp: u64, last_seen_us: u64) -> u64 {
        ((decided as u64) << 63)
            | ((pinned as u64) << 62)
            | ((class & CLASS_MASK) << 56)
            | ((fp & FP_MASK) << 32)
            | (last_seen_us & 0xFFFF_FFFF)
    }

    /// The owner fingerprint (0 = free).
    pub fn fp(cell: u64) -> u64 {
        (cell >> 32) & FP_MASK
    }

    /// Last-seen timestamp (µs, truncated to 32 bits).
    pub fn last_seen_us(cell: u64) -> u64 {
        cell & 0xFFFF_FFFF
    }

    /// Whether the owner already received a verdict.
    pub fn decided(cell: u64) -> bool {
        cell >> 63 == 1
    }

    /// Whether the lane is pinned (class-aware eviction resistance).
    pub fn pinned(cell: u64) -> bool {
        (cell >> 62) & 1 == 1
    }

    /// The verdict class stored at decide time (meaningful when decided).
    pub fn class(cell: u64) -> u64 {
        (cell >> 56) & CLASS_MASK
    }
}

/// The stateful-ALU operation applied on a register visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegAluOp {
    /// Read without modifying.
    Read,
    /// Overwrite with the operand.
    Write,
    /// Wrapping add of the operand.
    Add,
    /// Wrapping subtract of the operand.
    Sub,
    /// Keep the minimum of cell and operand.
    Min,
    /// Keep the maximum of cell and operand.
    Max,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(width: u8, len: usize) -> RegisterArray {
        RegisterArray::new(RegisterSpec::new("r", width, len))
    }

    #[test]
    fn rmw_ops() {
        let mut r = arr(32, 8);
        assert_eq!(r.rmw(0, RegAluOp::Write, 10), (0, 10));
        assert_eq!(r.rmw(0, RegAluOp::Add, 5), (10, 15));
        assert_eq!(r.rmw(0, RegAluOp::Sub, 3), (15, 12));
        assert_eq!(r.rmw(0, RegAluOp::Max, 100), (12, 100));
        assert_eq!(r.rmw(0, RegAluOp::Min, 42), (100, 42));
        assert_eq!(r.rmw(0, RegAluOp::Read, 999), (42, 42));
        assert_eq!(r.read(0), 42);
    }

    #[test]
    fn width_masking_and_wrapping() {
        let mut r = arr(8, 4);
        r.rmw(1, RegAluOp::Write, 0x1FF);
        assert_eq!(r.read(1), 0xFF);
        assert_eq!(r.rmw(1, RegAluOp::Add, 2), (0xFF, 0x01)); // wraps at 8 bits
    }

    #[test]
    fn index_wraps_power_of_two() {
        let mut r = arr(16, 8);
        r.write(9, 77); // 9 & 7 == 1
        assert_eq!(r.read(1), 77);
    }

    #[test]
    fn clear_resets() {
        let mut r = arr(16, 4);
        r.write(2, 5);
        r.clear();
        assert_eq!(r.read(2), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_len_rejected() {
        arr(16, 6);
    }

    #[test]
    fn total_bits() {
        let r = arr(32, 1024);
        assert_eq!(r.spec().total_bits(), 32 * 1024);
    }

    #[test]
    fn capped_add_saturates() {
        let mut r = RegisterArray::new(RegisterSpec::capped("c", 32, 4, 100));
        r.rmw(0, RegAluOp::Write, 95);
        assert_eq!(r.rmw(0, RegAluOp::Add, 3), (95, 98));
        assert_eq!(r.rmw(0, RegAluOp::Add, 10), (98, 100)); // saturates
        assert_eq!(r.rmw(0, RegAluOp::Add, 1), (100, 100));
    }

    #[test]
    fn capped_write_and_max_clamp() {
        let mut r = RegisterArray::new(RegisterSpec::capped("c", 32, 4, 100));
        r.rmw(0, RegAluOp::Write, 500);
        assert_eq!(r.read(0), 100);
        r.rmw(1, RegAluOp::Max, 7);
        assert_eq!(r.read(1), 7);
        r.rmw(1, RegAluOp::Max, 101);
        assert_eq!(r.read(1), 100);
    }

    #[test]
    fn owner_lane_roundtrip() {
        use crate::hash::FP_MASK;
        let cell = owner_lane::pack(true, true, 0x2A, FP_MASK, 0x1234_5678);
        assert!(owner_lane::decided(cell));
        assert!(owner_lane::pinned(cell));
        assert_eq!(owner_lane::class(cell), 0x2A);
        assert_eq!(owner_lane::fp(cell), FP_MASK);
        assert_eq!(owner_lane::last_seen_us(cell), 0x1234_5678);
        let plain = owner_lane::pack(false, false, 0, 7, 9);
        assert!(!owner_lane::decided(plain));
        assert!(!owner_lane::pinned(plain));
        assert_eq!(owner_lane::class(plain), 0);
        assert_eq!(owner_lane::fp(plain), 7);
        assert_eq!(owner_lane::last_seen_us(plain), 9);
        assert_eq!(owner_lane::FREE, 0);
        // class overflow is masked, never smeared into the flag bits
        let wide = owner_lane::pack(false, false, 0xFFF, 1, 1);
        assert_eq!(owner_lane::class(wide), owner_lane::CLASS_MASK);
        assert!(!owner_lane::pinned(wide));
        assert!(!owner_lane::decided(wide));
    }

    #[test]
    fn bank_layout_packs_descending_and_pads_to_a_line() {
        let specs = vec![
            RegisterSpec::new("own", 64, 32),
            RegisterSpec::new("press", 32, 32),
            RegisterSpec::new("sid", 8, 32),
            RegisterSpec::new("win", 16, 32),
            RegisterSpec::new("lone", 32, 8), // different domain, singleton
        ];
        let l = BankLayout::assign(&specs);
        assert_eq!(l.banks().len(), 1);
        let b = &l.banks()[0];
        assert_eq!(b.slots, 32);
        // 8 + 4 + 2 + 1 packed bytes, one line per slot.
        assert_eq!(b.cell_bytes, 15);
        assert_eq!(b.stride_bytes, 64);
        assert_eq!(b.lines_per_slot(), 1);
        // Descending cell size: own(8) @ 0, press(4) @ 8, win(2) @ 12, sid(1) @ 14.
        assert_eq!(l.placements()[0], RegPlacement::Banked { bank: 0, offset: 0, cell_bytes: 8 });
        assert_eq!(l.placements()[1], RegPlacement::Banked { bank: 0, offset: 8, cell_bytes: 4 });
        assert_eq!(l.placements()[3], RegPlacement::Banked { bank: 0, offset: 12, cell_bytes: 2 });
        assert_eq!(l.placements()[2], RegPlacement::Banked { bank: 0, offset: 14, cell_bytes: 1 });
        assert_eq!(l.placements()[4], RegPlacement::Split);
    }

    #[test]
    fn bank_spills_to_two_lines_past_64_bytes() {
        // Nine 64-bit registers = 72 packed bytes > one line.
        let specs: Vec<_> = (0..9).map(|i| RegisterSpec::new(format!("r{i}"), 64, 16)).collect();
        let l = BankLayout::assign(&specs);
        assert_eq!(l.banks()[0].cell_bytes, 72);
        assert_eq!(l.banks()[0].stride_bytes, 128);
        assert_eq!(l.banks()[0].lines_per_slot(), 2);
    }

    #[test]
    fn register_file_banked_matches_split_semantics() {
        let mut specs = vec![
            RegisterSpec::new("a", 64, 16),
            RegisterSpec::capped("b", 32, 16, 100),
            RegisterSpec::new("c", 8, 16),
            RegisterSpec::new("lone", 24, 4),
        ];
        // A second domain mixing every cell width: 7·8 + 2·4 + 2 + 1 = 67
        // packed bytes, so each slot spills onto a second line.
        specs.extend((0..7).map(|i| RegisterSpec::new(format!("q{i}"), 64, 8)));
        specs.extend([
            RegisterSpec::new("d", 32, 8),
            RegisterSpec::capped("e", 32, 8, 1000),
            RegisterSpec::new("h", 16, 8),
            RegisterSpec::new("o", 8, 8),
        ]);
        let mut banked = RegisterFile::new_banked(&specs);
        let mut split = RegisterFile::new_split(&specs);
        assert!(banked.is_banked() && !split.is_banked());
        assert_eq!(banked.banks().len(), 2);
        assert_eq!(banked.banks()[1].desc().lines_per_slot(), 2);
        assert!(split.banks().is_empty());
        // The spilled bank's edges: its last slot (whose second line ends
        // the arena) and an index past the domain, which wraps onto slot 3.
        for r in 4..specs.len() {
            for s in [7, 8 + 3] {
                banked.write(r, s, u64::MAX - r as u64);
                split.write(r, s, u64::MAX - r as u64);
                let add = 0x0123_4567_89AB_CDEF;
                assert_eq!(
                    banked.rmw(r, s, RegAluOp::Add, add),
                    split.rmw(r, s, RegAluOp::Add, add)
                );
                assert_eq!(banked.read(r, s), split.read(r, s), "reg {r} slot {s}");
                assert_eq!(banked.read(r, s), banked.read(r, s % 8), "reg {r} slot {s} wraps");
            }
        }
        let ops = [
            (0, 3, RegAluOp::Write, u64::MAX),
            (1, 3, RegAluOp::Add, 95),
            (1, 3, RegAluOp::Add, 50), // saturates at 100
            (2, 5, RegAluOp::Add, 0x1FF),
            (3, 9, RegAluOp::Max, 7), // slot wraps: 9 & 3 == 1
            (0, 3, RegAluOp::Sub, 1),
        ];
        for &(r, s, op, v) in &ops {
            assert_eq!(banked.rmw(r, s, op, v), split.rmw(r, s, op, v), "rmw({r},{s})");
        }
        for (r, spec) in specs.iter().enumerate() {
            for s in 0..spec.len {
                assert_eq!(banked.read(r, s), split.read(r, s), "reg {r} slot {s}");
            }
        }
        assert_eq!(banked.read(1, 3), 100);
        assert_eq!(banked.read(3, 1), 7);
    }

    #[test]
    fn register_file_clear_zeroes_whole_arena() {
        let specs = vec![RegisterSpec::new("a", 64, 8), RegisterSpec::new("b", 16, 8)];
        let mut f = RegisterFile::new_banked(&specs);
        for s in 0..8 {
            f.write(0, s, u64::MAX);
            f.write(1, s, u64::MAX);
        }
        f.clear();
        assert!(f.banks()[0].bytes().all(|b| b == 0), "padding bytes included");
    }

    #[test]
    fn register_file_carry_matches_by_spec() {
        let old_specs = vec![
            RegisterSpec::new("keep", 32, 8),
            RegisterSpec::new("drop", 32, 8),
            RegisterSpec::new("resize", 16, 8),
        ];
        let mut old = RegisterFile::new_banked(&old_specs);
        old.write(0, 2, 42);
        old.write(1, 2, 7);
        old.write(2, 2, 9);
        // New program: same "keep", "resize" grew a width, "fresh" is new.
        let new_specs = vec![
            RegisterSpec::new("keep", 32, 8),
            RegisterSpec::new("resize", 32, 8),
            RegisterSpec::new("fresh", 32, 8),
        ];
        let mut new = RegisterFile::new_banked(&new_specs);
        new.carry_from(&old);
        assert_eq!(new.read(0, 2), 42, "matching spec carries");
        assert_eq!(new.read(1, 2), 0, "width change resets");
        assert_eq!(new.read(2, 2), 0, "new register starts zeroed");
    }

    #[test]
    fn register_file_carry_identical_bank_is_bitwise() {
        let specs = vec![RegisterSpec::new("a", 64, 16), RegisterSpec::new("b", 32, 16)];
        let mut old = RegisterFile::new_banked(&specs);
        for s in 0..16 {
            old.write(0, s, 0x0102_0304_0506_0708 ^ s as u64);
            old.write(1, s, 0xDEAD_0000 | s as u64);
        }
        let mut new = RegisterFile::new_banked(&specs);
        new.carry_from(&old);
        assert!(new.banks()[0].bytes().eq(old.banks()[0].bytes()));
        // And across layouts (banked -> split) the logical values carry.
        let mut split = RegisterFile::new_split(&specs);
        split.carry_from(&old);
        for s in 0..16 {
            assert_eq!(split.read(0, s), old.read(0, s));
            assert_eq!(split.read(1, s), old.read(1, s));
        }
    }

    #[test]
    fn capped_add_near_u64_boundary_saturates() {
        let mut r = RegisterArray::new(RegisterSpec::capped("c", 64, 4, u64::MAX - 1));
        r.rmw(0, RegAluOp::Write, u64::MAX - 2);
        // Overflowing u64 add must clamp to the cap, not wrap.
        assert_eq!(r.rmw(0, RegAluOp::Add, 100).1, u64::MAX - 1);
    }
}
