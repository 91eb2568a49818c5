//! Fact storage: interned symbols, indexed relations, Skolem table.
//!
//! The [`Database`] is the *extensional component* of a knowledge graph in
//! the paper's terminology — plus, after running an [`crate::Engine`], the
//! derived intensional facts. A relation stores each row once, in place:
//! one row-major `Vec<Const>` plus a dedup index of row ids
//! ([`crate::index`]), so a fact costs no heap block of its own and a
//! copy-on-write clone is two memcpys. Relations deduplicate tuples (set
//! semantics, like Vadalog's chase with isomorphism checks) and maintain
//! hash indexes on the column subsets the compiled rule plans need. Point
//! lookups ([`Database::query`]) read per-column indexes of the same CSR
//! layout the executors freeze, built lazily by the first lookup and
//! shared by every clone of the database. Writes keep the frozen images
//! and the lookup indexes current rather than dropping them, as long as
//! that upkeep stays cheaper than building them again.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::sync::{Arc, OnceLock};

use crate::error::{DatalogError, Result};
use crate::fx::FxHashMap;
use crate::index::{next_id, row_hash, str_hash, Index};
use crate::value::{Const, Tuple};

/// Interner for string constants: every name back to back in one
/// `String`, keyed by id through the shared index ([`crate::index`]).
///
/// The table is shared copy-on-write: cloning it — every serve epoch and
/// every [`Database::project`] result clones one — bumps a refcount, and
/// a clone copies the table only when it interns a string new to it.
#[derive(Default, Debug, Clone)]
pub struct SymbolTable {
    inner: Arc<Interned>,
}

#[derive(Default, Debug, Clone)]
struct Interned {
    /// Every name, concatenated in interning order: symbol `id` is
    /// `text[ends[id - 1]..ends[id]]` (from 0 for the first).
    text: String,
    ends: Vec<usize>,
    /// Symbol ids filed by [`str_hash`] of their names.
    index: Index,
}

impl Interned {
    fn name(&self, id: u32) -> &str {
        name_at(&self.text, &self.ends, id)
    }

    fn get(&self, hash: u32, s: &str) -> Option<u32> {
        self.index.get(hash, |id| self.name(id) == s)
    }

    /// The id of `s`, interning it if new: one probe either way.
    fn intern(&mut self, hash: u32, s: &str) -> u32 {
        let Interned { text, ends, index } = self;
        match index.find(hash, |id| name_at(text, ends, id) == s) {
            Ok(id) => id,
            Err(slot) => {
                let id = next_id(ends.len());
                text.push_str(s);
                ends.push(text.len());
                index.insert(slot, hash, id);
                id
            }
        }
    }
}

fn name_at<'a>(text: &'a str, ends: &[usize], id: u32) -> &'a str {
    let id = id as usize;
    let start = if id == 0 { 0 } else { ends[id - 1] };
    &text[start..ends[id]]
}

impl SymbolTable {
    /// Interns a string, returning its symbol id. The name is hashed
    /// once; a table a clone still shares is looked in first, and copied
    /// only for a name new to it.
    pub fn intern(&mut self, s: &str) -> u32 {
        let hash = str_hash(s);
        if Arc::get_mut(&mut self.inner).is_none() {
            if let Some(id) = self.inner.get(hash, s) {
                return id;
            }
        }
        Arc::make_mut(&mut self.inner).intern(hash, s)
    }

    /// Resolves a symbol id to its string.
    pub fn resolve(&self, id: u32) -> &str {
        self.inner.name(id)
    }

    /// Id of an already-interned string, without interning it.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.inner.get(str_hash(s), s)
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.inner.ends.len()
    }

    /// True when no symbols are interned.
    pub fn is_empty(&self) -> bool {
        self.inner.ends.is_empty()
    }

    /// All interned strings in interning order (id = position). Snapshot
    /// writers dump this verbatim so a reload re-interns every symbol to
    /// its original id — the property that makes recovery byte-faithful
    /// (round sorts compare `Const::Sym` by id, and aggregate emission
    /// order follows the sorts).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        (0..self.len() as u32).map(|id| self.inner.name(id))
    }

    /// Heap bytes of the name arena and the index.
    fn heap_bytes(&self) -> usize {
        let inner = &self.inner;
        inner.text.capacity() + inner.ends.capacity() * 8 + inner.index.heap_bytes()
    }
}

/// Deterministic, injective OID invention (Skolem) table.
///
/// Distinct `(functor, args)` pairs receive distinct sequential null ids,
/// realizing the paper's three properties: determinism (same input → same
/// OID), injectivity (no two inputs share an OID), and disjoint ranges
/// (different functors never collide, because the functor is part of the
/// key).
#[derive(Default, Debug, Clone)]
pub struct SkolemTable {
    map: FxHashMap<(u32, Tuple), u64>,
    /// Reverse map, parallel to the sequential ids: `defs[id] = (functor,
    /// args)`. Lets nulls be rendered by their *structural* definition,
    /// which is stable across evaluations even though the numeric ids
    /// depend on invention order.
    defs: Vec<(u32, Tuple)>,
}

impl SkolemTable {
    /// Returns the OID for `functor(args)`, inventing one if new.
    pub fn apply(&mut self, functor: u32, args: &[Const]) -> u64 {
        let next = self.map.len() as u64;
        match self.map.entry((functor, args.into())) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let key = v.key().clone();
                self.defs.push(key);
                *v.insert(next)
            }
        }
    }

    /// The `(functor, args)` pair a null id was invented for.
    pub fn definition(&self, id: u64) -> Option<(u32, &[Const])> {
        self.defs.get(id as usize).map(|(f, args)| (*f, &args[..]))
    }

    /// Number of invented OIDs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no OIDs have been invented.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Provenance of a derived fact: which rule fired on which parent facts.
/// The `Ord` derive (rule, then parents) gives derivations a canonical
/// order within a fixpoint round.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProvEntry {
    /// Index of the rule in the program.
    pub rule: u32,
    /// Parent facts as `(predicate, row)` pairs.
    pub parents: Vec<(u32, u32)>,
}

impl ProvEntry {
    /// Parent row of a premise that a `@post` compaction removed: its
    /// tuple is gone, only its predicate is known.
    pub const COMPACTED: u32 = u32::MAX;
}

/// What keeping a relation's frozen image and lookup indexes current may
/// cost between two builds of them, in elements moved per row of the
/// relation. A carried insert appends to the strips and puts the new row
/// id at the end of its key group, which moves every row id, offset and
/// key behind that group by one slot in each CSR. Once the inserts since
/// the last build have moved more than this many elements per row, the
/// next write drops everything and the next reader rebuilds from the row
/// store. Building one CSR over n rows costs as much as moving 700·n to
/// 1 200·n elements (measured from 19 k to 1 M rows; EXPERIMENTS,
/// "Carry or drop"), so whatever a fixpoint, a DRed
/// rederivation or a bulk load writes, the upkeep between two builds
/// stays under 40 % of one such build. (A removal compacts every strip
/// and CSR in one pass beside the one it makes over the row store and the
/// dedup map; it is not counted.)
const UPKEEP_MOVES_PER_ROW: usize = 256;

thread_local! {
    /// This thread's [`image_tally`].
    static IMAGE_TALLY: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// How many times this thread kept a frozen image or a lookup index
/// current through a write (once per write and structure), and how many
/// it built from the row store. Per thread, so an incremental update that
/// takes it before and after its run counts its own work only — never an
/// index a reader of a shared epoch builds on another thread.
pub(crate) fn image_tally() -> (usize, usize) {
    IMAGE_TALLY.get()
}

fn tally(carried: usize, built: usize) {
    IMAGE_TALLY.set({
        let (c, b) = IMAGE_TALLY.get();
        (c + carried, b + built)
    });
}

/// Frozen column-major image of a relation: one contiguous strip per
/// column, plus CSR-style adjacency lists for the probe keys the
/// compiled plans use (single- or multi-column). Built by
/// [`Relation::freeze_columnar`] for relations that are *stable* during
/// a stratum (no rule head writes them) and shared by `Arc`, so cloning a
/// database stays a refcount bump. Writes keep it current within
/// [`UPKEEP_MOVES_PER_ROW`]; a write to an image shared with a clone
/// first copies it (a memcpy, never a re-sort).
#[derive(Debug)]
pub(crate) struct Columnar {
    /// `cols[c][row]` — per-column strips; scans touch only the columns
    /// their unification ops actually read, over contiguous memory.
    cols: Vec<Vec<Const>>,
    /// Adjacency per probe shape: column bitmask → CSR over those columns.
    csr: FxHashMap<u64, Csr>,
}

impl Columnar {
    /// The strip of column `c`.
    pub(crate) fn col(&self, c: usize) -> &[Const] {
        &self.cols[c]
    }

    /// The adjacency for `mask`, if one was frozen.
    pub(crate) fn csr(&self, mask: u64) -> Option<&Csr> {
        self.csr.get(&mask)
    }

    /// Appends `tuple` as row `row`, the relation's new last row; returns
    /// how many elements the CSRs moved to make room.
    fn push(&mut self, tuple: &[Const], row: u32) -> usize {
        for (strip, &c) in self.cols.iter_mut().zip(tuple) {
            strip.push(c);
        }
        let mut key = Vec::new();
        let mut moved = 0;
        for (&mask, csr) in &mut self.csr {
            key.clear();
            key.extend(mask_cols(mask).map(|c| tuple[c]));
            moved += csr.push(&key, row);
        }
        moved
    }

    /// Drops the rows `removed` (ascending) and shifts the rest down.
    fn compact(&mut self, removed: &[u32]) {
        for strip in &mut self.cols {
            close_ranks(strip, removed, 1);
        }
        for csr in self.csr.values_mut() {
            csr.compact(removed);
        }
    }
}

/// The columns set in `mask`, ascending.
fn mask_cols(mask: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |i| mask & (1u64 << i) != 0)
}

/// Row `row`'s id once the rows `removed` (ascending, `row` not among
/// them) are gone: the survivors close ranks in their original order.
fn shifted(row: u32, removed: &[u32]) -> u32 {
    match removed {
        // A one-row delete, the common case, shifts without a search.
        [r] => row - u32::from(row > *r),
        _ => row - removed.partition_point(|&r| r < row) as u32,
    }
}

impl Clone for Columnar {
    fn clone(&self) -> Self {
        Columnar {
            cols: self
                .cols
                .iter()
                .map(|strip| copy_with_headroom(strip))
                .collect(),
            csr: self.csr.clone(),
        }
    }
}

/// A copy of `items` with a sixteenth more room, for the rows the write
/// that makes it (a copy of an image or index a clone shares) and the
/// next few add: they append without regrowing.
fn copy_with_headroom<T: Copy>(items: &[T]) -> Vec<T> {
    let headroom = items.len() / 16 + 1;
    let mut copy = Vec::with_capacity(items.len() + headroom);
    copy.extend_from_slice(items);
    copy
}

/// Removes the `stride`-element records at the positions `removed`
/// (ascending, distinct), keeping the rest in order: each run between
/// two removed records moves down over the gap the removals before it
/// left, one `copy_within` per run.
fn close_ranks<T: Copy>(items: &mut Vec<T>, removed: &[u32], stride: usize) {
    let Some(&first) = removed.first() else {
        return;
    };
    let records = items.len() / stride.max(1);
    let mut to = first as usize * stride;
    for (k, &at) in removed.iter().enumerate() {
        let from = (at as usize + 1) * stride;
        let end = removed.get(k + 1).map_or(records, |&r| r as usize) * stride;
        items.copy_within(from..end, to);
        to += end - from;
    }
    items.truncate(to);
}

/// Removes the elements at the positions `removed` (ascending), keeping
/// the rest in order.
fn retain_unremoved<T>(items: &mut Vec<T>, removed: &[u32]) {
    let (mut at, mut next) = (0u32, 0usize);
    items.retain(|_| {
        let gone = removed.get(next) == Some(&at);
        next += usize::from(gone);
        at += 1;
        !gone
    });
}

/// Compressed sparse rows over one or more columns: distinct keys
/// (flattened `width` consts each, sorted by the lexicographic total
/// [`Const`] order), per-key offsets, and a flat row array grouped by
/// key. Within a key, rows keep insertion order — the same enumeration
/// order a hash index produces, which the byte-identity contract needs.
/// One layout, two users: the frozen images of the batch executor
/// ([`Columnar`]) and the lookup indexes of [`Database::query`]. Both
/// are kept current by writes ([`Csr::push`], [`Csr::compact`]), which
/// leave the layout exactly as a fresh build over the new rows.
#[derive(Debug, PartialEq)]
pub(crate) struct Csr {
    width: usize,
    keys: Vec<Const>,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        Csr {
            width: self.width,
            keys: copy_with_headroom(&self.keys),
            offsets: copy_with_headroom(&self.offsets),
            rows: copy_with_headroom(&self.rows),
        }
    }
}

impl Csr {
    /// Builds the adjacency for `n` rows whose `width`-const key is read
    /// through `key_at` (key columns in ascending mask-bit order — the
    /// same projection order as [`key_of`]). The accessor keeps the build
    /// layout-agnostic: frozen images read their column strips, the lazy
    /// lookup indexes read the row store directly.
    fn build<K: Iterator<Item = Const>>(width: usize, n: usize, key_at: impl Fn(u32) -> K) -> Csr {
        // Every row's key, read once into one flat array.
        let mut flat: Vec<Const> = Vec::with_capacity(n * width);
        for row in 0..n as u32 {
            flat.extend(key_at(row));
        }
        let key = |row: u32| &flat[row as usize * width..(row as usize + 1) * width];
        // Ties broken by row id: equal keys keep insertion order —
        // identical to a hash index's push order.
        let mut rows: Vec<u32> = (0..n as u32).collect();
        rows.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
        let mut keys: Vec<Const> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        for (at, &row) in rows.iter().enumerate() {
            let prev = keys.len().wrapping_sub(width);
            if keys.is_empty() || key(row) != &keys[prev..] {
                offsets.push(at as u32);
                keys.extend_from_slice(key(row));
            }
        }
        offsets.push(n as u32);
        // The result stands until the relation's writes drop it: hand
        // back what the doubling growth over-reserved.
        keys.shrink_to_fit();
        offsets.shrink_to_fit();
        Csr {
            width,
            keys,
            offsets,
            rows,
        }
    }

    fn empty(width: usize) -> Csr {
        Csr {
            width,
            keys: Vec::new(),
            offsets: vec![0],
            rows: Vec::new(),
        }
    }

    /// Heap bytes held: distinct keys, their offsets and one id per row.
    fn heap_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<Const>() + (self.offsets.len() + self.rows.len()) * 4
    }

    /// The key group of `key`: `Ok(g)` when present, else `Err(g)`, the
    /// position a new group for it takes.
    fn group(&self, key: &[Const]) -> std::result::Result<usize, usize> {
        debug_assert_eq!(key.len(), self.width);
        let n = self.keys.len().checked_div(self.width).unwrap_or(0);
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let k = &self.keys[mid * self.width..(mid + 1) * self.width];
            match k.cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Rows whose key-column projection equals `key` (given in ascending
    /// mask-bit order), in insertion order.
    pub(crate) fn rows_for(&self, key: &[Const]) -> &[u32] {
        match self.group(key) {
            Ok(g) => &self.rows[self.offsets[g] as usize..self.offsets[g + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Adds `row` — greater than every row id present — at the end of
    /// the group of `key`, opening the group if it is new. Returns how
    /// many row ids, offsets and keys behind the group moved by a slot.
    fn push(&mut self, key: &[Const], row: u32) -> usize {
        let mut moved = 0;
        let g = match self.group(key) {
            Ok(g) => g,
            Err(g) => {
                let w = self.width;
                moved += self.keys.len() - g * w;
                self.keys.splice(g * w..g * w, key.iter().copied());
                self.offsets.insert(g + 1, self.offsets[g]);
                g
            }
        };
        let at = self.offsets[g + 1] as usize;
        moved += self.rows.len() - at + self.offsets.len() - (g + 1);
        self.rows.insert(at, row);
        for end in &mut self.offsets[g + 1..] {
            *end += 1;
        }
        moved
    }

    /// Drops the rows `removed` (ascending) and the groups they empty,
    /// and shifts the surviving row ids down as the row store does.
    /// One pass, in place: no key is compared.
    fn compact(&mut self, removed: &[u32]) {
        let w = self.width;
        let (mut kept_rows, mut kept_groups) = (0usize, 0usize);
        let mut start = self.offsets[0] as usize;
        for g in 0..self.offsets.len() - 1 {
            // Read before `offsets[kept_groups]` (`kept_groups <= g`)
            // is overwritten.
            let end = self.offsets[g + 1] as usize;
            let first = kept_rows;
            for at in start..end {
                let row = self.rows[at];
                let before = removed.partition_point(|&r| r < row);
                if removed.get(before) != Some(&row) {
                    self.rows[kept_rows] = row - before as u32;
                    kept_rows += 1;
                }
            }
            start = end;
            if kept_rows > first {
                self.keys.copy_within(g * w..(g + 1) * w, kept_groups * w);
                self.offsets[kept_groups] = first as u32;
                kept_groups += 1;
            }
        }
        self.rows.truncate(kept_rows);
        self.keys.truncate(kept_groups * w);
        self.offsets.truncate(kept_groups);
        self.offsets.push(kept_rows as u32);
    }
}

/// A single relation: deduplicated rows plus hash indexes.
///
/// Every row is stored once, in place: the row store is one row-major
/// `Vec<Const>` whose width the first row fixes, and the dedup index
/// files row ids by the row's hash ([`crate::index`]), comparing
/// candidates in the row store. A clone — a serve epoch's, an
/// incremental session's copy-on-write — is two memcpys, and dropping
/// one frees a handful of blocks, however many rows it holds.
#[derive(Default, Debug, Clone)]
pub struct Relation {
    /// Rows in insertion order, row-major: row `r` is
    /// `data[r * width..(r + 1) * width]`.
    data: Vec<Const>,
    /// Columns per row, fixed by the first row stored.
    width: usize,
    /// Number of rows. Counted apart from `data`, where rows of arity 0
    /// take no room.
    len: usize,
    /// Row ids filed by [`row_hash`] (dedup).
    dedup: Index,
    /// Registered indexes: column bitmask → key → rows.
    indexes: FxHashMap<u64, FxHashMap<Tuple, Vec<u32>>>,
    /// Frozen columnar image (stable relations only), kept current by
    /// writes. See [`Columnar`].
    columnar: Option<Arc<Columnar>>,
    /// Lookup indexes of [`Database::query`]: one single-column [`Csr`]
    /// per column, each built by the first lookup that binds the column
    /// and kept current by writes. Both levels are `OnceLock`s because
    /// readers hold only `&Relation` (inside an `Arc<Database>` epoch)
    /// and N of them racing onto a fresh epoch must build once. Epochs
    /// share the relation itself, so an index serves every epoch that
    /// leaves it alone; a copy made for writing shares the cells until
    /// its first write copies the built ones (see [`Relation::carry`]).
    lookup: OnceLock<Arc<[OnceLock<Csr>]>>,
    /// Elements the inserts since the image and lookup indexes were last
    /// dropped moved to keep them current; see [`UPKEEP_MOVES_PER_ROW`].
    upkeep: usize,
    /// Optional provenance parallel to the rows.
    prov: Vec<Option<ProvEntry>>,
    /// Whether provenance is being recorded.
    track_prov: bool,
}

/// Row `id` of a row-major store of `width`-const rows.
fn row_at(data: &[Const], width: usize, id: u32) -> &[Const] {
    let at = id as usize * width;
    &data[at..at + width]
}

/// Widest hash-index key [`with_key`] builds on the stack.
const STACK_KEY: usize = 8;

/// Calls `f` with the `mask`-projection of `row` (columns in ascending
/// order, as [`key_of`] builds it), on the stack unless the key is wider
/// than [`STACK_KEY`].
fn with_key<R>(row: &[Const], mask: u64, f: impl FnOnce(&[Const]) -> R) -> R {
    if mask.count_ones() as usize > STACK_KEY {
        return f(&key_of(row, mask));
    }
    let mut key = [Const::Bool(false); STACK_KEY];
    let mut n = 0;
    for (i, c) in row.iter().enumerate() {
        if mask & (1u64 << i) != 0 {
            key[n] = *c;
            n += 1;
        }
    }
    f(&key[..n])
}

/// Files row `id` under its `mask`-projection in a hash index. The key
/// is allocated only when it opens a new group.
fn index_row(index: &mut FxHashMap<Tuple, Vec<u32>>, mask: u64, row: &[Const], id: u32) {
    with_key(row, mask, |key| match index.get_mut(key) {
        Some(rows) => rows.push(id),
        None => {
            index.insert(key.into(), vec![id]);
        }
    })
}

impl Relation {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row at `row`.
    pub fn row(&self, row: u32) -> &[Const] {
        assert!((row as usize) < self.len, "row {row} of {}", self.len);
        row_at(&self.data, self.width, row)
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Const]> {
        (0..self.len as u32).map(|id| row_at(&self.data, self.width, id))
    }

    /// Row id of a tuple if present.
    pub fn find(&self, tuple: &[Const]) -> Option<u32> {
        self.find_hashed(row_hash(tuple), tuple)
    }

    /// [`Relation::find`] of a tuple whose [`row_hash`] is `hash`.
    pub(crate) fn find_hashed(&self, hash: u32, tuple: &[Const]) -> Option<u32> {
        let (data, width) = (&self.data, self.width);
        self.dedup.get(hash, |id| row_at(data, width, id) == tuple)
    }

    /// Provenance of a row, if recorded.
    pub fn provenance(&self, row: u32) -> Option<&ProvEntry> {
        self.prov.get(row as usize).and_then(|p| p.as_ref())
    }

    /// Width of the stored tuples (0 while the relation is empty).
    fn arity(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            self.width
        }
    }

    /// The lookup-index cells of these contents, one per column, created
    /// (empty) on first use.
    fn lookup_cells(&self) -> &Arc<[OnceLock<Csr>]> {
        self.lookup
            .get_or_init(|| (0..self.arity()).map(|_| OnceLock::new()).collect())
    }

    /// The lookup index over column `col` of a non-empty relation, built
    /// on first use straight off the row store: O(n log n) once, then a
    /// binary search per lookup, and kept current by writes within
    /// [`UPKEEP_MOVES_PER_ROW`].
    pub(crate) fn column_index(&self, col: usize) -> &Csr {
        self.lookup_cells()[col].get_or_init(|| {
            tally(0, 1);
            Csr::build(1, self.len, |row| std::iter::once(self.row(row)[col]))
        })
    }

    /// How many columns currently have a lookup index — after a clone
    /// whatever the original has (the two share them), after a write
    /// whatever the relation had unless the write dropped them (then 0;
    /// see [`Relation::carry`]).
    pub fn indexed_columns(&self) -> usize {
        self.lookup.get().map_or(0, |cells| {
            cells.iter().filter(|c| c.get().is_some()).count()
        })
    }

    /// Drops everything derived from the current contents — the frozen
    /// columnar image and the lookup indexes — for the next reader to
    /// rebuild. Two pointer resets, never a walk. Clones that shared them
    /// keep them: their contents did not change.
    fn invalidate(&mut self) {
        self.columnar = None;
        self.lookup.take();
        self.upkeep = 0;
    }

    /// Decides, before a write, whether the frozen image and the lookup
    /// indexes are carried through it: true when there is something to
    /// carry and the inserts since the last drop have moved at most
    /// [`UPKEEP_MOVES_PER_ROW`] elements per row to keep them current;
    /// otherwise everything is dropped. An image of an empty relation is
    /// always dropped: it knows no arity to carry rows into.
    fn carry(&mut self) -> bool {
        if self.columnar.is_none() && self.lookup.get().is_none() {
            self.upkeep = 0;
            return false;
        }
        let carried = self.len > 0 && self.upkeep <= UPKEEP_MOVES_PER_ROW * self.len;
        if carried {
            tally(
                usize::from(self.columnar.is_some()) + self.indexed_columns(),
                0,
            );
        } else {
            self.invalidate();
        }
        carried
    }

    /// The built lookup indexes with their columns, for a write to keep
    /// current; the cells are copied first when a clone still shares
    /// them.
    fn built_lookups_mut(&mut self) -> impl Iterator<Item = (usize, &mut Csr)> {
        let cells = self.lookup.get_mut().map(|cells| {
            if Arc::get_mut(cells).is_none() {
                *cells = cells.iter().cloned().collect();
            }
            Arc::get_mut(cells).expect("cells were just unshared")
        });
        cells
            .into_iter()
            .flat_map(|cells| cells.iter_mut().enumerate())
            .filter_map(|(col, cell)| cell.get_mut().map(|csr| (col, csr)))
    }

    /// Rough heap footprint in bytes: the row store and dedup index as
    /// allocated, hash indexes, recorded provenance, any frozen columnar
    /// image and the lookup indexes built so far (counted in full by
    /// every clone that shares them). A capacity-planning estimate
    /// (memory budgets), not an allocator measurement.
    pub fn approx_heap_bytes(&self) -> usize {
        const CONST_BYTES: usize = std::mem::size_of::<Const>();
        let mut total = self.data.capacity() * CONST_BYTES + self.dedup.heap_bytes();
        total += self.prov.capacity() * std::mem::size_of::<Option<ProvEntry>>();
        for (mask, index) in &self.indexes {
            // A key: its `Arc<[Const]>` (16-byte header) and a map slot
            // holding it and its row list (16 + 24 bytes).
            let key_bytes = mask.count_ones() as usize * CONST_BYTES + 16;
            total += index.len() * (key_bytes + 40);
            total += self.len * 4; // row ids across the row lists
        }
        if let Some(c) = &self.columnar {
            total += c.cols.iter().map(|s| s.capacity()).sum::<usize>() * CONST_BYTES;
            total += c.csr.values().map(Csr::heap_bytes).sum::<usize>();
        }
        if let Some(cells) = self.lookup.get() {
            total += cells
                .iter()
                .filter_map(OnceLock::get)
                .map(Csr::heap_bytes)
                .sum::<usize>();
        }
        total
    }

    pub(crate) fn set_track_prov(&mut self, on: bool) {
        self.track_prov = on;
        if on && self.prov.len() < self.len {
            self.prov.resize(self.len, None);
        }
    }

    /// Whether provenance is being recorded.
    pub(crate) fn tracks_prov(&self) -> bool {
        self.track_prov
    }

    /// Rewrites every parent pointer into relation `pred` through `remap`
    /// (old row id → new row id); a row past its end maps to
    /// [`ProvEntry::COMPACTED`].
    pub(crate) fn remap_parents(&mut self, pred: u32, remap: &[u32]) {
        for entry in self.prov.iter_mut().flatten() {
            for (pp, row) in &mut entry.parents {
                if *pp == pred {
                    *row = remap
                        .get(*row as usize)
                        .copied()
                        .unwrap_or(ProvEntry::COMPACTED);
                }
            }
        }
    }

    /// Registers an index over the columns set in `mask` (bit i = column i)
    /// and builds it over the current contents.
    pub(crate) fn register_index(&mut self, mask: u64) {
        if self.has_index(mask) {
            return;
        }
        let mut index: FxHashMap<Tuple, Vec<u32>> = FxHashMap::default();
        for (id, row) in self.rows().enumerate() {
            index_row(&mut index, mask, row, id as u32);
        }
        self.indexes.insert(mask, index);
    }

    /// Rows whose `mask`-projection equals `key`. The index must have been
    /// registered.
    pub(crate) fn probe(&self, mask: u64, key: &[Const]) -> &[u32] {
        static EMPTY: Vec<u32> = Vec::new();
        self.indexes
            .get(&mask)
            .expect("index not registered")
            .get(key)
            .unwrap_or(&EMPTY)
    }

    /// Freezes a columnar image of the current contents: per-column
    /// strips, plus a CSR adjacency list for every mask in `csr_masks`
    /// (single- or multi-column keys). Idempotent while the requested
    /// masks are covered; a current image missing some of them gains
    /// their adjacency over its own strips.
    pub(crate) fn freeze_columnar(&mut self, csr_masks: &[u64]) {
        if !self.frozen_for(csr_masks) {
            tally(0, 1);
            self.build_columnar(csr_masks);
        }
    }

    /// [`Relation::freeze_columnar`] without the check and the tally.
    fn build_columnar(&mut self, csr_masks: &[u64]) {
        let (data, width, len) = (&self.data, self.width, self.len);
        let image = self.columnar.get_or_insert_with(|| {
            let arity = if len == 0 { 0 } else { width };
            let cols = (0..arity)
                .map(|c| data.iter().skip(c).step_by(width).copied().collect())
                .collect();
            Arc::new(Columnar {
                cols,
                csr: FxHashMap::default(),
            })
        });
        let image = Arc::make_mut(image);
        for &mask in csr_masks {
            if image.csr.contains_key(&mask) {
                continue;
            }
            let key_cols: Vec<usize> = mask_cols(mask).collect();
            // Out-of-range columns (empty relation) get an empty CSR so a
            // requested mask always answers — the hash index it replaces
            // may never have been registered.
            let csr_for = if key_cols.iter().all(|&c| c < image.cols.len()) {
                let (strips, key_cols) = (&image.cols, &key_cols);
                Csr::build(key_cols.len(), len, |row| {
                    key_cols.iter().map(move |&c| strips[c][row as usize])
                })
            } else {
                Csr::empty(key_cols.len())
            };
            image.csr.insert(mask, csr_for);
        }
    }

    /// True when a current frozen image covers every mask in `csr_masks`,
    /// i.e. [`Relation::freeze_columnar`] would change nothing.
    pub(crate) fn frozen_for(&self, csr_masks: &[u64]) -> bool {
        self.columnar
            .as_ref()
            .is_some_and(|c| csr_masks.iter().all(|m| c.csr.contains_key(m)))
    }

    /// True when a hash index over `mask` is registered (or `mask` is 0),
    /// i.e. [`Relation::register_index`] would change nothing.
    pub(crate) fn has_index(&self, mask: u64) -> bool {
        mask == 0 || self.indexes.contains_key(&mask)
    }

    /// The frozen columnar image, if current.
    pub(crate) fn columnar(&self) -> Option<&Columnar> {
        self.columnar.as_deref()
    }

    /// Rows whose `mask`-projection equals `key`, preferring the frozen
    /// CSR when one covers the mask and falling back to the hash index
    /// (which must then be registered).
    pub(crate) fn lookup_rows(&self, mask: u64, key: &[Const]) -> &[u32] {
        if let Some(c) = &self.columnar {
            if let Some(csr) = c.csr.get(&mask) {
                return csr.rows_for(key);
            }
        }
        self.probe(mask, key)
    }

    /// Makes room for `additional` more rows of `width` consts in the row
    /// store and the dedup index, so a bulk load neither regrows nor
    /// re-files on the way.
    fn reserve(&mut self, additional: usize, width: usize) {
        self.data.reserve(additional * width);
        self.dedup.reserve(additional);
        if self.track_prov {
            self.prov.reserve(additional);
        }
    }

    /// Inserts a tuple; returns its row id and whether it was new. The
    /// new row goes at the end of its key group in the frozen image and
    /// the lookup indexes, unless the write drops them (see
    /// [`Relation::carry`]).
    pub(crate) fn insert(&mut self, tuple: &[Const], prov: Option<ProvEntry>) -> (u32, bool) {
        self.insert_hashed(row_hash(tuple), tuple, prov)
    }

    /// [`Relation::insert`] of a tuple whose [`row_hash`] is `hash`.
    pub(crate) fn insert_hashed(
        &mut self,
        hash: u32,
        tuple: &[Const],
        prov: Option<ProvEntry>,
    ) -> (u32, bool) {
        if self.len == 0 {
            self.width = tuple.len();
        }
        assert_eq!(
            tuple.len(),
            self.width,
            "row width differs from the relation's"
        );
        let (data, width) = (&self.data, self.width);
        let slot = match self.dedup.find(hash, |id| row_at(data, width, id) == tuple) {
            Ok(row) => return (row, false),
            Err(slot) => slot,
        };
        let row = next_id(self.len);
        if self.carry() {
            let mut moved = 0;
            if let Some(image) = &mut self.columnar {
                moved += Arc::make_mut(image).push(tuple, row);
            }
            for (col, csr) in self.built_lookups_mut() {
                moved += csr.push(&[tuple[col]], row);
            }
            self.upkeep += moved;
        }
        for (&mask, index) in &mut self.indexes {
            index_row(index, mask, tuple, row);
        }
        self.dedup.insert(slot, hash, row);
        self.data.extend_from_slice(tuple);
        self.len += 1;
        if self.track_prov {
            self.prov.push(prov);
        }
        (row, true)
    }

    /// Removes every tuple in `del`, compacting the surviving rows in
    /// their original order — tombstone-free, with dense row ids. Nothing
    /// is rebuilt or re-filed: the removed rows leave the dedup index
    /// (their slots are freed by backward shift) and the registered
    /// indexes, one pass over the dedup slots and the index row lists
    /// shifts the surviving row ids, the row store closes ranks with
    /// `copy_within`, and the same shift compacts the recorded
    /// provenance and the frozen image and lookup indexes it carries
    /// (see [`Relation::carry`]). Returns how many rows were actually
    /// removed.
    pub(crate) fn remove_tuples<R: AsRef<[Const]>>(
        &mut self,
        del: impl IntoIterator<Item = R>,
    ) -> usize {
        let mut removed: Vec<u32> = del
            .into_iter()
            .filter_map(|t| self.find(t.as_ref()))
            .collect();
        if removed.is_empty() {
            return 0;
        }
        removed.sort_unstable();
        removed.dedup();
        let carried = self.carry();
        let (data, width) = (&self.data, self.width);
        for (&mask, index) in &mut self.indexes {
            for &row in &removed {
                with_key(row_at(data, width, row), mask, |key| {
                    if let Some(rows) = index.get_mut(key) {
                        rows.retain(|&r| r != row);
                        if rows.is_empty() {
                            index.remove(key);
                        }
                    }
                });
            }
            for row in index.values_mut().flatten() {
                *row = shifted(*row, &removed);
            }
        }
        for &row in &removed {
            self.dedup.remove(row_hash(row_at(data, width, row)), row);
        }
        self.dedup.close_ranks(&removed);
        close_ranks(&mut self.data, &removed, width);
        self.len -= removed.len();
        if self.track_prov {
            retain_unremoved(&mut self.prov, &removed);
        } else {
            self.prov.clear();
        }
        if carried {
            if let Some(image) = &mut self.columnar {
                Arc::make_mut(image).compact(&removed);
            }
            for (_, csr) in self.built_lookups_mut() {
                csr.compact(&removed);
            }
        }
        removed.len()
    }

    /// Empties the relation for new contents: drops the frozen image and
    /// lookup indexes, the rows, the dedup entries, the hash indexes and
    /// the provenance (post-processing is a projection of the least
    /// fixpoint, not a derivation), keeping the allocations. Returns the
    /// masks of the hash indexes, for [`Relation::reindex`].
    fn reset(&mut self) -> Vec<u64> {
        let masks = self.indexes.keys().copied().collect();
        self.invalidate();
        self.data.clear();
        self.len = 0;
        self.dedup.clear();
        self.indexes.clear();
        self.prov.clear();
        masks
    }

    /// Registers `masks` again over the new contents and gives every row
    /// an empty provenance slot when provenance is tracked.
    fn reindex(&mut self, masks: Vec<u64>) {
        for m in masks {
            self.register_index(m);
        }
        if self.track_prov {
            self.prov.resize(self.len, None);
        }
    }

    /// Replaces the contents with `rows` (duplicates dropped); indexes are
    /// rebuilt, the frozen image, lookup indexes and provenance dropped
    /// (see [`Relation::reset`]).
    pub(crate) fn replace_all<R: AsRef<[Const]>>(&mut self, rows: impl IntoIterator<Item = R>) {
        let masks = self.reset();
        for row in rows {
            self.insert(row.as_ref(), None);
        }
        self.reindex(masks);
    }

    /// Keeps only the rows `ids` (distinct), in that order, as
    /// [`Relation::replace_all`] with those rows would: the `@post`
    /// compaction's rewrite. The survivors are gathered into one new row
    /// store and filed by their hashes without a key comparison.
    pub(crate) fn keep_rows(&mut self, ids: &[u32]) {
        let width = self.width;
        let mut data = Vec::with_capacity(ids.len() * width);
        for &id in ids {
            data.extend_from_slice(self.row(id));
        }
        let masks = self.reset();
        self.data = data;
        self.len = ids.len();
        self.dedup.reserve(ids.len());
        for id in 0..ids.len() as u32 {
            self.dedup.push(row_hash(row_at(&self.data, width, id)), id);
        }
        self.reindex(masks);
    }

    /// Checks the dedup index, the hash indexes, the frozen image and the
    /// lookup indexes against the row store: each must equal what a fresh
    /// build over the current rows holds. For tests of the structures
    /// writes keep current.
    fn check_fresh(&self) -> std::result::Result<(), String> {
        let n = self.len;
        if self.data.len() != n * self.width {
            return Err("row store length disagrees with the row count".into());
        }
        if self.dedup.len() != n
            || self
                .rows()
                .enumerate()
                .any(|(row, t)| self.find(t) != Some(row as u32))
        {
            return Err("dedup index disagrees with the row store".into());
        }
        for (&mask, index) in &self.indexes {
            let mut fresh: FxHashMap<Tuple, Vec<u32>> = FxHashMap::default();
            for (row, t) in self.rows().enumerate() {
                fresh.entry(key_of(t, mask)).or_default().push(row as u32);
            }
            if *index != fresh {
                return Err(format!("hash index {mask:#b} differs from a fresh build"));
            }
        }
        if let Some(image) = &self.columnar {
            for (c, strip) in image.cols.iter().enumerate() {
                if strip.len() != n || self.rows().zip(strip).any(|(t, v)| t[c] != *v) {
                    return Err(format!("strip {c} differs from the row store"));
                }
            }
            for (&mask, csr) in &image.csr {
                let cols: Vec<usize> = mask_cols(mask).collect();
                if cols.iter().any(|&c| c >= image.cols.len()) {
                    continue;
                }
                let fresh = Csr::build(cols.len(), n, |row| {
                    cols.iter().map(move |&c| self.row(row)[c])
                });
                if *csr != fresh {
                    return Err(format!("image CSR {mask:#b} differs from a fresh build"));
                }
            }
        }
        let cells = self
            .lookup
            .get()
            .into_iter()
            .flat_map(|c| c.iter().enumerate());
        for (col, cell) in cells {
            if let Some(csr) = cell.get() {
                let fresh = Csr::build(1, n, |row| std::iter::once(self.row(row)[col]));
                if *csr != fresh {
                    return Err(format!("lookup index {col} differs from a fresh build"));
                }
            }
        }
        Ok(())
    }
}

fn arity_error(pred: &str, arity: usize, previous: usize) -> DatalogError {
    DatalogError::BadFact(format!(
        "predicate {pred} used with arity {arity}, previously {previous}"
    ))
}

/// A database's relations, indexed by predicate id. Each is shared
/// copy-on-write between the database and its clones (see [`Database`]).
pub(crate) type Relations = [Arc<Relation>];

pub(crate) fn key_of(tuple: &[Const], mask: u64) -> Tuple {
    let mut key = Vec::with_capacity(mask.count_ones() as usize);
    for (i, c) in tuple.iter().enumerate() {
        if mask & (1u64 << i) != 0 {
            key.push(*c);
        }
    }
    key.into()
}

/// The fact store: predicates, relations, symbols and Skolem OIDs.
///
/// Cloning a database copies its symbol, Skolem and predicate tables
/// but shares every relation: relations sit behind an `Arc` and are
/// copied on the first write after a clone ([`Database::relation_mut`],
/// `Arc::make_mut`). A serve epoch is such a clone of the writer's
/// database, so publishing one costs the tables, and the next update
/// copies only the relations it writes; [`Database::shares_relation`]
/// tells which ones two databases still share.
#[derive(Default, Debug, Clone)]
pub struct Database {
    pub(crate) symbols: SymbolTable,
    pub(crate) skolems: SkolemTable,
    // `Arc<str>` names: cloning the predicate tables (every scratch copy
    // and serve-epoch snapshot) bumps refcounts instead of copying the
    // string bytes. `Arc<str>: Borrow<str>` keeps `&str` lookups working.
    pred_ids: FxHashMap<Arc<str>, u32>,
    pred_names: Vec<Arc<str>>,
    arities: Vec<Option<usize>>,
    pub(crate) relations: Vec<Arc<Relation>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the database whose interning tables are shared in full
    /// (ids stay aligned, canonical rendering works) but whose relations
    /// carry rows only for the predicates named in `keep` — every other
    /// relation becomes an empty shell. The serving layer uses this to
    /// strip derived relations off an epoch snapshot before re-deriving
    /// them from scratch: for derivation-tree explanations and for the
    /// differential reference of its lookups.
    pub fn project(&self, keep: impl IntoIterator<Item = impl AsRef<str>>) -> Database {
        let keep: crate::fx::FxHashSet<String> =
            keep.into_iter().map(|s| s.as_ref().to_owned()).collect();
        Database {
            symbols: self.symbols.clone(),
            skolems: self.skolems.clone(),
            pred_ids: self.pred_ids.clone(),
            pred_names: self.pred_names.clone(),
            arities: self.arities.clone(),
            relations: self
                .relations
                .iter()
                .zip(&self.pred_names)
                .map(|(r, name)| {
                    if keep.contains(&**name) {
                        r.clone()
                    } else {
                        Arc::default()
                    }
                })
                .collect(),
        }
    }

    /// Read-only view of the symbol interner. The durable-storage layer
    /// iterates it in interning order when writing snapshots, so a reload
    /// assigns every symbol its original id.
    pub fn symbol_table(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interns a string constant and returns it as a [`Const`].
    pub fn sym(&mut self, s: &str) -> Const {
        Const::Sym(self.symbols.intern(s))
    }

    /// Looks up an interned string constant without interning it —
    /// `None` means the string occurs nowhere in the database.
    pub fn find_sym(&self, s: &str) -> Option<Const> {
        self.symbols.lookup(s).map(Const::Sym)
    }

    /// Resolves a symbol constant back to its string.
    pub fn resolve(&self, c: Const) -> Option<&str> {
        match c {
            Const::Sym(s) => Some(self.symbols.resolve(s)),
            _ => None,
        }
    }

    /// Renders any constant as a display string (symbols resolved).
    pub fn display(&self, c: Const) -> String {
        match c {
            Const::Sym(s) => self.symbols.resolve(s).to_owned(),
            Const::Int(i) => i.to_string(),
            Const::Float(f) => f.to_string(),
            Const::Bool(b) => b.to_string(),
            Const::Null(n) => format!("_:{n}"),
        }
    }

    /// Id of a predicate, interning it with unknown arity.
    pub fn pred_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.pred_ids.get(name) {
            return id;
        }
        let id = self.pred_names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.pred_names.push(name.clone());
        self.pred_ids.insert(name, id);
        self.arities.push(None);
        self.relations.push(Arc::default());
        id
    }

    /// Appends an unnamed relation holding `rows` — invisible to
    /// [`Database::find_pred`] — for one scoped evaluation over rules that
    /// name its id; [`Database::pop_scratch_relation`] removes it again.
    /// It comes frozen for probes on its first column, as those rules
    /// read it, so no stratum freezes it: its image is part of making it,
    /// not one an update rebuilds ([`image_tally`]).
    pub(crate) fn push_scratch_relation<R: AsRef<[Const]>>(
        &mut self,
        rows: impl IntoIterator<Item = R>,
    ) -> u32 {
        let id = self.pred_names.len() as u32;
        let mut rel = Relation::default();
        for row in rows {
            rel.insert(row.as_ref(), None);
        }
        rel.build_columnar(&[1]);
        self.pred_names.push(Arc::from(""));
        self.arities.push(None);
        self.relations.push(Arc::new(rel));
        id
    }

    /// Removes the relation the last [`Database::push_scratch_relation`]
    /// appended.
    pub(crate) fn pop_scratch_relation(&mut self) {
        self.pred_names.pop();
        self.arities.pop();
        self.relations.pop();
    }

    /// True when this database and `other` hold the very same copy of
    /// `pred`'s relation: neither has written it since one was cloned
    /// from the other.
    pub fn shares_relation(&self, other: &Database, pred: &str) -> bool {
        match (self.find_pred(pred), other.find_pred(pred)) {
            (Some(a), Some(b)) => {
                Arc::ptr_eq(&self.relations[a as usize], &other.relations[b as usize])
            }
            _ => false,
        }
    }

    /// Looks up a predicate id without creating it.
    pub fn find_pred(&self, name: &str) -> Option<u32> {
        self.pred_ids.get(name).copied()
    }

    /// Name of a predicate id.
    pub fn pred_name(&self, id: u32) -> &str {
        &self.pred_names[id as usize]
    }

    /// Number of predicates.
    pub fn pred_count(&self) -> usize {
        self.pred_names.len()
    }

    /// Declared arity of a predicate, if any fact or resolved rule has
    /// fixed it yet.
    pub fn arity(&self, id: u32) -> Option<usize> {
        self.arities.get(id as usize).copied().flatten()
    }

    /// Interns a predicate and optionally pins its arity — the snapshot
    /// loader rebuilds the predicate table in id order with this before
    /// any rows arrive, so predicate ids survive recovery.
    pub fn declare_pred(&mut self, name: &str, arity: Option<usize>) -> Result<u32> {
        let id = self.pred_id(name);
        if let Some(a) = arity {
            self.check_arity(id, a)?;
        }
        Ok(id)
    }

    /// Rough heap footprint of the whole store in bytes: interned
    /// symbols, predicate tables and every relation's
    /// [`Relation::approx_heap_bytes`]. The capacity-planning lens for
    /// the 1M-register memory-budget target.
    pub fn approx_heap_bytes(&self) -> usize {
        let mut total = self.symbols.heap_bytes();
        for name in &self.pred_names {
            total += name.len() + 56;
        }
        for rel in &self.relations {
            total += rel.approx_heap_bytes();
        }
        total
    }

    /// The relation of a predicate (empty if the name is unknown).
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.find_pred(name).map(|p| &*self.relations[p as usize])
    }

    /// The relation of `pred` for writing; copies it first when a clone
    /// of the database still shares it.
    pub(crate) fn relation_mut(&mut self, pred: u32) -> &mut Relation {
        Arc::make_mut(&mut self.relations[pred as usize])
    }

    /// Checks/records the arity of a predicate.
    pub(crate) fn check_arity(&mut self, pred: u32, arity: usize) -> Result<()> {
        match self.arities[pred as usize] {
            None => {
                self.arities[pred as usize] = Some(arity);
                Ok(())
            }
            Some(a) if a == arity => Ok(()),
            Some(a) => Err(arity_error(&self.pred_names[pred as usize], arity, a)),
        }
    }

    /// Asserts a fully constructed fact; returns true if new.
    pub fn assert_fact(&mut self, pred: &str, tuple: &[Const]) -> Result<bool> {
        let p = self.pred_id(pred);
        self.check_arity(p, tuple.len())?;
        if self.relations[p as usize].find(tuple).is_some() {
            return Ok(false);
        }
        let (_, new) = self.relation_mut(p).insert(tuple, None);
        Ok(new)
    }

    /// Asserts many facts of one predicate — the bulk form of
    /// [`Database::assert_fact`] for loaders: the name is resolved once
    /// instead of per row, and the row store and dedup index reserve for
    /// the iterator's lower size bound up front. Rows land in iteration
    /// order, copied into the row store; returns how many were new. On an
    /// arity mismatch the rows before the offending one stay asserted, as
    /// with a loop of `assert_fact`.
    pub fn assert_facts<R: AsRef<[Const]>>(
        &mut self,
        pred: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> Result<usize> {
        let p = self.pred_id(pred);
        let mut rows = rows.into_iter().peekable();
        let Some(first) = rows.peek() else {
            return Ok(0);
        };
        let width = first.as_ref().len();
        // One copy-on-write check for the batch, not one per row.
        let rel = Arc::make_mut(&mut self.relations[p as usize]);
        rel.reserve(rows.size_hint().0, width);
        let arity = &mut self.arities[p as usize];
        let mut new = 0usize;
        for row in rows {
            let tuple = row.as_ref();
            match *arity {
                None => *arity = Some(tuple.len()),
                Some(a) if a == tuple.len() => {}
                Some(a) => return Err(arity_error(&self.pred_names[p as usize], tuple.len(), a)),
            }
            new += usize::from(rel.insert(tuple, None).1);
        }
        Ok(new)
    }

    /// Retracts a fact if present; returns true if it was removed. The
    /// relation is compacted in place (order-preserving, tombstone-free).
    pub fn retract_fact(&mut self, pred: &str, tuple: &[Const]) -> bool {
        let Some(p) = self.find_pred(pred) else {
            return false;
        };
        if self.relations[p as usize].find(tuple).is_none() {
            return false;
        }
        self.relation_mut(p).remove_tuples([tuple]) > 0
    }

    /// Starts a fluent fact builder: `db.fact("own").sym("a").float(0.5).assert();`
    pub fn fact<'a>(&'a mut self, pred: &str) -> FactBuilder<'a> {
        FactBuilder {
            pred: pred.to_owned(),
            vals: Vec::new(),
            db: self,
        }
    }

    /// Asserts many all-string facts at once (test convenience).
    pub fn assert_str_facts(&mut self, pred: &str, facts: &[&[&str]]) {
        for f in facts {
            let tuple: Vec<Const> = f.iter().map(|s| self.sym(s)).collect();
            self.assert_fact(pred, &tuple).expect("consistent arity");
        }
    }

    /// True iff the relation contains the all-string tuple.
    pub fn contains_str_fact(&self, pred: &str, tuple: &[&str]) -> bool {
        let Some(rel) = self.relation(pred) else {
            return false;
        };
        let mut key = Vec::with_capacity(tuple.len());
        for s in tuple {
            match self.symbols.lookup(s) {
                Some(id) => key.push(Const::Sym(id)),
                None => return false,
            }
        }
        rel.find(&key).is_some()
    }

    /// Number of facts in a predicate (0 if unknown).
    pub fn fact_count(&self, pred: &str) -> usize {
        self.relation(pred).map(|r| r.len()).unwrap_or(0)
    }

    /// Total number of facts across all relations.
    pub fn total_facts(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Queries a relation with a pattern: `None` positions are wildcards,
    /// `Some(c)` positions must match exactly. Returns the matching rows
    /// in ascending row id — insertion order, exactly what filtering
    /// [`Relation::rows`] by the pattern yields.
    ///
    /// A point lookup is an index read, not a scan. With every position
    /// bound the answer is one probe of the dedup map
    /// ([`Relation::find`]), O(1). With some bound it is a binary search
    /// in the lookup index of the first bound column — O(log n + m) for
    /// the m rows sharing that value — and a filter of those m rows by
    /// the other bound positions. The index of a column is built by the
    /// first lookup that binds it (O(n log n), however many readers race
    /// for it), is shared with every clone of the database, and is kept
    /// current by later inserts and removals until they pass a share of
    /// the relation (then dropped and rebuilt by the next lookup). Only
    /// the all-wildcard pattern walks the relation.
    ///
    /// ```
    /// use datalog::{Database, Const};
    /// let mut db = Database::new();
    /// db.fact("own").sym("a").sym("b").float(0.6).assert();
    /// db.fact("own").sym("a").sym("c").float(0.2).assert();
    /// let a = db.sym("a");
    /// let rows = db.query("own", &[Some(a), None, None]);
    /// assert_eq!(rows.len(), 2);
    /// let rows = db.query("own", &[None, None, Some(Const::Float(0.2))]);
    /// assert_eq!(rows.len(), 1);
    /// ```
    pub fn query(&self, pred: &str, pattern: &[Option<Const>]) -> Vec<&[Const]> {
        let Some(rel) = self.relation(pred) else {
            return Vec::new();
        };
        if rel.is_empty() || rel.arity() != pattern.len() {
            return Vec::new();
        }
        let first_bound = pattern
            .iter()
            .enumerate()
            .find_map(|(i, p)| p.map(|k| (i, k)));
        let Some((col, key)) = first_bound else {
            return rel.rows().collect();
        };
        if pattern.iter().all(Option::is_some) {
            let tuple: Vec<Const> = pattern.iter().flatten().copied().collect();
            let row = rel.find(&tuple).map(|row| rel.row(row));
            return row.into_iter().collect();
        }
        rel.column_index(col)
            .rows_for(&[key])
            .iter()
            .map(|&row| rel.row(row))
            .filter(|row| {
                let mut rest = row.iter().zip(pattern).skip(col + 1);
                rest.all(|(c, p)| p.is_none_or(|pc| *c == pc))
            })
            .collect()
    }

    /// Renders a constant canonically: like [`Database::display`], except
    /// labelled nulls are rendered by their structural Skolem definition
    /// (`functor(args…)`, recursively) instead of their numeric id. Two
    /// databases that derived the same facts in different orders assign
    /// different null ids but identical canonical renderings, so this is
    /// the right lens for set-level comparisons (isomorphism of labelled
    /// nulls).
    pub fn canonical(&self, c: Const) -> String {
        match c {
            Const::Null(n) => match self.skolems.definition(n) {
                Some((functor, args)) => {
                    let parts: Vec<String> = args.iter().map(|a| self.canonical(*a)).collect();
                    format!("{}({})", self.symbols.resolve(functor), parts.join(","))
                }
                None => format!("_:{n}"),
            },
            other => self.display(other),
        }
    }

    /// Renders a relation's tuples canonically (see [`Database::canonical`]),
    /// sorted. The comparison lens used by the incremental differential
    /// tests: set-identity modulo labelled-null renaming.
    pub fn dump_canonical(&self, pred: &str) -> Vec<String> {
        let Some(rel) = self.relation(pred) else {
            return Vec::new();
        };
        let mut out: Vec<String> = rel
            .rows()
            .map(|t| {
                let parts: Vec<String> = t.iter().map(|c| self.canonical(*c)).collect();
                parts.join(",")
            })
            .collect();
        out.sort();
        out
    }

    /// Renders a relation's tuples as display strings, sorted (test helper).
    pub fn dump(&self, pred: &str) -> Vec<String> {
        let Some(rel) = self.relation(pred) else {
            return Vec::new();
        };
        let mut out: Vec<String> = rel
            .rows()
            .map(|t| {
                let parts: Vec<String> = t.iter().map(|c| self.display(*c)).collect();
                parts.join(",")
            })
            .collect();
        out.sort();
        out
    }
}

/// Fluent fact construction, created by [`Database::fact`].
pub struct FactBuilder<'a> {
    pred: String,
    vals: Vec<Const>,
    db: &'a mut Database,
}

impl<'a> FactBuilder<'a> {
    /// Appends an interned string term.
    pub fn sym(mut self, s: &str) -> Self {
        let c = self.db.sym(s);
        self.vals.push(c);
        self
    }

    /// Appends an integer term.
    pub fn int(mut self, i: i64) -> Self {
        self.vals.push(Const::Int(i));
        self
    }

    /// Appends a float term.
    pub fn float(mut self, f: f64) -> Self {
        self.vals.push(Const::float(f));
        self
    }

    /// Appends a boolean term.
    pub fn bool(mut self, b: bool) -> Self {
        self.vals.push(Const::Bool(b));
        self
    }

    /// Appends an arbitrary constant.
    pub fn val(mut self, c: Const) -> Self {
        self.vals.push(c);
        self
    }

    /// Asserts the fact, panicking on arity mismatch (use
    /// [`FactBuilder::try_assert`] to handle errors).
    pub fn assert(self) {
        self.try_assert().expect("fact assertion failed");
    }

    /// Asserts the fact; returns whether it was new.
    pub fn try_assert(self) -> Result<bool> {
        let FactBuilder { pred, vals, db } = self;
        db.assert_fact(&pred, &vals)
    }
}

/// Hooks for the image-maintenance property test
/// (`tests/image_property.rs`): the relation writes the engines make,
/// driven directly, and a check of everything a write keeps current
/// against a fresh build from the row store. Not a stable API.
#[doc(hidden)]
pub mod testing {
    use super::*;

    /// Freezes `pred`'s columnar image with CSRs for `masks`, as a
    /// stratum that reads it stably does.
    pub fn freeze(db: &mut Database, pred: &str, masks: &[u64]) {
        let p = db.pred_id(pred);
        db.relation_mut(p).freeze_columnar(masks);
    }

    /// Registers a hash index over the columns of `mask` on `pred`, as a
    /// stratum that derives into it does.
    pub fn register(db: &mut Database, pred: &str, mask: u64) {
        let p = db.pred_id(pred);
        db.relation_mut(p).register_index(mask);
    }

    /// Removes `tuples` from `pred` in one compaction; returns how many
    /// were there.
    pub fn remove(db: &mut Database, pred: &str, tuples: &[Vec<Const>]) -> usize {
        let p = db.pred_id(pred);
        db.relation_mut(p).remove_tuples(tuples)
    }

    /// Replaces `pred`'s contents, as an `@post` pass does.
    pub fn replace_all(db: &mut Database, pred: &str, rows: Vec<Vec<Const>>) {
        let p = db.pred_id(pred);
        db.relation_mut(p).replace_all(rows);
    }

    /// What `pred` carries: the masks of its frozen image (`None` without
    /// one) and how many lookup indexes are built.
    pub fn carried(db: &Database, pred: &str) -> (Option<Vec<u64>>, usize) {
        let Some(rel) = db.relation(pred) else {
            return (None, 0);
        };
        let masks = rel.columnar.as_ref().map(|c| {
            let mut masks: Vec<u64> = c.csr.keys().copied().collect();
            masks.sort_unstable();
            masks
        });
        (masks, rel.indexed_columns())
    }

    /// [`Relation::check_fresh`] of `pred`.
    pub fn check_fresh(db: &Database, pred: &str) -> std::result::Result<(), String> {
        db.relation(pred).map_or(Ok(()), Relation::check_fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_intern_and_resolve() {
        let mut t = SymbolTable::default();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.lookup("beta"), Some(b));
        assert_eq!(t.lookup("gamma"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn skolem_properties() {
        let mut sk = SkolemTable::default();
        let a1 = sk.apply(0, &[Const::Int(1)]);
        let a2 = sk.apply(0, &[Const::Int(1)]);
        let b = sk.apply(0, &[Const::Int(2)]);
        let c = sk.apply(1, &[Const::Int(1)]);
        assert_eq!(a1, a2, "determinism");
        assert_ne!(a1, b, "injectivity");
        assert_ne!(a1, c, "disjoint ranges");
        assert_eq!(sk.len(), 3);
    }

    #[test]
    fn relation_dedup_and_index() {
        let mut r = Relation::default();
        let t1: Tuple = vec![Const::Int(1), Const::Int(2)].into();
        let t2: Tuple = vec![Const::Int(1), Const::Int(3)].into();
        assert!(r.insert(&t1, None).1);
        assert!(!r.insert(&t1, None).1);
        assert!(r.insert(&t2, None).1);
        assert_eq!(r.len(), 2);
        r.register_index(0b01);
        let rows = r.probe(0b01, &[Const::Int(1)]);
        assert_eq!(rows.len(), 2);
        // Index is maintained on subsequent inserts.
        let t3: Tuple = vec![Const::Int(1), Const::Int(4)].into();
        r.insert(&t3, None);
        assert_eq!(r.probe(0b01, &[Const::Int(1)]).len(), 3);
        assert_eq!(r.probe(0b01, &[Const::Int(9)]).len(), 0);
    }

    #[test]
    fn database_fact_roundtrip() {
        let mut db = Database::new();
        db.fact("own").sym("a").sym("b").float(0.6).assert();
        assert!(!db.contains_str_fact("company", &["a"]));
        assert_eq!(db.fact_count("own"), 1);
        let rel = db.relation("own").unwrap();
        let row = rel.row(0);
        assert_eq!(db.display(row[0]), "a");
        assert_eq!(row[2].as_f64(), Some(0.6));
    }

    #[test]
    fn arity_is_enforced() {
        let mut db = Database::new();
        db.fact("p").int(1).assert();
        assert!(db.fact("p").int(1).int(2).try_assert().is_err());
    }

    #[test]
    fn assert_str_facts_and_contains() {
        let mut db = Database::new();
        db.assert_str_facts("edge", &[&["a", "b"], &["b", "c"]]);
        assert!(db.contains_str_fact("edge", &["a", "b"]));
        assert!(!db.contains_str_fact("edge", &["a", "c"]));
        assert!(!db.contains_str_fact("edge", &["a", "zzz"]));
        assert_eq!(db.total_facts(), 2);
    }

    #[test]
    fn dump_is_sorted_and_resolved() {
        let mut db = Database::new();
        db.assert_str_facts("e", &[&["b"], &["a"]]);
        assert_eq!(db.dump("e"), vec!["a".to_owned(), "b".to_owned()]);
        assert!(db.dump("missing").is_empty());
    }

    #[test]
    fn query_patterns() {
        let mut db = Database::new();
        db.fact("e").sym("a").sym("b").assert();
        db.fact("e").sym("a").sym("c").assert();
        db.fact("e").sym("b").sym("c").assert();
        let a = db.sym("a");
        let c = db.sym("c");
        assert_eq!(db.query("e", &[Some(a), None]).len(), 2);
        assert_eq!(db.query("e", &[None, Some(c)]).len(), 2);
        assert_eq!(db.query("e", &[Some(a), Some(c)]).len(), 1);
        assert_eq!(db.query("e", &[None, None]).len(), 3);
        assert!(db.query("e", &[None]).is_empty(), "arity mismatch");
        assert!(db.query("zzz", &[None]).is_empty());
    }

    #[test]
    fn remove_tuples_compacts_in_order() {
        let mut r = Relation::default();
        r.register_index(0b01);
        for i in 0..5 {
            r.insert(&[Const::Int(i), Const::Int(i * 10)], None);
        }
        let mut del = crate::fx::FxHashSet::default();
        del.insert(Tuple::from(&[Const::Int(1), Const::Int(10)][..]));
        del.insert(Tuple::from(&[Const::Int(3), Const::Int(30)][..]));
        del.insert(Tuple::from(&[Const::Int(9), Const::Int(90)][..])); // absent
        assert_eq!(r.remove_tuples(&del), 2);
        assert_eq!(r.len(), 3);
        // Survivors keep their relative order; row ids are dense again.
        let kept: Vec<i64> = r.rows().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(kept, vec![0, 2, 4]);
        assert_eq!(r.find(&[Const::Int(2), Const::Int(20)]), Some(1));
        assert_eq!(r.find(&[Const::Int(1), Const::Int(10)]), None);
        // Indexes were compacted with the rows.
        assert_eq!(r.probe(0b01, &[Const::Int(4)]), &[2]);
        assert!(r.probe(0b01, &[Const::Int(3)]).is_empty());
        // Re-inserting a removed tuple appends at the end.
        let (row, fresh) = r.insert(&[Const::Int(1), Const::Int(10)], None);
        assert!(fresh);
        assert_eq!(row, 3);
    }

    #[test]
    fn retract_fact_roundtrip() {
        let mut db = Database::new();
        db.fact("own").sym("a").sym("b").float(0.6).assert();
        let row: Vec<Const> = db.query("own", &[None, None, None])[0].to_vec();
        assert!(db.retract_fact("own", &row));
        assert_eq!(db.fact_count("own"), 0);
        assert!(!db.retract_fact("own", &[Const::Int(1), Const::Int(2), Const::Int(3)]));
        assert!(!db.retract_fact("zzz", &[Const::Int(1)]));
    }

    #[test]
    fn canonical_rendering_resolves_nulls_structurally() {
        let mut db = Database::new();
        let a = db.sym("a");
        let f = db.symbols.intern("#mk");
        let id = db.skolems.apply(f, &[a]);
        let nested = db.skolems.apply(f, &[Const::Null(id)]);
        assert_eq!(db.canonical(Const::Null(id)), "#mk(a)");
        assert_eq!(db.canonical(Const::Null(nested)), "#mk(#mk(a))");
        assert_eq!(db.canonical(a), "a");
        // Unknown null ids fall back to the numeric rendering.
        assert_eq!(db.canonical(Const::Null(99)), "_:99");
    }

    #[test]
    fn csr_enumeration_matches_probe_enumeration() {
        // The byte-identity contract: for any key, the frozen CSR must
        // return exactly the rows the hash index would, in the same
        // (insertion) order — including duplicate-key and absent-key
        // shapes, and int/float keys that are Eq-equal via cmp.
        let mut r = Relation::default();
        r.register_index(0b01);
        let rows = [
            (3, 30),
            (1, 10),
            (3, 31),
            (2, 20),
            (1, 11),
            (3, 32),
            (2, 21),
        ];
        for (a, b) in rows {
            r.insert(&[Const::Int(a), Const::Int(b)], None);
        }
        r.freeze_columnar(&[0b01]);
        assert!(r.columnar().is_some());
        for key in [0, 1, 2, 3, 4] {
            let k = [Const::Int(key)];
            assert_eq!(
                r.lookup_rows(0b01, &k),
                r.probe(0b01, &k),
                "key {key}: CSR order diverged from hash-index order"
            );
        }
        // Column strips expose the stored values positionally.
        let col = r.columnar().unwrap().col(0);
        assert_eq!(col[0], Const::Int(3));
        assert_eq!(col[3], Const::Int(2));
    }

    #[test]
    fn multi_column_csr_matches_probe_enumeration() {
        // Two-column keys: the composite CSR must enumerate exactly what
        // the two-column hash index does, in insertion order, for every
        // present and absent key pair — including keys that share a first
        // column (the binary search compares full key slices).
        let mut r = Relation::default();
        r.register_index(0b011);
        r.register_index(0b101);
        let rows = [(3, 1, 9), (1, 2, 8), (3, 1, 7), (3, 2, 6), (1, 2, 5)];
        for (a, b, c) in rows {
            r.insert(&[Const::Int(a), Const::Int(b), Const::Int(c)], None);
        }
        r.freeze_columnar(&[0b011, 0b101]);
        for a in 0..4 {
            for b in 0..10 {
                let k = [Const::Int(a), Const::Int(b)];
                assert_eq!(
                    r.lookup_rows(0b011, &k),
                    r.probe(0b011, &k),
                    "key ({a},{b}) cols 0,1"
                );
                assert_eq!(
                    r.lookup_rows(0b101, &k),
                    r.probe(0b101, &k),
                    "key ({a},{b}) cols 0,2"
                );
            }
        }
        assert_eq!(
            r.lookup_rows(0b011, &[Const::Int(3), Const::Int(1)]),
            &[0, 2]
        );
    }

    #[test]
    fn columnar_freeze_is_idempotent_and_extendable() {
        let mut r = Relation::default();
        r.register_index(0b01);
        r.register_index(0b10);
        r.insert(&[Const::Int(1), Const::Int(2)], None);
        r.freeze_columnar(&[0b01]);
        let first = r.columnar().unwrap() as *const Columnar;
        // Re-freezing with covered masks keeps the same frozen image.
        r.freeze_columnar(&[0b01]);
        assert_eq!(r.columnar().unwrap() as *const Columnar, first);
        // A new mask extends the image over its own strips; it answers
        // both.
        r.freeze_columnar(&[0b10]);
        assert_eq!(r.lookup_rows(0b01, &[Const::Int(1)]), &[0]);
        assert_eq!(r.lookup_rows(0b10, &[Const::Int(2)]), &[0]);
    }

    /// Appends `n` rows `(100 + i, 0)`, keys no test looks up, so that a
    /// few writes stay within the upkeep budget ([`UPKEEP_MOVES_PER_ROW`]).
    fn pad(r: &mut Relation, n: i64) {
        for i in 0..n {
            r.insert(&[Const::Int(100 + i), Const::Int(0)], None);
        }
    }

    #[test]
    fn writes_carry_the_columnar_image() {
        let mut r = Relation::default();
        r.register_index(0b01);
        r.insert(&[Const::Int(1), Const::Int(2)], None);
        pad(&mut r, 31);
        r.freeze_columnar(&[0b01]);
        assert!(r.columnar().is_some());
        // Insert keeps the frozen image current: the new row lands at the
        // end of its key group, and lookups see it.
        let (row, _) = r.insert(&[Const::Int(1), Const::Int(3)], None);
        assert!(r.columnar().is_some());
        r.check_fresh().unwrap();
        assert_eq!(r.lookup_rows(0b01, &[Const::Int(1)]), &[0, row]);
        // remove_tuples compacts it with the row store's shift …
        let mut del = crate::fx::FxHashSet::default();
        del.insert(Tuple::from(&[Const::Int(1), Const::Int(2)][..]));
        r.remove_tuples(&del);
        assert!(r.columnar().is_some());
        r.check_fresh().unwrap();
        assert_eq!(r.lookup_rows(0b01, &[Const::Int(1)]), &[row - 1]);
        // … until the elements those inserts moved pass the budget. Each
        // key below the others opens a group at the front and moves every
        // row id, offset and key: after about 150 the image is
        // dropped, having moved at most one insert more than the budget,
        // and lookups fall back to the live hash index.
        let mut writes = 0;
        while r.columnar().is_some() {
            assert!(
                r.upkeep <= UPKEEP_MOVES_PER_ROW * r.len() + 3 * r.len(),
                "{writes} writes moved {} elements",
                r.upkeep
            );
            writes += 1;
            r.insert(&[Const::Int(-writes), Const::Int(0)], None);
            r.check_fresh().unwrap();
            assert!(writes < 1000, "the image was never dropped");
        }
        assert!(writes > 100, "dropped after {writes} writes");
        assert_eq!(r.upkeep, 0);
        assert_eq!(r.lookup_rows(0b01, &[Const::Int(1)]), &[row - 1]);
        assert_eq!(r.lookup_rows(0b01, &[Const::Int(-1)]), &[row]);
        // replace_all drops a fresh image too.
        r.freeze_columnar(&[0b01]);
        r.replace_all([[Const::Int(9), Const::Int(9)]]);
        assert!(r.columnar().is_none());
        assert_eq!(r.lookup_rows(0b01, &[Const::Int(9)]), &[0]);
    }

    #[test]
    fn lookup_index_is_lazy_per_column_and_carried_by_writes() {
        let mut db = Database::new();
        for (a, b) in [(3, 30), (1, 10), (3, 31), (2, 20), (1, 11)] {
            db.fact("e").int(a).int(b).assert();
        }
        pad(db.relation_mut(0), 40);
        let built = |db: &Database| db.relation("e").unwrap().indexed_columns();
        // All-free and fully bound patterns need no index.
        assert_eq!(db.query("e", &[None, None]).len(), 45);
        assert_eq!(
            db.query("e", &[Some(Const::Int(3)), Some(Const::Int(31))]),
            vec![&[Const::Int(3), Const::Int(31)][..]]
        );
        assert_eq!(built(&db), 0);
        // A bound column builds its own index, once; rows come back in
        // insertion order, and the footprint estimate sees the index.
        let rel = db.relation("e").unwrap();
        let heap_before = rel.approx_heap_bytes();
        let threes = db.query("e", &[Some(Const::Int(3)), None]);
        assert_eq!(threes, vec![rel.row(0), rel.row(2)]);
        assert_eq!(built(&db), 1);
        assert!(rel.approx_heap_bytes() > heap_before);
        db.query("e", &[Some(Const::Int(1)), None]);
        assert_eq!(built(&db), 1);
        db.query("e", &[None, Some(Const::Int(20))]);
        assert_eq!(built(&db), 2);
        // A duplicate insert changes nothing and keeps the indexes …
        db.fact("e").int(1).int(10).assert();
        assert_eq!(built(&db), 2);
        // … each real write carries them, and the next lookup sees the
        // new contents.
        let fresh = |db: &Database| db.relation("e").unwrap().check_fresh().unwrap();
        db.fact("e").int(3).int(32).assert();
        assert_eq!(built(&db), 2);
        fresh(&db);
        assert_eq!(db.query("e", &[Some(Const::Int(3)), None]).len(), 3);
        assert!(db.retract_fact("e", &[Const::Int(3), Const::Int(30)]));
        assert_eq!(built(&db), 2);
        fresh(&db);
        assert_eq!(db.query("e", &[Some(Const::Int(3)), None]).len(), 2);
        // replace_all still drops them.
        db.relation_mut(0)
            .replace_all([[Const::Int(3), Const::Int(9)]]);
        assert_eq!(built(&db), 0);
        assert_eq!(db.query("e", &[Some(Const::Int(3)), None]).len(), 1);
        assert!(db.query("e", &[Some(Const::Int(1)), None]).is_empty());
    }

    #[test]
    fn image_tally_counts_this_threads_work_only() {
        let mut db = Database::new();
        for (a, b) in [(1, 10), (2, 20), (1, 11)] {
            db.fact("e").int(a).int(b).assert();
        }
        let built = |db: &Database| db.relation("e").unwrap().indexed_columns();
        // A reader on another thread builds the index of column 0 on a
        // clone that shares the relation, as a serve reader does on an
        // epoch: this thread's tally does not see it …
        let epoch = db.clone();
        let before = image_tally();
        std::thread::scope(|s| {
            s.spawn(|| epoch.query("e", &[Some(Const::Int(1)), None]).len());
        });
        assert_eq!(built(&db), 1);
        assert_eq!(image_tally(), before);
        // … while this thread's own build, and its writes carrying both
        // indexes, are in it.
        db.query("e", &[None, Some(Const::Int(20))]);
        db.fact("e").int(3).int(30).assert();
        assert_eq!(image_tally(), (before.0 + 2, before.1 + 1));
    }

    #[test]
    fn lazily_indexed_stores_stay_shareable_values() {
        // Epochs are `Arc<Database>` read from many threads, and the
        // engines clone and default-construct relations freely; the
        // interior `OnceLock`s must not cost any of that.
        fn shareable<T: Send + Sync + Default + Clone + std::fmt::Debug>() {}
        shareable::<Relation>();
        shareable::<Database>();
    }

    #[test]
    fn clones_share_lookup_indexes_until_one_side_mutates() {
        let mut writer = Database::new();
        for (a, b) in [(1, 10), (2, 20), (1, 11)] {
            writer.fact("e").int(a).int(b).assert();
        }
        pad(writer.relation_mut(0), 40);
        writer.fact("untouched").int(7).int(70).assert();
        let built = |db: &Database, p: &str| db.relation(p).unwrap().indexed_columns();
        // An epoch is a clone of the writer's database; a reader of the
        // epoch builds the index, and the writer's side has it too …
        let epoch1 = writer.clone();
        assert_eq!(epoch1.query("e", &[Some(Const::Int(1)), None]).len(), 2);
        assert_eq!(
            epoch1
                .query("untouched", &[Some(Const::Int(7)), None])
                .len(),
            1
        );
        assert_eq!((built(&epoch1, "e"), built(&writer, "e")), (1, 1));
        // … so the next epoch starts with the index of every relation the
        // update left alone, and the one it changed carried through the
        // write: copied for the writer, not rebuilt.
        writer.fact("e").int(1).int(12).assert();
        let epoch2 = writer.clone();
        assert_eq!((built(&epoch2, "untouched"), built(&epoch2, "e")), (1, 1));
        epoch2.relation("e").unwrap().check_fresh().unwrap();
        assert_eq!(epoch2.query("e", &[Some(Const::Int(1)), None]).len(), 3);
        // The old epoch keeps answering from its own, unchanged index.
        assert_eq!(built(&epoch1, "e"), 1);
        epoch1.relation("e").unwrap().check_fresh().unwrap();
        assert_eq!(epoch1.query("e", &[Some(Const::Int(1)), None]).len(), 2);
    }

    #[test]
    fn clones_share_relations_until_one_side_writes() {
        let mut writer = Database::new();
        writer.fact("e").int(1).int(2).assert();
        writer.fact("untouched").int(7).assert();
        let epoch = writer.clone();
        assert!(writer.shares_relation(&epoch, "e"));
        assert!(writer.shares_relation(&epoch, "untouched"));
        // A write copies the written relation only; the clone keeps the
        // old contents.
        writer.fact("e").int(2).int(3).assert();
        assert!(!writer.shares_relation(&epoch, "e"));
        assert!(writer.shares_relation(&epoch, "untouched"));
        assert_eq!((writer.fact_count("e"), epoch.fact_count("e")), (2, 1));
        // Writes that change nothing copy nothing.
        writer.fact("untouched").int(7).assert();
        assert!(!writer.retract_fact("untouched", &[Const::Int(8)]));
        assert_eq!(
            writer
                .assert_facts("untouched", Vec::<Tuple>::new())
                .unwrap(),
            0
        );
        assert!(writer.shares_relation(&epoch, "untouched"));
        // The symbol table is shared the same way: interning a known
        // string leaves both sides alike, a new one lands on one side.
        let mut names = epoch.clone();
        assert_eq!(names.sym("x"), writer.sym("x"));
        assert!(epoch.find_sym("x").is_none());
        assert!(!writer.shares_relation(&epoch, "missing"));
    }

    #[test]
    fn empty_relation_freeze_answers_requested_masks() {
        // An empty relation has no arity yet; a requested CSR mask must
        // still be answered (empty) rather than panicking through to an
        // unregistered hash probe.
        let mut r = Relation::default();
        r.freeze_columnar(&[0b10]);
        assert!(r.lookup_rows(0b10, &[Const::Int(1)]).is_empty());
    }

    #[test]
    fn snapshots_share_predicate_name_allocations() {
        // The serve read path clones the database per epoch snapshot;
        // predicate names are Arc<str>, so the clone bumps refcounts
        // instead of copying strings.
        let mut db = Database::new();
        db.fact("own").sym("a").sym("b").float(0.5).assert();
        db.fact("company").sym("a").assert();
        let snap = db.clone();
        for p in 0..db.pred_count() as u32 {
            assert!(
                std::ptr::eq(db.pred_name(p), snap.pred_name(p)),
                "pred {p}: name was deep-copied"
            );
        }
        let scratch = db.project(["own"]);
        for p in 0..db.pred_count() as u32 {
            assert!(std::ptr::eq(db.pred_name(p), scratch.pred_name(p)));
        }
    }

    #[test]
    fn replace_all_rebuilds_indexes() {
        let mut r = Relation::default();
        r.register_index(0b1);
        r.insert(&[Const::Int(1)], None);
        r.insert(&[Const::Int(2)], None);
        r.replace_all([[Const::Int(2)]]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.probe(0b1, &[Const::Int(1)]).len(), 0);
        assert_eq!(r.probe(0b1, &[Const::Int(2)]).len(), 1);
    }
}
