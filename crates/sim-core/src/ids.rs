//! Identifier newtypes used across the simulator layers, plus the dense
//! ID-indexed collections the hot paths use instead of hash maps.
//!
//! Using distinct types for GPU, switch-plane, kernel, thread-block, tile and
//! TB-group identifiers prevents index-mixup bugs that plague simulators
//! written around bare `usize` everywhere. Because every ID is allocated
//! densely from zero by the engine's `IdAlloc`, state keyed by an ID can
//! live in a flat vector ([`DenseMap`], [`DenseSet`]) with O(1) access and
//! deterministic index-order iteration — no hashing, no iteration-order
//! hazards.

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::marker::PhantomData;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw index value.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }

        impl IdIndex for $name {
            fn index(self) -> usize {
                self.0 as usize
            }
            fn from_index(i: usize) -> Self {
                $name(i as $inner)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

/// An identifier that is a dense index: convertible to and from `usize`
/// without loss. Implemented by every ID newtype in this module, letting
/// [`DenseMap`] and [`DenseSet`] key directly off the typed IDs.
pub trait IdIndex: Copy {
    /// The raw index value.
    fn index(self) -> usize;
    /// The ID with raw index `i`.
    fn from_index(i: usize) -> Self;
}

id_type!(
    /// A GPU endpoint in the multi-GPU system (0-based).
    GpuId, u16, "gpu"
);
id_type!(
    /// One NVSwitch plane; a DGX-H100 has four, each connecting all GPUs.
    PlaneId, u16, "plane"
);
id_type!(
    /// A launched kernel instance (unique within one simulation run).
    KernelId, u32, "k"
);
id_type!(
    /// A thread block instance (unique within one simulation run).
    TbId, u64, "tb"
);
id_type!(
    /// A logical data tile (unit of producer/consumer dependency and of
    /// remote fetch/merge; globally unique within a run).
    TileId, u64, "tile"
);
id_type!(
    /// A CAIS TB-group: the set of TBs across GPUs that access the same data
    /// region with CAIS-tagged instructions.
    GroupId, u32, "grp"
);

/// A global memory address in the unified multi-GPU address space.
///
/// The top bits encode the *home GPU* that physically owns the backing
/// memory; the switch merge unit and deterministic routing both key off
/// this address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

/// Number of low bits reserved for the per-GPU offset (1 TiB per GPU).
const ADDR_OFFSET_BITS: u32 = 40;

impl Addr {
    /// Builds an address homed on `gpu` at byte `offset` within that GPU.
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit in the per-GPU offset field.
    pub fn new(gpu: GpuId, offset: u64) -> Addr {
        assert!(
            offset < (1u64 << ADDR_OFFSET_BITS),
            "address offset {offset:#x} exceeds per-GPU space"
        );
        Addr(((gpu.0 as u64) << ADDR_OFFSET_BITS) | offset)
    }

    /// The GPU that physically owns this address.
    pub fn home_gpu(self) -> GpuId {
        GpuId((self.0 >> ADDR_OFFSET_BITS) as u16)
    }

    /// Byte offset within the home GPU's memory.
    pub fn offset(self) -> u64 {
        self.0 & ((1u64 << ADDR_OFFSET_BITS) - 1)
    }

    /// Address advanced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if advancing crosses out of the home GPU's address window.
    // Not `std::ops::Add`: the boundary assert makes this partial, and
    // operator syntax would hide that.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> Addr {
        let a = Addr(self.0 + bytes);
        assert_eq!(
            a.home_gpu(),
            self.home_gpu(),
            "address arithmetic crossed a GPU boundary"
        );
        a
    }

    /// Deterministic switch-plane hash used for merging convergence
    /// (Sec. III-A-5 of the paper): all requests for the same address must
    /// traverse the same plane so they meet the same merge unit.
    pub fn plane(self, n_planes: usize) -> PlaneId {
        debug_assert!(n_planes > 0);
        // Multiplicative (Fibonacci) hash taking the *top* product bits:
        // strided allocations (tile- or MB-aligned offsets) must still
        // spread evenly across planes.
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        PlaneId(((h as u128 * n_planes as u128) >> 64) as u16)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{:#x}", self.home_gpu(), self.offset())
    }
}

/// A map keyed by a dense ID, stored as `Vec<Option<T>>`.
///
/// Constant-time access with no hashing, and iteration in index order, so
/// it is deterministic by construction. Grows on insert, by at most an
/// eighth past the highest ID it holds rather than by doubling; size it
/// up front with [`DenseMap::with_capacity`] when the ID universe is known.
///
/// ```
/// use sim_core::{DenseMap, TbId};
/// let mut m: DenseMap<TbId, u32> = DenseMap::new();
/// m.insert(TbId(3), 7);
/// assert_eq!(m.get(TbId(3)), Some(&7));
/// assert_eq!(m.len(), 1);
/// assert_eq!(m.remove(TbId(3)), Some(7));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DenseMap<I, T> {
    slots: Vec<Option<T>>,
    len: usize,
    _key: PhantomData<I>,
}

impl<I: IdIndex, T> DenseMap<I, T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Creates an empty map with room for IDs `0..n` without regrowth.
    pub fn with_capacity(n: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(n, || None);
        DenseMap {
            slots,
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `key`, if present.
    #[inline]
    pub fn get(&self, key: I) -> Option<&T> {
        self.slots.get(key.index()).and_then(|s| s.as_ref())
    }

    /// Mutable access to the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: I) -> Option<&mut T> {
        self.slots.get_mut(key.index()).and_then(|s| s.as_mut())
    }

    /// True if `key` has a value.
    #[inline]
    pub fn contains_key(&self, key: I) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: I, value: T) -> Option<T> {
        let i = key.index();
        self.extend_to(i);
        let prev = self.slots[i].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: I) -> Option<T> {
        let prev = self.slots.get_mut(key.index()).and_then(|s| s.take());
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Mutable access to the value at `key`, inserting `T::default()`
    /// first if absent (the `entry().or_default()` idiom).
    pub fn get_or_default(&mut self, key: I) -> &mut T
    where
        T: Default,
    {
        let i = key.index();
        self.extend_to(i);
        if self.slots[i].is_none() {
            self.slots[i] = Some(T::default());
            self.len += 1;
        }
        self.slots[i].as_mut().expect("just ensured present")
    }

    /// Makes index `i` addressable. A reallocation reserves an eighth
    /// more than the old capacity, or exactly `i + 1` slots if that is
    /// more: growth stays amortized, but the spare slots stay within an
    /// eighth of the table's extent instead of up to its whole size.
    fn extend_to(&mut self, i: usize) {
        if i < self.slots.len() {
            return;
        }
        let cap = self.slots.capacity();
        if i >= cap {
            let want = (i + 1).max(cap + cap / 8);
            self.slots.reserve_exact(want - self.slots.len());
        }
        self.slots.resize_with(i + 1, || None);
    }

    /// Present entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (I::from_index(i), v)))
    }

    /// Present keys in index order.
    pub fn keys(&self) -> impl Iterator<Item = I> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

impl<I: IdIndex, T> Default for DenseMap<I, T> {
    fn default() -> Self {
        DenseMap::new()
    }
}

/// A set of dense IDs, stored as a bitmap.
///
/// ```
/// use sim_core::{DenseSet, TbId};
/// let mut s: DenseSet<TbId> = DenseSet::new();
/// assert!(s.insert(TbId(70)));
/// assert!(!s.insert(TbId(70)));
/// assert!(s.contains(TbId(70)));
/// assert!(s.remove(TbId(70)));
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DenseSet<I> {
    words: Vec<u64>,
    len: usize,
    _key: PhantomData<I>,
}

impl<I: IdIndex> DenseSet<I> {
    /// Creates an empty set.
    pub fn new() -> Self {
        DenseSet {
            words: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Creates an empty set with room for IDs `0..n` without regrowth.
    pub fn with_capacity(n: usize) -> Self {
        DenseSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `key` is a member.
    #[inline]
    pub fn contains(&self, key: I) -> bool {
        let i = key.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Adds `key`; returns true if it was newly inserted.
    pub fn insert(&mut self, key: I) -> bool {
        let i = key.index();
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        let bit = 1 << (i % 64);
        let fresh = self.words[i / 64] & bit == 0;
        self.words[i / 64] |= bit;
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes `key`; returns true if it was a member.
    pub fn remove(&mut self, key: I) -> bool {
        let i = key.index();
        let Some(w) = self.words.get_mut(i / 64) else {
            return false;
        };
        let bit = 1 << (i % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        if present {
            self.len -= 1;
        }
        present
    }
}

/// A fast, deterministic hasher for the maps that stay hash-based (keys
/// that are not dense indices, e.g. `(GpuId, Addr)` pairs).
///
/// `std`'s default SipHash is keyed per-process for DoS resistance the
/// simulator does not need; this Fibonacci-multiply mix is several times
/// cheaper and — being unkeyed — makes iteration order reproducible
/// across runs and platforms.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        // Final avalanche so sequential keys spread across buckets.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(29) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FastHasher`]; use as the `S` type
/// parameter of `HashMap`/`HashSet`.
pub type FastHash = BuildHasherDefault<FastHasher>;

/// TBs waiting on one event, in arrival order. Most waits have a single
/// TB, which is stored inline; only a second one allocates. The `Vec`
/// niche keeps this at the size of a `Vec`.
#[derive(Debug, Default)]
pub enum Waiters {
    /// No TB waits.
    #[default]
    None,
    /// One TB waits, stored inline.
    One(TbId),
    /// Two or more TBs wait.
    Many(Vec<TbId>),
}

const _: () = assert!(std::mem::size_of::<Waiters>() == std::mem::size_of::<Vec<TbId>>());

impl Waiters {
    /// Appends `tb`.
    pub fn push(&mut self, tb: TbId) {
        *self = match std::mem::take(self) {
            Waiters::None => Waiters::One(tb),
            Waiters::One(first) => Waiters::Many(vec![first, tb]),
            Waiters::Many(mut tbs) => {
                tbs.push(tb);
                Waiters::Many(tbs)
            }
        };
    }

    /// The waiting TBs, in arrival order.
    pub fn as_slice(&self) -> &[TbId] {
        match self {
            Waiters::None => &[],
            Waiters::One(tb) => std::slice::from_ref(tb),
            Waiters::Many(tbs) => tbs,
        }
    }
}

/// A collection that can give back capacity it no longer needs: what
/// [`shrink_sparse`] works on.
pub trait Shrink {
    /// Number of elements held.
    fn count(&self) -> usize;
    /// Number of elements the current allocation can hold.
    fn capacity(&self) -> usize;
    /// Shrinks the allocation, keeping room for at least `min` elements.
    fn shrink_to(&mut self, min: usize);
}

impl<K: Eq + Hash, V, S: BuildHasher> Shrink for HashMap<K, V, S> {
    fn count(&self) -> usize {
        self.len()
    }
    fn capacity(&self) -> usize {
        HashMap::capacity(self)
    }
    fn shrink_to(&mut self, min: usize) {
        HashMap::shrink_to(self, min);
    }
}

impl<T: Ord> Shrink for BinaryHeap<T> {
    fn count(&self) -> usize {
        self.len()
    }
    fn capacity(&self) -> usize {
        BinaryHeap::capacity(self)
    }
    fn shrink_to(&mut self, min: usize) {
        BinaryHeap::shrink_to(self, min);
    }
}

/// Gives back a collection's spare capacity once it is under a quarter
/// full: it shrinks to half full, but never below `min_capacity`, so
/// bursts smaller than that never reallocate it. Each shrink at least
/// halves the allocation, so calling this after every removal amortizes
/// the copy over the removals in between, and a table or queue that grew
/// for a burst holds only live entries once the burst is over.
///
/// ```
/// use sim_core::{shrink_sparse, FastHash};
/// use std::collections::HashMap;
/// let mut m: HashMap<u64, u64, FastHash> = (0..4096).map(|i| (i, i)).collect();
/// for i in 0..4096 {
///     m.remove(&i);
///     shrink_sparse(&mut m, 32);
/// }
/// assert!(m.capacity() <= 64);
/// ```
pub fn shrink_sparse<C: Shrink>(c: &mut C, min_capacity: usize) {
    let floor = c.count().max(min_capacity / 2);
    if c.capacity() > 4 * floor {
        c.shrink_to(2 * floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_and_index() {
        assert_eq!(format!("{}", GpuId(3)), "gpu3");
        assert_eq!(TbId(42).index(), 42);
        assert_eq!(GroupId::from(7), GroupId(7));
    }

    #[test]
    fn addr_encodes_home_gpu() {
        let a = Addr::new(GpuId(5), 0x1234);
        assert_eq!(a.home_gpu(), GpuId(5));
        assert_eq!(a.offset(), 0x1234);
        assert_eq!(a.add(0x10).offset(), 0x1244);
    }

    #[test]
    fn addr_plane_is_deterministic_and_in_range() {
        for off in [0u64, 128, 4096, 1 << 20, (1 << 30) + 640] {
            let a = Addr::new(GpuId(2), off);
            let p = a.plane(4);
            assert_eq!(p, a.plane(4), "same address must map to same plane");
            assert!(p.index() < 4);
        }
    }

    #[test]
    fn plane_hash_spreads_strided_allocations() {
        // Tile-, packet- and MB-aligned strides must all spread across
        // planes within 2x of uniform (regression test: a weak hash once
        // put every MB-aligned chunk on one plane).
        for stride in [128u64, 8 << 10, 32 << 10, 1 << 20] {
            let mut counts = [0usize; 4];
            for gpu in 0..8u16 {
                for j in 0..64u64 {
                    let a = Addr::new(GpuId(gpu), j * stride);
                    counts[a.plane(4).index()] += 1;
                }
            }
            let total: usize = counts.iter().sum();
            for (p, c) in counts.iter().enumerate() {
                assert!(
                    *c * 4 >= total / 2 && *c * 4 <= total * 2,
                    "stride {stride}: plane {p} got {c}/{total}"
                );
            }
        }
    }

    #[test]
    fn dense_map_grows_by_an_eighth_past_its_extent() {
        // IDs arriving one at a time, as a GPU's tile table sees them:
        // the table never holds more than an eighth of spare slots past
        // the highest ID (a doubling `Vec` holds up to twice the extent).
        let mut m: DenseMap<TileId, u32> = DenseMap::new();
        for i in 0..100_000u64 {
            m.insert(TileId(i), 1);
            let extent = i as usize + 1;
            assert!(
                m.slots.capacity() <= extent + extent / 8 + 1,
                "{} slots for extent {extent}",
                m.slots.capacity()
            );
        }
        // A jump far past the extent reserves exactly up to it.
        m.insert(TileId(1_000_000), 1);
        assert_eq!(m.slots.capacity(), 1_000_001);
        assert_eq!(m.len(), 100_001);
    }

    #[test]
    #[should_panic(expected = "exceeds per-GPU space")]
    fn addr_offset_overflow_panics() {
        let _ = Addr::new(GpuId(0), 1 << 41);
    }

    #[test]
    #[should_panic(expected = "crossed a GPU boundary")]
    fn addr_add_cannot_cross_gpus() {
        let a = Addr::new(GpuId(0), (1 << 40) - 4);
        let _ = a.add(8);
    }
}
