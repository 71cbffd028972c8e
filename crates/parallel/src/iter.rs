//! Parallel iterators over splittable producers.
//!
//! [`Par`] wraps a [`Producer`] — a source that knows its number of index
//! slots and can split itself at an index. Adaptors (`map`, `filter`,
//! `enumerate`, ...) wrap the producer lazily, exactly like rayon;
//! terminals (`for_each`, `sum`, `collect`, ...) recursively split the
//! producer down to a grain size and execute the pieces with
//! [`crate::join`], merging partial results **in index order**, so every
//! terminal is deterministic at any thread count.
//!
//! Adaptor closures are stored behind `Arc` so a split can hand both
//! halves a handle without cloning the closure itself (one allocation per
//! adaptor in the chain, none per element or per split).
//!
//! `enumerate` and `zip` assume their input producer is *exact* (one item
//! per index slot — true for slices, ranges, chunks, and maps thereof, but
//! not downstream of `filter`/`flat_map_iter`), same as
//! rayon's `IndexedParallelIterator` requirement, enforced there by the
//! type system and here by convention — the workspace never enumerates a
//! filtered iterator.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A splittable work source: `len` index slots, divisible at any index,
/// consumable by an in-order fold.
#[allow(clippy::len_without_is_empty)] // producers are never empty-tested
pub trait Producer: Sized + Send {
    type Item: Send;

    /// Number of index slots (exact item count for indexed sources, an
    /// upper bound downstream of filtering).
    fn len(&self) -> usize;

    /// Split into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Consume in ascending index order, threading an accumulator.
    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, g: G) -> Acc;
}

/// Parallel iterator: a producer, split down to `len / (4 × threads)`
/// slots when a terminal runs.
pub struct Par<P> {
    producer: P,
}

pub(crate) fn par<P: Producer>(producer: P) -> Par<P> {
    Par { producer }
}

// ---------------------------------------------------------------------------
// Entry-point traits (rayon's names)
// ---------------------------------------------------------------------------

/// Anything rayon would accept as `IntoParallelIterator`. Implemented for
/// integer ranges, `Vec<T>`, and `Par` itself (so adaptor arguments like
/// `zip`'s compose the same way as rayon's).
pub trait IntoParallelIterator {
    type Producer: Producer<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Par<Self::Producer>;
}

impl<P: Producer> IntoParallelIterator for Par<P> {
    type Producer = P;
    type Item = P::Item;
    fn into_par_iter(self) -> Par<P> {
        self
    }
}

/// `c.par_iter()` — borrow a slice (or anything that derefs to one) as a
/// parallel iterator over `&T`.
pub trait IntoParallelRefIterator<'data> {
    type Producer: Producer<Item = Self::Item>;
    type Item: Send;
    fn par_iter(&'data self) -> Par<Self::Producer>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Producer = SliceProducer<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> Par<SliceProducer<'data, T>> {
        par(SliceProducer(self))
    }
}

/// `c.par_iter_mut()` — borrow a slice uniquely as a parallel iterator
/// over `&mut T`.
pub trait IntoParallelRefMutIterator<'data> {
    type Producer: Producer<Item = Self::Item>;
    type Item: Send;
    fn par_iter_mut(&'data mut self) -> Par<Self::Producer>;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Producer = SliceMutProducer<'data, T>;
    type Item = &'data mut T;
    fn par_iter_mut(&'data mut self) -> Par<SliceMutProducer<'data, T>> {
        par(SliceMutProducer(self))
    }
}

// ---------------------------------------------------------------------------
// Source producers
// ---------------------------------------------------------------------------

pub struct SliceProducer<'a, T>(pub(crate) &'a [T]);

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(index);
        (SliceProducer(l), SliceProducer(r))
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
        let mut acc = acc;
        for x in self.0 {
            acc = g(acc, x);
        }
        acc
    }
}

pub struct SliceMutProducer<'a, T>(pub(crate) &'a mut [T]);

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at_mut(index);
        (SliceMutProducer(l), SliceMutProducer(r))
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
        let mut acc = acc;
        for x in self.0 {
            acc = g(acc, x);
        }
        acc
    }
}

/// Producer for `Range<T>` over the integer index types the workspace
/// iterates in parallel.
pub struct RangeProducer<T> {
    start: T,
    end: T,
}

macro_rules! range_producer {
    ($($t:ty),*) => {$(
        impl Producer for RangeProducer<$t> {
            type Item = $t;

            fn len(&self) -> usize {
                if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                }
            }

            fn split_at(self, index: usize) -> (Self, Self) {
                let mid = self.start + index as $t;
                (
                    RangeProducer { start: self.start, end: mid },
                    RangeProducer { start: mid, end: self.end },
                )
            }

            fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
                let mut acc = acc;
                for x in self.start..self.end {
                    acc = g(acc, x);
                }
                acc
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Producer = RangeProducer<$t>;
            type Item = $t;
            fn into_par_iter(self) -> Par<RangeProducer<$t>> {
                par(RangeProducer { start: self.start, end: self.end })
            }
        }
    )*};
}

range_producer!(u32, u64, usize);

/// Producer for an owned `Vec` (splits by moving the tail out).
pub struct VecProducer<T>(Vec<T>);

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.0.split_off(index);
        (VecProducer(self.0), VecProducer(tail))
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
        let mut acc = acc;
        for x in self.0 {
            acc = g(acc, x);
        }
        acc
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Producer = VecProducer<T>;
    type Item = T;
    fn into_par_iter(self) -> Par<VecProducer<T>> {
        par(VecProducer(self))
    }
}

// ---------------------------------------------------------------------------
// Adaptor producers
// ---------------------------------------------------------------------------

pub struct MapProducer<P, F> {
    base: P,
    f: Arc<F>,
}

impl<P, F, R> Producer for MapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            MapProducer {
                base: l,
                f: self.f.clone(),
            },
            MapProducer { base: r, f: self.f },
        )
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
        let f = self.f;
        self.base.fold(acc, |a, x| g(a, f(x)))
    }
}

pub struct FilterProducer<P, F> {
    base: P,
    p: Arc<F>,
}

impl<P, F> Producer for FilterProducer<P, F>
where
    P: Producer,
    F: Fn(&P::Item) -> bool + Send + Sync,
{
    type Item = P::Item;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FilterProducer {
                base: l,
                p: self.p.clone(),
            },
            FilterProducer { base: r, p: self.p },
        )
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
        let p = self.p;
        self.base.fold(acc, |a, x| if p(&x) { g(a, x) } else { a })
    }
}

pub struct FlatMapIterProducer<P, F> {
    base: P,
    f: Arc<F>,
}

impl<P, F, U> Producer for FlatMapIterProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> U + Send + Sync,
    U: IntoIterator,
    U::Item: Send,
{
    type Item = U::Item;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FlatMapIterProducer {
                base: l,
                f: self.f.clone(),
            },
            FlatMapIterProducer { base: r, f: self.f },
        )
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
        let f = self.f;
        self.base.fold(acc, |a, x| f(x).into_iter().fold(a, &mut g))
    }
}

pub struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            EnumerateProducer {
                base: l,
                offset: self.offset,
            },
            EnumerateProducer {
                base: r,
                offset: self.offset + index,
            },
        )
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
        let mut i = self.offset;
        self.base.fold(acc, |a, x| {
            let out = g(a, (i, x));
            i += 1;
            out
        })
    }
}

pub struct ZipProducer<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (ZipProducer { a: al, b: bl }, ZipProducer { a: ar, b: br })
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(mut self, mut acc: Acc, mut g: G) -> Acc {
        // Folds cannot interleave, so the right side is buffered — but in
        // bounded blocks, so a whole-producer leaf (budget 1, or tiny
        // inputs) stays O(block) extra space rather than O(n).
        const BLOCK: usize = 1024;
        loop {
            let n = self.len();
            if n == 0 {
                return acc;
            }
            let take = n.min(BLOCK);
            let (a_head, a_tail) = self.a.split_at(take);
            let (b_head, b_tail) = self.b.split_at(take);
            let bs = b_head.fold(Vec::with_capacity(take), |mut v, y| {
                v.push(y);
                v
            });
            let mut it = bs.into_iter();
            acc = a_head.fold(acc, |a, x| match it.next() {
                Some(y) => g(a, (x, y)),
                None => a,
            });
            self = ZipProducer {
                a: a_tail,
                b: b_tail,
            };
        }
    }
}

/// rayon's `map_init`: per-split scratch state, initialized once per leaf.
pub struct MapInitProducer<P, INIT, F> {
    base: P,
    init: Arc<INIT>,
    f: Arc<F>,
}

impl<P, INIT, T, F, R> Producer for MapInitProducer<P, INIT, F>
where
    P: Producer,
    INIT: Fn() -> T + Send + Sync,
    F: Fn(&mut T, P::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            MapInitProducer {
                base: l,
                init: self.init.clone(),
                f: self.f.clone(),
            },
            MapInitProducer {
                base: r,
                init: self.init,
                f: self.f,
            },
        )
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
        let mut state = (self.init)();
        let f = self.f;
        self.base.fold(acc, |a, x| g(a, f(&mut state, x)))
    }
}

pub struct ClonedProducer<P>(P);

impl<'a, T, P> Producer for ClonedProducer<P>
where
    T: Clone + Send + Sync + 'a,
    P: Producer<Item = &'a T>,
{
    type Item = T;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(index);
        (ClonedProducer(l), ClonedProducer(r))
    }

    fn fold<Acc, G: FnMut(Acc, Self::Item) -> Acc>(self, acc: Acc, mut g: G) -> Acc {
        self.0.fold(acc, |a, x| g(a, x.clone()))
    }
}

// ---------------------------------------------------------------------------
// The execution driver
// ---------------------------------------------------------------------------

/// Recursively halve `p` down to `grain` slots, execute the leaves with
/// [`crate::join`], and combine partial results in index order.
pub(crate) fn drive<P, T, LEAF, MERGE>(p: P, grain: usize, leaf: &LEAF, merge: &MERGE) -> T
where
    P: Producer,
    T: Send,
    LEAF: Fn(P) -> T + Sync,
    MERGE: Fn(T, T) -> T + Sync,
{
    if p.len() <= grain || crate::current_num_threads() <= 1 {
        return leaf(p);
    }
    let mid = p.len() / 2;
    let (l, r) = p.split_at(mid);
    let (tl, tr) = crate::join(
        || drive(l, grain, leaf, merge),
        || drive(r, grain, leaf, merge),
    );
    merge(tl, tr)
}

/// Split grain: aim for ~4 leaves per thread so stragglers rebalance.
pub(crate) fn grain_for(len: usize) -> usize {
    let threads = crate::current_num_threads();
    (len / (4 * threads).max(1)).max(1)
}

// ---------------------------------------------------------------------------
// Adaptors and terminals
// ---------------------------------------------------------------------------

impl<P: Producer> Par<P> {
    // ---- adaptors (lazy, same shapes as rayon) ----

    pub fn map<R, F>(self, f: F) -> Par<MapProducer<P, F>>
    where
        F: Fn(P::Item) -> R + Send + Sync,
        R: Send,
    {
        Par {
            producer: MapProducer {
                base: self.producer,
                f: Arc::new(f),
            },
        }
    }

    pub fn filter<F>(self, p: F) -> Par<FilterProducer<P, F>>
    where
        F: Fn(&P::Item) -> bool + Send + Sync,
    {
        Par {
            producer: FilterProducer {
                base: self.producer,
                p: Arc::new(p),
            },
        }
    }

    /// rayon's `flat_map_iter`: the inner iterator is a plain serial one.
    pub fn flat_map_iter<U, F>(self, f: F) -> Par<FlatMapIterProducer<P, F>>
    where
        F: Fn(P::Item) -> U + Send + Sync,
        U: IntoIterator,
        U::Item: Send,
    {
        Par {
            producer: FlatMapIterProducer {
                base: self.producer,
                f: Arc::new(f),
            },
        }
    }

    /// Pair items with their global index (input must be exact — see the
    /// module docs).
    pub fn enumerate(self) -> Par<EnumerateProducer<P>> {
        Par {
            producer: EnumerateProducer {
                base: self.producer,
                offset: 0,
            },
        }
    }

    /// Pair lockstep with another parallel iterator (both must be exact —
    /// see the module docs).
    pub fn zip<J: IntoParallelIterator>(self, other: J) -> Par<ZipProducer<P, J::Producer>> {
        Par {
            producer: ZipProducer {
                a: self.producer,
                b: other.into_par_iter().producer,
            },
        }
    }

    /// rayon's `map_init`: per-leaf scratch state.
    pub fn map_init<T, R, INIT, F>(self, init: INIT, f: F) -> Par<MapInitProducer<P, INIT, F>>
    where
        INIT: Fn() -> T + Send + Sync,
        F: Fn(&mut T, P::Item) -> R + Send + Sync,
        R: Send,
    {
        Par {
            producer: MapInitProducer {
                base: self.producer,
                init: Arc::new(init),
                f: Arc::new(f),
            },
        }
    }

    pub fn cloned<'a, T>(self) -> Par<ClonedProducer<P>>
    where
        T: Clone + Send + Sync + 'a,
        P: Producer<Item = &'a T>,
    {
        Par {
            producer: ClonedProducer(self.producer),
        }
    }

    pub fn copied<'a, T>(self) -> Par<ClonedProducer<P>>
    where
        T: Copy + Send + Sync + 'a,
        P: Producer<Item = &'a T>,
    {
        self.cloned()
    }

    // ---- terminals (parallel, order-preserving, schedule-independent) ----

    fn run<T, LEAF, MERGE>(self, leaf: LEAF, merge: MERGE) -> T
    where
        T: Send,
        LEAF: Fn(P) -> T + Sync,
        MERGE: Fn(T, T) -> T + Sync,
    {
        let grain = grain_for(self.producer.len());
        drive(self.producer, grain, &leaf, &merge)
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Send + Sync,
    {
        self.run(|p| p.fold((), |(), x| f(x)), |(), ()| ());
    }

    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        self.run(
            |p| {
                p.fold(S::sum(std::iter::empty::<P::Item>()), |a, x| {
                    S::sum([a, S::sum(std::iter::once(x))].into_iter())
                })
            },
            |a, b| S::sum([a, b].into_iter()),
        )
    }

    pub fn count(self) -> usize {
        self.run(|p| p.fold(0usize, |a, _| a + 1), |a, b| a + b)
    }

    pub fn min(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        self.run(
            |p| {
                p.fold(None, |a: Option<P::Item>, x| match a {
                    Some(m) if m <= x => Some(m),
                    _ => Some(x),
                })
            },
            |a, b| match (a, b) {
                (Some(x), Some(y)) => Some(if x <= y { x } else { y }),
                (x, None) => x,
                (None, y) => y,
            },
        )
    }

    pub fn any<F>(self, f: F) -> bool
    where
        F: Fn(P::Item) -> bool + Send + Sync,
    {
        let found = AtomicBool::new(false);
        self.run(
            |p| {
                // Leaves that start after a hit skip their work entirely.
                if !found.load(Ordering::Relaxed) {
                    p.fold((), |(), x| {
                        if f(x) {
                            found.store(true, Ordering::Relaxed);
                        }
                    });
                }
            },
            |(), ()| (),
        );
        found.load(Ordering::Relaxed)
    }

    /// rayon's two-argument reduce: fold from an identity element.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Send + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
    {
        self.run(|p| p.fold(identity(), &op), &op)
    }

    pub fn collect<C: FromIterator<P::Item>>(self) -> C {
        let parts = self.run(
            |p| {
                let mut v = Vec::with_capacity(p.len());
                p.fold((), |(), x| v.push(x));
                v
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        parts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_collect_large() {
        let v: Vec<u64> = (0..100_000u64).into_par_iter().map(|x| x * 2).collect();
        let want: Vec<u64> = (0..100_000u64).map(|x| x * 2).collect();
        assert_eq!(v, want);
    }

    #[test]
    fn filter_preserves_order() {
        let v: Vec<u64> = (0..10_000u64)
            .into_par_iter()
            .filter(|x| x % 7 == 0)
            .collect();
        let want: Vec<u64> = (0..10_000u64).filter(|x| x % 7 == 0).collect();
        assert_eq!(v, want);
    }

    #[test]
    fn zip_and_enumerate_line_up() {
        let a: Vec<u64> = (0..5_000).collect();
        let mut b = vec![0u64; 5_000];
        b.par_iter_mut()
            .zip(a.par_iter())
            .enumerate()
            .for_each(|(i, (slot, &x))| *slot = x + i as u64);
        assert!(b.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    }

    #[test]
    fn min_any_sum() {
        let v: Vec<u64> = (0..1_000u64).map(|x| (x * 7919) % 1000).collect();
        assert_eq!(v.par_iter().min(), v.iter().min());
        assert!(v.par_iter().any(|&x| x == 500));
        assert!(!v.par_iter().any(|&x| x > 1000));
        assert_eq!(v.par_iter().copied().sum::<u64>(), v.iter().sum::<u64>());
    }

    #[test]
    fn map_init_runs_once_per_leaf() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let total: u64 = (0..10_000u64)
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u64
                },
                |_s, x| x,
            )
            .sum();
        assert_eq!(total, (0..10_000u64).sum());
        assert!(inits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn vec_into_par_iter() {
        let v: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = v.clone().into_par_iter().map(|x| x + 1).collect();
        assert!(out.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }
}
