//! Offline stand-in for `rayon`: `par_iter` / `into_par_iter` hand back a
//! wrapper around the ordinary sequential iterator, so every "parallel"
//! section of the repository runs on the calling thread. Results are
//! identical (the call sites are order-independent by construction);
//! wall-clock numbers for those sections are single-thread numbers.

/// Always 1: the stand-in never spawns a thread.
#[must_use]
pub fn current_num_threads() -> usize {
    1
}

/// Sequential iterator carrying rayon's adaptor names.
pub struct ParIter<I>(I);

impl<I: Iterator> ParIter<I> {
    pub fn map<R, F: FnMut(I::Item) -> R>(self, f: F) -> ParIter<std::iter::Map<I, F>> {
        ParIter(self.0.map(f))
    }

    pub fn filter<F: FnMut(&I::Item) -> bool>(self, f: F) -> ParIter<std::iter::Filter<I, F>> {
        ParIter(self.0.filter(f))
    }

    pub fn enumerate(self) -> ParIter<std::iter::Enumerate<I>> {
        ParIter(self.0.enumerate())
    }

    pub fn sum<S: std::iter::Sum<I::Item>>(self) -> S {
        self.0.sum()
    }

    pub fn count(self) -> usize {
        self.0.count()
    }

    /// rayon's `reduce(identity, op)`, folded left to right.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> I::Item
    where
        ID: Fn() -> I::Item,
        OP: Fn(I::Item, I::Item) -> I::Item,
    {
        self.0.fold(identity(), op)
    }

    pub fn collect<C: FromIterator<I::Item>>(self) -> C {
        self.0.collect()
    }
}

pub mod prelude {
    pub use super::ParIter;

    pub trait IntoParallelIterator {
        type Iter: Iterator;
        fn into_par_iter(self) -> ParIter<Self::Iter>;
    }

    impl<T: IntoIterator> IntoParallelIterator for T {
        type Iter = T::IntoIter;
        fn into_par_iter(self) -> ParIter<Self::Iter> {
            ParIter(self.into_iter())
        }
    }

    pub trait IntoParallelRefIterator<'a> {
        type Iter: Iterator;
        fn par_iter(&'a self) -> ParIter<Self::Iter>;
    }

    impl<'a, T: 'a + ?Sized> IntoParallelRefIterator<'a> for T
    where
        &'a T: IntoIterator,
    {
        type Iter = <&'a T as IntoIterator>::IntoIter;
        fn par_iter(&'a self) -> ParIter<Self::Iter> {
            ParIter(self.into_iter())
        }
    }
}
