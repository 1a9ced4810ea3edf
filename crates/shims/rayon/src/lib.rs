//! A small, offline work-alike of the `rayon` API surface this workspace
//! uses: [`join`], [`current_num_threads`], and `slice.par_iter().map(..)
//! .collect()` via [`prelude`].
//!
//! The build environment has no crate registry, so the real rayon cannot be
//! vendored.  This shim provides genuine multi-threaded execution on
//! `std::thread::scope`, with a global token counter bounding the number of
//! concurrently spawned threads (beyond the bound, work degrades gracefully
//! to inline sequential execution — the same observable semantics as rayon's
//! work-stealing, minus the stealing).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maximum number of *extra* threads alive at any moment.  Twice the core
/// count keeps all cores busy even when tasks briefly block on locks.
fn thread_limit() -> usize {
    static LIMIT: OnceLock<usize> = OnceLock::new();
    *LIMIT.get_or_init(|| 2 * current_num_threads())
}

static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn try_reserve_thread() -> bool {
    let limit = thread_limit();
    let mut current = ACTIVE.load(Ordering::Relaxed);
    loop {
        if current >= limit {
            return false;
        }
        match ACTIVE.compare_exchange_weak(
            current,
            current + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(observed) => current = observed,
        }
    }
}

/// RAII token: returned by a successful reservation, released on drop so a
/// panicking closure cannot leak its slot and permanently shrink the pool.
struct ThreadToken;

impl Drop for ThreadToken {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The number of threads the "pool" would use: the host's parallelism.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run two closures, potentially in parallel, and return both results.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if !try_reserve_thread() {
        return (oper_a(), oper_b());
    }
    let _token = ThreadToken;
    let result = std::thread::scope(|scope| {
        let handle_b = scope.spawn(oper_b);
        let ra = oper_a();
        (ra, handle_b.join())
    });
    match result {
        (ra, Ok(rb)) => (ra, rb),
        (_, Err(panic)) => std::panic::resume_unwind(panic),
    }
}

pub mod iter {
    //! `par_iter` over slices with `map` + `collect`.

    /// Entry point: `items.par_iter()` on slices and `Vec`s.
    pub trait IntoParallelRefIterator<'data> {
        type Item: 'data;
        fn par_iter(&'data self) -> ParSlice<'data, Self::Item>;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = T;
        fn par_iter(&'data self) -> ParSlice<'data, T> {
            ParSlice { items: self }
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = T;
        fn par_iter(&'data self) -> ParSlice<'data, T> {
            ParSlice { items: self }
        }
    }

    /// A borrowed slice about to be processed in parallel.
    pub struct ParSlice<'data, T> {
        items: &'data [T],
    }

    impl<'data, T: Sync> ParSlice<'data, T> {
        pub fn map<R, F>(self, op: F) -> ParMap<'data, T, F>
        where
            F: Fn(&'data T) -> R + Sync,
            R: Send,
        {
            ParMap {
                items: self.items,
                op,
            }
        }
    }

    /// The mapped form; `collect` drives the parallel execution.
    pub struct ParMap<'data, T, F> {
        items: &'data [T],
        op: F,
    }

    impl<'data, T, F, R> ParMap<'data, T, F>
    where
        T: Sync,
        F: Fn(&'data T) -> R + Sync,
        R: Send,
    {
        pub fn collect<C: FromIterator<R>>(self) -> C {
            run_split(self.items, &self.op).into_iter().collect()
        }
    }

    /// Recursive binary split, each half through [`crate::join`].
    fn run_split<'data, T, R, F>(items: &'data [T], op: &F) -> Vec<R>
    where
        T: Sync,
        F: Fn(&'data T) -> R + Sync,
        R: Send,
    {
        if items.len() <= 1 {
            return items.iter().map(op).collect();
        }
        let (left, right) = items.split_at(items.len() / 2);
        let (mut lv, rv) = crate::join(|| run_split(left, op), || run_split(right, op));
        lv.extend(rv);
        lv
    }
}

pub mod prelude {
    pub use crate::iter::{IntoParallelRefIterator, ParMap, ParSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn nested_joins_bound_thread_count() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = super::join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(fib(18), 2584);
    }

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled: Vec<u64> = items.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_collects_results() {
        let items = [1i64, -2, 3];
        let checked: Vec<Result<i64, String>> = items
            .par_iter()
            .map(|x| {
                if *x >= 0 {
                    Ok(*x)
                } else {
                    Err("negative".into())
                }
            })
            .collect();
        assert_eq!(checked, vec![Ok(1), Err("negative".to_string()), Ok(3)]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn join_propagates_panics() {
        super::join(|| (), || panic!("boom"));
    }
}
