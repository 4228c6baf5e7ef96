//! Thread-scoped ambient request ids.
//!
//! A server assigns every request a monotonic id and [`enter`]s it on
//! the thread that handles the request; every journal record emitted
//! while the guard lives — span opens and closes, free-standing events
//! — is stamped with a `req` field, so one request's span tree can be
//! extracted from a journal interleaved across many concurrent
//! requests. Work that fans out over worker threads must re-enter the
//! id inside each worker for its records to carry it.
//!
//! Like spans, the whole mechanism compiles out behind the `trace`
//! feature: with the feature off [`enter`] returns an inert guard,
//! [`current`] is a constant `0`, and no record ever grows a `req`
//! field.

#[cfg(feature = "trace")]
mod imp {
    use std::cell::Cell;

    thread_local! {
        // Request id 0 is reserved for "no request".
        static CURRENT: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn set(id: u64) -> u64 {
        CURRENT.with(|c| c.replace(id))
    }

    pub(super) fn current() -> u64 {
        CURRENT.with(Cell::get)
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    #[inline(always)]
    pub(super) fn current() -> u64 {
        0
    }
}

/// The calling thread's ambient request id (`0` when none is entered
/// or the `trace` feature is compiled out).
#[inline]
pub fn current() -> u64 {
    imp::current()
}

/// Install `id` as the calling thread's ambient request id for the
/// lifetime of the returned guard; the previous id (usually `0`) is
/// restored on drop. Entering `0` is a no-op guard, so callers can
/// thread an optional id unconditionally.
pub fn enter(id: u64) -> RequestGuard {
    #[cfg(feature = "trace")]
    {
        if id == 0 {
            return RequestGuard { prev: None };
        }
        RequestGuard { prev: Some(imp::set(id)) }
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = id;
        RequestGuard {}
    }
}

/// Scope guard for an ambient request id; see [`enter`].
#[must_use = "the request id is uninstalled when the guard drops; bind it to a variable"]
pub struct RequestGuard {
    #[cfg(feature = "trace")]
    prev: Option<u64>,
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        #[cfg(feature = "trace")]
        if let Some(prev) = self.prev.take() {
            imp::set(prev);
        }
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_and_restore() {
        assert_eq!(current(), 0);
        {
            let _a = enter(7);
            assert_eq!(current(), 7);
            {
                let _b = enter(9);
                assert_eq!(current(), 9);
            }
            assert_eq!(current(), 7);
        }
        assert_eq!(current(), 0);
    }

    #[test]
    fn zero_is_an_inert_guard() {
        let _outer = enter(3);
        let _zero = enter(0);
        assert_eq!(current(), 3, "entering 0 must not clobber the live id");
    }

    #[test]
    fn ids_are_thread_scoped() {
        let _here = enter(11);
        std::thread::spawn(|| assert_eq!(current(), 0)).join().unwrap();
        assert_eq!(current(), 11);
    }
}
