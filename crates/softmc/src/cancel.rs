//! Cooperative cancellation for long-running bench work.
//!
//! A [`CancelToken`] is a shared atomic flag checked at command
//! boundaries: the start of every host operation, every instruction of
//! a SoftMC program, every temperature settle, and every probe of the
//! `hc_first` binary search. Cancellation is *cooperative* — nothing is
//! torn down asynchronously; the worker unwinds with
//! [`SoftMcError::Cancelled`](crate::SoftMcError::Cancelled) at the
//! next check, leaving the bench in a consistent state.
//!
//! Tokens form a tree: [`CancelToken::child`] derives a token that
//! trips when either it *or any ancestor* is cancelled. A campaign
//! holds the root (wired to SIGINT/SIGTERM in `repro`); the campaign
//! runner hands each module task a child so a watchdog can cancel one
//! overrunning module without touching its siblings.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, cloneable cancellation flag. Cloning shares the flag;
/// [`child`](Self::child) derives a new flag linked to this one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    own: Arc<AtomicBool>,
    /// Ancestor flags, root first. Checking them is a handful of
    /// relaxed loads — cheap enough for per-command boundaries.
    ancestors: Vec<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A fresh, uncancelled root token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives a token that is cancelled when either it or any of this
    /// token's line of ancestors is cancelled. Cancelling the child
    /// never affects the parent.
    pub fn child(&self) -> Self {
        let mut ancestors = self.ancestors.clone();
        ancestors.push(Arc::clone(&self.own));
        Self { own: Arc::new(AtomicBool::new(false)), ancestors }
    }

    /// Derives a token that trips when *either* this token's line or
    /// `other`'s line cancels (or when the linked token itself is
    /// cancelled). Cancelling the linked token affects neither
    /// parent. This is the bridge a fleet worker uses to merge its
    /// process-wide operator token with a per-lease remote-cancel
    /// token: the job stops when the operator hits Ctrl-C *or* the
    /// coordinator revokes the lease.
    pub fn linked(&self, other: &CancelToken) -> Self {
        let mut ancestors = self.ancestors.clone();
        ancestors.push(Arc::clone(&self.own));
        ancestors.extend(other.ancestors.iter().cloned());
        ancestors.push(Arc::clone(&other.own));
        Self { own: Arc::new(AtomicBool::new(false)), ancestors }
    }

    /// Requests cancellation of this token and all its descendants.
    pub fn cancel(&self) {
        self.own.store(true, Ordering::SeqCst);
    }

    /// Whether this token or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.own.load(Ordering::Relaxed)
            || self.ancestors.iter().any(|a| a.load(Ordering::Relaxed))
    }

    /// Blocks until the token is cancelled or `timeout` elapses,
    /// polling every `poll` (floored at 1 ms). Returns whether the
    /// token fired. This is the bridge for shutting down sidecar
    /// services (e.g. the telemetry HTTP server, which cannot depend
    /// on this crate) from the cancellation tree without busy-waiting.
    pub fn wait_timeout(&self, timeout: std::time::Duration, poll: std::time::Duration) -> bool {
        let poll = poll.max(std::time::Duration::from_millis(1));
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.is_cancelled() {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            std::thread::sleep(poll.min(deadline - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn parent_cancel_trips_children_but_not_vice_versa() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled(), "sibling unaffected");
        assert!(!root.is_cancelled(), "child cancel never propagates up");
        root.cancel();
        assert!(b.is_cancelled(), "root cancel reaches every child");
    }

    #[test]
    fn grandchildren_observe_the_root() {
        let root = CancelToken::new();
        let grandchild = root.child().child();
        assert!(!grandchild.is_cancelled());
        root.cancel();
        assert!(grandchild.is_cancelled());
    }

    #[test]
    fn linked_token_observes_both_parents() {
        let operator = CancelToken::new();
        let lease = CancelToken::new();
        let job = operator.linked(&lease);
        assert!(!job.is_cancelled());

        // Either parent trips the link.
        lease.cancel();
        assert!(job.is_cancelled(), "lease cancel must reach the job");
        assert!(!operator.is_cancelled(), "link never propagates back");

        let lease2 = CancelToken::new();
        let job2 = operator.linked(&lease2);
        operator.cancel();
        assert!(job2.is_cancelled(), "operator cancel must reach the job");
        assert!(!lease2.is_cancelled());

        // Cancelling the link itself touches neither parent.
        let a = CancelToken::new();
        let b = CancelToken::new();
        let link = a.linked(&b);
        link.cancel();
        assert!(link.is_cancelled());
        assert!(!a.is_cancelled() && !b.is_cancelled());
    }

    #[test]
    fn linked_token_sees_grandparents() {
        let root = CancelToken::new();
        let mid = root.child();
        let remote = CancelToken::new();
        let job = mid.linked(&remote.child());
        root.cancel();
        assert!(job.is_cancelled(), "ancestors of either side must reach the link");
    }

    #[test]
    fn wait_timeout_observes_cancellation_and_deadline() {
        use std::time::Duration;
        let t = CancelToken::new();
        // Already-cancelled returns immediately.
        t.cancel();
        assert!(t.wait_timeout(Duration::from_secs(5), Duration::from_millis(1)));

        let t = CancelToken::new();
        let waiter = t.clone();
        let handle = std::thread::spawn(move || {
            waiter.wait_timeout(Duration::from_secs(10), Duration::from_millis(2))
        });
        std::thread::sleep(Duration::from_millis(20));
        t.cancel();
        assert!(handle.join().unwrap_or(false), "waiter missed the cancel");

        let quiet = CancelToken::new();
        let start = std::time::Instant::now();
        assert!(!quiet.wait_timeout(Duration::from_millis(30), Duration::from_millis(5)));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }
}
