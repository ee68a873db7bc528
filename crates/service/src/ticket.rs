//! The one completion slot every asynchronous result travels through.
//!
//! A [`Ticket`] is a single-use slot plus a condvar: the scheduler or
//! graph executor that owns the work fills it exactly once (through a
//! crate-private `fulfill`), and the submitter blocks on
//! [`Ticket::wait`] or polls with [`Ticket::wait_timeout`] and
//! [`Ticket::is_done`]. [`crate::JobTicket`] and
//! [`crate::ProtocolTicket`] are this type at their result payloads.

use crate::error::ServiceError;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The result slot a ticket's executor fills, and the condvar its
/// waiters park on.
type Slot<T> = (Mutex<Option<Result<T, ServiceError>>>, Condvar);

/// Handle to one submitted unit of work. Obtain the result with
/// [`wait`](Ticket::wait).
#[derive(Debug)]
pub struct Ticket<T> {
    state: Arc<Slot<T>>,
}

impl<T> Ticket<T> {
    /// An unresolved ticket and the writer half its executor keeps.
    pub(crate) fn new() -> (Ticket<T>, Ticket<T>) {
        let state = Arc::new((Mutex::new(None), Condvar::new()));
        (
            Ticket {
                state: Arc::clone(&state),
            },
            Ticket { state },
        )
    }

    /// Resolves the ticket and wakes every waiter. The executor calls
    /// this once, after its stats include the result, so a waiter that
    /// wakes always finds its work counted.
    pub(crate) fn fulfill(&self, result: Result<T, ServiceError>) {
        let (slot, done) = &*self.state;
        *slot.lock().expect("ticket poisoned") = Some(result);
        done.notify_all();
    }

    /// Blocks until the work completes, returning its result (or the
    /// execution failure).
    pub fn wait(self) -> Result<T, ServiceError> {
        self.wait_until(None)
    }

    /// Blocks for at most `timeout`, returning the result if it
    /// resolved in time or [`ServiceError::WaitTimeout`] otherwise.
    ///
    /// Unlike [`wait`](Ticket::wait) this borrows the ticket, so a
    /// timed-out wait can be retried later — the work keeps executing
    /// and its eventual result stays claimable. This is the primitive
    /// the TCP front end builds on: a remote client's `Wait` verb can
    /// never wedge a connection-handler thread forever. A successful
    /// call *takes* the result; a second wait on the same ticket then
    /// behaves as if the work never completed (it times out).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<T, ServiceError> {
        self.wait_until(Some((Instant::now() + timeout, timeout)))
    }

    /// Whether the work has completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.state.0.lock().expect("ticket poisoned").is_some()
    }

    fn wait_until(&self, deadline: Option<(Instant, Duration)>) -> Result<T, ServiceError> {
        let (slot, done) = &*self.state;
        let mut slot = slot.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = match deadline {
                None => done.wait(slot).expect("ticket poisoned"),
                Some((at, timeout)) => {
                    let remaining = at.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(ServiceError::WaitTimeout {
                            timeout_ms: timeout.as_millis() as u64,
                        });
                    }
                    done.wait_timeout(slot, remaining)
                        .expect("ticket poisoned")
                        .0
                }
            };
        }
    }
}
