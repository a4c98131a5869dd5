//! The admission-controlled decision queue plus the one-shot reply slots
//! that carry outcomes back to the event loop.
//!
//! The queue is **bounded** ([`RequestQueue::try_push`] refuses when full,
//! which the server answers with `429 Too Many Requests`) so overload
//! degrades by shedding instead of by unbounded memory growth and
//! ever-worsening latency. Depth is mirrored into the `serve.queue_depth`
//! level gauge on every mutation, its high-water mark into
//! `serve.queue_depth_peak`, and a condvar wakes the batcher the moment
//! work arrives — no sleep-poll on the hot path.

use crate::{DecideRequest, DecideResponse, ServeError};
use parking_lot::Mutex;
use ppn_obs::TraceContext;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// One decision outcome: the response, or why it was refused.
pub type Outcome = Result<DecideResponse, ServeError>;

/// Producer half of a one-shot reply slot; consumed by [`ReplySender::send`].
///
/// The batcher holds this; [`ReplySender::is_disconnected`] is true once the
/// matching [`ReplyReceiver`] was dropped (client gone, request timed out),
/// letting the batcher skip the job *before* paying for a forward pass.
pub struct ReplySender {
    slot: Arc<Mutex<Option<Outcome>>>,
}

/// Consumer half of a one-shot reply slot, owned by the connection state
/// machine; dropping it cancels the in-flight job.
pub struct ReplyReceiver {
    slot: Arc<Mutex<Option<Outcome>>>,
}

/// Creates a connected one-shot reply pair.
pub fn reply_pair() -> (ReplySender, ReplyReceiver) {
    let slot = Arc::new(Mutex::new(None));
    (ReplySender { slot: Arc::clone(&slot) }, ReplyReceiver { slot })
}

impl ReplySender {
    /// Delivers the outcome (consuming the sender). Delivery into a slot
    /// whose receiver is already gone is harmless.
    pub fn send(self, outcome: Outcome) {
        *self.slot.lock() = Some(outcome);
    }

    /// True when the receiving side no longer exists, i.e. nobody will ever
    /// read an outcome written here. Conservative under races: a receiver
    /// dropped concurrently may still read as connected for one batch.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.slot) < 2
    }
}

impl ReplyReceiver {
    /// Takes the outcome if the batcher has delivered one.
    pub fn try_take(&self) -> Option<Outcome> {
        self.slot.lock().take()
    }
}

/// One decision request waiting for a batched forward pass.
pub struct QueuedRequest {
    /// The decoded request body.
    pub request: DecideRequest,
    /// Where the batcher sends the outcome.
    pub reply: ReplySender,
    /// When the request entered the queue.
    pub enqueued_at: Instant,
    /// Trace coordinates of the request's root span; the batcher attaches
    /// the `serve.queue_wait` / `serve.batch_assemble` / `serve.forward`
    /// stage spans here. Inert when the request is unsampled.
    pub trace: TraceContext,
}

/// Bounded lock-protected FIFO between the event loop and the batcher.
pub struct RequestQueue {
    jobs: Mutex<VecDeque<QueuedRequest>>,
    cap: usize,
    ready: Condvar,
    depth: ppn_obs::metrics::Gauge,
    depth_peak: ppn_obs::metrics::Gauge,
}

impl RequestQueue {
    /// Empty queue admitting at most `cap` waiting requests; registers the
    /// `serve.queue_depth` level gauge and the `serve.queue_depth_peak`
    /// high-water gauge.
    pub fn new(cap: usize) -> Self {
        RequestQueue {
            jobs: Mutex::new(VecDeque::new()),
            cap,
            ready: Condvar::new(),
            depth: crate::metrics::queue_depth(),
            depth_peak: crate::metrics::queue_depth_peak(),
        }
    }

    /// Appends a request and wakes the batcher, or returns the request
    /// untouched when the queue is at capacity (the caller sheds it).
    pub fn try_push(&self, job: QueuedRequest) -> Result<(), QueuedRequest> {
        let mut q = self.jobs.lock();
        if q.len() >= self.cap {
            return Err(job);
        }
        q.push_back(job);
        self.depth.set(q.len() as f64);
        self.depth_peak.set(q.len() as f64);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the next batch: blocks while the queue is empty (for at most
    /// `timeout`), then removes up to `max` requests from the front under
    /// the same lock. Whatever is queued goes at once; nothing waits for
    /// company. Returns an empty batch when the wait ends with the queue
    /// still empty — a timeout, a [`RequestQueue::notify_all`] or a spurious
    /// wake — so the batcher can re-check its stop flag.
    pub fn next_batch(&self, max: usize, timeout: Duration) -> Vec<QueuedRequest> {
        let mut q = self.jobs.lock();
        if q.is_empty() {
            q = self.ready.wait_timeout(q, timeout).unwrap_or_else(PoisonError::into_inner).0;
        }
        let n = max.min(q.len());
        let out: Vec<QueuedRequest> = q.drain(..n).collect();
        self.depth.set(q.len() as f64);
        out
    }

    /// Wakes every waiter regardless of queue state (used at shutdown so
    /// the batcher re-checks its stop flag immediately).
    pub fn notify_all(&self) {
        self.ready.notify_all();
    }

    /// Maximum number of waiting requests this queue admits.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of waiting requests.
    pub fn len(&self) -> usize {
        self.jobs.lock().len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_request() -> DecideRequest {
        DecideRequest { model: "m".to_string(), window: vec![1.0], prev_action: vec![1.0] }
    }

    fn dummy_job() -> (QueuedRequest, ReplyReceiver) {
        let (tx, rx) = reply_pair();
        let job = QueuedRequest {
            request: dummy_request(),
            reply: tx,
            enqueued_at: ppn_obs::clock::now(),
            trace: TraceContext::inert(),
        };
        (job, rx)
    }

    #[test]
    fn try_push_refuses_beyond_capacity() {
        let q = RequestQueue::new(2);
        let mut rxs = Vec::new();
        for _ in 0..2 {
            let (job, rx) = dummy_job();
            assert!(q.try_push(job).is_ok());
            rxs.push(rx);
        }
        let (job, _rx) = dummy_job();
        let back = q.try_push(job).expect_err("third push must be refused at cap 2");
        assert_eq!(back.request.model, "m");
        assert_eq!(q.len(), 2);
        // Taking a batch frees capacity again.
        assert_eq!(q.next_batch(1, Duration::ZERO).len(), 1);
        let (job, _rx2) = dummy_job();
        assert!(q.try_push(job).is_ok());
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let q = RequestQueue::new(0);
        let (job, _rx) = dummy_job();
        assert!(q.try_push(job).is_err());
        assert!(q.is_empty());
    }

    #[test]
    fn reply_slot_roundtrip_and_disconnect() {
        let (tx, rx) = reply_pair();
        assert!(!tx.is_disconnected());
        assert!(rx.try_take().is_none());
        tx.send(Err(ServeError::ShuttingDown));
        assert!(matches!(rx.try_take(), Some(Err(ServeError::ShuttingDown))));
        assert!(rx.try_take().is_none(), "one-shot: a second take sees nothing");

        let (tx, rx) = reply_pair();
        drop(rx);
        assert!(tx.is_disconnected(), "dropping the receiver must mark the sender disconnected");
    }

    /// Generous bound for "returned without waiting out the timeout".
    const LONG: Duration = Duration::from_secs(10);

    fn queue_with(cap: usize, jobs: usize) -> RequestQueue {
        let q = RequestQueue::new(cap);
        for _ in 0..jobs {
            assert!(q.try_push(dummy_job().0).is_ok());
        }
        q
    }

    #[test]
    fn next_batch_takes_everything_queued_without_waiting() {
        let q = queue_with(64, 3);
        let started = ppn_obs::clock::now();
        assert_eq!(q.next_batch(32, LONG).len(), 3, "three queued jobs form one batch");
        assert!(started.elapsed() < LONG / 2, "a non-empty queue must not wait out the timeout");
        assert!(q.is_empty());
    }

    #[test]
    fn next_batch_caps_at_max_and_leaves_the_rest() {
        let q = queue_with(64, 40);
        assert_eq!(q.next_batch(32, LONG).len(), 32);
        assert_eq!(q.len(), 8);
        assert_eq!(q.next_batch(32, LONG).len(), 8);
        assert!(q.is_empty());
    }

    #[test]
    fn next_batch_on_an_empty_queue_times_out_empty() {
        let q = RequestQueue::new(4);
        let timeout = Duration::from_millis(20);
        let started = ppn_obs::clock::now();
        assert!(q.next_batch(32, timeout).is_empty());
        assert!(started.elapsed() >= timeout, "an empty queue waits out its timeout");
    }

    #[test]
    fn notify_all_wakes_a_waiter_early() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = RequestQueue::new(4);
        let done = AtomicBool::new(false);
        let waited = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let started = ppn_obs::clock::now();
                let batch = q.next_batch(32, LONG);
                done.store(true, Ordering::SeqCst);
                (batch.len(), started.elapsed())
            });
            // Keep notifying until the waiter is out: a notify that lands
            // before it starts waiting would otherwise be lost.
            while !done.load(Ordering::SeqCst) {
                q.notify_all();
                std::thread::sleep(Duration::from_millis(1));
            }
            waiter.join().expect("waiter thread")
        });
        assert_eq!(waited.0, 0, "a wake with nothing queued returns an empty batch");
        assert!(waited.1 < LONG / 2, "notify_all must end the wait early, took {:?}", waited.1);
    }
}
