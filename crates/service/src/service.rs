//! The live front: a thread-safe submission queue and a dispatcher
//! thread that admits micro-batches under a real-time window and runs
//! them through the coalescing executor. Inside a batch the kernels
//! spread work across the pool's lanes; the dispatcher itself stays
//! single so admission is a total order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphblas_core::ExecLimits;

use crate::executor::{execute_batch, ExecOpts, ServiceGraphs};
use crate::request::{Query, Request, Response};

/// Live-service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Real-time admission window: after the first pending request is
    /// seen, the dispatcher waits up to this long for company.
    pub window: Duration,
    /// Hard cap on an admitted batch.
    pub max_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            window: Duration::from_millis(1),
            max_batch: 16,
        }
    }
}

struct Pending {
    request: Request,
    tx: mpsc::Sender<Response>,
}

struct State {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
}

/// Handle to one submitted query; resolves to its [`Response`].
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Block until the service answers.
    ///
    /// # Panics
    /// If the service was shut down before answering.
    #[must_use]
    pub fn wait(self) -> Response {
        self.rx.recv().expect("service dropped without answering")
    }
}

/// A running query service over one shared graph pair.
pub struct Service {
    inner: Arc<Inner>,
    worker: Option<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Service {
    /// Start the dispatcher thread.
    #[must_use]
    pub fn start(graphs: ServiceGraphs, opts: ExecOpts, cfg: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::spawn(move || dispatcher(&worker_inner, &graphs, &opts, cfg));
        Self {
            inner,
            worker: Some(worker),
            next_id: AtomicU64::new(0),
        }
    }

    /// Enqueue a query; returns immediately with a [`Ticket`].
    pub fn submit(&self, query: Query, limits: ExecLimits) -> Ticket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.inner.state.lock().expect("service state");
            st.pending.push_back(Pending {
                request: Request::new(id, query).with_limits(limits),
                tx,
            });
        }
        self.inner.cv.notify_all();
        Ticket { rx }
    }

    /// Stop accepting work, drain the queue, and join the dispatcher.
    ///
    /// # Panics
    /// Re-raises a panic that ended the dispatcher thread.
    pub fn shutdown(mut self) {
        if let Err(payload) = self.stop() {
            std::panic::resume_unwind(payload);
        }
    }

    /// Flag shutdown, wake the dispatcher, and join it, returning its
    /// join result (`Drop` discards it; `shutdown` re-raises a panic).
    fn stop(&mut self) -> std::thread::Result<()> {
        {
            let mut st = self
                .inner
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
        }
        self.inner.cv.notify_all();
        self.worker.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn dispatcher(inner: &Inner, graphs: &ServiceGraphs, opts: &ExecOpts, cfg: ServiceConfig) {
    loop {
        let mut st = inner.state.lock().expect("service state");
        while st.pending.is_empty() && !st.shutdown {
            st = inner.cv.wait(st).expect("service state");
        }
        if st.pending.is_empty() && st.shutdown {
            return;
        }
        // Admission window: collect company until the window closes, the
        // batch fills, or shutdown flushes everything immediately.
        let deadline = Instant::now() + cfg.window;
        while st.pending.len() < cfg.max_batch.max(1) && !st.shutdown {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timeout) = inner
                .cv
                .wait_timeout(st, deadline - now)
                .expect("service state");
            st = next;
            if timeout.timed_out() {
                break;
            }
        }
        let take = st.pending.len().min(cfg.max_batch.max(1));
        let batch: Vec<Pending> = st.pending.drain(..take).collect();
        drop(st);

        let reqs: Vec<Request> = batch.iter().map(|p| p.request.clone()).collect();
        let responses = execute_batch(graphs, opts, &reqs, None);
        for (p, r) in batch.into_iter().zip(responses) {
            // A caller that dropped its ticket just doesn't hear back.
            let _ = p.tx.send(r);
        }
    }
}
