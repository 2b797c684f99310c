//! Cooperative fuel-sliced scheduler: a work-stealing pool of worker
//! threads that runs admitted agents as resumable tasks instead of one OS
//! thread each.
//!
//! The VM is fuel-metered, which gives a natural cooperative yield point:
//! [`ajanta_vm::Interpreter::run_slice`] executes a bounded fuel budget
//! and parks the call stack *inside the interpreter value* when the
//! budget runs out. The scheduler exploits that: an agent that exhausts
//! its slice is requeued as a plain heap object — no stack, no thread —
//! and a server hosting 100k resident agents holds `workers + 1` OS
//! threads, not 100k.
//!
//! Structure:
//!
//! * **16 run-queues under one lock.** Enqueues round-robin across the
//!   queues; each worker drains a *home queue* (`index mod 16`) first.
//!   The queues, the enqueue cursor and the depth counts share one
//!   `Mutex`, so an idle worker waits on a condvar whose predicate that
//!   lock guards: a spawn can never slip between a worker's "no work"
//!   check and its wait.
//! * **Work stealing**: a worker whose home queue is empty takes the
//!   oldest entry of the next non-empty queue above home. Steals are
//!   counted ([`Counter::Steals`]) against the journal of the task
//!   stolen.
//! * **Fairness**: strict FIFO within a queue; a yielded task goes to
//!   the *back* of its requeue queue, so no agent can starve another by
//!   burning fuel — the slice budget bounds the time any task holds a
//!   worker.
//!
//! Telemetry lands in the journal of the server that admitted each task
//! (tasks carry their journal): [`Counter::SlicesRun`],
//! [`Counter::AgentsYielded`], [`Counter::Steals`], plus two log2
//! histograms — [`HistoPath::SliceDuration`] (wall time of one slice)
//! and [`HistoPath::ReadyDwell`] (how long a ready task waited in a
//! run-queue before a worker picked it up).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use ajanta_core::telemetry::{Counter, HistoPath, Journal};
use parking_lot::{Condvar, Mutex};

/// Fuel budget one scheduler slice grants an agent. Large enough that
/// slice overhead (queue hops, telemetry) is noise against real work,
/// small enough that a fuel-burning agent cannot hold a worker hostage.
pub const DEFAULT_SLICE_FUEL: u64 = 65_536;

/// Run-queue count.
const QUEUES: usize = 16;

/// A resumable unit of agent execution. The server layer implements this
/// for its agent tasks; the scheduler knows nothing about admission,
/// credentials, or reports.
pub trait Task: Send {
    /// Runs one fuel slice. Returns `true` when the task has finished
    /// (completed, trapped, out of fuel, or migrated away) and must not
    /// be requeued.
    fn run_slice(&mut self) -> bool;

    /// The telemetry journal this task's scheduler events land in —
    /// normally the admitting server's.
    fn journal(&self) -> &Arc<Journal>;

    /// Whether the task holds a live interpreter (call stack resident)
    /// as opposed to only its serialized image. Cold tasks are what the
    /// "parked agents are cheap" invariant is about.
    fn is_warm(&self) -> bool;
}

/// One queued task plus the instant it became ready (for the
/// ready-dwell histogram).
struct Entry {
    task: Box<dyn Task>,
    ready_at: Instant,
}

/// Queue depths exposed by [`Scheduler::depths`] (and re-exported via
/// `ServerHandle::sched_depths`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedDepths {
    /// Tasks sitting in run-queues awaiting a worker.
    pub ready: usize,
    /// Tasks currently executing a slice on some worker.
    pub running: usize,
    /// The subset of `ready` that is cold — admitted or suspended
    /// agents holding only their VM image, no interpreter state.
    pub parked: usize,
}

/// The run-queues and everything the "any work?" predicate reads, under
/// the scheduler's one lock.
#[derive(Default)]
struct Queues {
    queues: [VecDeque<Entry>; QUEUES],
    /// Round-robin enqueue cursor.
    next: usize,
    depths: SchedDepths,
    stopping: bool,
}

impl Queues {
    fn push(&mut self, entry: Entry) {
        if !entry.task.is_warm() {
            self.depths.parked += 1;
        }
        self.depths.ready += 1;
        self.queues[self.next].push_back(entry);
        self.next = (self.next + 1) % QUEUES;
    }

    /// Pops from `home` first, then the oldest entry of the next
    /// non-empty queue above it. Returns the entry and whether it was
    /// stolen.
    fn pop(&mut self, home: usize) -> Option<(Entry, bool)> {
        for off in 0..QUEUES {
            if let Some(e) = self.queues[(home + off) % QUEUES].pop_front() {
                self.depths.ready -= 1;
                if !e.task.is_warm() {
                    self.depths.parked -= 1;
                }
                return Some((e, off != 0));
            }
        }
        None
    }
}

/// The work-stealing pool. One per world (shared by all its servers) or
/// one per standalone server; cheap to share as `Arc<Scheduler>`.
pub struct Scheduler {
    queues: Mutex<Queues>,
    /// Signalled when work arrives, and when the last slice of a
    /// stopping pool ends.
    work: Condvar,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    worker_count: usize,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.worker_count)
            .field("depths", &self.depths())
            .finish()
    }
}

impl Scheduler {
    /// Starts a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> Arc<Scheduler> {
        let workers = workers.max(1);
        let sched = Arc::new(Scheduler {
            queues: Mutex::new(Queues::default()),
            work: Condvar::new(),
            workers: Mutex::new(Vec::with_capacity(workers)),
            worker_count: workers,
        });
        let mut handles = sched.workers.lock();
        for i in 0..workers {
            let s = Arc::clone(&sched);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ajanta-sched-{i}"))
                    .spawn(move || worker_loop(s, i))
                    .expect("spawning scheduler worker"),
            );
        }
        drop(handles);
        sched
    }

    /// The number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Current queue depths.
    pub fn depths(&self) -> SchedDepths {
        self.queues.lock().depths
    }

    /// Enqueues one ready task.
    pub fn spawn(&self, task: Box<dyn Task>) {
        self.queues.lock().push(Entry {
            task,
            ready_at: Instant::now(),
        });
        self.work.notify_one();
    }

    /// Enqueues a batch of ready tasks with one wakeup — the server loop
    /// admits a whole delivery burst per tick through this.
    pub fn spawn_batch(&self, tasks: impl IntoIterator<Item = Box<dyn Task>>) {
        let ready_at = Instant::now();
        let mut queues = self.queues.lock();
        for task in tasks {
            queues.push(Entry { task, ready_at });
        }
        drop(queues);
        self.work.notify_all();
    }

    /// Stops the pool: workers finish draining every queued task (and
    /// whatever those tasks enqueue while draining), then exit. Blocks
    /// until all workers have joined. Idempotent.
    pub fn stop(&self) {
        self.queues.lock().stopping = true;
        self.work.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(sched: Arc<Scheduler>, index: usize) {
    let home = index % QUEUES;
    let mut queues = sched.queues.lock();
    loop {
        match queues.pop(home) {
            Some((entry, stolen)) => {
                queues.depths.running += 1;
                drop(queues);
                let requeue = run_slice(entry, stolen);
                queues = sched.queues.lock();
                queues.depths.running -= 1;
                match requeue {
                    Some(entry) => queues.push(entry),
                    // The last slice of a stopping pool: the idle workers
                    // wait for it before they exit.
                    None if queues.stopping && queues.depths.running == 0 => {
                        sched.work.notify_all()
                    }
                    None => {}
                }
            }
            None if queues.stopping && queues.depths.running == 0 => return,
            None => queues = sched.work.wait(queues),
        }
    }
}

/// Runs one slice of `entry` outside the queue lock and records its
/// telemetry. Returns the entry to requeue when the task yielded; a
/// finished task is dropped here, still outside the lock.
fn run_slice(mut entry: Entry, stolen: bool) -> Option<Entry> {
    let journal = Arc::clone(entry.task.journal());
    journal.histos().record(
        HistoPath::ReadyDwell,
        entry.ready_at.elapsed().as_nanos() as u64,
    );
    if stolen {
        journal.counters().add(Counter::Steals, 1);
    }
    let t0 = Instant::now();
    // A panicking agent must not take a pool worker (and every agent
    // behind it) down with it; the per-agent thread model got this
    // isolation for free.
    let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry.task.run_slice()))
        .unwrap_or(true);
    journal.counters().add(Counter::SlicesRun, 1);
    journal
        .histos()
        .record(HistoPath::SliceDuration, t0.elapsed().as_nanos() as u64);
    if done {
        return None;
    }
    journal.counters().add(Counter::AgentsYielded, 1);
    entry.ready_at = Instant::now();
    Some(entry)
}

/// The default pool width: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A task that needs `slices` polls to finish.
    struct Counting {
        left: u32,
        warm_after_first: bool,
        polled: bool,
        hits: Arc<AtomicU64>,
        journal: Arc<Journal>,
    }

    impl Task for Counting {
        fn run_slice(&mut self) -> bool {
            self.polled = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.left -= 1;
            self.left == 0
        }
        fn journal(&self) -> &Arc<Journal> {
            &self.journal
        }
        fn is_warm(&self) -> bool {
            self.polled && self.warm_after_first
        }
    }

    fn counting(slices: u32, hits: &Arc<AtomicU64>, journal: &Arc<Journal>) -> Box<dyn Task> {
        Box::new(Counting {
            left: slices,
            warm_after_first: true,
            polled: false,
            hits: Arc::clone(hits),
            journal: Arc::clone(journal),
        })
    }

    #[test]
    fn service_order_is_home_first_then_oldest_above_home() {
        /// Records its id when run, so the pop order can be read back.
        struct Tagged {
            id: usize,
            order: Arc<Mutex<Vec<usize>>>,
            journal: Arc<Journal>,
        }
        impl Task for Tagged {
            fn run_slice(&mut self) -> bool {
                self.order.lock().push(self.id);
                true
            }
            fn journal(&self) -> &Arc<Journal> {
                &self.journal
            }
            fn is_warm(&self) -> bool {
                false
            }
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let journal = Arc::new(Journal::with_capacity(64));
        let mut queues = Queues::default();
        for id in 0..20 {
            queues.push(Entry {
                task: Box::new(Tagged {
                    id,
                    order: Arc::clone(&order),
                    journal: Arc::clone(&journal),
                }),
                ready_at: Instant::now(),
            });
        }
        assert_eq!(queues.depths.ready, 20);
        assert_eq!(queues.depths.parked, 20);
        let mut steals = Vec::new();
        while let Some((mut entry, stolen)) = queues.pop(0) {
            entry.task.run_slice();
            steals.push(stolen);
        }
        // Round-robin enqueue put e0 and e16 on queue 0, e1 and e17 on
        // queue 1, and so on; home is drained first, then each queue
        // above it in turn, oldest entry first.
        let mut expected = vec![0, 16, 1, 17, 2, 18, 3, 19];
        expected.extend(4..16);
        assert_eq!(*order.lock(), expected);
        // Only e0 and e16 come from home; every later pop is a steal.
        let mut expected_steals = vec![false, false];
        expected_steals.resize(20, true);
        assert_eq!(steals, expected_steals);
        assert_eq!(queues.depths, SchedDepths::default());
    }

    #[test]
    fn runs_every_task_to_completion() {
        let sched = Scheduler::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        let journal = Arc::new(Journal::with_capacity(64));
        sched.spawn_batch((0..100).map(|i| counting(1 + (i % 5), &hits, &journal)));
        sched.stop();
        // 100 tasks, i%5 spread: sum of (1 + i%5) over 0..100 = 100 + 200.
        assert_eq!(hits.load(Ordering::Relaxed), 300);
        assert_eq!(sched.depths(), SchedDepths::default());
        // Every slice counted; yields = slices - tasks.
        assert_eq!(journal.counter(Counter::SlicesRun), 300);
        assert_eq!(journal.counter(Counter::AgentsYielded), 200);
    }

    #[test]
    fn parked_depth_tracks_cold_tasks() {
        // No workers consuming yet: use a stopped scheduler? Simpler —
        // enqueue against a 1-worker pool and read depths after stop.
        let sched = Scheduler::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let journal = Arc::new(Journal::with_capacity(64));
        sched.spawn(counting(3, &hits, &journal));
        sched.stop();
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        assert_eq!(sched.depths().parked, 0);
        assert!(journal.histos().get(HistoPath::ReadyDwell).snapshot().count >= 1);
        assert!(
            journal
                .histos()
                .get(HistoPath::SliceDuration)
                .snapshot()
                .count
                >= 3
        );
    }

    #[test]
    fn panicking_task_does_not_kill_workers() {
        struct Bomb {
            journal: Arc<Journal>,
        }
        impl Task for Bomb {
            fn run_slice(&mut self) -> bool {
                panic!("agent bug");
            }
            fn journal(&self) -> &Arc<Journal> {
                &self.journal
            }
            fn is_warm(&self) -> bool {
                false
            }
        }
        let sched = Scheduler::new(1);
        let journal = Arc::new(Journal::with_capacity(64));
        let hits = Arc::new(AtomicU64::new(0));
        sched.spawn(Box::new(Bomb {
            journal: Arc::clone(&journal),
        }));
        sched.spawn(counting(2, &hits, &journal));
        sched.stop();
        // The task after the bomb still ran on the same (sole) worker.
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn stop_drains_tasks_spawned_while_draining() {
        struct Chain {
            sched: Arc<Scheduler>,
            depth: u32,
            hits: Arc<AtomicU64>,
            journal: Arc<Journal>,
        }
        impl Task for Chain {
            fn run_slice(&mut self) -> bool {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if self.depth > 0 {
                    self.sched.spawn(Box::new(Chain {
                        sched: Arc::clone(&self.sched),
                        depth: self.depth - 1,
                        hits: Arc::clone(&self.hits),
                        journal: Arc::clone(&self.journal),
                    }));
                }
                true
            }
            fn journal(&self) -> &Arc<Journal> {
                &self.journal
            }
            fn is_warm(&self) -> bool {
                true
            }
        }
        let sched = Scheduler::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let journal = Arc::new(Journal::with_capacity(64));
        sched.spawn(Box::new(Chain {
            sched: Arc::clone(&sched),
            depth: 9,
            hits: Arc::clone(&hits),
            journal,
        }));
        sched.stop();
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    /// The hibernate/wake lifecycle at the scheduler seam, under drain
    /// churn. A hibernating agent task spills its state and *completes
    /// its slot* (`run_slice` → true); a wake re-admits it as a fresh
    /// spawn. Two invariants the server's `try_hibernate`/`wake_agent`
    /// pair relies on: (1) a wake that lands while `stop` is draining
    /// still runs to completion, not left queued; (2) racing wakes
    /// admit the agent exactly once — taking the spilled state is the
    /// winner-picks-one gate, exactly like `BundleStore::take`.
    #[test]
    fn hibernated_task_woken_during_drain_resumes_exactly_once() {
        struct Sleeper {
            sched: Arc<Scheduler>,
            /// The "bundle store": `Some(state)` while hibernated.
            store: Arc<Mutex<Option<u32>>>,
            woken: bool,
            hits: Arc<AtomicU64>,
            journal: Arc<Journal>,
        }
        impl Task for Sleeper {
            fn run_slice(&mut self) -> bool {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if self.woken {
                    return true;
                }
                // First life: hibernate — spill state, free the slot.
                *self.store.lock() = Some(7);
                // Mail arrives while the pool is draining; two wakers
                // race for the bundle, exactly one may spawn.
                for _ in 0..2 {
                    if self.store.lock().take().is_some() {
                        self.sched.spawn(Box::new(Sleeper {
                            sched: Arc::clone(&self.sched),
                            store: Arc::clone(&self.store),
                            woken: true,
                            hits: Arc::clone(&self.hits),
                            journal: Arc::clone(&self.journal),
                        }));
                    }
                }
                true
            }
            fn journal(&self) -> &Arc<Journal> {
                &self.journal
            }
            fn is_warm(&self) -> bool {
                self.woken
            }
        }
        let sched = Scheduler::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let store = Arc::new(Mutex::new(None));
        let journal = Arc::new(Journal::with_capacity(64));
        sched.spawn(Box::new(Sleeper {
            sched: Arc::clone(&sched),
            store: Arc::clone(&store),
            woken: false,
            hits: Arc::clone(&hits),
            journal,
        }));
        sched.stop();
        // One slice per life: hibernation, then exactly one resume.
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert!(store.lock().is_none(), "spilled state must be consumed");
        assert_eq!(sched.depths(), SchedDepths::default());
    }
}
