//! The machine-speed reference: a fixed kernel owned by the benchmark,
//! timed between Costas units to track how fast the shared host runs at
//! that moment.
//!
//! The host's speed for this kind of code swings by up to ~1.8× over
//! seconds to minutes (other tenants on the same cores), which no amount
//! of work per run averages away.  The Costas workloads therefore report
//! each unit's wall time scaled by `REFERENCE_NS / kernel time` around it.
//! The kernel is a small min-conflict-style search over an order-40
//! difference triangle behind a trait object — the same kind of work as
//! the engine, so it slows down with it — but it is benchmark code: no
//! change to the repository can make it faster or slower.  The raw wall
//! times are printed on the detail line next to the normalised ones.
//!
//! Serving latency is mostly thread hand-offs, which the kernel alone does
//! not track, so `solverd-small` is normalised by [`ReferenceService`]: the
//! kernel served through the same shape of queue, workers and reply channel.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::median;

/// Normalised times read as wall times on a host that runs the kernel in
/// this many nanoseconds (close to this benchmark host's slow phase).
pub const REFERENCE_NS: f64 = 100_000.0;

const ORDER: usize = 40;
const ROUNDS: usize = 80;

trait Cost {
    fn cost(&self, perm: &[usize], counts: &mut [u32]) -> u64;
}

/// Weighted repeated differences in the first half of the triangle.
struct Triangle;

impl Cost for Triangle {
    fn cost(&self, perm: &[usize], counts: &mut [u32]) -> u64 {
        let n = perm.len();
        let mut total = 0;
        for d in 1..n / 2 {
            let row = &mut counts[d * 2 * n..(d + 1) * 2 * n];
            row.fill(0);
            for i in 0..n - d {
                let k = perm[i + d] + n - perm[i];
                row[k] += 1;
                if row[k] > 1 {
                    total += d as u64;
                }
            }
        }
        total
    }
}

/// One reading of host speed: the kernel run on `threads` threads at once
/// (one per walk of the units it brackets), best of two passes per thread so
/// an interrupt cannot inflate it, averaged over threads.
pub fn reading(threads: usize) -> f64 {
    let best = || kernel_ns(ROUNDS).min(kernel_ns(ROUNDS));
    if threads == 1 {
        return best();
    }
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(best)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the kernel does not panic"))
            .sum()
    });
    total / threads as f64
}

/// Nanoseconds one pass of the kernel (`rounds` proposed swaps) takes now.
fn kernel_ns(rounds: usize) -> f64 {
    let model: Box<dyn Cost> = Box::new(Triangle);
    let mut perm: Vec<usize> = (1..=black_box(ORDER)).collect();
    let mut counts = vec![0u32; 2 * ORDER * ORDER];
    let mut x = 0x1234_5678_9abc_def0u64;
    let start = Instant::now();
    let mut current = model.cost(&perm, &mut counts);
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (i, j) = (
            (x % ORDER as u64) as usize,
            ((x >> 20) % ORDER as u64) as usize,
        );
        perm.swap(i, j);
        let cost = model.cost(&perm, &mut counts);
        if cost <= current || x & 7 == 0 {
            current = cost;
        } else {
            perm.swap(i, j);
        }
    }
    black_box(current);
    start.elapsed().as_nanos() as f64
}

/// Normalised serving latencies read as wall times on a host whose
/// [`ReferenceService`] answers in this many microseconds (median; close to
/// this benchmark host's usual reading).
pub const SERVING_REFERENCE_US: f64 = 25.0;

/// Kernel rounds per reference job.  Of the sizes tried (0, 10, 20 and 40
/// rounds, and the bare kernel), 10 tracked slice-to-slice swings in serving
/// latency best on the benchmark host: correlation 0.7–0.8 and a log–log
/// slope near 1, so plain proportional scaling fits.
const JOB_ROUNDS: usize = 10;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<(usize, Sender<usize>)>,
    shutting_down: bool,
}

/// A stand-in for `solverd::Service` owned by the benchmark: a mutex and
/// condvar admission queue, `workers` threads that each run one kernel pass
/// per job, and an mpsc reply per job.  Driven closed loop with the same
/// window as the real service, its latency tracks what the host does to
/// hand-offs and compute alike, and no change to the repository moves it.
pub struct ReferenceService {
    queue: Arc<(Mutex<Queue>, Condvar)>,
    workers: Vec<JoinHandle<()>>,
}

impl ReferenceService {
    pub fn start(workers: usize) -> Self {
        let queue = Arc::new((Mutex::new(Queue::default()), Condvar::new()));
        let workers = (0..workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || loop {
                    let (job, reply) = {
                        let (lock, available) = &*queue;
                        let mut state = lock.lock().expect("no worker panics");
                        loop {
                            if let Some(job) = state.jobs.pop_front() {
                                break job;
                            }
                            if state.shutting_down {
                                return;
                            }
                            state = available.wait(state).expect("no worker panics");
                        }
                    };
                    black_box(kernel_ns(JOB_ROUNDS));
                    let _ = reply.send(job);
                })
            })
            .collect();
        Self { queue, workers }
    }

    fn submit(&self, job: usize, reply: &Sender<usize>) {
        let (lock, available) = &*self.queue;
        let mut state = lock.lock().expect("no worker panics");
        state.jobs.push_back((job, reply.clone()));
        drop(state);
        available.notify_one();
    }

    /// Median latency in microseconds of jobs served for `span` with
    /// `window` outstanding.
    pub fn reading(&self, span: Duration, window: usize) -> f64 {
        let (tx, rx) = mpsc::channel();
        let start = Instant::now();
        let mut sent: Vec<Instant> = Vec::new();
        let mut latency_us = Vec::new();
        let send = |sent: &mut Vec<Instant>| {
            sent.push(Instant::now());
            self.submit(sent.len() - 1, &tx);
        };
        for _ in 0..window {
            send(&mut sent);
        }
        let mut outstanding = window;
        while outstanding > 0 {
            let job = rx.recv().expect("reference workers answer every job");
            latency_us.push(sent[job].elapsed().as_secs_f64() * 1e6);
            outstanding -= 1;
            if start.elapsed() < span {
                send(&mut sent);
                outstanding += 1;
            }
        }
        median(&latency_us)
    }
}

impl Drop for ReferenceService {
    fn drop(&mut self) {
        let (lock, available) = &*self.queue;
        lock.lock().expect("no worker panics").shutting_down = true;
        available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_service_answers_and_shuts_down() {
        let reference = ReferenceService::start(2);
        let us = reference.reading(Duration::from_millis(20), 2);
        assert!(us.is_finite() && us > 0.0, "{us}");
        drop(reference);
    }
}
