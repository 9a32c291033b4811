//! Timeline resources: serial FIFO devices and k-parallel server pools.

use crate::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// Closed interval of busy time returned by an acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Busy {
    pub start: SimTime,
    pub end: SimTime,
}

impl Busy {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// A serial resource that services requests in arrival order: a USB bulk
/// endpoint, a DDR channel, the RISC command processor.
///
/// ```
/// use desim::{FifoResource, SimTime, Duration};
/// let mut bus = FifoResource::new("usb");
/// let a = bus.acquire(SimTime(0), Duration(100));
/// let b = bus.acquire(SimTime(10), Duration(50));
/// assert_eq!(b.start, a.end); // second request queues
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FifoResource {
    name: String,
    available_at: SimTime,
    busy_total: Duration,
    requests: u64,
}

impl FifoResource {
    pub fn new(name: impl Into<String>) -> Self {
        FifoResource {
            name: name.into(),
            available_at: SimTime::ZERO,
            busy_total: Duration::ZERO,
            requests: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Occupy the resource for `service`, starting no earlier than `ready`.
    pub fn acquire(&mut self, ready: SimTime, service: Duration) -> Busy {
        let start = SimTime::max_of(ready, self.available_at);
        let end = start + service;
        self.available_at = end;
        self.busy_total += service;
        self.requests += 1;
        Busy { start, end }
    }

    /// Earliest instant a new request could start.
    pub fn available_at(&self) -> SimTime {
        self.available_at
    }

    /// Total busy time accumulated.
    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            self.busy_total.nanos() as f64 / horizon.nanos() as f64
        }
    }

    /// What the acquisitions that took `before` (this resource, idle by
    /// `origin`) to `self` did, relative to `origin`.
    pub fn burst_since(&self, before: &FifoResource, origin: SimTime) -> Burst {
        debug_assert!(before.available_at <= origin, "burst must start on an idle resource");
        let requests = self.requests - before.requests;
        Burst {
            idle_after: (requests > 0).then(|| self.available_at - origin),
            busy: self.busy_total - before.busy_total,
            requests,
        }
    }

    /// Re-run a recorded burst from `origin`, where this resource must be
    /// idle: afterwards it is in exactly the state the same acquisitions,
    /// shifted to `origin`, would have left.
    pub fn replay(&mut self, burst: &Burst, origin: SimTime) {
        debug_assert!(self.available_at <= origin, "replay onto a busy resource");
        if let Some(d) = burst.idle_after {
            self.available_at = origin + d;
        }
        self.busy_total += burst.busy;
        self.requests += burst.requests;
    }
}

/// What a run of acquisitions did to a resource that was idle when the
/// run began: the busy time and requests it added and, if it used the
/// resource, how long after the start the resource fell idle again.
///
/// Acquisitions that all start at or after an instant where the
/// resource is idle never wait on earlier work, so their outcome only
/// depends on their own inputs, shifted by that instant. A burst
/// recorded once can therefore be replayed at any later idle instant
/// instead of repeating the acquisitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    idle_after: Option<Duration>,
    busy: Duration,
    requests: u64,
}

/// A [`Burst`] on a [`ServerPool`]: when each server fell idle again,
/// for the servers the run left busy past its start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolBurst {
    idle_after: Vec<Option<Duration>>,
    busy: Duration,
    requests: u64,
}

/// `k` identical parallel servers with a shared FIFO queue — the SHAVE
/// processor pool, or a multi-lane DMA engine. Each request occupies one
/// server; the earliest-free server wins (ties broken by index, so the
/// simulation is deterministic).
///
/// ```
/// use desim::{ServerPool, SimTime, Duration};
/// let mut shaves = ServerPool::new("shaves", 12);
/// // 1200 ns of work forked 12 ways finishes in 100 ns.
/// let busy = shaves.acquire_parallel(SimTime::ZERO, Duration(1200), 12);
/// assert_eq!(busy.end, SimTime(100));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerPool {
    name: String,
    free_at: Vec<SimTime>,
    busy_total: Duration,
    requests: u64,
}

impl ServerPool {
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        assert!(servers > 0, "pool needs at least one server");
        ServerPool {
            name: name.into(),
            free_at: vec![SimTime::ZERO; servers],
            busy_total: Duration::ZERO,
            requests: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Acquire one server; returns `(server_index, busy_interval)`.
    pub fn acquire(&mut self, ready: SimTime, service: Duration) -> (usize, Busy) {
        let (idx, &free) =
            self.free_at.iter().enumerate().min_by_key(|&(i, &t)| (t, i)).expect("non-empty pool");
        let start = SimTime::max_of(ready, free);
        let end = start + service;
        self.free_at[idx] = end;
        self.busy_total += service;
        self.requests += 1;
        (idx, Busy { start, end })
    }

    /// Run a job split into `parts` equal chunks across the pool,
    /// returning when the last chunk finishes (fork-join).
    pub fn acquire_parallel(&mut self, ready: SimTime, total_work: Duration, parts: usize) -> Busy {
        assert!(parts > 0, "parts must be positive");
        let per_part = Duration::from_nanos(total_work.nanos().div_ceil(parts as u64));
        let mut start = SimTime(u64::MAX);
        let mut end = SimTime::ZERO;
        for _ in 0..parts {
            let (_, b) = self.acquire(ready, per_part);
            start = start.min(b.start);
            end = SimTime::max_of(end, b.end);
        }
        Busy { start, end }
    }

    /// Earliest instant any server is free.
    pub fn next_free(&self) -> SimTime {
        *self.free_at.iter().min().expect("non-empty pool")
    }

    /// Instant all servers are idle.
    pub fn all_free(&self) -> SimTime {
        *self.free_at.iter().max().expect("non-empty pool")
    }

    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Aggregate utilization over `[0, horizon]` (1.0 = all servers busy
    /// the whole time).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            self.busy_total.nanos() as f64 / (horizon.nanos() as f64 * self.servers() as f64)
        }
    }

    /// [`FifoResource::burst_since`] for the pool. Replaying it is exact
    /// when every acquisition of the run forks across the whole pool
    /// (as the SHAVE layers do); otherwise it is equivalent up to which
    /// idle server took which part.
    pub fn burst_since(&self, before: &ServerPool, origin: SimTime) -> PoolBurst {
        debug_assert!(before.all_free() <= origin, "burst must start on an idle pool");
        PoolBurst {
            idle_after: self.free_at.iter().map(|&t| (t > origin).then(|| t - origin)).collect(),
            busy: self.busy_total - before.busy_total,
            requests: self.requests - before.requests,
        }
    }

    /// [`FifoResource::replay`] for the pool.
    pub fn replay(&mut self, burst: &PoolBurst, origin: SimTime) {
        debug_assert!(self.all_free() <= origin, "replay onto a busy pool");
        for (free, d) in self.free_at.iter_mut().zip(&burst.idle_after) {
            if let Some(d) = d {
                *free = origin + *d;
            }
        }
        self.busy_total += burst.busy;
        self.requests += burst.requests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serializes_requests() {
        let mut r = FifoResource::new("usb");
        let a = r.acquire(SimTime(0), Duration(100));
        assert_eq!((a.start, a.end), (SimTime(0), SimTime(100)));
        // Second request ready at 50 must wait until 100.
        let b = r.acquire(SimTime(50), Duration(30));
        assert_eq!((b.start, b.end), (SimTime(100), SimTime(130)));
        // A request ready after the backlog starts immediately.
        let c = r.acquire(SimTime(500), Duration(10));
        assert_eq!(c.start, SimTime(500));
        assert_eq!(r.requests(), 3);
        assert_eq!(r.busy_total(), Duration(140));
    }

    #[test]
    fn fifo_utilization() {
        let mut r = FifoResource::new("bus");
        r.acquire(SimTime(0), Duration(250));
        assert!((r.utilization(SimTime(1000)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn pool_runs_k_jobs_concurrently() {
        let mut p = ServerPool::new("shaves", 3);
        let b1 = p.acquire(SimTime(0), Duration(100)).1;
        let b2 = p.acquire(SimTime(0), Duration(100)).1;
        let b3 = p.acquire(SimTime(0), Duration(100)).1;
        assert_eq!(b1.start, SimTime(0));
        assert_eq!(b2.start, SimTime(0));
        assert_eq!(b3.start, SimTime(0));
        // Fourth job queues behind the earliest finisher.
        let b4 = p.acquire(SimTime(0), Duration(50)).1;
        assert_eq!(b4.start, SimTime(100));
        assert_eq!(p.all_free(), SimTime(150));
    }

    #[test]
    fn pool_is_deterministic_on_ties() {
        let mut p = ServerPool::new("x", 2);
        let (i1, _) = p.acquire(SimTime(0), Duration(10));
        let (i2, _) = p.acquire(SimTime(0), Duration(10));
        assert_eq!((i1, i2), (0, 1));
    }

    #[test]
    fn fork_join_scales_with_parts() {
        let mut p = ServerPool::new("shaves", 4);
        // 400 ns of work over 4 servers -> 100 ns wall.
        let b = p.acquire_parallel(SimTime(0), Duration(400), 4);
        assert_eq!(b.start, SimTime(0));
        assert_eq!(b.end, SimTime(100));
        // Over 2 parts on now-busy servers: starts at 100.
        let b2 = p.acquire_parallel(SimTime(0), Duration(400), 2);
        assert_eq!(b2.end, SimTime(300));
    }

    #[test]
    fn fork_join_more_parts_than_servers() {
        let mut p = ServerPool::new("s", 2);
        // 6 parts of 100 ns on 2 servers: 3 rounds -> 300 ns.
        let b = p.acquire_parallel(SimTime(0), Duration(600), 6);
        assert_eq!(b.end, SimTime(300));
    }

    #[test]
    fn pool_utilization() {
        let mut p = ServerPool::new("s", 2);
        p.acquire(SimTime(0), Duration(100));
        // One of two servers busy for 100 of 200 ns -> 25%.
        assert!((p.utilization(SimTime(200)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fifo_burst_replays_as_shifted_acquisitions() {
        let mut r = FifoResource::new("ddr");
        r.acquire(SimTime(0), Duration(40));
        let before = r.clone();
        r.acquire(SimTime(100), Duration(30));
        r.acquire(SimTime(110), Duration(20));
        let burst = r.burst_since(&before, SimTime(100));
        let mut direct = r.clone();
        direct.acquire(SimTime(500), Duration(30));
        direct.acquire(SimTime(510), Duration(20));
        r.replay(&burst, SimTime(500));
        assert_eq!(r.available_at(), direct.available_at());
        assert_eq!((r.busy_total(), r.requests()), (direct.busy_total(), direct.requests()));
        // An untouched resource keeps its own idle instant.
        let idle = FifoResource::new("sipp");
        let none = idle.burst_since(&idle, SimTime(7));
        let mut other = FifoResource::new("sipp");
        other.acquire(SimTime(0), Duration(3));
        other.replay(&none, SimTime(9));
        assert_eq!((other.available_at(), other.requests()), (SimTime(3), 1));
    }

    #[test]
    fn pool_burst_replays_as_shifted_fork_join() {
        let mut p = ServerPool::new("shaves", 3);
        let before = p.clone();
        p.acquire_parallel(SimTime(10), Duration(300), 3);
        p.acquire_parallel(SimTime(120), Duration(30), 3);
        let burst = p.burst_since(&before, SimTime(10));
        let mut direct = p.clone();
        direct.acquire_parallel(SimTime(1_000), Duration(300), 3);
        direct.acquire_parallel(SimTime(1_110), Duration(30), 3);
        p.replay(&burst, SimTime(1_000));
        assert_eq!(p.all_free(), direct.all_free());
        assert_eq!(p.next_free(), direct.next_free());
        assert_eq!((p.busy_total(), p.requests()), (direct.busy_total(), direct.requests()));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        ServerPool::new("none", 0);
    }
}
