//! How operations reach a store: the loops shared by the end-to-end run and
//! the traced run.

use crate::plan::Op;
use mvkv_core::{StoreSession, VersionedStore};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What a pass hands the oracle without slowing the timed loop: the sum of
/// the versions its writes were assigned, which the oracle knows in advance.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub version_sum: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.version_sum = self.version_sum.wrapping_add(other.version_sum);
    }
}

/// Sum of the versions `first..=last`.
pub fn version_sum(first: u64, last: u64) -> u64 {
    if last < first {
        return 0;
    }
    let n = (last - first + 1) as u128;
    ((first as u128 + last as u128) * n / 2) as u64
}

#[inline(always)]
pub fn exec<S: VersionedStore>(store: &S, session: &S::Session<'_>, op: &Op, tally: &mut Tally) {
    match *op {
        Op::Find { key, version } => {
            black_box(session.find(key, version));
        }
        Op::Latest { key } => {
            black_box(session.find(key, store.tag()));
        }
        Op::Put { key, value } => {
            tally.version_sum = tally.version_sum.wrapping_add(session.insert(key, value));
        }
        Op::Remove { key } => {
            tally.version_sum = tally.version_sum.wrapping_add(session.remove(key));
        }
    }
}

/// Operations between two clock reads in a pass that does not time single
/// operations.
pub const CHUNK: usize = 1024;

/// What a throughput pass measured: one `ns per operation` sample per
/// [`CHUNK`] operations. The pass's rate is taken from the median chunk, so
/// a burst of interference from outside the process (this is a shared VM)
/// costs a few samples, not the result.
#[derive(Debug, Default)]
pub struct Pass {
    pub tally: Tally,
    pub ops: u64,
    pub chunk_ns_per_op: Vec<f64>,
}

impl Pass {
    fn chunk<S: VersionedStore>(&mut self, store: &S, session: &S::Session<'_>, chunk: &[Op]) {
        let start = Instant::now();
        for op in chunk {
            exec(store, session, op, &mut self.tally);
        }
        let ns = start.elapsed().as_nanos() as f64;
        self.ops += chunk.len() as u64;
        self.chunk_ns_per_op.push(ns / chunk.len() as f64);
    }
}

/// Runs `ops` once, reading the clock once per [`CHUNK`] operations.
pub fn run_ops<S: VersionedStore>(store: &S, ops: &[Op]) -> Pass {
    let session = store.session();
    let mut pass = Pass::default();
    for chunk in ops.chunks(CHUNK) {
        pass.chunk(store, &session, chunk);
    }
    pass
}

/// A position in a stream that wraps around at its end.
pub struct Cursor<'a> {
    ops: &'a [Op],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(ops: &'a [Op]) -> Self {
        assert!(!ops.is_empty(), "empty stream");
        Cursor { ops, pos: 0 }
    }

    /// The next at most `n` operations, never spanning the wrap.
    pub fn next_chunk(&mut self, n: usize) -> &'a [Op] {
        if self.pos == self.ops.len() {
            self.pos = 0;
        }
        let end = (self.pos + n).min(self.ops.len());
        let chunk = &self.ops[self.pos..end];
        self.pos = end;
        chunk
    }
}

/// [`run_ops`] from `cursor` until `budget` has passed.
pub fn run_for<S: VersionedStore>(store: &S, cursor: &mut Cursor<'_>, budget: Duration) -> Pass {
    let session = store.session();
    let start = Instant::now();
    let mut pass = Pass::default();
    loop {
        pass.chunk(store, &session, cursor.next_chunk(CHUNK));
        if start.elapsed() >= budget {
            return pass;
        }
    }
}

/// Per-operation latencies in nanoseconds, finds and writes apart.
pub struct Latencies {
    pub find_ns: Vec<u32>,
    pub write_ns: Vec<u32>,
}

impl Latencies {
    /// Buffers are allocated once, before anything is timed, and never grow.
    pub fn with_capacity(cap: usize) -> Self {
        Latencies { find_ns: Vec::with_capacity(cap), write_ns: Vec::with_capacity(cap) }
    }

    pub fn clear(&mut self) {
        self.find_ns.clear();
        self.write_ns.clear();
    }

    fn room(&self, n: usize) -> bool {
        self.find_ns.len() + n <= self.find_ns.capacity()
            && self.write_ns.len() + n <= self.write_ns.capacity()
    }
}

/// Runs `ops` once and records each operation's latency as the distance
/// between consecutive clock reads: one read per operation, so a sample
/// holds the operation, the loop around it and one clock read
/// (`harness.clock_ns`, reported and not subtracted).
pub fn run_clocked<S: VersionedStore>(
    store: &S,
    ops: &[Op],
    lat: &mut Latencies,
    tally: &mut Tally,
) {
    assert!(lat.room(ops.len()), "latency buffer too small for {} samples", ops.len());
    let session = store.session();
    let mut prev = Instant::now();
    for op in ops {
        exec(store, &session, op, tally);
        let now = Instant::now();
        let ns = now.duration_since(prev).as_nanos().min(u32::MAX as u128) as u32;
        prev = now;
        if op.is_write() {
            lat.write_ns.push(ns);
        } else {
            lat.find_ns.push(ns);
        }
    }
}

/// [`run_clocked`] from `cursor` until `budget` has passed or the buffers
/// are full.
pub fn run_clocked_for<S: VersionedStore>(
    store: &S,
    cursor: &mut Cursor<'_>,
    budget: Duration,
    lat: &mut Latencies,
    tally: &mut Tally,
) {
    let start = Instant::now();
    while lat.room(CHUNK) {
        run_clocked(store, cursor.next_chunk(CHUNK), lat, tally);
        if start.elapsed() >= budget {
            return;
        }
    }
}

/// Runs `work(t, &mut clients[t])` on one thread per client, released
/// together, and returns their results. A single client runs on the calling
/// thread: no spawn, no scheduler.
pub fn fan_out<C: Send, R: Send>(
    clients: &mut [C],
    work: impl Fn(usize, &mut C) -> R + Sync,
) -> Vec<R> {
    if let [only] = clients {
        return vec![work(0, only)];
    }
    let barrier = std::sync::Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    work(t, client)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_sums() {
        assert_eq!(version_sum(1, 4), 10);
        assert_eq!(version_sum(5, 5), 5);
        assert_eq!(version_sum(6, 5), 0);
        assert_eq!(version_sum(1, 1 << 32), ((1u128 << 32) * ((1u128 << 32) + 1) / 2) as u64);
    }

    #[test]
    fn cursor_wraps_without_spanning_the_end() {
        let ops: Vec<Op> = (0..5).map(|key| Op::Latest { key }).collect();
        let mut c = Cursor::new(&ops);
        assert_eq!(c.next_chunk(3).len(), 3);
        assert_eq!(c.next_chunk(3).len(), 2);
        assert_eq!(c.next_chunk(3)[0], Op::Latest { key: 0 });
    }

    #[test]
    fn fan_out_runs_every_client_once() {
        for threads in [1usize, 2, 3] {
            let mut clients = vec![0usize; threads];
            let ids = fan_out(&mut clients, |t, c| {
                *c += 1;
                t
            });
            assert_eq!(ids, (0..threads).collect::<Vec<_>>());
            assert_eq!(clients, vec![1; threads]);
        }
    }
}
