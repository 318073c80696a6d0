//! Virtual-time network model.
//!
//! Each rank carries a virtual clock. Compute advances only the local
//! clock; a message from `a` to `b` completes at
//! `max(clock_a, clock_b) + α + bytes/β` and advances both clocks to that
//! instant (blocking rendezvous semantics, the common regime for the large
//! messages of the merge experiments). Collectives are built from these
//! primitives with the same algorithms an MPI library would use, so round
//! counts — the paper's `log(N)` arguments — fall out naturally.

use std::time::Duration;

/// Latency/bandwidth (α/β) network cost model.
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    /// Per-message latency (α).
    pub latency: Duration,
    /// Link bandwidth in bytes/second (β).
    pub bandwidth: f64,
}

impl NetModel {
    /// Aries-interconnect-like defaults (the paper's Cray XC40 Dragonfly):
    /// ~1.5 µs MPI latency, ~8 GB/s effective point-to-point bandwidth.
    pub fn theta_like() -> Self {
        NetModel { latency: Duration::from_nanos(1500), bandwidth: 8.0e9 }
    }

    /// Transfer time of one `bytes`-sized message.
    pub fn transfer(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

impl Default for NetModel {
    fn default() -> Self {
        Self::theta_like()
    }
}

/// Per-rank virtual clocks driven by the cost model.
#[derive(Debug, Clone)]
pub struct VirtualNet {
    model: NetModel,
    times: Vec<Duration>,
}

impl VirtualNet {
    pub fn new(ranks: usize, model: NetModel) -> Self {
        VirtualNet { model, times: vec![Duration::ZERO; ranks] }
    }

    pub fn ranks(&self) -> usize {
        self.times.len()
    }

    pub fn model(&self) -> NetModel {
        self.model
    }

    /// Current virtual time of `rank`.
    pub fn time(&self, rank: usize) -> Duration {
        self.times[rank]
    }

    /// Latest clock across all ranks.
    pub fn max_time(&self) -> Duration {
        self.times.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Resets all clocks to zero.
    pub fn reset(&mut self) {
        self.times.fill(Duration::ZERO);
    }

    /// Local computation on `rank`.
    pub fn charge(&mut self, rank: usize, elapsed: Duration) {
        self.times[rank] += elapsed;
    }

    /// Blocking message `from → to`; both clocks advance to completion.
    pub fn send(&mut self, from: usize, to: usize, bytes: u64) {
        debug_assert_ne!(from, to);
        let done = self.times[from].max(self.times[to]) + self.model.transfer(bytes);
        self.times[from] = done;
        self.times[to] = done;
    }

    /// Binomial-tree broadcast of a `bytes` message from `root`.
    /// Runs in ⌈log2(K)⌉ rounds.
    pub fn bcast(&mut self, root: usize, bytes: u64) {
        let k = self.ranks();
        if k <= 1 {
            return;
        }
        // Work in a root-rotated space so the tree math assumes root 0.
        let rel = |r: usize| (r + root) % k;
        let mut step = 1usize;
        while step < k {
            for src in 0..step {
                let dst = src + step;
                if dst < k {
                    self.send(rel(src), rel(dst), bytes);
                }
            }
            step <<= 1;
        }
    }

    /// Binomial-tree reduction of fixed-size `bytes` contributions onto
    /// `root` (⌈log2(K)⌉ rounds); `combine` is the per-merge compute cost.
    pub fn reduce(&mut self, root: usize, bytes: u64, combine: Duration) {
        let k = self.ranks();
        if k <= 1 {
            return;
        }
        let rel = |r: usize| (r + root) % k;
        let mut step = 1usize;
        while step < k {
            let mut src = step;
            while src < k {
                let dst = src - step;
                if src % (step * 2) == step {
                    self.send(rel(src), rel(dst), bytes);
                    self.times[rel(dst)] += combine;
                }
                src += step;
            }
            step <<= 1;
        }
    }

    /// Linear gather of per-rank payloads onto `root` (large-message
    /// gathers serialize at the root's links, as MPI_Gatherv effectively
    /// does for data this size). `bytes_of(rank)` sizes each contribution.
    pub fn gather(&mut self, root: usize, bytes_of: impl Fn(usize) -> u64) {
        let k = self.ranks();
        for rank in 0..k {
            if rank != root {
                self.send(rank, root, bytes_of(rank));
            }
        }
    }

    /// Barrier: all clocks jump to the global maximum (plus one latency per
    /// tree round, the usual dissemination-barrier cost).
    pub fn barrier(&mut self) {
        let rounds = (self.ranks() as f64).log2().ceil() as u32;
        let t = self.max_time() + self.model.latency * rounds;
        self.times.fill(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn transfer_combines_latency_and_bandwidth() {
        let m = NetModel { latency: ms(1), bandwidth: 1000.0 };
        // 500 bytes at 1000 B/s = 0.5 s + 1 ms latency.
        let t = m.transfer(500);
        assert_eq!(t, ms(1) + Duration::from_millis(500));
    }

    #[test]
    fn send_synchronizes_clocks() {
        let mut net = VirtualNet::new(2, NetModel { latency: ms(1), bandwidth: 1e9 });
        net.charge(0, ms(10));
        net.send(0, 1, 0);
        assert_eq!(net.time(1), ms(11), "receiver waits for sender readiness + latency");
        assert_eq!(net.time(0), net.time(1));
    }

    #[test]
    fn bcast_rounds_are_logarithmic() {
        // With zero-size messages the bcast cost is latency * ceil(log2 K).
        for k in [2usize, 4, 8, 16, 64, 512] {
            let mut net = VirtualNet::new(k, NetModel { latency: ms(1), bandwidth: 1e12 });
            net.bcast(0, 0);
            let rounds = (k as f64).log2().ceil() as u32;
            assert_eq!(net.max_time(), ms(1) * rounds, "K={k}");
        }
    }

    #[test]
    fn bcast_reaches_every_rank() {
        let mut net = VirtualNet::new(7, NetModel { latency: ms(1), bandwidth: 1e12 });
        net.bcast(3, 100);
        for r in 0..7 {
            assert!(net.time(r) > Duration::ZERO, "rank {r} never received");
        }
    }

    #[test]
    fn reduce_rounds_are_logarithmic() {
        for k in [2usize, 8, 32] {
            let mut net = VirtualNet::new(k, NetModel { latency: ms(1), bandwidth: 1e12 });
            net.reduce(0, 8, Duration::ZERO);
            let rounds = (k as f64).log2().ceil() as u32;
            assert_eq!(net.time(0), ms(1) * rounds, "K={k}");
        }
    }

    #[test]
    fn gather_serializes_at_root() {
        let mut net = VirtualNet::new(4, NetModel { latency: ms(1), bandwidth: 1e12 });
        net.gather(0, |_| 0);
        assert_eq!(net.time(0), ms(3), "three incoming messages serialize");
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut net = VirtualNet::new(4, NetModel { latency: ms(1), bandwidth: 1e12 });
        net.charge(2, ms(50));
        net.barrier();
        for r in 0..4 {
            assert_eq!(net.time(r), ms(50) + ms(2));
        }
    }

    #[test]
    fn reset_zeroes_clocks() {
        let mut net = VirtualNet::new(3, NetModel::default());
        net.charge(1, ms(5));
        net.reset();
        assert_eq!(net.max_time(), Duration::ZERO);
    }
}
