//! A minimal MPI-like message-passing runtime over threads + channels.
//!
//! Used to validate the distributed protocols (broadcast + reduce find,
//! gather, hierarchic merge) under real concurrency, in the fail-free
//! world the paper's §V-H runs in. Messages are matched on `(source, tag)`
//! with out-of-order buffering, like MPI's `MPI_Recv(source, tag)`.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{HashMap, VecDeque};

type Packet = (usize, u64, Vec<u8>); // (from, tag, payload)

/// A send failed because the destination rank no longer exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    PeerDisconnected { to: usize },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::PeerDisconnected { to } => write!(f, "peer rank {to} has hung up"),
        }
    }
}

impl std::error::Error for SendError {}

/// A rank's communicator endpoint.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Out-of-order packets parked until a matching recv.
    parked: HashMap<(usize, u64), VecDeque<Vec<u8>>>,
}

impl Comm {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends `payload` to `to` with a message `tag`. `Err` means the peer
    /// is gone (its thread exited).
    pub fn send(&self, to: usize, tag: u64, payload: Vec<u8>) -> Result<(), SendError> {
        self.senders[to]
            .send((self.rank, tag, payload))
            .map_err(|_| SendError::PeerDisconnected { to })
    }

    /// Receives the next message from `from` with `tag`, blocking.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<u8> {
        if let Some(payload) = self.parked.get_mut(&(from, tag)).and_then(VecDeque::pop_front) {
            return payload;
        }
        loop {
            let (src, t, payload) = self.receiver.recv().expect("cluster tore down mid-recv");
            if src == from && t == tag {
                return payload;
            }
            self.parked.entry((src, t)).or_default().push_back(payload);
        }
    }

    /// Binomial-tree broadcast from `root` (the MPICH minimum-spanning-tree
    /// algorithm); returns the payload on every rank.
    pub fn bcast(&mut self, root: usize, payload: Option<Vec<u8>>, tag: u64) -> Vec<u8> {
        let k = self.size;
        let me = (self.rank + k - root) % k; // root-relative id
        let rel = |r: usize| (r + root) % k;

        // Receive phase: the parent is `me` with its lowest set bit cleared.
        let mut mask = 1usize;
        let data;
        if me == 0 {
            data = payload.expect("root provides the payload");
            while mask < k {
                mask <<= 1;
            }
        } else {
            while mask < k {
                if me & mask != 0 {
                    data = self.recv(rel(me - mask), tag);
                    return self.bcast_forward(rel, me, mask, k, data, tag);
                }
                mask <<= 1;
            }
            unreachable!("non-root rank must have a set bit below k");
        }
        self.bcast_forward(rel, me, mask, k, data, tag)
    }

    fn bcast_forward(
        &self,
        rel: impl Fn(usize) -> usize,
        me: usize,
        mut mask: usize,
        k: usize,
        data: Vec<u8>,
        tag: u64,
    ) -> Vec<u8> {
        // Send phase: forward to me + mask for each mask below my own bit.
        mask >>= 1;
        while mask > 0 {
            if me + mask < k {
                self.send(rel(me + mask), tag, data.clone()).expect("bcast peer hung up");
            }
            mask >>= 1;
        }
        data
    }

    /// Gathers every rank's payload on `root`; returns `Some(vec indexed by
    /// rank)` at the root, `None` elsewhere.
    pub fn gather(&mut self, root: usize, payload: Vec<u8>, tag: u64) -> Option<Vec<Vec<u8>>> {
        if self.rank == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); self.size];
            out[root] = payload;
            // recv needs &mut self, so collect replies before placement.
            #[allow(clippy::needless_range_loop)]
            for from in 0..self.size {
                if from != root {
                    let reply = self.recv(from, tag);
                    out[from] = reply;
                }
            }
            Some(out)
        } else {
            self.send(root, tag, payload).expect("gather root hung up");
            None
        }
    }

    /// Barrier over all ranks (gather-then-broadcast of empty messages).
    pub fn barrier(&mut self, tag: u64) {
        let _ = self.gather(0, Vec::new(), tag);
        if self.rank == 0 {
            self.bcast(0, Some(Vec::new()), tag + 1);
        } else {
            self.bcast(0, None, tag + 1);
        }
    }
}

/// Spawns `size` ranks, each running `body(comm)`, and returns their
/// results in rank order (the `mpirun` of this substrate). Every rank is
/// joined before the first panicking rank's panic is re-raised on the
/// caller.
pub fn run_cluster<F, R>(size: usize, body: F) -> Vec<R>
where
    F: Fn(Comm) -> R + Sync,
    R: Send,
{
    assert!(size >= 1);
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..size).map(|_| unbounded::<Packet>()).unzip();
    let body = &body;
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| {
                let senders = senders.clone();
                let parked = HashMap::new();
                scope.spawn(move || body(Comm { rank, size, senders, receiver, parked }))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined.into_iter().map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn point_to_point_roundtrip() {
        let results = run_cluster(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1, 2, 3]).unwrap();
                comm.recv(1, 8)
            } else {
                let got = comm.recv(0, 7);
                comm.send(0, 8, vec![9]).unwrap();
                got
            }
        });
        assert_eq!(results[0], vec![9]);
        assert_eq!(results[1], vec![1, 2, 3]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run_cluster(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1]).unwrap();
                comm.send(1, 2, vec![2]).unwrap();
                Vec::new()
            } else {
                // Receive in reverse tag order.
                let b = comm.recv(0, 2);
                let a = comm.recv(0, 1);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![1, 2]);
    }

    #[test]
    fn bcast_delivers_to_all_ranks_and_roots() {
        for size in [1usize, 2, 3, 5, 8, 16] {
            for root in [0, size - 1, size / 2] {
                let results = run_cluster(size, |mut comm| {
                    let payload = (comm.rank() == root).then(|| vec![0xAB, root as u8]);
                    comm.bcast(root, payload, 42)
                });
                for (r, got) in results.iter().enumerate() {
                    assert_eq!(got, &vec![0xAB, root as u8], "size={size} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = run_cluster(5, |mut comm| {
            let mine = vec![comm.rank() as u8];
            comm.gather(0, mine, 9)
        });
        let at_root = results[0].as_ref().unwrap();
        for (r, payload) in at_root.iter().enumerate() {
            assert_eq!(payload, &vec![r as u8]);
        }
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn barrier_completes() {
        let results = run_cluster(6, |mut comm| {
            comm.barrier(100);
            comm.barrier(200);
            comm.rank()
        });
        assert_eq!(results, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn send_to_exited_rank_reports_disconnect() {
        let results = run_cluster(2, |comm| {
            if comm.rank() == 0 {
                // Wait for rank 1 to be provably gone, then send.
                let mut outcome = Ok(());
                for _ in 0..200 {
                    std::thread::sleep(Duration::from_millis(5));
                    outcome = comm.send(1, 9, vec![1]);
                    if outcome.is_err() {
                        break;
                    }
                }
                outcome
            } else {
                Ok(()) // exits immediately, dropping its receiver
            }
        });
        assert_eq!(
            results[0],
            Err(SendError::PeerDisconnected { to: 1 }),
            "send to an exited rank must surface an error, not panic"
        );
    }

    #[test]
    #[should_panic(expected = "rank 2 failed")]
    fn a_panicking_rank_fails_the_caller() {
        run_cluster(3, |comm| {
            if comm.rank() == 2 {
                panic!("rank 2 failed");
            }
            comm.rank()
        });
    }
}
