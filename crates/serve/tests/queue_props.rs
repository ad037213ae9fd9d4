//! Randomized property tests for the bounded priority [`JobQueue`]:
//! across 1/2/4/8 consumer threads, no job is lost or duplicated, FIFO
//! holds within each (producer, lane) pair, and backpressure keeps the
//! depth under the capacity bound.
//!
//! Consumers pop as the gateway's dispatcher does: without waiting, and
//! only while holding a lock of their own (the dispatcher holds its
//! worker-table lock). That lock also numbers the dequeues, which
//! totally orders them for the FIFO check.
//!
//! Randomness comes from a seeded xorshift generator (the workspace has
//! no external dependencies), so every run replays the same schedules'
//! *inputs* — the interleavings themselves are whatever the OS provides,
//! which is the point.

use serve::{Admission, JobQueue, Priority};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Seeded xorshift64* — deterministic job/priority streams per producer.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// One queued token: which producer pushed it, its per-producer sequence
/// number, and the lane it went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Token {
    producer: usize,
    seq: usize,
    lane: usize,
}

fn lanes() -> [Priority; 3] {
    [Priority::High, Priority::Normal, Priority::Low]
}

/// Drives `producers × per_producer` pushes against `consumers` popping
/// threads and checks the three queue invariants.
fn stress(consumers: usize, admission: Admission, cap: usize, seed: u64) {
    let producers = 3usize;
    let per_producer = 200usize;
    let queue = Arc::new(JobQueue::new(cap));
    // The next dequeue number; consumers pop only while holding it.
    let dequeues = Arc::new(Mutex::new(0u64));

    let consumer_handles: Vec<_> = (0..consumers)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let dequeues = Arc::clone(&dequeues);
            std::thread::spawn(move || {
                let mut seen: Vec<(u64, Token)> = Vec::new();
                loop {
                    let closed = queue.is_closed();
                    let popped = {
                        let mut next = dequeues.lock().unwrap();
                        queue.pop().map(|token| {
                            *next += 1;
                            (*next, token)
                        })
                    };
                    match popped {
                        Some(entry) => seen.push(entry),
                        // Closed before this empty pop: no push can
                        // follow, so the queue stays drained.
                        None if closed => break,
                        None => std::thread::yield_now(),
                    }
                }
                seen
            })
        })
        .collect();

    let producer_handles: Vec<_> = (0..producers)
        .map(|p| {
            let queue = Arc::clone(&queue);
            let mut rng = XorShift(seed.wrapping_add(p as u64).wrapping_mul(0x9e37_79b9) | 1);
            std::thread::spawn(move || {
                let mut rejected: Vec<Token> = Vec::new();
                for seq in 0..per_producer {
                    let priority = lanes()[(rng.next() % 3) as usize];
                    let token = Token {
                        producer: p,
                        seq,
                        lane: priority.lane(),
                    };
                    match queue.push(token, priority, admission) {
                        Ok(()) => {}
                        Err(_) => rejected.push(token),
                    }
                }
                rejected
            })
        })
        .collect();

    let mut rejected: Vec<Token> = Vec::new();
    for h in producer_handles {
        rejected.extend(h.join().unwrap());
    }
    queue.close();
    let mut consumed: Vec<(u64, Token)> = Vec::new();
    for h in consumer_handles {
        consumed.extend(h.join().unwrap());
    }

    // Invariant 1: nothing lost, nothing duplicated. Every pushed token
    // is either consumed exactly once or was rejected exactly once.
    let mut count: HashMap<Token, usize> = HashMap::new();
    for (_, t) in &consumed {
        *count.entry(*t).or_default() += 1;
    }
    for t in &rejected {
        *count.entry(*t).or_default() += 1;
    }
    assert_eq!(
        consumed.len() + rejected.len(),
        producers * per_producer,
        "token conservation"
    );
    for p in 0..producers {
        for seq in 0..per_producer {
            let matching: usize = lanes()
                .iter()
                .filter_map(|pr| {
                    count.get(&Token {
                        producer: p,
                        seq,
                        lane: pr.lane(),
                    })
                })
                .sum();
            assert_eq!(matching, 1, "producer {p} seq {seq} seen exactly once");
        }
    }

    // Invariant 2: FIFO within each (producer, lane) pair, using the
    // dequeue numbers (assigned under the consumers' lock) as the total
    // order over dequeues.
    let mut ordered = consumed.clone();
    ordered.sort_by_key(|(number, _)| *number);
    let mut last_seq: HashMap<(usize, usize), usize> = HashMap::new();
    for (_, t) in &ordered {
        if let Some(prev) = last_seq.insert((t.producer, t.lane), t.seq) {
            assert!(
                prev < t.seq,
                "FIFO violated in lane {} of producer {}: seq {} dequeued after {}",
                t.lane,
                t.producer,
                t.seq,
                prev
            );
        }
    }

    // Invariant 3: the bound held, and under Block admission nothing was
    // ever rejected (blocked pushes waited instead).
    assert!(
        queue.depth_max() <= cap,
        "depth {} exceeded capacity {}",
        queue.depth_max(),
        cap
    );
    if admission == Admission::Block {
        assert!(rejected.is_empty(), "Block admission must never reject");
        // With 600 pushes through a tiny queue, someone must have waited.
        assert!(queue.blocked_pushes() > 0, "expected backpressure");
    }
}

#[test]
fn block_admission_conserves_jobs_across_worker_counts() {
    for consumers in [1, 2, 4, 8] {
        stress(
            consumers,
            Admission::Block,
            4,
            0x5eed_0001 + consumers as u64,
        );
    }
}

#[test]
fn reject_admission_conserves_jobs_across_worker_counts() {
    for consumers in [1, 2, 4, 8] {
        stress(
            consumers,
            Admission::Reject,
            4,
            0x5eed_1001 + consumers as u64,
        );
    }
}

#[test]
fn single_consumer_sees_strict_lane_priority_when_prefilled() {
    // With the queue pre-filled and one consumer, lane priority is
    // observable deterministically: every High token dequeues before any
    // Normal, every Normal before any Low.
    let queue = JobQueue::new(64);
    let mut rng = XorShift(0xabcd_ef01);
    let mut pushed = Vec::new();
    for seq in 0..48 {
        let priority = lanes()[(rng.next() % 3) as usize];
        queue
            .push((seq, priority.lane()), priority, Admission::Reject)
            .unwrap();
        pushed.push(priority.lane());
    }
    queue.close();
    let drained: Vec<(usize, usize)> = std::iter::from_fn(|| queue.pop()).collect();
    assert_eq!(drained.len(), 48);
    let lanes_seen: Vec<usize> = drained.iter().map(|&(_, lane)| lane).collect();
    let mut sorted = lanes_seen.clone();
    sorted.sort_unstable();
    assert_eq!(lanes_seen, sorted, "lanes must drain in priority order");
}
