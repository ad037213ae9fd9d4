//! Host speed, measured next to the work so the reported times do not
//! follow it.
//!
//! The reference host is a shared vCPU whose speed for this program
//! drifts by 10–20 % from one half-minute to the next, while process CPU
//! time still equals wall time (see the README). Raw times follow that
//! drift, so two runs of the same code minutes apart differ by more than
//! a useful bound. The benchmark therefore times a fixed reference
//! workload of its own right before and after each piece of work it
//! measures, and reports the work's time scaled to the reference
//! workload's speed on the reference host: `raw × REFERENCE_S / sample`.
//! No change to the program can move the reference: it is this file's
//! code, built with the benchmark.
//!
//! The reference does the three kinds of work the optimizer spends its
//! time on, one small kernel each: bit-parallel simulation of a gate
//! netlist (BPFS, sweeping), unit propagation over clause occurrence
//! lists (SAT proofs), and ordered and hashed maps with string keys
//! (netlist and mapper bookkeeping). A tight arithmetic loop would not
//! do: over a seven-minute trace the program's half-minute medians
//! moved 13 % while such a loop's moved 5 %. Scaled by these three, the
//! half-minute spread of C1355, C499 and Z5xp1 jobs in that trace fell
//! from 13–20 % to 6–9 %.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Times of each kernel per sample; a sample takes each kernel's median,
/// so a run that an interrupt cut into does not move it.
const RUNS: usize = 5;
/// A sample (the geometric mean of the three kernels' medians) on the
/// reference host, in seconds — the unit scaled times are expressed in.
/// It is the median (time-weighted) sample of thirty batch runs there,
/// which ranged over 0.73–1.02 ms, so a scaled time reads as that host's
/// time at its median speed.
pub const REFERENCE_S: f64 = 0.000_86;

/// Gates of the simulated netlist, the first [`SIM_INPUTS`] of them
/// primary inputs.
const SIM_GATES: usize = 30_000;
const SIM_INPUTS: usize = 200;
/// Variables and clauses of the random 3-SAT instance propagated over.
const SAT_VARS: usize = 3_000;
const SAT_CLAUSES: usize = 12_000;
/// Decision-and-propagate descents per propagation kernel run.
const SAT_DESCENTS: u64 = 6;
/// Keys inserted per collections kernel run.
const MAP_KEYS: u64 = 1_500;

/// splitmix64, so the reference's inputs never change.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The reference workload's fixed inputs and scratch space.
pub struct Pace {
    /// Per gate: two fanins and a function (AND, OR, XOR, NAND).
    gates: Vec<(u32, u32, u8)>,
    values: Vec<u64>,
    /// Clauses of literals `var << 1 | value`, each true when its
    /// variable holds `value`.
    clauses: Vec<[u32; 3]>,
    /// Per literal, the clauses it occurs in.
    occurs: Vec<Vec<u32>>,
    assignment: Vec<u8>,
    trail: Vec<u32>,
}

impl Default for Pace {
    fn default() -> Self {
        Self::new()
    }
}

impl Pace {
    /// The reference workload, built and run once so no sample pays for
    /// first-touch page faults.
    #[must_use]
    pub fn new() -> Pace {
        let mut rng = Rng(0x5eed);
        // Most fanins are recent gates, as in a levelized netlist; one
        // reaches anywhere before.
        let gates = (0..SIM_GATES)
            .map(|i| {
                if i < SIM_INPUTS {
                    return (0, 0, 0);
                }
                let far = rng.below(i) as u32;
                let near = (i - 1 - rng.below(i.min(400))) as u32;
                (far, near, (rng.next() % 4) as u8)
            })
            .collect();
        let clauses: Vec<[u32; 3]> = (0..SAT_CLAUSES)
            .map(|_| [(); 3].map(|()| (rng.below(SAT_VARS) as u32) << 1 | (rng.next() & 1) as u32))
            .collect();
        let mut occurs = vec![Vec::new(); 2 * SAT_VARS];
        for (c, lits) in clauses.iter().enumerate() {
            for &l in lits {
                occurs[l as usize].push(c as u32);
            }
        }
        let mut pace = Pace {
            gates,
            values: vec![0; SIM_GATES],
            clauses,
            occurs,
            assignment: vec![0; SAT_VARS],
            trail: Vec::with_capacity(SAT_VARS),
        };
        pace.sample();
        pace
    }

    /// Simulates the netlist on two words of fixed random inputs.
    fn simulate(&mut self) -> u64 {
        let mut rng = Rng(1);
        let mut acc = 0;
        for _ in 0..2 {
            for v in &mut self.values[..SIM_INPUTS] {
                *v = rng.next();
            }
            for i in SIM_INPUTS..SIM_GATES {
                let (a, b, f) = self.gates[i];
                let (x, y) = (self.values[a as usize], self.values[b as usize]);
                self.values[i] = match f {
                    0 => x & y,
                    1 => x | y,
                    2 => x ^ y,
                    _ => !(x & y),
                };
            }
            acc ^= self.values[SIM_GATES - 1];
        }
        acc
    }

    /// Descends by fixed random decisions, propagating units, until a
    /// conflict or a full assignment, [`SAT_DESCENTS`] times.
    fn propagate(&mut self) -> u64 {
        const FREE: u8 = 2;
        let mut rng = Rng(2);
        let mut acc = 0;
        for _ in 0..SAT_DESCENTS {
            self.assignment.fill(FREE);
            self.trail.clear();
            let mut head = 0;
            'descent: while self.trail.len() < SAT_VARS {
                let mut v = rng.below(SAT_VARS);
                while self.assignment[v] != FREE {
                    v = (v + 1) % SAT_VARS;
                }
                let decision = (v as u32) << 1 | (rng.next() & 1) as u32;
                self.assignment[v] = (decision & 1) as u8;
                self.trail.push(decision);
                while head < self.trail.len() {
                    let falsified = self.trail[head] ^ 1;
                    head += 1;
                    for &c in &self.occurs[falsified as usize] {
                        let mut free = None;
                        let mut open = 0;
                        let mut satisfied = false;
                        for &l in &self.clauses[c as usize] {
                            match self.assignment[(l >> 1) as usize] {
                                FREE => {
                                    open += 1;
                                    free = Some(l);
                                }
                                value if value == (l & 1) as u8 => {
                                    satisfied = true;
                                    break;
                                }
                                _ => {}
                            }
                        }
                        match (satisfied, open, free) {
                            (false, 0, _) => break 'descent,
                            (false, 1, Some(unit)) => {
                                self.assignment[(unit >> 1) as usize] = (unit & 1) as u8;
                                self.trail.push(unit);
                            }
                            _ => {}
                        }
                    }
                }
            }
            acc += self.trail.len() as u64;
        }
        acc
    }

    /// Fills an ordered map of small vectors and a hash map keyed by
    /// formatted names, sorts the keys and looks every one up.
    fn collections() -> u64 {
        let mut rng = Rng(3);
        let mut ordered = BTreeMap::new();
        let mut named = HashMap::new();
        for i in 0..MAP_KEYS {
            let k = rng.next();
            ordered.insert(k % 100_000, vec![k as u32; (k % 8) as usize]);
            named.insert(format!("n{}", k % 3_000), i);
        }
        let mut keys: Vec<u64> = ordered.keys().copied().collect();
        keys.sort_unstable_by_key(|k| k.rotate_left(17));
        let mut acc = 0u64;
        for k in &keys {
            acc = acc.wrapping_add(named.get(&format!("n{}", k % 3_000)).copied().unwrap_or(1));
        }
        acc ^ ordered.values().filter(|v| v.len() > 3).count() as u64
    }

    /// How long the reference workload takes now, in seconds: the
    /// geometric mean of each kernel's median over [`RUNS`] runs.
    pub fn sample(&mut self) -> f64 {
        fn median_of(mut run: impl FnMut() -> u64) -> f64 {
            let mut times = [0.0; RUNS];
            for t in &mut times {
                let start = Instant::now();
                black_box(run());
                *t = start.elapsed().as_secs_f64();
            }
            crate::stats::median(&times)
        }
        let kernels = [
            median_of(|| self.simulate()),
            median_of(|| self.propagate()),
            median_of(Pace::collections),
        ];
        (kernels.iter().map(|t| t.ln()).sum::<f64>() / kernels.len() as f64).exp()
    }
}

/// The factor that scales a time measured between reference samples
/// `before` and `after` to the reference host's speed.
#[must_use]
pub fn speed(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_does_the_same_work_every_time() {
        let mut pace = Pace::new();
        let sim = pace.simulate();
        let prop = pace.propagate();
        assert_eq!(pace.simulate(), sim);
        assert_eq!(pace.propagate(), prop);
        assert_eq!(Pace::collections(), Pace::collections());
        assert!(
            prop > SAT_DESCENTS,
            "descents propagate past their decision"
        );
        assert!(pace.sample() > 0.0);
    }

    #[test]
    fn speed_scales_inversely_with_the_mean_sample() {
        assert!((speed(REFERENCE_S, REFERENCE_S) - 1.0).abs() < 1e-12);
        assert!((speed(2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
        assert!((speed(REFERENCE_S / 2.0, REFERENCE_S * 1.5) - 1.0).abs() < 1e-12);
    }
}
