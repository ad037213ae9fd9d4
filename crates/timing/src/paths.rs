//! Enumeration of the k topologically-worst paths — the reporting
//! counterpart to [`crate::CriticalPaths`]' counting.

use crate::TimingGraph;
use netlist::{Netlist, SignalId};

/// One enumerated path: signals from a primary input (or constant) to a
/// primary-output driver, with its total delay.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// The signals along the path, source first.
    pub signals: Vec<SignalId>,
    /// Total path delay (the arrival time at the endpoint along this
    /// path).
    pub delay: f64,
}

/// Enumerates up to `k` worst paths, longest first.
///
/// Uses best-first search over partial paths extended backwards from the
/// primary-output drivers; each partial path is ranked by its best
/// achievable total delay (the current suffix delay plus the arrival time
/// of its head), so paths pop out in exact worst-first order.
///
/// # Errors
///
/// [`NetlistError::CycleDetected`](netlist::NetlistError::CycleDetected)
/// if `nl` is not a DAG.
///
/// # Example
///
/// ```
/// use netlist::{Netlist, GateKind};
/// use timing::{worst_paths, TimingGraph, UnitDelay};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g1 = nl.add_gate(GateKind::Not, &[a])?;
/// let g2 = nl.add_gate(GateKind::And, &[g1, b])?;
/// nl.add_output("y", g2);
/// let tg = TimingGraph::from_scratch(&nl, &UnitDelay)?;
/// let paths = worst_paths(&nl, &tg, 2);
/// assert_eq!(paths.len(), 2);
/// assert_eq!(paths[0].delay, 2.0); // a -> g1 -> g2
/// assert_eq!(paths[1].delay, 1.0); // b -> g2
/// assert!(paths[0].delay >= paths[1].delay);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn worst_paths(nl: &Netlist, tg: &TimingGraph, k: usize) -> Vec<TimingPath> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// A partial path: suffix from `head` to an output driver.
    struct Partial {
        /// Best achievable total delay = arrival(head) + suffix_delay.
        bound: f64,
        /// Delay accumulated along the suffix (head exclusive).
        suffix_delay: f64,
        /// Suffix signals, head first.
        suffix: Vec<SignalId>,
    }
    impl PartialEq for Partial {
        fn eq(&self, other: &Self) -> bool {
            self.bound == other.bound
        }
    }
    impl Eq for Partial {}
    impl PartialOrd for Partial {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Partial {
        fn cmp(&self, other: &Self) -> Ordering {
            self.bound.total_cmp(&other.bound)
        }
    }

    let mut heap: BinaryHeap<Partial> = BinaryHeap::new();
    let mut seen_endpoints = std::collections::HashSet::new();
    for po in nl.outputs() {
        let d = po.driver();
        if seen_endpoints.insert(d) {
            heap.push(Partial {
                bound: tg.arrival(d),
                suffix_delay: 0.0,
                suffix: vec![d],
            });
        }
    }
    let mut out = Vec::with_capacity(k);
    while let Some(p) = heap.pop() {
        if out.len() >= k {
            break;
        }
        let head = p.suffix[0];
        if nl.kind(head).is_source() {
            // `suffix` is built by prepending fanins, so it is already in
            // source-to-sink order.
            out.push(TimingPath {
                signals: p.suffix,
                delay: p.bound,
            });
            continue;
        }
        for (pin, &f) in nl.fanins(head).iter().enumerate() {
            let edge = tg.pin_delay(head, pin);
            let mut suffix = Vec::with_capacity(p.suffix.len() + 1);
            suffix.push(f);
            suffix.extend_from_slice(&p.suffix);
            heap.push(Partial {
                bound: tg.arrival(f) + edge + p.suffix_delay,
                suffix_delay: edge + p.suffix_delay,
                suffix,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitDelay;
    use netlist::GateKind;

    #[test]
    fn enumerates_in_worst_first_order() {
        // Three paths of lengths 3, 2, 1.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[g1, b]).unwrap();
        let g3 = nl.add_gate(GateKind::Or, &[g2, c]).unwrap();
        nl.add_output("y", g3);
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        let paths = worst_paths(&nl, &tg, 10);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].delay, 3.0);
        assert_eq!(paths[0].signals, vec![a, g1, g2, g3]);
        assert_eq!(paths[1].delay, 2.0);
        assert_eq!(paths[1].signals, vec![b, g2, g3]);
        assert_eq!(paths[2].delay, 1.0);
        assert_eq!(paths[2].signals, vec![c, g3]);
    }

    #[test]
    fn k_limits_the_output() {
        let mut nl = Netlist::new("t");
        let ins: Vec<SignalId> = (0..6).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g = nl.add_gate(GateKind::And, &ins).unwrap();
        nl.add_output("y", g);
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        let paths = worst_paths(&nl, &tg, 3);
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.delay == 1.0));
    }

    #[test]
    fn path_count_matches_ncp_total() {
        // The number of full-delay paths equals the NCP total.
        use crate::CriticalPaths;
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g1 = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let g2 = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let g3 = nl.add_gate(GateKind::And, &[g1, g2]).unwrap();
        nl.add_output("y", g3);
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        let cp = CriticalPaths::count(&nl, &tg).unwrap();
        let paths = worst_paths(&nl, &tg, 100);
        let worst = tg.circuit_delay();
        let n_critical = paths
            .iter()
            .filter(|p| (p.delay - worst).abs() < 1e-9)
            .count();
        assert_eq!(n_critical as f64, cp.total(&nl));
    }

    #[test]
    fn empty_netlist_has_no_paths() {
        let nl = Netlist::new("t");
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        assert!(worst_paths(&nl, &tg, 5).is_empty());
    }
}
