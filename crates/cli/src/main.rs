//! `gdo-opt` — the command-line front end of the GDO delay optimizer.
//!
//! ```text
//! gdo-opt [OPTIONS] <INPUT>
//!
//! INPUT                      .bench or .blif netlist (by extension)
//!   -o, --output FILE        write the optimized netlist (.bench or .blif)
//!   -l, --library FILE       genlib library (default: embedded gdo-std)
//!       --map-goal area|delay  technology-mapping objective (default: area)
//!       --no-map             input is already mapped; skip mapping
//!       --no-os3             disable OS3/IS3 (inserted-gate) substitutions
//!       --no-area-phase      skip the area optimization phase
//!       --vectors N          BPFS random vectors per round (default 2048)
//!       --seed N             BPFS seed (default 1995)
//!       --prover sat|bdd|miter   validity prover (default sat)
//!       --time-budget-ms N   wall-clock budget; best-so-far result on expiry
//!       --work-limit N       cap on optimizer work units (proofs/sites)
//!       --verify             SAT-verify in/out equivalence at the end
//!       --verify-each        re-prove equivalence after every substitution
//!       --verify-every N     re-prove equivalence every N substitutions
//!       --allow-degraded     exit 0 even after a verification rollback
//!       --partitions N       cluster into ~N regions, optimize in parallel
//!       --region-size S      cap partitioned regions at S gates
//!       --list-circuits      print the workload suite and exit
//!       --stats              print the full statistics block
//!       --trace-out FILE     stream telemetry events as NDJSON to FILE
//!       --report-json FILE   write the aggregated telemetry report as JSON
//!   -v, --verbose            pretty-print telemetry events to stderr
//!   -q, --quiet              only errors
//!
//! Exit codes: 0 success (including budget expiry with a valid result),
//! 1 internal error, 2 usage, 3 parse/invalid input, 4 degraded result
//! after a verification rollback (suppressed by --allow-degraded),
//! 5 file IO, 6 unwritable output.
//! ```

use cli::{exit_code, run, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(Some(o)) => o,
        Ok(None) => return, // --help
        Err(e) => {
            eprintln!("gdo-opt: {e}");
            eprintln!("try gdo-opt --help");
            std::process::exit(2);
        }
    };
    match run(&options) {
        Ok(outcome) => {
            if outcome.degraded() && !options.allow_degraded {
                eprintln!(
                    "gdo-opt: result is valid but degraded ({} verification rollback(s)); \
                     pass --allow-degraded to accept",
                    outcome.stats.verify_rollbacks
                );
                std::process::exit(4);
            }
        }
        Err(e) => {
            eprintln!("gdo-opt: {e}");
            std::process::exit(exit_code(&e));
        }
    }
}
