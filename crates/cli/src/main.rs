//! `gdo-opt` — the command-line front end of the GDO delay optimizer.
//!
//! `gdo-opt --help` prints every option; the text is [`cli::usage`], the
//! one list of flags. What it does not print is the exit-code table:
//!
//! ```text
//! 0  success (including budget expiry with a valid result)
//! 1  internal error
//! 2  usage
//! 3  parse error, invalid input, or a resume snapshot the run cannot use
//! 4  degraded result after a verification rollback (0 with --allow-degraded)
//! 5  file IO
//! 6  unwritable output
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
