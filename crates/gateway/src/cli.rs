//! The command-line flags `gdo-served` and `gdo-gateway` share. Both
//! binaries run a [`Gateway`](crate::Gateway), so the flags that
//! configure it parse in one place.

use crate::gateway::GatewayConfig;
use crate::shed::ShedConfig;
use std::str::FromStr;

/// Help lines of the shared flags, for each binary's usage text.
pub const SHARED_USAGE: &str =
    "  --addr HOST:PORT         client listen address (default 127.0.0.1:0; port 0 = ephemeral)
  --queue-cap N            bounded queue capacity (default 16)
  --library FILE           genlib cell library (default: built-in);
                           remote workers must carry an identical one
  --verify POLICY          default verify policy: off|final|each|every:N (default final)
  --seed N                 default BPFS seed (default 1995)
  --journal-dir DIR        durable job journal: log accepted jobs and terminals,
                           checkpoint runs, recover on restart; remote workers
                           must see it for checkpoint resume
  --work-ceiling UNITS     aggregate granted-work ceiling; admission sheds past it
  --retry-max N            worker-panic retries before a job is poisoned (default 2)
";

/// The value following `flag`.
///
/// # Errors
///
/// `flag` was the last argument.
pub fn value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed as a number; `what` names the
/// expected kind in the error.
///
/// # Errors
///
/// The value is missing or does not parse.
pub fn number<T: FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    value(it, flag)?
        .parse()
        .map_err(|_| format!("{flag} needs {what}"))
}

/// Parses `flag` into `addr` or `cfg` when it is one of the shared
/// flags, taking its value from `it`. Returns `Ok(false)` for any other
/// flag, which the binary then parses itself.
///
/// # Errors
///
/// A missing or malformed value.
pub fn parse_shared(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
    addr: &mut String,
    cfg: &mut GatewayConfig,
) -> Result<bool, String> {
    match flag {
        "--addr" => *addr = value(it, flag)?,
        "--queue-cap" => {
            cfg.queue_cap = number(it, flag, "a positive integer")?;
            if cfg.queue_cap == 0 {
                return Err("--queue-cap must be positive".to_string());
            }
            // The shed watermarks follow the queue; the ceiling stays.
            cfg.shed = ShedConfig {
                work_ceiling: cfg.shed.work_ceiling,
                ..ShedConfig::for_queue_cap(cfg.queue_cap)
            };
        }
        "--library" => {
            let path = value(it, flag)?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read library {path}: {e}"))?;
            cfg.library = library::parse_genlib(&path, &text).map_err(|e| e.to_string())?;
        }
        "--verify" => cfg.default_verify = proto::parse_verify(&value(it, flag)?)?,
        "--seed" => cfg.default_seed = number(it, flag, "an integer")?,
        "--journal-dir" => cfg.journal_dir = Some(value(it, flag)?.into()),
        "--work-ceiling" => cfg.shed.work_ceiling = Some(number(it, flag, "an integer")?),
        "--retry-max" => cfg.retry_max = number(it, flag, "a non-negative integer")?,
        _ => return Ok(false),
    }
    Ok(true)
}
