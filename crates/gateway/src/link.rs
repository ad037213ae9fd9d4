//! The write side of an NDJSON link, shared by every stream the
//! serving stack writes lines to: client connections, the batch
//! stdout, `recovered.ndjson`, and both directions of a worker link
//! (a TCP connection, or the pipe pair of an in-process worker).

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

/// Where a link's lines go: one writer, shared by every thread that
/// writes to it, each line written whole under the lock.
pub type Output = Arc<Mutex<Box<dyn Write + Send>>>;

/// Wraps a writer as an [`Output`].
pub fn output_from(w: impl Write + Send + 'static) -> Output {
    Arc::new(Mutex::new(Box::new(w)))
}

/// Writes one line to `out` and flushes it. Best effort: a peer that
/// went away must not take the writer down with it.
pub(crate) fn send_line(out: &Output, line: &str) {
    let mut w = lock(out);
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// Locks `m`, recovering the data from a poisoned lock: a panicking
/// holder must not wedge the stack.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
