//! The write side of an NDJSON link, shared by every stream the
//! serving stack writes lines to: client connections, the batch
//! stdout, `recovered.ndjson`, and both directions of a worker link
//! (a TCP connection, or the pipe pair of an in-process worker).
//!
//! One message is one `write`: a line and its newline leave together.
//! On TCP, a line split over two writes goes out as two packets, and
//! with Nagle's algorithm on, the second waits for the peer's delayed
//! ACK. The stack also sets `TCP_NODELAY` on every TCP stream it
//! creates, so back-to-back lines do not wait either (DESIGN.md §11).

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

/// Where a link's lines go: one writer, shared by every thread that
/// writes to it, each line written whole under the lock.
pub type Output = Arc<Mutex<Box<dyn Write + Send>>>;

/// Wraps a writer as an [`Output`].
pub fn output_from(w: impl Write + Send + 'static) -> Output {
    Arc::new(Mutex::new(Box::new(w)))
}

/// Writes one line and its newline to `out` in a single write, and
/// flushes it. Best effort: a peer that went away must not take the
/// writer down with it.
pub(crate) fn send_line(out: &Output, line: &str) {
    let line = format!("{line}\n");
    let mut w = lock(out);
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

/// Locks `m`, recovering the data from a poisoned lock: a panicking
/// holder must not wedge the stack.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the bytes of every `write` call it receives.
    #[derive(Clone, Default)]
    struct Writes(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Regression: `writeln!` handed the line and its newline to the
    /// writer as two writes, so on a TCP link every event line left in
    /// two packets and the second waited out the peer's delayed ACK.
    #[test]
    fn each_line_is_one_write_ending_in_a_newline() {
        let writes = Writes::default();
        let out = output_from(writes.clone());
        send_line(&out, "{\"event\":\"accepted\",\"id\":\"job-1\"}");
        send_line(&out, "");
        assert_eq!(
            *lock(&writes.0),
            [
                b"{\"event\":\"accepted\",\"id\":\"job-1\"}\n".to_vec(),
                b"\n".to_vec()
            ]
        );
    }
}
