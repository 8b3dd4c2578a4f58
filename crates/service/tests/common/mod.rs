//! Helpers shared by the integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty directory under the system temp dir that no other
/// call shares: the process id keeps concurrent test binaries apart,
/// the counter keeps parallel test threads — and repeated calls with
/// the same `name` — apart.
pub fn unique_dir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dmp-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The value of one exposition series (exact full name incl. labels).
#[allow(dead_code)] // only the tests that scrape `/metrics` call it
pub fn series(text: &str, name: &str) -> f64 {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(v) = rest.strip_prefix(' ') {
                return v
                    .parse()
                    .unwrap_or_else(|_| panic!("bad value in {line:?}"));
            }
        }
    }
    0.0 // series not yet registered = zero observations
}
