//! Process facts read from `/proc/self` (Linux).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Clock ticks per second of `/proc/self/stat` CPU times (USER_HZ, 100 on
/// every Linux ABI this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// User plus system CPU time the process has consumed, in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SECOND
}

/// What a [`Sampler`] saw.
pub struct Sampled {
    pub peak_threads: u64,
    /// Median resident set size over the samples, MiB.
    pub rss_mb: f64,
}

/// Samples the process's thread count and resident set size every 10 ms
/// until stopped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Sampled>,
}

impl Sampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut peak_threads = 0;
                let mut rss = crate::stats::Samples::default();
                loop {
                    peak_threads = peak_threads.max(status_field("Threads:").unwrap_or(0));
                    rss.push(status_field("VmRSS:").unwrap_or(0) as f64 / 1024.0);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Sampled {
                    peak_threads,
                    rss_mb: rss.median(),
                }
            })
        };
        Self { stop, handle }
    }

    pub fn finish(self) -> Sampled {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("process sampler")
    }
}
