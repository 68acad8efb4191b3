//! The benchmark's own span records for traced runs: name, start, end, parent and
//! a job or step tag for every timed call, kept in memory and written out at the
//! end together with the spans the program emits under `FETI_TRACE`.

use crate::gen::Workload;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    tag: String,
    start_us: f64,
    end_us: f64,
    source: &'static str,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Turns recording on or off (off: [`span`] costs one atomic load).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; closed and recorded on drop.
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    name: String,
    tag: String,
    start_us: f64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_us = feti_trace::now_us();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        spans().push(Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            tag: std::mem::take(&mut self.tag),
            start_us: self.start_us,
            end_us,
            source: "bench",
        });
    }
}

/// Opens a span named `name` tagged with a job or step id; its parent is the
/// innermost span open on this thread.
pub fn span(name: &str, tag: impl std::fmt::Display) -> Option<Guard> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Some(Guard {
        id,
        parent,
        name: name.to_string(),
        tag: tag.to_string(),
        start_us: feti_trace::now_us(),
    })
}

/// Moves the spans the program recorded under `FETI_TRACE` into the record, tagged
/// with the thread they ran on.  Returns the drained report for its counters.
pub fn merge_program_spans() -> feti_trace::TraceReport {
    let mut report = feti_trace::take_report();
    let mut all = spans();
    for s in report.spans.drain(..) {
        all.push(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: None,
            name: s.name,
            tag: s.thread,
            start_us: s.start_us,
            end_us: s.start_us + s.dur_us,
            source: "program",
        });
    }
    report
}

/// Writes every recorded span as JSON to `path` and returns how many there were.
pub fn write(path: &std::path::Path) -> std::io::Result<usize> {
    let all = spans();
    let mut out = String::from("{\"spans\": [\n");
    for (i, s) in all.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}  {{\"id\": {}, \"parent\": {parent}, \"name\": {:?}, \"tag\": {:?}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"source\": \"{}\"}}",
            if i == 0 { "" } else { ",\n" },
            s.id,
            s.name,
            s.tag,
            s.start_us,
            s.end_us,
            s.source
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)?;
    Ok(all.len())
}

/// Writes the traced run's spans under the build directory.
pub fn finish(workload: Workload, seed: u64) {
    let _ = merge_program_spans();
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench")
        .join(format!("spans-{}-seed{seed}.json", workload.name()));
    match write(&path) {
        Ok(n) => println!("spans {n} written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}
