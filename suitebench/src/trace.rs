//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a category (the layer), a start, an end and the
//! span that caused it. Spans stay in memory while tracing is on and are
//! written out once, at the end, as Chrome trace-event JSON. With tracing
//! off, [`Tracer::span`] calls its closure and reads no clock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use dpf_suite::Json;

/// One recorded span. Id 0 means "no parent".
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u64,
    /// The span that caused this one (0 = a root).
    pub parent: u64,
    /// What ran, e.g. the benchmark or primitive name.
    pub name: String,
    /// The layer, e.g. `harness`, `runner`, `probe`.
    pub cat: &'static str,
    /// Small per-thread number.
    pub tid: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// The process-wide span recorder.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The process-wide tracer (off until [`Tracer::set_enabled`]).
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

impl Tracer {
    /// Turn recording on or off. Spans already open keep their state.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Run `f` inside a span named `name` in layer `cat`, caused by
    /// `parent`. `f` receives the span's id (0 when tracing is off) so
    /// it can parent the spans it causes.
    pub fn span<R>(
        &self,
        cat: &'static str,
        name: &str,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled.load(Ordering::SeqCst) {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            cat,
            tid: TID.with(|t| *t),
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        r
    }

    /// Remove and return every recorded span, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span list poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Spans as a Chrome trace-event document (`"X"` complete events, times
/// in microseconds), loadable in any trace viewer.
pub fn chrome_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".to_string(), Json::str(&s.name)),
                ("cat".to_string(), Json::str(s.cat)),
                ("ph".to_string(), Json::str("X")),
                ("ts".to_string(), Json::F64(s.start_ns as f64 / 1e3)),
                ("dur".to_string(), Json::F64(s.dur_ns as f64 / 1e3)),
                ("pid".to_string(), Json::U64(1)),
                ("tid".to_string(), Json::U64(s.tid)),
                (
                    "args".to_string(),
                    Json::Obj(vec![
                        ("id".to_string(), Json::U64(s.id)),
                        ("parent".to_string(), Json::U64(s.parent)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::str("ms")),
    ])
}
