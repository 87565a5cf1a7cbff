//! Live daemon counters and the `STATS_OK` text rendering.
//!
//! Every counter is a relaxed atomic — the hot path pays one
//! `fetch_add` per event, and a `stats` request reads a consistent-
//! enough snapshot without stopping the world. The wire rendering is
//! `name value\n` lines (one counter per line), which old SDKs parse
//! leniently: unknown names are kept, unparsable lines are skipped.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counters accumulated over the daemon's lifetime.
#[derive(Debug, Default)]
pub struct Counters {
    /// Connections ever accepted.
    pub connections_total: AtomicU64,
    /// Frames successfully decoded as requests.
    pub requests_total: AtomicU64,
    /// `ANALYZE` requests admitted past framing (including ones later
    /// refused `Busy`).
    pub analyze_total: AtomicU64,
    /// `RESULT` frames written.
    pub results_total: AtomicU64,
    /// `BUSY` frames written (admission refusals).
    pub busy_total: AtomicU64,
    /// `ERROR` frames written.
    pub errors_total: AtomicU64,
    /// Connections torn down by a framing-level protocol defect.
    pub proto_errors_total: AtomicU64,
    /// Connections closed because a request frame was still incomplete
    /// at its deadline (150 `ServerConfig::poll_interval` ticks plus one
    /// second per declared MiB, counted from the frame's first byte):
    /// slow-drip senders.
    pub frames_reaped_total: AtomicU64,
    /// `ANALYZE` requests served by joining a concurrent in-flight
    /// analysis of the same (image, config).
    pub singleflight_shared: AtomicU64,
    /// (image, config) pairs actually computed by this daemon.
    pub images_analyzed: AtomicU64,
    /// `RESULT` frames whose payload was served from the cached
    /// pre-encoded reply bytes (no per-request re-serialization).
    pub reply_bytes_hits: AtomicU64,
    /// Cache hits the disk layer (rather than memory) served.
    pub disk_hits: AtomicU64,
    /// Wall nanoseconds spent in the parse stage.
    pub parse_ns_total: AtomicU64,
    /// Wall nanoseconds spent in the linear sweep stage.
    pub sweep_ns_total: AtomicU64,
    /// Wall nanoseconds spent in the analyze stage.
    pub analyze_ns_total: AtomicU64,
    /// Request bytes read off sockets (frames, including prefixes).
    pub bytes_in_total: AtomicU64,
    /// Response bytes written to sockets (frames, including prefixes).
    pub bytes_out_total: AtomicU64,
}

/// Point-in-time gauges sampled when rendering a `stats` reply; the
/// server fills this from its caches and admission gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Microseconds since the daemon started.
    pub uptime_us: u64,
    /// Result-cache hits (memory layer, lifetime).
    pub cache_hits: u64,
    /// Result-cache misses (memory layer, lifetime).
    pub cache_misses: u64,
    /// Entries resident in the in-memory result cache.
    pub cache_entries: u64,
    /// Handler connections currently open.
    pub connections_open: u64,
    /// Analyses blocked waiting for an analyze slot.
    pub queue_depth: u64,
    /// Analyses running right now.
    pub running: u64,
    /// Configured concurrent analyze slots.
    pub analyze_slots: u64,
    /// Estimated request bytes currently admitted.
    pub inflight_bytes: u64,
    /// High-water mark of the in-flight byte estimate.
    pub peak_inflight_bytes: u64,
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Relaxed increment helper for the hot path.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed add helper for byte and nanosecond totals.
    pub fn add(counter: &AtomicU64, amount: u64) {
        counter.fetch_add(amount, Ordering::Relaxed);
    }

    /// Renders the `STATS_OK` body: one `name value` line per counter,
    /// in the order documented by `DESIGN.md` §5.
    pub fn render(&self, g: &Gauges) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut s = String::with_capacity(640);
        let mut line = |name: &str, value: u64| {
            s.push_str(name);
            s.push(' ');
            s.push_str(&value.to_string());
            s.push('\n');
        };
        line("proto_version", u64::from(funseeker_client::proto::VERSION));
        line("uptime_us", g.uptime_us);
        line("connections_total", c(&self.connections_total));
        line("connections_open", g.connections_open);
        line("requests_total", c(&self.requests_total));
        line("analyze_total", c(&self.analyze_total));
        line("results_total", c(&self.results_total));
        line("busy_total", c(&self.busy_total));
        line("errors_total", c(&self.errors_total));
        line("proto_errors_total", c(&self.proto_errors_total));
        line("frames_reaped_total", c(&self.frames_reaped_total));
        line("cache_hits", g.cache_hits);
        line("cache_misses", g.cache_misses);
        line("cache_entries", g.cache_entries);
        line("disk_hits", c(&self.disk_hits));
        line("singleflight_shared", c(&self.singleflight_shared));
        line("images_analyzed", c(&self.images_analyzed));
        line("reply_bytes_hits", c(&self.reply_bytes_hits));
        line("queue_depth", g.queue_depth);
        line("running", g.running);
        line("analyze_slots", g.analyze_slots);
        line("inflight_bytes", g.inflight_bytes);
        line("peak_inflight_bytes", g.peak_inflight_bytes);
        line("parse_ns_total", c(&self.parse_ns_total));
        line("sweep_ns_total", c(&self.sweep_ns_total));
        line("analyze_ns_total", c(&self.analyze_ns_total));
        line("bytes_in_total", c(&self.bytes_in_total));
        line("bytes_out_total", c(&self.bytes_out_total));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funseeker_client::ServerStats;

    #[test]
    fn render_parses_back_through_the_sdk() {
        let counters = Counters::new();
        Counters::bump(&counters.requests_total);
        Counters::bump(&counters.requests_total);
        Counters::add(&counters.bytes_in_total, 12345);
        let gauges =
            Gauges { cache_hits: 3, cache_misses: 1, analyze_slots: 2, ..Gauges::default() };
        let text = counters.render(&gauges);
        let stats = ServerStats::parse(&text);
        assert_eq!(stats.get("requests_total"), Some(2));
        assert_eq!(stats.get("bytes_in_total"), Some(12345));
        assert_eq!(stats.get("cache_hits"), Some(3));
        assert_eq!(stats.get("analyze_slots"), Some(2));
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
        // Every line is a well-formed `name value` pair.
        assert_eq!(stats.iter().count(), text.lines().count());
    }
}
