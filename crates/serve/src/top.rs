//! Renderer for the `dpml top` live dashboard.
//!
//! Pure text generation over [`WatchFrame`]s — the CLI owns the
//! terminal (clear-and-redraw with plain ANSI escapes); this module owns
//! what a frame looks like, so the dashboard is testable without a TTY
//! or a daemon. Metrics are named only by their catalogue symbol.

use crate::protocol::WatchFrame;
use crate::telemetry::Metric;

/// Frames of events/s history the dashboard keeps for its sparkline.
pub const SPARK_WIDTH: usize = 32;

/// Unicode block sparkline of `values` scaled to the series' own max.
/// Empty input renders as an empty string; an all-zero series renders
/// as all-minimum blocks.
fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BLOCKS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                BLOCKS[idx.min(7)]
            }
        })
        .collect()
}

/// Human-scale a rate: `1234567.0` → `"1.2M"`.
fn fmt_rate(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Stateful dashboard: accumulates the events/s history and renders one
/// screen per frame.
#[derive(Debug, Default)]
pub struct Dashboard {
    events_history: Vec<f64>,
}

impl Dashboard {
    /// Ingest one frame and render the full screen for it (no terminal
    /// escapes — the caller clears and homes the cursor).
    pub fn render(&mut self, addr: &str, frame: &WatchFrame) -> String {
        use Metric::*;
        let c = |m: Metric| frame.stats.counter(m).unwrap_or(0);
        let r = |m: Metric| frame.rates.per_sec(m).unwrap_or(0.0);
        self.events_history.push(r(EngineEvents));
        let overflow = self.events_history.len().saturating_sub(SPARK_WIDTH);
        self.events_history.drain(..overflow);

        let (hit, miss) = (r(CacheHit), r(CacheMiss));
        let hit_rate = 100.0 * hit / (hit + miss).max(f64::MIN_POSITIVE);
        let (seq, window) = (frame.seq, frame.rates.dt_ms);
        let draining = if c(Draining) > 0 { "   [DRAINING]" } else { "" };
        let (queued, running, retrying) = (c(QueueDepth), c(Running), c(Retrying));
        let mut out = format!(
            "dpml top — {addr}   frame #{seq}   window {window} ms{draining}\n\
             queue {queued:>4}   running {running:>3}   retrying {retrying:>3}   in-flight {:>4}\n\
             req/s {:>8}   done/s {:>8}   shed/s {:>7}   cache hit {hit_rate:>5.1}%\n\
             sheds {:>6}   retries {:>5}   panics/respawns {:>4}   cache hits {:>6}\n",
            queued + running + retrying,
            fmt_rate(r(Submitted)),
            fmt_rate(r(CompletedOk)),
            fmt_rate(r(Shed)),
            c(Shed),
            c(Retried),
            c(WorkerPanic),
            c(CacheHit),
        );
        if let Some(w) = frame.rates.window(JobMs) {
            let (p50, p99, n) = (w.p50, w.p99, w.count);
            out += &format!("job ms (window) p50 {p50:>6} p99 {p99:>6}   ({n} samples)\n");
        }
        if let Some(h) = frame.stats.histogram(JobMs) {
            let (p50, p99, mean) = (h.p50, h.p99, h.mean);
            out += &format!("job ms (total)  p50 {p50:>6} p99 {p99:>6}   mean {mean:>8.1}\n");
        }
        out + &format!(
            "journal {:>8}B  ckpts {:>5}   resumes {:>3}   compactions {:>3}   torn tails {:>2}\n\
             events/s {:>8}  {}\n",
            c(JournalBytes),
            c(CheckpointsWritten),
            c(Resumes),
            c(JournalCompactions),
            c(JournalTornTail),
            fmt_rate(r(EngineEvents)),
            sparkline(&self.events_history),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Metrics;
    use dpml_shm::metrics::{rates_between, TimedSnapshot};

    fn frame() -> WatchFrame {
        use Metric::*;
        let m = Metrics::default();
        let older = TimedSnapshot {
            t_ms: 500,
            snap: m.snapshot(),
        };
        let levels = [
            (QueueDepth, 2),
            (Running, 1),
            (Shed, 5),
            (Retried, 1),
            (JournalBytes, 4096),
            (Resumes, 2),
            (EngineEvents, 500_000),
            (Submitted, 6),
        ];
        levels.into_iter().for_each(|(metric, v)| m.set(metric, v));
        let newer = TimedSnapshot {
            t_ms: 1_000,
            snap: m.snapshot(),
        };
        WatchFrame {
            seq: 3,
            t_ms: newer.t_ms,
            rates: rates_between(&older, &newer),
            stats: newer.snap,
        }
    }

    #[test]
    fn sparkline_scales_to_series_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }

    #[test]
    fn rates_are_humanized() {
        assert_eq!(fmt_rate(3.0), "3.0");
        assert_eq!(fmt_rate(1_500.0), "1.5k");
        assert_eq!(fmt_rate(2_000_000.0), "2.0M");
    }

    #[test]
    fn render_includes_gauges_rates_and_sparkline() {
        let mut dash = Dashboard::default();
        let text = dash.render("127.0.0.1:4077", &frame());
        assert!(text.contains("frame #3"));
        assert!(text.contains("queue    2"));
        assert!(text.contains("req/s"));
        assert!(text.contains("12.0"));
        assert!(text.contains("1.0M"));
        assert!(text.contains("sheds      5"));
        assert!(text.contains("journal     4096B"));
        assert!(text.contains("resumes   2"));
        assert!(text.contains('█') || text.contains('▁'));
    }

    #[test]
    fn sparkline_history_is_bounded() {
        let mut dash = Dashboard::default();
        for _ in 0..(SPARK_WIDTH + 10) {
            dash.render("a", &frame());
        }
        assert_eq!(dash.events_history.len(), SPARK_WIDTH);
    }
}
