//! Prometheus text exposition format (version 0.0.4) rendering helpers.
//!
//! The server declares each `/metrics` series once, in one list, and
//! walks that list twice: into its JSON builder and into this writer for
//! `/metrics?format=prometheus`. Both renderings therefore come from the
//! same declarations and the same snapshot.
//!
//! Layout rules implemented here (the subset the format mandates):
//!
//! * every family is announced once with `# HELP` then `# TYPE`;
//! * label values escape `\`, `"`, and newline; `# HELP` text escapes
//!   `\` and newline;
//! * histograms render **cumulative** `_bucket` series with `le` labels,
//!   a final `le="+Inf"` bucket, a `_count` equal to the `+Inf` bucket,
//!   and `_sum` when the producer tracks one.

/// The content type a Prometheus scraper expects.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Append `text` escaped: `\` → `\\` and newline → `\n` always (`# HELP`
/// text), plus `"` → `\"` when `quote` (label values).
fn push_escaped(out: &mut String, text: &str, quote: bool) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' if quote => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// An in-progress text exposition.
#[derive(Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Announce a family: `# HELP` then `# TYPE`. Call once per family,
    /// before its samples. `kind` is `counter`, `gauge`, or `histogram`.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        push_escaped(&mut self.out, help, false);
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// One sample line: `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.push_sample(name, "", labels, None, value);
        self.out.push('\n');
    }

    /// Cumulative histogram samples for one label set: `_bucket` lines
    /// (bounds then `+Inf`), `_count`, and `_sum` when tracked.
    /// `counts` are per-bucket (non-cumulative), one per bound plus the
    /// final unbounded bucket — the layout the JSON form uses.
    ///
    /// `exemplars` is empty or holds one optional latency exemplar per
    /// bucket: `exemplars[i]`, when present, annotates bucket `i`'s line
    /// OpenMetrics-style — `… 7 # {trace_id="abc"} 1234` — linking the
    /// bucket to the trace of its slowest recent occupant (the exemplar
    /// value is that occupant's duration in µs). Scrapers that predate
    /// exemplars treat everything after `#` as a comment, so the lines
    /// stay parseable either way.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
        counts: &[u64],
        sum: Option<u64>,
        exemplars: &[Option<(String, u64)>],
    ) {
        debug_assert_eq!(counts.len(), bounds.len() + 1);
        debug_assert!(exemplars.is_empty() || exemplars.len() == counts.len());
        let mut cumulative = 0u64;
        let mut le = String::new();
        for (i, &count) in counts.iter().enumerate() {
            cumulative += count;
            le.clear();
            match bounds.get(i) {
                Some(b) => push_u64(&mut le, *b),
                None => le.push_str("+Inf"),
            }
            self.push_sample(name, "_bucket", labels, Some(("le", &le)), cumulative);
            if let Some(Some((trace, dur_us))) = exemplars.get(i) {
                self.out.push_str(" # {trace_id=\"");
                push_escaped(&mut self.out, trace, true);
                self.out.push_str("\"} ");
                push_u64(&mut self.out, *dur_us);
            }
            self.out.push('\n');
        }
        if let Some(sum) = sum {
            self.push_sample(name, "_sum", labels, None, sum);
            self.out.push('\n');
        }
        self.push_sample(name, "_count", labels, None, cumulative);
        self.out.push('\n');
    }

    /// `name` + `suffix`, the label set (plus `extra`), and the value,
    /// without the line end.
    fn push_sample(
        &mut self,
        name: &str,
        suffix: &str,
        labels: &[(&str, &str)],
        extra: Option<(&str, &str)>,
        value: u64,
    ) {
        self.out.push_str(name);
        self.out.push_str(suffix);
        let total = labels.len() + usize::from(extra.is_some());
        if total > 0 {
            self.out.push('{');
            let mut first = true;
            for (k, v) in labels.iter().copied().chain(extra) {
                if !first {
                    self.out.push(',');
                }
                first = false;
                debug_assert!(valid_label_name(k), "bad label name {k}");
                self.out.push_str(k);
                self.out.push_str("=\"");
                push_escaped(&mut self.out, v, true);
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        push_u64(&mut self.out, value);
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.out
    }
}

fn push_u64(out: &mut String, value: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{value}");
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
        && !name.as_bytes()[0].is_ascii_digit()
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
        && !name.as_bytes()[0].is_ascii_digit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_and_help_escaping() {
        let escape = |quote| {
            let mut out = String::new();
            push_escaped(&mut out, "a\\b\"c\nd", quote);
            out
        };
        assert_eq!(escape(true), "a\\\\b\\\"c\\nd");
        assert_eq!(escape(false), "a\\\\b\"c\\nd");
    }

    #[test]
    fn families_samples_and_labels_render() {
        let mut w = PromText::new();
        w.family(
            "routes_requests_total",
            "counter",
            "Total \"requests\".\nSecond line.",
        );
        w.sample("routes_requests_total", &[], 42);
        w.family("routes_shard_hits_total", "counter", "Per-shard hits.");
        w.sample(
            "routes_shard_hits_total",
            &[("shard", "0"), ("mode", "a\"b")],
            7,
        );
        let text = w.finish();
        assert_eq!(
            text,
            "# HELP routes_requests_total Total \"requests\".\\nSecond line.\n\
             # TYPE routes_requests_total counter\n\
             routes_requests_total 42\n\
             # HELP routes_shard_hits_total Per-shard hits.\n\
             # TYPE routes_shard_hits_total counter\n\
             routes_shard_hits_total{shard=\"0\",mode=\"a\\\"b\"} 7\n"
        );
    }

    #[test]
    fn exemplar_trace_ids_are_escaped_on_bucket_lines() {
        let mut w = PromText::new();
        w.family("routes_lat_us", "histogram", "Latency.");
        // A hostile "trace id" with every escapable character; real ids
        // are [A-Za-z0-9._-] but the renderer must not rely on that.
        w.histogram(
            "routes_lat_us",
            &[],
            &[100],
            &[2, 1],
            None,
            &[Some(("a\"b\\c\nd".to_owned(), 42)), None],
        );
        let text = w.finish();
        assert!(
            text.contains(
                "routes_lat_us_bucket{le=\"100\"} 2 # {trace_id=\"a\\\"b\\\\c\\nd\"} 42\n"
            ),
            "exemplar escaped: {text}"
        );
        assert!(
            text.contains("routes_lat_us_bucket{le=\"+Inf\"} 3\n"),
            "bucket without exemplar has no annotation: {text}"
        );
        assert!(text.contains("routes_lat_us_count 3\n"));
    }

    #[test]
    fn histograms_render_cumulative_buckets_count_and_sum() {
        let mut w = PromText::new();
        w.family("routes_lat_us", "histogram", "Latency.");
        w.histogram(
            "routes_lat_us",
            &[("phase", "chase")],
            &[100, 500],
            &[3, 2, 1],
            Some(900),
            &[],
        );
        let text = w.finish();
        assert_eq!(
            text,
            "# HELP routes_lat_us Latency.\n\
             # TYPE routes_lat_us histogram\n\
             routes_lat_us_bucket{phase=\"chase\",le=\"100\"} 3\n\
             routes_lat_us_bucket{phase=\"chase\",le=\"500\"} 5\n\
             routes_lat_us_bucket{phase=\"chase\",le=\"+Inf\"} 6\n\
             routes_lat_us_sum{phase=\"chase\"} 900\n\
             routes_lat_us_count{phase=\"chase\"} 6\n"
        );
    }
}
