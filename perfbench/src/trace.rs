//! Spans recorded from the benchmark's own side of each layer call.
//!
//! A span is `(name, start, end, parent, op)`: times are nanoseconds since
//! the measured window opened, `parent` indexes the enclosing span in the
//! same log, and `op` ties the spans of one request together. Logs are
//! preallocated before the window opens, so recording never allocates;
//! when a log is full further spans are counted as dropped, not stored.

use std::collections::BTreeMap;
use std::io::Write;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// Column header of [`SpanLog::write_tsv`] rows.
pub const TSV_HEADER: &str = "op\tname\tstart_ns\tend_ns\tparent";

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers (`op`, `client.submit`, ...).
    pub name: &'static str,
    /// Start, ns since the window opened.
    pub start_ns: u64,
    /// End, ns since the window opened.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to.
    pub op: u64,
}

/// A fixed-capacity span log.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    /// Reserves room for `capacity` spans up front.
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records a span and returns its index (or [`ROOT`] when full, so
    /// children of a dropped span become roots rather than dangling).
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the log as rows under [`TSV_HEADER`].
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Per span name: (count, total duration ns, total self time ns).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns.saturating_sub(s.start_ns);
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", 0, 100, ROOT),
            span("submit", 0, 10, 0),
            span("wait", 40, 100, 0),
            // Nested under wait, overlapping a sibling: counted once.
            span("recombine", 80, 100, 2),
            span("recombine", 90, 100, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 10, 40, 20, 10]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["op"], (1, 100, 30));
        assert_eq!(by["recombine"], (2, 30, 30));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span("op", 10, 20, ROOT), span("late", 15, 40, 0)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn full_log_counts_drops_and_writes_tsv() {
        let mut log = SpanLog::with_capacity(1);
        assert_eq!(log.push(span("op", 0, 5, ROOT)), 0);
        assert_eq!(log.push(span("op", 5, 9, ROOT)), ROOT);
        assert_eq!(log.dropped(), 1);
        let mut out = Vec::new();
        log.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "1\top\t0\t5\t-1\n");
    }
}
