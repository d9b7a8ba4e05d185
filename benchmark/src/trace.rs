//! Writing the traced run's raw spans as chrome-trace JSON
//! (`chrome://tracing`, Perfetto): one process per row or cluster of the
//! workload, one track per replica; each span's `args` name the span
//! that caused it and the proposal it was about.

use crate::probe::Span;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// For each span, the index of the span that caused it: the tightest
/// span of the same replica that encloses it in time.  A handler's span
/// is recorded when the handler returns, after the calls it made, and a
/// replica's handlers never overlap, so enclosure is causation.
pub fn parents(spans: &[Span]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // By replica, then start; the longer span first on a tie, so that an
    // enclosing span is met before what it encloses.
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.replica, s.start_ns, std::cmp::Reverse(s.dur_ns))
    });
    let mut parent = vec![None; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let s = &spans[i];
        while let Some(&top) = open.last() {
            let t = &spans[top];
            if t.replica == s.replica && s.start_ns + s.dur_ns <= t.start_ns + t.dur_ns {
                break;
            }
            open.pop();
        }
        parent[i] = open.last().copied();
        open.push(i);
    }
    parent
}

/// Writes the spans of every part (label, spans) of a traced execution.
/// Returns how many spans were written.
pub fn write_chrome_trace(path: &Path, parts: &[(&str, &[Span])]) -> io::Result<usize> {
    let mut out = String::from("{\"traceEvents\":[");
    let mut written = 0usize;
    for (pid, (label, spans)) in parts.iter().enumerate() {
        if written > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{label}\"}}}}"
        )
        .expect("writing to a string");
        let parent = parents(spans);
        for (i, s) in spans.iter().enumerate() {
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"proposal\":\"{:016x}\"}}}}",
                s.call.name(),
                s.replica,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                parent[i].map_or(-1, |p| p as i64),
                s.proposal
            )
            .expect("writing to a string");
        }
        written += spans.len() + 1;
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)?;
    Ok(written - parts.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Call;

    #[test]
    fn a_span_is_caused_by_the_tightest_span_around_it() {
        let span = |call, replica, start_ns, dur_ns| Span {
            call,
            replica,
            start_ns,
            dur_ns,
            proposal: 0,
        };
        // Recorded at exit: children first.
        let spans = [
            span(Call::CsMessage, 0, 110, 20),
            span(Call::MpProposal, 0, 140, 30),
            span(Call::NodeMessage, 0, 100, 100),
            span(Call::NodeMessage, 1, 120, 10),
            span(Call::NodeTimer, 0, 300, 5),
        ];
        assert_eq!(parents(&spans), vec![Some(2), Some(2), None, None, None]);
    }
}
