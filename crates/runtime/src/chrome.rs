//! Chrome/Perfetto `trace_event` JSON export for a [`Trace`].
//!
//! [`Trace::to_chrome_json`] renders a merged trace in the [Trace Event
//! Format] consumed by `chrome://tracing` and `ui.perfetto.dev`: one named
//! track per thread (workers, then the checker and manager service
//! threads), a complete-event slice per task record (one task, or a
//! SPECCROSS chunk / DOMORE run of `count` tasks) and per
//! synchronization wait, instant markers for checkpoints, misspeculations,
//! degradations and injected faults, flow arrows for every
//! [`Event::Wake`] causality edge, and counter tracks for cumulative
//! progress plus (optionally) a final [`MetricsSummary`] sample. Timestamps
//! are microseconds with nanosecond fractions, as the format requires.
//!
//! The export is plain string assembly — like the JSONL writer in
//! [`crate::trace`] it needs no serialization dependency, and the output is
//! schema-checked against a real JSON parser in `tests/trace.rs`.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! # Example
//!
//! ```
//! use crossinvoc_runtime::trace::{Event, Trace, TraceSink};
//!
//! let mut sink = TraceSink::with_capacity(0, 8);
//! sink.emit_at(10, Event::TaskDispatch { epoch: 0, task: 0, count: 1 });
//! sink.emit_at(25, Event::TaskRetire { epoch: 0, task: 0, count: 1 });
//! let json = Trace::from_sinks([sink]).to_chrome_json(None);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsSummary;
use crate::trace::{Event, Trace, CHECKER_TID, MANAGER_TID};
use crate::ThreadId;

/// Microseconds with the nanosecond remainder as three decimals — the
/// format's `ts`/`dur` unit.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn display_name(tid: ThreadId) -> String {
    match tid {
        MANAGER_TID => "manager".to_string(),
        CHECKER_TID => "checker".to_string(),
        tid => format!("worker-{tid}"),
    }
}

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Writer {
            out: String::from("{\"traceEvents\":["),
            first: true,
        }
    }

    /// Starts one event object with the common fields; the caller appends
    /// extras (`dur`, `args`, …) and must call through [`Writer::close`].
    fn open(&mut self, name: &str, ph: char, tid: usize, ts_ns: u64) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        let _ = write!(
            self.out,
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{}",
            us(ts_ns)
        );
        &mut self.out
    }

    fn close(&mut self) {
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("],\"displayTimeUnit\":\"ns\"}");
        self.out
    }
}

impl Trace {
    /// Renders the trace as Chrome `trace_event` JSON (the
    /// `{"traceEvents": [...]}` object form), ready for
    /// `chrome://tracing` or `ui.perfetto.dev`.
    ///
    /// When `metrics` is given, its counters and wait-histogram quantiles
    /// are appended as a final counter sample at the end of the timeline.
    pub fn to_chrome_json(&self, metrics: Option<&MetricsSummary>) -> String {
        let records = self.records();
        let mut w = Writer::new();

        // Dense display tids: real thread ids can be the service-thread
        // sentinels (usize::MAX family), which JSON consumers reject.
        // Ascending sort puts workers first, then checker, then manager.
        let mut tids: Vec<ThreadId> = records.iter().map(|r| r.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let display: BTreeMap<ThreadId, usize> =
            tids.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for (&tid, &dt) in &display {
            w.open("thread_name", 'M', dt, 0)
                .push_str(&format!(",\"args\":{{\"name\":\"{}\"}}", display_name(tid)));
            w.close();
        }

        let mut open_task: BTreeMap<ThreadId, (u64, u32, u64)> = BTreeMap::new();
        let mut open_wait: BTreeMap<ThreadId, (u64, u32)> = BTreeMap::new();
        let mut last_ts: BTreeMap<ThreadId, u64> = BTreeMap::new();
        let mut retired = 0u64;
        let mut misspecs = 0u64;
        for (i, rec) in records.iter().enumerate() {
            let dt = display[&rec.tid];
            match rec.event {
                Event::TaskDispatch { epoch, task, .. } => {
                    open_task.insert(rec.tid, (rec.t_ns, epoch, task));
                }
                Event::TaskRetire { count, .. } => {
                    // One slice per record: a chunk or run spans its tasks,
                    // and names how many completed when not one.
                    if let Some((start, epoch, task)) = open_task.remove(&rec.tid) {
                        let tasks = if count == 1 {
                            String::new()
                        } else {
                            format!(",\"count\":{count}")
                        };
                        w.open("task", 'X', dt, start).push_str(&format!(
                            ",\"dur\":{},\"args\":{{\"epoch\":{epoch},\"task\":{task}{tasks}}}",
                            us(rec.t_ns.saturating_sub(start))
                        ));
                        w.close();
                    }
                    retired += u64::from(count);
                    w.open("retired", 'C', dt, rec.t_ns)
                        .push_str(&format!(",\"args\":{{\"tasks\":{retired}}}"));
                    w.close();
                }
                Event::BarrierEnter { epoch } => {
                    open_wait.insert(rec.tid, (rec.t_ns, epoch));
                }
                Event::BarrierLeave { wait_ns, .. } => {
                    if let Some((start, epoch)) = open_wait.remove(&rec.tid) {
                        w.open("wait", 'X', dt, start).push_str(&format!(
                            ",\"dur\":{},\"args\":{{\"epoch\":{epoch},\"wait_ns\":{wait_ns}}}",
                            us(rec.t_ns.saturating_sub(start))
                        ));
                        w.close();
                    }
                }
                Event::Wake { edge, src_tid, seq } => {
                    // Flow arrow from the releaser's latest preceding record
                    // to the resume point; skipped if the releaser has no
                    // record yet.
                    if let Some(&src_ts) = last_ts.get(&src_tid) {
                        let sdt = display[&src_tid];
                        w.open(edge.name(), 's', sdt, src_ts)
                            .push_str(&format!(",\"cat\":\"wake\",\"id\":{i}"));
                        w.close();
                        w.open(edge.name(), 'f', dt, rec.t_ns).push_str(&format!(
                            ",\"cat\":\"wake\",\"id\":{i},\"bp\":\"e\",\"args\":{{\"seq\":{seq}}}"
                        ));
                        w.close();
                    }
                }
                Event::Misspeculation { .. } => {
                    misspecs += 1;
                    w.open("misspeculation", 'i', dt, rec.t_ns)
                        .push_str(",\"s\":\"g\"");
                    w.close();
                    w.open("misspeculations", 'C', dt, rec.t_ns)
                        .push_str(&format!(",\"args\":{{\"count\":{misspecs}}}"));
                    w.close();
                }
                Event::Checkpoint { epoch } => {
                    w.open("checkpoint", 'i', dt, rec.t_ns)
                        .push_str(&format!(",\"s\":\"t\",\"args\":{{\"epoch\":{epoch}}}"));
                    w.close();
                }
                Event::Degradation { epoch } => {
                    w.open("degradation", 'i', dt, rec.t_ns)
                        .push_str(&format!(",\"s\":\"g\",\"args\":{{\"epoch\":{epoch}}}"));
                    w.close();
                }
                Event::FaultInjected { kind, epoch, task } => {
                    w.open("fault", 'i', dt, rec.t_ns).push_str(&format!(
                        ",\"s\":\"t\",\"args\":{{\"kind\":\"{kind}\",\"epoch\":{epoch},\"task\":{task}}}"
                    ));
                    w.close();
                }
                Event::CheckerSummary {
                    epoch,
                    skips,
                    comparisons,
                } => {
                    w.open("checker_summary", 'i', dt, rec.t_ns).push_str(&format!(
                        ",\"s\":\"t\",\"args\":{{\"epoch\":{epoch},\"skips\":{skips},\"comparisons\":{comparisons}}}"
                    ));
                    w.close();
                }
                Event::ScheduleCacheHit { epoch } => {
                    w.open("schedule_cache_hit", 'i', dt, rec.t_ns)
                        .push_str(&format!(",\"s\":\"t\",\"args\":{{\"epoch\":{epoch}}}"));
                    w.close();
                }
                Event::EpochBegin { .. } | Event::EpochEnd { .. } | Event::TaskAssign { .. } => {}
            }
            last_ts.insert(rec.tid, rec.t_ns);
        }

        if let Some(m) = metrics {
            let span = self.span_ns();
            w.open("totals", 'C', 0, span).push_str(&format!(
                ",\"args\":{{\"tasks\":{},\"epochs\":{},\"check_requests\":{},\"misspeculations\":{},\"checkpoints\":{},\"stalls\":{}}}",
                m.stats.tasks,
                m.stats.epochs,
                m.stats.check_requests,
                m.stats.misspeculations,
                m.stats.checkpoints,
                m.stats.stalls,
            ));
            w.close();
            for (name, h) in [
                ("barrier_wait_ns", &m.barrier_wait),
                ("stall_wait_ns", &m.stall_wait),
            ] {
                w.open(name, 'C', 0, span).push_str(&format!(
                    ",\"args\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                    h.quantile_upper_bound(0.50),
                    h.quantile_upper_bound(0.95),
                    h.quantile_upper_bound(0.99),
                    h.max_ns,
                ));
                w.close();
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceRecord, WakeEdge};

    fn sample() -> Trace {
        let rec = |t_ns, tid, event| TraceRecord { t_ns, tid, event };
        Trace::from_records(vec![
            rec(
                0,
                0,
                Event::TaskDispatch {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            ),
            rec(
                10,
                0,
                Event::TaskRetire {
                    epoch: 0,
                    task: 0,
                    count: 1,
                },
            ),
            rec(10, 0, Event::BarrierEnter { epoch: 0 }),
            rec(30, 1, Event::BarrierEnter { epoch: 0 }),
            rec(
                34,
                0,
                Event::BarrierLeave {
                    epoch: 0,
                    wait_ns: 24,
                },
            ),
            rec(
                34,
                0,
                Event::Wake {
                    edge: WakeEdge::Barrier,
                    src_tid: 1,
                    seq: 0,
                },
            ),
            rec(40, MANAGER_TID, Event::Checkpoint { epoch: 0 }),
        ])
    }

    #[test]
    fn export_has_tracks_slices_and_flows() {
        let json = sample().to_chrome_json(None);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("}"));
        // Thread metadata with sentinel tids remapped to dense ints.
        assert!(json.contains("\"name\":\"worker-0\""), "{json}");
        assert!(json.contains("\"name\":\"manager\""), "{json}");
        assert!(!json.contains(&MANAGER_TID.to_string()), "{json}");
        // Task and wait slices with µs timestamps.
        assert!(json.contains("\"name\":\"task\",\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"wait\",\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":0.010"), "{json}");
        // Flow pair for the wake edge.
        assert!(json.contains("\"name\":\"barrier\",\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"name\":\"barrier\",\"ph\":\"f\""), "{json}");
    }

    #[test]
    fn metrics_append_counter_samples() {
        let m = crate::metrics::Metrics::new();
        m.stats().add_task();
        m.record_barrier_wait(1000);
        let json = sample().to_chrome_json(Some(&m.snapshot()));
        assert!(json.contains("\"name\":\"totals\",\"ph\":\"C\""), "{json}");
        assert!(
            json.contains("\"name\":\"barrier_wait_ns\",\"ph\":\"C\""),
            "{json}"
        );
    }

    #[test]
    fn empty_trace_exports_an_empty_event_array() {
        let json = Trace::from_records(Vec::new()).to_chrome_json(None);
        assert_eq!(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}");
    }
}
