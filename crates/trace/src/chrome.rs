//! Chrome `chrome://tracing` / Perfetto trace-event JSON exporter.
//!
//! Emits the JSON object form (`{"traceEvents": [...]}`) of the
//! [trace-event format]. Each instrumented component becomes a named
//! thread (`"M"` metadata events); duration kinds become complete
//! (`"X"`) events, counter samples become `"C"` events, and everything
//! else becomes instant (`"i"`) events. Output is fully deterministic —
//! components in id order, events in ring order, no timestamps or ids
//! taken from the host — so identical runs produce byte-identical files
//! regardless of how many runner workers were active.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::ring::{unpack_dur_extra, TraceEvent};
use crate::Tracer;

/// Renders the tracer's rings as Chrome trace-event JSON.
pub fn export(tracer: &Tracer) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (id, name) in tracer.components().iter().enumerate() {
        let tid = id as u32;
        push_event(&mut out, &mut first, &meta_thread_name(tid, name));
        let ring = tracer.ring(crate::ComponentId(tid));
        for ev in ring.events() {
            push_event(&mut out, &mut first, &render(ev));
        }
        if ring.dropped() > 0 {
            // Surface truncation in the trace itself: a viewer that sees
            // this instant knows the ring overflowed at that point.
            let last_cycle = ring.events().last().map_or(0, |e| e.cycle);
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"ring_overflow\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
                     \"tid\":{tid},\"ts\":{last_cycle},\"args\":{{\"dropped\":{}}}}}",
                    ring.dropped()
                ),
            );
        }
    }
    out.push_str("]}");
    out
}

fn push_event(out: &mut String, first: &mut bool, ev: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(ev);
}

fn meta_thread_name(tid: u32, name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    )
}

fn render(ev: &TraceEvent) -> String {
    let name = ev.kind.name();
    let tid = ev.component;
    let ts = ev.cycle;
    if ev.kind.is_duration() {
        let (dur, extra) = unpack_dur_extra(ev.payload);
        // Zero-length "X" events render invisibly; clamp to 1 cycle.
        let dur = dur.max(1);
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
             \"ts\":{ts},\"dur\":{dur},\"args\":{{\"extra\":{extra}}}}}"
        )
    } else if ev.kind.is_counter_sample() {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\
             \"ts\":{ts},\"args\":{{\"value\":{}}}}}",
            ev.payload
        )
    } else {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\
             \"ts\":{ts},\"args\":{{\"payload\":{}}}}}",
            ev.payload
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{pack_dur_extra, EventKind};
    use crate::{TraceConfig, Tracer};

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::new(TraceConfig {
            ring_capacity: 4,
            sample_period: 64,
        });
        let tmu = t.component("system.core0.tmu");
        let l1 = t.component("system.core0.l1");
        t.event(tmu, 10, EventKind::TuFetch, pack_dur_extra(25, 0x0100));
        t.event(tmu, 40, EventKind::OutQOccupancy, 3);
        t.event(l1, 12, EventKind::CacheMiss, 0x40);
        t
    }

    #[test]
    fn export_shapes_each_phase_correctly() {
        let json = export(&sample_tracer());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Metadata names both components.
        assert!(json.contains("\"args\":{\"name\":\"system.core0.tmu\"}"));
        assert!(json.contains("\"args\":{\"name\":\"system.core0.l1\"}"));
        // Duration event carries ts + dur, counter carries args.value.
        assert!(json.contains(
            "{\"name\":\"tu_fetch\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
             \"ts\":10,\"dur\":25,\"args\":{\"extra\":256}}"
        ));
        assert!(json.contains(
            "{\"name\":\"outq_occupancy\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\
             \"ts\":40,\"args\":{\"value\":3}}"
        ));
        assert!(json.contains("\"name\":\"cache_miss\",\"ph\":\"i\""));
    }

    #[test]
    fn overflow_is_visible_in_the_trace() {
        let mut t = sample_tracer();
        let tmu = t.component("system.core0.tmu");
        for i in 0..10 {
            t.event(tmu, 100 + i, EventKind::OutQPush, i);
        }
        let json = export(&t);
        assert!(json.contains("\"name\":\"ring_overflow\""));
        assert!(json.contains("\"dropped\":8"));
    }

    #[test]
    fn export_is_deterministic() {
        let a = export(&sample_tracer());
        let b = export(&sample_tracer());
        assert_eq!(a, b);
    }
}
