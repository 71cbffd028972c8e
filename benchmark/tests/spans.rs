//! Span recorder: parents, self time = duration − children, merging.

use std::time::Instant;

use cpma_benchmark::spans::{self_times, totals_by_name, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        calls: 1,
        parent,
        rep: 0,
        thread: 0,
    }
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let spans = vec![
        span("phase", 0, 100, None),
        span("call", 10, 30, Some(0)),
        span("call", 40, 90, Some(0)),
        span("inner", 50, 60, Some(2)),
    ];
    // phase: 100 − (20 + 50); second call: 50 − 10; leaves keep all.
    assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
}

#[test]
fn a_child_is_clipped_to_its_parent() {
    let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
    assert_eq!(self_times(&spans), vec![5, 10]);
}

#[test]
fn totals_group_by_name() {
    let spans = vec![
        span("phase", 0, 100, None),
        span("call", 10, 30, Some(0)),
        span("call", 40, 90, Some(0)),
    ];
    let t = totals_by_name(&spans);
    assert_eq!(
        (t["call"].count, t["call"].total_ns, t["call"].self_ns),
        (2, 70, 70)
    );
    assert_eq!(
        (t["phase"].count, t["phase"].total_ns, t["phase"].self_ns),
        (1, 100, 30)
    );
}

#[test]
fn tracer_nests_and_tags_repetitions() {
    let mut t = Tracer::new(true, Instant::now(), 0);
    t.set_rep(3);
    let outer = t.enter("outer");
    let v = t.call("inner", || 7);
    t.exit(outer);
    assert_eq!(v, 7);
    let s = t.spans();
    assert_eq!(s.len(), 2);
    assert_eq!((s[0].name, s[0].parent, s[0].rep), ("outer", None, 3));
    assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
    assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
}

#[test]
fn calls_past_the_cap_fold_into_one_aggregate_per_name() {
    use cpma_benchmark::spans::CHILD_CAP;
    let mut t = Tracer::new(true, Instant::now(), 0);
    let phase = t.enter("phase");
    for _ in 0..CHILD_CAP + 50 {
        t.call("hot", || ());
    }
    t.call("other", || ());
    t.exit(phase);
    let s = t.spans();
    // phase + CHILD_CAP individual calls + one aggregate per name
    assert_eq!(s.len(), 1 + CHILD_CAP + 2);
    let hot = &s[1 + CHILD_CAP];
    assert_eq!((hot.name, hot.calls, hot.parent), ("hot", 50, Some(0)));
    assert_eq!(s.last().map(|x| (x.name, x.calls)), Some(("other", 1)));
    let totals = totals_by_name(s);
    assert_eq!(totals["hot"].count, (CHILD_CAP + 50) as u64);
    // the aggregate's duration is the sum of its calls, so it still fits
    let selfs = self_times(s);
    assert!(selfs[0] <= s[0].duration_ns());
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut t = Tracer::disabled();
    let id = t.enter("x");
    assert_eq!(t.call("y", || 1), 1);
    t.exit(id);
    assert!(t.spans().is_empty());
}

#[test]
fn absorb_rebases_parent_links() {
    let epoch = Instant::now();
    let mut main = Tracer::new(true, epoch, 0);
    main.call("main", || ());
    let mut conn = main.fork(1);
    let outer = conn.enter("conn.outer");
    conn.call("conn.inner", || ());
    conn.exit(outer);
    main.absorb(conn);
    let s = main.spans();
    assert_eq!(s.len(), 3);
    assert_eq!((s[1].thread, s[1].parent), (1, None));
    assert_eq!(s[2].parent, Some(1));
}
