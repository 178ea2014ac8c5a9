//! The benchmark's own arithmetic: the percentile sample rule, span self
//! time, and the correctness checkers rejecting a one-unit corruption.

use counterlab::benchmark::Benchmark;
use counterlab::grid::Grid;
use ctrbench::check::{digest_records, first_difference};
use ctrbench::stats::{
    beyond, interquartile_mean, median, percentile, rank, windowed, Reservoir, MIN_BEYOND,
};
use ctrbench::trace::{self_times, Span, Tracer, NONE};

#[test]
fn p99_needs_ten_samples_beyond_it() {
    // 99% of 1000 is exactly the 990th sample; 10 lie beyond it.
    assert_eq!(rank(1000, 99.0), 989);
    assert_eq!(beyond(1000, 99.0), MIN_BEYOND);
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&thousand, 99.0), Some(990.0));
    // One sample fewer leaves only 9 beyond: no p99.
    assert_eq!(beyond(999, 99.0), 9);
    assert_eq!(percentile(&thousand[..999], 99.0), None);
    // The median needs no tail.
    assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
    assert_eq!(percentile(&thousand, 50.0), Some(500.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn windowed_percentile_is_the_middle_half_mean_of_window_values_and_keeps_the_rule() {
    let mut windows: Vec<Vec<f64>> = (0..3)
        .map(|w| {
            (1..=1000)
                .rev()
                .map(|x| f64::from(x) + f64::from(w) * 1000.0)
                .collect()
        })
        .collect();
    // Window p99s are 990, 1990 and 2990; their middle-half mean is 1990.
    assert_eq!(windowed(&mut windows, 99.0), Some(1990.0));
    // Window p99s 10, 20, 30, 31 and 1000: the middle half is 20, 30 and
    // 31, so one burst window does not count and the result is 27.
    let mut flat: Vec<Vec<f64>> = [10.0, 20.0, 30.0, 31.0, 1000.0]
        .iter()
        .map(|&v| vec![v; 1000])
        .collect();
    assert_eq!(windowed(&mut flat, 99.0), Some(27.0));
    windows[1].truncate(500);
    assert_eq!(
        windowed(&mut windows, 99.0),
        None,
        "a thin window must not report p99"
    );
    assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    // The middle half of 1..=8 is 3..=6; an outlier does not move it.
    assert_eq!(
        interquartile_mean(&mut [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]),
        4.5
    );
    assert_eq!(
        interquartile_mean(&mut [1e9, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]),
        4.5
    );
    assert_eq!(interquartile_mean(&mut [5.0]), 5.0);
}

#[test]
fn reservoir_keeps_exact_samples_in_bounded_memory() {
    let mut r = Reservoir::new(100, 1);
    for x in 0..10_000 {
        r.push(f64::from(x));
    }
    assert_eq!(r.seen(), 10_000);
    let kept = r.into_samples();
    assert_eq!(kept.len(), 100);
    assert!(kept
        .iter()
        .all(|x| x.fract() == 0.0 && (0.0..10_000.0).contains(x)));
    // A uniform sample of 0..10000 has its median near 5000.
    let m = median(&mut kept.clone());
    assert!((3000.0..7000.0).contains(&m), "median {m}");
}

fn span(start: u64, end: u64, parent: u32) -> Span {
    Span {
        name: "t",
        start,
        end,
        parent,
        req: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = vec![
        span(0, 100, NONE), // 0: root
        span(10, 30, 0),    // 1: child
        span(20, 50, 0),    // 2: child overlapping 1 (parallel workers)
        span(90, 120, 0),   // 3: child running past the root's end
        span(12, 18, 1),    // 4: grandchild, inside 1
        span(200, 210, NONE),
    ];
    let t = self_times(&spans);
    // Root: children cover [10,50] and [90,100] = 50 of 100.
    assert_eq!(t[0], 50);
    // Child 1 loses only its own child's 6; the root is not charged twice.
    assert_eq!(t[1], 14);
    assert_eq!(t[2], 30);
    assert_eq!(t[3], 30);
    assert_eq!(t[4], 6);
    assert_eq!(t[5], 10);
}

#[test]
fn absorbed_spans_keep_their_tree() {
    let epoch = std::time::Instant::now();
    let mut main = Tracer::new(epoch);
    let pass = main.push(span(0, 100, NONE));
    let mut worker = Tracer::new(epoch);
    let item = worker.push(span(10, 60, NONE));
    worker.push(span(20, 30, item));
    main.absorb(worker, pass);
    let s = main.spans();
    assert_eq!(s[1].parent, pass);
    assert_eq!(s[2].parent, 1);
    assert_eq!(self_times(s), vec![50, 40, 10]);
}

#[test]
fn a_tracer_that_is_off_records_nothing() {
    let mut off = Tracer::off(std::time::Instant::now());
    let id = off.open("exec.pass", NONE, 0);
    assert_eq!(id, NONE);
    off.close(id);
    assert_eq!(off.push(span(0, 10, NONE)), NONE);
    let mut worker = off.child();
    worker.open("exec.item", NONE, 0);
    assert!(worker.spans().is_empty());
    off.absorb(worker, NONE);
    assert!(off.spans().is_empty());
    // A child of a tracer that is on records.
    let on = Tracer::new(std::time::Instant::now());
    let mut worker = on.child();
    worker.open("exec.item", NONE, 0);
    assert_eq!(worker.spans().len(), 1);
}

#[test]
fn checkers_reject_a_one_unit_corruption() {
    let grid = Grid {
        reps: 3,
        hz: 0,
        ..Grid::new(Benchmark::Null)
    };
    let records = grid.run().expect("a one-cell null grid runs");
    let mut corrupted = records.clone();
    corrupted[1].measured += 1;
    assert_eq!(
        digest_records(&records),
        digest_records(&grid.run().unwrap())
    );
    assert_ne!(digest_records(&records), digest_records(&corrupted));
    assert_ne!(digest_records(&records), digest_records(&records[..2]));

    let body = "COUNTD record one\nrecord two\n".as_bytes().to_vec();
    let mut flipped = body.clone();
    flipped[13] ^= 1;
    assert_eq!(first_difference(&body, &body), None);
    assert_eq!(first_difference(&body, &flipped), Some(13));
    assert_eq!(first_difference(&body, &body[..20]), Some(20));
}
