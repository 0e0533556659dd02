//! Trace-store access paths (ablation #3): insert throughput, exact point
//! lookups, prefix scans, and overlap lookups on populated stores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use prov_engine::{PortBinding, TraceSink, XformEvent};
use prov_model::{Index, ProcessorName, RunId, Value};
use prov_store::{IndexId, TraceStore};

fn populated(n: usize) -> (TraceStore, RunId) {
    let store = TraceStore::in_memory();
    let run = store.begin_run(&"wf".into());
    for i in 0..n as u32 {
        store.record_xform(
            run,
            XformEvent {
                processor: ProcessorName::from("P"),
                invocation: i,
                inputs: vec![PortBinding::new("x", Index::single(i), Value::int(i as i64))],
                outputs: vec![PortBinding::new("y", Index::single(i), Value::int(i as i64))],
            },
        );
    }
    (store, run)
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("insert_1000_xforms", |b| {
        b.iter(|| populated(1000));
    });
}

fn bench_lookups(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup");
    for n in [1_000usize, 10_000, 100_000] {
        let (store, run) = populated(n);
        let p = ProcessorName::from("P");
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| store.xforms_producing(run, &p, "y", &Index::single((n / 2) as u32)));
        });
        group.bench_with_input(BenchmarkId::new("q_lookup", n), &n, |b, _| {
            b.iter(|| {
                let view = store.pin(run);
                let x = view.node(&p, "x", &Index::single((n / 2) as u32));
                let found = view.bindings_at(IndexId::XformIn, &x, &mut view.probe_guard());
                found
            });
        });
    }
    group.finish();
}

fn bench_prefix_scan(c: &mut Criterion) {
    // Rows nested two deep; scan a one-component prefix.
    let store = TraceStore::in_memory();
    let run = store.begin_run(&"wf".into());
    for i in 0..100u32 {
        for j in 0..100u32 {
            store.record_xform(
                run,
                XformEvent {
                    processor: ProcessorName::from("P"),
                    invocation: i * 100 + j,
                    inputs: vec![PortBinding::new(
                        "x",
                        Index::from_slice(&[i, j]),
                        Value::int(j as i64),
                    )],
                    outputs: vec![PortBinding::new(
                        "y",
                        Index::from_slice(&[i, j]),
                        Value::int(j as i64),
                    )],
                },
            );
        }
    }
    let p = ProcessorName::from("P");
    c.bench_function("prefix_scan_100_of_10000", |b| {
        b.iter(|| store.xforms_producing(run, &p, "y", &Index::single(42)));
    });
}

criterion_group!(benches, bench_insert, bench_lookups, bench_prefix_scan);
criterion_main!(benches);
