//! Per-layer probes: each layer metric of `BENCHMARK.json` is obtained by
//! timing a public call of one product crate, from outside, on inputs
//! generated from the seed. The probes do not depend on the workload being
//! traced — the workload contributes `trace_overhead_ratio` and the span
//! table — so every traced run reports every layer.
//!
//! Layer names are crate / module names. The README's interaction table
//! says which end-to-end metric each one should move, on which workload.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::driver::{
    self, capture_batches, timed, wal_in, Client, Daemon, LocalQuery, Query, Res, Store, Tracer,
    Wal, Workflow,
};
use crate::gen::{Algo, Class, FocusTexts, Op, OpGen, SplitMix64};
use crate::scratch::Scratch;
use crate::stats::median;
use crate::workloads::Scale;

/// Named layer measurements, in probe order.
pub type Layers = Vec<(&'static str, f64)>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median wall time of `reps` calls of `f`, µs; one unrecorded call first.
fn med_us<T>(reps: usize, mut f: impl FnMut() -> Res<T>) -> Res<f64> {
    std::hint::black_box(f()?);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (out, took) = timed(&mut f);
        std::hint::black_box(out?);
        samples.push(us(took));
    }
    Ok(median(&samples))
}

/// Mean wall time per call over one timed loop of `calls` calls, µs — for
/// calls too short to time one by one.
fn mean_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let ((), took) = timed(|| (0..calls).for_each(&mut f));
    us(took) / calls as f64
}

/// Runs every probe. `tr` records one span per probe group.
pub fn run(seed: u64, scale: &Scale, scratch: &Scratch, tr: &Tracer) -> Res<Layers> {
    let mut out = Layers::new();
    let wf = Workflow::testbed(scale.l)?;
    let mut rng = SplitMix64::new(seed);
    {
        let _s = tr.op("layers.write_path", 1);
        write_path(scale, scratch, &wf, &mut out)?;
    }
    {
        let _s = tr.op("layers.read_path", 2);
        read_path(seed, scale, &wf, &mut rng, &mut out)?;
    }
    {
        let _s = tr.op("layers.serve", 3);
        serve(scale, scratch, &wf, &mut rng, &mut out)?;
    }
    Ok(out)
}

/// engine, store insert, WAL append / sync / decode / apply, snapshots.
fn write_path(scale: &Scale, scratch: &Scratch, wf: &Workflow, out: &mut Layers) -> Res<()> {
    let small = capture_batches(wf, scale.d_small);
    let big = capture_batches(wf, scale.d_big);
    for (batches, p50, max) in [
        (&small, "engine.events_per_batch_p50.small", "engine.events_per_batch_max.small"),
        (&big, "engine.events_per_batch_p50.big", "engine.events_per_batch_max.big"),
    ] {
        let sizes: Vec<f64> = batches.sizes().iter().map(|&n| n as f64).collect();
        out.push((p50, median(&sizes)));
        out.push((max, sizes.iter().copied().fold(0.0, f64::max)));
    }
    out.push(("engine.batches_per_run", big.sizes().len() as f64));

    let events = big.events as f64;
    let engine = med_us(5, || Ok(driver::engine_only(wf, scale.d_big)))? / events;
    out.push(("engine.exec_us_per_event", engine));
    let with_store = med_us(5, || Store::in_memory().capture_run(wf, scale.d_big))? / events;
    out.push(("store.insert_us_per_event", with_store - engine));

    // Bare WAL: encode + append without fsync, then the fsync alone.
    let dir = scratch.sub()?;
    let mut wal = Wal::open(&dir.file("append.wal"))?;
    let mut syncs = Vec::new();
    for (batches, name) in [
        (&small, "store.wal.append_us_per_event.small"),
        (&big, "store.wal.append_us_per_event.big"),
    ] {
        let mut appends = Vec::new();
        for _ in 0..5 {
            let (r, took) = timed(|| wal.append(batches));
            r?;
            appends.push(us(took) / batches.events as f64);
            let (r, took) = timed(|| wal.sync());
            r?;
            syncs.push(took.as_secs_f64() * 1e3);
        }
        out.push((name, median(&appends)));
    }
    out.push(("store.wal.sync_ms_p50", median(&syncs)));

    // A durable store holding one big and three small runs: bytes on disk,
    // fsync count, snapshot cost, and what a restart replays.
    let path = wal_in(dir.path());
    let store = Store::open(&path)?;
    store.capture_run(wf, scale.d_big)?;
    for _ in 0..3 {
        store.capture_run(wf, scale.d_small)?;
    }
    let records = store.total_records() as f64;
    let wal_counters = store.wal_counters();
    out.push(("store.wal.bytes_per_event", wal_counters.bytes as f64 / records));
    out.push(("store.wal.syncs", wal_counters.syncs as f64));
    let (r, took) = timed(|| store.snapshot());
    r?;
    out.push(("store.snapshot.write_ms", took.as_secs_f64() * 1e3));
    out.push(("store.snapshot.bytes_per_event", driver::snapshot_bytes(&path) as f64 / records));
    drop(store);
    let (reopened, took) = timed(|| Store::open(&path));
    let reopened = reopened?;
    out.push(("store.snapshot.load_ms", took.as_secs_f64() * 1e3));
    reopened.capture_run(wf, scale.d_small)?;
    drop(reopened);
    let reopened = Store::open(&path)?;
    out.push(("store.recovery_replayed_frames", reopened.wal_counters().replayed_frames as f64));
    if reopened.total_records() as f64 <= records {
        return Err("the run appended after the snapshot did not survive the reopen".into());
    }
    drop(reopened);

    // One-run WALs written by the store itself: decode alone, then decode
    // + apply (`open`), then the follower's frame-by-frame apply.
    let mut open_small = 0.0;
    let mut decode_small = 0.0;
    for (d, reps, name) in [
        (scale.d_small, 3, "store.wal.decode_us_per_event.small"),
        (scale.d_recover, 2, "store.wal.decode_us_per_event.mid"),
    ] {
        let one = dir.sub()?;
        let path = wal_in(one.path());
        let store = Store::open(&path)?;
        store.capture_run(wf, d)?;
        let records = store.total_records();
        drop(store);
        let decode = med_us(reps, || driver::wal_decode(&path))? / records as f64;
        out.push((name, decode));
        if d == scale.d_small {
            decode_small = decode;
            open_small =
                med_us(reps, || Store::open(&path).map(|s| s.total_records()))? / records as f64;
            let follower = dir.sub()?;
            let (applied, took) = timed(|| driver::replicate(&path, &wal_in(follower.path())));
            if applied? != records {
                return Err("the follower applied a different number of records".into());
            }
            out.push(("store.apply_replicated_us_per_event", us(took) / records as f64));
        }
    }
    out.push(("store.apply_us_per_event", open_small - decode_small));
    Ok(())
}

/// pin, probes, parse, plan (t1), plan cache, probe (t2), NI, render,
/// fan-out speed-ups, the journal.
fn read_path(
    seed: u64,
    scale: &Scale,
    wf: &Workflow,
    rng: &mut SplitMix64,
    out: &mut Layers,
) -> Res<()> {
    let store = Store::in_memory();
    for _ in 0..scale.serve_runs {
        store.capture_run(wf, scale.d_big)?;
    }
    let runs = store.runs();
    let one = [runs[0]];
    let d = scale.d_big;

    // Pin: idle, then while a writer streams small runs into the store.
    out.push(("store.pin_us", mean_us(2000, |_| store.pin(runs[0]))));
    {
        let busy = Store::in_memory();
        let first = busy.capture_run(wf, d)?;
        let stop = AtomicBool::new(false);
        let pinned = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    if busy.capture_run(wf, scale.d_small).is_err() {
                        break;
                    }
                }
            });
            let per_pin = mean_us(2000, |_| busy.pin(first));
            stop.store(true, Ordering::Release);
            writer.join().map(|()| per_pin).map_err(|_| "ingest thread panicked".to_string())
        })?;
        out.push(("store.pin_us.under_ingest", pinned));
    }

    let pairs: Vec<(usize, usize)> = (0..256).map(|_| (rng.below(d), rng.below(d))).collect();
    let mut rows = 0;
    let point = mean_us(20_000, |k| {
        let (i, j) = pairs[k % pairs.len()];
        rows += store.probe_point(runs[0], i, j);
    });
    out.push(("store.probe_point_ns", point * 1e3));
    let scan = mean_us(2_000, |k| rows += store.probe_scan(runs[0], pairs[k % pairs.len()].0));
    out.push(("store.probe_scan_us", scan));
    if rows == 0 {
        return Err("the store probes found no rows".into());
    }

    // One query per class, staged.
    let focus = FocusTexts::new(scale.l);
    let op = |class, partial_k| Op {
        class,
        algo: Algo::IndexProj,
        index: pairs[0],
        hot: true,
        partial_k,
        run_pick: 0,
        newest: false,
    };
    let focused = op(Class::Focused, 0).text(d, &focus);
    let unfocused = op(Class::Unfocused, 0).text(d, &focus);
    let lq = LocalQuery::new(&store, wf);
    out.push(("core.parse_us.focused", med_us(200, || lq.parse(&focused))?));
    out.push(("core.parse_us.unfocused", med_us(200, || lq.parse(&unfocused))?));
    let (pf, pu) = (lq.parse(&focused)?, lq.parse(&unfocused)?);
    out.push(("core.plan_us.focused", med_us(50, || lq.plan_cold(&pf))?));
    out.push(("core.plan_us.unfocused", med_us(50, || lq.plan_cold(&pu))?));
    lq.plan_cached(&pf)?;
    out.push((
        "core.plan_cache.hit_ns",
        1e3 * mean_us(20_000, |_| {
            std::hint::black_box(lq.plan_cached(&pf).is_ok());
        }),
    ));
    let (plan_f, plan_u) = (lq.plan_cold(&pf)?, lq.plan_cold(&pu)?);

    // Exact work per answer, then the time it takes.
    for (plan, targets, lookups) in [
        (&plan_f, &one[..], "store.index_lookups_per_query.focused"),
        (&plan_u, &one[..], "store.index_lookups_per_query.unfocused"),
        (&plan_f, &runs[..], "store.index_lookups_per_query.multirun"),
    ] {
        let before = store.probe_counters();
        let answers = lq.probe(plan, targets, "")?;
        let after = store.probe_counters();
        out.push((lookups, (after.index_lookups - before.index_lookups) as f64));
        if lookups.ends_with("unfocused") {
            let read = (after.records_read - before.records_read) as f64;
            out.push(("store.records_read_per_binding", read / answers.bindings() as f64));
        }
    }
    out.push(("core.probe_us.focused", med_us(200, || lq.probe(&plan_f, &one, ""))?));
    out.push(("core.probe_us.unfocused", med_us(100, || lq.probe(&plan_u, &one, ""))?));
    out.push(("core.probe_us.multirun", med_us(100, || lq.probe(&plan_f, &runs, ""))?));
    out.push(("core.ni_us.focused", med_us(50, || lq.naive(&pf, &one, ""))?));
    out.push(("core.ni_us.unfocused", med_us(50, || lq.naive(&pu, &one, ""))?));
    let answers = lq.probe(&plan_u, &one, "")?;
    out.push(("core.render_us", med_us(200, || Ok(answers.render()))?));

    // Fan-out: one worker against two, on the step and the run path.
    let mut one_worker = [0.0; 2];
    for (threads, slot) in [(1, 0), (2, 1)] {
        driver::query_threads(Some(threads));
        let steps = med_us(100, || lq.probe(&plan_u, &one, ""));
        let multi = med_us(100, || lq.probe(&plan_f, &runs, ""));
        driver::query_threads(None);
        let (steps, multi) = (steps?, multi?);
        if slot == 0 {
            one_worker = [steps, multi];
        } else {
            out.push(("core.par.speedup_steps", one_worker[0] / steps));
            out.push(("core.par.speedup_runs", one_worker[1] / multi));
        }
    }

    // The query mix through one long-lived cache: hit ratio, and what an
    // attached journal costs (alternating, so drift hits both sides).
    let replay = |lq: &LocalQuery<'_>, blocks: usize| -> Res<Duration> {
        let mut gen = OpGen::new(seed, d, runs.len());
        let off = Tracer::off();
        let mut total = Duration::ZERO;
        for _ in 0..blocks {
            for op in gen.block() {
                let text = op.text(d, &focus);
                let targets = if op.all_runs() { runs.clone() } else { vec![runs[op.run_pick]] };
                let q =
                    Query { text: &text, runs: &targets, all_runs: op.all_runs(), algo: op.algo };
                let (r, took) = timed(|| lq.answer(&q, &off, &off.op("op", 0)));
                r?;
                total += took;
            }
        }
        Ok(total)
    };
    let mixed = LocalQuery::new(&store, wf);
    replay(&mixed, 50)?;
    let (hits, misses) = mixed.plan_cache_stats();
    out.push(("core.plan_cache.hit_ratio", hits as f64 / (hits + misses) as f64));
    let journaled = LocalQuery::journaled(&store, wf);
    let mut ratios = Vec::new();
    for _ in 0..5 {
        let plain = replay(&mixed, 10)?;
        ratios.push(replay(&journaled, 10)?.as_secs_f64() / plain.as_secs_f64());
    }
    out.push(("obs.journal_overhead_ratio", median(&ratios)));
    out.push(("dataflow.load_us", med_us(5, || wf.reload())?));
    Ok(())
}

/// The daemon: ping floor, in-process executor, what the wire and the
/// session add, ingest encode and group commit.
fn serve(
    scale: &Scale,
    scratch: &Scratch,
    wf: &Workflow,
    rng: &mut SplitMix64,
    out: &mut Layers,
) -> Res<()> {
    let dir = scratch.sub()?;
    let store = Store::open(&wal_in(dir.path()))?;
    store.register_workflow(wf);
    let run = store.capture_run(wf, scale.d_big)?;
    let daemon = Daemon::start(&store)?;
    let fail = |e| format!("{e:?}");
    let mut client = Client::connect(daemon.addr()).map_err(fail)?;
    let (mut requests, mut ok) = (0u64, 0u64);
    let mut count = |r: bool| {
        requests += 1;
        ok += u64::from(r);
        r
    };

    let ping = med_us(1000, || Ok(count(client.ping().is_ok())))?;
    out.push(("serve.ping_us", ping));
    let text = format!(
        "lin(<2TO1_FINAL:Y[{},{}]>,{{LISTGEN_1}})",
        rng.below(scale.d_big),
        rng.below(scale.d_big)
    );
    let runs = [run];
    for (algo, name) in
        [(Algo::Ni, "serve.exec_us.ni"), (Algo::IndexProj, "serve.exec_us.indexproj")]
    {
        let q = Query { text: &text, runs: &runs, all_runs: false, algo };
        out.push((name, med_us(20, || store.exec_in_process(&q))?));
    }
    // What the socket and the session add to a query, taken on the cheap
    // NI query (where it is not lost in the noise of a 20 ms execution) and
    // in alternation with the in-process execution, so drift hits both.
    let q = Query { text: &text, runs: &runs, all_runs: false, algo: Algo::Ni };
    let mut added = Vec::new();
    for _ in 0..200 {
        let (local, in_process) = timed(|| store.exec_in_process(&q));
        let (answer, served) = timed(|| client.query(&q));
        if !count(answer.is_ok()) || answer.map_err(fail)? != local? {
            return Err("the served answer differs from the in-process one".into());
        }
        added.push(us(served) - us(in_process));
    }
    out.push(("serve.overhead_us", median(&added) - ping));

    let small = capture_batches(wf, scale.d_small);
    let encode = med_us(5, || driver::encode_ingest_batches(&small))?;
    out.push(("serve.encode_batch_us_per_event", encode / small.events as f64));

    // Three streamed runs: wall per run, and WAL frames per fsync.
    let before = store.wal_counters();
    let mut run_ms = Vec::new();
    for _ in 0..3 {
        let (r, took) = timed(|| driver::remote_run(daemon.addr(), wf, scale.d_small));
        if count(r.is_ok()) {
            run_ms.push(took.as_secs_f64() * 1e3);
        }
    }
    let after = store.wal_counters();
    out.push(("serve.ingest_run_ms_p50", median(&run_ms)));
    let group_commits = (after.syncs - before.syncs).max(1);
    out.push((
        "serve.batches_per_sync",
        (after.frames - before.frames) as f64 / group_commits as f64,
    ));
    out.push(("serve.ok_ratio", ok as f64 / requests as f64));
    drop(client);
    daemon.shutdown()
}
