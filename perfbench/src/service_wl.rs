//! The `service_remesh` workload: two tenants stream jobs through `FetiService`,
//! the planner choosing each approach.  A tenant time-steps
//! [`STEPS_PER_GEOMETRY`] seeded load cases on one geometry, waiting for each
//! step before submitting the next, then moves to a geometry no tenant uses again
//! in that service's lifetime.  A warm solver returns to the cache before its job
//! replies and no key recurs, so every geometry is one miss followed by hits: the
//! hit/miss sequence is fixed by the seed, not by completion order.

use crate::check::{self, Tally};
use crate::gen::{self, stream, Rng, Workload};
use crate::layers::{self, Choice, LayerSample, Row};
use crate::metrics::Outcome;
use crate::spans;
use crate::stats::{mean, median, quantile, timed, Samples};
use feti_core::{DualOperatorApproach, LoadCase, PcpgOptions};
use feti_decompose::DecomposedProblem;
use feti_service::{CacheOutcome, FetiService, JobReport, JobSpec, ServiceConfig, ServiceStats};
use std::sync::Arc;

/// The pool geometries (indices into `gen::geometry_pool`) each of the two
/// tenants streams, in a seeded order per pass.  The split balances the two
/// streams' measured work (about 2.7 s and 2.9 s of job latency per pass on a
/// 2-core Xeon VM), so a pass's wall time does not hinge on which tenant the
/// heaviest geometries land on.
const TENANT_GEOMETRIES: [&[usize]; 2] = [&[0, 1, 2, 4, 6, 11], &[3, 5, 7, 8, 9, 10, 12]];
const TENANTS: usize = TENANT_GEOMETRIES.len();
const STEPS_PER_GEOMETRY: usize = 4;
/// Cache-hit jobs a run measures at least, so the printed p90 rests on ≥100 samples.
const MIN_WARM_JOBS: usize = 100;

fn config() -> ServiceConfig {
    ServiceConfig { workers: 2, solver_threads: Some(1), ..ServiceConfig::default() }
}

/// One job as the client saw it, with its output checked.
struct Job {
    latency_s: f64,
    /// CPU time stolen from the machine during the job (see `stats::Samples`).
    stolen_s: f64,
    submit_s: f64,
    cache: Option<CacheOutcome>,
    preprocess_s: f64,
    solve_s: f64,
    checked: Result<check::Quality, String>,
}

/// The client's timings of one job and the service's reply, before the check.
struct Reply {
    latency_s: f64,
    stolen_s: f64,
    submit_s: f64,
    report: Result<JobReport, String>,
}

/// Submits one job and waits for it.
fn run_job(
    svc: &FetiService,
    tenant: &str,
    problem: &Arc<DecomposedProblem>,
    case: &LoadCase,
    approach: Option<DualOperatorApproach>,
    tag: &str,
) -> Reply {
    let _s = spans::span("job", tag);
    let mut spec = JobSpec::new(tenant, Arc::clone(problem)).with_loads(vec![case.clone()]);
    spec.approach = approach;
    let steal_before = crate::metrics::steal_seconds();
    let t0 = std::time::Instant::now();
    let submitted = {
        let _s = spans::span("service.submit", tag);
        svc.submit(spec)
    };
    let submit_s = t0.elapsed().as_secs_f64();
    let report = submitted.map_err(|e| format!("rejected at submit: {e:?}")).and_then(|ticket| {
        let _s = spans::span("service.wait", tag);
        ticket.wait().map_err(|e| format!("job failed: {e:?}"))
    });
    let latency_s = t0.elapsed().as_secs_f64();
    Reply { latency_s, stolen_s: crate::metrics::steal_seconds() - steal_before, submit_s, report }
}

impl Job {
    /// Checks a reply's solution against the problem and loads of its job.
    fn checked(reply: Reply, problem: &DecomposedProblem, case: &LoadCase) -> Self {
        let (cache, preprocess_s, solve_s, checked) = match reply.report {
            Ok(mut r) => {
                let checked = match r.solutions.pop() {
                    Some(sol) => check::check(problem, case, &sol, &PcpgOptions::default()),
                    None => Err("job returned no solution".into()),
                };
                (Some(r.cache), r.preprocess_seconds, r.solve_seconds, checked)
            }
            Err(e) => (None, 0.0, 0.0, Err(e)),
        };
        Job {
            latency_s: reply.latency_s,
            stolen_s: reply.stolen_s,
            submit_s: reply.submit_s,
            cache,
            preprocess_s,
            solve_s,
            checked,
        }
    }
}

/// One pass: set up (build every pool geometry, start a fresh service), stream
/// all geometries through it, shut it down.
struct Pass {
    setup_s: f64,
    stream_s: f64,
    jobs: Vec<Job>,
    stats: ServiceStats,
}

fn pass(seed: u64, index: u64) -> Result<Pass, String> {
    let tag = format!("pass{index}");
    let _s = spans::span("pass", &tag);
    let ((problems, svc), setup_s) = timed(|| {
        let _s = spans::span("setup", &tag);
        let problems: Vec<Arc<DecomposedProblem>> = gen::geometry_pool()
            .iter()
            .map(|spec| Arc::new(DecomposedProblem::build(spec)))
            .collect();
        (problems, FetiService::start(config()))
    });
    // Every load case is generated before the stream and every reply checked
    // after it, so during the stream the clients only submit and wait and the
    // two cores belong to the service's workers.
    let plans: Vec<Vec<(usize, LoadCase)>> = TENANT_GEOMETRIES
        .iter()
        .enumerate()
        .map(|(t, geometries)| {
            let mut order = geometries.to_vec();
            Rng::new(seed, stream::POOL_ORDER, index * TENANTS as u64 + t as u64)
                .shuffle(&mut order);
            order
                .into_iter()
                .flat_map(|g| (0..STEPS_PER_GEOMETRY).map(move |step| (g, step)))
                .map(|(g, step)| {
                    let id = (index * 100 + g as u64) * STEPS_PER_GEOMETRY as u64 + step as u64;
                    (g, gen::load_case(&problems[g], seed, stream::SERVICE_LOADS, id))
                })
                .collect()
        })
        .collect();
    let (replies, stream_s) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(t, plan)| {
                    let (svc, problems) = (&svc, &problems);
                    scope.spawn(move || {
                        let tenant = format!("tenant{t}");
                        plan.iter()
                            .enumerate()
                            .map(|(k, (g, case))| {
                                let tag = format!("{tenant}/g{g}/job{k}");
                                run_job(svc, &tenant, &problems[*g], case, None, &tag)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("tenant thread")).collect::<Vec<_>>()
        })
    });
    let stats = svc.shutdown().map_err(|e| format!("shutdown: {e:?}"))?;
    let jobs = replies
        .into_iter()
        .zip(&plans)
        .flat_map(|(replies, plan)| replies.into_iter().zip(plan))
        .map(|(reply, (g, case))| Job::checked(reply, &problems[*g], case))
        .collect();
    Ok(Pass { setup_s, stream_s, jobs, stats })
}

fn latencies(jobs: &[Job], outcome: CacheOutcome) -> Samples {
    let mut samples = Samples::default();
    for j in jobs.iter().filter(|j| j.cache == Some(outcome)) {
        samples.push(j.latency_s, j.stolen_s);
    }
    samples
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let pool = gen::geometry_pool();
    for spec in &pool {
        println!(
            "geometry {:?} {:?} {:?} {}^d subdomains x {} elements: {} dofs/subdomain",
            spec.dim,
            spec.physics,
            spec.order,
            spec.subdomains_per_side,
            spec.elements_per_subdomain_side,
            spec.dofs_per_subdomain()
        );
    }
    if trace {
        return run_traced(seed);
    }
    let mut tally = Tally::default();
    let start = std::time::Instant::now();
    let (mut setups, mut rates, mut jobs) = (Vec::new(), Vec::new(), Vec::new());
    let mut index = 0;
    let mut peak_rss_mib = f64::NAN;
    // Measure `seconds` and at least MIN_WARM_JOBS hits, waiting for that many
    // uncontended ones for up to twice the time.
    let elapsed = || start.elapsed().as_secs_f64();
    let mut hits_before = usize::MAX;
    loop {
        let hits = latencies(&jobs, CacheOutcome::Hit);
        let done = hits.len() >= MIN_WARM_JOBS
            && (hits.clean_count() >= MIN_WARM_JOBS || elapsed() >= 2.0 * seconds);
        // Failing jobs are never hits: stop anyway once a pass added none.
        if elapsed() >= seconds && (done || hits.len() == hits_before) {
            break;
        }
        hits_before = hits.len();
        let p = pass(seed, index)?;
        setups.push(p.setup_s);
        rates.push(p.jobs.len() as f64 / p.stream_s);
        println!(
            "pass {index}: hits {} misses {} completed {} failed {}",
            p.stats.cache_hits, p.stats.cache_misses, p.stats.jobs_completed, p.stats.jobs_failed
        );
        jobs.extend(p.jobs);
        if index == 0 {
            // The footprint of one service lifetime.  Later passes restart the
            // service on fresh threads, which only adds allocator arenas.
            peak_rss_mib = crate::metrics::peak_rss_mib();
        }
        index += 1;
    }
    let (warm, cold) = (latencies(&jobs, CacheOutcome::Hit), latencies(&jobs, CacheOutcome::Miss));
    let total_jobs = jobs.len();
    for j in jobs {
        tally.record("job", j.checked);
    }
    let (warm_total, warm_uncontended) = (warm.len(), warm.clean_count());
    let (warm, cold) = (warm.measured(), cold.measured());
    println!(
        "samples passes={} jobs={total_jobs} warm={warm_total} (uncontended {warm_uncontended}, \
         used {}) warm_s.p90={} cold={} cold_s.p50={} worst_equilibrium={:e} worst_jump={:e}",
        setups.len(),
        warm.len(),
        quantile(&warm, 0.9),
        cold.len(),
        median(&cold),
        tally.worst_equilibrium,
        tally.worst_jump
    );
    let mut out =
        Outcome { attempted: tally.attempted, failed: tally.failed, ..Outcome::default() };
    out.push("setup_s", median(&setups));
    out.push("warm_s.p50", median(&warm));
    out.push("ops_per_s", median(&rates));
    out.push("peak_rss_mib", peak_rss_mib);
    Ok(out)
}

/// Service-layer metrics of a set of jobs: submit wall, queue wait (latency −
/// submit − reported preprocess − reported solve) and the cache hit ratio.
fn service_metrics(jobs: &[Job], hits: usize, misses: usize) -> Vec<(&'static str, f64)> {
    let queue: Vec<f64> =
        jobs.iter().map(|j| j.latency_s - j.submit_s - j.preprocess_s - j.solve_s).collect();
    vec![
        ("service.submit_s", median(&jobs.iter().map(|j| j.submit_s).collect::<Vec<_>>())),
        ("service.queue_wait_s", median(&queue)),
        ("service.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64),
    ]
}

/// A short service run on one geometry with the approach pinned: one tenant, one
/// cold job and three warm ones.  Used by the solver workloads' traced runs.
pub fn probe_service(
    problem: &Arc<DecomposedProblem>,
    approach: DualOperatorApproach,
    seed: u64,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let svc = FetiService::start(config());
    let mut jobs = Vec::new();
    for step in 0..STEPS_PER_GEOMETRY {
        let case = gen::load_case(problem, seed, stream::SERVICE_LOADS, step as u64);
        let tag = format!("probe/step{step}");
        let reply = run_job(&svc, "probe", problem, &case, Some(approach), &tag);
        jobs.push(Job::checked(reply, problem, &case));
    }
    let stats = svc.shutdown().map_err(|e| format!("shutdown: {e:?}"))?;
    let metrics = service_metrics(&jobs, stats.cache_hits, stats.cache_misses);
    for j in jobs {
        tally.record("service probe job", j.checked);
    }
    Ok(metrics)
}

/// Prints the mean latency of a set of jobs split into its parts.
fn print_job_block(title: &str, jobs: &[&Job]) {
    let m = |f: fn(&Job) -> f64| mean(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>());
    layers::print_block(
        &format!("{title} (mean of {} jobs)", jobs.len()),
        m(|j| j.latency_s),
        vec![
            Row::host("service.submit", m(|j| j.submit_s)),
            Row::host("service job preprocess (reported)", m(|j| j.preprocess_s)),
            Row::host("service job solve (reported)", m(|j| j.solve_s)),
        ],
        "service.queue_wait (+ reply)",
    );
}

fn run_traced(seed: u64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    feti_core::install_trace_hooks();
    // A warm-up pass (the first pass of a process pays its page faults), then
    // untraced and traced passes of the same stream, alternating, for the
    // tracing overhead; the traced ones supply the service-layer metrics.
    let mut passes = vec![pass(seed, 0)?];
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced_jobs = Vec::new();
    let (mut hits, mut misses) = (0, 0);
    for traced in [false, true, false, true] {
        spans::set_enabled(traced);
        feti_trace::set_enabled(traced);
        let p = pass(seed, 0)?;
        feti_trace::set_enabled(false);
        if traced {
            traced_s.push(p.stream_s);
            traced_jobs.extend(p.jobs);
            (hits, misses) = (hits + p.stats.cache_hits, misses + p.stats.cache_misses);
        } else {
            plain_s.push(p.stream_s);
            passes.push(p);
        }
    }
    spans::set_enabled(true);
    let _ = spans::merge_program_spans();
    let svc = service_metrics(&traced_jobs, hits, misses);
    for hit in [CacheOutcome::Miss, CacheOutcome::Hit] {
        let jobs: Vec<&Job> = traced_jobs.iter().filter(|j| j.cache == Some(hit)).collect();
        print_job_block(&format!("service_remesh {hit:?} job"), &jobs);
    }
    let overhead = mean(&traced_s) - mean(&plain_s);
    println!(
        "trace overhead: traced stream {:.6} s - untraced {:.6} s = {:.6} s (means of 2 passes)",
        mean(&traced_s),
        mean(&plain_s),
        overhead
    );

    // Every layer probed on every pool geometry with the planner's pick; the
    // per-layer metrics are means over the pool.
    let mut samples: Vec<LayerSample> = Vec::new();
    let mut setup_walls = Vec::new();
    let mut solve_walls = Vec::new();
    let mut plan_walls = Vec::new();
    for (g, spec) in gen::geometry_pool().iter().enumerate() {
        let tag = format!("g{g}");
        let mut s = layers::setup(spec, Choice::Planned, &tag)?;
        let solves = layers::alternating_solves(&mut s, seed, 2, &tag, &mut tally);
        let sample = layers::probe(&mut s, &solves, &tag)?;
        println!(
            "geometry g{g}: {} planned \"{}\"; predicted/measured preprocess {:.3}, apply {:.3}",
            gen::sizes(&s.problem),
            s.approach.label(),
            sample.pred_ratios.0,
            sample.pred_ratios.1
        );
        setup_walls.push(s.wall_s);
        plan_walls.push(s.plan_s);
        solve_walls.push(median(&solves.untraced_s));
        samples.push(sample);
    }
    let mean_sample = LayerSample {
        values: samples[0]
            .values
            .iter()
            .map(|(name, _)| {
                (*name, mean(&samples.iter().map(|s| s.get(name)).collect::<Vec<_>>()))
            })
            .collect(),
        pred_ratios: (f64::NAN, f64::NAN),
    };
    let mean_plan_s = mean(&plan_walls);
    layers::print_block(
        "service_remesh mean geometry set-up",
        mean(&setup_walls),
        layers::setup_rows(&mean_sample, mean_plan_s),
        "(unattributed)",
    );
    layers::print_block(
        "service_remesh mean warm solve",
        mean(&solve_walls),
        layers::solve_rows(&mean_sample),
        "core.pcpg.other",
    );
    spans::finish(Workload::ServiceRemesh, seed);
    for j in passes.into_iter().flat_map(|p| p.jobs).chain(traced_jobs) {
        tally.record("job", j.checked);
    }
    let mut out =
        Outcome { attempted: tally.attempted, failed: tally.failed, ..Outcome::default() };
    out.metrics.extend(mean_sample.values);
    out.metrics.extend(svc);
    out.push("trace.overhead_s", overhead);
    Ok(out)
}
