//! The two solver workloads: `assemble_3d` (cold paper-scale explicit assembly,
//! then warm solves) and `iterate_2d` (one implicit solver time-stepping a long
//! sequence of load cases, Algorithm 2).

use crate::check::{self, Tally};
use crate::gen::{self, stream, Workload};
use crate::layers::{self, Choice};
use crate::metrics::Outcome;
use crate::stats::{median, quantile, timed_stolen, Samples};
use crate::{service_wl, spans};
use feti_core::PcpgOptions;

/// Warm solves a run measures at least, so the printed p90 rests on ≥100 samples.
const MIN_WARM_SOLVES: usize = 100;

/// Set-ups per run; `setup_s` is their median.
fn setup_repeats(workload: Workload) -> usize {
    match workload {
        Workload::Assemble3d => 3,
        _ => 9,
    }
}

/// Solves one load case on a warm solver and checks it; returns the check, the
/// wall time, the CPU time stolen meanwhile and the iteration count.
fn solve_checked(
    setup: &mut layers::Setup,
    case: &feti_core::LoadCase,
    options: &PcpgOptions,
) -> (Result<check::Quality, String>, f64, f64, usize) {
    let (res, wall, stolen) = timed_stolen(|| setup.solver.solve_many(std::slice::from_ref(case)));
    let mut iterations = 0;
    let checked = res.map_err(|e| e.to_string()).and_then(|mut sols| {
        let sol = sols.pop().ok_or("no solution")?;
        iterations = sol.iterations;
        check::check(&setup.problem, case, &sol, options)
    });
    (checked, wall, stolen, iterations)
}

pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return run_traced(workload, seed);
    }
    let (spec, approach) = workload.solver_setup();
    let options = PcpgOptions::default();
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut colds = Vec::new();
    let mut warm = Samples::default();
    let mut iterations = Vec::new();
    let mut step = 0u64;
    let mut current = None;
    let repeats = setup_repeats(workload);
    let mut measured = 0.0;
    // Set-ups are spread over the run, each followed by its share of the warm
    // solves, so a slow spell of the machine touches few samples of either kind.
    for r in 0..repeats {
        // One solver alive at a time, so peak RSS is that of one set-up.
        drop(current.take());
        let mut s = layers::setup(&spec, Choice::Pinned(approach), "")?;
        let case = gen::load_case(&s.problem, seed, stream::SETUP_LOADS, r as u64);
        let (checked, first_s, _, _) = solve_checked(&mut s, &case, &options);
        tally.record("first solve", checked);
        setups.push(s.wall_s);
        colds.push(s.wall_s + first_s);
        if r == 0 {
            println!("sizes {} approach=\"{}\"", gen::sizes(&s.problem), s.approach.label());
        }
        let share = (r + 1) as f64 / repeats as f64;
        // Measure `seconds` and at least MIN_WARM_SOLVES solves, waiting for that
        // many uncontended ones for up to twice the time.
        let target = MIN_WARM_SOLVES as f64 * share;
        while measured < seconds * share
            || (warm.len() as f64) < target
            || ((warm.clean_count() as f64) < target && measured < 2.0 * seconds * share)
        {
            let case = gen::load_case(&s.problem, seed, stream::STEP_LOADS, step);
            if step == 0 {
                println!("inputs first_load_digest={:016x}", gen::digest(&case));
            }
            let (checked, wall, stolen, iters) = solve_checked(&mut s, &case, &options);
            tally.record("warm solve", checked);
            warm.push(wall, stolen);
            measured += wall;
            iterations.push(iters as f64);
            step += 1;
        }
        current = Some(s);
    }
    let (total, uncontended) = (warm.len(), warm.clean_count());
    let warm = warm.measured();
    println!(
        "samples setups={} warm_solves={total} uncontended={uncontended} used={} \
         warm_s.p90={} cold_s.p50={} iterations_p50={} worst_equilibrium={:e} worst_jump={:e}",
        setups.len(),
        warm.len(),
        quantile(&warm, 0.9),
        median(&colds),
        median(&iterations),
        tally.worst_equilibrium,
        tally.worst_jump
    );
    let mut out =
        Outcome { attempted: tally.attempted, failed: tally.failed, ..Outcome::default() };
    out.push("setup_s", median(&setups));
    out.push("warm_s.p50", median(&warm));
    out.push("ops_per_s", warm.len() as f64 / warm.iter().sum::<f64>());
    out.push("peak_rss_mib", crate::metrics::peak_rss_mib());
    Ok(out)
}

/// The traced run: one traced set-up, warm solves alternating tracing off/on,
/// outside probes of every layer and a short service probe on the same geometry.
fn run_traced(workload: Workload, seed: u64) -> Result<Outcome, String> {
    let (spec, approach) = workload.solver_setup();
    let options = PcpgOptions::default();
    let mut tally = Tally::default();
    feti_core::install_trace_hooks();
    spans::set_enabled(true);
    feti_trace::set_enabled(true);
    let mut s = layers::setup(&spec, Choice::Pinned(approach), "setup")?;
    feti_trace::set_enabled(false);
    println!("sizes {} approach=\"{}\"", gen::sizes(&s.problem), s.approach.label());
    let case = gen::load_case(&s.problem, seed, stream::SETUP_LOADS, 0);
    let (checked, _, _, _) = solve_checked(&mut s, &case, &options);
    tally.record("first solve", checked);

    let pairs = match workload {
        Workload::Assemble3d => 6,
        _ => 15,
    };
    let solves = layers::alternating_solves(&mut s, seed, pairs, "warm", &mut tally);
    let sample = layers::probe(&mut s, &solves, "probe")?;
    let svc = service_wl::probe_service(&s.problem, approach, seed, &mut tally)?;

    let solve_p50 = median(&solves.untraced_s);
    layers::print_block(
        &format!("{} set-up (spec -> preprocessed {})", workload.name(), s.approach.label()),
        s.wall_s,
        layers::setup_rows(&sample, 0.0),
        "(unattributed)",
    );
    layers::print_block(
        &format!(
            "{} warm solve p50 ({} iterations)",
            workload.name(),
            sample.get("core.pcpg.iterations")
        ),
        solve_p50,
        layers::solve_rows(&sample),
        "core.pcpg.other",
    );
    println!(
        "planner predicted/measured: preprocess {:.3}, apply {:.3}",
        sample.pred_ratios.0, sample.pred_ratios.1
    );
    let overhead = median(&solves.traced_s) - solve_p50;
    println!(
        "trace overhead: traced solve p50 {:.6} s - untraced {:.6} s = {:.6} s",
        median(&solves.traced_s),
        solve_p50,
        overhead
    );
    spans::finish(workload, seed);

    let mut out =
        Outcome { attempted: tally.attempted, failed: tally.failed, ..Outcome::default() };
    out.metrics.extend(sample.values);
    out.metrics.extend(svc);
    out.push("trace.overhead_s", overhead);
    Ok(out)
}
