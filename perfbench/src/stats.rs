//! Order statistics over samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation between closest
/// ranks; `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Largest share of the machine's CPU time (`THREADS` × wall) the hypervisor
/// may have stolen during a sample for it to count as measured on an
/// uncontended host.
pub const STEAL_TOLERANCE: f64 = 0.05;

/// Fewest uncontended samples a latency is taken over; with fewer, it is taken
/// over all samples.
pub const MIN_UNCONTENDED: usize = 20;

/// Timed samples, each with the CPU time the hypervisor stole from this machine
/// while it ran.  On a shared host, stolen time stalls the parallel regions of
/// a solve at their joins, so a contended spell inflates every timing taken in
/// it; latencies are reported over the uncontended samples when there are
/// enough of them.
#[derive(Debug, Default)]
pub struct Samples {
    wall: Vec<f64>,
    stolen: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, wall: f64, stolen: f64) {
        self.wall.push(wall);
        self.stolen.push(stolen);
    }

    pub fn len(&self) -> usize {
        self.wall.len()
    }

    fn is_clean(wall: f64, stolen: f64) -> bool {
        stolen <= STEAL_TOLERANCE * crate::THREADS as f64 * wall
    }

    pub fn clean_count(&self) -> usize {
        self.wall.iter().zip(&self.stolen).filter(|(w, s)| Self::is_clean(**w, **s)).count()
    }

    /// The uncontended samples when at least [`MIN_UNCONTENDED`] of them exist,
    /// else all.
    pub fn measured(&self) -> Vec<f64> {
        if self.clean_count() < MIN_UNCONTENDED {
            return self.wall.clone();
        }
        self.wall
            .iter()
            .zip(&self.stolen)
            .filter(|(w, s)| Self::is_clean(**w, **s))
            .map(|(w, _)| *w)
            .collect()
    }
}

/// Times one call and the CPU time stolen from the machine meanwhile.
pub fn timed_stolen<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = crate::metrics::steal_seconds();
    let (out, wall) = timed(f);
    (out, wall, crate::metrics::steal_seconds() - before)
}
