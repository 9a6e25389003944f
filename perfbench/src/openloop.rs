//! Open-loop load: requests are due on a seeded schedule whether or not
//! earlier ones have finished, each is timed from when it was due, and a
//! request still unsent when its step ends counts as failed.
//!
//! The schedule is jittered: request `k` is due at a uniformly random
//! point of the `k`-th interval of length `1/rate`. The random phase keeps
//! the arrivals from beating against a timer-driven server loop (a fixed
//! interval samples such a loop at a slowly drifting phase, which makes a
//! median wander between runs), while at most two requests ever fall in
//! one interval, so bursts do not blur the capacity the ladder finds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::stats;
use crate::trace::Tracer;

/// A step meets the limit when its tail latency is at most this.
pub const LIMIT_TAIL_MS: f64 = 100.0;

/// The doubling ladder of offered rates, in requests per second.
pub const LADDER: [f64; 8] = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0];

/// What one sent request came back as.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sent {
    pub ok: bool,
    /// Refused by the accept loop's full queue (`503` overload).
    pub overload: bool,
}

/// One sent request, timed.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// How late the generator sent it, in ms.
    pub late_ms: f64,
    /// From due time to the last response byte, in ms.
    pub latency_ms: f64,
    /// From the step's start to the last response byte, in ms.
    pub done_ms: f64,
    pub sent: Sent,
}

/// The result of holding one rate for one step.
#[derive(Clone, Debug)]
pub struct Step {
    pub rate: f64,
    /// Requests due within the step.
    pub due: usize,
    /// One entry per request actually sent.
    pub outcomes: Vec<Outcome>,
}

impl Step {
    pub fn unsent(&self) -> usize {
        self.due - self.outcomes.len()
    }

    /// Failed answers plus requests due but never sent.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.sent.ok).count() + self.unsent()
    }

    pub fn overloads(&self) -> usize {
        self.outcomes.iter().filter(|o| o.sent.overload).count()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency_ms).collect()
    }

    pub fn late_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.late_ms).collect()
    }

    /// Successful answers per second, measured from the step's start to
    /// its last response.
    pub fn goodput(&self) -> f64 {
        let ok = self.outcomes.iter().filter(|o| o.sent.ok).count();
        let span_ms = self.outcomes.iter().map(|o| o.done_ms).fold(0.0, f64::max);
        ok as f64 / (span_ms / 1e3)
    }

    pub fn meets_limit(&self) -> bool {
        meets_limit(stats::tail(&self.latencies_ms()).value, self.failures())
    }
}

/// The per-step limit: no failure at all and the tail within
/// [`LIMIT_TAIL_MS`]. Unsent requests are failures, so a backlog that is
/// still growing when the step ends fails it too.
pub fn meets_limit(tail_ms: f64, failures: usize) -> bool {
    failures == 0 && tail_ms <= LIMIT_TAIL_MS
}

/// Bisection steps between the last passing and the first failing rung.
pub const REFINE_STEPS: usize = 4;

/// The `max_ok_rps` rule. Climbs [`LADDER`] and stops at the first rung
/// that misses the limit, so an overloaded server cannot stretch the run;
/// then bisects [`REFINE_STEPS`] times between the last passing rate and
/// the first failing one. Returns the highest rate that met the limit (0
/// when the first rung failed) and every `(rate, ok)` tried, in order.
pub fn ladder_search(mut step_ok: impl FnMut(f64) -> bool) -> (f64, Vec<(f64, bool)>) {
    let mut tried = Vec::new();
    let mut best = 0.0;
    let mut failed_at = None;
    for rate in LADDER {
        let ok = step_ok(rate);
        tried.push((rate, ok));
        if !ok {
            failed_at = Some(rate);
            break;
        }
        best = rate;
    }
    if let (Some(mut hi), true) = (failed_at, best > 0.0) {
        for _ in 0..REFINE_STEPS {
            let mid = (best + hi) / 2.0;
            let ok = step_ok(mid);
            tried.push((mid, ok));
            if ok {
                best = mid;
            } else {
                hi = mid;
            }
        }
    }
    (best, tried)
}

/// Due offsets of `rate × dur` requests (at least one), request `k` at a
/// seeded uniform point of `[k/rate, (k+1)/rate)`.
pub fn jittered_schedule(rate: f64, dur: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = ((rate * dur.as_secs_f64()).round() as usize).max(1);
    (0..n)
        .map(|k| Duration::from_secs_f64((k as f64 + rng.random_range(0.0..1.0)) / rate))
        .collect()
}

/// Offers `rate` requests per second for `dur` over `conns` connections,
/// on the jittered schedule drawn from `seed`. Request `k` of the step is
/// global request `first + k`; `exec` sends it and judges the answer. A
/// request not sent within [`LIMIT_TAIL_MS`] after the step ends has
/// missed the limit whatever happens next: it stays unsent.
pub fn run_step(
    rate: f64,
    dur: Duration,
    seed: u64,
    conns: usize,
    first: usize,
    tracer: &Tracer,
    exec: &(dyn Fn(usize) -> Sent + Sync),
) -> Step {
    let schedule = jittered_schedule(rate, dur, seed);
    let due = schedule.len();
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + dur + Duration::from_secs_f64(LIMIT_TAIL_MS / 1e3);
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(due));
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= due {
                    break;
                }
                let due_at = start + schedule[k];
                let now = Instant::now();
                if now < due_at {
                    std::thread::sleep(due_at - now);
                }
                let sent_at = Instant::now();
                if sent_at > end {
                    // Due inside the step but the connections stayed busy
                    // past the grace: unsent, counted as failed.
                    break;
                }
                let span = tracer.begin("http.request", None, (first + k) as u64);
                let sent = exec(first + k);
                let done = Instant::now();
                tracer.end(span);
                outcomes
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Outcome {
                        late_ms: ms(sent_at.saturating_duration_since(due_at)),
                        latency_ms: ms(done.saturating_duration_since(due_at)),
                        done_ms: ms(done.saturating_duration_since(start)),
                        sent,
                    });
            });
        }
    });
    Step {
        rate,
        due,
        outcomes: outcomes
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_stops_climbing_at_the_first_failing_rung() {
        let (best, tried) = ladder_search(|rate| rate <= 150.0);
        // 50 and 100 pass, 200 fails: nothing above 200 is ever offered.
        assert!(tried.iter().all(|&(rate, _)| rate <= 200.0), "{tried:?}");
        assert_eq!(&tried[..3], &[(50.0, true), (100.0, true), (200.0, false)]);
        // Bisection 150 ok, 175 no, 162.5 no, 156.25 no.
        assert_eq!(best, 150.0);
        assert_eq!(tried.len(), 3 + REFINE_STEPS);
    }

    #[test]
    fn ladder_refines_between_the_last_pass_and_the_first_failure() {
        let (best, _) = ladder_search(|rate| rate <= 97.0);
        // 100 fails; 75, 87.5, 93.75 and 96.875 all pass.
        assert_eq!(best, 96.875);
        let (best, tried) = ladder_search(|_| true);
        assert_eq!((best, tried.len()), (6400.0, LADDER.len()));
    }

    #[test]
    fn ladder_reports_zero_when_the_first_rung_fails() {
        let (best, tried) = ladder_search(|_| false);
        assert_eq!((best, tried), (0.0, vec![(50.0, false)]));
    }

    #[test]
    fn jittered_schedule_is_seeded_and_keeps_one_request_per_interval() {
        let dur = Duration::from_secs(10);
        let a = jittered_schedule(50.0, dur, 1);
        assert_eq!(a, jittered_schedule(50.0, dur, 1));
        assert_ne!(a, jittered_schedule(50.0, dur, 2));
        assert_eq!(a.len(), 500);
        for (k, t) in a.iter().enumerate() {
            let slot = t.as_secs_f64() * 50.0;
            assert!(slot >= k as f64 && slot < (k + 1) as f64, "{k}: {t:?}");
        }
    }

    #[test]
    fn limit_needs_no_failures_and_a_tail_within_bounds() {
        assert!(meets_limit(99.9, 0));
        assert!(meets_limit(LIMIT_TAIL_MS, 0));
        assert!(!meets_limit(100.1, 0));
        assert!(!meets_limit(1.0, 1));
    }

    fn outcome(ok: bool, latency_ms: f64) -> Outcome {
        Outcome {
            late_ms: 0.0,
            done_ms: latency_ms,
            latency_ms,
            sent: Sent {
                ok,
                overload: false,
            },
        }
    }

    #[test]
    fn unsent_requests_fail_the_step() {
        let mut step = Step {
            rate: 50.0,
            due: 30,
            outcomes: vec![outcome(true, 5.0); 30],
        };
        assert!(step.meets_limit());
        step.outcomes.pop();
        assert_eq!((step.unsent(), step.failures()), (1, 1));
        assert!(!step.meets_limit());
        step.outcomes.push(outcome(false, 5.0));
        assert_eq!(step.failures(), 1);
    }

    #[test]
    fn goodput_counts_successes_over_the_step_span() {
        let mut outcomes = vec![outcome(true, 10.0); 4];
        outcomes[3].done_ms = 2000.0;
        outcomes.push(outcome(false, 10.0));
        let step = Step {
            rate: 2.0,
            due: 5,
            outcomes,
        };
        assert_eq!(step.goodput(), 2.0);
    }

    #[test]
    fn slow_tail_fails_the_step() {
        let mut outcomes = vec![outcome(true, 5.0); 100];
        for o in outcomes.iter_mut().take(20) {
            o.latency_ms = 150.0;
        }
        let step = Step {
            rate: 50.0,
            due: 100,
            outcomes,
        };
        assert!(!step.meets_limit());
    }

    #[test]
    fn requests_are_timed_from_their_due_time() {
        let tracer = Tracer::new(false);
        let step = run_step(200.0, Duration::from_millis(100), 9, 2, 0, &tracer, &|_| {
            std::thread::sleep(Duration::from_millis(1));
            Sent {
                ok: true,
                overload: false,
            }
        });
        assert_eq!(step.due, 20);
        assert_eq!(step.failures(), 0);
        assert!(step.latencies_ms().iter().all(|&l| l >= 1.0));
    }
}
