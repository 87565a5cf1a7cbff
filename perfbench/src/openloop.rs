//! Open-loop request timing.
//!
//! An open-loop generator sends request `i` when it is due, whatever
//! happened to earlier requests. With one connection, a reply that
//! arrives after the next request's due time holds that request back;
//! the daemon caused that wait, so the held-back request is timed from
//! its due time. When the generator was idle instead, it sleeps until
//! the due time and wakes a little late; that overshoot is the
//! generator's own, so the request is timed from its actual send and
//! the overshoot is reported separately as generator lag.

use std::time::{Duration, Instant};

/// A fixed-rate schedule: request `i` is due `i / rate` seconds after
/// `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When request 0 is due.
    pub start: Instant,
    /// Requests per second.
    pub rate: f64,
}

impl Schedule {
    /// Due time of request `i`.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// Where a request's latency is charged from, given when it was `due`,
/// when the previous reply arrived (`ready`) and when it was actually
/// `sent`; plus, for an idle generator, its lag to report.
pub fn charge(due: Instant, ready: Instant, sent: Instant) -> (Instant, Option<Duration>) {
    if ready > due {
        // Held back by a late reply: the wait since `due` is the
        // daemon's doing.
        (due, None)
    } else {
        // Idle generator: its wake-up overshoot is not the daemon's.
        (sent, Some(sent.saturating_duration_since(due)))
    }
}

/// Sleeps until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// Drives a simulated one-connection generator on a 10 ms schedule
    /// that oversleeps by 0.3 ms whenever it sleeps, reply `i` taking
    /// `service_ms[i]`. Returns each request's charged latency in ms
    /// and the lags recorded.
    fn simulate(service_ms: &[u32]) -> (Vec<f64>, Vec<Duration>) {
        let schedule = Schedule { start: Instant::now(), rate: 100.0 };
        let overshoot = MS * 3 / 10;
        let (mut latencies, mut lags) = (Vec::new(), Vec::new());
        let mut ready = schedule.start;
        for (i, &s) in service_ms.iter().enumerate() {
            let due = schedule.due(i as u64);
            let sent = if ready > due { ready } else { due + overshoot };
            let reply = sent + MS * s;
            let (start, lag) = charge(due, ready, sent);
            latencies.push((reply - start).as_secs_f64() * 1e3);
            lags.extend(lag);
            ready = reply;
        }
        (latencies, lags)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_of_every_request_it_delays() {
        // Request 1 stalls for 35 ms.
        let (lat, lags) = simulate(&[1, 35, 1, 1, 1, 1]);
        assert!(close(lat[0], 1.0), "idle send: overshoot not charged ({})", lat[0]);
        assert!(close(lat[1], 35.0));
        // Requests 2–4 were due at 20, 30, 40 ms but could only go out
        // once the stalled reply arrived at 45.3 ms.
        assert!(close(lat[2], 46.3 - 20.0), "{}", lat[2]);
        assert!(close(lat[3], 47.3 - 30.0));
        assert!(close(lat[4], 48.3 - 40.0));
        // Request 5 (due 50 ms) finds the generator idle again.
        assert!(close(lat[5], 1.0));
        // Lag is recorded only for idle sends: requests 0, 1 and 5.
        assert_eq!(lags, vec![MS * 3 / 10; 3]);
    }
}
