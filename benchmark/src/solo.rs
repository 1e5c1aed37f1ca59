//! The solo workloads: one caller on a split `C2piSession` over the
//! in-memory transport, both protocol phases timed in one run.

use crate::metrics::Report;
use crate::trace::{Recorder, TracedTransport};
use crate::workload::{self, request_span, span, Checker, Workload};
use crate::Measured;
use c2pi_core::{C2pi, C2piSession, InferenceResult};
use c2pi_transport::MemTransport;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed inferences that end set-up. Few, so that set-up time is mostly
/// dealing — compute, which repeats well — and not inference round trips,
/// whose wake-up latencies drift with the host's load.
const WARM_UP: usize = 2;

/// A built, warmed-up session and how many inferences it has served
/// (the index into its inputs and its defense-noise stream).
pub struct Solo<'a> {
    seed: u64,
    rec: Option<&'a Arc<Recorder>>,
    session: C2piSession,
    served: usize,
}

impl<'a> Solo<'a> {
    /// Set-up as a user pays it: compile the session, deal one round's
    /// stock, serve [`WARM_UP`] checked inferences from it. Returns the
    /// seconds it took. With a recorder the session's channels are
    /// traced ones.
    pub fn set_up(
        workload: Workload,
        round: usize,
        seed: u64,
        rec: Option<&'a Arc<Recorder>>,
        checker: &Checker,
        report: &mut Report,
    ) -> (Self, f64) {
        let start = Instant::now();
        let builder = C2pi::builder(workload::model())
            .split_at(workload::SPLIT)
            .noise(workload::NOISE)
            .noise_seed(workload::noise_master(seed))
            .backend(workload.backend);
        let builder = match rec {
            Some(rec) => builder.transport(TracedTransport::new(MemTransport, rec)),
            None => builder,
        };
        let session = builder.build().expect("the demo deployment compiles");
        let mut solo = Solo { seed, rec, session, served: 0 };
        solo.session.preprocess(round).expect("the dealer accepts the compiled plan");
        for _ in 0..WARM_UP {
            solo.infer_checked(checker, report);
        }
        (solo, start.elapsed().as_secs_f64())
    }

    /// One `infer` on the next input, checked against the clear model.
    /// Returns the caller's wait in seconds and the result.
    fn infer_checked(
        &mut self,
        checker: &Checker,
        report: &mut Report,
    ) -> Option<(f64, InferenceResult)> {
        let index = self.served;
        self.served += 1;
        let x = workload::input(self.seed, index as u64);
        let (wall, got) = {
            let _span = request_span(self.rec, "C2piSession::infer");
            let start = Instant::now();
            let got = self.session.infer(&x);
            (start.elapsed().as_secs_f64(), got)
        };
        let verdict = got.map_err(|e| e.to_string()).and_then(|got| {
            checker.check_split(&x, &got, workload::noise_master(self.seed), index).map(|()| got)
        });
        report.check(verdict.is_ok(), || {
            format!("inference {index}: {}", verdict.as_ref().unwrap_err())
        });
        verdict.ok().map(|got| (wall, got))
    }

    /// Rounds of topping the pool up to `round` sets (`preprocess`) then
    /// `round` × `infer`, until `seconds` have passed (at least one
    /// round; the round in flight finishes). Only the first round finds
    /// stock left over, from set-up.
    pub fn run(
        &mut self,
        round: usize,
        seconds: f64,
        checker: &Checker,
        report: &mut Report,
        out: &mut Measured,
    ) {
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        loop {
            let need = round.saturating_sub(self.session.ledger().available as usize);
            if need > 0 {
                let _span = span(self.rec, "C2piSession::preprocess");
                let t = Instant::now();
                self.session.preprocess(need).expect("the dealer accepts the compiled plan");
                out.deal_rates.push(need as f64 / t.elapsed().as_secs_f64());
            }
            let mut online = 0.0;
            let mut correct = 0usize;
            for _ in 0..round {
                if let Some((wall, got)) = self.infer_checked(checker, report) {
                    online += wall;
                    correct += 1;
                    out.wait_ms.push(wall * 1e3);
                    out.party_ms.push(got.report.online_seconds * 1e3);
                    out.note_counts(&got.report, report);
                }
            }
            if correct > 0 {
                out.inf_rates.push(correct as f64 / online);
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        out.ledger = self.session.ledger();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2pi_pi::OpCounts;
    use c2pi_transport::TrafficSnapshot;

    /// One round of the Cheetah solo workload; its exact-count metrics.
    fn exact_counts(seed: u64) -> (Option<TrafficSnapshot>, Option<OpCounts>, u64, u64) {
        let workload = Workload::by_name("solo_cheetah_split").expect("a workload name");
        let checker = Checker::new();
        let mut report = Report::default();
        let mut m = Measured::default();
        let (mut solo, _) = Solo::set_up(workload, 3, seed, None, &checker, &mut report);
        solo.run(3, 0.0, &checker, &mut report, &mut m);
        assert!(report.correct(), "seed {seed}: a reply was wrong");
        assert_eq!((m.wait_ms.len(), m.inf_rates.len(), m.deal_rates.len()), (3, 1, 1));
        let sets = m.ledger.generated_offline;
        assert_eq!((sets, m.ledger.generated_inline), (5, 0));
        (m.online, m.counts, m.ledger.seed_bytes / sets, m.ledger.expanded_bytes / sets)
    }

    #[test]
    fn exact_counts_do_not_depend_on_the_seed() {
        let first = exact_counts(1);
        assert!(first.0.is_some_and(|online| online.flights > 0 && online.bytes_total() > 0));
        assert_eq!(first, exact_counts(2));
    }
}
