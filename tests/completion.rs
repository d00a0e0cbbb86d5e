//! The scheduler's completion-callback contract, path by path.
//!
//! A job submitted with [`SubmitOptions::on_complete`] must see its
//! callback fire exactly once, after the observer's last pattern, whichever
//! way the job settles: mined, served from the cache, served behind a
//! parked single-flight leader, cancelled while queued, cut off by its
//! deadline, retried after a panic, failed, or cancelled by a drain. The
//! transport sends its final frame from that callback, so a missed, doubled
//! or early call is a hung, duplicated or truncated remote result.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_engine::{Algorithm, MineRequest};
use spidermine_faultline::{FaultInjector, FaultPlan, RetryPolicy};
use spidermine_graph::{generate, LabeledGraph};
use spidermine_service::{
    JobHandle, JobStatus, MiningService, PatternObserver, ServiceConfig, SubmitOptions,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fault plans are process-wide: every test here runs alone so an armed
/// `exec` fault can only land on the job it was meant for.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A host big enough that SpiderMine takes real time.
fn slow_graph() -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 400, 2.0, 30);
    let pattern = generate::random_connected_pattern(&mut rng, 10, 30, 3);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

fn small_graph() -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 120, 2.0, 8);
    let pattern = generate::random_connected_pattern(&mut rng, 6, 8, 2);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

fn request(seed: u64) -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(5)
        .d_max(6)
        .seed(seed)
}

fn service(dispatchers: usize) -> MiningService {
    let service = MiningService::new(ServiceConfig {
        dispatchers,
        ..ServiceConfig::default()
    });
    service.catalog().register("small", small_graph());
    service.catalog().register("slow", slow_graph());
    service
}

#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Pattern,
    /// The callback fired: the job's status, its outcome's pattern count
    /// (`None` for a failed job) and whether it was cache-served.
    Complete(JobStatus, Option<usize>, bool),
}

/// What one probed job's observer and callback saw, in order.
#[derive(Clone, Default)]
struct Probe(Arc<Mutex<Vec<Seen>>>);

impl Probe {
    fn options(&self) -> SubmitOptions {
        let seen = self.0.clone();
        let observer: PatternObserver = Arc::new(move |_| seen.lock().unwrap().push(Seen::Pattern));
        let seen = self.0.clone();
        SubmitOptions {
            observer: Some(observer),
            on_complete: Some(Box::new(move |handle: &JobHandle| {
                // The handle is terminal when the callback runs.
                assert!(handle.status().is_terminal());
                let patterns = handle.wait().ok().map(|o| o.patterns.len());
                let from_cache = handle.metrics().is_some_and(|m| m.from_cache);
                seen.lock()
                    .unwrap()
                    .push(Seen::Complete(handle.status(), patterns, from_cache));
            })),
            ..SubmitOptions::default()
        }
    }

    /// Waits for the callback, then checks the contract: exactly one
    /// completion, last, after one observer call per outcome pattern.
    /// Returns the completion.
    fn settled(&self) -> Seen {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if self.0.lock().unwrap().iter().any(|s| s != &Seen::Pattern) {
                break;
            }
            assert!(Instant::now() < deadline, "completion callback never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A doubled call would land right behind the first.
        std::thread::sleep(Duration::from_millis(20));
        let seen = self.0.lock().unwrap().clone();
        let completions = seen.iter().filter(|s| **s != Seen::Pattern).count();
        assert_eq!(
            completions, 1,
            "callback fired {completions} times: {seen:?}"
        );
        let complete = seen.last().expect("non-empty").clone();
        assert_ne!(
            complete,
            Seen::Pattern,
            "a pattern arrived after completion"
        );
        if let Seen::Complete(_, Some(count), _) = complete {
            assert_eq!(seen.len() - 1, count, "one observer call per pattern");
        }
        complete
    }
}

fn submit(service: &MiningService, graph: &str, request: MineRequest) -> (JobHandle, Probe) {
    let probe = Probe::default();
    let handle = service
        .submit_with_options(graph, request, probe.options())
        .expect("admitted");
    (handle, probe)
}

#[test]
fn fires_once_for_mined_and_cache_served_jobs() {
    let _serial = serial();
    let service = service(2);
    let (first, probe) = submit(&service, "small", request(11));
    let mined = probe.settled();
    assert!(matches!(mined, Seen::Complete(JobStatus::Done, Some(n), false) if n > 0));
    assert_eq!(first.status(), JobStatus::Done);

    let (_, probe) = submit(&service, "small", request(11));
    let cached = probe.settled();
    assert!(matches!(cached, Seen::Complete(JobStatus::Done, Some(n), true) if n > 0));
}

#[test]
fn fires_once_for_both_sides_of_a_single_flight() {
    let _serial = serial();
    let service = service(2);
    let (_, leader) = submit(&service, "slow", request(3));
    let (_, duplicate) = submit(&service, "slow", request(3));
    let results = [leader.settled(), duplicate.settled()];
    let served: Vec<bool> = results
        .iter()
        .map(|r| match r {
            Seen::Complete(JobStatus::Done, Some(_), from_cache) => *from_cache,
            other => panic!("unexpected completion {other:?}"),
        })
        .collect();
    assert_eq!(served.iter().filter(|&&c| c).count(), 1, "{results:?}");
}

#[test]
fn fires_once_when_cancelled_while_queued_and_at_a_deadline() {
    let _serial = serial();
    let service = service(1);
    let (blocker, blocker_probe) = submit(&service, "slow", request(4));
    let (queued, queued_probe) = submit(&service, "small", request(12));
    queued.cancel();
    assert_eq!(
        queued_probe.settled(),
        Seen::Complete(JobStatus::Cancelled, Some(0), false)
    );
    blocker.cancel();
    assert!(matches!(
        blocker_probe.settled(),
        Seen::Complete(JobStatus::Cancelled | JobStatus::Done, Some(_), false)
    ));

    let (timed, probe) = submit(&service, "slow", request(5).deadline_ms(1));
    assert!(matches!(
        probe.settled(),
        Seen::Complete(JobStatus::Cancelled, Some(_), false)
    ));
    assert!(timed.wait().expect("timeouts are not errors").timed_out);
}

#[test]
fn fires_once_after_a_panic_retry_and_after_a_failure() {
    let _serial = serial();
    let service = service(1);
    let plan = FaultPlan::parse("exec:0:panic").expect("valid plan");

    let injector = FaultInjector::install(&plan);
    let probe = Probe::default();
    let handle = service
        .submit_with_options(
            "small",
            request(13),
            SubmitOptions {
                retry: Some(RetryPolicy::fast(3)),
                ..probe.options()
            },
        )
        .expect("admitted");
    assert!(matches!(
        probe.settled(),
        Seen::Complete(JobStatus::Done, Some(_), false)
    ));
    assert_eq!(handle.metrics().expect("terminal").retries, 1);
    assert_eq!(injector.fired_count(), 1);
    drop(injector);

    let injector = FaultInjector::install(&plan);
    let probe = Probe::default();
    service
        .submit_with_options(
            "small",
            request(14),
            SubmitOptions {
                retry: Some(RetryPolicy::none()),
                ..probe.options()
            },
        )
        .expect("admitted");
    assert_eq!(
        probe.settled(),
        Seen::Complete(JobStatus::Failed, None, false)
    );
    assert_eq!(injector.fired_count(), 1);
}

#[test]
fn fires_once_for_every_job_a_drain_cancels() {
    let _serial = serial();
    let service = service(1);
    let running = submit(&service, "slow", request(6)).1;
    let queued = submit(&service, "slow", request(7)).1;
    // Two slow mines cannot both finish inside 20 ms: the drain cancels
    // whatever is still running or queued at its deadline.
    service.drain(Duration::from_millis(20));
    let cancelled = [running, queued]
        .iter()
        .map(|probe| match probe.settled() {
            Seen::Complete(status @ (JobStatus::Cancelled | JobStatus::Done), Some(_), false) => {
                status
            }
            other => panic!("unexpected completion {other:?}"),
        })
        .filter(|&status| status == JobStatus::Cancelled)
        .count();
    assert!(cancelled >= 1, "the drain cancelled nothing");
}

#[test]
fn rejected_submissions_never_fire() {
    let _serial = serial();
    let service = service(1);
    let probe = Probe::default();
    assert!(service
        .submit_with_options("ghost", request(1), probe.options())
        .is_err());
    std::thread::sleep(Duration::from_millis(20));
    assert!(probe.0.lock().unwrap().is_empty());
}
