//! The runtime's unit tests: the admission queue's service order, a
//! cached plan's memo against assembly and keying, and the error text.

use super::*;
use midas_tpch::queries::q12;

fn job(tenant: &str) -> RuntimeJob {
    RuntimeJob::new(tenant, q12("MAIL", "SHIP", 1994), QueryPolicy::balanced())
}

/// A valid admission at weight `weight` over an empty catalog.
fn admission(weight: u64) -> Admission {
    let q = q12("MAIL", "SHIP", 1994);
    Admission {
        pinned: VersionedCatalog::new(Catalog::new()).current(),
        weight,
        queued_clock_s: 0.0,
        pressure: Vec::new(),
        fingerprint: PlanFingerprint::of_plans([&q.left_prepare, &q.right_prepare, &q.combine]),
        scans: Arc::from([]),
        rejection: None,
    }
}

/// One worker's view of a queue: each [`Worker::serve`] completes the job
/// the worker holds, if any, and takes its next one, as `worker_loop` does.
#[derive(Default)]
struct Worker {
    held: Option<String>,
}

impl Worker {
    /// The tenant of the job taken, `None` once the closed queue drained.
    fn serve(&mut self, q: &JobQueue) -> Option<String> {
        let next = q.next(self.held.as_deref());
        self.held = next.map(|j| j.job.tenant);
        self.held.clone()
    }
}

#[test]
fn pop_is_round_robin_and_retires_departed_tenants_once_closed() {
    let q = JobQueue::default();
    for (tenant, n) in [("a", 3usize), ("b", 1), ("c", 2)] {
        for _ in 0..n {
            q.submit(job(tenant), admission(1));
        }
    }
    q.close();
    let mut order = Vec::new();
    let mut w = Worker::default();
    while let Some(tenant) = w.serve(&q) {
        order.push(tenant);
    }
    // Retirement never perturbs the round-robin service order…
    assert_eq!(order, ["a", "b", "c", "a", "c", "a"]);
    // …and a drained closed queue holds no dead tenant FIFOs.
    let state = lock_recover(&q.state);
    assert!(state.tenants.is_empty());
    assert!(state.index.is_empty());
}

#[test]
fn weighted_tenants_get_proportional_service() {
    let q = JobQueue::default();
    for _ in 0..6 {
        q.submit(job("heavy"), admission(3));
    }
    for _ in 0..3 {
        q.submit(job("light"), admission(1));
    }
    q.close();
    let mut order = Vec::new();
    let mut w = Worker::default();
    while let Some(tenant) = w.serve(&q) {
        order.push(tenant);
    }
    // Deficit round-robin: 3 heavy pops per light pop, and the tail
    // drains heavy's leftovers once light departs.
    assert_eq!(
        order,
        ["heavy", "heavy", "heavy", "light", "heavy", "heavy", "heavy", "light", "light"]
    );
}

#[test]
fn in_flight_tenants_are_skipped_until_completion() {
    let q = JobQueue::default();
    q.submit(job("a"), admission(1));
    q.submit(job("a"), admission(1));
    q.submit(job("b"), admission(1));
    q.close();
    // A's first job is in flight; the next pop must skip to b even
    // though a's FIFO still holds a job.
    let (mut w1, mut w2) = (Worker::default(), Worker::default());
    assert_eq!(w1.serve(&q).unwrap(), "a");
    assert_eq!(w2.serve(&q).unwrap(), "b");
    // Completing a's job releases its second one.
    assert_eq!(w1.serve(&q).unwrap(), "a");
    assert!(w2.serve(&q).is_none());
    assert!(w1.serve(&q).is_none());
}

#[test]
fn retirement_rebases_the_cursor_onto_the_next_survivor() {
    let q = JobQueue::default();
    q.submit(job("a"), admission(1));
    q.submit(job("b"), admission(1));
    q.submit(job("c"), admission(1));
    q.submit(job("c"), admission(1));
    // Serve a and b while open (cursor now points at c)…
    let mut w = Worker::default();
    assert_eq!(w.serve(&q).unwrap(), "a");
    assert_eq!(w.serve(&q).unwrap(), "b");
    q.close();
    // …then retirement removes both departed tenants *before* the
    // cursor; service continues exactly at c.
    assert_eq!(w.serve(&q).unwrap(), "c");
    {
        let state = lock_recover(&q.state);
        assert_eq!(state.tenants.len(), 1);
        assert_eq!(state.cursor, 0);
    }
    assert_eq!(w.serve(&q).unwrap(), "c");
    assert!(w.serve(&q).is_none());
}

#[test]
fn retirement_repoints_the_index_at_survivors_compacted_slots() {
    let q = JobQueue::default();
    q.submit(job("a"), admission(1));
    q.submit(job("b"), admission(1));
    q.submit(job("b"), admission(1));
    let mut w = Worker::default();
    assert_eq!(w.serve(&q).unwrap(), "a");
    q.close();
    // Retirement drops a (slot 0) and compacts b from slot 1 to 0.
    assert_eq!(w.serve(&q).unwrap(), "b");
    {
        let state = lock_recover(&q.state);
        assert_eq!(state.index.get("b"), Some(&0));
        assert!(!state.index.contains_key("a"));
    }
    // A submission routed through the index after compaction must land
    // in b's (moved) FIFO, not panic on a stale slot.
    q.submit(job("b"), admission(1));
    assert_eq!(w.serve(&q).unwrap(), "b");
    assert_eq!(w.serve(&q).unwrap(), "b");
    assert!(w.serve(&q).is_none());
}

#[test]
fn one_shot_tenants_do_not_accumulate_after_close() {
    let q = JobQueue::default();
    for i in 0..100 {
        q.submit(job(&format!("tenant-{i}")), admission(1));
    }
    assert_eq!(lock_recover(&q.state).tenants.len(), 100);
    q.close();
    let mut served = 0;
    let mut w = Worker::default();
    while w.serve(&q).is_some() {
        served += 1;
        // Once closed, tenants retire as their FIFOs drain: the
        // rotation shrinks monotonically instead of scanning 100 dead
        // queues per pop forever.
        assert!(lock_recover(&q.state).tenants.len() <= 100 - served + 1);
    }
    assert_eq!(served, 100);
    assert!(lock_recover(&q.state).tenants.is_empty());
}

/// A cached plan's memo hands every run the keys `fragment_keys`
/// computes from a freshly assembled query, and the very fragments
/// `assemble` builds: for the paper's and the medical queries, under
/// every scope, at every Pareto index of every entry — the entry's one
/// key set serves every configuration. Each shared entry is checked by
/// a second tenant after the first tenant's check (or its jobs) filled
/// it.
#[test]
fn a_cached_plans_memo_serves_what_assembly_and_keying_compute() {
    use crate::Midas;
    use midas_engines::exec::Fragment;
    use midas_tpch::gen::{GenConfig, TpchDb};
    use midas_tpch::medical::{generate_medical, medical_query};
    use midas_tpch::queries::{q13, q14, q17};

    let (tpch, _, _) =
        Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let (medical, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let deployments = [
        (
            tpch,
            TpchDb::generate(GenConfig::new(0.002, 5)).catalog().clone(),
            vec![
                q12("MAIL", "SHIP", 1994),
                q13("special", "requests"),
                q14(1995, 3),
                q17("Brand#23", "MED BOX"),
            ],
        ),
        (
            medical,
            generate_medical(200, 0.5, 7),
            ["CT", "MR", "US", "XR", "PET"].map(|m| medical_query(Some(m))).to_vec(),
        ),
    ];
    let tenants = ["hospital-a", "hospital-b"];
    let policies = [QueryPolicy::balanced(), QueryPolicy::fastest(), QueryPolicy::cheapest()];
    let shape =
        |f: &Fragment| (f.plan.clone(), f.site, f.engine, f.instance.clone(), f.vm_count);
    for (midas, catalog, queries) in &deployments {
        let (federation, placement) = (midas.federation(), midas.placement());
        for scope in [CacheScope::PerTenant, CacheScope::FederationGlobal] {
            let runtime = FederationRuntime::new(
                federation,
                placement,
                catalog.clone(),
                RuntimeConfig {
                    workers: 1,
                    max_vms: 2,
                    cache_scope: scope,
                    ..RuntimeConfig::default()
                },
            );
            let mut jobs = Vec::new();
            for tenant in tenants {
                for query in queries {
                    for policy in &policies {
                        jobs.push(RuntimeJob::new(tenant, query.clone(), policy.clone()));
                    }
                }
            }
            let report = runtime.run(jobs);
            assert!(report.failed.is_empty(), "{:?}", report.failed);
            // A fresh copy of the identities, not the version's own map.
            let ids = runtime.versioned_catalog().current().table_ids();
            let plan_cache = runtime.plan_cache.as_ref().expect("plan cache on");
            for tenant in tenants {
                let binding = ResultCacheBinding {
                    cache: runtime.fragment_cache.as_ref().expect("fragment cache on"),
                    scope,
                    tenant,
                    table_ids: &ids,
                };
                for query in queries {
                    let plans = [&query.left_prepare, &query.right_prepare, &query.combine];
                    let scans: Vec<String> =
                        scanned_base_tables(&plans).into_iter().map(String::from).collect();
                    let fingerprint = PlanFingerprint::of_plans(plans);
                    let key = runtime.plan_key(tenant, query, &fingerprint, &scans, &ids);
                    let entry = plan_cache.get(&key.expect("keyed")).expect("cached");
                    for (index, (config, _)) in entry.costed.pareto.iter().enumerate() {
                        let ctx = format!("{scope:?}/{tenant}/{}/{index}", query.label);
                        let served = entry
                            .served(index, federation, placement, query)
                            .expect("assembles");
                        let fresh = assemble(federation, placement, query, config)
                            .expect("assembles");
                        let plans: Vec<_> = fresh.fragments.iter().map(|f| &f.plan).collect();
                        assert_eq!(entry.keys, fragment_keys(&plans, binding), "{ctx}");
                        assert_eq!(entry.keys.len(), 3, "{ctx}");
                        assert!(entry.keys.iter().all(Option::is_some), "{ctx}");
                        let memo: Vec<_> = served.fragments.iter().map(shape).collect();
                        let assembled: Vec<_> = fresh.fragments.iter().map(shape).collect();
                        assert_eq!(memo, assembled, "{ctx}");
                    }
                }
            }
        }
    }
}

#[test]
fn runtime_error_formats_every_variant_with_context() {
    let p = RuntimeError::WorkerPanicked("boom".to_string());
    assert_eq!(p.to_string(), "worker panicked: boom");
    let s = RuntimeError::Scheduler(SchedulerError::MissingTable {
        table: "ghost".to_string(),
    });
    assert!(s.to_string().contains("ghost"));
    let u = RuntimeError::SiteUnavailable {
        tenant: "hospital-A".to_string(),
        site: SiteId(2),
        attempts: 3,
    };
    let text = u.to_string();
    assert!(text.contains("hospital-A") && text.contains("site 2") && text.contains('3'));
    let d = RuntimeError::DeadlineExceeded {
        tenant: "hospital-B".to_string(),
        deadline_s: 1.5,
        elapsed_s: 9.0,
        attempts: 2,
    };
    let text = d.to_string();
    assert!(text.contains("hospital-B") && text.contains("1.5") && text.contains('9'));
    let qe = RuntimeError::Quarantined {
        tenant: "rogue".to_string(),
        failures: 3,
        remaining_cooloff: 7,
    };
    let text = qe.to_string();
    assert!(text.contains("rogue") && text.contains('7'));
}

/// Workers parked on a tenant's in-flight flag, or on an empty queue, are
/// woken by every event that could let them proceed or exit: a 50-job
/// burst from one tenant parks three of four workers on its flag, and
/// jobs submitted after a drain barrier find parked workers again. A lost
/// wake-up hangs the service, which fails the test by its timeout instead
/// of hanging the suite.
#[test]
fn parked_workers_miss_no_wake_up() {
    use crate::Midas;
    use midas_tpch::medical::{generate_medical, medical_query};

    let (sender, receiver) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(200, 0.5, 3),
            RuntimeConfig {
                workers: 4,
                max_vms: 2,
                ..RuntimeConfig::default()
            },
        );
        let job = |tenant: &str| {
            RuntimeJob::new(tenant, medical_query(Some("CT")), QueryPolicy::balanced())
        };
        let ((), report) = rt.serve(|ingress| {
            for _ in 0..50 {
                ingress.submit(job("burst"));
            }
            ingress.drain();
            for tenant in ["burst", "late-a", "late-b"] {
                for _ in 0..5 {
                    ingress.submit(job(tenant));
                }
            }
        });
        // A closed receiver means the test already failed by timeout.
        let _ = sender.send((report.completed.len(), report.failed.len()));
    });
    let served = receiver
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the service finished: no parked worker missed its wake-up");
    assert_eq!(served, (65, 0));
}
