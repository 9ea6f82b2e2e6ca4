//! Federation-level scenarios: multi-provider assembly, billing goldens,
//! and the Example 3.1 pool arithmetic.

use midas_cloud::federation::example_federation;
use midas_cloud::{
    amazon_a1_catalog, azure_b_catalog, Catalog, Federation, InstanceType, Link, Money,
    PricingModel, Provider, ResourcePool, Site, Storage,
};

/// A synthetic Google-flavoured catalog for three-provider federations.
///
/// Google is in the paper's architecture (Figure 1) but not in Table 1, so
/// these shapes interpolate between the two published catalogs.
fn google_synthetic_catalog() -> Catalog {
    let rows = [
        ("e2-small", 1u32, 2.0, 0.0084),
        ("e2-medium", 2, 4.0, 0.0168),
        ("e2-standard-4", 4, 16.0, 0.0670),
        ("e2-standard-8", 8, 32.0, 0.1340),
    ];
    Catalog::new(
        Provider::Google,
        rows.iter()
            .map(|&(name, vcpus, mem, price)| {
                InstanceType::new(
                    name,
                    vcpus,
                    mem,
                    Storage::EbsOnly,
                    Money::from_dollars(price),
                )
            })
            .collect(),
    )
}

#[test]
fn three_provider_federation_assembles() {
    let mut fed = Federation::new();
    let a = fed.add_site(Site {
        name: "aws".to_string(),
        catalog: amazon_a1_catalog(),
        pricing: PricingModel::per_second(Money::from_dollars(0.09)),
        pool: ResourcePool::new(70, 260),
    });
    let b = fed.add_site(Site {
        name: "azure".to_string(),
        catalog: azure_b_catalog(),
        pricing: PricingModel::per_second(Money::from_dollars(0.087)),
        pool: ResourcePool::new(32, 128),
    });
    let g = fed.add_site(Site {
        name: "gcp".to_string(),
        catalog: google_synthetic_catalog(),
        pricing: PricingModel::per_second(Money::from_dollars(0.08)),
        pool: ResourcePool::new(48, 192),
    });
    fed.connect_symmetric(a, b, Link::new(60.0, 35.0));
    fed.connect_symmetric(b, g, Link::new(80.0, 25.0));
    // a↔g deliberately unspecified: must fall back to the default WAN.
    assert_eq!(fed.n_sites(), 3);
    assert_eq!(fed.site(g).catalog.provider, Provider::Google);
    let explicit = fed.transfer(a, b, 64 * 1024 * 1024);
    let implicit = fed.transfer(a, g, 64 * 1024 * 1024);
    assert!(implicit.seconds > explicit.seconds, "default WAN is slower");
}

#[test]
fn billing_golden_one_hour_of_b2s() {
    // B2S at $0.042/h for exactly one hour, 4 instances = $0.168.
    let azure = azure_b_catalog();
    let b2s = azure.by_name("B2S").expect("catalog constant");
    let pm = PricingModel::per_second(Money::ZERO);
    let cost = pm.instance_cost(b2s, 4, 3600.0);
    assert_eq!(cost, Money::from_dollars(0.168));
}

#[test]
fn billing_golden_mixed_job() {
    // A federated job: 2x a1.xlarge for 300 s + egress of 1.5 GiB at $0.09.
    let amazon = amazon_a1_catalog();
    let xl = amazon.by_name("a1.xlarge").expect("catalog constant");
    let pm = PricingModel::per_second(Money::from_dollars(0.09));
    let compute = pm.instance_cost(xl, 2, 300.0);
    let egress = pm.egress_cost(1_610_612_736); // 1.5 GiB
    // 0.0197 * 2 * 300/3600 = 0.00328(3); egress = 0.135.
    assert!((compute.as_dollars() - 0.003283).abs() < 1e-5);
    assert_eq!(egress, Money::from_dollars(0.135));
    assert!((compute + egress).as_dollars() > 0.138);
}

#[test]
fn example_3_1_pool_counts() {
    let (fed, a, b) = example_federation();
    assert_eq!(fed.site(a).pool.configuration_count(), 18_200);
    // Cloud B's pool is smaller — and its count follows the same arithmetic.
    let pool_b = fed.site(b).pool;
    assert_eq!(
        pool_b.configuration_count(),
        u64::from(pool_b.vcpus) * u64::from(pool_b.memory_gib)
    );
}

#[test]
fn max_instances_respects_both_dimensions() {
    let azure = azure_b_catalog();
    let b8ms = azure.by_name("B8MS").expect("catalog constant"); // 8 vCPU / 32 GiB
    let cpu_bound = ResourcePool::new(24, 1024);
    let mem_bound = ResourcePool::new(1024, 96);
    assert_eq!(cpu_bound.max_instances(b8ms), 3);
    assert_eq!(mem_bound.max_instances(b8ms), 3);
    assert!(cpu_bound.fits(b8ms, 3));
    assert!(!cpu_bound.fits(b8ms, 4));
}

#[test]
fn money_is_exact_over_many_small_charges() {
    // One micro-dollar at a time, a million times: no float drift.
    let mut total = Money::ZERO;
    for _ in 0..1_000_000 {
        total += Money::from_micros(1);
    }
    assert_eq!(total, Money::from_dollars(1.0));
}

#[test]
fn transfer_cost_asymmetry_follows_egress_pricing() {
    let (fed, a, b) = example_federation();
    let bytes = 2 * 1024 * 1024 * 1024u64; // 2 GiB
    let ab = fed.transfer_cost(a, b, bytes);
    let ba = fed.transfer_cost(b, a, bytes);
    // Cloud A charges $0.09/GiB, cloud B $0.087/GiB.
    assert_eq!(ab, Money::from_dollars(0.18));
    assert_eq!(ba, Money::from_dollars(0.174));
}
