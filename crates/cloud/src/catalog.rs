//! Instance catalogs, with the paper's Table 1 reproduced as constants.

use crate::money::Money;
use crate::provider::{InstanceType, Provider, Storage};
use serde::{Deserialize, Serialize};

/// The instance offering of one provider.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    /// Who sells these instances.
    pub provider: Provider,
    instances: Vec<InstanceType>,
}

impl Catalog {
    /// A catalog from explicit instance types.
    pub fn new(provider: Provider, instances: Vec<InstanceType>) -> Self {
        Catalog {
            provider,
            instances,
        }
    }

    /// All instance types, cheapest first as listed.
    pub fn instances(&self) -> &[InstanceType] {
        &self.instances
    }

    /// Looks an instance type up by name.
    pub fn by_name(&self, name: &str) -> Option<&InstanceType> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// The cheapest instance with at least `vcpus` and `memory_gib`.
    pub fn cheapest_fitting(&self, vcpus: u32, memory_gib: f64) -> Option<&InstanceType> {
        self.instances
            .iter()
            .filter(|i| i.vcpus >= vcpus && i.memory_gib >= memory_gib)
            .min_by_key(|i| i.price_per_hour)
    }
}

/// Table 1, upper half: the Amazon `a1` family (EBS-only storage).
pub fn amazon_a1_catalog() -> Catalog {
    let rows = [
        ("a1.medium", 1u32, 2.0, 0.0049),
        ("a1.large", 2, 4.0, 0.0098),
        ("a1.xlarge", 4, 8.0, 0.0197),
        ("a1.2xlarge", 8, 16.0, 0.0394),
        ("a1.4xlarge", 16, 32.0, 0.0788),
    ];
    Catalog::new(
        Provider::Amazon,
        rows.iter()
            .map(|&(name, vcpus, mem, price)| {
                InstanceType::new(name, vcpus, mem, Storage::EbsOnly, Money::from_dollars(price))
            })
            .collect(),
    )
}

/// Table 1, lower half: the Microsoft Azure `B` family (local storage).
pub fn azure_b_catalog() -> Catalog {
    let rows = [
        ("B1S", 1u32, 1.0, 2.0, 0.011),
        ("B1MS", 1, 2.0, 4.0, 0.021),
        ("B2S", 2, 4.0, 8.0, 0.042),
        ("B2MS", 2, 8.0, 16.0, 0.084),
        ("B4MS", 4, 16.0, 32.0, 0.166),
        ("B8MS", 8, 32.0, 64.0, 0.333),
    ];
    Catalog::new(
        Provider::Azure,
        rows.iter()
            .map(|&(name, vcpus, mem, disk, price)| {
                InstanceType::new(
                    name,
                    vcpus,
                    mem,
                    Storage::Local(disk),
                    Money::from_dollars(price),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amazon_catalog_matches_table1() {
        let cat = amazon_a1_catalog();
        assert_eq!(cat.provider, Provider::Amazon);
        assert_eq!(cat.instances().len(), 5);
        let medium = cat.by_name("a1.medium").unwrap();
        assert_eq!(medium.vcpus, 1);
        assert_eq!(medium.memory_gib, 2.0);
        assert_eq!(medium.storage, Storage::EbsOnly);
        assert_eq!(medium.price_per_hour, Money::from_dollars(0.0049));
        let xl4 = cat.by_name("a1.4xlarge").unwrap();
        assert_eq!(xl4.vcpus, 16);
        assert_eq!(xl4.price_per_hour, Money::from_dollars(0.0788));
    }

    #[test]
    fn azure_catalog_matches_table1() {
        let cat = azure_b_catalog();
        assert_eq!(cat.instances().len(), 6);
        let b2ms = cat.by_name("B2MS").unwrap();
        assert_eq!(b2ms.vcpus, 2);
        assert_eq!(b2ms.memory_gib, 8.0);
        assert_eq!(b2ms.storage, Storage::Local(16.0));
        assert_eq!(b2ms.price_per_hour, Money::from_dollars(0.084));
    }

    #[test]
    fn paper_observation_amazon_cheaper_per_shape() {
        // Section 2.2: "The price of Amazon instances are lower than the
        // price of Microsoft instances" at comparable shapes.
        let amazon = amazon_a1_catalog();
        let azure = azure_b_catalog();
        for (a_name, z_name) in [("a1.medium", "B1MS"), ("a1.large", "B2S"), ("a1.2xlarge", "B2MS")]
        {
            let a = amazon.by_name(a_name).unwrap();
            let z = azure.by_name(z_name).unwrap();
            assert!(
                a.price_per_hour < z.price_per_hour,
                "{a_name} should undercut {z_name}"
            );
        }
    }

    #[test]
    fn cheapest_fitting_search() {
        let cat = azure_b_catalog();
        let pick = cat.cheapest_fitting(2, 4.0).unwrap();
        assert_eq!(pick.name, "B2S");
        let pick = cat.cheapest_fitting(3, 1.0).unwrap();
        assert_eq!(pick.name, "B4MS");
        assert!(cat.cheapest_fitting(64, 1.0).is_none());
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(amazon_a1_catalog().by_name("m5.large").is_none());
    }
}
