//! QEP enumeration over the federation.
//!
//! A two-table federated query has pinned scans (tables don't move) but a
//! free join stage: which site hosts the join, which engine runs it, which
//! instance type is bought and how many VMs. Example 3.1 shows why this
//! explodes: a 70-vCPU/260-GiB pool alone yields 18 200 configurations — and
//! that is one site, one engine.

use midas_cloud::{Federation, SiteId};
use midas_engines::exec::{FederatedQuery, Fragment};
use midas_engines::{EngineError, EngineKind, Placement};
use midas_tpch::TwoTableQuery;

/// One point of the QEP configuration space.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateConfig {
    /// Site executing the join/aggregate stage.
    pub join_site: SiteId,
    /// Engine executing it.
    pub join_engine: EngineKind,
    /// Index into the join site's instance catalog.
    pub instance_idx: usize,
    /// VMs allocated to the join stage.
    pub vm_count: u32,
}

/// The enumerable configuration space of one query.
#[derive(Debug, Clone)]
pub struct EnumerationSpace {
    /// Candidate join sites (the two hosting sites by default).
    pub sites: Vec<SiteId>,
    /// Candidate engines.
    pub engines: Vec<EngineKind>,
    /// Instance-catalog size per candidate site (parallel to `sites`).
    pub instances_per_site: Vec<usize>,
    /// Maximum VM count considered.
    pub max_vms: u32,
}

impl EnumerationSpace {
    /// Builds the space for a query: join may run at either hosting site,
    /// under any engine, on any instance of that site's catalog, with
    /// 1..=`max_vms` VMs (clamped by the pool).
    pub fn for_query(
        federation: &Federation,
        placement: &Placement,
        query: &TwoTableQuery,
        max_vms: u32,
    ) -> Result<Self, EngineError> {
        let left = placement.locate(&query.left_table)?;
        let right = placement.locate(&query.right_table)?;
        let mut sites = vec![left.site];
        if right.site != left.site {
            sites.push(right.site);
        }
        let instances_per_site = sites
            .iter()
            .map(|&s| federation.site(s).catalog.instances().len())
            .collect();
        Ok(EnumerationSpace {
            sites,
            engines: EngineKind::ALL.to_vec(),
            instances_per_site,
            max_vms: max_vms.max(1),
        })
    }

    /// Genome cardinalities for the GA: `[site, engine, instance, vms]`.
    ///
    /// The instance gene spans the *largest* catalog; decoding wraps it onto
    /// the chosen site's catalog so every genome is valid.
    pub fn cardinalities(&self) -> Vec<usize> {
        let max_instances = self.instances_per_site.iter().copied().max().unwrap_or(1);
        vec![
            self.sites.len(),
            self.engines.len(),
            max_instances,
            self.max_vms as usize,
        ]
    }

    /// Decodes a GA genome into a configuration.
    pub fn decode(&self, genome: &[usize]) -> CandidateConfig {
        let site_idx = genome[0] % self.sites.len();
        CandidateConfig {
            join_site: self.sites[site_idx],
            join_engine: self.engines[genome[1] % self.engines.len()],
            instance_idx: genome[2] % self.instances_per_site[site_idx],
            vm_count: (genome[3] % self.max_vms as usize) as u32 + 1,
        }
    }

    /// Exhaustive enumeration of the whole space.
    pub fn all(&self) -> Vec<CandidateConfig> {
        let mut out = Vec::with_capacity(self.len());
        for (site_idx, &site) in self.sites.iter().enumerate() {
            for &engine in &self.engines {
                for instance_idx in 0..self.instances_per_site[site_idx] {
                    for vm in 1..=self.max_vms {
                        out.push(CandidateConfig {
                            join_site: site,
                            join_engine: engine,
                            instance_idx,
                            vm_count: vm,
                        });
                    }
                }
            }
        }
        out
    }

    /// Number of distinct configurations.
    pub fn len(&self) -> usize {
        self.instances_per_site
            .iter()
            .map(|&i| i * self.engines.len() * self.max_vms as usize)
            .sum()
    }

    /// True when the space is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Assembles the three-fragment federated query realizing a configuration.
///
/// Scan fragments run at the hosting sites on one instance of the cheapest
/// shape (index 0 of each catalog — storage-side scanning); the join
/// fragment runs per the configuration. The query's three plan trees are
/// cloned into the fragments, so a caller that serves one configuration
/// many times keeps the result: the runtime's plan cache holds one per
/// Pareto point of an entry.
pub fn assemble(
    federation: &Federation,
    placement: &Placement,
    query: &TwoTableQuery,
    config: &CandidateConfig,
) -> Result<FederatedQuery, EngineError> {
    let left = placement.locate(&query.left_table)?;
    let right = placement.locate(&query.right_table)?;

    let scan_instance = |site: SiteId| -> Result<String, EngineError> {
        federation
            .site(site)
            .catalog
            .instances()
            .first()
            .map(|i| i.name.clone())
            .ok_or_else(|| EngineError::Unavailable(format!("empty catalog at site {site:?}")))
    };
    let join_instance = federation
        .site(config.join_site)
        .catalog
        .instances()
        .get(config.instance_idx)
        .map(|i| i.name.clone())
        .ok_or_else(|| {
            EngineError::Unavailable(format!(
                "instance index {} at site {:?}",
                config.instance_idx, config.join_site
            ))
        })?;

    Ok(FederatedQuery {
        fragments: vec![
            Fragment {
                plan: query.left_prepare.clone(),
                site: left.site,
                engine: left.engine,
                instance: scan_instance(left.site)?,
                vm_count: 1,
            },
            Fragment {
                plan: query.right_prepare.clone(),
                site: right.site,
                engine: right.engine,
                instance: scan_instance(right.site)?,
                vm_count: 1,
            },
            Fragment {
                plan: query.combine.clone(),
                site: config.join_site,
                engine: config.join_engine,
                instance: join_instance,
                vm_count: config.vm_count,
            },
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_cloud::federation::example_federation;
    use midas_tpch::queries::q12;

    fn setup() -> (Federation, Placement, TwoTableQuery) {
        let (fed, a, b) = example_federation();
        let mut placement = Placement::new();
        placement.place("lineitem", a, EngineKind::Hive);
        placement.place("orders", b, EngineKind::PostgreSql);
        (fed, placement, q12("MAIL", "SHIP", 1994))
    }

    #[test]
    fn space_counts_match() {
        let (fed, placement, query) = setup();
        let space = EnumerationSpace::for_query(&fed, &placement, &query, 8).unwrap();
        assert_eq!(space.sites.len(), 2);
        // cloud-A: 5 Amazon instances, cloud-B: 6 Azure instances.
        assert_eq!(space.instances_per_site, vec![5, 6]);
        // (5 + 6) instances * 3 engines * 8 vm options.
        assert_eq!(space.len(), 11 * 3 * 8);
        assert_eq!(space.all().len(), space.len());
        assert!(!space.is_empty());
    }

    #[test]
    fn decode_wraps_onto_valid_ranges() {
        let (fed, placement, query) = setup();
        let space = EnumerationSpace::for_query(&fed, &placement, &query, 4).unwrap();
        let cards = space.cardinalities();
        assert_eq!(cards, vec![2, 3, 6, 4]);
        // A genome pointing at instance 5 on the Amazon site (5 instances)
        // must wrap to a valid index.
        let cfg = space.decode(&[0, 0, 5, 0]);
        assert!(cfg.instance_idx < 5);
        assert_eq!(cfg.vm_count, 1);
        let cfg = space.decode(&[1, 2, 5, 3]);
        assert_eq!(cfg.instance_idx, 5); // Azure has 6 instances
        assert_eq!(cfg.vm_count, 4);
    }

    #[test]
    fn assemble_produces_three_pinned_fragments() {
        let (fed, placement, query) = setup();
        let space = EnumerationSpace::for_query(&fed, &placement, &query, 4).unwrap();
        let config = CandidateConfig {
            join_site: space.sites[1],
            join_engine: EngineKind::Spark,
            instance_idx: 2,
            vm_count: 3,
        };
        let fq = assemble(&fed, &placement, &query, &config).unwrap();
        assert_eq!(fq.fragments.len(), 3);
        assert_eq!(fq.fragments[0].site, space.sites[0]); // lineitem site
        assert_eq!(fq.fragments[1].site, space.sites[1]); // orders site
        assert_eq!(fq.fragments[2].site, config.join_site);
        assert_eq!(fq.fragments[2].engine, EngineKind::Spark);
        assert_eq!(fq.fragments[2].vm_count, 3);
        assert_eq!(fq.fragments[2].instance, "B2S");
        // Scan fragments use the cheapest local shape.
        assert_eq!(fq.fragments[0].instance, "a1.medium");
        assert_eq!(fq.fragments[1].instance, "B1S");
    }

    #[test]
    fn assemble_rejects_bad_instance_index() {
        let (fed, placement, query) = setup();
        let config = CandidateConfig {
            join_site: SiteId(0),
            join_engine: EngineKind::Hive,
            instance_idx: 99,
            vm_count: 1,
        };
        assert!(assemble(&fed, &placement, &query, &config).is_err());
    }

    #[test]
    fn unplaced_table_is_an_error() {
        let (fed, _, query) = setup();
        let empty = Placement::new();
        assert!(EnumerationSpace::for_query(&fed, &empty, &query, 2).is_err());
    }
}
