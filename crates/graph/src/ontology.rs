//! Synthetic stand-ins for the paper's RDF ontology datasets.
//!
//! The paper evaluates on "a dataset of popular ontologies taken from
//! [Zhang et al.]" — RDF files we do not have. Per the substitution policy
//! in the README ("Paper → implementation map"), this module generates
//! deterministic ontology-like triple sets with the **exact** triple
//! counts of Tables 1 and 2:
//!
//! * a `subClassOf` class **DAG** (a spanning tree plus extra-parent
//!   edges — real ontologies use multiple inheritance, which is what
//!   makes the same-generation relation large),
//! * `type` edges from instance nodes into the class DAG (instances may
//!   carry several types), and
//! * inert padding predicates that Q1/Q2 never traverse (real ontologies
//!   also contain many such triples).
//!
//! Query answer *counts* therefore differ from the paper's (the real
//! ontologies' exact shapes are not reproducible from the paper), but
//! graph sizes, label distribution and the DAG-plus-inverse structure
//! that drives the algorithms' behaviour are preserved. The synthetic
//! graphs g1, g2, g3 are 8 disjoint copies of funding, wine and pizza
//! respectively — pinned down by the paper's own triple and result counts
//! (e.g. 8·1086 = 8688 and 8·17634 = 141072).

use crate::graph::Graph;
use crate::hash::WordSet;
use crate::triples::TripleSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for one synthetic ontology.
#[derive(Clone, Copy, Debug)]
pub struct OntologyProfile {
    /// Dataset name as it appears in Tables 1 and 2.
    pub name: &'static str,
    /// Exact number of triples (the `#triples` column).
    pub triples: usize,
    /// Fraction of triples that are `subClassOf` edges.
    pub class_share: f64,
    /// Fraction of triples that are `type` edges.
    pub type_share: f64,
    /// Classes per `subClassOf` edge (< 1.0 ⇒ multiple inheritance: the
    /// surplus edges become extra parents). Lower values give denser DAGs
    /// and much larger same-generation relations.
    pub class_ratio: f64,
    /// Instances per `type` edge (< 1.0 ⇒ multi-typed instances).
    pub instance_ratio: f64,
    /// Type-target class pool as a fraction of the `type` edge count;
    /// real ontologies declare many classes that never participate in
    /// `subClassOf`, so the pool can exceed the DAG's class count. Dense
    /// co-typing over a modest pool is what makes the type branch of Q1
    /// produce near-all-pairs relations (e.g. skos, generations).
    pub class_pool_ratio: f64,
    /// RNG seed (fixed per dataset for reproducibility).
    pub seed: u64,
}

/// Inert predicates padding the triple count; Q1/Q2 never traverse these.
const PADDING_PREDICATES: &[&str] = &["label", "comment", "domain", "range", "seeAlso"];

/// The 11 ontologies of Tables 1 and 2 with their exact triple counts.
/// Shape parameters are chosen so that the datasets the paper reports
/// outsized `#results` for (atom-primitive, wine, pizza, funding — up to
/// ~36 results per triple) get denser multiple-inheritance DAGs.
pub const PROFILES: &[OntologyProfile] = &[
    // class_share is calibrated against the paper's Q2 counts (Q2 only
    // traverses subClassOf, so a tiny Q2 count pins a tiny subClassOf
    // share — e.g. skos: 1 result, generations: 0); type_share,
    // class_pool_ratio and instance_ratio against the Q1 magnitudes.
    OntologyProfile {
        name: "skos",
        triples: 252,
        class_share: 0.02,
        type_share: 0.55,
        class_ratio: 0.60,
        instance_ratio: 0.40,
        class_pool_ratio: 0.25,
        seed: 0xC0FFEE01,
    },
    OntologyProfile {
        name: "generations",
        triples: 273,
        class_share: 0.01,
        type_share: 0.60,
        class_ratio: 0.60,
        instance_ratio: 0.35,
        class_pool_ratio: 0.28,
        seed: 0xC0FFEE02,
    },
    OntologyProfile {
        name: "travel",
        triples: 277,
        class_share: 0.20,
        type_share: 0.50,
        class_ratio: 0.75,
        instance_ratio: 0.45,
        class_pool_ratio: 0.30,
        seed: 0xC0FFEE03,
    },
    OntologyProfile {
        name: "univ-bench",
        triples: 293,
        class_share: 0.25,
        type_share: 0.50,
        class_ratio: 0.70,
        instance_ratio: 0.45,
        class_pool_ratio: 0.30,
        seed: 0xC0FFEE04,
    },
    OntologyProfile {
        name: "atom-primitive",
        triples: 425,
        class_share: 0.35,
        type_share: 0.30,
        class_ratio: 0.45,
        instance_ratio: 0.40,
        class_pool_ratio: 0.50,
        seed: 0xC0FFEE05,
    },
    OntologyProfile {
        name: "biomedical-measure-primitive",
        triples: 459,
        class_share: 0.45,
        type_share: 0.25,
        class_ratio: 0.40,
        instance_ratio: 0.40,
        class_pool_ratio: 0.50,
        seed: 0xC0FFEE06,
    },
    OntologyProfile {
        name: "foaf",
        triples: 631,
        class_share: 0.03,
        type_share: 0.55,
        class_ratio: 0.70,
        instance_ratio: 0.30,
        class_pool_ratio: 0.22,
        seed: 0xC0FFEE07,
    },
    OntologyProfile {
        name: "people-pets",
        triples: 640,
        class_share: 0.06,
        type_share: 0.55,
        class_ratio: 0.60,
        instance_ratio: 0.30,
        class_pool_ratio: 0.25,
        seed: 0xC0FFEE08,
    },
    OntologyProfile {
        name: "funding",
        triples: 1086,
        class_share: 0.35,
        type_share: 0.40,
        class_ratio: 0.55,
        instance_ratio: 0.40,
        class_pool_ratio: 0.35,
        seed: 0xC0FFEE09,
    },
    OntologyProfile {
        name: "wine",
        triples: 1839,
        class_share: 0.08,
        type_share: 0.55,
        class_ratio: 0.55,
        instance_ratio: 0.28,
        class_pool_ratio: 0.22,
        seed: 0xC0FFEE0A,
    },
    OntologyProfile {
        name: "pizza",
        triples: 1980,
        class_share: 0.35,
        type_share: 0.35,
        class_ratio: 0.45,
        instance_ratio: 0.35,
        class_pool_ratio: 0.35,
        seed: 0xC0FFEE0B,
    },
];

impl OntologyProfile {
    /// Generates the triple set for this profile (deterministic).
    pub fn generate(&self) -> TripleSet {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut t = TripleSet::new();

        let n_class_edges = ((self.triples as f64) * self.class_share).round() as usize;
        let n_type_edges = ((self.triples as f64) * self.type_share).round() as usize;
        let n_padding = self.triples - n_class_edges - n_type_edges;

        // --- subClassOf DAG ------------------------------------------------
        // Spanning forest over n_classes, then surplus edges as extra
        // parents (edges always point to a lower-numbered class: acyclic).
        // Grow n_classes until the DAG capacity n(n-1)/2 comfortably
        // exceeds the edge demand, so rejection sampling terminates fast.
        let mut n_classes = (((n_class_edges as f64) * self.class_ratio).round() as usize).max(2);
        while n_classes * (n_classes - 1) / 2 < 2 * n_class_edges {
            n_classes += 1;
        }
        let mut class_edges: WordSet<(usize, usize)> = WordSet::default();
        for i in 1..n_classes {
            if class_edges.len() >= n_class_edges {
                break;
            }
            let parent = rng.gen_range(0..i);
            class_edges.insert((i, parent));
        }
        while class_edges.len() < n_class_edges {
            let child = rng.gen_range(1..n_classes);
            let parent = rng.gen_range(0..child);
            class_edges.insert((child, parent));
        }
        let mut class_edges: Vec<_> = class_edges.into_iter().collect();
        class_edges.sort_unstable();
        for (child, parent) in class_edges {
            t.add(&format!("c{child}"), "subClassOf", &format!("c{parent}"));
        }

        // --- type edges -----------------------------------------------------
        // Instances carry 1+ types over a class *pool* that may exceed
        // the subClassOf DAG (classes that are only ever type targets).
        // Grow the instance pool until instance × class capacity
        // comfortably exceeds the edge demand.
        let class_pool = n_classes
            .max(((n_type_edges as f64) * self.class_pool_ratio).round() as usize)
            .max(2);
        let mut n_instances = (((n_type_edges as f64) * self.instance_ratio).round() as usize)
            .max(1)
            .min(n_type_edges.max(1));
        while n_instances * class_pool < 2 * n_type_edges {
            n_instances += 1;
        }
        let mut type_edges: WordSet<(usize, usize)> = WordSet::default();
        for j in 0..n_instances.min(n_type_edges) {
            let class = rng.gen_range(0..class_pool);
            type_edges.insert((j, class));
        }
        while type_edges.len() < n_type_edges {
            let inst = rng.gen_range(0..n_instances);
            let class = rng.gen_range(0..class_pool);
            type_edges.insert((inst, class));
        }
        let mut type_edges: Vec<_> = type_edges.into_iter().collect();
        type_edges.sort_unstable();
        for (inst, class) in type_edges {
            t.add(&format!("i{inst}"), "type", &format!("c{class}"));
        }

        // --- inert padding triples ------------------------------------------
        // Rejection-sampled distinct (s, p, o): triple sets are sets, so
        // graphs keep the exact 2-edges-per-triple relationship now that
        // `Graph::add_edge` enforces edge uniqueness.
        let mut node_pool: Vec<String> = (0..class_pool).map(|i| format!("c{i}")).collect();
        node_pool.extend((0..n_instances).map(|j| format!("i{j}")));
        let mut padding_seen: WordSet<(usize, usize, usize)> = WordSet::default();
        for k in 0..n_padding {
            let p_idx = k % PADDING_PREDICATES.len();
            loop {
                let si = rng.gen_range(0..node_pool.len());
                let oi = rng.gen_range(0..node_pool.len());
                if padding_seen.insert((p_idx, si, oi)) {
                    t.add(&node_pool[si], PADDING_PREDICATES[p_idx], &node_pool[oi]);
                    break;
                }
            }
        }

        debug_assert_eq!(t.len(), self.triples);
        t
    }
}

/// Looks up one of the 11 ontology profiles by name.
pub fn profile(name: &str) -> Option<&'static OntologyProfile> {
    PROFILES.iter().find(|p| p.name == name)
}

/// Generates a named ontology triple set (one of the 11 of Tables 1/2).
pub fn dataset(name: &str) -> Option<TripleSet> {
    profile(name).map(OntologyProfile::generate)
}

/// One entry of the evaluation suite (a row of Tables 1 and 2).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Row name (`skos`, …, `g3`).
    pub name: String,
    /// The `#triples` column value.
    pub triples: usize,
    /// The CFPQ graph (2 edges per triple: forward + inverse, §6).
    pub graph: Graph,
}

/// Builds the full 14-row evaluation suite of Tables 1 and 2: the 11
/// ontologies plus g1 = 8×funding, g2 = 8×wine, g3 = 8×pizza.
pub fn evaluation_suite() -> Vec<Dataset> {
    let mut suite: Vec<Dataset> = PROFILES
        .iter()
        .map(|p| Dataset {
            name: p.name.to_owned(),
            triples: p.triples,
            graph: p.generate().to_graph(),
        })
        .collect();
    for (gname, base) in [("g1", "funding"), ("g2", "wine"), ("g3", "pizza")] {
        let base_ds = suite
            .iter()
            .find(|d| d.name == base)
            .expect("base ontology present");
        suite.push(Dataset {
            name: gname.to_owned(),
            triples: base_ds.triples * 8,
            graph: base_ds.graph.repeat(8),
        });
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_counts_match_the_paper_exactly() {
        let expected = [
            ("skos", 252),
            ("generations", 273),
            ("travel", 277),
            ("univ-bench", 293),
            ("atom-primitive", 425),
            ("biomedical-measure-primitive", 459),
            ("foaf", 631),
            ("people-pets", 640),
            ("funding", 1086),
            ("wine", 1839),
            ("pizza", 1980),
        ];
        for (name, count) in expected {
            let t = dataset(name).unwrap_or_else(|| panic!("dataset {name}"));
            assert_eq!(t.len(), count, "{name} triple count");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset("wine").unwrap().to_text();
        let b = dataset("wine").unwrap().to_text();
        assert_eq!(a, b);
    }

    #[test]
    fn graphs_have_two_edges_per_triple() {
        let t = dataset("skos").unwrap();
        let g = t.to_graph();
        assert_eq!(g.n_edges(), 2 * t.len());
        assert!(g.get_label("subClassOf").is_some());
        assert!(g.get_label("subClassOf_r").is_some());
        assert!(g.get_label("type").is_some());
        assert!(g.get_label("type_r").is_some());
    }

    #[test]
    fn evaluation_suite_matches_table_rows() {
        let suite = evaluation_suite();
        assert_eq!(suite.len(), 14);
        let by_name = |n: &str| suite.iter().find(|d| d.name == n).unwrap();
        // g1/g2/g3 triple counts from Tables 1/2.
        assert_eq!(by_name("g1").triples, 8688);
        assert_eq!(by_name("g2").triples, 14712);
        assert_eq!(by_name("g3").triples, 15840);
        assert_eq!(
            by_name("g1").graph.n_edges(),
            8 * by_name("funding").graph.n_edges()
        );
    }

    #[test]
    fn unknown_dataset_is_none() {
        assert!(dataset("nope").is_none());
    }

    #[test]
    fn class_structure_is_an_acyclic_multi_parent_dag() {
        let t = dataset("pizza").unwrap();
        let mut n_edges = 0usize;
        let mut multi_parent = 0usize;
        let mut parents_of: std::collections::HashMap<&str, usize> =
            std::collections::HashMap::new();
        for (s, p, o) in t.iter() {
            if p == "subClassOf" {
                n_edges += 1;
                *parents_of.entry(s).or_insert(0) += 1;
                // Acyclicity invariant: edges point to lower class ids.
                let child: usize = s[1..].parse().unwrap();
                let parent: usize = o[1..].parse().unwrap();
                assert!(parent < child, "edge {s} -> {o} must go down-index");
            }
        }
        multi_parent += parents_of.values().filter(|&&d| d > 1).count();
        assert_eq!(n_edges, 693, "pizza: 0.35 * 1980 subClassOf edges");
        assert!(
            multi_parent > 50,
            "pizza must exhibit multiple inheritance, got {multi_parent}"
        );
    }

    #[test]
    fn instances_are_multi_typed() {
        let t = dataset("wine").unwrap();
        let mut types_of: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for (s, p, _) in t.iter() {
            if p == "type" {
                *types_of.entry(s).or_insert(0) += 1;
            }
        }
        assert!(
            types_of.values().any(|&d| d > 1),
            "some instance has 2+ types"
        );
    }
}
