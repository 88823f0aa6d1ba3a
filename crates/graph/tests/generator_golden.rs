//! Golden values for the seeded generators the whole-stack benchmark
//! draws its graphs from. The generators lean on [`Graph::add_edge`] to
//! reject duplicates; these pins prove that doing so left the RNG draw
//! sequence and the insertion order — hence every benchmark input —
//! exactly as they were (values taken from the commit before the
//! generators dropped their own `seen` sets).

use cfpq_graph::ontology::{self, OntologyProfile};
use cfpq_graph::{generators, Graph};

/// Edge count plus an order-sensitive FNV-1a fold of the edge list.
fn fingerprint(g: &Graph) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in g.edges() {
        for word in [e.from, e.label.index() as u32, e.to] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (g.n_edges(), h)
}

#[test]
fn seeded_generators_are_pinned() {
    let ab = ["a", "b"];
    assert_eq!(
        fingerprint(&generators::clustered_blocks(5, 8, 3, &ab, 7)),
        (200, 5_154_586_738_195_619_718)
    );
    assert_eq!(
        fingerprint(&generators::clustered_blocks(25, 512, 4, &ab, 1)),
        (102_112, 13_121_138_710_309_029_038)
    );
    assert_eq!(
        fingerprint(&generators::random_graph(25_000, 37_500, &ab, 1)),
        (37_500, 11_619_579_494_131_718_341)
    );
}

/// The ontology generator draws its `subClassOf`, `type` and padding
/// triples through sets; the pizza profile (the base of g3) at its own
/// seed and at one other pins the triples it yields and their order
/// (values taken while those sets still hashed with SipHash).
#[test]
fn ontology_generator_is_pinned() {
    let pizza = *ontology::profile("pizza").expect("a built-in profile");
    assert_eq!(
        fingerprint(&pizza.generate().to_graph()),
        (3_960, 11_196_466_221_517_856_925)
    );
    let reseeded = OntologyProfile { seed: 7, ..pizza };
    assert_eq!(
        fingerprint(&reseeded.generate().to_graph()),
        (3_960, 8_867_013_262_993_747_005)
    );
}
