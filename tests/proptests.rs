//! Property-based tests over the core invariants of the reproduction:
//! bulk split/merge order preservation, engine equivalence and decimal
//! arithmetic laws. (The parser/serializer fixpoint and the marshaling
//! round trips run under tier-1 in `tests/arena_model.rs`.)
//!
//! Gated behind the `proptests` feature: the `proptest` crate cannot be
//! vendored offline (see vendor/README.md). To run, restore the
//! `proptest` dev-dependency and `cargo test --features proptests`.
#![cfg(feature = "proptests")]

use proptest::prelude::*;
use std::sync::Arc;
use xdm::{AtomicValue, Decimal, Item, Sequence};

// ---------------------------------------------------------------------
// properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Figure-2 split + merge restores iteration order for any assignment
    /// of iterations to peers.
    #[test]
    fn bulk_split_merge_preserves_order(assignment in prop::collection::vec(0usize..3, 1..40)) {
        use relalg::{IterMap, SeqTable};
        // outer iterations 1..=n, each assigned to one of 3 peers with a
        // distinct payload
        let n = assignment.len();
        let mut per_peer: Vec<Vec<u32>> = vec![vec![]; 3];
        for (i, &p) in assignment.iter().enumerate() {
            per_peer[p].push(i as u32 + 1);
        }
        let mut mapped = Vec::new();
        for outer in per_peer {
            if outer.is_empty() {
                continue;
            }
            let map = IterMap::rank(outer.clone());
            // peer computes: result for inner k = the outer iter number
            let msg = SeqTable::from_sequences(
                (1..=outer.len() as u32).map(|k| {
                    (k, Sequence::one(Item::integer(map.to_outer(k) as i64)))
                }),
            );
            mapped.push(map.map_back(&msg));
        }
        let merged = SeqTable::merge_union(mapped);
        prop_assert_eq!(merged.len(), n);
        for r in 0..n {
            prop_assert_eq!(merged.iter[r] as usize, r + 1);
            prop_assert_eq!(merged.item[r].string_value(), (r + 1).to_string());
        }
    }

    /// Decimal arithmetic laws: commutativity, identity, parse/display
    /// roundtrip.
    #[test]
    fn decimal_laws(am in -1_000_000_000i64..1_000_000_000, asc in 0u32..6,
                    bm in -1_000_000_000i64..1_000_000_000, bsc in 0u32..6) {
        let a = Decimal::new(am as i128, asc);
        let b = Decimal::new(bm as i128, bsc);
        prop_assert_eq!(a.add(b), b.add(a));
        prop_assert_eq!(a.mul(b), b.mul(a));
        prop_assert_eq!(a.add(Decimal::zero()), a);
        prop_assert_eq!(a.sub(a), Decimal::zero());
        let round = Decimal::parse(&a.to_string()).unwrap();
        prop_assert_eq!(round, a);
    }

    /// Tree and loop-lifted engines agree on arithmetic/FLWOR queries.
    #[test]
    fn engines_agree(n in 1i64..30, m in 1i64..10, k in 0i64..5) {
        let q = format!(
            "for $x in (1 to {n}) where $x mod {m} = {k} return $x * $x"
        );
        let docs = Arc::new(xqeval::InMemoryDocs::new());
        let env1 = xqeval::Environment::new(docs.clone());
        let env2 = xqeval::Environment::new(docs);
        let (r1, _) = xqeval::evaluate_main(&q, &env1).unwrap();
        let (r2, _) = relalg::execute_rel(&q, &env2).unwrap();
        prop_assert_eq!(r1.joined_string(), r2.joined_string());
    }

    /// The XQuery string literal escaping in the pretty printer round-trips.
    #[test]
    fn pretty_print_string_literal_roundtrip(s in "[ -~]{0,30}") {
        let e = xqast::Expr::Literal(AtomicValue::String(s.clone()));
        let printed = xqast::pretty_print(&e);
        let parsed = xqast::parse_main_module(&printed).unwrap();
        match parsed.body {
            xqast::Expr::Literal(AtomicValue::String(back)) => prop_assert_eq!(back, s),
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }
}
