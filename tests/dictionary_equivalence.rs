//! Cross-crate integration tests: every dictionary in the workspace must
//! agree with a reference `BTreeMap` (and therefore with each other) on the
//! same operation traces.

use anti_persistence::dict::HiDict;
use anti_persistence::prelude::*;
use std::collections::BTreeMap;
use workloads::{mixed, random_inserts, replay, Op};

/// Replays a trace against a dictionary and a reference map, checking every
/// query result along the way, then compares the final contents.
fn check_against_model<D>(dict: &mut D, trace: &workloads::Trace)
where
    D: Dictionary<Key = u64, Value = u64>,
{
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in &trace.ops {
        match *op {
            Op::Insert(k, v) => assert_eq!(dict.insert(k, v), model.insert(k, v)),
            Op::Delete(k) => assert_eq!(dict.remove(&k), model.remove(&k)),
            Op::Get(k) => assert_eq!(dict.get(&k), model.get(&k).copied()),
            Op::Range(a, b) => assert_eq!(
                dict.range(&a, &b),
                model
                    .range(a..=b)
                    .map(|(&k, &v)| (k, v))
                    .collect::<Vec<_>>()
            ),
        }
    }
    assert_eq!(
        dict.to_sorted_vec(),
        model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
    );
    assert_eq!(dict.len(), model.len());
}

#[test]
fn hi_dict_matches_model_on_mixed_workload() {
    let trace = mixed(8_000, 3_000, 0.55, 1);
    check_against_model(&mut HiDict::new(HiPma::new(10)), &trace);
}

#[test]
fn hi_skiplist_matches_model_on_mixed_workload() {
    let trace = mixed(8_000, 3_000, 0.55, 2);
    check_against_model(
        &mut ExternalSkipList::<u64, u64>::history_independent(32, 0.5, 11),
        &trace,
    );
}

#[test]
fn folklore_bskiplist_matches_model_on_mixed_workload() {
    let trace = mixed(6_000, 2_000, 0.55, 3);
    check_against_model(
        &mut ExternalSkipList::<u64, u64>::folklore_b(32, 12),
        &trace,
    );
}

#[test]
fn btree_matches_model_on_mixed_workload() {
    let trace = mixed(8_000, 3_000, 0.55, 4);
    check_against_model(&mut BTree::<u64, u64>::new(32), &trace);
}

#[test]
fn all_dictionaries_agree_with_each_other() {
    let trace = mixed(5_000, 1_500, 0.6, 5);
    let mut hi = HiDict::new(HiPma::new(20));
    let mut skip: ExternalSkipList<u64, u64> = ExternalSkipList::history_independent(16, 0.5, 21);
    let mut bsk: ExternalSkipList<u64, u64> = ExternalSkipList::folklore_b(16, 22);
    let mut bt: BTree<u64, u64> = BTree::new(16);
    replay(&trace, &mut hi);
    replay(&trace, &mut skip);
    replay(&trace, &mut bsk);
    replay(&trace, &mut bt);
    let reference = bt.to_sorted_vec();
    assert_eq!(hi.to_sorted_vec(), reference);
    assert_eq!(skip.to_sorted_vec(), reference);
    assert_eq!(bsk.to_sorted_vec(), reference);
}

#[test]
fn bulk_load_then_point_queries() {
    let load = random_inserts(20_000, 6);
    let mut hi = HiDict::new(HiPma::new(30));
    let mut bt: BTree<u64, u64> = BTree::new(64);
    replay(&load, &mut hi);
    replay(&load, &mut bt);
    assert_eq!(hi.len(), 20_000);
    for op in load.ops.iter().step_by(97) {
        if let Op::Insert(k, _) = op {
            assert_eq!(hi.get(k), bt.get(k));
            assert!(hi.get(k).is_some());
        }
    }
    hi.seq().check_invariants();
    bt.check_invariants();
}

#[test]
fn pma_rank_interface_agrees_with_vec() {
    // The rank-addressed interface (the paper's own PMA API) against a Vec.
    let mut hi: HiPma<u64> = HiPma::new(40);
    let mut classic: ClassicPma<u64> = ClassicPma::new();
    let mut model: Vec<u64> = Vec::new();
    let mut rng_state = 12345u64;
    let mut next = || {
        // xorshift for a dependency-free deterministic stream
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    for step in 0..6_000u64 {
        let r = next();
        if !model.is_empty() && r % 10 < 3 {
            let rank = (r % model.len() as u64) as usize;
            let expected = model.remove(rank);
            assert_eq!(hi.delete(rank).unwrap(), expected);
            assert_eq!(classic.delete(rank).unwrap(), expected);
        } else {
            let rank = (r % (model.len() as u64 + 1)) as usize;
            model.insert(rank, step);
            hi.insert(rank, step).unwrap();
            classic.insert(rank, step).unwrap();
        }
    }
    assert_eq!(hi.query(0, model.len() - 1).unwrap(), model);
    assert_eq!(classic.query(0, model.len() - 1).unwrap(), model);
}
