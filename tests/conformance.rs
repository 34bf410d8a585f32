//! Cross-structure conformance battery.
//!
//! Every dictionary in the workspace — the external B-tree baseline, the HI
//! cache-oblivious B-tree (the served `HiDict`), and the external skip list
//! in all three parameterizations — is driven through the same seeded
//! differential scripts against a `BTreeMap` oracle, and through the same
//! deterministic edge-case battery. The rank-addressed PMAs get the equivalent treatment
//! against a `Vec` oracle. A future structure joins the battery by adding
//! one constructor closure per test.

use anti_persistence::dict::HiDict;
use anti_persistence::prelude::*;
use test_support::{
    dictionary_edge_cases, run_batch_differential, run_bulk_load_differential,
    run_dict_differential, run_seq_differential, standard_scripts, BatchProfile, SeqProfile,
};

#[test]
fn btree_matches_the_oracle_on_standard_scripts() {
    for script in standard_scripts() {
        let mut dict: BTree<u64, u64> = BTree::new(16);
        run_dict_differential(&mut dict, &script);
        dict.check_invariants();
    }
}

#[test]
fn hi_dict_matches_the_oracle_on_standard_scripts() {
    for (i, script) in standard_scripts().iter().enumerate() {
        let mut dict = HiDict::new(HiPma::new(1000 + i as u64));
        run_dict_differential(&mut dict, script);
        dict.seq().check_invariants();
    }
}

#[test]
fn hi_skiplist_matches_the_oracle_on_standard_scripts() {
    for (i, script) in standard_scripts().iter().enumerate() {
        let mut dict: ExternalSkipList<u64, u64> =
            ExternalSkipList::history_independent(16, 0.5, 2000 + i as u64);
        run_dict_differential(&mut dict, script);
        dict.check_invariants();
    }
}

#[test]
fn folklore_skiplist_matches_the_oracle_on_standard_scripts() {
    for (i, script) in standard_scripts().iter().enumerate() {
        let mut dict: ExternalSkipList<u64, u64> =
            ExternalSkipList::folklore_b(16, 3000 + i as u64);
        run_dict_differential(&mut dict, script);
        dict.check_invariants();
    }
}

#[test]
fn in_memory_skiplist_matches_the_oracle_on_standard_scripts() {
    for (i, script) in standard_scripts().iter().enumerate() {
        let mut dict: ExternalSkipList<u64, u64> = ExternalSkipList::in_memory(4000 + i as u64);
        run_dict_differential(&mut dict, script);
        dict.check_invariants();
    }
}

#[test]
fn btree_edge_cases() {
    dictionary_edge_cases(|| BTree::<u64, u64>::new(4));
    dictionary_edge_cases(|| BTree::<u64, u64>::new(128));
}

#[test]
fn hi_dict_edge_cases() {
    dictionary_edge_cases(|| HiDict::new(HiPma::new(5)));
}

#[test]
fn hi_skiplist_edge_cases() {
    dictionary_edge_cases(|| ExternalSkipList::<u64, u64>::history_independent(16, 0.5, 6));
    dictionary_edge_cases(|| ExternalSkipList::<u64, u64>::history_independent(4, 0.25, 7));
}

#[test]
fn folklore_skiplist_edge_cases() {
    dictionary_edge_cases(|| ExternalSkipList::<u64, u64>::folklore_b(16, 8));
}

#[test]
fn in_memory_skiplist_edge_cases() {
    dictionary_edge_cases(|| ExternalSkipList::<u64, u64>::in_memory(9));
}

// ---------------------------------------------------------------------
// Runtime-selected backends: the same scripts through the builder/DynDict
// facade, covering all six engines with one loop — including the two
// PMAs, which join the keyed battery through the RankedDict adapter.
// ---------------------------------------------------------------------

#[test]
fn every_dyn_backend_matches_the_oracle_on_standard_scripts() {
    for backend in Backend::ALL {
        for (i, script) in standard_scripts().iter().enumerate() {
            let mut dict: DynDict<u64, u64> = Dict::builder()
                .backend(backend)
                .seed(9000 + i as u64)
                .block_elems(16)
                .fanout(16)
                .build();
            run_dict_differential(&mut dict, script);
            dict.check_invariants();
        }
    }
}

#[test]
fn every_dyn_backend_passes_the_edge_cases() {
    for backend in Backend::ALL {
        dictionary_edge_cases(|| {
            Dict::builder()
                .backend(backend)
                .seed(31)
                .block_elems(8)
                .fanout(4)
                .build::<u64, u64>()
        });
    }
}

#[test]
fn the_builder_rejects_degenerate_io_configs() {
    // `IoConfig`'s fields are public, so a struct literal can smuggle in
    // values the constructor's assert would reject; the builder must catch
    // them at build time with a named error instead of panicking deep
    // inside the I/O model on the first traced access.
    let bad_configs = [
        (
            IoConfig {
                block_size: 0,
                memory_blocks: 16,
            },
            "block_size == 0",
        ),
        (
            IoConfig {
                block_size: 4096,
                memory_blocks: 0,
            },
            "memory_blocks == 0",
        ),
    ];
    for (bad, name) in bad_configs {
        for backend in Backend::ALL {
            let err = Dict::builder()
                .backend(backend)
                .io(bad)
                .try_build::<u64, u64>()
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, DictConfigError::Io(_)),
                "{backend}: degenerate IoConfig ({name}) must be rejected, got {err}"
            );
        }
        let err = Dict::builder()
            .io(bad)
            .shards(2)
            .try_build_sharded::<u64, u64>()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, DictConfigError::Io(_)), "sharded: {name}");
    }
}

#[test]
#[should_panic(expected = "invalid dictionary config")]
fn the_infallible_builder_panics_at_build_time_not_inside_the_model() {
    let _ = Dict::builder()
        .io(IoConfig {
            block_size: 0,
            memory_blocks: 0,
        })
        .build::<u64, u64>();
}

#[test]
fn every_dyn_backend_bulk_loads_against_the_oracle() {
    for backend in Backend::ALL {
        run_bulk_load_differential(
            || {
                Dict::builder()
                    .backend(backend)
                    .seed(71)
                    .build::<u64, u64>()
            },
            1_000,
            0xACE,
        );
    }
}

#[test]
fn every_dyn_backend_survives_mixed_batches_against_the_oracle() {
    // Batches (apply_batch / extend / get_many) with duplicate
    // keys inside one batch, put-then-remove episodes and remove misses —
    // the oracle applies the same stream per-op, so any divergence between
    // the batched and the element-at-a-time semantics fails here.
    for backend in Backend::ALL {
        for (i, profile) in [
            BatchProfile::churn(),
            BatchProfile::grow(),
            BatchProfile::sequential(),
        ]
        .into_iter()
        .enumerate()
        {
            let mut dict: DynDict<u64, u64> = Dict::builder()
                .backend(backend)
                .seed(5_000 + i as u64)
                .block_elems(16)
                .fanout(16)
                .build();
            run_batch_differential(&mut dict, 0xACDC + i as u64, profile);
            dict.check_invariants();
        }
    }
}

#[test]
fn sharded_service_survives_mixed_batches_against_the_oracle() {
    // The same battery through the sharded facade (router + per-shard
    // batches + k-way merged audits).
    for shards in [1usize, 3] {
        let mut service: ShardedDict<DynDict<u64, u64>> = Dict::builder()
            .backend(Backend::HiPma)
            .seed(77)
            .shards(shards)
            .build_sharded();
        run_batch_differential(&mut service, 0xF00D, BatchProfile::churn());
        for s in service.shards() {
            s.check_invariants();
        }
    }
}

#[test]
fn hi_pma_matches_the_vec_oracle() {
    for seed in [11u64, 22, 33] {
        let mut pma: HiPma<u64> = HiPma::new(seed);
        run_seq_differential(&mut pma, seed ^ 0xFF, SeqProfile::standard(1_200));
        pma.check_invariants();
    }
}

#[test]
fn classic_pma_matches_the_vec_oracle() {
    for seed in [44u64, 55, 66] {
        let mut pma: ClassicPma<u64> = ClassicPma::new();
        run_seq_differential(&mut pma, seed, SeqProfile::standard(1_200));
        pma.check_invariants();
    }
}
