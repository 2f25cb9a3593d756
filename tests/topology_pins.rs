//! Integration: the topology graph layer reproduces the K-plane model
//! count-for-count — against the committed K-plane artifact, against the
//! orbit-counting closed form, and subset-by-subset against the legacy
//! predicate — and the one-hop-gateway policy diverges from transitive
//! reachability exactly where the DRS routing model says it must.

use drs::analytic::connectivity::pair_connected_k;
use drs::analytic::orbit::orbit_pair_success;
use drs::analytic::topo::enumerate_pair_success_topo;
use drs::topology::{generators, pair_connected, ComponentSet, Reachability};

/// The nine `(K, n, f)` cells of the committed
/// `BENCH_knet_survivability.json`, with their exact counts. The graph
/// layer's one-hop enumeration over the degenerate K-plane topology must
/// land on every one of them — and the committed artifact must still
/// carry them.
const KNET_CELLS: [(usize, usize, usize, u128, u128); 9] = [
    (2, 5, 2, 59, 66),
    (2, 6, 2, 84, 91),
    (2, 6, 3, 290, 364),
    (3, 5, 2, 153, 153),
    (3, 6, 2, 210, 210),
    (3, 6, 3, 1315, 1330),
    (4, 5, 2, 276, 276),
    (4, 6, 2, 378, 378),
    (4, 6, 3, 3276, 3276),
];

#[test]
fn union_find_layer_reproduces_the_committed_knet_cells() {
    for &(k, n, f, successes, total) in &KNET_CELLS {
        let topo = generators::kplane(n, k);
        assert_eq!(
            enumerate_pair_success_topo(&topo, f, 0, 1, Reachability::OneHostRelay),
            (successes, total),
            "K={k} n={n} f={f}: graph enumeration diverged from the pinned counts"
        );
    }
}

#[test]
fn committed_knet_artifact_still_carries_the_pinned_counts() {
    let json = drs_bench::artifacts::find("knet")
        .expect("table entry")
        .committed()
        .expect("committed file");
    for &(k, n, f, successes, total) in &KNET_CELLS {
        let mut row = format!("\"k\": {k}, \"n\": {n}, \"f\": {f}, \"p_exact\": ");
        drs::obs::jsonfmt::push_f64(&mut row, successes as f64 / total as f64);
        row.push_str(&format!(
            ", \"successes\": \"{successes}\", \"total\": \"{total}\""
        ));
        assert!(
            json.contains(&row),
            "K={k} n={n} f={f}: committed knet artifact lost its pinned row"
        );
    }
}

#[test]
fn at_k2_all_three_predicates_agree_on_every_subset() {
    // Exhaustive: for small clusters, walk every subset of the 2n+2
    // component universe (all failure sizes at once) and demand the
    // union-find transitive engine, the one-hop graph policy, and the
    // legacy K-plane predicate give the same verdict.
    for n in 2usize..=4 {
        let topo = generators::kplane(n, 2);
        let m = topo.component_count();
        assert_eq!(m, 2 * n + 2);
        for mask in 0u32..(1 << m) {
            let indices: Vec<usize> = (0..m).filter(|&i| mask >> i & 1 == 1).collect();
            let set = ComponentSet::from_indices(&indices);
            let transitive = pair_connected(&topo, &set, 0, 1, Reachability::Transitive);
            let one_hop = pair_connected(&topo, &set, 0, 1, Reachability::OneHostRelay);
            let legacy = pair_connected_k(n, 2, &set, 0, 1);
            assert_eq!(transitive, one_hop, "n={n} mask={mask:#x}");
            assert_eq!(one_hop, legacy, "n={n} mask={mask:#x}");
        }
    }
}

#[test]
fn one_hop_policy_is_strictly_stronger_beyond_k2() {
    // kplane(4, 3), with NICs cut so host 0 lives only on plane 0,
    // host 1 only on plane 2, host 2 on planes {0, 1} and host 3 on
    // planes {1, 2}: the pair is transitively connected through the
    // two-relay chain 0 → 2 → 3 → 1, but no single relay host shares a
    // plane with both endpoints — exactly the path shape the DRS's
    // one-hop gateway forwarding cannot express.
    let (n, k) = (4usize, 3usize);
    let topo = generators::kplane(n, k);
    let nic = |host: usize, plane: usize| k + plane * n + host;
    let failed = [
        nic(0, 1),
        nic(0, 2),
        nic(1, 0),
        nic(1, 1),
        nic(2, 2),
        nic(3, 0),
    ];
    let set = ComponentSet::from_indices(&failed);
    assert!(pair_connected(&topo, &set, 0, 1, Reachability::Transitive));
    assert!(!pair_connected(
        &topo,
        &set,
        0,
        1,
        Reachability::OneHostRelay
    ));
    // The legacy K-plane predicate is the one-hop policy.
    assert!(!pair_connected_k(n, k as u8, &set, 0, 1));
}

#[test]
fn orbit_closed_form_matches_the_graph_enumeration() {
    // The Burnside orbit counter and the union-find walk share nothing
    // but the component model; count-for-count agreement across the
    // K = 2 family pins both.
    for n in 2u64..=8 {
        let topo = generators::kplane(n as usize, 2);
        let m = topo.component_count() as u64;
        for f in 0..=m.min(6) {
            let (os, ot) = orbit_pair_success(n, f).expect("within the shared table");
            assert_eq!(
                enumerate_pair_success_topo(&topo, f as usize, 0, 1, Reachability::OneHostRelay),
                (os, ot),
                "n={n} f={f}"
            );
        }
    }
}
