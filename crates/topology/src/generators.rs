//! Deterministic topology generators: the degenerate K-plane cluster and
//! the datacenter zoo of Couto et al. (Fat-Tree, BCube, DCell).
//!
//! Every generator produces a canonical node and link ordering, so the
//! component universe (switches, then links) is reproducible byte-for-byte
//! — the committed artifacts depend on it.

use crate::graph::{Link, Topology};

/// The K-plane cluster as a degenerate topology: one switch per plane
/// (the hub) and one link per `(host, plane)` pair (the NIC attachment).
///
/// Links are emitted **plane-major, host-minor**, so the component
/// universe is bit-compatible with the historical `K·n + K` indexing:
/// component `p` is hub `p`, component `K + p·n + i` is host `i`'s NIC on
/// plane `p` — exactly `index_to_component(idx, n, planes)` in the
/// simulator and `ClusterState::fail_index` in the analytic layer.
///
/// # Panics
/// Panics unless `n ≥ 1` and `planes ≥ 2`.
#[must_use]
pub fn kplane(n: usize, planes: usize) -> Topology {
    assert!(n >= 1, "a cluster needs at least one host");
    assert!(planes >= 2, "a redundant cluster needs at least two planes");
    let mut links = Vec::with_capacity(planes * n);
    for p in 0..planes {
        for i in 0..n {
            links.push(Link {
                a: i as u32,
                b: (n + p) as u32,
            });
        }
    }
    Topology::new("kplane", format!("n={n},k={planes}"), n, planes, links)
}

/// A three-tier Fat-Tree built from `k`-port switches: `k` pods of
/// `k/2` edge and `k/2` aggregation switches, `(k/2)²` core switches,
/// `k³/4` hosts.
///
/// Switch order: all edge switches (pod-major), then all aggregation
/// switches (pod-major), then the core. Link order: host–edge links
/// (pod, edge, host), then edge–aggregation (pod, edge, agg), then
/// aggregation–core (pod, agg, core).
///
/// # Panics
/// Panics unless `k` is even and at least 2.
#[must_use]
pub fn fat_tree(k: usize) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even and >= 2"
    );
    let half = k / 2;
    let hosts = k * half * half;
    let edge = k * half;
    let agg = k * half;
    let core = half * half;
    let switches = edge + agg + core;
    let edge_node = |pod: usize, e: usize| (hosts + pod * half + e) as u32;
    let agg_node = |pod: usize, a: usize| (hosts + edge + pod * half + a) as u32;
    let core_node = |c: usize| (hosts + edge + agg + c) as u32;

    let mut links = Vec::with_capacity(hosts + k * half * half + k * half * half);
    for pod in 0..k {
        for e in 0..half {
            for h in 0..half {
                let host = (pod * half * half + e * half + h) as u32;
                links.push(Link {
                    a: host,
                    b: edge_node(pod, e),
                });
            }
        }
    }
    for pod in 0..k {
        for e in 0..half {
            for a in 0..half {
                links.push(Link {
                    a: edge_node(pod, e),
                    b: agg_node(pod, a),
                });
            }
        }
    }
    for pod in 0..k {
        for a in 0..half {
            for c in 0..half {
                links.push(Link {
                    a: agg_node(pod, a),
                    b: core_node(a * half + c),
                });
            }
        }
    }
    Topology::new("fat_tree", format!("k={k}"), hosts, switches, links)
}

/// A `BCube(n, l)`: `n^(l+1)` hosts, `l+1` levels of `n^l` switches each,
/// and one link per `(host, level)` pair — hosts relay between levels, so
/// switch-to-switch links do not exist.
///
/// Hosts are numbered by their base-`n` digit strings (digit 0 least
/// significant); the level-`k` switch of host `h` is `h` with digit `k`
/// removed. Switch order is level-major; link order is (level, host).
///
/// # Panics
/// Panics unless `n ≥ 2`.
#[must_use]
pub fn bcube(n: usize, l: usize) -> Topology {
    assert!(n >= 2, "bcube port count must be at least 2");
    let hosts = n.pow(l as u32 + 1);
    let per_level = n.pow(l as u32);
    let switches = (l + 1) * per_level;
    let mut links = Vec::with_capacity(hosts * (l + 1));
    for level in 0..=l {
        let low = n.pow(level as u32);
        for h in 0..hosts {
            // Strip digit `level` from h's base-n representation.
            let j = (h / (low * n)) * low + h % low;
            let switch = hosts + level * per_level + j;
            links.push(Link {
                a: h as u32,
                b: switch as u32,
            });
        }
    }
    Topology::new("bcube", format!("n={n},l={l}"), hosts, switches, links)
}

/// Number of servers in a `DCell(n, l)`.
#[must_use]
pub fn dcell_servers(n: usize, l: usize) -> usize {
    if l == 0 {
        n
    } else {
        let t = dcell_servers(n, l - 1);
        t * (t + 1)
    }
}

/// A `DCell(n, l)`: recursively, `t_{l-1} + 1` copies of `DCell(n, l-1)`
/// fully interconnected by direct host-to-host links (the level-0 cell is
/// `n` hosts on one mini-switch).
///
/// Cross links follow the standard construction: server `j - 1` of cell
/// `i` connects to server `i` of cell `j` for every `i < j`. Switch order
/// is cell-major (recursively); link order is all intra-cell links
/// (cell-major), then the cross links in `(i, j)` order at each level,
/// outermost level last.
///
/// # Panics
/// Panics unless `n ≥ 2`.
#[must_use]
pub fn dcell(n: usize, l: usize) -> Topology {
    assert!(n >= 2, "dcell port count must be at least 2");
    let mut switches = 0usize;
    let mut host_links: Vec<(u32, u32)> = Vec::new(); // host-host cross links
    let mut switch_links: Vec<(u32, u32)> = Vec::new(); // (host, switch-index)
    build_dcell(n, l, 0, &mut switches, &mut switch_links, &mut host_links);
    let hosts = dcell_servers(n, l);
    let mut links = Vec::with_capacity(switch_links.len() + host_links.len());
    for &(h, s) in &switch_links {
        links.push(Link {
            a: h,
            b: hosts as u32 + s,
        });
    }
    for &(a, b) in &host_links {
        links.push(Link { a, b });
    }
    Topology::new("dcell", format!("n={n},l={l}"), hosts, switches, links)
}

/// Emits one `DCell(n, l)` whose servers start at `host_base`. Switch
/// indices are allocated from `*switches`; links append in canonical
/// order (intra-cell first, then this level's cross links).
fn build_dcell(
    n: usize,
    l: usize,
    host_base: usize,
    switches: &mut usize,
    switch_links: &mut Vec<(u32, u32)>,
    host_links: &mut Vec<(u32, u32)>,
) {
    if l == 0 {
        let s = *switches;
        *switches += 1;
        for i in 0..n {
            switch_links.push(((host_base + i) as u32, s as u32));
        }
        return;
    }
    let t = dcell_servers(n, l - 1);
    let cells = t + 1;
    for c in 0..cells {
        build_dcell(
            n,
            l - 1,
            host_base + c * t,
            switches,
            switch_links,
            host_links,
        );
    }
    for i in 0..cells {
        for j in i + 1..cells {
            let a = host_base + i * t + (j - 1);
            let b = host_base + j * t + i;
            host_links.push((a as u32, b as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopoComponent;

    #[test]
    fn kplane_matches_the_historical_component_indexing() {
        let (n, k) = (5, 3);
        let t = kplane(n, k);
        assert_eq!(t.hosts(), n);
        assert_eq!(t.switches(), k);
        assert_eq!(t.links().len(), k * n);
        assert_eq!(t.component_count(), k * n + k);
        // Component p is hub p; component k + p*n + i is host i's NIC on
        // plane p — the index_to_component(idx, n, planes) layout.
        for p in 0..k {
            assert_eq!(t.component(p), Some(TopoComponent::Switch(p)));
            for i in 0..n {
                let idx = k + p * n + i;
                let Some(TopoComponent::Link(l)) = t.component(idx) else {
                    panic!("component {idx} is not a link");
                };
                let link = t.links()[l];
                assert_eq!(link.a as usize, i, "host endpoint");
                assert_eq!(link.b as usize, n + p, "plane-p hub endpoint");
            }
        }
        assert_eq!(t.component(k * n + k), None, "boundary index is None");
    }

    #[test]
    fn fat_tree_counts_match_the_closed_forms() {
        for k in [2usize, 4, 6] {
            let t = fat_tree(k);
            assert_eq!(t.hosts(), k * k * k / 4, "k={k} hosts");
            assert_eq!(t.switches(), 5 * k * k / 4, "k={k} switches");
            assert_eq!(t.links().len(), 3 * k * k * k / 4, "k={k} links");
            // Every host has degree 1; every edge/agg switch degree k.
            for h in 0..t.hosts() {
                assert_eq!(t.incident_links(h).len(), 1);
            }
            for s in 0..t.switches() - k * k / 4 {
                assert_eq!(t.incident_links(t.switch_node(s)).len(), k);
            }
        }
    }

    #[test]
    fn bcube_counts_match_the_closed_forms() {
        for (n, l) in [(4usize, 0usize), (4, 1), (2, 2)] {
            let t = bcube(n, l);
            assert_eq!(t.hosts(), n.pow(l as u32 + 1));
            assert_eq!(t.switches(), (l + 1) * n.pow(l as u32));
            assert_eq!(t.links().len(), t.hosts() * (l + 1));
            // Every switch has exactly n ports; every host l+1 NICs.
            for s in 0..t.switches() {
                assert_eq!(t.incident_links(t.switch_node(s)).len(), n);
            }
            for h in 0..t.hosts() {
                assert_eq!(t.incident_links(h).len(), l + 1);
            }
        }
    }

    #[test]
    fn dcell_counts_match_the_closed_forms() {
        let t = dcell(4, 1);
        assert_eq!(t.hosts(), 20);
        assert_eq!(t.switches(), 5);
        assert_eq!(t.links().len(), 20 + 10); // host-switch + cross
        for h in 0..t.hosts() {
            assert_eq!(t.incident_links(h).len(), 2, "one NIC up, one across");
        }
        let t2 = dcell(2, 2);
        assert_eq!(t2.hosts(), dcell_servers(2, 2));
        assert_eq!(dcell_servers(2, 2), 42);
        assert_eq!(t2.switches(), 21);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(fat_tree(4), fat_tree(4));
        assert_eq!(bcube(4, 1), bcube(4, 1));
        assert_eq!(dcell(4, 1), dcell(4, 1));
        assert_eq!(kplane(6, 2), kplane(6, 2));
    }
}
