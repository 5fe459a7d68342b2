//! Property tests for the exact key-node census.
//!
//! Over uniform, corridor and clustered deployments with random death masks
//! (disconnected graphs, isolated nodes and masks with no alive sink
//! neighbour included), the production census must equal independent
//! references:
//!
//! - [`Network::betweenness`] equals the textbook per-source Brandes below,
//!   bit for bit;
//! - [`keynode::stranded_counts`] equals [`keynode::stranded_if_dead`] for
//!   every node;
//! - [`keynode::identify_with_mask`] equals the reference pipeline built on
//!   those two references, in ids, reasons and weight bits.

use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;

use wrsn_net::keynode::{self, KeyNode, KeyNodeConfig, KeyReason};
use wrsn_net::{deploy, Network, NodeId, Point, Region, SensorNode};

/// Textbook Brandes: fresh per-source arrays and one predecessor `Vec` per
/// node, dependencies accumulated in reverse BFS order.
fn reference_betweenness(net: &Network, mask: &[bool]) -> Vec<f64> {
    let n = net.node_count();
    let mut cb = vec![0.0f64; n];
    for s in (0..n).filter(|&s| mask[s]) {
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![-1i64; n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut order = Vec::with_capacity(n);
        sigma[s] = 1.0;
        dist[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in net.neighbors(NodeId(u)) {
                let v = v.0;
                if !mask[v] {
                    continue;
                }
                if dist[v] < 0 {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
                if dist[v] == dist[u] + 1 {
                    sigma[v] += sigma[u];
                    preds[v].push(u);
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        for &w in order.iter().rev() {
            for &p in &preds[w] {
                delta[p] += sigma[p] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                cb[w] += delta[w];
            }
        }
    }
    for c in &mut cb {
        *c /= 2.0;
    }
    cb
}

/// The census pipeline on the references: per-candidate
/// [`keynode::stranded_if_dead`] and [`reference_betweenness`].
fn reference_identify(net: &Network, mask: &[bool], config: &KeyNodeConfig) -> Vec<KeyNode> {
    let n = net.node_count();
    let cuts: HashSet<NodeId> = if config.include_cut_vertices {
        net.articulation_points(mask).into_iter().collect()
    } else {
        HashSet::new()
    };
    let cb = reference_betweenness(net, mask);
    let max_cb = cb.iter().cloned().fold(0.0f64, f64::max);
    let mut ranked: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
    ranked.sort_by(|&a, &b| cb[b].partial_cmp(&cb[a]).unwrap());
    let hub_count = ((n as f64 * config.hub_fraction).ceil() as usize).min(ranked.len());
    let hubs: HashSet<usize> = ranked[..hub_count]
        .iter()
        .copied()
        .filter(|&i| cb[i] > 0.0)
        .collect();
    let mut out: Vec<KeyNode> = (0..n)
        .filter_map(|i| {
            let reason = match (cuts.contains(&NodeId(i)), hubs.contains(&i)) {
                (true, true) => KeyReason::Both,
                (true, false) => KeyReason::CutVertex,
                (false, true) => KeyReason::TrafficHub,
                (false, false) => return None,
            };
            let stranded = keynode::stranded_if_dead(net, mask, NodeId(i)) as f64;
            let cb_norm = if max_cb > 0.0 { cb[i] / max_cb } else { 0.0 };
            Some(KeyNode {
                id: NodeId(i),
                reason,
                weight: 1.0 + stranded + cb_norm,
            })
        })
        .collect();
    out.sort_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap()
            .then_with(|| a.id.cmp(&b.id))
    });
    out
}

fn check_census(net: &Network, mask: &[bool]) {
    let n = net.node_count();
    let fast = net.betweenness(mask);
    let slow = reference_betweenness(net, mask);
    for i in 0..n {
        assert_eq!(
            fast[i].to_bits(),
            slow[i].to_bits(),
            "betweenness of node {i}: {} vs {}",
            fast[i],
            slow[i]
        );
    }

    let stranded = keynode::stranded_counts(net, mask);
    assert_eq!(stranded.len(), n);
    for (i, &count) in stranded.iter().enumerate() {
        assert_eq!(
            count,
            keynode::stranded_if_dead(net, mask, NodeId(i)),
            "stranded count of node {i}"
        );
    }

    for config in [
        KeyNodeConfig::default(),
        KeyNodeConfig {
            hub_fraction: 0.25,
            include_cut_vertices: false,
            ..KeyNodeConfig::default()
        },
    ] {
        let got = keynode::identify_with_mask(net, mask, &config);
        let want = reference_identify(net, mask, &config);
        assert_eq!(got.len(), want.len(), "key-node count under {config:?}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.id, g.reason), (w.id, w.reason), "under {config:?}");
            assert_eq!(
                g.weight.to_bits(),
                w.weight.to_bits(),
                "weight of {:?}: {} vs {}",
                g.id,
                g.weight,
                w.weight
            );
        }
    }
}

/// A deployment of one of three kinds, with its sink and range.
fn deployment(kind: u8, n: usize, seed: u64, range: f64) -> Network {
    match kind {
        0 => {
            let nodes = deploy::uniform(&Region::square(100.0), n, seed);
            Network::build(nodes, Point::new(50.0, 50.0), range)
        }
        1 => {
            let (_, nodes) = deploy::corridor(n / 2, 2 + n % 5, seed);
            Network::build(nodes, Point::new(10.0, 50.0), range)
        }
        _ => {
            let nodes = deploy::clustered(&Region::square(100.0), n, 1 + n % 4, 8.0, seed);
            Network::build(nodes, Point::new(50.0, 50.0), range)
        }
    }
}

/// The alive mask after `deaths`, optionally with every sink neighbour dead.
fn death_mask(net: &Network, deaths: &[usize], kill_sink_neighbors: bool) -> Vec<bool> {
    let n = net.node_count();
    let mut mask = vec![true; n];
    for &d in deaths {
        mask[d % n] = false;
    }
    if kill_sink_neighbors {
        for s in net.sink_neighbors() {
            mask[s.0] = false;
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn census_matches_reference(
        kind in 0u8..3,
        n in 2usize..70,
        seed in 0u64..1_000,
        range in 8.0f64..40.0,
        deaths in proptest::collection::vec(0usize..70, 0..20),
        sink_roll in 0u8..6,
    ) {
        let net = deployment(kind, n, seed, range);
        // One case in six loses every sink neighbour.
        let mask = death_mask(&net, &deaths, sink_roll == 0);
        check_census(&net, &mask);
    }

    #[test]
    fn census_matches_reference_with_isolated_nodes(
        n in 2usize..40,
        seed in 0u64..1_000,
        range in 10.0f64..30.0,
        deaths in proptest::collection::vec(0usize..43, 0..8),
    ) {
        let mut nodes = deploy::uniform(&Region::square(60.0), n, seed);
        // Out of everyone's range, including the sink's and each other's.
        for k in 0..3 {
            nodes.push(SensorNode::new(Point::new(500.0 + 100.0 * k as f64, 500.0)));
        }
        let net = Network::build(nodes, Point::new(30.0, 30.0), range);
        let mask = death_mask(&net, &deaths, false);
        check_census(&net, &mask);
    }
}

#[test]
fn no_alive_sink_neighbor_strands_nothing() {
    let (_, nodes) = deploy::corridor(12, 4, 7);
    let net = Network::build(nodes, Point::new(10.0, 50.0), 30.0);
    let mask = death_mask(&net, &[], true);
    assert!(!net.sink_neighbors().is_empty());
    assert!(keynode::stranded_counts(&net, &mask)
        .iter()
        .all(|&c| c == 0));
    check_census(&net, &mask);
}

#[test]
fn empty_network_has_an_empty_census() {
    let net = Network::build(Vec::new(), Point::ORIGIN, 10.0);
    assert!(net.betweenness(&[]).is_empty());
    assert!(keynode::stranded_counts(&net, &[]).is_empty());
    check_census(&net, &[]);
}
