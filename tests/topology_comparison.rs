//! Integration: the acceptance criteria of the `nexus-topo` subsystem.
//!
//! * On rack-clustered traces at ≥ 4 nodes over a rack-tiered fabric, the
//!   topology-aware stack (`TopologyAware` placement + hierarchical stealing)
//!   must beat the flat stack (`XorHash` + flat `StealMostLoaded`) on
//!   makespan *and* cut inter-rack link words by ≥ 20%.
//! * A rack-tiered fabric must degrade the makespan versus `FullMesh` when
//!   every coupled edge crosses racks (the tiers actually bite).
//! * `FullMesh` routed through `nexus-topo` must reproduce the uniform
//!   interconnect bit-identically (the PR 2/3 behaviour).
//! * Every topology × placement × stealing combination must be bit-identical
//!   across reruns.

use nexus::cluster::{
    simulate_cluster, ClusterConfig, ClusterDriver, ClusterOutcome, LinkConfig, Topology,
};
use nexus::prelude::*;
use nexus::sched::{PolicyKind, StealKind};
use nexus::sharp::NexusSharpConfig;
use nexus::topo;
use nexus::trace::generators::distributed;

/// A Nexus# manager with a deliberately small task pool: overloaded nodes
/// back-pressure early, building the pending backlog that stealing feeds on.
fn tight_sharp() -> NexusSharp {
    let mut cfg = NexusSharpConfig::paper(6);
    cfg.task_pool_capacity = 16;
    NexusSharp::new(cfg)
}

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

#[test]
fn topology_aware_stack_beats_the_flat_stack_on_rack_clustered_traces() {
    // 2 racks x 2 nodes (the RackTiers default split for 4 nodes), rack heads
    // own 3x the chains, all coupling stays inside the racks. Affinity is
    // stripped: discovering the clustering is the placement policy's job.
    let trace = distributed::unhinted(&distributed::rack_clustered(
        2,
        2,
        6,
        10,
        3.0,
        0.6,
        0.0,
        us(30),
        11,
    ));
    let base =
        ClusterConfig::new(4, 2).with_link(LinkConfig::rdma().with_topology(Topology::RackTiers));
    let flat = base
        .with_placement(PolicyKind::XorHash)
        .with_stealing(StealKind::MostLoaded);
    let aware = base
        .with_placement(PolicyKind::TopologyAware)
        .with_stealing(StealKind::Hierarchical);
    let a = simulate_cluster(&trace, &flat, |_| tight_sharp());
    let b = simulate_cluster(&trace, &aware, |_| tight_sharp());
    assert_eq!(a.tasks, b.tasks);
    assert_eq!(a.topology, "racktiers-r2");
    assert!(
        b.makespan < a.makespan,
        "topology-aware stack must win the makespan: {} vs {}",
        b.makespan,
        a.makespan
    );
    let (aw, bw) = (
        a.link.tier_words("inter-rack"),
        b.link.tier_words("inter-rack"),
    );
    assert!(aw > 0, "the flat stack must actually cross racks");
    assert!(
        (bw as f64) <= 0.80 * aw as f64,
        "inter-rack words must drop by >= 20%: aware {bw} vs flat {aw}"
    );
}

#[test]
fn rack_tiers_degrade_the_makespan_when_the_traffic_fights_the_fabric() {
    // Every coupled edge crosses racks (cross_rack = 1): on a full mesh each
    // such edge pays one base link; on rack tiers it pays the shared 8x-slow
    // trunk. Same trace, same policies, only the wiring changes.
    let trace = distributed::rack_clustered(2, 2, 6, 10, 1.0, 1.0, 1.0, us(30), 13);
    let mesh_cfg = ClusterConfig::new(4, 4).with_link(LinkConfig::rdma());
    let rack_cfg =
        ClusterConfig::new(4, 4).with_link(LinkConfig::rdma().with_topology(Topology::RackTiers));
    let mesh = simulate_cluster(&trace, &mesh_cfg, |_| NexusSharp::paper(6));
    let rack = simulate_cluster(&trace, &rack_cfg, |_| NexusSharp::paper(6));
    assert_eq!(mesh.tasks, rack.tasks);
    assert!(
        rack.makespan > mesh.makespan,
        "the tiers must bite at 100% cross-rack traffic: {} vs {}",
        rack.makespan,
        mesh.makespan
    );
    // The degradation is attributable to the trunk tier.
    assert!(rack.link.tier_words("inter-rack") > 0);
    assert!(rack.link.wait_time >= mesh.link.wait_time);
}

#[test]
fn fullmesh_via_topo_reproduces_the_uniform_interconnect_bit_identically() {
    let trace = distributed::sparselu(4, 0.3, 42, 0.002);
    let cfg = ClusterConfig::new(4, 4); // default link: rdma over FullMesh
    let implicit = simulate_cluster(&trace, &cfg, |_| NexusSharp::paper(6));
    // The same run over an explicitly built uniform full-mesh fabric …
    let fabric = topo::full_mesh(4, cfg.link.latency, cfg.link.per_word);
    let explicit = ClusterDriver::with_fabric(&cfg, fabric, |_| NexusSharp::paper(6)).run(&trace);
    // … and over a degenerate single-rack RackTiers fabric (racks of >= 4
    // nodes have no trunks, so every pair rides a direct base link).
    let single_rack = topo::rack_tiers(4, 4, cfg.link.latency, cfg.link.per_word);
    let degenerate =
        ClusterDriver::with_fabric(&cfg, single_rack, |_| NexusSharp::paper(6)).run(&trace);

    for (label, other) in [("explicit mesh", &explicit), ("single rack", &degenerate)] {
        assert_eq!(implicit.makespan, other.makespan, "{label}");
        assert_eq!(implicit.notifications, other.notifications, "{label}");
        assert_eq!(implicit.link.words, other.link.words, "{label}");
        assert_eq!(implicit.node_tasks(), other.node_tasks(), "{label}");
    }
    assert_eq!(implicit.topology, "mesh");
    assert_eq!(degenerate.topology, "racktiers-r4");
    // Uniform fabrics report exactly one traffic tier carrying everything.
    assert_eq!(implicit.link.per_tier.len(), 1);
    assert_eq!(implicit.link.per_tier[0].words, implicit.link.words);
}

#[test]
fn every_topology_placement_stealing_combination_is_deterministic() {
    let trace = distributed::unhinted(&distributed::rack_clustered(
        2,
        2,
        2,
        3,
        2.0,
        0.5,
        0.3,
        us(20),
        5,
    ));
    for topology in Topology::ALL {
        let link = LinkConfig::rdma().with_topology(topology);
        for placement in PolicyKind::ALL {
            for stealing in StealKind::ALL {
                let cfg = ClusterConfig::new(4, 2)
                    .with_link(link)
                    .with_placement(placement)
                    .with_stealing(stealing);
                let tag = format!("{topology}/{placement}/{stealing}");
                let a = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                let b = simulate_cluster(&trace, &cfg, |_| tight_sharp());
                assert_eq!(a.makespan, b.makespan, "{tag}: makespan");
                assert_eq!(a.steals, b.steals, "{tag}: steals");
                assert_eq!(a.link.words, b.link.words, "{tag}: words");
                assert_eq!(a.node_tasks(), b.node_tasks(), "{tag}: node tasks");
                let tiers = |o: &ClusterOutcome| {
                    o.link
                        .per_tier
                        .iter()
                        .map(|t| (t.name.clone(), t.words))
                        .collect::<Vec<_>>()
                };
                assert_eq!(tiers(&a), tiers(&b), "{tag}: tier words");
                assert_eq!(a.tasks, trace.task_count() as u64, "{tag}: completion");
            }
        }
    }
}

#[test]
fn tiered_fabrics_route_every_workload_to_completion() {
    // Smoke over the genuinely multi-hop fabrics at a non-power-of-two node
    // count: everything retires, per-tier words add up to the total.
    let trace = distributed::sparselu(6, 0.4, 17, 0.002);
    for topology in [Topology::RackTiers, Topology::Torus2D, Topology::Dragonfly] {
        let cfg = ClusterConfig::new(6, 2)
            .with_link(LinkConfig::rdma().with_topology(topology))
            .with_stealing(StealKind::Hierarchical);
        let out = simulate_cluster(&trace, &cfg, |_| tight_sharp());
        assert_eq!(out.tasks, trace.task_count() as u64, "{topology}");
        let tier_sum: u64 = out.link.per_tier.iter().map(|t| t.words).sum();
        assert_eq!(tier_sum, out.link.words, "{topology}: tier accounting");
        assert!(out.link.words > 0, "{topology}");
    }
}
