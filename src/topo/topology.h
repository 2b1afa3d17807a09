// The geo subsystem facade: one object that owns the planetary picture the
// whole simulation consumes.
//
//   * Named regions with population-weighted resolver placement (weights
//     follow the B-Root query-composition study's per-region shares).
//   * The per-date root-instance deployment (absorbing DeploymentModel).
//   * Deterministic anycast catchments: which instance of a letter a given
//     resolver actually lands on. Real catchments are not nearest-by-
//     geography — BGP policy routing inflates paths (the F-ROOT Southeast
//     Asia study measured clients routed to instances continents away) — so
//     the assignment minimizes great-circle distance *after* a seeded
//     multiplicative perturbation. The perturbation is a pure hash of
//     (seed, resolver id, letter, instance): no RNG stream, no ordering
//     sensitivity, bit-identical across shard and thread counts.
//   * Per-(region, letter) RTT distribution queries for calibration against
//     the F-ROOT study's regimes (good-coverage regions see ~tens of ms to
//     the root; poor-coverage regions see several times that).
//   * The node→location table and pairwise latency function the simulated
//     network uses.
//
// Everything here is a deterministic function of TopologyOptions; two
// Topology objects built from equal options agree on every query.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/network.h"
#include "topo/deployment.h"
#include "topo/geo.h"
#include "util/civil_time.h"
#include "util/rng.h"

namespace rootless::topo {

// A named resolver population cluster.
struct RegionSpec {
  std::string name;
  GeoPoint centre;
  double spread_deg = 8.0;  // stddev of placement around the centre
  double weight = 0.0;      // share of the world's resolvers
};

// Eight regions, weights summing to 1. Southeast Asia is carved out of the
// instance-placement table's East/South Asia mass on purpose: root instance
// sites cluster in the big-seven regions, so Southeast Asia reproduces the
// F-ROOT study's poor-coverage regime (few nearby instances, long and badly
// inflated catchment paths).
const std::vector<RegionSpec>& DefaultRegions();

struct TopologyOptions {
  // Drives instance-site generation and the catchment perturbation.
  std::uint64_t seed = 2019;
  // Deployment snapshot date (default: the DITL collection day).
  util::CivilDate date{2018, 4, 11};
  // Resolver regions; empty = DefaultRegions().
  std::vector<RegionSpec> regions;
  // Mean multiplicative path stretch from BGP policy routing; 0 makes
  // catchments exactly nearest-by-geography.
  double bgp_inflation = 0.35;
  // Share of (resolver, instance) paths that are routed badly (the F-ROOT
  // "wrong continent" tail); these draw their stretch from a range an order
  // of magnitude wider.
  double poor_path_share = 0.15;
};

class Topology {
 public:
  // Loopback latency for co-located endpoints (RFC 7706's "on loopback").
  static constexpr sim::SimTime kLoopbackLatency = 150;  // 150 us

  Topology() : Topology(TopologyOptions{}) {}
  explicit Topology(TopologyOptions options);

  const TopologyOptions& options() const { return options_; }
  const util::CivilDate& date() const { return options_.date; }
  const DeploymentModel& deployment() const { return deployment_; }

  // --- root deployment view -------------------------------------------
  // All root instances live on date(), in deployment order (letters a..m,
  // per-letter site index ascending). Consumers that build one server per
  // instance (rootsrv::RootServerFleet) index their servers the same way.
  const std::vector<DeploymentModel::Instance>& instances() const {
    return instances_;
  }
  // Indices into instances() for one letter.
  const std::vector<std::size_t>& letter_instances(char letter) const {
    return by_letter_[IndexForLetter(letter)];
  }

  // --- regions and resolver placement ---------------------------------
  std::size_t region_count() const { return regions_.size(); }
  const RegionSpec& region(std::size_t i) const { return regions_[i]; }
  // -1 if unknown.
  int RegionIndexOf(std::string_view name) const;

  struct ResolverSite {
    int region = 0;
    GeoPoint location;
  };
  // Population-weighted placement; a pure function of (seed, resolver_id) —
  // independent of call order, shard layout, and every other resolver.
  ResolverSite PlaceResolver(std::uint64_t resolver_id) const;
  // A point inside one region; pure function of (seed, region, salt).
  GeoPoint SampleInRegion(int region, std::uint64_t salt) const;

  // --- anycast catchments ---------------------------------------------
  struct Catchment {
    std::size_t instance = 0;  // index into instances()
    double geo_km = 0;         // great-circle distance to it
    double effective_km = 0;   // geo_km after BGP inflation
  };
  // The instance of `letter` that BGP actually delivers a resolver at
  // `where` to: argmin over the letter's instances of perturbed distance.
  // `resolver_id` seeds the perturbation — distinct resolvers at the same
  // point can land in different catchments, as measured in the wild.
  Catchment CatchmentAt(const GeoPoint& where, std::uint64_t resolver_id,
                        char letter) const;
  // Round-trip time over the catchment path.
  sim::SimTime CatchmentRtt(const GeoPoint& where, std::uint64_t resolver_id,
                            char letter) const;

  // --- per-(region, letter) RTT distributions -------------------------
  struct RttDistribution {
    sim::SimTime p10 = 0;
    sim::SimTime p50 = 0;
    sim::SimTime p90 = 0;
    sim::SimTime p99 = 0;
    double mean_us = 0;
  };
  // Catchment RTT distribution for resolvers sampled inside a region
  // querying one letter.
  RttDistribution RegionLetterRtt(int region, char letter,
                                  int samples = 64) const;
  // Same, but each sampled resolver uses its best letter — what a converged
  // RTT-based root selector sees.
  RttDistribution RegionRootRtt(int region, int samples = 64) const;

  // --- node placement and network latency ----------------------------
  void PlaceNode(sim::NodeId node, const GeoPoint& location);
  GeoPoint LocationOf(sim::NodeId node) const;
  sim::SimTime Latency(sim::NodeId a, sim::NodeId b) const;
  // A latency function bound to this topology; it must outlive the network.
  sim::Network::LatencyFn LatencyFn() const;

 private:
  // Multiplicative path stretch for (resolver_id, letter, instance index).
  double InflationMultiplier(std::uint64_t resolver_id, int letter_index,
                             std::size_t instance) const;
  GeoPoint PointNear(const RegionSpec& region, util::Rng& rng) const;

  TopologyOptions options_;
  std::vector<RegionSpec> regions_;
  double total_weight_ = 1.0;
  DeploymentModel deployment_;
  std::vector<DeploymentModel::Instance> instances_;
  std::array<std::vector<std::size_t>, kRootLetterCount> by_letter_;
  std::vector<GeoPoint> node_locations_;
};

}  // namespace rootless::topo
