// Tests for geography, anycast catchments, and the Fig-2 deployment model.
#include <gtest/gtest.h>

#include <vector>

#include "topo/deployment.h"
#include "topo/geo.h"
#include "topo/topology.h"

namespace rootless::topo {
namespace {

TEST(Geo, GreatCircleKnownDistances) {
  // New York <-> London is ~5,570 km.
  const GeoPoint nyc{40.71, -74.0};
  const GeoPoint london{51.51, -0.13};
  const double km = GreatCircleKm(nyc, london);
  EXPECT_GT(km, 5300);
  EXPECT_LT(km, 5800);

  EXPECT_NEAR(GreatCircleKm(nyc, nyc), 0.0, 1e-9);
  // Antipodal points: half the circumference, ~20,000 km.
  const double anti = GreatCircleKm({0, 0}, {0, 180});
  EXPECT_NEAR(anti, 20015, 50);
}

TEST(Geo, LatencyGrowsWithDistance) {
  EXPECT_LT(LatencyForDistanceKm(100), LatencyForDistanceKm(5000));
  // Base latency even at zero distance.
  EXPECT_GT(LatencyForDistanceKm(0), 0);
  // Transatlantic one-way should be tens of milliseconds.
  const sim::SimTime t = LatencyForDistanceKm(5600);
  EXPECT_GT(t, 20 * sim::kMillisecond);
  EXPECT_LT(t, 80 * sim::kMillisecond);
}

TEST(Geo, SampledPointsAreValid) {
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const GeoPoint p = SamplePopulationPoint(rng);
    EXPECT_GE(p.latitude_deg, -90);
    EXPECT_LE(p.latitude_deg, 90);
    EXPECT_GE(p.longitude_deg, -180);
    EXPECT_LT(p.longitude_deg, 180);
    const GeoPoint u = SampleUniformPoint(rng);
    EXPECT_GE(u.latitude_deg, -90);
    EXPECT_LE(u.latitude_deg, 90);
  }
}

TEST(Geo, SameSiteIsToleranceNotExactEquality) {
  const GeoPoint paris{48.8566, 2.3522};
  // Bit-identical points are the same site, as are points within the
  // ~110 m epsilon — e.g. the same coordinates arrived at through a
  // different arithmetic path.
  EXPECT_TRUE(SameSite(paris, paris));
  EXPECT_TRUE(SameSite(paris, {48.8566 + 1e-7, 2.3522 - 1e-7}));
  EXPECT_TRUE(SameSite(paris, {48.8569, 2.3525}));
  // A few hundred metres away is a different site.
  EXPECT_FALSE(SameSite(paris, {48.86, 2.36}));
  EXPECT_FALSE(SameSite(paris, {48.8566, 2.36}));
  // Longitude wraps at the antimeridian: 179.9995 and -179.9995 are ~110 m
  // apart, not 360 degrees.
  EXPECT_TRUE(SameSite({10, 179.99995}, {10, -179.99995}));
  EXPECT_FALSE(SameSite({10, 179.5}, {10, -179.5}));
}

TEST(Topology, InstancesMatchDeploymentForDate) {
  const Topology topology;
  const DeploymentModel model;
  const auto expected = model.AllInstancesOn({2018, 4, 11});
  ASSERT_EQ(topology.instances().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(topology.instances()[i].letter, expected[i].letter) << i;
  }
  // Every letter resolves to a non-empty instance set.
  std::size_t total = 0;
  for (char letter = 'a'; letter <= 'm'; ++letter) {
    EXPECT_FALSE(topology.letter_instances(letter).empty()) << letter;
    total += topology.letter_instances(letter).size();
  }
  EXPECT_EQ(total, expected.size());
}

TEST(Topology, DefaultRegionWeightsSumToOne) {
  const auto& regions = DefaultRegions();
  ASSERT_EQ(regions.size(), 8u);
  double total = 0;
  for (const auto& r : regions) total += r.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
  const Topology topology;
  EXPECT_EQ(topology.region_count(), regions.size());
  EXPECT_EQ(topology.RegionIndexOf("southeast-asia"),
            topology.RegionIndexOf("southeast-asia"));
  EXPECT_GE(topology.RegionIndexOf("europe"), 0);
  EXPECT_EQ(topology.RegionIndexOf("atlantis"), -1);
}

TEST(Topology, PlacementIsAPureFunctionOfSeedAndId) {
  // Two topologies built from equal options agree on every placement and
  // every catchment, regardless of query order — the property that makes
  // sharded runs bit-identical for any shard/thread layout.
  const Topology a;
  const Topology b;
  for (std::uint64_t id = 0; id < 64; ++id) {
    const auto sa = a.PlaceResolver(id);
    const auto sb = b.PlaceResolver(id);
    EXPECT_EQ(sa.region, sb.region) << id;
    EXPECT_DOUBLE_EQ(sa.location.latitude_deg, sb.location.latitude_deg);
    EXPECT_DOUBLE_EQ(sa.location.longitude_deg, sb.location.longitude_deg);
    EXPECT_GE(sa.region, 0);
    EXPECT_LT(static_cast<std::size_t>(sa.region), a.region_count());
  }
  // Different seeds genuinely move resolvers.
  const Topology other({.seed = 4242});
  int moved = 0;
  for (std::uint64_t id = 0; id < 64; ++id) {
    if (!SameSite(a.PlaceResolver(id).location,
                  other.PlaceResolver(id).location)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 32);
}

TEST(Topology, CatchmentsAreOrderIndependent) {
  const Topology a;
  const Topology b;
  const std::uint64_t kIds = 48;
  // Walk the id space in K-strided interleavings (the orders K-shard runs
  // would issue) and require the exact instance assignment the sequential
  // walk produces.
  std::vector<std::size_t> reference;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    const GeoPoint where = a.PlaceResolver(id).location;
    reference.push_back(a.CatchmentAt(where, id, 'f').instance);
  }
  for (const std::uint64_t stride : {2u, 8u}) {
    for (std::uint64_t start = 0; start < stride; ++start) {
      for (std::uint64_t id = start; id < kIds; id += stride) {
        const GeoPoint where = b.PlaceResolver(id).location;
        EXPECT_EQ(b.CatchmentAt(where, id, 'f').instance,
                  reference[static_cast<std::size_t>(id)])
            << "id " << id << " stride " << stride;
      }
    }
  }
}

// Ideal-nearest instance of letter 'f' — the routing a perfectly tuned BGP
// would give; the catchment model perturbs away from this.
std::size_t IdealNearestF(const Topology& t, const GeoPoint& where) {
  const auto& candidates = t.letter_instances('f');
  std::size_t best = candidates[0];
  double best_km = GreatCircleKm(t.instances()[best].location, where);
  for (std::size_t k = 1; k < candidates.size(); ++k) {
    const double km =
        GreatCircleKm(t.instances()[candidates[k]].location, where);
    if (km < best_km) {
      best_km = km;
      best = candidates[k];
    }
  }
  return best;
}

TEST(Topology, CatchmentInflatesButNeverShrinksDistance) {
  const Topology topology;
  util::Rng rng(11);
  int diverged = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    const GeoPoint where = SamplePopulationPoint(rng);
    const auto c = topology.CatchmentAt(where, id, 'f');
    EXPECT_GE(c.effective_km, c.geo_km);
    // The chosen instance is a real instance of the letter.
    EXPECT_EQ(topology.instances()[c.instance].letter, 'f');
    // BGP perturbation must sometimes pick a non-nearest instance (the
    // F-ROOT study's observation); count divergences from ideal routing.
    if (c.instance != IdealNearestF(topology, where)) ++diverged;
  }
  EXPECT_GT(diverged, 10);
  // With inflation disabled, catchments are exactly nearest-by-geography.
  const Topology ideal_topology({.bgp_inflation = 0, .poor_path_share = 0});
  for (std::uint64_t id = 0; id < 50; ++id) {
    const GeoPoint where = SamplePopulationPoint(rng);
    const auto c = ideal_topology.CatchmentAt(where, id, 'f');
    EXPECT_EQ(c.instance, IdealNearestF(ideal_topology, where)) << id;
  }
}

TEST(Topology, RegionRttGoldenBands) {
  // Calibration against the F-ROOT Southeast Asia study's regimes: regions
  // that host many instances see short best-letter RTTs; Southeast Asia
  // (deliberately absent from the instance-placement table) and Africa sit
  // in the poor-coverage regime with a long inflated tail.
  const Topology topology;
  const auto europe = topology.RegionRootRtt(topology.RegionIndexOf("europe"));
  const auto sea =
      topology.RegionRootRtt(topology.RegionIndexOf("southeast-asia"));
  EXPECT_LT(europe.p50, 60 * sim::kMillisecond);
  EXPECT_GT(sea.p90, europe.p90);
  EXPECT_GT(sea.p50, europe.p50);
  // Deployment growth helps: the thin 2015 deployment serves every region
  // no better (and the world overall worse) than the 2018 one.
  const Topology early({.date = {2015, 3, 15}});
  double early_total = 0;
  double late_total = 0;
  for (std::size_t g = 0; g < topology.region_count(); ++g) {
    early_total += early.RegionRootRtt(static_cast<int>(g)).mean_us;
    late_total += topology.RegionRootRtt(static_cast<int>(g)).mean_us;
  }
  EXPECT_GT(early_total, late_total);
  // Distribution sanity: percentiles are ordered and positive.
  EXPECT_GT(europe.p10, 0);
  EXPECT_LE(europe.p10, europe.p50);
  EXPECT_LE(europe.p50, europe.p90);
  EXPECT_LE(europe.p90, europe.p99);
}

TEST(Topology, NodePlacementDrivesLatency) {
  Topology topology;
  topology.PlaceNode(0, {40.71, -74.0});
  topology.PlaceNode(1, {51.51, -0.13});
  topology.PlaceNode(2, {40.8, -74.1});
  EXPECT_GT(topology.Latency(0, 1), topology.Latency(0, 2));
  EXPECT_EQ(topology.Latency(0, 0), Topology::kLoopbackLatency);
  // Co-location uses the SameSite tolerance, not exact float equality.
  topology.PlaceNode(3, {40.71 + 1e-7, -74.0 - 1e-7});
  EXPECT_EQ(topology.Latency(0, 3), Topology::kLoopbackLatency);
}

TEST(Topology, LocationOfReturnsPlacedPoint) {
  Topology topology;
  topology.PlaceNode(0, {40.71, -74.0});
  EXPECT_TRUE(SameSite(topology.LocationOf(0), {40.71, -74.0}));
}

TEST(Topology, ColocatedNodesGetLoopback) {
  Topology topology;
  topology.PlaceNode(0, {10, 20});
  topology.PlaceNode(1, {10, 20});
  EXPECT_EQ(topology.Latency(0, 1), Topology::kLoopbackLatency);
}

TEST(Deployment, OperatorsMatchPaper) {
  const auto& ops = RootOperators();
  EXPECT_EQ(ops.size(), 13u);
  // Verisign operates both a-root and j-root (the paper's footnote 1).
  EXPECT_STREQ(ops[IndexForLetter('a')].organization, "Verisign");
  EXPECT_STREQ(ops[IndexForLetter('j')].organization, "Verisign");
}

TEST(Deployment, TotalMatchesPaperAnchors) {
  const DeploymentModel model;
  // root-servers.org reported 985 instances on 2019-05-15.
  EXPECT_EQ(model.TotalInstancesOn({2019, 5, 15}), 985);
  // Roughly 450 in March 2015 (start of Fig 2).
  const int start = model.TotalInstancesOn({2015, 3, 15});
  EXPECT_GT(start, 400);
  EXPECT_LT(start, 500);
}

TEST(Deployment, GrowthIsMonotonicOverall) {
  const DeploymentModel model;
  int prev = 0;
  for (int year = 2015; year <= 2019; ++year) {
    const int count = model.TotalInstancesOn({year, 3, 15});
    EXPECT_GE(count, prev) << year;
    prev = count;
  }
}

TEST(Deployment, SmallLettersStaySmall) {
  // Paper: at most six instances for b, g, h, m-root.
  const DeploymentModel model;
  for (char letter : {'b', 'g', 'h', 'm'}) {
    EXPECT_LE(model.InstanceCountOn(letter, {2019, 5, 15}), 6) << letter;
  }
}

TEST(Deployment, LargeLettersExceed100) {
  // Paper: over 100 instances for d, e, f, j, l-root.
  const DeploymentModel model;
  for (char letter : {'d', 'e', 'f', 'j', 'l'}) {
    EXPECT_GT(model.InstanceCountOn(letter, {2019, 5, 15}), 100) << letter;
  }
}

TEST(Deployment, ERootJumpJan2016) {
  const DeploymentModel model;
  const int before = model.InstanceCountOn('e', {2016, 1, 15});
  const int after = model.InstanceCountOn('e', {2016, 2, 15});
  EXPECT_EQ(after - before, 45);  // the paper's documented jump
}

TEST(Deployment, FRootJumpApr2017) {
  const DeploymentModel model;
  const int before = model.InstanceCountOn('f', {2017, 4, 15});
  const int after = model.InstanceCountOn('f', {2017, 5, 15});
  EXPECT_EQ(after - before, 81);
}

TEST(Deployment, NovDec2017Jumps) {
  const DeploymentModel model;
  EXPECT_EQ(model.InstanceCountOn('e', {2017, 12, 15}) -
                model.InstanceCountOn('e', {2017, 11, 15}),
            85);
  EXPECT_EQ(model.InstanceCountOn('f', {2017, 12, 15}) -
                model.InstanceCountOn('f', {2017, 11, 15}),
            43);
}

TEST(Deployment, SitesAreStablePrefixes) {
  const DeploymentModel model;
  const auto early = model.SitesOn('f', {2016, 6, 15});
  const auto late = model.SitesOn('f', {2019, 5, 15});
  ASSERT_LT(early.size(), late.size());
  for (std::size_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(early[i], late[i]) << i;
  }
}

TEST(Deployment, AllInstancesMatchesTotals) {
  const DeploymentModel model;
  const util::CivilDate date{2018, 4, 11};
  EXPECT_EQ(model.AllInstancesOn(date).size(),
            static_cast<std::size_t>(model.TotalInstancesOn(date)));
}

TEST(Deployment, NearestInstancePicksCloseSite) {
  const DeploymentModel model;
  const auto instances = model.AllInstancesOn({2019, 5, 15});
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const GeoPoint client = SamplePopulationPoint(rng);
    const std::size_t best = NearestInstance(instances, client);
    const double best_km = GreatCircleKm(instances[best].location, client);
    for (std::size_t k = 0; k < instances.size(); k += 17) {
      EXPECT_LE(best_km, GreatCircleKm(instances[k].location, client) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace rootless::topo
