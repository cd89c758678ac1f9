// Tier-1 guard for the parallel partition pipeline: OCDDISCOVER must
// produce the same dependencies and the same check totals whichever check
// backend (sort-based vs cached sorted partitions) and thread count is
// used. Runs on a scaled-down LATTICE relation — the workload engineered
// to expand the candidate lattice to the last level (see
// datagen/generators.h), so every pipeline stage is exercised: sibling
// grouping, counting/histogram refinement, publish-order determinism, and
// the merged OCD+OD partition check.

#include <gtest/gtest.h>

#include "core/ocd_discover.h"
#include "datagen/generators.h"
#include "relation/coded_relation.h"

namespace ocdd::core {
namespace {

const rel::CodedRelation& LatticeRelation() {
  static const rel::CodedRelation& r = *new rel::CodedRelation(
      rel::CodedRelation::Encode(datagen::MakeLattice(800, /*seed=*/42)));
  return r;
}

OcdDiscoverResult RunDiscovery(bool partitions, std::size_t threads) {
  OcdDiscoverOptions opts;
  opts.use_sorted_partitions = partitions;
  opts.num_threads = threads;
  return DiscoverOcds(LatticeRelation(), opts);
}

TEST(PerfSmokeTest, AllBackendsAndThreadCountsAgree) {
  OcdDiscoverResult reference = RunDiscovery(/*partitions=*/false, /*threads=*/1);
  EXPECT_TRUE(reference.completed);
  // The LATTICE construction promises: the six co-monotone columns produce
  // a full lattice of valid OCDs with no OD pruning anywhere.
  EXPECT_GT(reference.ocds.size(), 0u);
  EXPECT_EQ(reference.ods.size(), 0u);
  EXPECT_EQ(reference.levels_completed, 8u);

  for (bool partitions : {false, true}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      if (!partitions && threads == 1) continue;  // the reference itself
      OcdDiscoverResult run = RunDiscovery(partitions, threads);
      SCOPED_TRACE(::testing::Message()
                   << "partitions=" << partitions << " threads=" << threads);
      EXPECT_TRUE(run.completed);
      EXPECT_EQ(run.ocds, reference.ocds);
      EXPECT_EQ(run.ods, reference.ods);
      EXPECT_EQ(run.num_checks, reference.num_checks);
    }
  }
}

TEST(PerfSmokeTest, PartitionRunsAreBitIdenticalAcrossThreadCounts) {
  // Stronger than set equality: the partition pipeline plans, refines and
  // publishes in a thread-count-independent order, so every result field
  // that is not a timing must match exactly between 1 and 4 threads.
  OcdDiscoverResult one = RunDiscovery(/*partitions=*/true, /*threads=*/1);
  OcdDiscoverResult four = RunDiscovery(/*partitions=*/true, /*threads=*/4);
  EXPECT_EQ(one.ocds, four.ocds);
  EXPECT_EQ(one.ods, four.ods);
  EXPECT_EQ(one.num_checks, four.num_checks);
  EXPECT_EQ(one.levels_completed, four.levels_completed);
  EXPECT_EQ(one.partition_cache_bytes, four.partition_cache_bytes);
}

}  // namespace
}  // namespace ocdd::core
