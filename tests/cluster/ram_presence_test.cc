// find_copy(kRam, s, id) answers from the server's block store alone, so
// the store must hold exactly the replicas the cluster index lists. Every
// step that adds or removes a RAM copy is checked against the index, under
// LRU and under LRC with pinning.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/cluster.h"

namespace stark {
namespace {

struct PolicyCase {
  std::string name;
  EvictionPolicyKind policy = EvictionPolicyKind::kLru;
  bool pin = false;
};

void PrintTo(const PolicyCase& c, std::ostream* os) { *os << c.name; }

class RamPresence : public ::testing::TestWithParam<PolicyCase> {
 protected:
  RamPresence() : cluster_(config()) {
    for (DatasetId d = 1; d <= 3; ++d) {
      for (int p = 0; p < 4; ++p) universe_.push_back({d, p});
    }
  }

  static ClusterConfig config() {
    ClusterConfig c;
    c.num_servers = 3;
    c.server.ram = 1000.0;
    c.server.storage_fraction = 1.0;  // 1000 bytes of store per server
    c.cache.policy = GetParam().policy;
    c.cache.pin_running_blocks = GetParam().pin;
    return c;
  }

  // The property under test, over every (server, block) pair.
  void expect_consistent(const std::string& step) const {
    SCOPED_TRACE(step);
    for (ServerId s = 0; s < cluster_.size(); ++s) {
      for (const BlockId& id : universe_) {
        const auto& locs = cluster_.cache_locations(id);
        const bool listed =
            std::find(locs.begin(), locs.end(), s) != locs.end();
        EXPECT_EQ(cluster_.find_copy(MemoryTier::kRam, s, id).has_value(),
                  listed)
            << "server " << s << " block " << id.dataset << "/"
            << id.partition;
      }
    }
    EXPECT_EQ(cluster_.alive_count(),
              static_cast<int>(cluster_.alive_servers().size()));
  }

  Cluster cluster_;
  std::vector<BlockId> universe_;
};

TEST_P(RamPresence, StoreMatchesIndexThroughEveryMutation) {
  expect_consistent("empty");
  // Dataset 1 is still read by a pending stage; LRC evicts around it.
  cluster_.bump_lineage_refcount(1, 2);
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(cluster_.insert_block(0, {1, p}, 300.0));
    ASSERT_TRUE(cluster_.insert_block(1, {1, p}, 300.0));
  }
  expect_consistent("fill");
  if (GetParam().pin) cluster_.pin_block(0, {1, 0});

  // Evicting inserts: each new 300-byte block pushes an older one out.
  // Under LRC with 1/0 pinned the later ones find no victim outside their
  // own dataset and are skipped.
  for (int p = 0; p < 4; ++p) {
    cluster_.insert_block(0, {2, p}, 300.0);
    expect_consistent("evicting insert 2/" + std::to_string(p));
  }
  EXPECT_FALSE(cluster_.cached_on({1, 1}, 0));
  if (GetParam().pin) {
    EXPECT_TRUE(cluster_.find_copy(MemoryTier::kRam, 0, {1, 0}));
  }

  // A failed re-insert drops the old copy from the store and the index.
  ASSERT_TRUE(cluster_.cached_on({2, 1}, 0));
  EXPECT_FALSE(cluster_.insert_block(0, {2, 1}, 5000.0));
  EXPECT_FALSE(cluster_.cached_on({2, 1}, 0));
  expect_consistent("failed re-insert");

  ASSERT_TRUE(cluster_.insert_block(2, {3, 0}, 100.0));
  ASSERT_TRUE(cluster_.insert_block(1, {3, 0}, 100.0));
  expect_consistent("replicate");
  EXPECT_TRUE(cluster_.drop_copy(MemoryTier::kRam, 1, {3, 0}));
  EXPECT_FALSE(cluster_.drop_copy(MemoryTier::kRam, 1, {3, 0}));
  expect_consistent("drop_copy");
  // 1/0 is still on server 0 only where it is pinned; pins do not stop
  // an explicit drop.
  const auto replicas = cluster_.cache_locations({1, 0}).size();
  ASSERT_EQ(replicas, GetParam().pin ? 2u : 1u);
  EXPECT_EQ(cluster_.drop_everywhere({1, 0}), 300.0 * replicas);
  expect_consistent("drop_everywhere");
  EXPECT_TRUE(cluster_.corrupt_copy(MemoryTier::kRam, 2, {3, 0}));
  EXPECT_FALSE(cluster_.corrupt_copy(MemoryTier::kRam, 1, {3, 0}));
  const auto corrupt = cluster_.find_copy(MemoryTier::kRam, 2, {3, 0});
  ASSERT_TRUE(corrupt);
  EXPECT_TRUE(corrupt->corrupt);
  EXPECT_EQ(corrupt->bytes, 100.0);
  EXPECT_EQ(corrupt->host, 2);
  expect_consistent("corrupt_copy");

  // Killing drops every RAM copy; the second call changes nothing.
  EXPECT_TRUE(cluster_.kill_server(1));
  expect_consistent("kill");
  EXPECT_FALSE(cluster_.kill_server(1));
  expect_consistent("kill again");
  EXPECT_EQ(cluster_.alive_count(), 2);
  EXPECT_FALSE(cluster_.insert_block(1, {1, 2}, 300.0));
  expect_consistent("insert on a dead server");
  EXPECT_TRUE(cluster_.restart_server(1));
  expect_consistent("restart");
  EXPECT_FALSE(cluster_.restart_server(1));
  expect_consistent("restart again");
  EXPECT_EQ(cluster_.alive_count(), 3);
  ASSERT_TRUE(cluster_.insert_block(1, {1, 2}, 300.0));
  expect_consistent("insert after restart");
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RamPresence,
    ::testing::Values(PolicyCase{"Lru", EvictionPolicyKind::kLru, false},
                      PolicyCase{"LrcPinned", EvictionPolicyKind::kLrc, true}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace stark
