#include "cluster/cluster.h"

#include <gtest/gtest.h>

namespace stark {
namespace {

ClusterConfig small_cluster() {
  ClusterConfig c;
  c.num_servers = 4;
  c.server.cores = 2;
  c.server.ram = 1000.0;
  c.server.storage_fraction = 0.5;
  return c;
}

TEST(Cluster, InsertUpdatesIndex) {
  Cluster c(small_cluster());
  EXPECT_TRUE(c.insert_block(1, {7, 0}, 100.0));
  EXPECT_TRUE(c.cached_on({7, 0}, 1));
  EXPECT_FALSE(c.cached_on({7, 0}, 2));
  EXPECT_TRUE(c.cached_anywhere({7, 0}));
  ASSERT_EQ(c.cache_locations({7, 0}).size(), 1u);
}

TEST(Cluster, ReplicasTracked) {
  Cluster c(small_cluster());
  c.insert_block(0, {7, 0}, 100.0);
  c.insert_block(3, {7, 0}, 100.0);
  EXPECT_EQ(c.cache_locations({7, 0}).size(), 2u);
}

TEST(Cluster, EvictionPropagatesToIndex) {
  Cluster c(small_cluster());  // storage capacity = 500 per server
  c.insert_block(0, {1, 0}, 300.0);
  c.insert_block(0, {2, 0}, 300.0);  // evicts {1,0}
  EXPECT_FALSE(c.cached_anywhere({1, 0}));
  EXPECT_TRUE(c.cached_on({2, 0}, 0));
}

TEST(Cluster, RemoveBlockSingleReplica) {
  Cluster c(small_cluster());
  c.insert_block(0, {1, 0}, 10.0);
  c.insert_block(1, {1, 0}, 10.0);
  EXPECT_TRUE(c.drop_copy(MemoryTier::kRam, 0, {1, 0}));
  EXPECT_TRUE(c.cached_anywhere({1, 0}));
  EXPECT_FALSE(c.cached_on({1, 0}, 0));
  EXPECT_DOUBLE_EQ(c.drop_everywhere({1, 0}), 10.0);  // the one replica left
  EXPECT_FALSE(c.cached_anywhere({1, 0}));
}

TEST(Cluster, KillServerDropsBlocksAndCores) {
  Cluster c(small_cluster());
  c.insert_block(2, {5, 1}, 50.0);
  c.kill_server(2);
  EXPECT_FALSE(c.cached_anywhere({5, 1}));
  EXPECT_FALSE(c.server(2).alive());
  EXPECT_FALSE(c.server(2).has_free_core());
  EXPECT_EQ(c.alive_servers().size(), 3u);
  EXPECT_FALSE(c.insert_block(2, {6, 0}, 10.0));  // dead server refuses
}

TEST(Cluster, RestartServer) {
  Cluster c(small_cluster());
  c.kill_server(1);
  c.restart_server(1);
  EXPECT_TRUE(c.server(1).alive());
  EXPECT_EQ(c.server(1).free_cores(), 2);
  EXPECT_TRUE(c.insert_block(1, {1, 0}, 10.0));
}

TEST(Cluster, ObserverSeesInsertAndEvict) {
  Cluster c(small_cluster());
  int inserts = 0, removes = 0;
  c.add_block_observer([&](ServerId, const BlockId&, bool inserted) {
    if (inserted) {
      ++inserts;
    } else {
      ++removes;
    }
  });
  c.insert_block(0, {1, 0}, 300.0);
  c.insert_block(0, {2, 0}, 300.0);  // evicts {1,0}
  c.drop_copy(MemoryTier::kRam, 0, {2, 0});
  EXPECT_EQ(inserts, 2);
  EXPECT_EQ(removes, 2);
}

TEST(Cluster, TotalFreeCores) {
  Cluster c(small_cluster());
  EXPECT_EQ(c.total_free_cores(), 8);
  c.server(0).acquire_core();
  EXPECT_EQ(c.total_free_cores(), 7);
  c.kill_server(1);
  EXPECT_EQ(c.total_free_cores(), 5);
}

TEST(Cluster, TotalCachedBytes) {
  Cluster c(small_cluster());
  c.insert_block(0, {1, 0}, 100.0);
  c.insert_block(1, {1, 1}, 150.0);
  EXPECT_DOUBLE_EQ(c.total_cached_bytes(), 250.0);
}

TEST(Server, CoreAccounting) {
  Server s(0, {.cores = 2, .ram = 100.0, .storage_fraction = 0.5});
  s.acquire_core();
  s.acquire_core();
  EXPECT_FALSE(s.has_free_core());
  EXPECT_THROW(s.acquire_core(), std::logic_error);
  s.release_core();
  EXPECT_TRUE(s.has_free_core());
  s.release_core();
  EXPECT_THROW(s.release_core(), std::logic_error);
}

TEST(Server, HeapUtilizationIncludesWorkingSet) {
  Server s(0, {.cores = 1, .ram = 1000.0, .storage_fraction = 0.5});
  s.storage().insert({1, 0}, 300.0);
  EXPECT_NEAR(s.heap_utilization(0.0), 0.3, 1e-9);
  EXPECT_NEAR(s.heap_utilization(400.0), 0.7, 1e-9);
  // Capped to keep the GC model bounded (a real JVM spills/dies past
  // modest overcommit instead of thrashing ever harder).
  EXPECT_NEAR(s.heap_utilization(1e9), 1.25, 1e-9);
}

TEST(Cluster, RejectsZeroServers) {
  ClusterConfig c;
  c.num_servers = 0;
  EXPECT_THROW(Cluster{c}, std::invalid_argument);
}

}  // namespace
}  // namespace stark
