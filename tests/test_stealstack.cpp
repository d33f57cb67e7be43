// StealStack unit tests: region bookkeeping, LIFO local semantics, chunk
// moves, thief reservations, compaction safety, and a randomized model
// check against a reference implementation. Also the resident footprint of
// the SharedState that holds one StealStack per rank.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ws/shared_state.hpp"
#include "ws/stealstack.hpp"

namespace {

using upcws::ws::StealStack;

std::vector<std::byte> node_of(int v) {
  std::vector<std::byte> n(sizeof(int));
  std::memcpy(n.data(), &v, sizeof v);
  return n;
}

int value_of(const std::byte* p) {
  int v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

class StealStackTest : public testing::Test {
 protected:
  void SetUp() override { s.init(sizeof(int), 3); }

  void push(int v) { s.push(node_of(v).data()); }
  int pop() {
    std::byte buf[sizeof(int)];
    EXPECT_TRUE(s.pop(buf));
    return value_of(buf);
  }

  StealStack s;
};

TEST_F(StealStackTest, InitState) {
  EXPECT_EQ(s.owner(), 3);
  EXPECT_EQ(s.node_bytes(), sizeof(int));
  EXPECT_EQ(s.local_size(), 0u);
  EXPECT_EQ(s.shared_size(), 0u);
  EXPECT_EQ(s.depth(), 0u);
  EXPECT_EQ(s.lock().owner, 3);
}

TEST_F(StealStackTest, LifoPushPop) {
  for (int i = 0; i < 10; ++i) push(i);
  EXPECT_EQ(s.local_size(), 10u);
  for (int i = 9; i >= 0; --i) EXPECT_EQ(pop(), i);
  std::byte buf[sizeof(int)];
  EXPECT_FALSE(s.pop(buf));
}

TEST_F(StealStackTest, ReleaseMovesOldestNodes) {
  for (int i = 0; i < 10; ++i) push(i);
  s.release(4);  // nodes 0..3 become shared
  EXPECT_EQ(s.local_size(), 6u);
  EXPECT_EQ(s.shared_size(), 4u);
  // Local pops still return the newest.
  EXPECT_EQ(pop(), 9);
  // The shared region holds the oldest values (0..3), in order.
  const std::size_t begin = s.reserve(4);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(value_of(s.slot(begin + i)), i);
}

TEST_F(StealStackTest, ReacquireReturnsNodes) {
  for (int i = 0; i < 8; ++i) push(i);
  s.release(4);
  while (s.local_size() > 0) pop();  // drain local 7..4
  s.reacquire(4);
  EXPECT_EQ(s.local_size(), 4u);
  EXPECT_EQ(s.shared_size(), 0u);
  // Reacquired nodes pop newest-first: 3,2,1,0.
  for (int i = 3; i >= 0; --i) EXPECT_EQ(pop(), i);
}

TEST_F(StealStackTest, ReserveClaimsFromBottom) {
  for (int i = 0; i < 12; ++i) push(i);
  s.release(8);
  const std::size_t a = s.reserve(4);  // values 0..3
  const std::size_t b = s.reserve(4);  // values 4..7
  EXPECT_EQ(s.shared_size(), 0u);
  EXPECT_EQ(value_of(s.slot(a)), 0);
  EXPECT_EQ(value_of(s.slot(b)), 4);
}

TEST_F(StealStackTest, DepthAndPeakTracking) {
  for (int i = 0; i < 5; ++i) push(i);
  s.release(2);
  EXPECT_EQ(s.depth(), 5u);
  (void)s.reserve(2);
  EXPECT_EQ(s.depth(), 3u);
  EXPECT_EQ(s.peak_depth(), 5u);
}

TEST_F(StealStackTest, ResetWhenEmpty) {
  for (int i = 0; i < 4; ++i) push(i);
  s.release(4);
  (void)s.reserve(4);
  EXPECT_EQ(s.depth(), 0u);
  s.maybe_compact();  // indices reset to zero
  push(42);
  EXPECT_EQ(pop(), 42);
}

TEST_F(StealStackTest, CompactionPreservesContents) {
  // Build a large dead prefix by repeated release+reserve cycles, then
  // verify surviving data is intact after compaction.
  int next = 0;
  for (int round = 0; round < 5000; ++round) {
    for (int i = 0; i < 4; ++i) push(next++);
    s.release(2);
    (void)s.reserve(2);
    s.maybe_compact();
  }
  // Stack now holds 5000 rounds x 2 surviving local nodes.
  EXPECT_EQ(s.local_size(), 10000u);
  // The newest local values pop in LIFO order.
  EXPECT_EQ(pop(), next - 1);
  EXPECT_EQ(pop(), next - 2);
}

TEST_F(StealStackTest, InflightBlocksCompaction) {
  for (int i = 0; i < 20000; ++i) push(i);
  s.release(16384);
  const std::size_t begin = s.reserve(16384);
  s.begin_transfer();
  s.maybe_compact();  // must be a no-op: transfer in flight
  // Reserved data is still readable at its original location.
  EXPECT_EQ(value_of(s.slot(begin)), 0);
  EXPECT_EQ(value_of(s.slot(begin + 16383)), 16383);
  s.end_transfer();
  s.maybe_compact();  // now allowed
  EXPECT_EQ(s.local_size(), 20000u - 16384u);
}

TEST_F(StealStackTest, RandomizedModelCheck) {
  // Reference model: a deque for the shared region (front = bottom) and a
  // vector for the local region.
  std::deque<int> shared;
  std::vector<int> local;
  std::mt19937 rng(99);
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    switch (rng() % 5) {
      case 0:
      case 1: {  // push
        push(next);
        local.push_back(next);
        ++next;
        break;
      }
      case 2: {  // pop
        std::byte buf[sizeof(int)];
        const bool ok = s.pop(buf);
        EXPECT_EQ(ok, !local.empty());
        if (ok) {
          EXPECT_EQ(value_of(buf), local.back());
          local.pop_back();
        }
        break;
      }
      case 3: {  // release 3
        if (local.size() >= 3 && s.local_size() >= 3) {
          s.release(3);
          for (int i = 0; i < 3; ++i) {
            shared.push_back(local.front());
            local.erase(local.begin());
          }
        }
        break;
      }
      case 4: {  // steal 3 from bottom, or reacquire
        if (!shared.empty() && s.shared_size() >= 3) {
          if (rng() % 2 == 0) {
            const std::size_t b = s.reserve(3);
            for (int i = 0; i < 3; ++i) {
              EXPECT_EQ(value_of(s.slot(b + i)), shared.front());
              shared.pop_front();
            }
          } else {
            s.reacquire(3);
            for (int i = 0; i < 3; ++i) {
              local.insert(local.begin(), shared.back());
              shared.pop_back();
            }
          }
        }
        break;
      }
    }
    ASSERT_EQ(s.local_size(), local.size());
    ASSERT_EQ(s.shared_size(), shared.size());
    if (step % 1000 == 0) s.maybe_compact();
  }
}

/// Resident set size in KiB from /proc/self/status, or -1 where there is
/// no such file.
long vm_rss_kib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  return -1;
}

TEST(SharedState, FootprintIsLinearInRanks) {
  // One grant buffer per thief, not one per (victim, thief) pair: building
  // the shared state for 4096 ranks must not commit P^2 buffer headers
  // (4096^2 empty vectors would be 384 MiB).
  const long before = vm_rss_kib();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status on this platform";
  auto g = std::make_unique<upcws::ws::SharedState>(4096, 24);
  const long grown_kib = vm_rss_kib() - before;
  EXPECT_EQ(g->slots.size(), 4096u);
  EXPECT_LT(grown_kib, 64 * 1024) << "SharedState(4096) grew RSS by "
                                  << grown_kib / 1024 << " MiB";
}

}  // namespace
