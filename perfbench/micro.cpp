#include "micro.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mp/comm.hpp"
#include "pgas/sim_engine.hpp"
#include "sha1/sha1.hpp"
#include "sim/fiber.hpp"
#include "sim/ready_queue.hpp"
#include "uts/node.hpp"
#include "ws/uts_problem.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
constexpr int kReps = 5;

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median over kReps runs of `loop`, which returns ns per op.
template <typename Loop>
double median_of_reps(Loop&& loop) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) v.push_back(loop());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

class Collect final : public upcws::ws::NodeSink {
 public:
  std::vector<upcws::uts::Node> nodes;
  void push(const std::byte* n) override {
    upcws::uts::Node x;
    std::memcpy(&x, n, sizeof(x));
    nodes.push_back(x);
  }
};

// Keeps loop results observable so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

std::uint32_t rotl(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> (32 - n));
}

double calibration_kernel_ns() {
  constexpr int kBlocks = 20000;
  std::uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                        0xC3D2E1F0u};
  std::uint32_t w[80];
  const auto t0 = Clock::now();
  for (int i = 0; i < kBlocks; ++i) {
    // Each block is derived from the previous state: a dependency chain the
    // compiler cannot shorten.
    for (int t = 0; t < 16; ++t)
      w[t] = h[t % 5] ^ static_cast<std::uint32_t>(i * 16 + t);
    for (int t = 16; t < 80; ++t)
      w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int t = 0; t < 80; ++t) {
      std::uint32_t f, k;
      if (t < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (t < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (t < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[t];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  const double ns = elapsed_ns(t0);
  g_sink = g_sink + h[0];
  return ns / kBlocks;
}

}  // namespace

double host_calibration_ns(int threads) {
  std::vector<double> ns(static_cast<std::size_t>(threads));
  {
    std::vector<std::jthread> helpers;
    for (int i = 1; i < threads; ++i)
      helpers.emplace_back([&ns, i] { ns[i] = calibration_kernel_ns(); });
    ns[0] = calibration_kernel_ns();
  }
  return *std::max_element(ns.begin(), ns.end());
}

double sha1_compress_ns(const upcws::uts::Params& tree) {
  const upcws::ws::UtsProblem prob(tree);
  std::byte root[sizeof(upcws::uts::Node)];
  prob.root(root);
  Collect c;
  prob.expand(root, c);
  if (c.nodes.empty()) throw std::runtime_error("root has no children");
  // Single padded SHA-1 block per child: 20-byte parent state, 4-byte
  // child index, 0x80 terminator, 64-bit big-endian message bit length.
  std::vector<std::array<std::uint8_t, 64>> blocks(c.nodes.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    auto& b = blocks[i];
    b.fill(0);
    std::memcpy(b.data(), c.nodes[i].state.data(), 20);
    const auto idx = static_cast<std::uint32_t>(i);
    b[20] = static_cast<std::uint8_t>(idx >> 24);
    b[21] = static_cast<std::uint8_t>(idx >> 16);
    b[22] = static_cast<std::uint8_t>(idx >> 8);
    b[23] = static_cast<std::uint8_t>(idx);
    b[24] = 0x80;
    b[63] = 24 * 8;
  }
  const std::size_t calls = std::max<std::size_t>(20000, blocks.size());
  return median_of_reps([&] {
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i)
      acc += upcws::sha1::compress_block(blocks[i % blocks.size()].data())[0];
    const double ns = elapsed_ns(t0);
    g_sink = g_sink + acc;
    return ns / static_cast<double>(calls);
  });
}

double ready_queue_op_ns(int size) {
  constexpr int kOps = 200000;
  return median_of_reps([&] {
    upcws::sim::ReadyQueue q;
    q.ensure_tasks(size);
    std::mt19937_64 rng(size);
    for (int t = 0; t < size; ++t) q.push(rng() % 4096, t);
    const auto t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      const upcws::sim::ReadyQueue::Entry e = q.pop();
      q.push(e.vt + 1 + (rng() & 4095), e.task);
    }
    const double ns = elapsed_ns(t0);
    g_sink = g_sink + q.top().vt;
    return ns / kOps;
  });
}

double fiber_switch_ns() {
  constexpr int kRounds = 200000;
  return median_of_reps([&] {
    bool stop = false;
    upcws::sim::Fiber f([&] {
      while (!stop) upcws::sim::Fiber::yield_current();
    });
    const auto t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) f.resume();
    const double ns = elapsed_ns(t0);
    stop = true;
    f.resume();
    if (!f.finished()) throw std::runtime_error("fiber did not finish");
    return ns / kRounds;
  });
}

double mp_send_recv_ns() {
  constexpr int kMsgs = 100000;
  return median_of_reps([&] {
    upcws::pgas::RunConfig rc;
    rc.nranks = 1;
    rc.net = upcws::pgas::NetModel::distributed();
    upcws::mp::Comm comm(1);
    double ns = 0;
    upcws::pgas::SimEngine eng;
    eng.run(rc, [&](upcws::pgas::Ctx& c) {
      upcws::mp::Message m;
      std::uint64_t payload = 0, got = 0;
      const auto t0 = Clock::now();
      for (int i = 0; i < kMsgs; ++i) {
        payload = static_cast<std::uint64_t>(i);
        comm.send(c, 0, 7, &payload, sizeof(payload));
        while (!comm.try_recv(c, 0, 7, m)) c.yield();
        got += m.payload.size();
      }
      ns = elapsed_ns(t0);
      if (got != kMsgs * sizeof(payload))
        throw std::runtime_error("mp loop lost messages");
    });
    return ns / kMsgs;
  });
}

}  // namespace perfbench
