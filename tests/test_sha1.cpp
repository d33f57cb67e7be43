// SHA-1 correctness against RFC 3174 / FIPS 180-1 vectors, plus incremental
// hashing and boundary-condition behaviour, and a differential test of the
// SHA-NI compression kernel against the portable one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "sha1/kernels.hpp"
#include "sha1/sha1.hpp"

namespace {

namespace kern = upcws::sha1::detail;

using upcws::sha1::Digest;
using upcws::sha1::Hasher;
using upcws::sha1::compress_block;
using upcws::sha1::hash;
using upcws::sha1::to_hex;

TEST(Sha1, EmptyString) {
  EXPECT_EQ(to_hex(hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(to_hex(hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Hasher h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, Rfc3174Repeated) {
  // RFC 3174 test 4: "0123456701234567..." repeated 10 times, x80... the RFC
  // uses 80 repetitions of "01234567".
  Hasher h;
  for (int i = 0; i < 80; ++i) h.update("01234567");
  EXPECT_EQ(to_hex(h.finish()), "dea356a2cddd90c7a7ecedc5ebb563934f460452");
}

TEST(Sha1, TwoBlock896Bit) {
  // FIPS 180-2 appendix vector: 896-bit (112-byte) message.
  EXPECT_EQ(to_hex(hash("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghi"
                        "jklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrs"
                        "tnopqrstu")),
            "a49b2446a02c645bf419f995b67091253a04a259");
}

TEST(Sha1, CompressBlockMatchesHasher) {
  // compress_block is the engine's fast path for messages that fit one
  // padded block (len <= 55). It must agree with the incremental Hasher for
  // every such length, with the caller doing the FIPS padding by hand.
  std::mt19937_64 rng(2026);
  for (std::size_t len = 0; len <= 55; ++len) {
    std::uint8_t msg[56];
    for (std::size_t i = 0; i < len; ++i)
      msg[i] = static_cast<std::uint8_t>(rng());
    std::uint8_t block[64] = {};
    std::memcpy(block, msg, len);
    block[len] = 0x80;
    const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
    for (int i = 0; i < 8; ++i)
      block[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    EXPECT_EQ(compress_block(block), hash(msg, len)) << "len " << len;
  }
}

TEST(Sha1, RandomSplitsMatchOneShot) {
  // Incremental hashing over random messages with random split points must
  // equal the one-shot digest regardless of how updates fall against the
  // 64-byte block boundary.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t len = 1 + rng() % 512;
    std::string msg(len, '\0');
    for (char& c : msg) c = static_cast<char>(rng());
    const Digest ref = hash(msg);
    Hasher h;
    std::size_t off = 0;
    while (off < len) {
      const std::size_t take = 1 + rng() % (len - off);
      h.update(msg.data() + off, take);
      off += take;
    }
    EXPECT_EQ(h.finish(), ref) << "trial " << trial << " len " << len;
  }
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways.";
  const Digest ref = hash(msg);
  // Split at every possible point.
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Hasher h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), ref) << "split at " << split;
  }
}

TEST(Sha1, ByteAtATime) {
  const std::string msg(200, 'x');
  const Digest ref = hash(msg);
  Hasher h;
  for (char c : msg) h.update(&c, 1);
  EXPECT_EQ(h.finish(), ref);
}

TEST(Sha1, ResetReusesHasher) {
  Hasher h;
  h.update("garbage");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(to_hex(h.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, LengthBoundaries) {
  // Messages whose padding straddles block boundaries: 55, 56, 63, 64, 65
  // bytes. Compare one-shot against byte-at-a-time as a self-consistency
  // check plus one pinned value.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'z');
    Hasher h;
    for (char c : msg) h.update(&c, 1);
    EXPECT_EQ(h.finish(), hash(msg)) << "len " << len;
  }
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  EXPECT_NE(hash("abc"), hash("abd"));
  EXPECT_NE(hash("abc"), hash("abc "));
  EXPECT_NE(hash(""), hash("\0", 1));
}

TEST(Sha1, HexFormatting) {
  Digest d{};
  d[0] = 0x00;
  d[1] = 0xFF;
  d[19] = 0x0A;
  const std::string hex = to_hex(d);
  ASSERT_EQ(hex.size(), 40u);
  EXPECT_EQ(hex.substr(0, 4), "00ff");
  EXPECT_EQ(hex.substr(38, 2), "0a");
}

// ---- compression kernels -------------------------------------------------

/// SHA-1 of `msg` with every block folded by `kernel`: the FIPS padding
/// done by hand, so a kernel is checked without going through Hasher.
Digest digest_with(kern::Kernel kernel, const std::string& msg) {
  std::vector<std::uint8_t> m(msg.begin(), msg.end());
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  m.push_back(0x80);
  while (m.size() % 64 != 56) m.push_back(0);
  for (int i = 0; i < 8; ++i)
    m.push_back(static_cast<std::uint8_t>(bits >> (56 - 8 * i)));
  kern::State st = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                    0xC3D2E1F0u};
  for (std::size_t off = 0; off < m.size(); off += 64) kernel(st, &m[off]);
  Digest d;
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 4; ++j)
      d[4 * i + j] = static_cast<std::uint8_t>(st[i] >> (24 - 8 * j));
  return d;
}

struct Vector {
  std::string msg;
  const char* hex;
};

/// RFC 3174 / FIPS 180 vectors, single- and multi-block.
std::vector<Vector> rfc_vectors() {
  std::string repeated;
  for (int i = 0; i < 80; ++i) repeated += "01234567";
  return {
      {"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijkl"
       "mnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "a49b2446a02c645bf419f995b67091253a04a259"},
      {repeated, "dea356a2cddd90c7a7ecedc5ebb563934f460452"},
      {std::string(1000000, 'a'), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
  };
}

TEST(Sha1, PortableKernelMatchesRfcVectors) {
  // The portable kernel is the reference for the accelerated one, so it is
  // pinned directly, not through Hasher (which may run SHA-NI).
  for (const Vector& v : rfc_vectors())
    EXPECT_EQ(to_hex(digest_with(&kern::compress_portable, v.msg)), v.hex)
        << "len " << v.msg.size();
}

TEST(Sha1, SelectedKernelIsShaNiWhenAvailable) {
  const bool accel = kern::sha_ni_kernel() != nullptr;
  EXPECT_EQ(kern::selected_kernel(),
            accel ? kern::sha_ni_kernel() : &kern::compress_portable);
  EXPECT_STREQ(kern::selected_kernel_name(), accel ? "sha-ni" : "portable");
}

TEST(Sha1, AcceleratedMatchesPortable) {
  const kern::Kernel accel = kern::sha_ni_kernel();
  if (accel == nullptr)
    GTEST_SKIP() << "no SHA-NI kernel: not an x86 build, or the CPU lacks "
                    "SHA/SSSE3/SSE4.1; the portable kernel is the only one";

  auto expect_same = [&](const kern::State& start, const std::uint8_t* block,
                         const char* what, int i) {
    kern::State ref = start, got = start;
    kern::compress_portable(ref, block);
    accel(got, block);
    ASSERT_EQ(got, ref) << what << " " << i;
  };

  // Seeded random blocks from random chaining values.
  std::mt19937_64 rng(14);
  std::uint8_t block[64];
  for (int i = 0; i < 100000; ++i) {
    kern::State st;
    for (auto& w : st) w = static_cast<std::uint32_t>(rng());
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    expect_same(st, block, "random block", i);
  }

  // Extreme blocks and chaining values.
  for (std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    std::memset(block, fill, sizeof block);
    kern::State st;
    st.fill(fill == 0 ? 0u : 0xFFFFFFFFu);
    expect_same(st, block, "uniform block", fill);
    expect_same(kern::State{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                            0x10325476u, 0xC3D2E1F0u},
                block, "uniform block from IV", fill);
  }

  // The UTS spawn block: 20 parent-state bytes, 4 big-endian index bytes,
  // 0x80, zeros, bit length 192.
  std::uint8_t spawn[64] = {};
  spawn[24] = 0x80;
  spawn[63] = 192;
  for (int i = 0; i < 1000; ++i) {
    for (int j = 0; j < 24; ++j) spawn[j] = static_cast<std::uint8_t>(rng());
    expect_same(kern::State{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                            0x10325476u, 0xC3D2E1F0u},
                spawn, "spawn block", i);
  }

  // Multi-block messages, both straight through the kernel and through
  // Hasher (which runs the selected kernel).
  for (const Vector& v : rfc_vectors()) {
    EXPECT_EQ(to_hex(digest_with(accel, v.msg)), v.hex)
        << "len " << v.msg.size();
    EXPECT_EQ(to_hex(hash(v.msg)), v.hex) << "len " << v.msg.size();
  }
}

}  // namespace
