#include "sha1/sha1.hpp"

#include <cstring>
#include <utility>

#include "sha1/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define UPCWS_SHA1_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace upcws::sha1 {
namespace {

inline std::uint32_t rotl(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> (32u - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

constexpr std::array<std::uint32_t, 5> kIv = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

#ifdef UPCWS_SHA1_X86
#define UPCWS_SHA_NI_TARGET __attribute__((target("sha,sse4.1")))

/// Rounds 4G..4G+3 of the SHA-NI kernel. On entry msg[G % 4] holds
/// W[4G..4G+3] (first word in the top lane) and `e` holds the ABCD that
/// entered group G-1 (for G = 0: E in the top lane). The same step moves
/// the message schedule on: sha1msg1, xor and sha1msg2 finish W for groups
/// G+3, G+2 and G+1 respectively, as in Intel's reference flow.
template <int G>
[[gnu::always_inline]] UPCWS_SHA_NI_TARGET inline void sha_ni_group(
    __m128i& abcd, __m128i& e, __m128i (&msg)[4], const std::uint8_t* block,
    __m128i bswap) {
  if constexpr (G < 4)
    msg[G] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
        bswap);
  const __m128i wk = G == 0 ? _mm_add_epi32(e, msg[0])
                            : _mm_sha1nexte_epu32(e, msg[G % 4]);
  e = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, wk, G / 5);
  if constexpr (G >= 3 && G <= 18)
    msg[(G + 1) % 4] = _mm_sha1msg2_epu32(msg[(G + 1) % 4], msg[G % 4]);
  if constexpr (G >= 1 && G <= 16)
    msg[(G + 3) % 4] = _mm_sha1msg1_epu32(msg[(G + 3) % 4], msg[G % 4]);
  if constexpr (G >= 2 && G <= 17)
    msg[(G + 2) % 4] = _mm_xor_si128(msg[(G + 2) % 4], msg[G % 4]);
}

template <int... G>
[[gnu::always_inline]] UPCWS_SHA_NI_TARGET inline void sha_ni_groups(
    __m128i& abcd, __m128i& e, const std::uint8_t* block, __m128i bswap,
    std::integer_sequence<int, G...>) {
  __m128i msg[4];
  (sha_ni_group<G>(abcd, e, msg, block, bswap), ...);
}

/// The SHA-1 compression function on the x86 SHA extensions. Bit-identical
/// to compress_portable(); only called when the CPU has SHA-NI.
UPCWS_SHA_NI_TARGET void compress_sha_ni(detail::State& state,
                                         const std::uint8_t* block) {
  // Reverses all 16 bytes: big-endian words, first word in the top lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  const __m128i abcd_in = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0x1B);
  const __m128i e_in = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

  __m128i abcd = abcd_in, e = e_in;
  sha_ni_groups(abcd, e, block, bswap, std::make_integer_sequence<int, 20>{});
  e = _mm_sha1nexte_epu32(e, e_in);
  abcd = _mm_shuffle_epi32(_mm_add_epi32(abcd, abcd_in), 0x1B);

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), abcd);
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
}

/// CPUID leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1), leaf 7 EBX bit 29 (SHA).
/// Three CPUIDs (max leaf, 1, 7): each traps to the hypervisor on a VM.
bool cpu_has_sha_ni() {
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  __cpuid(1, eax, ebx, ecx, edx);
  const bool ssse3 = (ecx >> 9) & 1u;
  const bool sse41 = (ecx >> 19) & 1u;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  return ssse3 && sse41 && ((ebx >> 29) & 1u);
}
#endif  // UPCWS_SHA1_X86

}  // namespace

namespace detail {

/// The SHA-1 compression function: fold one 64-byte block into `state`.
/// Shared by the incremental Hasher and the single-block fast path.
void compress_portable(State& state, const std::uint8_t* block) {
  // Message schedule. RFC 3174 method 1, with the usual rolling expansion.
  std::uint32_t w[80];
  for (int t = 0; t < 16; ++t) w[t] = load_be32(block + 4 * t);
  for (int t = 16; t < 80; ++t)
    w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];

  auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wt) {
    std::uint32_t tmp = rotl(a, 5) + f + e + k + wt;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  };

  for (int t = 0; t < 20; ++t) round((b & c) | (~b & d), 0x5A827999u, w[t]);
  for (int t = 20; t < 40; ++t) round(b ^ c ^ d, 0x6ED9EBA1u, w[t]);
  for (int t = 40; t < 60; ++t)
    round((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, w[t]);
  for (int t = 60; t < 80; ++t) round(b ^ c ^ d, 0xCA62C1D6u, w[t]);

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

Kernel sha_ni_kernel() {
#ifdef UPCWS_SHA1_X86
  static const bool available = cpu_has_sha_ni();
  return available ? &compress_sha_ni : nullptr;
#else
  return nullptr;
#endif
}

Kernel selected_kernel() {
  static const Kernel kernel = [] {
    const Kernel accel = sha_ni_kernel();
    return accel != nullptr ? accel : &compress_portable;
  }();
  return kernel;
}

const char* selected_kernel_name() {
  return selected_kernel() == &compress_portable ? "portable" : "sha-ni";
}

}  // namespace detail

namespace {
// Select while the program loads, as CPU-feature dispatch usually is, so the
// CPUID traps are not paid inside the first hash. selected_kernel() stays
// correct if another translation unit's static initializer hashes first.
[[maybe_unused]] const detail::Kernel kLoadTimeKernel =
    detail::selected_kernel();
}  // namespace

void Hasher::reset() {
  state_ = kIv;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Hasher::process_block(const std::uint8_t* block) {
  detail::selected_kernel()(state_, block);
}

void Hasher::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;

  if (buffered_ > 0) {
    std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffered_ = len;
  }
}

Digest Hasher::finish() {
  // Pad: 0x80, zeros, then the 64-bit big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad80 = 0x80;
  update(&pad80, 1);
  static constexpr std::uint8_t kZeros[64] = {};
  // After the 0x80 byte, pad with zeros until 8 bytes remain in the block.
  std::size_t rem = buffered_;
  std::size_t pad = (rem <= 56) ? (56 - rem) : (64 + 56 - rem);
  // update() would keep counting these toward total_bytes_, but bit_len was
  // latched above, so the count no longer matters.
  update(kZeros, pad);
  std::uint8_t len_be[8];
  store_be64(len_be, bit_len);
  update(len_be, 8);

  Digest out;
  for (int i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Digest hash(const void* data, std::size_t len) {
  Hasher h;
  h.update(data, len);
  return h.finish();
}

Digest compress_block(const std::uint8_t* block64) {
  detail::State state = kIv;
  detail::selected_kernel()(state, block64);
  Digest out;
  for (int i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, state[i]);
  return out;
}

std::string to_hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(2 * kDigestBytes);
  for (std::uint8_t b : d) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xF]);
  }
  return s;
}

}  // namespace upcws::sha1
