// The SHA-1 compression kernels behind sha1.hpp, exposed for differential
// tests and per-kernel microbenchmarks. Not a configuration surface: the
// library picks its kernel once, from CPUID, and nothing else selects it.
#pragma once

#include <array>
#include <cstdint>

namespace upcws::sha1::detail {

using State = std::array<std::uint32_t, 5>;

/// Folds one 64-byte block into `state`.
using Kernel = void (*)(State& state, const std::uint8_t* block);

/// The portable kernel (RFC 3174 method 1). It runs on every host and is
/// the reference the accelerated kernel is tested against.
void compress_portable(State& state, const std::uint8_t* block);

/// The x86 SHA-extensions kernel, or nullptr when this build is not for
/// x86 or the CPU lacks SHA, SSSE3 or SSE4.1.
Kernel sha_ni_kernel();

/// The kernel compress_block() and Hasher use: SHA-NI when available,
/// otherwise the portable one.
Kernel selected_kernel();

/// "sha-ni" or "portable": the name of selected_kernel().
const char* selected_kernel_name();

}  // namespace upcws::sha1::detail
