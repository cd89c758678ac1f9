#ifndef OCDD_COMMON_SIMD_DISPATCH_H_
#define OCDD_COMMON_SIMD_DISPATCH_H_

namespace ocdd::simd {

/// A report of the CPU's vector capability, for stamping benchmark and
/// profile output with the host it ran on. No kernel branches on it: every
/// check kernel has exactly one (scalar) implementation, and the compiler
/// is free to vectorize it (docs/performance.md, "Why the check kernels are
/// scalar").
enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// kAvx2 when the CPU supports AVX2, otherwise kScalar.
Backend Active();

/// True when the CPU supports AVX2.
bool CpuHasAvx2();

const char* BackendName(Backend backend);

}  // namespace ocdd::simd

#endif  // OCDD_COMMON_SIMD_DISPATCH_H_
