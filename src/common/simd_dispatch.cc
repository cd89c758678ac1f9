#include "common/simd_dispatch.h"

namespace ocdd::simd {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Backend Active() { return CpuHasAvx2() ? Backend::kAvx2 : Backend::kScalar; }

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace ocdd::simd
