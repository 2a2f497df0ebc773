// Heap-allocation counting for the traced run: this binary replaces the
// global operator new, and every allocation bumps a per-thread counter.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made so far by the calling thread.
std::uint64_t ThreadAllocations();

}  // namespace perfbench
