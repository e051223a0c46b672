// Allocation counter local to the benchmark: a replacement of the global
// operator new/delete (alloc.cpp, the only translation unit that defines
// them) that counts `operator new` calls per thread while counting is on.
//
// Counting is switched on only for traced repetitions, so untraced runs pay
// one relaxed load per allocation. Each thread owns one padded counter slot:
// deltas around a call on that thread attribute the call's allocations
// without seeing other threads', and the process total is the slot sum.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// Turns counting on or off for every thread.
void set_counting(bool on) noexcept;

/// `operator new` calls made by the calling thread while counting was on.
std::uint64_t thread_count() noexcept;

/// `operator new` calls made by every thread while counting was on.
std::uint64_t process_count() noexcept;

}  // namespace perfbench::alloc
