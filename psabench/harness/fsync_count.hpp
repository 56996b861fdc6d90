#pragma once

#include <cstdint>

namespace psabench {

/// Creates the shared counter; call before the first fork.
void init_fsync_counter();

/// fsync + fdatasync calls made by this process and its descendants.
[[nodiscard]] std::uint64_t fsyncs_issued();

}  // namespace psabench
