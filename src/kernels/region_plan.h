// The engine's vblock sizing for the SCS layout: how many columns of the
// input vector one vblock covers so its value segment fits the tile's
// scratchpad.
#pragma once

#include "common/types.h"
#include "sim/config.h"

namespace cosparse::kernels {

/// The vblock width (columns) the engine uses so one vblock's 8-byte value
/// segment fits the tile's SCS scratchpad, line-aligned (engine.cpp uses
/// this for the resident SCS layout).
[[nodiscard]] Index default_vblock_cols(const sim::SystemConfig& cfg);

}  // namespace cosparse::kernels
