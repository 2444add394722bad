// Binary serialization for sparse matrices.
//
// Generating the Table III stand-ins takes seconds to minutes at low scale
// divisors; the dataset registry caches generated graphs on disk (set
// COSPARSE_CACHE_DIR) so benchmark reruns skip regeneration. The format is
// a versioned little-endian dump with a magic header and a trailing
// checksum so truncated or foreign files fail loudly rather than load
// garbage.
#pragma once

#include <string>

#include "sparse/formats.h"

namespace cosparse::sparse {

/// Writes `coo` to `path` (overwrites). Throws cosparse::Error on I/O
/// failure.
void write_binary(const std::string& path, const Coo& coo);

/// Reads a matrix written by write_binary. Throws cosparse::Error on
/// missing file, bad magic, version mismatch, a declared entry count the
/// file is too short to hold, truncation, or checksum mismatch.
Coo read_binary(const std::string& path);

}  // namespace cosparse::sparse
