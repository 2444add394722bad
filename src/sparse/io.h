// Matrix Market and SNAP edge-list I/O.
//
// The dataset registry generates synthetic stand-ins by default, but real
// SNAP / SuiteSparse files can be dropped in and loaded with these readers
// to run every experiment on the original graphs.
#pragma once

#include <string>

#include "sparse/formats.h"

namespace cosparse::sparse {

/// Reads a Matrix Market coordinate file (`%%MatrixMarket matrix coordinate
/// real|integer|pattern general|symmetric`). Pattern entries get value 1;
/// symmetric matrices are expanded. Throws cosparse::Error on malformed
/// input.
Coo read_matrix_market(const std::string& path);

/// Writes a COO matrix as `coordinate real general` (1-based indices).
void write_matrix_market(const std::string& path, const Coo& coo);

/// Reads a SNAP-style edge list: `#`-comment lines, then one
/// `src dst [weight]` per line (0- or 1-based; indices are used verbatim and
/// the matrix is sized to the max index + 1). `undirected` mirrors each
/// edge. Ids above 2^32 - 2 do not fit Index with room for the count and
/// are rejected with the offending line.
Coo read_edge_list(const std::string& path, bool undirected = false);

}  // namespace cosparse::sparse
