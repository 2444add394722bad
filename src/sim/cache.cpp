#include "sim/cache.h"

#include <bit>
#include <tuple>

#include "common/error.h"

namespace cosparse::sim {

CacheArray::CacheArray(std::uint32_t num_banks, std::uint32_t bank_bytes,
                       std::uint32_t line_bytes, std::uint32_t associativity,
                       std::uint32_t prefetch_depth,
                       std::uint32_t num_requesters)
    : num_banks_(num_banks),
      bank_bytes_(bank_bytes),
      line_bytes_(line_bytes),
      associativity_(associativity),
      prefetch_depth_(prefetch_depth),
      sets_per_bank_(bank_bytes / (line_bytes * associativity)),
      lines_(static_cast<std::size_t>(num_banks) * sets_per_bank_ *
             associativity),
      streams_(static_cast<std::size_t>(num_requesters) *
               kStreamsPerRequester) {
  COSPARSE_CHECK(num_banks_ >= 1);
  COSPARSE_CHECK(sets_per_bank_ >= 1);
  COSPARSE_CHECK(prefetch_depth_ + 1 <= kMaxFetchedLines);
  pow2_ = std::has_single_bit(num_banks_) &&
          std::has_single_bit(sets_per_bank_) &&
          std::has_single_bit(line_bytes_) &&
          std::has_single_bit(associativity_);
  if (pow2_) {
    line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes_));
    bank_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_banks_));
    set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets_per_bank_));
    way_shift_ = static_cast<std::uint32_t>(std::countr_zero(associativity_));
    bank_mask_ = num_banks_ - 1;
    set_mask_ = sets_per_bank_ - 1;
  }
}

CacheArray::Line* CacheArray::find_at(std::size_t base, std::uint64_t line) {
  // An empty way's tag matches no line index.
  for (std::uint32_t w = 0; w < associativity_; ++w) {
    if (lines_[base + w].line_addr == line) return &lines_[base + w];
  }
  return nullptr;
}

CacheArray::Line& CacheArray::victim_at(std::size_t base) {
  // Victim order: invalid ways, then not-yet-used prefetched lines (they
  // were inserted at low priority so prefetch streams evict each other
  // instead of polluting demand-hot lines), then true LRU.
  Line* best = &lines_[base];
  for (std::uint32_t w = 0; w < associativity_; ++w) {
    Line& l = lines_[base + w];
    if (!l.valid()) return l;
    if (l.victim_key() < best->victim_key()) best = &l;
  }
  return *best;
}

CacheArray::Line& CacheArray::install_at(std::size_t base, std::uint64_t line,
                                         bool prefetched, Addr* writebacks,
                                         std::uint32_t& num_writebacks) {
  Line& v = victim_at(base);
  if (v.valid() && v.dirty()) {
    writebacks[num_writebacks++] = v.line_addr * line_bytes_;
  }
  v.line_addr = line;
  v.meta = (prefetched ? 0 : Line::kDemand) | ++tick_;
  return v;
}

CacheArray::Outcome CacheArray::access(std::uint32_t requester, Addr addr,
                                       bool write, bool low_priority) {
  Outcome out;  // arrays left indeterminate (see Outcome)
  const std::uint64_t line = line_of(addr);
  const std::size_t base = set_base(line);

  if (low_priority) {
    // Fill on behalf of an upper level's speculation: hit bumps nothing,
    // miss installs at prefetch priority, the prefetcher stays untrained.
    Line* resident = find_at(base, line);
    if (resident != nullptr) {
      out.hit = true;
      if (write) resident->meta |= Line::kDirty;
      return out;
    }
    Line& filled = install_at(base, line, /*prefetched=*/true,
                              out.writeback_lines, out.num_writebacks);
    out.fetched_lines[out.num_fetched++] = line * line_bytes_;
    if (write) filled.meta |= Line::kDirty;
    return out;
  }

  // --- stride detection (runs on every demand access) ---
  // Match the access against the requester's stream table by proximity;
  // allocate the LRU entry for accesses that belong to no known stream.
  StreamState* match = nullptr;
  {
    StreamState* table = &streams_[static_cast<std::size_t>(requester) *
                                   kStreamsPerRequester];
    StreamState* victim = table;
    for (std::uint32_t s = 0; s < kStreamsPerRequester; ++s) {
      StreamState& cand = table[s];
      if (cand.valid) {
        const auto delta = static_cast<std::int64_t>(line) -
                           static_cast<std::int64_t>(cand.last_line);
        if (delta >= -kStreamMatchWindow && delta <= kStreamMatchWindow) {
          match = &cand;
          break;
        }
      }
      // Victim selection prefers unconfirmed entries: random access
      // patterns churn among themselves instead of evicting a confirmed
      // stream (the behaviour a PC-indexed prefetcher gets for free).
      if (!cand.valid ||
          std::tie(cand.confidence, cand.last_use) <
              std::tie(victim->confidence, victim->last_use)) {
        victim = &cand;
      }
    }
    if (match == nullptr) {
      *victim = StreamState{};
      victim->valid = true;
      victim->last_line = line;
      victim->last_use = ++tick_;
    }
  }
  bool stride_confirmed = false;
  std::int64_t stride = 0;
  if (match != nullptr) {
    StreamState& st = *match;
    st.last_use = ++tick_;
    const auto delta = static_cast<std::int64_t>(line) -
                       static_cast<std::int64_t>(st.last_line);
    if (delta != 0) {
      if (delta == st.stride) {
        if (st.confidence < 4) ++st.confidence;
      } else {
        st.stride = delta;
        st.confidence = 1;
      }
      st.last_line = line;
    }
    stride_confirmed = st.confidence >= 2 && st.stride != 0;
    stride = st.stride;
  }

  auto issue_prefetch = [&](std::uint64_t pf_line) {
    const std::size_t pf_base = set_base(pf_line);
    if (find_at(pf_base, pf_line) != nullptr) return;  // already resident
    if (out.num_fetched >= kMaxFetchedLines) return;
    install_at(pf_base, pf_line, /*prefetched=*/true, out.writeback_lines,
               out.num_writebacks);
    out.fetched_lines[out.num_fetched++] = pf_line * line_bytes_;
    ++out.num_prefetched;
  };

  Line* hit_line = find_at(base, line);
  if (hit_line != nullptr) {
    out.hit = true;
    hit_line->touch(++tick_);
    if (write) hit_line->meta |= Line::kDirty;
    // Tagged prefetch: the first demand hit on a prefetched line promotes
    // it to normal priority and extends the stream by one more line,
    // keeping steady-state streams resident.
    if (hit_line->prefetched()) {
      hit_line->meta |= Line::kDemand;
      if (stride_confirmed) {
        const std::int64_t next =
            static_cast<std::int64_t>(line) +
            stride * static_cast<std::int64_t>(prefetch_depth_);
        if (next > 0) issue_prefetch(static_cast<std::uint64_t>(next));
      }
    }
    return out;
  }

  // Demand miss: fetch the line itself...
  Line& filled = install_at(base, line, /*prefetched=*/false,
                            out.writeback_lines, out.num_writebacks);
  out.fetched_lines[out.num_fetched++] = line * line_bytes_;
  if (write) filled.meta |= Line::kDirty;
  // ...and run the stride prefetcher ahead of it.
  if (stride_confirmed) {
    for (std::uint32_t i = 1; i <= prefetch_depth_; ++i) {
      const std::int64_t next =
          static_cast<std::int64_t>(line) + stride * static_cast<std::int64_t>(i);
      if (next > 0) issue_prefetch(static_cast<std::uint64_t>(next));
    }
  }
  return out;
}

std::uint32_t CacheArray::install(Addr addr, Addr* writeback_out) {
  const std::uint64_t line = line_of(addr);
  Addr wb = 0;
  std::uint32_t num_wb = 0;
  install_at(set_base(line), line, /*prefetched=*/false, &wb, num_wb);
  if (num_wb != 0 && writeback_out != nullptr) *writeback_out = wb;
  return num_wb;
}

bool CacheArray::probe(Addr addr) const {
  const std::uint64_t line = line_of(addr);
  return const_cast<CacheArray*>(this)->find_at(set_base(line), line) !=
         nullptr;
}

std::uint64_t CacheArray::flush(std::vector<Addr>* dirty_lines) {
  std::uint64_t dirty = 0;
  for (Line& l : lines_) {
    if (l.valid() && l.dirty()) {
      ++dirty;
      if (dirty_lines != nullptr) {
        dirty_lines->push_back(l.line_addr * line_bytes_);
      }
    }
    l = Line{};
  }
  for (StreamState& s : streams_) s = StreamState{};
  tick_ = 0;
  return dirty;
}

}  // namespace cosparse::sim
