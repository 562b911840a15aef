// drx_verify seeded defect: a per-element walk in a data-plane hot file.
//
// element-granular-copy applies to the data-plane files listed in
// scripts/drx_verify/passes.py (HOT_COPY_FILES); this file impersonates
// src/core/copy_plan.cpp through its module override and its name.
// Element movement there goes through the run-coalesced core::CopyPlan;
// for_each_index is fine over the chunk grid, which a call's arguments
// name (chunk / covering / zone), and a row-granular walk carries a
// justified suppression.
//
// Expected findings (pinned by tests/verify/check_corpus.py):
//   element-granular-copy x1          (+1 suppressed)
// drx-verify: module(core)
#include <cstdint>
#include <vector>

#include "core/coords.hpp"

namespace drx::verify_corpus {

std::uint64_t sum_elements(const core::Box& box) {
  std::uint64_t sum = 0;
  core::for_each_index(box, [&](const core::Index& idx) {  // seeded
    sum += idx[0];
  });
  return sum;
}

std::uint64_t count_rows(const core::Box& outer) {
  std::uint64_t rows = 0;
  // drx-verify: allow(element-granular-copy) row-granular: each visit
  // moves one contiguous fastest-dim run, not one element.
  core::for_each_index(outer, [&](const core::Index&) { ++rows; });
  return rows;
}

std::vector<core::Index> covered_chunks(const core::Box& chunk_box) {
  std::vector<core::Index> out;
  core::for_each_index(chunk_box,
                       [&](const core::Index& c) { out.push_back(c); });
  return out;
}

}  // namespace drx::verify_corpus
