// drx_inspect — command-line inspector for DRX extendible array files.
//
// Usage:
//   drx_inspect <array-name>            # reads <array-name>.xmd (+ .xta)
//   drx_inspect --chunk-table <name>    # also dumps the chunk address
//                                       # grid (small arrays only)
//   drx_inspect --json <name>           # metadata as a JSON object
//   drx_inspect --stats <snapshot>      # text table of a DRX_METRICS
//                                       # snapshot (same as drx_stats)
//
// Prints the metadata a DRX/DRX-MP process replicates on open: rank,
// element type, bounds, chunk shape, data-file geometry, and the axial
// vectors with their expansion records.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/drx_file.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

using namespace drx;  // NOLINT: tool brevity
using core::Box;
using core::Index;
using core::Metadata;

namespace {

drx::Result<Metadata> load_metadata(const std::string& name) {
  if (!std::filesystem::exists(name + ".xmd")) {
    return drx::Status(drx::ErrorCode::kNotFound,
                       "no such file: " + name + ".xmd");
  }
  auto meta_storage = pfs::PosixStorage::open(name + ".xmd");
  if (!meta_storage.is_ok()) return meta_storage.status();
  std::vector<std::byte> image(
      static_cast<std::size_t>(meta_storage.value()->size()));
  if (!meta_storage.value()->read_at(0, image)) {
    return drx::Status(drx::ErrorCode::kIoError,
                       "cannot read " + name + ".xmd");
  }
  return Metadata::from_bytes(image);
}

std::uint64_t unwritten_chunks(const Metadata& m) {
  return static_cast<std::uint64_t>(
      std::count_if(m.chunk_table.begin(), m.chunk_table.end(),
                    [](const core::ChunkSlot& s) { return s.unwritten(); }));
}

void shape_to_json(const core::Shape& s, obs::JsonWriter& w) {
  w.begin_array();
  for (std::uint64_t v : s) w.value(v);
  w.end_array();
}

/// Metadata as a JSON object (same writer the metrics JSON uses, so tool
/// output stays uniformly parseable).
int inspect_json(const std::string& name) {
  auto meta = load_metadata(name);
  if (!meta.is_ok()) {
    std::fprintf(stderr, "error: %s\n", meta.status().to_string().c_str());
    return 1;
  }
  const Metadata& m = meta.value();
  obs::JsonWriter w;
  w.begin_object();
  w.key("name").value(name);
  w.key("rank").value(static_cast<std::uint64_t>(m.rank()));
  w.key("element_type").value(core::element_type_name(m.dtype));
  w.key("element_bytes").value(m.element_bytes());
  w.key("in_chunk_order")
      .value(m.in_chunk_order == core::MemoryOrder::kRowMajor ? "row-major"
                                                              : "column-major");
  w.key("element_bounds");
  shape_to_json(m.element_bounds, w);
  w.key("chunk_shape");
  shape_to_json(m.chunk_shape, w);
  w.key("chunk_grid");
  shape_to_json(m.mapping.bounds(), w);
  w.key("total_chunks").value(m.mapping.total_chunks());
  w.key("chunk_bytes").value(m.chunk_bytes());
  w.key("data_file_bytes").value(m.data_file_bytes());
  w.key("codec").value(codec::codec_name(m.codec));
  if (m.compressed()) {
    const std::uint64_t live = m.stored_live_bytes();
    w.key("stored_bytes").value(live);
    w.key("data_end").value(m.data_end);
    w.key("unwritten_chunks").value(unwritten_chunks(m));
    w.key("compression_ratio")
        .value(live == 0 ? 0.0
                         : static_cast<double>(m.data_file_bytes()) /
                               static_cast<double>(live));
    w.key("chunk_slots").begin_array();
    for (std::size_t a = 0; a < m.chunk_table.size(); ++a) {
      const core::ChunkSlot& slot = m.chunk_table[a];
      w.begin_object();
      w.key("address").value(static_cast<std::uint64_t>(a));
      w.key("offset").value(slot.offset);
      w.key("stored").value(static_cast<std::uint64_t>(slot.stored));
      w.key("capacity").value(static_cast<std::uint64_t>(slot.capacity));
      w.key("codec").value(
          codec::codec_name(static_cast<codec::CodecId>(slot.codec)));
      w.key("unwritten").value(slot.unwritten());
      w.end_object();
    }
    w.end_array();
  }
  w.key("axial_records").value(m.mapping.total_records());
  w.key("axial_vectors").begin_array();
  for (std::size_t d = 0; d < m.rank(); ++d) {
    w.begin_array();
    for (const auto& r : m.mapping.axial_vector(d).records()) {
      if (r.start_address == core::ExpansionRecord::kUnallocated) continue;
      w.begin_object();
      w.key("start_index").value(r.start_index);
      w.key("start_address").value(static_cast<std::int64_t>(r.start_address));
      w.key("coeffs").begin_array();
      for (std::uint64_t c : r.coeffs) w.value(c);
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

/// Text table of a DRX_METRICS snapshot (shared rendering with drx_stats).
int show_stats(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  auto snap = obs::MetricsSnapshot::deserialize(std::span(
      reinterpret_cast<const std::byte*>(raw.data()), raw.size()));
  if (!snap.is_ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 snap.status().to_string().c_str());
    return 1;
  }
  std::fputs(obs::metrics_to_text(snap.value()).c_str(), stdout);
  return 0;
}

int inspect(const std::string& name, bool chunk_table) {
  auto meta = load_metadata(name);
  if (!meta.is_ok()) {
    std::fprintf(stderr, "error: %s\n", meta.status().to_string().c_str());
    return 1;
  }
  const Metadata& m = meta.value();

  std::printf("DRX extendible array: %s\n", name.c_str());
  std::printf("  rank            : %zu\n", m.rank());
  std::printf("  element type    : %s (%llu bytes)\n",
              std::string(core::element_type_name(m.dtype)).c_str(),
              static_cast<unsigned long long>(m.element_bytes()));
  std::printf("  in-chunk order  : %s\n",
              m.in_chunk_order == core::MemoryOrder::kRowMajor
                  ? "row-major (C)"
                  : "column-major (FORTRAN)");
  auto print_shape = [](const char* label, const core::Shape& s) {
    std::printf("  %-16s:", label);
    for (std::uint64_t v : s) {
      std::printf(" %llu", static_cast<unsigned long long>(v));
    }
    std::printf("\n");
  };
  print_shape("element bounds", m.element_bounds);
  print_shape("chunk shape", m.chunk_shape);
  print_shape("chunk grid", m.mapping.bounds());
  std::printf("  chunks          : %llu (%llu bytes each; .xta = %llu "
              "bytes)\n",
              static_cast<unsigned long long>(m.mapping.total_chunks()),
              static_cast<unsigned long long>(m.chunk_bytes()),
              static_cast<unsigned long long>(m.data_file_bytes()));
  std::printf("  axial records E : %llu (F* cost ~ O(k + log E))\n",
              static_cast<unsigned long long>(m.mapping.total_records()));
  std::printf("  codec           : %s\n",
              std::string(codec::codec_name(m.codec)).c_str());
  if (m.compressed()) {
    const std::uint64_t live = m.stored_live_bytes();
    const double ratio = live == 0
                             ? 0.0
                             : static_cast<double>(m.data_file_bytes()) /
                                   static_cast<double>(live);
    std::printf("  stored bytes    : %llu of %llu logical (ratio %.2fx, "
                "data_end %llu)\n",
                static_cast<unsigned long long>(live),
                static_cast<unsigned long long>(m.data_file_bytes()),
                ratio, static_cast<unsigned long long>(m.data_end));
    std::printf("  unwritten chunks: %llu (no storage; read as zeros)\n",
                static_cast<unsigned long long>(unwritten_chunks(m)));
    constexpr std::size_t kMaxSlotRows = 64;
    std::printf("  chunk slots (address: offset stored/capacity codec):\n");
    for (std::size_t a = 0;
         a < std::min(m.chunk_table.size(), kMaxSlotRows); ++a) {
      const core::ChunkSlot& slot = m.chunk_table[a];
      if (slot.unwritten()) {
        std::printf("    %6zu: unwritten\n", a);
        continue;
      }
      std::printf("    %6zu: %10llu %8llu/%-8llu %s\n", a,
                  static_cast<unsigned long long>(slot.offset),
                  static_cast<unsigned long long>(slot.stored),
                  static_cast<unsigned long long>(slot.capacity),
                  std::string(codec::codec_name(
                                  static_cast<codec::CodecId>(slot.codec)))
                      .c_str());
    }
    if (m.chunk_table.size() > kMaxSlotRows) {
      std::printf("    ... %zu more (use --json for the full slot table)\n",
                  m.chunk_table.size() - kMaxSlotRows);
    }
  }

  for (std::size_t d = 0; d < m.rank(); ++d) {
    std::printf("  axial vector D%zu:\n", d);
    for (const auto& r : m.mapping.axial_vector(d).records()) {
      if (r.start_address == core::ExpansionRecord::kUnallocated) {
        std::printf("    <sentinel: dimension never hosted a segment>\n");
        continue;
      }
      std::printf("    segment from index %llu at chunk address %lld, C = [",
                  static_cast<unsigned long long>(r.start_index),
                  static_cast<long long>(r.start_address));
      for (std::size_t j = 0; j < r.coeffs.size(); ++j) {
        std::printf("%s%llu", j ? ", " : "",
                    static_cast<unsigned long long>(r.coeffs[j]));
      }
      std::printf("]\n");
    }
  }

  if (chunk_table) {
    if (m.rank() != 2 || m.mapping.total_chunks() > 4096) {
      std::printf("  (chunk table printed for 2-D arrays up to 4096 "
                  "chunks only)\n");
    } else {
      std::printf("  chunk address table (rows = D0, cols = D1):\n");
      for (std::uint64_t i = 0; i < m.mapping.bounds()[0]; ++i) {
        std::printf("   ");
        for (std::uint64_t j = 0; j < m.mapping.bounds()[1]; ++j) {
          std::printf(" %6llu", static_cast<unsigned long long>(
                                    m.mapping.address_of(Index{i, j})));
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* const kUsage =
      "usage: drx_inspect [--chunk-table|--json] <name>\n"
      "       drx_inspect --stats <snapshot>\n";
  bool chunk_table = false;
  bool json = false;
  bool stats = false;
  std::string name;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chunk-table") == 0) {
      chunk_table = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (name.empty()) {
      name = argv[i];
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  if (name.empty() || (json && stats) || (chunk_table && (json || stats))) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (stats) return show_stats(name);
  if (json) return inspect_json(name);
  return inspect(name, chunk_table);
}
