// The .xmd metadata of a DRX extendible array file (paper Sec. IV-A).
//
// Holds everything a process needs to compute any chunk address locally:
// rank, element type, chunk shape, instantaneous element bounds, the
// in-chunk layout order, and the full axial-vector state. On open, this
// structure is replicated into every participating process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include <vector>

#include "codec/codec.hpp"
#include "core/axial_mapping.hpp"
#include "core/chunk_space.hpp"
#include "core/types.hpp"
#include "util/serde.hpp"

namespace drx::core {

/// Physical location of one chunk's stored bytes in the .xta file of a
/// compressed array (docs/COMPRESSION.md). The slot reserves `capacity`
/// bytes starting at `offset`; `stored` of them are live. Rewrites that
/// still fit update in place; larger rewrites relocate to the end of
/// the file and leak the old slot (append-only, like extension itself).
/// A chunk that was never written keeps the all-zero slot: it owns no
/// storage and reads back as zeros without any I/O.
struct ChunkSlot {
  std::uint64_t offset = 0;    ///< byte offset in the .xta
  std::uint32_t stored = 0;    ///< bytes actually stored
  std::uint32_t capacity = 0;  ///< bytes reserved at offset
  std::uint8_t codec = 0;      ///< per-chunk codec::CodecId of the bytes

  [[nodiscard]] bool unwritten() const noexcept { return *this == ChunkSlot{}; }

  friend bool operator==(const ChunkSlot&, const ChunkSlot&) = default;
};

struct Metadata {
  static constexpr std::uint32_t kMagic = 0x44525831;  // "DRX1"
  static constexpr std::uint32_t kVersion = 1;
  /// Version 2 adds the array codec and the per-chunk slot table. It is
  /// written ONLY for compressed arrays: uncompressed arrays keep the
  /// bit-identical version-1 image so `DRX_COMPRESS=off` stays exactly
  /// the legacy format.
  static constexpr std::uint32_t kVersionCompressed = 2;

  ElementType dtype = ElementType::kDouble;
  MemoryOrder in_chunk_order = MemoryOrder::kRowMajor;
  Shape element_bounds;  ///< instantaneous N_0 .. N_{k-1}
  Shape chunk_shape;     ///< c_0 .. c_{k-1}
  AxialMapping mapping;  ///< chunk-grid axial-vector state

  /// Array-level codec negotiated at create time. kNone -> legacy dense
  /// layout, empty chunk_table, version-1 serialization.
  codec::CodecId codec = codec::CodecId::kNone;
  /// One slot per linear chunk address (compressed arrays only);
  /// appended chunks start as unwritten slots.
  std::vector<ChunkSlot> chunk_table;
  /// High-water mark of the .xta file (compressed arrays only): the
  /// next relocated/appended slot starts here.
  std::uint64_t data_end = 0;

  Metadata() : mapping(Shape{1}) {}
  Metadata(ElementType t, MemoryOrder order, Shape elem_bounds,
           Shape chunk_shape_in);

  [[nodiscard]] std::size_t rank() const noexcept {
    return element_bounds.size();
  }
  [[nodiscard]] std::uint64_t element_bytes() const noexcept {
    return element_size(dtype);
  }
  [[nodiscard]] ChunkSpace chunk_space() const {
    return ChunkSpace(chunk_shape, in_chunk_order);
  }
  [[nodiscard]] std::uint64_t chunk_bytes() const {
    return checked_mul(checked_product(chunk_shape), element_bytes());
  }
  /// Logical (raw, decompressed) bytes of all allocated chunks. For
  /// uncompressed arrays this is also the exact .xta size.
  [[nodiscard]] std::uint64_t data_file_bytes() const {
    return checked_mul(mapping.total_chunks(), chunk_bytes());
  }

  [[nodiscard]] bool compressed() const noexcept {
    return codec != codec::CodecId::kNone;
  }
  /// Minimal physical .xta size: the dense size for uncompressed
  /// arrays; for compressed arrays the furthest *stored* byte (slot
  /// capacity padding past it is reserved but never written, so it may
  /// legitimately lie past EOF).
  [[nodiscard]] std::uint64_t stored_data_bytes() const;
  /// Live stored bytes across all chunk slots (excludes leaked holes
  /// and capacity padding); the numerator of drx_inspect's ratio.
  [[nodiscard]] std::uint64_t stored_live_bytes() const;

  /// The one sanctioned axial-vector mutation (scripts/lint_drx.py rule
  /// `axial-mutation`): grows dimension `dim` by `delta` elements,
  /// extending the chunk grid through the axial mapping when the new
  /// bounds spill past it. Returns the linear address of the first
  /// appended chunk, or nullopt when the existing grid already covers the
  /// new bounds. The caller must already have validated `dim` and is
  /// responsible for materializing storage for the appended chunks.
  std::optional<std::uint64_t> extend_elements(std::size_t dim,
                                               std::uint64_t delta);

  /// Full serialized .xmd image (magic + version + payload + checksum).
  [[nodiscard]] std::vector<std::byte> to_bytes() const;
  [[nodiscard]] static Result<Metadata> from_bytes(std::span<const std::byte> data);

  friend bool operator==(const Metadata&, const Metadata&) = default;
};

}  // namespace drx::core
