#include "core/metadata.hpp"

#include <algorithm>

namespace drx::core {

namespace {
/// FNV-1a over the payload; cheap corruption tripwire for .xmd files.
std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001B3ULL;
  }
  return h;
}
}  // namespace

Metadata::Metadata(ElementType t, MemoryOrder order, Shape elem_bounds,
                   Shape chunk_shape_in)
    : dtype(t),
      in_chunk_order(order),
      element_bounds(std::move(elem_bounds)),
      chunk_shape(std::move(chunk_shape_in)),
      mapping(ChunkSpace(chunk_shape, order)
                  .chunk_bounds_for(element_bounds)) {
  DRX_CHECK(element_bounds.size() == chunk_shape.size());
}

std::optional<std::uint64_t> Metadata::extend_elements(std::size_t dim,
                                                       std::uint64_t delta) {
  DRX_CHECK(dim < rank());
  element_bounds[dim] = checked_add(element_bounds[dim], delta);
  const Shape needed = chunk_space().chunk_bounds_for(element_bounds);
  if (needed[dim] <= mapping.bounds()[dim]) return std::nullopt;
  return mapping.extend(dim, needed[dim] - mapping.bounds()[dim]);
}

std::uint64_t Metadata::stored_data_bytes() const {
  if (!compressed()) return data_file_bytes();
  std::uint64_t end = 0;
  for (const ChunkSlot& s : chunk_table) {
    end = std::max(end, s.offset + s.stored);
  }
  return end;
}

std::uint64_t Metadata::stored_live_bytes() const {
  std::uint64_t total = 0;
  for (const ChunkSlot& s : chunk_table) total += s.stored;
  return total;
}

std::vector<std::byte> Metadata::to_bytes() const {
  ByteWriter payload;
  payload.put_u8(static_cast<std::uint8_t>(dtype));
  payload.put_u8(static_cast<std::uint8_t>(in_chunk_order));
  payload.put_u32(static_cast<std::uint32_t>(rank()));
  for (std::uint64_t b : element_bounds) payload.put_u64(b);
  for (std::uint64_t c : chunk_shape) payload.put_u64(c);
  mapping.serialize(payload);
  if (compressed()) {
    payload.put_u8(static_cast<std::uint8_t>(codec));
    payload.put_u64(data_end);
    payload.put_u64(chunk_table.size());
    for (const ChunkSlot& s : chunk_table) {
      payload.put_u64(s.offset);
      payload.put_u32(s.stored);
      payload.put_u32(s.capacity);
      payload.put_u8(s.codec);
    }
  }

  ByteWriter out;
  out.put_u32(kMagic);
  out.put_u32(compressed() ? kVersionCompressed : kVersion);
  out.put_u64(payload.size());
  out.put_u64(fnv1a(payload.bytes()));
  out.put_bytes(payload.bytes());
  return std::move(out).take();
}

Result<Metadata> Metadata::from_bytes(std::span<const std::byte> data) {
  ByteReader reader(data);
  DRX_ASSIGN_OR_RETURN(std::uint32_t magic, reader.get_u32());
  if (magic != kMagic) {
    return Status(ErrorCode::kCorrupt, "bad .xmd magic");
  }
  DRX_ASSIGN_OR_RETURN(std::uint32_t version, reader.get_u32());
  if (version != kVersion && version != kVersionCompressed) {
    return Status(ErrorCode::kUnsupported, ".xmd version not supported");
  }
  DRX_ASSIGN_OR_RETURN(std::uint64_t payload_len, reader.get_u64());
  DRX_ASSIGN_OR_RETURN(std::uint64_t checksum, reader.get_u64());
  if (reader.remaining() < payload_len) {
    return Status(ErrorCode::kCorrupt, ".xmd truncated");
  }
  const std::span<const std::byte> payload =
      data.subspan(data.size() - reader.remaining(),
                   static_cast<std::size_t>(payload_len));
  if (fnv1a(payload) != checksum) {
    return Status(ErrorCode::kCorrupt, ".xmd checksum mismatch");
  }

  ByteReader body(payload);
  Metadata meta;
  DRX_ASSIGN_OR_RETURN(std::uint8_t dtype_raw, body.get_u8());
  if (dtype_raw > static_cast<std::uint8_t>(ElementType::kComplexDouble)) {
    return Status(ErrorCode::kCorrupt, "unknown element type");
  }
  meta.dtype = static_cast<ElementType>(dtype_raw);
  DRX_ASSIGN_OR_RETURN(std::uint8_t order_raw, body.get_u8());
  if (order_raw > 1) {
    return Status(ErrorCode::kCorrupt, "unknown in-chunk order");
  }
  meta.in_chunk_order = static_cast<MemoryOrder>(order_raw);
  DRX_ASSIGN_OR_RETURN(std::uint32_t k, body.get_u32());
  if (k == 0 || k > 64) {
    return Status(ErrorCode::kCorrupt, "implausible rank");
  }
  meta.element_bounds.resize(k);
  for (auto& b : meta.element_bounds) {
    DRX_ASSIGN_OR_RETURN(b, body.get_u64());
  }
  meta.chunk_shape.resize(k);
  for (auto& c : meta.chunk_shape) {
    DRX_ASSIGN_OR_RETURN(c, body.get_u64());
    if (c == 0) return Status(ErrorCode::kCorrupt, "zero chunk extent");
  }
  DRX_ASSIGN_OR_RETURN(meta.mapping, AxialMapping::deserialize(body));
  if (meta.mapping.rank() != k) {
    return Status(ErrorCode::kCorrupt, "mapping rank mismatch");
  }
  // The chunk grid must cover the element bounds.
  const Shape expect =
      meta.chunk_space().chunk_bounds_for(meta.element_bounds);
  for (std::size_t d = 0; d < k; ++d) {
    if (meta.mapping.bounds()[d] < expect[d]) {
      return Status(ErrorCode::kCorrupt,
                    "chunk grid does not cover element bounds");
    }
  }

  if (version == kVersionCompressed) {
    DRX_ASSIGN_OR_RETURN(std::uint8_t codec_raw, body.get_u8());
    if (!codec::valid_codec(codec_raw) ||
        codec_raw == static_cast<std::uint8_t>(codec::CodecId::kNone)) {
      return Status(ErrorCode::kCorrupt, "bad array codec id");
    }
    meta.codec = static_cast<codec::CodecId>(codec_raw);
    DRX_ASSIGN_OR_RETURN(meta.data_end, body.get_u64());
    DRX_ASSIGN_OR_RETURN(std::uint64_t slots, body.get_u64());
    if (slots != meta.mapping.total_chunks()) {
      return Status(ErrorCode::kCorrupt,
                    "chunk table does not match the chunk grid");
    }
    const std::uint64_t chunk_sz = meta.chunk_bytes();
    meta.chunk_table.resize(checked_size(slots));
    for (ChunkSlot& s : meta.chunk_table) {
      DRX_ASSIGN_OR_RETURN(s.offset, body.get_u64());
      DRX_ASSIGN_OR_RETURN(s.stored, body.get_u32());
      DRX_ASSIGN_OR_RETURN(s.capacity, body.get_u32());
      DRX_ASSIGN_OR_RETURN(s.codec, body.get_u8());
      if (s.unwritten()) continue;  // never written: reads as zeros
      if (!codec::valid_codec(s.codec) || s.stored > s.capacity ||
          checked_add(s.offset, s.capacity) > meta.data_end) {
        return Status(ErrorCode::kCorrupt, "chunk slot out of bounds");
      }
      const bool raw_slot =
          s.codec == static_cast<std::uint8_t>(codec::CodecId::kNone);
      if (raw_slot ? s.stored != chunk_sz
                   : (s.stored == 0 || s.stored >= chunk_sz)) {
        return Status(ErrorCode::kCorrupt, "chunk slot size implausible");
      }
    }
  }
  return meta;
}

}  // namespace drx::core
